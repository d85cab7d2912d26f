"""Square-free polynomial lists, sign-pattern counts, and their bound checks.

A list of univariate polynomials is square-free when no nonempty sub-collection
multiplies to a square over the algebraic closure.  Because irreducibles over
F_q are separable, a product is a closure-square exactly when every irreducible
factor appears with even multiplicity, so the test reduces to GF(2) linear
independence of the factor-multiplicity parity vectors.

count_sign_pattern scans every field element and counts those where each
polynomial hits its prescribed character sign; for a square-free list the
count N must satisfy |N - q/2^k| < (sqrt(q)+1) D / 2 with D the total degree.

SLICE_POLYS is the one table of the classification polynomials (f1..f4, g1..g4
and seven linear forms in x and y), read by charside's class rules too; at
y = c it is the fixed 15-polynomial list used by all slice estimates.  The ten
admissibility conditions on c guarantee that this list is square-free;
verify_slice_lists confirms it exhaustively for a field, along with the size of
the root set R(c) and the root-separation facts the argument leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ZeroPolynomial
from .field import Field
from .gfpoly import (
    Poly,
    degree,
    factorize,
    normalize,
    poly_derivative,
    poly_eval,
    poly_eval_vec,
    poly_gcd,
)
from .pool import chunked_map
from .rng import SplitMix64


@dataclass(frozen=True)
class PolySpec:
    """A polynomial paired with the character sign it must attain."""

    poly: Poly
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        if degree(self.poly) < 1:
            raise ValueError("PolySpec needs degree >= 1")


@dataclass(frozen=True)
class SquarefreeResult:
    squarefree: bool
    witness: tuple[int, ...] | None  # 0-based positions whose product is a square


def is_squarefree_list(F: Field, polys: list[Poly]) -> SquarefreeResult:
    """GF(2) independence test of factor-multiplicity parity vectors."""
    columns: dict[Poly, int] = {}
    pivots: dict[int, tuple[int, int]] = {}
    for idx, p in enumerate(polys):
        if not normalize(p):
            raise ZeroPolynomial(f"list entry {idx} is the zero polynomial")
        bits = 0
        for irr, mult in factorize(F, p).factors:
            if mult % 2:
                col = columns.setdefault(irr, len(columns))
                bits |= 1 << col
        mask = 1 << idx
        while bits:
            top = bits.bit_length() - 1
            if top not in pivots:
                pivots[top] = (bits, mask)
                break
            pb, pm = pivots[top]
            bits ^= pb
            mask ^= pm
        else:
            witness = tuple(i for i in range(idx + 1) if (mask >> i) & 1)
            return SquarefreeResult(False, witness)
    return SquarefreeResult(True, None)


@dataclass(frozen=True)
class WeilCount:
    """Sign-pattern count plus the character-sum inequality it must satisfy."""

    n: int
    k: int
    total_degree: int
    bound: float
    squarefree: bool
    within_bound: bool


def count_sign_pattern(
    F: Field, specs: list[PolySpec], assume_squarefree: bool = False
) -> WeilCount:
    """Exact N = #{alpha : chi(p_i(alpha)) = eps_i for all i} with bound check."""
    if not specs:
        raise ValueError("need at least one PolySpec")
    ok = None
    for spec in specs:
        vals = poly_eval_vec(F, spec.poly, F.codes)
        hit = F.chi_table[vals] == spec.sign
        ok = hit if ok is None else (ok & hit)
    n = int(ok.sum())
    k = len(specs)
    total = sum(degree(s.poly) for s in specs)
    bound = (math.sqrt(F.q) + 1) * total / 2
    sf = assume_squarefree or is_squarefree_list(F, [s.poly for s in specs]).squarefree
    within = abs(n - F.q / 2**k) < bound
    return WeilCount(n, k, total, bound, sf, within)


# ----------------------------------------------------------------------
# The classification polynomials and the slice-parameter conditions
# ----------------------------------------------------------------------

# integer bivariate polynomials: row i holds the coefficients of x^i as a
# polynomial in y (constant first); the order is the fixed list's order
SLICE_POLYS: dict[str, tuple[tuple[int, ...], ...]] = {
    "x": ((0,), (1,)),
    "x-1": ((-1,), (1,)),
    "x-y": ((0, -1), (1,)),
    "x-1-y": ((-1, -1), (1,)),
    "x+1-y": ((1, -1), (1,)),
    "x-xy-y": ((0, -1), (1, -1)),
    "x+xy-y": ((0, -1), (1, 1)),
    "g1": ((0, 1), (-2,), (1,)),            # x^2 - 2x + y
    "g2": ((0, -2, 1), (1,)),               # x + y^2 - 2y
    "g3": ((0, 1), (0, -2), (1,)),          # x^2 - 2xy + y
    "g4": ((0, 0, 1), (1, -2)),             # x - 2xy + y^2
    "f1": ((0, 0, 1), (-1, -1), (1,)),      # x^2 + y^2 - xy - x
    "f2": ((0, -1, 1), (0, -1), (1,)),      # x^2 + y^2 - xy - y
    "f3": ((0, 0, -1), (0, 1, 1), (-1,)),   # xy^2 + xy - x^2 - y^2
    "f4": ((0, 0, -1), (0, 1), (-1, 1)),    # x^2 y + xy - x^2 - y^2
}


def table_eval(F: Field, name: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """SLICE_POLYS[name] at (X, Y), for code arrays that broadcast together."""
    rows = SLICE_POLYS[name]
    return poly_eval_vec(F, [poly_eval_vec(F, tuple(map(F.embed, row)), Y) for row in rows], X)


# each label names its condition by the first polynomial (or value set) it
# excludes; the second entry of a pair is always the reciprocal partner
_COND_POLYS: dict[str, tuple[tuple[int, ...], ...]] = {
    # constant-first integer coefficient tuples
    "x2+-x+-1": ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)),
    "x2-3x+1": ((1, -3, 1),),
    "x2-3x+3": ((3, -3, 1), (1, -3, 3)),
    "x3+x2-1": ((-1, 0, 1, 1), (-1, -1, 0, 1)),
    "x2+1": ((1, 0, 1),),
    "x2-2x+2": ((2, -2, 1), (1, -2, 2)),
    "x3-x2+2x-1": ((-1, 2, -1, 1), (-1, 1, -2, 1)),
    "x3-2x2+3x-1": ((-1, 3, -2, 1), (-1, 2, -3, 1)),
}

CONDITION_LABELS = ("excluded-values", *_COND_POLYS, "third-ratios")


def slice_param_admissible(F: Field, c: int) -> tuple[bool, list[str]]:
    """Evaluate the ten slice-parameter conditions; returns (ok, failed labels)."""
    failed = []
    two = F.embed(2)
    if c in {F.embed(-1), 0, 1, F.inv(two), two}:
        failed.append("excluded-values")
    for label, polys in _COND_POLYS.items():
        if any(poly_eval(F, tuple(map(F.embed, p)), c) == 0 for p in polys):
            failed.append(label)
    if F.p != 3:
        three = F.embed(3)
        four = F.embed(4)
        ratios = {
            F.neg(F.inv(three)),
            F.neg(three),
            F.div(two, three),
            F.div(three, two),
            F.inv(three),
            three,
            F.div(four, three),
            F.div(three, four),
        }
        if c in ratios:
            failed.append("third-ratios")
    failed.sort(key=CONDITION_LABELS.index)
    return not failed, failed


def slice_param_ok(F: Field, c: int | np.ndarray) -> bool | np.ndarray:
    """The rule for slice parameters c (codes, scalar or array): squares outside
    {0, 1}, with chi(1 - c) = 1 when q = 3 mod 4."""
    ok = (F.chi_table[c] == 1) & (c != 1)
    if F.q % 4 == 3:
        ok &= F.chi_one_minus[c] == 1
    return ok


def slice_poly_list(F: Field, c: int) -> list[Poly]:
    """The 15 fixed polynomials in x at parameter c: SLICE_POLYS at y = c."""
    return [normalize([poly_eval(F, tuple(map(F.embed, row)), c) for row in rows])
            for rows in SLICE_POLYS.values()]


def r_set(F: Field, c: int) -> list[int]:
    """Roots of the seven degree-one members of the fixed list (with duplicates)."""
    return _roots(F, dict(zip(SLICE_POLYS, slice_poly_list(F, c))))


def _roots(F: Field, polys: dict[str, Poly]) -> list[int]:
    linear = ("x-y", "x-1-y", "x+1-y", "x-xy-y", "x+xy-y", "g2", "g4")
    # a member whose x coefficient vanishes at c has no root: DivisionByZero
    return [F.div(F.neg(a0), a1) for a0, a1 in ((*polys[name], 0)[:2] for name in linear)]


@dataclass
class SliceListReport:
    q: int
    admissible_count: int = 0
    inadmissible_count: int = 0
    inadmissible_slice_param_count: int = 0  # inadmissible c that slice_param_ok accepts
    violations: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _root_separation_violations(F: Field, c: int, polys: dict[str, Poly],
                                roots: list[int]) -> list[str]:
    """Consequence checks at an admissible c: double roots, R(c) hits, shared roots."""
    out = []
    names = ("g1", "g3", "f1", "f2", "f3", "f4")
    for name in names:
        p = polys[name]
        if degree(poly_gcd(F, p, poly_derivative(F, p))) > 0:
            out.append(f"double root in {name} at c={c}")
    for name in names:
        if any(poly_eval(F, polys[name], r) == 0 for r in roots):
            out.append(f"{name} vanishes on R(c) at c={c}")
    for i in range(1, 5):
        for j in range(i + 1, 5):
            if degree(poly_gcd(F, polys[f"f{i}"], polys[f"f{j}"])) > 0:
                out.append(f"f{i}/f{j} share a root at c={c}")
    return out


def _slice_list_chunk(args: tuple[Field, range]) -> SliceListReport:
    F, cs = args
    rep = SliceListReport(F.q)
    for c in cs:
        adm, _failed = slice_param_admissible(F, c)
        if not adm:
            rep.inadmissible_count += 1
            rep.inadmissible_slice_param_count += bool(slice_param_ok(F, c))
            continue
        rep.admissible_count += 1
        polys = dict(zip(SLICE_POLYS, slice_poly_list(F, c)))
        res = is_squarefree_list(F, list(polys.values()))
        if not res.squarefree:
            rep.violations.append(f"list not square-free at c={c}: {res.witness}")
        roots = _roots(F, polys)
        if len(set(roots)) != 7:
            rep.violations.append(f"|R(c)| != 7 at c={c}")
        rep.violations.extend(_root_separation_violations(F, c, polys, roots))
    return rep


def verify_slice_lists(F: Field, jobs: int = 1) -> SliceListReport:
    """Square-freeness of the fixed list, |R(c)| = 7 and the root-separation
    consequences at every admissible c."""
    rep = SliceListReport(F.q)
    for part in chunked_map(_slice_list_chunk, (F,), range(F.q), jobs):
        rep.admissible_count += part.admissible_count
        rep.inadmissible_count += part.inadmissible_count
        rep.inadmissible_slice_param_count += part.inadmissible_slice_param_count
        rep.violations.extend(part.violations)
    return rep


# ----------------------------------------------------------------------
# Seeded random square-free lists for the sign-pattern bound sweep
# ----------------------------------------------------------------------

SPEC_MAX_K = 4  # polynomials per random list
SPEC_MAX_TOTAL_DEGREE = 8
SPEC_MAX_TRIES = 200


def random_squarefree_specs(F: Field, rng: SplitMix64) -> list[PolySpec] | None:
    """Draw a square-free list of signed polynomials, or None if unlucky."""
    for _ in range(SPEC_MAX_TRIES):
        k = 1 + rng.below(SPEC_MAX_K)
        budget = SPEC_MAX_TOTAL_DEGREE - k  # one degree reserved per polynomial
        polys = []
        for i in range(k):
            extra = rng.below(budget + 1)
            budget -= extra
            d = 1 + extra
            coeffs = [rng.below(F.q) for _ in range(d)] + [1 + rng.below(F.q - 1)]
            polys.append(normalize(coeffs))
        if not is_squarefree_list(F, polys).squarefree:
            continue
        return [PolySpec(p, rng.choice_sign()) for p in polys]
    return None


@dataclass(frozen=True)
class WeilTrialReport:
    q: int
    trials: int
    violations: int
    max_ratio: float  # max of |N - q/2^k| / bound over the trials

    @property
    def ok(self) -> bool:
        return self.violations == 0


def run_weil_trials(F: Field, n_lists: int, seed: int) -> WeilTrialReport:
    """n_lists seeded random square-free lists, each checked against the bound."""
    rng = SplitMix64(seed)
    violations = 0
    worst = 0.0
    for _ in range(n_lists):
        specs = random_squarefree_specs(F, rng)
        if specs is None:
            raise RuntimeError(f"could not draw a square-free list over F_{F.q}")
        res = count_sign_pattern(F, specs, assume_squarefree=True)
        gap = abs(res.n - F.q / 2**res.k)
        worst = max(worst, gap / res.bound)
        if not res.within_bound:
            violations += 1
    return WeilTrialReport(F.q, n_lists, violations, worst)
