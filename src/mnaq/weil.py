"""Square-free polynomial lists, sign-pattern counts, and their bound checks.

A list of univariate polynomials is square-free when no nonempty sub-collection
multiplies to a square over the algebraic closure.  Because irreducibles over
F_q are separable, a product is a closure-square exactly when every irreducible
factor appears with even multiplicity, so the test reduces to GF(2) linear
independence of the factor-multiplicity parity vectors.  is_squarefree_list
builds them without factoring: the members' parts of odd multiplicity, from
square-free decomposition, are refined by gcds into pairwise-coprime square-free
pieces, each a product of irreducibles no other piece has, so parity vectors
over the pieces have the same dependencies, and the same witnesses.

count_sign_pattern scans every field element and counts those where each
polynomial hits its prescribed character sign; for a square-free list the
count N must satisfy |N - q/2^k| < (sqrt(q)+1) D / 2 with D the total degree.

SLICE_POLYS is the one table of the classification polynomials (f1..f4, g1..g4
and seven linear forms in x and y), read by charside's class rules too; at
y = c it is the fixed 15-polynomial list used by all slice estimates.  The ten
admissibility conditions on c guarantee that this list is square-free;
verify_slice_lists confirms it exhaustively for a field, along with the size of
the root set R(c) and the root-separation facts the argument leans on.

It does so in numpy over blocks of c.  Every member has degree at most 2 in x
and keeps it at an admissible c, so its factors are closed-form: -a0/a1 for a
linear member; for a quadratic, its roots from the discriminant's chi and sqrt
tables, or, when it is irreducible, its monic form.  These factor keys decide
the root-separation facts, and one bit per key makes each member's parity mask
(the two bits of a double root cancel).  The GF(2) elimination that
is_squarefree_list runs on one list tests these masks for all c of a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from itertools import combinations

import numpy as np

from .errors import VerificationFailure, ZeroPolynomial
from .field import Field
# factorize: no function here calls it; perfbench's traced pass wraps weil.factorize
from .gfpoly import (Poly, degree, factorize, normalize, poly_div, poly_eval_vec, poly_gcd,
                     squarefree_decomposition)
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


def _first_dependency(bits: np.ndarray) -> np.ndarray:
    """For each row of (n, m) parity masks, the mask of list members that first
    multiply to a square: the dependency of the shortest dependent prefix, which
    is unique; 0 where the row is independent.  A pivot carries its parity bits
    above bit m and its member bits below (int64 rows need m plus the parity
    width under 63 bits; object rows have no limit).  The basis stays reduced (a
    pivot's key bit is set in no other pivot), so a member is reduced in one
    step by the pivots whose key bits it has."""
    n, m = bits.shape
    piv, key, seen = (np.zeros_like(bits) for _ in range(3))
    for j in range(m):
        v = bits[:, j] << m | 1 << j
        v ^= np.bitwise_xor.reduce(piv * ((v[:, None] & key) != 0), axis=1)
        top = v >> m
        low = (top & -top) << m
        piv ^= v[:, None] * ((piv & low[:, None]) != 0)
        piv[:, j], key[:, j], seen[:, j] = v, low, v
    dep = seen >> m == 0
    return np.where(dep.any(axis=1), seen[np.arange(n), dep.argmax(axis=1)], 0)


def _coprime_base(F: Field, parts: list[tuple[Poly, int]]) -> list[tuple[Poly, int]]:
    """Factor refinement by gcds (Bach, Driscoll and Shallit 1993): monic
    square-free parts, each with its member's bit, become pairwise-coprime monic
    pieces, each with the bits of the parts it divides; every part is the product
    of the pieces that carry its bit."""
    base: list[tuple[Poly, int]] = []
    for a, bit in parts:
        out = []
        for b, mask in base:
            g = poly_gcd(F, a, b)
            if degree(g) > 0:
                a, b = poly_div(F, a, g), poly_div(F, b, g)
                out.append((g, mask | bit))
            if degree(b) > 0:
                out.append((b, mask))
        if degree(a) > 0:
            out.append((a, bit))
        base = out
    return base


def is_squarefree_list(F: Field, polys: list[Poly]) -> SquarefreeResult:
    """GF(2) independence test of the members' parity vectors over a coprime base
    of their parts of odd multiplicity, built by gcds alone."""
    parts = []
    for idx, p in enumerate(map(normalize, polys)):
        if not p:
            raise ZeroPolynomial(f"list entry {idx} is the zero polynomial")
        parts += [(h, 1 << idx) for h, mult in squarefree_decomposition(F, p) if mult % 2]
    base = _coprime_base(F, parts)
    bits = [sum(1 << i for i, (_, mask) in enumerate(base) if mask >> idx & 1)
            for idx in range(len(polys))]
    w = int(_first_dependency(np.array([bits], dtype=object))[0]) if bits else 0
    return SquarefreeResult(not w, tuple(i for i in range(len(polys)) if w >> i & 1) or None)


@dataclass(frozen=True)
class WeilCount:
    """Sign-pattern count plus the character-sum inequality it must satisfy."""

    n: int
    k: int
    bound: float
    within_bound: bool


def count_sign_pattern(F: Field, specs: list[PolySpec]) -> WeilCount:
    """Exact N = #{alpha : chi(p_i(alpha)) = eps_i for all i} with bound check; the
    bound is proven for square-free lists, which is_squarefree_list decides."""
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
    within = abs(n - F.q / 2**k) < bound
    return WeilCount(n, k, bound, within)


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


def table_coeffs(F: Field, name: str, Y: np.ndarray) -> list[np.ndarray]:
    """The coefficients of SLICE_POLYS[name] as a polynomial in x at y = Y (codes)."""
    return [poly_eval_vec(F, tuple(map(F.embed, row)), Y) for row in SLICE_POLYS[name]]


def table_eval(F: Field, name: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """SLICE_POLYS[name] at (X, Y), for code arrays that broadcast together."""
    return poly_eval_vec(F, table_coeffs(F, name, Y), X)


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
# the excluded values and, when p != 3, the third ratios, as integer fractions
_EXCLUDED = ((-1, 1), (0, 1), (1, 1), (1, 2), (2, 1))
_THIRD_RATIOS = ((-1, 3), (-3, 1), (2, 3), (3, 2), (1, 3), (3, 1), (4, 3), (3, 4))

CONDITION_LABELS = ("excluded-values", *_COND_POLYS, "third-ratios")


def _failed_conditions(F: Field, cs: np.ndarray) -> np.ndarray:
    """(len(cs), 10) booleans: entry [i, j] says cs[i] fails CONDITION_LABELS[j]."""
    def values(fracs):
        return [F.div(F.embed(u), F.embed(v)) for u, v in fracs]

    return np.stack(
        [np.isin(cs, values(_EXCLUDED))]
        + [np.logical_or.reduce([poly_eval_vec(F, tuple(map(F.embed, p)), cs) == 0
                                 for p in polys]) for polys in _COND_POLYS.values()]
        + [np.isin(cs, values(_THIRD_RATIOS) if F.p != 3 else [])], axis=-1)


def slice_param_admissible(F: Field, c: int) -> tuple[bool, list[str]]:
    """Evaluate the ten slice-parameter conditions; returns (ok, failed labels)."""
    failed = [label for label, bad in
              zip(CONDITION_LABELS, _failed_conditions(F, np.array([c]))[0]) if bad]
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
    return [normalize(int(a[0]) for a in table_coeffs(F, name, np.array([c])))
            for name in SLICE_POLYS]


_QUADRATIC = {name: i for i, (name, rows) in enumerate(SLICE_POLYS.items()) if len(rows) == 3}
# R(c): the roots of the linear members other than x and x - 1
_R_ROWS = [i for i, rows in enumerate(SLICE_POLYS.values()) if len(rows) == 2][2:]


def _slice_factors(F: Field, cs: np.ndarray) -> tuple[dict, np.ndarray]:
    """The fixed list at each c of cs: its coefficients by name, and (len(cs), 15, 2)
    factor keys.  A linear member has its root and -1; a quadratic has its two roots
    (equal at a double root) if it splits, else q + q*a0/(2*a2) + a1/(2*a2), which
    names its monic form, and -1."""
    coef = {name: table_coeffs(F, name, cs) for name in SLICE_POLYS}
    keys = np.full((len(cs), len(coef), 2), -1)
    two, four = F.embed(2), F.embed(4)
    for i, (name, (a0, a1, *a2)) in enumerate(coef.items()):
        lead = (a2 or [a1])[0]
        if not lead.all():  # else vinv(0) = 0 would give a root
            raise VerificationFailure(f"{name} loses degree at c={cs[lead == 0][0]}")
        if not a2:
            keys[:, i, 0] = F.vmul(F.vneg(a0), F.vinv(a1))
            continue
        disc = F.vsub(F.vmul(a1, a1), F.vmul(four, F.vmul(a0, lead)))
        split, s, inv = F.chi_table[disc] >= 0, F.sqrt_table[disc], F.vinv(F.vmul(two, lead))
        irreducible = F.q * (1 + F.vmul(a0, inv)) + F.vmul(a1, inv)
        keys[:, i, 0] = np.where(split, F.vmul(F.vsub(s, a1), inv), irreducible)
        keys[:, i, 1] = np.where(split, F.vmul(F.vsub(F.vneg(s), a1), inv), -1)
    return coef, keys


def r_set(F: Field, c: int) -> list[int]:
    """Roots of the seven degree-one members of the fixed list (with duplicates)."""
    return _slice_factors(F, np.array([c]))[1][0, _R_ROWS, 0].tolist()


def _slice_list_violations(F: Field, cs: np.ndarray) -> list[str]:
    """Square-freeness of the fixed list, |R(c)| = 7, double roots, quadratics
    vanishing on R(c) and roots shared by f_i, f_j at each c of cs (all at once).
    A member's parity mask XORs one bit per factor key, so a double root cancels."""
    coef, keys = _slice_factors(F, cs)
    flat = keys.reshape(len(cs), 2 * len(coef))
    col = np.argmax(flat[:, :, None] == flat[:, None, :], axis=2).reshape(keys.shape)
    witness = _first_dependency(
        np.bitwise_xor.reduce(np.where(keys >= 0, 1 << col, 0), axis=2))
    roots = keys[:, _R_ROWS, 0]
    quad = {name: keys[:, i] for name, i in _QUADRATIC.items()}
    checks = [("list not square-free at c={c}: {w}", witness != 0),
              ("|R(c)| != 7 at c={c}", (np.diff(np.sort(roots), axis=1) == 0).any(axis=1))]
    checks += [(f"double root in {name} at c={{c}}", k[:, 0] == k[:, 1])
               for name, k in quad.items()]
    checks += [(f"{name} vanishes on R(c) at c={{c}}",
                (poly_eval_vec(F, [a[:, None] for a in coef[name]], roots) == 0).any(axis=1))
               for name in _QUADRATIC]
    for i, j in combinations(range(1, 5), 2):
        ki, kj = quad[f"f{i}"][:, :, None], quad[f"f{j}"][:, None, :]
        checks.append((f"f{i}/f{j} share a root at c={{c}}",
                       ((ki == kj) & (ki >= 0)).any(axis=(1, 2))))
    out = []
    for i in np.flatnonzero(np.logical_or.reduce([hit for _, hit in checks])):
        w = tuple(j for j in range(len(SLICE_POLYS)) if witness[i] >> j & 1)
        out += [text.format(c=cs[i], w=w) for text, hit in checks if hit[i]]
    return out


SLICE_BLOCK = 256  # parameters c per numpy pass of verify_slice_lists


@dataclass
class SliceListReport:
    admissible_count: int = 0
    inadmissible_count: int = 0
    inadmissible_slice_param_count: int = 0  # inadmissible c that slice_param_ok accepts
    violations: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _slice_list_chunk(F: Field, cs: range) -> SliceListReport:
    rep = SliceListReport()
    for lo in range(0, len(cs), SLICE_BLOCK):
        block = np.asarray(cs[lo:lo + SLICE_BLOCK], dtype=np.int64)
        adm = ~_failed_conditions(F, block).any(axis=1)
        rep.admissible_count += int(adm.sum())
        rep.inadmissible_count += int((~adm).sum())
        rep.inadmissible_slice_param_count += int(slice_param_ok(F, block[~adm]).sum())
        rep.violations += _slice_list_violations(F, block[adm])
    return rep


def verify_slice_lists(F: Field, jobs: int = 1) -> SliceListReport:
    """Square-freeness of the fixed list, |R(c)| = 7 and the root-separation
    consequences at every admissible c, in blocks of SLICE_BLOCK parameters."""
    rep = SliceListReport()
    for part in chunked_map(_slice_list_chunk, (F,), range(F.q), jobs):
        for f in fields(SliceListReport):
            setattr(rep, f.name, getattr(rep, f.name) + getattr(part, f.name))
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
        res = count_sign_pattern(F, specs)
        gap = abs(res.n - F.q / 2**res.k)
        worst = max(worst, gap / res.bound)
        if not res.within_bound:
            violations += 1
    return WeilTrialReport(n_lists, violations, worst)
