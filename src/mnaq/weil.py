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
y = c it is the fixed 15-polynomial list of the slice estimates.  Theorem 3.1
holds for every odd q: slice_list_certificate finds the list's x-leads,
quadratic discriminants and pairwise resultants in x to be, over Z[c], +-2^e
times products of the ten admissibility conditions' polynomials.  For odd p, 2
is a unit mod p, and reduction mod p commutes with the determinants because the
x-leads are among them.  At p = 3, four third-ratio factors (c + 3, 2c - 3,
c - 3, 4c - 3) reduce to multiples of c, the other four to nonzero constants,
and c = 0 is excluded.  So at an admissible c no member loses degree and no
root is double or shared: the list is square-free, and R(c), the roots of the
linear members other than x and x - 1, has 7 elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ZeroPolynomial
from .field import Field
# factorize: no function here calls it; perfbench's traced pass wraps weil.factorize
from .gfpoly import (Poly, degree, factorize, normalize, poly_div, poly_eval_vec, poly_gcd,
                     squarefree_decomposition)
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


def _first_dependency(bits: list[int]) -> int:
    """The mask of the members whose parity masks first sum to 0 (the shortest
    dependent prefix's dependency, which is unique), or 0.  A pivot has parity
    bits above bit m and member bits below; the basis stays reduced (a pivot's
    key bit is in no other pivot), so one pass over the pivots reduces a member."""
    m, piv = len(bits), []
    for j, b in enumerate(bits):
        v = b << m | 1 << j
        for p, key in piv:
            v ^= p if v & key else 0
        if not v >> m:
            return v
        low = (v >> m & -(v >> m)) << m
        piv = [(p ^ v if p & low else p, key) for p, key in piv] + [(v, low)]
    return 0


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
    w = _first_dependency(bits)
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
    n = int(np.logical_and.reduce([F.chi_table[poly_eval_vec(F, s.poly, F.codes)] == s.sign
                                   for s in specs]).sum())
    k = len(specs)
    bound = (math.sqrt(F.q) + 1) * sum(degree(s.poly) for s in specs) / 2
    return WeilCount(n, k, bound, abs(n - F.q / 2**k) < bound)


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
# excludes; the second entry of a pair is always the reciprocal partner.  The
# excluded values and the third ratios u/v are their factors v*c - u, and the
# third ratios are no condition when p = 3
_COND_POLYS: dict[str, tuple[tuple[int, ...], ...]] = {
    # constant-first integer coefficient tuples
    "excluded-values": ((1, 1), (0, 1), (-1, 1), (-1, 2), (-2, 1)),
    "x2+-x+-1": ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)),
    "x2-3x+1": ((1, -3, 1),),
    "x2-3x+3": ((3, -3, 1), (1, -3, 3)),
    "x3+x2-1": ((-1, 0, 1, 1), (-1, -1, 0, 1)),
    "x2+1": ((1, 0, 1),),
    "x2-2x+2": ((2, -2, 1), (1, -2, 2)),
    "x3-x2+2x-1": ((-1, 2, -1, 1), (-1, 1, -2, 1)),
    "x3-2x2+3x-1": ((-1, 3, -2, 1), (-1, 2, -3, 1)),
    "third-ratios": ((1, 3), (3, 1), (-2, 3), (-3, 2), (-1, 3), (-3, 1), (-4, 3), (-3, 4)),
}
CONDITION_LABELS = tuple(_COND_POLYS)


# Z[c]: constant-first sequences of ints; () and [] are zero
def _zsum(terms) -> list[int]:
    """The sum of k * c^i * p over the (k, i, p) of terms, without trailing zeros."""
    out = [0] * max((i + len(p) for _, i, p in terms), default=0)
    for k, i, p in terms:
        for j, v in enumerate(p):
            out[i + j] += k * v
    while out and not out[-1]:
        out.pop()
    return out


def _zdet(m: list[list]) -> list[int]:
    """Determinant by expansion along the first row."""
    if len(m) == 1:
        return _zsum([(1, 0, m[0][0])])
    minors = [_zdet([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m))]
    return _zsum([((-1) ** j * u, i, minor) for j, minor in enumerate(minors)
                  for i, u in enumerate(m[0][j])])


def _zquotient(a: list[int], d: list[int]) -> list[int] | None:
    """a / d when d divides a in Z[c] (exact for a primitive d, by Gauss's lemma), else None."""
    quot = [0] * (len(a) - len(d) + 1)
    while len(a) >= len(d) and not a[-1] % d[-1]:
        i = len(a) - len(d)
        quot[i] = a[-1] // d[-1]
        a = _zsum([(1, 0, a), (-quot[i], i, d)])
    return None if a else quot


def _slice_list_polys() -> dict[str, list[int]]:
    """The fixed list's x-leads, quadratic discriminants (b^2 - 4ac as a 2 x 2
    determinant) and pairwise resultants in x (Sylvester's), in Z[c], c = y."""
    out = {f"lead {name}": _zdet([[rows[-1]]]) for name, rows in SLICE_POLYS.items()}
    out |= {f"disc {name}": _zdet([[r[1], [4 * v for v in r[0]]], [r[2], r[1]]])
            for name, r in SLICE_POLYS.items() if len(r) == 3}
    for (m, f), (n, g) in combinations(SLICE_POLYS.items(), 2):
        out[f"res {m},{n}"] = _zdet([[()] * i + [*a[::-1]] + [()] * (len(b) - 2 - i)
                                     for a, b in ((f, g), (g, f)) for i in range(len(b) - 1)])
    return out


@functools.cache
def slice_list_certificate() -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Theorem 3.1 for every odd q at once: the (name, leftover) pairs of the
    126 polynomials of _slice_list_polys whose leftover, once each of the 29
    factors of the ten conditions (_COND_POLYS) is divided out as often as it
    divides, is not +-2^e.  Mod an odd p, 2 is a unit, and the x-leads keep the
    determinants' reductions exact; at p = 3, the third ratios' factors are
    nonzero constants or multiples of c, and c = 0 is an excluded value."""
    factors = [p for polys in _COND_POLYS.values() for p in polys]
    out = []
    for name, rest in _slice_list_polys().items():
        for d in factors:
            while rest and (quot := _zquotient(rest, d)) is not None:
                rest = quot
        if len(rest) != 1 or abs(rest[0]) & (abs(rest[0]) - 1):
            out.append((name, tuple(rest)))
    return tuple(out)


def _failed_conditions(F: Field, cs: np.ndarray) -> np.ndarray:
    """(len(cs), 10) booleans: entry [i, j] says cs[i] fails CONDITION_LABELS[j]."""
    return np.stack([np.logical_or.reduce([poly_eval_vec(F, tuple(map(F.embed, p)), cs) == 0
                                           for p in polys]) & (label != "third-ratios" or F.p != 3)
                     for label, polys in _COND_POLYS.items()], axis=-1)


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


@dataclass
class SliceListReport:
    admissible_count: int
    inadmissible_count: int
    inadmissible_slice_param_count: int  # inadmissible c that slice_param_ok accepts
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_slice_lists(F: Field) -> SliceListReport:
    """The admissible c of F by the ten conditions; the list's facts at each of
    them are slice_list_certificate's, whose failures are the violations."""
    adm = ~_failed_conditions(F, F.codes).any(axis=1)
    return SliceListReport(
        int(adm.sum()), int((~adm).sum()), int(slice_param_ok(F, F.codes[~adm]).sum()),
        [f"{name} is not +-2^e times admissibility factors: {rest} left over"
         for name, rest in slice_list_certificate()])


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
