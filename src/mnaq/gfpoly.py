"""Dense univariate polynomial arithmetic and factorization over a Field.

Polynomials are tuples of element codes, constant term first, with no
trailing zeros; () is the zero polynomial.  Multiplication, division and
modular powers run in the log domain on Field.lifts, one code path for both
field kinds: a product of coefficients is one lookup ex[log a + log b], and
sums are integer sums of lifts, read back to a code once per coefficient.
Factorization runs square-free decomposition, then distinct-degree splitting,
then Cantor-Zassenhaus equal-degree splitting driven by a fixed-seed
SplitMix64 stream, so the same input always factors the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import VerificationFailure, ZeroPolynomial
from .field import LIFT_ROWS, Field, power
from .rng import SplitMix64

Poly = tuple[int, ...]

X = (0, 1)
ONE = (1,)

FACTOR_SEED = 0x5EEDFACE0DDF00D5


def normalize(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    return len(p) - 1


def poly_sub(F: Field, a: Poly, b: Poly) -> Poly:
    return normalize(F.sub(u, v) for u, v in zip_longest(a, b, fillvalue=0))


def _product(F: Field, a: Poly, b: Poly) -> list[int]:
    """The coefficients of a*b, for nonzero a and b, as sums of lifts."""
    log, ex, back = F.lifts
    if len(a) > len(b):
        a, b = b, a
    lb = [(j, log[c]) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            x = log[c]
            for j, y in lb:
                out[i + j] += ex[x + y]
        if i % LIFT_ROWS == LIFT_ROWS - 1:  # read back before a digit slot can carry
            out = [ex[log[back(s)]] for s in out]
    return out


def poly_mul(F: Field, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    return normalize(map(F.lifts[2], _product(F, a, b)))


def _reduce(F: Field, rem: list[int], b: Poly) -> tuple[list[int], Poly]:
    """(quotient as lifts, remainder) of rem, sums of lifts, by b: each step reads
    back the leading coefficient and adds the lifts of -coef/lead(b) times the rest
    of b."""
    log, ex, back = F.lifts
    n, half = len(b) - 1, (F.q - 1) // 2
    neg_inv = (half - log[b[-1]]) % (F.q - 1)  # the log of -1/lead(b)
    lb = [(i, log[c]) for i, c in enumerate(b[:n]) if c]
    quot = [0] * max(len(rem) - n, 0)
    for s in range(len(rem) - 1 - n, -1, -1):
        coef = back(rem[s + n])
        if coef:
            x = log[coef] + neg_inv
            quot[s] = ex[x + half]
            for i, y in lb:
                rem[s + i] += ex[x + y]
        if s % LIFT_ROWS == LIFT_ROWS - 1:
            rem = [ex[log[back(r)]] for r in rem]
    return quot, normalize(map(back, rem[:n]))


def poly_divmod(F: Field, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroPolynomial("division by the zero polynomial")
    if len(a) < len(b):
        return (), a
    log, ex, back = F.lifts
    quot, rem = _reduce(F, [ex[log[c]] for c in a], b)
    return normalize(map(back, quot)), rem


def poly_mod(F: Field, a: Poly, b: Poly) -> Poly:
    return poly_divmod(F, a, b)[1]


def poly_div(F: Field, a: Poly, b: Poly) -> Poly:
    quot, rem = poly_divmod(F, a, b)
    if rem:
        raise VerificationFailure("exact polynomial division left a remainder")
    return quot


def monic(F: Field, a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    inv = F.inv(a[-1])
    return tuple(F.mul(inv, x) for x in a)


def poly_gcd(F: Field, a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, poly_mod(F, a, b)
    return monic(F, a)


def poly_pow_mod(F: Field, base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod mod by field.power, e >= 0; each step reduces the product's sums
    of lifts in the same pass, with no read-back in between."""
    def mul_mod(a: Poly, b: Poly) -> Poly:
        return _reduce(F, _product(F, a, b), mod)[1] if a and b else ()

    return power(poly_mod(F, base, mod), e, mul_mod, poly_mod(F, ONE, mod))


def poly_derivative(F: Field, a: Poly) -> Poly:
    return normalize(F.mul(F.embed(i), a[i]) for i in range(1, len(a)))


def poly_eval(F: Field, a: Poly, x: int) -> int:
    if not a:
        return 0
    y = a[-1]
    for c in reversed(a[:-1]):
        y = F.add(F.mul(y, x), c)
    return y


def poly_eval_vec(F: Field, a: Poly, X: np.ndarray) -> np.ndarray:
    """a(X) elementwise by Horner's rule; the coefficients may be codes or code
    arrays that broadcast with X."""
    if len(a) < 2:
        return np.zeros(X.shape, dtype=np.int64) + (a[0] if a else 0)
    lead = a[-1]
    Y = X if np.ndim(lead) == 0 and lead == 1 else F.vmul(lead, X)
    Y = F.vadd(Y, a[-2])
    for c in reversed(a[:-2]):
        Y = F.vadd(F.vmul(Y, X), c)
    return Y


def _pth_root(F: Field, a: Poly) -> Poly:
    """Inverse of x |-> x^p on polynomials of the form h(x^p)."""
    p = F.p
    e = F.p ** (F.k - 1)  # c^(1/p) = c^(p^(k-1)) via Frobenius
    out = []
    for i in range(0, len(a), p):
        out.append(F.pow(a[i], e))
    return normalize(out)


def squarefree_decomposition(F: Field, f: Poly) -> list[tuple[Poly, int]]:
    """Monic square-free parts with multiplicities, pairwise coprime; product
    rebuilds monic(f), so a nonzero constant has none; zero raises ZeroPolynomial."""
    if not f:
        raise ZeroPolynomial("the zero polynomial has no square-free decomposition")
    f, out = monic(F, f), []
    g = poly_gcd(F, f, poly_derivative(F, f))  # f itself, monic, when f' = 0
    w = poly_div(F, f, g)
    i = 1
    while w != ONE:
        y = poly_gcd(F, w, g)
        z = poly_div(F, w, y)
        if degree(z) > 0:
            out.append((z, i))
        i += 1
        w = y
        g = poly_div(F, g, y)
    if g != ONE:
        for h, m in squarefree_decomposition(F, _pth_root(F, g)):
            out.append((h, m * F.p))
    return out


def _distinct_degree(F: Field, f: Poly) -> list[tuple[Poly, int]]:
    """(product of irreducibles of degree d, d) for monic square-free f."""
    out = []
    h: Poly = X
    d = 0
    while degree(f) > 0:
        d += 1
        if 2 * d > degree(f):
            out.append((f, degree(f)))
            break
        h = poly_pow_mod(F, h, F.q, f)
        g = poly_gcd(F, poly_sub(F, h, X), f)
        if degree(g) > 0:
            out.append((g, d))
            f = poly_div(F, f, g)
            h = poly_mod(F, h, f)
    return out


def _random_poly(F: Field, max_deg: int, rng: SplitMix64) -> Poly:
    while True:
        cand = normalize([rng.below(F.q) for _ in range(max_deg + 1)])
        if degree(cand) >= 1:
            return cand


def _equal_degree(F: Field, f: Poly, d: int, rng: SplitMix64) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles."""
    n = degree(f)
    if n == d:
        return [f]
    exp = (F.q**d - 1) // 2
    while True:
        r = _random_poly(F, n - 1, rng)
        h = poly_pow_mod(F, r, exp, f)
        g = poly_gcd(F, poly_sub(F, h, ONE), f)
        if 0 < degree(g) < n:
            return _equal_degree(F, g, d, rng) + _equal_degree(
                F, poly_div(F, f, g), d, rng
            )


@dataclass(frozen=True)
class Factorization:
    """unit * product(poly^mult) over monic pairwise-distinct irreducibles."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def rebuild(self, F: Field) -> Poly:
        out: Poly = (self.unit,)
        for poly, mult in self.factors:
            for _ in range(mult):
                out = poly_mul(F, out, poly)
        return out


def factorize(F: Field, p: Poly) -> Factorization:
    """Complete factorization into monic irreducibles over F_q."""
    p = normalize(p)
    if not p:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = SplitMix64(FACTOR_SEED)
    counts: dict[Poly, int] = {}
    for part, mult in squarefree_decomposition(F, p):
        for prod, d in _distinct_degree(F, part):
            for irr in _equal_degree(F, prod, d, rng):
                counts[irr] = counts.get(irr, 0) + mult
    ordered = tuple(sorted(counts.items(), key=lambda kv: (degree(kv[0]), kv[0])))
    return Factorization(p[-1], ordered)
