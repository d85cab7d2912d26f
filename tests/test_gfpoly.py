import pytest

from mnaq.errors import VerificationFailure, ZeroPolynomial
from mnaq.gfpoly import (
    ONE,
    X,
    degree,
    factorize,
    monic,
    normalize,
    poly_derivative,
    poly_div,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_pow_mod,
    poly_sub,
    squarefree_decomposition,
)
from mnaq.rng import SplitMix64

from conftest import field


def test_normalize_and_degree():
    assert normalize([1, 2, 0, 0]) == (1, 2)
    assert normalize([0, 0]) == ()
    assert degree(()) == -1
    assert degree((5,)) == 0


def test_exact_division_raises_on_a_remainder():
    F = field(13)
    assert poly_div(F, poly_mul(F, (3, 1), (2, 7, 1)), (2, 7, 1)) == (3, 1)
    with pytest.raises(VerificationFailure, match="remainder"):
        poly_div(F, (3, 1, 4, 1, 5), (2, 7, 1))


def test_eval_of_the_zero_polynomial():
    assert poly_eval(field(13), (), 5) == 0
    assert poly_eval(field(27), (), 5) == 0


def test_divmod_roundtrip():
    F = field(13)
    a = (3, 1, 4, 1, 5)
    b = (2, 7, 1)
    q, r = poly_divmod(F, a, b)
    assert normalize(poly_mul(F, q, b)) != a  # remainder is nonzero here
    assert poly_sub(F, a, poly_mul(F, q, b)) == r
    assert degree(r) < degree(b)


def test_divide_by_zero_poly():
    with pytest.raises(ZeroPolynomial):
        poly_divmod(field(13), (1, 2), ())


def test_gcd_monic():
    F = field(7)
    # (x-1)(x-2) and (x-1)(x-3) share x-1
    a = poly_mul(F, (6, 1), (5, 1))
    b = poly_mul(F, (6, 1), (4, 1))
    assert poly_gcd(F, a, b) == (6, 1)


def test_pow_mod():
    F = field(7)
    mod = (1, 0, 1)  # x^2 + 1, irreducible over F_7
    # x^(q^2) = x mod any irreducible quadratic
    assert poly_pow_mod(F, (0, 1), 7**2, mod) == (0, 1)


def test_pow_mod_rejects_a_negative_exponent():
    class NoLoop(int):  # an exponent the square-and-multiply loop cannot use
        def __and__(self, other):
            raise AssertionError("the loop ran")

        __rshift__ = __and__

    with pytest.raises(ValueError):
        poly_pow_mod(field(7), X, NoLoop(-1), (1, 0, 1))


def test_pow_mod_reduces_every_result():
    F = field(7)
    assert poly_pow_mod(F, X, 0, (1, 0, 1)) == ONE
    assert poly_pow_mod(F, X, 0, (3,)) == ()  # x^0 mod a unit
    assert poly_pow_mod(F, X, 1, (3,)) == ()
    assert poly_pow_mod(F, (5,), 0, (2, 1)) == ONE


def test_derivative_char_p():
    F = field(9)  # char 3
    assert poly_derivative(F, (5, 0, 0, 1)) == ()  # d/dx (x^3 + c) = 0
    assert poly_derivative(F, (1, 2, 1)) == (2, 2)


def test_factor_x2_minus_1_over_f7():
    fac = factorize(field(7), (6, 0, 1))
    assert fac.unit == 1
    assert fac.factors == (((1, 1), 1), ((6, 1), 1))


def test_factor_x2_plus_1_over_f7_irreducible():
    # -1 is a nonsquare mod 7, so x^2 + 1 has no roots
    fac = factorize(field(7), (1, 0, 1))
    assert fac.factors == (((1, 0, 1), 1),)


def test_factor_repeated_roots():
    F = field(7)
    p = poly_mul(F, poly_mul(F, (0, 1), (0, 1)), (6, 1))  # x^2 (x - 1)
    fac = factorize(F, p)
    assert dict(fac.factors) == {(0, 1): 2, (6, 1): 1}


def test_factor_pth_power():
    F = field(9)
    # (x + 1)^3 = x^3 + 1 in characteristic 3
    fac = factorize(F, (1, 0, 0, 1))
    assert fac.factors == (((1, 1), 3),)


def test_factor_zero_raises():
    with pytest.raises(ZeroPolynomial):
        factorize(field(7), ())


def test_factor_constant():
    fac = factorize(field(7), (5,))
    assert fac.unit == 5 and fac.factors == ()


@pytest.mark.parametrize("q", [7, 27])
@pytest.mark.parametrize("c", [(1,), (3,)])
def test_squarefree_decomposition_of_a_constant_is_empty(q, c):
    # the derivative is zero and the p-th root of c is a constant again; gcd(c, 0)
    # is 1, so the one pass over c finds no part of positive degree and leaves no
    # p-th root: the empty product rebuilds the monic constant
    assert squarefree_decomposition(field(q), c) == []


@pytest.mark.parametrize("q", [7, 27])
def test_squarefree_decomposition_of_zero_raises(q):
    # zero's derivative and p-th root are zero again: it must raise, as factorize
    # does, not recurse
    with pytest.raises(ZeroPolynomial):
        squarefree_decomposition(field(q), ())


def test_squarefree_decomposition_of_nonmonic_inputs_over_f7():
    # the parts are monic whatever f's leading coefficient, with f' nonzero (3x, 3x^2 + 1,
    # 3x^2) or zero (3x^7 + 3 = 3(x + 1)^7)
    F = field(7)
    for f, parts in (((0, 3), [((0, 1), 1)]), ((1, 0, 3), [((5, 0, 1), 1)]),
                     ((0, 0, 3), [((0, 1), 2)]), ((3, 0, 0, 0, 0, 0, 0, 3), [((1, 1), 7)])):
        assert squarefree_decomposition(F, f) == parts


@pytest.mark.parametrize("q", [7, 27])
def test_squarefree_parts_of_a_nonmonic_input_are_those_of_its_monic_form(q):
    F = field(q)
    rng = SplitMix64(0x5F ^ q)
    for _ in range(200):
        g = normalize([rng.below(q) for _ in range(5)] + [1])
        f = poly_mul(F, (2 + rng.below(q - 2),), poly_mul(F, g, poly_mul(F, g, (0, 1))))
        parts = squarefree_decomposition(F, f)
        assert parts == squarefree_decomposition(F, monic(F, f))
        assert all(h[-1] == 1 for h, _ in parts)
        rebuilt = ONE
        for h, m in parts:
            for _ in range(m):
                rebuilt = poly_mul(F, rebuilt, h)
        assert rebuilt == monic(F, f)


@pytest.mark.parametrize("q", [13, 27, 49])
def test_factor_roundtrip_random(q):
    F = field(q)
    rng = SplitMix64(0xBEEF ^ q)
    for _ in range(500):
        p = normalize([rng.below(q) for _ in range(6)] + [1 + rng.below(q - 1)])
        fac = factorize(F, p)
        assert fac.rebuild(F) == p
        for poly, _mult in fac.factors:
            assert poly == monic(F, poly)


def test_factorization_deterministic():
    F = field(13)
    p = (1, 2, 3, 4, 5, 6, 1)
    assert factorize(F, p) == factorize(F, p)


def test_irreducible_factors_have_no_roots_when_deg2():
    F = field(27)
    rng = SplitMix64(99)
    for _ in range(100):
        p = normalize([rng.below(27) for _ in range(5)] + [1])
        for poly, _ in factorize(F, p).factors:
            if degree(poly) == 2:
                assert all(poly_eval(F, poly, x) != 0 for x in range(27))


def check_factorization(F, p):
    """factorize(F, p), checked: it rebuilds p, its factors are monic, and each of
    degree 2 or 3 has no root in F, by trying every code, so it is irreducible."""
    fac = factorize(F, p)
    assert fac.rebuild(F) == normalize(p)
    for poly, mult in fac.factors:
        assert poly == monic(F, poly) and degree(poly) >= 1 and mult >= 1
        if 2 <= degree(poly) <= 3:
            assert all(poly_eval(F, poly, x) for x in range(F.q)), poly
    return dict(fac.factors)


def power_of(F, p, e):
    out = ONE
    for _ in range(e):
        out = poly_mul(F, out, p)
    return out


@pytest.mark.parametrize("q", [7, 9, 25, 27])
def test_factor_squarefree_parts_of_degree_one_and_two(q):
    # the parts of degree 1 and 2 go through distinct- and equal-degree splitting
    # like every other part, split or irreducible
    F = field(q)
    zeta = int(F.chi_table.argmin())  # a nonsquare, so x^2 - zeta is irreducible
    irr = (F.neg(zeta), 0, 1)
    lin = [(F.neg(a), 1) for a in (1, 2, 3)]
    split = poly_mul(F, lin[1], lin[2])
    assert check_factorization(F, lin[0]) == {lin[0]: 1}
    assert check_factorization(F, split) == {lin[1]: 1, lin[2]: 1}
    assert check_factorization(F, irr) == {irr: 1}
    assert check_factorization(F, poly_mul(F, irr, power_of(F, lin[0], 2))) == {
        irr: 1, lin[0]: 2}
    assert check_factorization(F, poly_mul(F, split, power_of(F, lin[0], 2))) == {
        lin[0]: 2, lin[1]: 1, lin[2]: 1}
    assert check_factorization(F, poly_mul(F, power_of(F, split, 2), irr)) == {
        irr: 1, lin[1]: 2, lin[2]: 2}
    # a nonmonic input keeps its leading code as the unit
    assert factorize(F, poly_mul(F, (zeta,), irr)).unit == zeta
    if q == 7:  # (x^2 + 1)(x - 1)^2, -1 a nonsquare mod 7
        assert check_factorization(F, poly_mul(F, (1, 0, 1), (1, 5, 1))) == {
            (1, 0, 1): 1, (6, 1): 2}


def test_factor_a_pth_power_with_a_nonconstant_root():
    # f' = 0 and the cube root (x - 1)(x^2 - zeta) x is not constant, over 27, alone
    # and times a square-free part and a square
    F = field(27)
    zeta = int(F.chi_table.argmin())
    irr, lin = (F.neg(zeta), 0, 1), (F.neg(1), 1)
    root = poly_mul(F, poly_mul(F, lin, irr), X)
    cube = power_of(F, root, 3)
    assert poly_derivative(F, cube) == ()
    assert check_factorization(F, cube) == {X: 3, lin: 3, irr: 3}
    other = (F.neg(2), 1)
    assert check_factorization(F, poly_mul(F, cube, other)) == {
        X: 3, lin: 3, irr: 3, other: 1}
    assert check_factorization(F, poly_mul(F, cube, poly_mul(F, other, other))) == {
        X: 3, lin: 3, irr: 3, other: 2}
    assert check_factorization(F, power_of(F, lin, 9)) == {lin: 9}


@pytest.mark.parametrize("q", [7, 9, 25, 27])
def test_factor_constants(q):
    F = field(q)
    for c in (1, 2, q - 1):
        fac = factorize(F, (c,))
        assert (fac.unit, fac.factors, fac.rebuild(F)) == (c, (), (c,))


# The field-op route of the log-domain kernels' predecessors: every coefficient
# operation a Field.add/sub/mul call.  An independent oracle for the kernels.

def oracle_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return normalize(out)


def oracle_divmod(F, a, b):
    if len(a) < len(b):
        return (), a
    inv_lead = F.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        coef = rem[shift + len(b) - 1]
        if coef:
            factor = F.mul(coef, inv_lead)
            quot[shift] = factor
            for i, bi in enumerate(b):
                if bi:
                    rem[shift + i] = F.sub(rem[shift + i], F.mul(factor, bi))
    return normalize(quot), normalize(rem)


def oracle_pow_mod(F, base, e, mod):
    out = oracle_divmod(F, ONE, mod)[1]
    base = oracle_divmod(F, base, mod)[1]
    while e:
        if e & 1:
            out = oracle_divmod(F, oracle_mul(F, out, base), mod)[1]
        base = oracle_divmod(F, oracle_mul(F, base, base), mod)[1]
        e >>= 1
    return out


def operand(q, rng, length):
    """A polynomial of the given length: about a third of the coefficients below
    the top are zero, and the top one is any nonzero code, so rarely monic."""
    if not length:
        return ()
    low = [0 if rng.below(3) == 0 else 1 + rng.below(q - 1) for _ in range(length - 1)]
    return tuple(low) + (1 + rng.below(q - 1),)


@pytest.mark.parametrize("q", [3, 7, 13, 1009, 10009, 9, 25, 27, 243, 2187, 3**10])
def test_kernels_match_the_field_op_route(q):
    F = field(q)
    rng = SplitMix64(0x0AC1E ^ q)
    for _ in range(40):
        a, b = operand(q, rng, rng.below(10)), operand(q, rng, rng.below(7))
        assert poly_mul(F, a, b) == oracle_mul(F, a, b)
        if b:
            assert poly_divmod(F, a, b) == oracle_divmod(F, a, b)
    for d in (1, 2, 3):
        mod, base = operand(q, rng, d + 1), operand(q, rng, 2 * d + 2)
        for e in (0, 1, q, (q**d - 1) // 2):
            assert poly_pow_mod(F, base, e, mod) == oracle_pow_mod(F, base, e, mod)


@pytest.mark.parametrize("q", [9, 27])
def test_long_operands_never_carry_between_digit_slots(q):
    # hundreds of lifts add up in one coefficient, each with every base-3 digit 2
    # where it can be arranged, so a digit slot overflows unless read back in time
    F = field(q)
    rng = SplitMix64(0x5107 ^ q)
    long, quad = operand(q, rng, 320), operand(q, rng, 3)
    assert poly_divmod(F, long, quad) == oracle_divmod(F, long, quad)
    ones, tops = (1,) * 300, (q - 1,) * 300
    product = poly_mul(F, ones, tops)
    assert product == oracle_mul(F, ones, tops)
    # quotient coefficients -(q-1) against a divisor of ones: each step adds q-1
    quot = (F.neg(q - 1),) * 300
    assert poly_divmod(F, oracle_mul(F, ones, quot), ones) == (quot, ())
    mod, base = operand(q, rng, 151), operand(q, rng, 150)
    assert poly_pow_mod(F, base, 5, mod) == oracle_pow_mod(F, base, 5, mod)
