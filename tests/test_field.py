import itertools
import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mnaq.field
from mnaq.charside import _line_table, orbit_lines, sigma_count_D
from mnaq.errors import DivisionByZero, NotOddPrimePower, TooLarge
from mnaq.field import (
    LOG_DIGIT_TILES, MAX_FIELD_ORDER, SUM_TERMS, factor_prime_power, least_irreducible,
    make_field, odd_prime_powers, packed_bits,
)
from mnaq.gfpoly import Factorization, factorize

from conftest import field


def brute_least_irreducible_quadratic(p):
    """Independent oracle: first rootless monic quadratic, constant-first order."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic found")


def test_make_field_prime():
    F = field(7)
    assert (F.q, F.p, F.k) == (7, 7, 1)
    assert F.modulus == (0, 1)


def test_make_field_nine_modulus_matches_oracle():
    F = field(9)
    assert (F.p, F.k) == (3, 2)
    assert F.modulus == brute_least_irreducible_quadratic(3)
    assert F.modulus == (1, 0, 1)  # frozen: t^2 + 1


@pytest.mark.parametrize("k", [2, 3])
def test_least_irreducible_has_no_small_factors(k):
    # oracle: the winner must not share a root with any linear polynomial
    for p in (3, 5):
        mod = least_irreducible(p, k)
        for x in range(p):
            val = sum(c * x**i for i, c in enumerate(mod)) % p
            assert val != 0


def test_every_modulus_pinned():
    # CRC-32 of [(p, k, modulus)] over every extension field the package builds; the
    # value is the one the earlier search by general polynomial remainders gave
    primes = [p for p in odd_prime_powers(3, 1023) if factor_prime_power(p)[1] == 1]
    fields = [(p, k) for p in primes for k in range(2, 20) if p**k <= MAX_FIELD_ORDER]
    moduli = [(p, k, least_irreducible(p, k)) for p, k in fields]
    assert len(moduli) == 223
    assert zlib.crc32(repr(moduli).encode()) == 4104845645


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(9, 729) if factor_prime_power(q)[1] > 1])
def test_modulus_is_the_first_irreducible_by_factorization(q):
    # oracle: gfpoly's factorization over F_p, which shares no code with the search
    p, k = factor_prime_power(q)
    Fp, mod = field(p), least_irreducible(p, k)
    assert factorize(Fp, mod) == Factorization(1, ((mod, 1),))
    for low in itertools.product(range(p), repeat=k):  # constant term first
        if low == mod[:k]:
            break
        assert factorize(Fp, (*low, 1)).factors != (((*low, 1), 1),)


# modulus, then CRC-32 of chi, sqrt, log and antilog, each table as int64; the
# entries for 2187, 2401 and 59049 are perfbench/workloads.py REFERENCE["tables"]
PINNED_TABLES = {
    27: ((1, 0, 2, 1), 4028923979, 1365666947, 3035474039, 3678208230),
    125: ((1, 0, 1, 1), 4013906716, 2810063455, 813042907, 3506564305),
    243: ((1, 0, 0, 0, 2, 1), 1370660507, 2499237396, 2559279399, 2165973381),
    2187: ((1, 0, 0, 0, 0, 1, 2, 1), 3518842127, 1024410456, 609571707, 2839547729),
    2401: ((1, 0, 0, 1, 1), 4240791377, 1238920074, 3586143900, 2164503498),
    59049: ((1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
            932850648, 515274546, 3808797075, 2444613340),
}


@pytest.mark.parametrize("q", sorted(PINNED_TABLES))
def test_field_tables_pinned(q):
    # element codes, the generator and the least-root sqrt are public contract
    F = field(q)
    modulus, *crcs = PINNED_TABLES[q]
    assert F.modulus == modulus
    tables = (F.chi_table, F.sqrt_table, *F.logs)
    assert [zlib.crc32(np.asarray(t, dtype=np.int64).tobytes()) for t in tables] == crcs


@pytest.mark.parametrize("q", [8, 12, 1, 2, 15, 21])
def test_make_field_rejects_bad_orders(q):
    with pytest.raises(NotOddPrimePower):
        make_field(q)


def test_make_field_rejects_huge_order():
    with pytest.raises(TooLarge):
        make_field(3**13)  # odd prime power above the ceiling


def test_make_field_checks_the_ceiling_before_factoring(monkeypatch):
    def no_trial_division(n):
        raise RuntimeError(f"trial division of {n}")

    monkeypatch.setattr(mnaq.field, "prime_factors", no_trial_division)
    with pytest.raises(TooLarge):
        make_field(100000000000031)  # a prime near 10^14
    with pytest.raises(NotOddPrimePower):
        make_field(2**21)  # even orders keep their error


@pytest.mark.parametrize("q", [13, 9, 27, 25])
def test_field_axioms_exhaustive(q):
    F = field(q)
    elems = range(q)
    for u in elems:
        assert F.add(u, 0) == u
        assert F.mul(u, 1) == u
        assert F.add(u, F.neg(u)) == 0
        if u:
            assert F.mul(u, F.inv(u)) == 1
    for u in elems:
        for v in elems:
            assert F.add(u, v) == F.add(v, u)
            assert F.mul(u, v) == F.mul(v, u)
            for w in elems:
                assert F.mul(u, F.mul(v, w)) == F.mul(F.mul(u, v), w)
                assert F.add(u, F.add(v, w)) == F.add(F.add(u, v), w)
                assert F.mul(u, F.add(v, w)) == F.add(F.mul(u, v), F.mul(u, w))


def test_field_axioms_all_small_fields_vectorized():
    # exhaustive triple checks for every field up to 49, via the vector ops
    # (the vector ops themselves are pinned to the scalar ops elsewhere)
    for q in odd_prime_powers(3, 49):
        F = field(q)
        U = F.codes[:, None, None]
        V = F.codes[None, :, None]
        W = F.codes[None, None, :]
        assert (F.vmul(F.vmul(U, V), W) == F.vmul(U, F.vmul(V, W))).all()
        assert (F.vadd(F.vadd(U, V), W) == F.vadd(U, F.vadd(V, W))).all()
        assert (
            F.vmul(U, F.vadd(V, W)) == F.vadd(F.vmul(U, V), F.vmul(U, W))
        ).all()
        A = F.codes[:, None]
        B = F.codes[None, :]
        prod = F.vmul(A, B)
        total = F.vadd(A, B)
        assert (prod == prod.T).all() and (total == total.T).all()
        assert (F.chi_table[prod] == F.chi_table[A] * F.chi_table[B]).all()


def test_field_axioms_random_large():
    F = field(10007)
    rng = np.random.default_rng(7)
    for u, v, w in rng.integers(0, F.q, size=(100_000, 3)):
        u, v, w = int(u), int(v), int(w)
        assert F.mul(u, F.add(v, w)) == F.add(F.mul(u, v), F.mul(u, w))


# extension fields above the exhaustive sizes; derandomized, so tier-1 draws
# the same examples on every run
PROPERTY_FIELDS = [3**7, 7**4, 5**5, 3**10]
properties = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@pytest.mark.parametrize("q", PROPERTY_FIELDS)
def test_ext_scalar_properties(q):
    F = field(q)
    codes = st.integers(0, q - 1)

    @properties
    @given(codes, codes, codes)
    def check(u, v, w):
        # distributivity ties the log-table multiply to the digit-loop add
        assert F.mul(u, F.add(v, w)) == F.add(F.mul(u, v), F.mul(u, w))
        if u:
            assert F.mul(u, F.inv(u)) == 1
            assert F.pow(u, q - 1) == 1
        assert F.chi(F.mul(u, v)) == F.chi(u) * F.chi(v)
        s = F.mul(u, u)
        r = F.sqrt(s)
        assert F.mul(r, r) == s
        assert r == min(r, F.neg(r))  # the least root by code

    check()


def digit_oracle(F, u, v, s):
    """u + s*v (s = +1 or -1) written out: codes to base-p digit lists, the
    digits added or subtracted mod p, and back to a code."""
    du, dv = ([w // F.p**i % F.p for i in range(F.k)] for w in (u, v))
    return sum((a + s * b) % F.p * F.p**i for i, (a, b) in enumerate(zip(du, dv)))


@pytest.mark.parametrize("q", [9, 25, 27, 49, 125])
def test_addition_matches_digit_oracle(q):
    F = field(q)
    add, sub = (np.array([[digit_oracle(F, u, v, s) for v in range(q)] for u in range(q)])
                for s in (1, -1))
    neg = sub[0]
    U, V = F.codes[:, None], F.codes[None, :]
    assert (F.vadd(U, V) == add).all() and (F.add(U, V) == add).all()
    assert (F.vsub(U, V) == sub).all() and (F.sub(U, V) == sub).all()
    assert (F.vneg(F.codes) == neg).all() and (F.neg(F.codes) == neg).all()
    for u in range(q):
        assert F.neg(u) == neg[u]
        for v in range(q):
            assert F.add(u, v) == add[u, v] and F.sub(u, v) == sub[u, v]


@pytest.mark.parametrize("q", [13, 27, 125])
def test_arithmetic_input_kinds(q):
    F = field(q)
    u, v = q - 2, 5
    want = {"add": digit_oracle(F, u, v, 1), "sub": digit_oracle(F, u, v, -1),
            "neg": digit_oracle(F, 0, u, -1)}
    # Python ints come back as Python ints, int64 scalars as equal numbers
    for a, b in ((u, v), (np.int64(u), np.int64(v))):
        got = {"add": F.add(a, b), "sub": F.sub(a, b), "neg": F.neg(a)}
        assert got == want
        assert all(type(g) is int for g in got.values()) == isinstance(a, int)
    # broadcasting: (n, 1) with (1, m), a 0-d array with a 1-d one, an int with an array
    col, row = F.codes[:, None], F.codes[None, :7]
    grid = [[digit_oracle(F, a, b, 1) for b in range(7)] for a in range(q)]
    assert F.vadd(col, row).tolist() == F.add(col, row).tolist() == grid
    line = [digit_oracle(F, u, b, -1) for b in range(q)]
    assert F.vsub(np.array(u), F.codes).tolist() == F.vsub(u, F.codes).tolist() == line
    assert F.sub(u, F.codes).tolist() == line
    assert F.vneg(F.codes[:, None]).shape == (q, 1)
    # vmul with a zero on either side
    assert not F.vmul(0, F.codes).any() and not F.vmul(F.codes, 0).any()
    prods = F.vmul(col, F.codes[None, :])
    assert prods.tolist() == [[F.mul(a, b) for b in range(q)] for a in range(q)]


@pytest.mark.parametrize("q", PROPERTY_FIELDS)
def test_ext_vector_ops_match_scalar_property(q):
    F = field(q)
    codes = st.integers(0, q - 1)

    @properties
    @given(st.lists(st.tuples(codes, codes), min_size=1, max_size=50))
    def check(pairs):
        U, V = np.array(pairs, dtype=np.int64).T
        got = np.stack([F.vadd(U, V), F.vsub(U, V), F.vneg(U), F.vmul(U, V), F.vinv(U)])
        for i, (u, v) in enumerate(pairs):
            want = [F.add(u, v), F.sub(u, v), F.neg(u), F.mul(u, v), F.inv(u) if u else 0]
            assert got[:, i].tolist() == want
            assert want[:3] == [digit_oracle(F, a, b, s) for a, b, s in
                                ((u, v, 1), (u, v, -1), (0, u, -1))]

    check()


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        field(13).inv(0)


@pytest.mark.parametrize("q", [243, 125])
def test_ext_inv_lookup_matches_pow(q):
    F = field(q)
    for u in range(1, q):
        v = F.inv(u)
        assert F.mul(u, v) == 1
        assert v == F.pow(u, q - 2)


@pytest.mark.parametrize("q", [13, 81, 243, 10007, 3**10])
def test_vinv_matches_inv(q):
    F = field(q)
    inv = F.vinv(F.codes)
    assert inv[0] == 0
    assert all(inv[u] == F.inv(u) for u in range(1, q, max(1, q // 500)))


@pytest.mark.parametrize("q", [13, 81])
def test_field_tables_read_only(q):
    F = field(q)
    rows, _, tables = F.log_digits
    for table in (F.chi_table, F.sqrt_table, *F.logs, rows, *tables, orbit_lines(F),
                  *_line_table(F), F.chi_one_minus, *F._log_lists, *F.lifts[:2]):
        with pytest.raises((ValueError, TypeError)):  # read-only arrays, or tuples
            table[1] = 0


def _lifts_in_worker(F):
    return "lifts" in vars(F), F.lifts[:2]


def test_lifts_are_lazy_and_rebuilt_in_a_worker():
    fields = [make_field(13), make_field(81)]
    assert not any("lifts" in vars(F) or "_log_lists" in vars(F) for F in fields)
    tables = [F.lifts[:2] for F in fields]
    # the pool pickles each F by Field.__reduce__: the worker's copy has no tables
    # until it uses them
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert list(pool.map(_lifts_in_worker, fields)) == [(False, t) for t in tables]


@pytest.mark.parametrize("q", [13, 27, 125])
def test_chi_one_minus_is_lazy_and_matches_chi(q):
    F = make_field(q)
    assert "chi_one_minus" not in vars(F)
    assert F.chi_one_minus.tolist() == [F.chi(F.sub(1, u)) for u in range(q)]


def test_specific_arithmetic_f13():
    F = field(13)
    assert F.add(5, 9) == 1
    assert F.inv(2) == 7


@pytest.mark.parametrize("q", [7, 13, 9, 27, 49, 121])
def test_chi_table_properties(q):
    F = field(q)
    chi = F.chi_table
    assert chi[0] == 0
    assert (chi == 1).sum() == (q - 1) // 2
    assert (chi == -1).sum() == (q - 1) // 2
    # chi(u) = 1 iff u is a nonzero square
    squares = {F.mul(u, u) for u in range(1, q)}
    for u in range(1, q):
        assert (chi[u] == 1) == (u in squares)
    assert F.chi(F.neg(1)) == (1 if q % 4 == 1 else -1)


@pytest.mark.parametrize("q", [13, 9, 27])
def test_chi_multiplicative_exhaustive(q):
    F = field(q)
    for u in range(q):
        for v in range(q):
            assert F.chi(F.mul(u, v)) == F.chi(u) * F.chi(v)


def test_chi_multiplicative_random_large():
    F = field(10009)
    rng = np.random.default_rng(3)
    for u, v in rng.integers(0, F.q, size=(100_000, 2)):
        u, v = int(u), int(v)
        assert F.chi(F.mul(u, v)) == F.chi(u) * F.chi(v)


def test_chi_f7_value():
    # squares mod 7 are {1, 2, 4} by enumeration
    F = field(7)
    assert sorted({(u * u) % 7 for u in range(1, 7)}) == [1, 2, 4]
    assert F.chi(3) == -1


def test_rebuild_is_identical():
    a = make_field(27)
    b = make_field(27)
    assert a.modulus == b.modulus
    assert np.array_equal(a.chi_table, b.chi_table)
    assert np.array_equal(a.sqrt_table, b.sqrt_table)


@pytest.mark.parametrize("q", [13, 81])
def test_vector_ops_match_scalar(q):
    F = field(q)
    rng = np.random.default_rng(11)
    U = rng.integers(0, q, size=200).astype(np.int64)
    V = rng.integers(0, q, size=200).astype(np.int64)
    assert all(F.vadd(U, V)[i] == F.add(int(U[i]), int(V[i])) for i in range(200))
    assert all(F.vsub(U, V)[i] == F.sub(int(U[i]), int(V[i])) for i in range(200))
    assert all(F.vmul(U, V)[i] == F.mul(int(U[i]), int(V[i])) for i in range(200))
    assert all(F.vneg(U)[i] == F.neg(int(U[i])) for i in range(200))


def test_pow_and_logs():
    F = field(81)
    log, antilog = F.logs
    for u in range(1, F.q):
        assert antilog[log[u]] == u
        assert F.pow(u, F.q - 1) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(5, -1) == F.inv(5)


def test_sqrt_table():
    for q in (13, 27):
        F = field(q)
        for u in range(q):
            if F.chi(u) >= 0:
                r = F.sqrt(u)
                assert F.mul(r, r) == u


def test_odd_prime_powers_list():
    assert odd_prime_powers(3, 30) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]


def test_packed_digits_fit_an_int64():
    # every extension field up to the ceiling packs its k digits in 62 bits
    primes = [p for p in range(3, 1 << 10, 2) if all(p % d for d in range(3, p, 2))]
    for p in primes:
        k = 2
        while p**k <= MAX_FIELD_ORDER:
            assert packed_bits(p) * k <= 62, (p, k)
            k += 1
    assert packed_bits(3) * 12 == 60


def folded(F, signs, cols):
    """The element sum of sign * g^col, one term at a time by F.add and F.sub."""
    antilog = F.logs[1]
    acc = np.zeros(cols.shape[1], dtype=np.int64)
    for s, e in zip(signs, cols):
        g_e = antilog[e % (F.q - 1)]
        acc = F.add(acc, g_e) if s > 0 else F.sub(acc, g_e)
    return acc


@pytest.mark.parametrize("q", [9, 25, 27, 125, 343, 2187])
def test_chi_of_sum_matches_folded_sums(q):
    F = field(q)
    rows, zero, _ = F.log_digits
    rng = np.random.default_rng(q)
    for n in range(1, SUM_TERMS + 1):
        signs = rng.choice([-1, 1], n)
        cols = rng.integers(0, LOG_DIGIT_TILES * (q - 1), (n, 2000))
        T = zero + sum(s * rows[e] for s, e in zip(signs, cols))
        assert np.array_equal(F.chi_of_sum(T), F.chi_table[folded(F, signs, cols)])
    # the extreme digits: SUM_TERMS - 1 copies of the element whose digits are all
    # p - 1, and each power of g, added (up to 2 * span in every digit) or
    # subtracted (down to 0 in every digit) in any mix
    cols = np.vstack([np.full((SUM_TERMS - 1, q - 1), F.logs[0][q - 1]), np.arange(q - 1)])
    for signs in np.array(np.meshgrid(*[[-1, 1]] * SUM_TERMS)).reshape(SUM_TERMS, -1).T:
        T = zero + sum(s * rows[e] for s, e in zip(signs, cols))
        assert np.array_equal(F.chi_of_sum(T), F.chi_table[folded(F, signs, cols)])


@pytest.mark.parametrize("q", [27, 125])
def test_scalar_mul_inv_pow_match_the_tables(q):
    F = make_field(q)
    sigma_count_D(F)
    assert "_log_lists" not in vars(F)  # set-up and D never build the scalar lists
    U, V = np.divmod(np.arange(q * q), q)
    assert [F.mul(u, v) for u, v in zip(U.tolist(), V.tolist())] == F.vmul(U, V).tolist()
    assert [F.inv(u) for u in range(1, q)] == F.vinv(F.codes[1:]).tolist()
    for n in (-2, -1, 0, 1, 2, 3, q - 1, q + 5):
        want = np.ones(q - 1, dtype=np.int64)
        for _ in range(abs(n)):
            want = F.vmul(want, F.codes[1:] if n > 0 else F.vinv(F.codes[1:]))
        assert [F.pow(u, n) for u in range(1, q)] == want.tolist()
