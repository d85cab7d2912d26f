import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mnaq.errors import NotInS, NotInSigma, TooLarge
from mnaq.quasigroup import (
    CAYLEY_LIMIT,
    OppositeIsoReport,
    SigmaPair,
    SPair,
    cayley_table,
    enumerate_S,
    enumerate_sigma,
    is_idempotent,
    is_latin_square,
    is_s_pair,
    is_sigma_pair,
    _first_mismatch,
    least_nonsquare,
    multiplier_is_isomorphism,
    opposite_and_iso_checks,
    phi_map,
    psi,
    psi_map,
    psi_vec,
    qmul,
    sigma_cardinality,
    sigma_mask,
)

from conftest import field


def test_is_sigma_pair_edges():
    F = field(13)
    assert not is_sigma_pair(F, 0, 5)
    assert not is_sigma_pair(F, 5, 1)
    assert not is_sigma_pair(F, 5, 5)


def sigma_by_definition(F, a, b):
    """The paper's Sigma: a, b outside {0, 1}, a != b, and ab and (1-a)(1-b) squares."""
    if not (0 <= a < F.q and 0 <= b < F.q) or {a, b} & {0, 1} or a == b:
        return False
    return F.chi(F.mul(a, b)) == 1 == F.chi(F.mul(F.sub(1, a), F.sub(1, b)))


@pytest.mark.parametrize("q", [9, 13, 27, 49, 125])
def test_sigma_mask_is_is_sigma_pair_on_every_code_pair(q):
    # codes 0 and 1 included: the character test alone keeps them out; codes
    # outside [0, q) are in no pair, 2^64 included
    F = field(q)
    codes = [*range(q), -1, q, 2**64]
    want = [[sigma_by_definition(F, a, b) for b in codes] for a in codes]
    assert [[is_sigma_pair(F, a, b) for b in codes] for a in codes] == want
    small = np.array(codes[:-1])  # the int64 codes
    assert sigma_mask(F, small[:, None], small).tolist() == [row[:-1] for row in want[:-1]]
    assert not (sigma_mask(F, 2**64, small).any() or sigma_mask(F, small, 2**64).any())


@pytest.mark.parametrize(
    "q,count", [(13, 20), (11, 12), (9, 6), (27, 132), (125, 3660), (243, 14280)])
def test_sigma_counts(q, count):
    F = field(q)
    pairs = enumerate_sigma(F)
    assert len(pairs) == count == sigma_cardinality(q)
    assert all(is_sigma_pair(F, a, b) for a, b in pairs)
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("q", [9, 11, 13, 17])
def test_s_count_closed_form(q):
    m = (q - 3) // 2
    spairs = enumerate_S(field(q))
    assert len(spairs) == m * m - m == sigma_cardinality(q)
    assert spairs == sorted(spairs)


def test_psi_basics():
    F = field(13)
    pair = SigmaPair(2, 5)
    assert psi(F, pair, 0) == 0
    for u in range(1, 13):
        expect = F.mul(2 if F.chi(u) == 1 else 5, u)
        assert psi(F, pair, u) == expect


@pytest.mark.parametrize("q", [13, 27, 125])
def test_psi_vec_matches_psi(q):
    F = field(q)
    sigma = enumerate_sigma(F)
    grid = np.stack([F.codes, F.codes[::-1]])  # a 2-D input
    for pair in sigma[:: max(1, len(sigma) // 5)]:
        want = [psi(F, pair, u) for u in range(q)]
        assert psi_vec(F, pair, F.codes).tolist() == want
        assert (psi_vec(F, pair, grid) == np.array(want)[grid]).all()


def test_psi_is_orthomorphism_all_pairs_f13():
    F = field(13)
    for pair in enumerate_sigma(F):
        images = [psi(F, pair, u) for u in range(13)]
        diffs = [F.sub(images[u], u) for u in range(13)]
        assert len(set(images)) == 13
        assert len(set(diffs)) == 13


def test_qmul_idempotent_and_left_zero():
    F = field(13)
    for pair in enumerate_sigma(F):
        for u in range(13):
            assert qmul(F, pair, u, u) == u
            assert qmul(F, pair, 0, u) == psi(F, pair, u)


@pytest.mark.parametrize("q", [9, 11, 13, 25])
def test_latin_square_and_idempotent(q):
    F = field(q)
    for pair in enumerate_sigma(F):
        t = cayley_table(F, pair)
        assert is_latin_square(t)
        assert is_idempotent(t)


def test_cayley_guard():
    with pytest.raises(TooLarge):
        cayley_table(field(1009), SigmaPair(2, 3))


def test_bijection_roundtrip_f13():
    F = field(13)
    pairs = enumerate_sigma(F)
    images = set()
    for pair in pairs:
        sp = psi_map(F, pair)
        assert is_s_pair(F, *sp)
        assert phi_map(F, sp) == pair
        images.add(sp)
    assert len(images) == len(pairs)
    for sp in enumerate_S(F):
        assert psi_map(F, phi_map(F, sp)) == sp


def test_psi_map_frozen_value():
    # regression constant computed at first build
    F = field(13)
    assert enumerate_sigma(F)[0] == SigmaPair(2, 5)
    assert psi_map(F, SigmaPair(2, 5)) == SPair(3, 10)


def test_phi_map_inverse_identities():
    F = field(17)
    for sp in enumerate_S(F):
        x, y = sp
        a, b = phi_map(F, sp)
        d = F.inv(F.sub(y, x))
        assert F.sub(1, a) == F.mul(F.mul(y, F.sub(1, x)), d)
        assert F.sub(1, b) == F.mul(F.sub(1, x), d)


def test_map_domain_errors():
    F = field(13)
    with pytest.raises(NotInSigma):
        psi_map(F, SigmaPair(0, 5))
    with pytest.raises(NotInS):
        phi_map(F, SPair(2, 2))


@pytest.mark.parametrize(
    "q,zeta", [(9, 4), (13, 2), (27, 2), (2187, 2), (10009, 7), (59049, 34)])
def test_least_nonsquare_pinned(q, zeta):
    assert least_nonsquare(field(q)) == zeta


def test_least_nonsquare():
    F = field(9)
    z = least_nonsquare(F)
    assert F.chi(z) == -1
    assert all(F.chi(u) >= 0 for u in range(z))


@pytest.mark.parametrize("q", [13, 11])
def test_opposite_and_iso_all_pairs(q):
    F = field(q)
    for pair in enumerate_sigma(F):
        rep = opposite_and_iso_checks(F, pair)
        assert rep.iso_ok, (q, pair, rep.iso_witness)
        assert rep.opposite_ok, (q, pair, rep.opposite_witness)


@pytest.mark.parametrize("q,pair,zeta", [(1031, (345, 2), 7), (1033, (345, 745), 5)])
def test_opposite_and_iso_across_row_blocks(q, pair, zeta):
    assert 2 * CAYLEY_LIMIT < q  # both checks scan three row blocks
    F = field(q)
    pair = SigmaPair(*pair)
    assert is_sigma_pair(F, *pair) and least_nonsquare(F) == zeta
    assert opposite_and_iso_checks(F, pair) == OppositeIsoReport(True, True, None, None)
    # the square multiplier zeta^2 is no swap isomorphism; the first mismatch is (0, 1)
    swap = SigmaPair(pair.b, pair.a)
    assert multiplier_is_isomorphism(F, pair, swap, F.mul(zeta, zeta)) == (False, (0, 1))


def test_first_mismatch_finds_a_late_row():
    q = 1031

    def left(U, V):
        return U * q + V

    def right(U, V):
        return left(U, V) + ((U == 700) & (V >= 250))

    assert _first_mismatch(q, left, right) == (700, 250)
    assert _first_mismatch(q, left, left) is None


def test_square_multiplier_is_not_swap_isomorphism():
    # guards against a vacuously-true checker: with zeta^2 (a square) the
    # swap-isomorphism check must fail for some pair with a != b
    F = field(13)
    z2 = F.mul(least_nonsquare(F), least_nonsquare(F))
    failures = [
        pair
        for pair in enumerate_sigma(F)
        if not multiplier_is_isomorphism(F, pair, SigmaPair(pair.b, pair.a), z2)[0]
    ]
    assert failures


@pytest.mark.parametrize("q", [10007, 3**7])
def test_psi_phi_inverse_property(q):
    F = field(q)
    codes = st.integers(0, q - 1)
    sigma = st.tuples(codes, codes).filter(lambda ab: is_sigma_pair(F, *ab))
    s_pairs = st.tuples(codes, codes).filter(lambda xy: is_s_pair(F, *xy))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(sigma, s_pairs)
    def check(ab, xy):
        assert phi_map(F, psi_map(F, SigmaPair(*ab))) == ab
        assert psi_map(F, phi_map(F, SPair(*xy))) == xy

    check()
