import itertools
import random
import re

import numpy as np
import pytest

from mnaq import assoc
from mnaq.assoc import (
    ALL_CLASSES,
    PAIR_BLOCK,
    ClassIndex,
    assoc_eq_holds,
    assoc_eq_terms,
    class_code_grid,
    class_codes,
    class_nonempty_vec,
    count_associative_triples,
    assoc_eq_grid,
    is_mna_A,
    is_mna_B,
    is_mna_Bscaled,
    is_mna_C,
    sigma_count,
)
from mnaq.charside import s_class_member, sigma_count_D, slice_eval
from mnaq.errors import NotInS, NotInSigma, TooLarge, VerificationFailure
from mnaq.field import odd_prime_powers
from mnaq.quasigroup import (SPair, SigmaPair, enumerate_sigma, is_s_pair, is_sigma_pair,
                             least_nonsquare, phi_map, psi, psi_vec, qmul, sigma_rows,
                             square_codes)
from mnaq.rng import SplitMix64
from mnaq.search import sigma_blocks

from conftest import field

NON_MNA_PAIR_13 = SigmaPair(2, 11)       # frozen: first non-MNA pair of Sigma(F_13)
NON_MNA_WITNESS_13 = (1, 11)             # frozen: one of its nontrivial solutions


def test_trivial_solution():
    F = field(13)
    for pair in enumerate_sigma(F):
        assert assoc_eq_holds(F, pair, 0, 0)


def test_assoc_eq_matches_quasigroup_form():
    # the equation is v * (0 * u) == (v * 0) * u in the quasigroup
    F = field(13)
    for pair in enumerate_sigma(F)[:6]:
        for u in range(13):
            for v in range(13):
                direct = qmul(F, pair, v, qmul(F, pair, 0, u)) == qmul(
                    F, pair, qmul(F, pair, v, 0), u)
                assert assoc_eq_holds(F, pair, u, v) == direct, (pair, u, v)


def test_frozen_non_mna_pair():
    F = field(13)
    u, v = NON_MNA_WITNESS_13
    assert assoc_eq_holds(F, NON_MNA_PAIR_13, u, v)
    assert not is_mna_B(F, NON_MNA_PAIR_13)


def test_scaling_closure():
    F = field(13)
    u, v = NON_MNA_WITNESS_13
    for c in range(1, 13):
        cc = F.mul(c, c)
        assert assoc_eq_holds(F, NON_MNA_PAIR_13, F.mul(cc, u), F.mul(cc, v))


@pytest.mark.parametrize("q", [9, 13])
def test_solution_set_invariants(q):
    F = field(q)
    half = (q - 1) // 2
    for pair in enumerate_sigma(F):
        grid = class_code_grid(F, pair)
        pts = list(zip(*np.nonzero(grid >= 0)))
        assert grid[0, 0] == -1
        assert len(pts) % half == 0
        # solutions are closed under (u, v) -> (c^2 u, c^2 v), which keeps their class
        for u, v in pts:
            for c in range(1, q):
                cc = F.mul(c, c)
                assert grid[F.mul(cc, u), F.mul(cc, v)] == grid[u, v]


def test_classify_never_vanishes_on_solutions():
    F = field(13)
    for pair in enumerate_sigma(F):
        for u, v in zip(*np.nonzero(class_code_grid(F, pair) >= 0)):
            u, v = int(u), int(v)
            e_r = F.sub(F.mul(pair.a if F.chi(u) == 1 else pair.b, u), v)
            assert u != 0 and v != 0 and e_r != 0


@pytest.mark.parametrize("term", range(4))
def test_class_code_grid_rejects_a_solution_with_a_vanishing_classifier(monkeypatch, term):
    # a solution at which exactly one of u, -v, psi(u) - v and u - v - psi(-v)
    # is 0 has no class; the grid must refuse it rather than give it a code
    F, pair = field(13), NON_MNA_PAIR_13

    def vanishing(u, v):
        pnv = psi(F, pair, F.neg(v))
        values = (u, F.neg(v), F.sub(psi(F, pair, u), v), F.sub(F.sub(u, v), pnv))
        return [value == 0 for value in values]

    cell = next((u, v) for u in range(13) for v in range(13)
                if vanishing(u, v) == [k == term for k in range(4)])
    real = assoc.assoc_eq_terms

    def holds_at_cell_only(*args):
        holds, *terms = real(*args)
        holds = np.zeros_like(holds)
        holds[cell] = True
        return (holds, *terms)

    monkeypatch.setattr(assoc, "assoc_eq_terms", holds_at_cell_only)
    with pytest.raises(VerificationFailure, match=re.escape(
            f"a nontrivial solution at {pair} has a vanishing classifier value")):
        class_code_grid(F, pair)


def test_is_mna_A_guard():
    with pytest.raises(TooLarge):
        is_mna_A(field(81), SigmaPair(2, 3))


def test_count_associative_triples_floor():
    F = field(9)
    for pair in enumerate_sigma(F):
        n = count_associative_triples(F, pair)
        assert n >= 9
        assert (n == 9) == is_mna_B(F, pair)


@pytest.mark.parametrize("q", [9, 11, 13])
def test_method_agreement_exhaustive(q):
    F = field(q)
    for pair in enumerate_sigma(F):
        a = is_mna_A(F, pair)
        assert a == is_mna_B(F, pair) == is_mna_Bscaled(F, pair) == is_mna_C(F, pair)


@pytest.mark.parametrize("q", [13, 25, 27, 31])
def test_b_equals_bscaled(q):
    F = field(q)
    for pair in enumerate_sigma(F):
        assert is_mna_B(F, pair) == is_mna_Bscaled(F, pair)


def test_some_pair_is_mna_at_13():
    F = field(13)
    assert any(is_mna_Bscaled(F, p) for p in enumerate_sigma(F))


def test_sigma_count_frozen(sigma_small):
    for q in (9, 11, 13):
        F = field(q)
        assert sigma_count(F, "A") == sigma_small[q]
        assert sigma_count(F, "B") == sigma_small[q]


def test_sigma_count_guards():
    # sigma_count decides method A's pairs by is_mna_A(force=True), leaving the
    # size guard to its own check, which must therefore be the tighter one
    assert assoc.A_COUNT_LIMIT <= assoc.A_SCAN_LIMIT
    with pytest.raises(TooLarge, match=f"q <= {assoc.A_COUNT_LIMIT}$"):
        sigma_count(field(29), "A")
    with pytest.raises(ValueError):
        sigma_count(field(13), "Z")


def test_sigma_count_jobs_matches_serial():
    # 125 and 243 give every pool chunk several a-rows
    for q in (13, 125, 243):
        F = field(q)
        assert sigma_count(F, "C", jobs=2) == sigma_count(F, "C"), q


def test_is_mna_C_rejects_pairs_outside_sigma():
    F = field(13)
    for pair in (SigmaPair(0, 5), SigmaPair(5, 5)):
        with pytest.raises(NotInSigma):
            is_mna_C(F, pair)


@pytest.mark.parametrize("method", ["C", "Bscaled"])
def test_sigma_count_rejects_pairs_outside_sigma(method):
    F = field(13)
    good = enumerate_sigma(F)[:3]
    for bad in ((0, 5), (5, 5), (1, 7)):
        with pytest.raises(NotInSigma):
            sigma_count(F, method, pairs=[*good, bad])
    assert sigma_count(F, method, pairs=good) == sum(is_mna_Bscaled(F, p) for p in good)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sigma_count_takes_pairs_in_every_form(jobs):
    F = field(125)
    pairs = enumerate_sigma(F)
    forms = [pairs, [tuple(p) for p in pairs], (p for p in pairs), np.array(pairs)]
    assert [sigma_count(F, "C", jobs=jobs, pairs=f) for f in forms] == [456] * 4
    bad = [*pairs[:5], (5, 5), (0, 5)]
    for f in (bad, (p for p in bad), np.array(bad)):
        with pytest.raises(NotInSigma, match=r"^\(5, 5\) is not in Sigma"):
            sigma_count(F, "C", jobs=jobs, pairs=f)


def test_sigma_count_names_the_first_item_that_is_not_a_pair():
    # items are never regrouped: (2, 5, 2), (11, 3, 9) does not count as
    # (2, 5), (2, 11), (3, 9)
    F = field(13)
    good = enumerate_sigma(F)[:3]
    for items, named in (([(2, 5, 2), (11, 3, 9)], (2, 5, 2)), ([(2, 5, 2), (11, 3)], (2, 5, 2)),
                         ([*good, (7,), (5, 5)], (7,)), ([*good, [2, 5, 2]], (2, 5, 2))):
        for form in (items, (p for p in items)):
            with pytest.raises(NotInSigma, match="^" + re.escape(f"{named} is not a pair")):
                sigma_count(F, pairs=form)
    for shape in ((4, 3), (4,), (2, 2, 2), (0,)):
        with pytest.raises(NotInSigma, match="^" + re.escape(f"an array of shape {shape} ")):
            sigma_count(F, pairs=np.full(shape, 2))
    assert sigma_count(F, pairs=np.zeros((0, 2), dtype=np.int64)) == 0


def test_sigma_count_names_an_item_without_a_length():
    # 7 or None among the pairs is named, from a list or a generator alike
    F = field(13)
    good = enumerate_sigma(F)[:3]
    for items, named in (([(2, 5), 7], 7), ([*good, None, (5, 5)], None), ([None], None)):
        for form in (items, (p for p in items)):
            with pytest.raises(NotInSigma, match="^" + re.escape(f"{named} is not a pair")):
                sigma_count(F, "C", pairs=form)


def test_codes_outside_the_field_are_in_no_sigma_pair():
    # -1 must not wrap to q - 1, and q must not raise IndexError from one path only
    F = field(13)
    for pair in ((-1, 3), (13, 3), (3, 13)):
        assert not is_sigma_pair(F, *pair)
        with pytest.raises(NotInSigma):
            sigma_count(F, pairs=[pair])
        with pytest.raises(NotInSigma):
            is_mna_C(F, SigmaPair(*pair))


@pytest.mark.parametrize("q", [13, 27])
@pytest.mark.parametrize("code", [-1, -3, "q", 2**70])
def test_codes_outside_the_field_are_in_no_s_pair(q, code):
    # -3 must not wrap to q - 3, and q must not raise IndexError, on the S side too
    F = field(q)
    code = q if code == "q" else code
    y = int(square_codes(F)[0])
    for sp in (SPair(code, y), SPair(y, code)):
        assert not is_s_pair(F, *sp)
        with pytest.raises(NotInS):
            phi_map(F, sp)
        with pytest.raises(NotInS):
            s_class_member(F, sp, ALL_CLASSES[0])
    with pytest.raises(ValueError, match="nonzero square"):
        slice_eval(F, code)


def test_codes_beyond_int64_raise_not_in_sigma():
    # such a code cannot be read into an int64 array: it is still just outside Sigma,
    # and the first pair outside Sigma is named, wherever the large code sits
    F = field(13)
    good = enumerate_sigma(F)[:3]
    for pair in ((2**64, 3), (2**63, 3), (-2**70, 3), (3, 2**64)):
        assert not is_sigma_pair(F, *pair)
        for pairs, named in (([*good, pair], pair), ([*good, (5, 5), pair], (5, 5)),
                             ([pair, (5, 5)], pair)):
            for form in (pairs, (p for p in pairs)):
                with pytest.raises(NotInSigma, match="^" + re.escape(f"{named} is not in Sigma")):
                    sigma_count(F, pairs=form)


# -- method C: the four-character rule against the equation ------------------

def linear_coeffs(F, a, b, cls):
    """(A, B) of the class at the pairs (a, b): A = c_r c_i - c_s and
    B = c_r - c_j - c_s(1 - c_j), with c_0 = a and c_1 = b."""
    ci, cj, cr, cs = ((a, b)[bit] for bit in cls)
    return (F.vsub(F.vmul(cr, ci), cs),
            F.vsub(F.vsub(cr, cj), F.vmul(cs, F.vsub(1, cj))))


@pytest.mark.parametrize("q", [13, 25, 27, 49, 81, 121, 125, 243, 251])
def test_class_nonempty_vec_matches_scalar_solve(q):
    # every pair up to 49; above, a seeded sample plus every pair with A = B = 0
    F = field(q)
    pairs = enumerate_sigma(F)
    a, b = np.array(pairs).T
    holds = class_nonempty_vec(F, a, b)
    n = len(pairs)
    picked = set(range(n) if q < 81 else random.Random(q).sample(range(n), 200))
    for cls in ALL_CLASSES:
        A, B = linear_coeffs(F, a, b, cls)
        picked.update(np.flatnonzero((A == 0) & (B == 0)).tolist())
    for k in sorted(picked):
        present = np.isin(np.arange(16), class_code_grid(F, pairs[k]))
        assert holds[:, k].tolist() == present.tolist(), pairs[k]


@pytest.mark.parametrize("q, fallbacks", [(25, 2), (81, 4), (251, 2)])
def test_sigma_count_C_runs_degenerate_fallback(monkeypatch, q, fallbacks):
    calls = []
    scan = assoc.class_nonempty_degenerate

    def counted(F, pair, cls):
        calls.append((pair, cls))
        assert tuple(map(int, linear_coeffs(F, *pair, cls))) == (0, 0)
        return scan(F, pair, cls)

    monkeypatch.setattr(assoc, "class_nonempty_degenerate", counted)
    F = field(q)
    assert sigma_count(F, "C") == sigma_count_D(F)
    assert len(calls) == fallbacks


def test_degenerate_fallback_raises_on_a_vanishing_term(monkeypatch):
    # at q = 25, class (0,1,0,1) of (2, 4) has A = B = 0 and is nonempty; a solution
    # in its row u = 1 with -v = 0 must be refused by class_codes, not read as a code
    F, pair, cls = field(25), SigmaPair(2, 4), ClassIndex(0, 1, 0, 1)
    assert assoc.class_nonempty_degenerate(F, pair, cls)
    real = assoc.assoc_eq_terms

    def solves_at_v_zero(*args):
        holds, neg_v, *terms = real(*args)
        return (holds | (neg_v == 0), neg_v, *terms)

    monkeypatch.setattr(assoc, "assoc_eq_terms", solves_at_v_zero)
    with pytest.raises(VerificationFailure, match="vanishing classifier value"):
        assoc.class_nonempty_degenerate(F, pair, cls)


def scanned_degenerate_class(F, pair, cls):
    """The hand-derived oracle for a class with A = B = 0: at the u in {1, zeta} with
    chi(u) = s_i, some v != 0 has chi(-v) = s_j, chi(c_i u - v) = s_r and
    chi(u - (1 - c_j) v) = s_s."""
    ci, cj = pair[cls.i], pair[cls.j]
    u = 1 if cls.i == 0 else least_nonsquare(F)
    V = F.codes[1:]
    s_j, s_r, s_s = 1 - 2 * np.array(cls[1:])
    chi = F.chi_table
    return bool(((chi[F.vneg(V)] == s_j) & (chi[F.vsub(F.mul(ci, u), V)] == s_r)
                 & (chi[F.vsub(u, F.vmul(F.sub(1, cj), V))] == s_s)).any())


def test_degenerate_fallback_matches_the_hand_derived_scan():
    # every A = B = 0 cell (pair, class) of every field below 400
    cells = []
    for q in odd_prime_powers(5, 400):
        F = field(q)
        a, b = sigma_rows(F, np.arange(2, q))
        for cls in ALL_CLASSES:
            A, B = linear_coeffs(F, a, b, cls)
            cells += [(q, SigmaPair(int(a[k]), int(b[k])), cls)
                      for k in np.flatnonzero((A == 0) & (B == 0))]
    assert (len(cells), len({q for q, *_ in cells})) == (86, 32)
    for q, pair, cls in cells:
        F = field(q)
        assert (assoc.class_nonempty_degenerate(F, pair, cls)
                == scanned_degenerate_class(F, pair, cls)), (q, pair, cls)


@pytest.mark.parametrize("q", [13, 25, 27])
def test_class_codes_along_a_row_match_the_grid(q):
    F = field(q)
    W = F.vneg(F.codes)
    for pair in enumerate_sigma(F):
        grid = class_code_grid(F, pair)
        assert grid.dtype == np.int8
        for u in range(q):
            assert class_codes(F, pair, u, W).tolist() == grid[u].tolist(), (pair, u)


@pytest.mark.parametrize("q", [251, 243])
def test_sigma_count_C_on_pairs_matches_scalar(q):
    F = field(q)
    subset = random.Random(q).sample(enumerate_sigma(F), PAIR_BLOCK + 500)
    assert sigma_count(F, "C", pairs=subset) == sum(is_mna_Bscaled(F, p) for p in subset)


# -- the per-class linear equation against the worked-out cases ---------------

def poly_value(F, row, a, b):
    """Value at (a, b) of method C's polynomial _C_POLYS[row] over the monomials a^m b^n."""
    total = 0
    for coef, (m, n) in zip(assoc._C_POLYS[row].tolist(), assoc._MONOS.tolist()):
        total = F.add(total, F.mul(F.embed(coef), F.mul(F.pow(a, m), F.pow(b, n))))
    return total


def test_linear_coeffs_match_derivations():
    F = field(13)
    rows = assoc._C_INDEX.reshape(16, 4)

    def coeffs(pair, cls):
        c = ALL_CLASSES.index(cls)
        return poly_value(F, rows[c, 0], *pair), poly_value(F, rows[c, 1], *pair)

    for a, b in enumerate_sigma(F):
        pair = SigmaPair(a, b)
        # class (0,0,1,1): b(a-1) u = a(b-1) v
        A, B = coeffs(pair, ClassIndex(0, 0, 1, 1))
        assert A == F.mul(b, F.sub(a, 1))
        assert B == F.mul(a, F.sub(b, 1))
        # class (0,1,0,1): (a^2 - b) u = (b^2 - 2b + a) v
        A, B = coeffs(pair, ClassIndex(0, 1, 0, 1))
        assert A == F.sub(F.mul(a, a), b)
        assert B == F.add(F.sub(F.mul(b, b), F.add(b, b)), a)
        # class (0,1,1,0) forces u = v
        A, B = coeffs(pair, ClassIndex(0, 1, 1, 0))
        assert A == B != 0


def class_rows(F):
    """class_nonempty_vec over all of Sigma, with the pairs."""
    pairs = enumerate_sigma(F)
    return pairs, class_nonempty_vec(F, *np.array(pairs).T)


@pytest.mark.parametrize("q", [13, 17, 29])
def test_empty_classes_when_minus_one_square(q):
    # classes (0,1,0,0) and (0,1,1,0) are empty for q = 1 mod 4
    _, holds = class_rows(field(q))
    for cls in (ClassIndex(0, 1, 0, 0), ClassIndex(0, 1, 1, 0)):
        assert not holds[ALL_CLASSES.index(cls)].any()


@pytest.mark.parametrize("q", [11, 19, 27])
def test_empty_classes_when_minus_one_nonsquare(q):
    # classes (0,0,0,0) and (0,0,1,1) are empty for q = 3 mod 4
    _, holds = class_rows(field(q))
    for cls in (ClassIndex(0, 0, 0, 0), ClassIndex(0, 0, 1, 1)):
        assert not holds[ALL_CLASSES.index(cls)].any()


@pytest.mark.parametrize("q", [13, 19, 25, 27])
def test_class_solver_agrees_with_scan(q):
    F = field(q)
    pairs, holds = class_rows(F)
    for k, pair in enumerate(pairs):
        present = np.isin(np.arange(16), class_code_grid(F, pair))
        assert present.tolist() == holds[:, k].tolist(), pair


def test_forced_value_class_0011():
    # nonempty (0,0,1,1) forces the solution ray v/u = b(a-1)/(a(b-1))
    F = field(13)
    for pair in enumerate_sigma(F):
        us, vs = np.nonzero(class_code_grid(F, pair) == ALL_CLASSES.index((0, 0, 1, 1)))
        a, b = pair
        ratio = F.div(F.mul(b, F.sub(a, 1)), F.mul(a, F.sub(b, 1)))
        assert vs.tolist() == [F.mul(ratio, u) for u in us.tolist()]


def test_assoc_eq_grid_matches_scalar():
    F = field(11)
    pair = enumerate_sigma(F)[0]
    grid = assoc_eq_grid(F, pair)
    for u in range(11):
        for v in range(11):
            assert grid[u, v] == assoc_eq_holds(F, pair, u, v)


@pytest.mark.parametrize("q", [9, 11])
def test_assoc_eq_terms_match_the_scalar_definitions(q):
    # the [u, v] layout class_code_grid reads: rows u, columns w = -v
    F = field(q)
    for pair in enumerate_sigma(F):
        terms = assoc_eq_terms(F, psi_vec(F, pair, F.codes), F.codes[:, None],
                               F.vneg(F.codes))
        holds, neg_v, e_r, e_s = np.broadcast_arrays(*terms)
        for u, v in itertools.product(range(q), repeat=2):
            want = (assoc_eq_holds(F, pair, u, v), F.neg(v), F.sub(psi(F, pair, u), v),
                    F.sub(F.sub(u, v), psi(F, pair, F.neg(v))))
            got = (holds[u, v], neg_v[u, v], e_r[u, v], e_s[u, v])
            assert got == want, (pair, u, v)


@pytest.mark.parametrize("q, seed", [(10007, 1), (10009, 2), (2187, 3)])
def test_bscaled_agrees_with_method_c_on_sampled_pairs(q, seed):
    # C reads chi_of_sum and never Field.add or sub, so the two stay independent
    F = field(q)
    a, b = np.concatenate(list(itertools.islice(sigma_blocks(F, SplitMix64(seed), 10**6), 4)),
                          axis=1)[:, :300]
    assert a.size == 300
    by_c = ~class_nonempty_vec(F, a, b).any(axis=0)
    by_bscaled = [is_mna_Bscaled(F, SigmaPair(*p)) for p in zip(a.tolist(), b.tolist())]
    assert by_bscaled == by_c.tolist()
    assert 0 < by_c.sum() < 300  # both verdicts occur
