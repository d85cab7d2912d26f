import functools
import operator
import random
import tracemalloc
from collections import Counter
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest

from mnaq import gfpoly, weil
from mnaq.cli import EXIT_VERIFY, main
from mnaq.errors import VerificationFailure, ZeroPolynomial
from mnaq.field import odd_prime_powers
from mnaq.gfpoly import degree, factorize, poly_derivative, poly_eval, poly_gcd, poly_mul
from mnaq.rng import SplitMix64
from mnaq.weil import (
    CONDITION_LABELS,
    SLICE_POLYS,
    PolySpec,
    SquarefreeResult,
    count_sign_pattern,
    is_squarefree_list,
    r_set,
    random_squarefree_specs,
    run_weil_trials,
    slice_param_admissible,
    slice_poly_list,
    table_eval,
    verify_slice_lists,
)

from conftest import field

X = (0, 1)


def test_squarefree_basic_witness():
    F = field(7)
    res = is_squarefree_list(F, [X, X])
    assert not res.squarefree
    assert res.witness == (0, 1)
    assert is_squarefree_list(F, [X, (6, 1)]).squarefree


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        is_squarefree_list(field(7), [X, ()])


def test_squarefree_hidden_dependency():
    F = field(13)
    a = (12, 1)          # x - 1
    b = (11, 1)          # x - 2
    ab = poly_mul(F, a, b)
    res = is_squarefree_list(F, [a, b, ab])
    assert not res.squarefree
    assert res.witness == (0, 1, 2)


def test_squarefree_even_multiplicity_single():
    F = field(13)
    sq = poly_mul(F, (12, 1), (12, 1))
    res = is_squarefree_list(F, [sq])
    assert not res.squarefree and res.witness == (0,)


def test_squarefree_invariance():
    F = field(13)
    polys = [(12, 1), (1, 1, 1), (5, 0, 1)]
    base = is_squarefree_list(F, polys).squarefree
    assert is_squarefree_list(F, polys[::-1]).squarefree == base
    # scaling a member by a nonzero square constant changes nothing
    c = F.mul(3, 3)
    scaled = [tuple(F.mul(c, co) for co in polys[0])] + polys[1:]
    assert is_squarefree_list(F, scaled).squarefree == base


def test_poly_spec_rejects_a_bad_sign_or_degree_zero():
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign"):
            PolySpec(X, sign)
    for poly in ((5,), ()):
        with pytest.raises(ValueError, match="degree"):
            PolySpec(poly, 1)


def test_count_sign_pattern_needs_a_spec():
    with pytest.raises(ValueError, match="at least one"):
        count_sign_pattern(field(7), [])


def test_count_single_linear():
    F = field(13)
    up = count_sign_pattern(F, [PolySpec(X, 1)])
    dn = count_sign_pattern(F, [PolySpec(X, -1)])
    assert up.n == dn.n == 6  # (q - 1) / 2
    assert up.within_bound
    assert is_squarefree_list(F, [X]).squarefree


def test_count_pattern_pair():
    # chi(x) = 1 and chi(x - 1) = -1, checked against direct enumeration
    F = field(17)
    specs = [PolySpec(X, 1), PolySpec((16, 1), -1)]
    res = count_sign_pattern(F, specs)
    brute = sum(
        1 for a in range(17) if F.chi(a) == 1 and F.chi(F.sub(a, 1)) == -1
    )
    assert res.n == brute
    assert res.within_bound


def test_slice_param_admissible_examples():
    F = field(13)
    ok, failed = slice_param_admissible(F, 2)
    assert not ok and "excluded-values" in failed
    F11 = field(11)
    for c in range(11):
        if (c * c - 3 * c + 1) % 11 == 0:
            ok, failed = slice_param_admissible(F11, c)
            assert not ok and "x2-3x+1" in failed


def test_char3_skips_third_ratios():
    F = field(27)
    for c in range(27):
        _, failed = slice_param_admissible(F, c)
        assert "third-ratios" not in failed


def test_slice_poly_list_shape():
    F = field(13)
    for c in range(2, 13):
        polys = slice_poly_list(F, c)
        assert len(polys) == 15
        degs = [len(p) - 1 for p in polys]
        assert degs[:5] == [1, 1, 1, 1, 1]
        assert max(degs) == 2


@pytest.mark.parametrize("q", [13, 27])
def test_slice_poly_list_is_table_at_y_equals_c(q):
    F = field(q)
    X, Y = F.codes[:, None], F.codes[None, :]
    grids = [table_eval(F, name, X, Y) for name in SLICE_POLYS]
    for c in range(q):
        polys = slice_poly_list(F, c)
        for x in range(q):
            assert [poly_eval(F, p, x) for p in polys] == [g[x, c] for g in grids]


def test_r_set_size_seven_at_admissible_c():
    for q in (27, 49, 81):
        F = field(q)
        for c in range(q):
            if slice_param_admissible(F, c)[0]:
                assert len(set(r_set(F, c))) == 7


@pytest.mark.parametrize("q", [11, 13, 27, 49])
def test_verify_slice_lists_clean(q):
    rep = verify_slice_lists(field(q))
    assert rep.ok, rep.violations
    assert rep.inadmissible_count - 1 <= 51


ADMISSIBLE_C = {27: 12, 49: 18, 243: 240, 1009: 970}


@pytest.mark.parametrize("q", ADMISSIBLE_C)
def test_verify_slice_lists_jobs_match_serial(q):
    F = field(q)
    serial = verify_slice_lists(F, jobs=1)
    assert serial.admissible_count == ADMISSIBLE_C[q]
    assert asdict(verify_slice_lists(F, jobs=2)) == asdict(serial)


def test_inadmissible_good_slice_bound_mod3():
    for q in (19, 23, 27, 31):
        rep = verify_slice_lists(field(q))
        assert rep.inadmissible_slice_param_count <= 22


def test_random_squarefree_specs_seeded():
    F = field(13)
    specs = random_squarefree_specs(F, SplitMix64(1))
    again = random_squarefree_specs(F, SplitMix64(1))
    assert specs == again
    assert 1 <= len(specs) <= 4
    assert sum(len(s.poly) - 1 for s in specs) <= 8
    assert is_squarefree_list(F, [s.poly for s in specs]).squarefree


@pytest.mark.parametrize("q", [3, 13, 199])
def test_weil_trials_small(q):
    rep = run_weil_trials(field(q), 50, seed=0xFEED ^ q)
    assert rep.ok
    assert rep.max_ratio < 1.0


@pytest.mark.parametrize("seed,max_ratio", [(1, 0.4171148063128388),
                                            (0xC0FFEE, 0.419658189278161)])
def test_weil_trials_pinned_at_1009(seed, max_ratio):
    # the worst ratio pins every list the trials draw, and the factorizations
    # that decide which candidates are square-free
    rep = run_weil_trials(field(1009), 200, seed)
    assert rep == weil.WeilTrialReport(200, 0, max_ratio)


def test_inadmissible_single_condition_status_recorded():
    # exploratory: the admissibility conditions are one-directional, so at a c
    # violating exactly one condition the list may or may not stay square-free
    F = field(29)
    c = next(c for c in range(29)
             if slice_param_admissible(F, c)[1] == ["x2-3x+1"])
    status = is_squarefree_list(F, slice_poly_list(F, c))
    print(f"q=29 c={c} fails only x2-3x+1; square-free: {status.squarefree}")
    assert status.squarefree in (True, False)


# ----------------------------------------------------------------------
# The per-c polynomial route, kept here as the oracle of the block pass
# ----------------------------------------------------------------------

QUADRATIC = ("g1", "g3", "f1", "f2", "f3", "f4")
R_NAMES = ("x-y", "x-1-y", "x+1-y", "x-xy-y", "x+xy-y", "g2", "g4")
FULL_DEGREES = [len(rows) - 1 for rows in SLICE_POLYS.values()]


def oracle_dependency(rows):
    """Positions of the first GF(2)-dependent prefix of the int masks rows, or None."""
    pivots = {}
    for idx, bits in enumerate(rows):
        mask = 1 << idx
        while bits:
            top = bits.bit_length() - 1
            if top not in pivots:
                pivots[top] = (bits, mask)
                break
            bits ^= pivots[top][0]
            mask ^= pivots[top][1]
        else:
            return tuple(i for i in range(idx + 1) if mask >> i & 1)
    return None


def oracle_witness(F, polys):
    """oracle_dependency of the factor-parity vectors, by factorize."""
    columns = {}
    return oracle_dependency([sum(1 << columns.setdefault(irr, len(columns))
                                  for irr, mult in factorize(F, p).factors if mult % 2)
                              for p in polys])


@pytest.mark.parametrize("m,width,ands", [(4, 6, 3), (15, 20, 3), (15, 30, 3), (6, 70, 4)])
def test_first_dependency_matches_prefix_elimination(m, width, ands):
    # masks ANDed from several random ones, so that some rows are dependent
    rnd = random.Random(m * width)
    rows = [[functools.reduce(operator.and_, (rnd.getrandbits(width) for _ in range(ands)))
             for _ in range(m)] for _ in range(300)]
    got = weil._first_dependency(np.array(rows, dtype=np.int64 if width < 40 else object))
    want = [oracle_dependency(row) for row in rows]
    assert [tuple(i for i in range(m) if w >> i & 1) or None for w in got] == want
    assert None in want and any(want)


SQUAREFREE_ORACLE_QS = [q for q in odd_prime_powers(3, 199) if field(q).k == 1] + [
    9, 25, 27, 49, 81, 125, 243]


def random_member(F, rnd, lo=1, hi=4):
    """A polynomial of degree lo..hi with random coefficients and a nonzero lead."""
    d = rnd.randint(lo, hi)
    return tuple(rnd.randrange(F.q) for _ in range(d)) + (rnd.randrange(1, F.q),)


def power(F, a, e):
    return functools.reduce(functools.partial(poly_mul, F), [a] * e)


def planted_lists(F, rnd):
    """Four random lists of 1-4 members of degree 1-4, then one list per planted
    case, padded with 0-2 random members and shuffled."""
    def small():
        return random_member(F, rnd, 1, 2)

    a, b, c, g = small(), small(), small(), small()
    plants = [[a, b, poly_mul(F, a, b)],                               # product of two
              [a, poly_mul(F, a, power(F, c, 2))],                     # times a square
              [a, a],                                                  # repeated
              [poly_mul(F, a, c), poly_mul(F, b, c)],                  # shared factor
              [poly_mul(F, a, c), poly_mul(F, b, c), poly_mul(F, a, b)],
              [(rnd.randrange(1, F.q),)]]                              # a constant
    if F.p in (3, 5, 7):  # zero derivative: g^p and a random h(x^p)
        h = random_member(F, rnd, 1, 1)
        plants += [[g, power(F, g, F.p)], [(h[0],) + (0,) * (F.p - 1) + (h[1],)]]
    out = [[random_member(F, rnd) for _ in range(rnd.randint(1, 4))] for _ in range(4)]
    for plant in plants:
        polys = plant + [random_member(F, rnd) for _ in range(rnd.randint(0, 2))]
        rnd.shuffle(polys)
        out.append(polys)
    return out


@pytest.mark.parametrize("q", SQUAREFREE_ORACLE_QS)
def test_squarefree_list_matches_the_factorization_oracle(q):
    F, rnd = field(q), random.Random(q)
    verdicts = Counter()
    for _ in range(3):
        for polys in planted_lists(F, rnd):
            want = oracle_witness(F, polys)
            assert is_squarefree_list(F, polys) == SquarefreeResult(want is None, want), polys
            verdicts[want is None] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("q", [7, 27])
def test_squarefree_list_with_a_constant_member(q):
    # a constant is a square over the closure, so it is a dependency on its own
    res = is_squarefree_list(field(q), [X, (3,)])
    assert res == SquarefreeResult(False, (1,))


def test_squarefree_lists_use_gcds_only(monkeypatch):
    # neither Cantor-Zassenhaus nor a modular power decides a list
    def forbidden(*_args):
        raise AssertionError("the list test factorized a member")

    monkeypatch.setattr(gfpoly, "poly_pow_mod", forbidden)
    monkeypatch.setattr(weil, "factorize", forbidden)
    rep = run_weil_trials(field(1009), 20, seed=7)
    assert rep.trials == 20 and rep.ok
    F = field(27)
    a, b = (5, 1), (0, 3, 1)
    polys = [poly_mul(F, a, b), (1, 0, 0, 1), a, (2, 1), b]  # x^3 + 1 = (x + 1)^3
    assert is_squarefree_list(F, polys) == SquarefreeResult(False, (0, 2, 4))
    assert is_squarefree_list(F, polys[:4]).squarefree


def oracle_violations(F, c):
    polys = dict(zip(SLICE_POLYS, slice_poly_list(F, c)))
    out = []
    witness = oracle_witness(F, list(polys.values()))
    if witness:
        out.append(f"list not square-free at c={c}: {witness}")
    roots = [F.div(F.neg(polys[name][0]), polys[name][1]) for name in R_NAMES]
    if len(set(roots)) != 7:
        out.append(f"|R(c)| != 7 at c={c}")
    for name in QUADRATIC:
        p = polys[name]
        if degree(poly_gcd(F, p, poly_derivative(F, p))) > 0:
            out.append(f"double root in {name} at c={c}")
    for name in QUADRATIC:
        if any(poly_eval(F, polys[name], r) == 0 for r in roots):
            out.append(f"{name} vanishes on R(c) at c={c}")
    for i, j in combinations(range(1, 5), 2):
        if degree(poly_gcd(F, polys[f"f{i}"], polys[f"f{j}"])) > 0:
            out.append(f"f{i}/f{j} share a root at c={c}")
    return out


VIOLATION_KINDS = ("not square-free", "|R(c)| != 7", "double root", "vanishes on R(c)",
                   "share a root")
ORACLE_FIELDS = (11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 49, 81, 125, 243)


def test_slice_list_checks_match_the_polynomial_route_past_admissibility():
    # every c where the 15 members keep full degree, admissible or not, so
    # that every kind of violation occurs
    kinds, n_params = Counter(), 0
    for q in ORACLE_FIELDS:
        F = field(q)
        cs = [c for c in range(q) if [degree(p) for p in slice_poly_list(F, c)] == FULL_DEGREES]
        want = [v for c in cs for v in oracle_violations(F, c)]
        assert weil._slice_list_violations(F, np.array(cs)) == want, q
        kinds.update(next(k for k in VIOLATION_KINDS if k in v) for v in want)
        n_params += len(cs)
    assert n_params == 769
    assert kinds == dict(zip(VIOLATION_KINDS, (189, 87, 109, 368, 143)))


def test_r_set_is_the_linear_roots():
    F = field(29)
    for c in range(29):
        polys = dict(zip(SLICE_POLYS, slice_poly_list(F, c)))
        if [degree(p) for p in polys.values()] == FULL_DEGREES:
            assert r_set(F, c) == [F.div(F.neg(polys[n][0]), polys[n][1]) for n in R_NAMES]


def test_lost_degree_at_an_admitted_c_raises(monkeypatch, capsys):
    # at c = 1, x - xy - y has no x term and f4 no x^2 term; let c = 1 through
    monkeypatch.setattr(weil, "_failed_conditions",
                        lambda F, cs: np.zeros((len(cs), len(CONDITION_LABELS)), dtype=bool))
    with pytest.raises(VerificationFailure, match="c=1"):
        verify_slice_lists(field(13))
    with pytest.raises(VerificationFailure):
        r_set(field(13), 1)
    assert main(["verify", "--suite", "thm31", "--qmax", "13"]) == EXIT_VERIFY
    assert "loses degree" in capsys.readouterr().err


def test_verify_slice_lists_memory_is_one_block():
    F = field(3001)
    verify_slice_lists(F)  # the lazy field tables, outside the traced window
    tracemalloc.start()
    try:
        verify_slice_lists(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # one pass over all 3001 c peaks at about 5 MB


def scalar_admissible(F, c):
    """The ten conditions one c at a time, by scalar field arithmetic."""
    failed = []
    two = F.embed(2)
    if c in {F.embed(-1), 0, 1, F.inv(two), two}:
        failed.append("excluded-values")
    for label, polys in weil._COND_POLYS.items():
        if any(poly_eval(F, tuple(map(F.embed, p)), c) == 0 for p in polys):
            failed.append(label)
    if F.p != 3:
        three, four = F.embed(3), F.embed(4)
        ratios = {F.neg(F.inv(three)), F.neg(three), F.div(two, three), F.div(three, two),
                  F.inv(three), three, F.div(four, three), F.div(three, four)}
        if c in ratios:
            failed.append("third-ratios")
    return failed


@pytest.mark.parametrize("q", [11, 13, 25, 27, 29, 49, 125, 1009])
def test_admissibility_labels_match_the_scalar_rule(q):
    F = field(q)
    table = weil._failed_conditions(F, F.codes)
    for c in range(q):
        failed = scalar_admissible(F, c)
        assert [label for label, bad in zip(CONDITION_LABELS, table[c]) if bad] == failed
        assert slice_param_admissible(F, c) == (not failed, failed)
