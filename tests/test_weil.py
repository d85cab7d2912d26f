from dataclasses import asdict

import pytest

from mnaq.errors import ZeroPolynomial
from mnaq.gfpoly import poly_eval, poly_mul
from mnaq.rng import SplitMix64
from mnaq.weil import (
    SLICE_POLYS,
    PolySpec,
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


def test_count_single_linear():
    F = field(13)
    up = count_sign_pattern(F, [PolySpec(X, 1)])
    dn = count_sign_pattern(F, [PolySpec(X, -1)])
    assert up.n == dn.n == 6  # (q - 1) / 2
    assert up.squarefree and up.within_bound


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


@pytest.mark.parametrize("q", [27, 49])
def test_verify_slice_lists_jobs_match_serial(q):
    F = field(q)
    serial = verify_slice_lists(F, jobs=1)
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


def test_inadmissible_single_condition_status_recorded():
    # exploratory: the admissibility conditions are one-directional, so at a c
    # violating exactly one condition the list may or may not stay square-free
    F = field(29)
    c = next(c for c in range(29)
             if slice_param_admissible(F, c)[1] == ["x2-3x+1"])
    status = is_squarefree_list(F, slice_poly_list(F, c))
    print(f"q=29 c={c} fails only x2-3x+1; square-free: {status.squarefree}")
    assert status.squarefree in (True, False)
