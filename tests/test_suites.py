import dataclasses

import numpy as np
import pytest

from mnaq import suites
from mnaq.charside import COMPLEMENT, HALVES, SWAP
from mnaq.suites import SUITES, run_suite


@pytest.mark.parametrize("name,qmax", [
    ("bijection", 49),
    ("symmetry", 19),
    ("methods", 19),
    ("charset", 49),
    ("weil", 13),
    ("thm31", 29),
    ("slices", 31),
    ("partitions", 19),
])
def test_suites_green_small(name, qmax):
    rep = run_suite(name, qmax)
    assert rep.ok, [vars(c) for c in rep.checks if not c.ok]
    assert rep.checks
    payload = rep.to_dict()
    assert payload["suite"] == name and payload["ok"] is True


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope", 13)


def test_all_suites_registered():
    assert sorted(SUITES) == [
        "bijection", "charset", "methods", "partitions",
        "slices", "symmetry", "thm31", "weil",
    ]


def test_class_code_tables_match_their_definitions():
    for code in range(16):
        i, j, r, s = (code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1
        assert SWAP[code] == 8 * j + 4 * i + 2 * s + r
        assert COMPLEMENT[code] == 8 * (1 - i) + 4 * (1 - j) + 2 * (1 - r) + (1 - s)
        assert HALVES[code] == 8 * r + 4 * s + 2 * i + j
    for table in (SWAP, COMPLEMENT, HALVES):
        assert table.dtype == np.int8 and len(table) == 17
        assert table[-1] == -1 and table[np.int8(-1)] == -1


def test_charset_checks_the_exceptional_pairs_past_47():
    # the exceptional_in_union row needs q >= 47 with exceptional pairs; the charset
    # golden run stops at 31
    rep = run_suite("charset", 81)
    assert {c.q: c.ok for c in rep.checks if c.name == "exceptional_in_union"} == {
        59: True, 71: True, 79: True, 81: True}
    assert {c.q: c.detail for c in rep.checks if c.name == "few_exceptional_pairs"
            and c.q in (59, 81)} == {59: "2 pairs", 81: "4 pairs"}


@pytest.mark.parametrize("q,key", [(29, "t1"), (29, "t2"), (31, "t2"), (31, "t11")])
def test_slice_sums_are_checked_at_every_counter_key(monkeypatch, q, key):
    counters = suites.slice_counters

    def off_by_one(F, c):
        sc = counters(F, c)
        if F.q != q:
            return sc
        return dataclasses.replace(sc, counts={**sc.counts, key: sc.counts[key] + 1})

    monkeypatch.setattr(suites, "slice_counters", off_by_one)
    rep = run_suite("slices", q)
    assert {c.q: c.ok for c in rep.checks if c.name == "slice_sums_match_partition"}[q] is False
