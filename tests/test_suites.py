import numpy as np
import pytest

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
