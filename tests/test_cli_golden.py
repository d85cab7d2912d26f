"""CLI outputs pinned byte for byte, apart from the `seconds` field.

Each command runs in-process through cli.main; its stdout, with every
`seconds` value masked, must equal tests/fixtures/cli/<name>.out, and its
stderr tests/fixtures/cli/<name>.err (empty when that file is absent).
After a deliberate change of output, rewrite the fixtures with
`PYTHONPATH=src python tests/test_cli_golden.py`, or only some of them by
naming their argv strings, as in
`PYTHONPATH=src python tests/test_cli_golden.py "verify --suite weil --qmax 49"`;
it writes nothing unless every command it runs exits with its code in COMMANDS.
"""

import contextlib
import csv
import io
import re
import sys
from pathlib import Path

import pytest

from mnaq.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, main

GOLDEN = Path(__file__).parent / "fixtures" / "cli"

COMMANDS = [  # (argv, exit code)
    ("count --q 243 --method D", EXIT_OK),
    ("count --q 2401 --method D --format csv", EXIT_OK),
    ("count --q 125 --method C", EXIT_OK),
    ("density-table --q 27 --q 81 --q 1009", EXIT_OK),
    ("slices --q 243", EXIT_OK),
    ("slices --q 27 --format json", EXIT_OK),
    ("verify --suite charset --qmax 31", EXIT_OK),
    ("verify --suite thm31 --qmax 199", EXIT_OK),
    ("verify --suite slices --qmax 49", EXIT_OK),
    ("verify --suite partitions --qmax 31", EXIT_OK),
    ("verify --suite weil --qmax 49", EXIT_OK),
    ("search --q 343 --seed 3", EXIT_OK),
    ("count --q 12", EXIT_USAGE),
    ("search --q 343 --seed 3 --format csv", EXIT_OK),
    ("density-table --q 12 --q 27 --format json", EXIT_OK),
    ("slices --q 3", EXIT_OK),
    ("verify --suite symmetry --qmax 13", EXIT_OK),
    ("verify --suite bijection --qmax 13 --format csv", EXIT_OK),
    ("count --q 27 --method Bscaled --format csv", EXIT_OK),
    ("count --q 101 --method A", EXIT_GUARD),
    ("verify --suite methods --qmax 27", EXIT_OK),
    ("density-table --q 2187 --q 3125 --q 6561", EXIT_OK),
]


def _name(argv: str) -> str:
    return re.sub(r"[- ]+", "-", argv)


def mask_seconds(text: str) -> str:
    """text with each `seconds` value replaced by *, in JSON or in CSV."""
    if text[:1] in "[{":
        return re.sub(r'("seconds": )[^,\n]+', r"\1*", text)
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "seconds" in rows[0]:
        col = rows[0].index("seconds")
        for row in rows[1:]:
            row[col] = "*"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def run(argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, mask_seconds(out.getvalue()), err.getvalue()


@pytest.mark.parametrize("argv,exit_code", COMMANDS, ids=[_name(a) for a, _ in COMMANDS])
def test_cli_output_matches_golden(argv, exit_code):
    code, out, err = run(argv)
    name = _name(argv)
    err_file = GOLDEN / f"{name}.err"
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (err_file.read_text(encoding="utf-8") if err_file.exists() else "")


def test_mask_seconds_masks_only_seconds():
    assert mask_seconds('{\n  "sigma": 840,\n  "seconds": 0.004\n}\n') == (
        '{\n  "sigma": 840,\n  "seconds": *\n}\n')
    assert mask_seconds("q,seconds,ok\n27,0.002,True\n") == "q,seconds,ok\n27,*,True\n"


if __name__ == "__main__":
    known = dict(COMMANDS)
    unknown = [argv for argv in sys.argv[1:] if argv not in known]
    if unknown:
        sys.exit("not in COMMANDS: " + ", ".join(unknown))
    chosen = sys.argv[1:] or list(known)
    results = [(argv, known[argv], *run(argv)) for argv in chosen]
    wrong = [f"{argv}: exit {code}, expected {exit_code}"
             for argv, exit_code, code, _, _ in results if code != exit_code]
    if wrong:
        sys.exit("no fixture written:\n" + "\n".join(wrong))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for argv, _, code, out, err in results:
        (GOLDEN / f"{_name(argv)}.out").write_text(out, encoding="utf-8")
        if err:
            (GOLDEN / f"{_name(argv)}.err").write_text(err, encoding="utf-8")
        print(f"{argv}: exit {code}", file=sys.stderr)
