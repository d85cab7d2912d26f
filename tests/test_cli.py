import json

import pytest

from mnaq.cli import (
    EXIT_EXHAUSTED,
    EXIT_GUARD,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    count_report,
    main,
)
from mnaq.errors import DivisionByZero, IrregularPair, NotInS, NotInSigma, ZeroPolynomial
from mnaq.reports import DENSITY_HEADER, rows_to_csv, sigma_row


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json_frozen_sigma13(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "13", "--method", "C")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sigma"] == 10
    assert payload["sigma_card"] == 20
    assert payload["mod4"] == 1
    assert payload["limit"] == 0.0290833
    assert payload["bound_slack"] > 0


def test_count_csv_has_header_and_row(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "11", "--method", "B",
                           "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("q,mod4,sigma_card,sigma,density")
    assert lines[1].startswith("11,3,12,0,")


def test_count_invalid_q(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "12")
    assert code == EXIT_USAGE
    assert "odd prime power" in err


def test_count_guard(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "101", "--method", "A")
    assert code == EXIT_GUARD
    assert "guarded" in err


def test_search_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code = main(["search", "--q", "13", "--seed", "5", "--out", str(out_path)])
    assert code == EXIT_OK
    cert = json.loads(out_path.read_text())
    assert cert["q"] == 13 and cert["seed"] == 5
    assert set(cert) == {"q", "a", "b", "methods", "seed", "attempts"}


def test_search_exhausted_exit_code(capsys):
    code, _, err = run_cli(capsys, "search", "--q", "11", "--max-attempts", "20")
    assert code == EXIT_EXHAUSTED


def test_verify_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--qmax", "13")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_verify_bad_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == EXIT_USAGE


def test_verify_failure_exit_code(capsys, monkeypatch):
    import mnaq.cli
    from mnaq.suites import SuiteReport

    def broken(name, qmax, jobs=1):
        rep = SuiteReport(name, qmax)
        rep.add("synthetic", 13, False, "forced failure")
        return rep

    monkeypatch.setattr(mnaq.cli, "run_suite", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--qmax", "13")
    assert code == EXIT_VERIFY
    assert json.loads(out)["ok"] is False


def test_search_cross_check_failure_exit_code(capsys, monkeypatch):
    import mnaq.search

    monkeypatch.setattr(mnaq.search, "is_mna_Bscaled", lambda F, pair: False)
    code, out, err = run_cli(capsys, "search", "--q", "13", "--seed", "42")
    assert code == EXIT_VERIFY
    assert out == ""
    assert err.startswith("error: ") and "method C" in err


@pytest.mark.parametrize("error", [DivisionByZero, NotInSigma, NotInS, IrregularPair,
                                   ZeroPolynomial])
def test_other_package_errors_exit_code(capsys, monkeypatch, error):
    import mnaq.cli

    def broken(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(mnaq.cli, "count_report", broken)
    code, out, err = run_cli(capsys, "count", "--q", "13")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: forced\n"


def test_density_table_header_contract(capsys):
    code, out, _ = run_cli(capsys, "density-table", "--q", "13", "--q", "9")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q,mod4,sigma,sigma_count_method,density,limit,abs_gap,bound_slack,seconds"
    assert [line.split(",")[0] for line in lines[1:]] == ["9", "13"]  # sorted by q


def test_density_table_error_row_still_emitted(capsys):
    code, out, err = run_cli(capsys, "density-table", "--q", "12", "--q", "13")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("12,,")
    assert "failed" in err


def test_density_csv_json_share_values(capsys):
    code, out_csv, _ = run_cli(capsys, "density-table", "--q", "13",
                               "--format", "csv")
    code2, out_json, _ = run_cli(capsys, "density-table", "--q", "13",
                                 "--format", "json")
    assert code == code2 == EXIT_OK
    row = json.loads(out_json)[0]
    csv_vals = out_csv.strip().splitlines()[1].split(",")
    for key, csv_val in zip(DENSITY_HEADER, csv_vals):
        if key in ("sigma_count_method",):
            assert row[key] == csv_val
        elif key == "seconds":
            continue  # timing differs between the two invocations
        else:
            assert repr(row[key]) == csv_val or str(row[key]) == csv_val


def test_count_byte_stable_with_fixed_clock(monkeypatch):
    import mnaq.cli

    ticks = iter([0.0, 1.5, 0.0, 1.5])
    monkeypatch.setattr(mnaq.cli.time, "perf_counter", lambda: next(ticks))
    a = count_report(13, "C")
    b = count_report(13, "C")
    assert a == b
    assert a["seconds"] == 1.5


def test_each_subcommand_takes_only_the_options_it_reads():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    common = {"help", "out", "format"}
    assert {name: {a.dest for a in p._actions} - common
            for name, p in subcommands.items()} == {
        "count": {"q", "method", "jobs", "force"},
        "search": {"q", "seed", "max_attempts"},
        "verify": {"suite", "qmax", "jobs"},
        "density-table": {"q", "method", "jobs", "force"},
        "slices": {"q", "c"},
    }


def test_slices_json(capsys):
    code, out, _ = run_cli(capsys, "slices", "--q", "29", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert all(row["q"] == 29 for row in rows)
    adm = [row for row in rows if row["admissible"]]
    assert adm and all(row["t1_ok"] and row["t2_ok"] for row in adm)


def test_slices_bad_c(capsys):
    code, _, err = run_cli(capsys, "slices", "--q", "29", "--c", "0")
    assert code == EXIT_GUARD


@pytest.mark.parametrize("argv", [
    ("count", "--q", "61", "--method", "D"),
    ("count", "--q", "125", "--method", "C"),
    ("density-table", "--q", "61", "--q", "125", "--format", "json"),
    ("verify", "--suite", "slices"),
], ids=["count", "count-C", "density-table", "verify-slices"])
def test_outputs_independent_of_jobs(capsys, argv):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == EXIT_OK
        if argv[0] != "verify":  # seconds, the one field that may differ
            out = json.loads(out)
            for row in out if isinstance(out, list) else [out]:
                row.pop("seconds")
        outs.append(out)
    assert outs[0] == outs[1]


def test_jobs_env_default(monkeypatch, capsys):
    monkeypatch.setenv("MNA_JOBS", "2")
    code, out, _ = run_cli(capsys, "count", "--q", "13")
    assert code == EXIT_OK
    assert json.loads(out)["sigma"] == 10


def test_density_table_large_fields(capsys):
    # exploratory at scale: the |density - limit| trend is recorded, not
    # asserted; the density-bound slack must be nonnegative on every row
    code, out, _ = run_cli(capsys, "density-table", "--q", "1009", "--q", "2003",
                           "--q", "5003", "--q", "10007", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["q"] for row in rows] == [1009, 2003, 5003, 10007]
    for row in rows:
        assert row["bound_slack"] >= 0
    gaps = {row["q"]: row["abs_gap"] for row in rows}
    print(f"abs gap to the density limit by q: {gaps}")


def test_rows_to_csv_none_is_blank():
    text = rows_to_csv(("a", "b"), [{"a": 1, "b": None}])
    assert text == "a,b\n1,\n"


def test_sigma_report_density_fields():
    row = sigma_row(13, 10, "C", 0.5)
    assert tuple(row) == ("q", "mod4", "sigma_card", "sigma", "density", "limit", "abs_gap",
                          "bound_slack", "sigma_count_method", "seconds")
    assert set(DENSITY_HEADER) <= set(row)
    assert (row["sigma_card"], row["density"], row["seconds"]) == (20, 10 / 169, 0.5)
