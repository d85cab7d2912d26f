"""Command-line driver.

Subcommands: count, search, verify, density-table, slices.
Exit codes: 0 success, 2 usage or invalid q, 3 size guard or bad slice
parameter, 4 search exhausted, 5 verification failure, 6 any other package
error (valid input never reaches one).  MNA_JOBS sets the default for --jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Sequence

from .assoc import sigma_count
from .charside import sigma_count_D, slice_counters, slice_params
from .errors import (
    BadSliceParam,
    MnaqError,
    NotOddPrimePower,
    SearchExhausted,
    TooLarge,
    VerificationFailure,
)
from .field import Field, make_field
from .reports import DENSITY_HEADER, rows_to_csv, sigma_row, to_json
from .search import search_mna
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_EXHAUSTED = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6  # every other MnaqError
EXIT_CODES = {NotOddPrimePower: EXIT_USAGE, TooLarge: EXIT_GUARD, BadSliceParam: EXIT_GUARD,
              SearchExhausted: EXIT_EXHAUSTED, VerificationFailure: EXIT_VERIFY}


def _default_jobs() -> int:
    env = os.environ.get("MNA_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _emit(args: argparse.Namespace, payload: dict | list, rows: list[dict],
          header: tuple[str, ...] | None = None) -> None:
    """Write payload as JSON, or rows as CSV under header (the first row's keys by
    default), as --format says, to --out or stdout."""
    text = (to_json(payload) if args.format == "json"
            else rows_to_csv(tuple(rows[0]) if header is None else header, rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def count_report(q: int, method: str, jobs: int = 1, force: bool = False) -> dict:
    """Count sigma(q) by the chosen method; the report is reports.sigma_row."""
    F = make_field(q)
    start = time.perf_counter()
    if method == "D":
        sigma = sigma_count_D(F, jobs=jobs)
    else:
        sigma = sigma_count(F, method, jobs=jobs, force=force)
    return sigma_row(q, sigma, method, round(time.perf_counter() - start, 3))


def _cmd_count(args: argparse.Namespace) -> int:
    row = count_report(args.q, args.method, jobs=args.jobs, force=args.force)
    _emit(args, row, [row])
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    F = make_field(args.q)
    cert = search_mna(F, args.seed, args.max_attempts)
    _emit(args, cert.to_dict(), [{**cert.to_dict(), "methods": "+".join(cert.methods)}])
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, args.qmax, jobs=args.jobs)
    payload = report.to_dict()
    _emit(args, payload, payload["checks"], ("name", "q", "ok", "detail"))
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_density_table(args: argparse.Namespace) -> int:
    rows = []
    for q in sorted(args.q):
        try:
            report = count_report(q, args.method, jobs=args.jobs, force=args.force)
            rows.append({k: report[k] for k in DENSITY_HEADER})
        except (NotOddPrimePower, TooLarge) as exc:
            row = dict.fromkeys(DENSITY_HEADER)
            row["q"] = q
            row["sigma_count_method"] = args.method
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            print(f"q={q} failed: {exc}", file=sys.stderr)
    _emit(args, rows, rows, DENSITY_HEADER)
    return EXIT_OK


def _slice_rows(F: Field, cs: list[int]) -> list[dict]:
    rows = []
    for c in cs:
        sc = slice_counters(F, c)
        row: dict = {"q": sc.q, "mod4": sc.mod4, "c": sc.c,
                     "admissible": sc.admissible}
        for key, val in sc.counts.items():
            row[key] = val
            if sc.bounds is not None:
                b = sc.bounds[key]
                row[f"{key}_target"] = round(b.target, 6)
                row[f"{key}_radius"] = round(b.radius, 6)
                row[f"{key}_ok"] = b.ok
        rows.append(row)
    return rows


def _cmd_slices(args: argparse.Namespace) -> int:
    F = make_field(args.q)
    cs = [args.c] if args.c is not None else slice_params(F)
    rows = _slice_rows(F, cs)
    _emit(args, rows, rows, tuple(max(rows, key=len, default=())))  # no rows: header ()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnaq",
        description="Quasigroups from quadratic orthomorphisms: exact "
        "maximal-nonassociativity counting, search and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {  # flags of only the commands that read them
        "--jobs": dict(type=int, default=_default_jobs(),
                       help="worker processes (default: MNA_JOBS or 1)"),
        "--force": dict(action="store_true", help="override method size guards"),
        "--method": dict(choices=("A", "B", "Bscaled", "C", "D"), default="D"),
    }

    def add_common(p: argparse.ArgumentParser, fmt_default: str, *flags: str) -> None:
        """The given flags of shared, then --out and --format."""
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)

    p_count = sub.add_parser("count", help="count sigma(q)")
    p_count.add_argument("--q", type=int, required=True)
    add_common(p_count, "json", "--method", "--jobs", "--force")
    p_count.set_defaults(func=_cmd_count)

    p_search = sub.add_parser("search", help="random search for an MNA pair")
    p_search.add_argument("--q", type=int, required=True)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--max-attempts", type=int, default=10_000)
    add_common(p_search, "json")
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--qmax", type=int, default=49)
    add_common(p_verify, "json", "--jobs")
    p_verify.set_defaults(func=_cmd_verify)

    p_density = sub.add_parser("density-table", help="sigma/q^2 table")
    p_density.add_argument("--q", type=int, action="append", required=True,
                           help="repeatable field order")
    add_common(p_density, "csv", "--method", "--jobs", "--force")
    p_density.set_defaults(func=_cmd_density_table)

    p_slices = sub.add_parser("slices", help="slice counters with bounds")
    p_slices.add_argument("--q", type=int, required=True)
    p_slices.add_argument("--c", type=int, default=None)
    add_common(p_slices, "csv")
    p_slices.set_defaults(func=_cmd_slices)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MnaqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), EXIT_INTERNAL)


if __name__ == "__main__":
    raise SystemExit(main())
