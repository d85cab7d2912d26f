"""The mnaq benchmark: one workload per run, or every workload at once.

    python3 perfbench/run.py --workload prime-count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every metric, by name
    python3 perfbench/run.py --self-test               # the gate catches a bad value

Run it from the root of a checkout: it imports mnaq from ./src and from
nowhere else.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's detail (environment, phase times, error rate).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent

END_TO_END = {  # name: unit
    "setup_s": "s",
    "count_s": "s",
    "count_jobs2_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name: unit; a layer the workload does not enter reports 0
    "field.modulus_s": "s",
    "field.tables_s": "s",
    "field.logs_s": "s",
    "field.vec_self_s": "s",
    "field.vec_calls": "count",
    "field.vec_elems": "count",
    "field.vec_ns_per_elem": "ns",
    "field.scalar_mul_ns.prime": "ns",
    "field.scalar_mul_ns.ext": "ns",
    "field.scalar_inv_us.prime": "us",
    "field.scalar_inv_us.ext": "us",
    "charside.slice_eval_self_s": "s",
    "charside.slice_eval_ms": "ms",
    "charside.slices": "count",
    "charside.pairs": "count",
    "charside.jobs2_speedup": "ratio",
    "quasigroup.enumerate_sigma_s": "s",
    "assoc.is_mna_C_us": "us",
    "assoc.pairs": "count",
    "assoc.mna_ratio": "ratio",
    "search.attempts": "count",
    "search.ms_per_attempt": "ms",
    "search.hit_rate": "ratio",
    "gfpoly.factorize_ms.prime": "ms",
    "gfpoly.factorize_ms.ext": "ms",
    "gfpoly.polys": "count",
    "weil.slice_lists_ms_per_c": "ms",
    "weil.admissible_c": "count",
    "weil.sign_pattern_ms": "ms",
    "weil.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_total_s": "s",
    "trace.traced_total_s": "s",
    "trace.spans": "count",
}


def import_mnaq() -> None:
    """Import mnaq from ./src; exit 1 when the checkout does not hold it."""
    src = ROOT / "src"
    if not (src / "mnaq" / "__init__.py").is_file():
        sys.exit(f"error: no mnaq package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import mnaq

    if Path(mnaq.__file__).resolve().parent != (src / "mnaq").resolve():
        sys.exit(f"error: imported mnaq from {mnaq.__file__}, not from {src}")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment(fields: dict) -> dict:
    """Machine, interpreter and source identity, plus the largest field tables."""
    import numpy as np

    from workloads import table_bytes

    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(idx / "size")
    commit = None
    try:  # the ceiling keeps git from reading repositories above the checkout
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "mnaq").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    q_big = max(fields, key=lambda q: table_bytes(fields[q]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "cache": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "largest_table": {"q": q_big, "bytes": table_bytes(fields[q_big])},
    }


def layer_metrics(spans, p, counters: dict, untraced_total: float,
                  traced_total: float, traced_wall: float) -> dict:
    """Every PER_LAYER metric, from the spans of one traced pass.  `p` is the
    untraced Pass; `traced_total` is estimated as `untraced_total` is, and
    `traced_wall` is the traced pass's wall time, set-up included."""
    import numpy as np

    def dur(*names):
        return float(spans.dur[spans.mask(*names)].sum())

    def n(*names):
        return int(spans.mask(*names).sum())

    def work(*names):
        return int(spans.work[spans.mask(*names)].sum())

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    vec = spans.prefix_mask("field.v")
    in_d = spans.under(vec, spans.mask("charside.slice_eval"))
    top = in_d & ~vec[np.maximum(spans.parent, 0)]
    vec_self = float(spans.self_time[in_d].sum())
    vec_elems = int(spans.work[top].sum())
    roots = spans.parent < 0
    search_hits = int((spans.mask("search.search_mna") & (spans.work > 0)).sum())
    m = {
        "field.modulus_s": dur("field.modulus"),
        "field.tables_s": float(spans.self_time[spans.mask("field.make_field")].sum()),
        "field.logs_s": dur("field.logs"),
        "field.vec_self_s": vec_self,
        "field.vec_calls": int(top.sum()),
        "field.vec_elems": vec_elems,
        "field.vec_ns_per_elem": ratio(vec_self, vec_elems, 1e9),
    }
    for kind in ("prime", "ext"):
        m[f"field.scalar_mul_ns.{kind}"] = ratio(
            dur(f"field.scalar_mul.{kind}"), work(f"field.scalar_mul.{kind}"), 1e9)
        m[f"field.scalar_inv_us.{kind}"] = ratio(
            dur(f"field.scalar_inv.{kind}"), work(f"field.scalar_inv.{kind}"), 1e6)
    m.update({
        "charside.slice_eval_self_s":
            float(spans.self_time[spans.mask("charside.slice_eval")].sum()),
        "charside.slice_eval_ms": ratio(dur("charside.slice_eval"),
                                        n("charside.slice_eval"), 1e3),
        "charside.slices": n("charside.slice_eval"),
        "charside.pairs": work("charside.slice_eval"),
        "charside.jobs2_speedup": p.jobs2_speedup(),
        "quasigroup.enumerate_sigma_s": dur("quasigroup.enumerate_sigma"),
        "assoc.is_mna_C_us": ratio(dur("assoc.is_mna_C"), n("assoc.is_mna_C"), 1e6),
        "assoc.pairs": n("assoc.is_mna_C"),
        "assoc.mna_ratio": ratio(work("assoc.is_mna_C"), n("assoc.is_mna_C")),
        "search.attempts": work("search.search_mna"),
        "search.ms_per_attempt": ratio(dur("search.search_mna"),
                                       work("search.search_mna"), 1e3),
        "search.hit_rate": ratio(search_hits, work("search.search_mna")),
    })
    for kind in ("prime", "ext"):
        m[f"gfpoly.factorize_ms.{kind}"] = ratio(
            dur(f"gfpoly.factorize.{kind}"), n(f"gfpoly.factorize.{kind}"), 1e3)
    m.update({
        "gfpoly.polys": n("gfpoly.factorize.prime", "gfpoly.factorize.ext"),
        "weil.slice_lists_ms_per_c": ratio(dur("weil.verify_slice_lists"),
                                           work("weil.verify_slice_lists"), 1e3),
        "weil.admissible_c": counters.get("weil.admissible_c", 0),
        "weil.sign_pattern_ms": ratio(dur("weil.count_sign_pattern"),
                                      n("weil.count_sign_pattern"), 1e3),
        "weil.self_s": float(spans.self_time[spans.prefix_mask("weil.")].sum()),
        "trace.coverage": ratio(float(spans.dur[roots].sum()), traced_wall),
        "trace.overhead_ratio": ratio(traced_total, untraced_total),
        "trace.untraced_total_s": untraced_total,
        "trace.traced_total_s": traced_total,
        "trace.spans": int(spans.dur.size),
    })
    return m


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as wl
    from tracer import Spans, Tracer

    w = wl.WORKLOADS[name]
    inputs = w.inputs(seed)
    gate = wl.Gate()

    # Rounds run until --seconds (set-up included) would be passed, and at
    # least until every operation has run once.  Each operation's time is
    # the mean of its repetitions, which are spread over the whole run;
    # so are the set-up repetitions, one group before each round and one
    # after the last.  Every time is scaled to the reference speed by the
    # probe run next to it (workloads.Speed); the wall times go on the
    # detail line.
    t_start = time.perf_counter()
    speed = wl.Speed()
    setup_reps: list[float] = []
    setup_walls: list[float] = []
    t0 = time.perf_counter()
    fields = wl.time_setup(w.qs, setup_reps, setup_walls, speed)
    group_s = time.perf_counter() - t0
    env = environment(fields)
    p = wl.Pass(Tracer(), gate, wl.REFERENCE, speed=speed)
    round_s: list[float] = []
    while True:
        if round_s:
            t0 = time.perf_counter()
            wl.time_setup(w.qs, setup_reps, setup_walls, speed)
            group_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        w.run(p, fields, inputs, wl.Round(len(round_s), w.rounds))
        round_s.append(time.perf_counter() - t0)
        ahead = 2 * group_s + statistics.mean(round_s)
        if (len(round_s) >= w.rounds
                and time.perf_counter() + ahead - t_start > seconds):
            break
    wl.time_setup(w.qs, setup_reps, setup_walls, speed)
    setup_s = statistics.fmean(setup_reps)
    phases = p.phase_seconds()
    total_s = setup_s + sum(phases.values())
    wall_setup_s = statistics.fmean(setup_walls)
    wall_phases = p.phase_seconds(wall=True)
    wall_total_s = wall_setup_s + sum(wall_phases.values())
    names = ("count", "count_jobs2", "verify", "search", "micro", "gate")
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_reps": len(setup_reps),
        "rounds": len(round_s),
        "phases_s": {"setup": setup_s, **{k: phases.get(k, 0.0) for k in names}},
        "wall_phases_s": {"setup": wall_setup_s, "total": wall_total_s,
                          **{k: wall_phases.get(k, 0.0) for k in names}},
        "probe": {"ref_s": wl.Speed.REF_S, "runs": len(speed.times),
                  "mean_s": statistics.fmean(speed.times)},
        "environment": env,
    }

    if trace:
        # one traced pass: every operation exactly once
        del fields
        tr = Tracer()
        t0 = time.perf_counter()
        tfields = wl.build_fields(tr, w.qs, traced=True)
        traced_setup = time.perf_counter() - t0
        tp = wl.Pass(tr, gate, wl.REFERENCE, wl.trace_targets(tfields))
        for r in range(w.rounds):
            w.run(tp, tfields, inputs, wl.Round(r, w.rounds, repeat=r == 0))
        traced_wall = time.perf_counter() - t0
        spans = Spans(tr)
        metrics = layer_metrics(spans, p, tp.counters, wall_total_s,
                                traced_setup + sum(tp.phase_seconds().values()),
                                traced_wall)
        gate.check(f"trace coverage {metrics['trace.coverage']:.4f} >= 0.95",
                   metrics["trace.coverage"] >= 0.95)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "count_s": phases["count"],
            "count_jobs2_s": phases["count_jobs2"],
            "total_s": total_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    detail["error_rate"] = gate.failed / gate.attempted
    print(json.dumps(detail))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def self_test() -> int:
    """The gate passes on the pinned values and fails on a corrupted one."""
    import copy

    import workloads as wl
    from mnaq import sigma_count_D
    from tracer import Tracer

    fields = wl.build_fields(Tracer(), (251, 125), traced=False)

    def counts_only(ref):
        gate = wl.Gate()
        p = wl.Pass(Tracer(), gate, ref)
        for q in fields:
            p.check_sigma(q, p.op("count", "charside.sigma_count_D",
                                  lambda: sigma_count_D(fields[q]), key=q))
        return gate

    clean = counts_only(wl.REFERENCE)
    bad_ref = copy.deepcopy(wl.REFERENCE)
    bad_ref["sigma"][125] += 1
    corrupted = counts_only(bad_ref)
    print(f"self-test: pinned references give error_rate "
          f"{clean.failed}/{clean.attempted}; sigma(125) corrupted gives "
          f"{corrupted.failed}/{corrupted.attempted}")
    if clean.failed == 0 and corrupted.failed > 0:
        print("self-test: ok")
        return 0
    print("self-test: FAILED", file=sys.stderr)
    return 1


def run_all(seed: int, seconds: float) -> int:
    """Self-test, then every workload untraced and traced, each in its own process."""
    status = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-test"]).returncode
    from workloads import WORKLOADS

    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"\n== {name} (trace={trace}, seed={seed}) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            if not trace:
                ph = detail["phases_s"]
                rows += [("verify_s", ph["verify"], "s"), ("search_s", ph["search"], "s"),
                         ("error_rate", detail["error_rate"], "ratio"),
                         ("wall_total_s", detail["wall_phases_s"]["total"], "s")]
            for k, v, unit in rows:
                print(f"  {k:32s} {v:14.6g} {unit}")
            if not trace:
                print(f"  environment: {json.dumps(detail['environment'])}")
            if not result["correct"]:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="prime-count, extension-fields, scalar-verify or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    import_mnaq()
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
