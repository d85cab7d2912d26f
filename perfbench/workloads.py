"""The benchmark's three workloads: inputs from a seed, set-up, operations, gate.

Each workload is a fixed list of calls into mnaq's public functions, run in
rounds (see `Round`).  Every call runs inside a root span named after the
layer it enters and tagged with a phase; the end-to-end metrics are phase
sums of each call's mean time over the rounds that ran it.  Every
output is checked against REFERENCE (values computed by method D at the
commit that introduced this benchmark) or against an independent
derivation, and each check counts once toward `attempted`.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

import mnaq
from mnaq import assoc, charside, field as mfield, search, weil
from mnaq.gfpoly import normalize
from mnaq.quasigroup import sigma_cardinality
from mnaq.reports import density_bound_slack

from tracer import Tracer

# Pinned outputs.  Table checksums are CRC-32 of the table as int64 values, so
# they pin element codes and the least-root sqrt convention, not the dtype.
REFERENCE = {
    "sigma": {
        10007: 1261516,
        10009: 2916910,
        2187: 60956,
        2401: 168608,
        251: 824,
        125: 456,
    },
    "tables": {  # q: (modulus, chi, sqrt, log, antilog)
        59049: ((1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
                932850648, 515274546, 3808797075, 2444613340),
        2187: ((1, 0, 0, 0, 0, 1, 2, 1),
               3518842127, 1024410456, 609571707, 2839547729),
        2401: ((1, 0, 0, 1, 1), 4240791377, 1238920074, 3586143900, 2164503498),
    },
    "admissible_c": {1009: 970, 243: 240},
}

# a correct sampler misses this band with probability below 1e-6 per run
SAMPLE_SIGMAS = 5.0

FAILED = object()  # result of an operation that raised


def table_crc(a: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes())


def table_bytes(F: mfield.Field) -> int:
    """Bytes held by F's lookup tables: chi and sqrt, plus log and antilog on
    an extension field, where the set-up has built them."""
    n = F.chi_table.nbytes + F.sqrt_table.nbytes
    if F.k > 1:
        n += sum(t.nbytes for t in F.logs)
    return n


class Gate:
    """Counts checks; a wrong value, a failed check or an exception fails one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate: FAILED {label}", file=sys.stderr)

    def equal(self, label: str, got, want) -> None:
        self.check(f"{label}: got {got if got is not FAILED else 'an exception'}, "
                   f"want {want}", got is not FAILED and got == want)


class Speed:
    """How fast this process runs at the moment, from a fixed probe.

    The probe is 10,000 steps of a pure-Python loop plus 20 numpy operations
    on 7 x 2000 arrays: the two kinds of work mnaq does.  On a shared host a
    core runs at one of two speeds about 40% apart, flipping several times a
    second, and the share of slow time drifts over minutes; the probe slows
    with mnaq's own code (see README.md).  `factor()` runs the probe when
    `every` seconds have passed since the last run and returns REF_S over
    its latest time.  A time multiplied by the mean factor just before and
    just after it reads in seconds at the reference speed.
    """

    REF_S = 3.3e-3  # the probe on an uncontended core of a 2-core Xeon

    def __init__(self, every: float = 0.05) -> None:
        rng = np.random.default_rng(0)
        self.a, self.b = rng.integers(0, 3, (2, 7, 2000))
        self.every = every
        self.last = -math.inf
        self.times: list[float] = []

    def factor(self) -> float:
        t0 = time.perf_counter()
        if t0 - self.last >= self.every:
            x = 1
            for i in range(10000):
                x = (x * 48271 + i) % 2147483647
            a, b = self.a, self.b
            for _ in range(10):
                c = (a + b) % 3
                c = (c * b + a) % 3
            self.last = time.perf_counter()
            self.times.append(self.last - t0)
        return self.REF_S / self.times[-1]


def timed(speed: Speed | None, fn: Callable) -> tuple[object, float, float]:
    """fn()'s result, its wall seconds and its reference-speed seconds (the
    wall seconds again without a probe)."""
    before = speed.factor() if speed else 1.0
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = speed.factor() if speed else 1.0
    return out, wall, wall * (before + after) / 2


@dataclass(frozen=True)
class Round:
    """Round `index` of a pass split into `of` rounds.

    A workload's operations are of two kinds.  Repeated ones run in every
    round whose `repeat` is set; item i of the others runs in the rounds
    where i % of == index % of, so `of` consecutive rounds run each item once.
    """

    index: int
    of: int
    repeat: bool = True

    def has(self, i: int) -> bool:
        return i % self.of == self.index % self.of


class Pass:
    """The operations of one run, over all its rounds.

    An operation is identified by (phase, span, key), where `key` names the
    input when one span runs on several.  Its time is the mean of its
    repetitions, so `phase_seconds` estimates one pass: every distinct
    operation once.  With `speed` set, times are in reference-speed seconds
    and `wall` keeps the wall seconds.  With `targets` set, every operation
    that allows inner tracing runs with those attributes replaced by traced
    wrappers, so its layer spans nest under the operation's root span.
    """

    def __init__(self, tracer: Tracer, gate: Gate, ref: dict,
                 targets: list | None = None, speed: Speed | None = None) -> None:
        self.tracer = tracer
        self.gate = gate
        self.ref = ref
        self.targets = targets
        self.speed = speed
        self.times: dict[tuple[str, str, object], list[float]] = {}
        self.wall: dict[tuple[str, str, object], list[float]] = {}
        self.counters: dict[str, int] = {}

    def op(self, phase: str, span: str, fn: Callable, *, key=None,
           inner: bool = True, work: Callable[[object], int] | None = None):
        """Run fn() under a root span; returns its result, or FAILED if it raised."""
        patch = (self.tracer.patched(self.targets)
                 if self.targets is not None and inner else nullcontext())

        def call():
            with self.tracer.span(span) as idx:
                try:
                    with patch:
                        out = fn()
                except Exception:
                    traceback.print_exc()
                    out = FAILED
                else:
                    if work is not None:
                        self.tracer.set_work(idx, work(out))
            return out

        out, wall, secs = timed(self.speed, call)
        self.times.setdefault((phase, span, key), []).append(secs)
        self.wall.setdefault((phase, span, key), []).append(wall)
        return out

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def check_sigma(self, q: int, got) -> None:
        self.gate.equal(f"sigma({q})", got, self.ref["sigma"][q])
        self.gate.check(f"bound_slack({q}) >= 0",
                        got is not FAILED and density_bound_slack(q, got) >= 0)

    def op_seconds(self, wall: bool = False) -> dict[tuple[str, str, object], float]:
        times = self.wall if wall else self.times
        return {k: statistics.fmean(v) for k, v in times.items()}

    def phase_seconds(self, wall: bool = False) -> dict[str, float]:
        out: dict[str, float] = {}
        for (phase, _, _), secs in self.op_seconds(wall).items():
            out[phase] = out.get(phase, 0.0) + secs
        return out

    def jobs2_speedup(self) -> float:
        """jobs=1 time over jobs=2 time, summed over the counts run both ways
        (span `s` with jobs=1 and `s.jobs2` on the same key)."""
        t = self.op_seconds()
        pairs = [(("count", span.removesuffix(".jobs2"), key), (phase, span, key))
                 for phase, span, key in t if phase == "count_jobs2"]
        pairs = [(a, b) for a, b in pairs if a in t]
        if not pairs:
            return 0.0
        return sum(t[a] for a, _ in pairs) / sum(t[b] for _, b in pairs)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def build_fields(tracer: Tracer, qs: tuple[int, ...], traced: bool) -> dict:
    """make_field for each q, plus the log tables every extension field uses."""
    targets = [(mfield, "least_irreducible", "field.modulus", None)] if traced else []
    fields = {}
    with tracer.patched(targets):
        for q in qs:
            with tracer.span("field.make_field"):
                F = mnaq.make_field(q)
            if F.k > 1:
                with tracer.span("field.logs"):
                    F.logs
            fields[q] = F
    return fields


def _field_kind(args: tuple) -> str:
    return "gfpoly.factorize.prime" if args[0].k == 1 else "gfpoly.factorize.ext"


def trace_targets(fields: dict) -> list:
    """Attributes wrapped in a traced pass: one boundary per layer crossing."""

    def size(_args, out):
        return int(np.size(out))

    targets = [
        (charside, "slice_eval", "charside.slice_eval", lambda _a, ev: int(ev.xs.size)),
        (assoc, "is_mna_C", "assoc.is_mna_C", lambda _a, ok: int(ok)),
        (search, "is_mna_C", "assoc.is_mna_C", lambda _a, ok: int(ok)),
        (search, "is_mna_Bscaled", "assoc.is_mna_Bscaled", None),
        (weil, "factorize", _field_kind, None),
        (weil, "count_sign_pattern", "weil.count_sign_pattern", None),
    ]
    for F in fields.values():
        for m in ("vadd", "vneg", "vsub", "vmul"):
            targets.append((F, m, f"field.{m}", size))
    return targets


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def run_prime_count(p: Pass, F: dict, _inputs: dict, rnd: Round) -> None:
    for i, q in enumerate((10007, 10009)):
        if rnd.has(i):
            p.check_sigma(q, p.op("count", "charside.sigma_count_D",
                                  lambda: mnaq.sigma_count_D(F[q]), key=q))
    if rnd.repeat:
        both = p.op("count_jobs2", "charside.sigma_count_D.jobs2",
                    lambda: mnaq.sigma_count_D(F[10009], jobs=2), key=10009, inner=False)
        p.gate.equal("sigma(10009) with jobs=2 (the jobs=1 value is pinned)",
                     both, p.ref["sigma"][10009])


def run_extension_fields(p: Pass, F: dict, _inputs: dict, rnd: Round) -> None:
    if rnd.index == 0:
        for q, (modulus, *crcs) in p.ref["tables"].items():
            log, antilog = F[q].logs
            tables = (F[q].chi_table, F[q].sqrt_table, log, antilog)
            p.gate.equal(f"modulus of F_{q}", F[q].modulus, modulus)
            p.gate.equal(f"table checksums of F_{q}", [table_crc(t) for t in tables], crcs)
    for i, q in enumerate((2187, 2401)):
        if rnd.has(i):
            p.check_sigma(q, p.op("count", "charside.sigma_count_D",
                                  lambda: mnaq.sigma_count_D(F[q]), key=q))
    if rnd.repeat:
        both = p.op("count_jobs2", "charside.sigma_count_D.jobs2",
                    lambda: mnaq.sigma_count_D(F[2401], jobs=2), key=2401, inner=False)
        p.gate.equal("sigma(2401) with jobs=2 (the jobs=1 value is pinned)",
                     both, p.ref["sigma"][2401])


def scalar_inputs(seed: int) -> dict:
    """Everything random in scalar-verify, drawn from the workload seed."""
    rnd = random.Random(seed)
    return {
        "polys": {
            q: [tuple(rnd.randrange(q) for _ in range(6)) + (1,) for _ in range(200)]
            for q in (1009, 27)
        },
        "weil_seed": rnd.getrandbits(64),
        "search_seeds": [rnd.getrandbits(64) for _ in range(200)],
        "sample_seed": rnd.getrandbits(64),
        "mul_pairs": {
            q: [(rnd.randrange(1, q), rnd.randrange(1, q)) for _ in range(20000)]
            for q in (1009, 243)
        },
        "inv_args": {q: [rnd.randrange(1, q) for _ in range(2000)] for q in (1009, 243)},
    }


def _mul_loop(F: mfield.Field, pairs: list[tuple[int, int]]) -> int:
    mul = F.mul
    for u, v in pairs:
        mul(u, v)
    return len(pairs)


def _inv_loop(F: mfield.Field, args: list[int]) -> int:
    inv = F.inv
    for u in args:
        inv(u)
    return len(args)


def run_scalar_verify(p: Pass, F: dict, inputs: dict, rnd: Round) -> None:
    # counts, repeated: enumerate Sigma, method C against the pinned value and
    # against D, and C at 251 again with jobs=2
    for q in (251, 125) if rnd.repeat else ():
        pairs = p.op("count", "quasigroup.enumerate_sigma",
                     lambda: mnaq.enumerate_sigma(F[q]), key=q, work=len)
        p.gate.check(f"|Sigma({q})| matches the closed form",
                     pairs is not FAILED and len(pairs) == sigma_cardinality(q))
        c = p.op("count", "assoc.sigma_count",
                 lambda: mnaq.sigma_count(F[q], "C", pairs=pairs), key=q)
        p.check_sigma(q, c)
        d = p.op("count", "charside.sigma_count_D", lambda: mnaq.sigma_count_D(F[q]),
                 key=q)
        p.gate.equal(f"sigma({q}) by D", d, c)
        if q == 251:
            both = p.op("count_jobs2", "assoc.sigma_count.jobs2",
                        lambda: mnaq.sigma_count(F[q], "C", jobs=2), key=q, inner=False)
            p.gate.equal(f"sigma({q}) by C with jobs=2", both, c)

    # verification: slice lists, factorizations, Weil trials
    for i, q in enumerate((1009, 243)):
        if not rnd.has(i):
            continue
        rep = p.op("verify", "weil.verify_slice_lists",
                   lambda: mnaq.verify_slice_lists(F[q]), key=q, work=lambda _r: q)
        ok = rep is not FAILED and rep.ok
        p.gate.check(f"verify_slice_lists({q}) reports no violations", ok)
        if ok:
            p.gate.equal(f"admissible c at q={q}", rep.admissible_count,
                         p.ref["admissible_c"][q])
            p.count("weil.admissible_c", rep.admissible_count)
    for q in (1009, 27):
        name = _field_kind((F[q],))
        for i, poly in enumerate(inputs["polys"][q]):
            if not rnd.has(i):
                continue
            fac = p.op("verify", name, lambda: mnaq.factorize(F[q], poly), key=(q, i))
            back = (FAILED if fac is FAILED else
                    p.op("gate", "gfpoly.rebuild", lambda: fac.rebuild(F[q]), key=(q, i)))
            p.gate.equal(f"factorization of {poly} over F_{q} rebuilt", back,
                         normalize(poly))
    if rnd.has(2):
        rep = p.op("verify", "weil.run_weil_trials",
                   lambda: weil.run_weil_trials(F[1009], 200, inputs["weil_seed"]))
        p.gate.check("200 Weil trials within the bound",
                     rep is not FAILED and rep.ok and rep.trials == 200)

    # search: certificates re-verified, MNA frequency against the exact count
    F9 = F[10009]
    for i, s in enumerate(inputs["search_seeds"]):
        if not rnd.has(i):
            continue
        cert = p.op("search", "search.search_mna", lambda: mnaq.search_mna(F9, s),
                    key=i, work=lambda c: c.attempts)
        ok = cert is not FAILED and p.op(
            "gate", "search.verify_certificate", lambda: mnaq.verify_certificate(F9, cert),
            key=i)
        p.gate.check(f"certificate for search seed {s} verifies", ok is True)
    if rnd.has(3):
        stats = p.op("search", "search.mna_sample_stats",
                     lambda: search.mna_sample_stats(F9, 20000, inputs["sample_seed"]),
                     work=lambda r: r[1])
        exact = p.ref["sigma"][10009] / sigma_cardinality(10009)
        tol = SAMPLE_SIGMAS * math.sqrt(exact * (1 - exact) / 20000)
        p.gate.check("MNA sample frequency at q=10009 within 5 sd of sigma/|Sigma|",
                     stats is not FAILED and stats[1] == 20000
                     and abs(stats[0] / stats[1] - exact) <= tol)

    # scalar field arithmetic, micro-timed on a prime and an extension field
    for i, (q, kind) in enumerate(((1009, "prime"), (243, "ext"))):
        if rnd.has(2 * i):
            p.op("micro", f"field.scalar_mul.{kind}",
                 lambda: _mul_loop(F[q], inputs["mul_pairs"][q]), work=int)
        if rnd.has(2 * i + 1):
            p.op("micro", f"field.scalar_inv.{kind}",
                 lambda: _inv_loop(F[q], inputs["inv_args"][q]), work=int)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in README.md and BENCHMARK.json."""

    name: str
    qs: tuple[int, ...]
    rounds: int  # rounds per pass
    run: Callable[[Pass, dict, dict, Round], None]
    inputs: Callable[[int], dict] = dc_field(default=lambda _seed: {})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prime-count", (10007, 10009), 2, run_prime_count),
        Workload("extension-fields", (59049, 2187, 2401), 2, run_extension_fields),
        Workload("scalar-verify", (251, 125, 1009, 243, 27, 10009), 4, run_scalar_verify,
                 scalar_inputs),
    )
}


def time_setup(qs: tuple[int, ...], reps: list[float], walls: list[float],
               speed: Speed) -> dict:
    """One group of untraced set-ups: at least one, and more until 0.25 s
    have passed (at most 1000).  Appends each one's reference-speed seconds
    to `reps` and wall seconds to `walls`; returns the last fields."""
    spent = 0.0
    for _ in range(1000):
        fields, wall, secs = timed(speed, lambda: build_fields(Tracer(), qs, traced=False))
        reps.append(secs)
        walls.append(wall)
        spent += wall
        if spent >= 0.25:
            break
    return fields
