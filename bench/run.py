#!/usr/bin/env python3
"""pentacheck benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is imported from `src/`; the
benchmark uses only the standard library.  Workloads, oracles and metrics are
described in `bench/README.md`.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment.  Spans of a traced run, the environment and the
result are also written under `.bench_out/`.  Exits 2 without a result when
the checkout holds no `src/pentacheck`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

NPROC = len(os.sched_getaffinity(0))  # CPUs usable before pinning, as `nproc` counts
DEFAULT_SEEDS = {"verify-all": 1, "section-sweep": 2, "deformation-family": 3}
SETUP_REPEATS = 9

# The shared host's speed changes by up to 1.7x from one tenth of a second to
# the next, and CPU time changes with wall time.  Times are therefore scaled
# to a reference speed: a fixed pure-Python loop is timed before and after
# each block of operations, and a block's times are multiplied by the loop's
# time per iteration at the reference speed over its mean time per iteration
# around the block.  The loop runs no pentacheck code, so a change to the
# program cannot move it.  Blocks are short because the speed changes
# quickly; a `verify-all` operation is a block of its own.  The loop after a
# block lasts about a tenth of it, within 5 ms and 40 ms at the reference
# speed: long enough to be steady, short enough to follow the speed.
CAL_RATE = 10_000_000  # loop iterations per second at the reference speed
CAL_SHARE = 0.1
CAL_MIN, CAL_MAX = 50_000, 400_000  # iterations
BLOCK_S = 0.05  # operations between two calibrations, at least one


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_workloads():
    if not (SRC / "pentacheck" / "__init__.py").is_file():
        _fail(f"no pentacheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads
    import pentacheck

    if Path(pentacheck.__file__).resolve().parent != SRC / "pentacheck":
        _fail(f"imported pentacheck from {pentacheck.__file__}, not from {SRC}")
    return workloads


def _make(workloads, name, seed, workdir, in_process=False):
    cls = workloads.WORKLOADS[name]
    return cls(seed, workdir=workdir, src=str(SRC), in_process=in_process)


def calibrate(loops: int) -> float:
    """The reference speed over the current speed of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return loops / CAL_RATE / (time.perf_counter() - t0)


# -- set-up time ----------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Child mode: print the set-up time and a calibration taken right after it.

    Set-up runs from before `import pentacheck` until the first input is built.
    """
    t0 = time.perf_counter()
    workloads = _import_workloads()
    wl = _make(workloads, name, seed, workdir=str(OUT))
    wl.next_input()
    setup = time.perf_counter() - t0
    print(repr(setup), repr(calibrate(CAL_MAX)))


def measure_setup(name: str, seed: int):
    """Median set-up time over fresh processes, scaled and as measured.

    The first process, which may compile bytecode, is not counted.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             stdin=subprocess.DEVNULL, timeout=60)
        if i:
            setup, speed = map(float, out.stdout.split())
            scaled.append(setup * speed)
            wall.append(setup)
    return statistics.median(scaled), statistics.median(wall)


# -- operations -----------------------------------------------------------


class Operations:
    """Runs operations and counts attempted and failed ones.

    The first error is printed in full; `corrupt_first` replaces the first
    expected answer with a wrong one, for the self-test.
    """

    def __init__(self, corrupt_first=False):
        self.attempted = 0
        self.failed = 0
        self.corrupt_first = corrupt_first
        self.reported_error = False

    def run_one(self, wl, tracer=None) -> float:
        """Run one operation on a fresh input; returns its wall time in seconds."""
        inp = wl.next_input()
        expected = wl.expected(inp)
        if self.corrupt_first and self.attempted == 0:
            expected = wl.corrupt(expected)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            output = wl.run(inp)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            output = error = traceback.format_exc()
        else:
            error = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        ok = False
        if error is None:
            try:
                ok = wl.check(output, expected)
            except Exception:  # noqa: BLE001 - a malformed output fails
                error = traceback.format_exc()
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error is not None and not self.reported_error:
                self.reported_error = True
                print(error, file=sys.stderr)
        return dt


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


class Timings:
    """Operation times of an untraced run, as measured and scaled."""

    def __init__(self):
        self.raw = array("d")  # compact, so peak RSS hardly depends on the count
        self.scaled = array("d")
        self.wall = 0.0  # run time outside calibration
        self.scaled_wall = 0.0
        self.speeds = []  # reference speed over current speed, per calibration


def run_untraced(wl, seconds, ops) -> Timings:
    """Blocks of operations lasting at least BLOCK_S, each between two calibrations."""
    out = Timings()
    start = time.perf_counter()
    speed = calibrate(CAL_MIN)
    out.speeds.append(speed)
    while not out.raw or time.perf_counter() - start < seconds:
        block = []
        block_start = time.perf_counter()
        while not block or time.perf_counter() - block_start < BLOCK_S:
            block.append(ops.run_one(wl))
        block_wall = time.perf_counter() - block_start
        loops = int(block_wall * CAL_SHARE * CAL_RATE)
        speed_next = calibrate(min(max(loops, CAL_MIN), CAL_MAX))
        out.speeds.append(speed_next)
        scale = (speed + speed_next) / 2
        out.raw.extend(block)
        out.scaled.extend(t * scale for t in block)
        out.wall += block_wall
        out.scaled_wall += block_wall * scale
        speed = speed_next
    return out


def run_traced(wl, seconds, ops, tracer, spans_path, inclusive):
    """A fixed traced batch, then untraced and traced operations in turn.

    Span statistics come from the batch alone, so equal seeds give equal
    counts; the pairs that follow give the tracing overhead.
    """
    start = time.perf_counter()
    for _ in range(wl.traced_batch):
        ops.run_one(wl, tracer)
    spans, lengths = tracer.take()
    stats = tracing.SpanStats(inclusive)
    stats.add(spans, lengths)
    tracing.write_spans(spans_path, spans)
    del spans
    plain, traced = [], []
    while not plain or time.perf_counter() - start < seconds:
        plain.append(ops.run_one(wl))
        traced.append(ops.run_one(wl, tracer))
        tracer.take()
    return stats, plain, traced


# -- metrics --------------------------------------------------------------

INCLUSIVE = (
    "arrangement.build_arrangement",
    "arrangement.incidence_automorphisms",
    "multipoly.resultant",
    "groebner.buchberger",
    "singularity.milnor_number_plane",
)


def end_to_end_metrics(timings, ops, rss_kb, setup_s):
    ms = [t * 1e3 for t in timings.scaled]
    correct = ops.attempted - ops.failed
    return {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (p90(ms), "ms"),
        "ops_per_s": (correct / timings.scaled_wall, "1/s"),
        "correct_share": (correct / ops.attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def wall_clock(timings, ops, setup_wall_s):
    """The unscaled figures, recorded beside the result."""
    ms = [t * 1e3 for t in timings.raw]
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90(ms),
        "ops_per_s": (ops.attempted - ops.failed) / timings.wall,
        "setup_s": setup_wall_s,
        "relative_speed_p50": statistics.median(timings.speeds),
    }


def per_layer_metrics(stats, plain, traced, missing, check_ids):
    calls = stats.calls
    self_ms = {k: v / 1e6 for k, v in stats.self_ns.items()}
    incl = {k: v / 1e6 for k, v in stats.inclusive_ns.items()}

    def count(name):
        return (calls.get(name, 0), "count")

    m = {
        "field.mul_calls": count("field.AlgebraicNumber.__mul__"),
        "field.inverse_calls": count("field.AlgebraicNumber.inverse"),
        "field.galois_apply_calls": count("field.GaloisElement.apply"),
        "arrangement.build_calls": count("arrangement.build_arrangement"),
        "multipoly.mul_calls": count("multipoly.MultiPoly.__mul__"),
        "multipoly.substitute_calls": count("multipoly.MultiPoly.substitute"),
        "multipoly.resultant_calls": count("multipoly.resultant"),
        "groebner.buchberger_calls": count("groebner.buchberger"),
        "groebner.normal_form_calls": count("groebner.normal_form"),
        "groebner.basis_len_sum": (stats.basis_len_sum, "count"),
        "series.substitute_calls": count("series.series_substitute"),
        "singularity.milnor_calls": count("singularity.milnor_number_plane"),
        "arrangement.build_ms": (incl["arrangement.build_arrangement"], "ms"),
        "arrangement.automorphisms_ms": (incl["arrangement.incidence_automorphisms"], "ms"),
        "multipoly.resultant_ms": (incl["multipoly.resultant"], "ms"),
        "groebner.buchberger_ms": (incl["groebner.buchberger"], "ms"),
        "singularity.milnor_ms": (incl["singularity.milnor_number_plane"], "ms"),
    }
    for layer in ("field", "arrangement", "multipoly", "groebner", "series",
                  "singularity", "checks", "cli"):
        m[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")
    for cid in check_ids:
        m[f"check.{cid}.ms"] = (incl[f"check.{cid}"], "ms")
    base = statistics.median(plain)
    m["trace.overhead_share"] = ((statistics.median(traced) - base) / base, "share")
    m["trace.missing_names"] = (len(missing), "count")
    return m


# -- environment ----------------------------------------------------------


def commit_id():
    """HEAD of the checkout's git metadata, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "pentacheck").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, samples):
    return {
        "python": sys.version.split()[0],
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


# -- main -----------------------------------------------------------------


def bench(args, corrupt_first=False):
    """Run one workload; returns (result dict, environment dict)."""
    workloads = _import_workloads()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        ops = Operations(corrupt_first)
        if args.trace:
            tracer = tracing.Tracer()
            inclusive = INCLUSIVE + tuple(f"check.{c}" for c in workloads.CHECK_IDS)
            wl = _make(workloads, args.workload, args.seed, workdir, in_process=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            stats, plain, traced = run_traced(
                wl, args.seconds, ops, tracer, spans_path, inclusive
            )
            missing = tracer.missing()
            if missing:
                print(f"bench: traced names missing from the program: {missing}",
                      file=sys.stderr)
            metrics = per_layer_metrics(stats, plain, traced, missing, workloads.CHECK_IDS)
            samples = {"traced_batch": wl.traced_batch, "overhead_pairs": len(plain),
                       "missing": missing}
        else:
            setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
            wl = _make(workloads, args.workload, args.seed, workdir)
            timings = run_untraced(wl, args.seconds, ops)
            rss_kb = wl.peak_rss_kb()  # before the metrics allocate anything
            metrics = end_to_end_metrics(timings, ops, rss_kb, setup_s)
            samples = {"ops": len(timings.raw), "setup_repeats": SETUP_REPEATS,
                       "wall_clock": wall_clock(timings, ops, setup_wall_s)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, environment(args, samples)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU of those allowed.

    On a host whose CPUs run at different speeds, a process that migrates
    between them changes speed from one operation to the next.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result, env = bench(args)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "result": result}, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
