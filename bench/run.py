"""hvdesign benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload ga_grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, scaled to the reference host speed (see
hostspeed.py), the per-layer metrics with ``--trace 1``. The line before
it is a JSON report with the environment, the tail percentiles and their
sample counts, the host speed readings, the end-to-end metrics in plain
wall-clock time, and any failed checks. See ``bench/README.md`` for what
each metric measures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# numpy, and the BLAS it loads, is imported only after these are checked.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5  # set up at least this many times,
SETUP_MIN_S = 1.0  # and for at least this long while set-up is cheap,
SETUP_MAX = 100  # but no more than this many times
MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it
HARD_STOP_S = 60  # minimum unit counts never push a run past this
MIN_TRACED_UNITS = 2


def _limit_blas_threads(nproc: int) -> str | None:
    """Cap BLAS threads at nproc; returns an error for a larger setting.
    Unset variables get one thread: the workloads are single callers, and
    idle helper threads on other cores add noise."""
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is None:
            continue
        if not value.isdigit() or int(value) < 1:
            return f"{var}={value!r} is not a positive thread count"
        if int(value) > nproc:
            return f"{var}={value} exceeds nproc={nproc}; refusing to oversubscribe"
    for var in THREAD_VARS[:3]:
        os.environ.setdefault(var, "1")
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(args, nproc: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc,
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values, n: int) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile, up to 99, that n
    samples leave at least MIN_BEYOND samples beyond."""
    q = max(50, min(99, math.floor(100 - 100 * MIN_BEYOND / max(n, 1))))
    return percentile(values, q), q


def _summarize(times: dict, items: int, kinds, guaranteed: dict) -> tuple[dict, dict]:
    """Metrics from per-call times in seconds, and the tail percentiles used."""
    metrics, tails = {}, {}
    for kind in ("main", "minor"):
        # The percentile comes from the count every run reaches, so it is the
        # same in every run of a workload however fast the code runs.
        value, q = tail(times[kind], guaranteed.get(kind, len(times[kind])))
        metrics[f"{kind}_p50_ms"] = 1000.0 * percentile(times[kind], 50)
        metrics[f"{kind}_tail_ms"] = 1000.0 * value
        tails[f"{kind}_tail_ms"] = {"percentile": q, "samples": len(times[kind])}
    metrics["start_p50_ms"] = 1000.0 * percentile(times["start"], 50)
    metrics["items_per_s"] = items / sum(sum(times[kind]) for kind in kinds)
    return metrics, tails


@contextlib.contextmanager
def _reading_points(speed):
    """Let every traced public name of hvdesign take a host speed reading
    before it runs, at most every READ_EVERY_S."""
    from tracing import SPANNED, install, restore

    def make(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            speed.maybe_read()
            return fn(*args, **kwargs)

        return wrapper

    patches = install(SPANNED, make)
    try:
        yield
    finally:
        restore(patches)


def run_timed(workload, checks, seconds: int):
    from hostspeed import HostSpeed

    # Timed spans include the readings taken inside them; normalize() leaves
    # those out and divides the rest by the readings around it.
    speed = HostSpeed(workload.speed_kernels)
    with _reading_points(speed) if workload.read_inside else contextlib.nullcontext():
        setup_spans = []
        setup_start = time.perf_counter()
        while len(setup_spans) < SETUP_REPEATS or (
            time.perf_counter() - setup_start < SETUP_MIN_S and len(setup_spans) < SETUP_MAX
        ):
            speed.read()
            t = time.perf_counter()
            workload.setup()
            setup_spans.append((t, time.perf_counter()))
        speed.read()
        workload.verify_setup(checks)

        rec = defaultdict(list, items=0)
        start = time.perf_counter()
        units = 0
        guaranteed = {}  # sample counts after min_units: they fix the tail percentile
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (units >= workload.min_units or elapsed >= HARD_STOP_S):
                break
            workload.unit(rec, checks, read=speed.read)
            speed.maybe_read()
            units += 1
            if units == workload.min_units:
                guaranteed = {kind: len(rec[kind]) for kind in ("main", "minor")}
        speed.read()

    kinds = ("main", "minor", "start")
    timed = {kind: speed.normalize(rec[kind]) for kind in kinds}
    setup = speed.normalize(setup_spans)
    metrics, tails = _summarize({k: [t[1] for t in v] for k, v in timed.items()},
                                rec["items"], workload.throughput_kinds, guaranteed)
    metrics["setup_s"] = statistics.median(t[1] for t in setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["pass_ratio"] = (checks.attempted - checks.failed) / max(checks.attempted, 1)
    wall_metrics, _ = _summarize({k: [t[0] for t in v] for k, v in timed.items()},
                                 rec["items"], workload.throughput_kinds, guaranteed)
    wall_metrics["setup_s"] = statistics.median(t[0] for t in setup)
    readings = [r[2] for r in speed.readings]
    units_of = {"setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio",
                "items_per_s": "1/s"}
    report = {
        "units": units,
        "setups": len(setup_spans),
        "samples": {k: len(rec[k]) for k in kinds},
        "tails": tails,
        "host_speed": {"readings": len(readings), "min": min(readings),
                       "median": statistics.median(readings), "max": max(readings),
                       "seconds": sum(end - begin for begin, end, _ in speed.readings)},
        "wall_clock": wall_metrics,
        "aliases": {workload.aliases[k]: v for k, v in metrics.items() if k in workload.aliases},
    }
    return {k: {"value": v, "unit": units_of.get(k, "ms")} for k, v in metrics.items()}, report


def run_traced(workload, checks, seconds: int, spans_out: Path):
    from tracing import Tracer

    workload.setup()
    workload.verify_setup(checks)
    tracer = Tracer()
    rec = defaultdict(list, items=0)
    plain, traced = [], []
    start = time.perf_counter()
    # Alternate traced and untraced units of identical work; the difference
    # of their medians is the tracing overhead.
    while len(traced) < MIN_TRACED_UNITS or not plain or (
        time.perf_counter() - start < min(seconds, HARD_STOP_S)
    ):
        tr, out = (tracer, traced) if len(traced) <= len(plain) else (None, plain)
        t = time.perf_counter()
        workload.unit(rec, checks, tr)
        out.append(time.perf_counter() - t)
    for key, values in tracer.count_mismatches():
        checks.check(False, f"exact count {key} differs between traced units: {values}")

    metrics = tracer.layer_metrics()
    base = percentile(plain, 50)
    overhead = percentile(traced, 50) - base
    metrics["trace.overhead_ms"] = {"value": 1000.0 * overhead, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / base, "unit": "%"}
    tracer.write(spans_out)
    report = {
        "traced_units": len(traced),
        "unit_counts": [dict(c) for c in tracer.unit_counts[:2]],
        "untraced_unit_p50_ms": 1000.0 * base,
        "spans": len(tracer.spans),
        "spans_file": str(spans_out.relative_to(ROOT)),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    problem = _limit_blas_threads(nproc)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hvdesign
    except ImportError as exc:
        print(f"error: cannot import hvdesign from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(hvdesign.__file__).resolve().parent != src / "hvdesign":
        print(f"error: hvdesign imported from {hvdesign.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Checks, Discard

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # The CLI configures INFO logging to stderr on every call; send those
    # records to a sink instead (they are still formatted and written).
    logging.basicConfig(level=logging.INFO, stream=Discard())

    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    checks = Checks()
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, golden)
        if args.trace:
            spans_out = ROOT / ".bench-out" / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, report = run_traced(workload, checks, args.seconds, spans_out)
        else:
            metrics, report = run_timed(workload, checks, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"env": _environment(args, nproc), **report, "failures": checks.failures}
    print(json.dumps(report))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
