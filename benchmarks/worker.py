"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts one worker per workload, in a fresh interpreter with the
BLAS thread count fixed, so that ``peak_rss_mib`` belongs to that workload
alone.  Protocol, untraced (``--trace 0``):

1. build the inputs from the seed;
2. one full repetition, checked and discarded (warm-up);
3. full repetitions until ``--seconds`` have passed, each checked and
   each followed by single-step runs for ``setup_s``; a run that fails a
   check, or whose outputs differ from the warm-up's, is counted as
   failed and gives no timing.

Traced (``--trace 1``): after the warm-up, untraced and traced repetitions
alternate; per-layer metrics are medians over the traced ones and the
tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Clock, Outcome

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
# share of each full repetition's time spent on single-step runs after it
SETUP_SHARE = 0.05
# setup_s is this percentile of the single-step times, not their median:
# a single step takes 15-50 ms of Python- and allocation-bound work, and
# the share of a run during which the host slows such work changes from
# run to run (the median moved by up to 30% between rounds of ten runs,
# the lower quartile by half as much), while the fast times stay
SETUP_PERCENTILE = 10.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_solver():
    """Import ``rieszfd`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "rieszfd" / "__init__.py").is_file():
        raise SystemExit(f"error: no solver sources at {src / 'rieszfd'}")
    sys.path.insert(0, str(src))
    import rieszfd

    if Path(rieszfd.__file__).resolve().parent != (src / "rieszfd").resolve():
        raise SystemExit(f"error: imported rieszfd from {rieszfd.__file__}, not from {src}")
    return rieszfd


def _blas_threads() -> list[dict]:
    """Each OpenBLAS loaded in this process, with its thread count."""
    found = []
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                found.append({"library": Path(path).name, "threads": int(getattr(lib, symbol)())})
                break
    return found


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rieszfd").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def timing_stats(samples: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it (None when there are too few samples)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    out["tail"] = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            out["tail"] = [p, float(np.percentile(samples, p))]
            break
    return out


def _guarded(fn, clock, runs: int):
    gc.collect()
    try:
        return fn(clock)
    except Exception:  # noqa: BLE001 - a failing run is counted, not fatal
        return Outcome(attempted=runs, problems=[traceback.format_exc(limit=3)])


def measure(workload, seconds: float, trace: bool, span_file: Path | None = None) -> dict:
    runs = workload.runs_per_rep
    plain = Clock()
    outcomes = []
    warm = _guarded(workload.full, plain, runs)
    outcomes.append(warm)

    def checked(outcome):
        if outcome.ok and outcome.fingerprint != warm.fingerprint:
            outcome.problems.append("outputs differ from the warm-up repetition")
            outcome.passed = 0
        outcomes.append(outcome)
        return outcome

    result = {}
    if not trace:
        timed, setups, start = [], [], time.perf_counter()
        while len(timed) < MIN_REPS or time.perf_counter() - start < seconds:
            timed.append(checked(_guarded(workload.full, plain, runs)))
            # single-step runs spread over the whole window, like the full
            # ones, so that set-up time sees the same machine states
            spent = 0.0
            while True:
                o = _guarded(workload.single_step, plain, runs)
                outcomes.append(o)
                if not o.ok:
                    break
                setups.append(o.wall_s)
                spent += o.wall_s
                if spent >= SETUP_SHARE * timed[-1].wall_s:
                    break
            if len(timed) >= 4 * MIN_REPS and not any(o.ok for o in timed):
                break
        good = [o for o in timed if o.ok]
        walls = [o.wall_s for o in good]
        rates = [o.steps / o.wall_s for o in good]
        errors = [o.rel_l2_error for o in outcomes if o.ok and o.rel_l2_error is not None]
        metrics = {}
        if good:
            metrics["wall_s"] = statistics.median(walls)
            metrics["steps_per_s"] = statistics.median(rates)
        if setups:
            metrics["setup_s"] = float(np.percentile(setups, SETUP_PERCENTILE))
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if errors:
            metrics["rel_l2_error"] = max(errors)
        result["stats"] = {
            "wall_s": timing_stats(walls),
            "setup_s": timing_stats(setups),
            "steps_per_s": timing_stats(rates),
            "run_wall_s": timing_stats([s for o in good for s in o.samples]),
        }
        result["steps_per_rep"] = good[0].steps if good else None
    else:
        tracer = Tracer()
        tracer.install()
        traced_clock = Clock(tracer)
        untraced, traced, per_rep, span_log = [], [], [], []
        start = time.perf_counter()
        try:
            while len(traced) < 2 or time.perf_counter() - start < seconds:
                o = checked(_guarded(workload.full, plain, runs))
                if o.ok:
                    untraced.append(o.wall_s)
                o = checked(_guarded(workload.full, traced_clock, runs))
                spans = tracer.take()
                if o.ok:
                    traced.append(o.wall_s)
                    per_rep.append(layer_metrics(spans, tracer.installed))
                    per_rep[-1]["trace.spans"] = float(len(spans))
                    span_log.append(spans)
                if len(outcomes) >= 8 * MIN_REPS and not traced:
                    break
        finally:
            tracer.uninstall()
        metrics = {}
        if per_rep:
            for name in per_rep[0]:
                metrics[name] = statistics.median(r[name] for r in per_rep)
        if traced and untraced:
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_share"] = overhead / statistics.median(untraced)
        result["stats"] = {"untraced_wall_s": timing_stats(untraced), "traced_wall_s": timing_stats(traced)}
        result["dropped_metrics"] = sorted({name for name, *_ in LAYER_METRICS} - set(metrics))
        if span_file is not None:
            span_file.write_text(json.dumps({"workload": workload.name, "reps": span_log}))

    attempted = sum(o.attempted for o in outcomes)
    passed = sum(o.passed for o in outcomes)
    if attempted and not trace:
        metrics["success_share"] = passed / attempted
    problems = [p for o in outcomes for p in o.problems]
    result.update(
        correct=not problems and passed == attempted,
        attempted=attempted,
        failed=attempted - passed,
        metrics=metrics,
        problems=problems[:20],
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans to this file at exit")
    args = parser.parse_args(argv)

    rz = load_solver()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](rz, args.seed, workdir)
        result = measure(workload, args.seconds, bool(args.trace), args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # left in place while another worker uses it
    result.update(workload=args.workload, seed=args.seed, trace=args.trace, env=environment(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
