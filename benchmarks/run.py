"""Benchmark of the rieszfd solver: workloads with checked outputs.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the solver is imported from its
``src`` directory.  Each workload runs in its own worker process with the
BLAS thread count fixed (see ``worker.py``).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run and its tracing overhead.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; when
more than one workload runs, the metric names carry the workload as a
prefix.  Lines before it give the environment and, for every timing, its
sample count, quartiles and highest well-sampled percentile.

Without ``--workload`` the workloads listed in ``BENCHMARK.json`` run,
those whose timings are steady enough to gate changes.  ``cli_sweep`` is
Python- and formatting-bound, so its wall time follows the host's CPU
speed; it runs by name or with ``all``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from tracing import DERIVATION

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("explicit_gauss", "implicit_skew", "cli_sweep")
# one BLAS thread: warm repeats of the dense implicit path at N = 4000
# spread about 3% at one thread against 5% at two
BLAS_THREADS = 1
# a worker measures for the requested seconds plus set-up, warm-up and
# the repetition that is running when the time is up
WORKER_SLACK_S = 120


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, spans_dir: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{workload}_seed{seed}_spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=2 * seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"error: worker for {workload} did not finish within {exc.timeout:g} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def describe(result: dict, units: dict) -> None:
    """Human-readable lines for one workload's result."""
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, value in result["metrics"].items():
        note = f"  ({DERIVATION[name]})" if name in DERIVATION else ""
        print(f"  {name:34s} {value:<14.6g} {units.get(name, '')}{note}")
    for name, st in result["stats"].items():
        tail = "none with 10 beyond" if st["tail"] is None else f"p{st['tail'][0]:g} {st['tail'][1]:.6g}"
        print(f"  timing {name:27s} n={st['n']:<4d} median {_fmt(st['median'])} "
              f"q1 {_fmt(st.get('q1'))} q3 {_fmt(st.get('q3'))} tail {tail}")
    for name in result.get("dropped_metrics", []):
        print(f"  dropped {name}: its functions are gone from the solver")
    for problem in result["problems"]:
        print(f"  FAILED CHECK {problem.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them; default: those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="directory for the traced run's spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rieszfd" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no solver sources (src/rieszfd)", file=sys.stderr)
        return 2

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.workload is None:
        names = tuple(w["name"] for w in manifest["workloads"])
    else:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result = run_worker(workload, args.seed, args.seconds, args.trace, args.spans)
        describe(result, units)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, value in result["metrics"].items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units.get(name, "")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
