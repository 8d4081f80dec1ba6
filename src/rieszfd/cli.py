"""Command-line interface and CSV emission.

Subcommands: simulate, weights, stability, verify, converge.  Exit codes:
0 success, 2 invalid input (bad arguments, config or parameters),
1 runtime failure (including failed verification suites).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from ._version import __version__
from .config import build_manifest, output_directory, parse_config, write_manifest
from .errors import ValidationError
from .grid import FieldState, Grid1D
from .kernel import validate_params, weight_table
from .oracles import convergence_study
from .schemes import max_stable_dt, stable_dt_limit
from .simulate import run
from .verify import SUITES, run_suites


def _fmt(value: float) -> str:
    # 17 significant digits round-trip any double; locale-independent
    return f"{value:.17g}"


def _csv_template(grid: Grid1D) -> str:
    """The text of a snapshot file on ``grid`` with every C left as a
    %.17g field: the node column is formatted once for all snapshots."""
    xs = grid.nodes().tolist()
    return "x,C\n" + "%.17g,%%.17g\n" * len(xs) % tuple(xs)


def write_snapshot_csv(state: FieldState, path, template: str | None = None) -> None:
    """Write one profile as ``x,C`` rows, one per node, full precision: one
    %-format giving the bytes of ``_fmt`` row by row, read back bit for bit
    by ``config.read_profile_csv``.  ``template`` is ``_csv_template`` of
    the state's grid, passed in to format the node column only once."""
    if template is None:
        template = _csv_template(state.grid)
    Path(path).write_text(template % tuple(state.values.tolist()))


def _snapshot_filenames(times: list[float]) -> list[str]:
    """``snapshot_<t>.csv`` with the fewest decimals, at least 6, that keep
    the names of one run's distinct times distinct."""
    digits = 6
    while len({f"{t:.{digits}f}" for t in times}) < len(set(times)):
        digits += 1
    return [f"snapshot_{t:.{digits}f}.csv" for t in times]


def _cmd_simulate(args) -> int:
    text = Path(args.config).read_text()
    config = parse_config(text, base_dir=Path(args.config).resolve().parent)
    out_dir = Path(args.out) if args.out else Path(output_directory(text))

    started = time.perf_counter()
    series = run(config)
    duration = time.perf_counter() - started

    # only now: a run that refuses its config leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    names = _snapshot_filenames([state.time for state in series.snapshots])
    template = _csv_template(config.grid)
    for state, name in zip(series.snapshots, names):
        write_snapshot_csv(state, out_dir / name, template)
    manifest = build_manifest(series, duration, output_dir=str(out_dir))
    write_manifest(manifest, out_dir / "manifest.json")
    if args.plot_script:
        _write_plot_script(out_dir, names)
    print(f"wrote {len(names)} snapshot(s) and manifest.json to {out_dir}")
    return 0


def _write_plot_script(out_dir: Path, snapshot_names: list[str]) -> None:
    plots = ", \\\n  ".join(
        f"'{name}' using 1:2 with lines title '{name[9:-4]}'" for name in snapshot_names
    )
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'x'\n"
        "set ylabel 'C'\n"
        f"plot \\\n  {plots}\n"
        "pause -1\n"
    )
    (out_dir / "plot_snapshots.gp").write_text(script)


def _cmd_weights(args) -> int:
    params = validate_params(args.alpha, args.theta)
    if args.kmax < 0:
        raise ValidationError(f"--kmax must be >= 0, got {args.kmax}")
    table = weight_table(params, -args.kmax, args.kmax)
    print("k,w")
    for k, w in zip(range(-args.kmax, args.kmax + 1), table.weights):
        print(f"{k},{_fmt(w)}")
    return 0


def _cmd_stability(args) -> int:
    params = validate_params(args.alpha, args.theta)
    if not 0.0 <= args.sigma <= 1.0:
        raise ValidationError(f"--sigma must lie in [0, 1], got {args.sigma}")
    print(_fmt(stable_dt_limit(max_stable_dt(params, args.k_alpha, args.h), args.sigma)))
    return 0


def _cmd_verify(args) -> int:
    names = args.suite or None
    results = run_suites(names)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_converge(args) -> int:
    text = Path(args.config).read_text()
    config = parse_config(text, base_dir=Path(args.config).resolve().parent)
    window = tuple(args.window) if args.window else None
    rows = convergence_study(config, args.levels, x_window=window)
    print("h,dt,error")
    for h, dt, err in rows:
        print(f"{_fmt(h)},{_fmt(dt)},{_fmt(err)}")
    return 0


@functools.cache  # built once per process; each parse_args gets a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszfd",
        description="Finite-difference solver for skewed space-fractional diffusion",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p.add_argument("--config", required=True, help="path to the config document")
    p.add_argument("--out", help="output directory (overrides config output_dir)")
    p.add_argument(
        "--plot-script", action="store_true", help="also emit a gnuplot script for the snapshots"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("weights", help="print stencil weights as k,w CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser(
        "stability",
        help="print the time step at and above which simulate refuses a run",
        description="Print the dt at and above which simulate refuses a run of weight sigma: "
        "the explicit bound -h^alpha / (K w_0) at sigma = 1 (the default), "
        "bound / (2 sigma - 1) for 1/2 < sigma < 1, and inf for sigma <= 1/2, "
        "which is stable at any dt.",
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k-alpha", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0, help="time weight in [0, 1] (default 1)")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="suite to run (repeatable; default: all)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("converge", help="grid-refinement error study")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, required=True, help="number of halvings of h")
    p.add_argument(
        "--window", type=float, nargs=2, metavar=("LO", "HI"),
        help="restrict the error norm to x in [LO, HI]",
    )
    p.set_defaults(func=_cmd_converge)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
