"""The benchmark's workloads: their inputs, the timed calls and the checks.

Every workload runs the solver through an interface a user has:
``rieszfd simulate`` in process (``explicit_gauss``, ``cli_sweep``) or
the Python API documented in the README (``implicit_skew``).
Only the calls into the solver are timed; inputs are built before and
outputs are checked after, against references that do not come from the
solver (``green.py``).

One execution of a workload yields an ``Outcome``: the time of its timed
region, the number of runs it attempted and how many passed every check,
and a digest of its outputs that must repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from green import green, heat_kernel, rel_l2

DOMAIN = (-10.0, 10.0)

# explicit_gauss: the paper's headline case, the README's example config
GAUSS_CELLS = 1000
GAUSS_T_END = 1.0
GAUSS_STEPS = 5556  # auto dt: 0.9 of the bound h^2 / 2, rounded up to whole steps
GAUSS_TOL = 1e-2

# implicit_skew: dense implicit path with a nonsymmetric matrix.  At
# N = 1000 the 8 MB operator and factors stay in cache; at N = 4000 the
# 128 MB factors are streamed from memory on every solve, and the time of
# a repetition then follows the host's memory bandwidth, which moved it
# by up to 1.7x between runs minutes apart.
SKEW_ALPHA, SKEW_THETA = 1.5, 0.3
SKEW_CELLS = 1000
SKEW_DT = 1e-4
SKEW_STEPS = 2000
SKEW_WINDOW = (-3.0, 3.0)
# the solver reaches 1.65e-2, set by the grid (4.7e-3 at N = 4000); the
# mirrored skew gives 0.48
SKEW_TOL = 3e-2

# cli_sweep: many small runs through the command line
SWEEP_CELLS = 400
SWEEP_STEPS = 240  # a multiple of SWEEP_SNAPSHOTS, so every snapshot lands on a step
SWEEP_SNAPSHOTS = 20
SWEEP_SAFETY = 0.9
SWEEP_PER_BRANCH = 12
SWEEP_BRANCHES = ((0.2, 0.95), (1.05, 1.95))
# skew as a share of the admissible bound min(alpha, 2 - alpha); the same
# multiset on every seed, so every seed runs as many one-sided configs
SWEEP_SKEW_SHARES = (-1.0, -1.0, -0.75, -0.5, -0.25, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0)
# trapezoid mass of delta data starts at one and only leaks out through
# the boundaries; this absorbs the rounding of the sums
MASS_RTOL = 1e-12


@dataclass
class Outcome:
    """One execution of a workload or of its single-step variant."""

    wall_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    passed: int = 0
    samples: list = field(default_factory=list)  # wall time of each solver run
    rel_l2_error: float | None = None
    fingerprint: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.attempted > 0 and self.passed == self.attempted


class Clock:
    """Times calls into the solver; tracing, if any, is on only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def call(self, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args)
            return result, time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.enabled = False


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


class ImplicitSkew:
    """alpha = 1.5, theta = 0.3, N = 1000, sigma = 0 through ``rieszfd.run``,
    against the Green's function."""

    name = "implicit_skew"
    runs_per_rep = 1

    def __init__(self, rz, seed: int, workdir: Path):
        self.rz = rz
        self.config = self._config(SKEW_DT * SKEW_STEPS)
        self.single_config = self._config(SKEW_DT)
        self._reference: dict = {}

    def _config(self, t_end: float):
        rz = self.rz
        return rz.SimulationConfig(
            grid=rz.build_grid(DOMAIN[0], DOMAIN[1], SKEW_CELLS),
            scheme=rz.SchemeConfig(params=rz.validate_params(SKEW_ALPHA, SKEW_THETA), k_alpha=1.0, sigma=0.0),
            initial=rz.InitialCondition.delta(),
            t_end=t_end,
            snapshot_times=(t_end,),
            dt_policy=rz.DtPolicy.fixed(SKEW_DT),
        )

    def _oracle(self, xs: np.ndarray, t: float) -> np.ndarray:
        key = (t, _digest(xs))
        if key not in self._reference:
            self._reference[key] = green(xs, t, SKEW_ALPHA, SKEW_THETA)
        return self._reference[key]

    def full(self, clock: Clock) -> Outcome:
        def check(series, final, out):
            xs = final.grid.nodes()
            inside = (xs >= SKEW_WINDOW[0]) & (xs <= SKEW_WINDOW[1])
            err = rel_l2(final.values[inside], self._oracle(xs[inside], final.time))
            out.rel_l2_error = err
            if not err <= SKEW_TOL:
                out.problems.append(f"rel L2 {err:.3e} against the Green's function exceeds {SKEW_TOL}")

        return self._execute(clock, self.config, check)

    def single_step(self, clock: Clock) -> Outcome:
        def check(series, final, out):
            if series.n_steps != 1:
                out.problems.append(f"single-step config took {series.n_steps} steps")

        return self._execute(clock, self.single_config, check)

    def _execute(self, clock: Clock, config, check) -> Outcome:
        series, seconds = clock.call(self.rz.run, config)
        final = series.snapshots[-1]
        out = Outcome(wall_s=seconds, steps=series.n_steps, attempted=1, samples=[seconds])
        out.fingerprint = _digest(final.values)
        if not np.all(np.isfinite(final.values)):
            out.problems.append("non-finite values in the final state")
        else:
            check(series, final, out)
        out.passed = 0 if out.problems else 1
        return out


def sweep_parameters(seed: int) -> list[tuple[float, float]]:
    """The alpha = 2 anchor, then seeded (alpha, theta) pairs on both branches.

    Each branch is cut into equal strata with one alpha drawn in each; the
    skew shares are a fixed multiset in seeded order, up to the admissible
    bound.  So the seed moves the parameters, never the amount of work.
    """
    rng = np.random.default_rng(seed)
    pairs = [(2.0, 0.0)]
    for lo, hi in SWEEP_BRANCHES:
        edges = np.linspace(lo, hi, SWEEP_PER_BRANCH + 1)
        alphas = rng.uniform(edges[:-1], edges[1:])
        shares = rng.permutation(SWEEP_SKEW_SHARES)
        pairs.extend((float(a), float(s * min(a, 2.0 - a))) for a, s in zip(alphas, shares))
    return pairs


_SNAPSHOT_NAME = re.compile(r"^snapshot_(.+)\.csv$")


class _CliWorkload:
    """Config documents, each run by ``rieszfd simulate`` in process.

    A job's outputs are checked from its files alone: exit code, one CSV
    per expected snapshot time, finite nonnegative values, trapezoid mass
    at most one and non-increasing, and a manifest whose config re-parses
    to its ``config_hash``.  The last snapshot of an alpha = 2 job is also
    checked against the heat kernel and gives ``rel_l2_error``.
    """

    def __init__(self, workdir: Path):
        import rieszfd.cli
        import rieszfd.config
        import rieszfd.simulate

        self.cli, self.config_mod, self.simulate_mod = rieszfd.cli, rieszfd.config, rieszfd.simulate
        self.workdir = workdir
        self.full_jobs, self.single_jobs = [], []

    def add(self, tag: str, doc: dict, steps: int, snapshots: int) -> None:
        """One job of ``steps`` steps and its cut to the first step."""
        self.full_jobs.append(self._job(f"c{tag}", doc, steps, snapshots))
        step = doc["t_end"] / steps
        self.single_jobs.append(self._job(f"s{tag}", dict(doc, t_end=step, snapshots=[step]), 1, 1))

    @property
    def runs_per_rep(self) -> int:
        return len(self.full_jobs)

    def _job(self, tag: str, doc: dict, steps: int, snapshots: int) -> dict:
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps(doc))
        return {"config": path, "out": self.workdir / tag, "steps": steps, "snapshots": snapshots,
                "cells": doc["n_cells"], "alpha": doc["alpha"]}

    def full(self, clock: Clock) -> Outcome:
        return self._execute(clock, self.full_jobs)

    def single_step(self, clock: Clock) -> Outcome:
        return self._execute(clock, self.single_jobs)

    def _execute(self, clock: Clock, jobs: list) -> Outcome:
        out = Outcome(attempted=len(jobs))
        codes = []
        for job in jobs:
            shutil.rmtree(job["out"], ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for job in jobs:
                argv = ["simulate", "--config", str(job["config"]), "--out", str(job["out"])]
                code, seconds = clock.call(self.cli.main, argv)
                codes.append(code)
                out.samples.append(seconds)
        out.wall_s = sum(out.samples)
        digest = hashlib.sha256()
        for job, code in zip(jobs, codes):
            problems = self._check(job, code, digest, out)
            out.problems.extend(f"{job['config'].stem}: {p}" for p in problems)
            out.passed += 0 if problems else 1
        out.fingerprint = digest.hexdigest()[:16]
        return out

    def _check(self, job: dict, code: int, digest, out: Outcome) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        manifest = json.loads((job["out"] / "manifest.json").read_text())
        problems = []
        reparsed = self.config_mod.parse_config(manifest["config"])
        if self.simulate_mod.config_hash(reparsed) != manifest["config_hash"]:
            problems.append("manifest config does not re-parse to its config_hash")
        n_steps, dt = manifest["resolved"]["n_steps"], manifest["resolved"]["dt"]
        if n_steps != job["steps"]:
            return problems + [f"took {n_steps} steps, expected {job['steps']}"]
        out.steps += n_steps
        stride = n_steps // job["snapshots"]
        expected = [0.0] + [dt * stride * k for k in range(1, job["snapshots"] + 1)]
        files = {}
        for path in job["out"].iterdir():
            match = _SNAPSHOT_NAME.match(path.name)
            if match:
                files[float(match.group(1))] = path
        times = sorted(files)
        if len(times) != len(expected) or any(abs(a - b) > 1e-6 for a, b in zip(times, expected)):
            return problems + [f"snapshot files at {times}, expected {len(expected)} at {expected}"]
        masses = []
        for t in times:
            text = files[t].read_text()
            digest.update(text.encode())
            header, _, body = text.partition("\n")
            if header != "x,C":
                return problems + [f"{files[t].name}: header {header!r}"]
            xc = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float).reshape(-1, 2)
            if xc.shape[0] != job["cells"] + 1 or not np.all(np.isfinite(xc)):
                return problems + [f"{files[t].name}: missing or non-finite values"]
            if np.any(xc[:, 1] < 0.0):
                return problems + [f"{files[t].name}: negative values (min {xc[:, 1].min():.3e})"]
            masses.append(float(np.trapezoid(xc[:, 1], xc[:, 0])))
            last = xc
        if masses[0] > 1.0 + MASS_RTOL:
            problems.append(f"initial mass {masses[0]!r} exceeds one")
        if any(b > a * (1.0 + MASS_RTOL) for a, b in zip(masses, masses[1:])):
            problems.append(f"mass increases between snapshots: {masses}")
        if job["alpha"] == 2.0 and n_steps > 1:
            err = rel_l2(last[:, 1], heat_kernel(last[:, 0], dt * n_steps))
            out.rel_l2_error = err
            if not err <= GAUSS_TOL:
                problems.append(f"rel L2 {err:.3e} against the heat kernel exceeds {GAUSS_TOL}")
        return problems



class ExplicitGauss(_CliWorkload):
    """The README's example config: alpha = 2, N = 1000, auto dt to t = 1.

    The paper's headline case, run as a user runs it; its one snapshot is
    checked against the heat kernel like ``rieszfd verify`` does.
    """

    name = "explicit_gauss"

    def __init__(self, rz, seed: int, workdir: Path):
        super().__init__(workdir)
        doc = {
            "alpha": 2.0, "theta": 0.0, "k_alpha": 1.0,
            "domain": list(DOMAIN), "n_cells": GAUSS_CELLS, "sigma": 1.0,
            "dt": "auto", "dt_safety": 0.9, "t_end": GAUSS_T_END,
            "initial": {"kind": "delta"}, "snapshots": [GAUSS_T_END], "output_dir": "out",
        }
        self.add("gauss", doc, GAUSS_STEPS, 1)


class CliSweep(_CliWorkload):
    """Seeded (alpha, theta) pairs at N = 400, SWEEP_STEPS explicit steps each.

    Every config writes SWEEP_SNAPSHOTS snapshots, the initial state and a
    manifest.  The first config is the alpha = 2 anchor of
    ``sweep_parameters``; it gives the workload's ``rel_l2_error``.
    """

    name = "cli_sweep"

    def __init__(self, rz, seed: int, workdir: Path):
        super().__init__(workdir)
        self.pairs = sweep_parameters(seed)
        h = (DOMAIN[1] - DOMAIN[0]) / SWEEP_CELLS
        for i, (alpha, theta) in enumerate(self.pairs):
            base = SWEEP_SAFETY * self._stability_bound(alpha, theta, h)
            # just under SWEEP_STEPS auto steps, so auto dt rounds up to exactly that many
            t_end = (SWEEP_STEPS - 0.5) * base
            times = [t_end * k / SWEEP_SNAPSHOTS for k in range(1, SWEEP_SNAPSHOTS + 1)]
            doc = {
                "alpha": alpha, "theta": theta, "k_alpha": 1.0,
                "domain": list(DOMAIN), "n_cells": SWEEP_CELLS, "sigma": 1.0,
                "dt": "auto", "dt_safety": SWEEP_SAFETY, "t_end": t_end,
                "initial": {"kind": "delta"}, "snapshots": times, "output_dir": "out",
            }
            self.add(f"{i:02d}", doc, SWEEP_STEPS, SWEEP_SNAPSHOTS)

    def _stability_bound(self, alpha: float, theta: float, h: float) -> float:
        sink = io.StringIO()
        argv = ["stability", "--alpha", repr(alpha), "--theta", repr(theta), "--k-alpha", "1.0", "--h", repr(h)]
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rieszfd stability failed for alpha={alpha}, theta={theta}")
        return float(sink.getvalue().split()[-1])


WORKLOADS = {w.name: w for w in (ExplicitGauss, ImplicitSkew, CliSweep)}
