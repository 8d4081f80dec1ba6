import ast
import graphlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rieszfd import (
    ConfigInvalid,
    NoSuchSnapshot,
    SingularMatrix,
    ValidationError,
    WeightTable,
    build_grid,
    validate_params,
    weight,
)
import rieszfd
import rieszfd.oracles
import rieszfd.simulate
from rieszfd import cli
from rieszfd.cli import main, write_snapshot_csv
from rieszfd.config import (
    build_manifest,
    config_to_document,
    output_directory,
    parse_config,
    read_profile_csv,
)
from rieszfd.grid import FieldState, InitialCondition, sample_initial
from rieszfd.simulate import run


def fig2_document(**overrides):
    doc = {
        "alpha": 2.0,
        "theta": 0.0,
        "k_alpha": 1.0,
        "domain": [-10.0, 10.0],
        "n_cells": 1000,
        "sigma": 1.0,
        "dt": "auto",
        "dt_safety": 0.9,
        "t_end": 1.0,
        "initial": {"kind": "delta"},
        "bc_left": {"kind": "constant", "value": 0.0},
        "bc_right": {"kind": "constant", "value": 0.0},
        "snapshots": [1.0],
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


def tiny_document(**overrides):
    doc = fig2_document(n_cells=40, t_end=0.01, snapshots=[0.01], domain=[-2.0, 2.0])
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_reference_setup_parses(self):
        cfg = parse_config(json.dumps(fig2_document()))
        assert cfg.grid.n_cells == 1000
        assert cfg.grid.h == pytest.approx(0.02)
        assert cfg.scheme.params.alpha == 2.0
        assert cfg.dt_policy.kind == "auto" and cfg.dt_policy.value == 0.9
        assert cfg.snapshot_times == (1.0,)

    def test_defaults(self):
        doc = fig2_document()
        for key in ("sigma", "dt", "dt_safety", "bc_left", "bc_right", "snapshots", "output_dir"):
            del doc[key]
        cfg = parse_config(doc)
        assert cfg.scheme.sigma == 1.0
        assert cfg.dt_policy.kind == "auto" and cfg.dt_policy.value == 0.9
        assert cfg.scheme.bc_left.kind == "constant" and cfg.scheme.bc_left.value == 0.0
        assert cfg.snapshot_times == ()
        assert output_directory(doc) == "out"

    def test_invalid_json(self):
        with pytest.raises(ValidationError, match="config is not valid JSON"):
            parse_config("{not json")
        with pytest.raises(ValidationError, match="config must be a JSON object, got list"):
            parse_config("[1, 2]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match=r"unknown key\(s\): alpha_typo"):
            parse_config(fig2_document(alpha_typo=1.0))
        with pytest.raises(ValidationError, match=r"unknown key\(s\): initial.width"):
            parse_config(fig2_document(initial={"kind": "delta", "width": 2}))
        with pytest.raises(ValidationError, match=r"unknown key\(s\): bc_left.ramp"):
            parse_config(fig2_document(bc_left={"kind": "constant", "value": 0, "ramp": 1}))

    def test_missing_required(self):
        doc = fig2_document()
        del doc["alpha"]
        with pytest.raises(ConfigInvalid, match="alpha"):
            parse_config(doc)

    def test_parameter_validation_propagates(self):
        with pytest.raises(ConfigInvalid, match="alpha/theta: alpha=1.0 is within 1e-06"):
            parse_config(fig2_document(alpha=1.0))
        with pytest.raises(ConfigInvalid, match=r"alpha/theta: \|theta\|=0.9 exceeds min"):
            parse_config(fig2_document(alpha=1.5, theta=0.9))

    def test_fixed_dt(self):
        doc = fig2_document(dt=1e-4)
        del doc["dt_safety"]
        cfg = parse_config(doc)
        assert cfg.dt_policy.kind == "fixed" and cfg.dt_policy.value == 1e-4

    def test_dt_safety_incompatible_with_fixed_dt(self):
        with pytest.raises(ConfigInvalid, match="dt_safety"):
            parse_config(fig2_document(dt=1e-4))

    def test_box_and_table_forms(self):
        doc = fig2_document(
            initial={"kind": "box", "value": 10.0, "from": 0.4, "to": 0.6},
            domain=[0.0, 1.0],
            bc_left={"kind": "table", "points": [[0.0, 0.0], [1.0, 10.0]]},
        )
        cfg = parse_config(doc)
        assert cfg.initial.kind == "box" and cfg.initial.box_value == 10.0
        assert cfg.scheme.bc_left.kind == "time_table"
        assert cfg.scheme.bc_left.at(0.5) == pytest.approx(5.0)

    def test_csv_initial_resolves_relative_to_base_dir(self, tmp_path):
        grid = build_grid(0.0, 1.0, 4)
        profile = FieldState(grid=grid, values=np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
        write_snapshot_csv(profile, tmp_path / "ic.csv")
        doc = fig2_document(
            domain=[0.0, 1.0], n_cells=4, initial={"kind": "csv", "path": "ic.csv"}
        )
        cfg = parse_config(doc, base_dir=tmp_path)
        state = sample_initial(cfg.initial, grid)
        assert np.array_equal(state.values, profile.values)

    def test_snapshots_outside_horizon(self):
        with pytest.raises(ConfigInvalid):
            parse_config(fig2_document(snapshots=[2.0]))

    @pytest.mark.parametrize("entry", [[0.5], None, "0.5", True])
    def test_snapshot_times_must_be_numbers(self, entry):
        with pytest.raises(ConfigInvalid, match=r"snapshots\[1\]"):
            parse_config(fig2_document(snapshots=[0.25, entry]))

    @pytest.mark.parametrize("overrides, error, prefix", [
        ({"alpha": "two"}, ConfigInvalid, "alpha: expected a number"),
        ({"theta": None}, ConfigInvalid, "theta: expected a number"),
        ({"dt_safety": 1.5}, ConfigInvalid, "dt_safety: auto dt safety"),
        ({"dt": -1.0, "dt_safety": None}, ConfigInvalid, "dt: fixed dt"),
        ({"sigma": 2.0}, ConfigInvalid, "k_alpha/sigma: sigma"),
        ({"k_alpha": -1.0}, ConfigInvalid, "k_alpha/sigma: diffusion coefficient"),
        ({"snapshots": [5.0]}, ConfigInvalid, "t_end/snapshots: snapshot times"),
        ({"t_end": 0.0}, ConfigInvalid, "t_end/snapshots: t_end"),
    ])
    def test_refusals_name_their_field(self, overrides, error, prefix):
        doc = fig2_document(**overrides)
        if doc["dt_safety"] is None:
            del doc["dt_safety"]
        with pytest.raises(ValueError) as caught:
            parse_config(doc)
        assert type(caught.value) is error
        assert str(caught.value).startswith(prefix)

    def test_bad_types(self):
        with pytest.raises(ConfigInvalid):
            parse_config(fig2_document(alpha="two"))
        with pytest.raises(ConfigInvalid):
            parse_config(fig2_document(domain=[0.0]))
        with pytest.raises(ConfigInvalid):
            parse_config(fig2_document(n_cells=10.5))
        with pytest.raises(ConfigInvalid):
            parse_config(fig2_document(dt=True))
        with pytest.raises(ConfigInvalid, match="domain"):
            parse_config(fig2_document(domain=["a", 1.0]))


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("doc_factory", [
        lambda: fig2_document(),
        lambda: fig2_document(dt=1e-3, dt_safety=None),
        lambda: fig2_document(
            domain=[0.0, 1.0],
            initial={"kind": "box", "value": 10.0, "from": 0.4, "to": 0.6},
            bc_left={"kind": "table", "points": [[0.0, 0.0], [1.0, 10.0]]},
            sigma=0.5,
        ),
        lambda: fig2_document(
            initial={"kind": "tabulated", "points": [[-10.0, 0.0], [0.0, 1.0], [10.0, 0.0]]},
        ),
    ])
    def test_round_trip_identity(self, doc_factory):
        doc = doc_factory()
        if doc.get("dt") != "auto":
            doc.pop("dt_safety", None)
        cfg = parse_config(doc)
        emitted = config_to_document(cfg, output_directory(doc))
        assert parse_config(emitted) == cfg
        # JSON round trip preserves all values bit-exactly
        assert parse_config(json.loads(json.dumps(emitted))) == cfg

    def test_manifest_embeds_resolved_config(self):
        cfg = parse_config(tiny_document())
        series = run(cfg)
        doc = build_manifest(series, duration_seconds=0.5, output_dir="out")
        assert parse_config(doc["config"]) == cfg
        assert doc["resolved"]["dt"] == series.dt
        assert doc["resolved"]["n_steps"] == series.n_steps
        assert doc["resolved"]["weight_window"] == [-39, 39]
        assert doc["config_hash"] == series.config_hash


class TestSnapshotCsv:
    def test_exact_bytes_for_zero_field(self, tmp_path):
        grid = build_grid(0.0, 1.0, 2)
        state = FieldState(grid=grid, values=np.zeros(3))
        path = tmp_path / "snap.csv"
        write_snapshot_csv(state, path)
        assert path.read_text() == "x,C\n0,0\n0.5,0\n1,0\n"

    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = build_grid(-3.0, 7.0, 17)
        values = rng.standard_normal(18) * 1e3
        state = FieldState(grid=grid, values=values)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(state, path)
        xs, back = read_profile_csv(path)
        assert np.array_equal(np.array(back), values)
        assert np.array_equal(np.array(xs), grid.nodes())

    def test_rows_match_per_row_format_and_round_trip(self, tmp_path):
        grid = build_grid(-1.0, 1.0, 5)
        values = np.array([0.0, -0.0, 5e-324, 1e308, -1.2345678901234567e-300, 1.0 / 3.0])
        path = tmp_path / "snap.csv"
        write_snapshot_csv(FieldState(grid=grid, values=values), path)
        rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.nodes(), values))
        assert path.read_bytes() == ("x,C\n" + rows).encode()
        xs, back = read_profile_csv(path)
        assert np.array_equal(np.array(xs), grid.nodes())
        assert np.array(back).tobytes() == values.tobytes()  # -0.0 keeps its sign

    def test_delta_row_placement(self, tmp_path):
        grid = build_grid(-10.0, 10.0, 1000)
        state = sample_initial(InitialCondition.delta(), grid)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(state, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,C"
        assert lines[501] == "0,50"  # node 500 carries 1/h
        assert len(lines) == 1002

    def test_header_validated(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(Exception):
            read_profile_csv(bad)


# config entries that are not finite numbers or malformed; each names the
# offending key
NON_FINITE_INPUTS = [
    pytest.param({"domain": [-float("inf"), 1.0]}, "domain", id="domain-inf"),
    pytest.param({"domain": ["a", 1.0]}, "domain", id="domain-text"),
    pytest.param({"t_end": float("inf")}, "t_end", id="t_end-inf"),
    pytest.param({"k_alpha": float("inf")}, "diffusion coefficient", id="k_alpha-inf"),
    pytest.param({"dt": float("inf")}, "dt", id="dt-inf"),
    pytest.param({"snapshots": [float("nan")]}, "snapshot", id="snapshot-nan"),
    pytest.param({"bc_left": {"kind": "constant", "value": float("inf")}}, "bc_left.value",
                 id="bc-constant-inf"),
    pytest.param({"bc_right": {"kind": "table", "points": [[0.0, 0.0], [1.0, float("nan")]]}},
                 "bc_right.points", id="bc-table-nan"),
    pytest.param({"initial": {"kind": "box", "value": float("nan"), "from": -1.0, "to": 1.0}},
                 "initial", id="box-value-nan"),
    pytest.param({"initial": {"kind": "box", "value": "a", "from": -1.0, "to": 1.0}},
                 "initial.value", id="box-value-text"),
    pytest.param({"initial": {"kind": "tabulated", "points": [[-1.0, 0.0], [1.0, float("inf")]]}},
                 "initial", id="tabulated-inf"),
    pytest.param({"initial": {"kind": "tabulated", "points": [[0.0, 1.0]]}}, "initial",
                 id="tabulated-one-point"),
    pytest.param({"initial": {"kind": "tabulated", "points": [[1.0, 0.0], [-1.0, 1.0]]}},
                 "initial", id="tabulated-decreasing"),
]


def unstable_document():
    # sigma = 0.9 at twice the explicit bound of the 40-cell grid
    doc = tiny_document(sigma=0.9, dt=0.01)
    del doc["dt_safety"]
    return doc


# the refusals a config can reach, each with the exact stderr the CLI prints
REFUSED_CONFIGS = [
    pytest.param(json.dumps(tiny_document(alpha=2.5)),
                 "error: alpha/theta: alpha must lie in (0, 2], got 2.5\n",
                 id="alpha-out-of-range"),
    pytest.param(json.dumps(tiny_document(alpha=1.0)),
                 "error: alpha/theta: alpha=1.0 is within 1e-06 of the excluded value 1; "
                 "pass e.g. alpha=1-1e-3 explicitly for near-1 behaviour\n",
                 id="alpha-near-one"),
    pytest.param(json.dumps(tiny_document(alpha=1.5, theta=0.9)),
                 "error: alpha/theta: |theta|=0.9 exceeds min(alpha, 2-alpha)=0.5\n",
                 id="skew-too-large"),
    pytest.param(json.dumps(tiny_document(domain=[2.0, -2.0])),
                 "error: domain/n_cells: need right > left, got [2.0, -2.0]\n",
                 id="degenerate-domain"),
    pytest.param(json.dumps(tiny_document(n_cells=41)),
                 "error: spike initial condition needs an even cell count, got 41\n",
                 id="delta-odd-n"),
    pytest.param(json.dumps(tiny_document(
                     initial={"kind": "box", "value": 1.0, "from": -3.0, "to": 1.0})),
                 "error: box [-3.0, 1.0] not inside [-2.0, 2.0]\n",
                 id="box-out-of-domain"),
    pytest.param(json.dumps(tiny_document(alpha_typo=1.0)),
                 "error: unknown key(s): alpha_typo\n",
                 id="unknown-key"),
    pytest.param("{not json",
                 "error: config is not valid JSON: Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1)\n",
                 id="malformed-json"),
    pytest.param(json.dumps(unstable_document()),
                 "error: dt=0.01 is at or above the stability bound 0.006250000000000001 of "
                 "sigma=0.9, the explicit bound 0.005000000000000001 / (2 sigma - 1); reduce dt\n",
                 id="unstable-dt"),
]


def non_finite_document(override):
    doc = tiny_document(**override)
    if doc["dt"] != "auto":
        del doc["dt_safety"]
    return doc


class TestCli:
    def test_weights_matches_reference_column(self, capsys):
        assert main(["weights", "--alpha", "1.5", "--theta", "0", "--kmax", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "k,w"
        rows = {int(line.split(",")[0]): float(line.split(",")[1]) for line in out[1:]}
        assert set(rows) == set(range(-5, 6))
        for k, ref in {0: -1.498970, 1: 0.574964, 2: 0.125442, 5: 0.005125}.items():
            assert rows[k] == pytest.approx(ref, abs=1e-6)
            assert rows[-k] == pytest.approx(ref, abs=1e-6)
        # the command prints one weight table; its rows equal per-k weight() calls byte for byte
        for alpha, theta in ((1.5, 0.0), (0.7, -0.4), (1.2, 0.8)):
            argv = ["weights", "--alpha", str(alpha), "--theta", str(theta), "--kmax", "30"]
            assert main(argv) == 0
            params = validate_params(alpha, theta)
            expected = ["k,w"] + [f"{k},{weight(k, params):.17g}" for k in range(-30, 31)]
            assert capsys.readouterr().out.splitlines() == expected

    def test_stability_value(self, capsys):
        assert main(["stability", "--alpha", "2", "--theta", "0", "--k-alpha", "1",
                     "--h", "0.1"]) == 0
        # h**2 / (2K); output keeps full precision so compare as a number
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.005, abs=1e-17)

    def test_stability_prints_the_dt_limit_that_simulate_enforces(self, capsys):
        doc = fig2_document(n_cells=200, sigma=0.75, dt=1e-3, snapshots=[])
        del doc["dt_safety"]
        h = parse_config(json.dumps(doc)).grid.h
        argv = ["stability", "--alpha", "2", "--theta", "0", "--k-alpha", "1", "--h", repr(h)]
        assert main(argv) == 0
        explicit = capsys.readouterr().out
        assert main([*argv, "--sigma", "1"]) == 0
        assert capsys.readouterr().out == explicit
        assert main([*argv, "--sigma", "0.75"]) == 0
        limit = float(capsys.readouterr().out)
        assert limit == pytest.approx(2.0 * float(explicit))
        # resolve_dt refuses the printed dt and runs the float below it
        with pytest.raises(ConfigInvalid, match="stability bound .* of sigma=0.75,"):
            rieszfd.simulate.resolve_dt(parse_config(json.dumps({**doc, "dt": limit})))
        below = float(np.nextafter(limit, 0.0))
        resolved = rieszfd.simulate.resolve_dt(parse_config(json.dumps({**doc, "dt": below})))
        assert resolved[0] == below
        assert main([*argv, "--sigma", "0.5"]) == 0
        assert capsys.readouterr().out == "inf\n"
        assert main([*argv, "--sigma", "1.5"]) == 2
        assert "--sigma must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--k-alpha", "nan"), ("--h", "inf"),
                                               ("--k-alpha", "inf")])
    def test_stability_non_finite_exits_2(self, capsys, option, value):
        argv = {"--alpha": "2", "--theta": "0", "--k-alpha": "1", "--h": "0.1", option: value}
        assert main(["stability", *(item for pair in argv.items() for item in pair)]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_validation_errors_exit_2(self, capsys):
        assert main(["weights", "--alpha", "3.0", "--theta", "0", "--kmax", "2"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_weights_over_the_byte_budget_exits_2(self, capsys, monkeypatch):
        # run unpatched, a refused kmax would allocate 4 GiB or more
        tabulated = []

        def no_allocation(params, k_min, k_max):
            tabulated.append(k_max)
            return WeightTable(0, np.zeros(0))

        monkeypatch.setattr(cli, "weight_table", no_allocation)
        argv = ["weights", "--alpha", "1.5", "--theta", "0", "--kmax"]
        assert main([*argv, "100000000"]) == 2
        assert capsys.readouterr().err == (
            "error: --kmax 100000000 takes about 16.4 GiB, over the budget of 4 GiB\n"
        )
        # 88 (2 kmax + 1) bytes: 24403222 is the largest kmax within 2**32
        assert main([*argv, "24403223"]) == 2
        assert "over the budget of 4 GiB" in capsys.readouterr().err
        assert tabulated == []
        assert main([*argv, "24403222"]) == 0
        assert tabulated == [24403222]

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_simulate_writes_snapshots_and_manifest(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document(output_dir=str(tmp_path / "results"))))
        assert main(["simulate", "--config", str(config_path), "--plot-script"]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "snapshot_0.000000.csv").exists()
        assert (out_dir / "snapshot_0.010000.csv").exists()
        assert (out_dir / "plot_snapshots.gp").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool"]["name"] == "rieszfd"
        assert manifest["resolved"]["n_steps"] >= 1
        reparsed = parse_config(manifest["config"])
        assert reparsed == parse_config(config_path.read_text())

    def test_simulate_names_close_snapshots_apart(self, tmp_path, capsys):
        # 1e-6 and 1.4e-6 share six decimals; every snapshot keeps its own file
        doc = tiny_document(n_cells=200, t_end=4e-6, snapshots=[1e-6, 1.4e-6, 2e-6, 3e-6, 4e-6])
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert "wrote 6 snapshot(s)" in capsys.readouterr().out
        files = sorted(out_dir.glob("snapshot_*.csv"), key=lambda p: float(p.stem[9:]))
        series = run(parse_config(json.dumps(doc)))
        assert len(files) == len(series.snapshots) == 6
        for path, state in zip(files, series.snapshots):
            assert float(path.stem[9:]) == pytest.approx(state.time, abs=1e-12)
            assert np.array_equal(read_profile_csv(path)[1], state.values)

    def test_simulate_out_flag_overrides_config(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document(output_dir="ignored")))
        target = tmp_path / "explicit"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 0
        assert (target / "manifest.json").exists()

    @pytest.mark.parametrize("text, err", REFUSED_CONFIGS)
    def test_simulate_invalid_config_exits_2(self, tmp_path, capsys, text, err):
        config_path = tmp_path / "run.json"
        config_path.write_text(text)
        target = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 2
        assert capsys.readouterr().err == err
        assert not target.exists()

    def test_simulate_runaway_step_count_exits_2(self, tmp_path, capsys):
        doc = tiny_document(dt=1e-12, t_end=1.0, snapshots=[1.0])
        del doc["dt_safety"]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_cells, n_times", [(10**9, 0), (10**5, 10**4)])
    def test_simulate_over_the_byte_budget_exits_2(
        self, tmp_path, capsys, monkeypatch, n_cells, n_times
    ):
        # run unpatched, either config would allocate about 8 GB
        def no_allocation(*args):
            raise AssertionError("arrays allocated for a refused run")

        monkeypatch.setattr(rieszfd.simulate, "sample_initial", no_allocation)
        monkeypatch.setattr(rieszfd.schemes, "weight_table", no_allocation)
        times = [0.01 * (i + 1) / n_times for i in range(n_times)]
        doc = tiny_document(n_cells=n_cells, sigma=0.0, dt=1e-3, snapshots=times)
        del doc["dt_safety"]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        target = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 2
        assert "GiB, over the budget" in capsys.readouterr().err
        assert not target.exists()

    def test_simulate_unstable_dt_below_sigma_one_exits_2(self, tmp_path, capsys):
        # sigma = 0.9 at 12 times the explicit bound: the state grows without limit
        doc = fig2_document(n_cells=200, sigma=0.9, dt=0.06, t_end=24.0, snapshots=[24.0])
        del doc["dt_safety"]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        target = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 2
        assert "stability bound" in capsys.readouterr().err
        assert not target.exists()

    def test_simulate_refuses_a_non_finite_state(self, tmp_path, capsys, monkeypatch):
        # a dt past the bound that resolve_dt would refuse: the state overflows
        monkeypatch.setattr(rieszfd.simulate, "resolve_dt", lambda config: (0.01, 2000))
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(fig2_document(n_cells=200, t_end=20.0, snapshots=[])))
        target = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 1
        assert "FloatingPointError" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("override, key", NON_FINITE_INPUTS)
    def test_simulate_non_finite_inputs_exit_2(self, tmp_path, capsys, override, key):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(non_finite_document(override)))
        target = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 2
        assert key in capsys.readouterr().err
        assert not (target / "manifest.json").exists()

    @pytest.mark.parametrize("entry", [[0.005], None, "0.005", True])
    def test_simulate_snapshot_time_not_a_number_exits_2(self, tmp_path, capsys, entry):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document(snapshots=[entry])))
        target = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(target)]) == 2
        assert "snapshots[0]" in capsys.readouterr().err
        assert not target.exists()

    def test_successive_calls_share_no_state(self, tmp_path, monkeypatch):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document()))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["simulate", "--config", str(config_path), "--out", str(first),
                     "--plot-script"]) == 0
        assert main(["simulate", "--config", str(config_path), "--out", str(second)]) == 0
        assert (first / "plot_snapshots.gp").exists()
        assert (second / "manifest.json").exists() and not (second / "plot_snapshots.gp").exists()
        requested = []
        monkeypatch.setattr(cli, "run_suites", lambda names: requested.append(names) or [])
        for _ in range(2):
            assert main(["verify", "--suite", "table1"]) == 0
        assert requested == [["table1"], ["table1"]]

    @pytest.mark.parametrize("row, key", [("0.5,a", "ic.csv:3"), ("0.5,nan", "initial")])
    def test_simulate_invalid_csv_initial_exits_2(self, tmp_path, capsys, row, key):
        (tmp_path / "ic.csv").write_text(f"x,C\n-1,0\n{row}\n1,0\n")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document(initial={"kind": "csv", "path": "ic.csv"})))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_verify_table_suite(self, capsys):
        assert main(["verify", "--suite", "table1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_converge_emits_csv(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document(alpha=2.0, n_cells=50, t_end=0.05)))
        assert main(["converge", "--config", str(config_path), "--levels", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "h,dt,error"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        second = [float(v) for v in lines[2].split(",")]
        assert second[0] == pytest.approx(first[0] / 2.0)

    @pytest.mark.parametrize("extra, key", [
        (["--levels", "-1"], "refinements"),
        (["--levels", "1", "--window", "5", "-5"], "x_window"),
        (["--levels", "1", "--window", "nan", "3"], "x_window"),
        (["--levels", "0", "--window", "0.17", "0.23"], "x_window"),  # between two nodes
        (["--levels", "0", "--window", "100", "200"], "x_window"),  # outside the domain
    ])
    def test_converge_invalid_request_exits_2(self, tmp_path, capsys, monkeypatch, extra, key):
        def refuse(config):
            raise AssertionError("the request is refused before any run")

        monkeypatch.setattr(rieszfd.oracles, "run", refuse)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(tiny_document(alpha=2.0, n_cells=50, t_end=0.05)))
        assert main(["converge", "--config", str(config_path), *extra]) == 2
        assert key in capsys.readouterr().err


    def test_converge_over_budget_level_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_plan(*args):
            raise AssertionError("a level ran before the study was refused")

        monkeypatch.setattr(rieszfd.simulate, "step_plan", no_plan)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(fig2_document()))
        assert main(["converge", "--config", str(config_path), "--levels", "8"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_converge_window_where_the_oracle_is_zero_exits_2(self, tmp_path, capsys):
        # the heat kernel at t = 0.05 is exp(-405) on [9, 10]: zero in floats
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(fig2_document(n_cells=50, t_end=0.05, snapshots=[0.05])))
        assert main(["converge", "--config", str(config_path), "--levels", "0",
                     "--window", "9", "10"]) == 2
        err = capsys.readouterr().err
        assert "x_window (9.0, 10.0)" in err and "t = 0.05" in err


def _package_imports(path: Path) -> set[str]:
    """The modules of the package that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("rieszfd"):
            found.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("rieszfd."))
    return found


def test_package_has_no_import_cycle():
    package = Path(rieszfd.__file__).resolve().parent
    graph = {path.stem: _package_imports(path) for path in package.glob("*.py")}
    assert {"config", "schemes", "simulate"} <= graph["cli"]
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(graph)


def test_public_surface():
    assert sorted(rieszfd.__all__) == sorted([
        "__version__", "AnalyticKernel", "BoundarySpec", "ConfigInvalid", "DtPolicy",
        "FieldState", "FractionalParams", "Grid1D", "InitialCondition", "NoSuchSnapshot",
        "SchemeConfig", "SimulationConfig", "SingularMatrix", "SnapshotSeries", "TailSums",
        "ValidationError", "WeightTable", "build_grid", "config_hash", "convergence_study",
        "implicit_step", "mass", "max_stable_dt", "run", "snapshot_error", "validate_params",
        "weight", "weight_table",
    ])
    bases = {ValidationError: (ValueError,), ConfigInvalid: (ValidationError,),
             SingularMatrix: (ArithmeticError,), NoSuchSnapshot: (LookupError,)}
    assert {cls: cls.__bases__ for cls in bases} == bases
    # the four are the only exception types any module of the package defines
    defined = set()
    for info in pkgutil.iter_modules(rieszfd.__path__, "rieszfd."):
        module = importlib.import_module(info.name)
        defined |= {value for value in vars(module).values() if isinstance(value, type)
                    and issubclass(value, BaseException) and value.__module__ == info.name}
    assert defined == set(bases)


def test_config_does_not_load_the_cli(tmp_path):
    # the cli imports config, never the other way round, not even when a
    # csv initial condition is read: no module cycle
    (tmp_path / "ic.csv").write_text("x,C\n-1,0\n0,1\n1,0\n")
    doc = json.dumps(tiny_document(initial={"kind": "csv", "path": "ic.csv"}))
    code = (
        "import pathlib, sys, rieszfd.config\n"
        f"rieszfd.config.parse_config({doc!r}, base_dir=pathlib.Path({str(tmp_path)!r}))\n"
        "print(sorted(name for name in sys.modules if name.startswith('rieszfd.')))\n"
    )
    src = str(Path(rieszfd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert "rieszfd.config" in done.stdout and "rieszfd.cli" not in done.stdout
