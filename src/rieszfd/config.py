"""Config documents (JSON) to simulation configs, and run manifests back.

A ``csv`` initial condition is read here, from an ``x,C`` profile file.

The document is a flat JSON object; unknown keys anywhere are hard errors.
Tagged unions use a ``kind`` discriminator.  A run manifest embeds the
fully resolved document (tabulated data inlined, defaults made explicit),
so re-parsing a manifest's config reproduces the run exactly.

Schema::

    alpha, theta, k_alpha, t_end   numbers
    domain                         [left, right]
    n_cells                        integer >= 2
    sigma                          number in [0, 1], default 1.0
    dt                             "auto" (default) or a positive number
    dt_safety                      (0, 1), default 0.9, only with dt="auto"
    initial                        {"kind": "delta"}
                                   | {"kind": "box", "value": v, "from": a, "to": b}
                                   | {"kind": "csv", "path": p}
                                   | {"kind": "tabulated", "points": [[x, v], ...]}
    bc_left, bc_right              {"kind": "constant", "value": v}      (default 0)
                                   | {"kind": "table", "points": [[t, v], ...]}
    snapshots                      [t, ...], default []
    output_dir                     string, default "out"
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path

from ._version import __version__
from .errors import ConfigInvalid, ParseError, UnknownKey, ValidationError
from .grid import BoundarySpec, InitialCondition, build_grid
from .kernel import validate_params
from .schemes import SchemeConfig
from .simulate import DtPolicy, SimulationConfig, SnapshotSeries

_TOP_KEYS = {
    "alpha",
    "theta",
    "k_alpha",
    "domain",
    "n_cells",
    "sigma",
    "dt",
    "dt_safety",
    "t_end",
    "initial",
    "bc_left",
    "bc_right",
    "snapshots",
    "output_dir",
}
_REQUIRED = {"alpha", "theta", "k_alpha", "domain", "n_cells", "t_end", "initial"}

DEFAULT_OUTPUT_DIR = "out"
DEFAULT_DT_SAFETY = 0.9


def _load(text_or_mapping) -> dict:
    if isinstance(text_or_mapping, dict):
        return dict(text_or_mapping)
    try:
        doc = json.loads(text_or_mapping)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"config must be a JSON object, got {type(doc).__name__}")
    return doc


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{path}: expected a number, got {value!r}")
    return float(value)


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        where = f"{path}." if path else ""
        names = ", ".join(sorted(f"{where}{k}" for k in unknown))
        raise UnknownKey(f"unknown key(s): {names}")


def _build(path: str, make, *args):
    """make(*args), with a ValueError reported as invalid input at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def _pairs(points, path: str, first: str) -> list[tuple[float, float]]:
    if not isinstance(points, list) or not all(isinstance(p, list) and len(p) == 2 for p in points):
        raise ConfigInvalid(f"{path}: expected a list of [{first}, value] pairs")
    return [
        (_number(a, f"{path}[{i}][0]"), _number(v, f"{path}[{i}][1]"))
        for i, (a, v) in enumerate(points)
    ]


def read_profile_csv(path) -> tuple[list[float], list[float]]:
    """Read a profile written by ``cli.write_snapshot_csv`` (or hand-made alike)."""
    xs: list[float] = []
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip().lower() not in ("x,c", "x, c"):
            raise ValidationError(f"{path}: expected header 'x,C', got {header.strip()!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValidationError(f"{path}:{line_no}: expected 'x,C' row, got {line!r}")
            try:
                xs.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as exc:
                raise ValidationError(f"{path}:{line_no}: {exc}") from exc
    return xs, values


def _parse_initial(node, base_dir: Path | None) -> InitialCondition:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigInvalid("initial: expected an object with a 'kind' field")
    kind = node["kind"]
    if kind == "delta":
        _check_keys(node, {"kind"}, "initial")
        return InitialCondition.delta()
    if kind == "box":
        _check_keys(node, {"kind", "value", "from", "to"}, "initial")
        for key in ("value", "from", "to"):
            if key not in node:
                raise ConfigInvalid(f"initial.{key}: required for box initial condition")
        box = [_number(node[key], f"initial.{key}") for key in ("value", "from", "to")]
        return _build("initial", InitialCondition.box, *box)
    if kind == "csv":
        _check_keys(node, {"kind", "path"}, "initial")
        if "path" not in node:
            raise ConfigInvalid("initial.path: required for csv initial condition")
        path = Path(node["path"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        xs, values = read_profile_csv(path)
    elif kind == "tabulated":
        _check_keys(node, {"kind", "points"}, "initial")
        pairs = _pairs(node.get("points"), "initial.points", "x")
        xs, values = [x for x, _ in pairs], [v for _, v in pairs]
    else:
        raise ConfigInvalid(f"initial.kind: unknown kind {kind!r}")
    return _build("initial", InitialCondition.tabulated, xs, values)


def _parse_boundary(node, path: str) -> BoundarySpec:
    if node is None:
        return BoundarySpec.constant(0.0)
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigInvalid(f"{path}: expected an object with a 'kind' field")
    kind = node["kind"]
    if kind == "constant":
        _check_keys(node, {"kind", "value"}, path)
        if "value" not in node:
            raise ConfigInvalid(f"{path}.value: required for constant boundary")
        value = _number(node["value"], f"{path}.value")
        return _build(f"{path}.value", BoundarySpec.constant, value)
    if kind == "table":
        _check_keys(node, {"kind", "points"}, path)
        points = _pairs(node.get("points"), f"{path}.points", "t")
        return _build(f"{path}.points", BoundarySpec.time_table, points)
    raise ConfigInvalid(f"{path}.kind: unknown kind {kind!r}")


def parse_config(text_or_mapping, base_dir: Path | None = None) -> SimulationConfig:
    """Parse and fully validate a config document.

    Raises ParseError for malformed JSON, UnknownKey for keys outside the
    schema, and ConfigInvalid (or a more specific ValidationError) with
    the offending field path otherwise.
    """
    doc = _load(text_or_mapping)
    _check_keys(doc, _TOP_KEYS, "")
    missing = _REQUIRED - set(doc)
    if missing:
        raise ConfigInvalid(f"missing required key(s): {', '.join(sorted(missing))}")

    try:
        params = validate_params(_number(doc["alpha"], "alpha"), _number(doc["theta"], "theta"))
    except ValidationError as exc:
        raise type(exc)(f"alpha/theta: {exc}") from exc

    domain = doc["domain"]
    if not isinstance(domain, list) or len(domain) != 2:
        raise ConfigInvalid(f"domain: expected [left, right], got {domain!r}")
    left, right = (_number(end, f"domain[{i}]") for i, end in enumerate(domain))
    n_cells = doc["n_cells"]
    if isinstance(n_cells, bool) or not isinstance(n_cells, int):
        raise ConfigInvalid(f"n_cells: expected an integer, got {n_cells!r}")
    try:
        grid = build_grid(left, right, n_cells)
    except ValidationError as exc:
        raise type(exc)(f"domain/n_cells: {exc}") from exc

    dt_spec = doc.get("dt", "auto")
    if dt_spec == "auto":
        safety = _number(doc["dt_safety"], "dt_safety") if "dt_safety" in doc else DEFAULT_DT_SAFETY
        policy = DtPolicy.auto(safety)
    else:
        if "dt_safety" in doc:
            raise ConfigInvalid("dt_safety: only applicable when dt is \"auto\"")
        if isinstance(dt_spec, bool) or not isinstance(dt_spec, (int, float)):
            raise ConfigInvalid(f"dt: expected \"auto\" or a number, got {dt_spec!r}")
        policy = DtPolicy.fixed(float(dt_spec))

    sigma = _number(doc["sigma"], "sigma") if "sigma" in doc else 1.0
    try:
        scheme = SchemeConfig(
            params=params,
            k_alpha=_number(doc["k_alpha"], "k_alpha"),
            sigma=sigma,
            bc_left=_parse_boundary(doc.get("bc_left"), "bc_left"),
            bc_right=_parse_boundary(doc.get("bc_right"), "bc_right"),
        )
    except ValidationError:
        raise
    except ValueError as exc:
        raise ConfigInvalid(f"scheme: {exc}") from exc

    snapshots = doc.get("snapshots", [])
    if not isinstance(snapshots, list):
        raise ConfigInvalid(f"snapshots: expected a list of times, got {snapshots!r}")

    initial = _parse_initial(doc["initial"], base_dir)
    try:
        return SimulationConfig(
            grid=grid,
            scheme=scheme,
            initial=initial,
            t_end=_number(doc["t_end"], "t_end"),
            snapshot_times=tuple(_number(t, f"snapshots[{i}]") for i, t in enumerate(snapshots)),
            dt_policy=policy,
        )
    except ValidationError:
        raise
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def output_directory(text_or_mapping) -> str:
    doc = _load(text_or_mapping)
    value = doc.get("output_dir", DEFAULT_OUTPUT_DIR)
    if not isinstance(value, str):
        raise ConfigInvalid(f"output_dir: expected a string, got {value!r}")
    return value


def _initial_document(ic: InitialCondition) -> dict:
    if ic.kind == "delta":
        return {"kind": "delta"}
    if ic.kind == "box":
        return {"kind": "box", "value": ic.box_value, "from": ic.box_from, "to": ic.box_to}
    return {
        "kind": "tabulated",
        "points": [[x, v] for x, v in zip(ic.table_x, ic.table_v)],
    }


def _boundary_document(bc: BoundarySpec) -> dict:
    if bc.kind == "constant":
        return {"kind": "constant", "value": bc.value}
    return {"kind": "table", "points": [[t, v] for t, v in zip(bc.table_t, bc.table_v)]}


def config_to_document(config: SimulationConfig, output_dir: str = DEFAULT_OUTPUT_DIR) -> dict:
    """Resolved, self-contained document reproducing ``config`` on re-parse."""
    doc = {
        "alpha": config.scheme.params.alpha,
        "theta": config.scheme.params.theta,
        "k_alpha": config.scheme.k_alpha,
        "domain": [config.grid.left, config.grid.right],
        "n_cells": config.grid.n_cells,
        "sigma": config.scheme.sigma,
        "t_end": config.t_end,
        "initial": _initial_document(config.initial),
        "bc_left": _boundary_document(config.scheme.bc_left),
        "bc_right": _boundary_document(config.scheme.bc_right),
        "snapshots": list(config.snapshot_times),
        "output_dir": output_dir,
    }
    if config.dt_policy.kind == "auto":
        doc["dt"] = "auto"
        doc["dt_safety"] = config.dt_policy.value
    else:
        doc["dt"] = config.dt_policy.value
    return doc


def build_manifest(
    series: SnapshotSeries, duration_seconds: float, output_dir: str = DEFAULT_OUTPUT_DIR
) -> dict:
    """Everything needed to reproduce and audit one run, as a JSON document."""
    n = series.config.grid.n_cells
    return {
        "tool": {"name": "rieszfd", "version": __version__},
        "config": config_to_document(series.config, output_dir),
        "config_hash": series.config_hash,
        "resolved": {
            "dt": series.dt,
            "n_steps": series.n_steps,
            "weight_window": [-(n - 1), n - 1],
        },
        "duration_seconds": duration_seconds,
        "created_unix": _time.time(),
    }


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")
