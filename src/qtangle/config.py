"""Run-configuration parsing for the command-line front end.

A run is described by a single JSON document (schema version field
``"v": 1``).  :func:`parse_config` validates the document, resolves
per-scenario defaults, and returns a fully populated :class:`RunConfig`.
Every diagnostic names the failing field by its path, so a bad config is
actionable without reading this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError
from .statespace import Cut, Ket
from .trajectories import (
    DEFAULT_STEP,
    BlochCurve,
    FactorCurve,
    LocalHamiltonianCurve,
    PhaseCurve,
    ProductTrajectory,
    SampledCurve,
    resolve_method,
)

SCENARIOS = (
    "two_qubit_demo",
    "product_trace",
    "register_trace",
    "pseudo_pure",
    "separable_mixed",
    "chsh_scan",
)

# Scenarios that run on a product trajectory.  register_trace and
# separable_mixed use their canonical built-in objects instead; a
# "subsystems" entry there would be silently dead weight, so it is refused.
_CURVE_SCENARIOS = ("two_qubit_demo", "product_trace", "pseudo_pure", "chsh_scan")

_GRID_DEFAULTS: dict[str, tuple[float, float, int]] = {
    "two_qubit_demo": (0.0, math.pi, 181),
    "product_trace": (0.0, math.pi, 181),
    "pseudo_pure": (0.0, math.pi, 181),
    "chsh_scan": (0.0, math.pi, 181),
    # global step time: two program steps, each on a unit interval
    "register_trace": (0.0, 2.0, 81),
    # the rotating ensemble's reduced-trace norm falls like cos(t); stay on
    # the quarter period where the witness verdict is uniform
    "separable_mixed": (0.0, math.pi / 4.0, 46),
}

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved description of one CLI run."""

    scenario: str
    grid: tuple[float, float, int]
    method: str
    h: float
    cuts: tuple[Cut, ...] | None
    subsystems: tuple[FactorCurve, ...] | None
    frozen: tuple[bool, ...] | None
    out_format: str
    out_path: str | None
    seed: int
    tol: float
    epsilon: float
    echo: dict

    def grid_points(self) -> np.ndarray:
        t0, t1, steps = self.grid
        return np.linspace(t0, t1, steps)

    def trajectory(self) -> ProductTrajectory | None:
        if self.subsystems is None:
            return None
        return ProductTrajectory(self.subsystems, frozen=self.frozen or ())


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _complex_entry(value, path: str) -> complex:
    """Amplitudes are written as plain numbers or [re, im] pairs."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(_expect_number(value[0], path), _expect_number(value[1], path))
    _fail(path, "expected a number or a [re, im] pair")


def _complex_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of amplitudes")
    return np.array([_complex_entry(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _complex_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            _fail(f"{path}[{i}]", f"expected a row of length {len(value)}")
        rows.append([_complex_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _poly_coefficients(value, path: str) -> list[float]:
    """A parameter function is a constant or ascending coefficient list."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, list) and value:
        return [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    _fail(path, "expected a number or a non-empty coefficient array")


def _parse_curve(entry, path: str) -> tuple[FactorCurve, bool]:
    entry = _expect_object(entry, path)
    known = {"dim", "curve", "frozen"}
    for key in entry:
        if key not in known:
            _fail(f"{path}.{key}", "unknown field")
    if "dim" not in entry:
        _fail(f"{path}.dim", "required")
    dim = _expect_int(entry["dim"], f"{path}.dim")
    if dim < 2:
        _fail(f"{path}.dim", f"must be at least 2, got {dim}")
    if "curve" not in entry:
        _fail(f"{path}.curve", "required")
    spec = _expect_object(entry["curve"], f"{path}.curve")
    frozen = entry.get("frozen", False)
    if not isinstance(frozen, bool):
        _fail(f"{path}.frozen", "expected true or false")

    kind = spec.get("kind")
    if kind is None:
        _fail(f"{path}.curve.kind", "required")
    cpath = f"{path}.curve"
    try:
        if kind == "bloch":
            if dim != 2:
                _fail(cpath, "BlochCurve requires dim 2")
            if "theta" not in spec:
                _fail(f"{cpath}.theta", "required")
            theta = _poly_coefficients(spec["theta"], f"{cpath}.theta")
            phi = _poly_coefficients(spec.get("phi", 0.0), f"{cpath}.phi")
            curve: FactorCurve = BlochCurve(theta=theta, phi=phi)
        elif kind == "phase":
            if "base" not in spec:
                _fail(f"{cpath}.base", "required")
            base = _complex_vector(spec["base"], f"{cpath}.base")
            phi = _poly_coefficients(spec.get("phi", 0.0), f"{cpath}.phi")
            curve = PhaseCurve(phi, Ket(base, (len(base),), unit=False).normalized())
        elif kind == "hamiltonian":
            if "generator" not in spec:
                _fail(f"{cpath}.generator", "required")
            if "initial" not in spec:
                _fail(f"{cpath}.initial", "required")
            gen = _complex_matrix(spec["generator"], f"{cpath}.generator")
            initial = _complex_vector(spec["initial"], f"{cpath}.initial")
            curve = LocalHamiltonianCurve(
                gen, Ket(initial, (len(initial),), unit=False).normalized()
            )
        elif kind == "sampled":
            if "times" not in spec:
                _fail(f"{cpath}.times", "required")
            if "states" not in spec:
                _fail(f"{cpath}.states", "required")
            times = spec["times"]
            states = spec["states"]
            if not isinstance(times, list) or not isinstance(states, list):
                _fail(cpath, "times and states must be arrays")
            if len(times) != len(states):
                _fail(cpath, f"{len(times)} times for {len(states)} states")
            grid = [_expect_number(v, f"{cpath}.times[{i}]") for i, v in enumerate(times)]
            kets = [
                Ket(_complex_vector(s, f"{cpath}.states[{i}]"), (dim,))
                for i, s in enumerate(states)
            ]
            curve = SampledCurve(grid, kets)
        else:
            _fail(f"{cpath}.kind", f"unknown curve kind {kind!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(cpath, str(exc))
    if curve.dims != (dim,):
        _fail(cpath, f"curve has dim {curve.dims[0]}, subsystem declares {dim}")
    return curve, frozen


def _parse_cuts(value, path: str) -> tuple[Cut, ...]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of [[left], [right]] partitions")
    cuts = []
    for i, pair in enumerate(value):
        cpath = f"{path}[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(cpath, "expected [[left indices], [right indices]]")
        sides = []
        for j, side in enumerate(pair):
            if not isinstance(side, list) or not side:
                _fail(f"{cpath}[{j}]", "expected a non-empty array of 1-based indices")
            idx = [_expect_int(v, f"{cpath}[{j}][{k}]") for k, v in enumerate(side)]
            if any(v < 1 for v in idx):
                _fail(f"{cpath}[{j}]", "factor indices are 1-based")
            sides.append([v - 1 for v in idx])
        try:
            cut = Cut(sides[0], sides[1])
        except ValueError as exc:
            _fail(cpath, str(exc))
        cuts.append(cut)
    return tuple(cuts)


def _parse_method(value, path: str, curves: tuple[FactorCurve, ...]) -> tuple[str, float]:
    if isinstance(value, str):
        name, h = value, DEFAULT_STEP
    else:
        obj = _expect_object(value, path)
        for key in obj:
            if key not in ("name", "h"):
                _fail(f"{path}.{key}", "unknown field")
        if "name" not in obj:
            _fail(f"{path}.name", "required")
        name = obj["name"]
        if not isinstance(name, str):
            _fail(f"{path}.name", "expected a string")
        h = _expect_number(obj.get("h", DEFAULT_STEP), f"{path}.h")
    try:
        name = resolve_method(curves, name)
    except ValueError as exc:
        _fail(path, str(exc))
    if h <= 0:
        _fail(f"{path}.h", f"step must be positive, got {h}")
    return name, h


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Parse and validate one JSON config document.

    ``overrides`` carries command-line flag values (scenario, format, out,
    seed, tol); flags win over the document.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    doc = _expect_object(doc, "top level")

    if overrides:
        doc = dict(doc)
        outputs = dict(_expect_object(doc.get("outputs", {}), "outputs"))
        if overrides.get("scenario") is not None:
            doc["scenario"] = overrides["scenario"]
        if overrides.get("seed") is not None:
            doc["seed"] = overrides["seed"]
        if overrides.get("tol") is not None:
            doc["tol"] = overrides["tol"]
        if overrides.get("format") is not None:
            outputs["format"] = overrides["format"]
        if overrides.get("out") is not None:
            outputs["path"] = overrides["out"]
        if outputs:
            doc["outputs"] = outputs

    known = {
        "v",
        "scenario",
        "subsystems",
        "grid",
        "cuts",
        "method",
        "outputs",
        "seed",
        "tol",
        "epsilon",
    }
    for key in doc:
        if key not in known:
            _fail(key, "unknown field")

    version = doc.get("v", 1)
    if version != 1:
        _fail("v", f"unsupported config version {version!r}")

    if "scenario" not in doc:
        _fail("scenario", "required")
    scenario = doc["scenario"]
    if not isinstance(scenario, str):
        _fail("scenario", "expected a string")
    if scenario not in SCENARIOS:
        _fail("scenario", f"unknown scenario {scenario!r} (use one of {', '.join(SCENARIOS)})")

    subsystems: tuple[FactorCurve, ...] | None = None
    frozen: tuple[bool, ...] | None = None
    if "subsystems" in doc:
        if scenario not in _CURVE_SCENARIOS:
            _fail("subsystems", f"not supported for scenario {scenario!r}")
        entries = doc["subsystems"]
        if not isinstance(entries, list) or len(entries) < 2:
            _fail("subsystems", "expected an array of at least 2 subsystem entries")
        parsed = [_parse_curve(e, f"subsystems[{i}]") for i, e in enumerate(entries)]
        subsystems = tuple(curve for curve, _ in parsed)
        frozen = tuple(flag for _, flag in parsed)
        if all(frozen):
            _fail("subsystems", "at least one subsystem must be unfrozen")
        if scenario in ("two_qubit_demo", "chsh_scan", "pseudo_pure") and len(parsed) != 2:
            _fail("subsystems", f"scenario {scenario!r} needs exactly 2 subsystems")
        if scenario in ("two_qubit_demo", "chsh_scan") and any(
            c.dims != (2,) for c in subsystems
        ):
            _fail("subsystems", f"scenario {scenario!r} needs two dim-2 subsystems")
    elif scenario == "product_trace":
        _fail("subsystems", "required")

    t0, t1, steps = _GRID_DEFAULTS[scenario]
    if "grid" in doc:
        grid = _expect_object(doc["grid"], "grid")
        for key in grid:
            if key not in ("t0", "t1", "steps"):
                _fail(f"grid.{key}", "unknown field")
        t0 = _expect_number(grid.get("t0", t0), "grid.t0")
        t1 = _expect_number(grid.get("t1", t1), "grid.t1")
        steps = _expect_int(grid.get("steps", steps), "grid.steps")
    if steps < 2:
        _fail("grid.steps", f"must be at least 2, got {steps}")
    if not t0 < t1:
        _fail("grid", f"t0 must be less than t1, got t0={t0!r}, t1={t1!r}")

    n_factors = len(subsystems) if subsystems is not None else None
    if scenario == "register_trace":
        n_factors = 3
    elif subsystems is None and scenario != "separable_mixed":
        n_factors = 2

    cuts = None
    if "cuts" in doc:
        if scenario == "separable_mixed":
            _fail("cuts", "not supported for scenario 'separable_mixed'")
        cuts = _parse_cuts(doc["cuts"], "cuts")
        if n_factors is not None:
            dims = tuple(c.dims[0] for c in subsystems) if subsystems else (2,) * n_factors
            for i, cut in enumerate(cuts):
                try:
                    cut.validate_for(dims)
                except ValueError as exc:
                    _fail(f"cuts[{i}]", str(exc))

    method, h = _parse_method(doc.get("method", "auto"), "method", subsystems or ())

    out_format, out_path = "csv", None
    if "outputs" in doc:
        outputs = _expect_object(doc["outputs"], "outputs")
        for key in outputs:
            if key not in ("format", "path"):
                _fail(f"outputs.{key}", "unknown field")
        out_format = outputs.get("format", "csv")
        if out_format not in _FORMATS:
            _fail("outputs.format", f"expected one of {', '.join(_FORMATS)}, got {out_format!r}")
        out_path = outputs.get("path")
        if out_path is not None and not isinstance(out_path, str):
            _fail("outputs.path", "expected a string or null")

    seed = _expect_int(doc.get("seed", 0), "seed")
    if seed < 0:
        _fail("seed", f"must be non-negative, got {seed}")

    tol = _expect_number(doc.get("tol", 1e-6), "tol")
    if tol <= 0:
        _fail("tol", f"must be positive, got {tol}")

    epsilon = 0.1
    if "epsilon" in doc:
        if scenario != "pseudo_pure":
            _fail("epsilon", "only supported for scenario 'pseudo_pure'")
        epsilon = _expect_number(doc["epsilon"], "epsilon")
        if not 0 < epsilon <= 1:
            _fail("epsilon", f"must lie in (0, 1], got {epsilon}")

    echo = {k: doc[k] for k in sorted(doc)}
    echo.setdefault("v", 1)
    return RunConfig(
        scenario=scenario,
        grid=(t0, t1, steps),
        method=method,
        h=h,
        cuts=cuts,
        subsystems=subsystems,
        frozen=frozen,
        out_format=out_format,
        out_path=out_path,
        seed=seed,
        tol=tol,
        epsilon=epsilon,
        echo=echo,
    )
