"""Run-configuration parsing for the command-line front end.

A run is described by a single JSON document (schema version field
``"v": 1``).  :func:`parse_config` validates the document, resolves
per-scenario defaults, and returns a fully populated :class:`RunConfig`.
A scenario's defaults are one row of ``_SCENARIO_TABLE``: its grid, its
default cuts and the canonical object it runs without subsystems.
Every diagnostic names the failing field by its path, so a bad config is
actionable without reading this file.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import _increments
from .statespace import Cut, Ket
from .trajectories import (
    DEFAULT_STEP,
    BlochCurve,
    Ensemble,
    FactorCurve,
    LocalHamiltonianCurve,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    SampledCurve,
    UnitaryCurve,
    resolve_method,
)


# ---------------------------------------------------------------------------
# canonical built-in objects


def demo_trajectory() -> ProductTrajectory:
    """Two identical real qubit arcs, polar angle theta(t) = t."""
    return ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))


def canonical_register_program() -> RegisterProgram:
    """Three-qubit two-step program with the third site held constant."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    step1 = (
        UnitaryCurve.rotation(sy / 2),
        UnitaryCurve.rotation(sy / 2),
        UnitaryCurve.constant(np.eye(2)),
    )
    step2 = (
        UnitaryCurve.rotation(sx / 2),
        UnitaryCurve.rotation(sy / 2),
        UnitaryCurve.constant(np.diag([1.0, 1j])),
    )
    return RegisterProgram.uniform_superposition((step1, step2), 3)


def rotating_ensemble() -> Ensemble:
    """Equal mixture of |0>|+> and |1>|-> with factor 1 rotating.

    The two first-factor arcs run at opposite rates so their projector
    derivatives add instead of cancelling; factor 2 is frozen.
    """
    plus = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,))
    minus = Ket(np.array([1.0, -1.0]) / math.sqrt(2), (2,))
    comp1 = ProductTrajectory(
        (BlochCurve([0.0, 1.0]), PhaseCurve(0.0, plus)), frozen=(False, True)
    )
    comp2 = ProductTrajectory(
        (BlochCurve([math.pi, -1.0]), PhaseCurve(0.0, minus)), frozen=(False, True)
    )
    return Ensemble((0.5, 0.5), (comp1, comp2))


@cache
def _canonical(build: Callable[[], object]):
    """``build()``, built on first use and shared by every run after it: the
    canonical inputs are immutable, and the runs reuse the stacks and rows
    they cache.  The public functions still return a fresh object each call."""
    return build()


class _Scenario(NamedTuple):
    """What one scenario accepts besides the fields every scenario takes,
    and what it runs without them.

    ``canonical`` builds the scenario's input when no subsystems are given
    (None where they are required), and ``cuts`` holds the left sides of its
    default cuts.  ``subsystems`` is "required", "optional" (the scenario
    falls back to its canonical trajectory) or "refused" (it runs its
    canonical object, where a trajectory would be dead weight).  A ``pair``
    scenario takes exactly two subsystems and one cut; ``dim``, when set,
    fixes the dim of each subsystem.  ``factors`` is the factor count that
    cuts are checked against without subsystems; None refuses cuts.
    """

    grid: tuple[float, float, int]
    canonical: Callable[[], object] | None
    cuts: tuple[tuple[int, ...], ...] = ((0,),)
    subsystems: str = "optional"
    pair: bool = False
    dim: int | None = None
    factors: int | None = 2
    epsilon: bool = False


_HALF_TURN = (0.0, math.pi, 181)
_SCENARIO_TABLE = {
    "two_qubit_demo": _Scenario(_HALF_TURN, demo_trajectory, pair=True, dim=2),
    "product_trace": _Scenario(_HALF_TURN, None, subsystems="required"),
    # global step time: two program steps, each on a unit interval
    "register_trace": _Scenario(
        (0.0, 2.0, 81), canonical_register_program, ((0,), (0, 1)), subsystems="refused", factors=3
    ),
    "pseudo_pure": _Scenario(_HALF_TURN, demo_trajectory, pair=True, epsilon=True),
    # the rotating ensemble's reduced-trace norm falls like cos(t); stay on
    # the quarter period where the witness verdict is uniform
    "separable_mixed": _Scenario(
        (0.0, math.pi / 4.0, 46), rotating_ensemble, (), subsystems="refused", factors=None
    ),
    "chsh_scan": _Scenario(_HALF_TURN, demo_trajectory, pair=True, dim=2),
}
SCENARIOS = tuple(_SCENARIO_TABLE)

# curve kind: (required fields, optional fields) besides "kind"
_CURVE_FIELDS = {
    "bloch": (("theta",), ("phi",)),
    "phase": (("base",), ("phi",)),
    "hamiltonian": (("generator", "initial"), ()),
    "sampled": (("times", "states"), ()),
}

_TOP_FIELDS = (
    "v", "scenario", "subsystems", "grid", "cuts", "method", "outputs", "seed", "tol", "epsilon"
)

_FORMATS = ("csv", "json")

# most grid points a run takes, far above the 181-point defaults; every
# scenario holds a few (steps, D) or (steps, D, D) arrays at once
MAX_GRID_STEPS = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved description of one CLI run."""

    scenario: str
    grid: tuple[float, float, int]
    method: str
    h: float
    cuts: tuple[Cut, ...]
    subsystems: tuple[FactorCurve, ...] | None
    frozen: tuple[bool, ...] | None
    out_format: str
    out_path: str | None
    seed: int
    tol: float
    epsilon: float
    echo: dict
    # the grid's points, built and checked once by ``parse_config``; read-only
    _points: np.ndarray = field(repr=False, compare=False)

    def grid_points(self) -> np.ndarray:
        return self._points

    def trajectory(self) -> ProductTrajectory | RegisterProgram | Ensemble:
        """The scenario's input: the configured product, otherwise its
        canonical object (the ensemble for ``separable_mixed``)."""
        return self._trajectory

    @cached_property
    def _trajectory(self) -> ProductTrajectory | RegisterProgram | Ensemble:
        """Built on first use and kept: the config is immutable, and every run
        of it reuses the factor stacks the trajectory caches."""
        if self.subsystems is None:
            return _canonical(_SCENARIO_TABLE[self.scenario].canonical)
        return ProductTrajectory(self.subsystems, frozen=self.frozen)


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _fields(value, path: str, known, required=()) -> dict:
    """``value`` as an object with no field outside ``known`` and every field
    in ``required``; ``path`` is empty at the top level."""
    obj = _expect_object(value, path or "top level")
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in known:
            _fail(prefix + key, "unknown field")
    for key in required:
        if key not in obj:
            _fail(prefix + key, "required")
    return obj


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    # NaN fails the comparison too, and an int past the float range is
    # refused here instead of overflowing in float()
    if not abs(value) <= sys.float_info.max:
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _complex_entry(value, path: str) -> complex:
    """Amplitudes are written as plain numbers or [re, im] pairs."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_expect_number(value, path))
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
        return [_expect_number(value, path)]
    if isinstance(value, list) and value:
        return [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    _fail(path, "expected a number or a non-empty coefficient array")


def _parse_curve(entry, path: str) -> tuple[FactorCurve, bool]:
    entry = _fields(entry, path, ("dim", "curve", "frozen"), ("dim", "curve"))
    dim = _expect_int(entry["dim"], f"{path}.dim")
    if dim < 2:
        _fail(f"{path}.dim", f"must be at least 2, got {dim}")
    cpath = f"{path}.curve"
    spec = _expect_object(entry["curve"], cpath)
    frozen = entry.get("frozen", False)
    if not isinstance(frozen, bool):
        _fail(f"{path}.frozen", "expected true or false")

    kind = spec.get("kind")
    if kind is not None and kind not in tuple(_CURVE_FIELDS):
        _fail(f"{cpath}.kind", f"unknown curve kind {kind!r}")
    # without a kind no field can be told unknown; only the kind is missing
    required, optional = _CURVE_FIELDS.get(kind, ((), tuple(spec)))
    _fields(spec, cpath, ("kind", *required, *optional), ("kind", *required))
    try:
        if kind == "bloch":
            if dim != 2:
                _fail(cpath, "BlochCurve requires dim 2")
            theta = _poly_coefficients(spec["theta"], f"{cpath}.theta")
            phi = _poly_coefficients(spec.get("phi", 0.0), f"{cpath}.phi")
            curve: FactorCurve = BlochCurve(theta=theta, phi=phi)
        elif kind == "phase":
            base = _complex_vector(spec["base"], f"{cpath}.base")
            phi = _poly_coefficients(spec.get("phi", 0.0), f"{cpath}.phi")
            curve = PhaseCurve(phi, Ket(base, (len(base),), unit=False).normalized())
        elif kind == "hamiltonian":
            gen = _complex_matrix(spec["generator"], f"{cpath}.generator")
            initial = _complex_vector(spec["initial"], f"{cpath}.initial")
            curve = LocalHamiltonianCurve(
                gen, Ket(initial, (len(initial),), unit=False).normalized()
            )
        else:  # sampled
            times, states = spec["times"], spec["states"]
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
        obj = _fields(value, path, ("name", "h"), ("name",))
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


def _json_int(text: str) -> Callable[[str], int]:
    """``parse_int`` for ``json.loads(text)``: a literal with more digits than
    int() converts is refused at its line and column."""

    def parse(literal: str) -> int:
        try:
            return int(literal)
        except ValueError:
            pos = text.find(literal)
            line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
            digits = len(literal.lstrip("-"))
            message = f"integer of {digits} digits is too long"
            raise ConfigError(f"parse error at line {line}, column {column}: {message}") from None

    return parse


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Parse and validate one JSON config document.

    ``overrides`` carries command-line flag values (scenario, format, out,
    seed, tol); flags win over the document.
    """
    try:
        doc = json.loads(text, parse_int=_json_int(text))
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

    _fields(doc, "", _TOP_FIELDS, ("scenario",))
    version = doc.get("v", 1)
    if version != 1:
        _fail("v", f"unsupported config version {version!r}")
    scenario = doc["scenario"]
    if not isinstance(scenario, str):
        _fail("scenario", "expected a string")
    if scenario not in SCENARIOS:
        _fail("scenario", f"unknown scenario {scenario!r} (use one of {', '.join(SCENARIOS)})")

    row = _SCENARIO_TABLE[scenario]
    for field, refused in (
        ("subsystems", row.subsystems == "refused"),
        ("cuts", row.factors is None),
    ):
        if refused and field in doc:
            _fail(field, f"not supported for scenario {scenario!r}")
    if row.subsystems == "required":
        _fields(doc, "", _TOP_FIELDS, ("subsystems",))

    subsystems: tuple[FactorCurve, ...] | None = None
    frozen: tuple[bool, ...] | None = None
    if "subsystems" in doc:
        entries = doc["subsystems"]
        if not isinstance(entries, list) or len(entries) < 2:
            _fail("subsystems", "expected an array of at least 2 subsystem entries")
        parsed = [_parse_curve(e, f"subsystems[{i}]") for i, e in enumerate(entries)]
        subsystems = tuple(curve for curve, _ in parsed)
        frozen = tuple(flag for _, flag in parsed)
        if all(frozen):
            _fail("subsystems", "at least one subsystem must be unfrozen")
        if row.pair and len(parsed) != 2:
            _fail("subsystems", f"scenario {scenario!r} needs exactly 2 subsystems")
        if row.dim is not None and any(c.dims != (row.dim,) for c in subsystems):
            _fail("subsystems", f"scenario {scenario!r} needs two dim-{row.dim} subsystems")

    t0, t1, steps = row.grid
    if "grid" in doc:
        grid = _fields(doc["grid"], "grid", ("t0", "t1", "steps"))
        t0 = _expect_number(grid.get("t0", t0), "grid.t0")
        t1 = _expect_number(grid.get("t1", t1), "grid.t1")
        steps = _expect_int(grid.get("steps", steps), "grid.steps")
    if steps < 2:
        _fail("grid.steps", f"must be at least 2, got {steps}")
    if steps > MAX_GRID_STEPS:
        _fail("grid.steps", f"must be at most {MAX_GRID_STEPS}, got {steps}")
    if not t0 < t1:
        _fail("grid", f"t0 must be less than t1, got t0={t0!r}, t1={t1!r}")
    # a span that overflows, or steps finer than the floats between t0 and t1,
    # gives points that are not finite or not increasing
    with np.errstate(all="ignore"):
        points = np.linspace(t0, t1, steps)
        increasing = np.isfinite(points).all() and (_increments(points) > 0).all()
    if not increasing:
        _fail("grid", f"the {steps} points from t0={t0!r} to t1={t1!r} are not finite and strictly increasing")
    points.setflags(write=False)

    n = len(subsystems) if subsystems else row.factors
    cuts = tuple(Cut.splitting(left, n) for left in row.cuts)
    if "cuts" in doc:
        cuts = _parse_cuts(doc["cuts"], "cuts")
        if row.pair and len(cuts) > 1:
            _fail("cuts", f"scenario {scenario!r} takes one cut, got {len(cuts)}")
        for i, cut in enumerate(cuts):
            try:
                cut.validate_for(range(n))
            except ValueError as exc:
                _fail(f"cuts[{i}]", str(exc))
            if cut in cuts[:i]:  # its columns would repeat an earlier cut's
                _fail(f"cuts[{i}]", f"cut {cut.label()} repeats cuts[{cuts.index(cut)}]")

    method, h = _parse_method(doc.get("method", "auto"), "method", subsystems or ())

    out_format, out_path = "csv", None
    if "outputs" in doc:
        outputs = _fields(doc["outputs"], "outputs", ("format", "path"))
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
        if not row.epsilon:
            takers = ", ".join(repr(name) for name, r in _SCENARIO_TABLE.items() if r.epsilon)
            _fail("epsilon", f"only supported for scenario {takers}")
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
        _points=points,
    )
