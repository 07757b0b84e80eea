"""Digests of the outputs a refactor must keep byte for byte.

Run from the repository root, once on each of two checkouts, and compare the
printed lines:

    PYTHONPATH=src python tests/output_digests.py

It prints one sha256 per output family, then one over all of them:

- ``grid_configs``: CSV and JSON, exit code and stderr of the documents of
  ``test_cli.grid_configs()``;
- ``cli_scenarios``: the same of the benchmark's ``cli_scenarios`` configs
  for seeds 1-3;
- ``known_degenerate``: the same of the benchmark's ``KNOWN_DEGENERATE``
  probes;
- ``config_diagnostics``: the error of each ``test_cli.CONFIG_DIAGNOSTICS``
  document;
- ``verify``: stdout, stderr and exit code of ``qtangle verify --trials 200``
  for seeds 0-9, and of the same runs with ``--format json``, each check's
  ``seconds`` removed: the text lines round each margin to 2-3 digits, the
  JSON keeps it to the last bit;
- ``wide_registers``: ``fs_speed``, the entropies and ``factors`` of the
  benchmark's ``wide_registers`` profiles for seeds 1-3;
- ``register_rows``: ``states``, ``directions``, ``fs_speed``, the
  entropies and ``factors`` of the profiles of 36 seeded register programs
  (``REGISTER_SHAPES``), and ``register_state`` and ``register_tangent`` at
  each grid point, under each of analytic, central_fd and richardson;
- ``rejections``: class, message and ``row`` of the rejection of each
  ``test_trajectories.REJECTION_LAYOUTS`` trajectory under richardson and
  central_fd, of ``test_speed_share.off_norm_sites()`` and of the sampled
  document of ``test_cli.TestMainExitCodes`` swept past its range by
  richardson; then class and message of the error ``run`` raises, and
  class and ``row`` of its cause, of the runs the numerics reject:
  ``test_cli.ZERO_MOTION_DEMO``, ``test_cli.STIFF_PRODUCT`` under each
  method, ``test_cli.LEAKY_PRODUCT``, ``test_cli.STENCIL_MIXED``,
  ``test_cli.COARSE_SAMPLED`` and both ``test_cli.OVERFLOWING_SPEED``
  documents.

Name a family to print one sha256 per document of it instead, each led by
the document's label (its index, diagnostic id, seed or name), so that a
declared move can be named document by document:

    PYTHONPATH=src python tests/output_digests.py grid_configs

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "bench")]

import numpy as np  # noqa: E402

import qtangle  # noqa: E402
import qtangle.trajectories as trajectories  # noqa: E402
from helpers import random_ket  # noqa: E402
import test_cli  # noqa: E402
import test_speed_share  # noqa: E402
import test_trajectories  # noqa: E402
import workloads  # noqa: E402
from qtangle.cli import main, run  # noqa: E402
from qtangle.errors import ConfigError, ToleranceBreachError  # noqa: E402

SEEDS = (1, 2, 3)
REGISTER_SHAPES = [
    (dims, n_steps, entangled, constant)
    for dims in ((2, 3, 2), (3, 2, 2, 2), (2, 2, 2, 2, 2))
    for n_steps in (1, 2, 3)
    for entangled in (False, True)
    for constant in (False, True)
]
"""(site dims, steps, entangled initial state, site 1 constant) of each register program."""


def _captured(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli(argv: list[str]) -> bytes:
    return "{}\n{}\n{}".format(*_captured(argv)).encode()


def _verify(seed: int) -> list[bytes]:
    """The text and the JSON run of ``qtangle verify --trials 200``, the
    JSON without the ``seconds`` of each check, which vary run to run."""
    argv = ["verify", "--trials", "200", "--seed", str(seed)]
    code, out, err = _captured([*argv, "--format", "json"])
    doc = json.loads(out)
    for entry in doc["checks"].values():
        del entry["seconds"]
    return [_cli(argv), f"{code}\n{json.dumps(doc, indent=2)}\n{err}".encode()]


def _documents(docs) -> list[list[bytes]]:
    """Each document's CSV and JSON runs through the CLI."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for doc in docs:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            outputs.append([_cli(["--config", path, "--format", fmt]) for fmt in ("csv", "json")])
    return outputs


def _diagnostic(param) -> list[bytes]:
    doc, overrides, _ = param.values
    text = doc if isinstance(doc, str) else json.dumps(doc)
    try:
        qtangle.parse_config(text, overrides)
        return [b"accepted"]
    except ConfigError as exc:
        return [str(exc).encode()]


def _profiles(seed: int) -> list[tuple[str, list[bytes]]]:
    out = []
    built = workloads.build("wide_registers", workloads.make_inputs("wide_registers", seed))
    for op in built.operations:
        prof = op.call()
        arrays = [prof.fs_speed]
        for cut in prof.cuts:
            arrays += [prof.tangent_entropy[cut], prof.base_entropy[cut]]
        for rows in prof.factors or ():
            arrays += rows
        out.append((f"seed {seed} {op.name}", [np.ascontiguousarray(a).tobytes() for a in arrays]))
    return out


def _register_program(index: int) -> tuple[trajectories.RegisterProgram, np.ndarray]:
    """The seeded program of ``REGISTER_SHAPES[index]`` and a grid meeting
    every step boundary and points between them: random rotations from a
    random product (or entangled) state, site 1 a fixed random unitary."""
    dims, n_steps, entangled, constant = REGISTER_SHAPES[index]
    rng = np.random.default_rng(100 + index)
    initial = random_ket(rng, dims) if entangled else test_speed_share.product_ket(rng, dims)
    steps = []
    for _ in range(n_steps):
        step = [trajectories.UnitaryCurve.rotation(test_speed_share.random_generator(rng, d)) for d in dims]
        if constant:
            step[1] = trajectories.UnitaryCurve.constant(trajectories.propagator(step[1].generator, 1.0))
        steps.append(tuple(step))
    grid = np.union1d(np.arange(n_steps + 1.0), rng.uniform(0, n_steps, 4))
    return trajectories.RegisterProgram(tuple(steps), initial), grid


def _register_rows() -> list[tuple[str, list[bytes]]]:
    out = []
    for index, shape in enumerate(REGISTER_SHAPES):
        prog, grid = _register_program(index)
        cuts = test_speed_share.all_cuts(prog.n_sites)
        for method in ("analytic", "central_fd", "richardson"):
            prof = qtangle.profile(prog, grid, cuts, method)
            arrays = [prof.states, prof.directions, prof.fs_speed]
            for cut in prof.cuts:
                arrays += [prof.tangent_entropy[cut], prof.base_entropy[cut]]
            for rows in prof.factors or ():
                arrays += rows
            for k, t in zip(*prog.resolve_time(grid)):
                tv = qtangle.register_tangent(prog, k, t, method)
                arrays += [tv.base.amplitudes, tv.direction, qtangle.register_state(prog, k, t).amplitudes]
            dims, n_steps, entangled, constant = shape
            kind = ("entangled" if entangled else "product") + (" constant" if constant else "")
            label = f"{index} {'x'.join(map(str, dims))} {n_steps}-step {kind} {method}"
            out.append((label, [np.ascontiguousarray(a).tobytes() for a in arrays]))
    return out


def _scenarios() -> list[tuple[str, list[bytes]]]:
    out = []
    for seed in SEEDS:
        configs = workloads.make_inputs("cli_scenarios", seed)["configs"]
        out += zip((f"seed {seed} {name}" for name in configs), _documents(configs.values()))
    return out


def _rejection(call: Callable[[], object]) -> list[bytes]:
    """Class, message and ``row`` of the rejection a call raises; of a
    tolerance breach, also the class of its cause, and the ``row`` of it."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            call()
        except (ValueError, ToleranceBreachError) as exc:
            text = f"{type(exc).__name__}\n{exc}\n"
            if isinstance(exc, ToleranceBreachError):
                exc = exc.__cause__
                text += f"{type(exc).__name__}\n"
            return [f"{text}{getattr(exc, 'row', None)}".encode()]
    return [b"accepted"]


def _rejections() -> list[tuple[str, list[bytes]]]:
    out = []
    for name, factors in test_trajectories.REJECTION_LAYOUTS.items():
        traj, grid = test_trajectories.rejecting_trajectory(factors), test_trajectories.REJECTION_GRID
        for method in ("richardson", "central_fd"):
            rows = lambda: trajectories._factor_rows(traj, grid, method, 1e-4)
            out.append((f"{name}-{method}", _rejection(rows)))
    out.append(("register-sites", _rejection(lambda: qtangle.profile(*test_speed_share.off_norm_sites()))))
    doc = test_cli.TestMainExitCodes.whole_sampled_range(method="richardson")
    cfg = qtangle.parse_config(json.dumps(doc))
    cuts = [qtangle.Cut.splitting((0,), 2)]
    sweep = lambda: qtangle.profile(cfg.trajectory(), cfg.grid_points(), cuts, "richardson")
    out.append(("sampled-range", _rejection(sweep)))
    runs = {"zero-motion": test_cli.ZERO_MOTION_DEMO, "leaky": test_cli.LEAKY_PRODUCT}
    for method in ("analytic", "central_fd", "richardson"):
        runs[f"stiff-{method}"] = dict(test_cli.STIFF_PRODUCT, method=method)
    runs.update({"stencil-mixed": test_cli.STENCIL_MIXED, "coarse-sampled": test_cli.COARSE_SAMPLED})
    runs.update({f"overflow-{n}": doc for n, doc in test_cli.OVERFLOWING_SPEED.items()})
    for name, doc in runs.items():
        out.append((name, _rejection(lambda: run(qtangle.parse_config(json.dumps(doc))))))
    return out


FAMILIES: dict[str, Callable[[], list[tuple[str, list[bytes]]]]] = {
    "grid_configs": lambda: list(enumerate(_documents(test_cli.grid_configs()))),
    "cli_scenarios": _scenarios,
    "known_degenerate": lambda: list(
        zip(workloads.KNOWN_DEGENERATE, _documents(workloads.KNOWN_DEGENERATE.values()))
    ),
    "config_diagnostics": lambda: [(p.id, _diagnostic(p)) for p in test_cli.CONFIG_DIAGNOSTICS],
    "verify": lambda: [(f"seed {s}", _verify(s)) for s in range(10)],
    "wide_registers": lambda: [doc for seed in SEEDS for doc in _profiles(seed)],
    "register_rows": _register_rows,
    "rejections": _rejections,
}
"""Per family, its documents in order: (label, outputs) each."""


def _digest(outputs: list[bytes]) -> bytes:
    digest = hashlib.sha256()
    for output in outputs:
        digest.update(hashlib.sha256(output).digest())
    return digest.digest()


def main_digests(family: str | None = None) -> None:
    if family is not None:
        for label, outputs in FAMILIES[family]():
            print(f"{label} {_digest(outputs).hex()}")
        return
    total = hashlib.sha256()
    for name, build in FAMILIES.items():
        outputs = [output for _, doc in build() for output in doc]
        digest = _digest(outputs)
        total.update(digest)
        print(f"{name} {len(outputs)} {digest.hex()}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) > 2 or sys.argv[1:] and sys.argv[1] not in FAMILIES:
        sys.exit(f"usage: output_digests.py [{'|'.join(FAMILIES)}]")
    main_digests(*sys.argv[1:])
