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
  for seeds 0-9;
- ``wide_registers``: ``fs_speed``, the entropies and ``factors`` of the
  benchmark's ``wide_registers`` profiles for seeds 1-3.

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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "bench")]

import numpy as np  # noqa: E402

import qtangle  # noqa: E402
import test_cli  # noqa: E402
import workloads  # noqa: E402
from qtangle.cli import main  # noqa: E402
from qtangle.errors import ConfigError  # noqa: E402

SEEDS = (1, 2, 3)


def _cli(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def _documents(docs) -> list[bytes]:
    """Each document's CSV and JSON runs through the CLI."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for doc in docs:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            outputs += [_cli(["--config", path, "--format", fmt]) for fmt in ("csv", "json")]
    return outputs


def _diagnostics() -> list[bytes]:
    outputs = []
    for param in test_cli.CONFIG_DIAGNOSTICS:
        doc, overrides, _ = param.values
        text = doc if isinstance(doc, str) else json.dumps(doc)
        try:
            qtangle.parse_config(text, overrides)
            outputs.append(b"accepted")
        except ConfigError as exc:
            outputs.append(str(exc).encode())
    return outputs


def _profiles() -> list[bytes]:
    outputs = []
    for seed in SEEDS:
        built = workloads.build("wide_registers", workloads.make_inputs("wide_registers", seed))
        for op in built.operations:
            prof = op.call()
            arrays = [prof.fs_speed]
            for cut in prof.cuts:
                arrays += [prof.tangent_entropy[cut], prof.base_entropy[cut]]
            for rows in prof.factors or ():
                arrays += rows
            outputs += [np.ascontiguousarray(a).tobytes() for a in arrays]
    return outputs


def families() -> dict[str, list[bytes]]:
    scenarios = [
        doc for seed in SEEDS for doc in workloads.make_inputs("cli_scenarios", seed)["configs"].values()
    ]
    return {
        "grid_configs": _documents(test_cli.grid_configs()),
        "cli_scenarios": _documents(scenarios),
        "known_degenerate": _documents(workloads.KNOWN_DEGENERATE.values()),
        "config_diagnostics": _diagnostics(),
        "verify": [_cli(["verify", "--trials", "200", "--seed", str(s)]) for s in range(10)],
        "wide_registers": _profiles(),
    }


def main_digests() -> None:
    total = hashlib.sha256()
    for name, outputs in families().items():
        digest = hashlib.sha256()
        for output in outputs:
            digest.update(hashlib.sha256(output).digest())
        total.update(digest.digest())
        print(f"{name} {len(outputs)} {digest.hexdigest()}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main_digests()
