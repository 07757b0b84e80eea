"""Spans around qtangle's public functions, installed only in the traced run.

Every layer is timed from outside: ``install`` replaces each public function
named in ``SPAN_TARGETS`` with a wrapper that records a span, both in its
defining module and wherever another qtangle module imported it by name (for
example ``geometry.product_tangent`` and ``cli.product_tangent``).  The
validating constructors of ``Ket`` and ``HermitianOp`` are wrapped the same
way, and factor-curve evaluations are counted without spans.  Spans stay in
memory and are written once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SPAN_TARGETS = {
    "statespace": ("tensor_product", "partial_trace", "inner", "apply_local_unitaries"),
    "trajectories": (
        "differentiate",
        "factor_tangents",
        "product_tangent",
        "horizontal_tangent",
        "register_state",
        "register_tangent",
        "projector_differential",
        "pseudo_pure_differential",
        "separable_mixed_differential",
        "propagator",
        "infinitesimal_composition",
        "with_global_phase",
        "curve_through",
        "random_unit_ket",
        "random_hermitian",
        "random_admissible_direction",
        "random_factor_curve",
        "random_product_trajectory",
    ),
    "entanglement": (
        "schmidt",
        "entanglement_entropy",
        "bell_decompose",
        "correlation",
        "correlation_matrix",
        "chsh_value",
        "correlation_expansion",
        "ppt_negativity",
    ),
    "geometry": ("fs_distance", "fs_speed", "profile"),
    "channels": ("reduced_tangent_channel", "bilocal_inner_check"),
    "mixed_witness": (
        "differential_trace_witness",
        "product_differential",
        "operator_form_gap",
        "ensemble_witness",
        "base_state_separability",
    ),
    "config": ("parse_config",),
    "cli": ("run", "render_csv", "render_json", "emit", "verify"),
}
SPAN_METHODS = {"statespace": {"Ket": "__post_init__", "HermitianOp": "__post_init__"}}
CURVE_EVAL = "trajectories.curve_eval"

# span names behind each per-layer metric
_KET = "statespace.Ket.__post_init__"
_HERMOP = "statespace.HermitianOp.__post_init__"
CALL_METRICS = {
    "statespace.ket_new.calls": (_KET,),
    "statespace.hermop_new.calls": (_HERMOP,),
    "statespace.partial_trace.calls": ("statespace.partial_trace",),
    "trajectories.product_tangent.calls": ("trajectories.product_tangent",),
    "trajectories.factor_tangents.calls": ("trajectories.factor_tangents",),
    "trajectories.register_tangent.calls": ("trajectories.register_tangent",),
    "entanglement.schmidt.calls": ("entanglement.schmidt",),
    "channels.reduced_tangent_channel.calls": ("channels.reduced_tangent_channel",),
}
SELF_METRICS = {
    "statespace.validate.self_s": (_KET, _HERMOP),
    **{
        f"{name}.self_s": (name,)
        for name in (
            "statespace.partial_trace",
            "statespace.tensor_product",
            "trajectories.product_tangent",
            "trajectories.factor_tangents",
            "trajectories.register_tangent",
            "entanglement.schmidt",
            "entanglement.chsh_value",
            "entanglement.bell_decompose",
            "entanglement.ppt_negativity",
            "geometry.profile",
            "geometry.fs_speed",
            "channels.reduced_tangent_channel",
            "channels.bilocal_inner_check",
            "mixed_witness.ensemble_witness",
            "mixed_witness.differential_trace_witness",
            "mixed_witness.base_state_separability",
            "config.parse_config",
            "cli.run",
            "cli.render_csv",
            "cli.verify",
        )
    },
}
TANGENT_ASSEMBLIES = ("trajectories.product_tangent", "trajectories.register_tangent")


class Tracer:
    """Spans of one process: ``[name, start, end, parent index, run id]``.

    A run id names one operation call; ``runs[run_id]`` says which pass and
    operation it was.  Counts are kept per ``(run id, name)``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.runs: list[dict] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.stack: list[int] = []
        self.run_id = -1

    def begin_run(self, pass_id, op: str) -> None:
        self.run_id = len(self.runs)
        self.runs.append({"pass": pass_id, "op": op})

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()

        wrapper.__bench_traced__ = True
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.run_id, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_traced__ = True
        return wrapper

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "columns": ["name", "start", "end", "parent", "run"],
            "names": names,
            "runs": self.runs,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": [[run, name, n] for (run, name), n in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _qtangle_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "qtangle" or n.startswith("qtangle.")]


def install(tracer: Tracer) -> None:
    """Replace qtangle's public functions, validators and curve evaluations."""
    wrappers = {}
    for mod_name, names in SPAN_TARGETS.items():
        module = sys.modules[f"qtangle.{mod_name}"]
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.span(f"{mod_name}.{name}", fn))
    for module in _qtangle_modules():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for mod_name, methods in SPAN_METHODS.items():
        module = sys.modules[f"qtangle.{mod_name}"]
        for cls_name, method in methods.items():
            cls = getattr(module, cls_name)
            name = f"{mod_name}.{cls_name}.{method}"
            setattr(cls, method, tracer.span(name, vars(cls)[method]))
    trajectories = sys.modules["qtangle.trajectories"]
    curve_classes = [trajectories.UnitaryCurve]
    pending = [trajectories.FactorCurve]
    while pending:
        cls = pending.pop()
        curve_classes.append(cls)
        pending.extend(cls.__subclasses__())
    for cls in curve_classes:
        for method in ("state", "velocity", "value", "derivative"):
            fn = vars(cls).get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, method, tracer.counter(CURVE_EVAL, fn))


def installed_wrappers() -> list[str]:
    """Qualified names of every tracing wrapper reachable from qtangle's modules."""
    found = []
    for module in _qtangle_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, "__bench_traced__", False):
                        found.append(f"{module.__name__}.{attr}.{meth}")
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, rows_per_op: dict[str, int]) -> dict:
    """Per-layer metrics of the measured passes, with per-operation ratios.

    Counts and self times are summed over one pass and reported as the
    median over passes; ``config.parse_config.self_s`` is the set-up total.
    The two ``_per_row`` ratios divide a pass's tangent assemblies and curve
    evaluations by the rows it emitted (0 when it emits none).
    """
    calls = defaultdict(lambda: defaultdict(int))
    self_s = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[4]][span[0]] += 1
        self_s[span[4]][span[0]] += own
    for (run, name), n in tracer.counts.items():
        calls[run][name] += n

    def total(table, runs, names):
        return sum(table[r][n] for r in runs for n in names)

    by_pass = defaultdict(list)
    by_op = defaultdict(list)
    for run_id, run in enumerate(tracer.runs):
        if isinstance(run["pass"], int):
            by_pass[run["pass"]].append(run_id)
            by_op[run["op"]].append(run_id)
    setup_runs = [i for i, r in enumerate(tracer.runs) if r["pass"] == "setup"]
    pass_rows = sum(rows_per_op.values())

    def per_pass(fn):
        return float(np.median([fn(runs) for runs in by_pass.values()]))

    def ratio(runs, names, rows):
        return total(calls, runs, names) / rows if rows else 0.0

    metrics = {}
    for metric, names in CALL_METRICS.items():
        metrics[metric] = per_pass(lambda runs: total(calls, runs, names))
    for metric, names in SELF_METRICS.items():
        if metric == "config.parse_config.self_s":
            metrics[metric] = total(self_s, setup_runs, names)
        else:
            metrics[metric] = per_pass(lambda runs: total(self_s, runs, names))
    metrics["trajectories.tangents_per_row"] = per_pass(
        lambda runs: ratio(runs, TANGENT_ASSEMBLIES, pass_rows)
    )
    metrics["trajectories.curve_evals_per_row"] = per_pass(
        lambda runs: ratio(runs, (CURVE_EVAL,), pass_rows)
    )
    passes = max(len(by_pass), 1)
    per_op = {
        op: {
            "trajectories.tangents_per_row": ratio(runs, TANGENT_ASSEMBLIES, rows_per_op[op] * passes),
            "trajectories.curve_evals_per_row": ratio(runs, (CURVE_EVAL,), rows_per_op[op] * passes),
        }
        for op, runs in by_op.items()
    }
    return {"metrics": metrics, "per_op": per_op}
