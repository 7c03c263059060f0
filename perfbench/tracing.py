"""In-memory span tracer that wraps spdc_studio functions from outside.

A span is opened around every call to a layer's public function, as bound
in the module namespaces of its callers (``spdc_studio.cli.compute_jsa``,
``spdc_studio.optics.delta_k``, ...), and around the scipy minimizer the MLE
calls (``tomography.minimize``), which supplies iteration counts. Wrappers
are installed by rebinding module attributes and removed by restoring them,
so the package source is never modified and untraced passes run the original
functions.

Spans record name, start, end, parent and optional counters. They stay in
memory and are written out once, after measuring. Per-layer metrics are
computed from the spans of each traced pass; see ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

# Module name -> layer label. sellmeier is reported as part of optics.
LAYERS = ("cli", "config", "fixtures", "grid_io", "optics", "sellmeier",
          "spectral", "polarization", "tomography", "measurement")

PASS_ROOT = "bench.pass"
SETUP_ROOT = "bench.setup"


# ---------------------------------------------------------------- counters
# Each function here turns (bound arguments, result, error) of one call into
# the counters stored on its span.

def _file_bytes(args, result, error):
    path = args.get("path")
    return {"bytes": os.path.getsize(path)} if error is None else None


def _multipair(args, result, error):
    return {"trials": int(args["n_trials"])}


def _tof(args, result, error):
    return {"pairs": int(args["n_pairs"])}


def _domains(args, result, error):
    import numpy as np

    pattern = args["pattern"]
    points = np.size(args["dk_without_qpm"])
    return {"grid_evals": (len(pattern.boundaries) + 1) * int(points)}


def _svd_flops(args, result, error):
    # singular values only, Golub & Van Loan count 4mn^2 - 4n^3/3 (m >= n),
    # times 4 for complex arithmetic; computed from the shape, not measured
    m, n = args["jsa"].amplitude.shape
    m, n = max(m, n), min(m, n)
    return {"flops": 4 * (4 * m * n * n - 4 * n ** 3 // 3)}


def _minimize(args, result, error):
    if error is not None:
        return None
    return {"nit": int(result.nit), "nfev": int(result.nfev),
            "not_converged": int(not result.success)}


COUNTERS = {
    "grid_io.save_matrix_csv": _file_bytes,
    "grid_io.load_matrix_csv": _file_bytes,
    "measurement.multipair_visibility": _multipair,
    "measurement.tof_simulate": _tof,
    "optics.pmf_from_domains": _domains,
    "spectral.schmidt": _svd_flops,
    "tomography.minimize": _minimize,
}

# scipy functions the layers import by name: (module, attribute)
SCIPY_ENTRY_POINTS = (("tomography", "minimize"),)


class Tracer:
    """Records nested spans; installs and removes the function wrappers."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, counters: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = counters
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                counters = None
                if counter is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    counters = counter(bound, result, error)
                self.close(index, counters)

        return traced

    def install(self) -> None:
        """Rebind every traced function in every layer namespace."""
        if self._undo:
            return
        modules = {layer: importlib.import_module(f"spdc_studio.{layer}")
                   for layer in LAYERS}
        wrappers: dict[int, tuple] = {}
        for layer, module in modules.items():
            for attr in _public_functions(layer, module):
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{attr}"))
        for layer, attr in SCIPY_ENTRY_POINTS:
            fn = getattr(modules[layer], attr)
            self._rebind(modules[layer], attr, self.wrap(fn, f"{layer}.{attr}"))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "counters"], "spans": self.spans}, fh)


def _public_functions(layer: str, module) -> list[str]:
    if layer == "cli":  # no __all__; the five commands are its surface
        names = [n for n in vars(module) if n.startswith("cmd_")] + ["main"]
    else:
        names = list(getattr(module, "__all__", ()))
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


# ---------------------------------------------------------------- metrics
# name -> (unit, how, span names, counter key)
#   time   inclusive time of the outermost spans of the group, per pass
#   self   span time minus the part covered by its child spans, per pass
#   calls  number of spans, per pass
#   sum    sum of a span counter, per pass
#   under  number of spans of the group inside a span named by the key
#   setup  inclusive time of the group during the traced set-up
_SAVE = ("grid_io.save_matrix_csv", "grid_io.save_jsi_csv",
         "grid_io.save_jsa_csv")
_LOAD = ("grid_io.load_matrix_csv", "grid_io.load_jsi_csv",
         "grid_io.load_jsa_csv")
_MULTIPAIR = ("measurement.multipair_visibility",)

PER_LAYER = {
    "grid_io.save_s": ("s", "time", _SAVE, None),
    "grid_io.bytes_written": ("B", "sum", ("grid_io.save_matrix_csv",), "bytes"),
    "grid_io.load_s": ("s", "time", _LOAD, None),
    "grid_io.bytes_read": ("B", "sum", ("grid_io.load_matrix_csv",), "bytes"),
    "measurement.multipair_visibility_s": ("s", "time", _MULTIPAIR, None),
    "measurement.multipair.calls": ("count", "calls", _MULTIPAIR, None),
    "measurement.multipair.trials": ("count", "sum", _MULTIPAIR, "trials"),
    "measurement.invert_visibility_s": (
        "s", "time", ("measurement.invert_visibility",), None),
    "measurement.invert.forward_evals": (
        "count", "under", _MULTIPAIR, "measurement.invert_visibility"),
    "measurement.tof_simulate_s": (
        "s", "time", ("measurement.tof_simulate",), None),
    "measurement.tof_reconstruct_s": (
        "s", "time", ("measurement.tof_reconstruct",), None),
    "measurement.tof.pairs": (
        "count", "sum", ("measurement.tof_simulate",), "pairs"),
    "optics.compute_jsa_s": ("s", "time", ("optics.compute_jsa",), None),
    "optics.compute_jsa.calls": ("count", "calls", ("optics.compute_jsa",), None),
    "optics.delta_k_s": ("s", "time", ("optics.delta_k",), None),
    "optics.pmf_from_domains_s": (
        "s", "time", ("optics.pmf_from_domains",), None),
    "optics.domain_grid_evals": (
        "count", "sum", ("optics.pmf_from_domains",), "grid_evals"),
    "spectral.schmidt_s": ("s", "time", ("spectral.schmidt",), None),
    "spectral.schmidt.calls": ("count", "calls", ("spectral.schmidt",), None),
    "spectral.svd_flops": ("flop", "sum", ("spectral.schmidt",), "flops"),
    "spectral.split_lobes_s": ("s", "time", ("spectral.split_lobes",), None),
    "spectral.lobe_overlap_matrix_s": (
        "s", "time", ("spectral.lobe_overlap_matrix",), None),
    "spectral.overlap_integral_s": (
        "s", "time", ("spectral.overlap_integral",), None),
    "tomography.mle_reconstruct_s": (
        "s", "time", ("tomography.mle_reconstruct",), None),
    "tomography.mle.calls": (
        "count", "calls", ("tomography.mle_reconstruct",), None),
    "tomography.mle.nit": ("count", "sum", ("tomography.minimize",), "nit"),
    "tomography.mle.nfev": ("count", "sum", ("tomography.minimize",), "nfev"),
    "tomography.mle.not_converged": (
        "count", "sum", ("tomography.minimize",), "not_converged"),
    "tomography.simulate_counts_s": (
        "s", "time", ("tomography.simulate_counts",), None),
    "polarization.metric_report_s": (
        "s", "time", ("polarization.metric_report",), None),
    "cli.simulate_jsa_s": ("s", "self", ("cli.cmd_simulate_jsa",), None),
    "cli.analyze_jsi_s": ("s", "self", ("cli.cmd_analyze_jsi",), None),
    "cli.tomography_s": ("s", "self", ("cli.cmd_tomography",), None),
    "cli.visibility_s": ("s", "self", ("cli.cmd_visibility",), None),
    "cli.report_s": ("s", "self", ("cli.cmd_report",), None),
    "config.load_run_config_s": (
        "s", "setup", ("config.load_run_config",), None),
    "fixtures.load_s": ("s", "setup", ("fixtures.load_reference_state",
                                       "fixtures.load_measured_jsi"), None),
}

# reported next to PER_LAYER by the traced run
TRACE_METRICS = {
    "trace.overhead_s": "s",
    "trace.spans_per_pass": "count",
}


class SpanTree:
    """Index over a finished span list for per-root aggregation."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            self.children[span[3]].append(index)

    def roots(self, name: str) -> list[int]:
        return [i for i in self.children[-1] if self.spans[i][0] == name]

    def subtree(self, root: int) -> list[int]:
        out, todo = [], list(self.children[root])
        while todo:
            index = todo.pop()
            out.append(index)
            todo.extend(self.children[index])
        return out

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def self_time(self, index: int) -> float:
        """Duration minus the union of the intervals of the child spans."""
        start, end = self.spans[index][1], self.spans[index][2]
        covered, reach = 0.0, start
        for child in sorted(self.children[index],
                            key=lambda c: self.spans[c][1]):
            lo = max(self.spans[child][1], reach)
            hi = min(self.spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered

    def has_ancestor(self, index: int, names, stop: int) -> bool:
        parent = self.spans[index][3]
        while parent != stop and parent != -1:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def metric(self, root: int, how: str, names, key) -> float:
        members = [i for i in self.subtree(root) if self.spans[i][0] in names]
        if how in ("time", "setup"):
            return sum(self.duration(i) for i in members
                       if not self.has_ancestor(i, names, root))
        if how == "self":
            return sum(self.self_time(i) for i in members)
        if how == "calls":
            return len(members)
        if how == "sum":
            return sum((self.spans[i][4] or {}).get(key, 0) for i in members)
        if how == "under":
            return sum(1 for i in members
                       if self.has_ancestor(i, (key,), root))
        raise ValueError(f"unknown aggregation {how!r}")


def per_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Median over traced passes of each PER_LAYER metric."""
    tree = SpanTree(spans)
    passes = tree.roots(PASS_ROOT)
    setups = tree.roots(SETUP_ROOT)
    out = {}
    for name, (_unit, how, names, key) in PER_LAYER.items():
        roots = setups if how == "setup" else passes
        values = [tree.metric(r, how, names, key) for r in roots]
        out[name] = statistics.median(values) if values else 0.0
    out["trace.spans_per_pass"] = statistics.median(
        len(tree.subtree(r)) for r in passes) if passes else 0
    return out
