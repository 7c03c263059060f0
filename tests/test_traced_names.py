"""Every package function that the benchmark's tracer names is one it wraps.

``perfbench/tracing.py`` names spans ``<layer>.<function>``: the keys of
``COUNTERS``, the span groups of ``PER_LAYER`` (and the enclosing span of
its "under" metrics) and ``SCIPY_ENTRY_POINTS``. The tracer wraps the
functions in each layer's ``__all__``, the ``cmd_*`` functions of ``cli``
and the scipy entry points. A name that matches no wrapped function
records nothing, so its metric reads 0 on working code. ``STALE`` lists
the names known to match nothing; the test fails on a new stale name and
on a listed one that has been fixed.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# grid_io writes and reads JSI CSVs only; the JSA CSV functions are gone
STALE = {"grid_io.save_jsa_csv", "grid_io.load_jsa_csv"}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def named(tracing) -> set[str]:
    """The span names that the tracer's counters and metrics read."""
    names = set(tracing.COUNTERS)
    for _unit, how, group, key in tracing.PER_LAYER.values():
        names.update(group)
        if how == "under":
            names.add(key)
    names.update(f"{layer}.{attr}"
                 for layer, attr in tracing.SCIPY_ENTRY_POINTS)
    return names


def wrapped(tracing) -> set[str]:
    """The span names of the functions that ``Tracer.install`` wraps."""
    names = set()

    class Recording(tracing.Tracer):
        def wrap(self, fn, name):
            names.add(name)
            return super().wrap(fn, name)

    tracer = Recording()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    return names


def test_wrapped_names_are_package_functions():
    tracing = _tracing()
    names = wrapped(tracing)
    assert {"optics.compute_jsa", "spectral.two_lobe_summary",
            "grid_io.load_jsi_csv", "cli.cmd_analyze_jsi",
            "tomography.minimize"} <= names
    assert all(name.split(".")[0] in tracing.LAYERS for name in names)


def test_every_traced_name_is_wrapped():
    tracing = _tracing()
    assert named(tracing) - wrapped(tracing) == STALE
