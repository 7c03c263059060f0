"""Access to the demonstration data bundled with the package.

Two files ship under ``spdc_studio/data``:

* ``qst_reference_state.json`` -- a reconstructed polarization density
  matrix whose metrics match the reference source characterization.
* ``measured_jsi.csv`` -- a synthetic stand-in for a dispersive
  time-of-flight measurement of the joint spectral intensity, blurred to
  the instrument resolution.

Both are frozen artifacts generated by ``scripts/make_fixtures.py``.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .polarization import TwoQubitState
from .spectral import JsiGrid

__all__ = [
    "reference_state_path",
    "load_reference_state",
    "measured_jsi_path",
    "load_measured_jsi",
]


def _data_path(name: str) -> Path:
    path = Path(str(resources.files("spdc_studio").joinpath("data", name)))
    if not path.exists():
        raise ConfigError(f"bundled data file {name} is missing; run "
                          f"scripts/make_fixtures.py to regenerate it")
    return path


def reference_state_path() -> Path:
    return _data_path("qst_reference_state.json")


def load_reference_state() -> TwoQubitState:
    payload = json.loads(reference_state_path().read_text(encoding="utf-8"))
    return TwoQubitState.from_json_dict(payload)


def measured_jsi_path() -> Path:
    return _data_path("measured_jsi.csv")


def load_measured_jsi() -> JsiGrid:
    from .grid_io import load_jsi_csv

    return load_jsi_csv(measured_jsi_path())
