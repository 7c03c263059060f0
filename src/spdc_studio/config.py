"""Run configuration: JSON ingestion, defaults, validation.

A source document is JSON with top-level keys ``pump``, ``crystal`` and
``grid`` (plus optional ``seed`` and ``output_dir``). All quantities are
SI except ``grid.window_nm``, which is a two-element wavelength window in
nanometres. Unknown keys are rejected rather than ignored so typos fail
loudly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, read_json
from .optics import (CrystalSpec, FrequencyGrid, PulseShape, PumpSpec,
                     design_lobe_wavelengths)
from .rng import check_seed

__all__ = [
    "RunConfig",
    "load_run_config",
    "make_grid",
    "DEFAULT_SAMPLES",
    "DEFAULT_WINDOW_NM",
]

DEFAULT_SAMPLES = 512
DEFAULT_WINDOW_NM = (1500.0, 1620.0)
MIN_SAMPLES = 64
# 4096^2 float64 is 128 MiB per grid; a larger request would fail to
# allocate long after validation
MAX_SAMPLES = 4096

_PUMP_FIELDS = {f.name for f in dataclasses.fields(PumpSpec)}
_CRYSTAL_FIELDS = {f.name for f in dataclasses.fields(CrystalSpec)}
_GRID_FIELDS = {"samples", "window_nm"}
_TOP_FIELDS = {"pump", "crystal", "grid", "seed", "output_dir"}

_PULSE_SHAPES = {"sech2": PulseShape.SECH2, "gaussian": PulseShape.GAUSSIAN}


@dataclass(frozen=True)
class RunConfig:
    """Everything one command run needs, with validated invariants."""

    pump: PumpSpec = PumpSpec()
    crystal: CrystalSpec = CrystalSpec()
    samples: int = DEFAULT_SAMPLES
    window: tuple[float, float] = tuple(v * 1e-9 for v in DEFAULT_WINDOW_NM)
    seed: int = 0
    output_dir: str | None = None
    # (shorter, longer) designed lobe wavelengths in m, solved once to
    # check them against the window
    design_lobes: tuple[float, float] = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self) -> None:
        try:
            whole = int(self.samples) == self.samples
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole or not MIN_SAMPLES <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples must be an integer from {MIN_SAMPLES} "
                              f"to {MAX_SAMPLES}, got {self.samples}")
        object.__setattr__(self, "samples", int(self.samples))
        lo, hi = self.window
        if not 0 < lo < hi:
            raise ConfigError("window must satisfy 0 < min < max")
        object.__setattr__(self, "seed", check_seed(self.seed))
        try:
            lam1, lam2 = design_lobe_wavelengths(self.crystal, self.pump,
                                                 window=self.window)
        except ValueError as exc:
            raise ConfigError(
                "window does not bracket the designed lobe pair for this "
                "pump/crystal combination") from exc
        margin = 0.02 * (hi - lo)
        if lam1 - lo < margin or hi - lam2 < margin:
            raise ConfigError(
                f"window [{lo * 1e9:.1f}, {hi * 1e9:.1f}] nm clips the "
                f"designed lobes at {lam1 * 1e9:.1f} / {lam2 * 1e9:.1f} nm")
        object.__setattr__(self, "design_lobes", (lam1, lam2))

    @property
    def window_nm(self) -> tuple[float, float]:
        # rounded to 1e-6 nm so unit round trips print cleanly
        return (round(self.window[0] * 1e9, 6), round(self.window[1] * 1e9, 6))


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)} "
                          f"(allowed: {', '.join(sorted(allowed))})")


def _build_pump(section: dict) -> PumpSpec:
    if not isinstance(section, dict):
        raise ConfigError("'pump' must be a JSON object")
    _reject_unknown(section, _PUMP_FIELDS, "'pump'")
    kwargs = dict(section)
    if "pulse_shape" in kwargs:
        label = str(kwargs["pulse_shape"]).lower()
        if label not in _PULSE_SHAPES:
            raise ConfigError(f"pulse_shape must be one of "
                              f"{sorted(_PULSE_SHAPES)}, got {label!r}")
        kwargs["pulse_shape"] = _PULSE_SHAPES[label]
    return PumpSpec(**kwargs)


def _build_crystal(section: dict) -> CrystalSpec:
    if not isinstance(section, dict):
        raise ConfigError("'crystal' must be a JSON object")
    _reject_unknown(section, _CRYSTAL_FIELDS, "'crystal'")
    return CrystalSpec(**section)


def load_run_config(path: str | Path | None = None,
                    samples: int | None = None,
                    seed: int | None = None,
                    output_dir: str | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    Overrides win over file values, which win over defaults.
    """
    doc: dict = {}
    if path is not None:
        doc = read_json(path, "config file")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        _reject_unknown(doc, _TOP_FIELDS, f"{path}")

    pump = _build_pump(doc.get("pump", {}))
    crystal = _build_crystal(doc.get("crystal", {}))

    grid_section = doc.get("grid", {})
    if not isinstance(grid_section, dict):
        raise ConfigError("'grid' must be a JSON object")
    _reject_unknown(grid_section, _GRID_FIELDS, "'grid'")
    cfg_samples = grid_section.get("samples", DEFAULT_SAMPLES)
    window_nm = grid_section.get("window_nm", list(DEFAULT_WINDOW_NM))
    if (not isinstance(window_nm, (list, tuple)) or len(window_nm) != 2
            or not all(isinstance(v, (int, float)) for v in window_nm)):
        raise ConfigError("grid.window_nm must be [min_nm, max_nm]")

    if samples is not None:
        cfg_samples = samples
    cfg_seed = doc.get("seed", 0)
    if seed is not None:
        cfg_seed = seed
    cfg_out = doc.get("output_dir")
    if output_dir is not None:
        cfg_out = output_dir

    return RunConfig(pump=pump, crystal=crystal, samples=cfg_samples,
                     window=(float(window_nm[0]) * 1e-9,
                             float(window_nm[1]) * 1e-9),
                     seed=cfg_seed, output_dir=cfg_out)


def make_grid(config: RunConfig) -> FrequencyGrid:
    return FrequencyGrid.wavelength_window(config.window[0], config.window[1],
                                           config.samples)

