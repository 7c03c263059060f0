"""Refractive and group index of KTP along the y and z principal axes.

Coefficient sets live in ``data/ktp_sellmeier.json`` together with their
literature sources. Both sets use the same functional form,

    n^2(lambda) = c0 + sum_j B_j / (1 - C_j / lambda^2) - q * lambda^2

with lambda in micrometres. The fits are valid between 0.4 um and 3.5 um;
queries outside that window raise ``ConfigError`` rather than extrapolate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError

__all__ = ["refractive_index", "group_index", "VALID_RANGE_UM"]


@dataclass(frozen=True)
class _AxisCoefficients:
    constant: float
    resonances: tuple[tuple[float, float], ...]
    quadratic: float
    source: str


def _load_coefficients() -> dict[str, _AxisCoefficients]:
    path = resources.files("spdc_studio.data").joinpath("ktp_sellmeier.json")
    raw = json.loads(path.read_text(encoding="utf-8"))
    axes = {}
    for axis, entry in raw["axes"].items():
        axes[axis] = _AxisCoefficients(
            constant=entry["constant"],
            resonances=tuple(tuple(r) for r in entry["resonances"]),
            quadratic=entry["quadratic"],
            source=entry["source"],
        )
    return axes


_COEFFS = _load_coefficients()
VALID_RANGE_UM = (0.4, 3.5)


def _check_domain(lam_um: np.ndarray) -> None:
    lo, hi = VALID_RANGE_UM
    if np.any(lam_um < lo) or np.any(lam_um > hi):
        raise ConfigError(
            f"wavelength outside the supported Sellmeier window "
            f"[{lo} um, {hi} um]"
        )


def _n_squared(coeff: _AxisCoefficients, lam_um: np.ndarray) -> np.ndarray:
    l2 = lam_um**2
    n2 = coeff.constant - coeff.quadratic * l2
    for b, c in coeff.resonances:
        n2 = n2 + b / (1.0 - c / l2)
    return n2


def _dn2_dlam(coeff: _AxisCoefficients, lam_um: np.ndarray) -> np.ndarray:
    out = -2.0 * coeff.quadratic * lam_um
    for b, c in coeff.resonances:
        denom = 1.0 - c / lam_um**2
        out = out - 2.0 * b * c / (lam_um**3 * denom**2)
    return out


def refractive_index(wavelength: float | np.ndarray, axis: str):
    """Principal refractive index at ``wavelength`` (metres).

    ``axis`` is ``"y"`` or ``"z"``. The stored fits are room-temperature
    fits and no thermo-optic correction is applied.
    """
    if axis not in _COEFFS:
        raise ConfigError(f"unknown crystal axis {axis!r}, expected 'y' or 'z'")
    lam_um = np.asarray(wavelength, dtype=float) * 1e6
    _check_domain(lam_um)
    n = np.sqrt(_n_squared(_COEFFS[axis], lam_um))
    return float(n) if np.isscalar(wavelength) else n


def group_index(wavelength: float | np.ndarray, axis: str):
    """Group index n_g = n - lambda * dn/dlambda at ``wavelength`` (metres)."""
    if axis not in _COEFFS:
        raise ConfigError(f"unknown crystal axis {axis!r}, expected 'y' or 'z'")
    lam_um = np.asarray(wavelength, dtype=float) * 1e6
    _check_domain(lam_um)
    coeff = _COEFFS[axis]
    n = np.sqrt(_n_squared(coeff, lam_um))
    dn = _dn2_dlam(coeff, lam_um) / (2.0 * n)
    ng = n - lam_um * dn
    return float(ng) if np.isscalar(wavelength) else ng
