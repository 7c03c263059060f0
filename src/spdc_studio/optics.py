"""Source physics for a type-II quasi-phase-matched KTP pair source.

This module owns the physical model: dispersion-based phase mismatch,
transform-limited pump envelopes, the engineered two-lobe phase-matching
function (both its closed form and the Fourier transform of an explicit
poling pattern), joint-spectral-amplitude assembly on a frequency grid,
temporal walk-off through the poled crystal plus its compensator, and the
small power-bookkeeping helpers (peak power, normalized coupling).

Conventions used throughout:

* angular frequencies in rad/s, wavelengths in metres, wavevectors in 1/m;
* the signal photon is H-polarized and rides the crystal y axis, the idler
  is V-polarized on the z axis, and the pump is y-polarized (d24 coupling);
* JSA matrices are indexed ``[signal, idler]``.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sellmeier
from .errors import ConfigError

__all__ = [
    "C_LIGHT",
    "TWO_PI_C",
    "DESIGN_WIDTH_SCALE",
    "PulseShape",
    "PmfMode",
    "PumpSpec",
    "CrystalSpec",
    "PolingPattern",
    "uniform_grating",
    "FrequencyGrid",
    "JsaGrid",
    "wavevector",
    "delta_k",
    "pump_envelope",
    "pmf_analytic",
    "pmf_from_domains",
    "compute_jsa",
    "design_lobe_wavelengths",
    "temporal_walkoff",
    "transform_limited_fwhm",
    "peak_power",
    "coupling_coefficient",
]

C_LIGHT = 299_792_458.0
TWO_PI_C = 2.0 * math.pi * C_LIGHT

# Width multiplier applied to pmf_sigma when building the analytic JSA.
# The nominal sigma parameterizes the poling-design target; the
# spectral response actually realized by a finite crystal is broader (a
# 4 mm aperture cannot produce Delta-k features much narrower than its own
# Fourier width of roughly 800 1/m, while the nominal sigma is 333 1/m).
# The value is calibrated once so that the default source produces two
# round lobes with Schmidt purity near 0.5, and is deliberately not a
# per-run knob.
DESIGN_WIDTH_SCALE = 6.0

MIN_SAMPLES_PER_FWHM = 8
# the most samples per grid axis: 4096^2 float64 is 128 MiB per grid; a
# larger request would fail to allocate long after validation
MAX_SAMPLES = 4096

# Points per sinc fringe 2 pi/L of the 1-D mismatch sample that
# compute_jsa(FROM_DOMAINS) interpolates from; the sample spans the grid's
# mismatch range, taken block by block. Phi is the transform of a
# pattern on [0, L], so |d^4 Phi/d dk^4| <= L^4 and 4-point Lagrange
# interpolation errs by at most (9/16)/4! * (2 pi/200)^4 = 2.3e-8 in Phi.
DOMAIN_SAMPLES_PER_FRINGE = 200

# Grid points per row block of compute_jsa: 64 KiB per float64 temporary.
_BLOCK_POINTS = 8192

# Samples per row of the phase tables of _lattice_domain_pmf.
_LATTICE_WIDTH = 64

_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class PulseShape(enum.Enum):
    SECH2 = "sech2"
    GAUSSIAN = "gaussian"


class PmfMode(enum.Enum):
    ANALYTIC = "analytic"
    FROM_DOMAINS = "from_domains"


def _check_numbers(spec, where: str) -> None:
    """Reject float fields that are not finite real numbers; JSON configs
    can hand in strings, booleans, the NaN/Infinity tokens and integers
    past the float range."""
    for field in fields(spec):
        if field.type != "float":
            continue
        value = getattr(spec, field.name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(
                f"{where} {field.name} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} {field.name} must be finite, got {value}")


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump field. Powers in W, lengths in m, rate in Hz."""

    center_wavelength: float = 780e-9
    bandwidth_fwhm: float = 7e-9
    pulse_shape: PulseShape = PulseShape.SECH2
    repetition_rate: float = 76e6
    average_power: float = 0.620

    def __post_init__(self) -> None:
        _check_numbers(self, "pump")
        if self.center_wavelength <= 0:
            raise ConfigError("pump center_wavelength must be positive")
        if self.bandwidth_fwhm <= 0:
            raise ConfigError("pump bandwidth_fwhm must be positive")
        if self.repetition_rate <= 0:
            raise ConfigError("pump repetition_rate must be positive")
        if self.average_power < 0:
            raise ConfigError("pump average_power must be non-negative")
        if not isinstance(self.pulse_shape, PulseShape):
            raise ConfigError(f"unknown pulse shape {self.pulse_shape!r}")

    @property
    def center_omega(self) -> float:
        return TWO_PI_C / self.center_wavelength

    @property
    def bandwidth_omega(self) -> float:
        """FWHM of the spectral intensity |P|^2 in rad/s."""
        return TWO_PI_C * self.bandwidth_fwhm / self.center_wavelength**2


@dataclass(frozen=True)
class CrystalSpec:
    """Poled KTP crystal plus its perpendicular compensation crystal.

    ``temperature`` (deg C) is metadata only: the Sellmeier fits are
    room-temperature fits and no thermo-optic correction is applied.
    """

    length: float = 4e-3
    poling_period: float = 46e-6
    pmf_sigma: float = 333.0
    pmf_a: float = 2700.0
    temperature: float = 23.0
    compensation_length: float = 2e-3

    def __post_init__(self) -> None:
        _check_numbers(self, "crystal")
        if self.length <= 0:
            raise ConfigError("crystal length must be positive")
        if self.poling_period <= 0:
            raise ConfigError("poling_period must be positive")
        if self.pmf_sigma <= 0:
            raise ConfigError("pmf_sigma must be positive")
        if self.compensation_length < 0:
            raise ConfigError("compensation_length must be non-negative")


@dataclass(frozen=True)
class PolingPattern:
    """Sign pattern of chi(2) along the crystal.

    ``boundaries`` lists the z positions (m) where the sign flips, strictly
    increasing within [0, length]; ``first_sign`` is the sign of the first
    domain. A pattern with no boundaries is a single uniform domain.
    """

    length: float
    boundaries: tuple[float, ...] = ()
    first_sign: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.length < math.inf:
            raise ConfigError(f"poling pattern length must be positive and "
                              f"finite, got {self.length}")
        if self.first_sign not in (1, -1):
            raise ConfigError("first_sign must be +1 or -1")
        bounds = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", bounds)
        # written so that a NaN boundary fails too
        if not all(0 <= b <= self.length for b in bounds):
            raise ConfigError("domain boundaries must be finite and lie "
                              "within [0, length]")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError("domain boundaries must be strictly increasing")


def uniform_grating(length: float, period: float, first_sign: int = 1) -> PolingPattern:
    """Pattern with sign flips every half period, the standard QPM grating."""
    if not 0 < period < math.inf:
        raise ConfigError(f"grating period must be positive and finite, got "
                          f"{period}")
    # the bare pattern checks the length before arange counts out to it
    pattern = PolingPattern(length=length, first_sign=first_sign)
    boundaries = np.arange(period / 2.0, length, period / 2.0)
    return replace(pattern, boundaries=tuple(boundaries))


def _cell_widths(axis: np.ndarray) -> np.ndarray:
    """Midpoint-rule cell widths; exact for a uniform axis, sensible otherwise."""
    edges = np.empty(axis.size + 1)
    edges[1:-1] = 0.5 * (axis[1:] + axis[:-1])
    edges[0] = axis[0] - 0.5 * (axis[1] - axis[0])
    edges[-1] = axis[-1] + 0.5 * (axis[-1] - axis[-2])
    return np.diff(edges)


@dataclass(frozen=True)
class FrequencyGrid:
    """Square grid of angular frequencies: one ascending axis that indexes
    the signal (rows) and the idler (columns) alike, so exchanging the
    photons transposes the grid."""

    axis: np.ndarray

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        if axis.ndim != 1 or axis.size < 2:
            raise ConfigError("axis must be a 1-D array with >= 2 samples")
        if not np.all(np.isfinite(axis)):
            raise ConfigError("axis must be finite")
        if np.any(np.diff(axis) <= 0):
            raise ConfigError("axis must be strictly increasing")
        if axis[0] <= 0:
            raise ConfigError("axis must contain positive frequencies")
        object.__setattr__(self, "axis", axis)

    @classmethod
    def wavelength_window(cls, lambda_min: float, lambda_max: float,
                          samples: int) -> "FrequencyGrid":
        """An axis uniform in angular frequency, spanning [lambda_min,
        lambda_max]."""
        for name, wavelength in (("lambda_min", lambda_min),
                                 ("lambda_max", lambda_max)):
            if not 0 < wavelength < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got "
                                  f"{wavelength}")
        if not lambda_min < lambda_max:
            raise ConfigError("need lambda_min < lambda_max")
        if samples < 2:
            raise ConfigError("need at least 2 samples per axis")
        return cls(axis=np.linspace(TWO_PI_C / lambda_max,
                                    TWO_PI_C / lambda_min, samples))

    @property
    def weights(self) -> np.ndarray:
        return _cell_widths(self.axis)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axis.size, self.axis.size)


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral amplitude sampled on a FrequencyGrid.

    The amplitude keeps the kind it is given: complex input is stored as
    complex128 and anything else as float64, so the dtype picks real or
    complex arithmetic. The analytic JSA and ``spectral.jsa_from_jsi`` are
    float64, as is the ``jsa.npy`` that ``simulate-jsa`` saves; the
    domain-sampled JSA is complex128.
    """

    grid: FrequencyGrid
    amplitude: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitude)
        amp = amp.astype(complex if np.iscomplexobj(amp) else float,
                         copy=False)
        if amp.shape != self.grid.shape:
            raise ConfigError(
                f"amplitude shape {amp.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(amp)):
            raise ConfigError("JSA amplitude contains non-finite entries")
        object.__setattr__(self, "amplitude", amp)

    @property
    def signal_marginal(self) -> np.ndarray:
        """sum_i |f_ji|^2 w_i for each signal row j; no |f|^2 grid is built."""
        amp, w = self.amplitude, self.grid.weights
        parts = (amp.real, amp.imag) if np.iscomplexobj(amp) else (amp,)
        return sum(np.einsum("ij,ij,j->i", p, p, w) for p in parts)

    @property
    def norm_squared(self) -> float:
        return float(self.grid.weights @ self.signal_marginal)

    def _unit_scale(self) -> float:
        """1 / ||f||; a zero or overflowing norm raises ConfigError."""
        n2 = self.norm_squared
        if not 0 < n2 < math.inf:
            raise ConfigError(f"cannot normalize a JSA of norm {n2}; it is "
                              f"all-zero or overflows")
        # numpy divides a complex array by a real scalar as a multiply by
        # its reciprocal, so a real amplitude scaled by this has the bits
        # of the real part of the complex quotient
        return 1.0 / math.sqrt(n2)

    def normalized_copy(self) -> "JsaGrid":
        # a checked amplitude over its own finite norm is finite with unit
        # norm, so the copy skips __post_init__ and the norm is summed once
        copy = object.__new__(JsaGrid)
        copy.__dict__.update(grid=self.grid,
                             amplitude=self.amplitude * self._unit_scale())
        return copy


def wavevector(omega, axis: str):
    """k = n(omega) * omega / c along a principal axis."""
    omega = np.asarray(omega, dtype=float)
    lam = TWO_PI_C / omega
    n = sellmeier.refractive_index(lam, axis)
    return n * omega / C_LIGHT


def delta_k(omega_s, omega_i, crystal: CrystalSpec):
    """Quasi-phase-matched wavevector mismatch in 1/m.

    Type-II d24 arrangement: pump and signal on the y axis, idler on z.
    With this dispersion data k_p < k_s + k_i around degeneracy, so the
    grating vector enters with a positive sign to close the momentum
    balance; the degenerate mismatch then sits between the engineered
    lobes at +-a.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    k_p = wavevector(omega_s + omega_i, "y")
    k_s = wavevector(omega_s, "y")
    k_i = wavevector(omega_i, "z")
    return k_p - k_s - k_i + 2.0 * math.pi / crystal.poling_period


def pump_envelope(omega_sum, pump: PumpSpec):
    """Real, transform-limited pump spectral amplitude, peak value 1.

    The FWHM of the spectral intensity |P|^2 equals the configured
    bandwidth converted to angular frequency.
    """
    detune = np.asarray(omega_sum, dtype=float) - pump.center_omega
    dw = pump.bandwidth_omega
    if pump.pulse_shape is PulseShape.GAUSSIAN:
        sigma_int = dw / _FWHM_SIGMA
        return np.exp(-(detune**2) / (4.0 * sigma_int**2))
    b = 2.0 * math.acosh(math.sqrt(2.0)) / dw
    return 1.0 / np.cosh(b * detune)


def pmf_analytic(dk, sigma: float, a: float):
    """Engineered two-lobe phase-matching amplitude.

    Difference of two Gaussians centered at +-a with width sigma and a
    1/sqrt(2 pi sigma) prefactor; odd in dk, so the lobes carry opposite
    signs. The prefactor convention is kept as-is since downstream JSAs
    are renormalized and only the shape matters.
    """
    if sigma <= 0:
        raise ConfigError("pmf sigma must be positive")
    dk = np.asarray(dk, dtype=float)
    pref = 1.0 / math.sqrt(2.0 * math.pi * sigma)
    return pref * (np.exp(-((dk - a) ** 2) / (2.0 * sigma**2))
                   - np.exp(-((dk + a) ** 2) / (2.0 * sigma**2)))


def pmf_from_domains(pattern: PolingPattern, dk_without_qpm):
    """Phase-matching amplitude as the Fourier transform of a poling pattern.

    Phi(dk) = (1/L) sum_j s_j * integral_{z_j}^{z_{j+1}} exp(i dk z) dz with
    alternating domain signs. ``dk_without_qpm`` is the bare mismatch
    k_p - k_s - k_i: the grating momentum lives in the pattern itself. For
    a uniform grating of period Lambda, |Phi| peaks near |dk| = 2 pi/Lambda
    with value about 2/pi and sinc-like sidelobes of null spacing 2 pi/L.

    Because neighbouring domains have opposite signs the sum telescopes to
    one term per boundary z_b,

        Phi = [s_last (e^{i dk L} - 1) + 2 sum_b s_{b-1} (e^{i dk z_b} - 1)]
              / (i dk L),

    written with expm1 so it stays accurate as dk -> 0 (the -1 terms sum
    to zero). It is exact up to rounding.
    """
    dk = np.asarray(dk_without_qpm, dtype=float)
    scalar = dk.ndim == 0
    dk = np.atleast_1d(dk)

    length = pattern.length
    near_zero = np.abs(dk) * length < 1e-9
    dk_safe = np.where(near_zero, 1.0, dk)

    sign = pattern.first_sign
    last_sign = sign * (-1) ** len(pattern.boundaries)
    total = last_sign * np.expm1(1j * length * dk_safe)
    weight = 2 * sign
    for z in pattern.boundaries:
        total += weight * np.expm1(1j * z * dk_safe)
        weight = -weight
    total /= 1j * length * dk_safe
    if np.any(near_zero):
        # Phi(0) is the sign-weighted mean: (1/L) sum_j s_j (z_{j+1} - z_j)
        z = np.concatenate(([0.0], pattern.boundaries, [length]))
        signs = sign * (-1.0) ** np.arange(z.size - 1)
        total[near_zero] = float(np.dot(signs, np.diff(z))) / length
    return complex(total[0]) if scalar else total


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an n x n grid, of about ``_BLOCK_POINTS`` points each."""
    rows = max(1, _BLOCK_POINTS // n)
    return [slice(r, r + rows) for r in range(0, n, rows)]


def _pump_lattice(axis: np.ndarray) -> np.ndarray:
    """The 2n - 1 pump frequencies of a grid whose cell sums they are.

    s = (axis[0] + axis, axis[1:] + axis[-1]) holds every sum axis[i] +
    axis[j] of a grid whose axis has one uniform step, at s[i + j]. Returns
    s when every cell's float sum lies within 2 ulp of its lattice value,
    checked over the row blocks of ``compute_jsa``; a non-uniform axis,
    such as ``measurement.tof_reconstruct`` makes, raises ConfigError.
    """
    n = axis.size
    s = np.concatenate((axis[0] + axis, axis[1:] + axis[-1]))
    # read-only Hankel views: [i, j] is s[i + j]
    lattice = sliding_window_view(s, n)
    slack = sliding_window_view(2.0 * np.spacing(s), n)
    for rows in _row_blocks(n):
        off = np.add(axis[rows, np.newaxis], axis)
        off -= lattice[rows]
        if np.any(np.abs(off, out=off) > slack[rows]):
            raise ConfigError(
                "compute_jsa needs an axis of one uniform step, as "
                "FrequencyGrid.wavelength_window makes")
    return s


def _lattice_domain_pmf(pattern: PolingPattern, lo: float, h: float,
                        n: int) -> np.ndarray:
    """``pmf_from_domains`` at the n points x_k = lo + h k, from two tables.

    The telescoped numerator of ``pmf_from_domains`` is sum_b w_b e^{i z_b x}
    - s_0 over the terms z = (boundaries..., L) with weights
    w = (2 s_0 (-1)^b..., s_last), whose sum is s_0. Writing k = qM + m
    with M = ``_LATTICE_WIDTH`` splits e^{i z x_k} into
    e^{i z (lo + h M q)} e^{i z h m}, so the numerator of every sample is
    one complex product of a ceil(n/M)-row table C[q, b] =
    w_b e^{i z_b (lo + h M q)} and an M-row table F[m, b] = e^{i z_b h m}:
    (B + 1)(ceil(n/M) + M) exponentials instead of (B + 1) n.

    The -s_0 cancels against the sum as x -> 0, leaving an error of about
    eps (2B + 1)/(|x| L); samples with |x| L < 1 take their values from
    ``pmf_from_domains``'s expm1 form instead. Elsewhere the result
    differs from it by at most 7.1e-14 on the patterns checked (up to
    1,000 boundaries, |x| up to 2e5 1/m), far below the interpolation
    error it feeds.
    """
    sign = pattern.first_sign
    z = np.append(pattern.boundaries, pattern.length)
    w = 2.0 * sign * (-1.0) ** np.arange(z.size)
    w[-1] /= 2.0  # s_last = s_0 (-1)^B
    m = _LATTICE_WIDTH
    starts = lo + h * (m * np.arange(-(-n // m)))
    table = np.exp(1j * np.multiply.outer(starts, z))
    table *= w
    steps = np.exp(1j * np.multiply.outer(h * np.arange(m), z))
    numerator = (table @ steps.T).ravel()[:n] - sign
    x = lo + h * np.arange(n)
    near_zero = np.abs(x) * pattern.length < 1.0
    phi = numerator / (1j * pattern.length * np.where(near_zero, 1.0, x))
    if np.any(near_zero):
        phi[near_zero] = pmf_from_domains(pattern, x[near_zero])
    return phi


def _sampled_domain_pmf(pattern: PolingPattern, lo: float, hi: float
                        ) -> Callable[[np.ndarray], np.ndarray]:
    """``pmf_from_domains`` of mismatches in [lo, hi], through a 1-D sample.

    Phi is evaluated once on a uniform sample spanning [lo, hi] at
    DOMAIN_SAMPLES_PER_FRINGE points per 2 pi/L, by the two phase tables
    of ``_lattice_domain_pmf``. The returned function maps an array of
    mismatches onto it with 4-point Lagrange (cubic) weights; fed one row
    block of ``compute_jsa`` at a time, its temporaries stay block sized.
    """
    h = 2.0 * math.pi / (pattern.length * DOMAIN_SAMPLES_PER_FRINGE)
    start = lo - h
    n = math.ceil((hi - start) / h) + 3
    sample = _lattice_domain_pmf(pattern, start, h, n)

    def interpolant(nu: np.ndarray) -> np.ndarray:
        t = (nu - start) / h
        # 1 <= floor(t) <= n - 3 by construction; the clip absorbs rounding
        j = np.clip(np.floor(t).astype(np.intp), 1, n - 3)
        f = t - j
        fp, fm, fmm = f + 1.0, f - 1.0, f - 2.0
        return 0.5 * (fm * fmm * (fp * sample[j] - f / 3.0 * sample[j - 1])
                      + fp * f * (fm / 3.0 * sample[j + 2]
                                  - fmm * sample[j + 1]))
    return interpolant


def _lobe_slopes(crystal: CrystalSpec, pump: PumpSpec) -> tuple[float, float]:
    """|d(delta_k)/d(omega)| along the signal and the idler direction of the
    grid at the degenerate point."""
    lam_p = pump.center_wavelength
    lam_d = 2.0 * lam_p
    ng_p = sellmeier.group_index(lam_p, "y")
    ng_s = sellmeier.group_index(lam_d, "y")
    ng_i = sellmeier.group_index(lam_d, "z")
    return abs(ng_p - ng_s) / C_LIGHT, abs(ng_p - ng_i) / C_LIGHT


def compute_jsa(grid: FrequencyGrid, crystal: CrystalSpec, pump: PumpSpec,
                pmf_mode: PmfMode = PmfMode.ANALYTIC,
                pattern: PolingPattern | None = None) -> JsaGrid:
    """Assemble and normalize the joint spectral amplitude on ``grid``.

    f(ws, wi) = P(ws + wi) * Phi(nu). For the analytic PMF, nu is delta_k
    less its value at the degenerate point, so the two engineered lobes
    land symmetrically at the designed +-a, and sigma is widened by
    ``DESIGN_WIDTH_SCALE``. For a poling pattern nu is the bare mismatch
    (FROM_DOMAINS always works in physical coordinates; ``pattern``
    defaults to the uniform grating implied by the crystal, and any other
    mode with a ``pattern`` raises ConfigError; its Phi is
    interpolated from a 1-D sample taken as one product of two phase
    tables, see ``_sampled_domain_pmf`` and ``_lattice_domain_pmf``). The
    grid is rejected if the narrowest expected spectral feature (pump
    bandwidth or PMF lobe projected onto an axis) would see fewer than
    ``MIN_SAMPLES_PER_FWHM`` samples.

    k_p and the pump envelope depend on the pump frequency ws + wi alone,
    so each is evaluated once per point of the lattice of the grid's
    2n - 1 pump frequencies (``_pump_lattice``) and read through a
    Hankel view; the JSA moves from the per-cell formula by about 3e-12 of
    its peak (1e-11 for FROM_DOMAINS). This needs every cell's sum within
    2 ulp of its lattice point, as on the uniform axis that
    ``FrequencyGrid.wavelength_window`` (and so ``make_grid``) makes; a
    non-uniform axis raises ConfigError after the coarse-grid check.

    The elementwise chain (delta_k in its order of operations, the pump
    factor and the PMF) runs in blocks of whole rows of about
    ``_BLOCK_POINTS`` points, written into one preallocated amplitude, so
    its temporaries stay in cache and the call holds little more than the
    amplitude. Both PMF modes take a block's mismatch
    the same way, less delta_k at the degenerate point (analytic) or less
    2 pi/Lambda (domains). The domain sample's range is the min and max
    over one extra pass of the blocks, the whole grid's exact extremes, so
    no mismatch grid is held, nor an |f|^2 grid for the norm. Ufuncs do
    not depend on position, so the result has the bits of the same chain
    evaluated on the whole grid at once.
    """
    if pattern is not None and pmf_mode is not PmfMode.FROM_DOMAINS:
        raise ConfigError("a poling pattern needs PmfMode.FROM_DOMAINS")
    if pmf_mode is PmfMode.ANALYTIC:
        sigma_eff = crystal.pmf_sigma * DESIGN_WIDTH_SCALE
        pmf_fwhm = _FWHM_SIGMA * sigma_eff
    elif pmf_mode is PmfMode.FROM_DOMAINS:
        if pattern is None:
            pattern = uniform_grating(crystal.length, crystal.poling_period)
        pmf_fwhm = 5.566 / pattern.length
    else:
        raise ConfigError(f"unknown pmf mode {pmf_mode!r}")

    axis = grid.axis
    step = float(np.max(np.diff(axis)))
    for name, slope in zip(("signal", "idler"), _lobe_slopes(crystal, pump)):
        narrow = min(pump.bandwidth_omega, pmf_fwhm / slope)
        got = narrow / step
        if got < MIN_SAMPLES_PER_FWHM:
            need = math.ceil((axis[-1] - axis[0]) / narrow * MIN_SAMPLES_PER_FWHM) + 1
            advice = (f"use at least {need} samples over this window"
                      if need <= MAX_SAMPLES else
                      f"this window needs {need} samples, more than the "
                      f"limit of {MAX_SAMPLES}")
            raise ConfigError(
                f"grid too coarse on the {name} axis: {got:.1f} samples per "
                f"narrowest spectral FWHM, need >= {MIN_SAMPLES_PER_FWHM} "
                f"({advice})"
            )

    s = _pump_lattice(axis)
    k_p = sliding_window_view(wavevector(s, "y"), axis.size)
    envelope = sliding_window_view(pump_envelope(s, pump), axis.size)
    k_s = wavevector(axis, "y")[:, np.newaxis]
    k_i = wavevector(axis, "z")
    qpm = 2.0 * math.pi / crystal.poling_period
    blocks = _row_blocks(axis.size)

    def mismatch(rows: slice) -> np.ndarray:
        # delta_k's order of operations, less ``offset``
        return k_p[rows] - k_s[rows] - k_i + qpm - offset

    if pmf_mode is PmfMode.ANALYTIC:
        w0 = pump.center_omega / 2.0
        offset = float(delta_k(w0, w0, crystal))
        amplitude = np.empty(grid.shape)
        pmf = partial(pmf_analytic, sigma=sigma_eff, a=crystal.pmf_a)
    else:
        offset = qpm
        amplitude = np.empty(grid.shape, dtype=complex)
        lo, hi = zip(*((nu.min(), nu.max()) for nu in map(mismatch, blocks)))
        pmf = _sampled_domain_pmf(pattern, np.min(lo), np.max(hi))
    for rows in blocks:
        np.multiply(envelope[rows], pmf(mismatch(rows)), out=amplitude[rows])
    jsa = JsaGrid(grid=grid, amplitude=amplitude)
    # the amplitude is this call's own buffer: normalize it in place, with
    # the bits of normalized_copy
    np.multiply(jsa.amplitude, jsa._unit_scale(), out=jsa.amplitude)
    return jsa


def _bracketed_root(fn: Callable[[float], float], lo: float, hi: float,
                    xtol: float) -> float:
    """A root of ``fn`` in [lo, hi] by the Pegasus variant of regula falsi
    (Dowell & Jarratt, BIT 12, 503 (1972)): a secant step between the two
    ends of the bracket, scaling the kept end's value down whenever the
    same end is kept again. Stops when the bracket is at most ``xtol`` wide
    or the secant step rounds onto an end. ValueError when fn(lo) and
    fn(hi) have the same sign."""
    x0, x1 = lo, hi
    f0, f1 = fn(x0), fn(x1)
    if f0 * f1 > 0:
        raise ValueError("fn(lo) and fn(hi) must have opposite signs")
    x = x1
    while abs(x1 - x0) > xtol:
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not min(x0, x1) < x < max(x0, x1):
            break
        fx = fn(x)
        if fx == 0:
            break
        if (fx > 0) == (f1 > 0):
            f0 *= f1 / (f1 + fx)
        else:
            x0, f0 = x1, f1
        x1, f1 = x, fx
    return x


def design_lobe_wavelengths(crystal: CrystalSpec, pump: PumpSpec,
                            window: tuple[float, float] = (1500e-9, 1620e-9)
                            ) -> tuple[float, float]:
    """Signal wavelengths where the mismatch, less its degenerate-point
    value (the analytic PMF's argument), hits -a and +a.

    Solved along the energy-conservation anti-diagonal (omega_i fixed by
    the pump center), which is where the JSA lobes actually sit. Returns
    (shorter, longer) wavelength in metres.
    """
    wp0 = pump.center_omega
    w0 = wp0 / 2.0
    dk0 = float(delta_k(w0, w0, crystal))

    def nu(lam_s: float) -> float:
        ws = TWO_PI_C / lam_s
        return float(delta_k(ws, wp0 - ws, crystal)) - dk0

    lo, hi = window
    a = crystal.pmf_a
    lam_deg = TWO_PI_C / w0
    # xtol is absolute, in metres: a few ulps at 1.5 um
    lam_plus = _bracketed_root(lambda l: nu(l) - a, lo, lam_deg, xtol=1e-21)
    lam_minus = _bracketed_root(lambda l: nu(l) + a, lam_deg, hi, xtol=1e-21)
    return min(lam_plus, lam_minus), max(lam_plus, lam_minus)


def temporal_walkoff(crystal: CrystalSpec, wavelength_h: float,
                     wavelength_v: float,
                     group_index_fn: Callable[[float, str], float] | None = None
                     ) -> float:
    """Arrival-time difference t_V - t_H after crystal plus compensator, in s.

    Pairs are created on average at the crystal midpoint, so H (y axis) and
    V (z axis) photons see L/2 of the poled crystal; the compensation
    crystal is rotated 90 degrees, swapping the axes each photon rides.
    ``group_index_fn(wavelength, axis)`` may be injected for testing.
    """
    if group_index_fn is None:
        group_index_fn = sellmeier.group_index
    half = crystal.length / 2.0
    comp = crystal.compensation_length
    poled = half * (group_index_fn(wavelength_v, "z")
                    - group_index_fn(wavelength_h, "y"))
    compensated = comp * (group_index_fn(wavelength_v, "y")
                          - group_index_fn(wavelength_h, "z"))
    return (poled + compensated) / C_LIGHT


_TIME_BANDWIDTH = {PulseShape.SECH2: 0.315, PulseShape.GAUSSIAN: 0.441}


def transform_limited_fwhm(pump: PumpSpec) -> float:
    """Transform-limited pulse duration (s) implied by the pump bandwidth."""
    dnu = C_LIGHT * pump.bandwidth_fwhm / pump.center_wavelength**2
    return _TIME_BANDWIDTH[pump.pulse_shape] / dnu


_PEAK_SHAPE_FACTORS = {PulseShape.SECH2: 0.88, PulseShape.GAUSSIAN: 0.94}


def peak_power(pump: PumpSpec, pulse_fwhm: float) -> float:
    """Peak pulse power P_avg * factor / (rep_rate * pulse_fwhm) in W, with
    the shape factor of the pump's pulse shape."""
    if pulse_fwhm <= 0:
        raise ConfigError("pulse_fwhm must be positive")
    shape_factor = _PEAK_SHAPE_FACTORS[pump.pulse_shape]
    return shape_factor * pump.average_power / (pump.repetition_rate * pulse_fwhm)


def coupling_coefficient(power: float,
                         reference: tuple[float, float]) -> float:
    """Normalized coupling kappa at ``power``, scaled from a reference point.

    The interaction strength scales with the pump field amplitude, so
    kappa = kappa_ref * sqrt(power / power_ref).
    """
    power_ref, kappa_ref = reference
    if power_ref <= 0 or kappa_ref <= 0:
        raise ConfigError("reference power and kappa must be positive")
    if power < 0:
        raise ConfigError("power must be non-negative")
    return kappa_ref * math.sqrt(power / power_ref)
