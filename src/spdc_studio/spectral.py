"""Joint-spectrum analysis.

Everything here operates on sampled joint spectra: intensity conversion,
amplitude recovery from a measured intensity, the signal/idler exchange
overlap integral, the Schmidt purity and Schmidt number, splitting the
two-lobe spectrum at a cut wavelength, and the 2x2 lobe-overlap matrix that
feeds the polarization density matrix.

The Schmidt purity comes from the Gram matrix of the quadrature-weighted
amplitude, not from a singular-value decomposition, so no Schmidt
coefficients are computed or returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .optics import TWO_PI_C, FrequencyGrid, JsaGrid

__all__ = [
    "JsiGrid",
    "LobePair",
    "SchmidtResult",
    "jsi_of",
    "jsa_from_jsi",
    "overlap_integral",
    "schmidt",
    "split_lobes",
    "lobe_overlap_matrix",
    "single_lobe_purity",
    "marginal_spectrum",
    "lobe_metrics",
]


@dataclass(frozen=True)
class JsiGrid:
    """Non-negative joint spectral intensity on a FrequencyGrid."""

    grid: FrequencyGrid
    intensity: np.ndarray

    def __post_init__(self) -> None:
        intensity = np.asarray(self.intensity, dtype=float)
        if intensity.shape != self.grid.shape:
            raise ConfigError(
                f"intensity shape {intensity.shape} does not match grid "
                f"{self.grid.shape}"
            )
        if not np.all(np.isfinite(intensity)):
            raise ConfigError("JSI contains non-finite entries")
        if np.any(intensity < 0):
            raise ConfigError("JSI must be non-negative")
        object.__setattr__(self, "intensity", intensity)


@dataclass(frozen=True)
class LobePair:
    """The JSA split at a cut frequency into its two lobes.

    f1 holds the lower-right lobe (omega_s above the cut, signal wavelength
    below it), f2 the complement; their amplitudes sum to the parent JSA
    exactly.
    """

    f1: JsaGrid
    f2: JsaGrid
    cut_frequency: float


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt purity of a JSA and its Schmidt number (1 / purity)."""

    purity: float
    schmidt_number: float


def _weights(grid: FrequencyGrid) -> np.ndarray:
    return np.outer(grid.signal_weights, grid.idler_weights)


def jsi_of(jsa: JsaGrid) -> JsiGrid:
    """Elementwise squared magnitude of the amplitude."""
    return JsiGrid(grid=jsa.grid, intensity=np.abs(jsa.amplitude) ** 2)


def jsa_from_jsi(jsi: JsiGrid) -> JsaGrid:
    """Square root of a normalized intensity with a pi phase between lobes.

    Every sample with omega_i > omega_s is negated, which is the relative
    phase the two-lobe design imprints.
    """
    total = float(np.sum(jsi.intensity * _weights(jsi.grid)))
    if total <= 0:
        raise ConfigError("cannot build an amplitude from an all-zero JSI")
    amplitude = np.sqrt(jsi.intensity / total).astype(complex)
    ws = jsi.grid.signal_axis[:, np.newaxis]
    wi = jsi.grid.idler_axis[np.newaxis, :]
    amplitude = np.where(wi > ws, -amplitude, amplitude)
    return JsaGrid(grid=jsi.grid, amplitude=amplitude, normalized=True)


def overlap_integral(jsa: JsaGrid) -> float:
    """Exchange-symmetry overlap of the JSA with its transpose, in [0, 1].

    eta = |sum f(ws, wi) conj(f(wi, ws)) dws dwi|^2 for unit-normalized f.
    Equals 1 exactly when f is symmetric or antisymmetric under exchange,
    and upper-bounds the polarization entanglement the source can reach.
    """
    if not jsa.grid.axes_identical:
        raise ConfigError("overlap integral needs identical signal/idler axes")
    jsa = jsa if jsa.normalized else jsa.normalized_copy()
    f = jsa.amplitude
    inner = np.sum(f * np.conj(f.T) * _weights(jsa.grid))
    return float(np.abs(inner) ** 2)


def schmidt(jsa: JsaGrid) -> SchmidtResult:
    """Schmidt purity from the Gram matrix of the weighted amplitude.

    With A the quadrature-weighted amplitude, the Schmidt weights are the
    eigenvalues of G = A^H A divided by tr G, so the purity sum(lambda_k^2)
    is ||G||_F^2 / (tr G)^2 exactly. The ratio does not depend on the
    normalization of the JSA.
    """
    grid = jsa.grid
    weighted = jsa.amplitude * np.sqrt(grid.signal_weights)[:, np.newaxis]
    weighted *= np.sqrt(grid.idler_weights)
    gram = weighted.conj().T @ weighted
    norm_squared = float(np.trace(gram).real)
    if norm_squared <= 0:
        raise ConfigError("cannot take the Schmidt purity of an all-zero JSA")
    purity = float(np.vdot(gram, gram).real) / norm_squared**2
    return SchmidtResult(purity=purity, schmidt_number=1.0 / purity)


def marginal_spectrum(jsi: JsiGrid) -> tuple[np.ndarray, np.ndarray]:
    """Signal marginal intensity density (signal omega axis, density)."""
    return jsi.grid.signal_axis, jsi.intensity @ jsi.grid.idler_weights


def _suggest_cut(jsi: JsiGrid) -> float:
    """Wavelength of the marginal-intensity minimum between the two lobes."""
    omega, density = marginal_spectrum(jsi)
    peak = int(np.argmax(density))
    # second peak: best sample at least one lobe-width away on the other side
    mask = np.abs(omega - omega[peak]) > 0.2 * (omega[-1] - omega[0])
    if not np.any(mask):
        return float(TWO_PI_C / omega[peak])
    other = int(np.arange(omega.size)[mask][np.argmax(density[mask])])
    lo, hi = sorted((peak, other))
    valley = lo + int(np.argmin(density[lo:hi + 1]))
    return float(TWO_PI_C / omega[valley])


_MAX_CUT_FRACTION = 0.05
_STRIP_HALFWIDTH = 1e-9  # m


def split_lobes(jsa: JsaGrid, cut_wavelength: float) -> LobePair:
    """Split the JSA at a signal-axis cut wavelength.

    The cut must fall between the lobes: if more than ``_MAX_CUT_FRACTION``
    of the total intensity lies within ``_STRIP_HALFWIDTH`` of the cut on
    the signal axis, the cut is rejected and the error suggests the
    marginal-valley wavelength instead.
    """
    if cut_wavelength <= 0:
        raise ConfigError("cut_wavelength must be positive")
    grid = jsa.grid
    cut_omega = TWO_PI_C / cut_wavelength
    lam_s = TWO_PI_C / grid.signal_axis

    w = _weights(grid)
    intensity = np.abs(jsa.amplitude) ** 2 * w
    total = float(np.sum(intensity))
    if total <= 0:
        raise ConfigError("cannot split an all-zero JSA")
    strip = np.abs(lam_s - cut_wavelength) <= _STRIP_HALFWIDTH
    strip_fraction = float(np.sum(intensity[strip, :])) / total
    if strip_fraction > _MAX_CUT_FRACTION:
        suggestion = _suggest_cut(jsi_of(jsa))
        raise ConfigError(
            f"cut at {cut_wavelength * 1e9:.2f} nm lies inside a lobe "
            f"({100 * strip_fraction:.1f}% of intensity within "
            f"+-{_STRIP_HALFWIDTH * 1e9:.1f} nm); try a cut near "
            f"{suggestion * 1e9:.1f} nm"
        )

    in_f1 = grid.signal_axis > cut_omega
    amp1 = np.where(in_f1[:, np.newaxis], jsa.amplitude, 0.0)
    amp2 = jsa.amplitude - amp1
    return LobePair(
        f1=JsaGrid(grid=grid, amplitude=amp1),
        f2=JsaGrid(grid=grid, amplitude=amp2),
        cut_frequency=cut_omega,
    )


def lobe_overlap_matrix(lobes: LobePair) -> np.ndarray:
    """2x2 matrix of lobe overlaps [[f11, f12], [f21, f22]].

    Diagonal entries are the intensity weights of each lobe; the cross term
    overlaps f1 with the exchange-transposed f2, which is how the two lobes
    meet after the frequency relabeling of the splitting element. For a
    normalized parent JSA, f11 + f22 = 1.
    """
    grid = lobes.f1.grid
    if not grid.axes_identical:
        raise ConfigError("lobe overlaps need identical signal/idler axes")
    w = _weights(grid)
    a1 = lobes.f1.amplitude
    a2 = lobes.f2.amplitude
    f11 = float(np.sum(np.abs(a1) ** 2 * w))
    f22 = float(np.sum(np.abs(a2) ** 2 * w))
    f12 = complex(np.sum(a1 * np.conj(a2.T) * w))
    if abs(f12) > math.sqrt(f11 * f22) + 1e-9:
        raise ConvergenceError(
            "lobe overlap violates the Cauchy-Schwarz bound; "
            "the lobes do not come from a consistent amplitude"
        )
    return np.array([[f11, f12], [np.conj(f12), f22]], dtype=complex)


def single_lobe_purity(lobes: LobePair, which: str = "f1") -> float:
    """Schmidt purity of one lobe on its own (independent of its norm)."""
    if which not in ("f1", "f2"):
        raise ConfigError(f"unknown lobe {which!r}, expected 'f1' or 'f2'")
    lobe = lobes.f1 if which == "f1" else lobes.f2
    if not np.any(lobe.amplitude):
        raise ConfigError(f"lobe {which} is identically zero")
    return schmidt(lobe).purity


def _fwhm_of(x: np.ndarray, y: np.ndarray) -> float:
    """FWHM by linear interpolation of the half-maximum crossings."""
    peak = int(np.argmax(y))
    half = y[peak] / 2.0
    left = x[0]
    for j in range(peak, 0, -1):
        if y[j - 1] < half <= y[j]:
            t = (half - y[j - 1]) / (y[j] - y[j - 1])
            left = x[j - 1] + t * (x[j] - x[j - 1])
            break
    right = x[-1]
    for j in range(peak, y.size - 1):
        if y[j + 1] < half <= y[j]:
            t = (half - y[j + 1]) / (y[j] - y[j + 1])
            right = x[j + 1] - t * (x[j + 1] - x[j])
            break
    return float(right - left)


def _peak_of(x: np.ndarray, y: np.ndarray) -> float:
    """Peak position refined by a parabola through the three top samples."""
    j = int(np.argmax(y))
    if j == 0 or j == y.size - 1:
        return float(x[j])
    denom = y[j - 1] - 2.0 * y[j] + y[j + 1]
    if denom >= 0:
        return float(x[j])
    shift = 0.5 * (y[j - 1] - y[j + 1]) / denom
    return float(x[j] + shift * 0.5 * (x[j + 1] - x[j - 1]))


def lobe_metrics(jsi: JsiGrid, cut_wavelength: float) -> dict:
    """Peak, centroid and FWHM of each lobe in the signal marginal.

    Returned wavelengths are in nm, keyed by lobe: 'short' is the lobe
    below the cut wavelength, 'long' the one above. The centroid is
    robust against noise but pulled by asymmetric tails; the refined peak
    is what lobe positions are usually quoted as.
    """
    omega, density = marginal_spectrum(jsi)
    lam = TWO_PI_C / omega
    # express the marginal as a density in wavelength so centroids and
    # widths read directly in nm
    dens_lam = density * omega**2 / TWO_PI_C
    order = np.argsort(lam)
    lam, dens_lam = lam[order], dens_lam[order]

    out = {}
    for name, mask in (("short", lam < cut_wavelength),
                       ("long", lam >= cut_wavelength)):
        if np.sum(dens_lam[mask]) <= 0:
            raise ConfigError(f"no intensity on the {name}-wavelength side of the cut")
        lam_m, dens_m = lam[mask], dens_lam[mask]
        center = float(np.sum(lam_m * dens_m) / np.sum(dens_m))
        out[name] = {
            "center_nm": center * 1e9,
            "peak_nm": _peak_of(lam_m, dens_m) * 1e9,
            "fwhm_nm": _fwhm_of(lam_m, dens_m) * 1e9,
        }
    return out
