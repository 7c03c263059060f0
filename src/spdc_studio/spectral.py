"""Joint-spectrum analysis.

Everything here operates on sampled joint spectra: intensity conversion,
amplitude recovery from a measured intensity, the signal/idler exchange
overlap integral, the Schmidt purity and Schmidt number, splitting the
two-lobe spectrum at a cut wavelength, and the 2x2 lobe-overlap matrix that
feeds the polarization density matrix.

The Schmidt purity comes from the Gram matrix of the quadrature-weighted
amplitude, not from a singular-value decomposition, so no Schmidt
coefficients are computed or returned. The Gram matrix is formed on the
smaller side, and in real arithmetic when the amplitude is real.

A lobe pair is its parent JSA split at one signal row, as the dichroic
splitter routes each photon by wavelength: the lobes are row views of the
parent amplitude, never copies of it.

``JsaGrid`` stores a real amplitude (the analytic JSA and ``jsa_from_jsi``)
as float64 and only one with a nonzero imaginary part (the
domain-sampled JSA) as complex128, so every kernel here takes real or
complex arithmetic by the stored dtype alone.

The quadrature weights are separable, w(ws, wi) = w_s(ws) w_i(wi), so every
weighted sum here scales rows by w_s and columns by w_i (a norm is
w_s @ |f|^2 @ w_i); no 2-D grid of weights is built.
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

    ``split`` is the first signal row above ``cut_frequency``. f1, the
    lower-right lobe (omega_s above the cut, signal wavelength below it),
    is the parent's rows from ``split`` on and f2 the rows before it, so
    the two lobes reassemble the parent exactly. Only the parent ``jsa``
    is held; ``f1`` and ``f2`` are read-only views of its rows.
    """

    jsa: JsaGrid
    split: int
    cut_frequency: float

    @property
    def f1(self) -> np.ndarray:
        return _read_only(self.jsa.amplitude[self.split:])

    @property
    def f2(self) -> np.ndarray:
        return _read_only(self.jsa.amplitude[:self.split])


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt purity of a JSA and its Schmidt number (1 / purity)."""

    purity: float
    schmidt_number: float


def jsi_of(jsa: JsaGrid) -> JsiGrid:
    """Elementwise squared magnitude of the amplitude."""
    return JsiGrid(grid=jsa.grid, intensity=np.abs(jsa.amplitude) ** 2)


def jsa_from_jsi(jsi: JsiGrid) -> JsaGrid:
    """Square root of a normalized intensity with a pi phase between lobes.

    Every sample with omega_i > omega_s is negated, which is the relative
    phase the two-lobe design imprints.
    """
    grid = jsi.grid
    total = float(grid.signal_weights @ jsi.intensity @ grid.idler_weights)
    if total <= 0:
        raise ConfigError("cannot build an amplitude from an all-zero JSI")
    # built in one buffer: the quotient, its root, then the sign
    amplitude = np.divide(jsi.intensity, total)
    np.sqrt(amplitude, out=amplitude)
    ws = grid.signal_axis[:, np.newaxis]
    wi = grid.idler_axis[np.newaxis, :]
    np.negative(amplitude, where=wi > ws, out=amplitude)
    return JsaGrid(grid=grid, amplitude=amplitude)


_TILE = 64  # grid points per side of an overlap_integral tile


def _exchange_block(f: np.ndarray, w_s: np.ndarray, w_i: np.ndarray,
                    rows: slice, cols: slice) -> complex:
    """sum f(ws, wi) conj(f(wi, ws)) dws dwi over the block of ``rows`` by
    ``cols``: the weighted block against the transpose of its mirror block
    (``cols`` by ``rows``), a view that ``vdot`` copies."""
    weighted = f[rows, cols] * w_s[rows, np.newaxis]
    weighted *= w_i[cols]
    return complex(np.vdot(f[cols, rows].T, weighted))


def overlap_integral(jsa: JsaGrid) -> float:
    """Exchange-symmetry overlap of the JSA with its transpose, in [0, 1].

    eta = (sum f(ws, wi) conj(f(wi, ws)) dws dwi / ||f||^2)^2, which does
    not depend on the scale of f, as ``schmidt`` does not. Equals 1 exactly
    when f is symmetric or antisymmetric under exchange, and upper-bounds
    the polarization entanglement the source can reach. A JSA of zero or
    non-finite norm raises ConfigError.

    The sum runs over square tiles of ``_TILE`` points. Swapping ws and wi
    turns the sum over tile (b, a) into the complex conjugate of the sum
    over tile (a, b), so the inner product is real: the diagonal tiles plus
    2 Re of each tile with a < b. Each tile is weighted on its own, so no
    full-grid weighted or transposed copy is made.
    """
    if not jsa.grid.axes_identical:
        raise ConfigError("overlap integral needs identical signal/idler axes")
    norm_squared = jsa.norm_squared
    if not 0 < norm_squared < math.inf:
        raise ConfigError(f"cannot take the overlap integral of a JSA of "
                          f"norm {norm_squared}; it is all-zero or overflows")
    f = jsa.amplitude
    w_s, w_i = jsa.grid.signal_weights, jsa.grid.idler_weights
    tiles = [slice(t, t + _TILE) for t in range(0, f.shape[0], _TILE)]
    inner = 0.0
    for a, rows in enumerate(tiles):
        for b, cols in enumerate(tiles[a:], start=a):
            term = _exchange_block(f, w_s, w_i, rows, cols).real
            inner += term if a == b else 2.0 * term
    return float((inner / norm_squared) ** 2)


def _gram_purity(amp: np.ndarray, w_s: np.ndarray, w_i: np.ndarray,
                 zero_error: str) -> float:
    """||G||_F^2 / (tr G)^2 for G the Gram matrix of ``amp`` weighted by
    sqrt(w_s) on its rows and sqrt(w_i) on its columns (see ``schmidt``);
    a G of zero trace, from a zero amplitude or no rows, raises
    ``zero_error``."""
    weighted = amp * np.sqrt(w_s)[:, np.newaxis]
    weighted *= np.sqrt(w_i)
    adjoint = weighted.conj().T  # a view of weighted itself when it is real
    if weighted.shape[0] < weighted.shape[1]:
        gram = weighted @ adjoint
    else:
        gram = adjoint @ weighted
    norm_squared = float(np.trace(gram).real)
    if norm_squared <= 0:
        raise ConfigError(zero_error)
    return float(np.vdot(gram, gram).real) / norm_squared**2


def schmidt(jsa: JsaGrid) -> SchmidtResult:
    """Schmidt purity from the Gram matrix of the weighted amplitude.

    With A the quadrature-weighted amplitude, the Schmidt weights are the
    eigenvalues of G = A^H A divided by tr G, so the purity sum(lambda_k^2)
    is ||G||_F^2 / (tr G)^2 exactly. The ratio does not depend on the
    normalization of the JSA. Of A^H A and A A^H, which share ||G||_F^2
    and tr G, the smaller is formed. A real amplitude, which ``JsaGrid``
    stores as float64 (the analytic JSA and ``jsa_from_jsi``), takes real
    arithmetic, where A^T A runs as a symmetric rank-k update; only a
    complex128 amplitude, one with a nonzero imaginary part, takes complex
    arithmetic.
    """
    grid = jsa.grid
    purity = _gram_purity(
        jsa.amplitude, grid.signal_weights, grid.idler_weights,
        "cannot take the Schmidt purity of an all-zero JSA")
    return SchmidtResult(purity=purity, schmidt_number=1.0 / purity)


def _marginal_spectrum(jsi: JsiGrid) -> tuple[np.ndarray, np.ndarray]:
    """Signal marginal intensity density (signal omega axis, density)."""
    return jsi.grid.signal_axis, jsi.intensity @ jsi.grid.idler_weights


def _suggest_cut(jsi: JsiGrid) -> float:
    """Wavelength of the marginal-intensity minimum between the two lobes."""
    omega, density = _marginal_spectrum(jsi)
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
    """Split the JSA at a signal-axis cut wavelength, with no copy: the
    returned pair holds ``jsa`` and the index of its first f1 row.

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

    # intensity per signal row, integrated over the idler axis
    row_intensity = (np.abs(jsa.amplitude) ** 2 @ grid.idler_weights
                     * grid.signal_weights)
    total = float(np.sum(row_intensity))
    if total <= 0:
        raise ConfigError("cannot split an all-zero JSA")
    strip = np.abs(lam_s - cut_wavelength) <= _STRIP_HALFWIDTH
    strip_fraction = float(np.sum(row_intensity[strip])) / total
    if strip_fraction > _MAX_CUT_FRACTION:
        suggestion = _suggest_cut(jsi_of(jsa))
        raise ConfigError(
            f"cut at {cut_wavelength * 1e9:.2f} nm lies inside a lobe "
            f"({100 * strip_fraction:.1f}% of intensity within "
            f"+-{_STRIP_HALFWIDTH * 1e9:.1f} nm); try a cut near "
            f"{suggestion * 1e9:.1f} nm"
        )

    # the signal axis ascends strictly, so f1 = rows with omega_s > cut
    split = int(np.searchsorted(grid.signal_axis, cut_omega, side="right"))
    return LobePair(jsa=jsa, split=split, cut_frequency=cut_omega)


def lobe_overlap_matrix(lobes: LobePair) -> np.ndarray:
    """2x2 matrix of lobe overlaps [[f11, f12], [f21, f22]].

    Diagonal entries are the intensity weights of each lobe; the cross term
    overlaps f1 with the exchange-transposed f2, which is how the two lobes
    meet after the frequency relabeling of the splitting element. For a
    normalized parent JSA, f11 + f22 = 1.

    f11 sums over the parent's rows from the split on and f22 over the rows
    before it. f1 is zero off its rows and f2 off its own, so the exchange
    sum f12 = sum f1(ws, wi) conj(f2(wi, ws)) lives on the one block with
    signal in f1's rows and idler in f2's: a quarter of the grid for a
    split at the middle.
    """
    grid = lobes.jsa.grid
    if not grid.axes_identical:
        raise ConfigError("lobe overlaps need identical signal/idler axes")
    w_s, w_i = grid.signal_weights, grid.idler_weights
    a, k = lobes.jsa.amplitude, lobes.split
    f11 = float(w_s[k:] @ np.abs(a[k:]) ** 2 @ w_i)
    f22 = float(w_s[:k] @ np.abs(a[:k]) ** 2 @ w_i)
    f12 = _exchange_block(a, w_s, w_i, slice(k, None), slice(None, k))
    # the lobes are not normalized (f11 ~ 3e25 on a window in rad/s), so
    # the rounding slack scales with the bound
    if abs(f12) > math.sqrt(f11 * f22) * (1 + 1e-9):
        raise ConvergenceError(
            "lobe overlap violates the Cauchy-Schwarz bound; "
            "the lobes do not come from a consistent amplitude"
        )
    return np.array([[f11, f12], [np.conj(f12), f22]], dtype=complex)


def single_lobe_purity(lobes: LobePair, which: str = "f1") -> float:
    """Schmidt purity of one lobe on its own (independent of its norm)."""
    if which not in ("f1", "f2"):
        raise ConfigError(f"unknown lobe {which!r}, expected 'f1' or 'f2'")
    grid = lobes.jsa.grid
    rows = slice(lobes.split, None) if which == "f1" else slice(lobes.split)
    return _gram_purity(lobes.jsa.amplitude[rows], grid.signal_weights[rows],
                        grid.idler_weights, f"lobe {which} is identically zero")


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
    omega, density = _marginal_spectrum(jsi)
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
