"""Joint-spectrum analysis.

Everything here operates on sampled joint spectra: intensity conversion,
amplitude recovery from a measured intensity, the signal/idler exchange
overlap integral, the Schmidt purity and Schmidt number, splitting the
two-lobe spectrum at a cut wavelength, and the 2x2 lobe-overlap matrix that
feeds the polarization density matrix.

The Schmidt purity comes from the Gram matrix of the quadrature-weighted
amplitude, not from a singular-value decomposition, so no Schmidt
coefficients are computed or returned. The Gram matrix is taken on the
smaller side, and in real arithmetic when the amplitude is real; it is
summed one block of rows at a time and never held whole, and only the
block being summed is weighted, so no weighted copy of the amplitude is
made either. The exchange sums run a chunk of rows at a time, so each
kernel holds its input and a fraction of a grid.

A lobe pair is its parent JSA split at one signal row, as the dichroic
splitter routes each photon by wavelength. It holds the parent, the split
and the parent's signal marginal; ``two_lobe_summary`` runs the whole
analysis of one cut on it, with one Gram pass whose blocks break there.

``JsaGrid`` stores a real amplitude (the analytic JSA and ``jsa_from_jsi``)
as float64 and only one with a nonzero imaginary part (the
domain-sampled JSA) as complex128, so every kernel here takes real or
complex arithmetic by the stored dtype alone.

The quadrature weights are separable, w(ws, wi) = w_s(ws) w_i(wi), so every
weighted sum here scales rows by w_s and columns by w_i, and every |f|^2 sum
reads ``signal_marginal``, |f|^2 @ w_i; no 2-D grid of weights is built.
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
    "two_lobe_summary",
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

    @property
    def signal_marginal(self) -> np.ndarray:
        """The intensity of each signal row integrated over the idler axis."""
        return self.intensity @ self.grid.idler_weights


@dataclass(frozen=True)
class LobePair:
    """The JSA split at a cut frequency into its two lobes.

    ``split`` is the first signal row above the cut frequency. f1, the
    lower-right lobe (omega_s above the cut, signal wavelength below it),
    is the parent's rows from ``split`` on and f2 the rows before it, so
    the two lobes reassemble the parent exactly. Only the parent ``jsa``,
    the split and the parent's ``signal_marginal`` are held.
    """

    jsa: JsaGrid
    split: int
    marginal: np.ndarray


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
    phase the two-lobe design imprints. A JSI whose weighted total
    overflows the float range, or is zero, raises ConfigError.
    """
    grid = jsi.grid
    with np.errstate(over="ignore"):
        total = float(grid.signal_weights @ jsi.intensity @ grid.idler_weights)
    if not math.isfinite(total):
        raise ConfigError("the JSI's weighted total overflows the float "
                          "range; scale its values down")
    if total <= 0:
        raise ConfigError("cannot build an amplitude from an all-zero JSI")
    # built in one buffer: the quotient, its root, then the sign
    amplitude = np.divide(jsi.intensity, total)
    np.sqrt(amplitude, out=amplitude)
    ws = grid.signal_axis[:, np.newaxis]
    wi = grid.idler_axis[np.newaxis, :]
    np.negative(amplitude, where=wi > ws, out=amplitude)
    return JsaGrid(grid=grid, amplitude=amplitude)


_EXCHANGE_CHUNK = 64  # rows of a block per step of an exchange sum


def _exchange_block(f: np.ndarray, w_s: np.ndarray, w_i: np.ndarray,
                    rows: slice, cols: slice) -> complex:
    """sum f(ws, wi) conj(f(wi, ws)) dws dwi over the block of ``rows`` by
    ``cols``: the weighted block against the transpose of its mirror block
    (``cols`` by ``rows``). It is summed ``_EXCHANGE_CHUNK`` rows at a time,
    so neither the weighted rows nor the contiguous copy that ``vdot``
    makes of the transposed mirror grows past one chunk."""
    start, stop, _ = rows.indices(f.shape[0])
    total = 0j
    for r in range(start, stop, _EXCHANGE_CHUNK):
        chunk = slice(r, min(r + _EXCHANGE_CHUNK, stop))
        weighted = f[chunk, cols] * w_s[chunk, np.newaxis]
        weighted *= w_i[cols]
        total += np.vdot(f[cols, chunk].T, weighted)
    return complex(total)


def _exchange_overlap(jsa: JsaGrid, split: int, f_mn: np.ndarray) -> float:
    """``overlap_integral`` over the blocks of a split at signal row
    ``split`` with lobe matrix ``f_mn``. Under ws <-> wi the block of rows
    before the split by columns after it is the conjugate of f12, the
    block after by before, so the inner product is the same-side blocks
    plus 2 Re f12, and the norm is f11 + f22."""
    norm_squared = float(f_mn[0, 0].real + f_mn[1, 1].real)
    if not 0 < norm_squared < math.inf:
        raise ConfigError(f"cannot take the overlap integral of a JSA of "
                          f"norm {norm_squared}; it is all-zero or overflows")
    f = jsa.amplitude
    w_s, w_i = jsa.grid.signal_weights, jsa.grid.idler_weights
    before, after = slice(None, split), slice(split, None)
    inner = (_exchange_block(f, w_s, w_i, before, before).real
             + _exchange_block(f, w_s, w_i, after, after).real
             + 2.0 * f_mn[0, 1].real)
    return float((inner / norm_squared) ** 2)


def overlap_integral(jsa: JsaGrid) -> float:
    """Exchange-symmetry overlap of the JSA with its transpose, in [0, 1].

    eta = (sum f(ws, wi) conj(f(wi, ws)) dws dwi / ||f||^2)^2, which does
    not depend on the scale of f, as ``schmidt`` does not. Equals 1 exactly
    when f is symmetric or antisymmetric under exchange, and upper-bounds
    the polarization entanglement the source can reach. A JSA of zero or
    non-finite norm raises ConfigError. The sum is split at the middle row.
    """
    lobes = LobePair(jsa, jsa.amplitude.shape[0] // 2, jsa.signal_marginal)
    return _exchange_overlap(jsa, lobes.split, lobe_overlap_matrix(lobes))


_GRAM_BLOCK = 128  # rows of the weighted amplitude per Gram block


def _gram_purities(jsa: JsaGrid, rows: slice = slice(None),
                   split: int | None = None,
                   zero_error: str = "cannot take the Schmidt purity of an "
                                     "all-zero JSA") -> tuple[float, dict]:
    """||G||_F^2 / (tr G)^2 for G the Gram matrix of the amplitude's
    ``rows`` weighted by sqrt(w_s) on its rows and sqrt(w_i) on its columns
    (see ``schmidt``) and, given a ``split`` row, the same for each lobe:
    {"f1": rows from the split on, "f2": rows before it}, else {}. A G of
    zero trace, from a zero amplitude or no rows, raises ``zero_error``, and
    an empty lobe "lobe f1 (or f2) is identically zero".

    With W the weighted amplitude, G = W W^H. Over row blocks W_a of W its
    blocks are G_ab = W_a W_b^H, with G_ba = G_ab^H, so ||G||_F^2 is the sum
    of ||G_aa||^2 plus twice each ||G_ab||^2 with a < b, and tr G the sum of
    the tr G_aa. The blocks break at the split, so the Gram of each lobe is
    a diagonal block G_ll of G and ||G||^2 = ||G_11||^2 + ||G_22||^2 +
    2 ||G_12||^2: one pass gives all three purities. With no split, the
    amplitude is turned by a transposed view so that its rows are the
    smaller side. One block of G is held at a time, never the whole.

    The weights are separable, W = diag(r) A diag(c), so only one block is
    ever weighted, in one reused buffer: W_b = A_b r_b c gives G_bb =
    W_b W_b^H (a symmetric rank-k update when A is real); scaled by c once
    more, it gives each G_ba, a < b, as (W_b c) A_a^H with its columns
    scaled by r_a. For a complex A the buffer is conjugated instead, which
    leaves ||G_ba|| as it is and A_a^T a view.
    """
    grid = jsa.grid
    amplitude = jsa.amplitude[rows]
    row_root = np.sqrt(grid.signal_weights[rows])
    col_root = np.sqrt(grid.idler_weights)
    if split is None and amplitude.shape[0] > amplitude.shape[1]:
        # W^T conj(W) = conj(W^H W): the same norm and trace; the weights
        # swap with the axes
        amplitude, row_root, col_root = amplitude.T, col_root, row_root
    k, n = split or 0, amplitude.shape[0]
    blocks = [(lobe, slice(r, min(r + _GRAM_BLOCK, end)))
              for lobe, start, end in (("f2", 0, k), ("f1", k, n))
              for r in range(start, end, _GRAM_BLOCK)]
    buffer = np.empty((min(n, _GRAM_BLOCK), amplitude.shape[1]),
                      dtype=amplitude.dtype)
    sums = {"G": [0.0, 0.0], "f1": [0.0, 0.0], "f2": [0.0, 0.0]}  # tr, ||.||^2
    for b, (lobe, cols) in enumerate(blocks):
        weighted = buffer[:cols.stop - cols.start]
        np.multiply(amplitude[cols], row_root[cols, np.newaxis], out=weighted)
        weighted *= col_root
        gram = weighted @ weighted.conj().T  # .conj() is a view when real
        trace = float(np.trace(gram).real)
        square = float(np.vdot(gram, gram).real)
        weighted *= col_root
        if np.iscomplexobj(weighted):
            np.conjugate(weighted, out=weighted)
        for other, block in blocks[:b]:
            gram = weighted @ amplitude[block].T
            gram *= row_root[block]
            term = 2.0 * float(np.vdot(gram, gram).real)
            for name in ("G", lobe) if other == lobe else ("G",):
                sums[name][1] += term
        for name in ("G", lobe):
            sums[name][0] += trace
            sums[name][1] += square

    def purity(name: str, error: str) -> float:
        trace, squared_sum = sums[name]
        if trace <= 0:
            raise ConfigError(error)
        return squared_sum / trace**2

    whole = purity("G", zero_error)
    return whole, {} if split is None else {
        w: purity(w, f"lobe {w} is identically zero") for w in ("f1", "f2")}


def schmidt(jsa: JsaGrid) -> SchmidtResult:
    """Schmidt purity from the Gram matrix of the weighted amplitude.

    With A the quadrature-weighted amplitude, the Schmidt weights are the
    eigenvalues of G = A^H A divided by tr G, so the purity sum(lambda_k^2)
    is ||G||_F^2 / (tr G)^2 exactly. The ratio does not depend on the
    normalization of the JSA. Of A^H A and A A^H, which share ||G||_F^2
    and tr G, the smaller is taken, and summed by row blocks without
    being formed whole. A real amplitude, which ``JsaGrid`` stores as
    float64 (the analytic JSA and ``jsa_from_jsi``), takes real
    arithmetic, where each diagonal block runs as a symmetric rank-k
    update; only a complex128 amplitude, one with a nonzero imaginary
    part, takes complex arithmetic.
    """
    purity, _ = _gram_purities(jsa)
    return SchmidtResult(purity=purity, schmidt_number=1.0 / purity)


def _suggest_cut(omega: np.ndarray, density: np.ndarray) -> float:
    """Wavelength of the valley of the marginal ``density`` between lobes."""
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

    marginal = jsa.signal_marginal
    row_intensity = marginal * grid.signal_weights
    total = float(np.sum(row_intensity))
    if total <= 0:
        raise ConfigError("cannot split an all-zero JSA")
    strip = np.abs(lam_s - cut_wavelength) <= _STRIP_HALFWIDTH
    strip_fraction = float(np.sum(row_intensity[strip])) / total
    if strip_fraction > _MAX_CUT_FRACTION:
        suggestion = _suggest_cut(grid.signal_axis, marginal)
        raise ConfigError(
            f"cut at {cut_wavelength * 1e9:.2f} nm lies inside a lobe "
            f"({100 * strip_fraction:.1f}% of intensity within "
            f"+-{_STRIP_HALFWIDTH * 1e9:.1f} nm); try a cut near "
            f"{suggestion * 1e9:.1f} nm"
        )

    # the signal axis ascends strictly, so f1 = rows with omega_s > cut
    split = int(np.searchsorted(grid.signal_axis, cut_omega, side="right"))
    return LobePair(jsa=jsa, split=split, marginal=marginal)


def lobe_overlap_matrix(lobes: LobePair) -> np.ndarray:
    """2x2 matrix of lobe overlaps [[f11, f12], [f21, f22]].

    Diagonal entries are the intensity weights of each lobe; the cross term
    overlaps f1 with the exchange-transposed f2, which is how the two lobes
    meet after the frequency relabeling of the splitting element. For a
    normalized parent JSA, f11 + f22 = 1.

    f11 sums the parent's signal marginal over the rows from the split on
    and f22 over the rows before it. f1 is zero off its rows and f2 off its
    own, so the exchange sum f12 = sum f1(ws, wi) conj(f2(wi, ws)) lives on
    the one block with signal in f1's rows and idler in f2's: a quarter of
    the grid for a split at the middle.
    """
    grid = lobes.jsa.grid
    if not grid.axes_identical:
        raise ConfigError("overlaps need identical signal/idler axes")
    w_s, w_i = grid.signal_weights, grid.idler_weights
    a, k, m = lobes.jsa.amplitude, lobes.split, lobes.marginal
    f11, f22 = float(w_s[k:] @ m[k:]), float(w_s[:k] @ m[:k])
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
    rows = slice(lobes.split, None) if which == "f1" else slice(lobes.split)
    return _gram_purities(lobes.jsa, rows,
                          zero_error=f"lobe {which} is identically zero")[0]


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


def lobe_metrics(spectrum: JsaGrid | JsiGrid, cut_wavelength: float) -> dict:
    """Peak, centroid and FWHM of each lobe in the signal marginal of a JSA
    or a JSI, none of which depends on its scale.

    Returned wavelengths are in nm, keyed by lobe: 'short' is the lobe
    below the cut wavelength, 'long' the one above. The centroid is
    robust against noise but pulled by asymmetric tails; the refined peak
    is what lobe positions are usually quoted as.
    """
    return _lobe_positions(spectrum.grid.signal_axis,
                           spectrum.signal_marginal, cut_wavelength)


def _lobe_positions(omega: np.ndarray, density: np.ndarray,
                    cut_wavelength: float) -> dict:
    """``lobe_metrics`` of the signal marginal ``density`` on ``omega``."""
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


def two_lobe_summary(jsa: JsaGrid, cut_wavelength: float) -> dict:
    """The ``overlap_integral``, ``schmidt_purity``, ``schmidt_number``,
    ``single_lobe_purity`` {"f1", "f2"}, ``lobes`` (``lobe_metrics``) and
    ``f_mn`` (``lobe_overlap_matrix``) of ``jsa`` split at a signal cut
    wavelength (m), from one marginal sum, by ``split_lobes``, and one Gram
    pass. A cut that leaves a lobe without intensity raises ConfigError.
    """
    lobes = split_lobes(jsa, cut_wavelength)
    omega = jsa.grid.signal_axis
    f_mn = lobe_overlap_matrix(lobes)
    for side, weight in zip(("short", "long"), f_mn.diagonal().real):
        if weight <= 0:
            raise ConfigError(
                f"cut at {cut_wavelength * 1e9:.6g} nm leaves no intensity on "
                f"the {side}-wavelength side; try a cut near "
                f"{_suggest_cut(omega, lobes.marginal) * 1e9:.1f} nm")
    purity, single_lobe = _gram_purities(jsa, split=lobes.split)
    return {
        "overlap_integral": _exchange_overlap(jsa, lobes.split, f_mn),
        "schmidt_purity": purity,
        "schmidt_number": 1.0 / purity,
        "single_lobe_purity": single_lobe,
        "lobes": _lobe_positions(omega, lobes.marginal, cut_wavelength),
        "f_mn": f_mn,
    }
