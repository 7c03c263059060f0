"""Simulated measurement procedures.

Covers the two workhorse measurements of the source characterization:
time-of-flight joint-spectral-intensity spectroscopy through dispersive
fiber, and polarization visibility scans with their sinusoid fits. Also
houses the multi-pair (squeezed-vacuum) visibility model and the
coincidence-rate bookkeeping. Both simulators draw from exact models
rather than following single pairs: a time-of-flight histogram is one
multinomial draw from the closed-form bin probabilities of the dithered,
dispersed and jittered pairs, and multi-pair coincidences are binomial
draws from one exact thermal-statistics form, which inverts in closed
form to translate visibility into squeezing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, ConvergenceError
from .optics import (_FWHM_SIGMA, TWO_PI_C, FrequencyGrid, JsaGrid,
                     _check_numbers)
from .polarization import TwoQubitState, _expectations, analyzer_projector
from .rng import substream
from .spectral import JsiGrid

__all__ = [
    "FiberSpec",
    "DetectorSpec",
    "ArrivalHistogram",
    "VisibilityScan",
    "RateRecord",
    "tof_resolution",
    "tof_simulate",
    "tof_reconstruct",
    "visibility_scan",
    "fit_visibility",
    "multipair_visibility",
    "invert_visibility",
    "estimate_squeezing",
    "rates_summary",
]


@dataclass(frozen=True)
class FiberSpec:
    """Dispersive delay line for time-of-flight spectroscopy.

    ``dispersion_ps_nm_km`` keeps the catalog units; SI conversions hang
    off properties.
    """

    length: float = 10e3
    dispersion_ps_nm_km: float = 18.0
    reference_wavelength: float = 1560e-9

    def __post_init__(self) -> None:
        _check_numbers(self, "fiber")
        if self.length <= 0:
            raise ConfigError("fiber length must be positive")
        if self.dispersion_ps_nm_km == 0:
            raise ConfigError("fiber dispersion must be nonzero")
        if self.reference_wavelength <= 0:
            raise ConfigError("reference_wavelength must be positive")

    @property
    def dispersion_si(self) -> float:
        """Dispersion in s/m^2."""
        return self.dispersion_ps_nm_km * 1e-6

    @property
    def delay_per_wavelength(self) -> float:
        """Group-delay slope D * L in s/m (0.18 s/m at the defaults)."""
        return self.dispersion_si * self.length


@dataclass(frozen=True)
class DetectorSpec:
    """Click detector with Gaussian timing jitter."""

    jitter_fwhm: float = 150e-12
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        _check_numbers(self, "detector")
        if self.jitter_fwhm < 0:
            raise ConfigError("jitter_fwhm must be non-negative")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class ArrivalHistogram:
    """2-D coincidence histogram over (signal, idler) arrival times."""

    signal_edges: np.ndarray
    idler_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        edges = [np.asarray(e, dtype=float)
                 for e in (self.signal_edges, self.idler_edges)]
        counts = np.asarray(self.counts)
        for name, e in zip(("signal_edges", "idler_edges"), edges):
            if e.ndim != 1 or e.size < 2 or not np.all(np.diff(e) > 0):
                raise ConfigError(f"{name} must be 1-D and strictly "
                                  f"increasing")
        shape = (edges[0].size - 1, edges[1].size - 1)
        if counts.shape != shape:
            raise ConfigError(f"counts has shape {counts.shape}; the edges "
                              f"need {shape}")
        if np.any(counts < 0):
            raise ConfigError("counts must be non-negative")
        object.__setattr__(self, "signal_edges", edges[0])
        object.__setattr__(self, "idler_edges", edges[1])
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class VisibilityScan:
    """One analyzer-angle sweep of coincidence counts."""

    fixed_angle: float
    sweep_angles: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.sweep_angles, dtype=float)
        counts = np.asarray(self.counts)
        if angles.shape != counts.shape or angles.ndim != 1:
            raise ConfigError("sweep_angles and counts must match 1-D shapes")
        if np.any(counts < 0):
            raise ConfigError("counts must be non-negative")
        object.__setattr__(self, "sweep_angles", angles)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class RateRecord:
    """Measured singles and coincidence rates at one pump power."""

    singles_1: float
    singles_2: float
    coincidences: float
    pump_power: float = 0.0

    def __post_init__(self) -> None:
        if min(self.singles_1, self.singles_2, self.coincidences) < 0:
            raise ConfigError("rates must be non-negative")
        if self.coincidences > min(self.singles_1, self.singles_2):
            raise ConfigError("coincidences cannot exceed either singles rate")


def tof_resolution(fiber: FiberSpec, det: DetectorSpec) -> float:
    """Wavelength resolution of the dispersive spectrometer, in metres.

    Timing jitter divided by the delay-per-wavelength slope: 0.83 nm at
    the defaults (150 ps jitter, 180 ps/nm of accumulated dispersion).
    """
    return det.jitter_fwhm / abs(fiber.delay_per_wavelength)


# ndtr(z) is exactly 0.0 for z <= -37.68 and exactly 1.0 for z >= 8.2924
# (checked on a 1e-6 z grid; ndtr is monotone), so these bounds keep a margin
_NDTR_ZERO_Z = -38.5
_NDTR_ONE_Z = 8.3


def _tof_response(axis: np.ndarray, widths: np.ndarray, fiber: FiberSpec,
                  det: DetectorSpec) -> tuple[np.ndarray, np.ndarray]:
    """One arm's bin edges and response R[cell, bin]: the chance that a
    photon dithered uniformly across the cell in omega, timed by
    t = D L (2 pi c/omega - lambda_ref) and jittered lands in the bin. Bins
    are one jitter FWHM wide, the spectrometer's resolution; 5 FWHM plus
    one bin of padding make rows sum to 1.

    R is the difference along each row of a CDF summed over 8 dither nodes
    of ndtr((edge - t)/sigma). ndtr is exactly 0.0 below z = -38.5 and
    exactly 1.0 above z = 8.3, so a row's CDF is exactly 0 up to the last
    edge 38.5 sigma before the cell's earliest node time and exactly its
    full sum from the first edge 8.3 sigma after its latest: R is exactly
    0 outside that band of edges. The CDF is evaluated on the band only
    (23 of 158 edges at the defaults), clipped to the window, with
    the same arithmetic per entry as on the whole window, so R has the
    bits of the dense formula."""
    slope, lam_ref = fiber.delay_per_wavelength, fiber.reference_wavelength
    bin_width = det.jitter_fwhm
    pad = 5.0 * det.jitter_fwhm + bin_width
    t_ends = slope * (TWO_PI_C / axis[[-1, 0]] - lam_ref)
    t_min = t_ends.min() - pad
    n_bins = math.ceil((t_ends.max() + pad - t_min) / bin_width)
    edges = t_min + bin_width * np.arange(n_bins + 1)
    sigma = det.jitter_fwhm / _FWHM_SIGMA
    # mean over the dither at 8 Gauss-Legendre nodes; 32 nodes change it by
    # about 5e-14 on the default grid
    nodes, node_weights = np.polynomial.legendre.leggauss(8)
    t = slope * (TWO_PI_C / (axis + 0.5 * nodes[:, None] * widths) - lam_ref)
    lo = np.searchsorted(edges, t.min(axis=0) + _NDTR_ZERO_Z * sigma,
                         side="right") - 1
    hi = np.searchsorted(edges, t.max(axis=0) + _NDTR_ONE_Z * sigma)
    lo, hi = np.maximum(lo, 0), np.minimum(hi, edges.size - 1)
    band = int(np.max(hi - lo)) + 1
    cols = np.minimum(lo, edges.size - band)[:, None] + np.arange(band)
    band_edges = edges[cols]
    cdf = np.zeros(cols.shape)
    for t_node, w in zip(t, node_weights):
        cdf += 0.5 * w * ndtr((band_edges - t_node[:, None]) / sigma)
    response = np.zeros((axis.size, n_bins))
    np.put_along_axis(response, cols[:, :-1], np.diff(cdf, axis=1), axis=1)
    return edges, response


def _tof_bin_probabilities(jsa: JsaGrid, fiber: FiberSpec, det: DetectorSpec
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal edges, idler edges and the exact probability P of each
    (signal, idler) time bin. Given a grid cell the arms are independent,
    so P = R_s^T prob R_i with prob the normalized cell-weighted |f|^2."""
    g = jsa.grid
    # built in one buffer, in the operand order of |f|^2 * w / total
    prob = np.abs(jsa.amplitude)
    prob **= 2
    prob *= np.outer(g.signal_weights, g.idler_weights)
    total = prob.sum()
    if total <= 0:
        raise ConfigError("cannot sample from an all-zero JSA")
    prob /= total
    edges_s, r_s = _tof_response(g.signal_axis, g.signal_weights, fiber, det)
    edges_i, r_i = _tof_response(g.idler_axis, g.idler_weights, fiber, det)
    return edges_s, edges_i, r_s.T @ prob @ r_i


def tof_simulate(jsa: JsaGrid, fiber: FiberSpec, det: DetectorSpec,
                 n_pairs: int, seed: int) -> ArrivalHistogram:
    """Arrival-time histogram of ``n_pairs`` pairs from |f|^2, dithered
    within their cell, timed per arm and jittered: one multinomial draw
    from that model's exact bin probabilities, dropping pairs outside the
    window. Needs a positive jitter. Deterministic for a fixed seed."""
    if n_pairs <= 0:
        raise ConfigError("n_pairs must be positive")
    if det.jitter_fwhm <= 0:
        raise ConfigError("tof_simulate needs a positive jitter_fwhm")
    edges_s, edges_i, prob = _tof_bin_probabilities(jsa, fiber, det)
    draw = substream(seed, "tof.sampling").multinomial(
        n_pairs, np.append(prob.ravel(), max(1.0 - prob.sum(), 0.0)))
    return ArrivalHistogram(signal_edges=edges_s, idler_edges=edges_i,
                            counts=draw[:-1].reshape(prob.shape))


def tof_reconstruct(hist: ArrivalHistogram, fiber: FiberSpec,
                    det: DetectorSpec) -> JsiGrid:
    """Invert the time-to-wavelength map back to a joint spectral intensity.

    Bin centers map to wavelength via the fiber's delay slope; counts are
    converted to a density in angular frequency (the axes come out
    non-uniform in omega). Each histogram bin becomes one output bin;
    ``tof_simulate`` bins at one jitter FWHM, the resolution
    tof_resolution(fiber, det), which keeps the per-bin counts high enough
    that downstream square-root amplitude estimates are not biased by shot
    noise. ``det`` is unused; it stays because callers such as
    ``perfbench/workloads.py`` pass it.
    """
    if hist.counts.sum() <= 0:
        raise ConfigError("cannot reconstruct from an empty histogram")
    slope = fiber.delay_per_wavelength

    def omega_axis(edges: np.ndarray) -> np.ndarray:
        centers = 0.5 * (edges[1:] + edges[:-1])
        lam = fiber.reference_wavelength + centers / slope
        if np.any(lam <= 0):
            raise ConfigError("histogram extends to non-physical wavelengths")
        return TWO_PI_C / lam

    omega_s = omega_axis(hist.signal_edges)
    omega_i = omega_axis(hist.idler_edges)
    counts = hist.counts
    # ascending omega means descending time axis
    if omega_s[0] > omega_s[-1]:
        omega_s = omega_s[::-1]
        counts = counts[::-1, :]
    if omega_i[0] > omega_i[-1]:
        omega_i = omega_i[::-1]
        counts = counts[:, ::-1]
    grid = FrequencyGrid(signal_axis=omega_s, idler_axis=omega_i)
    density = counts / np.outer(grid.signal_weights, grid.idler_weights)
    return JsiGrid(grid=grid, intensity=density)


def visibility_scan(rho: TwoQubitState, fixed_angle: float,
                    n_points: int, pairs_per_point: float,
                    seed: int) -> VisibilityScan:
    """Poisson counts versus the second analyzer angle over half a turn."""
    if n_points < 8:
        raise ConfigError("need at least 8 sweep points for a usable fit")
    if pairs_per_point <= 0:
        raise ConfigError("pairs_per_point must be positive")
    angles = np.linspace(0.0, math.pi, n_points, endpoint=False)
    ops = np.kron(analyzer_projector(fixed_angle),
                  np.array([analyzer_projector(theta) for theta in angles]))
    means = pairs_per_point * np.maximum(_expectations(rho.matrix, ops), 0.0)
    rng = substream(seed, f"visibility.scan.{fixed_angle:.9f}")
    counts = rng.poisson(means)
    return VisibilityScan(fixed_angle=fixed_angle, sweep_angles=angles,
                          counts=counts)


_R_SQUARE_MIN = 0.99


def fit_visibility(scan: VisibilityScan) -> dict:
    """Weighted least-squares fit of a sin^2(theta + c) + d; V = a/(a + 2d).

    With the fringe period fixed at half a turn (b = 1) the model equals
    K0 + Kz cos(2 theta) + Kx sin(2 theta), which is linear in its
    coefficients, so one weighted linear solve gives the optimum:
    a = 2 hypot(Kz, Kx), d = K0 - a/2, c = atan2(Kx, -Kz)/2, and
    V = hypot(Kz, Kx)/K0. Counts are weighted by their Poisson uncertainty;
    d is clipped at zero, which keeps V <= 1. Returns the fit parameters,
    V, and r_square; a fit with r_square below ``_R_SQUARE_MIN`` raises,
    mirroring the quality of the fits this procedure is meant to reproduce.
    """
    theta = scan.sweep_angles
    counts = scan.counts.astype(float)
    if theta.size < 8:
        raise ConfigError("need at least 8 points to fit")
    span = theta.max() - theta.min()
    if span < math.pi / 2:
        raise ConfigError("sweep must span at least half a fringe period")

    design = np.column_stack([np.ones_like(theta), np.cos(2.0 * theta),
                              np.sin(2.0 * theta)])
    weight = 1.0 / np.sqrt(np.clip(counts, 1.0, None))
    (k0, kz, kx), *_ = np.linalg.lstsq(design * weight[:, None],
                                       counts * weight, rcond=None)
    half = math.hypot(kz, kx)
    a, c, d = 2.0 * half, 0.5 * math.atan2(kx, -kz), max(float(k0) - half, 0.0)
    ss_res = float(np.sum((counts - a * np.sin(theta + c) ** 2 - d) ** 2))
    ss_tot = float(np.sum((counts - counts.mean()) ** 2))
    r_square = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if a + 2 * d <= 0:
        raise ConfigError("degenerate fit: a + 2d is zero, no fringe")
    if r_square < _R_SQUARE_MIN:
        raise ConvergenceError(
            f"visibility fit quality r^2 = {r_square:.4f} below the "
            f"{_R_SQUARE_MIN} gate (residual {ss_res:.3g})"
        )
    return {"a": a, "b": 1.0, "c": c, "d": d, "V": a / (a + 2 * d),
            "r_square": r_square}


# analyzer settings used for the multi-pair contrast: coincidence minimum
# at parallel analyzers (a singlet never coincides there), maximum at
# crossed analyzers
_SETTING_MIN = (0.0, 0.0)
_SETTING_MAX = (0.0, math.pi / 2)


def multipair_visibility(r: float, det: DetectorSpec, n_trials: int,
                         seed: int, stream: str = "multipair") -> float:
    """Polarization visibility including multi-pair emission, as observed
    over ``n_trials`` pulses.

    Pair number per pulse is thermal with mean mu = sinh^2(r) (a single
    Schmidt mode of squeezed vacuum). Pulses are independent, so the
    coincidence count at each analyzer setting is one binomial draw from
    the exact thermal model, Binomial(n_trials, P_cc). V = (C_max - C_min)
    /(C_max + C_min) over the two settings; r = 0 gives V = 1, and V
    decreases as accidental multi-pair coincidences fill in the minimum.
    ``stream`` names the random substream, so callers can draw
    statistically independent repetitions under one seed.
    """
    if r < 0:
        raise ConfigError("squeezing parameter must be non-negative")
    if n_trials < 1:
        raise ConfigError("n_trials must be positive")
    mu = math.sinh(r) ** 2
    c_max = int(substream(seed, f"{stream}.max").binomial(
        n_trials, _coincidence_probability(mu, det.efficiency, _SETTING_MAX)))
    c_min = int(substream(seed, f"{stream}.min").binomial(
        n_trials, _coincidence_probability(mu, det.efficiency, _SETTING_MIN)))
    if c_max + c_min == 0:
        return 1.0
    return (c_max - c_min) / (c_max + c_min)


def _coincidence_probability(mu: float, eff: float,
                             setting: tuple[float, float]) -> float:
    """Exact per-pulse probability of clicks on both arms.

    The pair number is thermal, with generating function
    G(x) = (1 - q)/(1 - q x) and q = mu/(1 + mu). Every pair is an
    independent singlet routed through the analyzers to threshold
    detectors of efficiency ``eff``. One pair leaves a given arm dark with
    probability 1 - eff/2 and both arms dark with 1 - eff + eff^2 s, where
    s = sin^2(delta)/2, so P_cc = 1 - 2 G(1 - eff/2) + G(1 - eff + eff^2 s).
    Multiplied out, that is the expression below, which has no
    cancellation as mu -> 0.
    """
    s = 0.5 * math.sin(setting[0] - setting[1]) ** 2
    return (mu * eff**2 * (s + 0.5 * mu * (1.0 - eff * s))
            / ((1.0 + 0.5 * mu * eff) * (1.0 + mu * eff * (1.0 - eff * s))))


def _model_visibility(r: float, eff: float) -> float:
    """Exact multi-pair visibility: the value ``multipair_visibility``
    estimates, without sampling noise."""
    mu = math.sinh(r) ** 2
    c_max = _coincidence_probability(mu, eff, _SETTING_MAX)
    c_min = _coincidence_probability(mu, eff, _SETTING_MIN)
    if c_max + c_min == 0:
        return 1.0
    return (c_max - c_min) / (c_max + c_min)


def invert_visibility(target_v: float, det: DetectorSpec) -> float:
    """Squeezing parameter r whose multi-pair visibility equals ``target_v``.

    The exact thermal-statistics visibility is V = (1 + mu eta/2) /
    (1 + (2 + eta/2) mu + 2 eta k mu^2) with k = 1 - eta/2 and mu =
    sinh^2(r), so mu is the one positive root of the quadratic
    2 V eta k mu^2 + (V (2 + eta/2) - eta/2) mu - (1 - V) = 0 and
    r = asinh(sqrt(mu)). The root is taken in whichever of its two forms
    does not cancel for the sign of the linear coefficient. Every V in
    (0, 1) inverts; at eta = 0 no pair ever coincides, so V < 1 raises.
    """
    if not 0.0 < target_v <= 1.0:
        raise ConfigError("visibility must lie in (0, 1]")
    if target_v >= 1.0:
        return 0.0
    eff = det.efficiency
    if eff <= 0:
        raise ConfigError(
            f"visibility {target_v} is unreachable at detector efficiency 0, "
            f"where no coincidences occur")
    a = 2.0 * target_v * eff * (1.0 - 0.5 * eff)
    b = target_v * (2.0 + 0.5 * eff) - 0.5 * eff
    c = 1.0 - target_v  # the constant term is -c
    root = math.sqrt(b * b + 4.0 * a * c)
    mu = 2.0 * c / (b + root) if b > 0 else (root - b) / (2.0 * a)
    return math.asinh(math.sqrt(mu))


def _squeezing_point(power: float, visibility: float,
                     det: DetectorSpec) -> dict:
    """One power point inverted to squeezing: r, the mean pair number
    mu = sinh^2(r), and the squeezing level 10 log10(e^(-2r)) in dB."""
    if power < 0:
        raise ConfigError(f"negative pump power {power}")
    if not 0.0 < visibility <= 1.0:
        raise ConfigError(
            f"visibility {visibility} at {power} W outside (0, 1]")
    r = invert_visibility(visibility, det)
    return {
        "pump_power_w": power,
        "visibility": visibility,
        "r": r,
        "mu": math.sinh(r) ** 2,
        "squeezing_db": 10.0 * math.log10(math.exp(-2.0 * r)),
    }


def estimate_squeezing(visibilities: list[tuple[float, float]],
                       det: DetectorSpec) -> dict:
    """Squeezing analysis of one or more (pump_power_W, visibility) points.

    Each visibility inverts to a squeezing parameter r through the exact
    multi-pair model, with its mean pair number and squeezing level in dB;
    the points are then fit to r = C sqrt(P) by least squares,
    C = sum(sqrt(P) r) / sum(P). A single point gives C = r / sqrt(P).
    """
    if not visibilities:
        raise ConfigError("need at least one power point to estimate "
                          "squeezing")
    points = [_squeezing_point(power, vis, det) for power, vis in visibilities]
    sqrt_p = np.array([math.sqrt(p["pump_power_w"]) for p in points])
    rs = np.array([p["r"] for p in points])
    denom = float(np.sum(sqrt_p**2))
    if denom <= 0:
        raise ConfigError("pump powers are all zero; cannot fit C")
    return {"C_per_sqrt_w": float(np.sum(sqrt_p * rs) / denom),
            "points": points}


def rates_summary(rec: RateRecord) -> dict:
    """Generation rate R1 R2 / Rc and heralding efficiency Rc/sqrt(R1 R2)."""
    if rec.coincidences <= 0:
        raise ConfigError("coincidence rate must be positive")
    geometric = math.sqrt(rec.singles_1 * rec.singles_2)
    return {
        "generation_rate_hz": rec.singles_1 * rec.singles_2 / rec.coincidences,
        "heralding_efficiency": rec.coincidences / geometric,
    }
