"""Simulated measurement procedures.

Covers the two workhorse measurements of the source characterization:
time-of-flight joint-spectral-intensity spectroscopy through dispersive
fiber, and polarization visibility scans with their sinusoid fits. Also
houses the multi-pair (squeezed-vacuum) visibility model and the
coincidence-rate bookkeeping. A Monte Carlo of that model simulates
observed visibilities; the exact thermal-statistics form of the same
model translates visibility into squeezing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, ConvergenceError
from .optics import TWO_PI_C, FrequencyGrid, JsaGrid
from .polarization import TwoQubitState, analyzer_projector
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
    "squeezing_point",
    "squeezing_slope",
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


_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def tof_simulate(jsa: JsaGrid, fiber: FiberSpec, det: DetectorSpec,
                 n_pairs: int, seed: int) -> ArrivalHistogram:
    """Monte Carlo arrival-time histogram of ``n_pairs`` photon pairs.

    Pairs are drawn from |f|^2, dithered uniformly within their grid cell,
    mapped to arrival time through t = D L (lambda - lambda_ref) per arm,
    and smeared by per-arm Gaussian jitter. Bins are a third of the jitter
    FWHM wide (1 ps without jitter). Deterministic for a fixed seed.
    """
    if n_pairs <= 0:
        raise ConfigError("n_pairs must be positive")
    bin_width = det.jitter_fwhm / 3.0 if det.jitter_fwhm > 0 else 1e-12

    grid = jsa.grid
    w_s, w_i = grid.signal_weights, grid.idler_weights
    prob = np.abs(jsa.amplitude) ** 2 * np.outer(w_s, w_i)
    total = prob.sum()
    if total <= 0:
        raise ConfigError("cannot sample from an all-zero JSA")
    prob = (prob / total).ravel()

    rng = substream(seed, "tof.sampling")
    flat = rng.choice(prob.size, size=n_pairs, p=prob)
    rows, cols = np.unravel_index(flat, grid.shape)

    omega_s = grid.signal_axis[rows] + (rng.random(n_pairs) - 0.5) * w_s[rows]
    omega_i = grid.idler_axis[cols] + (rng.random(n_pairs) - 0.5) * w_i[cols]

    slope = fiber.delay_per_wavelength
    t_s = slope * (TWO_PI_C / omega_s - fiber.reference_wavelength)
    t_i = slope * (TWO_PI_C / omega_i - fiber.reference_wavelength)
    if det.jitter_fwhm > 0:
        sigma = det.jitter_fwhm / _FWHM_SIGMA
        t_s = t_s + rng.normal(0.0, sigma, n_pairs)
        t_i = t_i + rng.normal(0.0, sigma, n_pairs)

    # deterministic edges derived from the grid window, not from the draws
    pad = 5.0 * det.jitter_fwhm + bin_width
    lam_lo = TWO_PI_C / grid.signal_axis[-1]
    lam_hi = TWO_PI_C / grid.signal_axis[0]
    lam_lo_i = TWO_PI_C / grid.idler_axis[-1]
    lam_hi_i = TWO_PI_C / grid.idler_axis[0]
    bounds = []
    for lo, hi in ((lam_lo, lam_hi), (lam_lo_i, lam_hi_i)):
        t_all = slope * (np.array([lo, hi]) - fiber.reference_wavelength)
        t_min, t_max = min(t_all) - pad, max(t_all) + pad
        n_bins = int(math.ceil((t_max - t_min) / bin_width))
        bounds.append(t_min + bin_width * np.arange(n_bins + 1))
    edges_s, edges_i = bounds

    counts, _, _ = np.histogram2d(t_s, t_i, bins=(edges_s, edges_i))
    return ArrivalHistogram(signal_edges=edges_s, idler_edges=edges_i,
                            counts=counts)


def _rebin_edges(edges: np.ndarray, counts: np.ndarray, factor: int,
                 axis: int) -> tuple[np.ndarray, np.ndarray]:
    n = (counts.shape[axis] // factor) * factor
    counts = np.take(counts, np.arange(n), axis=axis)
    shape = list(counts.shape)
    shape[axis:axis + 1] = [n // factor, factor]
    counts = counts.reshape(shape).sum(axis=axis + 1)
    return edges[:n + 1:factor], counts


def tof_reconstruct(hist: ArrivalHistogram, fiber: FiberSpec,
                    det: DetectorSpec) -> JsiGrid:
    """Invert the time-to-wavelength map back to a joint spectral intensity.

    Bin centers map to wavelength via the fiber's delay slope; counts are
    converted to a density in angular frequency (the axes come out
    non-uniform in omega). The achievable wavelength resolution is
    tof_resolution(fiber, det); the histogram is aggregated to one output
    bin per jitter FWHM, which carries the full resolution while
    keeping the per-bin counts high enough that downstream square-root
    amplitude estimates are not biased by shot noise.
    """
    if hist.counts.sum() <= 0:
        raise ConfigError("cannot reconstruct from an empty histogram")
    slope = fiber.delay_per_wavelength
    counts = hist.counts
    edges_s, edges_i = hist.signal_edges, hist.idler_edges
    bin_width = float(edges_s[1] - edges_s[0])
    rebin = max(1, round(det.jitter_fwhm / bin_width))
    if rebin > 1:
        edges_s, counts = _rebin_edges(edges_s, counts, rebin, axis=0)
        edges_i, counts = _rebin_edges(edges_i, counts, rebin, axis=1)
    hist = ArrivalHistogram(signal_edges=edges_s, idler_edges=edges_i,
                            counts=counts)

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
    p1 = analyzer_projector(fixed_angle)
    means = np.empty(n_points)
    for j, theta in enumerate(angles):
        op = np.kron(p1, analyzer_projector(theta))
        means[j] = pairs_per_point * max(
            float(np.real(np.trace(rho.matrix @ op))), 0.0)
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


def _coincidences(mu: float, eff: float, setting: tuple[float, float],
                  n_trials: int, rng: np.random.Generator) -> int:
    """Trials (pulses) with clicks on both arms at one analyzer setting.

    Pair number per pulse is thermal with mean mu; every generated pair is
    an independent singlet routed through the analyzers; detectors are
    threshold detectors with the given efficiency.
    """
    u = rng.random(n_trials)
    if mu <= 0:
        return 0
    q = mu / (1.0 + mu)
    # inverse CDF of the geometric pair-number law; monotone in mu for
    # fixed u
    n_pairs = np.floor(np.log1p(-u) / math.log(q)).astype(np.int64)
    total = int(n_pairs.sum())
    if total == 0:
        return 0

    delta = setting[0] - setting[1]
    p_both = 0.5 * math.sin(delta) ** 2
    p_one = 0.5 - p_both  # photon reaches arm 1 only (arm 2 symmetric)

    trial_of = np.repeat(np.arange(n_trials), n_pairs)
    u_route = rng.random(total)
    to_arm1 = u_route < (p_both + p_one)
    to_arm2 = (u_route < p_both) | ((u_route >= p_both + p_one)
                                    & (u_route < p_both + 2 * p_one))
    if eff < 1.0:
        to_arm1 &= rng.random(total) < eff
        to_arm2 &= rng.random(total) < eff

    click1 = np.bincount(trial_of[to_arm1], minlength=n_trials) > 0
    click2 = np.bincount(trial_of[to_arm2], minlength=n_trials) > 0
    return int(np.count_nonzero(click1 & click2))


def multipair_visibility(r: float, det: DetectorSpec, n_trials: int,
                         seed: int, stream: str = "multipair") -> float:
    """Polarization visibility including multi-pair emission, by Monte Carlo.

    Pair number per pulse is thermal with mean mu = sinh^2(r) (a single
    Schmidt mode of squeezed vacuum). V = (C_max - C_min)/(C_max + C_min)
    over the two analyzer settings; r = 0 gives V = 1 up to sampling
    noise, and V decreases as accidental multi-pair coincidences fill in
    the minimum. ``stream`` names the random substream, so callers can
    draw statistically independent repetitions under one seed.
    """
    if r < 0:
        raise ConfigError("squeezing parameter must be non-negative")
    if n_trials < 1:
        raise ConfigError("n_trials must be positive")
    mu = math.sinh(r) ** 2
    c_max = _coincidences(mu, det.efficiency, _SETTING_MAX, n_trials,
                          substream(seed, f"{stream}.max"))
    c_min = _coincidences(mu, det.efficiency, _SETTING_MIN, n_trials,
                          substream(seed, f"{stream}.min"))
    if c_max + c_min == 0:
        return 1.0
    return (c_max - c_min) / (c_max + c_min)


def _coincidence_probability(mu: float, eff: float,
                             setting: tuple[float, float]) -> float:
    """Exact per-pulse probability of clicks on both arms, the model that
    ``_coincidences`` samples.

    The pair number is thermal, with generating function
    G(x) = (1 - q)/(1 - q x) and q = mu/(1 + mu). One singlet pair leaves
    a given arm dark with probability 1 - eff/2 and both arms dark with
    1 - eff + eff^2 s, where s = sin^2(delta)/2, so
    P_cc = 1 - 2 G(1 - eff/2) + G(1 - eff + eff^2 s). Multiplied out, that
    is the expression below, which has no cancellation as mu -> 0.
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


_R_MAX = 1.5


def invert_visibility(target_v: float, det: DetectorSpec) -> float:
    """Squeezing parameter r whose multi-pair visibility equals ``target_v``.

    Root of the exact thermal-statistics visibility, which decreases
    monotonically from 1 at r = 0; a visibility at or below its value at
    r = ``_R_MAX`` raises.
    """
    if not 0.0 < target_v <= 1.0:
        raise ConfigError("visibility must lie in (0, 1]")
    if target_v >= 1.0:
        return 0.0
    v_floor = _model_visibility(_R_MAX, det.efficiency)
    if target_v <= v_floor:
        raise ConvergenceError(
            f"visibility {target_v:.4f} is below the model floor "
            f"{v_floor:.4f} at r = {_R_MAX}"
        )
    return float(brentq(
        lambda r: _model_visibility(r, det.efficiency) - target_v,
        0.0, _R_MAX,
    ))


def squeezing_point(power: float, visibility: float,
                    det: DetectorSpec) -> dict:
    """One power point inverted to squeezing: r, the mean pair number
    mu = sinh^2(r), and the squeezing level 10 log10(e^(-2r)) in dB."""
    if power < 0:
        raise ConfigError(f"negative pump power {power}")
    if not 0.0 < visibility <= 1.0:
        raise ConfigError(
            f"visibility {visibility} at {power} W outside (0, 1]")
    try:
        r = invert_visibility(visibility, det)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"inversion failed at pump power {power} W: {exc}"
        ) from exc
    return {
        "pump_power_w": power,
        "visibility": visibility,
        "r": r,
        "mu": math.sinh(r) ** 2,
        "squeezing_db": 10.0 * math.log10(math.exp(-2.0 * r)),
    }


def squeezing_slope(points: list[dict]) -> float:
    """Least-squares slope C of r = C sqrt(P) over ``squeezing_point``
    records: C = sum(sqrt(P) r) / sum(P)."""
    sqrt_p = np.array([math.sqrt(p["pump_power_w"]) for p in points])
    rs = np.array([p["r"] for p in points])
    denom = float(np.sum(sqrt_p**2))
    if denom <= 0:
        raise ConfigError("pump powers are all zero; cannot fit C")
    return float(np.sum(sqrt_p * rs) / denom)


def estimate_squeezing(visibilities: list[tuple[float, float]],
                       det: DetectorSpec) -> dict:
    """Squeezing analysis of (pump_power_W, visibility) points.

    Each visibility inverts to a squeezing parameter through the exact
    multi-pair model (``squeezing_point``); the ensemble is then fit to
    r = C sqrt(P) (``squeezing_slope``).
    """
    if len(visibilities) < 3:
        raise ConfigError("need at least 3 power points to fit r = C sqrt(P)")
    points = [squeezing_point(power, vis, det) for power, vis in visibilities]
    return {"C_per_sqrt_w": squeezing_slope(points), "points": points}


def rates_summary(rec: RateRecord) -> dict:
    """Generation rate R1 R2 / Rc and heralding efficiency Rc/sqrt(R1 R2)."""
    if rec.coincidences <= 0:
        raise ConfigError("coincidence rate must be positive")
    geometric = math.sqrt(rec.singles_1 * rec.singles_2)
    return {
        "generation_rate_hz": rec.singles_1 * rec.singles_2 / rec.coincidences,
        "heralding_efficiency": rec.coincidences / geometric,
    }
