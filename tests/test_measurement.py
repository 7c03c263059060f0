import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import binom, chisquare

from spdc_studio import measurement
from spdc_studio.errors import ConfigError, ConvergenceError
from spdc_studio.measurement import (_SETTING_MAX, _SETTING_MIN,
                                     ArrivalHistogram, DetectorSpec,
                                     FiberSpec, RateRecord, VisibilityScan,
                                     _coincidence_probability,
                                     _model_visibility,
                                     _tof_bin_probabilities, _tof_response,
                                     estimate_squeezing, fit_visibility,
                                     invert_visibility, multipair_visibility,
                                     rates_summary, tof_reconstruct,
                                     tof_resolution, tof_simulate,
                                     visibility_scan)
from spdc_studio.optics import (_FWHM_SIGMA, TWO_PI_C, CrystalSpec,
                                FrequencyGrid, JsaGrid, PmfMode, PumpSpec,
                                compute_jsa)
from spdc_studio.polarization import (BellKind, analyzer_projector,
                                      bell_state, predicted_visibility,
                                      werner_state)
from spdc_studio.rng import substream
from spdc_studio.spectral import jsa_from_jsi, lobe_metrics, overlap_integral


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


def _tof_monte_carlo(jsa: JsaGrid, fiber: FiberSpec, det: DetectorSpec,
                     n_pairs: int, seed: int) -> ArrivalHistogram:
    """Monte Carlo arrival-time histogram of ``n_pairs`` photon pairs.

    Pairs are drawn from |f|^2, dithered uniformly within their grid cell,
    mapped to arrival time through t = D L (lambda - lambda_ref) per arm,
    and smeared by per-arm Gaussian jitter. Bins are one jitter FWHM wide
    (1 ps without jitter). Deterministic for a fixed seed.
    """
    if n_pairs <= 0:
        raise ConfigError("n_pairs must be positive")
    bin_width = det.jitter_fwhm if det.jitter_fwhm > 0 else 1e-12

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


def _dense_tof_response(axis: np.ndarray, widths: np.ndarray,
                        fiber: FiberSpec, det: DetectorSpec
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges and response R of one arm with the CDF evaluated at every
    edge of the window: the mean over 8 Gauss-Legendre dither nodes of
    ndtr((edge - t)/sigma), differenced along each row."""
    slope, lam_ref = fiber.delay_per_wavelength, fiber.reference_wavelength
    bin_width = det.jitter_fwhm
    pad = 5.0 * det.jitter_fwhm + bin_width
    t_ends = slope * (TWO_PI_C / axis[[-1, 0]] - lam_ref)
    t_min = t_ends.min() - pad
    n_bins = math.ceil((t_ends.max() + pad - t_min) / bin_width)
    edges = t_min + bin_width * np.arange(n_bins + 1)
    sigma = det.jitter_fwhm / _FWHM_SIGMA
    cdf = np.zeros((axis.size, edges.size))
    for x, w in zip(*np.polynomial.legendre.leggauss(8)):
        t = slope * (TWO_PI_C / (axis + 0.5 * x * widths) - lam_ref)
        cdf += 0.5 * w * ndtr((edges - t[:, None]) / sigma)
    return edges, np.diff(cdf, axis=1)


def _dense_tof_bin_probabilities(jsa: JsaGrid, fiber: FiberSpec,
                                 det: DetectorSpec) -> np.ndarray:
    """Bin probabilities by the whole-grid formula R_s^T prob R_i, with
    prob the normalized cell-weighted |f|^2 and R the dense responses."""
    g = jsa.grid
    _, r_s = _dense_tof_response(g.signal_axis, g.signal_weights, fiber, det)
    _, r_i = _dense_tof_response(g.idler_axis, g.idler_weights, fiber, det)
    prob = np.abs(jsa.amplitude) ** 2 * np.outer(g.signal_weights,
                                                 g.idler_weights)
    return r_s.T @ (prob / prob.sum()) @ r_i


def _pooled_p_value(observed, expected) -> float:
    """Chi-square p-value of ``observed`` against ``expected`` counts.

    Consecutive entries are pooled until each group expects at least 5.
    """
    f_obs, f_exp, acc_obs, acc_exp = [], [], 0, 0.0
    for o, e in zip(observed, expected):
        acc_obs, acc_exp = acc_obs + o, acc_exp + e
        if acc_exp >= 5.0:
            f_obs.append(acc_obs)
            f_exp.append(acc_exp)
            acc_obs, acc_exp = 0, 0.0
    f_obs[-1] += acc_obs
    f_exp[-1] += acc_exp
    return float(chisquare(f_obs, f_exp).pvalue)


def _binomial_fit_p_value(draws, n: int, p: float) -> float:
    """Chi-square p-value of integer ``draws`` against Binomial(n, p),
    adjacent counts pooled."""
    expected = len(draws) * binom.pmf(np.arange(n + 1), n, p)
    return _pooled_p_value(np.bincount(draws, minlength=n + 1), expected)


def _tof_fit_p_value(hist, n_pairs: int, prob) -> float:
    """Chi-square p-value of a TOF histogram against bin probabilities
    ``prob``, with the pairs outside the window as one more cell. Cells
    are pooled in order of their expected count."""
    observed = np.append(hist.counts.ravel(), n_pairs - hist.total)
    expected = n_pairs * np.append(prob.ravel(), max(1.0 - prob.sum(), 0.0))
    order = np.argsort(expected, kind="stable")
    return _pooled_p_value(observed[order], expected[order])


class TestTofResolution:
    def test_default_spectrometer(self):
        fiber, det = FiberSpec(), DetectorSpec()
        assert fiber.delay_per_wavelength == pytest.approx(0.18, rel=1e-12)
        assert tof_resolution(fiber, det) * 1e9 == pytest.approx(
            0.8333, abs=5e-4)

    def test_scales_inversely_with_fiber_length(self):
        det = DetectorSpec()
        short = tof_resolution(FiberSpec(length=10e3), det)
        long = tof_resolution(FiberSpec(length=20e3), det)
        assert long == pytest.approx(short / 2, rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="length"):
            FiberSpec(length=0.0)
        with pytest.raises(ConfigError, match="dispersion"):
            FiberSpec(dispersion_ps_nm_km=0.0)
        with pytest.raises(ConfigError, match="efficiency"):
            DetectorSpec(efficiency=1.2)
        with pytest.raises(ConfigError, match="jitter"):
            DetectorSpec(jitter_fwhm=-1e-12)

    @pytest.mark.parametrize("make", [
        lambda: FiberSpec(length=np.nan),
        lambda: FiberSpec(dispersion_ps_nm_km=np.inf),
        lambda: FiberSpec(reference_wavelength=np.inf),
        lambda: DetectorSpec(jitter_fwhm=np.nan),
        lambda: DetectorSpec(jitter_fwhm=np.inf),
    ], ids=["length", "dispersion", "reference", "jitter-nan", "jitter-inf"])
    def test_non_finite_spec_rejected(self, make):
        with pytest.raises(ConfigError, match="must be finite"):
            make()


class TestTofSimulate:
    def test_deterministic_and_complete(self, default_jsa):
        fiber, det = FiberSpec(), DetectorSpec()
        a = tof_simulate(default_jsa, fiber, det, n_pairs=20000, seed=5)
        b = tof_simulate(default_jsa, fiber, det, n_pairs=20000, seed=5)
        assert a.total == 20000
        assert np.array_equal(a.counts, b.counts)

    def test_seed_changes_draws(self, default_jsa):
        fiber, det = FiberSpec(), DetectorSpec()
        a = tof_simulate(default_jsa, fiber, det, n_pairs=20000, seed=5)
        c = tof_simulate(default_jsa, fiber, det, n_pairs=20000, seed=6)
        assert not np.array_equal(a.counts, c.counts)

    def test_n_pairs_validated(self, default_jsa):
        with pytest.raises(ConfigError, match="n_pairs"):
            tof_simulate(default_jsa, FiberSpec(), DetectorSpec(),
                         n_pairs=0, seed=1)


@pytest.fixture(scope="module")
def three_cell_jsa(default_jsa):
    """Three off-diagonal cells of unequal weight on the default grid.

    Each cell is far narrower than the jitter, so its histogram is one
    arm response per axis: the jitter width, the dither across the cell
    and the order of the arms all change it, where the default JSA's
    lobes are too broad for any of them to show.
    """
    amplitude = np.zeros(default_jsa.grid.shape)
    amplitude[80, 360], amplitude[84, 360], amplitude[256, 120] = 1.0, 0.7, 0.5
    return JsaGrid(grid=default_jsa.grid, amplitude=amplitude)


class TestExactTofModel:
    """The closed-form bin probabilities against the per-pair Monte Carlo
    oracle, and tof_simulate's draws against the same probabilities."""

    N_PAIRS = 1_000_000

    @pytest.mark.parametrize("jsa_name", ["default_jsa", "three_cell_jsa"])
    @pytest.mark.parametrize("simulate", [_tof_monte_carlo, tof_simulate],
                             ids=["oracle", "tof_simulate"])
    def test_histogram_fits_bin_probabilities(self, request, jsa_name,
                                              simulate):
        jsa = request.getfixturevalue(jsa_name)
        fiber, det = FiberSpec(), DetectorSpec()
        edges_s, edges_i, prob = _tof_bin_probabilities(jsa, fiber, det)
        hist = simulate(jsa, fiber, det, self.N_PAIRS, 0)
        assert np.array_equal(hist.signal_edges, edges_s)
        assert np.array_equal(hist.idler_edges, edges_i)
        assert _tof_fit_p_value(hist, self.N_PAIRS, prob) > 1e-3

    def test_gate_rejects_wrong_models(self, three_cell_jsa):
        # the oracle's histogram against a response without the dither and
        # against swapped arms: the fit gate must have power at this width
        fiber, det = FiberSpec(), DetectorSpec()
        g = three_cell_jsa.grid
        hist = _tof_monte_carlo(three_cell_jsa, fiber, det, self.N_PAIRS, 0)
        prob = np.abs(three_cell_jsa.amplitude) ** 2 * np.outer(
            g.signal_weights, g.idler_weights)
        prob /= prob.sum()

        def bin_probabilities(widths_scale, cells):
            _, r_s = _tof_response(g.signal_axis,
                                   g.signal_weights * widths_scale, fiber, det)
            _, r_i = _tof_response(g.idler_axis,
                                   g.idler_weights * widths_scale, fiber, det)
            return r_s.T @ cells @ r_i

        assert _tof_fit_p_value(hist, self.N_PAIRS,
                                bin_probabilities(1, prob)) > 1e-3
        for wrong in (bin_probabilities(0, prob),
                      bin_probabilities(1, prob.T)):
            assert _tof_fit_p_value(hist, self.N_PAIRS, wrong) <= 1e-3

    @pytest.mark.parametrize("jitter", [50e-12, 150e-12, 400e-12])
    def test_response_rows_sum_to_one(self, default_jsa, jitter):
        grid = default_jsa.grid
        fiber, det = FiberSpec(), DetectorSpec(jitter_fwhm=jitter)
        for axis, widths in ((grid.signal_axis, grid.signal_weights),
                             (grid.idler_axis, grid.idler_weights)):
            edges, response = _tof_response(axis, widths, fiber, det)
            assert response.shape == (axis.size, edges.size - 1)
            assert np.all(response >= 0)
            assert np.max(np.abs(response.sum(axis=1) - 1.0)) <= 1e-12

    def test_zero_jitter_rejected(self, default_jsa):
        with pytest.raises(ConfigError, match="jitter"):
            tof_simulate(default_jsa, FiberSpec(),
                         DetectorSpec(jitter_fwhm=0.0), n_pairs=100, seed=0)


class TestTofResponseBand:
    """_tof_response evaluates the CDF on each row's band only; R must have
    the bits of the dense formula, and the bin probabilities and draws
    must follow it."""

    @pytest.mark.parametrize("jitter", [20e-12, 150e-12, 400e-12])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non-uniform"])
    @pytest.mark.parametrize("samples", [16, 64, 512])
    def test_response_equals_dense_formula(self, samples, uniform, jitter):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, samples)
        axis = grid.signal_axis
        if not uniform:
            u = np.sort(np.random.default_rng(samples).random(samples))
            axis = axis[0] + (axis[-1] - axis[0]) * u
            grid = FrequencyGrid(signal_axis=axis, idler_axis=axis)
        fiber, det = FiberSpec(), DetectorSpec(jitter_fwhm=jitter)
        edges, response = _tof_response(axis, grid.signal_weights, fiber, det)
        dense_edges, dense = _dense_tof_response(axis, grid.signal_weights,
                                                 fiber, det)
        assert np.array_equal(edges, dense_edges)
        assert np.array_equal(response, dense)

    @pytest.mark.parametrize("jsa_name", ["default_jsa", "three_cell_jsa"])
    def test_seeded_histogram_equals_dense_draw(self, request, jsa_name):
        # the blocked sum rounds differently from the whole-grid formula;
        # the seeded histogram is the draw from the blocked P itself
        jsa = request.getfixturevalue(jsa_name)
        fiber, det = FiberSpec(), DetectorSpec()
        prob = _tof_bin_probabilities(jsa, fiber, det)[2]
        dense = _dense_tof_bin_probabilities(jsa, fiber, det)
        assert np.max(np.abs(prob - dense)) <= 1e-15 * dense.max()
        n_pairs = 1_000_000
        draw = substream(0, "tof.sampling").multinomial(
            n_pairs, np.append(prob.ravel(), max(1.0 - prob.sum(), 0.0)))
        hist = tof_simulate(jsa, fiber, det, n_pairs, seed=0)
        assert np.array_equal(hist.counts, draw[:-1].reshape(prob.shape))


def _tof_block_jsa(rows: int, kind: str) -> JsaGrid:
    """A JSA of ``rows`` signal rows, the middle of the default 512-point
    axis: real or complex (domain-built) against the whole axis, or the
    real ``rows``-square amplitude placed on identical non-uniform axes."""
    axis = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512).signal_axis
    signal = axis[(axis.size - rows) // 2:][:rows]
    if kind == "non-uniform":
        amplitude = compute_jsa(FrequencyGrid(signal_axis=signal,
                                              idler_axis=signal.copy()),
                                CrystalSpec(), PumpSpec()).amplitude
        u = np.sort(np.random.default_rng(rows).random(rows))
        signal = signal[0] + (signal[-1] - signal[0]) * u
        return JsaGrid(grid=FrequencyGrid(signal_axis=signal,
                                          idler_axis=signal.copy()),
                       amplitude=amplitude)
    mode = PmfMode.FROM_DOMAINS if kind == "complex" else PmfMode.ANALYTIC
    return compute_jsa(FrequencyGrid(signal_axis=signal, idler_axis=axis),
                       CrystalSpec(), PumpSpec(), pmf_mode=mode)


class TestTofBlocks:
    """_tof_bin_probabilities sums ``_TOF_BLOCK`` amplitude rows at a
    time, scaled to the JSA's largest component."""

    @pytest.mark.parametrize("kind", ["real", "complex", "non-uniform"])
    @pytest.mark.parametrize("rows", [63, 64, 65, 130])
    def test_equals_dense_formula(self, rows, kind):
        jsa = _tof_block_jsa(rows, kind)
        assert measurement._TOF_BLOCK == 64
        assert np.iscomplexobj(jsa.amplitude) == (kind == "complex")
        assert jsa.grid.axes_identical == (kind == "non-uniform")
        fiber, det = FiberSpec(), DetectorSpec()
        prob = _tof_bin_probabilities(jsa, fiber, det)[2]
        dense = _dense_tof_bin_probabilities(jsa, fiber, det)
        assert prob.shape == dense.shape
        assert np.max(np.abs(prob - dense)) <= 1e-15 * dense.max()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_any_finite_scale_samples(self, scale, kind):
        # |f|^2 of 1e160 overflows and of 1e-170 underflows to zero; P
        # does not depend on the scale
        jsa = _tof_block_jsa(65, kind)
        scaled = JsaGrid(grid=jsa.grid, amplitude=jsa.amplitude * scale)
        fiber, det = FiberSpec(), DetectorSpec()
        prob = _tof_bin_probabilities(jsa, fiber, det)[2]
        scaled_prob = _tof_bin_probabilities(scaled, fiber, det)[2]
        assert np.max(np.abs(scaled_prob - prob)) <= 1e-15 * prob.max()
        hist = tof_simulate(scaled, fiber, det, n_pairs=20000, seed=0)
        assert hist.total == 20000

    def test_all_zero_jsa_rejected(self, default_jsa):
        zero = JsaGrid(grid=default_jsa.grid,
                       amplitude=np.zeros(default_jsa.grid.shape))
        with pytest.raises(ConfigError,
                           match="cannot sample from an all-zero JSA"):
            tof_simulate(zero, FiberSpec(), DetectorSpec(), n_pairs=10,
                         seed=0)

    @pytest.mark.parametrize("axes, bound", [("identical", 0.75),
                                             ("unequal", 1.1)])
    def test_holds_about_one_grid(self, default_jsa, peak_grids, axes,
                                  bound):
        # two 512 x 156 weighted responses (one when the axes are
        # identical), one 64-row block and the 156^2 sum: no |f|^2 or
        # weight grid is built
        jsa = default_jsa
        if axes == "unequal":
            axis = jsa.grid.signal_axis
            step = axis[1] - axis[0]
            grid = FrequencyGrid(signal_axis=axis,
                                 idler_axis=axis + 32 * step)
            jsa = compute_jsa(grid, CrystalSpec(), PumpSpec())
        fiber, det = FiberSpec(), DetectorSpec()
        assert peak_grids(lambda: tof_simulate(jsa, fiber, det, n_pairs=1000,
                                               seed=0)) <= bound


class TestArrivalHistogram:
    EDGES = np.linspace(0.0, 1e-9, 11)

    @pytest.mark.parametrize("signal_edges, counts, message", [
        (EDGES, np.ones((4, 4)), "shape"),
        (EDGES, np.ones((10, 10, 1)), "shape"),
        (EDGES[::-1], np.ones((10, 10)), "increasing"),
        (np.r_[EDGES[:5], EDGES[4:]], np.ones((11, 10)), "increasing"),
        (np.r_[EDGES[:5], np.nan, EDGES[6:]], np.ones((10, 10)),
         "increasing"),
        (EDGES[:, None], np.ones((10, 10)), "1-D"),
        (EDGES, -np.ones((10, 10)), "non-negative"),
    ], ids=["too-few-counts", "3-d-counts", "decreasing", "repeated-edge",
            "nan-edge", "2-d-edges", "negative"])
    def test_rejects_bad_input(self, signal_edges, counts, message):
        with pytest.raises(ConfigError, match=message):
            ArrivalHistogram(signal_edges=signal_edges,
                             idler_edges=self.EDGES, counts=counts)

    def test_accepts_matching_shapes(self):
        hist = ArrivalHistogram(signal_edges=self.EDGES[:6],
                                idler_edges=self.EDGES, counts=np.ones((5, 10)))
        assert hist.total == 50


class TestTofRoundTrip:
    def test_quick_reconstruction(self, default_jsa):
        fiber, det = FiberSpec(), DetectorSpec()
        hist = tof_simulate(default_jsa, fiber, det, n_pairs=500_000, seed=0)
        recon = tof_reconstruct(hist, fiber, det)

        m = lobe_metrics(recon, 1560e-9)
        assert m["short"]["center_nm"] == pytest.approx(1546.32, abs=0.5)
        assert m["long"]["center_nm"] == pytest.approx(1573.85, abs=0.5)

        eta = overlap_integral(jsa_from_jsi(recon))
        assert eta >= 0.97

    def test_empty_histogram_rejected(self, default_jsa):
        fiber, det = FiberSpec(), DetectorSpec()
        hist = tof_simulate(default_jsa, fiber, det, n_pairs=100, seed=0)
        empty = type(hist)(signal_edges=hist.signal_edges,
                           idler_edges=hist.idler_edges,
                           counts=np.zeros_like(hist.counts))
        with pytest.raises(ConfigError, match="empty"):
            tof_reconstruct(empty, fiber, det)


class TestVisibilityScanFit:
    def test_noiseless_fit_recovers_visibility(self):
        rho = werner_state(0.9)
        angles = np.linspace(0.0, math.pi, 24, endpoint=False)
        p1 = analyzer_projector(0.0)
        means = np.array([
            1e6 * float(np.real(np.trace(
                rho.matrix @ np.kron(p1, analyzer_projector(t)))))
            for t in angles
        ])
        scan = VisibilityScan(fixed_angle=0.0, sweep_angles=angles,
                              counts=means)
        fit = fit_visibility(scan)
        assert fit["V"] == pytest.approx(
            predicted_visibility(rho, "H"), abs=1e-6)
        assert fit["r_square"] > 0.999999

    def test_psi_minus_scan_near_unity(self):
        rho = bell_state(BellKind.PSI_MINUS)
        scan = visibility_scan(rho, 0.0, n_points=16, pairs_per_point=1e5,
                               seed=4)
        fit = fit_visibility(scan)
        assert fit["V"] == pytest.approx(1.0, abs=0.01)

    def test_werner_diagonal_basis_scan(self):
        rho = werner_state(0.8)
        scan = visibility_scan(rho, math.pi / 4, n_points=16,
                               pairs_per_point=1e5, seed=4)
        fit = fit_visibility(scan)
        assert fit["V"] == pytest.approx(0.8, abs=0.02)

    def test_noise_fails_the_quality_gate(self):
        rng = np.random.default_rng(0)
        angles = np.linspace(0.0, math.pi, 16, endpoint=False)
        counts = rng.integers(100, 2000, size=16).astype(float)
        scan = VisibilityScan(fixed_angle=0.0, sweep_angles=angles,
                              counts=counts)
        with pytest.raises(ConvergenceError, match="below the"):
            fit_visibility(scan)

    def test_scan_validation(self):
        rho = werner_state(0.5)
        with pytest.raises(ConfigError, match="at least 8"):
            visibility_scan(rho, 0.0, n_points=4, pairs_per_point=1e4, seed=1)
        with pytest.raises(ConfigError, match="pairs_per_point"):
            visibility_scan(rho, 0.0, n_points=16, pairs_per_point=0, seed=1)


class TestMultipair:
    def test_zero_squeezing_gives_unit_visibility(self):
        v = multipair_visibility(0.0, DetectorSpec(), n_trials=10_000, seed=0)
        assert v == 1.0

    def test_monotone_nonincreasing_in_r(self):
        det = DetectorSpec()
        rs = [0.05, 0.1, 0.2, 0.4, 0.8]
        vs = [multipair_visibility(r, det, n_trials=100_000, seed=7)
              for r in rs]
        for lo, hi in zip(vs[1:], vs[:-1]):
            assert lo <= hi + 0.01

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            multipair_visibility(-0.1, DetectorSpec(), n_trials=100, seed=0)

    def test_r_past_the_float_range_rejected(self):
        # r = 100 is the largest accepted; from r ~ 178 the coincidence
        # probability overflowed into a bare numpy error
        det = DetectorSpec()
        assert 0.0 <= multipair_visibility(100.0, det, n_trials=100,
                                           seed=0) <= 1.0
        for r in (math.nextafter(100.0, math.inf), 200.0, 400.0, math.nan):
            with pytest.raises(ConfigError, match="at most 100, got"):
                multipair_visibility(r, det, n_trials=100, seed=0)

    def test_invert_round_trip(self):
        det = DetectorSpec()
        r_true = 0.4
        v = multipair_visibility(r_true, det, n_trials=100_000, seed=3)
        r_est = invert_visibility(v, det)
        assert r_est == pytest.approx(r_true, abs=0.01)

    def test_invert_validation(self):
        det = DetectorSpec()
        with pytest.raises(ConfigError, match="\\(0, 1\\]"):
            invert_visibility(0.0, det)
        with pytest.raises(ConfigError, match="\\(0, 1\\]"):
            invert_visibility(1.2, det)

    def test_perfect_visibility_inverts_to_zero(self):
        r = invert_visibility(1.0, DetectorSpec())
        assert r == 0.0


class TestExactMultipairModel:
    """The closed-form thermal model against its Monte Carlo oracle."""

    N_TRIALS = 100_000
    SEEDS = range(8)

    @pytest.mark.parametrize("eff", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("r", [0.05, 0.2, 0.4, 0.8])
    def test_monte_carlo_mean_matches(self, r, eff):
        n, k = self.N_TRIALS, len(self.SEEDS)
        mu = math.sinh(r) ** 2
        p = {}
        for name, setting in (("max", _SETTING_MAX), ("min", _SETTING_MIN)):
            p[name] = _coincidence_probability(mu, eff, setting)
            rate = np.mean([
                _coincidences(mu, eff, setting, n,
                              substream(seed, f"exact.{name}")) / n
                for seed in self.SEEDS])
            se = math.sqrt(p[name] * (1.0 - p[name]) / (n * k))
            assert abs(rate - p[name]) <= 3.0 * se, name

        det = DetectorSpec(efficiency=eff)
        v = np.mean([multipair_visibility(r, det, n, seed)
                     for seed in self.SEEDS])
        # delta-method spread of (M - m)/(M + m) for Poisson counts M, m
        c_max, c_min = n * p["max"], n * p["min"]
        se = math.sqrt(4.0 * c_max * c_min / (c_max + c_min) ** 3 / k)
        assert abs(v - _model_visibility(r, eff)) <= 3.0 * se

    # few trials per draw, many draws: the whole count distribution, not
    # only its mean, must be Binomial(n, P_cc); a per-pulse dependence
    # would show as over- or underdispersion
    FEW_TRIALS = 200
    MANY_SEEDS = range(2000)

    @pytest.mark.parametrize("eff", [0.3, 1.0])
    def test_oracle_counts_are_binomial(self, eff):
        mu = math.sinh(0.8) ** 2
        for name, setting in (("max", _SETTING_MAX), ("min", _SETTING_MIN)):
            draws = [_coincidences(mu, eff, setting, self.FEW_TRIALS,
                                   substream(seed, f"exact.{name}"))
                     for seed in self.MANY_SEEDS]
            p = _coincidence_probability(mu, eff, setting)
            assert _binomial_fit_p_value(draws, self.FEW_TRIALS, p) > 1e-3, \
                name

    @pytest.mark.parametrize("eff", [0.3, 1.0])
    def test_multipair_visibility_counts_are_binomial(self, eff,
                                                      monkeypatch):
        # record every count multipair_visibility draws, by stream name
        draws = {}

        class Recorder:
            def __init__(self, seed, name):
                self.rng, self.name = substream(seed, name), name

            def binomial(self, n, p):
                value = self.rng.binomial(n, p)
                draws.setdefault(self.name.rsplit(".", 1)[1], []).append(
                    (n, p, int(value)))
                return value

        monkeypatch.setattr(measurement, "substream", Recorder)
        det = DetectorSpec(efficiency=eff)
        for seed in self.MANY_SEEDS:
            multipair_visibility(0.8, det, self.FEW_TRIALS, seed)
        mu = math.sinh(0.8) ** 2
        assert set(draws) == {"max", "min"}
        for name, setting in (("max", _SETTING_MAX), ("min", _SETTING_MIN)):
            p = _coincidence_probability(mu, eff, setting)
            assert len(draws[name]) == len(self.MANY_SEEDS)
            assert {(n, q) for n, q, _ in draws[name]} == \
                {(self.FEW_TRIALS, p)}
            counts = [c for _, _, c in draws[name]]
            assert _binomial_fit_p_value(counts, self.FEW_TRIALS, p) > 1e-3, \
                name

    @pytest.mark.parametrize("eff", [0.3, 1.0])
    def test_exact_round_trip(self, eff):
        det = DetectorSpec(efficiency=eff)
        for r in (1e-3, 0.05, 0.2, 0.4, 0.8, 1.4, 2.5):
            r_est = invert_visibility(_model_visibility(r, eff), det)
            assert r_est == pytest.approx(r, abs=1e-9)

    def test_zero_efficiency_rejected(self):
        # no pair ever coincides, so only V = 1 is reachable
        det = DetectorSpec(efficiency=0.0)
        assert invert_visibility(1.0, det) == 0.0
        with pytest.raises(ConfigError, match="efficiency 0"):
            invert_visibility(0.9, det)


class TestEstimateSqueezing:
    def test_recovers_known_power_law(self):
        det = DetectorSpec()
        c_true = 0.3952
        powers = [0.05, 0.155, 0.310, 0.620]
        points = []
        for p in powers:
            r = c_true * math.sqrt(p)
            points.append((p, multipair_visibility(r, det, n_trials=200_000,
                                                   seed=0)))
        result = estimate_squeezing(points, det)
        assert result["C_per_sqrt_w"] == pytest.approx(c_true, rel=0.05)
        top = result["points"][-1]
        assert top["mu"] == pytest.approx(math.sinh(c_true * math.sqrt(0.620)) ** 2,
                                          rel=0.1)

    def test_single_point_gives_per_point_slope(self):
        det = DetectorSpec()
        v = _model_visibility(0.3, det.efficiency)
        result = estimate_squeezing([(0.62, v)], det)
        assert result["C_per_sqrt_w"] == pytest.approx(
            result["points"][0]["r"] / math.sqrt(0.62), rel=1e-15)
        assert result["points"][0]["r"] == pytest.approx(0.3, abs=1e-9)

    def test_needs_a_point(self):
        with pytest.raises(ConfigError, match="at least one"):
            estimate_squeezing([], DetectorSpec())

    def test_rejects_bad_points(self):
        det = DetectorSpec()
        with pytest.raises(ConfigError, match="negative pump"):
            estimate_squeezing([(-0.1, 0.99), (0.2, 0.98), (0.3, 0.97)],
                               det)
        with pytest.raises(ConfigError, match="outside"):
            estimate_squeezing([(0.1, 1.1), (0.2, 0.98), (0.3, 0.97)],
                               det)


class TestRates:
    def test_textbook_numbers(self):
        rec = RateRecord(singles_1=20e3, singles_2=20e3, coincidences=6e3)
        summary = rates_summary(rec)
        assert summary["generation_rate_hz"] == pytest.approx(
            20e3 * 20e3 / 6e3, rel=1e-12)
        assert summary["heralding_efficiency"] == pytest.approx(0.3, abs=1e-12)

    def test_asymmetric_arms(self):
        rec = RateRecord(singles_1=30e3, singles_2=10e3, coincidences=3e3)
        summary = rates_summary(rec)
        assert summary["generation_rate_hz"] == pytest.approx(1e5, rel=1e-12)
        assert summary["heralding_efficiency"] == pytest.approx(
            3e3 / math.sqrt(3e8), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError, match="exceed"):
            RateRecord(singles_1=5e3, singles_2=5e3, coincidences=6e3)
        with pytest.raises(ConfigError, match="non-negative"):
            RateRecord(singles_1=-1.0, singles_2=5e3, coincidences=1e3)
        with pytest.raises(ConfigError, match="positive"):
            rates_summary(RateRecord(singles_1=1e3, singles_2=1e3,
                                     coincidences=0.0))
