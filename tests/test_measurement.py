import math

import numpy as np
import pytest

from spdc_studio.errors import ConfigError, ConvergenceError
from spdc_studio.measurement import (_SETTING_MAX, _SETTING_MIN,
                                     DetectorSpec, FiberSpec, RateRecord,
                                     VisibilityScan, _coincidence_probability,
                                     _coincidences, _model_visibility,
                                     estimate_squeezing, fit_visibility,
                                     invert_visibility, multipair_visibility,
                                     rates_summary, tof_reconstruct,
                                     tof_resolution, tof_simulate,
                                     visibility_scan)
from spdc_studio.polarization import (BellKind, analyzer_projector,
                                      bell_state, predicted_visibility,
                                      werner_state)
from spdc_studio.rng import substream
from spdc_studio.spectral import jsa_from_jsi, lobe_metrics, overlap_integral


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

    def test_bad_rebin_rejected(self, default_jsa):
        fiber, det = FiberSpec(), DetectorSpec()
        hist = tof_simulate(default_jsa, fiber, det, n_pairs=100, seed=0)
        with pytest.raises(ConfigError, match="rebin"):
            tof_reconstruct(hist, fiber, det, rebin=0)


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
            predicted_visibility(rho, "HV"), abs=1e-6)
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

    @pytest.mark.parametrize("eff", [0.3, 1.0])
    def test_exact_round_trip(self, eff):
        det = DetectorSpec(efficiency=eff)
        for r in (1e-3, 0.05, 0.2, 0.4, 0.8, 1.4):
            r_est = invert_visibility(_model_visibility(r, eff), det)
            assert r_est == pytest.approx(r, abs=1e-9)

    def test_below_model_floor_raises(self):
        floor = _model_visibility(1.5, 1.0)
        with pytest.raises(ConvergenceError, match="model floor"):
            invert_visibility(0.9 * floor, DetectorSpec())


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

    def test_needs_three_points(self):
        det = DetectorSpec()
        with pytest.raises(ConfigError, match="at least 3"):
            estimate_squeezing([(0.1, 0.99), (0.2, 0.98)], det)

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
