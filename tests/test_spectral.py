import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_studio.errors import ConfigError
from spdc_studio.optics import (TWO_PI_C, FrequencyGrid, JsaGrid,
                                design_lobe_wavelengths)
from spdc_studio.polarization import concurrence, predicted_visibility, purity, \
    rho_from_lobes
from spdc_studio.spectral import (JsiGrid, LobePair, jsa_from_jsi, jsi_of,
                                  lobe_metrics, lobe_overlap_matrix,
                                  marginal_spectrum, overlap_integral, schmidt,
                                  single_lobe_purity, split_lobes)


def _gaussian_blob(grid, center_s_nm, center_i_nm, width_nm):
    """Real Gaussian lobe centered at the given signal/idler wavelengths."""
    ws = grid.signal_axis[:, np.newaxis]
    wi = grid.idler_axis[np.newaxis, :]
    cs = TWO_PI_C / (center_s_nm * 1e-9)
    ci = TWO_PI_C / (center_i_nm * 1e-9)
    sigma = TWO_PI_C / (1560e-9) ** 2 * (width_nm * 1e-9)
    return np.exp(-((ws - cs) ** 2 + (wi - ci) ** 2) / (2 * sigma**2))


def _random_jsa(seed, samples=24):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, samples)
    amp = rng.normal(size=(samples, samples)) \
        + 1j * rng.normal(size=(samples, samples))
    return JsaGrid(grid=grid, amplitude=amp).normalized_copy()


def _svd_purity(jsa):
    """Reference purity sum(sigma^4) / (sum(sigma^2))^2 from a full SVD of
    the quadrature-weighted amplitude."""
    w = np.outer(jsa.grid.signal_weights, jsa.grid.idler_weights)
    sigma = np.linalg.svd(jsa.amplitude * np.sqrt(w), compute_uv=False)
    return float(np.sum(sigma**4) / np.sum(sigma**2) ** 2)


class TestOverlapIntegral:
    def test_design_value_frozen(self, default_jsa):
        assert overlap_integral(default_jsa) == pytest.approx(
            0.9954553290589822, abs=1e-12)

    def test_exact_for_antisymmetric(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 128)
        blob = _gaussian_blob(grid, 1548.0, 1572.0, 4.0)
        amp = blob - blob.T
        jsa = JsaGrid(grid=grid, amplitude=amp).normalized_copy()
        assert overlap_integral(jsa) == pytest.approx(1.0, abs=1e-12)

    def test_exact_for_symmetric(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 128)
        blob = _gaussian_blob(grid, 1548.0, 1572.0, 4.0)
        amp = blob + blob.T
        jsa = JsaGrid(grid=grid, amplitude=amp).normalized_copy()
        assert overlap_integral(jsa) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mismatched_axes(self):
        grid = FrequencyGrid(
            signal_axis=np.linspace(1.19e15, 1.25e15, 16),
            idler_axis=np.linspace(1.18e15, 1.24e15, 16),
        )
        jsa = JsaGrid(grid=grid, amplitude=np.ones((16, 16)))
        with pytest.raises(ConfigError, match="identical"):
            overlap_integral(jsa)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bounded_on_random_amplitudes(self, seed):
        eta = overlap_integral(_random_jsa(seed))
        assert 0.0 <= eta <= 1.0 + 1e-9


class TestSchmidt:
    def test_design_purity_frozen(self, default_jsa):
        res = schmidt(default_jsa)
        assert res.purity == pytest.approx(0.5002532937976121, abs=1e-12)
        assert res.schmidt_number == pytest.approx(1.0 / res.purity, rel=1e-12)

    def test_separable_jsa_is_pure(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 96)
        gs = np.exp(-np.linspace(-2, 2, 96) ** 2)
        jsa = JsaGrid(grid=grid, amplitude=np.outer(gs, gs)).normalized_copy()
        assert schmidt(jsa).purity == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_analytic_oracle(self):
        # a JSA assembled from two orthonormal mode pairs has exactly the
        # Schmidt coefficients it was given
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 160)
        w = grid.signal_weights
        u1 = np.exp(-np.linspace(-3, 3, 160) ** 2)
        u2 = np.linspace(-3, 3, 160) * u1
        u1 = u1 / np.sqrt(np.sum(u1**2 * w))
        u2 = u2 - np.sum(u1 * u2 * w) * u1
        u2 = u2 / np.sqrt(np.sum(u2**2 * w))
        lam1, lam2 = 0.7, 0.3
        amp = (np.sqrt(lam1) * np.outer(u1, u1)
               + np.sqrt(lam2) * np.outer(u2, u2))
        res = schmidt(JsaGrid(grid=grid, amplitude=amp, normalized=True))
        assert res.purity == pytest.approx(lam1**2 + lam2**2, abs=1e-12)

    def test_all_zero_rejected(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 16)
        jsa = JsaGrid(grid=grid, amplitude=np.zeros((16, 16)))
        with pytest.raises(ConfigError, match="all-zero"):
            schmidt(jsa)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_coefficients_normalized_and_purity_bounded(self, seed):
        jsa = _random_jsa(seed)
        res = schmidt(jsa)
        n = min(jsa.grid.shape)
        assert 1.0 / n - 1e-9 <= res.purity <= 1.0 + 1e-9

    def test_matches_svd_oracle_on_design_jsa_and_lobes(
            self, default_jsa, default_crystal, default_pump):
        lam1, lam2 = design_lobe_wavelengths(default_crystal, default_pump)
        lobes = split_lobes(default_jsa, 0.5 * (lam1 + lam2))
        for jsa in (default_jsa, lobes.f1, lobes.f2):
            assert schmidt(jsa).purity == pytest.approx(_svd_purity(jsa),
                                                        abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_svd_oracle_on_random_jsas(self, seed):
        jsa = _random_jsa(seed)
        assert schmidt(jsa).purity == pytest.approx(_svd_purity(jsa),
                                                    abs=1e-12)
        # unequal, non-uniform axes and a complex, unnormalized amplitude:
        # swapped signal/idler weights or a missing conjugate would show
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(signal_axis=np.cumsum(rng.uniform(0.5, 2.0, 20)),
                             idler_axis=np.cumsum(rng.uniform(0.5, 2.0, 28)))
        amp = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        jsa = JsaGrid(grid=grid, amplitude=amp)
        assert schmidt(jsa).purity == pytest.approx(_svd_purity(jsa),
                                                    abs=1e-12)


class TestJsaFromJsi:
    def test_round_trip_with_conformant_signs(self):
        # an amplitude that is negative exactly where omega_i > omega_s
        # survives intensity -> amplitude -> intensity unchanged
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 128)
        base = _gaussian_blob(grid, 1548.0, 1572.0, 4.0)
        base = base + base.T
        ws = grid.signal_axis[:, np.newaxis]
        wi = grid.idler_axis[np.newaxis, :]
        amp = np.where(wi > ws, -base, base)
        jsa = JsaGrid(grid=grid, amplitude=amp).normalized_copy()
        back = jsa_from_jsi(jsi_of(jsa))
        scale = np.abs(jsa.amplitude).max()
        assert np.allclose(back.amplitude, jsa.amplitude, atol=1e-9 * scale)

    def test_result_is_normalized(self, measured_jsi):
        jsa = jsa_from_jsi(measured_jsi)
        assert jsa.norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_rejected(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 16)
        jsi = JsiGrid(grid=grid, intensity=np.zeros((16, 16)))
        with pytest.raises(ConfigError, match="all-zero"):
            jsa_from_jsi(jsi)

    def test_negative_intensity_rejected(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 16)
        bad = np.ones((16, 16))
        bad[3, 5] = -1e-3
        with pytest.raises(ConfigError, match="non-negative"):
            JsiGrid(grid=grid, intensity=bad)


class TestSplitLobes:
    def test_exact_reassembly(self, default_jsa):
        lobes = split_lobes(default_jsa, 1560e-9)
        total = lobes.f1.amplitude + lobes.f2.amplitude
        assert np.array_equal(total, default_jsa.amplitude)

    def test_lobes_are_disjoint(self, default_jsa):
        lobes = split_lobes(default_jsa, 1560e-9)
        assert not np.any((lobes.f1.amplitude != 0)
                          & (lobes.f2.amplitude != 0))

    def test_cut_inside_lobe_suggests_valley(self, default_jsa):
        with pytest.raises(ConfigError, match="try a cut near"):
            split_lobes(default_jsa, 1548e-9)

    def test_nonpositive_cut_rejected(self, default_jsa):
        with pytest.raises(ConfigError, match="positive"):
            split_lobes(default_jsa, 0.0)

    def test_all_zero_rejected(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 16)
        jsa = JsaGrid(grid=grid, amplitude=np.zeros((16, 16)))
        with pytest.raises(ConfigError, match="all-zero"):
            split_lobes(jsa, 1560e-9)


class TestLobeOverlapMatrix:
    def test_design_values_frozen(self, default_jsa):
        f = lobe_overlap_matrix(split_lobes(default_jsa, 1560e-9))
        assert f[0, 0].real == pytest.approx(0.500973, abs=2e-6)
        assert f[1, 1].real == pytest.approx(0.499027, abs=2e-6)
        assert f[0, 1].real == pytest.approx(-0.436952, abs=2e-6)
        assert abs(f[0, 1].imag) < 1e-9
        assert f[1, 0] == pytest.approx(np.conj(f[0, 1]), abs=1e-12)

    def test_ideal_antisymmetric_spectrum(self):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 256)
        blob = _gaussian_blob(grid, 1548.0, 1572.0, 4.0)
        amp = blob.T - blob
        jsa = JsaGrid(grid=grid, amplitude=amp).normalized_copy()
        f = lobe_overlap_matrix(split_lobes(jsa, 1560e-9))
        # Gaussian tails leak a few ppm of intensity across the cut
        assert f[0, 0].real == pytest.approx(0.5, abs=1e-4)
        assert f[1, 1].real == pytest.approx(0.5, abs=1e-4)
        assert f[0, 1].real == pytest.approx(-0.5, abs=1e-4)
        rho = rho_from_lobes(f)
        assert concurrence(rho) > 0.999
        assert predicted_visibility(rho, "D") > 0.999

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_diagonal_sums_to_one(self, seed):
        # random JSAs put intensity on the cut, which split_lobes rejects,
        # so the lobes are split here directly
        jsa = _random_jsa(seed)
        cut = TWO_PI_C / 1560e-9
        amp1 = np.where((jsa.grid.signal_axis > cut)[:, np.newaxis],
                        jsa.amplitude, 0.0)
        f = lobe_overlap_matrix(LobePair(
            f1=JsaGrid(grid=jsa.grid, amplitude=amp1),
            f2=JsaGrid(grid=jsa.grid, amplitude=jsa.amplitude - amp1),
            cut_frequency=cut))
        assert f[0, 0].real + f[1, 1].real == pytest.approx(1.0, abs=1e-9)
        assert abs(f[0, 1]) <= np.sqrt(f[0, 0].real * f[1, 1].real) + 1e-9


class TestSingleLobePurity:
    def test_design_lobes_mostly_single_mode(self, default_jsa):
        lobes = split_lobes(default_jsa, 1560e-9)
        assert single_lobe_purity(lobes, "f1") == pytest.approx(0.8747, abs=2e-3)
        assert single_lobe_purity(lobes, "f2") == pytest.approx(0.8779, abs=2e-3)

    def test_unknown_lobe_rejected(self, default_jsa):
        lobes = split_lobes(default_jsa, 1560e-9)
        with pytest.raises(ConfigError, match="f3"):
            single_lobe_purity(lobes, "f3")


class TestMarginals:
    def test_marginal_integrates_to_norm(self, default_jsa):
        jsi = jsi_of(default_jsa)
        omega, density = marginal_spectrum(jsi)
        assert np.array_equal(omega, jsi.grid.signal_axis)
        assert np.sum(density * jsi.grid.signal_weights) == pytest.approx(
            1.0, abs=1e-9)


class TestLobeMetrics:
    def test_design_peaks_and_widths(self, default_jsa):
        m = lobe_metrics(jsi_of(default_jsa), 1560e-9)
        assert m["short"]["peak_nm"] == pytest.approx(1547.36, abs=0.05)
        assert m["long"]["peak_nm"] == pytest.approx(1572.54, abs=0.05)
        assert m["short"]["fwhm_nm"] == pytest.approx(22.35, abs=0.2)
        assert m["long"]["fwhm_nm"] == pytest.approx(22.64, abs=0.2)

    def test_centroids_pulled_by_tails(self, default_jsa):
        # the outer tails drag each centroid away from its refined peak
        m = lobe_metrics(jsi_of(default_jsa), 1560e-9)
        assert m["short"]["center_nm"] < m["short"]["peak_nm"]
        assert m["long"]["center_nm"] > m["long"]["peak_nm"]

    def test_cut_outside_spectrum_rejected(self, default_jsa):
        with pytest.raises(ConfigError, match="no intensity"):
            lobe_metrics(jsi_of(default_jsa), 1490e-9)


class TestMeasuredFixturePipeline:
    def test_headline_numbers(self, measured_jsi):
        jsa = jsa_from_jsi(measured_jsi)
        assert overlap_integral(jsa) == pytest.approx(0.9915, abs=5e-4)
        assert schmidt(jsa).purity == pytest.approx(0.4940, abs=5e-4)
        lobes = split_lobes(jsa, 1560e-9)
        f = lobe_overlap_matrix(lobes)
        assert f[0, 0].real == pytest.approx(0.4971, abs=5e-4)
        assert f[1, 1].real == pytest.approx(0.5029, abs=5e-4)
        assert f[0, 1].real == pytest.approx(-0.4978, abs=5e-4)
        assert single_lobe_purity(lobes, "f1") > 0.9
        assert single_lobe_purity(lobes, "f2") > 0.9
        rho = rho_from_lobes(f)
        assert concurrence(rho) == pytest.approx(0.9956, abs=5e-4)
        assert purity(rho) == pytest.approx(0.9956, abs=5e-4)

    def test_lobe_centers(self, measured_jsi):
        m = lobe_metrics(measured_jsi, 1560e-9)
        assert m["short"]["peak_nm"] == pytest.approx(1548.0, abs=0.5)
        assert m["long"]["peak_nm"] == pytest.approx(1572.0, abs=0.5)
