from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_studio import spectral
from spdc_studio.errors import ConfigError, ConvergenceError
from spdc_studio.optics import (TWO_PI_C, FrequencyGrid, JsaGrid, PmfMode,
                                compute_jsa, design_lobe_wavelengths)
from spdc_studio.polarization import concurrence, predicted_visibility, purity, \
    rho_from_lobes
from spdc_studio.spectral import (JsiGrid, LobePair, jsa_from_jsi, jsi_of,
                                  lobe_metrics, lobe_overlap_matrix,
                                  overlap_integral, schmidt,
                                  single_lobe_purity, split_lobes,
                                  two_lobe_summary)


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


def _gram_purity(jsa):
    """Reference purity ||G||_F^2 / (tr G)^2 from the full complex Gram
    G = A^H A of the quadrature-weighted amplitude, as schmidt formed it
    before it took the smaller side and the real path."""
    w = np.outer(jsa.grid.signal_weights, jsa.grid.idler_weights)
    a = jsa.amplitude * np.sqrt(w)
    gram = a.conj().T @ a
    return float(np.vdot(gram, gram).real) / float(np.trace(gram).real) ** 2


def _exchange_sum(a, b, grid):
    """Reference sum(a * conj(b.T) * outer(ws, wi)), the direct exchange
    overlap sum behind overlap_integral (a = b) and f12."""
    w = np.outer(grid.signal_weights, grid.idler_weights)
    return complex(np.sum(a * np.conj(b.T) * w))


def _padded_lobe(lobes, which):
    """One lobe as a full-grid JsaGrid, zero on the other lobe's rows: the
    form the direct-formula and SVD oracles read."""
    amp = lobes.jsa.amplitude
    in_f1 = np.arange(amp.shape[0]) >= lobes.split
    keep = in_f1 if which == "f1" else ~in_f1
    return JsaGrid(grid=lobes.jsa.grid,
                   amplitude=np.where(keep[:, np.newaxis], amp, 0.0))


def _lobes_at(jsa, cut):
    """The lobe pair split_lobes makes at the signal frequency ``cut``,
    built directly, without its strip check."""
    split = int(np.sum(jsa.grid.signal_axis <= cut))
    return LobePair(jsa=jsa, split=split, marginal=jsa.signal_marginal)


def _random_amplitude(rng, shape, complex_valued, zero_lines):
    """Gaussian amplitude, real or complex, with ``zero_lines`` rows and as
    many columns set identically to zero."""
    amp = rng.normal(size=shape)
    if complex_valued:
        amp = amp + 1j * rng.normal(size=shape)
    amp[rng.choice(shape[0], zero_lines, replace=False), :] = 0.0
    amp[:, rng.choice(shape[1], zero_lines, replace=False)] = 0.0
    return amp


def _exchange_mixed_jsa(seed):
    """Normalized JSA B + c B^T on identical non-uniform axes, real or
    complex, with zero rows and columns. The B^T part keeps the exchange
    sums well away from zero, so they can be compared to a relative 1e-12;
    any c other than +-1 leaves the amplitude neither symmetric nor
    antisymmetric, so a dropped transpose shows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    axis = 1e15 + 1e12 * np.cumsum(rng.uniform(0.5, 2.0, n))
    grid = FrequencyGrid(signal_axis=axis, idler_axis=axis.copy())
    base = _random_amplitude(rng, (n, n), bool(seed % 2), 0)
    amp = base + rng.uniform(0.3, 0.7) * base.T
    amp[rng.choice(n, n // 4, replace=False), :] = 0.0
    amp[:, rng.choice(n, n // 4, replace=False)] = 0.0
    return JsaGrid(grid=grid, amplitude=amp).normalized_copy()


class _NumpySpy:
    """Stands in for numpy inside spectral and keeps every argument of
    np.vdot(a, a), a block taken against itself: those are the Gram
    blocks, whose dtype and shapes tell which branch summed them. The
    exchange sums take a block against another array and are not kept."""

    def __init__(self):
        self.vdot_args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def vdot(self, a, b):
        if a is b:
            self.vdot_args.append(a)
        return np.vdot(a, b)


def _assert_blocks_tile(blocks, side, dtype, split=0):
    """``blocks`` are the Gram blocks G_ab, a <= b, of a side x side Gram
    over row blocks of at most ``_GRAM_BLOCK`` rows that break at row
    ``split``, each of ``dtype``: with G_ba = G_ab^H for each a < b, they
    tile side^2 once."""
    extents = [min(spectral._GRAM_BLOCK, end - r)
               for start, end in ((0, split), (split, side))
               for r in range(start, end, spectral._GRAM_BLOCK)]
    pairs = [(a, b) for b in range(len(extents)) for a in range(b + 1)]
    assert sorted(tuple(sorted(g.shape)) for g in blocks) == \
        sorted(tuple(sorted((extents[a], extents[b]))) for a, b in pairs)
    assert all(g.dtype == dtype for g in blocks)


@pytest.fixture()
def numpy_spy(monkeypatch):
    spy = _NumpySpy()
    monkeypatch.setattr(spectral, "np", spy)
    return spy


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

    @pytest.mark.parametrize("scale", [1e-12, 3.0, 1e12])
    def test_scale_free(self, default_jsa, scale):
        # a real and a complex JSA, each rescaled without renormalizing
        for jsa in (default_jsa, _exchange_mixed_jsa(1)):
            scaled = JsaGrid(grid=jsa.grid, amplitude=scale * jsa.amplitude)
            expected = overlap_integral(jsa)
            assert abs(overlap_integral(scaled) - expected) <= 1e-15 * expected

    def test_all_zero_rejected(self, default_jsa):
        jsa = JsaGrid(grid=default_jsa.grid,
                      amplitude=np.zeros(default_jsa.grid.shape))
        with pytest.raises(ConfigError, match="all-zero"):
            overlap_integral(jsa)

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
        res = schmidt(JsaGrid(grid=grid, amplitude=amp))
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
        assert schmidt(default_jsa).purity == pytest.approx(
            _svd_purity(default_jsa), abs=1e-12)
        for which in ("f1", "f2"):
            assert single_lobe_purity(lobes, which) == pytest.approx(
                _svd_purity(_padded_lobe(lobes, which)), abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_svd_oracle_on_tall_complex_jsas(self, seed):
        # more rows than columns, so the Gram is taken over a transposed
        # view, and more columns than one block, so the off-diagonal
        # blocks of that view are weighted too; unequal non-uniform axes
        # and a complex, unnormalized amplitude
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(
            signal_axis=np.cumsum(rng.uniform(0.5, 2.0, 300)),
            idler_axis=np.cumsum(rng.uniform(0.5, 2.0, 140)))
        amp = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        jsa = JsaGrid(grid=grid, amplitude=amp)
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


class TestExchangeChunks:
    """The exchange sums run a chunk of rows at a time."""

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_chunked_equals_whole_block_vdot(self, complex_valued):
        # a split and a far side that are not whole numbers of chunks
        rng = np.random.default_rng(3)
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 300)
        base = _random_amplitude(rng, grid.shape, complex_valued, 0)
        f = base + 0.5 * base.T
        w_s, w_i = grid.signal_weights, grid.idler_weights
        split = 2 * spectral._EXCHANGE_CHUNK + 37
        before, after = slice(None, split), slice(split, None)
        for rows, cols in ((before, before), (after, after), (after, before),
                           (before, after)):
            weighted = f[rows, cols] * w_s[rows, np.newaxis]
            weighted *= w_i[cols]
            whole = complex(np.vdot(f[cols, rows].T, weighted))
            got = spectral._exchange_block(f, w_s, w_i, rows, cols)
            assert abs(got - whole) <= 1e-13 * abs(whole)

    @pytest.mark.parametrize("call", [
        overlap_integral,
        lambda jsa: lobe_overlap_matrix(split_lobes(jsa, 1560e-9)),
    ], ids=["overlap_integral", "lobe_overlap_matrix"])
    def test_holds_a_fraction_of_a_grid(self, default_jsa, peak_grids, call):
        # one chunk of weighted rows and vdot's copy of one chunk of the
        # mirror; a whole weighted block at the middle split is 0.25 grids,
        # and with its mirror's copy 0.5
        assert peak_grids(lambda: call(default_jsa)) <= 0.25


class TestKernelsAgainstDirectFormulas:
    """schmidt, overlap_integral and lobe_overlap_matrix against the direct
    full-grid formulas they replaced, to a relative 1e-12."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_schmidt_random_non_square(self, seed, complex_valued):
        # unequal non-uniform axes, either side the longer, with zero rows
        # and columns: a swapped weight or a wrongly chosen side would show
        rng = np.random.default_rng(seed)
        m, n = (int(k) for k in rng.integers(6, 40, size=2))
        grid = FrequencyGrid(signal_axis=np.cumsum(rng.uniform(0.5, 2.0, m)),
                             idler_axis=np.cumsum(rng.uniform(0.5, 2.0, n)))
        amp = _random_amplitude(rng, (m, n), complex_valued,
                                int(rng.integers(0, min(m, n) // 2)))
        jsa = JsaGrid(grid=grid, amplitude=amp)
        assert schmidt(jsa).purity == pytest.approx(_gram_purity(jsa),
                                                    rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_overlap_integral_random(self, seed):
        jsa = _exchange_mixed_jsa(seed)
        f = jsa.amplitude
        assert overlap_integral(jsa) == pytest.approx(
            abs(_exchange_sum(f, f, jsa.grid)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("samples", [65, 300, 512])
    def test_overlap_integral_over_tile_pairs(self, samples, complex_valued):
        # split at the middle row: 65 into unequal sides, 300 and 512 (the
        # CLI's default) into equal ones; B + c B^T keeps the exchange sum
        # well away from zero
        rng = np.random.default_rng(samples)
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, samples)
        base = _random_amplitude(rng, grid.shape, complex_valued, 0)
        jsa = JsaGrid(grid=grid,
                      amplitude=base + 0.5 * base.T).normalized_copy()
        f = jsa.amplitude
        weighted = f * np.outer(grid.signal_weights, grid.idler_weights)
        direct = abs(np.vdot(f.T, weighted))
        assert abs(np.sqrt(overlap_integral(jsa)) - direct) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lobe_overlap_matrix_random(self, seed):
        jsa = _exchange_mixed_jsa(seed)
        axis = jsa.grid.signal_axis
        lobes = _lobes_at(jsa, axis[axis.size // 2])
        self._assert_lobe_overlaps_match(lobes)
        for which in ("f1", "f2"):
            assert single_lobe_purity(lobes, which) == pytest.approx(
                _gram_purity(_padded_lobe(lobes, which)), rel=1e-12)

    def test_design_and_measured_jsas_and_their_lobes(
            self, default_jsa, measured_jsi):
        for jsa in (default_jsa, jsa_from_jsi(measured_jsi)):
            f = jsa.amplitude
            assert overlap_integral(jsa) == pytest.approx(
                abs(_exchange_sum(f, f, jsa.grid)) ** 2, rel=1e-12)
            assert schmidt(jsa).purity == pytest.approx(_gram_purity(jsa),
                                                        rel=1e-12)
            lobes = split_lobes(jsa, 1560e-9)
            self._assert_lobe_overlaps_match(lobes)
            for which in ("f1", "f2"):
                assert single_lobe_purity(lobes, which) == pytest.approx(
                    _gram_purity(_padded_lobe(lobes, which)), rel=1e-12)

    @staticmethod
    def _assert_lobe_overlaps_match(lobes):
        a1 = _padded_lobe(lobes, "f1").amplitude
        a2 = _padded_lobe(lobes, "f2").amplitude
        grid = lobes.jsa.grid
        w = np.outer(grid.signal_weights, grid.idler_weights)
        f = lobe_overlap_matrix(lobes)
        assert f[0, 0].real == pytest.approx(np.sum(np.abs(a1) ** 2 * w),
                                             rel=1e-12)
        assert f[1, 1].real == pytest.approx(np.sum(np.abs(a2) ** 2 * w),
                                             rel=1e-12)
        assert f[0, 1] == pytest.approx(_exchange_sum(a1, a2, grid),
                                        rel=1e-12)
        assert f[1, 0] == np.conj(f[0, 1])


class TestSchmidtBranches:
    """How schmidt and single_lobe_purity sum the Gram matrix: in real or
    complex arithmetic, over row blocks of the smaller side, never whole."""

    def test_real_full_for_the_design_jsa(self, default_jsa, numpy_spy):
        purity = schmidt(default_jsa).purity
        _assert_blocks_tile(numpy_spy.vdot_args, 512, np.float64)
        assert purity == pytest.approx(_gram_purity(default_jsa), rel=1e-12)

    def test_real_over_each_lobes_rows(self, default_jsa, measured_jsi,
                                       numpy_spy):
        # a lobe has fewer rows than columns, so its Gram is rows x rows
        for jsa in (default_jsa, jsa_from_jsi(measured_jsi)):
            lobes = split_lobes(jsa, 1560e-9)
            for which in ("f1", "f2"):
                rows = (jsa.grid.shape[0] - lobes.split if which == "f1"
                        else lobes.split)
                assert 0 < rows < jsa.grid.shape[1]
                numpy_spy.vdot_args.clear()
                purity = single_lobe_purity(lobes, which)
                _assert_blocks_tile(numpy_spy.vdot_args, rows, np.float64)
                assert purity == pytest.approx(
                    _gram_purity(_padded_lobe(lobes, which)), rel=1e-12)

    def test_complex_full_for_the_domain_sampled_jsa(
            self, default_crystal, default_pump, numpy_spy):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 96)
        jsa = compute_jsa(grid, default_crystal, default_pump,
                          pmf_mode=PmfMode.FROM_DOMAINS)
        assert jsa.amplitude.dtype == np.complex128
        assert np.any(jsa.amplitude.imag)
        purity = schmidt(jsa).purity
        _assert_blocks_tile(numpy_spy.vdot_args, 96, np.complex128)
        assert purity == pytest.approx(_gram_purity(jsa), rel=1e-12)

    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("shape", [(12, 30), (30, 12), (300, 200),
                                       (200, 300)])
    def test_trimmed_to_the_smaller_side(self, numpy_spy, complex_valued,
                                         shape):
        # zero rows and columns are kept: they add nothing to the Gram;
        # 200 rows are not a whole number of blocks
        rng = np.random.default_rng(7)
        amp = _random_amplitude(rng, shape, complex_valued, 3)
        grid = FrequencyGrid(signal_axis=np.arange(1.0, shape[0] + 1),
                             idler_axis=np.arange(1.0, shape[1] + 1))
        jsa = JsaGrid(grid=grid, amplitude=amp)
        purity = schmidt(jsa).purity
        _assert_blocks_tile(
            numpy_spy.vdot_args, min(shape),
            np.complex128 if complex_valued else np.float64)
        assert purity == pytest.approx(_gram_purity(jsa), rel=1e-12)

    def test_holds_no_whole_gram(self, default_jsa, peak_grids):
        # one weighted row block and one Gram block; a weighted copy of the
        # amplitude is one more grid, and a whole Gram another
        assert peak_grids(lambda: schmidt(default_jsa)) <= 0.5


def _design_cut(crystal, pump):
    lam1, lam2 = design_lobe_wavelengths(crystal, pump)
    return 0.5 * (lam1 + lam2)


class TestTwoLobeSummary:
    """two_lobe_summary takes the Schmidt purity and both single-lobe
    purities from one Gram pass split at the lobes, the overlap from one
    exchange sum that reuses f12, and every |f|^2 sum from one marginal."""

    @pytest.fixture(params=["design", "measured", "domains",
                            "random-complex"])
    def jsa_and_cut(self, request, default_crystal, default_pump):
        cut = _design_cut(default_crystal, default_pump)
        if request.param == "design":
            return request.getfixturevalue("default_jsa"), cut
        if request.param == "measured":
            return (jsa_from_jsi(request.getfixturevalue("measured_jsi")),
                    1560e-9)
        if request.param == "domains":
            # complex; split at the valley split_lobes suggests for it
            grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 96)
            return compute_jsa(grid, default_crystal, default_pump,
                               pmf_mode=PmfMode.FROM_DOMAINS), 1588e-9
        # a split 42 rows past a block edge, with rows of both lobes in
        # more than one block; B + c B^T keeps the exchange sum away from 0
        rng = np.random.default_rng(11)
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 300)
        base = _random_amplitude(rng, grid.shape, True, 0)
        jsa = JsaGrid(grid=grid,
                      amplitude=base + 0.5 * base.T).normalized_copy()
        axis = grid.signal_axis
        return jsa, TWO_PI_C / (0.5 * (axis[169] + axis[170]))

    def test_matches_the_kernels_and_the_oracles(self, jsa_and_cut):
        jsa, cut = jsa_and_cut
        summary = two_lobe_summary(jsa, cut)
        lobes = split_lobes(jsa, cut)
        assert lobes.split % spectral._GRAM_BLOCK != 0
        purity = summary["schmidt_purity"]
        assert purity == pytest.approx(schmidt(jsa).purity, rel=1e-12)
        assert purity == pytest.approx(_gram_purity(jsa), rel=1e-12)
        assert summary["schmidt_number"] == pytest.approx(1 / purity,
                                                          rel=1e-15)
        for which in ("f1", "f2"):
            lobe = summary["single_lobe_purity"][which]
            assert lobe == pytest.approx(single_lobe_purity(lobes, which),
                                         rel=1e-12)
            assert lobe == pytest.approx(
                _gram_purity(_padded_lobe(lobes, which)), rel=1e-12)
        f = jsa.amplitude
        overlap = summary["overlap_integral"]
        assert overlap == pytest.approx(overlap_integral(jsa), rel=1e-12)
        assert overlap == pytest.approx(
            abs(_exchange_sum(f, f, jsa.grid)) ** 2, rel=1e-12)
        assert summary["lobes"] == lobe_metrics(jsa, cut)
        assert np.array_equal(summary["f_mn"], lobe_overlap_matrix(lobes))

    def test_sums_the_marginal_once(self, default_jsa, default_crystal,
                                    default_pump, monkeypatch):
        # split_lobes sums it; f11, f22 and the lobe positions reuse it
        reads = []
        marginal = JsaGrid.signal_marginal

        def counted(jsa):
            reads.append(jsa)
            return marginal.fget(jsa)

        monkeypatch.setattr(JsaGrid, "signal_marginal", property(counted))
        two_lobe_summary(default_jsa,
                         _design_cut(default_crystal, default_pump))
        assert len(reads) == 1

    def test_tiles_the_gram_once(self, default_jsa, default_crystal,
                                 default_pump, numpy_spy):
        # not the whole Gram and then each lobe's Gram again
        cut = _design_cut(default_crystal, default_pump)
        split = split_lobes(default_jsa, cut).split
        two_lobe_summary(default_jsa, cut)
        _assert_blocks_tile(numpy_spy.vdot_args, 512, np.float64, split)


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

    def test_result_and_its_lobes_are_real(self, default_jsa, measured_jsi):
        # so is the analytic JSA; the lobes are rows of the parent itself
        for jsa in (default_jsa, jsa_from_jsi(measured_jsi)):
            lobes = split_lobes(jsa, 1560e-9)
            assert lobes.jsa is jsa
            assert jsa.amplitude.dtype == np.float64

    def test_one_buffer_with_the_bits_of_the_formula(self, default_jsa,
                                                      peak_grids):
        jsi = jsi_of(default_jsa)
        grid = jsi.grid
        root = np.sqrt(jsi.intensity / float(
            grid.signal_weights @ jsi.intensity @ grid.idler_weights))
        wi_above = grid.idler_axis[np.newaxis, :] > grid.signal_axis[:, None]
        expected = np.where(wi_above, -root, root)
        assert jsa_from_jsi(jsi).amplitude.tobytes() == expected.tobytes()
        assert peak_grids(lambda: jsa_from_jsi(jsi)) <= 1.5

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
        # the pair holds the parent itself and the split row, no lobe copy:
        # f2 is the rows before the split and f1 the rows from it on
        lobes = split_lobes(default_jsa, 1560e-9)
        assert lobes.jsa is default_jsa
        assert [f.name for f in fields(LobePair)] == ["jsa", "split",
                                                      "marginal"]
        assert 0 < lobes.split < default_jsa.grid.shape[0]
        assert lobes.marginal.tobytes() == \
            default_jsa.signal_marginal.tobytes()

    def test_lobes_are_disjoint(self, default_jsa):
        # f1 holds exactly the rows above the cut, f2 the rest
        lobes = split_lobes(default_jsa, 1560e-9)
        axis = default_jsa.grid.signal_axis
        cut = TWO_PI_C / 1560e-9
        assert np.all(axis[lobes.split:] > cut)
        assert np.all(axis[:lobes.split] <= cut)
        assert 0 < lobes.split < axis.size

    def test_cut_on_a_grid_frequency_goes_to_f2(self, default_jsa):
        axis = default_jsa.grid.signal_axis
        near = int(np.argmin(np.abs(axis - TWO_PI_C / 1560e-9)))
        # a row whose frequency survives the wavelength round trip exactly
        row = next(k for k in range(near, near + 10)
                   if TWO_PI_C / (TWO_PI_C / axis[k]) == axis[k])
        assert split_lobes(default_jsa, TWO_PI_C / axis[row]).split == row + 1

    @pytest.mark.parametrize("cut_nm, empty", [(1490.0, "f1"),
                                               (1630.0, "f2")])
    def test_cut_beyond_the_window_leaves_a_lobe_empty(
            self, default_jsa, cut_nm, empty):
        lobes = split_lobes(default_jsa, cut_nm * 1e-9)
        assert lobes.split == (default_jsa.grid.shape[0] if empty == "f1"
                               else 0)
        f = lobe_overlap_matrix(lobes)
        assert f[0, 0].real + f[1, 1].real == pytest.approx(1.0, abs=1e-12)
        assert f[0, 1] == 0
        full = "f2" if empty == "f1" else "f1"
        assert single_lobe_purity(lobes, full) == pytest.approx(
            schmidt(default_jsa).purity, rel=1e-12)
        with pytest.raises(ConfigError, match=f"lobe {empty} is identically"):
            single_lobe_purity(lobes, empty)
        # the two-lobe summary names the cut and the empty side
        side = "short" if empty == "f1" else "long"
        with pytest.raises(ConfigError, match=(
                f"cut at {cut_nm:g} nm leaves no intensity on the "
                f"{side}-wavelength side; try a cut near 15")):
            two_lobe_summary(default_jsa, cut_nm * 1e-9)

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
        f = lobe_overlap_matrix(_lobes_at(_random_jsa(seed),
                                          TWO_PI_C / 1560e-9))
        assert f[0, 0].real + f[1, 1].real == pytest.approx(1.0, abs=1e-9)
        assert abs(f[0, 1]) <= np.sqrt(f[0, 0].real * f[1, 1].real) + 1e-9

    @staticmethod
    def _lobes_at_the_bound(samples):
        """Lobes of b - b^T with b wholly on f1's rows and on the idler
        columns above the cut: |f12| = sqrt(f11 f22) exactly, up to
        rounding, and the JSA is left unnormalized (f11 ~ 1e25)."""
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, samples)
        in_f1 = grid.signal_axis > TWO_PI_C / 1560e-9
        b = np.random.default_rng(samples).random((samples, samples))
        b[~in_f1, :] = 0.0
        b[:, in_f1] = 0.0
        return split_lobes(JsaGrid(grid=grid, amplitude=b - b.T), 1560e-9)

    @pytest.mark.parametrize("samples", range(128, 513, 32))
    def test_unnormalized_lobes_at_the_bound(self, samples):
        # an absolute slack of 1e-9 is below the rounding of f ~ 1e25
        f = lobe_overlap_matrix(self._lobes_at_the_bound(samples))
        bound = np.sqrt(f[0, 0].real * f[1, 1].real)
        assert f[0, 0].real > 1e20
        assert abs(f[0, 1]) == pytest.approx(bound, rel=1e-12)

    def test_inflated_overlap_raises(self, monkeypatch):
        class InflatedVdot(_NumpySpy):
            def vdot(self, a, b):
                return (1 + 1e-8) * np.vdot(a, b)

        lobes = self._lobes_at_the_bound(256)
        lobe_overlap_matrix(lobes)
        monkeypatch.setattr(spectral, "np", InflatedVdot())
        with pytest.raises(ConvergenceError, match="Cauchy-Schwarz"):
            lobe_overlap_matrix(lobes)


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
        for spectrum in (default_jsa, jsi_of(default_jsa)):
            density = spectrum.signal_marginal
            assert density.shape == spectrum.grid.signal_axis.shape
            assert np.sum(density * spectrum.grid.signal_weights) == \
                pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ["real", "complex", "domains"])
    def test_signal_marginal_of_the_intensity_grid(self, default_jsa,
                                                   default_crystal,
                                                   default_pump, kind):
        if kind == "real":
            jsa = default_jsa
        elif kind == "complex":
            jsa = _random_jsa(5, samples=301)
        else:
            grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 96)
            jsa = compute_jsa(grid, default_crystal, default_pump,
                              pmf_mode=PmfMode.FROM_DOMAINS)
        assert (jsa.amplitude.dtype == np.float64) == (kind == "real")
        expected = np.abs(jsa.amplitude) ** 2 @ jsa.grid.idler_weights
        assert np.allclose(jsa.signal_marginal, expected, rtol=1e-13, atol=0)
        assert jsa.norm_squared == pytest.approx(
            jsa.grid.signal_weights @ expected, rel=1e-13)

    def test_lobe_metrics_of_the_amplitude_and_its_intensity(
            self, default_jsa, measured_jsi):
        # peak, centroid and FWHM read the same marginal either way
        for jsa in (default_jsa, jsa_from_jsi(measured_jsi)):
            direct = lobe_metrics(jsi_of(jsa), 1560e-9)
            m = lobe_metrics(jsa, 1560e-9)
            for lobe in ("short", "long"):
                assert m[lobe] == pytest.approx(direct[lobe], rel=1e-13)

    @pytest.mark.parametrize("call", [
        lambda jsa: split_lobes(jsa, 1560e-9),
        lambda jsa: jsa.norm_squared,
        lambda jsa: lobe_metrics(jsa, 1560e-9),
    ], ids=["split_lobes", "norm_squared", "lobe_metrics"])
    def test_reductions_build_no_intensity_grid(self, default_jsa,
                                                peak_grids, call):
        # a whole |f|^2 grid would be one 512^2 grid
        assert peak_grids(lambda: call(default_jsa)) <= 0.05


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
