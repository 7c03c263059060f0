import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdc_studio import sellmeier
from spdc_studio.config import MAX_SAMPLES, RunConfig, make_grid
from spdc_studio.errors import ConfigError
from spdc_studio.optics import (_BLOCK_POINTS, _LATTICE_WIDTH, C_LIGHT,
                                DESIGN_WIDTH_SCALE, _bracketed_root,
                                _lattice_domain_pmf,
                                _pump_lattice,
                                DOMAIN_SAMPLES_PER_FRINGE, TWO_PI_C,
                                CrystalSpec, FrequencyGrid, JsaGrid, PmfMode, PolingPattern,
                                PulseShape, PumpSpec, compute_jsa,
                                coupling_coefficient, delta_k,
                                design_lobe_wavelengths, peak_power,
                                pmf_analytic, pmf_from_domains, pump_envelope,
                                temporal_walkoff, transform_limited_fwhm,
                                uniform_grating, wavevector)
from spdc_studio.spectral import overlap_integral, schmidt


class TestSellmeier:
    def test_y_axis_matches_dispersion_formula(self):
        # independent re-evaluation of the dispersion relation at 1 um
        lam_um = 1.0
        n2 = 2.09930 + 0.922683 / (1 - 0.0467695 / lam_um**2) \
            - 0.0138408 * lam_um**2
        assert sellmeier.refractive_index(1e-6, "y") == pytest.approx(
            math.sqrt(n2), abs=1e-12)

    def test_z_axis_matches_dispersion_formula(self):
        lam_um = 1.55
        n2 = 2.12725 + 1.18431 / (1 - 0.0514852 / lam_um**2) \
            + 0.6603 / (1 - 100.00507 / lam_um**2) - 0.00968956 * lam_um**2
        assert sellmeier.refractive_index(1.55e-6, "z") == pytest.approx(
            math.sqrt(n2), abs=1e-12)

    def test_birefringence_sign(self):
        # KTP is positive biaxial: n_z > n_y through the telecom band
        for lam in (0.78e-6, 1.55e-6):
            assert sellmeier.refractive_index(lam, "z") > \
                sellmeier.refractive_index(lam, "y")

    def test_group_index_matches_finite_difference(self):
        lam = 1.56e-6
        h = 1e-12
        for axis in ("y", "z"):
            n = sellmeier.refractive_index(lam, axis)
            dn = (sellmeier.refractive_index(lam + h, axis)
                  - sellmeier.refractive_index(lam - h, axis)) / (2 * h)
            expected = n - lam * dn
            assert sellmeier.group_index(lam, axis) == pytest.approx(
                expected, rel=1e-6)

    def test_group_exceeds_phase_index(self):
        # normal dispersion in the transparency window
        for lam in (0.78e-6, 1.2e-6, 1.55e-6):
            for axis in ("y", "z"):
                assert sellmeier.group_index(lam, axis) > \
                    sellmeier.refractive_index(lam, axis)

    def test_validity_range_enforced(self):
        with pytest.raises(ConfigError):
            sellmeier.refractive_index(0.2e-6, "y")
        with pytest.raises(ConfigError):
            sellmeier.refractive_index(4.0e-6, "z")
        with pytest.raises(ConfigError):
            sellmeier.refractive_index(1.0e-6, "x")


class TestDeltaK:
    def test_wavevector_definition(self):
        lam = 1.55e-6
        omega = TWO_PI_C / lam
        n = sellmeier.refractive_index(lam, "y")
        assert wavevector(omega, "y") == pytest.approx(n * omega / C_LIGHT,
                                                       rel=1e-14)

    def test_degenerate_mismatch_small_and_frozen(self, default_crystal,
                                                  default_pump):
        w0 = default_pump.center_omega / 2
        dk = float(delta_k(w0, w0, default_crystal))
        # the grating nearly closes the momentum balance at degeneracy
        assert abs(dk) < 3000.0
        assert dk == pytest.approx(537.232, abs=0.05)

    def test_grating_term_vanishes_for_long_period(self, default_pump):
        w0 = default_pump.center_omega / 2
        bare = wavevector(2 * w0, "y") - wavevector(w0, "y") \
            - wavevector(w0, "z")
        crystal = CrystalSpec(poling_period=1e6)
        assert float(delta_k(w0, w0, crystal)) == pytest.approx(
            bare, rel=1e-9, abs=1e-4)


class TestPumpEnvelope:
    @pytest.mark.parametrize("shape", [PulseShape.SECH2, PulseShape.GAUSSIAN])
    def test_intensity_fwhm(self, shape):
        pump = PumpSpec(pulse_shape=shape)
        w0 = pump.center_omega
        half = pump.bandwidth_omega / 2
        peak = abs(pump_envelope(np.array([w0]), pump))[0] ** 2
        at_edge = abs(pump_envelope(np.array([w0 + half]), pump))[0] ** 2
        assert at_edge == pytest.approx(peak / 2, rel=1e-9)

    def test_symmetric(self):
        pump = PumpSpec()
        w0 = pump.center_omega
        d = 3e12
        left = pump_envelope(np.array([w0 - d]), pump)
        right = pump_envelope(np.array([w0 + d]), pump)
        assert left == pytest.approx(right, rel=1e-12)


class TestPmf:
    def test_antisymmetric_in_mismatch(self):
        nu = np.linspace(-6000, 6000, 201)
        phi = pmf_analytic(nu, 333.0, 2700.0)
        assert np.allclose(phi, -phi[::-1], atol=1e-18)
        assert pmf_analytic(np.array([0.0]), 333.0, 2700.0)[0] == 0.0

    def test_lobes_peak_near_plus_minus_a(self):
        nu = np.linspace(-6000, 6000, 24001)
        phi = pmf_analytic(nu, 333.0, 2700.0)
        assert nu[np.argmax(phi)] == pytest.approx(2700.0, abs=5.0)
        assert nu[np.argmin(phi)] == pytest.approx(-2700.0, abs=5.0)

    def test_single_domain_matches_sinc(self):
        # length-normalized, so the analytic form carries no L prefactor
        length = 2e-3
        pattern = PolingPattern(length=length)
        dk = np.linspace(-8000.0, 8000.0, 41)
        got = pmf_from_domains(pattern, dk)
        x = dk * length / 2
        expected = np.sinc(x / np.pi) * np.exp(1j * x)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_uniform_grating_first_order_amplitude(self):
        # a square-wave grating converts a fraction 2/pi of a uniform
        # crystal's response at the quasi-phase-matched mismatch
        length, period = 4e-3, 46e-6
        pattern = uniform_grating(length, period)
        peak = abs(complex(pmf_from_domains(pattern,
                                            np.array([-2 * np.pi / period]))[0]))
        assert peak == pytest.approx(2 / np.pi, rel=0.01)

    def test_scalar_input(self):
        pattern = PolingPattern(length=1e-3)
        assert pmf_from_domains(pattern, 0.0) == pytest.approx(1.0)


def _loop_pmf(pattern, dk):
    """Reference PMF: one integral per domain, summed in a loop."""
    dk = np.asarray(dk, dtype=float)
    z = np.concatenate(([0.0], pattern.boundaries, [pattern.length]))
    near_zero = np.abs(dk) * pattern.length < 1e-9
    dk_safe = np.where(near_zero, 1.0, dk)
    total = np.zeros(dk.shape, dtype=complex)
    prev = np.exp(1j * dk * z[0])
    sign = pattern.first_sign
    for j in range(z.size - 1):
        cur = np.exp(1j * dk * z[j + 1])
        total += sign * np.where(near_zero, z[j + 1] - z[j],
                                 (cur - prev) / (1j * dk_safe))
        prev = cur
        sign = -sign
    return total / pattern.length


def _patterns(crystal):
    rng = np.random.default_rng(2024)
    irregular = np.sort(rng.uniform(0.0, crystal.length, 60))
    return {
        "uniform": uniform_grating(crystal.length, crystal.poling_period),
        "irregular": PolingPattern(length=crystal.length,
                                   boundaries=tuple(irregular), first_sign=-1),
    }


def _max_rel_dev(got, expected):
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


class TestDomainPmfOracle:
    @pytest.mark.parametrize("name", ["uniform", "irregular"])
    def test_closed_form_matches_loop(self, default_crystal, name):
        pattern = _patterns(default_crystal)[name]
        dk = np.linspace(-2e5, 2e5, 4001)
        assert 0.0 in dk
        got = pmf_from_domains(pattern, dk)
        assert _max_rel_dev(got, _loop_pmf(pattern, dk)) <= 1e-12

    def test_small_mismatch_matches_moment_expansion(self, default_crystal):
        # Phi(d) = M0 + i d M1 - d^2 M2 / 2 + O((d L)^3), with
        # Mn = (1/L) sum_j s_j (z_{j+1}^{n+1} - z_j^{n+1}) / (n + 1); at
        # d L = 4e-6 per-domain differences of exponentials lose ~1e-10
        for pattern in _patterns(default_crystal).values():
            z = np.concatenate(([0.0], pattern.boundaries, [pattern.length]))
            signs = pattern.first_sign * (-1.0) ** np.arange(z.size - 1)
            m = [np.dot(signs, np.diff(z ** (n + 1))) / (n + 1)
                 / pattern.length for n in range(3)]
            d = 1e-3
            expected = m[0] + 1j * d * m[1] - d * d * m[2] / 2
            assert abs(pmf_from_domains(pattern, d) - expected) <= 1e-14

    @pytest.mark.parametrize("name", ["uniform", "irregular"])
    def test_compute_jsa_matches_loop_oracle(self, default_crystal,
                                             default_pump, name):
        pattern = _patterns(default_crystal)[name]
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 128)
        ws = grid.signal_axis[:, np.newaxis]
        wi = grid.idler_axis[np.newaxis, :]
        bare = (delta_k(ws, wi, default_crystal)
                - 2 * np.pi / default_crystal.poling_period)
        oracle = JsaGrid(grid=grid, amplitude=pump_envelope(
            ws + wi, default_pump) * _loop_pmf(pattern, bare)).normalized_copy()
        got = compute_jsa(grid, default_crystal, default_pump,
                          pmf_mode=PmfMode.FROM_DOMAINS, pattern=pattern)
        assert _max_rel_dev(got.amplitude, oracle.amplitude) <= 1e-8


def _lattice_patterns(crystal):
    """``_patterns`` plus a single domain and 1,000 boundaries drawn from a
    Lambda/16 domain grid, the size of a synthesized pattern."""
    rng = np.random.default_rng(7)
    step = crystal.poling_period / 16
    slots = np.arange(1, math.ceil(crystal.length / step)) * step
    return {
        **_patterns(crystal),
        "single-domain": PolingPattern(length=crystal.length),
        "1000-boundaries": PolingPattern(
            length=crystal.length,
            boundaries=tuple(np.sort(rng.choice(slots, 1000, replace=False)))),
    }


# the sample step of compute_jsa(FROM_DOMAINS) for the default crystal
_LATTICE_H = 2.0 * math.pi / (CrystalSpec().length
                              * DOMAIN_SAMPLES_PER_FRINGE)


class TestDomainPmfLattice:
    """The two-table sample of compute_jsa(FROM_DOMAINS) against
    ``pmf_from_domains`` at the same points."""

    @pytest.mark.parametrize("lo, n", [
        (-1.5e5, 3503),  # far from zero, as the default grid's sample
        (-300 * _LATTICE_H, 3001),  # straddling zero, with x_300 = 0 exactly
        (-2e5, math.ceil(4e5 / _LATTICE_H) + 1),  # all of +-2e5
    ], ids=["far", "straddling", "2e5"])
    @pytest.mark.parametrize("name", ["uniform", "irregular", "single-domain",
                                      "1000-boundaries"])
    def test_within_bound_of_pmf_from_domains(self, default_crystal, name,
                                              lo, n):
        pattern = _lattice_patterns(default_crystal)[name]
        assert n % _LATTICE_WIDTH  # the last table row is partial
        got = _lattice_domain_pmf(pattern, lo, _LATTICE_H, n)
        x = lo + _LATTICE_H * np.arange(n)
        expected = pmf_from_domains(pattern, x)
        assert np.abs(got - expected).max() <= 1e-12
        # near zero the samples are pmf_from_domains' own
        near_zero = np.abs(x) * pattern.length < 1.0
        assert near_zero.any() == (lo < 0 < x[-1])
        assert got[near_zero].tobytes() == expected[near_zero].tobytes()


def _whole_grid_domain_pmf(pattern, bare):
    """Reference domain PMF: the 1-D sample interpolated one row at a time.

    The sample is ``_lattice_domain_pmf``'s, which TestDomainPmfLattice
    bounds against ``pmf_from_domains``; this oracle checks the row blocks.
    """
    h = 2.0 * math.pi / (pattern.length * DOMAIN_SAMPLES_PER_FRINGE)
    lo = float(bare.min()) - h
    n = math.ceil((float(bare.max()) - lo) / h) + 3
    sample = _lattice_domain_pmf(pattern, lo, h, n)
    phi = np.empty(bare.shape, dtype=complex)
    for out, dk in zip(phi, bare):
        t = (dk - lo) / h
        j = np.clip(np.floor(t).astype(np.intp), 1, n - 3)
        f = t - j
        fp, fm, fmm = f + 1.0, f - 1.0, f - 2.0
        out[:] = 0.5 * (fm * fmm * (fp * sample[j] - f / 3.0 * sample[j - 1])
                        + fp * f * (fm / 3.0 * sample[j + 2]
                                    - fmm * sample[j + 1]))
    return phi


def _pump_lattice_index(grid):
    """The pump frequencies s = (ws[0] + wi, ws[1:] + wi[-1]) and each
    cell's index i + j into them, or None when some cell's sum ws[i] + wi[j]
    lies more than 2 ulp from s[i + j]."""
    ws, wi = grid.signal_axis, grid.idler_axis
    s = np.concatenate((ws[0] + wi, ws[1:] + wi[-1]))
    index = np.add.outer(np.arange(ws.size), np.arange(wi.size))
    off = np.abs(ws[:, np.newaxis] + wi - s[index])
    return None if np.any(off > 2.0 * np.spacing(s[index])) else (s, index)


def _whole_grid_jsa(grid, crystal, pump, pmf_mode, per_cell=False):
    """Reference JSA: the elementwise chain on the whole grid at once.

    k_p and the pump envelope are taken, as compute_jsa takes them, from
    one evaluation per pump frequency, or with ``per_cell`` per cell
    through delta_k, the formula the lattice replaces.
    """
    ws = grid.signal_axis[:, np.newaxis]
    wi = grid.idler_axis[np.newaxis, :]
    if per_cell:
        dk = delta_k(ws, wi, crystal)
        envelope = pump_envelope(ws + wi, pump)
    else:
        s, index = _pump_lattice_index(grid)
        # delta_k's order of operations
        dk = (wavevector(s, "y")[index] - wavevector(ws, "y")
              - wavevector(wi, "z") + 2.0 * math.pi / crystal.poling_period)
        envelope = pump_envelope(s, pump)[index]
    if pmf_mode is PmfMode.ANALYTIC:
        w0 = pump.center_omega / 2.0
        phi = pmf_analytic(dk - float(delta_k(w0, w0, crystal)),
                           crystal.pmf_sigma * DESIGN_WIDTH_SCALE,
                           crystal.pmf_a)
    else:
        bare = dk - 2.0 * math.pi / crystal.poling_period
        phi = _whole_grid_domain_pmf(
            uniform_grating(crystal.length, crystal.poling_period), bare)
    return JsaGrid(grid=grid, amplitude=envelope * phi).normalized_copy()


def _warped(lo, hi, n, bend):
    """Strictly increasing, non-uniform axis on [lo, hi] for |bend| < 1."""
    x = np.linspace(0.0, 1.0, n)
    return lo + (hi - lo) * (x + bend * x * (1.0 - x))


_AXIS_512 = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512).signal_axis
_HEIGHT_512 = _BLOCK_POINTS // 512  # rows per block on a 512-column grid
# more columns than _BLOCK_POINTS, so compute_jsa's blocks are single rows
_AXIS_WIDE = np.linspace(_AXIS_512[0], _AXIS_512[-1], _BLOCK_POINTS + 1)


def _middle(axis, n):
    start = (axis.size - n) // 2
    return axis[start:start + n]


# every grid's cell sums sit on the pump-frequency lattice: its rows are
# a run of samples of its column axis
_BLOCK_GRIDS = {
    # edges of one and two block heights, and fixed heights about 64 rows,
    # a whole number of blocks for any power-of-two block up to 32768 points
    **{f"{n}x512": (_middle(_AXIS_512, n), _AXIS_512)
       for n in sorted({2, _HEIGHT_512 - 1, _HEIGHT_512, _HEIGHT_512 + 1,
                        2 * _HEIGHT_512 + 2, 63, 64, 65, 130, 512})},
    "3x(1+block)": (_middle(_AXIS_WIDE, 3), _AXIS_WIDE),
    # equal steps over different ranges
    "rows100-299x512": (_AXIS_512[100:300], _AXIS_512),
}

# unequal steps or non-uniform axes, fine enough to pass the coarse check
_OFF_LATTICE_GRIDS = {
    "96x300": (np.linspace(_AXIS_512[0], _AXIS_512[-1], 96),
               np.linspace(_AXIS_512[0], _AXIS_512[-1], 300)),
    "300x96": (np.linspace(_AXIS_512[0], _AXIS_512[-1], 300),
               np.linspace(_AXIS_512[0], _AXIS_512[-1], 96)),
    "non-uniform": (_warped(_AXIS_512[0], _AXIS_512[-1], 230, 0.3),
                    _warped(_AXIS_512[0], _AXIS_512[-1], 200, -0.4)),
}


class TestRowBlockOracle:
    """compute_jsa in row blocks has the bits of the whole-grid formula."""

    @pytest.mark.parametrize("mode", list(PmfMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("shape", list(_BLOCK_GRIDS))
    def test_bit_identical_to_whole_grid(self, default_crystal, default_pump,
                                         mode, shape):
        signal, idler = _BLOCK_GRIDS[shape]
        grid = FrequencyGrid(signal_axis=signal, idler_axis=idler)
        assert _pump_lattice_index(grid) is not None
        got = compute_jsa(grid, default_crystal, default_pump, pmf_mode=mode)
        oracle = _whole_grid_jsa(grid, default_crystal, default_pump, mode)
        assert got.amplitude.dtype == oracle.amplitude.dtype
        assert got.amplitude.tobytes() == oracle.amplitude.tobytes()


class TestPumpLattice:
    """The pump factors read from the pump-frequency lattice, the one way
    compute_jsa gets them."""

    @pytest.mark.parametrize("mode, samples, bound", [
        (PmfMode.ANALYTIC, 64, 1e-11),
        (PmfMode.ANALYTIC, 512, 1e-11),
        (PmfMode.ANALYTIC, 1024, 1e-11),
        (PmfMode.FROM_DOMAINS, 512, 1e-10),
    ], ids=lambda v: getattr(v, "value", str(v)))
    def test_within_bound_of_per_cell(self, default_crystal, default_pump,
                                      mode, samples, bound):
        # against the per-cell formula it replaces: k_p moves by at most
        # its slope times 2 ulp of the pump frequency
        grid = make_grid(RunConfig(samples=samples))
        got = compute_jsa(grid, default_crystal, default_pump, pmf_mode=mode)
        per_cell = _whole_grid_jsa(grid, default_crystal, default_pump, mode,
                                   per_cell=True)
        peak = np.abs(per_cell.amplitude).max()
        assert np.abs(got.amplitude - per_cell.amplitude).max() <= bound * peak
        assert not np.array_equal(got.amplitude, per_cell.amplitude)
        for metric in (lambda jsa: schmidt(jsa).purity, overlap_integral):
            expected = metric(per_cell)
            assert abs(metric(got) - expected) <= 1e-13 * expected

    def test_wavelength_window_grids_on_lattice(self):
        # the grids make_grid builds: every size up to 699 on the default
        # window, then odd and even sizes up to the limit on windows
        # RunConfig accepts
        for samples in range(64, 700):
            axis = FrequencyGrid.wavelength_window(1500e-9, 1620e-9,
                                                   samples).signal_axis
            assert _pump_lattice(axis, axis).size == 2 * samples - 1
        rng = np.random.default_rng(0)
        sizes = [700, 1001, 2047, 4096, *rng.integers(700, 4097, 8)]
        windows = [(1490.0, 1640.0), (1400.0, 1750.0), (1540.0, 1580.0),
                   (1450.0, 1700.0)]
        for k, samples in enumerate(sizes):
            lo, hi = windows[k % len(windows)]
            cfg = RunConfig(samples=int(samples), window=(lo * 1e-9, hi * 1e-9))
            grid = make_grid(cfg)
            s = _pump_lattice(grid.signal_axis, grid.idler_axis)
            assert s.size == 2 * cfg.samples - 1

    @pytest.mark.parametrize("mode", list(PmfMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("shape", list(_OFF_LATTICE_GRIDS))
    def test_off_lattice_grid_rejected(self, default_crystal, default_pump,
                                       mode, shape):
        signal, idler = _OFF_LATTICE_GRIDS[shape]
        grid = FrequencyGrid(signal_axis=signal, idler_axis=idler)
        assert _pump_lattice_index(grid) is None
        with pytest.raises(ConfigError, match="one uniform step, as "
                           "FrequencyGrid.wavelength_window makes"):
            compute_jsa(grid, default_crystal, default_pump, pmf_mode=mode)

    def test_coarse_check_comes_first(self, default_crystal, default_pump):
        grid = FrequencyGrid(signal_axis=_warped(_AXIS_512[0], _AXIS_512[-1],
                                                 20, 0.3),
                             idler_axis=_AXIS_512)
        with pytest.raises(ConfigError, match="grid too coarse"):
            compute_jsa(grid, default_crystal, default_pump)


class TestComputeJsa:
    def test_normalized(self, default_jsa):
        assert default_jsa.norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_normalized_flag_checked(self, default_jsa):
        # JsaGrid carries no normalized flag; normalized_copy is the one
        # normalizing path
        doubled = 2.0 * default_jsa.amplitude
        copy = JsaGrid(grid=default_jsa.grid, amplitude=doubled).normalized_copy()
        assert copy.norm_squared == pytest.approx(1.0, abs=1e-12)

    def test_normalizing_zero_or_overflow_rejected(self, default_jsa):
        for amplitude in (np.zeros(default_jsa.grid.shape),
                          np.full(default_jsa.grid.shape, 1e300)):
            with np.errstate(over="ignore"), \
                    pytest.raises(ConfigError, match="cannot normalize"):
                JsaGrid(grid=default_jsa.grid,
                        amplitude=amplitude).normalized_copy()

    def test_non_contiguous_amplitude(self, default_jsa):
        # a transposed view has no contiguous last axis
        amplitude = np.abs(default_jsa.amplitude)
        grid = JsaGrid(grid=default_jsa.grid, amplitude=amplitude.T)
        assert np.array_equal(grid.amplitude, amplitude.T)
        bad = amplitude.T.copy(order="F")
        bad[3, 5] = np.inf
        with pytest.raises(ConfigError, match="non-finite"):
            JsaGrid(grid=default_jsa.grid, amplitude=bad)

    def test_grid_too_coarse_rejected(self, default_crystal, default_pump):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 32)
        with pytest.raises(ConfigError, match="samples"):
            compute_jsa(grid, default_crystal, default_pump)

    def test_coarse_grid_advice_names_the_limit(self, default_crystal):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512)
        narrow = PumpSpec(bandwidth_fwhm=1e-15)
        with pytest.raises(ConfigError, match=r"needs \d+ samples, more than "
                                              f"the limit of {MAX_SAMPLES}"):
            compute_jsa(grid, default_crystal, narrow)

    def test_minimum_passing_grid(self, default_crystal, default_pump):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 64)
        jsa = compute_jsa(grid, default_crystal, default_pump)
        assert jsa.norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_near_antisymmetric_under_swap(self, default_jsa):
        # swapping signal and idler is close to a pure sign flip; the small
        # deficit comes from the group-index difference between the two
        # polarizations and is what the exchange-overlap metric measures
        amp = default_jsa.amplitude
        grid = default_jsa.grid
        w = np.outer(grid.signal_weights, grid.idler_weights)
        overlap = np.sum(np.conj(amp) * (-amp.T) * w)
        assert overlap.real > 0.995
        assert abs(overlap.imag) < 1e-9

    def test_from_domains_mode_runs(self, default_crystal, default_pump):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 128)
        jsa = compute_jsa(grid, default_crystal, default_pump,
                          pmf_mode=PmfMode.FROM_DOMAINS)
        assert jsa.norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_from_domains_holds_no_mismatch_grid(self, default_crystal,
                                                 default_pump, peak_grids):
        # the mismatch is taken block by block, for its range and for Phi;
        # the complex amplitude alone is two grids
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512)
        assert peak_grids(lambda: compute_jsa(
            grid, default_crystal, default_pump,
            pmf_mode=PmfMode.FROM_DOMAINS)) <= 3.0

    def test_analytic_holds_about_one_grid(self, default_crystal,
                                           default_pump, peak_grids):
        # the amplitude and one row block's temporaries
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512)
        assert peak_grids(lambda: compute_jsa(
            grid, default_crystal, default_pump)) <= 1.25


class TestJsaGridDtype:
    """A JsaGrid stores float64 when the imaginary part is exactly zero
    and complex128 otherwise."""

    GRID = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 16)

    @pytest.mark.parametrize("amplitude", [
        np.arange(256.0).reshape(16, 16),
        np.arange(256).reshape(16, 16),
        np.arange(256.0).reshape(16, 16).astype(complex),
        np.arange(256.0).reshape(16, 16).astype(np.complex64),
        np.arange(256.0).reshape(16, 16).astype(complex).T,
    ], ids=["float", "int", "complex-zero-imag", "complex64-zero-imag",
            "complex-zero-imag-view"])
    def test_zero_imaginary_part_is_stored_real(self, amplitude):
        jsa = JsaGrid(grid=self.GRID, amplitude=amplitude)
        assert jsa.amplitude.dtype == np.float64
        assert np.array_equal(jsa.amplitude, np.real(amplitude))

    @pytest.mark.parametrize("where", [(0, 0), (7, 11), (15, 15)])
    def test_any_nonzero_imaginary_part_is_stored_complex(self, where):
        amplitude = np.ones((16, 16), dtype=complex)
        amplitude[where] += 1e-300j
        jsa = JsaGrid(grid=self.GRID, amplitude=amplitude)
        assert jsa.amplitude.dtype == np.complex128
        assert np.array_equal(jsa.amplitude, amplitude)

    def test_non_finite_imaginary_part_rejected(self):
        amplitude = np.ones((16, 16), dtype=complex)
        amplitude[3, 5] = complex(1.0, np.nan)
        with pytest.raises(ConfigError, match="non-finite"):
            JsaGrid(grid=self.GRID, amplitude=amplitude)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_normalized_copy_keeps_the_complex_quotient_bits(
            self, default_jsa, complex_valued):
        rng = np.random.default_rng(3)
        amplitude = 3.7e12 * default_jsa.amplitude \
            + rng.normal(size=default_jsa.grid.shape)
        if complex_valued:
            amplitude = amplitude + 1j * rng.normal(size=amplitude.shape)
        jsa = JsaGrid(grid=default_jsa.grid, amplitude=amplitude)
        quotient = amplitude.astype(complex) / math.sqrt(jsa.norm_squared)
        expected = quotient if complex_valued else quotient.real
        copy = jsa.normalized_copy()
        assert copy.amplitude.dtype == expected.dtype
        assert np.array_equal(copy.amplitude, expected)


class TestDesignLobes:
    def test_positions(self, default_crystal, default_pump):
        lam1, lam2 = design_lobe_wavelengths(default_crystal, default_pump)
        assert lam1 * 1e9 == pytest.approx(1548.26, abs=0.05)
        assert lam2 * 1e9 == pytest.approx(1571.89, abs=0.05)

    def test_energy_conserving_pair(self, default_crystal, default_pump):
        lam1, lam2 = design_lobe_wavelengths(default_crystal, default_pump)
        wp = default_pump.center_omega
        # the idler partner of the short lobe is the long lobe, closely
        partner = TWO_PI_C / (wp - TWO_PI_C / lam1)
        assert partner == pytest.approx(lam2, rel=2e-4)

    def test_solved_to_the_root(self, default_crystal, default_pump):
        # the root solve's tolerance is absolute, in metres; one of 2e-12 m
        # (brentq's default) leaves |nu - a| at 0.01 1/m
        lam1, lam2 = design_lobe_wavelengths(default_crystal, default_pump)
        wp = default_pump.center_omega
        dk0 = delta_k(wp / 2, wp / 2, default_crystal)

        def nu(lam):
            ws = TWO_PI_C / lam
            return delta_k(ws, wp - ws, default_crystal) - dk0

        a = default_crystal.pmf_a
        assert abs(nu(lam1) - a) <= 1e-6
        assert abs(nu(lam2) + a) <= 1e-6

    @pytest.mark.parametrize("lo, hi", [(0.0, 2.0), (2.0, 0.0), (1.0, 1.5)])
    def test_bracketed_root(self, lo, hi):
        calls = []

        def cube(x):
            calls.append(x)
            return x ** 3 - 2.0

        root = _bracketed_root(cube, lo, hi, xtol=1e-15)
        assert root == pytest.approx(2.0 ** (1 / 3), rel=1e-15, abs=0)
        assert len(calls) <= 15

    def test_bracketed_root_needs_a_sign_change(self):
        with pytest.raises(ValueError, match="opposite signs"):
            _bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


class TestWalkoff:
    def test_perfect_compensation_for_flat_dispersion(self):
        # with wavelength-independent group indices, a compensator of half
        # the crystal length cancels the walk-off exactly
        crystal = CrystalSpec(length=4e-3, compensation_length=2e-3)

        def flat(lam, axis):
            return {"y": 1.7, "z": 1.8}[axis]

        assert temporal_walkoff(crystal, 1548e-9, 1572e-9,
                                group_index_fn=flat) == 0.0

    def test_uncompensated_magnitude(self):
        crystal = CrystalSpec(compensation_length=0.0)
        tau = temporal_walkoff(crystal, 1548e-9, 1572e-9)
        assert abs(tau) * 1e15 == pytest.approx(588.9, abs=2.0)

    def test_residual_few_fs(self, default_crystal):
        tau = temporal_walkoff(default_crystal, 1548e-9, 1572e-9)
        assert abs(tau) * 1e15 == pytest.approx(3.4166, abs=0.01)


class TestPowerBookkeeping:
    def test_peak_power_arithmetic(self):
        pump = PumpSpec()
        expected = 0.88 * 0.620 / (76e6 * 90e-15)
        assert peak_power(pump, 90e-15) == pytest.approx(expected, rel=1e-12)

    def test_transform_limited_duration(self):
        # 7 nm at 780 nm, sech^2: about 91 fs
        assert transform_limited_fwhm(PumpSpec()) * 1e15 == pytest.approx(
            91.3, abs=1.0)

    def test_kappa_scaling(self):
        ref = (0.050, 0.5)
        assert coupling_coefficient(0.050, ref) == pytest.approx(0.5)
        assert coupling_coefficient(0.620, ref) == pytest.approx(
            0.5 * math.sqrt(0.620 / 0.050), rel=1e-12)
        assert coupling_coefficient(0.0, ref) == 0.0

    @given(st.floats(min_value=1e-4, max_value=10.0),
           st.floats(min_value=1e-4, max_value=10.0))
    @example(1.0000000000000002e-4, 1e-4)
    @settings(max_examples=30, deadline=None)
    def test_kappa_monotone(self, p1, p2):
        # the square root can map powers an ulp apart to one kappa, so the
        # order is weak for every pair and strict once rounding cannot tie
        ref = (0.050, 0.5)
        k1, k2 = coupling_coefficient(p1, ref), coupling_coefficient(p2, ref)
        assert k1 <= k2 if p1 <= p2 else k1 >= k2
        if abs(p1 - p2) > 1e-12 * max(p1, p2):
            assert np.sign(k2 - k1) == np.sign(p2 - p1)


class TestValidation:
    def test_bad_pump(self):
        with pytest.raises(ConfigError):
            PumpSpec(center_wavelength=-1.0)
        with pytest.raises(ConfigError):
            PumpSpec(bandwidth_fwhm=0.0)

    def test_bad_crystal(self):
        with pytest.raises(ConfigError):
            CrystalSpec(length=0.0)
        with pytest.raises(ConfigError):
            CrystalSpec(compensation_length=-1e-3)

    def test_bad_pattern(self):
        with pytest.raises(ConfigError):
            PolingPattern(length=1e-3, boundaries=(2e-3,))
        with pytest.raises(ConfigError):
            PolingPattern(length=1e-3, boundaries=(5e-4, 4e-4))

    def test_grid_must_ascend(self):
        with pytest.raises(ConfigError):
            FrequencyGrid(signal_axis=np.array([2.0, 1.0]),
                          idler_axis=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("axis", [[np.nan, 2.0, 3.0], [1.0, np.nan, 3.0],
                                      [1.0, 2.0, np.nan], [1.0, 2.0, np.inf]])
    def test_grid_axes_must_be_finite(self, axis):
        # NaN compares false in the monotonicity test, and a last +inf ascends
        with pytest.raises(ConfigError, match="idler_axis must be finite"):
            FrequencyGrid(signal_axis=np.array([1.0, 2.0]),
                          idler_axis=np.array(axis))
