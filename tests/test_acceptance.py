"""Acceptance gate: one test per headline requirement.

Each test prints as its own pass/fail line under ``pytest -v`` and checks
both the numbers and the runtime budget of one end-to-end requirement,
using the published reference values collected in ``spdc_studio.reference``.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from spdc_studio import reference
from spdc_studio.fixtures import load_measured_jsi, load_reference_state
from spdc_studio.measurement import (DetectorSpec, FiberSpec, RateRecord,
                                     VisibilityScan, estimate_squeezing,
                                     fit_visibility, multipair_visibility,
                                     rates_summary, tof_reconstruct,
                                     tof_resolution, tof_simulate,
                                     visibility_scan)
from spdc_studio.optics import (CrystalSpec, FrequencyGrid, PumpSpec,
                                compute_jsa, peak_power)
from spdc_studio.polarization import (BellKind, TwoQubitState, bell_state,
                                      chsh_max, concurrence, fidelity,
                                      purity, rho_from_lobes, trace_distance,
                                      werner_state)
from spdc_studio.spectral import (jsa_from_jsi, jsi_of, lobe_metrics,
                                  lobe_overlap_matrix, overlap_integral,
                                  schmidt, split_lobes)
from spdc_studio.tomography import (mle_reconstruct, simulate_counts,
                                    standard_16_settings)


@contextlib.contextmanager
def _stopwatch(limit_s: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"runtime {elapsed:.1f} s exceeds {limit_s} s"


def _default_jsa(samples=512):
    grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, samples)
    return compute_jsa(grid, CrystalSpec(), PumpSpec())


def _ginibre(seed, rank=4):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return TwoQubitState(matrix=rho / np.trace(rho).real)


def _haar_pure(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return TwoQubitState(matrix=np.outer(v, v.conj()))


def _mixed_bag(seed):
    return _haar_pure(seed) if seed % 2 == 0 else _ginibre(seed)


def test_criterion_01_designed_jsa_overlap():
    # default source on a 512^2 grid: exchange overlap at least 0.995
    with _stopwatch(10.0):
        eta = overlap_integral(_default_jsa())
    assert eta >= 0.995


def test_criterion_02_schmidt_purity_both_paths():
    # designed JSA near the 0.496 reference; measured fixture near 0.494
    with _stopwatch(10.0):
        designed = schmidt(_default_jsa()).purity
        fixture = schmidt(jsa_from_jsi(load_measured_jsi())).purity
    assert designed == pytest.approx(reference.SCHMIDT_PURITY_THEORY, abs=0.01)
    assert fixture == pytest.approx(reference.SCHMIDT_PURITY_MEASURED, abs=0.01)


def test_criterion_03_lobe_matrix_and_polarization_metrics():
    # measured fixture through split -> overlap matrix -> density matrix
    with _stopwatch(5.0):
        jsa = jsa_from_jsi(load_measured_jsi())
        f = lobe_overlap_matrix(split_lobes(jsa, 1560e-9))
        rho = rho_from_lobes(f)
        c, p = concurrence(rho), purity(rho)
    assert f[0, 0].real == pytest.approx(reference.LOBE_WEIGHT_F11, abs=0.002)
    assert f[1, 1].real == pytest.approx(reference.LOBE_WEIGHT_F22, abs=0.002)
    assert f[0, 1].real == pytest.approx(reference.LOBE_COHERENCE_F12,
                                         abs=0.002)
    assert c == pytest.approx(reference.SPECTRUM_CONCURRENCE, abs=0.002)
    assert p == pytest.approx(reference.SPECTRUM_PURITY, abs=0.003)


def _concurrence_eigen_oracle(rho: TwoQubitState) -> float:
    """Independent route: eigenvalues of the Hermitian R matrix."""
    yy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    rho_tilde = yy @ rho.matrix.conj() @ yy

    def psd_sqrt(m):
        vals, vecs = np.linalg.eigh(m)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    s = psd_sqrt(rho.matrix)
    r = psd_sqrt(s @ rho_tilde @ s)
    lam = np.sort(np.linalg.eigvalsh(r))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _chsh_svd_oracle(rho: TwoQubitState) -> float:
    """Independent route: singular values of the correlation matrix."""
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    t = np.array([[np.real(np.trace(rho.matrix @ np.kron(si, sj)))
                   for sj in paulis] for si in paulis])
    s = np.linalg.svd(t, compute_uv=False)
    return float(2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2))


def test_criterion_04_metric_identities():
    with _stopwatch(5.0):
        assert chsh_max(bell_state(BellKind.PSI_MINUS)) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9)
        for p in (0.0, 0.4, 0.7, 1.0):
            assert concurrence(werner_state(p)) == pytest.approx(
                max(0.0, (3 * p - 1) / 2), abs=1e-9)
        # full-rank states: near-singular matrices turn roundoff into
        # sqrt(eps)-sized eigenvalue noise in either route
        for seed in range(100):
            rho = _ginibre(seed)
            assert concurrence(rho) == pytest.approx(
                _concurrence_eigen_oracle(rho), abs=1e-9)
            assert chsh_max(rho) == pytest.approx(
                _chsh_svd_oracle(rho), abs=1e-9)


def test_criterion_05_tomography_round_trip():
    settings = standard_16_settings()
    with _stopwatch(120.0):
        tds = []
        for seed in range(20):
            rho = _mixed_bag(seed)
            records = simulate_counts(rho, settings, 1e5, seed=seed)
            est = mle_reconstruct(records).state
            eigvals = np.linalg.eigvalsh(est.matrix)
            assert eigvals[0] >= -1e-12
            assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-9)
            tds.append(trace_distance(est, rho))
        assert float(np.mean(tds)) < 0.02

        # error should shrink like 1/sqrt(N)
        mean_td = []
        for n in (1e3, 1e4, 1e5):
            tds_n = [
                trace_distance(
                    mle_reconstruct(simulate_counts(_mixed_bag(seed), settings,
                                                    n, seed=100 + seed)).state,
                    _mixed_bag(seed))
                for seed in range(6)
            ]
            mean_td.append(float(np.mean(tds_n)))
        slope = float(np.polyfit(np.log([1e3, 1e4, 1e5]),
                                 np.log(mean_td), 1)[0])
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_criterion_06_reference_state_consistency():
    with _stopwatch(60.0):
        rho = load_reference_state()
        target = bell_state(BellKind.PSI_MINUS)
        assert purity(rho) == pytest.approx(reference.QST_PURITY, abs=0.005)
        assert concurrence(rho) == pytest.approx(reference.QST_CONCURRENCE,
                                                 abs=0.005)
        assert fidelity(rho, target) == pytest.approx(reference.QST_FIDELITY,
                                                      abs=0.005)
        assert chsh_max(rho) == pytest.approx(reference.QST_CHSH, abs=0.01)

        # a full simulate -> reconstruct pass stays within doubled bands
        records = simulate_counts(rho, standard_16_settings(), 1e5, seed=0)
        est = mle_reconstruct(records).state
        assert purity(est) == pytest.approx(reference.QST_PURITY, abs=0.01)
        assert concurrence(est) == pytest.approx(reference.QST_CONCURRENCE,
                                                 abs=0.01)
        assert fidelity(est, target) == pytest.approx(reference.QST_FIDELITY,
                                                      abs=0.01)
        assert chsh_max(est) == pytest.approx(reference.QST_CHSH, abs=0.02)


def test_criterion_07_visibility_scans():
    with _stopwatch(30.0):
        # noiseless sinusoid recovered to 1e-6
        angles = np.linspace(0.0, math.pi, 24, endpoint=False)
        a, c, d = 4000.0, 0.3, 150.0
        counts = a * np.sin(angles + c) ** 2 + d
        fit = fit_visibility(VisibilityScan(
            fixed_angle=0.0, sweep_angles=angles, counts=counts))
        assert fit["V"] == pytest.approx(a / (a + 2 * d), abs=1e-6)

        # four-scan scenario on the reference state with Poisson noise
        rho = load_reference_state()
        fixed = {"H": 0.0, "V": math.pi / 2,
                 "D": math.pi / 4, "A": 3 * math.pi / 4}
        fitted = {
            basis: fit_visibility(visibility_scan(
                rho, angle, n_points=16, pairs_per_point=3e4, seed=0))["V"]
            for basis, angle in fixed.items()
        }
    for basis, v in fitted.items():
        assert v == pytest.approx(reference.VISIBILITY[basis], abs=0.03), basis


def test_criterion_08_squeezing_bookkeeping():
    with _stopwatch(120.0):
        # mu = 0.1 maps to -2.71 dB analytically
        r = math.asinh(math.sqrt(reference.MU_AT_FULL_POWER))
        db = 10.0 * math.log10(math.exp(-2.0 * r))
        assert db == pytest.approx(-2.71, abs=0.01)

        det = DetectorSpec()
        c_true = reference.SQUEEZING_SLOPE
        powers = [0.050, 0.155, 0.310, 0.620]
        observed = [
            (p, multipair_visibility(c_true * math.sqrt(p), det,
                                     n_trials=200_000, seed=0))
            for p in powers
        ]
        est = estimate_squeezing(observed, det)
        assert est["C_per_sqrt_w"] == pytest.approx(c_true, rel=0.05)

        assert multipair_visibility(0.0, det, n_trials=200_000, seed=0) == 1.0

        # common random numbers make the sweep effectively monotone; the
        # slack stands in for two standard errors of the count ratios
        vs = [multipair_visibility(r, det, n_trials=200_000, seed=1)
              for r in (0.05, 0.1, 0.2, 0.4, 0.8)]
        for nxt, prev in zip(vs[1:], vs[:-1]):
            assert nxt <= prev + 0.01


def test_criterion_09_tof_spectrometer():
    fiber, det = FiberSpec(), DetectorSpec()
    assert tof_resolution(fiber, det) * 1e9 == pytest.approx(
        reference.TOF_RESOLUTION_NM, abs=0.01)
    with _stopwatch(60.0):
        jsa = _default_jsa()
        direct = lobe_metrics(jsi_of(jsa), 1560e-9)
        hist = tof_simulate(jsa, fiber, det, n_pairs=1_000_000, seed=0)
        recon = tof_reconstruct(hist, fiber, det)
        m = lobe_metrics(recon, 1560e-9)
        eta = overlap_integral(jsa_from_jsi(recon))
    for side in ("short", "long"):
        assert m[side]["center_nm"] == pytest.approx(
            direct[side]["center_nm"], abs=0.3)
    assert eta >= 0.98


def test_criterion_10_rates_and_peak_power():
    with _stopwatch(1.0):
        rates = rates_summary(RateRecord(
            singles_1=reference.SINGLES_RATES_HZ[0],
            singles_2=reference.SINGLES_RATES_HZ[1],
            coincidences=reference.COINCIDENCE_RATE_HZ))
        pk = peak_power(PumpSpec(), 90e-15)
    assert rates["generation_rate_hz"] / 1e3 == pytest.approx(66.7, abs=0.1)
    assert rates["heralding_efficiency"] == pytest.approx(0.300, abs=0.001)
    assert pk == pytest.approx(reference.PEAK_POWER_W,
                               rel=0.05)
