import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_studio.errors import ConfigError
from spdc_studio.polarization import (BASIS_LABELS, PAULI, PAULI_PRODUCTS,
                                      BellKind, TwoQubitState,
                                      _correlation_matrix, _expectations,
                                      analyzer_projector, bell_state,
                                      chsh_max, concurrence,
                                      fidelity, metric_report,
                                      predicted_visibility, purity,
                                      rho_from_lobes, trace_distance,
                                      werner_state)
from spdc_studio.tomography import KETS, standard_16_settings

TSIRELSON = 2.0 * math.sqrt(2.0)


def _ginibre_state(seed):
    """Random full-rank density matrix from a complex Ginibre draw."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(matrix=rho / np.trace(rho).real)


def _random_local_unitary(seed):
    rng = np.random.default_rng(seed)
    us = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return np.kron(us[0], us[1])


class TestExpectations:
    def test_pauli_products_order(self):
        for a, sa in enumerate("ixyz"):
            for b, sb in enumerate("ixyz"):
                assert np.array_equal(PAULI_PRODUCTS[4 * a + b],
                                      np.kron(PAULI[sa], PAULI[sb]))

    @pytest.mark.parametrize("stack", ["settings", "pauli", "analyzers"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_trace_loop(self, stack, seed):
        if stack == "settings":
            kets = [np.kron(KETS[s.label[0]], KETS[s.label[1]])
                    for s in standard_16_settings()]
            ops = np.array([np.outer(k, k.conj()) for k in kets])
        elif stack == "pauli":
            ops = PAULI_PRODUCTS
        else:
            p1 = analyzer_projector(0.3)
            ops = np.array([np.kron(p1, analyzer_projector(theta))
                            for theta in np.linspace(0, math.pi, 16)])
        m = _ginibre_state(seed).matrix
        oracle = [np.trace(m @ op).real for op in ops]
        assert np.allclose(_expectations(m, ops), oracle, rtol=0, atol=1e-15)


class TestBellStates:
    @pytest.mark.parametrize("kind", list(BellKind))
    def test_pure_and_maximally_entangled(self, kind):
        rho = bell_state(kind)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)
        assert chsh_max(rho) == pytest.approx(TSIRELSON, abs=1e-9)

    def test_psi_minus_matrix_entries(self):
        rho = bell_state(BellKind.PSI_MINUS).matrix
        assert rho[1, 1] == pytest.approx(0.5)
        assert rho[2, 2] == pytest.approx(0.5)
        assert rho[1, 2] == pytest.approx(-0.5)
        assert rho[0, 0] == pytest.approx(0.0)

    def test_psi_minus_correlations_are_minus_identity(self):
        t = _correlation_matrix(bell_state(BellKind.PSI_MINUS))
        assert np.allclose(t, -np.eye(3), atol=1e-12)

    def test_psi_minus_unit_visibility_every_basis(self):
        rho = bell_state(BellKind.PSI_MINUS)
        for basis in ("H", "V", "D", "A"):
            assert predicted_visibility(rho, basis) == pytest.approx(
                1.0, abs=1e-9)


class TestWernerStates:
    @pytest.mark.parametrize("p", [0.0, 0.4, 0.7, 1.0])
    def test_closed_forms(self, p):
        rho = werner_state(p)
        assert concurrence(rho) == pytest.approx(
            max(0.0, (3 * p - 1) / 2), abs=1e-9)
        assert purity(rho) == pytest.approx((1 + 3 * p**2) / 4, abs=1e-12)
        assert chsh_max(rho) == pytest.approx(TSIRELSON * p, abs=1e-9)
        assert fidelity(rho, bell_state(BellKind.PSI_MINUS)) == pytest.approx(
            (1 + 3 * p) / 4, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.8, 1.0])
    def test_visibility_equals_mixing_parameter(self, p):
        rho = werner_state(p)
        for basis in ("H", "D"):
            assert predicted_visibility(rho, basis) == pytest.approx(
                p, abs=1e-12)

    def test_mixing_parameter_validated(self):
        with pytest.raises(ConfigError, match="\\[0, 1\\]"):
            werner_state(1.2)


class TestStateValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigError, match="4x4"):
            TwoQubitState(matrix=np.eye(3) / 3)

    def test_non_hermitian_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1
        with pytest.raises(ConfigError, match="Hermitian"):
            TwoQubitState(matrix=rho)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ConfigError, match="trace"):
            TwoQubitState(matrix=np.eye(4, dtype=complex) / 2)

    def test_non_finite_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[2, 2] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            TwoQubitState(matrix=rho)

    def test_fortran_ordered_matrix(self):
        rho = np.asfortranarray(np.eye(4, dtype=complex) / 4)
        assert TwoQubitState(matrix=rho).matrix[1, 1] == 0.25
        rho[2, 2] = np.inf
        with pytest.raises(ConfigError, match="non-finite"):
            TwoQubitState(matrix=rho)

    def test_negative_eigenvalue_rejected(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ConfigError, match="positivity"):
            TwoQubitState(matrix=rho)

    def test_tiny_negative_eigenvalue_clipped(self):
        eps = 2e-10
        rho = np.diag([0.5 + eps, 0.5, -eps, 0.0]).astype(complex)
        state = TwoQubitState(matrix=rho)
        eigvals = np.linalg.eigvalsh(state.matrix)
        assert eigvals[0] >= 0.0
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestRhoFromLobes:
    def test_concurrence_is_twice_coherence(self):
        for f12 in (-0.49, -0.3, 0.2):
            f = np.array([[0.5, f12], [np.conj(f12), 0.5]])
            assert concurrence(rho_from_lobes(f)) == pytest.approx(
                2 * abs(f12), abs=1e-9)

    def test_purity_identity(self):
        f11, f12 = 0.48, -0.41
        f = np.array([[f11, f12], [f12, 1 - f11]])
        expected = f11**2 + (1 - f11) ** 2 + 2 * abs(f12) ** 2
        assert purity(rho_from_lobes(f)) == pytest.approx(expected, abs=1e-12)

    def test_ideal_lobes_give_psi_minus(self):
        f = np.array([[0.5, -0.5], [-0.5, 0.5]])
        rho = rho_from_lobes(f)
        target = bell_state(BellKind.PSI_MINUS)
        assert fidelity(rho, target) == pytest.approx(1.0, abs=1e-9)

    def test_trace_constraint_enforced(self):
        f = np.array([[0.6, -0.4], [-0.4, 0.6]])
        with pytest.raises(ConfigError, match=re.escape(
                "density matrix trace is 1.2, expected 1")):
            rho_from_lobes(f)

    def test_hermiticity_constraint_enforced(self):
        # f12 != conj(f21), then an imaginary f11
        for f in ([[0.5, -0.4], [0.4, 0.5]],
                  [[0.5 + 1e-3j, -0.4], [-0.4, 0.5]]):
            with pytest.raises(ConfigError,
                               match="density matrix is not Hermitian"):
                rho_from_lobes(np.array(f))

    def test_cauchy_schwarz_enforced(self):
        f = np.array([[0.5, -0.6], [-0.6, 0.5]])
        with pytest.raises(ConfigError, match=re.escape(
                "density matrix has eigenvalue -1.000e-01 below the -1e-09 "
                "positivity tolerance")):
            rho_from_lobes(f)

    def test_shape_enforced(self):
        with pytest.raises(ConfigError, match="2x2"):
            rho_from_lobes(np.eye(3))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rho = werner_state(0.73)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        a = bell_state(BellKind.PSI_MINUS)
        b = bell_state(BellKind.PHI_PLUS)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_matches_sqrtm_oracle_for_mixed_targets(self, s1, s2):
        rho, sigma = _ginibre_state(s1), _ginibre_state(s2)
        s = scipy.linalg.sqrtm(rho.matrix)
        inner = scipy.linalg.sqrtm(s @ sigma.matrix @ s)
        expected = float(np.real(np.trace(inner)) ** 2)
        assert fidelity(rho, sigma) == pytest.approx(expected, abs=1e-8)
        assert 0.0 <= fidelity(rho, sigma) <= 1.0 + 1e-9


class TestVisibility:
    def test_unknown_basis_rejected(self):
        with pytest.raises(ConfigError, match="unknown basis"):
            predicted_visibility(bell_state(BellKind.PSI_MINUS), "Q")

    def test_dark_port_rejected(self):
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        with pytest.raises(ConfigError, match="dark"):
            predicted_visibility(TwoQubitState(matrix=hh), "V")

    def test_classical_correlations_lack_da_fringe(self):
        # the HV/VH mixture is perfectly correlated in the HV basis but has
        # no coherence, so the diagonal basis shows no fringe at all
        mix = np.zeros((4, 4), dtype=complex)
        mix[1, 1] = mix[2, 2] = 0.5
        rho = TwoQubitState(matrix=mix)
        assert predicted_visibility(rho, "H") == pytest.approx(1.0, abs=1e-12)
        assert predicted_visibility(rho, "D") == pytest.approx(0.0, abs=1e-12)


class TestAnalyzer:
    def test_projector_properties(self):
        for theta in (0.0, math.pi / 4, 1.1):
            p = analyzer_projector(theta)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_is_h_projector(self):
        p = analyzer_projector(0.0)
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)


class TestTraceDistance:
    def test_zero_for_identical(self):
        rho = werner_state(0.5)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_one_for_orthogonal(self):
        a = bell_state(BellKind.PSI_MINUS)
        b = bell_state(BellKind.PSI_PLUS)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_symmetric_and_bounded(self, s1, s2):
        rho, sigma = _ginibre_state(s1), _ginibre_state(s2)
        d = trace_distance(rho, sigma)
        assert d == pytest.approx(trace_distance(sigma, rho), abs=1e-12)
        assert 0.0 <= d <= 1.0 + 1e-12


class TestRandomStateInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_metric_ranges(self, seed):
        rho = _ginibre_state(seed)
        assert 0.25 - 1e-9 <= purity(rho) <= 1.0 + 1e-9
        assert 0.0 <= concurrence(rho) <= 1.0 + 1e-9
        assert 0.0 <= chsh_max(rho) <= TSIRELSON + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_local_unitary_invariance(self, seed_state, seed_unitary):
        rho = _ginibre_state(seed_state)
        u = _random_local_unitary(seed_unitary)
        rotated = TwoQubitState(matrix=u @ rho.matrix @ u.conj().T)
        assert concurrence(rotated) == pytest.approx(
            concurrence(rho), abs=1e-9)
        assert purity(rotated) == pytest.approx(purity(rho), abs=1e-9)
        assert chsh_max(rotated) == pytest.approx(chsh_max(rho), abs=1e-9)


class TestJsonRoundTrip:
    def test_round_trip_preserves_matrix(self):
        rho = werner_state(0.85)
        payload = rho.to_json_dict()
        assert payload["basis"] == list(BASIS_LABELS)
        back = TwoQubitState.from_json_dict(payload)
        assert np.allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            TwoQubitState.from_json_dict({"matrix": "oops"})

    def test_missing_matrix_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            TwoQubitState.from_json_dict({})

    def test_foreign_basis_rejected(self):
        payload = bell_state(BellKind.PSI_MINUS).to_json_dict()
        payload["basis"] = ["VV", "VH", "HV", "HH"]
        with pytest.raises(ConfigError, match="basis"):
            TwoQubitState.from_json_dict(payload)


class TestMetricReport:
    def test_bundles_the_four_metrics(self):
        rho = werner_state(0.9)
        report = metric_report(rho)
        assert list(report) == ["purity", "concurrence",
                                "fidelity_psi_minus", "chsh_s"]
        assert report["purity"] == pytest.approx(purity(rho))
        assert report["concurrence"] == pytest.approx(concurrence(rho))
        assert report["fidelity_psi_minus"] == pytest.approx(
            fidelity(rho, bell_state(BellKind.PSI_MINUS)))
        assert report["chsh_s"] == pytest.approx(chsh_max(rho))
