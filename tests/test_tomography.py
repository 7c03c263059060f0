import dataclasses
import re

import numpy as np
import pytest
import scipy.optimize
from scipy.special import xlogy

from spdc_studio import tomography
from spdc_studio.errors import ConfigError
from spdc_studio.fixtures import load_reference_state
from spdc_studio.polarization import (PAULI, BellKind, TwoQubitState,
                                      bell_state, concurrence,
                                      trace_distance, werner_state)
from spdc_studio.rng import substream
from spdc_studio.tomography import (KETS, MAX_PAIRS, ProjectorSetting,
                                    TomographyRecord, check_pairs,
                                    load_records, mle_reconstruct,
                                    save_records, simulate_counts,
                                    standard_16_settings)

EXPECTED_ORDER = ["HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
                  "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL"]


def _projector(label):
    """|ab><ab| for the setting ``label``, built from ``KETS`` alone."""
    ket = np.kron(KETS[label[0]], KETS[label[1]])
    return np.outer(ket, ket.conj())


def _probability(rho, setting):
    """Tr(rho |ab><ab|): the Born rule written out, the oracle for the
    module's one path through ``_projectors`` and ``_expectations``."""
    return float(np.trace(rho.matrix @ _projector(setting.label)).real)


def _noiseless_records(rho, pairs=1e6):
    return [
        TomographyRecord(setting=s,
                         counts=int(round(pairs * _probability(rho, s))),
                         acquisition_scale=pairs)
        for s in standard_16_settings()
    ]


class TestSimulateCountsOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_setting_draws(self, seed):
        rho = load_reference_state()
        settings = standard_16_settings()
        rng = substream(seed, "tomography.counts")
        oracle = [int(rng.poisson(1e5 * max(_probability(rho, s), 0.0)))
                  for s in settings]
        records = simulate_counts(rho, settings, 1e5, seed)
        assert [rec.counts for rec in records] == oracle
        assert all(rec.setting is s for rec, s in zip(records, settings))
        assert simulate_counts(rho, [], 1e5, seed) == []


class TestSettings:
    def test_canonical_order_frozen(self):
        labels = [s.label for s in standard_16_settings()]
        assert labels == EXPECTED_ORDER

    def test_kets_are_unit_norm(self):
        for ket in KETS.values():
            assert np.vdot(ket, ket).real == pytest.approx(1.0, abs=1e-12)

    def test_design_is_informationally_complete(self):
        # rank-16 design: the linear inversion is well-posed
        rho = werner_state(0.5)
        records = _noiseless_records(rho)
        assert trace_distance(mle_reconstruct(records).state, rho) < 1e-3

    def test_setting_from_label_validates(self):
        setting = ProjectorSetting("DR")
        assert setting.label == "DR"
        with pytest.raises(ConfigError, match="unknown setting"):
            ProjectorSetting("HX")
        with pytest.raises(ConfigError, match="unknown setting"):
            ProjectorSetting("HHH")

    def test_a_setting_is_its_label(self):
        # the label is all a records.csv keeps, so it is all a setting
        # holds: two kets given beside it could disagree with it
        assert [f.name for f in dataclasses.fields(ProjectorSetting)] == \
            ["label"]
        with pytest.raises(TypeError):
            ProjectorSetting("HH", KETS["D"], KETS["D"])
        with pytest.raises(ConfigError, match="unknown setting"):
            ProjectorSetting(None)
        labels = [a + b for a in KETS for b in KETS]
        np.testing.assert_array_equal(
            tomography._projectors([ProjectorSetting(lab) for lab in labels]),
            [_projector(lab) for lab in labels])


class TestExpectedProbability:
    def test_psi_minus_coincidence_pattern(self):
        rho = bell_state(BellKind.PSI_MINUS)
        p = {lab: _probability(rho, ProjectorSetting(lab))
             for lab in ("HH", "HV", "VH", "VV", "DD", "DA", "RL", "RR")}
        assert p["HH"] == pytest.approx(0.0, abs=1e-12)
        assert p["HV"] == pytest.approx(0.5, abs=1e-12)
        assert p["VH"] == pytest.approx(0.5, abs=1e-12)
        assert p["DD"] == pytest.approx(0.0, abs=1e-12)
        assert p["DA"] == pytest.approx(0.5, abs=1e-12)
        # the singlet anticorrelates in every basis, including circular
        assert p["RR"] == pytest.approx(0.0, abs=1e-12)
        assert p["RL"] == pytest.approx(0.5, abs=1e-12)


class TestSimulateCounts:
    def test_deterministic_per_seed(self):
        rho = werner_state(0.9)
        settings = standard_16_settings()
        a = simulate_counts(rho, settings, 1e4, seed=7)
        b = simulate_counts(rho, settings, 1e4, seed=7)
        c = simulate_counts(rho, settings, 1e4, seed=8)
        assert [r.counts for r in a] == [r.counts for r in b]
        assert [r.counts for r in a] != [r.counts for r in c]

    def test_counts_scale_with_pairs(self):
        rho = bell_state(BellKind.PSI_MINUS)
        records = simulate_counts(rho, standard_16_settings(), 1e5, seed=3)
        by_label = {r.setting.label: r.counts for r in records}
        assert by_label["HH"] == 0
        assert by_label["HV"] == pytest.approx(5e4, rel=0.05)

    def test_validation(self):
        rho = werner_state(0.5)
        with pytest.raises(ConfigError, match="positive"):
            simulate_counts(rho, standard_16_settings(), 0.0, seed=1)

    def test_counts_past_2_53_rejected(self):
        # a count above 2**53 would be written to records.csv and then
        # refused by load_records
        rho = bell_state(BellKind.PSI_MINUS)
        records = simulate_counts(rho, standard_16_settings(), 1e15, seed=0)
        assert max(r.counts for r in records) <= 2**53
        with pytest.raises(ConfigError, match=r"exceeds 2\*\*53"):
            simulate_counts(rho, standard_16_settings(), 1e17, seed=0)

    @pytest.mark.parametrize("pairs", [1e20, float("inf")])
    @pytest.mark.parametrize("state", ["werner", "psi-minus"])
    def test_pairs_past_the_cap_rejected(self, state, pairs):
        # numpy's Poisson sampler refuses means past about 9.2e18, and
        # inf pairs times a zero probability is nan
        rho = (werner_state(0.5) if state == "werner"
               else bell_state(BellKind.PSI_MINUS))
        with pytest.raises(ConfigError, match=re.escape(
                f"pairs_per_setting must be positive and finite, at most "
                f"1e18, got {pairs}")):
            simulate_counts(rho, standard_16_settings(), pairs, seed=0)

    def test_one_cap_for_records_and_simulations(self):
        setting = standard_16_settings()[0]
        assert TomographyRecord(setting, 0, MAX_PAIRS).acquisition_scale \
            == MAX_PAIRS == 1e18
        check_pairs(MAX_PAIRS, "pairs")
        above = np.nextafter(MAX_PAIRS, np.inf)
        with pytest.raises(ConfigError, match="acquisition_scale .* at most "
                                              "1e18"):
            TomographyRecord(setting, 0, above)
        with pytest.raises(ConfigError, match="pairs must .* at most 1e18"):
            check_pairs(above, "pairs")


class TestLinearInversion:
    """The Stokes inversion that ``mle_reconstruct`` starts from, held to
    its bounds through the fit."""

    def test_noiseless_recovery(self):
        for rho in (bell_state(BellKind.PSI_MINUS), werner_state(0.7)):
            est = mle_reconstruct(_noiseless_records(rho)).state
            assert trace_distance(est, rho) < 2e-3

    def test_output_is_physical(self):
        rho = werner_state(0.95)
        records = simulate_counts(rho, standard_16_settings(), 500, seed=11)
        est = mle_reconstruct(records).state
        eigvals = np.linalg.eigvalsh(est.matrix)
        assert eigvals[0] >= -1e-12
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_too_few_records_rejected(self):
        records = _noiseless_records(werner_state(0.5))[:12]
        with pytest.raises(ConfigError, match="at least 16"):
            mle_reconstruct(records)

    def test_degenerate_design_rejected(self):
        setting = ProjectorSetting("HH")
        records = [TomographyRecord(setting=setting, counts=100,
                                    acquisition_scale=1e3)] * 16
        with pytest.raises(ConfigError, match="informationally"):
            mle_reconstruct(records)


def _arrays(records):
    return (np.array([_projector(r.setting.label) for r in records]),
            np.array([r.counts for r in records], dtype=float),
            np.array([r.acquisition_scale for r in records]))


def _barrier_newton_deviance(records):
    """Least Poisson deviance by an independent method: damped Newton on
    D(r) - mu log det rho(r) over the 15 Pauli coordinates r of
    rho = (1 + sum r_a s_a)/4, with mu shrunk tenfold per stage down to
    1e-9. D is convex in r, and at the end of each stage the deviance
    exceeds its minimum over the states by about 4 mu at most."""
    ops, n, scale = _arrays(records)
    paulis = np.array([np.kron(PAULI[a], PAULI[b])
                       for a in "ixyz" for b in "ixyz"][1:])
    # m = m0 + A r, the expected counts
    m0 = scale * np.einsum("kii->k", ops).real / 4.0
    amat = scale[:, None] * np.einsum("kij,aji->ka", ops, paulis).real / 4.0

    def rho_of(r):
        return (np.eye(4) + np.tensordot(r, paulis, axes=1)) / 4.0

    def deviance(r):
        excess = m0 + amat @ r - n
        # per term, with log1p: the total of n log m would cancel to noise
        return float(np.sum(excess
                            - n * np.log1p(excess / np.maximum(n, 1.0))))

    def objective(r, mu):
        m = m0 + amat @ r
        eig = np.linalg.eigvalsh(rho_of(r))
        if eig[0] <= 0 or np.any(m <= 0):
            return np.inf
        return deviance(r) - mu * float(np.sum(np.log(eig)))

    r = np.zeros(15)
    mu = 1.0
    while mu >= 1e-9:
        for _ in range(500):
            m = m0 + amat @ r
            inv_s = np.linalg.inv(rho_of(r)) @ paulis
            grad = (amat.T @ (1.0 - n / m)
                    - mu * np.einsum("aii->a", inv_s).real / 4.0)
            hess = ((amat.T * (n / m ** 2)) @ amat
                    + mu * np.einsum("aij,bji->ab", inv_s, inv_s).real / 16.0)
            step = -np.linalg.solve(hess, grad)
            decrement = -float(grad @ step)
            if decrement < 1e-10:
                break
            f0, t = objective(r, mu), 1.0
            while objective(r + t * step, mu) > f0 - 0.25 * t * decrement:
                t *= 0.5
            r = r + t * step
        mu /= 10.0
    return deviance(r)


class TestMleReconstruct:
    def test_noiseless_recovery(self):
        rho = werner_state(0.9)
        result = mle_reconstruct(_noiseless_records(rho))
        assert result.converged
        assert trace_distance(result.state, rho) < 2e-3

    def test_deterministic(self):
        records = simulate_counts(werner_state(0.85), standard_16_settings(),
                                  1e4, seed=21)
        a = mle_reconstruct(records)
        b = mle_reconstruct(records)
        assert np.array_equal(a.state.matrix, b.state.matrix)
        assert a.deviance == b.deviance

    def test_werner_concurrence_recovered(self):
        records = simulate_counts(werner_state(0.9), standard_16_settings(),
                                  1e5, seed=3)
        result = mle_reconstruct(records)
        assert concurrence(result.state) == pytest.approx(0.85, abs=0.02)

    def test_deviance_gradient_matches_central_differences(self):
        records = simulate_counts(load_reference_state(),
                                  standard_16_settings(), 1e3, seed=1)
        args = _arrays(records)
        x = np.random.default_rng(5).normal(size=32)
        _, grad = tomography._deviance(x, *args)
        h = 1e-6
        numeric = [(tomography._deviance(x + h * e, *args)[0]
                    - tomography._deviance(x - h * e, *args)[0]) / (2 * h)
                   for e in np.eye(32)]
        assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-6)

    def test_deviance_hessian_matches_central_differences(self):
        records = simulate_counts(load_reference_state(),
                                  standard_16_settings(), 1e3, seed=1)
        args = _arrays(records)
        x = np.random.default_rng(5).normal(size=32)
        value, grad, hess = tomography._deviance(x, *args, hessian=True)
        plain_value, plain_grad = tomography._deviance(x, *args)
        assert value == plain_value and np.array_equal(grad, plain_grad)
        h = 1e-6
        numeric = np.array([(tomography._deviance(x + h * e, *args)[1]
                             - tomography._deviance(x - h * e, *args)[1])
                            / (2 * h) for e in np.eye(32)])
        top = np.abs(hess).max()
        assert np.abs(hess - hess.T).max() <= 1e-14 * top
        assert np.abs(hess - numeric).max() <= 1e-8 * top

    @pytest.mark.parametrize("state, pairs, seed", [
        ("reference", 1e5, 0), ("reference", 1e5, 1), ("reference", 1e5, 2),
        ("psi-minus", 1e5, 0), ("reference", 1e3, 1)])
    def test_reaches_least_deviance(self, state, pairs, seed):
        truth = (load_reference_state() if state == "reference"
                 else bell_state(BellKind.PSI_MINUS))
        records = simulate_counts(truth, standard_16_settings(), pairs, seed)
        result = mle_reconstruct(records)
        ops, n, scale = _arrays(records)
        m = scale * np.einsum("kij,ji->k", ops, result.state.matrix).real
        assert result.converged
        assert result.deviance == pytest.approx(
            np.sum(m - n - xlogy(n, m) + xlogy(n, n)), abs=1e-8)
        assert result.deviance <= _barrier_newton_deviance(records) + 1e-6

    @pytest.mark.parametrize("state, pairs, seed", [
        *[("reference", 1e5, s) for s in range(10)],
        ("psi-minus", 1e5, 0), ("werner", 1e4, 0),
        # fits on the rank boundary
        ("psi-minus", 1e4, 0), ("psi-minus", 1e3, 3), ("reference", 1e2, 2)])
    def test_no_worse_than_lbfgsb_oracle(self, monkeypatch, state, pairs,
                                         seed):
        # the oracle: scipy's L-BFGS-B at tight tolerances, started from the
        # point mle_reconstruct hands its optimizer
        truth = {"reference": load_reference_state,
                 "psi-minus": lambda: bell_state(BellKind.PSI_MINUS),
                 "werner": lambda: werner_state(0.9)}[state]()
        records = simulate_counts(truth, standard_16_settings(), pairs, seed)
        real_minimize = tomography.minimize
        calls = []

        def spy(fun, x0, args, **kwargs):
            calls.append((fun, x0.copy(), args))
            return real_minimize(fun, x0, args=args, **kwargs)

        monkeypatch.setattr(tomography, "minimize", spy)
        result = mle_reconstruct(records)
        (fun, x0, args), = calls
        assert fun is tomography._deviance
        oracle = scipy.optimize.minimize(
            fun, x0, args=args, jac=True, method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-10, "gtol": 1e-9})
        assert result.converged
        assert result.iterations <= 25
        assert result.deviance <= oracle.fun + 1e-9

    def test_non_finite_deviance_not_converged(self):
        # a count at the top of the float range overflows n log(m/n), so
        # the deviance is infinite, which no tolerance relative to it can
        # call converged
        records = simulate_counts(werner_state(0.9), standard_16_settings(),
                                  1e4, seed=9)
        records[0] = TomographyRecord(setting=records[0].setting,
                                      counts=10 ** 308,
                                      acquisition_scale=1e4)
        with np.errstate(all="ignore"):
            result = mle_reconstruct(records)
        assert not result.converged

    @pytest.mark.parametrize("counts, scale", [(2 ** 53, 1.0),
                                               (100000, 1e-290)])
    def test_deviance_finite_far_below_the_counts(self, counts, scale):
        # m = max(N p, 1e-12) far below n, where m/n - 1 rounds to -1 and
        # log1p(-1) is -inf; the deviance takes log(m/n) there
        records = [TomographyRecord(setting=s, counts=counts,
                                    acquisition_scale=scale)
                   for s in standard_16_settings()]
        x = (np.eye(4, dtype=complex) / 2).ravel().view(float)
        value, grad = tomography._deviance(x, *_arrays(records))
        # each projector has trace 1, so p = 1/4 at rho = 1/4
        m = max(scale / 4, 1e-12)
        expected = 16 * (m - counts - counts * np.log(m / counts))
        assert value == pytest.approx(expected, rel=1e-12)
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("scale", [5e-324, 1e-320])
    def test_underflowing_hessian_ends_the_fit(self, monkeypatch, scale):
        # no counts at a subnormal scale: the Hessian underflows to zero,
        # where a lam floored at 1e-12 of max |H| alone stayed zero and the
        # Cholesky retries never ended
        cholesky, calls = np.linalg.cholesky, []

        def counted(a):
            calls.append(a)
            if len(calls) > 10_000:
                raise AssertionError("minimize never stops on a zero Hessian")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        records = [TomographyRecord(setting=s, counts=0,
                                    acquisition_scale=scale)
                   for s in standard_16_settings()]
        assert mle_reconstruct(records).converged

    @pytest.mark.parametrize("finite_start", [False, True],
                             ids=["nan-everywhere", "nan-past-the-start"])
    def test_non_finite_objective_ends_the_fit(self, finite_start):
        # a NaN value, gradient or Hessian ends the fit at once: lam must
        # not grow without end, nor a NaN trial count as converged once
        # the steps have shrunk
        x0 = np.ones(4)
        calls = []

        def objective(x, hessian):
            calls.append(x)
            if len(calls) > 10_000:
                raise AssertionError("minimize never stops on NaN")
            if finite_start and np.array_equal(x, x0):
                return float(x @ x), 2.0 * x, 2.0 * np.eye(4)
            return np.nan, np.full(4, np.nan), np.full((4, 4), np.nan)

        result = tomography.minimize(objective, x0, args=(),
                                     options={"maxiter": 100})
        assert not result.success
        assert np.array_equal(result.x, x0)
        assert result.nfev == len(calls) <= 2

    def test_nonconverged_result_flagged(self, monkeypatch):
        real_minimize = tomography.minimize

        def one_iteration(*args, options, **kwargs):
            return real_minimize(*args, options={**options, "maxiter": 1},
                                 **kwargs)

        monkeypatch.setattr(tomography, "minimize", one_iteration)
        records = simulate_counts(werner_state(0.9), standard_16_settings(),
                                  1e4, seed=9)
        result = mle_reconstruct(records)
        assert not result.converged


class TestRecordsIo:
    def test_round_trip(self, tmp_path):
        records = simulate_counts(werner_state(0.6), standard_16_settings(),
                                  12345.0, seed=2)
        path = tmp_path / "records.csv"
        save_records(records, path)
        back = load_records(path)
        assert [r.setting.label for r in back] == EXPECTED_ORDER
        assert [r.counts for r in back] == [r.counts for r in records]
        assert all(r.acquisition_scale == 12345.0 for r in back)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no such records"):
            load_records(tmp_path / "absent.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,counts\nHH,3\n")
        with pytest.raises(ConfigError, match="header"):
            load_records(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,counts,acquisition_scale\nHH,many,1e4\n")
        with pytest.raises(ConfigError, match="malformed row"):
            load_records(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,counts,acquisition_scale\n")
        with pytest.raises(ConfigError, match="no tomography records"):
            load_records(path)

    def test_non_finite_scale_rejected(self, tmp_path):
        # 3 / 1e-320 is infinite, a frequency no fit can start from
        for scale in (np.inf, np.nan, 0.0, 1e-320):
            with pytest.raises(ConfigError, match="positive and finite"):
                TomographyRecord(setting=ProjectorSetting("HH"), counts=3,
                                 acquisition_scale=scale)
        path = tmp_path / "inf.csv"
        path.write_text("label,counts,acquisition_scale\nHH,3,inf\n")
        with pytest.raises(ConfigError, match="malformed row .*'HH'.*finite"):
            load_records(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            TomographyRecord(setting=ProjectorSetting("HH"), counts=-1,
                             acquisition_scale=1e4)
