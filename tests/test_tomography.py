import numpy as np
import pytest

from spdc_studio import tomography
from spdc_studio.errors import ConfigError
from spdc_studio.polarization import (BellKind, TwoQubitState, bell_state,
                                      concurrence, trace_distance,
                                      werner_state)
from spdc_studio.tomography import (KETS, ProjectorSetting, TomographyRecord,
                                    expected_probability, linear_inversion,
                                    load_records, mle_reconstruct,
                                    save_records, setting_from_label,
                                    simulate_counts, standard_16_settings)

EXPECTED_ORDER = ["HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
                  "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL"]


def _noiseless_records(rho, pairs=1e6):
    return [
        TomographyRecord(setting=s,
                         counts=int(round(pairs * expected_probability(rho, s))),
                         acquisition_scale=pairs)
        for s in standard_16_settings()
    ]


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
        assert trace_distance(linear_inversion(records), rho) < 1e-3

    def test_setting_from_label_validates(self):
        setting = setting_from_label("DR")
        assert setting.label == "DR"
        with pytest.raises(ConfigError, match="unknown setting"):
            setting_from_label("HX")
        with pytest.raises(ConfigError, match="unknown setting"):
            setting_from_label("HHH")

    def test_non_unit_ket_rejected(self):
        with pytest.raises(ConfigError, match="unit-norm"):
            ProjectorSetting(label="??", arm1=np.array([1.0, 1.0]),
                             arm2=KETS["H"])


class TestExpectedProbability:
    def test_psi_minus_coincidence_pattern(self):
        rho = bell_state(BellKind.PSI_MINUS)
        p = {lab: expected_probability(rho, setting_from_label(lab))
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


class TestLinearInversion:
    def test_noiseless_recovery(self):
        for rho in (bell_state(BellKind.PSI_MINUS), werner_state(0.7)):
            est = linear_inversion(_noiseless_records(rho))
            assert trace_distance(est, rho) < 2e-3

    def test_output_is_physical(self):
        rho = werner_state(0.95)
        records = simulate_counts(rho, standard_16_settings(), 500, seed=11)
        est = linear_inversion(records)
        eigvals = np.linalg.eigvalsh(est.matrix)
        assert eigvals[0] >= -1e-12
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_too_few_records_rejected(self):
        records = _noiseless_records(werner_state(0.5))[:12]
        with pytest.raises(ConfigError, match="at least 16"):
            linear_inversion(records)

    def test_degenerate_design_rejected(self):
        setting = setting_from_label("HH")
        records = [TomographyRecord(setting=setting, counts=100,
                                    acquisition_scale=1e3)] * 16
        with pytest.raises(ConfigError, match="informationally"):
            linear_inversion(records)


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
        assert a.neg_log_likelihood == b.neg_log_likelihood

    def test_werner_concurrence_recovered(self):
        records = simulate_counts(werner_state(0.9), standard_16_settings(),
                                  1e5, seed=3)
        result = mle_reconstruct(records)
        assert concurrence(result.state) == pytest.approx(0.85, abs=0.02)

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

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            TomographyRecord(setting=setting_from_label("HH"), counts=-1,
                             acquisition_scale=1e4)
