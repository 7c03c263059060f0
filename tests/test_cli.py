import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdc_studio
from spdc_studio import cli, config, fixtures, tomography
from spdc_studio.cli import _two_lobe_summary, main
from spdc_studio.config import load_run_config, make_grid
from spdc_studio.grid_io import save_jsi_csv
from spdc_studio.optics import (TWO_PI_C, CrystalSpec, FrequencyGrid,
                                JsaGrid, PumpSpec, compute_jsa,
                                design_lobe_wavelengths)
from spdc_studio.polarization import TwoQubitState
from spdc_studio.spectral import JsiGrid, jsi_of
from spdc_studio.tomography import standard_16_settings


TWO_LOBE_KEYS = {"overlap_integral", "schmidt_purity", "schmidt_number",
                 "lobes", "f_mn", "single_lobe_purity", "concurrence",
                 "concurrence_bound", "purity", "fidelity_psi_minus",
                 "chsh_s", "visibility"}


def _read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


class TestSimulateJsa:
    def test_writes_artifacts_and_metrics(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate-jsa", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["jsa.npy",
                                                         "summary.json"]
        cfg = load_run_config()
        expected = compute_jsa(make_grid(cfg), cfg.crystal, cfg.pump)
        amplitude = np.load(out / "jsa.npy")
        assert amplitude.dtype == np.complex128
        assert amplitude.shape == (cfg.samples, cfg.samples)
        # a real amplitude is held as float64 in memory and saved complex
        assert amplitude.tobytes() == \
            expected.amplitude.astype(complex).tobytes()
        summary = _read_json(out / "summary.json")
        assert summary["schema_version"] == 1
        assert summary["overlap_integral"] >= 0.995
        assert summary["schmidt_purity"] == pytest.approx(0.5003, abs=1e-3)
        assert summary["lobes"]["short"]["peak_nm"] == pytest.approx(
            1548, abs=1.0)
        assert summary["lobes"]["long"]["peak_nm"] == pytest.approx(
            1572, abs=1.0)
        assert "lobe_overlap" not in summary
        assert summary["f_mn"]["f11"] + summary["f_mn"]["f22"] == \
            pytest.approx(1.0, abs=1e-9)
        assert summary["concurrence"] <= summary["concurrence_bound"] + 1e-9

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-jsa", "--samples", "128",
                     "--out", str(a)]) == 0
        assert main(["simulate-jsa", "--samples", "128",
                     "--out", str(b)]) == 0
        for name in ("summary.json", "jsa.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("grid", [None, {"samples": 96,
                                             "window_nm": [1510.5, 1610.25]},
                                      {"samples": 301,
                                       "window_nm": [1490, 1640]}])
    def test_summary_rebuilds_from_jsa_npy(self, tmp_path, grid):
        # jsa.npy plus the summary's "grid" block are the whole artifact:
        # they give back the grid and, at cut_nm, every two-lobe number
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"grid": grid} if grid else {}))
        out = tmp_path / "sim"
        assert main(["simulate-jsa", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        summary = _read_json(out / "summary.json")
        lo_nm, hi_nm = summary["grid"]["window_nm"]
        rebuilt = FrequencyGrid.wavelength_window(
            lo_nm * 1e-9, hi_nm * 1e-9, summary["grid"]["samples"])
        expected = make_grid(load_run_config(cfg_path))
        assert np.array_equal(rebuilt.signal_axis, expected.signal_axis)
        assert np.array_equal(rebuilt.idler_axis, expected.idler_axis)

        jsa = JsaGrid(grid=rebuilt, amplitude=np.load(out / "jsa.npy"))
        again = _two_lobe_summary(jsa, jsi_of(jsa), summary["cut_nm"] * 1e-9)
        assert set(again) == TWO_LOBE_KEYS
        assert json.loads(json.dumps(
            again, default=lambda obj: obj.tolist())) == \
            {k: summary[k] for k in TWO_LOBE_KEYS}

    def test_config_file_respected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid": {"samples": 96}}))
        out = tmp_path / "sim"
        assert main(["simulate-jsa", "--config", str(cfg),
                     "--out", str(out)]) == 0
        summary = _read_json(out / "summary.json")
        assert summary["grid"]["samples"] == 96

    def test_config_output_dir_and_out_precedence(self, tmp_path):
        # --out beats the config's "output_dir", which beats runs/
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid": {"samples": 96},
                                   "output_dir": "cfgout"}))
        assert main(["simulate-jsa", "--config", str(cfg),
                     "--out", "flag"]) == 0
        assert (tmp_path / "flag" / "summary.json").is_file()
        assert not (tmp_path / "cfgout").exists()
        assert main(["simulate-jsa", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfgout" / "summary.json").is_file()
        assert not (tmp_path / "runs").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid": {"n_samples": 96}}))
        assert main(["simulate-jsa", "--config", str(cfg)]) == 2

    def test_design_lobes_solved_once(self, tmp_path, monkeypatch):
        # the config solves them to check its window; the command reuses them
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return design_lobe_wavelengths(*args, **kwargs)

        monkeypatch.setattr(config, "design_lobe_wavelengths", counted)
        monkeypatch.setattr(cli, "design_lobe_wavelengths", counted)
        out = tmp_path / "sim"
        assert main(["simulate-jsa", "--samples", "128",
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        lam1, lam2 = design_lobe_wavelengths(CrystalSpec(), PumpSpec())
        assert _read_json(out / "summary.json")["design_lobe_centers_nm"] \
            == [lam1 * 1e9, lam2 * 1e9]

    def test_seed_precedence(self, tmp_path):
        # an explicit --seed wins, then the config's "seed", then 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid": {"samples": 96}, "seed": 9}))
        for extra, expected in (([], 9), (["--seed", "4"], 4),
                                (["--seed", "0"], 0)):
            out = tmp_path / f"sim{len(extra)}{expected}"
            assert main(["simulate-jsa", "--config", str(cfg), *extra,
                         "--out", str(out)]) == 0
            assert _read_json(out / "summary.json")["seed"] == expected
        out = tmp_path / "no-config"
        assert main(["simulate-jsa", "--samples", "96", "--out", str(out)]) == 0
        assert _read_json(out / "summary.json")["seed"] == 0

    def test_string_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"crystal": {"length": "4e-3"}}))
        out = tmp_path / "sim"
        assert main(["simulate-jsa", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "crystal length must be a number, got '4e-3'" in \
            capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestAnalyzeJsi:
    def test_fixture_headline_numbers(self, tmp_path):
        out = tmp_path / "an"
        jsi_path = str(fixtures.measured_jsi_path())
        assert main(["analyze-jsi", jsi_path, "--out", str(out)]) == 0
        summary = _read_json(out / "summary.json")
        assert summary["concurrence"] == pytest.approx(0.9956, abs=0.002)
        assert summary["purity"] == pytest.approx(0.9956, abs=0.003)
        assert summary["schmidt_purity"] == pytest.approx(0.494, abs=0.005)
        assert summary["f_mn"]["f11"] == pytest.approx(0.4971, abs=0.002)
        assert summary["f_mn"]["f12"][0] == pytest.approx(-0.4978, abs=0.002)
        assert set(summary["visibility"]) == {"H", "V", "D", "A"}
        assert summary["concurrence"] <= summary["concurrence_bound"] + 1e-9

    def test_ideal_antisymmetric_input(self, tmp_path):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 200)
        ws = grid.signal_axis[:, np.newaxis]
        wi = grid.idler_axis[np.newaxis, :]
        cs, ci = TWO_PI_C / 1548e-9, TWO_PI_C / 1572e-9
        sigma = TWO_PI_C / (1560e-9) ** 2 * 4e-9
        blob = np.exp(-((ws - cs) ** 2 + (wi - ci) ** 2) / (2 * sigma**2))
        jsa = JsaGrid(grid=grid, amplitude=blob - blob.T).normalized_copy()
        path = tmp_path / "ideal.csv"
        save_jsi_csv(path, jsi_of(jsa))

        out = tmp_path / "an"
        assert main(["analyze-jsi", str(path), "--out", str(out)]) == 0
        summary = _read_json(out / "summary.json")
        assert summary["concurrence"] >= 0.999
        assert summary["visibility"]["D"] >= 0.999

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze-jsi", str(tmp_path / "gone.csv")]) == 2
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("cut", ["nan", "inf", "-1"])
    def test_bad_cut_exits_2(self, tmp_path, capsys, cut):
        out = tmp_path / "an"
        jsi_path = str(fixtures.measured_jsi_path())
        assert main(["analyze-jsi", jsi_path, "--cut-nm", cut,
                     "--out", str(out)]) == 2
        assert f"--cut-nm must be positive and finite, got {float(cut)}" \
            in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_same_two_lobe_keys_as_simulate_jsa(self, tmp_path):
        sim, an = tmp_path / "sim", tmp_path / "an"
        assert main(["simulate-jsa", "--samples", "128",
                     "--out", str(sim)]) == 0
        assert main(["analyze-jsi", str(fixtures.measured_jsi_path()),
                     "--out", str(an)]) == 0
        shared = set(_read_json(sim / "summary.json")) & \
            set(_read_json(an / "summary.json"))
        assert shared == TWO_LOBE_KEYS | {"command", "cut_nm",
                                          "schema_version"}

    def test_non_utf8_last_line_exits_2(self, tmp_path, capsys, rng):
        # the file is streamed; a bad byte met last still names the file
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512)
        path = tmp_path / "late.csv"
        save_jsi_csv(path, JsiGrid(grid=grid,
                                   intensity=rng.random(grid.shape)))
        path.write_bytes(path.read_bytes()[:-1] + b"\xff\n")
        out = tmp_path / "an"
        assert main(["analyze-jsi", str(path), "--out", str(out)]) == 2
        assert f"error: {path}: file is not UTF-8 text" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_cut_inside_lobe_exits_2(self, tmp_path, capsys):
        jsi_path = str(fixtures.measured_jsi_path())
        assert main(["analyze-jsi", jsi_path, "--cut-nm", "1548"]) == 2
        assert "try a cut near" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, named", [
        (["# signal_nm: 1510,1500", "# idler_nm: 1510,1500", "1,2", "3,x"],
         "bad.csv:4: bad value"),
        (["# signal_nm: 1510,nan", "# idler_nm: 1510,1500", "1,2", "3,4"],
         "bad.csv: signal_axis must be finite"),
        (["# signal_nm: 1510,1500", "# idler_nm: 1510,1500", "1,2", "3,nan"],
         "bad.csv: JSI contains non-finite entries"),
        (["# signal_nm: 1_510,1500", "# idler_nm: 1510,1500", "1,2", "3,4"],
         "bad.csv:1: bad axis value"),
    ], ids=["bad-value", "nan-axis", "nan-intensity", "underscore-axis"])
    def test_bad_csv_names_the_file(self, tmp_path, capsys, lines, named):
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "an"
        assert main(["analyze-jsi", "bad.csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert not out.exists()
        assert not (tmp_path / "runs").exists()


class TestTomography:
    def test_nonconverged_fit_exits_3(self, tmp_path, capsys, monkeypatch):
        real_minimize = tomography.minimize

        def one_iteration(*args, options, **kwargs):
            return real_minimize(*args, options={**options, "maxiter": 1},
                                 **kwargs)

        monkeypatch.setattr(tomography, "minimize", one_iteration)
        out = tmp_path / "tomo"
        assert main(["tomography", "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_psi_minus_simulation(self, tmp_path):
        out = tmp_path / "tomo"
        assert main(["tomography", "--simulate", "psi-minus",
                     "--out", str(out)]) == 0
        report = _read_json(out / "report.json")
        assert report["converged"] is True
        assert report["chsh_s"] >= 2.80
        assert report["concurrence"] >= 0.99
        assert report["truth"]["trace_distance_to_reconstruction"] < 0.01

        header = (out / "records.csv").read_text().splitlines()[0]
        assert header == "label,counts,acquisition_scale"

        rho = TwoQubitState.from_json_dict(_read_json(out / "rho.json"))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_reference_fixture_matches_reference_metrics(self, tmp_path):
        out = tmp_path / "tomo"
        assert main(["tomography", "--simulate", "reference-fixture",
                     "--out", str(out)]) == 0
        report = _read_json(out / "report.json")
        assert report["purity"] == pytest.approx(0.948, abs=0.02)
        assert report["concurrence"] == pytest.approx(0.948, abs=0.02)
        assert report["fidelity_psi_minus"] == pytest.approx(0.963, abs=0.02)
        assert report["chsh_s"] == pytest.approx(2.747, abs=0.06)

    def test_werner_mixture(self, tmp_path):
        out = tmp_path / "tomo"
        assert main(["tomography", "--simulate", "werner:0.9", "--seed", "3",
                     "--out", str(out)]) == 0
        report = _read_json(out / "report.json")
        assert report["concurrence"] == pytest.approx(0.85, abs=0.02)

    def test_records_round_trip(self, tmp_path):
        first = tmp_path / "first"
        assert main(["tomography", "--simulate", "psi-minus",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["tomography", "--records", str(first / "records.csv"),
                     "--out", str(second)]) == 0
        a = _read_json(first / "report.json")
        b = _read_json(second / "report.json")
        assert b["chsh_s"] == pytest.approx(a["chsh_s"], abs=1e-9)
        assert "truth" not in b

    def test_records_report_their_own_scale(self, tmp_path):
        first = tmp_path / "first"
        assert main(["tomography", "--n-per-setting", "1000",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["tomography", "--records", str(first / "records.csv"),
                     "--out", str(second)]) == 0
        assert _read_json(second / "report.json")["n_per_setting"] == 1000.0

        # one setting measured twice as long: no common scale to report
        lines = (first / "records.csv").read_text().splitlines()
        label, counts, scale = lines[1].split(",")
        lines[1] = f"{label},{2 * int(counts)},{2 * float(scale):.17g}"
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("\n".join(lines) + "\n")
        third = tmp_path / "third"
        assert main(["tomography", "--records", str(mixed),
                     "--out", str(third)]) == 0
        assert _read_json(third / "report.json")["n_per_setting"] is None

    def test_n_per_setting_with_records_exits_2(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["tomography", "--n-per-setting", "1000",
                     "--out", str(first)]) == 0
        capsys.readouterr()
        out = tmp_path / "second"
        assert main(["tomography", "--records", str(first / "records.csv"),
                     "--n-per-setting", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--n-per-setting" in err and "--records" in err
        assert not out.exists()

    def test_state_file_input(self, tmp_path):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(
            fixtures.load_reference_state().to_json_dict()))
        out = tmp_path / "tomo"
        assert main(["tomography", "--state-file", str(state_path),
                     "--out", str(out)]) == 0
        report = _read_json(out / "report.json")
        assert report["source"] == "state-file:state.json"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["tomography", "--simulate", "werner:0.8",
                         "--seed", "11", "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == \
            (b / "report.json").read_bytes()
        assert (a / "records.csv").read_bytes() == \
            (b / "records.csv").read_bytes()

    def test_bad_inputs_exit_2(self, tmp_path):
        assert main(["tomography", "--simulate", "ghz"]) == 2
        assert main(["tomography", "--simulate", "werner:x"]) == 2
        assert main(["tomography", "--n-per-setting", "0"]) == 2
        assert main(["tomography", "--records",
                     str(tmp_path / "gone.csv")]) == 2
        assert main(["tomography", "--state-file",
                     str(tmp_path / "gone.json")]) == 2

    @pytest.mark.parametrize("n", ["inf", "nan"])
    def test_non_finite_n_per_setting_exits_2(self, capsys, n):
        assert main(["tomography", "--n-per-setting", n]) == 2
        assert "--n-per-setting must be positive and finite" in \
            capsys.readouterr().err


class TestVisibility:
    def test_single_power_per_point_path(self, tmp_path):
        out = tmp_path / "vis"
        assert main(["visibility", "--powers", "620",
                     "--out", str(out)]) == 0
        doc = _read_json(out / "squeezing.json")
        assert doc["fit_method"] == "per_point"
        assert doc["n_trials"] == 200_000 and "mc_trials" not in doc
        point = doc["points"]["620"]
        assert point["mu"] == pytest.approx(0.1, abs=0.02)
        assert point["squeezing_db"] == pytest.approx(-2.70, abs=0.3)
        # every visibility lives in the points above
        assert not (out / "scans.csv").exists()

    def test_two_powers_least_squares(self, tmp_path):
        out = tmp_path / "vis"
        assert main(["visibility", "--powers", "50,620",
                     "--out", str(out)]) == 0
        doc = _read_json(out / "squeezing.json")
        assert doc["fit_method"] == "least_squares"
        # C fits both points, not the slope of either one
        slopes = [p["r"] / (p["pump_power_mw"] * 1e-3) ** 0.5
                  for p in doc["points"].values()]
        assert all(doc["C_per_sqrt_w"] != pytest.approx(c) for c in slopes)

    def test_point_records_given_power(self, tmp_path):
        out = tmp_path / "vis"
        assert main(["visibility", "--powers", "0.9,50,620",
                     "--out", str(out)]) == 0
        points = _read_json(out / "squeezing.json")["points"]
        assert {k: p["pump_power_mw"] for k, p in points.items()} == \
            {"0.9": 0.9, "50": 50.0, "620": 620.0}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["visibility", "--seed", "5", "--out", str(out)]) == 0
        assert (a / "squeezing.json").read_bytes() == \
            (b / "squeezing.json").read_bytes()

    def test_bad_powers_exit_2(self):
        assert main(["visibility", "--powers", "0"]) == 2
        assert main(["visibility", "--powers", "a,b"]) == 2
        assert main(["visibility", "--powers", ""]) == 2

    @pytest.mark.parametrize("powers, key", [
        ("620,620", "620"),
        ("620,620.0000001,50", "620"),
        ("50,155,0.05e3", "50"),
    ])
    def test_repeated_powers_exit_2(self, tmp_path, capsys, powers, key):
        # each power keys one squeezing.json point
        out = tmp_path / "vis"
        assert main(["visibility", "--powers", powers,
                     "--out", str(out)]) == 2
        assert f"pump power {key} mW appears more than once" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("powers", ["nan", "inf", "50,inf,620"])
    def test_non_finite_powers_exit_2(self, tmp_path, capsys, powers):
        out = tmp_path / "vis"
        assert main(["visibility", "--powers", powers,
                     "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "squeezing.json").exists()


@pytest.mark.parametrize("argv", [["simulate-jsa", "--samples", "128"],
                                  ["tomography"], ["visibility"]])
def test_negative_seed_exits_2(capsys, argv):
    assert main([*argv, "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in \
        capsys.readouterr().err


def test_negative_seed_with_records_exits_2(tmp_path, capsys):
    # reconstructing from records draws no random numbers, so the seed is
    # checked on parsing rather than where it first seeds a stream
    first = tmp_path / "first"
    assert main(["tomography", "--n-per-setting", "1000",
                 "--out", str(first)]) == 0
    capsys.readouterr()
    out = tmp_path / "second"
    assert main(["tomography", "--records", str(first / "records.csv"),
                 "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be a non-negative integer, got -1" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv", [
    # passes config validation, then compute_jsa finds the grid too coarse
    ["simulate-jsa", "--config", "coarse.json"],
    ["analyze-jsi", "gone.csv"],
    ["tomography", "--simulate", "ghz"],
    ["visibility", "--powers", "0"],
    ["report", "empty-runs"],
], ids=lambda argv: argv[0])
def test_exit_2_creates_no_output_directory(tmp_path, capsys, argv):
    (tmp_path / "coarse.json").write_text(json.dumps(
        {"grid": {"samples": 64}, "crystal": {"pmf_sigma": 30}}))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, named", [
    (["tomography", "--state-file", "bad.json"], "bad.json:1:"),
    (["tomography", "--state-file", "adir"], "adir: cannot read state file"),
    (["tomography", "--records", "adir"], "adir: cannot read records file"),
    (["tomography", "--records", "binary.csv"], "binary.csv: records file is "
                                                "not UTF-8"),
    (["tomography", "--records", "inf.csv"], "inf.csv: malformed row"),
    (["analyze-jsi", "adir"], "adir: cannot read file"),
    (["simulate-jsa", "--config", "adir"], "adir: cannot read config file"),
    (["report", "dirruns"], "report.json: cannot read run artifact"),
    # a 100000^2 grid would fail to allocate instead
    (["simulate-jsa", "--samples", "100000"],
     "samples must be an integer from 64 to 4096, got 100000"),
], ids=["malformed-state", "state-dir", "records-dir", "records-binary",
        "records-inf-scale", "jsi-dir", "config-dir", "artifact-dir",
        "simulate-jsa-oversized"])
def test_unreadable_input_exits_2(tmp_path, capsys, argv, named):
    (tmp_path / "bad.json").write_text('{"matrix": [[')
    (tmp_path / "adir").mkdir()
    (tmp_path / "binary.csv").write_bytes(b"label,counts\n\xff\xfe\n")
    (tmp_path / "inf.csv").write_text(
        "label,counts,acquisition_scale\n"
        + "".join(f"{s.label},100,inf\n" for s in standard_16_settings()))
    (tmp_path / "dirruns" / "tomography" / "report.json").mkdir(parents=True)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    assert not out.exists()
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, out", [
    (["visibility"], "afile"),
    (["report", "runs"], "afile"),
    (["visibility"], "afile/below"),
], ids=["visibility", "report", "below-a-file"])
def test_out_not_a_directory_exits_2(tmp_path, capsys, argv, out):
    assert main(["visibility", "--out", str(tmp_path / "runs" / "visibility")
                 ]) == 0
    (tmp_path / "afile").write_text("keep")
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert str(tmp_path / out) in err
    assert (tmp_path / "afile").read_text() == "keep"


class TestReport:
    def test_empty_runs_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "runs")]) == 2
        assert "expected any of" in capsys.readouterr().err

    def test_partial_runs_report_not_run(self, tmp_path):
        runs = tmp_path / "runs"
        assert main(["simulate-jsa", "--samples", "128",
                     "--out", str(runs / "simulate-jsa")]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(runs), "--out", str(out)]) == 0
        text = (out / "report.md").read_text()
        assert "| quantity | this run | reference | status |" in text
        assert "not run" in text
        assert "## derived bookkeeping" in text
        assert "`tomography/report.json`: missing" in text

    def test_corrupt_artifact_exits_2(self, tmp_path):
        runs = tmp_path / "runs"
        (runs / "simulate-jsa").mkdir(parents=True)
        (runs / "simulate-jsa" / "summary.json").write_text("{oops")
        assert main(["report", str(runs)]) == 2

    @pytest.mark.parametrize("text, quantity", [
        ('{"overlap_integral": "x"}', "spectral overlap"),
        ('{"overlap_integral": true}', "spectral overlap"),
        ('{"overlap_integral": null}', "spectral overlap"),
        ('{"overlap_integral": [0.999]}', "spectral overlap"),
        ('{"overlap_integral": {"value": 0.999}}', "spectral overlap"),
        ('{"lobes": "x"}', "short lobe peak"),
        ('[0.999]', "spectral overlap"),
        # json decodes these, although RFC 8259 has no NaN or infinity and
        # the integer overflows a float
        ('{"overlap_integral": 1' + "0" * 400 + "}", "spectral overlap"),
        ('{"overlap_integral": NaN}', "spectral overlap"),
        ('{"overlap_integral": Infinity}', "spectral overlap"),
        ('{"overlap_integral": -Infinity}', "spectral overlap"),
    ], ids=["string", "bool", "null", "list", "object", "nested",
            "top-level", "huge-integer", "nan", "infinity", "minus-infinity"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, text, quantity):
        runs = tmp_path / "runs"
        (runs / "simulate-jsa").mkdir(parents=True)
        (runs / "simulate-jsa" / "summary.json").write_text(text)
        out = tmp_path / "rep"
        assert main(["report", str(runs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "summary.json: " in err and quantity in err
        assert not out.exists()

    def test_missing_key_not_run(self, tmp_path):
        runs = tmp_path / "runs"
        (runs / "simulate-jsa").mkdir(parents=True)
        (runs / "simulate-jsa" / "summary.json").write_text(
            '{"schmidt_purity": 0.496}')
        out = tmp_path / "rep"
        assert main(["report", str(runs), "--out", str(out)]) == 0
        text = (out / "report.md").read_text()
        assert "| spectral overlap (designed JSA) | - |" in text
        assert "| Schmidt purity (designed JSA) | 0.496 |" in text


SCRIPT = (Path(__file__).resolve().parents[1] / "scripts"
          / "run_full_pipeline.py")


def _subprocess(argv, cwd, **env):
    """Run ``python argv`` in ``cwd`` on this checkout's package."""
    path = [str(Path(spdc_studio.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
             **env})


def _tree(root):
    """sha256 of each file under ``root``, by its path below it."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """runs/ of scripts/run_full_pipeline.py at seed 0, in-process."""
        spec = importlib.util.spec_from_file_location("run_full_pipeline",
                                                      SCRIPT)
        pipeline = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pipeline)
        cwd = tmp_path_factory.mktemp("pipeline")
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(cwd)
            mp.setattr(sys, "argv", [str(SCRIPT), "0"])
            assert pipeline.entry() == 0
        return cwd / "runs"

    def test_clean_checkout_headline(self, runs):
        # the README's promise for scripts/run_full_pipeline.py at seed 0
        report = (runs / "report" / "report.md").read_text()
        assert report.splitlines()[-1] == \
            "Totals: 28 pass, 0 fail, 0 not run."

    @pytest.mark.parametrize("env, compared", [
        ({}, None),
        # BLAS may sum in another order at another thread count, so a
        # summary may differ in its last digit, but not the report
        ({"OPENBLAS_NUM_THREADS": "1"}, ["report/report.md"]),
    ], ids=["default-threads", "one-blas-thread"])
    def test_script_process_rerun(self, runs, tmp_path, env, compared):
        # the script as its own process, where a RuntimeWarning (numpy's
        # ComplexWarning too) is an error, leaves the in-process run's files
        # and so is a text file opened without an explicit encoding
        result = _subprocess(["-X", "warn_default_encoding",
                              "-W", "error::EncodingWarning",
                              "-W", "error::RuntimeWarning", str(SCRIPT), "0"],
                             tmp_path, **env)
        assert result.returncode == 0, result.stderr
        expected, again = _tree(runs), _tree(tmp_path / "runs")
        if compared:
            expected = {name: expected[name] for name in compared}
            again = {name: again[name] for name in compared}
        assert again == expected

    def test_module_entry_point(self, tmp_path):
        result = _subprocess(["-m", "spdc_studio", "--version"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"spdc-studio {spdc_studio.__version__}\n"

    def test_c_locale_reads_and_writes_utf8(self, tmp_path):
        # the locale does not choose the encoding: a CSV saved with a
        # non-ASCII comment under the C locale is the UTF-8 one, and
        # analyze-jsi reads it to the same summary
        comment = "\u03bb scan, 25 \u00b0C"
        code = ("import sys; from spdc_studio import cli, fixtures, grid_io; "
                "grid_io.save_jsi_csv('jsi.csv', fixtures.load_measured_jsi(),"
                f" comment={ascii(comment)}); "
                "sys.exit(cli.main(['analyze-jsi', 'jsi.csv', '--out', 'an']))")
        result = _subprocess(["-c", code], tmp_path, LC_ALL="C",
                             PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert result.returncode == 0, result.stderr
        utf8 = tmp_path / "utf8"
        utf8.mkdir()
        save_jsi_csv(utf8 / "jsi.csv", fixtures.load_measured_jsi(),
                     comment=comment)
        assert main(["analyze-jsi", str(utf8 / "jsi.csv"),
                     "--out", str(utf8 / "an")]) == 0
        for name in ("jsi.csv", "an/summary.json"):
            assert (tmp_path / name).read_bytes() == \
                (utf8 / name).read_bytes()
