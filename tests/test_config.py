import json

import pytest

from spdc_studio.config import (DEFAULT_SAMPLES, DEFAULT_WINDOW_NM,
                                MAX_SAMPLES, RunConfig, load_run_config,
                                make_grid)
from spdc_studio.errors import ConfigError
from spdc_studio.optics import PulseShape, design_lobe_wavelengths


def _write(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestDefaults:
    def test_no_file_gives_defaults(self):
        cfg = load_run_config()
        assert cfg.samples == DEFAULT_SAMPLES
        assert cfg.window_nm == DEFAULT_WINDOW_NM
        assert cfg.seed == 0
        assert cfg.output_dir is None
        assert cfg.pump.pulse_shape is PulseShape.SECH2

    def test_grid_matches_config(self):
        cfg = load_run_config()
        grid = make_grid(cfg)
        assert grid.shape == (DEFAULT_SAMPLES, DEFAULT_SAMPLES)
        assert grid.axes_identical

    def test_design_lobes_are_the_checked_pair(self):
        # solved once, to check the window; not an option
        cfg = RunConfig(window=(1490e-9, 1640e-9))
        assert cfg.design_lobes == design_lobe_wavelengths(
            cfg.crystal, cfg.pump, window=cfg.window)
        with pytest.raises(TypeError):
            RunConfig(design_lobes=cfg.design_lobes)


class TestFileLoading:
    def test_file_values_override_defaults(self, tmp_path):
        path = _write(tmp_path, {
            "pump": {"pulse_shape": "gaussian"},
            "grid": {"samples": 128, "window_nm": [1490, 1630]},
            "seed": 9,
            "output_dir": "out",
        })
        cfg = load_run_config(path)
        assert cfg.pump.pulse_shape is PulseShape.GAUSSIAN
        assert cfg.samples == 128
        assert cfg.window_nm == (1490.0, 1630.0)
        assert cfg.seed == 9
        assert cfg.output_dir == "out"

    def test_overrides_beat_file(self, tmp_path):
        path = _write(tmp_path, {"grid": {"samples": 128}, "seed": 9})
        cfg = load_run_config(path, samples=256, seed=1,
                              output_dir="elsewhere")
        assert cfg.samples == 256
        assert cfg.seed == 1
        assert cfg.output_dir == "elsewhere"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_run_config(tmp_path / "gone.json")

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{\n  "pump": {,}\n}\n')
        with pytest.raises(ConfigError, match="run.json:2"):
            load_run_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigError, match="JSON object"):
            load_run_config(path)


class TestUnknownKeys:
    def test_top_level_typo_named(self, tmp_path):
        path = _write(tmp_path, {"pmup": {}})
        with pytest.raises(ConfigError, match="pmup"):
            load_run_config(path)

    def test_pump_typo_named(self, tmp_path):
        path = _write(tmp_path, {"pump": {"centre_wavelength": 780e-9}})
        with pytest.raises(ConfigError, match="centre_wavelength"):
            load_run_config(path)

    def test_grid_typo_named(self, tmp_path):
        path = _write(tmp_path, {"grid": {"n_samples": 128}})
        with pytest.raises(ConfigError, match="n_samples"):
            load_run_config(path)

    def test_error_lists_allowed_keys(self, tmp_path):
        path = _write(tmp_path, {"grid": {"n_samples": 128}})
        with pytest.raises(ConfigError, match="window_nm"):
            load_run_config(path)


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ConfigError, match="64"):
            RunConfig(samples=32)

    def test_too_many_samples(self):
        # a 100000^2 grid would only fail later, allocating 74.5 GiB
        assert RunConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES
        with pytest.raises(ConfigError, match=f"to {MAX_SAMPLES}, got"):
            RunConfig(samples=MAX_SAMPLES + 1)

    def test_non_integer_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=0.5)

    def test_negative_seed(self, tmp_path):
        with pytest.raises(ConfigError, match="seed must be a non-negative "
                                              "integer, got -3"):
            load_run_config(_write(tmp_path, {"seed": -3}))

    @pytest.mark.parametrize("section, key, value", [
        ("crystal", "length", float("inf")),
        ("pump", "average_power", float("nan")),
        ("crystal", "temperature", float("nan")),
        ("pump", "repetition_rate", float("inf")),
    ])
    def test_non_finite_field_rejected(self, tmp_path, section, key, value):
        # json.dumps writes these as the non-standard Infinity / NaN tokens,
        # which json.loads accepts
        path = _write(tmp_path, {section: {key: value}})
        with pytest.raises(ConfigError, match=f"{section} {key} must be finite"):
            load_run_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("crystal", "length", "4e-3"),
        ("pump", "average_power", True),
        ("crystal", "temperature", None),
        ("pump", "repetition_rate", [76e6]),
    ])
    def test_non_number_field_rejected(self, tmp_path, section, key, value):
        path = _write(tmp_path, {section: {key: value}})
        with pytest.raises(ConfigError,
                           match=f"{section} {key} must be a number"):
            load_run_config(path)

    @pytest.mark.parametrize("doc", [{"seed": "9"}, {"seed": float("nan")},
                                     {"seed": True},
                                     {"grid": {"samples": "512"}},
                                     {"grid": {"samples": float("inf")}}])
    def test_non_integer_seed_or_samples_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="must be"):
            load_run_config(_write(tmp_path, doc))

    def test_inverted_window(self):
        with pytest.raises(ConfigError, match="0 < min < max"):
            RunConfig(window=(1620e-9, 1500e-9))

    def test_window_clipping_lobes_rejected(self, tmp_path):
        # both designed lobes sit near 1548/1572 nm; a window ending at
        # 1573 nm leaves no margin around the long lobe
        path = _write(tmp_path, {"grid": {"window_nm": [1500, 1573]}})
        with pytest.raises(ConfigError, match="clips the designed lobes"):
            load_run_config(path)

    def test_window_excluding_lobes_rejected(self, tmp_path):
        path = _write(tmp_path, {"grid": {"window_nm": [1400, 1500]}})
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bad_window_shape(self, tmp_path):
        path = _write(tmp_path, {"grid": {"window_nm": [1500]}})
        with pytest.raises(ConfigError, match="min_nm, max_nm"):
            load_run_config(path)

    def test_bad_pulse_shape(self, tmp_path):
        path = _write(tmp_path, {"pump": {"pulse_shape": "square"}})
        with pytest.raises(ConfigError, match="pulse_shape"):
            load_run_config(path)
