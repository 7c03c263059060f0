import numpy as np
import pytest

from spdc_studio.errors import ConfigError
from spdc_studio.grid_io import (load_jsi_csv, load_matrix_csv, save_jsi_csv,
                                 save_matrix_csv)
from spdc_studio.optics import TWO_PI_C, FrequencyGrid
from spdc_studio.spectral import JsiGrid


@pytest.fixture()
def small_grid():
    return FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 12)


@pytest.fixture()
def small_values(small_grid, rng):
    return rng.normal(size=small_grid.shape)


class TestMatrixRoundTrip:
    def test_values_bit_exact(self, tmp_path, small_grid, small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        grid, values = load_matrix_csv(path)
        assert np.array_equal(values, small_values)

    def test_axes_round_trip(self, tmp_path, small_grid, small_values):
        # axes are stored in nm, so the reloaded omega axes may wobble by
        # one ulp of the reciprocal conversion
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        grid, _ = load_matrix_csv(path)
        assert np.allclose(grid.signal_axis, small_grid.signal_axis,
                           rtol=1e-15)
        assert np.allclose(grid.idler_axis, small_grid.idler_axis,
                           rtol=1e-15)

    def test_identical_axes_stay_identical(self, tmp_path, small_grid,
                                           small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        grid, _ = load_matrix_csv(path)
        assert grid.axes_identical

    def test_comment_lines_skipped(self, tmp_path, small_grid, small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values,
                        comment="synthetic lobes\nsecond line")
        text = path.read_text()
        assert text.startswith("# synthetic lobes\n# second line\n")
        _, values = load_matrix_csv(path)
        assert np.array_equal(values, small_values)

    def test_edge_values_pinned_bytes(self, tmp_path):
        # the row formatter must write exactly the bytes of per-element
        # f"{v:.17g}" on numpy floats, and read back bit for bit
        edge = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1,
                         1 / 3, -1.5e-17, 3.0])
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, edge.size)
        values = np.array([np.roll(edge, k) for k in range(edge.size)])

        def fmt(row):
            return ",".join(f"{v:.17g}" for v in row)

        expected = "\n".join(
            [f"# signal_nm: {fmt(TWO_PI_C / grid.signal_axis * 1e9)}",
             f"# idler_nm: {fmt(TWO_PI_C / grid.idler_axis * 1e9)}"]
            + [fmt(row) for row in values]) + "\n"
        path = tmp_path / "m.csv"
        save_matrix_csv(path, grid, values)
        assert path.read_bytes() == expected.encode()
        _, back = load_matrix_csv(path)
        assert back.dtype == np.float64
        assert back.tobytes() == values.tobytes()

    def test_shape_mismatch_rejected_on_save(self, tmp_path, small_grid):
        with pytest.raises(ConfigError, match="does not match grid"):
            save_matrix_csv(tmp_path / "m.csv", small_grid, np.ones((3, 3)))


class TestMatrixErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            load_matrix_csv(tmp_path / "gone.csv")

    def test_missing_axis_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ConfigError, match="header line"):
            load_matrix_csv(path)

    def test_bad_value_reports_line_number(self, tmp_path, small_grid,
                                           small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(",", ",spam,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="m.csv:6: bad value"):
            load_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path, small_grid, small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        lines[4] = lines[4] + ",0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="ragged rows"):
            load_matrix_csv(path)

    def test_shape_axis_mismatch_rejected(self, tmp_path, small_grid,
                                          small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last row
        with pytest.raises(ConfigError, match="axes imply"):
            load_matrix_csv(path)

    def test_bad_axis_value_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# signal_nm: 1500,oops\n# idler_nm: 1500,1510\n"
                        "1,2\n3,4\n")
        with pytest.raises(ConfigError, match="m.csv:1: bad axis"):
            load_matrix_csv(path)

    def test_non_monotonic_axis_rejected(self, tmp_path):
        # equal wavelengths collapse to equal frequencies
        path = tmp_path / "m.csv"
        path.write_text("# signal_nm: 1510,1510\n# idler_nm: 1510,1500\n"
                        "1,2\n3,4\n")
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_matrix_csv(path)


class TestJsiCsv:
    def test_round_trip(self, tmp_path, small_grid, small_values):
        jsi = JsiGrid(grid=small_grid, intensity=np.abs(small_values))
        path = tmp_path / "jsi.csv"
        save_jsi_csv(path, jsi)
        back = load_jsi_csv(path)
        assert np.array_equal(back.intensity, jsi.intensity)

    def test_negative_intensity_rejected(self, tmp_path, small_grid):
        path = tmp_path / "jsi.csv"
        save_matrix_csv(path, small_grid,
                        np.full(small_grid.shape, -1.0))
        with pytest.raises(ConfigError, match="non-negative"):
            load_jsi_csv(path)
