import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_studio import fixtures
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


def _bad_axis(line):
    return line.replace(",", ",oops,", 1)


def _axis_then_undecodable(lines):
    lines[0] = _bad_axis(lines[0])
    return b"\xff\n"


def _value_then_undecodable(lines):
    lines[4] = "spam," + lines[4]
    return b"\xff\n"


def _ragged_without_idler_header(lines):
    lines[4] += ",0.0"
    del lines[1]
    return b""


def _value_then_late_bad_axis(lines):
    idler = lines.pop(1)
    lines[2] = "spam," + lines[2]
    lines.insert(3, _bad_axis(idler))
    return b""


def _bad_last_row(lines):
    lines[-1] = "spam," + lines[-1]


def _ragged_last_row(lines):
    lines[-1] += ",0.5"


def _bad_axis_on_last_line(lines):
    lines.append(_bad_axis(lines.pop(1)))


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
        assert np.allclose(grid.axis, small_grid.axis, rtol=1e-15)

    def test_identical_axes_stay_identical(self, tmp_path, small_grid,
                                           small_values):
        # the one axis is written as two equal headers and read back as one
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        signal, idler = path.read_text().splitlines()[:2]
        assert signal.split(": ", 1)[1] == idler.split(": ", 1)[1]
        grid, _ = load_matrix_csv(path)
        assert grid.shape == small_grid.shape

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
            [f"# signal_nm: {fmt(TWO_PI_C / grid.axis * 1e9)}",
             f"# idler_nm: {fmt(TWO_PI_C / grid.axis * 1e9)}"]
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
    @pytest.mark.parametrize("comment", [
        "signal_nm: measured with the signal arm",
        "first line\nidler_nm: 1510,1500",
    ])
    def test_comment_read_as_axis_rejected(self, tmp_path, small_grid,
                                           small_values, comment):
        # written as "# signal_nm: ...", the loader would take it for an axis
        path = tmp_path / "m.csv"
        with pytest.raises(ConfigError, match="would read as an axis header"):
            save_matrix_csv(path, small_grid, small_values, comment=comment)
        assert not path.exists()

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

    @pytest.mark.parametrize("token", ["spam", "", "1_0", "0x10", "1 2"])
    @pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
    def test_bad_value_on_first_and_last_line(self, tmp_path, small_grid,
                                              small_values, token, row):
        # float() took "1_0"; numpy's reader, like the format, does not
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        index = 2 if row == 0 else len(lines) - 1
        fields = lines[index].split(",")
        fields[3] = token
        lines[index] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=f"m.csv:{index + 1}: bad value") as info:
            load_matrix_csv(path)
        assert "at row" not in str(info.value)

    def test_bad_value_before_ragged_row_wins(self, tmp_path, small_grid,
                                              small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + ",0.0"
        lines[9] = lines[9].replace(",", ",spam,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="m.csv:10: bad value"):
            load_matrix_csv(path)

    def test_blank_and_indented_comment_lines(self, tmp_path, small_grid,
                                              small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        plain_grid, _ = load_matrix_csv(path)
        lines = path.read_text().splitlines()
        lines = (["", "   # indented note", "\t"] + lines[:1] + ["  "]
                 + ["  " + lines[1]] + lines[2:5] + ["", "\t# x,y"]
                 + lines[5:])
        path.write_text("\n".join(lines) + "\n\n")
        grid, values = load_matrix_csv(path)
        assert values.tobytes() == small_values.tobytes()
        assert np.array_equal(grid.axis, plain_grid.axis)
        # line numbers count the blank and comment lines
        lines[-1] = "spam," + lines[-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"m.csv:{len(lines)}: bad"):
            load_matrix_csv(path)

    def test_crlf_line_endings(self, tmp_path, small_grid, small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        _, values = load_matrix_csv(path)
        assert values.tobytes() == small_values.tobytes()
        lines[4] = lines[4] + ",spam"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        with pytest.raises(ConfigError, match="m.csv:5: bad value"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("header", [0, 1], ids=["signal", "idler"])
    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_nan_axis_value_names_the_file(self, tmp_path, small_grid,
                                           small_values, header, where):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()

        def set_nan(k):
            key, values = lines[k].split(": ", 1)
            fields = values.split(",")
            fields[where] = "nan"
            lines[k] = f"{key}: {','.join(fields)}"
            path.write_text("\n".join(lines) + "\n")

        # in one header, the headers differ; in both, the axis is not finite
        set_nan(header)
        with pytest.raises(ConfigError, match="m.csv: the '# signal_nm:' "
                           "and '# idler_nm:' headers differ"):
            load_matrix_csv(path)
        set_nan(1 - header)
        with pytest.raises(ConfigError, match="m.csv: axis must be finite"):
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

    @pytest.mark.parametrize("idler", ["1510,1500.001", "1510,1500,1490"],
                             ids=["shifted", "longer"])
    def test_headers_that_differ_name_the_file(self, tmp_path, idler):
        # signal and idler share one axis
        path = tmp_path / "m.csv"
        path.write_text(f"# signal_nm: 1510,1500\n# idler_nm: {idler}\n"
                        "1,2\n3,4\n")
        with pytest.raises(ConfigError, match="m.csv: the '# signal_nm:' and "
                           "'# idler_nm:' headers differ; signal and idler "
                           "need one axis"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("fault, message", [
        ("3,x", "m.csv:4: bad value"), ("3,4,5", "m.csv: ragged rows"),
        ("3,4", "headers differ")])
    def test_headers_that_differ_rank_after_the_rows(self, tmp_path, fault,
                                                     message):
        # differing headers outrank the grid's own axis checks: the signal
        # header here ascends in wavelength, so it descends in frequency
        path = tmp_path / "m.csv"
        path.write_text("# signal_nm: 1500,1510\n# idler_nm: 1510,1500\n"
                        f"1,2\n{fault}\n")
        with pytest.raises(ConfigError, match=message):
            load_matrix_csv(path)

    def test_bad_axis_value_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# signal_nm: 1500,oops\n# idler_nm: 1500,1510\n"
                        "1,2\n3,4\n")
        with pytest.raises(ConfigError, match="m.csv:1: bad axis"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("values", [
        "1_510,1500", "1510,1500,", "1510,,1500", "0x10,1500", "1510 1500",
        ""])
    @pytest.mark.parametrize("header", [0, 1], ids=["signal", "idler"])
    def test_axis_rejects_what_data_rejects(self, tmp_path, values, header):
        # float() took "1_510"; numpy's reader, as for the data lines, does not
        lines = ["# signal_nm: 1510,1500", "# idler_nm: 1510,1500",
                 "1,2", "3,4"]
        lines[header] = lines[header].split(": ")[0] + ": " + values
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=f"m.csv:{header + 1}: bad axis") as info:
            load_matrix_csv(path)
        assert "at row" not in str(info.value)

    def test_headers_after_the_data_load(self, tmp_path, small_grid,
                                         small_values):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[2:] + lines[:2]) + "\n")
        grid, values = load_matrix_csv(path)
        assert values.tobytes() == small_values.tobytes()
        assert np.allclose(grid.axis, small_grid.axis, rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_headers_only(self, tmp_path, small_grid, small_values):
        # numpy warns on an empty input; no data line may reach it
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values, comment="note")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n\n")
        with pytest.raises(ConfigError, match="m.csv: no matrix rows found"):
            load_matrix_csv(path)

    def test_bad_axis_after_bad_value_wins(self, tmp_path, small_grid,
                                           small_values):
        # every header is checked before any data value, wherever it stands
        path = tmp_path / "m.csv"
        save_matrix_csv(path, small_grid, small_values)
        lines = path.read_text().splitlines()
        lines[3] = "spam," + lines[3]
        lines.append(lines.pop(1).replace(",", ",oops,", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=f"m.csv:{len(lines)}: bad axis value"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("edit, match", [
        (_axis_then_undecodable, "m.csv: file is not UTF-8 text"),
        (_value_then_undecodable, "m.csv: file is not UTF-8 text"),
        (_ragged_without_idler_header, "m.csv: missing .* header line"),
        (_value_then_late_bad_axis, "m.csv:4: bad axis value"),
    ], ids=["axis-then-undecodable", "value-then-undecodable",
            "ragged-without-header", "value-then-late-axis"])
    def test_first_fault_wins_by_kind(self, tmp_path, edit, match):
        # 64 rows: the undecodable last line lies beyond the first chunk
        # the text reader decodes, so it is met only by reading on
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 64)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, grid, np.ones(grid.shape))
        lines = path.read_text().splitlines()
        tail = edit(lines)
        path.write_bytes(("\n".join(lines) + "\n").encode() + tail)
        with pytest.raises(ConfigError, match=match):
            load_matrix_csv(path)

    def test_non_monotonic_axis_rejected(self, tmp_path):
        # equal wavelengths collapse to equal frequencies
        path = tmp_path / "m.csv"
        path.write_text("# signal_nm: 1510,1510\n# idler_nm: 1510,1510\n"
                        "1,2\n3,4\n")
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_matrix_csv(path)


class TestMemory:
    """A grid CSV is streamed: neither direction holds the file's text."""

    @pytest.fixture()
    def jsi_512(self, rng):
        grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512)
        return JsiGrid(grid=grid, intensity=rng.random(grid.shape))

    def test_load_holds_about_one_grid(self, tmp_path, jsi_512, peak_grids):
        path = tmp_path / "jsi.csv"
        save_jsi_csv(path, jsi_512)
        assert peak_grids(lambda: load_jsi_csv(path)) <= 2.0

    @pytest.mark.parametrize("edit, match", [
        (_bad_last_row, "bad value"),
        (_ragged_last_row, "ragged rows"),
        (_bad_axis_on_last_line, "bad axis value"),
    ], ids=["bad-last-row", "ragged-row", "bad-axis-on-last-line"])
    def test_failed_load_holds_about_one_grid(self, tmp_path, jsi_512,
                                              peak_grids, edit, match):
        path = tmp_path / "jsi.csv"
        save_jsi_csv(path, jsi_512)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")

        def load():
            with pytest.raises(ConfigError, match=match):
                load_jsi_csv(path)
        assert peak_grids(load) <= 2.0

    def test_save_holds_no_grid(self, tmp_path, jsi_512, peak_grids):
        path = tmp_path / "jsi.csv"
        assert peak_grids(lambda: save_jsi_csv(path, jsi_512)) <= 0.5


def _float_rows(lines):
    """Reference parser: one Python float() per value, line by line."""
    return np.array([[float(v) for v in line.split(",")] for line in lines])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1 / 3]


def _bits_to_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float),
    # subnormals, by their bit patterns
    st.integers(1, 2**52 - 1).map(_bits_to_float),
    st.sampled_from(_EDGE_FLOATS))


class TestParserOracle:
    """np.loadtxt reads the written format with the bits of float()."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), data=st.data())
    def test_matches_float_on_random_bit_patterns(self, tmp_path_factory,
                                                  n, data):
        flat = data.draw(st.lists(_FLOAT64, min_size=n * n, max_size=n * n))
        values = np.array(flat).reshape(n, n)
        grid = FrequencyGrid(axis=np.arange(1.0, n + 1) * 1e15)
        path = tmp_path_factory.mktemp("oracle") / "m.csv"
        save_matrix_csv(path, grid, values)
        _, got = load_matrix_csv(path)
        oracle = _float_rows(path.read_text().splitlines()[2:])
        assert got.dtype == np.float64
        assert got.tobytes() == oracle.tobytes()
        finite = np.isfinite(values)  # every NaN is written as "nan"
        assert np.array_equal(got[finite], values[finite])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_FLOAT64, min_size=4, max_size=4))
    def test_matches_float_on_shortest_repr(self, tmp_path_factory, flat):
        # the shortest round-trip digits, as another writer would emit them
        lines = [",".join(repr(v) for v in flat[:2]),
                 ",".join(repr(v) for v in flat[2:])]
        path = tmp_path_factory.mktemp("repr") / "m.csv"
        path.write_text("# signal_nm: 1620,1500\n# idler_nm: 1620,1500\n"
                        + "\n".join(lines) + "\n")
        _, got = load_matrix_csv(path)
        assert got.tobytes() == _float_rows(lines).tobytes()


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
        with pytest.raises(ConfigError,
                           match="jsi.csv: JSI must be non-negative"):
            load_jsi_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_names_the_file(self, tmp_path, small_grid,
                                                 bad):
        values = np.ones(small_grid.shape)
        values[4, 7] = bad
        path = tmp_path / "jsi.csv"
        save_matrix_csv(path, small_grid, values)
        with pytest.raises(ConfigError,
                           match="jsi.csv: JSI contains non-finite entries"):
            load_jsi_csv(path)


def test_bundled_jsi_regenerates_to_rounding(tmp_path):
    # scripts/make_fixtures.py's shape fit runs on BLAS and LAPACK, whose
    # rounding depends on the thread count and the host, so the recipe
    # gives back the committed file's axes and, to 1e-12 of the peak, its
    # intensity, but not its bytes
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    jsi, _ = make_fixtures.tune_jsi()
    save_jsi_csv(tmp_path / "measured_jsi.csv", jsi)
    again = load_jsi_csv(tmp_path / "measured_jsi.csv")
    committed = fixtures.load_measured_jsi()
    assert np.array_equal(again.grid.axis, committed.grid.axis)
    assert np.abs(again.intensity - committed.intensity).max() <= \
        1e-12 * committed.intensity.max()
