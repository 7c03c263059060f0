"""CSV serialization for real joint-spectrum grids.

This is the text interchange format for measured spectra: ``analyze-jsi``
reads a JSI in it, and ``scripts/make_fixtures.py`` writes the bundled
measured fixture with it. Amplitudes are not written here:
``simulate-jsa`` saves its JSA with ``numpy.save`` as ``jsa.npy``, in the
dtype ``JsaGrid`` holds it.

Layout: two header comment lines carrying the grid's one axis in
nanometres, once for each photon; a reader requires them equal,

    # signal_nm: <comma-separated values>
    # idler_nm: <the same values>

followed by the matrix rows (one signal row per line, idler varying along
the row). Values are written with 17 significant digits so every float
round-trips bit-exactly; axes are stored in wavelength, so re-derived
angular frequencies may wobble by one ulp.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConfigError, open_input
from .optics import TWO_PI_C, FrequencyGrid
from .spectral import JsiGrid

__all__ = [
    "save_matrix_csv",
    "load_matrix_csv",
    "save_jsi_csv",
    "load_jsi_csv",
]

_SIGNAL_KEY = "# signal_nm:"
_IDLER_KEY = "# idler_nm:"


def _format_row(values: np.ndarray) -> str:
    # %-formatting Python floats writes the bytes of f"{v:.17g}" on numpy
    # floats, faster, and one format of the whole row makes no string per
    # value; callers pass one row at a time to keep memory flat
    return ",".join(["%.17g"] * values.size) % tuple(values.tolist())


def _format_axis(axis_omega: np.ndarray) -> str:
    return _format_row(TWO_PI_C / axis_omega * 1e9)


def save_matrix_csv(path: str | Path, grid: FrequencyGrid,
                    values: np.ndarray,
                    comment: str | None = None) -> None:
    """Write one real-valued matrix with its wavelength axes, as UTF-8
    text, one formatted row at a time."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ConfigError(f"matrix shape {values.shape} does not match grid "
                          f"{grid.shape}")
    headers = []
    if comment:
        for extra in comment.splitlines():
            line = f"# {extra}"
            if line.startswith((_SIGNAL_KEY, _IDLER_KEY)):
                raise ConfigError(f"comment line {extra!r} would read as an "
                                  f"axis header")
            headers.append(line)
    axis = _format_axis(grid.axis)
    headers += [f"{_SIGNAL_KEY} {axis}", f"{_IDLER_KEY} {axis}"]
    with open(path, "w", encoding="utf-8") as fh:
        for line in headers:
            fh.write(line + "\n")
        for row in values:
            fh.write(_format_row(row) + "\n")


def _loadtxt(lines: Iterable[str]) -> np.ndarray:
    """``lines`` as a 2-D float64 matrix, by numpy's C reader."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _reason(exc: ValueError) -> str:
    # drop numpy's "at row 0, column k." position within the one line
    return str(exc).split(" at row ")[0]


def _parse_axis(text: str, path: str, lineno: int) -> np.ndarray:
    """The header values in ``text``, parsed like the data lines."""
    try:
        if not text.strip():  # loadtxt would skip it with a warning
            raise ValueError("no values")
        nm = _loadtxt([text])[0]
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad axis value: "
                          f"{_reason(exc)}") from exc
    if nm.size < 2 or np.any(nm <= 0):
        raise ConfigError(f"{path}:{lineno}: axis needs >= 2 positive "
                          f"wavelengths")
    return TWO_PI_C / (nm * 1e-9)


def _data_lines(lines: Iterator[str], path: str,
                axes: dict) -> Iterator[tuple[int, str]]:
    """The data lines of ``lines``, stripped, with their line numbers.
    Blank and comment lines are skipped; each axis header is parsed into
    ``axes`` as it is met, wherever it stands. A bad header is raised only
    after the rest of ``lines`` is read, so undecodable text outranks it."""
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(_SIGNAL_KEY):
                axes["signal"] = _parse_axis(line[len(_SIGNAL_KEY):], path,
                                             lineno)
            elif line.startswith(_IDLER_KEY):
                axes["idler"] = _parse_axis(line[len(_IDLER_KEY):], path,
                                            lineno)
            elif not line.startswith("#"):
                yield lineno, line
    except ConfigError:
        for _ in lines:
            pass
        raise


def _bad_row(path) -> NoReturn:
    """Raise the first fault of the data lines of ``path``, whose one-call
    parse failed: the first row that fails on its own, else ragged rows."""
    widths = set()
    with open_input(path, "file") as fh:
        for lineno, row in _data_lines(fh, str(path), {}):
            try:
                _loadtxt([row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value: "
                                  f"{_reason(exc)}") from exc
            widths.add(row.count(",") + 1)
    raise ConfigError(f"{path}: ragged rows (widths {sorted(widths)})")


def load_matrix_csv(path: str | Path) -> tuple[FrequencyGrid, np.ndarray]:
    """Read a matrix written by :func:`save_matrix_csv`.

    The UTF-8 lines are read from the open file through one classifier,
    which parses the two axis headers as it meets them and hands the data
    lines to a single ``np.loadtxt`` call, which rounds each value as
    ``float`` does; about one grid is held. Each
    header is parsed by the same call, so headers and data accept the same
    numbers. The first fault wins by kind: undecodable text, a bad axis
    header in line order, a missing header or data, a bad value
    (``path:lineno``) or ragged rows, then headers that differ: signal
    and idler share one axis. So a failed parse reads the rest of
    the file through the classifier, and only then streams the file again
    to name its first bad row.
    """
    axes: dict = {}
    values = None
    with open_input(path, "file") as fh:
        data = _data_lines(fh, str(path), axes)
        rows = (line for _, line in data)
        first = next(rows, None)
        try:
            # loadtxt would warn on an empty input
            if first is not None:
                values = _loadtxt(chain([first], rows))
        except (ConfigError, UnicodeDecodeError):
            raise
        except ValueError:
            for _ in data:  # every header is checked before any value
                pass
    if len(axes) < 2:
        raise ConfigError(f"{path}: missing '{_SIGNAL_KEY}' or "
                          f"'{_IDLER_KEY}' header line")
    if first is None:
        raise ConfigError(f"{path}: no matrix rows found")
    if values is None:
        _bad_row(path)
    # equal_nan leaves a NaN in both headers to FrequencyGrid's own check
    if not np.array_equal(axes["signal"], axes["idler"], equal_nan=True):
        raise ConfigError(f"{path}: the '{_SIGNAL_KEY}' and '{_IDLER_KEY}' "
                          f"headers differ; signal and idler need one axis")
    try:
        grid = FrequencyGrid(axis=axes["signal"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if values.shape != grid.shape:
        raise ConfigError(f"{path}: matrix is {values.shape} but axes imply "
                          f"{grid.shape}")
    return grid, values


def save_jsi_csv(path: str | Path, jsi: JsiGrid,
                 comment: str | None = None) -> None:
    save_matrix_csv(path, jsi.grid, jsi.intensity, comment=comment)


def load_jsi_csv(path: str | Path) -> JsiGrid:
    """Read a JSI; a negative or non-finite intensity is reported with
    the path."""
    grid, values = load_matrix_csv(path)
    try:
        return JsiGrid(grid=grid, intensity=values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
