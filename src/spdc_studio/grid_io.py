"""CSV serialization for real joint-spectrum grids.

This is the text interchange format for measured spectra: ``analyze-jsi``
reads a JSI in it, and ``scripts/make_fixtures.py`` writes the bundled
measured fixture with it. Complex amplitudes are not written here;
``simulate-jsa`` stores its JSA exactly with ``numpy.save`` as ``jsa.npy``.

Layout: two header comment lines carrying the axes in nanometres,

    # signal_nm: <comma-separated values>
    # idler_nm: <comma-separated values>

followed by the matrix rows (one signal row per line, idler varying along
the row). Values are written with 17 significant digits so every float
round-trips bit-exactly; axes are stored in wavelength, so re-derived
angular frequencies may wobble by one ulp.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, read_input
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
    # floats, faster; callers pass one row at a time to keep memory flat
    return ",".join(["%.17g" % v for v in values.tolist()])


def _format_axis(axis_omega: np.ndarray) -> str:
    return _format_row(TWO_PI_C / axis_omega * 1e9)


def save_matrix_csv(path: str | Path, grid: FrequencyGrid,
                    values: np.ndarray,
                    comment: str | None = None) -> None:
    """Write one real-valued matrix with its wavelength axes."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ConfigError(f"matrix shape {values.shape} does not match grid "
                          f"{grid.shape}")
    lines = []
    if comment:
        for extra in comment.splitlines():
            line = f"# {extra}"
            if line.startswith((_SIGNAL_KEY, _IDLER_KEY)):
                raise ConfigError(f"comment line {extra!r} would read as an "
                                  f"axis header")
            lines.append(line)
    lines.append(f"{_SIGNAL_KEY} {_format_axis(grid.signal_axis)}")
    lines.append(f"{_IDLER_KEY} {_format_axis(grid.idler_axis)}")
    lines.extend(_format_row(row) for row in values)
    Path(path).write_text("\n".join(lines) + "\n")


def _loadtxt(lines: list[str]) -> np.ndarray:
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


def _parse_rows(rows: list[str], linenos: list[int], path) -> np.ndarray:
    """The matrix in ``rows``, parsed by numpy's C reader in one call.

    ``float`` and ``np.loadtxt`` round a decimal string the same way, so
    the values are those of a per-value ``float``. Only a failed parse
    rescans the rows one at a time, to name the first bad line.
    """
    try:
        return _loadtxt(rows)
    except ValueError:
        pass
    for lineno, row in zip(linenos, rows):
        try:
            _loadtxt([row])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value: "
                              f"{_reason(exc)}") from exc
    widths = sorted({row.count(",") + 1 for row in rows})
    raise ConfigError(f"{path}: ragged rows (widths {widths})")


def load_matrix_csv(path: str | Path) -> tuple[FrequencyGrid, np.ndarray]:
    """Read a matrix written by :func:`save_matrix_csv`.

    One pass over the lines picks out the two axis headers and the data
    lines; the data lines are then parsed together by ``np.loadtxt``, and
    each header by the same call, so headers and data accept the same
    numbers. A bad value is reported as ``path:lineno``.
    """
    text = read_input(path, "file")
    signal = idler = None
    rows, linenos = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(_SIGNAL_KEY):
            signal = _parse_axis(line[len(_SIGNAL_KEY):], str(path), lineno)
        elif line.startswith(_IDLER_KEY):
            idler = _parse_axis(line[len(_IDLER_KEY):], str(path), lineno)
        elif not line.startswith("#"):
            rows.append(line)
            linenos.append(lineno)
    if signal is None or idler is None:
        raise ConfigError(f"{path}: missing '{_SIGNAL_KEY}' or "
                          f"'{_IDLER_KEY}' header line")
    if not rows:
        raise ConfigError(f"{path}: no matrix rows found")
    values = _parse_rows(rows, linenos, path)
    try:
        grid = FrequencyGrid(signal_axis=signal, idler_axis=idler)
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
