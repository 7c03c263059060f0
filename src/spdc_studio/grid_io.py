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
            lines.append(f"# {extra}")
    lines.append(f"{_SIGNAL_KEY} {_format_axis(grid.signal_axis)}")
    lines.append(f"{_IDLER_KEY} {_format_axis(grid.idler_axis)}")
    lines.extend(_format_row(row) for row in values)
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_axis(text: str, path: str, lineno: int) -> np.ndarray:
    try:
        nm = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad axis value: {exc}") from exc
    if nm.size < 2 or np.any(nm <= 0):
        raise ConfigError(f"{path}:{lineno}: axis needs >= 2 positive "
                          f"wavelengths")
    return TWO_PI_C / (nm * 1e-9)


def load_matrix_csv(path: str | Path) -> tuple[FrequencyGrid, np.ndarray]:
    """Read a matrix written by :func:`save_matrix_csv`."""
    text = read_input(path, "file")
    signal = idler = None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(_SIGNAL_KEY):
            signal = _parse_axis(line[len(_SIGNAL_KEY):], str(path), lineno)
        elif line.startswith(_IDLER_KEY):
            idler = _parse_axis(line[len(_IDLER_KEY):], str(path), lineno)
        elif line.startswith("#"):
            continue
        else:
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value: {exc}") from exc
    if signal is None or idler is None:
        raise ConfigError(f"{path}: missing '{_SIGNAL_KEY}' or "
                          f"'{_IDLER_KEY}' header line")
    if not rows:
        raise ConfigError(f"{path}: no matrix rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: ragged rows (widths {sorted(widths)})")
    values = np.array(rows)
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
    grid, values = load_matrix_csv(path)
    if np.any(values < 0):
        raise ConfigError(f"{path}: joint spectral intensity must be "
                          f"non-negative")
    return JsiGrid(grid=grid, intensity=values)
