"""Package-level exception types, and the readers that turn an input file
which cannot be read into one of them.

The CLI maps these onto exit codes: configuration problems exit with 2 and
convergence failures with 3.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

__all__ = ["ConfigError", "ConvergenceError", "open_input", "read_json"]


class ConfigError(ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to meet its convergence criterion."""


@contextmanager
def open_input(path: str | Path, what: str) -> Iterator[TextIO]:
    """The input file ``path`` open as UTF-8 text; a missing, unreadable or
    non-UTF-8 one raises ConfigError naming the path and ``what`` it should
    be, also when the fault is met part way through reading it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such {what}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {what} is not UTF-8 text") from exc


def read_json(path: str | Path, what: str):
    """The JSON document in ``path``, read as :func:`open_input` opens it;
    malformed JSON raises ConfigError with the path and line."""
    try:
        with open_input(path, what) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
