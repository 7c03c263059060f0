"""Package-level exception types, and the readers that turn an input file
which cannot be read into one of them.

The CLI maps these onto exit codes: configuration problems exit with 2 and
convergence failures with 3.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["ConfigError", "ConvergenceError", "read_input", "read_json"]


class ConfigError(ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to meet its convergence criterion."""


def read_input(path: str | Path, what: str) -> str:
    """Text of the input file ``path``; a missing, unreadable or non-UTF-8
    one raises ConfigError naming the path and ``what`` it should be."""
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such {what}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {what} is not UTF-8 text") from exc


def read_json(path: str | Path, what: str):
    """The JSON document in ``path``, read as :func:`read_input` reads it;
    malformed JSON raises ConfigError with the path and line."""
    try:
        return json.loads(read_input(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
