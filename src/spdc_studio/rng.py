"""Deterministic, independently seeded random streams.

Every stochastic routine in the package draws from its own named substream so
that adding or reordering simulation stages never perturbs the others. The
substream key is derived from the user seed plus a stable hash of the name.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError

__all__ = ["check_seed", "substream"]


def check_seed(seed) -> int:
    """Return ``seed`` as an int; raise ConfigError unless it is a
    non-negative integer (a JSON config may hand in any value)."""
    try:
        whole = not isinstance(seed, bool) and int(seed) == seed
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a Generator for the given seed and stream name.

    The same (seed, name) pair always yields the same stream, and distinct
    names yield statistically independent streams.
    """
    seed = check_seed(seed)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))
