"""Deterministic random-stream derivation.

Every randomized routine takes an integer seed and derives independent
substreams with :func:`substream`.  Streams are keyed Philox counters, so a
(seed, trial-index) pair always yields the same digits regardless of how
many other trials run, in what order, or on how many threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["DEFAULT_SEED", "substream"]

# Default seed used by the command-line tools.
DEFAULT_SEED = 0xD1617


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the substream addressed by ``(seed, *path)``.

    ``path`` is typically a trial index, optionally followed by finer
    coordinates (for example ``substream(seed, trial, level)``).  A
    negative seed raises :class:`DomainError`.
    """
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence((seed,) + tuple(int(p) for p in path))
    key = ss.generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
