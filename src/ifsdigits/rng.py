"""Deterministic random-stream derivation.

Every randomized routine takes an integer seed and derives independent
substreams with :func:`substream`.  Streams are keyed Philox counters, so a
(seed, trial-index) pair always yields the same digits regardless of how
many other trials run, in what order, or on how many threads.
"""

from __future__ import annotations

import numpy as np

from .codec import as_count

__all__ = ["DEFAULT_SEED", "substream"]

# Default seed used by the command-line tools.
DEFAULT_SEED = 0xD1617


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the substream addressed by ``(seed, *path)``.

    ``path`` is typically a trial index, optionally followed by finer
    coordinates (for example ``substream(seed, trial, level)``).  The seed
    and each coordinate must be non-negative integers (:func:`as_count`).
    """
    entropy = [as_count(seed, "seed", least=0)]
    entropy += [as_count(p, "substream path entry", least=0) for p in path]
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
