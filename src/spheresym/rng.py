"""Reproducible random-number streams.

Every stochastic routine in this package takes an explicit :class:`RngStream`
instead of touching numpy's global state.  A stream is identified by a 64-bit
seed plus a tuple of integer keys; children derived with :meth:`RngStream.child`
are statistically independent of their parent and of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible source of randomness.

    The same (seed, key) always produces the same draws; distinct keys give
    independent streams (backed by numpy's SeedSequence spawning).
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        )

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(indices))
