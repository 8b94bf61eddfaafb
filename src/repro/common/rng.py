"""Deterministic random-number streams.

Each subsystem receives its own named stream derived from a root seed, so
adding randomness to one component never perturbs another component's
sequence (a classic reproducibility pitfall in simulators).
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import stable_hash


class RngStream:
    """A named, seeded random stream backed by numpy's PCG64.

    Instances are cheap; derive one per logical purpose::

        rng = RngStream(seed=42, name="datagen.text")
        words = rng.zipf(a=1.5, size=100)
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        derived = stable_hash((seed, name), salt="rng")
        self._gen = np.random.Generator(np.random.PCG64(derived))

    def child(self, name: str) -> "RngStream":
        """Derive an independent stream for a sub-purpose."""
        return RngStream(self.seed, f"{self.name}/{name}")

    # -- thin wrappers over the numpy generator ---------------------------

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size=size)

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def exponential(self, scale: float = 1.0, size=None):
        return self._gen.exponential(scale, size)

    def zipf(self, a: float, size=None):
        return self._gen.zipf(a, size)

    def choice(self, seq, size=None, replace: bool = True, p=None):
        return self._gen.choice(seq, size=size, replace=replace, p=p)

    def coin(self, p: float = 0.5) -> bool:
        """Flip a biased coin."""
        return bool(self._gen.random() < p)


def derive_rng(seed: int, *names: str) -> RngStream:
    """Build a stream from a root seed and a path of purpose names."""
    stream = RngStream(seed)
    for name in names:
        stream = stream.child(name)
    return stream
