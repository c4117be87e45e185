"""Counter-based random number generation.

Every stochastic routine in the package draws from a Philox bit generator so
that trajectories are reproducible bit-for-bit from (seed, stream key) alone,
independent of call order elsewhere in the process.
"""

from __future__ import annotations

import numpy as np

# Stream keys keep independent subsystems (trajectories, fits, experiments)
# from sharing a counter sequence even under equal seeds.
_STREAMS = {
    "default": 0,
    "glauber": 1,
    "lmc": 2,
    "experiment": 4,
    "init": 6,
}


def make_rng(seed: int, stream: str = "default") -> np.random.Generator:
    """Return a Philox-backed Generator for the given seed and stream.

    Distinct stream names yield statistically independent sequences for the
    same seed. A name outside the fixed set is refused.
    """
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    key = _STREAMS.get(stream)
    if key is None:
        raise ValueError(f"unknown random stream {stream!r}; known: {sorted(_STREAMS)}")
    return np.random.Generator(np.random.Philox(key=[int(seed) & ((1 << 64) - 1), key]))

