"""Counter-based deterministic randomness for simulation.

Every run gets its own stream derived from (seed, run index); the draw for
step t of a run is a pure function of (seed, run, t).  This keeps reports
bit-identical for a fixed seed regardless of execution order or batching,
and lets the vectorized and scalar simulators agree exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    z = (x + _PHI) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def run_key(seed: int, run: int) -> int:
    return splitmix64(splitmix64(seed & _MASK) ^ ((run + 1) * _PHI & _MASK))


def draw(key: int, counter: int) -> int:
    """64-bit draw number `counter` of a stream."""
    return splitmix64(key ^ ((counter + 1) * _M1 & _MASK))


def uniform(key: int, counter: int) -> float:
    """Uniform in [0, 1) with 53-bit resolution."""
    return (draw(key, counter) >> 11) / float(1 << 53)


def run_keys_array(seed: int, runs: int) -> np.ndarray:
    import numpy as np

    return np.array([run_key(seed, r) for r in range(runs)], dtype=np.uint64)


def uniform_array(keys: np.ndarray, counter: int) -> np.ndarray:
    """Vectorized `uniform` across run streams for one shared counter."""
    import numpy as np

    with np.errstate(over="ignore"):
        x = keys ^ np.uint64((counter + 1) * _M1 & _MASK)
        z = x + np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)
