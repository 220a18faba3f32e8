"""Counter-based deterministic randomness for simulation.

Every run gets its own stream derived from (seed, run index); the draw for
step t of a run is a pure function of (seed, run, t).  This keeps reports
bit-identical for a fixed seed regardless of execution order or batching:
a block of steps is drawn at once, for every run, and each step still gets
the number a one-run, one-step walk would draw for it (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).
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


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """``splitmix64`` of every entry of a uint64 array, in place, with one
    temporary of its size.  Unsigned array arithmetic wraps modulo 2**64,
    as the masks do above."""
    import numpy as np

    z += np.uint64(_PHI)
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(_M1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_M2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def run_keys_array(seed: int, runs: int) -> np.ndarray:
    """``run_key(seed, r)`` for r in range(runs)."""
    import numpy as np

    mixed = np.arange(1, runs + 1, dtype=np.uint64) * np.uint64(_PHI)
    mixed ^= np.uint64(splitmix64(seed & _MASK))
    return _splitmix64_array(mixed)


def bits_block(keys: np.ndarray, counter: int, count: int) -> np.ndarray:
    """53-bit draws as uint64 integers in [0, 2**53), shape ``(count, runs)``:
    row i holds draw number ``counter + i`` of every run stream."""
    import numpy as np

    c = np.arange(counter + 1, counter + count + 1, dtype=np.uint64) * np.uint64(_M1)
    z = _splitmix64_array(keys[None, :] ^ c[:, None])
    z >>= np.uint64(11)
    return z


def uniform_block(keys: np.ndarray, counter: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) with 53-bit resolution: ``bits_block`` / 2**53,
    which is exact."""
    import numpy as np

    u = bits_block(keys, counter, count).astype(np.float64)
    u /= float(1 << 53)
    return u


def uniform_array(keys: np.ndarray, counter: int) -> np.ndarray:
    """Draw number ``counter`` of every run stream."""
    return uniform_block(keys, counter, 1)[0]
