"""A fixed piece of numpy work that measures how fast the machine is right now.

The benchmark's machine is shared: other tenants' load moved coopfuse's
step time by a quarter over seconds to minutes, far more than the changes
the benchmark should resolve. The probe does the same kinds of work as
coopfuse (an im2col convolution through BLAS, a gather and a scatter on a
32 x 32 grid, a chain of small elementwise ops) but none of its code, so no
change to coopfuse can speed it up or slow it down. Run right after each
operation, it slows down with the machine: an operation's time divided by
the probe's stays steady, and ``at_reference`` multiplies that ratio by the
constant ``REFERENCE_S`` to give it back the scale of a time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# about the probe's time on the reference machine when it was quiet (README.md);
# a constant factor, so it cancels in every comparison
REFERENCE_S = 2.2e-3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 34, 34))
_K = _rng.standard_normal((8, 16 * 9))
_IDX = _rng.integers(0, 32 * 32, size=32 * 32)
# every buffer is allocated once: what the allocator has cached after the
# operation before the probe would otherwise change the probe's time
_COLS = np.empty((16, 3, 3, 32, 32))
_Y = np.empty((8, 32 * 32))
_Z = np.empty((8, 32 * 32))
_ACC = np.empty((32 * 32, 8))


def _work(reps: int) -> None:
    windows = sliding_window_view(_X, (3, 3), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    for _ in range(reps):
        np.copyto(_COLS, windows)
        np.matmul(_K, _COLS.reshape(16 * 9, 32 * 32), out=_Y)
        np.take(_Y, _IDX, axis=1, out=_Z)
        np.add(_Z, _Y, out=_Z)
        _ACC.fill(0.0)
        np.add.at(_ACC, _IDX, _Z.T)
        for _ in range(20):
            np.multiply(_Z, 0.99, out=_Z)
            np.add(_Z, 0.01, out=_Z)
            np.maximum(_Z, 0.0, out=_Z)


def machine_probe() -> float:
    """Seconds the fixed probe work takes now, its data already in cache."""
    # the untimed pass brings the probe's 1.5 MB back into cache: without it
    # the probe ran a quarter slower after a training step than after itself,
    # so a change to coopfuse's memory footprint would have moved it
    _work(1)
    t = perf_counter()
    _work(4)
    return perf_counter() - t


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the probe speed ``REFERENCE_S``."""
    return seconds / probe_s * REFERENCE_S
