"""Elementary tape ops that only the tests' composed references use.

The model needs none of them: its scan computes softplus, exp and the
negated decay inside ``ops.selective_scan``, and its Haar transform is the
fused ``ops.haar2d`` pair. The references in test_denoise, test_wavelet,
test_sync and test_select rebuild those fused ops from these records, so
each op keeps a finite-difference case, under its own name, in the
gradient suite's table (``grad_cases.CASES``). Each is written through the
model's own seam, ``ops._op``, which leaves it out of
``ops.DIFFERENTIABLE_OPS``.
"""

import numpy as np

from coopfuse.ops import _op, _sigmoid


@_op("a")
def neg(a):
    return -a, lambda g, needs: (-g,)


@_op("a")
def exp(a):
    y = np.exp(a)
    return y, lambda g, needs: (g * y,)


@_op("a")
def log(a):
    return np.log(a), lambda g, needs: (g / a,)


@_op("a")
def softplus(a):
    y = np.log1p(np.exp(-np.abs(a))) + np.maximum(a, 0.0)
    return y, lambda g, needs: (g * _sigmoid(a),)


@_op("a")
def index_axis(a, axis: int, i: int):
    """Select one index along an axis, removing that axis."""
    def vjp(g, needs):
        full = np.zeros_like(a)
        sl = [slice(None)] * a.ndim
        sl[axis] = i
        full[tuple(sl)] = g
        return full,
    return np.take(a, i, axis=axis), vjp
