"""Elementary tape ops that only the tests' composed references use.

The model needs none of them: its scan computes softplus, exp and the
negated decay inside ``ops.selective_scan``, and its Haar transform is the
fused ``ops.haar2d`` pair. The references in test_denoise, test_wavelet,
test_sync and test_select rebuild those fused ops from these records, so
each op keeps a finite-difference case in ``CASES``, which
``test_tensor_ops.TestComposedOps`` checks with ``grad_check``. Each is
written through the model's own seam, ``ops._op``, which leaves it out of
``ops.DIFFERENTIABLE_OPS``.
"""

import numpy as np

from coopfuse import ops
from coopfuse.ops import _op, _sigmoid
from coopfuse.tensor import Tensor


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


def _square_sum(y: Tensor) -> Tensor:
    return ops.tsum(ops.mul(y, y))


def _case(op, lo=-1.5, hi=1.5):
    """op's builder for ``grad_check``: the square sum of op on a 3 x 4 probe."""
    def build(seed):
        x = Tensor(np.random.default_rng(seed).uniform(lo, hi, size=(3, 4)))
        return (lambda t: _square_sum(op(t))), x
    return build


CASES = {
    "neg": _case(neg),
    "exp": _case(lambda t: exp(ops.scale(t, 0.5))),
    "log": _case(lambda t: log(ops.add(ops.mul(t, t), 0.5)), lo=0.5, hi=2.0),
    "softplus": _case(softplus),
    "index_axis": _case(lambda t: index_axis(t, 0, 1)),
}
