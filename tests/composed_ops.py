"""Elementary tape ops that only the tests' composed references use.

The model needs none of them: its scan computes softplus, exp and the
negated decay inside ``ops.selective_scan``, and its Haar transform is the
fused ``ops.haar2d`` pair. The references in test_denoise, test_wavelet,
test_sync and test_select rebuild those fused ops from these records, so
each op keeps a finite-difference case in ``CASES``, which
``test_tensor_ops.TestComposedOps`` checks with ``grad_check``.
"""

import numpy as np

from coopfuse import ops
from coopfuse.ops import _record, _sigmoid
from coopfuse.tensor import Tensor, as_tensor


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(-g)

    _record(out, bwd)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * y)

    _record(out, bwd)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g / a.data)

    _record(out, bwd)
    return out


def softplus(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    y = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * _sigmoid(x))

    _record(out, bwd)
    return out


def index_axis(a, axis: int, i: int) -> Tensor:
    """Select one index along an axis, removing that axis."""
    a = as_tensor(a)
    out = Tensor(np.take(a.data, i, axis=axis), a.requires_grad)

    def bwd(g):
        full = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = i
        full[tuple(sl)] = g
        a.accumulate_grad(full)

    _record(out, bwd)
    return out


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
