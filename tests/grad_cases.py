"""The finite-difference cases of the gradient suite, one per checked op.

``CASES`` maps a case name to ``build(seed) -> (scalar_fn, probe tensor)``,
the arguments of ``coopfuse.gradcheck.grad_check``. Every case is made by
``case``: it draws the case's arrays in order from ``default_rng(seed)``
and sums ``f`` over them with the probe tensor in one slot. test_02 runs
the whole table and fails if an op in ``ops.DIFFERENTIABLE_OPS`` has no
case of its own name; the five tests-only ops of ``composed_ops`` keep
theirs here too.

Each scalar function looks its ops up on ``ops`` when it runs, never when
the table is built, so a test that swaps ``ops.<name>`` sees every call.
"""

import numpy as np

from composed_ops import exp, index_axis, log, neg, softplus
from coopfuse import ops
from coopfuse.tensor import Tensor


def uniform(lo, hi, shape):
    return lambda rng: rng.uniform(lo, hi, size=shape)


def away_from_zero(shape, lo=0.2):
    """Uniform values in [-1.5, 1.5] nudged at least `lo` from 0 (kink safety)."""
    def draw(rng):
        x = rng.uniform(-1.5, 1.5, size=shape)
        return x + lo * np.sign(x + 1e-12)
    return draw


def fixed(array):
    """An array that takes no draw."""
    return lambda rng: array


def case(f, *draws, probe=0):
    """The case whose scalar is tsum(f(*arrays)) with the probe tensor in
    slot `probe`. Each draw maps the generator to one array, or to a tuple
    of arrays that fill consecutive slots."""
    def build(seed):
        rng, arrays = np.random.default_rng(seed), []
        for draw in draws:
            a = draw(rng)
            arrays += a if isinstance(a, tuple) else [a]
        return (lambda t: ops.tsum(f(*arrays[:probe], t, *arrays[probe + 1:]))), \
            Tensor(arrays[probe])
    return build


def square(y):
    return ops.mul(y, y)


def unary(op, draw=uniform(-1.5, 1.5, (3, 4))):
    """The square sum of op on one drawn probe, 3 x 4 by default."""
    return case(lambda t: square(op(t)), draw)


def blend(probe):
    """The gate blend probed in alpha (0), hidden (1) or warped (2)."""
    return case(lambda a, h, w: square(ops.blend(a, h, w)), uniform(0.1, 0.9, (3, 4)),
                uniform(-1.5, 1.5, (3, 4)), uniform(-1.5, 1.5, (3, 4)), probe=probe)


def weighted(op, shape, out_shape):
    """A weighted square sum of the op's output, so the four Haar subbands
    (or the four block entries) get different gradients."""
    return case(lambda t, w: ops.mul(square(op(t)), w),
                uniform(-1.5, 1.5, shape), uniform(0.5, 1.5, out_shape))


def conv2d(probe, taps=False):
    """A conv2d probed in its input (0), kernel (1) or bias (2). The im2col
    case maps 2 channels to 3 with a 3x3 kernel; the tap form reduces 8
    channels to 3 (k = 3) or to one (k = 7) by seed."""
    def shaped(c_in, c_out, k):
        return case(lambda x, w, b: square(ops.conv2d(x, w, b, pad=k // 2)),
                    uniform(-1.5, 1.5, (c_in, 5, 5)), uniform(-0.8, 0.8, (c_out, c_in, k, k)),
                    uniform(-1.0, 1.0, (c_out, 1, 1)), probe=probe)
    if not taps:
        return shaped(2, 3, 3)
    even, odd = shaped(8, 3, 3), shaped(8, 1, 7)
    return lambda seed: (odd if seed % 2 else even)(seed)


def selective_scan(probe, length=5, c=2, n=3, log_decay_mean=0.0):
    """Two scan paths; the probe is the 2 x L x C tokens ("x") or one
    stacked parameter.

    A log_decay_mean of -4 keeps exp(step * decay) near 0.99, so a state
    still counts a block of ops._SCAN_BLOCK steps later."""
    shapes = {"w_step": (c, c), "b_step": (1, c), "w_in": (c, n), "b_in": (1, n),
              "w_out": (c, n), "b_out": (1, n), "skip": (1, c), "log_decay": (n,)}

    def params(rng):
        per_path = [[0.5 * rng.standard_normal(shapes[name]) for name in ops.SCAN_PARAMS]
                    for _ in range(2)]
        stacked = [np.stack(t) for t in zip(*per_path)]
        stacked[-1] += log_decay_mean
        return tuple(stacked)
    return case(lambda xs, *ps: square(ops.selective_scan(xs, list(ps))),
                uniform(-1.5, 1.5, (2, length, c)), params,
                probe=0 if probe == "x" else 1 + ops.SCAN_PARAMS.index(probe))


def _grid_coords(dr, dc):
    rr, cc = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
    return np.stack([rr + dr, cc + dc])


CASES = {
    "add": case(lambda o, t: square(ops.add(t, o)),
                uniform(-1.0, 1.0, (1, 4)), uniform(-1.5, 1.5, (3, 4)), probe=1),
    "sub": case(lambda o, t: ops.mul(ops.sub(t, o), ops.sub(o, t)),
                uniform(-1.0, 1.0, (3, 1)), uniform(-1.5, 1.5, (3, 4)), probe=1),
    "mul": case(lambda o, t: ops.mul(t, ops.mul(t, o)),
                uniform(0.5, 1.5, (3, 4)), uniform(-1.5, 1.5, (3, 4)), probe=1),
    "div": case(lambda o, t: ops.div(square(t), ops.add(square(t), o)),
                uniform(0.8, 1.8, (3, 4)), uniform(-1.5, 1.5, (3, 4)), probe=1),
    "blend": blend(0),
    "blend_hidden": blend(1),
    "blend_warped": blend(2),
    "sigmoid": unary(lambda t: ops.sigmoid(t)),
    "relu": unary(lambda t: ops.relu(t), away_from_zero((3, 4))),
    "elu_plus_one": unary(lambda t: ops.elu_plus_one(t), away_from_zero((3, 4))),
    "tsum": unary(lambda t: ops.tsum(t, axis=0, keepdims=True)),
    "tmean": unary(lambda t: ops.tmean(t, axis=1)),
    # separate values, so the argmax is unambiguous under the probe step
    "max_reduce": unary(lambda t: ops.max_reduce(t, 1),
                        lambda rng: rng.permutation(12).reshape(3, 4) * 0.25 - 1.4),
    "matmul": case(lambda w, t: square(ops.matmul(t, w)),
                   uniform(-1.0, 1.0, (4, 2)), uniform(-1.5, 1.5, (3, 4)), probe=1),
    "matmul_bias": case(lambda w, a, b: square(ops.matmul(a, w, b)), uniform(-1.0, 1.0, (4, 2)),
                        uniform(-1.5, 1.5, (3, 4)), uniform(-1.0, 1.0, (1, 2)), probe=2),
    "reshape": unary(lambda t: ops.reshape(t, (2, 6))),
    "transpose": unary(lambda t: ops.transpose(t, (2, 0, 1)), uniform(-1.5, 1.5, (2, 3, 4))),
    "concat": case(lambda o, t: square(ops.concat([t, Tensor(o), ops.scale(t, 0.5)], axis=0)),
                   uniform(-1.0, 1.0, (2, 4)), uniform(-1.5, 1.5, (3, 4)), probe=1),
    "narrow": unary(lambda t: ops.narrow(t, 1, 1, 3), uniform(-1.5, 1.5, (3, 5))),
    "haar2d": weighted(lambda t: ops.haar2d(t), (2, 4, 6), (8, 2, 3)),
    "ihaar2d": weighted(lambda t: ops.ihaar2d(t), (8, 2, 3), (2, 4, 6)),
    "take_rows": unary(lambda t: ops.take_rows(t, np.array([2, 0, 1, 0]))),
    "softmax": unary(lambda t: ops.softmax(t, 1)),
    "conv2d": conv2d(0),
    "conv2d_kernel": conv2d(1),
    "conv2d_bias": conv2d(2),
    "conv2d_taps": conv2d(0, taps=True),
    "conv2d_taps_kernel": conv2d(1, taps=True),
    "conv2d_taps_bias": conv2d(2, taps=True),
    "bilinear_sample": case(lambda c, t: square(ops.bilinear_sample(t, c)),
                            fixed(_grid_coords(0.3, -0.4)), uniform(-1.5, 1.5, (2, 5, 5)),
                            probe=1),
    "bilinear_sample_coords": case(lambda g, c: square(ops.bilinear_sample(g, c)),
                                   uniform(-1.5, 1.5, (2, 5, 5)),
                                   fixed(_grid_coords(0.31, -0.27)), probe=1),
    "bce_with_logits": case(lambda y, t: ops.bce_with_logits(t, y),
                            lambda rng: rng.integers(0, 2, size=(3, 4)).astype(float),
                            uniform(-1.5, 1.5, (3, 4)), probe=1),
    "linear_recurrence": case(lambda a, b: square(ops.linear_recurrence(a, b)),
                              uniform(0.2, 0.9, (5, 2, 3)), uniform(-1.5, 1.5, (5, 2, 3)),
                              probe=1),
    "linear_recurrence_decay": case(lambda b, a: square(ops.linear_recurrence(a, b)),
                                    uniform(-1.0, 1.0, (5, 2, 3)), uniform(0.2, 0.9, (5, 2, 3)),
                                    probe=1),
    "selective_scan": selective_scan("x"),
    **{f"selective_scan_{name}": selective_scan(name) for name in ops.SCAN_PARAMS},
    # three blocks, the last of 3 steps: the backward's per-block recompute
    # and the adjoint seed it passes from each block to the one before
    **{f"selective_scan_blocks_{name}": selective_scan(
        name, length=2 * ops._SCAN_BLOCK + 3, c=1, n=1, log_decay_mean=-4.0)
       for name in ("x", "log_decay")},
    "neg": unary(neg),
    "exp": unary(lambda t: exp(ops.scale(t, 0.5))),
    "log": unary(lambda t: log(ops.add(square(t), 0.5)), uniform(0.5, 2.0, (3, 4))),
    "softplus": unary(softplus),
    "index_axis": unary(lambda t: index_axis(t, 0, 1)),
}
