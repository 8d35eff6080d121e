"""Finite-difference validation of the reverse-mode gradients.

``grad_check`` compares the tape gradient of a scalar-valued function
against central differences, element by element. ``registered_cases``
returns one scalar test function per differentiable op, so the gradient
suite can assert full coverage of ``ops.DIFFERENTIABLE_OPS``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import ops
from .tensor import Tape, Tensor


def grad_check(scalar_fn: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-4) -> float:
    """Return the max relative error between tape and central-difference gradients."""
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = scalar_fn(probe)
    if y.data.size != 1:
        raise ValueError(f"scalar_fn must return a scalar, got shape {y.data.shape}")
    tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = scalar_fn(Tensor(flat.reshape(x.data.shape))).item()
        flat[i] = orig - eps
        dn = scalar_fn(Tensor(flat.reshape(x.data.shape))).item()
        flat[i] = orig
        numeric[i] = (up - dn) / (2.0 * eps)

    an = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(an), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(an - numeric) / denom))


def _away_from_zero(rng: np.random.Generator, shape, lo: float = 0.2) -> np.ndarray:
    """Uniform values in [-1.5, 1.5] nudged at least `lo` from 0 (kink safety)."""
    x = rng.uniform(-1.5, 1.5, size=shape)
    return x + lo * np.sign(x + 1e-12)


def registered_cases() -> dict[str, Callable[[int], tuple[Callable, Tensor]]]:
    """Map op name -> builder(seed) -> (scalar_fn, input tensor)."""

    def simple(op_of_x):
        def build(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
            return (lambda t: ops.tsum(ops.mul(op_of_x(t), op_of_x(t)))), x
        return build

    def kink(op_of_x):
        def build(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(_away_from_zero(rng, (3, 4)))
            return (lambda t: ops.tsum(ops.mul(op_of_x(t), op_of_x(t)))), x
        return build

    def build_add(seed):
        rng = np.random.default_rng(seed)
        other = rng.uniform(-1.0, 1.0, size=(1, 4))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
        return (lambda t: ops.tsum(ops.mul(ops.add(t, other), ops.add(t, other)))), x

    def build_sub(seed):
        rng = np.random.default_rng(seed)
        other = rng.uniform(-1.0, 1.0, size=(3, 1))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
        return (lambda t: ops.tsum(ops.mul(ops.sub(t, other), ops.sub(other, t)))), x

    def build_mul(seed):
        rng = np.random.default_rng(seed)
        other = rng.uniform(0.5, 1.5, size=(3, 4))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
        return (lambda t: ops.tsum(ops.mul(t, ops.mul(t, other)))), x

    def build_div(seed):
        rng = np.random.default_rng(seed)
        other = rng.uniform(0.8, 1.8, size=(3, 4))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
        return (lambda t: ops.tsum(ops.div(ops.mul(t, t), ops.add(ops.mul(t, t), other)))), x

    def blend_case(probed: str):
        """The gate blend probed in alpha, hidden or warped; the other two are fixed."""
        def build(seed):
            rng = np.random.default_rng(seed)
            args = {"alpha": rng.uniform(0.1, 0.9, size=(3, 4)),
                    "hidden": rng.uniform(-1.5, 1.5, size=(3, 4)),
                    "warped": rng.uniform(-1.5, 1.5, size=(3, 4))}

            def f(t):
                y = ops.blend(*(t if name == probed else v for name, v in args.items()))
                return ops.tsum(ops.mul(y, y))
            return f, Tensor(args[probed])
        return build

    def build_matmul(seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, size=(4, 2))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
        return (lambda t: ops.tsum(ops.mul(ops.matmul(t, w), ops.matmul(t, w)))), x

    def build_matmul_bias(seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, size=(4, 2))
        a = rng.uniform(-1.5, 1.5, size=(3, 4))
        x = Tensor(rng.uniform(-1.0, 1.0, size=(1, 2)))
        return (lambda t: ops.tsum(ops.mul(ops.matmul(a, w, t), ops.matmul(a, w, t)))), x

    def build_max_reduce(seed):
        rng = np.random.default_rng(seed)
        # separate values so the argmax is unambiguous under the probe step
        base = rng.permutation(12).reshape(3, 4) * 0.25 - 1.4
        x = Tensor(base)
        return (lambda t: ops.tsum(ops.mul(ops.max_reduce(t, 1), ops.max_reduce(t, 1)))), x

    def build_transpose(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1.5, 1.5, size=(2, 3, 4)))
        return (lambda t: ops.tsum(ops.mul(ops.transpose(t, (2, 0, 1)),
                                           ops.transpose(t, (2, 0, 1))))), x

    def build_concat(seed):
        rng = np.random.default_rng(seed)
        other = rng.uniform(-1.0, 1.0, size=(2, 4))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))

        def f(t):
            c = ops.concat([t, Tensor(other), ops.scale(t, 0.5)], axis=0)
            return ops.tsum(ops.mul(c, c))
        return f, x

    def build_narrow(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 5)))
        return (lambda t: ops.tsum(ops.mul(ops.narrow(t, 1, 1, 3), ops.narrow(t, 1, 1, 3)))), x

    def haar_case(op, shape):
        """A weighted square sum of the op's output, so the four subbands (or
        the four block entries) get different gradients."""
        def build(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-1.5, 1.5, size=shape))
            w = rng.uniform(0.5, 1.5, size=op(x).data.shape)
            return (lambda t: ops.tsum(ops.mul(ops.mul(op(t), op(t)), w))), x
        return build

    def conv2d_case(probed: str, taps: bool = False):
        """A conv2d probed in its input, kernel or bias. The im2col case maps
        2 channels to 3 with a 3x3 kernel; the tap form reduces 8 channels to
        3 (k = 3) or to one (k = 7) by seed."""
        def build(seed):
            rng = np.random.default_rng(seed)
            c_in, c_out, k = ((8, 3, 3), (8, 1, 7))[seed % 2] if taps else (2, 3, 3)
            args = {"input": rng.uniform(-1.5, 1.5, size=(c_in, 5, 5)),
                    "kernel": rng.uniform(-0.8, 0.8, size=(c_out, c_in, k, k)),
                    "bias": rng.uniform(-1.0, 1.0, size=(c_out, 1, 1))}

            def f(t):
                y = ops.conv2d(*(t if name == probed else v for name, v in args.items()),
                               pad=k // 2)
                return ops.tsum(ops.mul(y, y))
            return f, Tensor(args[probed])
        return build

    def build_bilinear(seed):
        rng = np.random.default_rng(seed)
        h = w = 5
        rr, cc = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                             indexing="ij")
        coords = np.stack([rr + 0.3, cc - 0.4])
        x = Tensor(rng.uniform(-1.5, 1.5, size=(2, h, w)))
        return (lambda t: ops.tsum(ops.mul(ops.bilinear_sample(t, coords),
                                           ops.bilinear_sample(t, coords)))), x

    def build_bilinear_coords(seed):
        rng = np.random.default_rng(seed)
        h = w = 5
        grid = rng.uniform(-1.5, 1.5, size=(2, h, w))
        rr, cc = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                             indexing="ij")
        x = Tensor(np.stack([rr + 0.31, cc - 0.27]))
        return (lambda t: ops.tsum(ops.mul(ops.bilinear_sample(grid, t),
                                           ops.bilinear_sample(grid, t)))), x

    def build_bce(seed):
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, 2, size=(3, 4)).astype(float)
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)))
        return (lambda t: ops.bce_with_logits(t, targets)), x

    def build_linear_recurrence(seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.2, 0.9, size=(5, 2, 3))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(5, 2, 3)))

        def f(t):
            h = ops.linear_recurrence(Tensor(a), t)
            return ops.tsum(ops.mul(h, h))
        return f, x

    def build_linear_recurrence_decay(seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, size=(5, 2, 3))
        x = Tensor(rng.uniform(0.2, 0.9, size=(5, 2, 3)))

        def f(t):
            h = ops.linear_recurrence(t, Tensor(b))
            return ops.tsum(ops.mul(h, h))
        return f, x

    def selective_scan_case(probed: str, length: int = 5, c: int = 2, n: int = 3,
                            log_decay_mean: float = 0.0):
        """Two scan paths; the probe is the 2 x L x C tokens or one stacked parameter.

        A log_decay_mean of -4 keeps exp(step * decay) near 0.99, so a state
        still counts a block of ops._SCAN_BLOCK steps later."""
        def build(seed):
            rng = np.random.default_rng(seed)
            shapes = {"w_step": (c, c), "b_step": (1, c), "w_in": (c, n), "b_in": (1, n),
                      "w_out": (c, n), "b_out": (1, n), "skip": (1, c), "log_decay": (n,)}
            xs = rng.uniform(-1.5, 1.5, size=(2, length, c))
            per_path = [[0.5 * rng.standard_normal(shapes[name]) for name in ops.SCAN_PARAMS]
                        for _ in range(2)]
            params = [np.stack(t) for t in zip(*per_path)]
            params[-1] += log_decay_mean
            k = ops.SCAN_PARAMS.index(probed) if probed != "x" else None
            x = Tensor(xs if k is None else params[k])

            def f(t):
                y = ops.selective_scan(t if k is None else xs,
                                       [t if j == k else v for j, v in enumerate(params)])
                return ops.tsum(ops.mul(y, y))
            return f, x
        return build

    cases = {
        "add": build_add,
        "sub": build_sub,
        "mul": build_mul,
        "div": build_div,
        "blend": blend_case("alpha"),
        "blend_hidden": blend_case("hidden"),
        "blend_warped": blend_case("warped"),
        "sigmoid": simple(lambda t: ops.sigmoid(t)),
        "relu": kink(lambda t: ops.relu(t)),
        "elu_plus_one": kink(lambda t: ops.elu_plus_one(t)),
        "tsum": simple(lambda t: ops.tsum(t, axis=0, keepdims=True)),
        "tmean": simple(lambda t: ops.tmean(t, axis=1)),
        "max_reduce": build_max_reduce,
        "matmul": build_matmul,
        "matmul_bias": build_matmul_bias,
        "reshape": simple(lambda t: ops.reshape(t, (2, 6))),
        "transpose": build_transpose,
        "concat": build_concat,
        "narrow": build_narrow,
        "haar2d": haar_case(ops.haar2d, (2, 4, 6)),
        "ihaar2d": haar_case(ops.ihaar2d, (8, 2, 3)),
        "take_rows": simple(lambda t: ops.take_rows(t, np.array([2, 0, 1, 0]))),
        "softmax": simple(lambda t: ops.softmax(t, 1)),
        "conv2d": conv2d_case("input"),
        "conv2d_kernel": conv2d_case("kernel"),
        "conv2d_bias": conv2d_case("bias"),
        "conv2d_taps": conv2d_case("input", taps=True),
        "conv2d_taps_kernel": conv2d_case("kernel", taps=True),
        "conv2d_taps_bias": conv2d_case("bias", taps=True),
        "bilinear_sample": build_bilinear,
        "bilinear_sample_coords": build_bilinear_coords,
        "bce_with_logits": build_bce,
        "linear_recurrence": build_linear_recurrence,
        "linear_recurrence_decay": build_linear_recurrence_decay,
        "selective_scan": selective_scan_case("x"),
    }
    for name in ops.SCAN_PARAMS:
        cases[f"selective_scan_{name}"] = selective_scan_case(name)
    # three blocks, the last of 3 steps: the backward's per-block recompute
    # and the adjoint seed it passes from each block to the one before
    for name in ("x", "log_decay"):
        cases[f"selective_scan_blocks_{name}"] = selective_scan_case(
            name, length=2 * ops._SCAN_BLOCK + 3, c=1, n=1, log_decay_mean=-4.0)
    return cases
