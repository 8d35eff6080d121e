"""Differentiable operations on Tensor.

Every operation here runs a plain numpy forward pass and, when a Tape is
active and some input requires grad, records a closure that propagates the
output gradient to its inputs. ``DIFFERENTIABLE_OPS`` lists every op that
participates in gradient checking; adding an op without extending gradcheck
coverage fails the gradient suite.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, active_tape, as_tensor

DIFFERENTIABLE_OPS: list[str] = []


def _diffop(fn):
    DIFFERENTIABLE_OPS.append(fn.__name__)
    return fn


def _record(out: Tensor, fn) -> None:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, fn)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over axes that were broadcast, so it matches `shape`."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _scatter_add(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum values into a zero vector of `size` at flat `keys`, in C order.

    Each slot accumulates its values in the order they appear, as
    ``np.add.at`` over the same sequence would, so the result is bitwise
    equal to it; ``np.bincount`` just does it in one pass.
    """
    return np.bincount(keys.ravel(), weights=values.ravel(), minlength=size)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules apply)
# ---------------------------------------------------------------------------

@_diffop
def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    _record(out, bwd)
    return out


@_diffop
def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    _record(out, bwd)
    return out


@_diffop
def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    _record(out, bwd)
    return out


@_diffop
def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    _record(out, bwd)
    return out


@_diffop
def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(-g)

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

@_diffop
def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * y)

    _record(out, bwd)
    return out


@_diffop
def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g / a.data)

    _record(out, bwd)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # two-sided form avoids overflow in exp
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


@_diffop
def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _sigmoid(a.data)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * y * (1.0 - y))

    _record(out, bwd)
    return out


@_diffop
def softplus(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    y = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * _sigmoid(x))

    _record(out, bwd)
    return out


@_diffop
def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * (a.data > 0.0))

    _record(out, bwd)
    return out


@_diffop
def elu_plus_one(a) -> Tensor:
    """exp(x) for x<=0, x+1 for x>0: a strictly positive kernel feature map."""
    a = as_tensor(a)
    x = a.data
    pos = x > 0.0
    e = np.exp(np.minimum(x, 0.0))
    y = np.where(pos, x + 1.0, e)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g * np.where(pos, 1.0, e))

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# reductions and matmul
# ---------------------------------------------------------------------------

@_diffop
def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad)

    def bwd(g):
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, a.data.shape))
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    _record(out, bwd)
    return out


@_diffop
def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        n = a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def scale(a, s: float) -> Tensor:
    return mul(a, float(s))


@_diffop
def max_reduce(a, axis: int) -> Tensor:
    """Maximum along one axis; gradient routes to the first (lowest-index) argmax."""
    a = as_tensor(a)
    if a.data.shape[axis] == 0:
        raise ValueError(f"max_reduce over empty axis {axis} of shape {a.data.shape}")
    idx = np.argmax(a.data, axis=axis)
    out = Tensor(np.max(a.data, axis=axis), a.requires_grad)

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        a.accumulate_grad(full)

    _record(out, bwd)
    return out


@_diffop
def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects rank-2 operands, got {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

@_diffop
def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), a.requires_grad)

    def bwd(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    _record(out, bwd)
    return out


@_diffop
def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes), a.requires_grad)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        a.accumulate_grad(g.transpose(inv))

    _record(out, bwd)
    return out


@_diffop
def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis),
                 any(p.requires_grad for p in parts))
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        start = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, start + n)
                p.accumulate_grad(g[tuple(sl)])
            start += n

    _record(out, bwd)
    return out


@_diffop
def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = as_tensor(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(a.data[sl], a.requires_grad)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        a.accumulate_grad(full)

    _record(out, bwd)
    return out


@_diffop
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


@_diffop
def pad2d(a, pad: int) -> Tensor:
    """Zero-pad the last two axes by `pad` on every side."""
    a = as_tensor(a)
    if pad == 0:
        return a
    width = [(0, 0)] * (a.data.ndim - 2) + [(pad, pad), (pad, pad)]
    out = Tensor(np.pad(a.data, width), a.requires_grad)

    def bwd(g):
        sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
        a.accumulate_grad(g[sl])

    _record(out, bwd)
    return out


@_diffop
def take_rows(a, idx: np.ndarray) -> Tensor:
    """Gather rows of a rank-2 tensor. Duplicate indices accumulate on backward."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError(f"take_rows expects a rank-2 tensor, got {a.data.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx], a.requires_grad)

    def bwd(g):
        n, c = a.data.shape
        keys = (idx % n)[..., None] * c + np.arange(c)
        a.accumulate_grad(_scatter_add(keys, g, n * c).reshape(n, c))

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# neural-network kernels
# ---------------------------------------------------------------------------

@_diffop
def softmax(a, axis: int) -> Tensor:
    a = as_tensor(a)
    x = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(x)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, a.requires_grad)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        a.accumulate_grad(y * (g - dot))

    _record(out, bwd)
    return out


def _patches(xp: np.ndarray, k: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    """The (C*k*k) x (h_out*w_out) im2col matrix of a C-contiguous C x H x W array.

    One strided view indexes every window tap in (c, ki, kj, i, j) order;
    ``reshape`` copies it once into a C-contiguous matrix.
    """
    c, s1, s2 = xp.shape[0], xp.strides[1], xp.strides[2]
    win = np.ndarray((c, k, k, h_out, w_out), xp.dtype, xp, 0,
                     (xp.strides[0], s1, s2, s1 * stride, s2 * stride))
    return win.reshape(c * k * k, h_out * w_out)


def _zero_pad(a: np.ndarray, pad: int) -> np.ndarray:
    """A C-contiguous copy of C x H x W `a` with `pad` zeros around the last two axes."""
    c, h, w = a.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad))
    out[:, pad:pad + h, pad:pad + w] = a
    return out


@_diffop
def conv2d(x, kernel, stride: int = 1, pad: int = 0) -> Tensor:
    """2D cross-correlation of a C_in x H x W input with C_out x C_in x k x k weights.

    The patch matrix is built from one strided view of the zero-padded
    input (a plain reshape for a 1x1 kernel at stride 1) and multiplied by
    the kernel matrix in one BLAS call.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ValueError(f"conv2d expects CxHxW input and OxIxkxk kernel, got "
                         f"{x.data.shape} and {kernel.data.shape}")
    c_in, h, w = x.data.shape
    c_out, kc_in, k, k2 = kernel.data.shape
    if k != k2 or k % 2 == 0:
        raise ValueError(f"conv2d kernel must be square with odd size, got {kernel.data.shape}")
    if kc_in != c_in:
        raise ValueError(f"conv2d channel mismatch: input has shape {x.data.shape} "
                         f"(C_in={c_in}) but kernel has shape {kernel.data.shape} (C_in={kc_in})")
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ValueError(f"conv2d spatial extent too small: input {h}x{w}, pad {pad}, kernel {k}")
    if stride < 1:
        raise ValueError(f"conv2d stride must be positive, got {stride}")

    xp = _zero_pad(x.data, pad) if pad else np.ascontiguousarray(x.data)
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if k == 1 and stride == 1:
        cols = xp.reshape(c_in, h_out * w_out)
    else:
        cols = _patches(xp, k, stride, h_out, w_out)
    wmat = kernel.data.reshape(c_out, c_in * k * k)
    out = Tensor((wmat @ cols).reshape(c_out, h_out, w_out),
                 x.requires_grad or kernel.requires_grad)

    def bwd(g):
        gm = g.reshape(c_out, h_out * w_out)
        if kernel.requires_grad:
            kernel.accumulate_grad((gm @ cols.T).reshape(kernel.data.shape))
        if x.requires_grad:
            if stride == 1:
                # dx = correlation of g with the in/out-swapped, 180-rotated kernel
                gcols = _patches(_zero_pad(g, k - 1), k, 1, h + 2 * pad, w + 2 * pad)
                wrot = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                dxp = (wrot.reshape(c_in, c_out * k * k) @ gcols).reshape(xp.shape)
            else:
                dcols = (wmat.T @ gm).reshape(c_in, k, k, h_out, w_out)
                dxp = np.zeros_like(xp)
                for ki in range(k):
                    for kj in range(k):
                        dxp[:, ki:ki + stride * h_out:stride,
                            kj:kj + stride * w_out:stride] += dcols[:, ki, kj]
            x.accumulate_grad(dxp[:, pad:pad + h, pad:pad + w] if pad else dxp)

    _record(out, bwd)
    return out


@_diffop
def bilinear_sample(x, coords) -> Tensor:
    """Sample a C x H x W grid at fractional (row, col) positions.

    coords is 2 x H' x W'; positions outside [0,H-1] x [0,W-1] read zero,
    and a NaN position reads NaN. The four corners of every position
    come from one gather and are masked in one multiply. Differentiable in
    the grid values and in the coordinates.
    """
    x, coords = as_tensor(x), as_tensor(coords)
    if x.data.ndim != 3:
        raise ValueError(f"bilinear_sample expects CxHxW input, got {x.data.shape}")
    if coords.data.ndim != 3 or coords.data.shape[0] != 2:
        raise ValueError(f"bilinear_sample coords must be 2xHxW, got {coords.data.shape}")
    c, h, w = x.data.shape
    out_shape = coords.data.shape[1:]
    with np.errstate(invalid="ignore"):         # NaN casts to an arbitrary index
        lo = np.floor(coords.data).astype(np.intp)                    # (row, col) x H' x W'
    frac = coords.data - lo
    wr, wc = frac
    # per axis, [lower, upper] x [row, col] x H' x W': the corner index, and
    # the weight 1 - frac or frac
    idx = np.stack([lo, lo + 1])
    size = np.array([h, w])[:, None, None]
    inside = (idx >= 0) & (idx < size)
    np.minimum(np.maximum(idx, 0, out=idx), size - 1, out=idx)
    axis_w = np.stack([1 - frac, frac])
    # the four corners (r0,c0), (r0,c1), (r1,c0), (r1,c1) of every position
    flat = (idx[:, None, 0] * w + idx[None, :, 1]).reshape(-1)
    weights = (axis_w[:, None, 0] * axis_w[None, :, 1]).reshape(4, *out_shape)
    # 1.0 or 0.0: multiplying by them is multiplying by the booleans
    masks = (inside[:, None, 0] & inside[None, :, 1]).reshape(4, *out_shape).astype(float)
    corners = np.take(x.data.reshape(c, h * w), flat, axis=1).reshape(c, 4, *out_shape)
    corners *= masks
    v00, v01, v10, v11 = (corners[:, i] for i in range(4))
    y = (v00 * weights[0] + v01 * weights[1]
         + v10 * weights[2] + v11 * weights[3])
    out = Tensor(y, x.requires_grad or coords.requires_grad)

    def bwd(g):
        if x.requires_grad:
            # per channel, the four corners one after another
            keys = np.arange(c)[:, None] * (h * w) + flat
            contrib = (g[:, None] * (weights * masks)).reshape(c, -1)
            x.accumulate_grad(_scatter_add(keys, contrib, c * h * w).reshape(c, h, w))
        if coords.requires_grad:
            dy_dwr = -(1 - wc) * v00 - wc * v01 + (1 - wc) * v10 + wc * v11
            dy_dwc = -(1 - wr) * v00 + (1 - wr) * v01 - wr * v10 + wr * v11
            gr = (g * dy_dwr).sum(axis=0)
            gc = (g * dy_dwc).sum(axis=0)
            coords.accumulate_grad(np.stack([gr, gc]))

    _record(out, bwd)
    return out


@_diffop
def global_pool(x, axis: int, mode: str) -> Tensor:
    """Reduce one axis by max or arithmetic mean, removing it."""
    x = as_tensor(x)
    if x.data.shape[axis] == 0:
        raise ValueError(f"global_pool over empty axis {axis} of shape {x.data.shape}")
    if mode == "max":
        return max_reduce(x, axis)
    if mode == "avg":
        return tmean(x, axis=axis)
    raise ValueError(f"global_pool mode must be 'max' or 'avg', got {mode!r}")


@_diffop
def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy in the numerically stable logit form."""
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.float64)
    z = logits.data
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(loss.mean(), logits.requires_grad)

    def bwd(g):
        logits.accumulate_grad(g * (_sigmoid(z) - t) / z.size)

    _record(out, bwd)
    return out


def _scan_in_place(a: np.ndarray, h: np.ndarray, reverse: bool = False,
                   carry: np.ndarray | None = None) -> np.ndarray:
    """Turn h into h_t = a_t * h_{t-1} + h_t along axis 0, one step at a time.

    With reverse=True it runs the adjoint h_t = a_{t+1} * h_{t+1} + h_t from
    the end instead. A forward `carry` is the state before h_0, so a long
    sequence can be scanned block after block. The strict sequential order
    fixes the rounding.
    """
    tmp = np.empty_like(h[0])
    av, hv = list(a), list(h)          # per-step views, made once
    if reverse:
        prev, steps = hv[-1], zip(av[:0:-1], hv[-2::-1])
    elif carry is not None:
        prev, steps = carry, zip(av, hv)
    else:
        prev, steps = hv[0], zip(av[1:], hv[1:])
    for at, ht in steps:
        np.multiply(at, prev, tmp)
        np.add(ht, tmp, ht)
        prev = ht
    return h


@_diffop
def linear_recurrence(a, b) -> Tensor:
    """Diagonal linear scan h_t = a_t * h_{t-1} + b_t over the leading axis, h_0 = 0."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"linear_recurrence shape mismatch: {a.data.shape} vs {b.data.shape}")
    if a.data.shape[0] == 0:
        raise ValueError("linear_recurrence needs a nonempty sequence")
    ad = a.data
    h = _scan_in_place(ad, b.data.copy())
    out = Tensor(h, a.requires_grad or b.requires_grad)

    def bwd(g):
        gh = _scan_in_place(ad, g.copy(), reverse=True)
        if b.requires_grad:
            b.accumulate_grad(gh)
        if a.requires_grad:
            da = np.zeros_like(ad)
            np.multiply(gh[1:], h[:-1], out=da[1:])
            a.accumulate_grad(da)

    _record(out, bwd)
    return out


SCAN_PARAMS = ("w_step", "b_step", "w_in", "b_in", "w_out", "b_out", "skip", "log_decay")


_SCAN_BLOCK = 64     # time steps per block of the selective_scan forward


@_diffop
def selective_scan(xs, params) -> Tensor:
    """P input-conditioned diagonal linear recurrences in one op; returns P x L x C.

    xs holds P token sequences of shape L x C, and params[p] holds path p's
    tensors in ``SCAN_PARAMS`` order: w_step C x C, b_step 1 x C, w_in and
    w_out C x N, b_in and b_out 1 x N, skip 1 x C, log_decay N. Per token:
    step = softplus(x w_step + b_step), gate_in = x w_in + b_in, gate_out =
    x w_out + b_out and decay = -exp(log_decay); the C x N state follows
    h_t = exp(step * decay) * h_{t-1} + (step * x_t) * gate_in, h_0 = 0, and
    y_t = sum_n gate_out * h_t + skip * x_t.

    The forward builds, scans and reads out the state _SCAN_BLOCK time steps
    at a time, carrying the last state across blocks. Only when a tape
    records the op are the whole L x P x C x N exponent and state arrays
    kept, for the backward; otherwise each block reuses scratch arrays.
    """
    xs = [as_tensor(x) for x in xs]
    params = [[as_tensor(t) for t in ps] for ps in params]
    if not xs or len(xs) != len(params) or any(len(ps) != len(SCAN_PARAMS) for ps in params):
        raise ValueError(f"selective_scan needs one {len(SCAN_PARAMS)}-tuple of parameters "
                         f"per sequence, got {len(xs)} sequences and {len(params)} tuples")
    length, c = xs[0].data.shape if xs[0].data.ndim == 2 else (0, 0)
    if length == 0 or any(t.data.shape != (length, c) for t in xs):
        raise ValueError(f"selective scan needs nonempty LxC sequences of one shape, "
                         f"got {[t.data.shape for t in xs]}")
    x = np.stack([t.data for t in xs])                                    # P x L x C
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = (
        np.stack([ps[k].data for ps in params]) for k in range(len(SCAN_PARAMS)))
    n_paths, n = len(xs), log_decay.shape[1]
    z = np.matmul(x, w_step) + b_step
    step = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)              # softplus
    gate_in = np.matmul(x, w_in) + b_in                                   # P x L x N
    gate_out = np.matmul(x, w_out) + b_out
    decay = -np.exp(log_decay)                                            # P x N
    u = step * x
    requires_grad = any(t.requires_grad for t in (*xs, *(t for ps in params for t in ps)))
    # the state arrays are time-major, L x P x C x N, so each step is one
    # contiguous slab
    tm = (1, 0, 2)
    step_t, u_t = step.transpose(tm), u.transpose(tm)
    gate_in_t, gate_out_t = gate_in.transpose(tm), gate_out.transpose(tm)
    taped = requires_grad and active_tape() is not None
    block = min(length, _SCAN_BLOCK)
    a = np.empty((length if taped else block, n_paths, c, n))
    h = np.empty_like(a)
    prod = np.empty((block, n_paths, c, n))
    readout = np.empty((length, n_paths, c))
    carry = None
    for t0 in range(0, length, _SCAN_BLOCK):
        t1 = min(t0 + _SCAN_BLOCK, length)
        blk = slice(t0, t1) if taped else slice(0, t1 - t0)
        ab, hb = a[blk], h[blk]
        np.multiply(step_t[t0:t1, :, :, None], decay[:, None, :], out=ab)
        np.exp(ab, out=ab)
        np.multiply(u_t[t0:t1, :, :, None], gate_in_t[t0:t1, :, None, :], out=hb)
        _scan_in_place(ab, hb, carry=carry)
        np.multiply(hb, gate_out_t[t0:t1, :, None, :], out=prod[:t1 - t0])
        prod[:t1 - t0].sum(axis=3, out=readout[t0:t1])
        carry = hb[-1] if taped else hb[-1].copy()
    y = readout.transpose(tm) + skip * x
    out = Tensor(y, requires_grad)

    def bwd(g):
        gt = g.transpose(tm)                                              # L x P x C
        g_out = np.matmul(gt[:, :, None, :], h)[:, :, 0, :].transpose(tm)
        gh = np.multiply(gt[..., None], gate_out_t[:, :, None, :])
        _scan_in_place(a, gh, reverse=True)
        g_in = np.matmul(u_t[:, :, None, :], gh)[:, :, 0, :].transpose(tm)
        g_u = np.matmul(gh, gate_in_t[..., None])[..., 0].transpose(tm)
        # gh becomes the gradient of the exponent step * decay
        gh[0] = 0.0
        np.multiply(gh[1:], h[:-1], out=gh[1:])
        gh[1:] *= a[1:]
        g_decay = np.einsum("lpcn,lpc->pn", gh, step_t)
        g_step = g_u * x + np.matmul(gh, decay[:, :, None])[..., 0].transpose(tm)
        g_z = g_step * _sigmoid(z)
        gx = g * skip + g_u * step
        grads = {"skip": (g * x).sum(axis=1, keepdims=True), "log_decay": g_decay * decay}
        for name, w, gw in (("step", w_step, g_z), ("in", w_in, g_in), ("out", w_out, g_out)):
            gx += np.matmul(gw, w.transpose(0, 2, 1))
            grads[f"w_{name}"] = np.matmul(x.transpose(0, 2, 1), gw)
            grads[f"b_{name}"] = gw.sum(axis=1, keepdims=True)
        for p, t in enumerate(xs):
            if t.requires_grad:
                t.accumulate_grad(gx[p])
        for k, name in enumerate(SCAN_PARAMS):
            for p, ps in enumerate(params):
                if ps[k].requires_grad:
                    ps[k].accumulate_grad(grads[name][p])

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# operator sugar on Tensor
# ---------------------------------------------------------------------------

Tensor.__add__ = lambda self, o: add(self, o)
Tensor.__radd__ = lambda self, o: add(o, self)
Tensor.__sub__ = lambda self, o: sub(self, o)
Tensor.__rsub__ = lambda self, o: sub(o, self)
Tensor.__mul__ = lambda self, o: mul(self, o)
Tensor.__rmul__ = lambda self, o: mul(o, self)
Tensor.__truediv__ = lambda self, o: div(self, o)
Tensor.__rtruediv__ = lambda self, o: div(o, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__matmul__ = lambda self, o: matmul(self, o)
Tensor.reshape = lambda self, shape: reshape(self, shape)
Tensor.sum = lambda self, axis=None, keepdims=False: tsum(self, axis, keepdims)
Tensor.mean = lambda self, axis=None, keepdims=False: tmean(self, axis, keepdims)
