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


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

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
    """Maximum along one axis; gradient routes to the first (lowest-index) argmax.

    The argmax is found in the backward, from the unchanged input, so a
    forward nothing differentiates does not pay for it.
    """
    a = as_tensor(a)
    if a.data.shape[axis] == 0:
        raise ValueError(f"max_reduce over empty axis {axis} of shape {a.data.shape}")
    out = Tensor(np.max(a.data, axis=axis), a.requires_grad)

    def bwd(g):
        idx = np.argmax(a.data, axis=axis)
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        a.accumulate_grad(full)

    _record(out, bwd)
    return out


@_diffop
def matmul(a, b, bias=None) -> Tensor:
    """a @ b for rank-2 operands, plus an optional 1 x N row bias in the same record."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects rank-2 operands, got {a.data.shape} @ {b.data.shape}")
    y = a.data @ b.data
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (1, y.shape[1]):
            raise ValueError(f"matmul bias must have shape {(1, y.shape[1])}, got "
                             f"{bias.data.shape}")
        y += bias.data
    out = Tensor(y, a.requires_grad or b.requires_grad
                 or (bias is not None and bias.requires_grad))

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
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


def _butterfly(p, q, r, s):
    """The 4-point Haar map [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
    [1, -1, -1, 1]] / 2, each output summed left to right: ((p + q) + r) + s."""
    u, v = p + q, p - q
    return (u + r + s) * 0.5, (v + r - s) * 0.5, (u - r - s) * 0.5, (v - r + s) * 0.5


def _butterfly_reversed(p, q, r, s):
    """The same map summed right to left, the order in which the Haar transform
    composed from elementwise tape ops accumulates its gradients."""
    u, v = s + r, r - s
    return (u + q + p) * 0.5, (v - q + p) * 0.5, (q - u + p) * 0.5, (s - r - q + p) * 0.5


def _haar_analysis(x: np.ndarray, combine=_butterfly) -> np.ndarray:
    """C x H x W -> 4C x H/2 x W/2: each 2x2 block [[a, b], [c, d]] to LL, LH, HL, HH."""
    return np.concatenate(combine(x[:, 0::2, 0::2], x[:, 0::2, 1::2],
                                  x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def _haar_synthesis(y: np.ndarray, combine=_butterfly) -> np.ndarray:
    """4C x h x w -> C x 2h x 2w: the LL, LH, HL, HH channel blocks to a, b, c, d."""
    c4, h, w = y.shape
    x = np.empty((c4 // 4, 2 * h, 2 * w))
    x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2] = \
        combine(*np.split(y, 4))
    return x


@_diffop
def haar2d(x) -> Tensor:
    """Single-level orthonormal 2D Haar analysis, C x H x W -> 4C x H/2 x W/2, with
    the LL, LH, HL and HH subbands of all C channels stacked in that order.

    The map is symmetric and orthonormal, so the backward is the synthesis;
    it adds the terms in reverse order, so the gradients are bitwise those
    of the transform composed from elementwise ops.
    """
    x = as_tensor(x)
    if x.data.ndim != 3 or x.data.shape[1] % 2 or x.data.shape[2] % 2:
        raise ValueError(f"haar2d needs a C x H x W input with even H and W, got {x.data.shape}")
    out = Tensor(_haar_analysis(x.data), x.requires_grad)

    def bwd(g):
        x.accumulate_grad(_haar_synthesis(g, _butterfly_reversed))

    _record(out, bwd)
    return out


@_diffop
def ihaar2d(y) -> Tensor:
    """Haar synthesis, the exact inverse of ``haar2d``: 4C x h x w -> C x 2h x 2w."""
    y = as_tensor(y)
    if y.data.ndim != 3 or y.data.shape[0] % 4:
        raise ValueError(f"ihaar2d needs a 4C x h x w input, got {y.data.shape}")
    out = Tensor(_haar_synthesis(y.data), y.requires_grad)

    def bwd(g):
        y.accumulate_grad(_haar_analysis(g, _butterfly_reversed))

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


def _patches(xp: np.ndarray, k: int, h_out: int, w_out: int) -> np.ndarray:
    """The (C*k*k) x (h_out*w_out) im2col matrix of a C-contiguous C x H x W array.

    One strided view indexes every window tap in (c, ki, kj, i, j) order;
    ``reshape`` copies it once into a C-contiguous matrix.
    """
    c, s1, s2 = xp.shape[0], xp.strides[1], xp.strides[2]
    win = np.ndarray((c, k, k, h_out, w_out), xp.dtype, xp, 0, (xp.strides[0], s1, s2, s1, s2))
    return win.reshape(c * k * k, h_out * w_out)


def _tap_windows(z: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """The k x k x C_out x h_out x w_out view z[ki, kj, :, ki:ki+h_out, kj:kj+w_out]
    of a C-contiguous k x k x C_out x Hp x Wp array.

    Summed over its first two axes, it is the convolution whose per-tap
    products z holds; distinct taps never share an element.
    """
    s = z.strides
    return np.ndarray((*z.shape[:3], h_out, w_out), z.dtype, z, 0,
                      (s[0] + s[3], s[1] + s[4], s[2], s[3], s[4]))


def _zero_pad(a: np.ndarray, pad: int) -> np.ndarray:
    """A C-contiguous copy of C x H x W `a` with `pad` zeros around the last two axes."""
    c, h, w = a.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad))
    out[:, pad:pad + h, pad:pad + w] = a
    return out


@_diffop
def conv2d(x, kernel, bias, pad: int = 0) -> Tensor:
    """2D cross-correlation of a C_in x H x W input with C_out x C_in x k x k
    weights, plus a C_out x 1 x 1 bias added to the product in the same record.

    Two contractions, chosen from the shapes alone. By default (im2col) the
    (C_in*k*k) x (H_out*W_out) patch matrix is built from one strided view
    of the zero-padded input (a plain reshape for a 1x1 kernel) and
    multiplied by the kernel matrix in one BLAS call. With k > 1, when
    C_out*Hp*Wp < C_in*H_out*W_out for the Hp x Wp padded input (the
    per-tap product matrix is smaller than the patch matrix, as in a
    channel-reducing conv), it accumulates kernel to rows instead: one BLAS
    call multiplies the (k*k*C_out) x C_in tap matrix by the padded input,
    and the output sums the k*k shifted windows of that product. Only the
    tap form rounds differently from im2col, by about 1e-15 relative; every
    other shape gives the im2col values bit for bit.
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
    bias = as_tensor(bias)
    if bias.data.shape != (c_out, 1, 1):
        raise ValueError(f"conv2d bias must have shape {(c_out, 1, 1)}, got {bias.data.shape}")

    xp = _zero_pad(x.data, pad) if pad else np.ascontiguousarray(x.data)
    hp, wp = xp.shape[1:]
    h_out, w_out = hp - k + 1, wp - k + 1
    if k > 1 and c_out * hp * wp < c_in * h_out * w_out:
        return _conv2d_taps(x, kernel, bias, xp, pad)
    cols = xp.reshape(c_in, hp * wp) if k == 1 else _patches(xp, k, h_out, w_out)
    y = (kernel.data.reshape(c_out, c_in * k * k) @ cols).reshape(c_out, h_out, w_out)
    y += bias.data
    out = Tensor(y, x.requires_grad or kernel.requires_grad or bias.requires_grad)

    def bwd(g):
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
        if kernel.requires_grad:
            gm = g.reshape(c_out, h_out * w_out)
            kernel.accumulate_grad((gm @ cols.T).reshape(kernel.data.shape))
        if x.requires_grad:
            # dx = correlation of g with the in/out-swapped, 180-rotated kernel
            gcols = _patches(_zero_pad(g, k - 1), k, hp, wp)
            wrot = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            dxp = (wrot.reshape(c_in, c_out * k * k) @ gcols).reshape(c_in, hp, wp)
            x.accumulate_grad(dxp[:, pad:pad + h, pad:pad + w] if pad else dxp)

    _record(out, bwd)
    return out


def _conv2d_taps(x: Tensor, kernel: Tensor, bias: Tensor, xp: np.ndarray, pad: int) -> Tensor:
    """conv2d by kernel-to-row accumulation on the padded input xp.

    Z = W_taps @ Xpad holds every tap's product with the whole padded
    input; the output sums the k*k shifted windows of Z. The backward
    writes g into the same windows of a zero gZ, so that dW = gZ @ Xpad^T
    and dXpad = W_taps^T @ gZ. No patch matrix is built or kept.
    """
    c_in, h, w = x.data.shape
    c_out, _, k, _ = kernel.data.shape
    hp, wp = xp.shape[1:]
    h_out, w_out = hp - k + 1, wp - k + 1
    rows = xp.reshape(c_in, hp * wp)
    wtaps = kernel.data.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)
    z = (wtaps @ rows).reshape(k, k, c_out, hp, wp)
    y = _tap_windows(z, h_out, w_out).sum(axis=(0, 1))
    y += bias.data
    out = Tensor(y, x.requires_grad or kernel.requires_grad or bias.requires_grad)

    def bwd(g):
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
        gz = np.zeros((k, k, c_out, hp, wp))
        _tap_windows(gz, h_out, w_out)[...] = g
        gz = gz.reshape(k * k * c_out, hp * wp)
        if kernel.requires_grad:
            dw = (gz @ rows.T).reshape(k, k, c_out, c_in)
            kernel.accumulate_grad(dw.transpose(2, 3, 0, 1))
        if x.requires_grad:
            dxp = (wtaps.T @ gz).reshape(xp.shape)
            x.accumulate_grad(dxp[:, pad:pad + h, pad:pad + w] if pad else dxp)

    _record(out, bwd)
    return out


@_diffop
def bilinear_sample(x, coords) -> Tensor:
    """Sample a C x H x W grid at fractional (row, col) positions.

    coords is 2 x H' x W'; positions outside [0,H-1] x [0,W-1] read zero,
    and a NaN or infinite position reads NaN. The four corners of every
    position come from one gather and are masked in one multiply.
    Differentiable in the grid values and in the coordinates.
    """
    x, coords = as_tensor(x), as_tensor(coords)
    if x.data.ndim != 3:
        raise ValueError(f"bilinear_sample expects CxHxW input, got {x.data.shape}")
    if coords.data.ndim != 3 or coords.data.shape[0] != 2:
        raise ValueError(f"bilinear_sample coords must be 2xHxW, got {coords.data.shape}")
    c, h, w = x.data.shape
    out_shape = coords.data.shape[1:]
    # a NaN position casts to an arbitrary index, and an infinite one meets a
    # zero weight or mask as 0 * inf: either reads NaN, so the "invalid"
    # warnings say nothing
    with np.errstate(invalid="ignore"):
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

    @np.errstate(invalid="ignore")
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


_SCAN_BLOCK = 64     # time steps per block of the selective_scan forward and backward


@_diffop
def selective_scan(x, params) -> Tensor:
    """P input-conditioned diagonal linear recurrences in one op; returns P x L x C.

    x holds P token sequences of shape L x C, and params the scan tensors in
    ``SCAN_PARAMS`` order, each with a leading path axis P: w_step P x C x C,
    b_step P x 1 x C, w_in and w_out P x C x N, b_in and b_out P x 1 x N,
    skip P x 1 x C, log_decay P x N. Per path and token:
    step = softplus(x w_step + b_step), gate_in = x w_in + b_in, gate_out =
    x w_out + b_out and decay = -exp(log_decay); the C x N state follows
    h_t = exp(step * decay) * h_{t-1} + (step * x_t) * gate_in, h_0 = 0, and
    y_t = sum_n gate_out * h_t + skip * x_t.

    The forward builds, scans and reads out the state _SCAN_BLOCK time steps
    at a time on block-sized scratch arrays, carrying the last state across
    blocks, and keeps only the P x C x N state entering each block. Each
    block's read-out, the sum over N, is one batched matmul of its states with
    the time-major gate_out column. The backward walks the blocks in reverse:
    it rebuilds a block's exponent and states from that state with the
    forward's own expressions, runs the adjoint scan seeded from the block
    after it, and reduces the block into L-sized gradients with batched
    matmuls on contiguous operands. No L x P x C x N array is made, with or
    without a tape.
    """
    xt, params = as_tensor(x), [as_tensor(t) for t in params]
    n_paths, length, c = xt.data.shape if xt.data.ndim == 3 else (0, 0, 0)
    n = params[-1].data.shape[-1] if params and params[-1].data.ndim else 0
    shapes = [(n_paths, c, c), (n_paths, 1, c), (n_paths, c, n), (n_paths, 1, n),
              (n_paths, c, n), (n_paths, 1, n), (n_paths, 1, c), (n_paths, n)]
    if length == 0 or [t.data.shape for t in params] != shapes:
        raise ValueError(f"selective_scan needs a nonempty P x L x C sequence and the "
                         f"{len(SCAN_PARAMS)} tensors {SCAN_PARAMS} shaped {shapes}, got "
                         f"{xt.data.shape} and {[t.data.shape for t in params]}")
    x = xt.data
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = (t.data for t in params)
    z = np.matmul(x, w_step) + b_step
    step = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)              # softplus
    gate_in = np.matmul(x, w_in) + b_in                                   # P x L x N
    gate_out = np.matmul(x, w_out) + b_out
    decay = -np.exp(log_decay)                                            # P x N
    u = step * x
    requires_grad = xt.requires_grad or any(t.requires_grad for t in params)
    # the state arrays are time-major, block x P x C x N, so each step is one
    # contiguous slab
    tm = (1, 0, 2)
    step_t, u_t = step.transpose(tm), u.transpose(tm)
    gate_in_t, gate_out_t = gate_in.transpose(tm), gate_out.transpose(tm)
    blocks = [(t0, min(t0 + _SCAN_BLOCK, length)) for t0 in range(0, length, _SCAN_BLOCK)]
    block_shape = (min(length, _SCAN_BLOCK), n_paths, c, n)

    def states(t0, t1, carry, a, h):
        """Block t0:t1's factors exp(step * decay) and states, in the leading
        rows of the scratch arrays a and h, from the state before t0."""
        a, h = a[:t1 - t0], h[:t1 - t0]
        np.multiply(step_t[t0:t1, :, :, None], decay[:, None, :], out=a)
        np.exp(a, out=a)
        np.multiply(u_t[t0:t1, :, :, None], gate_in_t[t0:t1, :, None, :], out=h)
        return a, _scan_in_place(a, h, carry=carry)

    # read-out column: L x P x N x 1, so each block's sum over N is one batched matmul
    gate_out_c = np.ascontiguousarray(gate_out_t)[..., None]
    a, h = np.empty(block_shape), np.empty(block_shape)
    readout = np.empty((length, n_paths, c))
    carries = [None]                      # the state entering each block; none before the first
    for t0, t1 in blocks:
        _, hb = states(t0, t1, carries[-1], a, h)
        np.matmul(hb, gate_out_c[t0:t1], out=readout[t0:t1, :, :, None])
        carries.append(hb[-1].copy())
    y = readout.transpose(tm) + skip * x
    out = Tensor(y, requires_grad)

    def bwd(g):
        gt = g.transpose(tm)                                              # L x P x C
        g_out, g_in = np.empty((length, n_paths, n)), np.empty((length, n_paths, n))
        g_u, g_exp = np.empty((length, n_paths, c)), np.empty((length, n_paths, c))
        g_decay = np.zeros((n_paths, 1, n))
        a, h, gh = np.empty(block_shape), np.empty(block_shape), np.empty(block_shape)
        # contiguous operands keep the g_exp and g_decay contractions on BLAS:
        # decay as a block x P x N x 1 column, step time-major as L x P x 1 x C rows
        decay_c = np.broadcast_to(decay[:, :, None], block_shape[:2] + (n, 1)).copy()
        step_r = np.ascontiguousarray(step_t)[:, :, None, :]
        seed = None                       # a_t1 * gh_t1 of the block after this one
        for (t0, t1), carry in zip(reversed(blocks), reversed(carries[:-1])):
            ab, hb = states(t0, t1, carry, a, h)
            g_out[t0:t1] = np.matmul(gt[t0:t1, :, None, :], hb)[:, :, 0, :]
            ghb = np.multiply(gt[t0:t1, :, :, None], gate_out_t[t0:t1, :, None, :],
                              out=gh[:t1 - t0])
            if seed is not None:
                np.add(ghb[-1], seed, out=ghb[-1])
            _scan_in_place(ab, ghb, reverse=True)
            seed = ab[0] * ghb[0]
            g_in[t0:t1] = np.matmul(u_t[t0:t1, :, None, :], ghb)[:, :, 0, :]
            g_u[t0:t1] = np.matmul(ghb, gate_in_t[t0:t1, :, :, None])[..., 0]
            # ghb becomes the gradient of the exponent step * decay
            ghb[0] = 0.0 if carry is None else ghb[0] * carry * ab[0]
            np.multiply(ghb[1:], hb[:-1], out=ghb[1:])
            ghb[1:] *= ab[1:]
            np.matmul(ghb, decay_c[:t1 - t0], out=g_exp[t0:t1, :, :, None])
            g_decay += np.matmul(step_r[t0:t1], ghb).sum(axis=0)
        g_out, g_in, g_u = (v.transpose(tm) for v in (g_out, g_in, g_u))
        g_step = g_u * x + g_exp.transpose(tm)
        g_z = g_step * _sigmoid(z)
        gx = g * skip + g_u * step
        grads = {"skip": (g * x).sum(axis=1, keepdims=True), "log_decay": g_decay[:, 0] * decay}
        for name, w, gw in (("step", w_step, g_z), ("in", w_in, g_in), ("out", w_out, g_out)):
            gx += np.matmul(gw, w.transpose(0, 2, 1))
            grads[f"w_{name}"] = np.matmul(x.transpose(0, 2, 1), gw)
            grads[f"b_{name}"] = gw.sum(axis=1, keepdims=True)
        if xt.requires_grad:
            xt.accumulate_grad(gx)
        for name, t in zip(SCAN_PARAMS, params):
            if t.requires_grad:
                t.accumulate_grad(grads[name])

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
Tensor.__matmul__ = lambda self, o: matmul(self, o)
Tensor.reshape = lambda self, shape: reshape(self, shape)
Tensor.sum = lambda self, axis=None, keepdims=False: tsum(self, axis, keepdims)
Tensor.mean = lambda self, axis=None, keepdims=False: tmean(self, axis, keepdims)
