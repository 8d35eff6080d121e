"""Differentiable operations on Tensor.

An op is one function under the ``_op`` decorator, which names the
function's tensor arguments in the order their gradients accumulate. The
function takes those arguments as numpy arrays, validates its arguments,
computes the forward value and returns ``(value, vjp)``. ``vjp(g, needs)``
maps the output gradient g to one gradient per tensor input, in the
declared order, with None wherever ``needs`` says that input takes none.
The decorator is the one place that touches the tape: it wraps the inputs
as Tensors, makes the output Tensor (requiring grad if any input does) and,
under an active Tape, records the single entry: the output's gradient slot
and a backward that accumulates vjp's gradients into the input slots. The
entry holds no tensor, so vjp keeps an array alive only by reading it: a
rule that needs an input's shape keeps the shape. With no active tape an op
is a plain numpy forward pass.

``DIFFERENTIABLE_OPS`` lists every op defined here; an op without a
finite-difference case of its own name in ``tests/grad_cases.py`` fails
the gradient suite.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, active_tape, as_tensor

DIFFERENTIABLE_OPS: list[str] = []


def _op(*inputs: str):
    """Make the decorated function a tape op; ``inputs`` names its tensor
    arguments in accumulation order.

    Tensor arguments are passed by position. A name written ``*name`` is a
    sequence of tensors, each one input, which the function gets as a list
    (a lone tensor there is a sequence of one); a tensor argument left to a
    None default is absent and takes no gradient. Ops defined outside this module
    (the tests' composed references) go through the same seam unlisted.
    """
    def decorate(fn):
        params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
        slots = [(params.index(name.lstrip("*")), name[0] == "*") for name in inputs]

        @functools.wraps(fn)
        def op(*args, **kwargs):
            args, ts, requires_grad = list(args), [], False
            for i, seq in slots:
                if i >= len(args) or args[i] is None:
                    ts.append(None)
                elif seq:
                    seq_arg = args[i] if isinstance(args[i], (list, tuple)) else [args[i]]
                    group = [as_tensor(t) for t in seq_arg]
                    args[i] = [t.data for t in group]
                    ts += group
                    requires_grad = requires_grad or any(t.requires_grad for t in group)
                else:
                    t = args[i] if isinstance(args[i], Tensor) else Tensor(args[i])
                    args[i] = t.data
                    ts.append(t)
                    requires_grad = requires_grad or t.requires_grad
            value, vjp = fn(*args, **kwargs)
            out = Tensor(value, requires_grad)
            tape = active_tape()
            if tape is not None and requires_grad:
                in_slots = [None if t is None else t.slot for t in ts]
                needs = [s is not None for s in in_slots]

                def backward(g):
                    for s, gs in zip(in_slots, vjp(g, needs)):
                        if gs is not None:
                            s.accumulate_grad(gs)
                tape.record(out.slot, backward)
            return out

        if fn.__module__ == __name__:
            DIFFERENTIABLE_OPS.append(fn.__name__)
        return op
    return decorate


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

@_op("a", "b")
def add(a, b):
    sa, sb = a.shape, b.shape
    return a + b, lambda g, needs: (_unbroadcast(g, sa) if needs[0] else None,
                                    _unbroadcast(g, sb) if needs[1] else None)


@_op("a", "b")
def sub(a, b):
    sa, sb = a.shape, b.shape
    return a - b, lambda g, needs: (_unbroadcast(g, sa) if needs[0] else None,
                                    _unbroadcast(-g, sb) if needs[1] else None)


@_op("a", "b")
def mul(a, b):
    return a * b, lambda g, needs: (_unbroadcast(g * b, a.shape) if needs[0] else None,
                                    _unbroadcast(g * a, b.shape) if needs[1] else None)


@_op("a", "b")
def div(a, b):
    return a / b, lambda g, needs: (_unbroadcast(g / b, a.shape) if needs[0] else None,
                                    _unbroadcast(-g * a / (b * b), b.shape) if needs[1] else None)


@_op("alpha", "warped", "hidden")
def blend(alpha, hidden, warped):
    """(1 - alpha) * hidden + alpha * warped for three same-shaped tensors.

    Values and gradients are bitwise those of the four elementwise ops it
    stands for: alpha's gradient is g * warped plus -(g * hidden), and
    warped's accumulates before hidden's, as their records fired.
    """
    if not alpha.shape == hidden.shape == warped.shape:
        raise ValueError(f"blend needs same-shaped alpha, hidden and warped, got "
                         f"{alpha.shape}, {hidden.shape} and {warped.shape}")
    return (1.0 - alpha) * hidden + alpha * warped, lambda g, needs: (
        g * warped + -(g * hidden) if needs[0] else None,
        g * alpha if needs[1] else None, g * (1.0 - alpha) if needs[2] else None)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # two-sided form avoids overflow in exp: exp(-|x|) is at most 1
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@_op("a")
def sigmoid(a):
    y = _sigmoid(a)
    return y, lambda g, needs: (g * y * (1.0 - y),)


@_op("a")
def relu(a):
    return np.maximum(a, 0.0), lambda g, needs: (g * (a > 0.0),)


@_op("a")
def elu_plus_one(a):
    """exp(x) for x<=0, x+1 for x>0: a strictly positive kernel feature map.
    The backward rebuilds the exp branch from a."""
    def exp_branch():
        return np.exp(np.minimum(a, 0.0))
    return np.where(a > 0.0, a + 1.0, exp_branch()), \
        lambda g, needs: (g * np.where(a > 0.0, 1.0, exp_branch()),)


# ---------------------------------------------------------------------------
# reductions and matmul
# ---------------------------------------------------------------------------

@_op("a")
def tsum(a, axis=None):
    shape = a.shape

    def vjp(g, needs):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape),
    return a.sum(axis=axis), vjp


def tmean(a, axis=None) -> Tensor:
    """Mean over `axis`: a ``tsum`` then a ``mul``, two tape records."""
    total = tsum(a, axis=axis)
    return mul(total, 1.0 / (as_tensor(a).data.size // total.data.size))


@_op("bias", "a", "b")
def matmul(a, b, bias=None):
    """a @ b for rank-2 operands, plus an optional 1 x N row bias in the same record."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects rank-2 operands, got {a.shape} @ {b.shape}")
    y = a @ b
    if bias is not None:
        if bias.shape != (1, y.shape[1]):
            raise ValueError(f"matmul bias must have shape {(1, y.shape[1])}, got {bias.shape}")
        y += bias
    return y, lambda g, needs: (_unbroadcast(g, bias.shape) if needs[0] else None,
                                g @ b.T if needs[1] else None, a.T @ g if needs[2] else None)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

@_op("a")
def reshape(a, shape):
    shape_a = a.shape
    return a.reshape(shape), lambda g, needs: (g.reshape(shape_a),)


@_op("a")
def transpose(a, axes):
    axes = tuple(axes)
    return a.transpose(axes), lambda g, needs: (g.transpose(tuple(np.argsort(axes))),)


def _split(g: np.ndarray, lengths: list[int], needs, axis: int = 0) -> list:
    """g cut along axis into one view per part of the given lengths, None
    where a part takes no gradient."""
    bounds = np.cumsum(lengths)
    return [d if need else None
            for d, need in zip(np.split(g, bounds[:-1], axis=axis), needs)]


@_op("*parts")
def concat(parts, axis: int = 0):
    lengths = [p.shape[axis] for p in parts]
    return np.concatenate(parts, axis=axis), lambda g, needs: _split(g, lengths, needs, axis)


@_op("a")
def narrow(a, start: int, length: int):
    """Rows start to start + length of the leading axis."""
    shape = a.shape

    def vjp(g, needs):
        full = np.zeros(shape)
        full[start:start + length] = g
        return full,
    return a[start:start + length], vjp


@_op("a")
def take_rows(a, idx: np.ndarray):
    """Gather rows of a rank-2 tensor. Duplicate indices accumulate on backward."""
    if a.ndim != 2:
        raise ValueError(f"take_rows expects a rank-2 tensor, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    n, c = a.shape

    def vjp(g, needs):
        keys = (idx % n)[..., None] * c + np.arange(c)
        return _scatter_add(keys, g, n * c).reshape(n, c),
    return a[idx], vjp


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


@_op("x")
def haar2d(x):
    """Single-level orthonormal 2D Haar analysis, C x H x W -> 4C x H/2 x W/2, with
    the LL, LH, HL and HH subbands of all C channels stacked in that order.

    The map is symmetric and orthonormal, so the backward is the synthesis;
    it adds the terms in reverse order, so the gradients are bitwise those
    of the transform composed from elementwise ops.
    """
    if x.ndim != 3 or x.shape[1] % 2 or x.shape[2] % 2:
        raise ValueError(f"haar2d needs a C x H x W input with even H and W, got {x.shape}")
    return _haar_analysis(x), lambda g, needs: (_haar_synthesis(g, _butterfly_reversed),)


@_op("y")
def ihaar2d(y):
    """Haar synthesis, the exact inverse of ``haar2d``: 4C x h x w -> C x 2h x 2w."""
    if y.ndim != 3 or y.shape[0] % 4:
        raise ValueError(f"ihaar2d needs a 4C x h x w input, got {y.shape}")
    return _haar_synthesis(y), lambda g, needs: (_haar_analysis(g, _butterfly_reversed),)


# ---------------------------------------------------------------------------
# neural-network kernels
# ---------------------------------------------------------------------------

@_op("a")
def softmax(a):
    """Softmax over the leading axis."""
    e = np.exp(a - np.max(a, axis=0, keepdims=True))
    y = e / e.sum(axis=0, keepdims=True)
    return y, lambda g, needs: (y * (g - (g * y).sum(axis=0, keepdims=True)),)


def _patches(xp: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    """The (C*k*k) x (h*w) im2col matrix of a C-contiguous C x (h+k-1) x (w+k-1)
    array.

    One strided view indexes every window tap in (c, ki, kj, i, j) order;
    ``reshape`` copies it once into a C-contiguous matrix, or, for a 1x1
    kernel, returns a view of xp itself.
    """
    c, s1, s2 = xp.shape[0], xp.strides[1], xp.strides[2]
    win = np.ndarray((c, k, k, h, w), xp.dtype, xp, 0, (xp.strides[0], s1, s2, s1, s2))
    return win.reshape(c * k * k, h * w)


def _tap_shifts(z: np.ndarray, wp: int, length: int) -> np.ndarray:
    """The k x k x length view of a C-contiguous k x k x C_out x Hp x Wp array z
    whose row (ki, kj) is z[ki, kj] flattened, from element ki*Wp + kj on.

    Element m of every row is output position (c, i, j) = m as a C_out x Hp x
    Wp index, so summed over its first two axes it is the convolution whose
    per-tap products z holds, at every position with i < H and j < W (the
    rest is unused). Distinct taps never share an element.
    """
    s0, s1, e = z.strides[0], z.strides[1], z.itemsize
    return np.ndarray((*z.shape[:2], length), z.dtype, z, 0, (s0 + wp * e, s1 + e, e))


@_op("bias", "kernel", "*x")
def conv2d(x, kernel, bias):
    """Same 2D cross-correlation of a C_in x H x W input with C_out x C_in x k x k
    weights: the input is zero-padded by k // 2, so the output is C_out x H x W.
    A C_out x 1 x 1 bias is added to the product in the same record.

    x is one tensor or a list of C_i x H x W channel blocks, read as their
    concatenation along channels: the blocks are written into the padded
    input the contraction reads, in the forward and again in the backward
    for the kernel gradient, and the input gradient is split back into one
    slice per block. A conv over joined inputs so needs no concat record,
    and no joined copy is kept.

    Two contractions, chosen from the shapes alone. By default (im2col) the
    (C_in*k*k) x (H*W) patch matrix is built from one strided view of the
    zero-padded input (a view of it for a 1x1 kernel) and multiplied by
    the kernel matrix in one BLAS call. With k > 1, when 5*C_out*Hp*Wp <
    6*C_in*H*W for the (H+k-1) x (W+k-1) padded input (the per-tap product
    matrix is less than 6/5 of the patch matrix, as in a channel-reducing
    conv or a conv on a map much wider than k), it accumulates kernel to
    rows instead: one BLAS call multiplies the (k*k*C_out) x C_in tap matrix by
    the padded input, and the output sums the k*k shifted windows of that
    product. Only the tap form rounds differently from im2col, by about
    1e-15 relative; every other shape gives the im2col values bit for bit.
    Neither keeps a patch matrix or a padded copy for the backward: each
    rebuilds what it needs from x.
    """
    shapes = [b.shape for b in x]
    if any(len(s) != 3 or s[1:] != shapes[0][1:] for s in shapes) or kernel.ndim != 4:
        raise ValueError(f"conv2d expects CxHxW input blocks of one HxW and an OxIxkxk "
                         f"kernel, got {shapes} and {kernel.shape}")
    c_in, (h, w) = sum(s[0] for s in shapes), shapes[0][1:]
    c_out, kc_in, k, k2 = kernel.shape
    if k != k2 or k % 2 == 0:
        raise ValueError(f"conv2d kernel must be square with odd size, got {kernel.shape}")
    if kc_in != c_in:
        raise ValueError(f"conv2d channel mismatch: input has shape {(c_in, h, w)} "
                         f"(C_in={c_in}) but kernel has shape {kernel.shape} (C_in={kc_in})")
    if bias.shape != (c_out, 1, 1):
        raise ValueError(f"conv2d bias must have shape {(c_out, 1, 1)}, got {bias.shape}")
    if k > 1 and 5 * c_out * (h + k - 1) * (w + k - 1) < 6 * c_in * h * w:
        return _conv2d_taps(x, kernel, bias)
    return _conv2d_im2col(x, kernel, bias)


def _padded(x: list[np.ndarray], pad: int) -> np.ndarray:
    """The C_i x H x W channel blocks x joined along channels into one
    C-contiguous array, with `pad` zeros around the last two axes (a lone
    block itself when it already is C-contiguous and pad is 0)."""
    if not pad:
        return np.ascontiguousarray(x[0]) if len(x) == 1 else np.concatenate(x)
    h, w = x[0].shape[1:]
    out = np.zeros((sum(len(b) for b in x), h + 2 * pad, w + 2 * pad))
    start = 0
    for b in x:
        out[start:start + len(b), pad:pad + h, pad:pad + w] = b
        start += len(b)
    return out


def _conv2d_im2col(x: list[np.ndarray], kernel: np.ndarray, bias: np.ndarray):
    """conv2d's ``(value, vjp)`` by one product with the im2col patch matrix.

    The backward rebuilds the patch matrix from x only when the kernel
    takes a gradient; dx correlates g, zero-padded like x, with the flipped
    kernel. dx comes first, so that the flipped kernel and g's patch matrix
    are freed before the kernel gradient's patch matrix is built.
    """
    h, w = x[0].shape[1:]
    c_out, c_in, k, _ = kernel.shape
    pad = k // 2

    def patches(blocks):
        return _patches(_padded(blocks, pad), k, h, w)

    y = (kernel.reshape(c_out, c_in * k * k) @ patches(x)).reshape(c_out, h, w)
    y += bias

    def vjp(g, needs):
        dw, dx = None, [None] * len(x)
        if any(needs[2:]):
            # dx = correlation of g with the in/out-swapped, 180-rotated kernel
            wrot = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            dx = (wrot.reshape(c_in, c_out * k * k) @ patches([g])).reshape(c_in, h, w)
            dx = _split(dx, [len(b) for b in x], needs[2:])
        if needs[1]:
            dw = (g.reshape(c_out, h * w) @ patches(x).T).reshape(kernel.shape)
        return _unbroadcast(g, bias.shape) if needs[0] else None, dw, *dx
    return y, vjp


def _conv2d_taps(x: list[np.ndarray], kernel: np.ndarray, bias: np.ndarray):
    """conv2d's ``(value, vjp)`` by kernel-to-row accumulation on the padded input.

    Z = W_taps @ Xpad holds every tap's product with the whole padded
    input; the output sums the k*k shifted windows of Z, each read as one
    contiguous run of the flattened product. The backward writes g into the
    same windows of a zero gZ, so that dW = gZ @ Xpad^T, on Xpad padded
    again from x, and dXpad = W_taps^T @ gZ, cropped to x. No patch matrix,
    padded input or tap matrix is kept.
    """
    h, w = x[0].shape[1:]
    c_out, c_in, k, _ = kernel.shape
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    # the last output position is element n - 1 of the shifted rows
    n = c_out * hp * wp - (k - 1) * (wp + 1)

    def wtaps():
        return kernel.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)
    z = (wtaps() @ _padded(x, pad).reshape(c_in, hp * wp)).reshape(k, k, c_out, hp, wp)
    acc = np.empty((c_out, hp, wp))
    np.sum(_tap_shifts(z, wp, n), axis=(0, 1), out=acc.reshape(-1)[:n])
    y = acc[:, :h, :w] + bias

    def vjp(g, needs):
        gw = np.zeros((c_out, hp, wp))
        gw[:, :h, :w] = g
        gz = np.zeros((k, k, c_out, hp, wp))
        _tap_shifts(gz, wp, n)[...] = gw.reshape(-1)[:n]
        gz = gz.reshape(k * k * c_out, hp * wp)
        dw, dx = None, [None] * len(x)
        if needs[1]:
            rows = _padded(x, pad).reshape(c_in, hp * wp)
            dw = (gz @ rows.T).reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1)
        if any(needs[2:]):
            dx = (wtaps().T @ gz).reshape(c_in, hp, wp)
            dx = _split(dx[:, pad:pad + h, pad:pad + w], [len(b) for b in x], needs[2:])
        return _unbroadcast(g, bias.shape) if needs[0] else None, dw, *dx
    return y, vjp


@_op("x", "coords")
def bilinear_sample(x, coords):
    """Sample a C x H x W grid at fractional (row, col) positions.

    coords is 2 x H' x W'; positions outside [0,H-1] x [0,W-1] read zero,
    and a NaN or infinite position reads NaN. The four corners of every
    position come from one gather. Each corner's 0/1 in-grid mask is folded
    into its bilinear weight once, 4 x H' x W' products, and the unmasked
    corners are multiplied by the folded weights: multiplying by an exact
    0.0 or 1.0 gives the same bits before or after the weight, signed zeros,
    NaN and infinities included, so no C-fold masking pass is needed.
    Differentiable in the grid values and in the coordinates. The record
    keeps only x and coords: the backward rebuilds the corner plan (flat
    indices, fractions, masks and folded weights) from coords with the
    forward's own expressions, and regathers the corners from x when the
    coordinates take a gradient.
    """
    if x.ndim != 3:
        raise ValueError(f"bilinear_sample expects CxHxW input, got {x.shape}")
    if coords.ndim != 3 or coords.shape[0] != 2:
        raise ValueError(f"bilinear_sample coords must be 2xHxW, got {coords.shape}")
    c, h, w = x.shape
    out_shape = coords.shape[1:]

    def plan():
        """The four corners (r0,c0), (r0,c1), (r1,c0), (r1,c1) of every
        position: their flat indices into an H x W plane, then their 0/1
        in-grid masks and their bilinear weights with the masks folded in,
        4 x H' x W' each; and the (row, col) fractions, 2 x H' x W'."""
        lo = np.floor(coords).astype(np.intp)                         # (row, col) x H' x W'
        frac = coords - lo
        # per axis, [lower, upper] x [row, col] x H' x W': the corner index, and
        # the weight 1 - frac or frac
        idx = np.stack([lo, lo + 1])
        size = np.array([h, w])[:, None, None]
        inside = (idx >= 0) & (idx < size)
        np.minimum(np.maximum(idx, 0, out=idx), size - 1, out=idx)
        axis_w = np.stack([1 - frac, frac])
        flat = (idx[:, None, 0] * w + idx[None, :, 1]).reshape(-1)
        masks = (inside[:, None, 0] & inside[None, :, 1]).reshape(4, *out_shape)
        weights = (axis_w[:, None, 0] * axis_w[None, :, 1]).reshape(4, *out_shape)
        weights *= masks
        return flat, masks, weights, frac

    def gather(flat):
        """The unmasked corners of every position, C x 4 x H' x W'."""
        return np.take(x.reshape(c, h * w), flat, axis=1).reshape(c, 4, *out_shape)

    # a NaN position casts to an arbitrary index, and an infinite one meets a
    # zero weight or mask as 0 * inf: either reads NaN, so the "invalid"
    # warnings say nothing
    with np.errstate(invalid="ignore"):
        flat, _, weights, _ = plan()
        v = gather(flat)
        y = (v[:, 0] * weights[0] + v[:, 1] * weights[1]
             + v[:, 2] * weights[2] + v[:, 3] * weights[3])

    @np.errstate(invalid="ignore")
    def vjp(g, needs):
        gx = gc = None
        flat, masks, weights, (wr, wc) = plan()
        if needs[0]:
            # per channel, the four corners one after another
            keys = np.arange(c)[:, None] * (h * w) + flat
            contrib = (g[:, None] * weights).reshape(c, -1)
            gx = _scatter_add(keys, contrib, c * h * w).reshape(c, h, w)
        if needs[1]:
            v = gather(flat)
            v *= masks
            v00, v01, v10, v11 = (v[:, i] for i in range(4))
            dy_dwr = -(1 - wc) * v00 - wc * v01 + (1 - wc) * v10 + wc * v11
            dy_dwc = -(1 - wr) * v00 + (1 - wr) * v01 - wr * v10 + wr * v11
            gc = np.stack([(g * dy_dwr).sum(axis=0), (g * dy_dwc).sum(axis=0)])
        return gx, gc
    return y, vjp


@_op("logits")
def bce_with_logits(logits, targets):
    """Mean binary cross-entropy in the numerically stable logit form."""
    t = np.asarray(targets, dtype=np.float64)
    z = logits
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    return loss.mean(), lambda g, needs: (g * (_sigmoid(z) - t) / z.size,)


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


@_op("b", "a")
def linear_recurrence(a, b):
    """Diagonal linear scan h_t = a_t * h_{t-1} + b_t over the leading axis, h_0 = 0."""
    if a.shape != b.shape:
        raise ValueError(f"linear_recurrence shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise ValueError("linear_recurrence needs a nonempty sequence")
    h = _scan_in_place(a, b.copy())

    def vjp(g, needs):
        gh = _scan_in_place(a, g.copy(), reverse=True)
        da = None
        if needs[1]:
            da = np.zeros_like(a)
            np.multiply(gh[1:], h[:-1], out=da[1:])
        return gh if needs[0] else None, da
    return h, vjp


SCAN_PARAMS = ("w_step", "b_step", "w_in", "b_in", "w_out", "b_out", "skip", "log_decay")


_SCAN_BLOCK = 64     # time steps per block of the selective_scan forward and backward


@_op("x", "*params")
def selective_scan(x, params):
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
    blocks. It builds z, step, u and the two gates one block at a time from
    x too, so the record keeps only x, the parameters and the P x C x N state
    entering each block after the first. Each block's read-out, the sum over
    N, is one batched matmul of its states with the time-major gate_out
    column. The backward walks the blocks in reverse: it rebuilds a block's
    projections, exponent and states from x and that state with the
    forward's own expressions, runs the adjoint scan seeded from the block
    after it, and reduces the block into L-sized gradients with batched
    matmuls on contiguous operands. No L x P x C x N array is made, with or
    without a tape.
    """
    n_paths, length, c = x.shape if x.ndim == 3 else (0, 0, 0)
    n = params[-1].shape[-1] if params and params[-1].ndim else 0
    shapes = [(n_paths, c, c), (n_paths, 1, c), (n_paths, c, n), (n_paths, 1, n),
              (n_paths, c, n), (n_paths, 1, n), (n_paths, 1, c), (n_paths, n)]
    if length == 0 or [t.shape for t in params] != shapes:
        raise ValueError(f"selective_scan needs a nonempty P x L x C sequence and the "
                         f"{len(SCAN_PARAMS)} tensors {SCAN_PARAMS} shaped {shapes}, got "
                         f"{x.shape} and {[t.shape for t in params]}")
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = params
    # the state arrays are time-major, block x P x C x N, so each step is one
    # contiguous slab
    tm = (1, 0, 2)
    blocks = [(t0, min(t0 + _SCAN_BLOCK, length)) for t0 in range(0, length, _SCAN_BLOCK)]
    block_shape = (min(length, _SCAN_BLOCK), n_paths, c, n)

    def projections(t0, t1):
        """z, step, u, gate_in and gate_out of time steps t0:t1, P x block x C
        (or N). A one-step tail is projected with the step before it, since
        numpy multiplies a one-row matrix by a matrix-vector product that
        rounds unlike the rows of a whole-sequence product."""
        lo = max(t1 - 2, 0) if t1 - t0 == 1 else t0
        xb = x[:, lo:t1]
        z, gate_in, gate_out = ((np.matmul(xb, w) + b)[:, t0 - lo:]
                                for w, b in ((w_step, b_step), (w_in, b_in), (w_out, b_out)))
        step = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)          # softplus
        return z, step, step * x[:, t0:t1], gate_in, gate_out

    def states(step, u, gate_in, decay, carry, a, h):
        """A block's factors exp(step * decay) and states, in the leading rows
        of the scratch arrays a and h, from the block's projections, the P x N
        decay and the state before the block."""
        a, h = a[:step.shape[1]], h[:step.shape[1]]
        np.multiply(step.transpose(tm)[:, :, :, None], decay[:, None, :], out=a)
        np.exp(a, out=a)
        np.multiply(u.transpose(tm)[:, :, :, None], gate_in.transpose(tm)[:, :, None, :], out=h)
        return a, _scan_in_place(a, h, carry=carry)

    decay = -np.exp(log_decay)                                            # P x N
    a, h = np.empty(block_shape), np.empty(block_shape)
    readout = np.empty((length, n_paths, c))
    carries = [None]                      # the state entering each block; none before the first
    for t0, t1 in blocks:
        _, step, u, gate_in, gate_out = projections(t0, t1)
        _, hb = states(step, u, gate_in, decay, carries[-1], a, h)
        # read-out column: block x P x N x 1, so the sum over N is one batched matmul
        gate_out_c = np.ascontiguousarray(gate_out.transpose(tm))[..., None]
        np.matmul(hb, gate_out_c, out=readout[t0:t1, :, :, None])
        if t1 < length:
            carries.append(hb[-1].copy())
    y = readout.transpose(tm) + skip * x

    def vjp(g, needs):
        gt = g.transpose(tm)                                              # L x P x C
        g_out, g_in = np.empty((length, n_paths, n)), np.empty((length, n_paths, n))
        g_z, gx = np.empty((n_paths, length, c)), np.empty((n_paths, length, c))
        g_u, g_exp = np.empty(block_shape[:3]), np.empty(block_shape[:3])
        g_decay = np.zeros((n_paths, 1, n))
        decay = -np.exp(log_decay)
        a, h, gh = np.empty(block_shape), np.empty(block_shape), np.empty(block_shape)
        # a contiguous decay column keeps the g_exp contraction on BLAS
        decay_c = np.broadcast_to(decay[:, :, None], block_shape[:2] + (n, 1)).copy()
        seed = None                       # a_t1 * gh_t1 of the block after this one
        for (t0, t1), carry in zip(reversed(blocks), reversed(carries)):
            z, step, u, gate_in, gate_out = projections(t0, t1)
            ab, hb = states(step, u, gate_in, decay, carry, a, h)
            g_out[t0:t1] = np.matmul(gt[t0:t1, :, None, :], hb)[:, :, 0, :]
            ghb = np.multiply(gt[t0:t1, :, :, None], gate_out.transpose(tm)[:, :, None, :],
                              out=gh[:t1 - t0])
            if seed is not None:
                np.add(ghb[-1], seed, out=ghb[-1])
            _scan_in_place(ab, ghb, reverse=True)
            seed = ab[0] * ghb[0]
            g_in[t0:t1] = np.matmul(u.transpose(tm)[:, :, None, :], ghb)[:, :, 0, :]
            g_u[:t1 - t0] = np.matmul(ghb, gate_in.transpose(tm)[:, :, :, None])[..., 0]
            g_ub = g_u[:t1 - t0].transpose(tm)                            # P x block x C
            # ghb becomes the gradient of the exponent step * decay
            ghb[0] = 0.0 if carry is None else ghb[0] * carry * ab[0]
            np.multiply(ghb[1:], hb[:-1], out=ghb[1:])
            ghb[1:] *= ab[1:]
            np.matmul(ghb, decay_c[:t1 - t0], out=g_exp[:t1 - t0, :, :, None])
            # step as contiguous block x P x 1 x C rows keeps this one on BLAS too
            step_r = np.ascontiguousarray(step.transpose(tm))[:, :, None, :]
            g_decay += np.matmul(step_r, ghb).sum(axis=0)
            g_step = g_ub * x[:, t0:t1] + g_exp[:t1 - t0].transpose(tm)
            g_z[:, t0:t1] = g_step * _sigmoid(z)
            gx[:, t0:t1] = g[:, t0:t1] * skip + g_ub * step
        g_out, g_in = g_out.transpose(tm), g_in.transpose(tm)
        grads = {"skip": (g * x).sum(axis=1, keepdims=True), "log_decay": g_decay[:, 0] * decay}
        for name, w, gw in (("step", w_step, g_z), ("in", w_in, g_in), ("out", w_out, g_out)):
            gx += np.matmul(gw, w.transpose(0, 2, 1))
            grads[f"w_{name}"] = np.matmul(x.transpose(0, 2, 1), gw)
            grads[f"b_{name}"] = gw.sum(axis=1, keepdims=True)
        return [gx if needs[0] else None] + [grads[name] if need else None
                                             for name, need in zip(SCAN_PARAMS, needs[1:])]
    return y, vjp


# ---------------------------------------------------------------------------
# operator sugar on Tensor
# ---------------------------------------------------------------------------

Tensor.__add__ = lambda self, o: add(self, o)
Tensor.__sub__ = lambda self, o: sub(self, o)
Tensor.__mul__ = lambda self, o: mul(self, o)
Tensor.__rmul__ = lambda self, o: mul(o, self)
Tensor.__truediv__ = lambda self, o: div(self, o)
