"""Core tensor library: op semantics, gradients, serialization."""

import ast
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from composed_ops import exp, softplus
from coopfuse import ops
from coopfuse.pipeline import PipelineConfig, TrainSpec
from coopfuse.serialize import assign_params, load_params, save_params
from coopfuse.sync import Integrator
from coopfuse.tensor import Parameter, Tape, Tensor, no_grad
from coopfuse.training import train
from grad_cases import CASES
from gradcheck import grad_check

HERE = Path(__file__).parent


def conv2d_reference(x, w, b):
    """Direct six-nested-loop same convolution plus bias, the oracle conv2d is
    checked against."""
    c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((c_out, h, wdt))
    for o in range(c_out):
        for i in range(h):
            for j in range(wdt):
                acc = b[o, 0, 0]
                for c in range(c_in):
                    for ki in range(k):
                        for kj in range(k):
                            acc += w[o, c, ki, kj] * xp[c, i + ki, j + kj]
                out[o, i, j] = acc
    return out


class TestConv2d:
    def test_sum_of_ones(self):
        # each output counts the input cells its zero-padded 3x3 window covers
        out = ops.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))),
                         np.zeros((1, 1, 1)))
        assert np.array_equal(out.data, [[[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6, 7))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = ops.conv2d(Tensor(x), Tensor(k), np.zeros((3, 1, 1)))
        assert np.array_equal(out.data, x)

    # each id is the stride these cases were written for and the padding, k // 2
    @pytest.mark.parametrize("k", [1, 3], ids=["1-0", "1-1"])
    def test_matches_loop_oracle(self, k):
        rng = np.random.default_rng(52 + k // 2)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=(3, 1, 1))
        got = ops.conv2d(Tensor(x), Tensor(w), b).data
        want = conv2d_reference(x, w, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError) as e:
            ops.conv2d(Tensor(np.ones((2, 5, 5))), Tensor(np.ones((3, 4, 3, 3))),
                       np.zeros((3, 1, 1)))
        assert "(2, 5, 5)" in str(e.value) and "(3, 4, 3, 3)" in str(e.value)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 2, 2))),
                       np.zeros((1, 1, 1)))

    def test_map_smaller_than_kernel(self):
        rng = np.random.default_rng(53)
        x, w, b = rng.normal(size=(2, 2, 1)), rng.normal(size=(3, 2, 5, 5)), np.zeros((3, 1, 1))
        assert np.max(np.abs(ops.conv2d(x, w, b).data - conv2d_reference(x, w, b))) < 1e-10

    def test_output_shape_formula(self):
        # a same convolution: the output keeps the input's H x W
        out = ops.conv2d(Tensor(np.ones((1, 10, 8))), Tensor(np.ones((1, 1, 5, 5))),
                         np.zeros((1, 1, 1)))
        assert out.data.shape == (1, 10, 8)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 1, 1), (2, 1, 2), (1, 2)])
    def test_bad_bias_shape_rejected(self, shape):
        # conv2d takes a C_out x 1 x 1 bias, matmul a 1 x N row bias
        with pytest.raises(ValueError, match="bias must have shape"):
            ops.conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((2, 1, 3, 3))), np.zeros(shape))
        with pytest.raises(ValueError, match="bias must have shape"):
            ops.matmul(np.ones((3, 4)), np.ones((4, 3)), np.zeros(shape))


class TestBilinearSample:
    def test_integer_grid_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4, 5))
        rr, cc = np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij")
        out = ops.bilinear_sample(Tensor(x), Tensor(np.stack([rr, cc])))
        assert np.array_equal(out.data, x)

    def test_far_out_of_range_reads_zero(self):
        x = Tensor(np.ones((2, 4, 4)))
        coords = Tensor(np.full((2, 4, 4), -10.0))
        assert np.array_equal(ops.bilinear_sample(x, coords).data, np.zeros((2, 4, 4)))

    def test_center_of_2x2_block(self):
        x = Tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        coords = Tensor(np.array([[[0.5]], [[0.5]]]))
        assert ops.bilinear_sample(x, coords).data[0, 0, 0] == pytest.approx(1.5)

    def test_bad_coords_shape_rejected(self):
        with pytest.raises(ValueError):
            ops.bilinear_sample(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 4, 4))))


def bilinear_dx_reference(g, coords, shape):
    """Grid gradient of bilinear_sample by np.add.at, corner after corner."""
    c, h, w = shape
    r, cc = coords
    r0, c0 = np.floor(r).astype(np.intp), np.floor(cc).astype(np.intp)
    wr, wc = r - r0, cc - c0
    rin0, rin1 = (r0 >= 0) & (r0 < h), (r0 >= -1) & (r0 < h - 1)
    cin0, cin1 = (c0 >= 0) & (c0 < w), (c0 >= -1) & (c0 < w - 1)
    masks = (rin0 & cin0, rin0 & cin1, rin1 & cin0, rin1 & cin1)
    weights = ((1 - wr) * (1 - wc), (1 - wr) * wc, wr * (1 - wc), wr * wc)
    r0c, c0c = r0.clip(0, h - 1), c0.clip(0, w - 1)
    r1c, c1c = (r0 + 1).clip(0, h - 1), (c0 + 1).clip(0, w - 1)
    flats = ((r0c * w + c0c).ravel(), (r0c * w + c1c).ravel(),
             (r1c * w + c0c).ravel(), (r1c * w + c1c).ravel())
    dx = np.zeros((c, h * w))
    for flat, wt, valid in zip(flats, weights, masks):
        np.add.at(dx.T, flat, (g * (wt * valid)).reshape(c, -1).T)
    return dx.reshape(c, h, w)


def grad_through(op, x, g):
    """Gradient reaching x when op(x)'s output gradient is exactly g."""
    x = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = ops.tsum(ops.mul(op(x), Tensor(g)))
    tape.backward(loss)
    return x.grad


class TestScatterBackward:
    """The bincount scatters match np.add.at bit for bit, duplicates included."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bilinear_grid_grad_matches_add_at(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 6, 7))
        # many more samples than cells, some outside the grid, so every cell
        # collects several contributions from several corners
        coords = np.stack([rng.uniform(-1.5, 6.5, size=(12, 11)),
                           rng.uniform(-1.5, 7.5, size=(12, 11))])
        g = rng.normal(size=(3, 12, 11))
        got = grad_through(lambda t: ops.bilinear_sample(t, coords), x, g)
        assert np.array_equal(got, bilinear_dx_reference(g, coords, x.shape))

    @pytest.mark.parametrize("seed", range(5))
    def test_take_rows_grad_matches_add_at(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 4))
        idx = rng.integers(-5, 5, size=40)          # duplicates and negative indices
        g = rng.normal(size=(40, 4))
        want = np.zeros_like(x)
        np.add.at(want, idx, g)
        assert np.array_equal(grad_through(lambda t: ops.take_rows(t, idx), x, g), want)

    def test_take_rows_unselected_rows_get_zero(self):
        got = grad_through(lambda t: ops.take_rows(t, np.array([1, 1])), np.ones((3, 2)),
                           np.ones((2, 2)))
        assert np.array_equal(got, [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])


def conv2d_im2col_reference(x, w, b, g, pad):
    """conv2d by np.pad + sliding_window_view im2col, plus bias: output, dx, dw
    and db for output gradient g. dx correlates g, zero-padded by pad, with the
    flipped kernel over the H x W input positions."""
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    h_out = h + 2 * pad - k + 1
    w_out = wd + 2 * pad - k + 1
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    cols = win.transpose(0, 3, 4, 1, 2).reshape(c_in * k * k, h_out * w_out)
    wmat = w.reshape(c_out, c_in * k * k)
    y = (wmat @ cols).reshape(c_out, h_out, w_out) + b
    gm = g.reshape(c_out, h_out * w_out)
    dw = (gm @ cols.T).reshape(w.shape)
    gp = np.pad(g, ((0, 0), (pad, pad), (pad, pad)))
    gwin = sliding_window_view(gp, (k, k), axis=(1, 2))
    gcols = gwin.transpose(0, 3, 4, 1, 2).reshape(c_out * k * k, h * wd)
    wrot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = (wrot.reshape(c_in, c_out * k * k) @ gcols).reshape(x.shape)
    db = g.sum(axis=1, keepdims=True).sum(axis=2, keepdims=True)
    return y, dx, dw, db


def dx_full_correlation_then_crop(w, g):
    """conv2d's input gradient as its im2col backward made it before it took
    only the H x W input positions: g zero-padded by k - 1, correlated with the
    flipped kernel over every position of the input padded by k // 2, then
    cropped to the input."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = g.shape
    pad = k // 2
    gp = np.pad(g, ((0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    gwin = sliding_window_view(gp, (k, k), axis=(1, 2))
    gcols = gwin.transpose(0, 3, 4, 1, 2).reshape(c_out * k * k, (h + 2 * pad) * (wd + 2 * pad))
    wrot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dxp = (wrot.reshape(c_in, c_out * k * k) @ gcols).reshape(c_in, h + 2 * pad, wd + 2 * pad)
    return dxp[:, pad:pad + h, pad:pad + wd]


def bilinear_sample_reference(x, coords, g):
    """bilinear_sample by four separate corner gathers: output, dx and dcoords for g."""
    c, h, w = x.shape
    r, cc = coords
    with np.errstate(invalid="ignore"):
        r0, c0 = np.floor(r).astype(np.intp), np.floor(cc).astype(np.intp)
    wr, wc = r - r0, cc - c0
    rin0, rin1 = (r0 >= 0) & (r0 < h), (r0 >= -1) & (r0 < h - 1)
    cin0, cin1 = (c0 >= 0) & (c0 < w), (c0 >= -1) & (c0 < w - 1)
    masks = (rin0 & cin0, rin0 & cin1, rin1 & cin0, rin1 & cin1)
    weights = ((1 - wr) * (1 - wc), (1 - wr) * wc, wr * (1 - wc), wr * wc)
    r0c, c0c = r0.clip(0, h - 1), c0.clip(0, w - 1)
    r1c, c1c = (r0 + 1).clip(0, h - 1), (c0 + 1).clip(0, w - 1)
    flats = ((r0c * w + c0c).ravel(), (r0c * w + c1c).ravel(),
             (r1c * w + c0c).ravel(), (r1c * w + c1c).ravel())
    xf = x.reshape(c, h * w)
    v00, v01, v10, v11 = (xf[:, f].reshape(c, *r.shape) * m for f, m in zip(flats, masks))
    y = v00 * weights[0] + v01 * weights[1] + v10 * weights[2] + v11 * weights[3]
    keys = np.arange(c)[:, None] * (h * w) + np.concatenate(flats)
    contrib = np.concatenate([(g * (wt * valid)).reshape(c, -1)
                              for wt, valid in zip(weights, masks)], axis=1)
    dx = np.bincount(keys.ravel(), weights=contrib.ravel(), minlength=c * h * w)
    dy_dwr = -(1 - wc) * v00 - wc * v01 + (1 - wc) * v10 + wc * v11
    dy_dwc = -(1 - wr) * v00 + (1 - wr) * v01 - wr * v10 + wr * v11
    dcoords = np.stack([(g * dy_dwr).sum(axis=0), (g * dy_dwc).sum(axis=0)])
    return y, dx.reshape(c, h, w), dcoords


def selective_scan_reference(x, params, g):
    """selective_scan on whole L x P x C x N state arrays, scanned step by step.

    Returns the output, the gradient of the P x L x C sequences and a dict of
    the stacked parameter gradients, for output gradient g.
    """
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = params
    z = np.matmul(x, w_step) + b_step
    step = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
    gate_in = np.matmul(x, w_in) + b_in
    gate_out = np.matmul(x, w_out) + b_out
    decay = -np.exp(log_decay)
    u = step * x
    tm = (1, 0, 2)
    state_shape = (x.shape[1], x.shape[0], x.shape[2], decay.shape[1])      # L x P x C x N
    a = np.exp(np.multiply(step.transpose(tm)[..., None], decay[:, None, :],
                           out=np.empty(state_shape)))
    h = np.multiply(u.transpose(tm)[..., None], gate_in.transpose(tm)[:, :, None, :],
                    out=np.empty(state_shape))
    for t in range(1, len(h)):
        h[t] += a[t] * h[t - 1]
    y = (h * gate_out.transpose(tm)[:, :, None, :]).sum(axis=3).transpose(tm) + skip * x

    gt = g.transpose(tm)
    g_out = np.matmul(gt[:, :, None, :], h)[:, :, 0, :].transpose(tm)
    gh = gt[..., None] * gate_out.transpose(tm)[:, :, None, :]
    for t in range(len(gh) - 2, -1, -1):
        gh[t] += a[t + 1] * gh[t + 1]
    g_in = np.matmul(u.transpose(tm)[:, :, None, :], gh)[:, :, 0, :].transpose(tm)
    g_u = np.matmul(gh, gate_in.transpose(tm)[..., None])[..., 0].transpose(tm)
    gh[0] = 0.0
    np.multiply(gh[1:], h[:-1], out=gh[1:])
    gh[1:] *= a[1:]
    g_decay = np.einsum("lpcn,lpc->pn", gh, step.transpose(tm))
    g_step = g_u * x + np.matmul(gh, decay[:, :, None])[..., 0].transpose(tm)
    g_z = g_step * ops._sigmoid(z)
    gx = g * skip + g_u * step
    grads = {"skip": (g * x).sum(axis=1, keepdims=True), "log_decay": g_decay * decay}
    for name, w, gw in (("step", w_step, g_z), ("in", w_in, g_in), ("out", w_out, g_out)):
        gx += np.matmul(gw, w.transpose(0, 2, 1))
        grads[f"w_{name}"] = np.matmul(x.transpose(0, 2, 1), gw)
        grads[f"b_{name}"] = gw.sum(axis=1, keepdims=True)
    return y, gx, grads


def selective_scan_longdouble(x, params):
    """selective_scan's output in np.longdouble, one time step after another."""
    x, params = np.asarray(x, np.longdouble), [np.asarray(p, np.longdouble) for p in params]
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = params
    z = np.matmul(x, w_step) + b_step
    step = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0)
    gate_in, gate_out = np.matmul(x, w_in) + b_in, np.matmul(x, w_out) + b_out
    decay = -np.exp(log_decay)                                              # P x N
    h = np.zeros((x.shape[0], x.shape[2], decay.shape[1]), np.longdouble)   # P x C x N
    y = np.empty_like(x)
    for t in range(x.shape[1]):
        st = step[:, t, :, None]
        h = np.exp(st * decay[:, None, :]) * h + st * x[:, t, :, None] * gate_in[:, t, None, :]
        y[:, t] = (h * gate_out[:, t, None, :]).sum(axis=2) + skip[:, 0] * x[:, t]
    return y


def run_with_output_grad(op, inputs, g):
    """op() on the tape: its output, and the gradient of each of inputs for output gradient g."""
    with Tape() as tape:
        out = op()
        loss = ops.tsum(ops.mul(out, Tensor(g)))
    tape.backward(loss)
    return out.data, [t.grad for t in inputs]


@pytest.fixture
def tap_calls(monkeypatch):
    """The kernel shape of every conv2d call that takes the tap form."""
    calls, taps = [], ops._conv2d_taps

    def spy(x, kernel, *rest):
        calls.append(kernel.data.shape)
        return taps(x, kernel, *rest)
    monkeypatch.setattr(ops, "_conv2d_taps", spy)
    return calls


def conv2d_longdouble_reference(x, w, b, g, pad):
    """Stride-1 conv2d summed tap by tap in np.longdouble, plus bias: output,
    dx, dw and db for g."""
    x, w, b, g = (np.asarray(a, np.longdouble) for a in (x, w, b, g))
    c_in, h, wd = x.shape
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out, w_out = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    y = np.broadcast_to(b, g.shape).copy()
    dw, dxp = np.zeros_like(w), np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            win, tap = xp[:, ki:ki + h_out, kj:kj + w_out], w[:, :, ki, kj]
            y += np.tensordot(tap, win, axes=1)
            dw[:, :, ki, kj] = np.tensordot(g, win, axes=([1, 2], [1, 2]))
            dxp[:, ki:ki + h_out, kj:kj + w_out] += np.tensordot(tap, g, axes=([0], [0]))
    return y, dxp[:, pad:pad + h, pad:pad + wd], dw, g.sum(axis=(1, 2), keepdims=True)


def assert_rel_close(got, want, rtol):
    """Largest absolute error at most rtol times the largest reference magnitude."""
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= rtol, f"relative error {float(err):.3e} > {rtol:.0e}"


class TestKernelsMatchPreviousAlgorithms:
    """conv2d and bilinear_sample give bitwise the values and gradients of the
    algorithms they replaced; selective_scan too, except where its tests say
    which values move by rounding."""

    # each id's trailing 1 is the stride these cases were written for
    @pytest.mark.parametrize("k,pad", [pytest.param(k, k // 2, id=f"{k}-{k // 2}-1")
                                       for k in (1, 3, 7)])
    def test_conv2d(self, k, pad):
        rng = np.random.default_rng(100 * k + 10 * pad + 1)
        x = rng.normal(size=(3, 9, 13))
        w = rng.normal(size=(4, 3, k, k))
        g = rng.normal(size=(4, 9 + 2 * pad - k + 1, 13 + 2 * pad - k + 1))
        b = rng.normal(size=(4, 1, 1))
        inputs = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        y, grads = run_with_output_grad(lambda: ops.conv2d(*inputs), inputs, g)
        for have, want in zip([y, *grads], conv2d_im2col_reference(x, w, b, g, pad)):
            assert np.array_equal(have, want)

    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 1)])
    def test_conv2d_non_contiguous_input(self, tap_calls, k, pad):
        # the 1x1 conv is bitwise im2col; the 3x3 one, 3 channels to 2, takes
        # the tap form (5 * 2 * 8 * 9 < 6 * 3 * 6 * 7) and is checked as
        # every tap shape is
        rng = np.random.default_rng(k)
        x = rng.normal(size=(7, 6, 3)).transpose(2, 1, 0)       # 3 x 6 x 7, a strided view
        w = rng.normal(size=(2, 3, k, k))
        g = rng.normal(size=(2, 6, 7))
        b = rng.normal(size=(2, 1, 1))
        wt = Tensor(w, requires_grad=True)
        y, (dw,) = run_with_output_grad(lambda: ops.conv2d(x, wt, b), [wt], g)
        if k == 1:
            y_ref, _, dw_ref, _ = conv2d_im2col_reference(x, w, b, g, pad)
            assert tap_calls == []
            assert np.array_equal(y, y_ref)
            assert np.array_equal(dw, dw_ref)
        else:
            y_ref, _, dw_ref, _ = conv2d_longdouble_reference(x, w, b, g, pad)
            assert tap_calls == [w.shape]
            assert_rel_close(y, y_ref, 1e-13)
            assert_rel_close(dw, dw_ref, 1e-13)

    @pytest.mark.parametrize("c_out,k,pad", [(4, 3, 1), (3, 7, 3)])
    def test_conv2d_non_contiguous_input_keeps_im2col(self, tap_calls, c_out, k, pad):
        # C_out >= C_in takes the tap form only on maps much wider than the
        # kernel, so this strided input stays bitwise
        rng = np.random.default_rng(10 * k + c_out)
        x = rng.normal(size=(7, 6, 3)).transpose(2, 1, 0)       # 3 x 6 x 7, a strided view
        w = rng.normal(size=(c_out, 3, k, k))
        g = rng.normal(size=(c_out, 6, 7))
        b = rng.normal(size=(c_out, 1, 1))
        inputs = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        y, grads = run_with_output_grad(lambda: ops.conv2d(*inputs), inputs, g)
        assert tap_calls == []
        for have, want in zip([y, *grads], conv2d_im2col_reference(x, w, b, g, pad)):
            assert np.array_equal(have, want)

    # (channels per block, C_out, k, pad, H, taps): the stsync offset and gate
    # convs, two blocks into a small expanding conv, and a 1x1 conv on three
    @pytest.mark.parametrize("blocks,c_out,k,pad,h,taps", [((8, 8), 2, 3, 1, 12, True),
                                                          ((8, 8), 1, 7, 3, 12, True),
                                                          ((2, 2), 6, 3, 1, 5, False),
                                                          ((1, 3, 2), 4, 1, 0, 5, False)])
    def test_conv2d_channel_blocks(self, tap_calls, blocks, c_out, k, pad, h, taps):
        """A list of channel blocks gives bitwise the values and gradients of
        the conv on the blocks' concat record."""
        rng = np.random.default_rng(sum(blocks) + k)
        parts = [rng.normal(size=(c, h, h + 1)) for c in blocks]
        w = rng.normal(size=(c_out, sum(blocks), k, k))
        b = rng.normal(size=(c_out, 1, 1))
        g = rng.normal(size=(c_out, h + 2 * pad - k + 1, h + 2 + 2 * pad - k))
        runs = []
        for joined in (False, True):
            inputs = [Tensor(a, requires_grad=True) for a in (*parts, w, b)]
            *xs, wt, bt = inputs
            runs.append(run_with_output_grad(
                lambda: ops.conv2d(ops.concat(xs, axis=0) if joined else xs, wt, bt),
                inputs, g))
        (y, grads), (y_ref, grads_ref) = runs
        assert len(tap_calls) == 2 * taps
        assert np.array_equal(y, y_ref)
        for have, want in zip(grads, grads_ref):
            assert np.array_equal(have, want)

    @pytest.mark.parametrize("lo,hi", [(-2.5, 8.5), (-1.0, 6.0), (-9.0, -1.01), (7.0, 20.0)])
    def test_bilinear_sample(self, lo, hi):
        # partly outside, at the edges, and wholly outside the 6 x 7 grid
        rng = np.random.default_rng(int(abs(hi) * 100))
        x = rng.normal(size=(3, 6, 7))
        coords = rng.uniform(lo, hi, size=(2, 9, 10))
        coords[:, 0, :4] = [[0.0, 5.0, 5.0, 2.0], [0.0, 6.0, 2.0, 6.0]]   # on grid points
        g = rng.normal(size=(3, 9, 10))
        xt, ct = Tensor(x, requires_grad=True), Tensor(coords, requires_grad=True)
        y, (dx, dcoords) = run_with_output_grad(lambda: ops.bilinear_sample(xt, ct), [xt, ct], g)
        y_ref, dx_ref, dcoords_ref = bilinear_sample_reference(x, coords, g)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(dx, dx_ref)
        assert np.array_equal(dcoords, dcoords_ref)

    def test_bilinear_sample_nan_coords(self):
        # read NaN, bitwise as before, and without a warning from the integer cast
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5))
        coords = rng.uniform(0.0, 4.0, size=(2, 4, 4))
        coords[0, 0, 0], coords[1, 1, 2], coords[:, 3, 3] = np.nan, np.nan, np.nan
        g = rng.normal(size=(2, 4, 4))
        xt, ct = Tensor(x, requires_grad=True), Tensor(coords, requires_grad=True)
        y, (dx, dcoords) = run_with_output_grad(lambda: ops.bilinear_sample(xt, ct), [xt, ct], g)
        y_ref, dx_ref, dcoords_ref = bilinear_sample_reference(x, coords, g)
        bad = np.isnan(coords).any(axis=0)
        assert np.isnan(y[:, bad]).all() and np.isfinite(y[:, ~bad]).all()
        assert np.array_equal(y, y_ref, equal_nan=True)
        assert np.array_equal(dx, dx_ref, equal_nan=True)
        assert np.array_equal(dcoords, dcoords_ref, equal_nan=True)

    def test_bilinear_sample_infinite_coords(self):
        # an infinite position reads NaN, without a warning from 0 * inf,
        # also when the other coordinate is integral (a zero weight)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5, 5))
        coords = rng.uniform(0.0, 4.0, size=(2, 4, 4))
        coords[0, 0, 0], coords[1, 1, 2], coords[:, 3, 3] = np.inf, -np.inf, np.inf
        coords[:, 2, 1] = [2.0, -np.inf]
        g = rng.normal(size=(2, 4, 4))
        xt, ct = Tensor(x, requires_grad=True), Tensor(coords, requires_grad=True)
        y, (dx, dcoords) = run_with_output_grad(lambda: ops.bilinear_sample(xt, ct), [xt, ct], g)
        with np.errstate(invalid="ignore"):
            y_ref, dx_ref, dcoords_ref = bilinear_sample_reference(x, coords, g)
        bad = np.isinf(coords).any(axis=0)
        assert np.isnan(y[:, bad]).all() and np.isfinite(y[:, ~bad]).all()
        assert np.array_equal(y, y_ref, equal_nan=True)
        assert np.array_equal(dx, dx_ref, equal_nan=True)
        assert np.array_equal(dcoords, dcoords_ref, equal_nan=True)

    @staticmethod
    def scan_inputs(length, seed, n_paths=2, c=3, n=5):
        """P x L x C sequences, the 8 stacked parameters and an output gradient."""
        rng = np.random.default_rng(seed)
        x = np.stack([rng.uniform(-1.5, 1.5, size=(length, c)) for _ in range(n_paths)])
        shapes = [(c, c), (1, c), (c, n), (1, n), (c, n), (1, n), (1, c), (n,)]
        per_path = [[rng.normal(scale=0.5, size=s) for s in shapes] for _ in range(n_paths)]
        return x, [np.stack(t) for t in zip(*per_path)], rng.normal(size=(n_paths, length, c))

    # around one block of the forward, and the length wtden scans at the desk grid
    SCAN_LENGTHS = [1, ops._SCAN_BLOCK - 1, ops._SCAN_BLOCK, ops._SCAN_BLOCK + 1, 1024]

    @pytest.mark.parametrize("length,n_paths",
                             [pytest.param(n, 2, id=str(n)) for n in SCAN_LENGTHS]
                             + [pytest.param(n, 1, id=f"{n}-P1") for n in SCAN_LENGTHS])
    def test_selective_scan(self, length, n_paths):
        """Gradients bitwise, except log_decay's: the backward sums its time
        axis block by block, which moves it by rounding only. The output is
        read out by matmul, not by a multiply and a sum over N, so it moves
        by rounding as well."""
        x, params, g = self.scan_inputs(length, seed=length, n_paths=n_paths)
        t = Tensor(x, requires_grad=True)
        ps = [Tensor(p, requires_grad=True) for p in params]
        y, grads = run_with_output_grad(lambda: ops.selective_scan(t, ps), [t, *ps], g)
        y_ref, gx_ref, gp_ref = selective_scan_reference(x, params, g)
        assert_rel_close(y, y_ref, 1e-15)
        assert np.array_equal(grads[0], gx_ref)
        for name, gp in zip(ops.SCAN_PARAMS, grads[1:]):
            if name == "log_decay":       # all zero at L = 1, where no state decays
                assert np.max(np.abs(gp - gp_ref[name])) <= 1e-13 * np.max(np.abs(gp_ref[name]))
            else:
                assert np.array_equal(gp, gp_ref[name]), name

    def test_selective_scan_keeps_one_block_of_state(self, traced_peak_mib):
        """A taped desk-shape scan (P=4, L=1024, C=8, N=16), forward and
        backward, peaks below 4.8 MiB: it peaks at 3.3 MiB. One L x P x C x N
        array is 4 MiB; keeping the whole exponent and state arrays for the
        backward peaked at 16.8, and keeping the whole-sequence projections
        (z, step, u and both gates) in the record at 6.1."""
        x, params, g = self.scan_inputs(1024, seed=5, n_paths=4, c=8, n=16)
        t = Tensor(x, requires_grad=True)
        ps = [Tensor(p, requires_grad=True) for p in params]
        peak = traced_peak_mib(
            lambda: run_with_output_grad(lambda: ops.selective_scan(t, ps), [t, *ps], g))
        assert peak < 4.8

    @pytest.mark.parametrize("length", SCAN_LENGTHS)
    def test_selective_scan_untaped_forward_equals_taped(self, length):
        x, params, _ = self.scan_inputs(length, seed=7, n_paths=4)
        t = Tensor(x, requires_grad=True)
        ps = [Tensor(p, requires_grad=True) for p in params]
        with Tape():
            taped = ops.selective_scan(t, ps).data
        with no_grad():
            untaped = ops.selective_scan(t, ps).data
        with Tape():
            constant = ops.selective_scan(x, params).data          # nothing requires grad
        assert np.array_equal(untaped, taped)
        assert np.array_equal(constant, taped)
        assert_rel_close(taped, selective_scan_reference(x, params, np.zeros_like(taped))[0],
                         1e-15)

    def test_selective_scan_matches_longdouble_scan(self):
        """At the desk shape (P=4, L=1024, C=8, N=16), the output lies within
        1e-14 of a step-by-step scan in extended precision."""
        x, params, _ = self.scan_inputs(1024, seed=11, n_paths=4, c=8, n=16)
        y = ops.selective_scan(x, params).data
        assert_rel_close(y, selective_scan_longdouble(x, params), 1e-14)


class TestConv2dContractions:
    """conv2d takes the tap form exactly where 5*C_out*Hp*Wp < 6*C_in*H_out*W_out
    and k > 1; everywhere else it is bitwise the im2col algorithm."""

    # (C_in, C_out, k, pad, H) on an H x (H+1) input: the desk model's
    # integrator, stsync offset, gate and update offset, and its 8 -> 8 warp
    # and aggregation convs; a reducing conv on a small map; then one channel
    # past the rule's boundary (5 * 9 * 4 * 5 < 6 * 26 * 2 * 3)
    TAP_SHAPES = [(16, 8, 3, 1, 32), (16, 2, 3, 1, 32), (16, 1, 7, 3, 32),
                  (8, 2, 3, 1, 32), (8, 8, 3, 1, 32), (10, 3, 3, 1, 2), (11, 3, 3, 1, 2),
                  (26, 9, 3, 1, 2)]
    # (C_in, C_out, k, pad, H): square convs on maps where padding adds a
    # fifth or more, an expanding conv, every 1x1 (channel-reducing too), and
    # the boundary itself (5 * 9 * 4 * 5 == 6 * 25 * 2 * 3), which keeps
    # im2col; each id's fifth field is the stride these cases were written for
    IM2COL_SHAPES = [pytest.param(*shape, id="-".join(map(str, (*shape[:4], 1, shape[4]))))
                     for shape in [(32, 32, 3, 1, 16), (128, 128, 3, 1, 8),
                                   (2, 3, 3, 1, 9), (8, 12, 1, 0, 32), (32, 32, 1, 0, 16),
                                   (8, 1, 1, 0, 32), (16, 2, 1, 0, 32), (25, 9, 3, 1, 2)]]

    @staticmethod
    def conv_case(c_in, c_out, k, pad, h, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in, h, h + 1))
        w = rng.normal(size=(c_out, c_in, k, k))
        g = rng.normal(size=(c_out, h + 2 * pad - k + 1, h + 2 + 2 * pad - k))
        b = rng.normal(size=(c_out, 1, 1))
        inputs = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        y, grads = run_with_output_grad(lambda: ops.conv2d(*inputs), inputs, g)
        return (x, w, b, g), (y, *grads)

    @pytest.mark.parametrize("c_in,c_out,k,pad,h", TAP_SHAPES)
    def test_tap_shapes_match_longdouble_sum(self, tap_calls, c_in, c_out, k, pad, h):
        (x, w, b, g), got = self.conv_case(c_in, c_out, k, pad, h, seed=c_in + 7 * k)
        assert tap_calls == [w.shape]
        for have, want in zip(got, conv2d_longdouble_reference(x, w, b, g, pad)):
            assert_rel_close(have, want, 1e-13)

    @pytest.mark.parametrize("c_in,c_out,k,pad,h", IM2COL_SHAPES)
    def test_other_shapes_stay_im2col(self, tap_calls, c_in, c_out, k, pad, h):
        (x, w, b, g), got = self.conv_case(c_in, c_out, k, pad, h, seed=c_out + k)
        assert tap_calls == []
        for have, want in zip(got, conv2d_im2col_reference(x, w, b, g, pad)):
            assert np.array_equal(have, want)

    def test_non_contiguous_input_taps(self, tap_calls):
        # bitwise the op on a contiguous copy, and within 1e-13 of the exact sum
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 6, 4)).transpose(2, 1, 0)       # 4 x 6 x 7, a strided view
        w = rng.normal(size=(1, 4, 3, 3))
        g = rng.normal(size=(1, 6, 7))
        b = rng.normal(size=(1, 1, 1))
        runs = []
        for data in (x, np.ascontiguousarray(x)):
            inputs = [Tensor(a, requires_grad=True) for a in (data, w, b)]
            y, grads = run_with_output_grad(lambda: ops.conv2d(*inputs), inputs, g)
            runs.append((y, *grads))
        assert tap_calls == [w.shape, w.shape]
        for strided, contiguous, exact in zip(*runs, conv2d_longdouble_reference(x, w, b, g, 1)):
            assert np.array_equal(strided, contiguous)
            assert_rel_close(strided, exact, 1e-13)

    def test_gradcheck_cases_take_taps(self, tap_calls):
        for seed in range(2):
            for name in ("conv2d_taps", "conv2d_taps_kernel", "conv2d_taps_bias"):
                fn, x = CASES[name](seed)
                fn(x)
        assert [shape[2] for shape in tap_calls] == [3, 3, 3, 7, 7, 7]

    def test_gradcheck_cases_take_im2col(self, tap_calls, monkeypatch):
        im2col_calls, im2col = [], ops._conv2d_im2col

        def spy(x, kernel, *rest):
            im2col_calls.append(kernel.shape)
            return im2col(x, kernel, *rest)
        monkeypatch.setattr(ops, "_conv2d_im2col", spy)
        for seed in range(2):
            for name in ("conv2d", "conv2d_kernel", "conv2d_bias"):
                fn, x = CASES[name](seed)
                fn(x)
        assert tap_calls == [] and im2col_calls == [(3, 2, 3, 3)] * 6

    # (C_in, C_out, k, H) on an H x H map: the desk model's im2col convs,
    # wtden's inner, skip and projection convs, the stsync anchor conv and
    # the decoder
    MODEL_IM2COL_SHAPES = [(128, 128, 3, 8), (32, 32, 3, 16), (32, 32, 1, 16), (8, 12, 1, 32),
                           (8, 1, 1, 32)]

    @pytest.mark.parametrize("c_in,c_out,k,h", MODEL_IM2COL_SHAPES)
    def test_model_shapes_keep_the_cropped_input_gradient(self, tap_calls, c_in, c_out, k, h):
        """On the model's im2col shapes, the input gradient over the H x W
        positions is bitwise the full correlation cropped to them."""
        rng = np.random.default_rng(c_in + k)
        x, w, b, g = (rng.normal(size=s) for s in [(c_in, h, h), (c_out, c_in, k, k),
                                                   (c_out, 1, 1), (c_out, h, h)])
        xt = Tensor(x, requires_grad=True)
        _, (dx,) = run_with_output_grad(lambda: ops.conv2d(xt, w, b), [xt], g)
        assert tap_calls == []
        assert np.array_equal(dx, dx_full_correlation_then_crop(w, g))

    def test_model_im2col_shapes(self, monkeypatch):
        # one taped desk training step runs exactly the shapes listed above
        calls, im2col = set(), ops._conv2d_im2col

        def spy(x, kernel, bias):
            calls.add((kernel.shape[1], kernel.shape[0], kernel.shape[2], x[0].shape[1]))
            return im2col(x, kernel, bias)
        monkeypatch.setattr(ops, "_conv2d_im2col", spy)
        train(PipelineConfig(training=TrainSpec(steps=1)))
        assert sorted(calls) == sorted(self.MODEL_IM2COL_SHAPES)

    def test_model_convs_that_take_taps(self, tap_calls):
        # one taped desk training step: the four channel-reducing convs and
        # the 8 -> 8 warp and aggregation convs on 32 x 32 maps
        train(PipelineConfig(training=TrainSpec(steps=1)))
        assert sorted(set(tap_calls)) == [(1, 16, 7, 7), (2, 8, 3, 3), (2, 16, 3, 3),
                                          (8, 8, 3, 3), (8, 16, 3, 3)]


NUMPY_ARRAYS = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)


def array_bytes() -> int:
    """The bytes of numpy array data that tracemalloc traces now."""
    snapshot = tracemalloc.take_snapshot().filter_traces([NUMPY_ARRAYS])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def scan_carry_bytes(args) -> int:
    """The bytes of selective_scan's P x C x N states entering each block
    after the first, for its arguments (x, params)."""
    n_paths, length, c = args[0].shape
    n = args[1][-1].shape[-1]
    return (-(-length // ops._SCAN_BLOCK) - 1) * n_paths * c * n * 8


class TestRecordsKeepOnlyInputs:
    """After a taped forward, every op's record keeps no numpy array but its
    inputs and its output: the backward rebuilds what it derives from them
    (patch matrices, padded and joined inputs, tap matrices, corner plans,
    scan projections and states, masks and exp branches) with the forward's
    own expressions. The one exception is selective_scan's P x C x N state
    entering each block after the first, which is smaller than its output."""

    @staticmethod
    def kept(monkeypatch, run):
        """(op name, output bytes, bytes kept beyond the output, bytes it may
        keep) for every call of an op in ``ops.DIFFERENTIABLE_OPS`` that run()
        makes under a live tape. A float argument is made an array before the
        call, so the constant the seam wraps it in counts as an input."""
        calls = []

        def measured(name, op):
            def call(*args, **kwargs):
                args = [np.asarray(a) if isinstance(a, float) else a for a in args]
                before = array_bytes()
                out = op(*args, **kwargs)
                may_keep = scan_carry_bytes(args) if name == "selective_scan" else 0
                calls.append((name, out.data.nbytes,
                              array_bytes() - before - out.data.nbytes, may_keep))
                return out
            return call
        for name in ops.DIFFERENTIABLE_OPS:
            monkeypatch.setattr(ops, name, measured(name, getattr(ops, name)))
        tracemalloc.start()
        try:
            with Tape():
                run()
        finally:
            tracemalloc.stop()
        return calls

    # (C_in, C_out, k, pad, H): the desk model's integrator conv, its 8 -> 8
    # warp conv and its wtden inner conv, the last on im2col
    @pytest.mark.parametrize("c_in,c_out,k,pad,h,taps", [(16, 8, 3, 1, 32, True),
                                                        (8, 8, 3, 1, 32, True),
                                                        (32, 32, 3, 1, 16, False)])
    def test_conv2d(self, monkeypatch, tap_calls, c_in, c_out, k, pad, h, taps):
        rng = np.random.default_rng(c_in)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in [(c_in, h, h), (c_out, c_in, k, k), (c_out, 1, 1)])
        [(_, _, kept, _)] = self.kept(monkeypatch, lambda: ops.conv2d(x, w, b))
        assert len(tap_calls) == taps
        assert kept <= 0

    def test_bilinear_sample_with_coordinate_gradient(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(8, 32, 32)), requires_grad=True)
        coords = Tensor(rng.uniform(-1.0, 32.0, size=(2, 32, 32)), requires_grad=True)
        [(_, _, kept, _)] = self.kept(monkeypatch, lambda: ops.bilinear_sample(x, coords))
        assert kept <= 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_grad_case(self, monkeypatch, case):
        fn, probe = CASES[case](0)     # fn looks its ops up on ops, so it calls the wrappers
        probe = Tensor(probe.data, requires_grad=True)
        calls = self.kept(monkeypatch, lambda: fn(probe))
        if case in ops.DIFFERENTIABLE_OPS:
            assert case in [name for name, *_ in calls]
        for name, _, kept, may_keep in calls:
            assert kept <= may_keep, (name, kept)

    def test_selective_scan_at_desk_shape(self, monkeypatch):
        """P=4, L=1024, C=8, N=16: 16 blocks, so 15 kept states of 4 KiB
        beside a 256 KiB output."""
        x, params, _ = TestKernelsMatchPreviousAlgorithms.scan_inputs(1024, seed=5, n_paths=4,
                                                                      c=8, n=16)
        t = Tensor(x, requires_grad=True)
        ps = [Tensor(p, requires_grad=True) for p in params]
        [(_, size, kept, may_keep)] = self.kept(monkeypatch, lambda: ops.selective_scan(t, ps))
        assert may_keep == 15 * 4096 and size == 256 * 1024
        assert kept <= may_keep


class TestTapeKeepsOnlyWhatRulesRead:
    """A tape record holds the output's gradient slot, not the output, and a
    rule that reads no array keeps none: once the caller drops an op's
    tensors, its output array and its input arrays are freed while the tape
    still waits for backward, which gives the gradients of a run that kept
    them all."""

    # op name -> (input shapes, the call on the input tensors)
    OPS = {
        "add": ([(3, 4), (4,)], lambda a, b: ops.add(a, b)),
        "sub": ([(3, 4), (3, 1)], lambda a, b: ops.sub(a, b)),
        "tsum": ([(3, 4)], lambda a: ops.tsum(a, axis=1)),
        "reshape": ([(3, 4)], lambda a: ops.reshape(a, (4, 3))),
        "transpose": ([(2, 3, 4)], lambda a: ops.transpose(a, (2, 0, 1))),
        "concat": ([(2, 3), (4, 3)], lambda a, b: ops.concat([a, b], axis=0)),
        "narrow": ([(6, 3)], lambda a: ops.narrow(a, 1, 3)),
        "take_rows": ([(5, 3)], lambda a: ops.take_rows(a, np.array([0, 2, 2, 4]))),
        "haar2d": ([(2, 4, 6)], lambda x: ops.haar2d(x)),
        "ihaar2d": ([(8, 2, 3)], lambda y: ops.ihaar2d(y)),
    }

    @classmethod
    def gradients(cls, name, drop: bool):
        shapes, call = cls.OPS[name]
        rng = np.random.default_rng(len(name))
        inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        slots = [t.slot for t in inputs]
        with Tape() as tape:
            out = call(*inputs)
            root = ops.tsum(out)
        arrays = [weakref.ref(t.data) for t in (out, *inputs)]
        if drop:
            del out, inputs
            assert [ref() is None for ref in arrays] == [True] * len(arrays)
        tape.backward(root)
        return [s.grad for s in slots]

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_dropped_arrays_are_freed(self, name):
        kept, dropped = self.gradients(name, drop=False), self.gradients(name, drop=True)
        assert all(g is not None for g in dropped)
        assert [g.tobytes() for g in dropped] == [g.tobytes() for g in kept]


def sigmoid_masked(x):
    """The two-sided sigmoid by boolean-mask indexing, the form ops._sigmoid replaced."""
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


class TestSigmoid:
    def test_bitwise_the_masked_form_at_edge_values(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 800.0, -800.0],
                            rng.normal(size=50_000), rng.uniform(-800.0, 800.0, 50_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ops._sigmoid(x)
            nan = ops._sigmoid(np.array([np.nan, -np.nan, np.nan]))
        assert got.tobytes() == sigmoid_masked(x).tobytes()
        assert np.isnan(nan).all()


def integrator_stream(stack, which):
    """The integrator's max (``which=0``) or avg (``which=1``) pooled stream,
    read through a collapsing conv pinned to pass that stream through."""
    c = stack.shape[1]
    integ = Integrator(c, np.random.default_rng(0))
    ker = np.zeros((c, 2 * c, 3, 3))
    for i in range(c):
        ker[i, which * c + i, 1, 1] = 1.0
    integ.kernel.data = ker
    integ.bias.data = np.zeros_like(integ.bias.data)
    return integ(stack).data


class TestGlobalPool:
    """Pooling over one axis: mean as the gates pool (``tmean``), and max and
    mean as the integrator pools its plain-array agent stack."""

    def test_singleton_axis_both_modes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 4, 4))
        for out in (integrator_stream(x, 0), integrator_stream(x, 1),
                    ops.tmean(Tensor(x), axis=0).data):
            assert np.array_equal(out, x[0])

    def test_avg_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 3, 3))
        got = ops.tmean(Tensor(x), axis=0).data
        want = sum(x[i] for i in range(4)) / 4.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            integrator_stream(np.ones((0, 3, 4, 4)), 0)


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-2, 2, size=(3, 3)))
        err = grad_check(lambda t: ops.tsum(ops.mul(t, t)), x, eps=1e-4)
        assert err < 1e-6

    def test_conv_scalar_fn(self):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(2, 2, 3, 3))
        x = Tensor(rng.uniform(-1.5, 1.5, size=(2, 5, 5)))
        err = grad_check(lambda t: ops.tsum(ops.conv2d(t, k, np.zeros((2, 1, 1)))), x)
        assert err < 1e-4

    def test_bilinear_scalar_fn(self):
        rng = np.random.default_rng(6)
        rr, cc = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
        coords = np.stack([rr + 0.37, cc - 0.21])
        x = Tensor(rng.uniform(-1.5, 1.5, size=(2, 5, 5)))
        err = grad_check(lambda t: ops.tsum(ops.bilinear_sample(t, coords)), x)
        assert err < 1e-4

    def test_eps_out_of_range_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            grad_check(lambda t: ops.tsum(t), x, eps=1e-2)

    def test_non_scalar_fn_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            grad_check(lambda t: ops.mul(t, t), x)

    def test_traced_kernels_keep_their_names(self):
        # the benchmark's --trace 1 run wraps these kernels by name
        for name in ("conv2d", "bilinear_sample", "linear_recurrence", "take_rows"):
            assert callable(getattr(ops, name, None)), name
            assert name in ops.DIFFERENTIABLE_OPS, name

    def test_every_registered_op_has_a_case(self):
        missing = [name for name in ops.DIFFERENTIABLE_OPS if name not in CASES]
        assert missing == []


class TestOpTable:
    def test_every_op_is_used_by_the_model(self):
        # an op is used if a model module imports it from .ops; add, sub, mul
        # and div are what the Tensor operators call. linear_recurrence is
        # exempt: the model never calls it, but perfbench's tracer binds it by
        # name and tests/test_perfbench_contract.py pins it.
        used = {"add", "sub", "mul", "div", "linear_recurrence"}
        for path in Path(ops.__file__).parent.glob("*.py"):
            if path.name == "ops.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ops":
                    used.update(alias.name for alias in node.names)
        assert [name for name in ops.DIFFERENTIABLE_OPS if name not in used] == []

    def test_only_the_seam_records(self):
        """Tape records are made in one place: the ``_op`` seam in ops.py. No
        module of the package or of the tests calls ``.record(`` elsewhere or
        names the old ``_record`` helper."""
        assert not hasattr(ops, "_record") and not hasattr(ops, "_diffop")
        files = sorted(Path(ops.__file__).parent.glob("*.py")) + sorted(HERE.glob("*.py"))
        stray = []
        for path in files:
            tree = ast.parse(path.read_text())
            seam = set()
            if path.name == "ops.py":
                seam = {id(node) for fn in tree.body
                        if isinstance(fn, ast.FunctionDef) and fn.name == "_op"
                        for node in ast.walk(fn)}
            for node in ast.walk(tree):
                records = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "record" and id(node) not in seam)
                names = {getattr(node, "attr", None), getattr(node, "id", None),
                         getattr(node, "name", None)}
                if records or "_record" in names:
                    stray.append(f"{path.name}:{node.lineno}")
        assert stray == []


def _frozen(arg, made):
    """arg with each float array, alone or in a list, made a Tensor built
    with requires_grad=False; the Tensors are appended to `made`."""
    if isinstance(arg, list):
        return [_frozen(a, made) for a in arg]
    if isinstance(arg, np.ndarray) and arg.dtype == np.float64:
        arg = Tensor(arg)
    if isinstance(arg, Tensor) and not arg.requires_grad:
        made.append(arg)
    return arg


class TestSeam:
    """Every op in ``ops.DIFFERENTIABLE_OPS``, run on the inputs of its
    registered gradient case, goes through the one recording seam."""

    @pytest.mark.parametrize("name", ops.DIFFERENTIABLE_OPS)
    def test_records_and_gradients(self, monkeypatch, name):
        op, calls, frozen, tape = getattr(ops, name), [], [], Tape()

        def spy(*args, **kwargs):
            if name != "bce_with_logits":          # its targets are labels, not a tensor
                args = [_frozen(a, frozen) for a in args]
            before = len(tape)
            out = op(*args, **kwargs)
            calls.append(len(tape) - before)
            return out
        monkeypatch.setattr(ops, name, spy)
        fn, x = CASES[name](0)        # fn looks the op up on ops, so it calls the spy
        calls.clear(), frozen.clear()
        probe = Tensor(x.data.copy(), requires_grad=True)
        with tape:
            with no_grad():
                fn(probe)
            assert calls and calls == [0] * len(calls)
            calls.clear()
            y = fn(probe)
        assert calls and calls == [1] * len(calls)
        tape.backward(y)
        assert probe.grad is not None
        assert [t for t in frozen if t.grad is not None] == []


class TestShapes:
    def test_reshape_transpose_roundtrip(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            r = np.random.default_rng(seed)
            x = r.normal(size=(2, 3, 4))
            t = Tensor(x)
            back = ops.transpose(ops.transpose(t, (2, 0, 1)), (1, 2, 0))
            assert np.array_equal(back.data, x)
            back2 = ops.reshape(ops.reshape(t, (6, 4)), (2, 3, 4))
            assert np.array_equal(back2.data, x)

    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        cat = ops.concat([Tensor(a), Tensor(b)], axis=0)
        assert np.array_equal(ops.narrow(cat, 0, 2).data, a)
        assert np.array_equal(ops.narrow(cat, 2, 4).data, b)

    def test_broadcasting_add_grad(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        with Tape() as tape:
            y = ops.tsum(ops.add(x, np.ones((3, 4))))
        tape.backward(y)
        assert np.array_equal(x.grad, np.full((3, 1), 4.0))


class TestDeterminismAndFiniteness:
    def test_bit_identical_across_runs(self):
        def build():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 8, 8)))
            k = Tensor(rng.normal(size=(4, 4, 3, 3)))
            return ops.sigmoid(ops.conv2d(x, k, np.zeros((4, 1, 1)))).data.tobytes()
        assert build() == build()

    def test_forward_ops_stay_finite(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, size=(3, 4, 4)))
        results = [
            exp(x), ops.sigmoid(x), softplus(x), ops.relu(x),
            ops.elu_plus_one(x), ops.softmax(x),
            ops.tmean(x),
        ]
        for r in results:
            assert np.all(np.isfinite(r.data))

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        with Tape() as tape:
            y = ops.tsum(ops.mul(x, x))
        assert len(tape) == 2
        tape.backward(y)
        assert len(tape) == 0
        assert np.array_equal(x.grad, np.full((2, 2), 6.0))

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            with no_grad():
                ops.mul(x, x)
            assert len(tape) == 0
            ops.mul(x, x)
            assert len(tape) == 1


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        params = {
            "block.weight": Parameter(rng.normal(size=(3, 4, 5)), "block.weight"),
            "block.bias": Parameter(rng.normal(size=(7,)), "block.bias"),
            "scalarish": Parameter(rng.normal(size=(1,)), "scalarish"),
        }
        path = tmp_path / "p.catp"
        save_params(path, params)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for name, p in params.items():
            assert np.array_equal(loaded[name], p.data)

    def test_header_layout(self, tmp_path):
        p = {"w": Parameter(np.arange(6.0).reshape(2, 3), "w")}
        path = tmp_path / "p.catp"
        save_params(path, p)
        raw = path.read_bytes()
        assert raw[:4] == b"CATP"
        assert int.from_bytes(raw[4:8], "little") == 1      # version
        assert int.from_bytes(raw[8:12], "little") == 1     # count
        assert int.from_bytes(raw[12:14], "little") == 1    # name length
        assert raw[14:15] == b"w"
        assert raw[15] == 2                                 # rank
        dims = [int.from_bytes(raw[16 + 4 * i:20 + 4 * i], "little") for i in range(2)]
        assert dims == [2, 3]
        assert np.frombuffer(raw[24:], dtype="<f8").tolist() == list(range(6))

    def test_assign_validates_names_and_shapes(self, tmp_path):
        p = {"w": Parameter(np.zeros((2, 2)), "w")}
        path = tmp_path / "p.catp"
        save_params(path, p)
        with pytest.raises(ValueError):
            assign_params({"other": Parameter(np.zeros((2, 2)), "other")},
                          load_params(path))
        with pytest.raises(ValueError):
            assign_params({"w": Parameter(np.zeros((3,)), "w")}, load_params(path))

    def test_assign_copies_into_arrays_of_its_own(self):
        # Adam writes parameters in place, so each gets a C-contiguous float64
        # array that shares no memory with the value it was given
        p = {"w": Parameter(np.zeros((2, 3)), "w")}
        for value in (np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(3, 2).T,
                      np.arange(6, dtype=np.float32).reshape(2, 3)):
            assign_params(p, {"w": value})
            data = p["w"].data
            assert data.dtype == np.float64 and data.flags.c_contiguous
            assert not np.may_share_memory(data, value)
            assert np.array_equal(data, value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.catp"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_params(path)
