"""Core tensor library: op semantics, gradients, serialization."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from coopfuse import ops
from coopfuse.gradcheck import grad_check, registered_cases
from coopfuse.serialize import assign_params, load_params, save_params
from coopfuse.tensor import Parameter, Tape, Tensor, no_grad


def conv2d_reference(x, w, stride=1, pad=0):
    """Direct six-nested-loop convolution, the oracle conv2d is checked against."""
    c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wdt + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for ki in range(k):
                        for kj in range(k):
                            acc += w[o, c, ki, kj] * xp[c, i * stride + ki, j * stride + kj]
                out[o, i, j] = acc
    return out


class TestConv2d:
    def test_sum_of_ones(self):
        out = ops.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 9.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6, 7))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = ops.conv2d(Tensor(x), Tensor(k))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(42 + stride * 10 + pad)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        got = ops.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
        want = conv2d_reference(x, w, stride=stride, pad=pad)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError) as e:
            ops.conv2d(Tensor(np.ones((2, 5, 5))), Tensor(np.ones((3, 4, 3, 3))))
        assert "(2, 5, 5)" in str(e.value) and "(3, 4, 3, 3)" in str(e.value)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 2, 2))))

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    def test_output_shape_formula(self):
        out = ops.conv2d(Tensor(np.ones((1, 10, 8))), Tensor(np.ones((1, 1, 3, 3))),
                         stride=2, pad=1)
        assert out.data.shape == (1, 5, 4)


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


def conv2d_im2col_reference(x, w, g, stride, pad):
    """conv2d by np.pad + sliding_window_view im2col: output, dx and dw for output gradient g."""
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    cols = win.transpose(0, 3, 4, 1, 2).reshape(c_in * k * k, h_out * w_out)
    wmat = w.reshape(c_out, c_in * k * k)
    y = (wmat @ cols).reshape(c_out, h_out, w_out)
    gm = g.reshape(c_out, h_out * w_out)
    dw = (gm @ cols.T).reshape(w.shape)
    if stride == 1:
        gp = np.pad(g, ((0, 0), (k - 1, k - 1), (k - 1, k - 1)))
        gwin = sliding_window_view(gp, (k, k), axis=(1, 2))
        gcols = gwin.transpose(0, 3, 4, 1, 2).reshape(c_out * k * k,
                                                      (h + 2 * pad) * (wd + 2 * pad))
        wrot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dxp = (wrot.reshape(c_in, c_out * k * k) @ gcols).reshape(xp.shape)
    else:
        dcols = (wmat.T @ gm).reshape(c_in, k, k, h_out, w_out)
        dxp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                dxp[:, ki:ki + stride * h_out:stride,
                    kj:kj + stride * w_out:stride] += dcols[:, ki, kj]
    return y, (dxp[:, pad:pad + h, pad:pad + wd] if pad else dxp), dw


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


def selective_scan_reference(xs, params, g):
    """selective_scan on whole L x P x C x N state arrays, scanned step by step.

    Returns the output, the gradient of every sequence and a dict of the
    stacked parameter gradients, for output gradient g.
    """
    x = np.stack(xs)
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = (
        np.stack([ps[k] for ps in params]) for k in range(len(ops.SCAN_PARAMS)))
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


def run_with_output_grad(op, inputs, g):
    """op() on the tape: its output, and the gradient of each of inputs for output gradient g."""
    with Tape() as tape:
        out = op()
        loss = ops.tsum(ops.mul(out, Tensor(g)))
    tape.backward(loss)
    return out.data, [t.grad for t in inputs]


class TestKernelsMatchPreviousAlgorithms:
    """conv2d, bilinear_sample and selective_scan give bitwise the values and
    gradients of the algorithms they replaced."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_conv2d(self, k, pad, stride):
        rng = np.random.default_rng(100 * k + 10 * pad + stride)
        x = rng.normal(size=(3, 9, 13))
        w = rng.normal(size=(4, 3, k, k))
        h_out, w_out = (9 + 2 * pad - k) // stride + 1, (13 + 2 * pad - k) // stride + 1
        g = rng.normal(size=(4, h_out, w_out))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y, (dx, dw) = run_with_output_grad(
            lambda: ops.conv2d(xt, wt, stride=stride, pad=pad), [xt, wt], g)
        y_ref, dx_ref, dw_ref = conv2d_im2col_reference(x, w, g, stride, pad)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(dx, dx_ref)
        assert np.array_equal(dw, dw_ref)

    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 1)])
    def test_conv2d_non_contiguous_input(self, k, pad):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(7, 6, 3)).transpose(2, 1, 0)       # 3 x 6 x 7, a strided view
        w = rng.normal(size=(2, 3, k, k))
        g = rng.normal(size=(2, 6, 7))
        wt = Tensor(w, requires_grad=True)
        y, (dw,) = run_with_output_grad(lambda: ops.conv2d(x, wt, pad=pad), [wt], g)
        y_ref, _, dw_ref = conv2d_im2col_reference(x, w, g, 1, pad)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(dw, dw_ref)

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

    @staticmethod
    def scan_inputs(length, seed, n_paths=2, c=3, n=5):
        rng = np.random.default_rng(seed)
        xs = [rng.uniform(-1.5, 1.5, size=(length, c)) for _ in range(n_paths)]
        shapes = [(c, c), (1, c), (c, n), (1, n), (c, n), (1, n), (1, c), (n,)]
        params = [[rng.normal(scale=0.5, size=s) for s in shapes] for _ in range(n_paths)]
        return xs, params, rng.normal(size=(n_paths, length, c))

    # around one block of the forward, and the length wtden scans at the desk grid
    SCAN_LENGTHS = [1, ops._SCAN_BLOCK - 1, ops._SCAN_BLOCK, ops._SCAN_BLOCK + 1, 1024]

    @pytest.mark.parametrize("length", SCAN_LENGTHS)
    def test_selective_scan(self, length):
        xs, params, g = self.scan_inputs(length, seed=length)
        ts = [Tensor(x, requires_grad=True) for x in xs]
        ps = [[Tensor(p, requires_grad=True) for p in path] for path in params]
        y, grads = run_with_output_grad(lambda: ops.selective_scan(ts, ps),
                                        [*ts, *(t for path in ps for t in path)], g)
        y_ref, gx_ref, gp_ref = selective_scan_reference(xs, params, g)
        assert np.array_equal(y, y_ref)
        for p, gx in enumerate(grads[:len(ts)]):
            assert np.array_equal(gx, gx_ref[p])
        for i, gp in enumerate(grads[len(ts):]):
            p, k = divmod(i, len(ops.SCAN_PARAMS))
            assert np.array_equal(gp, gp_ref[ops.SCAN_PARAMS[k]][p]), ops.SCAN_PARAMS[k]

    @pytest.mark.parametrize("length", SCAN_LENGTHS)
    def test_selective_scan_untaped_forward_equals_taped(self, length):
        xs, params, _ = self.scan_inputs(length, seed=7, n_paths=4)
        ts = [Tensor(x, requires_grad=True) for x in xs]
        ps = [[Tensor(p, requires_grad=True) for p in path] for path in params]
        with Tape():
            taped = ops.selective_scan(ts, ps).data
        with no_grad():
            untaped = ops.selective_scan(ts, ps).data
        with Tape():
            constant = ops.selective_scan(xs, params).data          # nothing requires grad
        assert np.array_equal(untaped, taped)
        assert np.array_equal(constant, taped)
        assert np.array_equal(taped, selective_scan_reference(xs, params, np.zeros_like(taped))[0])


class TestGlobalPool:
    def test_singleton_axis_both_modes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 4, 4))
        for mode in ("max", "avg"):
            out = ops.global_pool(Tensor(x), 0, mode)
            assert np.array_equal(out.data, x[0])

    def test_two_element_reduction(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, -1.0]]))
        assert np.array_equal(ops.global_pool(x, 0, "max").data, [5.0, 3.0])
        assert np.array_equal(ops.global_pool(x, 0, "avg").data, [3.0, 1.0])

    def test_avg_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 3, 3))
        got = ops.global_pool(Tensor(x), 0, "avg").data
        want = sum(x[i] for i in range(4)) / 4.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ops.global_pool(Tensor(np.ones((0, 3))), 0, "max")

    def test_max_grad_ties_to_lowest_index(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        with Tape() as tape:
            y = ops.tsum(ops.global_pool(x, 1, "max"))
        tape.backward(y)
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])


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
        err = grad_check(lambda t: ops.tsum(ops.conv2d(t, k, pad=1)), x)
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
        cases = registered_cases()
        missing = [name for name in ops.DIFFERENTIABLE_OPS if name not in cases]
        assert missing == []

    def test_registry_passes_three_seeds(self):
        for name, build in registered_cases().items():
            for seed in range(3):
                fn, x = build(seed)
                err = grad_check(fn, x, eps=1e-4)
                assert err < 1e-4, f"{name} seed {seed}: {err}"


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
        assert np.array_equal(ops.narrow(cat, 0, 0, 2).data, a)
        assert np.array_equal(ops.narrow(cat, 0, 2, 4).data, b)

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
            return ops.sigmoid(ops.conv2d(x, k, pad=1)).data.tobytes()
        assert build() == build()

    def test_forward_ops_stay_finite(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, size=(3, 4, 4)))
        results = [
            ops.exp(x), ops.sigmoid(x), ops.softplus(x), ops.relu(x),
            ops.elu_plus_one(x), ops.softmax(x, 0),
            ops.global_pool(x, 0, "max"), ops.tmean(x),
        ]
        for r in results:
            assert np.all(np.isfinite(r.data))

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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.catp"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_params(path)
