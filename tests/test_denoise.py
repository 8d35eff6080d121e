"""Wavelet denoiser: scan orders, selective scan semantics, branch collapses."""

import math

import numpy as np
import pytest

from composed_ops import exp, index_axis, neg, softplus
from coopfuse import ops
from coopfuse.denoise import (SCAN_PATHS, WaveletDenoiser, interleaved_order,
                              progressive_order, scan_orders, subband_tokens,
                              token_subbands)
from coopfuse.tensor import Tape, Tensor
from coopfuse.world import stream
from gradcheck import grad_check
from test_tensor_ops import assert_rel_close


def random_bands(seed, c=2, h2=4, w2=4):
    """A random 4C x h2 x w2 subband tensor."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(4 * c, h2, w2)))


def tagged_bands(c=1, h2=2, w2=2):
    """Each element value encodes (band, position) for order inspection."""
    vals = 100 * np.arange(4.0)[:, None] + np.arange(h2 * w2, dtype=float)
    return Tensor(np.repeat(vals.reshape(4, 1, h2, w2), c, axis=1).reshape(4 * c, h2, w2))


def scan_tokens(bands, order):
    """The token sequence of one scan path, as scan_branch gathers it."""
    return ops.take_rows(subband_tokens(bands), order)


def path_order(bands, path):
    """Row `path` of scan_orders for the bands' grid."""
    _, h2, w2 = bands.data.shape
    return scan_orders(h2, w2)[0][path]


class TestScanOrders:
    def test_progressive_starts_at_hh_origin(self):
        seq = scan_tokens(tagged_bands(), progressive_order(2, 2))
        assert seq.data[0, 0] == 300.0        # HH(0,0)
        # whole-band order: HH block, then HL, LH, LL
        assert list(seq.data[[0, 4, 8, 12], 0]) == [300.0, 200.0, 100.0, 0.0]

    def test_interleaved_first_four_tokens(self):
        seq = scan_tokens(tagged_bands(), interleaved_order(2, 2))
        assert list(seq.data[:4, 0]) == [0.0, 100.0, 200.0, 300.0]

    def test_sequence_length(self):
        seq = scan_tokens(random_bands(0, c=3, h2=4, w2=8), interleaved_order(4, 8))
        assert seq.data.shape == (4 * 4 * 8, 3)

    def test_reverse_is_exact_reversal(self):
        """scan_orders' paths are progressive, interleaved, each then reversed."""
        bands = tagged_bands(c=2)
        assert len(scan_orders(2, 2)[0]) == SCAN_PATHS
        for path, order_fn in ((0, progressive_order), (2, interleaved_order)):
            assert np.array_equal(path_order(bands, path), order_fn(2, 2))
            fwd = scan_tokens(bands, path_order(bands, path))
            rev = scan_tokens(bands, path_order(bands, path + 1))
            assert np.array_equal(rev.data, fwd.data[::-1])

    @pytest.mark.parametrize("path", [0, 2], ids=["progressive_scan", "interleaved_scan"])
    @pytest.mark.parametrize("reverse", [0, 1], ids=["forward", "reverse"])
    def test_bitwise_roundtrip(self, path, reverse):
        for seed in range(25):
            bands = random_bands(seed)
            _, h2, w2 = bands.data.shape
            order = path_order(bands, path + reverse)
            seq = ops.take_rows(subband_tokens(bands), order)
            back = token_subbands(ops.take_rows(seq, np.argsort(order)), h2, w2)
            assert np.array_equal(back.data, bands.data)

    def test_orders_are_permutations(self):
        for perm in scan_orders(4, 8)[0]:
            assert np.array_equal(np.sort(perm), np.arange(4 * 4 * 8))


def one_path(c, n, seed):
    """A denoiser's initial scan parameters of its first path (P = 1), as
    requires-grad tensors; w_in holds the first C*N normals of the stream."""
    den = WaveletDenoiser(c, n, stream(seed, "s"))
    return {name: Tensor(t.data[:1].copy(), requires_grad=True)
            for name, t in zip(ops.SCAN_PARAMS, den.scan_params)}


def scan(ssm, values):
    """One path's L x C scan output: ops.selective_scan on a 1 x L x C sequence."""
    length, c = values.data.shape
    y = ops.selective_scan(ops.reshape(values, (1, length, c)), list(ssm.values()))
    return ops.reshape(y, (length, c))


class TestSelectiveScan:
    def pinned(self, c=2, n=1, step=1.0, gate_in=1.0, gate_out=1.0, skip=0.0,
               decay=1.0, seed=0):
        ssm = one_path(c, n, seed)
        ssm["w_step"].data = np.zeros((1, c, c))
        ssm["b_step"].data = np.full((1, 1, c), math.log(math.expm1(step)))  # softplus^-1
        ssm["w_in"].data = np.zeros((1, c, n))
        ssm["b_in"].data = np.full((1, 1, n), gate_in)
        ssm["w_out"].data = np.zeros((1, c, n))
        ssm["b_out"].data = np.full((1, 1, n), gate_out)
        ssm["skip"].data = np.full((1, 1, c), skip)
        ssm["log_decay"].data = np.full((1, n), math.log(decay))
        return ssm

    def test_zero_sequence_zero_output(self):
        ssm = one_path(3, 4, 1)
        out = scan(ssm, Tensor(np.zeros((10, 3))))
        assert np.array_equal(out.data, np.zeros((10, 3)))

    def test_infinite_decay_is_memoryless(self):
        ssm = self.pinned(step=1.0, gate_in=0.7, gate_out=0.5, skip=0.25,
                          decay=1e9)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 2))
        out = scan(ssm, Tensor(x)).data
        # exp(step * -1e9) = 0: h_t = step*gate_in*x_t, y = gate_out*h + skip*x
        expected = (1.0 * 0.7 * x) * 0.5 + 0.25 * x
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_single_token_identity(self):
        # step=1, gates=1, skip=0, decay=-1: h1 = x1, y1 = x1
        ssm = self.pinned(step=1.0, gate_in=1.0, gate_out=1.0, skip=0.0, decay=1.0)
        x = np.array([[0.37, -1.2]])
        out = scan(ssm, Tensor(x)).data
        assert np.max(np.abs(out - x)) < 1e-12

    def test_default_init_is_per_token_identity(self):
        ssm = one_path(3, 8, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 3))
        assert np.max(np.abs(scan(ssm, Tensor(x)).data - x)) < 1e-12

    def test_pinned_gates_linear(self):
        ssm = self.pinned(step=0.8, gate_in=1.0, gate_out=1.0, skip=0.5, decay=2.0)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(15, 2)), rng.normal(size=(15, 2))
        a, b = 1.3, -0.7
        lhs = scan(ssm, Tensor(a * x + b * y)).data
        rhs = a * scan(ssm, Tensor(x)).data + b * scan(ssm, Tensor(y)).data
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_forward_reverse_symmetry_memoryless(self):
        ssm = self.pinned(step=1.0, gate_in=0.4, gate_out=1.0, skip=0.3, decay=1e9)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 2))
        fwd = scan(ssm, Tensor(x)).data
        rev = scan(ssm, Tensor(x[::-1].copy())).data
        assert np.max(np.abs(rev - fwd[::-1])) < 1e-12

    def test_decay_stays_negative(self):
        decay = -np.exp(one_path(2, 6, 6)["log_decay"].data[0])
        assert np.all(decay < 0)
        assert np.allclose(decay, -np.arange(1, 7))

    def test_empty_sequence_rejected(self):
        ssm = one_path(2, 2, 7)
        with pytest.raises(ValueError):
            scan(ssm, Tensor(np.zeros((0, 2))))


def composed_scan(ssm, values, p=0):
    """Path p of the selective scan built from elementary tape ops: the
    recurrence terms, ops.linear_recurrence over them, then the read-out."""
    length, c = values.data.shape
    w_step, b_step, w_in, b_in, w_out, b_out, skip, log_decay = (
        index_axis(t, 0, p) for t in ssm.values())
    n = log_decay.data.shape[0]
    step = softplus(ops.matmul(values, w_step) + b_step)
    gate_in = ops.matmul(values, w_in) + b_in
    gate_out = ops.matmul(values, w_out) + b_out
    decay = neg(exp(log_decay))
    a = exp(ops.reshape(step, (length, c, 1)) * ops.reshape(decay, (1, 1, n)))
    drive = ops.reshape(step * values, (length, c, 1)) * ops.reshape(gate_in, (length, 1, n))
    states = ops.linear_recurrence(a, drive)
    y = ops.tsum(states * ops.reshape(gate_out, (length, 1, n)), axis=2)
    return y + skip * values


def denoiser_scan(den):
    """The denoiser's stacked scan parameters by SCAN_PARAMS name."""
    return dict(zip(ops.SCAN_PARAMS, den.scan_params))


def composed_scan_branch(den, bands):
    """WaveletDenoiser.scan_branch path by path, on composed_scan."""
    _, h2, w2 = bands.data.shape
    rows = subband_tokens(bands)
    total = None
    for p, order in enumerate(scan_orders(h2, w2)[0]):
        y = composed_scan(denoiser_scan(den), ops.take_rows(rows, order), p)
        back = token_subbands(ops.take_rows(y, np.argsort(order)), h2, w2)
        total = back if total is None else total + back
    enhanced = ops.conv2d(total, den.proj_kernel, den.proj_bias)
    return ops.ihaar2d(enhanced)


def perturb_scans(params, rng):
    """Move every path's scan parameters off their init, w_step, w_out and b_out too."""
    for p in range(len(params[0].data)):
        for t in params:
            t.data[p] = t.data[p] + 0.3 * rng.standard_normal(t.data[p].shape)


def run_with_grads(fn, inputs, weights):
    """fn's output and the gradients of sum(output * weights) on every input."""
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        y = fn()
        loss = ops.tsum(ops.mul(y, Tensor(weights)))
    tape.backward(loss)
    return y.data, [t.grad for t in inputs]


def assert_grads_close(got, want, rtol=1e-12):
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


class TestFusedScan:
    """ops.selective_scan against the scan composed from elementary ops."""

    @pytest.mark.parametrize("seed", range(4))
    def test_single_path_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        ssm = one_path(3, 5, seed)
        perturb_scans(list(ssm.values()), rng)
        x = Tensor(rng.normal(size=(40, 3)), requires_grad=True)
        inputs = [x, *ssm.values()]
        weights = rng.normal(size=(40, 3))
        y, grads = run_with_grads(lambda: scan(ssm, x), inputs, weights)
        y_ref, grads_ref = run_with_grads(lambda: composed_scan(ssm, x), inputs, weights)
        assert_rel_close(y, y_ref, 1e-15)          # the op reads out by matmul
        assert_grads_close(grads, grads_ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_scan_branch_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        den = WaveletDenoiser(3, 4, stream(seed, "d"))
        perturb_scans(den.scan_params, rng)
        bands = Tensor(rng.normal(size=(12, 8, 8)), requires_grad=True)
        inputs = [bands, *den.scan_params, den.proj_kernel, den.proj_bias]
        weights = rng.normal(size=(3, 16, 16))
        y, grads = run_with_grads(lambda: den.scan_branch(bands), inputs, weights)
        y_ref, grads_ref = run_with_grads(lambda: composed_scan_branch(den, bands), inputs,
                                          weights)
        assert_rel_close(y, y_ref, 1e-15)
        assert_grads_close(grads, grads_ref)

    def test_mismatched_inputs_rejected(self):
        params = list(one_path(2, 2, 8).values())
        with pytest.raises(ValueError):
            ops.selective_scan(Tensor(np.zeros((2, 4, 2))), params)    # two paths, one set
        with pytest.raises(ValueError):
            ops.selective_scan(Tensor(np.zeros((1, 4, 2))), params[:-1])


class TestScanBranch:
    def test_zero_bands_zero_output(self):
        den = WaveletDenoiser(2, 4, stream(0, "d"))
        out = den.scan_branch(Tensor(np.zeros((8, 4, 4))))
        assert np.max(np.abs(out.data)) < 1e-12

    def test_identity_paths_and_quarter_projection(self):
        c = 2
        den = WaveletDenoiser(c, 4, stream(1, "d"))
        # default SSM init is the per-token identity; pin the projection to
        # exactly I/4 so the four summed paths collapse back to the bands
        den.proj_kernel.data = np.eye(4 * c).reshape(4 * c, 4 * c, 1, 1) / 4.0
        den.proj_bias.data = np.zeros_like(den.proj_bias.data)
        bands = random_bands(11, c=c, h2=4, w2=4)
        out = den.scan_branch(bands)
        want = ops.ihaar2d(bands)
        assert np.max(np.abs(out.data - want.data)) < 1e-12

    def test_output_shape(self):
        den = WaveletDenoiser(3, 4, stream(2, "d"))
        bands = random_bands(12, c=3, h2=8, w2=8)
        assert den.scan_branch(bands).data.shape == (3, 16, 16)


class TestConvBranch:
    def pin_identity(self, den, c):
        ident16 = np.zeros((16 * c, 16 * c, 3, 3))
        for i in range(16 * c):
            ident16[i, i, 1, 1] = 1.0
        ident4 = np.zeros((4 * c, 4 * c, 3, 3))
        for i in range(4 * c):
            ident4[i, i, 1, 1] = 1.0
        den.inner_kernel.data = ident16
        den.inner_bias.data = np.zeros_like(den.inner_bias.data)
        den.skip_kernel.data = ident4
        den.skip_bias.data = np.zeros_like(den.skip_bias.data)

    def test_zero_bands_zero_output(self):
        den = WaveletDenoiser(2, 4, stream(3, "d"))
        assert np.max(np.abs(den.conv_branch(Tensor(np.zeros((8, 4, 4)))).data)) < 1e-12

    def test_identity_convs_collapse_to_double(self):
        c = 2
        den = WaveletDenoiser(c, 4, stream(4, "d"))
        self.pin_identity(den, c)
        bands = random_bands(13, c=c, h2=4, w2=4)
        out = den.conv_branch(bands)
        # inner path reconstructs F_wt exactly, skip adds another F_wt:
        # the outer synthesis then sees 2 * F_wt
        want = ops.ihaar2d(Tensor(bands.data * 2.0))
        assert np.max(np.abs(out.data - want.data)) < 1e-12

    def test_shape(self):
        den = WaveletDenoiser(8, 4, stream(5, "d"))
        bands = random_bands(14, c=8, h2=8, w2=8)
        assert den.conv_branch(bands).data.shape == (8, 16, 16)

    def test_odd_inner_dims_rejected(self):
        den = WaveletDenoiser(1, 2, stream(6, "d"))
        bands = random_bands(15, c=1, h2=3, w2=4)
        with pytest.raises(ValueError):
            den.conv_branch(bands)


class TestDenoiserForward:
    def test_zero_input_zero_output(self):
        den = WaveletDenoiser(2, 4, stream(7, "d"))
        out = den(Tensor(np.zeros((2, 8, 8))))
        assert np.max(np.abs(out.data)) < 1e-12

    def test_pinned_identity_gives_triple(self):
        c = 2
        den = WaveletDenoiser(c, 4, stream(8, "d"))
        den.proj_kernel.data = np.eye(4 * c).reshape(4 * c, 4 * c, 1, 1) / 4.0
        den.proj_bias.data = np.zeros_like(den.proj_bias.data)
        TestConvBranch().pin_identity(den, c)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(c, 8, 8))
        out = den(Tensor(x))
        assert np.max(np.abs(out.data - 3.0 * x)) < 1e-11

    def test_one_call_records_at_most_30(self):
        den = WaveletDenoiser(2, 4, stream(11, "d"))
        x = Tensor(np.random.default_rng(18).normal(size=(2, 8, 8)), requires_grad=True)
        with Tape() as tape:
            den(x)
        assert len(tape) <= 30

    def test_indivisible_dims_rejected(self):
        den = WaveletDenoiser(2, 4, stream(9, "d"))
        with pytest.raises(ValueError):
            den(Tensor(np.zeros((2, 6, 8))))

    def test_grad_check(self):
        den = WaveletDenoiser(2, 3, stream(10, "d"))
        rng = np.random.default_rng(17)
        # move off the zero-init plateau so the check exercises real paths
        den.inner_kernel.data += 0.05 * rng.standard_normal(den.inner_kernel.data.shape)
        den.skip_kernel.data += 0.05 * rng.standard_normal(den.skip_kernel.data.shape)
        ssm = denoiser_scan(den)
        for p in range(len(ssm["w_out"].data)):
            ssm["w_out"].data[p] = 0.3 * rng.standard_normal(ssm["w_out"].data[p].shape)
            ssm["b_out"].data[p] = 0.3 * rng.standard_normal(ssm["b_out"].data[p].shape)
        x = Tensor(rng.uniform(-1.2, 1.2, size=(2, 8, 8)))
        err = grad_check(lambda t: ops.tsum(den(t)), x, eps=1e-4)
        assert err < 1e-4
