"""Core tensor library: op semantics, gradients, serialization."""

import numpy as np
import pytest

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
