"""Orthonormal Haar transform: hand-derived coefficients, reconstruction, energy,
and the two tape ops against the transform composed from elementary ops."""

import numpy as np
import pytest

from composed_ops import index_axis
from coopfuse import ops
from coopfuse.tensor import Tape, Tensor
from coopfuse.wavelet import SubbandSet, haar_iwt2d, haar_wt2d
from gradcheck import grad_check


def block_tensor(a, b, c, d):
    """Single-channel 2x2 input [[a, b], [c, d]]."""
    return Tensor(np.array([[[a, b], [c, d]]], dtype=float))


class TestAnalysis:
    def test_constant_input(self):
        x = Tensor(np.full((3, 4, 4), 2.5))
        bands = haar_wt2d(x)
        assert np.allclose(bands.ll.data, 5.0)
        for t in (bands.lh, bands.hl, bands.hh):
            assert np.array_equal(t.data, np.zeros((3, 2, 2)))

    def test_unit_block(self):
        bands = haar_wt2d(block_tensor(1, 1, 1, 1))
        assert bands.ll.data[0, 0, 0] == 2.0
        assert bands.lh.data[0, 0, 0] == 0.0
        assert bands.hl.data[0, 0, 0] == 0.0
        assert bands.hh.data[0, 0, 0] == 0.0

    def test_column_alternating_block(self):
        # hand evaluation of [[1,-1],[1,-1]]: only the horizontal-detail
        # coefficient survives, value (1+1+1+1)/2 = 2
        bands = haar_wt2d(block_tensor(1, -1, 1, -1))
        assert bands.lh.data[0, 0, 0] == 2.0
        assert bands.ll.data[0, 0, 0] == 0.0
        assert bands.hl.data[0, 0, 0] == 0.0
        assert bands.hh.data[0, 0, 0] == 0.0

    def test_odd_dims_rejected_with_both_reported(self):
        with pytest.raises(ValueError) as e:
            haar_wt2d(Tensor(np.ones((1, 5, 6))))
        assert "5" in str(e.value) and "6" in str(e.value)


class TestSynthesis:
    def test_perfect_reconstruction(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(2, 8, 8)))
            back = haar_iwt2d(haar_wt2d(x))
            assert np.max(np.abs(back.data - x.data)) < 1e-12

    def test_zero_subbands_give_zero(self):
        z = Tensor(np.zeros((1, 2, 2)))
        out = haar_iwt2d(SubbandSet(z, z, z, z))
        assert np.array_equal(out.data, np.zeros((1, 4, 4)))

    def test_constant_ll_inverts_to_constant(self):
        ll = Tensor(np.full((1, 2, 2), 2.0))
        z = Tensor(np.zeros((1, 2, 2)))
        out = haar_iwt2d(SubbandSet(ll, z, z, z))
        assert np.allclose(out.data, 1.0)

    def test_mismatched_band_shapes_rejected(self):
        with pytest.raises(ValueError):
            SubbandSet(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 2))),
                       Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 3, 2))))


class TestConcatSplit:
    """ops.haar2d stacks the subbands as channel blocks LL, LH, HL, HH;
    haar_wt2d and haar_iwt2d split and restack that layout."""

    def test_distinct_constants_keep_order(self):
        stacked = Tensor(np.concatenate([np.full((1, 2, 2), v) for v in (1.0, 2.0, 3.0, 4.0)]))
        bands = haar_wt2d(ops.ihaar2d(stacked))
        assert ops.haar2d(ops.ihaar2d(stacked)).data.shape == (4, 2, 2)
        for band, v in zip(bands.bands(), (1.0, 2.0, 3.0, 4.0)):
            assert np.all(band.data == v)

    def test_split_roundtrip(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 8, 8)))
        stacked = ops.haar2d(x)
        bands = haar_wt2d(x)
        for i, band in enumerate(bands.bands()):
            assert np.array_equal(band.data, stacked.data[3 * i:3 * (i + 1)])
        assert np.array_equal(haar_iwt2d(bands).data, ops.ihaar2d(stacked).data)

    def test_shape_bookkeeping(self):
        stacked = ops.haar2d(Tensor(np.zeros((8, 16, 16))))
        assert stacked.data.shape == (32, 8, 8)
        assert ops.ihaar2d(stacked).data.shape == (8, 16, 16)


def composed_haar2d(x):
    """Haar analysis as a chain of reshape, index_axis, add/sub and scale records."""
    c, h, w = x.data.shape
    r = ops.reshape(x, (c, h // 2, 2, w // 2, 2))
    even_col, odd_col = index_axis(r, 4, 0), index_axis(r, 4, 1)
    a, b = index_axis(even_col, 2, 0), index_axis(odd_col, 2, 0)
    cc, d = index_axis(even_col, 2, 1), index_axis(odd_col, 2, 1)
    return ops.concat([ops.scale(a + b + cc + d, 0.5), ops.scale(a - b + cc - d, 0.5),
                       ops.scale(a + b - cc - d, 0.5), ops.scale(a - b - cc + d, 0.5)], axis=0)


def composed_ihaar2d(y):
    """Haar synthesis as a chain of narrow, add/sub, scale, reshape and concat records."""
    c4, h2, w2 = y.data.shape
    c = c4 // 4
    ll, lh, hl, hh = (ops.narrow(y, i * c, c) for i in range(4))
    a = ops.scale(ll + lh + hl + hh, 0.5)
    b = ops.scale(ll - lh + hl - hh, 0.5)
    cc = ops.scale(ll + lh - hl - hh, 0.5)
    d = ops.scale(ll - lh - hl + hh, 0.5)
    col5 = (c, h2, 1, w2, 1)
    top = ops.concat([ops.reshape(a, col5), ops.reshape(b, col5)], axis=4)
    bot = ops.concat([ops.reshape(cc, col5), ops.reshape(d, col5)], axis=4)
    return ops.reshape(ops.concat([top, bot], axis=2), (c, 2 * h2, 2 * w2))


def haar_inputs():
    """C = 1, 3 and a 4C input, non-square shapes, and a strided (non-contiguous) view."""
    rng = np.random.default_rng(21)
    wide = rng.normal(size=(3, 12, 20))
    return [pytest.param(rng.normal(size=(1, 4, 4)), id="c1"),
            pytest.param(rng.normal(size=(3, 6, 10)), id="c3"),
            pytest.param(rng.normal(size=(8, 8, 4)), id="c4k"),
            pytest.param(wide[:, ::2, 2:-2].transpose(0, 2, 1), id="strided")]


def value_and_grad(fn, x, weights):
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = fn(t)
        loss = ops.tsum(ops.mul(y, Tensor(weights)))
    tape.backward(loss)
    return y.data, t.grad


class TestHaarOps:
    """ops.haar2d and ops.ihaar2d against the composed transforms."""

    @pytest.mark.parametrize("x", haar_inputs())
    @pytest.mark.parametrize("op,composed", [(ops.haar2d, composed_haar2d),
                                             (ops.ihaar2d, composed_ihaar2d)],
                             ids=["haar2d", "ihaar2d"])
    def test_matches_composition(self, x, op, composed):
        if op is ops.ihaar2d and x.shape[0] % 4:
            x = np.repeat(x, 4, axis=0)[:, ::-1]       # 4k channels, a strided view again
        weights = np.random.default_rng(22).normal(size=op(Tensor(x)).data.shape)
        y, g = value_and_grad(op, x, weights)
        y_ref, g_ref = value_and_grad(composed, x, weights)
        assert np.array_equal(y, y_ref)
        # the backward adds the four terms in the order the composition
        # accumulates them, so the gradient matches bit for bit as well
        assert np.array_equal(g, g_ref)

    @pytest.mark.parametrize("x", haar_inputs())
    def test_inverse_round_trip(self, x):
        back = ops.ihaar2d(ops.haar2d(Tensor(x)))
        assert np.max(np.abs(back.data - x)) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 5, 6), (2, 4, 7), (1, 3, 9)])
    def test_odd_dims_rejected_with_both_reported(self, shape):
        with pytest.raises(ValueError) as e:
            ops.haar2d(Tensor(np.ones(shape)))
        assert str(shape) in str(e.value)

    @pytest.mark.parametrize("c", [1, 3, 6])
    def test_ihaar2d_needs_4k_channels(self, c):
        with pytest.raises(ValueError):
            ops.ihaar2d(Tensor(np.ones((c, 2, 2))))

    def test_one_tape_record_each(self):
        x = Tensor(np.ones((2, 4, 4)), requires_grad=True)
        with Tape() as tape:
            ops.ihaar2d(ops.haar2d(x))
        assert len(tape) == 2


class TestProperties:
    def test_energy_preservation(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(4, 16, 16))
            bands = haar_wt2d(Tensor(x))
            e_bands = sum(float((t.data ** 2).sum()) for t in bands.bands())
            e_x = float((x ** 2).sum())
            assert abs(e_bands - e_x) / e_x < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(2, 6, 6)), rng.normal(size=(2, 6, 6))
        a, b = 1.7, -0.4
        lhs = haar_wt2d(Tensor(a * x + b * y))
        rx, ry = haar_wt2d(Tensor(x)), haar_wt2d(Tensor(y))
        for l, u, v in zip(lhs.bands(), rx.bands(), ry.bands()):
            assert np.max(np.abs(l.data - (a * u.data + b * v.data))) < 1e-10

    def test_gradient_of_analysis(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1.5, 1.5, size=(2, 4, 4)))

        def f(t):
            bands = haar_wt2d(t)
            s = ops.tsum(ops.mul(bands.ll, bands.ll))
            for band in (bands.lh, bands.hl, bands.hh):
                s = ops.add(s, ops.tsum(ops.mul(band, band)))
            return s

        assert grad_check(f, x, eps=1e-4) < 1e-6
