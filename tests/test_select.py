"""Adaptive selector: window scoring, top-k masks, propagation, token paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from composed_ops import index_axis
from coopfuse import ops
from coopfuse.select import (FeatureSelector, InvertedBottleneck, LinearAttention,
                             SplitAttention, retained_windows, window_pixels, window_scores)
from coopfuse.sync import identity_kernel
from coopfuse.tensor import Tape, Tensor
from coopfuse.world import stream
from gradcheck import grad_check
from select_reference import (ReferenceGrid, reference_propagate, reference_scores,
                              reference_selector, reference_topk)


def all_eligible(h, w):
    return np.ones((h, w), dtype=bool)


def propagate(eligible, keep, scale):
    """The next scale's eligibility, as ``FeatureSelector`` narrows it:
    eligible AND the pixels of the kept windows."""
    return eligible & window_pixels(keep, scale, *eligible.shape)


class TestWindowGrid:
    def test_tiling_is_exact(self):
        assert window_scores(np.zeros((1, 8, 12)), 4, all_eligible(8, 12)).size == 2 * 3
        pix = window_pixels(np.arange(6, dtype=float), 4, 8, 12)
        assert pix.shape == (8, 12)
        # every pixel belongs to exactly one window
        for b in range(6):
            assert (pix == b).sum() == 16

    def test_descriptors_are_window_means(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(3, 8, 8))
        # one channel's scores are its window means
        d = np.stack([window_scores(f[[i]], 4, all_eligible(8, 8)) for i in range(3)], axis=1)
        assert d.shape == (4, 3)
        assert d[0] == pytest.approx(f[:, :4, :4].mean(axis=(1, 2)))
        assert d[3] == pytest.approx(f[:, 4:, 4:].mean(axis=(1, 2)))


class TestScoreBlocks:
    def test_identical_blocks_identical_scores(self):
        f = np.tile(np.arange(4.0).reshape(1, 2, 2), (2, 4, 4))
        s = window_scores(f, 2, all_eligible(8, 8))
        assert np.allclose(s, s[0])

    def test_channel_mean_oracle(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(3, 8, 8))
        s = window_scores(f, 4, all_eligible(8, 8))
        want = [f[:, :4, :4].mean(), f[:, :4, 4:].mean(),
                f[:, 4:, :4].mean(), f[:, 4:, 4:].mean()]
        assert np.allclose(s, want)

    def test_ineligible_block_scores_minus_inf(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(2, 8, 8))
        elig = all_eligible(8, 8)
        # fully ineligible top-left window
        elig[:4, :4] = False
        s = window_scores(f, 4, elig)
        assert s[0] == -np.inf and np.all(np.isfinite(s[1:]))
        assert not retained_windows(s, 1.0)[0]


class TestTopK:
    def test_half_retention_picks_two_best(self):
        keep = retained_windows(np.array([0.9, 0.1, 0.5, 0.7]), 0.5)
        assert keep.dtype == bool and keep.sum() == 2
        assert np.array_equal(keep, [1, 0, 0, 1])

    def test_full_retention_selects_all(self):
        keep = retained_windows(np.array([0.2, -1.0, 0.4, 0.0]), 1.0)
        assert keep.sum() == 4
        assert np.all(keep)

    def test_tie_breaks_to_lowest_index(self):
        keep = retained_windows(np.zeros(4), 0.25)
        assert keep.sum() == 1
        assert np.array_equal(keep, [1, 0, 0, 0])

    def test_retained_count_formula(self):
        rng = np.random.default_rng(3)
        # 0.56 * 50 rounds to 28.000000000000004, which the 1e-9 slack keeps at 28
        for k, n_inelig in [(0.3, 0), (0.1, 4), (0.62, 10), (1.0, 3), (1e-300, 5), (0.56, 14)]:
            scores = rng.normal(size=64)       # a 16 x 16 grid of 2 x 2 windows
            scores[rng.choice(64, size=n_inelig, replace=False)] = -np.inf
            keep = retained_windows(scores, k)
            n_elig = 64 - n_inelig
            assert keep.sum() == max(1, int(np.ceil(k * n_elig - 1e-9)))

    def test_pixel_mask_replicates_blocks(self):
        keep = retained_windows(np.array([1.0, 0.0, 0.0, 0.0]), 0.25)
        want = np.zeros((4, 4), dtype=bool)
        want[:2, :2] = True
        assert np.array_equal(window_pixels(keep, 2, 4, 4), want)


class TestPropagateMask:
    def test_nothing_discarded_keeps_mask(self):
        keep = retained_windows(np.arange(4.0), 1.0)
        init = all_eligible(4, 4)
        assert np.array_equal(propagate(init, keep, 2), init)

    def test_everything_discarded_zeroes_mask(self):
        keep = np.zeros(4, dtype=bool)        # every window discarded
        out = propagate(all_eligible(4, 4), keep, 2)
        assert np.array_equal(out, np.zeros((4, 4), dtype=bool))

    def test_set_difference_oracle(self):
        keep = retained_windows(np.array([3.0, 2.0, 1.0, 0.0]), 0.5)
        out = propagate(all_eligible(4, 4), keep, 2)
        assert np.array_equal(out, window_pixels(keep, 2, 4, 4))


class TestLinearAttention:
    def test_single_token(self):
        c = 3
        att = LinearAttention(c, stream(0, "a"))
        rng = np.random.default_rng(4)
        att.wg.data = rng.normal(size=(c, c))
        x = rng.normal(size=(1, c))
        out = att(Tensor(x)).data
        v = x @ att.wv.data
        gate = x @ att.wg.data
        assert np.max(np.abs(out - (x + gate * v))) < 1e-12

    def test_identical_tokens_identical_outputs(self):
        att = LinearAttention(3, stream(1, "a"))
        x = np.tile(np.array([[0.4, -0.2, 1.1]]), (5, 1))
        out = att(Tensor(x)).data
        assert np.allclose(out, out[0])

    def test_uniform_kernel_two_token_mean(self):
        c = 2
        att = LinearAttention(c, stream(2, "a"))
        att.wq.data = np.zeros((c, c))     # feature map of 0 is 1: uniform scores
        att.wk.data = np.zeros((c, c))
        att.wv.data = np.eye(c)            # value projection pinned to identity
        att.wg.data = np.eye(c) * 0.0
        att.bg.data = np.ones((1, c))      # gate 1: output = token + attention
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        out = att(Tensor(x)).data
        mean = x.mean(axis=0)
        assert np.max(np.abs(out - (x + mean))) < 1e-12

    def test_zero_gate_is_identity(self):
        att = LinearAttention(4, stream(3, "a"))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 4))
        assert np.array_equal(att(Tensor(x)).data, x)

class TestInvertedBottleneck:
    def test_zero_weights_identity(self):
        ib = InvertedBottleneck(3, stream(0, "b"))
        ib.w1.data = np.zeros_like(ib.w1.data)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        assert np.array_equal(ib(Tensor(x)).data, x)

    def test_empty_input_empty_output(self):
        ib = InvertedBottleneck(3, stream(1, "b"))
        out = ib(Tensor(np.zeros((0, 3))))
        assert out.data.shape == (0, 3)

    def test_tokenwise_permutation_equivariance(self):
        ib = InvertedBottleneck(3, stream(2, "b"))
        rng = np.random.default_rng(7)
        ib.w2.data = rng.normal(size=ib.w2.data.shape)
        x = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        out = ib(Tensor(x)).data
        out_p = ib(Tensor(x[perm])).data
        assert np.max(np.abs(out_p - out[perm])) < 1e-12


class TestSelectorForward:
    def make(self, c=2, scales=(2, 4), k=0.5, seed=0):
        return FeatureSelector(c, scales, k, stream(seed, "s"))

    def test_full_passthrough_when_pinned(self):
        c = 2
        sel = self.make(c=c, scales=(4,), k=1.0, seed=1)
        sel.attention.wg.data = np.zeros((c, c))
        sel.attention.bg.data = np.zeros((1, c))
        sel.bottleneck.w2.data = np.zeros_like(sel.bottleneck.w2.data)
        sel.agg_kernel.data = identity_kernel(c)
        sel.agg_bias.data = np.zeros_like(sel.agg_bias.data)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(c, 8, 8))
        out = sel(Tensor(x))
        assert np.max(np.abs(out.data - x)) < 1e-12

    def test_identical_scale_outputs_collapse(self):
        # two scales, k=1 everywhere, pinned identity paths: both scale
        # outputs equal the input, and convex split weights reproduce it
        c = 2
        sel = self.make(c=c, scales=(2, 4), k=1.0, seed=2)
        sel.attention.wg.data = np.zeros((c, c))
        sel.bottleneck.w2.data = np.zeros_like(sel.bottleneck.w2.data)
        sel.agg_kernel.data = identity_kernel(c)
        sel.agg_bias.data = np.zeros_like(sel.agg_bias.data)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(c, 8, 8))
        out = sel(Tensor(x))
        assert np.max(np.abs(out.data - x)) < 1e-10

    def test_split_attention_weights_convex(self):
        sp = SplitAttention(4, stream(3, "sp"))
        rng = np.random.default_rng(10)
        stacked = Tensor(rng.normal(size=(3, 4, 8, 8)))      # three 4 x 8 x 8 scale outputs
        w = sp.weights(stacked).data
        assert w.shape == (3, 4)
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-9

    def test_indivisible_scale_rejected(self):
        sel = self.make(scales=(3,))
        with pytest.raises(ValueError):
            sel(Tensor(np.zeros((2, 8, 8))))

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.data())
    def test_every_scale_routes_a_token(self, data):
        """On a grid the config allows (a multiple of 4, every scale dividing
        it), any retention in (0, 1] and a finite feature, every scale hands
        attention at least one token and the output is finite: the facts the
        stage no longer checks at run time."""
        c = 2
        h, w = (data.draw(st.sampled_from((4, 8, 12, 16))) for _ in range(2))
        divisors = [s for s in range(1, math.gcd(h, w) + 1) if h % s == 0 and w % s == 0]
        scales = data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
        k = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        x = data.draw(hnp.arrays(np.float64, (c, h, w),
                                 elements=st.floats(-10.0, 10.0, allow_nan=False)))
        sel = self.make(c=c, scales=tuple(scales), k=k, seed=5)
        rng = np.random.default_rng(5)
        sel.attention.wg.data = 0.2 * rng.standard_normal((c, c))
        sel.bottleneck.w2.data = 0.2 * rng.standard_normal(sel.bottleneck.w2.data.shape)
        attention, tokens_seen = sel.attention, []

        def spy(tokens):
            tokens_seen.append(tokens.data.shape[0])
            return attention(tokens)

        sel.attention = spy
        out = sel(Tensor(x))
        assert len(tokens_seen) == len(scales)
        assert min(tokens_seen) >= 1
        assert np.all(np.isfinite(out.data))

    def test_grad_check(self):
        c = 2
        sel = self.make(c=c, scales=(2, 4), k=0.5, seed=4)
        rng = np.random.default_rng(11)
        sel.attention.wg.data = 0.2 * rng.standard_normal((c, c))
        sel.bottleneck.w2.data = 0.2 * rng.standard_normal(sel.bottleneck.w2.data.shape)
        x = Tensor(rng.uniform(-1.2, 1.2, size=(c, 8, 8)))
        err = grad_check(lambda t: ops.tsum(sel(t)), x, eps=1e-4)
        assert err < 1e-4


def split_attention_loop(sp, scale_outputs):
    """SplitAttention one scale at a time: pool and score each output, softmax
    the stacked logits over scales, then add up the weighted outputs."""
    c = scale_outputs[0].data.shape[0]
    logits = []
    for f in scale_outputs:
        pooled = ops.reshape(ops.tmean(ops.tmean(f, axis=2), axis=1), (1, -1))
        z = ops.relu(ops.matmul(pooled, sp.w1, sp.b1))
        logits.append(ops.matmul(z, sp.w2))
    w = ops.softmax(ops.concat(logits, axis=0))
    out = None
    for i, f in enumerate(scale_outputs):
        term = ops.reshape(index_axis(w, 0, i), (c, 1, 1)) * f
        out = term if out is None else out + term
    return out


class TestSplitAttentionMatchesLoop:
    @pytest.mark.parametrize("n_scales", [1, 2, 3])
    def test_outputs_and_gradients(self, n_scales):
        rng = np.random.default_rng(50 + n_scales)
        sp = SplitAttention(4, stream(n_scales, "sp"))
        sp.b1.data = 0.1 * rng.normal(size=sp.b1.data.shape)
        outs = [Tensor(rng.normal(size=(4, 8, 6)), requires_grad=True) for _ in range(n_scales)]
        inputs = [*outs, sp.w1, sp.b1, sp.w2]
        g = rng.normal(size=(4, 8, 6))
        results = []
        for fn in (sp, lambda fs: split_attention_loop(sp, fs)):
            for t in inputs:
                t.grad = None
            with Tape() as tape:
                out = fn(outs)
                loss = ops.tsum(ops.mul(out, Tensor(g)))
            tape.backward(loss)
            results.append([out.data, *(t.grad for t in inputs)])
        names = ["out", *(f"f{i}" for i in range(n_scales)), "w1", "b1", "w2"]
        got, want = (dict(zip(names, r)) for r in results)
        for name in names:
            # b1 shifts every scale's hidden units alike, so the softmax over
            # scales leaves it a gradient of rounding noise: measure it on w1's
            scale = np.max(np.abs(want["w1" if name == "b1" else name]))
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


class TestMaskAlgebraProperties:
    def test_partition_exactness(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            f = r.normal(size=(2, 8, 8))
            scores = r.normal(size=16)         # an 8 x 8 grid of 2 x 2 windows
            k = float(r.uniform(0.05, 1.0))
            pixels = window_pixels(retained_windows(scores, k), 2, 8, 8)
            selected = pixels * f
            unselected = ~pixels * f
            assert np.array_equal(selected + unselected, f)

    def test_mask_monotone_across_scales(self):
        for trial in range(50):
            rng = np.random.default_rng(200 + trial)
            f = rng.normal(size=(2, 16, 16))
            elig = all_eligible(16, 16)
            for s in (2, 4, 8):
                scores = window_scores(f, s, elig)
                if not np.any(np.isfinite(scores)):
                    break
                nxt = propagate(elig, retained_windows(scores, 0.4), s)
                assert np.all(nxt <= elig)
                elig = nxt

    def test_score_scaling_invariance(self):
        for trial in range(50):
            r = np.random.default_rng(300 + trial)
            scores = r.normal(size=16)         # a 16 x 16 grid of 4 x 4 windows
            base = retained_windows(scores, 0.3)
            for c in (0.5, 2.0, 10.0):
                scaled = retained_windows(scores * c, 0.3)
                assert np.array_equal(base, scaled)


def reference_inputs():
    """(C x H x W feature, scales, k) cases: random features over five scale
    sets with k from 0.01 to 1.0, some with tied rows, then features with
    some or every value NaN or infinite."""
    scale_sets = [(4, 8), (8, 4), (2, 4, 8), (4,), (6, 4)]
    ks = np.linspace(0.01, 1.0, 30)
    cases = []
    for i in range(30):
        rng = np.random.default_rng(900 + i)
        f = rng.normal(size=(3, 24, 24))
        if i % 3 == 0:              # every row alike: the windows of one column tie
            f = np.repeat(f[:, :1, :], 24, axis=1)
        cases.append((f, scale_sets[i % 5], float(ks[i])))
    for i in range(20):
        rng = np.random.default_rng(950 + i)
        f = rng.normal(size=(3, 24, 24))
        bad = [np.nan, np.inf, -np.inf][i % 3]
        if i % 4 == 0:
            f[:] = bad
        else:
            f[rng.random(f.shape) < 0.1 * (i % 4)] = bad
        cases.append((f, scale_sets[i % 5], float(ks[(7 * i) % 30])))
    return cases


def selector_run(sel, forward, feature, weights):
    """forward(sel, x)'s output bytes and those of the gradients of
    sum(output * weights) on x and on every selector parameter."""
    x = Tensor(feature.copy(), requires_grad=True)
    params = list(sel.parameters().values())
    for t in params:
        t.grad = None
    with np.errstate(all="ignore"), Tape() as tape:
        out = forward(sel, x)
        tape.backward(ops.tsum(ops.mul(out, Tensor(weights))))
    return [out.data.tobytes(), x.grad.tobytes(),
            *(b"" if t.grad is None else t.grad.tobytes() for t in params)]


class TestMatchesReference:
    """Window scores, masks and ``FeatureSelector`` values and gradients equal
    the reference mask code's (``select_reference``) bitwise, NaN and
    infinite features included."""

    def test_masks_match_bitwise(self):
        for f, scales, k in reference_inputs():
            _, h, w = f.shape
            elig, ref_elig = all_eligible(h, w), np.ones((h, w))
            for s in scales:
                grid = ReferenceGrid(h, w, s)
                with np.errstate(all="ignore"):
                    scores = window_scores(f, s, elig)
                    ref_scores = reference_scores(f, grid, ref_elig)
                assert scores.tobytes() == ref_scores.tobytes()
                if not np.any(np.isfinite(scores)):
                    break
                keep = retained_windows(scores, k)
                ref = reference_topk(ref_scores, k, grid)
                assert np.array_equal(keep, ref.block_mask.reshape(-1) == 1.0)
                assert keep.sum() == ref.retained_count
                assert np.array_equal(window_pixels(keep, s, h, w), ref.pixel_mask == 1.0)
                elig = propagate(elig, keep, s)
                ref_elig = reference_propagate(ref_elig, ref)
                assert np.array_equal(elig, ref_elig == 1.0)

    def test_selector_values_and_gradients_match_bitwise(self):
        for i, (f, scales, k) in enumerate(reference_inputs()):
            sel = FeatureSelector(3, scales, k, stream(i, "ref"))
            rng = np.random.default_rng(i)
            # move the zero-initialised gates and projections off zero
            sel.attention.wg.data = 0.2 * rng.standard_normal(sel.attention.wg.data.shape)
            sel.bottleneck.w2.data = 0.2 * rng.standard_normal(sel.bottleneck.w2.data.shape)
            weights = rng.normal(size=f.shape)
            got = selector_run(sel, FeatureSelector.__call__, f, weights)
            want = selector_run(sel, reference_selector, f, weights)
            assert got == want, (i, scales, k)
