"""Temporal synchronization: integration, offset/warp, gating, rollout, anchoring."""

import numpy as np
import pytest

from composed_ops import index_axis
from coopfuse import ops, pipeline as pipeline_module, sync as sync_module
from coopfuse.ops import _op
from coopfuse.pipeline import Pipeline, PipelineConfig
from coopfuse.sync import Integrator, TemporalSync, base_grid, identity_kernel
from coopfuse.tensor import Tape, Tensor
from coopfuse.world import make_scenario, perturb_pose, render_bev, stream, transform_to_ego
from gradcheck import grad_check

C, H, W = 4, 8, 8


def make_sync(seed=0, c=C, m=4):
    return TemporalSync(c, stream(seed, "t"), n_anchor_points=m)


def pin_identity(sync):
    """Exact identity warps, zero offsets, zero gate weights (alpha = 0.5)."""
    c = sync.warp_bias.data.shape[0]
    sync.offset_kernel.data = np.zeros_like(sync.offset_kernel.data)
    sync.offset_bias.data = np.zeros_like(sync.offset_bias.data)
    sync.update_offset_kernel.data = np.zeros_like(sync.update_offset_kernel.data)
    sync.update_offset_bias.data = np.zeros_like(sync.update_offset_bias.data)
    sync.warp_kernel.data = identity_kernel(c)
    sync.warp_bias.data = np.zeros_like(sync.warp_bias.data)
    sync.update_warp_kernel.data = identity_kernel(c)
    sync.update_warp_bias.data = np.zeros_like(sync.update_warp_bias.data)
    for p in (sync.gate_spatial_kernel, sync.gate_spatial_bias, sync.gate_channel_bias):
        p.data = np.zeros_like(p.data)


@_op("a")
def max_reduce(a, axis: int):
    """The former ``ops.max_reduce`` forward; the views it pooled never took
    a gradient, so its backward never ran."""
    return np.max(a, axis=axis), None


def fuse_taped(pipe, ego_view, pairs, ego_pose):
    """``pipeline.fuse`` and ``Integrator.__call__`` as taped ops: the views
    stacked by reshape and concat, pooled by max_reduce and tmean, joined by
    concat, then the conv."""
    cfg, integ = pipe.cfg, pipe.integrator
    shape = (1, cfg.channels, cfg.height, cfg.width)
    parts = [ops.reshape(ego_view(), shape)]
    for view, pose in pairs:
        parts.append(ops.reshape(transform_to_ego(view(), pose, ego_pose, cfg.cell_size), shape))
    stack = parts[0] if len(parts) == 1 else ops.concat(parts, axis=0)
    pooled = ops.concat([max_reduce(stack, 0), ops.tmean(stack, axis=0)], axis=0)
    return ops.conv2d(pooled, integ.kernel, integ.bias)


def pooled_streams(integ, stack, monkeypatch):
    """The max and mean maps the integrator hands its conv for `stack`, as
    two channel blocks."""
    seen, conv = [], sync_module.conv2d
    monkeypatch.setattr(sync_module, "conv2d",
                        lambda x, *a, **kw: seen.append(x) or conv(x, *a, **kw))
    out = integ(stack)
    assert out.data.shape == stack.shape[1:]
    mx, av = seen[0]
    return mx, av


class TestIntegrator:
    def test_single_agent_reduction(self, monkeypatch):
        # max and avg of a singleton both equal the lone agent; the collapsing
        # conv then sees two identical streams
        x = np.random.default_rng(0).normal(size=(1, C, H, W))
        mx, av = pooled_streams(Integrator(C, stream(0, "i")), x, monkeypatch)
        assert np.array_equal(mx, x[0]) and np.array_equal(av, x[0])

    def test_two_element_reduction(self, monkeypatch):
        x = np.array([[1.0, 3.0], [5.0, -1.0]]).reshape(2, 1, 1, 2)
        mx, av = pooled_streams(Integrator(1, stream(0, "i")), x, monkeypatch)
        assert np.array_equal(mx, [[[5.0, 3.0]]]) and np.array_equal(av, [[[3.0, 1.0]]])

    def test_duplicate_agent_matches_single(self):
        integ = Integrator(C, stream(1, "i"))
        g = np.random.default_rng(1).normal(size=(C, H, W))
        one = integ(np.stack([g]))
        two = integ(np.stack([g, g]))
        assert np.max(np.abs(one.data - two.data)) < 1e-12

    def test_pinned_average_identity(self):
        # conv frozen to average the max and avg streams pointwise
        integ = Integrator(2, stream(2, "i"))
        ker = np.zeros((2, 4, 3, 3))
        for c in range(2):
            ker[c, c, 1, 1] = 0.5
            ker[c, 2 + c, 1, 1] = 0.5
        integ.kernel.data = ker
        integ.bias.data = np.zeros_like(integ.bias.data)
        a = np.full((2, 4, 4), 1.0) * np.array([1.0, 3.0])[:, None, None]
        b = np.full((2, 4, 4), 1.0) * np.array([5.0, -1.0])[:, None, None]
        out = integ(np.stack([a, b]))
        # per channel: (max + avg) / 2 = ([5,3] + [3,1]) / 2 = [4,2]
        assert np.allclose(out.data[0], 4.0)
        assert np.allclose(out.data[1], 2.0)

    @pytest.mark.parametrize("n_pairs", [0, 2, 4])
    def test_fuse_matches_the_taped_form(self, n_pairs):
        """Values, tape records and the kernel and bias gradients of ``fuse``
        are bitwise those of the taped form it replaced."""
        cfg = PipelineConfig(height=16, width=16, channels=4, scales=(4,), seed=n_pairs)
        pipe = Pipeline(cfg)
        scen = make_scenario(n_pairs, cfg.channel, 1, n_agents=n_pairs + 1, n_objects=6,
                             bounds=9.0, fov_ego=8.0, fov_collab=9.0)
        rng = np.random.default_rng(n_pairs)
        views = [render_bev(scen.scene, a.pose, 16, 16, cfg.cell_size, fov_m=a.fov_m,
                            channels=4) for a in scen.agents]
        pairs = [((lambda v=v: v), perturb_pose(a.pose, 0.3, 0.1, rng))
                 for v, a in zip(views[1:], scen.agents[1:])]
        g = rng.normal(size=(4, 16, 16))
        results = []
        for fuse in (pipeline_module.fuse, fuse_taped):
            with Tape() as tape:
                out = fuse(pipe, lambda: views[0], pairs, scen.agents[0].pose)
                loss = ops.tsum(out * g)
                records = len(tape)
                tape.backward(loss)
            grads = [p.grad.tobytes() for p in (pipe.integrator.kernel, pipe.integrator.bias)]
            pipe.integrator.kernel.grad = pipe.integrator.bias.grad = None
            results.append((out.data.tobytes(), records, grads))
        assert results[0] == results[1]


class TestOffsetPredictor:
    def test_zero_init_gives_zero_field(self):
        sync = make_sync(0)
        rng = np.random.default_rng(0)
        a, b = Tensor(rng.normal(size=(C, H, W))), Tensor(rng.normal(size=(C, H, W)))
        out = sync.predict_offset(a, b)
        assert out.data.shape == (2, H, W)
        assert np.array_equal(out.data, np.zeros((2, H, W)))

    def test_antisymmetric_weights_cancel_on_equal_inputs(self):
        sync = make_sync(1)
        rng = np.random.default_rng(1)
        wpos = rng.normal(size=(2, C, 3, 3))
        sync.offset_kernel.data = np.concatenate([wpos, -wpos], axis=1)
        g = Tensor(rng.normal(size=(C, H, W)))
        out = sync.predict_offset(g, g)
        assert np.max(np.abs(out.data)) < 1e-12

    def test_output_shape(self):
        sync = TemporalSync(16, stream(2, "t"), n_anchor_points=4)
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(16, 32, 32)))
        b = Tensor(rng.normal(size=(16, 32, 32)))
        assert sync.predict_offset(a, b).data.shape == (2, 32, 32)

    def test_shape_mismatch_rejected(self):
        sync = make_sync(3)
        with pytest.raises(ValueError):
            sync.predict_offset(Tensor(np.zeros((C, H, W))),
                                Tensor(np.zeros((C, H, W + 2))))


class TestDeformWarp:
    def test_zero_offsets_identity(self):
        sync = make_sync(0)
        pin_identity(sync)
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(C, H, W)))
        out = sync.deform_warp(f, Tensor(np.zeros((2, H, W))))
        assert np.max(np.abs(out.data - f.data)) < 1e-12

    def test_uniform_column_offset_shifts_left(self):
        sync = make_sync(1)
        pin_identity(sync)
        rng = np.random.default_rng(4)
        f = rng.normal(size=(C, H, W))
        offs = np.zeros((2, H, W))
        offs[1] = 1.0          # sample one column to the right
        out = sync.deform_warp(Tensor(f), Tensor(offs)).data
        expected = np.zeros_like(f)
        expected[:, :, :-1] = f[:, :, 1:]   # shift left, zero-fill last column
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_half_row_offset_interpolates(self):
        sync = make_sync(2)
        pin_identity(sync)
        ramp = np.tile(np.arange(H, dtype=float)[:, None], (1, W))
        f = np.stack([ramp] * C)
        offs = np.zeros((2, H, W))
        offs[0] = 0.5
        out = sync.deform_warp(Tensor(f), Tensor(offs)).data
        # interior rows read halfway between consecutive rows of the ramp
        assert np.max(np.abs(out[:, :-1, :] - (ramp[:-1] + 0.5)[None])) < 1e-12


class TestGate:
    def test_pinned_half_alpha_gives_midpoint(self):
        sync = make_sync(0)
        pin_identity(sync)      # zero gate weights: alpha = logistic(0) = 0.5
        rng = np.random.default_rng(5)
        h = Tensor(rng.normal(size=(C, H, W)))
        w = Tensor(rng.normal(size=(C, H, W)))
        out = sync.gate(h, w)
        assert np.allclose(out.alpha.data, 0.5)
        assert np.max(np.abs(out.fused.data - (h.data + w.data) / 2)) < 1e-12

    def test_equal_inputs_fixed_regardless_of_alpha(self):
        sync = make_sync(1)
        rng = np.random.default_rng(6)
        sync.gate_spatial_kernel.data = rng.normal(size=sync.gate_spatial_kernel.data.shape)
        sync.gate_channel_bias.data = rng.normal(size=sync.gate_channel_bias.data.shape)
        h = Tensor(rng.normal(size=(C, H, W)))
        out = sync.gate(h, h)
        assert np.max(np.abs(out.fused.data - h.data)) < 1e-12

    def test_convex_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            sync = make_sync(100 + trial)
            sync.gate_spatial_kernel.data = 0.3 * rng.normal(
                size=sync.gate_spatial_kernel.data.shape)
            sync.gate_channel_bias.data = rng.normal(size=sync.gate_channel_bias.data.shape)
            h = rng.normal(size=(C, H, W))
            w = rng.normal(size=(C, H, W))
            out = sync.gate(Tensor(h), Tensor(w))
            assert np.all(out.alpha.data > 0.0) and np.all(out.alpha.data < 1.0)
            lo = np.minimum(h, w) - 1e-12
            hi = np.maximum(h, w) + 1e-12
            assert np.all(out.fused.data >= lo) and np.all(out.fused.data <= hi)

    @pytest.mark.parametrize("shared", [False, True])
    def test_blend_is_the_composed_gate_bitwise(self, shared):
        """``ops.blend`` against the four elementwise ops it replaced: the
        same value and gradients bit for bit, also when hidden and warped
        are one tensor that holds a gradient from elsewhere."""
        rng = np.random.default_rng(8)
        values = [rng.uniform(0.05, 0.95, size=(C, H, W)), rng.normal(size=(C, H, W)),
                  rng.normal(size=(C, H, W))]
        g, g_other = rng.normal(size=(2, C, H, W))

        def run(gate):
            alpha, hidden, warped = (Tensor(v, requires_grad=True) for v in values)
            warped = hidden if shared else warped
            with Tape() as tape:
                out = gate(alpha, hidden, warped)
                loss = ops.tsum(out * g) + ops.tsum(hidden * g_other)
            tape.backward(loss)
            return [t.tobytes() for t in (out.data, alpha.grad, hidden.grad, warped.grad)]
        assert run(ops.blend) == run(lambda a, h, w: ops.sub(1.0, a) * h + a * w)


class TestRollout:
    def test_single_entry_passthrough(self):
        sync = make_sync(0)
        g = Tensor(np.random.default_rng(8).normal(size=(C, H, W)))
        out = sync.rollout([lambda: g])
        assert out is g

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_constant_buffer_fixed_point(self, k):
        # default init: zero offset predictors, identity warp convs
        sync = make_sync(1)
        const = np.random.default_rng(9).normal(size=(C, H, W))
        out = sync.rollout([lambda: Tensor(const.copy()) for _ in range(k)])
        assert np.max(np.abs(out.data - const)) < 1e-9

    def test_matches_compositional_reference(self):
        # step-by-step trace calling the four sub-operations independently
        sync = make_sync(2)
        rng = np.random.default_rng(10)
        sync.offset_kernel.data = 0.05 * rng.normal(size=sync.offset_kernel.data.shape)
        sync.update_offset_kernel.data = 0.05 * rng.normal(
            size=sync.update_offset_kernel.data.shape)
        sync.gate_channel_bias.data = rng.normal(size=sync.gate_channel_bias.data.shape)
        entries = [Tensor(rng.normal(size=(C, H, W))) for _ in range(3)]

        hidden = entries[0]
        zero = Tensor(np.zeros((C, H, W)))
        for j in (1, 2):
            prev2 = entries[j - 2] if j >= 2 else zero
            prev1 = entries[j - 1]
            offs = sync.predict_offset(prev2, prev1)
            warped = sync.deform_warp(prev1, offs)
            state = sync.gate(hidden, warped).fused
            hidden = sync.update(state)

        out = sync.rollout([lambda e=e: e for e in entries])
        assert np.max(np.abs(out.data - hidden.data)) < 1e-12

class TestAnchor:
    def test_zero_weights_add_ego(self):
        sync = make_sync(0)
        rng = np.random.default_rng(11)
        pred = Tensor(rng.normal(size=(C, H, W)))
        ego = Tensor(rng.normal(size=(C, H, W)))
        out = sync.anchor(pred, ego)
        assert np.max(np.abs(out.data - (pred.data + ego.data))) < 1e-12

    def test_zero_ego_passthrough(self):
        sync = make_sync(1)
        rng = np.random.default_rng(12)
        sync.anchor_kernel.data = 0.1 * rng.normal(size=sync.anchor_kernel.data.shape)
        pred = Tensor(rng.normal(size=(C, H, W)))
        out = sync.anchor(pred, Tensor(np.zeros((C, H, W))))
        assert np.max(np.abs(out.data - pred.data)) < 1e-12

    def test_single_point_pinned_center(self):
        sync = make_sync(2, m=1)
        rng = np.random.default_rng(13)
        pred = Tensor(rng.normal(size=(C, H, W)))
        ego = Tensor(rng.normal(size=(C, H, W)))
        out = sync.anchor(pred, ego)
        assert np.max(np.abs(out.data - (pred.data + ego.data))) < 1e-12


def anchor_loop(sync, predicted, ego):
    """TemporalSync.anchor one sampling point at a time: a bilinear_sample per
    point, weighted by its softmax slice and added to the running output."""
    _, h, w = predicted.data.shape
    fields = ops.conv2d(predicted, sync.anchor_kernel, sync.anchor_bias)
    weights = ops.softmax(ops.narrow(fields, 2 * sync.m, sync.m))
    grid = Tensor(base_grid(h, w))
    out = predicted
    for m in range(sync.m):
        val = ops.bilinear_sample(ego, grid + ops.narrow(fields, 2 * m, 2))
        out = out + ops.reshape(index_axis(weights, 0, m), (1, h, w)) * val
    return out


class TestAnchorMatchesLoop:
    @pytest.mark.parametrize("m", [1, 4])
    def test_outputs_and_gradients(self, m):
        rng = np.random.default_rng(40 + m)
        sync = make_sync(7, m=m)
        # offsets of a few cells, so points land between cells and off the grid
        sync.anchor_kernel.data = 2.0 * rng.normal(size=sync.anchor_kernel.data.shape)
        sync.anchor_bias.data = rng.normal(size=sync.anchor_bias.data.shape)
        pred = Tensor(rng.normal(size=(C, H, W)), requires_grad=True)
        ego = Tensor(rng.normal(size=(C, H, W)), requires_grad=True)
        inputs = [pred, ego, sync.anchor_kernel, sync.anchor_bias]
        g = rng.normal(size=(C, H, W))
        results = []
        for fn in (sync.anchor, lambda p, e: anchor_loop(sync, p, e)):
            for t in inputs:
                t.grad = None
            with Tape() as tape:
                out = fn(pred, ego)
                loss = ops.tsum(ops.mul(out, Tensor(g)))
            tape.backward(loss)
            results.append([out.data, *(t.grad for t in inputs)])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_sampling_call(self, monkeypatch):
        calls = []

        def counting(x, coords):
            calls.append(coords.data.shape)
            return ops.bilinear_sample(x, coords)
        monkeypatch.setattr(sync_module, "bilinear_sample", counting)
        rng = np.random.default_rng(43)
        sync = make_sync(8, m=4)
        sync.anchor(Tensor(rng.normal(size=(C, H, W))), Tensor(rng.normal(size=(C, H, W))))
        assert calls == [(2, 4 * H, W)]


class TestModuleGradient:
    def test_rollout_plus_anchor_grad_per_entry(self):
        c, h, w = 2, 8, 8
        sync = TemporalSync(c, stream(5, "t"), n_anchor_points=4)
        rng = np.random.default_rng(14)
        sync.offset_kernel.data = 0.05 * rng.normal(size=sync.offset_kernel.data.shape)
        sync.anchor_kernel.data = 0.05 * rng.normal(size=sync.anchor_kernel.data.shape)
        ego = rng.uniform(-1, 1, size=(c, h, w))
        base_entries = [rng.uniform(-1, 1, size=(c, h, w)) for _ in range(3)]

        for probe_idx in range(3):
            def f(t, idx=probe_idx):
                entries = [lambda j=j, e=e: t if j == idx else Tensor(e)
                           for j, e in enumerate(base_entries)]
                return ops.tsum(sync.anchor(sync.rollout(entries), Tensor(ego)))
            err = grad_check(f, Tensor(base_entries[probe_idx]), eps=1e-4)
            assert err < 1e-4, f"entry {probe_idx}: {err}"
