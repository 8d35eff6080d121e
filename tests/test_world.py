"""Scene dynamics, rendering, pose noise, frame transforms, channel statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse.pipeline import ConfigError, PipelineConfig
from coopfuse.tensor import Tensor
from coopfuse.world import (SPEED_RANGE, Channel, ChannelConfig, Pose2D,
                            Scenario, Scene, make_scene,
                            make_scenario, perturb_pose, render_bev, step_scene,
                            stream, transform_to_ego, wrap_angle)

# chi-square critical value at the 99% level for 5 degrees of freedom
CHI2_99_DF5 = 15.086


class TestScene:
    def test_zero_velocity_fixed_point(self):
        s = Scene(objects=np.array([[1.0, 2.0, 2.0, 2.0, 0.0, 0.0]]), bounds=10)
        s2 = step_scene(s)
        assert np.array_equal(s2.objects, s.objects)

    def test_linear_motion(self):
        s = Scene(objects=np.array([[0.0, 0.0, 2.0, 2.0, 1.0, 0.0]]), bounds=10)
        for _ in range(3):
            s = step_scene(s)
        assert s.objects[0, 0] == pytest.approx(3.0)
        assert s.objects[0, 1] == pytest.approx(0.0)

    def test_reflection_at_boundary(self):
        # 1 m inside the +x wall moving +2 m/tick: reflects to 1 m inside,
        # velocity negated
        s = Scene(objects=np.array([[9.0, 0.0, 1.0, 1.0, 2.0, 0.0]]), bounds=10)
        s = step_scene(s)
        assert s.objects[0, 0] == pytest.approx(9.0)
        assert s.objects[0, 4] == pytest.approx(-2.0)

    def test_objects_stay_in_bounds(self):
        s = make_scene(7, n_objects=8, bounds=10.0)
        for _ in range(200):
            s = step_scene(s)
            assert np.all(np.abs(s.objects[:, :2]) <= 10.0 + 1e-9)


def outside_share(bounds: float, seeds: int = 200, ticks: int = 30) -> float:
    """The share of object-ticks outside the walls in make_scene's scenes."""
    outside = total = 0
    for seed in range(seeds):
        s = make_scene(seed, n_objects=5, bounds=bounds)
        for _ in range(ticks):
            s = step_scene(s)
            outside += int((np.abs(s.objects[:, :2]) > bounds).any(axis=1).sum())
            total += len(s.objects)
    return outside / total


class TestArena:
    """An input that would let an object leave the arena is rejected; every
    accepted one keeps its objects inside."""

    def scenario_doc(self, **obj):
        doc = make_scenario(2, ChannelConfig(), 8, 3, 5, 9.0, 8.0, 9.0).to_json()
        doc["objects"][0].update(obj)
        return doc

    def test_object_outrunning_the_arena_is_rejected(self):
        # one reflection per wall per tick: an object at 100 m/tick in a 9 m
        # arena sits at x = 64, 128, 192 after three ticks
        s = Scene(objects=[[0.0, 0.0, 2.0, 2.0, 100.0, 0.0]], bounds=9.0)
        xs = []
        for _ in range(3):
            s = step_scene(s)
            xs.append(float(s.objects[0, 0]))
        assert xs == [64.0, 128.0, 192.0]
        with pytest.raises(ConfigError, match=r"objects\[0\] velocity \(100\.0, "):
            Scenario.from_json(self.scenario_doc(x=0.0, vx=100.0))
        Scenario.from_json(self.scenario_doc(x=0.0, vx=18.0, vy=-18.0))      # 2 * bounds_m

    def test_object_outside_the_arena_is_rejected(self):
        with pytest.raises(ConfigError, match=r"objects\[0\] at \(9\.5, "):
            Scenario.from_json(self.scenario_doc(x=9.5))
        Scenario.from_json(self.scenario_doc(x=9.0, y=-9.0))                 # on the walls

    def test_narrow_config_arena_is_rejected(self):
        # at bounds_m = 0.5, 30 % of make_scene's object-ticks lie outside
        assert outside_share(0.5) > 0.25
        with pytest.raises(ConfigError, match="bounds_m must be >= 1.1"):
            PipelineConfig.from_json({"bounds_m": 0.5})
        smallest = PipelineConfig.from_json({"bounds_m": SPEED_RANGE[1] / 2}).bounds_m
        assert outside_share(smallest) == 0.0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(bounds=st.floats(1e-3, 1e3), data=st.data())
    def test_accepted_scenes_stay_inside(self, bounds, data):
        unit = st.floats(-1.0, 1.0)
        rows = [{"x": data.draw(unit) * bounds, "y": data.draw(unit) * bounds,
                 "w": 1.0, "h": 1.0, "vx": 2.0 * data.draw(unit) * bounds,
                 "vy": 2.0 * data.draw(unit) * bounds} for _ in range(3)]
        doc = self.scenario_doc()
        doc.update(objects=rows, bounds_m=bounds)
        s = Scenario.from_json(doc).scene
        for _ in range(50):
            s = step_scene(s)
            # within the walls up to the rounding of one reflection
            assert np.all(np.abs(s.objects[:, :2]) <= bounds * (1 + 1e-12))


class TestRender:
    def test_empty_scene_zero_occupancy(self):
        s = Scene(objects=np.zeros((0, 6)), bounds=10)
        f = render_bev(s, Pose2D(0, 0, 0), 16, 16, 1.0, channels=8)
        assert np.array_equal(f.data[0], np.zeros((16, 16)))
        assert f.data.shape == (8, 16, 16)

    def test_object_at_agent_center(self):
        # 2x2 m box at the agent position with 1 m cells: occupancy marks the
        # central cells whose centers fall inside the box
        s = Scene(objects=np.array([[0.0, 0.0, 2.0, 2.0, 0.0, 0.0]]), bounds=10)
        f = render_bev(s, Pose2D(0, 0, 0), 16, 16, 1.0, channels=8)
        occ = f.data[0]
        xs = (np.arange(16) - 7.5) * 1.0
        inside = np.abs(xs) <= 1.0
        expected = np.outer(inside, inside).astype(float)
        assert np.array_equal(occ, expected)

    def test_translation_shifts_raster(self):
        s = make_scene(3, n_objects=4, bounds=8.0)
        base = render_bev(s, Pose2D(0, 0, 0), 32, 32, 1.0, channels=8).data[0]
        moved = render_bev(s, Pose2D(2.0, 0, 0), 32, 32, 1.0, channels=8).data[0]
        # shifting the agent +2 m in x moves content 2 columns left
        assert np.array_equal(moved[:, :-2], base[:, 2:])

    def test_fov_limits_visibility(self):
        s = Scene(objects=np.array([[6.0, 0.0, 2.0, 2.0, 0.0, 0.0]]), bounds=10)
        near = render_bev(s, Pose2D(0, 0, 0), 32, 32, 1.0, fov_m=7.0, channels=8).data[0]
        far = render_bev(s, Pose2D(0, 0, 0), 32, 32, 1.0, fov_m=5.0, channels=8).data[0]
        assert near.sum() > 0
        assert far.sum() == 0

    def test_occupancy_in_unit_range(self):
        s = make_scene(5, n_objects=8, bounds=10.0)
        f = render_bev(s, Pose2D(1.0, -2.0, 0.7), 32, 32, 0.75, channels=8)
        assert f.data[0].min() >= 0.0 and f.data[0].max() <= 1.0

class TestPoseNoise:
    def test_zero_sigma_identity(self):
        rng = stream(0, "t")
        p = Pose2D(1.0, -2.0, 0.5)
        q = perturb_pose(p, 0.0, 0.0, rng)
        assert (q.x, q.y, q.heading) == (1.0, -2.0, 0.5)

    def test_empirical_sigma(self):
        rng = stream(1, "t")
        p = Pose2D(0, 0, 0)
        xs = np.array([perturb_pose(p, 0.2, 0.0, rng).x for _ in range(10000)])
        assert abs(xs.std() - 0.2) / 0.2 < 0.05

    def test_heading_wraps(self):
        rng = stream(2, "t")
        p = Pose2D(0, 0, math.pi - 1e-3)
        for _ in range(50):
            q = perturb_pose(p, 0.0, 0.5, rng)
            assert -math.pi < q.heading <= math.pi

    def test_wrap_angle_convention(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)


class TestTransform:
    def test_identity_transform(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.normal(size=(2, 16, 16)))
        p = Pose2D(1.0, 2.0, 0.3)
        out = transform_to_ego(f, p, p, 1.0)
        assert np.max(np.abs(out.data - f.data)) < 1e-9

    def test_one_cell_translation_is_integer_shift(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.normal(size=(1, 8, 8)))
        sender = Pose2D(1.0, 0.0, 0.0)     # one cell (cell_size=1) along +x
        ego = Pose2D(0.0, 0.0, 0.0)
        out = transform_to_ego(f, sender, ego, 1.0).data[0]
        # ego cell (r, c) reads sender cell (r, c-1); first column is zero fill
        assert np.max(np.abs(out[:, 1:] - f.data[0][:, :-1])) < 1e-12
        assert np.array_equal(out[:, 0], np.zeros(8))

    def _smooth_field(self, seed, h=32, w=32):
        # band-limited so the second resample's interpolation error stays
        # well under the comparison tolerance
        rr, cc = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(0.3, 1.0, size=3)
        return np.stack([np.sin(2 * np.pi * (a * rr + b * cc)),
                         np.cos(2 * np.pi * (c * rr - a * cc))])

    def test_composition_against_direct(self):
        # a->b->c double resample vs direct a->c on interior pixels; pose
        # offsets small enough that intermediate zero fill stays outside the
        # interior crop
        fails = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            poses = [Pose2D(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                            rng.uniform(-0.35, 0.35)) for _ in range(3)]
            f = Tensor(self._smooth_field(seed))
            via = transform_to_ego(transform_to_ego(f, poses[0], poses[1], 1.0),
                                   poses[1], poses[2], 1.0)
            direct = transform_to_ego(f, poses[0], poses[2], 1.0)
            interior = (slice(None), slice(8, -8), slice(8, -8))
            err = np.abs(via.data[interior] - direct.data[interior]).mean()
            if err >= 1e-2:
                fails += 1
        assert fails == 0


class TestChannel:
    def _deliver(self, cfg, n, now, rng):
        """Send n packets at tick 0 through a Channel drawing from rng; return
        those that have arrived by tick `now`."""
        ch = Channel(cfg, 0)
        ch.rng = rng
        f = Tensor(np.zeros((1, 4, 4)))
        for i in range(n):
            ch.send(f"s{i % 3}", f, Pose2D(0, 0, 0), 0)
        return ch.deliver(now)

    def test_instant_lossless_channel(self):
        cfg = ChannelConfig(max_latency_ticks=0, drop_p=0.0)
        out = self._deliver(cfg, 20, now=0, rng=stream(0, "c"))
        assert len(out) == 20
        assert all(p.arrive_tick == 0 for p in out)

    def test_total_loss(self):
        cfg = ChannelConfig(max_latency_ticks=2, drop_p=1.0)
        out = self._deliver(cfg, 50, now=100, rng=stream(1, "c"))
        assert out == []

    def test_latency_uniform_and_drop_rate(self):
        cfg = ChannelConfig(max_latency_ticks=5, drop_p=0.3)
        out = self._deliver(cfg, 10000, now=10, rng=stream(2, "c"))
        drop_rate = 1.0 - len(out) / 10000.0
        assert abs(drop_rate - 0.3) < 0.02
        lat = np.array([p.arrive_tick - p.emit_tick for p in out])
        assert lat.min() >= 0 and lat.max() <= 5
        observed = np.bincount(lat, minlength=6)
        expected = len(out) / 6.0
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99_DF5

    def test_latency_bound_and_delivery_order(self):
        cfg = ChannelConfig(max_latency_ticks=4, drop_p=0.2)
        ch = Channel(cfg, 0)
        f = Tensor(np.zeros((1, 4, 4)))
        for tick in range(30):
            for sender in ("b", "a"):
                ch.send(sender, f, Pose2D(0, 0, 0), tick)
            got = ch.deliver(tick)
            keys = [(p.arrive_tick, p.sender) for p in got]
            assert keys == sorted(keys)
            for p in got:
                assert 0 <= p.arrive_tick - p.emit_tick <= 4

    def test_stream_determinism(self):
        def run():
            cfg = ChannelConfig(max_latency_ticks=3, drop_p=0.4)
            ch = Channel(cfg, 77)
            f = Tensor(np.zeros((1, 4, 4)))
            log = []
            for tick in range(40):
                ch.send("a", f, Pose2D(0, 0, 0), tick)
                log.extend((p.sender, p.emit_tick, p.arrive_tick)
                           for p in ch.deliver(tick))
            return log
        assert run() == run()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(max_latency_ticks=-1)
        with pytest.raises(ValueError):
            ChannelConfig(drop_p=1.5)
        with pytest.raises(ValueError):
            ChannelConfig(loc_sigma=-0.1)


class TestScenarioIO:
    def test_json_roundtrip(self, tmp_path):
        scen = make_scenario(5, ChannelConfig(3, 0.1, 0.2, 0.05), 12, 3, 5, 9.0, 8.0, 9.0)
        doc = scen.to_json()
        back = Scenario.from_json(doc)
        assert back.seed == scen.seed and back.ticks == scen.ticks
        assert [a.id for a in back.agents] == [a.id for a in scen.agents]
        assert np.allclose(back.scene.objects, scen.scene.objects)
        assert back.channel.max_latency_ticks == 3
        assert back.channel.drop_p == pytest.approx(0.1)

    def test_scene_determinism(self):
        a = make_scenario(9, ChannelConfig(), 5, 3, 5, 9.0, 8.0, 9.0)
        b = make_scenario(9, ChannelConfig(), 5, 3, 5, 9.0, 8.0, 9.0)
        assert np.array_equal(a.scene.objects, b.scene.objects)
        assert a.agents[1].pose == b.agents[1].pose
