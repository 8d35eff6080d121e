"""The whole-array world step, render and bilinear sample give bitwise the
values of the per-object, per-axis and masked-corner forms they replaced,
and the shared pose-to-world transform those of the two inline copies it
replaced in the render and the re-projection.

Each reference below is a copy of the replaced form. Arrays are compared
bit for bit: same shape, NaN at the same positions, and elsewhere equal
values with equal sign bits, so a -0.0 where the reference has 0.0 fails.
"""

import math

import numpy as np
import pytest

from coopfuse import ops
from coopfuse.tensor import Tape, Tensor
from coopfuse.world import (Pose2D, Scene, _cell_centers, cell_world, coordinate_channels,
                            make_scene, render_bev, source_coords, step_scene)


def assert_same_bits(have, want):
    have, want = np.asarray(have), np.asarray(want)
    assert have.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(have), nan)
    assert np.array_equal(have[~nan], want[~nan])
    assert np.array_equal(np.signbit(have[~nan]), np.signbit(want[~nan]))


def step_scene_per_axis(scene: Scene) -> Scene:
    """step_scene as eight boolean-index writes, one axis after the other."""
    obj = scene.objects.copy()
    b = scene.bounds
    for axis in (0, 1):
        obj[:, axis] += obj[:, 4 + axis]
        over = obj[:, axis] > b
        obj[over, axis] = 2.0 * b - obj[over, axis]
        obj[over, 4 + axis] *= -1.0
        under = obj[:, axis] < -b
        obj[under, axis] = -2.0 * b - obj[under, axis]
        obj[under, 4 + axis] *= -1.0
    return Scene(objects=obj, bounds=scene.bounds)


def cell_world_inline(pose, h, w, cell_size):
    """The world x and y of every cell centre as render_bev wrote them inline."""
    xs, ys = _cell_centers(h, w, cell_size)
    ct, st = math.cos(pose.heading), math.sin(pose.heading)
    world_x = pose.x + ct * xs - st * ys
    world_y = pose.y + st * xs + ct * ys
    return world_x, world_y


def source_coords_inline(h, w, cell_size, sender, ego):
    """source_coords with the ego's cell centres turned to the world inline."""
    xs, ys = _cell_centers(h, w, cell_size)
    ce, se = math.cos(ego.heading), math.sin(ego.heading)
    wx = ego.x + ce * xs - se * ys
    wy = ego.y + se * xs + ce * ys
    cs, ss = math.cos(sender.heading), math.sin(sender.heading)
    dx, dy = wx - sender.x, wy - sender.y
    lx = cs * dx + ss * dy
    ly = -ss * dx + cs * dy
    cols = lx / cell_size + (w - 1) / 2.0
    rows = ly / cell_size + (h - 1) / 2.0
    return np.stack([rows, cols])


def render_bev_per_object(scene, pose, h, w, cell_size, fov_m=None, channels=8):
    """render_bev's planes drawn one object at a time and concatenated."""
    world_x, world_y = cell_world_inline(pose, h, w, cell_size)
    occ = np.zeros((h, w))
    for ox, oy, ow, oh, _, _ in scene.objects:
        if fov_m is not None and math.hypot(ox - pose.x, oy - pose.y) > fov_m:
            continue
        inside = (np.abs(world_x - ox) <= ow / 2.0) & (np.abs(world_y - oy) <= oh / 2.0)
        occ = np.maximum(occ, inside)
    return np.concatenate([occ[None], coordinate_channels(h, w, channels - 1)])


@np.errstate(invalid="ignore")
def bilinear_sample_masked(x, coords, g):
    """bilinear_sample with its 0/1 masks applied to all C x 4 gathered corners:
    the output, and the gradients of x and coords for output gradient g."""
    c, h, w = x.shape
    out_shape = coords.shape[1:]
    lo = np.floor(coords).astype(np.intp)
    frac = coords - lo
    idx = np.stack([lo, lo + 1])
    size = np.array([h, w])[:, None, None]
    inside = (idx >= 0) & (idx < size)
    np.minimum(np.maximum(idx, 0, out=idx), size - 1, out=idx)
    axis_w = np.stack([1 - frac, frac])
    flat = (idx[:, None, 0] * w + idx[None, :, 1]).reshape(-1)
    weights = (axis_w[:, None, 0] * axis_w[None, :, 1]).reshape(4, *out_shape)
    masks = (inside[:, None, 0] & inside[None, :, 1]).reshape(4, *out_shape).astype(float)
    v = np.take(x.reshape(c, h * w), flat, axis=1).reshape(c, 4, *out_shape)
    v *= masks
    v00, v01, v10, v11 = (v[:, i] for i in range(4))
    y = v00 * weights[0] + v01 * weights[1] + v10 * weights[2] + v11 * weights[3]
    keys = np.arange(c)[:, None] * (h * w) + flat
    contrib = (g[:, None] * (weights * masks)).reshape(c, -1)
    gx = np.bincount(keys.ravel(), weights=contrib.ravel(), minlength=c * h * w)
    wr, wc = coords - np.floor(coords).astype(np.intp)
    dy_dwr = -(1 - wc) * v00 - wc * v01 + (1 - wc) * v10 + wc * v11
    dy_dwc = -(1 - wr) * v00 + (1 - wr) * v01 - wr * v10 + wr * v11
    gc = np.stack([(g * dy_dwr).sum(axis=0), (g * dy_dwc).sum(axis=0)])
    return y, gx.reshape(c, h, w), gc


class TestStepScene:
    @staticmethod
    def assert_steps_match(scene, ticks):
        have = want = scene
        for _ in range(ticks):
            have, want = step_scene(have), step_scene_per_axis(want)
            assert_same_bits(have.objects, want.objects)
            assert have.bounds == want.bounds

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_scenes(self, seed):
        n_objects = (0, 1, 5, 9)[seed % 4]
        bounds = (1.1, 2.0, 9.0)[seed % 3]
        self.assert_steps_match(make_scene(seed, n_objects, bounds), 40)

    def test_reflections_on_both_walls_of_both_axes(self):
        # each row meets one wall of one axis, or both axes at once; the last
        # rows land exactly on a wall (no reflection) and carry signed zeros
        objects = np.array([
            [8.5, 0.0, 1.0, 1.0, 2.0, 0.0],
            [-8.5, 0.0, 1.0, 1.0, -2.0, 0.0],
            [0.0, 8.5, 1.0, 1.0, 0.0, 2.0],
            [0.0, -8.5, 1.0, 1.0, 0.0, -2.0],
            [8.0, -8.0, 1.0, 1.0, 1.5, -1.5],
            [-8.0, 8.0, 1.0, 1.0, -17.5, 17.5],
            [8.0, -8.0, 1.0, 1.0, 1.0, -1.0],
            [9.0, -9.0, 1.0, 1.0, -0.0, 0.0],
            [-9.0, 9.0, 1.0, 1.0, 0.0, -0.0],
        ])
        self.assert_steps_match(Scene(objects=objects, bounds=9.0), 25)

    def test_escaping_objects_follow_the_per_axis_form(self):
        # a Scene built in Python is not checked: an object that starts
        # outside the walls or outruns them steps as it did before
        objects = np.array([[0.0, 0.0, 1.0, 1.0, 100.0, -100.0],
                            [30.0, -30.0, 1.0, 1.0, 0.5, 0.5]])
        self.assert_steps_match(Scene(objects=objects, bounds=9.0), 5)


class TestRenderBev:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_scenes(self, seed):
        rng = np.random.default_rng(seed)
        scene = make_scene(seed, (0, 1, 5, 12)[seed % 4], 9.0)
        pose = Pose2D(*rng.uniform(-4.0, 4.0, size=2), rng.uniform(-math.pi, math.pi))
        for fov_m in (None, 3.0, 8.0):
            for h, w, cell, channels in ((32, 32, 0.75, 8), (16, 24, 1.0, 2)):
                have = render_bev(scene, pose, h, w, cell, fov_m=fov_m, channels=channels)
                assert_same_bits(have.data,
                                 render_bev_per_object(scene, pose, h, w, cell, fov_m, channels))

    def test_object_centre_exactly_at_fov(self):
        # hypot(3, 4) is exactly 5: at fov 5 the object is drawn, just under it not
        scene = Scene(objects=np.array([[4.0, 6.0, 2.0, 2.0, 0.0, 0.0]]), bounds=9.0)
        pose = Pose2D(1.0, 2.0, 0.0)
        for fov_m in (5.0, math.nextafter(5.0, 0.0)):
            have = render_bev(scene, pose, 16, 16, 1.0, fov_m=fov_m, channels=8).data
            assert_same_bits(have, render_bev_per_object(scene, pose, 16, 16, 1.0, fov_m))
            assert have[0].any() == (fov_m == 5.0)

    def test_box_edges_on_cell_centres(self):
        # with 1 m cells the centers sit at half-integers, and these boxes'
        # half-extents end exactly on them, so the <= decides each edge cell
        objects = np.array([[0.0, 0.0, 3.0, 1.0, 0.0, 0.0],
                            [4.0, -3.0, 5.0, 7.0, 0.0, 0.0],
                            [-6.0, 5.0, 1.0, 3.0, 0.0, 0.0]])
        scene = Scene(objects=objects, bounds=9.0)
        for pose in (Pose2D(0.0, 0.0, 0.0), Pose2D(0.0, 0.0, math.pi / 2)):
            have = render_bev(scene, pose, 16, 16, 1.0, channels=8).data
            assert_same_bits(have, render_bev_per_object(scene, pose, 16, 16, 1.0))
        # edge cells included: 4 x 2, 6 x 8 and 2 x 4 cells, the first two sharing 2
        origin = Pose2D(0.0, 0.0, 0.0)
        assert render_bev(scene, origin, 16, 16, 1.0, channels=8).data[0].sum() == 62

    def test_many_objects_take_several_box_tests(self, monkeypatch):
        import coopfuse.world as world

        monkeypatch.setattr(world, "_BOX_CELLS", 3 * 16 * 16)
        scene = make_scene(4, 10, 9.0)
        pose = Pose2D(0.5, -1.0, 0.3)
        assert_same_bits(render_bev(scene, pose, 16, 16, 1.0, channels=8).data,
                         render_bev_per_object(scene, pose, 16, 16, 1.0))


# poses on and off the axes, at signed zeros, at the heading wrap and far out
POSES = [Pose2D(0.0, 0.0, 0.0), Pose2D(-0.0, -0.0, -0.0), Pose2D(1.5, -2.25, math.pi / 2),
         Pose2D(-3.0, 4.0, math.pi), Pose2D(7.1, 0.3, -2.9), Pose2D(-1e6, 1e6, 1e-9),
         Pose2D(2.0, -5.5, 1e6)]


class TestCellWorld:
    @pytest.mark.parametrize("h,w,cell", [(32, 32, 0.75), (16, 24, 1.0), (4, 8, 1e-6)])
    def test_matches_the_inline_forms(self, h, w, cell):
        for pose in POSES:
            have = cell_world(pose, h, w, cell)
            for a, b in zip(have, cell_world_inline(pose, h, w, cell)):
                assert_same_bits(a, b)
            for sender in POSES:
                assert_same_bits(source_coords(h, w, cell, sender, pose),
                                 source_coords_inline(h, w, cell, sender, pose))


def coordinate_cases(h, w, rng):
    """2 x 6 x 8 coordinates: random, on grid points, just outside the grid,
    NaN and infinite."""
    coords = rng.uniform(-1.5, max(h, w) + 0.5, size=(2, 6, 8))
    coords[:, 0, :4] = [[0.0, h - 1.0, 0.0, h - 1.0], [0.0, 0.0, w - 1.0, w - 1.0]]
    coords[:, 0, 4:] = [[2.0, 1.0, 0.0, 3.0], [1.0, 2.0, 3.0, 0.0]]
    tiny = 1e-12
    coords[:, 1] = [[-tiny, h - 1 + tiny, -1.0, h, 0.5, -1.0 + tiny, h - tiny, 1.0],
                    [0.5, 0.5, 0.5, 0.5, -tiny, w - 1 + tiny, -1.0, w]]
    coords[:, 2, :4] = [[np.nan, 1.0, np.inf, -np.inf], [1.0, np.nan, 2.0, 2.5]]
    coords[:, 2, 4:] = [[2.0, 0.5, np.inf, np.nan], [np.inf, -np.inf, -np.inf, np.inf]]
    return coords


class TestBilinearSample:
    @staticmethod
    def run(x, coords, g):
        xt, ct = Tensor(x, requires_grad=True), Tensor(coords, requires_grad=True)
        with np.errstate(invalid="ignore", over="ignore"), Tape() as tape:
            y = ops.bilinear_sample(xt, ct)
            loss = ops.tsum(ops.mul(y, Tensor(g)))
            tape.backward(loss)
        return y.data, xt.grad, ct.grad

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_masked_corners(self, seed):
        rng = np.random.default_rng(seed)
        h, w = (5, 7) if seed % 2 else (4, 4)
        x = rng.normal(size=(3, h, w))
        if seed >= 2:
            # signed zeros, infinities and NaN in the grid itself
            x[0, 0, 0], x[1, 0, w - 1], x[2, h - 1, 0], x[0, 2, 2] = -0.0, np.inf, -np.inf, np.nan
            x[1, 1, 1], x[2, 1, 2] = 0.0, -0.0
        coords = coordinate_cases(h, w, rng)
        g = rng.normal(size=(3, 6, 8))
        have = self.run(x, coords, g)
        want = bilinear_sample_masked(x, coords, g)
        for a, b in zip(have, want):
            assert_same_bits(a, b)

    def test_all_outside_reads_signed_zeros(self):
        # every corner masked: the output is the sum of +-0 * weight products,
        # whose signs follow the grid's and the weights' signs
        x = np.array([[[-1.0, 2.0], [0.0, -0.0]]])
        coords = np.array([[[-3.25, 5.5, -7.0]], [[4.75, -2.5, 9.0]]])
        g = np.array([[[1.0, -2.0, 0.5]]])
        for a, b in zip(self.run(x, coords, g), bilinear_sample_masked(x, coords, g)):
            assert_same_bits(a, b)
