"""Synthetic multi-agent world and lossy, laggy feature channel.

Scenes are axis-aligned rectangles moving at constant velocity inside a
square arena, reflecting at the walls; a tick moves and reflects every
object with whole-array operations. An agent's view is a top-down
occupancy grid in its own pose-centered, heading-aligned frame, restricted
to its field of view, plus fixed sinusoidal coordinate channels; every
visible box is drawn by one box test over the whole grid. A packet
carries its sender's view as a thunk, rendered on first read, through a
channel that drops packets independently and delays survivors by a uniform
integer latency; the ego re-projects arrived views into its frame using the
sender's (possibly noise-corrupted) reported pose. One tick is 100 ms.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .ops import bilinear_sample
from .schema import ConfigError, check, entry, parse, read, write
from .tensor import Tensor


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible generator for (seed, label)."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF,
                                                         zlib.crc32(label.encode())]))


# Positions, velocities and pose noise stay within LIMIT_M meters and a grid
# cell is at least 1 / LIMIT_M meters: far past any desk-scale scene, and it
# keeps the frame transforms' products finite (grid coordinates near 1e154
# overflow them). Heading noise stays within LIMIT_M radians, so that it
# cannot overflow to inf, which wrap_angle maps to NaN.
LIMIT_M = 1e6


@dataclass(frozen=True)
class Pose2D:
    x: float = entry("x", ge=-LIMIT_M, le=LIMIT_M)
    y: float = entry("y", ge=-LIMIT_M, le=LIMIT_M)
    heading: float = entry("heading")

    def __post_init__(self):
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass
class Scene:
    """Moving rectangles: columns are x, y, width, height, vx, vy."""

    objects: np.ndarray
    bounds: float

    def __post_init__(self):
        self.objects = np.asarray(self.objects, dtype=np.float64).reshape(-1, 6)


def step_scene(scene: Scene) -> Scene:
    """Advance one tick; reflect position and velocity at the arena walls.

    Both axes move at once on the N x 2 position and velocity columns. A
    position past the upper wall is mirrored back through it, then one past
    the lower wall, and the velocity on that axis changes sign once per
    mirroring. Scenes that `make_scene` draws and scenario documents accept
    (positions within the walls, at most 2 * bounds per tick on an axis) need
    at most one mirroring, so their objects never leave the arena.
    """
    obj = scene.objects
    b = scene.bounds
    pos = obj[:, :2] + obj[:, 4:]
    over = pos > b
    pos = np.where(over, 2.0 * b - pos, pos)
    under = pos < -b
    pos = np.where(under, -2.0 * b - pos, pos)
    vel = np.where(over ^ under, -obj[:, 4:], obj[:, 4:])
    return Scene(objects=np.concatenate([pos, obj[:, 2:4], vel], axis=1), bounds=scene.bounds)


# object speeds (m/tick) and box extents (m) are drawn uniformly from these
SPEED_RANGE = (1.2, 2.2)
EXTENT_RANGE = (1.8, 3.0)


def make_scene(seed: int, n_objects: int = 5, bounds: float = 9.0) -> Scene:
    """Objects within 0.8 * bounds of the center at SPEED_RANGE speeds; with
    bounds >= SPEED_RANGE[1] / 2 they stay in the arena."""
    rng = stream(seed, "scene")
    pos = rng.uniform(-0.8 * bounds, 0.8 * bounds, size=(n_objects, 2))
    ext = rng.uniform(*EXTENT_RANGE, size=(n_objects, 2))
    ang = rng.uniform(-math.pi, math.pi, size=n_objects)
    spd = rng.uniform(*SPEED_RANGE, size=n_objects)
    vel = np.stack([spd * np.cos(ang), spd * np.sin(ang)], axis=1)
    return Scene(objects=np.hstack([pos, ext, vel]), bounds=bounds)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

@functools.cache
def coordinate_channels(h: int, w: int, n: int) -> np.ndarray:
    """n fixed sinusoidal positional channels over the grid."""
    rr, cc = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    planes = []
    freq = 1
    while len(planes) < n:
        for p in (np.sin(2 * math.pi * freq * rr), np.cos(2 * math.pi * freq * rr),
                  np.sin(2 * math.pi * freq * cc), np.cos(2 * math.pi * freq * cc)):
            planes.append(p)
        freq += 1
    return np.stack(planes[:n])


@functools.cache
def _cell_centers(h: int, w: int, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Local-frame metric coordinates of every cell center."""
    rows = (np.arange(h) - (h - 1) / 2.0) * cell_size
    cols = (np.arange(w) - (w - 1) / 2.0) * cell_size
    ys, xs = np.meshgrid(rows, cols, indexing="ij")
    return xs, ys


def cell_world(pose: Pose2D, h: int, w: int, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """World x and y of every cell center of an h x w grid centred on `pose`
    and turned to its heading."""
    xs, ys = _cell_centers(h, w, cell_size)
    ct, st = math.cos(pose.heading), math.sin(pose.heading)
    return pose.x + ct * xs - st * ys, pose.y + st * xs + ct * ys


# the box test of one render covers at most this many object-cells at a time,
# so its N x H x W temporaries stay a few MiB however many objects a scene has
_BOX_CELLS = 1 << 20


def render_bev(scene: Scene, pose: Pose2D, h: int, w: int, cell_size: float,
               fov_m: float | None = None, channels: int = 8) -> Tensor:
    """Occupancy plus positional channels in the agent's local frame.

    Only objects whose center lies within fov_m of the agent are drawn;
    fov_m=None draws everything (ground-truth mode). The visible objects'
    boxes are tested against every cell center at once, an N x H x W test
    reduced by `any`, and the planes are written into one preallocated
    C x H x W array.
    """
    if h % 4 or w % 4:
        raise ValueError(f"grid dims must be divisible by 4, got {h}x{w}")
    world_x, world_y = cell_world(pose, h, w, cell_size)
    objects = scene.objects
    if fov_m is not None:
        objects = objects[[not math.hypot(ox - pose.x, oy - pose.y) > fov_m
                           for ox, oy in objects[:, :2].tolist()]]
    occ = np.zeros((h, w), dtype=bool)
    step = max(1, _BOX_CELLS // (h * w))
    for i in range(0, len(objects), step):
        box = objects[i:i + step, :4, None, None]
        inside = ((np.abs(world_x - box[:, 0]) <= box[:, 2] / 2.0)
                  & (np.abs(world_y - box[:, 1]) <= box[:, 3] / 2.0))
        occ |= inside.any(axis=0)
    planes = np.empty((channels, h, w))
    planes[0] = occ
    planes[1:] = coordinate_channels(h, w, channels - 1)
    return Tensor(planes)


# ---------------------------------------------------------------------------
# pose noise and frame transforms
# ---------------------------------------------------------------------------

def perturb_pose(pose: Pose2D, loc_sigma: float, head_sigma: float,
                 rng: np.random.Generator) -> Pose2D:
    return Pose2D(
        x=pose.x + loc_sigma * rng.standard_normal(),
        y=pose.y + loc_sigma * rng.standard_normal(),
        heading=wrap_angle(pose.heading + head_sigma * rng.standard_normal()),
    )


def source_coords(h: int, w: int, cell_size: float, sender: Pose2D,
                  ego: Pose2D) -> np.ndarray:
    """Fractional (row, col) positions in the sender grid for each ego cell."""
    wx, wy = cell_world(ego, h, w, cell_size)
    cs, ss = math.cos(sender.heading), math.sin(sender.heading)
    dx, dy = wx - sender.x, wy - sender.y
    lx = cs * dx + ss * dy
    ly = -ss * dx + cs * dy
    cols = lx / cell_size + (w - 1) / 2.0
    rows = ly / cell_size + (h - 1) / 2.0
    return np.stack([rows, cols])


def transform_to_ego(feature: Tensor, sender: Pose2D, ego: Pose2D,
                     cell_size: float) -> Tensor:
    """Resample a sender-frame grid into the ego frame; outside reads zero."""
    _, h, w = feature.data.shape
    return bilinear_sample(feature, Tensor(source_coords(h, w, cell_size, sender, ego)))


# ---------------------------------------------------------------------------
# the channel
# ---------------------------------------------------------------------------

@dataclass
class ChannelConfig:
    max_latency_ticks: int = entry("L_ticks", 3, ge=0)
    drop_p: float = entry("drop_p", 0.0, ge=0.0, le=1.0)
    loc_sigma: float = entry("loc_sigma", 0.0, ge=0.0, le=LIMIT_M)
    head_sigma: float = entry("head_sigma", 0.0, ge=0.0, le=LIMIT_M)

    def __post_init__(self):
        check(self, "channel", "channel.")


@dataclass
class FeaturePacket:
    feature: Callable[[], Tensor]     # the sender's view, computed on call
    sender: str
    emit_tick: int
    arrive_tick: int            # -1 when dropped
    reported_pose: Pose2D


class Channel:
    """Stateful per-scenario channel: independent drops, uniform latency."""

    def __init__(self, cfg: ChannelConfig, seed: int):
        self.cfg = cfg
        self.rng = stream(seed, "channel")
        self.pending: list[FeaturePacket] = []

    def send(self, sender: str, feature: Callable[[], Tensor], reported_pose: Pose2D,
             tick: int) -> FeaturePacket:
        dropped = bool(self.rng.random() < self.cfg.drop_p)
        latency = int(self.rng.integers(0, self.cfg.max_latency_ticks + 1))
        pkt = FeaturePacket(feature=feature, sender=sender, emit_tick=tick,
                            arrive_tick=-1 if dropped else tick + latency,
                            reported_pose=reported_pose)
        if not dropped:
            self.pending.append(pkt)
        return pkt

    def deliver(self, now: int) -> list[FeaturePacket]:
        ready = [p for p in self.pending if p.arrive_tick <= now]
        self.pending = [p for p in self.pending if p.arrive_tick > now]
        return sorted(ready, key=lambda p: (p.arrive_tick, p.sender))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass
class AgentSpec:
    id: str = entry("id")
    pose: Pose2D = entry("pose")
    fov_m: float = entry("fov_m", gt=0.0)


@dataclass(frozen=True)
class _SceneObject:
    """One row of a scenario document's `objects`."""
    x: float = entry("x", ge=-LIMIT_M, le=LIMIT_M)
    y: float = entry("y", ge=-LIMIT_M, le=LIMIT_M)
    w: float = entry("w", gt=0.0)
    h: float = entry("h", gt=0.0)
    vx: float = entry("vx", ge=-LIMIT_M, le=LIMIT_M)
    vy: float = entry("vy", ge=-LIMIT_M, le=LIMIT_M)


def _read_scene(doc: dict) -> Scene:
    """A scenario document's `objects`, which may be empty, and `bounds_m`.

    Every object starts within the walls and moves at most 2 * bounds_m per
    tick on each axis, so that one reflection per tick keeps it in the arena.
    """
    rows = doc.get("objects")
    objects = [] if rows == [] else parse(list[_SceneObject], rows, "objects")
    bounds = parse(float, doc.get("bounds_m", 10.0), "bounds_m", gt=0.0, le=LIMIT_M)
    for i, o in enumerate(objects):
        if max(abs(o.x), abs(o.y)) > bounds:
            raise ConfigError(f"objects[{i}] at ({o.x}, {o.y}) lies outside "
                              f"bounds_m = {bounds}")
        if max(abs(o.vx), abs(o.vy)) > 2.0 * bounds:
            raise ConfigError(f"objects[{i}] velocity ({o.vx}, {o.vy}) exceeds "
                              f"2 * bounds_m = {2.0 * bounds} per tick")
    return Scene(objects=[astuple(o) for o in objects], bounds=bounds)


def _write_scene(scene: Scene) -> dict:
    return {"objects": write([_SceneObject(*o) for o in scene.objects]),
            "bounds_m": scene.bounds}


@dataclass
class Scenario:
    seed: int = entry("seed")
    ticks: int = entry("ticks", ge=1)
    agents: list[AgentSpec] = entry("agents")      # ego first
    scene: Scene = field(metadata={"keys": ("objects", "bounds_m"), "read": _read_scene,
                                   "write": _write_scene})
    channel: ChannelConfig = entry("channel")

    def __post_init__(self):
        ids = [a.id for a in self.agents]
        if len(set(ids)) < len(ids):
            raise ConfigError(f"agent ids must be unique, got {ids}")

    def to_json(self) -> dict:
        return write(self)

    @staticmethod
    def from_json(doc) -> "Scenario":
        """Read a scenario document; every key but `bounds_m` is required."""
        return read(Scenario, doc, "scenario")


def load_scenario(path) -> Scenario:
    return Scenario.from_json(json.loads(Path(path).read_text()))


def save_scenario(path, scenario: Scenario) -> None:
    Path(path).write_text(json.dumps(scenario.to_json(), indent=2) + "\n")


def make_scenario(seed: int, channel: ChannelConfig, ticks: int,
                  n_agents: int = 3, n_objects: int = 5, bounds: float = 9.0,
                  fov_ego: float = 8.0, fov_collab: float = 9.0) -> Scenario:
    """Random stationary agents around the origin watching moving objects."""
    rng = stream(seed, "agents")
    agents = [AgentSpec(id="ego",
                        pose=Pose2D(0.0, 0.0, rng.uniform(-math.pi, math.pi)),
                        fov_m=fov_ego)]
    for i in range(n_agents - 1):
        radius = rng.uniform(4.0, 9.0)
        angle = rng.uniform(-math.pi, math.pi)
        agents.append(AgentSpec(
            id=f"c{i + 1}",
            pose=Pose2D(radius * math.cos(angle), radius * math.sin(angle),
                        rng.uniform(-math.pi, math.pi)),
            fov_m=fov_collab))
    scene = make_scene(seed, n_objects=n_objects, bounds=bounds)
    return Scenario(seed=seed, ticks=ticks, agents=agents, scene=scene, channel=channel)
