"""Synthetic multi-agent world and lossy, laggy feature channel.

Scenes are axis-aligned rectangles moving at constant velocity inside a
square arena, reflecting at the walls. An agent's view is a top-down
occupancy grid in its own pose-centered, heading-aligned frame, restricted
to its field of view, plus fixed sinusoidal coordinate channels. A packet
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
from dataclasses import astuple, dataclass, field, replace
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
    seed: int

    def __post_init__(self):
        self.objects = np.asarray(self.objects, dtype=np.float64).reshape(-1, 6)


def step_scene(scene: Scene) -> Scene:
    """Advance one tick; reflect position and velocity at the arena walls."""
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
    return Scene(objects=obj, bounds=scene.bounds, seed=scene.seed)


# object speeds (m/tick) and box extents (m) are drawn uniformly from these
SPEED_RANGE = (1.2, 2.2)
EXTENT_RANGE = (1.8, 3.0)


def make_scene(seed: int, n_objects: int = 5, bounds: float = 9.0) -> Scene:
    rng = stream(seed, "scene")
    pos = rng.uniform(-0.8 * bounds, 0.8 * bounds, size=(n_objects, 2))
    ext = rng.uniform(*EXTENT_RANGE, size=(n_objects, 2))
    ang = rng.uniform(-math.pi, math.pi, size=n_objects)
    spd = rng.uniform(*SPEED_RANGE, size=n_objects)
    vel = np.stack([spd * np.cos(ang), spd * np.sin(ang)], axis=1)
    return Scene(objects=np.hstack([pos, ext, vel]), bounds=bounds, seed=seed)


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


def render_bev(scene: Scene, pose: Pose2D, h: int, w: int, cell_size: float,
               fov_m: float | None = None, channels: int = 8) -> Tensor:
    """Occupancy plus positional channels in the agent's local frame.

    Only objects whose center lies within fov_m of the agent are drawn;
    fov_m=None draws everything (ground-truth mode).
    """
    if h % 4 or w % 4:
        raise ValueError(f"grid dims must be divisible by 4, got {h}x{w}")
    xs, ys = _cell_centers(h, w, cell_size)
    ct, st = math.cos(pose.heading), math.sin(pose.heading)
    world_x = pose.x + ct * xs - st * ys
    world_y = pose.y + st * xs + ct * ys
    occ = np.zeros((h, w))
    for ox, oy, ow, oh, _, _ in scene.objects:
        if fov_m is not None and math.hypot(ox - pose.x, oy - pose.y) > fov_m:
            continue
        inside = (np.abs(world_x - ox) <= ow / 2.0) & (np.abs(world_y - oy) <= oh / 2.0)
        occ = np.maximum(occ, inside)
    planes = np.concatenate([occ[None], coordinate_channels(h, w, channels - 1)])
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
    seed: int = 0               # not a document key: a scenario's channel takes its seed

    def __post_init__(self):
        check(self, "channel", "channel.")


@dataclass
class FeaturePacket:
    feature: Callable[[], Tensor]     # the sender's view, computed on call
    sender: str
    emit_tick: int
    arrive_tick: int            # -1 while undecided / dropped
    reported_pose: Pose2D
    dropped: bool = False


class Channel:
    """Stateful per-scenario channel: independent drops, uniform latency."""

    def __init__(self, cfg: ChannelConfig):
        self.cfg = cfg
        self.rng = stream(cfg.seed, "channel")
        self.pending: list[FeaturePacket] = []

    def send(self, sender: str, feature: Callable[[], Tensor], reported_pose: Pose2D,
             tick: int) -> FeaturePacket:
        dropped = bool(self.rng.random() < self.cfg.drop_p)
        latency = int(self.rng.integers(0, self.cfg.max_latency_ticks + 1))
        pkt = FeaturePacket(feature=feature, sender=sender, emit_tick=tick,
                            arrive_tick=-1 if dropped else tick + latency,
                            reported_pose=reported_pose, dropped=dropped)
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
    """A scenario document's `objects`, which may be empty, and `bounds_m`."""
    rows = doc.get("objects")
    objects = [] if rows == [] else parse(list[_SceneObject], rows, "objects")
    bounds = parse(float, doc.get("bounds_m", 10.0), "bounds_m", gt=0.0, le=LIMIT_M)
    return Scene(objects=[astuple(o) for o in objects], bounds=bounds, seed=0)


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
        scenario = read(Scenario, doc, "scenario")
        scenario.scene.seed = scenario.channel.seed = scenario.seed
        return scenario


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
    return Scenario(seed=seed, ticks=ticks, agents=agents, scene=scene,
                    channel=replace(channel, seed=seed))
