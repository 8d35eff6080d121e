"""End-to-end pipeline assembly, configuration, and metric evaluation.

Per tick: every agent renders its local view, collaborators push features
through the channel, and the ego pushes the tick's fused map into the
feature buffer: the re-projection of whatever has arrived (most recent
packet per sender: lost packets are forward-filled by construction) and
its integration with the ego view. That map is computed only when a stage
reads it; a map evicted from the buffer unread is never computed. At
measured ticks the enabled stages run: temporal sync over the feature
buffer anchored to the fresh ego view, wavelet denoising, adaptive
selection, and a 1x1-conv occupancy decoder. Disabled stages pass their
input through unchanged (with stsync off, only the newest map is read).

Metrics are desk-scale proxies: thresholded-occupancy IoU against the
ego-frame ground truth, and the mean squared distance of the denoiser-stage
output to a clean reference (perfect-channel integration of current-tick
features with true poses, same weights).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .denoise import WaveletDenoiser
from .ops import concat, conv2d, reshape
from .select import FeatureSelector
from .serialize import assign_params, load_params, save_params
from .sync import FeatureBuffer, Integrator, TemporalSync
from .tensor import Parameter, Tensor, no_grad
from .world import (Channel, ChannelConfig, Scenario, make_scenario,
                    perturb_pose, render_bev, step_scene, stream,
                    transform_to_ego)


class ConfigError(ValueError):
    """Raised for invalid pipeline configuration (CLI exit code 2)."""


@dataclass
class TrainSpec:
    steps: int = 500
    learning_rate: float = 1e-3
    batch_scenes: int = 1
    seed: int = 0


@dataclass
class PipelineConfig:
    height: int = 32
    width: int = 32
    channels: int = 8
    buffer_k: int = 4
    scales: tuple[int, ...] = (4, 8)
    retention: float = 0.3
    ssm_state_dim: int = 16
    anchor_points: int = 4
    cell_size: float = 0.75
    n_agents: int = 3
    n_objects: int = 5
    bounds_m: float = 9.0
    fov_ego_m: float = 8.0
    fov_collab_m: float = 9.0
    eval_scenarios: int = 6
    eval_measure_ticks: int = 8
    channel: ChannelConfig = field(default_factory=lambda: ChannelConfig(
        max_latency_ticks=3, drop_p=0.0, loc_sigma=0.2, head_sigma=0.2 * np.pi / 18))
    training: TrainSpec = field(default_factory=TrainSpec)
    stsync: bool = True
    wtden: bool = True
    adpsel: bool = True
    seed: int = 0

    def validate(self) -> "PipelineConfig":
        if self.height % 4 or self.width % 4:
            raise ConfigError(f"grid must be divisible by 4, got "
                              f"{self.height}x{self.width}")
        if not self.scales or min(self.scales) < 1:
            raise ConfigError(f"scales must be a nonempty list of values >= 1, "
                              f"got {list(self.scales)}")
        for s in self.scales:
            if self.height % s or self.width % s:
                raise ConfigError(f"scale {s} does not divide grid "
                                  f"{self.height}x{self.width}")
        if not 0.0 < self.retention <= 1.0:
            raise ConfigError(f"retention must lie in (0, 1], got {self.retention}")
        if self.buffer_k < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {self.buffer_k}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.n_agents < 1:
            raise ConfigError(f"need at least the ego agent, got {self.n_agents}")
        if self.training.steps < 1:
            raise ConfigError(f"training steps must be >= 1, got {self.training.steps}")
        if self.training.batch_scenes < 1:
            raise ConfigError(f"batch_scenes must be >= 1, got {self.training.batch_scenes}")
        if self.eval_scenarios < 1:
            raise ConfigError(f"eval_scenarios must be >= 1, got {self.eval_scenarios}")
        if self.eval_measure_ticks < 1:
            raise ConfigError(f"eval_measure_ticks must be >= 1, got {self.eval_measure_ticks}")
        for name, value in (("cell_size", self.cell_size), ("bounds_m", self.bounds_m),
                            ("fov_ego_m", self.fov_ego_m),
                            ("fov_collab_m", self.fov_collab_m)):
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        # 0 is allowed: training then keeps the parameters as they are
        lr = self.training.learning_rate
        if not (np.isfinite(lr) and lr >= 0.0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {lr}")
        try:
            ChannelConfig(**vars(self.channel))
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return self

    def warmup_ticks_for(self, channel: ChannelConfig | None = None) -> int:
        ch = channel if channel is not None else self.channel
        return self.buffer_k + ch.max_latency_ticks

    def to_json(self) -> dict:
        return {
            "H": self.height, "W": self.width, "C": self.channels,
            "K": self.buffer_k, "scales": list(self.scales), "k": self.retention,
            "ssm_state_dim": self.ssm_state_dim, "anchor_points": self.anchor_points,
            "cell_size": self.cell_size, "n_agents": self.n_agents,
            "n_objects": self.n_objects, "bounds_m": self.bounds_m,
            "fov_ego_m": self.fov_ego_m, "fov_collab_m": self.fov_collab_m,
            "eval_scenarios": self.eval_scenarios,
            "eval_measure_ticks": self.eval_measure_ticks,
            "channel": {"L_ticks": self.channel.max_latency_ticks,
                        "drop_p": self.channel.drop_p,
                        "loc_sigma": self.channel.loc_sigma,
                        "head_sigma": self.channel.head_sigma},
            "training": {"steps": self.training.steps,
                         "learning_rate": self.training.learning_rate,
                         "batch_scenes": self.training.batch_scenes,
                         "seed": self.training.seed},
            "stsync": self.stsync, "wtden": self.wtden, "adpsel": self.adpsel,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(doc: dict) -> "PipelineConfig":
        """Read a config document; omitted keys, nested ones too, keep their defaults.

        The accepted keys are those ``to_json`` writes, plus ``channel.seed``;
        any other key is rejected.
        """
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        cfg = PipelineConfig()
        known = cfg.to_json()
        known["channel"]["seed"] = cfg.channel.seed
        _reject_unknown(doc, known, "config")
        for name in ("channel", "training"):
            if not isinstance(doc.get(name, {}), dict):
                raise ConfigError(f"{name} must be a JSON object, got {doc[name]!r}")
            _reject_unknown(doc.get(name, {}), known[name], name)
        for name in ("stsync", "wtden", "adpsel"):
            if not isinstance(doc.get(name, False), bool):
                raise ConfigError(f"{name} must be a JSON boolean, got {doc[name]!r}")
        try:
            if "H" in doc:
                cfg.height = _as_int(doc["H"], "H")
            if "W" in doc:
                cfg.width = _as_int(doc["W"], "W")
            if "C" in doc:
                cfg.channels = _as_int(doc["C"], "C")
            if "K" in doc:
                cfg.buffer_k = _as_int(doc["K"], "K")
            if "scales" in doc:
                cfg.scales = tuple(_as_int(s, "scales") for s in doc["scales"])
            if "k" in doc:
                cfg.retention = float(doc["k"])
            for name in ("ssm_state_dim", "anchor_points", "n_agents", "n_objects",
                         "eval_scenarios", "eval_measure_ticks", "seed"):
                if name in doc:
                    setattr(cfg, name, _as_int(doc[name], name))
            for name in ("cell_size", "bounds_m", "fov_ego_m", "fov_collab_m"):
                if name in doc:
                    setattr(cfg, name, float(doc[name]))
            ch, base = doc.get("channel", {}), cfg.channel
            cfg.channel = ChannelConfig(
                max_latency_ticks=_as_int(ch.get("L_ticks", base.max_latency_ticks),
                                          "channel.L_ticks"),
                drop_p=float(ch.get("drop_p", base.drop_p)),
                loc_sigma=float(ch.get("loc_sigma", base.loc_sigma)),
                head_sigma=float(ch.get("head_sigma", base.head_sigma)),
                seed=_as_int(ch.get("seed", base.seed), "channel.seed"))
            tr, spec = doc.get("training", {}), cfg.training
            cfg.training = TrainSpec(
                steps=_as_int(tr.get("steps", spec.steps), "training.steps"),
                learning_rate=float(tr.get("learning_rate", spec.learning_rate)),
                batch_scenes=_as_int(tr.get("batch_scenes", spec.batch_scenes),
                                     "training.batch_scenes"),
                seed=_as_int(tr.get("seed", spec.seed), "training.seed"))
            for name in ("stsync", "wtden", "adpsel"):
                setattr(cfg, name, doc.get(name, getattr(cfg, name)))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed config: {e}") from e
        return cfg.validate()


def _as_int(value, name: str) -> int:
    """`value` as an int: an integral float such as 8.0 reads as 8; a boolean
    or a non-integral number is rejected."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _reject_unknown(doc: dict, known: dict, where: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"unknown {where} key {unknown[0]!r}")


def load_config(path) -> PipelineConfig:
    return PipelineConfig.from_json(json.loads(Path(path).read_text()))


@dataclass
class MetricRecord:
    config_id: str
    mse_to_clean: float
    occupancy_iou: float


class Pipeline:
    """All learned blocks plus the per-tick stage wiring."""

    def __init__(self, cfg: PipelineConfig):
        cfg.validate()
        self.cfg = cfg
        self.integrator = Integrator(cfg.channels, self._rng("integrate"))
        self.sync = TemporalSync(cfg.channels, self._rng("sync"),
                                 n_anchor_points=cfg.anchor_points)
        self.denoiser = WaveletDenoiser(cfg.channels, cfg.ssm_state_dim,
                                        self._rng("denoise"))
        self.selector = FeatureSelector(cfg.channels, cfg.scales, cfg.retention,
                                        self._rng("select"))
        dec = np.zeros((1, cfg.channels, 1, 1))
        dec[0, 0, 0, 0] = 4.0
        self.decoder_kernel = Parameter(dec, "decoder.kernel")
        self.decoder_bias = Parameter(np.full((1, 1, 1), -2.0), "decoder.bias")

    def _rng(self, label: str) -> np.random.Generator:
        return stream(self.cfg.seed, f"params.{label}")

    def parameters(self) -> dict[str, Parameter]:
        out: dict[str, Parameter] = {}
        for block in (self.integrator, self.sync, self.denoiser, self.selector):
            out.update(block.parameters())
        out[self.decoder_kernel.name] = self.decoder_kernel
        out[self.decoder_bias.name] = self.decoder_bias
        return out

    # -- stages (disabled stages return their input object unchanged) ------

    def sync_stage(self, buffer: FeatureBuffer, ego_feature: Tensor) -> Tensor:
        if not self.cfg.stsync:
            return buffer.entries[-1]
        return self.sync(buffer, ego_feature)

    def denoise_stage(self, x: Tensor) -> Tensor:
        return self.denoiser(x) if self.cfg.wtden else x

    def select_stage(self, x: Tensor) -> Tensor:
        return self.selector(x) if self.cfg.adpsel else x

    def decode(self, x: Tensor) -> Tensor:
        return conv2d(x, self.decoder_kernel) + self.decoder_bias

    def save(self, path) -> None:
        save_params(path, self.parameters())

    def load(self, path) -> None:
        assign_params(self.parameters(), load_params(path))


@dataclass
class StepOutput:
    tick: int
    denoised: Tensor
    logits: Tensor
    gt_occupancy: np.ndarray
    clean_reference: np.ndarray


def simulate(pipe: Pipeline, scenario: Scenario, measure,
             trace_rows: list | None = None) -> list[StepOutput]:
    """Run a scenario; produce StepOutputs at ticks where measure(tick) is true."""
    cfg = pipe.cfg
    scene = scenario.scene
    channel = Channel(scenario.channel)
    noise_rng = stream(scenario.channel.seed, "pose-noise")
    ego = scenario.agents[0]
    collaborators = scenario.agents[1:]
    latest: dict[str, object] = {}
    buffer = FeatureBuffer(cfg.buffer_k)
    outputs: list[StepOutput] = []

    for tick in range(scenario.ticks):
        feats = {a.id: render_bev(scene, a.pose, cfg.height, cfg.width,
                                  cfg.cell_size, fov_m=a.fov_m,
                                  channels=cfg.channels)
                 for a in scenario.agents}
        for a in collaborators:
            reported = perturb_pose(a.pose, scenario.channel.loc_sigma,
                                    scenario.channel.head_sigma, noise_rng)
            pkt = channel.send(a.id, feats[a.id], reported, tick)
            if trace_rows is not None:
                trace_rows.append((tick, a.id, pkt.emit_tick, pkt.arrive_tick,
                                   int(pkt.dropped)))
        for pkt in channel.deliver(tick):
            cur = latest.get(pkt.sender)
            if cur is None or pkt.emit_tick > cur.emit_tick:
                latest[pkt.sender] = pkt

        # the buffer integrates this tick only if a stage reads it before eviction
        views = [(latest[a.id].feature, latest[a.id].reported_pose)
                 for a in collaborators if a.id in latest]
        buffer.push(partial(fuse, pipe, feats[ego.id], views, ego.pose), tick)

        if measure(tick):
            synced = pipe.sync_stage(buffer, feats[ego.id])
            denoised = pipe.denoise_stage(synced)
            logits = pipe.decode(pipe.select_stage(denoised))
            gt = render_bev(scene, ego.pose, cfg.height, cfg.width, cfg.cell_size,
                            fov_m=None, channels=cfg.channels).data[0]
            outputs.append(StepOutput(
                tick=tick, denoised=denoised, logits=logits, gt_occupancy=gt,
                clean_reference=clean_reference(pipe, scenario, feats)))
        scene = step_scene(scene)
    return outputs


def fuse(pipe: Pipeline, ego_feature: Tensor, views, ego_pose) -> Tensor:
    """Integrate the ego feature with collaborator (feature, sender pose) views."""
    cfg = pipe.cfg
    shape = (1, cfg.channels, cfg.height, cfg.width)
    parts = [reshape(ego_feature, shape)]
    for feature, pose in views:
        warped = transform_to_ego(feature, pose, ego_pose, cfg.cell_size)
        parts.append(reshape(warped, shape))
    stack = parts[0] if len(parts) == 1 else concat(parts, axis=0)
    return pipe.integrator(stack)


def clean_reference(pipe: Pipeline, scenario: Scenario, feats) -> np.ndarray:
    """Perfect-channel integration of current-tick features with true poses."""
    ego = scenario.agents[0]
    with no_grad():
        views = [(feats[a.id], a.pose) for a in scenario.agents[1:]]
        return fuse(pipe, feats[ego.id], views, ego.pose).data.copy()


def occupancy_iou(logits: np.ndarray, gt: np.ndarray) -> float:
    pred = logits.reshape(gt.shape) > 0.0
    truth = gt > 0.5
    union = np.logical_or(pred, truth).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, truth).sum() / union)


def eval_scenario_seed(cfg: PipelineConfig, index: int) -> int:
    return (cfg.seed * 7919 + 104729 + index) & 0x7FFFFFFF


def evaluate(pipe: Pipeline, channel: ChannelConfig | None = None,
             config_id: str = "run", scenario: Scenario | None = None,
             trace_rows: list | None = None) -> MetricRecord:
    """Average metrics over the paired evaluation scenario set (or one scenario)."""
    cfg = pipe.cfg
    ch = channel if channel is not None else cfg.channel
    ticks = cfg.warmup_ticks_for(ch) + cfg.eval_measure_ticks
    if scenario is not None:
        scenarios = [scenario]
    else:
        scenarios = [make_scenario(eval_scenario_seed(cfg, i), ch, ticks,
                                   n_agents=cfg.n_agents, n_objects=cfg.n_objects,
                                   bounds=cfg.bounds_m, fov_ego=cfg.fov_ego_m,
                                   fov_collab=cfg.fov_collab_m)
                     for i in range(cfg.eval_scenarios)]
    ious, mses = [], []
    with no_grad():
        for scen in scenarios:
            warm = cfg.warmup_ticks_for(scen.channel)
            outs = simulate(pipe, scen, measure=lambda t, w=warm: t >= w,
                            trace_rows=trace_rows)
            for o in outs:
                ious.append(occupancy_iou(o.logits.data, o.gt_occupancy))
                mses.append(float(np.mean((o.denoised.data - o.clean_reference) ** 2)))
    return MetricRecord(config_id=config_id, mse_to_clean=float(np.mean(mses)),
                        occupancy_iou=float(np.mean(ious)))


def run_pipeline(cfg: PipelineConfig, scenario: Scenario | None = None,
                 pipe: Pipeline | None = None,
                 trace_rows: list | None = None) -> MetricRecord:
    """Evaluate one configuration (fresh parameters unless a pipeline is given)."""
    cfg.validate()
    if pipe is None:
        pipe = Pipeline(cfg)
    return evaluate(pipe, config_id=config_label(cfg), scenario=scenario,
                    trace_rows=trace_rows)


def config_label(cfg: PipelineConfig) -> str:
    if cfg.stsync and cfg.wtden and cfg.adpsel:
        return "full"
    if not (cfg.stsync or cfg.wtden or cfg.adpsel):
        return "baseline"
    on = [name for name, flag in (("stsync", cfg.stsync), ("wtden", cfg.wtden),
                                  ("adpsel", cfg.adpsel)) if flag]
    return "+".join(on)
