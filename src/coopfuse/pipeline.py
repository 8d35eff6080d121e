"""End-to-end pipeline assembly, configuration, and metric evaluation.

Per tick: collaborators send their local views through the channel, and
the ego pushes the tick's fused map into the K-entry feature buffer: the
re-projection of whatever has arrived (newest packet per sender, so lost
packets are forward-filled) integrated with the ego view. Views and maps
are cached thunks, computed on first read and at most once: a view nothing
reads is never rendered, a map evicted unread never integrated. At
measured ticks the enabled stages run: temporal sync over the buffer
anchored to the fresh ego view, wavelet denoising, adaptive selection, and
a 1x1-conv occupancy decoder. Disabled stages pass their input through
unchanged (with stsync off, only the newest map is read).

Metrics are desk-scale proxies: thresholded-occupancy IoU against the
ego-frame ground truth, and the mean squared distance of the denoiser-stage
output to a clean reference (perfect-channel integration of current-tick
features with true poses, same weights).
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
from collections import deque
from dataclasses import dataclass, replace
from decimal import ROUND_UP, Decimal, localcontext
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .denoise import SCAN_PATHS, WaveletDenoiser
from .ops import _SCAN_BLOCK, conv2d
from .select import IB_RATIO, FeatureSelector
from .schema import ConfigError, check, entry, read, write
from .serialize import assign_params, load_params, save_params
from .sync import Integrator, TemporalSync
from .tensor import ParamBlock, Tensor, no_grad
from .world import (LIMIT_M, SPEED_RANGE, Channel, ChannelConfig, FeaturePacket, Scenario,
                    make_scenario, perturb_pose, render_bev, step_scene, stream,
                    transform_to_ego)

# A config is rejected when its parameters, or the largest array one tick of it
# allocates, would take more than this many bytes. The cap is fixed rather than
# read from the host, so a config is accepted or rejected alike everywhere.
SIZE_CAP_BYTES = 8 * 2**30

# A config or scenario is rejected when a command would simulate more ticks
# than this, counted from the fields: 2,500 times the 4,000 ticks of the desk
# training (500 steps of K + L_ticks + 1 = 8 ticks).
TICK_CAP = 10**7


def _ticks(n: int) -> str:
    """A tick count such as "4.0e9", rounded up, so a count over the cap never
    reads as the cap; exact for counts too large for a float."""
    with localcontext(rounding=ROUND_UP):
        mantissa, exponent = f"{Decimal(n):.1e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _size(n_bytes: int) -> str:
    """n_bytes in binary units, such as "1.3 TiB"; past 1024 EiB only that bound,
    since a count from the fields can be too large for a float."""
    for i, unit in enumerate(("B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")):
        if n_bytes < 1024 ** (i + 1):
            return f"{n_bytes / 1024 ** i:.1f} {unit}"
    return "over 1024 EiB"


@dataclass(frozen=True)
class TrainSpec:
    steps: int = entry("steps", 500, ge=1)
    learning_rate: float = entry("learning_rate", 1e-3, ge=0.0)   # 0 keeps the parameters
    batch_scenes: int = entry("batch_scenes", 1, ge=1)
    seed: int = entry("seed", 0)


@dataclass(frozen=True)
class PipelineConfig:
    height: int = entry("H", 32, ge=4)
    width: int = entry("W", 32, ge=4)
    channels: int = entry("C", 8, ge=2)       # occupancy plus positional channels
    buffer_k: int = entry("K", 4, ge=1)
    scales: tuple[int, ...] = entry("scales", (4, 8), ge=1)
    retention: float = entry("k", 0.3, gt=0.0, le=1.0)
    ssm_state_dim: int = entry("ssm_state_dim", 16, ge=1)
    anchor_points: int = entry("anchor_points", 4, ge=1)
    cell_size: float = entry("cell_size", 0.75, ge=1 / LIMIT_M)
    n_agents: int = entry("n_agents", 3, ge=1)
    n_objects: int = entry("n_objects", 5, ge=0)
    # an arena narrower than one tick's top speed lets drawn objects escape it
    bounds_m: float = entry("bounds_m", 9.0, ge=SPEED_RANGE[1] / 2, le=LIMIT_M)
    fov_ego_m: float = entry("fov_ego_m", 8.0, gt=0.0)
    fov_collab_m: float = entry("fov_collab_m", 9.0, gt=0.0)
    eval_scenarios: int = entry("eval_scenarios", 6, ge=1)
    eval_measure_ticks: int = entry("eval_measure_ticks", 8, ge=1)
    channel: ChannelConfig = entry("channel", ChannelConfig())
    training: TrainSpec = entry("training", TrainSpec())
    stsync: bool = entry("stsync", True)
    wtden: bool = entry("wtden", True)
    adpsel: bool = entry("adpsel", True)
    seed: int = entry("seed", 0)

    def __post_init__(self):
        """Check every field against its table entry, then the rules that tie fields together."""
        check(self, "config")
        if self.height % 4 or self.width % 4:
            raise ConfigError(f"grid must be divisible by 4, got "
                              f"{self.height}x{self.width}")
        for s in self.scales:
            if self.height % s or self.width % s:
                raise ConfigError(f"scale {s} does not divide grid "
                                  f"{self.height}x{self.width}")
        params = self.parameter_count()
        if 8 * params > SIZE_CAP_BYTES:
            raise ConfigError(f"C={self.channels}, anchor_points={self.anchor_points}, "
                              f"ssm_state_dim={self.ssm_state_dim} need {_size(8 * params)} "
                              f"of parameters, over the {_size(SIZE_CAP_BYTES)} cap")
        count, what = self.largest_tick_array()
        if 8 * count > SIZE_CAP_BYTES:
            raise ConfigError(f"{what} needs {_size(8 * count)} in one array, over the "
                              f"{_size(SIZE_CAP_BYTES)} cap")
        self.check_ticks()

    def parameter_count(self) -> int:
        """The pipeline's parameter count, from the fields alone: every block is
        built whichever stages are on."""
        c, m, n = self.channels, self.anchor_points, self.ssm_state_dim
        paths, half = SCAN_PATHS, max(1, c // 2)
        integrate = 2 * c * c * 9 + c
        sync = ((2 * 2 * c * 9 + 2) + 2 * (c * c * 9 + c) + (2 * c * 9 + 2)     # offsets, warps
                + (2 * c * 49 + 1) + c + 3 * m * (c + 1))                       # gate, anchor
        denoise = (paths * (c * c + c + 2 * (c * n + n) + c + n)                # scan
                   + (4 * c) ** 2 + 4 * c + (16 * c) ** 2 * 9 + 16 * c + (4 * c) ** 2 * 9 + 4 * c)
        select = (4 * c * c + c + 2 * IB_RATIO * c * c + IB_RATIO * c + c      # attention, bottleneck
                  + c * c * 9 + c + half * (2 * c + 1))                         # aggregation, split
        return integrate + sync + denoise + select + c + 1                      # decoder

    def tick_counts(self, channel: ChannelConfig | None = None) -> list[tuple[str, int]]:
        """The ticks a training and an evaluation simulate, from the fields alone:
        steps x batch_scenes x (K + L_ticks + 1), and eval_scenarios x
        (K + L_ticks + eval_measure_ticks), the evaluation's L_ticks that of
        `channel` (the config's own by default)."""
        spec = self.training
        return [("training", spec.steps * spec.batch_scenes * (self.warmup_ticks_for() + 1)),
                ("evaluation", self.eval_scenarios
                 * (self.warmup_ticks_for(channel) + self.eval_measure_ticks))]

    def check_ticks(self, channel: ChannelConfig | None = None) -> None:
        """Reject a training, or an evaluation on `channel`, of more than TICK_CAP ticks."""
        for what, ticks in self.tick_counts(channel):
            if ticks > TICK_CAP:
                raise ConfigError(f"{what} needs {_ticks(ticks)} ticks, over the "
                                  f"{_ticks(TICK_CAP)} cap")

    def largest_tick_array(self) -> tuple[int, str]:
        """The element count of the largest array one tick allocates, from the
        fields alone, and the fields and the array it comes from."""
        c, h, w = self.channels, self.height, self.width
        m, n, cells = self.anchor_points, self.ssm_state_dim, self.height * self.width
        grid = f"H={h}, W={w}"
        return max(
            (4 * c * m * cells, f"{grid}, C={c}, anchor_points={m} (stsync's anchor corners)"),
            (9 * c * (h + 2) * (w + 2), f"{grid}, C={c} (the integrator's 3x3 conv)"),
            (49 * (h + 6) * (w + 6), f"{grid} (stsync's 7x7 gate conv)"),
            (SCAN_PATHS * cells * n,
             f"{grid}, ssm_state_dim={n} (wtden's scan gate gradients)"),
            (SCAN_PATHS * min(cells, _SCAN_BLOCK) * c * n,
             f"C={c}, ssm_state_dim={n} (wtden's scan block states)"),
            (self.n_agents * c * cells, f"{grid}, C={c}, n_agents={self.n_agents} "
                                        f"(the integrator's agent stack)"),
            (len(self.scales) * c * cells, f"{grid}, C={c}, {len(self.scales)} scales "
                                           f"(adpsel's scale stack)"),
            (6 * self.n_objects, f"n_objects={self.n_objects} (the scene)"))

    def check_scenario(self, scenario: Scenario) -> Scenario:
        """Check `scenario`'s fields, that it measures a tick after the warm-up
        and runs no more than TICK_CAP ticks, and that the stack of its agents'
        views fits under the size cap, sized as a config whose n_agents is the
        scenario's agent count."""
        check(scenario, "scenario")
        warm = self.warmup_ticks_for(scenario.channel)
        if scenario.ticks <= warm:
            raise ConfigError(f"ticks must exceed K + channel.L_ticks = {warm}, "
                              f"got {scenario.ticks}")
        if scenario.ticks > TICK_CAP:
            raise ConfigError(f"scenario needs {_ticks(scenario.ticks)} ticks, over the "
                              f"{_ticks(TICK_CAP)} cap")
        replace(self, n_agents=len(scenario.agents))        # checked as it is made
        return scenario

    def scenario(self, seed: int, channel: ChannelConfig, ticks: int) -> Scenario:
        """A drawn scenario with this config's agents, objects, arena and fields of view."""
        return make_scenario(seed, channel, ticks, n_agents=self.n_agents,
                             n_objects=self.n_objects, bounds=self.bounds_m,
                             fov_ego=self.fov_ego_m, fov_collab=self.fov_collab_m)

    def warmup_ticks_for(self, channel: ChannelConfig | None = None) -> int:
        ch = channel if channel is not None else self.channel
        return self.buffer_k + ch.max_latency_ticks

    def to_json(self) -> dict:
        return write(self)

    @staticmethod
    def from_json(doc) -> "PipelineConfig":
        """Read a config document; omitted keys, nested ones too, keep their defaults."""
        return read(PipelineConfig, doc, "config", PipelineConfig())


def load_config(path) -> PipelineConfig:
    return PipelineConfig.from_json(json.loads(Path(path).read_text()))


@dataclass
class MetricRecord:
    """One `evaluate`'s metrics, and the channel and retention it ran at."""
    config_id: str
    mse_to_clean: float
    occupancy_iou: float
    channel: ChannelConfig
    retention: float


class Pipeline(ParamBlock):
    """All learned blocks plus the per-tick stage wiring."""

    def __init__(self, cfg: PipelineConfig):
        super().__init__()
        self.cfg = cfg
        self.integrator = Integrator(cfg.channels, self._rng("integrate"))
        self.sync = TemporalSync(cfg.channels, self._rng("sync"),
                                 n_anchor_points=cfg.anchor_points)
        self.denoiser = WaveletDenoiser(cfg.channels, cfg.ssm_state_dim,
                                        self._rng("denoise"))
        self.selector = FeatureSelector(cfg.channels, cfg.scales, cfg.retention,
                                        self._rng("select"))
        for block in (self.integrator, self.sync, self.denoiser, self.selector):
            self.params.update(block.params)
        dec = np.zeros((1, cfg.channels, 1, 1))
        dec[0, 0, 0, 0] = 4.0
        self.decoder_kernel = self._p("decoder.kernel", dec)
        self.decoder_bias = self._p("decoder.bias", np.full((1, 1, 1), -2.0))

    def _rng(self, label: str) -> np.random.Generator:
        return stream(self.cfg.seed, f"params.{label}")

    # -- stages (disabled stages return their input object unchanged) ------

    def sync_stage(self, entries: Sequence[Callable[[], Tensor]],
                   ego_feature: Tensor) -> Tensor:
        if not self.cfg.stsync:
            return entries[-1]()
        return self.sync(entries, ego_feature)

    def denoise_stage(self, x: Tensor) -> Tensor:
        return self.denoiser(x) if self.cfg.wtden else x

    def select_stage(self, x: Tensor) -> Tensor:
        return self.selector(x) if self.cfg.adpsel else x

    def decode(self, x: Tensor) -> Tensor:
        return conv2d(x, self.decoder_kernel, self.decoder_bias)

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


def once(fn, *args, **kwargs) -> Callable[[], Tensor]:
    """A thunk that calls fn(*args, **kwargs) on its first call and returns
    that result from then on."""
    result = []

    def thunk():
        if not result:
            result.append(fn(*args, **kwargs))
        return result[0]
    return thunk


def simulate(pipe: Pipeline, scenario: Scenario, measure,
             trace_rows: list | None = None) -> list[StepOutput]:
    """Run a scenario; produce StepOutputs at ticks where measure(tick) is true."""
    cfg = pipe.cfg
    scene = scenario.scene
    channel = Channel(scenario.channel, scenario.seed)
    noise_rng = stream(scenario.seed, "pose-noise")
    ego = scenario.agents[0]
    collaborators = scenario.agents[1:]
    latest: dict[str, FeaturePacket] = {}
    entries: deque[Callable[[], Tensor]] = deque(maxlen=cfg.buffer_k)
    outputs: list[StepOutput] = []

    for tick in range(scenario.ticks):
        # views render on first read; the channel and pose noise draw every tick
        views = {a.id: once(render_bev, scene, a.pose, cfg.height, cfg.width, cfg.cell_size,
                            fov_m=a.fov_m, channels=cfg.channels)
                 for a in scenario.agents}
        for a in collaborators:
            reported = perturb_pose(a.pose, scenario.channel.loc_sigma,
                                    scenario.channel.head_sigma, noise_rng)
            pkt = channel.send(a.id, views[a.id], reported, tick)
            if trace_rows is not None:
                trace_rows.append((tick, a.id, pkt.emit_tick, pkt.arrive_tick,
                                   int(pkt.arrive_tick < 0)))
        for pkt in channel.deliver(tick):
            cur = latest.get(pkt.sender)
            if cur is None or pkt.emit_tick > cur.emit_tick:
                latest[pkt.sender] = pkt

        arrived = [(latest[a.id].feature, latest[a.id].reported_pose)
                   for a in collaborators if a.id in latest]
        entries.append(once(fuse, pipe, views[ego.id], arrived, ego.pose))

        if measure(tick):
            synced = pipe.sync_stage(entries, views[ego.id]())
            denoised = pipe.denoise_stage(synced)
            logits = pipe.decode(pipe.select_stage(denoised))
            gt = render_bev(scene, ego.pose, cfg.height, cfg.width, cfg.cell_size,
                            fov_m=None, channels=cfg.channels).data[0]
            outputs.append(StepOutput(
                tick=tick, denoised=denoised, logits=logits, gt_occupancy=gt,
                clean_reference=clean_reference(pipe, scenario, views)))
        scene = step_scene(scene)
    return outputs


def fuse(pipe: Pipeline, ego_view: Callable[[], Tensor], pairs, ego_pose) -> Tensor:
    """Integrate the ego view with collaborator (view, sender pose) pairs; views are thunks."""
    views = [ego_view()] + [transform_to_ego(view(), pose, ego_pose, pipe.cfg.cell_size)
                            for view, pose in pairs]
    return pipe.integrator(np.stack([v.data for v in views]))


def clean_reference(pipe: Pipeline, scenario: Scenario, views) -> np.ndarray:
    """Perfect-channel integration of the current tick's views with true poses."""
    ego = scenario.agents[0]
    with no_grad():
        pairs = [(views[a.id], a.pose) for a in scenario.agents[1:]]
        return fuse(pipe, views[ego.id], pairs, ego.pose).data


def occupancy_iou(logits: np.ndarray, gt: np.ndarray) -> float:
    """IoU of the positive logits with the occupied cells; NaN if any logit is nonfinite."""
    if not np.isfinite(logits).all():
        return math.nan
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
    """Average metrics over the paired evaluation scenario set on `channel`
    (the config's own by default), or over one scenario on its own channel.

    The scenarios run on ``fork_map``, one forked worker per usable core,
    and their results are joined in scenario order, so the record and the
    trace rows are bitwise those of a serial run.
    """
    cfg = pipe.cfg
    if scenario is not None:
        ch, scenarios = scenario.channel, [cfg.check_scenario(scenario)]
    else:
        ch = channel if channel is not None else cfg.channel
        cfg.check_ticks(ch)
        ticks = cfg.warmup_ticks_for(ch) + cfg.eval_measure_ticks
        scenarios = [cfg.scenario(eval_scenario_seed(cfg, i), ch, ticks)
                     for i in range(cfg.eval_scenarios)]
    ious, mses = [], []
    for rows, scen_ious, scen_mses in fork_map(partial(_scenario_result, pipe), scenarios):
        if trace_rows is not None:
            trace_rows.extend(rows)
        ious += scen_ious
        mses += scen_mses
    return MetricRecord(config_id=config_id, mse_to_clean=float(np.mean(mses)),
                        occupancy_iou=float(np.mean(ious)), channel=ch, retention=cfg.retention)


def _scenario_result(pipe: Pipeline, scen: Scenario
                     ) -> tuple[list[tuple], list[float], list[float]]:
    """One evaluation scenario's trace rows and the IoU and MSE of each of
    its measured ticks."""
    rows: list[tuple] = []
    warm = pipe.cfg.warmup_ticks_for(scen.channel)
    with no_grad():
        outs = simulate(pipe, scen, measure=lambda t: t >= warm, trace_rows=rows)
    return (rows,
            [occupancy_iou(o.logits.data, o.gt_occupancy) for o in outs],
            [float(np.mean((o.denoised.data - o.clean_reference) ** 2)) for o in outs])


def fork_workers(items: int) -> int:
    """How many processes ``fork_map`` may spread `items` independent items
    over: one per usable core (``os.sched_getaffinity``), at most one per item.

    It is 1, and the call stays serial, where ``os.fork`` does not exist and
    inside any multiprocessing child (a ``fork_map`` worker or one of the
    caller's own), since a worker that forks again oversubscribes the cores
    its parent already fills: an ``evaluate`` inside a ``variant_sweep``
    worker runs serially. ``train`` never forks.
    """
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (mp is not None and mp.parent_process() is not None):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(items, cores))


def _start_worker() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)      # an interrupt is the caller's to handle
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    threading.Thread(target=_exit_with_caller, daemon=True).start()


def _exit_with_caller() -> None:
    """End this worker once its caller has died, even by a SIGKILL that ran
    no shutdown: the pool's queues would leave it waiting forever."""
    import multiprocessing
    multiprocessing.parent_process().join()
    os._exit(1)


# the running fork_map call's fn and items; its workers inherit them through
# the fork and are sent only item indices
_mapped: tuple | None = None


def _map_item(index: int):
    fn, items = _mapped
    return fn(items[index])


def fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, in item order: serially where
    ``fork_workers(len(items))`` is 1, else on a pool of that many forked
    workers, made for the call and shut down before it returns.

    The workers fork at the first submit, before the pool starts its manager
    thread (coopfuse runs no thread of its own in the caller), so they inherit
    `fn` and `items` in memory; only results are pickled. They fork with SIGINT
    blocked, then ignore and unblock it, so a Ctrl-C reaches the caller alone,
    and exit if the caller dies. A call that raises, a Ctrl-C included, ends
    its workers rather than wait for their running tasks; an error `fn` raises
    keeps its type and message, and a dead worker (say, to the out-of-memory
    killer) raises ``BrokenProcessPool``. The pool's modules are imported only
    here.
    """
    global _mapped
    workers = fork_workers(len(items))
    if workers < 2:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _mapped = (fn, items)
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:    # not pool.map: on an error it cancels futures that the pool's thread then fails
        futures = [pool.submit(_map_item, i) for i in range(len(items))]
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return [future.result() for future in futures]
    except BaseException:
        for worker in list(pool._processes.values()):     # as 3.14's terminate_workers
            worker.terminate()
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)      # also after a submit raised
        pool.shutdown(cancel_futures=True)
        _mapped = None


def stages_on(cfg: PipelineConfig) -> list[str]:
    """The names of the fusion stages `cfg` turns on, in pipeline order."""
    return [name for name in ("stsync", "wtden", "adpsel") if getattr(cfg, name)]


def config_label(cfg: PipelineConfig) -> str:
    on = stages_on(cfg)
    return "full" if len(on) == 3 else "+".join(on) or "baseline"
