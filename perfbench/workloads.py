"""The three workloads: inputs, set-up and timed loops.

Every input comes from the ``--seed`` argument: it seeds the parameter
initialisation (``PipelineConfig.seed``), the training scenarios
(``TrainSpec.seed``) and, through ``PipelineConfig.seed``, the evaluation
scenarios. Configs are built in Python with every channel field written
out, because ``PipelineConfig.from_json`` resets omitted sigmas to 0.
"""

from __future__ import annotations

import math
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from coopfuse import pipeline, sweeps, training, world
from coopfuse.pipeline import Pipeline, PipelineConfig, TrainSpec
from coopfuse.world import ChannelConfig

from probe import machine_probe

# training steps run in each set-up round; eval-latency trains its checkpoint
# for this many steps, the train workloads use them to warm up
WARMUP_STEPS = 2
LATENCIES = tuple(range(6))


@dataclass(frozen=True)
class Workload:
    name: str
    stages: bool           # stsync, wtden and adpsel all on, or all off
    kind: str              # "train" (unit: a step) or "eval" (unit: a latency sweep)
    # A run does a fixed amount of work, sized from --seconds at this nominal
    # rate, so that what it checks (the trained parameters, the loss curve)
    # depends on the seed alone and not on how fast the machine happened to be.
    units_per_second: float

    def units(self, seconds: float) -> int:
        return max(1, round(seconds * self.units_per_second))


WORKLOADS = {w.name: w for w in (
    Workload("train-full", True, "train", 8.0),
    Workload("train-baseline", False, "train", 40.0),
    Workload("eval-latency", True, "eval", 0.1),
)}


def desk_config(seed: int, stages: bool) -> PipelineConfig:
    """The desk defaults, every field written out."""
    return PipelineConfig(
        height=32, width=32, channels=8, buffer_k=4, scales=(4, 8), retention=0.3,
        ssm_state_dim=16, anchor_points=4, cell_size=0.75, n_agents=3, n_objects=5,
        bounds_m=9.0, fov_ego_m=8.0, fov_collab_m=9.0, eval_scenarios=6,
        eval_measure_ticks=8,
        channel=ChannelConfig(max_latency_ticks=3, drop_p=0.0, loc_sigma=0.2,
                              head_sigma=0.2 * math.pi / 18),
        training=TrainSpec(steps=WARMUP_STEPS, learning_rate=1e-3, batch_scenes=1,
                           seed=seed),
        stsync=stages, wtden=stages, adpsel=stages, seed=seed)


def eval_scenarios(cfg: PipelineConfig, channel: ChannelConfig) -> list:
    """The scenario set ``evaluate`` draws for this config and channel."""
    ticks = cfg.warmup_ticks_for(channel) + cfg.eval_measure_ticks
    return [world.make_scenario(pipeline.eval_scenario_seed(cfg, i), channel, ticks,
                                n_agents=cfg.n_agents, n_objects=cfg.n_objects,
                                bounds=cfg.bounds_m, fov_ego=cfg.fov_ego_m,
                                fov_collab=cfg.fov_collab_m)
            for i in range(cfg.eval_scenarios)]


@dataclass
class SetUp:
    cfg: PipelineConfig
    saved: Pipeline        # the pipeline written to the checkpoint
    loaded: Pipeline       # a fresh pipeline read back from it; the timed phase uses it
    seconds: float         # this round's set-up time, round-trip check excluded
    probe_s: float         # the median of three machine probes right after it


def set_up(workload: Workload, seed: int, checkpoint: Path, on_loaded) -> SetUp:
    """One set-up round: config, pipeline, checkpoint write and read, warm-up.

    ``on_loaded(saved, loaded)`` runs untimed between the checkpoint read and
    the warm-up, while ``saved`` still holds what was written.
    """
    t0 = perf_counter()
    cfg = desk_config(seed, workload.stages)
    saved = Pipeline(cfg)
    if workload.kind == "eval":
        training.train(cfg, saved)
    saved.save(checkpoint)
    loaded = Pipeline(cfg)
    loaded.load(checkpoint)
    t1 = perf_counter()
    on_loaded(saved, loaded)
    t2 = perf_counter()
    if workload.kind == "train":
        training.train(cfg, saved)
    else:
        pipeline.evaluate(loaded, scenario=eval_scenarios(cfg, cfg.channel)[0])
    seconds = (t1 - t0) + (perf_counter() - t2)
    return SetUp(cfg, saved, loaded, seconds,
                 statistics.median(machine_probe() for _ in range(3)))


class OpClock:
    """Times back-to-back operations, each ending when a given method returns.

    With ``probe`` on, the machine probe runs after every operation, and
    after every inner call named with ``probing_after``, outside the
    operation's time; each operation is paired with the median of the probes
    taken during and right after it, so with how fast the machine was then.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.ops: list[tuple[float, float]] = []   # (operation s, probe s or nan)
        self._mark = 0.0
        self._inner: list[float] = []

    def start(self) -> None:
        self._inner = []
        self._mark = perf_counter()

    @contextmanager
    def _wrapped(self, owner, attr: str, after):
        orig = getattr(owner, attr)

        def clocked(*args, **kwargs):
            try:
                return orig(*args, **kwargs)
            finally:
                after()
        setattr(owner, attr, clocked)
        try:
            yield self
        finally:
            setattr(owner, attr, orig)

    def ending_at(self, owner, attr: str):
        def after():
            end = perf_counter()
            probes = self._inner + [machine_probe() if self.probe else math.nan]
            self.ops.append((end - self._mark, statistics.median(probes)))
            self.start()
        return self._wrapped(owner, attr, after)

    def probing_after(self, owner, attr: str):
        def after():
            if self.probe:
                t = perf_counter()
                self._inner.append(machine_probe())
                self._mark += perf_counter() - t
        return self._wrapped(owner, attr, after)


@dataclass
class Timed:
    ops: list              # (seconds, probe seconds) of each completed operation
    op_ticks: list         # world ticks each completed operation simulated
    attempted: int         # training steps or evaluate calls
    failed: int
    losses: list           # train: the loss of each completed step
    records: list          # eval: one list of MetricRecords per completed sweep


def timed_training(cfg: PipelineConfig, pipe: Pipeline, steps: int, probe: bool) -> Timed:
    """One ``train`` call of ``steps`` steps; a step ends when its Adam step does."""
    run_cfg = replace(cfg, training=replace(cfg.training, steps=steps))
    clock = OpClock(probe)
    failed = 0
    curve: list = []
    with clock.ending_at(training.Adam, "step"):
        clock.start()
        try:
            curve = training.train(run_cfg, pipe).loss_curve
        except Exception:   # a failed step ends the run; count it and report
            traceback.print_exc()
            failed = 1
    done = len(clock.ops)
    return Timed(ops=clock.ops,
                 op_ticks=[(cfg.warmup_ticks_for() + 1) * cfg.training.batch_scenes] * done,
                 attempted=done + failed, failed=failed,
                 losses=[loss for _, loss, _, _ in curve], records=[])


def timed_sweeps(cfg: PipelineConfig, pipe: Pipeline, n_sweeps: int, probe: bool) -> Timed:
    """``n_sweeps`` latency sweeps over ``LATENCIES``; an operation is one
    ``evaluate`` call."""
    clock = OpClock(probe)
    records: list = []
    attempted = failed = 0
    ticks = [cfg.eval_scenarios * (cfg.buffer_k + lat + cfg.eval_measure_ticks)
             for lat in LATENCIES]
    # an evaluate call takes seconds, so the machine is also probed after
    # each of its scenarios
    with clock.ending_at(sweeps, "evaluate"), clock.probing_after(pipeline, "simulate"):
        for _ in range(n_sweeps):
            done = len(clock.ops)
            attempted += len(LATENCIES)
            clock.start()
            try:
                recs, _ = sweeps.latency_sweep(cfg, list(LATENCIES), pipe=pipe)
            except Exception:   # the whole sweep is lost; count its evaluate calls
                traceback.print_exc()
                failed += len(LATENCIES)
                del clock.ops[done:]
                continue
            records.append(recs)
            failed += sum(not (math.isfinite(r.occupancy_iou) and math.isfinite(r.mse_to_clean))
                          for r in recs)
    return Timed(ops=clock.ops, op_ticks=ticks * len(records), attempted=attempted,
                 failed=failed, losses=[], records=records)
