"""Correctness checks, run outside the timed phase.

Each check compares the program's output with an independent computation
or with a property the method must have; none compares with stored output.
A check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from coopfuse import ops, pipeline, training, world
from coopfuse.pipeline import Pipeline
from coopfuse.tensor import Tape, Tensor, no_grad
from coopfuse.wavelet import haar_iwt2d, haar_wt2d
from coopfuse.world import ChannelConfig

from workloads import eval_scenarios

# Bilinear sampling is piecewise linear, and the deformable offsets in stsync
# start at 0 and stay small, so thousands of sampling positions sit close to
# its kinks at integer coordinates. A difference that straddles kinks misses
# the tape by up to a few percent, while the tape gives the derivative of the
# piece the point lies on. So a block passes if, at one of the steps below,
# the central or either one-sided difference matches: a straddle vanishes as
# the step shrinks, a wrong backward does not. Rounding in the loss is about
# 1e-17, hence an absolute tolerance of 1e-16 / step.
FD_STEPS = (1e-7, 1e-8, 1e-9)
FD_RTOL = 1e-3
FD_ENTRIES = 3          # sampled entries per parameter block


def checkpoint_round_trip(saved: Pipeline, loaded: Pipeline, path: Path,
                          again: Path) -> tuple[str, bool, str]:
    """Every parameter reads back bit for bit, and re-saving gives the same bytes."""
    a, b = saved.parameters(), loaded.parameters()
    bad = [n for n in a if n not in b or a[n].data.shape != b[n].data.shape
           or a[n].data.tobytes() != b[n].data.tobytes()]
    loaded.save(again)
    same_file = again.read_bytes() == path.read_bytes()
    again.unlink()
    ok = not bad and set(a) == set(b) and same_file
    return "checkpoint_round_trip", ok, f"{len(bad)} parameters differ, file equal={same_file}"


def haar_round_trip(seed: int) -> tuple[str, bool, str]:
    """Synthesis inverts analysis and the transform keeps energy, to 1e-12."""
    x = np.random.default_rng([seed, 1]).standard_normal((8, 32, 32))
    bands = haar_wt2d(Tensor(x))
    err = float(np.max(np.abs(haar_iwt2d(bands).data - x)))
    energy = sum(float(np.sum(b.data ** 2)) for b in bands.bands())
    rel = abs(energy - float(np.sum(x ** 2))) / float(np.sum(x ** 2))
    return "haar_round_trip", err <= 1e-12 and rel <= 1e-12, \
        f"max error {err:.3g}, energy rel error {rel:.3g}"


def loss_falls(losses: list) -> tuple[str, bool, str]:
    """Every loss is finite and the last quarter's mean is below the first quarter's."""
    q = len(losses) // 4
    if q == 0 or not all(math.isfinite(v) for v in losses):
        return "loss_falls", False, f"{len(losses)} losses, finite={all(map(math.isfinite, losses))}"
    first, last = float(np.mean(losses[:q])), float(np.mean(losses[-q:]))
    return "loss_falls", last < first, f"first quarter {first:.4f}, last quarter {last:.4f}"


def training_loss(pipe: Pipeline, step: int, target=None) -> tuple[Tensor, np.ndarray]:
    """The loss ``train`` builds for one scenario of step ``step``, and its target.

    ``train`` treats the clean reference as a constant target although it is
    computed with the integrator's weights, so a finite difference must hold
    it fixed: pass the unperturbed one as ``target``.
    """
    cfg = pipe.cfg
    ticks = cfg.warmup_ticks_for() + 1
    scen = world.make_scenario(training.train_scenario_seed(cfg, step), cfg.channel, ticks,
                               n_agents=cfg.n_agents, n_objects=cfg.n_objects,
                               bounds=cfg.bounds_m, fov_ego=cfg.fov_ego_m,
                               fov_collab=cfg.fov_collab_m)
    out = pipeline.simulate(pipe, scen, measure=lambda t: t == ticks - 1)[-1]
    bce = ops.bce_with_logits(out.logits, out.gt_occupancy)
    target = out.clean_reference if target is None else target
    diff = out.denoised - Tensor(target)
    return bce + training.AUX_WEIGHT * ops.tmean(diff * diff), target


def blocks_in_use(pipe: Pipeline) -> dict:
    cfg = pipe.cfg
    blocks = dict(pipe.integrator.parameters())
    for on, block in ((cfg.stsync, pipe.sync), (cfg.wtden, pipe.denoiser),
                      (cfg.adpsel, pipe.selector)):
        if on:
            blocks.update(block.parameters())
    blocks[pipe.decoder_kernel.name] = pipe.decoder_kernel
    blocks[pipe.decoder_bias.name] = pipe.decoder_bias
    return blocks


def gradients_match(pipe: Pipeline, step: int, seed: int) -> tuple[str, bool, str]:
    """Tape gradient against finite differences (see ``FD_STEPS``), along a
    random direction over sampled entries of every parameter block in use."""
    blocks = blocks_in_use(pipe)
    for p in pipe.parameters().values():
        p.grad = None
    with Tape() as tape:
        loss, target = training_loss(pipe, step)
    tape.backward(loss)
    centre = loss.item()
    grads = {n: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for n, p in blocks.items()}
    for p in pipe.parameters().values():
        p.grad = None

    rng = np.random.default_rng([seed, 2])
    worst, bad = 0.0, []
    for name, p in blocks.items():
        base = p.data
        idx = rng.choice(base.size, size=min(FD_ENTRIES, base.size), replace=False)
        v = np.zeros(base.size)
        v[idx] = rng.standard_normal(idx.size)
        v = v.reshape(base.shape)
        analytic = float(np.sum(grads[name] * v))
        for h in FD_STEPS:
            with no_grad():
                p.data = base + h * v
                up = training_loss(pipe, step, target)[0].item()
                p.data = base - h * v
                down = training_loss(pipe, step, target)[0].item()
            p.data = base
            numeric = (up - down) / (2 * h)
            err = min(abs(d - analytic) for d in
                      (numeric, (up - centre) / h, (centre - down) / h))
            scale = max(abs(numeric), abs(analytic))
            rel = err / max(scale, 1e-16 / h / FD_RTOL)
            if err <= 1e-16 / h + FD_RTOL * scale:
                break
        worst = max(worst, rel)
        if err > 1e-16 / h + FD_RTOL * scale:
            bad.append(f"{name}: tape {analytic:.6g} vs fd {numeric:.6g}")
    return "gradients_match", not bad, \
        f"{len(blocks)} blocks, worst rel error {worst:.3g}" + (f"; {bad[:3]}" if bad else "")


def metrics_in_range(records: list) -> tuple[str, bool, str]:
    """IoU lies in [0, 1] and every metric is finite."""
    bad = [r.config_id for sweep in records for r in sweep
           if not (math.isfinite(r.occupancy_iou) and math.isfinite(r.mse_to_clean)
                   and 0.0 <= r.occupancy_iou <= 1.0)]
    return "metrics_in_range", not bad, f"{len(bad)} records out of range"


def evaluate_is_scenario_mean(pipe: Pipeline, whole) -> tuple[str, bool, str]:
    """``whole``, an ``evaluate`` over the scenario set at the config's channel,
    equals the mean of one ``evaluate(scenario=...)`` call per scenario."""
    singles = [pipeline.evaluate(pipe, scenario=s)
               for s in eval_scenarios(pipe.cfg, pipe.cfg.channel)]
    d_iou = abs(whole.occupancy_iou - float(np.mean([r.occupancy_iou for r in singles])))
    d_mse = abs(whole.mse_to_clean - float(np.mean([r.mse_to_clean for r in singles])))
    return "evaluate_is_scenario_mean", d_iou <= 1e-12 and d_mse <= 1e-12, \
        f"iou diff {d_iou:.3g}, mse diff {d_mse:.3g}"


def perfect_channel_is_clean(cfg, checkpoint: Path) -> tuple[str, bool, str]:
    """L=0, no drops, no pose noise and all stages off: the fused map is the clean one."""
    off = Pipeline(replace(cfg, stsync=False, wtden=False, adpsel=False))
    off.load(checkpoint)
    rec = pipeline.evaluate(off, channel=ChannelConfig(max_latency_ticks=0, drop_p=0.0,
                                                       loc_sigma=0.0, head_sigma=0.0))
    ok = rec.mse_to_clean == 0.0 and 0.0 <= rec.occupancy_iou <= 1.0
    return "perfect_channel_is_clean", ok, f"mse_to_clean {rec.mse_to_clean!r}"
