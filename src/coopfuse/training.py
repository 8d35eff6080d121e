"""Training loop: BCE on decoded occupancy plus an auxiliary clean-feature term.

Each step simulates one (or a small batch of) freshly seeded scenarios just
long enough to fill the buffer and let packets flow, computes the loss on
the final tick, and applies one adaptive-moment update. The auxiliary term
pulls the denoiser-stage output toward the perfect-channel integration of
the same tick (weight 0.1), giving the denoiser a direct correction signal.

A training runs in one process and forks nothing, whatever the number of
usable cores; ``sweeps.variant_sweep`` runs whole trainings on ``fork_map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import bce_with_logits, tmean
from .pipeline import Pipeline, PipelineConfig, simulate
from .tensor import Parameter, Tape, Tensor

AUX_WEIGHT = 0.1


class DivergenceError(RuntimeError):
    """Loss became nonfinite (CLI exit code 3)."""

    def __init__(self, step: int, value: float):
        super().__init__(f"loss diverged at step {step}: {value}")
        self.step = step
        self.value = value

    def __reduce__(self):       # so that one raised in a fork_map worker reaches the caller
        return DivergenceError, (self.step, self.value)


ADAM_CHUNK = 16_384     # values per slice of an Adam update


class Adam:
    """First-order adaptive-moment optimizer with bias correction.

    Each parameter is updated in place, ADAM_CHUNK values at a time, so its
    two temporaries are at most chunk-sized, however large the parameter.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Parameter], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            # flat views of the C-contiguous parameter and moments; the
            # gradient's is a copy only when the gradient is strided
            flat = [a.reshape(-1) for a in (p.data, p.grad, self.m[name], self.v[name])]
            for i in range(0, p.data.size, ADAM_CHUNK):
                # in place, in the operation order of m = B1*m + (1-B1)*g,
                # v = B2*v + ((1-B2)*g)*g and p = p - lr * (m/b1c) / (sqrt(v/b2c) + eps);
                # g may be shared with other tensors, so it is only read
                data, g, m, v = (a[i:i + ADAM_CHUNK] for a in flat)
                num, den = np.multiply(g, 1.0 - self.BETA1), np.multiply(g, 1.0 - self.BETA2)
                m *= self.BETA1
                m += num
                den *= g
                v *= self.BETA2
                v += den
                np.divide(v, b2c, out=den)
                np.sqrt(den, out=den)
                den += self.EPS
                np.divide(m, b1c, out=num)
                num /= den
                num *= self.lr
                data -= num
            p.grad = None


@dataclass
class TrainResult:
    pipeline: Pipeline
    loss_curve: list[tuple[int, float, float, float]]  # step, loss, bce, aux


def train_scenario_seed(cfg: PipelineConfig, step: int, index: int = 0) -> int:
    return (cfg.training.seed * 1_000_003 + step * 31 + index) & 0x7FFFFFFF


def train(cfg: PipelineConfig, pipe: Pipeline | None = None) -> TrainResult:
    if pipe is None:
        pipe = Pipeline(cfg)
    opt = Adam(pipe.parameters(), lr=cfg.training.learning_rate)
    ticks = cfg.warmup_ticks_for() + 1
    curve: list[tuple[int, float, float, float]] = []
    for step in range(cfg.training.steps):
        with Tape() as tape:
            loss = None
            bce_val = aux_val = 0.0
            for b in range(cfg.training.batch_scenes):
                scen = cfg.scenario(train_scenario_seed(cfg, step, b), cfg.channel, ticks)
                out = simulate(pipe, scen, measure=lambda t: t == ticks - 1)[-1]
                bce = bce_with_logits(out.logits, out.gt_occupancy)
                diff = out.denoised - Tensor(out.clean_reference)
                aux = tmean(diff * diff)
                term = bce + AUX_WEIGHT * aux
                loss = term if loss is None else loss + term
                bce_val += bce.item()
                aux_val += aux.item()
            if cfg.training.batch_scenes > 1:
                loss = loss * (1.0 / cfg.training.batch_scenes)
        total = loss.item()
        if not math.isfinite(total):
            raise DivergenceError(step, total)
        curve.append((step, total, bce_val / cfg.training.batch_scenes,
                      aux_val / cfg.training.batch_scenes))
        tape.backward(loss)
        opt.step()
    return TrainResult(pipeline=pipe, loss_curve=curve)
