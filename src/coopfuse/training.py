"""Training loop: BCE on decoded occupancy plus an auxiliary clean-feature term.

Each step simulates one (or a small batch of) freshly seeded scenarios just
long enough to fill the buffer and let packets flow, computes the loss on
the final tick, and applies one adaptive-moment update. The auxiliary term
pulls the denoiser-stage output toward the perfect-channel integration of
the same tick (weight 0.1), giving the denoiser a direct correction signal.

With wtden on, a training that may fork (``pipeline.fork_workers``) runs
half of the paths of every selective scan on a ``ScanHelper``, so that a
step uses a second core; the results are bitwise those of one process.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ops import bce_with_logits, scan_paths, split_scans, tmean
from .pipeline import Pipeline, PipelineConfig, fork_workers, simulate
from .tensor import Parameter, Tape, Tensor

AUX_WEIGHT = 0.1


class DivergenceError(RuntimeError):
    """Loss became nonfinite (CLI exit code 3)."""

    def __init__(self, step: int, value: float):
        super().__init__(f"loss diverged at step {step}: {value}")
        self.step = step
        self.value = value


class WorkerDied(RuntimeError):
    """A forked worker ended without replying, say killed by a signal (CLI exit code 2)."""


class ScanHelper:
    """A forked process that runs the paths ``selective_scan`` hands it
    (``ops.split_scans``), talking over one pipe.

    Every request carries a fresh ticket, and the helper answers a forward
    or a backward request with (ticket, ok, value): the output half or the
    gradient halves, or the exception it raised. A reply the caller never
    read, because its call raised in this process, is skipped by ticket. The
    helper keeps each forward's vjp under the forward's ticket until that
    backward fires or ``drop`` discards what is left, so a record that never
    fires cannot misalign later ones. A helper that dies makes the next
    send or receive raise ``WorkerDied``.
    """

    def __init__(self):
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._process = ctx.Process(target=_serve_scans, args=(theirs, self._conn),
                                    name="coopfuse-scan-helper", daemon=True)
        self._process.start()
        theirs.close()
        self._tickets = 0

    def _send(self, *request) -> int:
        self._tickets += 1
        try:
            self._conn.send((self._tickets, *request))
        except OSError:
            raise self._died() from None
        return self._tickets

    def forward(self, x: np.ndarray, params: list[np.ndarray]) -> int:
        return self._send("forward", x, params)

    def backward(self, key: int, g: np.ndarray, needs: list[bool]) -> int:
        return self._send("backward", key, g, needs)

    def drop(self) -> None:
        """Discard every kept vjp; the helper does not reply."""
        self._send("drop")

    def result(self, ticket: int):
        """The value the request `ticket` computed, or the exception it raised, raised here."""
        while True:
            try:
                got, ok, value = self._conn.recv()
            except (EOFError, OSError):
                raise self._died() from None
            if got == ticket:
                break
        if not ok:
            raise value
        return value

    def _died(self) -> WorkerDied:
        self._process.join(timeout=10)
        code = self._process.exitcode
        how = f"was killed by signal {-code}" if code is not None and code < 0 \
            else f"exited with code {code}"
        return WorkerDied(f"the scan helper (pid {self._process.pid}) {how}")

    def close(self) -> None:
        """End the helper: it reads the end of the pipe and returns."""
        self._conn.close()
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()


def _serve_scans(conn, theirs) -> None:
    """The scan helper's loop, until the trainer closes its end of the pipe."""
    theirs.close()            # the trainer's end: with it closed here, EOF reaches this side
    signal.signal(signal.SIGINT, signal.SIG_IGN)      # an interrupt is the trainer's to handle
    kept: dict = {}
    while True:
        try:
            ticket, kind, *args = conn.recv()
        except EOFError:
            return
        if kind == "drop":
            kept.clear()
            continue
        try:
            if kind == "forward":
                value, kept[ticket] = scan_paths(*args)
            else:
                key, g, needs = args
                value = kept.pop(key)(g, needs)
            reply = (ticket, True, value)
        except Exception as e:    # the trainer raises it
            reply = (ticket, False, e)
        try:
            conn.send(reply)
        except OSError:           # the trainer has closed its end
            return


@contextmanager
def _scan_helper(cfg: PipelineConfig):
    """A ScanHelper that the block's selective scans split their paths with,
    or None where wtden is off or ``fork_workers`` allows no second process;
    the helper is joined when the block exits, whether it returns or raises."""
    if not (cfg.wtden and fork_workers(2) == 2):
        yield None
        return
    helper = ScanHelper()
    try:
        with split_scans(helper):
            yield helper
    finally:
        helper.close()


class Adam:
    """First-order adaptive-moment optimizer with bias correction."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Parameter], lr: float = 1e-3):
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
            # in place, in the operation order of m = B1*m + (1-B1)*g,
            # v = B2*v + ((1-B2)*g)*g and p = p - lr * (m/b1c) / (sqrt(v/b2c) + eps);
            # g may be shared with other tensors, so it is only read
            g, m, v = p.grad, self.m[name], self.v[name]
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
            p.data -= num
            p.grad = None


@dataclass
class TrainResult:
    pipeline: Pipeline
    loss_curve: list[tuple[int, float, float, float]]  # step, loss, bce, aux


def train_scenario_seed(cfg: PipelineConfig, step: int, index: int = 0) -> int:
    return (cfg.training.seed * 1_000_003 + step * 31 + index) & 0x7FFFFFFF


def train(cfg: PipelineConfig, pipe: Pipeline | None = None) -> TrainResult:
    cfg.validate()
    if pipe is None:
        pipe = Pipeline(cfg)
    opt = Adam(pipe.parameters(), lr=cfg.training.learning_rate)
    ticks = cfg.warmup_ticks_for() + 1
    curve: list[tuple[int, float, float, float]] = []

    with _scan_helper(cfg) as helper:
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
            if helper is not None:
                helper.drop()
    return TrainResult(pipeline=pipe, loss_curve=curve)
