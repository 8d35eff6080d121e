"""Temporal synchronization of delayed multi-agent features.

The ego fuses whatever collaborator features have arrived (max/avg pooled
across agents, collapsed by a learned depth-2 convolution), keeps the K
most recent fused maps in a buffer, and rolls a recurrent unit over the
buffer: predict a motion offset from the two preceding entries, warp the
previous entry by it, blend the warped estimate with the hidden state
through a convex gate (alpha = sigmoid of a 7x7 conv over both plus a
learned per-channel bias), then refine the state with a second deformable
update. The final hidden state is anchored to the ego's own real-time
feature by deformable cross-attention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ops import (bilinear_sample, blend, conv2d, narrow, reshape, sigmoid, softmax, transpose,
                  tsum)
from .tensor import ParamBlock, Parameter, Tensor

@functools.cache
def base_grid(h: int, w: int) -> np.ndarray:
    """Integer (row, col) sampling grid, shape 2 x h x w."""
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    return np.stack([rr, cc])


def identity_kernel(c: int) -> np.ndarray:
    """The c -> c 3x3 kernel that copies every channel."""
    ker = np.zeros((c, c, 3, 3))
    for i in range(c):
        ker[i, i, 1, 1] = 1.0
    return ker


@dataclass
class GateOutput:
    alpha: Tensor
    fused: Tensor


class Integrator(ParamBlock):
    """Max/avg pool over the agent axis, then a depth-2 collapsing conv.

    The agents' views are constants, so they are pooled as plain arrays and
    the tape starts at the conv, where the first parameter enters. The
    depth-2 3D convolution over the stacked pooled maps is realized as a
    2D convolution on the two maps as channel blocks (identical arithmetic).
    Initialized near the stream-averaging identity.
    """

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        ker = 0.5 * np.concatenate([identity_kernel(c)] * 2, axis=1)
        ker += 0.01 * rng.standard_normal(ker.shape)
        self.kernel = self._p("integrate.kernel", ker)
        self.bias = self._p("integrate.bias", np.zeros((c, 1, 1)))

    def __call__(self, stack: np.ndarray) -> Tensor:
        return conv2d([stack.max(axis=0), stack.sum(axis=0) * (1.0 / len(stack))],
                      self.kernel, self.bias)


class TemporalSync(ParamBlock):
    """Recurrent rollout over the feature buffer plus ego anchoring."""

    def __init__(self, c: int, rng: np.random.Generator, n_anchor_points: int):
        super().__init__()
        self.m = n_anchor_points
        # offset predictors start at zero so the rollout starts as a fixed
        # point on constant buffers; warp convs start at the exact identity
        self.offset_kernel = self._p("sync.offset.kernel", np.zeros((2, 2 * c, 3, 3)))
        self.offset_bias = self._p("sync.offset.bias", np.zeros((2, 1, 1)))
        self.warp_kernel = self._p("sync.warp.kernel", identity_kernel(c))
        self.warp_bias = self._p("sync.warp.bias", np.zeros((c, 1, 1)))
        self.update_offset_kernel = self._p("sync.update.offset.kernel", np.zeros((2, c, 3, 3)))
        self.update_offset_bias = self._p("sync.update.offset.bias", np.zeros((2, 1, 1)))
        self.update_warp_kernel = self._p("sync.update.warp.kernel", identity_kernel(c))
        self.update_warp_bias = self._p("sync.update.warp.bias", np.zeros((c, 1, 1)))
        self.gate_spatial_kernel = self._p("sync.gate.spatial.kernel", np.zeros((1, 2 * c, 7, 7)))
        # positive bias starts the gate trusting the freshest warped entry
        # (alpha ~ 0.88) instead of smearing the whole buffer history
        self.gate_spatial_bias = self._p("sync.gate.spatial.bias", np.full((1, 1, 1), 2.0))
        self.gate_channel_bias = self._p("sync.gate.channel.bias", np.zeros((c, 1, 1)))
        self.anchor_kernel = self._p("sync.anchor.kernel", np.zeros((3 * self.m, c, 1, 1)))
        self.anchor_bias = self._p("sync.anchor.bias", np.zeros((3 * self.m, 1, 1)))

    # -- sub-operations ----------------------------------------------------

    def predict_offset(self, b_prev2: Tensor, b_prev1: Tensor) -> Tensor:
        return conv2d([b_prev2, b_prev1], self.offset_kernel, self.offset_bias)

    def _warp(self, feature: Tensor, offsets: Tensor, kernel: Parameter,
              bias: Parameter) -> Tensor:
        _, h, w = feature.data.shape
        coords = Tensor(base_grid(h, w)) + offsets
        sampled = bilinear_sample(feature, coords)
        return conv2d(sampled, kernel, bias)

    def deform_warp(self, feature: Tensor, offsets: Tensor) -> Tensor:
        return self._warp(feature, offsets, self.warp_kernel, self.warp_bias)

    def gate(self, hidden: Tensor, warped: Tensor) -> GateOutput:
        spatial = conv2d([hidden, warped], self.gate_spatial_kernel, self.gate_spatial_bias)
        alpha = sigmoid(spatial + self.gate_channel_bias)
        fused = blend(alpha, hidden, warped)
        return GateOutput(alpha=alpha, fused=fused)

    def update(self, state: Tensor) -> Tensor:
        offs = conv2d(state, self.update_offset_kernel, self.update_offset_bias)
        return self._warp(state, offs, self.update_warp_kernel, self.update_warp_bias)

    # -- module forwards ---------------------------------------------------

    def rollout(self, entries: Sequence[Callable[[], Tensor]]) -> Tensor:
        """Roll the recurrent unit over the buffer, oldest entry first.

        Each entry is a zero-argument callable returning a fused map, called
        only when the loop reads it. With two or more entries the loop never
        reads the newest one, the current tick's map, so with stsync on that
        map is never computed: a known off-by-one against the paper's
        recurrent synchronization (ROADMAP, "Not this round").
        """
        hidden = entries[0]()
        zero = Tensor(np.zeros_like(hidden.data))
        for j in range(1, len(entries)):
            prev2 = entries[j - 2]() if j >= 2 else zero
            prev1 = entries[j - 1]()
            offs = self.predict_offset(prev2, prev1)
            warped = self.deform_warp(prev1, offs)
            state = self.gate(hidden, warped).fused
            hidden = self.update(state)
        return hidden

    def anchor(self, predicted: Tensor, ego: Tensor) -> Tensor:
        """Deformable cross-attention onto the ego feature, residual form."""
        c, h, w = predicted.data.shape
        m = self.m
        fields = conv2d(predicted, self.anchor_kernel, self.anchor_bias)
        # the M (row, col) offset pairs -> 2 x M*h x w coordinates, point m in rows m*h..
        offsets = transpose(reshape(narrow(fields, 0, 2 * m), (m, 2, h, w)), (1, 0, 2, 3))
        coords = reshape(offsets, (2, m * h, w)) + np.tile(base_grid(h, w), (1, m, 1))
        sampled = reshape(bilinear_sample(ego, coords), (c, m, h, w))
        weights = reshape(softmax(narrow(fields, 2 * m, m)), (1, m, h, w))
        return predicted + tsum(weights * sampled, axis=1)

    def __call__(self, entries: Sequence[Callable[[], Tensor]], ego: Tensor) -> Tensor:
        return self.anchor(self.rollout(entries), ego)
