"""Adaptive block-sparse feature refinement.

The feature plane is tiled into non-overlapping windows at each configured
scale. Channel-mean saliency ranks windows; the top-k fraction of
still-eligible windows routes through global linear attention, the rest
through a per-token inverted bottleneck. Windows discarded at a fine scale
become ineligible at coarser scales. Per-scale outputs are fused by
channel-wise split attention.

Scoring and masking are plain numpy and carry no gradient, only the routed
feature values do: eligibility is one bool H x W map, and ``eligible &= keep``
drops each scale's discarded windows from it.
"""

from __future__ import annotations

import math

import numpy as np

from .ops import (concat, conv2d, elu_plus_one, matmul, relu, reshape, softmax,
                  take_rows, tmean, transpose, tsum)
from .sync import identity_kernel
from .tensor import ParamBlock, Tensor


def window_scores(feature: np.ndarray, scale: int, eligible: np.ndarray) -> np.ndarray:
    """Channel-mean saliency of each scale x scale window of a C x H x W
    feature, flat in raster order; -inf where a window has no eligible pixel."""
    c, h, w = feature.shape
    rows, cols = h // scale, w // scale
    means = feature.reshape(c, rows, scale, cols, scale).mean(axis=(2, 4))
    scores = means.reshape(c, rows * cols).T @ np.full(c, 1.0 / c)
    scores[~eligible.reshape(rows, scale, cols, scale).any(axis=(1, 3)).reshape(-1)] = -np.inf
    return scores


def retained_windows(scores: np.ndarray, k: float) -> np.ndarray:
    """A bool per window: the ceil(k * n_eligible) best of the finite scores,
    at least one. Ties break toward the lower flat window index."""
    n_eligible = int(np.isfinite(scores).sum())
    retained = min(n_eligible, max(1, math.ceil(k * n_eligible - 1e-9)))
    keep = np.zeros(scores.size, dtype=bool)
    keep[np.argsort(-scores, kind="stable")[:retained]] = True
    return keep


def window_pixels(mask: np.ndarray, scale: int, h: int, w: int) -> np.ndarray:
    """A flat per-window mask replicated to the h x w pixel plane."""
    return mask.reshape(h // scale, w // scale).repeat(scale, axis=0).repeat(scale, axis=1)


class LinearAttention(ParamBlock):
    """Non-causal linear attention with a positive kernel feature map.

    Output is residual: token + gate(token) * normalized attention read,
    where the gate is a plain linear map (zero weights give the identity).
    """

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        s = 0.5 / math.sqrt(c)
        self.wq = self._p("select.attn.wq", s * rng.standard_normal((c, c)))
        self.wk = self._p("select.attn.wk", s * rng.standard_normal((c, c)))
        self.wv = self._p("select.attn.wv", s * rng.standard_normal((c, c)))
        self.wg = self._p("select.attn.wg", np.zeros((c, c)))
        self.bg = self._p("select.attn.bg", np.zeros((1, c)))

    def __call__(self, tokens: Tensor) -> Tensor:
        fq = elu_plus_one(matmul(tokens, self.wq))
        fk = elu_plus_one(matmul(tokens, self.wk))
        v = matmul(tokens, self.wv)
        kv = matmul(transpose(fk, (1, 0)), v)                    # C x C
        num = matmul(fq, kv)                                     # T x C
        den = matmul(fq, transpose(tsum(fk, axis=0, keepdims=True), (1, 0)))  # T x 1
        gate = matmul(tokens, self.wg, self.bg)
        return tokens + gate * (num / den)


# hidden width of the inverted bottleneck, in multiples of C
IB_RATIO = 4


class InvertedBottleneck(ParamBlock):
    """Per-token expand-nonlinearity-project with residual; no cross-token mixing."""

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        s = 0.5 / math.sqrt(c)
        self.w1 = self._p("select.ib.w1", s * rng.standard_normal((c, IB_RATIO * c)))
        self.b1 = self._p("select.ib.b1", np.zeros((1, IB_RATIO * c)))
        self.w2 = self._p("select.ib.w2", np.zeros((IB_RATIO * c, c)))
        self.b2 = self._p("select.ib.b2", np.zeros((1, c)))

    def __call__(self, tokens: Tensor) -> Tensor:
        hidden = relu(matmul(tokens, self.w1, self.b1))
        # b2 stays a separate add: this sums (tokens + product) + b2, and
        # folding b2 into the matmul would round tokens + (product + b2)
        return tokens + matmul(hidden, self.w2) + self.b2


class SplitAttention(ParamBlock):
    """Per-channel softmax weighting across scale outputs, shared perceptron."""

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        hidden = max(1, c // 2)
        self.w1 = self._p("select.split.w1", 0.1 * rng.standard_normal((c, hidden)))
        self.b1 = self._p("select.split.b1", np.zeros((1, hidden)))
        # no output bias: a shift shared by every scale's logits cancels in the
        # softmax over scales, so it would get a zero gradient
        self.w2 = self._p("select.split.w2", 0.1 * rng.standard_normal((hidden, c)))

    def weights(self, stacked: Tensor) -> Tensor:
        """S x C softmax weights over the scales of an S x C x H x W stack."""
        z = relu(matmul(tmean(stacked, axis=(2, 3)), self.w1, self.b1))
        return softmax(matmul(z, self.w2))

    def __call__(self, scale_outputs: list[Tensor]) -> Tensor:
        c, h, w = scale_outputs[0].data.shape
        stacked = reshape(concat(scale_outputs, axis=0), (-1, c, h, w))
        weights = reshape(self.weights(stacked), (-1, c, 1, 1))
        return tsum(weights * stacked, axis=0)


class FeatureSelector(ParamBlock):
    """Multi-scale top-k routing with cross-scale mask propagation."""

    def __init__(self, c: int, scales: tuple[int, ...], retention: float,
                 rng: np.random.Generator):
        super().__init__()
        self.scales = tuple(scales)
        self.retention = float(retention)
        self.attention = LinearAttention(c, rng)
        self.bottleneck = InvertedBottleneck(c, rng)
        agg = identity_kernel(c) + 0.01 * rng.standard_normal((c, c, 3, 3))
        self.agg_kernel = self._p("select.agg.kernel", agg)
        self.agg_bias = self._p("select.agg.bias", np.zeros((c, 1, 1)))
        self.split = SplitAttention(c, rng)
        for sub in (self.attention, self.bottleneck, self.split):
            self.params.update(sub.params)

    def __call__(self, feature: Tensor) -> Tensor:
        c, h, w = feature.data.shape
        eligible = np.ones((h, w), dtype=bool)
        flat = transpose(reshape(feature, (c, h * w)), (1, 0))       # HW x C
        outputs = []
        for s in self.scales:
            # fixed saliency, not a learned scorer: no gradient crosses the
            # binary mask, so a scorer's weights could never train
            scores = window_scores(feature.data, s, eligible)
            if not np.any(np.isfinite(scores)):
                # a nonfinite feature scores every window NaN: passed on, it shows
                # as a nonfinite loss or metric (exit 3), not a selection error
                outputs.append(feature)
                continue
            keep = window_pixels(retained_windows(scores, self.retention), s, h, w)
            sel_idx = np.flatnonzero(keep)
            un_idx = np.flatnonzero(~keep)
            rows = concat([self.attention(take_rows(flat, sel_idx)),
                           self.bottleneck(take_rows(flat, un_idx))], axis=0)
            inv = np.argsort(np.concatenate([sel_idx, un_idx]))
            restored = reshape(transpose(take_rows(rows, inv), (1, 0)), (c, h, w))
            outputs.append(conv2d(restored, self.agg_kernel, self.agg_bias))
            eligible &= keep
        return self.split(outputs)
