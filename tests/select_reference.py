"""The selector's window and mask code as it was written before it became
three plain-array functions, kept as the reference that ``select.py`` must
match bitwise.

Here a window partition is an object (``ReferenceGrid``), a top-k choice is
a ``ReferenceSelection`` holding 0/1 float masks and its grid, and the
eligibility map is a float plane narrowed by ``clip(elig - discarded, 0, 1)``.
``reference_selector`` is ``FeatureSelector.__call__`` on these pieces.
"""

import math
from dataclasses import dataclass

import numpy as np

from coopfuse.ops import concat, conv2d, reshape, take_rows, transpose


class ReferenceGrid:
    """Partition of an H x W plane into non-overlapping scale x scale windows."""

    def __init__(self, height, width, scale):
        if height % scale or width % scale:
            raise ValueError(f"scale {scale} does not divide grid {height}x{width}")
        self.height = height
        self.width = width
        self.scale = scale
        self.n_rows = height // scale
        self.n_cols = width // scale
        self.n_blocks = self.n_rows * self.n_cols

    def descriptors(self, feature):
        """Mean-pool each window: returns n_blocks x C."""
        c = feature.shape[0]
        s = self.scale
        r = feature.reshape(c, self.n_rows, s, self.n_cols, s)
        return r.mean(axis=(2, 4)).reshape(c, self.n_blocks).T

    def coverage(self, eligibility):
        """Eligible-pixel count per window, flat n_blocks."""
        s = self.scale
        r = eligibility.reshape(self.n_rows, s, self.n_cols, s)
        return r.sum(axis=(1, 3)).reshape(-1)

    def to_pixels(self, block_values):
        """Replicate per-block values to pixel resolution."""
        grid = block_values.reshape(self.n_rows, self.n_cols)
        return grid.repeat(self.scale, axis=0).repeat(self.scale, axis=1)


@dataclass
class ReferenceSelection:
    block_mask: np.ndarray      # n_rows x n_cols, values in {0, 1}
    pixel_mask: np.ndarray      # H x W materialization
    retained_count: int
    grid: ReferenceGrid


def reference_scores(feature, grid, eligibility):
    """Channel-mean saliency per window; zero-coverage windows score -inf."""
    if eligibility.shape != (grid.height, grid.width):
        raise ValueError(f"eligibility shape {eligibility.shape} does not match grid "
                         f"{grid.height}x{grid.width}")
    c = feature.shape[0]
    scores = grid.descriptors(feature) @ np.full(c, 1.0 / c)
    scores[grid.coverage(eligibility) == 0] = -np.inf
    return scores


def reference_topk(scores, k, grid):
    """Retain the ceil(k * n_eligible) best-scoring eligible windows, at least
    one; ties break toward the lower flat block index."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"retention fraction must lie in (0, 1], got {k}")
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    eligible = np.isfinite(scores)
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        raise ValueError("no eligible blocks to select from")
    retained = min(n_eligible, max(1, math.ceil(k * n_eligible - 1e-9)))
    order = np.argsort(-scores, kind="stable")
    chosen = order[:retained]
    block_mask = np.zeros(grid.n_blocks)
    block_mask[chosen] = 1.0
    return ReferenceSelection(
        block_mask=block_mask.reshape(grid.n_rows, grid.n_cols),
        pixel_mask=grid.to_pixels(block_mask),
        retained_count=retained,
        grid=grid,
    )


def reference_propagate(mask_initial, selection):
    """Subtract the discarded-region pixels from the mask, clamped to [0, 1]."""
    discarded = selection.grid.to_pixels(1.0 - selection.block_mask.reshape(-1))
    return np.clip(mask_initial - discarded, 0.0, 1.0)


def reference_selector(sel, feature):
    """``FeatureSelector.__call__`` of `sel` on the reference mask code."""
    c, h, w = feature.data.shape
    for s in sel.scales:
        if h % s or w % s:
            raise ValueError(f"scale {s} does not divide grid {h}x{w}")
    eligibility = np.ones((h, w))
    flat = transpose(reshape(feature, (c, h * w)), (1, 0))
    outputs = []
    for s in sel.scales:
        grid = ReferenceGrid(h, w, s)
        scores = reference_scores(feature.data, grid, eligibility)
        if not np.any(np.isfinite(scores)):
            outputs.append(feature)
            continue
        selection = reference_topk(scores, sel.retention, grid)
        sel_idx = np.flatnonzero(selection.pixel_mask.reshape(-1) > 0.5)
        un_idx = np.flatnonzero(selection.pixel_mask.reshape(-1) <= 0.5)
        rows = concat([sel.attention(take_rows(flat, sel_idx)),
                       sel.bottleneck(take_rows(flat, un_idx))], axis=0)
        inv = np.argsort(np.concatenate([sel_idx, un_idx]))
        restored = reshape(transpose(take_rows(rows, inv), (1, 0)), (c, h, w))
        outputs.append(conv2d(restored, sel.agg_kernel, sel.agg_bias))
        eligibility = reference_propagate(eligibility, selection)
    return sel.split(outputs)
