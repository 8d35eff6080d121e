"""Dual-branch wavelet-domain denoiser.

One ``ops.haar2d`` analysis gives the 4C x H/2 x W/2 subband tensor (LL, LH,
HL, HH channel blocks) that both branches read. Global branch: the subband
tensor is laid out as token rows, one per (position, band), and serialized
along four scan paths (progressive high-to-low frequency and spatially
interleaved, each forward and reverse). One ``ops.selective_scan`` call runs
the input-conditioned diagonal linear recurrences of all four paths
(selective scan), with a hand-written backward; each scan parameter is one
tensor ``denoise.ssm.<name>`` whose leading axis is the path. The outputs are put back in
subband layout, summed, projected pointwise and reconstructed by
``ops.ihaar2d``. Local branch: a nested transform/convolution stack on the
subband tensor. The two reconstructions are added.
"""

from __future__ import annotations

import functools

import numpy as np

from .ops import (SCAN_PARAMS, conv2d, haar2d, ihaar2d, reshape, selective_scan,
                  take_rows, transpose, tsum)
from .tensor import ParamBlock, Tensor


def subband_tokens(x: Tensor) -> Tensor:
    """4C x h2 x w2 subbands -> (h2*w2*4) x C token rows; row 4*p + b holds
    band b at raster position p."""
    c4, h2, w2 = x.data.shape
    return reshape(transpose(x, (1, 2, 0)), (h2 * w2 * 4, c4 // 4))


def token_subbands(rows: Tensor, h2: int, w2: int) -> Tensor:
    """The inverse of ``subband_tokens``."""
    return transpose(reshape(rows, (h2, w2, -1)), (2, 0, 1))


def progressive_order(h2: int, w2: int) -> np.ndarray:
    """Token order visiting whole subbands from high to low frequency."""
    pos = 4 * np.arange(h2 * w2)
    return np.concatenate([pos + b for b in (3, 2, 1, 0)])     # HH, HL, LH, LL


def interleaved_order(h2: int, w2: int) -> np.ndarray:
    """Token order emitting (LL, LH, HL, HH) at each raster position."""
    return np.arange(4 * h2 * w2)


SCAN_PATHS = 4      # progressive and interleaved, each forward and reversed


@functools.cache
def scan_orders(h2: int, w2: int) -> tuple[np.ndarray, np.ndarray]:
    """The SCAN_PATHS x L token orders, and the index into their stacked
    SCAN_PATHS*L outputs that puts every path's tokens back in row order."""
    prog, inter = progressive_order(h2, w2), interleaved_order(h2, w2)
    orders = np.stack([prog, prog[::-1], inter, inter[::-1]])
    p, length = orders.shape
    return orders, (np.argsort(orders, axis=1) + length * np.arange(p)[:, None]).reshape(-1)


class WaveletDenoiser(ParamBlock):
    """Sum of the global scan branch and the local nested-conv branch."""

    def __init__(self, c: int, state_dim: int, rng: np.random.Generator):
        super().__init__()
        self.c = c
        p, n = SCAN_PATHS, state_dim
        # path p of each scan tensor scans along scan_orders' row p; the output
        # projection starts at zero and skip at one, so every path is the
        # per-token identity, and decay = -exp(log_decay) runs -1..-N
        init = {"w_step": np.zeros((p, c, c)), "b_step": np.zeros((p, 1, c)),
                "w_in": 0.1 * rng.standard_normal((p, c, n)), "b_in": np.zeros((p, 1, n)),
                "w_out": np.zeros((p, c, n)), "b_out": np.zeros((p, 1, n)),
                "skip": np.ones((p, 1, c)),
                "log_decay": np.tile(np.log(np.arange(1, n + 1, dtype=np.float64)), (p, 1))}
        self.scan_params = tuple(self._p(f"denoise.ssm.{k}", init[k]) for k in SCAN_PARAMS)
        proj = np.eye(4 * c).reshape(4 * c, 4 * c, 1, 1) / 4.0
        proj += 0.01 * rng.standard_normal(proj.shape)
        self.proj_kernel = self._p("denoise.proj.kernel", proj)
        self.proj_bias = self._p("denoise.proj.bias", np.zeros((4 * c, 1, 1)))
        self.inner_kernel = self._p("denoise.local.inner.kernel",
                                    np.zeros((16 * c, 16 * c, 3, 3)))
        self.inner_bias = self._p("denoise.local.inner.bias", np.zeros((16 * c, 1, 1)))
        self.skip_kernel = self._p("denoise.local.skip.kernel", np.zeros((4 * c, 4 * c, 3, 3)))
        self.skip_bias = self._p("denoise.local.skip.bias", np.zeros((4 * c, 1, 1)))

    def scan_branch(self, f_wt: Tensor) -> Tensor:
        """4C x h2 x w2 subbands -> C x 2h2 x 2w2 reconstruction of the scanned bands."""
        _, h2, w2 = f_wt.data.shape
        rows = subband_tokens(f_wt)
        orders, back = scan_orders(h2, w2)
        ys = selective_scan(take_rows(rows, orders), self.scan_params)    # P x L x C
        # undo every path's order with one gather, then sum the paths
        unscanned = take_rows(reshape(ys, (-1, self.c)), back)
        total = tsum(reshape(unscanned, ys.data.shape), axis=0)
        enhanced = conv2d(token_subbands(total, h2, w2), self.proj_kernel, self.proj_bias)
        return ihaar2d(enhanced)

    def conv_branch(self, f_wt: Tensor) -> Tensor:
        """4C x h2 x w2 subbands -> C x 2h2 x 2w2: ihaar2d(ihaar2d(conv(haar2d(f))) + skip(f))."""
        inner = conv2d(haar2d(f_wt), self.inner_kernel, self.inner_bias, pad=1)
        skip = conv2d(f_wt, self.skip_kernel, self.skip_bias, pad=1)
        return ihaar2d(ihaar2d(inner) + skip)

    def __call__(self, feature: Tensor) -> Tensor:
        f_wt = haar2d(feature)
        return self.scan_branch(f_wt) + self.conv_branch(f_wt)
