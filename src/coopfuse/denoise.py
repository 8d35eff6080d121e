"""Dual-branch wavelet-domain denoiser.

One ``ops.haar2d`` analysis gives the 4C x H/2 x W/2 subband tensor (LL, LH,
HL, HH channel blocks) that both branches read. Global branch: the subband
tensor is laid out as token rows, one per (position, band), and serialized
along four scan paths (progressive high-to-low frequency and spatially
interleaved, each forward and reverse). One ``ops.selective_scan`` call runs
the input-conditioned diagonal linear recurrences of all four paths
(selective scan), with a hand-written backward. The outputs are put back in
subband layout, summed, projected pointwise and reconstructed by
``ops.ihaar2d``. Local branch: a nested transform/convolution stack on the
subband tensor. The two reconstructions are added.
"""

from __future__ import annotations

import numpy as np

from .ops import (SCAN_PARAMS, conv2d, haar2d, ihaar2d, reshape, selective_scan,
                  take_rows, transpose, tsum)
from .tensor import ParamBlock, Tensor

_ORDER_CACHE: dict[tuple, np.ndarray] = {}

# band positions in the subband order LL, LH, HL, HH
_PROGRESSIVE_BANDS = (3, 2, 1, 0)  # HH -> HL -> LH -> LL


def subband_tokens(x: Tensor) -> Tensor:
    """4C x h2 x w2 subbands -> (h2*w2*4) x C token rows; row 4*p + b holds
    band b at raster position p."""
    c4, h2, w2 = x.data.shape
    return reshape(transpose(x, (1, 2, 0)), (h2 * w2 * 4, c4 // 4))


def token_subbands(rows: Tensor, h2: int, w2: int) -> Tensor:
    """The inverse of ``subband_tokens``."""
    return transpose(reshape(rows, (h2, w2, -1)), (2, 0, 1))


def progressive_order(h2: int, w2: int, direction: str) -> np.ndarray:
    """Token order visiting whole subbands from high to low frequency."""
    key = ("prog", h2, w2, direction)
    if key not in _ORDER_CACHE:
        pos = 4 * np.arange(h2 * w2)
        fwd = np.concatenate([pos + b for b in _PROGRESSIVE_BANDS])
        _ORDER_CACHE[key] = _directed(fwd, direction)
    return _ORDER_CACHE[key]


def interleaved_order(h2: int, w2: int, direction: str) -> np.ndarray:
    """Token order emitting (LL, LH, HL, HH) at each raster position."""
    key = ("inter", h2, w2, direction)
    if key not in _ORDER_CACHE:
        _ORDER_CACHE[key] = _directed(np.arange(4 * h2 * w2), direction)
    return _ORDER_CACHE[key]


def _directed(fwd: np.ndarray, direction: str) -> np.ndarray:
    if direction == "forward":
        return fwd
    if direction == "reverse":
        return fwd[::-1].copy()
    raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")


class SelectiveScan(ParamBlock):
    """Input-conditioned diagonal linear recurrence over a token sequence.

    Per token: step = softplus(x W_step + b_step) per channel, input and
    output gates are linear in the token, decay is -exp(log_decay) per state.
    State update h_t = exp(step * decay) * h_{t-1} + step * gate_in * x_t;
    output y_t = sum_n gate_out * h_t + skip * x_t. Output projection starts
    at zero and skip at one, so the scan is the per-token identity at init.
    """

    def __init__(self, c: int, state_dim: int, rng: np.random.Generator, prefix: str):
        super().__init__()
        if state_dim < 1:
            raise ValueError(f"state_dim must be positive, got {state_dim}")
        self.c = c
        self.state_dim = state_dim
        self.w_step = self._p(f"{prefix}.w_step", np.zeros((c, c)))
        self.b_step = self._p(f"{prefix}.b_step", np.zeros((1, c)))
        self.w_in = self._p(f"{prefix}.w_in", 0.1 * rng.standard_normal((c, state_dim)))
        self.b_in = self._p(f"{prefix}.b_in", np.zeros((1, state_dim)))
        self.w_out = self._p(f"{prefix}.w_out", np.zeros((c, state_dim)))
        self.b_out = self._p(f"{prefix}.b_out", np.zeros((1, state_dim)))
        self.skip = self._p(f"{prefix}.skip", np.ones((1, c)))
        self.log_decay = self._p(f"{prefix}.log_decay",
                                 np.log(np.arange(1, state_dim + 1, dtype=np.float64)))

    @property
    def decay(self) -> np.ndarray:
        return -np.exp(self.log_decay.data)

    @property
    def scan_params(self) -> tuple[Tensor, ...]:
        """The parameters in ``ops.SCAN_PARAMS`` order."""
        return tuple(getattr(self, name) for name in SCAN_PARAMS)

    def __call__(self, values: Tensor) -> Tensor:
        y = selective_scan([values], [self.scan_params])
        return reshape(y, y.data.shape[1:])


_SCAN_PATHS = (("prog", "forward"), ("prog", "reverse"),
               ("inter", "forward"), ("inter", "reverse"))
_ORDERS = {"prog": progressive_order, "inter": interleaved_order}


class WaveletDenoiser(ParamBlock):
    """Sum of the global scan branch and the local nested-conv branch."""

    def __init__(self, c: int, state_dim: int, rng: np.random.Generator,
                 prefix: str = "denoise"):
        super().__init__()
        self.c = c
        self.scans = []
        for kind, direction in _SCAN_PATHS:
            s = SelectiveScan(c, state_dim, rng, prefix=f"{prefix}.ssm.{kind}.{direction}")
            self.scans.append(s)
            self.params.update(s.params)
        proj = np.eye(4 * c).reshape(4 * c, 4 * c, 1, 1) / 4.0
        proj += 0.01 * rng.standard_normal(proj.shape)
        self.proj_kernel = self._p(f"{prefix}.proj.kernel", proj)
        self.proj_bias = self._p(f"{prefix}.proj.bias", np.zeros((4 * c, 1, 1)))
        self.inner_kernel = self._p(f"{prefix}.local.inner.kernel",
                                    np.zeros((16 * c, 16 * c, 3, 3)))
        self.inner_bias = self._p(f"{prefix}.local.inner.bias", np.zeros((16 * c, 1, 1)))
        self.skip_kernel = self._p(f"{prefix}.local.skip.kernel",
                                   np.zeros((4 * c, 4 * c, 3, 3)))
        self.skip_bias = self._p(f"{prefix}.local.skip.bias", np.zeros((4 * c, 1, 1)))

    def scan_branch(self, f_wt: Tensor) -> Tensor:
        """4C x h2 x w2 subbands -> C x 2h2 x 2w2 reconstruction of the scanned bands."""
        _, h2, w2 = f_wt.data.shape
        rows = subband_tokens(f_wt)
        orders = [_ORDERS[kind](h2, w2, direction) for kind, direction in _SCAN_PATHS]
        ys = selective_scan([take_rows(rows, order) for order in orders],
                            [ssm.scan_params for ssm in self.scans])      # P x L x C
        # undo every path's order with one gather, then sum the paths
        n_paths, length = len(orders), rows.data.shape[0]
        back = np.concatenate([p * length + np.argsort(order) for p, order in enumerate(orders)])
        unscanned = take_rows(reshape(ys, (n_paths * length, -1)), back)
        total = tsum(reshape(unscanned, (n_paths, length, -1)), axis=0)
        enhanced = conv2d(token_subbands(total, h2, w2), self.proj_kernel) + self.proj_bias
        return ihaar2d(enhanced)

    def conv_branch(self, f_wt: Tensor) -> Tensor:
        """4C x h2 x w2 subbands -> C x 2h2 x 2w2: ihaar2d(ihaar2d(conv(haar2d(f))) + skip(f))."""
        inner = conv2d(haar2d(f_wt), self.inner_kernel, pad=1) + self.inner_bias
        skip = conv2d(f_wt, self.skip_kernel, pad=1) + self.skip_bias
        return ihaar2d(ihaar2d(inner) + skip)

    def __call__(self, feature: Tensor) -> Tensor:
        _, h, w = feature.data.shape
        if h % 4 or w % 4:
            raise ValueError(f"denoiser needs H, W divisible by 4, got {h}x{w}")
        f_wt = haar2d(feature)
        return self.scan_branch(f_wt) + self.conv_branch(f_wt)
