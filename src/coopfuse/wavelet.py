"""Orthonormal single-level 2D Haar analysis/synthesis, one subband per Tensor.

For each non-overlapping 2x2 block [[a, b], [c, d]] per channel:

    ll = (a + b + c + d) / 2      lh = (a - b + c - d) / 2
    hl = (a + b - c - d) / 2      hh = (a - b - c + d) / 2

The transform matrix is symmetric orthogonal, so synthesis applies the
same combination to the subbands and energy is preserved exactly. The
arithmetic lives in the tape ops ``ops.haar2d`` and ``ops.ihaar2d``, which
keep the four subbands stacked as one 4C-channel tensor; this module splits
that tensor into a ``SubbandSet`` and back, for callers that want the bands
by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ops import concat, haar2d, ihaar2d, narrow
from .tensor import Tensor


@dataclass
class SubbandSet:
    """The four half-resolution subbands of one decomposition level."""

    ll: Tensor
    lh: Tensor
    hl: Tensor
    hh: Tensor

    def __post_init__(self):
        shapes = {t.data.shape for t in (self.ll, self.lh, self.hl, self.hh)}
        if len(shapes) != 1:
            raise ValueError(f"subband shapes differ: {sorted(shapes)}")

    def bands(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return (self.ll, self.lh, self.hl, self.hh)


def haar_wt2d(x: Tensor) -> SubbandSet:
    stacked = haar2d(x)
    c = stacked.data.shape[0] // 4
    return SubbandSet(*(narrow(stacked, i * c, c) for i in range(4)))


def haar_iwt2d(bands: SubbandSet) -> Tensor:
    return ihaar2d(concat(list(bands.bands()), axis=0))
