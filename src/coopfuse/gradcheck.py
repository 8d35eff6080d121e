"""Finite-difference validation of the reverse-mode gradients.

``grad_check`` compares the tape gradient of a scalar-valued function
against central differences, element by element. The gradient suite's
cases, one per op in ``ops.DIFFERENTIABLE_OPS``, live with the tests in
``tests/grad_cases.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tape, Tensor


def grad_check(scalar_fn: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-4) -> float:
    """Return the max relative error between tape and central-difference gradients."""
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = scalar_fn(probe)
    if y.data.size != 1:
        raise ValueError(f"scalar_fn must return a scalar, got shape {y.data.shape}")
    tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = scalar_fn(Tensor(flat.reshape(x.data.shape))).item()
        flat[i] = orig - eps
        dn = scalar_fn(Tensor(flat.reshape(x.data.shape))).item()
        flat[i] = orig
        numeric[i] = (up - dn) / (2.0 * eps)

    an = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(an), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(an - numeric) / denom))
