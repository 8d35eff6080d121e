"""Dense float64 tensors with a reverse-mode gradient tape.

The tape is define-by-run: every differentiable operation executed while a
Tape is active appends one record, and ``Tape.backward`` replays the records
in exact reverse order of recording. With no active tape, operations run as
plain numpy forward passes (this is the no-grad / evaluation mode).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

_TAPE_STACK: list[Optional["Tape"]] = []
_FLOAT64 = np.dtype(np.float64)


def active_tape() -> Optional["Tape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def no_grad():
    """Suspend recording: ops inside run as plain forward passes."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


class GradSlot:
    """Where the gradient of one tensor accumulates.

    A tensor that takes a gradient owns one; tape records hold slots, not
    tensors, so a record keeps no array alive that its backward does not
    read.
    """

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: Optional[np.ndarray] = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        # safe to hold g by reference: accumulation reallocates instead of
        # writing in place, and a producer's grad is final by the time its
        # own backward record fires (records replay in reverse order)
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


class Tensor:
    """A rank-N array of float64 values, immutable by convention.

    A tensor that requires grad owns a ``GradSlot``; a constant has none.
    ``grad`` reads the slot: it is materialized the first time backward
    reaches the tensor and always has the same shape as ``data``.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        # what every op returns, a float64 array, is taken as it is
        self.data = data if data.__class__ is np.ndarray and data.dtype is _FLOAT64 \
            else np.asarray(data, dtype=np.float64)
        self.slot: Optional[GradSlot] = GradSlot() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.slot is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self.slot = (self.slot or GradSlot()) if flag else None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        if self.slot is not None:
            self.slot.grad = g
        elif g is not None:
            raise ValueError("a tensor that does not require grad holds no gradient")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _not_scalar(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # arithmetic dunders are attached by coopfuse.ops at import time


def _not_scalar(t: Tensor):
    raise ValueError(f"item() requires a single-element tensor, got shape {t.data.shape}")


class Parameter(Tensor):
    """A named, trainable tensor on a C-contiguous array, which the optimizer
    updates in place through flat views."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(np.asarray(data, dtype=np.float64, order="C"), requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class ParamBlock:
    """Base for parameterized blocks: owns a flat name -> Parameter dict."""

    def __init__(self):
        self.params: dict[str, Parameter] = {}

    def _p(self, name: str, data) -> Parameter:
        p = Parameter(data, name)
        self.params[name] = p
        return p

    def parameters(self) -> dict[str, Parameter]:
        return dict(self.params)


class Tape:
    """Ordered record of executed operations for one forward pass.

    A record is ``(slot, backward_fn)``: the output's gradient slot and the
    closure that maps its gradient into the input slots. It holds no tensor,
    so an op's output array lives only while the caller, or a backward rule
    that reads it, holds it. ``backward`` consumes the tape: it removes each
    record before replaying it, so the arrays a record's closure saved, and
    the gradients only that closure read, are freed as the replay passes
    them. The tape is empty afterwards.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[GradSlot, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, slot: GradSlot, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((slot, backward_fn))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, root: Tensor) -> None:
        """Seed the root with a unit gradient and replay records in reverse,
        popping each; a record fires when its slot holds a gradient."""
        if root.data.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
        if root.slot is not None:
            root.slot.accumulate_grad(np.ones_like(root.data))
        while self._records:
            slot, fn = self._records.pop()
            if slot.grad is not None:
                fn(slot.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
