"""Dense float64 arrays with reverse-mode automatic differentiation.

Operations record onto a thread-local tape in execution order.  `backward`
sweeps that tape once in reverse, accumulates gradients into every
`requires_grad` tensor reachable from the root, and then frees the tape.
Parameter gradients persist across backward calls until `zero_grad`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

_local = threading.local()


def _tape() -> list:
    tape = getattr(_local, "tape", None)
    if tape is None:
        tape = []
        _local.tape = tape
    return tape


def grad_enabled() -> bool:
    return getattr(_local, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording within the block (inference / finite differences)."""
    prev = grad_enabled()
    _local.grad_enabled = False
    try:
        yield
    finally:
        _local.grad_enabled = prev


class _Node:
    __slots__ = ("out", "backward")

    def __init__(self, out, backward):
        self.out = out
        self.backward = backward


class Tensor:
    """A dense real-valued array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ContractError("tensor holds non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(g, self.data.shape)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def transpose(self):
        return transpose(self)

    def swap_last_axes(self):
        return swap_last_axes(self)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def flatten(self):
        return reshape(self, -1)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)

    def tanh(self):
        return tanh(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcast during the forward op."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def record(out: Tensor, parents: tuple, backward) -> Tensor:
    """Attach `out` to the tape.

    `backward(g)` must accumulate into each requires_grad parent.  Custom
    fused operations (the KAN layer) use this entry point directly.
    """
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _tape().append(_Node(out, backward))
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable requires_grad leaf.

    The root must be a scalar.  The tape is freed afterwards, so each
    recorded forward pass supports one backward sweep; repeated
    forward/backward rounds keep accumulating into parameter grads.
    """
    if root.size != 1:
        raise ContractError(
            f"backward needs a scalar root, got shape {root.shape}"
        )
    if root.grad is None:
        root.grad = np.zeros_like(root.data)
    root.grad += 1.0
    tape = _tape()
    try:
        for node in reversed(tape):
            if node.out.grad is not None:
                node.backward(node.out.grad)
    finally:
        tape.clear()


# Every op result passes this guard, so NaN/Inf fails at the op that made it.
def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ContractError("operation produced non-finite values")
    return arr


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = _check_finite(np.asarray(data, dtype=np.float64))
    out.grad = None
    out.requires_grad = False
    return record(out, parents, backward_fn)


# operations ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not align")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return _make(data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not align")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return _make(data, (a, b), back)


def mul(a, b) -> Tensor:
    """Elementwise product; `b` may be a python scalar."""
    a = _as_tensor(a)
    if np.isscalar(b) or isinstance(b, (int, float)):
        c = float(b)

        def back_scalar(g):
            if a.requires_grad:
                a.accumulate_grad(g * c)

        return _make(a.data * c, (a,), back_scalar)

    b = _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not align")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _make(data, (a, b), back)


def matmul(a, b) -> Tensor:
    """Matrix product.  `a` may carry one leading batch axis; `b` is a matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim not in (2, 3) or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul: cannot multiply shapes {a.shape} and {b.shape}"
        )
    data = np.matmul(a.data, b.data)

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(np.matmul(g, b.data.T))
        if b.requires_grad:
            lhs = a.data.reshape(-1, a.shape[-1])
            b.accumulate_grad(lhs.T @ g.reshape(-1, g.shape[-1]))

    return _make(data, (a, b), back)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got rank {a.ndim}")
    return swap_last_axes(a)


def swap_last_axes(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"swap_last_axes expects rank >= 2, got {a.ndim}")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2), (a,), back)


def reshape(a, *shape) -> Tensor:
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _make(data, (a,), back)


def tensor_sum(a) -> Tensor:
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.shape))

    return _make(a.data.sum(), (a,), back)


def tensor_mean(a) -> Tensor:
    a = _as_tensor(a)
    inv = 1.0 / a.size

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g * inv, a.shape))

    return _make(a.data.mean(), (a,), back)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), back)
