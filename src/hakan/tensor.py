"""Dense float64 arrays with reverse-mode automatic differentiation.

Operations record onto a module-level tape in execution order.  `backward`
sweeps that tape once in reverse, accumulates gradients into every
`requires_grad` tensor reachable from the root, and then frees the tape.
Parameter gradients persist across backward calls until `zero_grad`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

_TAPE: list = []
_grad_enabled = True


def _tape() -> list:
    return _TAPE


def grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording within the block (inference / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    __slots__ = ("out", "backward")

    def __init__(self, out, backward):
        self.out = out
        self.backward = backward


class Tensor:
    """A dense real-valued array with an optional gradient buffer.

    Construction checks no values: NaN or Inf in the data fails at the
    first op that reads it, whose result `_make` checks.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            # a C-ordered copy, never `g` itself: one backward may hand the
            # same array to several parents (add), and grads are updated in
            # place (by later accumulations and by the optimizer)
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)


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
    try:
        for node in reversed(_TAPE):
            if node.out.grad is not None:
                node.backward(node.out.grad)
    finally:
        _TAPE.clear()


# Every op result passes this guard, so NaN/Inf fails at the op that made it.
def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ContractError("operation produced non-finite values")
    return arr


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap an op's result and attach it to the tape.

    `backward_fn(g)` must accumulate into each requires_grad parent.  Every
    op, the fused KAN layer included, creates its result here.
    """
    out = Tensor.__new__(Tensor)
    out.data = _check_finite(np.asarray(data, dtype=np.float64))
    out.grad = None
    out.requires_grad = False
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _TAPE.append(_Node(out, backward_fn))
    return out


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
    a, b = _as_tensor(a), _as_tensor(b)
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

