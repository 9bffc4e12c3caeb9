"""Dense float64 arrays with reverse-mode automatic differentiation.

Operations record onto a module-level tape in execution order.  `backward`
sweeps that tape once in reverse, popping each node as it runs, and
accumulates gradients into every `requires_grad` tensor reachable from the
root.
An op result's gradient is dropped as soon as its node has run; leaf
(parameter) gradients persist across backward calls until `zero_grad`.
Each gradient array has one owner, its tensor (`Tensor.accumulate_grad`).
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
    """A dense real-valued array with an optional gradient.

    Construction checks no values: NaN or Inf in the data fails at the
    first op that reads it, whose result `_make` checks.  `grad` is the
    tensor's own array, written in place by accumulation and the optimizer.
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
        """Add `g` to the gradient; the first `g` becomes the gradient itself.

        Callers hand over a writeable array that nothing else holds, since
        later accumulations and the optimizer write into it in place.
        """
        if g.shape != self.data.shape:
            raise ContractError(
                f"gradient of shape {g.shape} for a tensor of shape {self.shape}"
            )
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self):
        return tensor_sum(self)


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable requires_grad leaf.

    The root must be a scalar.  Each node leaves the tape as it runs, and
    its op result's gradient is freed once it has run, so the activations
    a node saved go with it and the tape is empty afterwards; each recorded
    forward pass supports one backward sweep, and repeated forward/backward
    rounds keep accumulating into parameter grads.
    """
    if root.size != 1:
        raise ContractError(
            f"backward needs a scalar root, got shape {root.shape}"
        )
    if root.grad is None:
        root.grad = np.zeros_like(root.data)
    root.grad += 1.0
    try:
        while _TAPE:
            node = _TAPE.pop()  # dropped after it runs, with the activations it saved
            g = node.out.grad
            if g is not None:
                node.backward(g)
                node.out.grad = None
    finally:
        _TAPE.clear()


# Every op result passes this guard, so NaN/Inf fails at the op that made it.
def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ContractError("operation produced non-finite values")


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap an op's result and attach it to the tape.

    `backward_fn(g)` must accumulate into each requires_grad parent.  Every
    op creates its result here, the fused nodes outside this module too:
    `layers.linear`, the KAN layer, the embedding, RevIN's inverse and the
    loss.
    """
    out = Tensor(data)
    _check_finite(out.data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _TAPE.append(_Node(out, backward_fn))
    return out


# operations ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.copy() if a.requires_grad else g)

    return _make(a.data + b.data, (a, b), back)


def reshape(a: Tensor, *shape) -> Tensor:
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


def tensor_sum(a: Tensor) -> Tensor:
    def back(g):
        if a.requires_grad:
            a.accumulate_grad(np.full(a.shape, g))

    return _make(a.data.sum(), (a,), back)
