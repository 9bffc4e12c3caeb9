"""Dense float64 arrays with reverse-mode automatic differentiation.

Operations record onto a module-level tape in execution order.  `backward`
sweeps that tape once in reverse, popping each node as it runs, and
accumulates gradients into every `requires_grad` tensor reachable from the
root.
An op result's gradient is dropped as soon as its node has run; leaf
(parameter) gradients persist across backward calls until `zero_grad`.
Each gradient array has one owner, its tensor (`Tensor.accumulate_grad`).
The whole-array passes here (the finite check, `add`, its gradient copy and
gradient accumulation) run on the worker pool in fixed flat slices
(`_cuts`), which `training.Adam` cuts its update by too.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import pool
from .errors import ContractError

# Elements per pool task of a whole-array pass (`_sliced`), 1 MiB of float64:
# a fixed count, so the slices never depend on the pool size.
SLICE_ELEMENTS = 1 << 17

_TAPE: list = []  # (op result, backward closure) pairs, in recording order
_grad_enabled = True


def _tape() -> list:
    return _TAPE


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
            self.grad = np.require(g, np.float64, "C")  # `_sliced` writes through it
        else:
            _sliced(lambda grad, part: np.add(grad, part, out=grad), self.grad, g)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic -----------------------------------------------------------

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
            out, back = _TAPE.pop()  # dropped after it runs, with the activations it saved
            if out.grad is not None:
                back(out.grad)
                out.grad = None
    finally:
        _TAPE.clear()


def _cuts(size: int) -> list:
    """The fixed flat slices of SLICE_ELEMENTS over `size` elements."""
    return [slice(lo, lo + SLICE_ELEMENTS) for lo in range(0, size, SLICE_ELEMENTS)]


def _sliced(fn, *arrays: np.ndarray) -> list:
    """fn over the same fixed flat slice of each array, one pool task per slice.

    The arrays have one size.  A C-contiguous array's slices are views of
    it, so `fn` may write into them.
    """
    flats = [a.reshape(-1) for a in arrays]
    return pool.map(lambda cut: fn(*(f[cut] for f in flats)), _cuts(flats[0].size))


def _copy(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape)
    _sliced(np.copyto, out, a)
    return out


# Every op result passes this guard, so NaN/Inf fails at the op that made it.
def _check_finite(arr: np.ndarray) -> None:
    if not all(_sliced(lambda a: np.isfinite(a).all(), arr)):
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
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _TAPE.append((out, backward_fn))
    return out


# operations ---------------------------------------------------------------


def add(a: Tensor, b: Tensor, in_place: bool = False) -> Tensor:
    """Elementwise sum of two tensors of one shape.

    With `in_place` the sum is written into a's array, which the result
    then shares, so a's values are gone.  That is safe only when nothing
    reads a's values after the sum: no op's backward reads its own output,
    so a may be an op result that only this sum reads.  a's array must be
    C-contiguous (its flat slices would be copies, and the sum lost), and
    must not share memory with b's (b's values would change under it).
    """
    if a.shape != b.shape:
        raise ContractError(f"add: shapes {a.shape} and {b.shape} differ")
    if in_place and not a.data.flags.c_contiguous:
        raise ContractError("add: an in-place target must be C-contiguous")
    if in_place and np.shares_memory(a.data, b.data):
        raise ContractError("add: an in-place target shares memory with the other operand")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(_copy(g) if a.requires_grad else g)

    out = a.data if in_place else np.empty(a.shape)
    _sliced(lambda o, x, y: np.add(x, y, out=o), out, a.data, b.data)
    return _make(out, (a, b), back)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ContractError(f"reshape: cannot view {a.shape} as {shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _make(data, (a,), back)


def tensor_sum(a: Tensor) -> Tensor:
    def back(g):
        if a.requires_grad:
            a.accumulate_grad(np.full(a.shape, g))

    return _make(a.data.sum(), (a,), back)
