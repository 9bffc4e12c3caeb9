"""KAN layers: a matrix of learnable univariate functions.

Each output coordinate q applies its own degree-d polynomial expansion to
every input coordinate p and sums the results,

    out[q] = sum_p sum_r gamma[q, p, r] * P_r(s(x[p])),

where s, `Basis.squash`, maps the reals onto the basis domain with a
tanh.  The basis applies s itself, so a layer hands it raw inputs.  A
`linear` mode swaps the expansion for a plain bias-free weight matrix so
the same network can be run as an MLP variant; it and the model's
bottleneck head both apply weights through `linear`.

A layer contracts one axis of its input: the last (`axis=-1`, the rows of
`x` times W^T) or the second last (`axis=-2`, W times each [in_dim, d]
slab), so the inter-patch layer mixes the patch axis of [B, n, d] in place.
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import tensor as tt
from .basis import RUN_BLOCKS, Basis, block_rows, row_blocks
from .errors import ContractError, DimensionError
from .tensor import Tensor


def _contract(v: np.ndarray, w: np.ndarray, axis: int, out=None) -> np.ndarray:
    """sum_k w[q, k] v[..., k] (axis -1) or sum_k w[q, k] v[..., k, j] (axis -2).

    Its gradient with respect to v is `_contract(g, w.T, axis)`.  `out`, if
    given, is the result's C-contiguous array (rows by q on axis -1).
    """
    if axis == -1:
        return np.matmul(_rows(v, 1), w.T, out=out).reshape(v.shape[:-1] + (w.shape[0],))
    return np.matmul(w, v, out=out)


def _weight_grad(g: np.ndarray, v: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of `_contract` with respect to w: g times v, summed over rows."""
    if axis == -1:
        return _rows(g, 1).T @ _rows(v, 1)
    return np.matmul(_rows(g, 2), _rows(v, 2).transpose(0, 2, 1)).sum(axis=0)


def _rows(a: np.ndarray, keep: int) -> np.ndarray:
    """`a` as [rows, *its last `keep` axes]."""
    cut = a.ndim - keep
    return a.reshape((prod(a.shape[:cut]),) + a.shape[cut:])


def linear(x: Tensor, w: Tensor, axis: int = -1) -> Tensor:
    """x times a weight matrix w [out, in] with no bias, recorded as one node.

    Contracts `axis` of x: x @ w^T on axis -1, w @ x per [in, d] slab on axis -2.
    """
    _check_extent(x, w.shape[1], axis)

    def back(g):
        if w.requires_grad:
            w.accumulate_grad(_weight_grad(g, x.data, axis))
        if x.requires_grad:
            x.accumulate_grad(_contract(g, w.data.T, axis))

    return tt._make(_contract(x.data, w.data, axis), (x, w), back)


def _check_extent(x: Tensor, extent: int, axis: int) -> None:
    if x.ndim < -axis or x.shape[axis] != extent:
        raise DimensionError(f"expected extent {extent} on axis {axis}, got {x.shape}")


class KanLayer:
    """One layer mapping in_dim inputs to out_dim outputs along `axis`.

    With k = sqrt(1 / in_dim), kan mode stores coefficients
    gamma[out_dim, in_dim, degree + 1] drawn from Normal(0, k).  linear mode
    stores a weight matrix [out_dim, in_dim] drawn from Uniform(-k, k) and
    applies it with no bias: x @ W^T on axis -1, W @ x on axis -2.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        basis: Basis | None = None,
        mode: str = "kan",
        rng: np.random.Generator | None = None,
        axis: int = -1,
    ):
        if mode not in ("kan", "linear"):
            raise ContractError(f"unknown layer mode {mode!r}")
        if mode == "kan" and basis is None:
            raise ContractError("kan mode requires a basis")
        if axis not in (-1, -2):
            raise ContractError(f"a layer contracts axis -1 or -2, got {axis}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.mode = mode
        self.axis = axis
        self.basis = basis
        k = np.sqrt(1.0 / in_dim)
        if mode == "kan":
            init = rng.normal(0.0, k, size=(out_dim, in_dim, basis.degree + 1))
        else:
            init = rng.uniform(-k, k, size=(out_dim, in_dim))
        self.gamma = Tensor(init, requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """The layer applied along its axis.

        In kan mode the input is walked in runs of leading rows, RUN_BLOCKS
        cache blocks each.  Degree 0 is a bias, P_0 times the coefficient
        sum over inputs.  For each run the basis writes degrees 1..R of its
        elements into one scratch array whose degree axis sits just before
        the contracted axis, and one product with K = R * in_dim against
        gamma[:, :, 1:] laid out as [out_dim, R * in_dim] writes that run's
        rows of the output; the scratch is then reused, so no values
        buffer of the whole input exists.  The backward walks the saved
        input in cache blocks and recomputes each block's values and
        derivatives (which carry the squash slope) just before use: the
        values give that block's coefficient gradient, the derivatives its
        input gradient.
        """
        if self.mode == "linear":
            return linear(x, self.gamma, self.axis)
        _check_extent(x, self.in_dim, self.axis)
        gamma, axis, degree = self.gamma, self.axis, self.basis.degree
        weight = gamma.data[:, :, 1:].transpose(0, 2, 1).reshape(self.out_dim, -1)
        bias = self.basis.p0 * gamma.data[:, :, 0].sum(axis=1)
        x_rows = _rows(x.data, -axis)
        lead, width = len(x_rows), prod(x.shape[axis:])
        out_rows = np.empty((lead, self.out_dim) + x_rows.shape[2:])
        if degree:
            values = np.empty((min(lead, RUN_BLOCKS * block_rows(width)), degree)
                              + x_rows.shape[1:])
            for run in row_blocks(lead, width, RUN_BLOCKS):
                terms = self.basis.eval_terms(x_rows[run], axis=axis - 1,
                                              out=values[:len(out_rows[run])])
                stacked = terms.reshape((len(terms), -1) + x_rows.shape[2:])
                _contract(stacked, weight, axis, out=out_rows[run])
        else:  # the bias alone
            out_rows.fill(0.0)
        out_rows += bias.reshape((self.out_dim,) + (1,) * (-axis - 1))

        def back(g):
            dw, gx = self._grads(g, weight, x.data)
            if gamma.requires_grad:
                grad = np.empty(gamma.shape)
                out_axis = g.ndim + axis
                g_sum = g.sum(axis=tuple(i for i in range(g.ndim) if i != out_axis))
                grad[:, :, 0] = (self.basis.p0 * g_sum)[:, None]
                grad[:, :, 1:] = dw.reshape(self.out_dim, degree, self.in_dim).transpose(0, 2, 1)
                gamma.accumulate_grad(grad)
            if x.requires_grad:
                x.accumulate_grad(gx)

        shape = x.shape[:axis] + (self.out_dim,) + x.shape[axis:][1:]
        return tt._make(out_rows.reshape(shape), (x, gamma), back)

    def _grads(self, g, weight, x) -> tuple:
        """(d/d weight, d/dx) for the output gradient g, in cache blocks of leading rows.

        Each block's values and derivatives come from one basis call on that
        block of x.  The weight gradient sums the blocks' partial products
        in block order; the input gradient of a block is
        sum_r (W_r^T g) * dP_r(s(x))/dx.  A block's values, derivatives and
        product land in scratch allocated once per call.
        """
        axis, degree = self.axis, self.basis.degree
        x_rows, g_rows = _rows(x, -axis), _rows(g, -axis)
        lead, width = len(x_rows), prod(x.shape[axis:])
        dw = np.zeros(weight.shape)
        if not degree:  # the bias alone: no block to evaluate
            return dw, np.zeros(x.shape)
        height = min(lead, block_rows(width))
        vals, ders = np.empty((2, height, degree) + x_rows.shape[1:])
        product = np.empty((height, weight.shape[1]) + g_rows.shape[2:])
        gx = np.empty(x_rows.shape)
        for blk in row_blocks(lead, width):
            m = len(x_rows[blk])
            v, dp = self.basis.eval_terms_with_deriv(x_rows[blk], axis=axis - 1,
                                                     out=(vals[:m], ders[:m]))
            dw += _weight_grad(g_rows[blk], v.reshape(product[:m].shape), axis)
            # the block's W_r^T g, times the derivatives
            terms = _contract(g_rows[blk], weight.T, axis, out=product[:m]).reshape(dp.shape)
            terms *= dp
            np.sum(terms, axis=1, out=gx[blk])
        return dw, gx.reshape(x.shape)
