"""KAN layers: a matrix of learnable univariate functions.

Each output coordinate q applies its own degree-d polynomial expansion to
every input coordinate p and sums the results,

    out[q] = sum_p sum_r gamma[q, p, r] * P_r(s(x[p])),

where s = lo + (hi - lo) (tanh(x) + 1) / 2 maps the reals onto the basis
domain.  s is affine in tanh(x), so the basis runs its recurrence in
tanh(x) (`Basis`) and a layer hands it raw inputs.  A `linear` mode swaps
the expansion for a plain bias-free weight matrix so the same network can
be run as an MLP variant; it and the model's bottleneck head both apply
weights through `linear`.

A layer contracts one axis of its input: the last (`axis=-1`, the rows of
`x` times W^T) or the second last (`axis=-2`, W times each [in_dim, d]
slab), so the inter-patch layer mixes the patch axis of [B, n, d] in place.
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import pool
from . import tensor as tt
from .basis import Basis, block_rows
from .errors import ContractError, DimensionError
from .tensor import Tensor

# Cache blocks (`basis.BLOCK_ELEMENTS`) per pool task of a KAN layer, forward
# and backward (`_runs`).  A task makes one basis call into its worker's
# task scratch (`pool.scratch("task", ...)`), a run's values, one slab per
# degree, and one more run-sized slab for a product.  Three raised
# perfbench's `peak_rss_mb` on both workloads against two, and sped up
# serve-electricity's steps; see README, Performance.
RUN_BLOCKS = 2
# Pool tasks per product of `linear` on the last axis: equal tiles of the
# result's columns.  A fixed count, never the CPU count, so each column's
# bits are the same for any pool size; 4 splits evenly over 1, 2 or 4
# workers.
TILES = 4


def _contract(v: np.ndarray, w: np.ndarray, axis: int, out=None) -> np.ndarray:
    """sum_k w[q, k] v[..., k] (axis -1) or sum_k w[q, k] v[..., k, j] (axis -2).

    Its gradient with respect to v is `_contract(g, w.T, axis)`.  `out`, if
    given, is the result's C-contiguous array (rows by q on axis -1).
    """
    if axis == -1:
        return np.matmul(_rows(v, 1), w.T, out=out).reshape(v.shape[:-1] + (w.shape[0],))
    return np.matmul(w, v, out=out)


def _weight_grad(g: np.ndarray, v: np.ndarray, axis: int, out=None) -> np.ndarray:
    """The gradient of `_contract` with respect to w: g times v, summed over rows, into `out`."""
    if axis == -1:
        return np.matmul(_rows(g, 1).T, _rows(v, 1), out=out)
    return np.matmul(_rows(g, 2), _rows(v, 2).transpose(0, 2, 1)).sum(axis=0, out=out)


def _rows(a: np.ndarray, keep: int) -> np.ndarray:
    """`a` as [rows, *its last `keep` axes]."""
    cut = a.ndim - keep
    return a.reshape((prod(a.shape[:cut]),) + a.shape[cut:])


def _tiled(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of matrices, one pool task per tile of TILES equal column tiles."""
    out = np.empty((a.shape[0], b.shape[1]))
    width = -(-b.shape[1] // TILES)

    def tile(cols):
        np.matmul(a, b[:, cols], out=out[:, cols])

    pool.map(tile, [slice(lo, lo + width) for lo in range(0, b.shape[1], width)])
    return out


def linear(x: Tensor, w: Tensor, axis: int = -1) -> Tensor:
    """x times a weight matrix w [out, in] with no bias, recorded as one node.

    Contracts `axis` of x: x @ w^T on axis -1, w @ x per [in, d] slab on
    axis -2.  On axis -1 the product and both of its gradients run on the
    pool in column tiles (`_tiled`).
    """
    _check_extent(x, w.shape[1], axis)
    if axis == -1:
        x_rows = _rows(x.data, 1)
        out = _tiled(x_rows, w.data.T)
        weight_grad = lambda g: _tiled(_rows(g, 1).T, x_rows)
        input_grad = lambda g: _tiled(_rows(g, 1), w.data)
    else:
        out = _contract(x.data, w.data, axis)
        weight_grad = lambda g: _weight_grad(g, x.data, axis)
        input_grad = lambda g: _contract(g, w.data.T, axis)

    def back(g):
        if w.requires_grad:
            w.accumulate_grad(weight_grad(g))
        if x.requires_grad:
            x.accumulate_grad(input_grad(g).reshape(x.shape))

    shape = x.shape[:axis] + (w.shape[0],) + x.shape[axis:][1:]
    return tt._make(out.reshape(shape), (x, w), back)


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

        In kan mode the input is split into runs of leading rows (`_runs`),
        one pool task each.  Degree 0 is a bias, P_0 times the coefficient
        sum over inputs.  For each run the basis writes degrees 1..R of its
        elements into its worker's task scratch, one contiguous slab V_r per
        degree, and the task contracts one degree at a time, out = sum_r
        W_r V_r with W_r = gamma[:, :, r], each product added into that
        run's rows of the output, to which it adds the bias.  No values
        buffer of the whole input exists.  The backward walks the same runs
        of the saved input (`_grads`).
        """
        if self.mode == "linear":
            return linear(x, self.gamma, self.axis)
        _check_extent(x, self.in_dim, self.axis)
        gamma, axis, degree = self.gamma, self.axis, self.basis.degree
        weight = np.ascontiguousarray(gamma.data[:, :, 1:].transpose(2, 0, 1))  # W_r, [R, out, in]
        bias = self.basis.p0 * gamma.data[:, :, 0].sum(axis=1)
        bias = bias.reshape((self.out_dim,) + (1,) * (-axis - 1))
        x_rows = _rows(x.data, -axis)
        out_rows = np.empty((len(x_rows), self.out_dim) + x_rows.shape[2:])

        def run_task(run):
            src, out = x_rows[run], out_rows[run]
            if degree:
                work = pool.scratch("task", degree * src.size + out.size)
                values = work[:degree * src.size].reshape((degree,) + src.shape)
                product = work[degree * src.size:].reshape(out.shape)
                self.basis.eval_terms(src, out=values)
                _contract(values[0], weight[0], axis, out=out)
                for v, w in zip(values[1:], weight[1:]):
                    _contract(v, w, axis, out=product)
                    out += product
            else:  # the bias alone
                out.fill(0.0)
            out += bias

        pool.map(run_task, _runs(len(x_rows), prod(x.shape[axis:])))

        def back(g):
            dw, db, gx = self._grads(g, weight, x.data)
            if gamma.requires_grad:
                grad = np.empty(gamma.shape)
                grad[:, :, 0] = (self.basis.p0 * db.sum(axis=0))[:, None]
                dw.sum(axis=0, out=grad[:, :, 1:].transpose(2, 0, 1))
                gamma.accumulate_grad(grad)
            if x.requires_grad:
                x.accumulate_grad(gx)

        shape = x.shape[:axis] + (self.out_dim,) + x.shape[axis:][1:]
        return tt._make(out_rows.reshape(shape), (x, gamma), back)

    def _grads(self, g, weight, x) -> tuple:
        """(d/d W_r partials [runs, R, out, in], bias partials [runs, out], d/dx)
        for the output gradient g, over the forward's runs of x.

        With P_r' = sum_k D[r, k] P_k (`Basis.derivative_matrix`, in
        t = tanh(x)), the input gradient is (1 - t^2) sum_{k<R} (W'_k^T g)
        P_k(t), where W'_k = sum_r D[r, k] W_r is formed once, laid out as
        `weight`, with P_0's constant folded into W'_0.  A pool task makes
        one basis call for its run's values and slope, the slope written
        straight into the run's rows of d/dx.  The values give the run's
        weight-gradient partial per degree, g^T V_r, and its rows of g the
        bias-gradient partial, each written into the run's slot, so a sum
        over axis 0 gives the same bits whichever worker ran each run.
        W'_0^T g starts the sum in a scratch slab; each later W'_k^T g is
        formed in P_R's slab, which the input gradient does not use, times
        P_k and added in; the sum then scales the slope.
        """
        axis, basis = self.axis, self.basis
        degree = basis.degree
        x_rows, g_rows = _rows(x, -axis), _rows(g, -axis)
        deriv = basis.derivative_matrix()[1:, :-1]  # D[r, k], r = 1..R, k = 0..R-1
        deriv[:, :1] *= basis.p0
        deriv_weight = np.tensordot(deriv.T, weight, axes=1)  # W'_k, [R, out, in]
        runs = _runs(len(x_rows), prod(x.shape[axis:]))
        dw = np.empty((len(runs),) + weight.shape)
        db = np.empty((len(runs), self.out_dim))
        gx = np.empty(x_rows.shape)

        def run_task(i):
            xs, gs, slope = x_rows[runs[i]], g_rows[runs[i]], gx[runs[i]]
            gs.sum(axis=(0,) + tuple(range(2, gs.ndim)), out=db[i])
            if not degree:  # the bias alone: no input gradient
                slope.fill(0.0)
                return
            work = pool.scratch("task", (degree + 1) * xs.size)
            values = work[:degree * xs.size].reshape((degree,) + xs.shape)
            total = work[degree * xs.size:].reshape(xs.shape)
            basis.eval_terms_with_deriv(xs, out=(values, slope))
            for v, part in zip(values, dw[i]):
                _weight_grad(gs, v, axis, out=part)
            _contract(gs, deriv_weight[0].T, axis, out=total)
            product = values[-1]
            for w, v in zip(deriv_weight[1:], values[:-1]):
                _contract(gs, w.T, axis, out=product)
                product *= v
                total += product
            slope *= total

        pool.map(run_task, range(len(runs)))
        return dw, db, gx.reshape(x.shape)


def _runs(lead: int, width: int) -> list:
    """Slices over `lead` rows of `width` elements, RUN_BLOCKS cache blocks each."""
    step = RUN_BLOCKS * block_rows(width)
    if lead <= step:  # one run: halves, so a small batch is still two tasks
        step = -(-lead // 2)
    return [slice(lo, lo + step) for lo in range(0, lead, step)]
