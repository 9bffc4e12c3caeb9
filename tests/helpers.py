"""Plain test helpers: repository paths, dataset lookup, synthetic CSVs, basis oracles."""

import os
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest

from hakan.basis import row_blocks
from hakan.errors import BasisParameterError
from hakan.layers import _contract, _rows, _weight_grad

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = Path(os.environ.get("HAKAN_DATA", REPO_ROOT / "data"))


def require_dataset(filename: str) -> Path:
    path = DATA_DIR / filename
    if not path.exists():
        pytest.skip(
            f"benchmark file {filename} not present; place it under {DATA_DIR} "
            f"(or set HAKAN_DATA) to run this reproduction"
        )
    return path


def write_synthetic_csv(path: Path, rows: int, channels: int, seed: int = 0) -> Path:
    """A small sinusoid-plus-noise multivariate CSV in the expected layout."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows)
    cols = []
    for c in range(channels):
        period = 12 + 5 * c
        cols.append(np.sin(2 * np.pi * t / period) + 0.05 * rng.normal(size=rows) + c)
    values = np.stack(cols, axis=1)
    lines = ["date," + ",".join(f"f{c}" for c in range(channels))]
    for i in range(rows):
        stamp = f"2020-01-01 {i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d}"
        lines.append(stamp + "," + ",".join(f"{v:.6f}" for v in values[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# basis oracles ----------------------------------------------------------------


def eval_all(basis, x) -> np.ndarray:
    """Recurrence values of every degree at x, P_0 included, stacked along a trailing axis.

    x is taken as is, with no squash, so domain points give the textbook values.
    """
    return _raw_terms(basis, x, deriv=False)[0]


def eval_all_with_deriv(basis, x) -> tuple:
    """Recurrence values and x-derivatives of every degree at x, as `eval_all` stacks them."""
    return _raw_terms(basis, x, deriv=True)


def _raw_terms(basis, x, deriv: bool) -> tuple:
    """`Basis._fill` run on x as one row, so the recurrence sees x unsquashed."""
    x = np.asarray(x, dtype=np.float64)
    row = x.reshape(1, -1)
    terms = np.empty((1 + deriv, basis.degree) + row.shape)
    w, tmp = np.empty((2,) + row.shape)
    basis._fill(row, terms[0], terms[1] if deriv else None, w, tmp)
    shape = x.shape + (basis.degree,)
    return tuple(_with_degree_zero(np.moveaxis(a, 0, -1).reshape(shape), p0)
                 for a, p0 in zip(terms, (basis.p0, 0.0)))


def whole_input_grad(layer, g, x) -> np.ndarray:
    """A KAN layer's input gradient for the output gradient g, from one
    `eval_terms_with_deriv` over all of x and the products taken per block.

    This is the layer's backward from when its forward stored the
    derivatives; the blocked recompute must match it bit for bit.
    """
    axis, degree = layer.axis, layer.basis.degree
    _, ders = layer.basis.eval_terms_with_deriv(x, axis=axis - 1)
    weight = layer.gamma.data[:, :, 1:].transpose(0, 2, 1).reshape(layer.out_dim, -1)
    lead, trail = prod(x.shape[:axis]), prod(x.shape[axis:][1:])
    rows = _rows(g, -axis)
    ders = ders.reshape(lead, degree, layer.in_dim, trail)
    gx = np.empty((lead, layer.in_dim, trail))
    for blk in row_blocks(lead, layer.in_dim * trail):
        terms = _contract(rows[blk], weight.T, axis).reshape(ders[blk].shape)
        terms *= ders[blk]
        np.sum(terms, axis=1, out=gx[blk])
    return gx.reshape(x.shape)


def whole_gamma_grad(layer, g, x) -> np.ndarray:
    """A KAN layer's coefficient gradient for the output gradient g, with
    degrees 1..R as one product over every row of the values of all of x."""
    axis, degree = layer.axis, layer.basis.degree
    vals = layer.basis.eval_terms(x, axis=axis - 1)
    stacked = vals.reshape(x.shape[:axis] + (-1,) + x.shape[axis:][1:])
    grad = np.empty(layer.gamma.shape)
    g_sum = g.sum(axis=tuple(i for i in range(g.ndim) if i != g.ndim + axis))
    grad[:, :, 0] = (layer.basis.p0 * g_sum)[:, None]
    grad[:, :, 1:] = _weight_grad(g, stacked, axis).reshape(
        layer.out_dim, degree, layer.in_dim).transpose(0, 2, 1)
    return grad


def _with_degree_zero(terms: np.ndarray, value: float) -> np.ndarray:
    return np.concatenate([np.full(terms.shape[:-1] + (1,), value), terms], axis=-1)


def closed_form(a: float, b: float, n: int, r: int, x: float) -> float:
    """Degree-r Hahn value as a terminating hypergeometric sum.

    sum_{k=0}^{r} (-r)_k (r+a+b+1)_k (-x)_k / ((a+1)_k (-n)_k k!),
    accumulated term by term in float64, independent of the recurrence.
    """
    if r > n:
        raise BasisParameterError(f"degree r={r} exceeds n={n}")
    total = 1.0
    term = 1.0
    for k in range(r):
        term *= (-r + k) * (r + a + b + 1 + k) * (-x + k)
        term /= (a + 1 + k) * (-n + k) * (k + 1)
        total += term
    return total


def orthogonality_weight(a: int, b: int, n: int, x: int) -> float:
    """Hahn counting-measure weight C(a+x, x) * C(b+n-x, n-x) on integer x, integer a and b."""
    return float(comb(a + x, x) * comb(b + n - x, n - x))
