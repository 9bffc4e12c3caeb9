"""Plain test helpers: repository paths, dataset lookup, synthetic CSVs, basis oracles."""

import os
from math import comb
from pathlib import Path

import numpy as np
import pytest

from hakan.errors import BasisParameterError
from hakan.layers import _weight_grad

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

    `Basis._fill` runs on x as one row, with no squash, so domain points
    give the textbook values.
    """
    x = np.asarray(x, dtype=np.float64)
    row = x.reshape(1, -1)
    vals = np.empty((basis.degree,) + row.shape)
    w, tmp = np.empty((2,) + row.shape)
    basis._fill(row, vals, w, tmp)
    return _with_degree_zero(np.moveaxis(vals, 0, -1).reshape(x.shape + (basis.degree,)),
                             basis.p0)


def eval_all_with_deriv(basis, x) -> tuple:
    """Values and x-derivatives of every degree at x, as `eval_all` stacks them.

    The derivatives come from differentiating the recurrence step by step,
    P_r' = (a + b x) P_{r-1}' + b P_{r-1} + c P_{r-2}' with P_1' = p1[1],
    independent of `Basis.derivative_matrix`.
    """
    x = np.asarray(x, dtype=np.float64)
    vals = eval_all(basis, x)
    ders = np.zeros(vals.shape)
    if basis.degree:
        ders[..., 1] = basis.p1[1]
    for r, (a, b, c) in enumerate(basis.steps, start=2):
        ders[..., r] = (a + b * x) * ders[..., r - 1] + b * vals[..., r - 1] + c * ders[..., r - 2]
    return vals, ders


def whole_input_grad(layer, g, x) -> np.ndarray:
    """A KAN layer's input gradient for the output gradient g, by einsum over all of x:
    sum_q g[q] sum_r gamma[q, p, r] P_r'(s(x[p])) s'(x[p]), with the derivatives
    from the recurrence (`eval_all_with_deriv`)."""
    s, slope = layer.basis.squash(x, slope=True)
    ders = eval_all_with_deriv(layer.basis, s)[1][..., 1:] * slope[..., None]
    gamma = layer.gamma.data[:, :, 1:]
    if layer.axis == -1:
        return np.einsum("...q,qpr,...pr->...p", g, gamma, ders)
    return np.einsum("...qj,qpr,...pjr->...pj", g, gamma, ders)


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
