"""Plain test helpers: repository paths, dataset lookup, synthetic CSVs, cache-block
slices, basis oracles, an out-of-place residual block."""

import os
from math import comb
from pathlib import Path

import numpy as np
import pytest

import hakan.tensor as tt
from hakan.basis import block_rows
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


def row_blocks(rows: int, row_size: int):
    """Slices over `rows` rows of `row_size` elements, one cache block each."""
    step = block_rows(row_size)
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


def residual_oracle(block, x):
    """`HahnKanBlock.forward` with the skip's sum formed out of place, in a new array."""
    h = block.intra.forward(x) if block.intra is not None else x
    h = block.inter.forward(h) if block.inter is not None else h
    return tt.add(h, x)


# basis oracles ----------------------------------------------------------------


def squash(basis, x, slope: bool = False) -> tuple:
    """(s, ds/dx or None): the reals mapped monotonically onto the basis domain by tanh.

    s = lo + (hi - lo) / 2 * (tanh(x) + 1) and ds/dx = (hi - lo) / 2 * (1 - tanh(x)^2).
    The basis folds this map into its recurrence in t = tanh(x); the tests
    keep it to evaluate the textbook polynomials at s.
    """
    lo, hi = basis.domain
    half = (hi - lo) * 0.5
    t = np.tanh(np.asarray(x, dtype=np.float64))
    return lo + half * (t + 1.0), half * (1.0 - t * t) if slope else None


def _basis_variable(basis, s) -> tuple:
    """(t, dt/ds): the domain point s in the basis's own variable t, s = mid + half * t."""
    lo, hi = basis.domain
    half = (hi - lo) * 0.5
    return (np.asarray(s, dtype=np.float64) - (lo + hi) * 0.5) / half, 1.0 / half


def fill(basis, t) -> np.ndarray:
    """`Basis._fill` on t as one block: P_1(t)..P_degree(t), degree-major [degree, *t.shape]."""
    t = np.asarray(t, dtype=np.float64)
    vals = np.empty((basis.degree, t.size))
    basis._fill(t.reshape(-1), vals, np.empty(t.size))
    return vals.reshape((basis.degree,) + t.shape)


def eval_all(basis, x) -> np.ndarray:
    """Recurrence values of every degree at domain points x, P_0 included, stacked along a
    trailing axis.

    x goes to the basis's variable t by the affine map the squash implies,
    with no tanh, and `Basis._fill` runs there, so domain points give the
    textbook values up to rounding.
    """
    t = _basis_variable(basis, x)[0]
    return _with_degree_zero(np.moveaxis(fill(basis, t), 0, -1), basis.p0)


def eval_all_with_deriv(basis, x) -> tuple:
    """Values and x-derivatives of every degree at domain points x, as `eval_all` stacks them.

    The derivatives come from differentiating the recurrence step by step,
    P_r' = (a + b t) P_{r-1}' + b P_{r-1} + c P_{r-2}' with P_1' = p1[1],
    independent of `Basis.derivative_matrix`, then times dt/dx.
    """
    t, dt = _basis_variable(basis, x)
    vals = eval_all(basis, x)
    ders = np.zeros(vals.shape)
    if basis.degree:
        ders[..., 1] = basis.p1[1]
    for r, (a, b, c) in enumerate(basis.steps, start=2):
        ders[..., r] = (a + b * t) * ders[..., r - 1] + b * vals[..., r - 1] + c * ders[..., r - 2]
    return vals, ders * dt


def textbook(kind: str, degree: int, s, a: float = 1.0, b: float = 1.0, n: int = 7
             ) -> np.ndarray:
    """P_0..P_degree of the `kind` family at points s of its domain, stacked along a
    trailing axis, by the family's own recurrence in s.

    Hahn: P_1 = 1 - (a + b + 2) s / ((a + 1) n) and A_r P_r = (A_r + B_r - s) P_{r-1}
    - B_r P_{r-2} with
        A_r = (r + a + b)(r + a)(n - r + 1) / ((2r + a + b - 1)(2r + a + b)),
        B_r = (r - 1)(r + b - 1)(r + a + b + n) / ((2r + a + b - 2)(2r + a + b - 1));
    Chebyshev: P_r = 2s P_{r-1} - P_{r-2}; Lucas: P_0 = 2, P_1 = s and
    P_r = s P_{r-1} + P_{r-2}.  Independent of the coefficients `make_basis`
    stores.
    """
    s = np.asarray(s, dtype=np.float64)
    if kind == "hahn":
        vals = [np.ones(s.shape), 1.0 - (a + b + 2.0) * s / ((a + 1.0) * n)]
    else:
        vals = [np.full(s.shape, 2.0 if kind == "lucas" else 1.0), s]
    for r in range(2, degree + 1):
        if kind == "hahn":
            A = (r + a + b) * (r + a) * (n - r + 1) / ((2 * r + a + b - 1) * (2 * r + a + b))
            B = ((r - 1) * (r + b - 1) * (r + a + b + n)
                 / ((2 * r + a + b - 2) * (2 * r + a + b - 1)))
            vals.append(((A + B - s) * vals[-1] - B * vals[-2]) / A)
        elif kind == "chebyshev":
            vals.append(2.0 * s * vals[-1] - vals[-2])
        else:
            vals.append(s * vals[-1] + vals[-2])
    return np.stack(vals[:degree + 1], axis=-1)


def whole_input_grad(layer, g, x) -> np.ndarray:
    """A KAN layer's input gradient for the output gradient g, by einsum over all of x:
    sum_q g[q] sum_r gamma[q, p, r] P_r'(s(x[p])) s'(x[p]), with the derivatives
    from the recurrence (`eval_all_with_deriv`)."""
    s, slope = squash(layer.basis, x, slope=True)
    ders = eval_all_with_deriv(layer.basis, s)[1][..., 1:] * slope[..., None]
    gamma = layer.gamma.data[:, :, 1:]
    if layer.axis == -1:
        return np.einsum("...q,qpr,...pr->...p", g, gamma, ders)
    return np.einsum("...qj,qpr,...pjr->...pj", g, gamma, ders)


def whole_gamma_grad(layer, g, x, magnitude: bool = False) -> np.ndarray:
    """A KAN layer's coefficient gradient for the output gradient g, with
    each degree's one product over every row of the values of all of x.

    With `magnitude`, the same sums of |g| times |values|: the scale that
    the rounding of each entry's sum is measured against.
    """
    vals = layer.basis.eval_terms(x)
    if magnitude:
        g, vals = np.abs(g), np.abs(vals)
    grad = np.empty(layer.gamma.shape)
    g_sum = g.sum(axis=tuple(i for i in range(g.ndim) if i != g.ndim + layer.axis))
    grad[:, :, 0] = (layer.basis.p0 * g_sum)[:, None]
    for r, v in enumerate(vals, start=1):
        grad[:, :, r] = _weight_grad(g, v, layer.axis)
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
