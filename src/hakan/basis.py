"""Polynomial bases for the learnable activations.

The default basis is the Hahn family on {0, ..., n}; Chebyshev and Lucas
bases are provided for ablations.  All three are one `Basis`, a three-term
recurrence that `make_basis` builds with its coefficients precomputed.
The Hahn closed form that cross-checks the recurrence lives with the
tests, never in the forward pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import prod

import numpy as np

from . import pool
from .errors import BasisParameterError, ConfigError, ContractError

BASIS_KINDS = ("hahn", "chebyshev", "lucas")
# The highest degree a basis is built with.  `make_basis` builds one
# recurrence step per degree and a worker's block scratch holds two cache
# blocks per degree (34 MB at 64), so an unbounded degree is a memory or
# time bomb rather than a model.
MAX_DEGREE = 64


# Elements per cache block (256 KiB of float64).  At degree 3 a values pass
# over a block (input, squash, two scratch arrays, three terms) works in
# 1.75 MiB, inside the 2 MiB L2 per core of the Xeon this was measured on; a
# derivative pass adds the slope and three derivatives, 2.75 MiB, and spills.
# A KAN layer's task is a run of such blocks (`layers.RUN_BLOCKS`).
BLOCK_ELEMENTS = 32_768
_COUNT_LOCK = threading.Lock()  # eval_count is read-modify-write from pool tasks


def block_rows(row_size: int) -> int:
    """Rows of `row_size` elements that make one cache block, at least one."""
    return max(1, BLOCK_ELEMENTS // max(1, row_size))


def row_blocks(rows: int, row_size: int):
    """Slices over `rows` rows of `row_size` elements, one cache block each."""
    step = block_rows(row_size)
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


@dataclass(eq=False)
class Basis:
    """A three-term recurrence, evaluated in cache blocks with an element counter.

    P_0 = p0, P_1(x) = p1[0] + p1[1] x and, for r >= 2,

        P_r(x) = (a_r + b_r x) P_{r-1}(x) + c_r P_{r-2}(x),

    with (a_r, b_r, c_r) = steps[r - 2]; `make_basis` sets `p0`, `p1`,
    `steps` and `domain`, the interval `squash` maps the reals onto.
    `eval_terms` / `eval_terms_with_deriv` take any real x and evaluate
    P_r(s(x)), s = `squash`.  P_0 is a constant, so the layer folds degree
    0 into a bias and they return degrees 1..degree only, stacked in one
    array along a new axis placed at `axis` of the result (as in
    `np.stack`).  They run block by block over the leading axes, squash
    each block in cache and write its terms straight into that array.
    The block scratch belongs to the calling thread (`pool.scratch`), so
    a caller that walks its input block by block allocates nothing here,
    and calls from several pool workers at once never share it.

    `eval_count` tracks how many scalar basis evaluations have been
    performed; layers rely on one evaluation per input element regardless
    of the output width, and tests assert that through this counter.
    """

    degree: int
    domain: tuple
    p1: tuple
    steps: list
    p0: float = 1.0
    eval_count: int = 0

    def squash(self, x, slope: bool = False, out: tuple | None = None) -> tuple:
        """(s, ds/dx or None): the reals mapped monotonically onto `domain` by tanh.

        s = lo + (hi - lo) / 2 * (tanh(x) + 1) and ds/dx = (hi - lo) / 2 * (1 - tanh(x)^2),
        written into the arrays `out` = (s, ds) when given.
        """
        lo, hi = self.domain
        half = (hi - lo) * 0.5
        if out is None:
            x = np.asarray(x, dtype=np.float64)
            out = np.empty(x.shape), np.empty(x.shape) if slope else None
        s, ds = out
        t = np.tanh(x, out=ds if slope else s)  # ds holds tanh(x) until s is made
        np.add(t, 1.0, out=s)
        s *= half
        s += lo
        if not slope:
            return s, None
        np.multiply(t, t, out=ds)
        np.subtract(1.0, ds, out=ds)
        ds *= half
        return s, ds

    def eval_terms(self, x, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
        """P_1(s(x)) .. P_degree(s(x)) of reals x, stacked along `axis` of the result.

        `out` writes into a C-contiguous array of the result's shape.
        """
        return self._stacked(x, axis, (out,))[0]

    def eval_terms_with_deriv(self, x, axis: int = -1, out: tuple | None = None) -> tuple:
        """(values, d/dx) of degrees 1..degree at s(x), each stacked along `axis`.

        The derivative is the chain rule's P_r'(s(x)) * s'(x).  `out` =
        (values, derivatives) writes into C-contiguous arrays of the result's shape.
        """
        return self._stacked(x, axis, out or (None, None))

    def _stacked(self, x, axis: int, out: tuple) -> tuple:
        x = np.asarray(x, dtype=np.float64)
        with _COUNT_LOCK:
            self.eval_count += x.size
        k = axis % (x.ndim + 1)  # the degree axis's position in the result
        lead, trail = prod(x.shape[:k]), prod(x.shape[k:])
        rows = np.ascontiguousarray(x).reshape(lead, trail)
        shape = x.shape[:k] + (self.degree,) + x.shape[k:]
        out = tuple(np.empty(shape) if o is None else o for o in out)
        if any(o.shape != shape or not o.flags.c_contiguous for o in out):
            raise ContractError(f"basis out= needs C-contiguous arrays of shape {shape}")
        stacked = [o.reshape(lead, self.degree, trail) for o in out]
        deriv = len(out) == 2
        # a block is squashed, its terms computed in contiguous [rows, trail]
        # slabs, then copied into their slots of the stacked outputs
        slabs, w, tmp, s, ds = self._block_scratch(trail)
        for blk in row_blocks(lead, trail):
            src = rows[blk]
            m = len(src)
            self.squash(src, slope=deriv, out=(s[:m], ds[:m]))
            terms = slabs[:, :, :m]
            self._fill(s[:m], terms[0], terms[1] if deriv else None, w[:m], tmp[:m])
            if deriv:  # the slope scales every degree's derivative
                terms[1] *= ds[:m]
            for out_rows, slab in zip(stacked, terms):
                out_rows[blk] = slab.swapaxes(0, 1)
        return out

    def _block_scratch(self, trail: int) -> tuple:
        """(slabs [2, degree, rows, trail], w, tmp, s, ds) for a full block of `trail`-wide rows.

        One buffer of the calling thread's scratch.
        """
        rows = block_rows(trail)
        parts = pool.scratch("basis", (2 * self.degree + 4) * rows * trail)
        parts = parts.reshape(2 * self.degree + 4, rows, trail)
        slabs = parts[:2 * self.degree].reshape(2, self.degree, rows, trail)
        return (slabs, *parts[2 * self.degree:])

    def _fill(self, x, vals, ders, w, tmp) -> None:
        """Write P_r(x) (and P_r'(x)) of a block x [rows, trail] into vals[r - 1].

        Each of vals[i], ders[i], `w` and `tmp` is a [rows, trail] array;
        every product lands in one of them, so the block allocates nothing.
        """
        if self.degree < 1:
            return
        c0, c1 = self.p1
        np.multiply(x, c1, out=vals[0])
        vals[0] += c0
        if ders is not None:
            ders[0].fill(c1)
        for i, (a, b, c) in enumerate(self.steps, start=1):  # P_r sits in slot i = r - 1
            np.multiply(x, b, out=w)
            w += a
            np.multiply(w, vals[i - 1], out=vals[i])
            if i > 1:
                np.multiply(vals[i - 2], c, out=tmp)
                vals[i] += tmp
            else:
                vals[i] += c * self.p0
            if ders is not None:
                np.multiply(w, ders[i - 1], out=ders[i])
                np.multiply(vals[i - 1], b, out=tmp)
                ders[i] += tmp
                if i > 1:  # P_0' = 0
                    np.multiply(ders[i - 2], c, out=tmp)
                    ders[i] += tmp


def hahn_coeffs(a: float, b: float, n: int, r: int) -> tuple:
    """(A_r, B_r) of the Hahn recurrence with parameters (a, b, n).

    Normalization: P_0(x) = 1 and P_1(x) = 1 - (a + b + 2) x / ((a + 1) n).
    Higher degrees follow
        A_r P_r(x) = (A_r + B_r - x) P_{r-1}(x) - B_r P_{r-2}(x),
    with
        A_r = (r + a + b)(r + a)(n - r + 1) / ((2r + a + b - 1)(2r + a + b))
        B_r = (r - 1)(r + b - 1)(r + a + b + n) / ((2r + a + b - 2)(2r + a + b - 1))
    B_1 multiplies P_{-1}, which contributes nothing, so B_1 = 0 by
    definition and the r = 1 denominator (which can vanish for a + b = 0)
    is never evaluated.
    """
    factors = [("A", "2r+a+b-1", 2 * r + a + b - 1), ("A", "2r+a+b", 2 * r + a + b)]
    if r > 1:  # B_r's other factor, 2r+a+b-1, is A_r's first
        factors.append(("B", "2r+a+b-2", 2 * r + a + b - 2))
    for coeff, name, factor in factors:
        if factor == 0.0:
            raise BasisParameterError(
                f"{coeff}_{r} denominator factor {name} is zero for (a={a}, b={b})"
            )
    A = (r + a + b) * (r + a) * (n - r + 1) / ((2 * r + a + b - 1) * (2 * r + a + b))
    if r == 1:
        return A, 0.0
    B = (r - 1) * (r + b - 1) * (r + a + b + n) / ((2 * r + a + b - 2) * (2 * r + a + b - 1))
    return A, B


def hahn_steps(a: float, b: float, n: int, degree: int) -> list:
    """The Hahn recurrence run as steps ((A_r + B_r) / A_r, -1 / A_r, -B_r / A_r), r >= 2.

    Raises BasisParameterError for (a, b, n, degree) the recurrence cannot
    run on.
    """
    if a <= -1.0 or b <= -1.0:
        raise BasisParameterError(f"need a > -1 and b > -1, got a={a}, b={b}")
    if n < 1:
        raise BasisParameterError(f"need n >= 1, got n={n}")
    if degree > n:
        raise BasisParameterError(
            f"degree {degree} exceeds n={n}; Hahn polynomials stop at degree n"
        )
    steps = []
    for r in range(1, degree + 1):
        A, B = hahn_coeffs(float(a), float(b), int(n), r)
        if A == 0.0:
            raise BasisParameterError(
                f"A_{r} = 0 for (a={a}, b={b}, n={n}); "
                f"the factor (r + a + b) vanishes and the recurrence cannot divide"
            )
        if r >= 2:
            steps.append(((A + B) / A, -1.0 / A, -B / A))
    return steps


def make_basis(kind: str, degree: int, a: float = 1.0, b: float = 1.0, n: int = 7) -> Basis:
    """The `kind` basis of degrees 0..degree; (a, b, n) parameterize Hahn only."""
    kind = kind.lower()
    if kind not in BASIS_KINDS:
        raise ConfigError(f"unknown basis {kind!r}; choose from {BASIS_KINDS}")
    if not 0 <= degree <= MAX_DEGREE:
        raise BasisParameterError(f"degree must be in [0, {MAX_DEGREE}], got {degree}")
    if kind == "hahn":
        steps = hahn_steps(a, b, n, degree)  # checks (a, b, n) before p1 divides by them
        a, b, n = float(a), float(b), int(n)
        p1 = (1.0, -(a + b + 2.0) / ((a + 1.0) * n))
        return Basis(int(degree), (0.0, float(n)), p1, steps)
    # Chebyshev (first kind): P_r = 2x P_{r-1} - P_{r-2}.
    # Lucas: P_0 = 2, P_1 = x and P_r = x P_{r-1} + P_{r-2}.
    chebyshev = kind == "chebyshev"
    step = (0.0, 2.0, -1.0) if chebyshev else (0.0, 1.0, 1.0)
    return Basis(int(degree), (-1.0, 1.0), (0.0, 1.0), [step] * max(0, degree - 1),
                 p0=1.0 if chebyshev else 2.0)
