"""Polynomial bases for the learnable activations.

The default basis is the Hahn family on {0, ..., n}, evaluated through its
three-term recurrence with coefficients precomputed at construction.
Chebyshev and Lucas bases are provided for ablations.  A terminating
hypergeometric sum gives an independent closed form for the Hahn values;
it is used by tests only, never in the forward pass.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import BasisParameterError, ConfigError

BASIS_KINDS = ("hahn", "chebyshev", "lucas")


# Elements per cache block.  A block of the input, its two scratch arrays
# and the terms it writes (256 KiB each at this size) stay in a 4 MiB L2
# while the recurrence runs, so each element crosses main memory once in
# and once per term out.
BLOCK_ELEMENTS = 32_768


def block_rows(row_size: int) -> int:
    """Rows of `row_size` elements that make one cache block, at least one."""
    return max(1, BLOCK_ELEMENTS // max(1, row_size))


def row_blocks(rows: int, row_size: int):
    """Slices over `rows` rows of `row_size` elements, one cache block each."""
    step = block_rows(row_size)
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


class Basis:
    """Shared plumbing: the recurrence, cache blocking and an element counter.

    Every basis here is P_0 = p0, P_1(x) = p1[0] + p1[1] x and, for r >= 2,

        P_r(x) = (a_r + b_r x) P_{r-1}(x) + c_r P_{r-2}(x),

    with (a_r, b_r, c_r) = steps[r - 2]; subclasses set `p0`, `p1` and
    `steps`.  P_0 is a constant, so the layer folds degree 0 into a bias and
    `eval_terms` / `eval_terms_with_deriv` return degrees 1..degree only,
    stacked in one array along a new axis placed at `axis` of the result
    (as in `np.stack`).  They run block by block over the leading axes and
    write each block's terms straight into that array.  `eval_all` adds P_0
    and stacks every degree along a trailing axis.

    `eval_count` tracks how many scalar basis evaluations have been
    performed; layers rely on one evaluation per input element regardless
    of the output width, and tests assert that through this counter.
    """

    degree: int
    domain: tuple
    p0 = 1.0
    p1 = (0.0, 1.0)
    steps: list

    def __init__(self, degree: int):
        if degree < 0:
            raise BasisParameterError(f"degree must be >= 0, got {degree}")
        self.degree = int(degree)
        self.eval_count = 0

    @property
    def size(self) -> int:
        return self.degree + 1

    def eval_terms(self, x, axis: int = -1) -> np.ndarray:
        """P_1(x) .. P_degree(x), stacked along `axis` of the result."""
        return self._stacked(x, axis, deriv=False)[0]

    def eval_terms_with_deriv(self, x, axis: int = -1) -> tuple:
        """(values, first derivatives) of degrees 1..degree, each stacked along `axis`."""
        return self._stacked(x, axis, deriv=True)

    def _stacked(self, x, axis: int, deriv: bool) -> tuple:
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        k = axis % (x.ndim + 1)  # the degree axis's position in the result
        lead, trail = prod(x.shape[:k]), prod(x.shape[k:])
        rows = np.ascontiguousarray(x).reshape(lead, trail)
        outs = [np.empty((lead, self.degree, trail)) for _ in range(1 + deriv)]
        # a block's terms are computed in contiguous [rows, trail] slabs, then
        # copied into their slots of the stacked outputs
        height = min(lead, block_rows(trail))
        slabs = np.empty((len(outs), self.degree, height, trail))
        w, tmp = np.empty((2, height, trail))
        for blk in row_blocks(lead, trail):
            xb = rows[blk]
            m = len(xb)
            terms = slabs[:, :, :m]
            self._fill(xb, terms[0], terms[1] if deriv else None, w[:m], tmp[:m])
            for out, slab in zip(outs, terms):
                out[blk] = slab.swapaxes(0, 1)
        shape = x.shape[:k] + (self.degree,) + x.shape[k:]
        return tuple(out.reshape(shape) for out in outs)

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

    def _count(self, x: np.ndarray) -> None:
        self.eval_count += x.size

    def eval_all(self, x):
        """Values of every degree, P_0 included, stacked along a trailing axis."""
        x = np.asarray(x, dtype=np.float64)
        return _with_degree_zero(self.eval_terms(x), self.p0)

    def eval_all_with_deriv(self, x):
        """Values and first derivatives of every degree, stacked along a trailing axis."""
        vals, ders = self.eval_terms_with_deriv(np.asarray(x, dtype=np.float64))
        return _with_degree_zero(vals, self.p0), _with_degree_zero(ders, 0.0)


def _with_degree_zero(terms: np.ndarray, value: float) -> np.ndarray:
    return np.concatenate([np.full(terms.shape[:-1] + (1,), value), terms], axis=-1)


class HahnBasis(Basis):
    """Hahn polynomials P_0 .. P_degree with parameters (a, b, n).

    Normalization: P_0(x) = 1 and P_1(x) = 1 - (a + b + 2) x / ((a + 1) n).
    Higher degrees follow
        A_r P_r(x) = (A_r + B_r - x) P_{r-1}(x) - B_r P_{r-2}(x),
    run as the step ((A_r + B_r) / A_r, -1 / A_r, -B_r / A_r), with
        A_r = (r + a + b)(r + a)(n - r + 1) / ((2r + a + b - 1)(2r + a + b))
        B_r = (r - 1)(r + b - 1)(r + a + b + n) / ((2r + a + b - 2)(2r + a + b - 1))
    B_1 multiplies P_{-1}, which contributes nothing, so B_1 = 0 by
    definition and the r = 1 denominator (which can vanish for a + b = 0)
    is never evaluated.
    """

    def __init__(self, a: float = 1.0, b: float = 1.0, n: int = 7, degree: int = 3):
        super().__init__(degree)
        if a <= -1.0 or b <= -1.0:
            raise BasisParameterError(f"need a > -1 and b > -1, got a={a}, b={b}")
        if n < 1:
            raise BasisParameterError(f"need n >= 1, got n={n}")
        if degree > n:
            raise BasisParameterError(
                f"degree {degree} exceeds n={n}; Hahn polynomials stop at degree n"
            )
        self.a = float(a)
        self.b = float(b)
        self.n = int(n)
        self.domain = (0.0, float(n))
        self.p1 = (1.0, -(self.a + self.b + 2.0) / ((self.a + 1.0) * self.n))
        self.steps = []
        for r in range(1, degree + 1):
            A, B = self.recurrence_coeffs(r)
            if A == 0.0:
                raise BasisParameterError(
                    f"A_{r} = 0 for (a={a}, b={b}, n={n}); "
                    f"the factor (r + a + b) vanishes and the recurrence cannot divide"
                )
            if r >= 2:
                self.steps.append(((A + B) / A, -1.0 / A, -B / A))

    def recurrence_coeffs(self, r: int) -> tuple:
        if not 1 <= r <= self.degree:
            raise BasisParameterError(f"r={r} outside [1, {self.degree}]")
        a, b, n = self.a, self.b, self.n
        for name, factor in (
            ("2r+a+b-1", 2 * r + a + b - 1),
            ("2r+a+b", 2 * r + a + b),
        ):
            if factor == 0.0:
                raise BasisParameterError(
                    f"A_{r} denominator factor {name} is zero for (a={a}, b={b})"
                )
        A = (r + a + b) * (r + a) * (n - r + 1) / ((2 * r + a + b - 1) * (2 * r + a + b))
        if r == 1:
            return A, 0.0
        for name, factor in (
            ("2r+a+b-2", 2 * r + a + b - 2),
            ("2r+a+b-1", 2 * r + a + b - 1),
        ):
            if factor == 0.0:
                raise BasisParameterError(
                    f"B_{r} denominator factor {name} is zero for (a={a}, b={b})"
                )
        B = (r - 1) * (r + b - 1) * (r + a + b + n) / ((2 * r + a + b - 2) * (2 * r + a + b - 1))
        return A, B

    def closed_form(self, r: int, x: float) -> float:
        """Degree-r value as a terminating hypergeometric sum.

        sum_{k=0}^{r} (-r)_k (r+a+b+1)_k (-x)_k / ((a+1)_k (-n)_k k!),
        accumulated term by term in float64.  Independent of the recurrence;
        test-only cross-check.
        """
        if r > self.n:
            raise BasisParameterError(f"degree r={r} exceeds n={self.n}")
        a, b, n = self.a, self.b, self.n
        total = 1.0
        term = 1.0
        for k in range(r):
            term *= (-r + k) * (r + a + b + 1 + k) * (-x + k)
            term /= (a + 1 + k) * (-n + k) * (k + 1)
            total += term
        return total

    def orthogonality_weight(self, x: int) -> float:
        """Counting-measure weight C(a+x, x) * C(b+n-x, n-x) on integer x."""
        from math import comb

        a, b, n = self.a, self.b, self.n
        if a == int(a) and b == int(b):
            return float(comb(int(a) + x, x) * comb(int(b) + n - x, n - x))
        raise BasisParameterError("weight implemented for integer a, b only")


class ChebyshevBasis(Basis):
    """First-kind Chebyshev polynomials on [-1, 1]: P_r = 2x P_{r-1} - P_{r-2}."""

    domain = (-1.0, 1.0)

    def __init__(self, degree: int):
        super().__init__(degree)
        self.steps = [(0.0, 2.0, -1.0)] * max(0, degree - 1)


class LucasBasis(Basis):
    """Lucas polynomials, squashed onto [-1, 1] at the layer level.

    P_0 = 2, P_1 = x and P_r = x P_{r-1} + P_{r-2}.
    """

    domain = (-1.0, 1.0)
    p0 = 2.0

    def __init__(self, degree: int):
        super().__init__(degree)
        self.steps = [(0.0, 1.0, 1.0)] * max(0, degree - 1)


def make_basis(kind: str, degree: int, a: float = 1.0, b: float = 1.0, n: int = 7) -> Basis:
    kind = kind.lower()
    if kind == "hahn":
        return HahnBasis(a=a, b=b, n=n, degree=degree)
    if kind == "chebyshev":
        return ChebyshevBasis(degree)
    if kind == "lucas":
        return LucasBasis(degree)
    raise ConfigError(f"unknown basis {kind!r}; choose from {BASIS_KINDS}")
