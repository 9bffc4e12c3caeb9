"""Polynomial bases for the learnable activations.

The default basis is the Hahn family on {0, ..., n}, evaluated through its
three-term recurrence with coefficients precomputed at construction.
Chebyshev and Lucas bases are provided for ablations.  A terminating
hypergeometric sum gives an independent closed form for the Hahn values;
it is used by tests only, never in the forward pass.
"""

from __future__ import annotations

import numpy as np

from .errors import BasisParameterError, ConfigError

BASIS_KINDS = ("hahn", "chebyshev", "lucas")


class Basis:
    """Shared plumbing: degree bookkeeping and an element-evaluation counter.

    Subclasses implement `eval_terms` / `eval_terms_with_deriv`, which
    return one contiguous array per degree; that list form is what the
    layer hot path consumes.  `eval_all` stacks the terms along a trailing
    axis for callers that want one array.

    `eval_count` tracks how many scalar basis evaluations have been
    performed; layers rely on one evaluation per input element regardless
    of the output width, and tests assert that through this counter.
    """

    degree: int
    domain: tuple

    def __init__(self, degree: int):
        if degree < 0:
            raise BasisParameterError(f"degree must be >= 0, got {degree}")
        self.degree = int(degree)
        self.eval_count = 0

    @property
    def size(self) -> int:
        return self.degree + 1

    def _count(self, x: np.ndarray) -> None:
        self.eval_count += x.size

    def eval_terms(self, x) -> list:
        raise NotImplementedError

    def eval_terms_with_deriv(self, x) -> tuple:
        raise NotImplementedError

    def eval_all(self, x):
        """Values of every degree, stacked along a trailing axis."""
        return np.stack(self.eval_terms(x), axis=-1)

    def eval_all_with_deriv(self, x):
        """Values and first derivatives, stacked along a trailing axis."""
        vals, ders = self.eval_terms_with_deriv(x)
        return np.stack(vals, axis=-1), np.stack(ders, axis=-1)


class HahnBasis(Basis):
    """Hahn polynomials P_0 .. P_degree with parameters (a, b, n).

    Normalization: P_0(x) = 1 and P_1(x) = 1 - (a + b + 2) x / ((a + 1) n).
    Higher degrees follow
        A_r P_r(x) = (A_r + B_r - x) P_{r-1}(x) - B_r P_{r-2}(x)
    with
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
        self._A = np.zeros(degree + 1)
        self._B = np.zeros(degree + 1)
        for r in range(1, degree + 1):
            self._A[r], self._B[r] = self.recurrence_coeffs(r)
            if self._A[r] == 0.0:
                raise BasisParameterError(
                    f"A_{r} = 0 for (a={a}, b={b}, n={n}); "
                    f"the factor (r + a + b) vanishes and the recurrence cannot divide"
                )

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

    def eval_terms(self, x) -> list:
        """[P_0(x), ..., P_degree(x)], one contiguous array per degree."""
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        vals = [np.ones_like(x)]
        if self.degree >= 1:
            vals.append(1.0 - (self.a + self.b + 2.0) * x / ((self.a + 1.0) * self.n))
        for r in range(2, self.degree + 1):
            A, B = self._A[r], self._B[r]
            vals.append(((A + B - x) * vals[r - 1] - B * vals[r - 2]) / A)
        return vals

    def eval_terms_with_deriv(self, x) -> tuple:
        """Values and first derivatives, from the differentiated recurrence."""
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        vals = [np.ones_like(x)]
        ders = [np.zeros_like(x)]
        if self.degree >= 1:
            slope = -(self.a + self.b + 2.0) / ((self.a + 1.0) * self.n)
            vals.append(1.0 + slope * x)
            ders.append(np.full_like(x, slope))
        for r in range(2, self.degree + 1):
            A, B = self._A[r], self._B[r]
            w = A + B - x
            vals.append((w * vals[r - 1] - B * vals[r - 2]) / A)
            ders.append((w * ders[r - 1] - vals[r - 1] - B * ders[r - 2]) / A)
        return vals, ders

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
    """First-kind Chebyshev polynomials on [-1, 1]."""

    domain = (-1.0, 1.0)

    def eval_terms(self, x) -> list:
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        vals = [np.ones_like(x)]
        if self.degree >= 1:
            vals.append(x + 0.0)
        for r in range(2, self.degree + 1):
            vals.append(2.0 * x * vals[r - 1] - vals[r - 2])
        return vals

    def eval_terms_with_deriv(self, x) -> tuple:
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        vals = [np.ones_like(x)]
        ders = [np.zeros_like(x)]
        if self.degree >= 1:
            vals.append(x + 0.0)
            ders.append(np.ones_like(x))
        for r in range(2, self.degree + 1):
            vals.append(2.0 * x * vals[r - 1] - vals[r - 2])
            ders.append(2.0 * vals[r - 1] + 2.0 * x * ders[r - 1] - ders[r - 2])
        return vals, ders


class LucasBasis(Basis):
    """Lucas polynomials, squashed onto [-1, 1] at the layer level."""

    domain = (-1.0, 1.0)

    def eval_terms(self, x) -> list:
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        vals = [np.full_like(x, 2.0)]
        if self.degree >= 1:
            vals.append(x + 0.0)
        for r in range(2, self.degree + 1):
            vals.append(x * vals[r - 1] + vals[r - 2])
        return vals

    def eval_terms_with_deriv(self, x) -> tuple:
        x = np.asarray(x, dtype=np.float64)
        self._count(x)
        vals = [np.full_like(x, 2.0)]
        ders = [np.zeros_like(x)]
        if self.degree >= 1:
            vals.append(x + 0.0)
            ders.append(np.ones_like(x))
        for r in range(2, self.degree + 1):
            vals.append(x * vals[r - 1] + vals[r - 2])
            ders.append(vals[r - 1] + x * ders[r - 1] + ders[r - 2])
        return vals, ders


def make_basis(kind: str, degree: int, a: float = 1.0, b: float = 1.0, n: int = 7) -> Basis:
    kind = kind.lower()
    if kind == "hahn":
        return HahnBasis(a=a, b=b, n=n, degree=degree)
    if kind == "chebyshev":
        return ChebyshevBasis(degree)
    if kind == "lucas":
        return LucasBasis(degree)
    raise ConfigError(f"unknown basis {kind!r}; choose from {BASIS_KINDS}")
