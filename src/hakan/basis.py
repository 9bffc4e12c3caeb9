"""Polynomial bases for the learnable activations.

The default basis is the Hahn family on {0, ..., n}; Chebyshev and Lucas
bases are provided for ablations.  All three are one `Basis`, a three-term
recurrence in t = tanh(x) that `make_basis` builds with its coefficients
precomputed, the squash onto each family's domain folded into them.
The Hahn closed form that cross-checks the recurrence lives with the
tests, never in the forward pass.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import ConfigError, ContractError

BASIS_KINDS = ("hahn", "chebyshev", "lucas")
# The highest degree a basis is built with.  `make_basis` builds one
# recurrence step per degree and a KAN layer's task scratch holds a run of
# values per degree (34 MB at 64), so an unbounded degree is a memory or
# time bomb rather than a model.
MAX_DEGREE = 64


# Elements per cache block (256 KiB of float64).  A pass over a block reads
# the input and works in two scratch blocks (t = tanh(x) and one product)
# whatever the degree, and writes each degree's block straight into its slab
# of the caller's array: at degree 3 that is 1.75 MiB with the slope, inside
# the 2 MiB L2 per core of the Xeon this was measured on.
# A KAN layer's task is a run of such blocks (`layers.RUN_BLOCKS`).
BLOCK_ELEMENTS = 32_768
_COUNT_LOCK = threading.Lock()  # eval_count is read-modify-write from pool tasks


def block_rows(row_size: int) -> int:
    """Rows of `row_size` elements that make one cache block, at least one."""
    return max(1, BLOCK_ELEMENTS // max(1, row_size))


@dataclass(eq=False)
class Basis:
    """A three-term recurrence in t = tanh(x), evaluated in cache blocks with an element counter.

    P_0 = p0, P_1(t) = p1[0] + p1[1] t and, for r >= 2,

        P_r(t) = (a_r + b_r t) P_{r-1}(t) + c_r P_{r-2}(t),

    with (a_r, b_r, c_r) = steps[r - 2].  The textbook polynomials live on
    `domain` = (lo, hi) in a variable s; the reals reach it through the
    squash s = lo + (hi - lo) / 2 * (tanh(x) + 1), which is affine in t, so
    `make_basis` rewrites the recurrence in t and no squashed input is ever
    formed.  `eval_terms` / `eval_terms_with_deriv` take any real x and
    evaluate P_r(tanh(x)).  P_0 is a constant, so the layer folds degree 0
    into a bias and they return degrees 1..degree only, degree-major: an
    array [degree, *x.shape] whose slab r - 1 holds P_r.  They run block by
    block over x's elements and write each degree's block straight into its
    slab.  The block scratch belongs to the calling thread (`pool.scratch`),
    so a caller that walks its input allocates nothing here, and calls from
    several pool workers at once never share it.

    Derivatives are never evaluated: each P_r' (in t) is a polynomial of
    degree r - 1, a fixed combination of P_0..P_{r-1}
    (`derivative_matrix`), so a caller that has the values and the slope
    dt/dx = 1 - t^2 has them too.

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

    def eval_terms(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """P_1(tanh(x)) .. P_degree(tanh(x)) of reals x, as [degree, *x.shape].

        `out` writes into a C-contiguous array of the result's shape.
        """
        return self._stacked(x, out)[0]

    def eval_terms_with_deriv(self, x, out: tuple | None = None) -> tuple:
        """(values, slope): `eval_terms` of x and dt/dx = 1 - tanh(x)^2, the slope in x's shape.

        By the chain rule dP_r(tanh(x))/dx = P_r'(t) dt/dx, and P_r' is
        sum_k D[r, k] P_k with D = `derivative_matrix()`.  `out` = (values,
        slope) writes into C-contiguous arrays of the results' shapes.
        """
        values, slope = out or (None, None)
        x = np.asarray(x, dtype=np.float64)
        return self._stacked(x, values, np.empty(x.shape) if slope is None else slope)

    def derivative_matrix(self) -> np.ndarray:
        """D [degree + 1, degree + 1], strictly lower triangular: P_r' = sum_{k<r} D[r, k] P_k.

        The derivative is in t.  Built from the recurrence itself, with no
        monomials.  Differentiating a step gives P_r' = b P_{r-1} + a P_{r-1}'
        + b t P_{r-1}' + c P_{r-2}', and t P_k goes back into the basis through
        the step that makes P_{k+1}: t P_k = (P_{k+1} - a P_k - c P_{k-1}) / b,
        with t P_0 from p1.
        """
        c0, c1 = self.p1
        d = np.zeros((self.degree + 1, self.degree + 1))
        # times_t[k] = t P_k as coefficients of P_0..P_degree, for k < degree
        times_t = np.zeros(d.shape)
        if self.degree:
            d[1, 0] = c1 / self.p0
            times_t[0, :2] = -c0 / c1, self.p0 / c1
        for k, (a, b, c) in enumerate(self.steps, start=1):
            times_t[k, k - 1:k + 2] = -c / b, -a / b, 1.0 / b
        for r, (a, b, c) in enumerate(self.steps, start=2):
            d[r] = a * d[r - 1] + b * (d[r - 1] @ times_t) + c * d[r - 2]
            d[r, r - 1] += b
        return d

    def _stacked(self, x, out: np.ndarray | None, slope: np.ndarray | None = None) -> tuple:
        """(values, slope) of x, the slope only when an array for it is given."""
        x = np.asarray(x, dtype=np.float64)
        with _COUNT_LOCK:
            self.eval_count += x.size
        shape = (self.degree,) + x.shape
        out = np.empty(shape) if out is None else out
        for o, want in ((out, shape), (slope, x.shape)):
            if o is not None and (o.shape != want or not o.flags.c_contiguous):
                raise ContractError(f"basis out= needs a C-contiguous array of shape {want}")
        flat = np.ascontiguousarray(x).reshape(-1)
        slabs = out.reshape(self.degree, flat.size)
        slopes = None if slope is None else slope.reshape(-1)
        t, w = pool.scratch("basis", 2 * BLOCK_ELEMENTS).reshape(2, -1)
        for lo in range(0, flat.size, BLOCK_ELEMENTS):
            blk = slice(lo, lo + BLOCK_ELEMENTS)
            m = len(flat[blk])
            np.tanh(flat[blk], out=t[:m])
            if slopes is not None:  # dt/dx = 1 - t^2
                np.multiply(t[:m], t[:m], out=slopes[blk])
                np.subtract(1.0, slopes[blk], out=slopes[blk])
            self._fill(t[:m], slabs[:, blk], w[:m])
        return out, slope

    def _fill(self, t, vals, w) -> None:
        """Write P_r(t) of a block t into vals[r - 1].

        Each of vals[i] and `w` is an array of t's shape; every product
        lands in one of them, so the block allocates nothing.  P_r's slab
        takes c P_{r-2} first and then (a + b t) P_{r-1} from `w`.
        """
        if self.degree < 1:
            return
        c0, c1 = self.p1
        np.multiply(t, c1, out=vals[0])
        vals[0] += c0
        for i, (a, b, c) in enumerate(self.steps, start=1):  # P_r sits in slot i = r - 1
            np.multiply(vals[i - 2] if i > 1 else self.p0, c, out=vals[i])
            np.multiply(t, b, out=w)
            w += a
            w *= vals[i - 1]
            vals[i] += w


def hahn_steps(a: float, b: float, n: int, degree: int) -> list:
    """The Hahn recurrence with parameters (a, b, n), run in t as steps r >= 2.

    Normalization: P_0(s) = 1 and P_1(s) = 1 - (a + b + 2) s / ((a + 1) n).
    Higher degrees follow
        A_r P_r(s) = (A_r + B_r - s) P_{r-1}(s) - B_r P_{r-2}(s),
    with
        A_r = (r + a + b)(r + a)(n - r + 1) / ((2r + a + b - 1)(2r + a + b))
        B_r = (r - 1)(r + b - 1)(r + a + b + n) / ((2r + a + b - 2)(2r + a + b - 1)),
    so at s = n (1 + t) / 2 a step is ((A_r + B_r - n / 2) / A_r, -n / (2 A_r), -B_r / A_r).

    For a, b > -1 only r = 1 has factors that can vanish: a + b = -1 zeroes
    2r + a + b - 1 and r + a + b.  A_1 enters no step (P_1 has its closed
    form), so r = 1 is only checked.  Every other factor is positive, but
    float64 can round 2r + a + b - 2 to 0 at r = 2 (a and b within an ulp
    of -1) or overflow a product, so the steps are numpy float64, where
    that gives 0, inf or nan, and `make_basis` refuses them.
    """
    if a <= -1.0 or b <= -1.0:
        raise ConfigError(f"need a > -1 and b > -1, got a={a}, b={b}")
    if n < 1:
        raise ConfigError(f"need n >= 1, got n={n}")
    if degree > n:
        raise ConfigError(
            f"degree {degree} exceeds n={n}; Hahn polynomials stop at degree n"
        )
    if n > sys.float_info.max:
        raise _overflow(a, b, n)
    a, b, half = np.float64(a), np.float64(b), n / 2.0
    steps = []
    with np.errstate(all="ignore"):
        for r in range(1, degree + 1):
            A = (r + a + b) * (r + a) * (n - r + 1) / ((2 * r + a + b - 1) * (2 * r + a + b))
            B = ((r - 1) * (r + b - 1) * (r + a + b + n)
                 / ((2 * r + a + b - 2) * (2 * r + a + b - 1)))
            if r > 1:
                steps.append(((A + B - half) / A, -half / A, -B / A))
            elif 2 * r + a + b - 1 == 0.0:
                raise ConfigError(
                    f"A_1 denominator factor 2r+a+b-1 is zero for (a={a}, b={b})")
            elif A == 0.0:  # r + a + b vanishes, or the denominator overflowed
                raise _overflow(a, b, n) if r + a + b else ConfigError(
                    f"A_1 = 0 for (a={a}, b={b}, n={n}); the factor (r + a + b) vanishes")
    return steps


def _overflow(a, b, n) -> ConfigError:
    return ConfigError(
        f"the Hahn recurrence overflows float64 for (a={float(a)}, b={float(b)}, n={n})")


def make_basis(kind: str, degree: int, a: float = 1.0, b: float = 1.0, n: int = 7) -> Basis:
    """The `kind` basis of degrees 0..degree in t = tanh(x); (a, b, n) parameterize Hahn only."""
    kind = kind.lower()
    if kind not in BASIS_KINDS:
        raise ConfigError(f"unknown basis {kind!r}; choose from {BASIS_KINDS}")
    if not 0 <= degree <= MAX_DEGREE:
        raise ConfigError(f"degree must be in [0, {MAX_DEGREE}], got {degree}")
    if kind == "hahn":
        steps = hahn_steps(a, b, n, degree)  # checks (a, b, n) before p1 divides by them
        # P_1(s) = 1 - (a + b + 2) s / ((a + 1) n) at s = n (1 + t) / 2
        slope = -(float(a) + float(b) + 2.0) / (2.0 * (float(a) + 1.0))
        p1 = (1.0 + slope, slope)
        # `_fill` needs finite coefficients, and `derivative_matrix` divides
        # by c1 and every b_r (column 1).  Chebyshev's and Lucas's are constants
        coeffs = np.array([(*p1, 0.0), *steps])
        if degree and not (np.isfinite(coeffs).all() and coeffs[:, 1].all()):
            raise _overflow(a, b, n)
        return Basis(int(degree), (0.0, float(n)), p1, steps)
    # Both live on (-1, 1), where s = t.  Chebyshev (first kind):
    # P_r = 2t P_{r-1} - P_{r-2}.  Lucas: P_0 = 2, P_1 = t and P_r = t P_{r-1} + P_{r-2}.
    chebyshev = kind == "chebyshev"
    step = (0.0, 2.0, -1.0) if chebyshev else (0.0, 1.0, 1.0)
    return Basis(int(degree), (-1.0, 1.0), (0.0, 1.0), [step] * max(0, degree - 1),
                 p0=1.0 if chebyshev else 2.0)
