from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hakan.basis import MAX_DEGREE, hahn_steps, make_basis
from hakan.errors import BasisParameterError, ConfigError, ContractError

from helpers import (closed_form, eval_all, eval_all_with_deriv, fill, orthogonality_weight,
                     squash, textbook)


def rational_coeffs(r: int, a, b, n) -> tuple:
    """Recurrence coefficients re-derived in exact rational arithmetic."""
    r, a, b, n = Fraction(r), Fraction(a), Fraction(b), Fraction(n)
    A = (r + a + b) * (r + a) * (n - r + 1) / ((2 * r + a + b - 1) * (2 * r + a + b))
    B = (r - 1) * (r + b - 1) * (r + a + b + n) / ((2 * r + a + b - 2) * (2 * r + a + b - 1))
    return A, B


def exact_steps(degree: int, a, b, n) -> list:
    """The t-domain steps r = 2..degree of `rational_coeffs`, carried exactly into t."""
    half = Fraction(n, 2)
    return [((A + B - half) / A, -half / A, -B / A)
            for A, B in (rational_coeffs(r, a, b, n) for r in range(2, degree + 1))]


class TestRecurrenceCoeffs:
    def test_hand_values(self):
        A, B = rational_coeffs(2, 1, 1, 7)
        assert (A, B) == (Fraction(12, 5), Fraction(11, 10))  # A_2 = 2.4, B_2 = 1.1
        assert hahn_steps(1.0, 1.0, 7, 2) == [
            pytest.approx((0.0, -3.5 / 2.4, -1.1 / 2.4), rel=1e-14, abs=1e-15)]

    def test_b1_is_zero(self):
        # B_1 multiplies P_{-1}: degree 1 is P_1's closed form, and steps start at r = 2
        assert hahn_steps(1.0, 1.0, 7, 1) == []
        assert len(hahn_steps(1.0, 1.0, 7, 5)) == 4

    def test_against_rational_arithmetic(self):
        # each step to 1e-14 of its largest coefficient: a_r is 0 for a = b
        for a, b, n in ((1, 1, 7), (2, Fraction(1, 2), 10)):
            steps = hahn_steps(float(a), float(b), n, 5)
            for step, exact in zip(steps, exact_steps(5, a, b, n), strict=True):
                scale = float(max(abs(c) for c in exact))
                assert step == pytest.approx([float(c) for c in exact], rel=1e-14,
                                             abs=1e-14 * scale)

    def test_degenerate_parameters_rejected(self):
        # a + b = -1 zeroes both A_1's leading factor and its denominator;
        # for the second a, only the factor r + a + b rounds to 0
        with pytest.raises(BasisParameterError, match=r"factor 2r\+a\+b-1 is zero"):
            make_basis("hahn", 1, -0.25, -0.75, 7)
        a = -0.3805271682057597
        with pytest.raises(BasisParameterError, match=r"the factor \(r \+ a \+ b\) vanishes"):
            make_basis("hahn", 1, a, -(1 + a), 7)

    @pytest.mark.parametrize("degree, a, b, n", [
        (3, 1.0, 1.0, 10**400),  # n past float64
        (1, 1e308, 1.0, 7),  # c1 = -0.0, which derivative_matrix divides by
        (3, 1e308, 1.0, 7),  # inf / inf steps
        (3, 1.0, 1e200, 7),  # A_1's denominator overflows
        (1, 1.0, 1e200, 7),
        (2, np.nextafter(-1.0, 0.0), np.nextafter(-1.0, 0.0), 7),  # 2r+a+b-2 rounds to 0
    ], ids=["n", "a-degree-1", "a", "b", "b-degree-1", "a-b-by-minus-1"])
    def test_overflow_rejected(self, degree, a, b, n):
        with pytest.raises(BasisParameterError, match="the Hahn recurrence overflows float64"):
            make_basis("hahn", degree, a, b, n)

    def test_degree_beyond_n_rejected(self):
        with pytest.raises(BasisParameterError):
            make_basis("hahn", 4, 1, 1, 3)

    def test_parameter_domain(self):
        with pytest.raises(BasisParameterError):
            make_basis("hahn", 2, -1.0, 1, 7)
        with pytest.raises(BasisParameterError):
            make_basis("hahn", 0, 1, 1, 0)


class TestEvalAll:
    def test_all_ones_at_zero(self):
        basis = make_basis("hahn", 3, 1, 1, 7)
        vals = eval_all(basis, 0.0)
        np.testing.assert_allclose(vals, np.ones(4), atol=1e-14)
        for r in range(4):
            assert closed_form(1, 1, 7, r, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_degree_one_at_one(self):
        vals = eval_all(make_basis("hahn", 3, 1, 1, 7), 1.0)
        assert vals[1] == pytest.approx(5 / 7, abs=1e-12)

    def test_degree_two_at_one(self):
        # one recurrence step by hand: (A + B - x) P1 - B, over A, with A=2.4, B=1.1
        vals = eval_all(make_basis("hahn", 3, 1, 1, 7), 1.0)
        hand = ((2.4 + 1.1 - 1.0) * (5 / 7) - 1.1 * 1.0) / 2.4
        assert vals[2] == pytest.approx(hand, abs=1e-12)
        assert vals[2] == pytest.approx(2 / 7, abs=1e-12)


class TestDerivatives:
    def test_constant_and_linear(self):
        basis = make_basis("hahn", 3, 1, 1, 7)
        for x in (0.0, 1.7, 6.2):
            _, ders = eval_all_with_deriv(basis, x)
            assert ders[0] == 0.0
            assert ders[1] == pytest.approx(-2 / 7, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 3.1, 6.9])
    def test_matches_finite_differences(self, x):
        basis = make_basis("hahn", 5, 1, 1, 7)
        _, ders = eval_all_with_deriv(basis, x)
        step = 1e-6
        fd = (eval_all(basis, x + step) - eval_all(basis, x - step)) / (2 * step)
        np.testing.assert_allclose(ders, fd, atol=1e-8)


class TestClosedFormOracle:
    def test_degree_zero(self):
        for x in (0.0, 2.5, 7.0, -1.3):
            assert closed_form(1, 1, 7, 0, x) == 1.0

    def test_one_term_sum_by_hand(self):
        # k=1 term: (-1)(4)(-1) / (2 * -7 * 1) = -2/7, so Q_1(1) = 5/7
        assert closed_form(1, 1, 7, 1, 1.0) == pytest.approx(5 / 7, abs=1e-14)

    def test_recurrence_agrees_on_grid(self):
        for a in (0.5, 1, 2):
            for b in (0.5, 1, 2):
                for n in (5, 7, 10):
                    basis = make_basis("hahn", 5, a, b, n)
                    for x in range(n + 1):
                        vals = eval_all(basis, float(x))
                        for r in range(6):
                            assert vals[r] == pytest.approx(
                                closed_form(a, b, n, r, float(x)), abs=1e-10
                            )

    def test_degree_above_n_rejected(self):
        with pytest.raises(BasisParameterError):
            closed_form(1, 1, 7, 8, 1.0)


class TestPolynomialStructure:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_exact_degree(self, r):
        basis = make_basis("hahn", 5, 1, 1, 7)
        xs = np.linspace(0.0, 7.0, r + 2)
        ys = np.array([eval_all(basis, x)[r] for x in xs])
        coeffs = np.polynomial.polynomial.polyfit(xs, ys, deg=r)
        fitted = np.polynomial.polynomial.polyval(xs, coeffs)
        np.testing.assert_allclose(fitted, ys, atol=1e-9)
        assert abs(coeffs[-1]) > 1e-9

    def test_discrete_orthogonality(self):
        basis = make_basis("hahn", 3, 1, 1, 7)
        weights = [orthogonality_weight(1, 1, 7, x) for x in range(8)]
        assert weights == [comb(1 + x, x) * comb(8 - x, 7 - x) for x in range(8)]
        table = np.array([eval_all(basis, float(x)) for x in range(8)])
        for r in range(4):
            for s in range(4):
                if r == s:
                    continue
                inner = sum(w * table[x, r] * table[x, s] for x, w in enumerate(weights))
                assert abs(inner) < 1e-8


class TestAlternateBases:
    def test_chebyshev_hand_value(self):
        vals = eval_all(make_basis("chebyshev", 3), 0.5)
        assert vals[2] == pytest.approx(2 * 0.25 - 1, abs=1e-14)

    def test_lucas_hand_value(self):
        vals = eval_all(make_basis("lucas", 3), 1.0)
        assert vals[0] == 2.0
        assert vals[2] == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.3, 1.1])
    def test_chebyshev_trig_identity(self, theta):
        vals = eval_all(make_basis("chebyshev", 5), np.cos(theta))
        for r in range(6):
            assert vals[r] == pytest.approx(np.cos(r * theta), abs=1e-12)

    def test_alternate_derivatives_match_finite_differences(self):
        for basis in (make_basis("chebyshev", 4), make_basis("lucas", 4)):
            for x in (-0.8, 0.1, 0.9):
                _, ders = eval_all_with_deriv(basis, x)
                step = 1e-6
                fd = (eval_all(basis, x + step) - eval_all(basis, x - step)) / (2 * step)
                np.testing.assert_allclose(ders, fd, atol=1e-8)

    def test_factory(self):
        hahn, cheb, lucas = (make_basis(kind, 3) for kind in ("hahn", "chebyshev", "lucas"))
        assert (hahn.domain, hahn.p0, len(hahn.steps)) == ((0.0, 7.0), 1.0, 2)
        assert (cheb.domain, cheb.p0, cheb.steps) == ((-1.0, 1.0), 1.0, [(0.0, 2.0, -1.0)] * 2)
        assert (lucas.domain, lucas.p0, lucas.steps) == ((-1.0, 1.0), 2.0, [(0.0, 1.0, 1.0)] * 2)
        with pytest.raises(BasisParameterError):
            make_basis("lucas", -1)
        assert make_basis("chebyshev", MAX_DEGREE).degree == MAX_DEGREE
        with pytest.raises(BasisParameterError, match=r"degree must be in \[0, "):
            make_basis("chebyshev", MAX_DEGREE + 1)
        with pytest.raises(BasisParameterError, match=r"degree must be in \[0, "):
            make_basis("hahn", MAX_DEGREE + 1, n=MAX_DEGREE + 1)
        with pytest.raises(ConfigError):
            make_basis("bspline", 3)
        with pytest.raises(ConfigError):
            make_basis("legendre", 3)


def test_eval_counter_tracks_elements():
    # the backward's call counts its elements once, for values and slope
    # alike, and the derivative matrix counts none
    basis = make_basis("hahn", 3, 1, 1, 7)
    basis.eval_terms(np.zeros((4, 5)))
    assert basis.eval_count == 20
    values, slope = basis.eval_terms_with_deriv(np.zeros(3))
    basis.derivative_matrix()
    assert basis.eval_count == 23
    assert values.shape == (3, 3) and slope.shape == (3,)


@pytest.mark.parametrize("layout", ["shape", "strided"])
def test_out_arrays_of_another_shape_or_layout_are_refused(layout):
    # the terms are written through flat views of `out`: an array of the
    # same size but another shape, or a strided one, would take them in the
    # wrong order or in a copy
    basis = make_basis("hahn", 3)
    x = np.zeros((4, 5))
    if layout == "shape":
        values, slope = np.empty((3, 5, 4)), np.empty((5, 4))
    else:
        values, slope = np.empty((3, 5, 4)).transpose(0, 2, 1), np.empty((5, 4)).T
    with pytest.raises(ContractError, match=r"C-contiguous array of shape \(3, 4, 5\)"):
        basis.eval_terms(x, out=values)
    with pytest.raises(ContractError, match=r"C-contiguous array of shape \(3, 4, 5\)"):
        basis.eval_terms_with_deriv(x, out=(values, np.empty(x.shape)))
    with pytest.raises(ContractError, match=r"C-contiguous array of shape \(4, 5\)"):
        basis.eval_terms_with_deriv(x, out=(np.empty((3, 4, 5)), slope))


@pytest.mark.parametrize("kind", ["hahn", "chebyshev", "lucas"])
def test_terms_of_reals_are_the_recurrence_at_the_squash(kind):
    # eval_terms runs the stored recurrence on t = tanh(x), out to where
    # tanh saturates, and eval_terms_with_deriv adds the slope dt/dx.  That
    # is the textbook recurrence at the squash s(x) to rounding, and D times
    # the values times the slope is the derivative of the terms
    basis = make_basis(kind, 3)
    x = np.concatenate([[-30.0, -3.0, 0.0, 0.4, 2.5, 30.0],
                        np.random.default_rng(0).normal(0.0, 2.0, 40)]).reshape(2, 23)
    t = np.tanh(x)
    vals, slope = basis.eval_terms_with_deriv(x)
    np.testing.assert_array_equal(basis.eval_terms(x), fill(basis, t))
    np.testing.assert_array_equal(vals, fill(basis, t))
    np.testing.assert_array_equal(slope, 1.0 - t * t)
    s, ds = squash(basis, x, slope=True)
    want = np.moveaxis(textbook(kind, 3, s), -1, 0)[1:]
    assert np.all(np.abs(vals - want) <= 1e-14 * np.abs(want).max())
    raw = np.concatenate([np.full((1,) + x.shape, basis.p0), vals])
    ders = np.tensordot(basis.derivative_matrix(), raw, axes=1)[1:] * slope
    raw_ders = np.moveaxis(eval_all_with_deriv(basis, s)[1], -1, 0)[1:] * ds
    np.testing.assert_allclose(ders, raw_ders, rtol=1e-14, atol=1e-14)
    step = 1e-6
    fd = (basis.eval_terms(x + step) - basis.eval_terms(x - step)) / (2 * step)
    np.testing.assert_allclose(ders, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("degree", [0, 1, 3, 7, 9, MAX_DEGREE])
@pytest.mark.parametrize("kind", ["hahn", "chebyshev", "lucas"])
def test_derivative_matrix_is_the_derivative_recurrence(kind, degree):
    # D times the values is the derivative the recurrence gives, at every
    # degree the CLI accepts, where central differences cannot vouch for
    # degree 64.  Hahn runs on n = 64, where |D| reaches ~1e34.  D is in the
    # basis's variable t, s = lo + (hi - lo) (t + 1) / 2, so it gives
    # (hi - lo) / 2 times the domain derivative
    basis = make_basis(kind, degree, n=MAX_DEGREE) if kind == "hahn" else make_basis(kind, degree)
    deriv = basis.derivative_matrix()
    assert deriv.shape == (degree + 1, degree + 1)
    np.testing.assert_array_equal(np.triu(deriv), 0.0)  # P_r' has degree r - 1
    lo, hi = basis.domain
    vals, ders = eval_all_with_deriv(basis, np.linspace(lo, hi, 2001))
    ders *= (hi - lo) / 2
    scale = np.abs(ders).max(axis=0)
    assert np.all(np.abs(vals @ deriv.T - ders) <= 1e-13 * scale)
