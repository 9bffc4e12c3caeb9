from contextlib import nullcontext

import numpy as np
import pytest

import hakan.tensor as tt
from hakan.basis import make_basis
from hakan.errors import ContractError, DimensionError
from hakan.layers import KanLayer
from hakan.tensor import Tensor
from hakan.training import mse_loss

from helpers import eval_all
from test_tensor import fd_check


def squares(y: Tensor) -> Tensor:
    """mean(y ** 2), the loss the gradient checks differentiate."""
    return mse_loss(y, np.zeros(y.shape))


def hahn_layer(in_dim, out_dim, degree=3, seed=0, n=7):
    basis = make_basis("hahn", degree, 1, 1, n)
    return KanLayer(in_dim, out_dim, basis=basis, rng=np.random.default_rng(seed))


class TestSquash:
    # Hahn(n = 7) lives on [0, 7], Chebyshev on [-1, 1]
    def test_midpoint(self):
        s, _ = make_basis("hahn", 3).squash(0.0)
        assert s == pytest.approx(3.5, abs=1e-14)

    def test_saturation(self):
        basis = make_basis("hahn", 3)
        high = basis.squash(15.0)[0]
        assert high < 7.0
        assert high == pytest.approx(7.0, abs=1e-9)
        assert basis.squash(-15.0)[0] > 0.0

    def test_derivative_at_zero(self):
        basis = make_basis("hahn", 3)
        _, ds = basis.squash(np.array(0.0), slope=True)
        assert ds == pytest.approx(3.5, abs=1e-14)
        step = 1e-6
        fd = (basis.squash(np.array(step))[0] - basis.squash(np.array(-step))[0]) / (2 * step)
        assert abs(ds - fd) < 1e-8

    def test_monotone(self):
        xs = np.linspace(-4, 4, 101)
        ys, _ = make_basis("chebyshev", 3).squash(xs)
        assert np.all(np.diff(ys) > 0)


class TestKanForward:
    def test_zero_coefficients_give_zero(self):
        layer = hahn_layer(4, 3)
        layer.gamma.data[:] = 0.0
        out = layer.forward(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_constant_term_only(self):
        # with only degree-0 coefficients set to c, every output is in_dim * c
        layer = hahn_layer(4, 3)
        layer.gamma.data[:] = 0.0
        layer.gamma.data[:, :, 0] = 0.25
        out = layer.forward(Tensor(np.random.default_rng(1).normal(size=(6, 4))))
        np.testing.assert_allclose(out.data, np.full((6, 3), 4 * 0.25), atol=1e-12)

    def test_hand_case_degree_one(self):
        # gamma = [2, 3], x = 0: squash -> 3.5, P0 = 1, P1 = 1 - (4/14)*3.5 = 0
        layer = hahn_layer(1, 1, degree=1)
        layer.gamma.data[:] = np.array([[[2.0, 3.0]]])
        out = layer.forward(Tensor([[0.0]]))
        assert out.data[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            hahn_layer(4, 3).forward(Tensor(np.zeros((5, 6))))

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)))
        layer = hahn_layer(3, 2)
        g1 = rng.normal(size=layer.gamma.shape)
        g2 = rng.normal(size=layer.gamma.shape)
        outs = []
        for g in (g1, g2, g1 + g2):
            layer.gamma.data = g.copy()
            outs.append(layer.forward(x).data)
        np.testing.assert_allclose(outs[0] + outs[1], outs[2], atol=1e-10)

    def test_degree_zero_output_is_row_independent(self):
        layer = hahn_layer(3, 2, degree=0)
        out = layer.forward(Tensor(np.random.default_rng(3).normal(size=(5, 3)))).data
        for i in range(1, 5):
            np.testing.assert_array_equal(out[i], out[0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        layer = hahn_layer(3, 2, seed=5)
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        fd_check(lambda: squares(layer.forward(x)), [layer.gamma, x])

    def test_basis_values_shared_across_outputs(self):
        # one basis evaluation per input element, no matter how wide the output
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        for out_dim in (1, 50):
            layer = hahn_layer(4, out_dim)
            layer.basis.eval_count = 0
            with tt.no_grad():
                layer.forward(Tensor(x))
            assert layer.basis.eval_count == 5 * 4


class TestLinearMode:
    def test_identity_weight(self):
        layer = KanLayer(3, 3, mode="linear")
        layer.gamma.data = np.eye(3)
        x = np.random.default_rng(7).normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(Tensor(x)).data, x, atol=1e-14)

    def test_zero_weight(self):
        layer = KanLayer(4, 2, mode="linear")
        layer.gamma.data[:] = 0.0
        out = layer.forward(Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(8)
        layer = KanLayer(4, 5, mode="linear", rng=rng)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            layer.forward(Tensor(x)).data, x @ layer.gamma.data.T, atol=1e-13
        )

    def test_gradients(self):
        rng = np.random.default_rng(9)
        layer = KanLayer(3, 2, mode="linear", rng=rng)
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        fd_check(lambda: squares(layer.forward(x)), [layer.gamma, x], tol=1e-6)


class TestParamCount:
    def test_kan_counts(self):
        assert hahn_layer(128, 128, degree=3).gamma.size == 65_536
        assert hahn_layer(12, 12, degree=3).gamma.size == 576

    def test_block_total_at_reference_width(self):
        # D=128 intra plus N=12 inter at degree 3
        intra = hahn_layer(128, 128, degree=3)
        inter = hahn_layer(12, 12, degree=3)
        assert intra.gamma.size + inter.gamma.size == 66_112

    def test_linear_count(self):
        assert KanLayer(12, 34, mode="linear").gamma.size == 408


def naive_output(layer, x):
    """sum_p sum_r gamma[q, p, r] P_r(s(x_p)) over the layer's axis, by einsum."""
    if layer.mode == "linear":
        terms, gamma = x[..., None], layer.gamma.data[:, :, None]
    else:
        lo, hi = layer.basis.domain
        terms = eval_all(layer.basis, lo + (hi - lo) * 0.5 * (np.tanh(x) + 1.0))
        gamma = layer.gamma.data
    if layer.axis == -1:
        return np.einsum("...pr,qpr->...q", terms, gamma)
    return np.einsum("...pjr,qpr->...qj", terms, gamma)


# (layer axis, input shape); the contracted extent is 3 and the output width 4
CASES = {"last-2d": (-1, (5, 3)), "last-3d": (-1, (2, 5, 3)), "patch-3d": (-2, (2, 3, 5))}


def oracle_layer(kind, degree, case, mode="kan", seed=0):
    axis, shape = CASES[case]
    basis = make_basis(kind, degree) if mode == "kan" else None
    layer = KanLayer(3, 4, basis=basis, mode=mode, axis=axis,
                     rng=np.random.default_rng(seed))
    x = np.random.default_rng(seed + 1).uniform(-2, 2, shape)
    return layer, x


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["hahn", "chebyshev", "lucas"])
class TestAgainstNaiveEinsum:
    def test_values(self, kind, degree, case):
        layer, x = oracle_layer(kind, degree, case)
        want = naive_output(layer, x)
        with tt.no_grad():
            out = layer.forward(Tensor(x))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        out = layer.forward(Tensor(x, requires_grad=True))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        tt.backward(out.sum())

    def test_gradients(self, kind, degree, case):
        layer, x = oracle_layer(kind, degree, case, seed=2)
        xt = Tensor(x, requires_grad=True)
        fd_check(lambda: squares(layer.forward(xt)), [layer.gamma, xt])


@pytest.mark.parametrize("case", list(CASES))
class TestLinearAgainstNaiveEinsum:
    def test_values(self, case):
        layer, x = oracle_layer(None, None, case, mode="linear")
        out = layer.forward(Tensor(x))
        np.testing.assert_allclose(out.data, naive_output(layer, x), rtol=0, atol=1e-12)

    def test_gradients(self, case):
        layer, x = oracle_layer(None, None, case, mode="linear", seed=3)
        xt = Tensor(x, requires_grad=True)
        fd_check(lambda: squares(layer.forward(xt)), [layer.gamma, xt], tol=1e-6)


class TestPatchAxis:
    def test_output_keeps_the_trailing_axis(self):
        layer, x = oracle_layer("hahn", 3, "patch-3d")
        assert layer.forward(Tensor(x)).shape == (2, 4, 5)

    def test_extent_checked_on_the_contracted_axis(self):
        layer, _ = oracle_layer("hahn", 3, "patch-3d")
        with pytest.raises(DimensionError):
            layer.forward(Tensor(np.zeros((2, 5, 3))))
        with pytest.raises(DimensionError):
            layer.forward(Tensor(np.zeros(3)))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ContractError):
            KanLayer(3, 3, mode="linear", axis=0)


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("grad", [True, False])
def test_one_basis_call_per_forward(case, grad):
    # the tracing contract: a tracer wraps the basis methods on the instance
    # and sees exactly one call, on the whole squashed input
    layer, x = oracle_layer("hahn", 3, case)
    used = "eval_terms_with_deriv" if grad else "eval_terms"
    unused = "eval_terms" if grad else "eval_terms_with_deriv"
    calls = []

    def traced(s, *args, _fn=getattr(layer.basis, used), **kwargs):
        calls.append(np.shape(s))
        return _fn(s, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{unused} called")

    setattr(layer.basis, used, traced)
    setattr(layer.basis, unused, forbidden)
    xt = Tensor(x, requires_grad=grad)
    before = layer.basis.eval_count
    with nullcontext() if grad else tt.no_grad():
        out = layer.forward(xt)
    assert calls == [x.shape]
    assert layer.basis.eval_count - before == x.size
    if grad:
        tt.backward(out.sum())
        assert len(calls) == 1
