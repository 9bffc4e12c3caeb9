import numpy as np
import pytest

import hakan.tensor as tt
from hakan.errors import ContractError, DimensionError
from hakan.tensor import Tensor


def fd_check(build_loss, params, step=1e-6, tol=1e-4):
    """Central-difference oracle: rebuild the loss around perturbed entries."""
    loss = build_loss()
    tt.backward(loss)
    for p in params:
        analytic = p.grad.copy()
        flat = p.data.reshape(-1)
        grads = analytic.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            with tt.no_grad():
                up = build_loss().item()
            flat[i] = saved - step
            with tt.no_grad():
                down = build_loss().item()
            flat[i] = saved
            fd = (up - down) / (2 * step)
            assert abs(grads[i] - fd) / max(1.0, abs(grads[i])) < tol
        p.zero_grad()


class TestMatmul:
    def test_identity(self):
        v = Tensor([[1.0], [2.0], [3.0]])
        out = tt.matmul(Tensor(np.eye(3)), v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_hand_product(self):
        out = tt.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_mentions_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_against_ones_bt(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        tt.backward(tt.matmul(a, b).sum())
        np.testing.assert_allclose(a.grad, np.ones((5, 3)) @ b.data.T, atol=1e-12)
        a.zero_grad()
        b.zero_grad()
        fd_check(lambda: tt.matmul(a, b).sum(), [a, b])

    def test_batched_lhs(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.uniform(-2, 2, (3, 5, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        out = tt.matmul(a, b)
        assert out.shape == (3, 5, 2)
        fd_check(lambda: tt.matmul(a, b).sum(), [a, b], tol=1e-6)


class TestElementwise:
    def test_sum_ones(self):
        assert Tensor(np.ones((2, 3))).sum().item() == 6.0

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))

    def test_broadcast_add_gradient(self):
        a = Tensor(np.random.default_rng(5).normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(6).normal(size=(2, 3)), requires_grad=True)
        fd_check(lambda: ((a + b) * (a + b)).mean(), [a, b], tol=1e-6)

    def test_mul_scalar(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        out = x * 2.5
        np.testing.assert_array_equal(out.data, [2.5, -5.0])
        tt.backward(out.sum())
        np.testing.assert_array_equal(x.grad, [2.5, 2.5])

    def test_mean_and_reshape_gradients(self):
        x = Tensor(np.random.default_rng(7).uniform(-2, 2, (3, 4)), requires_grad=True)
        fd_check(lambda: (x.reshape(2, 6) * x.reshape(2, 6)).mean(), [x], tol=1e-6)


class TestBackward:
    def test_first_gradient_is_not_aliased(self):
        # add hands one array to both parents; b's first gradient must be a
        # copy, or a's next accumulation would change it too
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        tt.backward(a.sum() + (a + b).sum())
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_sum_gives_ones(self):
        w = Tensor(np.random.default_rng(8).normal(size=(3, 2)), requires_grad=True)
        tt.backward(w.sum())
        np.testing.assert_array_equal(w.grad, np.ones((3, 2)))

    def test_square_gives_two_w(self):
        w = Tensor(np.random.default_rng(9).normal(size=(4,)), requires_grad=True)
        tt.backward((w * w).sum())
        np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-12)

    def test_non_scalar_root_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            tt.backward(w + w)

    def test_accumulation_without_zeroing(self):
        w = Tensor(np.ones(3), requires_grad=True)
        tt.backward(w.sum())
        tt.backward(w.sum())
        np.testing.assert_array_equal(w.grad, 2 * np.ones(3))

    def test_linearity_of_accumulation(self):
        rng = np.random.default_rng(10)
        init = rng.normal(size=(3, 3))
        w1 = Tensor(init.copy(), requires_grad=True)
        tt.backward(((w1 * w1).sum() + (w1 * 3.0).sum()))
        combined = w1.grad.copy()
        w2 = Tensor(init.copy(), requires_grad=True)
        tt.backward((w2 * w2).sum())
        tt.backward((w2 * 3.0).sum())
        np.testing.assert_allclose(w2.grad, combined, atol=1e-12)


class TestHygiene:
    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        a_before, b_before = a.data.copy(), b.data.copy()
        out = tt.matmul(a, b) + a - b
        out = (out * out).reshape(9).sum() + (a * b).mean()
        tt.backward(out)
        np.testing.assert_array_equal(a.data, a_before)
        np.testing.assert_array_equal(b.data, b_before)

    def test_finite_guard_rejects_nan(self):
        # a constructed NaN is caught at the first op that reads it
        held = Tensor([np.nan, 1.0])
        with pytest.raises(ContractError):
            held * 1.0
        with pytest.raises(ContractError):
            Tensor(np.ones(2)) * np.inf

    def test_no_grad_suppresses_recording(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with tt.no_grad():
            out = (w * w).sum()
        assert not out.requires_grad
        tt.backward(out)
        assert w.grad is None

    def test_no_grad_keeps_tape_empty(self):
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        with tt.no_grad():
            for _ in range(5):
                (w * w).mean()
        assert len(tt._tape()) == 0
