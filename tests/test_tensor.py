import numpy as np
import pytest

import hakan.tensor as tt
from hakan.errors import ContractError, DimensionError
from hakan.layers import linear
from hakan.model import HaKanModel, ModelConfig
from hakan.tensor import Tensor
from hakan.training import mse_loss


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


class TestElementwise:
    def test_sum_ones(self):
        assert Tensor(np.ones((2, 3))).sum().item() == 6.0

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))
        # no broadcasting: a [2] tensor does not stretch over a [3, 2] one
        with pytest.raises(DimensionError, match=r"\(3, 2\).*\(2,\)"):
            Tensor(np.zeros((3, 2))) + Tensor(np.zeros(2))

    def test_mean_and_reshape_gradients(self):
        x = Tensor(np.random.default_rng(7).uniform(-2, 2, (3, 4)), requires_grad=True)
        fd_check(lambda: mse_loss(x.reshape(2, 6), np.zeros((2, 6))), [x], tol=1e-6)


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
        tt.backward(mse_loss(w, np.zeros(4)))
        np.testing.assert_allclose(w.grad, 2 * w.data / 4, atol=1e-12)

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
        target = rng.normal(size=(3, 3))
        w1 = Tensor(init.copy(), requires_grad=True)
        tt.backward(mse_loss(w1, np.zeros((3, 3))) + mse_loss(w1, target))
        combined = w1.grad.copy()
        w2 = Tensor(init.copy(), requires_grad=True)
        tt.backward(mse_loss(w2, np.zeros((3, 3))))
        tt.backward(mse_loss(w2, target))
        np.testing.assert_allclose(w2.grad, combined, atol=1e-12)


def _model_loss(seed: int = 4):
    """A 2-block model's loss on fixed windows, recorded on the tape."""
    model = HaKanModel(ModelConfig(lookback=16, horizon=4, patch_len=4, stride=2,
                                   embed_dim=4, n_blocks=2, bottleneck_dim=6, seed=seed))
    rng = np.random.default_rng(seed)
    loss = mse_loss(model.forward_batch(rng.normal(size=(5, 16))), rng.normal(size=(5, 4)))
    return model, loss


class TestGradientLifetime:
    def test_backward_frees_every_activation_gradient(self):
        model, loss = _model_loss()
        nodes = list(tt._tape())
        tt.backward(loss)
        assert not tt._tape()
        assert all(node.out.grad is None for node in nodes)
        assert all(p.grad is not None for p in model.parameters())

    def test_freeing_leaves_leaf_gradients_bitwise(self):
        # the same sweep with every activation gradient kept until the end
        model, loss = _model_loss()
        tt.backward(loss)
        kept, kept_loss = _model_loss()
        kept_loss.grad = np.ones(())
        nodes = list(tt._tape())
        tt._tape().clear()
        for node in reversed(nodes):
            if node.out.grad is not None:
                node.backward(node.out.grad)
        assert all(node.out.grad is not None for node in nodes)
        for p, q in zip(model.parameters(), kept.parameters()):
            np.testing.assert_array_equal(p.grad, q.grad)

    def test_first_gradient_is_kept(self):
        # the first accumulation keeps the array it is handed, and sum's
        # backward hands over a writeable one that later accumulations add into
        w = Tensor(np.ones(3), requires_grad=True)
        g = np.arange(3.0)
        w.accumulate_grad(g)
        assert w.grad is g
        w.zero_grad()
        assert w.grad is None
        x = Tensor(np.ones(3), requires_grad=True)
        tt.backward(x.sum())
        x.accumulate_grad(np.ones(3))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


class TestHygiene:
    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        a_before, b_before = a.data.copy(), b.data.copy()
        out = linear(a, b) + a
        out = mse_loss(out.reshape(9), b.data.reshape(9)) + (a + b).sum()
        tt.backward(out)
        np.testing.assert_array_equal(a.data, a_before)
        np.testing.assert_array_equal(b.data, b_before)

    def test_finite_guard_rejects_nan(self):
        # a constructed NaN is caught at the first op that reads it, and an
        # op whose own result overflows is caught at that op
        held = Tensor([np.nan, 1.0])
        with pytest.raises(ContractError):
            held + Tensor(np.ones(2))
        big = Tensor(np.full(2, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            big + big

    def test_gradient_of_another_shape_rejected(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ContractError, match=r"\(3,\).*\(2, 3\)"):
            w.accumulate_grad(np.ones(3))

    def test_no_grad_suppresses_recording(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with tt.no_grad():
            out = mse_loss(w, np.zeros(2))
        assert not out.requires_grad
        tt.backward(out)
        assert w.grad is None

    def test_no_grad_keeps_tape_empty(self):
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        with tt.no_grad():
            for _ in range(5):
                mse_loss(w, np.zeros((3, 3)))
        assert len(tt._tape()) == 0
