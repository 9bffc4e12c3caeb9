import tracemalloc

import numpy as np
import pytest

import hakan.tensor as tt
from hakan import layers, pool, training
from hakan.basis import BASIS_KINDS
from hakan.data import RawDataset, SplitSpec, prepare, window_count
from hakan.errors import ConfigError, ContractError
from hakan.model import COMPONENTS, HaKanModel, ModelConfig
from hakan.tensor import Tensor
from hakan.training import (
    BETA1,
    BETA2,
    EPS,
    Adam,
    MetricRecord,
    TrainSpec,
    block_crossing,
    directional_check,
    evaluate,
    grad_check,
    mse_loss,
    seed_summary,
    train,
)

from helpers import eval_all, row_blocks
from test_tensor import SLICED, fd_check


class TestLosses:
    def test_mse_zero_at_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        assert mse_loss(x, x).item() == 0.0

    def test_mse_unit_offset(self):
        truth = np.random.default_rng(1).normal(size=(4, 3))
        assert mse_loss(Tensor(truth + 1.0), truth).item() == pytest.approx(1.0)

    def test_mse_hand_case(self):
        pred = Tensor([[1.0, 2.0], [3.0, 4.0]])
        truth = Tensor([[1.0, 0.0], [0.0, 4.0]])
        assert mse_loss(pred, truth).item() == pytest.approx(3.25)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match=r"mse_loss: shapes \(2, 2\) vs \(2, 3\)"):
            mse_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_mse_is_differentiable(self):
        pred = Tensor(np.array([[2.0, 4.0]]), requires_grad=True)
        loss = mse_loss(pred, np.array([[1.0, 1.0]]))
        tt.backward(loss)
        np.testing.assert_allclose(pred.grad, [[1.0, 3.0]], atol=1e-12)

    def test_mse_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pred = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        target = rng.normal(size=(3, 4))
        fd_check(lambda: mse_loss(pred, target), [pred], tol=1e-6)


class TestAdam:
    def test_zero_grad_matches_dropped_gradients(self):
        # three steps cleared by zero_grad, against three whose gradients
        # are dropped by hand
        models = [HaKanModel(tiny_train_config(n_blocks=2)) for _ in range(2)]
        opts = [Adam(m.parameters(), lr=1e-2) for m in models]
        rng = np.random.default_rng(21)
        for _ in range(3):
            x, y = rng.normal(size=(6, 16)), rng.normal(size=(6, 4))
            for model, opt in zip(models, opts):
                tt.backward(mse_loss(model.forward_batch(x), y))
                opt.step()
            opts[0].zero_grad()
            for p in models[1].parameters():
                p.grad = None
            assert all(p.grad is None for p in models[0].parameters())
        for p, q in zip(models[0].parameters(), models[1].parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        np.testing.assert_array_equal(opt.m[0], np.zeros(2))
        np.testing.assert_array_equal(opt.v[0], np.zeros(2))
        assert opt.t == 1

    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([0.3, -0.7, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.1, 3.0])
        before = p.data.copy()
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(before - p.data, 0.01 * np.sign(p.grad), rtol=1e-6)

    def test_three_step_trace_matches_scalar_reference(self):
        # independent scalar re-implementation of the update rule
        theta, m, v = 1.0, 0.0, 0.0
        expected = []
        for t in range(1, 4):
            g = 0.5
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            expected.append(theta)

        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        got = []
        for _ in range(3):
            p.grad = np.array([0.5])
            opt.step()
            got.append(float(p.data[0]))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_missing_gradient_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ContractError):
            Adam([p], lr=0.1).step()

    @pytest.mark.parametrize("size", [1, 2])
    def test_sliced_update_is_the_whole_array_expression(self, size):
        # three flat slices, the last a short tail, over one parameter
        rng = np.random.default_rng(26)
        p = Tensor(rng.normal(size=(3, SLICED // 3)), requires_grad=True)
        want, m, v = p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)
        opt = Adam([p], lr=1e-2)
        with pool._sized(size):
            for t in range(1, 4):
                g = rng.normal(size=p.shape)
                p.grad = g.copy()
                opt.step()
                m = m * BETA1 + g * (1.0 - BETA1)
                v = v * BETA2 + g * g * (1.0 - BETA2)
                want -= (m / (1.0 - BETA1 ** t) * 1e-2) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
        assert p.data.tobytes() == want.tobytes()
        assert opt.m[0].tobytes() == m.tobytes() and opt.v[0].tobytes() == v.tobytes()

    @pytest.mark.parametrize("size", [1, 2])
    def test_warm_step_allocates_no_parameter_sized_array(self, size):
        # a slice's update works in its worker's task scratch, which the
        # warm-up step has grown; the step allocates nothing near one
        # parameter's 8 MB
        p = Tensor(np.ones((1000, 1000)), requires_grad=True)
        p.grad = np.full(p.shape, 0.5)
        opt = Adam([p], lr=1e-3)
        with pool._sized(size):
            opt.step()
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < p.data.nbytes

    def test_non_contiguous_parameter_rejected(self):
        # the update writes through flat views, which only a C-contiguous array has
        p = Tensor(np.asfortranarray(np.ones((3, 2))), requires_grad=True)
        p.grad = np.ones((3, 2))
        with pytest.raises(ContractError, match="C-contiguous"):
            Adam([p], lr=0.1).step()

    def test_zero_lr_keeps_parameters(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.3, -0.4])
        opt = Adam([p], lr=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])


def synthetic_splits(total=260, channels=2, seed=6, name="synthetic"):
    rng = np.random.default_rng(seed)
    t = np.arange(total)
    cols = [np.sin(2 * np.pi * t / (10 + 4 * c)) + 0.02 * rng.normal(size=total)
            for c in range(channels)]
    ds = RawDataset(name=name, timestamps=[str(i) for i in range(total)],
                    values=np.stack(cols, axis=1))
    return prepare(ds, SplitSpec("ratio"), lookback=16)


def tiny_train_config(**overrides) -> ModelConfig:
    base = dict(lookback=16, horizon=4, patch_len=4, stride=2, embed_dim=4,
                n_blocks=1, bottleneck_dim=6, degree=2, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


class TestEvaluate:
    def test_matches_brute_force_over_every_window(self):
        # one forecast per (origin, channel) window of the test segment; 98
        # windows at batch size 15 leave a last batch of 8
        splits = synthetic_splits()
        model = HaKanModel(tiny_train_config(seed=12))
        cfg = model.config
        seg = splits.values[splits.test.start:splits.test.end]
        n_origins = window_count(len(seg), cfg.lookback, cfg.horizon)
        assert (n_origins * splits.n_channels) % 15 != 0
        sq, ab = [], []
        for o in range(n_origins):
            for c in range(splits.n_channels):
                pred = model.forward(seg[o:o + cfg.lookback, c])
                err = pred - seg[o + cfg.lookback:o + cfg.lookback + cfg.horizon, c]
                sq.extend(err * err)
                ab.extend(np.abs(err))
        mse, mae = evaluate(model, splits, splits.test, batch_size=15)
        assert mse == pytest.approx(np.mean(sq), rel=1e-12)
        assert mae == pytest.approx(np.mean(ab), rel=1e-12)


class TestTrainLoop:
    def test_constant_inputs_reach_tiny_loss(self):
        # constant windows pin the prediction at the window mean, so the
        # optimum is zero; verify the loop actually drives the loss there
        ds = RawDataset(name="const", timestamps=[str(i) for i in range(120)],
                        values=np.full((120, 1), 5.0))
        with pytest.warns(UserWarning, match="constant"):
            splits = prepare(ds, SplitSpec("ratio"), lookback=16)
        model = HaKanModel(tiny_train_config(seed=4))
        spec = TrainSpec(max_epochs=50, patience=50, lr=1e-3, batch_size=8, seed=4)
        model, record = train(model, splits, spec)
        assert record.mse < 1e-3

    def test_learns_a_sinusoid(self):
        splits = synthetic_splits()
        model = HaKanModel(tiny_train_config(seed=5))
        before_mse, _ = evaluate(model, splits, splits.test)
        spec = TrainSpec(max_epochs=40, patience=40, lr=3e-3, batch_size=32, seed=5)
        model, record = train(model, splits, spec)
        assert record.mse < 0.5 * before_mse
        assert record.epoch_stopped <= 40
        assert record.mse >= 0.0 and record.mae >= 0.0

    def test_non_finite_loss_names_epoch_and_step_without_op_guards(self, monkeypatch):
        # the per-step loss check does not rely on the tape's finiteness guards
        monkeypatch.setattr(tt, "_check_finite", lambda arr: arr)
        splits = synthetic_splits()
        model = HaKanModel(tiny_train_config(seed=6))
        spec = TrainSpec(max_epochs=2, patience=2, lr=1e300, batch_size=16, seed=6)
        with np.errstate(all="ignore"), pytest.raises(
                ContractError, match=r"^epoch 1 step 2: training loss is (nan|inf)$"):
            train(model, splits, spec)

    def test_deterministic_given_seed(self):
        splits = synthetic_splits()
        results = []
        for _ in range(2):
            model = HaKanModel(tiny_train_config(seed=9))
            spec = TrainSpec(max_epochs=5, patience=5, lr=1e-3, batch_size=16, seed=9)
            model, record = train(model, splits, spec)
            weights = {k: t.data.copy() for k, t in model.named_parameters()}
            results.append((record, weights))
        a, b = results
        assert a[0].mse == b[0].mse and a[0].mae == b[0].mae
        assert a[0].epoch_stopped == b[0].epoch_stopped
        for key in a[1]:
            np.testing.assert_array_equal(a[1][key], b[1][key])

    @pytest.mark.parametrize("patience, values, stopped, kept", [
        (1, [5.0, 6.0], 2, 1),
        # the count of epochs without a new best resets on one
        (2, [5.0, 6.0, 4.0, 4.5, 4.4], 5, 3),
        # a tie is no new best, and the minimum is the epoch kept
        (3, [3.0, 2.0, 2.5, 2.0, 2.5, 1.0], 5, 2),
        (3, [5.0, 4.0, 4.2, 4.1, 4.3], 5, 2),
    ])
    def test_early_stopping_restores_the_best_epoch(self, monkeypatch, patience, values,
                                                    stopped, kept):
        # training ends after `patience` epochs without a new best validation
        # MSE and keeps the weights of the best epoch
        val_mse = iter(values)
        seen = []
        real_evaluate = training.evaluate

        def scripted(model, splits, bounds, batch_size=512):
            if bounds is not splits.val:
                return real_evaluate(model, splits, bounds, batch_size)
            seen.append({k: t.data.copy() for k, t in model.named_parameters()})
            return next(val_mse), 0.0

        monkeypatch.setattr(training, "evaluate", scripted)
        model = HaKanModel(tiny_train_config(seed=13))
        spec = TrainSpec(max_epochs=20, patience=patience, lr=1e-3, batch_size=16, seed=13)
        _, record = train(model, synthetic_splits(), spec)
        assert record.epoch_stopped == len(seen) == stopped
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, seen[kept - 1][name])
        assert not np.array_equal(model.w_up.data, seen[-1]["w_up"])

    def test_empty_split_rejected(self):
        splits = synthetic_splits()
        model = HaKanModel(tiny_train_config(lookback=16, horizon=40))
        with pytest.raises(ConfigError):
            train(model, splits, TrainSpec(max_epochs=1, patience=1, lr=1e-3,
                                           batch_size=8, seed=1))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TrainSpec(lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match="positive and finite"):
            TrainSpec(lr=lr)

    def test_patience_beyond_max_epochs_runs_every_epoch(self):
        # epoch 1 always improves on inf, so no patience >= max_epochs stops early
        model = HaKanModel(tiny_train_config(seed=8))
        spec = TrainSpec(max_epochs=2, patience=5, lr=1e-3, batch_size=16, seed=8)
        _, record = train(model, synthetic_splits(), spec)
        assert record.epoch_stopped == 2

    def test_max_epochs_below_one_rejected(self):
        with pytest.raises(ConfigError, match="max_epochs"):
            TrainSpec(max_epochs=0, patience=0)

    @pytest.mark.parametrize("blocks", [0, 1, 3])
    def test_step_tape_node_count(self, blocks):
        # embed 1, per block intra + inter + skip 3, flatten and the two
        # head products 3, denormalize 1, loss 1
        model = HaKanModel(tiny_train_config(n_blocks=blocks))
        rng = np.random.default_rng(blocks)
        loss = mse_loss(model.forward_batch(rng.normal(size=(5, 16))),
                        Tensor(rng.normal(size=(5, 4))))
        assert len(tt._tape()) == 6 + 3 * blocks
        tt.backward(loss)


# <grad L, v> against the central difference along v, relative
DIRECTIONAL_TOLERANCE = 1e-6


class TestGradCheck:
    def test_kan_mode_within_tolerance(self, tiny_config):
        report = grad_check(tiny_config)
        assert max(report.values()) < 1e-4
        assert set(report) == {"w_p", "w_pos", "block.0.intra.gamma",
                               "block.0.inter.gamma", "w_down", "w_up", "directional"}

    def test_linear_mode_within_tolerance(self, tiny_config):
        from dataclasses import replace
        report = grad_check(replace(tiny_config, mode="linear"))
        assert max(report.values()) < 1e-6

    @pytest.mark.parametrize("components", list(COMPONENTS))
    @pytest.mark.parametrize("mode", ["kan", "linear"])
    @pytest.mark.parametrize("basis", BASIS_KINDS)
    def test_directional_check_across_cache_blocks(self, basis, mode, components):
        # it read 1e-11..5e-9 here; skipping the derivative product in the
        # interior blocks of the input gradient read 0.08..1.7
        config, batch = block_crossing(ModelConfig(lookback=8, horizon=4, patch_len=4,
                                                   basis=basis, mode=mode,
                                                   components=components))
        n, d = config.n_patches, config.embed_dim
        for rows, width in ((batch * n, d), (batch, n * d)):  # embedding axis, patch axis
            blocks = [range(rows)[blk] for blk in row_blocks(rows, width)]
            assert len(blocks) >= 3 and len(blocks[-1]) == 1
        assert directional_check(config, batch) < DIRECTIONAL_TOLERANCE

    def test_directional_check_catches_a_dropped_run_partial(self, monkeypatch):
        # block_crossing gives each KAN layer two runs, the last one row.
        # Dropping that run's coefficient-gradient partial read 0.03 here,
        # against 7.6e-10 with it
        config, batch = block_crossing(ModelConfig(lookback=8, horizon=4, patch_len=4))
        n, d = config.n_patches, config.embed_dim
        for rows, width in ((batch * n, d), (batch, n * d)):  # embedding axis, patch axis
            runs = [range(rows)[run] for run in layers._runs(rows, width)]
            assert len(runs) == 2 and len(runs[-1]) == 1
        assert directional_check(config, batch) < DIRECTIONAL_TOLERANCE
        true_fn = layers._weight_grad

        def dropping(g, v, axis, out=None):  # only the KAN layers call it in kan mode
            part = true_fn(g, v, axis, out=out)
            if len(g) == 1:  # the one-row run's slot of the partials
                part.fill(0.0)
            return part

        monkeypatch.setattr(layers, "_weight_grad", dropping)
        assert directional_check(config, batch) > 1e-3

    def test_zero_coefficient_gamma_gradient_is_analytic(self):
        # all gammas zero: the inter layer sees the squashed-zero basis row
        # and its gradient factorizes into downstream sums times P_r(mid)
        cfg = tiny_train_config(seed=10)
        model = HaKanModel(cfg)
        block = model.blocks[0]
        block.intra.gamma.data[:] = 0.0
        block.inter.gamma.data[:] = 0.0
        model.w_p.data[:] = 0.0
        model.w_pos.data[:] = 0.0
        x = np.random.default_rng(11).normal(size=(3, cfg.lookback))
        out = model.forward_batch(x)
        tt.backward(out.sum())

        scale = x.std(axis=1, keepdims=True) + cfg.revin_eps
        g_pred = np.ones((3, cfg.horizon)) * scale  # through the denorm product
        g_flat = (g_pred @ model.w_up.data) @ model.w_down.data
        g_blocks = g_flat.reshape(3, cfg.n_patches, cfg.embed_dim)

        basis = block.inter.basis
        mid = sum(basis.domain) / 2.0
        p_mid = eval_all(basis, mid)
        g_inter_out = np.swapaxes(g_blocks, -1, -2)
        expected = np.einsum("bdq,r->qr", g_inter_out, p_mid)
        expected = np.repeat(expected[:, None, :], cfg.n_patches, axis=1)
        np.testing.assert_allclose(block.inter.gamma.grad, expected, atol=1e-10)
        # the intra layer feeds a zero-coefficient inter layer, so the loss
        # cannot depend on it at all
        np.testing.assert_allclose(block.intra.gamma.grad, 0.0, atol=1e-12)


class TestAggregation:
    def test_single_record(self):
        rec = MetricRecord("ds", 96, 1, 0.5, 0.4, 10, 1.0)
        assert seed_summary([rec]) == (0.5, 0.0, 0.4, 0.0)

    def test_two_records_average(self):
        recs = [MetricRecord("ds", 96, s, mse, 0.1, 1, 0.0)
                for s, mse in ((1, 0.2), (2, 0.4))]
        mse_mean, _, _, _ = seed_summary(recs)
        assert mse_mean == pytest.approx(0.3)

    def test_seed_protocol_layout(self):
        recs = [MetricRecord("etth1", 96, seed, 0.36 + 0.001 * i, 0.39, 1, 0.0)
                for i, seed in enumerate((2021, 2022, 2023))]
        mse_mean, mse_std, mae_mean, mae_std = seed_summary(recs)
        assert mse_mean == pytest.approx(0.361)
        assert mse_std == pytest.approx(np.std([0.36, 0.361, 0.362], ddof=1))
        assert mae_mean == pytest.approx(0.39)
        assert mae_std == pytest.approx(0.0, abs=1e-15)
