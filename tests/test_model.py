import json
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hakan.tensor as tt
from hakan import pool
from hakan.errors import ConfigError, ContractError, DimensionError
from hakan.model import (
    CHECKPOINT_CONFIG_KEY,
    COMPONENTS,
    PREDICT_CHUNK,
    HahnKanBlock,
    HaKanModel,
    ModelConfig,
    RevInState,
    count_breakdown,
    embed,
    make_patches,
    revin_denormalize,
    revin_normalize,
)
from hakan.tensor import Tensor
from hakan.training import Adam, mse_loss

from helpers import closed_form, residual_oracle
from test_tensor import fd_check


# ---------------------------------------------------------------- channels


class TestChannels:
    def test_single_channel_passthrough(self):
        # a one-column series comes back as one column: the forecast of it
        model = _tiny_model(seed=2)
        x = np.arange(8.0).reshape(8, 1)
        out = model.predict(x)
        assert out.shape == (4, 1)
        np.testing.assert_array_equal(out[:, 0], model.forward(np.arange(8.0)))

    def test_column_order(self):
        # predict takes [length, channels] and returns [horizon, channels]:
        # column c is the forecast of input column c alone
        model = _tiny_model(seed=2)
        x = np.random.default_rng(3).normal(size=(8, 3))
        out = model.predict(x)
        assert out.shape == (4, 3)
        for c in range(3):
            np.testing.assert_array_equal(out[:, c], model.forward(x[:, c]))
        with pytest.raises(DimensionError, match="length, channels"):
            model.predict(x[:, 0])
        with pytest.raises(DimensionError, match="lookback"):
            model.predict(x.T)

    def test_round_trip(self):
        # channels are independent: predicting all seven at once equals
        # predicting each column alone and putting the columns back together
        model = _tiny_model(seed=4)
        x = np.random.default_rng(0).normal(size=(8, 7))
        together = model.predict(x)
        apart = np.hstack([model.predict(x[:, [c]]) for c in range(7)])
        assert together.shape == (4, 7)
        np.testing.assert_array_equal(together, apart)

    def test_chunks_at_the_benchmark_shape(self):
        # two full chunks and a padded third; each checked channel is
        # bit-identical alone and within float64 noise of a batch-1 forward
        model = HaKanModel(ModelConfig(lookback=336, horizon=96, embed_dim=128,
                                       n_blocks=3, seed=24))
        channels = 2 * PREDICT_CHUNK + 3
        x = np.random.default_rng(25).normal(size=(336, channels))
        joint = model.predict(x)
        for c in (0, channels // 2, 2 * PREDICT_CHUNK - 1, channels - 1):
            np.testing.assert_array_equal(joint[:, c], model.predict(x[:, [c]])[:, 0])
            with tt.no_grad():
                batch_one = model.forward_batch(x[:, c][None]).data[0]
            np.testing.assert_allclose(joint[:, c], batch_one, rtol=0, atol=1e-14)

    def test_partial_chunk_without_revin_eps(self):
        # the padding rows are real windows: a zero row would normalize 0/0
        model = _tiny_model(revin_eps=0.0, seed=26)
        x = np.random.default_rng(27).normal(size=(8, PREDICT_CHUNK + 3))
        joint = model.predict(x)
        assert np.isfinite(joint).all()
        for c in range(x.shape[1]):
            np.testing.assert_array_equal(joint[:, c], model.forward(x[:, c]))


# ---------------------------------------------------------------- revin


class TestRevin:
    def test_constant_series(self):
        out, state = revin_normalize(np.array([5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(out, np.zeros(3))
        assert state.mean == 5.0 and state.std == 0.0

    def test_hand_zscore(self):
        out, _ = revin_normalize(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_round_trip_identity(self):
        x = np.random.default_rng(1).normal(2.0, 3.0, size=200)
        normed, state = revin_normalize(x)
        np.testing.assert_allclose(revin_denormalize(normed, state), x, atol=1e-9)

    def test_denormalize_zeros_gives_mean(self):
        x = np.random.default_rng(2).normal(size=50)
        _, state = revin_normalize(x)
        np.testing.assert_allclose(
            revin_denormalize(np.zeros(10), state), np.full(10, x.mean()), atol=1e-12
        )

    def test_unit_state_near_identity(self):
        out = revin_denormalize(np.array([1.0, -2.0]), RevInState(0.0, 1.0, 1e-5))
        np.testing.assert_allclose(out, [1.0 + 1e-5, -2.0 - 2e-5], atol=1e-12)

    def test_tensor_denormalize_matches_array_and_finite_differences(self):
        rng = np.random.default_rng(3)
        _, state = revin_normalize(rng.normal(2.0, 3.0, size=(4, 20)))
        pred = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        np.testing.assert_array_equal(revin_denormalize(pred, state).data,
                                      revin_denormalize(pred.data, state))
        target = rng.normal(size=(4, 5))
        fd_check(lambda: mse_loss(revin_denormalize(pred, state), target), [pred],
                 tol=1e-6)


# ---------------------------------------------------------------- patching


class TestPatching:
    def test_reference_geometry(self):
        x = np.arange(96.0)
        patches = make_patches(x, 16, 8)
        assert patches.shape == (12, 16)
        np.testing.assert_array_equal(patches[-1][:8], np.arange(88.0, 96.0))
        np.testing.assert_array_equal(patches[-1][8:], np.full(8, 95.0))

    def test_window_equals_patch(self):
        x = np.arange(16.0)
        patches = make_patches(x, 16, 8)
        assert patches.shape == (2, 16)
        np.testing.assert_array_equal(patches[0], x)
        np.testing.assert_array_equal(patches[1], np.r_[x[8:], np.full(8, 15.0)])

    def test_enumerated_padding(self):
        patches = make_patches(np.arange(1.0, 11.0), 4, 3)
        np.testing.assert_array_equal(
            patches,
            [[1, 2, 3, 4], [4, 5, 6, 7], [7, 8, 9, 10], [10, 10, 10, 10]],
        )

    def test_stride_past_the_window_repeats_the_last_value(self):
        # up to the largest stride numpy can hold, past which ModelConfig refuses
        x = np.arange(1.0, 11.0)
        for stride in (10, 11, 2**63 - 1):
            np.testing.assert_array_equal(make_patches(x, 4, stride),
                                          [[1, 2, 3, 4], [10, 10, 10, 10]])

    def test_patch_longer_than_window(self):
        with pytest.raises(ConfigError):
            make_patches(np.arange(8.0), 16, 8)

    def test_batched(self):
        x = np.random.default_rng(3).normal(size=(5, 20))
        patches = make_patches(x, 4, 4)
        assert patches.shape == (5, 6, 4)
        np.testing.assert_array_equal(patches[2, 1], x[2, 4:8])


# ---------------------------------------------------------------- embedding


class TestEmbed:
    def test_all_zero(self):
        out = embed(np.ones((3, 4)), Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_zero_projection_returns_positions(self):
        pos = np.random.default_rng(4).normal(size=(3, 2))
        out = embed(np.ones((3, 4)), Tensor(np.zeros((4, 2))), Tensor(pos))
        np.testing.assert_array_equal(out.data, pos)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(5)
        w_p = rng.normal(size=(4, 3))
        w_pos = rng.normal(size=(6, 3))
        for shape in [(6, 4), (5, 6, 4)]:  # every window of a batch gets w_pos
            patches = rng.normal(size=shape)
            out = embed(patches, Tensor(w_p), Tensor(w_pos))
            np.testing.assert_allclose(out.data, patches @ w_p + w_pos, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (5,)])
    def test_gradients_match_finite_differences(self, lead):
        # against a random target, so each output element gets its own
        # upstream gradient; w_pos sums it over the batch axis
        rng = np.random.default_rng(6)
        patches = rng.uniform(-2, 2, lead + (6, 4))
        w_p = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        w_pos = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
        target = rng.normal(size=lead + (6, 3))
        fd_check(lambda: mse_loss(embed(patches, w_p, w_pos), target), [w_p, w_pos],
                 tol=1e-6)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError, match="embed"):
            embed(np.ones((3, 4)), Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------- blocks


def _tiny_model(**overrides) -> HaKanModel:
    base = dict(lookback=8, horizon=4, patch_len=4, stride=2, embed_dim=3,
                n_blocks=1, bottleneck_dim=5, degree=2, seed=11)
    base.update(overrides)
    return HaKanModel(ModelConfig(**base))


class TestBlockForward:
    def test_zero_coefficients_are_identity(self):
        model = _tiny_model()
        block = model.blocks[0]
        block.intra.gamma.data[:] = 0.0
        block.inter.gamma.data[:] = 0.0
        x = np.random.default_rng(6).normal(size=(2, 4, 3))
        out = block.forward(Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_disabled_intra_zero_inter(self):
        model = _tiny_model(components="inter-only")
        block = model.blocks[0]
        block.inter.gamma.data[:] = 0.0
        x = np.random.default_rng(7).normal(size=(2, 4, 3))
        np.testing.assert_array_equal(block.forward(Tensor(x)).data, x)

    def test_hand_unrolled_two_by_two(self):
        # N = D = 2, degree 1, Hahn(1, 1, 7): P0 = 1, P1(s) = 1 - 4 s / 14,
        # s(v) = 3.5 (tanh(v) + 1).  Fully unrolled reference below.
        cfg = ModelConfig(lookback=6, horizon=2, patch_len=4, stride=4,
                          embed_dim=2, n_blocks=1, bottleneck_dim=2, degree=1,
                          seed=0)
        assert cfg.n_patches == 2
        model = HaKanModel(cfg)
        block = model.blocks[0]
        rng = np.random.default_rng(8)
        block.intra.gamma.data = rng.normal(size=(2, 2, 2))
        block.inter.gamma.data = rng.normal(size=(2, 2, 2))
        x = rng.normal(size=(2, 2))

        def phi(gamma, q, row):
            total = 0.0
            for p in range(2):
                s = 3.5 * (np.tanh(row[p]) + 1.0)
                p1 = 1.0 - 4.0 * s / 14.0
                total += gamma[q, p, 0] * 1.0 + gamma[q, p, 1] * p1
            return total

        def kan_apply(gamma, mat):
            return np.array([[phi(gamma, q, mat[i]) for q in range(2)]
                             for i in range(mat.shape[0])])

        inner = kan_apply(block.intra.gamma.data, x)
        outer = kan_apply(block.inter.gamma.data, inner.T)
        expected = outer.T + x
        out = block.forward(Tensor(x[None])).data[0]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_initialized_stack_is_identity(self):
        model = _tiny_model(n_blocks=3)
        for block in model.blocks:
            block.intra.gamma.data[:] = 0.0
            block.inter.gamma.data[:] = 0.0
        x = np.random.default_rng(9).normal(size=(3, 4, 3))
        h = Tensor(x)
        for block in model.blocks:
            h = block.forward(h)
        np.testing.assert_array_equal(h.data, x)


class TestResidualInPlace:
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("mode", ["kan", "linear"])
    @pytest.mark.parametrize("components", list(COMPONENTS))
    def test_the_sum_in_place_is_the_out_of_place_sum(self, monkeypatch, components,
                                                      mode, grad, size):
        # block output, loss and every gradient, bit for bit, against a
        # block that forms h + x in a new array
        cfg = ModelConfig(lookback=32, horizon=8, patch_len=8, stride=4, embed_dim=8,
                          n_blocks=2, bottleneck_dim=16, mode=mode,
                          components=components, seed=31)
        in_place, occupies = _residual_run(cfg, size, grad)
        assert occupies  # the sum is written into the last layer's output
        monkeypatch.setattr(HahnKanBlock, "forward", residual_oracle)
        oracle, occupies = _residual_run(cfg, size, grad)
        assert not occupies
        assert len(in_place) == len(oracle)
        for got, want in zip(in_place, oracle):
            assert got.tobytes() == want.tobytes()

    def test_a_recorded_forward_holds_two_activations_per_block(self):
        # after a grad-mode forward the tape holds the embedding, each
        # block's intra output and its sum, written into the inter output;
        # the patches, the layers' weight layouts and the head's small
        # arrays stay under one more activation.  One worker, whose
        # scratch the first step grows, so the traced forward allocates none
        cfg = ModelConfig(lookback=96, horizon=24, embed_dim=32, n_blocks=3,
                          bottleneck_dim=64, seed=33)
        model = HaKanModel(cfg)
        rng = np.random.default_rng(34)
        windows = rng.normal(size=(64, 96)).cumsum(axis=1)
        target = Tensor(rng.normal(size=(64, 24)))
        with pool._sized(1):
            tt.backward(mse_loss(model.forward_batch(windows), target))
            tracemalloc.start()
            try:
                pred = model.forward_batch(windows)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            tt.backward(mse_loss(pred, target))
        activation = 64 * cfg.n_patches * cfg.embed_dim * 8
        assert held < (2 * cfg.n_blocks + 3) * activation


def _residual_run(cfg, size, grad) -> tuple:
    """([block 0's output, with `grad` the gradients of its sum, a model's
    loss, with `grad` its gradients], whether the block's output occupies
    its last layer's output array)."""
    model = HaKanModel(cfg)
    block = model.blocks[0]
    last = block.inter if block.inter is not None else block.intra
    outputs = []

    def recorded(x, _forward=last.forward):
        outputs.append(_forward(x))
        return outputs[-1]

    rng = np.random.default_rng(35)
    x = Tensor(rng.normal(size=(16, cfg.n_patches, cfg.embed_dim)), requires_grad=grad)
    windows = rng.normal(size=(16, cfg.lookback)).cumsum(axis=1)
    target = Tensor(rng.normal(size=(16, cfg.horizon)))
    with pool._sized(size), (nullcontext() if grad else tt.no_grad()):
        last.forward = recorded
        out = block.forward(x)
        del last.forward
        occupies = np.shares_memory(out.data, outputs[0].data)
        seen = [out.data.copy()]
        if grad:
            tt.backward(out.sum())
            seen += [x.grad] + [p.grad for p in model.parameters() if p.grad is not None]
            for p in model.parameters():
                p.zero_grad()
        loss = mse_loss(model.forward_batch(windows), target)
        seen.append(loss.data)
        if grad:
            tt.backward(loss)
            seen += [p.grad for p in model.parameters()]
    assert not tt._tape()
    return seen, occupies


# ---------------------------------------------------------------- forward


def reference_forward(model: HaKanModel, series: np.ndarray) -> np.ndarray:
    """Straight-line single-window forward, no tape, basis via closed form."""
    cfg = model.config
    mean = series.mean()
    scale = series.std() + cfg.revin_eps
    xn = (series - mean) / scale
    n, p = cfg.n_patches, cfg.patch_len
    patches = np.empty((n, p))
    for j in range(n):
        for t in range(p):
            patches[j, t] = xn[min(j * cfg.stride + t, cfg.lookback - 1)]
    h = patches @ model.w_p.data + model.w_pos.data

    def kan_ref(layer, mat):
        lo, hi = layer.basis.domain
        a, b, n = cfg.hahn_a, cfg.hahn_b, cfg.hahn_n
        out = np.zeros((mat.shape[0], layer.out_dim))
        for i in range(mat.shape[0]):
            for q in range(layer.out_dim):
                acc = 0.0
                for pp in range(layer.in_dim):
                    s = lo + (hi - lo) * (np.tanh(mat[i, pp]) + 1.0) / 2.0
                    for r in range(layer.basis.degree + 1):
                        acc += layer.gamma.data[q, pp, r] * closed_form(a, b, n, r, s)
                out[i, q] = acc
        return out

    for block in model.blocks:
        cur = kan_ref(block.intra, h) if block.intra is not None else h
        cur = cur.T
        cur = kan_ref(block.inter, cur) if block.inter is not None else cur
        h = cur.T + h
    flat = h.reshape(-1)
    hidden = model.w_down.data @ flat
    pred = model.w_up.data @ hidden
    return pred * scale + mean


class TestForward:
    @pytest.mark.parametrize("shape", [(8,), (2, 9), (2, 8, 1)])
    def test_windows_of_another_shape_are_refused(self, shape):
        with pytest.raises(DimensionError, match=r"expected \[batch, 8\] windows"):
            _tiny_model().forward_batch(np.zeros(shape))

    def test_a_two_dimensional_series_is_refused(self):
        with pytest.raises(DimensionError, match="expected a 1-d series, got shape"):
            _tiny_model().forward(np.zeros((8, 1)))

    def test_zero_parameters_predict_window_mean(self):
        model = _tiny_model()
        for param in model.parameters():
            param.data[:] = 0.0
        x = np.random.default_rng(10).normal(3.0, 2.0, size=8)
        np.testing.assert_allclose(model.forward(x), np.full(4, x.mean()), atol=1e-12)

    def test_reference_shape_trace(self):
        cfg = ModelConfig(lookback=96, horizon=96, seed=1)
        assert cfg.n_patches == 12
        model = HaKanModel(cfg)
        assert model.w_p.shape == (16, 128)
        assert model.w_pos.shape == (12, 128)
        assert model.w_down.shape == (336, 12 * 128)
        assert model.w_up.shape == (96, 336)
        out = model.forward(np.random.default_rng(11).normal(size=96))
        assert out.shape == (96,)

    def test_matches_tape_free_reference(self):
        model = _tiny_model(n_blocks=2, seed=13)
        x = np.random.default_rng(12).normal(1.0, 2.0, size=8)
        np.testing.assert_allclose(model.forward(x), reference_forward(model, x),
                                   atol=1e-10)

    def test_reference_with_disabled_components(self):
        for components in ("intra-only", "inter-only"):
            model = _tiny_model(components=components, seed=14)
            x = np.random.default_rng(15).normal(size=8)
            np.testing.assert_allclose(model.forward(x), reference_forward(model, x),
                                       atol=1e-10)

    def test_channel_independence_is_bitwise(self):
        model = _tiny_model(seed=16)
        x = np.random.default_rng(17).normal(size=(8, 2))
        joint = model.predict(x)
        for c in range(2):
            alone = model.predict(x[:, c:c + 1])
            np.testing.assert_array_equal(joint[:, c], alone[:, 0])

    def test_shift_scale_equivariance(self):
        # with eps = 0 the instance normalization removes affine changes exactly
        model = _tiny_model(revin_eps=0.0, seed=18)
        x = np.random.default_rng(19).normal(size=8)
        base = model.forward(x)
        moved = model.forward(2.0 * x + 5.0)
        np.testing.assert_allclose(moved, 2.0 * base + 5.0, atol=1e-6)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            _tiny_model().forward(np.zeros(9))

    def test_nan_window_rejected(self):
        # the window becomes a Tensor unchecked; the embedding product is checked
        x = np.random.default_rng(20).normal(size=(8, 2))
        x[3, 1] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            _tiny_model().predict(x)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(lookback=8, horizon=4, patch_len=16, stride=8)
        with pytest.raises(ConfigError):
            ModelConfig(lookback=8, horizon=4, patch_len=4, stride=0)


# ---------------------------------------------------------------- counting


class TestParamCount:
    def test_matches_live_model(self, tiny_config):
        model = HaKanModel(replace(tiny_config, n_blocks=3))
        live = sum(t.size for t in model.parameters())
        assert model.param_count() == live
        breakdown = count_breakdown(model.config)
        assert sum(n * copies for _, n, copies in breakdown) == live
        assert [copies for _, _, copies in breakdown] == [1, 1, 3, 1, 1]

    def test_per_block_slope_at_reference_config(self):
        counts = {}
        for blocks in (1, 3, 5):
            cfg = ModelConfig(lookback=96, horizon=96, n_blocks=blocks)
            counts[blocks] = HaKanModel(cfg).param_count()
        assert counts[3] - counts[1] == 2 * 66_112
        assert counts[5] - counts[3] == 2 * 66_112

    def test_no_blocks_means_no_gamma(self):
        cfg = ModelConfig(lookback=96, horizon=96, n_blocks=0)
        names = [name for name, _, _ in count_breakdown(cfg)]
        assert names == ["w_p", "w_pos", "w_down", "w_up"]

    def test_bottleneck_slope(self):
        base = HaKanModel(ModelConfig(lookback=96, horizon=96)).param_count()
        bumped = HaKanModel(ModelConfig(lookback=96, horizon=96,
                                        bottleneck_dim=337)).param_count()
        assert bumped - base == 12 * 128 + 96

    def test_linear_mode_shrinks_blocks(self):
        kan = {name: n for name, n, _ in count_breakdown(ModelConfig(lookback=96, horizon=96))}
        lin = {name: n for name, n, _ in count_breakdown(
            ModelConfig(lookback=96, horizon=96, mode="linear"))}
        assert kan["block"] == 4 * lin["block"]
        assert kan["block"] == 66_112


# ---------------------------------------------------------------- checkpoint


class TestCheckpoint:
    def test_round_trip_is_value_exact(self, tmp_path):
        model = _tiny_model(seed=21)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = HaKanModel.load(path)
        assert loaded.config == model.config
        for (name_a, t_a), (name_b, t_b) in zip(model.named_parameters(),
                                                loaded.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(t_a.data, t_b.data)
        x = np.random.default_rng(22).normal(size=8)
        np.testing.assert_array_equal(model.forward(x), loaded.forward(x))

    def test_stored_field_unknown_to_the_config_is_ignored(self, tmp_path):
        # checkpoints written while ModelConfig still had `init_scale` carry
        # it in their stored config
        model = _tiny_model(seed=23)
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as archive:
            arrays = dict(archive)
        stored = json.loads(str(arrays[CHECKPOINT_CONFIG_KEY]))
        arrays[CHECKPOINT_CONFIG_KEY] = np.array(json.dumps({**stored, "init_scale": 1.0}))
        np.savez(path, **arrays)
        loaded = HaKanModel.load(path)
        assert loaded.config == model.config
        for (_, t_a), (_, t_b) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(t_a.data, t_b.data)

    def test_fortran_ordered_checkpoint_trains_like_a_c_ordered_one(self, tmp_path):
        # Adam writes through flat views, which a Fortran-ordered array's
        # reshape is not: loading makes every parameter C-contiguous
        model = _tiny_model(seed=24)
        paths = {order: tmp_path / f"{order}.npz" for order in "CF"}
        model.save(paths["C"])
        with np.load(paths["C"]) as archive:
            arrays = {k: v if k == CHECKPOINT_CONFIG_KEY else np.asfortranarray(v)
                      for k, v in archive.items()}
        np.savez(paths["F"], **arrays)
        with np.load(paths["F"]) as archive:
            assert not archive["w_down"].flags.c_contiguous
        rng = np.random.default_rng(25)
        x = rng.normal(size=(4, model.config.lookback))
        y = rng.normal(size=(4, model.config.horizon))
        trained = {}
        for order, path in paths.items():
            loaded = HaKanModel.load(path)
            optimizer = Adam(loaded.parameters(), lr=1e-2)
            for _ in range(2):
                tt.backward(mse_loss(loaded.forward_batch(x), y))
                optimizer.step()
                optimizer.zero_grad()
            trained[order] = [p.data.tobytes() for p in loaded.parameters()]
        assert trained["F"] == trained["C"]
        assert trained["C"][-2] != model.w_down.data.tobytes()

    def test_missing_file(self, tmp_path):
        from hakan.errors import DataError
        with pytest.raises(DataError):
            HaKanModel.load(tmp_path / "nope.npz")

    def test_checkpoint_keys(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "model.npz"
        model.save(path)
        archive = np.load(path, allow_pickle=False)
        for key in ("w_p", "w_pos", "block.0.intra.gamma", "block.0.inter.gamma",
                    "w_down", "w_up"):
            assert key in archive


# ---------------------------------------------------------------- fuzzing


@settings(max_examples=40, deadline=None)
@given(
    lookback=st.integers(4, 48),
    horizon=st.integers(1, 12),
    patch_len=st.integers(2, 16),
    stride=st.integers(1, 8),
    embed_dim=st.integers(1, 6),
    n_blocks=st.integers(0, 2),
    bottleneck=st.integers(1, 10),
    degree=st.integers(0, 3),
    mode=st.sampled_from(["kan", "linear"]),
    components=st.sampled_from(["both", "intra-only", "inter-only"]),
)
def test_shape_contract_fuzz(lookback, horizon, patch_len, stride, embed_dim,
                             n_blocks, bottleneck, degree, mode, components):
    if patch_len > lookback:
        patch_len = lookback
    cfg = ModelConfig(lookback=lookback, horizon=horizon, patch_len=patch_len,
                      stride=stride, embed_dim=embed_dim, n_blocks=n_blocks,
                      bottleneck_dim=bottleneck, degree=degree, mode=mode,
                      components=components, seed=1)
    model = HaKanModel(cfg)
    # HaKanModel.load checks a checkpoint against these before it builds the model
    assert list(cfg.parameter_shapes().items()) == [
        (name, t.shape) for name, t in model.named_parameters()]
    x = np.random.default_rng(0).normal(size=(2, lookback))
    with tt.no_grad():
        out = model.forward_batch(x)
    assert out.shape == (2, horizon)
