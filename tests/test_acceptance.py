"""Acceptance gates.

Each test prints one PASS line when its criterion holds (run with -s or
-rA to see them).  The desk-scale benchmark reproductions need the real
dataset CSVs under data/ (or $HAKAN_DATA) and are marked slow; without
the files they skip with an explanatory message.

Reference numbers asserted here are the published results for this
architecture: ETTh2 (L=96, T=96) MSE 0.277 / MAE 0.332, ETTh1 (L=336,
T=96) MSE 0.3663 with per-seed std about 0.0015, Illness (L=104, T=24)
MSE 1.183, parameter totals 635K/767K/899K for 1/3/5 blocks, and the
component-ablation ordering 0.507 < 0.520 < 0.559.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import hakan.tensor as tt
from hakan.basis import make_basis
from hakan.cli import tiny_check_config
from hakan.config import load_config
from hakan.data import load_csv, prepare
from hakan.model import (
    HaKanModel,
    ModelConfig,
    make_patches,
    revin_denormalize,
    revin_normalize,
)
from hakan.training import grad_check, train

from helpers import (
    REPO_ROOT,
    closed_form,
    eval_all,
    orthogonality_weight,
    require_dataset,
)

SEEDS = (2021, 2022, 2023)


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


# -------------------------------------------------------------- criterion 1


def test_criterion_1_polynomial_correctness():
    started = time.perf_counter()
    for a in (0.5, 1, 2):
        for b in (0.5, 1, 2):
            for n in (5, 7, 10):
                basis = make_basis("hahn", 5, a, b, n)
                for x in range(n + 1):
                    vals = eval_all(basis, float(x))
                    for r in range(6):
                        assert abs(vals[r] - closed_form(a, b, n, r, float(x))) < 1e-10

    basis = make_basis("hahn", 3, 1, 1, 7)
    weights = [orthogonality_weight(1, 1, 7, x) for x in range(8)]
    table = np.array([eval_all(basis, float(x)) for x in range(8)])
    for r in range(4):
        for s in range(4):
            if r != s:
                inner = sum(w * table[x, r] * table[x, s]
                            for x, w in enumerate(weights))
                assert abs(inner) < 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(1, "polynomial correctness")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_gradient_correctness(tmp_path):
    from hakan.cli import main as cli_main

    started = time.perf_counter()
    kan_cfg = tiny_check_config()
    assert HaKanModel(kan_cfg).param_count() < 5000
    worst_kan = max(grad_check(kan_cfg).values())
    assert worst_kan < 1e-4
    worst_linear = max(grad_check(replace(kan_cfg, mode="linear")).values())
    assert worst_linear < 1e-6

    # the command-line path applies the same tolerances and must agree
    assert cli_main(["gradcheck"]) == 0
    linear_cfg = tmp_path / "linear.cfg"
    linear_cfg.write_text("model.mode = linear\n")
    assert cli_main(["gradcheck", "--config", str(linear_cfg),
                     "--tolerance", "1e-6"]) == 0

    assert time.perf_counter() - started < 30.0
    _announce(2, f"gradient correctness (kan {worst_kan:.1e}, "
                 f"linear {worst_linear:.1e})")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_parameter_count_slope():
    horizons = (96, 192, 336, 720)
    reference_totals = {1: 635_000, 3: 767_000, 5: 899_000}

    def averaged_count(blocks: int) -> float:
        counts = [
            HaKanModel(ModelConfig(lookback=96, horizon=t, n_blocks=blocks)).param_count()
            for t in horizons
        ]
        return float(np.mean(counts))

    totals = {blocks: averaged_count(blocks) for blocks in (1, 3, 5)}
    assert totals[3] - totals[1] == 2 * 66_112
    assert totals[5] - totals[3] == 2 * 66_112
    for blocks, reference in reference_totals.items():
        # reference totals are rounded to the nearest thousand, so the
        # +-10% band carries the half-unit quantization allowance
        assert abs(totals[blocks] - reference) <= 0.10 * reference + 500, (
            f"blocks={blocks}: {totals[blocks]:.0f} vs {reference}"
        )
    _announce(3, "parameter-count slope 66,112/block, totals within 10%")


# -------------------------------------------------------------- criterion 4


def _run_seeds(config_path, data_file, seeds=SEEDS, **overrides):
    cfg = load_config(config_path)
    cfg.model = replace(cfg.model, **overrides)
    cfg.data_path = str(require_dataset(data_file))
    splits = prepare(load_csv(cfg.data_path, cfg.data_name, cfg.data.frequency),
                     cfg.data, cfg.model.lookback)
    records = []
    for seed in seeds:
        model_cfg, spec = cfg.bind(splits.n_channels, seed)
        _, record = train(HaKanModel(model_cfg), splits, spec)
        print(f"  {record.dataset} T={record.horizon} seed={seed}: "
              f"mse={record.mse:.4f} mae={record.mae:.4f} "
              f"({record.epoch_stopped} epochs, {record.wall_time:.0f}s)")
        records.append(record)
    return records


@pytest.mark.slow
def test_criterion_4_etth2_reproduction():
    records = _run_seeds(REPO_ROOT / "configs" / "l96" / "etth2.cfg", "ETTh2.csv")
    mse = float(np.mean([r.mse for r in records]))
    mae = float(np.mean([r.mae for r in records]))
    assert abs(mse - 0.277) <= 0.02, f"mean mse {mse:.4f}"
    assert abs(mae - 0.332) <= 0.02, f"mean mae {mae:.4f}"
    _announce(4, f"ETTh2 96/96 reproduction (mse {mse:.4f}, mae {mae:.4f})")


# -------------------------------------------------------------- criterion 5


@pytest.mark.slow
def test_criterion_5_etth1_seed_robustness():
    records = _run_seeds(REPO_ROOT / "configs" / "etth1.cfg", "ETTh1.csv")
    mses = np.array([r.mse for r in records])
    mean = float(mses.mean())
    std = float(mses.std(ddof=1))
    assert abs(mean - 0.3663) <= 0.02, f"mean mse {mean:.4f}"
    assert std < 0.01, f"seed std {std:.4f}"
    _announce(5, f"ETTh1 336/96 seed robustness (mse {mean:.4f} ± {std:.4f})")


# -------------------------------------------------------------- criterion 6


@pytest.mark.slow
def test_criterion_6_illness_reproduction():
    records = _run_seeds(REPO_ROOT / "configs" / "illness.cfg",
                         "national_illness.csv")
    mse = float(np.mean([r.mse for r in records]))
    assert abs(mse - 1.183) <= 0.20, f"mean mse {mse:.4f}"
    _announce(6, f"Illness 104/24 reproduction (mse {mse:.4f})")


# -------------------------------------------------------------- criterion 7


@pytest.mark.slow
@pytest.mark.xfail(strict=False,
                   reason="soft ordering criterion; a miss calls for "
                          "investigation, not rejection")
def test_criterion_7_component_ablation_ordering():
    results = {}
    for label in ("both", "intra-only", "inter-only"):
        records = _run_seeds(REPO_ROOT / "configs" / "l96" / "etth2.cfg", "ETTh2.csv",
                             seeds=(2021,), components=label)
        results[label] = records[0].mse
    assert results["both"] <= results["intra-only"]
    assert results["both"] <= results["inter-only"]
    _announce(7, f"component ablation ordering {results}")


# -------------------------------------------------------------- criterion 8


def test_criterion_8_pipeline_invariants(tmp_path):
    started = time.perf_counter()

    # instance normalization round trip
    rng = np.random.default_rng(88)
    for _ in range(20):
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), size=120)
        normed, state = revin_normalize(x)
        assert np.max(np.abs(revin_denormalize(normed, state) - x)) < 1e-9

    # patch formula and padding
    patches = make_patches(np.arange(96.0), 16, 8)
    assert patches.shape == (12, 16)
    assert np.all(patches[-1][8:] == 95.0)
    np.testing.assert_array_equal(
        make_patches(np.arange(1.0, 11.0), 4, 3),
        [[1, 2, 3, 4], [4, 5, 6, 7], [7, 8, 9, 10], [10, 10, 10, 10]],
    )

    # shape contract over 100 random valid configurations
    for _ in range(100):
        lookback = int(rng.integers(4, 64))
        patch_len = int(rng.integers(2, min(lookback, 12) + 1))
        cfg = ModelConfig(
            lookback=lookback,
            horizon=int(rng.integers(1, 16)),
            patch_len=patch_len,
            stride=int(rng.integers(1, 10)),
            embed_dim=int(rng.integers(1, 6)),
            n_blocks=int(rng.integers(0, 3)),
            bottleneck_dim=int(rng.integers(1, 10)),
            degree=int(rng.integers(0, 4)),
            seed=int(rng.integers(0, 1000)),
        )
        model = HaKanModel(cfg)
        with tt.no_grad():
            out = model.forward_batch(rng.normal(size=(2, lookback)))
        assert out.shape == (2, cfg.horizon)

    # zero-parameter model forecasts the window mean
    cfg = ModelConfig(lookback=24, horizon=8, patch_len=8, stride=4,
                      embed_dim=4, n_blocks=1, bottleneck_dim=6, degree=2)
    model = HaKanModel(cfg)
    for p in model.parameters():
        p.data[:] = 0.0
    x = rng.normal(2.0, 3.0, size=24)
    np.testing.assert_allclose(model.forward(x), np.full(8, x.mean()), atol=1e-12)

    # channel independence is bitwise
    model = HaKanModel(replace(cfg, seed=5))
    series = rng.normal(size=(24, 3))
    joint = model.predict(series)
    for c in range(3):
        np.testing.assert_array_equal(joint[:, c],
                                      model.predict(series[:, c:c + 1])[:, 0])

    # checkpoints round-trip value exactly
    path = tmp_path / "ckpt.npz"
    model.save(path)
    loaded = HaKanModel.load(path)
    for (name, t), (_, t2) in zip(model.named_parameters(),
                                  loaded.named_parameters()):
        np.testing.assert_array_equal(t.data, t2.data)

    assert time.perf_counter() - started < 60.0
    _announce(8, "pipeline invariants")
