"""Command line interface: train, eval, sweep, params, gradcheck.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric or
contract failure (including a failed gradient check).
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import pool
from .config import (
    RunConfig,
    find_key,
    load_config,
    parse_value,
    serialize_config,
    with_values,
)
from .data import load_csv, prepare
from .errors import ConfigError, ContractError, DataError
from .model import HaKanModel, ModelConfig, count_breakdown
from .training import (
    ARRAYS_PER_PARAMETER,
    CHECK_TOLERANCE,
    evaluate,
    grad_check,
    seed_summary,
    tiny_check_config,
    train,
    train_pool,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

METRICS_COLUMNS = ("dataset", "horizon", "seed", "mse", "mae", "epochs", "seconds")

# override flag -> the config key it sets, for train and sweep
OVERRIDES = {
    "data": "data.path",
    "horizon": "model.horizon",
    "lookback": "model.lookback",
    "seed": "run.seeds",
    "seeds": "run.seeds",
    "max_epochs": "train.max_epochs",
    "batch_size": "train.batch_size",
    "lr": "train.lr",
    "out": "run.out",
}
EVAL_OVERRIDES = {"data": "data.path", "out": "run.out"}
PARAMS_OVERRIDES = {
    "blocks": "model.blocks",
    "horizon": "model.horizon",
    "lookback": "model.lookback",
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite value is caught by an op guard, the loss check,
        # Adam's check or evaluate, so numpy's own warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ContractError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hakan",
        description="Hahn-polynomial KAN forecaster: training, evaluation, ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a dataset and write metrics")
    _add_config_arg(p_train)
    _add_override_args(p_train, OVERRIDES)
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p_eval.add_argument("--checkpoint", required=True)
    _add_config_arg(p_eval)
    _add_override_args(p_eval, EVAL_OVERRIDES)
    p_eval.add_argument("--horizon", type=int, help="must match the checkpoint")
    p_eval.set_defaults(handler=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="ablation sweep along one axis")
    _add_config_arg(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help="any config key or unique key suffix "
                              "(components, mode, blocks, ...); patch_len "
                              "also sets the stride")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    _add_override_args(p_sweep, OVERRIDES)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_params = sub.add_parser("params", help="print the parameter budget")
    _add_config_arg(p_params, required=False)
    _add_override_args(p_params, PARAMS_OVERRIDES)
    p_params.set_defaults(handler=cmd_params)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference check of the backward pass")
    _add_config_arg(p_grad, required=False)
    p_grad.add_argument("--tolerance", type=float,
                        help="worst relative error allowed (default by mode)")
    p_grad.set_defaults(handler=cmd_gradcheck)

    return parser


def _add_config_arg(p, required=True):
    p.add_argument("--config", required=required, help="run config file")


def _add_override_args(p, flags: dict):
    for dest, key in flags.items():
        p.add_argument("--" + dest.replace("_", "-"), help=f"sets {key}")


def _resolve(args, flags: dict) -> RunConfig:
    """The --config file (or the defaults) with the given override flags applied."""
    cfg = load_config(args.config) if args.config else RunConfig()
    return with_values(cfg, {key: parse_value(key, getattr(args, dest))
                             for dest, key in flags.items()
                             if getattr(args, dest) is not None})


@contextmanager
def _writing(path: Path):
    """A failed write of `path`, a file under run.out, as a config error."""
    try:
        yield path
    except OSError as err:
        raise ConfigError(f"run.out: cannot write {path} ({err.strerror})") from None


def _append_metrics(path: Path, rows) -> None:
    new_file = not path.exists()
    with _writing(path), path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(row)


def _write_manifest(path: Path, cfg: RunConfig, extras: dict) -> None:
    # The manifest is itself a parseable config; results ride along as comments.
    body = serialize_config(cfg)
    notes = "".join(f"# {key} = {value}\n" for key, value in extras.items())
    with _writing(path):
        path.write_text(body + "\n" + notes, encoding="utf-8")


def _machine() -> dict:
    """The numpy, BLAS, CPU count, pool size, BLAS thread count and heap
    setting a run computed with.  The float64 bits depend on numpy and the
    BLAS, not on the CPU count, the pool size or the BLAS threads, where the
    pool pins BLAS to one thread (`run.blas_threads` 1), nor on whether
    freed heap pages stay mapped (`run.heap`); see README, Performance."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = pool.blas_threads()
    return {
        "run.numpy": np.__version__,
        "run.blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "run.cpus": len(os.sched_getaffinity(0)),
        "run.pool": pool.size(),
        "run.blas_threads": "unknown" if threads is None else threads,
        "run.heap": "retained" if pool.heap_retained() else "default",
    }


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"run.out {out} is not a usable directory ({err.strerror})")
    return out


def _require_short_names(out: Path, cfg: RunConfig, stems) -> None:
    """Refuse, before any seed trains, file names (a manifest's is longest) run.out cannot hold."""
    try:
        limit = os.pathconf(out, "PC_NAME_MAX")
    except (AttributeError, ValueError, OSError):  # no limit to read here
        return
    longest = max(len(os.fsencode(stem + ".manifest")) for stem in stems)
    if longest > limit:  # with data.name empty, the CSV's stem names the dataset
        key = "data.name" if cfg.data_name else "data.path"
        raise ConfigError(f"{key} makes file names of {longest} bytes, over run.out's {limit}")


def _train_one(cfg: RunConfig, splits, seed: int):
    model_cfg, spec = cfg.bind(splits.n_channels, seed)
    return train(HaKanModel(model_cfg), splits, spec)


def _load_splits(cfg: RunConfig, lookback: int, loaded: dict | None = None):
    """`cfg`'s dataset prepared for `lookback`; a file already in `loaded`,
    keyed by what load_csv reads, is not read again."""
    if not cfg.data_path:
        raise ConfigError("no dataset path configured (data.path)")
    loaded = {} if loaded is None else loaded
    key = (cfg.data_path, cfg.data_name or None)
    if key not in loaded:
        loaded[key] = load_csv(*key)
    return prepare(loaded[key], cfg.data, lookback)


def _require_memory(config: ModelConfig) -> None:
    """Refuse, before anything is built, a model whose train step's arrays
    (`training.ARRAYS_PER_PARAMETER` per parameter) exceed physical memory."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf here: nothing to compare
        return
    needed = ARRAYS_PER_PARAMETER * 8 * config.parameter_count()
    if needed > physical:
        raise ConfigError(f"the model's {config.parameter_count():,} parameters do not fit "
                          f"in memory: a train step holds {needed:,} bytes of parameters, "
                          f"gradients and Adam moments, the machine has {physical:,}")


def cmd_train(args) -> int:
    cfg = _resolve(args, OVERRIDES)
    if "/" in cfg.data_name:  # it starts the name of every file the run writes
        raise ConfigError(f"data.name {cfg.data_name!r} holds '/', so it cannot name a file")
    _require_memory(cfg.model)
    splits = _load_splits(cfg, cfg.model.lookback)
    out = _out_dir(cfg)
    stems = {seed: f"{splits.name}_T{cfg.model.horizon}_seed{seed}" for seed in cfg.seeds}
    _require_short_names(out, cfg, stems.values())
    records = []
    for seed, stem in stems.items():
        started = time.strftime("%Y-%m-%d %H:%M:%S")
        model, rec = _train_one(cfg, splits, seed)
        with _writing(out / f"{stem}.npz") as path:
            model.save(path)
        _write_manifest(out / f"{stem}.manifest", cfg, {
            "run.started": started,
            "run.seed": seed,
            **_machine(),
            "split.train": f"{splits.train.start}:{splits.train.end}",
            "split.val": f"{splits.val.start}:{splits.val.end}",
            "split.test": f"{splits.test.start}:{splits.test.end}",
            "result.mse": f"{rec.mse:.6f}",
            "result.mae": f"{rec.mae:.6f}",
            "result.epochs": rec.epoch_stopped,
            "result.seconds": f"{rec.wall_time:.1f}",
        })
        _append_metrics(out / "metrics.csv", [
            (rec.dataset, rec.horizon, rec.seed, f"{rec.mse:.6f}",
             f"{rec.mae:.6f}", rec.epoch_stopped, f"{rec.wall_time:.1f}")
        ])
        print(f"{rec.dataset} T={rec.horizon} seed={rec.seed} "
              f"mse={rec.mse:.4f} mae={rec.mae:.4f} "
              f"epochs={rec.epoch_stopped} {rec.wall_time:.1f}s")
        records.append(rec)
    if len(records) > 1:
        mse, mse_std, mae, mae_std = seed_summary(records)
        horizon = cfg.model.horizon
        _append_metrics(out / "metrics.csv", [
            (splits.name, horizon, "mean", f"{mse:.6f}", f"{mae:.6f}", "", ""),
            (splits.name, horizon, "std", f"{mse_std:.6f}", f"{mae_std:.6f}", "", ""),
        ])
        print(f"{splits.name} T={horizon} over {len(records)} seeds: "
              f"mse={mse:.4f}±{mse_std:.4f} mae={mae:.4f}±{mae_std:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = HaKanModel.load(args.checkpoint)
    cfg = _resolve(args, EVAL_OVERRIDES)
    if args.horizon is not None and args.horizon != model.config.horizon:
        raise ConfigError(
            f"checkpoint was trained for horizon {model.config.horizon}, "
            f"requested {args.horizon}"
        )
    splits = _load_splits(cfg, model.config.lookback)
    if splits.n_channels != model.config.n_channels:
        raise ConfigError(
            f"checkpoint expects {model.config.n_channels} channels, "
            f"dataset {splits.name} has {splits.n_channels}"
        )
    mse, mae = evaluate(model, splits, splits.test, cfg.train.batch_size)
    print(f"{splits.name} T={model.config.horizon} test "
          f"mse={mse:.4f} mae={mae:.4f}")
    out = _out_dir(cfg)
    _append_metrics(out / "metrics.csv", [
        (splits.name, model.config.horizon, model.config.seed,
         f"{mse:.6f}", f"{mae:.6f}", "", "")
    ])
    return EXIT_OK


def _axis_variants(axis: str, values: str):
    """Yield (label, {config key: value}) pairs for a sweep axis."""
    items = [v.strip() for v in values.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"--values {values!r} names no value")
    if axis == "patch_len":
        for v in items:
            p = parse_value("model.patch_len", v)
            yield v, {"model.patch_len": p, "model.stride": max(1, p // 2)}
    else:
        key = find_key(axis)
        for v in items:
            yield v, {key: parse_value(key, v)}


def cmd_sweep(args) -> int:
    base = _resolve(args, OVERRIDES)
    variants = [(label, with_values(base, changes))
                for label, changes in _axis_variants(args.axis, args.values)]
    loaded = {}
    for _, cfg in variants:  # a bad later value fails before anything trains
        _require_memory(cfg.model)
        train_pool(_load_splits(cfg, cfg.model.lookback, loaded), cfg.model.lookback,
                   cfg.model.horizon)
    out = _out_dir(base)
    rows = []
    for label, cfg in variants:
        splits = _load_splits(cfg, cfg.model.lookback, loaded)
        records = []
        for seed in cfg.seeds:
            _, rec = _train_one(cfg, splits, seed)
            records.append(rec)
            print(f"  [{args.axis}={label}] seed={seed} "
                  f"mse={rec.mse:.4f} mae={rec.mae:.4f}")
        mse, _, mae, _ = seed_summary(records)
        rows.append((label, mse, mae, cfg.model.parameter_count()))
    print(f"\n{args.axis:<12}{'mse':>10}{'mae':>10}{'params':>12}")
    for label, mse, mae, params in rows:
        print(f"{label:<12}{mse:>10.4f}{mae:>10.4f}{params:>12,}")
    with _writing(out / f"sweep_{args.axis}.csv") as path, path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((args.axis, "mse", "mae", "params"))
        writer.writerows(rows)
    return EXIT_OK


def cmd_params(args) -> int:
    config = _resolve(args, PARAMS_OVERRIDES).model
    rows = [(name if copies == 1 else f"{copies:,} x {name}", count)
            for name, count, copies in count_breakdown(config)]
    rows.append(("total", config.parameter_count()))
    width = max(len(label) for label, _ in rows)
    digits = max(12, len(f"{rows[-1][1]:,}"))
    for label, count in rows:
        print(f"{label:<{width}}  {count:>{digits},}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    base = load_config(args.config).model if args.config else None
    check_cfg = tiny_check_config(base)
    tolerance = CHECK_TOLERANCE[check_cfg.mode] if args.tolerance is None else args.tolerance
    if not 0.0 <= tolerance < float("inf"):
        raise ConfigError(f"--tolerance must be finite and at least 0, got {tolerance}")
    print(f"checking {check_cfg.basis.lower()} degree {check_cfg.degree}, {check_cfg.mode} mode")
    report = grad_check(check_cfg)
    worst_name, worst = max(report.items(), key=lambda kv: kv[1])
    for name, err in report.items():
        print(f"{name:<24} {err:.3e}")
    ok = worst <= tolerance
    print(f"gradcheck {'PASS' if ok else 'FAIL'}: worst {worst:.3e} in {worst_name} "
          f"(tolerance {tolerance:.1e})")
    return EXIT_OK if ok else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
