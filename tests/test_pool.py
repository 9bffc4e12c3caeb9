"""The worker pool: an ordered map, inline nesting, exact counters, and bits
that do not depend on the pool size or on the CPU count."""

import csv
import os
import platform
import subprocess
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import hakan.tensor as tt
from hakan import cli, pool
from hakan.basis import make_basis
from hakan.data import SegmentBounds, SplitSpec, load_csv, prepare
from hakan.model import HaKanModel, ModelConfig
from hakan.tensor import Tensor
from hakan.training import Adam, evaluate, mse_loss

from helpers import REPO_ROOT, write_synthetic_csv


def test_map_returns_results_in_item_order():
    with pool._sized(3) as p:
        assert p.map(lambda i: i * i, range(50)) == [i * i for i in range(50)]


def test_map_raises_the_first_failure_in_item_order_after_every_item_ran():
    ran = []

    def task(i):
        ran.append(i)
        if i in (3, 7):
            raise ValueError(str(i))
        return i

    with pool._sized(2) as p:
        with pytest.raises(ValueError, match="^3$"):
            p.map(task, range(10))
    assert sorted(ran) == list(range(10))


def test_a_task_that_maps_runs_its_items_on_its_own_thread():
    def outer(_):
        return set(p.map(lambda _: threading.get_ident(), range(4))) == {threading.get_ident()}

    with pool._sized(2) as p:
        assert all(p.map(outer, range(6)))


def test_each_worker_has_its_own_scratch():
    both = threading.Barrier(2, timeout=10)  # the two items run on two threads at once

    def task(_):
        both.wait()
        first = pool.scratch("test", 8)
        assert pool.scratch("test", 4).base is first.base  # reused, not reallocated
        return first.__array_interface__["data"][0]

    with pool._sized(2) as p:
        a, b = p.map(task, range(2))
    assert a != b


def test_map_lets_go_of_its_tasks_while_a_helper_is_still_queued():
    # the executor's thread is busy, so the map's helper stays queued, with
    # the map's items and results, until that thread is free; the caller
    # frees them when it lets go of them, not whenever that thread does
    release = threading.Event()
    with pool._sized(2) as p:
        p.map(lambda i: i, range(2))  # makes the executor
        busy = p._executor.submit(release.wait, 10)
        try:
            item, result = np.ones(3), np.ones(3)
            refs = weakref.ref(item), weakref.ref(result)
            assert all(r is result for r in p.map(lambda _, r=result: r, [item, item]))
            del item, result
            assert [ref() for ref in refs] == [None, None]
        finally:
            release.set()
            assert busy.result(timeout=10)


def test_tasks_run_in_the_callers_numpy_error_state():
    both = threading.Barrier(2, timeout=10)  # the two items run on two threads at once

    def task(_):
        both.wait()
        return threading.get_ident(), np.geterr()

    with pool._sized(2) as p, np.errstate(all="ignore"):
        seen = p.map(task, range(2))
        caller = np.geterr()
    assert caller != np.geterr()
    assert len({ident for ident, _ in seen}) == 2
    assert [err for _, err in seen] == [caller, caller]


def test_threads_start_at_the_first_parallel_map_and_stop_on_leaving():
    before = threading.active_count()
    all_three = threading.Barrier(3, timeout=10)  # each map's three items run at once

    def task(_):
        all_three.wait()
        return threading.get_ident(), threading.active_count()

    with pool._sized(3) as p:
        assert p.map(lambda i: i, [0]) == [0]  # one item runs inline
        assert threading.active_count() == before
        seen = set()
        for _ in range(10):
            seen |= set(p.map(task, range(3)))
        helpers = {ident for ident, _ in seen} - {threading.get_ident()}
        assert len(helpers) == p.size - 1
        assert max(count for _, count in seen) == before + p.size - 1
    assert threading.active_count() == before


def test_without_openblas_the_pool_has_one_worker(monkeypatch):
    # numpy built against another BLAS: nothing pins its threads, so the
    # pool stays serial and the manifest says the thread count is unknown
    monkeypatch.setattr(pool, "_openblas", lambda: None)
    monkeypatch.setattr(pool, "_POOL", None)
    monkeypatch.setattr(pool, "_BLAS", None)
    assert pool.size() == 1
    assert pool.blas_threads() is None
    machine = cli._machine()
    assert machine["run.pool"] == 1
    assert machine["run.blas_threads"] == "unknown"


class _Libc:
    """A libc whose mallopt takes the first `accepts` calls and refuses the rest."""

    def __init__(self, accepts):
        self.calls = []

        def mallopt(option, value):  # a function, so ctypes attributes can be set on it
            self.calls.append(option)
            return int(len(self.calls) <= accepts)

        self.mallopt = mallopt


@pytest.mark.parametrize("accepts", [None, 0, 1], ids=["no-mallopt", "refused", "refused-second"])
def test_without_mallopt_the_heap_keeps_its_defaults(monkeypatch, accepts):
    # a libc with no mallopt, or one that refuses a threshold: the pool is
    # made all the same and the manifest says the heap has its defaults
    libc = SimpleNamespace() if accepts is None else _Libc(accepts)
    monkeypatch.setattr(pool.ctypes, "CDLL", lambda name: libc)
    for name in ("_POOL", "_BLAS", "_HEAP"):
        monkeypatch.setattr(pool, name, None)
    assert not pool.heap_retained()
    assert cli._machine()["run.heap"] == "default"
    if accepts == 0:  # a refused mmap threshold leaves the trim threshold alone
        assert libc.calls == [pool.M_MMAP_THRESHOLD]


def test_a_libc_that_takes_both_thresholds_retains_the_heap(monkeypatch):
    libc = _Libc(2)
    monkeypatch.setattr(pool.ctypes, "CDLL", lambda name: libc)
    for name in ("_POOL", "_BLAS", "_HEAP"):
        monkeypatch.setattr(pool, name, None)
    assert pool.heap_retained()
    assert libc.calls == [pool.M_MMAP_THRESHOLD, pool.M_TRIM_THRESHOLD]


def test_basis_count_is_exact_under_contention():
    # more workers than CPUs and a short switch interval: a lost update of
    # eval_count would show as a short count
    basis = make_basis("hahn", 3)
    x = np.zeros((1, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pool._sized(2 * len(os.sched_getaffinity(0)) + 2) as p:
            p.map(lambda _: basis.eval_terms(x), range(5_000))
    finally:
        sys.setswitchinterval(interval)
    assert basis.eval_count == 10_000


# A model whose KAN layers span several runs and whose head spans several
# column tiles: lookback 96 gives 12 patches, so a batch of 128 is 6 cache
# blocks on the embedding axis and 7 on the patch axis.
BIT_CONFIG = ModelConfig(lookback=96, horizon=8, n_channels=11, n_blocks=2,
                         bottleneck_dim=96, seed=21)


def _run(size, splits) -> list:
    """Every float a short session computes on a pool of `size` workers."""
    rng = np.random.default_rng(22)
    with pool._sized(size):
        model = HaKanModel(BIT_CONFIG)
        optimizer = Adam(model.parameters(), lr=1e-3)
        seen = []
        for _ in range(3):
            x = rng.normal(size=(128, 96)).cumsum(axis=1)
            loss = mse_loss(model.forward_batch(x), Tensor(rng.normal(size=(128, 8))))
            tt.backward(loss)
            seen += [loss.data] + [p.grad.copy() for p in model.parameters()]
            optimizer.step()
            optimizer.zero_grad()
        seen += [p.data for p in model.parameters()]
        seen.append(np.array(evaluate(model, splits, SegmentBounds(
            splits.test.start, splits.test.start + 96 + 8 - 1 + 40), batch_size=512)))
        seen.append(model.predict(splits.values[splits.test.start:splits.test.start + 96]))
    return seen


def test_pool_size_changes_no_bit(tmp_path):
    path = write_synthetic_csv(tmp_path / "series.csv", rows=900, channels=11)
    splits = prepare(load_csv(path), SplitSpec("ratio"), lookback=96)
    one, two = _run(1, splits), _run(2, splits)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.tobytes() == b.tobytes()


# Three train steps with an `evaluate` and an 11-channel `predict` (two
# chunk tasks) between them, after two warm-up rounds, in a fresh process:
# glibc raises its own thresholds as large blocks are freed, so a process
# that has run other tests hides the faults.  Each activation is 1.5 MB (128
# windows of 12 patches by 128).
FAULT_PROBE = """
import resource, sys
from pathlib import Path
import numpy as np
import hakan.tensor as tt
from hakan import pool
from hakan.data import SegmentBounds, SplitSpec, load_csv, prepare
from hakan.model import HaKanModel
from hakan.training import Adam, evaluate, mse_loss
from helpers import write_synthetic_csv
from test_pool import BIT_CONFIG

splits = prepare(load_csv(write_synthetic_csv(Path(sys.argv[1]), rows=900, channels=11)),
                 SplitSpec("ratio"), lookback=96)
bounds = SegmentBounds(splits.test.start, splits.test.start + 96 + 8 - 1 + 40)
window = splits.values[splits.test.start:splits.test.start + 96]
rng = np.random.default_rng(23)
x, y = rng.normal(size=(128, 96)).cumsum(axis=1), rng.normal(size=(128, 8))
model = HaKanModel(BIT_CONFIG)
optimizer = Adam(model.parameters(), lr=1e-3)

def step():
    tt.backward(mse_loss(model.forward_batch(x), y))
    optimizer.step()
    optimizer.zero_grad()

def serve():
    evaluate(model, splits, bounds, batch_size=128)
    model.predict(window)

for _ in range(2):
    step()
    serve()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step()
serve()
step()
serve()
step()
print(pool.heap_retained(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_train_steps_and_evaluate_map_no_new_pages(tmp_path):
    # with the pool's thresholds, freed activations stay mapped; with
    # glibc's own, the steps fault ~10,000 pages back in
    path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tmp_path / "series.csv")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    retained, faults = proc.stdout.split()
    assert retained == "True"
    assert int(faults) < 100


TRAIN_CONFIG = """\
data.split = ratio
run.seeds = 3
model.lookback = 96
model.horizon = 8
model.patch_len = 16
model.stride = 8
model.embed_dim = 128
model.blocks = 2
model.bottleneck = 96
model.degree = 3
train.max_epochs = 1
train.batch_size = 128
"""


def test_pool_tasks_keep_the_clis_numpy_error_state(tmp_path, capsys):
    # the second step's forward overflows in the head's column tiles on a
    # pool thread; the CLI silences numpy's warnings and reports the op guard
    data = write_synthetic_csv(tmp_path / "series.csv", rows=400, channels=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.path = {data}\ndata.name = s\nrun.out = {tmp_path / 'out'}\n"
                   + TRAIN_CONFIG)
    with pool._sized(2):
        code = cli.main(["train", "--config", str(cfg), "--lr", "1e300"])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == ("numeric error: epoch 1 step 2: "
                                       "operation produced non-finite values\n")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_train_bits_do_not_depend_on_the_cpu_count(tmp_path):
    data = write_synthetic_csv(tmp_path / "series.csv", rows=400, channels=2)
    cpus = os.sched_getaffinity(0)
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    outs = {}
    for name, allowed in (("one", {min(cpus)}), ("all", cpus)):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"data.path = {data}\ndata.name = s\nrun.out = {out}\n{TRAIN_CONFIG}")
        proc = subprocess.run(
            [sys.executable, "-m", "hakan.cli", "train", "--config", str(cfg)], env=env,
            preexec_fn=lambda allowed=allowed: os.sched_setaffinity(0, allowed),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs[name] = out
    one, all_ = (np.load(outs[k] / "s_T8_seed3.npz") for k in ("one", "all"))
    with one, all_:
        assert sorted(one.files) == sorted(all_.files)
        for key in one.files:
            assert one[key].tobytes() == all_[key].tobytes(), key

    def metrics(out):  # the wall-time column is a clock reading, not a result
        with open(out / "metrics.csv", newline="") as fh:
            return [{k: v for k, v in row.items() if k != "seconds"}
                    for row in csv.DictReader(fh)]

    assert metrics(outs["one"]) == metrics(outs["all"])
    pools = [next(line for line in (outs[k] / "s_T8_seed3.manifest").read_text().splitlines()
                  if line.startswith("# run.pool = ")) for k in ("one", "all")]
    assert pools == ["# run.pool = 1", f"# run.pool = {len(cpus)}"]
