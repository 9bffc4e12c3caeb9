"""One pool of worker threads for the KAN layers, `predict` and the head.

The pool has one worker per CPU this process may run on, and the thread
that calls `map` is one of them.  The others are the threads of a
`concurrent.futures.ThreadPoolExecutor`, made at the first parallel `map`.
A `map` of n items submits min(size, n) - 1 helpers; each helper and the
caller run one loop that takes the next unclaimed item until none is left,
so a helper the executor has not started by then is cancelled.  Helpers
run in a copy of the caller's context, so a task sees the caller's numpy
error state (`np.errstate`).  `map` runs its items inline, in order, when
there is one item, when the pool has one worker, and when the caller is
itself a task thread, so a task that calls `map` again never waits on the
pool.

Tasks are numpy calls that release the interpreter lock; BLAS runs one
thread per call, so two tasks never compete for the BLAS threads.  The
route is numpy's bundled OpenBLAS (`scipy_openblas_set_num_threads64_`
through ctypes).  Where that library is missing the pool has one worker
and BLAS keeps its own threads, the serial behaviour.

Callers split work into pieces whose shapes never depend on the pool size,
and each piece computes the same bits on any thread, so results are
bitwise the same for any CPU count.  A task writes into its piece of an
array its caller allocated, rather than returning an array of its own.

A task's working memory is its thread's scratch (`scratch`): "task" for a
KAN layer's run or a slice of Adam's update, "basis" for a basis call's blocks.

Making the pool also keeps freed heap pages mapped (`_retain_heap`): a
train step frees and reallocates its activations, which glibc would
otherwise hand back to the kernel and fault in again at the next step.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

_local = threading.local()  # .working: a task thread; .scratch: {name: array}


def _openblas():
    """numpy's bundled OpenBLAS, or None where numpy was built against another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


# glibc's mallopt options (malloc.h) and the values `_retain_heap` sets: the
# free top of the heap kept mapped, and the size from which a request gets
# its own mapping, returned to the kernel when freed (32 MiB, where glibc's
# own sliding threshold stops, and the most older glibc releases accept).
# A train-l336 activation is ~11 MB and `w_down`'s gradient 14.5 MB, so a
# train step takes everything from the heap; a batch-1024 activation (44 MB,
# configs/ettm1.cfg) still gets its own mapping.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 256 << 20
MMAP_THRESHOLD = 32 << 20


def _retain_heap() -> bool:
    """Raise glibc's mmap and trim thresholds; False where libc has no
    mallopt or refuses one.

    The mmap threshold, the value a libc may refuse, is set first and the
    trim threshold only once it is taken, so a refusal leaves both at their
    defaults (glibc takes every trim threshold).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


class Pool:
    """`size` workers: the calling thread and an executor of size - 1 threads."""

    def __init__(self, size: int):
        self.size = max(1, int(size))
        self._executor = None  # made at the first parallel `map`

    def map(self, fn, items) -> list:
        """[fn(item) for item in items], the items spread over the workers.

        The first exception in item order is raised once every item has run.
        """
        items = list(items)
        if len(items) < 2 or self.size < 2 or getattr(_local, "working", False):
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(self.size - 1, initializer=_mark_working)
        out = [None] * len(items)
        errors = {}
        claims = iter(range(len(items)))
        lock = threading.Lock()

        def work():  # each worker takes the next unclaimed item until none is left
            while True:
                with lock:
                    i = next(claims, None)
                if i is None:
                    return
                try:
                    out[i] = fn(items[i])
                except BaseException as err:  # handed to the caller below
                    errors[i] = err

        # each helper runs in a copy of the caller's context, which holds
        # numpy's error state (`np.errstate`)
        helpers = [self._executor.submit(contextvars.copy_context().run, work)
                   for _ in range(min(self.size, len(items)) - 1)]
        _local.working = True
        try:
            work()
        finally:
            _local.working = False
            for helper in helpers:  # a helper still queued has nothing left to take
                if not helper.cancel():
                    helper.result()
            # an executor thread drops `work` in its own time: the tasks, their
            # items and results are dropped here, before the caller allocates
            results, fn, items, out = out, None, None, None
        if errors:
            raise errors[min(errors)]
        return results

    def shutdown(self) -> None:
        """Stop the pool's threads once they finish the work they hold."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def _mark_working() -> None:
    _local.working = True


_BLAS = None  # (set, get) of numpy's OpenBLAS thread count, once looked up
_HEAP = False  # whether `_retain_heap` took effect
_POOL = None


def get() -> Pool:
    """The process's pool, made at first use; making it pins BLAS to one
    thread and keeps freed heap pages mapped."""
    global _BLAS, _HEAP, _POOL
    if _POOL is None:
        _BLAS = _openblas() or ()
        if _BLAS:
            _BLAS[0](1)
        _HEAP = _retain_heap()
        _POOL = Pool(len(os.sched_getaffinity(0)) if _BLAS else 1)
    return _POOL


def map(fn, items) -> list:
    """`Pool.map` on the process's pool."""
    return get().map(fn, items)


def size() -> int:
    return get().size


def blas_threads() -> int | None:
    """The BLAS thread count, or None where the BLAS cannot be asked."""
    get()
    return _BLAS[1]() if _BLAS else None


def heap_retained() -> bool:
    """Whether freed heap pages stay mapped (glibc's mallopt took both thresholds)."""
    get()
    return _HEAP


def scratch(name: str, n: int) -> np.ndarray:
    """n float64 elements owned by the calling thread under `name`.

    Valid until the thread's next `scratch(name, ...)`; callers that nest
    use different names.  Grown, never shrunk, so a thread that walks
    blocks of one size allocates once.
    """
    bufs = _local.__dict__.setdefault("scratch", {})
    buf = bufs.get(name)
    if buf is None or buf.size < n:
        buf = bufs[name] = np.empty(n)
    return buf[:n]


@contextmanager
def _sized(n: int):
    """Run the block on a pool of n workers (a test hook); BLAS stays pinned."""
    global _POOL
    previous = get()
    _POOL = Pool(n)
    try:
        yield _POOL
    finally:
        _POOL.shutdown()
        _POOL = previous
