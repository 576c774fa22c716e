"""The package's one thread pool and its one binding of numpy's OpenBLAS.

The pool is the one parallel layer of ``run``, ``validate`` and ``raic``,
whose BLAS products run on one thread under `_one_blas_thread` (the reason
is measured there), as a bare `biht.run_biht`'s do; the dense step of such
a run keeps to the calling thread.  Work goes to it through
one helper, `_map`, which lists its users and is the one place that hands
scratch to its tasks.  The pool has one worker per usable CPU and is made
on first use; a forked child makes its own.

`_openblas` finds and binds the OpenBLAS library that numpy bundles, once:
its thread count for `_one_blas_thread`, its core name for `_openblas_core`.
This module imports no other module of the package.
"""

from __future__ import annotations

import ctypes
import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# Set on the pool's own threads (the executor's initializer).
_on_pool = threading.local()


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mark_pool_thread() -> None:
    _on_pool.worker = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_worker_count(), thread_name_prefix="bitsense",
                initializer=_mark_pool_thread,
            )
        return _pool


def _map(fn, items, scratch=None) -> list:
    """``[fn(item) for item in items]``, run on the pool when that can help.

    Called on one of the pool's own threads, or with fewer than two items,
    it runs serially in the calling thread: a pool task that waited on the
    pool could wait for ever, once every worker is busy with such tasks.
    Otherwise the items go to the pool and the results come back in item
    order; reading them re-raises the first worker's exception in item
    order here, once the calls not yet started are cancelled and the
    running ones have ended.  So no call outlives `_map`, nor a
    `_one_blas_thread` it holds: a trial that raised would otherwise leave
    the other trials' runs holding the BLAS count at 1 after
    `montecarlo.convergence_trials` raised.  The pool's four users, each
    named by the function that calls `_map`: the sampler's tiles
    (`rng._stream`), the certifier's pair blocks (`raic.raic_certify`), the
    battery's validators (`montecarlo.run_validator_suite`) and the
    convergence trials (`montecarlo.convergence_trials`); the last three
    draw serially on their pool threads.  Each measured faster than its
    serial form.  The row blocks of a bare solver run's dense correction
    did not, so `core.MeasurementMatrix.t_dot` sums them in the calling
    thread (measured in `BENCH_39.json`).

    With ``scratch``, a function of no arguments that makes a block, each
    call is ``fn(item, block)``.  The blocks, one for each call that can run
    at once, are made here in the calling thread and handed from call to
    call, also by a call that raises.  Made on the pool's threads, they
    would stay in those threads' malloc arenas after the call.  At the
    acceptance config (2 vCPU), a `run` whose trials ran one by one peaked
    2-3 MB higher with `rng._stream`'s tile blocks made on the pool's threads,
    and the `converge` benchmark's `run`s 5.0-9.8 MB higher with each
    trial's 4 MB dense block made in the trial.
    """
    items = list(items)
    serial = len(items) < 2 or getattr(_on_pool, "worker", False)
    if scratch is not None:
        free = queue.SimpleQueue()
        for _ in range(min(len(items), 1 if serial else _worker_count())):
            free.put(scratch())
        fn = functools.partial(_with_block, fn, free)
    if serial:
        return [fn(item) for item in items]
    pool = _executor()
    futures = [pool.submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    except BaseException:
        # The calls not started are dropped, and the running ones end
        # before `_map` does.
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _with_block(fn, free, item):
    # `_map`'s call with scratch: a block from ``free``, given back after.
    block = free.get()
    try:
        return fn(item, block)
    finally:
        free.put(block)


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads, and
    # the lock in whatever state another thread left it.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads, get_corename) of the OpenBLAS that
    numpy bundles, bound once, or None where numpy uses another BLAS or the
    library is not found.  The one place the package reaches that library:
    the thread count for `_one_blas_thread`, the core name for
    `_openblas_core`."""
    here = Path(np.__file__).resolve().parent
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                        *here.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded: the same library
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                calls = [getattr(lib, f"{prefix}{name}{suffix}", None)
                         for name in ("get_num_threads", "set_num_threads", "get_corename")]
                if None not in calls:
                    get, put, core = calls
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    core.argtypes, core.restype = [], ctypes.c_char_p
                    return get, put, core
    return None


@functools.cache
def _openblas_core():
    """The name of the OpenBLAS core this process runs (say ``SkylakeX``),
    which fixes the last bits of every BLAS product; None where `_openblas`
    finds no library."""
    calls = _openblas()
    return None if calls is None else calls[2]().decode()


_blas_lock = threading.Lock()
_blas_users = 0  # callers inside _one_blas_thread
_blas_saved = 0  # the count to restore when the last one leaves


@contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the caller's count.

    The count is OpenBLAS's, one for the whole process, so nested and
    concurrent users share one setting and the last to leave restores it;
    a thread that makes BLAS products outside this context meanwhile runs
    them on one thread too.  Where the count cannot be reached (another
    BLAS), the body runs at whatever the BLAS uses.

    Why: after a product on two OpenBLAS threads the idle worker busy-waits
    on a core, and a pool draw that follows shares that core with it.  A
    10000 x 200 matrix draw on 2 vCPU (OpenBLAS 0.3.31), medians of 25 in
    two sets: 30-36 ms with no product before it, 48-60 ms right after one
    two-thread ``A.T @ r``, 29-32 ms after the same product on one thread,
    34 ms after the two-thread product and a 0.3 s sleep, and 45 ms with
    the count set to 1 only around the draw.  So the count is set around
    the products of a whole pipeline, not around its draws.  The products
    themselves are small (matrix-vector products over 4 MB row blocks in
    a solver step, 512-row blocks in the certifier), and one thread also
    keeps their last bits independent of the core count: two-thread
    products round some results differently.  A bare `biht.run_biht` runs
    inside it as well: with two BLAS threads its idle worker busy-waited
    between products, so the `solve` benchmark read ``cpu_s`` at about
    twice ``run_s``.  Its dense first step sums its row blocks one after
    another in the calling thread (`core.MeasurementMatrix.t_dot`): on the
    pool they cost ``cpu_s`` and did not lower ``run_s`` (`BENCH_39.json`).
    """
    global _blas_users, _blas_saved
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put, _ = calls
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)
