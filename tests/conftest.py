"""Fixtures shared by the test modules."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from bitsense import rng


@pytest.fixture
def caller_blas():
    """The calling thread's view of numpy's OpenBLAS thread count, as
    ``(get, put)``: ``put(t)`` sets it, ``get()`` reads it.  The count from
    before the test is put back after it, also when the test fails; the
    test skips where the count is not reachable (another BLAS)."""
    calls = rng._openblas()
    if calls is None:
        pytest.skip("numpy's BLAS thread count is not reachable")
    get, put, _ = calls
    before = get()
    yield get, put
    put(before)


@pytest.fixture
def sampler_pool():
    """``resize(workers)`` gives the sampler a fresh pool of that many
    workers, for the rest of the test or until the next resize.  A fresh
    pool of the default size follows the test, also when it fails."""
    with pytest.MonkeyPatch.context() as patch:
        def resize(workers):
            patch.setattr(rng, "_worker_count", lambda: workers)
            rng._forget_pool()

        yield resize
    rng._forget_pool()


@pytest.fixture
def wide_pool(sampler_pool):
    """``callers(call, args)``: ``(serial, wide)``, two lists of
    ``call(arg)`` for each of ``args``.  ``serial`` runs the calls one by one
    on a one-worker pool.  ``wide`` runs them at once, one calling thread
    per arg, on a pool of 2 * cores + 1 workers, switching threads every
    10 us.  The switch interval comes back after the calls, and the default
    pool after the test, also when it fails."""
    wide = 2 * rng._worker_count() + 1

    def callers(call, args):
        sampler_pool(1)
        serial = [call(arg) for arg in args]
        sampler_pool(wide)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            with ThreadPoolExecutor(max_workers=len(args)) as threads:
                futures = [threads.submit(call, arg) for arg in args]
                return serial, [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)

    return callers
