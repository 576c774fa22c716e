"""Fixtures shared by the test modules."""

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
