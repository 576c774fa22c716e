import sys
import threading
import time

import pytest

from bitsense import _parallel
from bitsense._parallel import _map, _one_blas_thread


def test_map_raises_once_no_call_is_running(monkeypatch):
    # Call 0 raises at once while call 1 still runs: `_map` re-raises only
    # after call 1 has ended.  A call left running would outlive what its
    # caller set around the map, such as the BLAS count of
    # `_one_blas_thread`.
    monkeypatch.setattr(_parallel, "_worker_count", lambda: 2)
    _parallel._forget_pool()
    started, ended = threading.Event(), []

    def fn(item):
        if item == 0:
            assert started.wait(timeout=10.0)
            raise ArithmeticError(item)
        started.set()
        time.sleep(0.2)
        ended.append(item)

    try:
        with pytest.raises(ArithmeticError):
            _map(fn, range(2))
        assert ended == [1]
    finally:
        monkeypatch.undo()
        _parallel._forget_pool()


class TestOneBlasThread:
    def test_set_inside_and_restored_after(self, caller_blas):
        get, put = caller_blas
        put(2)
        with _one_blas_thread():
            assert get() == 1
            with _one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError), _one_blas_thread():
            raise RuntimeError("inside")
        assert get() == 2

    def test_concurrent_users_restore_the_count(self, caller_blas):
        get, put = caller_blas
        inside = []

        def user():
            for _ in range(200):
                with _one_blas_thread():
                    inside.append(get())

        interval = sys.getswitchinterval()
        threads = [threading.Thread(target=user) for _ in range(8)]
        try:
            put(2)
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert inside == [1] * (8 * 200)
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
