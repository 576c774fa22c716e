import os
import sys
import threading
import time

import numpy as np
import pytest

from bitsense import _parallel
from bitsense._parallel import _map, _one_blas_thread
from test_rng import in_forked_child


class TestMapScratch:
    """`_map` with ``scratch``: the blocks are made in the calling thread,
    one per call that can run at once, and handed from call to call."""

    @staticmethod
    def recorder():
        made, used = [], []

        def scratch():
            made.append((threading.get_ident(), np.zeros(3)))
            return made[-1][1]

        def fn(item, block):
            used.append((threading.get_ident(), id(block)))
            return item * item

        return made, used, scratch, fn

    @pytest.mark.parametrize("count, workers, blocks", [(5, 2, 2), (2, 3, 2), (7, 1, 1)])
    def test_one_block_per_call_that_can_run_at_once(self, count, workers, blocks,
                                                     monkeypatch):
        monkeypatch.setattr(_parallel, "_worker_count", lambda: workers)
        made, used, scratch, fn = self.recorder()
        assert _map(fn, range(count), scratch) == [i * i for i in range(count)]
        assert len(made) == blocks
        assert {thread for thread, _ in made} == {threading.get_ident()}
        assert len(used) == count
        assert {block for _, block in used} <= {id(block) for _, block in made}

    def test_serial_items_get_one_block(self):
        made, used, scratch, fn = self.recorder()
        assert _map(fn, [3], scratch) == [9]
        assert len(made) == 1 and made[0][0] == threading.get_ident()
        assert _map(fn, [], scratch) == [] and len(made) == 1

    def test_a_call_on_a_pool_thread_makes_one_block_there(self):
        made, used, scratch, fn = self.recorder()
        got = _map(lambda i: (threading.get_ident(), _map(fn, range(i, i + 4), scratch)),
                   range(0, 8, 4))
        assert [squares for _, squares in got] == [[i * i for i in range(j, j + 4)]
                                                   for j in (0, 4)]
        assert sorted(thread for thread, _ in made) == sorted(thread for thread, _ in got)
        assert {thread for thread, _ in used} <= {thread for thread, _ in got}

    def test_no_block_serves_two_calls_at_once(self, wide_pool):
        # More workers than cores and frequent thread switches: a call that
        # shared its block with another would see the other's mark in it.
        def fn(item, block):
            block[0] = item
            for _ in range(20):
                time.sleep(0)
                if block[0] != item:
                    return False
            return True

        want, got = wide_pool(lambda count: _map(fn, range(count), lambda: np.zeros(1)),
                              [300])
        assert want == got == [[True] * 300]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_call_that_raises_hands_its_block_on(self):
        # Two blocks on a two-thread pool.  Call 0 holds one until call 2
        # has run; call 1 raises, and call 2 can only run on the block call
        # 1 held.  Had call 1 kept it, call 2 would wait for ever.  Run in a
        # child, which can be killed if it hangs.
        def raise_in_between():
            _parallel._worker_count = lambda: 2
            _parallel._forget_pool()
            made, used, scratch, record = self.recorder()
            ran, waited = threading.Event(), []

            def fn(item, block):
                record(item, block)
                if item == 0:
                    waited.append(ran.wait(timeout=10.0))
                elif item == 1:
                    raise ArithmeticError(item)
                else:
                    ran.set()

            try:
                _map(fn, range(3), scratch)
            except ArithmeticError as exc:
                return exc.args == (1,) and waited == [True] and len(made) == 2
            return False

        in_forked_child(raise_in_between, "a map with a call that raises")


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
