import math
import os
import re
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import bitsense.rng as rng
from bitsense.rng import (
    _CHUNK,
    _GOLDEN,
    _MASK64,
    _MIX1,
    _MIX2,
    SeedSpec,
    _derive_rows,
    _mix,
    _one_blas_thread,
    _stream_key,
    _stream_keys,
    derive_seed,
    random_uniform_rows,
    sample_standard_normal,
    sample_standard_normal_block,
    sample_standard_normal_rows,
    splitmix64,
)


def in_forked_child(body, what, seconds=30.0):
    """Run ``body()`` in a forked child and fail unless it returns True
    within ``seconds``; a child that hangs is killed."""
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = bool(body())
        finally:
            os._exit(0 if ok else 3)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail(f"{what} did not finish in {seconds} s")
    assert os.waitstatus_to_exitcode(status) == 0


class TestSeedDerivation:
    def test_distinct_streams(self):
        s = SeedSpec(12345, 6)
        assert derive_seed(s, 0) != derive_seed(s, 1)

    def test_deterministic(self):
        s = SeedSpec(987654321, 11)
        assert derive_seed(s, 42) == derive_seed(s, 42)

    def test_no_duplicates_in_ten_thousand(self):
        s = SeedSpec(2024)
        children = {derive_seed(s, i) for i in range(10_000)}
        assert len(children) == 10_000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(SeedSpec(1), -1)

    @pytest.mark.parametrize("index", [2**64, 2**64 + 5, 2**70, 1.0, 5.5, "5", True])
    def test_index_outside_the_injective_range_rejected(self, index):
        # The counter step wraps mod 2^64: unchecked, 2**64 named child 0
        # again and 2**64 + 5 child 5.  A float failed with a bare TypeError.
        base = SeedSpec(12345, 6)
        if type(index) is int:
            message = f"index must be an integer in [0, {_MASK64}], got {index!r}"
        else:
            message = f"index must be an integer, got {index!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_seed(base, index)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _derive_rows(base, index)

    def test_top_and_numpy_indices_accepted(self):
        base = SeedSpec(12345, 6)
        assert derive_seed(base, np.uint64(_MASK64)) == derive_seed(base, _MASK64)
        assert derive_seed(base, np.int64(5)) == derive_seed(base, 5)
        assert derive_seed(base, _MASK64) != derive_seed(base, 0)

    def test_seed_fields_validated(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, 1 << 64)

    @pytest.mark.parametrize(
        "fields, name",
        [((1.5,), "base_seed"), ((2.0,), "base_seed"), ((np.float64(3.0),), "base_seed"),
         (("4",), "base_seed"), ((0, 2.0), "stream_id"), ((0, "4"), "stream_id")],
    )
    def test_seed_fields_that_are_not_integers_rejected(self, fields, name):
        # Unchecked, a float failed at its first draw with a bare TypeError
        # from ^, and a string with one from <=.
        message = f"seed field {name} must be an integer, got {fields[-1]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SeedSpec(*fields)

    def test_numpy_integer_seed_fields_draw_as_python_ints(self):
        # Held as numpy integers, the mixing rounds overflowed.
        for fields in ((np.uint64(5), np.int64(3)), (np.int64(5), np.uint64(_MASK64))):
            seed = SeedSpec(*fields)
            plain = SeedSpec(*map(int, fields))
            assert seed == plain
            assert type(seed.base_seed) is int and type(seed.stream_id) is int
            assert derive_seed(seed, 1) == derive_seed(plain, 1)
            assert sample_standard_normal(seed, 5).tobytes() == (
                sample_standard_normal(plain, 5).tobytes()
            )

    def test_splitmix_is_bijection_locally(self):
        outs = {splitmix64(z) for z in range(4096)}
        assert len(outs) == 4096


U64 = st.integers(0, _MASK64)
# The index whose counter step (index + 1) * _GOLDEN wraps to exactly 0.
WRAP_TO_ZERO = _MASK64


def u64(values):
    return np.array(values, dtype=np.uint64)


def keys_of(seeds):
    """The stream keys of SeedSpecs, by the int functions."""
    return u64([_stream_key(s) for s in seeds])


def normals_of(rows, block):
    """The normals of a block that ``rows`` drew: ndtri of its uniforms."""
    return ndtri(block) if rows is random_uniform_rows else block


def normals_at(seed, count, offset):
    """Normals ``offset .. offset + count - 1`` of ``seed``'s stream: the
    first ``count`` of the stream keyed ``_stream_key(seed) + offset * G``."""
    key = (_stream_key(seed) + offset * _GOLDEN) & _MASK64
    return sample_standard_normal_rows(u64([key]), count)[0]


class TestArraySeedDerivation:
    """The uint64-array forms against the int functions, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(U64, U64, U64), min_size=1, max_size=20))
    @example([(_MASK64, _MASK64, 0)])
    @example([(_MASK64, _MASK64, WRAP_TO_ZERO), (0, 0, 0), (_MASK64, 0, 1)])
    @example([(0, _MASK64, 2**63), (1, 1, _MASK64 // _GOLDEN + 1)])
    def test_array_forms_equal_the_int_functions(self, triples):
        bases, streams, indices = (u64(col) for col in zip(*triples))
        assert _mix(bases.copy()).tolist() == [splitmix64(b) for b, _, _ in triples]
        child_bases, child_streams = _derive_rows((bases, streams), indices)
        children = [derive_seed(SeedSpec(b, s), i) for b, s, i in triples]
        assert child_bases.tolist() == [c.base_seed for c in children]
        assert child_streams.tolist() == [c.stream_id for c in children]
        assert _stream_keys((child_bases, child_streams)).tolist() == [
            _stream_key(c) for c in children
        ]
        # The inputs are left as they were.
        assert bases.tolist() == [b for b, _, _ in triples]

    @settings(max_examples=60, deadline=None)
    @given(U64, U64, st.integers(0, 2**40), st.integers(1, 40), st.integers(0, 3))
    @example(_MASK64, _MASK64, 0, 1, 0)
    def test_block_children_equal_derive_seed(self, base, stream, first, count, child):
        # The certifier's chain: pair ids of one seed, then a child of each.
        seed = SeedSpec(base, stream)
        ids = np.arange(first, first + count, dtype=np.uint64)
        got = _derive_rows(_derive_rows(seed, ids), child)
        want = [derive_seed(derive_seed(seed, p), child) for p in range(first, first + count)]
        assert got[0].tolist() == [w.base_seed for w in want]
        assert got[1].tolist() == [w.stream_id for w in want]

    def test_int_index_on_a_seed_spec(self):
        seed = SeedSpec(_MASK64, _MASK64)
        for index in (0, 1, WRAP_TO_ZERO):
            bases, streams = _derive_rows(seed, index)
            child = derive_seed(seed, index)
            assert (int(bases[0]), int(streams[0])) == (child.base_seed, child.stream_id)
        for index in (-1, 2**70):
            with pytest.raises(ValueError):
                _derive_rows(seed, index)

    @pytest.mark.parametrize("rows", [random_uniform_rows, sample_standard_normal_rows])
    @pytest.mark.parametrize("count", [0, 1, 201, 65_536 + 3])
    def test_rows_from_a_key_array_equal_one_dimensional_streams(self, rows, count):
        seeds = [derive_seed(SeedSpec(_MASK64, 5), i) for i in range(33)] + [
            SeedSpec(_MASK64, _MASK64), SeedSpec(0, 0)
        ]
        keys = _stream_keys((u64([s.base_seed for s in seeds]), u64([s.stream_id for s in seeds])))
        assert keys.tolist() == keys_of(seeds).tolist()
        block = rows(keys, count)
        assert block.shape == (len(seeds), count)
        normals = normals_of(rows, block)
        assert normals.tobytes() == sample_standard_normal_rows(keys, count).tobytes()
        for seed, row in zip(seeds, normals):
            assert row.tobytes() == sample_standard_normal(seed, count).tobytes()


class TestColumnBlocks:
    """Columns [c0, c1) of a row-major block of one stream, drawn alone,
    against a slice of the one-shot stream, bit for bit."""

    @staticmethod
    def one_shot(seed, n, rows, columns, first_row):
        whole = normals_at(seed, rows * n, first_row * n)
        return whole.reshape(rows, n)[:, columns[0] : columns[1]]

    @settings(max_examples=80, deadline=None)
    @given(
        U64, U64, st.integers(1, 40), st.integers(0, 60), st.integers(0, 2**70),
        st.data(),
    )
    @example(_MASK64, _MASK64, 1, 3, WRAP_TO_ZERO, None)
    @example(_MASK64, _MASK64, 7, 5, 2**64 // 7 - 1, None)
    @example(_MASK64, 0, 40, 60, 2**70, None)
    def test_columns_equal_a_slice_of_the_stream(self, base, stream, n, rows, first_row, data):
        # first_row * n runs past 2^64, where the counter wraps.
        if data is None:
            columns = (n // 2, n)
        else:
            c0 = data.draw(st.integers(0, n))
            columns = (c0, data.draw(st.integers(c0, n)))
        seed = SeedSpec(base, stream)
        want = self.one_shot(seed, n, rows, columns, first_row).tobytes()
        got = sample_standard_normal_block(
            seed, n, range(first_row, first_row + rows), range(*columns)
        )
        assert got.shape == (rows, columns[1] - columns[0])
        assert got.tobytes() == want

    @pytest.mark.parametrize("columns", [(0, 3), (1, 3), (2, 2)])
    def test_tall_request_in_row_tiles(self, columns):
        # More than 64Ki rows: the draw splits into row tiles, and every row
        # is that row's 1-D stream.
        seed, n, rows, first_row = SeedSpec(_MASK64, 17), 3, _CHUNK + 5, 11
        got = sample_standard_normal_block(
            seed, n, range(first_row, first_row + rows), range(*columns)
        )
        assert got.tobytes() == self.one_shot(seed, n, rows, columns, first_row).tobytes()
        height = _CHUNK // max(1, columns[1] - columns[0])
        for i in (0, height - 1, height, rows - 1):
            row = normals_at(seed, n, (first_row + i) * n)
            assert got[i].tobytes() == row[columns[0] : columns[1]].tobytes()

    @pytest.mark.parametrize("rows", [random_uniform_rows, sample_standard_normal_rows])
    def test_tall_row_form_rows_equal_one_dimensional_streams(self, rows):
        seeds = _derive_rows(SeedSpec(_MASK64, 3), np.arange(_CHUNK + 7, dtype=np.uint64))
        keys = _stream_keys(seeds)
        count = 3
        normals = normals_of(rows, rows(keys, count))
        assert normals.tobytes() == sample_standard_normal_rows(keys, count).tobytes()
        height = _CHUNK // count
        for i in (0, height - 1, height, 2 * height, _CHUNK - 1, _CHUNK, _CHUNK + 6):
            seed = SeedSpec(int(seeds[0][i]), int(seeds[1][i]))
            assert normals[i].tobytes() == sample_standard_normal(seed, count).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 5, 16, 17, 40])
    @pytest.mark.parametrize("rows", [1, 16, 17, 37])
    def test_every_split_gives_the_same_values(self, rows, count, monkeypatch):
        # With 16-element chunks the same requests take every form of the
        # split: one piece, row tiles of whole rows, and row tiles of one row
        # cut into columns.
        seed = SeedSpec(_MASK64, 9)
        rows, columns = range(5, 5 + rows), range(2, count + 2)
        want = sample_standard_normal_block(seed, count + 3, rows, columns)
        monkeypatch.setattr(rng, "_CHUNK", 16)
        got = sample_standard_normal_block(seed, count + 3, rows, columns)
        assert got.tobytes() == want.tobytes()

    def test_bad_columns_rejected(self):
        for columns, rows, first_row in (((2, 1), 1, 0), ((0, 4), 1, 0), ((-1, 2), 1, 0),
                                         ((0, 1), -1, 0), ((0, 1), 1, -1)):
            with pytest.raises(ValueError):
                sample_standard_normal_block(
                    SeedSpec(1), 3, range(first_row, first_row + rows), range(*columns)
                )


class TestBlocks:
    """Any rows by any columns of a row-major matrix of one stream, drawn
    alone, against the same entries of the whole matrix, bit for bit."""

    @staticmethod
    def whole(seed, n, rows):
        return sample_standard_normal(seed, rows * n).reshape(rows, n)

    @settings(max_examples=80, deadline=None)
    @given(U64, U64, st.integers(1, 30), st.integers(1, 50), st.data())
    def test_rows_by_columns_equal_the_whole_matrix(self, base, stream, n, m, data):
        # Index arrays in any order, with repeats, or ranges, on either axis.
        seed = SeedSpec(base, stream)
        indices = st.lists(st.integers(0, m - 1), max_size=2 * m)
        rows = data.draw(st.one_of(indices.map(np.array), st.builds(range, st.integers(0, m),
                                                                     st.just(m))))
        cols = data.draw(st.one_of(st.lists(st.integers(0, n - 1), max_size=2 * n).map(np.array),
                                   st.builds(range, st.integers(0, n), st.just(n))))
        want = self.whole(seed, n, m)[np.ix_(np.asarray(rows, dtype=np.intp),
                                             np.asarray(cols, dtype=np.intp))]
        got = sample_standard_normal_block(seed, n, rows, cols)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cols", [[2, 0, 1], [1, 1, 2], [0, 1, 2]])
    def test_n_columns_of_a_range_of_rows(self, cols):
        # n columns of contiguous rows, as an array, in and out of order.
        seed = SeedSpec(_MASK64, 6)
        got = sample_standard_normal_block(seed, 3, range(2, 9), np.array(cols))
        assert got.tobytes() == self.whole(seed, 3, 9)[2:, cols].tobytes()

    @pytest.mark.parametrize("chunk", [16, 40, _CHUNK])
    def test_rows_into_an_array_in_tiles(self, chunk, monkeypatch):
        # 16-element chunks put two 7-column rows in a tile and cut a
        # 53-column row in four, 40-element ones five rows and two; the rows
        # land where they belong and nothing else is written.
        seed = SeedSpec(_MASK64, 5)
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        for n in (7, 53):
            whole = self.whole(seed, n, 90)
            rows = np.array([3, 4, 17, 88, 0, 41, 42, 43, 60])
            into = np.full((90, n), -1.0)
            got = sample_standard_normal_block(seed, n, rows, range(n), into=(into, rows))
            assert got is into
            assert into[rows].tobytes() == whole[rows].tobytes()
            rest = np.setdiff1d(np.arange(90), rows)
            assert (into[rest] == -1.0).all()
            # Rows written elsewhere than their own index, as a row block
            # of the lazy matrix takes them: row r of the block to at[r].
            at = np.array([8, 0, 2, 9, 1, 4, 5, 6, 3])
            into = np.full((10, 4), -1.0)
            got = sample_standard_normal_block(seed, n, rows, range(2, 6), into=(into, at))
            assert got is into
            assert into[at].tobytes() == whole[rows, 2:6].tobytes()
            assert (into[7] == -1.0).all()

    def test_bad_indices_rejected(self):
        for rows, cols in ((np.array([0]), np.array([3])), (np.array([0]), np.array([-1])),
                           (np.array([-1]), range(3)), (np.zeros((1, 1), int), range(3)),
                           (range(0, 4, 2), range(3)), (range(0, 1), range(0, 3, 2))):
            with pytest.raises(ValueError):
                sample_standard_normal_block(SeedSpec(1), 3, rows, cols)


class TestStandardNormal:
    def test_count_zero_empty(self):
        assert sample_standard_normal(SeedSpec(3), 0).size == 0

    def test_bit_identical_reruns(self):
        s = SeedSpec(77, 5)
        a = sample_standard_normal(s, 100_000)
        b = sample_standard_normal(s, 100_000)
        assert np.array_equal(a, b)

    def test_offset_chunks_match_one_shot(self):
        s = SeedSpec(901)
        whole = sample_standard_normal(s, 5000)
        parts = np.concatenate(
            [
                sample_standard_normal(s, 1500),
                normals_at(s, 2500, 1500),
                normals_at(s, 1000, 4000),
            ]
        )
        assert np.array_equal(whole, parts)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**40),
        st.lists(st.integers(0, 300), max_size=6),
    )
    def test_chunks_match_one_shot_at_random_offsets(self, base, stream, offset, sizes):
        s = SeedSpec(base, stream)
        parts = []
        at = offset
        for size in sizes:
            parts.append(normals_at(s, size, at))
            at += size
        whole = normals_at(s, at - offset, offset)
        assert np.array_equal(np.concatenate([np.empty(0)] + parts), whole)

    def test_long_request_matches_short_requests(self):
        # One request spanning many 64Ki-element chunks against requests of
        # at most one chunk each, at consecutive offsets.
        s = SeedSpec(31337, 9)
        offset, count, piece = 12_345, 5 * 65_536 + 1_001, 65_536
        whole = normals_at(s, count, offset)
        parts = [
            normals_at(s, min(piece, count - at), offset + at)
            for at in range(0, count, piece)
        ]
        assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("rows", [random_uniform_rows, sample_standard_normal_rows])
    @pytest.mark.parametrize("count", [0, 1, 201, 65_536 + 3])
    @pytest.mark.parametrize("num_seeds", [1, 3, 33])
    def test_row_form_rows_equal_one_dimensional_streams(self, rows, count, num_seeds):
        # Above 64Ki elements in all the row form splits over columns.
        seeds = [derive_seed(SeedSpec(2718, 5), i) for i in range(num_seeds)]
        keys = keys_of(seeds)
        block = rows(keys, count)
        assert block.shape == (num_seeds, count)
        normals = normals_of(rows, block)
        assert normals.tobytes() == sample_standard_normal_rows(keys, count).tobytes()
        for seed, row in zip(seeds, normals):
            assert row.tobytes() == sample_standard_normal(seed, count).tobytes()

    def test_concurrent_callers_get_serial_values(self):
        # More calling threads than cores, each sending long requests to the
        # shared sampler pool, with frequent thread switches.
        seeds = [SeedSpec(4242, i) for i in range(8)]
        expected = [normals_at(s, 200_003, 7) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                got = list(
                    callers.map(lambda s: normals_at(s, 200_003, 7), seeds)
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_long_request_in_forked_child(self):
        # The child inherits the pool object but not its threads; a long
        # request there must still complete.
        parent = sample_standard_normal(SeedSpec(8), 300_000)
        in_forked_child(lambda: np.array_equal(sample_standard_normal(SeedSpec(8), 300_000), parent),
                        "sampling in a forked child")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_long_request_from_a_pool_task(self):
        # Both workers of a two-thread pool busy at once, each with a task
        # that draws three 64Ki tiles: were those tiles sent to the pool,
        # each task would wait for a worker that never comes free.  Run in
        # a child, which can be killed if it hangs.
        count = 2 * _CHUNK + 7
        seeds = [SeedSpec(4243, i) for i in range(2)]
        expected = [sample_standard_normal(s, count) for s in seeds]

        def draw_from_busy_pool():
            rng._worker_count = lambda: 2
            rng._forget_pool()
            both_busy = threading.Barrier(2)

            def task(seed):
                both_busy.wait(timeout=10.0)
                return sample_standard_normal(seed, count)

            got = rng._map(task, seeds)
            return all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))

        in_forked_child(draw_from_busy_pool, "a long draw from a pool task")

    def test_mean_within_clt_bound(self):
        draws = sample_standard_normal(SeedSpec(123), 1_000_000)
        assert abs(draws.mean()) <= 4.0 / math.sqrt(1_000_000)

    def test_folded_mean(self):
        # E|Z| = sqrt(2/pi) with SD sqrt(1 - 2/pi).
        draws = sample_standard_normal(SeedSpec(456), 1_000_000)
        folded_sd = math.sqrt(1.0 - 2.0 / math.pi)
        assert abs(np.abs(draws).mean() - math.sqrt(2.0 / math.pi)) <= (
            4.0 * folded_sd / math.sqrt(1_000_000)
        )

    def test_variance_close_to_one(self):
        draws = sample_standard_normal(SeedSpec(789), 1_000_000)
        assert 0.99 <= draws.var() <= 1.01

    def test_distinct_streams_differ(self):
        a = sample_standard_normal(SeedSpec(10, 0), 1000)
        b = sample_standard_normal(SeedSpec(10, 1), 1000)
        assert not np.array_equal(a, b)

    def test_uniforms_strictly_inside_unit_interval(self):
        u = random_uniform_rows(keys_of([SeedSpec(55)]), 100_000)
        assert u.min() > 0.0 and u.max() < 1.0


def _unshift(y, s):
    """x with ``x ^ (x >> s) == y``."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def unmix(w):
    """The counter whose `splitmix64` is ``w``."""
    z = _unshift(w, 31)
    z = z * pow(_MIX2, -1, 2**64) & _MASK64
    z = _unshift(z, 27)
    z = z * pow(_MIX1, -1, 2**64) & _MASK64
    return _unshift(z, 30)


def seed_keyed(key):
    """A SeedSpec whose stream key is ``key``."""
    return SeedSpec(unmix(key) ^ splitmix64(_MIX2), 0)


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
        monkeypatch.setattr(rng, "_worker_count", lambda: workers)
        made, used, scratch, fn = self.recorder()
        assert rng._map(fn, range(count), scratch) == [i * i for i in range(count)]
        assert len(made) == blocks
        assert {thread for thread, _ in made} == {threading.get_ident()}
        assert len(used) == count
        assert {block for _, block in used} <= {id(block) for _, block in made}

    def test_serial_items_get_one_block(self):
        made, used, scratch, fn = self.recorder()
        assert rng._map(fn, [3], scratch) == [9]
        assert len(made) == 1 and made[0][0] == threading.get_ident()
        assert rng._map(fn, [], scratch) == [] and len(made) == 1

    def test_a_call_on_a_pool_thread_makes_one_block_there(self):
        made, used, scratch, fn = self.recorder()
        got = rng._map(lambda i: (threading.get_ident(), rng._map(fn, range(i, i + 4), scratch)),
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

        want, got = wide_pool(lambda count: rng._map(fn, range(count), lambda: np.zeros(1)),
                              [300])
        assert want == got == [[True] * 300]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_call_that_raises_hands_its_block_on(self):
        # Two blocks on a two-thread pool.  Call 0 holds one until call 2
        # has run; call 1 raises, and call 2 can only run on the block call
        # 1 held.  Had call 1 kept it, call 2 would wait for ever.  Run in a
        # child, which can be killed if it hangs.
        def raise_in_between():
            rng._worker_count = lambda: 2
            rng._forget_pool()
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
                rng._map(fn, range(3), scratch)
            except ArithmeticError as exc:
                return exc.args == (1,) and waited == [True] and len(made) == 2
            return False

        in_forked_child(raise_in_between, "a map with a call that raises")


def test_map_raises_once_no_call_is_running(monkeypatch):
    # Call 0 raises at once while call 1 still runs: `_map` re-raises only
    # after call 1 has ended.  A call left running would outlive what its
    # caller set around the map, such as the BLAS count of
    # `_one_blas_thread`.
    monkeypatch.setattr(rng, "_worker_count", lambda: 2)
    rng._forget_pool()
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
            rng._map(fn, range(2))
        assert ended == [1]
    finally:
        monkeypatch.undo()
        rng._forget_pool()


class TestUniformMap:
    """Words built by inverting SplitMix64: the stream keyed
    ``unmix(w) - G`` has the word w as its element 0."""

    @staticmethod
    def keyed_to(word):
        return u64([(unmix(word) - _GOLDEN) & _MASK64])

    def test_unmix_inverts_splitmix(self):
        for w in (0, 1, _MASK64, 0x0123456789ABCDEF, 2**63):
            assert splitmix64(unmix(w)) == w
        assert _stream_key(seed_keyed(12345)) == 12345

    @pytest.mark.parametrize("low", [0, 0x7FF])
    def test_top_word_maps_below_one(self, low):
        # Top 53 bits all ones: ((2**53 - 1) + 0.5) * 2**-53 rounds to 1.0,
        # whose normal is +inf.  It takes the value of the word below it.
        keys = self.keyed_to(_MASK64 ^ 0x7FF | low)
        top = 1.0 - 2.0**-52
        assert random_uniform_rows(keys, 1)[0, 0] == top
        assert random_uniform_rows(self.keyed_to((2**53 - 2) << 11), 1)[0, 0] == top
        normal = sample_standard_normal_rows(keys, 1)[0, 0]
        assert math.isfinite(normal) and normal == ndtri(top)

    def test_top_word_in_a_block(self):
        # Entry (3, 2) of a 4-column block is at counter key + 15 G.
        n, at = 4, unmix(_MASK64)
        seed = seed_keyed((at - 15 * _GOLDEN) & _MASK64)
        whole = sample_standard_normal_block(seed, n, range(5), range(n))
        assert np.isfinite(whole).all() and whole[3, 2] == ndtri(1.0 - 2.0**-52)
        part = sample_standard_normal_block(seed, n, np.array([3, 1]), np.array([2, 0]))
        assert part.tobytes() == whole[np.ix_([3, 1], [2, 0])].tobytes()
        assert sample_standard_normal(seed, 20)[14] == whole[3, 2]

    def test_half_gives_a_zero_normal(self):
        keys = self.keyed_to(2**52 << 11)
        assert random_uniform_rows(keys, 1)[0, 0] == 0.5
        assert sample_standard_normal_rows(keys, 1)[0, 0] == 0.0

    def test_lowest_word_above_zero(self):
        keys = self.keyed_to(0x7FF)
        assert random_uniform_rows(keys, 1)[0, 0] == 2.0**-54


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
