import math
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitsense.rng import (
    SeedSpec,
    derive_seed,
    random_uint64,
    random_uniform,
    random_uniform_rows,
    sample_standard_normal,
    sample_standard_normal_rows,
    splitmix64,
)


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

    def test_seed_fields_validated(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, 1 << 64)

    def test_splitmix_is_bijection_locally(self):
        outs = {splitmix64(z) for z in range(4096)}
        assert len(outs) == 4096


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
                sample_standard_normal(s, 2500, offset=1500),
                sample_standard_normal(s, 1000, offset=4000),
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
            parts.append(sample_standard_normal(s, size, offset=at))
            at += size
        whole = sample_standard_normal(s, at - offset, offset=offset)
        assert np.array_equal(np.concatenate([np.empty(0)] + parts), whole)

    @pytest.mark.parametrize("sample", [random_uint64, random_uniform, sample_standard_normal])
    def test_long_request_matches_short_requests(self, sample):
        # One request spanning many 64Ki-element chunks against requests of
        # at most one chunk each, at consecutive offsets.
        s = SeedSpec(31337, 9)
        offset, count, piece = 12_345, 5 * 65_536 + 1_001, 65_536
        whole = sample(s, count, offset=offset)
        parts = [
            sample(s, min(piece, count - at), offset=offset + at)
            for at in range(0, count, piece)
        ]
        assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize(
        "rows, one",
        [
            (random_uniform_rows, random_uniform),
            (sample_standard_normal_rows, sample_standard_normal),
        ],
    )
    @pytest.mark.parametrize("count", [0, 1, 201, 65_536 + 3])
    @pytest.mark.parametrize("num_seeds", [1, 3, 33])
    def test_row_form_rows_equal_one_dimensional_streams(self, rows, one, count, num_seeds):
        # Above 64Ki elements in all the row form splits over columns.
        seeds = [derive_seed(SeedSpec(2718, 5), i) for i in range(num_seeds)]
        block = rows(seeds, count)
        assert block.shape == (num_seeds, count)
        for seed, row in zip(seeds, block):
            assert row.tobytes() == one(seed, count).tobytes()

    def test_concurrent_callers_get_serial_values(self):
        # More calling threads than cores, each sending long requests to the
        # shared sampler pool, with frequent thread switches.
        seeds = [SeedSpec(4242, i) for i in range(8)]
        expected = [sample_standard_normal(s, 200_003, offset=7) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                got = list(
                    callers.map(lambda s: sample_standard_normal(s, 200_003, offset=7), seeds)
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_long_request_in_forked_child(self):
        # The child inherits the pool object but not its threads; a long
        # request there must still complete.
        parent = sample_standard_normal(SeedSpec(8), 300_000)
        pid = os.fork()
        if pid == 0:
            child = sample_standard_normal(SeedSpec(8), 300_000)
            os._exit(0 if np.array_equal(child, parent) else 3)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.02)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("sampling in a forked child did not finish")
        assert os.waitstatus_to_exitcode(status) == 0

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
        u = random_uniform(SeedSpec(55), 100_000)
        assert u.min() > 0.0 and u.max() < 1.0
