import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitsense.rng import (
    SeedSpec,
    derive_seed,
    random_uniform,
    sample_standard_normal,
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
