import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitsense._inputs import _norm
from bitsense.rng import (
    SeedSpec,
    _stream_key,
    derive_seed,
    random_uniform_rows,
    sample_standard_normal,
)
from bitsense.thresholding import normalize, smallest_k, threshold_set, top_k


def uniforms(seeds, count):
    """The first ``count`` uniforms of each seed's stream, one row each."""
    return random_uniform_rows(np.array([_stream_key(s) for s in seeds], dtype=np.uint64), count)


def reference_top_k(v, k):
    """Independent comparator oracle: stable selection on (|value| desc, index asc)."""
    order = sorted(range(len(v)), key=lambda i: (-abs(v[i]), i))
    out = np.zeros(len(v))
    for i in order[:k]:
        out[i] = v[i]
    return out


class TestTopK:
    def test_hand_case(self):
        assert top_k(np.array([3.0, -5.0, 1.0, 0.0]), 2).tolist() == [3.0, -5.0, 0.0, 0.0]

    def test_full_k_is_identity(self):
        v = np.array([0.5, -2.0, 0.0, 9.0])
        assert np.array_equal(top_k(v, 4), v)

    def test_k_zero(self):
        assert not top_k(np.ones(3), 0).any()

    def test_tie_prefers_lowest_index(self):
        assert top_k(np.array([1.0, 1.0, 1.0]), 2).tolist() == [1.0, 1.0, 0.0]
        assert top_k(np.array([-2.0, 2.0, 2.0]), 2).tolist() == [-2.0, 2.0, 0.0]

    def test_matches_comparator_oracle(self):
        seed = SeedSpec(61)
        for i in range(200):
            vals = sample_standard_normal(derive_seed(seed, i), 12)
            # quantize to force frequent magnitude ties
            vals = np.round(vals)
            k = int(uniforms([derive_seed(seed, 1000 + i)], 1)[0, 0] * 13)
            assert np.array_equal(top_k(vals, k), reference_top_k(vals, k))

    def test_idempotent(self):
        v = sample_standard_normal(SeedSpec(62), 20)
        once = top_k(v, 6)
        assert np.array_equal(top_k(once, 6), once)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=16), st.data())
    def test_idempotent_and_lowest_index_on_ties_property(self, ints, data):
        # Small integers make magnitude ties frequent.
        v = np.array(ints, dtype=np.float64)
        k = data.draw(st.integers(0, v.size))
        once = top_k(v, k)
        assert np.array_equal(top_k(once, k), once)
        assert np.array_equal(once, reference_top_k(v, k))

    def test_kept_entries_dominate_zeroed(self):
        v = np.round(sample_standard_normal(SeedSpec(63), 15) * 3)
        out = top_k(v, 5)
        kept = np.flatnonzero(out)
        zeroed = np.setdiff1d(np.flatnonzero(v), kept)
        for i in kept:
            for j in zeroed:
                assert abs(v[i]) > abs(v[j]) or (abs(v[i]) == abs(v[j]) and i < j)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(np.ones(3), 4)
        with pytest.raises(ValueError):
            top_k(np.ones(3), -1)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_non_integer_k_rejected(self, k):
        # 2.5 used to reach the selection and fail there with an IndexError.
        with pytest.raises(ValueError, match="k must be an integer"):
            top_k(np.arange(5.0), k)


def stable_smallest(keys, k):
    """The k-selection of a full stable sort, in index order."""
    return np.sort(np.argsort(keys, axis=-1, kind="stable")[..., :k], axis=-1)


class TestSmallestK:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.data(),
    )
    def test_equals_stable_argsort(self, rows, n, data):
        # Small integers tie often, at the boundary too; floats rarely do.
        values = st.integers(-3, 3) if data.draw(st.booleans()) else st.floats(-1e3, 1e3)
        keys = np.array(
            data.draw(st.lists(values, min_size=rows * n, max_size=rows * n)), dtype=np.float64
        ).reshape(rows, n)
        k = data.draw(st.integers(0, n + 2))
        expected = stable_smallest(keys, min(k, n))
        assert np.array_equal(smallest_k(keys, k), expected)
        assert np.array_equal(smallest_k(keys[0], k), expected[0])

    def test_tie_at_the_boundary_takes_the_lowest_index(self):
        keys = np.array([[5.0, 1.0, 3.0, 3.0, 0.0], [3.0, 3.0, 3.0, 1.0, 2.0]])
        assert smallest_k(keys, 3).tolist() == [[1, 2, 4], [0, 3, 4]]
        assert smallest_k(keys[0], 3).tolist() == [1, 2, 4]

    def test_nan_and_signed_zero(self):
        keys = np.array([np.nan, -0.0, 0.0, 1.0, np.nan])
        for k in range(6):
            assert np.array_equal(smallest_k(keys, k), stable_smallest(keys, k))

    def test_uniform_rows_match_stable_argsort(self):
        u = uniforms([derive_seed(SeedSpec(67), i) for i in range(32)], 200)
        for k in (1, 5, 200):
            assert np.array_equal(smallest_k(u, k), stable_smallest(u, k))

    def test_top_k_tie_at_the_boundary(self):
        v = np.array([0.5, -2.0, 1.0, -1.0, 1.0, 3.0])
        assert np.array_equal(top_k(v, 3), reference_top_k(v, 3))
        assert top_k(v, 3).tolist() == [0.0, -2.0, 1.0, 0.0, 0.0, 3.0]


def mask(n, cols):
    """The bool mask of length n that marks the coordinates in ``cols``."""
    J = np.zeros(n, dtype=bool)
    J[list(cols)] = True
    return J


class TestThresholdSet:
    def test_empty_set_gives_zero(self):
        assert not threshold_set(np.ones(5), mask(5, set())).any()

    def test_full_set_is_identity(self):
        v = np.arange(5.0)
        assert np.array_equal(threshold_set(v, mask(5, range(5))), v)

    def test_keeps_exactly_the_marked_coordinates(self):
        kept = threshold_set(np.arange(1.0, 6.0), mask(5, {4, 0}))
        assert kept.tolist() == [1.0, 0.0, 0.0, 0.0, 5.0]

    def test_linearity(self):
        seed = SeedSpec(64)
        for i in range(50):
            u = sample_standard_normal(derive_seed(seed, 3 * i), 10)
            w = sample_standard_normal(derive_seed(seed, 3 * i + 1), 10)
            a, b = sample_standard_normal(derive_seed(seed, 3 * i + 2), 2)
            J = mask(10, {0, 3, 7, 9})
            lhs = threshold_set(a * u + b * w, J)
            rhs = a * threshold_set(u, J) + b * threshold_set(w, J)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize(
        "J",
        [
            np.array([0, 1, 0, 1, 1]),  # 0/1 integers, v's shape
            np.array([0.0, 1.0, 0.0, 1.0, 1.0]),
            [False, True, False, True, True],  # a list, not an array
            np.array([1, 3]),  # an index set
            {1, 3},
        ],
    )
    def test_non_bool_mask_rejected(self, J):
        with pytest.raises(ValueError, match="J must be a bool mask"):
            threshold_set(np.arange(5.0), J)

    @pytest.mark.parametrize("shape", [(4,), (6,), (1, 5), (5, 1), ()])
    def test_mask_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"J must be a bool mask of shape \(5,\)"):
            threshold_set(np.arange(5.0), np.ones(shape, dtype=bool))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**64 - 1))
    def test_rows_restrict_as_single_vectors(self, t, n, base):
        seed = SeedSpec(base)
        V = sample_standard_normal(derive_seed(seed, 0), t * n).reshape(t, n)
        J = uniforms([derive_seed(seed, 1)], t * n).reshape(t, n) < 0.5
        out = threshold_set(V, J)
        for i in range(t):
            assert out[i].tobytes() == threshold_set(V[i], J[i]).tobytes()

    def test_pythagorean_split(self):
        # For nested supports S2 within S1:
        # ||T_S1 v||^2 == ||T_S2 v||^2 + ||T_{S1 minus S2} v||^2.
        seed = SeedSpec(65)
        for i in range(50):
            v = sample_standard_normal(derive_seed(seed, i), 12)
            s1 = {0, 1, 2, 5, 7, 8, 11}
            s2 = {1, 5, 11}
            lhs = np.linalg.norm(threshold_set(v, mask(12, s1))) ** 2
            rhs = (
                np.linalg.norm(threshold_set(v, mask(12, s2))) ** 2
                + np.linalg.norm(threshold_set(v, mask(12, s1 - s2))) ** 2
            )
            assert abs(lhs - rhs) <= 1e-10


class TestNormalize:
    def test_three_four_five(self):
        assert normalize(np.array([3.0, 4.0])).tolist() == [0.6, 0.8]

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.max(np.abs(normalize(v) - v)) <= 1e-12

    def test_result_unit_norm(self):
        v = sample_standard_normal(SeedSpec(66), 9)
        assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normalize(np.zeros(4))

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    def test_vectors_near_float64s_ends(self, scale):
        # The sum of squares overflowed (a RuntimeWarning) or lost bits
        # below the smallest normal float, or underflowed to 0.
        assert normalize([scale, scale]) == pytest.approx([math.sqrt(0.5)] * 2, abs=1e-15)

    @pytest.mark.parametrize("v", [[1.5e308, 1.5e308], [5e-324, 5e-324]])
    def test_norm_past_float64s_range_rejected(self, v):
        with pytest.raises(ValueError, match="^v has a norm outside float64's normal range$"):
            normalize(v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.sampled_from([1, 3, -1]), st.integers(-100, 100),
       st.integers(0, 2**64 - 1))
def test_norm_is_numpys_bit_for_bit(n, step, exponent, base):
    # `_norm` sums through `np.vdot`, which must give `np.linalg.norm`'s
    # bits on contiguous, strided and reversed vectors alike.
    a = sample_standard_normal(SeedSpec(base), 3 * n)[::step][:n] * 10.0**exponent
    assert _norm(a, "a") == float(np.linalg.norm(a))


def test_an_overflowing_norm_raises_where_the_caller_asked():
    # `biht.run_biht` turns overflow into an error to blame eta.
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="norm of v"):
        normalize([1e200, 1e200])
