import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitsense import cli
from bitsense.core import (
    MeasurementMatrix,
    SignPattern,
    SparseUnitVector,
    _pair_directions,
    gaussian_matrix,
    random_sparse_unit,
    random_sparse_unit_rows,
    row_dots,
    row_norms,
    sgn,
    sign_measure,
    sphere_distance,
    sphere_distance_rows,
)
from bitsense.rng import SeedSpec, _derive_rows, derive_seed, sample_standard_normal


class TestSgn:
    def test_zero_maps_to_plus_one(self):
        assert sgn(0.0) == 1

    def test_negative(self):
        assert sgn(-3.5) == -1

    def test_tiny_positive(self):
        assert sgn(1e-300) == 1

    def test_vectorized(self):
        out = sgn(np.array([0.0, -2.0, 5.0, -0.0]))
        # -0.0 >= 0 in IEEE arithmetic, so it maps to +1 as well.
        assert out.tolist() == [1, -1, 1, 1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sgn(float("nan"))
        with pytest.raises(ValueError):
            sgn(np.array([1.0, float("inf")]))


class TestSignMeasure:
    def test_identity_matrix(self):
        A = MeasurementMatrix(np.eye(3))
        pattern = sign_measure(A, np.array([1.0, -2.0, 0.0]))
        assert pattern.bits.tolist() == [1, -1, 1]

    def test_scale_invariance(self):
        A = gaussian_matrix(50, 10, SeedSpec(5))
        x = np.arange(1.0, 11.0)
        assert np.array_equal(sign_measure(A, x).bits, sign_measure(A, 2.0 * x).bits)

    def test_negation_flips_all_nonzero_rows(self):
        A = gaussian_matrix(100, 20, SeedSpec(6))
        x = np.sin(np.arange(20))
        products = A.entries @ x
        forward = sign_measure(A, x).bits
        backward = sign_measure(A, -x).bits
        flipped = products != 0.0  # exact zeros have probability zero
        assert np.all(forward[flipped] == -backward[flipped])
        assert np.all(flipped)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sign_measure(MeasurementMatrix(np.eye(3)), np.ones(4))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 30),
        st.integers(0, 2**64 - 1),
        st.sampled_from(["sparse", "dense", "zero"]),
        st.integers(1, 30),
    )
    def test_matches_dense_product(self, m, n, seed, shape, k):
        # The measurement takes only the columns on supp(x); the reference
        # takes the whole matrix.  A zero x measures all +1 (sgn(0) = +1).
        A = gaussian_matrix(m, n, SeedSpec(seed, 0))
        if shape == "sparse":
            x = random_sparse_unit(n, min(k, n), SeedSpec(seed, 1)).values
        elif shape == "dense":
            x = sample_standard_normal(SeedSpec(seed, 2), n)
        else:
            x = np.zeros(n)
        reference = np.where(A.entries @ x >= 0.0, 1, -1)
        assert np.array_equal(sign_measure(A, x).bits, reference)


class TestSphereDistance:
    def test_antipodal_unit_vectors(self):
        x = np.array([0.6, 0.8])
        assert sphere_distance(x, -x) == pytest.approx(2.0, abs=1e-12)

    def test_orthonormal_pair(self):
        assert sphere_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (
            pytest.approx(math.sqrt(2.0), abs=1e-12)
        )

    def test_zero_conventions(self):
        z = np.zeros(3)
        u = np.array([2.0, 0.0, 0.0])
        assert sphere_distance(u, z) == 1.0
        assert sphere_distance(z, u) == 1.0
        assert sphere_distance(z, z) == 0.0

    def test_symmetric_and_bounded(self):
        rng_seed = SeedSpec(14)
        for i in range(50):
            u = gaussian_matrix(1, 6, derive_seed(rng_seed, 2 * i)).entries[0]
            v = gaussian_matrix(1, 6, derive_seed(rng_seed, 2 * i + 1)).entries[0]
            d = sphere_distance(u, v)
            assert d == sphere_distance(v, u)
            assert 0.0 <= d <= 2.0
        assert sphere_distance(u, u) == 0.0

    def test_tiny_orthogonal_pair(self):
        # Both norms underflowed to 0, and the both-zero convention gave 0.0.
        assert sphere_distance([1e-200, 0.0], [0.0, 1e-200]) == (
            sphere_distance([1.0, 0.0], [0.0, 1.0])
        )


class TestRowDots:
    """The batched row dot against one vector's own dot and norm, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 64),
        st.sampled_from([1.0, 1e-150, 1e150]),
        st.integers(0, 2**64 - 1),
    )
    @example(9, 200, 1.0, 3)
    @example(4, 1, 1e150, 0)
    def test_rows_equal_single_vectors(self, t, n, scale, base):
        seed = SeedSpec(base)
        a = scale * sample_standard_normal(derive_seed(seed, 0), t * n).reshape(t, n)
        b = scale * sample_standard_normal(derive_seed(seed, 1), t * n).reshape(t, n)
        a[:, ::3] = 0.0  # rows with zeros, and an all-zero row
        a[-1] = 0.0
        e = b[0].copy()
        dots, norms, against_e = row_dots(a, b), row_norms(a), row_dots(a, e)

        def same(x, y):  # bit for bit, but for the sign of a zero
            return x.tobytes() == y.tobytes() or x == y == 0.0

        for i in range(t):
            assert same(dots[i], np.dot(a[i], b[i]))
            assert norms[i].tobytes() == np.linalg.norm(a[i]).tobytes()
            assert same(against_e[i], np.dot(a[i], e))
        # One vector gives a 0-d result, the same value.
        assert row_dots(a[0], e).shape == ()
        assert row_dots(a[0], e).tobytes() == against_e[0].tobytes()

    def test_every_length_up_to_n(self):
        for n in range(1, 201):
            a = sample_standard_normal(SeedSpec(5, n), 3 * n).reshape(3, n)
            for scale in (1.0, 1e-150, 1e150):
                rows = scale * a
                norms = row_norms(rows)
                assert [x.tobytes() for x in norms] == [
                    np.linalg.norm(r).tobytes() for r in rows
                ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 30), st.integers(0, 2**64 - 1))
    def test_sphere_distance_rows_equal_single_pairs(self, t, n, base):
        seed = SeedSpec(base)
        U = sample_standard_normal(derive_seed(seed, 0), t * n).reshape(t, n)
        V = sample_standard_normal(derive_seed(seed, 1), t * n).reshape(t, n)
        V[::2, ::2] = 0.0
        U[1::3] = 0.0  # one or both rows zero: the conventions
        V[2::4] = 0.0
        V[-1] = -3.0 * U[-1]
        d = sphere_distance_rows(U, V)
        for i in range(t):
            assert d[i] == sphere_distance(U[i], V[i])


class TestAngularDistance:
    def test_relation_to_sphere_distance(self):
        # theta == arccos(1 - d_S^2 / 2) and d_S^2 == 2 (1 - cos theta),
        # with theta the angle `_pair_directions` takes by atan2.
        seed = SeedSpec(21)
        for i in range(100):
            u = gaussian_matrix(1, 5, derive_seed(seed, 2 * i)).entries[0]
            v = gaussian_matrix(1, 5, derive_seed(seed, 2 * i + 1)).entries[0]
            _, _, theta = _pair_directions(u / np.linalg.norm(u), v / np.linalg.norm(v))
            d = sphere_distance(u, v)
            assert abs(theta - math.acos(1.0 - d * d / 2.0)) <= 1e-10
            assert abs(d * d - 2.0 * (1.0 - math.cos(theta))) <= 1e-10


class TestRandomSparseUnit:
    def test_one_dimensional(self):
        x = random_sparse_unit(1, 1, SeedSpec(2))
        assert abs(abs(x.values[0]) - 1.0) <= 1e-12

    def test_sparsity_and_norm(self):
        for i in range(25):
            x = random_sparse_unit(30, 4, SeedSpec(100 + i))
            nnz = np.count_nonzero(x.values)
            assert nnz <= 4
            assert nnz == 4  # ties/zeros in the Gaussian values have measure zero
            assert abs(np.linalg.norm(x.values) - 1.0) <= 1e-9

    def test_coordinates_centered(self):
        draws = np.array(
            [random_sparse_unit(6, 2, SeedSpec(7, i)).values for i in range(10_000)]
        )
        means = draws.mean(axis=0)
        ses = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(means) <= 4.0 * ses)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 20), st.integers(0, 2**64 - 1))
    def test_rows_from_seed_arrays_equal_single_draws(self, n, k, count, base):
        # Seeds as uint64 arrays (children derived in array passes), seeds
        # as SeedSpecs, and one draw at a time give the same rows.
        k = min(k, n)
        ids = np.arange(count, dtype=np.uint64)
        seeds = [derive_seed(SeedSpec(base, 2), i) for i in range(count)]
        rows, supports = random_sparse_unit_rows(n, k, _derive_rows(SeedSpec(base, 2), ids))
        again, same_supports = random_sparse_unit_rows(n, k, seeds)
        assert rows.tobytes() == again.tobytes()
        assert np.array_equal(supports, same_supports)
        # No drawn value is 0 here, so the supports are the nonzero columns.
        assert np.array_equal(supports, np.nonzero(rows)[1].reshape(count, k))
        for seed, row in zip(seeds, rows):
            assert row.tobytes() == random_sparse_unit(n, k, seed).values.tobytes()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            random_sparse_unit(5, 0, SeedSpec(1))
        with pytest.raises(ValueError):
            random_sparse_unit(5, 6, SeedSpec(1))


class TestDomainTypes:
    def test_sparse_unit_vector_validates_sparsity(self):
        with pytest.raises(ValueError):
            SparseUnitVector(np.array([0.6, 0.8, 0.0]), 1)

    def test_sparse_unit_vector_validates_norm(self):
        with pytest.raises(ValueError):
            SparseUnitVector(np.array([1.0, 1.0, 0.0]), 2)

    def test_sparse_unit_vector_rejects_a_nan_norm(self):
        # The values go through the package's rule for a vector input,
        # which rejects the NaN before a norm is taken.
        with pytest.raises(ValueError, match="^values must be finite$"):
            SparseUnitVector(np.array([math.nan, 0.0, 0.0]), 1)

    def test_sign_pattern_rejects_zero(self):
        with pytest.raises(ValueError):
            SignPattern(np.array([1, 0, -1]))

    @pytest.mark.parametrize(
        "bits",
        [[1.5, -1], np.array([257, -1]), [1.9, -1.2], [math.nan, 1],
         np.array([255, 1], dtype=np.uint8), np.array([1j, -1]), np.ones(3, dtype=bool)],
    )
    def test_sign_pattern_checks_values_before_the_cast(self, bits):
        # A cast to int8 first would take each of these to a valid pattern;
        # a bool array is rejected as `_vector` rejects it, all True or not.
        with pytest.raises(ValueError, match="-1 or \\+1"):
            SignPattern(bits)

    @pytest.mark.parametrize(
        "bits", [[1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int8)]
    )
    def test_sign_pattern_accepts_exact_signs(self, bits):
        pattern = SignPattern(bits)
        assert pattern.bits.dtype == np.int8
        assert pattern.bits.tolist() == np.asarray(bits, dtype=np.int8).tolist()
        assert not pattern.bits.flags.writeable

    def test_sign_pattern_copies_int8_signs(self):
        # sign_measure hands over the int8 signs it made; later writes to
        # them do not reach the pattern.
        signs = np.array([1, -1, 1], dtype=np.int8)
        pattern = SignPattern(signs)
        signs[0] = -1
        assert pattern.bits.tolist() == [1, -1, 1]

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            MeasurementMatrix(np.ones(4))

    def test_matrix_copies_caller_array(self):
        a = np.arange(6.0).reshape(2, 3)
        A = MeasurementMatrix(a)
        a[0, 0] = 99.0
        assert A.entries[0, 0] == 0.0
        assert not A.entries.flags.writeable
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0

    def test_matrix_copies_read_only_view(self):
        # A read-only view does not stop writes through its base.
        base = np.arange(6.0).reshape(2, 3)
        view = base.view()
        view.setflags(write=False)
        A = MeasurementMatrix(view)
        base[0, 0] = 99.0
        assert A.entries[0, 0] == 0.0

    def test_matrix_keeps_frozen_array_without_copy(self):
        a = np.arange(6.0).reshape(2, 3).copy()
        a.setflags(write=False)
        assert MeasurementMatrix(a).entries is a

    def test_gaussian_matrix_frozen(self):
        A = gaussian_matrix(4, 3, SeedSpec(5))
        assert A.entries.shape == (4, 3)
        assert not A.entries.flags.writeable
        assert np.array_equal(A.entries.ravel(), sample_standard_normal(SeedSpec(5), 12))
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0

    def test_values_frozen(self):
        x = random_sparse_unit(10, 2, SeedSpec(3))
        with pytest.raises(ValueError):
            x.values[0] = 5.0


def generate(path, what, fmt, *sizes):
    """``bitsense generate`` into ``path``; its exit code."""
    return cli.main(["generate", "--what", what, "--format", fmt, "--out", str(path), *sizes])


class TestFileFormats:
    """The files `bitsense generate` writes read back to the arrays it draws:
    the matrix from the seed's child 0, the signal from its child 1."""

    def test_csv_roundtrip(self, tmp_path):
        a = gaussian_matrix(7, 4, derive_seed(SeedSpec(31), 0)).entries
        path = tmp_path / "mat.csv"
        assert generate(path, "matrix", "csv", "--m", "7", "--n", "4", "--seed", "31") == 0
        assert np.array_equal(np.loadtxt(path, delimiter=","), a)

    def test_binary_roundtrip(self, tmp_path):
        a = gaussian_matrix(5, 9, derive_seed(SeedSpec(32), 0)).entries
        path = tmp_path / "mat.bin"
        assert generate(path, "matrix", "bin", "--m", "5", "--n", "9", "--seed", "32") == 0
        raw = path.read_bytes()
        assert raw[:4] == b"B1CS"
        m, n = np.frombuffer(raw[4:12], dtype="<u4")
        assert np.array_equal(np.frombuffer(raw[12:], dtype="<f8").reshape(m, n), a)

    def test_binary_header(self, tmp_path):
        path = tmp_path / "mat.bin"
        assert generate(path, "matrix", "bin", "--m", "2", "--n", "3") == 0
        raw = path.read_bytes()
        assert raw[:4] == b"B1CS"
        assert np.frombuffer(raw[4:12], dtype="<u4").tolist() == [2, 3]
        assert len(raw) == 12 + 2 * 3 * 8

    def test_vector_roundtrip_as_single_row(self, tmp_path):
        x = random_sparse_unit(12, 3, derive_seed(SeedSpec(33), 1)).values
        path = tmp_path / "sig.csv"
        assert generate(path, "signal", "csv", "--n", "12", "--k", "3", "--seed", "33") == 0
        assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2)[0], x)
