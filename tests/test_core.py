import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitsense.core import (
    MeasurementMatrix,
    SignPattern,
    SparseUnitVector,
    angular_distance,
    gaussian_matrix,
    load_matrix_binary,
    load_matrix_csv,
    random_sparse_unit,
    save_matrix_binary,
    save_matrix_csv,
    sgn,
    sign_measure,
    sphere_distance,
)
from bitsense.rng import SeedSpec, derive_seed, sample_standard_normal


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


class TestAngularDistance:
    def test_self_angle_zero(self):
        u = np.array([3.0, 4.0])
        assert angular_distance(u, u) == 0.0

    def test_right_angle(self):
        assert angular_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (
            pytest.approx(math.pi / 2, abs=1e-12)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angular_distance(np.zeros(2), np.ones(2))

    def test_relation_to_sphere_distance(self):
        # theta == arccos(1 - d_S^2 / 2) and d_S^2 == 2 (1 - cos theta).
        seed = SeedSpec(21)
        for i in range(100):
            u = gaussian_matrix(1, 5, derive_seed(seed, 2 * i)).entries[0]
            v = gaussian_matrix(1, 5, derive_seed(seed, 2 * i + 1)).entries[0]
            theta = angular_distance(u, v)
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

    def test_sign_pattern_rejects_zero(self):
        with pytest.raises(ValueError):
            SignPattern(np.array([1, 0, -1]))

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


class TestFileFormats:
    def test_csv_roundtrip(self, tmp_path):
        a = gaussian_matrix(7, 4, SeedSpec(31)).entries
        path = tmp_path / "mat.csv"
        save_matrix_csv(path, a)
        assert np.array_equal(load_matrix_csv(path), a)

    def test_binary_roundtrip(self, tmp_path):
        a = gaussian_matrix(5, 9, SeedSpec(32)).entries
        path = tmp_path / "mat.bin"
        save_matrix_binary(path, a)
        assert np.array_equal(load_matrix_binary(path), a)

    def test_binary_header(self, tmp_path):
        path = tmp_path / "mat.bin"
        save_matrix_binary(path, np.ones((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"B1CS"
        assert np.frombuffer(raw[4:12], dtype="<u4").tolist() == [2, 3]
        assert len(raw) == 12 + 2 * 3 * 8

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError):
            load_matrix_binary(path)

    def test_binary_oversized_header(self, tmp_path):
        # Claims 100000 x 100000 doubles (80 GB); rejected before any read.
        path = tmp_path / "huge.bin"
        path.write_bytes(b"B1CS" + np.array([100000, 100000], dtype="<u4").tobytes() + bytes(16))
        with pytest.raises(ValueError, match="huge.bin"):
            load_matrix_binary(path)

    def test_binary_trailing_bytes(self, tmp_path):
        path = tmp_path / "tail.bin"
        save_matrix_binary(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="tail.bin"):
            load_matrix_binary(path)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_binary_empty_matrix(self, tmp_path, shape):
        # A header with no rows or no columns and no payload is no matrix,
        # as an empty CSV file is none.
        path = tmp_path / "empty.bin"
        path.write_bytes(b"B1CS" + np.array(shape, dtype="<u4").tobytes())
        with pytest.raises(ValueError, match="empty.bin"):
            load_matrix_binary(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "abc"])
    def test_csv_bad_entry(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0\n3.0,{token}\n")
        with pytest.raises(ValueError, match="bad.csv"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_binary_non_finite_entry(self, tmp_path, value):
        path = tmp_path / "bad.bin"
        save_matrix_binary(path, np.array([[1.0, value], [3.0, 2.0]]))
        with pytest.raises(ValueError, match="bad.bin"):
            load_matrix_binary(path)

    def test_vector_roundtrip_as_single_row(self, tmp_path):
        x = random_sparse_unit(12, 3, SeedSpec(33)).values
        path = tmp_path / "sig.csv"
        save_matrix_csv(path, x.reshape(1, -1))
        assert np.array_equal(load_matrix_csv(path)[0], x)
