import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bitsense import cli, core, raic, rng
from bitsense.core import (
    DENSE_BLOCK_ENTRIES,
    MeasurementMatrix,
    gaussian_matrix,
    random_sparse_unit,
    sgn,
    sphere_distance,
)
from bitsense.raic import (
    DEFAULT_ETA,
    PAIR_BLOCK,
    ROW_BLOCK,
    ROWS_ONLY_BELOW,
    SUPPORTS_BELOW,
    _block_residuals,
    _draw_pairs,
    correction,
    h_a,
    orthogonal_decompose,
    raic_bound,
    raic_certify,
    restricted_residual,
)
from bitsense.rng import (
    SeedSpec,
    _stream_key,
    derive_seed,
    random_uniform_rows,
    sample_standard_normal,
)
from bitsense.theory import constants
from bitsense.thresholding import threshold_set, top_k

# Residuals pass through BLAS products summed in another order than the
# reference's; they are compared to 1e-12, as the known-answer pins are.
FLOAT_TOL = 1e-12


def unit(v):
    return np.asarray(v, dtype=np.float64) / np.linalg.norm(v)


def uniforms(seed, count):
    """The first ``count`` uniforms of ``seed``'s stream."""
    return random_uniform_rows(keys_of([seed]), count)[0]


def keys_of(seeds):
    return np.array([_stream_key(s) for s in seeds], dtype=np.uint64)


def mask(n, cols):
    """The bool mask of length n that marks the coordinates in ``cols``."""
    J = np.zeros(n, dtype=bool)
    J[list(cols)] = True
    return J


def restricted_map(A, x, y, J):
    """h_A(x, y) restricted to supp(x) u supp(y) u J: h_{A,J}(x, y)."""
    return threshold_set(h_a(A, x, y), mask(A.n, {*np.flatnonzero(x), *np.flatnonzero(y), *J}))


def reference_pair(n, k, seed, pair_id, num_small, max_j, radius):
    """Pair ``pair_id`` of a certificate, drawn pair by pair from its own
    seed: (x, y, J)."""
    pair_seed = derive_seed(seed, pair_id)

    def sparse_unit(s):
        support = np.argsort(uniforms(derive_seed(s, 0), n), kind="stable")[:k]
        vals = sample_standard_normal(derive_seed(s, 1), k)
        out = np.zeros(n)
        out[np.sort(support)] = vals / np.linalg.norm(vals)
        return out

    x = sparse_unit(derive_seed(pair_seed, 0))
    if pair_id < num_small:
        noise = sample_standard_normal(derive_seed(pair_seed, 1), k)
        y = x.copy()
        y[np.flatnonzero(x)] += (radius / np.linalg.norm(noise)) * noise
        y = y / np.linalg.norm(y)
    else:
        y = sparse_unit(derive_seed(pair_seed, 1))
    return x, y, reference_index_set(n, max_j, derive_seed(pair_seed, 2))


def reference_index_set(n, max_j, seed):
    """A certificate's J: size uniform on {0..max_j}, indices uniform
    without replacement, from n + 1 uniforms."""
    if max_j <= 0:
        return []
    u = uniforms(seed, n + 1)
    size = min(int(u[0] * (max_j + 1)), max_j)
    return np.argsort(u[1:], kind="stable")[:size].tolist()


class TestCorrectionMap:
    def test_zero_at_equal_arguments(self):
        A = gaussian_matrix(30, 6, SeedSpec(70))
        x = unit(np.arange(1.0, 7.0))
        assert not h_a(A, x, x).any()

    def test_antisymmetric(self):
        A = gaussian_matrix(30, 6, SeedSpec(71))
        x = unit(np.arange(1.0, 7.0))
        y = unit(np.cos(np.arange(6.0)))
        assert np.max(np.abs(h_a(A, x, y) + h_a(A, y, x))) == 0.0

    def test_matches_row_sum_oracle(self):
        # Direct per-row reconstruction of the definition.
        A = gaussian_matrix(25, 5, SeedSpec(72))
        x = unit(np.array([1.0, -1.0, 0.5, 0.0, 2.0]))
        y = unit(np.array([0.3, 1.0, 0.0, -1.0, 0.7]))
        expected = np.zeros(5)
        for i in range(25):
            row = A.entries[i]
            sx = 1.0 if row @ x >= 0 else -1.0
            sy = 1.0 if row @ y >= 0 else -1.0
            expected += row * 0.5 * (sx - sy)
        expected *= DEFAULT_ETA / 25
        assert np.max(np.abs(h_a(A, x, y) - expected)) <= 1e-12

    def test_mean_projection_recovers_difference(self):
        # The minus-direction projection of the correction map is an
        # unbiased estimator of ||u - v||; checked by direct Monte Carlo
        # over independent matrices (4 standard errors).
        n, m, trials = 10, 100, 2000
        u = np.zeros(n)
        v = np.zeros(n)
        u[0] = 1.0
        v[0] = 0.5
        v[1] = math.sqrt(3.0) / 2.0  # angle pi/3, so ||u - v|| = 1
        e_minus = unit(u - v)
        samples = np.empty(trials)
        for i in range(trials):
            A = gaussian_matrix(m, n, derive_seed(SeedSpec(73), i))
            samples[i] = e_minus @ h_a(A, u, v)
        se = samples.std(ddof=1) / math.sqrt(trials)
        assert abs(samples.mean() - 1.0) <= 4.0 * se

    def test_dimension_mismatch(self):
        A = gaussian_matrix(10, 4, SeedSpec(74))
        with pytest.raises(ValueError, match="^x has length 3, expected 4$"):
            h_a(A, np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="^y has length 3, expected 4$"):
            h_a(A, np.ones(4), np.ones(3))

    @staticmethod
    def dense_signs(m, seed):
        """Two random sign patterns of length m, which differ on about m/2
        rows: a dense correction."""
        b, s = (sgn(sample_standard_normal(SeedSpec(seed, i), m)) for i in (0, 1))
        assert np.count_nonzero(b != s) >= ROWS_ONLY_BELOW * m
        return b, s, 0.5 * (b.astype(np.float64) - s)

    @pytest.mark.parametrize("m, n", [(2**19 // 200, 200), (2**13, 2**6), (1000, 7)])
    def test_dense_step_of_one_block_is_the_single_product(self, m, n):
        # At most DENSE_BLOCK_ENTRIES entries make one row block, so the
        # dense correction keeps the bytes of the single A.T @ r.
        assert m * n <= DENSE_BLOCK_ENTRIES
        A = gaussian_matrix(m, n, SeedSpec(75))
        b, s, r = self.dense_signs(m, 76)
        want = (DEFAULT_ETA / m) * (A.entries.T @ r)
        assert correction(A, b, s).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, n", [(8000, 200), (2 * 2621, 200), (2**13 + 1, 2**6)])
    def test_dense_step_sums_the_row_blocks_in_order(self, m, n):
        # Above DENSE_BLOCK_ENTRIES the products of the row blocks of
        # dense_row_blocks are added in block order.
        A = gaussian_matrix(m, n, SeedSpec(77))
        b, s, r = self.dense_signs(m, 78)
        starts = core.dense_row_blocks(m, n)
        assert len(starts) > 1
        total = A.entries[: starts.step].T @ r[: starts.step]
        for start in starts[1:]:
            total += A.entries[start : start + starts.step].T @ r[start : start + starts.step]
        assert correction(A, b, s).tobytes() == ((DEFAULT_ETA / m) * total).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 30),
        st.integers(0, 2**64 - 1),
        st.integers(1, 30),
    )
    def test_equals_correction_of_dense_signs(self, m, n, seed, k):
        # x is sparse, y dense: the support-restricted measurement and the
        # whole-matrix product give the same signs, so the same vector.
        A = gaussian_matrix(m, n, SeedSpec(seed, 0))
        x = random_sparse_unit(n, min(k, n), SeedSpec(seed, 1)).values
        y = unit(sample_standard_normal(SeedSpec(seed, 2), n))
        dense = correction(A, sgn(A.entries @ x), sgn(A.entries @ y), DEFAULT_ETA)
        assert np.array_equal(h_a(A, x, y), dense)


class TestRestrictedCorrectionMap:
    def test_full_cover_equals_unrestricted(self):
        A = gaussian_matrix(40, 8, SeedSpec(75))
        x = random_sparse_unit(8, 3, SeedSpec(76)).values
        y = random_sparse_unit(8, 3, SeedSpec(77)).values
        full = restricted_map(A, x, y, range(8))
        assert np.array_equal(full, h_a(A, x, y))

    def test_empty_j_restricts_to_supports(self):
        A = gaussian_matrix(40, 8, SeedSpec(78))
        x = random_sparse_unit(8, 2, SeedSpec(79))
        y = random_sparse_unit(8, 2, SeedSpec(80))
        out = restricted_map(A, x.values, y.values, set())
        supp = set(x.support()) | set(y.support())
        required = threshold_set(h_a(A, x.values, y.values), mask(8, supp))
        assert np.array_equal(out, required)
        assert set(np.flatnonzero(out)) <= supp

    def test_restriction_is_contraction(self):
        A = gaussian_matrix(40, 8, SeedSpec(81))
        x = random_sparse_unit(8, 3, SeedSpec(82)).values
        y = random_sparse_unit(8, 3, SeedSpec(83)).values
        assert np.linalg.norm(restricted_map(A, x, y, {0})) <= np.linalg.norm(h_a(A, x, y))


class TestOrthogonalDecompose:
    def test_pure_minus_direction(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        e_minus = unit(u - v)
        c_minus, c_plus, g = orthogonal_decompose(e_minus, u, v)
        assert c_minus == pytest.approx(1.0, abs=1e-12)
        assert c_plus == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(g)) <= 1e-12

    def test_orthogonal_component_untouched(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        h = np.array([0.0, 0.0, 3.0])
        c_minus, c_plus, g = orthogonal_decompose(h, u, v)
        assert abs(c_minus) <= 1e-12 and abs(c_plus) <= 1e-12
        assert np.array_equal(g, h)

    def test_reconstruction_and_pythagoras(self):
        seed = SeedSpec(84)
        for i in range(100):
            n = 7
            u = unit(sample_standard_normal(derive_seed(seed, 3 * i), n))
            v = unit(sample_standard_normal(derive_seed(seed, 3 * i + 1), n))
            h = sample_standard_normal(derive_seed(seed, 3 * i + 2), n)
            c_minus, c_plus, g = orthogonal_decompose(h, u, v)
            e_minus = unit(u - v)
            e_plus = unit(u + v)
            rebuilt = c_minus * e_minus + c_plus * e_plus + g
            assert np.max(np.abs(rebuilt - h)) <= 1e-10
            assert abs(g @ e_minus) <= 1e-10 and abs(g @ e_plus) <= 1e-10
            lhs = np.linalg.norm(h) ** 2
            rhs = c_minus**2 + c_plus**2 + np.linalg.norm(g) ** 2
            assert abs(lhs - rhs) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**64 - 1))
    def test_pythagoras_property(self, n, base):
        seed = SeedSpec(base)
        u = unit(sample_standard_normal(derive_seed(seed, 0), n))
        v = unit(sample_standard_normal(derive_seed(seed, 1), n))
        h = sample_standard_normal(derive_seed(seed, 2), n)
        # Pairs too close to u = +-v have ill-conditioned directions.
        assume(min(np.linalg.norm(u - v), np.linalg.norm(u + v)) >= 1e-3)
        c_minus, c_plus, g = orthogonal_decompose(h, u, v)
        lhs = np.linalg.norm(h) ** 2
        rhs = c_minus**2 + c_plus**2 + np.linalg.norm(g) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)

    def test_degenerate_directions_rejected(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            orthogonal_decompose(np.ones(2), u, u)
        with pytest.raises(ValueError):
            orthogonal_decompose(np.ones(2), u, -u)

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_decompose(np.ones(2), np.array([2.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["u", "v"])
    def test_non_finite_inputs_rejected(self, name, bad):
        # A NaN norm is no more than 1e-6 from 1 in neither direction; it
        # used to pass and return all-NaN output.  u and v go through the
        # package's rule for a vector input, which rejects it first.
        pair = {"u": np.array([1.0, 0.0]), "v": np.array([0.0, 1.0])}
        pair[name] = np.array([bad, 0.0])
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            orthogonal_decompose(np.ones(2), pair["u"], pair["v"])

    @pytest.mark.parametrize("h", [np.array([math.nan, 0.0, 0.0]),
                                   np.array([[0.0, 1.0, 0.0], [math.inf, 0.0, 0.0]])],
                             ids=["nan vector", "inf in a stack row"])
    def test_non_finite_h_rejected(self, h):
        # Unchecked, a NaN came back as NaN components, and an inf raised
        # numpy's RuntimeWarnings from the subtraction.
        u, v = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="^h must be finite$"):
            orthogonal_decompose(h, u, v)

    @pytest.mark.parametrize("name", ["u", "v"])
    @pytest.mark.parametrize(
        "bad, got",
        [(np.array([1.0]), "has length 1, expected 8"),
         (np.eye(8)[:1], "must be a one-dimensional array of real numbers, got an array of "
                         "dtype float64 and shape (1, 8)"),
         (np.array(1.0), "must be a one-dimensional array of real numbers, got an array of "
                         "dtype float64 and shape ()")],
        ids=["length 1", "one row", "scalar"])
    def test_u_and_v_must_have_the_length_of_h(self, name, bad, got):
        # A shorter u or v used to broadcast against h and give numbers.
        pair = {"u": np.eye(8)[0], "v": np.eye(8)[1]}
        pair[name] = bad
        message = f"{name} {got}"
        for h in (np.ones(8), np.ones((3, 8))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                orthogonal_decompose(h, pair["u"], pair["v"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(2, 40), st.integers(0, 2**64 - 1))
    def test_rows_decompose_as_single_vectors(self, t, n, base):
        # A stack of t vectors decomposes row by row, bit for bit.
        seed = SeedSpec(base)
        u = unit(sample_standard_normal(derive_seed(seed, 0), n))
        v = unit(sample_standard_normal(derive_seed(seed, 1), n))
        H = sample_standard_normal(derive_seed(seed, 2), t * n).reshape(t, n)
        assume(min(np.linalg.norm(u - v), np.linalg.norm(u + v)) >= 1e-3)
        c_minus, c_plus, g = orthogonal_decompose(H, u, v)
        assert c_minus.shape == c_plus.shape == (t,) and g.shape == (t, n)
        for i in range(t):
            one_minus, one_plus, one_g = orthogonal_decompose(H[i], u, v)
            assert c_minus[i] == one_minus and c_plus[i] == one_plus
            assert np.array_equal(g[i], one_g)
        # One vector's coefficient is its plain dot with the direction.
        assert one_minus == float(np.dot(unit(u - v), H[-1]))


class TestDecompositionIdentity:
    def test_restricted_map_splits_exactly(self):
        # h_{A,J} == c_minus e_minus + c_plus e_plus + T_S(g) with the
        # coefficients taken from the unrestricted map and
        # S = supp(x) u supp(y) u J (which always contains both directions).
        A = gaussian_matrix(60, 12, SeedSpec(85))
        x = random_sparse_unit(12, 3, SeedSpec(86))
        y = random_sparse_unit(12, 3, SeedSpec(87))
        for J in (set(), {0, 5}, set(range(12))):
            h_full = h_a(A, x.values, y.values)
            c_minus, c_plus, g = orthogonal_decompose(h_full, x.values, y.values)
            S = set(x.support()) | set(y.support()) | J
            e_minus = unit(x.values - y.values)
            e_plus = unit(x.values + y.values)
            expected = c_minus * e_minus + c_plus * e_plus + threshold_set(g, mask(12, S))
            got = restricted_map(A, x.values, y.values, J)
            assert np.max(np.abs(got - expected)) <= 1e-10


class TestResidualAndBound:
    def test_residual_zero_at_equal_points(self):
        A = gaussian_matrix(30, 10, SeedSpec(88))
        x = random_sparse_unit(10, 3, SeedSpec(89))
        h = h_a(A, x.values, x.values)
        assert restricted_residual(x.values, x.values, mask(10, set()), h) == 0.0

    def test_residual_symmetric_in_pair(self):
        A = gaussian_matrix(30, 10, SeedSpec(90))
        x = random_sparse_unit(10, 3, SeedSpec(91))
        y = random_sparse_unit(10, 3, SeedSpec(92))
        J = mask(10, {1})
        xy = restricted_residual(x.values, y.values, J, h_a(A, x.values, y.values))
        yx = restricted_residual(y.values, x.values, J, h_a(A, y.values, x.values))
        assert xy == pytest.approx(yx, abs=1e-12)

    def test_residual_at_antipode_matches_direct_formula(self):
        A = gaussian_matrix(30, 10, SeedSpec(93))
        x = random_sparse_unit(10, 3, SeedSpec(94))
        h = h_a(A, x.values, -x.values)
        direct = np.linalg.norm(2.0 * x.values - threshold_set(h, mask(10, x.support())))
        got = restricted_residual(x.values, -x.values, mask(10, set()), h)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_bound_formula(self):
        assert raic_bound(0.3, 2.0, 5.0, 0.0) == pytest.approx(1.5, abs=1e-15)
        assert raic_bound(0.3, 0.0, 0.0, 1.2) == 0.0
        with pytest.raises(ValueError):
            raic_bound(-0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^d_s must be nonnegative$"):
            raic_bound(0.1, 1.0, 1.0, [0.5, -5e-324])

    @pytest.mark.parametrize("d_s", [[0.5, 1.2], (0.5, 1.2)], ids=["list", "tuple"])
    def test_bound_takes_a_sequence_of_distances(self, d_s):
        # The bound used to multiply delta by the sequence itself, a TypeError.
        want = raic_bound(0.1, 1.0, 2.0, np.array(d_s))
        assert raic_bound(0.1, 1.0, 2.0, d_s).tolist() == want.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1j, True, "0.5", None])
    @pytest.mark.parametrize("position", range(4))
    def test_bound_rejects_non_finite_arguments(self, position, bad):
        # A NaN used to pass `min(...) < 0` and come back as the bound; a
        # complex d_s gave a complex bound, True counted as 1, and a string
        # or None raised a TypeError.  Each argument goes through the
        # package's rule for a real input, and an array of d_s through its
        # rule for a vector input.
        name = ("delta", "a1", "a2", "d_s")[position]
        message = f"{name} must be a finite number in [0, inf), got {bad!r}"
        args = [0.1, 1.0, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            raic_bound(*args)
        if position < 3 or isinstance(bad, float):  # a float array of d_s, one entry bad
            args[3] = np.array([0.5, args[3], 1.5])
            message = message if position < 3 else "d_s must be finite"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                raic_bound(*args)

    def test_residual_rows_equal_each_pair_alone(self):
        # A stack of pairs gives each pair's residual bit for bit, with J
        # a mask row per pair.
        n, t = 20, 6
        A = gaussian_matrix(60, n, SeedSpec(98))
        X = np.array([random_sparse_unit(n, 3, SeedSpec(98, i)).values for i in range(t)])
        Y = np.array([random_sparse_unit(n, 4, SeedSpec(98, 50 + i)).values for i in range(t)])
        Y[0] = X[0]
        J = np.array([mask(n, range(0, n, 2 + i)[:i]) for i in range(t)])
        H = np.array([h_a(A, x, y) for x, y in zip(X, Y)])
        got = restricted_residual(X, Y, J, H)
        assert got.shape == (t,)
        for i in range(t):
            alone = restricted_residual(X[i], Y[i], J[i], H[i])
            assert type(alone) is float and got[i] == alone
            direct = restricted_map(A, X[i], Y[i], np.flatnonzero(J[i]))
            assert alone == np.linalg.norm((X[i] - Y[i]) - direct)

    @pytest.mark.parametrize("J", [np.array([1, 3]), [1, 3], np.array([0, 1, 0, 0])])
    def test_residual_rejects_an_index_set(self, J):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            restricted_residual(x, y, J, np.ones(4))

    @pytest.mark.parametrize(
        "J",
        [np.array([0.0, 1.0, 0.0, 0.0]), [False, True, False, False], np.zeros(3, dtype=bool)],
        ids=["float array", "list of bools", "bool of another shape"],
    )
    def test_residual_checks_j_as_threshold_set_does(self, J):
        # The check comes before J meets the supports in a union, which
        # would raise numpy's own errors or take a list.
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=r"J must be a bool mask of shape \(4,\)"):
            threshold_set(np.ones(4), J)
        with pytest.raises(ValueError, match=r"J must be a bool mask of shape \(4,\)"):
            restricted_residual(x, y, J, np.ones(4))

    def test_bound_with_certified_constants(self):
        u = constants()
        eps, d = 0.16, 0.9
        delta = eps / u.c
        expected = u.c1 * math.sqrt(delta * d) + u.c2 * delta
        assert raic_bound(delta, u.c1, u.c2, d) == pytest.approx(expected, rel=1e-15)

    def test_threshold_monotonicity_used_by_error_bound(self):
        # For x supported inside S and S within S', discarding fewer
        # coordinates cannot reduce the distance:
        # ||x - T_S(v)|| <= ||x - T_S'(v)||.
        seed = SeedSpec(95)
        for i in range(50):
            v = sample_standard_normal(derive_seed(seed, i), 12)
            x = np.zeros(12)
            x[[1, 4, 6]] = unit(sample_standard_normal(derive_seed(seed, 100 + i), 3))
            S = {1, 4, 6}
            Sp = S | {0, 2, 9}
            lhs = np.linalg.norm(x - threshold_set(v, mask(12, S)))
            rhs = np.linalg.norm(x - threshold_set(v, mask(12, Sp)))
            assert lhs <= rhs + 1e-12


@pytest.fixture(scope="module")
def report():
    A = gaussian_matrix(800, 60, SeedSpec(96))
    return raic_certify(A, 4, 0.05, 40, 4, SeedSpec(97), num_small=8)


class TestCertify:
    def test_counts_and_worst_ratio(self, report):
        assert report.samples == 40
        assert len(report.records) == 40
        assert report.worst_ratio == max(r.ratio for r in report.records)
        assert report.n_violations == sum(1 for r in report.records if r.ratio > 1.0)

    def test_both_regimes_present(self, report):
        regimes = {r.regime for r in report.records}
        assert regimes == {"small", "large"}
        for r in report.records:
            assert (r.d_s < report.tau) == (r.regime == "small")

    def test_small_pairs_forced_below_tau(self, report):
        small = [r for r in report.records if r.pair_id < 8]
        assert all(r.d_s < report.tau for r in small)

    def test_bounds_and_ratios_consistent(self, report):
        u = constants()
        for r in report.records:
            assert r.bound == pytest.approx(
                raic_bound(report.delta, u.c1, u.c2, r.d_s), rel=1e-12
            )
            if r.bound > 0:
                assert r.ratio == pytest.approx(r.residual / r.bound, rel=1e-12)

    def test_deterministic(self, report):
        A = gaussian_matrix(800, 60, SeedSpec(96))
        again = raic_certify(A, 4, 0.05, 40, 4, SeedSpec(97), num_small=8)
        assert again.records == report.records

    def test_emission(self, tmp_path):
        # `bitsense raic` writes the certificate of the matrix and pairs it
        # derives from its seed: every record and the summary's values.
        args = ["raic", "--m", "800", "--n", "60", "--k", "4", "--delta", "0.05", "--pairs", "40",
                "--max-j", "4", "--small-pairs", "8", "--seed", "96"]
        assert cli.main([*args, "--output-dir", str(tmp_path)]) == 0
        A = gaussian_matrix(800, 60, derive_seed(SeedSpec(96), 0))
        report = raic_certify(A, 4, 0.05, 40, 4, derive_seed(SeedSpec(96), 1), num_small=8)
        lines = (tmp_path / "raic_report.csv").read_text().splitlines()
        assert lines[0] == "pair_id,d_s,regime,residual,bound,ratio"
        assert len(lines) == 41
        for line, r in zip(lines[1:], report.records):
            pair_id, d_s, regime, *floats = line.split(",")
            assert (int(pair_id), float(d_s), regime) == (r.pair_id, r.d_s, r.regime)
            assert [float(v) for v in floats] == [r.residual, r.bound, r.ratio]
        summary = json.loads((tmp_path / "raic_summary.json").read_text())
        assert set(summary) == {"delta", "worst_ratio", "n_pairs", "n_violations", "delta_hat"}
        assert summary["n_pairs"] == 40
        assert summary["delta_hat"] == report.delta_hat
        assert (summary["delta"], summary["worst_ratio"], summary["n_violations"]) == (
            report.delta, report.worst_ratio, report.n_violations)

    def test_parameter_validation(self):
        A = gaussian_matrix(20, 10, SeedSpec(98))
        with pytest.raises(ValueError):
            raic_certify(A, 2, 0.1, 0, 2, SeedSpec(1))
        with pytest.raises(ValueError):
            raic_certify(A, 2, 1.5, 5, 2, SeedSpec(1))

    def test_ratio_above_one_at_seed_97_is_no_kernel_fault(self):
        # `bitsense raic --seed 97` at its defaults (m=5000, n=200, k=5,
        # delta=0.01, 500 pairs of which 100 small, max_j=k) has its worst
        # ratio, above 1, at pair 497 in the large regime.  The residual is
        # recomputed here from the definition, one row at a time in long
        # double, over only the kept columns supp(x) u supp(y) u J.
        n, k, m = 200, 5, 5000
        base = SeedSpec(97)
        A = gaussian_matrix(m, n, derive_seed(base, 0))
        report = raic_certify(A, k, 0.01, 500, k, derive_seed(base, 1))
        record = report.records[497]
        assert record.regime == "large"
        assert record.ratio == report.worst_ratio > 1.06

        pair_seed = derive_seed(derive_seed(base, 1), 497)
        x = random_sparse_unit(n, k, derive_seed(pair_seed, 0)).values
        y = random_sparse_unit(n, k, derive_seed(pair_seed, 1)).values
        J = reference_index_set(n, k, derive_seed(pair_seed, 2))
        supp_x, supp_y = np.flatnonzero(x).tolist(), np.flatnonzero(y).tolist()
        keep = sorted(set(supp_x) | set(supp_y) | set(J))
        ld = np.longdouble
        h = {j: ld(0) for j in keep}
        for i in range(m):
            row = A.entries[i]
            ax = sum(ld(row[j]) * ld(x[j]) for j in supp_x)
            ay = sum(ld(row[j]) * ld(y[j]) for j in supp_y)
            half_diff = ((1 if ax >= 0 else -1) - (1 if ay >= 0 else -1)) // 2
            if half_diff:
                for j in keep:
                    h[j] += half_diff * ld(row[j])
        scale = ld(DEFAULT_ETA) / ld(m)
        residual = np.sqrt(sum((ld(x[j]) - ld(y[j]) - scale * h[j]) ** 2 for j in keep))
        assert abs(float(residual) - record.residual) <= 1e-12

    def test_ratio_convention_for_degenerate_bounds(self):
        # A zero bound yields ratio 0 for a zero residual and a flagged
        # infinity otherwise, keeping reports total.
        from bitsense.raic import _ratio

        assert _ratio(0.0, 0.0) == 0.0
        assert _ratio(0.5, 0.0) == math.inf
        assert _ratio(0.3, 0.6) == 0.5


class TestBlockPath:
    @settings(max_examples=40, deadline=None)
    @given(
        num_pairs=st.integers(1, 3 * PAIR_BLOCK + 1),
        num_small=st.integers(0, 3 * PAIR_BLOCK + 1),
        n=st.integers(1, 40),
        k=st.integers(1, 40),
        max_j=st.sampled_from([0, 1, 5, 40]),
        base=st.integers(0, 2**64 - 1),
    )
    @example(num_pairs=3 * PAIR_BLOCK + 1, num_small=PAIR_BLOCK + 3, n=30, k=3, max_j=5, base=5)
    @example(num_pairs=1, num_small=1, n=1, k=1, max_j=0, base=0)
    def test_block_draws_equal_pair_by_pair_draws(self, num_pairs, num_small, n, k, max_j, base):
        num_small, k = min(num_small, num_pairs), min(k, n)
        seed, radius = SeedSpec(base, 3), 1e-4
        for first in range(0, num_pairs, PAIR_BLOCK):
            count = min(PAIR_BLOCK, num_pairs - first)
            X, Y, J = _draw_pairs(n, k, seed, first, count, num_small, max_j, radius)
            assert J.shape == X.shape and J.dtype == bool
            for i in range(count):
                x, y, want = reference_pair(n, k, seed, first + i, num_small, max_j, radius)
                assert X[i].tobytes() == x.tobytes()
                assert Y[i].tobytes() == y.tobytes()
                assert np.flatnonzero(J[i]).tolist() == sorted(want)

    def test_block_draws_on_tied_ranks_select_as_the_stable_sort(self, monkeypatch):
        # Ranks rounded down to eighths tie often, at the k-th smallest too,
        # where the selection must fall back to the stable sort's choice.
        def coarse(keys, n):
            return np.floor(rng.random_uniform_rows(keys, n) * 8.0) / 8.0

        monkeypatch.setattr(core, "random_uniform_rows", coarse)
        monkeypatch.setattr(raic, "random_uniform_rows", coarse)
        n, k, max_j, seed = 30, 4, 6, SeedSpec(9, 3)
        X, Y, J = _draw_pairs(n, k, seed, 0, PAIR_BLOCK, 0, max_j, 1e-4)
        pair_seeds = [derive_seed(seed, p) for p in range(PAIR_BLOCK)]
        for rows, c in ((X, 0), (Y, 1)):
            ranks = coarse(keys_of([derive_seed(derive_seed(s, c), 0) for s in pair_seeds]), n)
            expected = np.sort(np.argsort(ranks, axis=1, kind="stable")[:, :k], axis=1)
            assert np.array_equal(np.nonzero(rows)[1].reshape(-1, k), expected)
        u = coarse(keys_of([derive_seed(s, 2) for s in pair_seeds]), n + 1)
        sizes = np.minimum((u[:, 0] * (max_j + 1)).astype(np.int64), max_j)
        order = np.argsort(u[:, 1:], axis=1, kind="stable")
        for i in range(PAIR_BLOCK):
            assert np.flatnonzero(J[i]).tolist() == sorted(order[i, : sizes[i]])

    # The sampler gives the normal 0.0 for the uniform 1/2, one word in 2^53;
    # these draws put such zeros where the pair draw reads them.
    N, K, PAIRS, SMALL, RADIUS = 30, 4, 12, 6, 1e-4

    def zeroed(self, where):
        """`rng.sample_standard_normal_rows` with the entries at ``where``
        of each result set to 0.0."""
        def draw(keys, count):
            out = rng.sample_standard_normal_rows(keys, count)
            out[where] = 0.0
            return out
        return draw

    def test_a_zero_among_xs_values_keeps_its_column(self, monkeypatch):
        # Pair 0 is small: its perturbation must still land on all of x's
        # drawn support, the zero's column too.  Pair SMALL, the first
        # large one, gets a zero in y.  No other row may move.
        seed = SeedSpec(9, 4)
        X0, Y0, J0 = _draw_pairs(self.N, self.K, seed, 0, self.PAIRS, self.SMALL, self.K,
                                 self.RADIUS)
        monkeypatch.setattr(core, "sample_standard_normal_rows", self.zeroed((0, 1)))
        X, Y, J = _draw_pairs(self.N, self.K, seed, 0, self.PAIRS, self.SMALL, self.K,
                              self.RADIUS)
        support = np.flatnonzero(X0[0])
        assert np.count_nonzero(X[0]) == self.K - 1
        assert set(np.flatnonzero(X[0])) < set(support)
        assert np.array_equal(np.flatnonzero(Y[0]), support)
        assert np.isfinite(Y[0]).all() and abs(np.linalg.norm(Y[0]) - 1.0) <= 1e-12
        assert sphere_distance(X[0], Y[0]) < 2.0 * self.RADIUS
        assert np.count_nonzero(Y[self.SMALL]) == self.K - 1
        assert X[1:].tobytes() == X0[1:].tobytes()
        others = np.arange(1, self.PAIRS) != self.SMALL
        assert Y[1:][others].tobytes() == Y0[1:][others].tobytes()
        assert J.tobytes() == J0.tobytes()
        A = gaussian_matrix(200, self.N, SeedSpec(9, 5))
        report = raic_certify(A, self.K, 0.05, self.PAIRS, self.K, seed, num_small=self.SMALL)
        assert np.isfinite([r.residual for r in report.records]).all()

    def test_a_zero_noise_row_perturbs_along_the_ones(self, monkeypatch):
        # All k noise normals 0: the noise becomes a row of ones, as a dead
        # row of values does in `random_sparse_unit_rows`.
        seed = SeedSpec(9, 6)
        X0, Y0, _ = _draw_pairs(self.N, self.K, seed, 0, self.PAIRS, self.SMALL, self.K,
                                self.RADIUS)
        monkeypatch.setattr(raic, "sample_standard_normal_rows", self.zeroed(0))
        X, Y, _ = _draw_pairs(self.N, self.K, seed, 0, self.PAIRS, self.SMALL, self.K,
                              self.RADIUS)
        y = X0[0].copy()
        y[np.flatnonzero(y)] += self.RADIUS / math.sqrt(self.K)
        assert Y[0].tobytes() == (y / np.linalg.norm(y)).tobytes()
        assert X.tobytes() == X0.tobytes()
        assert Y[1:].tobytes() == Y0[1:].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 2 * ROW_BLOCK + 100),
        st.integers(1, 25),
        st.integers(1, PAIR_BLOCK + 3),
        st.integers(0, 2**64 - 1),
    )
    @example(2 * ROW_BLOCK + 37, 20, PAIR_BLOCK, 1)
    def test_block_residuals_equal_reference(self, m, n, count, base):
        # Pairs of sparse, dense, equal and antipodal vectors; J of any size.
        A = gaussian_matrix(m, n, SeedSpec(base, 0))
        X = np.array([random_sparse_unit(n, 1 + i % n, SeedSpec(base, 1 + i)).values
                      for i in range(count)])
        Y = np.array([unit(sample_standard_normal(SeedSpec(base, 100 + i), n))
                      for i in range(count)])
        Y[::4] = X[::4]
        Y[1::4] = -X[1::4]
        Js = [list(range(0, n, 1 + i % 3))[: i % 4] for i in range(count)]
        J = np.zeros(X.shape, dtype=bool)
        for i, cols in enumerate(Js):
            J[i, cols] = True
        got = _block_residuals(A, X, Y, J)
        for i in range(count):
            want = restricted_residual(X[i], Y[i], mask(n, Js[i]), h_a(A, X[i], Y[i]))
            assert got[i] == pytest.approx(want, abs=FLOAT_TOL, rel=0)

    def test_block_residual_rejects_wrong_length(self):
        A = gaussian_matrix(10, 4, SeedSpec(74))
        x = unit(np.ones(3))[None]
        with pytest.raises(ValueError):
            _block_residuals(A, x, x, np.zeros(x.shape, dtype=bool))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 4), (4,)])
    def test_block_residual_rejects_a_mask_not_of_the_pairs_shape(self, shape):
        A = gaussian_matrix(10, 4, SeedSpec(74))
        x = unit(np.ones(4))[None]
        with pytest.raises(ValueError, match="pairs and J"):
            _block_residuals(A, x, x, np.zeros(shape, dtype=bool))

    def test_certify_matches_pair_by_pair_reference(self):
        # Across block edges: pairs, regimes and d_s exactly, residuals to
        # FLOAT_TOL.
        n, k, delta, num_pairs, num_small = 30, 4, 0.05, 2 * PAIR_BLOCK + 5, PAIR_BLOCK + 2
        A = gaussian_matrix(ROW_BLOCK + 77, n, SeedSpec(61))
        seed = SeedSpec(62)
        report = raic_certify(A, k, delta, num_pairs, k, seed, num_small=num_small)
        assert [r.pair_id for r in report.records] == list(range(num_pairs))
        for r in report.records:
            x, y, J = reference_pair(n, k, seed, r.pair_id, num_small, k, report.tau / 2)
            assert r.d_s == sphere_distance(x, y)
            assert r.regime == ("small" if r.pair_id < num_small else "large")
            want = restricted_residual(x, y, mask(n, J), h_a(A, x, y))
            assert r.residual == pytest.approx(want, abs=FLOAT_TOL, rel=0)


def dense_block_residuals(A, X, Y, J):
    """The block kernel with both sign patterns from dense products over
    all n columns, signed by `sgn`, and the correction as A_rb^T D: the
    reference whose bytes the kernel must give on either path."""
    H = np.zeros((A.n, len(X)))
    for start in range(0, A.m, ROW_BLOCK):
        rows = A.entries[start : start + ROW_BLOCK]
        H += rows.T @ (0.5 * (sgn(rows @ X.T) - sgn(rows @ Y.T)))
    H *= DEFAULT_ETA / A.m
    return restricted_residual(X, Y, J, H.T)


def sparse_rows(n, k, base, streams):
    """k-sparse unit rows of length n, one from ``SeedSpec(base, s)`` for
    each s in ``streams``."""
    return np.array([random_sparse_unit(n, k, SeedSpec(base, s)).values for s in streams])


class TestSupportProducts:
    """The kernel's sign products over the pairs' supports (`SUPPORTS_BELOW`)
    against dense ones."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, ROW_BLOCK + 200),
        n=st.integers(1, 80),
        k=st.integers(1, 12),
        count=st.integers(1, 40),
        dense_y=st.booleans(),
        zero=st.booleans(),
        base=st.integers(0, 2**64 - 1),
    )
    @example(m=ROW_BLOCK + 37, n=80, k=3, count=40, dense_y=False, zero=True, base=1)
    @example(m=ROW_BLOCK + 37, n=50, k=5, count=40, dense_y=False, zero=False, base=2)
    @example(m=ROW_BLOCK + 37, n=50, k=4, count=40, dense_y=False, zero=False, base=3)
    @example(m=300, n=80, k=3, count=40, dense_y=True, zero=False, base=4)
    def test_equal_to_dense_sign_products(self, m, n, k, count, dense_y, zero, base):
        # Bit for bit, on either side of the k / n threshold and with dense
        # rows of Y, which send the block to the dense products.  With
        # ``zero``, x's first support value is exactly 0.0, as a draw of the
        # uniform 1/2 makes it.
        k = min(k, n)
        A = gaussian_matrix(m, n, SeedSpec(base, 0))
        X = sparse_rows(n, k, base, range(1, 1 + count))
        if zero:
            X[0, np.flatnonzero(X[0])[0]] = 0.0
        if dense_y:
            Y = np.array([unit(sample_standard_normal(SeedSpec(base, 100 + i), n))
                          for i in range(count)])
        else:
            Y = sparse_rows(n, k, base, range(300, 300 + count))
        Y[::3] = X[::3]
        J = random_uniform_rows(keys_of([SeedSpec(base, 200 + i) for i in range(count)]), n) < 0.3
        want = dense_block_residuals(A, X, Y, J)
        assert _block_residuals(A, X, Y, J).tobytes() == want.tobytes()
        # Each path on the same input: never the support products, then
        # always.
        for threshold in (0.0, 2.0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(raic, "SUPPORTS_BELOW", threshold)
                assert _block_residuals(A, X, Y, J).tobytes() == want.tobytes()

    def test_the_threshold_is_on_the_densest_row(self, monkeypatch):
        # One row of Y at SUPPORTS_BELOW * n nonzeros sends the block to the
        # dense products; one nonzero fewer keeps it on the supports.
        from scipy import sparse

        n = 60
        k = math.ceil(SUPPORTS_BELOW * n)
        A = gaussian_matrix(300, n, SeedSpec(75))
        X = sparse_rows(n, 2, 75, range(5))
        J = np.zeros(X.shape, dtype=bool)
        made = []
        real = sparse.csr_array
        monkeypatch.setattr(sparse, "csr_array", lambda P: made.append(P.shape) or real(P))
        for densest, support in ((k - 1, True), (k, False)):
            Y = X.copy()
            Y[2] = random_sparse_unit(n, densest, SeedSpec(76)).values
            made.clear()
            got = _block_residuals(A, X, Y, J)
            assert made == ([(10, n)] if support else [])
            assert got.tobytes() == dense_block_residuals(A, X, Y, J).tobytes()

    def test_an_exact_zero_product_signs_as_plus_one(self):
        # Row 0 of A is zero on supp(x), so the support product is exactly
        # 0, and sgn(0) = +1; sgn(A_0 y) = -1, so the row enters the
        # correction.
        n = 40
        entries = gaussian_matrix(8, n, SeedSpec(73)).entries.copy()
        entries[0, [0, 1]] = 0.0
        entries[0, 5] = -1.0
        A = MeasurementMatrix(entries)
        x = unit([1.0, 1.0] + [0.0] * (n - 2))
        y = np.zeros(n)
        y[5] = 1.0
        J = np.ones((1, n), dtype=bool)
        got = _block_residuals(A, x[None], y[None], J)
        want = restricted_residual(x, y, J[0], h_a(A, x, y))
        assert got[0] == pytest.approx(want, abs=FLOAT_TOL, rel=0)
        assert got.tobytes() == dense_block_residuals(A, x[None], y[None], J).tobytes()

    # A dense product warns of the overflow or the NaN (an error under the
    # suite's filterwarnings) before `sgn` raises; the support products do
    # not multiply there.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threshold", [SUPPORTS_BELOW, 0.0], ids=["supports", "dense"])
    def test_a_product_that_overflows_raises(self, threshold, monkeypatch):
        # Each entry and each term is finite; the sum over x's support is
        # not.
        monkeypatch.setattr(raic, "SUPPORTS_BELOW", threshold)
        n = 40
        entries = gaussian_matrix(4, n, SeedSpec(74)).entries.copy()
        entries[2, [0, 1]] = 1.5e308
        x = unit([1.0, 1.0] + [0.0] * (n - 2))
        y = np.zeros(n)
        y[5] = 1.0
        with pytest.raises(ValueError, match="finite"):
            _block_residuals(MeasurementMatrix(entries), x[None], y[None],
                             np.zeros((1, n), dtype=bool))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_certify_rejects_a_non_finite_entry_no_pair_reads(self, bad):
        # The support products never read the column; a matrix with such an
        # entry is refused when it is made, so no certificate runs on it.
        n, k, m, num_pairs, delta, seed = 200, 2, 600, 3, 0.05, SeedSpec(71)
        tau = delta / constants().b
        X, Y, _ = _draw_pairs(n, k, seed, 0, num_pairs, num_pairs // 5, k, tau / 2.0)
        unread = np.flatnonzero(~(X != 0.0).any(axis=0) & ~(Y != 0.0).any(axis=0))[0]
        entries = gaussian_matrix(m, n, SeedSpec(72)).entries.copy()
        raic_certify(MeasurementMatrix(entries), k, delta, num_pairs, k, seed)
        entries[7, unread] = bad
        with pytest.raises(ValueError):
            raic_certify(MeasurementMatrix(entries), k, delta, num_pairs, k, seed)


def assert_matches_reference(A, report, k, seed, num_small, max_j):
    """Every record against the pair-by-pair reference: pair ids, d_s and
    regimes exactly, residuals to FLOAT_TOL, bounds and ratios from those."""
    u = constants()
    assert [r.pair_id for r in report.records] == list(range(report.samples))
    for r in report.records:
        x, y, J = reference_pair(A.n, k, seed, r.pair_id, num_small, max_j, report.tau / 2)
        assert r.d_s == sphere_distance(x, y)
        assert r.regime == ("small" if r.d_s < report.tau else "large")
        if r.pair_id < num_small:
            assert r.regime == "small"
        want = restricted_residual(x, y, mask(A.n, J), h_a(A, x, y))
        assert r.residual == pytest.approx(want, abs=FLOAT_TOL, rel=0)
        assert r.bound == raic_bound(report.delta, u.c1, u.c2, r.d_s)
        assert r.ratio == r.residual / r.bound


class TestCertifyMetamorphic:
    """Identities a certificate keeps under changes that must not matter."""

    N, K, DELTA = 30, 4, 0.05

    @pytest.fixture(scope="class")
    def matrix(self):
        return gaussian_matrix(ROW_BLOCK + 77, self.N, SeedSpec(63))

    @pytest.mark.parametrize("block", [1, 7, 32, 64, 128])
    def test_any_pair_block_gives_the_same_certificate(self, matrix, block, monkeypatch):
        # Draws, d_s and regimes bit for bit; residuals to FLOAT_TOL.  Pair
        # counts end a block short, on a block edge, and one past it.
        seed = SeedSpec(64)
        for num_pairs in (block + 1, 2 * block, 150):
            num_small = num_pairs // 3
            want = raic_certify(matrix, self.K, self.DELTA, num_pairs, self.K, seed,
                                num_small=num_small)
            monkeypatch.setattr(raic, "PAIR_BLOCK", block)
            got = raic_certify(matrix, self.K, self.DELTA, num_pairs, self.K, seed,
                               num_small=num_small)
            monkeypatch.undo()
            for g, w in zip(got.records, want.records, strict=True):
                assert (g.pair_id, g.d_s, g.regime) == (w.pair_id, w.d_s, w.regime)
                assert g.residual == pytest.approx(w.residual, abs=FLOAT_TOL, rel=0)
            whole = _draw_pairs(self.N, self.K, seed, 0, num_pairs, num_small, self.K, 1e-4)
            parts = [
                _draw_pairs(self.N, self.K, seed, first, min(block, num_pairs - first),
                            num_small, self.K, 1e-4)
                for first in range(0, num_pairs, block)
            ]
            assert np.concatenate([p[0] for p in parts]).tobytes() == whole[0].tobytes()
            assert np.concatenate([p[1] for p in parts]).tobytes() == whole[1].tobytes()
            assert np.concatenate([p[2] for p in parts]).tobytes() == whole[2].tobytes()

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_any_row_block_gives_the_same_certificate(self, matrix, block, monkeypatch):
        # The corrections sum their row blocks in another order, so only the
        # residuals move, within FLOAT_TOL; d_s and regimes come from the
        # draws alone.  m = ROW_BLOCK + 77 ends every block size short of a
        # whole block.
        seed = SeedSpec(67)
        want = raic_certify(matrix, self.K, self.DELTA, 60, self.K, seed, num_small=20)
        monkeypatch.setattr(raic, "ROW_BLOCK", block)
        got = raic_certify(matrix, self.K, self.DELTA, 60, self.K, seed, num_small=20)
        for g, w in zip(got.records, want.records, strict=True):
            assert (g.pair_id, g.d_s, g.regime) == (w.pair_id, w.d_s, w.regime)
            assert g.residual == pytest.approx(w.residual, abs=FLOAT_TOL, rel=0)

    def test_negated_matrix_gives_the_same_records(self, matrix):
        # sgn(-A v) = -sgn(A v) off exact zeros, so h_{-A} = h_A.
        seed = SeedSpec(65)
        negated = MeasurementMatrix(-matrix.entries)
        for num_pairs, max_j in ((PAIR_BLOCK + 9, self.K), (40, 2 * self.K)):
            report = raic_certify(matrix, self.K, self.DELTA, num_pairs, max_j, seed)
            again = raic_certify(negated, self.K, self.DELTA, num_pairs, max_j, seed)
            assert again.records == report.records
            assert again == report

    @pytest.mark.parametrize(
        "num_pairs, num_small, max_j",
        [
            (40, 8, 0),  # no J
            (40, 8, 30),  # max_j = n
            (40, 8, 45),  # max_j > n
            (40, 0, 4),  # no small pairs
            (40, 40, 4),  # only small pairs
            (1, 0, 4),  # one pair, large
            (1, 1, 4),  # one pair, small
            (PAIR_BLOCK + 1, PAIR_BLOCK, 4),  # a last block of one small pair
            (PAIR_BLOCK + 1, 3, 4),  # a last block of one large pair
        ],
    )
    def test_edge_configs_match_the_reference(self, matrix, num_pairs, num_small, max_j):
        seed = SeedSpec(66)
        report = raic_certify(matrix, self.K, self.DELTA, num_pairs, max_j, seed,
                              num_small=num_small)
        assert report.samples == len(report.records) == num_pairs
        assert_matches_reference(matrix, report, self.K, seed, num_small, max_j)


class TestKernelBlasThreads:
    def test_report_does_not_depend_on_the_callers_thread_count(self, caller_blas):
        get, put = caller_blas
        # At this size two-thread products round differently from one-thread
        # ones in some residuals (OpenBLAS 0.3.31).
        A = gaussian_matrix(2000, 200, SeedSpec(81))
        reports = []
        for threads in (1, 2):
            put(threads)
            reports.append(raic_certify(A, 4, 0.05, PAIR_BLOCK + 8, 4, SeedSpec(82)))
            assert get() == threads
        assert reports[0] == reports[1]


class TestPairBlocksOnThePool:
    def test_concurrent_certificates_on_a_wide_pool(self, wide_pool):
        # More workers than cores, each certificate three pair blocks wide,
        # with frequent thread switches: every caller must get the serial
        # certificate.
        A = gaussian_matrix(ROW_BLOCK + 88, 40, SeedSpec(83))

        def certify(seed):
            return raic_certify(A, 3, 0.05, 2 * PAIR_BLOCK + 9, 3, seed)

        want, got = wide_pool(certify, [SeedSpec(84, i) for i in range(5)])
        assert got == want


class TestDeltaHat:
    def test_every_ratio_at_delta_hat_is_at_most_one(self, report):
        u = constants()
        ratios = [
            r.residual / raic_bound(report.delta_hat, u.c1, u.c2, r.d_s)
            for r in report.records
        ]
        assert abs(max(ratios) - 1.0) <= 1e-9

    def test_below_delta_exactly_without_violations(self):
        A = gaussian_matrix(800, 60, SeedSpec(96))
        outcomes = set()
        for delta in (1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5):
            rep = raic_certify(A, 4, delta, 20, 4, SeedSpec(97), num_small=4)
            assert (rep.delta_hat <= rep.delta) == (rep.n_violations == 0)
            outcomes.add(rep.n_violations == 0)
        assert outcomes == {True, False}


class TestSupportMonotonicityOfStep:
    def test_top_k_support_is_optimal_restriction(self):
        # The thresholded point is the best k-support restriction of the
        # descent point, which is what the error-bound chain relies on.
        v = sample_standard_normal(SeedSpec(99), 15)
        kept = top_k(v, 4)
        S = set(np.flatnonzero(kept))
        for other in ({0, 1, 2, 3}, {11, 12, 13, 14}):
            alt = threshold_set(v, mask(15, other))
            assert np.linalg.norm(v - kept) <= np.linalg.norm(v - alt) + 1e-12
