"""Known-answer tests: pinned values of the sample streams and small runs.

The sample streams are pure integer arithmetic plus ``ndtri``, so their
values are pinned exactly.  Mismatch counts are integers and are pinned
exactly as well.  Floats that pass through a BLAS product (``d_s``, the
error bound, RAIC residuals) are reproducible only for a fixed BLAS build
and thread count, so they are pinned to 1e-12.

Hypothesis properties tie the solver to the formulas it was first written
from: one step, a whole run (iterates, mismatch counts, error bound), and
the number of matrix products a tracked run takes.
"""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitsense import biht, cli
from bitsense.biht import BIHTConfig, biht_step, run_biht
from bitsense.core import SignPattern, gaussian_matrix, random_sparse_unit, sgn
from bitsense.raic import correction, raic_certify
from bitsense.rng import (
    SeedSpec,
    derive_seed,
    random_uint64,
    random_uniform,
    sample_standard_normal,
    splitmix64,
)
from bitsense.thresholding import normalize, threshold_set, top_k

FLOAT_TOL = 1e-12


def test_splitmix64():
    assert splitmix64(0) == 0
    assert splitmix64(1) == 0x5692161D100B05E5
    assert splitmix64(0x0123456789ABCDEF) == 0xB2C058E4EBB5112C
    assert splitmix64((1 << 64) - 1) == 0xB4D055FCF2CBBD7B


@pytest.mark.parametrize(
    "base, children",
    [
        (
            SeedSpec(0),
            {
                0: (16294208416658607535, 5197578548964807871),
                1: (7960286522194355700, 14804455941960215590),
                5: (6038094601263162090, 65172999151829411),
            },
        ),
        (
            SeedSpec(7, 3),
            {
                0: (7191089600892374487, 10310573881634431810),
                1: (309689372594955804, 3081620025048246745),
                5: (4601199455465548305, 17569438678983595013),
            },
        ),
    ],
)
def test_derive_seed_children(base, children):
    for index, (child_base, child_stream) in children.items():
        assert derive_seed(base, index) == SeedSpec(child_base, child_stream)


# (seed, offset) -> first three words, uniforms and normals of the stream.
STREAMS = {
    (SeedSpec(0), 0): (
        (0x96CB864046B0BF0A, 0x651C8CC679A74DF9, 0x13908DCFBD6EA84E),
        ("0x1.2d970c808d618p-1", "0x1.94723319e69d3p-2", "0x1.3908dcfbd6eacp-4"),
        ("0x1.ccf8d71c3f953p-3", "-0x1.10ca46081f712p-2", "-0x1.6df65e2265202p+0"),
    ),
    (SeedSpec(0), 1000): (
        (0x96BBAF3705AF9DE8, 0xF306D848711EE3EA, 0x7CFC935C7A2635F9),
        ("0x1.2d775e6e0b5f4p-1", "0x1.e60db090e23dcp-1", "0x1.f3f24d71e898dp-2"),
        ("0x1.cbb31309af557p-3", "0x1.a3695cd667176p+0", "-0x1.e37d1b4f82474p-6"),
    ),
    (SeedSpec(123456789, 42), 0): (
        (0x650DC8509D53B2AE, 0x82C8DBCC9E0273B4, 0xEE9F1C6891371B0F),
        ("0x1.94372142754edp-2", "0x1.0591b7993c04ep-1", "0x1.dd3e38d1226e4p-1"),
        ("-0x1.1163b313fa117p-2", "0x1.bec5f2f172fe0p-6", "0x1.7de22c4145740p+0"),
    ),
    (SeedSpec(123456789, 42), 1000): (
        (0x13D14487A37ABBD1, 0x3EB272B935BDF193, 0xC26B71AA3C2E10CF),
        ("0x1.3d14487a37abcp-4", "0x1.f59395c9adefap-3", "0x1.84d6e354785c2p-1"),
        ("-0x1.6c35e88ef79ecp+0", "-0x1.619584d3afa1bp-1", "0x1.68b991609fec3p-1"),
    ),
}


@pytest.mark.parametrize("seed, offset", list(STREAMS))
def test_stream_words(seed, offset):
    words, uniforms, normals = STREAMS[(seed, offset)]
    assert [int(w) for w in random_uint64(seed, 3, offset)] == list(words)
    assert [float(u) for u in random_uniform(seed, 3, offset)] == [
        float.fromhex(h) for h in uniforms
    ]
    assert [float(z) for z in sample_standard_normal(seed, 3, offset)] == [
        float.fromhex(h) for h in normals
    ]


# Long spans, pinned by the sha256 of their little-endian bytes.  The first
# crosses 64Ki-element chunk boundaries on both sides (offset one chunk - 5,
# count three chunks + 17); the second is long enough to be split over
# several chunks and threads.
CHUNK = 1 << 16
SPAN_SEED = SeedSpec(20220707, 3)
SPANS = {
    (3 * CHUNK + 17, CHUNK - 5): (
        "a10c57a790be59db1970f0f1f3ef1fb00827f416a0b4f35f20b92bfe4120187d",
        "bad75bf03002d102ced12f98658f4b28dd2225f39faebbd9c58f32de827751eb",
        "75f9104a8371a0a35423487d0bd01705437e1178224f21087750b804b278da0b",
    ),
    (2_000_003, 5 * CHUNK + 11): (
        "997e60cf4ba6ffe575ba25814b8bae384bd4f1fe25f69ec4bb71651bd6e54552",
        "3b0962561a4b5ec668c1ea981d8d972d8eb118e17580b6bf3f02bfd46a33fe7d",
        "a726bbc73299a25fa76ec9fd91f20ab9fca324140550c8a240412f0dd009d6c7",
    ),
}


def _sha256(a, dtype):
    return hashlib.sha256(np.asarray(a).astype(dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("count, offset", list(SPANS))
def test_stream_span_digests(count, offset):
    words, uniforms, normals = SPANS[(count, offset)]
    assert _sha256(random_uint64(SPAN_SEED, count, offset), "<u8") == words
    assert _sha256(random_uniform(SPAN_SEED, count, offset), "<f8") == uniforms
    assert _sha256(sample_standard_normal(SPAN_SEED, count, offset), "<f8") == normals


# bitsense run --n 50 --k 3 --m 600 --trials 2 --iters 4 --seed 11
# (trial, iter) -> (d_s, mismatch_L, lemma1_rhs); the t=0 bound is nan.
RUN_ROWS = {
    (0, 0): (1.4142135623730951, 288, None),
    (0, 1): (0.1279223887944051, 27, 0.8190757338569377),
    (0, 2): (0.01911666312496205, 1, 0.07731719173181005),
    (0, 3): (0.014424354655159247, 0, 0.05769752322267041),
    (0, 4): (0.014424354655159247, 0, 0.05769741862063699),
    (1, 0): (1.4142135623730951, 316, None),
    (1, 1): (0.09274900063891092, 19, 0.9476954829500432),
    (1, 2): (0.015136950704348768, 5, 0.060884635677548996),
    (1, 3): (0.0058964133471197085, 1, 0.023586047554568296),
    (1, 4): (0.004840160649730192, 1, 0.019360847229252638),
}


def test_small_cli_run(tmp_path):
    code = cli.main(
        ["run", "--n", "50", "--k", "3", "--m", "600", "--trials", "2",
         "--iters", "4", "--seed", "11", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["trial"]), int(r["iter"])) for r in rows] == list(RUN_ROWS)
    for r in rows:
        d_s, mismatch, rhs = RUN_ROWS[(int(r["trial"]), int(r["iter"]))]
        assert int(r["mismatch_L"]) == mismatch
        assert float(r["d_s"]) == pytest.approx(d_s, abs=FLOAT_TOL, rel=0)
        if rhs is None:
            assert r["lemma1_rhs"] == "nan"
        else:
            assert float(r["lemma1_rhs"]) == pytest.approx(rhs, abs=FLOAT_TOL, rel=0)


def test_small_raic_certify():
    A = gaussian_matrix(300, 40, SeedSpec(21))
    report = raic_certify(A, 3, 0.05, 8, 3, SeedSpec(22), num_small=2)
    expected = [
        6.403754936445511e-05,
        6.561368887064863e-05,
        0.1912379812996733,
        0.426123757118844,
        0.259904175813971,
        0.2026277113131486,
        0.11427942998093542,
        0.12534459898778463,
    ]
    assert [r.regime for r in report.records] == ["small"] * 2 + ["large"] * 6
    for record, residual in zip(report.records, expected):
        assert record.residual == pytest.approx(residual, abs=FLOAT_TOL, rel=0)


def _reference_correction(A, b, x, eta):
    """(eta/2m) A^T (b - sgn(Ax)), the solver's correction as first written."""
    diff = b.bits.astype(np.float64) - sgn(A.entries @ x).astype(np.float64)
    return (eta / (2.0 * A.m)) * (A.entries.T @ diff), diff.any()


def _reference_step(A, b, x_prev, k, eta):
    """The solver step written from x + (eta/2m) A^T (b - sgn(Ax))."""
    h, moved = _reference_correction(A, b, x_prev.values, eta)
    if not moved:
        return x_prev.values
    descent = x_prev.values + h
    candidate = top_k(descent, k)
    if not candidate.any():
        return x_prev.values
    return normalize(candidate)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 300))
    seed = SeedSpec(draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)))
    A = gaussian_matrix(m, n, derive_seed(seed, 0))
    x_prev = random_sparse_unit(n, k, derive_seed(seed, 1))
    # Half the draws measure a planted signal, the rest use random signs.
    if draw(st.booleans()):
        b = SignPattern(sgn(A.entries @ random_sparse_unit(n, k, derive_seed(seed, 2)).values))
    else:
        b = SignPattern(sgn(sample_standard_normal(derive_seed(seed, 3), m)))
    eta = draw(st.sampled_from([np.sqrt(2.0 * np.pi), 1.0, 0.3]))
    return A, b, x_prev, k, float(eta)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_kernel_and_step_match_reference_formula(case):
    A, b, x_prev, k, eta = case
    h, _ = _reference_correction(A, b, x_prev.values, eta)
    assert np.array_equal(correction(A, b.bits, sgn(A.entries @ x_prev.values), eta), h)
    out = biht_step(A, b, x_prev, k, eta)
    assert np.array_equal(out.values, _reference_step(A, b, x_prev, k, eta))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_step_returns_k_sparse_unit_vector(case):
    A, b, x_prev, k, eta = case
    out = biht_step(A, b, x_prev, k, eta)
    assert np.count_nonzero(out.values) <= k
    assert abs(np.linalg.norm(out.values) - 1.0) <= 1e-12


def _reference_bound(A, b, truth, x_prev, x_next, eta):
    """4 ||(truth - x_prev) - h_J|| with h recomputed from x_prev's signs."""
    h, _ = _reference_correction(A, b, x_prev.values, eta)
    J = set(truth.support()) | set(x_prev.support()) | set(x_next.support())
    return 4.0 * np.linalg.norm((truth.values - x_prev.values) - threshold_set(h, J))


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2**64 - 1), st.integers(1, 6), st.booleans())
def test_run_matches_repeated_steps(case, truth_seed, T, track):
    A, b, x_prev, k, eta = case
    truth = random_sparse_unit(A.n, k, SeedSpec(truth_seed)) if track else None
    traj = run_biht(A, b, BIHTConfig(k=k, max_iters=T, eta=eta, init=x_prev), truth=truth)
    assert len(traj.iterates) == T + 1
    for t, x in enumerate(traj.iterates):
        assert traj.mismatch[t] == int(np.count_nonzero(b.bits != sgn(A.entries @ x.values)))
        if t == T:
            break
        nxt = traj.iterates[t + 1]
        assert np.array_equal(nxt.values, biht_step(A, b, x, k, eta).values)
        if track:
            assert traj.lemma1_rhs[t + 1] == _reference_bound(A, b, truth, x, nxt, eta)
    assert (traj.lemma1_rhs is None) == (not track)


class _ProductLog(np.ndarray):
    """A matrix view that records the shape of each matrix product it takes."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __matmul__(self, other):
        self.log.append(self.shape)
        return np.asarray(self) @ other


def test_tracked_run_measures_each_iterate_once(monkeypatch):
    n, k, m, T = 40, 3, 300, 8
    truth = random_sparse_unit(n, k, SeedSpec(1))
    A = gaussian_matrix(m, n, SeedSpec(2))
    b = SignPattern(sgn(A.entries @ truth.values))
    logged = A.entries.view(_ProductLog)
    logged.log = []
    object.__setattr__(A, "entries", logged)
    corrections = []
    real_correction = biht.correction

    def counted(*args, **kwargs):
        corrections.append(1)
        return real_correction(*args, **kwargs)

    monkeypatch.setattr(biht, "correction", counted)
    traj = run_biht(A, b, BIHTConfig(k=k, max_iters=T, init=SeedSpec(3)), truth=truth)
    assert len(traj.iterates) == T + 1
    assert len(corrections) == T
    # One product for the start point, then one after each step that moved.
    moves = sum(nxt is not x for x, nxt in zip(traj.iterates, traj.iterates[1:]))
    assert logged.log.count((m, n)) == 1 + moves <= T + 1
    assert logged.log.count((n, m)) <= T
    assert set(logged.log) <= {(m, n), (n, m)}
