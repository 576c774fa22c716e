"""Known-answer tests: pinned values of the sample streams and small runs.

The sample streams are pure integer arithmetic plus ``ndtri``, so their
values are pinned exactly.  Mismatch counts are integers and are pinned
exactly as well.  Floats that pass through a BLAS product (``d_s``, the
error bound, RAIC residuals) are reproducible only for a fixed BLAS build
and thread count, so they are pinned to 1e-12.  The sha256 pins of `run`
and `raic` outputs hold for one BLAS build and kernel, `PINNED_CORE`; a
failure of one names the kernel the process runs.

Hypothesis properties tie the solver to the formulas it was first written
from: the correction on either side of its rows-only crossover, one step, a
whole run (iterates, mismatch counts, error bound), and the number and
shape of the matrix products a tracked run takes.
"""

import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitsense import _parallel, biht, cli, core
from bitsense.biht import BIHTConfig, run_biht
from bitsense.core import (
    MeasurementMatrix,
    SignPattern,
    gaussian_matrix,
    random_sparse_unit,
    sgn,
)
from bitsense.raic import ROWS_ONLY_BELOW, correction, raic_certify
from bitsense.rng import (
    _GOLDEN,
    _MASK64,
    SeedSpec,
    _mix,
    _stream_key,
    derive_seed,
    random_uniform_rows,
    sample_standard_normal,
    sample_standard_normal_rows,
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


def _key_at(seed, offset):
    """The key of ``seed``'s stream read from element ``offset`` on."""
    return np.array([(_stream_key(seed) + offset * _GOLDEN) & _MASK64], dtype=np.uint64)


def _words(seed, count, offset):
    """Words ``offset .. offset + count - 1`` of ``seed``'s stream: the
    avalanche of the counters ``key + (offset + i + 1) * G``."""
    return _mix(_key_at(seed, offset) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN))


def _uniforms(seed, count, offset):
    return random_uniform_rows(_key_at(seed, offset), count)[0]


def _normals(seed, count, offset):
    return sample_standard_normal_rows(_key_at(seed, offset), count)[0]


@pytest.mark.parametrize("seed, offset", list(STREAMS))
def test_stream_words(seed, offset):
    words, uniforms, normals = STREAMS[(seed, offset)]
    assert [int(w) for w in _words(seed, 3, offset)] == list(words)
    assert [splitmix64((_stream_key(seed) + (offset + i + 1) * _GOLDEN) & _MASK64)
            for i in range(3)] == list(words)
    assert [float(u) for u in _uniforms(seed, 3, offset)] == [
        float.fromhex(h) for h in uniforms
    ]
    assert [float(z) for z in _normals(seed, 3, offset)] == [
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
    assert _sha256(_words(SPAN_SEED, count, offset), "<u8") == words
    assert _sha256(_uniforms(SPAN_SEED, count, offset), "<f8") == uniforms
    assert _sha256(_normals(SPAN_SEED, count, offset), "<f8") == normals


# bitsense run --n 50 --k 3 --m 600 --trials 2 --iters 4 --seed 11
# (trial, iter) -> (d_s, mismatch_L, lemma1_rhs); the t=0 bound is nan.
RUN_ROWS = {
    (0, 0): (1.4142135623730951, 300, None),
    (0, 1): (0.1347978735905144, 21, 0.759494739277278),
    (0, 2): (0.028421772390134034, 4, 0.11367578333621682),
    (0, 3): (0.013491956408409224, 2, 0.053966699515305326),
    (0, 4): (0.008312393895562223, 1, 0.033249342047954954),
    (1, 0): (1.4142135623730951, 307, None),
    (1, 1): (0.23361831548792086, 41, 1.0554034220612276),
    (1, 2): (0.007424648029006325, 2, 0.22658417866656114),
    (1, 3): (0.003892264597522727, 0, 0.015569345569549184),
    (1, 4): (0.003892264597522727, 0, 0.01556905839009079),
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


# bitsense validate --seed S: the sha256 of validators.csv.  Every estimate,
# bound and standard error is printed with repr, so a change to any sampled
# value or to the order of any sum shows here.
VALIDATORS_CSV = {
    0: "be8ffc65a864939e60729dbcad7bae4dd12a0151ee5f65d111a38596b7337f91",
    5: "4ede326b756e536b34965e2f49c20c5aadc557ee7b86715a315ab8cf4940ed23",
}


@pytest.mark.parametrize("seed", list(VALIDATORS_CSV))
def test_validate_csv_digest(seed, tmp_path):
    code = cli.main(["validate", "--seed", str(seed), "--output-dir", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "validators.csv").read_bytes()).hexdigest()
    assert digest == VALIDATORS_CSV[seed]


# bitsense validate --seed 0 --break-sgn-zero: the sha256 of validators.csv.
# The three mismatch rows fail, so the command exits 1.
BROKEN_SGN_ZERO_CSV = "6a27610b8d729f67281ee8c537c37a3eed4d00bf5f56c713ef296730dd353335"
VALIDATE_PINS = {
    "seed 0": (["--seed", "0"], 0, VALIDATORS_CSV[0]),
    "seed 5": (["--seed", "5"], 0, VALIDATORS_CSV[5]),
    "seed 0 broken sgn": (["--seed", "0", "--break-sgn-zero"], 1, BROKEN_SGN_ZERO_CSV),
}


# The sha256 of each output file of two `run`s and four `raic`s at sizes
# that cross their blocks.  Each `run` trial has its own matrix, drawn by
# deferred decisions, and a dense first step.  "500 pairs" is the `certify` benchmark's
# certificate at seed 7: four pair blocks (PAIR_BLOCK = 128) over m = 5000.
# "three pair blocks" has m above one ROW_BLOCK (512).  In "tiles in a
# block" each pair block's rank and J draws (128 x n and 128 x (n + 1)
# uniforms) cross one 64Ki-element sampler tile, so the blocks, on the
# package's pool, draw their tiles serially.  Like the `validators.csv`
# pins, these depend in the last bits on OpenBLAS's one-thread kernels: the
# products run under `_parallel._one_blas_thread`.
OUTPUT_DIGESTS = {
    "run": (
        ["run", "--n", "60", "--k", "3", "--m", "2000", "--trials", "4", "--iters", "8"],
        {
            "trajectory.csv": "fcbef7a072e16a40f2231acf9519ba49fc039cd60b45338bd67fe74cd6f7ff91",
            "summary.json": "68b7cf382131c6e352196ff93f54cf73fd4e276336d469dd8c7a0be90cbbf2b8",
        },
    ),
    # The acceptance config's n and k: each trial's dense step draws 190 or
    # more normals in place of its unread columns.
    "run at the acceptance n and k": (
        ["run", "--n", "200", "--k", "5", "--m", "6000", "--trials", "3", "--iters", "8"],
        {
            "trajectory.csv": "b61bac0b6dbdd9eaa7f4c246950668b6b7c8fd4a9e509c8c7efcb2ed80ee740f",
            "summary.json": "4ead28a899840121ba69e9989b30ac24114756c793c63f90539dc3449157bf99",
        },
    ),
    "500 pairs": (
        ["raic", "--pairs", "500", "--small-pairs", "100", "--seed", "7"],
        {
            "raic_report.csv": "d594076f5f429ed33ded9cc0673e8b85141019f0387248f861f00bf43cfe2edf",
            "raic_summary.json": "a46dcaf4bc7fdee41990184870ee5a8181afcdafdaeb810231648e33041a6591",
        },
    ),
    "three pair blocks": (
        ["raic", "--n", "60", "--k", "3", "--m", "1000", "--pairs", "300", "--small-pairs", "60"],
        {
            "raic_report.csv": "d96d26f61a9ce9ca724b5a8f56d3321afcb5dc15458220225eabaa6cfebee39b",
            "raic_summary.json": "fe1c2b2bfa4b7a9fa9648fae1d09227ec17a2fa680a922a9aa573be1e43fe727",
        },
    ),
    "tiles in a block": (
        ["raic", "--n", "520", "--k", "3", "--m", "600", "--pairs", "260", "--small-pairs", "60"],
        {
            "raic_report.csv": "7facf003cc866cc91ddcac76fe11a30071bca8c57370b442844f7070a81384ab",
            "raic_summary.json": "64f283baae20d627e3a4f8821cc83f6b0e240a352a949597b36dc5d6e54c9714",
        },
    ),
    # k = n / 5: every row of a block has at least raic.SUPPORTS_BELOW * n
    # nonzeros, so the kernel signs by dense products; the certificates
    # above sign through the supports.  Recorded before the support products.
    "dense sign products": (
        ["raic", "--n", "60", "--k", "12", "--m", "1000", "--pairs", "300", "--small-pairs", "60"],
        {
            "raic_report.csv": "61691950af2d9cef1b5dc8fe9770f2bba4c7a9e18d0c1a9c35ee9c71c5518da3",
            "raic_summary.json": "1f074ce7b3d5e81bb89deff5b8e49f18a801f7d38528cdf6246e52a8d8ec57c0",
        },
    ),
}
RAIC_PINS = [name for name, (args, _) in OUTPUT_DIGESTS.items() if args[0] == "raic"]
RUN_PINS = [name for name, (args, _) in OUTPUT_DIGESTS.items() if args[0] == "run"]

# The OpenBLAS core the `run` and `raic` pins were recorded under.  Other
# cores sum dgemv, dgemm and ddot in other orders, which moves those
# outputs in the last bits; the `validate`, `generate` and sampler pins
# hold on every core.  They are not kept by every libm: glibc's variants
# move a few normals through the `log` that `ndtri` calls, and numpy's
# dispatch targets move `np.exp` in `validators.csv`.
PINNED_CORE = "SkylakeX"


def _on_core():
    """A byte-pin failure's note: the pinned core beside this process's."""
    return (f"pins recorded under OpenBLAS core {PINNED_CORE}; "
            f"this process runs {_parallel._openblas_core()}")


def _output_digests(name, out_dir):
    args, _ = OUTPUT_DIGESTS[name]
    assert cli.main([*args, "--output-dir", str(out_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


@pytest.mark.parametrize("name", list(OUTPUT_DIGESTS))
def test_output_digests(name, tmp_path):
    assert _output_digests(name, tmp_path) == OUTPUT_DIGESTS[name][1], _on_core()


# bitsense generate --m 9 --n 13 --k 4 --seed 3 --what W --format F: the
# sha256 of the file written.  m != n, so a transposed matrix shows; the
# signal is one CSV row or a 1 x 13 binary block.
GENERATE_DIGESTS = {
    ("matrix", "csv"): "8295567964256478e9332954d1f58419f8354c58626b6599f272f6ff885494c8",
    ("matrix", "bin"): "6c79a93880587be71a6abcab1f040f4b3bcf26aa2ff36266e86adcc2ba98191b",
    ("signal", "csv"): "e83dc534676729094b2527f4145352dd560b23b30e5fe6766fe5590d6e0e53cd",
    ("signal", "bin"): "717ad8d56d5351c10a1570e617ac0018d5dfb8b7501eebc6f4b72bba9205dd94",
}


@pytest.mark.parametrize("what, fmt", list(GENERATE_DIGESTS))
def test_generate_digests(what, fmt, tmp_path):
    out = tmp_path / f"{what}.{fmt}"
    args = ["generate", "--m", "9", "--n", "13", "--k", "4", "--seed", "3"]
    assert cli.main([*args, "--what", what, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_DIGESTS[(what, fmt)]


@pytest.fixture(params=[1, 2], ids=lambda w: f"{w}-worker pool")
def pool_size(request, sampler_pool):
    """A fresh sampler pool of ``request.param`` workers for the test, and
    a fresh default one after it."""
    sampler_pool(request.param)
    return request.param


@pytest.mark.parametrize("blas_threads", [1, 2], ids=lambda t: f"caller BLAS {t}")
@pytest.mark.parametrize("name", RAIC_PINS)
def test_certificate_digests_at_each_pool_size_and_blas_count(name, blas_threads, pool_size,
                                                             caller_blas, tmp_path):
    # The pair blocks run on the pool, so neither its size nor the caller's
    # BLAS thread count may move a bit of the certificate.
    get, put = caller_blas
    put(blas_threads)
    digests = _output_digests(name, tmp_path)
    assert get() == blas_threads
    assert digests == OUTPUT_DIGESTS[name][1], _on_core()


@pytest.mark.parametrize("blas_threads", [1, 2], ids=lambda t: f"caller BLAS {t}")
@pytest.mark.parametrize("name", RUN_PINS)
def test_trial_digests_at_each_pool_size_and_blas_count(name, blas_threads, pool_size,
                                                       caller_blas, tmp_path):
    # The trials run side by side on the pool, so neither its size nor the
    # caller's BLAS thread count may move a bit of their records.
    get, put = caller_blas
    put(blas_threads)
    digests = _output_digests(name, tmp_path)
    assert get() == blas_threads
    assert digests == OUTPUT_DIGESTS[name][1], _on_core()


@pytest.mark.parametrize("blas_threads", [1, 2], ids=lambda t: f"caller BLAS {t}")
@pytest.mark.parametrize("pin", list(VALIDATE_PINS))
def test_validate_digests_at_each_pool_size_and_blas_count(pin, blas_threads, pool_size,
                                                           caller_blas, tmp_path):
    # The validators run side by side on the pool, so neither its size nor
    # the caller's BLAS thread count may move a bit of their rows or order.
    args, code, digest = VALIDATE_PINS[pin]
    get, put = caller_blas
    put(blas_threads)
    assert cli.main(["validate", *args, "--output-dir", str(tmp_path)]) == code
    assert get() == blas_threads
    assert hashlib.sha256((tmp_path / "validators.csv").read_bytes()).hexdigest() == digest


# A tracked bare `run_biht` whose dense first step sums three row blocks
# (m n = 1.2M entries: 2621, 2621 and 758 rows): the sha256 of the repr of
# its record rows (iterate, mismatch, d_s and bound bytes).  Recorded before
# a bare run took one BLAS thread, at caller BLAS counts 1 and 2.
BARE_RUN_DIGEST = "f78f36ebaa95f01a2817440b16edb6c73bbb00ef8978181b1a55fba21dd084c0"


def _bare_run_inputs():
    """The bare run's matrix, its truth and the truth's signs."""
    A = gaussian_matrix(6000, 200, SeedSpec(29))
    truth = random_sparse_unit(200, 5, SeedSpec(29, 1))
    return A, truth, core.sign_measure(A, truth.values)


def _bare_run_digest(A, truth, b):
    traj = run_biht(A, b, BIHTConfig(k=5, max_iters=8, init=SeedSpec(29, 2)), truth=truth)
    assert traj.mismatch[0] >= ROWS_ONLY_BELOW * A.m  # a dense first step
    return hashlib.sha256(repr(_rows(traj)).encode()).hexdigest()


@pytest.mark.parametrize("blas_threads", [1, 2], ids=lambda t: f"caller BLAS {t}")
def test_bare_run_digest_at_each_pool_size_and_blas_count(blas_threads, pool_size, caller_blas):
    # The pool's size reaches only the matrix draw, whose tiles run on it,
    # and the run takes its products on one BLAS thread; so neither the
    # pool's size nor the caller's BLAS thread count may move a bit of a
    # bare run's record.
    get, put = caller_blas
    put(blas_threads)
    digest = _bare_run_digest(*_bare_run_inputs())
    assert get() == blas_threads
    assert digest == BARE_RUN_DIGEST, _on_core()


def test_bare_run_sums_its_dense_blocks_without_the_pool(monkeypatch):
    # Once A and b are drawn, a bare run whose dense first step sums three
    # row blocks makes no call on the pool: a pool that cannot be made
    # stops nothing, and the record keeps its bits.
    inputs = _bare_run_inputs()
    assert len(core.dense_row_blocks(6000, 200)) == 3

    def no_pool():
        raise AssertionError("a bare solver run reached the thread pool")

    monkeypatch.setattr(_parallel, "_executor", no_pool)
    assert _bare_run_digest(*inputs) == BARE_RUN_DIGEST, _on_core()


def _reference_correction(A, b, x, eta):
    """(eta/2m) A^T (b - sgn(Ax)) as the kernel computes it: over the rows
    where b and sgn(Ax) differ while they are fewer than ROWS_ONLY_BELOW * m,
    over all rows otherwise."""
    diff = b.bits.astype(np.float64) - sgn(A.entries @ x).astype(np.float64)
    rows = [i for i in range(A.m) if diff[i] != 0.0]
    if len(rows) < ROWS_ONLY_BELOW * A.m:
        h = (eta / (2.0 * A.m)) * (A.entries[rows].T @ diff[rows])
    else:
        h = (eta / (2.0 * A.m)) * (A.entries.T @ diff)
    return h, bool(rows)


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


def _one_step(A, b, x_prev, k, eta):
    """One iteration of `run_biht` from x_prev."""
    return run_biht(A, b, BIHTConfig(k=k, max_iters=1, eta=eta, init=x_prev)).final


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
    out = _one_step(A, b, x_prev, k, eta)
    assert np.array_equal(out.values, _reference_step(A, b, x_prev, k, eta))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_step_returns_k_sparse_unit_vector(case):
    A, b, x_prev, k, eta = case
    out = _one_step(A, b, x_prev, k, eta)
    assert np.count_nonzero(out.values) <= k
    assert abs(np.linalg.norm(out.values) - 1.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(1, 30),
    st.integers(0, 2**64 - 1),
    st.booleans(),
    st.sampled_from([np.sqrt(2.0 * np.pi), 1.0, 0.3]),
)
def test_correction_agrees_with_dense_formula_across_crossover(m, n, seed, below, eta):
    # The number of mismatched rows is drawn on the chosen side of the
    # rows-only crossover.
    crossover = int(np.ceil(ROWS_ONLY_BELOW * m))
    u = _uniforms(SeedSpec(seed), m + 1, 0)
    ell = int(u[0] * crossover) if below else crossover + int(u[0] * (m + 1 - crossover))
    A = gaussian_matrix(m, n, SeedSpec(seed, 1))
    s = sgn(sample_standard_normal(SeedSpec(seed, 2), m))
    b = s.copy()
    flipped = np.argsort(u[1:], kind="stable")[:ell]
    b[flipped] = -b[flipped]
    assert (ell < ROWS_ONLY_BELOW * m) == below
    dense = (eta / (2.0 * m)) * (A.entries.T @ (b.astype(np.float64) - s))
    np.testing.assert_allclose(correction(A, b, s, eta), dense, rtol=0, atol=FLOAT_TOL)


def _reference_bound(A, b, truth, x_prev, x_next, eta):
    """4 ||(truth - x_prev) - h_J|| with h recomputed from x_prev's signs."""
    h, _ = _reference_correction(A, b, x_prev.values, eta)
    J = np.zeros(A.n, dtype=bool)
    J[[*truth.support(), *x_prev.support(), *x_next.support()]] = True
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
        assert np.array_equal(nxt.values, _one_step(A, b, x, k, eta).values)
        if track:
            assert traj.lemma1_rhs[t + 1] == _reference_bound(A, b, truth, x, nxt, eta)
    assert (traj.lemma1_rhs is None) == (not track)


def _rows(traj):
    """Each record row of a trajectory as bytes: iterate, mismatch, d_s, bound."""
    track = traj.error_ds is not None
    return [
        (
            x.values.tobytes(),
            traj.mismatch[t],
            np.float64(traj.error_ds[t]).tobytes() if track else None,
            np.float64(traj.lemma1_rhs[t]).tobytes() if track else None,
        )
        for t, x in enumerate(traj.iterates)
    ]


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2**64 - 1), st.integers(1, 6), st.integers(1, 6), st.booleans())
def test_run_is_a_prefix_of_a_longer_run_and_absorbs(case, truth_seed, T, d, track):
    # Stopping at the absorbing fixed point must not change a single bit of
    # the record: a run of T steps is the first T + 1 rows of a run of
    # T + d steps, and once a step leaves the iterate in place every later
    # row repeats that step's row.
    A, b, x_prev, k, eta = case
    truth = random_sparse_unit(A.n, k, SeedSpec(truth_seed)) if track else None
    short, long = (
        run_biht(A, b, BIHTConfig(k=k, max_iters=steps, eta=eta, init=x_prev), truth=truth)
        for steps in (T, T + d)
    )
    rows = _rows(long)
    assert _rows(short) == rows[: T + 1]
    still = [t for t in range(1, T + d + 1) if rows[t][0] == rows[t - 1][0]]
    if still:
        assert rows[still[0] + 1 :] == [rows[still[0]]] * (T + d - still[0])


def test_run_rejects_nan_in_a_support_column():
    n, k, m = 20, 3, 100
    x = random_sparse_unit(n, k, SeedSpec(7))
    entries = np.array(gaussian_matrix(m, n, SeedSpec(8)).entries)
    b = SignPattern(sgn(entries @ x.values))
    entries[m // 2, x.support()[1]] = np.nan
    # A matrix with a NaN entry is refused when it is made, so no run starts.
    with pytest.raises(ValueError, match="finite"):
        run_biht(MeasurementMatrix(entries), b, BIHTConfig(k=k, max_iters=3, init=x))


class _ProductLog(np.ndarray):
    """A matrix view that records the shape of each matrix product it takes,
    by ``@`` or by ``np.dot``, in ``log``, and the BLAS thread count each
    ``np.dot`` ran at in ``threads``."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)
        self.threads = getattr(obj, "threads", None)

    def __matmul__(self, other):
        self.log.append(self.shape)
        return np.asarray(self) @ other

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.dot:
            return super().__array_function__(func, types, args, kwargs)
        self.log.append(self.shape)
        calls = _parallel._openblas()
        self.threads.append(calls and calls[0]())
        return func(*(np.asarray(a) for a in args), **kwargs)


def _logged(A):
    """Swap A's entries for a `_ProductLog` view of them, which it returns."""
    logged = A.entries.view(_ProductLog)
    logged.log, logged.threads = [], []
    object.__setattr__(A, "entries", logged)
    return logged


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 30),
    st.integers(0, 2**64 - 1),
    st.lists(st.lists(st.integers(0, 29), max_size=8), min_size=1, max_size=6),
)
def test_measure_keeps_the_block_of_the_current_support(m, n, seed, supports):
    # Successive supports, given or found, some repeated and some sharing
    # columns: the kept block must be A[:, supp] bit for bit, and each
    # product must go through A's entries (here, the product log).
    A = gaussian_matrix(m, n, SeedSpec(seed))
    plain = np.array(A.entries)
    logged = _logged(A)
    measure = core._Measure(A)
    values = sample_standard_normal(SeedSpec(seed, 1), n)
    for i, chosen in enumerate(supports):
        supp = np.unique(np.asarray(chosen, dtype=np.intp) % n)
        v = np.zeros(n)
        v[supp] = values[supp]
        s = measure(v) if i % 2 else measure(v, supp)
        assert np.array_equal(s, sgn(plain[:, supp] @ v[supp]))
        if supp.size < n:
            assert np.asarray(measure.cols).tobytes() == plain[:, supp].tobytes()
        assert len(logged.log) == i + 1 and logged.log[-1] == (m, supp.size)


def test_tracked_run_measures_each_iterate_once(monkeypatch):
    n, k, m, T = 40, 3, 300, 8
    truth = random_sparse_unit(n, k, SeedSpec(1))
    A = gaussian_matrix(m, n, SeedSpec(2))
    b = SignPattern(sgn(A.entries @ truth.values))
    logged = _logged(A)
    corrections = []
    real_correction = biht.correction

    def counted(*args, **kwargs):
        corrections.append(1)
        return real_correction(*args, **kwargs)

    monkeypatch.setattr(biht, "correction", counted)
    traj = run_biht(A, b, BIHTConfig(k=k, max_iters=T, init=SeedSpec(3)), truth=truth)
    assert len(traj.iterates) == T + 1
    assert len(corrections) == T
    # Forward products take the columns of A on the iterate's support: one
    # for the start point, then one after each step that moved.  Transposed
    # products take the mismatched rows: step i + 1 corrects with those of
    # iterate i, over all m rows (one dense row block at these sizes) once
    # they are ROWS_ONLY_BELOW * m or more, over those rows alone while they
    # are fewer, and with no product when there are none.  A random start
    # mismatches about half the rows, so the first correction is dense.
    moves = sum(nxt is not x for x, nxt in zip(traj.iterates, traj.iterates[1:]))
    forward = [shape for shape in logged.log if shape[0] == m]
    transposed = [shape for shape in logged.log if shape[0] == n]
    assert len(forward) + len(transposed) == len(logged.log)
    assert len(forward) == 1 + moves <= T + 1
    assert all(1 <= cols <= k for _, cols in forward)
    assert len(core.dense_row_blocks(m, n)) == 1
    assert transposed[0] == (n, m)
    assert [rows for _, rows in transposed] == [
        m if ell >= ROWS_ONLY_BELOW * m else ell for ell in traj.mismatch[:T] if ell
    ]
    assert any(rows < m for _, rows in transposed)


def _blocked_reference(A, r):
    """The one-thread serial sum of ``A_b.T @ r_b`` over the row blocks of
    `core.dense_row_blocks`, added in block order."""
    starts = core.dense_row_blocks(A.m, A.n)
    a = np.asarray(A.entries)
    with _parallel._one_blas_thread():
        total = a[: starts.step].T @ r[: starts.step]
        for start in starts[1:]:
            total += a[start : start + starts.step].T @ r[start : start + starts.step]
    return total


def _dense_signs(m, seed):
    """Sign patterns b, s of length m that differ on at least m/5 rows, and
    r = (b - s) / 2."""
    b = sgn(sample_standard_normal(SeedSpec(seed, 0), m))
    u = _uniforms(SeedSpec(seed, 1), m + 1, 0)
    ell = math.ceil(ROWS_ONLY_BELOW * m) + int(u[0] * (m - math.ceil(ROWS_ONLY_BELOW * m) + 1))
    s = b.copy()
    flipped = np.argsort(u[1:], kind="stable")[:ell]
    s[flipped] = -s[flipped]
    return b, s, 0.5 * (b.astype(np.float64) - s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(0, 2**64 - 1),
)
def test_pooled_dense_correction_is_the_serial_blocked_sum(n, height, blocks, last, seed):
    # Blocks of ``height`` rows, the last of ``last`` (a short one when
    # last < height): a `MeasurementMatrix` hands them over as views, and
    # the correction is bit for bit the serial one-thread sum in block
    # order.  The pool reaches only the matrix draw.
    last = min(last, height)
    m = (blocks - 1) * height + last
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "DENSE_BLOCK_ENTRIES", height * n)
        A = gaussian_matrix(m, n, SeedSpec(seed))
        assert len(core.dense_row_blocks(m, n)) == blocks
        b, s, r = _dense_signs(m, seed)
        want = ((np.sqrt(2.0 * np.pi) / m) * _blocked_reference(A, r)).tobytes()
        assert correction(A, b, s).tobytes() == want


def test_dense_correction_takes_its_blocks_on_one_blas_thread(pool_size, caller_blas):
    # Three row blocks (2621, 2621 and 758 rows) at a caller's count of 2:
    # each block's product runs on one BLAS thread, in a correction called
    # outside any pipeline, and the count comes back.
    A = gaussian_matrix(6000, 200, SeedSpec(30))
    b, s, r = _dense_signs(A.m, 31)
    want = ((np.sqrt(2.0 * np.pi) / A.m) * _blocked_reference(A, r)).tobytes()
    logged = _logged(A)
    get, put = caller_blas
    put(2)
    h = correction(A, b, s)
    assert get() == 2
    assert sorted(logged.log) == [(200, 758), (200, 2621), (200, 2621)]
    assert logged.threads == [1, 1, 1]
    assert h.tobytes() == want
