"""Deterministic, platform-stable random sampling.

All randomness in this package flows through a counter-based generator so
that identical seeds reproduce bit-identical streams on every platform and
so that no generator state is ever shared, between streams or threads.

The scheme, fixed for reproducibility:

* 64-bit state mixing is SplitMix64 (Steele, Lea & Flood): the counter walks
  in steps of the odd constant 0x9E3779B97F4A7C15 and each state is passed
  through the standard two-round multiply/xor-shift avalanche.
* Uniform doubles are ``((word >> 11) + 0.5) * 2**-53``, which lies strictly
  inside (0, 1).
* Standard normals are produced by the inverse-CDF transform
  (``scipy.special.ndtri``) applied to those uniforms.

Element ``i`` of a stream depends only on the seed and ``i``, so a stream can
be produced piecewise, or many streams side by side, without changing any
value (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
The functions below share one kernel that fills a 2-D block in place,
straight into the result, one stream per row and at most 64Ki columns.  The
``*_rows`` functions draw the same count from many seeds at once, row r
equal bit for bit to the 1-D stream of seed r; the 1-D functions are a block
of one row.  A request of more than about 64Ki elements is split over
columns into pieces that run on a small thread pool (numpy's integer ufuncs
and ``ndtri`` release the GIL); the split depends only on the request size,
and the values are the same as those of one serial pass.  The stream
definition above is unchanged by this; the sha256 known-answer tests pin it.

The pool is the one parallel layer of ``run``, ``validate`` and ``raic``,
whose BLAS products run on one thread under `_one_blas_thread` (the reason
is measured there).

Nothing here is cryptographic.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # odd => i -> i * _GOLDEN is a bijection mod 2^64
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Elements per kernel call: 512 KB of words, so a chunk and its scratch stay
# in cache.  Requests of more than one chunk go to the pool.  A chunk is at
# most this many columns of one row, or fewer columns of several rows.
_CHUNK = 1 << 16
# (j + 1) * _GOLDEN mod 2^64: the counter steps within a chunk.
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)

_WORDS, _UNIFORM, _NORMAL = range(3)

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class SeedSpec:
    """A (base_seed, stream_id) pair identifying one sample stream.

    Equal pairs reproduce bit-identical streams; the stream_id discriminates
    purposes (matrix vs. signal vs. trial index) under one experiment seed.
    """

    base_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.base_seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("seed fields must be 64-bit unsigned integers")


def splitmix64(z: int) -> int:
    """One SplitMix64 avalanche round; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: SeedSpec, index: int) -> SeedSpec:
    """Derive the ``index``-th child seed of ``base``.

    Injective in ``index`` for a fixed base: the candidate state walks an odd
    multiple of the golden-ratio constant (a bijection mod 2^64) before the
    avalanche, itself a bijection.  Collisions across different bases are
    possible only with negligible (2^-64-scale) probability.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    step = ((index + 1) * _GOLDEN) & _MASK64
    child_base = splitmix64((base.base_seed + step) & _MASK64)
    child_stream = splitmix64(base.stream_id ^ child_base)
    return SeedSpec(child_base, child_stream)


def _stream_key(seed: SeedSpec) -> int:
    # Collapse the pair to one 64-bit key for the counter walk.
    return splitmix64(seed.base_seed ^ splitmix64(seed.stream_id ^ _MIX2))


def _fill(out: np.ndarray, keys: np.ndarray, first: int, stage: int) -> None:
    """Write stream elements ``first, first + 1, ...`` into ``out`` in place.

    ``out`` is a 2-D block of at most ``_CHUNK`` columns, uint64 for words
    and float64 otherwise; row r holds the stream keyed by ``keys[r]``.
    Element i of a stream is word ``splitmix64(key + (i + 1) * _GOLDEN)``,
    then for floats ``((word >> 11) + 0.5) * 2**-53``, then for normals
    ``ndtri``.
    """
    z = out.view(np.uint64)
    # uint64 array arithmetic wraps mod 2^64, as the counter walk requires.
    np.add(_STEPS[: z.shape[1]], (keys + np.uint64(first * _GOLDEN & _MASK64))[:, None], out=z)
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    if stage == _WORDS:
        return
    z >>= np.uint64(11)
    # z < 2**53, so the cast to float64 is exact: the same value as
    # z.astype(float64) + 0.5.
    np.add(z, 0.5, out=out)
    out *= 2.0**-53
    if stage == _NORMAL:
        ndtri(out, out=out)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="bitsense-rng")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads, and
    # the lock in whatever state another thread left it.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles,
    or None where numpy uses another BLAS or the library is not found."""
    here = Path(np.__file__).resolve().parent
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                        *here.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded: the same library
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


_blas_lock = threading.Lock()
_blas_users = 0  # callers inside _one_blas_thread
_blas_saved = 0  # the count to restore when the last one leaves


@contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the caller's count.

    The count is process-wide, so nested and concurrent users share one
    setting and the last to leave restores it.  Where the count cannot be
    reached (another BLAS), the body runs at whatever the BLAS uses.

    Why: after a product on two OpenBLAS threads the idle worker busy-waits
    on a core, and a pool draw that follows shares that core with it.  A
    10000 x 200 matrix draw on 2 vCPU (OpenBLAS 0.3.31), medians of 25 in
    two sets: 30-36 ms with no product before it, 48-60 ms right after one
    two-thread ``A.T @ r``, 29-32 ms after the same product on one thread,
    34 ms after the two-thread product and a 0.3 s sleep, and 45 ms with
    the count set to 1 only around the draw.  So the count is set around
    the products of a whole pipeline, not around its draws.  The products
    themselves are small (an m x n matrix-vector product per solver step,
    512-row blocks in the certifier), and one thread also keeps their last
    bits independent of the core count: two-thread products round some
    results differently.  A bare `biht.run_biht` runs outside it: with no
    draws around it, its dense first-step products gain from a second
    thread.
    """
    global _blas_users, _blas_saved
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)


def _stream(seeds, count: int, offset: int, stage: int) -> np.ndarray:
    """Elements ``offset .. offset + count - 1`` of each seed's stream, one
    row per seed, in a fresh array that owns its memory."""
    if count < 0 or offset < 0:
        raise ValueError("count and offset must be >= 0")
    keys = np.array([_stream_key(s) for s in seeds], dtype=np.uint64)
    out = np.empty((keys.size, count), dtype=np.uint64 if stage == _WORDS else np.float64)
    # Column pieces of about one chunk of elements in all, so each kernel
    # call stays in cache whatever the number of rows.
    width = max(1, _CHUNK // max(1, keys.size))

    def fill(start: int) -> None:
        _fill(out[:, start : start + width], keys, offset + start, stage)

    starts = range(0, count, width)
    if len(starts) > 1:
        # Reading every result re-raises any worker's exception here.
        for _ in _executor().map(fill, starts):
            pass
    else:
        for start in starts:
            fill(start)
    return out


def _one_stream(seed: SeedSpec, count: int, offset: int, stage: int) -> np.ndarray:
    out = _stream((seed,), count, offset, stage)
    out.shape = (count,)  # in place: the array keeps owning its memory
    return out


def random_uint64(seed: SeedSpec, count: int, offset: int = 0) -> np.ndarray:
    """``count`` pseudorandom 64-bit words from the stream named by ``seed``.

    ``offset`` skips that many words first, so a stream may be materialized
    in chunks without changing a single value.
    """
    return _one_stream(seed, count, offset, _WORDS)


def random_uniform(seed: SeedSpec, count: int, offset: int = 0) -> np.ndarray:
    """i.i.d. uniforms on the open interval (0, 1), as float64."""
    return _one_stream(seed, count, offset, _UNIFORM)


def sample_standard_normal(seed: SeedSpec, count: int, offset: int = 0) -> np.ndarray:
    """i.i.d. standard normal draws via the inverse-CDF transform.

    The transform is fixed (uniform -> ndtri) so the mapping from seed to
    values is stable across platforms and releases of this package.
    """
    return _one_stream(seed, count, offset, _NORMAL)


def random_uniform_rows(seeds, count: int) -> np.ndarray:
    """``random_uniform(seed, count)`` for each seed, as the rows of one
    ``len(seeds) x count`` array, from one kernel call per column piece."""
    return _stream(seeds, count, 0, _UNIFORM)


def sample_standard_normal_rows(seeds, count: int) -> np.ndarray:
    """``sample_standard_normal(seed, count)`` for each seed, as the rows of
    one ``len(seeds) x count`` array."""
    return _stream(seeds, count, 0, _NORMAL)
