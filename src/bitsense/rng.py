"""Deterministic, platform-stable random sampling.

All randomness in this package flows through a counter-based generator so
that identical seeds reproduce bit-identical streams on every platform and
so that no generator state is ever shared, between streams or threads.

The scheme, fixed for reproducibility:

* 64-bit state mixing is SplitMix64 (Steele, Lea & Flood): the counter walks
  in steps of the odd constant 0x9E3779B97F4A7C15 and each state is passed
  through the standard two-round multiply/xor-shift avalanche.
* Uniform doubles are ``(min(word >> 11, 2**53 - 2) + 0.5) * 2**-53``,
  strictly inside (0, 1): the min gives the one word that would round to
  1.0 the value of the word below it.
* Standard normals are produced by the inverse-CDF transform
  (``scipy.special.ndtri``) applied to those uniforms; the uniform 1/2 gives 0.0.

Element ``i`` of a stream depends only on the seed and ``i``, so a stream can
be produced piecewise, or many streams side by side, without changing any
value (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
There is one path: a uint64 array of stream keys (`_stream_key`,
`_stream_keys`) goes in, float64 uniforms (`random_uniform_rows`) or normals
(`sample_standard_normal_rows`) come out, one row per key, from one kernel
that fills a 2-D block in place, straight into the result.
`sample_standard_normal` is a block of one row, and
`sample_standard_normal_block` a block of row keys.

Row-keyed addressing: element i's counter is ``key + (i + 1) * G`` with G
the odd constant above, so the stream read from element j on is itself the
stream keyed ``key + j * G`` (mod 2^64): an offset into a stream is a
change of key.  Laid out row-major in rows of n, row r of a stream is the
stream keyed ``key + r * n * G``, and its entry in column c is at counter
``key + r * n * G + (c + 1) * G``.
`sample_standard_normal_block` draws any rows by any columns of such a
matrix that way, one key per row, never drawing the other entries: the
validators take contiguous columns of contiguous rows, and the convergence
trials the columns on a support and the rows where the signs disagree.

A request of more than about 64Ki elements is split into contiguous row
tiles of at most 64Ki elements that run on a small thread pool (numpy's
integer ufuncs and ``ndtri`` release the GIL).  The split depends only on the
request's shape, and the values are the same as those of one serial pass.
The stream definition above is unchanged by this; the sha256 known-answer
tests pin it.

The pool is the one parallel layer of ``run``, ``validate``, ``raic`` and
a bare `biht.run_biht`, whose BLAS products run on one thread under
`_one_blas_thread` (the reason is measured there).  Work goes to it through
one helper, `_map`, which lists its users and is the one place that hands
scratch to its tasks.

Nothing here is cryptographic.
"""

from __future__ import annotations

import ctypes
import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .thresholding import _integer

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

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# Set on the pool's own threads (the executor's initializer).
_on_pool = threading.local()


@dataclass(frozen=True)
class SeedSpec:
    """A (base_seed, stream_id) pair identifying one sample stream.

    Equal pairs reproduce bit-identical streams; the stream_id discriminates
    purposes (matrix vs. signal vs. trial index) under one experiment seed.
    """

    base_seed: int
    stream_id: int = 0

    def __post_init__(self):
        # Held as Python ints in [0, 2^64): numpy integer arithmetic would
        # overflow in the mixing rounds.
        for name in ("base_seed", "stream_id"):
            value = _integer(getattr(self, name), f"seed field {name}", 0, _MASK64)
            object.__setattr__(self, name, value)


def splitmix64(z: int) -> int:
    """One SplitMix64 avalanche round; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: SeedSpec, index: int) -> SeedSpec:
    """Derive the ``index``-th child seed of ``base``.

    Injective in ``index``, an integer in [0, 2^64), for a fixed base: the
    candidate state walks an odd multiple of the golden-ratio constant (a
    bijection mod 2^64) before the avalanche, itself a bijection.
    Collisions across different bases are possible only with negligible
    (2^-64-scale) probability.
    """
    # Beyond [0, 2^64) the counter step wraps: 2**64 + i would name child i.
    step = ((_integer(index, "index", 0, _MASK64) + 1) * _GOLDEN) & _MASK64
    child_base = splitmix64((base.base_seed + step) & _MASK64)
    child_stream = splitmix64(base.stream_id ^ child_base)
    return SeedSpec(child_base, child_stream)


def _stream_key(seed: SeedSpec) -> int:
    # Collapse the pair to one 64-bit key for the counter walk.
    return splitmix64(seed.base_seed ^ splitmix64(seed.stream_id ^ _MIX2))


# The same functions over uint64 arrays, for a block of seeds at once: one
# array pass in place of a Python call per seed.  On 2 vCPU (numpy 2.4.6),
# deriving the children of one seed at 128 indices took 29-31 us, against
# 440-520 us for 128 `derive_seed` calls.  The int functions above stay the
# definition and the path for single seeds, where an array costs more than
# it saves (14-18 us a mix for one element, against 0.6-0.8 us).  Array
# arithmetic wraps mod 2^64 silently; numpy scalar arithmetic warns on the
# wrap, so every operand here is an array or broadcasts against one.


def _mix(z: np.ndarray) -> np.ndarray:
    """`splitmix64` of each element of the uint64 array ``z``, in place.
    Returns z."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _derive_rows(seeds, index):
    """`derive_seed` elementwise: the children ``(bases, streams)``, two
    uint64 arrays, of ``seeds`` (a SeedSpec, or a pair of uint64 arrays of
    base seeds and stream ids) at ``index`` (an int in [0, 2^64), or a uint64
    array that broadcasts against the seeds)."""
    if isinstance(seeds, SeedSpec):
        seeds = (np.array([seeds.base_seed], dtype=np.uint64),
                 np.array([seeds.stream_id], dtype=np.uint64))
    bases, streams = seeds
    if isinstance(index, np.ndarray):
        step = (index + np.uint64(1)) * np.uint64(_GOLDEN)
    else:
        step = np.uint64(((_integer(index, "index", 0, _MASK64) + 1) * _GOLDEN) & _MASK64)
    child_bases = _mix(bases + step)
    return child_bases, _mix(streams ^ child_bases)


def _stream_keys(seeds) -> np.ndarray:
    """`_stream_key` elementwise, for seeds given as ``(bases, streams)``
    uint64 arrays."""
    bases, streams = seeds
    return _mix(bases ^ _mix(streams ^ np.uint64(_MIX2)))


def _fill(out: np.ndarray, keys: np.ndarray, steps: np.ndarray, normal: bool) -> None:
    """Write stream elements into the float64 block ``out`` in place.

    Entry (r, c) is the element whose counter is ``keys[r] + steps[c]``
    (mod 2^64).  Element i of the stream keyed ``key`` has the counter
    ``key + (i + 1) * _GOLDEN``; its word is ``splitmix64`` of it, its
    uniform ``((min(word >> 11, 2**53 - 2)) + 0.5) * 2**-53`` and, with
    ``normal``, its normal ``ndtri`` of that.
    """
    z = out.view(np.uint64)
    # uint64 array arithmetic wraps mod 2^64, as the counter walk requires.
    height, width = z.shape
    if height > 256 * width:
        # A tall, narrow block, such as the m x k columns on a support: one
        # strided pass per column, since a broadcast add runs an inner loop
        # of ``width`` elements per row.  On 2 vCPU (numpy 2.4.6), medians
        # of 300: 65 against 119 us at 10000 x 5, even at 2000 x 8, and
        # 20 against 12 us at 500 x 8.
        for c in range(width):
            np.add(keys, steps[c], out=z[:, c])
    else:
        np.add(steps, keys[:, None], out=z)
    _mix(z)
    z >>= np.uint64(11)
    # 2**53 - 1 + 0.5 rounds to 2**53 (a uniform of 1.0, a normal of +inf),
    # 2**53 - 2 + 0.5 to 2**53 - 2: this changes only the top word.
    np.minimum(z, np.uint64(2**53 - 2), out=z)
    # z < 2**53, so the cast to float64 is exact: the same value as
    # z.astype(float64) + 0.5.
    np.add(z, 0.5, out=out)
    out *= 2.0**-53
    if normal:
        ndtri(out, out=out)


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mark_pool_thread() -> None:
    _on_pool.worker = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_worker_count(), thread_name_prefix="bitsense-rng",
                initializer=_mark_pool_thread,
            )
        return _pool


def _map(fn, items, scratch=None) -> list:
    """``[fn(item) for item in items]``, run on the pool when that can help.

    Called on one of the pool's own threads, or with fewer than two items,
    it runs serially in the calling thread: a pool task that waited on the
    pool could wait for ever, once every worker is busy with such tasks.
    Otherwise the items go to the pool and the results come back in item
    order; reading them re-raises the first worker's exception in item
    order here, once the calls not yet started are cancelled and the
    running ones have ended.  So no call outlives `_map`, nor a
    `_one_blas_thread` it holds: a trial that raised would otherwise leave
    the other trials' runs holding the BLAS count at 1 after
    `montecarlo.convergence_trials` raised.  The pool's five users, each
    named by the function that calls `_map`: the sampler's tiles
    (`_stream`), the certifier's pair blocks (`raic.raic_certify`), the
    battery's validators (`montecarlo.run_validator_suite`), the
    convergence trials (`montecarlo.convergence_trials`) and the row blocks
    of a dense correction over a whole matrix
    (`core.MeasurementMatrix.t_dot`); the middle three draw serially on
    their pool threads, and the last takes its blocks' products there.

    With ``scratch``, a function of no arguments that makes a block, each
    call is ``fn(item, block)``.  The blocks, one for each call that can run
    at once, are made here in the calling thread and handed from call to
    call, also by a call that raises.  Made on the pool's threads, they
    would stay in those threads' malloc arenas after the call.  At the
    acceptance config (2 vCPU), a `run` whose trials ran one by one peaked
    2-3 MB higher with `_stream`'s tile blocks made on the pool's threads,
    and the `converge` benchmark's `run`s at 75.9-80.1 MB against
    70.3-70.9 MB with each trial's 4 MB dense block made in the trial.
    """
    items = list(items)
    serial = len(items) < 2 or getattr(_on_pool, "worker", False)
    if scratch is not None:
        free = queue.SimpleQueue()
        for _ in range(min(len(items), 1 if serial else _worker_count())):
            free.put(scratch())
        fn = functools.partial(_with_block, fn, free)
    if serial:
        return [fn(item) for item in items]
    pool = _executor()
    futures = [pool.submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    except BaseException:
        # The calls not started are dropped, and the running ones end
        # before `_map` does.
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _with_block(fn, free, item):
    # `_map`'s call with scratch: a block from ``free``, given back after.
    block = free.get()
    try:
        return fn(item, block)
    finally:
        free.put(block)


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads, and
    # the lock in whatever state another thread left it.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads, get_corename) of the OpenBLAS that
    numpy bundles, bound once, or None where numpy uses another BLAS or the
    library is not found.  The one place the package reaches that library:
    the thread count for `_one_blas_thread`, the core name for
    `_openblas_core`."""
    here = Path(np.__file__).resolve().parent
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                        *here.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded: the same library
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                calls = [getattr(lib, f"{prefix}{name}{suffix}", None)
                         for name in ("get_num_threads", "set_num_threads", "get_corename")]
                if None not in calls:
                    get, put, core = calls
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    core.argtypes, core.restype = [], ctypes.c_char_p
                    return get, put, core
    return None


@functools.cache
def _openblas_core():
    """The name of the OpenBLAS core this process runs (say ``SkylakeX``),
    which fixes the last bits of every BLAS product; None where `_openblas`
    finds no library."""
    calls = _openblas()
    return None if calls is None else calls[2]().decode()


_blas_lock = threading.Lock()
_blas_users = 0  # callers inside _one_blas_thread
_blas_saved = 0  # the count to restore when the last one leaves


@contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the caller's count.

    The count is OpenBLAS's, one for the whole process, so nested and
    concurrent users share one setting and the last to leave restores it;
    a thread that makes BLAS products outside this context meanwhile runs
    them on one thread too.  Where the count cannot be reached (another
    BLAS), the body runs at whatever the BLAS uses.

    Why: after a product on two OpenBLAS threads the idle worker busy-waits
    on a core, and a pool draw that follows shares that core with it.  A
    10000 x 200 matrix draw on 2 vCPU (OpenBLAS 0.3.31), medians of 25 in
    two sets: 30-36 ms with no product before it, 48-60 ms right after one
    two-thread ``A.T @ r``, 29-32 ms after the same product on one thread,
    34 ms after the two-thread product and a 0.3 s sleep, and 45 ms with
    the count set to 1 only around the draw.  So the count is set around
    the products of a whole pipeline, not around its draws.  The products
    themselves are small (matrix-vector products over 4 MB row blocks in
    a solver step, 512-row blocks in the certifier), and one thread also
    keeps their last bits independent of the core count: two-thread
    products round some results differently.  A bare `biht.run_biht` runs
    inside it as well: with two BLAS threads its idle worker busy-waited
    between products, so the `solve` benchmark read ``cpu_s`` at about
    twice ``run_s``.  Its dense first step takes its row blocks side by
    side on the pool instead (`core.MeasurementMatrix.t_dot`), which wins
    back about half of what one BLAS thread alone loses there.
    """
    global _blas_users, _blas_saved
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put, _ = calls
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


def _stream(keys: np.ndarray, count: int, normal: bool, steps=None, into=None) -> np.ndarray:
    """Elements ``0 .. count - 1`` of the stream of each key in the uint64
    array ``keys``, uniforms or, with ``normal``, normals, one row per key,
    in a fresh float64 array that owns its memory.

    With ``steps``, an array of ``count`` uint64 counter steps, column c
    holds the element at counter ``key + steps[c]`` rather than
    ``key + (c + 1) * _GOLDEN``: columns that need not be contiguous.  With
    ``into = (dest, at)``, row r goes to ``dest[at[r]]`` one tile at a
    time, through a block of scratch, rather than to a fresh array, and dest
    is returned.

    The tiles run on the pool (`_map`), or one after another in the calling
    thread when it is one of the pool's own, as in the certifier's pair
    blocks: the same tiles and values either way.
    """
    count = _integer(count, "count")
    rows = keys.size
    out = np.empty((rows, count)) if into is None else into[0]
    # Contiguous row tiles of at most one chunk: whole rows while a row fits
    # in a chunk, else one row cut into chunks.
    width = min(max(1, count), _CHUNK)
    height = max(1, _CHUNK // width)

    def fill(piece, scratch=None) -> None:
        r, c = piece
        tile_keys = keys[r : r + height]
        if steps is None:
            tile_keys = tile_keys + np.uint64(c * _GOLDEN & _MASK64)
            tile_steps = _STEPS[: min(width, count - c)]
        else:
            tile_steps = steps[c : c + width]
        if scratch is None:
            _fill(out[r : r + height, c : c + width], tile_keys, tile_steps, normal)
            return
        tile = scratch[: tile_keys.size, : tile_steps.size]
        _fill(tile, tile_keys, tile_steps, normal)
        out[into[1][r : r + height], c : c + width] = tile

    pieces = [(r, c) for r in range(0, rows, height) for c in range(0, count, width)]
    _map(fill, pieces, None if into is None else functools.partial(np.empty, (height, width)))
    return out


def sample_standard_normal(seed: SeedSpec, count: int) -> np.ndarray:
    """i.i.d. standard normal draws via the inverse-CDF transform: the first
    ``count`` elements of ``seed``'s stream.

    The transform is fixed (uniform -> ndtri) so the mapping from seed to
    values is stable across platforms and releases of this package.
    """
    out = _stream(np.array([_stream_key(seed)], dtype=np.uint64), count, True)
    out.shape = (count,)  # in place: the array keeps owning its memory
    return out


def random_uniform_rows(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the stream of each key in the uint64
    array ``keys``, one row per key."""
    return _stream(keys, count, False)


def sample_standard_normal_rows(keys: np.ndarray, count: int) -> np.ndarray:
    """``ndtri`` of `random_uniform_rows`: the row of the key
    ``_stream_key(seed)`` is ``sample_standard_normal(seed, count)``."""
    return _stream(keys, count, True)


def sample_standard_normal_block(seed: SeedSpec, n: int, rows, columns,
                                 into=None) -> np.ndarray:
    """Rows ``rows`` by columns ``columns`` of ``seed``'s normals laid out
    row-major in rows of ``n``, drawn without the other entries: bit for bit
    ``sample_standard_normal(seed, (max(rows) + 1) * n).reshape(-1, n)[np.ix_(rows, columns)]``.
    ``rows`` and ``columns`` are each a ``range`` of step 1 or an array of
    indices, the columns in [0, n).

    Entry (i, j) is element ``i * n + j`` of the seed's stream: row i is the
    stream keyed ``key + i * n * G`` (mod 2^64, ``key`` the seed's stream
    key, G = 0x9E3779B97F4A7C15), and entry j of that row its element j.
    Each row is drawn from its own key; a range of columns from c0 on
    starts each row's key at ``key + (i * n + c0) * G``.

    The block is a fresh array.  With ``into = (dest, at)``, ``dest`` an
    array of ``len(columns)`` columns and ``at`` an array of ``len(rows)``
    row indices into it, row r of the block is written to ``dest[at[r]]``
    instead, one tile of at most 64Ki elements at a time, so that no
    temporary of the whole block is made, and ``dest`` is returned.
    """
    n = _integer(n, "n", 1)
    if isinstance(columns, range):
        if columns.step != 1 or not 0 <= columns.start <= columns.stop <= n:
            raise ValueError(f"need a range of columns within [0, {n}]")
        width, first, steps = len(columns), columns.start, None
    else:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.ndim != 1 or columns.size and not 0 <= columns.min() <= columns.max() < n:
            raise ValueError(f"need an array of columns in [0, {n})")
        width, first = columns.size, 0
        steps = (columns.astype(np.uint64) + 1) * np.uint64(_GOLDEN)
    key = _stream_key(seed) + first * _GOLDEN
    step = n * _GOLDEN & _MASK64
    if isinstance(rows, range):
        if rows.step != 1 or not 0 <= rows.start <= rows.stop:
            raise ValueError("need a range of rows from 0 on")
        keys = np.arange(len(rows), dtype=np.uint64)
        keys *= np.uint64(step)
        keys += np.uint64((key + rows.start * step) & _MASK64)
    else:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or rows.size and rows.min() < 0:
            raise ValueError("need an array of rows >= 0")
        keys = rows.astype(np.uint64) * np.uint64(step) + np.uint64(key & _MASK64)
    return _stream(keys, width, True, steps, into)
