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
  The ufunc is scipy's own object, bound by `_load_ndtri` without running
  scipy.special's package import.

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
tiles of at most 64Ki elements that run on the package's thread pool
(`_parallel._map`; numpy's integer ufuncs and ``ndtri`` release the GIL).
The split depends only on the request's shape, and the values are the same
as those of one serial pass.  The stream definition above is unchanged by
this; the sha256 known-answer tests pin it.

Nothing here is cryptographic.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from dataclasses import dataclass

import numpy as np

from ._inputs import _integer
from ._parallel import _map


def _load_ndtri(source: str = "scipy.special._ufuncs"):
    """scipy's ``ndtri`` ufunc, the attribute of that name of the module
    ``source``, without running ``scipy/special/__init__.py``.

    That file loads scipy's array-API layer, whose star import of numpy
    loads every submodule in ``numpy.__all__`` (f2py, testing, ma, random,
    polynomial, fft), to reach one ufunc of the extension module
    ``scipy.special._ufuncs``: with it, a fresh process importing
    ``bitsense.cli`` peaked 19.5 MB higher and took 0.22 s longer (medians
    of 15; 2 vCPU, numpy 2.4.6, scipy 1.17.1).  So ``source`` is imported
    with a module object for ``scipy.special`` that is never executed
    standing in as its parent, and taken out of ``sys.modules`` again
    after.  A later
    ``import scipy.special`` runs the package as usual, reuses the loaded
    extension modules, and has this same object as its ``ndtri``.

    If ``scipy.special`` is already imported, its ``ndtri`` is used and no
    stand-in is made.  If ``source`` cannot be imported or has no ``ndtri``,
    as a scipy that moves the function would do, the package is imported.
    """
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded.ndtri
    stand_in = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
    sys.modules["scipy.special"] = stand_in
    try:
        return importlib.import_module(source).ndtri
    except (ImportError, AttributeError):
        pass
    finally:
        if sys.modules.get("scipy.special") is stand_in:
            del sys.modules["scipy.special"]
    import scipy.special

    return scipy.special.ndtri


ndtri = _load_ndtri()

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
