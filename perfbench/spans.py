"""In-memory span recorder that instruments the bitsense package from outside.

`instrumented(recorder)` replaces every public function of the traced
modules (and the public methods of their public classes) with a wrapper that
records a span: name, start, end and the span that was active when it was
called.  A name imported with ``from .core import sign_measure`` is bound
again in each importing module, so the wrapper is installed on every module
binding of the same object, and every binding is restored on exit.  No file
of the package is touched.

`layer_metrics(...)` turns the recorded spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the time its
child spans cover.  The package runs single-threaded under the benchmark
(``BITSENSE_THREADS`` unset), so children never overlap.

``theory`` is closed-form and takes microseconds; it is left untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import pkgutil
import threading
import time

TRACED_LAYERS = ("rng", "core", "thresholding", "biht", "raic", "montecarlo", "cli")

# Bindings traced in addition to the public functions: the inverse normal
# CDF the sampler imports, and the private JSON writer of the CLI.
EXTRA_BINDINGS = (("rng", "ndtri"), ("cli", "_write_json"))

# Spans whose time is output writing.
WRITERS = (
    "biht.write_trajectory_csv",
    "montecarlo.write_validator_csv",
    "raic.RaicReport.to_csv",
    "raic.RaicReport.to_json",
    "cli._write_json",
)

VALIDATORS = (
    "mismatch_probability",
    "band_count_mean",
    "projection_expectation",
    "tail_frequency_check",
)

_WRAPPED = "__perfbench_span__"


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans in memory; one call stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn, observe=None):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        setattr(traced, _WRAPPED, name)
        return traced


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observers(modules):
    """Per-span facts read from arguments and results: counts, not times."""
    mc = modules["montecarlo"]

    def rows(fn_name):
        fn = getattr(mc, fn_name)

        def observe(args, kwargs, result):
            a = _bound(fn, args, kwargs)
            return a["draws"] if "draws" in a else a["m"] * a["trials"]

        return observe

    def certify(args, kwargs, report):
        small = sum(1 for r in report.records if r.regime == "small")
        return report.samples, small

    def step(args, kwargs, result):
        x_prev = args[2] if len(args) > 2 else kwargs.get("x_prev")
        return result is x_prev

    observers = {
        "rng.sample_standard_normal": lambda a, kw, r: int(r.size),
        "core.gaussian_matrix": lambda a, kw, r: int(r.entries.size),
        "biht.biht_step": step,
        "biht.run_biht": lambda a, kw, r: int(r.mismatch[-1]),
        "raic.raic_certify": certify,
    }
    for name in VALIDATORS:
        observers[f"montecarlo.{name}"] = rows(name)
    return observers


def _package_modules():
    pkg = importlib.import_module("bitsense")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"bitsense.{info.name}"))
    return mods


def _targets(modules):
    """(owner, attribute, span name) for everything the tracer wraps."""
    found = []
    for layer in TRACED_LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((mod, attr, f"{layer}.{attr}"))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((obj, meth, f"{layer}.{attr}.{meth}"))
    for layer, attr in EXTRA_BINDINGS:
        if hasattr(modules[layer], attr):
            found.append((modules[layer], attr, f"{layer}.{attr}"))
    return found


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Wrap the traced bindings for the duration of the block, then restore."""
    all_mods = _package_modules()
    modules = {m.__name__.rpartition(".")[2]: m for m in all_mods}
    observers = _observers(modules)
    wrappers = {}  # id(original) -> (original, wrapper)
    patched = []  # (owner, attr, original)
    targets = _targets(modules)
    for owner, attr, name in targets:
        original = vars(owner)[attr]
        if id(original) not in wrappers:
            wrappers[id(original)] = (
                original,
                recorder.wrap(name, original, observers.get(name)),
            )
    try:
        for owner, attr, _ in targets:
            original, wrapper = wrappers[id(vars(owner)[attr])]
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
        # Re-bindings of the same objects elsewhere in the package.
        for mod in all_mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def leftover_wrappers():
    """Names of package bindings still pointing at a tracing wrapper."""
    left = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, _WRAPPED):
                left.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj):
                left.extend(
                    f"{mod.__name__}.{attr}.{meth}"
                    for meth, fn in vars(obj).items()
                    if hasattr(fn, _WRAPPED)
                )
    return left


# ---------------------------------------------------------------------------
# Per-layer metrics


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered(spans, pred):
    """Per span: time covered by the outermost descendants-or-self matching pred."""
    acc = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        s = spans[i]
        if pred(s):
            acc[i] = s.duration
        if s.parent >= 0:
            acc[s.parent] += acc[i]
    return acc


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, traced_run_s):
    """Per-layer metrics as {name: (value, unit)} from one traced loop."""
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def each(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name):
        return sum(s.duration for s in each(name))

    def calls(name):
        return len(by_name.get(name, ()))

    def share(seconds):
        return seconds / traced_run_s if traced_run_s > 0 else 0.0

    def outermost(pred):
        """Time in spans matching pred, not counting those nested in another match."""
        cover = _covered(spans, pred)
        return sum(cover[i] for i, s in enumerate(spans) if s.parent < 0)

    rng_cover = _covered(spans, lambda s: s.layer == "rng")
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def minus_rng(name):
        return sum(spans[i].duration - rng_cover[i] for i in by_name.get(name, ()))

    m = {}

    # rng
    normals = [s.info for s in each("rng.sample_standard_normal")]
    sample_s = outermost(lambda s: s.layer == "rng")
    normal_s = total("rng.sample_standard_normal")
    m["rng.normals"] = (sum(normals), "count")
    m["rng.sample_s"] = (sample_s, "s")
    m["rng.uint64_s"] = (total("rng.random_uint64"), "s")
    m["rng.uniform_map_s"] = (
        sum(spans[i].duration - child_time[i] for i in by_name.get("rng.random_uniform", ())),
        "s",
    )
    m["rng.ndtri_s"] = (total("rng.ndtri"), "s")
    m["rng.normals_per_s"] = (sum(normals) / normal_s if normal_s > 0 else 0.0, "1/s")
    m["rng.max_block_mb"] = (max(normals, default=0) * 8 / 2**20, "MB_computed")
    m["rng.share"] = (share(sample_s), "fraction")

    # core
    matrices = [s.info for s in each("core.gaussian_matrix")]
    m["core.gaussian_matrix.calls"] = (len(matrices), "count")
    m["core.gaussian_matrix_self_s"] = (minus_rng("core.gaussian_matrix"), "s")
    m["core.matrix_mb"] = (max(matrices, default=0) * 8 / 2**20, "MB_computed")
    m["core.sign_measure.calls"] = (calls("core.sign_measure"), "count")
    m["core.sign_measure_s"] = (total("core.sign_measure"), "s")
    m["core.random_sparse_unit_s"] = (total("core.random_sparse_unit"), "s")
    m["core.sphere_distance_s"] = (total("core.sphere_distance"), "s")

    # thresholding
    m["thresholding.top_k.calls"] = (calls("thresholding.top_k"), "count")
    m["thresholding.top_k_s"] = (total("thresholding.top_k"), "s")
    m["thresholding.threshold_set_s"] = (total("thresholding.threshold_set"), "s")

    # biht
    steps = each("biht.biht_step")
    step_ms = [s.duration * 1e3 for s in steps]
    step_s = sum(s.duration for s in steps)
    solver_signs = sum(
        1 for i in by_name.get("core.sign_measure", ()) if _has_ancestor(spans, i, "biht.run_biht")
    )
    runs = each("biht.run_biht")
    diag_s = sum(s.duration for s in runs) - sum(
        s.duration for s in steps if s.parent >= 0 and spans[s.parent].name == "biht.run_biht"
    )
    m["biht.iters"] = (len(steps), "count")
    m["biht.step_s"] = (step_s, "s")
    m["biht.step_ms_p50"] = (_quantile(step_ms, 0.5), "ms")
    m["biht.step_ms_p90"] = (_quantile(step_ms, 0.9), "ms")
    m["biht.diag_s"] = (diag_s, "s")
    m["biht.sign_measure.calls"] = (solver_signs, "count")
    m["biht.sign_measure_per_iter"] = (
        solver_signs / len(steps) if steps else 0.0,
        "calls/iter",
    )
    m["biht.fixed_point_steps"] = (sum(1 for s in steps if s.info), "count")
    m["biht.final_mismatch_mean"] = (
        sum(s.info for s in runs) / len(runs) if runs else 0.0,
        "rows",
    )
    m["biht.step_share"] = (share(step_s), "fraction")

    # raic
    certs = by_name.get("raic.raic_certify", ())
    pair_ms = []
    for i in certs:
        prev = spans[i].start
        for j in range(i + 1, len(spans)):
            s = spans[j]
            if s.start >= spans[i].end:
                break
            if s.parent == i and s.name == "raic.raic_bound":
                pair_ms.append((s.end - prev) * 1e3)
                prev = s.end
    kernel_s = outermost(lambda s: s.name in ("raic.h_a", "raic.h_a_j"))
    sampling = _covered(
        spans, lambda s: s.layer == "rng" or s.name == "core.random_sparse_unit"
    )
    infos = [spans[i].info for i in certs]
    m["raic.pairs"] = (sum(x[0] for x in infos), "count")
    m["raic.h_a_j.calls"] = (calls("raic.h_a_j"), "count")
    m["raic.kernel_s"] = (kernel_s, "s")
    m["raic.pair_ms_p50"] = (_quantile(pair_ms, 0.5), "ms")
    m["raic.pair_ms_p90"] = (_quantile(pair_ms, 0.9), "ms")
    m["raic.sample_s"] = (sum(sampling[i] for i in certs), "s")
    m["raic.small_regime_pairs"] = (sum(x[1] for x in infos), "count")
    m["raic.kernel_share"] = (share(kernel_s), "fraction")

    # montecarlo
    mc_kernel = 0.0
    for name in VALIDATORS:
        m[f"montecarlo.{name}_s"] = (total(f"montecarlo.{name}"), "s")
        mc_kernel += minus_rng(f"montecarlo.{name}")
    m["montecarlo.kernel_s"] = (mc_kernel, "s")
    m["montecarlo.rows_sampled"] = (
        sum(s.info for name in VALIDATORS for s in each(f"montecarlo.{name}")),
        "count",
    )
    m["montecarlo.kernel_share"] = (share(mc_kernel), "fraction")

    # cli
    m["cli.write_s"] = (sum(total(name) for name in WRITERS), "s")

    m["trace.spans"] = (len(spans), "count")
    return m
