"""bitsense benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one process each

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
The exit code is 0 when every output passed its check, 1 when one failed
and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("converge", "solve", "certify", "validate")
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--fault", choices=("sgn-zero",),
                   help="validate only: corrupt the sign convention (must fail)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.fault and args.workload != "validate":
        p.error("--fault applies to the validate workload only")
    return args


def import_package():
    """Import bitsense from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import bitsense
    except ImportError as exc:
        print(f"error: cannot import bitsense from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(bitsense.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bitsense was imported from {bitsense.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _output_of(cmd, env=None):
    """Stripped standard output of a command, or None if it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = out.stdout.strip()
    return text if out.returncode == 0 and text else None


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _output_of(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "BITSENSE_THREADS": os.environ.get("BITSENSE_THREADS"),
        # The ceiling keeps git from reporting a repository that merely
        # contains this checkout.
        "commit": _output_of(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}),
    }


def timed_loop(work, seconds, outcomes, samples):
    """Invoke work.call(0), call(1), ... until ``seconds`` of wall time pass.

    Appends (index, Outcome) to outcomes and (wall_s, cpu_s) to samples.
    Checks run outside the timed region; CPU time covers all threads.
    """
    from workloads import Outcome

    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            handle = work.call(i)
        except Exception:  # a crash in the program counts as failed items
            traceback.print_exc()
            handle = None
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        outcome = None
        if handle is not None:
            try:
                outcome = work.check(i, handle)
            except (OSError, ValueError, KeyError):  # missing or malformed output
                traceback.print_exc()
        if outcome is None:
            outcome = Outcome(work.items_per_call, work.items_per_call, "failed", {}, 0)
        outcomes.append((i, outcome))
        samples.append((wall, cpu))
        i += 1


def run_workload(args):
    import_package()
    from workloads import WORKLOADS

    os.environ.pop("BITSENSE_THREADS", None)  # one trial worker
    machine = machine_record()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work = WORKLOADS[args.workload](args.seed, workdir, args.smoke, fault=bool(args.fault))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            work.setup()
            setup_times.append(time.perf_counter() - t0)

        outcomes, samples = [], []
        if args.trace:
            layers = traced_run(work, args.seconds, outcomes, samples)
        else:
            timed_loop(work, args.seconds, outcomes, samples)
            # Repeat invocation 0: its outputs must reproduce exactly.
            timed_loop(work, 0, outcomes, [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(o.items for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes)
    first = {}
    for i, o in outcomes:
        if o.digest != first.setdefault(work.call_seed(i), o.digest):
            print(f"digest mismatch on invocation {i}", file=sys.stderr)
            failed += o.items

    walls = [w for w, _ in samples]
    timed_items = [o.items for _, o in outcomes[: len(samples)]]
    quality = {}
    for _, o in outcomes:
        for key, value in o.quality.items():
            quality.setdefault(key, []).append(value)
    final_d_s = statistics.fmean(quality["final_d_s_mean"]) if "final_d_s_mean" in quality else None
    worst_ratio = max(quality["raic_worst_ratio"]) if "raic_worst_ratio" in quality else None

    human = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(n / w for n, w in zip(timed_items, walls)), "1/s"),
        "cpu_s": (statistics.median(c for _, c in samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (failed / attempted, "fraction"),
    }
    if final_d_s is not None:
        human["final_d_s_mean"] = (final_d_s, "d_s")
    if worst_ratio is not None:
        human["raic_worst_ratio"] = (worst_ratio, "ratio")

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} invocations {len(samples)} "
          f"items {sum(timed_items)} attempted {attempted} failed {failed}")
    for name, (value, unit) in human.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = layers
        metrics["biht.final_d_s_mean"] = (final_d_s or 0.0, "d_s")
        metrics["raic.worst_ratio"] = (worst_ratio or 0.0, "ratio")
        metrics["cli.output_bytes"] = (
            statistics.fmean(o.output_bytes for _, o in outcomes), "bytes")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<34} {value:>14.6g} {unit}")
        wanted = bench["per_layer"]
    else:
        metrics = human
        wanted = bench["end_to_end"]
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit} != {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def traced_run(work, seconds, outcomes, samples):
    """Untraced loop, then the same invocations traced; per-layer metrics.

    Each loop gets half the time.  The traced loop starts again at
    invocation 0, so every traced invocation repeats an untraced one with
    the same inputs and must reproduce its digest.
    """
    import spans

    timed_loop(work, seconds / 2, outcomes, samples)
    plain_run_s = statistics.median(w for w, _ in samples)
    recorder = spans.Recorder()
    traced = []
    with spans.instrumented(recorder):
        timed_loop(work, seconds / 2, outcomes, traced)
    left = spans.leftover_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left in place: {left}")
    traced_walls = [w for w, _ in traced]
    metrics = spans.layer_metrics(recorder.spans, sum(traced_walls))
    metrics["trace.run_s"] = (sum(traced_walls), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - plain_run_s, "s")
    return metrics


def run_all(args):
    """Each workload in a fresh process, so peak RSS is per workload."""
    results = {}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            worst = max(worst, 2)
    print(json.dumps(results))
    return worst


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
