"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads solve certify --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median, and flags a
spread above a third of the metric's bound in BENCHMARK.json.  Runs are
sequential, one process at a time; the exit code is 1 if any spread was
flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(l[8:]) for l in lines if l.startswith("machine ")), None)
    return proc.returncode, json.loads(lines[-1]), machine


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", help="write medians, quartiles and the machine record here")
    args = p.parse_args(argv)
    specs = bench["end_to_end"]

    report = {"seeds": args.seeds, "seconds": args.seconds, "machine": None, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values = {s["name"]: [] for s in specs}
        failures = []
        for seed in args.seeds:
            code, result, machine = run_once(workload, seed, args.seconds)
            report["machine"] = machine
            if code != 0 or not result["correct"]:
                failures.append({"seed": seed, "attempted": result["attempted"],
                                 "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            brief = " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: exit {code} failed {result['failed']} {brief}",
                  flush=True)
        rows = {}
        for spec in specs:
            vals = values[spec["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[spec["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "unit": spec["unit"]}
            flag = ""
            if spec["name"] != "setup_s" and spread > spec["bound"] / 3:
                flag = f"  > bound/3 ({spec['bound'] / 3:.3f})"
                steady = False
            print(f"  {workload:<9} {spec['name']:<36} median {med:>12.6g} {spec['unit']:<11}"
                  f" spread {spread:7.4f}{flag}")
        report["workloads"][workload] = {"failures": failures, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
