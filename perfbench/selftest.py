"""Self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/selftest.py

1. A tiny-size smoke run of every workload, untraced and traced, emits
   every metric BENCHMARK.json names, with its unit, and passes its gate.
2. A fault-injection run (validate with the sign convention corrupted)
   must report failed items: error rate above 0, ``correct`` false.
3. A traced run leaves the package untouched: every binding is restored,
   the files under src/ hash the same before and after, and, in a git
   work tree, ``git diff -- src`` is empty.
4. Without the package sources (only BENCHMARK.json and this directory),
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def last_json(proc):
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def smoke_runs():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in BENCH["workloads"]:
            proc = run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            result = last_json(proc)
            label = f"smoke {w['name']} --trace {trace}"
            if result is None:
                check(False, f"{label}: no result (exit {proc.returncode})\n{proc.stderr}")
                continue
            check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: passes its gate")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            check(got == want, f"{label}: emits every {key} metric with its unit")


def fault_injection():
    proc = run(["--workload", "validate", "--seed", "3", "--seconds", "1",
                "--fault", "sgn-zero"])
    result = last_json(proc)
    check(result is not None and result["failed"] > 0 and not result["correct"]
          and proc.returncode == 1,
          "fault injection (validate --break-sgn-zero) reports failed items")


def traced_run_leaves_src_alone():
    before = src_digest()
    proc = run(["--workload", "certify", "--seed", "3", "--seconds", "1", "--trace", "1",
                "--smoke"])
    check(proc.returncode == 0, "traced run completes")
    check(src_digest() == before, "src/ is byte-identical after a traced run")
    git = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", "--", "src"],
                         capture_output=True)
    if git.returncode in (0, 1):
        check(git.returncode == 0, "git diff -- src is empty after a traced run")

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    from bitsense import core

    original = core.sign_measure
    with spans.instrumented(spans.Recorder()):
        wrapped = spans.leftover_wrappers()
    check(len(wrapped) > 0 and not spans.leftover_wrappers() and core.sign_measure is original,
          f"instrumented() wraps {len(wrapped)} bindings and restores every one")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-bare-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "solve", "--seed", "1", "--seconds", "1"], cwd=tmp)
        check(proc.returncode != 0 and last_json(proc) is None,
              "without src/ the benchmark exits non-zero and prints no result")


def main():
    smoke_runs()
    fault_injection()
    traced_run_leaves_src_alone()
    bare_directory()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
