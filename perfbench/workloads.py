"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``setup``, makes one
untimed warm-up call there, and then exposes ``call(i)`` (the timed unit of
work, invocation ``i``) and ``check(i, handle)`` (untimed: correctness,
output digest and quality numbers).  Invocation ``i`` always gets the same
inputs for one run seed, so a repeated invocation must reproduce its digest.

Sizes are the paper's acceptance configuration; ``smoke=True`` shrinks
them so the self-test runs in seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bitsense import biht, cli, core
from bitsense.rng import SeedSpec, derive_seed

ERROR_BOUND_SLACK = 1e-9


@dataclass
class Outcome:
    items: int  # work items attempted by the invocation
    failed: int  # items that failed the correctness gate
    digest: str  # digest of the outputs that must repeat at one seed
    quality: dict  # accuracy numbers: final_d_s_mean, raic_worst_ratio
    output_bytes: int  # bytes written to the output directory


def derive_int(*parts) -> int:
    """A 32-bit seed for the CLI, derived from the run seed and a label."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class _CliWorkload:
    """A workload whose unit is one in-process ``bitsense`` CLI invocation.

    ``one_seed`` workloads give every invocation of a run the run's seed:
    their gates are statistical (a certificate or a validator battery can
    fail by chance), so a fresh seed per invocation would make a failure
    likely over the hundreds of invocations a benchmark evaluation makes.
    """

    items_per_call = 1
    one_seed = False

    def __init__(self, seed: int, workdir: Path, smoke: bool, fault: bool = False):
        self.seed = seed
        self.out = workdir
        self.smoke = smoke
        self.fault = fault

    def argv(self, seed: int, warmup: bool) -> list[str]:
        raise NotImplementedError

    def call_seed(self, i: int) -> int:
        if self.one_seed:
            return derive_int(self.name, self.seed)
        return derive_int(self.name, self.seed, i)

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)
        cli.main(self.argv(derive_int(self.name, self.seed, "warmup"), warmup=True)
                 + ["--output-dir", str(self.out)])

    def call(self, i: int):
        return cli.main(self.argv(self.call_seed(i), warmup=False)
                        + ["--output-dir", str(self.out)])


class Converge(_CliWorkload):
    """``bitsense run``: fresh matrix per trial, truth tracked, diagnostics on."""

    name = "converge"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n, self.k, self.m, self.trials, self.iters = (
            (40, 3, 400, 3, 4) if self.smoke else (200, 5, 10000, 50, 12)
        )
        self.items_per_call = self.trials

    def argv(self, seed, warmup):
        return ["run", "--n", str(self.n), "--k", str(self.k), "--m", str(self.m),
                "--trials", "1" if warmup else str(self.trials),
                "--iters", str(self.iters), "--seed", str(seed)]

    def check(self, i, code):
        if code != 0:
            return Outcome(self.trials, self.trials, f"exit {code}", {}, 0)
        bad = set()
        trials = set()
        with open(self.out / "trajectory.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                trials.add(row["trial"])
                if int(row["iter"]) == 0:
                    continue
                slack = float(row["lemma1_rhs"]) - float(row["d_s"])
                if not slack >= -ERROR_BOUND_SLACK:  # NaN fails too
                    bad.add(row["trial"])
        summary = (self.out / "summary.json").read_bytes()
        failed = len(bad) + max(0, self.trials - len(trials))
        return Outcome(
            self.trials,
            failed,
            _sha(summary),
            {"final_d_s_mean": json.loads(summary)["final_mean_d_s"]},
            _dir_bytes(self.out),
        )


class Certify(_CliWorkload):
    """``bitsense raic``: sampled invertibility certificate on one matrix."""

    name = "certify"
    one_seed = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n, self.k, self.m, self.delta, self.pairs, self.small = (
            (60, 4, 800, 0.05, 30, 10) if self.smoke else (200, 5, 5000, 0.01, 500, 100)
        )
        self.items_per_call = self.pairs

    def argv(self, seed, warmup):
        pairs, small = (5, 1) if warmup else (self.pairs, self.small)
        return ["raic", "--n", str(self.n), "--k", str(self.k), "--m", str(self.m),
                "--delta", str(self.delta), "--pairs", str(pairs), "--small-pairs", str(small),
                "--max-j", str(self.k), "--seed", str(seed)]

    def check(self, i, code):
        if code != 0:
            return Outcome(self.pairs, self.pairs, f"exit {code}", {}, 0)
        raw = (self.out / "raic_summary.json").read_bytes()
        summary = json.loads(raw)
        failed = int(summary["n_violations"])
        if summary["n_pairs"] != self.pairs:
            failed = self.pairs
        return Outcome(
            self.pairs,
            failed,
            _sha(raw),
            {"raic_worst_ratio": summary["worst_ratio"]},
            _dir_bytes(self.out),
        )


class Validate(_CliWorkload):
    """``bitsense validate``: the default Monte Carlo battery."""

    name = "validate"
    one_seed = True
    items_per_call = 9  # rows of the default battery

    def argv(self, seed, warmup):
        argv = ["validate", "--seed", str(seed)]
        return argv + ["--break-sgn-zero"] if self.fault else argv

    def check(self, i, code):
        if code not in (0, 1):
            return Outcome(self.items_per_call, self.items_per_call, f"exit {code}", {}, 0)
        report = json.loads((self.out / "validators.json").read_text())
        rows = int(report["n_validators"])
        failed = int(report["n_failed"])
        if (code != 0) != (failed > 0):
            failed = rows
        return Outcome(
            rows,
            failed,
            _sha((self.out / "validators.csv").read_bytes()),
            {},
            _dir_bytes(self.out),
        )


class Solve:
    """``run_biht`` without truth on a few fixed matrices built in set-up."""

    name = "solve"
    items_per_call = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool, fault: bool = False):
        self.seed = seed
        self.n, self.k, self.m, self.matrices, self.signals, self.iters = (
            (40, 3, 500, 2, 4, 5) if smoke else (200, 5, 10000, 4, 25, 30)
        )
        self.base = SeedSpec(derive_int(self.name, seed))
        self.pool = []

    def setup(self):
        self.pool = []  # drop the previous set-up's matrices before rebuilding
        for j in range(self.matrices):
            A = core.gaussian_matrix(self.m, self.n, derive_seed(self.base, j))
            for s in range(self.signals):
                x = core.random_sparse_unit(
                    self.n, self.k, derive_seed(self.base, 1000 + j * self.signals + s)
                )
                self.pool.append((A, x, core.sign_measure(A, x.values)))
        self.call(-1)

    def call_seed(self, i):
        return i

    def _config(self, i):
        init = derive_seed(derive_seed(self.base, 2**32), i + 1)
        return biht.BIHTConfig(k=self.k, max_iters=self.iters, init=init)

    def call(self, i):
        A, _, b = self.pool[i % len(self.pool)]
        return biht.run_biht(A, b, self._config(i))

    def check(self, i, traj):
        truth = self.pool[i % len(self.pool)][1].values
        final = np.asarray(traj.final.values, dtype=np.float64)
        ok = (
            np.count_nonzero(final) <= self.k
            and abs(float(np.linalg.norm(final)) - 1.0) <= core.UNIT_NORM_TOL
            and len(traj.iterates) == self.iters + 1
        )
        d_s = float(np.linalg.norm(final / np.linalg.norm(final) - truth))
        return Outcome(
            1,
            0 if ok else 1,
            _sha(np.asarray(traj.mismatch, dtype=np.int64).tobytes()),
            {"final_d_s_mean": d_s},
            0,
        )


WORKLOADS = {w.name: w for w in (Converge, Solve, Certify, Validate)}
