"""Command-line front end.

Subcommands:

* ``run``       solver trials on synthetic instances -> trajectory CSV + JSON
* ``raic``      sampled invertibility certificate -> report CSV + JSON
* ``validate``  Monte Carlo validator battery -> CSV + JSON, exit 1 on failure
* ``theory``    constants, sample complexity, and the error-bound table
* ``generate``  write a Gaussian matrix or sparse signal to file

Every subcommand is deterministic under ``--seed``.  Flags override the JSON
config file given with ``--config``, which overrides built-in defaults; a
config key that is not a setting of the subcommand is a usage error.  Trials
run one after another; the only parallel layer is the sampler, which spreads
long requests (a whole measurement matrix, a validator block) over a thread
pool with one worker per usable CPU and gives the same values as one serial
pass.  On 2 cores at the acceptance config (n=200 k=5 m=10000, 50 trials,
T=12) ``run`` took 3.8-4.3 s with default OpenBLAS threading and 2.9-3.7 s
with ``OPENBLAS_NUM_THREADS=1``, at 75 MB peak RSS.

Exit codes: 0 success; 1 I/O failure, a failed validator (``validate``) or a
per-iteration error bound violated beyond rounding slack (``run``, which then
writes nothing); 2 usage error, including sizes ``run`` cannot use.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import biht, core, montecarlo, raic, theory
from .rng import SeedSpec, derive_seed


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve(args, config, defaults):
    """Merged settings: CLI flag > config file entry > default.

    Config entries of float settings take JSON numbers, all others (counts,
    whose default is an int or None) JSON integers; a bool is neither."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    merged = dict(defaults)
    for key, value in config.items():
        kind = float if isinstance(defaults[key], float) else int
        if value is None and defaults[key] is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            wanted = "a number" if kind is float else "an integer"
            raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")
        merged[key] = kind(value)
    for key in defaults:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    settings = _resolve(
        args,
        _load_config(args.config),
        {
            "n": 200,
            "k": 5,
            "m": 5000,
            "trials": 25,
            "iters": 15,
            "eta": math.sqrt(2.0 * math.pi),
            "seed": 0,
        },
    )
    # Sizes are checked and every trial runs before the output directory is
    # made, so a bad size or a violated error bound leaves no files behind.
    trajectories = montecarlo.convergence_trials(
        settings["n"],
        settings["k"],
        settings["m"],
        settings["trials"],
        settings["iters"],
        SeedSpec(settings["seed"]),
        eta=settings["eta"],
    )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    biht.write_trajectory_csv(out / "trajectory.csv", trajectories)
    finals = [traj.error_ds[-1] for traj in trajectories]
    worst_slack = min(
        (
            traj.lemma1_rhs[t] - traj.error_ds[t]
            for traj in trajectories
            for t in range(1, len(traj.iterates))
        )
    )
    _write_json(
        out / "summary.json",
        {
            **{key: settings[key] for key in ("n", "k", "m", "trials", "iters", "eta", "seed")},
            "final_mean_d_s": float(np.mean(finals)),
            "final_max_d_s": float(np.max(finals)),
            "min_error_bound_slack": worst_slack,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# raic


def cmd_raic(args) -> int:
    settings = _resolve(
        args,
        _load_config(args.config),
        {
            "n": 200,
            "k": 5,
            "m": 5000,
            "delta": 0.01,
            "pairs": 500,
            "small_pairs": None,  # certifier default: one fifth of pairs
            "max_j": None,
            "seed": 0,
        },
    )
    max_j = settings["max_j"] if settings["max_j"] is not None else settings["k"]
    base = SeedSpec(settings["seed"])
    A = core.gaussian_matrix(settings["m"], settings["n"], derive_seed(base, 0))
    # Certify before creating the output directory: bad settings leave no files.
    report = raic.raic_certify(
        A,
        settings["k"],
        settings["delta"],
        settings["pairs"],
        max_j,
        derive_seed(base, 1),
        num_small=settings["small_pairs"],
    )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "raic_report.csv")
    report.to_json(out / "raic_summary.json")
    return 0


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    settings = _resolve(args, _load_config(args.config), {"seed": 0})
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = montecarlo.run_validator_suite(
        SeedSpec(settings["seed"]), break_sgn_zero=args.break_sgn_zero
    )
    montecarlo.write_validator_csv(out / "validators.csv", rows)
    _write_json(
        out / "validators.json",
        {
            "n_validators": len(rows),
            "n_failed": sum(1 for r in rows if not r.passed),
            "failed": [r.name for r in rows if not r.passed],
        },
    )
    failed = [r for r in rows if not r.passed]
    if failed:
        for r in failed:
            print(
                f"FAIL {r.name}: estimate={r.estimate!r} theory={r.theory!r} z={r.z!r}",
                file=sys.stderr,
            )
        return 1
    return 0


# ---------------------------------------------------------------------------
# theory


def cmd_theory(args) -> int:
    settings = _resolve(
        args,
        _load_config(args.config),
        {"epsilon": 0.1, "rho": 0.1, "k": 5, "n": 1000},
    )
    try:
        m = theory.sample_complexity(
            settings["epsilon"], settings["rho"], settings["k"], settings["n"]
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    u = theory.constants()
    print("name,value")
    for name in ("a", "b", "c", "c1", "c2"):
        print(f"{name},{getattr(u, name)!r}")
    print(f"m,{m}")
    print()
    print("t,epsilon_t,closed_form")
    for t in range(21):
        print(
            f"{t},{theory.epsilon_recurrence(settings['epsilon'], t)!r},"
            f"{theory.closed_form_bound(settings['epsilon'], t)!r}"
        )
    return 0


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    settings = _resolve(
        args,
        _load_config(args.config),
        {"n": 200, "k": 5, "m": 5000, "seed": 0},
    )
    base = SeedSpec(settings["seed"])
    if args.what == "matrix":
        data = core.gaussian_matrix(settings["m"], settings["n"], derive_seed(base, 0)).entries
    else:
        data = core.random_sparse_unit(settings["n"], settings["k"], derive_seed(base, 1)).values
        data = data.reshape(1, -1)
    if args.format == "csv":
        core.save_matrix_csv(args.out, data)
    else:
        core.save_matrix_binary(args.out, data)
    return 0


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--seed", type=int, help="base seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitsense",
        description="One-bit compressed sensing: solver runs, invertibility "
        "certification, Monte Carlo validation, and theory tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run solver trials and write trajectories")
    _add_common(p_run)
    p_run.add_argument("--n", type=int, help="signal dimension")
    p_run.add_argument("--k", type=int, help="sparsity")
    p_run.add_argument("--m", type=int, help="measurement count")
    p_run.add_argument("--trials", type=int, help="number of independent trials")
    p_run.add_argument("--iters", type=int, help="solver iterations per trial")
    p_run.add_argument("--eta", type=float, help="step size (default sqrt(2 pi))")
    p_run.add_argument("--output-dir", default=".", help="directory for output files")
    p_run.set_defaults(func=cmd_run)

    p_raic = sub.add_parser("raic", help="sampled invertibility certificate")
    _add_common(p_raic)
    p_raic.add_argument("--n", type=int)
    p_raic.add_argument("--k", type=int)
    p_raic.add_argument("--m", type=int)
    p_raic.add_argument("--delta", type=float, help="resolution of the certificate")
    p_raic.add_argument("--pairs", type=int, help="sampled vector pairs")
    p_raic.add_argument("--small-pairs", dest="small_pairs", type=int,
                        help="pairs forced below the small-distance threshold")
    p_raic.add_argument("--max-j", dest="max_j", type=int,
                        help="cap on |J| (default k; 2k probes the wider restriction)")
    p_raic.add_argument("--output-dir", default=".")
    p_raic.set_defaults(func=cmd_raic)

    p_val = sub.add_parser("validate", help="run the Monte Carlo validator battery")
    _add_common(p_val)
    p_val.add_argument("--output-dir", default=".")
    p_val.add_argument("--break-sgn-zero", action="store_true",
                       help="fault injection: corrupt the sign convention so the "
                            "mismatch validators must fail (self-test)")
    p_val.set_defaults(func=cmd_validate)

    p_theory = sub.add_parser("theory", help="print constants and bound tables")
    _add_common(p_theory)
    p_theory.add_argument("--epsilon", type=float)
    p_theory.add_argument("--rho", type=float)
    p_theory.add_argument("--k", type=int)
    p_theory.add_argument("--n", type=int)
    p_theory.set_defaults(func=cmd_theory)

    p_gen = sub.add_parser("generate", help="write a matrix or signal to file")
    _add_common(p_gen)
    p_gen.add_argument("--what", choices=("matrix", "signal"), required=True)
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.add_argument("--format", choices=("csv", "bin"), default="csv")
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except montecarlo.ErrorBoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # domain violation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
