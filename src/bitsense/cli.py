"""Command-line front end.

Subcommands:

* ``run``       solver trials on synthetic instances -> trajectory CSV + JSON
* ``raic``      sampled invertibility certificate -> report CSV + JSON
* ``validate``  Monte Carlo validator battery -> CSV + JSON, exit 1 on failure
* ``theory``    constants, sample complexity, and the error-bound table
* ``generate``  write a Gaussian matrix or sparse signal to file

Every subcommand is deterministic; all but ``theory``, which draws nothing,
take ``--seed``.  Each subcommand's settings and their defaults are one
table in SETTINGS, from which its flags, its config keys and their types
come.  Flags override the JSON config file given with ``--config``, which
overrides the defaults; a config key that is not a setting of the
subcommand is a usage error.  ``run``, ``validate`` and ``raic`` share one
thread pool, with one worker per usable CPU, whose users `rng._map`
lists.  The outputs have the same bytes at any pool size.
``run``, ``validate`` and ``raic`` make their BLAS products on one thread,
whatever ``OPENBLAS_NUM_THREADS`` says (see `rng._one_blas_thread`).

The library modules return data; this module writes every file the package
writes, through `_write_csv`, `_write_json` and `generate`'s binary layout.

Exit codes: 0 success; 1 I/O failure, a failed validator (``validate``) or a
per-iteration error bound violated beyond rounding slack (``run``, which then
writes nothing); 2 usage error, including sizes ``run`` cannot use and sizes
that do not fit in memory (``run``, ``raic`` and ``generate`` allocate before
they write, so they then write nothing).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import core, montecarlo, raic, theory
from .rng import SeedSpec, derive_seed


# Each subcommand's settings and their defaults.  A setting ``name`` is the
# flag ``--name`` (dashes for underscores) and the config key ``name``; it
# is a float when its default is a float and an integer otherwise (a None
# default is the subcommand's own choice, named in its help).
SETTINGS = {
    "run": {"n": 200, "k": 5, "m": 5000, "trials": 25, "iters": 15,
            "eta": raic.DEFAULT_ETA, "seed": 0},
    "raic": {"n": 200, "k": 5, "m": 5000, "delta": 0.01, "pairs": 500,
             "small_pairs": None, "max_j": None, "seed": 0},
    "validate": {"seed": 0},
    "theory": {"epsilon": 0.1, "rho": 0.1, "k": 5, "n": 1000},  # no randomness to seed
    "generate": {"n": 200, "k": 5, "m": 5000, "seed": 0},
}

_HELP = {
    "n": "signal dimension",
    "k": "sparsity",
    "m": "measurement count",
    "trials": "number of independent trials",
    "iters": "solver iterations per trial",
    "eta": "step size; the theory's is sqrt(2 pi)",
    "seed": "base seed",
    "delta": "resolution of the certificate",
    "pairs": "sampled vector pairs",
    "small_pairs": "pairs forced below the small-distance threshold "
    "(default: one fifth of pairs)",
    "max_j": "cap on |J| (default: k; 2k probes the wider restriction)",
    "epsilon": "target recovery error",
    "rho": "failure probability",
}


def _kind(default):
    return float if isinstance(default, float) else int


class _LongInteger:
    """A JSON integer with more digits than Python converts from text; it
    stands in for the value so that the error can name the setting."""

    def __init__(self, text):
        self.digits = len(text.lstrip("-"))

    def __repr__(self):
        return f"an integer of {self.digits} digits"


def _integer_or_long(text):
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh, parse_int=_integer_or_long)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve(args):
    """The subcommand's settings: CLI flag > config file entry > default.

    Config entries of float settings take JSON numbers, all others (counts,
    whose default is an int or None) JSON integers; a bool is neither."""
    defaults = SETTINGS[args.command]
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    merged = dict(defaults)
    for key, value in config.items():
        kind = _kind(defaults[key])
        if value is None and defaults[key] is None:
            continue
        if isinstance(value, _LongInteger):
            raise ValueError(f"config key {key!r} holds {value!r}, more than the "
                             f"{sys.get_int_max_str_digits()} Python reads")
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            wanted = "a number" if kind is float else "an integer"
            raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")
        try:
            merged[key] = kind(value)
        except OverflowError:  # an integer past float64's range
            raise ValueError(f"config key {key!r} must be a number within float64's range, "
                             "got an integer too large for a float") from None
    for key in defaults:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return merged


# CSV: comma-separated, LF line ends, floats by repr (so they read back to
# the same float64), bools as true/false.  JSON: sorted keys, two-space
# indent, a final newline.


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too
        return repr(float(value))
    return str(value)


def _line(row) -> str:
    """One CSV line of ``row``'s cells, without its line end."""
    return ",".join(map(_cell, row))


def _write_csv(path, header, rows):
    """One line per row, after the ``header`` line unless it is None."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(_line(header) + "\n")
        for row in rows:
            fh.write(_line(row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    settings = _resolve(args)
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
    # One row per (trial, iteration); the bound at t = 0 is nan.
    _write_csv(
        out / "trajectory.csv",
        ("trial", "iter", "d_s", "mismatch_L", "lemma1_rhs"),
        (
            (trial, t, traj.error_ds[t], traj.mismatch[t], traj.lemma1_rhs[t])
            for trial, traj in enumerate(trajectories)
            for t in range(len(traj.iterates))
        ),
    )
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
            **settings,
            "final_mean_d_s": float(np.mean(finals)),
            "final_max_d_s": float(np.max(finals)),
            "min_error_bound_slack": worst_slack,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# raic


def cmd_raic(args) -> int:
    settings = _resolve(args)
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
    _write_csv(
        out / "raic_report.csv",
        ("pair_id", "d_s", "regime", "residual", "bound", "ratio"),
        ((r.pair_id, r.d_s, r.regime, r.residual, r.bound, r.ratio) for r in report.records),
    )
    _write_json(
        out / "raic_summary.json",
        {
            "delta": report.delta,
            "worst_ratio": report.worst_ratio,
            "n_pairs": report.samples,
            "n_violations": report.n_violations,
            "delta_hat": report.delta_hat,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    settings = _resolve(args)
    # Validate before creating the output directory: a bad seed leaves no files.
    rows = montecarlo.run_validator_suite(
        SeedSpec(settings["seed"]), break_sgn_zero=args.break_sgn_zero
    )
    failed = [r for r in rows if not r.passed]
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "validators.csv",
        ("name", "estimate", "theory", "se", "z", "pass"),
        ((r.name, r.estimate, r.theory, r.se, r.z, r.passed) for r in rows),
    )
    _write_json(
        out / "validators.json",
        {"n_validators": len(rows), "n_failed": len(failed), "failed": [r.name for r in failed]},
    )
    for r in failed:
        print(
            f"FAIL {r.name}: estimate={r.estimate!r} theory={r.theory!r} z={r.z!r}",
            file=sys.stderr,
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# theory


def cmd_theory(args) -> int:
    settings = _resolve(args)
    epsilon = settings["epsilon"]
    m = theory.sample_complexity(epsilon, settings["rho"], settings["k"], settings["n"])
    u = theory.constants()
    print("name,value")
    for name in ("a", "b", "c", "c1", "c2"):
        print(_line((name, getattr(u, name))))
    print(_line(("m", m)))
    print()
    print("t,epsilon_t,closed_form")
    for t in range(21):
        print(_line((t, theory.epsilon_recurrence(epsilon, t),
                     theory.closed_form_bound(epsilon, t))))
    return 0


# ---------------------------------------------------------------------------
# generate


# The binary layout, little-endian: b"B1CS" | u32 rows | u32 columns | the
# float64 entries, row-major.  A signal is one row.


def cmd_generate(args) -> int:
    settings = _resolve(args)
    if args.format == "bin":
        # Checked before the draw, which at such a size is 32 GiB or more.
        for key in ("m", "n") if args.what == "matrix" else ("n",):
            if settings[key] >= 2**32:
                raise ValueError(
                    f"{key}={settings[key]} is too large for --format bin, "
                    "whose header holds it as a u32"
                )
    base = SeedSpec(settings["seed"])
    if args.what == "matrix":
        data = core.gaussian_matrix(settings["m"], settings["n"], derive_seed(base, 0)).entries
    else:
        data = core.random_sparse_unit(settings["n"], settings["k"], derive_seed(base, 1)).values
        data = data.reshape(1, -1)
    if args.format == "csv":
        _write_csv(args.out, None, data.tolist())
    else:
        with open(args.out, "wb") as fh:
            fh.write(b"B1CS")
            fh.write(np.array(data.shape, dtype="<u4").tobytes())
            fh.write(data.astype("<f8").tobytes())
    return 0


# ---------------------------------------------------------------------------


def _add_settings(sub, command, func, summary):
    p = sub.add_parser(command, help=summary)
    p.add_argument("--config", help="JSON config file; flags override its entries")
    for key, default in SETTINGS[command].items():
        text = _HELP[key] if default is None else f"{_HELP[key]} (default: {default})"
        p.add_argument("--" + key.replace("_", "-"), type=_kind(default), help=text)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitsense",
        description="One-bit compressed sensing: solver runs, invertibility "
        "certification, Monte Carlo validation, and theory tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_help = "directory for output files (default: .)"

    p_run = _add_settings(sub, "run", cmd_run, "run solver trials and write trajectories")
    p_run.add_argument("--output-dir", default=".", help=out_help)

    p_raic = _add_settings(sub, "raic", cmd_raic, "sampled invertibility certificate")
    p_raic.add_argument("--output-dir", default=".", help=out_help)

    p_val = _add_settings(sub, "validate", cmd_validate, "run the Monte Carlo validator battery")
    p_val.add_argument("--output-dir", default=".", help=out_help)
    p_val.add_argument("--break-sgn-zero", action="store_true",
                       help="fault injection: corrupt the sign convention so the "
                            "mismatch validators must fail (self-test)")

    _add_settings(sub, "theory", cmd_theory, "print constants and bound tables")

    p_gen = _add_settings(sub, "generate", cmd_generate, "write a matrix or signal to file")
    p_gen.add_argument("--what", choices=("matrix", "signal"), required=True)
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.add_argument("--format", choices=("csv", "bin"), default="csv",
                       help="file format (default: csv)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except montecarlo.ErrorBoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:  # domain violation, or sizes too large
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
