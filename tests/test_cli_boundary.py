"""The CLI boundary, built from `cli.SETTINGS`.

Each setting of each subcommand is passed as a flag and as a config entry,
at edge values.  Every call either exits 2, names the setting on stderr and
writes nothing, or exits 0 and writes the subcommand's files.  Which values
a setting accepts is listed in ACCEPTED; every other value must exit 2.
The other settings are kept tiny, so an accepted value runs in a few
milliseconds (``validate``'s battery has fixed sizes and runs in about
0.2 s).
"""

import json
import math
import re

import pytest

from bitsense import cli

# A fraction for a count, and an in-range value for the float settings.
FRACTION = 0.5
EDGES = [0, -1, math.nan, math.inf, -math.inf, FRACTION, True, None, "abc"]
# 2**64 only where it starts no work: a seed, or a size that must be refused
# before anything is drawn.  At 2**64, trials or iters could start that much.
BIG = 2**64
BIG_OK = {"seed", "n", "m", "k"}
# A JSON integer past float64's range, as a config entry of a float setting
# only; a count set to it could start that much work.
HUGE = 10**400

# The settings of a call besides the one under test, small enough that a
# call that is accepted finishes at once.
TINY = {
    "run": {"n": 6, "k": 2, "m": 40, "trials": 1, "iters": 2},
    "raic": {"n": 6, "k": 2, "m": 40, "pairs": 3},
    "validate": {},
    "theory": {},
    "generate": {"n": 6, "k": 2, "m": 4},
}

# The files each subcommand writes, in its output directory (``generate``:
# the one file named by --out).
OUTPUTS = {
    "run": {"trajectory.csv", "summary.json"},
    "raic": {"raic_report.csv", "raic_summary.json"},
    "validate": {"validators.csv", "validators.json"},
    "theory": set(),
    "generate": {"x.csv"},
}

# (command, setting) -> the edge values it accepts, by flag and by config.
# A config null keeps the default of a setting whose default is None.
ACCEPTED = {
    ("run", "eta"): {FRACTION},
    ("run", "seed"): {0},
    ("raic", "delta"): {FRACTION},
    ("raic", "small_pairs"): {0},
    ("raic", "max_j"): {0},
    ("raic", "seed"): {0},
    ("validate", "seed"): {0},
    ("theory", "epsilon"): {FRACTION},
    ("theory", "rho"): {FRACTION},
    ("theory", "n"): {BIG},  # a dimension in a formula; nothing is drawn
    ("generate", "seed"): {0},
}
ACCEPTED_AS_CONFIG = {("raic", "small_pairs"): {None}, ("raic", "max_j"): {None}}


def _spelling(value):
    """A value as a command-line word."""
    return "null" if value is None else str(value)


def _same(a, b):
    return a is b or (type(a) is type(b) and a == b)


def _cases():
    for command, table in cli.SETTINGS.items():
        for key, default in table.items():
            values = EDGES + ([BIG] if key in BIG_OK else [])
            for way in ("flag", "config"):
                huge = [HUGE] if way == "config" and isinstance(default, float) else []
                for value in values + huge:
                    spelled = "10**400" if value is HUGE else _spelling(value)
                    yield pytest.param(command, key, way, value,
                                       id=f"{command}-{key}-{way}-{spelled}")


def _accepted(command, key, way, value):
    allowed = ACCEPTED.get((command, key), set())
    if way == "config":
        allowed = allowed | ACCEPTED_AS_CONFIG.get((command, key), set())
    return any(_same(value, a) for a in allowed)


@pytest.mark.parametrize("command, key, way, value", list(_cases()))
def test_setting_at_an_edge_value(tmp_path, capsys, command, key, way, value):
    settings = {k: v for k, v in TINY[command].items() if k != key}
    # k is read only for a signal, m only for a matrix.
    what = "signal" if key == "k" else "matrix"
    argv = [command]
    for k, v in settings.items():
        argv.append(f"--{k.replace('_', '-')}={v}")
    flag = "--" + key.replace("_", "-")
    if way == "flag":
        argv.append(f"{flag}={_spelling(value)}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    if command == "generate":
        out.mkdir()
        argv += ["--what", what, "--out", str(out / "x.csv")]
    elif command != "theory":
        argv += ["--output-dir", str(out)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    written = {p.name for p in out.iterdir()} if out.exists() else set()
    if _accepted(command, key, way, value):
        assert code == 0, err
        assert written == OUTPUTS[command]
    else:
        assert code == 2
        assert re.search(rf"(?<![\w-])({re.escape(flag)}|{key})(?![\w-])", err), err
        assert not written
        assert command == "generate" or not out.exists()


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
@pytest.mark.parametrize(
    "command, key",
    [pytest.param(c, k, id=f"{c}-{k}") for c, table in cli.SETTINGS.items() for k in table],
)
def test_config_integer_past_the_conversion_limit(tmp_path, capsys, command, key, sign):
    # json.load itself used to refuse it, with Python's int-conversion
    # message, which names no setting and quotes the digits.
    digits = "1" + "0" * 5000
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": {sign}{digits}}}')
    out = tmp_path / "out"
    argv = [command, "--config", str(config)]
    if command == "generate":
        argv += ["--what", "matrix", "--out", str(out / "x.csv")]
    elif command != "theory":
        argv += ["--output-dir", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config key '{key}' holds an integer of 5001 digits" in err, err
    assert "00000" not in err
    assert not out.exists()
