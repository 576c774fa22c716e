import json

import numpy as np
import pytest

from bitsense import biht, cli, core, montecarlo
from bitsense.core import random_sparse_unit
from bitsense.rng import SeedSpec, derive_seed
from bitsense.theory import epsilon_recurrence, sample_complexity


def run_cli(argv):
    return cli.main(argv)


class TestRun:
    def test_writes_outputs(self, tmp_path):
        code = run_cli(
            [
                "run", "--n", "60", "--k", "3", "--m", "800", "--trials", "3",
                "--iters", "5", "--seed", "7", "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        csv = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "trial,iter,d_s,mismatch_L,lemma1_rhs"
        assert len(csv) == 1 + 3 * 6
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["trials"] == 3
        assert summary["min_error_bound_slack"] >= -1e-9

    def test_byte_identical_reruns(self, tmp_path):
        args = ["run", "--n", "50", "--k", "3", "--m", "600", "--trials", "2",
                "--iters", "4", "--seed", "11"]
        run_cli(args + ["--output-dir", str(tmp_path / "a")])
        run_cli(args + ["--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 50, "k": 3, "m": 600, "trials": 5, "iters": 2}))
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--config", str(config), "--trials", "2", "--seed", "3",
             "--output-dir", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 2  # flag wins
        assert summary["n"] == 50  # config wins over default

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trials", "0"],
            ["--iters", "0"],
            ["--m", "0"],
            ["--k", "0"],
            ["--k", "51", "--n", "50"],
        ],
    )
    def test_bad_sizes_rejected_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        base = ["run", "--n", "50", "--k", "3", "--m", "200", "--trials", "1", "--iters", "1"]
        code = run_cli(base + flags + ["--output-dir", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_rejected_before_writing(self, tmp_path, capsys, eta):
        out = tmp_path / "out"
        code = run_cli(["run", "--n", "50", "--k", "3", "--m", "200", "--trials", "1",
                        "--iters", "1", "--eta", eta, "--output-dir", str(out)])
        assert code == 2
        message = f"error: eta must be a finite number in (0, inf), got {eta}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_overflowing_eta_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--n", "40", "--k", "3", "--m", "500", "--trials", "2",
                        "--iters", "5", "--eta", "1e308", "--output-dir", str(out)])
        assert code == 2
        assert "eta=1e+308 is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"itres": 2}))
        out = tmp_path / "out"
        code = run_cli(["run", "--config", str(config), "--output-dir", str(out)])
        assert code == 2
        assert "itres" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.7, True, "2"])
    def test_non_integer_count_rejected(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": value}))
        out = tmp_path / "out"
        code = run_cli(["run", "--config", str(config), "--output-dir", str(out)])
        assert code == 2
        assert "'trials' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_error_bound_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        # A zero residual makes every bound 0, below any nonzero error.
        monkeypatch.setattr(biht, "restricted_residual", lambda *args, **kwargs: 0.0)
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--n", "50", "--k", "3", "--m", "600", "--trials", "2",
             "--iters", "4", "--seed", "11", "--output-dir", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error bound violated" in err
        assert "iter=1" in err and "slack=-" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_violation_in_a_later_trial_exits_1(self, tmp_path, capsys, monkeypatch):
        # Trials 1 and 3 of 4 violate their bound; they run on the pool, and
        # the first of them in trial order is the one reported.
        base = SeedSpec(11)
        truths = {i: random_sparse_unit(50, 3, derive_seed(derive_seed(base, i), 0)).values
                  for i in (1, 3)}
        residual = biht.restricted_residual

        def failing(x, *args):
            bad = any(np.array_equal(x, t) for t in truths.values())
            return 0.0 if bad else residual(x, *args)

        monkeypatch.setattr(biht, "restricted_residual", failing)
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--n", "50", "--k", "3", "--m", "600", "--trials", "4",
             "--iters", "4", "--seed", "11", "--output-dir", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"(seed={derive_seed(base, 1)!r})" in err
        assert repr(derive_seed(base, 3)) not in err
        assert not out.exists()

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--bogus", "1"])
        assert exc.value.code == 2


class TestRaic:
    def test_report_files(self, tmp_path):
        code = run_cli(
            ["raic", "--n", "60", "--k", "4", "--m", "800", "--delta", "0.05",
             "--pairs", "30", "--small-pairs", "10", "--seed", "5",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "raic_summary.json").read_text())
        assert "worst_ratio" in summary
        assert summary["n_pairs"] == 30
        lines = (tmp_path / "raic_report.csv").read_text().splitlines()
        regimes = {line.split(",")[2] for line in lines[1:]}
        assert regimes == {"small", "large"}

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pairs": 10, "pair": 3}))
        code = run_cli(["raic", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "pair" in capsys.readouterr().err
        assert not (tmp_path / "raic_report.csv").exists()

    def test_non_integer_max_j_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_j": 2.5}))
        out = tmp_path / "out"
        code = run_cli(["raic", "--config", str(config), "--output-dir", str(out)])
        assert code == 2
        assert "'max_j' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--k", "0"], "k"),
            (["--pairs", "5", "--small-pairs", "9"], "num_small"),
            (["--pairs", "0"], "pairs"),
            (["--delta", "1.5"], "delta"),
            (["--pairs", "5", "--small-pairs", "-1"], "num_small"),
        ],
    )
    def test_bad_settings_rejected_before_writing(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        base = ["raic", "--n", "40", "--m", "200"]
        code = run_cli(base + flags + ["--output-dir", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["-1", "41"])
    def test_k_outside_one_to_n_is_blamed_on_k(self, tmp_path, capsys, k):
        # max_j defaults to k, so a bad k must be caught before max_j is.
        out = tmp_path / "out"
        code = run_cli(["raic", "--n", "40", "--m", "200", "--k", k, "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: k must be an integer in [1, 40], got {k}\n" == err
        assert "max_j" not in err
        assert not out.exists()

    def test_zero_pairs_rejected(self, tmp_path, capsys):
        code = run_cli(
            ["raic", "--pairs", "0", "--output-dir", str(tmp_path)]
        )
        assert code == 2
        assert "pairs" in capsys.readouterr().err


class TestValidate:
    def test_all_pass(self, tmp_path):
        code = run_cli(["validate", "--seed", "0", "--output-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "validators.csv").read_text().splitlines()
        assert len(lines) == 1 + 9  # one row per validator
        payload = json.loads((tmp_path / "validators.json").read_text())
        assert payload["n_failed"] == 0

    def test_fault_injection_fails(self, tmp_path, capsys):
        code = run_cli(
            ["validate", "--seed", "0", "--break-sgn-zero", "--output-dir", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL mismatch_theta" in err

    def test_bad_seed_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["validate", "--seed", "-1", "--output-dir", str(out)])
        assert code == 2
        message = "seed field base_seed must be an integer in [0, 18446744073709551615], got -1"
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTheory:
    def test_table(self, capsys):
        code = run_cli(["theory", "--epsilon", "0.25", "--rho", "0.1", "--k", "5", "--n", "1000"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        m_lines = [line for line in out if line.startswith("m,")]
        assert int(m_lines[0].split(",")[1]) == sample_complexity(0.25, 0.1, 5, 1000)
        table_start = out.index("t,epsilon_t,closed_form")
        first = out[table_start + 1].split(",")
        assert first[0] == "0" and float(first[1]) == 2.0
        last = out[table_start + 21].split(",")
        assert last[0] == "20"
        assert float(last[1]) == epsilon_recurrence(0.25, 20)
        # by t = 20 the envelope has essentially collapsed onto epsilon
        assert abs(float(last[2]) - 0.25) <= 2e-6 * 0.25

    def test_domain_error_exit_code(self, capsys):
        code = run_cli(["theory", "--epsilon", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("epsilon", ["1e-305", "5e-324"])
    def test_overflowing_sample_complexity_exits_2(self, capsys, epsilon):
        code = run_cli(["theory", "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 2
        assert "epsilon" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_seed_is_usage_error(self, tmp_path):
        # theory draws nothing, so a seed is no setting of it, by flag or config.
        with pytest.raises(SystemExit) as exc:
            run_cli(["theory", "--seed", "5"])
        assert exc.value.code == 2
        config = tmp_path / "theory.json"
        config.write_text(json.dumps({"seed": 5}))
        assert run_cli(["theory", "--config", str(config)]) == 2


class TestGenerate:
    def test_matrix_csv(self, tmp_path):
        out = tmp_path / "mat.csv"
        code = run_cli(
            ["generate", "--what", "matrix", "--m", "6", "--n", "4",
             "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        assert np.loadtxt(out, delimiter=",", ndmin=2).shape == (6, 4)

    def test_signal_binary(self, tmp_path):
        out = tmp_path / "sig.bin"
        code = run_cli(
            ["generate", "--what", "signal", "--format", "bin", "--n", "30",
             "--k", "4", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        raw = out.read_bytes()  # magic, u32 m, u32 n, then m * n float64
        assert raw[:4] == b"B1CS"
        assert np.frombuffer(raw[4:12], dtype="<u4").tolist() == [1, 30]
        sig = np.frombuffer(raw[12:], dtype="<f8")
        assert sig.size == 30
        assert np.count_nonzero(sig) <= 4
        assert abs(np.linalg.norm(sig) - 1.0) <= 1e-9

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["generate", "--what", "matrix", "--m", "5", "--n", "3",
                     "--seed", "4", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_what_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["generate", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_io_failure_reports_error(self, tmp_path, capsys):
        code = run_cli(
            ["generate", "--what", "matrix", "--m", "2", "--n", "2",
             "--seed", "1", "--out", str(tmp_path / "nodir" / "x.csv")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("what, key, sizes", [
        ("matrix", "m", ["--m", str(2**32), "--n", "1"]),
        ("matrix", "n", ["--m", "1", "--n", str(2**32)]),
        ("signal", "n", ["--n", str(2**32), "--k", "1"]),
    ])
    def test_binary_refuses_a_size_its_header_cannot_hold(self, tmp_path, capsys, what, key,
                                                          sizes):
        # The header holds m and n as u32.  Refused before the draw of 2^32
        # normals (32 GiB), naming the setting, with no file written.
        out = tmp_path / "big.bin"
        code = run_cli(["generate", "--what", what, "--format", "bin", *sizes, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert f"{key}={2**32} " in capsys.readouterr().err



@pytest.mark.parametrize("argv, module, allocation", [
    (["run", "--n", "40", "--k", "2", "--m", "30", "--trials", "1", "--iters", "1"],
     montecarlo, "dense_scratch"),
    (["raic", "--n", "40", "--m", "30", "--pairs", "2"], core, "sample_standard_normal"),
    (["generate", "--what", "signal", "--n", "40", "--k", "1"], core, "random_sparse_unit_rows"),
])
def test_sizes_that_do_not_fit_in_memory_exit_2(tmp_path, capsys, monkeypatch, argv, module,
                                                allocation):
    # Sizes that pass the shape checks can still ask for more memory than
    # there is (n = 2^40 asks for 8 TiB).  The allocation is made to fail
    # here, at small sizes, in place of a real one.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(module, allocation, out_of_memory)
    out = tmp_path / "out"
    flag = "--out" if argv[0] == "generate" else "--output-dir"
    assert run_cli([*argv, flag, str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 8.00 TiB for an array\n"
    assert not out.exists()

def test_write_csv_formats_each_cell(tmp_path):
    # Floats by repr, np.float64 too; bools, np.bool_ too, as true/false;
    # anything else by str.  LF line ends, and no header line for None.
    out = tmp_path / "t.csv"
    rows = [(np.float64(0.1), np.bool_(True)), (1 / 3, False), (7, "x"), (np.int64(-2), None)]
    cli._write_csv(out, ("a", "b"), rows)
    assert out.read_bytes() == b"a,b\n0.1,true\n0.3333333333333333,false\n7,x\n-2,None\n"
    cli._write_csv(out, None, [[-0.0, float("nan"), float("inf")]])
    assert out.read_bytes() == b"-0.0,nan,inf\n"


# Arguments a subcommand needs whatever its settings.
REQUIRED = {"generate": ["--what", "matrix", "--out", "unused.csv"]}


def _other_value(default):
    """A value of the setting's type that is not its default."""
    if isinstance(default, float):
        return default / 2.0
    return 3 if default is None else default + 1


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, table in cli.SETTINGS.items() for key in table],
)
def test_flag_and_config_key_resolve_alike(tmp_path, command, key):
    value = _other_value(cli.SETTINGS[command][key])
    parser = cli.build_parser()
    required = REQUIRED.get(command, [])
    flag = "--" + key.replace("_", "-")
    by_flag = cli._resolve(parser.parse_args([command, flag, str(value), *required]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    by_config = cli._resolve(parser.parse_args([command, "--config", str(config), *required]))
    assert by_flag == by_config
    assert by_flag[key] == value and type(by_flag[key]) is type(value)


@pytest.mark.parametrize("command", sorted(cli.SETTINGS))
def test_help_lists_each_setting_and_its_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, default in cli.SETTINGS[command].items():
        assert "--" + key.replace("_", "-") in text
        if default is not None:
            assert f"(default: {default})" in text


def test_summary_holds_the_settings_and_the_results(tmp_path):
    code = run_cli(["run", "--n", "40", "--k", "2", "--m", "300", "--trials", "2",
                    "--iters", "3", "--seed", "4", "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    results = {"final_mean_d_s", "final_max_d_s", "min_error_bound_slack"}
    assert set(summary) == set(cli.SETTINGS["run"]) | results
    assert summary["n"] == 40 and summary["eta"] == cli.SETTINGS["run"]["eta"]
