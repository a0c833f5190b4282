import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import __version__, brownian, cli, coupling, dpsolver, oracle, walkdist


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestSolveCommand:
    def test_subcritical_geometric(self, capsys):
        code, out = run_cli(
            ["solve", "--p", "2/5", "--N", "10", "--reward", "geometric:1/2"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["optimal_value"] == rep["value_tau0"]
        assert rep["optimal_value"]["mode"] == "exact"
        assert rep["unique"] == "UNIQUE_TAU0"
        assert rep["tool_version"]

    def test_counterexample(self, capsys):
        code, out = run_cli(
            ["solve", "--p", "1/2", "--N", "2", "--reward", "table:1,1,0"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["optimal_value"]["value"] == "1"
        assert [1, 0, "TIE"] in rep["policy"] or [1, 0, "STOP"] in rep["policy"]
        assert [1, 1, "STOP"] in rep["policy"]

    def test_float_probability_rejected(self, capsys):
        code, _ = run_cli(["solve", "--p", "0.4", "--N", "3", "--reward", "geometric:1/2"], capsys)
        assert code == 2

    def test_bad_reward_rejected(self, capsys):
        code, _ = run_cli(["solve", "--p", "1/2", "--N", "3", "--reward", "wat:1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("extra", [["solve"], ["evaluate", "--policy", "tauN"]])
    @pytest.mark.parametrize("reward", ["exp_decay:1.0", "power:0.5", "piecewise:0=1,2=0"])
    def test_non_rational_reward_is_config_error(self, extra, reward, capsys):
        code = cli.main(extra + ["--p", "1/2", "--N", "3", "--reward", reward])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "configuration error" in captured.err and "not rational" in captured.err

    @pytest.mark.parametrize(
        "reward", ["table:1/0,1,0", "linear:1/0", "geometric:1/0", "exp_decay_table:1/0"]
    )
    def test_zero_denominator_reward_is_config_error(self, reward, capsys):
        code = cli.main(["solve", "--p", "1/2", "--N", "3", "--reward", reward])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot parse reward {reward!r}")

    @pytest.mark.parametrize("N", ["3", "800"])
    def test_nonpositive_exp_decay_table_is_config_error(self, N, capsys):
        code = cli.main(["solve", "--p", "1/2", "--N", N, "--reward", "exp_decay_table:-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "exp_decay_table needs a finite sigma > 0" in captured.err

    def test_reward_too_short_is_config_error(self, capsys):
        code = cli.main(["solve", "--p", "1/2", "--N", "3", "--reward", "table:1,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error: reward must be defined on 0..3")

    def test_library_value_error_is_internal_error(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("boom")

        for command, module, name in [("solve", dpsolver, "solve"),
                                      ("oracle", oracle, "enumerate_optimum")]:
            monkeypatch.setattr(module, name, fail)
            code = cli.main([command, "--p", "1/2", "--N", "3", "--reward", "geometric:1/2"])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err == "internal error: boom\n"

    def test_any_library_exception_is_internal_error(self, capsys, monkeypatch):
        """Exit 1 is kept for a failed theorem check: an exception other than
        ValueError exits 3 too."""
        def fail(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(dpsolver, "solve", fail)
        code = cli.main(["solve", "--p", "1/2", "--N", "3", "--reward", "geometric:1/2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: float division by zero\n"

    def test_exp_decay_table_beyond_float_range_is_config_error(self, capsys):
        """float(sigma) overflowed and escaped as a traceback with exit 1."""
        reward = "exp_decay_table:1e400"
        code = cli.main(["solve", "--p", "1/2", "--N", "3", "--reward", reward])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"configuration error: cannot parse reward {reward!r}: "
            "exp_decay_table needs a finite sigma > 0"
        )

    def test_large_report_bytes_frozen(self, tmp_path):
        """Report bytes at N = 90, as the Fraction-based joint-law solver wrote them."""
        target = tmp_path / "r.json"
        argv = ["solve", "--p", "2/5", "--N", "90", "--reward", "geometric:1/2"]
        assert cli.main(["--output", str(target)] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "09f93e0b7b2ab20a7c0468c16d8a94b9a9a12a7445e890e87fa95b26a8a25bd8"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (  # TIE_CLASS: 300 tie states after a listing of 45,451 states
                ["solve", "--p", "1/2", "--N", "300", "--reward", "geometric:1/2"],
                "d8540cfa9ab8803b508476818d5fb63b72c20fcae63934b791e099a02f84a60c",
            ),
            (  # 1980 tie states off zero drawdown
                ["solve", "--p", "2/5", "--N", "90", "--reward", "indicator_top"],
                "924018692e27434afba4b44a659c346ca3dec6d3b42a3acac9e9d855ca521967",
            ),
        ],
        ids=["tie-class-N300", "ties-off-zero-N90"],
    )
    def test_large_tie_report_bytes_frozen(self, argv, digest, tmp_path):
        """Report bytes with a long tie_states listing after the policy
        listing, as the replace-based splice wrote them."""
        target = tmp_path / "r.json"
        assert cli.main(["--output", str(target)] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "policy, digest",
        [
            ("tau0", "5f5f7db11aa1d969ad791031416e81ebef461dbfe9b227a46535740d0a898ba8"),
            ("tauN", "0774b17ca1fc1bba131e8a3361c66a65bc46cc8936f562428d41fb648f51d611"),
            ("stop-at-max", "4e01921e5d0199ad30266cae44697dce62a00b5fa275074af48d0284b1bfa5a0"),
        ],
        ids=["tau0", "tauN", "stop-at-max"],
    )
    def test_large_evaluate_bytes_frozen(self, policy, digest, tmp_path):
        """evaluate at N = 90 with a reward whose common denominator runs to
        about 1900 bits, as the full backward sweep wrote it."""
        target = tmp_path / "r.json"
        argv = ["evaluate", "--p", "4/7", "--N", "90", "--reward", "exp_decay_table:1/2",
                "--policy", policy]
        assert cli.main(["--output", str(target)] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (  # TIE states at zero drawdown
                ["solve", "--p", "1/2", "--N", "12", "--reward", "geometric:1/2"],
                "7fef7113cb7821ba23e42739443dbdbca0b30be37f509cb65517ce012a2e3043",
            ),
            (  # CONTINUE states
                ["solve", "--p", "3/5", "--N", "12", "--reward", "linear:12"],
                "c98576f3f6ef846d98fd476ff39edac5f27ac43d13929ae6fc7fcb53e4eac428",
            ),
            (  # 30 tie states off zero drawdown, (7, 6) and (8, 5) among them
                ["solve", "--p", "2/5", "--N", "12", "--reward", "indicator_top"],
                "ad4e4bd4e0a0ce62095b74c7f1a7fbd349272a3355a18753bfa362dbab95ef3d",
            ),
            (  # one state, no ties
                ["solve", "--p", "2/5", "--N", "0", "--reward", "indicator_top"],
                "6f9e7505d4e8a234da777ddfee82d3a548aeb9632bf22d7b06057bdcbfcd8724",
            ),
            (
                ["evaluate", "--p", "1/2", "--N", "12", "--reward", "geometric:1/2",
                 "--policy", "stop-at-max"],
                "6f8507c88b7f3882af04f23bbf4281be72eace80f3fb108e8019a42c1a7edc72",
            ),
        ],
        ids=["solve-tie", "solve-continue", "solve-ties-off-zero", "solve-N0",
             "evaluate-stop-at-max"],
    )
    def test_small_report_bytes_frozen(self, argv, digest, tmp_path):
        target = tmp_path / "r.json"
        assert cli.main(["--output", str(target)] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_policy_csv_bytes_frozen(self, tmp_path):
        target = tmp_path / "pol.csv"
        argv = ["solve", "--p", "1/2", "--N", "12", "--reward", "geometric:1/2",
                "--policy-csv", str(target)]
        assert cli.main(["--output", str(tmp_path / "r.json")] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "11da2ca539effc8e50c2b319f224a634984f3b4b5c525d0d1b61a623787b0afb"
        )

    def test_policy_csv_out(self, tmp_path, capsys):
        target = tmp_path / "pol.csv"
        code, _ = run_cli(
            [
                "solve", "--p", "1/2", "--N", "2", "--reward", "table:1,1,0",
                "--policy-csv", str(target),
            ],
            capsys,
        )
        assert code == 0
        assert target.read_text().splitlines()[0] == "k,z,decision"

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        code = cli.main(["--output", str(target), "solve", "--p", "1/2", "--N", "2",
                         "--reward", "geometric:1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot write {str(target)!r}")

    def test_unwritable_output_leaves_no_policy_csv(self, tmp_path, capsys):
        target, csv = tmp_path / "missing" / "r.json", tmp_path / "pc.csv"
        code = cli.main(["--output", str(target), "solve", "--p", "1/2", "--N", "2",
                         "--reward", "geometric:1/2", "--policy-csv", str(csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"configuration error: cannot write {str(target)!r}")
        assert not csv.exists()

    def test_unwritable_policy_csv_leaves_no_report(self, tmp_path, capsys):
        target, csv = tmp_path / "r.json", tmp_path / "missing" / "pc.csv"
        code = cli.main(["--output", str(target), "solve", "--p", "1/2", "--N", "2",
                         "--reward", "geometric:1/2", "--policy-csv", str(csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot write {str(csv)!r}")
        assert not target.exists()
        assert not csv.exists()
        target.write_text("kept")
        assert cli.main(["--output", str(target), "solve", "--p", "1/2", "--N", "2",
                         "--reward", "geometric:1/2", "--policy-csv", str(csv)]) == 2
        assert target.read_text() == "kept"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["report", "csv"])
    def test_failed_write_leaves_no_created_file(self, full, tmp_path, capsys):
        """Both paths open, then one write fails (ENOSPC): the file that the
        call created for the other is removed."""
        target, csv = tmp_path / "r.json", tmp_path / "pc.csv"
        if full == "report":
            target = Path("/dev/full")
        else:
            csv = Path("/dev/full")
        code = cli.main(["--output", str(target), "solve", "--p", "1/2", "--N", "3",
                         "--reward", "geometric:1/2", "--policy-csv", str(csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error: cannot write '/dev/full'")
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_policy_csv_is_config_error(self, tmp_path, capsys):
        code = cli.main(["solve", "--p", "1/2", "--N", "2", "--reward", "geometric:1/2",
                         "--policy-csv", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot write {str(tmp_path)!r}")

    @pytest.mark.parametrize("existing", [False, True])
    def test_output_and_policy_csv_naming_one_file_is_config_error(
        self, existing, tmp_path, capsys
    ):
        """Both writes would land in one file, the report lost under the CSV:
        refused before anything is opened, so no file is made or changed."""
        target = tmp_path / "same.out"
        if existing:
            target.write_text("kept")
        code = cli.main(["--output", str(target), "solve", "--p", "1/2", "--N", "3",
                         "--reward", "geometric:1/2", "--policy-csv", f"{tmp_path}/./same.out"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error: two outputs name the same file")
        if existing:
            assert target.read_text() == "kept"
        else:
            assert list(tmp_path.iterdir()) == []

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for run in range(2):
            target = tmp_path / f"r{run}.json"
            cli.main(
                ["--output", str(target), "solve", "--p", "2/3", "--N", "8",
                 "--reward", "geometric:1/4"]
            )
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]


def grid_family(n):
    """The CLI reward strings of `bench/specs.grid_family(n)`."""
    return [
        "indicator_top",
        "geometric:1/2",
        "geometric:3/4",
        "exp_decay_table:1",
        "exp_decay_table:1/2",
        f"linear:{n}",
        "table:" + ",".join(str(max(0, n // 2 - k)) for k in range(n + 1)),
    ]


@pytest.mark.parametrize("p", ["1/4", "1/2", "3/5"])
def test_solve_report_matches_stdlib_encoder(p, capsys):
    """The directly formatted policy listing writes what the stdlib encoder
    would: re-encoding the parsed report gives the same text."""
    for n in range(17):
        for reward in grid_family(n):
            code, text = run_cli(["solve", "--p", p, "--N", str(n), "--reward", reward], capsys)
            assert code == 0, (p, n, reward)
            want = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"
            assert text == want, (p, n, reward)


# the p values of `bench/specs.GRID_PS`
GRID_PS = ("1/4", "1/3", "2/5", "3/7", "1/2", "4/7", "3/5", "2/3", "3/4")


@pytest.mark.parametrize("p", GRID_PS)
def test_stop_at_max_values_as_tau0(p, capsys):
    """The CLI's stop-at-max stops at the first time with zero drawdown,
    which is time 0, so it reports tau0's value: every grid reward, N <= 30."""
    for n in range(31):
        for reward in grid_family(n):
            values = []
            for policy in ("stop-at-max", "tau0"):
                argv = ["evaluate", "--p", p, "--N", str(n), "--reward", reward, "--policy", policy]
                code, text = run_cli(argv, capsys)
                assert code == 0, (p, n, reward)
                values.append(json.loads(text)["value"])
            assert values[0] == values[1], (p, n, reward)


@st.composite
def policy_tables(draw):
    """A PolicyTable with N = 0..20, rows drawn from STOP/CONTINUE/TIE, the
    last row all STOP."""
    n = draw(st.integers(0, 20))
    decision = st.sampled_from([dpsolver.STOP, dpsolver.CONTINUE, dpsolver.TIE])
    rows = tuple(tuple(draw(st.lists(decision, min_size=k + 1, max_size=k + 1)))
                 for k in range(n))
    return dpsolver.PolicyTable(n, rows + ((dpsolver.STOP,) * (n + 1),))


@given(
    pol=policy_tables(),
    ties=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
                  max_size=40).map(tuple),
)
@settings(max_examples=150, deadline=None)
def test_emit_listings_match_stdlib_encoder(pol, ties):
    """Each listing is a list of string parts that joins to the stdlib
    encoder's text for its list alone under a top-level key, and the report
    assembled from them is the text that the stdlib encoder writes for the
    same report with the lists inline."""
    report = {"command": "solve", "config": {"N": pol.n}, "unique": "UNIQUE_TAU0"}
    inline = {
        **report,
        "tool_version": __version__,
        "policy": [[k, z, d] for k, row in enumerate(pol.rows) for z, d in enumerate(row)],
        "tie_states": [list(s) for s in ties],
    }
    listings = {"policy": cli._policy_listing(pol), "tie_states": cli._pair_listing(ties)}
    for key, parts in listings.items():
        assert isinstance(parts, list) and all(isinstance(part, str) for part in parts)
        alone = json.dumps({key: inline[key]}, indent=2)
        assert "".join(parts) == alone[len(f'{{\n  "{key}": '):-len("\n}")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit(report, argparse.Namespace(), False, listings=listings) == 0
    assert out.getvalue() == json.dumps(inline, sort_keys=True, indent=2) + "\n"


class TestEvaluateCommand:
    def test_tau0_value(self, capsys):
        code, out = run_cli(
            ["evaluate", "--p", "1/2", "--N", "2", "--reward", "table:1,1,0",
             "--policy", "tau0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"]["value"] == "3/4"

    def test_unknown_policy(self, capsys):
        code, _ = run_cli(
            ["evaluate", "--p", "1/2", "--N", "2", "--reward", "table:1,1,0",
             "--policy", "wat"],
            capsys,
        )
        assert code == 2


class TestOracleCommand:
    def test_counterexample(self, capsys):
        code, out = run_cli(
            ["oracle", "--p", "1/3", "--N", "2", "--reward", "table:1,1,0"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["optimum"]["value"] == "1"
        assert rep["n_rules_total"] == 8
        assert rep["dp_match"] is True
        assert rep["cross_validate"] is True

    def test_infeasible_size(self, capsys):
        code = cli.main(["oracle", "--p", "1/3", "--N", "14", "--reward", "geometric:1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error:")
        assert "N <= 13" in captured.err
        assert "rule count 2^(2^N - 1)" in captured.err

    def test_reward_too_short_is_config_error(self, capsys):
        code = cli.main(["oracle", "--p", "1/3", "--N", "4", "--reward", "table:1,1,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "configuration error: table reward has 3 entries, index 4 out of range\n"
        )

    def test_largest_horizon_runs(self, capsys):
        code, out = run_cli(
            ["oracle", "--p", "2/5", "--N", "13", "--reward", "geometric:1/2"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["n_rules_total"] == 2 ** (2**13 - 1)
        assert len(str(rep["n_rules_total"])) == 2466
        assert rep["dp_match"] is True

    def test_unconfirmed_label_exits_one(self, capsys, monkeypatch):
        """A label the oracle does not confirm is a failed theorem check: exit
        1, with the report otherwise as when it is confirmed."""
        argv = ["oracle", "--p", "2/5", "--N", "4", "--reward", "geometric:1/2"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        monkeypatch.setattr(cli.oracle, "agrees", lambda res, rep: False)
        failed_code, failed_out = run_cli(argv, capsys)
        assert failed_code == 1
        want = json.loads(out)
        assert want["dp_match"] is True and want["cross_validate"] is True
        assert json.loads(failed_out) == {**want, "cross_validate": False}

    def test_float_reward_refused_by_oracle(self, capsys, monkeypatch):
        """The oracle itself refuses the reward: the solver never runs."""
        monkeypatch.setattr(cli.dpsolver, "solve", None)
        code = cli.main(["oracle", "--p", "1/2", "--N", "3", "--reward", "exp_decay:1.0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error: the oracle needs a rational reward")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--p", "1/2", "--N", "4", "--reward", "geometric:1/2"],
                "ccb7da8b7a57361be166a19769d5c86b708396e74c2b56451671053da985f20b",
            ),
            (
                ["--p", "1/3", "--N", "3", "--reward", "geometric:1/2"],
                "ba07d1f6cb024bb7f3433fc08e2e83aae4c6ed22f2bbbce91ad0e49b78ee7ac9",
            ),
        ],
    )
    def test_report_bytes_frozen(self, argv, digest, tmp_path):
        """Report bytes as the rule-class enumerator wrote them."""
        target = tmp_path / "r.json"
        assert cli.main(["--output", str(target), "oracle"] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


BM_MC_FEW = ["bm-mc", "--lam", "0", "--rule", "tau0", "--reward", "exp_decay:1.0",
             "--replications", "10"]


@pytest.mark.parametrize(
    "argv, flag, want",
    [
        (BM_MC_FEW + ["--steps", "2.5"], "--steps", "a positive integer"),
        (BM_MC_FEW + ["--replications", "1e3"], "--replications", "a positive integer"),
        (["evaluate", "--p", "1/2", "--reward", "geometric:1/2", "--policy", "tau0",
          "--N", "2.5"], "--N", "an integer >= 0"),
        (["solve", "--p", "1/2", "--reward", "geometric:1/2", "--N", "-1"], "--N",
         "an integer >= 0"),
        (["evaluate", "--p", "1/2", "--reward", "geometric:1/2", "--policy", "tau0",
          "--N", "-2"], "--N", "an integer >= 0"),
        (["oracle", "--p", "1/2", "--reward", "geometric:1/2", "--N", "-1"], "--N",
         "an integer >= 0"),
        (["oracle", "--p", "1/2", "--reward", "geometric:1/2", "--N", ""], "--N",
         "an integer >= 0"),
        (["solve", "--p", "1/2", "--reward", "geometric:1/2", "--N", "0x10"], "--N",
         "an integer >= 0"),
        (["bm-verify", "--seed", "1e3"], "--seed", "an integer >= 0"),
        (["sweep", "--reward", "geometric:1/2", "--p-list", "1/2", "--n-list", "2,"], "--n-list",
         "an integer >= 0"),
        (BM_MC_FEW + ["--seed", "-1"], "--seed", "an integer >= 0"),
        (["bm-verify", "--seed", "-1"], "--seed", "an integer >= 0"),
        (["bm-mc", "--lam", "0", "--rule", "tau0", "--reward", "exp_decay:1.0", "--seed", "x"],
         "--seed", "an integer >= 0"),
        (["sweep", "--reward", "geometric:1/2", "--p-list", "1/2", "--n-list", "x"], "--n-list",
         "an integer >= 0"),
        (["sweep", "--reward", "geometric:1/2", "--p-list", "1/2", "--n-list", "2,-1"], "--n-list",
         "an integer >= 0"),
    ],
)
def test_integer_flag_rejected_at_parse_time(argv, flag, want, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be {want}" in captured.err


def test_successive_calls_share_no_parsed_state(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; each call still parses afresh."""
    assert cli.build_parser() is cli.build_parser()
    target = tmp_path / "r.json"
    solve = ["solve", "--p", "1/2", "--N", "2", "--reward", "table:1,1,0"]
    assert cli.main(["--output", str(target)] + solve) == 0
    assert capsys.readouterr().out == ""
    code, out = run_cli(solve, capsys)
    assert code == 0
    assert out == target.read_text()

    code, out = run_cli(BM_MC_FEW + ["--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3
    code, out = run_cli(BM_MC_FEW, capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 0


class TestBmCommands:
    def test_bm_verify_draws_reflection_points_from_the_stream_layout(self, capsys, monkeypatch):
        """`bm-verify --seed 7` checks the reflection identity at the points
        that stream 0 of seed 7 gives, 10,000 per drift."""
        grids = []
        check = brownian.density_reflection_check

        def spy(t, lam, grid):
            grids.append(grid)
            return check(t, lam, grid)

        monkeypatch.setattr(brownian, "density_reflection_check", spy)
        code, out = run_cli(["bm-verify", "--seed", "7"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 7
        rng = coupling._rng(7)
        assert len(grids) == 3
        for s, b in grids:
            want_b = rng.uniform(-3, 3, size=10_000)
            want_s = np.maximum(want_b, 0) + rng.uniform(0, 3, size=10_000)
            assert (b == want_b).all() and (s == want_s).all()

    def test_bm_mc_tau0(self, capsys):
        code, out = run_cli(
            ["bm-mc", "--seed", "3", "--lam", "-1.0", "--T", "1.0",
             "--steps", "100", "--replications", "5000",
             "--rule", "tau0", "--reward", "exp_decay:1.0"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["estimate"]["mode"] == "mc"
        assert 0.6 < rep["estimate"]["value"] < 0.8

    def test_bm_mc_determinism(self, tmp_path):
        outs = []
        for run in range(2):
            target = tmp_path / f"bm{run}.json"
            cli.main(
                ["--output", str(target), "bm-mc", "--seed", "3", "--lam", "0.5",
                 "--steps", "50", "--replications", "2000",
                 "--rule", "drawdown:0.5", "--reward", "exp_decay:1.0"]
            )
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "flag, value",
        [("--replications", "0"), ("--steps", "0"), ("--steps", "-2"), ("--T", "0"), ("--T", "-1")],
    )
    def test_bm_mc_rejects_nonpositive_at_parse_time(self, flag, value, capsys):
        argv = ["bm-mc", "--lam", "0.0", "--rule", "tau0", "--reward", "exp_decay:1.0"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}: must be a positive" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_bm_mc_rejects_non_finite_lam_at_parse_time(self, value, capsys):
        argv = ["bm-mc", "--rule", "tau0", "--reward", "exp_decay:1.0", f"--lam={value}"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --lam: must be a finite number" in captured.err

    @pytest.mark.parametrize("reward", ["linear_continuous:1", "exp_decay:1.0"])
    def test_bm_mc_rejects_unrepresentable_lam(self, reward, capsys):
        """At lam = 1e200 the sampler's endpoint**2 overflowed: the linear
        reward exited 3 on an infinite value, exp_decay reported 0.0."""
        argv = ["bm-mc", "--lam", "1e200", "--rule", "tau0", "--reward", reward,
                "--replications", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "configuration error: drift |lam| = 1e+200 is outside [0, 6.7039e+153], "
            "the range the samplers represent at T = 1\n"
        )

    def test_bm_mc_rejects_unrepresentable_T(self, capsys):
        """At T = 1e308 the sampler's sqrt(T) * Z squared and T * log(u)
        overflowed, and the linear reward exited 3 on an infinite value.  A
        path rule has the same horizon bound as tau0.
        At T = 5e-324 a path rule's grid step T / steps underflowed to 0 and
        the drift bound divided by it.  A step count beyond float range
        exited 3 on an OverflowError."""
        huge = "1" + "0" * 400
        for T, rule, want, steps in [
            ("1e308", "tau0", "horizon T = 1e+308 is outside (0, 7.42652e+304]", "1000"),
            ("1e305", "drawdown:0", "horizon T = 1e+305 is outside (0, 7.42652e+304]", "1000"),
            ("5e-324", "drawdown:0", "T = 4.94066e-324 gives a grid step of 0", "1000"),
            ("1", "drawdown:0", "the step count exceeds the float range for "
             f"drawdown_threshold(0) at {huge} steps", huge),
        ]:
            argv = ["bm-mc", "--lam", "0", "--T", T, "--rule", rule, "--steps", steps,
                    "--reward", "linear_continuous:1", "--replications", "100"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(f"configuration error: {want}")

    @pytest.mark.parametrize(
        "rule, steps", [("tau0", 1000), ("drawdown:0", 10), ("drawdown:0", 1000)]
    )
    def test_bm_mc_large_T_within_bound_runs(self, rule, steps, capsys):
        """Up to the one horizon bound, the same for every rule, the estimate
        and its standard error over the default 100,000 replications stay
        finite and no overflow warning is raised; just past it the run is a
        configuration error."""
        t_max = brownian._MAX_SEGMENT
        for T, code_want in [(1e300, 0), (t_max, 0), (math.nextafter(t_max, math.inf), 2)]:
            argv = ["bm-mc", "--lam", "0", f"--T={T!r}", "--steps", str(steps), "--rule", rule,
                    "--reward", "linear_continuous:1"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == code_want, (T, captured.err)
            if code == 0:
                estimate = json.loads(captured.out)["estimate"]
                assert math.isfinite(estimate["value"]) and math.isfinite(estimate["stderr"])

    def test_discrete_only_reward_is_config_error(self, capsys):
        for reward, kind in (("table:1,1,0", "table"), ("indicator_top", "indicator_top")):
            code = cli.main(
                ["bm-mc", "--lam", "0.0", "--steps", "5", "--replications", "10",
                 "--rule", "tau0", "--reward", reward]
            )
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == (
                f"configuration error: reward kind {kind!r} has no continuous evaluation\n"
            )

    def test_discrete_table_reward_points_to_its_continuous_form(self, capsys):
        """bm-mc has no --N, so the message names the continuous reward."""
        code = cli.main(["bm-mc", "--lam", "0", "--rule", "tau0", "--reward",
                         "exp_decay_table:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "configuration error: exp_decay_table is a discrete reward, a table on {0..N}; "
            "use exp_decay:sigma for Brownian motion\n"
        )

    def test_non_finite_reward_parameter_is_config_error(self, capsys):
        for reward in ("piecewise:0=nan,1=0", "piecewise:nan=1,1=0", "exp_decay:inf"):
            code = cli.main(
                ["bm-mc", "--lam", "0.0", "--steps", "5", "--replications", "10",
                 "--rule", "tau0", "--reward", reward]
            )
            captured = capsys.readouterr()
            assert code == 2, reward
            assert captured.out == ""
            assert captured.err.startswith("configuration error:"), captured.err

    def test_reward_beyond_float_range_is_config_error(self, capsys):
        for reward in ("linear_continuous:1e400", "piecewise:0=1e308,1=-1e308"):
            code = cli.main(
                ["bm-mc", "--lam", "0.0", "--steps", "5", "--replications", "100",
                 "--rule", "tau0", "--reward", reward]
            )
            captured = capsys.readouterr()
            assert code == 2, reward
            assert captured.out == ""
            assert captured.err.startswith("configuration error:"), captured.err

    def test_non_finite_report_value_is_internal_error(self, capsys, monkeypatch):
        def nan_estimates(*args, **kwargs):
            return [coupling.McEstimate(float("nan"), 0.0, 10)]

        monkeypatch.setattr(brownian, "mc_bm_rule_values", nan_estimates)
        code = cli.main(
            ["bm-mc", "--lam", "0.0", "--replications", "10", "--rule", "tau0",
             "--reward", "exp_decay:1.0"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error: Out of range float values")

    @pytest.mark.parametrize("rule", ["drawdown:-1", "time:-0.5"])
    def test_negative_rule_threshold_rejected(self, rule, capsys):
        code = cli.main(
            ["bm-mc", "--lam", "0.0", "--steps", "5", "--replications", "10",
             "--rule", rule, "--reward", "exp_decay:1.0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "configuration error" in captured.err and ">= 0" in captured.err

    def test_bad_rule(self, capsys):
        code, _ = run_cli(
            ["bm-mc", "--lam", "0.0", "--rule", "wat", "--reward", "exp_decay:1.0"], capsys
        )
        assert code == 2


class TestSweepCommand:
    def test_merged_cells_sorted(self, capsys):
        code, out = run_cli(
            ["sweep", "--reward", "geometric:1/2", "--p-list", "1/4,3/4",
             "--n-list", "2,4"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert set(rep["cells"]) == {"p=1/4,N=2", "p=1/4,N=4", "p=3/4,N=2", "p=3/4,N=4"}
        assert rep["cells"]["p=1/4,N=2"]["unique"] == "UNIQUE_TAU0"
        assert rep["cells"]["p=3/4,N=4"]["unique"] == "UNIQUE_TAUN"

    @pytest.mark.parametrize(
        "p_list, n_list, message",
        [
            ("1/2,1/2", "2", "--p-list lists a probability twice"),
            ("1/2,2/4", "2", "--p-list lists a probability twice"),
            ("1/2", "2,2", "--n-list lists a horizon twice"),
        ],
    )
    def test_repeated_cell_is_config_error(self, p_list, n_list, message, capsys, monkeypatch):
        monkeypatch.setattr(cli.dpsolver, "solve", None)  # rejected before any solve
        argv = ["sweep", "--reward", "geometric:1/2", "--p-list", p_list, "--n-list", n_list]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {message}")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["bm-mc", "--seed", "6", "--lam", "-0.5", "--steps", "100",
             "--replications", "5000", "--rule", "drawdown:0.5", "--reward", "exp_decay:1.0"],
            "4c87eaf1d4b29c15941191cd82a075afdbfad4509377c554b6c4ca981c3b75e5",
        ),
        (  # exact (M, B) sampler, constant sample: steps null, stderr 0
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--replications", "3000",
             "--rule", "tau0", "--reward", "piecewise:0=1,5=1"],
            "d903f9f75e23f7199accfa8e00bd9c442ba037c66cf6ba8684d4f105d2ca6f82",
        ),
        (  # three chunks, streams 0..2: each chunk's exact pair draws, then the rule's path draws
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--steps", "10", "--replications", "20003",
             "--rule", "drawdown:0", "--reward", "exp_decay:1.0"],
            "12b922cc7b42ba4f1187327aca72bd82172ebaf9de6e84320db9fd2c8bd39166",
        ),
        (  # the exact (M, B) sampler across the same three chunks
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--replications", "20003",
             "--rule", "tau0", "--reward", "exp_decay:1.0"],
            "cf004cbb981cf01bd7de94e8bd35017a5b3f15d2cdbe79c8dd2ac0311bdd7a4b",
        ),
        (  # the time rule: one jump to its stopping time and one for the rest, per chunk
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--steps", "100", "--replications", "20003",
             "--rule", "time:0.5", "--reward", "exp_decay:1.0"],
            "b7c4d636f9f445c49588cc1f27153c3172746766fb1628a570b12ceeac199848",
        ),
        (  # tauT on the exact (M, B) pairs across three chunks
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--replications", "20003",
             "--rule", "tauT", "--reward", "exp_decay:1.0"],
            "db83e08ed056756b3211b7fab267ed2e48b9bc3357aa95d38b7aa3115518a501",
        ),
        (
            ["sweep", "--reward", "geometric:1/2", "--p-list", "1/4,3/4", "--n-list", "2,4"],
            "6d34c480ec28889cde334f906ab156f4e3d55214929e9c7ceac7af5965e9802e",
        ),
        (
            ["bm-verify", "--seed", "1"],
            "347a02f4c78377582d9a967906c4b4799eac3c047c3defe67d544bc82f0c857d",
        ),
        (
            ["verify-discrete"],
            "29062e83578fe435d23741c5b21213818e74fe30989dd3f773827c624325d336",
        ),
    ],
    ids=["bm-mc", "bm-mc-exact-constant", "bm-mc-three-chunks", "bm-mc-exact-three-chunks",
         "bm-mc-time-three-chunks", "bm-mc-tauT-three-chunks", "sweep", "bm-verify",
         "verify-discrete"],
)
def test_report_bytes_frozen(argv, digest, tmp_path):
    """Report bytes of the grid and float-valued commands, pinned so that a
    change to how reports are built cannot move them.

    The float reports (bm-mc, bm-verify) are bit-stable for one
    numpy build; their digests pin the float arithmetic and the key layout.
    """
    target = tmp_path / "r.json"
    assert cli.main(["--output", str(target)] + argv) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_module_entry_point_runs_main(capsys):
    """`python -m maxstop` needs no install: PYTHONPATH=src and it prints
    what cli.main prints and exits with its code."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["evaluate", "--p", "2/5", "--N", "12", "--reward", "geometric:1/2", "--policy", "tauN"]

    def run_module(args):
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", "maxstop"] + args, capture_output=True,
                              text=True, timeout=60, env=env)

    proc = run_module(argv)
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert (proc.returncode, proc.stdout) == (code, out)
    bad = run_module(["evaluate", "--p", "0.4", "--N", "3", "--reward", "geometric:1/2",
                      "--policy", "tauN"])
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("configuration error: probability '0.4'")


def test_readme_command_lines_parse():
    """The README's `maxstop ...` lines parse, and show every subcommand."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("maxstop ")]
    shown = {cli.build_parser().parse_args(shlex.split(ln)[1:]).command for ln in lines}
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert shown == set(sub.choices)


# --- failure reports: one check of each block made to fail at one point ------


def _fail_at(monkeypatch, module, name, at, result):
    """Make module.name return result(value) where at(*positional args) holds."""
    orig = getattr(module, name)

    def patched(*args, **kwargs):
        value = orig(*args, **kwargs)
        return result(value) if at(*args) else value

    monkeypatch.setattr(module, name, patched)


def _at_walk(p, n, reward=None, i=None):
    """Selects the call on WalkParams(p, n), and on the reward family entry
    named `reward` and drawdown i when given."""
    want = walkdist.WalkParams(Fraction(p), n)

    def at(w, f=None, j=None):
        kind, _, arg = (reward or "").partition(":")
        named = reward is None or f.kind == kind and (not arg or f(1) == Fraction(arg))
        return w == want and named and (i is None or j == i)

    return at


def _unequal(rep):
    """A report that holds strictly, so not with equality."""
    return walkdist.InequalityReport(rep.lhs + 1, rep.lhs, True)


def _passed(*grids):
    """The grid-level entries of `checks`, passed unless named."""
    return [
        {"check": name, "passed": name not in grids}
        for name in ("reflection+time_reversal grid", "key_inequality+corollary grid",
                     "bang_bang grid")
    ]


VERIFY_DISCRETE_FAILURES = {
    "reflection": (
        ("reflection_check", _at_walk("1/2", 3), lambda ok: False),
        [{"check": "reflection p=1/2 n=3", "passed": False},
         *_passed("reflection+time_reversal grid")],
        [{"check": "reflection p=1/2 n=3", "p": "1/2", "n": 3},
         {"check": "reflection+time_reversal grid"}],
    ),
    "time_reversal": (
        ("time_reversal_check", _at_walk("7/10", 12), lambda ok: False),
        [{"check": "time_reversal p=7/10 n=12", "passed": False},
         *_passed("reflection+time_reversal grid")],
        [{"check": "time_reversal p=7/10 n=12", "p": "7/10", "n": 12},
         {"check": "reflection+time_reversal grid"}],
    ),
    "corollary": (
        ("check_corollary", _at_walk("3/5", 2, "geometric:1/2", 1),
         lambda rep: walkdist.InequalityReport(rep.rhs - 1, rep.rhs, False)),
        _passed("key_inequality+corollary grid"),
        [{"check": "key_inequality_grid", "p": "3/5", "n": 2, "i": 1, "f": "geometric:1/2"},
         {"check": "key_inequality+corollary grid"}],
    ),
    "key_equal_linear_half": (
        ("check_key_inequality", _at_walk("1/2", 2, "linear", 3), _unequal),
        _passed("key_inequality+corollary grid"),
        [{"check": "key_inequality_grid", "p": "1/2", "n": 2, "i": 3, "f": "linear"},
         {"check": "key_inequality+corollary grid"}],
    ),
    "corollary_strict_at_0": (
        ("check_corollary", _at_walk("3/5", 2, "geometric:1/2", 0),
         lambda rep: walkdist.InequalityReport(rep.lhs, rep.lhs, False)),
        _passed("key_inequality+corollary grid"),
        [{"check": "key_inequality_grid", "p": "3/5", "n": 2, "i": 0, "f": "geometric:1/2"},
         {"check": "key_inequality+corollary grid"}],
    ),
    "key_equal_at_0": (
        ("check_key_inequality", _at_walk("9/10", 8, "linear", 0), _unequal),
        _passed("key_inequality+corollary grid"),
        [{"check": "key_inequality_grid", "p": "9/10", "n": 8, "i": 0, "f": "linear"},
         {"check": "key_inequality+corollary grid"}],
    ),
    "bang_bang": (
        ("solve", _at_walk("1/5", 2, "indicator_top"),
         lambda rep: rep._replace(optimal_value=rep.optimal_value + 1)),
        _passed("bang_bang grid"),
        [{"check": "bang_bang", "p": "1/5", "N": 2, "f": "indicator_top"},
         {"check": "bang_bang grid"}],
    ),
}


@pytest.mark.parametrize("case", list(VERIFY_DISCRETE_FAILURES))
def test_verify_discrete_failure_report(case, capsys, monkeypatch):
    """A check that fails at one point gives exit 1, a failed check per
    point in the reflection block and a failed grid entry, and in
    `failures` the point, then a summary entry naming the grid."""
    (name, at, result), checks, failures = VERIFY_DISCRETE_FAILURES[case]
    module = dpsolver if name == "solve" else walkdist
    _fail_at(monkeypatch, module, name, at, result)
    code, out = run_cli(["verify-discrete"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["checks"] == checks
    assert rep["failures"] == failures


@pytest.fixture(scope="module")
def bm_verify_checks():
    """The `checks` of a passing `bm-verify` at the default seed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bm-verify"]) == 0
    return json.loads(out.getvalue())["checks"]


BM_VERIFY_FAILURES = {
    "normalization": (
        ("_expect_floor_max", lambda fv, nodes, t, mu, floor, start: (t, mu) == (2.0, 1.0),
         lambda q: brownian.QuadResult(1.5, 0.0)),
        {"check": "normalization t=2.0 lam=1.0", "passed": False,
         "value": {"mode": "quadrature", "value": 1.5, "error_bound": 0.0}},
        [{"check": "normalization", "t": 2.0, "lam": 1.0}],
    ),
    "density_reflection": (
        ("density_reflection_check", lambda t, lam, grid: lam == 1.0, lambda d: 0.5),
        {"check": "reflection lam=1.0", "passed": False, "max_rel_disc": 0.5},
        [{"check": "density_reflection", "lam": 1.0, "max_rel_disc": 0.5}],
    ),
    "density_ordering": (  # the ordering check's grid is the only 2-D one at lam = 0.3
        ("joint_density", lambda s, b, t, lam: lam == 0.3 and np.ndim(s) == 2,
         lambda h: 0.0 * h),
        {"check": "density_ordering lam=0.3", "passed": False},
        [{"check": "density_ordering", "lam": 0.3}],
    ),
    "bm_key_violated": (
        ("check_bm_key_inequality", lambda t, x, lam, f: (t, x, lam) == (0.5, 0.0, 1.0),
         lambda rep: brownian.BmInequalityReport(0.0, 1.0, 0.25)),
        {"check": "bm_key_inequality t=0.5 x=0.0 lam=1.0", "passed": False,
         "report": {"lhs": 0.0, "rhs": 1.0, "quad_error_bound": 0.25, "verdict": "violated"}},
        [{"check": "bm_key_inequality", "t": 0.5, "x": 0.0, "lam": 1.0}],
    ),
    "bm_key_not_strict": (
        ("check_bm_key_inequality", lambda t, x, lam, f: (t, x, lam) == (1.0, 0.5, 0.5),
         lambda rep: brownian.BmInequalityReport(1.0, 1.0, 0.25)),
        {"check": "bm_key_inequality t=1.0 x=0.5 lam=0.5", "passed": False,
         "report": {"lhs": 1.0, "rhs": 1.0, "quad_error_bound": 0.25,
                    "verdict": "equal_within_tolerance"}},
        [{"check": "bm_key_inequality", "t": 1.0, "x": 0.5, "lam": 0.5}],
    ),
}


@pytest.mark.parametrize("case", list(BM_VERIFY_FAILURES))
def test_bm_verify_failure_report(case, bm_verify_checks, capsys, monkeypatch):
    """A check that fails at one point gives exit 1, that one entry of
    `checks` failed and the rest as in a passing run, and one entry in
    `failures`."""
    (name, at, result), entry, failures = BM_VERIFY_FAILURES[case]
    _fail_at(monkeypatch, brownian, name, at, result)
    code, out = run_cli(["bm-verify"], capsys)
    assert code == 1
    rep = json.loads(out)
    names = [c["check"] for c in bm_verify_checks]
    want = list(bm_verify_checks)
    want[names.index(entry["check"])] = entry
    assert rep["checks"] == want
    assert rep["failures"] == failures
