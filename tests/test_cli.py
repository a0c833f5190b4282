import argparse
import contextlib
import hashlib
import io
import json
import math
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import __version__, brownian, cli, coupling, dpsolver


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

        monkeypatch.setattr(dpsolver, "solve", fail)
        code = cli.main(["solve", "--p", "1/2", "--N", "3", "--reward", "geometric:1/2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: boom\n"

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
    """Spliced listings give the text that the stdlib encoder writes for the
    same report with the lists inline."""
    report = {"command": "solve", "config": {"N": pol.n}, "unique": "UNIQUE_TAU0"}
    inline = {
        **report,
        "tool_version": __version__,
        "policy": [[k, z, d] for k, row in enumerate(pol.rows) for z, d in enumerate(row)],
        "tie_states": [list(s) for s in ties],
    }
    listings = {"policy": cli._policy_listing(pol), "tie_states": cli._pair_listing(ties)}
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

    def test_largest_horizon_runs(self, capsys):
        code, out = run_cli(
            ["oracle", "--p", "2/5", "--N", "13", "--reward", "geometric:1/2"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["n_rules_total"] == 2 ** (2**13 - 1)
        assert len(str(rep["n_rules_total"])) == 2466
        assert rep["dp_match"] is True

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


class TestSimulateCommand:
    def test_ordering_and_csv(self, capsys):
        code, out = run_cli(
            ["simulate", "--seed", "5", "--n", "30", "--ps", "1/4,3/4", "--replications", "50"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["ordering_violations"] == 0

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "77")
        code, out = run_cli(
            ["simulate", "--n", "5", "--ps", "1/2", "--replications", "10"], capsys
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 77

    @pytest.mark.parametrize("ps", ["1/2,1/2", "1/2,2/4"])
    def test_repeated_probability_is_config_error(self, ps, capsys, monkeypatch):
        """A repeated p would count every replication twice in its mean."""
        monkeypatch.setattr(cli.coupling, "simulate", None)  # rejected before any draw
        argv = ["simulate", "--seed", "1", "--n", "4", "--ps", ps, "--replications", "100"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error: --ps lists a probability twice")

    @pytest.mark.parametrize("value", ["x", "1.5", "-3"])
    def test_invalid_env_seed_is_config_error(self, value, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, value)
        code = cli.main(["simulate", "--n", "5", "--ps", "1/2", "--replications", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: environment variable {cli.ENV_SEED}")


@pytest.mark.parametrize(
    "argv, flag, want",
    [
        (["simulate", "--ps", "1/2", "--n", "-1"], "--n", "an integer >= 0"),
        (["simulate", "--ps", "1/2", "--n", "3", "--replications", "0"], "--replications",
         "a positive integer"),
        (["simulate", "--ps", "1/2", "--n", "2.5"], "--n", "an integer >= 0"),
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
        (["simulate", "--ps", "1/2", "--n", "3", "--seed", "-1"], "--seed", "an integer >= 0"),
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

    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    simulate = ["simulate", "--n", "2", "--ps", "1/2", "--replications", "5"]
    code, out = run_cli(simulate + ["--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3
    code, out = run_cli(simulate, capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 0


class TestBmCommands:
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
        assert captured.err.startswith("configuration error: --lam must lie in [-6.7039e+153,")

    def test_bm_mc_drift_limit_is_per_segment(self, capsys):
        """The bound scales with the segment the rule's sampler draws: T for
        tau0, T / steps for the path rules; within it the estimate is finite."""
        bound = brownian.max_drift(1.0, 10, brownian.BmRule("tau0"))

        def argv(lam, rule):
            return ["bm-mc", f"--lam={lam!r}", "--steps", "10", "--replications", "50",
                    "--rule", rule, "--reward", "linear_continuous:1"]

        assert cli.main(argv(-2 * bound, "tau0")) == 2
        assert "--lam must lie in" in capsys.readouterr().err
        for lam, rule in [(-2 * bound, "drawdown:0.5"), (-bound, "tau0")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out = run_cli(argv(lam, rule), capsys)
            assert code == 0
            assert math.isfinite(json.loads(out)["estimate"]["value"])

    def test_bm_mc_rejects_unrepresentable_T(self, capsys):
        """At T = 1e308 the sampler's sqrt(T) * Z squared and T * log(u)
        overflowed, and the linear reward exited 3 on an infinite value."""
        argv = ["bm-mc", "--lam", "0", "--T", "1e308", "--rule", "tau0",
                "--reward", "linear_continuous:1", "--replications", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error: --T must lie in (0, 7.42652e+304]")

    @pytest.mark.parametrize(
        "rule, steps", [("tau0", 1000), ("drawdown:0", 10), ("drawdown:0", 1000)]
    )
    def test_bm_mc_large_T_within_bound_runs(self, rule, steps, capsys):
        """Up to the bound, which scales with the number of segments drawn,
        the estimate and its standard error over the default 100,000
        replications stay finite and no overflow warning is raised.  A path
        rule's chunks take the exact (M_T, B_T) draws too, untransformed, so
        its longer T cannot overflow them."""
        t_max = brownian._max_horizon(steps, cli._parse_bm_rule(rule))
        for T, code_want in [(1e300, 0), (t_max, 0), (2 * t_max, 2)]:
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
        def nan_estimate(*args, **kwargs):
            return coupling.McEstimate(float("nan"), 0.0, 10)

        monkeypatch.setattr(brownian, "mc_bm_rule_value", nan_estimate)
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
            "349b0a5019c21d429166e4657cf4199500836398b8958a5367857d3d9af926af",
        ),
        (  # exact (M, B) sampler, constant sample: steps null, stderr 0
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--replications", "3000",
             "--rule", "tau0", "--reward", "piecewise:0=1,5=1"],
            "338c02f011c45e1f2d03799ff5a0da58d609e374cdbe61d9345c1ea6427618fd",
        ),
        (
            ["simulate", "--seed", "5", "--n", "40", "--ps", "1/4,3/4", "--replications", "200"],
            "8c109cebcaa9140f2bff584ac35a585b70c3739edd74f142593ed67e685833a7",
        ),
        (  # one row past the first block: the second block opens stream 1
            ["simulate", "--seed", "5", "--n", "3", "--ps", "1/4,3/4", "--replications", "20003"],
            "ac236ca40720706de2883428d19b49d271951862cc3003d05ba64108e64bd607",
        ),
        (  # three chunks, streams 0..2: each chunk's exact pair draws, then its grid paths
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--steps", "10", "--replications", "20003",
             "--rule", "drawdown:0", "--reward", "exp_decay:1.0"],
            "544f80297354539c2223d9b9a29437a0882c45425320dbc106541605bc2176eb",
        ),
        (  # the exact (M, B) sampler across the same three chunks
            ["bm-mc", "--seed", "6", "--lam", "0.5", "--replications", "20003",
             "--rule", "tau0", "--reward", "exp_decay:1.0"],
            "c82032a05d50aae84b44a5d9c4b87b7329fa29eacce4d131432201c5926fc0d8",
        ),
        (
            ["sweep", "--reward", "geometric:1/2", "--p-list", "1/4,3/4", "--n-list", "2,4"],
            "6d34c480ec28889cde334f906ab156f4e3d55214929e9c7ceac7af5965e9802e",
        ),
        (
            ["bm-verify", "--seed", "1"],
            "b04b8f85a92d7581295917e122bad0c4ead0681790c71c70ff539f19f69c2c92",
        ),
        (
            ["verify-discrete"],
            "29062e83578fe435d23741c5b21213818e74fe30989dd3f773827c624325d336",
        ),
    ],
    ids=["bm-mc", "bm-mc-exact-constant", "simulate", "simulate-two-blocks", "bm-mc-three-chunks",
         "bm-mc-exact-three-chunks", "sweep", "bm-verify", "verify-discrete"],
)
def test_report_bytes_frozen(argv, digest, tmp_path):
    """Report bytes of the grid and float-valued commands, pinned so that a
    change to how reports are built cannot move them.

    The float reports (bm-mc, simulate, bm-verify) are bit-stable for one
    numpy build; their digests pin the float arithmetic and the key layout.
    """
    target = tmp_path / "r.json"
    assert cli.main(["--output", str(target)] + argv) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_readme_command_lines_parse():
    """Every `maxstop ...` line of the README is a valid command line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("maxstop ")]
    assert len(lines) >= 9
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
