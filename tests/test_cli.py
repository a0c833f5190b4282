import hashlib
import json

import pytest

from maxstop import cli


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

    def test_large_report_bytes_frozen(self, tmp_path):
        """Report bytes at N = 90, as the Fraction-based joint-law solver wrote them."""
        target = tmp_path / "r.json"
        argv = ["solve", "--p", "2/5", "--N", "90", "--reward", "geometric:1/2"]
        assert cli.main(["--output", str(target)] + argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "09f93e0b7b2ab20a7c0468c16d8a94b9a9a12a7445e890e87fa95b26a8a25bd8"
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
        code, _ = run_cli(
            ["oracle", "--p", "1/3", "--N", "6", "--reward", "geometric:1/2"], capsys
        )
        assert code == 2


class TestSimulateCommand:
    def test_ordering_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "paths.csv"
        code, out = run_cli(
            ["simulate", "--seed", "5", "--n", "30", "--ps", "1/4,3/4",
             "--replications", "50", "--csv-out", str(csv_path)],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["ordering_violations"] == 0
        assert csv_path.read_text().startswith("replication,k,p,S,M,Z")

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "77")
        code, out = run_cli(
            ["simulate", "--n", "5", "--ps", "1/2", "--replications", "10"], capsys
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 77


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

    def test_worker_pool_matches_sequential(self, tmp_path):
        args = ["sweep", "--reward", "geometric:1/2", "--p-list", "1/5,4/5", "--n-list", "3"]
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        cli.main(["--output", str(seq)] + args + ["--workers", "1"])
        cli.main(["--output", str(par)] + args + ["--workers", "2"])
        # reports embed their own worker count; the payload must match exactly
        assert json.loads(seq.read_text())["cells"] == json.loads(par.read_text())["cells"]
