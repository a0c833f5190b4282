"""Where numpy loads: the exact layer runs without it, the floating-point
layer loads it on first use, and only one numpy module ever exists.

Each check runs in a fresh `python -I` interpreter, since the test process
has numpy loaded already.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs before each script body: argv[1] is SRC, argv[2] a scratch directory.
PRELUDE = """
import hashlib, json, os, sys
sys.path.insert(0, sys.argv[1])

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

# standard modules the package never imports: its records are NamedTuples,
# and `PolicyTable.to_csv` joins its own lines
def stdlib_not_needed():
    return [m for m in ("csv", "dataclasses", "inspect") if m in sys.modules]

def run(argv):
    from maxstop import cli
    target = os.path.join(sys.argv[2], "r.json")
    code = cli.main(["--output", target] + argv)
    with open(target, "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()

EXACT = [
    ["solve", "--p", "2/5", "--N", "10", "--reward", "geometric:1/2"],
    ["evaluate", "--p", "1/2", "--N", "6", "--reward", "table:3,2,1,0,0,0,0", "--policy", "tau0"],
    ["oracle", "--p", "1/3", "--N", "4", "--reward", "indicator_top"],
    ["verify-discrete"],
    ["sweep", "--reward", "exp_decay_table:1", "--p-list", "1/4,3/4", "--n-list", "2,4"],
]
"""


def isolated(body: str, tmp_path) -> dict:
    """Run PRELUDE + body in a fresh interpreter; body prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PRELUDE + body, SRC, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_layer_runs_without_numpy(tmp_path):
    seen = isolated("""
from fractions import Fraction
import maxstop.cli
from maxstop import rewards
out = {"stdlib after import": stdlib_not_needed()}
out["codes"] = [run(argv)[0] for argv in EXACT]
out["after exact commands"] = numpy_modules()
out["stdlib after exact commands"] = stdlib_not_needed()
rewards.table_reward([1, 0])
rewards.geometric_reward(Fraction(1, 2))
rewards.indicator_top_reward()
rewards.linear_reward(3)
rewards.exp_decay_table(1, 8)
out["after discrete rewards"] = numpy_modules()
rewards.exp_decay_reward(1.0)
out["after exp_decay_reward"] = numpy_modules()
print(json.dumps(out))
""", tmp_path)
    assert seen["stdlib after import"] == []
    assert seen["codes"] == [0] * 5
    assert seen["after exact commands"] == []
    assert seen["stdlib after exact commands"] == []
    assert seen["after discrete rewards"] == []
    assert seen["after exp_decay_reward"]  # a continuous reward binds its numpy form


def test_first_numpy_use_after_exact_commands(tmp_path):
    """numpy's first load happens inside bm-mc, after the exact commands;
    the reports keep the bytes pinned in test_cli.test_report_bytes_frozen."""
    seen = isolated("""
import maxstop
codes = [run(argv)[0] for argv in EXACT]
before = numpy_modules()
bm_mc = run(["bm-mc", "--seed", "6", "--lam", "-0.5", "--steps", "100", "--replications",
             "5000", "--rule", "drawdown:0.5", "--reward", "exp_decay:1.0"])
after = numpy_modules()
import numpy
same = numpy is maxstop.coupling.np is maxstop.brownian.np is maxstop.rewards.np
print(json.dumps({"codes": codes, "before": before, "after": after, "bm_mc": bm_mc,
                  "same": same, "version": numpy.__version__}))
""", tmp_path)
    assert seen["codes"] == [0] * 5
    assert seen["before"] == []
    assert seen["after"]
    assert seen["bm_mc"] == [
        0, "4c87eaf1d4b29c15941191cd82a075afdbfad4509377c554b6c4ca981c3b75e5"
    ]
    assert seen["same"] is True
    assert seen["version"]


def test_numpy_imported_first_is_the_one_used(tmp_path):
    seen = isolated("""
import numpy
import maxstop.brownian
print(json.dumps({"same": maxstop.brownian.np is numpy is sys.modules["numpy"]}))
""", tmp_path)
    assert seen["same"] is True
