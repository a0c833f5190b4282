"""Each narrative script in demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    """The README's Demos section lists exactly the scripts in demos/."""
    section = (ROOT / "README.md").read_text().split("\n## Demos\n")[1].split("\n## ")[0]
    listed = {ln.split()[1] for ln in section.splitlines() if ln.startswith("python demos/")}
    assert DEMOS and listed == {f"demos/{path.name}" for path in DEMOS}


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
