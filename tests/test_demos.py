"""Every demo script runs to completion against the source tree."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
