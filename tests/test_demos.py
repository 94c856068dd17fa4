"""The narrative scripts under demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        # warnings fail the demos as they fail the test suite
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
