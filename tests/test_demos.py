"""Each demo script runs to completion against this checkout, with the same output every time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    env.pop("KAFW_SEED", None)
    runs = [subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                           text=True, timeout=300) for _ in range(2)]
    for result in runs:
        assert result.returncode == 0, result.stderr
    assert runs[0].stdout == runs[1].stdout
