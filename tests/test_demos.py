"""Every script in demos/ runs to completion, as README tells users to run it."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        # -W error: a warning fails the demo, as filterwarnings fails a test in-process
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=subprocess_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
