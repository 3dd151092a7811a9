"""Smoke test: every demo, 01 to 07, runs to completion in a few seconds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-7]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 7


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
