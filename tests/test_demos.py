"""Smoke test: the quick demos run to completion.

Demos 06 and 07 take several seconds each and are run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 5


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
