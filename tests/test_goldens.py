"""Every golden report in tests/golden, rendered again in this process and
compared byte for byte; tools/write_goldens.py rewrites them."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "write_goldens.py"
spec = importlib.util.spec_from_file_location("write_goldens", TOOL)
goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(goldens)


def test_one_golden_per_case():
    on_disk = sorted(path.stem for path in goldens.GOLDEN.glob("*.txt"))
    assert on_disk == goldens.CASES
    assert len(goldens.DEMOS) == 7


@pytest.mark.parametrize("name", goldens.CASES)
def test_report_matches_golden(name):
    expected = goldens.golden_path(name).read_bytes()
    assert goldens.render(name).encode("utf-8") == expected
