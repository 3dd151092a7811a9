"""Golden reports: the exact output of paper CLI commands and of the demos.

Usage, from the root of a checkout:

    python3 tools/write_goldens.py

Each case runs in this process: a CLI command through ``matsuo.cli.main``,
a demo through ``runpy``.  Its golden, ``tests/golden/<name>.txt``, holds
the command line, the exit code, stdout and stderr, in that order.
tests/test_goldens.py renders every case again and compares the bytes, so a
change that alters a report fails there until its golden is rewritten by
this script and committed with the reason in CHANGES.md.
"""

from __future__ import annotations

import io
import runpy
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "gram_A4": ["gram", "A:4"],
    "gram_W3A3": ["gram", "W3A:3"],
    "gram_Wr3x3_4": ["gram", "Wr3x3:4"],
    "gram_Wr3p2_4": ["gram", "Wr3p2:4"],
    "gram_Wr3p2_6": ["gram", "Wr3p2:6"],
    "gram_A12": ["gram", "A:12"],
    "gram_critical_Wr3p2_6": ["gram", "Wr3p2:6", "--critical"],
    "gram_critical_WrA4_3": ["gram", "WrA4:3", "--critical"],
    "gram_critical_W3D4": ["gram", "W3D:4", "--critical"],
    "flip_Wr3p2_k2": ["flip", "--family", "Wr3p2", "--k", "2",
                      "--eta", "2", "--eta", "1/2", "--eta", "-1"],
    "flip_Wr3x3_k2": ["flip", "--family", "Wr3x3", "--k", "2", "--eta", "2"],
    "classify_W3A4": ["classify", "--ambient", "W3A:4"],
    "classify_W2D4_csv": ["classify", "--ambient", "W2D:4", "--csv"],
    "close_W3A3_structure": ["close", "--ambient", "W3A:3",
                             "--gens", "b(1,2);c(1,3)+c(2,3)", "--structure"],
    "close_W3A4_at_7_structure": ["close", "--ambient", "W3A:4",
                                  "--gens", "b(1,2);c(1,3)+c(2,4)", "--mode", "7",
                                  "--structure"],
    "fusion_A4_double_M": ["fusion", "--ambient", "A:4",
                           "--axis", "b(1,2)+b(3,4)", "--law", "M"],
    "fusion_W3A3_single_M": ["fusion", "--ambient", "W3A:3", "--axis", "b(1,2)", "--law", "M"],
}
DEMOS = {f"demo_{path.stem}": path for path in sorted((ROOT / "demos").glob("0[1-7]_*.py"))}
CASES = sorted([*COMMANDS, *DEMOS])


def render(name: str) -> str:
    """The golden text of one case, rendered in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if name in COMMANDS:
            from matsuo.cli import main

            line = shlex.join(["matsuo", *COMMANDS[name]])
            code = main(COMMANDS[name])
        else:
            line = shlex.join(["python", str(DEMOS[name].relative_to(ROOT))])
            runpy.run_path(str(DEMOS[name]), run_name="__main__")
            code = 0
    return (
        f"$ {line}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        golden_path(name).write_text(render(name), encoding="utf-8")
        print(golden_path(name).relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
