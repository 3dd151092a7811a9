"""Command-line surface: space reports, Gram data, closures, fusion checks,
flip reports, and the type-D classification census.  All output is JSON."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import critical_values, gram
from .axial import check_fusion, law_by_name
from .classify import classify
from .closure import ScalarMode, UnsafeEtaError, close
from .fischer import FischerSpace, parse_space_spec
from .flips import FLIP_FAMILIES, flip_report


def _parse_mode(text: str) -> ScalarMode:
    if text == "symbolic":
        return ScalarMode.symbolic()
    return ScalarMode.evaluated(Fraction(text))


def _parse_generators(sp: FischerSpace, text: str, mode: ScalarMode) -> list[dict]:
    gens = []
    one = mode.one()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vec: dict = {}
        for term in chunk.split("+"):
            idx = sp.point_of_label(term.strip())
            vec[idx] = vec.get(idx, mode.zero()) + one
        gens.append(vec)
    if not gens:
        raise ValueError("no generators given")
    return gens


def _emit(data, out: Optional[str]) -> None:
    """Write a report to the file out, or to stdout: text as it is, anything
    else as indented JSON and a newline."""
    if not isinstance(data, str):
        data = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _space_stats(sp: FischerSpace) -> dict:
    degrees = sorted({sp.degree(p) for p in range(len(sp.points))})
    stats = {
        "family": sp.family,
        "n": sp.n,
        "base_group": sp.base.name,
        "points": len(sp.points),
        "lines": sp.line_count(),
        "degrees": degrees,
        "connected": sp.is_connected(),
    }
    if sp.family == "W2A":
        n = sp.n
        four_per_triple = 4 * (n * (n - 1) * (n - 2) // 6)
        stats["line_count_note"] = {
            "computed": sp.line_count(),
            "four_lines_per_position_triple": four_per_triple,
            "note": "line count is computed from the space, never from a formula",
        }
    return stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsuo",
        description="exact Fischer space and Matsuo algebra computations",
    )
    parser.add_argument("--out", help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="inspect or export a space")
    p_space.add_argument("action", choices=("stats", "export"))
    p_space.add_argument("spec", help="FAMILY:n, e.g. W3A:4")

    p_gram = sub.add_parser("gram", help="Gram determinant and critical values")
    p_gram.add_argument("spec", help="FAMILY:n")
    p_gram.add_argument("--critical", action="store_true", help="report critical values")

    p_close = sub.add_parser("close", help="close a generator set")
    p_close.add_argument("--ambient", required=True, help="FAMILY:n")
    p_close.add_argument(
        "--gens", required=True,
        help="semicolon-separated sums of point labels, e.g. 'b(1,2);c(1,3)+c(2,4)'",
    )
    p_close.add_argument("--mode", default="symbolic", help="symbolic or a rational eta")
    p_close.add_argument("--structure", action="store_true", help="include the table")
    p_close.add_argument("--allow-critical", action="store_true")

    p_fusion = sub.add_parser("fusion", help="check a fusion law for an axis")
    p_fusion.add_argument("--ambient", required=True, help="FAMILY:n")
    p_fusion.add_argument("--axis", required=True, help="sum of point labels")
    p_fusion.add_argument("--law", required=True, choices=("J", "M"))
    p_fusion.add_argument("--gens", help="closure generators; default: whole algebra")
    p_fusion.add_argument("--mode", default="symbolic")

    p_flip = sub.add_parser("flip", help="standard flip report")
    p_flip.add_argument("--family", required=True, choices=FLIP_FAMILIES)
    p_flip.add_argument("--k", required=True, type=int)
    p_flip.add_argument("--eta", action="append", default=[],
                        help="also compute the flip dimension at this eta (repeatable)")

    p_classify = sub.add_parser("classify", help="type-D configuration census")
    p_classify.add_argument("--ambient", required=True, help="FAMILY:n")
    p_classify.add_argument("--sample", type=int, help="sampled configurations")
    p_classify.add_argument("--seed", type=int, help="sampling seed; needs --sample (default 0)")
    p_classify.add_argument("--mode", help="symbolic or a rational eta; default eta=7")
    p_classify.add_argument("--csv", action="store_true", help="emit flattened CSV")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "space":
            sp = parse_space_spec(args.spec)
            if args.action == "stats":
                _emit(_space_stats(sp), args.out)
            else:
                _emit(sp.export(), args.out)
            return 0

        if args.command == "gram":
            sp = parse_space_spec(args.spec)
            if args.critical:
                _emit(critical_values(sp).report(), args.out)
            else:
                data = gram(sp)
                _emit(
                    {
                        "space": sp.describe(),
                        "det": str(data.det),
                        "det_degree": data.det.degree,
                    },
                    args.out,
                )
            return 0

        if args.command == "close":
            sp = parse_space_spec(args.ambient)
            mode = _parse_mode(args.mode)
            if not mode.is_safe_for(sp) and not args.allow_critical:
                raise UnsafeEtaError(
                    f"{mode.describe()} is degenerate for {args.ambient};"
                    " pass --allow-critical to proceed"
                )
            gens = _parse_generators(sp, args.gens, mode)
            algebra = close(sp, gens, mode)
            _emit(algebra.export(include_structure=args.structure), args.out)
            return 0

        if args.command == "fusion":
            sp = parse_space_spec(args.ambient)
            mode = _parse_mode(args.mode)
            axes = _parse_generators(sp, args.axis, mode)
            if len(axes) > 1:
                raise ValueError(
                    f"--axis takes one vector, got {len(axes)}; write a double axis"
                    " as one sum, e.g. b(1,2)+b(3,4)"
                )
            axis = axes[0]
            if args.gens:
                gens = _parse_generators(sp, args.gens, mode)
            else:
                gens = [{p: mode.one()} for p in range(len(sp.points))]
            algebra = close(sp, gens, mode)
            law = law_by_name(args.law, mode)
            report = check_fusion(algebra, axis, law)
            _emit(report.export(), args.out)
            return 0 if report.passed else 1

        if args.command == "flip":
            etas = [Fraction(e) for e in args.eta]
            report = flip_report(args.family, args.k, etas=etas)
            _emit(report, args.out)
            return 0

        if args.command == "classify":
            if args.sample is None and args.seed is not None:
                raise ValueError("--seed needs --sample")
            sp = parse_space_spec(args.ambient)
            mode = _parse_mode(args.mode) if args.mode else None
            sampling = (args.sample, args.seed or 0) if args.sample is not None else None
            report = classify(sp, mode=mode, sampling=sampling)
            _emit(report.csv() if args.csv else report.export(), args.out)
            return 0
    except (ValueError, KeyError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
