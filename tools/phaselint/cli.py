"""Command-line front end: ``python -m phaselint src tests benchmarks``."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .config import load_config
from .engine import lint_paths_detailed
from .rules import ALL_RULES, PROJECT_RULES
from .sarif import sarif_json


def build_parser() -> argparse.ArgumentParser:
    """The phaselint argument parser."""
    parser = argparse.ArgumentParser(
        prog="phaselint",
        description=(
            "Domain-aware static analysis for the PhaseBeat reproduction: "
            "seeded randomness, NDArray typing, unit-suffixed names, no "
            "float equality, complete public API, and "
            "cross-module determinism dataflow (unordered iteration, RNG "
            "flow, shared state, float reduction order)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        "--output",
        dest="format",
        choices=("text", "json", "sarif"),
        default="text",
        help=(
            "output format; json emits a machine-readable finding list, "
            "sarif emits a SARIF 2.1.0 log for code-scanning upload"
        ),
    )
    parser.add_argument(
        "--config-root",
        default=".",
        help="directory containing pyproject.toml (default: cwd)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (e.g. PL001,PL004)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "baseline-suppressions file to subtract from the findings "
            f"(default: <config-root>/{DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file and report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline file from the current findings and exit "
            "0; review the diff — each entry is an accepted suppression"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its one-line description and exit",
    )
    return parser


def _resolve_baseline_path(
    args: argparse.Namespace, config_root: Path
) -> Path | None:
    if args.no_baseline and not args.update_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = config_root / DEFAULT_BASELINE_NAME
    if args.update_baseline or default.is_file():
        return default
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; 0 = clean, 1 = findings, 2 = usage error."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in (*ALL_RULES, *PROJECT_RULES):
            print(f"{rule.code} {rule.name}: {rule.description}")
        return 0
    config_root = Path(args.config_root)
    config = load_config(config_root)
    if args.select:
        codes = tuple(c.strip() for c in args.select.split(",") if c.strip())
        known = {rule.code for rule in (*ALL_RULES, *PROJECT_RULES)}
        unknown = [c for c in codes if c not in known]
        if unknown:
            print(f"phaselint: unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        config = type(config)(**{**config.__dict__, "select": codes})
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"phaselint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    run = lint_paths_detailed(args.paths, config)
    baseline_path = _resolve_baseline_path(args, config_root)
    if args.update_baseline:
        if baseline_path is None:  # --no-baseline + --update-baseline
            print(
                "phaselint: --update-baseline conflicts with --no-baseline",
                file=sys.stderr,
            )
            return 2
        Baseline.from_findings(run.findings, run.line_text).save(
            baseline_path
        )
        print(
            f"phaselint: baseline written to {baseline_path} "
            f"({len(run.findings)} finding(s) grandfathered)"
        )
        return 0
    findings = run.findings
    if baseline_path is not None and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"phaselint: bad baseline: {exc}", file=sys.stderr)
            return 2
        findings = baseline.filter(findings, run.line_text)
    if args.format == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
    elif args.format == "sarif":
        from . import __version__

        print(sarif_json(findings, tool_version=__version__))
    else:
        for finding in findings:
            print(finding.format_text())
        if findings:
            by_rule = Counter(f.rule for f in findings)
            summary = ", ".join(f"{n}× {code}" for code, n in sorted(by_rule.items()))
            print(f"\nphaselint: {len(findings)} finding(s) ({summary})")
        else:
            print("phaselint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
