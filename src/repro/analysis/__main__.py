"""``python -m repro.analysis`` — run the repo-specific lint.

Exit status: 0 clean, 1 findings, 2 usage/parse errors.  With
``--baseline``, exit 1 only on findings not absorbed by the baseline
(the ratchet workflow; see docs/static-analysis.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .baseline import (
    DEFAULT_BASELINE_PATH,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from .findings import ALL_RULES, RULE_SUMMARIES
from .lint import default_target, lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repo-specific static analysis: determinism (REP001/REP002), "
            "unit safety (REP003), fault-site completeness (REP004), "
            "ledger hygiene (REP005), export hygiene (REP006), "
            "durable-write discipline (REP007), tracer emission "
            "discipline (REP008), crash consistency of durable state "
            "(REP011), vectorized trace discipline (REP012) and the "
            "policy hook sandbox (REP013)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rules to run (e.g. REP001,REP004)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "fail only on findings not recorded in this baseline file "
            "(the ratchet: new findings break the build, baselined "
            "ones are reported but tolerated)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        nargs="?",
        const=DEFAULT_BASELINE_PATH,
        metavar="PATH",
        help=(
            "record the current findings as the new baseline "
            f"(default path: {DEFAULT_BASELINE_PATH}) and exit 0"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule}: {RULE_SUMMARIES[rule]}")
        return 0

    paths = args.paths or [default_target()]
    rules = None
    if args.rules:
        rules = [code.strip() for code in args.rules.split(",") if code.strip()]
    try:
        findings, errors = lint_paths(paths, rules=rules)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    if args.update_baseline:
        with open(args.update_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(findings))
        print(
            f"{args.update_baseline}: recorded {len(findings)} finding(s)",
            file=sys.stderr,
        )
        return 2 if errors else 0

    matched = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot read baseline {args.baseline!r}: {exc}")
        findings, matched = apply_baseline(findings, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "errors": errors,
                    "baselined": matched,
                },
                indent=2,
            )
        )
    else:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        for finding in findings:
            print(finding.render())
        if findings or matched:
            suffix = f" ({matched} baselined)" if matched else ""
            print(f"{len(findings)} finding(s){suffix}", file=sys.stderr)

    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
