"""``repro lint``: the repository's one static analyzer.

The given paths load once into a :class:`~repro.devtools.flow.program.
Program`, which holds one :class:`~repro.devtools.lint.engine.ModuleInfo`
per file.  The per-file rules run on each module, the three
whole-program passes of :mod:`repro.devtools.flow` run on the program,
and ``# repro: noqa`` applies once to everything they report.  Listing,
filtering and every output format read one table,
:data:`~repro.devtools.lint.rules.RULE_TABLE`.

Exit codes: 0 clean, 1 findings, 2 usage errors (unknown path or rule
code).  ``--format json`` emits a machine-readable object so CI and
editors can consume findings without scraping text; ``--format sarif``
(``--sarif``) feeds GitHub code scanning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.devtools.lint.engine import run_rules, suppressed
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.rules import RULE_TABLE
from repro.devtools.lint.sarif import render_sarif


def analyze_paths(paths: Sequence[str]) -> Tuple[List[Finding], int]:
    """Run every rule over a tree; returns (sorted findings, files checked)."""
    # The passes build on the lint engine, which imports this package.
    from repro.devtools.flow.escape import run_escape
    from repro.devtools.flow.program import Program
    from repro.devtools.flow.provenance import run_provenance
    from repro.devtools.flow.purity import run_purity

    program = Program.load(paths)
    findings: List[Finding] = list(program.errors)
    for module in program.modules.values():
        findings.extend(run_rules(module))
    findings.extend(run_provenance(program))
    findings.extend(run_escape(program))
    findings.extend(run_purity(program))
    noqa_by_path = {
        module.path: module.noqa for module in program.modules.values()
    }
    kept = [
        finding
        for finding in findings
        if not suppressed(finding, noqa_by_path.get(finding.path, {}))
    ]
    kept.sort(key=Finding.sort_key)
    return kept, len(program.modules) + len(program.errors)


def _parse_code_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    codes = [part.strip() for part in raw.split(",") if part.strip()]
    unknown = sorted(set(codes) - {rule["code"] for rule in RULE_TABLE})
    if unknown:
        raise ValueError(f"unknown rule codes: {', '.join(unknown)}")
    return codes


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Add the lint arguments to a parser (shared by both entry points)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json", "sarif"],
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        action="store_const",
        const="sarif",
        dest="output_format",
        help="shorthand for --format sarif",
    )
    parser.add_argument(
        "--select", default=None, help="comma-separated codes to enable"
    )
    parser.add_argument(
        "--ignore", default=None, help="comma-separated codes to disable"
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.set_defaults(handler=run_lint)


def add_lint_parser(subparsers) -> None:
    """Register the ``lint`` subcommand on the top-level ``repro`` CLI."""
    parser = subparsers.add_parser(
        "lint",
        help="run the RPL static analyzer (per-file and whole-program rules)",
        description=(
            "Static analysis enforcing the repository's seed-threading, "
            "determinism, and vectorization conventions: per-file AST "
            "rules plus whole-program RNG provenance, process-boundary "
            "escape, and @pure kernel contracts. Suppress one line with "
            "`# repro: noqa=RPLxxx -- reason`."
        ),
    )
    configure_parser(parser)


def _list_rules(output_format: str) -> int:
    if output_format == "json":
        print(json.dumps(list(RULE_TABLE), indent=2))
    else:
        for rule in RULE_TABLE:
            print(f"{rule['code']} [{rule['name']}] {rule['summary']}")
    return 0


def run_lint(args) -> int:
    """Handler behind ``repro lint``."""
    if args.list_rules:
        return _list_rules(args.output_format)
    try:
        selected = _parse_code_list(args.select)
        ignored = _parse_code_list(args.ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    missing = [raw for raw in args.paths if not Path(raw).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    findings, files_checked = analyze_paths(args.paths)
    if selected is not None:
        findings = [f for f in findings if f.code in selected]
    if ignored is not None:
        findings = [f for f in findings if f.code not in ignored]

    if args.output_format == "sarif":
        print(render_sarif(findings, RULE_TABLE, tool_name="repro-lint"))
    elif args.output_format == "json":
        print(
            json.dumps(
                {
                    "files_checked": files_checked,
                    "findings": [finding.to_dict() for finding in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro lint: {len(findings)} {noun} in {files_checked} files")
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.devtools.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="the RPL static analyzer (per-file and whole-program rules)",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    return args.handler(args)
