"""SARIF 2.1.0 serialization for ``repro lint --sarif``.

SARIF is the interchange format GitHub code scanning ingests, so one
``upload-sarif`` step in CI turns the analyzer's findings into inline
PR annotations.  The serializer is deliberately minimal: one run, one
tool driver, rule metadata from the caller, and one result per finding
with a physical location (SARIF columns are 1-based; ``Finding.col``
follows ``ast`` and is 0-based).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.devtools.lint.findings import Finding

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def to_sarif(
    findings: Iterable[Finding],
    rules: Sequence[Mapping[str, str]],
    tool_name: str,
    information_uri: str = "https://github.com/repro/repro",
) -> Dict:
    """Build a SARIF log dict from findings plus rule metadata.

    ``rules`` entries carry ``code``, ``name``, and ``summary`` keys (the
    shape of :data:`repro.devtools.lint.rules.RULE_TABLE`).
    """
    descriptors: List[Dict] = [
        {
            "id": rule["code"],
            "name": rule["name"],
            "shortDescription": {"text": rule["summary"]},
        }
        for rule in rules
    ]
    index_of = {rule["code"]: index for index, rule in enumerate(rules)}
    results: List[Dict] = []
    for finding in sorted(findings, key=Finding.sort_key):
        result: Dict = {
            "ruleId": finding.code,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.code in index_of:
            result["ruleIndex"] = index_of[finding.code]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": information_uri,
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Iterable[Finding],
    rules: Sequence[Mapping[str, str]],
    tool_name: str,
) -> str:
    """The SARIF log as a JSON string, ready to print or write."""
    return json.dumps(to_sarif(findings, rules, tool_name), indent=2)
