"""SARIF serializer tests, and the SARIF output of ``repro lint``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import RULE_TABLE
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    render_sarif,
    to_sarif,
)

RULES = (
    {"code": "RPL001", "name": "legacy-rng", "summary": "legacy rng"},
    {"code": "RPL002", "name": "stdlib-random", "summary": "stdlib random"},
)


def test_log_shape_and_rule_metadata() -> None:
    finding = Finding(
        code="RPL002", message="boom", path="src\\x.py", line=3, col=4
    )
    log = to_sarif([finding], RULES, tool_name="repro-lint")
    assert log["$schema"] == SARIF_SCHEMA
    assert log["version"] == SARIF_VERSION
    driver = log["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert [rule["id"] for rule in driver["rules"]] == ["RPL001", "RPL002"]
    result = log["runs"][0]["results"][0]
    assert result["ruleId"] == "RPL002"
    assert result["ruleIndex"] == 1
    assert result["level"] == "warning"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/x.py"  # posix-normalized
    assert location["region"]["startLine"] == 3
    assert location["region"]["startColumn"] == 5  # SARIF columns are 1-based


def test_results_sorted_and_unknown_rule_has_no_index() -> None:
    findings = [
        Finding(code="RPL999", message="later", path="b.py", line=9, col=0),
        Finding(code="RPL001", message="first", path="a.py", line=1, col=0),
    ]
    log = to_sarif(findings, RULES, tool_name="t")
    results = log["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["RPL001", "RPL999"]
    assert "ruleIndex" not in results[1]


def test_render_sarif_is_valid_json() -> None:
    payload = json.loads(render_sarif([], RULES, tool_name="t"))
    assert payload["runs"][0]["results"] == []


def test_lint_cli_sarif_output(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    """One SARIF run carries both rule decades: a per-file finding and a
    whole-program one, each indexed into the one rule table."""
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "import random\n"
        "import numpy as np\n"
        "rng = np.random.default_rng()\n",
        encoding="utf-8",
    )
    exit_code = lint_main(["--sarif", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    codes = [rule["code"] for rule in RULE_TABLE]
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == codes
    assert [r["ruleId"] for r in run["results"]] == ["RPL002", "RPL101"]
    assert [r["ruleIndex"] for r in run["results"]] == [
        codes.index("RPL002"),
        codes.index("RPL101"),
    ]
