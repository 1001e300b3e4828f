"""CLI-level tests for the whole-program rules (``RPL1xx``).

The provenance, escape and purity passes of :mod:`repro.devtools.flow`
report through ``repro lint``, the one analyzer CLI.  These tests drive
that CLI on a file whose only finding is a whole-program one, so each
format and filter is checked on the ``RPL1xx`` decade by itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.rules import PROGRAM_RULES, RULE_TABLE

DIRTY_SOURCE = (
    "import numpy as np\n"
    "\n"
    "def fresh():\n"
    "    return np.random.default_rng()\n"
)


def write_dirty(tmp_path: Path) -> Path:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    return dirty


def test_json_output_on_dirty_file(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    exit_code = lint_main(["--format", "json", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    assert payload["files_checked"] == 1
    assert [finding["code"] for finding in payload["findings"]] == ["RPL101"]
    assert payload["findings"][0]["line"] == 4


def test_sarif_output_names_the_flow_tool(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    """Whole-program findings are reported by the one tool, ``repro-lint``,
    whose rule list carries every ``RPL1xx`` code."""
    dirty = write_dirty(tmp_path)
    exit_code = lint_main(["--sarif", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    listed = [r["id"] for r in run["tool"]["driver"]["rules"]]
    for rule in PROGRAM_RULES:
        assert rule["code"] in listed
    assert [r["ruleId"] for r in run["results"]] == ["RPL101"]
    assert run["results"][0]["ruleIndex"] == listed.index("RPL101")


def test_select_and_ignore_filters(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    assert lint_main(["--select", "RPL102", str(dirty)]) == 0
    capsys.readouterr()
    assert lint_main(["--ignore", "RPL101", str(dirty)]) == 0
    capsys.readouterr()
    assert lint_main(["--select", "RPL101", str(dirty)]) == 1
    capsys.readouterr()


def test_unknown_code_and_missing_path_are_usage_errors(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    assert lint_main(["--select", "RPL999", str(tmp_path)]) == 2
    assert "RPL999" in capsys.readouterr().err
    # The loader's parse error is RPL000; its old whole-program code is gone.
    assert lint_main(["--select", "RPL100", str(tmp_path)]) == 2
    assert "RPL100" in capsys.readouterr().err
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_mentions_every_flow_code(
    capsys: pytest.CaptureFixture,
) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in PROGRAM_RULES:
        assert rule["code"] in out
    # The whole-program codes close the one rule table.
    codes = [rule["code"] for rule in RULE_TABLE]
    assert codes[-len(PROGRAM_RULES):] == [rule["code"] for rule in PROGRAM_RULES]
