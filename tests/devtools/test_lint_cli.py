"""CLI-level tests for ``repro lint`` and the shipped-tree zero-findings gate.

One command runs the per-file rules (``RPL0xx``) and the whole-program
passes (``RPL1xx``); the tests below exercise both decades through every
output format and filter.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import RULE_TABLE
from repro.devtools.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One per-file finding (RPL002) and one whole-program finding (RPL101).
DIRTY_SOURCE = (
    "import random\n"
    "import numpy as np\n"
    "\n"
    "def fresh():\n"
    "    return np.random.default_rng()\n"
)


def write_dirty(tmp_path: Path) -> Path:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    return dirty


def _json_run(argv: list, capsys: pytest.CaptureFixture) -> dict:
    lint_main(["--format", "json"] + argv)
    return json.loads(capsys.readouterr().out)


def test_shipped_tree_has_zero_findings(capsys: pytest.CaptureFixture) -> None:
    """The gate `make lint` runs on the main tree must be clean."""
    paths = [str(REPO_ROOT / name) for name in ("src", "benchmarks", "examples")]
    exit_code = lint_main(paths)
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out
    assert "0 findings" in captured.out


def test_repro_cli_exposes_lint_subcommand(capsys: pytest.CaptureFixture) -> None:
    from repro.cli import main as repro_main

    exit_code = repro_main(["lint", "--list-rules"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out
    assert "RPL001" in captured.out
    assert "RPL110" in captured.out


def test_json_output_on_dirty_file(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    exit_code = lint_main(["--format", "json", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    assert payload["files_checked"] == 1
    assert [finding["code"] for finding in payload["findings"]] == [
        "RPL002",
        "RPL101",
    ]
    assert payload["findings"][0]["line"] == 1
    assert payload["findings"][1]["line"] == 5


def test_select_and_ignore_filters(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        DIRTY_SOURCE
        + "\n"
        + "def collect(bucket=[]):\n"
        + "    return bucket\n"
    )
    selected = _json_run(["--select", "RPL030,RPL101", str(dirty)], capsys)
    assert [f["code"] for f in selected["findings"]] == ["RPL101", "RPL030"]

    ignored = _json_run(["--ignore", "RPL030,RPL101", str(dirty)], capsys)
    assert [f["code"] for f in ignored["findings"]] == ["RPL002"]

    # A filter that leaves nothing is a clean run.
    assert lint_main(["--select", "RPL102", str(dirty)]) == 0
    capsys.readouterr()
    assert lint_main(["--ignore", "RPL002,RPL030,RPL101", str(dirty)]) == 0
    capsys.readouterr()


def test_unknown_code_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert lint_main(["--select", "RPL999", "."]) == 2
    captured = capsys.readouterr()
    assert "RPL999" in captured.err
    # Codes folded into wider rules are gone, not silently accepted.
    assert lint_main(["--ignore", "RPL005", "."]) == 2
    assert "RPL005" in capsys.readouterr().err


def test_list_rules_mentions_every_code(capsys: pytest.CaptureFixture) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == [rule["code"] for rule in RULE_TABLE]
    assert "RPL020" in listed and "RPL110" in listed
    for folded in ("RPL005", "RPL010", "RPL022", "RPL023", "RPL100"):
        assert folded not in listed

    assert lint_main(["--list-rules", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [rule["code"] for rule in payload] == listed
