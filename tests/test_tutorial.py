"""The tutorial's console blocks against real runs.

Sections 10, 12 and 14 of ``docs/tutorial.md`` show what ``repro``
commands print.  Each test runs the ``$`` commands of one section's blocks in a
fresh directory, in order, and compares the output line by line with
the block; a block line containing ``...`` matches when its parts appear
in the output line in order, the first at its start and the last at its
end.  A command that prints ``first difference`` must exit 1, any other
0, as the tutorial says.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main

TUTORIAL = Path(__file__).resolve().parents[1] / "docs" / "tutorial.md"

# Section number -> how many of its console blocks to run (section 10's
# second block, a shell diff of two runs, and section 14's second, a
# load-generator run, are not checked).
SECTIONS = {10: 1, 12: 4, 14: 1}

_EDITED = re.compile(r"day (\d+), column total_downloads, app (\d+):")


def console_blocks(section):
    text = TUTORIAL.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}. ", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```console\n(.*?)```", body, re.S)


def commands(block):
    """``(argv, expected lines)`` for each ``$`` command of a block; a
    command line ending in a backslash continues on the next line."""
    runs = []
    lines = block.splitlines()
    while lines:
        line = lines.pop(0)
        assert line.startswith("$ "), line
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + " " + lines.pop(0).strip()
        expected = []
        while lines and not lines[0].startswith("$ "):
            expected.append(lines.pop(0))
        argv = shlex.split(command)
        assert argv[0] == "repro", command
        runs.append((argv[1:], expected))
    return runs


def matches(expected, actual):
    parts = expected.split("...")
    return re.fullmatch(".*".join(map(re.escape, parts)), actual, re.S) is not None


def write_changed_copy(expected):
    """``changed.jsonl``: a copy of ``crawl.jsonl`` with one app's
    download count on one day raised by one -- the app and day the
    block's ``store diff`` line names."""
    day, app_id = map(int, _EDITED.search(expected[0]).groups())
    edited = 0
    with open("crawl.jsonl", encoding="utf-8") as source:
        records = [json.loads(line) for line in source]
    for record in records:
        if record["kind"] == "snapshot" and (record["day"], record["app_id"]) == (day, app_id):
            record["total_downloads"] += 1
            edited += 1
    assert edited == 1
    with open("changed.jsonl", "w", encoding="utf-8") as target:
        target.writelines(json.dumps(record) + "\n" for record in records)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_console_blocks_match_a_real_run(section, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = console_blocks(section)[: SECTIONS[section]]
    assert len(blocks) == SECTIONS[section]
    for block in blocks:
        for argv, expected in commands(block):
            if "changed.jsonl" in argv:
                write_changed_copy(expected)
            output = io.StringIO()
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                code = main(argv)
            actual = output.getvalue().splitlines()
            assert code == (1 if expected[0].startswith("first difference") else 0)
            assert len(actual) == len(expected), (argv, actual)
            for want, got in zip(expected, actual):
                assert matches(want, got), (argv, want, got)
