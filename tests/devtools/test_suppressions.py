"""Edge-case tests for the ``# repro: noqa`` suppression parser.

``repro lint`` applies the directives once, to per-file and
whole-program findings alike, so the grammar's corner cases --
multi-code lists, bare directives, missing reasons, and exact-line
placement around decorators -- are pinned here once.
"""

from __future__ import annotations

from repro.devtools.lint import lint_source
from repro.devtools.lint.engine import _apply_noqa, parse_noqa_directives
from repro.devtools.lint.findings import Finding


def _finding(code: str, line: int) -> Finding:
    return Finding(code=code, message="m", path="x.py", line=line, col=0)


def test_multi_code_directive_suppresses_each_listed_code() -> None:
    source = "value = risky()  # repro: noqa=RPL003, RPL102 -- fixture\n"
    directives = parse_noqa_directives(source)
    assert directives == {1: {"RPL003", "RPL102"}}
    kept = _apply_noqa(
        [_finding("RPL003", 1), _finding("RPL102", 1), _finding("RPL001", 1)],
        directives,
    )
    assert [finding.code for finding in kept] == ["RPL001"]


def test_multi_code_whitespace_variants_parse_identically() -> None:
    tight = parse_noqa_directives("x = 1  # repro: noqa=RPL003,RPL102\n")
    spaced = parse_noqa_directives("x = 1  #repro:noqa = RPL003 , RPL102\n")
    assert tight == spaced == {1: {"RPL003", "RPL102"}}


def test_bare_directive_suppresses_every_code() -> None:
    directives = parse_noqa_directives("x = 1  # repro: noqa\n")
    assert directives == {1: None}
    kept = _apply_noqa(
        [_finding("RPL001", 1), _finding("RPL030", 1)], directives
    )
    assert kept == []


def test_missing_reason_still_parses() -> None:
    """The ``-- reason`` suffix is a convention, not part of the grammar;
    a directive without it must still suppress."""
    directives = parse_noqa_directives("x = 1  # repro: noqa=RPL001\n")
    assert directives == {1: {"RPL001"}}
    assert _apply_noqa([_finding("RPL001", 1)], directives) == []


def test_malformed_code_list_falls_back_to_bare_directive() -> None:
    """``noqa=banana`` has no parseable code list; the regex matches the
    bare prefix, so the line suppresses everything rather than nothing."""
    directives = parse_noqa_directives("x = 1  # repro: noqa=banana\n")
    assert directives == {1: None}


def test_directive_only_covers_its_own_line() -> None:
    directives = parse_noqa_directives(
        "a = risky()  # repro: noqa=RPL001\nb = risky()\n"
    )
    kept = _apply_noqa(
        [_finding("RPL001", 1), _finding("RPL001", 2)], directives
    )
    assert [finding.line for finding in kept] == [2]


def test_decorator_line_directive_does_not_cover_the_def_line() -> None:
    """Findings anchor to the ``def`` line, not the decorator above it;
    a directive on the decorator line must not leak downward."""
    on_decorator = (
        "import functools\n"
        "@functools.cache  # repro: noqa=RPL030 -- wrong line\n"
        "def collect(bucket=[]):\n"
        "    return bucket\n"
    )
    findings = lint_source(on_decorator, path="x.py")
    assert [finding.code for finding in findings] == ["RPL030"]
    assert findings[0].line == 3

    on_def = (
        "import functools\n"
        "@functools.cache\n"
        "def collect(bucket=[]):  # repro: noqa=RPL030 -- shared sentinel\n"
        "    return bucket\n"
    )
    assert lint_source(on_def, path="x.py") == []
