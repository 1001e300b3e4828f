"""Per-file engine of the RPL analyzer.

:class:`ModuleInfo` precomputes the facts every rule needs from one
parsed file (import aliases, parent links, per-scope name bindings, and
``# repro: noqa`` suppressions); :func:`run_rules` runs each per-file
rule over it as an :mod:`ast` visitor.  Rules stay tiny: they
pattern-match nodes and call :meth:`Rule.report`; everything positional
or contextual lives here.  The whole-program passes share the same
``ModuleInfo`` objects (see :func:`repro.devtools.lint.cli.analyze_paths`).

Suppression syntax, checked per finding line::

    risky_call()  # repro: noqa=RPL003 -- justification
    risky_call()  # repro: noqa -- suppress every rule on this line
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

from repro.devtools.lint.findings import Finding

#: Code of the finding reported for a file that does not parse.
PARSE_ERROR_CODE = "RPL000"

#: Matches ``# repro: noqa`` and ``# repro: noqa=RPL001,RPL002`` comments.
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\s*=\s*(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*))?"
)

#: ``numpy`` functions whose return value is treated as an ndarray by the
#: vectorization rules.  Deliberately a whitelist: unknown calls stay
#: unclassified rather than producing false positives.
ARRAY_RETURNING_NUMPY_FUNCTIONS = frozenset(
    {
        "arange",
        "argsort",
        "array",
        "asarray",
        "bincount",
        "concatenate",
        "cumsum",
        "empty",
        "flatnonzero",
        "full",
        "hstack",
        "linspace",
        "nonzero",
        "ones",
        "repeat",
        "sort",
        "unique",
        "vstack",
        "where",
        "zeros",
    }
)

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPE_NODES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parse_noqa_directives(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions: line -> codes (``None`` means all codes)."""
    directives: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            directives[lineno] = None
        else:
            directives[lineno] = {part.strip() for part in codes.split(",")}
    return directives


class ModuleInfo:
    """Everything about one parsed module that rules share.

    Attributes
    ----------
    path:
        The file's path as given to the engine (kept verbatim so findings
        are reported against what the user typed).
    tree:
        The parsed module AST, with parent links available through
        :meth:`parent` / :meth:`ancestors`.
    numpy_aliases / numpy_random_aliases:
        Local names bound to the ``numpy`` and ``numpy.random`` modules.
    imported_names:
        Local name -> fully dotted origin for ``from x import y`` names.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.noqa = parse_noqa_directives(source)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.numpy_aliases: Set[str] = set()
        self.numpy_random_aliases: Set[str] = set()
        self.imported_names: Dict[str, str] = {}
        self._collect_imports()
        self._bindings: Dict[int, Dict[str, str]] = {}
        for scope in ast.walk(tree):
            if isinstance(scope, _SCOPE_NODES):
                self._bindings[id(scope)] = self._collect_bindings(scope)

    # -- import table ---------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy_aliases.add(bound)
                    elif alias.name == "numpy.random" and alias.asname:
                        self.numpy_random_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    origin = f"{node.module}.{alias.name}"
                    self.imported_names[bound] = origin
                    if origin == "numpy.random":
                        self.numpy_random_aliases.add(bound)

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of an expression, if resolvable.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; a bare ``default_rng`` resolves the
        same way under ``from numpy.random import default_rng``.  Returns
        ``None`` for anything that is not a (possibly aliased) dotted name.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        parts.reverse()
        if base in self.numpy_aliases:
            return ".".join(["numpy"] + parts)
        if base in self.numpy_random_aliases:
            return ".".join(["numpy", "random"] + parts)
        if base in self.imported_names:
            return ".".join([self.imported_names[base]] + parts)
        return ".".join([base] + parts)

    # -- tree topology --------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The node's syntactic parent (``None`` for the module)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        """The innermost function the node sits in, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """The innermost binding scope (function, lambda, or module)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, _SCOPE_NODES):
                return ancestor
        return self.tree

    def qualname(self, node: ast.AST) -> str:
        """Dotted name of the enclosing definitions, e.g. ``App.is_free``."""
        names: List[str] = []
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(ancestor.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.insert(0, node.name)
        return ".".join(reversed(names))

    def in_loop(self, node: ast.AST) -> bool:
        """Whether the node executes repeatedly inside its own function.

        ``for``/``while`` bodies and comprehension element expressions
        count; the walk stops at the first function boundary, so a loop
        in an *outer* function does not taint a nested definition.
        """
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.Lambda):
                return False
            if isinstance(ancestor, _LOOP_NODES):
                return True
            if isinstance(ancestor, _COMPREHENSION_NODES):
                # Everything but the first generator's iterable re-runs
                # once per element.
                first_iter = ancestor.generators[0].iter
                if not any(child is node for child in ast.walk(first_iter)):
                    return True
        return False

    # -- lightweight local type facts -----------------------------------

    def _classify_value(self, value: ast.AST) -> Optional[str]:
        """Classify an expression as ``"set"`` / ``"ndarray"`` if obvious."""
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            dotted = self.resolve_dotted(value.func)
            if dotted in ("set", "frozenset", "builtins.set", "builtins.frozenset"):
                return "set"
            if dotted is not None and self.is_array_returning(dotted):
                return "ndarray"
        return None

    def _classify_annotation(self, annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        dotted = self.resolve_dotted(annotation)
        if dotted in ("numpy.ndarray",):
            return "ndarray"
        if dotted in ("set", "frozenset", "typing.Set", "typing.FrozenSet"):
            return "set"
        if isinstance(annotation, ast.Subscript):
            return self._classify_annotation(annotation.value)
        return None

    def is_array_returning(self, dotted: str) -> bool:
        """Whether a resolved call target is a known array constructor."""
        if not dotted.startswith("numpy."):
            return False
        return dotted.rsplit(".", 1)[-1] in ARRAY_RETURNING_NUMPY_FUNCTIONS

    def _collect_bindings(self, scope: ast.AST) -> Dict[str, str]:
        """Name -> kind for one scope, from assignments and annotations.

        A name keeps a classification only when every assignment to it in
        the scope agrees; conflicting writes drop it to unknown.
        """
        bindings: Dict[str, str] = {}
        conflicted: Set[str] = set()

        def record(name: str, kind: Optional[str]) -> None:
            if kind is None:
                conflicted.add(name)
            elif bindings.get(name, kind) != kind:
                conflicted.add(name)
            else:
                bindings[name] = kind

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            all_args = list(scope.args.posonlyargs) + list(scope.args.args)
            all_args += list(scope.args.kwonlyargs)
            for arg in all_args:
                kind = self._classify_annotation(arg.annotation)
                if kind is not None:
                    record(arg.arg, kind)
        for node in ast.walk(scope):
            if node is not scope and isinstance(node, _SCOPE_NODES):
                # Nested scopes keep their own tables.
                continue
            if self.enclosing_scope(node) is not scope:
                continue
            if isinstance(node, ast.Assign):
                kind = self._classify_value(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        record(target.id, kind)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                kind = self._classify_annotation(node.annotation)
                if kind is None and node.value is not None:
                    kind = self._classify_value(node.value)
                record(node.target.id, kind)
        for name in sorted(conflicted):
            bindings.pop(name, None)
        return bindings

    def name_kind(self, node: ast.AST) -> Optional[str]:
        """Classification of a ``Name`` load, looked up in its scope chain."""
        if not isinstance(node, ast.Name):
            return None
        scope: Optional[ast.AST] = self.enclosing_scope(node)
        while scope is not None:
            kind = self._bindings.get(id(scope), {}).get(node.id)
            if kind is not None:
                return kind
            scope = None if isinstance(scope, ast.Module) else self.parent(scope)
            while scope is not None and not isinstance(scope, _SCOPE_NODES):
                scope = self.parent(scope)
        return None

    def expression_kind(self, node: ast.AST) -> Optional[str]:
        """Classification of an arbitrary expression (value or name)."""
        direct = self._classify_value(node)
        if direct is not None:
            return direct
        return self.name_kind(node)


class Rule(ast.NodeVisitor):
    """Base class of all lint rules.

    Subclasses set ``code``, ``name``, and ``summary`` and implement
    ``visit_*`` methods that call :meth:`report`.  One instance is created
    per (rule, module) pair, so per-module state can live on ``self``.
    """

    code: str = "RPL000"
    name: str = "abstract-rule"
    summary: str = ""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation at a node's location."""
        self.findings.append(
            Finding(
                code=self.code,
                message=message,
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    def run(self) -> List[Finding]:
        """Visit the module and return this rule's findings."""
        self.visit(self.module.tree)
        return self.findings


def parse_error(error: SyntaxError, path: str) -> Finding:
    """The ``RPL000`` finding for a file that does not parse."""
    return Finding(
        code=PARSE_ERROR_CODE,
        message=f"syntax error: {error.msg}",
        path=path,
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
    )


def suppressed(finding: Finding, noqa: Dict[int, Optional[Set[str]]]) -> bool:
    """Whether a ``# repro: noqa`` directive on the finding's line covers it."""
    if finding.line not in noqa:
        return False
    codes = noqa[finding.line]
    return codes is None or finding.code in codes


def _apply_noqa(
    findings: Iterable[Finding], noqa: Dict[int, Optional[Set[str]]]
) -> List[Finding]:
    return [finding for finding in findings if not suppressed(finding, noqa)]


def run_rules(
    module: ModuleInfo, rules: Optional[Sequence[Type[Rule]]] = None
) -> List[Finding]:
    """Findings of the per-file rules on one module, before noqa."""
    if rules is None:
        from repro.devtools.lint.rules import RULES

        rules = RULES
    findings: List[Finding] = []
    for rule_class in rules:
        findings.extend(rule_class(module).run())
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> List[Finding]:
    """Run the per-file rules on one source string; returns sorted,
    noqa-filtered findings."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [parse_error(error, path)]
    module = ModuleInfo(path=path, source=source, tree=tree)
    return sorted(
        _apply_noqa(run_rules(module, rules), module.noqa), key=Finding.sort_key
    )


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path
