"""Whole-program model behind the flow passes.

Where the lint engine sees one file at a time, :class:`Program` parses a
whole tree once and links it: dotted module names recovered from the
package layout, a symbol table of every module-level function and class,
re-export canonicalization (``repro.store.open_store`` resolves to its
definition in ``repro.store.disk``), a call-site index (who calls whom,
and from where), and best-effort binding of call arguments to callee
parameters.  The three dataflow passes are clients of this model; none
of them re-parse or re-resolve anything.

Resolution is deliberately *precise over complete*: a name the model
cannot follow resolves to ``None`` and the passes treat it as opaque
rather than guessing.  False positives are the failure mode that kills
an analyzer people must keep at zero findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

from repro.devtools.lint.engine import ModuleInfo, iter_python_files, parse_error
from repro.devtools.lint.findings import Finding

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Canonicalization follows at most this many re-export hops; real
#: chains in the tree are 1-2 deep, so the cap only guards cycles.
_MAX_REEXPORT_HOPS = 8


def module_name_for(path: Path) -> str:
    """Dotted module name recovered from the package layout on disk.

    Walks parent directories while they contain ``__init__.py``; the
    first directory without one is the import root.  ``__init__.py``
    itself names its package.
    """
    resolved = path.resolve()
    parts: List[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(reversed(parts))


def walk_function_body(func: FunctionNode) -> Iterator[ast.AST]:
    """Yield the nodes of a function's own body, skipping nested defs."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionInfo:
    """One module-level function or method, linked to its module."""

    qualname: str
    module: ModuleInfo
    node: FunctionNode
    class_name: Optional[str] = None

    @property
    def positional_params(self) -> List[str]:
        args = self.node.args
        return [p.arg for p in list(args.posonlyargs) + list(args.args)]

    @property
    def param_names(self) -> Set[str]:
        args = self.node.args
        names = set(self.positional_params)
        names.update(p.arg for p in args.kwonlyargs)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        return names

    def return_expressions(self) -> List[ast.AST]:
        """Value expressions of this function's own ``return`` statements."""
        return [
            node.value
            for node in walk_function_body(self.node)
            if isinstance(node, ast.Return) and node.value is not None
        ]


@dataclass
class ClassInfo:
    """One module-level class with its directly-defined methods."""

    qualname: str
    module: ModuleInfo
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression, with the function it occurs inside (if any)."""

    module: ModuleInfo
    node: ast.Call
    caller: Optional[FunctionInfo]


class Program:
    """A parsed, cross-linked view of one or more source trees."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: callee qualname -> every resolved call site targeting it.
        self.callers: Dict[str, List[CallSite]] = {}
        #: Parse failures, as RPL000 findings.
        self.errors: List[Finding] = []
        self._names_by_module: Dict[int, str] = {}
        self._info_by_node: Dict[int, FunctionInfo] = {}
        self._import_aliases: Dict[int, Dict[str, str]] = {}
        self._callees_cache: Dict[str, Set[str]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def load(cls, paths: Sequence[str]) -> "Program":
        """Parse every ``.py`` file under the given files/directories."""
        program = cls()
        for file_path in iter_python_files(paths):
            source = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source)
            except SyntaxError as error:
                program.errors.append(parse_error(error, str(file_path)))
                continue
            module = ModuleInfo(path=str(file_path), source=source, tree=tree)
            name = module_name_for(file_path)
            if name in program.modules:
                # Two files claim one dotted name (same-named scripts in
                # different non-package directories).  Keep both: the
                # later one under its path, which no import resolves to.
                name = str(file_path)
            program.modules[name] = module
            program._names_by_module[id(module)] = name
            program._import_aliases[id(module)] = cls._collect_plain_imports(tree)
        program._index_definitions()
        program._index_call_sites()
        return program

    @staticmethod
    def _collect_plain_imports(tree: ast.Module) -> Dict[str, str]:
        """Bound name -> dotted module for ``import x.y as z`` statements.

        ``ModuleInfo`` only tracks numpy this way; the program model needs
        the general table to resolve e.g. ``import concurrent.futures``.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        aliases[alias.asname] = alias.name
        return aliases

    def _index_definitions(self) -> None:
        for mod_name, module in self.modules.items():
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(mod_name, module, stmt, None)
                elif isinstance(stmt, ast.ClassDef):
                    cls_info = ClassInfo(
                        qualname=f"{mod_name}.{stmt.name}",
                        module=module,
                        node=stmt,
                    )
                    self.classes[cls_info.qualname] = cls_info
                    for item in stmt.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            method = self._add_function(
                                mod_name, module, item, stmt.name
                            )
                            cls_info.methods[item.name] = method

    def _add_function(
        self,
        mod_name: str,
        module: ModuleInfo,
        node: FunctionNode,
        class_name: Optional[str],
    ) -> FunctionInfo:
        middle = f"{class_name}." if class_name else ""
        info = FunctionInfo(
            qualname=f"{mod_name}.{middle}{node.name}",
            module=module,
            node=node,
            class_name=class_name,
        )
        self.functions[info.qualname] = info
        self._info_by_node[id(node)] = info
        return info

    def _index_call_sites(self) -> None:
        for module in self.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                caller = self.enclosing_function_info(module, node)
                callee = self.resolve_callee(module, node, caller)
                if callee in self.functions:
                    self.callers.setdefault(callee, []).append(
                        CallSite(module=module, node=node, caller=caller)
                    )

    # -- resolution ------------------------------------------------------

    def module_name(self, module: ModuleInfo) -> str:
        """The dotted name this program loaded the module under."""
        return self._names_by_module.get(id(module), "")

    def resolve(self, module: ModuleInfo, node: ast.AST) -> Optional[str]:
        """``resolve_dotted`` plus the generic ``import x as y`` table."""
        dotted = module.resolve_dotted(node)
        if dotted is None:
            return None
        aliases = self._import_aliases.get(id(module), {})
        head, sep, rest = dotted.partition(".")
        if head in aliases:
            dotted = aliases[head] + (f".{rest}" if sep else "")
        return dotted

    def canonicalize(self, dotted: Optional[str]) -> Optional[str]:
        """Follow re-export chains until a definition site (or fixpoint).

        ``repro.store.open_store`` canonicalizes to
        ``repro.store.disk.open_store`` because ``repro.store``'s
        ``__init__`` imports it from there.
        """
        if dotted is None:
            return None
        current = dotted
        for _ in range(_MAX_REEXPORT_HOPS):
            if current in self.functions or current in self.classes:
                return current
            parts = current.split(".")
            replaced = False
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                module = self.modules.get(prefix)
                if module is None:
                    continue
                origin = module.imported_names.get(parts[cut])
                if origin is not None and origin != current:
                    current = ".".join([origin] + parts[cut + 1 :])
                    replaced = True
                break
            if not replaced:
                break
        return current

    def resolve_callee(
        self,
        module: ModuleInfo,
        call: ast.Call,
        caller: Optional[FunctionInfo],
    ) -> Optional[str]:
        """Qualname of the function/class a call targets, if in-program."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller is not None
            and caller.class_name is not None
        ):
            mod_name = self.module_name(module)
            candidate = f"{mod_name}.{caller.class_name}.{func.attr}"
            if candidate in self.functions:
                return candidate
        dotted = self.resolve(module, func)
        if dotted is None:
            return None
        canonical = self.canonicalize(dotted)
        if canonical not in self.functions and canonical not in self.classes:
            # A bare local name: qualify against the defining module.
            local = f"{self.module_name(module)}.{dotted}"
            if local in self.functions or local in self.classes:
                return local
        return canonical

    def enclosing_function_info(
        self, module: ModuleInfo, node: ast.AST
    ) -> Optional[FunctionInfo]:
        """The indexed function a node sits in (nested defs resolve to
        their nearest indexed ancestor)."""
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._info_by_node.get(id(ancestor))
                if info is not None:
                    return info
        return None

    # -- call graph ------------------------------------------------------

    def callees_of(self, qualname: str) -> Set[str]:
        """In-program functions a function calls directly (cached)."""
        cached = self._callees_cache.get(qualname)
        if cached is not None:
            return cached
        info = self.functions.get(qualname)
        callees: Set[str] = set()
        if info is not None:
            for node in walk_function_body(info.node):
                if isinstance(node, ast.Call):
                    target = self.resolve_callee(info.module, node, info)
                    if target in self.functions:
                        callees.add(target)
        self._callees_cache[qualname] = callees
        return callees

    def parameters_bound(
        self, callee: FunctionInfo, call: ast.Call
    ) -> Dict[str, List[ast.AST]]:
        """Best-effort map of callee parameter -> argument expressions.

        Bound-method calls (``obj.meth(...)``) shift positional binding
        past ``self``/``cls``.  ``*args`` splats stop positional binding
        at the splat; keywords bind by name.
        """
        positional = callee.positional_params
        offset = 0
        if (
            callee.class_name is not None
            and isinstance(call.func, ast.Attribute)
            and positional
            and positional[0] in ("self", "cls")
        ):
            offset = 1
        bound: Dict[str, List[ast.AST]] = {}
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            slot = index + offset
            if slot < len(positional):
                bound.setdefault(positional[slot], []).append(arg)
        names = callee.param_names
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in names:
                bound.setdefault(keyword.arg, []).append(keyword.value)
        return bound
