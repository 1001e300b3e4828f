"""Process-boundary escape pass: what actually crosses into workers.

Starting from every payload expression of a process-pool dispatch
(``submit``/``map``/...), the pass chases values backwards through local
assignments, container displays, dataclass constructor fields,
in-program function returns, and -- when a payload is a parameter --
the arguments of every caller, up to a small depth.  Anything in that
closure whose origin is a forbidden resource is flagged:

- ``RPL110`` -- ``np.random.Generator`` (pickling duplicates the
  stream; parent and worker silently share draws);
- ``RPL111`` -- mmap-backed store handles from
  ``repro.store.disk.open_store`` / ``np.load(mmap_mode=...)`` (the
  mapping cannot cross a process);
- ``RPL112`` -- open file handles;
- ``RPL113`` -- ``MetricsRegistry`` instances (workers must keep
  private registries, merged deterministically after join).

A parameter the program never calls with anything is an entry point:
its value comes from outside, so only its name can say what it holds.
One named ``rng``, ``*_rng`` or ``*rngs`` counts as a Generator origin.

``SeedSequence`` is deliberately *not* a forbidden origin: seeds and
their spawned children are the sanctioned cross-process currency.
Otherwise unresolvable expressions stop the walk silently -- precision
over recall, as everywhere in the whole-program passes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint.engine import ModuleInfo
from repro.devtools.lint.findings import Finding
from repro.devtools.flow.program import (
    FunctionInfo,
    Program,
    walk_function_body,
)

#: Executor methods that pickle their arguments into a worker.
_DISPATCH_METHODS = frozenset(
    {
        "submit",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
    }
)

_EXECUTOR_TYPES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Receiver names treated as executors even without a visible
#: construction site (executors passed in as parameters).
_EXECUTOR_NAMES = frozenset({"pool", "executor"})

_RNG_ORIGINS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "repro.stats.rng.make_rng",
        "repro.stats.rng.spawn_rngs",
    }
)

#: (code, kind, remedy) of a Generator reaching a payload.
_GENERATOR_ESCAPE = (
    "RPL110",
    "np.random.Generator",
    "ship a seed or SeedSequence child and build the Generator in the worker",
)

_STORE_ORIGINS = frozenset({"repro.store.disk.open_store"})

_FILE_ORIGINS = frozenset({"open", "builtins.open", "io.open", "gzip.open"})

_REGISTRY_ORIGINS = frozenset(
    {
        "repro.obs.metrics.MetricsRegistry",
        "repro.obs.metrics.get_registry",
    }
)

#: Builtins whose return value contains their arguments.
_CONTAINER_WRAPPERS = frozenset(
    {"tuple", "list", "set", "frozenset", "dict", "sorted", "reversed"}
)

#: How many caller/callee hops the closure follows from a dispatch site.
_MAX_HOPS = 4


@dataclass(frozen=True)
class _Item:
    """One expression on the worklist, with where it came from."""

    node: ast.AST
    module: ModuleInfo
    info: Optional[FunctionInfo]
    depth: int
    chain: Tuple[str, ...]


@dataclass(frozen=True)
class _Dispatch:
    """One dispatch payload root, kept for reporting."""

    method: str
    root: ast.AST
    module: ModuleInfo


class EscapePass:
    """Run the escape analysis over a loaded :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.findings: List[Finding] = []
        self._reported: Set[Tuple[int, str]] = set()

    def run(self) -> List[Finding]:
        for module in self.program.modules.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    method = self._dispatch_method(module, node)
                    if method is not None:
                        self._trace_dispatch(module, node, method)
        return self.findings

    # -- dispatch detection ---------------------------------------------

    def _dispatch_method(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in _DISPATCH_METHODS:
            return None
        receiver = func.value
        if isinstance(receiver, ast.Call) and self._is_executor_ctor(
            module, receiver
        ):
            return func.attr
        if isinstance(receiver, ast.Name):
            if receiver.id in _EXECUTOR_NAMES:
                return func.attr
            info = self.program.enclosing_function_info(module, call)
            if receiver.id in self._executor_names(module, info):
                return func.attr
        return None

    def _is_executor_ctor(self, module: ModuleInfo, call: ast.Call) -> bool:
        dotted = self.program.resolve(module, call.func)
        return dotted in _EXECUTOR_TYPES

    def _executor_names(
        self, module: ModuleInfo, info: Optional[FunctionInfo]
    ) -> Set[str]:
        """Names bound to executor constructions in the relevant scope."""
        if info is not None:
            nodes: Iterator[ast.AST] = walk_function_body(info.node)
        else:
            nodes = ast.walk(module.tree)
        names: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.withitem):
                if (
                    isinstance(node.optional_vars, ast.Name)
                    and isinstance(node.context_expr, ast.Call)
                    and self._is_executor_ctor(module, node.context_expr)
                ):
                    names.add(node.optional_vars.id)
            elif isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Call) and self._is_executor_ctor(
                    module, node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    # -- the closure -----------------------------------------------------

    def _trace_dispatch(
        self, module: ModuleInfo, call: ast.Call, method: str
    ) -> None:
        info = self.program.enclosing_function_info(module, call)
        roots = list(call.args) + [kw.value for kw in call.keywords]
        for root in roots:
            dispatch = _Dispatch(method=method, root=root, module=module)
            self._run_worklist(
                _Item(node=root, module=module, info=info, depth=0, chain=()),
                dispatch,
            )

    def _run_worklist(self, start: _Item, dispatch: _Dispatch) -> None:
        worklist: List[_Item] = [start]
        visited: Set[int] = set()
        while worklist:
            item = worklist.pop()
            if id(item.node) in visited:
                continue
            visited.add(id(item.node))
            worklist.extend(self._expand(item, dispatch))

    def _expand(self, item: _Item, dispatch: _Dispatch) -> List[_Item]:
        node = item.node
        if isinstance(node, ast.Name):
            return self._expand_name(item, dispatch)
        if isinstance(node, ast.Starred):
            return [self._child(item, node.value)]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [self._child(item, elt) for elt in node.elts]
        if isinstance(node, ast.Dict):
            return [
                self._child(item, value)
                for value in node.values
                if value is not None
            ]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return [self._child(item, node.elt)]
        if isinstance(node, ast.DictComp):
            return [self._child(item, node.value)]
        if isinstance(node, ast.IfExp):
            return [self._child(item, node.body), self._child(item, node.orelse)]
        if isinstance(node, ast.BoolOp):
            return [self._child(item, value) for value in node.values]
        if isinstance(node, ast.Await):
            return [self._child(item, node.value)]
        if isinstance(node, ast.Call):
            return self._expand_call(item, node, dispatch)
        if isinstance(node, ast.Attribute):
            return self._expand_attribute(item, node)
        if isinstance(node, ast.Subscript):
            return [self._child(item, node.value)]
        return []

    def _child(self, item: _Item, node: ast.AST, *, hop: str = "") -> _Item:
        return _Item(
            node=node,
            module=item.module,
            info=item.info,
            depth=item.depth,
            chain=item.chain + ((hop,) if hop else ()),
        )

    def _expand_name(self, item: _Item, dispatch: _Dispatch) -> List[_Item]:
        name = item.node.id  # type: ignore[attr-defined]
        children: List[_Item] = []
        is_param = item.info is not None and name in item.info.param_names
        bindings = self._local_bindings(item, name)
        if not is_param and not bindings:
            # A bare reference to an in-program function/class is the
            # worker callable, not a value -- it pickles by name.
            referenced = self.program.canonicalize(
                self.program.resolve(item.module, item.node)
            )
            local = f"{self.program.module_name(item.module)}.{name}"
            for candidate in (referenced, local):
                if (
                    candidate in self.program.functions
                    or candidate in self.program.classes
                ):
                    return []
        if item.info is not None:
            children.extend(bindings)
            sites = self.program.callers.get(item.info.qualname, [])
            if is_param and not bindings and not sites and _is_rng_name(name):
                code, kind, remedy = _GENERATOR_ESCAPE
                self._report(
                    dispatch, item, code, f"{kind} parameter {name!r}", remedy
                )
            if is_param and item.depth < _MAX_HOPS:
                for site in sites:
                    bound = self.program.parameters_bound(item.info, site.node)
                    for arg in bound.get(name, []):
                        children.append(
                            _Item(
                                node=arg,
                                module=site.module,
                                info=site.caller,
                                depth=item.depth + 1,
                                chain=item.chain
                                + (f"{item.info.qualname}({name})",),
                            )
                        )
        else:
            children.extend(bindings)
        return children

    def _local_bindings(self, item: _Item, name: str) -> List[_Item]:
        """Everything assigned or appended to ``name`` in the scope."""
        if item.info is not None:
            nodes: Iterator[ast.AST] = walk_function_body(item.info.node)
        else:
            nodes = iter(item.module.tree.body)
        children: List[_Item] = []
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                if node.value is not None and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in targets
                ):
                    children.append(self._child(item, node.value))
            elif isinstance(node, ast.For):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                ):
                    children.append(self._child(item, node.iter))
            elif isinstance(node, ast.withitem):
                if (
                    isinstance(node.optional_vars, ast.Name)
                    and node.optional_vars.id == name
                ):
                    children.append(self._child(item, node.context_expr))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name
                    and func.attr in ("append", "add", "insert", "extend")
                ):
                    children.extend(self._child(item, arg) for arg in node.args)
        return children

    def _expand_call(
        self, item: _Item, node: ast.Call, dispatch: _Dispatch
    ) -> List[_Item]:
        dotted = self.program.resolve(item.module, node.func)
        canonical = self.program.canonicalize(dotted)
        classified = self._classify(dotted, canonical, node)
        if classified is not None:
            code, kind, remedy = classified
            origin_at = f"{Path(item.module.path).name}:{node.lineno}"
            self._report(
                dispatch, item, code, f"{kind} (created at {origin_at})", remedy
            )
            return []
        if dotted in _CONTAINER_WRAPPERS:
            return [self._child(item, arg) for arg in node.args]
        callee = self.program.resolve_callee(item.module, node, item.info)
        if callee in self.program.functions and item.depth < _MAX_HOPS:
            callee_info = self.program.functions[callee]
            return [
                _Item(
                    node=value,
                    module=callee_info.module,
                    info=callee_info,
                    depth=item.depth + 1,
                    chain=item.chain + (f"{callee_info.qualname}() return",),
                )
                for value in callee_info.return_expressions()
            ]
        if callee in self.program.classes:
            # Constructor: the instance carries every field it was built
            # from, so the closure recurses into the arguments.
            hop = f"{callee.rsplit('.', 1)[-1]}(...) field"
            values = list(node.args) + [kw.value for kw in node.keywords]
            return [self._child(item, value, hop=hop) for value in values]
        return []

    def _expand_attribute(self, item: _Item, node: ast.Attribute) -> List[_Item]:
        # ``self.attr`` inside a method: chase assignments to that
        # attribute anywhere in the class.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and item.info is not None
            and item.info.class_name is not None
        ):
            mod_name = self.program.module_name(item.module)
            cls_info = self.program.classes.get(
                f"{mod_name}.{item.info.class_name}"
            )
            children: List[_Item] = []
            if cls_info is not None:
                for method in cls_info.methods.values():
                    for stmt in walk_function_body(method.node):
                        if not isinstance(stmt, ast.Assign):
                            continue
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr == node.attr
                            ):
                                children.append(
                                    _Item(
                                        node=stmt.value,
                                        module=method.module,
                                        info=method,
                                        depth=item.depth,
                                        chain=item.chain
                                        + (f"self.{node.attr}",),
                                    )
                                )
            return children
        # Otherwise the attribute's object carries the value: expand the
        # base (a dataclass field reaches its constructor arguments).
        return [self._child(item, node.value)]

    # -- classification & reporting -------------------------------------

    def _classify(
        self,
        dotted: Optional[str],
        canonical: Optional[str],
        node: ast.Call,
    ) -> Optional[Tuple[str, str, str]]:
        candidates = {dotted, canonical}
        if candidates & _RNG_ORIGINS:
            return _GENERATOR_ESCAPE
        if candidates & _STORE_ORIGINS:
            return (
                "RPL111",
                "mmap-backed store handle",
                "pass the dataset directory and re-open in the worker",
            )
        if dotted == "numpy.load" and any(
            kw.arg == "mmap_mode" for kw in node.keywords
        ):
            return (
                "RPL111",
                "mmap-backed array",
                "pass the file path and np.load in the worker",
            )
        if candidates & _FILE_ORIGINS:
            return (
                "RPL112",
                "open file handle",
                "pass the path and open in the worker",
            )
        if candidates & _REGISTRY_ORIGINS:
            return (
                "RPL113",
                "MetricsRegistry",
                "let the worker keep a private registry and merge snapshots "
                "deterministically after join",
            )
        return None

    def _report(
        self,
        dispatch: _Dispatch,
        item: _Item,
        code: str,
        origin: str,
        remedy: str,
    ) -> None:
        key = (id(dispatch.root), code)
        if key in self._reported:
            return
        self._reported.add(key)
        via = f" via {' -> '.join(item.chain)}" if item.chain else ""
        self.findings.append(
            Finding(
                code=code,
                message=(
                    f"{origin} escapes into a "
                    f"process-pool {dispatch.method}() payload{via}; "
                    f"{remedy}"
                ),
                path=dispatch.module.path,
                line=dispatch.root.lineno,
                col=dispatch.root.col_offset,
            )
        )


def _is_rng_name(name: str) -> bool:
    return name == "rng" or name.endswith("_rng") or name.endswith("rngs")


def run_escape(program: Program) -> List[Finding]:
    """Run the pass; used by :func:`repro.devtools.lint.analyze_paths`."""
    return EscapePass(program).run()
