"""Purity pass: static verification of ``@pure`` kernel contracts.

A kernel decorated with :func:`repro.devtools.flow.pure` promises it is
deterministic and side-effect-free *modulo its arguments*: the only
mutable state it touches is what it allocates itself, plus draws from a
``numpy.random.Generator`` passed explicitly as a parameter.  This pass
verifies the promise:

- ``RPL120`` -- writes to globals/closures (``global``/``nonlocal``),
  to ``self``, to parameters, or through any value that may alias an
  argument.  Ownership is tracked per local name: a name is *owned*
  when every assignment to it is a fresh allocation (a display, an
  arithmetic expression, a numpy constructor that copies, a ``.copy()``
  / ``.astype()``); owned values may be mutated freely.
- ``RPL121`` -- I/O of any kind (files, ``print``, logging, ``os``/
  ``sys``/``subprocess``, numpy's save/load family).
- ``RPL122`` -- wall-clock reads.
- ``RPL123`` -- callees the analyzer cannot verify: an in-program
  callee that is not itself ``@pure``, ``np.random.*`` (draws must come
  through the passed Generator), unknown methods on values that may
  alias arguments, or anything unresolvable (including nested function
  definitions -- hoist helpers and mark them ``@pure``).

Everything else -- numpy array math, allowlisted builtins, methods on
owned values -- is allowed.  As in the other passes, allow/deny sets are
explicit and unknown constructs fail *closed* (``RPL123``) rather than
silently passing: a purity contract nobody can trust is worse than none.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.rules import _CLOCK_CALLS
from repro.devtools.flow.program import (
    FunctionInfo,
    Program,
    walk_function_body,
)

#: Decorator spellings that mark a contracted kernel.
_PURE_DECORATORS = (
    "repro.devtools.flow.pure",
    "repro.devtools.flow.contracts.pure",
)

#: numpy calls that return *views* of their input; results are not owned.
_NUMPY_VIEWS = frozenset(
    {
        "numpy.asarray",
        "numpy.asanyarray",
        "numpy.ascontiguousarray",
        "numpy.atleast_1d",
        "numpy.atleast_2d",
        "numpy.broadcast_to",
        "numpy.frombuffer",
        "numpy.ravel",
        "numpy.reshape",
        "numpy.squeeze",
        "numpy.swapaxes",
        "numpy.transpose",
    }
)

#: numpy calls that are I/O, not math.
_NUMPY_IO = frozenset(
    {
        "numpy.fromfile",
        "numpy.genfromtxt",
        "numpy.load",
        "numpy.loadtxt",
        "numpy.memmap",
        "numpy.save",
        "numpy.savetxt",
        "numpy.savez",
        "numpy.savez_compressed",
    }
)

#: Builtins a pure kernel may call freely.
_BUILTIN_ALLOWED = frozenset(
    {
        "abs",
        "all",
        "any",
        "bool",
        "dict",
        "divmod",
        "enumerate",
        "float",
        "frozenset",
        "int",
        "isinstance",
        "len",
        "list",
        "max",
        "min",
        "pow",
        "range",
        "repr",
        "reversed",
        "round",
        "set",
        "slice",
        "sorted",
        "str",
        "sum",
        "tuple",
        "zip",
        # Raising is pure; constructing the exception must be too.
        "AssertionError",
        "IndexError",
        "KeyError",
        "NotImplementedError",
        "RuntimeError",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)

#: Non-mutating methods allowed on any receiver (ndarray/str/bytes API).
_PURE_METHODS = frozenset(
    {
        "all",
        "any",
        "argmax",
        "argmin",
        "argsort",
        "astype",
        "clip",
        "copy",
        "cumsum",
        "item",
        "max",
        "mean",
        "min",
        "nonzero",
        "prod",
        "repeat",
        "reshape",
        "round",
        "searchsorted",
        "std",
        "sum",
        "take",
        "tobytes",
        "tolist",
        "view",
    }
)

#: Mutating methods, allowed only on owned receivers.
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "fill",
        "insert",
        "partition",
        "pop",
        "put",
        "remove",
        "resize",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Dotted-name prefixes that are I/O or ambient state by construction.
_IO_PREFIXES = (
    "builtins.open",
    "gzip.",
    "io.",
    "json.",
    "logging.",
    "os.",
    "pathlib.",
    "pickle.",
    "shutil.",
    "socket.",
    "subprocess.",
    "sys.",
    "tempfile.",
    "warnings.",
)

_IO_CALLS = frozenset({"open", "print", "input"})

#: Expression types that always denote freshly-allocated values.
_FRESH_NODES = (
    ast.BinOp,
    ast.BoolOp,
    ast.Compare,
    ast.Constant,
    ast.Dict,
    ast.DictComp,
    ast.GeneratorExp,
    ast.JoinedStr,
    ast.List,
    ast.ListComp,
    ast.Set,
    ast.SetComp,
    ast.Tuple,
    ast.UnaryOp,
)


def _decorated_pure(program: Program, info: FunctionInfo) -> bool:
    for decorator in info.node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = program.resolve(info.module, target)
        canonical = program.canonicalize(dotted)
        for spelling in (dotted, canonical):
            if spelling is not None and spelling.endswith(_PURE_DECORATORS):
                return True
    return False


class PurityPass:
    """Verify every contracted kernel in a loaded :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.contracted: Set[str] = {
            qualname
            for qualname, info in program.functions.items()
            if _decorated_pure(program, info)
        }
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for qualname in sorted(self.contracted):
            self._verify(self.program.functions[qualname])
        return self.findings

    # -- per-kernel verification ----------------------------------------

    def _verify(self, info: FunctionInfo) -> None:
        owned = self._owned_names(info)
        rng_params = self._rng_params(info)
        for node in walk_function_body(info.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                names = ", ".join(node.names)
                self._report(
                    info,
                    node,
                    "RPL120",
                    f"declares {type(node).__name__.lower()} {names!r}; "
                    "pure kernels may only mutate values they allocate",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._report(
                    info,
                    node,
                    "RPL123",
                    "contains a nested definition the analyzer cannot "
                    "verify; hoist the helper and mark it @pure",
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._report(
                    info,
                    node,
                    "RPL123",
                    "imports inside the kernel body cannot be verified; "
                    "import at module level",
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._check_store(info, node, owned)
            elif isinstance(node, ast.Call):
                self._check_call(info, node, owned, rng_params)

    # -- ownership -------------------------------------------------------

    def _owned_names(self, info: FunctionInfo) -> Set[str]:
        """Locals whose every binding is a fresh allocation."""
        assignments: List[Tuple[List[str], ast.AST]] = []
        for node in walk_function_body(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                names: List[str] = []
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.append(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        names.extend(
                            elt.id
                            for elt in target.elts
                            if isinstance(elt, ast.Name)
                        )
                if names:
                    assignments.append((names, value))
        owned: Set[str] = set()
        poisoned: Set[str] = set()
        # Two rounds so name-to-name copies of owned values settle.
        for _ in range(2):
            poisoned = set()
            for names, value in assignments:
                fresh = self._is_fresh(info, value, owned)
                for name in names:
                    if fresh:
                        owned.add(name)
                    else:
                        poisoned.add(name)
            owned -= poisoned
        return owned

    def _is_fresh(
        self, info: FunctionInfo, node: ast.AST, owned: Set[str]
    ) -> bool:
        if isinstance(node, _FRESH_NODES):
            return True
        if isinstance(node, ast.Name):
            return node.id in owned
        if isinstance(node, ast.IfExp):
            return self._is_fresh(info, node.body, owned) and self._is_fresh(
                info, node.orelse, owned
            )
        if isinstance(node, ast.Call):
            dotted = self.program.resolve(info.module, node.func) or ""
            if dotted.startswith("numpy.random."):
                return False
            if dotted.startswith("numpy."):
                return dotted not in _NUMPY_VIEWS and dotted not in _NUMPY_IO
            if dotted in _BUILTIN_ALLOWED:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _PURE_METHODS:
                    return True
                receiver = node.func.value
                if isinstance(receiver, ast.Name) and receiver.id in (
                    self._rng_params(info)
                ):
                    # Draws from the passed Generator are fresh arrays.
                    return True
        return False

    def _rng_params(self, info: FunctionInfo) -> Set[str]:
        args = info.node.args
        all_args = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )
        names: Set[str] = set()
        for arg in all_args:
            if arg.arg == "rng" or arg.arg.endswith("_rng"):
                names.add(arg.arg)
                continue
            if arg.annotation is not None:
                dotted = self.program.resolve(info.module, arg.annotation) or ""
                if dotted in ("numpy.random.Generator", "Generator"):
                    names.add(arg.arg)
        return names

    # -- write checks ----------------------------------------------------

    def _check_store(self, info: FunctionInfo, node: ast.AST, owned: Set[str]) -> None:
        targets: List[ast.AST]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is None:
            return  # a bare annotation is not a write
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        augmented = isinstance(node, ast.AugAssign)
        stack = targets
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            elif isinstance(target, ast.Starred):
                stack.append(target.value)
            elif isinstance(target, ast.Attribute):
                self._check_write_base(info, target, target.value, owned, "attribute")
            elif isinstance(target, ast.Subscript):
                self._check_write_base(info, target, target.value, owned, "element")
            elif isinstance(target, ast.Name) and augmented:
                if target.id not in owned:
                    self._report(
                        info,
                        target,
                        "RPL120",
                        f"augments {target.id!r}, which may alias an "
                        "argument; copy into an owned value first",
                    )

    def _check_write_base(
        self,
        info: FunctionInfo,
        target: ast.AST,
        base: ast.AST,
        owned: Set[str],
        what: str,
    ) -> None:
        if isinstance(base, ast.Name) and base.id in owned:
            return
        described = (
            f"{base.id!r}" if isinstance(base, ast.Name) else "a value"
        )
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            described = "self"
        self._report(
            info,
            target,
            "RPL120",
            f"writes an {what} of {described}, which the kernel does not "
            "own; pure kernels may only mutate values they allocate",
        )

    # -- call checks -----------------------------------------------------

    def _check_call(
        self,
        info: FunctionInfo,
        node: ast.Call,
        owned: Set[str],
        rng_params: Set[str],
    ) -> None:
        dotted = self.program.resolve(info.module, node.func)
        # Writes through out= keywords count as stores.
        for keyword in node.keywords:
            if keyword.arg == "out":
                value = keyword.value
                if not (isinstance(value, ast.Name) and value.id in owned):
                    self._report(
                        info,
                        value,
                        "RPL120",
                        "writes through out= into a value the kernel does "
                        "not own",
                    )
        if dotted is not None:
            if dotted in _CLOCK_CALLS:
                self._report(
                    info,
                    node,
                    "RPL122",
                    f"reads the wall clock via {dotted}; pure kernels must "
                    "be deterministic in their arguments",
                )
                return
            if dotted in _IO_CALLS or dotted in _NUMPY_IO or dotted.startswith(
                _IO_PREFIXES
            ):
                self._report(
                    info,
                    node,
                    "RPL121",
                    f"performs I/O via {dotted}; hoist side effects out of "
                    "the kernel",
                )
                return
            if dotted.startswith("numpy.random."):
                self._report(
                    info,
                    node,
                    "RPL123",
                    f"calls {dotted.replace('numpy', 'np')}; draws must come "
                    "from a Generator passed explicitly as a parameter",
                )
                return
            if dotted.startswith("numpy."):
                return
            if dotted in _BUILTIN_ALLOWED:
                return
        callee = self.program.resolve_callee(info.module, node, info)
        if callee is not None and callee in self.program.functions:
            if callee in self.contracted:
                return
            self._report(
                info,
                node,
                "RPL123",
                f"calls {callee}, which is not @pure; mark the callee or "
                "hoist the call out of the kernel",
            )
            return
        if isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            method = node.func.attr
            if isinstance(receiver, ast.Name) and receiver.id in rng_params:
                return
            if method in _PURE_METHODS:
                return
            if isinstance(receiver, ast.Name) and receiver.id in owned:
                return
            if method in _MUTATING_METHODS:
                self._report(
                    info,
                    node,
                    "RPL120",
                    f"calls mutating method .{method}() on a value the "
                    "kernel does not own",
                )
                return
            self._report(
                info,
                node,
                "RPL123",
                f"calls unverified method .{method}(); receivers must be "
                "owned values, the passed Generator, or allowlisted "
                "ndarray methods",
            )
            return
        self._report(
            info,
            node,
            "RPL123",
            "calls an unresolvable target the analyzer cannot verify; "
            "pure kernels may only call @pure functions and allowlisted "
            "numpy/builtin ops",
        )

    # -- reporting -------------------------------------------------------

    def _report(
        self, info: FunctionInfo, node: ast.AST, code: str, detail: str
    ) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=f"@pure kernel {info.qualname} {detail}",
                path=info.module.path,
                line=getattr(node, "lineno", info.node.lineno),
                col=getattr(node, "col_offset", info.node.col_offset),
            )
        )


def run_purity(program: Program) -> List[Finding]:
    """Run the pass; used by :func:`repro.devtools.lint.analyze_paths`."""
    return PurityPass(program).run()
