"""The ``RPL`` rule pack: determinism, vectorization, and API hygiene.

``repro lint`` checks every code in one run.  The per-file rules are the
:class:`~repro.devtools.lint.engine.Rule` classes below; the
whole-program codes come from the passes of :mod:`repro.devtools.flow`.
:data:`RULE_TABLE` lists all of them.  Codes are grouped by decade:

- ``RPL000``     -- file could not be parsed.
- ``RPL001-009`` -- RNG discipline: all randomness flows through
  :mod:`repro.stats.rng` from explicit seeds.
- ``RPL011``     -- unordered-set iteration must not shape stochastic
  output.
- ``RPL020-029`` -- vectorization guards: no per-element loops in the
  modules of :data:`VECTORIZED_MODULE_SCOPES`, no array growth in loops
  in the batched engine (:data:`BATCHED_MODULE_SUFFIXES`).
- ``RPL030-039`` -- API hygiene: mutable defaults, float equality,
  ``__all__`` drift.
- ``RPL040-049`` -- virtual-time discipline: the always-on service
  (:data:`SERVICE_MODULE_PATH_PARTS`) must take time from its event
  loop, never from the wall clock.
- ``RPL101-102`` -- RNG provenance, whole-program: Generators are born
  in :mod:`repro.stats.rng`, and no wall clock or builtin ``hash``
  reaches a seed through any chain of calls.
- ``RPL110-113`` -- process-boundary escape: nothing that cannot cross
  into a worker reaches a process-pool payload.
- ``RPL120-123`` -- ``@pure`` kernel contracts.

Suppress a finding with ``# repro: noqa=RPLxxx -- justification`` on the
offending line.  Two structural allowlists live here, next to the rules
they parameterize: :data:`RNG_HELPER_MODULE_SUFFIXES` (the coercion
helpers are allowed to touch numpy's seeding primitives -- they are the
one place that may) and :data:`FLOAT_EQ_ALLOWLIST` (named predicates
whose single internal comparison *defines* the semantic, e.g. free-app
detection on exact stored prices).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.devtools.lint.engine import PARSE_ERROR_CODE, Rule

#: The batched engine's modules (RPL021 fires inside these).  Scope
#: tables list module suffixes and, ending in ``/``, package directories.
BATCHED_MODULE_SUFFIXES = (
    "repro/core/engine.py",
    "repro/core/models.py",
    "repro/stats/sampling.py",
)

#: The designated seed-coercion implementation; exempt from the RNG
#: discipline rules because it is the layer they force everyone through.
RNG_HELPER_MODULE_SUFFIXES = ("repro/stats/rng.py",)

#: Where RPL020 holds code to array operations: the batched engine, the
#: columnar store (data moves as columns, not rows), the modules that
#: resolve persona segments (one kernel call per segment, selected by one
#: mask), and the store tick (one clustered and one global kernel call
#: per round, one sort per law for a heavy account's day, never a kernel
#: call per download), and the analyses that replaced row loops with
#: column reads, with their CLI gates.  The rule sees names bound to
#: numpy constructors; a loop over a column read straight from a chunk
#: escapes it, which the report's no-row-reads test covers.
VECTORIZED_MODULE_SCOPES = BATCHED_MODULE_SUFFIXES + (
    "repro/store/",
    "repro/marketplace/segments.py",
    "repro/marketplace/behavior.py",
    "repro/marketplace/store.py",
    "repro/workload/sharding.py",
    "repro/analysis/adlib.py",
    "repro/analysis/comments.py",
    "repro/analysis/spam.py",
    "repro/analysis/dataset.py",
    "repro/analysis/report.py",
    "repro/analysis/strategies.py",
    "repro/crawler/quality.py",
    "repro/core/prediction.py",
    "repro/cli.py",
)

#: The always-on service, which runs on the virtual clock (the RPL040
#: guard fires inside it).
SERVICE_MODULE_PATH_PARTS = ("repro/service/",)

#: (module suffix, function qualname) pairs whose float equality is the
#: definition of a domain predicate rather than a numerical accident.
FLOAT_EQ_ALLOWLIST = (
    ("repro/marketplace/entities.py", "is_free_price"),
)

#: ``numpy.random`` attributes that are part of the Generator/seeding
#: machinery rather than the legacy global-state API.
_MODERN_NUMPY_RANDOM = frozenset(
    {
        "BitGenerator",
        "Generator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)


def in_scope(path: str, scopes: Sequence[str]) -> bool:
    """Whether a path falls in a scope table (module suffixes, or
    package directories when the entry ends in ``/``)."""
    normalized = path.replace("\\", "/")
    return any(
        scope in normalized if scope.endswith("/") else normalized.endswith(scope)
        for scope in scopes
    )


def _has_seed_parameter(node: ast.FunctionDef) -> bool:
    args = list(node.args.posonlyargs) + list(node.args.args)
    args += list(node.args.kwonlyargs)
    return any("seed" in arg.arg.lower() for arg in args)


class LegacyNumpyRandomRule(Rule):
    """RPL001: calls into numpy's legacy global-state random API."""

    code = "RPL001"
    name = "legacy-numpy-random"
    summary = (
        "no np.random.* global-state calls (np.random.seed, np.random.rand, "
        "np.random.choice, ...); draw from an explicit Generator via "
        "repro.stats.rng.make_rng"
    )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.module.resolve_dotted(node.func)
        if dotted is not None and dotted.startswith("numpy.random."):
            attribute = dotted.split(".")[-1]
            if attribute not in _MODERN_NUMPY_RANDOM:
                if attribute == "seed":
                    self.report(
                        node,
                        "np.random.seed mutates hidden global state; pass "
                        "an explicit seed through repro.stats.rng.make_rng",
                    )
                else:
                    self.report(
                        node,
                        f"legacy global-state call np.random.{attribute}; "
                        "draw from an explicit Generator "
                        "(repro.stats.rng.make_rng)",
                    )
        self.generic_visit(node)


class StdlibRandomRule(Rule):
    """RPL002: the stdlib ``random`` module is off-limits."""

    code = "RPL002"
    name = "stdlib-random"
    summary = (
        "no stdlib `random` usage; its global Mersenne Twister state is "
        "invisible to the seed-threading contract"
    )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib random imported; use numpy Generators from "
                    "repro.stats.rng instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module is not None:
            if node.module == "random" or node.module.startswith("random."):
                self.report(
                    node,
                    "stdlib random imported; use numpy Generators from "
                    "repro.stats.rng instead",
                )


class UncoercedSeedRule(Rule):
    """RPL003: seed-taking functions must use the central coercers."""

    code = "RPL003"
    name = "uncoerced-seed"
    summary = (
        "functions taking a seed parameter must coerce it via "
        "repro.stats.rng (make_rng / spawn_rngs / make_seed_sequence), "
        "not np.random.default_rng or np.random.SeedSequence directly"
    )

    _TARGETS = frozenset(
        {"numpy.random.default_rng", "numpy.random.SeedSequence"}
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if in_scope(self.module.path, RNG_HELPER_MODULE_SUFFIXES):
            return
        if _has_seed_parameter(node):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    dotted = self.module.resolve_dotted(call.func)
                    if dotted in self._TARGETS:
                        helper = (
                            "make_rng"
                            if dotted.endswith("default_rng")
                            else "make_seed_sequence"
                        )
                        self.report(
                            call,
                            f"{dotted.replace('numpy', 'np')} called inside "
                            f"seed-taking function {node.name!r}; coerce "
                            f"SeedLike values via repro.stats.rng.{helper}",
                        )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


class GeneratorInLoopRule(Rule):
    """RPL004: no Generator construction inside loops."""

    code = "RPL004"
    name = "generator-in-loop"
    summary = (
        "no np.random.Generator construction (default_rng / make_rng) "
        "inside a loop; build once outside, or spawn_rngs for independent "
        "streams"
    )

    _TARGETS = frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "repro.stats.rng.make_rng",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        if not in_scope(self.module.path, RNG_HELPER_MODULE_SUFFIXES):
            dotted = self.module.resolve_dotted(node.func)
            if dotted in self._TARGETS and self.module.in_loop(node):
                self.report(
                    node,
                    f"{dotted.rsplit('.', 1)[-1]} constructed inside a loop; "
                    "hoist the Generator out (or use "
                    "repro.stats.rng.spawn_rngs for per-iteration streams)",
                )
        self.generic_visit(node)


class SetIterationRule(Rule):
    """RPL011: iterating a set leaks unordered state into loop order."""

    code = "RPL011"
    name = "set-iteration-order"
    summary = (
        "no iteration over sets (for-loops / comprehensions); set order "
        "is insertion- and hash-dependent, so wrap in sorted(...) before "
        "order can reach a sampler"
    )

    def _check_iterable(self, iterable: ast.AST) -> None:
        if self.module.expression_kind(iterable) == "set":
            described = (
                f"set {iterable.id!r}"
                if isinstance(iterable, ast.Name)
                else "a set expression"
            )
            self.report(
                iterable,
                f"iteration over {described} has no stable order; use "
                "sorted(...) so downstream sampling stays deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)


class NdarrayElementLoopRule(Rule):
    """RPL020: per-element loops over ndarrays in vectorized modules.

    One check for every module of :data:`VECTORIZED_MODULE_SCOPES`: a
    loop that walks an ndarray element by element -- a per-row
    ``.append`` in the store, a per-user walk in the segment dispatch,
    a per-event loop in the engine -- brings back the interpreter cost
    the array layout exists to remove.
    """

    code = "RPL020"
    name = "ndarray-element-loop"
    summary = (
        "no per-element for-loop over an ndarray in the vectorized "
        "modules (batched engine, repro.store, segment dispatch); use "
        "array operations, .tolist() on a declared compatibility path, "
        "or one kernel call per group selected by one mask"
    )

    _WRAPPERS = frozenset({"zip", "enumerate", "reversed"})

    def _ndarray_operand(self, iterable: ast.AST) -> Optional[ast.AST]:
        if self.module.expression_kind(iterable) == "ndarray":
            return iterable
        if isinstance(iterable, ast.Call):
            dotted = self.module.resolve_dotted(iterable.func)
            if dotted in self._WRAPPERS:
                for argument in iterable.args:
                    if self.module.expression_kind(argument) == "ndarray":
                        return argument
        return None

    def _check_iterable(self, iterable: ast.AST) -> None:
        operand = self._ndarray_operand(iterable)
        if operand is not None:
            described = (
                f"ndarray {operand.id!r}"
                if isinstance(operand, ast.Name)
                else "an ndarray expression"
            )
            self.report(
                iterable,
                f"per-element iteration over {described} in a vectorized "
                "module; express this as array operations (or .tolist() "
                "explicitly on a declared compatibility path)",
            )

    def visit_For(self, node: ast.For) -> None:
        if in_scope(self.module.path, VECTORIZED_MODULE_SCOPES):
            self._check_iterable(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if in_scope(self.module.path, VECTORIZED_MODULE_SCOPES):
            self._check_iterable(node.iter)
        self.generic_visit(node)


class ArrayGrowthInLoopRule(Rule):
    """RPL021: growing arrays inside loops in batched modules."""

    code = "RPL021"
    name = "array-growth-in-loop"
    summary = (
        "no np.append / np.concatenate / np.*stack inside a loop in "
        "batched modules; each call reallocates -- collect chunks and "
        "concatenate once"
    )

    _TARGETS = frozenset(
        {
            "numpy.append",
            "numpy.concatenate",
            "numpy.hstack",
            "numpy.vstack",
            "numpy.column_stack",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        if in_scope(self.module.path, BATCHED_MODULE_SUFFIXES):
            dotted = self.module.resolve_dotted(node.func)
            if dotted in self._TARGETS and self.module.in_loop(node):
                self.report(
                    node,
                    f"{dotted.replace('numpy', 'np')} inside a loop "
                    "reallocates the array every iteration; append to a "
                    "list and concatenate once after the loop",
                )
        self.generic_visit(node)


class MutableDefaultRule(Rule):
    """RPL030: mutable default arguments."""

    code = "RPL030"
    name = "mutable-default-argument"
    summary = (
        "no mutable default arguments ([], {}, set(), ...); defaults are "
        "evaluated once and shared across calls -- default to None"
    )

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "collections.defaultdict"}
    )

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(default, ast.Call):
            dotted = self.module.resolve_dotted(default.func)
            return dotted in self._MUTABLE_CALLS
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    f"mutable default argument in {node.name!r}; use None "
                    "and construct inside the function",
                )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    "mutable default argument in lambda; use None and "
                    "construct inside",
                )
        self.generic_visit(node)


class FloatEqualityRule(Rule):
    """RPL031: exact float equality outside the allowlist."""

    code = "RPL031"
    name = "float-equality"
    summary = (
        "no == / != against float literals outside allowlisted named "
        "predicates; exact float comparison is brittle -- compare via a "
        "domain predicate (e.g. AppSnapshot.is_free) or np.isclose"
    )

    @staticmethod
    def _is_float_constant(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return FloatEqualityRule._is_float_constant(node.operand)
        return False

    def _allowlisted(self, node: ast.AST) -> bool:
        qualname = self.module.qualname(node)
        return any(
            in_scope(self.module.path, (suffix,))
            and qualname.endswith(allowed_qualname)
            for suffix, allowed_qualname in FLOAT_EQ_ALLOWLIST
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, operator in enumerate(node.ops):
            if isinstance(operator, (ast.Eq, ast.NotEq)):
                pair = (operands[index], operands[index + 1])
                if any(self._is_float_constant(side) for side in pair):
                    if not self._allowlisted(node):
                        self.report(
                            node,
                            "exact float equality comparison; express the "
                            "intent as a named predicate or use np.isclose",
                        )
                        break
        self.generic_visit(node)


class DunderAllDriftRule(Rule):
    """RPL032: ``__all__`` out of sync with the module's public names."""

    code = "RPL032"
    name = "dunder-all-drift"
    summary = (
        "__all__ must list exactly the module-level public defs it "
        "exports: no unbound entries, no public def/class missing from "
        "an existing __all__"
    )

    def visit_Module(self, node: ast.Module) -> None:
        all_node: Optional[ast.Assign] = None
        exported: List[str] = []
        bound: set = set()
        public_defs: List[Tuple[str, ast.AST]] = []
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                bound.add(statement.name)
                if not statement.name.startswith("_"):
                    public_defs.append((statement.name, statement))
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            all_node = statement
                            exported = self._exported_names(statement.value)
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name):
                    bound.add(statement.target.id)
            elif isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name)
        if all_node is None:
            return
        for name in exported:
            if name not in bound:
                self.report(
                    all_node,
                    f"__all__ exports {name!r} but the module never binds "
                    "it; remove the entry or define the name",
                )
        listed = set(exported)
        for name, definition in public_defs:
            if name not in listed:
                self.report(
                    definition,
                    f"public {name!r} is defined here but missing from "
                    "__all__; add it or rename with a leading underscore",
                )

    @staticmethod
    def _exported_names(value: ast.AST) -> List[str]:
        names: List[str] = []
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append(element.value)
        return names


#: Wall-time sources that poison virtual-clock determinism: the clock
#: reads, plus blocking sleeps.
_WALL_TIME_CALLS = frozenset(_CLOCK_CALLS | {"time.sleep"})


class WallClockInServiceRule(Rule):
    """RPL040: wall-clock time inside the virtual-time service."""

    code = "RPL040"
    name = "wall-clock-in-service"
    summary = (
        "repro/service modules run on the scheduler's virtual clock; read "
        "time via scheduler.now and wait by yielding a delay from the "
        "task -- any time.*/datetime wall-clock call (or time.sleep) "
        "breaks the deterministic-replay and instant-soak contracts"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if in_scope(self.module.path, SERVICE_MODULE_PATH_PARTS):
            dotted = self.module.resolve_dotted(node.func)
            if dotted in _WALL_TIME_CALLS:
                if dotted == "time.sleep":
                    hint = "a yielded delay (`yield seconds` in the task)"
                else:
                    hint = "the scheduler's clock (`scheduler.now`)"
                self.report(
                    node,
                    f"{dotted} reads the wall clock inside the "
                    f"virtual-time service; use {hint} so simulated time "
                    "stays deterministic and instant",
                )
        self.generic_visit(node)


#: The per-file rules, in code order.
RULES: Tuple[Type[Rule], ...] = (
    LegacyNumpyRandomRule,
    StdlibRandomRule,
    UncoercedSeedRule,
    GeneratorInLoopRule,
    SetIterationRule,
    NdarrayElementLoopRule,
    ArrayGrowthInLoopRule,
    MutableDefaultRule,
    FloatEqualityRule,
    DunderAllDriftRule,
    WallClockInServiceRule,
)

#: Codes of the whole-program passes (:mod:`repro.devtools.flow`), which
#: build their findings directly rather than through :class:`Rule`.
PROGRAM_RULES: Tuple[Dict[str, str], ...] = (
    {
        "code": "RPL101",
        "name": "unsanctioned-rng-construction",
        "summary": (
            "modern numpy RNG constructors (default_rng, Generator, "
            "SeedSequence, bit generators) called outside repro.stats.rng; "
            "Generator provenance must reach the central coercers"
        ),
    },
    {
        "code": "RPL102",
        "name": "nondeterministic-seed-flow",
        "summary": (
            "wall-clock or builtin-hash value reaches a seed sink through "
            "any chain of assignments, returns, and calls"
        ),
    },
    {
        "code": "RPL110",
        "name": "generator-escapes-to-worker",
        "summary": (
            "np.random.Generator reachable from a process-pool dispatch "
            "payload; pickling duplicates the stream in the worker"
        ),
    },
    {
        "code": "RPL111",
        "name": "mmap-escapes-to-worker",
        "summary": (
            "mmap-backed store handle or array reachable from a "
            "process-pool dispatch payload; mappings cannot cross processes"
        ),
    },
    {
        "code": "RPL112",
        "name": "file-handle-escapes-to-worker",
        "summary": (
            "open file handle reachable from a process-pool dispatch "
            "payload; pass the path and open in the worker"
        ),
    },
    {
        "code": "RPL113",
        "name": "metrics-registry-escapes-to-worker",
        "summary": (
            "MetricsRegistry reachable from a process-pool dispatch "
            "payload; workers keep private registries merged after join"
        ),
    },
    {
        "code": "RPL120",
        "name": "pure-kernel-writes-shared-state",
        "summary": (
            "@pure kernel writes globals/closures/self/arguments or "
            "through values it does not own"
        ),
    },
    {
        "code": "RPL121",
        "name": "pure-kernel-does-io",
        "summary": "@pure kernel performs I/O",
    },
    {
        "code": "RPL122",
        "name": "pure-kernel-reads-clock",
        "summary": "@pure kernel reads the wall clock",
    },
    {
        "code": "RPL123",
        "name": "pure-kernel-unverified-callee",
        "summary": (
            "@pure kernel calls something the analyzer cannot verify; "
            "callees must be @pure or allowlisted numpy/builtin ops"
        ),
    },
)

#: Every code the analyzer reports, in code order: what ``--list-rules``
#: prints, ``--select``/``--ignore`` accept, and SARIF describes.
RULE_TABLE: Tuple[Dict[str, str], ...] = (
    (
        {
            "code": PARSE_ERROR_CODE,
            "name": "parse-error",
            "summary": "file could not be parsed",
        },
    )
    + tuple(
        {"code": rule.code, "name": rule.name, "summary": rule.summary}
        for rule in RULES
    )
    + PROGRAM_RULES
)
