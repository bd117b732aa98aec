"""The repo-specific rule set behind ``repro-lint``.

Each rule guards one convention the runtime's bit-exactness guarantee
rests on (see README "Static guarantees"):

* **RL001 seed-discipline** — every RNG must trace to a caller-provided
  seed or a :class:`~repro.simulation.runtime.SeedSchedule`: no numpy
  legacy global-state API, no argless ``default_rng()``, no inline
  numeric-literal seeds buried in function bodies.
* **RL002 api-surface** — ``repro.__all__``, ``repro._api`` and the lazy
  ``__getattr__`` must agree.
* **RL003 async-purity** — no blocking calls (``time.sleep``,
  ``Future.result()``, sync file I/O) inside ``async def`` bodies.
* **RL006 hygiene** — no bare ``except:``, no mutable default
  arguments.

The cross-file RL002 logic lives in :func:`check_api_surface` so the
runtime contract tests (``tests/test_public_api.py``) can call the same
routine instead of re-implementing the consistency checks inline.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .engine import Diagnostic, FileSource, ProjectRule, RuleVisitor
from .flowrules import HotPathAllocationRule, LockDisciplineRule

__all__ = [
    "RULES",
    "ApiSurfaceRule",
    "AsyncPurityRule",
    "HygieneRule",
    "SeedDisciplineRule",
    "check_api_surface",
]


# --------------------------------------------------------------------------
# RL001 · seed-discipline
# --------------------------------------------------------------------------

#: The modern, reproducibility-safe corner of ``numpy.random``.  Anything
#: else on that namespace is the legacy global-state API.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


def _is_np_random(node: ast.AST) -> bool:
    """Whether *node* is the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in {"np", "numpy"}
    )


def _is_default_rng(func: ast.AST) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "default_rng"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "default_rng"
        and _is_np_random(func.value)
    )


class SeedDisciplineRule(RuleVisitor):
    """RL001: every RNG traces to a caller-provided seed or SeedSchedule.

    Three shapes break row relocatability and are flagged:

    1. any legacy ``np.random.*`` global-state access (``np.random.seed``,
       ``np.random.rand``, ...) — process-global state cannot be sharded;
    2. argless ``default_rng()`` — OS entropy, unreproducible by design;
    3. ``default_rng(<numeric literal>)`` inside a function body — a
       magic inline seed that cannot be audited or overridden.  Hoist it
       to a named module-level constant or, better, a ``seed`` parameter.
    """

    name = "RL001"
    description = (
        "seed-discipline: no np.random legacy API, argless default_rng(), "
        "or inline numeric-literal seeds in function bodies"
    )

    def __init__(self, source: FileSource) -> None:
        super().__init__(source)
        self._function_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_np_random(node.value) and node.attr not in _NP_RANDOM_ALLOWED:
            self.report(
                node,
                f"legacy global-state RNG 'np.random.{node.attr}' — route "
                "randomness through a caller-provided seed / SeedSchedule "
                "and numpy.random.default_rng",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _NP_RANDOM_ALLOWED and alias.name != "*":
                    self.report(
                        node,
                        f"import of legacy RNG 'numpy.random.{alias.name}' — "
                        "only the Generator API is seed-disciplined",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_default_rng(node.func):
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "argless default_rng() draws OS entropy — outputs can "
                    "never be reproduced; accept a seed from the caller",
                )
            elif self._function_depth and self._is_literal_seed(node.args):
                self.report(
                    node,
                    "inline numeric-literal seed in a function body — hoist "
                    "it to a named module-level constant or a seed parameter "
                    "so the provenance is auditable",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_literal_seed(args: Sequence[ast.expr]) -> bool:
        return bool(args) and isinstance(args[0], ast.Constant)


# --------------------------------------------------------------------------
# RL002 · api-surface
# --------------------------------------------------------------------------


def _extract_all(tree: ast.Module) -> Tuple[Optional[List[str]], int]:
    """The module's literal ``__all__`` list and its line, if present."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
                    return names, node.lineno
    return None, 1


def _top_level_bindings(tree: ast.Module) -> Dict[str, int]:
    """Names bound at module top level, mapped to their first line."""
    bound: Dict[str, int] = {}

    def bind(name: str, line: int) -> None:
        bound.setdefault(name, line)

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bind(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bind(alias.asname or alias.name, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bind(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        bind(element.id, node.lineno)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bind(node.target.id, node.lineno)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks / import fallbacks still bind names.
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for alias in child.names:
                        if alias.name != "*":
                            bind(
                                alias.asname or alias.name.split(".")[0],
                                child.lineno,
                            )
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bind(child.name, child.lineno)
    return bound


def check_api_surface(package_dir: Path) -> List[Diagnostic]:
    """Statically verify the three-way public-API contract of *package_dir*.

    Pure AST — nothing is imported, so the check runs before the
    scientific stack is installable.  The invariants (mirroring the
    runtime assertions in ``tests/test_public_api.py``):

    * ``__init__.__all__`` and ``_api.__all__`` exist, are literal
      string lists, and contain no duplicates;
    * every name advertised in ``_api.__all__`` is actually bound at
      ``_api`` top level (no dangling strings behind the lazy
      ``__getattr__``);
    * the static and lazy surfaces are disjoint — a name on both would
      resolve inconsistently depending on import order;
    * ``__init__`` defines the lazy ``__getattr__``.
    """
    package_dir = Path(package_dir)
    diagnostics: List[Diagnostic] = []

    def report(path: Path, line: int, message: str) -> None:
        diagnostics.append(
            Diagnostic(
                path=str(path), line=line, col=1, rule="RL002", message=message
            )
        )

    init_path = package_dir / "__init__.py"
    api_path = package_dir / "_api.py"
    for required in (init_path, api_path):
        if not required.is_file():
            report(
                package_dir / "__init__.py",
                1,
                f"api-surface: expected file {required.name} is missing",
            )
            return diagnostics

    init_tree = ast.parse(init_path.read_text(), filename=str(init_path))
    api_tree = ast.parse(api_path.read_text(), filename=str(api_path))

    static_all, static_line = _extract_all(init_tree)
    api_all, api_line = _extract_all(api_tree)
    if static_all is None:
        report(init_path, 1, "api-surface: __init__ has no literal __all__")
        static_all = []
    if api_all is None:
        report(api_path, 1, "api-surface: _api has no literal __all__")
        api_all = []

    for names, path, line, label in (
        (static_all, init_path, static_line, "__init__.__all__"),
        (api_all, api_path, api_line, "_api.__all__"),
    ):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            report(
                path,
                line,
                f"api-surface: duplicate names in {label}: "
                + ", ".join(duplicates),
            )

    api_bound = _top_level_bindings(api_tree)
    dangling = [name for name in api_all if name not in api_bound]
    if dangling:
        report(
            api_path,
            api_line,
            "api-surface: names advertised in _api.__all__ but never bound: "
            + ", ".join(sorted(dangling)),
        )

    overlap = sorted(set(static_all) & set(api_all))
    if overlap:
        report(
            init_path,
            static_line,
            "api-surface: static __all__ and lazy _api.__all__ overlap "
            "(import-order dependent resolution): " + ", ".join(overlap),
        )

    init_bound = _top_level_bindings(init_tree)
    if "__getattr__" not in init_bound:
        report(
            init_path,
            1,
            "api-surface: __init__ defines no lazy __getattr__, so "
            "_api.__all__ names are unreachable from the package",
        )
    return diagnostics


class ApiSurfaceRule(ProjectRule):
    """RL002: the ``__all__`` / ``_api`` / lazy-getattr surfaces agree."""

    name = "RL002"
    description = (
        "api-surface: repro.__all__, _api bindings and the lazy "
        "__getattr__ are mutually consistent"
    )

    def check_project(self, sources: Sequence[FileSource]) -> List[Diagnostic]:
        package_dirs = {
            source.path.parent
            for source in sources
            if source.path.name == "_api.py"
            and (source.path.parent / "__init__.py").is_file()
        }
        diagnostics: List[Diagnostic] = []
        for package_dir in sorted(package_dirs):
            diagnostics.extend(check_api_surface(package_dir))
        return diagnostics


# --------------------------------------------------------------------------
# RL003 · async-purity
# --------------------------------------------------------------------------

#: Sync-I/O entry points that stall the event loop when awaited nowhere.
_BLOCKING_IO_METHODS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
}


class AsyncPurityRule(RuleVisitor):
    """RL003: no blocking calls directly inside ``async def`` bodies.

    ``time.sleep``, ``Future``/``Executor`` ``.result()`` and sync file
    I/O all stall the event loop, which silently serializes the
    micro-batcher.  Nested ``def`` helpers are exempt — those are
    exactly what ``run_in_executor`` exists for.

    ``run_in_executor(None, ...)`` is also flagged: the anonymous
    default executor is process-global, unbounded in queue depth and
    shut down by no one — a serving tier must own its executor so
    ``stop()`` can bound and drain it (pass a named
    ``ThreadPoolExecutor`` instead).
    """

    name = "RL003"
    description = (
        "async-purity: no time.sleep, blocking .result(), sync file "
        "I/O, or anonymous run_in_executor(None, ...) inside async "
        "def bodies"
    )

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        for call in self._direct_calls(node):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                self.report(
                    call,
                    "time.sleep inside async def blocks the event loop — "
                    "use 'await asyncio.sleep(...)'",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "result":
                self.report(
                    call,
                    "blocking .result() inside async def — await the "
                    "future (or wrap the work in run_in_executor)",
                )
            elif isinstance(func, ast.Name) and func.id == "open":
                self.report(
                    call,
                    "sync open() inside async def blocks the event loop — "
                    "move file I/O into run_in_executor",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_IO_METHODS
            ):
                self.report(
                    call,
                    f"sync file I/O '.{func.attr}()' inside async def "
                    "blocks the event loop — move it into run_in_executor",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "run_in_executor"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value is None
            ):
                self.report(
                    call,
                    "run_in_executor(None, ...) uses the anonymous "
                    "process-global default executor — pass an owned, "
                    "bounded executor that shutdown can drain",
                )
        self.generic_visit(node)

    @staticmethod
    def _direct_calls(node: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
        """Calls lexically inside *node*, not inside nested functions."""

        def walk(item: ast.AST) -> Iterator[ast.Call]:
            for child in ast.iter_child_nodes(item):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(child, ast.Call):
                    yield child
                yield from walk(child)

        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from walk(statement)


# --------------------------------------------------------------------------
# RL006 · hygiene
# --------------------------------------------------------------------------

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


class HygieneRule(RuleVisitor):
    """RL006: no bare ``except:``, no mutable default arguments.

    A bare except swallows ``KeyboardInterrupt``/``SystemExit`` and
    hides worker crashes as silent wrong answers; a mutable default is
    shared across calls and turns a pure function stateful — both are
    determinism bugs waiting to happen.
    """

    name = "RL006"
    description = "hygiene: no bare except clauses or mutable default arguments"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare 'except:' swallows KeyboardInterrupt/SystemExit — "
                "catch Exception (or narrower)",
            )
        self.generic_visit(node)

    def _check_defaults(
        self, node: ast.AST, arguments: ast.arguments
    ) -> None:
        defaults = list(arguments.defaults) + [
            default for default in arguments.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self.report(
                    default,
                    "mutable default argument is shared across calls — "
                    "default to None and create the object in the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)


#: The registry ``repro-lint`` runs (all on by default).
RULES: Dict[str, Type[Any]] = {
    SeedDisciplineRule.name: SeedDisciplineRule,
    ApiSurfaceRule.name: ApiSurfaceRule,
    AsyncPurityRule.name: AsyncPurityRule,
    HygieneRule.name: HygieneRule,
    LockDisciplineRule.name: LockDisciplineRule,
    HotPathAllocationRule.name: HotPathAllocationRule,
}
