"""Call-graph rules: lock discipline and hot-path allocation.

Both rules ride on the project call graph of :mod:`.callgraph`:

* :class:`LockDisciplineRule` (RL008) — module-level mutable state and
  module-shared instances may only be mutated while holding the
  associated ``threading.Lock``, in any function reachable from a
  thread-backend worker entry point.
* :class:`HotPathAllocationRule` (RL009) — no ``(B, L)``-scale
  materialization in functions reachable from the packed kernel entry
  points: no float conversion of unpacked bits, no ``unpack_bits`` →
  ``pack_bits`` round-trip, no dense float allocation, no per-clock
  loop.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, build_call_graph, module_name_for
from .engine import Diagnostic, FileSource, ProjectRule

__all__ = [
    "HotPathAllocationRule",
    "LockDisciplineRule",
]


def _last_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _shallow_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function body, not descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _diagnostic(
    rule: str, source: FileSource, node: ast.AST, message: str
) -> Diagnostic:
    return Diagnostic(
        path=str(source.path),
        line=int(getattr(node, "lineno", 1)),
        col=int(getattr(node, "col_offset", 0)) + 1,
        rule=rule,
        message=message,
    )


# -- RL008: lock discipline ----------------------------------------------------


_LOCK_FACTORIES = {"Lock", "RLock"}

_MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
}


def _is_lock_call(value: ast.expr) -> bool:
    return (
        isinstance(value, ast.Call)
        and _last_name(value.func) in _LOCK_FACTORIES
    )


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    return (
        isinstance(value, ast.Call)
        and _last_name(value.func) in _MUTABLE_FACTORIES
    )


class _GuardedScanner:
    """Find mutations of watched names outside ``with <lock>`` blocks.

    Module mode watches plain module-global names (rebinds only count
    under a ``global`` declaration); instance mode (``self_attrs``)
    watches ``self.<attr>`` state.  The guard check is lexical — the
    ``with self._lock:`` blocks of the package's memo helper are its
    shape — and does not follow calls.
    """

    def __init__(
        self,
        watched: Set[str],
        lock_names: Set[str],
        self_attrs: bool = False,
        lock_attrs: Optional[Set[str]] = None,
    ) -> None:
        self.watched = watched
        self.lock_names = lock_names
        self.self_attrs = self_attrs
        self.lock_attrs = lock_attrs or set()
        self._globals: Set[str] = set()
        self.mutations: List[Tuple[ast.stmt, str]] = []

    def _is_guard(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name) and expr.id in self.lock_names:
            return True
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self.lock_attrs
        )

    def _watched_base(self, expr: ast.expr) -> Optional[str]:
        """The watched name a target expression mutates, if any."""
        if self.self_attrs:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.watched
            ):
                return expr.attr
            return None
        if isinstance(expr, ast.Name) and expr.id in self.watched:
            return expr.id
        return None

    def run(self, func: ast.AST) -> List[Tuple[ast.stmt, str]]:
        self.mutations = []
        self._globals = set()
        for node in _shallow_walk(func):
            if isinstance(node, ast.Global):
                self._globals.update(node.names)
        body: List[ast.stmt] = list(getattr(func, "body", []))
        self._scan(body, guarded=False)
        return self.mutations

    def _scan(self, body: Sequence[ast.stmt], guarded: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = guarded or any(
                    self._is_guard(item.context_expr) for item in stmt.items
                )
                self._scan(stmt.body, holds)
                continue
            if not guarded:
                self._check_mutations(stmt)
            for attr in ("body", "orelse", "finalbody"):
                children = getattr(stmt, attr, [])
                if children:
                    self._scan(children, guarded)
            for handler in getattr(stmt, "handlers", []):
                self._scan(handler.body, guarded)
            for case in getattr(stmt, "cases", []):
                self._scan(case.body, guarded)

    def _check_mutations(self, stmt: ast.stmt) -> None:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            watched = self._watched_base(base)
            if watched is None:
                continue
            if (
                not self.self_attrs
                and isinstance(target, ast.Name)
                and watched not in self._globals
            ):
                # A plain-name rebind without `global` is a local
                # shadow, not a shared mutation.
                continue
            self.mutations.append((stmt, watched))
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                watched = self._watched_base(func.value)
                if watched is not None:
                    self.mutations.append((stmt, watched))


class LockDisciplineRule(ProjectRule):
    """RL008: thread-reachable mutations of shared state must hold a lock."""

    name = "RL008"
    description = (
        "lock-discipline: module-level mutable state and module-shared "
        "instances may only be mutated while holding the associated "
        "threading.Lock in functions reachable from a thread-backend "
        "worker entry point"
    )

    def check_project(
        self, sources: Sequence[FileSource]
    ) -> List[Diagnostic]:
        by_module: Dict[str, FileSource] = {
            module_name_for(source.path): source for source in sources
        }
        graph = build_call_graph(
            [(name, source.tree) for name, source in by_module.items()]
        )
        reachable = graph.reachable(graph.thread_entries)
        diagnostics: List[Diagnostic] = []
        for name, source in by_module.items():
            diagnostics.extend(
                self._check_module(source, name, graph, reachable)
            )
            diagnostics.extend(
                self._check_shared_instances(
                    by_module, name, source.tree, graph, reachable
                )
            )
        return diagnostics

    @staticmethod
    def _module_bindings(
        tree: ast.Module,
    ) -> Tuple[Set[str], Set[str], Dict[str, str]]:
        """``(lock_names, mutable_names, shared_instances)`` of a module."""
        locks: Set[str] = set()
        mutable: Set[str] = set()
        shared: Dict[str, str] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target: Optional[ast.expr] = stmt.targets[0]
                value: Optional[ast.expr] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                value = stmt.value
            else:
                continue
            if not isinstance(target, ast.Name) or value is None:
                continue
            if _is_lock_call(value):
                locks.add(target.id)
            elif _is_mutable_literal(value):
                mutable.add(target.id)
            elif isinstance(value, ast.Call):
                callee = _last_name(value.func)
                if callee is not None:
                    shared[target.id] = callee
        return locks, mutable, shared

    def _check_module(
        self,
        source: FileSource,
        module: str,
        graph: CallGraph,
        reachable: Set[str],
    ) -> List[Diagnostic]:
        locks, mutable, _shared = self._module_bindings(source.tree)
        # Names rebound under `global` in some function are shared
        # module state even when the top-level binding is a sentinel.
        lazy: Set[str] = set()
        for info in graph.functions.values():
            if info.module != module:
                continue
            for node in _shallow_walk(info.node):
                if isinstance(node, ast.Global):
                    lazy.update(node.names)
        watched = mutable | lazy
        if not watched:
            return []
        diagnostics: List[Diagnostic] = []
        for info in graph.functions.values():
            if info.module != module or info.qname not in reachable:
                continue
            scanner = _GuardedScanner(watched, locks)
            for stmt, name in scanner.run(info.node):
                hint = (
                    "guard it with 'with <module Lock>:' (module locks: "
                    f"{', '.join(sorted(locks))})"
                    if locks
                    else "define a module-level threading.Lock and hold it here"
                )
                diagnostics.append(
                    _diagnostic(
                        self.name,
                        source,
                        stmt,
                        f"module state '{name}' mutated in thread-reachable "
                        f"'{info.qname.rsplit('.', 1)[-1]}' without holding "
                        f"a lock; {hint}",
                    )
                )
        return diagnostics

    def _check_shared_instances(
        self,
        by_module: Dict[str, FileSource],
        module: str,
        tree: ast.Module,
        graph: CallGraph,
        reachable: Set[str],
    ) -> List[Diagnostic]:
        _locks, _mutable, shared = self._module_bindings(tree)
        class_qnames: Set[str] = set()
        for callee in shared.values():
            for qname in graph.classes:
                if qname.rsplit(".", 1)[-1] == callee:
                    class_qnames.add(qname)
        diagnostics: List[Diagnostic] = []
        for cls_qname in sorted(class_qnames):
            lock_attrs = self._instance_lock_attrs(graph, cls_qname)
            state_attrs = self._state_attrs(graph, cls_qname) - lock_attrs
            for method in sorted(graph.classes.get(cls_qname, set())):
                if method == "__init__":
                    continue
                qname = f"{cls_qname}.{method}"
                info = graph.functions.get(qname)
                if info is None or qname not in reachable:
                    continue
                method_source = by_module.get(info.module)
                if method_source is None:
                    continue
                scanner = _GuardedScanner(
                    state_attrs,
                    set(),
                    self_attrs=True,
                    lock_attrs=lock_attrs,
                )
                for stmt, attr in scanner.run(info.node):
                    hint = (
                        f"hold 'with self.{sorted(lock_attrs)[0]}:'"
                        if lock_attrs
                        else (
                            "the class backs a module-level shared instance "
                            "but defines no threading.Lock attribute; add "
                            "one in __init__ and hold it"
                        )
                    )
                    diagnostics.append(
                        _diagnostic(
                            self.name,
                            method_source,
                            stmt,
                            f"'{cls_qname.rsplit('.', 1)[-1]}.{attr}' backs "
                            "a module-level shared instance and is mutated "
                            f"in thread-reachable '{method}' without its "
                            f"lock; {hint}",
                        )
                    )
        return diagnostics

    @staticmethod
    def _instance_lock_attrs(graph: CallGraph, cls_qname: str) -> Set[str]:
        init = graph.functions.get(f"{cls_qname}.__init__")
        attrs: Set[str] = set()
        if init is None:
            return attrs
        for node in _shallow_walk(init.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "self"
                and _is_lock_call(node.value)
            ):
                attrs.add(node.targets[0].attr)
        return attrs

    @staticmethod
    def _state_attrs(graph: CallGraph, cls_qname: str) -> Set[str]:
        """Every ``self.X`` attribute the class assigns anywhere."""
        attrs: Set[str] = set()
        prefix = f"{cls_qname}."
        for qname, info in graph.functions.items():
            if not qname.startswith(prefix):
                continue
            for node in _shallow_walk(info.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                ):
                    attrs.add(node.attr)
        return attrs


# -- RL009: hot-path allocation ------------------------------------------------


_DENSE_FACTORIES = {"zeros", "ones", "empty", "full"}

_FLOAT_DTYPES = {"float", "float16", "float32", "float64", "double"}


def _is_float_dtype(expr: ast.expr) -> bool:
    name = _last_name(expr)
    if name is not None and name in _FLOAT_DTYPES:
        return True
    return (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, str)
        and expr.value.startswith("float")
    )


class HotPathAllocationRule(ProjectRule):
    """RL009: no (B, L)-scale materialization on packed paths."""

    name = "RL009"
    description = (
        "hot-path-allocation: functions reachable from the packed kernel "
        "entry points must not materialize (B, L)-scale tensors — "
        "no unpack_bits→astype(float), no unpack_bits→pack_bits "
        "round-trip, no dense multi-axis float allocation, no per-clock "
        "python loops"
    )

    def check_project(
        self, sources: Sequence[FileSource]
    ) -> List[Diagnostic]:
        by_module: Dict[str, FileSource] = {
            module_name_for(source.path): source for source in sources
        }
        graph = build_call_graph(
            [(name, source.tree) for name, source in by_module.items()]
        )
        reachable = graph.reachable(graph.packed_entries())
        diagnostics: List[Diagnostic] = []
        for info in graph.functions.values():
            if info.qname not in reachable:
                continue
            source = by_module.get(info.module)
            if source is None:
                continue
            scan = _HotPathScan(
                self.name, source, info.qname.rsplit(".", 1)[-1]
            )
            diagnostics.extend(scan.run(info.node))
        return diagnostics


class _HotPathScan(ast.NodeVisitor):
    """One packed-reachable function body, walked in source order.

    A name bound from an ``unpack_bits`` result, directly or through
    another such name, holds the unpacked bit plane.  An assignment's
    value is visited before its targets take on the taint, so in
    ``x = unpack_bits(f(pack_bits(x)))`` the pack consumes the previous
    ``x``.  Nested functions are call-graph nodes of their own and are
    skipped here.
    """

    def __init__(self, rule: str, source: FileSource, func_name: str) -> None:
        self.rule = rule
        self.source = source
        self.func_name = func_name
        self.tainted: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []

    def run(self, func: ast.AST) -> List[Diagnostic]:
        for statement in getattr(func, "body", []):
            self.visit(statement)
        return self.diagnostics

    def _report(self, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            _diagnostic(self.rule, self.source, node, message)
        )

    def _holds_plane(self, node: ast.AST) -> bool:
        return any(
            (
                isinstance(child, ast.Call)
                and _last_name(child.func) == "unpack_bits"
            )
            or (isinstance(child, ast.Name) and child.id in self.tainted)
            for child in ast.walk(node)
        )

    def _skip(self, node: ast.AST) -> None:
        return None

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _skip

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        if self._holds_plane(node.value):
            for target in node.targets:
                self.tainted.update(
                    child.id
                    for child in ast.walk(target)
                    if isinstance(child, ast.Name)
                )
        for target in node.targets:
            self.visit(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name) and self._holds_plane(node.value):
            self.tainted.add(node.target.id)
        self.visit(node.target)

    def visit_Call(self, call: ast.Call) -> None:
        name = _last_name(call.func)
        if name == "pack_bits" and any(
            self._holds_plane(argument)
            for argument in [*call.args, *(kw.value for kw in call.keywords)]
        ):
            self._report(
                call,
                "pack_bits over an unpack_bits result in packed-reachable "
                f"'{self.func_name}' — the round-trip materializes the 64x "
                "bit plane the packed words exist to avoid; stay in uint64 "
                "words",
            )
        if name == "astype" and isinstance(call.func, ast.Attribute):
            dtype_args = list(call.args) + [
                kw.value for kw in call.keywords if kw.arg == "dtype"
            ]
            if self._holds_plane(call.func.value) and any(
                _is_float_dtype(arg) for arg in dtype_args
            ):
                self._report(
                    call,
                    "unpacked bit tensor converted to float in packed-"
                    f"reachable '{self.func_name}' — a (B, L) float "
                    "materialization; keep the data packed or integer",
                )
        if name in _DENSE_FACTORIES:
            shape = call.args[0] if call.args else None
            dtypes = [kw.value for kw in call.keywords if kw.arg == "dtype"]
            if name != "full" and len(call.args) > 1:
                dtypes.append(call.args[1])
            if isinstance(shape, ast.Tuple) and len(shape.elts) >= 2:
                if not dtypes or any(_is_float_dtype(d) for d in dtypes):
                    self._report(
                        call,
                        f"dense multi-axis float allocation (np.{name}) "
                        f"in packed-reachable '{self.func_name}'; allocate "
                        "packed uint64 words or an integer dtype instead",
                    )
        self.generic_visit(call)

    def visit_For(self, loop: ast.For) -> None:
        iterator = loop.iter
        if (
            isinstance(iterator, ast.Call)
            and _last_name(iterator.func) == "range"
            and len(iterator.args) == 1
            and any(
                isinstance(node, ast.Name) and "length" in node.id.lower()
                for node in ast.walk(iterator.args[0])
            )
        ):
            self._report(
                loop,
                "per-clock python loop (range over a stream length) in "
                f"packed-reachable '{self.func_name}'; vectorize over "
                "packed words instead",
            )
        self.generic_visit(loop)
