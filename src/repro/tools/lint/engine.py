"""The ``repro-lint`` rule engine: files, pragmas, diagnostics, CLI.

A deliberately small, stdlib-only static-analysis framework.  The moving
parts:

* :class:`FileSource` — one parsed python file: source text, AST, and
  the ``# repro-lint: disable=...`` pragma table.
* :class:`RuleVisitor` — a per-file check: the visitor walks one
  module AST and calls :meth:`RuleVisitor.report` for each violation.
* :class:`ProjectRule` — a whole-file-set check (RL002, whose
  invariant spans ``__init__.py`` / ``_api.py``, and the call-graph
  rules RL008 and RL009).
* :class:`LintRunner` — applies the enabled rules to a file set,
  filters suppressed diagnostics, and renders the report.
* :func:`main` — the ``python -m repro.tools.lint`` entry point
  (exit 0 clean, 1 violations, 2 usage error).

Suppression is per physical line: a trailing
``# repro-lint: disable=RL001`` (comma-separated rule names, or
``all``) silences diagnostics anchored on that line, and
``# repro-lint: disable-file=RL001`` anywhere in the file silences the
named rules for the whole file.  Every suppression is deliberate and
greppable — the pragma string is the audit trail.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Diagnostic",
    "FileSource",
    "LintRunner",
    "ProjectRule",
    "RuleVisitor",
    "main",
]

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*="
    r"\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Diagnostic:
    """One violation: where, which rule, and why it matters."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: RULE message`` (the one-line report form)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class FileSource:
    """One file under lint: text, AST, and its suppression pragmas."""

    def __init__(self, path: Path, text: Optional[str] = None) -> None:
        self.path = Path(path)
        self.text = self.path.read_text() if text is None else text
        self.tree = ast.parse(self.text, filename=str(self.path))
        self._line_pragmas: Dict[int, Set[str]] = {}
        self._file_pragmas: Set[str] = set()
        for number, line in enumerate(self.text.splitlines(), start=1):
            match = _PRAGMA.search(line)
            if not match:
                continue
            rules = {
                name.strip().upper()
                for name in match.group("rules").split(",")
                if name.strip()
            }
            if match.group("scope") == "disable-file":
                self._file_pragmas |= rules
            else:
                self._line_pragmas.setdefault(number, set()).update(rules)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether *rule* is pragma-silenced at *line* of this file."""
        for pragmas in (self._file_pragmas, self._line_pragmas.get(line, set())):
            if "ALL" in pragmas or rule.upper() in pragmas:
                return True
        return False


class RuleVisitor(ast.NodeVisitor):
    """An :class:`ast.NodeVisitor` that doubles as a per-file rule.

    Subclasses implement ``visit_*`` methods and call :meth:`report`;
    the framework handles instantiation per file, diagnostic plumbing
    and pragma filtering.  State set in ``__init__`` is per-file — a
    fresh visitor walks every file.
    """

    name: str = ""
    description: str = ""
    default_enabled: bool = True

    def __init__(self, source: FileSource) -> None:
        self.source = source
        self.diagnostics: List[Diagnostic] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record a violation anchored at *node*."""
        self.diagnostics.append(
            Diagnostic(
                path=str(self.source.path),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.name,
                message=message,
            )
        )

    @classmethod
    def check(cls, source: FileSource) -> List[Diagnostic]:
        visitor = cls(source)
        visitor.visit(source.tree)
        return visitor.diagnostics


class ProjectRule:
    """A whole-file-set check (cross-file invariants like RL002)."""

    name: str = ""
    description: str = ""
    default_enabled: bool = True

    def check_project(self, sources: Sequence[FileSource]) -> List[Diagnostic]:
        raise NotImplementedError


@dataclass
class LintRunner:
    """Apply a rule set to a file set and collect the surviving report."""

    rules: Sequence[Type[Any]]
    sources: List[FileSource] = field(default_factory=list)
    errors: List[Diagnostic] = field(default_factory=list)

    def add_path(self, path: Path) -> None:
        """Queue one file, or every ``*.py`` under a directory."""
        path = Path(path)
        files = (
            sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
            if path.is_dir()
            else [path]
        )
        for file in files:
            try:
                self.sources.append(FileSource(file))
            except (SyntaxError, ValueError) as error:
                line = getattr(error, "lineno", 1) or 1
                self.errors.append(
                    Diagnostic(
                        path=str(file),
                        line=int(line),
                        col=1,
                        rule="RL000",
                        message=f"file does not parse: {error.msg}"
                        if isinstance(error, SyntaxError)
                        else f"file does not parse: {error}",
                    )
                )

    def run(self) -> List[Diagnostic]:
        """Every unsuppressed diagnostic, sorted by location."""
        by_path = {str(source.path): source for source in self.sources}
        diagnostics = list(self.errors)
        for rule in self.rules:
            if issubclass(rule, ProjectRule):
                raw = rule().check_project(self.sources)
            else:
                raw = [
                    diagnostic
                    for source in self.sources
                    for diagnostic in rule.check(source)
                ]
            for diagnostic in raw:
                source = by_path.get(diagnostic.path)
                if source is not None and source.suppressed(
                    diagnostic.rule, diagnostic.line
                ):
                    continue
                diagnostics.append(diagnostic)
        return sorted(diagnostics, key=Diagnostic.sort_key)


def _parse_rule_list(raw: Iterable[str]) -> Set[str]:
    names: Set[str] = set()
    for chunk in raw:
        names.update(
            name.strip().upper() for name in chunk.split(",") if name.strip()
        )
    return names


def _select_rules(
    registry: Dict[str, Type[Any]],
    select: Set[str],
    disable: Set[str],
) -> Tuple[List[Type[Any]], Set[str]]:
    """The enabled rule classes, plus any names that don't exist."""
    unknown = (select | disable) - set(registry)
    if select:
        enabled = [registry[name] for name in sorted(select & set(registry))]
    else:
        enabled = [
            rule
            for name, rule in sorted(registry.items())
            if rule.default_enabled and name not in disable
        ]
    return enabled, unknown


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.  Returns the process exit code.

    Exit 0: no violations.  Exit 1: violations (or unparsable files).
    Exit 2: usage error (no paths, unknown rule name).
    """
    from .rules import RULES

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the repro runtime's "
            "bit-exactness conventions."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="run only these rules (comma-separated, e.g. RL001,RL003)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULES",
        help="skip these rules (comma-separated)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "report format: 'text' (one line per finding) or 'json' "
            "(a machine-readable document, the CI artifact form)"
        ),
    )
    parser.add_argument(
        "--graph",
        choices=("calls",),
        help=(
            "instead of linting, print the project call graph of the "
            "given paths with its thread entry points"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in sorted(RULES.items()):
            state = "on" if rule.default_enabled else "off"
            print(f"{name} [{state}] {rule.description}")
        return 0
    if not args.paths:
        print("repro-lint: no paths given", file=sys.stderr)
        return 2

    enabled, unknown = _select_rules(
        RULES, _parse_rule_list(args.select), _parse_rule_list(args.disable)
    )
    if unknown:
        print(
            f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))}; "
            f"have {', '.join(sorted(RULES))}",
            file=sys.stderr,
        )
        return 2

    runner = LintRunner(rules=enabled)
    for path in args.paths:
        if not Path(path).exists():
            print(f"repro-lint: no such path: {path}", file=sys.stderr)
            return 2
        runner.add_path(Path(path))
    if args.graph:
        return _dump_call_graph(runner)
    diagnostics = runner.run()
    count = len(diagnostics)
    files = len(runner.sources)
    if args.format == "json":
        document: Dict[str, Any] = {
            "tool": "repro-lint",
            "rules": sorted(rule.name for rule in enabled),
            "files": files,
            "issues": [
                {
                    "path": diagnostic.path,
                    "line": diagnostic.line,
                    "col": diagnostic.col,
                    "rule": diagnostic.rule,
                    "message": diagnostic.message,
                }
                for diagnostic in diagnostics
            ],
            "clean": not diagnostics,
        }
        print(json.dumps(document, indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
    print(
        f"repro-lint: {count} issue(s) in {files} file(s)",
        file=sys.stderr,
    )
    return 1 if diagnostics else 0


def _dump_call_graph(runner: LintRunner) -> int:
    """The ``--graph calls`` debug dump: the project call graph."""
    from .callgraph import build_call_graph, module_name_for

    graph = build_call_graph(
        [(module_name_for(source.path), source.tree) for source in runner.sources]
    )
    print("\n".join(graph.describe()))
    return 0
