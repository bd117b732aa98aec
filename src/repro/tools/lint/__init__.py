"""``repro-lint`` — AST-based invariant checker for the bit-exact runtime.

Stdlib-only (see :mod:`repro.tools`).  Run it as::

    python -m repro.tools.lint src/repro

Exit codes: 0 clean, 1 violations, 2 usage error.  RL001, RL002, RL003
and RL006 are lexical checks documented in
:mod:`repro.tools.lint.rules`; RL008 and RL009 follow the project call
graph of :mod:`repro.tools.lint.callgraph` (see
:mod:`repro.tools.lint.flowrules`).  All are listed in the README's
"Static guarantees" section; suppress a finding with a trailing
``# repro-lint: disable=RL00x`` pragma.  ``--format json`` emits the
machine-readable report CI archives; ``--graph calls`` dumps the call
graph for debugging.
"""

from __future__ import annotations

from .callgraph import CallGraph, build_call_graph, module_name_for
from .engine import (
    Diagnostic,
    FileSource,
    LintRunner,
    ProjectRule,
    RuleVisitor,
    main,
)
from .rules import RULES, check_api_surface

__all__ = [
    "CallGraph",
    "Diagnostic",
    "FileSource",
    "LintRunner",
    "ProjectRule",
    "RULES",
    "RuleVisitor",
    "build_call_graph",
    "check_api_surface",
    "main",
    "module_name_for",
]
