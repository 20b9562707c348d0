"""Domain-aware static analysis for the reproduction (``repro lint``).

The framework lives in :mod:`repro.devtools.lint.core` (shared AST walk,
:class:`Checker`, :class:`Rule`, the :data:`LINT_RULES` registry), the
built-in rules RPL001–RPL008 in :mod:`repro.devtools.lint.rules`.  The
ratcheting exception file (:mod:`repro.devtools.baseline`) and the
text/json/github renderers (:mod:`repro.devtools.formats`) are shared
with ``repro check``.

Importing this package registers the built-in rules.
"""

from repro.devtools.lint import rules as _rules  # noqa: F401  (registers rules)
from repro.devtools.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.devtools.lint.cli import main
from repro.devtools.lint.core import LINT_RULES, Checker, Rule, Violation

__all__ = [
    "BaselineEntry",
    "Checker",
    "LINT_RULES",
    "Rule",
    "Violation",
    "apply_baseline",
    "load_baseline",
    "main",
    "save_baseline",
]
