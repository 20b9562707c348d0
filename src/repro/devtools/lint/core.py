"""The checker framework behind ``repro lint``.

One shared AST walk per file drives every registered rule: the
:class:`Checker` parses a file once, maintains the cross-cutting context
rules keep needing (enclosing-function stack, numpy import aliases,
function-local spec bindings), and hands every node to each
:class:`Rule` whose :meth:`Rule.applies_to` accepts the file's
repo-relative path.  Rules are plugin classes registered in
:data:`LINT_RULES` — a :class:`repro.api.registry.Registry`, the same
mechanism every other pluggable axis of the system uses — so downstream
invariants can ship their own rule without touching this package.

Violations carry a *fingerprint* — ``(rule, path, stripped source
line)`` — deliberately excluding the line number, so a committed baseline
entry keeps suppressing its violation when unrelated edits shift the file
(see :mod:`repro.devtools.baseline`).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.api.registry import Registry
from repro.devtools.findings import SEVERITIES, Violation

#: Registered rule plugins (name = rule code, factory = rule class).
LINT_RULES = Registry("lint rule")


def is_first_party(path: str) -> bool:
    """True for the production package files (``src/repro/**/*.py``)."""
    return path.startswith("src/repro/") and path.endswith(".py")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class FileContext:
    """Everything rules may need about the file being checked."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source_lines = source.splitlines()
        self.tree = tree
        #: Local names bound to the numpy module (``import numpy as np``).
        self.numpy_aliases = {"numpy"}
        #: Enclosing function stack (innermost last).
        self.function_stack: List[ast.AST] = []
        #: Per-function sets of names bound to frozen-spec constructor
        #: calls (maintained by the walker for RPL003).
        self.spec_bindings: List[set] = [set()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy_aliases.add(alias.asname or "numpy")

    # -- helpers rules lean on -----------------------------------------

    def resolve_numpy(self, dotted: Optional[str]) -> Optional[str]:
        """Normalize ``np.random.seed`` → ``numpy.random.seed``."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.numpy_aliases:
            return "numpy." + rest if rest else "numpy"
        return dotted

    @property
    def enclosing_function(self) -> Optional[ast.AST]:
        return self.function_stack[-1] if self.function_stack else None

    @property
    def in_async_body(self) -> bool:
        """True when the nearest enclosing function is ``async def``.

        Nested synchronous ``def``s inside a coroutine are excluded: they
        only block if called, and the sanctioned way to call them is via
        an executor hop.
        """
        return isinstance(self.enclosing_function, ast.AsyncFunctionDef)

    def line_text(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class for lint rule plugins.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`rationale`,
    optionally narrow :meth:`applies_to`, and yield
    :class:`Violation` objects from :meth:`visit_node` — called once per
    AST node of every applicable file by the shared walker.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    severity: str = "error"

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (repo-relative posix)."""
        return is_first_party(path)

    def start_file(self, ctx: FileContext) -> Iterator[Violation]:
        """Hook run once per file before the node walk."""
        return iter(())

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        return iter(())

    def violation(
        self, node: ast.AST, ctx: FileContext, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            line_text=ctx.line_text(node),
            severity=self.severity,
        )


#: Frozen spec constructors whose instances must never be mutated
#: (see RPL003 and :mod:`repro.api.specs`).
SPEC_CONSTRUCTORS = frozenset(
    {
        "InstanceSpec",
        "PolicySpec",
        "MeasureSpec",
        "CrowdSpec",
        "BudgetSpec",
        "SessionSpec",
        "as_instance_spec",
    }
)


class _Walker:
    """The shared AST walk: one pass, every rule, context maintained."""

    def __init__(self, ctx: FileContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = rules
        self.violations: List[Violation] = []

    def run(self) -> List[Violation]:
        for rule in self.rules:
            self.violations.extend(rule.start_file(self.ctx))
        self._walk(self.ctx.tree)
        return self.violations

    def _walk(self, node: ast.AST) -> None:
        for rule in self.rules:
            self.violations.extend(rule.visit_node(node, self.ctx))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.ctx.function_stack.append(node)
            self.ctx.spec_bindings.append(set())
            for child in ast.iter_child_nodes(node):
                self._walk(child)
            self.ctx.spec_bindings.pop()
            self.ctx.function_stack.pop()
            return
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = dotted_name(node.value.func)
            terminal = callee.rsplit(".", 1)[-1] if callee else ""
            if terminal in SPEC_CONSTRUCTORS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.ctx.spec_bindings[-1].add(target.id)
        for child in ast.iter_child_nodes(node):
            self._walk(child)


class Checker:
    """Runs a set of rules over sources, files, or a directory tree."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            rules = [LINT_RULES.create(code) for code in LINT_RULES.available()]
        self.rules = list(rules)

    def check_source(self, source: str, path: str) -> List[Violation]:
        """Lint one in-memory source under a repo-relative posix ``path``.

        The path decides which rules apply (and how path-scoped rules
        treat the file) — fixture trees exercise path-sensitive rules by
        mirroring the real layout under a temporary root.
        """
        applicable = [rule for rule in self.rules if rule.applies_to(path)]
        if not applicable:
            return []
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Violation(
                    rule="RPL000",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                    line_text="",
                )
            ]
        ctx = FileContext(path, source, tree)
        return _Walker(ctx, applicable).run()

    def check_file(self, file_path: Path, rel_path: str) -> List[Violation]:
        return self.check_source(
            file_path.read_text(encoding="utf-8"), rel_path
        )

    def check_paths(
        self, root: Path, paths: Iterable[Path]
    ) -> List[Violation]:
        """Lint ``paths`` (files or directories) relative to ``root``.

        Violations come back sorted by (path, line, rule) so output — and
        therefore baseline diffs — are deterministic.
        """
        violations: List[Violation] = []
        for path in paths:
            target = path if path.is_absolute() else root / path
            files = (
                sorted(target.rglob("*.py"))
                if target.is_dir()
                else [target]
            )
            for file_path in files:
                try:
                    rel = file_path.relative_to(root).as_posix()
                except ValueError:
                    rel = file_path.as_posix()
                violations.extend(self.check_file(file_path, rel))
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return violations


__all__ = [
    "LINT_RULES",
    "SEVERITIES",
    "Checker",
    "FileContext",
    "Rule",
    "Violation",
    "SPEC_CONSTRUCTORS",
    "dotted_name",
    "is_first_party",
]
