"""The interprocedural checks behind ``repro check`` (RPC101–RPC104).

Where ``repro lint`` (RPL rules) judges one file at a time, these checks
judge *call paths*: each one runs over the whole-program
:class:`~repro.devtools.analysis.graph.CallGraph` and one of the
fixed-point engines in :mod:`repro.devtools.analysis.dataflow`, so a
violation can involve three functions in three modules none of which is
individually wrong.

Checks are plugins in :data:`CHECKS` — the same
:class:`repro.api.registry.Registry` mechanism as every other pluggable
axis — keyed by their RPC code.  Findings are ordinary
:class:`~repro.devtools.findings.Violation` objects, so the baseline,
renderers, and exit-code convention are shared with ``repro lint``
verbatim.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set

from repro.api.registry import Registry
from repro.devtools.analysis import dataflow
from repro.devtools.analysis.graph import CallGraph, FunctionInfo
from repro.devtools.findings import Violation

#: Registered check plugins (name = check code, factory = check class).
CHECKS = Registry("check")


class Check:
    """Base class for whole-program check plugins.

    Mirrors the info surface of :class:`repro.devtools.lint.core.Rule`
    (``code`` / ``name`` / ``rationale`` / ``severity``) so the shared
    renderers and ``--list-checks`` work unchanged; the unit of work is
    :meth:`run`, called once with the resolved graph.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    severity: str = "error"

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        return iter(())

    def violation_at(
        self,
        graph: CallGraph,
        function: FunctionInfo,
        message: str,
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=function.path,
            line=function.line,
            col=function.col + 1,
            message=message,
            line_text=graph.line_text(function.qname),
            severity=self.severity,
        )


def _chain(facts: Dict[str, dataflow.TaintEvidence], start: str) -> str:
    return " -> ".join(dataflow.witness_chain(facts, start))


def _seed_taints(
    graph: CallGraph,
    matches_external: "SeedPredicate",
    sanctioned_modules: FrozenSet[str] = frozenset(),
) -> Dict[str, dataflow.TaintEvidence]:
    seeds: Dict[str, dataflow.TaintEvidence] = {}
    for qname, info in sorted(graph.functions.items()):
        if info.module in sanctioned_modules:
            continue
        for site in info.calls:
            if site.target is not None:
                continue
            primitive = matches_external(site.external, site.attr)
            if primitive is not None and qname not in seeds:
                seeds[qname] = dataflow.TaintEvidence(
                    primitive=primitive, via=None, line=site.line
                )
    return seeds


class SeedPredicate:
    """Classifies an unresolved call as a taint primitive (or not)."""

    def __init__(
        self,
        names: FrozenSet[str] = frozenset(),
        dotted: FrozenSet[str] = frozenset(),
        prefixes: Sequence[str] = (),
        attrs: FrozenSet[str] = frozenset(),
    ) -> None:
        self.names = names
        self.dotted = dotted
        self.prefixes = tuple(prefixes)
        self.attrs = attrs

    def __call__(
        self, external: Optional[str], attr: Optional[str]
    ) -> Optional[str]:
        if external is not None:
            if external in self.names or external in self.dotted:
                return external
            for prefix in self.prefixes:
                if external.startswith(prefix):
                    return external
        if attr is not None and attr in self.attrs:
            return f".{attr}"
        return None


#: Primitives that block the calling thread (RPC101 seeds).
BLOCKING = SeedPredicate(
    names=frozenset({"open", "input"}),
    dotted=frozenset(
        {
            "time.sleep",
            "os.system",
            "os.popen",
            "os.waitpid",
            "socket.create_connection",
            "select.select",
            "urllib.request.urlopen",
            "numpy.load",
            "numpy.save",
            "numpy.savez",
            "numpy.savez_compressed",
        }
    ),
    prefixes=("subprocess.", "shutil."),
    attrs=frozenset(
        {
            "recv",
            "recv_into",
            "accept",
            "sendall",
            "read_text",
            "write_text",
            "read_bytes",
            "write_bytes",
        }
    ),
)

#: Nondeterminism primitives (RPC102 seeds).
NONDETERMINISM = SeedPredicate(
    dotted=frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "os.urandom",
            "os.getenv",
            "os.getpid",
            "os.environ.get",
            "uuid.uuid1",
            "uuid.uuid4",
            "secrets.token_hex",
            "secrets.token_bytes",
            "numpy.random.default_rng",
            "numpy.random.seed",
        }
    ),
    prefixes=("random.", "numpy.random.rand", "numpy.random.choice"),
)


@CHECKS.register("RPC101")
class AsyncBlockingPropagation(Check):
    """Blocking primitives must not be reachable from service coroutines.

    The per-file rule RPL004 already keeps ``open()``/``time.sleep`` out
    of ``async def`` *bodies*; this check closes the loophole of hiding
    the blocking call one or more synchronous helpers down.  Functions
    handed to ``run_in_executor`` are passed by reference, never called,
    so the sanctioned executor hop is naturally invisible to the graph.
    """

    code = "RPC101"
    name = "async-blocking-propagation"
    rationale = (
        "a sync helper chain ending in blocking I/O stalls the single "
        "event loop for every connected session"
    )

    #: Statically blocking functions whose runtime path is sanctioned:
    #: handlers swap in BufferedEventLog (``defer_log_writes``) and the
    #: real append runs on the log executor, so taint must not cross.
    sanctioned_barriers = frozenset(
        {"repro.service.manager:EventLog.append"}
    )

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        seeds = _seed_taints(graph, BLOCKING)
        facts = dataflow.taint_closure(
            graph, seeds, barriers=self.sanctioned_barriers
        )
        for qname, info in sorted(graph.functions.items()):
            if not info.is_async:
                continue
            if not info.path.startswith("src/repro/service/"):
                continue
            if qname not in facts or qname in seeds:
                # Direct calls in async bodies are RPL004's finding;
                # this check owns the interprocedural case.
                continue
            yield self.violation_at(
                graph,
                info,
                f"async def {info.name} may block the event loop: "
                f"{_chain(facts, qname)}",
            )


@CHECKS.register("RPC102")
class ContentKeyPurity(Check):
    """Content-key producers must be deterministic.

    ``content_key`` / ``canonical_json`` / spec ``to_dict`` outputs are
    cache keys and golden-dataset authenticators; any call path from
    them into wall clocks, unseeded RNGs, process state, or environment
    reads silently breaks replay.  ``repro.utils.rng`` is the sanctioned
    seed-derivation module and is exempt — determinism there is
    established by construction (``ensure_rng`` / ``derive_seed``).
    """

    code = "RPC102"
    name = "content-key-purity"
    rationale = (
        "a nondeterministic content key breaks cache identity and "
        "golden-dataset authentication on replay"
    )

    sanctioned_modules = frozenset({"repro.utils.rng"})

    def _is_producer(self, graph: CallGraph, info: FunctionInfo) -> bool:
        if info.name in {"content_key", "canonical_json"}:
            return True
        if info.name == "to_dict" and info.cls is not None:
            cls = graph.classes.get(info.cls)
            return cls is not None and "Spec" in cls.name
        return False

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        seeds = _seed_taints(
            graph, NONDETERMINISM, sanctioned_modules=self.sanctioned_modules
        )
        facts = dataflow.taint_closure(graph, seeds)
        for qname, info in sorted(graph.functions.items()):
            if not self._is_producer(graph, info):
                continue
            if qname not in facts:
                continue
            yield self.violation_at(
                graph,
                info,
                f"content-key producer {info.name} can reach "
                f"nondeterminism: {_chain(facts, qname)}",
            )


def _export_resolves(
    graph: CallGraph, module: str, attr: str, depth: int = 0
) -> bool:
    """Whether ``module:attr`` resolves to an import-time binding."""
    if depth > 6:
        return False
    mod = graph.modules.get(module)
    if mod is None:
        return False
    if attr in mod.top_names:
        return True
    target = mod.imports.get(attr)
    if target is not None:
        if target in graph.modules:
            return True
        owner, _, leaf = target.rpartition(".")
        return _export_resolves(graph, owner, leaf, depth + 1)
    return False


@CHECKS.register("RPC103")
class RegistryClosure(Check):
    """Every lazy ``"module:attr"`` reference must statically resolve.

    The registries defer imports until first use, so a typo in
    ``repro.api.catalog`` (or a refactor that moves a builder) only
    explodes when a user asks for that exact plugin — possibly from
    ``/v1/meta`` in production.  This closes the registry over the
    actual module map: the module must exist under ``src/repro`` and
    the attribute must be bound at import time.  Literal
    ``REGISTRY.create("name")`` / ``REGISTRY.get("name")`` lookups are
    held to the statically registered name set as well.
    """

    code = "RPC103"
    name = "registry-closure"
    rationale = (
        "a dangling lazy factory turns a registry lookup into an "
        "ImportError at the first production use"
    )

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        for ref in graph.lazy_refs:
            message = None
            if ref.module not in graph.modules:
                message = (
                    f"lazy reference {ref.text!r} points at module "
                    f"{ref.module!r} which does not exist"
                )
            elif not _export_resolves(graph, ref.module, ref.attr):
                message = (
                    f"lazy reference {ref.text!r}: module {ref.module!r} "
                    f"has no attribute {ref.attr!r}"
                )
            if message is None:
                continue
            if ref.plugin is not None and ref.registry is not None:
                message += (
                    f" (registered as {ref.plugin!r} in {ref.registry})"
                )
            line_text = ""
            for mod in graph.modules.values():
                if mod.path == ref.path and 1 <= ref.line <= len(
                    mod.source_lines
                ):
                    line_text = mod.source_lines[ref.line - 1].strip()
                    break
            yield Violation(
                rule=self.code,
                path=ref.path,
                line=ref.line,
                col=1,
                message=message,
                line_text=line_text,
                severity=self.severity,
            )
        yield from self._check_literal_lookups(graph)

    def _check_literal_lookups(
        self, graph: CallGraph
    ) -> Iterator[Violation]:
        registered: Dict[str, Set[str]] = {}
        for ref in graph.lazy_refs:
            if ref.registry is not None and ref.plugin is not None:
                registered.setdefault(ref.registry, set()).add(ref.plugin)
        if not registered:
            return
        for name, module in sorted(graph.modules.items()):
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"create", "get"}
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in registered
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    continue
                registry = node.func.value.id
                plugin = node.args[0].value
                if plugin in registered[registry]:
                    continue
                line_text = ""
                if 1 <= node.lineno <= len(module.source_lines):
                    line_text = module.source_lines[node.lineno - 1].strip()
                yield Violation(
                    rule=self.code,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"{registry}.{node.func.attr}({plugin!r}) names an "
                        f"unregistered plugin; registered: "
                        f"{sorted(registered[registry])}"
                    ),
                    line_text=line_text,
                    severity=self.severity,
                )


@CHECKS.register("RPC104")
class ExceptionContract(Check):
    """Code reachable from ``/v1`` handlers only raises mapped types.

    The protocol error envelope maps ``HttpError`` (explicit status),
    ``ProtocolError`` → 400, ``UnknownSessionError`` → 404 and
    ``ClosedSessionError``/``DuplicateSessionError`` → 409; anything else
    escaping a handler is a generic 500 with no machine-readable error
    code — a client-visible contract break.  The may-raise sets are propagated along call edges
    with subclass-aware caught-at-callsite filtering, so a
    ``ValueError`` raised three frames down but wrapped at the call site
    in ``except (TypeError, ValueError)`` is correctly silent.
    """

    code = "RPC104"
    name = "exception-contract"
    rationale = (
        "an unmapped exception escaping a /v1 handler becomes an opaque "
        "500 instead of a protocol error envelope"
    )

    #: Exception types the protocol envelope maps to status codes.
    allowed = frozenset(
        {
            "HttpError",
            "ProtocolError",
            "UnknownSessionError",
            "ClosedSessionError",
            "DuplicateSessionError",
            "CancelledError",
        }
    )

    def _is_handler(self, info: FunctionInfo) -> bool:
        return (
            info.is_async
            and info.path.startswith("src/repro/service/")
            and info.name.startswith("_handle_")
        )

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        may_raise = dataflow.propagate_exceptions(graph)
        for qname, info in sorted(graph.functions.items()):
            if not self._is_handler(info):
                continue
            facts = may_raise.get(qname, set())
            reported: Set[str] = set()
            for fact in sorted(facts, key=lambda f: (f.exc, f.origin)):
                if fact.exc in self.allowed:
                    continue
                if graph.exception_ancestors(fact.exc) & self.allowed:
                    continue
                if fact.exc in reported:
                    continue
                reported.add(fact.exc)
                origin = (
                    "raised locally"
                    if fact.origin == qname
                    else f"raised in {fact.origin}"
                )
                yield self.violation_at(
                    graph,
                    info,
                    f"handler {info.name} may leak {fact.exc} "
                    f"({origin} at line {fact.line}) — not mapped by the "
                    f"protocol error envelope",
                )


def run_checks(
    graph: CallGraph, checks: Sequence[Check]
) -> List[Violation]:
    """Run ``checks`` over ``graph``; violations sorted like the linter."""
    violations: List[Violation] = []
    for check in checks:
        violations.extend(check.run(graph))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


__all__ = [
    "BLOCKING",
    "CHECKS",
    "Check",
    "NONDETERMINISM",
    "SeedPredicate",
    "AsyncBlockingPropagation",
    "ContentKeyPurity",
    "ExceptionContract",
    "RegistryClosure",
    "run_checks",
]
