"""Convention checkers (RPR201-RPR208).

Each encodes an invariant an earlier PR established in code review and
docstrings; see ``docs/INVARIANTS.md`` for the catalogue.  The last
four (mutable defaults, placeholder-less f-strings, unused imports,
unused locals) are the pyflakes subset that lets ``repro lint`` gate
correctness hygiene even in environments where ruff cannot install.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..findings import Finding
from ..registry import checker

# ---------------------------------------------------------------------------
# RPR201: time.time() in library code
# ---------------------------------------------------------------------------


@checker(
    "RPR201",
    "wall-clock-timing",
    "Intervals are measured with perf_counter, never time.time().",
    rationale=(
        "time.time() follows wall-clock adjustments (NTP slew, DST), "
        "so latencies measured with it can be negative or wildly "
        "wrong — the telemetry histograms and perf guards depend on "
        "monotonic timing.  Genuine wall-clock timestamps are rare "
        "and must be marked with '# repro: noqa[RPR201]'."),
    example="started = time.time()  # use time.perf_counter()",
)
def check_wall_clock_timing(context) -> List[Finding]:
    module_aliases: Set[str] = set()
    function_aliases: Set[str] = set()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    module_aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        function_aliases.add(alias.asname or "time")
    if not module_aliases and not function_aliases:
        return []
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        hit = (
            isinstance(func, ast.Attribute) and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in module_aliases
        ) or (
            isinstance(func, ast.Name) and func.id in function_aliases
        )
        if hit:
            findings.append(Finding(
                path=context.path, line=node.lineno,
                col=node.col_offset + 1, checker="RPR201",
                message=(
                    "time.time() call — use time.perf_counter() for "
                    "intervals; a genuine wall-clock timestamp needs "
                    "'# repro: noqa[RPR201]'"),
            ))
    return findings


# ---------------------------------------------------------------------------
# RPR202: float32 accumulation in distance paths
# ---------------------------------------------------------------------------

#: Call names that create or reduce into an accumulator.
_ACCUMULATOR_FUNCS = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "sum", "cumsum", "prod", "mean", "dot", "vdot", "einsum",
    "matmul", "add", "reduce", "accumulate",
})

#: Paths where any float32 is a violation (the exact-DTW compute core).
_COMPUTE_SCOPE = (("repro", "dtw"), ("repro", "engine"),
                  ("repro", "core"))


def _is_float32(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return node.value == "float32"
    if isinstance(node, ast.Name):
        return node.id == "float32"
    if isinstance(node, ast.Attribute):
        return node.attr == "float32"
    return False


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@checker(
    "RPR202",
    "float32-accumulation",
    "DTW distances and index scores accumulate in float64; "
    "float32 is storage-only.",
    rationale=(
        "The engine's pruning cascade is admissible only because "
        "lower bounds and refinements are computed in float64 — "
        "float32 rounding can reorder neighbours and break the "
        "bit-identical equivalence suites.  float32 is reserved for "
        "on-disk payloads (index posting weights) and must be "
        "cast at the storage boundary, never accumulated into."),
    example="scores = np.zeros(n, dtype=np.float32)  # accumulator",
    scope=_COMPUTE_SCOPE + (("repro", "indexing"),),
    doctor_check="query_probe",
)
def check_float32_accumulation(context) -> List[Finding]:
    segments = tuple(context.path.split("/"))
    compute = any(
        segments[i:i + len(seq)] == seq
        for seq in _COMPUTE_SCOPE
        for i in range(len(segments) - len(seq) + 1))
    findings: List[Finding] = []

    def flag(node: ast.AST, what: str) -> None:
        if compute:
            message = (f"float32 {what} in the exact-distance compute "
                       f"core — accumulate and compare in float64")
        else:
            message = (f"float32 {what} — accumulate in float64 and "
                       f"cast once at the storage boundary")
        findings.append(Finding(
            path=context.path, line=node.lineno,
            col=node.col_offset + 1, checker="RPR202",
            message=message))

    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        dtype_kw = next((kw.value for kw in node.keywords
                         if kw.arg == "dtype"), None)
        if dtype_kw is not None and _is_float32(dtype_kw):
            if compute:
                flag(dtype_kw, f"dtype in '{name}(...)'")
            elif name in _ACCUMULATOR_FUNCS:
                flag(dtype_kw, f"accumulator dtype in '{name}(...)'")
        if compute and name == "astype" \
                and any(_is_float32(arg) for arg in node.args):
            flag(node, "cast via '.astype(float32)'")
    return findings


# ---------------------------------------------------------------------------
# RPR203: bare WorkspaceError in the service layer
# ---------------------------------------------------------------------------


@checker(
    "RPR203",
    "bare-workspace-error",
    "Instance code raises via Workspace._error(), never bare "
    "WorkspaceError.",
    rationale=(
        "Workspace._error() attaches the flight record (recent "
        "events, traces, metrics, config) to every error leaving a "
        "live workspace.  A bare 'raise WorkspaceError(...)' from "
        "instance code ships a blind error — the one diagnostics "
        "bundle an operator needs is exactly what gets dropped.  "
        "Classmethod constructors (create/open) run before a "
        "workspace exists and are exempt."),
    example="raise WorkspaceError('closed')  # use self._error('closed')",
    scope=(("repro", "service"),),
    doctor_check="event_log",
)
def check_bare_workspace_error(context) -> List[Finding]:
    findings: List[Finding] = []
    for class_node in ast.walk(context.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            args = method.args.posonlyargs + method.args.args
            if not args or args[0].arg != "self":
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) \
                        and exc.id == "WorkspaceError":
                    findings.append(Finding(
                        path=context.path, line=node.lineno,
                        col=node.col_offset + 1, checker="RPR203",
                        message=(
                            "bare 'raise WorkspaceError' in instance "
                            "code — raise self._error(...) so the "
                            "flight record attaches"),
                    ))
    return findings


# ---------------------------------------------------------------------------
# RPR204: truthiness branches on telemetry objects
# ---------------------------------------------------------------------------

_TELEMETRY_NAMES = frozenset({"telemetry"})
_TELEMETRY_ATTRS = frozenset({"_metrics", "_events", "_telemetry"})


def _truthiness_atoms(test: ast.expr) -> Iterator[ast.expr]:
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        yield from _truthiness_atoms(test.operand)
    elif isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from _truthiness_atoms(value)
    else:
        yield test


@checker(
    "RPR204",
    "telemetry-branch",
    "Instrumented paths never branch on telemetry truthiness "
    "(null-object pattern).",
    rationale=(
        "Telemetry is wired as null objects (NULL_REGISTRY, "
        "NULL_EVENT_LOG) precisely so hot paths stay branch-free and "
        "the disabled configuration exercises the same code CI "
        "measures.  'if telemetry:' / 'if self._metrics:' branches "
        "reintroduce a second untested path and skew the <=5% "
        "overhead guard.  Single construction-time decisions gate on "
        "'.enabled' or compare 'is None'."),
    example="if self._metrics: self._metrics.inc()  # just call it",
    scope=(("repro",),),
    doctor_check="telemetry_overhead",
)
def check_telemetry_branch(context) -> List[Finding]:
    if "repro/telemetry/" in context.path or \
            context.path.endswith("repro/telemetry"):
        return []  # the null-object implementation itself
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            tests = [node.test]
        else:
            continue
        for test in tests:
            for atom in _truthiness_atoms(test):
                hit = (
                    isinstance(atom, ast.Name)
                    and atom.id in _TELEMETRY_NAMES
                ) or (
                    isinstance(atom, ast.Attribute)
                    and atom.attr in _TELEMETRY_ATTRS
                )
                if hit:
                    findings.append(Finding(
                        path=context.path, line=atom.lineno,
                        col=atom.col_offset + 1, checker="RPR204",
                        message=(
                            "truthiness branch on a telemetry object "
                            "— telemetry is null-object based; call "
                            "through unconditionally, or gate a "
                            "construction-time decision on '.enabled' "
                            "/ 'is None'"),
                    ))
    return findings


# ---------------------------------------------------------------------------
# RPR205: mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
})


@checker(
    "RPR205",
    "mutable-default",
    "Default argument values must be immutable.",
    rationale=(
        "A mutable default is evaluated once at definition time and "
        "shared across every call — state leaks between calls.  Use "
        "None and construct inside the function."),
    example="def f(items=[]): ...  # shared across calls",
)
def check_mutable_default(context) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (
                ast.List, ast.Dict, ast.Set,
                ast.ListComp, ast.SetComp, ast.DictComp,
            )) or (
                isinstance(default, ast.Call)
                and _call_name(default.func) in _MUTABLE_CALLS
            )
            if mutable:
                findings.append(Finding(
                    path=context.path, line=default.lineno,
                    col=default.col_offset + 1, checker="RPR205",
                    message=(
                        "mutable default argument — evaluated once "
                        "and shared across calls; default to None and "
                        "construct inside the function"),
                ))
    return findings


# ---------------------------------------------------------------------------
# RPR206: f-strings without placeholders
# ---------------------------------------------------------------------------


@checker(
    "RPR206",
    "f-string-placeholders",
    "f-strings contain at least one interpolated expression.",
    rationale=(
        "An 'f' prefix on a literal with no placeholders is almost "
        "always a forgotten interpolation or a leftover from an "
        "edit — either way the reader double-takes."),
    example='message = f"no placeholders here"',
)
def check_fstring_placeholders(context) -> List[Finding]:
    format_specs: Set[int] = set()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.FormattedValue) \
                and node.format_spec is not None:
            format_specs.add(id(node.format_spec))
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.JoinedStr) \
                or id(node) in format_specs:
            continue
        if not any(isinstance(part, ast.FormattedValue)
                   for part in node.values):
            findings.append(Finding(
                path=context.path, line=node.lineno,
                col=node.col_offset + 1, checker="RPR206",
                message="f-string without placeholders — drop the "
                        "'f' prefix",
            ))
    return findings


# ---------------------------------------------------------------------------
# RPR207: unused imports
# ---------------------------------------------------------------------------


def _names_in_string_annotation(text: str) -> Set[str]:
    try:
        parsed = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) \
                and isinstance(node.ctx, (ast.Load, ast.Del)):
            used.add(node.id)
        elif isinstance(node, ast.Assign):
            # ``__all__ = [...]`` re-exports by string name.
            targets = [t for t in node.targets
                       if isinstance(t, ast.Name)]
            if any(t.id == "__all__" for t in targets):
                for element in ast.walk(node.value):
                    if isinstance(element, ast.Constant) \
                            and isinstance(element.value, str):
                        used.add(element.value)
    # Forward references inside string annotations.
    for node in ast.walk(tree):
        annotation = None
        if isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            used |= _names_in_string_annotation(annotation.value)
    return used


@checker(
    "RPR207",
    "unused-import",
    "Every import binding is referenced (or re-exported explicitly).",
    rationale=(
        "Dead imports hide real dependencies, slow cold start, and "
        "rot into confusion about what a module actually needs.  "
        "Deliberate re-exports are expressed via __all__ or the "
        "'import x as x' convention, both of which this check "
        "honours."),
    example="import os  # never referenced again",
)
def check_unused_imports(context) -> List[Finding]:
    used = _used_names(context.tree)
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            entries = [
                (alias.asname or alias.name.split(".")[0], alias)
                for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            entries = [(alias.asname or alias.name, alias)
                       for alias in node.names if alias.name != "*"]
        else:
            continue
        for binding, alias in entries:
            if alias.asname is not None and alias.asname == alias.name:
                continue  # 'import x as x': explicit re-export
            if binding not in used:
                findings.append(Finding(
                    path=context.path, line=node.lineno,
                    col=node.col_offset + 1, checker="RPR207",
                    message=f"'{binding}' imported but unused",
                ))
    return findings


# ---------------------------------------------------------------------------
# RPR208: unused local variables
# ---------------------------------------------------------------------------


def _direct_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Statements in *func*'s body, not descending into nested scopes."""
    stack: List[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, None)
            if isinstance(block, list):
                stack.extend(s for s in block
                             if isinstance(s, ast.stmt))
        for handler in getattr(stmt, "handlers", None) or ():
            stack.extend(handler.body)
        for case in getattr(stmt, "cases", None) or ():
            stack.extend(case.body)


@checker(
    "RPR208",
    "unused-variable",
    "Locals bound by simple assignment are read before the function "
    "ends.",
    rationale=(
        "An assigned-but-never-read local is either a leftover from "
        "a refactor or a bug where the wrong variable is used below.  "
        "Underscore-prefixed names opt out."),
    example="result = compute()  # then 'results' used instead",
)
def check_unused_variables(context) -> List[Finding]:
    findings: List[Finding] = []
    for func in ast.walk(context.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in (
            func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            + ([func.args.vararg] if func.args.vararg else [])
            + ([func.args.kwarg] if func.args.kwarg else []))}
        declared: Set[str] = set()
        for stmt in _direct_statements(func):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                declared.update(stmt.names)
        candidates: Dict[str, ast.Name] = {}
        complex_bindings: Set[str] = set()
        for stmt in _direct_statements(func):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if not name.startswith("_") and name not in params \
                        and name not in declared:
                    candidates.setdefault(name, stmt.targets[0])
                continue
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                name = stmt.target.id
                if not name.startswith("_") and name not in params \
                        and name not in declared:
                    candidates.setdefault(name, stmt.target)
                continue
            # Any other binding form makes the flow too dynamic to
            # flag safely: tuple unpacking, loop targets, with-as,
            # except-as, augmented assignment, walrus.
            for target in ast.walk(stmt):
                if isinstance(target, ast.Name) \
                        and isinstance(target.ctx, ast.Store):
                    complex_bindings.add(target.id)
        if not candidates:
            continue
        loads: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, (ast.Load, ast.Del)):
                loads.add(node.id)
        for name, target in sorted(candidates.items()):
            if name in loads or name in complex_bindings:
                continue
            findings.append(Finding(
                path=context.path, line=target.lineno,
                col=target.col_offset + 1, checker="RPR208",
                message=f"local variable '{name}' assigned but "
                        f"never used",
            ))
    return findings


__all__ = [
    "check_wall_clock_timing",
    "check_float32_accumulation",
    "check_bare_workspace_error",
    "check_telemetry_branch",
    "check_mutable_default",
    "check_fstring_placeholders",
    "check_unused_imports",
    "check_unused_variables",
]
