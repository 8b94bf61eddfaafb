"""AST-based purity/determinism checking of user job functions.

Memoization (:mod:`repro.core.memo`) is only sound when Map/Combine/Reduce
functions are **pure** (no observable side effects) and **deterministic**
(same inputs, same outputs, across processes).  This checker walks the AST
of a function — plus the plain Python helpers it calls, up to a bounded
depth — and flags the nondeterminism and impurity sources that silently
corrupt memo hits:

nondeterminism
    unseeded ``random``/``numpy.random`` use, wall-clock reads (``time``,
    ``datetime.now``), entropy sources (``os.urandom``, ``uuid.uuid4``,
    ``secrets``), ``id()``, builtin ``hash()`` (randomized per process for
    str/bytes), and set iteration-order dependence (``set.pop()``,
    ``popitem()``, ordering a bare set literal/constructor).

impurity
    ``global``/``nonlocal`` writes, mutation of input arguments or of
    state reached through a module global or closure cell (attribute or
    subscript stores, ``del``, known mutating methods), direct memo-table
    access (``lookup``/``store``/... on a receiver naming a memo or cache),
    and I/O (``open``, ``print``, ``input``,
    ``os``/``subprocess``/``socket``/... calls).

Streams from :mod:`repro.common.rng` are allowlisted: they are seeded
and named, so their use *is* deterministic.  There is no way to mark a
function as exempt; an impure job function gets fixed.

The checker is deliberately conservative-but-shallow: it resolves names
through the function's globals and closure cells (so ``random.random()``
is flagged whatever it was imported as), but it does not track dataflow
through locals.  False negatives are possible; the law-falsification
harness (:mod:`repro.analysis.laws`) covers the algebraic half of the
contract dynamically.

What counts as a violation — the rule tables and the AST visitor that
applies them — lives in :mod:`repro.analysis.purity_rules`; this module
owns source extraction and bounded helper recursion.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import textwrap
import types
from typing import Any, Callable, Iterable

from repro.analysis.findings import INFO, Finding
from repro.analysis.purity_rules import PurityVisitor, _local_names

#: How many levels of plain-Python helper calls to follow.
MAX_HELPER_DEPTH = 3


# ---------------------------------------------------------------------------
# source extraction


def _unwrap(fn: Any) -> Any:
    if isinstance(fn, functools.partial):
        return _unwrap(fn.func)
    if inspect.ismethod(fn):
        return fn.__func__
    return fn


def _environment(fn: types.FunctionType) -> dict[str, Any]:
    """Names visible to ``fn``: closure cells over globals over builtins."""
    env: dict[str, Any] = dict(vars(builtins))
    env.update(getattr(fn, "__globals__", {}))
    try:
        closure = inspect.getclosurevars(fn)
    except (TypeError, ValueError):  # builtins / odd callables
        return env
    env.update(closure.nonlocals)
    return env


_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda


def _source_node(
    fn: types.FunctionType,
) -> tuple[_FunctionNode | None, str, int]:
    """Parse ``fn``'s source and return (node, filename, line offset).

    Named functions parse their dedented source block; lambdas are located
    in their module's AST by first line number and parameter count.
    """
    filename = getattr(fn.__code__, "co_filename", "<unknown>")
    if fn.__name__ != "<lambda>":
        source, start = inspect.getsourcelines(fn)
        tree = ast.parse(textwrap.dedent("".join(source)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == fn.__name__:
                    return node, filename, start - 1
        return None, filename, start - 1
    module = inspect.getmodule(fn)
    if module is None:
        raise OSError("lambda with no importable module")
    tree = ast.parse(inspect.getsource(module))
    wanted_line = fn.__code__.co_firstlineno
    wanted_args = fn.__code__.co_argcount
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda) and node.lineno == wanted_line:
            if len(node.args.args) == wanted_args:
                return node, filename, 0
    return None, filename, 0


# ---------------------------------------------------------------------------
# entry points


def _param_names(node: _FunctionNode) -> set[str]:
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def analyze_callable(
    fn: Callable,
    *,
    role: str = "function",
    _depth: int = 0,
    _seen: set[int] | None = None,
) -> list[Finding]:
    """Check one callable (and its plain-Python helpers) for purity.

    ``role`` labels the finding location (``map``, ``reduce``,
    ``combiner.merge``, ...).  Returns the findings; an empty list means
    the function passed every rule.
    """
    seen = _seen if _seen is not None else set()
    fn = _unwrap(fn)
    where = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', fn)}"
    if role != "function":
        where = f"{where} [{role}]"

    if not isinstance(fn, types.FunctionType):
        # Builtins / C extensions: nothing to parse; call sites of known-bad
        # builtins are caught in their callers.
        return []

    code_id = id(fn.__code__)
    if code_id in seen:
        return []
    seen.add(code_id)

    try:
        node, _filename, offset = _source_node(fn)
    except (OSError, TypeError, SyntaxError) as exc:
        return [
            Finding(
                rule="purity.unanalyzable",
                message=f"source unavailable ({exc})",
                where=where,
                severity=INFO,
            )
        ]
    if node is None:
        return [
            Finding(
                rule="purity.unanalyzable",
                message="could not locate function definition in source",
                where=where,
                severity=INFO,
            )
        ]

    visitor = PurityVisitor(
        where=where,
        params=_param_names(node),
        env=_environment(fn),
        line_offset=offset,
        local_names=_local_names(node),
    )
    body = node.body if isinstance(node.body, list) else [node.body]
    for statement in body:
        visitor.visit(statement)
    # Default-argument expressions are part of the contract too: a lambda
    # default calling random() poisons every invocation that omits the
    # argument, exactly like the same call in the body would.
    for default in list(node.args.defaults) + list(node.args.kw_defaults):
        if default is not None:
            visitor.visit(default)
    findings = list(visitor.findings)

    # The visitor queues no helper from the trusted substrate
    # (``purity_rules._ALLOWED_MODULE_PREFIXES``).
    if _depth < MAX_HELPER_DEPTH:
        for helper in visitor.helpers:
            findings.extend(
                analyze_callable(
                    helper,
                    role=f"helper of {getattr(fn, '__qualname__', fn)}",
                    _depth=_depth + 1,
                    _seen=seen,
                )
            )
    return findings


def analyze_functions(
    functions: Iterable[tuple[str, Callable]],
) -> list[Finding]:
    """Check a batch of (role, callable) pairs."""
    findings: list[Finding] = []
    for role, fn in functions:
        findings.extend(analyze_callable(fn, role=role))
    return findings
