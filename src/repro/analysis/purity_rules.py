"""Rule tables, AST resolution helpers, and the purity visitor.

The detection half of :mod:`repro.analysis.purity`: what counts as a
nondeterminism or impurity source (the module/attr/builtin tables), how
attribute chains resolve through a function's environment, and the
:class:`PurityVisitor` that walks one function body flagging violations.
The orchestration half — source extraction and bounded helper recursion —
stays in :mod:`repro.analysis.purity`.
"""

from __future__ import annotations

import ast
import builtins
import types
from typing import Any

from repro.analysis.findings import ERROR, Finding

#: Modules whose every call is a nondeterminism source, with the rule to
#: flag and the remedy to suggest.
_NONDET_MODULES = {
    "random": (
        "purity.nondeterminism.random",
        "use a seeded repro.common.rng.RngStream instead",
    ),
    "numpy.random": (
        "purity.nondeterminism.random",
        "use a seeded repro.common.rng.RngStream instead",
    ),
    "time": (
        "purity.nondeterminism.time",
        "job functions must not read the clock",
    ),
    "secrets": (
        "purity.nondeterminism.entropy",
        "job functions must not draw OS entropy",
    ),
}

#: Explicitly seeded constructors exempt from the module-level random rule.
_SEEDED_RANDOM_CALLS = {
    ("numpy.random", "default_rng"),
    ("numpy.random", "Generator"),
    ("numpy.random", "PCG64"),
    ("numpy.random", "SeedSequence"),
}

#: (module, attribute) pairs that are nondeterministic on their own.
_NONDET_ATTRS = {
    ("os", "urandom"): "purity.nondeterminism.entropy",
    ("os", "getrandom"): "purity.nondeterminism.entropy",
    ("uuid", "uuid1"): "purity.nondeterminism.entropy",
    ("uuid", "uuid4"): "purity.nondeterminism.entropy",
    ("datetime", "now"): "purity.nondeterminism.time",
    ("datetime", "today"): "purity.nondeterminism.time",
    ("datetime", "utcnow"): "purity.nondeterminism.time",
}

#: Modules whose calls are I/O (impure) wholesale.
_IO_MODULES = ("subprocess", "socket", "shutil", "requests", "urllib", "http")

#: ``os.*`` calls are I/O except the pure name helpers.  ``os.path``'s
#: functions live in ``posixpath`` (or ``ntpath``), not ``os``: they are
#: followed as plain-Python helpers.
_OS_PURE_ATTRS = {"fspath", "fsencode", "fsdecode"}

#: Builtins that are nondeterministic or impure when called.
_BUILTIN_RULES = {
    "id": ("purity.nondeterminism.id", "id() depends on object addresses"),
    "hash": (
        "purity.nondeterminism.hash",
        "builtin hash() is randomized per process for str/bytes "
        "(use repro.common.hashing.stable_hash)",
    ),
    "open": ("purity.impurity.io", "file I/O inside a job function"),
    "print": ("purity.impurity.io", "console I/O inside a job function"),
    "input": ("purity.impurity.io", "console I/O inside a job function"),
}

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "clear", "sort", "reverse",
    "add", "discard", "update", "setdefault", "popitem", "write",
    "writelines", "difference_update", "intersection_update",
    "symmetric_difference_update",
}

#: Method names that read or write memo-table state.
_MEMO_METHODS = frozenset(
    {
        "lookup", "get", "__contains__", "space",
        "store", "discard", "retain_only", "put", "delete",
        "setdefault", "pop",
    }
)
#: Receiver-name fragments that identify a memo/cache table.
_MEMO_RECEIVER_HINTS = ("memo", "cache")

#: Modules considered part of the trusted deterministic substrate: calls
#: into them are not followed (their own hygiene is covered by --self).
_ALLOWED_MODULE_PREFIXES = ("repro.common.rng", "repro.common.hashing")


# ---------------------------------------------------------------------------
# resolution helpers


def _module_name(value: Any) -> str | None:
    if isinstance(value, types.ModuleType):
        return value.__name__
    return None


def _resolve_chain(node: ast.expr, env: dict[str, Any]) -> tuple[Any, list[str]]:
    """Resolve an attribute chain to (root value, attribute path).

    Only walks attributes through modules and classes — resolving through
    arbitrary objects could trigger property side effects.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    if not isinstance(node, ast.Name):
        return None, parts
    root = env.get(node.id)
    value = root
    consumed = 0
    for attr in parts:
        if isinstance(value, (types.ModuleType, type)):
            try:
                value = getattr(value, attr)
                consumed += 1
                continue
            except AttributeError:
                break
        break
    if consumed == len(parts):
        return value, parts
    # Partially resolved: report the deepest module reached plus the rest.
    return root, parts


def _root_param(node: ast.expr) -> str | None:
    """The base name of an attribute/subscript chain, if it is a Name."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_memo(node: ast.expr) -> bool:
    """Heuristic: the receiver lexically names a memo table or cache."""
    names: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return any(
        hint in name.lower() for name in names for hint in _MEMO_RECEIVER_HINTS
    )


def _local_names(node: ast.AST) -> set[str]:
    """Names bound locally (assignments, for targets, with-as, walrus)."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(child.name)
        elif isinstance(child, ast.Import):
            for alias in child.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                names.add(alias.asname or alias.name)
    return names


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically a set: a set literal/comprehension or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


# ---------------------------------------------------------------------------
# the visitor


class PurityVisitor(ast.NodeVisitor):
    def __init__(
        self,
        where: str,
        params: set[str],
        env: dict[str, Any],
        line_offset: int,
        local_names: set[str],
    ) -> None:
        self.where = where
        self.params = params
        self.env = env
        self.line_offset = line_offset
        self.locals = local_names
        self.findings: list[Finding] = []
        #: Plain-Python helpers called by this function, for recursion.
        self.helpers: list[types.FunctionType] = []

    # -- reporting -------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", None)
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                where=self.where,
                line=None if line is None else line + self.line_offset,
                severity=ERROR,
            )
        )

    def _shared_root(self, node: ast.expr) -> str | None:
        """The free name ``node`` is reached through — a module global or a
        closure-captured object; None for parameters, locals, unbound names."""
        root = _root_param(node)
        if root is None or root in self.params or root in self.locals:
            return None
        return root if root in self.env else None

    # -- statements ------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self._flag(
            node,
            "purity.impurity.global-write",
            f"declares global {', '.join(node.names)} — memoized results "
            "must not depend on or mutate shared state",
        )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._flag(
            node,
            "purity.impurity.global-write",
            f"declares nonlocal {', '.join(node.names)} — closure mutation "
            "leaks state across invocations",
        )

    def _check_store_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_param(target)
            if root in self.params:
                self._flag(
                    target,
                    "purity.impurity.arg-mutation",
                    f"stores into argument {root!r} — job functions must "
                    "treat inputs as immutable (memoized values are shared)",
                )
            elif self._shared_root(target) is not None:
                self._flag(
                    target,
                    "purity.impurity.global-mutation",
                    f"stores into {root!r}, a module global or captured "
                    "object — state shared across invocations",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    # -- iteration order -------------------------------------------------

    def _check_ordered_consumption(self, node: ast.AST, iterable: ast.expr) -> None:
        if _is_set_expr(iterable):
            self._flag(
                node,
                "purity.nondeterminism.iteration-order",
                "consumes a set in iteration order — set order varies under "
                "hash randomization; sort it first",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_ordered_consumption(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_ordered_consumption(node, node.iter)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        # list(<set>) / tuple(<set>) / iter(<set>): ordered consumption.
        if isinstance(node.func, ast.Name) and node.func.id in (
            "list", "tuple", "iter", "enumerate",
        ):
            if node.args and _is_set_expr(node.args[0]):
                self._check_ordered_consumption(node, node.args[0])

        value, chain = _resolve_chain(node.func, self.env)

        # Method-style heuristics on the receiver.
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = node.func.value
            root = _root_param(receiver)
            if method in _MEMO_METHODS and _names_memo(receiver):
                self._flag(
                    node,
                    "purity.impurity.memo-access",
                    f"calls .{method}() on a memo table — memo access is the "
                    "executor's job; a job function doing its own caching "
                    "keeps state the memo cannot see",
                )
            if method == "popitem" and value is None:
                self._flag(
                    node,
                    "purity.nondeterminism.iteration-order",
                    ".popitem() consumes container order",
                )
            elif method == "pop" and not node.args and not node.keywords:
                if value is None:
                    self._flag(
                        node,
                        "purity.nondeterminism.iteration-order",
                        ".pop() with no arguments removes an "
                        "iteration-order-dependent element on sets",
                    )
            elif method in _MUTATING_METHODS and root in self.params:
                if value is None:
                    self._flag(
                        node,
                        "purity.impurity.arg-mutation",
                        f"calls mutating method .{method}() on argument "
                        f"{root!r}",
                    )
            elif (
                method in _MUTATING_METHODS
                and self._shared_root(receiver) is not None
                # A chain that resolves through modules or classes names a
                # function (os.remove, dict.update), not a method of the root.
                and value is self.env[root]
            ):
                self._flag(
                    node,
                    "purity.impurity.global-mutation",
                    f"calls mutating method .{method}() on {root!r}, a module "
                    "global or captured object",
                )

        if value is None:
            return

        # Allowlisted deterministic substrate (seeded RngStream et al.).
        value_module = getattr(value, "__module__", None) or _module_name(value)
        if value_module and str(value_module).startswith(_ALLOWED_MODULE_PREFIXES):
            return

        # Builtin rules.
        for name, (rule, message) in _BUILTIN_RULES.items():
            if value is getattr(builtins, name, None):
                self._flag(node, rule, message)
                return

        # Module-rooted rules: resolve which module the callee lives in.
        owner = getattr(value, "__module__", None)
        qualname = getattr(value, "__name__", chain[-1] if chain else "?")
        candidates: list[str] = []
        if owner:
            candidates.append(str(owner))
        # numpy C functions often report __module__ None; fall back to the
        # lexical chain resolved through the environment.
        lexical = self._lexical_module(node.func)
        if lexical:
            candidates.append(lexical)
        for module in candidates:
            if self._flag_module_call(node, module, qualname):
                return

        # Plain-Python helpers: queue for bounded recursion.
        if isinstance(value, types.FunctionType):
            self.helpers.append(value)

    def _lexical_module(self, func: ast.expr) -> str | None:
        """The module path the call is written against (e.g. numpy.random)."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        # Only a resolved callee gets here, and its chain starts at a name.
        assert isinstance(node, ast.Name)
        root = self.env.get(node.id)
        root_name = _module_name(root)
        if root_name is None:
            return None
        # Walk as deep as the chain stays inside modules.
        current = root
        path = root_name
        for attr in reversed(parts[1:] if parts else []):
            nxt = getattr(current, attr, None)
            if isinstance(nxt, types.ModuleType):
                current = nxt
                path = nxt.__name__
            else:
                break
        return path

    def _flag_module_call(self, node: ast.Call, module: str, name: str) -> bool:
        if (module, name) in _SEEDED_RANDOM_CALLS and node.args:
            return True  # explicitly seeded constructor: allowed
        if (module, name) in _NONDET_ATTRS:
            self._flag(
                node,
                _NONDET_ATTRS[(module, name)],
                f"calls {module}.{name} — nondeterministic across runs",
            )
            return True
        for prefix, (rule, remedy) in _NONDET_MODULES.items():
            if module == prefix or module.startswith(prefix + "."):
                self._flag(
                    node,
                    rule,
                    f"calls into {module} ({name}) — {remedy}",
                )
                return True
        if module == "os" or module.startswith("os."):
            if name in _OS_PURE_ATTRS:
                return True
            self._flag(
                node,
                "purity.impurity.io",
                f"calls {module}.{name} — OS interaction inside a job function",
            )
            return True
        for io_module in _IO_MODULES:
            if module == io_module or module.startswith(io_module + "."):
                self._flag(
                    node,
                    "purity.impurity.io",
                    f"calls into {module} — I/O inside a job function",
                )
                return True
        if module == "sys" and name in ("stdout", "stderr", "stdin", "exit"):
            self._flag(node, "purity.impurity.io", f"touches sys.{name}")
            return True
        return False
