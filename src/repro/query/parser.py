"""A Pig-Latin parser: text scripts to logical query plans.

The paper's query interface is Pig (§5): users write Pig-Latin scripts and
the system compiles them to pipelined MapReduce jobs.  This module parses
the subset of Pig-Latin the compiler supports into
:class:`~repro.query.plan.Query` plans::

    views  = LOAD 'pageviews' AS (user, action, timespent, term, revenue, page);
    clicks = FILTER views BY action == 'click' AND revenue > 0.5;
    byuser = GROUP clicks BY user;
    stats  = FOREACH byuser GENERATE group, COUNT(clicks), SUM(clicks.revenue);
    top    = ORDER stats BY $1 DESC LIMIT 10;

Supported statements: LOAD ... AS (fields), FILTER ... BY <boolean expr>,
FOREACH <rel> GENERATE <projection>, GROUP <rel> BY <field>,
FOREACH <grouped> GENERATE group, AGG(...) [AS alias] ...,
DISTINCT <rel> [BY field], ORDER <rel> BY <field|$i> [DESC] LIMIT n,
and JOIN <rel> BY <field> WITH <table> [AS alias] — a fragment-replicate
(map-side) join against a small Python dict passed via ``tables=``.
The script's last assignment is the query result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.errors import QueryCompilationError
from repro.query.aggregates import (
    Count,
    CountDistinct,
    Max,
    Mean,
    Min,
    SumField,
)
from repro.query.plan import Query


class PigParseError(QueryCompilationError):
    """The script is not valid (supported) Pig-Latin."""


# ---------------------------------------------------------------------------
# Tokenizer for BY-expressions.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>-?\d+\.\d+|-?\d+)"
    r"|(?P<string>'[^']*')"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|<|>|\(|\)))"
)

_KEYWORDS = {"AND", "OR", "NOT"}


def _tokenize_expr(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise PigParseError(f"cannot tokenize expression at: {text[position:]!r}")
        position = match.end()
        if match.lastgroup == "name" and match.group("name").upper() in _KEYWORDS:
            tokens.append(("keyword", match.group("name").upper()))
        else:
            tokens.append((match.lastgroup, match.group(match.lastgroup)))
    return tokens


class _ExprParser:
    """Recursive-descent parser for FILTER BY expressions.

    Grammar:  or_expr := and_expr (OR and_expr)*
              and_expr := unary (AND unary)*
              unary := NOT unary | comparison | '(' or_expr ')'
              comparison := operand (== | != | < | <= | > | >=) operand
              operand := field | number | 'string'
    Produces a predicate ``row -> bool`` closed over field indexes.
    """

    def __init__(self, tokens: list[tuple[str, str]], schema: tuple[str, ...]):
        self.tokens = tokens
        self.schema = schema
        self.position = 0

    def parse(self):
        predicate = self._or_expr()
        if self.position != len(self.tokens):
            raise PigParseError(
                f"unexpected trailing tokens: {self.tokens[self.position:]}"
            )
        return predicate

    def _peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return (None, None)

    def _take(self):
        token = self._peek()
        self.position += 1
        return token

    def _or_expr(self):
        left = self._and_expr()
        while self._peek() == ("keyword", "OR"):
            self._take()
            right = self._and_expr()
            left = _combine_or(left, right)
        return left

    def _and_expr(self):
        left = self._unary()
        while self._peek() == ("keyword", "AND"):
            self._take()
            right = self._unary()
            left = _combine_and(left, right)
        return left

    def _unary(self):
        kind, value = self._peek()
        if (kind, value) == ("keyword", "NOT"):
            self._take()
            inner = self._unary()
            return lambda row: not inner(row)
        if (kind, value) == ("op", "("):
            self._take()
            inner = self._or_expr()
            if self._take() != ("op", ")"):
                raise PigParseError("expected ')'")
            return inner
        return self._comparison()

    def _comparison(self):
        left = self._operand()
        kind, op = self._take()
        if kind != "op" or op in ("(", ")"):
            raise PigParseError(f"expected comparison operator, got {op!r}")
        right = self._operand()
        return _make_comparison(left, op, right)

    def _operand(self):
        kind, value = self._take()
        if kind == "number":
            number = float(value) if "." in value else int(value)
            return lambda row, v=number: v
        if kind == "string":
            text = value[1:-1]
            return lambda row, v=text: v
        if kind == "name":
            index = _field_index(self.schema, value)
            return lambda row, i=index: row[i]
        raise PigParseError(f"expected operand, got {value!r}")


def _make_comparison(left, op, right):
    ops = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    compare = ops[op]
    return lambda row: compare(left(row), right(row))


def _combine_and(a, b):
    return lambda row: a(row) and b(row)


def _combine_or(a, b):
    return lambda row: a(row) or b(row)


def _field_index(schema: tuple[str, ...], name: str) -> int:
    if name.startswith("$"):
        if not name[1:].isdigit() or int(name[1:]) >= len(schema):
            raise PigParseError(
                f"no field {name}; schema has {len(schema)} fields: {schema}"
            )
        return int(name[1:])
    try:
        return schema.index(name)
    except ValueError:
        raise PigParseError(
            f"unknown field {name!r}; schema is {schema}"
        ) from None


def _unique(names) -> tuple[str, ...]:
    """A schema, whose names must differ: a repeated one means its first column."""
    schema = tuple(names)
    repeated = sorted({name for name in schema if schema.count(name) > 1})
    if repeated:
        raise PigParseError(f"field name(s) {repeated} repeated in {schema}")
    return schema


# ---------------------------------------------------------------------------
# Statement parsing.

_ASSIGN_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)$", re.S)
_AGG_RE = re.compile(
    r"^(COUNT|SUM|MIN|MAX|AVG|COUNT_DISTINCT)\s*\(\s*([A-Za-z_][\w.]*)?\s*\)"
    r"(?:\s+AS\s+([A-Za-z_]\w*))?$",
    re.I,
)


@dataclass
class _Relation:
    """A named intermediate: a plan plus its current schema."""

    plan: Query
    schema: tuple[str, ...]
    #: Set when this relation is the result of GROUP ... BY (pre-FOREACH).
    grouped_on: str | None = None
    grouped_source: str | None = None


@dataclass
class PigScript:
    """A parsed script: the final plan plus all named intermediates."""

    result: Query
    result_name: str
    relations: dict[str, _Relation] = field(default_factory=dict)

    @property
    def schema(self) -> tuple[str, ...]:
        return self.relations[self.result_name].schema


def parse_pig(script: str, tables: dict[str, dict] | None = None) -> PigScript:
    """Parse a Pig-Latin script into a query plan.

    ``tables`` supplies the small reference tables JOIN statements
    replicate to the Map side, keyed by the name used in the script.
    """
    relations: dict[str, _Relation] = {}
    tables = tables or {}
    last_name: str | None = None

    for statement in _split_statements(script):
        match = _ASSIGN_RE.match(statement)
        if match is None:
            raise PigParseError(f"expected 'name = OP ...;', got: {statement!r}")
        name, body = match.group(1), match.group(2).strip()
        relations[name] = _parse_statement(body, relations, tables)
        last_name = name

    if last_name is None:
        raise PigParseError("empty script")
    final = relations[last_name]
    if final.grouped_on is not None:
        raise PigParseError(
            "script ends with a bare GROUP; add a FOREACH ... GENERATE"
        )
    return PigScript(result=final.plan, result_name=last_name, relations=relations)


def _split_statements(script: str) -> list[str]:
    cleaned = "\n".join(line.split("--", 1)[0] for line in script.splitlines())
    return [s.strip() for s in cleaned.split(";") if s.strip()]


def _parse_statement(
    body: str, relations: dict[str, _Relation], tables: dict[str, dict]
) -> _Relation:
    keyword = body.split(None, 1)[0].upper()
    if keyword == "LOAD":
        return _parse_load(body)
    if keyword == "FILTER":
        return _parse_filter(body, relations)
    if keyword == "FOREACH":
        return _parse_foreach(body, relations)
    if keyword == "GROUP":
        return _parse_group(body, relations)
    if keyword == "DISTINCT":
        return _parse_distinct(body, relations)
    if keyword == "ORDER":
        return _parse_order(body, relations)
    if keyword == "JOIN":
        return _parse_join(body, relations, tables)
    raise PigParseError(f"unsupported statement: {keyword}")


def _require_relation(name: str, relations: dict[str, _Relation]) -> _Relation:
    if name not in relations:
        raise PigParseError(f"unknown relation {name!r}")
    return relations[name]


_LOAD_RE = re.compile(
    r"^LOAD\s+'[^']*'\s+AS\s*\(([^)]*)\)$", re.I | re.S
)


def _parse_load(body: str) -> _Relation:
    match = _LOAD_RE.match(body)
    if match is None:
        raise PigParseError(f"malformed LOAD: {body!r}")
    fields = _unique(f.strip() for f in match.group(1).split(",") if f.strip())
    if not fields:
        raise PigParseError("LOAD needs at least one field")
    return _Relation(plan=Query.load(fields), schema=fields)


_FILTER_RE = re.compile(r"^FILTER\s+(\w+)\s+BY\s+(.+)$", re.I | re.S)


def _parse_filter(body: str, relations) -> _Relation:
    match = _FILTER_RE.match(body)
    if match is None:
        raise PigParseError(f"malformed FILTER: {body!r}")
    source = _require_relation(match.group(1), relations)
    if source.grouped_on is not None:
        raise PigParseError("cannot FILTER a grouped relation")
    predicate = _ExprParser(
        _tokenize_expr(match.group(2)), source.schema
    ).parse()
    return _Relation(plan=source.plan.filter(predicate), schema=source.schema)


_FOREACH_RE = re.compile(r"^FOREACH\s+(\w+)\s+GENERATE\s+(.+)$", re.I | re.S)


def _parse_foreach(body: str, relations) -> _Relation:
    match = _FOREACH_RE.match(body)
    if match is None:
        raise PigParseError(f"malformed FOREACH: {body!r}")
    source = _require_relation(match.group(1), relations)
    items = [item.strip() for item in match.group(2).split(",")]
    if source.grouped_on is not None:
        return _parse_group_foreach(source, items, relations)
    return _parse_projection(source, items)


def _parse_projection(source: _Relation, items: list[str]) -> _Relation:
    indexes: list[int] = []
    names: list[str] = []
    for item in items:
        parts = re.split(r"\s+AS\s+", item, flags=re.I)
        field_name = parts[0].strip()
        alias = parts[1].strip() if len(parts) > 1 else field_name.lstrip("$")
        indexes.append(_field_index(source.schema, field_name))
        names.append(alias)
    index_tuple = tuple(indexes)
    plan = source.plan.foreach(
        lambda row, idx=index_tuple: tuple(row[i] for i in idx)
    )
    return _Relation(plan=plan, schema=_unique(names))


def _parse_group_foreach(
    source: _Relation, items: list[str], relations
) -> _Relation:
    if not items or items[0].lower() != "group":
        raise PigParseError(
            "FOREACH over a grouped relation must start with 'group'"
        )
    inner = _require_relation(source.grouped_source, relations)
    key_index = _field_index(inner.schema, source.grouped_on)

    aggregations = []
    names = ["group"]
    for item in items[1:]:
        match = _AGG_RE.match(item.strip())
        if match is None:
            raise PigParseError(f"malformed aggregate: {item!r}")
        func = match.group(1).upper()
        arg = match.group(2)
        alias = match.group(3)
        field_name = None
        if arg is not None and "." in arg:
            field_name = arg.split(".", 1)[1]
        aggregations.append(_make_aggregation(func, field_name, inner.schema))
        names.append(alias or func.lower())
    if not aggregations:
        raise PigParseError("grouped FOREACH needs at least one aggregate")

    plan = inner.plan.group_by(
        lambda row, i=key_index: row[i],
        aggregations if len(aggregations) > 1 else aggregations[0],
    )
    return _Relation(plan=plan, schema=_unique(names))


#: The field aggregates ``_AGG_RE`` admits besides COUNT.
_FIELD_AGGREGATES = {
    "SUM": SumField, "MIN": Min, "MAX": Max, "AVG": Mean,
    "COUNT_DISTINCT": CountDistinct,
}


def _make_aggregation(func: str, field_name: str | None, schema):
    if func == "COUNT":
        return Count()
    if field_name is None:
        raise PigParseError(f"{func} needs a field argument (rel.field)")
    return _FIELD_AGGREGATES[func](_field_index(schema, field_name))


_GROUP_RE = re.compile(r"^GROUP\s+(\w+)\s+BY\s+([\w$]+)$", re.I)


def _parse_group(body: str, relations) -> _Relation:
    match = _GROUP_RE.match(body)
    if match is None:
        raise PigParseError(f"malformed GROUP: {body!r}")
    source_name = match.group(1)
    source = _require_relation(source_name, relations)
    if source.grouped_on is not None:
        raise PigParseError("cannot GROUP a grouped relation")
    _field_index(source.schema, match.group(2))  # validate eagerly
    return _Relation(
        plan=source.plan,
        schema=source.schema,
        grouped_on=match.group(2),
        grouped_source=source_name,
    )


_DISTINCT_RE = re.compile(r"^DISTINCT\s+(\w+)(?:\s+BY\s+([\w$]+))?$", re.I)


def _parse_distinct(body: str, relations) -> _Relation:
    match = _DISTINCT_RE.match(body)
    if match is None:
        raise PigParseError(f"malformed DISTINCT: {body!r}")
    source = _require_relation(match.group(1), relations)
    if match.group(2):
        index = _field_index(source.schema, match.group(2))
        plan = source.plan.distinct(lambda row, i=index: row[i])
        schema = (match.group(2).lstrip("$"),)
    else:
        plan = source.plan.distinct()
        schema = source.schema
    return _Relation(plan=plan, schema=schema)


_JOIN_RE = re.compile(
    r"^JOIN\s+(\w+)\s+BY\s+([\w$]+)\s+WITH\s+(\w+)(?:\s+AS\s+(\w+))?"
    r"(?:\s+(LEFT))?$",
    re.I,
)


def _parse_join(body: str, relations, tables: dict[str, dict]) -> _Relation:
    match = _JOIN_RE.match(body)
    if match is None:
        raise PigParseError(
            f"malformed JOIN (need 'JOIN rel BY field WITH table "
            f"[AS alias] [LEFT]'): {body!r}"
        )
    source = _require_relation(match.group(1), relations)
    if source.grouped_on is not None:
        raise PigParseError("cannot JOIN a grouped relation")
    table_name = match.group(3)
    if table_name not in tables:
        raise PigParseError(
            f"unknown table {table_name!r}; pass it via parse_pig(tables=...)"
        )
    index = _field_index(source.schema, match.group(2))
    alias = match.group(4) or table_name
    left_outer = match.group(5) is not None
    plan = source.plan.join(
        tables[table_name],
        key_fn=lambda row, i=index: row[i],
        keep_unmatched=left_outer,
        default=None,
    )
    return _Relation(plan=plan, schema=_unique(source.schema + (alias,)))


_ORDER_RE = re.compile(
    r"^ORDER\s+(\w+)\s+BY\s+([\w$]+)(\s+DESC)?\s+LIMIT\s+(\d+)$", re.I
)


def _parse_order(body: str, relations) -> _Relation:
    match = _ORDER_RE.match(body)
    if match is None:
        raise PigParseError(
            f"malformed ORDER (need 'ORDER rel BY field [DESC] LIMIT n'): {body!r}"
        )
    source = _require_relation(match.group(1), relations)
    index = _field_index(source.schema, match.group(2))
    descending = match.group(3) is not None
    limit = int(match.group(4))
    if limit < 1:
        raise PigParseError(f"LIMIT must be at least 1, got {limit}")
    sign = 1.0 if descending else -1.0
    plan = source.plan.top(limit, score_fn=lambda row, i=index, s=sign: s * row[i])
    return _Relation(plan=plan, schema=source.schema)
