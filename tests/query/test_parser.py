"""Unit tests for the Pig-Latin parser."""

import pytest

from repro.mapreduce.types import make_splits
from repro.query.compiler import compile_plan
from repro.query.parser import PigParseError, parse_pig
from repro.query.pipeline import BatchQueryRunner, IncrementalQueryPipeline
from repro.slider.window import WindowMode

ROWS = [
    # (user, action, timespent, term, revenue)
    (1, "view", 10, "sports", 2.0),
    (1, "click", 5, "news", 1.0),
    (2, "view", 20, "sports", 4.0),
    (2, "view", 7, "games", 6.0),
    (3, "click", 3, "news", 1.5),
    (3, "purchase", 9, "games", 8.0),
]

LOAD = "views = LOAD 'pv' AS (user, action, timespent, term, revenue);\n"


def run_script(script, rows=ROWS):
    parsed = parse_pig(script)
    runner = BatchQueryRunner(parsed.result)
    return runner.initial_run(make_splits(rows, 2)).rows, parsed


def test_load_and_group_count():
    rows, parsed = run_script(
        LOAD
        + "byuser = GROUP views BY user;\n"
        + "counts = FOREACH byuser GENERATE group, COUNT(views);"
    )
    assert sorted(rows) == [(1, 2), (2, 2), (3, 2)]
    assert parsed.schema == ("group", "count")


def test_filter_with_boolean_operators():
    rows, _ = run_script(
        LOAD
        + "hot = FILTER views BY action == 'view' AND revenue >= 4.0;\n"
        + "byuser = GROUP hot BY user;\n"
        + "counts = FOREACH byuser GENERATE group, COUNT(hot);"
    )
    assert sorted(rows) == [(2, 2)]


def test_filter_or_and_not_and_parens():
    rows, _ = run_script(
        LOAD
        + "some = FILTER views BY NOT (action == 'view') OR timespent > 15;\n"
        + "byterm = GROUP some BY term;\n"
        + "out = FOREACH byterm GENERATE group, COUNT(some);"
    )
    assert dict(rows) == {"news": 2, "sports": 1, "games": 1}


def test_multiple_aggregates_with_aliases():
    rows, parsed = run_script(
        LOAD
        + "byaction = GROUP views BY action;\n"
        + "stats = FOREACH byaction GENERATE group, COUNT(views), "
        + "SUM(views.revenue) AS total, AVG(views.timespent) AS avg_time;"
    )
    assert parsed.schema == ("group", "count", "total", "avg_time")
    stats = {row[0]: row[1:] for row in rows}
    assert stats["view"] == (3, 12.0, 37 / 3)
    assert stats["click"][0] == 2


def test_count_distinct():
    rows, _ = run_script(
        LOAD
        + "byterm = GROUP views BY term;\n"
        + "uniq = FOREACH byterm GENERATE group, COUNT_DISTINCT(views.user);"
    )
    assert dict(rows) == {"sports": 2, "news": 2, "games": 2}


def test_foreach_projection_with_alias():
    rows, parsed = run_script(
        LOAD
        + "slim = FOREACH views GENERATE user, revenue AS money;\n"
        + "byuser = GROUP slim BY user;\n"
        + "out = FOREACH byuser GENERATE group, SUM(slim.money);"
    )
    assert parsed.relations["slim"].schema == ("user", "money")
    assert dict(rows)[2] == 10.0


def test_distinct_by_field():
    rows, _ = run_script(LOAD + "terms = DISTINCT views BY term;")
    assert sorted(rows) == [("games",), ("news",), ("sports",)]


def test_distinct_whole_rows():
    rows, parsed = run_script(LOAD + "once = DISTINCT views;", rows=ROWS + ROWS[:2])
    assert sorted(rows) == sorted(ROWS)
    assert parsed.schema == parsed.relations["views"].schema


def test_min_and_max_aggregates():
    rows, parsed = run_script(
        LOAD
        + "byterm = GROUP views BY term;\n"
        + "span = FOREACH byterm GENERATE group, MIN(views.revenue) AS low, "
        + "MAX(views.timespent) AS high;"
    )
    assert parsed.schema == ("group", "low", "high")
    assert sorted(rows) == [("games", 6.0, 9), ("news", 1.0, 5), ("sports", 2.0, 20)]


def test_order_by_limit():
    rows, _ = run_script(
        LOAD
        + "byuser = GROUP views BY user;\n"
        + "totals = FOREACH byuser GENERATE group, SUM(views.revenue) AS total;\n"
        + "top = ORDER totals BY total DESC LIMIT 2;"
    )
    assert rows == [(2, 10.0), (3, 9.5)]


def test_positional_field_reference():
    rows, _ = run_script(
        LOAD
        + "byuser = GROUP views BY $0;\n"
        + "out = FOREACH byuser GENERATE group, COUNT(views);"
    )
    assert len(rows) == 3


def test_comments_are_ignored():
    rows, _ = run_script(
        "-- the input relation\n"
        + LOAD
        + "byuser = GROUP views BY user; -- group it\n"
        + "out = FOREACH byuser GENERATE group, COUNT(views);"
    )
    assert len(rows) == 3


def test_parsed_plan_runs_incrementally():
    parsed = parse_pig(
        LOAD
        + "byterm = GROUP views BY term;\n"
        + "out = FOREACH byterm GENERATE group, SUM(views.revenue);"
    )
    splits = make_splits(ROWS * 6, 3)
    incremental = IncrementalQueryPipeline(parsed.result, WindowMode.VARIABLE)
    batch = BatchQueryRunner(parsed.result)
    incremental.initial_run(splits[:10])
    batch.initial_run(splits[:10])
    got = incremental.advance(splits[10:12], 2)
    want = batch.advance(splits[10:12], 2)
    assert sorted(got.rows) == sorted(want.rows)


# -- error paths ---------------------------------------------------------------


@pytest.mark.parametrize(
    "script,fragment",
    [
        ("", "empty script"),
        ("x = 5;", "unsupported statement"),
        ("GROUP views BY user;", "expected"),
        (LOAD + "g = GROUP views BY user;", "bare GROUP"),
        (LOAD + "f = FILTER views BY nosuch == 1;", "unknown field"),
        (LOAD + "f = FILTER nope BY user == 1;", "unknown relation"),
        (LOAD + "g = GROUP views BY user;\no = FOREACH g GENERATE COUNT(views);",
         "must start with 'group'"),
        (LOAD + "g = GROUP views BY user;\no = FOREACH g GENERATE group, SUM();",
         "needs a field argument"),
        (LOAD + "t = ORDER views BY user;", "malformed ORDER"),
        ("v = LOAD 'x' AS ();", "at least one field"),
        ("v = LOAD pv AS (user);", "malformed LOAD"),
        (LOAD + "f = FILTER views;", "malformed FILTER"),
        (LOAD + "f = FOREACH views;", "malformed FOREACH"),
        (LOAD + "g = GROUP views user;", "malformed GROUP"),
        (LOAD + "d = DISTINCT views BY;", "malformed DISTINCT"),
        (LOAD + "j = JOIN views WITH tiers;", "malformed JOIN"),
        (LOAD + "f = FILTER views BY user == 1 2;", "unexpected trailing tokens"),
        (LOAD + "f = FILTER views BY user revenue;", "expected comparison operator"),
        (LOAD + "g = GROUP views BY user;\nf = FILTER g BY user == 1;",
         "cannot FILTER a grouped relation"),
        (LOAD + "g = GROUP views BY user;\nh = GROUP g BY user;",
         "cannot GROUP a grouped relation"),
        (LOAD + "g = GROUP views BY user;\nj = JOIN g BY user WITH tiers;",
         "cannot JOIN a grouped relation"),
        (LOAD + "g = GROUP views BY user;\no = FOREACH g GENERATE group, TOTAL(views);",
         "malformed aggregate"),
        (LOAD + "g = GROUP views BY user;\no = FOREACH g GENERATE group;",
         "at least one aggregate"),
    ],
)
def test_parse_errors(script, fragment):
    with pytest.raises(PigParseError) as exc:
        parse_pig(script, tables={"tiers": {}})
    assert fragment.lower() in str(exc.value).lower()


def test_filter_expression_errors():
    with pytest.raises(PigParseError):
        parse_pig(LOAD + "f = FILTER views BY user == ;")
    with pytest.raises(PigParseError):
        parse_pig(LOAD + "f = FILTER views BY (user == 1;")
    with pytest.raises(PigParseError):
        parse_pig(LOAD + "f = FILTER views BY user @@ 1;")


def test_compiled_stage_count():
    parsed = parse_pig(
        LOAD
        + "byuser = GROUP views BY user;\n"
        + "totals = FOREACH byuser GENERATE group, SUM(views.revenue);\n"
        + "top = ORDER totals BY $1 DESC LIMIT 3;"
    )
    assert compile_plan(parsed.result).num_stages() == 2


# -- JOIN -----------------------------------------------------------------------


def test_join_with_table():
    tiers = {1: "gold", 2: "silver"}
    parsed = parse_pig(
        LOAD
        + "tiered = JOIN views BY user WITH tiers AS tier;\n"
        + "bytier = GROUP tiered BY tier;\n"
        + "out = FOREACH bytier GENERATE group, COUNT(tiered);",
        tables={"tiers": tiers},
    )
    runner = BatchQueryRunner(parsed.result)
    rows = runner.initial_run(make_splits(ROWS, 2)).rows
    assert dict(rows) == {"gold": 2, "silver": 2}
    assert parsed.relations["tiered"].schema[-1] == "tier"


def test_left_join_keeps_unmatched():
    tiers = {1: "gold"}
    parsed = parse_pig(
        LOAD
        + "tiered = JOIN views BY user WITH tiers AS tier LEFT;\n"
        + "bytier = GROUP tiered BY tier;\n"
        + "out = FOREACH bytier GENERATE group, COUNT(tiered);",
        tables={"tiers": tiers},
    )
    rows = BatchQueryRunner(parsed.result).initial_run(make_splits(ROWS, 2)).rows
    assert dict(rows) == {"gold": 2, None: 4}


def test_join_unknown_table_rejected():
    with pytest.raises(PigParseError) as exc:
        parse_pig(LOAD + "j = JOIN views BY user WITH nope;")
    assert "unknown table" in str(exc.value)


# -- scripts that must fail at parse time ---------------------------------------

TWO = "s = LOAD 'x' AS (a, b);\n"


@pytest.mark.parametrize(
    "script,fragment",
    [
        (TWO + "t = ORDER s BY $9 DESC LIMIT 3;", "no field $9"),
        (TWO + "t = ORDER s BY $2 LIMIT 3;", "no field $2"),
        (TWO + "g = GROUP s BY $2;\nt = FOREACH g GENERATE group, COUNT(s);", "no field $2"),
        (TWO + "t = DISTINCT s BY $5;", "no field $5"),
        (TWO + "t = FOREACH s GENERATE a, $7;", "no field $7"),
        (TWO + "t = JOIN s BY $3 WITH tiers;", "no field $3"),
        (TWO + "t = JOIN s BY a WITH tiers AS b;", "repeated"),
        (TWO + "t = GROUP s BY $x;", "no field $x"),
        (TWO + "t = ORDER s BY a DESC LIMIT 0;", "LIMIT must be at least 1"),
        ("s = LOAD 'x' AS (a, a);", "repeated"),
        (TWO + "t = FOREACH s GENERATE a, b AS a;", "repeated"),
    ],
)
def test_invalid_scripts_fail_at_parse_time(script, fragment):
    with pytest.raises(PigParseError) as exc:
        parse_pig(script, tables={"tiers": {}})
    assert fragment.lower() in str(exc.value).lower()
