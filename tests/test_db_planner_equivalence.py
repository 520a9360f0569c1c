"""Planner equivalence suite: planned executor vs. the preserved seed executor.

The compiled planner (:mod:`repro.db.planner`) promises bit-identical
results to the interpreting executor it replaced: same rows, same row
*order*, same ``rows_scanned``/``index_lookups`` accounting and therefore
the same simulated cost — that is what keeps every seeded experiment
trajectory unchanged.  This suite drives both executors over the same table
storage and asserts exactly that, for

* every SELECT shape the TPC-W servlets issue (with representative
  parameters sampled from the population), and
* a randomized corpus of generated statements — single-table, single-join
  and double-join along the schema's foreign keys, with mixed WHERE
  operators, ORDER BY ASC/DESC (including multi-key) and LIMIT.

The reference implementation is ``perf/seed_reference``'s
``SeedRowHandlingDatabase`` (wrapper-dict rows, per-row column resolution),
which shares the planned database's tables so both sides see identical data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.sql import parse_sql
from repro.perf.seed_reference import make_seed_row_database_class
from repro.sim.random import RandomStreams
from repro.tpcw.population import PopulationScale, populate_database
from repro.tpcw.schema import SUBJECTS, create_tpcw_schema


@pytest.fixture(scope="module")
def databases():
    """(planned, seed-reference) databases sharing one populated table set."""
    planned = Database("tpcw")
    create_tpcw_schema(planned)
    populate_database(planned, scale=PopulationScale.tiny(), streams=RandomStreams(42))
    seed = make_seed_row_database_class()("tpcw")
    # SELECT-only suite: sharing the Table objects guarantees identical data
    # (and identical internal row ids / index sets) on both sides.
    seed._tables = planned._tables
    return planned, seed


def assert_equivalent(databases, sql, params=()):
    planned_db, seed_db = databases
    planned = planned_db.execute(sql, list(params))
    reference = seed_db.execute(sql, list(params))
    assert planned.rows == reference.rows, sql
    assert planned.rowcount == reference.rowcount, sql
    assert planned.rows_scanned == reference.rows_scanned, sql
    assert planned.cost_seconds == reference.cost_seconds, sql
    # Second execution exercises the plan-cache hit path.
    again = planned_db.execute(sql, list(params))
    assert again.rows == reference.rows, sql


# --------------------------------------------------------------------------- #
# Servlet repertoire
# --------------------------------------------------------------------------- #
SERVLET_QUERIES = [
    # home
    ("SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?", [3]),
    (
        "SELECT i_related1, i_related2, i_related3, i_related4, i_related5 "
        "FROM item WHERE i_id = ?",
        [5],
    ),
    ("SELECT i_id, i_title, i_thumbnail, i_cost FROM item WHERE i_id = ?", [7]),
    ("SELECT COUNT(*) AS n FROM item", []),
    # product_detail / admin_request
    (
        "SELECT i_id, i_title, i_a_id, i_srp, i_cost, i_stock, i_desc, i_backing, "
        "i_pub_date, i_subject FROM item WHERE i_id = ?",
        [11],
    ),
    ("SELECT a_fname, a_lname, a_bio FROM author WHERE a_id = ?", [2]),
    ("SELECT i_id, i_title, i_cost, i_image, i_thumbnail FROM item WHERE i_id = ?", [4]),
    # search_results (three search modes)
    (
        "SELECT i_id, i_title, i_srp FROM item WHERE i_subject = ? "
        "ORDER BY i_title LIMIT 50",
        [SUBJECTS[0]],
    ),
    (
        "SELECT i.i_id, i.i_title, i.i_srp FROM item i "
        "JOIN author a ON i.i_a_id = a.a_id WHERE a_lname = ? "
        "ORDER BY i_title LIMIT 50",
        ["SMITH"],
    ),
    (
        "SELECT i_id, i_title, i_srp FROM item WHERE i_title LIKE ? "
        "ORDER BY i_title LIMIT 50",
        ["%the%"],
    ),
    # new_products: the planner's top-k join shape
    (
        "SELECT i.i_id, i.i_title, i.i_pub_date, i.i_srp, a.a_fname, a.a_lname "
        "FROM item i JOIN author a ON i.i_a_id = a.a_id "
        "WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT 50",
        [SUBJECTS[1]],
    ),
    # best_sellers: double join + GROUP BY + aggregate ORDER BY
    (
        "SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS sold "
        "FROM order_line ol "
        "JOIN item i ON ol.ol_i_id = i.i_id "
        "JOIN author a ON i.i_a_id = a.a_id "
        "WHERE i_subject = ? "
        "GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname "
        "ORDER BY sold DESC LIMIT 50",
        [SUBJECTS[2]],
    ),
    # order_display / order_inquiry
    ("SELECT c_id FROM customer WHERE c_uname = ?", ["user1"]),
    (
        "SELECT o_id, o_date, o_total, o_status, o_ship_type FROM orders "
        "WHERE o_c_id = ? ORDER BY o_date DESC LIMIT 1",
        [2],
    ),
    (
        "SELECT ol.ol_i_id, ol.ol_qty, i.i_title FROM order_line ol "
        "JOIN item i ON ol.ol_i_id = i.i_id WHERE ol_o_id = ?",
        [3],
    ),
    # buy_request / buy_confirm / registration
    (
        "SELECT c_id, c_fname, c_lname, c_addr_id, c_discount "
        "FROM customer WHERE c_uname = ?",
        ["user2"],
    ),
    (
        "SELECT addr_street1, addr_city, addr_state, addr_zip "
        "FROM address WHERE addr_id = ?",
        [1],
    ),
    (
        "SELECT scl.scl_i_id, scl.scl_qty, i.i_cost FROM shopping_cart_line scl "
        "JOIN item i ON scl.scl_i_id = i.i_id WHERE scl_sc_id = ?",
        [1],
    ),
    ("SELECT i_stock FROM item WHERE i_id = ?", [9]),
    ("SELECT MAX(o_id) AS max_id FROM orders", []),
    ("SELECT MAX(sc_id) AS max_id FROM shopping_cart", []),
    # admin_confirm
    (
        "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line "
        "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5",
        [],
    ),
    # search_request banner
    ("SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?", [13]),
]


@pytest.mark.parametrize("sql,params", SERVLET_QUERIES)
def test_servlet_query_shapes_equivalent(databases, sql, params):
    assert_equivalent(databases, sql, params)


# --------------------------------------------------------------------------- #
# Randomized corpus
# --------------------------------------------------------------------------- #
#: Foreign-key edges of the TPC-W schema: (child, fk column, parent, pk).
FK_EDGES = [
    ("item", "i_a_id", "author", "a_id"),
    ("order_line", "ol_i_id", "item", "i_id"),
    ("order_line", "ol_o_id", "orders", "o_id"),
    ("orders", "o_c_id", "customer", "c_id"),
    ("customer", "c_addr_id", "address", "addr_id"),
    ("address", "addr_co_id", "country", "co_id"),
    ("shopping_cart_line", "scl_i_id", "item", "i_id"),
]

#: Columns worth filtering/ordering on per table (mixed types, some indexed,
#: some not — unindexed equality exercises the lazy hash-index path).
INTERESTING_COLUMNS = {
    "item": ["i_subject", "i_a_id", "i_cost", "i_srp", "i_stock", "i_title", "i_pub_date"],
    "author": ["a_lname", "a_fname"],
    "customer": ["c_uname", "c_discount", "c_addr_id", "c_lname"],
    "orders": ["o_c_id", "o_status", "o_total", "o_ship_type"],
    "order_line": ["ol_o_id", "ol_i_id", "ol_qty", "ol_discount"],
    "address": ["addr_state", "addr_co_id", "addr_city"],
    "country": ["co_name", "co_currency"],
    "shopping_cart_line": ["scl_sc_id", "scl_i_id", "scl_qty"],
}


def _sample_value(rng, table, column):
    """A probe value for ``column``: usually present in the data, sometimes not."""
    from repro.db.table import ColumnType

    rows = list(table.rows())
    if rows and rng.random() < 0.85:
        row = rows[int(rng.integers(0, len(rows)))]
        return row[column]
    # Miss probes: type-correct values unlikely to be present.
    if table.column(column).type is ColumnType.VARCHAR:
        return "ZZ-NO-SUCH"
    return int(rng.integers(10_000, 20_000))


def _render_value(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _random_statement(rng, database):
    """One generated SELECT: 0-2 joins, random filters, ORDER BY, LIMIT."""
    joins = int(rng.integers(0, 3))
    if joins == 0:
        base = list(INTERESTING_COLUMNS)[int(rng.integers(0, len(INTERESTING_COLUMNS)))]
        chain = []
    elif joins == 1:
        child, fk, parent, pk = FK_EDGES[int(rng.integers(0, len(FK_EDGES)))]
        base, chain = child, [(parent, pk, fk)]
    else:
        # order_line -> item -> author is the only natural two-hop chain.
        base = "order_line"
        chain = [("item", "i_id", "ol_i_id"), ("author", "a_id", "i_a_id")]

    alias = {0: base[0], 1: chain[0][0][0] if chain else "", 2: "x"}
    base_alias = "t0"
    names = [base] + [parent for parent, _, _ in chain]
    aliases = [f"t{i}" for i in range(len(names))]

    select_cols = []
    for idx, name in enumerate(names):
        cols = INTERESTING_COLUMNS.get(name) or database.table(name).column_names()
        picked = cols[int(rng.integers(0, len(cols)))]
        select_cols.append(f"{aliases[idx]}.{picked}")
    pk0 = database.table(base).primary_key
    select_cols.append(f"{aliases[0]}.{pk0}")

    sql = f"SELECT {', '.join(dict.fromkeys(select_cols))} FROM {base} {aliases[0]}"
    prev_alias = aliases[0]
    prev_table = base
    for idx, (parent, pk, fk) in enumerate(chain, start=1):
        sql += f" JOIN {parent} {aliases[idx]} ON {prev_alias}.{fk} = {aliases[idx]}.{pk}"
        prev_alias, prev_table = aliases[idx], parent

    params = []
    where_terms = []
    n_conditions = int(rng.integers(0, 3))
    for _ in range(n_conditions):
        target = int(rng.integers(0, len(names)))
        table_name = names[target]
        cols = INTERESTING_COLUMNS.get(table_name) or database.table(table_name).column_names()
        column = cols[int(rng.integers(0, len(cols)))]
        value = _sample_value(rng, database.table(table_name), column)
        op = ["=", "=", "<", ">", "<=", ">="][int(rng.integers(0, 6))]
        if isinstance(value, str) and rng.random() < 0.3:
            op = "LIKE"
            value = f"%{value[:2]}%" if value else "%"
        if op in ("<", ">", "<=", ">=") and not isinstance(value, (int, float)):
            op = "="
        if rng.random() < 0.5:
            where_terms.append(f"{aliases[target]}.{column} {op} ?")
            params.append(value)
        else:
            where_terms.append(f"{aliases[target]}.{column} {op} {_render_value(value)}")
    if where_terms:
        sql += " WHERE " + " AND ".join(where_terms)

    if rng.random() < 0.7:
        n_keys = 1 + int(rng.integers(0, 2))
        keys = []
        for _ in range(n_keys):
            target = int(rng.integers(0, len(names)))
            cols = INTERESTING_COLUMNS.get(names[target]) or database.table(
                names[target]
            ).column_names()
            column = cols[int(rng.integers(0, len(cols)))]
            direction = " DESC" if rng.random() < 0.5 else ""
            keys.append(f"{aliases[target]}.{column}{direction}")
        sql += " ORDER BY " + ", ".join(dict.fromkeys(keys))
    if rng.random() < 0.6:
        sql += f" LIMIT {int(rng.integers(0, 40))}"
    return sql, params


#: Numeric columns per table, for SUM/AVG (MIN/MAX/COUNT take any column).
AGG_NUMERIC_COLUMNS = {
    "item": ["i_cost", "i_srp", "i_stock"],
    "orders": ["o_total"],
    "order_line": ["ol_qty", "ol_discount"],
    "customer": ["c_discount"],
    "shopping_cart_line": ["scl_qty"],
}


def _random_aggregate_statement(rng, database):
    """One generated aggregate SELECT: GROUP BY 0-2 keys, 1-3 aggregates."""
    joins = int(rng.integers(0, 3))
    if joins == 0:
        base = list(AGG_NUMERIC_COLUMNS)[int(rng.integers(0, len(AGG_NUMERIC_COLUMNS)))]
        chain = []
    elif joins == 1:
        child, fk, parent, pk = FK_EDGES[int(rng.integers(0, len(FK_EDGES)))]
        base, chain = child, [(parent, pk, fk)]
    else:
        base = "order_line"
        chain = [("item", "i_id", "ol_i_id"), ("author", "a_id", "i_a_id")]
    names = [base] + [parent for parent, _, _ in chain]
    aliases = [f"t{i}" for i in range(len(names))]

    def _pick_column(target):
        cols = INTERESTING_COLUMNS.get(names[target]) or database.table(
            names[target]
        ).column_names()
        return cols[int(rng.integers(0, len(cols)))]

    group_refs = []
    for _ in range(int(rng.integers(0, 3))):
        target = int(rng.integers(0, len(names)))
        group_refs.append(f"{aliases[target]}.{_pick_column(target)}")
    group_refs = list(dict.fromkeys(group_refs))

    select_items = list(group_refs)
    order_candidates = [ref.split(".")[1] for ref in group_refs]
    numeric_targets = [
        (idx, column)
        for idx, name in enumerate(names)
        for column in AGG_NUMERIC_COLUMNS.get(name, [])
    ]
    for agg_index in range(1 + int(rng.integers(0, 3))):
        alias_name = f"agg{agg_index}"
        choice = int(rng.integers(0, 6))
        if choice == 0 or (choice in (2, 3) and not numeric_targets):
            select_items.append(f"COUNT(*) AS {alias_name}")
        elif choice == 1:
            target = int(rng.integers(0, len(names)))
            select_items.append(
                f"COUNT({aliases[target]}.{_pick_column(target)}) AS {alias_name}"
            )
        elif choice in (2, 3):
            function = "SUM" if choice == 2 else "AVG"
            target, column = numeric_targets[int(rng.integers(0, len(numeric_targets)))]
            select_items.append(f"{function}({aliases[target]}.{column}) AS {alias_name}")
        else:
            function = "MIN" if choice == 4 else "MAX"
            target = int(rng.integers(0, len(names)))
            select_items.append(
                f"{function}({aliases[target]}.{_pick_column(target)}) AS {alias_name}"
            )
        order_candidates.append(alias_name)

    sql = "SELECT " + ", ".join(select_items) + f" FROM {base} {aliases[0]}"
    prev_alias = aliases[0]
    for idx, (parent, pk, fk) in enumerate(chain, start=1):
        sql += f" JOIN {parent} {aliases[idx]} ON {prev_alias}.{fk} = {aliases[idx]}.{pk}"
        prev_alias = aliases[idx]

    params = []
    where_terms = []
    for _ in range(int(rng.integers(0, 3))):
        target = int(rng.integers(0, len(names)))
        column = _pick_column(target)
        value = _sample_value(rng, database.table(names[target]), column)
        op = ["=", "=", "<", ">", "<=", ">="][int(rng.integers(0, 6))]
        if op in ("<", ">", "<=", ">=") and not isinstance(value, (int, float)):
            op = "="
        if rng.random() < 0.5:
            where_terms.append(f"{aliases[target]}.{column} {op} ?")
            params.append(value)
        else:
            where_terms.append(f"{aliases[target]}.{column} {op} {_render_value(value)}")
    if where_terms:
        sql += " WHERE " + " AND ".join(where_terms)
    if group_refs:
        sql += " GROUP BY " + ", ".join(group_refs)
    if order_candidates and rng.random() < 0.8:
        key = order_candidates[int(rng.integers(0, len(order_candidates)))]
        direction = " DESC" if rng.random() < 0.5 else ""
        sql += f" ORDER BY {key}{direction}"
        if rng.random() < 0.6:
            sql += f" LIMIT {int(rng.integers(1, 30))}"
    return sql, params


@pytest.mark.parametrize("corpus_seed", [42, 7, 2026])
def test_randomized_statement_corpus_equivalent(databases, corpus_seed):
    planned_db, _ = databases
    rng = np.random.default_rng(corpus_seed)
    for _ in range(120):
        sql, params = _random_statement(rng, planned_db)
        assert_equivalent(databases, sql, params)


def test_corpus_exercises_topk_and_lazy_paths(databases):
    """Sanity: the generated corpus actually hits the specialised operators."""
    planned_db, _ = databases
    rng = np.random.default_rng(42)
    topk = lazy = pushed = 0
    for _ in range(120):
        sql, params = _random_statement(rng, planned_db)
        planned_db.execute(sql, params)
        entry = planned_db._plan_cache.get(id(parse_sql(sql)))
        if entry is None:
            continue
        plan = entry[1]
        topk += bool(plan.topk_eligible)
        lazy += bool(plan.lazy_base_lookups) or any(
            step.lazy_index is not None for step in plan.join_steps
        )
        # A conjunct evaluated below the last join level was pushed down.
        pushed += any(level < len(plan.join_steps) for level in plan.conjunct_levels)
    assert topk > 5
    assert lazy > 5
    assert pushed > 5


@pytest.mark.parametrize("corpus_seed", [13, 99, 1234])
def test_randomized_aggregate_corpus_equivalent(databases, corpus_seed):
    planned_db, _ = databases
    rng = np.random.default_rng(corpus_seed)
    for _ in range(80):
        sql, params = _random_aggregate_statement(rng, planned_db)
        assert_equivalent(databases, sql, params)


def test_streaming_aggregates_match_materialized(databases):
    """A/B the streaming fold against the retained materialized path."""
    import repro.db.planner as planner_module

    planned_db, _ = databases
    rng = np.random.default_rng(11)
    statements = [_random_aggregate_statement(rng, planned_db) for _ in range(60)]
    statements.extend(
        (sql, params) for sql, params in SERVLET_QUERIES if "GROUP BY" in sql or "(" in sql
    )
    original = planner_module.STREAMING_AGGREGATES
    try:
        planner_module.STREAMING_AGGREGATES = False
        expected = [planned_db.execute(sql, params).rows for sql, params in statements]
        planner_module.STREAMING_AGGREGATES = True
        actual = [planned_db.execute(sql, params).rows for sql, params in statements]
    finally:
        planner_module.STREAMING_AGGREGATES = original
    assert actual == expected


def test_aggregate_corpus_exercises_group_by(databases):
    """Sanity: the aggregate generator produces real GROUP BY + aggregate mix."""
    planned_db, _ = databases
    rng = np.random.default_rng(13)
    grouped = global_agg = 0
    for _ in range(80):
        sql, _params = _random_aggregate_statement(rng, planned_db)
        grouped += "GROUP BY" in sql
        global_agg += "GROUP BY" not in sql
    assert grouped > 10
    assert global_agg > 10


# --------------------------------------------------------------------------- #
# Predicate pushdown in the fused join loop
# --------------------------------------------------------------------------- #
def _outcome(database, sql, params):
    """Rows and accounting of one execution, or the error it raised."""
    lookups_before = database.stats.index_lookups
    try:
        result = database.execute(sql, list(params))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("error", type(exc), str(exc))
    return (
        "rows",
        result.rows,
        result.rows_scanned,
        database.stats.index_lookups - lookups_before,
        result.cost_seconds,
    )


def assert_same_outcome(databases, sql, params=()):
    """Planned and seed executors agree on rows, accounting or error."""
    planned_db, seed_db = databases
    planned = _outcome(planned_db, sql, params)
    assert planned == _outcome(seed_db, sql, params), sql
    assert _outcome(planned_db, sql, params) == planned, sql  # cached plan
    return planned


def _plan(database, sql):
    return database._plan_cache[id(parse_sql(sql))][1]


@pytest.fixture(scope="module")
def dangling_databases():
    """order_line -> item -> author with dangling and NaN foreign keys.

    Order lines 7-8 point at a missing item; items 4-5 at a missing author
    (item 5 at NULL); item 6's float tag is NaN.  ``tag`` has a FLOAT
    primary key (PK probes with NaN), ``author.a_key`` no index at all
    (lazy hash-index join with NaN).
    """
    import math

    from repro.db.table import Column, ColumnType

    planned = Database("pushdown")
    planned.create_table(
        "author",
        [
            Column("a_id", ColumnType.INTEGER, primary_key=True),
            Column("a_lname", ColumnType.VARCHAR),
            Column("a_key", ColumnType.FLOAT),
        ],
    )
    planned.create_table(
        "tag",
        [Column("t_key", ColumnType.FLOAT, primary_key=True), Column("t_name", ColumnType.VARCHAR)],
    )
    planned.create_table(
        "item",
        [
            Column("i_id", ColumnType.INTEGER, primary_key=True),
            Column("i_a_id", ColumnType.INTEGER),
            Column("i_subject", ColumnType.VARCHAR),
            Column("i_title", ColumnType.VARCHAR),
            Column("i_cost", ColumnType.FLOAT),
            Column("i_tag", ColumnType.FLOAT),
        ],
    )
    planned.create_table(
        "order_line",
        [
            Column("ol_id", ColumnType.INTEGER, primary_key=True),
            Column("ol_i_id", ColumnType.INTEGER),
            Column("ol_qty", ColumnType.INTEGER),
        ],
    )
    planned.table("item").create_index("i_subject")
    for a_id, lname, key in [(1, "SMITH", 1.0), (2, "JONES", math.nan), (3, None, 3.0)]:
        planned.table("author").insert({"a_id": a_id, "a_lname": lname, "a_key": key})
    for key, name in [(1.0, "one"), (2.0, "two"), (math.nan, "nan")]:
        planned.table("tag").insert({"t_key": key, "t_name": name})
    items = [
        (1, 1, "ARTS", "Alpha", 5.0, 1.0),
        (2, 2, "ARTS", "Beta", 2.5, 2.0),
        (3, 3, "HISTORY", "Gamma", 7.0, 1.0),
        (4, 99, "ARTS", "Delta", 1.0, 2.0),  # dangling author
        (5, None, "HISTORY", None, None, None),  # NULL author
        (6, 1, "ARTS", "Eta", 3.0, math.nan),  # NaN tag
    ]
    for i_id, a_id, subject, title, cost, tag in items:
        planned.table("item").insert(
            {
                "i_id": i_id,
                "i_a_id": a_id,
                "i_subject": subject,
                "i_title": title,
                "i_cost": cost,
                "i_tag": tag,
            }
        )
    lines = [(1, 1, 2), (2, 2, 3), (3, 3, 2), (4, 4, 2), (5, 5, 1), (6, 6, 2), (7, 42, 2), (8, 43, 3)]
    for ol_id, i_id, qty in lines:
        planned.table("order_line").insert({"ol_id": ol_id, "ol_i_id": i_id, "ol_qty": qty})
    seed = make_seed_row_database_class()("pushdown")
    seed._tables = planned._tables
    return planned, seed


DOUBLE_JOIN = (
    "SELECT ol.ol_id, i.i_title, a.a_lname FROM order_line ol "
    "JOIN item i ON ol.ol_i_id = i.i_id JOIN author a ON i.i_a_id = a.a_id "
)


@pytest.mark.parametrize(
    "where,params,levels",
    [
        # base, middle and last table: each runs at its own level
        ("WHERE ol.ol_qty = ? AND i.i_subject = ? AND a.a_lname != ?", [2, "ARTS", "JONES"], [0, 1, 2]),
        ("WHERE a.a_lname != ? AND i.i_subject = ? AND ol.ol_qty = ?", ["X", "ARTS", 2], [2, 1, 0]),
        ("WHERE i.i_title LIKE ? AND ol.ol_qty != ?", ["%a", 3], [1, 0]),
        ("WHERE ol.ol_qty = ?", [99], [0]),  # rejects every row at the base
        ("WHERE i.i_subject = ?", [None], [1]),
        ("WHERE i.i_a_id = a.a_id AND ol.ol_qty = ?", [2], [2, 0]),
    ],
)
def test_pushdown_double_join_with_dangling_keys(dangling_databases, where, params, levels):
    planned_db, _ = dangling_databases
    sql = DOUBLE_JOIN + where
    outcome = assert_same_outcome(dangling_databases, sql, params)
    assert outcome[0] == "rows"
    assert _plan(planned_db, sql).conjunct_levels == levels


@pytest.mark.parametrize(
    "where,params,levels",
    [
        # raising '<' first: nothing after it may move
        ("WHERE i.i_title < ? AND ol.ol_qty = ?", [5, 2], [2, 2]),
        # pushed '=' first, raising '<' after it stays innermost
        ("WHERE ol.ol_qty = ? AND i.i_title < ?", [2, 5], [0, 2]),
        ("WHERE i.i_subject = ? AND a.a_lname > ?", ["ARTS", 1], [1, 2]),
        # the pushed '=' rejects every row, so the '<' never runs
        ("WHERE ol.ol_qty = ? AND i.i_title < ?", [99, 5], [0, 2]),
        ("WHERE i.i_cost < ? AND i.i_subject = ?", ["x", "ARTS"], [2, 2]),
    ],
)
def test_pushdown_keeps_the_seed_error(dangling_databases, where, params, levels):
    planned_db, _ = dangling_databases
    sql = DOUBLE_JOIN + where
    outcome = assert_same_outcome(dangling_databases, sql, params)
    assert _plan(planned_db, sql).conjunct_levels == levels
    if params[0] != 99:
        assert outcome[:2] == ("error", TypeError)


@pytest.mark.parametrize(
    "sql,params",
    [
        # PK probe (FLOAT primary key) with a NaN join key
        (
            "SELECT ol.ol_id, t.t_name FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id "
            "JOIN tag t ON i.i_tag = t.t_key WHERE ol.ol_qty = ?",
            [2],
        ),
        (
            "SELECT i.i_id, t.t_name FROM item i JOIN tag t ON i.i_tag = t.t_key "
            "WHERE i.i_subject != ?",
            ["HISTORY"],
        ),
        # lazy hash-index join with a NaN key, then a PK probe
        (
            "SELECT t.t_name, a.a_id FROM tag t JOIN author a ON t.t_key = a.a_key "
            "JOIN item i ON a.a_id = i.i_id WHERE t.t_name != ? AND i.i_subject = ?",
            ["two", "ARTS"],
        ),
        # declared non-PK index step followed by a PK probe
        (
            "SELECT a.a_id, i.i_id, t.t_name FROM author a JOIN item i ON i.i_a_id = a.a_id "
            "JOIN tag t ON i.i_tag = t.t_key WHERE a.a_lname = ? AND i.i_cost != ?",
            ["SMITH", 3.0],
        ),
    ],
)
def test_pushdown_with_nan_join_keys(dangling_databases, sql, params):
    planned_db, _ = dangling_databases
    assert assert_same_outcome(dangling_databases, sql, params)[0] == "rows"
    plan = _plan(planned_db, sql)
    assert any(level < len(plan.join_steps) for level in plan.conjunct_levels)


@pytest.fixture(scope="module")
def standard_databases():
    """Planned and seed executors over one standard-population store."""
    planned = Database("tpcw")
    create_tpcw_schema(planned)
    populate_database(planned, scale=PopulationScale.standard(), streams=RandomStreams(42))
    seed = make_seed_row_database_class()("tpcw")
    seed._tables = planned._tables
    return planned, seed


def test_best_sellers_every_subject_standard_population(standard_databases):
    from repro.tpcw.servlets.best_sellers import _BEST_SELLERS_SQL

    planned_db, _ = standard_databases
    for subject in SUBJECTS:
        outcome = assert_same_outcome(standard_databases, _BEST_SELLERS_SQL, [subject])
        assert outcome[0] == "rows" and outcome[1], subject
    # i_subject binds on item, and author is a PK probe: pushed to level 1.
    assert _plan(planned_db, _BEST_SELLERS_SQL).conjunct_levels == [1]
