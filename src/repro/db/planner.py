"""Compiled SELECT plans: hash-index joins, top-k ORDER BY + LIMIT, tuple rows.

The executor in :mod:`repro.db.engine` used to interpret the SELECT AST
afresh on every call: name resolution per statement, a ``{qualifier: row}``
wrapper dict allocated per joined row, full projection of every surviving
row and a full sort before LIMIT.  The servlets issue a fixed repertoire of
parameterised statements, so all of that interpretive work is loop-invariant
across executions.  This module compiles each SELECT **once** into a
:class:`CompiledSelect` — name resolution, join sides, filters, projection
and order keys all resolved against the table schemas at compile time and
emitted as specialised closures — and the engine caches the plan per
statement (keyed like the ``parse_sql`` statement cache, invalidated by
table/schema versioning).

Operator highlights:

* **Tuple intermediate rows** — joined rows travel as plain tuples of the
  underlying table row dicts; merged wrapper dicts are only materialised for
  rows that survive ORDER BY/LIMIT.
* **Top-k ORDER BY + LIMIT** — when every ORDER BY key runs in the same
  direction, ``heapq.nsmallest``/``nlargest`` select the LIMIT rows without
  sorting (or projecting) the full candidate set.  Both are stable in the
  ``sorted(...)[:n]`` sense, so ties order exactly like the full sort.
* **Lazy hash-index joins** — join/WHERE equality columns without a declared
  index get an auto-maintained hash index built on first demand
  (:meth:`repro.db.table.Table.ensure_hash_index`).
* **Compiled row functions** — projections, group keys and order keys are
  generated as tiny lambdas over the execution rows, so the per-row inner
  loops carry no interpretive dispatch.
* **Fused join loop with predicate pushdown** — every plan's joins and
  WHERE residual compile into one generated function: nested straight-line
  code per join step (PK probe, declared-index probe, lazy-index probe or
  literal scan), local accounting counters, and each residual conjunct
  evaluated at the innermost join level that binds all of its columns.
  Two rules keep that exact.  A conjunct moves up only if neither it nor
  any conjunct before it in WHERE order can raise (``=``, ``!=`` and
  ``LIKE`` cannot; the inequalities can), so the interpreter's first error
  is neither pre-empted nor suppressed.  And it moves only to a level after
  which every join step is a primary-key probe: a row it rejects is still
  charged for the probes the interpreter would have run, by a count-only
  chain (``index_lookups += 1`` per probe, ``rows_scanned += 1`` per hit,
  no tuple built) — exactly the work the skipped steps would have counted.

**Cost-model neutrality.**  The engine's simulated latency model charges the
*declared* access plan (what the paper-era MySQL would have done with the
schema's indexes), and experiment trajectories depend on those simulated
costs.  Lazy planner indexes therefore never change the accounting: where
the interpreter would have scanned, the plan still charges a full scan
(``scanned += len(table)`` per probe) while physically probing the hash
index — and it emits rows in ascending row-id order, which is exactly the
interpreter's scan order.  Declared-index paths reproduce the interpreter's
set-intersection lookups verbatim.  As a result every query returns
bit-identical rows, row order, ``rows_scanned``/``index_lookups`` counters
and simulated cost — asserted by the planner equivalence suite.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.db.sql import Aggregate, ColumnRef, Condition, SelectStatement
from repro.db.table import Table, _SecondaryIndex

#: Evaluate GROUP BY aggregates by streaming folds (one pass, per-group
#: accumulators) instead of materialising per-group member lists.  Both
#: paths produce identical rows, order and errors; the flag exists for the
#: ``group_by`` A/B benchmark and as an escape hatch.
STREAMING_AGGREGATES = True

#: Cached ``repro.db.engine.SqlExecutionError`` (imported lazily: the engine
#: imports this module, so a top-level import would be circular).
_SQL_ERROR_CLASS = None


def _sql_error(message: str) -> Exception:
    global _SQL_ERROR_CLASS
    if _SQL_ERROR_CLASS is None:
        from repro.db.engine import SqlExecutionError

        _SQL_ERROR_CLASS = SqlExecutionError
    return _SQL_ERROR_CLASS(message)


class _JoinStep:
    """One compiled join: where the probe value comes from and how to match."""

    __slots__ = ("table", "new_name", "old_pos", "old_name", "use_index", "lazy_index")

    def __init__(
        self,
        table: Table,
        new_name: str,
        old_pos: int,
        old_name: str,
        use_index: bool,
        lazy_index: Optional[_SecondaryIndex],
    ) -> None:
        self.table = table
        self.new_name = new_name
        self.old_pos = old_pos
        self.old_name = old_name
        #: Declared index on the join key: probe via ``lookup_ids`` and charge
        #: index lookups, exactly like the interpreter.
        self.use_index = use_index
        #: Planner-built hash index replacing the interpreter's full scan
        #: (``None`` when the join column does not exist — then the
        #: interpreter's ``row.get`` scan semantics are reproduced literally).
        self.lazy_index = lazy_index

    @property
    def is_pk_probe(self) -> bool:
        """Declared primary-key probe: at most one match per outer row."""
        return self.use_index and self.new_name == self.table.primary_key


class CompiledSelect:
    """A SELECT statement compiled against one database's current schema."""

    def __init__(self, database, statement: SelectStatement) -> None:
        self.statement = statement
        self._bind = database._bind
        self._compare = database._compare
        self._order_key_name = database._order_key_name
        self._compile(database, statement)
        # Validity stamp: any schema change (table created/dropped, index
        # declared) recompiles the plan.
        self.schema_epoch = database._schema_epoch
        self.table_versions = tuple(
            (table, table.schema_version) for table in self._tables
        )

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _accessor(self, pos: int, name: str) -> str:
        """Source expression reading one column off an execution row."""
        if self._joined_layout:
            return f"row[{pos}][{name!r}]"
        return f"row[{name!r}]"

    @staticmethod
    def _make_fn(source: str, namespace: Optional[Dict[str, Any]] = None) -> Callable:
        return eval(source, namespace if namespace is not None else {})

    def _compile(self, database, statement: SelectStatement) -> None:
        base_table = database.table(statement.table)
        base_qualifier = statement.alias or statement.table
        self.base_table = base_table
        self._tables: List[Table] = [base_table]

        # Qualifier bookkeeping mirrors the interpreter's execution-row dict:
        # a duplicate join qualifier overwrites in place (keeps its original
        # iteration slot, points at the latest tuple position).
        tables_by_qualifier: Dict[str, Table] = {base_qualifier: base_table}
        positions: Dict[str, int] = {base_qualifier: 0}

        def resolve_qualifier(ref: ColumnRef) -> str:
            if ref.table is not None:
                if ref.table not in tables_by_qualifier:
                    raise _sql_error(f"unknown table qualifier {ref.table!r}")
                if not tables_by_qualifier[ref.table].has_column(ref.name):
                    raise _sql_error(f"unknown column {ref}")
                return ref.table
            for qualifier, table in tables_by_qualifier.items():
                if table.has_column(ref.name):
                    return qualifier
            raise _sql_error(f"unknown column {ref.name!r}")

        def refers_to_base(ref: ColumnRef) -> bool:
            if ref.table is not None:
                return ref.table == base_qualifier or ref.table == statement.table
            return base_table.has_column(ref.name)

        # WHERE split: declared-index equality pruning vs. residual, exactly
        # like the interpreter.
        self.index_conditions: List[Tuple[str, Any]] = []
        residual: List[Condition] = []
        for condition in statement.where:
            usable = (
                condition.op == "="
                and not isinstance(condition.rhs, ColumnRef)
                and refers_to_base(condition.lhs)
                and base_table.has_index(condition.lhs.name)
            )
            if usable:
                self.index_conditions.append((condition.lhs.name, condition.rhs))
            else:
                residual.append(condition)

        # Joins.
        self.join_steps: List[_JoinStep] = []
        for join in statement.joins:
            join_table = database.table(join.table)
            join_qualifier = join.alias or join.table

            def side_is_new(ref: ColumnRef) -> bool:
                if ref.table is not None:
                    return ref.table == join_qualifier or ref.table == join.table
                return join_table.has_column(ref.name)

            if side_is_new(join.left) and not side_is_new(join.right):
                new_ref, old_ref = join.left, join.right
            elif side_is_new(join.right) and not side_is_new(join.left):
                new_ref, old_ref = join.right, join.left
            else:
                raise _sql_error(
                    f"cannot determine join sides for ON {join.left} = {join.right}"
                )
            use_index = join_table.has_index(new_ref.name)
            old_qualifier = resolve_qualifier(old_ref)
            lazy_index: Optional[_SecondaryIndex] = None
            if not use_index and join_table.has_column(new_ref.name):
                lazy_index = join_table.ensure_hash_index(new_ref.name)
            self.join_steps.append(
                _JoinStep(
                    table=join_table,
                    new_name=new_ref.name,
                    old_pos=positions[old_qualifier],
                    old_name=old_ref.name,
                    use_index=use_index,
                    lazy_index=lazy_index,
                )
            )
            tables_by_qualifier[join_qualifier] = join_table
            positions[join_qualifier] = len(self.join_steps)
            self._tables.append(join_table)

        self.joined = bool(self.join_steps)
        self._joined_layout = self.joined  # row tuples vs. plain row dicts

        # Residual filters -> conjunct source terms over the loop's per-level
        # row variables ``r0..rn``.  Parameters/literals are bound once per
        # execution into ``b<i>`` locals.  SQL three-valued ``=``/``!=``
        # collapse exactly to Python ``==``/``!=`` over the engine's value
        # universe (NULL compares equal only to NULL); inequalities and LIKE
        # keep the interpreter's helpers for the NULL-guard and pattern
        # semantics.  Each conjunct records the join level binding all of
        # its columns and whether it can raise (only the ``_cmp``
        # inequalities can: ``'a' < 1`` is a TypeError).
        self._residual_nodes: List[Any] = []  # rhs nodes bound per execution
        conjuncts: List[Tuple[str, int, bool]] = []  # (term, level, can_raise)
        lazy_candidates: List[Tuple[str, Any, int]] = []
        for condition in residual:
            lhs_pos = positions[resolve_qualifier(condition.lhs)]
            lhs_expr = f"r{lhs_pos}[{condition.lhs.name!r}]"
            level = lhs_pos
            if isinstance(condition.rhs, ColumnRef):
                rhs_pos = positions[resolve_qualifier(condition.rhs)]
                rhs_expr = f"r{rhs_pos}[{condition.rhs.name!r}]"
                level = max(level, rhs_pos)
                bound_index = None
            else:
                bound_index = len(self._residual_nodes)
                self._residual_nodes.append(condition.rhs)
                rhs_expr = f"b{bound_index}"
            can_raise = False
            if condition.op == "=":
                term = f"{lhs_expr} == {rhs_expr}"
                if bound_index is not None and base_table.has_column(condition.lhs.name):
                    lazy_candidates.append((condition.lhs.name, condition.rhs, len(conjuncts)))
            elif condition.op == "!=":
                term = f"{lhs_expr} != {rhs_expr}"
            elif condition.op == "LIKE":
                term = f"_like({lhs_expr}, {rhs_expr})"
            else:
                term = f"_cmp({condition.op!r}, {lhs_expr}, {rhs_expr})"
                can_raise = True
            conjuncts.append((term, level, can_raise))

        # Lazy single-table acceleration: equality residuals on an unindexed
        # column probe a planner hash index instead of scanning — but only
        # when there are no joins (pre-filtering the outer side would change
        # the interpreter's join scan accounting) and no declared-index
        # conditions (those dictate the interpreter's candidate iteration
        # order, which the residual filter preserves more cheaply).  The
        # consumed equalities leave the loop's filter.
        self.lazy_base_lookups: List[Tuple[_SecondaryIndex, Any]] = []
        if not self.joined and not self.index_conditions and lazy_candidates:
            consumed = set()
            for column_name, rhs_node, conjunct_index in lazy_candidates:
                self.lazy_base_lookups.append(
                    (base_table.ensure_hash_index(column_name), rhs_node)
                )
                consumed.add(conjunct_index)
            conjuncts = [c for index, c in enumerate(conjuncts) if index not in consumed]

        # Pushdown placement.  A conjunct may leave the innermost level only
        # if neither it nor any conjunct before it (WHERE order) can raise —
        # then evaluating it early can neither pre-empt nor suppress the
        # interpreter's first error.  And it may only run where every later
        # join step is a primary-key probe, so a rejected row's skipped work
        # is charged by a cheap count-only probe chain.
        innermost = len(self.join_steps)
        pk_tail_from = max(
            (k for k, step in enumerate(self.join_steps, 1) if not step.is_pk_probe),
            default=0,
        )
        #: Loop level at which each filter conjunct is evaluated (WHERE
        #: order); a level below ``len(join_steps)`` is a pushed conjunct.
        self.conjunct_levels: List[int] = []
        movable = True
        for _term, level, can_raise in conjuncts:
            movable = movable and not can_raise
            self.conjunct_levels.append(max(level, pk_tail_from) if movable else innermost)
        self._run = self._compile_join_loop(
            [term for term, _, _ in conjuncts], database._like_match
        )

        # Projection.
        self.has_aggregates = (
            statement.has_aggregates
            if statement.has_aggregates is not None
            else any(isinstance(item.expression, Aggregate) for item in statement.items)
        )
        self.is_aggregate = self.has_aggregates or bool(statement.group_by)
        self.star = statement.star

        projection: List[Tuple[str, int, str]] = []
        projected_by_name: Dict[str, Tuple[int, str]] = {}
        if self.star:
            if self.has_aggregates:
                raise _sql_error("SELECT * cannot be combined with aggregates")
            # ``merged.update(row)`` semantics: first-seen name keeps its slot,
            # the last qualifier supplies the value.
            slot_by_name: Dict[str, int] = {}
            for qualifier, table in tables_by_qualifier.items():
                pos = positions[qualifier]
                for column in table.column_names():
                    if column in slot_by_name:
                        projection[slot_by_name[column]] = (column, pos, column)
                    else:
                        slot_by_name[column] = len(projection)
                        projection.append((column, pos, column))
            projected_by_name = {name: (pos, col) for name, pos, col in projection}
        elif not self.is_aggregate:
            for item in statement.items:
                name = item.alias or item.expression.name
                qualifier = resolve_qualifier(item.expression)
                entry = (name, positions[qualifier], item.expression.name)
                projection.append(entry)
                projected_by_name[name] = (entry[1], entry[2])

        #: Compiled row -> result-dict projection (``None`` on aggregates).
        self._project: Optional[Callable] = None
        if projection:
            body = ", ".join(
                f"{name!r}: {self._accessor(pos, column)}"
                for name, pos, column in projection
            )
            self._project = self._make_fn(f"lambda row: {{{body}}}")

        # Aggregation.
        self._group_key: Optional[Callable] = None
        self._aggregate_items: List[Tuple[str, str, Any]] = []
        stream_specs: List[Tuple[str, Optional[str]]] = []
        if self.is_aggregate:
            if self.star:
                raise _sql_error("SELECT * cannot be combined with aggregates")
            group_names = [ref.name for ref in statement.group_by]
            if statement.group_by:
                exprs = [
                    self._accessor(positions[resolve_qualifier(ref)], ref.name)
                    for ref in statement.group_by
                ]
                tuple_body = ", ".join(exprs) + ("," if len(exprs) == 1 else "")
                self._group_key = self._make_fn(f"lambda row: ({tuple_body})")
            for item in statement.items:
                expression = item.expression
                if isinstance(expression, ColumnRef):
                    name = item.alias or expression.name
                    source = self._accessor(
                        positions[resolve_qualifier(expression)], expression.name
                    )
                    extractor = self._make_fn("lambda row: " + source)
                    valid = not statement.group_by or expression.name in group_names
                    self._aggregate_items.append(
                        ("column", name, (extractor, valid, expression.name))
                    )
                    stream_specs.append(("column", source))
                else:
                    name = item.alias or expression.default_name()
                    if expression.argument is None:
                        if expression.function != "COUNT":
                            raise _sql_error(
                                f"{expression.function} requires a column argument"
                            )
                        extractor = None
                        stream_specs.append(("count_star", None))
                    else:
                        source = self._accessor(
                            positions[resolve_qualifier(expression.argument)],
                            expression.argument.name,
                        )
                        extractor = self._make_fn("lambda row: " + source)
                        stream_specs.append((expression.function.lower(), source))
                    self._aggregate_items.append(
                        ("aggregate", name, (expression.function, extractor))
                    )
        # Streaming-fold companions of ``_aggregate_items``: per-item
        # accumulator modes for the finalise pass, the first invalid plain
        # column (raised at execution, matching the interpreter), and the
        # code-generated first-row/fold functions with the accessors inlined
        # — a per-row interpretive dispatch loop loses to the materialised
        # path's builtin passes, inlining wins it back.
        self._stream_modes: List[str] = [mode for mode, _ in stream_specs]
        self._invalid_group_column: Optional[str] = None
        for kind, _name, spec in self._aggregate_items:
            if kind == "column":
                _extractor, valid, column_name = spec
                if not valid and self._invalid_group_column is None:
                    self._invalid_group_column = column_name
        self._new_state_fn, self._fold_fn = self._compile_stream_fold(stream_specs)

        # ORDER BY keys (non-aggregate path; aggregate ordering runs over the
        # small result dicts exactly like the interpreter).
        self._order_key_fns: List[Tuple[Callable, bool]] = []
        directions = set()
        if not self.is_aggregate:
            for order in statement.order_by:
                key_name = self._order_key_name(order, statement, [])
                expr: Optional[str] = None
                if key_name in projected_by_name:
                    pos, column = projected_by_name[key_name]
                    expr = self._accessor(pos, column)
                elif isinstance(order.expression, ColumnRef):
                    try:
                        qualifier = resolve_qualifier(order.expression)
                        expr = self._accessor(positions[qualifier], order.expression.name)
                    except Exception:
                        expr = None  # interpreter: unresolvable key -> NULL key
                if expr is None:
                    key_fn = self._make_fn("lambda row: (True, None)")
                else:
                    key_fn = self._make_fn(f"lambda row: ((_v := {expr}) is None, _v)")
                self._order_key_fns.append((key_fn, order.descending))
                directions.add(order.descending)
        self.topk_eligible = (
            not self.is_aggregate
            and bool(self._order_key_fns)
            and statement.limit is not None
            and len(directions) == 1
        )
        self._topk_key: Optional[Callable] = None
        if self.topk_eligible:
            if len(self._order_key_fns) == 1:
                self._topk_key = self._order_key_fns[0][0]
            else:
                fns = {f"_k{i}": fn for i, (fn, _) in enumerate(self._order_key_fns)}
                body = ", ".join(f"{name}(row)" for name in fns)
                self._topk_key = self._make_fn(f"lambda row: ({body})", dict(fns))

    def _compile_join_loop(
        self, terms: List[str], like_match: Callable
    ) -> Optional[Callable]:
        """Code-generate the fused join + filter loop of this plan.

        ``None`` when there is neither a join nor a filter to run.
        Otherwise ``_run(rows, bound)`` walks the base rows through every
        join step as nested straight-line code and returns ``(filtered,
        scanned, index_lookups)`` for the join and filter stages: the
        surviving execution rows (row dicts without joins, row tuples with
        them) in the interpreter's nested-loop order, plus the accounting of
        the join probes.  Each conjunct runs at its :attr:`conjunct_levels` level; a
        row rejected below the innermost level runs the count-only probe
        chain over the remaining (primary-key) steps before moving on.
        """
        steps = self.join_steps
        innermost = len(steps)
        if not steps and not terms:
            return None
        namespace: Dict[str, Any] = {"_cmp": self._compare, "_like": like_match}
        lines = [
            "def _run(rows, bound):",
            "    scanned = 0",
            "    lookups = 0",
            "    out = []",
            "    append = out.append",
        ]
        lines += [f"    b{i} = bound[{i}]" for i in range(len(self._residual_nodes))]
        for k, step in enumerate(steps, 1):
            namespace[f"_t{k}"] = step.table
            lines.append(f"    st{k} = _t{k}._rows")
            if step.is_pk_probe:
                lines.append(f"    pk{k} = _t{k}._pk_index.get")
            elif step.use_index:
                lines.append(f"    lk{k} = _t{k}.lookup_ids")
            elif step.lazy_index is not None:
                namespace[f"_x{k}"] = step.lazy_index
                lines.append(f"    bk{k} = _x{k}._buckets.get")
                lines.append(f"    n{k} = len(st{k})")
            else:
                lines.append(f"    sc{k} = list(st{k}.values())")
                lines.append(f"    n{k} = len(sc{k})")
        by_level: Dict[int, List[str]] = {}
        for term, level in zip(terms, self.conjunct_levels):
            by_level.setdefault(level, []).append(term)

        def probe(k: int) -> str:
            step = steps[k - 1]
            return f"r{step.old_pos}[{step.old_name!r}]"

        def emit_filter(level: int, pad: str) -> None:
            level_terms = by_level.get(level)
            if not level_terms:
                return
            test = " and ".join(f"({term})" for term in level_terms)
            lines.append(f"{pad}if not ({test}):")
            # Count-only chain: charge the PK probes the interpreter would
            # still have run for this rejected row, building no tuples.
            chain_pad = pad + "    "
            needed = {steps[j - 1].old_pos for j in range(level + 1, innermost + 1)}
            for k in range(level + 1, innermost + 1):
                lines.append(f"{chain_pad}lookups += 1")
                lines.append(f"{chain_pad}rid = pk{k}({probe(k)})")
                lines.append(f"{chain_pad}if rid is not None:")
                chain_pad += "    "
                lines.append(f"{chain_pad}scanned += 1")
                if k in needed:
                    lines.append(f"{chain_pad}r{k} = st{k}[rid]")
            lines.append(f"{pad}    continue")

        pad = "        "
        lines.append("    for r0 in rows:")
        emit_filter(0, pad)
        for k, step in enumerate(steps, 1):
            if step.is_pk_probe:
                # At most one match: the interpreter's one-element set copy
                # (and its iteration order) without allocating it.
                lines.append(f"{pad}rid = pk{k}({probe(k)})")
                lines.append(f"{pad}lookups += 1")
                lines.append(f"{pad}if rid is None:")
                lines.append(f"{pad}    continue")
                lines.append(f"{pad}scanned += 1")
                lines.append(f"{pad}r{k} = st{k}[rid]")
            elif step.use_index:
                lines.append(f"{pad}ids{k} = lk{k}({step.new_name!r}, {probe(k)})")
                lines.append(f"{pad}lookups += 1")
                lines.append(f"{pad}scanned += len(ids{k})")
                lines.append(f"{pad}for rid in ids{k}:")
                pad += "    "
                lines.append(f"{pad}r{k} = st{k}[rid]")
            elif step.lazy_index is not None:
                # Physically probe the lazy hash index; charge the full scan
                # and keep its row order (ascending row id).
                lines.append(f"{pad}v{k} = {probe(k)}")
                lines.append(f"{pad}scanned += n{k}")
                lines.append(f"{pad}if v{k} != v{k}:  # NaN: a scan's == matches nothing")
                lines.append(f"{pad}    continue")
                lines.append(f"{pad}for rid in sorted(bk{k}(v{k}, ())):")
                pad += "    "
                lines.append(f"{pad}r{k} = st{k}[rid]")
            else:
                # Join column missing from the table: reproduce the
                # interpreter's ``row.get`` scan literally.
                lines.append(f"{pad}v{k} = {probe(k)}")
                lines.append(f"{pad}scanned += n{k}")
                lines.append(f"{pad}for r{k} in sc{k}:")
                pad += "    "
                lines.append(f"{pad}if not (r{k}.get({step.new_name!r}) == v{k}):")
                lines.append(f"{pad}    continue")
            emit_filter(k, pad)
        row = f"({', '.join(f'r{k}' for k in range(innermost + 1))})" if steps else "r0"
        lines.append(f"{pad}append({row})")
        lines.append("    return out, scanned, lookups")
        exec("\n".join(lines), namespace)
        return namespace["_run"]

    # ------------------------------------------------------------------ #
    # Validity
    # ------------------------------------------------------------------ #
    def is_valid(self, database) -> bool:
        """Whether the compiled plan still matches the database schema."""
        if database._schema_epoch != self.schema_epoch:
            return False
        for table, version in self.table_versions:
            if table.schema_version != version:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, params: Sequence[Any]) -> Tuple[List[Dict[str, Any]], int, int]:
        """Run the plan; returns ``(result_rows, rows_scanned, index_lookups)``."""
        statement = self.statement
        bind = self._bind
        base_table = self.base_table
        index_lookups = 0

        # ---- base rows ------------------------------------------------ #
        rows: List[Dict[str, Any]]
        if self.index_conditions:
            # Declared-index pruning, verbatim interpreter semantics (set
            # copies + set.intersection keep the exact candidate order).
            row_id_sets = []
            for column_name, rhs_node in self.index_conditions:
                row_id_sets.append(base_table.lookup_ids(column_name, bind(rhs_node, params)))
                index_lookups += 1
            row_ids = set.intersection(*row_id_sets)
            stored = base_table._rows
            rows = [stored[rid] for rid in row_ids]
            scanned = len(rows)
        elif self.lazy_base_lookups:
            # Physically probe the lazy hash index; charge the scan the
            # interpreter would have paid and keep its row order (ascending
            # row id == insertion order == scan order).
            ids: Optional[Set[int]] = None
            for index, rhs_node in self.lazy_base_lookups:
                value = bind(rhs_node, params)
                if value != value:  # NaN probe: a scan's ``==`` matches nothing
                    ids = set()
                    break
                bucket = index.lookup(value)
                ids = bucket if ids is None else (ids & bucket)
            stored = base_table._rows
            rows = [stored[rid] for rid in sorted(ids or ())]
            scanned = len(base_table)
        else:
            rows = list(base_table._rows.values())
            scanned = len(rows)

        # ---- fused joins + residual filter ---------------------------- #
        run = self._run
        if run is None:
            # No joins and no filter left (any node-bearing equalities were
            # consumed, and therefore bound, by the lazy base lookups).
            filtered = rows
        else:
            # Binding covers every residual rhs node (missing-parameter
            # errors surface exactly like the interpreter's, even for
            # conditions the lazy index lookups already consumed).
            bound = [bind(node, params) for node in self._residual_nodes]
            filtered, join_scanned, join_lookups = run(rows, bound)
            scanned += join_scanned
            index_lookups += join_lookups

        # ---- aggregate pipeline --------------------------------------- #
        if self.is_aggregate:
            result_rows = self._aggregate_rows(filtered)
            for order in reversed(statement.order_by):
                key_name = self._order_key_name(order, statement, result_rows)
                result_rows.sort(
                    key=lambda row: (row.get(key_name) is None, row.get(key_name)),
                    reverse=order.descending,
                )
            if statement.limit is not None:
                result_rows = result_rows[: statement.limit]
            return result_rows, scanned, index_lookups

        # ---- ORDER BY / LIMIT ----------------------------------------- #
        if self._topk_key is not None:
            select = heapq.nlargest if self._order_key_fns[0][1] else heapq.nsmallest
            selected = select(statement.limit, filtered, key=self._topk_key)
        elif self._order_key_fns:
            # Interpreter-faithful multi-pass stable sort (handles mixed
            # ASC/DESC).
            selected = list(filtered)
            for key_fn, descending in reversed(self._order_key_fns):
                selected.sort(key=key_fn, reverse=descending)
            if statement.limit is not None:
                selected = selected[: statement.limit]
        elif statement.limit is not None:
            selected = filtered[: statement.limit]
        else:
            selected = filtered

        # ---- projection (only surviving rows) ------------------------- #
        project = self._project
        return [project(row) for row in selected], scanned, index_lookups

    # ------------------------------------------------------------------ #
    def _aggregate_rows(self, filtered: List[Any]) -> List[Dict[str, Any]]:
        """GROUP BY + aggregate evaluation over the filtered rows.

        Streams by default (:data:`STREAMING_AGGREGATES`): one fold pass
        maintaining per-group accumulators instead of materialising a member
        list per group.  Result rows, their order (first-seen group order)
        and every error are identical to the materialised evaluation, which
        is preserved for A/B benchmarking.
        """
        if STREAMING_AGGREGATES:
            return self._aggregate_rows_streaming(filtered)
        return self._aggregate_rows_materialized(filtered)

    def _aggregate_rows_streaming(self, filtered: List[Any]) -> List[Dict[str, Any]]:
        group_key = self._group_key
        # The materialised path raises for a non-grouped plain column while
        # building the first group's result row — i.e. whenever at least one
        # group exists (always, without GROUP BY: the implicit ``()`` group).
        if self._invalid_group_column is not None and (group_key is None or filtered):
            raise _sql_error(
                f"column {self._invalid_group_column!r} must appear in GROUP BY"
            )
        new_state = self._new_state_fn
        fold = self._fold_fn
        states: Dict[Tuple, List[Any]] = {}
        if group_key is not None:
            get = states.get
            for row in filtered:
                key = group_key(row)
                state = get(key)
                if state is None:
                    states[key] = new_state(row)
                else:
                    fold(state, row)
        else:
            state = None
            for row in filtered:
                if state is None:
                    state = new_state(row)
                else:
                    fold(state, row)
            states[()] = state if state is not None else self._empty_group_state()

        result: List[Dict[str, Any]] = []
        names = [name for _, name, _ in self._aggregate_items]
        for state in states.values():
            out: Dict[str, Any] = {}
            for index, mode in enumerate(self._stream_modes):
                value = state[index]
                if mode == "sum":
                    out[names[index]] = value[0] if value[1] else None
                elif mode == "avg":
                    out[names[index]] = value[0] / value[1] if value[1] else None
                else:  # column / count_star / count / min / max
                    out[names[index]] = value
            result.append(out)
        return result

    @staticmethod
    def _compile_stream_fold(
        specs: List[Tuple[str, Optional[str]]]
    ) -> Tuple[Callable, Callable]:
        """Code-generate the streaming accumulators for one statement.

        ``_new_state`` builds a group's accumulator list from its first row,
        ``_fold`` folds one more member row in place.  Each item's column
        accessor is inlined into the generated source (the same technique as
        the compiled projection/filter lambdas), so the per-row cost is a
        single function call rather than a dispatch loop over item modes.
        """
        new_lines = ["def _new_state(row):", "    state = []"]
        fold_lines = ["def _fold(state, row):"]
        for index, (mode, source) in enumerate(specs):
            if mode == "column":
                # Captured from the first row only; never folded again.
                new_lines.append(f"    state.append({source})")
            elif mode == "count_star":
                new_lines.append("    state.append(1)")
                fold_lines.append(f"    state[{index}] += 1")
            elif mode == "count":
                new_lines.append(f"    state.append(1 if {source} is not None else 0)")
                fold_lines.append(f"    if {source} is not None:")
                fold_lines.append(f"        state[{index}] += 1")
            elif mode in ("sum", "avg"):
                # ``0 + value`` reproduces ``sum([value])`` exactly (the
                # int-0 start matters for mixed numeric types).
                new_lines.append(f"    v{index} = {source}")
                new_lines.append(
                    f"    state.append([0 + v{index}, 1] if v{index} is not None"
                    " else [0, 0])"
                )
                fold_lines.append(f"    v{index} = {source}")
                fold_lines.append(f"    if v{index} is not None:")
                fold_lines.append(f"        s{index} = state[{index}]")
                fold_lines.append(f"        s{index}[0] = s{index}[0] + v{index}")
                fold_lines.append(f"        s{index}[1] += 1")
            elif mode in ("min", "max"):
                # ``value < current`` mirrors ``min()``'s comparison order.
                operator = "<" if mode == "min" else ">"
                new_lines.append(f"    state.append({source})")
                fold_lines.append(f"    v{index} = {source}")
                fold_lines.append(f"    if v{index} is not None:")
                fold_lines.append(f"        c{index} = state[{index}]")
                fold_lines.append(
                    f"        if c{index} is None or v{index} {operator} c{index}:"
                )
                fold_lines.append(f"            state[{index}] = v{index}")
            else:  # pragma: no cover - parser admits only the modes above
                raise _sql_error(f"unsupported aggregate {mode.upper()!r}")
        new_lines.append("    return state")
        if len(fold_lines) == 1:
            fold_lines.append("    pass")
        namespace: Dict[str, Any] = {}
        exec("\n".join(new_lines + fold_lines), namespace)
        return namespace["_new_state"], namespace["_fold"]

    def _empty_group_state(self) -> List[Any]:
        """Accumulator slots of the implicit empty group (no GROUP BY)."""
        state: List[Any] = []
        for mode in self._stream_modes:
            if mode in ("count_star", "count"):
                state.append(0)
            elif mode in ("sum", "avg"):
                state.append([0, 0])
            else:  # column / min / max over no rows
                state.append(None)
        return state

    def _aggregate_rows_materialized(self, filtered: List[Any]) -> List[Dict[str, Any]]:
        group_key = self._group_key
        groups: Dict[Tuple, List[Any]] = {}
        if group_key is not None:
            setdefault = groups.setdefault
            for row in filtered:
                setdefault(group_key(row), []).append(row)
        else:
            # No GROUP BY: one global group (the interpreter's implicit
            # ``groups[()] = []`` for the empty case included).
            groups[()] = filtered

        result: List[Dict[str, Any]] = []
        for members in groups.values():
            out: Dict[str, Any] = {}
            for kind, name, spec in self._aggregate_items:
                if kind == "column":
                    extractor, valid, column_name = spec
                    if not valid:
                        raise _sql_error(
                            f"column {column_name!r} must appear in GROUP BY"
                        )
                    out[name] = extractor(members[0]) if members else None
                else:
                    function, extractor = spec
                    out[name] = self._evaluate_aggregate(function, extractor, members)
            result.append(out)
        return result

    def _evaluate_aggregate(
        self, function: str, extractor: Optional[Callable], members: List[Any]
    ) -> Any:
        if extractor is None:  # COUNT(*)
            return len(members)
        if function == "COUNT":
            return sum(1 for member in members if extractor(member) is not None)
        values = [
            value for value in (extractor(member) for member in members) if value is not None
        ]
        if not values:
            return None
        if function == "SUM":
            return sum(values)
        if function == "AVG":
            return sum(values) / len(values)
        if function == "MIN":
            return min(values)
        if function == "MAX":
            return max(values)
        raise _sql_error(f"unsupported aggregate {function!r}")  # pragma: no cover


def compile_select(database, statement: SelectStatement) -> CompiledSelect:
    """Compile ``statement`` against ``database``'s current schema."""
    return CompiledSelect(database, statement)
