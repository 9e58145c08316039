"""Interactive-analytics workloads of Table I: the ten SQL operators.

Each workload builds its logical plan over the BDGS e-commerce tables and
runs it through Hive (→ MapReduce jobs, the ``H-`` variant) or Shark
(→ RDD lineage, the ``S-`` variant).  Every run is verified against the
reference interpreter before the trace is returned.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import lru_cache

from repro.datagen import Bdgs
from repro.stacks.hive import HiveStack
from repro.stacks.instrument import CharacterHints
from repro.stacks.shark import SharkStack
from repro.stacks.sql.interpreter import execute
from repro.stacks.sql.plan import (
    AggFunc,
    Aggregate,
    AggSpec,
    CompareOp,
    Comparison,
    CrossProduct,
    Difference,
    Filter,
    Join,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    Union,
)
from repro.stacks.sql.schema import Relation, Schema
from repro.workloads.base import (
    Category,
    DataType,
    RunContext,
    StackFamily,
    Workload,
    WorkloadRun,
)

__all__ = ["SQL_WORKLOADS", "build_tables", "QUERIES"]

_ITEM_ROWS = 2200
_ORDER_ROWS = 700
_CROSS_SIDE = 90  # cross products square their input; keep sides modest

ITEM_SCHEMA = Schema(("item_id", "order_id", "goods_id", "category", "quantity", "price"))
ORDER_SCHEMA = Schema(("order_id", "buyer_id", "date"))


@lru_cache(maxsize=4)
def _warehouse_rows(
    seed: int, n_orders: int, n_items: int
) -> tuple[tuple[tuple, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """Row tuples of ``build_tables``'s three relations, built once per
    process (a pure function of its arguments: a fresh ``Bdgs`` draws
    them in a fixed order)."""
    bdgs = Bdgs(seed=seed)
    orders = bdgs.orders(n_orders)
    items = bdgs.order_items(n_items, num_orders=n_orders)
    # item_b shares a prefix of item rows (overlap) plus fresh rows.
    overlap = items[: n_items // 2]
    fresh = bdgs.order_items(n_items // 2, num_orders=n_orders, id_offset=10_000_000)
    item_rows = tuple(
        (i.item_id, i.order_id, i.goods_id, i.category, i.quantity, i.price)
        for i in items
    )
    item_b_rows = tuple(
        (i.item_id, i.order_id, i.goods_id, i.category, i.quantity, i.price)
        for i in overlap + fresh
    )
    order_rows = tuple((o.order_id, o.buyer_id, o.date) for o in orders)
    return item_rows, item_b_rows, order_rows


def build_tables(context: RunContext) -> dict[str, Relation]:
    """The e-commerce warehouse: ORDER, ORDER_ITEM and a second item
    table (overlapping rows) for Union/Difference workloads.

    Every call returns fresh relations and row lists over the shared,
    immutable row tuples, so one caller's edits never reach the next.
    """
    item_rows, item_b_rows, order_rows = _warehouse_rows(
        context.seed, context.records(_ORDER_ROWS), context.records(_ITEM_ROWS)
    )
    return {
        "item": Relation("item", ITEM_SCHEMA, list(item_rows)),
        "item_b": Relation("item_b", ITEM_SCHEMA, list(item_b_rows)),
        "orders": Relation("orders", ORDER_SCHEMA, list(order_rows)),
    }


@lru_cache(maxsize=4)
def _cross_rows(seed: int, side: int) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    bdgs = Bdgs(seed=seed)
    orders = bdgs.orders(side)
    items = bdgs.order_items(side, num_orders=side)
    return (
        tuple((o.order_id,) for o in orders),
        tuple((i.goods_id,) for i in items),
    )


def _cross_tables(context: RunContext) -> dict[str, Relation]:
    """Small single-column tables for the cross-product workload."""
    order_ids, goods_ids = _cross_rows(context.seed, context.records(_CROSS_SIDE))
    return {
        "order_ids": Relation("order_ids", Schema(("order_id",)), list(order_ids)),
        "goods_ids": Relation("goods_ids", Schema(("goods_id",)), list(goods_ids)),
    }


#: Query catalog: workload name -> (plan builder, table builder, ordered?).
QUERIES: dict[str, tuple[Callable[[], PlanNode], Callable[[RunContext], dict], bool]] = {
    "Projection": (
        lambda: Project(Scan("item"), ("order_id", "goods_id")),
        build_tables,
        False,
    ),
    "Filter": (
        lambda: Filter(Scan("item"), (Comparison("category", CompareOp.EQ, "books"),)),
        build_tables,
        False,
    ),
    "OrderBy": (
        lambda: OrderBy(Scan("item"), ("price", "item_id")),
        build_tables,
        True,
    ),
    "CrossProduct": (
        lambda: CrossProduct(Scan("order_ids"), Scan("goods_ids")),
        _cross_tables,
        False,
    ),
    "Union": (
        lambda: Union(Scan("item"), Scan("item_b")),
        build_tables,
        False,
    ),
    "Difference": (
        lambda: Difference(Scan("item"), Scan("item_b")),
        build_tables,
        False,
    ),
    "Aggregation": (
        lambda: Aggregate(
            Scan("item"),
            ("goods_id",),
            (
                AggSpec(AggFunc.SUM, "price", "revenue"),
                AggSpec(AggFunc.COUNT, None, "n_items"),
            ),
        ),
        build_tables,
        False,
    ),
    "JoinQuery": (
        lambda: Join(Scan("orders"), Scan("item"), "order_id", "order_id"),
        build_tables,
        False,
    ),
    "AggQuery": (
        lambda: Aggregate(
            Filter(Scan("item"), (Comparison("quantity", CompareOp.GE, 2),)),
            ("category",),
            (
                AggSpec(AggFunc.AVG, "price", "avg_price"),
                AggSpec(AggFunc.MAX, "price", "max_price"),
            ),
        ),
        build_tables,
        False,
    ),
    "SelectQuery": (
        lambda: Project(
            Filter(Scan("item"), (Comparison("price", CompareOp.GT, 20.0),)),
            ("goods_id", "price"),
        ),
        build_tables,
        False,
    ),
}


def _run_sql(
    algorithm: str, family: StackFamily, context: RunContext
) -> WorkloadRun:
    plan_builder, table_builder, ordered = QUERIES[algorithm]
    tables = table_builder(context)
    plan = plan_builder()
    reference = execute(plan, tables)

    if family is StackFamily.HADOOP:
        stack = HiveStack()
        trace = stack.new_trace(f"H-{algorithm}")
    else:
        stack = SharkStack()
        trace = stack.new_trace(f"S-{algorithm}")
    for relation in tables.values():
        stack.create_table(relation)
    result = stack.run_query(plan, trace)

    if ordered:
        correct = result.rows == reference.rows
    else:
        correct = Counter(result.rows) == Counter(reference.rows)
    return WorkloadRun(
        trace=trace,
        output_records=len(result.rows),
        checks={"matches_reference": float(correct)},
    )


def _make_runner(algorithm: str, family: StackFamily):
    def runner(context: RunContext) -> WorkloadRun:
        return _run_sql(algorithm, family, context)

    return runner


#: Declared Table I problem sizes for the interactive workloads.
_DECLARED = {
    "Projection": "420 million records",
    "Filter": "420 million records",
    "OrderBy": "420 million records",
    "CrossProduct": "100 million records",
    "Union": "420 million records",
    "Difference": "100 million records",
    "Aggregation": "420 million records",
    "JoinQuery": "100 million records",
    "AggQuery": "420 million records",
    "SelectQuery": "420 million records",
}

#: Algorithm-character hints: scans are predictable; sorts/joins branchy.
_SQL_HINTS = {
    "Projection": CharacterHints(branch_entropy_shift=-0.05),
    "Filter": CharacterHints(branch_entropy_shift=0.04),
    "OrderBy": CharacterHints(branch_entropy_shift=0.12),
    "CrossProduct": CharacterHints(integer_shift=0.03),
    "Union": CharacterHints(branch_entropy_shift=-0.03),
    "Difference": CharacterHints(integer_shift=0.05, branch_entropy_shift=0.05),
    "Aggregation": CharacterHints(integer_shift=0.05, fp_sse=0.03),
    "JoinQuery": CharacterHints(integer_shift=0.06, branch_entropy_shift=0.06),
    "AggQuery": CharacterHints(integer_shift=0.04, fp_sse=0.05),
    "SelectQuery": CharacterHints(branch_entropy_shift=0.02),
}


#: ~100 bytes per e-commerce transaction record.
_BYTES_PER_RECORD = 100


def _declared_bytes(algorithm: str) -> int:
    millions = 100 if "100 million" in _DECLARED[algorithm] else 420
    return millions * 1_000_000 * _BYTES_PER_RECORD


SQL_WORKLOADS: tuple[Workload, ...] = tuple(
    Workload(
        algorithm=algorithm,
        family=family,
        category=Category.INTERACTIVE_ANALYTICS,
        data_type=DataType.STRUCTURED,
        declared_size=_DECLARED[algorithm],
        declared_bytes=_declared_bytes(algorithm),
        runner=_make_runner(algorithm, family),
        hints=_SQL_HINTS[algorithm],
    )
    for algorithm in QUERIES
    for family in (StackFamily.HADOOP, StackFamily.SPARK)
)
