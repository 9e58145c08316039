"""Shark: compiles logical SQL plans into RDD lineages.

"Shark operations are interpreted in Spark jobs" (Section III-A).  Base
tables are cached in executor memory on first use (Shark's in-memory
columnar tables), so repeated queries scan shared heap data instead of
HDFS — the behaviour behind the Spark family's larger data footprints
and inter-core sharing.
"""

from __future__ import annotations

from repro.errors import StackExecutionError
from repro.stacks.base import ExecutionTrace, StackInfo
from repro.stacks.hdfs import Hdfs
from repro.stacks.rdd import RDD, SizedPartitions
from repro.stacks.spark import SparkEngine
from repro.stacks.sql.aggregates import finalize_state, init_state, merge_states, update_state
from repro.stacks.sql.plan import (
    Aggregate,
    CrossProduct,
    Difference,
    Filter,
    Join,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    Union,
    output_schema,
)
from repro.stacks.sql.schema import Relation, Schema

__all__ = ["SHARK_0_8_0", "SharkStack"]

_MB = 1 << 20

#: Shark 0.8.0 over Spark 0.8.1 — the Spark-family stack of Table I.
SHARK_0_8_0 = StackInfo(
    name="shark",
    source_bytes=11 * _MB + 3 * _MB,  # Spark core plus the Shark layer
    hot_code_bytes=int(1.4 * _MB),
    tasks_share_process=True,
    jvm_uops_factor=1.32,
    kernel_io_weight=0.45,
)


class SharkStack:
    """SQL front end over a :class:`SparkEngine` with in-memory tables."""

    info = SHARK_0_8_0

    def __init__(self, engine: SparkEngine | None = None, hdfs: Hdfs | None = None) -> None:
        self.engine = engine or SparkEngine()
        self.hdfs = hdfs or Hdfs()
        self._schemas: dict[str, Schema] = {}
        self._table_rdds: dict[str, RDD] = {}

    def new_trace(self, workload: str) -> ExecutionTrace:
        return ExecutionTrace(self.info, workload)

    def create_table(self, relation: Relation) -> None:
        """Register ``relation``; rows land in HDFS, the RDD is cached.

        Raises:
            StackExecutionError: If the table already exists.
        """
        if relation.name in self._schemas:
            raise StackExecutionError(f"table already exists: {relation.name}")
        path = f"/warehouse/{relation.name}"
        self.hdfs.put(path, list(relation.rows))
        self._schemas[relation.name] = relation.schema
        self._table_rdds[relation.name] = self.engine.from_hdfs(self.hdfs, path).cache()

    def run_query(self, plan: PlanNode, trace: ExecutionTrace) -> Relation:
        """Compile ``plan`` to an RDD lineage, run it, return the result."""
        schema, rdd = self._compile(plan)
        rows = [tuple(row) for row in rdd.collect(trace)]
        return Relation(name="shark-result", schema=schema, rows=rows)

    # ------------------------------------------------------------------

    def _compile(self, node: PlanNode) -> tuple[Schema, RDD]:
        if isinstance(node, Scan):
            if node.table not in self._schemas:
                raise StackExecutionError(f"unknown table {node.table!r}")
            return self._schemas[node.table], self._table_rdds[node.table]

        if isinstance(node, Project):
            schema, rdd = self._compile(node.child)
            out_schema = schema.project(node.columns)
            indices = tuple(schema.index(c) for c in node.columns)
            return out_schema, rdd.map(lambda row, idx=indices: tuple(row[i] for i in idx))

        if isinstance(node, Filter):
            schema, rdd = self._compile(node.child)
            predicates = tuple(c.compile(schema) for c in node.conditions)
            return schema, rdd.filter(lambda row, ps=predicates: all(p(row) for p in ps))

        if isinstance(node, Union):
            left_schema, left = self._compile(node.left)
            right_schema, right = self._compile(node.right)
            if left_schema != right_schema:
                raise StackExecutionError("Union inputs must have identical schemas")
            return left_schema, left.union(right)

        if isinstance(node, OrderBy):
            schema, rdd = self._compile(node.child)
            indices = tuple(schema.index(k) for k in node.keys)
            sorted_rdd = rdd.sort_by(lambda row, idx=indices: tuple(row[i] for i in idx))
            if node.descending:
                # Range partitions are ascending; a descending total order
                # is produced by reversing the collected output, which the
                # driver does cheaply.  Model it as a map-level no-op here
                # and let ``run_query`` keep partition order.
                return schema, _ReversedRDD(sorted_rdd)
            return schema, sorted_rdd

        if isinstance(node, Aggregate):
            schema, rdd = self._compile(node.child)
            group_idx = tuple(schema.index(c) for c in node.group_by)
            agg_idx = tuple(
                schema.index(a.column) if a.column is not None else -1
                for a in node.aggregates
            )
            funcs = tuple(a.func for a in node.aggregates)

            def to_partial(row, gi=group_idx, ai=agg_idx, fs=funcs):
                key = tuple(row[i] for i in gi)
                states = tuple(
                    update_state(f, init_state(f), row[i] if i >= 0 else None)
                    for f, i in zip(fs, ai)
                )
                return (key, states)

            def merge(a, b, fs=funcs):
                return tuple(merge_states(f, x, y) for f, x, y in zip(fs, a, b))

            def finalize(kv, fs=funcs):
                key, states = kv
                return key + tuple(finalize_state(f, s) for f, s in zip(fs, states))

            out_schema = Schema(
                tuple(node.group_by) + tuple(a.alias for a in node.aggregates)
            )
            return out_schema, rdd.map(to_partial).reduce_by_key(merge).map(finalize)

        if isinstance(node, Join):
            left_schema, left = self._compile(node.left)
            right_schema, right = self._compile(node.right)
            li = left_schema.index(node.left_key)
            ri = right_schema.index(node.right_key)
            pairs = (
                left.map(lambda row, i=li: (row[i], row))
                .join(right.map(lambda row, i=ri: (row[i], row)))
                .map(lambda kv: kv[1][0] + kv[1][1])
            )
            return left_schema.concat(right_schema), pairs

        if isinstance(node, CrossProduct):
            left_schema, left = self._compile(node.left)
            right_schema, right = self._compile(node.right)
            product = left.cartesian(right).map(lambda ab: ab[0] + ab[1])
            return left_schema.concat(right_schema), product

        if isinstance(node, Difference):
            left_schema, left = self._compile(node.left)
            right_schema, right = self._compile(node.right)
            if left_schema != right_schema:
                raise StackExecutionError("Difference inputs must have identical schemas")
            return left_schema, left.subtract(right)

        raise StackExecutionError(f"Shark cannot compile node: {type(node).__name__}")


class _ReversedRDD(RDD):
    """Reverses the global order of a sorted parent (driver-side cheap)."""

    def __init__(self, parent: RDD) -> None:
        super().__init__(parent.engine, parent.num_partitions)
        self._parent = parent

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        parents, sizes = self.engine.compute(self._parent, trace)
        return [list(reversed(p)) for p in reversed(parents)], sizes[::-1]
