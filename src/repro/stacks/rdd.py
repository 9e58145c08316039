"""Resilient Distributed Datasets: a working miniature Spark core.

Implements the RDD programming model of Spark 0.8: lazy transformations
building a lineage DAG, with actions triggering recursive computation.
Narrow transformations (map, filter, union) operate per partition; wide
transformations (reduceByKey, groupByKey, sortBy, join, cartesian)
introduce shuffle boundaries with hash or range partitioning and optional
map-side combining — the same execution structure that makes Spark's
microarchitectural behaviour what it is.  ``cache()`` pins computed
partitions in executor memory, so iterative algorithms (PageRank,
K-means) recompute nothing, while the instrumentation layer sees large
in-memory shared data instead of disk traffic.

Every computation emits phase records (STAGE / SHUFFLE_WRITE /
SHUFFLE_READ / CACHE_BUILD / CACHE_SCAN) into the active
:class:`~repro.stacks.base.ExecutionTrace`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Callable, Iterable

from repro.errors import StackExecutionError
from repro.faults.recovery import run_task
from repro.stacks.base import ExecutionTrace, PhaseKind, estimate_bytes, stable_hash
from repro.stacks.hdfs import Hdfs

__all__ = ["RDD", "SizedPartitions", "SparkContextLike"]

_rdd_ids = itertools.count(1)


def _partition_bytes(partition: list) -> int:
    return sum(map(estimate_bytes, partition))


#: Computed partitions with each partition's byte size, sized once where
#: the partition was made and carried to every consumer.
SizedPartitions = tuple[list[list], list[int]]


class SparkContextLike:
    """Minimal protocol the engine must satisfy (see ``spark.SparkEngine``)."""

    num_workers: int
    default_parallelism: int

    def compute(self, rdd: "RDD", trace: ExecutionTrace) -> SizedPartitions:
        raise NotImplementedError


class RDD:
    """Base class: a lazy, partitioned, immutable dataset with lineage."""

    def __init__(self, engine: SparkContextLike, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise StackExecutionError("an RDD needs at least one partition")
        self.engine = engine
        self.num_partitions = num_partitions
        self.rdd_id = next(_rdd_ids)
        self.cached = False

    # -- lineage (subclasses implement) ----------------------------------

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        """Compute all partitions and their byte sizes (no caching — use
        ``engine.compute``)."""
        raise NotImplementedError

    def _run_tasks(
        self, trace: ExecutionTrace, name: str, body, inputs, *, reads_hdfs: bool = False
    ) -> SizedPartitions:
        """One task per partition: ``body(recorder, worker, *args)`` for
        each ``args`` of ``inputs``, in partition order; each returns its
        ``(partition, size)``."""
        partitions: list[list] = []
        sizes: list[int] = []
        for index, args in enumerate(inputs):
            partition, size = self._run_task(
                trace,
                name,
                index,
                lambda recorder, worker, args=args: body(recorder, worker, *args),
                reads_hdfs=reads_hdfs,
            )
            partitions.append(partition)
            sizes.append(size)
        return partitions, sizes

    def preferred_worker(self, partition: int) -> int:
        """Worker slot a partition's task prefers (default round-robin)."""
        return partition % max(1, self.engine.num_workers)

    def _run_task(self, trace: ExecutionTrace, name: str, partition: int, body, *, reads_hdfs: bool = False):
        """Run one partition task through the fault-recovery boundary."""
        return run_task(
            trace,
            name,
            self.preferred_worker(partition),
            body,
            reads_hdfs=reads_hdfs,
            num_nodes=self.engine.num_workers,
        )

    # -- transformations ---------------------------------------------------

    def map(self, fn: Callable) -> "RDD":
        """Element-wise transformation (narrow)."""
        return _NarrowRDD(self, "map", lambda part: [fn(record) for record in part])

    def flat_map(self, fn: Callable) -> "RDD":
        """Element-to-many transformation (narrow)."""
        return _NarrowRDD(
            self, "flatMap", lambda part: [item for record in part for item in fn(record)]
        )

    def filter(self, predicate: Callable) -> "RDD":
        """Keep elements satisfying ``predicate`` (narrow)."""
        return _NarrowRDD(
            self, "filter", lambda part: [record for record in part if predicate(record)]
        )

    def map_partitions(self, fn: Callable[[list], Iterable]) -> "RDD":
        """Partition-at-a-time transformation (narrow)."""
        return _NarrowRDD(self, "mapPartitions", lambda part: list(fn(part)))

    def union(self, other: "RDD") -> "RDD":
        """Bag union (UNION ALL): concatenates partitions, no shuffle."""
        return _UnionRDD(self, other)

    def distinct(self) -> "RDD":
        """Deduplicate elements (wide: shuffles by element)."""
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a)
            .map(lambda kv: kv[0])
        )

    def reduce_by_key(self, fn: Callable, num_partitions: int | None = None) -> "RDD":
        """Combine pair values per key (wide, with map-side combine)."""
        return _ShuffledRDD(
            self,
            num_partitions or self.engine.default_parallelism,
            combiner=fn,
            map_side_combine=True,
        )

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        """Group pair values per key into lists (wide, no combine)."""
        return _ShuffledRDD(
            self,
            num_partitions or self.engine.default_parallelism,
            combiner=None,
            map_side_combine=False,
        )

    def sort_by(self, key_fn: Callable, num_partitions: int | None = None) -> "RDD":
        """Total ordering via range partitioning + per-partition sorts."""
        return _SortedRDD(self, key_fn, num_partitions or self.engine.default_parallelism)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join of two pair RDDs: ``(k, (v_self, v_other))``."""
        return _CoGroupedRDD(
            self,
            other,
            num_partitions or self.engine.default_parallelism,
            mode="join",
        )

    def subtract(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Elements of ``self`` absent from ``other`` (set difference)."""
        left = self.map(lambda x: (x, None))
        right = other.map(lambda x: (x, None))
        return _CoGroupedRDD(
            left,
            right,
            num_partitions or self.engine.default_parallelism,
            mode="subtract",
        )

    def cartesian(self, other: "RDD") -> "RDD":
        """Cross product of two RDDs (wide in data volume, not in shuffle)."""
        return _CartesianRDD(self, other)

    def map_values(self, fn: Callable) -> "RDD":
        """Transform pair values, preserving keys (narrow)."""
        return _NarrowRDD(
            self, "mapValues", lambda part: [(kv[0], fn(kv[1])) for kv in part]
        )

    def keys(self) -> "RDD":
        """The keys of a pair RDD (narrow)."""
        return _NarrowRDD(self, "keys", lambda part: [kv[0] for kv in part])

    def values(self) -> "RDD":
        """The values of a pair RDD (narrow)."""
        return _NarrowRDD(self, "values", lambda part: [kv[1] for kv in part])

    def cache(self) -> "RDD":
        """Pin computed partitions in executor memory."""
        self.cached = True
        return self

    # -- actions -----------------------------------------------------------

    def collect(self, trace: ExecutionTrace) -> list:
        """Materialise all elements on the driver."""
        partitions, sizes = self.engine.compute(self, trace)
        result = [record for partition in partitions for record in partition]
        trace.emit(
            PhaseKind.DRIVER,
            "collect",
            worker=-1,
            records_in=len(result),
            bytes_in=sum(sizes),
        )
        return result

    def count(self, trace: ExecutionTrace) -> int:
        """Number of elements."""
        partitions, _sizes = self.engine.compute(self, trace)
        total = sum(len(partition) for partition in partitions)
        trace.emit(PhaseKind.DRIVER, "count", worker=-1, records_in=total, bytes_in=0)
        return total

    def take(self, n: int, trace: ExecutionTrace) -> list:
        """The first ``n`` elements in partition order.

        Raises:
            StackExecutionError: If ``n`` is negative.
        """
        if n < 0:
            raise StackExecutionError("take(n) needs a non-negative n")
        partitions, _sizes = self.engine.compute(self, trace)
        taken: list = []
        for partition in partitions:
            for record in partition:
                if len(taken) == n:
                    return taken
                taken.append(record)
        return taken

    def first(self, trace: ExecutionTrace):
        """The first element.

        Raises:
            StackExecutionError: If the RDD is empty.
        """
        taken = self.take(1, trace)
        if not taken:
            raise StackExecutionError("first() of an empty RDD")
        return taken[0]

    def reduce(self, fn: Callable, trace: ExecutionTrace):
        """Fold all elements with ``fn``.

        Raises:
            StackExecutionError: If the RDD is empty.
        """
        values = self.collect(trace)
        if not values:
            raise StackExecutionError("reduce of an empty RDD")
        accumulator = values[0]
        for value in values[1:]:
            accumulator = fn(accumulator, value)
        return accumulator


class _SourceRDD(RDD):
    """Partitions supplied directly (``parallelize``)."""

    def __init__(self, engine: SparkContextLike, partitions: list[list]) -> None:
        super().__init__(engine, max(1, len(partitions)))
        self._partitions = [list(p) for p in partitions] or [[]]

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        def body(recorder, worker, partition):
            size = _partition_bytes(partition)
            recorder.emit(
                PhaseKind.STAGE,
                "scan:parallelize",
                worker=worker,
                records_in=len(partition),
                bytes_in=size,
                records_out=len(partition),
                bytes_out=size,
            )
            return list(partition), size

        return self._run_tasks(
            trace, "scan:parallelize", body, ((p,) for p in self._partitions)
        )


class _HdfsRDD(RDD):
    """One partition per HDFS block, scheduled with data locality."""

    def __init__(self, engine: SparkContextLike, hdfs: Hdfs, path: str) -> None:
        self._blocks = hdfs.blocks(path)
        super().__init__(engine, max(1, len(self._blocks)))
        self._path = path

    def preferred_worker(self, partition: int) -> int:
        if partition < len(self._blocks):
            return self._blocks[partition].primary_node
        return super().preferred_worker(partition)

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        def body(recorder, worker, block):
            records = list(block.records)
            recorder.emit(
                PhaseKind.STAGE,
                f"scan:{self._path}",
                worker=worker,
                records_in=len(records),
                bytes_in=block.bytes,
                records_out=len(records),
                bytes_out=block.bytes,
            )
            return records, block.bytes

        partitions, sizes = self._run_tasks(
            trace,
            f"scan:{self._path}",
            body,
            ((block,) for block in self._blocks),
            reads_hdfs=True,
        )
        return (partitions, sizes) if partitions else ([[]], [0])


class _NarrowRDD(RDD):
    """A per-partition transformation: ``transform(partition) -> list``,
    one ``stage:<label>`` task per partition (no shuffle)."""

    def __init__(self, parent: RDD, label: str, transform: Callable[[list], list]) -> None:
        super().__init__(parent.engine, parent.num_partitions)
        self._parent = parent
        self._label = label
        self._transform = transform

    def preferred_worker(self, partition: int) -> int:
        return self._parent.preferred_worker(partition)

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        def body(recorder, worker, partition, size_in):
            result = self._transform(partition)
            size_out = _partition_bytes(result)
            recorder.emit(
                PhaseKind.STAGE,
                f"stage:{self._label}",
                worker=worker,
                records_in=len(partition),
                bytes_in=size_in,
                records_out=len(result),
                bytes_out=size_out,
            )
            return result, size_out

        return self._run_tasks(
            trace,
            f"stage:{self._label}",
            body,
            zip(*self.engine.compute(self._parent, trace)),
        )


class _UnionRDD(RDD):
    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(left.engine, left.num_partitions + right.num_partitions)
        self._left = left
        self._right = right

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        left, left_sizes = self.engine.compute(self._left, trace)
        right, right_sizes = self.engine.compute(self._right, trace)
        partitions = left + right
        sizes = left_sizes + right_sizes
        for index, (partition, size) in enumerate(zip(partitions, sizes)):
            trace.emit(
                PhaseKind.STAGE,
                "stage:union",
                worker=self.preferred_worker(index),
                records_in=len(partition),
                bytes_in=size,
                records_out=len(partition),
                bytes_out=size,
            )
        return partitions, sizes


class _ShuffledRDD(RDD):
    """Hash-partitioned shuffle with optional map-side combining.

    With a ``combiner``, output elements are ``(key, combined_value)``
    (reduceByKey semantics); without, ``(key, [values])`` (groupByKey).
    """

    def __init__(
        self,
        parent: RDD,
        num_partitions: int,
        combiner: Callable | None,
        map_side_combine: bool,
    ) -> None:
        super().__init__(parent.engine, num_partitions)
        self._parent = parent
        self._combiner = combiner
        self._map_side_combine = map_side_combine and combiner is not None

    def _combine_partition(self, partition: list) -> list:
        combined: dict = {}
        for key, value in partition:
            if key in combined:
                combined[key] = self._combiner(combined[key], value)
            else:
                combined[key] = value
        return list(combined.items())

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        parents, parent_sizes = self.engine.compute(self._parent, trace)
        buckets: list[list] = [[] for _ in range(self.num_partitions)]
        for index, (partition, size_in) in enumerate(zip(parents, parent_sizes)):
            def write_body(recorder, worker, partition=partition, size_in=size_in):
                if self._map_side_combine:
                    to_write = self._combine_partition(partition)
                    size_out = _partition_bytes(to_write)
                else:
                    to_write, size_out = partition, size_in
                recorder.emit(
                    PhaseKind.SHUFFLE_WRITE,
                    "shuffle-write",
                    worker=worker,
                    records_in=len(partition),
                    bytes_in=size_in,
                    records_out=len(to_write),
                    bytes_out=size_out,
                )
                return to_write

            to_write = run_task(
                trace,
                "shuffle-write",
                self._parent.preferred_worker(index),
                write_body,
                num_nodes=self.engine.num_workers,
            )
            for key, value in to_write:
                buckets[stable_hash(key) % self.num_partitions].append((key, value))

        def read_body(recorder, worker, bucket):
            size = _partition_bytes(bucket)
            recorder.emit(
                PhaseKind.SHUFFLE_READ,
                "shuffle-read",
                    worker=worker,
                records_in=len(bucket),
                bytes_in=size,
                records_out=len(bucket),
                bytes_out=size,
                fetches=float(len(parents)),
            )
            if self._combiner is not None:
                result = self._combine_partition(bucket)
            else:
                groups: dict = {}
                for key, value in bucket:
                    groups.setdefault(key, []).append(value)
                result = list(groups.items())
            size_out = _partition_bytes(result)
            recorder.emit(
                PhaseKind.STAGE,
                "stage:aggregate",
                worker=worker,
                records_in=len(bucket),
                bytes_in=size,
                records_out=len(result),
                bytes_out=size_out,
            )
            return result, size_out

        return self._run_tasks(
            trace, "stage:aggregate", read_body, ((b,) for b in buckets)
        )


class _SortedRDD(RDD):
    """Range-partitioned total sort (Spark's sortBy)."""

    def __init__(self, parent: RDD, key_fn: Callable, num_partitions: int) -> None:
        super().__init__(parent.engine, num_partitions)
        self._parent = parent
        self._key_fn = key_fn

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        parents, parent_sizes = self.engine.compute(self._parent, trace)
        all_keys = sorted(
            self._key_fn(record) for partition in parents for record in partition
        )
        boundaries = [
            all_keys[(i + 1) * len(all_keys) // self.num_partitions]
            for i in range(self.num_partitions - 1)
        ] if all_keys else []

        buckets: list[list] = [[] for _ in range(self.num_partitions)]
        for index, (partition, size) in enumerate(zip(parents, parent_sizes)):
            def write_body(recorder, worker, partition=partition, size=size):
                recorder.emit(
                    PhaseKind.SHUFFLE_WRITE,
                    "shuffle-write:sort",
                    worker=worker,
                    records_in=len(partition),
                    bytes_in=size,
                    records_out=len(partition),
                    bytes_out=size,
                )
                return partition

            written = run_task(
                trace,
                "shuffle-write:sort",
                self._parent.preferred_worker(index),
                write_body,
                num_nodes=self.engine.num_workers,
            )
            for record in written:
                buckets[bisect.bisect_left(boundaries, self._key_fn(record))].append(record)

        def read_body(recorder, worker, bucket):
            size = _partition_bytes(bucket)
            recorder.emit(
                PhaseKind.SHUFFLE_READ,
                "shuffle-read:sort",
                worker=worker,
                records_in=len(bucket),
                bytes_in=size,
                records_out=len(bucket),
                bytes_out=size,
            )
            # Sorting reorders the same records, so their size holds.
            result = sorted(bucket, key=self._key_fn)
            recorder.emit(
                PhaseKind.STAGE,
                "stage:sort",
                worker=worker,
                records_in=len(result),
                bytes_in=size,
                records_out=len(result),
                bytes_out=size,
                compare_ops=float(len(result)) * math.log2(max(2, len(result))),
            )
            return result, size

        return self._run_tasks(trace, "stage:sort", read_body, ((b,) for b in buckets))


class _CoGroupedRDD(RDD):
    """Shuffle two pair RDDs by key, then join or subtract per bucket."""

    def __init__(self, left: RDD, right: RDD, num_partitions: int, mode: str) -> None:
        if mode not in ("join", "subtract"):
            raise StackExecutionError(f"unknown cogroup mode: {mode!r}")
        super().__init__(left.engine, num_partitions)
        self._left = left
        self._right = right
        self._mode = mode

    def _shuffle_side(
        self, rdd: RDD, label: str, trace: ExecutionTrace
    ) -> list[list]:
        parents, parent_sizes = self.engine.compute(rdd, trace)
        buckets: list[list] = [[] for _ in range(self.num_partitions)]
        for index, (partition, size) in enumerate(zip(parents, parent_sizes)):
            def write_body(recorder, worker, partition=partition, size=size):
                recorder.emit(
                    PhaseKind.SHUFFLE_WRITE,
                    f"shuffle-write:{label}",
                    worker=worker,
                    records_in=len(partition),
                    bytes_in=size,
                    records_out=len(partition),
                    bytes_out=size,
                )
                return partition

            written = run_task(
                trace,
                f"shuffle-write:{label}",
                rdd.preferred_worker(index),
                write_body,
                num_nodes=self.engine.num_workers,
            )
            for key, value in written:
                buckets[stable_hash(key) % self.num_partitions].append((key, value))
        return buckets

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        left_buckets = self._shuffle_side(self._left, "cogroup-left", trace)
        right_buckets = self._shuffle_side(self._right, "cogroup-right", trace)

        def read_body(recorder, worker, left, right):
            size = _partition_bytes(left) + _partition_bytes(right)
            recorder.emit(
                PhaseKind.SHUFFLE_READ,
                "shuffle-read:cogroup",
                worker=worker,
                records_in=len(left) + len(right),
                bytes_in=size,
            )
            right_map: dict = {}
            for key, value in right:
                right_map.setdefault(key, []).append(value)
            result: list = []
            if self._mode == "join":
                for key, value in left:
                    for other in right_map.get(key, ()):
                        result.append((key, (value, other)))
            else:  # subtract: distinct left keys with no right occurrences
                emitted: set = set()
                for key, _value in left:
                    if key not in right_map and key not in emitted:
                        emitted.add(key)
                        result.append(key)
            size_out = _partition_bytes(result)
            recorder.emit(
                PhaseKind.STAGE,
                f"stage:{self._mode}",
                worker=worker,
                records_in=len(left) + len(right),
                bytes_in=size,
                records_out=len(result),
                bytes_out=size_out,
            )
            return result, size_out

        return self._run_tasks(
            trace, f"stage:{self._mode}", read_body, zip(left_buckets, right_buckets)
        )


class _CartesianRDD(RDD):
    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(left.engine, left.num_partitions * right.num_partitions)
        self._left = left
        self._right = right

    def compute_partitions(self, trace: ExecutionTrace) -> SizedPartitions:
        left = list(zip(*self.engine.compute(self._left, trace)))
        right = list(zip(*self.engine.compute(self._right, trace)))

        def body(recorder, worker, left_partition, left_size, right_partition, right_size):
            result = [(a, b) for a in left_partition for b in right_partition]
            size_out = _partition_bytes(result)
            recorder.emit(
                PhaseKind.STAGE,
                "stage:cartesian",
                worker=worker,
                records_in=len(left_partition) + len(right_partition),
                bytes_in=left_size + right_size,
                records_out=len(result),
                bytes_out=size_out,
            )
            return result, size_out

        return self._run_tasks(
            trace,
            "stage:cartesian",
            body,
            (left_pair + right_pair for left_pair in left for right_pair in right),
        )
