"""The Spark software stack: engine (caching DAG executor) + identity.

Models Spark 0.8.1 as deployed on the paper's testbed.  The structural
facts encoded in :data:`SPARK_0_8_1` come from Section V-A: the whole
source folder is ~11 MB (so the framework's hot instruction footprint is
far smaller than Hadoop's), and executors run many tasks as threads of
one JVM, sharing cached RDD partitions in a single heap — which is why
Spark workloads show larger data footprints and much more inter-core data
sharing (snoop traffic) than their Hadoop counterparts.
"""

from __future__ import annotations

from repro.errors import StackExecutionError
from repro.obs.log import get_logger
from repro.obs.trace import span as obs_span
from repro.stacks.base import ExecutionTrace, PhaseKind, StackInfo
from repro.stacks.hdfs import Hdfs
from repro.stacks.rdd import RDD, SizedPartitions, SparkContextLike, _HdfsRDD, _SourceRDD

__all__ = ["SPARK_0_8_1", "SparkEngine"]

_log = get_logger("repro.stacks.spark")

_MB = 1 << 20

#: Spark 0.8.1 as characterized in the paper.
SPARK_0_8_1 = StackInfo(
    name="spark",
    source_bytes=11 * _MB,  # "Spark's whole folder is only 11 MB"
    hot_code_bytes=int(1.2 * _MB),
    tasks_share_process=True,  # executor threads share one JVM heap
    jvm_uops_factor=1.3,
    kernel_io_weight=0.45,  # in-memory intermediates, little ring 0 I/O
)


class SparkEngine(SparkContextLike):
    """The driver/executor engine: computes RDD lineages with caching.

    Args:
        num_workers: Executor slots (the paper runs four slave nodes).
        default_parallelism: Default shuffle partition count.
    """

    info = SPARK_0_8_1

    def __init__(self, num_workers: int = 4, default_parallelism: int | None = None) -> None:
        if num_workers <= 0:
            raise StackExecutionError("num_workers must be positive")
        self.num_workers = num_workers
        self.default_parallelism = default_parallelism or num_workers * 2
        self._cache: dict[int, SizedPartitions] = {}

    # -- RDD creation -------------------------------------------------------

    def parallelize(self, data: list, num_partitions: int | None = None) -> RDD:
        """Distribute driver data into an RDD."""
        n = num_partitions or self.default_parallelism
        n = max(1, min(n, max(1, len(data))))
        size = -(-len(data) // n) if data else 1
        partitions = [data[i : i + size] for i in range(0, max(1, len(data)), size)]
        return _SourceRDD(self, partitions)

    def from_hdfs(self, hdfs: Hdfs, path: str) -> RDD:
        """An RDD with one partition per HDFS block (data locality)."""
        return _HdfsRDD(self, hdfs, path)

    # -- execution ----------------------------------------------------------

    def compute(self, rdd: RDD, trace: ExecutionTrace) -> SizedPartitions:
        """Compute (or fetch from cache) all partitions of ``rdd``, with
        each partition's byte size."""
        if rdd.cached and rdd.rdd_id in self._cache:
            partitions, sizes = self._cache[rdd.rdd_id]
            _log.debug(
                "rdd cache hit",
                extra={"rdd_id": rdd.rdd_id, "partitions": len(partitions)},
            )
            with obs_span(
                f"rdd:{rdd.rdd_id}:cache-scan", "rdd",
                partitions=len(partitions),
            ):
                for index, (partition, size) in enumerate(zip(partitions, sizes)):
                    trace.emit(
                        PhaseKind.CACHE_SCAN,
                        "cache-scan",
                        worker=rdd.preferred_worker(index),
                        records_in=len(partition),
                        bytes_in=size,
                        records_out=len(partition),
                        bytes_out=size,
                    )
            return [list(p) for p in partitions], list(sizes)

        with obs_span(f"rdd:{rdd.rdd_id}:compute", "rdd", cached=rdd.cached):
            partitions, sizes = rdd.compute_partitions(trace)
        if rdd.cached:
            # The cache keeps each partition's size from the build, so no
            # scan of an iterative job re-sizes it.
            self._cache[rdd.rdd_id] = ([list(p) for p in partitions], list(sizes))
            for index, (partition, size) in enumerate(zip(partitions, sizes)):
                trace.emit(
                    PhaseKind.CACHE_BUILD,
                    "cache-build",
                    worker=rdd.preferred_worker(index),
                    records_in=len(partition),
                    bytes_in=size,
                )
        return partitions, sizes

    # -- storage accounting ---------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        """Total bytes currently pinned in executor memory."""
        return sum(sum(sizes) for _partitions, sizes in self._cache.values())

    def new_trace(self, workload: str) -> ExecutionTrace:
        """A fresh execution trace tagged with this stack."""
        return ExecutionTrace(self.info, workload)

    def clear_cache(self) -> None:
        """Drop all cached partitions."""
        self._cache.clear()
