"""A working miniature Hadoop MapReduce engine.

Implements the real execution structure of Hadoop 1.x jobs — per-block map
tasks with data locality, map-side sorted spills with optional combiners,
hash partitioning, reducer-side shuffle and multi-run merge, grouped
reduce, and HDFS output — while emitting a :class:`~repro.stacks.base.
PhaseRecord` for every phase so the instrumentation layer can see exactly
what the framework did.

The engine genuinely computes: WordCount really counts, Sort really
sorts, reduce-side joins really join.  Tests assert output correctness
against independent reference implementations.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import StackExecutionError
from repro.faults.recovery import TaskRecorder, run_task
from repro.obs.log import get_logger
from repro.obs.trace import span as obs_span
from repro.stacks.base import (
    ExecutionTrace,
    PhaseKind,
    estimate_bytes,
    stable_hash,
)
from repro.stacks.hdfs import Hdfs, HdfsBlock

__all__ = ["MapReduceJob", "MapReduceEngine"]

_log = get_logger("repro.stacks.mapreduce")

Mapper = Callable[[object], Iterable[tuple]]
Reducer = Callable[[object, list], Iterable[object]]
Combiner = Callable[[object, list], Iterable[tuple]]


@dataclass(frozen=True)
class MapReduceJob:
    """One MapReduce job definition.

    Attributes:
        name: Job name (used in phase labels).
        mapper: ``record -> iterable[(key, value)]``.
        reducer: ``(key, values) -> iterable[output]``; ``None`` makes the
            job map-only (mapper outputs are written directly).
        combiner: Optional map-side reducer ``(key, values) ->
            iterable[(key, value)]``, applied per spill as in Hadoop.
        num_reducers: Reduce-task count.
        partitioner: ``(key, num_partitions) -> partition``; defaults to
            hash partitioning.  Total-order jobs (TeraSort-style) supply a
            range partitioner so concatenated reducer outputs are globally
            sorted.
    """

    name: str
    mapper: Mapper
    reducer: Reducer | None = None
    combiner: Combiner | None = None
    num_reducers: int = 4
    partitioner: Callable[[object, int], int] | None = None

    def __post_init__(self) -> None:
        if self.num_reducers <= 0:
            raise StackExecutionError(f"job {self.name}: num_reducers must be positive")


def _group_sorted(pairs: list[tuple]) -> Iterable[tuple[object, list]]:
    """Group a key-sorted pair list into (key, values) groups."""
    index = 0
    n = len(pairs)
    while index < n:
        key = pairs[index][0]
        values = []
        while index < n and pairs[index][0] == key:
            values.append(pairs[index][1])
            index += 1
        yield key, values


def _apply_combiner(combiner: Combiner, sorted_pairs: list[tuple]) -> list[tuple]:
    """Run the combiner over one sorted spill."""
    combined: list[tuple] = []
    for key, values in _group_sorted(sorted_pairs):
        combined.extend(combiner(key, values))
    return combined


def _sort_cost(n: int) -> float:
    """Comparison count estimate for sorting ``n`` items."""
    return float(n) * math.log2(max(2, n))


@dataclass(frozen=True)
class _MapTaskResult:
    """What one committed map attempt produced.

    ``runs`` holds ``(partition, sorted_run, run_bytes)`` triples; the
    engine merges them into the global per-reducer state only after the
    attempt commits, so failed/speculative attempts leave no residue.
    Sizes are measured once, where the records are made, and travel with
    them (``map_bytes`` to a map-only job's output, ``run_bytes`` to the
    reducer).
    """

    map_out: list
    map_bytes: int
    runs: list[tuple[int, list[tuple], int]]
    spilled_records: int
    combine_output_records: int


@dataclass(frozen=True)
class _ReduceTaskResult:
    """What one committed reduce attempt produced."""

    reduce_out: list
    reduce_bytes: int
    groups: int
    run_records: int
    run_bytes: int


@dataclass
class _JobCounters:
    """Hadoop-style job counters, exposed for tests and reports."""

    map_input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    spilled_records: int = 0
    shuffle_bytes: int = 0
    reduce_input_groups: int = 0
    reduce_output_records: int = 0


class MapReduceEngine:
    """Executes :class:`MapReduceJob` definitions over HDFS files.

    Args:
        hdfs: The block store providing input splits and data locality.
        spill_records: Map-side buffer size in records (the analogue of
            ``io.sort.mb``); map output beyond this spills in sorted runs.
    """

    def __init__(self, hdfs: Hdfs, spill_records: int = 4096) -> None:
        if spill_records <= 0:
            raise StackExecutionError("spill_records must be positive")
        self.hdfs = hdfs
        self.spill_records = spill_records
        self.last_counters: _JobCounters | None = None

    def run_job(
        self,
        job: MapReduceJob,
        input_path: str | list[str],
        trace: ExecutionTrace,
        output_path: str | None = None,
    ) -> list:
        """Run ``job`` over one or more input paths; returns output records.

        Multiple input paths model Hadoop's ``MultipleInputs`` (Hive uses
        it for reduce-side joins over tagged tables).  Emits SETUP / MAP /
        SPILL / SHUFFLE / SORT_MERGE / REDUCE / OUTPUT phase records into
        ``trace``.

        Every map and reduce task executes through the fault-recovery
        boundary (:func:`repro.faults.recovery.run_task`): under an
        active fault plan, crashed attempts are retried with backoff,
        stragglers are speculatively duplicated, and a lost node's tasks
        run on survivors — while the committed records and job output
        stay identical to an undisturbed run.

        Raises:
            StackExecutionError: On missing input, invalid job config, or
                an injected fault persisting past the task retry budget.
        """
        paths = [input_path] if isinstance(input_path, str) else list(input_path)
        blocks = [block for path in paths for block in self.hdfs.blocks(path)]
        counters = _JobCounters()
        self.last_counters = counters
        _log.debug(
            "mapreduce job starting",
            extra={"job": job.name, "blocks": len(blocks),
                   "reducers": job.num_reducers if job.reducer else 0},
        )

        trace.emit(
            PhaseKind.SETUP,
            f"setup:{job.name}",
            worker=-1,
            records_in=0,
            bytes_in=0,
            jvm_starts=float(len(blocks) + (job.num_reducers if job.reducer else 0)),
        )

        # ---- map + spill (one task per block, scheduled on the block's node)
        num_partitions = job.num_reducers
        partitioner = job.partitioner or (lambda key, n: stable_hash(key) % n)
        partition_runs: list[list[tuple[list[tuple], int]]] = [
            [] for _ in range(num_partitions)
        ]
        map_only_output: list = []
        map_only_bytes = 0
        with obs_span(f"phase:map:{job.name}", "phase", tasks=len(blocks)):
            for block in blocks:
                task: _MapTaskResult = run_task(
                    trace,
                    f"map:{job.name}",
                    block.primary_node,
                    lambda recorder, worker, block=block: self._map_task(
                        job, block, worker, num_partitions, partitioner, recorder
                    ),
                    reads_hdfs=True,
                    num_nodes=self.hdfs.num_nodes,
                )
                counters.map_input_records += len(block.records)
                counters.map_output_records += len(task.map_out)
                counters.spilled_records += task.spilled_records
                counters.combine_output_records += task.combine_output_records
                if job.reducer is None:
                    map_only_output.extend(task.map_out)
                    map_only_bytes += task.map_bytes
                else:
                    for partition, run, run_bytes in task.runs:
                        partition_runs[partition].append((run, run_bytes))

        if job.reducer is None:
            return self._finish(
                job, map_only_output, map_only_bytes, output_path, trace, counters
            )

        # ---- shuffle + merge + reduce (one task per partition)
        output: list = []
        output_bytes = 0
        with obs_span(
            f"phase:reduce:{job.name}", "phase", tasks=num_partitions
        ):
            for partition in range(num_partitions):
                runs = partition_runs[partition]
                task: _ReduceTaskResult = run_task(
                    trace,
                    f"reduce:{job.name}",
                    partition % self.hdfs.num_nodes,
                    lambda recorder, worker, runs=runs: self._reduce_task(
                        job, runs, worker, recorder
                    ),
                    num_nodes=self.hdfs.num_nodes,
                )
                counters.shuffle_bytes += task.run_bytes
                counters.reduce_input_groups += task.groups
                counters.reduce_output_records += len(task.reduce_out)
                output.extend(task.reduce_out)
                output_bytes += task.reduce_bytes
        return self._finish(job, output, output_bytes, output_path, trace, counters)

    def _map_task(
        self,
        job: MapReduceJob,
        block: HdfsBlock,
        worker: int,
        num_partitions: int,
        partitioner: Callable[[object, int], int],
        recorder: TaskRecorder,
    ) -> _MapTaskResult:
        """One map attempt: map the block, then sort/combine/spill runs."""
        map_out: list[tuple] = []
        for record in block.records:
            map_out.extend(job.mapper(record))
        out_bytes = sum(map(estimate_bytes, map_out))
        recorder.emit(
            PhaseKind.MAP,
            f"map:{job.name}",
            worker=worker,
            records_in=len(block.records),
            bytes_in=block.bytes,
            records_out=len(map_out),
            bytes_out=out_bytes,
        )
        if job.reducer is None:
            return _MapTaskResult(map_out, out_bytes, [], 0, 0)
        spilled = 0
        combined = 0
        runs: list[tuple[int, list[tuple], int]] = []
        for start in range(0, max(1, len(map_out)), self.spill_records):
            chunk = map_out[start : start + self.spill_records]
            if not chunk:
                break
            chunk.sort(key=itemgetter(0))
            if job.combiner is not None:
                chunk = _apply_combiner(job.combiner, chunk)
                combined += len(chunk)
            spilled += len(chunk)
            pair_bytes = list(map(estimate_bytes, chunk))
            chunk_bytes = sum(pair_bytes)
            recorder.emit(
                PhaseKind.SPILL,
                f"spill:{job.name}",
                worker=worker,
                records_in=len(chunk),
                bytes_in=chunk_bytes,
                records_out=len(chunk),
                bytes_out=chunk_bytes,
                compare_ops=_sort_cost(len(chunk)),
            )
            # Partition the sorted spill into per-reducer runs.
            per_partition: list[list[tuple]] = [[] for _ in range(num_partitions)]
            per_partition_bytes = [0] * num_partitions
            for pair, size in zip(chunk, pair_bytes):
                partition = partitioner(pair[0], num_partitions)
                per_partition[partition].append(pair)
                per_partition_bytes[partition] += size
            for partition, run in enumerate(per_partition):
                if run:
                    runs.append((partition, run, per_partition_bytes[partition]))
        return _MapTaskResult(map_out, out_bytes, runs, spilled, combined)

    def _reduce_task(
        self,
        job: MapReduceJob,
        sized_runs: list[tuple[list[tuple], int]],
        worker: int,
        recorder: TaskRecorder,
    ) -> _ReduceTaskResult:
        """One reduce attempt: fetch ``(run, run_bytes)`` runs, merge-sort
        them, reduce groups."""
        runs = [run for run, _size in sized_runs]
        run_records = sum(len(run) for run in runs)
        run_bytes = sum(size for _run, size in sized_runs)
        recorder.emit(
            PhaseKind.SHUFFLE,
            f"shuffle:{job.name}",
            worker=worker,
            records_in=run_records,
            bytes_in=run_bytes,
            records_out=run_records,
            bytes_out=run_bytes,
            fetches=float(len(runs)),
        )
        merged = list(heapq.merge(*runs, key=itemgetter(0)))
        recorder.emit(
            PhaseKind.SORT_MERGE,
            f"merge:{job.name}",
            worker=worker,
            records_in=run_records,
            bytes_in=run_bytes,
            records_out=len(merged),
            bytes_out=run_bytes,
            compare_ops=float(run_records) * math.log2(max(2, len(runs))),
        )
        reduce_out: list = []
        groups = 0
        for key, values in _group_sorted(merged):
            groups += 1
            reduce_out.extend(job.reducer(key, values))
        reduce_bytes = sum(map(estimate_bytes, reduce_out))
        recorder.emit(
            PhaseKind.REDUCE,
            f"reduce:{job.name}",
            worker=worker,
            records_in=len(merged),
            bytes_in=run_bytes,
            records_out=len(reduce_out),
            bytes_out=reduce_bytes,
            groups=float(groups),
        )
        return _ReduceTaskResult(reduce_out, reduce_bytes, groups, run_records, run_bytes)

    def _finish(
        self,
        job: MapReduceJob,
        output: list,
        out_bytes: int,
        output_path: str | None,
        trace: ExecutionTrace,
        counters: _JobCounters,
    ) -> list:
        """Write output (of ``out_bytes``, sized by the tasks that made it)
        to HDFS if requested, and emit the OUTPUT phase."""
        trace.emit(
            PhaseKind.OUTPUT,
            f"output:{job.name}",
            worker=-1,
            records_in=len(output),
            bytes_in=out_bytes,
            records_out=len(output),
            bytes_out=out_bytes,
        )
        if output_path is not None:
            self.hdfs.delete(output_path)
            self.hdfs.put(output_path, output)
        _log.debug(
            "mapreduce job finished",
            extra={
                "job": job.name,
                "map_input_records": counters.map_input_records,
                "map_output_records": counters.map_output_records,
                "spilled_records": counters.spilled_records,
                "shuffle_bytes": counters.shuffle_bytes,
                "reduce_output_records": counters.reduce_output_records,
            },
        )
        return output
