"""Micro-benchmarks of Table I: Sort, WordCount, Grep (Hadoop & Spark).

Every runner really computes its result and self-checks it (sortedness,
counts against an independent reference) before returning the trace.
"""

from __future__ import annotations

import bisect
from collections import Counter
from functools import lru_cache

from repro.datagen import Bdgs, SequenceRecord
from repro.stacks.hadoop import HadoopStack
from repro.stacks.instrument import CharacterHints
from repro.stacks.hdfs import Hdfs
from repro.stacks.mapreduce import MapReduceJob
from repro.stacks.spark import SparkEngine
from repro.workloads.base import (
    Category,
    DataType,
    RunContext,
    StackFamily,
    Workload,
    WorkloadRun,
)

__all__ = ["MICRO_WORKLOADS", "GREP_PATTERN"]

_SORT_RECORDS = 3000
_TEXT_LINES = 2600

#: The pattern Grep scans for: a mid-frequency vocabulary word, giving
#: realistic selectivity (a few percent of lines match).
GREP_PATTERN = "da"


# Each input is a pure function of ``(seed, count)``: a fresh ``Bdgs``
# draws it first.  Both stacks of an algorithm (and WordCount and Grep,
# which read the same lines) therefore share one immutable copy per
# process instead of regenerating it per workload.


@lru_cache(maxsize=4)
def _sort_records(seed: int, count: int) -> tuple[SequenceRecord, ...]:
    return tuple(Bdgs(seed=seed).sequence_records(count))


@lru_cache(maxsize=4)
def _text_lines(seed: int, count: int) -> tuple[str, ...]:
    return tuple(Bdgs(seed=seed).text_lines(count))


# ---------------------------------------------------------------------------
# Sort (80 GB unstructured sequence file)
# ---------------------------------------------------------------------------


def _sort_hadoop(context: RunContext) -> WorkloadRun:
    records = _sort_records(context.seed, context.records(_SORT_RECORDS))
    stack = HadoopStack()
    stack.hdfs.put("/input/sort", records)
    trace = stack.new_trace("H-Sort")

    # TeraSort-style total order: sample keys, range-partition.
    sample = sorted(r.key for r in records[:: max(1, len(records) // 64)])
    num_reducers = 4
    boundaries = [
        sample[(i + 1) * len(sample) // num_reducers]
        for i in range(num_reducers - 1)
    ]

    job = MapReduceJob(
        name="sort",
        mapper=lambda record: [(record.key, record.value)],
        reducer=lambda key, values: [(key, value) for value in values],
        num_reducers=num_reducers,
        partitioner=lambda key, _n: bisect.bisect_left(boundaries, key),
    )
    output = stack.run(job, "/input/sort", trace)
    keys = [key for key, _value in output]
    is_sorted = all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))
    return WorkloadRun(
        trace=trace,
        output_records=len(output),
        checks={"sorted": float(is_sorted), "records_preserved": float(len(output) == len(records))},
    )


def _sort_spark(context: RunContext) -> WorkloadRun:
    records = _sort_records(context.seed, context.records(_SORT_RECORDS))
    hdfs = Hdfs()
    hdfs.put("/input/sort", records)
    engine = SparkEngine()
    trace = engine.new_trace("S-Sort")
    output = (
        engine.from_hdfs(hdfs, "/input/sort")
        .map(lambda record: (record.key, record.value))
        .sort_by(lambda pair: pair[0])
        .collect(trace)
    )
    keys = [key for key, _value in output]
    is_sorted = all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))
    return WorkloadRun(
        trace=trace,
        output_records=len(output),
        checks={"sorted": float(is_sorted), "records_preserved": float(len(output) == len(records))},
    )


# ---------------------------------------------------------------------------
# WordCount (98 GB unstructured text)
# ---------------------------------------------------------------------------


def _wordcount_reference(lines: tuple[str, ...]) -> Counter:
    return Counter(word for line in lines for word in line.split())


def _wordcount_hadoop(context: RunContext) -> WorkloadRun:
    lines = _text_lines(context.seed, context.records(_TEXT_LINES))
    stack = HadoopStack()
    stack.hdfs.put("/input/wordcount", lines)
    trace = stack.new_trace("H-WordCount")
    job = MapReduceJob(
        name="wordcount",
        mapper=lambda line: [(word, 1) for word in line.split()],
        reducer=lambda word, counts: [(word, sum(counts))],
        combiner=lambda word, counts: [(word, sum(counts))],
    )
    output = stack.run(job, "/input/wordcount", trace)
    correct = dict(output) == dict(_wordcount_reference(lines))
    return WorkloadRun(
        trace=trace, output_records=len(output), checks={"counts_correct": float(correct)}
    )


def _wordcount_spark(context: RunContext) -> WorkloadRun:
    lines = _text_lines(context.seed, context.records(_TEXT_LINES))
    hdfs = Hdfs()
    hdfs.put("/input/wordcount", lines)
    engine = SparkEngine()
    trace = engine.new_trace("S-WordCount")
    output = (
        engine.from_hdfs(hdfs, "/input/wordcount")
        .flat_map(lambda line: [(word, 1) for word in line.split()])
        .reduce_by_key(lambda a, b: a + b)
        .collect(trace)
    )
    correct = dict(output) == dict(_wordcount_reference(lines))
    return WorkloadRun(
        trace=trace, output_records=len(output), checks={"counts_correct": float(correct)}
    )


# ---------------------------------------------------------------------------
# Grep (98 GB unstructured text)
# ---------------------------------------------------------------------------


def _grep_hadoop(context: RunContext) -> WorkloadRun:
    lines = _text_lines(context.seed, context.records(_TEXT_LINES))
    stack = HadoopStack()
    stack.hdfs.put("/input/grep", lines)
    trace = stack.new_trace("H-Grep")
    job = MapReduceJob(  # map-only, like Hadoop's distributed grep
        name="grep",
        mapper=lambda line: [line] if GREP_PATTERN in line else [],
    )
    output = stack.run(job, "/input/grep", trace)
    expected = sum(1 for line in lines if GREP_PATTERN in line)
    return WorkloadRun(
        trace=trace,
        output_records=len(output),
        checks={"matches_correct": float(len(output) == expected)},
    )


def _grep_spark(context: RunContext) -> WorkloadRun:
    lines = _text_lines(context.seed, context.records(_TEXT_LINES))
    hdfs = Hdfs()
    hdfs.put("/input/grep", lines)
    engine = SparkEngine()
    trace = engine.new_trace("S-Grep")
    output = (
        engine.from_hdfs(hdfs, "/input/grep")
        .filter(lambda line: GREP_PATTERN in line)
        .collect(trace)
    )
    expected = sum(1 for line in lines if GREP_PATTERN in line)
    return WorkloadRun(
        trace=trace,
        output_records=len(output),
        checks={"matches_correct": float(len(output) == expected)},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_TEXT_HINTS = CharacterHints(branch_entropy_shift=0.06)  # byte-wise scanning

MICRO_WORKLOADS: tuple[Workload, ...] = (
    Workload(
        algorithm="Sort",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="80 GB",
        declared_bytes=80 * (1 << 30),
        runner=_sort_hadoop,
        hints=CharacterHints(branch_entropy_shift=0.1),
    ),
    Workload(
        algorithm="Sort",
        family=StackFamily.SPARK,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="80 GB",
        declared_bytes=80 * (1 << 30),
        runner=_sort_spark,
        hints=CharacterHints(branch_entropy_shift=0.1),
    ),
    Workload(
        algorithm="WordCount",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="98 GB",
        declared_bytes=98 * (1 << 30),
        runner=_wordcount_hadoop,
        hints=CharacterHints(branch_entropy_shift=0.06, integer_shift=0.04),
    ),
    Workload(
        algorithm="WordCount",
        family=StackFamily.SPARK,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="98 GB",
        declared_bytes=98 * (1 << 30),
        runner=_wordcount_spark,
        hints=CharacterHints(branch_entropy_shift=0.06, integer_shift=0.04),
    ),
    Workload(
        algorithm="Grep",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="98 GB",
        declared_bytes=98 * (1 << 30),
        runner=_grep_hadoop,
        hints=_TEXT_HINTS,
    ),
    Workload(
        algorithm="Grep",
        family=StackFamily.SPARK,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="98 GB",
        declared_bytes=98 * (1 << 30),
        runner=_grep_spark,
        hints=_TEXT_HINTS,
    ),
)
