"""Common abstractions shared by the software-stack engines.

Every engine (Hadoop MapReduce, Spark, Hive, Shark) *really executes* its
workload on scaled-down data, and while doing so appends
:class:`PhaseRecord` entries to an :class:`ExecutionTrace` — what was
processed, where, and how much.  The instrumentation layer
(:mod:`repro.stacks.instrument`) later converts the trace, together with
the stack's static properties (code size, threading model), into the
:class:`~repro.arch.trace.PhaseProfile` objects the microarchitecture
simulator consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import StackExecutionError
from repro.obs.metrics import REGISTRY
from repro.obs.timeline import observe_phase_record

_PHASE_RECORDS = REGISTRY.counter(
    "repro_stack_phase_records_total",
    "Phase records emitted by the stack engines, by phase kind",
    ("kind",),
)

__all__ = [
    "PhaseKind",
    "PhaseRecord",
    "ExecutionTrace",
    "StackInfo",
    "estimate_bytes",
]


class PhaseKind(enum.Enum):
    """Execution-phase categories the engines emit."""

    SETUP = "setup"  # JVM / executor startup, job submission
    MAP = "map"  # Hadoop map tasks
    SPILL = "spill"  # map-side sort + spill to local disk
    SHUFFLE = "shuffle"  # copying map output to reducers (network + disk)
    SORT_MERGE = "sort-merge"  # reduce-side merge of sorted runs
    REDUCE = "reduce"  # Hadoop reduce tasks
    OUTPUT = "output"  # writing job output to HDFS
    STAGE = "stage"  # Spark narrow-stage computation
    SHUFFLE_WRITE = "shuffle-write"  # Spark shuffle map-side write
    SHUFFLE_READ = "shuffle-read"  # Spark shuffle reduce-side fetch
    CACHE_BUILD = "cache-build"  # materialising an RDD into memory
    CACHE_SCAN = "cache-scan"  # re-reading a cached RDD partition
    DRIVER = "driver"  # driver-side work (plan compile, collect)


@dataclass(frozen=True)
class PhaseRecord:
    """One observed execution phase.

    Attributes:
        kind: Phase category.
        name: Free-form label ("map:wordcount", "stage-1", ...).
        worker: Worker slot index the phase ran on (driver phases use -1).
        records_in: Records consumed.
        bytes_in: Bytes consumed (estimated).
        records_out: Records produced.
        bytes_out: Bytes produced (estimated).
        details: Engine-specific extras (e.g. ``{"compare_ops": 12345.0}``).
        tag: Recovery provenance.  Empty for the committed execution;
            ``"failed:<kind>"`` for a fault-killed attempt and
            ``"speculative"`` for the losing attempt of a speculated
            straggler.  Tagged records document what recovery did but are
            excluded from instrumentation, so a recovered run measures
            identically to a fault-free one.
    """

    kind: PhaseKind
    name: str
    worker: int
    records_in: int
    bytes_in: int
    records_out: int
    bytes_out: int
    details: dict[str, float] = field(default_factory=dict)
    tag: str = ""


@dataclass(frozen=True)
class StackInfo:
    """Static properties of a software stack.

    These encode the structural facts the paper uses to explain its
    findings (Section V-A): Hadoop 1.0.2's main source tree is ~67 MB
    against Spark 0.8.1's ~11 MB, Hadoop tasks run in separate JVM
    processes while Spark executors run many tasks as threads of one JVM
    sharing cached RDD partitions, and so on.

    Attributes:
        name: Stack family name ("hadoop", "spark", "hive", "shark").
        source_bytes: Source-tree size of the stack release (the paper's
            proxy for framework instruction footprint).
        hot_code_bytes: Estimated hot instruction footprint during
            steady-state execution.
        tasks_share_process: Whether sibling tasks on a node share one
            address space (threads) — drives data sharing/snoop traffic.
        jvm_uops_factor: Micro-op expansion factor of framework-heavy code.
        kernel_io_weight: Relative amount of ring-0 work per byte of I/O
            (disk-materialising stacks spend more time in the kernel).
    """

    name: str
    source_bytes: int
    hot_code_bytes: int
    tasks_share_process: bool
    jvm_uops_factor: float
    kernel_io_weight: float


class ExecutionTrace:
    """Accumulates phase records for one workload run."""

    def __init__(self, stack: StackInfo, workload: str) -> None:
        self.stack = stack
        self.workload = workload
        self.records: list[PhaseRecord] = []

    def add(self, record: PhaseRecord) -> None:
        self.records.append(record)
        # Purely observational: reports the committed (or tagged) record
        # to the ambient timeline sampler, a no-op when sampling is off.
        observe_phase_record(
            record.kind.value,
            record.worker,
            record.records_out,
            record.bytes_in,
            record.bytes_out,
            record.tag,
        )

    def emit(
        self,
        kind: PhaseKind,
        name: str,
        worker: int,
        records_in: int,
        bytes_in: int,
        records_out: int = 0,
        bytes_out: int = 0,
        **details: float,
    ) -> None:
        """Convenience constructor-and-append."""
        _PHASE_RECORDS.inc(kind=kind.value)
        self.add(
            PhaseRecord(
                kind=kind,
                name=name,
                worker=worker,
                records_in=records_in,
                bytes_in=bytes_in,
                records_out=records_out,
                bytes_out=bytes_out,
                details=dict(details),
            )
        )

    def by_kind(
        self, kind: PhaseKind, committed_only: bool = False
    ) -> list[PhaseRecord]:
        """All records of one phase kind, in emission order."""
        return [
            r
            for r in self.records
            if r.kind is kind and not (committed_only and r.tag)
        ]

    @property
    def committed_records(self) -> list[PhaseRecord]:
        """Records of the committed execution (failed/speculative-loser
        attempts excluded) — what the measurement pipeline consumes."""
        return [r for r in self.records if not r.tag]

    @property
    def total_records_in(self) -> int:
        return sum(r.records_in for r in self.records)

    @property
    def total_bytes_in(self) -> int:
        return sum(r.bytes_in for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionTrace({self.stack.name}/{self.workload}, "
            f"{len(self.records)} phases)"
        )


#: Sizes of the exact leaf types :func:`estimate_bytes` looks up by type.
_LEAF_BYTES: dict[type, int] = {type(None): 1, bool: 1, int: 8, float: 8}

#: Types the ``isinstance`` chain of :func:`_estimate_other` claims before
#: its dataclass test.
_CHAINED = (int, float, str, bytes, bytearray, tuple, list, dict)

#: Field names per dataclass type (``None``: not sized as a dataclass by
#: type), filled as :func:`estimate_bytes` meets each type.
_DATACLASS_FIELDS: dict[type, tuple[str, ...] | None] = {}


def _dataclass_fields(kind: type) -> tuple[str, ...] | None:
    try:
        return _DATACLASS_FIELDS[kind]
    except KeyError:
        fields = getattr(kind, "__dataclass_fields__", None)
        names = (
            tuple(fields)
            if isinstance(fields, dict) and not issubclass(kind, _CHAINED)
            else None
        )
        _DATACLASS_FIELDS[kind] = names
        return names


def estimate_bytes(record: object) -> int:
    """Cheap, deterministic wire-size estimate of one record.

    The engines track data volume through this instead of
    ``sys.getsizeof`` so byte counts are stable across Python versions.
    Exact tuples, lists, strings, bytes and leaves are sized by
    ``type()``, tuple and list items and the items of tuples nested in
    them inline; a dataclass record by its type's cached field names.
    Every other type, subclasses included, goes through
    :func:`_estimate_other`'s ``isinstance`` chain.
    """
    kind = type(record)
    if kind is tuple or kind is list:
        size = 2
        for item in record:
            kind = type(item)
            if kind is str:
                size += len(item) + 1
            elif kind in _LEAF_BYTES:
                size += _LEAF_BYTES[kind]
            elif kind is tuple or kind is list:
                size += 2
                for inner in item:
                    kind = type(inner)
                    if kind is str:
                        size += len(inner) + 1
                    elif kind in _LEAF_BYTES:
                        size += _LEAF_BYTES[kind]
                    else:
                        size += estimate_bytes(inner)
            else:
                size += estimate_bytes(item)
        return size
    if kind is str:
        return len(record) + 1
    if kind in _LEAF_BYTES:
        return _LEAF_BYTES[kind]
    if kind is bytes:
        return len(record)
    names = _dataclass_fields(kind)
    if names is not None:
        return 2 + sum(estimate_bytes(getattr(record, name)) for name in names)
    return _estimate_other(record)


def _estimate_other(record: object) -> int:
    # ``None`` and ``bool`` admit no subclasses, so the chain starts here.
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, (tuple, list)):
        return 2 + sum(estimate_bytes(item) for item in record)
    if isinstance(record, dict):
        return 2 + sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in record.items()
        )
    if hasattr(record, "__dataclass_fields__"):
        return 2 + sum(
            estimate_bytes(getattr(record, name))
            for name in record.__dataclass_fields__
        )
    return 16


def stable_hash(value: object) -> int:
    """Deterministic hash for partitioning (``hash()`` is salted per run)."""
    import zlib

    return zlib.crc32(repr(value).encode("utf-8"))


def require(condition: bool, message: str) -> None:
    """Raise :class:`StackExecutionError` unless ``condition`` holds."""
    if not condition:
        raise StackExecutionError(message)
