"""Phase profiles and synthetic operation streams.

This module is the contract between the software-stack engines and the
microarchitecture simulator.  When a stack executes a job, the
instrumentation layer (:mod:`repro.stacks.instrument`) condenses each
execution phase (map, shuffle, reduce, RDD stage, scan, join build ...)
into a :class:`PhaseProfile`: an aggregate description of the instruction
mix, code and data footprints, locality, sharing and branch behaviour that
the phase exhibited.  :func:`repro.arch.batch.plan_workload` then expands
each profile into sampled streams of concrete operations with concrete
addresses (the op codes and address-space layout below), which
:class:`repro.arch.core_model.CoreModel` simulates against real tag
arrays, TLBs, branch tables and the coherence bus.

Two design points matter for realism:

* **Sampling.**  A phase that nominally represents billions of
  instructions is simulated through a deterministic sample of tens of
  thousands of operations; the resulting *rates* (misses per kilo
  instruction, stall ratios) are applied to the nominal instruction
  count.  The paper's methodology is likewise rate-based: every Table II
  metric is a ratio or a per-kilo-instruction count measured in steady
  state.
* **Zipf-skewed reuse.**  Real code and data references are heavily
  skewed towards a hot head (hot loops, hot hash buckets, hot pages).
  Addresses are therefore drawn from a power-law over the footprint:
  ``index = floor(N * u**skew)`` for uniform ``u``, so a fraction of hot
  lines absorbs most traffic while the tail still exercises capacity.
  This is what makes hit rates respond smoothly to footprint size instead
  of collapsing to all-compulsory-misses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError

__all__ = [
    "OpKind",
    "OpTallies",
    "OP_FETCH_FLAG",
    "OP_CODE_MASK",
    "InstructionMix",
    "PhaseProfile",
    "OP_LOAD",
    "OP_STORE",
    "OP_BRANCH",
    "OP_INT_ALU",
    "OP_FP_X87",
    "OP_FP_SSE",
    "OP_OTHER",
]

#: Base of the (simulated) user code segment.
USER_CODE_BASE = 0x0040_0000
#: Base of the (simulated) kernel code segment.
KERNEL_CODE_BASE = 0x7FFF_8000_0000
#: Base of the per-core private data heap; cores are spaced far apart.
PRIVATE_DATA_BASE = 0x0000_7000_0000_0000
#: Stride between per-core private heaps.
PRIVATE_DATA_STRIDE = 0x0000_0010_0000_0000
#: Base of the node-wide shared data region (shuffle buffers, cached RDD
#: partitions, page-cache pages).
SHARED_DATA_BASE = 0x0000_7F00_0000_0000
#: Size of the hot stack/locals region that absorbs high-locality accesses.
HOT_REGION_BYTES = 16 * 1024
#: Size of the per-core "warm" tier: the hot heads of hash tables,
#: dictionaries and buffers that keep L2/L3 hit rates high even when the
#: nominal working set is huge.
WARM_REGION_BYTES = 2 * (1 << 20)
#: Warm tier of the shared region (hot cached partitions).
SHARED_WARM_BYTES = 8 * (1 << 20)
#: Byte spacing between synthetic branch sites (distinct predictor PCs).
BRANCH_SITE_STRIDE = 256


class OpKind(enum.Enum):
    """Operation classes the core model distinguishes."""

    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    INT_ALU = "int"
    FP_X87 = "x87"
    FP_SSE = "sse"
    OTHER = "other"


#: Integer operation codes used on the simulator hot path.  The order
#: matches :meth:`InstructionMix.as_probabilities` so a mix draw *is* the
#: op code.
OP_LOAD = 0
OP_STORE = 1
OP_BRANCH = 2
OP_INT_ALU = 3
OP_FP_X87 = 4
OP_FP_SSE = 5
OP_OTHER = 6

#: Bit set on a synthesised op code when the op's fetch PC enters a new
#: 16-byte fetch block (i.e. the frontend must probe the L1I).  The
#: boundary test is a pure function of the PC column, so it is computed
#: vectorised at synthesis time instead of per op in the simulation loop.
OP_FETCH_FLAG = 8
#: Masks a code with :data:`OP_FETCH_FLAG` back to its bare ``OP_*`` code.
OP_CODE_MASK = OP_FETCH_FLAG - 1


class OpTallies(NamedTuple):
    """Per-class op counts of one synthesised sample."""

    loads: int
    stores: int
    branches: int
    int_alu: int
    fp_x87: int
    fp_sse: int
    kernel: int


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of retired instructions by class; must sum to at most 1.

    The remainder (1 - sum) is treated as ``OTHER`` (moves, nops, address
    generation folded into other classes, ...).
    """

    load: float
    store: float
    branch: float
    int_alu: float
    fp_x87: float = 0.0
    fp_sse: float = 0.0

    def __post_init__(self) -> None:
        parts = (self.load, self.store, self.branch, self.int_alu, self.fp_x87, self.fp_sse)
        if any(p < 0 for p in parts):
            raise ConfigurationError("instruction mix fractions must be non-negative")
        if sum(parts) > 1.0 + 1e-9:
            raise ConfigurationError(f"instruction mix sums to {sum(parts):.4f} > 1")

    @property
    def other(self) -> float:
        return max(
            0.0,
            1.0
            - (self.load + self.store + self.branch + self.int_alu + self.fp_x87 + self.fp_sse),
        )

    def as_probabilities(self) -> tuple[tuple[OpKind, float], ...]:
        """The mix as (kind, probability) pairs including OTHER."""
        return (
            (OpKind.LOAD, self.load),
            (OpKind.STORE, self.store),
            (OpKind.BRANCH, self.branch),
            (OpKind.INT_ALU, self.int_alu),
            (OpKind.FP_X87, self.fp_x87),
            (OpKind.FP_SSE, self.fp_sse),
            (OpKind.OTHER, self.other),
        )


@dataclass(frozen=True)
class PhaseProfile:
    """Aggregate description of one execution phase.

    Produced by :mod:`repro.stacks.instrument` from real engine activity
    and expanded into sampled operations by
    :func:`repro.arch.batch.plan_workload`.

    Attributes:
        name: Phase label (e.g. ``"map"``, ``"shuffle"``, ``"stage-2"``).
        instructions: Nominal retired-instruction count the phase represents.
        mix: Instruction mix fractions.
        kernel_fraction: Fraction of instructions executing in ring 0
            (I/O-heavy phases — HDFS reads, shuffle over sockets — run
            large stretches of kernel code).
        uops_per_instruction: Micro-op expansion factor (complex framework
            code tends to crack into more uops).
        code_footprint: Bytes of hot code the phase executes.  This is the
            lever behind the paper's central finding: Hadoop's framework
            executes a far larger instruction footprint than Spark's.
        code_locality: In [0, 1]; probability that the next fetch is
            sequential rather than a jump to a Zipf-chosen location in the
            footprint.
        code_reuse_skew: Power-law exponent of jump targets (>1 = hot
            functions dominate; higher = tighter hot set).
        data_working_set: Bytes of private data the phase cycles through.
        hot_data_fraction: Fraction of data accesses landing in a small hot
            region (locals, stack, hot hashmap heads).
        data_streaming_fraction: Fraction of non-hot private accesses that
            stream sequentially (record scans) rather than revisit lines.
        data_reuse_skew: Power-law exponent of non-streaming private data
            reuse.
        data_tail_fraction: Fraction of non-streaming references that
            sweep the *full* working set instead of the warm tier (cold
            sweeps, GC-like scans); drives LLC misses and TLB walks.
        shared_fraction: Fraction of data accesses targeting the node-wide
            shared region (cached RDD partitions, shuffle buffers).
        shared_working_set: Bytes of the shared region touched by the phase.
        shared_reuse_skew: Power-law exponent of shared-region reuse; a
            skewed head is what makes sibling cores actually collide on
            lines (snoop HIT/HITM traffic).
        shared_tail_fraction: Fraction of shared references sweeping the
            full shared region instead of its warm tier.
        shared_write_fraction: Fraction of shared-region accesses that are
            stores (drives RFO traffic and HITM snoop responses).
        branch_entropy: In [0, 1]; 0 = perfectly biased branches,
            1 = 50/50 coin flips.  Controls the *outcome* stream only; the
            misprediction rate is whatever gshare achieves on it.
    """

    name: str
    instructions: int
    mix: InstructionMix
    kernel_fraction: float = 0.0
    uops_per_instruction: float = 1.3
    code_footprint: int = 64 * 1024
    code_locality: float = 0.9
    code_reuse_skew: float = 3.0
    data_working_set: int = 1 << 20
    hot_data_fraction: float = 0.4
    data_streaming_fraction: float = 0.5
    data_reuse_skew: float = 2.5
    data_tail_fraction: float = 0.18
    shared_fraction: float = 0.0
    shared_working_set: int = 1 << 20
    shared_reuse_skew: float = 3.5
    shared_tail_fraction: float = 0.25
    shared_write_fraction: float = 0.1
    branch_entropy: float = 0.15

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ConfigurationError(f"phase {self.name!r}: instructions must be positive")
        for attr in (
            "kernel_fraction",
            "code_locality",
            "hot_data_fraction",
            "data_streaming_fraction",
            "data_tail_fraction",
            "shared_fraction",
            "shared_tail_fraction",
            "shared_write_fraction",
            "branch_entropy",
        ):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"phase {self.name!r}: {attr}={value} outside [0, 1]"
                )
        for attr in ("code_reuse_skew", "data_reuse_skew", "shared_reuse_skew"):
            if getattr(self, attr) < 1.0:
                raise ConfigurationError(
                    f"phase {self.name!r}: {attr} must be >= 1 (1 = uniform)"
                )
        if self.uops_per_instruction < 1.0:
            raise ConfigurationError(
                f"phase {self.name!r}: uops_per_instruction must be >= 1"
            )
        if self.code_footprint <= 0 or self.data_working_set <= 0:
            raise ConfigurationError(f"phase {self.name!r}: footprints must be positive")
        if self.shared_working_set <= 0:
            raise ConfigurationError(f"phase {self.name!r}: shared_working_set must be positive")


#: Modelled kernel hot-code footprint (syscall, network, VFS paths).
KERNEL_CODE_FOOTPRINT = 512 * 1024
#: Kernel code is also hot-path skewed.
_KERNEL_REUSE_SKEW = 3.0
#: Mean instructions per stretch of ring-0 execution (a syscall runs
#: thousands of instructions, not one) — kernel mode comes in bursts.
_KERNEL_BURST_MEAN = 400.0
