"""Phase profiles and synthetic operation streams.

This module is the contract between the software-stack engines and the
microarchitecture simulator.  When a stack executes a job, the
instrumentation layer (:mod:`repro.stacks.instrument`) condenses each
execution phase (map, shuffle, reduce, RDD stage, scan, join build ...)
into a :class:`PhaseProfile`: an aggregate description of the instruction
mix, code and data footprints, locality, sharing and branch behaviour that
the phase exhibited.  :func:`synthesize_columns` then expands a profile
into a sampled stream of concrete operations with concrete addresses,
which :class:`repro.arch.core_model.CoreModel` simulates against real tag
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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "OpKind",
    "OpTallies",
    "StreamColumns",
    "SynthScratch",
    "OP_FETCH_FLAG",
    "OP_CODE_MASK",
    "InstructionMix",
    "PhaseProfile",
    "synthesize_columns",
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

#: Bit set in :attr:`StreamColumns.codes` when the op's fetch PC enters a
#: new 16-byte fetch block (i.e. the frontend must probe the L1I).  The
#: boundary test is a pure function of the PC column, so it is computed
#: vectorised at synthesis time instead of per op in the simulation loop.
OP_FETCH_FLAG = 8
#: Masks a code with :data:`OP_FETCH_FLAG` back to its bare ``OP_*`` code.
OP_CODE_MASK = OP_FETCH_FLAG - 1


class OpTallies(NamedTuple):
    """Per-class op counts of one synthesised sample (see ``StreamColumns``)."""

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
    and expanded into sampled operations by :func:`synthesize_columns`.

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


def _kernel_bursts(
    kernel_fraction: float, n_ops: int, rng: np.random.Generator
) -> np.ndarray:
    """Ring-0 flags as alternating exponential user/kernel bursts.

    The long-run kernel share equals ``kernel_fraction`` while execution
    switches address spaces only every few hundred instructions, as real
    syscall-heavy code does.
    """
    if kernel_fraction <= 0.0:
        return np.zeros(n_ops, dtype=bool)
    if kernel_fraction >= 1.0:
        return np.ones(n_ops, dtype=bool)
    mean_user = _KERNEL_BURST_MEAN * (1.0 - kernel_fraction) / kernel_fraction
    flags = np.empty(n_ops, dtype=bool)
    position = 0
    in_kernel = False
    while position < n_ops:
        mean = _KERNEL_BURST_MEAN if in_kernel else mean_user
        run = 1 + int(rng.exponential(mean))
        flags[position : position + run] = in_kernel
        position += run
        in_kernel = not in_kernel
    return flags


@lru_cache(maxsize=512)
def _mix_probabilities(mix: InstructionMix) -> np.ndarray:
    """Normalised op-class distribution table for ``mix`` (memoised).

    The same phase mixes recur across warm-up and measured samples of
    every core and slave; rebuilding and renormalising the distribution
    per sample was measurable, so it is computed once per distinct mix.
    """
    _, probabilities = zip(*mix.as_probabilities())
    probs = np.asarray(probabilities, dtype=float)
    return probs / probs.sum()


def _chain_offsets(
    member: np.ndarray,
    jump: np.ndarray,
    targets: np.ndarray,
    span: int,
    n_ops: int,
) -> np.ndarray:
    """Vectorised fetch-offset chain for one address space.

    Ops where ``member`` is set belong to this chain (user or kernel).  A
    jump moves the chain to ``targets[i]``; a sequential op advances the
    previous chain offset by 4 modulo ``span``.  Equivalent to threading a
    single ``pc`` variable through the ops one at a time, but computed as
    a handful of array passes: the offset at op ``i`` is
    ``(target_of_last_jump + 4 * ops_since_that_jump) % span`` (with a
    virtual offset-0 "jump" before the first op).
    """
    chain_pos = np.cumsum(member) - 1
    jump_here = member & jump
    indices = np.arange(n_ops)
    last_jump = np.maximum.accumulate(np.where(jump_here, indices, -1))
    clamped = np.maximum(last_jump, 0)
    has_jump = last_jump >= 0
    base = np.where(has_jump, targets[clamped], 0)
    base_pos = np.where(has_jump, chain_pos[clamped], -1)
    return (base + 4 * (chain_pos - base_pos)) % span


class StreamColumns(NamedTuple):
    """A synthesised sample as parallel numpy columns.

    The simulation engine (:mod:`repro.arch.batch`) compacts the columns
    down to the events the simulation actually has to walk.

    Attributes:
        codes: Per instruction, the ``OP_*`` operation code plus
            :data:`OP_FETCH_FLAG` when this op starts a new 16-byte fetch
            block (mask with :data:`OP_CODE_MASK` for the bare code).
        addresses: Byte address (LOAD/STORE), branch-site PC (BRANCH), or 0.
        kernels: Ring-0 flag per instruction.
        takens: Branch outcome (False for non-branches).
        shareds: Whether a LOAD/STORE targets the shared data region.
        pcs: Fetch PC per instruction.
        tallies: Per-class op counts, computed vectorised so no
            simulation loop tallies per op.
    """

    codes: np.ndarray
    addresses: np.ndarray
    kernels: np.ndarray
    takens: np.ndarray
    shareds: np.ndarray
    pcs: np.ndarray
    tallies: OpTallies


#: Uniform ``rng.random(n_ops)`` draws one synthesis makes — sizes the
#: scratch block so a whole sample's draws fit without reallocation.
_SCRATCH_DRAWS = 13


class SynthScratch:
    """Preallocated uniform-draw buffers reused across samples.

    Synthesis makes :data:`_SCRATCH_DRAWS` full-length uniform draws per
    sample; drawing them with ``rng.random(out=view)`` into slices of one
    preallocated block produces bit-identical values (the generator
    consumes the same doubles in the same order) while the buffers are
    reused across every window, core, slave and workload of a batch
    instead of being reallocated tens of thousands of times.
    """

    __slots__ = ("_block", "_n", "_used")

    def __init__(self) -> None:
        self._block = np.empty(0, dtype=np.float64)
        self._n = 0
        self._used = 0

    def begin(self, n_ops: int) -> None:
        """Start a sample of ``n_ops`` ops; grows the block if needed."""
        needed = _SCRATCH_DRAWS * n_ops
        if self._block.size < needed:
            self._block = np.empty(needed, dtype=np.float64)
        self._n = n_ops
        self._used = 0

    def take(self) -> np.ndarray:
        """The next ``n_ops``-sized float64 view (fresh array if exhausted)."""
        start, end = self._used, self._used + self._n
        if end > self._block.size:
            return np.empty(self._n, dtype=np.float64)
        self._used = end
        return self._block[start:end]


def synthesize_columns(
    profile: PhaseProfile,
    n_ops: int,
    core_id: int,
    rng: np.random.Generator,
    scratch: SynthScratch | None = None,
) -> StreamColumns:
    """Expand ``profile`` into ``n_ops`` sampled operations for one core.

    Returns:
        A :class:`StreamColumns` of parallel numpy columns (op codes,
        addresses, ring-0 flags, branch outcomes, shared flags, fetch
        PCs).

    The synthesis is deterministic given ``rng``'s state — with or
    without ``scratch`` (the buffers only change *where* the uniform
    draws land, never what is drawn).  Branches come from a set of
    *branch sites* (stable PCs spaced through the code region,
    Zipf-weighted like the code itself) so the predictor can actually
    train on them; each site has a fixed taken-bias drawn from
    ``branch_entropy`` (low entropy = strongly biased = predictable).

    Every column is computed as vectorised numpy passes — the random
    draws are batched in a fixed order and the sequential state
    (streaming cursor, user/kernel fetch-PC chains) is expressed as
    cumulative sums and forward fills.
    """
    if n_ops <= 0:
        raise ConfigurationError("n_ops must be positive")

    if scratch is not None:
        scratch.begin(n_ops)
        rand = lambda: rng.random(out=scratch.take())  # noqa: E731
    else:
        rand = lambda: rng.random(n_ops)  # noqa: E731

    probs = _mix_probabilities(profile.mix)
    # The mix order matches the OP_* codes, so a draw is an op code.
    codes = rng.choice(len(probs), size=n_ops, p=probs)
    kernel_flags = _kernel_bursts(profile.kernel_fraction, n_ops, rng)

    # Branch sites: stable PCs with fixed biases.  The number of distinct
    # sites grows with the code footprint (bigger binaries have more
    # static branches competing for predictor state).
    n_sites = int(np.clip(profile.code_footprint // 16384, 12, 64))
    half_spread = 0.5 * (1.0 - profile.branch_entropy)
    site_bias = np.where(rng.random(n_sites) < 0.5, 0.5 - half_spread, 0.5 + half_spread)
    # Hot sites execute most often; site popularity is even more skewed
    # than code reuse (inner loops re-run their branches constantly).
    sites = np.minimum(
        (n_sites * rand() ** (profile.code_reuse_skew + 2.0)).astype(int),
        n_sites - 1,
    )
    branch_taken = rand() < site_bias[sites]

    # Code side: jump-vs-sequential decisions and Zipf jump offsets.
    is_jump = rand() >= profile.code_locality
    user_span = max(256, profile.code_footprint)
    user_targets = (
        user_span * rand() ** profile.code_reuse_skew
    ).astype(int) & ~3
    kernel_targets = (
        KERNEL_CODE_FOOTPRINT * rand() ** _KERNEL_REUSE_SKEW
    ).astype(int) & ~3

    # Data side: region choice and Zipf offsets, all pre-drawn.
    private_span = max(64, profile.data_working_set)
    shared_span = max(64, profile.shared_working_set)
    u_region = rand()
    shared_pick = u_region < profile.shared_fraction
    hot_pick = rand() < profile.hot_data_fraction
    stream_pick = rand() < profile.data_streaming_fraction
    # Two-tier reuse: most non-streaming references land in a warm region
    # (hash-table heads, live buffers); the tail sweeps the full span.
    warm_private = min(WARM_REGION_BYTES, private_span)
    warm_shared = min(SHARED_WARM_BYTES, shared_span)
    shared_warm_pick = rand() >= profile.shared_tail_fraction
    shared_spans = np.where(shared_warm_pick, warm_shared, shared_span)
    shared_offsets = (
        shared_spans * rand() ** profile.shared_reuse_skew
    ).astype(int) & ~7
    hot_offsets = rng.integers(0, HOT_REGION_BYTES, size=n_ops) & ~7
    warm_pick = rand() >= profile.data_tail_fraction
    private_spans = np.where(warm_pick, warm_private, private_span)
    private_offsets = (
        private_spans * rand() ** profile.data_reuse_skew
    ).astype(int) & ~7
    demote_store = rand() > profile.shared_write_fraction

    # Fetch PCs: two independent sequential-with-jumps chains (user and
    # kernel address spaces), interleaved by the ring-0 burst flags.
    user_offsets = _chain_offsets(
        ~kernel_flags, is_jump, user_targets, user_span, n_ops
    )
    kernel_offsets = _chain_offsets(
        kernel_flags, is_jump, kernel_targets, KERNEL_CODE_FOOTPRINT, n_ops
    )
    pcs = np.where(
        kernel_flags,
        KERNEL_CODE_BASE + kernel_offsets,
        USER_CODE_BASE + user_offsets,
    )

    # Memory addresses by region, then branch-site PCs, then demotion of
    # most shared stores to loads (shared traffic is read-dominated; all
    # cores draw from the same skewed head, so hot shared lines really
    # are resident in several private hierarchies).
    private_base = PRIVATE_DATA_BASE + core_id * PRIVATE_DATA_STRIDE
    data_base = private_base + HOT_REGION_BYTES
    is_mem = codes <= OP_STORE
    shared_sel = is_mem & shared_pick
    hot_sel = is_mem & ~shared_pick & hot_pick
    stream_sel = is_mem & ~shared_pick & ~hot_pick & stream_pick
    private_sel = is_mem & ~shared_pick & ~hot_pick & ~stream_pick
    # The streaming cursor advances 8 bytes per streaming reference;
    # its position at each such op is a cumulative count of stream ops.
    stream_positions = (private_offsets[0] + 8 * np.cumsum(stream_sel)) % private_span

    addresses = np.zeros(n_ops, dtype=np.int64)
    addresses[shared_sel] = SHARED_DATA_BASE + shared_offsets[shared_sel]
    addresses[hot_sel] = private_base + hot_offsets[hot_sel]
    addresses[stream_sel] = data_base + stream_positions[stream_sel]
    addresses[private_sel] = data_base + private_offsets[private_sel]
    is_branch = codes == OP_BRANCH
    addresses[is_branch] = USER_CODE_BASE + sites[is_branch] * BRANCH_SITE_STRIDE

    codes = np.where(
        (codes == OP_STORE) & shared_sel & demote_store, OP_LOAD, codes
    )
    takens = branch_taken & is_branch

    tallies = OpTallies(
        loads=int((codes == OP_LOAD).sum()),
        stores=int((codes == OP_STORE).sum()),
        branches=int(is_branch.sum()),
        int_alu=int((codes == OP_INT_ALU).sum()),
        fp_x87=int((codes == OP_FP_X87).sum()),
        fp_sse=int((codes == OP_FP_SSE).sum()),
        kernel=int(kernel_flags.sum()),
    )

    # Frontend fetch boundaries: the core probes the L1I only when the PC
    # enters a new 16-byte block, which depends solely on the PC column —
    # fold the decision into the op code as OP_FETCH_FLAG.
    blocks = pcs >> 4
    fetch_flags = np.empty(n_ops, dtype=bool)
    fetch_flags[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=fetch_flags[1:])
    codes = np.where(fetch_flags, codes | OP_FETCH_FLAG, codes)

    return StreamColumns(
        codes=codes,
        addresses=addresses,
        kernels=kernel_flags,
        takens=takens,
        shareds=shared_sel,
        pcs=pcs,
        tallies=tallies,
    )
