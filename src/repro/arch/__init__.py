"""Simulated Westmere-like microarchitecture (Table III testbed)."""

from repro.arch.branch import BranchStats, GsharePredictor
from repro.arch.cache import CacheAccess, CacheConfig, CacheStats, SetAssociativeCache
from repro.arch.coherence import CoherenceDirectory, MesiState, SnoopResponse, SnoopStats
from repro.arch.core_model import CoreModel
from repro.arch.pipeline import CycleAccounting, CycleModel, Latencies, SampleCounts
from repro.arch.processor import Processor, ProcessorConfig, events_from_sample
from repro.arch.tlb import Tlb, TlbConfig, TlbHierarchy, TlbOutcome
from repro.arch.trace import InstructionMix, OpKind, PhaseProfile

__all__ = [
    "BranchStats",
    "GsharePredictor",
    "CacheAccess",
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "CoherenceDirectory",
    "MesiState",
    "SnoopResponse",
    "SnoopStats",
    "CoreModel",
    "CycleAccounting",
    "CycleModel",
    "Latencies",
    "SampleCounts",
    "Processor",
    "ProcessorConfig",
    "events_from_sample",
    "Tlb",
    "TlbConfig",
    "TlbHierarchy",
    "TlbOutcome",
    "InstructionMix",
    "OpKind",
    "PhaseProfile",
]
