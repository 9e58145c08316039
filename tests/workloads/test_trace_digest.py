"""Golden digest of every suite workload's execution trace.

``tests/arch/test_golden.py`` pins the simulated matrix of only two
workloads' runs at a time; this pins what all 32 stack executions
record before any simulation: every committed phase record's kind,
name, worker, record and byte counts, details and tag, in emission
order.  A change to data generation, an engine or the byte accounting
that moves one count fails here.  An intended change of results updates
the constant in the same commit and says why.
"""

from __future__ import annotations

import hashlib

from repro.workloads.base import RunContext
from repro.workloads.suite import SUITE

#: sha256 over all 32 workloads' committed phase records at scale 0.1,
#: seed 42.
SUITE_TRACE_DIGEST = (
    "bbd1ad6c59c32b701e870751637a715ef3365fe7c2ad0b16250e56528414d0a2"
)


def suite_trace_digest(context: RunContext) -> str:
    digest = hashlib.sha256()
    for workload in SUITE:
        digest.update(f"{workload.name}\n".encode())
        for record in workload.run(context).trace.committed_records:
            fields = (
                record.kind.value,
                record.name,
                record.worker,
                record.records_in,
                record.records_out,
                record.bytes_in,
                record.bytes_out,
                sorted(record.details.items()),
                record.tag,
            )
            digest.update(f"{fields!r}\n".encode())
    return digest.hexdigest()


def test_suite_trace_digest_is_pinned():
    assert suite_trace_digest(RunContext(scale=0.1, seed=42)) == SUITE_TRACE_DIGEST
