#!/usr/bin/env python
"""CI gate for continuous fleet profiling (``repro.obs.prof``).

Boots a real pre-fork fleet — two server workers, the supervisor, and
the collection pool behind them — kicks off a cold suite collection,
and captures a merged CPU profile **while that collection is running**.
Then asserts the profiling contracts end to end:

1. the window produced samples from several processes, and both the
   ``server`` and ``pool`` roles contributed (the profile observed the
   fleet, not just the frontend);
2. the merged document is structurally valid
   (:func:`repro.obs.prof.validate_profile`) and attributes at least
   ``--min-span-fraction`` of its busy samples to known span paths;
3. the collection itself completed, and its jobs were unperturbed by
   the sampling window.

The merged document is written to ``--out`` (default ``profile.json``)
so the CI job can re-validate it with ``tools/check_perf_history.py
--validate`` and archive it as an artifact.

Usage::

    python tools/check_profile.py [--seconds 3] [--out profile.json]

Exits 0 when every gate holds, 1 with diagnostics otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.collection import CollectionConfig  # noqa: E402
from repro.cluster.testbed import MeasurementConfig  # noqa: E402
from repro.obs.prof import attribution, span_totals, validate_profile  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServiceConfig  # noqa: E402
from repro.service.supervisor import Supervisor  # noqa: E402
from repro.workloads.suite import SUITE  # noqa: E402


def run_gate(
    seconds: float,
    interval_ms: float,
    min_samples: int,
    min_span_fraction: float,
    out: str | None,
) -> list[str]:
    """Drive the fleet and return every gate violation (empty = pass)."""
    problems: list[str] = []
    config = ServiceConfig(
        collection=CollectionConfig(
            # Heavy enough that the collection outlives the sampling
            # window — the profile must capture live pool work.
            scale=0.3,
            seed=31,
            measurement=MeasurementConfig(
                slaves_measured=2,
                active_cores=3,
                ops_per_core=4000,
                perf_repeats=2,
            ),
        ),
        workloads=SUITE[:4],
        cache_dir=tempfile.mkdtemp(prefix="repro-profile-gate-"),
        workers=2,
    )
    with Supervisor(config, port=0, workers=2) as sup:
        base = f"http://{sup.host}:{sup.port}"
        client = ServiceClient(
            base, timeout=seconds + 60.0, correlation_id="profile-gate"
        )

        # Kick the cold *suite* collection (it fans out to real pool
        # worker processes) from a background thread, give the pool a
        # beat to fork and start its telemetry agents, then open the
        # window while the work is in flight.
        matrix_result: dict = {}
        matrix_errors: list[str] = []

        def collect() -> None:
            try:
                matrix_result.update(
                    ServiceClient(
                        base, timeout=600.0, correlation_id="profile-gate"
                    ).matrix()
                )
            except Exception as exc:  # noqa: BLE001 - gated below
                matrix_errors.append(f"{type(exc).__name__}: {exc}")

        collector = threading.Thread(target=collect)
        collector.start()
        time.sleep(0.5)
        print(
            f"check_profile: suite collection in flight; "
            f"sampling {seconds:g}s at {interval_ms:g}ms ..."
        )
        doc = client.profile(seconds=seconds, interval_ms=interval_ms)
        collector.join(timeout=600.0)

        if matrix_errors:
            problems.append(f"suite collection failed: {matrix_errors[0]}")
        elif len(matrix_result.get("workloads", [])) != len(config.workloads):
            problems.append(
                "the sampling window perturbed the collection: got "
                f"{len(matrix_result.get('workloads', []))} of "
                f"{len(config.workloads)} workloads"
            )

    # -- gate 1: the window saw the whole fleet -------------------------
    processes = doc.get("processes", [])
    roles = {str(p.get("role")) for p in processes}
    stats = attribution(doc)
    print(
        f"check_profile: {doc.get('samples', 0)} samples from "
        f"{len(processes)} processes (roles {sorted(roles)}); span "
        f"attribution {stats['fraction']:.1%} of busy samples"
    )
    if len(processes) < 3:
        problems.append(
            f"only {len(processes)} processes spilled; a 2-worker fleet "
            "with a live pool should produce at least 3"
        )
    for role in ("server", "pool"):
        if role not in roles:
            problems.append(f"no profile spill from any {role!r} process")

    # -- gate 2: valid document, attributed samples ---------------------
    problems.extend(
        validate_profile(
            doc,
            min_samples=min_samples,
            min_span_fraction=min_span_fraction,
        )
    )
    for row in span_totals(doc, top=5):
        print(
            f"check_profile:   {row['fraction']:7.1%}  {row['path']} "
            f"({row['samples']} samples)"
        )

    if out:
        Path(out).write_text(json.dumps(doc) + "\n")
        print(f"check_profile: merged profile written to {out}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds", type=float, default=3.0, help="sampling window length"
    )
    parser.add_argument(
        "--interval", type=float, default=5.0, metavar="MS",
        help="sampling period in milliseconds (default: %(default)s)",
    )
    parser.add_argument(
        "--min-samples", type=int, default=200,
        help="floor on merged sample count (default: %(default)s)",
    )
    parser.add_argument(
        "--min-span-fraction", type=float, default=0.9,
        help="floor on busy-sample span attribution (default: %(default)s)",
    )
    parser.add_argument(
        "--out", default="profile.json",
        help="write the merged profile document here (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    problems = run_gate(
        args.seconds,
        args.interval,
        args.min_samples,
        args.min_span_fraction,
        args.out,
    )
    if problems:
        for problem in problems:
            print(f"check_profile: FAIL {problem}", file=sys.stderr)
        return 1
    print("check_profile: all profiling gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
