"""Validate a saved CPU-profile document.

Usage::

    # Validate a merged fleet profile document (CI's profiling gate):
    python tools/check_perf_history.py --validate profile.json \\
        --min-samples 200 --min-span-fraction 0.9

Runs :func:`repro.obs.prof.validate_profile` over the document:
structural checks (schema, stack counts summing to the sample total)
plus the statistical floors CI enforces (minimum samples, minimum
busy-sample span attribution).  Comparing benchmark runs is
``perfbench/run.py --compare``'s job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.prof import attribution, validate_profile  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--validate", required=True, metavar="PROFILE_JSON",
        help="the merged profile document to validate",
    )
    parser.add_argument(
        "--min-samples", type=int, default=1, metavar="N",
        help="validation floor on total samples (default: %(default)s)",
    )
    parser.add_argument(
        "--min-span-fraction", type=float, default=None, metavar="F",
        help="validation floor on the busy-sample span-attribution "
        "fraction, e.g. 0.9",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.validate, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"FAIL: cannot read {args.validate}: {error}", file=sys.stderr)
        return 1
    problems = validate_profile(
        doc,
        min_samples=args.min_samples,
        min_span_fraction=args.min_span_fraction,
    )
    stats = attribution(doc)
    processes = doc.get("processes") or []
    print(
        f"{args.validate}: {doc.get('samples', 0)} samples from "
        f"{len(processes)} process(es); span attribution "
        f"{stats['fraction']:.1%} of busy samples "
        f"({stats['attributed']} attributed, {stats['untracked']} "
        f"untracked, {stats['idle']} idle)"
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("profile valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
