"""EXPERIMENTS.md is a checked artefact: regenerating it changes nothing.

``tools/generate_experiments.py`` runs the full 32-workload suite at its
benchmark configuration (~15 s on 2 vCPUs) and writes the
paper-vs-measured tables.  Any change to the simulator, the metrics or
the statistics that moves a reported figure shows up here as drift, so
the committed document cannot silently go stale.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.slow
def test_experiments_md_regenerates_byte_for_byte(tmp_path):
    """A fresh, serial, store-less run reproduces the committed file."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in ("REPRO_CACHE_DIR", "REPRO_BENCH_WORKERS")
    }
    out = tmp_path / "EXPERIMENTS.md"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "generate_experiments.py"), str(out)],
        cwd=tmp_path,
        env=env,
        check=True,
        capture_output=True,
        timeout=600,
    )
    assert out.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes()
