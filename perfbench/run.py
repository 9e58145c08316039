"""The repository's benchmark: characterize -> subset -> serve.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-sim --seed 7 --seconds 24 --trace 0
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

``--trace 0`` measures the end-to-end metrics of one workload for about
``--seconds``; ``--trace 1`` makes one separate traced sample that
attributes the time to layers.  Either way the outputs are checked, a
record is appended to the ledger (``perfbench/history.jsonl`` unless
``--history`` says otherwise), a table goes to stdout and the last
stdout line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--compare`` reads two ledgers and prints, per workload and metric, the
median and quartiles of each and the change of the median, whether runs
of the same seed gave the same outputs, and the layer whose time grew
most.

See README.md in this directory for the workloads, the metrics and what
each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload settings.  The suite workloads differ only in where a cold
#: collection spends its time: simulation (many sampled ops on 4 cores
#: at a small input scale) or the stack engines (a larger input scale,
#: few sampled ops).  ``serve`` uses the service's own small protocol.
WORKLOADS = {
    "suite-sim": {"scale": 0.1, "slaves": 1, "cores": 4, "ops": 1000},
    "suite-stacks": {"scale": 0.4, "slaves": 1, "cores": 2, "ops": 400},
    "serve": {"scale": 0.25, "slaves": 1, "cores": 2, "ops": 1000},
}

#: Set-up-only child processes started per suite run, on top of the set-up
#: sample every pipeline child gives.
SETUP_CHILDREN = 2
#: vCPUs of this guest; a serve fill and the warm mix keep all of them
#: busy, so each loses its share of the guest's steal time.
VCPUS = os.cpu_count() or 1
#: The warm mix is measured in windows of this many seconds; a window is
#: quiet when the guest lost at most QUIET_STEAL_S of steal in it, over
#: all vCPUs together.  The mix runs until it has QUIET_WINDOWS quiet
#: windows, or WARM_MAX_WINDOWS windows.
WINDOW_S = 1.0
QUIET_STEAL_S = 0.05
QUIET_WINDOWS = 5
WARM_MAX_WINDOWS = 8
#: Keep-alive client connections of the closed loop.
CLIENTS = 2
#: How far the traced run's layer times may stray from its wall time.
COVERAGE_TOLERANCE_PCT = 5.0


def metric_units() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and of the per-layer metrics,
    as ``BENCHMARK.json`` at the checkout's root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


class Outcome:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failures += [what] * failed

    @property
    def correct_pct(self) -> float:
        return 100.0 * (self.attempted - len(self.failures)) / self.attempted


def child_env(tmp: Path) -> dict:
    """The program's environment: its sources, a private temp dir, and no
    ``REPRO_*`` settings (in particular no ``REPRO_CACHE_DIR``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(request: dict, env: dict, timeout: float = 170.0):
    """Start ``pipeline.py`` fresh; return ``(set-up seconds, result)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "pipeline.py"), json.dumps(request)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    # Reading the pipe to its end blocks, so a timer enforces the timeout.
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith('{"ready": true}'):
        raise RuntimeError(
            f"pipeline child {request['kind']} exited {proc.returncode}"
        )
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile_ms(values: list[float], q: float) -> float:
    from repro.obs.stats import percentile

    return 1e3 * percentile(values, q)


def check_pipeline(outcome: Outcome, result: dict, reference: dict | None) -> None:
    """Self-checks of every workload, and bit-identity with ``reference``."""
    failed = result["failed_workloads"]
    outcome.add(result["workloads"], len(failed), "workload self-check failed")
    if reference is not None:
        outcome.check(
            result["matrix_sha256"] == reference["matrix_sha256"],
            "cold runs of one seed gave different matrices",
        )


def quiet_windows(steal: list[float]) -> list[bool]:
    """Which windows between successive steal readings were quiet."""
    return [later - earlier <= QUIET_STEAL_S for earlier, later in zip(steal, steal[1:])]


def warm_enough(steal: list[float]) -> bool:
    """Stop rule of the warm mix (see QUIET_WINDOWS)."""
    return (
        len(steal) > WARM_MAX_WINDOWS
        or sum(quiet_windows(steal)) >= QUIET_WINDOWS
    )


def warm_metrics(samples: list, steal: list[float]) -> tuple[dict, dict]:
    """The warm mix's figures from its ``(kind, finished, latency)``
    samples and the steal readings at its window boundaries.

    Only whole windows count, and only the quiet ones when there are
    QUIET_WINDOWS of them.  Throughput is the median over those windows,
    each counted over the time its vCPUs ran (the window less its steal
    per vCPU); latencies are percentiles of all their requests.
    """
    keep = quiet_windows(steal)
    if sum(keep) < QUIET_WINDOWS:
        keep = [True] * len(keep)
    windows: list[list[tuple[str, float]]] = [[] for _ in keep]
    for kind, finished, latency in samples:
        slot = int(finished // WINDOW_S)
        if slot < len(keep) and keep[slot]:
            windows[slot].append((kind, latency))
    rates = [
        len(window) / (WINDOW_S - (steal[k + 1] - steal[k]) / VCPUS)
        for k, window in enumerate(windows)
        if keep[k]
    ]
    kept = [sample for window in windows for sample in window]
    if not all(rates) or not kept:
        raise RuntimeError("a warm window completed no request")
    latencies = [latency for _, latency in kept]
    metrics = {
        "service.warm_rps": statistics.median(rates),
        "service.warm_p50_ms": percentile_ms(latencies, 0.5),
        "service.warm_p99_ms": percentile_ms(latencies, 0.99),
    }
    for kind in dict.fromkeys(kind for kind, _ in kept):
        metrics[f"service.{kind}_p50_ms"] = percentile_ms(
            [latency for each, latency in kept if each == kind], 0.5
        )
    info = {
        "warm_windows": len(keep),
        "warm_windows_counted": len(rates),
        "warm_samples_counted": len(kept),
        "warm_steal_per_window_s": [
            round(later - earlier, 2) for earlier, later in zip(steal, steal[1:])
        ],
    }
    return metrics, info


def run_suite(config: dict, seconds: float, env: dict, outcome: Outcome):
    """Cold pipelines, each in a fresh process, for about ``seconds``."""
    setups = [
        run_child({"kind": "setup", **config}, env)[0]
        for _ in range(SETUP_CHILDREN)
    ]
    samples: list[dict] = []
    wanted = 1
    start = time.perf_counter()
    while len(samples) < wanted:
        setup_s, result = run_child({"kind": "pipeline", **config}, env)
        if not samples:
            wanted = max(1, round(seconds / (time.perf_counter() - start)))
        check_pipeline(outcome, result, samples[0] if samples else None)
        setups.append(setup_s)
        samples.append(result)
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in samples),
        "fill_s": statistics.median(r["fill_s"] for r in samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
        "paper_agreement_pct": samples[0]["agreement_pct"],
    }
    info = {
        "pipeline_samples_s": [r["pipeline_s"] for r in samples],
        "pipeline_wall_s": statistics.median(r["pipeline_wall_s"] for r in samples),
        "setup_samples_s": setups,
        "outputs": outputs_of(samples[0]),
    }
    return metrics, info


def outputs_of(result: dict) -> dict:
    """What a perf change must leave alone, recorded with every run."""
    return {
        key: result[key]
        for key in ("matrix_sha256", "kaiser_pcs", "retained_variance", "bic_k",
                    "representatives", "agreement_pct")
    }


def serve_fill(server, reference: dict, outcome: Outcome) -> tuple[float, float]:
    """The cold ``/suite/matrix``, then ``/subset?k=`` and ``/subset?budget=``;
    checks every body and returns (fill seconds, fill + subset seconds).

    Both are wall times minus the guest's steal per vCPU over the same
    span: a cold fill keeps every vCPU busy (two pool workers)."""
    from pipeline import FIXED_K, matrix_digest
    from serving import served_matrix, steal_s

    start, steal = time.perf_counter(), steal_s()
    status, body, _ = server.get("/suite/matrix")
    fill_s = time.perf_counter() - start - (steal_s() - steal) / VCPUS
    outcome.check(
        status == 200
        and matrix_digest(*served_matrix(body)) == reference["matrix_sha256"],
        "served matrix differs from the in-process matrix",
    )
    budget = reference["budgets"][0]
    k_status, k_body, _ = server.get(f"/subset?k={FIXED_K}")
    b_status, b_body, _ = server.get(f"/subset?budget={budget!r}")
    pipeline_s = time.perf_counter() - start - (steal_s() - steal) / VCPUS
    outcome.check(
        k_status == 200
        and json.loads(k_body).get("representative_subset")
        == reference["fixed_k_representatives"],
        "served /subset?k= differs from the in-process subset",
    )
    outcome.check(
        b_status == 200
        and [pick["workload"] for pick in json.loads(b_body).get("selected", [])]
        == reference["selections"][repr(budget)],
        "served /subset?budget= differs from the in-process selection",
    )
    return fill_s, pipeline_s


def run_serve(config: dict, seconds: float, env: dict, tmp: Path, outcome: Outcome):
    """Fresh servers on empty stores for about ``seconds``, each taking a
    cold fill and the subsets, checked against an in-process pipeline of
    the same settings."""
    from serving import Server

    from repro.service.claims import ClaimRegistry

    _, reference = run_child({"kind": "pipeline", **config}, env)
    check_pipeline(outcome, reference, None)
    setups, fills, pipelines, peaks = [], [], [], []
    wanted = 1
    begin = time.perf_counter()
    while len(fills) < wanted:
        store = tmp / f"serve-store-{len(fills)}"
        store.mkdir()
        start = time.perf_counter()
        server = Server(env, str(store), config)
        try:
            server.wait_ready()
            setups.append(time.perf_counter() - start)
            fill_s, pipeline_s = serve_fill(server, reference, outcome)
            fills.append(fill_s)
            pipelines.append(pipeline_s)
            peaks.append(server.peak_rss_mb())
            runs = ClaimRegistry(str(store)).runs()
            if len(runs) != 1:
                raise RuntimeError(f"a fill ran {len(runs)} collections, not 1")
        finally:
            server.stop()
        if len(fills) == 1:
            wanted = max(1, round(seconds / (time.perf_counter() - begin)))
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(pipelines),
        "fill_s": statistics.median(fills),
        "peak_rss_mb": statistics.median(peaks),
        # The served matrix was checked equal to the reference above.
        "paper_agreement_pct": reference["agreement_pct"],
    }
    info = {
        "fill_samples_s": fills,
        "setup_samples_s": setups,
        "outputs": outputs_of(reference),
    }
    return metrics, info


def run_traced(config: dict, env: dict, tmp: Path, outcome: Outcome):
    """Untraced and traced cold pipelines, the fill replay, and the warm
    mix against a server on the replayed store."""
    from pipeline import matrix_digest
    from serving import Server, closed_loop, served_matrix, warm_requests

    _, untraced = run_child({"kind": "pipeline", **config}, env)
    check_pipeline(outcome, untraced, None)
    store = tmp / "replay-store"
    _, traced = run_child({"kind": "traced", "store": str(store), **config}, env)
    check_pipeline(outcome, traced, untraced)
    outcome.check(
        abs(traced["coverage_pct"] - 100.0) <= COVERAGE_TOLERANCE_PCT,
        f"layer times cover {traced['coverage_pct']:.1f}% of the traced wall",
    )
    replay = traced["replay"]
    for name, ok in replay.pop("checks").items():
        outcome.check(ok, f"replay check {name} failed")
    server = Server(env, str(store), config)
    try:
        server.wait_ready()
        status, body, _ = server.get("/suite/matrix")
        outcome.check(
            status == 200
            and matrix_digest(*served_matrix(body)) == untraced["matrix_sha256"],
            "served matrix differs from the in-process matrix",
        )
        mix = warm_requests(
            server, served_matrix(body)[0], untraced["budgets"]
        )
        samples, failed, steal = closed_loop(
            server, mix, CLIENTS, warm_enough, WINDOW_S
        )
    finally:
        server.stop()
    outcome.add(len(samples), failed, "warm response differs")
    warm, warm_info = warm_metrics(samples, steal)
    metrics = dict(traced["layers"])
    metrics.update(replay)
    metrics.update(warm)
    metrics["bench.coverage_pct"] = traced["coverage_pct"]
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        traced["pipeline_s"] / untraced["pipeline_s"] - 1.0
    )
    shares = {
        "arch": traced["layers"]["arch.plan_s"] + traced["layers"]["arch.simulate_s"],
        "stacks": traced["layers"]["stacks.busy_s"],
    }
    info = {
        "wall_s": traced["wall_s"],
        "untraced_pipeline_s": untraced["pipeline_s"],
        "shares_pct": {
            layer: 100.0 * value / traced["wall_s"] for layer, value in shares.items()
        },
        **warm_info,
        "outputs": outputs_of(traced),
    }
    return metrics, info


def environment(seed: int) -> dict:
    """The ledger's environment block plus load, versions and source."""
    import hashlib

    import numpy

    from repro.obs.ledger import environment_block

    env = environment_block()
    env["loadavg_1m"] = os.getloadavg()[0]
    env["numpy"] = numpy.__version__
    env["git_commit"] = None
    if (ROOT / ".git").exists():  # a checkout may be no repository at all
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["seed"] = seed
    return env


def measure(args) -> int:
    from serving import become_subreaper

    from repro.obs.ledger import append_record

    config = dict(WORKLOADS[args.workload], seed=args.seed)
    env_block = environment(args.seed)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=args.tmp_root))
    outcome = Outcome()
    become_subreaper()
    try:
        env = child_env(tmp)
        if args.trace:
            metrics, info = run_traced(config, env, tmp, outcome)
        elif args.workload == "serve":
            metrics, info = run_serve(config, args.seconds, env, tmp, outcome)
        else:
            metrics, info = run_suite(config, args.seconds, env, outcome)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics["correct_pct"] = outcome.correct_pct
    units = metric_units()[1 if args.trace else 0]
    metrics = {name: metrics[name] for name in units}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'end-to-end'}")
    for key in ("cpus_usable", "loadavg_1m", "python", "numpy", "git_commit"):
        print(f"  env.{key} = {env_block[key]}")
    for key, value in info.items():
        print(f"  {key} = {json.dumps(value, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for failure in outcome.failures[:10]:
        print(f"  FAILED: {failure}")

    outputs = info["outputs"]
    append_record(
        args.history,
        bench=f"perfbench/{args.workload}/{'trace' if args.trace else 'e2e'}",
        headline={
            **metrics,
            "attempted": outcome.attempted,
            "failed": len(outcome.failures),
            **{k: v for k, v in info.items() if isinstance(v, (int, float))},
            # The ledger keeps numbers only: the digest goes in as its
            # first 48 bits.
            "output.matrix_sha48": int(outputs["matrix_sha256"][:12], 16),
            **{f"output.{key}": outputs[key]
               for key in ("kaiser_pcs", "retained_variance", "bic_k")},
        },
        status="fail" if outcome.failures else "pass",
        failures=sorted(set(outcome.failures)),
        env=env_block,
    )
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", default=str(HERE / "history.jsonl"),
                        help="ledger file each run appends one record to")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two ledgers instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    # SIGTERM unwinds like an exception, so the finally blocks stop the
    # children and servers this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Everything the program writes to a temp dir stays in the checkout.
    args.tmp_root = ROOT / ".perfbench_tmp"
    args.tmp_root.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(args.tmp_root)
    tempfile.tempdir = None
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
