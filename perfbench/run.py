"""Benchmark for lrcumulants: one workload per run, every pass in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined in ``worker.py``):

- ``fock-sweep``: the operator-model suites lemma67, prop610, thm65, eq12x,
  eq12y and bifree through ``verify.run_suite`` at max_n=6, d=2 (bifree at
  its defaults), in one process, so the moment memo is shared between
  suites.  The seed picks the random coefficient table.
- ``family-sweep``: thm49, prop46, lemma48 and prop413 at max_n=7 and
  cor410 at max_n=5: partitions, Lukasiewicz paths and deque scenarios,
  with no scalar arithmetic.  These sweeps are exhaustive, so the seed
  changes nothing.
- ``query-stream``: a closed loop with one client issuing 600 single
  ``cumulant``/``moment`` queries in-process through ``cli.main``, against
  a seeded table file written at set-up or the symbolic table.

With ``--trace 0`` the run sets the workload up several times in fresh
processes (``setup_s`` is their median), then runs whole passes, each in a
fresh process, and starts another only while the last pass's duration
still fits in ``--seconds``; at least one pass runs.  It reports the
end-to-end metrics as medians over passes.

Times are scaled to a reference speed: a pass runs a short fixed loop every
0.1 s (see ``worker.SpeedProbe``) and multiplies its times, which exclude
that loop, by the mean speed the loop measured.  The raw wall times are
printed beside them.  On the sweeps a "query" is one verified instance, and
its latency is its suite's time divided by the suite's instances.
``query_p50_ms`` and ``query_tail_ms`` are nearest-rank percentiles; the
tail is the highest whole percentile with at least 10 queries beyond it:
p99 of 658,214 instances on fock-sweep, p99 of 250,419 on family-sweep,
p98 of 600 queries on query-stream.

With ``--trace 1`` the run makes one traced pass, with every public
function and method of the layer modules wrapped (see ``tracer.py``), and
one untraced pass, and reports the per-layer metrics and the tracing
overhead.  Per-layer times are raw seconds; the speed loop's time lands in
the self time of whichever span it interrupts, about 1%.

Every pass checks its results: each suite must pass with its pinned
instance count, and each query must exit 0 with its two-route check ok and
the query values must match the pinned digest.  Any failure is counted in
``failed`` and makes the command exit 1.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment, each pass and
``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracer import CACHED
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 8  # half before the passes, half after
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SPAN_LAYERS = (
    "cumulants.CumulantEngine.cumulant",
    "fock.VacuumMoments.__call__",
    "fock.VacuumMoments.precompute",
    "fock.moment_via_pchi",
    "fock.lemma67_vector",
    "fock.CoefficientTable.from_file",
    "cli.main",
    "deque.simulate",
    "deque.insertion_standings",
    "deque.combined_standings",
    "deque.pchi_by_enumeration",
    "deque.pchi_by_sigma",
    "partitions.enumerate_noncrossing",
    "partitions.act",
    "partitions.leq",
    "partitions.meet",
    "partitions.is_noncrossing",
    "lukasiewicz.enumerate_luk",
    "lukasiewicz.psi",
)
SUITES = [suite for w in WORKLOADS.values() for suite, _, _ in w.suites]
CACHED_NAMES = [f"{module}.{name}" for module, name in CACHED]


def layer_metrics(traced: dict, plain: dict) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced pass, with units; the untraced
    pass ``plain`` gives the tracing overhead."""
    spans = traced["spans"]
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_LAYERS:
        calls, total, self_time = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_time, "s")
    metrics["fock.CoefficientTable.coeff.calls"] = (
        spans.get("fock.CoefficientTable.coeff", (0,))[0], "count")
    for cached in CACHED_NAMES:
        for field in ("hits", "misses"):
            metrics[f"{cached}.{field}"] = (traced["caches"][cached][field], "count")
    for kind in ("fraction", "poly"):
        metrics[f"scalar.{kind}_ops"] = (traced["scalar_ops"][kind], "count")
    suites = traced.get("suites", {})
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = (suites.get(suite, 0.0), "s")
        metrics[f"verify.{suite}.self_s"] = (
            spans.get(f"verify.suite_{suite}", (0, 0.0, 0.0))[2], "s")
    metrics["trace.overhead_frac"] = (traced["sweep_s"] / plain["sweep_s"] - 1, "ratio")
    return metrics


_NO_TRACE = {
    "spans": {},
    "caches": {name: {"hits": 0, "misses": 0} for name in CACHED_NAMES},
    "scalar_ops": {"fraction": 0, "poly": 0},
    "sweep_s": 1.0,
}
PER_LAYER = {name: unit for name, (_, unit) in layer_metrics(_NO_TRACE, _NO_TRACE).items()}


class WorkerError(RuntimeError):
    pass


def worker_command(workload: str, seed: int, mode: str) -> List[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode]


def spawn(command: Sequence[str], deadline: float) -> dict:
    """Run one worker to completion and return its report, with its wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            list(command), capture_output=True, text=True, timeout=max(1.0, deadline - start),
            env={**os.environ, "PYTHONHASHSEED": "0"}, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"the run exceeded {RUN_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["process_s"] = time.perf_counter() - start
    return report


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least 10 samples beyond it."""
    return max(1, int(100 - 1000 / count)) if count > 10 else 0


def percentile(groups: Sequence[Sequence[float]], pct: int) -> float:
    """Nearest-rank percentile of [value, multiplicity] groups: an observed value."""
    ordered = sorted(groups)
    rank = max(1, ceil(pct / 100 * sum(k for _, k in ordered)))
    for value, k in ordered:
        rank -= k
        if rank <= 0:
            return value
    raise ValueError("no samples")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=ROOT, timeout=30)
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple:
    """Set-up probes around whole passes, which run while they fit in ``seconds``."""

    def probes(count: int) -> List[float]:
        return [spawn(worker_command(workload, seed, "setup"), deadline)["setup_s"]
                for _ in range(count)]

    setups = probes(SETUP_PROBES // 2)
    passes: List[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(spawn(worker_command(workload, seed, "pass"), deadline))
        if time.perf_counter() - start + passes[-1]["process_s"] > seconds:
            break
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2) + [p["setup_s"] for p in passes]
    count = sum(k for _, k in passes[0]["latencies_ms"])
    pct = tail_percentile(count)
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(p["sweep_s"] for p in passes),
        "query_p50_ms": statistics.median(percentile(p["latencies_ms"], 50) for p in passes),
        "query_tail_ms": statistics.median(percentile(p["latencies_ms"], pct) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"{len(setups)} set-ups, {len(passes)} pass(es)",
             f"query_tail_ms is p{pct} of {count} queries per pass"]
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def trace(workload: str, seed: int, deadline: float) -> tuple:
    """One traced pass and one untraced pass, for the tracing overhead."""
    traced = spawn(worker_command(workload, seed, "trace"), deadline)
    plain = spawn(worker_command(workload, seed, "pass"), deadline)
    top = sorted(traced["spans"].items(), key=lambda kv: -kv[1][2])[:25]
    notes = [f"span {name:<48} calls {c:>9}  total {t:9.3f} s  self {s:9.3f} s"
             for name, (c, t, s) in top]
    return [traced, plain], layer_metrics(traced, plain), notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lrcumulants" / "__init__.py").is_file():
        print(f"error: no lrcumulants package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = environment(args.seed)
    try:
        if args.trace:
            passes, metrics, notes = trace(args.workload, args.seed, deadline)
        else:
            passes, metrics, notes = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    env["loadavg_end"] = os.getloadavg()
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for p in passes:
        print(f"pass ({p['mode']}): sweep_s {p['sweep_s']:.3f} s at speed {p['speed']:.3f} "
              f"(wall {p['sweep_wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, {p['probes']} probes; "
              f"process {p['process_s']:.3f} s)")
        for suite, elapsed in p.get("suites", {}).items():
            print(f"suite {suite:<8} {elapsed:9.3f} s wall")
        if "digest" in p:
            print(f"query values sha256 {p['digest']}")
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<42} {failed / attempted:>14.6g} ({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
