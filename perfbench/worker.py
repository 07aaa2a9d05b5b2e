"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode {setup,pass,trace}

``setup`` imports the package and builds the workload's inputs, and only
reports how long that took.  ``pass`` also runs the timed part and checks
every result; ``trace`` does the same with every layer wrapped by
:class:`tracer.Tracer`.  The last line of standard output is one JSON
object.  The package is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import CACHED, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    # (suite, parameters, instances a correct run verifies); a "seed"
    # parameter is replaced by the run's seed
    suites: Tuple[Tuple[str, Dict, int], ...] = ()
    queries: int = 0


_FOCK = {"max_n": 6, "d": 2, "seed": 0}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fock-sweep",
            suites=(
                ("lemma67", _FOCK, 645_978),
                ("prop610", _FOCK, 5_958),
                ("thm65", _FOCK, 5_958),
                ("eq12x", {}, 16),
                ("eq12y", {}, 16),
                ("bifree", {}, 288),
            ),
        ),
        Workload(
            "family-sweep",
            suites=(
                ("thm49", {"max_n": 7}, 254),
                ("prop46", {"max_n": 7}, 64_978),
                ("lemma48", {"max_n": 7}, 64_978),
                ("prop413", {"max_n": 7}, 543),
                ("cor410", {"max_n": 5}, 119_666),
            ),
        ),
        Workload("query-stream", queries=600),
    )
}

# query-stream inputs
QUERY_LENGTHS = (6, 7)
QUERY_D = 2
TABLE_N_O = 7
# sha256 over the query values, per (number of queries, seed)
PINNED_DIGESTS: Dict[Tuple[int, int], str] = {
    (600, 0): "51b2587e0b75e1e22beb33924a89302cc6668385cacc3f452c7769724c4cdd42",
}


# On a shared 2-vCPU Intel Xeon cloud host the interpreter's speed flipped
# between two levels about 1.7x apart from one second to the next, and the
# share of time at each drifted over minutes: a fixed sweep took 0.45-0.85 s
# over 100 s of repeats.  So a pass times a short fixed reference loop every
# PROBE_PERIOD_S and reports its timings scaled to the speed at which that
# loop takes PROBE_REFERENCE_S; the raw wall times are reported beside them.
PROBE_PERIOD_S = 0.1
PROBE_REFERENCE_S = 0.001
_fraction_add = Fraction.__add__  # bound before tracing, so the tracer never counts it


def reference_loop(rounds: int = 750) -> Fraction:
    """Fixed interpreter work of the program's kind: tuple keys, dict
    updates and Fraction sums.  The garbage collector is held off, so the
    loop never pays for collecting the program's objects."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        counts: Dict[Tuple[int, int], int] = {}
        acc = Fraction(0)
        for i in range(rounds):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            if i % 4 == 0:
                acc = _fraction_add(acc, Fraction(i % 7 + 1, i % 5 + 1))
        return acc
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Runs the reference loop on entry, on exit and from a SIGALRM handler
    every PROBE_PERIOD_S in between; ``spent`` is the time it took, which
    the timings subtract."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def tick(self, *_) -> None:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        self.tick()
        self._handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.tick()

    def speed(self) -> float:
        """Mean speed relative to the reference over the probed interval."""
        return statistics.mean(PROBE_REFERENCE_S / t for t in self.samples)

    def measure(self, fn, *args, **kwargs) -> Tuple[object, float]:
        """Call fn and return its result and its duration without the probe."""
        spent = self.spent
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start - (self.spent - spent)


class Setup:
    """The imported package modules and the workload's inputs."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.verify = importlib.import_module("lrcumulants.verify")
        self.cli = importlib.import_module("lrcumulants.cli")
        self.deque = importlib.import_module("lrcumulants.deque")
        self.fock = importlib.import_module("lrcumulants.fock")
        if not Path(self.verify.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"lrcumulants imported from {self.verify.__file__}, not {SRC}")
        self.suites = [
            (name, {k: seed if k == "seed" else v for k, v in params.items()}, pinned)
            for name, params, pinned in workload.suites
        ]
        self.queries: List[List[str]] = []
        if workload.queries:
            table_path = str(Path(workdir) / "table.json")
            table = self.fock.CoefficientTable.random(QUERY_D, TABLE_N_O, seed)
            with open(table_path, "w", encoding="utf-8") as handle:
                json.dump(table.to_json(), handle)
            self.queries = make_queries(seed, workload.queries, table_path)

    def cache_info(self) -> Dict[str, object]:
        return {
            f"{module}.{name}": getattr(getattr(self, module), name).cache_info()
            for module, name in CACHED
        }


def _split(total: int, parts: int) -> List[int]:
    return [total // parts + (i < total % parts) for i in range(parts)]


def make_queries(seed: int, count: int, table_path: str) -> List[List[str]]:
    """Half cumulant, half moment queries; three quarters against the
    table file, one quarter symbolic; chi lengths split evenly.  These
    shares are exact, so seeds differ only in order, letters and indices;
    chi letters and the index word are drawn uniformly."""
    rng = random.Random(seed)
    table = ["--table", table_path]
    symbolic = ["--symbolic", "--d", str(QUERY_D)]
    strata = []
    for command, k in zip(("cumulant", "moment"), _split(count, 2)):
        for source, m in ((table, 3 * k // 4), (symbolic, k - 3 * k // 4)):
            for n, j in zip(QUERY_LENGTHS, _split(m, len(QUERY_LENGTHS))):
                strata += [(command, source, n)] * j
    rng.shuffle(strata)
    queries = []
    for command, source, n in strata:
        chi = "".join(rng.choice("lr") for _ in range(n))
        omega = ",".join(str(rng.randint(1, QUERY_D)) for _ in range(n))
        queries.append([command, "--chi", chi, "--omega", omega, *source, "--json"])
    return queries


class Outcome:
    """Checks attempted and failed in one pass, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


def run_suites(setup: Setup, probe: SpeedProbe, outcome: Outcome,
               latencies: List[List[float]]) -> Dict[str, float]:
    """Run the suites in order.  A query here is one verified instance, and
    its latency is its suite's time divided by the suite's instances."""
    elapsed: Dict[str, float] = {}
    for name, params, pinned in setup.suites:
        try:
            result, elapsed[name] = probe.measure(setup.verify.run_suite, name, **params)
        except Exception as err:  # a crashing suite is a failed suite
            outcome.check(False, f"{name}: {type(err).__name__}: {err}")
            continue
        if result.instances:
            latencies.append([elapsed[name] / result.instances, result.instances])
        for c in result.checks:
            outcome.check(c.ok, f"{name} {c.name}: expected {c.expected}, got {c.actual}")
        outcome.check(
            result.instances == pinned,
            f"{name}: {result.instances} instances verified, {pinned} expected",
        )
    return elapsed


def run_queries(setup: Setup, probe: SpeedProbe, outcome: Outcome,
                latencies: List[List[float]], seed: int) -> str:
    """Closed loop with one client: each query starts after the previous
    reply has been read and checked."""
    def query(argv: List[str]) -> object:
        try:
            return setup.cli.main(argv)
        except Exception as err:  # a crashing query is a failed query
            return f"{type(err).__name__}: {err}"

    digest = hashlib.sha256()
    for argv in setup.queries:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, elapsed = probe.measure(query, argv)
        latencies.append([elapsed, 1])
        ok = code == 0
        if ok:
            reply = json.loads(out.getvalue())
            ok = reply["status"] == "pass" and all(c["ok"] for c in reply["checks"])
            digest.update(json.dumps(reply["results"]["value"], sort_keys=True).encode())
            digest.update(b"\n")
        outcome.check(ok, f"{' '.join(argv)}: exit {code}")
    value = digest.hexdigest()
    expected = PINNED_DIGESTS.get((len(setup.queries), seed))
    if expected is not None:
        outcome.check(value == expected, f"query values digest {value} != pinned {expected}")
    return value


def run_pass(workload: Workload, seed: int, mode: str = "pass") -> dict:
    """Set up, then (unless mode is "setup") run and check the timed part.

    Timings exclude the speed probe.  ``sweep_s`` and ``latencies_ms`` are
    scaled by the pass's mean speed relative to the probe's reference;
    ``sweep_wall_s`` and the per-suite ``suites`` times are not.
    """
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        start = time.perf_counter()
        setup = Setup(workload, seed, workdir)
        report: dict = {"mode": mode, "setup_s": time.perf_counter() - start}
        cold = {name: info.currsize for name, info in setup.cache_info().items()}
        if any(cold.values()):
            raise RuntimeError(f"caches are warm at the start of the pass: {cold}")
        if mode == "setup":
            return report
        outcome = Outcome()
        latencies: List[List[float]] = []  # [seconds, number of queries]
        tracer: Optional[Tracer] = Tracer() if mode == "trace" else None
        cpu = time.process_time()
        with tracer or contextlib.nullcontext(), SpeedProbe() as probe:
            if workload.queries:
                report["digest"], wall = probe.measure(
                    run_queries, setup, probe, outcome, latencies, seed)
            else:
                report["suites"], wall = probe.measure(
                    run_suites, setup, probe, outcome, latencies)
        speed = probe.speed()
        report["cpu_s"] = time.process_time() - cpu - probe.spent
        report["sweep_wall_s"] = wall
        report["speed"] = speed
        report["probes"] = len(probe.samples)
        report["sweep_s"] = wall * speed
        report["latencies_ms"] = [[1000 * t * speed, k] for t, k in latencies]
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["attempted"] = outcome.attempted
        report["failed"] = outcome.failed
        report["failures"] = outcome.failures
        if tracer is not None:
            report["spans"] = tracer.stats()
            report["scalar_ops"] = tracer.scalar_ops
            report["caches"] = {
                name: {"hits": info.hits, "misses": info.misses}
                for name, info in setup.cache_info().items()
            }
        return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), default="pass")
    args = parser.parse_args(argv)
    report = run_pass(WORKLOADS[args.workload], args.seed, args.mode)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
