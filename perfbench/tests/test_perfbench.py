"""Tests of the benchmark itself: its gate catches injected defects, every
pass starts cold, traced counts repeat exactly, and BENCHMARK.json names
what the code reports.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402

PRELUDE = f"import dataclasses, sys\nsys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\nimport worker\n"


def injected(code: str):
    """A worker command that runs ``code`` in the worker process first."""

    def command(workload, seed, mode):
        script = PRELUDE + code + "\nsys.exit(worker.main(sys.argv[1:]))\n"
        return [sys.executable, "-c", script,
                "--workload", workload, "--seed", str(seed), "--mode", mode]

    return command


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_percentile_leaves_ten_samples_beyond():
    for count, pct in ((86, 88), (600, 98), (250_419, 99)):
        assert run.tail_percentile(count) == pct
        assert count * (100 - pct) / 100 >= 10
        assert pct == 99 or count * (100 - pct - 1) / 100 < 10


def test_percentile_counts_multiplicities():
    groups = [[5.0, 1], [1.0, 3]]
    assert run.percentile(groups, 50) == 1.0
    assert run.percentile(groups, 75) == 1.0
    assert run.percentile(groups, 76) == 5.0


def test_query_stream_is_seeded_and_mixed():
    queries = worker.make_queries(3, 600, "t.json")
    assert queries == worker.make_queries(3, 600, "t.json")
    assert queries != worker.make_queries(4, 600, "t.json")
    assert sum(q[0] == "cumulant" for q in queries) == 300
    assert sum("--table" in q for q in queries) == 450
    assert {len(q[2]) for q in queries} == {6, 7}


def test_warm_cache_at_start_is_refused():
    setup = worker.Setup(worker.WORKLOADS["family-sweep"], 0, str(BENCH))
    restriction_data = setup.deque.restriction_data
    restriction_data("lr")
    try:
        with pytest.raises(RuntimeError, match="warm"):
            worker.run_pass(worker.WORKLOADS["family-sweep"], 0)
    finally:
        restriction_data.cache_clear()


def test_lemma67_defect_fails_the_run(monkeypatch, capsys):
    defect = (
        "import lrcumulants.verify as verify\n"
        "vector = verify.lemma67_vector\n"
        "verify.lemma67_vector = lambda *a: {w: 2 * c for w, c in vector(*a).items()}\n"
        "fock = worker.WORKLOADS['fock-sweep']\n"
        "worker.WORKLOADS['fock-sweep'] = dataclasses.replace(fock, suites=fock.suites[:1])\n"
    )
    monkeypatch.setattr(run, "worker_command", injected(defect))
    code = run.main(["--workload", "fock-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_changed_table_entry_fails_the_digest(monkeypatch, capsys):
    defect = (
        "from lrcumulants.fock import CoefficientTable\n"
        "random_table = CoefficientTable.random\n"
        "CoefficientTable.random = lambda *a: random_table(*a).with_entry('a', (1, 2), 7)\n"
    )
    monkeypatch.setattr(run, "worker_command", injected(defect))
    code = run.main(["--workload", "query-stream", "--seed", "0", "--seconds", "1", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code != 0
    # both routes read the same changed table, so only the pinned digest catches it
    assert result["failed"] == 1 and result["attempted"] == 601


REDUCED = {
    "fock-sweep": "suites=tuple((s, dict(p, max_n=4) if p else p, 0) for s, p, _ in w.suites)",
    "family-sweep": "suites=tuple((s, {'max_n': 5}, 0) for s, _, _ in w.suites)",
    "query-stream": "queries=40",
}


def traced_counts(name: str) -> dict:
    script = PRELUDE + (
        "import json\n"
        f"w = worker.WORKLOADS[{name!r}]\n"
        f"w = dataclasses.replace(w, {REDUCED[name]})\n"
        "print(json.dumps(worker.run_pass(w, 5, 'trace')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, check=True)
    report = last_json(proc.stdout)
    return {
        "calls": {k: v[0] for k, v in report["spans"].items()},
        "caches": report["caches"],
        "scalar_ops": report["scalar_ops"],
    }


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_counts_repeat_exactly(name):
    first = traced_counts(name)
    assert first == traced_counts(name)
    assert sum(first["calls"].values()) > 0
    if name == "family-sweep":
        assert first["scalar_ops"] == {"fraction": 0, "poly": 0}


def test_tracer_restores_every_binding():
    setup = worker.Setup(worker.WORKLOADS["family-sweep"], 0, str(BENCH))
    verify, fock = setup.verify, setup.fock

    def bindings():
        return (verify.SUITES["thm65"], verify.lemma67_vector, fock.lemma67_vector,
                fock.VacuumMoments.__call__, fock.CoefficientTable.__dict__["from_file"],
                fock.PolyScalar.__mul__, Fraction.__add__)

    before = bindings()
    with worker.Tracer():
        assert all(a is not b for a, b in zip(bindings(), before))
        assert verify.lemma67_vector is fock.lemma67_vector
    assert bindings() == before


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
