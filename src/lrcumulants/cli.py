"""Command-line front end: enumeration, scenario simulation, moment and
cumulant computation, and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Output is deterministic for fixed flags and seed; the JSON report's
``elapsed`` field is the one exception.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .deque import (
    ChiWord,
    combined_standings,
    pchi_by_enumeration,
    sigma_chi,
    simulate,
    standings_partitions,
)
from .fock import CoefficientTable, PolyScalar, VacuumMoments, _check_dense_size
from .lukasiewicz import LukPath, enumerate_luk
from .partitions import _check_ground_set, enumerate_noncrossing, enumerate_partitions
from .verify import SUITES, Check, cumulant_routes, moment_routes, run_suite


class UsageError(Exception):
    pass


class TableError(Exception):
    pass


@dataclass
class RunReport:
    command: str
    parameters: dict
    status: str = "pass"
    checks: List[Check] = field(default_factory=list)
    elapsed: float = 0.0
    results: dict = field(default_factory=dict)
    objects: Optional[list] = None
    instances: Optional[int] = None

    def finalize(self) -> None:
        self.status = "pass" if all(c.ok for c in self.checks) else "fail"


def _jsonable(value, docs: dict):
    """``value`` as a JSON document.  ``docs`` maps each symbolic value
    already turned into JSON for the same report to its document, so a
    value shown several times is converted once."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, docs) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v, docs) for k, v in value.items()}
    if isinstance(value, PolyScalar):  # hashed and compared by its terms
        doc = docs.get(value)
        if doc is None:
            doc = docs[value] = value.to_json()
        return doc
    return str(value)


def _render(report: RunReport, as_json: bool, stream) -> None:
    if as_json:
        docs: dict = {}  # local to this report: nothing is kept across calls
        doc = {
            "command": report.command,
            "parameters": _jsonable(report.parameters, docs),
            "status": report.status,
            "checks": [
                {
                    "name": c.name,
                    "expected": _jsonable(c.expected, docs),
                    "actual": _jsonable(c.actual, docs),
                    "ok": c.ok,
                }
                for c in report.checks
            ],
            "elapsed": round(report.elapsed, 6),
        }
        if report.results:
            doc["results"] = _jsonable(report.results, docs)
        if report.objects is not None:
            doc["objects"] = report.objects
        if report.instances is not None:
            doc["instances"] = report.instances
        # one line; without indent json uses its C encoder
        print(json.dumps(doc), file=stream)
        return
    print(f"command: {report.command}", file=stream)
    for key, value in report.parameters.items():
        print(f"{key}: {_text(value)}", file=stream)
    if report.objects is not None:
        for obj in report.objects:
            print(json.dumps(obj, separators=(",", ":")), file=stream)
    for key, value in report.results.items():
        print(f"{key}: {_text(value)}", file=stream)
    for c in report.checks:
        if c.ok:
            print(f"ok   {c.name}: {_text(c.actual)}", file=stream)
        else:
            print(
                f"FAIL {c.name}: expected {_text(c.expected)}, got {_text(c.actual)}",
                file=stream,
            )
    if report.instances is not None:
        print(f"instances: {report.instances}", file=stream)
    print(f"status: {report.status}", file=stream)


def _text(value) -> str:
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(_jsonable(value, {}), separators=(",", ":"))
    return str(value)  # PolyScalar and Fraction render as readable terms


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_chi(text: str) -> ChiWord:
    try:
        return ChiWord(text)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}") from err


def _load_table(args, n: int, omega: tuple) -> CoefficientTable:
    """The query's table.  A word longer than ``MAX_GROUND_SET`` is refused
    before a table is built, after a symbolic table too large to build, and
    so are a ``--d`` and an omega letter below 1."""
    if args.table and (args.symbolic or args.d is not None):
        raise UsageError("--table excludes --symbolic and --d: a table file sets its own d")
    if args.d is not None and args.d < 1:
        raise UsageError(f"--d must be a positive integer, got {args.d}")
    if min(omega) < 1:
        raise UsageError(f"--omega letters must be positive integers, got {min(omega)}")
    if args.table:
        _check_ground_set(n)
        try:
            table = CoefficientTable.from_file(args.table)
        except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as err:
            raise TableError(f"cannot load table {args.table}: {err}") from err
    else:  # default to the symbolic model
        d = args.d if args.d is not None else max(omega)
        _check_dense_size(d, n, "symbolic")
        _check_ground_set(n)
        table = CoefficientTable.symbolic(d, n)
    if any(not 1 <= i <= table.d for i in omega):
        raise UsageError(f"omega letters must lie in 1..{table.d}")
    return table


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> RunReport:
    report = RunReport("enumerate", {"kind": args.kind, "n": args.n})
    n = args.n
    if n is None:
        raise UsageError("enumerate requires --n")
    if args.kind == "pchi":
        if not args.chi:
            raise UsageError("enumerate pchi requires --chi")
        chi = _parse_chi(args.chi)
        if chi.n != n:
            raise UsageError(f"--chi has {chi.n} letters but --n is {n}")
        report.parameters["chi"] = chi.letters
        objects = [p.to_json() for p in pchi_by_enumeration(chi)]
    elif args.kind == "partitions":
        objects = [p.to_json() for p in sorted(enumerate_partitions(n))]
    elif args.kind == "noncrossing":
        objects = [p.to_json() for p in sorted(enumerate_noncrossing(n))]
    else:  # luk
        objects = [p.to_json() for p in sorted(enumerate_luk(n), key=lambda x: x.rise)]
    report.objects = objects
    report.instances = len(objects)
    report.checks.append(Check("count", len(objects), len(objects), True, 0))
    return report


def cmd_simulate(args) -> RunReport:
    rise = _parse_ints(args.rise, "--rise")
    chi = _parse_chi(args.chi)
    path = LukPath(rise)  # InvalidRiseVector propagates verbatim
    if path.n != chi.n:
        raise UsageError(f"rise-vector has {path.n} steps but chi has {chi.n} letters")
    report = RunReport("simulate", {"rise": list(rise), "chi": chi.letters})
    trace = simulate(path, chi)
    left, right = standings_partitions(trace)
    report.results = {
        "exit_order": list(trace.exit_order),
        "output_partition": trace.output_partition.to_json(),
        "left_standings": left.to_json() if left else None,
        "right_standings": right.to_json() if right else None,
        "combined_standings": combined_standings(trace).to_json(),
        "sigma_chi": sigma_chi(chi).to_json(),
    }
    return report


def _operator_query(args) -> RunReport:
    """``moment`` or ``cumulant``: the value of one bi-word by a first
    route, checked against a second.  A moment compares prop610's routes;
    a cumulant compares the Moebius sum with thm65's mixture
    coefficient."""
    chi = _parse_chi(args.chi)
    omega = _parse_ints(args.omega, "--omega")
    if len(omega) != chi.n:
        raise UsageError(f"--omega has {len(omega)} letters but --chi has {chi.n}")
    table = _load_table(args, chi.n, omega)
    report = RunReport(
        args.command,
        {"chi": chi.letters, "omega": list(omega), "table": args.table or "symbolic"},
    )
    vm = VacuumMoments(table)
    if args.command == "moment":
        check = "operator route equals partition-family route"
        pair = moment_routes(vm, chi.letters, omega)
    else:
        check = "mobius sum equals mixture coefficient"
        pair = cumulant_routes(vm, chi.letters, omega)
    value, other = (table.rational(v, chi.n) for v in pair)
    report.results["value"] = value
    report.checks.append(Check(check, other, value, value == other))
    return report


def cmd_verify(args) -> RunReport:
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    result = run_suite(args.suite, max_n=args.max_n, d=args.d, seed=args.seed)
    report = RunReport(
        "verify", {"suite": args.suite, **result.parameters}, checks=list(result.checks)
    )
    report.instances = result.instances
    report.elapsed = result.elapsed
    if result.instances == 0:
        report.checks.append(
            Check("non-empty sweep", "at least one instance", "zero instances", False, 0)
        )
    return report


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcum",
        description="Exact deque-scenario combinatorics and left-right cumulants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate partitions, paths, or families")
    p_enum.add_argument("kind", choices=["partitions", "noncrossing", "luk", "pchi"])
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--chi", type=str, default=None)
    p_enum.add_argument("--json", action="store_true")

    p_sim = sub.add_parser("simulate", help="run one deque scenario")
    p_sim.add_argument("--rise", type=str, required=True)
    p_sim.add_argument("--chi", type=str, required=True)
    p_sim.add_argument("--json", action="store_true")

    for name, help_text in (
        ("moment", "vacuum moment of a canonical-operator word, both routes"),
        ("cumulant", "chi-cumulant of a canonical-operator word vs its mixture"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--chi", type=str, required=True)
        p.add_argument("--omega", type=str, required=True)
        p.add_argument("--table", type=str, default=None)
        p.add_argument("--symbolic", action="store_true")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", type=str)
    p_ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_ver.add_argument("--d", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "simulate": cmd_simulate,
    "moment": _operator_query,
    "cumulant": _operator_query,
    "verify": cmd_verify,
}


#: The parser of :func:`main`, built on its first call and reused.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    start = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except TableError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as err:  # includes bad rise-vectors
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not report.elapsed:
        report.elapsed = time.perf_counter() - start
    report.finalize()
    _render(report, args.json, sys.stdout)
    return 0 if report.status == "pass" else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
