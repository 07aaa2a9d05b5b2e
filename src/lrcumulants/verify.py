"""Exhaustive verification suites behind the command-line ``verify`` command.

Every suite sweeps a stated range of instances, compares two independently
computed values per instance, and returns a :class:`SuiteResult` whose
checks aggregate instances into readable units (one check per word or per
cell).  Counterexamples are recorded in full so a failure can be replayed
with the ``simulate``/``moment``/``cumulant`` commands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import product, zip_longest
from math import factorial
from operator import attrgetter, mul
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from .cumulants import CumulantEngine, is_combinatorially_bifree_upto, mobius_cumulant
from .deque import (
    ChiWord,
    block_entry,
    chi_opposite,
    combined_standings,
    family,
    pchi_by_enumeration,
    pchi_by_sigma,
    replays,
    sigma_chi,
    tau_u,
)
from .fock import (
    CoefficientTable,
    PolyScalar,
    VacuumMoments,
    bimixture_symbol,
    bimixture_template,
    lemma67_vector,
    moment_via_pchi,
    moment_via_sigma,
    reverse_mixture_plan_for_blocks,
)
from .lukasiewicz import InvalidRiseVector, LukPath, enumerate_luk, psi_rise
from .partitions import (
    MAX_GROUND_SET,
    Permutation,
    act,
    enumerate_noncrossing,
    enumerate_partitions,
    is_noncrossing,
    leq,
    meet,
    one_block,
    singletons,
)


@dataclass
class Check:
    name: str
    expected: object
    actual: object
    ok: bool
    instances: int = 1


@dataclass
class SuiteResult:
    """One suite's checks; ``instances`` sums the instances each check verified."""

    suite: str
    parameters: dict
    checks: List[Check] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def instances(self) -> int:
        return sum(c.instances for c in self.checks)

    @property
    def passed(self) -> bool:
        # an empty sweep is a failure: it verified nothing
        return self.instances > 0 and all(c.ok for c in self.checks)

    def add(self, name: str, expected, actual, ok: Optional[bool] = None, instances: int = 1) -> None:
        ok = expected == actual if ok is None else ok
        self.checks.append(Check(name, expected, actual, ok, instances))

    def add_sweep(self, name: str, summary: str, count: int, failures: List[str]) -> None:
        """One check over ``count`` instances: ``summary`` if none failed,
        else the first three failures."""
        self.add(name, summary, failures[:3] or summary, not failures, count)


def catalan(n: int) -> int:
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def all_chi(n: int) -> List[ChiWord]:
    return [ChiWord("".join(w)) for w in product("lr", repeat=n)]


# ---------------------------------------------------------------------------
# shared tables (a table is a pure function of (kind, d, n_o, seed), so
# cells and suites share its moment engine and what the engine keeps)
# ---------------------------------------------------------------------------


_SHARED: Dict[tuple, VacuumMoments] = {}
SYMBOLIC_N_O = 5  # the longest symbolic cell: one symbolic table per d covers them all


def shared(kind: str, d: int, n_o: int, seed: Optional[int] = None) -> VacuumMoments:
    """The process-wide :class:`VacuumMoments` of the table (kind, d, n_o,
    seed); ``vm.table`` is the table."""
    key = (kind, d, n_o, seed)
    vm = _SHARED.get(key)
    if vm is None:
        if kind == "symbolic":
            table = CoefficientTable.symbolic(d, n_o)
        elif kind == "random":
            table = CoefficientTable.random(d, n_o, seed)
        elif kind == "separated":
            table = CoefficientTable.separated_random(d, n_o, seed)
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        vm = _SHARED[key] = VacuumMoments(table)
    return vm


def _fock_cells(max_n: int, d: int, seed: int) -> List[Tuple[str, int, VacuumMoments]]:
    """(label, n, engine) cells every operator-model suite sweeps, with
    every engine built before the sweep starts.

    Symbolic cells stay small (full formal expansion); concrete cells with
    seeded random rationals cover the full requested range.  Each d has
    one table of each kind, covering every length of its cells.  A d
    below 1 is refused before any table is built, whatever max_n.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    cells = [("symbolic", n, min(d, 2)) for n in range(1, min(max_n, 4) + 1)]
    if max_n >= 5:
        cells.append(("symbolic", 5, 1))
    cells += [("random", n, dd) for dd in range(1, d + 1) for n in range(1, max_n + 1)]
    return [
        (f"{mode} n={n} d={dd}", n,
         shared(mode, dd, SYMBOLIC_N_O) if mode == "symbolic" else shared(mode, dd, max_n, seed))
        for mode, n, dd in cells
    ]


# ---------------------------------------------------------------------------
# combinatorial suites
# ---------------------------------------------------------------------------


def _scenarios(chi: ChiWord, paths: list, traces, failures: List[str]):
    """chi's paths paired in order with its replay's traces, the scenarios
    to check; a replay with more or fewer traces than paths adds a failure
    naming chi."""
    for path, trace in zip_longest(paths, traces):
        if path is None or trace is None:
            more = "more" if path is None else "fewer"
            failures.append(f"chi={chi}: the replay yields {more} traces than its {len(paths)} paths")
            return
        yield path, trace


def _families(n: int):
    """(chi, family) for every chi of length n, in ``all_chi`` order, each
    family read off the scenarios of one all-chi replay."""
    for chi, traces in replays(n):
        yield chi, family(chi, [trace.output_partition for trace in traces])


def suite_thm49(max_n: int = 6, **_) -> SuiteResult:
    """Scenario-enumeration route and permutation-action route build the
    same partition family, of Catalan size, for every chi."""
    result = SuiteResult("thm49", {"max_n": max_n})
    for n in range(1, max_n + 1):
        for chi, by_enum in _families(n):
            by_sigma = pchi_by_sigma(chi)
            ok = by_enum == by_sigma and len(by_enum) == catalan(n)
            detail = f"{len(by_enum)} partitions via both routes"
            if not ok:
                only_enum = [p.to_json() for p in by_enum if p not in by_sigma]
                only_sigma = [p.to_json() for p in by_sigma if p not in by_enum]
                detail = f"enumeration-only={only_enum} sigma-only={only_sigma}"
            result.add(
                f"n={n} chi={chi}",
                f"{catalan(n)} partitions via both routes",
                detail,
                ok,
            )
    return result


def _scenario_sweep(suite: str, max_n: int, summary: str, checker: Callable) -> SuiteResult:
    """One check per chi of length 1..max_n over chi's scenarios from the
    all-chi replay: ``checker(chi)`` gives the check each scenario's
    (path, trace, failures) goes to, which appends its failures."""
    result = SuiteResult(suite, {"max_n": max_n})
    for n in range(1, max_n + 1):
        paths = enumerate_luk(n)
        for chi, traces in replays(n):
            check = checker(chi)
            failures: List[str] = []
            checked = 0
            for checked, (path, trace) in enumerate(_scenarios(chi, paths, traces, failures), 1):
                check(path, trace, failures)
            result.add_sweep(f"n={n} chi={chi}", f"{checked} {summary}", checked, failures)
    return result


def suite_prop46(max_n: int = 6, **_) -> SuiteResult:
    """Per scenario: the combined-standings partition is non-crossing, its
    last-insertion block is an interval, and the output-time partition maps
    back to the path."""
    def check(path, trace, failures: List[str]) -> None:
        rho = combined_standings(trace)
        if not is_noncrossing(rho):
            failures.append(f"rise={list(path.rise)}: crossing {rho.to_json()}")
        # the combined-standings block of the last insertion time
        block = sorted(map(trace.chi.slot.__getitem__, trace.output_partition.blocks[-1]))
        if block != list(range(block[0], block[-1] + 1)):
            failures.append(f"rise={list(path.rise)}: block {block} not an interval")
        # the output partition's canonical rises; only a mismatch is
        # validated, to tell a wrong path from none
        rise = psi_rise(trace.output_partition)
        if rise != path.rise:
            try:
                LukPath(rise)
            except InvalidRiseVector as err:
                failures.append(f"rise={list(path.rise)}: output partition has no path: {err}")
            else:
                failures.append(f"rise={list(path.rise)}: wrong canonical path")

    summary = "scenarios, all non-crossing/interval/path-consistent"
    return _scenario_sweep("prop46", max_n, summary, lambda chi: check)


def _batched_exit_times(rise: Tuple[int, ...], exit_order: Tuple[int, ...]) -> tuple:
    """The output-time partition's canonical blocks, read off the exit
    order alone: the exit times of each batch of balls the rises insert."""
    exit_time = [0] * (len(exit_order) + 1)
    for t, ball in enumerate(exit_order, start=1):
        exit_time[ball] = t
    blocks = []
    lo = 1
    for q in rise:
        if q >= 0:
            blocks.append(tuple(sorted(exit_time[lo:lo + q + 1])))
            lo += q + 1
    return tuple(sorted(blocks))


def suite_lemma48(max_n: int = 6, **_) -> SuiteResult:
    """The chi permutation carries the combined-standings partition onto
    the output-time partition, for every scenario.

    The output-time partition is recomputed from the exit order and the
    path's batches, not taken from the trace, whose blocks the standings
    are read off.  An exit order that repeats a ball misses another, whose
    exit time stays 0 in these blocks, and no image of a partition of
    {1..n} contains 0.
    """
    def checker(chi: ChiWord) -> Callable:
        sigma = sigma_chi(chi)

        def check(path, trace, failures: List[str]) -> None:
            image = act(sigma, combined_standings(trace))
            out = _batched_exit_times(path.rise, trace.exit_order)
            if image.blocks != out:
                failures.append(
                    f"rise={list(path.rise)}: {image.to_json()} != {[list(b) for b in out]}"
                )

        return check

    return _scenario_sweep("lemma48", max_n, "scenarios mapped onto their output partitions", checker)


def suite_prop413(max_n: int = 6, **_) -> SuiteResult:
    """Reversing chi mirrors the family; the reversed-word permutation
    factors through the two-sided reversal; the block-reversal permutation
    stabilizes the non-crossing family."""
    result = SuiteResult("prop413", {"max_n": max_n})
    for n in range(1, max_n + 1):
        nc = set(enumerate_noncrossing(n))
        for u in range(n + 1):
            tau = tau_u(n, u)
            image = {act(tau, p) for p in nc}
            result.add(
                f"n={n} u={u} reversal stabilizes non-crossing family",
                "stable",
                "stable" if image == nc else sorted(p.to_json() for p in image - nc),
                image == nc,
            )
        rev = Permutation.reversal(n)
        for first in all_chi(n):
            opp = chi_opposite(first)
            if opp.letters < first.letters:
                continue  # the pair was checked when opp came first
            # one family per word of the pair, each checked against the other
            pair = {w: pchi_by_enumeration(w) for w in dict.fromkeys((first, opp))}
            for chi, family in pair.items():
                opp = chi_opposite(chi)
                mirrored = sorted([act(rev, p) for p in family], key=attrgetter("blocks"))
                ok = mirrored == pair[opp]
                result.add(
                    f"n={n} chi={chi} mirrored family",
                    "families agree",
                    "families agree" if ok else "families differ",
                    ok,
                )
                u = len(chi.m_ell)
                lhs = sigma_chi(opp)
                rhs = rev.compose(sigma_chi(chi)).compose(tau_u(n, u))
                result.add(
                    f"n={n} chi={chi} permutation factorization",
                    list(lhs.images),
                    list(rhs.images),
                )
    return result


def suite_cor410(max_n: int = 5, **_) -> SuiteResult:
    """Families contain the extremes and every partition one merge away
    from singletons; the permutation action is an order isomorphism from
    the non-crossing partitions onto the enumerated family; meets stay
    inside the family.

    Membership catches a family that lacks a partition every family
    holds.  ``leq`` and ``meet`` commute with every relabelling and NC(n)
    is meet-closed, so once thm49 holds (the family is sigma_chi . NC(n))
    the order-isomorphism and meet-closure checks can fail only through a
    defect in ``act``, ``leq`` or ``meet``."""
    result = SuiteResult("cor410", {"max_n": max_n})
    for n in range(1, max_n + 1):
        nc = enumerate_noncrossing(n)
        almost_discrete = [
            p for p in enumerate_partitions(n) if p.block_count() == n - 1
        ]
        for chi, fam in _families(n):
            fam = set(fam)
            missing = [
                p.to_json()
                for p in [singletons(n), one_block(n), *almost_discrete]
                if p not in fam
            ]
            result.add(
                f"n={n} chi={chi} membership",
                "extremes and near-discrete partitions present",
                missing or "extremes and near-discrete partitions present",
                not missing,
            )
            sigma = sigma_chi(chi)
            images = [act(sigma, p) for p in nc]
            inside = [image in fam for image in images]
            order_bad = 0
            for p, image_p, p_inside in zip(nc, images, inside):
                for q, image_q, q_inside in zip(nc, images, inside):
                    if not (p_inside and q_inside) or leq(p, q) != leq(image_p, image_q):
                        order_bad += 1
            result.add(
                f"n={n} chi={chi} order isomorphism",
                f"{len(nc) ** 2} comparisons preserved",
                f"{len(nc) ** 2 - order_bad} comparisons preserved",
                order_bad == 0,
                len(nc) ** 2,
            )
            fam_sorted = sorted(fam)
            meet_bad = [
                (p.to_json(), q.to_json())
                for p in fam_sorted
                for q in fam_sorted
                if meet(p, q) not in fam
            ]
            result.add(
                f"n={n} chi={chi} meet closure",
                "closed under block-intersection meets",
                meet_bad[:3] or "closed under block-intersection meets",
                not meet_bad,
                len(fam) ** 2,
            )
    return result


# ---------------------------------------------------------------------------
# operator-model suites
# ---------------------------------------------------------------------------


class _Strips(tuple):
    """The stand-in coefficient of :func:`_strip_plan`: the (kind,
    0-based positions) blocks its strips read.  The product of two is
    their concatenation; any other product is a plain tuple."""

    __slots__ = ()

    @classmethod
    def read(cls, kind: str, word) -> "_Strips":
        # omega = (1, ..., n), so the stripped word spells its positions
        return cls([(kind, tuple([m - 1 for m in word]))])

    def __mul__(self, other):
        return _Strips(self + other)


def _strip_plan(path, chi: ChiWord) -> Optional[tuple]:
    """The operator side of Lemma 6.7 for (chi, path) as a sorted plan;
    None unless it is one recorded product times the vacuum.

    One run of ``lemma67_vector`` on omega = (1, ..., n) against a
    stand-in table over d = n letters records it, one block per strip.
    The run covers every omega: which positions each strip reads, and
    whether it fits, depend on chi and the path alone, never on omega's
    letters, so at any omega the product is the product of the plan's
    blocks read at omega.
    """
    n = chi.n
    stand_in = SimpleNamespace(d=n, coeff=_Strips.read)
    vec = lemma67_vector(path, chi, tuple(range(1, n + 1)), stand_in)
    strips = vec.get(())
    if len(vec) != 1 or type(strips) is not _Strips:
        return None
    return tuple(sorted(strips))


def suite_lemma67(max_n: int = 4, d: int = 2, seed: int = 0, **_) -> SuiteResult:
    """Alternating annihilation-block/creator products applied to the
    vacuum give the product of reverse-mixtures over the scenario's
    output-time partition."""
    result = SuiteResult("lemma67", {"max_n": max_n, "d": d, "seed": seed})
    cells = _fock_cells(max_n, d, seed)
    if max_n >= 5 and d >= 2:  # single-track products stay cheap
        cells.insert(0, ("symbolic n=5 d=2", 5, shared("symbolic", 2, SYMBOLIC_N_O)))
    # per n: the replay's trace-count failures, every (chi, path) with the
    # index of its pair, every distinct (strip plan, reverse-mixture plan)
    # pair in first-seen order, and every distinct (kind, order) block of
    # the pairs, recorded once from one all-chi replay and shared by the
    # cells of that n
    scenarios: Dict[int, Tuple[List[str], List[tuple], List[tuple], Dict[tuple, tuple]]] = {}
    for label, n, vm in cells:
        table = vm.table
        omegas = vm.omegas(n)
        if n not in scenarios:
            paths = enumerate_luk(n)
            walk_fail: List[str] = []
            pairs: Dict[tuple, int] = {}
            blocks: Dict[tuple, tuple] = {}  # each distinct (kind, order) block of the pairs
            indexed = []
            for chi, traces in replays(n):
                # a chi has at most 2**n - 1 distinct blocks, where its
                # scenarios have one per insertion: each is built once
                entries = cache(partial(block_entry, chi_str=chi.letters))
                for path, trace in _scenarios(chi, paths, traces, walk_fail):
                    pair = _strip_plan(path, chi), reverse_mixture_plan_for_blocks(
                        tuple(map(entries, trace.output_partition.blocks)))
                    k = pairs.get(pair)
                    if k is None:  # kept for the whole suite: its plans share each distinct block
                        pair = tuple([None if plan is None else tuple(map(blocks.setdefault, plan, plan))
                                      for plan in pair])
                        k = pairs[pair] = len(pairs)
                    indexed.append((chi, path, k))
            scenarios[n] = walk_fail, indexed, list(pairs), blocks
        walk_fail, cell_scenarios, pairs, blocks = scenarios[n]
        # one mixture column per distinct block, dropped when the cell ends;
        # each pair's two plans are evaluated once per cell, each on its
        # own: None when the strip plan is None, else where they differ
        columns = {block: vm.mixture(*block, n) for block in blocks}
        mismatches: List[Optional[List[str]]] = []
        for strip_plan, plan in pairs:
            if strip_plan is None:
                mismatches.append(None)
                continue
            expected = reduce(mul, map(columns.__getitem__, plan))
            actual = reduce(mul, map(columns.__getitem__, strip_plan))
            mismatches.append([] if actual == expected else [
                f" omega={list(omega)}: "
                f"expected {table.rational(want, n)}, got {table.rational(got, n)}"
                for omega, want, got in zip(omegas, expected, actual)
                if got != want
            ])
        cell_fail = list(walk_fail)
        for chi, path, k in cell_scenarios:
            mismatch = mismatches[k]
            if mismatch is None:
                cell_fail.append(f"chi={chi.letters} rise={list(path.rise)}: "
                                 "the product is not one vacuum term of factor 1")
            elif mismatch:
                where = f"chi={chi.letters} rise={list(path.rise)}"
                cell_fail += [where + at for at in mismatch]
        cell_count = len(omegas) * len(cell_scenarios)
        summary = f"{cell_count} products collapse to the vacuum multiple"
        result.add_sweep(label, summary, cell_count, cell_fail)
    return result


def moment_routes(vm: VacuumMoments, chi_str: str, omega: Tuple[int, ...]) -> tuple:
    """Prop 6.10's two routes to the vacuum moment of the bi-word
    (omega, chi): sequential operator application, and the family sum over
    sigma_chi . NC(n) of the mixtures in ``vm.table``."""
    return vm(tuple(zip(omega, chi_str))), moment_via_sigma(omega, chi_str, vm.table)


def cumulant_routes(vm: VacuumMoments, chi_str: str, omega: Tuple[int, ...]) -> tuple:
    """Two routes to the chi-cumulant of the bi-word (omega, chi): the
    Moebius sum over NC(n) of the moments in ``vm``, every sub-word's moment
    from one sweep, and Thm 6.5's mixture coefficient in ``vm.table``."""
    word = tuple(zip(omega, chi_str))
    vm.sweep_subwords(word)
    return mobius_cumulant(chi_str, word, vm), vm.table.coeff(*bimixture_symbol(omega, chi_str))


def _route_sweep(
    suite: str, routes: Callable, labels: Tuple[str, str], summary: str,
    max_n: int, d: int, seed: int,
) -> SuiteResult:
    """Compare a suite's two routes on every bi-word of every Fock cell;
    ``routes(vm, chi_str)`` gives both routes' values at every omega of
    length len(chi), and ``labels`` name the routes in failure
    messages."""
    result = SuiteResult(suite, {"max_n": max_n, "d": d, "seed": seed})
    for label, n, vm in _fock_cells(max_n, d, seed):
        table = vm.table
        omegas = vm.omegas(n)
        cell_fail = []
        cell_count = 0
        for chi in all_chi(n):
            lhs, rhs = routes(vm, chi.letters)
            if not len(lhs) == len(rhs) == len(omegas):  # compared as far as all three go
                cell_fail.append(f"chi={chi.letters}: {len(lhs)} and {len(rhs)} values "
                                 f"for {len(omegas)} words")
            cell_count += min(len(omegas), len(lhs), len(rhs))
            cell_fail += [
                f"chi={chi.letters} omega={list(omega)}: {labels[0]} "
                f"{table.rational(left, n)} != {labels[1]} {table.rational(right, n)}"
                for omega, left, right in zip(omegas, lhs, rhs)
                if left != right
            ]
        result.add_sweep(label, f"{cell_count} {summary}", cell_count, cell_fail)
    return result


def suite_prop610(max_n: int = 4, d: int = 2, seed: int = 0, **_) -> SuiteResult:
    """Sequentially computed vacuum moments of canonical-operator words
    equal the partition-family mixture sums."""
    return _route_sweep("prop610", lambda vm, chi: (vm.column(chi), vm.family_sums(chi)),
                        ("engine", "family sum"), "moments agree across routes", max_n, d, seed)


def suite_thm65(max_n: int = 4, d: int = 2, seed: int = 0, **_) -> SuiteResult:
    """Every chi-cumulant of a canonical-operator word collapses to the
    single mixture coefficient of its bi-word."""
    def routes(vm: VacuumMoments, chi: str) -> tuple:
        return vm.cumulants(chi), vm.mixture(*bimixture_template(chi), len(chi))

    return _route_sweep("thm65", routes, ("cumulant", "mixture"),
                        "cumulants equal their mixture coefficient", max_n, d, seed)


# ---------------------------------------------------------------------------
# golden length-4 identities
# ---------------------------------------------------------------------------


def interleaved_moment_terms(i1: int, i2: int, i3: int, i4: int) -> PolyScalar:
    """Golden 14-term expansion of the vacuum moment of the word
    (left i1)(right i2)(left i3)(right i4), kept as a fixed oracle."""

    def a(*w):
        return PolyScalar.symbol("a", w)

    def b(*w):
        return PolyScalar.symbol("b", w)

    return (
        b(i3, i1, i2, i4)
        + a(i1) * b(i3, i2, i4)
        + b(i2) * b(i3, i1, i4)
        + a(i3) * b(i1, i2, i4)
        + a(i2, i1, i3) * b(i4)
        + b(i1, i2) * b(i3, i4)
        + a(i1, i3) * b(i2, i4)
        + b(i1, i2) * a(i3) * b(i4)
        + a(i1, i3) * b(i2) * b(i4)
        + b(i1, i4) * b(i2) * a(i3)
        + a(i1) * a(i2, i3) * b(i4)
        + a(i1) * b(i2, i4) * a(i3)
        + a(i1) * b(i2) * b(i3, i4)
        + a(i1) * b(i2) * a(i3) * b(i4)
    )


def interleaved_free_cumulant_terms(i1: int, i2: int, i3: int, i4: int) -> PolyScalar:
    """Golden 3-term free cumulant of the same word."""

    def a(*w):
        return PolyScalar.symbol("a", w)

    def b(*w):
        return PolyScalar.symbol("b", w)

    return b(i3, i1, i2, i4) + a(i1, i3) * b(i2, i4) - a(i2, i3) * b(i1, i4)


def suite_eq12x(**_) -> SuiteResult:
    """The symbolic vacuum moment of (left)(right)(left)(right) words at
    two indices matches the golden 14-term sum, by the operator engine and
    by the sum over the simulated family."""
    result = SuiteResult("eq12x", {})
    vm = shared("symbolic", 2, SYMBOLIC_N_O)
    for omega in product((1, 2), repeat=4):
        expected = interleaved_moment_terms(*omega)
        engine_value = vm(tuple(zip(omega, "lrlr")))
        family_value = moment_via_pchi(omega, "lrlr", vm.table)
        ok = engine_value == expected == family_value
        result.add(
            f"omega={list(omega)}",
            str(expected),
            str(engine_value) if engine_value == family_value else
            f"engine={engine_value} family={family_value}",
            ok,
        )
    return result


def suite_eq12y(**_) -> SuiteResult:
    """The length-4 free cumulant of the interleaved word matches the
    golden 3-term sum."""
    result = SuiteResult("eq12y", {})
    engine = CumulantEngine(shared("symbolic", 2, SYMBOLIC_N_O))
    for omega in product((1, 2), repeat=4):
        expected = interleaved_free_cumulant_terms(*omega)
        actual = engine.cumulant("rrrr", tuple(zip(omega, "lrlr")))
        result.add(f"omega={list(omega)}", str(expected), str(actual))
    return result


def suite_bifree(max_n: int = 4, d: int = 2, seed: int = 0, **_) -> SuiteResult:
    """With per-index separated symbols every mixed cumulant vanishes;
    injecting one mixed coefficient produces a pinpointed violation."""
    if d < 2:
        raise ValueError("d must be at least 2: a mixed cumulant has two distinct indices")
    result = SuiteResult("bifree", {"max_n": max_n, "d": d, "seed": seed})
    vm = shared("separated", d, max_n, seed)
    table = vm.table
    pairs = [((i, "l"), (i, "r")) for i in range(1, d + 1)]
    ok, violations = is_combinatorially_bifree_upto(pairs, vm, max_n)
    checked = sum(2 ** n * (d ** n - d) for n in range(2, max_n + 1))
    result.add(
        "separated symbols",
        "all mixed cumulants vanish",
        "all mixed cumulants vanish" if ok else [
            f"chi={chi} omega={list(idx)} value={table.rational(value, len(idx))}"
            for chi, idx, value in violations[:3]
        ],
        ok,
        checked,
    )

    patched = table.with_entry("a", (1, 2), 1)
    ok2, violations2 = is_combinatorially_bifree_upto(pairs, VacuumMoments(patched), 2)
    hits = {(chi, idx): patched.rational(value, 2) for chi, idx, value in violations2}
    witness = hits.get(("ll", (1, 2)))
    result.add(
        "injected mixed coefficient",
        "violation at chi=ll omega=[1, 2] value=1",
        f"violation at chi=ll omega=[1, 2] value={witness}" if not ok2 else "no violation",
        (not ok2) and witness == 1,
        4 * (d ** 2 - d),
    )
    return result


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "thm49": suite_thm49,
    "prop46": suite_prop46,
    "lemma48": suite_lemma48,
    "prop413": suite_prop413,
    "cor410": suite_cor410,
    "lemma67": suite_lemma67,
    "prop610": suite_prop610,
    "thm65": suite_thm65,
    "eq12x": suite_eq12x,
    "eq12y": suite_eq12y,
    "bifree": suite_bifree,
}

#: Per suite, the parameters of the acceptance sweep: the scales of
#: ``scripts/run_all_verifications.py --full`` and of the acceptance tests.
ACCEPTANCE_SCALES: Dict[str, dict] = {
    "thm49": {"max_n": 6},
    "prop46": {"max_n": 6},
    "lemma48": {"max_n": 6},
    "prop413": {"max_n": 6},
    "cor410": {"max_n": 5},
    "lemma67": {"max_n": 6, "d": 3, "seed": 0},
    "prop610": {"max_n": 6, "d": 3, "seed": 0},
    "thm65": {"max_n": 6, "d": 3, "seed": 0},
    "eq12x": {},
    "eq12y": {},
    "bifree": {"max_n": 4, "d": 2, "seed": 0},
}


def run_suite(
    name: str,
    max_n: Optional[int] = None,
    d: Optional[int] = None,
    seed: Optional[int] = None,
) -> SuiteResult:
    """Run one suite at its own defaults, overridden by every parameter
    given; a suite ignores the parameters it does not take.  A ``max_n``
    beyond ``MAX_GROUND_SET`` raises ``ValueError`` before any sweep."""
    suite = SUITES[name]
    if max_n is not None and max_n > MAX_GROUND_SET:
        raise ValueError(
            f"max_n {max_n} exceeds the supported ground-set limit {MAX_GROUND_SET}"
        )
    params = {
        key: value
        for key, value in (("max_n", max_n), ("d", d), ("seed", seed))
        if value is not None
    }
    start = time.perf_counter()
    result = suite(**params)
    result.elapsed = time.perf_counter() - start
    return result
