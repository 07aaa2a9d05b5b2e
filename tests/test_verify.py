"""A suite fails when one of its routes or constructions is wrong."""

import re
from functools import reduce
from operator import mul

import pytest

from lrcumulants import cumulants, deque, lukasiewicz, partitions, verify
from lrcumulants.cli import main
from lrcumulants.cumulants import Column
from lrcumulants.deque import ScenarioTrace, restriction_data
from lrcumulants.fock import reverse_bimixture_template
from lrcumulants.lukasiewicz import enumerate_luk
from lrcumulants.partitions import MAX_GROUND_SET, Partition, Permutation, one_block


def doubled_vector(vector):
    return lambda *args: {w: 2 * c for w, c in vector(*args).items()}


def doubled(fn):
    return lambda *args: 2 * fn(*args)


def doubled_family_sums(vm_type):
    class Doubled(vm_type):
        def family_sums(self, chi_str):
            return [2 * v for v in super().family_sums(chi_str)]

    return Doubled


def last_partition_unsubtracted(vm_type):
    """Cumulant columns that leave the term of the family's last
    partition in."""
    class Perturbed(vm_type):
        def cumulants(self, chi_str):
            column = super().cumulants(chi_str)
            *_, last = restriction_data(chi_str)
            if len(last) == 1:
                return column
            k = len(chi_str)
            term = Column([1] * len(column))
            for positions, sub in last:
                term = term * self._gathered(self._cumulants[sub], positions, k)
            return [v + t for v, t in zip(column, term)]

    return Perturbed


def reversed_columns(vm_type):
    class Reversed(vm_type):
        def column(self, chi_str):
            return super().column(chi_str)[::-1]

    return Reversed


def plan_values(vm, plan, n):
    """The product of the plan's mixture columns at every omega of length n."""
    return reduce(mul, [vm.mixture(kind, order, n) for kind, order in plan])


def first_long_block_reversed(plan_for_blocks):
    def perturbed(blocks):
        plan = list(plan_for_blocks(blocks))
        for j, (kind, order) in enumerate(plan):
            if len(order) > 1:
                plan[j] = (kind, order[::-1])
                break
        return tuple(plan)

    return perturbed


def without_last(family):
    return lambda chi: family(chi)[:-1]


def one_block_path(psi_rise):
    return lambda p: psi_rise(one_block(p.n))


def identity_permutation(_):
    return lambda chi: Permutation.identity(chi.n)


def identity(_):
    return lambda chi: chi


def doubled_cumulants(engine_type):
    class Doubled(engine_type):
        def cumulant(self, chi, word):
            return 2 * super().cumulant(chi, word)

    return Doubled


def without_one_block(family):
    return lambda chi, *rest: [p for p in family(chi, *rest) if p != one_block(chi.n)]


@pytest.mark.parametrize(
    "suite, attr, perturb",
    [
        ("lemma67", "lemma67_vector", doubled_vector),
        ("lemma67", "reverse_mixture_plan_for_blocks", first_long_block_reversed),
        ("prop610", "VacuumMoments", doubled_family_sums),
        ("prop610", "VacuumMoments", reversed_columns),
        ("eq12x", "moment_via_pchi", doubled),
        ("eq12y", "CumulantEngine", doubled_cumulants),
        ("thm65", "bimixture_template", lambda _: reverse_bimixture_template),
        ("thm65", "VacuumMoments", last_partition_unsubtracted),
        ("thm65", "VacuumMoments", reversed_columns),
        ("thm49", "pchi_by_sigma", without_last),
        ("prop46", "psi_rise", one_block_path),
        ("lemma48", "sigma_chi", identity_permutation),
        ("prop413", "chi_opposite", identity),
        ("cor410", "family", without_one_block),
        ("cor410", "sigma_chi", identity_permutation),
    ],
)
def test_operator_suite_fails_when_one_route_is_perturbed(
    monkeypatch, fresh_mobius_plans, suite, attr, perturb
):
    assert verify.run_suite(suite, max_n=4, d=2).passed
    # fresh shared cells: a defect in what they are built from takes effect
    # here and leaves no wrong memo behind for later tests
    monkeypatch.setattr(verify, "_SHARED", {})
    monkeypatch.setattr(verify, attr, perturb(getattr(verify, attr)))
    result = verify.run_suite(suite, max_n=4, d=2)
    assert result.passed is False
    assert result.instances > 0 and any(not c.ok for c in result.checks)


@pytest.mark.parametrize("suite", ["prop610", "thm65"])
def test_grid_suites_fail_when_sigma_chi_is_the_identity(monkeypatch, fresh_mobius_plans, suite):
    # the engine sums over sigma_chi . NC(n); for n <= 3 every family is
    # NC(n), so the defect shows from n = 4 on
    assert verify.run_suite(suite, max_n=4, d=2).passed
    monkeypatch.setattr(verify, "_SHARED", {})
    monkeypatch.setattr(cumulants, "sigma_chi", lambda chi: Permutation.identity(chi.n))
    result = verify.run_suite(suite, max_n=4, d=2)
    assert result.passed is False
    failed = [c for c in result.checks if not c.ok]
    assert failed and all("n=4" in c.name for c in failed)


@pytest.mark.parametrize("suite", ["thm49", "prop46", "lemma48", "prop413", "cor410"])
def test_family_suites_keep_one_block_memo_per_permutation(monkeypatch, suite):
    # a block memo holds images under one permutation; one that saw two
    # would hand the first one's images to the second.  A shared memo can
    # leave a check passing (under tau_u and the reversal, both of which
    # stabilise NC(n), or when lemma48 relabels straight back), so the
    # relabelling calls themselves are watched: act's in partitions,
    # combined_standings' in deque.  Every memo is kept alive here, so no
    # two memos share an id.
    kept = {}

    def spy(relabel):
        def relabel_spy(image, p, memo):
            first_memo, first_image = kept.setdefault(id(memo), (memo, image))
            assert first_memo is memo and first_image == image
            return relabel(image, p, memo)

        return relabel_spy

    for module in (partitions, deque):
        monkeypatch.setattr(module, "_relabel", spy(module._relabel))
    assert verify.run_suite(suite, max_n=4).passed
    assert kept


def overlapping_batches(n, replays=deque.replays):
    """The all-chi replay, with each output partition reading each batch
    one exit time too far, exit_time[lo:end + 1]: neighbouring blocks
    overlap, so the blocks are no partition, and the trusted constructor
    does not notice."""
    paths = enumerate_luk(n)
    for chi, traces in replays(n):
        overlapped = []
        for path, trace in zip(paths, traces):
            exit_time = [0] * (n + 1)
            for t, ball in enumerate(trace.exit_order, start=1):
                exit_time[ball] = t
            blocks = []
            lo = 1
            for q in path.rise:
                if q >= 0:
                    end = lo + q + 1
                    blocks.append(tuple(sorted(exit_time[lo:end + 1])))
                    lo = end
            overlapped.append(ScenarioTrace(
                trace.chi,
                Partition._unchecked(n, tuple(sorted(blocks))),
                trace.exit_order,
            ))
        yield chi, iter(overlapped)


def test_thm49_fails_when_simulate_emits_a_non_partition(monkeypatch):
    monkeypatch.setattr(verify, "replays", overlapping_batches)
    result = verify.run_suite("thm49", max_n=4)
    assert result.passed is False
    assert result.instances == 30
    assert sum(not c.ok for c in result.checks) == 28


def test_prop46_records_an_output_partition_without_a_path_as_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "replays", overlapping_batches)
    result = verify.run_suite("prop46", max_n=4)
    assert result.passed is False
    assert result.instances == 274
    failed = [c for c in result.checks if not c.ok]
    assert len(failed) == 28
    assert all(any("has no path" in message for message in c.actual) for c in failed)


def test_a_passing_prop46_run_builds_no_canonical_path(monkeypatch):
    psi = lukasiewicz.psi
    calls = []

    def counted(p):
        calls.append(p)
        return psi(p)

    monkeypatch.setattr(lukasiewicz, "psi", counted)
    monkeypatch.setattr(verify, "psi", counted, raising=False)
    result = verify.run_suite("prop46", max_n=4)
    assert result.passed and result.instances == 274
    assert calls == []


def test_lemma48_fails_when_the_replay_emits_overlapping_blocks(monkeypatch):
    # the standings are read off the trace's blocks; the output partition
    # lemma48 compares them with is regrouped from the exit order
    monkeypatch.setattr(verify, "replays", overlapping_batches)
    result = verify.run_suite("lemma48", max_n=4)
    assert result.passed is False
    assert result.instances == 274
    failed = [c for c in result.checks if not c.ok]
    assert len(failed) == 28
    assert all(c.name.startswith(("n=2", "n=3", "n=4")) for c in failed)


def test_lemma48_fails_when_the_exit_order_is_no_permutation(monkeypatch):
    def repeated_first_ball(n):
        for chi, traces in deque.replays(n):
            yield chi, (
                ScenarioTrace(trace.chi, trace.output_partition, trace.exit_order[:1] * n)
                for trace in traces
            )

    monkeypatch.setattr(verify, "replays", repeated_first_ball)
    result = verify.run_suite("lemma48", max_n=3)
    assert result.passed is False
    # with one ball the exit order is a permutation all the same
    assert [c.ok for c in result.checks] == [True] * 2 + [False] * 12


def without_last_trace(n):
    """The all-chi replay with the last trace of every chi dropped."""
    for chi, traces in deque.replays(n):
        yield chi, iter(list(traces)[:-1])


def with_last_trace_twice(n):
    """The all-chi replay with the last trace of every chi repeated."""
    for chi, traces in deque.replays(n):
        traces = list(traces)
        yield chi, iter(traces + traces[-1:])


@pytest.mark.parametrize(
    "suite, instances",
    # the scenarios the replay gave: one fewer for each of the 30 chi of
    # length 1..4, each checked at every omega of each lemma67 cell
    [("prop46", 274 - 30), ("lemma48", 274 - 30), ("lemma67", 7_444)],
)
@pytest.mark.parametrize("replay, side", [(without_last_trace, "fewer"), (with_last_trace_twice, "more")])
def test_scenario_suites_fail_when_the_replay_miscounts_traces(
    monkeypatch, fresh_mobius_plans, suite, instances, replay, side
):
    monkeypatch.setattr(verify, "replays", replay)
    result = verify.run_suite(suite, max_n=4, d=2)
    assert result.passed is False
    # only the scenarios checked count: a trace without a path is not one
    assert result.instances == (instances if side == "fewer" else PINNED_INSTANCES[suite])
    failed = [c for c in result.checks if not c.ok]
    if suite == "lemma67":  # every cell, naming the first three chi of its length
        assert failed == result.checks
    else:  # every chi's own check, naming that chi
        assert [c.name for c in failed] == [
            f"n={n} chi={chi}" for n in range(1, 5) for chi in verify.all_chi(n)
        ]
    for c in failed:
        n = int(re.search(r"n=(\d)", c.name)[1])
        chis = [f"chi={chi}" for chi in verify.all_chi(n)]
        if suite != "lemma67":
            chis = [c.name.split()[1]]
        assert c.actual == [
            f"{chi}: the replay yields {side} traces than its {verify.catalan(n)} paths"
            for chi in chis[:3]
        ]


def test_route_suites_fail_when_a_route_gives_too_few_values(monkeypatch):
    column = verify.VacuumMoments.column
    monkeypatch.setattr(verify.VacuumMoments, "column", lambda vm, chi: column(vm, chi)[:-1])
    result = verify.run_suite("prop610", max_n=3, d=2)
    assert result.passed is False
    # one word fewer compared for each chi of each cell: 182 at full length
    assert result.instances == 182 - sum(2 ** n for _, n, _ in verify._fock_cells(3, 2, 0))
    for c in result.checks:
        n = int(re.search(r"n=(\d)", c.name)[1])
        d = int(re.search(r"d=(\d)", c.name)[1])
        assert c.actual == [
            f"chi={chi}: {d ** n - 1} and {d ** n} values for {d ** n} words"
            for chi in verify.all_chi(n)
        ][:3]


#: Instances each suite verifies at max_n=4, d=2.
PINNED_INSTANCES = {
    "thm49": 30,
    "prop46": 274,
    "lemma48": 274,
    "prop413": 74,
    "cor410": 6_738,
    "lemma67": 8_154,
    "prop610": 710,
    "thm65": 710,
    "eq12x": 16,
    "eq12y": 16,
    "bifree": 288,
}


@pytest.mark.parametrize("suite, instances", PINNED_INSTANCES.items())
def test_each_suite_verifies_its_pinned_instance_count(suite, instances):
    result = verify.run_suite(suite, max_n=4, d=2)
    assert result.passed
    assert result.instances == instances


def test_lemma67_evaluates_each_distinct_plan_pair_once_per_cell(monkeypatch):
    compared = []
    gathered = []
    strip_plan = verify._strip_plan
    mixture = verify.VacuumMoments.mixture
    monkeypatch.setattr(verify, "_strip_plan",
                        lambda path, chi: compared.append((chi.letters, path.rise)) or strip_plan(path, chi))
    monkeypatch.setattr(verify.VacuumMoments, "mixture",
                        lambda vm, kind, order, n: gathered.append(n) or mixture(vm, kind, order, n))
    assert verify.run_suite("lemma67", max_n=4, d=2).passed
    # one strip plan per (chi, path), in replay order, shared by the three
    # cells of its length
    assert len(compared) == PINNED_INSTANCES["prop46"] == 274
    assert compared == [
        (chi.letters, path.rise)
        for n in range(1, 5) for chi in verify.all_chi(n) for path in enumerate_luk(n)
    ]
    # every scenario's two plans are equal once sorted, so no cell
    # evaluates a plan on its grid
    assert gathered == []


@pytest.mark.parametrize(
    "attr, perturb",
    [
        ("reverse_mixture_plan_for_blocks", first_long_block_reversed),
        ("lemma67_vector", doubled_vector),
    ],
)
def test_lemma67_fails_each_scenario_as_a_per_scenario_loop_does(monkeypatch, attr, perturb):
    monkeypatch.setattr(verify, "_SHARED", {})
    monkeypatch.setattr(verify, attr, perturb(getattr(verify, attr)))
    failures = {}
    add_sweep = verify.SuiteResult.add_sweep

    def recording(result, name, summary, count, cell_fail):
        failures[name] = list(cell_fail)
        add_sweep(result, name, summary, count, cell_fail)

    monkeypatch.setattr(verify.SuiteResult, "add_sweep", recording)
    result = verify.run_suite("lemma67", max_n=4, d=2)
    assert result.passed is False
    # the reference: both plans of every scenario evaluated on their own
    expected = {}
    for label, n, vm in verify._fock_cells(4, 2, 0):
        omegas = vm.omegas(n)
        cell_fail = []
        scenarios = 0
        for chi, traces in deque.replays(n):
            for path, trace in zip(enumerate_luk(n), traces):
                scenarios += 1
                where = f"chi={chi.letters} rise={list(path.rise)}"
                strip_plan = verify._strip_plan(path, chi)
                if strip_plan is None:
                    cell_fail.append(f"{where}: the product is not one vacuum term of factor 1")
                    continue
                plan = verify.reverse_mixture_plan_for_blocks(
                    deque.block_data(trace.output_partition, chi.letters))
                expected_values = plan_values(vm, plan, n)
                actual_values = plan_values(vm, strip_plan, n)
                for omega, want, got in zip(omegas, expected_values, actual_values):
                    if got != want:
                        want, got = vm.table.rational(want, n), vm.table.rational(got, n)
                        cell_fail.append(f"{where} omega={list(omega)}: expected {want}, got {got}")
        expected[label] = cell_fail, len(omegas) * scenarios
    assert any(cell_fail for cell_fail, _ in expected.values())
    assert failures == {label: cell_fail for label, (cell_fail, _) in expected.items()}
    assert [(c.name, c.instances) for c in result.checks] == [
        (label, count) for label, (_, count) in expected.items()
    ]


def strip_plan_mismatches(max_n):
    """(compared, differing, missing): how many (chi, path) with n <= max_n
    there are, how many have a strip plan that is not their reverse-mixture
    plan as a multiset, and how many have no strip plan."""
    compared = differing = missing = 0
    for n in range(1, max_n + 1):
        paths = enumerate_luk(n)
        for chi, traces in deque.replays(n):
            for path, trace in zip(paths, traces, strict=True):
                compared += 1
                strip_plan = verify._strip_plan(path, chi)
                plan = verify.reverse_mixture_plan_for_blocks(
                    deque.block_data(trace.output_partition, chi.letters))
                missing += strip_plan is None
                differing += strip_plan != tuple(sorted(plan))
    return compared, differing, missing


@pytest.mark.parametrize(
    "attr, perturb, differing, missing",
    [
        (None, None, 0, 0),
        ("reverse_mixture_plan_for_blocks", first_long_block_reversed, 9_940, 0),
        ("lemma67_vector", doubled_vector, 10_066, 10_066),
    ],
)
def test_each_strip_plan_is_its_reverse_mixture_plan(monkeypatch, attr, perturb, differing, missing):
    # Lemma 6.7 as plans: the strips of every single-track product read
    # the reverse mixtures of the scenario's output blocks, in some order
    if attr is not None:
        monkeypatch.setattr(verify, attr, perturb(getattr(verify, attr)))
    assert strip_plan_mismatches(6) == (10_066, differing, missing)


def test_cor410_counts_each_check_apart():
    result = verify.run_suite("cor410", max_n=4)
    for chi in verify.all_chi(4):
        checks = [c for c in result.checks if c.name.startswith(f"n=4 chi={chi} ")]
        # membership, then one comparison per pair of NC(4) partitions and
        # one meet per pair of family members, Catalan(4) = 14 of each
        assert [c.instances for c in checks] == [1, 196, 196]


def test_fock_suites_build_one_grid_per_table(monkeypatch):
    built = []

    class Counted(verify.VacuumMoments):
        def __init__(self, table):
            super().__init__(table)
            built.append(table)

    monkeypatch.setattr(verify, "_SHARED", {})
    monkeypatch.setattr(verify, "VacuumMoments", Counted)
    for suite in ("lemma67", "prop610", "thm65"):
        assert verify.run_suite(suite, max_n=4, d=2).passed
    # symbolic d=2 covering every symbolic cell, random d = 1 and 2 with n_o = 4
    assert len(built) == len(verify._SHARED) == 3


def test_thm65_reuses_the_moment_columns_prop610_swept(monkeypatch):
    swept = []
    sweep = verify.VacuumMoments._sweep

    def counted(vm, sides, letters):
        swept.append((vm, len(sides)))
        return sweep(vm, sides, letters)

    monkeypatch.setattr(verify, "_SHARED", {})
    monkeypatch.setattr(verify.VacuumMoments, "_sweep", counted)
    assert verify.run_suite("prop610", max_n=4, d=2).passed
    # one sweep per length 1..4 on each of the three tables, filling the
    # columns of every chi of that length
    assert len(swept) == len(set(swept)) == 3 * 4
    assert verify.run_suite("thm65", max_n=4, d=2).passed
    assert len(swept) == 12


def test_prop610_and_thm65_keep_each_gathered_column_once(monkeypatch):
    monkeypatch.setattr(verify, "_SHARED", {})

    def sizes():
        assert not any(hasattr(vm, "_mixtures") for vm in verify._SHARED.values())
        return [len(vm._sub_cumulants) for vm in verify._SHARED.values()]

    assert verify.run_suite("prop610", max_n=4, d=2).passed
    # per table: mixture columns are gathered on demand, and the family
    # sums make no cumulant gather
    assert sizes() == [0] * 3
    assert verify.run_suite("thm65", max_n=4, d=2).passed
    # one gather per distinct (sub-word, positions, k)
    assert sizes() == [86] * 3


def test_lemma67_builds_each_block_entry_once_per_chi(monkeypatch):
    plans = []
    entries = []
    plan_for_blocks = verify.reverse_mixture_plan_for_blocks
    block_entry = verify.block_entry
    monkeypatch.setattr(verify, "reverse_mixture_plan_for_blocks",
                        lambda blocks: plans.append(blocks) or plan_for_blocks(blocks))
    monkeypatch.setattr(verify, "block_entry",
                        lambda block, chi_str: entries.append((chi_str, block)) or block_entry(block, chi_str))
    assert verify.run_suite("lemma67", max_n=4, d=2).passed
    # the whole plan of each scenario, once per scenario
    assert len(plans) == PINNED_INSTANCES["prop46"] == 274
    assert plans == [
        deque.block_data(trace.output_partition, chi.letters)
        for n in range(1, 5) for chi, traces in deque.replays(n) for trace in traces
    ]
    # one entry per distinct output block of each chi, where the scenarios
    # have 654 blocks between them
    distinct = {
        (chi.letters, block)
        for n in range(1, 5) for chi in verify.all_chi(n)
        for p in deque.pchi_by_enumeration(chi) for block in p.blocks
    }
    assert len(entries) == len(set(entries)) == len(distinct) == 310
    assert set(entries) == distinct


def test_lemma67_keeps_one_copy_of_each_distinct_plan_block(monkeypatch):
    perturbed = first_long_block_reversed(verify.reverse_mixture_plan_for_blocks)
    monkeypatch.setattr(verify, "reverse_mixture_plan_for_blocks", perturbed)
    calls = []
    mixture = verify.VacuumMoments.mixture
    monkeypatch.setattr(verify.VacuumMoments, "mixture",
                        lambda vm, kind, order, n: calls.append((n, kind, order)) or mixture(vm, kind, order, n))
    assert verify.run_suite("lemma67", max_n=4, d=2).passed is False
    # per length, both plans of each scenario whose plans differ once sorted
    differing = {n: [] for n in range(1, 5)}
    for n in differing:
        for chi, traces in deque.replays(n):
            for path, trace in zip(enumerate_luk(n), traces, strict=True):
                strip_plan = verify._strip_plan(path, chi)
                plan = perturbed(deque.block_data(trace.output_partition, chi.letters))
                if strip_plan != tuple(sorted(plan)):
                    differing[n].append(plan + strip_plan)
    # each block of those plans is gathered once in each of the three cells
    # of every length, in cell order; the equal plans gather nothing
    assert calls == [(n, *block) for _ in range(3) for n in differing for plans in differing[n] for block in plans]
    assert len(calls) == 3_336


def test_verify_refuses_an_oversized_drawn_table_before_any_sweep(monkeypatch):
    swept = []
    monkeypatch.setattr(verify, "_SHARED", {})
    monkeypatch.setattr(verify.VacuumMoments, "_sweep", lambda self, *args: swept.append(args))
    assert main(["verify", "prop610", "--d", "20", "--max-n", "6"]) == 2
    assert swept == []


def test_run_suite_rejects_max_n_beyond_the_ground_set_limit(monkeypatch):
    calls = []

    def recording_suite(**params):
        calls.append(params)
        return verify.SuiteResult("thm49", params)

    monkeypatch.setitem(verify.SUITES, "thm49", recording_suite)
    with pytest.raises(ValueError, match="max_n"):
        verify.run_suite("thm49", max_n=MAX_GROUND_SET + 1)
    assert main(["verify", "thm49", "--max-n", str(MAX_GROUND_SET + 1)]) == 2
    assert calls == []
    verify.run_suite("thm49", max_n=MAX_GROUND_SET)
    assert calls == [{"max_n": MAX_GROUND_SET}]
