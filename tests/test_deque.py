"""Deque-scenario simulation, standings partitions, and the family machinery."""

import collections
import itertools
import re
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcumulants import deque
from lrcumulants.deque import (
    ChiWord,
    ScenarioTrace,
    chi_opposite,
    combined_standings,
    insertion_standings,
    output_partition,
    pchi_by_enumeration,
    pchi_by_sigma,
    replays,
    sigma_chi,
    simulate,
    standings_partitions,
    tau_u,
)
from lrcumulants.lukasiewicz import LukPath, _rises, enumerate_luk, psi
from lrcumulants.partitions import (
    MAX_GROUND_SET,
    Partition,
    Permutation,
    act,
    enumerate_noncrossing,
    enumerate_partitions,
    is_noncrossing,
    leq,
    meet,
    one_block,
    opposite,
    singletons,
)

EX_PATH = LukPath([2, -1, 1, -1, -1])
EX_CHI = ChiWord("rllrl")


def all_chi(n):
    return [ChiWord("".join(w)) for w in itertools.product("lr", repeat=n)]


def test_chi_word_basics():
    chi = EX_CHI
    assert chi.n == 5
    assert chi.m_ell == (2, 3, 5)
    assert chi.m_r == (1, 4)
    assert chi.to_json() == "rllrl"
    with pytest.raises(ValueError):
        ChiWord("")
    with pytest.raises(ValueError):
        ChiWord("lrx")


def standings_of(chi):
    """Each position's standing among the steps of its side, read off
    its slot."""
    return tuple(q if h == "l" else chi.n + 1 - q for q, h in zip(chi.slot[1:], chi.letters))


def test_chi_word_standing_of_worked_example():
    # r l l r l: positions 1, 4 are the first and second r-steps;
    # positions 2, 3, 5 the first, second and third l-steps
    assert EX_CHI.slot == (0, 5, 1, 2, 4, 3)
    assert standings_of(EX_CHI) == (1, 1, 2, 2, 3)
    assert ChiWord("lrlr").slot == (0, 1, 4, 2, 3)
    assert standings_of(ChiWord("lrlr")) == (1, 1, 2, 2)


def test_chi_word_slot_is_the_inverse_of_sigma_chi():
    for n in range(1, 7):
        for chi in all_chi(n):
            assert chi.slot[0] == 0
            assert Permutation(chi.slot[1:]) == sigma_chi(chi).inverse()


def test_a_chi_word_with_a_filled_memo_equals_and_hashes_like_a_fresh_one():
    for n in range(1, 6):
        for chi, traces in replays(n):
            for trace in traces:
                combined_standings(trace)
            assert chi._blocks
            fresh = ChiWord(chi.letters)
            assert not fresh._blocks
            assert chi == fresh and hash(chi) == hash(fresh)
            assert {chi: n}[fresh] == n and len({chi, fresh}) == 1
            for name in ("slot", "_blocks"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(chi, name, None)


def test_scenario_length_mismatch():
    with pytest.raises(ValueError, match="path has 5 steps but chi word has 2 letters"):
        simulate(EX_PATH, ChiWord("lr"))


def test_a_trace_equals_what_it_was_built_from_and_stays_immutable():
    trace = simulate(EX_PATH, EX_CHI)
    rebuilt = ScenarioTrace(EX_CHI, trace.output_partition, trace.exit_order)
    assert (rebuilt.chi, rebuilt.output_partition, rebuilt.exit_order) == (
        EX_CHI, Partition(5, [[1, 2, 4], [3, 5]]), (3, 1, 5, 2, 4))
    for name in ("chi", "output_partition", "exit_order"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(rebuilt, name, None)


def test_simulate_accepts_a_plain_word():
    assert simulate(LukPath([0]), "l").output_partition == singletons(1)
    trace = simulate(EX_PATH, "rllrl")
    assert trace.chi == EX_CHI
    assert trace.exit_order == simulate(EX_PATH, EX_CHI).exit_order
    for bad in ("", "x", "rllrx"):
        with pytest.raises(ValueError):
            simulate(EX_PATH, bad)


def test_pchi_by_enumeration_accepts_a_plain_word():
    assert pchi_by_enumeration("lrlr") == pchi_by_enumeration(ChiWord("lrlr"))
    for bad in ("", "lrxr"):
        with pytest.raises(ValueError):
            pchi_by_enumeration(bad)


def test_sigma_chi_accepts_a_plain_word():
    assert sigma_chi("rllrl") == sigma_chi(EX_CHI)
    for bad in ("", "rlLrl"):
        with pytest.raises(ValueError):
            sigma_chi(bad)


def test_pchi_by_sigma_accepts_a_plain_word():
    assert pchi_by_sigma("rllrl") == pchi_by_sigma(EX_CHI)
    for bad in ("", "rl rl"):
        with pytest.raises(ValueError):
            pchi_by_sigma(bad)


def test_chi_opposite_accepts_a_plain_word():
    assert chi_opposite("lrr") == ChiWord("rrl")
    assert chi_opposite("rllrl") == chi_opposite(EX_CHI)
    for bad in ("", "lrx"):
        with pytest.raises(ValueError):
            chi_opposite(bad)


def test_worked_scenario():
    trace = simulate(EX_PATH, EX_CHI)
    assert trace.exit_order == (3, 1, 5, 2, 4)
    assert trace.output_partition == Partition(5, [[1, 2, 4], [3, 5]])
    assert trace.insertion_times == (1, 3)
    # derived from the block minima, never stored
    assert ScenarioTrace(EX_CHI, trace.output_partition, trace.exit_order).insertion_times == (1, 3)
    with pytest.raises(AttributeError):
        trace.insertion_times = (1, 3)


def test_all_left_scenarios_reproduce_phi():
    # phi(path) is the non-crossing partition whose canonical path is path
    for n in range(1, 7):
        chi = ChiWord("l" * n)
        phi = {psi(p): p for p in enumerate_noncrossing(n)}
        for path in enumerate_luk(n):
            assert output_partition(path, chi) == phi[path]


def test_all_right_scenarios_reproduce_phi():
    for n in range(1, 6):
        chi = ChiWord("r" * n)
        for path in enumerate_luk(n):
            assert output_partition(path, chi) == output_partition(path, ChiWord("l" * n))


def test_flat_path_gives_singletons():
    for chi in all_chi(4):
        trace = simulate(LukPath([0, 0, 0, 0]), chi)
        assert trace.output_partition == singletons(4)
        assert trace.exit_order == (1, 2, 3, 4)


def test_family_lrlr():
    fam = pchi_by_enumeration(ChiWord("lrlr"))
    assert len(fam) == 14
    assert Partition(4, [[1, 4], [2, 3]]) not in fam
    assert Partition(4, [[1, 3], [2, 4]]) in fam
    everything = set(enumerate_partitions(4))
    assert everything - set(fam) == {Partition(4, [[1, 4], [2, 3]])}


def test_family_all_left_is_noncrossing():
    assert pchi_by_enumeration(ChiWord("llll")) == sorted(enumerate_noncrossing(4))


def test_family_small_n_is_everything():
    for n in (1, 2, 3):
        for chi in all_chi(n):
            assert pchi_by_enumeration(chi) == sorted(enumerate_partitions(n))


def test_sigma_examples():
    assert sigma_chi(EX_CHI) == Permutation([2, 3, 5, 4, 1])
    assert sigma_chi(ChiWord("lrlr")) == Permutation([1, 3, 4, 2])
    assert sigma_chi(ChiWord("lllll")) == Permutation.identity(5)
    assert sigma_chi(ChiWord("rrrr")) == Permutation.reversal(4)


def test_family_dual_routes_agree():
    for n in range(1, 8):
        for chi in all_chi(n):
            assert pchi_by_enumeration(chi) == pchi_by_sigma(chi)


def test_family_contains_worked_partition_via_sigma():
    assert Partition(5, [[1, 2, 4], [3, 5]]) in pchi_by_sigma(EX_CHI)


def test_standings_of_worked_scenario():
    trace = simulate(EX_PATH, EX_CHI)
    assert trace.chi == EX_CHI
    left, right = standings_partitions(trace)
    assert left == Partition(3, [[1], [2, 3]])
    assert right == Partition(2, [[1, 2]])
    assert insertion_standings(trace) == [
        (1, (1,), (1, 2)),
        (3, (2, 3), ()),
    ]


def test_standings_absent_sides():
    path = LukPath([1, -1, 0])
    left, right = standings_partitions(simulate(path, ChiWord("lll")))
    assert right is None
    assert left == output_partition(path, ChiWord("lll"))
    left, right = standings_partitions(simulate(path, ChiWord("rrr")))
    assert left is None


def test_standings_flat_path_all_singletons():
    trace = simulate(LukPath([0, 0, 0, 0]), ChiWord("lrlr"))
    left, right = standings_partitions(trace)
    assert left == singletons(2)
    assert right == singletons(2)


def test_combined_standings_worked_example():
    trace = simulate(EX_PATH, EX_CHI)
    assert combined_standings(trace) == Partition(5, [[1, 4, 5], [2, 3]])


def test_combined_standings_all_left_is_phi():
    for n in range(1, 7):
        chi = ChiWord("l" * n)
        for path in enumerate_luk(n):
            trace = simulate(path, chi)
            assert combined_standings(trace) == trace.output_partition


def test_combined_standings_single_batch():
    for chi in all_chi(4):
        trace = simulate(LukPath([3, -1, -1, -1]), chi)
        assert combined_standings(trace) == one_block(4)


def test_combined_standings_noncrossing_and_interval_block():
    for n in range(1, 7):
        for chi in all_chi(n):
            for path in enumerate_luk(n):
                trace = simulate(path, chi)
                data = insertion_standings(trace)
                rho = combined_standings(trace)
                assert is_noncrossing(rho)
                # block of the last insertion time must be an interval
                i, v, w = data[-1]
                assert i == max(d[0] for d in data)
                block = sorted(v + tuple(n + 1 - q for q in w))
                assert block == list(range(block[0], block[-1] + 1))


def test_combined_standings_merge_left_and_reflected_right_standings():
    for n in range(1, 8):
        for chi, traces in replays(n):
            for trace in traces:
                merged = Partition(n, [
                    v + tuple(n + 1 - q for q in w) for _, v, w in dict_standings(trace)
                ])
                rho = combined_standings(trace)
                assert rho == merged
                assert rho.blocks == merged.blocks


def test_sigma_maps_combined_standings_to_output():
    for n in range(1, 7):
        for chi in all_chi(n):
            sigma = sigma_chi(chi)
            for path in enumerate_luk(n):
                trace = simulate(path, chi)
                assert act(sigma, combined_standings(trace)) == trace.output_partition


def test_one_memo_per_word_relabels_each_trace_as_a_fresh_call_does():
    # the block memos as lemma48 reads them: chi's own for chi.slot and
    # sigma_chi's own, each filled by one chi's traces alone
    for n in range(1, 8):
        for chi, traces in replays(n):
            sigma = sigma_chi(chi)
            for trace in traces:
                rho = combined_standings(trace)
                assert rho.blocks == deque._relabel(chi.slot, trace.output_partition, {}).blocks
                image = act(sigma, rho)
                assert image.blocks == trace.output_partition.blocks
            for owner, image in ((chi, chi.slot), (sigma, (0,) + sigma.images)):
                assert 0 < len(owner._blocks) <= 2 ** n - 1
                for block, relabelled in owner._blocks.items():
                    assert relabelled == tuple(sorted(image[m] for m in block))


def test_rise_rows_hold_the_rises_of_every_reachable_height():
    for n in range(1, 8):
        rows = deque._rise_rows(n)
        assert len(rows) == n + 1 and rows[0] == ()
        for t in range(1, n + 1):
            assert rows[t] == tuple(_rises(n, t, height) for height in range(n - t + 2))
        for path in enumerate_luk(n):
            for t, height in enumerate([0] + path.heights()[:-1], start=1):
                assert path.rise[t - 1] in rows[t][height]


def test_output_partition_canonical_path():
    for n in range(1, 6):
        for chi in all_chi(n):
            for path in enumerate_luk(n):
                assert psi(output_partition(path, chi)) == path


def test_chi_opposite():
    assert chi_opposite(EX_CHI) == ChiWord("lrllr")
    assert chi_opposite(ChiWord("lll")) == ChiWord("lll")
    for chi in all_chi(5):
        assert chi_opposite(chi_opposite(chi)) == chi


@pytest.mark.parametrize("n, u, entry", [(3, True, "True"), (3, 1.0, "1.0"), (True, 0, "True")])
def test_tau_u_refuses_a_bool_or_float(n, u, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        tau_u(n, u)


def test_tau_u_examples():
    assert tau_u(5, 0) == Permutation.reversal(5)
    assert tau_u(5, 5) == Permutation.reversal(5)
    assert tau_u(5, 3) == Permutation([3, 2, 1, 5, 4])
    with pytest.raises(ValueError):
        tau_u(4, 5)


def test_tau_u_preserves_noncrossing_family():
    for n in range(1, 7):
        nc = set(enumerate_noncrossing(n))
        for u in range(n + 1):
            assert {act(tau_u(n, u), p) for p in nc} == nc


def test_opposite_family_and_sigma_relation():
    for n in range(1, 7):
        for chi in all_chi(n):
            opp = chi_opposite(chi)
            fam = pchi_by_enumeration(chi)
            assert sorted(opposite(p) for p in fam) == pchi_by_enumeration(opp)
            u = len(chi.m_ell)
            lhs = sigma_chi(opp)
            rhs = Permutation.reversal(n).compose(sigma_chi(chi)).compose(tau_u(n, u))
            assert lhs == rhs


def test_family_lattice_properties():
    for n in range(1, 6):
        nc = enumerate_noncrossing(n)
        n_minus_one_block = [
            p for p in enumerate_partitions(n) if p.block_count() == n - 1
        ]
        for chi in all_chi(n):
            fam = set(pchi_by_enumeration(chi))
            assert singletons(n) in fam
            assert one_block(n) in fam
            for p in n_minus_one_block:
                assert p in fam
            sigma = sigma_chi(chi)
            for p in nc:
                for q in nc:
                    assert leq(p, q) == leq(act(sigma, p), act(sigma, q))
            for p in fam:
                for q in fam:
                    assert meet(p, q) in fam


def one_ball_replay(path, chi):
    """Reference replay: balls enter and leave one at a time, and each
    block is gathered by asking every ball for its batch."""
    pipe = collections.deque()
    batch_of = {}
    exit_time = {}
    exit_order = []
    insertion_times = []
    ball = 0
    for t, (q, h) in enumerate(zip(path.rise, chi.letters), start=1):
        if q + 1:
            insertion_times.append(t)
        for _ in range(q + 1):
            ball += 1
            batch_of[ball] = t
            if h == "l":
                pipe.appendleft(ball)
            else:
                pipe.append(ball)
        out = pipe.popleft() if h == "l" else pipe.pop()
        exit_order.append(out)
        exit_time[out] = t
    blocks = [[exit_time[b] for b in batch_of if batch_of[b] == i] for i in insertion_times]
    return tuple(exit_order), Partition(path.n, blocks), tuple(insertion_times)


def dict_standings(trace):
    """Reference standings: a dict from position to standing per side."""
    chi = trace.chi
    ell_standing = {m: q for q, m in enumerate(chi.m_ell, 1)}
    r_standing = {m: q for q, m in enumerate(chi.m_r, 1)}
    return [
        (
            i,
            tuple(sorted(ell_standing[m] for m in block if m in ell_standing)),
            tuple(sorted(r_standing[m] for m in block if m in r_standing)),
        )
        for i, block in zip(trace.insertion_times, trace.output_partition.blocks)
    ]


def assert_replay_matches_reference(path, chi):
    trace = simulate(path, chi)
    exit_order, partition, insertion_times = one_ball_replay(path, chi)
    assert trace.exit_order == exit_order
    assert trace.output_partition == partition
    assert trace.insertion_times == insertion_times
    assert insertion_standings(trace) == dict_standings(trace)


def test_simulate_and_standings_match_one_ball_reference():
    for n in range(1, 7):
        for chi in all_chi(n):
            for path in enumerate_luk(n):
                assert_replay_matches_reference(path, chi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simulate_and_standings_match_one_ball_reference_at_lengths_eight_and_nine(data):
    n = data.draw(st.integers(8, 9))
    chi = ChiWord(data.draw(st.text(alphabet="lr", min_size=n, max_size=n)))
    paths = enumerate_luk(n)
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    assert_replay_matches_reference(path, chi)


def test_replays_match_the_one_ball_reference():
    for n in range(1, 8):
        paths = enumerate_luk(n)
        words = []
        for chi, traces in replays(n):
            words.append(chi)
            traces = list(traces)
            assert len(traces) == len(paths) == comb(2 * n, n) // (n + 1)
            for path, trace in zip(paths, traces):
                exit_order, partition, insertion_times = one_ball_replay(path, chi)
                assert trace.chi == chi
                assert trace.exit_order == exit_order
                assert trace.output_partition == partition
                assert trace.output_partition.blocks == partition.blocks
                assert trace.insertion_times == insertion_times
        assert words == all_chi(n)
        assert len(words) == 2 ** n


def test_replays_checks_the_ground_set_before_any_replay():
    with pytest.raises(ValueError):
        replays(MAX_GROUND_SET + 1)


def test_the_replay_step_keeps_both_of_its_checks():
    with pytest.raises(RuntimeError, match="empty queue"):
        deque._step(deque._START, 1, -1, "l")
    # two balls in, one out: the second never leaves
    with pytest.raises(RuntimeError, match="every ball"):
        deque._trace(ChiWord("r"), deque._step(deque._START, 1, 1, "r"))


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_pchi_by_enumeration_matches_simulate_at_lengths_eight_and_nine(data):
    n = data.draw(st.integers(8, 9))
    chi = ChiWord(data.draw(st.text(alphabet="lr", min_size=n, max_size=n)))
    by_simulate = sorted(simulate(path, chi).output_partition
                         for path in enumerate_luk(n))
    family = pchi_by_enumeration(chi)
    assert family == by_simulate
    assert [p.blocks for p in family] == [p.blocks for p in by_simulate]


def test_pchi_by_enumeration_holds_no_whole_level_of_states():
    # a fold that kept a level of the 4862 path-prefix states beside the
    # family would at least double the peak; the lazy fold adds little
    # to the family it returns
    tracemalloc.start()
    try:
        family = pchi_by_enumeration(ChiWord("lrrlrllrl"))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family) == 4862
    assert peak < 1.5 * held


def assert_trusted_partitions_are_canonical(path, chi):
    """simulate and combined_standings build their partitions without
    validation; the validating constructor must accept them unchanged."""
    trace = simulate(path, chi)
    for p in (trace.output_partition, combined_standings(trace)):
        checked = Partition(p.n, p.blocks)
        assert checked == p
        assert checked.blocks == p.blocks


def test_trusted_partitions_match_the_validating_constructor():
    for n in range(1, 8):
        paths = enumerate_luk(n)
        for chi in all_chi(n):
            for path in paths:
                assert_trusted_partitions_are_canonical(path, chi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trusted_partitions_match_the_validating_constructor_at_lengths_eight_and_nine(data):
    n = data.draw(st.integers(8, 9))
    chi = ChiWord(data.draw(st.text(alphabet="lr", min_size=n, max_size=n)))
    paths = enumerate_luk(n)
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    assert_trusted_partitions_are_canonical(path, chi)
