"""Cumulant recursion, moment reconstruction, and mixed-cumulant vanishing."""

import itertools
import random
from fractions import Fraction

import json
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcumulants.cumulants as cumulants
from lrcumulants.cli import main
from lrcumulants.cumulants import (
    Column,
    CumulantEngine,
    NCPlan,
    dag_sum,
    is_combinatorially_bifree_upto,
    mobius_cumulant,
    moment_from_cumulants,
)
from lrcumulants.deque import restriction_data
from lrcumulants.fock import CoefficientTable, PolyScalar, VacuumMoments, _unfactor, moment_via_sigma
from lrcumulants.partitions import (
    Partition,
    Permutation,
    enumerate_noncrossing,
    enumerate_partitions,
    leq,
    noncrossing_mobius,
    one_block,
    singletons,
)
from lrcumulants.verify import shared


def rational_functional(n, seed):
    """Random exact values on every subsequence of the word (1, ..., n)."""
    rng = random.Random(seed)
    values = {}
    for k in range(1, n + 1):
        for positions in itertools.combinations(range(1, n + 1), k):
            values[positions] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return values.__getitem__


def formal_functional(word):
    """Moment values as independent formal symbols, one per word."""
    return PolyScalar.symbol("a", word)


def all_chi(n):
    return ["".join(w) for w in itertools.product("lr", repeat=n)]


def test_single_letter_cumulant_is_the_moment():
    phi = rational_functional(1, seed=0)
    for chi in ("l", "r"):
        assert CumulantEngine(phi).cumulant(chi, (1,)) == phi((1,))


def test_length_two_free_cumulant():
    phi = rational_functional(2, seed=1)
    expected = phi((1, 2)) - phi((1,)) * phi((2,))
    assert CumulantEngine(phi).cumulant("ll", (1, 2)) == expected


def test_chi_independent_up_to_three():
    for n in (1, 2, 3):
        for seed in (0, 1):
            phi = rational_functional(n, seed)
            word = tuple(range(1, n + 1))
            engine = CumulantEngine(phi)
            reference = engine.cumulant("l" * n, word)
            for chi in all_chi(n):
                assert engine.cumulant(chi, word) == reference


def test_constant_words_agree():
    for n in range(1, 6):
        for seed in (0, 5):
            phi = rational_functional(n, seed)
            word = tuple(range(1, n + 1))
            engine = CumulantEngine(phi)
            assert engine.cumulant("l" * n, word) == engine.cumulant("r" * n, word)


def test_interleaved_cumulant_identity_length_four():
    # over formal symbols: the lrlr-cumulant equals the free cumulant plus
    # kappa2(a1,a4)kappa2(a2,a3) minus kappa2(a1,a3)kappa2(a2,a4)
    engine = CumulantEngine(formal_functional)
    word = (1, 2, 3, 4)
    k2 = lambda i, j: engine.cumulant("ll", (i, j))
    lhs = engine.cumulant("lrlr", word)
    rhs = engine.cumulant("llll", word) + k2(1, 4) * k2(2, 3) - k2(1, 3) * k2(2, 4)
    assert lhs == rhs


def test_moment_round_trip():
    for n in range(1, 6):
        word = tuple(range(1, n + 1))
        for seed in (0, 1, 2):
            phi = rational_functional(n, seed)
            engine = CumulantEngine(phi)
            for chi in all_chi(n):
                assert moment_from_cumulants(chi, word, engine._kappa) == phi(word)
                assert engine.moment(chi, word) == phi(word)


def test_recursion_is_a_fixed_polynomial_in_the_moments():
    # compute the cumulant over formal moment symbols, then substitute a
    # rational functional into that polynomial and compare with the direct
    # rational evaluation
    for n in range(1, 5):
        word = tuple(range(1, n + 1))
        engine = CumulantEngine(formal_functional)
        phi = rational_functional(n, seed=7)
        direct = CumulantEngine(phi)
        for chi in all_chi(n):
            poly = engine.cumulant(chi, word)
            substituted = Fraction(0)
            for mono, coeff in poly.terms.items():
                term = Fraction(coeff)
                for _, sym_word in map(_unfactor, mono):
                    term *= phi(sym_word)
                substituted += term
            assert substituted == direct.cumulant(chi, word)


def test_length_mismatch_rejected():
    phi = rational_functional(3, seed=0)
    with pytest.raises(ValueError):
        CumulantEngine(phi).cumulant("lr", (1, 2, 3))
    with pytest.raises(ValueError):
        moment_from_cumulants("lrl", (1, 2), lambda c, w: 1)


def test_chi_and_the_operator_sides_are_independent():
    # kappa_chi is defined on any tuple of elements; eq12y takes the
    # all-r cumulant of an l r l r operator word
    vm = shared("random", 2, 3, 0)
    engine = CumulantEngine(vm)
    a, b = (1, "r"), (2, "l")
    assert engine.cumulant("lr", (a, b)) == vm((a, b)) - vm((a,)) * vm((b,))
    assert engine.cumulant("lr", (a, b)) != engine.cumulant("lr", ((1, "l"), (2, "r")))


def test_free_cumulants_of_canonical_operators_are_single_symbols():
    table = CoefficientTable.symbolic(2, 5)
    engine = CumulantEngine(VacuumMoments(table))
    for n in range(1, 6):
        for omega in itertools.product((1, 2), repeat=n):
            aword = tuple((i, "l") for i in omega)
            bword = tuple((i, "r") for i in omega)
            assert engine.cumulant("l" * n, aword) == PolyScalar.symbol("a", omega)
            assert engine.cumulant("l" * n, bword) == PolyScalar.symbol("b", omega)


def test_reversal_adjoint_relation_on_operator_words():
    # cumulants of starred operator words equal the reverse-chi cumulants of
    # the reversed plain words (coefficients are rational, so conjugation
    # drops out)
    from lrcumulants.fock import adjoint, canonical_operator, vacuum_expectation

    table = CoefficientTable.random(2, 4, seed=4)
    ops = {}
    for i in (1, 2):
        for h in "lr":
            op = canonical_operator(i, h, table)
            ops[(i, h)] = op
            ops[(i, h, "*")] = adjoint(op)
    engine = CumulantEngine(cache(lambda word: vacuum_expectation([ops[x] for x in word])))
    for n in range(1, 5):
        for chi in all_chi(n):
            for omega in itertools.product((1, 2), repeat=n):
                starred = tuple((i, h, "*") for i, h in zip(omega, chi))
                reversed_plain = tuple((i, h) for i, h in zip(omega, chi))[::-1]
                assert engine.cumulant(chi, starred) == engine.cumulant(
                    chi[::-1], reversed_plain
                ), (chi, omega)


def test_bifree_single_pair_is_vacuous():
    phi = rational_functional(4, seed=0)
    ok, violations = is_combinatorially_bifree_upto([("x", "y")], lambda w: 1, 3)
    assert ok and violations == []
    with pytest.raises(ValueError):
        is_combinatorially_bifree_upto([("x", "y")], phi, 1)


def test_bifree_separated_fock_model():
    table = CoefficientTable.separated_random(2, 3, seed=2)
    vm = VacuumMoments(table)
    pairs = [((i, "l"), (i, "r")) for i in (1, 2)]
    ok, violations = is_combinatorially_bifree_upto(pairs, vm, 3)
    assert ok, violations


def test_bifree_detects_injected_mixed_coefficient():
    table = CoefficientTable.separated_random(2, 3, seed=2).with_entry(
        "a", (1, 2), Fraction(1)
    )
    vm = VacuumMoments(table)
    pairs = [((i, "l"), (i, "r")) for i in (1, 2)]
    ok, violations = is_combinatorially_bifree_upto(pairs, vm, 2)
    assert not ok
    assert ("ll", (1, 2)) in {(chi, idx) for chi, idx, _ in violations}
    witness = [
        table.rational(v, 2) for chi, idx, v in violations if (chi, idx) == ("ll", (1, 2))
    ]
    assert witness == [Fraction(1)]


# -- the Moebius route ----------------------------------------------------------------


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_noncrossing_mobius_sums_to_zero_below_the_top():
    for n in range(1, 9):
        family = enumerate_noncrossing(n)
        assert sum(noncrossing_mobius(p) for p in family) == (1 if n == 1 else 0)
        assert noncrossing_mobius(singletons(n)) == (-1) ** (n - 1) * catalan(n - 1)
        assert noncrossing_mobius(one_block(n)) == 1


def test_kreweras_mobius_equals_the_recursion_down_from_the_top():
    # mu(1_n, 1_n) = 1 and mu(p, 1_n) = -sum of mu(q, 1_n) over q > p
    for n in range(1, 7):
        family = enumerate_noncrossing(n)
        mu = {}
        for p in sorted(family, key=lambda p: p.block_count()):
            above = [q for q in family if q != p and leq(p, q)]
            mu[p] = 1 if not above else -sum(mu[q] for q in above)
        assert all(noncrossing_mobius(p) == mu[p] for p in family), n


def test_noncrossing_mobius_refuses_a_crossing_partition():
    for blocks in ([[1, 3], [2, 4]], [[1, 4], [2, 5], [3]]):
        with pytest.raises(ValueError, match="crossing"):
            noncrossing_mobius(Partition.from_json(blocks))
    for n in range(4, 7):
        nc = set(enumerate_noncrossing(n))
        for p in enumerate_partitions(n):
            if p not in nc:
                with pytest.raises(ValueError):
                    noncrossing_mobius(p)


def mobius_mismatches(phi, cases):
    """The (chi, word) cases on which the Moebius sum and the recursion
    disagree."""
    engine = CumulantEngine(phi)
    return [
        (chi, word) for chi, word in cases
        if mobius_cumulant(chi, word, phi) != engine.cumulant(chi, word)
    ]


def formal_cases(max_n):
    return [(chi, tuple(range(1, n + 1))) for n in range(1, max_n + 1) for chi in all_chi(n)]


def test_mobius_sum_equals_the_recursion_on_formal_moments():
    assert mobius_mismatches(formal_functional, formal_cases(6)) == []


def test_mobius_sum_rejects_a_length_mismatch():
    with pytest.raises(ValueError):
        mobius_cumulant("lr", (1, 2, 3), formal_functional)
    with pytest.raises(ValueError):
        mobius_cumulant("lx", (1, 2), formal_functional)


def flat_nc_sums(n, values, index):
    """The sums over NC(n) of mu(p, 1_n), and of 1, times the product of
    values over p's blocks, one partition at a time."""
    mobius_total = unit_total = 0
    for pblocks in restriction_data("l" * n):
        slots = [positions for positions, _ in pblocks]
        prod = 1
        for block in slots:
            prod = prod * values[index[block]]
        p = Partition(n, [[m + 1 for m in block] for block in slots])
        mobius_total = mobius_total + noncrossing_mobius(p) * prod
        unit_total = unit_total + prod
    return mobius_total, unit_total


def dag_edges(dag):
    return sum(len(edges) for _, edges in dag)


def test_nc_plan_dags_equal_the_flat_sums_over_nc():
    # one formal symbol per block, so every partition is its own monomial
    # and a DAG equals the flat sum only if it holds each p once, with its
    # weight
    for n in range(1, 9):
        plan = NCPlan(n)
        values = [PolyScalar.symbol("a", [m + 1 for m in block]) for block in plan.blocks]
        index = {block: k for k, block in enumerate(plan.blocks)}
        assert len(plan.blocks) == 2 ** n - 1
        assert (dag_sum(plan.mobius, values), dag_sum(plan.unit, values)) == flat_nc_sums(
            n, values, index
        ), n


def test_dag_sum_on_columns_is_the_scalar_sum_at_every_entry(monkeypatch):
    def compared(self, other):
        raise AssertionError("a PolyScalar was compared")

    for n in range(1, 7):
        plan = NCPlan(n)
        values = [PolyScalar.symbol("a", [m + 1 for m in block]) for block in plan.blocks]
        doubled = [v * 2 for v in values]
        graded = [len(block) + 1 for block in plan.blocks]
        columns = [Column(entry) for entry in zip(values, doubled, graded)]
        for dag in (plan.unit, plan.mobius):
            monkeypatch.setattr(PolyScalar, "__eq__", compared)
            got = dag_sum(dag, columns)
            want = [dag_sum(dag, entry) for entry in (values, doubled, graded)]
            monkeypatch.undo()
            assert type(got) is Column and got == want, n


def test_dag_sum_multiplies_by_no_unit_leaf(monkeypatch):
    products = []
    times = PolyScalar.__mul__
    monkeypatch.setattr(PolyScalar, "__mul__", lambda a, b: products.append(b) or times(a, b))
    for n in range(1, 7):
        plan = NCPlan(n)
        values = [PolyScalar.symbol("a", [m + 1 for m in block]) for block in plan.blocks]
        products.clear()
        dag_sum(plan.unit, values)
        # each edge into a node other than the unit leaf is one product
        assert len(products) == sum(
            plan.unit[child] != (1, ()) for _, edges in plan.unit for _, child in edges
        ), n
        assert all(isinstance(factor, PolyScalar) for factor in products)


def test_nc_plan_dag_edge_counts():
    # a per-partition loop makes sum over p of |p| products: 1,716 at n = 7
    plans = [NCPlan(n) for n in range(1, 9)]
    assert [dag_edges(plan.mobius) for plan in plans] == [1, 3, 9, 27, 74, 201, 524, 1343]
    assert [dag_edges(plan.unit) for plan in plans] == [1, 3, 8, 20, 48, 112, 256, 576]


def test_a_moment_sum_computes_no_mobius_function(monkeypatch, fresh_mobius_plans):
    def refuse(p):
        raise AssertionError("mu computed")

    monkeypatch.setattr(cumulants, "noncrossing_mobius", refuse)
    table = CoefficientTable.random(2, 5, 0)
    assert moment_via_sigma((1, 2, 2, 1, 2), "lrrlr", table) == VacuumMoments(table)(
        tuple(zip((1, 2, 2, 1, 2), "lrrlr"))
    )
    # the moment sum built the NC(5) plan through the memo, and reading it
    # back is a hit, not a second build
    assert cumulants._mobius_plan.cache_info().currsize == 1
    plan = cumulants._mobius_plan(5)
    assert cumulants._mobius_plan.cache_info().misses == 1
    assert "mobius" not in plan.__dict__


@st.composite
def operator_cases(draw, n_values):
    n = draw(st.sampled_from(n_values))
    chi = draw(st.text("lr", min_size=n, max_size=n))
    omega = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    return chi, tuple(zip(omega, chi))


@settings(max_examples=12, deadline=None)
@given(operator_cases((7, 8)), st.integers(0, 10**6))
def test_mobius_sum_equals_the_recursion_on_a_random_table(case, seed):
    vm = VacuumMoments(CoefficientTable.random(2, 8, seed))
    assert mobius_mismatches(vm, [case]) == []


@settings(max_examples=4, deadline=None)
@given(operator_cases((7, 8)))
def test_mobius_sum_equals_the_recursion_on_the_symbolic_table(case):
    vm = VacuumMoments(CoefficientTable.symbolic(2, 8))
    assert mobius_mismatches(vm, [case]) == []


def unsigned_mobius(p):
    return abs(noncrossing_mobius(p))


def identity_sigma(chi):
    return Permutation.identity(chi.n)


@pytest.mark.parametrize(
    "name, defect",
    [("noncrossing_mobius", unsigned_mobius), ("sigma_chi", identity_sigma)],
)
def test_mobius_route_fails_under_an_injected_defect(
    name, defect, monkeypatch, tmp_path, capsys, fresh_mobius_plans
):
    monkeypatch.setattr(cumulants, name, defect)
    # for n <= 3 every family is NC(n), so sigma_chi matters from n = 4 on
    assert mobius_mismatches(formal_functional, formal_cases(4))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(CoefficientTable.random(2, 4, 0).to_json()))
    for source in (["--symbolic"], ["--table", str(path)]):
        code = main(["cumulant", "--chi", "lrlr", "--omega", "1,2,1,2", *source])
        out = capsys.readouterr().out
        assert code == 1, source
        assert "FAIL mobius sum equals mixture coefficient" in out
