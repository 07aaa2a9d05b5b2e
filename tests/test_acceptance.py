"""Acceptance criteria, one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The verification suites in :mod:`lrcumulants.verify` do the
sweeping; this module pins the scales.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from lrcumulants.cumulants import CumulantEngine, moment_from_cumulants
from lrcumulants.deque import (
    ChiWord,
    combined_standings,
    output_partition,
    pchi_by_enumeration,
    sigma_chi,
    simulate,
    standings_partitions,
)
from lrcumulants.fock import CoefficientTable, PolyScalar, lemma67_vector
from lrcumulants.lukasiewicz import LukPath, enumerate_luk
from lrcumulants.partitions import Partition, Permutation, enumerate_noncrossing
from lrcumulants.verify import ACCEPTANCE_SCALES, run_suite


def catalan(n):
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def announce(num, description, instances, elapsed, ok):
    marker = "PASS" if ok else "FAIL"
    print(f"{marker} criterion {num:>2} ({description}): {instances} instances in {elapsed:.1f}s")


def run_and_announce(num, description, suite):
    t0 = time.perf_counter()
    result = run_suite(suite, **ACCEPTANCE_SCALES[suite])
    announce(num, description, result.instances, time.perf_counter() - t0, result.passed)
    failures = [c for c in result.checks if not c.ok]
    assert result.passed, failures[:5]
    return result


def test_criterion_01_cardinalities_up_to_seven():
    t0 = time.perf_counter()
    instances = 0
    for n in range(1, 8):
        c = catalan(n)
        assert len(enumerate_noncrossing(n)) == c
        assert len(enumerate_luk(n)) == c
        instances += 2
        for letters in itertools.product("lr", repeat=n):
            family = pchi_by_enumeration(ChiWord("".join(letters)))
            assert len(family) == c, (n, letters)
            instances += 1
    announce(1, "family cardinalities are Catalan through n=7", instances, time.perf_counter() - t0, True)


def test_criterion_02_family_dual_route_equality():
    run_and_announce(2, "scenario and permutation routes agree", "thm49")


def test_criterion_03_worked_examples_bit_exact():
    t0 = time.perf_counter()
    path = LukPath([2, -1, 1, -1, -1])
    chi = ChiWord("rllrl")
    assert output_partition(path, chi) == Partition(5, [[1, 2, 4], [3, 5]])
    assert sigma_chi(chi) == Permutation([2, 3, 5, 4, 1])
    trace = simulate(path, chi)
    left, right = standings_partitions(trace)
    assert left == Partition(3, [[1], [2, 3]])
    assert right == Partition(2, [[1, 2]])
    assert combined_standings(trace) == Partition(5, [[1, 4, 5], [2, 3]])
    table = CoefficientTable.symbolic(5, 5)
    scalar = PolyScalar.symbol("a", (5, 3)) * PolyScalar.symbol("b", (2, 4, 1))
    assert lemma67_vector(path, chi, (1, 2, 3, 4, 5), table) == {(): scalar}
    announce(3, "worked scenario, standings, and product scalar", 6, time.perf_counter() - t0, True)


def test_criterion_04_scenario_partition_properties():
    run_and_announce(4, "combined standings non-crossing and consistent", "prop46")
    run_and_announce(4, "permutation carries standings onto outputs", "lemma48")


def test_criterion_05_reversal_relations():
    run_and_announce(5, "reversed words mirror families", "prop413")


def test_criterion_06_lattice_structure():
    run_and_announce(6, "membership, order isomorphism, meet closure", "cor410")


def test_criterion_07_fourteen_term_moment():
    run_and_announce(7, "interleaved moment equals golden 14-term sum", "eq12x")


def test_criterion_08_three_term_free_cumulant():
    run_and_announce(8, "interleaved free cumulant equals golden 3-term sum", "eq12y")


def test_criterion_09_cumulants_collapse_to_mixtures():
    run_and_announce(9, "cumulants of operator words are single mixtures", "thm65")


def test_criterion_10_moment_sums_and_products():
    run_and_announce(10, "sequential moments equal family sums", "prop610")
    run_and_announce(10, "products collapse to reverse-mixture multiples", "lemma67")


def test_criterion_11_moment_cumulant_round_trip():
    t0 = time.perf_counter()
    instances = 0
    for n in range(1, 6):
        word = tuple(range(1, n + 1))
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            values = {}
            for k in range(1, n + 1):
                for positions in itertools.combinations(range(1, n + 1), k):
                    values[positions] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            phi = values.__getitem__
            engine = CumulantEngine(phi)
            for letters in itertools.product("lr", repeat=n):
                chi = "".join(letters)
                assert moment_from_cumulants(chi, word, engine._kappa) == phi(word), (chi, seed)
                instances += 1
    announce(11, "cumulant expansion recovers every moment", instances, time.perf_counter() - t0, True)


def test_criterion_12_combinatorial_bifreeness():
    run_and_announce(12, "separated symbols are bi-free, mixed injection is caught", "bifree")
