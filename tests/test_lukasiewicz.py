"""Path validation, enumeration, and the partition/path correspondence."""

from math import factorial

import pytest

from lrcumulants.deque import ChiWord, output_partition
from lrcumulants.lukasiewicz import InvalidRiseVector, LukPath, enumerate_luk, psi
from lrcumulants.partitions import (
    Partition,
    enumerate_noncrossing,
    enumerate_partitions,
    is_noncrossing,
    one_block,
    singletons,
)


def catalan(n):
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def test_validate_rise_accepts_paths():
    p = LukPath([2, -1, 1, -1, -1])
    assert p.n == 5
    assert p.rise == (2, -1, 1, -1, -1)
    assert p.heights() == [2, 1, 2, 1, 0]
    assert LukPath([0, 0, 0]).rise == (0, 0, 0)
    assert p.to_json() == [2, -1, 1, -1, -1]
    assert LukPath.from_json([0]) == LukPath([0])


def test_validate_rise_reports_first_failing_prefix():
    with pytest.raises(InvalidRiseVector) as err:
        LukPath([-1, 1])
    assert err.value.prefix == 1
    with pytest.raises(InvalidRiseVector) as err:
        LukPath([1, -1, -1, 2])
    assert err.value.prefix == 3
    with pytest.raises(InvalidRiseVector) as err:
        LukPath([1, 0])
    assert err.value.prefix is None  # bad total, every prefix fine
    with pytest.raises(InvalidRiseVector):
        LukPath([])
    with pytest.raises(InvalidRiseVector) as err:
        LukPath([2, -2])
    assert err.value.prefix == 2  # entries below -1 are rejected outright


def test_validate_rise_rejects_bools_at_their_position():
    # bool is an int subclass: True would pass for a rise of 1
    for rise, prefix in (([True, -1], 1), ([1, False, -1], 2), ([0, 1, -1, False], 4)):
        with pytest.raises(InvalidRiseVector) as err:
            LukPath(rise)
        assert err.value.prefix == prefix
        assert f"at position {prefix}" in str(err.value)
    assert LukPath([1, 0, -1]).rise == (1, 0, -1)


def test_enumerate_luk_counts():
    assert [p.rise for p in enumerate_luk(1)] == [(0,)]
    for n in range(1, 8):
        paths = enumerate_luk(n)
        assert len(paths) == catalan(n)
        assert len(set(paths)) == len(paths)


def test_enumerate_luk_returns_a_fresh_list():
    paths = enumerate_luk(4)
    expected = list(paths)
    paths.pop()
    paths.append(LukPath([0, 0, 0, 0]))
    paths.reverse()
    assert enumerate_luk(4) == expected
    assert enumerate_luk(4) is not enumerate_luk(4)


def test_enumerate_luk_matches_filtering_all_vectors():
    # Independent route: every vector in {-1..n-1}^n that validates.
    import itertools

    n = 5
    brute = set()
    for vec in itertools.product(range(-1, n), repeat=n):
        try:
            brute.add(LukPath(vec))
        except InvalidRiseVector:
            pass
    assert brute == set(enumerate_luk(n))


def test_psi_examples():
    assert psi(Partition(5, [[1, 2, 4], [3, 5]])).rise == (2, -1, 1, -1, -1)
    assert psi(singletons(6)).rise == (0,) * 6
    assert psi(one_block(5)).rise == (4, -1, -1, -1, -1)


def test_phi_examples():
    # phi, the inverse of psi on non-crossing partitions, is the all-l replay
    assert output_partition(LukPath([2, -1, 1, -1, -1]), ChiWord("lllll")) == Partition(
        5, [[1, 2, 5], [3, 4]]
    )
    assert output_partition(LukPath([0, 0, 0, 0]), ChiWord("llll")) == singletons(4)
    assert output_partition(LukPath([4, -1, -1, -1, -1]), ChiWord("lllll")) == one_block(5)


def test_phi_psi_round_trips():
    for n in range(1, 8):
        chi = ChiWord("l" * n)
        for path in enumerate_luk(n):
            p = output_partition(path, chi)
            assert is_noncrossing(p)
            assert psi(p) == path
        for p in enumerate_noncrossing(n):
            assert output_partition(psi(p), chi) == p


def test_psi_surjective_onto_paths():
    for n in range(1, 7):
        images = {psi(p) for p in enumerate_partitions(n)}
        assert images == set(enumerate_luk(n))
