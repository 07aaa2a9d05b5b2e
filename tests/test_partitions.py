"""Partition, order, and permutation-action behaviour."""

import itertools
import random
import re
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcumulants.partitions import (
    MAX_GROUND_SET,
    Partition,
    Permutation,
    _relabel,
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


def bell_numbers(upto):
    """Bell numbers via the Bell triangle (independent of the enumerator)."""
    row = [1]
    out = [1]
    for _ in range(upto - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        out.append(row[-1])
    return out


def catalan(n):
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def crosses_brute_force(p):
    """Quadruple scan straight from the definition of a crossing."""
    idx = p.block_index()
    n = p.n
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        if idx[a] == idx[c] and idx[b] == idx[d] and idx[a] != idx[b]:
            return True
    return False


# -- construction and canonical form ----------------------------------------


def test_canonical_form():
    p = Partition(5, [[3, 5], [4, 1, 2]])
    assert p.blocks == ((1, 2, 4), (3, 5))
    assert p == Partition(5, [(1, 2, 4), (5, 3)])
    assert p.to_json() == [[1, 2, 4], [3, 5]]
    assert Partition.from_json([[1, 2, 4], [3, 5]]) == p


@pytest.mark.parametrize(
    "n,blocks",
    [
        (3, [[1, 2]]),  # misses 3
        (3, [[1, 2], [2, 3]]),  # overlap
        (3, [[1, 2, 3], []]),  # empty block
        (2, [[1, 2, 3]]),  # out of range
        (0, []),
    ],
)
def test_invalid_partitions_rejected(n, blocks):
    with pytest.raises(ValueError):
        Partition(n, blocks)


def test_enumeration_counts_match_bell_triangle():
    bells = bell_numbers(7)
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        assert len(parts) == bells[n - 1]
        assert len(set(parts)) == len(parts)


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(MAX_GROUND_SET + 1)


def test_n1_and_n3_and_n4_counts():
    assert enumerate_partitions(1) == [Partition(1, [[1]])]
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(4)) == 15


# -- non-crossing ------------------------------------------------------------


def test_noncrossing_counts_are_catalan():
    for n in range(1, 9):
        assert len(enumerate_noncrossing(n)) == catalan(n)


def test_enumerate_noncrossing_returns_a_fresh_list():
    family = enumerate_noncrossing(4)
    expected = list(family)
    family.pop()
    family.append(Partition(4, [[1, 3], [2, 4]]))
    family.sort(reverse=True)
    assert enumerate_noncrossing(4) == expected
    assert enumerate_noncrossing(4) is not enumerate_noncrossing(4)


def test_noncrossing_agrees_with_quadruple_scan():
    for n in range(1, 8):
        for p in enumerate_partitions(n):
            assert is_noncrossing(p) == (not crosses_brute_force(p))


def noncrossing_by_element_scan(p):
    """A scan of 1..n with a stack of open block indices, read off the
    block index: the reference for the scan of the canonical blocks."""
    idx = p.block_index()
    stack = []
    for m in range(1, p.n + 1):
        k = idx[m]
        block = p.blocks[k]
        if block[0] == m:
            stack.append(k)
        elif stack[-1] != k:
            return False
        if block[-1] == m:
            stack.pop()
    return True


def test_noncrossing_matches_the_element_scan():
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            assert is_noncrossing(p) == noncrossing_by_element_scan(p)
    for n in range(1, 10):
        assert sum(map(is_noncrossing, enumerate_partitions(n))) == catalan(n)


def test_noncrossing_examples():
    assert not is_noncrossing(Partition(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(Partition(5, [[1, 2, 4], [3, 5]])) is False
    assert is_noncrossing(Partition(5, [[1, 2, 5], [3, 4]]))
    for n in (1, 4, 7):
        assert is_noncrossing(one_block(n))


# -- order, meet -------------------------------------------------------------


def test_leq_examples():
    q = Partition(3, [[1, 3], [2]])
    assert leq(Partition(3, [[1], [2], [3]]), q)
    assert not leq(Partition(3, [[1, 2], [3]]), q)
    for p in enumerate_partitions(4):
        assert leq(singletons(4), p)
        assert leq(p, one_block(4))
    with pytest.raises(ValueError):
        leq(singletons(3), singletons(4))


def test_poset_laws_exhaustive_small():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for p in parts:
            assert leq(p, p)
        for p, q in itertools.combinations(parts, 2):
            if leq(p, q) and leq(q, p):
                assert p == q
        for p in parts:
            below = [q for q in parts if leq(p, q)]
            for q in below:
                for r in parts:
                    if leq(q, r):
                        assert leq(p, r)


def test_meet_is_glb_exhaustive_small():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for p in parts:
            assert meet(p, one_block(n)) == p
            assert meet(p, p) == p
        for p in parts:
            for q in parts:
                m = meet(p, q)
                assert m == meet(q, p)
                assert leq(m, p) and leq(m, q)
                for r in parts:
                    if leq(r, p) and leq(r, q):
                        assert leq(r, m)


def test_meet_example():
    assert meet(
        Partition(5, [[1, 2, 4], [3, 5]]), Partition(5, [[1, 2, 3], [4, 5]])
    ) == Partition(5, [[1, 2], [3], [4], [5]])


# -- permutations and actions -------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([])
    assert Permutation.identity(4).images == (1, 2, 3, 4)
    assert Permutation.reversal(4).images == (4, 3, 2, 1)
    assert Permutation([2, 3, 1]).inverse() == Permutation([3, 1, 2])
    assert Permutation([2, 3, 1]).to_json() == [2, 3, 1]


def test_act_examples():
    p = Partition(3, [[1, 2], [3]])
    assert act(Permutation.identity(3), p) == p
    assert act(Permutation.reversal(3), p) == Partition(3, [[1], [2, 3]])
    sigma = Permutation([2, 3, 5, 4, 1])
    assert act(sigma, Partition(5, [[1, 4, 5], [2, 3]])) == Partition(
        5, [[1, 2, 4], [3, 5]]
    )
    with pytest.raises(ValueError):
        act(Permutation.identity(3), singletons(4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_is_a_group_action(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    s = Permutation(data.draw(st.permutations(list(range(1, n + 1)))))
    t = Permutation(data.draw(st.permutations(list(range(1, n + 1)))))
    blocks = []
    current = []
    for m in range(1, n + 1):
        current.append(m)
        if data.draw(st.booleans()) or m == n:
            blocks.append(current)
            current = []
    p = Partition(n, blocks)
    assert act(s, act(t, p)) == act(s.compose(t), p)


def test_opposite():
    assert opposite(one_block(6)) == one_block(6)
    assert opposite(Partition(5, [[1, 2, 4], [3, 5]])) == Partition(
        5, [[2, 4, 5], [1, 3]]
    )
    for n in range(1, 6):
        for p in enumerate_partitions(n):
            assert opposite(opposite(p)) == p


def test_opposite_preserves_noncrossing():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            assert is_noncrossing(opposite(p)) == is_noncrossing(p)


def assert_validated_as(p, blocks):
    """p equals the validating construction from ``blocks``, canonical
    block tuples included."""
    checked = Partition(p.n, blocks)
    assert checked == p
    assert checked.blocks == p.blocks


def test_act_and_opposite_match_the_validating_constructor():
    rng = random.Random(0)
    for n in range(1, 7):
        perms = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(20)]
        for p in enumerate_partitions(n):
            for t in perms:
                assert_validated_as(act(t, p), [[t(m) for m in b] for b in p.blocks])
            assert_validated_as(opposite(p), [[n + 1 - m for m in b] for b in p.blocks])


def test_meet_matches_the_validating_constructor():
    for n in range(1, 6):
        family = enumerate_partitions(n)
        for p in family:
            for q in family:
                blocks = [set(a) & set(b) for a in p.blocks for b in q.blocks]
                assert_validated_as(meet(p, q), [b for b in blocks if b])


def test_relabel_matches_the_validating_constructor():
    for n in range(1, 6):
        family = enumerate_partitions(n)
        for images in itertools.permutations(range(1, n + 1)):
            image = (0,) + images
            t = Permutation(images)
            # a fresh memo per call, then one memo for the whole family
            # through _relabel, and t's own memo through act
            memo = {}
            for p in family:
                expected = [[image[m] for m in b] for b in p.blocks]
                assert_validated_as(_relabel(image, p, {}), expected)
                assert_validated_as(_relabel(image, p, memo), expected)
                assert_validated_as(act(t, p), expected)
            # every non-empty subset of {1..n} is a block of some partition:
            # the memo ends with each once, mapped to its sorted image
            assert len(memo) == 2 ** n - 1
            assert t._blocks == memo
            for block, relabelled in memo.items():
                assert relabelled == tuple(sorted(image[m] for m in block))


@pytest.mark.parametrize(
    "build,entry",
    [
        (lambda: Permutation([2.0, 1.0, 3.0]), "2.0"),
        (lambda: Permutation([True, 2]), "True"),
        (lambda: Partition(2, [[1.0, 2]]), "1.0"),
        (lambda: Partition(True, [[1]]), "True"),
        (lambda: enumerate_noncrossing(True), "True"),
        (lambda: enumerate_partitions(2.0), "2.0"),
    ],
    ids=["float-permutation", "bool-permutation", "float-block-entry", "bool-ground-set",
         "bool-noncrossing-size", "float-partitions-size"],
)
def test_validating_constructors_refuse_floats_and_bools(build, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        build()


def test_block_index_is_built_once():
    p = Partition(5, [[3, 5], [4, 1, 2]])
    first = p.block_index()
    assert first == (0, 0, 0, 1, 0, 1)
    assert p.block_index() is first
    assert one_block(3).block_index() == (0, 0, 0, 0)


def test_trusted_partitions_equal_validated_ones_and_stay_immutable():
    for n in range(1, 6):
        for p in enumerate_partitions(n):
            checked = Partition(n, p.blocks)
            trusted = (
                p,
                Partition._unchecked(n, p.blocks),
                act(Permutation.identity(n), p),
                meet(p, one_block(n)),
            )
            for t in trusted:
                t.block_index()  # fills the kept index
                assert t == checked and hash(t) == hash(checked)
                for name in ("n", "blocks", "_index"):
                    with pytest.raises(AttributeError, match="immutable"):
                        setattr(t, name, None)
    for p in (singletons(4), one_block(4)):
        assert p == Partition(4, p.blocks) and hash(p) == hash(Partition(4, p.blocks))


def test_a_permutation_with_a_filled_memo_equals_and_hashes_like_a_fresh_one():
    rng = random.Random(1)
    for n in range(1, 6):
        for _ in range(5):
            images = rng.sample(range(1, n + 1), n)
            used = Permutation(images)
            for p in enumerate_partitions(n):
                act(used, p)
            assert len(used._blocks) == 2 ** n - 1
            fresh = Permutation(images)
            assert not fresh._blocks
            assert used == fresh and hash(used) == hash(fresh)
            assert {used: n}[fresh] == n and len({used, fresh}) == 1
            for name in ("_image", "_blocks"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(used, name, None)
