"""Set partitions of {1..n}, the reverse-refinement order, and permutation actions.

Everything here is 1-based and exact.  A partition is stored in canonical
form (blocks sorted by their minimum, elements ascending inside a block),
so structural equality is partition equality and partitions can be used
as dictionary keys.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from math import comb
from typing import Iterable, List, Sequence, Tuple

#: Enumeration functions reject n above this bound (Bell(11) = 678570
#: objects is the largest batch we are willing to materialize).
MAX_GROUND_SET = 11


def _is_int(x) -> bool:
    """True for an int that is no bool: the only entries the validating
    constructors take."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ground_set(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"ground-set size must be a positive integer, got {n!r}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground-set size {n} exceeds the supported limit {MAX_GROUND_SET}")


class Partition:
    """A partition of {1..n} into disjoint non-empty blocks.

    Blocks are canonicalized on construction; two Partition objects are
    equal iff they describe the same partition.
    """

    # ``_index`` holds the block index once :meth:`block_index` built it
    __slots__ = ("n", "blocks", "_index")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if not _is_int(n) or n < 1:
            raise ValueError(f"partition ground-set size must be an integer >= 1, got {n!r}")
        blocks = [tuple(b) for b in blocks]
        for block in blocks:
            for m in block:
                if not _is_int(m):
                    raise ValueError(f"partition entry {m!r} in block {list(block)!r} is not an integer")
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen: set[int] = set()
        total = 0
        for block in canon:
            if not block:
                raise ValueError("partition blocks must be non-empty")
            total += len(block)
            seen.update(block)
        if total != n or seen != set(range(1, n + 1)):
            raise ValueError(f"blocks {canon!r} do not partition {{1..{n}}}")
        _set_n(self, n)
        _set_blocks(self, canon)

    @classmethod
    def _unchecked(cls, n: int, canonical_blocks: Tuple[Tuple[int, ...], ...]) -> "Partition":
        # The trusted constructor, for blocks that are a partition by
        # construction.  The caller guarantees that ``canonical_blocks`` are
        # non-empty ascending tuples, sorted by their minimum, that together
        # cover {1..n} exactly once; nothing is checked or copied.  Blocks
        # that come from outside go through ``Partition(n, blocks)``.
        self = object.__new__(cls)
        _set_n(self, n)
        _set_blocks(self, canonical_blocks)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __lt__(self, other: "Partition"):
        # Deterministic total order used only for sorting output lists.
        return self.blocks < other.blocks

    def __repr__(self):
        return f"Partition({self.n}, {[list(b) for b in self.blocks]})"

    def block_count(self) -> int:
        return len(self.blocks)

    def block_index(self) -> Tuple[int, ...]:
        """Tuple mapping element m (1-based) to the index of its block
        (entry 0 is unused); built on the first call and kept."""
        try:
            return self._index
        except AttributeError:
            idx = [0] * (self.n + 1)
            for k, block in enumerate(self.blocks):
                for m in block:
                    idx[m] = k
            index = tuple(idx)
            _set_index(self, index)
            return index

    def to_json(self) -> List[List[int]]:
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "Partition":
        n = sum(len(b) for b in data)
        return cls(n, data)


# the slots' own setters, bound once: they write past the refusing
# ``__setattr__``, for the constructors alone
_set_n = Partition.n.__set__
_set_blocks = Partition.blocks.__set__
_set_index = Partition._index.__set__


def singletons(n: int) -> Partition:
    """The minimum of the reverse-refinement order: all blocks are singletons."""
    return Partition._unchecked(n, tuple((m,) for m in range(1, n + 1)))


def one_block(n: int) -> Partition:
    """The maximum of the reverse-refinement order: a single block {1..n}."""
    return Partition._unchecked(n, (tuple(range(1, n + 1)),))


class Permutation:
    """A permutation of {1..n} in one-line notation.

    ``_image`` is ``(0,) + images``, indexed by an element, and ``_blocks``
    the block memo of :func:`_relabel` for this permutation; neither takes
    part in equality or hashing.
    """

    __slots__ = ("n", "images", "_image", "_blocks")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        for k, m in enumerate(images, 1):
            if not _is_int(m):
                raise ValueError(f"permutation entry {m!r} at position {k} is not an integer")
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images!r} is not a permutation of 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_image", (0,) + images)
        object.__setattr__(self, "_blocks", {})

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        """m -> n + 1 - m."""
        return cls(range(n, 0, -1))

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(m) = self(other(m))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for m, img in enumerate(self.images, start=1):
            inv[img - 1] = m
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def to_json(self) -> List[int]:
        return list(self.images)


def enumerate_partitions(n: int) -> List[Partition]:
    """All partitions of {1..n}, each exactly once, in canonical form.

    The result has Bell(n) entries.
    """
    _check_ground_set(n)
    out: List[Partition] = []
    blocks: List[List[int]] = []

    def extend(m: int) -> None:
        if m > n:
            out.append(Partition._unchecked(n, tuple(tuple(b) for b in blocks)))
            return
        for b in blocks:
            b.append(m)
            extend(m + 1)
            b.pop()
        blocks.append([m])
        extend(m + 1)
        blocks.pop()

    extend(1)
    return out


def is_noncrossing(p: Partition) -> bool:
    """True iff no two blocks of p cross.

    Blocks V and W cross when there are a < b < c < d with a, c in V and
    b, d in W.  Equivalently the blocks are properly nested: each block
    lies between two neighbouring elements of every block open at its
    minimum, which is what this single scan of the canonical blocks (by
    increasing minimum) with a stack of open blocks checks.
    """
    # each block on the stack lies in a gap of the one below it, so the
    # maxima fall towards the top, and only the top needs checking
    stack: List[Tuple[int, ...]] = []
    for block in p.blocks:
        first = block[0]
        # pop the blocks closed before this one opens; ``<=`` only matters
        # for blocks that share an element, no partition, and keeps the
        # scan from reading past the end of the top block
        while stack and stack[-1][-1] <= first:
            stack.pop()
        if stack:
            outer = stack[-1]
            # outer's next element after first must come after block's last
            if outer[bisect(outer, first)] < block[-1]:
                return False
        stack.append(block)
    return True


def enumerate_noncrossing(n: int) -> List[Partition]:
    """The non-crossing partitions of {1..n}; there are Catalan(n) of them.

    The Bell filter runs once per n; every call returns a fresh list.
    """
    _check_ground_set(n)
    return list(_noncrossing(n))


@cache
def _noncrossing(n: int) -> Tuple[Partition, ...]:
    return tuple(p for p in enumerate_partitions(n) if is_noncrossing(p))


def noncrossing_mobius(p: Partition) -> int:
    """mu(p, 1_n) in the lattice NC(n), for a non-crossing partition p.

    The interval [p, 1_n] is isomorphic to the product of NC(|C|) over the
    cycles C of the Kreweras complement p^-1 gamma, gamma = (1 2 ... n),
    reading each block of p as one cycle in increasing order; so mu(p, 1_n)
    is the product of (-1)**(|C| - 1) Catalan(|C| - 1) over those cycles
    (Nica and Speicher, Lectures on the Combinatorics of Free Probability,
    Lectures 9-11).  Blocks and cycles number n + 1 together exactly when
    p is non-crossing; a crossing p raises ``ValueError``.
    """
    n = p.n
    # pred[m] = p^-1(m), the previous element of m's block, cyclically
    pred = [0] * (n + 1)
    for block in p.blocks:
        for prev, m in zip(block[-1:] + block[:-1], block):
            pred[m] = prev
    mu = 1
    cycles = 0
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        length = 0
        m = start
        while not seen[m]:
            seen[m] = True
            length += 1
            m = pred[m % n + 1]  # p^-1(gamma(m))
        if length:
            cycles += 1
            k = length - 1
            mu *= (-1) ** k * (comb(2 * k, k) // (k + 1))
    if len(p.blocks) + cycles != n + 1:
        raise ValueError(f"{p!r} is crossing; mu is defined on NC(n) only")
    return mu


def leq(p: Partition, q: Partition) -> bool:
    """Reverse refinement: every block of p is contained in a block of q."""
    if p.n != q.n:
        raise ValueError("cannot compare partitions of different ground sets")
    qidx = q.block_index()
    for block in p.blocks:
        k = qidx[block[0]]
        for m in block[1:]:
            if qidx[m] != k:
                return False
    return True


def meet(p: Partition, q: Partition) -> Partition:
    """Greatest lower bound in reverse refinement.

    Blocks are the non-empty pairwise intersections of a block of p with a
    block of q.
    """
    if p.n != q.n:
        raise ValueError("cannot meet partitions of different ground sets")
    pidx = p.block_index()
    qidx = q.block_index()
    groups: dict[tuple[int, int], list[int]] = {}
    for m in range(1, p.n + 1):
        groups.setdefault((pidx[m], qidx[m]), []).append(m)
    # groups are opened and filled in increasing m: already canonical
    return Partition._unchecked(p.n, tuple(map(tuple, groups.values())))


def act(t: Permutation, p: Partition) -> Partition:
    """Apply t to every element of every block, then re-canonicalize."""
    if t.n != p.n:
        raise ValueError("permutation and partition sizes differ")
    return _relabel(t._image, p, t._blocks)


def _relabel(image: Sequence[int], p: Partition, memo: dict) -> Partition:
    """:func:`act` for the permutation m -> image[m] of {1..p.n}, unchecked
    (``image[0]`` is unused).

    ``memo`` maps each block met so far to its sorted image and is filled
    here; the object that owns ``image`` owns it.  {1..n} has 2^n - 1
    non-empty subsets, so a memo holds at most that many blocks, and a
    family of partitions mostly reads its images back.
    """
    # a permutation image of a partition is a partition; only the order of
    # elements and blocks needs restoring
    blocks = []
    for block in p.blocks:
        relabelled = memo.get(block)
        if relabelled is None:
            relabelled = [image[m] for m in block]
            relabelled.sort()
            relabelled = memo[block] = tuple(relabelled)
        blocks.append(relabelled)
    blocks.sort()
    return Partition._unchecked(p.n, tuple(blocks))


def opposite(p: Partition) -> Partition:
    """The image of p under the order-reversing map m -> n + 1 - m."""
    return act(Permutation.reversal(p.n), p)
