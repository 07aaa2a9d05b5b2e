"""Lukasiewicz paths stored as rise-vectors, and the partition/path correspondence.

A path with n steps is kept as its rise-vector (q_1, ..., q_n): each
q_m >= -1, every partial sum is >= 0, and the total sum is 0.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, List, Sequence, Tuple

from .partitions import Partition, _check_ground_set, _is_int


class InvalidRiseVector(ValueError):
    """Raised when an integer sequence is not the rise-vector of a path.

    ``prefix`` is the 1-based length of the first offending prefix, or None
    when the total sum (rather than a prefix) is at fault.
    """

    def __init__(self, message: str, prefix: int | None = None):
        super().__init__(message)
        self.prefix = prefix


class LukPath:
    """A lattice path with steps rising by q_m in {-1, 0, 1, 2, ...}.

    The path starts and ends at height 0 and never dips below it.
    """

    __slots__ = ("n", "rise")

    def __init__(self, rise: Iterable[int]):
        rise = tuple(rise)
        _validate(rise)
        object.__setattr__(self, "n", len(rise))
        object.__setattr__(self, "rise", rise)

    def __setattr__(self, name, value):
        raise AttributeError("LukPath is immutable")

    def __eq__(self, other):
        return isinstance(other, LukPath) and self.rise == other.rise

    def __hash__(self):
        return hash(self.rise)

    def __repr__(self):
        return f"LukPath({list(self.rise)})"

    def heights(self) -> List[int]:
        """Heights after each step; always non-negative, final height 0."""
        out = []
        h = 0
        for q in self.rise:
            h += q
            out.append(h)
        return out

    def to_json(self) -> List[int]:
        return list(self.rise)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "LukPath":
        return cls(data)


def _validate(rise: tuple) -> None:
    if not rise:
        raise InvalidRiseVector("rise-vector must be non-empty")
    for k, q in enumerate(rise, start=1):
        if not _is_int(q) or q < -1:
            raise InvalidRiseVector(
                f"entry {q!r} at position {k} is not an integer >= -1", prefix=k
            )
    total = 0
    for k, q in enumerate(rise, start=1):
        total += q
        if total < 0:
            raise InvalidRiseVector(
                f"partial sum of the first {k} entries is {total} < 0", prefix=k
            )
    if total != 0:
        raise InvalidRiseVector(f"entries sum to {total}, expected 0")


def enumerate_luk(n: int) -> List[LukPath]:
    """All paths with n steps, each exactly once; there are Catalan(n).

    The paths are built once per n; every call returns a fresh list.
    """
    _check_ground_set(n)
    return list(_paths(n))


@cache
def _paths(n: int) -> Tuple[LukPath, ...]:
    out: List[LukPath] = []
    rise: List[int] = []

    def extend(m: int, height: int) -> None:
        if m > n:
            out.append(LukPath(rise))
            return
        for q in _rises(n, m, height):
            rise.append(q)
            extend(m + 1, height + q)
            rise.pop()

    extend(1, 0)
    return tuple(out)


def _rises(n: int, m: int, height: int) -> range:
    """The rises step m of an n-step path may take from ``height``, in
    increasing order.

    With n - m + 1 steps left, the rise q must keep height + q >= 0 and
    leave height + q <= n - m, the steps remaining afterwards.
    """
    return range(max(-1, -height), n - m - height + 1)


def psi_rise(p: Partition) -> Tuple[int, ...]:
    """The rise-vector of :func:`psi`, unvalidated: the rise at each block
    minimum is the block size minus one; every other rise is -1.  It is
    always a rise-vector when p is a partition; ``psi`` checks that."""
    rise = [-1] * p.n
    for block in p.blocks:
        rise[block[0] - 1] = len(block) - 1
    return tuple(rise)


def psi(p: Partition) -> LukPath:
    """The canonical path of a partition, with rise-vector ``psi_rise(p)``.

    This map is onto the set of paths, and restricts to a bijection on
    non-crossing partitions.  The inverse of that bijection is the all-"l"
    deque replay, ``deque.output_partition(path, ChiWord("l" * n))``: a
    stack whose batches of pop times are the blocks.
    """
    return LukPath(psi_rise(p))

