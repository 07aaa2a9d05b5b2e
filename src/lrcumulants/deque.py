"""Double-ended-queue scenarios and the partition families they generate.

A scenario pushes n labelled balls through a double-ended queue: step m
inserts the next ``rise_m + 1`` balls at one end (chosen by a word chi over
{l, r}) and then emits one ball from that same end.  Grouping emission
times by insertion batch yields the output-time partition of the scenario;
collecting these over all paths for a fixed chi yields a family of
partitions that is also the orbit of the non-crossing partitions under an
explicit permutation ``sigma_chi``.

``_step`` is the one replay step.  ``simulate`` applies it along one path;
``replays`` walks all 2^n words and all Catalan(n) paths of a length at
once, and ``pchi_by_enumeration`` all paths of one word, so a shared
(chi, path) prefix is replayed once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from .lukasiewicz import LukPath, _rises
from .partitions import (
    Partition,
    Permutation,
    _check_ground_set,
    _is_int,
    _relabel,
    act,
    enumerate_noncrossing,
)

LEFT = "l"
RIGHT = "r"


class ChiWord:
    """A word over {l, r} choosing the active end of each step.

    Keeps the positions of the l-steps (``m_ell``) and of the r-steps
    (``m_r``), both in increasing order, and sigma_chi^-1 as ``slot``:
    ``slot[m]`` is position m's slot in the combined standings, q for the
    q-th l-position and n + 1 - q for the q-th r-position (``slot[0]`` is
    0, so a position indexes it).  A position's standing among the steps
    of its side is read off its slot.  ``_blocks`` is the block memo of
    :func:`partitions._relabel` for ``slot``; it takes no part in equality
    or hashing.
    """

    __slots__ = ("n", "letters", "m_ell", "m_r", "slot", "_blocks")

    def __init__(self, letters: "str | Iterable[str]"):
        """A str of letters, or an iterable of one-letter strs; ``ValueError``
        for anything else, and unless the word is non-empty over {l, r}."""
        if isinstance(letters, str):
            word = str(letters)
        else:
            try:
                items = tuple(letters)
            except TypeError:
                items = None
            if items is None or not all(isinstance(h, str) and len(h) == 1 for h in items):
                raise ValueError(f"chi word must be a str or an iterable of letters, got {letters!r}")
            word = "".join(items)
        if not word:
            raise ValueError("chi word must be non-empty")
        bad = set(word) - {LEFT, RIGHT}
        if bad:
            raise ValueError(f"chi word may only contain 'l' and 'r', got {sorted(bad)}")
        object.__setattr__(self, "n", len(word))
        object.__setattr__(self, "letters", word)
        object.__setattr__(
            self, "m_ell", tuple(m for m, h in enumerate(word, 1) if h == LEFT)
        )
        object.__setattr__(
            self, "m_r", tuple(m for m, h in enumerate(word, 1) if h == RIGHT)
        )
        slot = [0] * (len(word) + 1)
        for q, m in enumerate(self.m_ell, 1):
            slot[m] = q
        for q, m in enumerate(self.m_r, 1):
            slot[m] = len(word) + 1 - q
        object.__setattr__(self, "slot", tuple(slot))
        object.__setattr__(self, "_blocks", {})

    def __setattr__(self, name, value):
        raise AttributeError("ChiWord is immutable")

    def __eq__(self, other):
        return isinstance(other, ChiWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"ChiWord({self.letters!r})"

    def __str__(self):
        return self.letters

    def to_json(self) -> str:
        return self.letters


def _chi_word(chi: "ChiWord | str") -> ChiWord:
    """chi as a :class:`ChiWord`; ``ValueError`` unless it is a non-empty
    word over {l, r}."""
    return chi if isinstance(chi, ChiWord) else ChiWord(chi)


class ScenarioTrace:
    """What a scenario run produces.

    ``chi`` is the scenario's end-choice word; ``output_partition`` groups
    emission times by insertion batch; ``exit_order`` lists ball labels by
    emission time.
    """

    __slots__ = ("chi", "output_partition", "exit_order")

    def __init__(self, chi: ChiWord, output_partition: Partition, exit_order: Tuple[int, ...]):
        _set_chi(self, chi)
        _set_output_partition(self, output_partition)
        _set_exit_order(self, exit_order)

    def __setattr__(self, name, value):
        raise AttributeError("ScenarioTrace is immutable")

    @property
    def insertion_times(self) -> Tuple[int, ...]:
        """The sorted steps that insert at least one ball: a batch's last
        ball leaves at once, so each block starts at its insertion time."""
        return tuple([block[0] for block in self.output_partition.blocks])


# the slots' own setters, bound once: they write past the refusing
# ``__setattr__``, for the constructor alone
_set_chi = ScenarioTrace.chi.__set__
_set_output_partition = ScenarioTrace.output_partition.__set__
_set_exit_order = ScenarioTrace.exit_order.__set__


#: A replay after t steps: (queue, batch of each ball inserted so far,
#: exit order, blocks).  Balls are labelled 1, 2, ... in insertion order
#: and batches 0, 1, ... likewise; block k lists the exit times of batch
#: k's balls so far.  The queue holds as many balls as the path's height.
#: States are tuples and never change, so every scenario that extends a
#: prefix shares the prefix's state.
ReplayState = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[Tuple[int, ...], ...]]
_START: ReplayState = ((), (), (), ())


def _step(state: ReplayState, t: int, q: int, h: str) -> ReplayState:
    """Step t of a replay: the next q + 1 balls (in label order) are
    inserted one by one at end h, then one ball is emitted from end h."""
    pipe, batch_of, exit_order, blocks = state
    if q >= 0:
        first = len(batch_of) + 1
        end = first + q + 1
        # the ball inserted last sits at end h and leaves at once, opening
        # its batch's block; inserting one ball at a time at the left
        # reverses the rest of the batch
        if h == LEFT:
            pipe = tuple(range(end - 2, first - 1, -1)) + pipe
        else:
            pipe += tuple(range(first, end - 1))
        return (
            pipe,
            batch_of + (len(blocks),) * (q + 1),
            exit_order + (end - 1,),
            blocks + ((t,),),
        )
    if not pipe:
        raise RuntimeError(f"step {t} would emit from an empty queue")
    if h == LEFT:
        ball = pipe[0]
        pipe = pipe[1:]
    else:
        ball = pipe[-1]
        pipe = pipe[:-1]
    k = batch_of[ball - 1]
    return pipe, batch_of, exit_order + (ball,), blocks[:k] + (blocks[k] + (t,),) + blocks[k + 1:]


def _output_partition(n: int, state: ReplayState) -> Partition:
    """Emission times grouped by insertion batch, once all n steps ran."""
    pipe, batch_of, _, blocks = state
    # no emission from an empty queue and every ball emitted: together they
    # make the exit times a bijection from the balls 1..n onto the times
    # 1..n, so the blocks are a partition of {1..n} by construction.  They
    # are canonical too: a batch's last ball leaves at the batch's
    # insertion time, so block k starts at the k-th insertion time, and
    # each block lists its times as they came.
    if pipe or len(batch_of) != n:
        raise RuntimeError("scenario did not move every ball to the output")
    return Partition._unchecked(n, blocks)


def _trace(chi: ChiWord, state: ReplayState) -> ScenarioTrace:
    return ScenarioTrace(chi, _output_partition(chi.n, state), state[2])


def _rise_rows(n: int) -> Tuple[Tuple[range, ...], ...]:
    """``rows[t][height]`` is ``_rises(n, t, height)``, for every step t of
    an n-step path and every height 0..n - t + 1 it can start from (row 0
    is empty): built once per walk, read once per replayed state."""
    return ((),) + tuple(
        tuple(_rises(n, t, height) for height in range(n - t + 2)) for t in range(1, n + 1)
    )


def _extend(level: Iterable[ReplayState], row: Tuple[range, ...], t: int, h: str) -> Iterator[ReplayState]:
    """Step t at end h applied to every state of a level, one child per
    rise the path may take next; ``row`` is step t's row of
    :func:`_rise_rows`, indexed by a state's height.  Children follow their
    parents' order, rises increasing, so a level lists its path prefixes
    in ``enumerate_luk`` order.  Lazy: a chain of these holds one state
    per step, not whole levels."""
    return (_step(state, t, q, h) for state in level for q in row[len(state[0])])


def simulate(path: LukPath, chi: "ChiWord | str") -> ScenarioTrace:
    """Replay the scenario (path, chi) on an explicit queue of labelled
    balls; the path and the word must have the same length.

    Step m with insertion count p and side h: the next p balls (in label
    order) are inserted one by one at side h, then one ball is emitted from
    side h.  Emission times grouped by insertion batch give the
    output-time partition.  ``_step`` is the one replay step in the
    package: this applies it along one path, :func:`replays` and
    :func:`pchi_by_enumeration` along every path at once, and everything
    derived from a scenario reads its trace.  A chi that is no word over
    {l, r} raises ``ValueError``.
    """
    chi = _chi_word(chi)
    if path.n != chi.n:
        raise ValueError(f"path has {path.n} steps but chi word has {chi.n} letters")
    state = _START
    for t, (q, h) in enumerate(zip(path.rise, chi.letters), start=1):
        state = _step(state, t, q, h)
    return _trace(chi, state)


def replays(n: int) -> Iterator[Tuple[ChiWord, Iterator[ScenarioTrace]]]:
    """(chi, traces) for every chi of length n, in the order of
    ``product("lr", repeat=n)``; ``traces`` iterates once over the traces
    of chi's Catalan(n) scenarios, in ``enumerate_luk(n)`` order.

    A depth-first walk over the letters of chi: each chi-prefix holds the
    states of every path prefix of its length and extends them one step,
    so a shared (chi, path) prefix is replayed once.  The walk holds one
    level per letter of the current chi-prefix but the last, whose states
    are replayed one at a time as ``traces`` is read.
    """
    _check_ground_set(n)
    rows = _rise_rows(n)

    def walk(word: str, level: Iterable[ReplayState]):
        t = len(word) + 1
        if t > n:
            chi = ChiWord(word)
            yield chi, (_trace(chi, state) for state in level)
            return
        level = list(level)  # both letters extend it
        for h in (LEFT, RIGHT):
            yield from walk(word + h, _extend(level, rows[t], t, h))

    return walk("", (_START,))


def output_partition(path: LukPath, chi: ChiWord) -> Partition:
    """The output-time partition of the scenario (path, chi)."""
    return simulate(path, chi).output_partition


def family(chi: ChiWord, partitions: List[Partition]) -> List[Partition]:
    """The output partitions of chi's scenarios as its family, sorted.

    The scenario map is injective, so the family has Catalan(n) members;
    a duplicate would mean the replay is broken and raises.
    """
    if len(set(partitions)) != len(partitions):
        raise RuntimeError(
            f"duplicate output partition for chi={chi.letters!r}; replay bug"
        )
    # keyed by the blocks: Partition.__lt__'s order, with no Python-level
    # comparison per pair
    return sorted(partitions, key=attrgetter("blocks"))


def pchi_by_enumeration(chi: "ChiWord | str") -> List[Partition]:
    """The family of output-time partitions over all paths, for fixed chi.

    A fold over the letters of chi that replays every path at once.  Its
    levels are lazy, so a path prefix's state lives only while scenarios
    that extend it are replayed.
    """
    chi = _chi_word(chi)
    n = chi.n
    _check_ground_set(n)
    rows = _rise_rows(n)
    level: Iterable[ReplayState] = (_START,)
    for t, h in enumerate(chi.letters, start=1):
        level = _extend(level, rows[t], t, h)
    return family(chi, [_output_partition(n, state) for state in level])


def sigma_chi(chi: "ChiWord | str") -> Permutation:
    """The permutation sending slot q to the q-th l-position for q <= u,
    and slot u + j to the (v + 1 - j)-th r-position (l-positions in order,
    then r-positions reversed)."""
    chi = _chi_word(chi)
    return Permutation(chi.m_ell + tuple(reversed(chi.m_r)))


def pchi_by_sigma(chi: "ChiWord | str") -> List[Partition]:
    """The same family as ``pchi_by_enumeration``, built as the image of the
    non-crossing partitions under the action of ``sigma_chi``."""
    chi = _chi_word(chi)
    _check_ground_set(chi.n)
    sigma = sigma_chi(chi)
    family = [act(sigma, p) for p in enumerate_noncrossing(chi.n)]
    return sorted(family, key=attrgetter("blocks"))


def insertion_standings(
    trace: ScenarioTrace,
) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """Per insertion time i: (i, V_i, W_i).

    V_i collects the l-standings q with the q-th l-position in the block
    of i, W_i the r-standings likewise.  V_i or W_i may be empty, never
    both.  The q-th l-position has slot q, the q-th r-position slot
    n + 1 - q.
    """
    letters, slot, mirror = trace.chi.letters, trace.chi.slot, trace.chi.n + 1
    # a block starts at its insertion time; blocks are ascending and
    # standings grow with position, so V_i and W_i come out sorted
    return [
        (block[0],
         tuple([slot[m] for m in block if letters[m - 1] == LEFT]),
         tuple([mirror - slot[m] for m in block if letters[m - 1] == RIGHT]))
        for block in trace.output_partition.blocks
    ]


def standings_partitions(
    trace: ScenarioTrace,
) -> Tuple[Optional[Partition], Optional[Partition]]:
    """(left, right) standings partitions; None on a side chi never uses.

    The left partition lives on {1..u} (u = number of l-steps) and groups
    standings whose l-positions share a block of the output-time
    partition; the right partition is the mirror statement on {1..v}.
    """
    data = insertion_standings(trace)
    u = len(trace.chi.m_ell)
    v = len(trace.chi.m_r)
    left = None
    if u:
        left = Partition(u, [vi for _, vi, _ in data if vi])
    right = None
    if v:
        right = Partition(v, [wi for _, _, wi in data if wi])
    return left, right


def combined_standings(trace: ScenarioTrace) -> Partition:
    """Merge both standings into one partition of {1..n}.

    Block for insertion time i: V_i united with the reflection
    {n + 1 - q : q in W_i}, which is the image of the output block of i
    under ``chi.slot``, that is under sigma_chi^-1.  The result is always
    non-crossing.
    """
    return _relabel(trace.chi.slot, trace.output_partition, trace.chi._blocks)


def chi_opposite(chi: "ChiWord | str") -> ChiWord:
    """The word read in reverse; ``ValueError`` unless chi is a non-empty
    word over {l, r}."""
    return ChiWord(_chi_word(chi).letters[::-1])


def tau_u(n: int, u: int) -> Permutation:
    """The permutation reversing {1..u} and {u+1..n} separately.

    q -> u + 1 - q for q <= u, and q -> n + u + 1 - q for q > u.  For
    u = 0 or u = n it is the full reversal.
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not _is_int(u) or not 0 <= u <= n:
        raise ValueError(f"u must be an integer in 0..{n}, got {u!r}")
    return Permutation(
        [u + 1 - q for q in range(1, u + 1)]
        + [n + u + 1 - q for q in range(u + 1, n + 1)]
    )


# ---------------------------------------------------------------------------
# Cached per-chi data used by the cumulant recursion and the moment sums.
# ---------------------------------------------------------------------------

BlockData = Tuple[Tuple[int, ...], str]  # (0-based positions, restricted chi)
PartitionData = Tuple[Tuple[BlockData, ...], ...]


def block_entry(block: Tuple[int, ...], chi_str: str) -> BlockData:
    """One block of 1-based positions as its 0-based positions, paired with
    the restriction of chi to the block."""
    return tuple([m - 1 for m in block]), "".join([chi_str[m - 1] for m in block])


def block_data(p: Partition, chi_str: str) -> Tuple[BlockData, ...]:
    """:func:`block_entry` of every block of p, in p's block order."""
    return tuple([block_entry(block, chi_str) for block in p.blocks])


@lru_cache(maxsize=None)
def restriction_data(chi_str: str) -> PartitionData:
    """:func:`block_data` of every partition in the family of chi.

    Partitions appear in canonical sorted order; within a partition,
    blocks in canonical order.  Cached per chi since the family is reused
    heavily by recursions over sub-words.
    """
    return tuple(
        block_data(p, chi_str) for p in pchi_by_enumeration(chi_str)
    )
