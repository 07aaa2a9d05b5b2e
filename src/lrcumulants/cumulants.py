"""Left-right cumulant functionals of a noncommutative probability space.

A moment functional is any callable mapping non-empty words of opaque
element ids to scalars in an exact commutative ring (rationals or
polynomial scalars).  For each word chi over {l, r} the chi-cumulant is
defined by subtracting, from the moment of the whole word, the products
of cumulants of restricted words over all non-trivial members of the
scenario partition family of chi.  Summing cumulant products over the
full family recovers the moment.

When chi is constant the family is the non-crossing lattice and the
chi-cumulants reduce to the free cumulants.

Two routes evaluate a chi-cumulant: :class:`CumulantEngine` runs the
recursion, and :func:`mobius_cumulant` sums the Moebius inversion of the
moment-cumulant formula over NC(n), carried to the family of chi by
``sigma_chi``.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product
from operator import add, mul
from typing import Callable, Dict, List, Sequence, Tuple

from .deque import ChiWord, _chi_word, restriction_data, sigma_chi
from .partitions import Partition, noncrossing_mobius

MomentFunctional = Callable[[tuple], object]
CumulantFunctional = Callable[[str, tuple], object]


class CumulantEngine:
    """Evaluates chi-cumulants for one moment functional, with memoization.

    The memo is keyed by (chi letters, word); repeated and nested calls
    on restrictions of the same words are computed once.
    """

    def __init__(self, phi: MomentFunctional):
        self.phi = phi
        self._memo: Dict[Tuple[str, tuple], object] = {}

    def cumulant(self, chi: "ChiWord | str", word: Sequence) -> object:
        """The chi-cumulant of the word, an n-tuple of element ids.

        chi and the word are independent inputs: kappa_chi is defined on
        any n-tuple of elements, so on the Fock model the sides of the
        word's operators need not agree with chi (the golden free cumulant
        of eq12y is the all-"r" cumulant of an l r l r operator word).
        """
        chi_str = _chi_word(chi).letters
        word = tuple(word)
        if len(chi_str) != len(word):
            raise ValueError(
                f"chi has {len(chi_str)} letters but the word has {len(word)} entries"
            )
        return self._kappa(chi_str, word)

    def _kappa(self, chi_str: str, word: tuple) -> object:
        memo = self._memo
        key = (chi_str, word)
        value = memo.get(key)
        if value is not None:
            return value
        value = self.phi(word)
        if len(word) > 1:
            for blocks in restriction_data(chi_str):
                if len(blocks) == 1:  # the one-block partition defines the rest
                    continue
                prod = None
                for positions, sub in blocks:
                    sub_key = (sub, tuple(word[p] for p in positions))
                    factor = memo.get(sub_key)
                    if factor is None:
                        factor = self._kappa(*sub_key)
                    prod = factor if prod is None else prod * factor
                value = value - prod
        memo[key] = value
        return value

    def moment(self, chi: "ChiWord | str", word: Sequence) -> object:
        """Sum of cumulant products over the full partition family of chi."""
        return moment_from_cumulants(chi, word, self._kappa)


#: A sum over NC(n) as a DAG, children first: per node, its weight and its
#: (block id, child node) edges; the root is the last node.
Dag = Tuple[Tuple[object, Tuple[Tuple[int, int], ...]], ...]


class NCPlan:
    """The sums over NC(n) of a weight times a product over blocks.

    ``blocks`` lists every distinct block of a non-crossing partition of n
    as a tuple of 0-based slots.  A sum over p in NC(n) of w(p) times the
    product of m[V] over the blocks V of p is a DAG over these blocks:
    each p's block ids, ordered by block minimum, are a path in a prefix
    trie with w(p) at its leaf, and identical sub-tries (the same leaf
    weight and the same (block, child) edges) are one node, so equal
    sub-sums are computed once.  ``mobius`` weights p by mu(p, 1_n) and
    ``unit`` by 1; each is built on first use.  Nothing depends on chi or
    on the word.
    """

    def __init__(self, n: int):
        self.n = n
        self._ids: Dict[Tuple[int, ...], int] = {}
        # sigma_chi is the identity for the constant word, so its family,
        # built in Catalan time, is NC(n); blocks come sorted by minimum
        for pblocks in restriction_data("l" * n):
            for positions, _ in pblocks:
                self._ids.setdefault(positions, len(self._ids))
        self.blocks = tuple(self._ids)

    @cached_property
    def mobius(self) -> Dag:
        one_based = {block: tuple([m + 1 for m in block]) for block in self.blocks}

        def mu(slots):
            p = Partition._unchecked(self.n, tuple([one_based[block] for block in slots]))
            return noncrossing_mobius(p)

        return self._dag(mu)

    @cached_property
    def unit(self) -> Dag:
        return self._dag(lambda slots: 1)

    def _dag(self, weigh: Callable[[list], object]) -> Dag:
        trie: dict = {}  # block id -> sub-trie; None -> the leaf's weight
        for pblocks in restriction_data("l" * self.n):
            slots = [positions for positions, _ in pblocks]
            node = trie
            for block in slots:
                node = node.setdefault(self._ids[block], {})
            node[None] = weigh(slots)
        nodes: list = []
        index: Dict[tuple, int] = {}

        def intern(node: dict) -> int:
            weight = node.pop(None, 0)
            key = (weight, tuple(sorted([(b, intern(child)) for b, child in node.items()])))
            found = index.get(key)
            if found is None:
                found = index[key] = len(nodes)
                nodes.append(key)
            return found

        intern(trie)
        return tuple(nodes)


#: n -> the :class:`NCPlan` of NC(n), built once per length.
_mobius_plan = cache(NCPlan)


class Column(list):
    """A value at every index word of one length, for :func:`dag_sum` to
    evaluate a sum at every index word at once: ``*`` and ``+`` act
    elementwise, and ``*`` by a non-Column scales every value."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, Column):
            return Column(map(mul, self, other))
        return Column([v * other for v in self])

    __rmul__ = __mul__  # or an int on the left would repeat the list

    def __add__(self, other):
        return Column(map(add, self, other))


def dag_sum(dag: Dag, values: Sequence) -> object:
    """The sum a DAG of :class:`NCPlan` stands for, with values[b] the
    factor of block b, a scalar or a :class:`Column`: value[node] =
    weight + the sum over its edges of values[block] * value[child],
    children first; the root's value."""
    out: list = []
    for weight, edges in dag:
        total = None
        for b, child in edges:
            sub = out[child]
            # a child worth the int 1 (every leaf of ``unit``) multiplies
            # nothing; tested by type, as == on a PolyScalar builds a Fraction
            term = values[b] if type(sub) is int and sub == 1 else values[b] * sub
            total = term if total is None else total + term
        # a leaf has no edges, and an inner node's weight is 0: every
        # partition's blocks cover all n slots, so no path in the trie is
        # a proper prefix of another
        out.append(weight if total is None else total)
    return out[-1]


def sigma_nc_plan(chi: ChiWord) -> Tuple[List[Tuple[int, ...]], NCPlan]:
    """The plan of NC(n) for chi: each distinct block of NC(n) mapped
    through sigma_chi, as ascending 0-based positions, and the plan.  As p
    runs over NC(n), sigma_chi . p runs over the family of chi (Thm 4.9),
    so a sum over the family is a sum of the plan with these blocks'
    values."""
    plan = _mobius_plan(chi.n)
    image = [m - 1 for m in sigma_chi(chi).images]
    return [tuple(sorted([image[s] for s in block])) for block in plan.blocks], plan


def mobius_cumulant(chi: "ChiWord | str", word: Sequence, phi: MomentFunctional) -> object:
    """The chi-cumulant of the word under phi, by Moebius inversion.

    sigma_chi is an order isomorphism from NC(n) onto the family of chi
    (Cor 4.10), so inverting the moment-cumulant formula gives
    kappa_chi(w) = sum over p in NC(n) of mu(p, 1_n) times the product of
    phi(w restricted to V) over the blocks V of sigma_chi . p.  Each
    distinct block's moment is read once, and the sum is the plan's
    ``mobius`` DAG; nothing is shared with :class:`CumulantEngine`.
    """
    chi = _chi_word(chi)
    word = tuple(word)
    if chi.n != len(word):
        raise ValueError(f"chi has {chi.n} letters but the word has {len(word)} entries")
    blocks, plan = sigma_nc_plan(chi)
    moments = [phi(tuple([word[q] for q in positions])) for positions in blocks]
    return dag_sum(plan.mobius, moments)


def moment_from_cumulants(
    chi: "ChiWord | str", word: Sequence, kappa: CumulantFunctional
) -> object:
    """Assemble a moment from a cumulant evaluator.

    ``kappa`` is called as kappa(chi_letters, restricted_word); the result
    is the sum over the partition family of chi of the per-block products.
    """
    chi_str = _chi_word(chi).letters
    word = tuple(word)
    if len(chi_str) != len(word):
        raise ValueError(
            f"chi has {len(chi_str)} letters but the word has {len(word)} entries"
        )
    total = None
    for blocks in restriction_data(chi_str):
        prod = None
        for positions, sub in blocks:
            factor = kappa(sub, tuple(word[p] for p in positions))
            prod = factor if prod is None else prod * factor
        total = prod if total is None else total + prod
    return total


def is_combinatorially_bifree_upto(
    pairs: Sequence[Tuple[object, object]],
    phi: MomentFunctional,
    max_n: int,
) -> Tuple[bool, List[Tuple[str, Tuple[int, ...], object]]]:
    """Check that every mixed-index cumulant of the paired family vanishes.

    ``pairs[i - 1] = (a_i, b_i)`` names the left and right element of the
    i-th pair.  For every word length 2..max_n, every chi, and every
    index word using at least two distinct indices, the chi-cumulant of
    the word picking a_i at "l" letters and b_i at "r" letters must be 0.

    Returns (all_zero, violations) where each violation is
    (chi letters, index word, non-zero value).
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    engine = CumulantEngine(phi)
    d = len(pairs)
    violations: List[Tuple[str, Tuple[int, ...], object]] = []
    for n in range(2, max_n + 1):
        for chi in product("lr", repeat=n):
            chi_str = "".join(chi)
            for idx in product(range(1, d + 1), repeat=n):
                if len(set(idx)) < 2:
                    continue
                word = tuple(
                    pairs[i - 1][0] if h == "l" else pairs[i - 1][1]
                    for i, h in zip(idx, chi)
                )
                value = engine.cumulant(chi_str, word)
                if value != 0:
                    violations.append((chi_str, idx, value))
    return not violations, violations
