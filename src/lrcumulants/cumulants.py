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

from typing import Callable, Dict, List, Sequence, Tuple

from .deque import ChiWord, _chi_str, restriction_data, sigma_chi
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
        chi_str = _chi_str(chi)
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


def lr_cumulant(chi: "ChiWord | str", word: Sequence, phi: MomentFunctional) -> object:
    """The chi-cumulant of the word under the moment functional phi.

    For repeated evaluations against the same phi, build one
    :class:`CumulantEngine` and reuse it.
    """
    return CumulantEngine(phi).cumulant(chi, word)


#: n -> the Moebius plan of NC(n), filled on first use; at most
#: MAX_GROUND_SET entries, since NC(n) is refused beyond it.
_MOBIUS_PLANS: Dict[int, tuple] = {}


def _mobius_plan(n: int) -> tuple:
    """(blocks, terms) for NC(n): ``blocks`` lists every distinct block of
    a non-crossing partition as a tuple of 0-based slots, and ``terms``
    holds, per p in NC(n), (mu(p, 1_n), the indices of p's blocks in
    ``blocks``).  The plan does not depend on chi or on the word."""
    plan = _MOBIUS_PLANS.get(n)
    if plan is None:
        blocks: Dict[Tuple[int, ...], int] = {}
        terms = []
        # sigma_chi is the identity for the constant word, so its family,
        # built in Catalan time, is NC(n)
        for pblocks in restriction_data("l" * n):
            slots = [positions for positions, _ in pblocks]
            p = Partition._unchecked(n, tuple(tuple(m + 1 for m in b) for b in slots))
            ids = tuple(blocks.setdefault(b, len(blocks)) for b in slots)
            terms.append((noncrossing_mobius(p), ids))
        plan = _MOBIUS_PLANS[n] = (tuple(blocks), tuple(terms))
    return plan


def sigma_nc_plan(chi: ChiWord) -> Tuple[List[List[int]], tuple]:
    """The plan of :func:`_mobius_plan` carried to the family of chi: each
    distinct block of NC(n) mapped through sigma_chi, as ascending 0-based
    positions, and the plan's terms unchanged.  As p runs over NC(n),
    sigma_chi . p runs over the family of chi (Thm 4.9), so a sum over the
    family is the sum over the terms of the products of these blocks'
    values."""
    blocks, terms = _mobius_plan(chi.n)
    image = [m - 1 for m in sigma_chi(chi).images]
    return [sorted([image[s] for s in block]) for block in blocks], terms


def mobius_cumulant(chi: "ChiWord | str", word: Sequence, phi: MomentFunctional) -> object:
    """The chi-cumulant of the word under phi, by Moebius inversion.

    sigma_chi is an order isomorphism from NC(n) onto the family of chi
    (Cor 4.10), so inverting the moment-cumulant formula gives
    kappa_chi(w) = sum over p in NC(n) of mu(p, 1_n) times the product of
    phi(w restricted to V) over the blocks V of sigma_chi . p.  Each
    distinct block's moment is read once; nothing is shared with
    :class:`CumulantEngine`.
    """
    chi = chi if isinstance(chi, ChiWord) else ChiWord(chi)
    word = tuple(word)
    if chi.n != len(word):
        raise ValueError(f"chi has {chi.n} letters but the word has {len(word)} entries")
    blocks, terms = sigma_nc_plan(chi)
    moments = [phi(tuple([word[q] for q in positions])) for positions in blocks]
    total = 0
    for mu, ids in terms:
        prod = mu
        for j in ids:
            prod = moments[j] * prod
        total = total + prod
    return total


def moment_from_cumulants(
    chi: "ChiWord | str", word: Sequence, kappa: CumulantFunctional
) -> object:
    """Assemble a moment from a cumulant evaluator.

    ``kappa`` is called as kappa(chi_letters, restricted_word); the result
    is the sum over the partition family of chi of the per-block products.
    """
    chi_str = _chi_str(chi)
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


def free_cumulant(word: Sequence, phi: MomentFunctional) -> object:
    """The length-n free cumulant: the chi-cumulant for the constant
    all-"l" word (the all-"r" word gives the same value)."""
    word = tuple(word)
    return lr_cumulant("l" * len(word), word, phi)


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
    from itertools import product

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
