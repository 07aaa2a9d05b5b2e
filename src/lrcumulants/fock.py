"""Exact symbolic engine for canonical operators on the full Fock space over C^d.

Basis words are tuples over {1..d} (the empty tuple is the vacuum).
Vectors are sparse dicts word -> scalar, where a scalar is either a
Python int (a concrete table's graded coefficients, see
:class:`CoefficientTable`) or a :class:`PolyScalar`, a polynomial over the
rationals in formal coefficient symbols a[...] and b[...].  All scalar
rings in use are fixed by complex conjugation, so adjoints never
conjugate anything.

The canonical operator for index i on side h is "annihilate one letter
at side h" composed after "create at side h with every coefficient of
the side's symbol polynomial".  Its vacuum moments are the object of
study; :class:`VacuumMoments` evaluates them by sequentially applying
the operators to the vacuum vector.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .cumulants import Column, NCPlan, dag_sum, sigma_nc_plan
from .deque import LEFT, ChiWord, _chi_word, restriction_data
from .partitions import _check_ground_set, _is_int

Word = Tuple[int, ...]
Symbol = Tuple[str, Word]  # ("a" | "b", index word)
# a symbol as a monomial's factor: one str, see _factor
Factor = str
Monomial = Tuple[Factor, ...]  # sorted multiset of factors

ALPHA = "a"
BETA = "b"

VACUUM: Word = ()

#: The largest letter, and word length, a symbol may have: one code point each.
MAX_LETTER = 0x10FFFF


def _factor(kind: str, word: Word) -> Factor:
    """The symbol (kind, word) as a monomial factor: ``kind``, then one
    character for the word's length and one per letter, so that the
    factors' code-point order is the order by (kind, word length, word).
    A str caches its hash and compares in C, where a tuple of tuples
    re-hashes and compares level by level."""
    return kind + chr(len(word)) + "".join(map(chr, word))


def _unfactor(factor: Factor) -> Symbol:
    """The symbol (kind, word) a monomial factor encodes."""
    return factor[0], tuple(map(ord, factor[2:]))


def _is_factor(factor) -> bool:
    """True for a str that :func:`_factor` makes from a valid symbol."""
    if type(factor) is not str or not factor:
        return False
    kind, word = _unfactor(factor)
    return kind in (ALPHA, BETA) and min(word, default=0) > 0 and _factor(kind, word) == factor


def symbol_str(sym: "Symbol | Factor") -> str:
    """A symbol (kind, word), or a monomial factor, as "kind[w1,...,wk]"."""
    kind, word = _unfactor(sym) if type(sym) is str else sym
    return f"{kind}[{','.join(map(str, word))}]"


class PolyScalar:
    """Sparse exact polynomial in coefficient symbols, over the rationals.

    Monomials are multisets of symbols, stored as sorted tuples of str
    factors (see :func:`_factor`), whose native order is the order by
    kind, word length, word; zero coefficients are never stored.  Symbols
    and whole constants carry int coefficients, so sums and products of
    them stay in int arithmetic.
    Supports +, -, * with other PolyScalar values, ints and Fractions,
    and equality against the same.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Fraction]] = None):
        """The polynomial with these terms.  Each monomial must be a sorted
        tuple of factors and each coefficient an int or Fraction (no bool);
        zero coefficients are dropped."""
        kept = {}
        for mono, c in dict(terms or {}).items():
            if type(mono) is not tuple or not all(map(_is_factor, mono)) or list(mono) != sorted(mono):
                raise ValueError(f"monomial {mono!r} is not a sorted tuple of factors")
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ValueError(f"coefficient {c!r} of {mono!r} is not an int or Fraction")
            if c:
                kept[mono] = c
        _set_terms(self, kept)

    def __setattr__(self, name, value):
        raise AttributeError("PolyScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms: Dict[Monomial, Fraction]) -> "PolyScalar":
        """The polynomial with these terms, taking ownership of the dict:
        for a dict built fresh by the caller, with no zero coefficient."""
        value = object.__new__(cls)
        _set_terms(value, terms)
        return value

    @classmethod
    def zero(cls) -> "PolyScalar":
        return cls._of({})

    @classmethod
    def const(cls, value) -> "PolyScalar":
        value = Fraction(value)
        if value.denominator == 1:
            value = value.numerator
        return cls._of({(): value} if value else {})

    @classmethod
    def symbol(cls, kind: str, word: Iterable[int]) -> "PolyScalar":
        """The symbol kind[word]: ``kind`` "a" or "b" and a non-empty word
        of int letters in 1..MAX_LETTER."""
        word = tuple(word)
        if (
            kind not in (ALPHA, BETA)
            or not 0 < len(word) <= MAX_LETTER
            or not all(type(x) is int and 0 < x <= MAX_LETTER for x in word)
        ):
            raise ValueError(f"bad symbol ({kind!r}, {word!r})")
        return cls._symbol(kind, word)

    @classmethod
    def _symbol(cls, kind: str, word: Word) -> "PolyScalar":
        """The symbol kind[word], for a kind and word already known to be
        valid: the trusted form of :meth:`symbol`."""
        return cls._of({(_factor(kind, word),): 1})

    @staticmethod
    def _coerce(value) -> "PolyScalar":
        if isinstance(value, PolyScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return PolyScalar.const(value)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not PolyScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        terms, small = self.terms, other.terms
        if len(small) > len(terms):  # copy the larger (in C), walk the smaller
            terms, small = small, terms
        terms = dict(terms)
        for mono, c in small.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return PolyScalar._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is PolyScalar:
            a, b = self.terms, other.terms
            if len(a) == 1 == len(b):  # one nonzero coefficient times another
                ((m1, c1),) = a.items()
                ((m2, c2),) = b.items()
                value = object.__new__(PolyScalar)
                _set_terms(value, {tuple(sorted(m1 + m2)): c1 * c2})
                return value
            terms: Dict[Monomial, Fraction] = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    mono = tuple(sorted(m1 + m2))
                    s = terms.get(mono, 0) + c1 * c2
                    if s:
                        terms[mono] = s
                    else:
                        del terms[mono]
            return PolyScalar._of(terms)
        if isinstance(other, (int, Fraction)):
            if not other:
                return PolyScalar._of({})
            return PolyScalar._of({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is PolyScalar:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            # dict equality compares the coefficients by value: no Fraction needed
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self):
        # equal to an int or Fraction => same hash, as __eq__ requires
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(frozenset(terms.items()))

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        """The terms by degree, then by the monomials' native order."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _rendered(self) -> List[Tuple[List[str], Fraction]]:
        """The sorted terms, each monomial as its rendered factors; each
        distinct factor is decoded once."""
        terms = self.sorted_terms()
        names = {f: symbol_str(f) for f in {f for mono, _ in terms for f in mono}}
        return [([names[f] for f in mono], c) for mono, c in terms]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for names, c in self._rendered():
            factors = "*".join(names)
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c}*{factors}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"PolyScalar<{self}>"

    def to_json(self) -> List[dict]:
        return [{"coeff": str(c), "monomial": names} for names, c in self._rendered()]


# the slot's own setter, bound once: it writes past the refusing
# ``__setattr__``, for the constructors and the hot products alone
_set_terms = PolyScalar.terms.__set__


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------


# "p" or "p/q" with q > 0 in ASCII digits: the exact rationals a table file
# may hold as strings (matched with re.fullmatch, compiled on first use, not
# at import)
_RATIONAL = r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?"
# the one spelling of an index word as a table-file key: "1", "2,1,3"
_WORD_KEY = r"[1-9][0-9]*(?:,[1-9][0-9]*)*"

#: A symbolic or drawn table holds 2 * (d + d**2 + ... + d**n_o) entries,
#: whose words hold 2 * (d + 2 d**2 + ... + n_o d**n_o) letters; it is
#: rejected before it is built when either count exceeds its bound.
MAX_SYMBOLS = 100_000
MAX_LETTERS = 1_000_000


def _check_dense_size(d: int, n_o: int, kind: str) -> None:
    """Refuse a table holding every word of length 1..n_o over d letters
    on both sides when it exceeds ``MAX_SYMBOLS`` or ``MAX_LETTERS``."""
    # summed lazily, so a huge n_o stops at the bound
    sizes = zip(accumulate(2 * d**p for p in range(1, n_o + 1)),
                accumulate(2 * p * d**p for p in range(1, n_o + 1)))
    if any(s > MAX_SYMBOLS or l > MAX_LETTERS for s, l in sizes):
        raise ValueError(
            f"a {kind} table with d={d}, n_o={n_o} exceeds {MAX_SYMBOLS} symbols "
            f"or {MAX_LETTERS} stored letters"
        )


def _key_word(name: str, key, d: int, n_o: int, word_key, words: Dict[object, Word]) -> Word:
    """The index word one map key spells, validated.  With ``word_key``,
    the canonical-key regex's ``fullmatch``, a key is a table file's text
    "2,1,3", and a key whose text without its last letter is in ``words``
    (validated earlier in the same load) extends that word, so only its
    length and its last letter are checked.  Without ``word_key``, a key
    is a tuple of int letters.  A key of any other form, a word outside
    lengths 1..n_o or a letter outside 1..d is refused with a ValueError
    naming the entry."""
    if word_key is None:
        if type(key) is not tuple or {*map(type, key)} - {int}:
            raise ValueError(f"{name} key {key!r} is not an index word: a tuple of int letters")
        word = key
    elif type(key) is not str or not word_key(key):
        raise ValueError(f"{name} key {key!r} is not an index word like '1,2'")
    else:
        head, _, last = key.rpartition(",")
        prefix = words.get(head)
        if prefix is None:
            word = tuple(map(int, key.split(",")))
        else:
            word = prefix + (int(last),)
            if len(word) <= n_o and word[-1] <= d:
                return word
    if not word or len(word) > n_o:
        raise ValueError(f"{name} entry {word} outside word lengths 1..{n_o}")
    if min(word) < 1 or max(word) > d:
        raise ValueError(f"{name} entry {word} has letters outside 1..{d}")
    return word


def _checked(
    name: str,
    table: Optional[Mapping],
    d: int,
    n_o: int,
    word_key,
    words: Dict[object, Word],
    reduced: Dict[str, Tuple[int, int]],
) -> Dict[Word, Tuple[int, int]]:
    """The non-zero entries of one concrete coefficient map (None for
    none), validated in one walk, as (numerator, denominator) pairs in
    lowest terms.  Keys are index words, spelt as :func:`_key_word` says
    for ``word_key``.  A value is an int, a Fraction, or a "p/q" string,
    which is split and reduced without building a Fraction; floats, bools
    and anything else are not exact and are rejected.  ``words`` holds the
    word of every key validated earlier and ``reduced`` the pair of every
    string reduced earlier, so each distinct key is validated and each
    distinct string reduced once for as long as the caller keeps them."""
    if table is None:
        return {}
    if not isinstance(table, Mapping):
        raise ValueError(f"{name} must be a map from index words to rationals")
    rational = re.compile(_RATIONAL).fullmatch
    cleaned = {}
    for key, value in table.items():
        word = words.get(key)
        if word is None:
            word = words[key] = _key_word(name, key, d, n_o, word_key, words)
        if isinstance(value, str):
            pair = reduced.get(value)
            if pair is None and rational(value):
                num, _, den = value.partition("/")
                num, den = int(num), int(den or 1)
                g = gcd(num, den)
                pair = reduced[value] = num // g, den // g
        elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            pair = value.numerator, value.denominator
        else:
            pair = None
        if pair is None:
            raise ValueError(
                f"{name} entry {word} must be an integer or a 'p/q' string, got {value!r}"
            )
        if pair[0]:
            cleaned[word] = pair
    return cleaned


class CoefficientTable:
    """The coefficient families of the two symbol polynomials.

    ``kind`` "a" indexes the left side, "b" the right side.  ``alpha`` and
    ``beta`` map every index word with a non-zero coefficient to it: in
    symbolic mode every word of length 1..n_o holds its own formal symbol;
    in concrete mode a rational coefficient c(w) is stored as the graded
    int c(w) * scale**len(w), where ``scale`` is the lcm of the
    denominators (1 for a symbolic table); missing entries are zero.
    Either way the coefficients vanish beyond length n_o.

    Every term of a length-n moment, cumulant or single-track product is a
    product of coefficients whose word lengths add up to n, so the engines
    compute that quantity times scale**n in int arithmetic, and two
    length-n values of one table are equal exactly when the rationals they
    stand for are.  :meth:`rational` divides the grading back out.
    """

    __slots__ = ("d", "n_o", "mode", "scale", "alpha", "beta")

    def __init__(
        self,
        d: int,
        n_o: int,
        mode: str = "symbolic",
        alpha: Optional[Mapping[Word, Fraction]] = None,
        beta: Optional[Mapping[Word, Fraction]] = None,
    ):
        self._build(d, n_o, mode, alpha, beta, text_keys=False)

    def _build(self, d, n_o, mode: str, alpha, beta, text_keys: bool) -> None:
        """Validate and store a table whose maps are keyed by tuples of
        int letters, or by a table file's text keys with ``text_keys``."""
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (d, n_o)):
            raise ValueError(f"d and n_o must be positive integers, got {d!r} and {n_o!r}")
        if mode not in ("symbolic", "concrete"):
            raise ValueError(f"unknown table mode {mode!r}")
        if mode == "symbolic":
            if alpha is not None or beta is not None:
                raise ValueError("symbolic tables carry no stored values")
            _check_dense_size(d, n_o, mode)
            scale = 1
            # symbols valid by construction: one non-empty word per entry,
            # each factor (see _factor) joined straight from characters, in
            # the same order as the words
            letters = "".join(map(chr, range(1, d + 1)))
            stored = [
                {
                    word: PolyScalar._of({(factor,): 1})
                    for p in range(1, n_o + 1)
                    for word, factor in zip(
                        product(range(1, d + 1), repeat=p),
                        map("".join, product([kind + chr(p)], *[letters] * p)),
                    )
                }
                for kind in (ALPHA, BETA)
            ]
        else:
            # A text key is validated once per load, so beta reuses alpha's
            # words.  Tuple keys are validated per map: (True,) and (1.0,)
            # equal (1,), so a word kept from alpha would let them through.
            word_key = re.compile(_WORD_KEY).fullmatch if text_keys else None
            words: Dict[object, Word] = {}
            reduced: Dict[str, Tuple[int, int]] = {}
            rationals = [
                _checked(name, table, d, n_o, word_key, words if text_keys else {}, reduced)
                for name, table in (("alpha", alpha), ("beta", beta))
            ]
            scale = lcm(*{den for table in rationals for _, den in table.values()})
            # scale**(len(word) - 1) by length, up to the longest stored word:
            # a sparse table may declare a huge n_o
            longest = max(map(len, chain.from_iterable(rationals)), default=1)
            powers = list(accumulate(repeat(scale, longest - 1), mul, initial=1))
            stored = [
                {
                    word: num * (scale // den) * powers[len(word) - 1]
                    for word, (num, den) in table.items()
                }
                for table in rationals
            ]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n_o", n_o)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "alpha", stored[0])
        object.__setattr__(self, "beta", stored[1])

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientTable is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def symbolic(cls, d: int, n_o: int) -> "CoefficientTable":
        return cls(d, n_o, "symbolic")

    @classmethod
    def random(cls, d: int, n_o: int, seed: int) -> "CoefficientTable":
        """Every coefficient of length <= n_o drawn from small rationals."""
        _check_dense_size(d, n_o, "random")
        rng = random.Random(seed)

        def draw() -> str:
            # as "p/q": the table reduces each of the 72 distinct strings
            # once, where a Fraction per draw would reduce every draw
            num = rng.randint(-9, 9)
            return f"{num if num else 1}/{rng.randint(1, 4)}"

        alpha = {}
        beta = {}
        for p in range(1, n_o + 1):
            for word in product(range(1, d + 1), repeat=p):
                alpha[word] = draw()
                beta[word] = draw()
        return cls(d, n_o, "concrete", alpha, beta)

    @classmethod
    def separated_random(cls, d: int, n_o: int, seed: int) -> "CoefficientTable":
        """Random table whose only non-zero coefficients sit on constant words.

        This is the shape produced by a sum of single-variable symbol
        polynomials, one per index.
        """
        rng = random.Random(seed)

        def draw() -> Fraction:
            num = rng.randint(1, 9) * rng.choice((1, -1))
            return Fraction(num, rng.randint(1, 4))

        alpha = {}
        beta = {}
        for p in range(1, n_o + 1):
            for i in range(1, d + 1):
                word = (i,) * p
                alpha[word] = draw()
                beta[word] = draw()
        return cls(d, n_o, "concrete", alpha, beta)

    def with_entry(self, kind: str, word: Iterable[int], value) -> "CoefficientTable":
        """A copy of a concrete table with one coefficient replaced by the
        rational ``value``."""
        if self.mode != "concrete":
            raise ValueError("with_entry only applies to concrete tables")
        if kind not in (ALPHA, BETA):
            raise ValueError(f"coefficient kind must be {ALPHA!r} or {BETA!r}, got {kind!r}")
        alpha = self._rationals(self.alpha)
        beta = self._rationals(self.beta)
        (alpha if kind == ALPHA else beta)[tuple(word)] = value
        return CoefficientTable(self.d, self.n_o, "concrete", alpha, beta)

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        obj = {"d": self.d, "n_o": self.n_o, "mode": self.mode}
        if self.mode == "concrete":
            for name, stored in (("alpha", self.alpha), ("beta", self.beta)):
                obj[name] = {
                    ",".join(map(str, word)): str(value)
                    for word, value in sorted(
                        self._rationals(stored).items(), key=lambda kv: (len(kv[0]), kv[0])
                    )
                }
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "CoefficientTable":
        """A table from its JSON form: an object whose maps have canonical
        index-word keys and JSON integers or "p/q" strings as values.  The
        maps are validated as they are read, by the constructor's validator."""
        if not isinstance(obj, Mapping):
            raise ValueError("a table must be a JSON object")
        missing = [name for name in ("d", "n_o") if name not in obj]
        if missing:
            raise ValueError(f"a table must give {' and '.join(missing)}")
        mode = obj.get("mode")
        if mode is None:
            mode = "concrete" if ("alpha" in obj or "beta" in obj) else "symbolic"
        table = object.__new__(cls)
        table._build(obj["d"], obj["n_o"], mode, obj.get("alpha"), obj.get("beta"), text_keys=True)
        return table

    @classmethod
    def from_file(cls, path: str) -> "CoefficientTable":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_obj(json.load(handle))

    # -- coefficient access --------------------------------------------------

    def coeff(self, kind: str, word: Word):
        """The stored coefficient for (kind, word): a symbol, a graded int,
        or 0."""
        return (self.alpha if kind == ALPHA else self.beta).get(word, 0)

    def rational(self, value, n: int):
        """The rational that the graded value of a length-n quantity stands
        for, value / scale**n.  A symbolic value is returned unchanged."""
        if isinstance(value, PolyScalar):
            return value
        return Fraction(value, self.scale ** n)

    def _rationals(self, stored: Mapping[Word, int]) -> Dict[Word, Fraction]:
        return {word: self.rational(value, len(word)) for word, value in stored.items()}


# ---------------------------------------------------------------------------
# Vectors and elementary generators
# ---------------------------------------------------------------------------

FockVector = Dict[Word, object]


def vacuum_vector() -> FockVector:
    return {VACUUM: 1}


def apply_generator(gen: Tuple[str, int], vec: FockVector) -> FockVector:
    """Apply one creation/annihilation generator to a vector.

    ``gen`` is (op, i) with op one of "L", "R", "L*", "R*": create at the
    head, create at the tail, annihilate at the head, annihilate at the
    tail.  Annihilation kills words whose end letter differs from i, and
    kills the vacuum.
    """
    op, i = gen
    out: FockVector = {}
    if op == "L":
        for word, c in vec.items():
            out[(i,) + word] = c
    elif op == "R":
        for word, c in vec.items():
            out[word + (i,)] = c
    elif op == "L*":
        for word, c in vec.items():
            if word and word[0] == i:
                key = word[1:]
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
    elif op == "R*":
        for word, c in vec.items():
            if word and word[-1] == i:
                key = word[:-1]
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return out


_STARS = {"L": "L*", "L*": "L", "R": "R*", "R*": "R"}


def inner_product(v: FockVector, w: FockVector):
    """Sum over common words of the coefficient products (real scalars,
    so no conjugation)."""
    total = 0
    for word, c in v.items():
        other = w.get(word)
        if other is not None:
            total = total + c * other
    return total


class OperatorExpr:
    """A finite formal sum of scalar multiples of generator products.

    Each term is (coefficient, generators) with the generators listed in
    product order; applying a term to a vector runs the generators
    right-to-left.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[object, Tuple[Tuple[str, int], ...]]] = ()):
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    @classmethod
    def identity(cls) -> "OperatorExpr":
        return cls(((1, ()),))

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @classmethod
    def generator(cls, op: str, i: int) -> "OperatorExpr":
        return cls(((1, ((op, i),)),))

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return OperatorExpr(
                (c1 * c2, g1 + g2)
                for c1, g1 in self.terms
                for c2, g2 in other.terms
            )
        return OperatorExpr((other * c, g) for c, g in self.terms)

    def __rmul__(self, other):
        return OperatorExpr((other * c, g) for c, g in self.terms)

    def adjoint(self) -> "OperatorExpr":
        """Reverse every product and star every generator.  Coefficients
        are fixed (conjugation is the identity on the rings in use)."""
        return OperatorExpr(
            (c, tuple((_STARS[op], i) for op, i in reversed(gens)))
            for c, gens in self.terms
        )

    def apply(self, vec: FockVector) -> FockVector:
        out: FockVector = {}
        for c, gens in self.terms:
            cur = vec
            for gen in reversed(gens):
                cur = apply_generator(gen, cur)
                if not cur:
                    break
            for word, value in cur.items():
                scaled = value if c == 1 else c * value
                prev = out.get(word)
                s = scaled if prev is None else prev + scaled
                if s:
                    out[word] = s
                else:
                    out.pop(word, None)
        return out


def adjoint(op: OperatorExpr) -> OperatorExpr:
    return op.adjoint()


def _side(h: str) -> bool:
    """True for side "l", False for "r"; ``ValueError`` for any other."""
    if h not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {h!r}")
    return h == "l"


def x_op(p: int, h: str, table: CoefficientTable) -> OperatorExpr:
    """The degree-p creation block on side h.

    p = 0 is the identity; for p >= 1 it is the sum over words w of
    length p of coeff(w) times the creators for w applied innermost
    letter first.  Beyond the table's degree bound the block is zero.
    """
    left = _side(h)
    if p == 0:
        return OperatorExpr.identity()
    if p > table.n_o:
        return OperatorExpr.zero()
    kind, create = (ALPHA, "L") if left else (BETA, "R")
    terms = []
    for word in product(range(1, table.d + 1), repeat=p):
        c = table.coeff(kind, word)
        if not c:
            continue
        gens = tuple((create, letter) for letter in reversed(word))
        terms.append((c, gens))
    return OperatorExpr(terms)


def s_op(i: int, h: str) -> OperatorExpr:
    """The creator for basis index i on side h."""
    return OperatorExpr.generator("L" if _side(h) else "R", i)


def canonical_operator(i: int, h: str, table: CoefficientTable) -> OperatorExpr:
    """Annihilate one letter at side h after creating with every block.

    For h = "l" this is the left canonical operator of index i, for
    h = "r" the right one.
    """
    star = "L*" if _side(h) else "R*"
    terms = [(1, ((star, i),))]
    for p in range(1, table.n_o + 1):
        for c, gens in x_op(p, h, table).terms:
            terms.append((c, ((star, i),) + gens))
    return OperatorExpr(terms)


def vacuum_expectation(ops: Sequence[OperatorExpr]):
    """Coefficient of the vacuum in (ops[0] ... ops[-1]) applied to the
    vacuum, the rightmost operator acting first.  Empty product gives 1."""
    vec = vacuum_vector()
    for op in reversed(ops):
        vec = op.apply(vec)
        if not vec:
            return 0
    return vec.get(VACUUM, 0)


# ---------------------------------------------------------------------------
# Bi-mixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bimixture_template(chi_str: str) -> Tuple[str, Tuple[int, ...]]:
    """The mixture rule, as (kind, 0-based position order): the mixture
    symbol of an index word omega is (kind, omega at those positions in
    that order).

    Last letter "l": kind "a", r-positions descending then l-positions
    ascending.  Last letter "r": kind "b", l-positions descending then
    r-positions ascending.
    """
    chi = ChiWord(chi_str)
    ell = tuple(m - 1 for m in chi.m_ell)
    r = tuple(m - 1 for m in chi.m_r)
    if chi_str[-1] == LEFT:
        return ALPHA, r[::-1] + ell
    return BETA, ell[::-1] + r


@lru_cache(maxsize=None)
def reverse_bimixture_template(chi_str: str) -> Tuple[str, Tuple[int, ...]]:
    """The reverse-mixture rule: the mixture rule of the reversed bi-word.

    First letter "l": kind "a", r-positions ascending then l-positions
    descending.  First letter "r": kind "b", l-positions ascending then
    r-positions descending.
    """
    last = len(chi_str) - 1
    kind, order = bimixture_template(chi_str[::-1])
    return kind, tuple(last - p for p in order)


def _pick(template, omega: Word, chi_str: str) -> Symbol:
    if len(omega) != len(chi_str):
        raise ValueError("index word and chi word lengths differ")
    kind, order = template(chi_str)
    return kind, tuple(omega[p] for p in order)


def bimixture_symbol(omega: Word, chi: "ChiWord | str") -> Symbol:
    """The mixture symbol of the bi-word (omega, chi); see
    :func:`bimixture_template`."""
    return _pick(bimixture_template, omega, _chi_word(chi).letters)


def reverse_bimixture_symbol(omega: Word, chi: "ChiWord | str") -> Symbol:
    """The reverse-mixture symbol of the bi-word (omega, chi); see
    :func:`reverse_bimixture_template`."""
    return _pick(reverse_bimixture_template, omega, _chi_word(chi).letters)


# ---------------------------------------------------------------------------
# Single-track products: annihilation blocks alternating with creators
# ---------------------------------------------------------------------------


def lemma67_vector(
    path, chi: "ChiWord | str", omega: Word, table: CoefficientTable
) -> FockVector:
    """Apply  X*_{p_1;h_1} S_{i_1;h_1} ... X*_{p_n;h_n} S_{i_n;h_n}  to the
    vacuum, where (p_m - 1) is the path's rise-vector.

    Each step keeps the state a scalar multiple of a single basis word:
    the creator appends/prepends a letter, and the adjoint block strips a
    fixed number of letters from the matching side while multiplying by
    the stripped word's coefficient.  The result is always a multiple of
    the vacuum; the multiple factors over the scenario's output-time
    partition as a product of reverse-mixtures.
    """
    chi = _chi_word(chi)
    n = chi.n
    omega = _index_word(omega, chi.letters, table)
    if path.n != n:
        raise ValueError(f"path has {path.n} steps but chi word has {n} letters")
    coeff: object = None
    word: Word = ()
    for m in range(n, 0, -1):
        h = chi.letters[m - 1]
        i = omega[m - 1]
        word = ((i,) + word) if h == "l" else (word + (i,))
        p = path.rise[m - 1] + 1
        if p:
            if p > len(word):
                return {}
            if h == "l":
                value = table.coeff(ALPHA, word[:p][::-1])
                word = word[p:]
            else:
                value = table.coeff(BETA, word[-p:])
                word = word[:-p]
            if not value:
                return {}
            coeff = value if coeff is None else coeff * value
    return {word: 1 if coeff is None else coeff}


# ---------------------------------------------------------------------------
# Vacuum moments of canonical-operator words
# ---------------------------------------------------------------------------

CWord = Tuple[Tuple[int, str], ...]  # ((index, side), ...)


class VacuumMoments:
    """Vacuum moments of products of canonical operators over one table.

    One word at a time: the engine is callable on a word of (index, side)
    pairs, memoized, and :meth:`sweep_subwords` memoizes every sub-word of
    one word.  Every index word omega in [d]^n at once, in
    ``itertools.product`` order: :meth:`column` gives the moments of one
    chi word, from one sweep that fills the columns of every chi word of
    that length, :meth:`cumulants` runs the moment-cumulant recursion on
    those columns, and :meth:`mixture` and :meth:`family_sums` read
    mixture blocks.  The engine keeps its memos, moment and cumulant
    columns and gather indices for as long as it lives.

    Moments are evaluated by applying the operators to the vacuum
    right-to-left.  The canonical operators act like a double-ended queue:
    one of index i on side l removes a letter only when it is i at the left
    end, one on side r only at the right end, and creation removes nothing.
    So a word reaches the vacuum only if it splits as u.v, with u popped
    from the left, in order, by the remaining left operators and v popped
    from the right by the remaining right ones.  Each operator computes the
    state only at these words (:func:`_reachable`), pulling every term from
    the table and the state before it; every other word's vacuum moment
    under the remaining operators is zero.  The reach sets come from the
    operators' definitions alone, never from the partition families.
    Words that share a tail of (index, side) pairs share every state up to
    it, so :meth:`_sweep` walks the tail trie and applies each tail's
    operator once.  With every index at every position, the reach of a
    position is every word of length <= m for both sides alike, so one
    sweep over all chi words of a length applies each operator on the
    same words as a sweep of one chi word.

    A mixture block is a (kind, 0-based position order) pair, as in the
    plans of :func:`mixture_plan`, standing at omega for coeff(kind, omega
    at those positions in that order).  :meth:`mixture` gathers its dense
    column over all d**n words from the kept coefficient column, on every
    call, and :meth:`family_sums` multiplies and sums such columns as
    :class:`~.cumulants.Column`, graded ints and :class:`PolyScalar` alike.
    Neither applies an operator, and :meth:`column` reads no mixture, so
    Prop 6.10's two routes share only the table.

    Mixture columns are not kept: a caller that reads one block again, as
    the lemma67 suite does within a cell, keeps its own columns for as
    long as it needs them.  A sub-word's cumulant column read at the
    positions of a longer word is kept, by (sub-word letters, positions,
    k), for :meth:`cumulants` alone.
    """

    def __init__(self, table: CoefficientTable):
        self.table = table
        self._memo: Dict[CWord, object] = {}
        # chi letters -> the vacuum moment, and the chi-cumulant, at every
        # omega in [d]^len(chi)
        self._columns: Dict[str, list] = {}
        self._cumulants: Dict[str, list] = {}
        # (kind, length p) -> the coefficients of the words of length p
        self._coefficients: Dict[Tuple[str, int], list] = {}
        # (length k, position order) -> the itemgetter that reads, per omega
        # in [d]^k, omega at those positions from the column of that length
        self._gathers: Dict[Tuple[int, Tuple[int, ...]], itemgetter] = {}
        # (sub-word letters, positions, length k) -> that sub-word's
        # cumulant column read at those positions of a length-k word
        self._sub_cumulants: Dict[Tuple[str, Tuple[int, ...], int], Column] = {}

    # -- one word --------------------------------------------------------------

    def __call__(self, cword: CWord):
        _check_operators(cword, self.table.d)  # before the lookup: (True, "l") == (1, "l")
        value = self._memo.get(cword)
        if value is None:
            chi = "".join([h for _, h in cword])
            value = self._memo[cword] = self._sweep(chi, [(i,) for i, _ in cword])[chi][0]
        return value

    def sweep_subwords(self, cword: CWord) -> None:
        """Put the moment of every non-empty sub-word of cword in the memo,
        from one depth-first sweep from the right end.

        The state of a set S of positions is the state of S without its
        leftmost position j with the operator at j applied, kept on
        reach[j], the words that the operators of cword[:j] can bring to
        the vacuum: the set the sweep of the whole word uses at j, and a
        superset of the reach of every subset's remaining operators.
        Reach only grows with j, since cword[:j] is a prefix of cword[:j']
        for j <= j'.  Later leftmost positions are visited first, so the
        first set to spell a sub-word is its rightmost embedding, whose
        leftmost position j' is the latest of any set spelling it.  A later
        set spelling it, with leftmost position j <= j', is skipped with
        all its extensions: the first set's state kept every word of
        reach[j'], which holds reach[j], and its extensions by positions
        left of j' spell every sub-word that the later set's extensions by
        positions left of j spell.  So each distinct sub-word costs one
        operator application.
        """
        _check_ground_set(len(cword))
        _check_operators(cword, self.table.d)
        reach = _reachable([h for _, h in cword], [(i,) for i, _ in cword])
        memo = self._memo
        swept = set()

        def descend(top: int, key: CWord, vec: FockVector) -> None:
            for j in range(top - 1, -1, -1):
                sub = (cword[j],) + key
                if sub in swept:
                    continue
                swept.add(sub)
                state = self._apply(vec, *cword[j], reach[j])
                memo[sub] = state.get(VACUUM, 0)
                descend(j, sub, state)

        descend(len(cword), (), vacuum_vector())

    # -- every index word ------------------------------------------------------

    def omegas(self, n: int) -> List[Word]:
        """Every index word of length n, in product order."""
        return list(product(range(1, self.table.d + 1), repeat=n))

    def column(self, chi: "ChiWord | str") -> list:
        """The vacuum moment of the bi-word (omega, chi) at every omega in
        [d]^len(chi).  A miss sweeps both sides at every position, once,
        and keeps the column of every chi word of that length."""
        # a ChiWord never equals its letters, and a list is no key: only a
        # str can hit before chi is read as a ChiWord
        column = self._columns.get(chi) if type(chi) is str else None
        if column is None:
            chi = _chi_word(chi).letters  # ValueError unless chi is a word over {l, r}
            column = self._columns.get(chi)
            if column is None:  # one sweep fills every column of this length
                n = len(chi)
                self._columns.update(self._sweep(("lr",) * n, (range(1, self.table.d + 1),) * n))
                column = self._columns[chi]
        return column

    def family_sums(self, chi: "ChiWord | str") -> list:
        """The family sum of :func:`moment_via_sigma` at every omega: one
        gathered mixture column per block of :func:`sigma_mixture_plan`,
        summed on the plan's ``unit`` DAG, as the CLI does one bi-word at
        a time."""
        chi = _chi_word(chi)
        mixtures, plan = sigma_mixture_plan(chi)
        n = chi.n
        return dag_sum(plan.unit, [self.mixture(kind, order, n) for kind, order in mixtures])

    def cumulants(self, chi: "ChiWord | str") -> list:
        """The chi-cumulant of the bi-word (omega, chi) at every omega.

        The moment-cumulant recursion of :class:`~.cumulants.CumulantEngine`,
        one column over [d]^k per chi word of length k: K_chi is the
        column of :meth:`column` minus the ``unit`` sum over
        sigma_chi . NC(k) of the blocks' sub-word cumulant columns,
        gathered at the blocks' positions, with the one-block partition's
        factor set to 0, since that term is K_chi itself.  Every column
        reached is read from the engine's memo or computed and kept there.
        """
        column = self._cumulants.get(chi) if type(chi) is str else None  # as in column
        if column is None:
            chi = _chi_word(chi)
            letters = chi.letters
            column = self._cumulants.get(letters)
            if column is None:
                blocks, plan = sigma_nc_plan(chi)
                k = chi.n
                zero = Column([0] * self.table.d ** k)
                factors = [
                    zero if len(positions) == k else
                    self._sub_cumulant("".join([letters[q] for q in positions]), positions, k)
                    for positions in blocks
                ]
                rest = dag_sum(plan.unit, factors)
                column = [m - t for m, t in zip(self.column(letters), rest)]
                self._cumulants[letters] = column
        return column

    def _apply(self, vec: FockVector, i: int, h: str, reach: Iterable[Word]) -> FockVector:
        """One canonical operator, at the words of reach only.

        At z, the annihilation term is vec at (i,) + z on side l and at
        z + (i,) on side r.  A creation term splits z as p + rest on side l
        (as rest + p on side r): vec at rest times the coefficient of the
        created word, p reversed then i (p then i).  A word of reach with
        no term is left out.
        """
        left = h == "l"
        stored = self.table.alpha if left else self.table.beta
        get = vec.get
        out: FockVector = {}
        for z in reach:
            total = get((i,) + z if left else z + (i,))
            for k in range(len(z) + 1):
                # side l: z = p + rest with p = z[:k]; side r: z = rest + p with p = z[k:]
                c = get(z[k:] if left else z[:k])
                if c is not None:
                    value = stored.get(z[:k][::-1] + (i,) if left else z[k:] + (i,))
                    if value is not None:
                        term = value * c
                        total = term if total is None else total + term
            if total is not None:
                out[z] = total
        return out

    def _sweep(self, sides: Sequence[str], letters: Sequence[Sequence[int]]) -> Dict[str, list]:
        """chi letters -> the moment of every word with sides chi and an
        index from letters[m] at each position m, in product order over
        letters, for every chi with a side from sides[m] at each position
        m ("l", "r" or "lr").

        A depth-first sweep from the right end over the (side, index) tail
        trie: the state after the operators at positions m.. is computed
        once and shared by every word with that tail, whatever its sides
        and indices at positions < m, on the words that every choice of
        sides and letters there can bring to the vacuum.  With "lr" and
        every index at every position, as :meth:`column` calls it, one
        sweep fills the column of every chi word of that length, and those
        words are every word of length <= m, as in a sweep of one chi.
        """
        reach = _reachable(sides, letters)

        def descend(m: int, vec: FockVector) -> Dict[str, list]:
            if m < 0:
                return {"": [vec.get(VACUUM, 0)]}
            out = {}
            for h in sides[m]:
                heads = [descend(m - 1, self._apply(vec, i, h, reach[m])) for i in letters[m]]
                for head in heads[0]:  # position m varies fastest
                    out[head + h] = [v for values in zip(*[c[head] for c in heads]) for v in values]
            return out

        return descend(len(sides) - 1, vacuum_vector())

    def mixture(self, kind: str, order: Tuple[int, ...], n: int) -> Column:
        """Per omega in [d]^n, coeff(kind, omega at those positions in that
        order), gathered afresh from the coefficient column of that
        length."""
        p = len(order)
        coefficients = self._coefficients.get((kind, p))
        if coefficients is None:
            coeff = self.table.coeff
            coefficients = self._coefficients[kind, p] = [
                coeff(kind, word) for word in self.omegas(p)]
        return self._gathered(coefficients, order, n)

    def _sub_cumulant(self, sub: str, positions: Tuple[int, ...], k: int) -> Column:
        """Per omega in [d]^k, the cumulant of the sub-word with sides sub
        at omega read at those positions; kept for later calls."""
        key = sub, positions, k
        column = self._sub_cumulants.get(key)
        if column is None:
            column = self._sub_cumulants[key] = self._gathered(self.cumulants(sub), positions, k)
        return column

    def _gathered(self, column: list, order: Tuple[int, ...], k: int) -> Column:
        """Per omega in [d]^k, the column's value at omega read at those
        positions in that order."""
        gather = self._gathers.get((k, order))
        if gather is None:
            d = self.table.d
            weight = [0] * k
            for j, p in enumerate(order):
                weight[p] += d ** (len(order) - 1 - j)
            index = [0]
            for w in weight:  # the last position varies fastest, as in product
                index = [x + w * i for x in index for i in range(d)]
            # for d = 1, index is [0], and itemgetter(0) would not give a tuple
            gather = self._gathers[k, order] = itemgetter(*index) if d > 1 else itemgetter(slice(1))
        return Column(gather(column))


def _reachable(sides: Sequence[str], letters: Sequence[Sequence[int]]) -> List[set]:
    """reach[m] for m < len(sides): the words z = u + v that the operators
    at positions < m, with a side from sides[p] and an index from
    letters[p] at each position p, can bring to the vacuum.  They act from
    position m - 1 down to 0, so u is a sub-sequence of their left indices
    in that order and reversed v one of their right indices.  The operator
    at m pops first on its side: reach[m + 1] adds to reach[m] its index
    put before every word of reach[m] on side l, after it on side r.  With
    every index at every position, reach[m] is every word of length <= m,
    whatever the sides: the reach of each single chi, so a sweep over both
    sides applies every operator on the same words as one chi's sweep.
    """
    reach = [{VACUUM}]
    for hs, ids in zip(sides[:-1], letters):
        last = reach[-1]
        grown = set(last)
        if "l" in hs:
            grown.update([(i,) + z for i in ids for z in last])
        if "r" in hs:
            grown.update([z + (i,) for i in ids for z in last])
        reach.append(grown)
    return reach


def moment_via_pchi(omega: Word, chi: "ChiWord | str", table: CoefficientTable):
    """Vacuum moment computed as the partition-family sum.

    Sum over the scenario family of chi; each partition contributes the
    product of the mixtures of the restricted bi-words of its blocks.
    """
    chi_str = _chi_word(chi).letters
    omega = _index_word(omega, chi_str, table)
    coeff = table.coeff
    total = 0
    for pblocks in mixture_plan(chi_str):
        prod: object = None
        for kind, order in pblocks:
            value = coeff(kind, tuple(omega[p] for p in order))
            if not value:
                prod = 0
                break
            prod = value if prod is None else prod * value
        if prod:
            total = total + prod
    return total


def moment_via_sigma(omega: Word, chi: "ChiWord | str", table: CoefficientTable):
    """The family sum of :func:`moment_via_pchi`, over the family of chi
    read as sigma_chi . NC(n) (Thm 4.9) instead of built by simulation.

    One mixture coefficient per distinct block of NC(n), carried by
    sigma_chi (:func:`sigma_mixture_plan`), then the sum over NC(n) of the
    products of its blocks' coefficients, evaluated on the plan's ``unit``
    DAG; the plan of NC(n) is built once per length.
    """
    chi = _chi_word(chi)
    omega = _index_word(omega, chi.letters, table)
    mixtures, plan = sigma_mixture_plan(chi)
    coeff = table.coeff
    return dag_sum(plan.unit, [coeff(kind, tuple([omega[p] for p in order]))
                               for kind, order in mixtures])


def _index_word(omega: Word, chi_str: str, table: CoefficientTable) -> Word:
    """omega as a tuple; ValueError unless it has one int letter in 1..d
    per letter of chi."""
    omega = tuple(omega)
    if len(omega) != len(chi_str):
        raise ValueError("index word and chi word lengths differ")
    _check_operators(zip(omega, chi_str), table.d)
    return omega


def _check_operators(cword: Iterable[Tuple[int, str]], d: int) -> None:
    """ValueError unless every (index, side) pair has an int index in 1..d
    (no bool or float) and side "l" or "r".  A plain int is told by its
    type, with no call: every moment call checks its word."""
    for i, h in cword:
        if (type(i) is not int and not _is_int(i)) or not 0 < i <= d or h not in ("l", "r"):
            raise ValueError(f"operator {(i, h)!r} is not (index in 1..{d}, side 'l' or 'r')")


def _block_plan(template, blocks: Tuple[Tuple[Word, str], ...]):
    """(kind, absolute position order) per block ((absolute 0-based
    positions, restricted chi), ...), with the rule given by template."""
    plan = []
    for positions, sub in blocks:
        kind, order = template(sub)
        plan.append((kind, tuple(positions[j] for j in order)))
    return tuple(plan)


@lru_cache(maxsize=None)
def mixture_plan(chi_str: str):
    """Per partition of the family of chi: the mixture plan of its blocks,
    precomputed so a partition-family moment sum is a chain of table
    lookups."""
    return tuple(
        _block_plan(bimixture_template, blocks) for blocks in restriction_data(chi_str)
    )


def sigma_mixture_plan(chi: ChiWord) -> Tuple[tuple, NCPlan]:
    """Per block of :func:`~.cumulants.sigma_nc_plan`, its mixture as
    (kind, absolute 0-based position order); and the plan of NC(n)."""
    blocks, plan = sigma_nc_plan(chi)
    letters = chi.letters
    subs = [(positions, "".join([letters[q] for q in positions])) for positions in blocks]
    return _block_plan(bimixture_template, subs), plan


def reverse_mixture_plan_for_blocks(blocks_and_sub: Tuple[Tuple[Word, str], ...]):
    """Reverse-mixture lookup plan for a fixed block decomposition
    ((absolute 0-based positions, restricted chi), ...)."""
    return _block_plan(reverse_bimixture_template, blocks_and_sub)
