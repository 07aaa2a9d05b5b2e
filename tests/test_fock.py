"""Operator engine: generators, canonical operators, mixtures, vacuum moments."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcumulants import cumulants, fock, verify
from lrcumulants.cli import main
from lrcumulants.cumulants import CumulantEngine, dag_sum
from lrcumulants.deque import ChiWord, block_data, restriction_data, simulate
from lrcumulants.fock import (
    CoefficientTable,
    OperatorExpr,
    PolyScalar,
    VacuumMoments,
    adjoint,
    apply_generator,
    bimixture_symbol,
    bimixture_template,
    canonical_operator,
    inner_product,
    lemma67_vector,
    moment_via_pchi,
    moment_via_sigma,
    reverse_bimixture_symbol,
    reverse_bimixture_template,
    reverse_mixture_plan_for_blocks,
    s_op,
    vacuum_expectation,
    vacuum_vector,
    x_op,
)
from lrcumulants.fock import _factor, _reachable, _unfactor
from lrcumulants.lukasiewicz import LukPath, enumerate_luk
from lrcumulants.partitions import Partition, Permutation


def sym(kind, *word):
    return PolyScalar.symbol(kind, word)


# -- PolyScalar ----------------------------------------------------------------

SYMBOLS = [("a", (1,)), ("a", (2, 1)), ("b", (1,)), ("b", (1, 2))]


@st.composite
def polys(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(SYMBOLS), max_size=3),
                st.integers(min_value=-5, max_value=5),
            ),
            max_size=4,
        )
    )
    total = PolyScalar.zero()
    for mono, coeff in terms:
        part = PolyScalar.const(coeff)
        for kind, word in mono:
            part = part * PolyScalar.symbol(kind, word)
        total = total + part
    return total


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys())
def test_polyscalar_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + PolyScalar.zero() == x
    assert x * PolyScalar.const(1) == x
    assert x - x == PolyScalar.zero()
    assert x - x == 0


def test_polyscalar_number_interop():
    x = sym("a", 1)
    assert 1 + x - 1 == x
    assert 2 * x == x + x
    assert Fraction(1, 2) * (x + x) == x
    assert PolyScalar.const(0) == 0
    assert PolyScalar.const(Fraction(3, 4)) == Fraction(3, 4)
    assert x != 0


def test_polyscalar_hash_agrees_with_equality():
    assert len({PolyScalar.const(1), 1}) == 1
    assert len({PolyScalar.zero(), 0}) == 1
    assert hash(PolyScalar.const(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert hash(sym("a", 1) - sym("a", 1)) == hash(0)
    assert len({sym("a", 1), sym("a", 1) + 0, sym("b", 1)}) == 2


def test_polyscalar_keeps_integral_coefficients_as_int():
    (coeff,) = sym("a", 1, 2).terms.values()
    assert type(coeff) is int
    two = PolyScalar.const(Fraction(4, 2))
    assert type(two.terms[()]) is int
    assert two == 2 and hash(two) == hash(2)
    assert type((sym("a", 1) * sym("b", 2) + 3).sorted_terms()[0][1]) is int


def test_polyscalar_rendering_and_json():
    value = sym("b", 3) * sym("a", 1, 2) + PolyScalar.const(Fraction(-3, 4))
    assert str(value) == "-3/4 + a[1,2]*b[3]"
    assert value.to_json() == [
        {"coeff": "-3/4", "monomial": []},
        {"coeff": "1", "monomial": ["a[1,2]", "b[3]"]},
    ]


def test_monomials_sorted_by_kind_length_word():
    m = sym("b", 1) * sym("a", 2) * sym("a", 1, 1)
    (mono,) = m.terms
    assert mono == (_factor("a", (2,)), _factor("a", (1, 1)), _factor("b", (1,)))
    assert [_unfactor(f) for f in mono] == [("a", (2,)), ("a", (1, 1)), ("b", (1,))]


def no_length_factor(kind, word):
    return kind + "".join(map(chr, word))


def no_length_unfactor(factor):
    return factor[0], tuple(map(ord, factor[1:]))


def decimal_factor(kind, word):
    return kind + chr(len(word)) + ",".join(map(str, word))


def decimal_unfactor(factor):
    return factor[0], tuple(map(int, factor[2:].split(",")))


@pytest.mark.parametrize(
    "encode, decode, sound",
    [
        (_factor, _unfactor, True),
        (no_length_factor, no_length_unfactor, False),
        (decimal_factor, decimal_unfactor, False),
    ],
)
def test_factor_order_is_kind_length_word(encode, decode, sound):
    # letters in 1..300 cross 9/10 (a decimal spelling's order breaks) and
    # 255/256 (a one-byte spelling's would); the two mutants must fail
    symbols = st.tuples(
        st.sampled_from("ab"), st.lists(st.integers(1, 300), min_size=1, max_size=4).map(tuple)
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(symbols, min_size=2, max_size=8))
    def check(drawn):
        for kind, word in drawn:
            assert decode(encode(kind, word)) == (kind, word)
        by_symbol = sorted(drawn, key=lambda s: (s[0], len(s[1]), s[1]))
        assert sorted(encode(*s) for s in drawn) == [encode(*s) for s in by_symbol]

    if sound:
        check()
    else:
        with pytest.raises(AssertionError):
            check()


def test_polyscalar_constructor_takes_only_well_formed_terms():
    ab = (_factor("a", (1,)), _factor("b", (2,)))
    assert PolyScalar({ab: 3}) == 3 * sym("a", 1) * sym("b", 2)
    assert PolyScalar({ab: Fraction(1, 2), (): 1}) == Fraction(1, 2) * sym("a", 1) * sym("b", 2) + 1
    # zero coefficients are dropped: the zero polynomial is falsy and equals 0
    zero = PolyScalar({(): 0, ab: Fraction(0)})
    assert zero.terms == {} and not zero and zero == 0 and hash(zero) == hash(0)
    bad_monomials = [
        ab[::-1],  # unsorted
        ab[0],  # a bare factor, not a tuple
        frozenset(ab),  # not a tuple
        (("a", 1, (1,)),),  # a factor in another form
        ("a\x02\x01",),  # length character disagrees with the word
        ("a\x01",),  # no letter
        ("c\x01\x01",),  # unknown kind
        ("a\x01\x00",),  # letter 0
    ]
    for mono in bad_monomials:
        with pytest.raises(ValueError, match="monomial"):
            PolyScalar({mono: 1})
    for coeff in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="coefficient"):
            PolyScalar({ab: coeff})


def test_polyscalar_symbol_takes_only_letters_in_range():
    assert str(sym("a", 10, 9)) == "a[10,9]"
    assert str(sym("b", 300, fock.MAX_LETTER)) == f"b[300,{fock.MAX_LETTER}]"
    bad = [("a", (0,)), ("a", (-3, "x")), ("a", (True,)), ("b", (1.0,)),
           ("a", (fock.MAX_LETTER + 1,)), ("a", ()), ("c", (1,))]
    for kind, word in bad:
        with pytest.raises(ValueError, match=re.escape(repr((kind, word)))):
            PolyScalar.symbol(kind, word)


# A reference polynomial: {monomial: coefficient}, a monomial being a tuple of
# (kind, word) symbols sorted by (kind, word length, word), with no zero
# coefficient stored.

REF_SYMBOLS = [("a", (2,)), ("a", (1, 1)), ("a", (2, 1)), ("a", (1, 1, 2)),
               ("b", (1,)), ("b", (2,)), ("b", (2, 1))]


def _ref_order(sym):
    kind, word = sym
    return kind, len(word), word


def ref_add(x, y):
    out = dict(x)
    for mono, c in y.items():
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def ref_scale(x, k):
    return {mono: c * k for mono, c in x.items() if c * k}


def ref_mul(x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            mono = tuple(sorted(m1 + m2, key=_ref_order))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def stored(ref):
    """The reference's terms in PolyScalar's stored monomial form."""
    return {tuple(_factor(kind, word) for kind, word in mono): c for mono, c in ref.items()}


ref_scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def refs(draw):
    terms = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(REF_SYMBOLS), max_size=3), ref_scalars),
        max_size=4,
    ))
    out = {}
    for symbols, c in terms:
        out = ref_add(out, {tuple(sorted(symbols, key=_ref_order)): c})
    return out


@settings(max_examples=150, deadline=None)
@given(refs(), refs(), ref_scalars)
def test_polyscalar_matches_the_reference(x, y, k):
    px, py = PolyScalar(stored(x)), PolyScalar(stored(y))
    before = dict(px.terms), dict(py.terms)
    cases = {
        "x + y": (px + py, ref_add(x, y)),
        "x - y": (px - py, ref_add(x, ref_scale(y, -1))),
        "x * y": (px * py, ref_mul(x, y)),
        "-x": (-px, ref_scale(x, -1)),
        "k * x": (k * px, ref_scale(x, k)),
        "x * k": (px * k, ref_scale(x, k)),
        "x + k": (px + k, ref_add(x, {(): k})),
        "k - x": (k - px, ref_add({(): k}, ref_scale(x, -1))),
    }
    for name, (value, ref) in cases.items():
        assert type(value) is PolyScalar, name
        assert value.terms == stored(ref), name
        for mono in value.terms:
            assert list(mono) == sorted(mono, key=lambda f: _ref_order(_unfactor(f))), name
        twin = PolyScalar(stored(ref))
        assert value == twin and hash(value) == hash(twin), name
        assert (value == py) == (stored(ref) == py.terms), name
        if set(ref) <= {()}:  # a constant equals, and hashes as, its number
            number = ref.get((), 0)
            assert value == number and hash(value) == hash(number), name
        else:
            assert value != k, name
    assert (dict(px.terms), dict(py.terms)) == before


# -- generators -----------------------------------------------------------------


def test_generator_actions():
    assert apply_generator(("L", 2), vacuum_vector()) == {(2,): 1}
    assert apply_generator(("R", 2), vacuum_vector()) == {(2,): 1}
    assert apply_generator(("L*", 1), {(1,): 1}) == {(): 1}
    assert apply_generator(("L*", 1), {(2,): 1}) == {}
    assert apply_generator(("L*", 1), vacuum_vector()) == {}
    assert apply_generator(("R", 4), {(5,): 1}) == {(5, 4): 1}
    assert apply_generator(("R*", 3), {(1, 2, 3): 1}) == {(1, 2): 1}
    with pytest.raises(ValueError):
        apply_generator(("Q", 1), vacuum_vector())


def test_cuntz_relations_on_spanning_words():
    d = 2
    words = [
        w for k in range(0, 7) for w in itertools.product(range(1, d + 1), repeat=k)
    ]
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for creator, annihilator in (("L", "L*"), ("R", "R*")):
                for w in words:
                    vec = {w: 1}
                    out = apply_generator(
                        (annihilator, i), apply_generator((creator, j), vec)
                    )
                    assert out == (vec if i == j else {})


def test_creator_products_have_zero_vacuum_moment():
    # products of creators followed by annihilators never return to the vacuum
    for m in range(3):
        for n in range(3):
            if m + n == 0:
                continue
            ops = [OperatorExpr.generator("L", 1)] * m + [
                OperatorExpr.generator("L*", 1)
            ] * n
            assert vacuum_expectation(ops) == 0


# -- operator expressions ---------------------------------------------------------


def test_x_op_shapes():
    table = CoefficientTable.symbolic(1, 3)
    assert x_op(0, "l", table).terms == ((1, ()),)
    (term,) = x_op(2, "l", table).terms
    assert term[0] == sym("a", 1, 1)
    assert term[1] == (("L", 1), ("L", 1))
    assert x_op(4, "l", table).terms == ()  # beyond the degree bound


def test_operators_refuse_a_side_other_than_l_or_r():
    table = CoefficientTable.symbolic(2, 3)
    for h in ("x", "L", "", None):
        for build in (
            lambda: x_op(1, h, table),
            lambda: x_op(0, h, table),
            lambda: s_op(1, h),
            lambda: canonical_operator(1, h, table),
        ):
            with pytest.raises(ValueError):
                build()
    assert x_op(1, "r", table).terms == ((sym("b", 1), (("R", 1),)), (sym("b", 2), (("R", 2),)))


def test_canonical_operator_first_moments():
    table = CoefficientTable.symbolic(2, 3)
    for i in (1, 2):
        assert vacuum_expectation([canonical_operator(i, "l", table)]) == sym("a", i)
        assert vacuum_expectation([canonical_operator(i, "r", table)]) == sym("b", i)
    assert vacuum_expectation([]) == 1


def test_canonical_operator_factors_as_annihilator_times_blocks():
    table = CoefficientTable.random(2, 3, seed=8)
    vectors = [{(): 1}, {(1,): 1, (2, 1): Fraction(1, 2)}, {(1, 2, 2): 1}]
    for i in (1, 2):
        for h in "lr":
            blocks = x_op(0, h, table)
            for p in range(1, table.n_o + 1):
                blocks = blocks + x_op(p, h, table)
            factored = adjoint(s_op(i, h)) * blocks
            direct = canonical_operator(i, h, table)
            for vec in vectors:
                assert factored.apply(vec) == direct.apply(vec)


def test_canonical_operator_with_zero_symbols_annihilates():
    table = CoefficientTable(2, 3, "concrete", {}, {})
    for chi in itertools.product("lr", repeat=3):
        ops = [canonical_operator(1, h, table) for h in chi]
        assert vacuum_expectation(ops) == 0


def test_adjoint_basics():
    L = OperatorExpr.generator("L", 1)
    assert adjoint(L).terms == ((1, (("L*", 1),)),)
    table = CoefficientTable.symbolic(2, 2)
    op = canonical_operator(1, "l", table)
    assert adjoint(adjoint(op)).terms == op.terms


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_adjoint_is_the_inner_product_adjoint(data):
    rng_words = st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=2), max_size=3),
            st.integers(min_value=-3, max_value=3),
        ),
        max_size=3,
    )
    table = CoefficientTable.random(2, 2, seed=data.draw(st.integers(0, 5)))
    op = canonical_operator(data.draw(st.integers(1, 2)), data.draw(st.sampled_from("lr")), table)
    x = {tuple(w): Fraction(c) for w, c in data.draw(rng_words) if c}
    y = {tuple(w): Fraction(c) for w, c in data.draw(rng_words) if c}
    assert inner_product(op.apply(x), y) == inner_product(x, adjoint(op).apply(y))


# -- mixtures ---------------------------------------------------------------------


def test_reverse_bimixture_worked_examples():
    assert reverse_bimixture_symbol((1, 2, 4), "rlr") == ("b", (2, 4, 1))
    assert reverse_bimixture_symbol((3, 5), "ll") == ("a", (5, 3))
    assert reverse_bimixture_symbol((7,), "l") == ("a", (7,))
    table = CoefficientTable.symbolic(9, 4)
    assert table.coeff(*reverse_bimixture_symbol((1, 2, 4), "rlr")) == sym("b", 2, 4, 1)


def test_bimixture_worked_examples():
    assert bimixture_symbol((1, 2, 3, 4), "lrlr") == ("b", (3, 1, 2, 4))
    assert bimixture_symbol((5,), "r") == ("b", (5,))
    table = CoefficientTable.symbolic(5, 4)
    assert table.coeff(*bimixture_symbol((1, 2, 3, 4), "lrlr")) == sym("b", 3, 1, 2, 4)
    with pytest.raises(ValueError):
        table.coeff(*bimixture_symbol((1, 2), "lrl"))
    with pytest.raises(ValueError):
        bimixture_template("lxr")


def test_bimixture_is_reversed_reverse_bimixture():
    for n in range(1, 6):
        for chi in itertools.product("lr", repeat=n):
            chi_str = "".join(chi)
            for omega in itertools.product((1, 2), repeat=n):
                assert bimixture_symbol(omega, chi_str) == reverse_bimixture_symbol(
                    omega[::-1], chi_str[::-1]
                )


def test_reverse_bimixture_follows_the_first_letter_rule():
    # the rule spelled out position by position, independent of the reversal
    for n in range(1, 7):
        for letters in itertools.product("lr", repeat=n):
            chi = ChiWord("".join(letters))
            ell = [m - 1 for m in chi.m_ell]
            r = [m - 1 for m in chi.m_r]
            if chi.letters[0] == "l":
                expected = ("a", tuple(r + ell[::-1]))
            else:
                expected = ("b", tuple(ell + r[::-1]))
            assert reverse_bimixture_template(chi.letters) == expected


def test_reverse_plan_of_the_worked_partition():
    blocks = block_data(Partition(5, [[1, 2, 4], [3, 5]]), "rllrl")
    assert blocks == (((0, 1, 3), "rlr"), ((2, 4), "ll"))
    assert reverse_mixture_plan_for_blocks(blocks) == (("b", (1, 3, 0)), ("a", (4, 2)))


# -- single-track products ---------------------------------------------------------


def test_lemma67_worked_example():
    table = CoefficientTable.symbolic(5, 5)
    vec = lemma67_vector(
        LukPath([2, -1, 1, -1, -1]), ChiWord("rllrl"), (1, 2, 3, 4, 5), table
    )
    assert vec == {(): sym("a", 5, 3) * sym("b", 2, 4, 1)}


def test_lemma67_flat_path_multiplies_singletons():
    table = CoefficientTable.symbolic(2, 4)
    vec = lemma67_vector(LukPath([0, 0, 0]), ChiWord("lrl"), (1, 2, 2), table)
    assert vec == {(): sym("a", 1) * sym("b", 2) * sym("a", 2)}


def test_lemma67_single_batch_all_left():
    table = CoefficientTable.symbolic(2, 4)
    vec = lemma67_vector(LukPath([3, -1, -1, -1]), ChiWord("llll"), (1, 2, 1, 2), table)
    # one batch: the whole word is stripped at the first block, reversed
    assert vec == {(): sym("a", 2, 1, 2, 1)}


def test_lemma67_rejects_indices_outside_the_table():
    path, chi = LukPath([0]), ChiWord("l")
    for table in (CoefficientTable.symbolic(2, 2), CoefficientTable.random(2, 2, seed=0)):
        for omega in ((7,), (0,), (1.5,), (1.0,), (True,), (1, 1)):
            with pytest.raises(ValueError):
                lemma67_vector(path, chi, omega, table)
        assert lemma67_vector(path, chi, (2,), table) == {(): table.coeff("a", (2,))}
    with pytest.raises(ValueError):
        lemma67_vector(LukPath([1, -1]), chi, (1,), table)


def test_lemma67_takes_a_chi_word_or_its_letters():
    table = CoefficientTable.symbolic(2, 4)
    path = LukPath([1, -1])
    for letters in ("lr", "rl", "ll"):
        assert lemma67_vector(path, letters, (1, 2), table) == lemma67_vector(
            path, ChiWord(letters), (1, 2), table
        )
    for chi in ("", "lx"):
        with pytest.raises(ValueError):
            lemma67_vector(path, chi, (1, 2), table)


def test_lemma67_factors_over_output_partition():
    table = CoefficientTable.symbolic(2, 4)
    for n in range(1, 5):
        for chi_letters in itertools.product("lr", repeat=n):
            chi = ChiWord("".join(chi_letters))
            for path in enumerate_luk(n):
                partition = simulate(path, chi).output_partition
                for omega in itertools.product((1, 2), repeat=n):
                    expected = PolyScalar.const(1)
                    for block in partition.blocks:
                        sub_omega = tuple(omega[m - 1] for m in block)
                        sub_chi = "".join(chi.letters[m - 1] for m in block)
                        expected = expected * table.coeff(
                            *reverse_bimixture_symbol(sub_omega, sub_chi)
                        )
                    assert lemma67_vector(path, chi, omega, table) == {(): expected}


def operator_product_mismatches(table, max_n=4):
    """(compared, differing): ``lemma67_vector`` against the operators it
    stands for, X*_{p_1;h_1} S_{i_1;h_1} ... X*_{p_n;h_n} S_{i_n;h_n}
    with X*_{p;h} = adjoint(x_op(p, h)) and S_{i;h} = s_op(i, h),
    multiplied out and applied to the vacuum, for every (chi, path,
    omega) with n <= max_n.  Both are looked up in ``fock`` at call time,
    so a patched one takes effect."""
    compared = differing = 0
    for n in range(1, max_n + 1):
        for chi in verify.all_chi(n):
            for path in enumerate_luk(n):
                blocks = [adjoint(fock.x_op(q + 1, h, table)) for q, h in zip(path.rise, chi.letters)]
                for omega in itertools.product(range(1, table.d + 1), repeat=n):
                    product = math.prod(
                        (factor for x, i, h in zip(blocks, omega, chi.letters) for factor in (x, s_op(i, h))),
                        start=OperatorExpr.identity(),
                    )
                    compared += 1
                    differing += fock.lemma67_vector(path, chi, omega, table) != product.apply(vacuum_vector())
    return compared, differing


@pytest.mark.parametrize(
    "table", [CoefficientTable.random(2, 5, 0), CoefficientTable.symbolic(2, 4)], ids=lambda t: t.mode
)
def test_lemma67_vector_equals_its_operator_product(table):
    # 2**n words times Catalan(n) paths times 2**n index words, n <= 4;
    # the repeated-index words have one strip's annihilators read letters
    # another strip's creators wrote
    assert operator_product_mismatches(table) == (3940, 0)


def vector_dropped_on_equal_ends(vector):
    return lambda path, chi, omega, table: {} if omega[0] == omega[-1] else vector(path, chi, omega, table)


def long_blocks_created_in_reverse(x):
    """x_op creating a block's letters in reverse order when p >= 2."""
    def perturbed(p, h, table):
        block = x(p, h, table)
        return OperatorExpr((c, gens[::-1]) for c, gens in block.terms) if p >= 2 else block

    return perturbed


@pytest.mark.parametrize(
    "attr, defect, differing",
    [("lemma67_vector", vector_dropped_on_equal_ends, 1972), ("x_op", long_blocks_created_in_reverse, 1824)],
)
def test_lemma67_operator_check_fails_under_an_injected_defect(monkeypatch, attr, defect, differing):
    monkeypatch.setattr(fock, attr, defect(getattr(fock, attr)))
    assert operator_product_mismatches(CoefficientTable.random(2, 5, 0)) == (3940, differing)


# -- vacuum moments of canonical words ----------------------------------------------


def test_sequential_moments_match_explicit_operator_route():
    for table in (CoefficientTable.symbolic(2, 3), CoefficientTable.random(3, 3, seed=8)):
        vm = VacuumMoments(table)
        for n in range(1, 4):
            for chi in itertools.product("lr", repeat=n):
                for omega in itertools.product(range(1, table.d + 1), repeat=n):
                    cword = tuple(zip(omega, chi))
                    ops = [canonical_operator(i, h, table) for i, h in cword]
                    assert vm(cword) == vacuum_expectation(ops), (table.mode, cword)
        # the columns, swept over both sides at once, against the same oracle
        columns = VacuumMoments(table)
        for n in range(1, 4):
            for chi in map("".join, itertools.product("lr", repeat=n)):
                for omega, value in zip(columns.omegas(n), columns.column(chi)):
                    ops = [canonical_operator(i, h, table) for i, h in zip(omega, chi)]
                    assert value == vacuum_expectation(ops), (table.mode, chi, omega)


def test_sequential_moments_match_partition_sums():
    for table in (
        CoefficientTable.symbolic(2, 4),
        CoefficientTable.random(2, 4, seed=3),
    ):
        vm = VacuumMoments(table)
        for n in range(1, 5):
            for chi in itertools.product("lr", repeat=n):
                chi_str = "".join(chi)
                for omega in itertools.product((1, 2), repeat=n):
                    assert vm(tuple(zip(omega, chi))) == moment_via_pchi(
                        omega, chi_str, table
                    )


# -- plans evaluated over every index word ----------------------------------------


GRID_TABLES = [CoefficientTable.symbolic(2, 4)] + [
    CoefficientTable.random(d, 4, seed) for d, seed in ((1, 5), (2, 6), (3, 7))
]


def plan_values(vm, plan, n):
    """The product of the plan's mixture columns at every omega of length n."""
    return reduce(mul, [vm.mixture(kind, order, n) for kind, order in plan])


@pytest.mark.parametrize("table", GRID_TABLES, ids=lambda t: f"{t.mode}-d{t.d}")
def test_grid_matches_the_single_word_routes(table):
    vm = VacuumMoments(table)  # one engine for every length, as in the sweeps
    engine = CumulantEngine(vm)
    for n in range(1, 5):
        omegas = vm.omegas(n)
        assert omegas == list(itertools.product(range(1, table.d + 1), repeat=n))
        for chi in map("".join, itertools.product("lr", repeat=n)):
            assert vm.column(chi) == [vm(tuple(zip(omega, chi))) for omega in omegas]
            sums = vm.family_sums(chi)
            assert sums == [moment_via_pchi(omega, chi, table) for omega in omegas]
            assert vm.cumulants(chi) == [
                engine.cumulant(chi, tuple(zip(omega, chi))) for omega in omegas
            ]
            for path in enumerate_luk(n):
                plan = verify._strip_plan(path, ChiWord(chi))
                assert plan is not None
                assert plan_values(vm, plan, n) == [
                    lemma67_vector(path, ChiWord(chi), omega, table).get((), 0)
                    for omega in omegas
                ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_stand_in_run_covers_every_omega_beyond_length_four(data):
    n = data.draw(st.integers(5, 7), label="n")
    chi = ChiWord(data.draw(st.text("lr", min_size=n, max_size=n), label="chi"))
    path = data.draw(st.sampled_from(enumerate_luk(n)), label="path")
    if data.draw(st.booleans(), label="symbolic"):
        d = data.draw(st.integers(1, 2), label="d")
        table = CoefficientTable.symbolic(d, n)
    else:
        d = data.draw(st.integers(1, 3), label="d")
        table = CoefficientTable.random(d, n, data.draw(st.integers(0, 10**6), label="seed"))
    omega = data.draw(st.tuples(*[st.integers(1, d)] * n), label="omega")
    vm = VacuumMoments(table)
    plan = verify._strip_plan(path, chi)
    assert plan is not None
    at = vm.omegas(n).index(omega)
    assert lemma67_vector(path, chi, omega, table).get((), 0) == plan_values(vm, plan, n)[at]


@settings(max_examples=20, deadline=None)
@given(st.text("lr", min_size=7, max_size=7), st.integers(0, 10**6))
def test_family_sums_match_the_engine_at_length_seven(chi, seed):
    vm = VacuumMoments(CoefficientTable.random(2, 7, seed))
    single = [vm(tuple(zip(omega, chi))) for omega in vm.omegas(7)]
    assert vm.family_sums(chi) == single
    assert vm.column(chi) == single


@settings(max_examples=20, deadline=None)
@given(st.text("lr", min_size=7, max_size=7), st.integers(0, 10**6))
def test_cumulant_columns_match_the_engine_at_length_seven(chi, seed):
    vm = VacuumMoments(CoefficientTable.random(2, 7, seed))
    engine = CumulantEngine(vm)
    assert vm.cumulants(chi) == [
        engine.cumulant(chi, tuple(zip(omega, chi)))
        for omega in itertools.product((1, 2), repeat=7)
    ]


@pytest.mark.parametrize("n", [5, 6])
def test_grid_sums_match_the_per_partition_references(n):
    table = CoefficientTable.random(2, 6, seed=8)
    vm = VacuumMoments(table)
    engine = CumulantEngine(vm)
    omegas = vm.omegas(n)
    for chi in map("".join, itertools.product("lr", repeat=n)):
        assert vm.family_sums(chi) == [moment_via_pchi(omega, chi, table) for omega in omegas]
        assert vm.cumulants(chi) == [
            engine.cumulant(chi, tuple(zip(omega, chi))) for omega in omegas
        ]


def test_dag_sum_takes_the_mobius_sum_of_moment_columns():
    # the Moebius route of the CLI, evaluated on columns: every sub-word's
    # moment column gathered at its block, summed on the plan's mobius DAG
    vm = VacuumMoments(CoefficientTable.random(2, 5, seed=9))
    for n in range(1, 6):
        for chi in map("".join, itertools.product("lr", repeat=n)):
            blocks, plan = cumulants.sigma_nc_plan(ChiWord(chi))
            columns = [
                vm._gathered(vm.column("".join([chi[q] for q in block])), block, n)
                for block in blocks
            ]
            assert dag_sum(plan.mobius, columns) == vm.cumulants(chi)


def test_cumulant_columns_reject_a_chi_that_is_not_a_word_over_l_and_r():
    vm = VacuumMoments(CoefficientTable.random(2, 3, seed=0))
    for chi in ("", "x", "lx", "rlL"):
        with pytest.raises(ValueError):
            vm.cumulants(chi)


def test_moment_columns_take_a_chi_word_or_its_letters(monkeypatch):
    vm = VacuumMoments(CoefficientTable.random(2, 3, seed=0))
    methods = (vm.column, vm.family_sums, vm.cumulants)
    for method in methods:
        for chi in ("l", "lr", "rrl"):
            assert method(ChiWord(chi)) == method(chi) == method(list(chi)) == method(tuple(chi))
        for bad in ("lx", "", ["l", 5], ["lr"], b"lr", 5, None):
            with pytest.raises(ValueError):
                method(bad)
    # a chi word is a str or an iterable of one-letter strs, and nothing else
    for bad in (5, None, ["l", 5], b"lr", ["lr", "l"], "lx", []):
        with pytest.raises(ValueError):
            ChiWord(bad)
    assert ChiWord(["l", "r"]) == ChiWord(iter("lr")) == ChiWord("lr")
    # the memos are keyed by letters: a chi word finds its letters' column,
    # and letters that were asked for before build no chi word
    assert vm.column(ChiWord("lr")) is vm.column("lr")
    assert vm.cumulants(ChiWord("lr")) is vm.cumulants("lr")
    built = []
    chi_word = fock._chi_word
    monkeypatch.setattr(fock, "_chi_word", lambda chi: built.append(chi) or chi_word(chi))
    vm.column("rrl")
    vm.cumulants("rrl")
    assert built == []


def fill_gathered_memos(vm, max_n):
    """Ask vm for every single-block mixture column, every family sum and
    every chi-cumulant of length <= max_n."""
    for n in range(1, max_n + 1):
        for chi in verify.all_chi(n):
            vm.family_sums(chi)
            vm.mixture(*bimixture_template(chi.letters), n)
            vm.mixture(*reverse_bimixture_template(chi.letters), n)
            vm.cumulants(chi)


@pytest.mark.parametrize(
    "table", [CoefficientTable.random(3, 4, 1), CoefficientTable.symbolic(2, 4)], ids=["random", "symbolic"]
)
def test_every_kept_gathered_column_is_the_column_its_key_names(table):
    vm = VacuumMoments(table)
    fill_gathered_memos(vm, 4)
    # the engine keeps sub-cumulant gathers, and no mixture column
    assert vm._sub_cumulants and not hasattr(vm, "_mixtures")

    def mixture(kind, order, n):
        return [table.coeff(kind, tuple(omega[p] for p in order)) for omega in vm.omegas(n)]

    # what the mixture route hands out, once every gather index is kept:
    # the column its block names, gathered afresh on every call
    for n in range(1, 5):
        for chi in verify.all_chi(n):
            for kind, order in (bimixture_template(chi.letters), reverse_bimixture_template(chi.letters)):
                column = vm.mixture(kind, order, n)
                assert column == mixture(kind, order, n)
                assert vm.mixture(kind, order, n) is not column
    fresh = VacuumMoments(table)
    for (sub, positions, k), column in vm._sub_cumulants.items():
        at = dict(zip(fresh.omegas(len(sub)), fresh.cumulants(sub)))
        assert column == [at[tuple(omega[p] for p in positions)] for omega in fresh.omegas(k)]


def test_the_mixture_and_operator_routes_keep_their_gathers_apart(monkeypatch):
    swept = []
    sweep = VacuumMoments._sweep
    monkeypatch.setattr(VacuumMoments, "_sweep", lambda vm, *args: swept.append(args) or sweep(vm, *args))
    gathered = []
    mixture = VacuumMoments.mixture
    monkeypatch.setattr(VacuumMoments, "mixture", lambda vm, *args: gathered.append(args) or mixture(vm, *args))
    table = CoefficientTable.random(2, 4, 0)
    mixtures = VacuumMoments(table)
    for n in range(1, 5):
        for chi in verify.all_chi(n):
            mixtures.family_sums(chi)
            mixtures.mixture(*bimixture_template(chi.letters), n)
    assert gathered and mixtures._coefficients and not mixtures._sub_cumulants and swept == []
    gathered.clear()
    operators = VacuumMoments(table)
    for chi in verify.all_chi(4):
        operators.cumulants(chi)
    assert operators._sub_cumulants and swept and gathered == [] and not operators._coefficients


def test_each_shared_table_grid_keeps_its_own_cumulant_columns():
    engines = [verify.shared("random", 2, 2, seed) for seed in (0, 1)]
    first, second = (vm.cumulants("lr") for vm in engines)
    assert first != second
    for vm, column in zip(engines, (first, second)):
        engine = CumulantEngine(vm)
        assert column == [
            engine.cumulant("lr", tuple(zip(omega, "lr"))) for omega in vm.omegas(2)
        ]


def test_moments_reject_operators_outside_the_table():
    vm = VacuumMoments(CoefficientTable.symbolic(2, 2))
    with pytest.raises(ValueError):
        vm(((5, "l"), (5, "l")))
    with pytest.raises(ValueError):
        vm(((1, "x"),))
    # a letter that is no int, on a table whose moments of them read 0; a
    # word equal to a memoized one, as (True, "l") == (1, "l"), is refused too
    random_vm = VacuumMoments(CoefficientTable.random(2, 3, 0))
    assert random_vm(((1, "l"),)) == 9
    vm(((1, "l"),))
    for cword in (((1.5, "l"), (1.5, "l")), ((True, "l"),), ((1.0, "l"),), ((1, "l"), (2.0, "r"))):
        for moments in (vm, random_vm):
            with pytest.raises(ValueError):
                moments(cword)
            with pytest.raises(ValueError):
                moments.sweep_subwords(cword)
    assert list(random_vm._memo) == [((1, "l"),)]
    for chi in ("", "lx"):
        with pytest.raises(ValueError):
            vm.column(chi)
    assert vm(((1, "l"),)) == sym("a", 1)


def test_family_sum_rejects_indices_outside_the_table():
    table = CoefficientTable.symbolic(2, 2)
    with pytest.raises(ValueError):
        moment_via_pchi((5,), "l", table)
    with pytest.raises(ValueError):
        moment_via_pchi((1, 0), "lr", table)
    assert moment_via_pchi((2,), "l", table) == sym("a", 2)
    for route in (moment_via_pchi, moment_via_sigma):
        with pytest.raises(ValueError):
            route((5,), "l", table)
        with pytest.raises(ValueError):
            route((1, 0), "lr", table)
        with pytest.raises(ValueError):
            route((1, 2), "l", table)
        for omega in ((1.5, 1.5), (True, 2), (1, 2.0)):
            with pytest.raises(ValueError):
                route(omega, "ll", table)
            with pytest.raises(ValueError):
                route(omega, "ll", CoefficientTable.random(2, 3, 0))
        assert route((2,), "l", table) == sym("a", 2)


def test_every_entry_point_checks_index_letters_by_one_rule(monkeypatch):
    # a plain int letter is told by its type, with no call; any other
    # letter goes through the one check, and a bool is refused
    seen = []
    is_int = fock._is_int
    monkeypatch.setattr(fock, "_is_int", lambda x: seen.append(x) or is_int(x))
    table = CoefficientTable.random(2, 3, 0)
    path = enumerate_luk(3)[0]
    routes = [
        lambda omega: VacuumMoments(table)(tuple(zip(omega, "lrl"))),
        lambda omega: VacuumMoments(table).sweep_subwords(tuple(zip(omega, "lrl"))),
        lambda omega: moment_via_pchi(omega, "lrl", table),
        lambda omega: moment_via_sigma(omega, "lrl", table),
        lambda omega: lemma67_vector(path, "lrl", omega, table),
    ]
    for route in routes:
        route((1, 2, 1))
    assert seen == []
    for route in routes:
        with pytest.raises(ValueError):
            route((1, True, 1))
    assert seen == [True] * len(routes)


# -- sub-word moments from one sweep; family sums over sigma_chi . NC(n) -----------


def bi_words(max_n, d=2):
    """Every (chi, omega) with 1 <= len(chi) <= max_n and omega in [d]^len(chi)."""
    return [
        ("".join(chi), omega)
        for n in range(1, max_n + 1)
        for chi in itertools.product("lr", repeat=n)
        for omega in itertools.product(range(1, d + 1), repeat=n)
    ]


def subword_mismatches(table, cases, defect=None):
    """The bi-words among cases whose one-sweep memo is not exactly the
    moment of each of their non-empty sub-words, each swept on its own;
    ``defect`` wraps the sweeping engine's ``_apply`` only."""
    reference = VacuumMoments(table)
    vm = VacuumMoments(table)
    if defect is not None:
        vm._apply = defect(vm._apply)
    bad = []
    for chi, omega in cases:
        cword = tuple(zip(omega, chi))
        vm._memo.clear()
        vm.sweep_subwords(cword)
        subs = {
            sub for k in range(1, len(cword) + 1) for sub in itertools.combinations(cword, k)
        }
        if vm._memo != {sub: reference(sub) for sub in subs}:
            bad.append(cword)
    return bad


def sigma_sum_mismatches(table, cases):
    """The (chi, omega) among cases where the family sum over
    sigma_chi . NC(n) differs from the sum over the simulated family."""
    return [
        (chi, omega) for chi, omega in cases
        if moment_via_sigma(omega, chi, table) != moment_via_pchi(omega, chi, table)
    ]


ROUTE_TABLES = [CoefficientTable.random(2, 6, 4), CoefficientTable.symbolic(2, 6)]


@pytest.mark.parametrize("table", ROUTE_TABLES, ids=lambda t: t.mode)
def test_one_sweep_gives_the_moment_of_every_sub_word(table):
    assert subword_mismatches(table, bi_words(6)) == []


@pytest.mark.parametrize("table", ROUTE_TABLES, ids=lambda t: t.mode)
def test_sigma_family_sum_equals_the_simulated_family_sum(table):
    assert sigma_sum_mismatches(table, bi_words(6)) == []


def test_an_operator_keeps_only_the_words_in_its_reach():
    table = CoefficientTable.symbolic(2, 3)
    vm = VacuumMoments(table)
    vec = {z: 1 for n in range(6) for z in itertools.product((1, 2), repeat=n)}
    full = {(i, h): canonical_operator(i, h, table).apply(vec) for i in (1, 2) for h in "lr"}
    for chi in map("".join, itertools.product("lr", repeat=5)):
        for omega in ((1, 2, 2, 1, 2), (2, 2, 1, 1, 1)):
            reach = _reachable(chi, [(i,) for i in omega])
            for m in range(4):
                op = omega[m], chi[m]
                out = vm._apply(vec, *op, reach[m])
                # every word of reach[m] is at most 3 letters long, so vec
                # holds every word the operator sends to it
                assert out == {z: full[op][z] for z in reach[m]}
                # and only words in reach[m + 1] are sent into reach[m]
                kept = {z: c for z, c in vec.items() if z in reach[m + 1]}
                assert out == vm._apply(kept, *op, reach[m])


def operator_prefixes(d, n):
    """(chi, omega, adjoint of the product of their canonical operators
    applied to the vacuum) for every word of at most n operators over
    [d], grown one operator at a time."""
    table = CoefficientTable.symbolic(d, 3)
    adjoints = {
        (i, h): adjoint(canonical_operator(i, h, table)) for i in range(1, d + 1) for h in "lr"
    }
    level = [("", (), vacuum_vector())]
    for _ in range(n + 1):
        yield from level
        level = [
            (chi + h, omega + (i,), adjoints[i, h].apply(vec))
            for chi, omega, vec in level for (i, h) in adjoints
        ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_word_outside_reach_has_a_zero_moment_under_the_operators_left(d):
    # <vacuum, T_0 ... T_(m-1) z> is the coefficient of z in the adjoint
    # product applied to the vacuum, so its support is every word z that the
    # operators at positions < m send to a non-zero vacuum coefficient; a
    # symbolic table cancels no term, so the support is all of reach[m]
    for chi, omega, vec in operator_prefixes(d, 4):
        # reach[m] depends on the positions < m only: any operator may follow
        reach = _reachable(chi + "l", [(i,) for i in omega] + [(1,)])
        assert set(vec) == reach[len(chi)], (chi, omega)


@st.composite
def tables_and_words(draw):
    d = draw(st.integers(1, 3))
    n_o = draw(st.integers(1, 3))
    seed = draw(st.one_of(st.none(), st.integers(0, 10**6)))
    table = CoefficientTable.symbolic(d, n_o) if seed is None else CoefficientTable.random(d, n_o, seed)
    n = draw(st.integers(1, 5))
    ops = st.tuples(st.integers(1, d), st.sampled_from("lr"))
    return table, tuple(draw(st.lists(ops, min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(tables_and_words())
def test_moments_equal_the_operator_products_on_drawn_tables(case):
    table, cword = case
    value = vacuum_expectation([canonical_operator(i, h, table) for i, h in cword])
    assert VacuumMoments(table)(cword) == value
    swept = VacuumMoments(table)
    swept.sweep_subwords(cword)
    assert swept._memo[cword] == value


def test_sub_word_sweep_rejects_what_a_moment_rejects():
    vm = VacuumMoments(CoefficientTable.symbolic(2, 2))
    for cword in (((5, "l"),), ((1, "x"),), ((1.5, "l"),), ((True, "r"),), ((1, "l"),) * 12):
        with pytest.raises(ValueError):
            vm.sweep_subwords(cword)
    assert vm._memo == {}


def sweep_applications(table, cword):
    """(operator applications, distinct non-empty sub-words) of one
    sub-word sweep of cword, after checking that its memo is exactly the
    moment of every sub-word."""
    vm = VacuumMoments(table)
    apply = vm._apply
    calls = itertools.count()

    def counted(*args):
        next(calls)
        return apply(*args)

    vm._apply = counted
    vm.sweep_subwords(cword)
    reference = VacuumMoments(table)
    subs = {sub for k in range(1, len(cword) + 1) for sub in itertools.combinations(cword, k)}
    assert vm._memo == {sub: reference(sub) for sub in subs}
    return next(calls), len(subs)


def test_each_distinct_sub_word_costs_one_application():
    table = CoefficientTable.random(2, 8, 0)
    for chi, omega in bi_words(4):
        applications, distinct = sweep_applications(table, tuple(zip(omega, chi)))
        assert applications == distinct, (chi, omega)
    for n in range(1, 9):
        # a constant word: the sub-words are the n powers
        for op in ((1, "l"), (2, "r")):
            assert sweep_applications(table, (op,) * n) == (n, n)
        # n distinct operators: all 2**n - 1 sub-words differ
        cword = tuple(zip(range(1, n + 1), itertools.cycle("lrr")))
        assert sweep_applications(CoefficientTable.random(n, 2, n), cword) == (2**n - 1,) * 2


@st.composite
def long_bi_words(draw):
    n = draw(st.integers(7, 9))
    chi = draw(st.text("lr", min_size=n, max_size=n))
    return chi, tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))


@settings(max_examples=10, deadline=None)
@given(long_bi_words(), st.integers(0, 10**6))
def test_moment_routes_agree_on_sampled_long_bi_words(case, seed):
    chi, omega = case
    table = CoefficientTable.random(2, 9, seed)
    cword = tuple(zip(omega, chi))
    value = VacuumMoments(table)(cword)
    swept = VacuumMoments(table)
    swept.sweep_subwords(cword)
    assert swept._memo[cword] == value
    assert moment_via_pchi(omega, chi, table) == value
    assert moment_via_sigma(omega, chi, table) == value
    if len(chi) == 7:
        assert swept.column(chi)[swept.omegas(7).index(omega)] == value


def identity_sigma(chi):
    return Permutation.identity(chi.n)


def lowered_bound(apply):
    """_apply keeping only the words of its reach shorter than its longest."""
    def lowered(*args):
        top = max(map(len, args[-1]))
        return apply(*args[:-1], {z for z in args[-1] if len(z) < top})
    return lowered


def second_application_skipped(apply):
    """_apply returning its input unchanged on its second call: one
    subset's operator is left out of that subset and of every subset built
    on it."""
    calls = itertools.count()
    return lambda *args: dict(args[-4]) if next(calls) == 1 else apply(*args)


def table_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(CoefficientTable.random(2, 4, 0).to_json()))
    return str(path)


def test_sigma_family_sum_fails_under_an_identity_sigma(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cumulants, "sigma_chi", identity_sigma)
    # for n <= 3 every family is NC(n), so sigma_chi matters from n = 4 on
    assert sigma_sum_mismatches(CoefficientTable.random(2, 4, 0), bi_words(4))
    for source in (["--symbolic"], ["--table", table_file(tmp_path)]):
        code = main(["moment", "--chi", "lrlr", "--omega", "1,2,1,2", *source])
        out = capsys.readouterr().out
        assert code == 1, source
        assert "FAIL operator route equals partition-family route" in out


@pytest.mark.parametrize("defect", [lowered_bound, second_application_skipped])
def test_sub_word_sweep_fails_under_an_injected_defect(defect, monkeypatch, tmp_path, capsys):
    for table in ROUTE_TABLES:
        assert subword_mismatches(table, bi_words(3), defect)
    apply = VacuumMoments._apply
    for source in (["--symbolic"], ["--table", table_file(tmp_path)]):
        # in a cumulant query the sub-word sweep makes every application;
        # four distinct operators, so no later subset rewrites a wrong value
        monkeypatch.setattr(VacuumMoments, "_apply", defect(apply))
        code = main(["cumulant", "--chi", "lrlr", "--omega", "1,2,2,1", *source])
        out = capsys.readouterr().out
        assert code == 1, source
        assert "FAIL mobius sum equals mixture coefficient" in out


def test_one_tail_trie_sweep_fills_every_column_of_a_length():
    vm = VacuumMoments(CoefficientTable.random(2, 4, 0))
    apply = vm._apply
    terms = []
    vm._apply = lambda vec, i, h, reach: terms.append(sum(len(z) + 1 for z in reach)) or apply(vec, i, h, reach)
    columns = [vm.column(chi) for chi in verify.all_chi(4)]
    # each (side, index) tail is applied once, on every word of length <= m
    # at position m: 4 + 16 + 64 + 256 applications visiting 4 * 49 + 16 *
    # 17 + 64 * 5 + 256 * 1 (word, split) terms, where a sweep per chi
    # makes 480 applications visiting 3,552 terms
    assert (len(terms), sum(terms)) == (340, 1044)
    # the reach of both sides at once is the reach of each single chi
    every_word = [{z for k in range(m + 1) for z in itertools.product((1, 2), repeat=k)} for m in range(4)]
    for sides in [("lr",) * 4] + [tuple(chi.letters) for chi in verify.all_chi(4)]:
        assert _reachable(sides, [(1, 2)] * 4) == every_word
    assert set(vm._columns) == {chi.letters for chi in verify.all_chi(4)}
    assert [vm.column(chi) for chi in verify.all_chi(4)] == columns and len(terms) == 340


def test_moment_columns_equal_the_single_word_values():
    for table in (CoefficientTable.random(2, 3, seed=1), CoefficientTable.symbolic(2, 3)):
        vm = VacuumMoments(table)
        fresh = VacuumMoments(table)
        for k in range(1, 4):
            for chi in map("".join, itertools.product("lr", repeat=k)):
                column = vm.column(chi)
                assert column == [fresh(tuple(zip(omega, chi))) for omega in vm.omegas(k)]
                assert vm.column(chi) is column  # the engine keeps it
        assert not vm._memo  # columns bypass the per-word memo


# -- coefficient tables ---------------------------------------------------------------


def test_table_json_round_trip(tmp_path):
    table = CoefficientTable.random(2, 3, seed=0)
    obj = table.to_json()
    back = CoefficientTable.from_json_obj(obj)
    assert back.alpha == table.alpha and back.beta == table.beta
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    again = CoefficientTable.from_file(str(path))
    assert again.alpha == table.alpha

    sym_obj = {"d": 2, "n_o": 4, "mode": "symbolic"}
    sym_table = CoefficientTable.from_json_obj(sym_obj)
    assert sym_table.mode == "symbolic"
    assert sym_table.to_json() == sym_obj


def test_table_files_reproduce_drawn_tables(tmp_path):
    path = tmp_path / "table.json"
    for d, n_o, seed in ((1, 4, 0), (2, 3, 1), (2, 7, 2), (3, 3, 3), (2, 5, 4)):
        table = CoefficientTable.random(d, n_o, seed)
        path.write_text(json.dumps(table.to_json()))
        loaded = CoefficientTable.from_file(str(path))
        assert (loaded.alpha, loaded.beta, loaded.scale) == (table.alpha, table.beta, table.scale)


def test_unreduced_fraction_strings_load_reduced(tmp_path):
    path = tmp_path / "table.json"
    loaded = []
    for half, value in (("1/2", "-3/4"), ("2/4", "-6/8"), ("+0002/004", "-003/4")):
        path.write_text(json.dumps({"d": 1, "n_o": 2, "alpha": {"1": half}, "beta": {"1,1": value}}))
        table = CoefficientTable.from_file(str(path))
        loaded.append((table.alpha, table.beta, table.scale))
    # graded: 1/2 * 4 and -3/4 * 4**2
    assert loaded[0] == loaded[1] == loaded[2] == ({(1,): 2}, {(1, 1): -12}, 4)


def test_symbolic_table_stores_one_symbol_per_word():
    table = CoefficientTable.symbolic(3, 2)
    assert table.coeff("a", (1, 2)) == PolyScalar.symbol("a", (1, 2))
    assert table.coeff("b", (3,)) == PolyScalar.symbol("b", (3,))
    assert table.coeff("a", (1, 2, 3)) == 0  # beyond n_o
    assert len(table.alpha) == len(table.beta) == 3 + 3 ** 2


def test_table_validation():
    with pytest.raises(ValueError):
        CoefficientTable(2, 2, "concrete", {(1, 2, 1): 1}, {})  # beyond n_o
    with pytest.raises(ValueError):
        CoefficientTable(2, 2, "concrete", {(3,): 1}, {})  # letter out of range
    with pytest.raises(ValueError):
        CoefficientTable(2, 2, "weird")
    with pytest.raises(ValueError):
        CoefficientTable.symbolic(0, 2)
    for d, n_o in ((2.5, 2), (2, 2.5), (True, 2), (2, True), ("2", 2)):
        with pytest.raises(ValueError):
            CoefficientTable.symbolic(d, n_o)
    with pytest.raises(ValueError):
        CoefficientTable(2, 2, "symbolic", {(1,): 1}, None)


def test_symbolic_table_size_is_capped(monkeypatch):
    # d=2, n_o=3 holds 2 * (2 + 4 + 8) = 28 symbols
    monkeypatch.setattr(fock, "MAX_SYMBOLS", 28)
    assert len(CoefficientTable.symbolic(2, 3).alpha) == 14
    monkeypatch.setattr(fock, "MAX_SYMBOLS", 27)
    with pytest.raises(ValueError, match="exceeds 27 symbols"):
        CoefficientTable.symbolic(2, 3)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        CoefficientTable.symbolic(2, 10**9)  # rejected before anything is built
    # 100,000 symbols, but about 1.25e9 letters per side
    with pytest.raises(ValueError, match="1000000 stored letters"):
        CoefficientTable.symbolic(1, 50_000)
    for d, n_o in ((9, 4), (5, 6)):  # 57,204 and 224,610 letters
        assert len(CoefficientTable.symbolic(d, n_o).alpha) == sum(d**p for p in range(1, n_o + 1))


def test_drawn_table_size_is_capped_before_drawing(monkeypatch):
    monkeypatch.setattr(fock, "random", None)  # a draw would raise AttributeError
    with pytest.raises(ValueError, match="exceeds 100000 symbols"):
        CoefficientTable.random(20, 6, seed=0)  # about 1.3e8 coefficients
    with pytest.raises(ValueError, match="1000000 stored letters"):
        CoefficientTable.random(1, 50_000, seed=0)
    monkeypatch.setattr(fock, "MAX_SYMBOLS", 27)  # d=2, n_o=3 holds 28 coefficients
    with pytest.raises(ValueError, match="exceeds 27 symbols"):
        CoefficientTable.random(2, 3, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(fock, "MAX_SYMBOLS", 28)
    assert len(CoefficientTable.random(2, 3, seed=0).alpha) == 14
    # separated tables hold d * n_o values per side, file tables only their entries
    assert len(CoefficientTable.separated_random(20, 6, seed=0).alpha) == 120
    sparse = CoefficientTable.from_json_obj({"d": 10**6, "n_o": 6, "alpha": {"1,2": 1}})
    assert sparse.alpha == {(1, 2): 1}


def test_separated_table_vanishes_off_diagonal():
    table = CoefficientTable.separated_random(2, 3, seed=0)
    assert table.coeff("a", (1, 2)) == 0
    assert table.coeff("a", (1, 1)) != 0
    assert table.coeff("b", (2, 2, 2)) != 0
    assert table.coeff("b", (1, 2, 1)) == 0


def test_with_entry_overrides():
    table = CoefficientTable.separated_random(2, 2, seed=0)
    patched = table.with_entry("a", (1, 2), Fraction(1))
    assert patched.rational(patched.coeff("a", (1, 2)), 2) == 1
    assert table.coeff("a", (1, 2)) == 0
    assert patched.rational(patched.coeff("b", (2, 2)), 2) == table.rational(
        table.coeff("b", (2, 2)), 2
    )


def test_with_entry_rejects_an_unknown_kind():
    table = CoefficientTable.random(2, 3, 0)
    for kind in ("x", "A", "alpha", ""):
        with pytest.raises(ValueError, match="kind"):
            table.with_entry(kind, (1, 2), 7)
    patched = table.with_entry("b", (1, 2), 7)
    assert patched.rational(patched.coeff("b", (1, 2)), 2) == 7
    assert patched.alpha == table.alpha


# -- graded storage and the rational boundary ------------------------------------------


def test_concrete_table_stores_graded_ints():
    table = CoefficientTable(
        2, 2, "concrete", {(1,): Fraction(1, 2), (1, 2): Fraction(-1, 3)}, {(2,): 5}
    )
    assert table.scale == 6
    assert table.alpha == {(1,): 3, (1, 2): -12}
    assert table.beta == {(2,): 30}
    assert table.rational(table.coeff("a", (1, 2)), 2) == Fraction(-1, 3)
    assert table.rational(-12 * 30, 3) == Fraction(-1, 3) * 5
    assert type(table.rational(30, 1)) is Fraction
    assert CoefficientTable.symbolic(2, 2).scale == 1
    assert CoefficientTable(1, 1, "concrete", {}, {}).scale == 1
    x = sym("a", 1)
    assert CoefficientTable.symbolic(2, 2).rational(x, 1) is x


def test_in_memory_keys_must_be_tuples_of_int_letters():
    # a float or bool letter made a key that to_json wrote and a file load refused
    for alpha, entry in (
        ({(1.0,): 1}, "alpha key (1.0,)"),
        ({(True,): 1}, "alpha key (True,)"),
        ({(1, True): 1}, "alpha key (1, True)"),
        ({1: 1}, "alpha key 1 "),
        ({"12": 1}, "alpha key '12'"),
        ([((1,), 1)], "alpha must be a map"),
    ):
        with pytest.raises(ValueError, match=re.escape(entry)):
            CoefficientTable(2, 2, "concrete", alpha, {})
    # (True,) == (1,), so beta's keys must not be taken on alpha's word
    with pytest.raises(ValueError, match=re.escape("beta key (True,)")):
        CoefficientTable(2, 2, "concrete", {(1,): 1}, {(True,): 1})
    with pytest.raises(ValueError, match=re.escape("alpha key (1,)")):  # text keys only
        CoefficientTable.from_json_obj({"d": 2, "n_o": 2, "alpha": {(1,): 1}})


def test_a_file_table_validates_each_distinct_key_once(monkeypatch):
    obj = CoefficientTable.random(2, 7, seed=11).to_json()  # the same 254 keys on each side
    assert obj["alpha"].keys() == obj["beta"].keys()
    key_word = fock._key_word
    validated = []
    monkeypatch.setattr(
        fock, "_key_word", lambda name, key, *args: validated.append(key) or key_word(name, key, *args)
    )
    table = CoefficientTable.from_json_obj(obj)
    assert sorted(validated) == sorted(obj["alpha"])
    assert table.to_json() == obj


def _reference_word(key: str, d: int, n_o: int):
    """The word a canonical text key spells when it lies in [d]^1..n_o, else None."""
    parts = key.split(",")
    if not all(p.isascii() and p.isdigit() and p[0] != "0" for p in parts):
        return None
    word = tuple(map(int, parts))
    return word if len(word) <= n_o and max(word) <= d else None


@st.composite
def keyed_file_objects(draw):
    """A concrete table's JSON object whose keys are mostly canonical words,
    some too long or with a letter above d, some misspelt.  Each key comes
    after the keys of its prefixes, so most keys extend one read earlier."""
    d = draw(st.integers(1, 11))
    n_o = draw(st.integers(1, 3))
    letter = st.one_of(
        st.integers(1, 12).map(str), st.sampled_from(("0", "01", " 2", "+1", "", "1_1", "\u0663"))
    )
    value = st.sampled_from(("1", "-2/3", 4))
    obj = {"d": d, "n_o": n_o}
    for name in ("alpha", "beta"):
        obj[name] = {}
        for letters in draw(st.lists(st.lists(letter, min_size=1, max_size=4), max_size=4)):
            for end in range(1, len(letters) + 1):
                obj[name][",".join(letters[:end])] = draw(value)
    return obj


@settings(max_examples=300, deadline=None)
@given(keyed_file_objects())
def test_file_keys_load_as_the_words_they_spell(obj):
    d, n_o = obj["d"], obj["n_o"]
    bad = [
        (name, key) for name in ("alpha", "beta") for key in obj[name]
        if _reference_word(key, d, n_o) is None
    ]
    if bad:  # the first bad key, alpha before beta, is the one named
        name, key = bad[0]
        with pytest.raises(ValueError) as refused:
            CoefficientTable.from_json_obj(obj)
        message = str(refused.value)
        assert message.startswith(f"{name} key {key!r} is not an index word") or (
            message.startswith(f"{name} entry {tuple(map(int, key.split(',')))} ")
        ), (message, name, key)
        return
    table = CoefficientTable.from_json_obj(obj)
    for name, stored in (("alpha", table.alpha), ("beta", table.beta)):
        assert stored.keys() == {_reference_word(key, d, n_o) for key in obj[name]}


def test_table_rejects_inexact_values():
    for value in (0.5, True, None, "0.5", "1/0", "1 /2", "x", [1], {"p": 1}):
        with pytest.raises(ValueError):
            CoefficientTable(1, 1, "concrete", {(1,): value}, {})
        with pytest.raises(ValueError):
            CoefficientTable.from_json_obj({"d": 1, "n_o": 1, "alpha": {"1": value}})
    table = CoefficientTable.from_json_obj(
        {"d": 1, "n_o": 1, "alpha": {"1": "-6/4"}, "beta": {"1": 3}}
    )
    assert table.to_json()["alpha"] == {"1": "-3/2"} and table.to_json()["beta"] == {"1": "3"}


def test_a_sparse_file_table_sizes_its_powers_by_its_longest_word(tmp_path):
    # Powers of the scale up to n_o = 10**6 would take gigabytes, so the
    # load runs in a child process whose address space is capped.
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"d": 2, "n_o": 10**6, "alpha": {"1,2": "1/3"}}))
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from lrcumulants.fock import CoefficientTable\n"
        "start = time.perf_counter()\n"
        "table = CoefficientTable.from_file(sys.argv[1])\n"
        "print(time.perf_counter() - start, table.alpha, table.scale)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fock.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    seconds, loaded = done.stdout.split(" ", 1)
    assert loaded.strip() == "{(1, 2): 3} 3"  # 1/3 graded by 3**2
    assert float(seconds) < 1.0


def test_a_moment_on_a_sparse_table_with_a_huge_n_o_stays_small(tmp_path, capsys):
    # anything sized by n_o = 10**6 would take megabytes per engine
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(
        {"d": 2, "n_o": 10**6, "alpha": {"1,2": "1/3"}, "beta": {"2": "1", "2,1": "1/2"}}
    ))
    table = CoefficientTable.from_file(str(path))
    tracemalloc.start()
    try:
        vm = VacuumMoments(table)
        value = vm(((1, "l"), (2, "r")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert value == 0
    # both routes of the query read beta at 2,1 and at 2: 1/2 * 1
    code = main(["moment", "--chi", "rrr", "--omega", "2,1,2", "--table", str(path)])
    out = capsys.readouterr().out
    assert code == 0 and "value: 1/2" in out and "status: pass" in out


# spellings of a few rationals, so that drawn maps repeat value strings
VALUE_SPELLINGS = (
    "0", "0/5", "-0", "1", "+1", "01", "2/2", "-1", "1/2", "2/4", "-3/4", "-003/4", "6/8",
    "5", "-7/3", "14/6", "1/12", "-5/6",
)


@st.composite
def file_objects(draw):
    """A concrete table's JSON object with keys in any order and values
    that are ints, Fractions or "p/q" strings, many of them repeated."""
    d = draw(st.integers(1, 3))
    n_o = draw(st.integers(1, 4))
    words = [w for p in range(1, n_o + 1) for w in itertools.product(range(1, d + 1), repeat=p)]
    values = st.one_of(
        st.sampled_from(VALUE_SPELLINGS),
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    )
    obj = {"d": d, "n_o": n_o}
    for name in ("alpha", "beta"):
        entries = draw(st.dictionaries(st.sampled_from(words), values, max_size=30))
        obj[name] = {",".join(map(str, w)): v for w, v in entries.items()}
    return obj


@settings(max_examples=100, deadline=None)
@given(file_objects())
def test_file_values_load_as_the_fractions_they_spell(obj):
    d, n_o = obj["d"], obj["n_o"]
    maps = [
        {tuple(map(int, key.split(","))): Fraction(v) for key, v in obj[name].items()}
        for name in ("alpha", "beta")
    ]
    loaded = CoefficientTable.from_json_obj(obj)
    reference = CoefficientTable(d, n_o, "concrete", *maps)
    assert (loaded.alpha, loaded.beta, loaded.scale) == (
        reference.alpha, reference.beta, reference.scale
    )
    scale = math.lcm(*(v.denominator for m in maps for v in m.values() if v))
    assert loaded.scale == scale
    assert [loaded.alpha, loaded.beta] == [
        {w: int(v * scale ** len(w)) for w, v in m.items() if v} for m in maps
    ]


PRIME_DENOMINATORS = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


@st.composite
def sparse_tables(draw):
    """A concrete table with a few random entries, and the rationals it was
    built from."""
    d = draw(st.integers(1, 2))
    n_o = draw(st.integers(1, 5))
    words = [w for p in range(1, n_o + 1) for w in itertools.product(range(1, d + 1), repeat=p)]
    rationals = st.builds(
        Fraction,
        st.integers(-60, 60).filter(bool),
        st.one_of(st.sampled_from(PRIME_DENOMINATORS), st.integers(1, 97)),
    )
    alpha, beta = [
        draw(st.dictionaries(st.sampled_from(words), rationals, max_size=12)) for _ in range(2)
    ]
    return CoefficientTable(d, n_o, "concrete", alpha, beta), alpha, beta


def fraction_maps(obj):
    """The coefficients of a table's JSON form as plain Fractions, by kind."""
    return {
        kind: {tuple(map(int, key.split(","))): Fraction(v) for key, v in obj[name].items()}
        for kind, name in (("a", "alpha"), ("b", "beta"))
    }


def fraction_family_sum(maps, omega, chi):
    """The moment of (omega, chi) as a Fraction sum over the chi family."""
    total = Fraction(0)
    for blocks in restriction_data(chi):
        prod = Fraction(1)
        for positions, sub in blocks:
            kind, order = bimixture_template(sub)
            prod *= maps[kind].get(tuple(omega[positions[j]] for j in order), 0)
        total += prod
    return total


@settings(max_examples=60, deadline=None)
@given(sparse_tables(), st.data())
def test_graded_values_match_plain_fraction_family_sums(drawn, data):
    table, alpha, beta = drawn
    obj = table.to_json()
    for name, given_map in (("alpha", alpha), ("beta", beta)):
        assert obj[name] == {",".join(map(str, w)): str(v) for w, v in given_map.items()}
    assert CoefficientTable.from_json_obj(obj).to_json() == obj
    maps = fraction_maps(obj)

    n = data.draw(st.integers(1, 5))
    chi = data.draw(st.text("lr", min_size=n, max_size=n))
    omega = tuple(data.draw(st.lists(st.integers(1, table.d), min_size=n, max_size=n)))
    cword = tuple(zip(omega, chi))
    reference = CumulantEngine(
        lambda w: fraction_family_sum(maps, tuple(i for i, _ in w), "".join(h for _, h in w))
    )
    vm = VacuumMoments(table)
    assert table.rational(vm(cword), n) == fraction_family_sum(maps, omega, chi)
    kappa = table.rational(CumulantEngine(vm).cumulant(chi, cword), n)
    assert kappa == reference.cumulant(chi, cword)
    kind, word = bimixture_symbol(omega, chi)
    assert kappa == maps[kind].get(word, 0)
