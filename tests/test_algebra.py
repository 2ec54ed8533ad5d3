"""Normal forms, structural maps and the anticommutation embedding."""

import cmath
import gc
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gpcuntz as g
from gpcuntz import _unitary, algebra
from helpers import (
    assert_elements_close,
    random_element,
    random_unitary,
    reference_expand_identity,
    reference_multiply,
    reference_pairwise_multiply,
    reference_unitary_action,
)

words2 = st.lists(st.integers(1, 2), max_size=6).map(tuple)
small_elements = st.dictionaries(
    st.tuples(
        st.lists(st.integers(1, 2), max_size=2).map(tuple),
        st.lists(st.integers(1, 2), max_size=2).map(tuple),
    ),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=4, allow_nan=False, allow_infinity=False),
    max_size=3,
).map(lambda terms: g.AlgebraElement.from_terms(2, terms))


# ----------------------------------------------------------------------
# multiplication

def test_isometry_relation_exact():
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                prod = g.multiply(g.generator(n, i).adjoint(), g.generator(n, j))
                expected = g.identity(n) if i == j else g.zero(n)
                assert prod == expected


def test_multiply_prefix_cancellation():
    a = g.word_element(2, (1,), (2,))
    b = g.word_element(2, (2,), (1,))
    assert g.multiply(a, b) == g.word_element(2, (1,), (1,))


def test_multiply_orthogonal_words_vanish():
    a = g.word_element(2, (), (1, 2))
    b = g.word_element(2, (2, 1), ())
    assert g.multiply(a, b).is_zero()


def test_multiply_rank_mismatch():
    with pytest.raises(g.RankMismatchError):
        g.multiply(g.generator(2, 1), g.generator(3, 1))


def assert_bit_identical(x, y):
    """Same rank, same keys in the same order, and coefficients equal to
    the last bit, NaN included."""
    assert x.n == y.n
    assert list(x.terms) == list(y.terms)
    bits = [(c.real.hex(), c.imag.hex()) for c in x.terms.values()]
    assert bits == [(c.real.hex(), c.imag.hex()) for c in y.terms.values()]


@st.composite
def sparse_pairs(draw):
    """Two elements at N = 2..4 with words up to length 6; about half of the
    right factor's left words extend or cut a right word of the left
    factor, so many pairs reduce instead of vanishing."""
    n = draw(st.integers(2, 4))
    word = st.lists(st.integers(1, n), max_size=6).map(tuple)
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=4,
                               allow_nan=False, allow_infinity=False)
    a = draw(st.dictionaries(st.tuples(word, word), coeff, min_size=1, max_size=8))
    b = {}
    for _ in range(draw(st.integers(1, 8))):
        j2, k2 = draw(word), draw(word)
        if draw(st.booleans()):
            k1 = draw(st.sampled_from(sorted(key[1] for key in a)))
            j2 = (k1 + j2)[:6] if draw(st.booleans()) else k1[: len(j2)]
        b[(j2, k2)] = draw(coeff)
    return g.AlgebraElement.from_terms(n, a), g.AlgebraElement.from_terms(n, b)


@given(sparse_pairs())
def test_multiply_matches_stack_reduction(pair):
    a, b = pair
    assert_bit_identical(g.multiply(a, b), reference_multiply(a, b))
    assert_bit_identical(g.multiply(b, a), reference_multiply(b, a))
    assert_bit_identical(a * b, g.multiply(a, b))


@given(sparse_pairs())
def test_multiply_matches_pairwise_loop(pair):
    a, b = pair
    assert_bit_identical(g.multiply(a, b), reference_pairwise_multiply(a, b))
    assert_bit_identical(g.multiply(b, a), reference_pairwise_multiply(b, a))


def assert_multiply_matches_references(a, b):
    for x, y in ((a, b), (b, a)):
        assert_bit_identical(g.multiply(x, y), reference_multiply(x, y))
        assert_bit_identical(g.multiply(x, y), reference_pairwise_multiply(x, y))


def test_multiply_empty_right_and_left_words():
    # an empty K1 meets every term of b, an empty J2 every term of a: all
    # nine pairs reduce
    a = g.AlgebraElement.from_terms(2, {((1,), ()): 0.5, ((2, 1), (1,)): 2j, ((), ()): 1.5})
    b = g.AlgebraElement.from_terms(2, {((), (2,)): -1.0, ((1,), ()): 3.0, ((), ()): 0.25j})
    assert_multiply_matches_references(a, b)


def test_multiply_left_words_shorter_and_longer_than_the_right_word():
    j2s = [(1, 2, 1, 2, 2), (), (2,), (1, 2), (1,), (1, 2, 1), (1, 2, 2), (1, 2, 1, 1), (1, 1, 2, 1)]
    b = g.AlgebraElement.from_terms(
        2, {(j2, (i % 2 + 1,) * (i % 3)): complex(i + 1, -i) for i, j2 in enumerate(j2s)}
    )
    a = g.AlgebraElement.from_terms(
        2, {((2,), (1, 2, 1)): 0.7, ((), (1, 2)): -1.3j, ((1,), (1, 2, 1, 1, 2, 2)): 0.9}
    )
    assert_multiply_matches_references(a, b)


@pytest.mark.parametrize("reverse", [False, True])
def test_multiply_key_reached_from_two_buckets(reverse):
    # b holds (K1, X) and (P, Y) with P = (1,) a proper prefix of K1 = (1, 2)
    # and X = Y + K1[len(P):], so both reach ((2,), X) from the second term
    # of a, whose first term already put 0.3 there; the sum is 0.6 only
    # when 0.2 is added before 0.1, in b's term order
    x = (2, 1, 2)
    a = g.AlgebraElement.from_terms(2, {((2,), ()): 0.3, ((2,), (1, 2)): 1.0})
    pair = [(((1, 2), x), 0.2), (((1,), (2, 1)), 0.1)]
    b = g.AlgebraElement.from_terms(2, dict(pair[::-1] if reverse else pair) | {((), x): 1.0})
    assert (0.3 + 0.2) + 0.1 != (0.3 + 0.1) + 0.2
    assert_multiply_matches_references(a, b)
    expected = (0.3 + 0.1) + 0.2 if reverse else (0.3 + 0.2) + 0.1
    assert g.multiply(a, b).terms[(2,), x] == expected


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_multiply_two_proper_prefix_buckets(order):
    # J2 = () and J2 = (1,) are both proper prefixes of K1 = (1, 2, 1); with
    # (1, 2) as well, three shorter buckets meet one term of a, and b's term
    # order decides the order of the keys
    terms = [(((1, 2), (1,)), 1.5), (((), (1,)), -0.5j), (((1,), (2,)), 2.0)]
    b = g.AlgebraElement.from_terms(2, dict(terms[i] for i in order))
    a = g.AlgebraElement.from_terms(2, {((2,), (1, 2, 1)): 1.0, ((1,), (1, 2)): 0.5})
    assert_multiply_matches_references(a, b)
    first = [key for key in g.multiply(a, b).terms if key[0] == (2,)]
    assert first == [((2,), terms[i][0][1] + (1, 2, 1)[len(terms[i][0][0]):]) for i in order]


@st.composite
def shared_right_factors(draw):
    """One right factor at N = 2..3 and a sequence of left factors whose
    right words K1 have mixed lengths in random order; most K1 cut or
    extend a left word J2 of the right factor, so many pairs reduce."""
    n = draw(st.integers(2, 3))
    word = st.lists(st.integers(1, n), max_size=5).map(tuple)
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=4,
                               allow_nan=False, allow_infinity=False)
    b = draw(st.dictionaries(st.tuples(word, word), coeff, min_size=1, max_size=8))
    lefts = []
    for _ in range(draw(st.integers(1, 6))):
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            k1 = draw(word)
            if draw(st.booleans()):
                j2 = draw(st.sampled_from(sorted(key[0] for key in b)))
                k1 = (j2 + k1)[: draw(st.integers(0, 7))]
            terms[draw(word), k1] = draw(coeff)
        lefts.append(g.AlgebraElement.from_terms(n, terms))
    return g.AlgebraElement.from_terms(n, b), lefts


@given(shared_right_factors())
def test_products_sharing_a_right_factor_match_pairwise_loop(case):
    # the right factor's index is built by the first product and grown by
    # the later ones, each |K1| the first time a left factor needs it
    b, lefts = case
    for a in lefts + [b] + lefts[::-1]:
        assert_bit_identical(g.multiply(a, b), reference_pairwise_multiply(a, b))


def test_multiply_indexes_each_right_factor_once(monkeypatch):
    built = []
    right_index = algebra._RightIndex

    def counted(terms):
        built.append(len(terms))
        return right_index(terms)

    monkeypatch.setattr(algebra, "_RightIndex", counted)
    b = g.AlgebraElement.from_terms(2, {((1, 2), ()): 1.0, ((2,), (1,)): 2j, ((), ()): 0.5})
    lefts = [g.word_element(2, (), k1) for k1 in [(1, 2, 1), (), (1,), (1, 2), (2, 2, 2, 2)]]
    for a in lefts + [b]:
        g.multiply(a, b)
    g.multiply(b, lefts[0])
    # once for b, which served six products, and once for lefts[0]
    assert built == [3, 1]


def test_serving_as_a_right_factor_changes_neither_equality_nor_repr():
    b = g.AlgebraElement.from_terms(2, {((1, 2), (2,)): 1.5, ((2,), ()): -2j, ((), (1, 1)): 0.25})
    twin = g.AlgebraElement.from_terms(2, b.terms)
    text = repr(b)
    for k1 in [(1,), (), (1, 2, 2), (2,)]:
        g.multiply(g.word_element(2, (2,), k1), b)
    assert b == twin and twin == b
    assert repr(b) == repr(twin) == text


def test_from_terms_leaves_its_argument_unchanged():
    terms = {((1,), ()): 2, ((2,), (1,)): 1e-13, ((), ()): np.complex128(0.5j), ((1, 2), ()): 0.0}
    copy = dict(terms)
    a = g.AlgebraElement.from_terms(2, terms)
    assert list(terms.items()) == list(copy.items())
    assert [type(c) for c in terms.values()] == [type(c) for c in copy.values()]
    assert a.terms is not terms
    assert list(a.terms.items()) == [(((1,), ()), 2 + 0j), (((), ()), 0.5j)]


def test_from_words_prunes_in_place_keeping_nan_and_key_order():
    tol = algebra.PRUNE_TOL
    terms = {
        ((1,), ()): tol,                        # dropped: at the tolerance
        ((2,), ()): np.float64(3.0),            # kept, stored as complex
        ((), (1,)): complex(math.nan, 0.0),     # kept: NaN is not small
        ((1, 1), ()): complex(0.0, -tol),       # dropped
        ((2, 2), (1,)): 2 * tol,                # kept
        ((), ()): -2j,
        ((2,), (2,)): 0,                        # dropped
    }
    a = g.AlgebraElement._from_words(2, terms)
    assert a.terms is terms
    assert list(a.terms) == [((2,), ()), ((), (1,)), ((2, 2), (1,)), ((), ())]
    assert all(type(c) is complex for c in a.terms.values())
    assert a.terms[(2,), ()] == 3.0 and a.terms[(2, 2), (1,)] == 2 * tol
    assert cmath.isnan(a.terms[(), (1,)])


@given(words2, words2)
def test_word_isometry(j, k):
    w = g.word_element(2, j, k)
    if not k:
        assert_elements_close(g.multiply(w.adjoint(), w), g.identity(2), 0.0)


# ----------------------------------------------------------------------
# adjoint

def test_adjoint_examples():
    assert g.word_element(2, (1,), (2,)).adjoint() == g.word_element(2, (2,), (1,))
    assert (2j * g.generator(2, 1)).adjoint() == g.word_element(2, (), (1,), -2j)


@given(small_elements)
def test_adjoint_involution(a):
    assert a.adjoint().adjoint() == a


@given(small_elements, small_elements)
def test_adjoint_antihomomorphism(a, b):
    lhs = g.multiply(a, b).adjoint()
    rhs = g.multiply(b.adjoint(), a.adjoint())
    assert_elements_close(lhs, rhs, 1e-9 * max(1.0, a.sup_norm() * b.sup_norm()))


# ----------------------------------------------------------------------
# linear structure

@pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                                   complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_public_constructors_reject_non_finite_coefficients(coeff):
    with pytest.raises(ValueError, match="is not finite"):
        g.AlgebraElement.from_terms(2, {((1,), ()): 1.0, ((2,), (1,)): coeff})
    with pytest.raises(ValueError, match="is not finite"):
        g.word_element(2, (1,), (), coeff)


@pytest.mark.parametrize("n", [2, 3])
def test_public_constructors_reject_letters_outside_alphabet(n):
    for bad in (0, n + 1):
        message = f"letter {bad} outside alphabet 1..{n}"
        with pytest.raises(ValueError, match=message):
            g.AlgebraElement.from_terms(n, {((1, bad), ()): 1.0})
        with pytest.raises(ValueError, match=message):
            g.AlgebraElement.from_terms(n, {((), (bad,)): 1.0})
        with pytest.raises(ValueError, match=message):
            g.word_element(n, (bad,), (1,))
        with pytest.raises(ValueError, match=message):
            g.word_element(n, (), (1, bad))
        with pytest.raises(ValueError, match=message):
            g.generator(n, bad)


@pytest.mark.parametrize("bad", [1.7, 0.5, "1", math.inf, math.nan, None])
def test_public_constructors_refuse_a_non_integral_letter(bad):
    with pytest.raises(ValueError, match="letters must be integers"):
        g.word_element(2, (bad,), ())
    with pytest.raises(ValueError, match="letters must be integers"):
        g.AlgebraElement.from_terms(2, {((1,), (2, bad)): 1.0})
    # numpy integers are letters
    word = (np.int64(2), np.int32(1))
    assert g.word_element(2, word, word[::-1]) == g.word_element(2, (2, 1), (1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: g.identity(2.5), "rank must be an integer, got 2.5"),
    (lambda: g.zero(3.0), "rank must be an integer, got 3.0"),
    (lambda: g.generator(2.5, 1), "rank must be an integer, got 2.5"),
    (lambda: g.word_element(2.0, (1,)), "rank must be an integer, got 2.0"),
    (lambda: g.AlgebraElement.from_terms(2.5, {}), "rank must be an integer, got 2.5"),
    (lambda: g.car_generator(1.5), "generator index must be an integer, got 1.5"),
    (lambda: g.expand_identity(g.identity(2), 1.5), "depth must be an integer, got 1.5"),
], ids=["identity", "zero", "generator", "word_element", "from_terms", "car_generator",
        "expand_identity"])
def test_non_integral_ranks_depths_and_indices_are_refused(call, message):
    # identity(2.5) gave an element of rank 2.5; car_generator(1.5) and
    # expand_identity(a, 1.5) raised TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_are_ranks_depths_and_indices():
    assert g.identity(np.int64(2)) == g.identity(2)
    assert g.car_generator(np.int32(3)) == g.car_generator(3)
    a = g.car_generator(2)
    assert g.expand_identity(a, np.int64(1)) == g.expand_identity(a, 1)


# ----------------------------------------------------------------------
# identity expansion

def test_expand_identity_examples():
    expanded = g.expand_identity(g.identity(2), 1)
    assert expanded == g.word_element(2, (1,), (1,)) + g.word_element(2, (2,), (2,))
    assert g.expand_identity(g.zero(2), 3).is_zero()
    deeper = g.expand_identity(g.word_element(2, (1,), (1,)), 1)
    assert deeper == g.word_element(2, (1, 1), (1, 1)) + g.word_element(2, (1, 2), (1, 2))


def test_expand_identity_detects_range_relation():
    total = g.word_element(2, (1,), (1,)) + g.word_element(2, (2,), (2,))
    assert g.expand_identity(total - g.identity(2), 0).is_zero()
    assert g.expand_identity(total - g.identity(2), 2).is_zero()
    # a genuinely different element stays visible at any depth
    assert not g.expand_identity(total - g.generator(2, 1), 2).is_zero()


def test_expand_identity_negative_depth():
    with pytest.raises(ValueError):
        g.expand_identity(g.identity(2), -1)


def test_expand_identity_sums_in_term_order():
    # the one output word (1 1, 1 1) sums all three terms; in term order
    # (0.1 + 0.2) + 0.3 rounds up, in path order (0.2 + 0.3) + 0.1 does not
    a = g.AlgebraElement.from_terms(
        2, {((1, 1), (1, 1)): 0.1, ((), ()): 0.2, ((1,), (1,)): 0.3}
    )
    out = g.expand_identity(a, 0)
    assert out.terms[(1, 1), (1, 1)] == (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1
    assert list(out.terms) == [((1, 1), (1, 1)), ((1, 2), (1, 2)), ((2, 1), (2, 1)), ((2, 2), (2, 2))]
    assert_bit_identical(out, reference_expand_identity(a, 0))


def test_expand_identity_keeps_nan_from_cancelling_infinities():
    inf = float("inf")
    a = g.AlgebraElement(2, {((), ()): inf, ((1,), (1,)): -inf})
    out = g.expand_identity(a, 0)
    assert list(out.terms) == [((1,), (1,)), ((2,), (2,))]
    assert cmath.isnan(out.terms[(1,), (1,)])
    assert out.terms[(2,), (2,)] == inf
    assert_bit_identical(out, reference_expand_identity(a, 0))


def test_expand_identity_leaves_the_collector_as_it_found_it(collector):
    out = g.expand_identity(g.identity(2) - g.word_element(2, (1,), (2,)), 3)
    assert gc.isenabled() is collector
    assert len(out.terms) == 24


def test_expand_identity_restores_the_collector_when_the_output_loop_raises(
        monkeypatch, collector):
    def exhausted(*_args, **_kwargs):
        assert not gc.isenabled()
        raise MemoryError

    monkeypatch.setattr(g.algebra.itertools, "product", exhausted)
    with pytest.raises(MemoryError):
        g.expand_identity(g.identity(2), 3)
    assert gc.isenabled() is collector


@pytest.fixture
def low_thresholds():
    """Collector thresholds under which a product of a few hundred pairs
    of terms counts as large."""
    old = gc.get_threshold()
    gc.set_threshold(10, 2, 2)
    yield
    gc.set_threshold(*old)


def test_large_multiply_pauses_the_collector(low_thresholds, collector):
    a = g.s_of([[0.6, 0.48, 0.64], [0.48j, 0.6, -0.64]])
    b = a.adjoint()
    assert len(a.terms) * len(b.terms) >= math.prod(gc.get_threshold())
    # a pass already due from earlier allocations would start inside multiply
    gc.collect()
    passes = []

    def count(phase, _info):
        passes.append(phase)

    gc.callbacks.append(count)
    try:
        out = g.multiply(a, b)
    finally:
        gc.callbacks.remove(count)
    # at most the one pass that runs as the collector comes back on
    assert passes.count("start") <= collector
    assert gc.isenabled() is collector
    assert_bit_identical(out, reference_pairwise_multiply(a, b))


def test_multiply_restores_the_collector_when_the_output_loop_raises(
        monkeypatch, low_thresholds, collector):
    def exhausted(*_args, **_kwargs):
        assert not gc.isenabled()
        raise MemoryError

    # K1 = (1, 2) matches the buckets of J2 = (1,) and J2[:2] = (1, 2), which
    # a sorted chain merges; the other terms of b only make the product large
    a = g.AlgebraElement.from_terms(2, {((), (1, 2)): 1.0})
    fill = {((2, 2, 2), (1,) * i): 1.0 for i in range(math.prod(gc.get_threshold()))}
    b = g.AlgebraElement.from_terms(2, {((1,), ()): 1.0, ((1, 2), ()): 1.0, **fill})
    monkeypatch.setattr(g.algebra.itertools, "chain", exhausted)
    with pytest.raises(MemoryError):
        g.multiply(a, b)
    assert gc.isenabled() is collector


def test_small_multiply_leaves_the_collector_running(monkeypatch):
    def refused():
        raise AssertionError("a small product paused the collector")

    monkeypatch.setattr(g.algebra, "_collector_paused", refused)
    a = g.s_of([[0.6, 0.48, 0.64], [0.48j, 0.6, -0.64]])
    assert len(a.terms) ** 2 < math.prod(gc.get_threshold())
    assert_bit_identical(g.multiply(a, a.adjoint()), reference_pairwise_multiply(a, a.adjoint()))


def test_expand_identity_budget():
    with pytest.raises(ValueError, match="16777216 terms"):
        g.expand_identity(g.generator(4, 1), 12)
    with pytest.raises(ValueError, match=r"at least 2\^40 terms"):
        g.expand_identity(g.identity(2), 40)


# ----------------------------------------------------------------------
# Leavitt normal form, checked against identity expansion

seeded_elements = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 4)).map(
    lambda args: random_element(np.random.default_rng(args[0]), args[1], max_word=3)
)


def ends_in_top_letter_on_both_sides(key, n):
    j, k = key
    return bool(j and k and j[-1] == n and k[-1] == n)


def rewritten_through_range(a, rng):
    """a with each term pushed 0..2 levels through sum_i s_i s_i* = I."""
    terms = {}
    for (j, k), c in a.terms.items():
        levels = int(rng.integers(0, 3))
        for tail in itertools.product(range(1, a.n + 1), repeat=levels):
            terms[(j + tail, k + tail)] = terms.get((j + tail, k + tail), 0.0) + c
    return g.AlgebraElement.from_terms(a.n, terms)


@st.composite
def expansion_cases(draw):
    """(element, depth) at N = 2..4 with words up to length 4 and depth
    0..3: a sparse element, or its difference with a partner rewritten
    through the range relation (most of whose expansion cancels), or that
    difference nudged off zero.  Sometimes terms are added along one path
    down in shuffled order, so that term order and path order differ, and
    sometimes a term and a word below it carry opposite infinities, set
    past `from_terms`, which refuses them."""
    n = draw(st.integers(2, 4))
    word = st.lists(st.integers(1, n), max_size=4).map(tuple)
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=4,
                               allow_nan=False, allow_infinity=False)
    a = g.AlgebraElement.from_terms(
        n, draw(st.dictionaries(st.tuples(word, word), coeff, min_size=1, max_size=4))
    )
    kind = draw(st.sampled_from(["plain", "cancelling", "nudged"]))
    if kind != "plain":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = a - rewritten_through_range(a, rng)
        if kind == "nudged":
            a = a + g.word_element(n, draw(word), draw(word), 1e-3)
    if draw(st.booleans()) and a.terms:
        j, k = draw(st.sampled_from(list(a.terms)))
        tail = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=3)))
        path = [(j + tail[:i], k + tail[:i]) for i in range(1, len(tail) + 1)]
        a = a + g.AlgebraElement.from_terms(
            n, {key: draw(coeff) for key in draw(st.permutations(path))}
        )
    if draw(st.booleans()) and a.terms:
        terms = dict(a.terms)
        j, k = draw(st.sampled_from(list(terms)))
        tail = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=2)))
        terms[(j, k)] = complex(float("inf"), draw(st.sampled_from([0.0, 1.0])))
        terms[(j + tail, k + tail)] = complex(-float("inf"), 0.0)
        a = g.AlgebraElement(n, terms)
    depth = draw(st.integers(0, 3))
    if a.terms:
        # the reference loop pays for every generated term; keep it quick
        top = max(min(len(j), len(k)) for j, k in a.terms) + depth
        assume(sum(n ** (top - min(len(j), len(k))) for j, k in a.terms) <= 1 << 14)
    return a, depth


@settings(deadline=None)
@given(expansion_cases())
def test_expand_identity_matches_reference_loop(case):
    a, depth = case
    assert_bit_identical(g.expand_identity(a, depth), reference_expand_identity(a, depth))


@given(seeded_elements, st.integers(0, 2))
def test_leavitt_form_invariant_under_expansion(a, depth):
    assert_elements_close(g.leavitt_form(g.expand_identity(a, depth)), g.leavitt_form(a), 1e-9)


@given(seeded_elements)
def test_leavitt_form_idempotent_and_in_basis(a):
    form = g.leavitt_form(a)
    assert g.leavitt_form(form) == form
    assert not any(ends_in_top_letter_on_both_sides(key, a.n) for key in form.terms)


@given(seeded_elements)
def test_leavitt_form_commutes_with_adjoint(a):
    assert_elements_close(g.leavitt_form(a.adjoint()), g.leavitt_form(a).adjoint(), 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leavitt_form_range_relation(n):
    lower = sum((g.word_element(n, (i,), (i,)) for i in range(1, n)), g.zero(n))
    top = g.word_element(n, (n,), (n,))
    assert g.leavitt_form(lower + top - g.identity(n)).is_zero()
    assert g.leavitt_form(top) == g.identity(n) - lower


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans())
def test_leavitt_zero_test_agrees_with_expansion(seed, n, perturb):
    rng = np.random.default_rng(seed)
    a = random_element(rng, n, max_word=3)
    b = rewritten_through_range(a, rng)
    if perturb:
        j = tuple(int(x) for x in rng.integers(1, n + 1, size=int(rng.integers(0, 3))))
        k = tuple(int(x) for x in rng.integers(1, n + 1, size=int(rng.integers(0, 3))))
        b = b + g.word_element(n, j, k, 1e-3)
    diff = a - b
    leavitt_zero = g.leavitt_form(diff).sup_norm() <= 1e-9
    assert leavitt_zero == (g.expand_identity(diff, 1).sup_norm() <= 1e-9)
    assert leavitt_zero != perturb


# ----------------------------------------------------------------------
# gauge action

def test_gauge_examples():
    c = np.exp(0.37j)
    s1 = g.generator(2, 1)
    assert g.gauge_action(c, s1) == c * s1
    w = g.word_element(2, (1,), (2,))
    assert g.gauge_action(c, w) == w
    ss = g.word_element(2, (1, 1), ())
    assert g.gauge_action(-1, ss) == ss


def test_gauge_requires_unimodular():
    with pytest.raises(ValueError):
        g.gauge_action(2.0, g.identity(2))


def test_gauge_fixed_point_characterization():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_element(rng, 2)
        balanced = g.conditional_expectation(a)
        c = np.exp(2j * np.pi * rng.random())
        assert_elements_close(g.gauge_action(c, balanced), balanced, 1e-12)


# ----------------------------------------------------------------------
# unitary action

def test_unitary_action_identity():
    a = g.word_element(2, (1, 2), (2,), 1.5 - 0.5j)
    assert_elements_close(g.unitary_action(np.eye(2), a), a, 1e-12)


def test_unitary_action_first_column():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 3)
    image = g.unitary_action(u, g.generator(3, 1))
    assert_elements_close(image, g.s_of(u[:, 0]), 1e-12)


def test_unitary_action_drops_an_image_that_cancels():
    # the Hadamard sends s1 + s2 to sqrt(2) s1: the s2 images cancel exactly
    # and are pruned inside the kernel
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    a = g.generator(2, 1) + g.generator(2, 2)
    image = g.unitary_action(h, a)
    assert image.terms == reference_unitary_action(h, a).terms
    assert g.format_element(image) == "1.414213562373095 s1"


def test_parity_automorphism():
    beta = np.diag([1.0, -1.0])
    assert g.unitary_action(beta, g.generator(2, 2)) == -1 * g.generator(2, 2)
    assert g.unitary_action(beta, g.generator(2, 1)) == g.generator(2, 1)


def test_unitary_action_multiplicative_and_composed():
    rng = np.random.default_rng(13)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    for _ in range(5):
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        lhs = g.unitary_action(u, g.multiply(a, b))
        rhs = g.multiply(g.unitary_action(u, a), g.unitary_action(u, b))
        assert_elements_close(lhs, rhs, 1e-9)
        assert_elements_close(
            g.unitary_action(u, g.unitary_action(v, a)),
            g.unitary_action(u @ v, a),
            1e-9,
        )


def unitary_of_kind(rng, n, kind):
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    if kind == "diagonal":
        return np.diag(np.exp(2j * np.pi * rng.random(n)))
    return random_unitary(rng, n)


def max_term_gap(a, b):
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(key, 0.0) - b.terms.get(key, 0.0)) for key in keys), default=0.0)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4),
       st.sampled_from(["random", "permutation", "diagonal"]))
def test_unitary_action_matches_term_by_term_reference(seed, n, kind):
    rng = np.random.default_rng(seed)
    u = unitary_of_kind(rng, n, kind)
    a = random_element(rng, n, max_word=3, n_terms=int(rng.integers(1, 9)))
    image = g.unitary_action(u, a)
    assert max_term_gap(image, reference_unitary_action(u, a)) <= 1e-12
    if kind != "random":
        # a monomial matrix maps each word to one word
        assert len(image.terms) == len(a.terms)


@given(st.lists(st.integers(0, 40), max_size=30), st.integers(0, 200))
def test_distinct_keys_match_unique(keys, spare):
    # a table over the key space or a sort, by the space's size; both give np.unique's answer
    keys = np.array(keys, np.intp)
    distinct, slot = _unitary._distinct(keys, (int(keys.max()) + 1 if len(keys) else 0) + spare)
    expected, expected_slot = np.unique(keys, return_inverse=True)
    assert distinct.tolist() == expected.tolist()
    assert slot.tolist() == expected_slot.tolist()


def test_unitary_action_permutation_on_long_words_gives_one_term():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = g.word_element(2, (1, 2, 2) * 10, (2, 1) * 15, 0.5 - 0.25j)
    image = g.unitary_action(swap, a)
    flip = {1: 2, 2: 1}
    assert image.terms == {
        (tuple(flip[x] for x in (1, 2, 2) * 10), tuple(flip[x] for x in (2, 1) * 15)): 0.5 - 0.25j
    }


def test_unitary_action_on_a_forty_letter_word_at_rank_four():
    rng = np.random.default_rng(40)
    j = tuple(int(x) for x in rng.integers(1, 5, 40))
    k = tuple(int(x) for x in rng.integers(1, 5, 3))
    a = g.word_element(4, j, k, 1j) + g.word_element(4, j[:20], (), 2.0)
    merge = _unitary._merge
    for kind in ("permutation", "diagonal"):
        u = unitary_of_kind(rng, 4, kind)
        # every letter axis keeps one entry per term
        sizes = []
        with mock.patch.object(
            _unitary, "_merge", lambda *args: sizes.append(len(args[0])) or merge(*args)
        ):
            image = g.unitary_action(u, a)
        assert sizes == [1] * (40 + 3 + 20)
        assert len(image.terms) == 2
        assert max_term_gap(image, reference_unitary_action(u, a)) <= 1e-12
    # a dense unitary on the 3-letter side alone stays within N^3 terms
    u = random_unitary(rng, 4)
    image = g.unitary_action(u, g.word_element(4, (), k))
    assert len(image.terms) == 4 ** 3
    assert max_term_gap(image, reference_unitary_action(u, g.word_element(4, (), k))) <= 1e-12


def test_unitary_action_budget_is_charged_before_acting(monkeypatch):
    def no_action(*_):
        raise AssertionError("a block was acted on for a refused request")

    monkeypatch.setattr(_unitary, "_act_on_block", no_action)
    u = random_unitary(np.random.default_rng(41), 4)
    # one term whose images hold 4^14 = 2^28 entries
    with pytest.raises(ValueError, match=r"unitary_action would generate at least 2\^28 entries, "
                                         "over the budget of 4194304"):
        g.unitary_action(u, g.word_element(4, (1,) * 14))
    # terms of 4^10 + 4^11 entries, each under the budget alone
    a = g.word_element(4, (1,) * 5, (2,) * 5) + g.word_element(4, (1,) * 10, (2,))
    with pytest.raises(ValueError, match="unitary_action would generate 5242880 entries, "
                                         "over the budget of 4194304"):
        g.unitary_action(u, a)


def test_unitary_action_of_zero_is_zero():
    assert g.unitary_action(random_unitary(np.random.default_rng(1), 3), g.zero(3)).is_zero()


def test_unitary_action_rejects_nonunitary():
    with pytest.raises(ValueError):
        g.unitary_action(np.array([[1.0, 1.0], [0.0, 1.0]]), g.identity(2))


# ----------------------------------------------------------------------
# conditional expectation

def test_conditional_expectation_examples():
    assert g.conditional_expectation(g.generator(2, 1)).is_zero()
    w = g.word_element(2, (1,), (2,))
    assert g.conditional_expectation(w) == w
    assert g.conditional_expectation(g.identity(2) + g.generator(2, 1)) == g.identity(2)


def test_conditional_expectation_idempotent_star_compatible():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_element(rng, 2)
        p = g.conditional_expectation(a)
        assert g.conditional_expectation(p) == p
        assert g.conditional_expectation(a.adjoint()) == p.adjoint()


# ----------------------------------------------------------------------
# anticommutation embedding

def test_car_generator_small_cases():
    assert g.car_generator(1) == g.word_element(2, (1,), (2,))
    expected = g.word_element(2, (1, 1), (1, 2)) - g.word_element(2, (2, 1), (2, 2))
    assert g.car_generator(2) == expected
    assert len(g.car_generator(4).terms) == 8
    with pytest.raises(ValueError):
        g.car_generator(0)


@pytest.mark.parametrize("n,m", list(itertools.product(range(1, 4), range(1, 4))))
def test_car_relations(n, m):
    a, b = g.car_generator(n), g.car_generator(m)
    mixed = g.multiply(a, b.adjoint()) + g.multiply(b.adjoint(), a)
    if n == m:
        mixed = mixed - g.identity(2)
    assert g.expand_identity(mixed, n + m).sup_norm() < 1e-9
    assert g.leavitt_form(mixed).sup_norm() < 1e-9
    anti = g.multiply(a, b) + g.multiply(b, a)
    assert g.expand_identity(anti, n + m).sup_norm() < 1e-9
    assert g.leavitt_form(anti).sup_norm() < 1e-9


# ----------------------------------------------------------------------
# linear-combination isometries

def test_s_of_basis_vectors():
    assert g.s_of(np.array([1.0, 0.0])) == g.generator(2, 1)
    assert g.s_of(np.array([0.0, 1.0])) == g.generator(2, 2)
    tensor = g.s_of([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert tensor == g.word_element(2, (1, 2), ())


def test_s_of_rejects_non_unit():
    with pytest.raises(ValueError):
        g.s_of(np.array([1.0, 1.0]))


def test_s_of_isometry():
    rng = np.random.default_rng(23)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    s = g.s_of(v)
    assert_elements_close(g.multiply(s.adjoint(), s), g.identity(3), 1e-12)
