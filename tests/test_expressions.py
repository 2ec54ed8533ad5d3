"""Parsing and canonical printing of element expressions."""

import cmath
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gpcuntz as g
from gpcuntz import expressions
from helpers import (
    assert_elements_close,
    random_element,
    random_unit,
    reference_format_element,
    reference_parse_sum,
)

DATA = pathlib.Path(__file__).parent / "data"

elements = st.dictionaries(
    st.tuples(
        st.lists(st.integers(1, 2), max_size=3).map(tuple),
        st.lists(st.integers(1, 2), max_size=3).map(tuple),
    ),
    st.complex_numbers(min_magnitude=0.05, max_magnitude=8, allow_nan=False, allow_infinity=False),
    max_size=5,
).map(lambda terms: g.AlgebraElement.from_terms(2, terms))


def test_parse_cuntz_relation():
    assert g.parse("s1* s1", 2) == g.identity(2)


def test_parse_identity_any_rank():
    assert g.parse("I", 3) == g.identity(3)


def test_parse_scaled_sum():
    elem = g.parse("(1/sqrt(2))(s1+s2)", 2)
    root = 1.0 / math.sqrt(2.0)
    assert_elements_close(elem, g.s_of([root, root]), 1e-15)


def test_parse_root_of_unity_scalar():
    elem = g.parse("exp(i pi 2/3) s1", 2)
    expected = cmath.exp(2j * math.pi / 3) * g.generator(2, 1)
    assert_elements_close(elem, expected, 1e-15)


def test_parse_complex_literals():
    assert g.parse("i", 2) == 1j * g.identity(2)
    assert g.parse("2+3i", 2) == (2 + 3j) * g.identity(2)
    assert g.parse("-0.5 s2", 2) == -0.5 * g.generator(2, 2)


def test_parse_caret_adjoint():
    assert g.parse("s1^*", 2) == g.generator(2, 1).adjoint()


def test_parse_double_adjoint():
    assert g.parse("s1**", 2) == g.generator(2, 1)


def test_parse_errors_carry_offsets():
    with pytest.raises(g.ExprSyntaxError) as err:
        g.parse("s1 @ s2", 2)
    assert err.value.position == 3
    with pytest.raises(g.ExprSyntaxError) as err:
        g.parse("s3", 2)
    assert err.value.position == 0
    with pytest.raises(g.ExprSyntaxError):
        g.parse("(s1", 2)
    with pytest.raises(g.ExprSyntaxError):
        g.parse("sqrt(s1)", 2)
    with pytest.raises(g.ExprSyntaxError):
        g.parse("s1 / s2", 2)
    with pytest.raises(g.ExprSyntaxError):
        g.parse("1/0", 2)


def test_parse_divides_by_a_scalar_element():
    assert g.format_element(g.parse("s1 / (2 I)", 2)) == "0.5 s1"
    # s1* s1 reduces to I
    assert g.format_element(g.parse("s1 / (s1* s1)", 2)) == "s1"
    with pytest.raises(g.ExprSyntaxError, match="division by zero"):
        g.parse("s1 / (s1 - s1)", 2)


@pytest.mark.parametrize("text, position", [
    ("1e308 s1 + 1e308 s1", 0),
    ("(1e308 1e308 - 1e308 1e308) s1 + s2", 0),
    ("exp(i 2) exp(709) exp(709)", 0),
    ("s2 exp(1000) s1", 3),
    ("s1 + 1e400 s2", 5),
])
def test_parse_refuses_non_finite_coefficients(text, position):
    with pytest.raises(g.ExprSyntaxError) as err:
        g.parse(text, 2)
    assert err.value.position == position


def test_format_refuses_non_finite_coefficients():
    big = g.word_element(2, (1,), (), 1e200)
    with pytest.raises(ValueError, match="is not finite"):
        g.format_element(g.multiply(big, big) + g.generator(2, 2))
    with pytest.raises(ValueError, match="is not finite"):
        g.format_element(g.AlgebraElement(2, {((), ()): complex(1.0, math.nan)}))


def test_format_prints_finite_coefficients_whose_sum_overflows():
    big = 1.7976931348623157e308
    a = g.AlgebraElement.from_terms(2, {((1,), ()): big, ((2,), ()): big})
    assert g.format_element(a) == "1.7976931348623157e+308 s1 + 1.7976931348623157e+308 s2"
    assert g.parse(g.format_element(a), 2) == a


def test_format_trivia():
    assert g.format_element(g.zero(2)) == "0"
    assert g.format_element(g.identity(2)) == "I"


def test_format_orders_terms_canonically():
    elem = g.generator(2, 2) + g.generator(2, 1) + g.identity(2)
    assert g.format_element(elem) == "I + s1 + s2"


def test_format_reverses_adjoint_words():
    elem = g.word_element(2, (1, 2), (1, 2))
    text = g.format_element(elem)
    assert text == "s1 s2 s2* s1*"
    assert g.parse(text, 2) == elem


def test_format_negative_coefficients():
    elem = g.generator(2, 1) - 0.5 * g.generator(2, 2)
    assert g.format_element(elem) == "s1 - 0.5 s2"


@given(elements)
def test_parse_format_roundtrip(a):
    assert g.parse(g.format_element(a), 2) == a


def test_format_deterministic():
    rng_terms = {((1,), (2,)): 1.25 - 3j, ((), ()): 0.5j, ((2, 2), ()): -1.0}
    a = g.AlgebraElement.from_terms(2, rng_terms)
    assert g.format_element(a) == g.format_element(g.AlgebraElement.from_terms(2, rng_terms))


# parts of coefficients at the printer's edges: signed zeros, units, and
# magnitudes whose shortest repr carries an exponent
EDGE_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300, -1e-300, 1e300, -1e300,
              1.7976931348623157e308, -5e-324, 1e16, 1e-5]
edge_parts = st.one_of(
    st.sampled_from(EDGE_PARTS), st.floats(allow_nan=False, allow_infinity=False)
)
edge_coefficients = st.one_of(
    st.sampled_from([1, -1, 1j, -1j, complex(-0.0, 2.0), complex(3.0, -0.0),
                     complex(-0.0, -1.0), complex(1.0, -0.0), complex(-1.0, 0.0)]).map(complex),
    edge_parts.map(complex),
    edge_parts.map(lambda y: complex(0.0, y)),
    st.builds(complex, edge_parts, edge_parts),
)


def _edge_elements(n):
    words = st.lists(st.integers(1, n), max_size=4).map(tuple)
    keys = st.one_of(st.just(((), ())), st.tuples(words, words))
    # the printer is handed the coefficients as they are, tiny ones included
    return st.dictionaries(keys, edge_coefficients, max_size=12).map(
        lambda terms: g.AlgebraElement(n, terms)
    )


@given(st.integers(2, 4).flatmap(_edge_elements))
def test_format_matches_the_term_by_term_printer(a):
    assert g.format_element(a) == reference_format_element(a)


def exact_unit(rng, n):
    """A random unit vector normalized by correctly rounded operations only,
    so its bits do not depend on the BLAS at hand."""
    v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    norm = math.sqrt(sum(c.real * c.real + c.imag * c.imag for c in v))
    return [c / norm for c in v]


def test_format_of_a_6561_term_product_is_stable():
    rng = random.Random(6561)
    p = g.s_of([exact_unit(rng, 3) for _ in range(4)])
    q = g.s_of([exact_unit(rng, 3) for _ in range(4)])
    pq = g.multiply(p, q.adjoint())
    assert len(pq.terms) == 6561
    text = g.format_element(pq)
    assert text == reference_format_element(pq)
    assert text + "\n" == (DATA / "format_pq_n3.txt").read_text()


def test_parse_roundtrips_a_2187_term_product():
    rng = np.random.default_rng(2187)
    a = g.s_of([random_unit(rng, 3) for _ in range(7)])
    assert len(a.terms) == 2187
    assert g.parse(g.format_element(a), 3) == a


# adjoints and i leave coefficients with signed-zero parts, which the fold
# must reproduce bit for bit
SUM_ATOMS = ["s1", "s1*", "(s1)*", "i s1", "(i s1)*", "s2", "1.0", "i", "(1.0 s1)*", "(i)*",
             "(s1 + s2)*", "(s1*)*", "1e-13 s1", "2.5 s2*"]


def random_sum_text(rng, depth=0):
    """A sum of products of atoms and nested sums, some negated or adjoint."""
    text = ""
    for index in range(int(rng.integers(1, 5))):
        if depth > 1 or rng.random() < 0.7:
            part = SUM_ATOMS[int(rng.integers(len(SUM_ATOMS)))]
        else:
            part = "(" + random_sum_text(rng, depth + 1) + ")" + ("*" if rng.random() < 0.5 else "")
        if rng.random() < 0.3:
            part += " " + SUM_ATOMS[int(rng.integers(len(SUM_ATOMS)))]
        if index == 0:
            text += ("- " if rng.random() < 0.5 else "") + part
        else:
            text += (" - " if rng.random() < 0.5 else " + ") + part
    return text


def term_bits(a):
    return [(key, np.array([c], dtype=complex).tobytes()) for key, c in a.terms.items()]


def assert_sums_like_the_pairwise_fold(text):
    fold = expressions._Parser._sum
    try:
        expressions._Parser._sum = reference_parse_sum
        expected = g.parse(text, 2)
    finally:
        expressions._Parser._sum = fold
    assert term_bits(g.parse(text, 2)) == term_bits(expected)


@given(st.integers(0, 2**32 - 1))
def test_parse_sums_like_the_pairwise_fold(seed):
    rng = np.random.default_rng(seed)
    text = random_sum_text(rng)
    if rng.random() < 0.5:
        # summands that cancel a whole element, then bring keys back
        a = g.format_element(random_element(rng, 2, max_word=3, n_terms=8))
        text = f"{a} - ({a}) + {text.lstrip('- ')}"
    assert_sums_like_the_pairwise_fold(text)


@pytest.mark.parametrize("text", [
    # a coefficient summed again after the running sum was materialized
    "(s1* - (i s1 + s1 (s1*)*) + (- i s1 + i s1 + s2 + (s1*)*)* - s1)*",
    "(- (- s1* (s1)* + (1.0 s1)* + (i)*) - i s1 + (s1*)* (1.0 s1)* + 1.0)*",
])
def test_parse_keeps_the_signed_zeros_of_the_pairwise_fold(text):
    assert_sums_like_the_pairwise_fold(text)
