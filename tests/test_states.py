"""Parameter states: word formulas, positivity, gauge covariance, vacuum."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpcuntz as g
from helpers import (
    circle_fibers,
    random_cycle,
    random_element,
    random_explicit_chain,
    random_nonperiodic_cycle,
    random_unit,
    reference_chain_factor,
    reference_evaluate,
    reference_gram_matrix,
    reference_state_eval,
    state_mixture_gap,
)

E1 = g.basis_vector(2, 1)
E2 = g.basis_vector(2, 2)


def all_words(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


# ----------------------------------------------------------------------
# word formula

def test_single_vector_cycle_values():
    state = g.GPState(g.cycle([E1]))
    assert state.word_value((1,), ()) == 1.0
    assert state.word_value((2,), ()) == 0.0


def test_two_factor_cycle_grading():
    state = g.GPState(g.cycle([E1, E2]))
    assert state.word_value((1,), ()) == 0.0          # length 1 is not 0 mod 2
    assert state.word_value((1, 2), ()) == 1.0
    assert state.word_value((2, 1), ()) == 0.0


def test_chain_state_is_length_balanced():
    rng = np.random.default_rng(2)
    chain = random_explicit_chain(rng, 2, 1, 2)
    state = g.GPState(chain)
    for j in all_words(2, 3):
        for k in all_words(2, 3):
            if len(j) != len(k):
                assert state.word_value(j, k) == 0.0


@pytest.mark.parametrize("chain", [
    g.rotation_chain(Fraction(2, 9)),
    g.rotation_chain(0.2),
    g.gray_zone_chain(),
    random_explicit_chain(np.random.default_rng(5), 3, 2, 3),
], ids=["rotation", "float theta", "gray zone", "explicit"])
def test_chain_state_factors_match_reference(chain):
    state = g.GPState(chain)
    # out of order, so the factor rows are generated in several blocks; each
    # word's letter picks the factor's largest entry, so its product is not 0
    for m in (1, 3, 2, 9, 4, 17, 40, 5):
        word = tuple(int(np.argmax(np.abs(reference_chain_factor(chain, pos)))) + 1
                     for pos in range(1, m + 1))
        state.word_value(word, word)
        assert len(state._rows) >= m
        for pos in range(1, m + 1):
            assert np.array_equal(state._rows[pos - 1], reference_chain_factor(chain, pos))
    word = tuple(int(x) for x in np.random.default_rng(6).integers(1, chain.n + 1, size=12))
    expected = 1.0 + 0.0j
    for m, letter in enumerate(word, start=1):
        expected *= reference_chain_factor(chain, m)[letter - 1]
    assert state.word_value(word, word) == np.conj(expected) * expected


def test_chain_state_factors_start_at_one():
    state = g.GPState(g.rotation_chain(Fraction(1, 3)))
    assert state._rows == []
    first = reference_chain_factor(state.param, 1)
    assert state.word_value((1,), (1,)) == np.conj(first[0]) * first[0]
    assert np.array_equal(state._rows[0], first)
    # a cycle's table starts as its rows and repeats them with period k
    cyc = g.GPState(g.cycle([E1, E2]))
    assert np.array_equal(cyc._rows, [E1, E2])
    assert cyc.word_value((1, 2, 1), (1, 2, 1)) == 1.0
    assert np.array_equal(cyc._rows[2], E1)


@pytest.mark.parametrize("chain", [
    g.rotation_chain(Fraction(2, 9)),
    g.rotation_chain(0.2),
    g.gray_zone_chain(),
    random_explicit_chain(np.random.default_rng(7), 3, 2, 3),
    g.prefix_chain([random_unit(np.random.default_rng(8), 2) for _ in range(24)]),
], ids=["rotation", "float theta", "gray zone", "explicit", "prefix"])
def test_chain_state_factors_are_the_chain_factors_as_evaluate_grows_the_table(chain):
    count = 24
    rows = g.chain_factors(chain, 1, count)
    state = g.GPState(chain)
    # a word of `count` letters, each on its factor's largest entry, so the
    # product never reaches 0: evaluate reads factors 1..count
    word = tuple(int(i) + 1 for i in np.argmax(np.abs(rows), axis=1))
    state.evaluate(g.word_element(chain.n, word, word))
    assert len(state._rows) >= count
    for m in range(1, count + 1):
        assert np.array_equal(state._rows[m - 1], rows[m - 1])
    if chain.kind == "prefix":
        assert len(state._rows) == count
        with pytest.raises(g.UndecidableError):
            state.evaluate(g.word_element(chain.n, word + (1,), word + (1,)))


@pytest.mark.parametrize("letter", [0, -1, 3, 1.7, "1", None])
def test_word_value_checks_its_letters(letter):
    z = g.cycle([[0.6, 0.8]])
    match = f"letter {letter} outside alphabet 1..2" if isinstance(letter, int) else "must be integers"
    state = g.GPState(z)
    with pytest.raises(ValueError, match=match):
        state.word_value((letter,), ())
    with pytest.raises(ValueError, match=match):
        state.word_value((1,), (1, letter))
    assert state.word_value((np.int64(2),), ()) == 0.8


def test_prefix_chain_state_reads_only_what_it_needs():
    state = g.GPState(g.prefix_chain([E1, E2]))
    assert state.word_value((1, 2), (1, 2)) == 1.0
    # the product vanishes at the first letter, before the prefix runs out
    assert state.word_value((2, 1, 1), (2, 1, 1)) == 0.0
    with pytest.raises(g.UndecidableError):
        state.word_value((1, 2, 1), (1, 2, 1))


def test_cycle_periodic_extension():
    rng = np.random.default_rng(4)
    z = random_cycle(rng, 2, 2)
    state = g.GPState(z)
    j = (1, 2, 1, 2)
    expected = np.conj(
        z.factors[0][0] * z.factors[1][1] * z.factors[0][0] * z.factors[1][1]
    )
    assert abs(state.word_value(j, ()) - expected) < 1e-12


# ----------------------------------------------------------------------
# linear evaluation

def test_state_normalized():
    rng = np.random.default_rng(5)
    assert g.state_eval(random_cycle(rng, 2, 2), g.identity(2)) == 1.0
    assert g.state_eval(random_explicit_chain(rng, 2, 0, 2), g.identity(2)) == 1.0


def test_state_fixed_on_own_isometry():
    # omega(s(z)) = sum over |J| = k of |z(J)|^2 = 1, by brute enumeration
    rng = np.random.default_rng(6)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        z = random_cycle(rng, 2, k)
        state = g.GPState(z)
        brute = 0.0
        for j in itertools.product((1, 2), repeat=k):
            zj = 1.0 + 0j
            for pos, letter in enumerate(j):
                zj *= z.factors[pos][letter - 1]
            brute += abs(zj) ** 2
        value = g.state_eval(z, g.s_of([np.asarray(f) for f in z.factors]))
        assert abs(value - 1.0) < 1e-12
        assert abs(brute - 1.0) < 1e-12


def test_chain_state_gauge_invariant():
    rng = np.random.default_rng(7)
    chain = random_explicit_chain(rng, 2, 1, 2)
    state = g.GPState(chain)
    for _ in range(10):
        from helpers import random_element

        a = random_element(rng, 2, max_word=2, n_terms=4)
        assert abs(state.evaluate(g.conditional_expectation(a)) - state.evaluate(a)) < 1e-12


def bits(value):
    return np.array([value], dtype=complex).tobytes()


def random_param(rng, n, kind):
    if kind == "cycle":
        return random_cycle(rng, n, int(rng.integers(1, 4)))
    if kind == "basis cycle":
        # basis factors make many z(J) exactly 0
        return g.cycle([g.basis_vector(n, int(i)) if rng.random() < 0.6 else random_unit(rng, n)
                        for i in rng.integers(1, n + 1, int(rng.integers(1, 4)))])
    return random_explicit_chain(rng, n, int(rng.integers(0, 3)), int(rng.integers(1, 3)))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4),
       st.sampled_from(["cycle", "basis cycle", "chain"]))
def test_evaluate_is_bit_identical_to_term_by_term_reference(seed, n, kind):
    rng = np.random.default_rng(seed)
    param = random_param(rng, n, kind)
    a = random_element(rng, n, max_word=4, n_terms=int(rng.integers(0, 30)))
    if rng.random() < 0.5:
        # a product repeats each word across many terms
        a = g.multiply(a, random_element(rng, n, max_word=3, n_terms=8).adjoint())
    assert bits(g.state_eval(param, a)) == bits(reference_state_eval(param, a))
    # a state is taken as it is
    state = g.GPState(param)
    assert g.states.as_state(state) is state
    assert bits(g.state_eval(state, a)) == bits(reference_state_eval(param, a))


def test_gram_matrix_is_bit_identical_to_term_by_term_reference():
    rng = np.random.default_rng(12)
    for kind in ("cycle", "basis cycle", "chain"):
        param = random_param(rng, 3, kind)
        elements = [random_element(rng, 3, max_word=3, n_terms=6) for _ in range(5)]
        expected = np.zeros((5, 5), dtype=complex)
        for i, a in enumerate(elements):
            for j in range(i, 5):
                expected[i, j] = reference_state_eval(param, g.multiply(a.adjoint(), elements[j]))
                expected[j, i] = np.conj(expected[i, j])
        assert g.gram_matrix(param, elements).tobytes() == expected.tobytes()


STATE_KINDS = ["cycle", "basis cycle", "rotation", "float rotation", "gray zone",
               "explicit", "prefix"]


def state_param(rng, n, kind):
    """A parameter of the kind; rotations and the gray zone live in C^2."""
    if kind in ("cycle", "basis cycle"):
        return random_param(rng, n, kind)
    if kind == "rotation":
        return g.rotation_chain(Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 12))))
    if kind == "float rotation":
        return g.rotation_chain(float(rng.random()))
    if kind == "gray zone":
        return g.gray_zone_chain()
    if kind == "explicit":
        return random_param(rng, n, "chain")
    # basis factors end many products before the prefix runs out
    return g.prefix_chain([g.basis_vector(n, int(rng.integers(1, n + 1))) if rng.random() < 0.5
                           else random_unit(rng, n) for _ in range(int(rng.integers(1, 5)))])


def with_zero_terms(rng, a):
    """`a` built directly, with some coefficients made 0 or -0 and some
    words of value 0 added."""
    terms = dict(a.terms)
    for key in list(terms)[::3]:
        terms[key] = complex(-0.0, 0.0) if rng.random() < 0.5 else 0j
    terms[(1,) * 3, (a.n,) * 2] = complex(rng.normal(), rng.normal())
    return g.AlgebraElement(a.n, terms)


def outcome(compute, arg):
    """compute(arg), or the type of the error it raised."""
    try:
        return compute(arg)
    except Exception as exc:
        return type(exc)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from(STATE_KINDS))
def test_evaluate_matches_the_numpy_scalar_reference(seed, n, kind):
    rng = np.random.default_rng(seed)
    param = state_param(rng, n, kind)
    n = param.n
    elements = []
    for _ in range(4):
        a = random_element(rng, n, max_word=4, n_terms=int(rng.integers(0, 20)))
        if rng.random() < 0.5:
            a = g.multiply(a, random_element(rng, n, max_word=3, n_terms=6).adjoint())
        elements.append(with_zero_terms(rng, a) if rng.random() < 0.5 else a)
    # one state each for all elements, so the factor rows carry over between calls
    state, reference = g.GPState(param), g.GPState(param)
    for a in elements:
        expected = outcome(lambda x: bits(reference_evaluate(reference, x)), a)
        assert outcome(lambda x: bits(state.evaluate(x)), a) == expected
    gram = outcome(lambda xs: g.gram_matrix(param, xs).tobytes(), elements)
    assert gram == outcome(lambda xs: reference_gram_matrix(param, xs).tobytes(), elements)


def test_evaluate_keeps_no_word_values_between_calls():
    state = g.GPState(random_cycle(np.random.default_rng(2), 2, 3))
    before = dict(vars(state))
    state.evaluate(g.s_of([random_unit(np.random.default_rng(3), 2) for _ in range(6)]))
    assert vars(state).keys() == before.keys()


def test_state_rank_mismatch():
    with pytest.raises(g.RankMismatchError):
        g.state_eval(g.cycle([E1]), g.identity(3))


# ----------------------------------------------------------------------
# Gram matrices

def test_gram_identity_on_identity():
    gram = g.gram_matrix(g.cycle([E1]), [g.identity(2)])
    assert np.allclose(gram, [[1.0]])


def test_gram_psd_with_fixed_direction():
    words = [g.word_element(2, j) for j in all_words(2, 2)]
    gram = g.gram_matrix(g.cycle([E1]), words)
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-10
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8
    # the words fixed by the state give a unit eigenvalue direction
    assert eigs.max() > 1.0


def test_gram_of_anchor_words_is_identity():
    rng = np.random.default_rng(8)
    for _ in range(5):
        z = random_nonperiodic_cycle(rng, 2, 3)
        words = [
            g.s_of([np.asarray(f) for f in z.factors[i:]]) for i in range(z.k)
        ]
        gram = g.gram_matrix(z, words)
        assert np.max(np.abs(gram - np.eye(z.k))) < 1e-9


def test_gram_positivity_random_parameters():
    rng = np.random.default_rng(9)
    words = [g.word_element(2, j) for j in all_words(2, 3)]
    for trial in range(20):
        if trial % 2 == 0:
            param = random_cycle(rng, 2, int(rng.integers(1, 4)))
        else:
            param = random_explicit_chain(rng, 2, int(rng.integers(0, 2)), int(rng.integers(1, 3)))
        gram = g.gram_matrix(param, words)
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


# ----------------------------------------------------------------------
# gauge covariance

def test_scaled_parameter_matches_gauge_twist():
    rng = np.random.default_rng(10)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        z = random_cycle(rng, 2, k)
        c = np.exp(2j * np.pi * rng.random())
        scaled = g.GPState(g.scale_cycle(z, c))
        plain = g.GPState(z)
        u = np.exp(np.log(c) / k)
        for j in all_words(2, k):
            for kk in all_words(2, k):
                if (len(j) - len(kk)) % k:
                    continue
                w = g.word_element(2, j, kk)
                lhs = scaled.evaluate(w)
                rhs = plain.evaluate(g.gauge_action(np.conj(u), w))
                assert abs(lhs - rhs) < 1e-10


# ----------------------------------------------------------------------
# vacuum property of the anticommutation embedding

def test_fock_annihilation():
    products = [g.multiply(a.adjoint(), a) for a in map(g.car_generator, range(1, 5))]
    vacuum = g.GPState(g.explicit_chain([E1]))
    for product in products:
        value = g.algebra._fock_vacuum(product)
        assert abs(value) < 1e-10
        assert repr(value) == repr(vacuum.evaluate(product))


def vacuum_words(min_size=0, max_size=5):
    return st.lists(st.sampled_from((1, 2)), min_size=min_size, max_size=max_size).map(tuple)


# words over {1, 2} of up to 5 letters: pairs of any lengths, of equal
# lengths and equal pairs, so that J = K = 1^m and J = 1^m != K both turn up;
# coefficients built of +-1, +-0.0, dyadic and other finite parts
vacuum_keys = st.one_of(
    st.tuples(vacuum_words(), vacuum_words()),
    st.integers(0, 5).flatmap(lambda m: st.tuples(vacuum_words(m, m), vacuum_words(m, m))),
    vacuum_words().map(lambda w: (w, w)),
)
vacuum_parts = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.5, -0.375, 2.0**-30, 3.0]),
                         st.floats(-4.0, 4.0))
vacuum_coeffs = st.builds(complex, vacuum_parts, vacuum_parts)


@given(st.dictionaries(vacuum_keys, vacuum_coeffs, max_size=12))
def test_word_vacuum_is_the_e1_chain_state_to_the_bit(terms):
    # built directly, so that zero coefficients of either sign are kept
    a = g.AlgebraElement(2, terms)
    expected = g.GPState(g.explicit_chain([g.basis_vector(2, 1)])).evaluate(a)
    assert repr(g.algebra._fock_vacuum(a)) == repr(expected)


def test_word_vacuum_refuses_another_rank():
    with pytest.raises(g.RankMismatchError):
        g.algebra._fock_vacuum(g.identity(3))


def test_fock_negative_control():
    # against the e_2 cycle the first generator image creates instead
    state = g.GPState(g.cycle([E2]))
    a = g.car_generator(1)
    value = state.evaluate(g.multiply(a.adjoint(), a))
    assert abs(value - 1.0) < 1e-12



# ----------------------------------------------------------------------
# the decomposition formulae as exact state identities

@st.composite
def _word_pairs(draw, n, max_len, period):
    """1-12 pairs (J, K) over 1..n with |J|, |K| <= max_len, about half with
    |J| - |K| a multiple of `period`, where the pieces' states need not
    vanish."""
    letters = st.integers(1, n)
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(0, max_len))
        if draw(st.booleans()):
            other = draw(st.sampled_from(range(size % period, max_len + 1, period)))
        else:
            other = draw(st.integers(0, max_len))
        pairs.append(tuple(tuple(draw(st.lists(letters, min_size=m, max_size=m)))
                           for m in (size, other)))
    return pairs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), k=st.integers(1, 3),
       p=st.integers(2, 4), data=st.data())
def test_cycle_state_is_the_mean_of_its_pieces(seed, n, k, p, data):
    # omega_z = (1/p) sum_j omega_(piece j) for z = v^(x p), v nonperiodic,
    # here tiled with factor phases of product 1
    rng = np.random.default_rng(seed)
    v = random_nonperiodic_cycle(rng, n, k)
    phases = np.exp(2j * np.pi * rng.uniform(size=p * k))
    phases[-1] /= np.prod(phases)
    z = g.CycleParam(np.tile(v.rows, (p, 1)) * phases[:, None])
    pieces = g.decompose_cycle(z)
    assert len(pieces) == p and all(piece.k == k for piece in pieces)
    words = data.draw(_word_pairs(n, 2 * p * k + 1, k))
    assert state_mixture_gap(z, pieces, words) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), k=st.integers(1, 3),
       p=st.integers(1, 4), data=st.data())
def test_periodic_chain_state_is_the_circle_mean_of_its_base(seed, n, k, p, data):
    # a purely periodic chain with period block v^(x p) times factor phases:
    # omega_z is the Haar integral of omega_(c base), which the mean over
    # L + 1 equally spaced c gives exactly on words of length <= L
    rng = np.random.default_rng(seed)
    v = random_nonperiodic_cycle(rng, n, k)
    phases = np.exp(2j * np.pi * rng.uniform(size=p * k))
    z = g.explicit_chain(list(np.tile(v.rows, (p, 1)) * phases[:, None]))
    base = g.decompose_chain(z).base
    assert base.k == k
    max_len = 2 * p * k + 1
    words = data.draw(_word_pairs(n, max_len, k))
    assert state_mixture_gap(z, circle_fibers(base, max_len + 1), words) <= 1e-12
