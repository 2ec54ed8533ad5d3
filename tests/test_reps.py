"""Truncated representations: construction, relations, bases, exports."""

import dataclasses
import gc
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import gpcuntz as g
from helpers import (
    exhaust_omega_lists,
    exhaust_stacked_lists,
    random_element,
    random_nonperiodic_cycle,
    random_unit,
    reference_apply_element,
    reference_apply_gen,
    reference_apply_isometry,
    reference_chain_vector,
    reference_cycle_isometry,
    reference_export_coo,
    reference_export_json,
    reference_full_tensor,
    reference_gram,
    reference_layered_gens,
    reference_numeric_cycle_eigencheck,
    reference_power_vanish,
    reference_prefixes,
    reference_relation_residuals,
    reference_vector_isometry,
)

E1 = g.basis_vector(2, 1)
E2 = g.basis_vector(2, 2)


# ----------------------------------------------------------------------
# unitary completion

def test_complete_unitary_identity_seed():
    assert np.allclose(g.complete_unitary(E1), np.eye(2))


def test_complete_unitary_swapped_seed():
    u = g.complete_unitary(np.array([0.0, 1.0]))
    assert np.allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_complete_unitary_contract():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        for _ in range(10):
            z = random_unit(rng, n)
            u = g.complete_unitary(z)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-10
            assert np.allclose(u[:, 0], z)


def test_complete_unitary_rejects_non_unit():
    with pytest.raises(ValueError):
        g.complete_unitary(np.array([1.0, 1.0]))


# ----------------------------------------------------------------------
# cycle representations

def test_standard_representation_structure():
    for n in (2, 3):
        rep = g.build_cycle_rep(g.cycle([g.basis_vector(n, 1)]), 3)
        for i in range(1, n + 1):
            mat = rep.gens[i - 1].toarray()
            for m in range(1, n ** 2 + 1):
                target = n * (m - 1) + i
                assert mat[target - 1, m - 1] == 1.0
        assert np.argmax(np.abs(rep.omega)) == 0


def test_two_step_example_on_rank_three():
    # the rank-3 cycle with two e_1 factors swaps the two layers along s_1
    rep = g.build_cycle_rep(g.cycle([g.basis_vector(3, 1)] * 2), 3)
    s1 = rep.gens[0]
    v = np.zeros(rep.dim, dtype=complex)
    v[rep.index(1, 1)] = 1.0
    w = s1 @ v
    assert abs(w[rep.index(2, 1)] - 1.0) < 1e-12
    assert abs((s1 @ w)[rep.index(1, 1)] - 1.0) < 1e-12


def test_cycle_rep_eigenequation():
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        z = g.cycle([random_unit(rng, 2) for _ in range(k)])
        rep = g.build_cycle_rep(z, 5)
        fixed = reference_cycle_isometry(rep, z.factors) @ rep.omega
        assert np.linalg.norm(fixed - rep.omega) < 1e-12
        assert abs(np.vdot(rep.omega, fixed) - 1.0) < 1e-12


def test_cycle_rep_depth_validation():
    with pytest.raises(ValueError):
        g.build_cycle_rep(g.cycle([E1]), 1)


def test_basis_labels_refuse_what_is_outside_the_truncation():
    rep = g.build_cycle_rep(g.cycle([E1, E2]), 3)
    labels = [(layer, m) for layer in (1, 2) for m in range(1, 9)]
    assert [rep.index(*label) for label in labels] == list(range(rep.dim))
    assert [rep.label_of(idx) for idx in range(rep.dim)] == labels
    # unchecked, these would name (1, 8), (2, 1) and (2, 8)
    for m in (0, 9):
        with pytest.raises(ValueError, match=f"m = {m} is outside 1..8"):
            rep.index(2 if m == 0 else 1, m)
    for idx in (-1, 16):
        with pytest.raises(ValueError, match=f"index {idx} is outside 0..15"):
            rep.label_of(idx)
    with pytest.raises(ValueError):
        rep.index(3, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: g.build_cycle_rep(g.cycle([[0.6, 0.8]]), 2.5), "depth must be an integer, got 2.5"),
    (lambda: g.build_fiber_rep(g.cycle([[0.6, 0.8]]), 1, 3.0), "depth must be an integer, got 3.0"),
    (lambda: g.build_chain_rep(g.rotation_chain(Fraction(1, 3)), 2.5),
     "depth must be an integer, got 2.5"),
    (lambda: g.build_chain_rep(g.rotation_chain(Fraction(1, 3)), 3, 1.5, 2),
     "window extent must be an integer, got 1.5"),
    (lambda: g.build_chain_rep(g.rotation_chain(Fraction(1, 3)), 3, 1, 2.5),
     "window extent must be an integer, got 2.5"),
], ids=["build_cycle_rep", "build_fiber_rep", "build_chain_rep-depth",
        "build_chain_rep-d_minus", "build_chain_rep-d_plus"])
def test_non_integral_depths_and_windows_are_refused(call, message):
    # build_cycle_rep(z, 2.5) gave a truncation of depth 2.5
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_are_depths_and_windows():
    chain = g.rotation_chain(Fraction(1, 3))
    rep = g.build_chain_rep(chain, np.int64(3), np.int32(1), np.int64(2))
    assert rep.dim == g.build_chain_rep(chain, 3, 1, 2).dim
    assert g.build_cycle_rep(g.cycle([[0.6, 0.8]]), np.int64(3)).dim == 8


def test_basis_index_refuses_a_non_integral_m_and_names_an_unknown_layer():
    rep = g.build_cycle_rep(g.cycle([[0.6, 0.8]]), 3)
    # unchecked, m = 1.5 gave the index 0.5
    for m in (1.5, 2.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            rep.index(1, m)
    assert rep.index(1, np.int64(2)) == rep.index(1, np.int32(2)) == 1
    # the layer and label_of's index go through operator.index as well:
    # index(1.0, 1) gave 0, and label_of(np.int64(3)) kept the numpy type
    for call in (lambda: rep.index(1.0, 1), lambda: rep.index(np.float64(1.0), 1),
                 lambda: rep.label_of(1.5), lambda: rep.label_of(3.0)):
        with pytest.raises(TypeError):
            call()
    assert rep.index(np.int64(1), 2) == 1
    label = rep.label_of(np.int64(3))
    assert label == (1, 4) and type(label[1]) is int
    with pytest.raises(ValueError, match=r"layer 7 is not one of the truncation's layers \(1,\)"):
        rep.index(7, 1)
    chain = g.build_chain_rep(g.gray_zone_chain(), 2, 1, 2)
    with pytest.raises(ValueError, match=r"layer -2 is not one of .* \(-1, 0, 1, 2\)"):
        chain.index(-2, 1)


# ----------------------------------------------------------------------
# chain representations

def test_constant_chain_is_permutative():
    rep = g.build_chain_rep(g.explicit_chain([E1]), 3)
    for t in range(-2, 3):
        vec = g.reps.chain_vector(rep, t)
        expected = np.zeros(rep.dim, dtype=complex)
        expected[rep.index(t, 1)] = 1.0
        assert np.linalg.norm(vec - expected) < 1e-12


def test_chain_backward_family_orthonormal():
    rng = np.random.default_rng(3)
    chain = g.explicit_chain(
        [random_unit(rng, 2) for _ in range(2)], [random_unit(rng, 2)]
    )
    rep = g.build_chain_rep(chain, 4, d_minus=2, d_plus=3)
    family = [g.reps.chain_vector(rep, t) for t in range(-2, 4)]
    gram = np.stack(family, axis=1)
    gram = gram.conj().T @ gram
    assert np.max(np.abs(gram - np.eye(len(family)))) < 1e-12


def test_chain_step_relation():
    rng = np.random.default_rng(4)
    chain = g.explicit_chain([random_unit(rng, 2) for _ in range(3)])
    rep = g.build_chain_rep(chain, 4)
    for t in range(-2, 5):
        e_t = g.reps.chain_vector(rep, t)
        e_prev = g.reps.chain_vector(rep, t - 1)
        factor = g.chain_factor(chain, t) if t >= 1 else E1
        step = reference_vector_isometry(rep, factor) @ e_t
        assert np.linalg.norm(step - e_prev) < 1e-12


def test_chain_rep_masks():
    # the bottom layer has no step down, the top layer is no step target
    rng = np.random.default_rng(22)
    chain = g.explicit_chain([random_unit(rng, 3) for _ in range(2)])
    rep = g.build_chain_rep(chain, 3, d_minus=2, d_plus=3)
    blk, inner = 3 ** 3, 3 ** 2
    assert rep.layers == (-2, -1, 0, 1, 2, 3)
    interior = np.zeros(rep.dim, dtype=bool)
    for pos, t in enumerate(rep.layers):
        if t != -2:
            interior[pos * blk : pos * blk + inner] = True
    assert np.array_equal(rep.interior, interior)
    assert [rep.layers[pos] for pos in rep.step_targets] == [-2, -1, 0, 1, 2]


def test_chain_rejects_prefix_kind():
    with pytest.raises(ValueError):
        g.build_chain_rep(g.prefix_chain([E1]), 3)


def test_truncations_carry_the_factor_rows_they_realize():
    rng = np.random.default_rng(4)
    z = g.cycle([random_unit(rng, 3) for _ in range(2)])
    c = np.exp(0.7j)
    chain = g.rotation_chain(Fraction(2, 7))
    cases = [
        (g.build_cycle_rep(z, 3), z.rows),
        (g.build_fiber_rep(z, c, 3), g.scale_cycle(z, c).rows),
        (g.build_chain_rep(chain, 3, 2, 5), g.chain_factors(chain, 1, 5)),
    ]
    for rep, rows in cases:
        assert rep.factor_rows.tobytes() == rows.tobytes()
        assert not rep.factor_rows.flags.writeable


def test_chain_factors_are_generated_once_per_truncation(monkeypatch):
    calls = []
    generate = g.params.chain_factors

    def counted(chain, start, count):
        calls.append((start, count))
        return generate(chain, start, count)

    monkeypatch.setattr(g.params, "chain_factors", counted)
    monkeypatch.setattr(g.reps, "chain_factors", counted)
    rep = g.build_chain_rep(g.gray_zone_chain(), 4, 2, 3)
    assert calls == [(1, 3)]
    g.verify_gp(rep)
    g.enumerate_basis(rep, 2)
    for t in range(-2, 4):
        g.chain_vector(rep, t)
    assert calls == [(1, 3)]


# ----------------------------------------------------------------------
# fiber representations

def test_fiber_phase_one_matches_plain_cycle():
    rng = np.random.default_rng(5)
    z = g.cycle([random_unit(rng, 2) for _ in range(2)])
    plain = g.build_cycle_rep(z, 4)
    fiber = g.build_fiber_rep(z, 1.0, 4)
    for a, b in zip(plain.gens, fiber.gens):
        assert abs(a - b).max() == 0.0
    assert np.array_equal(plain.omega, fiber.omega)
    assert np.array_equal(plain.interior, fiber.interior)
    assert np.array_equal(plain.step_targets, fiber.step_targets)


def test_fiber_eigenequation():
    rng = np.random.default_rng(6)
    z = g.cycle([random_unit(rng, 2) for _ in range(2)])
    c = np.exp(1.1j)
    rep = g.build_fiber_rep(z, c, 4)
    scaled = g.scale_cycle(z, c)
    fixed = reference_cycle_isometry(rep, scaled.factors) @ rep.omega
    assert np.linalg.norm(fixed - rep.omega) < 1e-12


def test_fiber_minus_one_flips_fixed_vector():
    rep = g.build_fiber_rep(g.cycle([E1]), -1.0, 3)
    out = reference_vector_isometry(rep, E1) @ rep.omega
    assert np.linalg.norm(out + rep.omega) < 1e-12


def test_fiber_requires_unimodular_phase():
    with pytest.raises(ValueError):
        g.build_fiber_rep(g.cycle([E1]), 0.5, 3)


# ----------------------------------------------------------------------
# basis enumeration

def test_enumerate_basis_single_vector():
    rep = g.build_cycle_rep(g.cycle([E1]), 3)
    fam = g.enumerate_basis(rep, 1)
    assert len(fam) == 2
    vectors = np.stack([v for _, v in fam], axis=1)
    expected = np.zeros((rep.dim, 2))
    expected[0, 0] = 1.0
    expected[1, 1] = 1.0
    assert np.max(np.abs(vectors - expected)) < 1e-12


def test_enumerate_basis_counts_and_gram():
    rng = np.random.default_rng(7)
    for n, k, d in ((2, 1, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2)):
        z = g.cycle([random_unit(rng, n) for _ in range(k)])
        rep = g.build_cycle_rep(z, d + k)
        fam = g.enumerate_basis(rep, d)
        assert len(fam) == k * n ** d
        mat = np.stack([v for _, v in fam], axis=1)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram - np.eye(len(fam)))) < 1e-9


def test_enumerate_basis_depth_zero_anchors():
    rng = np.random.default_rng(8)
    z = g.cycle([random_unit(rng, 2) for _ in range(3)])
    rep = g.build_cycle_rep(z, 5)
    fam = g.enumerate_basis(rep, 0)
    assert len(fam) == 3
    assert all(label.depth == 0 for label, _ in fam)


def test_anchor_family_orthonormal_for_random_nonperiodic_cycles():
    rng = np.random.default_rng(20)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        z = random_nonperiodic_cycle(rng, 2, k)
        rep = g.build_cycle_rep(z, k + 2)
        fam = g.enumerate_basis(rep, 0)
        mat = np.stack([v for _, v in fam], axis=1)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram - np.eye(k))) < 1e-9


def test_enumerate_basis_insufficient_depth():
    rep = g.build_cycle_rep(g.cycle([E1, E2]), 3)
    with pytest.raises(ValueError):
        g.enumerate_basis(rep, 3)


def test_enumerate_chain_basis():
    rng = np.random.default_rng(9)
    chain = g.explicit_chain([random_unit(rng, 2) for _ in range(2)])
    rep = g.build_chain_rep(chain, 4)
    fam = g.enumerate_basis(rep, 3)
    assert len(fam) == 3 * 2 ** 2
    mat = np.stack([v for _, v in fam], axis=1)
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(len(fam)))) < 1e-9


def test_enumerate_chain_basis_depth_zero_anchors():
    rep = g.build_chain_rep(g.gray_zone_chain(), 4, 2, 3)
    fam = g.enumerate_basis(rep, 0)
    assert [label for label, _ in fam] == [g.BasisLabel(1, t) for t in (-1, 0, 1)]
    for label, vec in fam:
        assert np.array_equal(vec, g.chain_vector(rep, label.anchor))


def test_enumerate_chain_basis_needs_an_anchor_layer():
    rep = g.build_chain_rep(g.explicit_chain([[1, 0]]), 4, 1, 1)
    # depth 3 from any anchor of -1..1 would climb past layer 1
    with pytest.raises(ValueError, match=r"no anchor layer of -1\.\.1 fits depth 3 "
                                         r"in the window \[-1, 1\]"):
        g.enumerate_basis(rep, 3)
    with pytest.raises(ValueError, match="exceeds the truncation depth"):
        g.enumerate_basis(rep, 5)
    labels = [label for label, _ in g.enumerate_basis(rep, 1)]
    assert labels == [g.BasisLabel(1, 0), g.BasisLabel(1, 1)]


def _seed_word_vector(rep, base, word):
    # reference: the word applied to its branch vector one letter at a time
    vec = base
    for letter in reversed(word):
        vec = rep.gens[letter - 1] @ vec
    return vec


def _assert_matches_word_oracle(rep, fam, expected_labels, branch_base):
    assert [label for label, _ in fam] == expected_labels
    for label, vec in fam:
        if label.branch == 0:
            continue
        base = branch_base(label)
        assert np.array_equal(vec, _seed_word_vector(rep, base, label.prefix)), label


def test_enumerate_basis_matches_word_oracle_on_cycles():
    rng = np.random.default_rng(23)
    cases = (
        (g.build_cycle_rep(g.cycle([random_unit(rng, 2) for _ in range(2)]), 5), 3),
        (g.build_fiber_rep(g.cycle([random_unit(rng, 3)]), np.exp(0.9j), 3), 2),
    )
    for rep, max_depth in cases:
        factors = rep.factor_rows
        k, n = len(factors), rep.n
        anchors = g.reps.cycle_anchor_vectors(rep)
        expected = [g.BasisLabel(0, a) for a in range(1, k + 1)]
        for a in range(1, k + 1):
            expected += [g.BasisLabel(1, a, j) for j in range(2, n + 1)]
            for depth in range(2, max_depth + 1):
                for j in range(2, n + 1):
                    for word in itertools.product(range(1, n + 1), repeat=depth - 1):
                        expected.append(g.BasisLabel(depth, a, j, word))

        def branch_base(label):
            u = g.complete_unitary(factors[label.anchor - 1])
            column = u[:, label.branch - 1]
            return g.reps._apply_isometry(rep, column, anchors[label.anchor % k])

        fam = g.enumerate_basis(rep, max_depth)
        _assert_matches_word_oracle(rep, fam, expected, branch_base)


def test_enumerate_basis_matches_word_oracle_on_chain():
    rng = np.random.default_rng(24)
    chain = g.explicit_chain([random_unit(rng, 2) for _ in range(3)], [random_unit(rng, 2)])
    rep = g.build_chain_rep(chain, 4, d_minus=2, d_plus=4)
    max_depth = 3
    expected = []
    for t in (-1, 0, 1):
        expected.append(g.BasisLabel(1, t))
        for depth in range(2, max_depth + 1):
            # rank 2: the completion has the single branch column j = 2
            for word in itertools.product((1, 2), repeat=depth - 2):
                expected.append(g.BasisLabel(depth, t, 2, word))

    def branch_base(label):
        top = label.anchor + label.depth - 1
        factor = g.chain_factor(chain, top) if top >= 1 else E1
        column = g.complete_unitary(factor)[:, label.branch - 1]
        return g.reps._apply_isometry(rep, column, g.reps.chain_vector(rep, top))

    fam = g.enumerate_basis(rep, max_depth)
    _assert_matches_word_oracle(rep, fam, expected, branch_base)
    for label, vec in fam:
        if label.branch == 0:
            assert np.array_equal(vec, g.reps.chain_vector(rep, label.anchor))


# ----------------------------------------------------------------------
# applying elements

def test_apply_identity_and_relations():
    rng = np.random.default_rng(10)
    z = g.cycle([random_unit(rng, 2) for _ in range(2)])
    rep = g.build_cycle_rep(z, 4)
    v = np.zeros(rep.dim, dtype=complex)
    v[rep.index(2, 3)] = 1.0
    assert np.allclose(g.apply_element(rep, g.identity(2), v), v)
    out = g.apply_element(rep, g.parse("s1* s1", 2), v)
    assert np.linalg.norm(out - v) < 1e-12
    # a linear combination against the dense generator matrices
    s1, s2 = (m.toarray() for m in rep.gens)
    w = np.zeros(rep.dim, dtype=complex)
    w[rep.index(1, 2)] = 1.0
    dense = 0.5 * s1 @ s2.conj().T @ w - 1j * s2 @ w + w
    out = g.apply_element(rep, g.parse("0.5 s1 s2* - i s2 + I", 2), w)
    assert np.linalg.norm(out - dense) < 1e-12


def test_apply_fixed_vector():
    rng = np.random.default_rng(11)
    z = g.cycle([random_unit(rng, 2) for _ in range(2)])
    rep = g.build_cycle_rep(z, 4)
    elem = g.s_of([np.asarray(f) for f in z.factors])
    assert np.linalg.norm(g.apply_element(rep, elem, rep.omega) - rep.omega) < 1e-12


def test_apply_detects_overflow():
    rep = g.build_cycle_rep(g.cycle([E1]), 3)
    deep = g.word_element(2, (2,) * 4)
    with pytest.raises(g.TruncationOverflowError):
        g.apply_element(rep, deep, rep.omega)


def test_truncation_overflow_is_a_value_error_and_a_runtime_error():
    rep = g.build_cycle_rep(g.cycle([E1]), 3)
    deep = g.word_element(2, (2,) * 4)
    for base in (ValueError, RuntimeError):
        with pytest.raises(base):
            g.apply_element(rep, deep, rep.omega)


def test_apply_detects_chain_ceiling():
    rep = g.build_chain_rep(g.explicit_chain([E1]), 2, d_minus=1, d_plus=1)
    climb = g.word_element(2, (), (1, 1))
    with pytest.raises(g.TruncationOverflowError):
        g.apply_element(rep, climb, rep.omega)


def test_apply_refuses_a_vector_of_another_length():
    rep = g.build_cycle_rep(g.cycle([E1]), 5)
    with pytest.raises(ValueError, match=r"vector of shape \(3,\) does not fit a truncation "
                                         r"of dimension 32"):
        g.apply_element(rep, g.parse("s1* + s2", 2), np.ones(3))


# ----------------------------------------------------------------------
# verification

def test_verify_standard_rep_is_exact():
    rep = g.build_cycle_rep(g.cycle([E1]), 4)
    report = g.verify_gp(rep)
    assert report.max_residual() == 0.0
    assert report.passed(1e-12)


def test_verify_random_cycles():
    rng = np.random.default_rng(12)
    for _ in range(5):
        z = random_nonperiodic_cycle(rng, 2, int(rng.integers(1, 4)))
        rep = g.build_cycle_rep(z, 4)
        report = g.verify_gp(rep)
        assert report.passed(1e-10), report.to_dict()


def test_verify_random_chain():
    rng = np.random.default_rng(13)
    chain = g.explicit_chain([random_unit(rng, 3) for _ in range(2)])
    report = g.verify_gp(g.build_chain_rep(chain, 4))
    assert report.passed(1e-10), report.to_dict()


def test_verify_takes_the_least_singular_value_from_the_gram_matrix(monkeypatch):
    rng = np.random.default_rng(14)
    reps = [
        g.build_cycle_rep(random_nonperiodic_cycle(rng, 3, 2), 4),
        g.build_chain_rep(g.gray_zone_chain(), 4, 2, 3),
    ]
    # the depth-2 basis family verify_gp checks, and its singular values
    expected = [
        np.linalg.svd(np.stack([v for _, v in g.enumerate_basis(rep, 2)], axis=1),
                      compute_uv=False)[-1]
        for rep in reps
    ]

    def no_svd(*_args, **_kwargs):
        raise AssertionError("verify_gp took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for rep, sigma in zip(reps, expected):
        assert abs(g.verify_gp(rep).basis_min_singular - sigma) < 1e-12


def _unit_with_zeros(rng, n):
    """e_1, a signed basis vector or a signed (0.6, 0.8) pair: exact zeros,
    so the generators' sparsity patterns differ."""
    return g.basis_vector(n, 1) if rng.random() < 0.3 else _real_unit(rng, n)


@st.composite
def _operator_cases(draw):
    """(rep, v, x): a cycle, fiber or chain truncation at N = 2 or 3, a
    vector of C^N and a random vector of the truncation."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([2, 3]))
    family = draw(st.sampled_from(["cycle", "fiber", "rotation", "explicit"]))
    unit = random_unit if draw(st.booleans()) else _unit_with_zeros
    depth = draw(st.integers(2, 4))
    if family == "rotation":
        n = 2
        # numerator 0 makes every factor e_1 exactly
        den = draw(st.integers(1, 8))
        chain = g.rotation_chain(Fraction(draw(st.integers(0, den - 1)), den))
        rep = g.build_chain_rep(chain, depth, draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    elif family == "explicit":
        chain = g.explicit_chain([unit(rng, n) for _ in range(draw(st.integers(1, 3)))],
                                 [unit(rng, n) for _ in range(draw(st.integers(0, 2)))])
        rep = g.build_chain_rep(chain, depth, draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    else:
        z = g.cycle([unit(rng, n) for _ in range(draw(st.integers(1, 3)))])
        rep = (g.build_cycle_rep(z, depth) if family == "cycle"
               else g.build_fiber_rep(z, np.exp(2j * np.pi * rng.random()), depth))
    v = rep.factor_rows[0] if draw(st.booleans()) else unit(rng, n)
    x = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    return rep, v, x


@settings(max_examples=150, deadline=None)
@given(case=_operator_cases())
def test_isometry_routine_matches_the_assembled_matrix(case):
    rep, v, x = case
    mat = reference_vector_isometry(rep, v)
    bound = 1e-14 * np.linalg.norm(x)
    assert np.linalg.norm(g.reps._apply_isometry(rep, v, x) - mat @ x) <= bound
    adjoint = g.reps._apply_isometry(rep, v, x, adjoint=True)
    assert np.linalg.norm(adjoint - mat.conjugate().transpose() @ x) <= bound


@settings(max_examples=150, deadline=None)
@given(case=_operator_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_apply_element_matches_the_adjoint_copy_route(case, seed):
    rep, _, x = case
    rng = np.random.default_rng(seed)
    element = random_element(rng, rep.n, max_word=2, n_terms=4)
    # a vector with room for two letters either way: m <= N^(D-2), and on a
    # chain two layers clear of either end of the window
    keep = np.arange(rep.dim) % rep.block < rep.n ** (rep.depth - 2)
    if rep.window is not None:
        layers = np.repeat(rep.layers, rep.block)
        keep &= (layers >= 2 - rep.window[0]) & (layers <= rep.window[1] - 2)
    vec = np.where(keep, x, 0.0)
    expected = reference_apply_element(rep, element, vec)
    assert g.apply_element(rep, element, vec).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_operator_cases(), k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_power_vanish_matches_the_assembled_product(case, k, seed):
    rep, _, x = case
    rng = np.random.default_rng(seed)
    own = g.CycleParam(rep.factor_rows) if rep.kind != "chain" else None
    z = own if own is not None and rng.random() < 0.5 else g.cycle(
        [_unit_with_zeros(rng, rep.n) if rng.random() < 0.5 else random_unit(rng, rep.n)
         for _ in range(k)])
    x = x / np.linalg.norm(x)
    mine = g.power_vanish(rep, z, x, 3)
    assert np.max(np.abs(mine - reference_power_vanish(rep, z, x, 3))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]), k=st.integers(1, 2),
       p=st.integers(1, 3), zeros=st.booleans())
def test_eigencheck_matches_the_assembled_product(seed, n, k, p, zeros):
    rng = np.random.default_rng(seed)
    if zeros:
        v = g.cycle([g.basis_vector(n, 1)] + [_real_unit(rng, n) for _ in range(k - 1)])
        if g.primitive_root(v)[1] != 1:
            v = g.cycle([g.basis_vector(n, 1)])
    else:
        v = random_nonperiodic_cycle(rng, n, k)
    mine = g.numeric_cycle_eigencheck(v, p)
    assert np.max(np.abs(mine - reference_numeric_cycle_eigencheck(v, p))) < 1e-9


def _apply_gen(rep, i, x, transpose=False):
    """S_(i+1) x, or S_(i+1)^T x, of a dense vector or a stack of column
    vectors, through the held kernel."""
    if x.ndim == 2:
        return np.stack([_apply_gen(rep, i, col, transpose) for col in x.T], axis=1)
    return g.reps._dense(rep, g.reps._gen_held(rep, i, g.reps._prefixes(rep, x), transpose))


def _chain_vectors(rep, lo, hi):
    """{t: E_t} of `_chain_walk`, dense; E_t for t > 0 is an adjoint's."""
    return {t: g.reps._dense(rep, vec, adjoint=t > 0)
            for t, vec in g.reps._chain_walk(rep, lo, hi)}


class _Untouchable:
    """Stands in for `rep.gens`: any use of it fails."""

    def _refuse(self, *_args):
        raise AssertionError("an operator read rep.gens")

    __getitem__ = __iter__ = __len__ = _refuse


def _operator_outputs(rep, z, element):
    """Every vector the anchor or chain walk, `enumerate_basis`,
    `apply_element` and `power_vanish` return for `rep`, as bytes."""
    if rep.kind == "chain":
        d_minus, d_plus = rep.window
        walked = list(_chain_vectors(rep, -d_minus, d_plus).values())
    else:
        walked = g.cycle_anchor_vectors(rep)
    basis = [vec for depth in (1, 2) for _, vec in g.enumerate_basis(rep, depth)]
    # the first two are Omega and E_1 on a chain, clear of its top layer
    applied = [g.apply_element(rep, element, vec) for vec in walked[:2]]
    norms = [g.power_vanish(rep, z, vec, 3) for vec in walked]
    return [vec.tobytes() for vec in walked + basis + applied + norms]


@pytest.mark.parametrize("rep, z, element", [
    (g.build_fiber_rep(g.cycle([[0.6, 0.8j], [0.28j, 0.96], [0.8, 0.36 + 0.48j]]),
                       np.exp(0.4j), 5),
     g.cycle([[0.6, 0.8j], [0.28j, 0.96], [0.8, 0.36 + 0.48j]]), g.parse("s1* + 0.5 s2 s1*", 2)),
    (g.build_cycle_rep(g.cycle([g.basis_vector(3, 1), [0.6, 0.0, 0.8j]]), 4),
     g.cycle([[0.6, 0.0, 0.8j]]), g.parse("s3* s1 - i s2*", 3)),
    (g.build_chain_rep(g.gray_zone_chain(), 4, 2, 3), g.cycle([E2]), g.parse("s1* + s2 s2*", 2)),
    (g.build_chain_rep(g.rotation_chain(Fraction(2, 7)), 5, 2, 3), g.cycle([E1]),
     g.parse("s1* s2 + s2*", 2)),
    (g.build_chain_rep(g.explicit_chain([E1, E2], [E2]), 5, 2, 3), g.cycle([E1, E2]),
     g.parse("s2* - s1 s1*", 2)),
], ids=["fiber", "cycle N=3", "gray", "rotation", "explicit"])
def test_operator_walks_assemble_nothing(rep, z, element):
    expected = _operator_outputs(rep, z, element)
    # a fresh copy, without the generators built
    rep = dataclasses.replace(rep)
    rep.__dict__["gens"] = _Untouchable()
    with pytest.raises(AssertionError, match="read rep.gens"):
        rep.gens[0]
    assert _operator_outputs(rep, z, element) == expected
    g.verify_gp(rep)


def test_verify_flags_corruption():
    rep = g.build_cycle_rep(g.cycle([E1, E2]), 4)
    # one coefficient of the first step, as S_1 reads it from the table
    coeffs = rep.step_coeffs.copy()
    coeffs[0, 0, 0] += 0.25
    rep = dataclasses.replace(rep, step_coeffs=coeffs)
    report = g.verify_gp(rep)
    assert not report.passed(1e-9)
    assert report.max_residual() > 0.1


# ----------------------------------------------------------------------
# contraction along the cycle isometry

def test_power_vanish_fixed_vector():
    rep = g.build_cycle_rep(g.cycle([E1]), 4)
    norms = g.power_vanish(rep, g.cycle([E1]), rep.omega, 5)
    assert np.allclose(norms, 1.0)


def test_power_vanish_orthogonal_direction():
    rep = g.build_cycle_rep(g.cycle([E1]), 4)
    v = rep.gens[1] @ rep.omega
    norms = g.power_vanish(rep, g.cycle([E1]), v, 3)
    assert norms[0] == 1.0
    assert norms[1] < 1e-12


def test_power_vanish_refuses_a_cycle_or_vector_that_does_not_fit():
    rep = g.build_cycle_rep(g.cycle([E1]), 5)
    with pytest.raises(g.RankMismatchError, match="vector lives in C\\^3, rep has rank 2"):
        g.power_vanish(rep, g.cycle([g.basis_vector(3, 1)]), rep.omega, 2)
    with pytest.raises(ValueError, match=r"vector of shape \(3,\) does not fit a truncation "
                                         r"of dimension 32"):
        g.power_vanish(rep, g.cycle([E1]), np.ones(3), 2)


def test_power_vanish_rate_matches_overlap():
    rng = np.random.default_rng(14)
    z = random_nonperiodic_cycle(rng, 2, 2)
    rep = g.build_cycle_rep(z, 6)
    anchors = g.reps.cycle_anchor_vectors(rep)
    y1 = reference_full_tensor(z.rows)
    y2 = reference_full_tensor(z.rows[::-1])
    rate = abs(np.vdot(y1, y2))
    norms = g.power_vanish(rep, z, anchors[1], 2)
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    for m in (1, 2):
        assert norms[m] == pytest.approx(rate ** m, abs=1e-10)


def test_fixed_subspace_is_one_dimensional():
    rng = np.random.default_rng(15)
    for _ in range(5):
        z = random_nonperiodic_cycle(rng, 2, 2)
        rep = g.build_cycle_rep(z, 5)
        mat = reference_cycle_isometry(rep, z.factors).toarray()
        shifted = (mat - np.eye(rep.dim))[:, rep.interior]
        sing = np.linalg.svd(shifted, compute_uv=False)
        assert sing[-1] < 1e-10
        assert sing[-2] > 1e-4


def test_inequivalent_fixed_vectors_are_orthogonal():
    # in a direct sum of two inequivalent cycle reps, the fixed vector of
    # each product isometry lives entirely inside its own block
    rng = np.random.default_rng(16)
    z = random_nonperiodic_cycle(rng, 2, 2)
    y = random_nonperiodic_cycle(rng, 2, 2)
    assert not g.cycles_equivalent(z, y)
    rep_z = g.build_cycle_rep(z, 5)
    rep_y = g.build_cycle_rep(y, 5)

    def singular_spectrum(mat, interior):
        shifted = (mat - np.eye(mat.shape[0]))[:, interior]
        return np.linalg.svd(shifted, compute_uv=False)

    # s(z) has a fixed vector in its own block and none in the other block
    own = singular_spectrum(reference_cycle_isometry(rep_z, z.factors).toarray(), rep_z.interior)
    other = singular_spectrum(reference_cycle_isometry(rep_y, z.factors).toarray(),
                           rep_y.interior)
    assert own[-1] < 1e-10
    assert other[-1] > 1e-3

    # literal direct-sum form: the near-fixed directions of the two product
    # isometries are orthogonal
    def fixed_direction(param):
        big = sp.block_diag(
            [reference_cycle_isometry(rep_z, param.factors),
             reference_cycle_isometry(rep_y, param.factors)]
        ).toarray()
        interior = np.concatenate([rep_z.interior, rep_y.interior])
        shifted = (big - np.eye(big.shape[0]))[:, interior]
        _, s, vh = np.linalg.svd(shifted)
        direction = np.zeros(big.shape[0], dtype=complex)
        direction[interior] = vh[-1].conj()
        assert s[-1] < 1e-10
        return direction

    v_z = fixed_direction(z)
    v_y = fixed_direction(y)
    assert abs(np.vdot(v_z, v_y)) < 1e-9


def test_generator_columns_are_sparse_and_isometric():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        z = g.cycle([random_unit(rng, n) for _ in range(2)])
        rep = g.build_cycle_rep(z, 3)
        for mat in rep.gens:
            per_column = np.diff(mat.tocsc().indptr)
            assert per_column.max() <= n
            norms = np.sqrt(np.asarray(abs(mat).power(2).sum(axis=0)).ravel())
            assert np.max(np.abs(norms[rep.interior] - 1.0)) < 1e-12


# ----------------------------------------------------------------------
# exports

def test_export_coo_roundtrip():
    rep = g.build_cycle_rep(g.cycle([E1, E2]), 2)
    text = g.export_coo(rep)
    sections = {}
    current = None
    for line in text.strip().splitlines():
        if line.startswith("#"):
            current = line
            sections[current] = []
        else:
            sections[current].append(line.split())
    for i in (1, 2):
        entries = sections[f"# S{i}"]
        rebuilt = np.zeros((rep.dim, rep.dim), dtype=complex)
        for row, col, re_part, im_part in entries:
            rebuilt[int(row), int(col)] = float(re_part) + 1j * float(im_part)
        assert np.max(np.abs(rebuilt - rep.gens[i - 1].toarray())) == 0.0
    omega_rows = sections["# omega: index re im"]
    assert len(omega_rows) == 1
    assert int(omega_rows[0][0]) == 0


def test_export_json_shapes():
    rep = g.build_chain_rep(g.explicit_chain([E1]), 2, d_minus=1, d_plus=1)
    data = g.export_json(rep)
    assert data["rank"] == 2
    assert data["kind"] == "chain"
    assert data["dim"] == rep.dim
    assert len(data["generators"]) == 2
    assert len(data["labels"]) == rep.dim
    assert data["labels"][0] == [-1, 1]


REAL_A = np.array([0.6, 0.8])
REAL_B = np.array([0.8, -0.6])


def _export_reps():
    rng = np.random.default_rng(31)
    third = np.exp(2j * np.pi / 3)
    explicit = g.explicit_chain([random_unit(rng, 2) for _ in range(2)], [random_unit(rng, 2)])
    return {
        "cycle N=2": g.build_cycle_rep(g.cycle([random_unit(rng, 2) for _ in range(3)]), 4),
        "cycle N=3": g.build_cycle_rep(g.cycle([random_unit(rng, 3) for _ in range(2)]), 3),
        "fiber e^(2 pi i/3)": g.build_fiber_rep(
            g.cycle([random_unit(rng, 3) for _ in range(2)]), third, 3),
        # both signs of zero imaginary parts beside the same real part
        "fiber 1, real factors": g.build_fiber_rep(g.cycle([REAL_A, REAL_B]), 1, 3),
        "rotation 1/5": g.build_chain_rep(g.rotation_chain(Fraction(1, 5)), 4),
        "rotation 1/5 window 2 5": g.build_chain_rep(g.rotation_chain(Fraction(1, 5)), 3, 2, 5),
        "gray zone window 2 3": g.build_chain_rep(g.gray_zone_chain(), 3, 2, 3),
        "explicit window 4 1": g.build_chain_rep(explicit, 4, 4, 1),
        "explicit N=3 window 1 1": g.build_chain_rep(
            g.explicit_chain([random_unit(rng, 3)]), 2, 1, 1),
        # every step drops the positions of exact zeros: the middle entry
        # of each factor is 0, so is that of its completing unitary's
        # second column, and the third column is e_2
        "cycle N=3 zero middle": g.build_cycle_rep(
            g.cycle([_zero_middle(rng), _zero_middle(rng)]), 3),
        "fiber -1, real factors": g.build_fiber_rep(g.cycle([REAL_A, REAL_B]), -1, 3),
        "fiber 1j, real factors": g.build_fiber_rep(g.cycle([REAL_A, REAL_B]), 1j, 3),
        # layers 0, -1 and -2 step through the identity completing e_1
        "explicit N=3 zero middle window 3 2": g.build_chain_rep(
            g.explicit_chain([_zero_middle(rng)], [_zero_middle(rng)]), 3, 3, 2),
    }


def _zero_middle(rng):
    """A random unit vector of C^3 whose middle entry is exactly 0."""
    v = random_unit(rng, 3)
    v[1] = 0.0
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("name", sorted(_export_reps()))
def test_exports_match_per_entry_reference(name):
    rep = _export_reps()[name]
    assert g.export_coo(rep) == reference_export_coo(rep)
    assert (json.dumps(g.export_json(rep), sort_keys=True)
            == json.dumps(reference_export_json(rep), sort_keys=True))


def test_export_coo_runs_cross_every_digit_boundary():
    """The exporter writes a run of columns at a time, each of whose rows
    and columns keeps its digit count; the runs must split where any of
    them gains a digit, also between two lines of one column."""
    rng = np.random.default_rng(36)
    # N = 3, depth 7: column 333 holds rows 999 and 1000 (j = 0 and 1)
    rep = g.build_cycle_rep(g.cycle([random_unit(rng, 3)]), 7)
    assert np.all(rep.step_coeffs != 0)
    text = g.export_coo(rep)
    assert re.search(r"^999 333 .*\n1000 333 .*\n1001 333 ", text, re.MULTILINE)
    assert text == reference_export_coo(rep)
    # N = 2, depth 17: dim 131,072 crosses every power of ten from 10 to 10^5
    rep = g.build_cycle_rep(g.cycle([random_unit(rng, 2)]), 17)
    assert rep.dim == 131_072
    assert g.export_coo(rep) == reference_export_coo(rep)


def test_export_coo_keeps_the_sign_of_zero():
    text = g.export_coo(g.build_fiber_rep(g.cycle([REAL_A, REAL_B]), 1, 3))
    first = text.split("# S2")[0].splitlines()[1:]
    values = {tuple(line.split()[2:]) for line in first}
    assert {("0.8", "0.0"), ("0.8", "-0.0")} <= values
    chain = g.export_coo(g.build_chain_rep(g.gray_zone_chain(), 3, 2, 3))
    assert "0 8 1.0 -0.0\n" in chain


def _real_unit(rng, n):
    """A signed (0.6, 0.8) or a signed basis vector on random coordinates.
    The entries repeat across factors, so one generator holds the same
    real part beside both signs of a zero imaginary part."""
    v = np.zeros(n)
    if rng.random() < 0.25:
        v[rng.integers(n)] = rng.choice([-1.0, 1.0])
    else:
        v[rng.choice(n, 2, replace=False)] = rng.choice([-1.0, 1.0], 2) * [0.6, 0.8]
    return v


@st.composite
def _drawn_reps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["cycle", "fiber", "rotation", "gray zone", "explicit"]))
    depth = draw(st.integers(2, 5))
    if family in ("cycle", "fiber"):
        n = draw(st.integers(2, 4))
        unit = _real_unit if draw(st.booleans()) else random_unit
        z = g.cycle([unit(rng, n) for _ in range(draw(st.integers(1, 3)))])
        if family == "cycle":
            return g.build_cycle_rep(z, depth)
        phase = draw(st.sampled_from([1, -1, 1j, -1j, None]))
        if phase is None:
            phase = np.exp(2j * np.pi * rng.random())
        return g.build_fiber_rep(z, phase, depth)
    if family == "rotation":
        den = draw(st.integers(1, 12))
        chain = g.rotation_chain(Fraction(draw(st.integers(0, den - 1)), den))
    elif family == "gray zone":
        chain = g.gray_zone_chain()
    else:
        n = draw(st.integers(2, 3))
        unit = _real_unit if draw(st.booleans()) else random_unit
        chain = g.explicit_chain([unit(rng, n) for _ in range(draw(st.integers(1, 3)))],
                                 [unit(rng, n) for _ in range(draw(st.integers(0, 2)))])
    return g.build_chain_rep(chain, depth, draw(st.integers(1, 5)), draw(st.integers(1, 5)))


@settings(max_examples=200, deadline=None)
@given(rep=_drawn_reps())
def test_exports_match_per_entry_reference_on_drawn_reps(rep):
    assert g.export_coo(rep) == reference_export_coo(rep)
    assert (json.dumps(g.export_json(rep), sort_keys=True)
            == json.dumps(reference_export_json(rep), sort_keys=True))


_SPARSE_ENTRIES = [1.0, -1.0, 1j, -1j, 0.6, -0.8j, 0.8 - 0.6j]


@st.composite
def _sparse_factor(draw, n):
    """A unit vector of C^n with at least one entry exactly 0, its nonzero
    entries exact or drawn at random."""
    v = np.zeros(n, dtype=complex)
    spots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    for spot in spots:
        v[spot] = draw(st.sampled_from(_SPARSE_ENTRIES)
                       | st.complex_numbers(min_magnitude=0.1, max_magnitude=10))
    return v / np.linalg.norm(v)


@st.composite
def _sparse_reps(draw):
    """Small cycles, fibers and explicit chains of sparse factors, whose
    step coefficient blocks hold exact zeros, the chains on windows that
    step below layer 1 through the identity."""
    n = draw(st.integers(2, 3))
    factors = st.lists(_sparse_factor(n), min_size=1, max_size=3)
    depth = draw(st.integers(2, 4))
    family = draw(st.sampled_from(["cycle", "fiber", "chain"]))
    if family == "cycle":
        return g.build_cycle_rep(g.cycle(draw(factors)), depth)
    if family == "fiber":
        phase = draw(st.sampled_from([1, -1, 1j, -1j]))
        return g.build_fiber_rep(g.cycle(draw(factors)), phase, depth)
    chain = g.explicit_chain(draw(factors), draw(st.lists(_sparse_factor(n), max_size=2)))
    return g.build_chain_rep(chain, depth, draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(rep=_sparse_reps())
def test_exports_match_per_entry_reference_on_sparse_factors(rep):
    assert np.any(rep.step_coeffs == 0)
    assert g.export_coo(rep) == reference_export_coo(rep)
    assert (json.dumps(g.export_json(rep), sort_keys=True)
            == json.dumps(reference_export_json(rep), sort_keys=True))


@st.composite
def _json_reps(draw):
    """Fibers of N = 2, 3 cycles of at most 3 factors at depth 2-5, twisted
    by 1, -1, 1j or a random unit, and rotation, gray-zone and explicit
    chains with a preperiod on several windows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["cycle", "rotation", "gray zone", "explicit"]))
    depth = draw(st.integers(2, 5))
    if family == "cycle":
        n = draw(st.integers(2, 3))
        z = g.cycle([random_unit(rng, n) for _ in range(draw(st.integers(1, 3)))])
        phase = draw(st.sampled_from([1, -1, 1j, None]))
        if phase is None:
            phase = np.exp(2j * np.pi * rng.random())
        return g.build_fiber_rep(z, phase, depth)
    if family == "rotation":
        den = draw(st.integers(1, 9))
        chain = g.rotation_chain(Fraction(draw(st.integers(0, den - 1)), den))
    elif family == "gray zone":
        chain = g.gray_zone_chain()
    else:
        n = draw(st.integers(2, 3))
        chain = g.explicit_chain([random_unit(rng, n) for _ in range(draw(st.integers(1, 2)))],
                                 [random_unit(rng, n) for _ in range(draw(st.integers(1, 2)))])
    return g.build_chain_rep(chain, depth, draw(st.integers(1, 4)), draw(st.integers(1, 4)))


def _assert_json_matches_reference_and_shares_pairs(rep):
    data = g.export_json(rep)
    expected = reference_export_json(rep)
    assert data == expected
    assert json.dumps(data, sort_keys=True) == json.dumps(expected, sort_keys=True)
    # one [re, im] list per kept coefficient of each step, and one zero
    # pair for every entry of Omega but the distinguished one
    for gen in data["generators"]:
        assert len({id(pair) for pair in gen["values"]}) <= len(rep.step_sources) * rep.n
    (support,) = np.flatnonzero(rep.omega)
    assert len({id(pair) for i, pair in enumerate(data["omega"]) if i != support}) == 1


@settings(max_examples=150, deadline=None)
@given(rep=_json_reps())
def test_export_json_equals_the_reference_and_shares_equal_pairs(rep):
    _assert_json_matches_reference_and_shares_pairs(rep)


@pytest.mark.parametrize("name", ["gray zone", "rotation 0", "explicit zero middle"])
def test_export_json_keeps_signed_and_exact_zeros_of_the_steps(name):
    rng = np.random.default_rng(29)
    rep = {
        # conj(u) of the gray zone's real unitaries keeps -0.0 imaginary parts
        "gray zone": g.build_chain_rep(g.gray_zone_chain(), 4, 3, 2),
        # every step completes e_1 to the identity: exact zeros off the diagonal
        "rotation 0": g.build_chain_rep(g.rotation_chain(Fraction(0, 1)), 3, 2, 2),
        "explicit zero middle": g.build_chain_rep(
            g.explicit_chain([_zero_middle(rng)], [_zero_middle(rng)]), 3, 2, 3),
    }[name]
    coeffs = rep.step_coeffs.ravel()
    if name == "gray zone":
        assert np.any(np.signbit(coeffs.imag) & (coeffs.imag == 0))
    else:
        assert np.any(coeffs == 0)
    _assert_json_matches_reference_and_shares_pairs(rep)


@settings(max_examples=150, deadline=None)
@given(rep=_drawn_reps(), seed=st.integers(0, 2 ** 32 - 1), terms=st.integers(1, 3))
def test_vacuum_expectation_keeps_the_bits_of_vdot(rep, seed, terms):
    a = random_element(np.random.default_rng(seed), rep.n, max_word=2, n_terms=terms)
    omega = rep.omega
    try:
        expected = np.vdot(omega, g.apply_element(rep, a, omega))
    except g.TruncationOverflowError:
        with pytest.raises(g.TruncationOverflowError):
            g.vacuum_expectation(rep, a)
        return
    assert np.complex128(g.vacuum_expectation(rep, a)).tobytes() == expected.tobytes()


def _build_recording_steps(draw_rep):
    """A drawn rep and the (N, depth, layers, steps) its builder passed to
    `_layered_rep`."""
    tables = []
    layered_rep = g.reps._layered_rep

    def recorded(param, depth, layers, steps, *args, **kwargs):
        tables.append((param.n, depth, layers, steps))
        return layered_rep(param, depth, layers, steps, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g.reps, "_layered_rep", recorded)
        rep = draw_rep()
    (table,) = tables
    return rep, table


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generator_entries_match_the_coo_route(data):
    rep, table = _build_recording_steps(lambda: data.draw(_drawn_reps()))
    reference = reference_layered_gens(*table)
    entries = list(g.reps._generator_entries(rep))
    assert len(entries) == len(rep.gens) == len(reference) == rep.n
    # in column-then-row order, the order of the reference's CSC arrays
    for (rows, cols), gen, mat in zip(entries, rep.gens, reference):
        assert mat.shape == (rep.dim, rep.dim)
        assert gen.data.dtype == complex and gen.data.tobytes() == mat.data.tobytes()
        assert np.array_equal(rows, mat.indices)
        assert np.array_equal(cols, np.repeat(np.arange(rep.dim), np.diff(mat.indptr)))


def test_gens_match_the_coo_route_and_are_cached():
    rep, table = _build_recording_steps(
        lambda: g.build_chain_rep(g.gray_zone_chain(), 3, 2, 3))
    assert "gens" not in rep.__dict__
    reference = reference_layered_gens(*table)
    assert len(rep.gens) == len(reference) == rep.n
    for mat, expected in zip(rep.gens, reference):
        assert mat.format == "csc" and mat.shape == expected.shape
        assert mat.data.tobytes() == expected.data.tobytes()
        assert np.array_equal(mat.indices, expected.indices)
        assert np.array_equal(mat.indptr, expected.indptr)
    assert rep.gens is rep.gens


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_reports_match_the_coo_route(data):
    rep, table = _build_recording_steps(lambda: data.draw(_drawn_reps()))
    report = g.verify_gp(rep)
    # the sparse products of the matrices the COO route builds
    rep.__dict__["gens"] = reference_layered_gens(*table)
    expected = reference_relation_residuals(rep)
    assert repr((report.isometry_residual, report.completeness_residual)) == repr(expected)


def _rotation_unit(rng, n):
    """(cos a, sin a) on two random coordinates of C^n."""
    v = np.zeros(n)
    i, j = rng.choice(n, 2, replace=False)
    angle = 2 * np.pi * rng.random()
    v[i], v[j] = np.cos(angle), np.sin(angle)
    return v


def _one_hot_unit(rng, n):
    """A basis vector of C^n times a random phase."""
    return g.basis_vector(n, int(rng.integers(1, n + 1))) * np.exp(2j * np.pi * rng.random())


@st.composite
def _gram_reps(draw):
    """Cycle, fiber and chain truncations at N = 2..4 deep enough for a
    basis check: cycles of one-hot, rotation or dense factors, whose
    vectors carry roundoff in every entry a word can reach, and rotation,
    gray-zone and explicit chains."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["one-hot", "rotation", "dense", "chain rotation",
                                   "gray zone", "explicit"]))
    if family in ("one-hot", "rotation", "dense"):
        n, k = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        unit = {"one-hot": _one_hot_unit, "rotation": _rotation_unit, "dense": random_unit}[family]
        z = g.cycle([unit(rng, n) for _ in range(k)])
        depth = draw(st.integers(max(k, 2), min(k + 2, 5)))
        if draw(st.booleans()):
            return g.build_cycle_rep(z, depth)
        return g.build_fiber_rep(z, np.exp(2j * np.pi * rng.random()), depth)
    if family == "chain rotation":
        den = draw(st.integers(1, 12))
        chain = g.rotation_chain(Fraction(draw(st.integers(0, den - 1)), den))
    elif family == "gray zone":
        chain = g.gray_zone_chain()
    else:
        n = draw(st.integers(2, 4))
        chain = g.explicit_chain([random_unit(rng, n) for _ in range(draw(st.integers(1, 3)))],
                                 [random_unit(rng, n) for _ in range(draw(st.integers(0, 2)))])
    return g.build_chain_rep(chain, draw(st.integers(2, 4)), draw(st.integers(1, 4)),
                             draw(st.integers(1, 4)))


def _dense_checks(rep) -> dict:
    """The family, eigen and step residuals and the basis Gram residual and
    least singular value of `verify_gp`, each by the dense route: stacks of
    whole vectors from the public entry points, `reference_gram` and
    numpy's norm of whole differences."""
    out = {}
    if rep.kind == "chain":
        d_minus, d_plus = rep.window
        family = {t: g.chain_vector(rep, t) for t in range(-(d_minus - 1), d_plus + 1)}
        # s(z_u) E_u = E_(u-1)
        out["step_residual"] = max(
            float(np.linalg.norm(g.reps._apply_isometry(
                rep, g.reps._chain_factor(rep.factor_rows, u), family[u]) - family[u - 1]))
            for u in range(-(d_minus - 1) + 1, d_plus + 1))
        columns, k = [family[t] for t in sorted(family)], 0
    else:
        columns, k = g.cycle_anchor_vectors(rep), len(rep.factor_rows)
        out["eigen_residual"] = float(np.linalg.norm(columns[0] - rep.omega))
    out["family_residual"] = reference_gram(np.stack(columns, axis=1))[1]
    d = min(2, rep.depth - k)
    if d >= 1:
        basis = np.stack([vec for _, vec in g.enumerate_basis(rep, d)], axis=1)
        gram, out["basis_gram_residual"] = reference_gram(basis)
        out["basis_min_singular"] = math.sqrt(max(float(np.linalg.eigvalsh(gram)[0]), 0.0))
    return out


# the compact Gram checks against the dense stacks: BLAS may block the
# shorter inner dimension differently, so a Gram entry near 1 can move by
# an ulp or so; the eigen and step residuals are norms of the same entries
# in the same order and must keep every bit
GRAM_SLACK = 4 * np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(rep=_gram_reps())
def test_compact_checks_match_the_dense_stacks(rep):
    report = g.verify_gp(rep)
    for name, expected in _dense_checks(rep).items():
        got = getattr(report, name)
        if name in ("eigen_residual", "step_residual"):
            assert repr(got) == repr(expected), name
        else:
            assert abs(got - expected) <= GRAM_SLACK, (name, got, expected)


@settings(max_examples=150, deadline=None)
@given(rep=_gram_reps())
def test_verify_holds_the_vectors_of_the_dense_entry_points(rep):
    stacks = []
    compact_gram = g.reps._compact_gram

    def recorded(vectors):
        stacks.append(vectors)
        return compact_gram(vectors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g.reps, "_compact_gram", recorded)
        g.verify_gp(rep)
    family, *basis = stacks
    chain = rep.kind == "chain"
    if chain:
        d_minus, d_plus = rep.window
        ts = range(-(d_minus - 1), d_plus + 1)
        expected = [g.chain_vector(rep, t).tobytes() for t in ts]
        # E_t for t > 0 comes from an adjoint
        got = [g.reps._dense(rep, vec, adjoint=t > 0).tobytes() for t, vec in zip(ts, family)]
        k = 0
    else:
        expected = [vec.tobytes() for vec in g.cycle_anchor_vectors(rep)]
        got = [g.reps._dense(rep, vec).tobytes() for vec in family]
        k = len(rep.factor_rows)
    assert got == expected
    d = min(2, rep.depth - k)
    assert len(basis) == (d >= 1)
    if basis:
        fam = g.enumerate_basis(rep, d)
        assert len(basis[0]) == len(fam)
        # the rows the budget charges bound the rows stacked
        rows = g.reps._union_rows({layer: x.size for layer, x in vec.items()}
                                  for vec in basis[0])
        assert sum(rows.values()) <= g.reps._basis_rows(rep, g.reps._basis_plan(rep, d))
        for (label, vec), held in zip(fam, basis[0]):
            adjoint = chain and label.branch == 0 and label.anchor > 0
            assert g.reps._dense(rep, held, adjoint).tobytes() == vec.tobytes()
    # every block is cut to its extent
    for vec in family + [held for stack in basis for held in stack]:
        for x in vec.values():
            assert x.size and x.size <= rep.block and x[-1] != 0


@settings(max_examples=150, deadline=None)
@given(rep=_drawn_reps(), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 1e-16, 1e150]),
       shape=st.sampled_from(["random", "only in b", "unequal prefixes", "b empty"]))
def test_windowed_norm_matches_the_dense_norm(rep, seed, scale, shape):
    rng = np.random.default_rng(seed)
    count = len(rep.layers)

    def block(size):
        return scale * (rng.normal(size=size) + 1j * rng.normal(size=size))

    a, b = {}, {}
    for layer in range(count):
        for held in (a, b):
            if rng.random() < 0.5:
                held[layer] = block(int(rng.integers(1, rep.block + 1)))
    if shape == "only in b":
        layer = int(rng.integers(count))
        a.pop(layer, None)
        b[layer] = block(int(rng.integers(1, rep.block + 1)))
    elif shape == "unequal prefixes":
        # a block is at least N^2 entries long
        sizes = rng.choice(np.arange(1, rep.block + 1), size=2, replace=False)
        layer = int(rng.integers(count))
        a[layer], b[layer] = block(int(sizes[0])), block(int(sizes[1]))
    elif shape == "b empty":
        b = {}
    assert g.reps._norm(rep, a) == float(np.linalg.norm(g.reps._dense(rep, a)))
    expected = float(np.linalg.norm(g.reps._dense(rep, a) - g.reps._dense(rep, b)))
    assert g.reps._norm(rep, a, b) == expected


@st.composite
def _perturbed_reps(draw):
    """A drawn rep whose step table has some coefficients moved: by a
    small or large complex amount, to an exact zero of either sign, or
    onto a nonzero from a zero."""
    rep = draw(_drawn_reps())
    coeffs = rep.step_coeffs.copy()
    flat = coeffs.reshape(-1)
    for pos in draw(st.lists(st.integers(0, flat.size - 1), max_size=4)):
        how = draw(st.sampled_from(["small", "large", "zero", "negative zero", "fill"]))
        if how == "small":
            flat[pos] += complex(*draw(st.tuples(*[st.floats(-1e-9, 1e-9)] * 2)))
        elif how == "large":
            flat[pos] += complex(*draw(st.tuples(*[st.floats(-2.0, 2.0)] * 2)))
        elif how == "zero":
            flat[pos] = 0.0
        elif how == "negative zero":
            flat[pos] = complex(-0.0, -0.0)
        elif flat[pos] == 0:
            flat[pos] = complex(*draw(st.tuples(*[st.floats(-1.0, 1.0)] * 2)))
    return dataclasses.replace(rep, step_coeffs=coeffs)


@settings(max_examples=150, deadline=None)
@given(rep=_perturbed_reps(), seed=st.integers(0, 2 ** 32 - 1))
def test_step_table_matches_the_sparse_products(rep, seed):
    # the generators are written from the same (perturbed) step table
    expected = reference_relation_residuals(rep)
    assert repr(g.reps._relation_residuals(rep)) == repr(expected)
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(rep.dim, 3)) + 1j * rng.normal(size=(rep.dim, 3))
    # exact zeros of both signs in either part
    signed_zeros = stack[:, 2].copy()
    for part, zero in ((signed_zeros.real, -0.0), (signed_zeros.imag, 0.0),
                       (signed_zeros.imag, -0.0)):
        part[rng.random(rep.dim) < 0.3] = zero
    for x in (stack[:, 0].copy(), stack, np.asfortranarray(stack), stack[:, 1], signed_zeros):
        for i, gen in enumerate(rep.gens):
            assert _apply_gen(rep, i, x).tobytes() == (gen @ x).tobytes()
            assert _apply_gen(rep, i, x, transpose=True).tobytes() == (gen.T @ x).tobytes()


def _support_vector(rep, rng, shape):
    """A vector of the given support shape, its values drawn from `rng`."""
    count, blk = len(rep.layers), rep.block
    x = np.zeros((count, blk), dtype=complex)
    if shape == "one-hot":
        x[rng.integers(count), rng.integers(blk)] = complex(*rng.normal(size=2))
    elif shape == "block prefix":
        # what a walk from Omega fills
        for layer, end in enumerate(rng.integers(0, blk + 1, size=count)):
            x[layer, :end] = rng.normal(size=end) + 1j * rng.normal(size=end)
    elif shape == "strided":
        # what a branch word fills: every N^a-th entry from an offset
        stride = rep.n ** int(rng.integers(1, rep.depth))
        rows, cols = rng.random(count) < 0.7, slice(int(rng.integers(stride)), None, stride)
        shape = x[rows, cols].shape
        x[rows, cols] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    elif shape == "dense":
        x = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    return x.ravel()


def _nan_blind_bytes(a):
    """The bytes of a complex array with every NaN part made one NaN: numpy
    takes the sign of a sum of two NaNs from different operands for arrays
    of different lengths, so only where a NaN is repeats."""
    parts = np.ascontiguousarray(a).view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


@settings(max_examples=150, deadline=None)
@given(rep=_drawn_reps(), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["zero", "one-hot", "block prefix", "strided", "dense"]),
       edges=st.sampled_from(["none", "signed zeros", "nan and inf"]))
def test_cut_kernels_match_the_full_sweep(rep, seed, shape, edges):
    rng = np.random.default_rng(seed)
    x = _support_vector(rep, rng, shape)
    if edges == "signed zeros":
        for part, zero in ((x.real, -0.0), (x.imag, 0.0), (x.imag, -0.0)):
            part[rng.random(rep.dim) < 0.3] = zero
    elif edges == "nan and inf":
        for value in (np.nan, np.inf, -np.inf):
            for part in (x.real, x.imag):
                part[rng.integers(rep.dim)] = value
    v = (_real_unit if rng.random() < 0.3 else random_unit)(rng, rep.n)
    key = _nan_blind_bytes if edges == "nan and inf" else np.ndarray.tobytes
    stack = np.stack([x, _support_vector(rep, rng, shape), x[::-1]], axis=1)
    # the NaN and inf drawn make NaN products on purpose, each of which warns
    with np.errstate(invalid="ignore" if edges == "nan and inf" else "warn"):
        for y in (x, stack[:, 1], stack, np.asfortranarray(stack)):
            for i in range(rep.n):
                for transpose in (False, True):
                    assert (key(_apply_gen(rep, i, y, transpose))
                            == key(reference_apply_gen(rep, i, y, transpose)))
            for adjoint in (False, True):
                assert (key(g.reps._apply_isometry(rep, v, y, adjoint))
                        == key(reference_apply_isometry(rep, v, y, adjoint)))


@settings(max_examples=150, deadline=None)
@given(rep=_drawn_reps(), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["zero", "one-hot", "block prefix", "strided", "dense"]),
       edges=st.sampled_from(["none", "signed zeros", "nan", "imaginary last"]))
def test_prefixes_cut_every_block_after_its_last_nonzero_part(rep, seed, shape, edges):
    rng = np.random.default_rng(seed)
    x = _support_vector(rep, rng, shape)
    blocks = x.reshape(len(rep.layers), rep.block)
    if edges == "signed zeros":
        for part, zero in ((x.real, -0.0), (x.imag, 0.0), (x.imag, -0.0)):
            part[rng.random(rep.dim) < 0.3] = zero
        # a tail of -0.0 past whatever a block holds
        blocks[rng.integers(len(blocks)), -int(rng.integers(1, rep.block + 1)):] = complex(-0.0, -0.0)
    elif edges == "nan":
        for part in (x.real, x.imag):
            part[rng.integers(rep.dim)] = np.nan
    elif edges == "imaginary last":
        # only the imaginary part of the block's last entry is nonzero
        target = rng.integers(len(blocks))
        blocks[target] = -0.0
        blocks[target, -1] = complex(-0.0, rng.normal())
    held = g.reps._prefixes(rep, x)
    expected = reference_prefixes(rep, x)
    assert {layer: b.size for layer, b in held.items()} == {
        layer: b.size for layer, b in expected.items()}
    assert list(held) == sorted(held)
    for block in held.values():
        assert np.shares_memory(block, x)
    if edges == "imaginary last":
        assert held[target].size == rep.block
    if shape == "zero" and edges in ("none", "signed zeros"):
        assert held == {}


def test_json_lists_leave_the_collector_as_they_found_it(collector):
    rep = g.build_fiber_rep(g.cycle([REAL_A, REAL_B]), 1j, 4)
    g.params.complex_pairs(rep.omega)
    assert gc.isenabled() is collector
    g.export_json(rep)
    assert gc.isenabled() is collector


def test_json_lists_restore_the_collector_when_the_list_build_raises(monkeypatch, collector):
    rep = g.build_cycle_rep(g.cycle([E1, E2]), 3)
    # the real list builds, each with a tolist that runs out of memory
    exhaust_stacked_lists(monkeypatch)
    with pytest.raises(MemoryError):
        g.params.complex_pairs(rep.omega)
    assert gc.isenabled() is collector
    exhaust_omega_lists(monkeypatch)
    with pytest.raises(MemoryError):
        g.export_json(rep)
    assert gc.isenabled() is collector


def test_export_json_holds_the_collector_paused_throughout(monkeypatch, collector):
    rep = g.build_chain_rep(g.gray_zone_chain(), 3, 2, 3)
    expected = reference_export_json(rep)
    interior = g.reps.TruncatedRep.interior
    reads = []

    def paused(rep):
        # the last read of the build
        assert not gc.isenabled()
        reads.append(rep)
        return interior.fget(rep)

    monkeypatch.setattr(g.reps.TruncatedRep, "interior", property(paused))
    assert g.export_json(rep) == expected
    assert reads == [rep]
    assert gc.isenabled() is collector


# dimensions past 256, the ints CPython keeps one object of
@pytest.mark.parametrize("rep", [
    g.build_fiber_rep(g.cycle([REAL_A, REAL_B]), 1j, 9),
    g.build_cycle_rep(g.cycle([[1, 0, 0], [0.6, 0, 0.8]]), 6),
    g.build_chain_rep(g.gray_zone_chain(), 7, 3, 2),
], ids=["fiber", "cycle C^3", "chain"])
def test_export_json_ints_are_one_table(rep):
    assert rep.dim > 256
    out = g.export_json(rep)
    assert out == reference_export_json(rep)
    ints = [x for gen in out["generators"] for x in gen["rows"] + gen["cols"]]
    ints += [m for _, m in out["labels"]]
    assert len({id(x) for x in ints}) <= rep.dim + 1
    assert {id(t) for t, _ in out["labels"]} == {id(t) for t in out["layers"]}


def test_export_json_restores_the_collector_when_the_build_raises(monkeypatch, collector):
    def exhausted(_rep):
        raise MemoryError

    monkeypatch.setattr(g.reps, "_omega", exhausted)
    with pytest.raises(MemoryError):
        g.export_json(g.build_cycle_rep(g.cycle([E1, E2]), 3))
    assert gc.isenabled() is collector


@pytest.mark.parametrize("window", [(1, 1), (2, 5), (4, 2), (3, 3)])
def test_chain_vectors_match_walk_from_omega(window):
    rng = np.random.default_rng(32)
    chain = g.explicit_chain([random_unit(rng, 2) for _ in range(3)], [random_unit(rng, 2)])
    rep = g.build_chain_rep(chain, 4, *window)
    d_minus, d_plus = window
    family = _chain_vectors(rep, -d_minus, d_plus)
    assert sorted(family) == list(range(-d_minus, d_plus + 1))
    for t in range(-d_minus, d_plus + 1):
        expected = reference_chain_vector(rep, t).tobytes()
        assert family[t].tobytes() == expected
        assert g.reps.chain_vector(rep, t).tobytes() == expected
    for t in (-d_minus - 1, d_plus + 1):
        with pytest.raises(g.TruncationOverflowError, match="outside the window"):
            g.reps.chain_vector(rep, t)


def test_verify_basis_check_is_charged_before_enumerating(monkeypatch):
    # the depth-2 families of 8 vectors: of one nonzero entry each on 8 rows,
    # and filling 24 rows for real factors that complete to dense unitaries
    one_hot = g.build_cycle_rep(g.cycle([E1, E2]), 5)
    dense = g.build_cycle_rep(g.cycle([REAL_A, REAL_B]), 5)
    chain = g.build_chain_rep(g.gray_zone_chain(), 4, 2, 3)
    shallow = g.build_cycle_rep(g.cycle([E1, E2]), 2)
    assert one_hot.dim == dense.dim == 64 and chain.dim == 96
    monkeypatch.setattr(g.reps, "REP_BUDGET", 20)
    assert g.verify_gp(one_hot).basis_count == 8
    assert g.verify_gp(chain).basis_count == 6

    def no_family(*_):
        raise AssertionError("the basis family was enumerated for a refused check")

    monkeypatch.setattr(g.reps, "_branch_words", no_family)
    monkeypatch.setattr(g.reps, "enumerate_basis", no_family)
    with pytest.raises(ValueError, match="stack 8 vectors on 24 rows, 192 entries, "
                                         "over the budget of 160"):
        g.verify_gp(dense)
    monkeypatch.setattr(g.reps, "REP_BUDGET", 4)
    with pytest.raises(ValueError, match="stack 6 vectors on 6 rows, 36 entries, "
                                         "over the budget of 32"):
        g.verify_gp(chain)
    # depth k leaves no room for a basis check, so there is nothing to charge
    assert g.verify_gp(shallow).basis_count is None


def test_a_nan_residual_fails_verification():
    rep = g.build_cycle_rep(g.cycle([[0.6, 0.8], [1, 0]]), 2)
    rows = rep.factor_rows.copy()
    rows[0, 0] = np.nan
    report = g.verify_gp(dataclasses.replace(rep, factor_rows=rows))
    assert np.isnan(report.family_residual) and np.isnan(report.eigen_residual)
    # the relation residuals, which come first, read the step table alone
    assert report.isometry_residual == report.completeness_residual == 0.0
    assert np.isnan(report.max_residual())
    assert not report.passed(1e-9)


def test_a_basis_count_short_of_the_expected_fails_verification():
    report = g.VerificationReport(
        kind="cycle", isometry_residual=0.0, completeness_residual=0.0,
        family_residual=0.0, eigen_residual=0.0, basis_gram_residual=0.0,
        basis_count=4, basis_count_expected=4, basis_min_singular=1.0,
    )
    assert report.passed(1e-9)
    # every residual stays 0.0: the count alone fails it
    assert not dataclasses.replace(report, basis_count=3).passed(1e-9)


@pytest.mark.parametrize("field", ["isometry_residual", "step_residual", "basis_min_singular"])
def test_max_residual_keeps_a_nan_wherever_it_comes(field):
    # the isometry residual comes first, the step residual in the middle and
    # the least singular value last
    report = g.VerificationReport(
        kind="chain", isometry_residual=1e-16, completeness_residual=0.0,
        family_residual=2e-16, step_residual=1e-16, basis_gram_residual=3e-16,
        basis_count=6, basis_count_expected=6, basis_min_singular=1.0,
    )
    assert report.max_residual() == 3e-16 and report.passed(1e-9)
    report = dataclasses.replace(report, **{field: float("nan")})
    assert np.isnan(report.max_residual())
    assert not report.passed(1e-9)


def test_rep_budget_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(g.reps, "REP_BUDGET", 64)
    z = g.cycle([E1, E2])
    assert g.build_cycle_rep(z, 5).dim == 64
    with pytest.raises(ValueError, match="dimension 128, over the budget of 64 for rank 2"):
        g.build_cycle_rep(z, 6)
    # rank N is allowed 2 / N of the budget
    z4 = g.cycle([g.basis_vector(4, 1)])
    assert g.build_cycle_rep(z4, 2).dim == 16
    with pytest.raises(ValueError, match="dimension 64, over the budget of 32 for rank 4"):
        g.build_fiber_rep(z4, 1, 3)
    with pytest.raises(ValueError, match="dimension at least 2\\^40, over the budget"):
        g.build_cycle_rep(z, 40)

    def no_steps(_):
        raise AssertionError("a step was built for a refused truncation")

    monkeypatch.setattr(g.reps, "complete_unitary", no_steps)
    with pytest.raises(ValueError, match="dimension 8000000048, over the budget"):
        g.build_chain_rep(g.gray_zone_chain(), 3, 10**9, 5)
