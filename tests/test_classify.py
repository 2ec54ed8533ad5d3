"""Classification: irreducibility, equivalence, decomposition, branching."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpcuntz as g
from helpers import (
    brute_force_cycles_equivalent,
    brute_force_power,
    random_nonperiodic_cycle,
    random_unit,
    reference_decompose_chain_base,
    reference_full_tensor,
)

E1 = g.basis_vector(2, 1)
E2 = g.basis_vector(2, 2)


# ----------------------------------------------------------------------
# irreducibility verdicts

def test_classify_nonperiodic_cycle():
    report = g.classify(g.cycle([E1, E2]))
    assert report.verdict == "yes"
    assert report.irreducible is True


def test_classify_periodic_cycle():
    report = g.classify(g.cycle([E1, E1]))
    assert report.verdict == "no"
    assert report.power == 2
    assert np.allclose(report.root.factors[0], E1)


def test_classify_rational_rotation():
    report = g.classify(g.rotation_chain(Fraction(1, 3)))
    assert report.verdict == "no"
    assert report.period == 3


def test_classify_irrational_rotation_is_analytic():
    report = g.classify(g.rotation_chain(math.sqrt(2) - 1))
    assert report.verdict == "yes"
    assert report.analytic_assumption


def test_classify_gray_zone_and_prefix():
    assert g.classify(g.gray_zone_chain()).verdict == "gray_zone"
    assert g.classify(g.prefix_chain([E1, E2])).verdict == "unknown"


# ----------------------------------------------------------------------
# equivalence dispatch

def test_equivalent_cycle_vs_chain_is_false():
    assert not g.equivalent(g.cycle([E1]), g.explicit_chain([E1]))


def test_equivalent_rotated_cycles():
    rng = np.random.default_rng(1)
    a, b = random_unit(rng, 2), random_unit(rng, 2)
    assert g.equivalent(g.cycle([a, b]), g.cycle([b, a]))


def test_equivalent_distinct_single_vectors():
    rng = np.random.default_rng(2)
    z, y = random_unit(rng, 2), random_unit(rng, 2)
    assert not g.equivalent(g.cycle([z]), g.cycle([y]))


def test_equivalent_undecidable_prefix():
    with pytest.raises(g.UndecidableError):
        g.equivalent(g.prefix_chain([E1]), g.explicit_chain([E1]))


# ----------------------------------------------------------------------
# cycle decomposition

def test_decompose_square_of_scaled_basis_vector():
    alpha = cmath.exp(0.77j)
    root = cmath.sqrt(alpha)
    z = g.cycle([root * E1, root * E1])
    comps = g.decompose_cycle(z)
    assert len(comps) == 2
    want = [g.cycle([root * E1]), g.cycle([-root * E1])]
    for target in want:
        assert any(g.cycles_equivalent(c, target) for c in comps)


def test_decompose_nonperiodic_returns_input():
    rng = np.random.default_rng(3)
    z = random_nonperiodic_cycle(rng, 2, 2)
    comps = g.decompose_cycle(z)
    assert len(comps) == 1
    assert comps[0] is z


def test_decompose_cube_gives_cube_roots():
    comps = g.decompose_cycle(g.cycle([E1] * 3))
    assert len(comps) == 3
    for j in range(3):
        target = g.cycle([cmath.exp(2j * math.pi * j / 3) * E1])
        assert any(g.cycles_equivalent(c, target) for c in comps)
    for i in range(3):
        for j in range(i + 1, 3):
            assert not g.cycles_equivalent(comps[i], comps[j])


def test_decompose_components_classify_irreducible():
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = int(rng.integers(1, 3))
        p = int(rng.integers(2, 5))
        y = random_nonperiodic_cycle(rng, 2, k)
        comps = g.decompose_cycle(g.CycleParam(y.factors * p))
        assert len(comps) == p
        for c in comps:
            assert g.classify(c).verdict == "yes"


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    k=st.integers(1, 3),
    p=st.integers(2, 4),
    angle=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_is_multiplicity_free_by_the_tensor_oracle(n, k, p, angle, seed):
    # the paper's multiplicity-freeness, checked on full tensors: the p
    # components are irreducible and pairwise inequivalent
    y = random_nonperiodic_cycle(np.random.default_rng(seed), n, k)
    z = g.scale_cycle(g.CycleParam(y.factors * p), cmath.exp(2j * math.pi * angle))
    comps = g.decompose_cycle(z)
    assert len(comps) == p
    for i, comp in enumerate(comps):
        assert brute_force_power(comp) == (k, 1)
        for other in comps[i + 1:]:
            assert not brute_force_cycles_equivalent(comp, other)


def _permutative_unit(rng, n):
    """A basis vector of C^n times 1, i, -1 or -i: a Bratteli-Jorgensen
    permutative factor."""
    return g.basis_vector(n, int(rng.integers(1, n + 1))) * (1, 1j, -1, -1j)[rng.integers(4)]


def _signed_real_unit(rng, n):
    """(0.6, 0.8) with random signs on two random coordinates of C^n."""
    v = np.zeros(n)
    v[rng.choice(n, 2, replace=False)] = rng.choice([-1.0, 1.0], 2) * [0.6, 0.8]
    return v


def _times_quarter_turn(w, row):
    """w row for w in 1, i, -1, -i, each part moved or negated exactly."""
    return {1: row, 1j: -row.imag + 1j * row.real, -1: -row, -1j: row.imag - 1j * row.real}[w]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 4),
    k=st.integers(1, 3),
    p=st.sampled_from([2, 4]),
    layout=st.sampled_from(["permutative", "real", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decompose_pieces_are_exact_quarter_turns_of_the_root(n, k, p, layout, seed):
    rng = np.random.default_rng(seed)
    unit = {"permutative": _permutative_unit, "real": _signed_real_unit,
            "random": random_unit}[layout]
    y = g.cycle([unit(rng, n) for _ in range(k)])
    if g.primitive_root(y)[1] != 1:
        y = g.cycle([unit(rng, n)])
    z = g.CycleParam(np.tile(y.rows, (p, 1)))
    root, power = g.primitive_root(z)
    assert power == p
    pieces = g.decompose_cycle(z)
    assert len(pieces) == p
    for j, piece in enumerate(pieces):
        first = piece.rows[0]
        # an exact zero wherever the root's entry is zero, and every other
        # part exactly that of omega^j times the root's
        assert np.all(first[root.rows[0] == 0] == 0)
        assert np.array_equal(first, _times_quarter_turn((1, 1j, -1, -1j)[4 * j // p],
                                                         root.rows[0]))
        assert piece.rows[1:].tobytes() == root.rows[1:].tobytes()


# ----------------------------------------------------------------------
# chain decomposition

def test_decompose_constant_chain():
    descriptor = g.decompose_chain(g.explicit_chain([E1]))
    assert descriptor.base.k == 1
    assert np.allclose(descriptor.base.factors[0], E1)


def test_decompose_half_rotation_collapses_to_one_factor():
    descriptor = g.decompose_chain(g.rotation_chain(Fraction(1, 2)))
    assert descriptor.base.k == 1
    assert np.allclose(descriptor.base.factors[0], E1)


def test_decompose_third_rotation_keeps_three_factors():
    chain = g.rotation_chain(Fraction(1, 3))
    descriptor = g.decompose_chain(chain)
    assert descriptor.base.k == 3
    # base agrees with the rotation block up to factor phases
    block = [g.chain_factor(chain, m) for m in range(1, 4)]
    for got, want in zip(descriptor.base.factors, block):
        assert abs(abs(np.vdot(got, want)) - 1.0) < 1e-12


def test_decompose_chain_base_is_nonperiodic():
    rng = np.random.default_rng(5)
    y = random_nonperiodic_cycle(rng, 2, 2)
    chain = g.explicit_chain(list(y.factors) * 3)
    descriptor = g.decompose_chain(chain)
    assert descriptor.base.k == 2
    _, p = g.primitive_root(descriptor.base)
    assert p == 1


def test_decompose_chain_base_unique_up_to_rotation_and_scalar():
    rng = np.random.default_rng(6)
    y = random_nonperiodic_cycle(rng, 2, 3)
    period = list(y.factors)
    first = g.decompose_chain(g.explicit_chain(period))
    shifted = g.decompose_chain(g.explicit_chain(period[1:] + period[:1]))
    assert first.base.k == shifted.base.k
    k = first.base.k
    t_first = reference_full_tensor(first.base.rows)
    found = False
    for r in range(k):
        rotated = [shifted.base.factors[(i + r) % k] for i in range(k)]
        if abs(abs(np.vdot(reference_full_tensor(rotated), t_first)) - 1.0) < 1e-9:
            found = True
            break
    assert found


def test_decompose_chain_requires_eventual_period():
    with pytest.raises(g.UndecidableError):
        g.decompose_chain(g.gray_zone_chain())
    with pytest.raises(g.UndecidableError):
        g.decompose_chain(g.rotation_chain(math.sqrt(2) - 1))


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    d=st.integers(1, 3),
    p=st.integers(1, 4),
    pre=st.integers(0, 2),
    b=st.integers(1, 40),
    a=st.integers(0, 39),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_integral_base_matches_the_periodicity_route(n, d, p, pre, b, a, seed):
    rng = np.random.default_rng(seed)
    block = np.array([random_unit(rng, n) for _ in range(d)])
    period = np.tile(block, (p, 1)) * np.exp(2j * math.pi * rng.uniform(size=d * p))[:, None]
    preperiod = [random_unit(rng, n) for _ in range(pre)]
    for chain in (g.explicit_chain(period, preperiod), g.rotation_chain(Fraction(a % b, b))):
        base = g.decompose_chain(chain).base.rows
        assert base.tobytes() == reference_decompose_chain_base(chain).tobytes()


@pytest.mark.parametrize("chain", [g.rotation_chain(math.sqrt(2) - 1), g.gray_zone_chain(),
                                   g.prefix_chain([E1, E2])], ids=["float", "gray", "prefix"])
def test_direct_integral_refusal_matches_the_periodicity_route(chain):
    with pytest.raises(g.UndecidableError) as found:
        g.decompose_chain(chain)
    with pytest.raises(g.UndecidableError) as expected:
        reference_decompose_chain_base(chain)
    assert str(found.value) == str(expected.value)


def test_descriptor_materializes_fibers():
    rng = np.random.default_rng(7)
    y = random_nonperiodic_cycle(rng, 2, 2)
    descriptor = g.decompose_chain(g.explicit_chain(list(y.factors)))
    c = np.exp(0.9j)
    rep = g.build_fiber_rep(descriptor.base, c, 4)
    assert g.verify_gp(rep).passed(1e-10)


# ----------------------------------------------------------------------
# branching of the gauge restriction

def test_branching_counts():
    # a length-k cycle has k suffix anchors, one generating each piece
    for z in (g.cycle([E1]), g.cycle([E1, E2, E1])):
        mat = np.stack(g.cycle_anchor_vectors(g.build_cycle_rep(z, z.k + 2)), axis=1)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(z.k))) < 1e-12


def test_branching_generators_orthonormal():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        z = random_nonperiodic_cycle(rng, 2, k)
        rep = g.build_cycle_rep(z, k + 2)
        vectors = g.cycle_anchor_vectors(rep)
        mat = np.stack(vectors, axis=1)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram - np.eye(k))) < 1e-9


# ----------------------------------------------------------------------
# spectral check of the power orbit

def test_eigencheck_square():
    eigs = g.numeric_cycle_eigencheck(g.cycle([E1]), 2)
    assert np.allclose(sorted(eigs.real), [-1.0, 1.0], atol=1e-9)
    assert np.max(np.abs(eigs.imag)) < 1e-9


def test_eigencheck_cube_roots():
    eigs = g.numeric_cycle_eigencheck(g.cycle([E1]), 3)
    want = np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.max(np.abs(eigs - want)) < 1e-9


def test_eigencheck_degenerate_power():
    eigs = g.numeric_cycle_eigencheck(g.cycle([E1]), 1)
    assert np.allclose(eigs, [1.0])


def test_eigencheck_random_two_factor():
    rng = np.random.default_rng(9)
    v = random_nonperiodic_cycle(rng, 2, 2)
    eigs = g.numeric_cycle_eigencheck(v, 2)
    assert np.max(np.abs(eigs - np.array([1.0, -1.0]))) < 1e-9


def test_eigencheck_phase_order_with_conjugate_pairs():
    # cube roots come in a conjugate pair with equal real parts; the phase
    # ordering must stay stable under rounding noise
    rng = np.random.default_rng(19)
    v = g.cycle([g.basis_vector(3, 1), random_unit(rng, 3)])
    eigs = g.numeric_cycle_eigencheck(v, 3)
    want = np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.max(np.abs(eigs - want)) < 1e-9


def test_eigencheck_validates_arguments():
    with pytest.raises(ValueError, match="the base cycle must be nonperiodic"):
        g.numeric_cycle_eigencheck(g.cycle([E1, E1]), 2)
    with pytest.raises(ValueError, match=r"^power must be an integer, got 2\.0$"):
        g.numeric_cycle_eigencheck(g.cycle([E1]), 2.0)
    with pytest.raises(ValueError, match="^power must be >= 1$"):
        g.numeric_cycle_eigencheck(g.cycle([E1]), 0)


# ----------------------------------------------------------------------
# fiber consistency across random phases

def test_fiber_family_verifies_against_scaled_parameter():
    rng = np.random.default_rng(10)
    y = random_nonperiodic_cycle(rng, 2, 2)
    for _ in range(5):
        c = np.exp(2j * np.pi * rng.random())
        rep = g.build_fiber_rep(y, c, 4)
        assert np.array_equal(rep.factor_rows, g.scale_cycle(y, c).rows)
        report = g.verify_gp(rep)
        assert report.passed(1e-10), report.to_dict()
