"""Cycle/chain parameters: canonical forms, periodicity, equivalence, diagnostics."""

import cmath
import contextlib
import io
import json
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpcuntz as g
from gpcuntz import cli
from helpers import (
    brute_force_cycles_equivalent,
    brute_force_power,
    random_cycle,
    random_explicit_chain,
    random_nonperiodic_cycle,
    random_unit,
    reference_chain_factor,
    reference_chain_tail_equivalent,
    reference_cycles_equivalent,
    reference_diagnostics,
    reference_full_tensor,
    reference_gather_matches,
    reference_phase_split,
    reference_primitive_root,
    reference_roll_matches,
    reference_rotation_period,
    reference_rotation_tail_equivalent,
    reference_rotation_to_explicit,
)

E1 = g.basis_vector(2, 1)
E2 = g.basis_vector(2, 2)


# ----------------------------------------------------------------------
# canonical form

@pytest.mark.parametrize("n, i", [(2, 0), (3, -1), (2, 3), (2, 1.0), (2, 1.5)])
def test_basis_vector_refuses_an_index_outside_1_to_n(n, i):
    with pytest.raises(ValueError, match=rf"basis index must be an integer in 1\.\.{n}"):
        g.basis_vector(n, i)


def test_basis_vector_takes_numpy_integers():
    assert np.array_equal(g.basis_vector(3, np.int64(2)), [0, 1, 0])


@pytest.mark.parametrize("call, message", [
    (lambda: g.chain_factor(g.rotation_chain(Fraction(1, 3)), 1.5),
     "factor index must be an integer, got 1.5"),
    (lambda: g.chain_factors(g.explicit_chain([[1, 0]]), 1.0, 2),
     "factor index must be an integer, got 1.0"),
    (lambda: g.chain_factors(g.explicit_chain([[1, 0]]), 1, 2.5),
     "factor count must be an integer, got 2.5"),
    (lambda: g.asymptotic_diagnostics(g.rotation_chain(Fraction(1, 3)), 1.5, 10),
     "p_max must be an integer, got 1.5"),
    (lambda: g.asymptotic_diagnostics(g.rotation_chain(Fraction(1, 3)), 1, 2.5),
     "M must be an integer, got 2.5"),
    (lambda: g.target_overlap_sums(g.rotation_chain(Fraction(1, 3)), [1, 0], 2.5),
     "M must be an integer, got 2.5"),
], ids=["chain_factor", "chain_factors-start", "chain_factors-count",
        "asymptotic_diagnostics-p_max", "asymptotic_diagnostics-M", "target_overlap_sums"])
def test_non_integral_indices_and_counts_are_refused(call, message):
    # chain_factor(.., 1.5) answered (-1, 0) and chain_factors(.., 1, 2.5)
    # three rows; the diagnostics raised numpy's IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_index_and_count_factors():
    chain = g.rotation_chain(Fraction(1, 3))
    assert np.array_equal(g.chain_factors(chain, np.int64(2), np.int32(3)),
                          g.chain_factors(chain, 2, 3))
    assert np.array_equal(g.chain_factor(chain, np.int64(2)), g.chain_factor(chain, 2))
    table = g.asymptotic_diagnostics(chain, np.int64(2), np.int64(10))
    assert table.final(2) == g.asymptotic_diagnostics(chain, 2, 10).final(2)


def test_canonicalize_collects_phases():
    rows, phases = g.params._phase_split(g.cycle([1j * E1, E2]).rows)
    assert np.allclose(rows[0], E1)
    assert np.allclose(rows[1], E2)
    assert abs(np.prod(phases) - 1j) < 1e-12


def test_canonicalize_trivial():
    _, phases = g.params._phase_split(g.cycle([E1]).rows)
    assert abs(np.prod(phases) - 1.0) < 1e-12


def test_canonicalize_negative_vector():
    rows, phases = g.params._phase_split(g.cycle([np.array([-1.0, 0.0])]).rows)
    assert np.allclose(rows[0], E1)
    assert abs(np.prod(phases) + 1.0) < 1e-12


def test_canonical_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = random_cycle(rng, 3, 3)
        rows, phases = g.params._phase_split(z.rows)
        canonical = np.prod(phases) * reference_full_tensor(rows)
        assert abs(np.vdot(canonical, reference_full_tensor(z.rows)) - 1.0) < 1e-12


def _row(rng, n, layout):
    """A unit vector in C^n laid out to meet one branch of the pivot rule."""
    v = random_unit(rng, n)
    if layout == "lead-zeros":
        # the pivot sits past the first entry
        v[: int(rng.integers(1, n))] = 0.0
    elif layout == "near-pivot":
        # a first entry on, just inside or just outside the pivot threshold;
        # the row stays a unit vector within UNIT_TOL without renormalising
        v[0] = 0.0
        v /= np.linalg.norm(v)
        scale = rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 2.0])
        v[0] = scale * g.algebra.PIVOT_TOL * rng.choice([1, -1, 1j, -1j, np.exp(0.3j)])
        return v
    elif layout == "real":
        v = rng.normal(size=n) + 0j
        v.imag = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        v[rng.random(n) < 0.3] = 0.0
        if not v.any():
            v[-1] = -1.0
    return v / np.linalg.norm(v)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 4),
    layouts=st.lists(st.sampled_from(["random", "lead-zeros", "near-pivot", "real"]),
                     min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_wise_canonical_form_is_the_per_factor_loop_bit_for_bit(n, layouts, seed):
    rng = np.random.default_rng(seed)
    z = g.cycle([_row(rng, n, layout) for layout in layouts])
    rows, phases = g.params._phase_split(z.rows)
    expected_rows, phase = reference_phase_split(z.factors)
    assert rows.tobytes() == np.stack(expected_rows).tobytes()
    assert np.array([complex(np.prod(phases))]).tobytes() == np.array([phase]).tobytes()


# ----------------------------------------------------------------------
# factor stacks

def test_factor_stacks_are_read_only():
    z = g.cycle([E1, 1j * E2])
    chain = g.explicit_chain([E2], [E1])
    stacks = [z.rows, g.scale_cycle(z, 1j).rows, chain.preperiod, chain.period,
              chain.prefix, g.prefix_chain([E1, E2]).prefix,
              g.decompose_chain(g.rotation_chain(Fraction(1, 3))).base.rows,
              g.gray_zone_chain().period]
    for rows in stacks:
        assert rows.dtype == complex and rows.ndim == 2 and rows.shape[1] == 2
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[...] = 0.0
    assert [len(rows) for rows in stacks] == [2, 2, 1, 1, 0, 2, 3, 0]
    assert not any(f.flags.writeable for f in z.factors)


def test_cycle_from_a_sequence_or_an_array_holds_the_same_rows():
    rng = np.random.default_rng(31)
    vectors = [random_unit(rng, 3) for _ in range(4)]
    array = np.array(vectors)
    from_tuple, from_array = g.CycleParam(tuple(vectors)), g.CycleParam(array)
    assert from_tuple.rows.tobytes() == from_array.rows.tobytes() == array.tobytes()
    assert (from_array.k, from_array.n) == (4, 3)
    array[0] = 0.0
    assert from_array.rows.tobytes() == from_tuple.rows.tobytes()


def test_factors_keep_tuple_meaning():
    z = g.cycle([E1, E2, 1j * E1])
    assert isinstance(z.factors, tuple) and len(z.factors) == 3
    twice = g.CycleParam(z.factors * 2)
    assert np.array_equal(twice.rows, np.tile(z.rows, (2, 1)))
    turned = g.cycle(z.factors[1:] + z.factors[:1])
    assert np.array_equal(turned.rows, np.roll(z.rows, -1, axis=0))


NOT_A_VECTOR = "expected a vector in C^N with N >= 2"
OFF_UNIT = "vector must have unit norm within 1e-10"


@pytest.mark.parametrize("build, kind, empty", [
    (g.cycle, "cycle", "a cycle needs at least one factor"),
    (g.CycleParam, "cycle", "a cycle needs at least one factor"),
    (g.explicit_chain, "chain", "period block must be nonempty"),
    (g.prefix_chain, "chain", "prefix must be nonempty"),
])
@pytest.mark.parametrize("vectors, fault", [
    ([[1, 0], 5], "not a vector"),
    ([[1, 0], [[1, 0]]], "not a vector"),
    ([[1, 0], [1]], "N < 2"),
    ([[1]], "N < 2"),
    ([[1, 0], [2, 0]], "off the unit"),
    ([[1, 0], [1, 0, 0]], "rank mismatch"),
    ([], "empty"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_each_single_fault_keeps_its_message(build, kind, empty, vectors, fault):
    error, message = {
        "not a vector": (ValueError, NOT_A_VECTOR),
        "N < 2": (ValueError, NOT_A_VECTOR),
        "off the unit": (ValueError, OFF_UNIT),
        "rank mismatch": (g.RankMismatchError, f"{kind} factors must share one ambient dimension"),
        "empty": (ValueError, empty),
    }[fault]
    with pytest.raises(error) as info:
        build(vectors)
    assert str(info.value) == message


def test_explicit_chain_checks_preperiod_and_period_together():
    with pytest.raises(g.RankMismatchError) as info:
        g.explicit_chain([E1], [[1, 0, 0]])
    assert str(info.value) == "chain factors must share one ambient dimension"
    with pytest.raises(ValueError) as info:
        g.explicit_chain([E1], [[0, 2]])
    assert str(info.value) == OFF_UNIT


# ----------------------------------------------------------------------
# primitive tensor-power root

def test_primitive_root_examples():
    _, p = g.primitive_root(g.cycle([E1, E1]))
    assert p == 2
    _, p = g.primitive_root(g.cycle([E1, E2]))
    assert p == 1
    root, p = g.primitive_root(g.cycle([E1, np.array([-1.0, 0.0])]))
    assert p == 2
    assert np.allclose(root.factors[0], 1j * E1)


def test_primitive_root_idempotent_and_reconstructs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        y = random_nonperiodic_cycle(rng, 2, k)
        z = g.CycleParam(y.factors * p)
        root, found = g.primitive_root(z)
        assert found == p
        _, again = g.primitive_root(root)
        assert again == 1
        rebuilt = reference_full_tensor(root.factors * found)
        overlap = np.vdot(rebuilt, reference_full_tensor(z.rows))
        assert abs(overlap - 1.0) < 1e-9


def test_primitive_root_agrees_with_tensor_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        z = g.CycleParam(random_nonperiodic_cycle(rng, 2, k).factors * p)
        root, found = g.primitive_root(z)
        d, p_oracle = brute_force_power(z)
        assert found == p_oracle
        assert root.k == d


# ----------------------------------------------------------------------
# cycle equivalence

def test_cycles_equivalent_rotation():
    rng = np.random.default_rng(8)
    a, b = random_unit(rng, 2), random_unit(rng, 2)
    assert g.cycles_equivalent(g.cycle([a, b]), g.cycle([b, a]))


def test_cycles_equivalent_distinct_basis():
    assert not g.cycles_equivalent(g.cycle([E1]), g.cycle([E2]))


def test_cycles_equivalent_scaling_matters():
    rng = np.random.default_rng(9)
    z = g.cycle([random_unit(rng, 2)])
    assert not g.cycles_equivalent(z, g.scale_cycle(z, np.exp(0.3j)))


def test_cycles_equivalent_rank_mismatch():
    with pytest.raises(g.RankMismatchError):
        g.cycles_equivalent(g.cycle([E1]), g.cycle([g.basis_vector(3, 1)]))


def test_cycles_equivalent_is_equivalence_relation():
    rng = np.random.default_rng(10)
    for _ in range(10):
        z = random_cycle(rng, 2, 3)
        assert g.cycles_equivalent(z, z)
        # rotate and redistribute phases with unit product
        phases = np.exp(2j * np.pi * rng.random(3))
        phases[2] = 1.0 / (phases[0] * phases[1])
        r = int(rng.integers(0, 3))
        rotated = [z.factors[(i + r) % 3] * phases[i] for i in range(3)]
        y = g.cycle(rotated)
        assert g.cycles_equivalent(z, y)
        assert g.cycles_equivalent(y, z)
        # transitivity through a second rotation
        r2 = int(rng.integers(0, 3))
        w = g.cycle([y.factors[(i + r2) % 3] for i in range(3)])
        assert g.cycles_equivalent(z, w)


# ----------------------------------------------------------------------
# factor comparison up to phase, across the canonical pivot

def _straddling(first):
    """A unit vector (first, i sqrt(1 - first^2)) in C^2."""
    return np.array([first, 1j * math.sqrt(1 - first**2)])


# first components on either side of the 1e-8 pivot threshold of the
# canonical form, 2e-12 apart
PIVOT_A = _straddling(1e-8 - 1e-12)
PIVOT_B = _straddling(1e-8 + 1e-12)
PIVOT_E = np.array([1, 1j]) / math.sqrt(2)


def test_phase_match_returns_the_overlap_phases():
    rng = np.random.default_rng(3)
    rows = np.stack([random_unit(rng, 3) for _ in range(4)])
    phases = np.exp(2j * math.pi * rng.uniform(size=4))
    found = g.params._phase_match(phases[:, None] * rows, rows, 1e-9)
    assert np.max(np.abs(found - phases)) < 1e-12
    assert g.params._phase_match(rows[::-1], rows, 1e-9) is None
    assert g.params._phase_match(rows + 1e-8, rows, 1e-9) is None


def test_decisions_do_not_jump_at_the_canonical_pivot():
    a, b, e = PIVOT_A, PIVOT_B, PIVOT_E
    assert g.cycles_equivalent(g.cycle([a, e]), g.cycle([b, e]))
    assert g.chain_tail_equivalent(g.explicit_chain([a, e]), g.explicit_chain([b, e]))
    z = g.cycle([a, b])
    root, p = g.primitive_root(z)
    assert p == 2
    square = reference_full_tensor(root.factors * 2)
    assert np.linalg.norm(square - reference_full_tensor(z.rows)) <= 1e-9
    assert g.is_eventually_periodic(g.explicit_chain([a, b])).period == 1


def _near_pivot_unit(rng, n):
    """A random unit vector in C^n whose first component has modulus within
    1e-12 of the 1e-8 pivot threshold."""
    first = (1e-8 + rng.uniform(-1e-12, 1e-12)) * np.exp(2j * math.pi * rng.uniform())
    return np.concatenate([[first], random_unit(rng, n - 1) * math.sqrt(1 - abs(first) ** 2)])


def _unit_product_phases(rng, k):
    phases = np.exp(2j * math.pi * rng.uniform(size=k))
    phases[-1] /= np.prod(phases)
    return phases


def _perturbed(v, rng):
    w = v.copy()
    w[0] += rng.uniform(-1e-12, 1e-12)
    return w / np.linalg.norm(w)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    d=st.integers(1, 2),
    power=st.integers(1, 4),
    shift=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_perturbations_across_the_pivot_never_flip_a_decision(n, d, power, shift, seed):
    power = min(power, 4 // d)
    k = d * power
    rng = np.random.default_rng(seed)
    # in C^2 two such vectors are 1e-8 apart up to phase, so only one is drawn
    block = [_near_pivot_unit(rng, n)] + [
        _near_pivot_unit(rng, n) if n > 2 else random_unit(rng, n) for _ in range(d - 1)
    ]
    z = g.cycle([c * block[i % d] for i, c in enumerate(_unit_product_phases(rng, k))])
    near = g.cycle([_perturbed(f, rng) for f in z.factors])
    shift %= k
    turned = g.cycle([
        c * f for c, f in zip(_unit_product_phases(rng, k), near.factors[shift:] + near.factors[:shift])
    ])
    scaled = g.scale_cycle(near, np.exp(0.5j))
    other = g.explicit_chain([random_unit(rng, n) for _ in range(d)])
    for w in (z, near):
        root, p = g.primitive_root(w)
        assert p == power == brute_force_power(w)[1]
        tensor = reference_full_tensor(root.factors * p)
        assert np.linalg.norm(tensor - reference_full_tensor(w.rows)) <= 1e-9
        assert g.cycles_equivalent(w, turned) is True is brute_force_cycles_equivalent(w, turned)
        assert g.cycles_equivalent(w, scaled) is False is brute_force_cycles_equivalent(w, scaled)
        chain = g.explicit_chain(w.factors, [block[0]])
        assert g.is_eventually_periodic(chain).period == d
        assert g.chain_tail_equivalent(chain, g.explicit_chain(turned.factors))
        assert not g.chain_tail_equivalent(chain, other)


# ----------------------------------------------------------------------
# chain periodicity

def test_eventually_periodic_explicit():
    verdict = g.is_eventually_periodic(g.explicit_chain([E1, E2]))
    assert verdict.eventually_periodic is True
    assert verdict.period == 2


def test_eventually_periodic_half_rotation_has_period_one():
    verdict = g.is_eventually_periodic(g.rotation_chain(Fraction(1, 2)))
    assert verdict.eventually_periodic is True
    assert verdict.period == 1
    z1 = g.chain_factor(g.rotation_chain(Fraction(1, 2)), 1)
    z2 = g.chain_factor(g.rotation_chain(Fraction(1, 2)), 2)
    assert np.allclose(z1, -z2)


def test_eventually_periodic_float_rotation_is_analytic():
    verdict = g.is_eventually_periodic(g.rotation_chain(math.sqrt(2) - 1))
    assert verdict.eventually_periodic is False
    assert verdict.analytic_assumption


def test_eventually_periodic_gray_zone_and_prefix():
    assert g.is_eventually_periodic(g.gray_zone_chain()).eventually_periodic is False
    rng = np.random.default_rng(11)
    prefix = g.prefix_chain([random_unit(rng, 2) for _ in range(4)])
    assert g.is_eventually_periodic(prefix).eventually_periodic is None


def test_rational_rotation_period_is_exact():
    chain = g.rotation_chain(Fraction(2, 5))
    assert len(g.params._tail_block(chain)) == 5
    for m in range(1, 11):
        assert np.allclose(g.chain_factor(chain, m), g.chain_factor(chain, m + 5))


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 200), a=st.integers(0, 199))
def test_rotation_period_closed_form_matches_the_float_path(b, a):
    theta = Fraction(a % b, b)
    verdict = g.is_eventually_periodic(g.rotation_chain(theta))
    assert verdict.eventually_periodic is True
    assert verdict.period == reference_rotation_period(theta)


def test_rotation_period_needs_no_factors(monkeypatch):
    def no_factors(*_):
        raise AssertionError("factors were generated for a closed form")

    monkeypatch.setattr(g.params, "chain_factors", no_factors)
    assert g.is_eventually_periodic(g.rotation_chain(Fraction(1, 100_000_007))).period == 100_000_007
    assert g.is_eventually_periodic(g.rotation_chain(Fraction(3, 8))).period == 4
    assert g.is_eventually_periodic(g.rotation_chain(Fraction(0))).period == 1


# ----------------------------------------------------------------------
# tail equivalence

def test_tail_equivalent_preperiod_shift():
    z = g.explicit_chain([E1], preperiod=[E2])
    y = g.explicit_chain([E1])
    assert g.chain_tail_equivalent(z, y)


def test_tail_inequivalent_different_tails():
    assert not g.chain_tail_equivalent(g.explicit_chain([E1]), g.explicit_chain([E2]))


def test_tail_equivalent_half_rotation_vs_constant():
    assert g.chain_tail_equivalent(g.rotation_chain(Fraction(1, 2)), g.explicit_chain([E1]))
    # periods 4 and 2: one offset per residue modulo their gcd
    assert g.chain_tail_equivalent(g.rotation_chain(Fraction(1, 4)), g.explicit_chain([E1, E2]))
    assert g.chain_tail_equivalent(g.explicit_chain([E2, E1]), g.rotation_chain(Fraction(3, 4)))
    assert not g.chain_tail_equivalent(g.rotation_chain(Fraction(1, 3)), g.explicit_chain([E1, E2]))


def test_tail_equivalent_needs_exact_tails():
    with pytest.raises(g.UndecidableError):
        g.chain_tail_equivalent(g.prefix_chain([E1]), g.explicit_chain([E1]))
    with pytest.raises(g.UndecidableError):
        g.chain_tail_equivalent(g.gray_zone_chain(), g.explicit_chain([E1]))


def test_tail_equivalent_offset_blocks():
    z = g.explicit_chain([E1, E2])
    y = g.explicit_chain([E2, E1])
    assert g.chain_tail_equivalent(z, y)
    w = g.explicit_chain([E1, E1, E2])
    assert not g.chain_tail_equivalent(z, w)


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 200),
    a=st.integers(0, 199),
    other=st.one_of(
        # a shift by c/d, d <= 4: equivalent exactly for shifts 0 and 1/2
        st.tuples(st.just("shift"), st.integers(0, 3), st.integers(1, 4)),
        st.tuples(st.just("free"), st.integers(0, 11), st.integers(1, 12)),
    ),
)
def test_rotation_tail_closed_form_matches_the_float_path(b, a, other):
    kind, c, d = other
    theta = Fraction(a % b, b)
    other_theta = (theta + Fraction(c, d)) % 1 if kind == "shift" else Fraction(c % d, d)
    found = g.chain_tail_equivalent(g.rotation_chain(theta), g.rotation_chain(other_theta))
    assert found == reference_rotation_tail_equivalent(theta, other_theta)


def test_rotation_tail_closed_form_examples(monkeypatch):
    def no_factors(*_):
        raise AssertionError("factors were generated for a closed form")

    monkeypatch.setattr(g.params, "chain_factors", no_factors)
    rot = g.rotation_chain
    assert g.chain_tail_equivalent(rot(Fraction(1, 8)), rot(Fraction(5, 8)))
    assert not g.chain_tail_equivalent(rot(Fraction(1, 8)), rot(Fraction(3, 8)))
    big = Fraction(1, 100_000_007)
    assert g.chain_tail_equivalent(rot(big), rot(big + Fraction(1, 2)))
    assert not g.chain_tail_equivalent(rot(big), rot(2 * big))


def test_rotation_block_over_the_factor_budget_is_refused(monkeypatch):
    def no_factors(*_):
        raise AssertionError("factors were generated for a refused block")

    monkeypatch.setattr(g.params, "chain_factors", no_factors)
    chain = g.rotation_chain(Fraction(1, 100_000_007))
    message = ("the period block of rotation 1/100000007 would generate 100000007 factors, "
               "over the budget of 8388608")
    with pytest.raises(ValueError, match=message):
        g.chain_tail_equivalent(chain, g.explicit_chain([E1]))
    with pytest.raises(ValueError, match=message):
        g.decompose_chain(chain)


# ----------------------------------------------------------------------
# offset matcher and roots against the per-offset loops they replaced

TOL = g.algebra.DEFAULT_TOL
# distances and phase-product defects as multiples of the tolerance: just
# inside, just outside, well inside and well outside
TOL_SCALES = [1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0]


def _assert_same_matches(found, expected):
    found = list(found)
    assert len(found) == len(expected)
    for c, e in zip(found, expected):
        assert (c is None) == (e is None)
        if c is not None:
            assert c.tobytes() == e.tobytes()


def _moved(rng, v, distance):
    """A unit vector at `distance` from v whose overlap with v is real
    positive: v turned toward a random orthogonal direction."""
    u = random_unit(rng, len(v))
    u -= np.vdot(v, u) * v
    phi = 2.0 * math.asin(distance / 2.0)
    return math.cos(phi) * v + math.sin(phi) * u / np.linalg.norm(u)


def _pair_rows(rng, n, d, p, case, shift, scale):
    """Rows of a p-th power z of a random d-block (random phases on every
    row) and rows y compared against it: an independent power (`random`), z
    rotated by `shift` with unit-product phases (`rotated`), the same with
    phase product exp(i e) at |exp(i e) - 1| = scale tol (`product`), or
    with one row moved scale tol away (`moved`)."""
    k = d * p
    block = np.array([random_unit(rng, n) for _ in range(d)])
    z = np.tile(block, (p, 1)) * np.exp(2j * math.pi * rng.uniform(size=k))[:, None]
    if case == "random":
        other = np.array([random_unit(rng, n) for _ in range(d)])
        return z, np.tile(other, (p, 1))
    phases = _unit_product_phases(rng, k)
    if case == "product":
        phases[-1] *= np.exp(2j * math.asin(scale * TOL / 2.0))
    y = np.roll(z, -shift, axis=0) * phases[:, None]
    if case == "moved":
        i = int(rng.integers(k))
        y[i] = _moved(rng, y[i], scale * TOL)
    return z, y


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    d=st.integers(1, 3),
    p=st.integers(1, 4),
    q=st.integers(1, 3),
    case=st.sampled_from(["random", "rotated", "product", "moved"]),
    shift=st.integers(0, 11),
    scale=st.sampled_from(TOL_SCALES),
    seed=st.integers(0, 2**32 - 1),
)
def test_offset_matcher_matches_the_roll_and_gather_loops(n, d, p, q, case, shift, scale, seed):
    rng = np.random.default_rng(seed)
    zr, yr = _pair_rows(rng, n, d, p, case, shift % (d * p), scale)
    z, y = g.cycle(zr), g.cycle(yr)
    _assert_same_matches(g.params._offset_matches(z.rows, y.rows, TOL),
                         reference_roll_matches(z.rows, y.rows))
    for a, b in ((z, y), (y, z)):
        found = g.cycles_equivalent(a, b)
        assert found == reference_cycles_equivalent(a, b)
        if case != "random":
            # every matching offset has the phase product of the rotation
            assert found is (case == "rotated" or scale < 1.0)
    # chain blocks of lengths d p and d q: y's first block, repeated q times
    za = g.explicit_chain(z.rows, [random_unit(rng, n)])
    yb = g.explicit_chain(np.tile(y.rows[:d], (q, 1)))
    _assert_same_matches(g.params._offset_matches(za.period, yb.period, TOL),
                         reference_gather_matches(za.period, yb.period))
    for a, b in ((za, yb), (yb, za)):
        found = g.chain_tail_equivalent(a, b)
        assert found == reference_chain_tail_equivalent(a, b)
        if case in ("rotated", "product"):
            assert found is True


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 12),
    a=st.integers(0, 11),
    q=st.integers(1, 3),
    case=st.sampled_from(["random", "rotated", "moved"]),
    shift=st.integers(0, 11),
    scale=st.sampled_from(TOL_SCALES),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_against_explicit_matches_the_gather_loop(b, a, q, case, shift, scale, seed):
    rng = np.random.default_rng(seed)
    rot = g.rotation_chain(Fraction(a % b, b))
    block = reference_rotation_to_explicit(rot).period
    b = len(block)
    if case == "random":
        rows = np.array([random_unit(rng, 2) for _ in range(b)])
    else:
        rows = np.roll(block, -(shift % b), axis=0) * np.exp(2j * math.pi * rng.uniform(size=b))[:, None]
        if case == "moved":
            i = int(rng.integers(b))
            rows[i] = _moved(rng, rows[i], scale * TOL)
    ex = g.explicit_chain(np.tile(rows, (q, 1)))
    assert g.params._tail_block(rot).tobytes() == block.tobytes()
    _assert_same_matches(g.params._offset_matches(g.params._tail_block(rot), ex.period, TOL),
                         reference_gather_matches(block, ex.period))
    for x, w in ((rot, ex), (ex, rot)):
        found = g.chain_tail_equivalent(x, w)
        assert found == reference_chain_tail_equivalent(x, w)
        if case != "random":
            assert found is (case == "rotated" or scale < 1.0)


@pytest.mark.parametrize("undecidable", [g.rotation_chain(0.1), g.gray_zone_chain(),
                                         g.prefix_chain([E1, E2])])
def test_tail_equivalence_refuses_either_side_before_building_a_block(monkeypatch, undecidable):
    def no_factors(*_):
        raise AssertionError("a tail block was built for an undecidable pair")

    monkeypatch.setattr(g.params, "chain_factors", no_factors)
    message = f"chain kind {undecidable.kind!r} has no exact periodic tail"
    # a rotation block within the budget, one over it, and an explicit block
    exact_chains = (g.rotation_chain(Fraction(1, 8388593)),
                    g.rotation_chain(Fraction(1, 100_000_007)), g.explicit_chain([E1]))
    for exact in exact_chains:
        for pair in ((exact, undecidable), (undecidable, exact)):
            with pytest.raises(g.UndecidableError, match=message):
                g.chain_tail_equivalent(*pair)


# e^(2 pi i q/4), q = 0..3, with every zero part +0.0
QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 4),
    layouts=st.lists(st.sampled_from(["random", "lead-zeros", "near-pivot", "real"]),
                     min_size=1, max_size=3),
    p=st.integers(1, 4),
    moved=st.booleans(),
    scale=st.sampled_from(TOL_SCALES),
    seed=st.integers(0, 2**32 - 1),
)
def test_roots_and_powers_match_the_canonical_cycle_route(n, layouts, p, moved, scale, seed):
    rng = np.random.default_rng(seed)
    block = np.array([_row(rng, n, layout) for layout in layouts])
    rows = np.tile(block, (p, 1)) * np.exp(2j * math.pi * rng.uniform(size=len(block) * p))[:, None]
    if moved:
        i = int(rng.integers(len(rows)))
        rows[i] = _moved(rng, rows[i], scale * TOL)
    z = g.cycle(rows)
    root, power = g.primitive_root(z)
    expected_root, expected_power = reference_primitive_root(z)
    assert power == expected_power
    assert root.rows.tobytes() == expected_root.rows.tobytes()
    # omega^j is exact at the quarter turns 1, i, -1 and -i
    expected = [z] if power == 1 else [
        g.scale_cycle(expected_root, QUARTER_TURNS[4 * j // power] if 4 * j % power == 0
                      else cmath.exp(2j * math.pi * j / power)) for j in range(power)
    ]
    assert [c.rows.tobytes() for c in g.decompose_cycle(z)] == [c.rows.tobytes() for c in expected]


def test_roots_of_unity_are_exact_at_quarter_turns_and_keep_the_other_bits():
    for p in range(1, 25):
        for j in range(-p, 2 * p):
            got = g.params._root_of_unity(j, p)
            if 4 * j % p == 0:
                expected = QUARTER_TURNS[4 * j // p % 4]
            else:
                expected = cmath.exp(2j * math.pi * j / p)
            assert np.complex128(got).tobytes() == np.complex128(expected).tobytes(), (j, p)


# ----------------------------------------------------------------------
# chain factors

ORACLE_CHAINS = {
    "rotation 3/7": (g.rotation_chain(Fraction(3, 7)), 10**6),
    "rotation 5/8": (g.rotation_chain(Fraction(5, 8)), 10**6),
    "float theta": (g.rotation_chain(0.3819660112501051), 10**9),
    "gray zone": (g.gray_zone_chain(), 10**6),
    "explicit with preperiod": (
        random_explicit_chain(np.random.default_rng(11), 3, 4, 5), 10**6,
    ),
}


def _assert_reference_rows(rows, chain, start, count):
    ref = np.stack([reference_chain_factor(chain, m) for m in range(start, start + count)])
    assert np.array_equal(rows, ref)
    # bit for bit, signs of zeros included
    assert rows.dtype == ref.dtype and rows.tobytes() == ref.tobytes()


def _period_counts(chain):
    """Counts b - 1, b, b + 1 and 2b + 1 about a chain's period b, where the
    rows of a rational rotation stop being its residue table."""
    if chain.kind == "explicit":
        b = len(chain.period)
    elif isinstance(chain.theta, Fraction):
        b = chain.theta.denominator
    else:
        return ()
    return (b - 1, b, b + 1, 2 * b + 1)


@pytest.mark.parametrize("name", sorted(ORACLE_CHAINS))
@pytest.mark.parametrize("start_kind", ["1", "2", "7", "far", "top"])
def test_chain_factors_match_reference(name, start_kind):
    chain, far = ORACLE_CHAINS[name]
    for count in (1, 2, 3, 10_007, *_period_counts(chain)):
        # "top" starts one index below the last start the 2^62 limit allows
        start = {"far": far, "top": (1 << 62) - count - 1}.get(start_kind) or int(start_kind)
        rows = g.chain_factors(chain, start, count)
        assert rows.shape == (count, chain.n)
        _assert_reference_rows(rows, chain, start, count)
    assert np.array_equal(g.chain_factor(chain, start), reference_chain_factor(chain, start))


@pytest.mark.parametrize("theta", [Fraction(1, 2**31 + 11), Fraction(3, 2**31),
                                   Fraction(12345, 2**61 - 1), Fraction(2**40 + 1, 2**62 - 57)])
@pytest.mark.parametrize("start", [1, 2**31 - 3, 2**40])
def test_chain_factors_of_large_denominators_match_reference(theta, start):
    # a denominator of 2^31 or more is reduced in Python integers
    chain = g.rotation_chain(theta)
    _assert_reference_rows(g.chain_factors(chain, start, 7), chain, start, 7)


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 64),
    a=st.integers(0, 63),
    start=st.integers(1, 10**12),
    count=st.integers(1, 40),
)
def test_rational_rotation_factors_match_reference(a, b, start, count):
    chain = g.rotation_chain(Fraction(a % b, b))
    _assert_reference_rows(g.chain_factors(chain, start, count), chain, start, count)


def test_chain_factors_prefix_range():
    vectors = [E1, E2, np.array([1.0, 1.0]) / math.sqrt(2.0)]
    chain = g.prefix_chain(vectors)
    assert np.array_equal(g.chain_factors(chain, 2, 2), np.stack(vectors[1:]))
    with pytest.raises(g.UndecidableError):
        g.chain_factors(chain, 2, 3)
    with pytest.raises(g.UndecidableError):
        g.chain_factor(chain, 4)


@pytest.mark.parametrize("name", sorted(ORACLE_CHAINS))
def test_chain_factors_reject_indices_out_of_range(name):
    chain, _ = ORACLE_CHAINS[name]
    for start in (0, -3):
        with pytest.raises(ValueError, match="starts at 1"):
            g.chain_factors(chain, start, 2)
    with pytest.raises(ValueError, match="below 2"):
        g.chain_factor(chain, 1 << 62)


@pytest.mark.parametrize("name", sorted(ORACLE_CHAINS))
def test_chain_factors_are_read_only(name):
    chain, _ = ORACLE_CHAINS[name]
    rows = g.chain_factors(chain, 1, 4)
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0
    with pytest.raises(ValueError):
        g.chain_factor(chain, 3)[0] = 0.0


# ----------------------------------------------------------------------
# diagnostics

def test_rotation_closed_form():
    for theta, frac in ((1.0 / 3.0, Fraction(1, 3)), (math.sqrt(2) - 1, None)):
        chain = g.rotation_chain(frac if frac is not None else theta)
        table = g.asymptotic_diagnostics(chain, 3, 500)
        for p in (1, 2, 3):
            plain, _ = table.final(p)
            assert abs(plain - 2 * 500 * math.sin(math.pi * p * theta) ** 2) < 1e-9


def test_constant_chain_sums_vanish():
    table = g.asymptotic_diagnostics(g.explicit_chain([E1]), 3, 100)
    for p in (1, 2, 3):
        plain, absolute = table.final(p)
        assert plain == 0.0
        assert absolute == 0.0


def test_gray_zone_term_identity():
    rows = g.chain_factors(g.gray_zone_chain(), 1, 2000)
    for n in range(1, 1001):
        z1 = rows[2 * n - 2]
        z2 = rows[2 * n - 1]
        assert abs((1.0 - abs(np.vdot(z1, z2))) - 1.0 / n**2) < 1e-12


def test_gray_zone_partial_sums_bounded():
    table = g.asymptotic_diagnostics(g.gray_zone_chain(), 1, 2000)
    sums = table.absolute[1]
    assert np.all(np.diff(sums) >= 0)
    assert sums[-1] < math.pi**2 / 3


def test_gray_zone_target_sums_bounded():
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    sums = g.target_overlap_sums(g.gray_zone_chain(), target, 2000)
    assert sums[-1] < math.pi**2 / 3
    assert np.all(np.diff(sums) >= 0)


def test_diagnostics_validates_arguments():
    with pytest.raises(ValueError):
        g.asymptotic_diagnostics(g.gray_zone_chain(), 0, 10)
    with pytest.raises(ValueError):
        g.target_overlap_sums(g.gray_zone_chain(), E1, 0)
    with pytest.raises(g.UndecidableError):
        g.asymptotic_diagnostics(g.prefix_chain([E1]), 1, 10)


def test_diagnostics_budget_refuses_before_generating():
    budget = g.params.DIAGNOSTICS_BUDGET
    chain = g.rotation_chain(Fraction(1, 3))
    with pytest.raises(ValueError, match=f"{budget + 2} factors, over the budget of {budget}"):
        g.asymptotic_diagnostics(chain, 1, budget + 1)
    with pytest.raises(ValueError, match=f"{4 * budget} overlap summands"):
        g.asymptotic_diagnostics(chain, 64, budget // 16)
    with pytest.raises(ValueError, match=f"{budget + 1} factors"):
        g.target_overlap_sums(chain, E1, budget + 1)


def test_diagnostics_budget_charges_factor_entries(monkeypatch):
    budget = g.params.DIAGNOSTICS_BUDGET
    e1_16 = g.basis_vector(16, 1)
    wide = g.explicit_chain([e1_16])
    with pytest.raises(ValueError, match=f"8000001 factors, over the budget of {budget // 8}"):
        g.asymptotic_diagnostics(wide, 1, 8_000_000)
    with pytest.raises(ValueError, match=f"{budget // 8 + 1} factors"):
        g.target_overlap_sums(wide, e1_16, budget // 8 + 1)

    class Generated(Exception):
        pass

    def generated(*_):
        raise Generated

    # a request inside the budget gets as far as generating its factors
    monkeypatch.setattr(g.params, "chain_factors", generated)
    with pytest.raises(Generated):
        g.asymptotic_diagnostics(g.explicit_chain([E1]), 1, budget - 2)
    with pytest.raises(Generated):
        g.asymptotic_diagnostics(wide, 1, budget // 8 - 1)
    with pytest.raises(Generated):
        g.target_overlap_sums(g.explicit_chain([E1]), E1, budget)


@st.composite
def _diagnostics_requests(draw):
    """(chain, p_max, m_max) over every chain kind: rotations a/b with b <= 64
    and M on both sides of b, a denominator of 2^31 or more at M <= 50, float
    theta, the gray zone, and explicit (with preperiods) and prefix chains in
    C^2 to C^5 and C^9, where numpy's row-axis sum pairs the terms of a row."""
    kind = draw(st.sampled_from(["rotation", "large rotation", "theta", "gray zone",
                                 "explicit", "prefix"]))
    p_max = draw(st.integers(1, 4))
    if kind == "rotation":
        b = draw(st.integers(1, 64))
        chain = g.rotation_chain(Fraction(draw(st.integers(0, b - 1)), b))
        return chain, p_max, draw(st.integers(1, 2 * b + 2))
    if kind == "large rotation":
        b = draw(st.sampled_from([2**31 + 11, 2**61 - 1]))  # both prime
        chain = g.rotation_chain(Fraction(draw(st.integers(1, b - 1)), b))
        return chain, p_max, draw(st.integers(1, 50))
    if kind == "theta":
        chain = g.rotation_chain(draw(st.floats(0.0, 1.0, exclude_max=True)))
        return chain, p_max, draw(st.integers(1, 200))
    if kind == "gray zone":
        return g.gray_zone_chain(), p_max, draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 3, 4, 5, 9]))
    if kind == "explicit":
        chain = random_explicit_chain(rng, n, draw(st.integers(0, 3)), draw(st.integers(1, 5)))
        return chain, p_max, draw(st.integers(1, 60))
    m_max = draw(st.integers(1, 60))
    return g.prefix_chain([random_unit(rng, n) for _ in range(m_max + p_max)]), p_max, m_max


@settings(max_examples=150, deadline=None)
@given(request=_diagnostics_requests(), seed=st.integers(0, 2**32 - 1))
def test_diagnostics_match_the_axis_sum_reference(request, seed):
    chain, p_max, m_max = request
    target = random_unit(np.random.default_rng(seed), chain.n)
    plain, absolute, sums = reference_diagnostics(chain, p_max, m_max, target)
    table = g.asymptotic_diagnostics(chain, p_max, m_max)
    assert table.m_max == m_max and [*table.plain] == [*table.absolute] == [*plain]
    for p in plain:
        for got, ref in ((table.plain[p], plain[p]), (table.absolute[p], absolute[p])):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert g.target_overlap_sums(chain, target, m_max).tobytes() == sums.tobytes()
    # the command line's one pass serves the table and the target sums
    chunks = g.params._diagnostic_chunks(chain, p_max, m_max, target)
    assert g.params._columns(chunks, m_max)[-1].tobytes() == sums.tobytes()


@settings(max_examples=150, deadline=None)
@given(request=_diagnostics_requests(), data=st.data(),
       entries=st.sampled_from([1, 7, g.params._CHUNK_ENTRIES]))
def test_diagnostics_columns_do_not_depend_on_m(request, data, entries):
    # the first m entries of every column, plain, absolute and target, are
    # the same whether M is m or more, whatever chunks the two runs cut
    chain, p_max, m_max = request
    m_max += 1
    if chain.kind == "prefix":
        chain = g.prefix_chain(list(chain.prefix) + [chain.prefix[-1]])
    m = data.draw(st.integers(1, m_max - 1))
    target = random_unit(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), chain.n)
    with mock.patch.object(g.params, "_CHUNK_ENTRIES", entries):
        whole, head = (g.params._columns(g.params._diagnostic_chunks(chain, p_max, count, target),
                                         count) for count in (m_max, m))
        sums = [g.target_overlap_sums(chain, target, count) for count in (m_max, m)]
    assert len(whole) == len(head) == 2 * p_max + 1
    for got, ref in zip([*whole, sums[0]], [*head, sums[1]]):
        assert got[:m].tobytes() == ref.tobytes()


@st.composite
def _chunked_requests(draw):
    """(chain, p_max, m_max, chunk entries, rows per chunk) over every chain
    kind, chunks of 1, 7 and the default number of entries, p <= 4 and M
    one below, at, one and two past one or two whole chunks: a chunk takes
    the entries' rows, or p_max rows if more, as in explicit chains in C^4
    and in C^(2^14) at the default, whose entries make fewer rows than
    p_max."""
    entries = draw(st.sampled_from([1, 7, g.params._CHUNK_ENTRIES]))
    kind = draw(st.sampled_from(["rotation", "theta", "gray zone", "prefix", "explicit",
                                 "explicit C^4", "wide"]))
    p_max = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = {"explicit C^4": 4, "wide": 1 << 14}.get(kind, 2)
    size = max(1, p_max, entries // n)
    m_max = max(1, size * draw(st.integers(1, 2)) + draw(st.integers(-1, 2)))
    if kind == "rotation":
        b = draw(st.integers(1, 64))
        chain = g.rotation_chain(Fraction(draw(st.integers(0, b - 1)), b))
    elif kind == "theta":
        chain = g.rotation_chain(draw(st.floats(0.0, 1.0, exclude_max=True)))
    elif kind == "gray zone":
        chain = g.gray_zone_chain()
    elif kind == "prefix":
        chain = g.prefix_chain([random_unit(rng, n) for _ in range(m_max + p_max)])
    else:
        chain = random_explicit_chain(rng, n, draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    return chain, p_max, m_max, entries, size


def _cli_totals(chain, p_max, m_max, target) -> dict:
    """The JSON payload of the `diagnostics` subcommand on the chain."""
    if chain.kind == "rotation" and isinstance(chain.theta, Fraction):
        source = ["--rotation", f"{chain.theta.numerator}/{chain.theta.denominator}"]
    elif chain.kind == "rotation":
        source = ["--theta", repr(chain.theta)]
    elif chain.kind == "gray_zone":
        source = ["--gray-zone"]
    elif chain.kind == "prefix":
        source = ["--inline", json.dumps(
            {"kind": "chain", "prefix": g.params.complex_pairs(chain.prefix)})]
    else:
        source = ["--inline", json.dumps({
            "kind": "chain", "period": g.params.complex_pairs(chain.period),
            "preperiod": g.params.complex_pairs(chain.preperiod)})]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["diagnostics", *source, "--p", str(p_max), "--M", str(m_max),
                         "--target", json.dumps(g.params.complex_pairs(target)), "-f", "json"])
    assert code == 0
    return json.loads(out.getvalue())


@settings(max_examples=50, deadline=None)
@given(request=_chunked_requests(), seed=st.integers(0, 2**32 - 1))
def test_chunked_diagnostics_match_the_whole_array_reference(request, seed):
    chain, p_max, m_max, entries, size = request
    target = random_unit(np.random.default_rng(seed), chain.n)
    plain, absolute, sums = reference_diagnostics(chain, p_max, m_max, target)
    whole = g.chain_factors(chain, 1, m_max + p_max)
    generate = g.params.chain_factors
    calls = []

    def recorded(chain, start, count):
        rows = generate(chain, start, count)
        # each chunk's rows are the slice of one call
        assert rows.tobytes() == whole[start - 1 : start - 1 + count].tobytes()
        calls.append((start, count))
        return rows

    with mock.patch.object(g.params, "_CHUNK_ENTRIES", entries), \
            mock.patch.object(g.params, "chain_factors", recorded):
        columns = g.params._columns(g.params._diagnostic_chunks(chain, p_max, m_max, target),
                                    m_max)
        # every factor requested once, in order: M + p_max rows in all
        starts = [start for start, _ in calls]
        assert starts == [1 + sum(count for _, count in calls[:i]) for i in range(len(calls))]
        assert sum(count for _, count in calls) == m_max + p_max
        # chunks of `size` rows, the last one what is left
        counts = [count for _, count in calls]
        counts[0] -= p_max
        assert all(count == size for count in counts[:-1]) and 1 <= counts[-1] <= size
        columns.append(g.target_overlap_sums(chain, target, m_max))
        refs = [plain[p] for p in plain] + [absolute[p] for p in plain] + [sums, sums]
        for got, ref in zip(columns, refs):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        payload = _cli_totals(chain, p_max, m_max, target)
    expected = {"M": m_max, "target_sum": float(sums[-1]), "sums": {
        str(p): {"plain": float(plain[p][-1]), "abs": float(absolute[p][-1])} for p in plain}}
    # shortest round-trip texts: equal exactly when the bits are
    assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_the_command_line_holds_no_column():
    # M = 2^21 at p = 2 with a target: five float columns would be 80 MiB,
    # one alone 16 MiB; the chunks and their totals are far less
    tracemalloc.start()
    try:
        payload = _cli_totals(g.rotation_chain(Fraction(2, 7)), 2, 1 << 21,
                              np.array([0.6, 0.8j], dtype=complex))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["M"] == 1 << 21
    assert peak < 8 << 20


@pytest.mark.parametrize("p", [0, 3, -1, 1.0, 2.5, "1"])
def test_final_refuses_a_p_outside_the_table(p):
    table = g.asymptotic_diagnostics(g.rotation_chain(Fraction(1, 3)), 2, 10)
    with pytest.raises(ValueError, match=r"p = .* is outside 1\.\.2|p must be an integer"):
        table.final(p)
    assert table.final(np.int64(2)) == table.final(2)


# a finite entry off the unit sphere, NaN and infinity
_BAD_ENTRIES = {"off the unit": 2.0, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("bad", sorted(_BAD_ENTRIES))
@pytest.mark.parametrize("name, chain", [
    # 20 rows of a period-7 rotation: the bad row 5 of the residue table is
    # also rows 12 and 19 of the tiled output
    ("rotation 3/7", g.rotation_chain(Fraction(3, 7))),
    ("float theta", g.rotation_chain(0.1)),
    ("gray zone", g.gray_zone_chain()),
])
def test_a_generated_row_off_the_unit_sphere_is_refused(monkeypatch, name, chain, bad):
    planar = g.params._planar_rows

    def spoiled(angles):
        rows = planar(angles)
        rows[5, 0] = _BAD_ENTRIES[bad]
        return rows

    monkeypatch.setattr(g.params, "_planar_rows", spoiled)
    for call in (lambda: g.chain_factors(chain, 1, 20),
                 lambda: g.asymptotic_diagnostics(chain, 1, 19),
                 lambda: g.target_overlap_sums(chain, E1, 20)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == g.params._NOT_UNIT


def test_budget_refusals_come_before_any_factor(monkeypatch):
    budget = g.params.DIAGNOSTICS_BUDGET

    def no_rows(angles):
        raise AssertionError("a factor was generated")

    monkeypatch.setattr(g.params, "_planar_rows", no_rows)
    over = f"over the budget of {budget}"
    for chain in (g.rotation_chain(Fraction(1, 3)), g.rotation_chain(0.1), g.gray_zone_chain()):
        refusals = {
            f"diagnostics would generate {budget + 2} factors, {over}":
                lambda: g.asymptotic_diagnostics(chain, 1, budget + 1),
            f"diagnostics would generate {4 * budget} overlap summands, {over}":
                lambda: g.asymptotic_diagnostics(chain, 64, budget // 16),
            f"diagnostics would generate {budget + 1} factors, {over}":
                lambda: g.target_overlap_sums(chain, E1, budget + 1),
        }
        for message, call in refusals.items():
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        g.decompose_chain(g.rotation_chain(Fraction(1, budget + 1)))
    assert str(refused.value) == (f"the period block of rotation 1/{budget + 1} would "
                                  f"generate {budget + 1} factors, {over}")
