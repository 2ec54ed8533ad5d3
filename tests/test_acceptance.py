"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every criterion asserts at its stated tolerance.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import gpcuntz as g
from helpers import brute_force_power, random_explicit_chain, random_nonperiodic_cycle, random_unit

E1 = g.basis_vector(2, 1)
E2 = g.basis_vector(2, 2)


def _verdict(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def all_words(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def test_criterion_01_car_rewriting():
    start = time.monotonic()
    worst = 0.0
    gens = {n: g.car_generator(n) for n in range(1, 5)}
    for n in range(1, 5):
        for m in range(1, 5):
            a, b = gens[n], gens[m]
            mixed = g.multiply(a, b.adjoint()) + g.multiply(b.adjoint(), a)
            if n == m:
                mixed = mixed - g.identity(2)
            worst = max(worst, g.expand_identity(mixed, n + m).sup_norm())
            anti = g.multiply(a, b) + g.multiply(b, a)
            worst = max(worst, g.expand_identity(anti, n + m).sup_norm())
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(1, "CAR rewriting", ok, f"residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_state_representation_agreement():
    rng = np.random.default_rng(202)
    params = [random_nonperiodic_cycle(rng, 2, int(rng.integers(1, 4))) for _ in range(5)]
    params += [
        random_explicit_chain(rng, 2, int(rng.integers(0, 2)), int(rng.integers(1, 3)))
        for _ in range(5)
    ]
    worst = 0.0
    for param in params:
        state = g.GPState(param)
        if isinstance(param, g.CycleParam):
            rep = g.build_cycle_rep(param, 5)
        else:
            rep = g.build_chain_rep(param, 5)
        for j in all_words(2, 3):
            for k in all_words(2, 3):
                w = g.word_element(2, j, k)
                worst = max(
                    worst, abs(state.evaluate(w) - g.vacuum_expectation(rep, w))
                )
    ok = worst < 1e-9
    _verdict(2, "state/representation agreement", ok, f"max deviation {worst:.3e}")


def test_criterion_03_truncated_relations():
    rng = np.random.default_rng(303)
    worst = 0.0
    for n in (2, 3):
        z = g.cycle([random_unit(rng, n) for _ in range(2)])
        chain = g.explicit_chain([random_unit(rng, n) for _ in range(2)])
        for rep in (g.build_cycle_rep(z, 4), g.build_chain_rep(chain, 4)):
            report = g.verify_gp(rep)
            worst = max(worst, report.isometry_residual, report.completeness_residual)
    ok = worst < 1e-12
    _verdict(3, "truncated relations on the interior", ok, f"residual {worst:.3e}")


def test_criterion_04_basis_completeness():
    rng = np.random.default_rng(404)
    worst = 0.0
    counts_ok = True
    for k in (1, 2, 3):
        for d in (1, 2, 3):
            z = g.cycle([random_unit(rng, 2) for _ in range(k)])
            rep = g.build_cycle_rep(z, d + k)
            family = g.enumerate_basis(rep, d)
            counts_ok = counts_ok and len(family) == k * 2 ** d
            mat = np.stack([vec for _, vec in family], axis=1)
            gram = mat.conj().T @ mat
            worst = max(worst, float(np.max(np.abs(gram - np.eye(len(family))))))
    ok = worst < 1e-9 and counts_ok
    _verdict(
        4,
        "basis completeness",
        ok,
        f"gram residual {worst:.3e}, counts {'match' if counts_ok else 'mismatch'}",
    )


def test_criterion_05_roots_of_unity_spectrum():
    rng = np.random.default_rng(505)
    cases = [
        (g.cycle([E1]), 2),
        (g.cycle([E1]), 3),
        (random_nonperiodic_cycle(rng, 2, 2), 2),
    ]
    worst = 0.0
    for v, p in cases:
        eigs = g.numeric_cycle_eigencheck(v, p)
        want = np.exp(2j * np.pi * np.arange(p) / p)
        worst = max(worst, float(np.max(np.abs(eigs - want))))
    ok = worst < 1e-9
    _verdict(5, "roots-of-unity spectrum", ok, f"max eigenvalue deviation {worst:.3e}")


def test_criterion_06_cycle_decomposition():
    rng = np.random.default_rng(606)
    ok = True
    detail = ""
    for trial in range(20):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(2, 5))
        y = random_nonperiodic_cycle(rng, 2, k)
        z = g.CycleParam(y.factors * p)
        comps = g.decompose_cycle(z)
        if len(comps) != p:
            ok, detail = False, f"trial {trial}: got {len(comps)} components"
            break
        for i in range(p):
            if g.classify(comps[i]).verdict != "yes":
                ok, detail = False, f"trial {trial}: component {i} not irreducible"
                break
            for j in range(i + 1, p):
                if g.cycles_equivalent(comps[i], comps[j]):
                    ok, detail = False, f"trial {trial}: components {i},{j} equivalent"
                    break
        root, found = g.primitive_root(z)
        d_oracle, p_oracle = brute_force_power(z)
        if found != p_oracle or root.k != d_oracle:
            ok, detail = False, f"trial {trial}: oracle disagrees ({found} vs {p_oracle})"
        if not ok:
            break
    _verdict(6, "cycle decomposition", ok, detail or "20 random parameters")


def test_criterion_07_rotation_chain_closed_form():
    worst = 0.0
    for theta_in, theta in ((Fraction(1, 3), 1.0 / 3.0), (math.sqrt(2) - 1, math.sqrt(2) - 1)):
        table = g.asymptotic_diagnostics(g.rotation_chain(theta_in), 3, 10_000)
        for p in (1, 2, 3):
            plain, _ = table.final(p)
            worst = max(worst, abs(plain - 2 * 10_000 * math.sin(math.pi * p * theta) ** 2))
    third = g.classify(g.rotation_chain(Fraction(1, 3)))
    base = g.decompose_chain(g.rotation_chain(Fraction(1, 3))).base
    irr = g.classify(g.rotation_chain(math.sqrt(2) - 1))
    ok = (
        worst < 1e-9
        and third.verdict == "no"
        and base.k == 3
        and irr.verdict == "yes"
        and irr.analytic_assumption
    )
    _verdict(
        7,
        "rotation-chain closed form",
        ok,
        f"closed-form deviation {worst:.3e}, base length {base.k}",
    )


def test_criterion_08_gray_zone_sequence():
    chain = g.gray_zone_chain()
    term_worst = 0.0
    rows = g.chain_factors(chain, 1, 2000)
    for n in range(1, 1001):
        z1, z2 = rows[2 * n - 2], rows[2 * n - 1]
        term_worst = max(
            term_worst, abs((1.0 - abs(np.vdot(z1, z2))) - 1.0 / n**2)
        )
    table = g.asymptotic_diagnostics(chain, 1, 2000)
    sums = table.absolute[1]
    monotone = bool(np.all(np.diff(sums) >= 0))
    bounded = float(sums[-1]) < math.pi**2 / 3
    target = g.target_overlap_sums(chain, np.array([1.0, 1.0]) / math.sqrt(2), 2000)
    target_ok = float(target[-1]) < math.pi**2 / 3
    verdict = g.is_eventually_periodic(chain)
    classified = g.classify(chain)
    ok = (
        term_worst < 1e-12
        and monotone
        and bounded
        and target_ok
        and verdict.eventually_periodic is False
        and classified.verdict == "gray_zone"
    )
    _verdict(
        8,
        "gray-zone sequence",
        ok,
        f"term deviation {term_worst:.3e}, S(1,2000)={float(sums[-1]):.6f}, "
        f"target={float(target[-1]):.6f}",
    )


def test_criterion_09_branching():
    rng = np.random.default_rng(909)
    worst = 0.0
    for k in (1, 2, 3):
        z = random_nonperiodic_cycle(rng, 2, k)
        rep = g.build_cycle_rep(z, k + 2)
        vectors = g.cycle_anchor_vectors(rep)
        mat = np.stack(vectors, axis=1)
        gram = mat.conj().T @ mat
        worst = max(worst, float(np.max(np.abs(gram - np.eye(k)))))
    ok = worst < 1e-9
    _verdict(9, "gauge branching", ok, f"generator gram residual {worst:.3e}")


def test_criterion_10_fiber_representations():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(3):
        y = random_nonperiodic_cycle(rng, 2, int(rng.integers(1, 3)))
        for _ in range(5):
            c = np.exp(2j * np.pi * rng.random())
            rep = g.build_fiber_rep(y, c, 4)
            assert np.array_equal(rep.factor_rows, g.scale_cycle(y, c).rows)
            report = g.verify_gp(rep)
            worst = max(worst, report.max_residual())
            assert report.basis_count == report.basis_count_expected
    ok = worst < 1e-10
    _verdict(10, "fiber representations", ok, f"max residual {worst:.3e}")


def test_criterion_11_fock_property():
    products = [g.multiply(a.adjoint(), a) for a in map(g.car_generator, range(1, 5))]
    worst = max(abs(g.algebra._fock_vacuum(p)) for p in products)
    ok = worst < 1e-10
    _verdict(11, "vacuum annihilation", ok, f"max residual {worst:.3e}")
