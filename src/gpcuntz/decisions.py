"""Irreducibility, equivalence, decomposition and branching queries.

The decision layer sits on top of the parameter procedures: a cycle is
irreducible exactly when it has no proper tensor-power root; a chain is
reducible whenever it is eventually periodic (then it disintegrates over
the circle into the scaled-cycle family of its tail block), irreducible
for irrational rotation chains (an analytic input, never computed from a
float), and undecided in the gray zone.  `classify` reads the periodicity
verdict, never the chain kind; `decompose_chain` reads the one tail block.
Only `DirectIntegralDescriptor.fiber` and `numeric_cycle_eigencheck` build
truncations, so they import `reps` when called and no verdict loads it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    DEFAULT_TOL,
    ChainParam,
    CycleParam,
    UndecidableError,
    _has_exact_tail,
    _phase_split,
    _tail_block,
    chain_tail_equivalent,
    complex_pairs,
    cycles_equivalent,
    is_eventually_periodic,
    primitive_root,
    scale_cycle,
)


@dataclass(frozen=True)
class ClassificationReport:
    """verdict: 'yes' / 'no' (irreducible or not), 'gray_zone', 'unknown'."""

    verdict: str
    reason: str
    analytic_assumption: bool = False
    root: CycleParam | None = None
    power: int | None = None
    period: int | None = None

    @property
    def irreducible(self):
        return {"yes": True, "no": False}.get(self.verdict)

    def to_dict(self):
        out = {
            "irreducible": self.irreducible,
            "verdict": self.verdict,
            "reason": self.reason,
            "analytic_assumption": self.analytic_assumption,
        }
        if self.power is not None:
            out["p"] = self.power
        if self.period is not None:
            out["period"] = self.period
        if self.root is not None:
            out["root_factors"] = complex_pairs(self.root.rows)
        return out


def classify(param, tol: float = DEFAULT_TOL) -> ClassificationReport:
    if isinstance(param, CycleParam):
        root, power = primitive_root(param, tol)
        if power == 1:
            return ClassificationReport(
                "yes", "cycle with trivial tensor-power root"
            )
        return ClassificationReport(
            "no",
            f"cycle is a proper tensor power (p={power}) of a shorter parameter",
            root=root,
            power=power,
        )
    if not isinstance(param, ChainParam):
        raise TypeError("expected a cycle or chain parameter")
    verdict = is_eventually_periodic(param, tol)
    if verdict.eventually_periodic:
        return ClassificationReport(
            "no",
            "eventually periodic chain disintegrates over the circle",
            period=verdict.period,
        )
    if verdict.eventually_periodic is None:
        return ClassificationReport(
            "unknown",
            "finite prefix data cannot decide periodicity; run diagnostics",
        )
    if verdict.analytic_assumption:
        return ClassificationReport(
            "yes",
            "irrational rotation chain is not asymptotically periodic",
            analytic_assumption=True,
        )
    return ClassificationReport(
        "gray_zone",
        "asymptotically periodic without an eventual period; "
        "decomposability is undecided in this regime",
    )


def equivalent(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Dispatch of the parameter equivalence relation.

    Cycles against chains are never equivalent (their circle-invariant
    restrictions branch finitely resp. infinitely).
    """
    if isinstance(a, CycleParam) != isinstance(b, CycleParam):
        return False
    if isinstance(a, CycleParam):
        return cycles_equivalent(a, b, tol)
    return chain_tail_equivalent(a, b, tol)


def decompose_cycle(z: CycleParam, tol: float = DEFAULT_TOL) -> list:
    """Irreducible pieces of a cycle: the p-th roots of unity times the
    tensor-power root.  A nonperiodic cycle returns itself unchanged."""
    root, power = primitive_root(z, tol)
    if power == 1:
        return [z]
    return [scale_cycle(root, cmath.exp(2j * math.pi * j / power)) for j in range(power)]


@dataclass(frozen=True)
class DirectIntegralDescriptor:
    """Symbolic direct integral over the circle with Haar measure.

    `base` is a nonperiodic cycle with canonical factors and trivial
    global phase; the fibers are the representations of c*base swept by
    unimodular c.  The base is determined by the chain up to one global
    unimodular and a cyclic rotation of its factors.
    """

    base: CycleParam
    measure: str = "haar-U(1)"
    uniqueness: str = "base fixed up to a unimodular scalar and cyclic rotation"

    def fiber(self, c, depth: int):
        from .reps import build_fiber_rep

        return build_fiber_rep(self.base, c, depth)

    def to_dict(self):
        return {
            "measure": self.measure,
            "uniqueness": self.uniqueness,
            "base_factors": complex_pairs(self.base.rows),
        }


def decompose_chain(z: ChainParam, tol: float = DEFAULT_TOL) -> DirectIntegralDescriptor:
    """Direct-integral descriptor of an eventually periodic chain.

    The periodic tail block is phase-normalized factorwise (the phases
    sweep out in the circle integral anyway), reduced to its shortest
    cyclic block, and returned as the base cycle.
    """
    if not _has_exact_tail(z):
        raise UndecidableError("direct-integral decomposition needs an eventually periodic chain")
    root = primitive_root(CycleParam(_phase_split(_tail_block(z))[0]), tol)[0]
    return DirectIntegralDescriptor(CycleParam(_phase_split(root.rows)[0]))


@dataclass(frozen=True)
class BranchingReport:
    """Component count of the restriction to the gauge-invariant part."""

    component_count: int | None      # None marks countably infinite
    infinite: bool
    generator_words: tuple = ()      # factor suffixes (row stacks) generating each piece

    def to_dict(self):
        out = {
            "component_count": self.component_count,
            "infinite": self.infinite,
        }
        if self.generator_words:
            out["generators"] = [complex_pairs(word) for word in self.generator_words]
        return out


def branching_u1(param) -> BranchingReport:
    """Branching of the restriction to the gauge-fixed subalgebra.

    A length-k cycle splits into exactly k pieces generated by the
    suffix-product vectors pi(s(z^(i)) ... s(z^(k))) Omega; chains split
    into countably many pieces.
    """
    if isinstance(param, CycleParam):
        k = param.k
        words = tuple(param.rows[i:] for i in range(k))
        return BranchingReport(k, False, words)
    if isinstance(param, ChainParam):
        return BranchingReport(None, True)
    raise TypeError("expected a cycle or chain parameter")


def numeric_cycle_eigencheck(v: CycleParam, p: int, depth: int | None = None,
                             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of the cycle isometry on the span of its power orbit.

    In the representation of the p-th tensor power of a nonperiodic v,
    the vectors pi(s(v))^j Omega (j = 1..p) span a p-dimensional space on
    which pi(s(v)) acts as a cyclic shift; the returned eigenvalues are
    the p-th roots of unity, sorted by phase angle.  The orbit is read off
    the anchors of the tiled cycle's truncation: pi(s(v))^j Omega is
    anchor (p - j) k + 1.
    """
    from .reps import _apply_isometry, build_cycle_rep, cycle_anchor_vectors

    if p < 1:
        raise ValueError("power must be >= 1")
    _root, q = primitive_root(v, tol)
    if q != 1:
        raise ValueError("the base cycle must be nonperiodic")
    k = v.k
    needed = k * (p + 1)
    if depth is None:
        depth = max(2, needed)
    if depth < needed:
        raise ValueError(f"insufficient depth: need >= {needed}, have {depth}")
    rep = build_cycle_rep(CycleParam(np.tile(v.rows, (p, 1))), depth)
    orbit = cycle_anchor_vectors(rep)[(p - 1) * k::-k]
    q_mat, _ = np.linalg.qr(np.stack(orbit, axis=1))
    image = q_mat
    # pi(s(v)) = s(v^(1)) ... s(v^(k)), one factor at a time
    for f in v.rows[::-1]:
        image = _apply_isometry(rep, f, image)
    compressed = q_mat.conj().T @ image
    eigenvalues = np.linalg.eigvals(compressed)
    # sort by phase angle, keeping values just below the positive axis at 0
    # instead of letting rounding noise wrap them to 2 pi
    angles = np.angle(eigenvalues)
    angles = np.where(angles < -math.pi / (2 * p), angles + 2 * math.pi, angles)
    return eigenvalues[np.argsort(angles)]
