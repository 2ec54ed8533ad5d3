"""Irreducibility, equivalence and decomposition queries.

The decision layer sits on top of the parameter procedures: a cycle is
irreducible exactly when it has no proper tensor-power root; a chain is
reducible whenever it is eventually periodic (then it disintegrates over
the circle into the scaled-cycle family of its tail block), irreducible
for irrational rotation chains (an analytic input, never computed from a
float), and undecided in the gray zone.  `classify` reads the periodicity
verdict, never the chain kind; `decompose_chain` reads the one tail block.
No query here builds a truncation: the fibers of a direct integral are
`reps.build_fiber_rep(descriptor.base, c, depth)`, and the numeric check of
the cycle formula is `reps.numeric_cycle_eigencheck`.
"""

from __future__ import annotations

from ._policy import _Record
from .params import (
    DEFAULT_TOL,
    ChainParam,
    CycleParam,
    UndecidableError,
    _has_exact_tail,
    _phase_split,
    _root_of_unity,
    _tail_block,
    chain_tail_equivalent,
    complex_pairs,
    cycles_equivalent,
    is_eventually_periodic,
    primitive_root,
    scale_cycle,
)


class ClassificationReport(_Record):
    """verdict: 'yes' / 'no' (irreducible or not), 'gray_zone', 'unknown'."""

    _fields = ("verdict", "reason", "analytic_assumption", "root", "power", "period")

    def __init__(self, verdict: str, reason: str, analytic_assumption: bool = False,
                 root: CycleParam | None = None, power: int | None = None,
                 period: int | None = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "analytic_assumption", analytic_assumption)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "period", period)

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
    return [scale_cycle(root, _root_of_unity(j, power)) for j in range(power)]


class DirectIntegralDescriptor(_Record):
    """Symbolic direct integral over the circle with Haar measure.

    `base` is a nonperiodic cycle with canonical factors and trivial
    global phase; the fibers are the representations of c*base swept by
    unimodular c.  The base is determined by the chain up to one global
    unimodular and a cyclic rotation of its factors.
    """

    _fields = ("base",)
    # constants, not fields: every descriptor has the same measure and uniqueness
    measure = "haar-U(1)"
    uniqueness = "base fixed up to a unimodular scalar and cyclic rotation"

    def __init__(self, base: CycleParam):
        object.__setattr__(self, "base", base)

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

