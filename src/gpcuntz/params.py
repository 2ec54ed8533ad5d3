"""Cycle and chain parameters and their decision procedures.

A cycle parameter is a tensor z^(1) x ... x z^(k) of unit vectors in C^N;
a chain parameter is an infinite sequence of unit vectors.  Tensor
equality only sees factors up to phases with unit product, so decisions
go through a canonical form: each factor is rotated until its first
significant component is real positive and the removed phases are
collected into one global phase.

Chains come in four kinds:

* ``explicit``   -- finite preperiod followed by a repeating period block;
* ``rotation``   -- z^(n) = (cos 2 pi n theta, sin 2 pi n theta) in C^2,
  with theta either an exact Fraction (periodic) or a float (treated as
  irrational by assertion, never decided by computation);
* ``gray_zone``  -- the built-in planar sequence drifting toward the
  diagonal direction with half-angle arcsin(1/(sqrt(2) n)); it is
  asymptotically periodic but has no eventual period;
* ``prefix``     -- finitely many observed factors, diagnostics only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .algebra import RankMismatchError

DEFAULT_TOL = 1e-9
# most overlap summands, and most chain factors in C^2, one diagnostics
# request may generate; factors are charged by their entries, so a chain in
# C^N may generate 2 / N as many
DIAGNOSTICS_BUDGET = 1 << 23
_FIRST_COMPONENT_TOL = 1e-8


class UndecidableError(ValueError):
    """The question cannot be settled from the given parameter kind."""


# ----------------------------------------------------------------------
# vectors

def unit_vector(components) -> np.ndarray:
    v = np.asarray(components, dtype=complex)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("expected a vector in C^N with N >= 2")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("vector must have unit norm within 1e-10")
    v = v.copy()
    v.flags.writeable = False
    return v


def basis_vector(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[i - 1] = 1.0
    return unit_vector(v)


def complex_pairs(values) -> list:
    """[[re, im], ...] floats of a complex vector: the JSON form of vectors."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _phase_split(v: np.ndarray):
    """(phase-normalized copy, removed phase); first significant entry real > 0."""
    idx = int(np.argmax(np.abs(v) > _FIRST_COMPONENT_TOL))
    a = v[idx]
    phase = a / abs(a)
    return v / phase, phase


# ----------------------------------------------------------------------
# cycles

@dataclass(frozen=True, eq=False)
class CycleParam:
    """Factor list of a finite tensor of unit vectors."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a cycle needs at least one factor")

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return int(self.factors[0].size)


def cycle(vectors) -> CycleParam:
    factors = tuple(unit_vector(v) for v in vectors)
    if not factors:
        raise ValueError("a cycle needs at least one factor")
    sizes = {f.size for f in factors}
    if len(sizes) != 1:
        raise RankMismatchError("cycle factors must share one ambient dimension")
    return CycleParam(factors)


def scale_cycle(z: CycleParam, c) -> CycleParam:
    """The tensor c*z, realized by scaling the first factor."""
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-10:
        raise ValueError("cycle scaling must be unimodular")
    return CycleParam((unit_vector(z.factors[0] * c),) + z.factors[1:])


@dataclass(frozen=True, eq=False)
class CanonicalCycle:
    factors: tuple
    global_phase: complex


def canonicalize_cycle(z: CycleParam) -> CanonicalCycle:
    normalized = []
    phase = 1.0 + 0.0j
    for f in z.factors:
        nf, ph = _phase_split(f)
        normalized.append(nf)
        phase *= ph
    return CanonicalCycle(tuple(normalized), complex(phase))


def full_tensor(z) -> np.ndarray:
    """Flattened tensor product of the factors (times the stored phase)."""
    if isinstance(z, CanonicalCycle):
        return z.global_phase * reduce(np.kron, z.factors)
    return reduce(np.kron, z.factors)


def _divisors(k: int):
    return [d for d in range(1, k + 1) if k % d == 0]


def _block_period(factors, tol: float) -> int:
    """Minimal divisor d of len(factors) with cyclic d-periodicity."""
    k = len(factors)
    for d in _divisors(k):
        if all(
            np.linalg.norm(factors[(i + d) % k] - factors[i]) < tol
            for i in range(k)
        ):
            return d
    return k


def primitive_root(z: CycleParam, tol: float = DEFAULT_TOL):
    """Maximal tensor-power decomposition: (y, p) with z = y^(x p), y nonperiodic.

    The canonical factor sequence of z must be (k/p)-periodic; the global
    phase is absorbed into y through its principal p-th root (any root
    works, they differ by the components of the power decomposition).
    """
    canon = canonicalize_cycle(z)
    k = len(canon.factors)
    d = _block_period(canon.factors, tol)
    p = k // d
    if p == 1:
        return z, 1
    root_phase = cmath.exp(cmath.log(canon.global_phase) / p)
    head = (unit_vector(canon.factors[0] * root_phase),) + canon.factors[1:d]
    return CycleParam(head), p


def cycles_equivalent(z: CycleParam, y: CycleParam, tol: float = DEFAULT_TOL) -> bool:
    """Tensor equality up to a cyclic rotation of the factor list."""
    if z.n != y.n:
        raise RankMismatchError(f"rank mismatch: {z.n} vs {y.n}")
    if z.k != y.k:
        return False
    cz, cy = canonicalize_cycle(z), canonicalize_cycle(y)
    if abs(cz.global_phase - cy.global_phase) > tol:
        return False
    k = z.k
    for r in range(k):
        if all(
            np.linalg.norm(cz.factors[(i + r) % k] - cy.factors[i]) < tol
            for i in range(k)
        ):
            return True
    return False


# ----------------------------------------------------------------------
# chains

@dataclass(frozen=True, eq=False)
class ChainParam:
    kind: str
    n: int
    preperiod: tuple = ()
    period: tuple = ()
    theta: object = None
    prefix: tuple = ()


def explicit_chain(period, preperiod=()) -> ChainParam:
    period = tuple(unit_vector(v) for v in period)
    preperiod = tuple(unit_vector(v) for v in preperiod)
    if not period:
        raise ValueError("period block must be nonempty")
    sizes = {f.size for f in period + preperiod}
    if len(sizes) != 1:
        raise RankMismatchError("chain factors must share one ambient dimension")
    return ChainParam("explicit", period[0].size, preperiod=preperiod, period=period)


def rotation_chain(theta) -> ChainParam:
    """Planar rotation chain; Fraction theta is exact, float theta is
    carried as an analytic irrationality assumption."""
    if isinstance(theta, Fraction):
        theta = theta % 1
    else:
        theta = float(theta)
        if not 0.0 <= theta < 1.0:
            raise ValueError("rotation angle must lie in [0, 1)")
    return ChainParam("rotation", 2, theta=theta)


def prefix_chain(vectors) -> ChainParam:
    prefix = tuple(unit_vector(v) for v in vectors)
    if not prefix:
        raise ValueError("prefix must be nonempty")
    sizes = {f.size for f in prefix}
    if len(sizes) != 1:
        raise RankMismatchError("chain factors must share one ambient dimension")
    return ChainParam("prefix", prefix[0].size, prefix=prefix)


def gray_zone_chain() -> ChainParam:
    return ChainParam("gray_zone", 2)


def _planar_rows(angles: np.ndarray) -> np.ndarray:
    rows = np.zeros((angles.size, 2), dtype=complex)
    rows[:, 0] = np.cos(angles)
    rows[:, 1] = np.sin(angles)
    return rows


def chain_factors(chain: ChainParam, start: int, count: int) -> np.ndarray:
    """Factors start, ..., start + count - 1 (start >= 1) as read-only rows.

    Every chain kind is generated here in one vectorised pass; each row is
    bit-identical to what the per-index formula gives.
    """
    if start < 1:
        raise ValueError("factor index starts at 1")
    if count < 0:
        raise ValueError("factor count must be nonnegative")
    if start + count > 1 << 62:
        raise ValueError("factor indices must stay below 2^62")
    idx = np.arange(start, start + count, dtype=np.int64)
    if chain.kind == "explicit":
        table = np.stack(chain.preperiod + chain.period)
        pre = len(chain.preperiod)
        pos = idx - 1
        rows = table[np.where(pos < pre, pos, pre + (pos - pre) % len(chain.period))]
    elif chain.kind == "rotation":
        theta = chain.theta
        if isinstance(theta, Fraction):
            a, b = theta.numerator, theta.denominator
            if b < 1 << 31:
                # float(Fraction) is the correctly rounded num / den, and so
                # is float64 division of two integers below 2^53
                frac = (idx % b * a % b) / b
            else:
                frac = np.array([m * a % b / b for m in range(start, start + count)])
        else:
            # extended precision keeps the reduction of m*theta mod 1 near
            # machine accuracy for m up to ~1e9
            frac = np.fmod(idx.astype(np.longdouble) * np.longdouble(theta), 1.0)
            frac = frac.astype(float)
        rows = _planar_rows(2.0 * math.pi * frac)
    elif chain.kind == "gray_zone":
        # the m-th wobble pair has half-angle arcsin(1/(sqrt(2) m)); math.asin
        # is kept because np.arcsin differs from it in the last bit
        first, last = (start + 1) // 2, (start + count) // 2
        args = 1.0 / (math.sqrt(2.0) * np.arange(first, last + 1, dtype=np.int64))
        halves = np.array([math.asin(x) for x in args.tolist()])
        half = halves[(idx + 1) // 2 - first]
        rows = _planar_rows(np.where(idx % 2 == 1, math.pi / 4 - half, math.pi / 4 + half))
    elif chain.kind == "prefix":
        if start + count - 1 > len(chain.prefix):
            raise UndecidableError(
                f"prefix chain holds only {len(chain.prefix)} factors"
            )
        rows = np.array(chain.prefix[start - 1 : start - 1 + count], dtype=complex)
        rows = rows.reshape(count, chain.n)
    else:
        raise ValueError(f"unknown chain kind {chain.kind!r}")
    if np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > 1e-10):
        raise ValueError("vector must have unit norm within 1e-10")
    rows.flags.writeable = False
    return rows


def chain_factor(chain: ChainParam, m: int) -> np.ndarray:
    """The m-th factor (m >= 1)."""
    return chain_factors(chain, m, 1)[0]


def param_factor(param, m: int) -> np.ndarray:
    """The m-th factor of a cycle or chain parameter for any integer m.

    Cycle factors repeat with period k; a chain continues with e_1 below
    index 1, the factors its truncations step through below layer 1.
    """
    if isinstance(param, CycleParam):
        return param.factors[(m - 1) % param.k]
    if m < 1:
        return basis_vector(param.n, 1)
    return chain_factors(param, m, 1)[0]


def rotation_to_explicit(chain: ChainParam) -> ChainParam:
    """Exact period block of a rational rotation chain."""
    if chain.kind != "rotation" or not isinstance(chain.theta, Fraction):
        raise ValueError("only rational rotation chains have an exact period")
    b = chain.theta.denominator
    return explicit_chain(chain_factors(chain, 1, b))


# ----------------------------------------------------------------------
# periodicity

@dataclass(frozen=True)
class PeriodicityVerdict:
    """Outcome of the eventual-periodicity test.

    ``eventually_periodic`` is None when the data cannot decide (prefix
    kind); ``analytic_assumption`` marks verdicts that rest on asserted
    irrationality rather than computation.
    """

    eventually_periodic: bool | None
    period: int | None = None
    analytic_assumption: bool = False
    note: str = ""


def _canonical_block(period):
    return [_phase_split(f)[0] for f in period]


def is_eventually_periodic(chain: ChainParam, tol: float = DEFAULT_TOL) -> PeriodicityVerdict:
    # the tail period is the minimal p with z^(m+p) = c_m z^(m), i.e. the
    # cyclic period of the phase-normalized period block
    if chain.kind == "explicit":
        p = _block_period(_canonical_block(chain.period), tol)
        return PeriodicityVerdict(True, p)
    if chain.kind == "rotation":
        if isinstance(chain.theta, Fraction):
            p = _block_period(_canonical_block(rotation_to_explicit(chain).period), tol)
            return PeriodicityVerdict(True, p)
        return PeriodicityVerdict(
            False,
            analytic_assumption=True,
            note="float rotation angle asserted irrational; not decidable numerically",
        )
    if chain.kind == "gray_zone":
        return PeriodicityVerdict(
            False,
            note="all factors are distinct positive planar vectors: asymptotically "
            "periodic with no eventual period",
        )
    return PeriodicityVerdict(
        None, note="finite prefix data cannot decide periodicity; run diagnostics"
    )


def chain_tail_equivalent(z: ChainParam, y: ChainParam, tol: float = DEFAULT_TOL) -> bool:
    """Tail equivalence of two eventually periodic chains.

    For exactly periodic tails the defect series has periodic summands,
    so it converges iff every tail summand vanishes, i.e. the period
    blocks agree factorwise up to phase at some relative offset modulo
    the lcm of the two periods.
    """

    def tail_block(c: ChainParam):
        if c.kind == "explicit":
            return _canonical_block(c.period)
        if c.kind == "rotation" and isinstance(c.theta, Fraction):
            return _canonical_block(rotation_to_explicit(c).period)
        raise UndecidableError(
            f"chain kind {c.kind!r} has no exact periodic tail; "
            "use asymptotic diagnostics instead"
        )

    if z.n != y.n:
        raise RankMismatchError(f"rank mismatch: {z.n} vs {y.n}")
    bz, by = tail_block(z), tail_block(y)
    span = math.lcm(len(bz), len(by))
    for offset in range(span):
        if all(
            np.linalg.norm(bz[(m + offset) % len(bz)] - by[m % len(by)]) < tol
            for m in range(span)
        ):
            return True
    return False


# ----------------------------------------------------------------------
# asymptotic diagnostics

@dataclass(frozen=True)
class DiagnosticsTable:
    """Cumulative overlap-defect sums S(p, m) for m = 1..M.

    ``plain`` accumulates 1 - Re<z^(n)|z^(n+p)> (the closed-form column
    for rotation chains equals 2 M sin^2(pi p theta)); ``absolute``
    accumulates 1 - |<z^(n)|z^(n+p)>|, the quantity whose convergence
    defines asymptotic periodicity.
    """

    m_max: int
    plain: dict
    absolute: dict

    def final(self, p: int):
        return float(self.plain[p][-1]), float(self.absolute[p][-1])


def _check_budget(what: str, count: int, limit: int = DIAGNOSTICS_BUDGET) -> None:
    if count > limit:
        raise ValueError(
            f"diagnostics would generate {count} {what}, over the budget of {limit}"
        )


def _check_factor_budget(chain: ChainParam, count: int) -> None:
    # count * N entries against 2 DIAGNOSTICS_BUDGET
    _check_budget("factors", count, 2 * DIAGNOSTICS_BUDGET // chain.n)


def _cumulative(defects: np.ndarray) -> np.ndarray:
    # accumulate in extended precision: 1e4 nearly equal summands damage
    # the last couple of digits of a plain float64 running sum
    return np.cumsum(defects, dtype=np.longdouble).astype(float)


def _target_sums(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    return _cumulative(1.0 - np.abs(rows @ np.conj(v)))


def _target_in(chain: ChainParam, v, name: str) -> np.ndarray:
    """`v` as a unit vector of the chain's C^N; a vector of another length
    raises ValueError naming `name`, its length and the chain's rank."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (chain.n,):
        raise ValueError(f"{name} has {v.size} entries but the chain has rank {chain.n}")
    return unit_vector(v)


def _diagnostics(chain: ChainParam, p_max: int, m_max: int, target=None, name="target"):
    """The asymptotic_diagnostics table and, for a unit vector `target`
    (called `name` in errors), the target_overlap_sums of the same chain
    and M, from one chain_factors call; every budget is checked before
    anything is generated."""
    if target is not None:
        target = _target_in(chain, target, name)
    if p_max < 1 or m_max < 1:
        raise ValueError("p_max and M must be >= 1")
    _check_factor_budget(chain, m_max + p_max)
    _check_budget("overlap summands", p_max * m_max)
    rows = chain_factors(chain, 1, m_max + p_max)
    plain, absolute = {}, {}
    for p in range(1, p_max + 1):
        inner = np.sum(np.conj(rows[:m_max]) * rows[p : p + m_max], axis=1)
        plain[p] = _cumulative(1.0 - inner.real)
        absolute[p] = _cumulative(1.0 - np.abs(inner))
    sums = None if target is None else _target_sums(rows[:m_max], target)
    return DiagnosticsTable(m_max, plain, absolute), sums


def asymptotic_diagnostics(chain: ChainParam, p_max: int, m_max: int) -> DiagnosticsTable:
    return _diagnostics(chain, p_max, m_max)[0]


def target_overlap_sums(chain: ChainParam, v, m_max: int) -> np.ndarray:
    """Cumulative sums of 1 - |<z^(m)|v>| against a fixed unit vector."""
    if m_max < 1:
        raise ValueError("M must be >= 1")
    v = _target_in(chain, v, "target")
    _check_factor_budget(chain, m_max)
    return _target_sums(chain_factors(chain, 1, m_max), v)
