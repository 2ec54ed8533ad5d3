"""Cycle and chain parameters and their decision procedures.

A cycle parameter is a tensor z^(1) x ... x z^(k) of unit vectors in C^N;
a chain parameter is an infinite sequence of unit vectors.  Tensor
equality only sees factors up to phases with unit product, so decisions
compare factors by overlap phase: `_phase_match` returns the phases c_i
of <b_i|a_i> when every |a_i - c_i b_i| is below the tolerance, with no
component singled out; `_offset_matches` is the one loop over cyclic
offsets, `_tail_block` the one route to a chain's exact period rows.
Rational rotations are decided in closed form.  The canonical form (each
factor turned until its first component above PIVOT_TOL is real positive,
the removed phases kept as one global phase) only presents roots and bases.

Chains come in four kinds:

* ``explicit``   -- finite preperiod followed by a repeating period block;
* ``rotation``   -- z^(n) = (cos 2 pi n theta, sin 2 pi n theta) in C^2,
  with theta either an exact Fraction (periodic) or a float (treated as
  irrational by assertion, never decided by computation);
* ``gray_zone``  -- the built-in planar sequence drifting toward the
  diagonal direction with half-angle arcsin(1/(sqrt(2) n)); it is
  asymptotically periodic but has no eventual period;
* ``prefix``     -- finitely many observed factors, diagnostics only.

The diagnostics take every overlap, with a shift or with a target, as a
row sum of entrywise products, so the first m sums do not depend on M.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._policy import (
    DEFAULT_TOL,
    PIVOT_TOL,
    UNIT_TOL,
    RankMismatchError,
    _check_integer,
    _check_near,
    _collector_paused,
    _unimodular,
)

# most overlap summands, and most chain factors in C^2, one diagnostics
# request may generate; factors are charged by their entries, so a chain in
# C^N may generate 2 / N as many
DIAGNOSTICS_BUDGET = 1 << 23
_NOT_UNIT = f"vector must have unit norm within {UNIT_TOL}"


class UndecidableError(ValueError):
    """The question cannot be settled from the given parameter kind."""


# ----------------------------------------------------------------------
# vectors

def unit_vector(components) -> np.ndarray:
    return _unit_rows([components], "vector")[0]


def basis_vector(n: int, i: int) -> np.ndarray:
    """e_i in C^n, i = 1..n."""
    if not (isinstance(i, numbers.Integral) and 1 <= i <= n):
        raise ValueError(f"basis index must be an integer in 1..{n}, got {i!r}")
    v = np.zeros(n, dtype=complex)
    v[i - 1] = 1.0
    return unit_vector(v)


def complex_pairs(values) -> list:
    """[[re, im], ...] floats of a complex vector, the JSON form of vectors,
    built with the collector paused: one small list per entry."""
    values = np.asarray(values, dtype=complex)
    pairs = np.stack([values.real, values.imag], axis=-1)
    with _collector_paused():
        return pairs.tolist()


def _phase_split(rows: np.ndarray):
    """(phase-normalized copy, removed phases) of a (count, N) stack: each row
    divided by the phase of its first entry above PIVOT_TOL in modulus."""
    pivots = rows[np.arange(len(rows)), np.argmax(np.abs(rows) > PIVOT_TOL, axis=1)]
    # hypot, not np.abs: the array abs may differ from the scalar one in the
    # last bit, and the canonical rows are printed
    phases = pivots / np.hypot(pivots.real, pivots.imag)
    return rows / phases[:, None], phases


def _unit_rows(vectors, owner: str) -> np.ndarray:
    """Nonempty vectors as one read-only (count, N) array, checked once: N >= 2,
    one N for all (else a RankMismatchError naming `owner`), unit rows."""
    try:
        rows = np.array(vectors, dtype=complex, order="C")
    except ValueError:  # ragged
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] < 2:
        if any(np.ndim(v) != 1 or np.size(v) < 2 for v in vectors):
            raise ValueError("expected a vector in C^N with N >= 2")
        raise RankMismatchError(f"{owner} factors must share one ambient dimension")
    # norms of the real view: a complex product of an infinite entry warns
    _check_near(np.linalg.norm(rows.view(float), axis=1), 1.0, _NOT_UNIT)
    rows.flags.writeable = False
    return rows


# ----------------------------------------------------------------------
# cycles

@dataclass(frozen=True, eq=False)
class CycleParam:
    """Factor stack of a finite tensor z^(1) x ... x z^(k) of unit vectors: a
    read-only (k, N) array `rows`, built from a sequence of them or such an
    array; `factors` is the tuple of its row views."""

    rows: np.ndarray

    def __post_init__(self):
        if not len(self.rows):
            raise ValueError("a cycle needs at least one factor")
        object.__setattr__(self, "rows", _unit_rows(self.rows, "cycle"))

    @property
    def factors(self) -> tuple:
        return tuple(self.rows)

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def cycle(vectors) -> CycleParam:
    return CycleParam(vectors)


def scale_cycle(z: CycleParam, c) -> CycleParam:
    """The tensor c*z, realized by scaling the first factor."""
    c = _unimodular(c, "cycle scaling")
    return CycleParam(np.vstack((z.rows[0] * c, z.rows[1:])))


def _divisors(k: int):
    low = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted({*low, *(k // d for d in low)})


def _phase_match(a: np.ndarray, b: np.ndarray, tol: float):
    """The phases c_i of <b_i|a_i> if |a_i - c_i b_i| < tol for every row, else
    None: the decision layer's one factor comparison, with no pivot."""
    overlap = np.sum(np.conj(b) * a, axis=-1)
    phases = np.divide(overlap, np.abs(overlap), out=np.ones_like(overlap), where=overlap != 0)
    return phases if np.all(np.linalg.norm(a - phases[..., None] * b, axis=-1) < tol) else None


def _block_period(rows: np.ndarray, tol: float):
    """Least divisor d of len(rows) with row i a phase multiple of row i mod d,
    and those phases (None for d = len(rows))."""
    k = len(rows)
    for d in _divisors(k)[:-1]:
        # the second block alone rules out most d at a fraction of the cost
        if _phase_match(rows[d : 2 * d], rows[:d], tol) is None:
            continue
        phases = _phase_match(rows.reshape(k // d, d, -1), rows[:d], tol)
        if phases is not None:
            return d, phases
    return k, None


def primitive_root(z: CycleParam, tol: float = DEFAULT_TOL):
    """Maximal tensor-power decomposition: (y, p) with z = y^(x p), y nonperiodic.

    y is the first of p blocks of canonical factors that agree up to
    phases, times a p-th root of the global phase (any root works, they
    differ by the components of the power decomposition); where the
    canonical pivot jumped between blocks, the matched phase joins it.
    """
    rows, pivots = _phase_split(z.rows)
    d, phases = _block_period(rows, tol)
    p = len(rows) // d
    if p == 1:
        return z, 1
    phase = complex(np.prod(pivots))
    jumped = np.linalg.norm(rows.reshape(p, d, -1) - rows[:d], axis=-1) >= tol
    if jumped.any():
        phase *= complex(np.prod(phases[jumped]))
    root_phase = cmath.exp(cmath.log(phase) / p)
    return CycleParam(np.vstack((rows[0] * root_phase, rows[1:d]))), p


def _offset_matches(a: np.ndarray, b: np.ndarray, tol: float):
    """The one loop over cyclic offsets: _phase_match of a and b tiled once to
    lcm length, a rotated by each offset below the gcd (the rest repeat pairs)."""
    span, offsets = math.lcm(len(a), len(b)), math.gcd(len(a), len(b))
    a, b = np.tile(a, (span // len(a), 1)), np.tile(b, (span // len(b), 1))
    return (_phase_match(np.roll(a, -r, axis=0), b, tol) for r in range(offsets))


def cycles_equivalent(z: CycleParam, y: CycleParam, tol: float = DEFAULT_TOL) -> bool:
    """Tensor equality up to a cyclic rotation of the factor list: some
    rotation matches y factorwise with phases whose product is 1."""
    if z.n != y.n:
        raise RankMismatchError(f"rank mismatch: {z.n} vs {y.n}")
    if z.k != y.k:
        return False
    return any(c is not None and abs(np.prod(c) - 1.0) <= tol
               for c in _offset_matches(z.rows, y.rows, tol))


# ----------------------------------------------------------------------
# chains

@dataclass(frozen=True, eq=False)
class ChainParam:
    """`preperiod`, `period`, `prefix`: read-only (count, N) stacks, (0, N) if unused."""

    kind: str
    n: int
    preperiod: np.ndarray = None
    period: np.ndarray = None
    theta: object = None
    prefix: np.ndarray = None

    def __post_init__(self):
        for name in ("preperiod", "period", "prefix"):
            if getattr(self, name) is None:
                empty = np.empty((0, self.n), dtype=complex)
                empty.flags.writeable = False
                object.__setattr__(self, name, empty)


def explicit_chain(period, preperiod=()) -> ChainParam:
    if not len(period):
        raise ValueError("period block must be nonempty")
    pre = len(preperiod)
    rows = _unit_rows([*preperiod, *period] if pre else period, "chain")
    return ChainParam("explicit", rows.shape[1], preperiod=rows[:pre], period=rows[pre:])


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
    if not len(vectors):
        raise ValueError("prefix must be nonempty")
    prefix = _unit_rows(vectors, "chain")
    return ChainParam("prefix", prefix.shape[1], prefix=prefix)


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
    bit-identical to what the per-index formula gives.  A rational rotation
    a/b repeats with period b, so it is evaluated and checked once per
    residue mod b and the other rows are copies of those.
    """
    _check_integer(start, "factor index")
    _check_integer(count, "factor count")
    if start < 1:
        raise ValueError("factor index starts at 1")
    if count < 0:
        raise ValueError("factor count must be nonnegative")
    if start + count > 1 << 62:
        raise ValueError("factor indices must stay below 2^62")
    idx = np.arange(start, start + count, dtype=np.int64)
    # the rows are table[pick], or the table itself when nothing is picked,
    # a rational rotation's first b rows tiled: each distinct factor is
    # computed and checked once
    pick = None
    if chain.kind == "explicit":
        table = np.concatenate((chain.preperiod, chain.period))
        pre = len(chain.preperiod)
        pos = idx - 1
        pick = np.where(pos < pre, pos, pre + (pos - pre) % len(chain.period))
    elif chain.kind == "rotation":
        theta = chain.theta
        if isinstance(theta, Fraction):
            a, b = theta.numerator, theta.denominator
            idx = idx[:b]
            if b < 1 << 31:
                # float(Fraction) is the correctly rounded num / den, and so
                # is float64 division of two integers below 2^53
                frac = (idx % b * a % b) / b
            else:
                frac = np.array([m * a % b / b for m in range(start, start + len(idx))])
        else:
            # extended precision keeps the reduction of m*theta mod 1 near
            # machine accuracy for m up to ~1e9
            frac = np.fmod(idx.astype(np.longdouble) * np.longdouble(theta), 1.0)
            frac = frac.astype(float)
        table = _planar_rows(2.0 * math.pi * frac)
    elif chain.kind == "gray_zone":
        # the m-th wobble pair has half-angle arcsin(1/(sqrt(2) m)); math.asin
        # is kept because np.arcsin differs from it in the last bit
        first, last = (start + 1) // 2, (start + count) // 2
        args = 1.0 / (math.sqrt(2.0) * np.arange(first, last + 1, dtype=np.int64))
        halves = np.fromiter(map(math.asin, args.tolist()), float, args.size)
        half = halves[(idx + 1) // 2 - first]
        table = _planar_rows(np.where(idx % 2 == 1, math.pi / 4 - half, math.pi / 4 + half))
    elif chain.kind == "prefix":
        _check_prefix(chain, start + count - 1)
        table = chain.prefix[start - 1 : start - 1 + count]
    else:
        raise ValueError(f"unknown chain kind {chain.kind!r}")
    _check_near(np.linalg.norm(table.view(float), axis=1), 1.0, _NOT_UNIT)
    rows = table if pick is None else table[pick]
    if len(rows) < count:
        rows = np.tile(rows, (-(-count // len(rows)), 1))[:count]
    rows.flags.writeable = False
    return rows


def _check_prefix(chain: ChainParam, last: int) -> None:
    if last > len(chain.prefix):
        raise UndecidableError(f"prefix chain holds only {len(chain.prefix)} factors")


def chain_factor(chain: ChainParam, m: int) -> np.ndarray:
    """The m-th factor (m >= 1)."""
    return chain_factors(chain, m, 1)[0]


def _has_exact_tail(chain: ChainParam) -> bool:
    """Explicit and rational rotation chains: the chains with a tail block."""
    return chain.kind == "explicit" or isinstance(chain.theta, Fraction)


def _tail_length(chain: ChainParam) -> int:
    """Length of the exact period block of an explicit or rational rotation
    chain, a rotation's charged to the factor budget."""
    if chain.kind == "explicit":
        return len(chain.period)
    b = chain.theta.denominator
    _check_factor_budget(chain, b, f"the period block of rotation {chain.theta}")
    return b


def _tail_block(chain: ChainParam) -> np.ndarray:
    """Exact period block of an explicit or rational rotation chain, within budget."""
    if chain.kind == "explicit":
        return chain.period
    return chain_factors(chain, 1, _tail_length(chain))


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


def is_eventually_periodic(chain: ChainParam, tol: float = DEFAULT_TOL) -> PeriodicityVerdict:
    # the tail period is the minimal p with z^(m+p) = c_m z^(m): the cyclic
    # period of the period block up to phases; a rotation by a/b has
    # z^(m+p) = +-z^(m) exactly when 2 p a / b is an integer
    if chain.kind == "explicit":
        return PeriodicityVerdict(True, _block_period(chain.period, tol)[0])
    if chain.kind == "rotation":
        if isinstance(chain.theta, Fraction):
            b = chain.theta.denominator
            return PeriodicityVerdict(True, b // math.gcd(b, 2))
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
    so it converges iff every tail summand vanishes: the period blocks
    agree factorwise up to phase at some offset (offsets equal modulo the
    gcd of the periods compare the same pairs).  Rational rotations agree
    so exactly when 2 (theta - theta') is an integer.
    """
    if z.n != y.n:
        raise RankMismatchError(f"rank mismatch: {z.n} vs {y.n}")
    if isinstance(z.theta, Fraction) and isinstance(y.theta, Fraction):
        return (2 * (z.theta - y.theta)).denominator == 1
    # both sides are refused before either block is built
    for c in (z, y):
        if not _has_exact_tail(c):
            raise UndecidableError(f"chain kind {c.kind!r} has no exact periodic tail; "
                                   "use asymptotic diagnostics instead")
    # the offset matcher tiles both blocks to the lcm of their lengths
    span = math.lcm(_tail_length(z), _tail_length(y))
    _check_factor_budget(z, span, "the tail blocks tiled to the lcm of their lengths")
    return any(c is not None for c in _offset_matches(_tail_block(z), _tail_block(y), tol))


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
        """(plain, absolute) sums at m = M for a p in 1..p_max."""
        _check_integer(p, "p")
        if not 1 <= p <= len(self.plain):
            raise ValueError(f"p = {p} is outside 1..{len(self.plain)}")
        return float(self.plain[p][-1]), float(self.absolute[p][-1])


# factor entries a diagnostics chunk generates beside the rows it carries
_CHUNK_ENTRIES = 1 << 15


def _check_budget(what: str, count: int, limit: int = DIAGNOSTICS_BUDGET,
                  source: str = "diagnostics") -> None:
    if count > limit:
        raise ValueError(f"{source} would generate {count} {what}, over the budget of {limit}")


def _check_factor_budget(chain: ChainParam, count: int, source: str = "diagnostics") -> None:
    # count * N entries against 2 DIAGNOSTICS_BUDGET
    _check_budget("factors", count, 2 * DIAGNOSTICS_BUDGET // chain.n, source)


def _target_in(chain: ChainParam, v, name: str) -> np.ndarray:
    """`v` as a unit vector of the chain's C^N; a vector of another length
    or off the unit sphere raises ValueError naming `name`."""
    v = np.array(v, dtype=complex)
    if v.shape != (chain.n,):
        raise ValueError(f"{name} has {v.size} entries but the chain has rank {chain.n}")
    _check_near(np.linalg.norm(v.view(float)), 1.0,
                f"{name} must have unit norm within {UNIT_TOL}")
    return v


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """`terms.sum(axis=1)`, bit for bit.  numpy adds a row of up to three terms
    in index order and pairs longer rows in lanes; adding the columns gives
    the same bits for up to three of them, without a call per row."""
    if terms.shape[1] > 3:
        return terms.sum(axis=1)
    return sum(terms.T[1:], terms[:, 0])


def _chunks(chain: ChainParam, p_max: int, m_max: int, target):
    """Refuse a request over the budget or past a prefix, then return the
    generator of its chunks: (start, sums) with `sums` the longdouble
    running sums at m = start + 1, ... of the plain columns p = 1..p_max,
    the absolute columns, and the target column for a unit `target`.

    A chunk is _CHUNK_ENTRIES factor entries, or p_max rows if more, and
    holds the p_max rows past its end, which the next chunk takes over:
    every factor is generated once, and the carried rows never outnumber a
    whole chunk.  Every overlap, the target's too, is a row sum of its
    entrywise products, so its bits do not depend on the chunk it falls in.
    The factors of a rational rotation a/b repeat bit for bit with period
    b, so on a chunk of more than b rows the overlaps and defects are
    formed once per residue, on its first b rows and the p_max after them,
    and tiled over the chunk; the sums still add every summand.  Sums run
    in extended precision, since 1e4 nearly equal summands damage the last
    digits of a float64 running sum, and each column continues from its
    running total, which repeats the additions of one longdouble cumsum
    over the whole column (the leading total 0 adds exactly, since 1 - x
    is never -0).
    """
    _check_factor_budget(chain, m_max + p_max)
    _check_budget("overlap summands", p_max * m_max)
    if chain.kind == "prefix":
        _check_prefix(chain, m_max + p_max)

    # the period of the defects: b for a rational rotation a/b
    period = m_max
    if chain.kind == "rotation" and isinstance(chain.theta, Fraction):
        period = chain.theta.denominator

    def generate():
        size = max(1, p_max, _CHUNK_ENTRIES // chain.n)
        totals = [np.longdouble(0)] * (2 * p_max + (target is not None))
        rows = np.empty((0, chain.n), dtype=complex)
        start = 0
        while start < m_max:
            count = min(size, m_max - start)
            carry = rows[len(rows) - p_max:]
            rows = chain_factors(chain, start + len(carry) + 1, count + p_max - len(carry))
            if len(carry):
                rows = np.concatenate((carry, rows))
            span = min(count, period)
            inner = [_row_sums(np.conj(rows[:span]) * rows[p : p + span])
                     for p in range(1, p_max + 1)]
            defects = [1.0 - x.real for x in inner] + [1.0 - np.abs(x) for x in inner]
            if target is not None:
                defects.append(1.0 - np.abs(_row_sums(rows[:span] * np.conj(target))))
            if span < count:
                defects = [np.tile(d, -(-count // span))[:count] for d in defects]
            sums = [np.cumsum(np.concatenate(([t], d)), dtype=np.longdouble)[1:]
                    for t, d in zip(totals, defects)]
            totals = [s[-1] for s in sums]
            yield start, sums
            start += count

    return generate()


def _diagnostic_chunks(chain: ChainParam, p_max: int, m_max: int, target=None,
                       name="target"):
    """The chunks of the asymptotic_diagnostics columns and, for a unit
    vector `target` (called `name` in errors), of the target_overlap_sums
    column of the same chain and M: one pass over the chain factors.  Every
    argument and budget is checked before anything is generated."""
    if target is not None:
        target = _target_in(chain, target, name)
    _check_integer(p_max, "p_max")
    _check_integer(m_max, "M")
    if p_max < 1 or m_max < 1:
        raise ValueError("p_max and M must be >= 1")
    return _chunks(chain, p_max, m_max, target)


def _columns(chunks, m_max: int) -> list:
    """The whole float64 columns of the chunks, written chunk by chunk."""
    columns = None
    for start, sums in chunks:
        if columns is None:
            columns = [np.empty(m_max) for _ in sums]
        for column, s in zip(columns, sums):
            column[start : start + s.size] = s
    return columns


def asymptotic_diagnostics(chain: ChainParam, p_max: int, m_max: int) -> DiagnosticsTable:
    columns = _columns(_diagnostic_chunks(chain, p_max, m_max), m_max)
    ps = range(1, p_max + 1)
    return DiagnosticsTable(m_max, dict(zip(ps, columns[:p_max])), dict(zip(ps, columns[p_max:])))


def target_overlap_sums(chain: ChainParam, v, m_max: int) -> np.ndarray:
    """Cumulative sums of 1 - |<z^(m)|v>| against a fixed unit vector."""
    _check_integer(m_max, "M")
    if m_max < 1:
        raise ValueError("M must be >= 1")
    return _columns(_chunks(chain, 0, m_max, _target_in(chain, v, "target")), m_max)[0]
