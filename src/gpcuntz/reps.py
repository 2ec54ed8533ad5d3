"""Finite truncations of the canonical parameter representations.

The representation space is graded by pairs (layer, m), m = 1..N^D, and
every truncation is given by a step table.  A row (source, target, u,
scale) lets the generators step the source layer down to the target
layer through the unitary u completing the factor consumed on that step:

    S_i e_(source, m) = scale * sum_j conj(u_ij) e_(target, N(m-1) + j)

for m <= N^(D-1); the other columns would leave the truncation and are
dropped.  The kinds differ only in their tables:

* cycle -- layers 1..k; layer t steps to t - 1 through factor t - 1 and
  layer 1 wraps onto layer k through the last factor;
* fiber -- the cycle table with the wrap scaled by the conjugate phase;
* chain -- window layers -D-..D+; each layer t above the bottom one steps
  to t - 1 through factor t (e_1 below index 1).

S_i* S_j = delta_ij holds exactly on the first N^(D-1) columns of every
step source (`interior`) and sum_i S_i S_i* = I on every step target
(`sum_interior`); all contracts are stated there.  The distinguished
vector sits at (1, 1) for cycles and (0, 1) for chains.

A truncation carries, from construction, the read-only factor rows it
realizes (`factor_rows`): the k rows of the cycle, or of c*v for a fiber
twisted by c, and the chain factors 1..D+ from one `chain_factors` call.
Every anchor, basis vector and residual is formed from these rows;
nothing goes back to the parameter.  No operator s(v) = sum_i v_i S_i is
ever assembled: one routine applies s(v) or s(v)* to a vector from the N
generators, and every product of factors is applied one factor at a time.
`verify_gp(rep)` takes no options: its eigen residual is |anchor_1 - Omega|,
where anchor_1 is the same pi(s(z^(1)) ... s(z^(k))) Omega its family and
basis checks use, and its basis depth is min(2, D - k).

A truncation stores its step table (`step_sources`, `step_targets`,
`step_coeffs`), read-only, and everything else is read from it.  A
generator acts on a vector through slices of the table: S_i x writes
c_ij x_(source, m) into row N(m-1) + j of the step target, and S_i^T x sums
those rows back.  Each target is reached by one step, so the relation
residuals of `verify_gp` come from the N x N coefficient blocks alone, in
O(steps N^3).  Products are written out in float64 as (ar br - ai bi,
ar bi + ai br), since numpy's array complex multiply can round otherwise,
and summed in scipy's order, so every residual, and every vector from a
finite one, carries the bits of the sparse products it replaced.  The CSC
arrays of each generator (`csc`: data, indices, indptr, in column order
and ascending rows) are written from the table with numpy on first use,
for the exports; `gens` wraps them, without a copy, as scipy csc_arrays,
and only that loads scipy.sparse.  Nothing in this module, the package or
its command line reads `gens`.

The builders refuse, before allocating, more than REP_BUDGET basis vectors
at rank 2 (2 REP_BUDGET / N at rank N), and `verify_gp` refuses, before it
enumerates, a basis check whose dense stack of count x dim entries would
exceed 8 REP_BUDGET.  The chain family E_t is pushed from Omega through
the window once per walk, and `verify_gp` writes each E_t straight into
the stack its family check takes.  The exports read the stored arrays
and cost about the bytes they emit.  `export_coo` turns every index into
text once and the `repr` text of an entry once per distinct bit pattern
of its value, which a step table keeps to k N^2 per generator; every line
is gathered from these tables by index and the output is one join,
byte-stable with every -0.0 kept.  `export_json` builds its nested lists
with the cyclic garbage collector paused (`params._nested_list`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (PIVOT_TOL, PRUNE_TOL, AlgebraElement, RankMismatchError, _check_near,
                      _unimodular)
from .params import (
    ChainParam,
    CycleParam,
    _nested_list,
    basis_vector,
    chain_factors,
    complex_pairs,
    scale_cycle,
)


# most basis vectors, len(layers) * N^D, one truncation of rank 2 may have;
# every generator holds about one entry per basis vector, so rank N is
# allowed 2 / N of it
REP_BUDGET = 1 << 20
# most entries, count x dim, the dense basis stack of verify_gp may hold
# per REP_BUDGET basis vectors (128 MiB of complex entries at the default)
_BASIS_STACK_SHARE = 8


class TruncationOverflowError(RuntimeError):
    """A vector's support escaped the exact interior during application."""


def complete_unitary(z) -> np.ndarray:
    """Deterministic unitary with first column z.

    Modified Gram-Schmidt over the sequence (z, e_1, ..., e_N), skipping
    candidates whose residual norm falls below PIVOT_TOL.
    """
    z = np.asarray(z, dtype=complex)
    _check_near(np.linalg.norm(z), 1.0, "column seed must be a unit vector")
    n = z.size
    cols = [z]
    for i in range(n):
        if len(cols) == n:
            break
        v = np.zeros(n, dtype=complex)
        v[i] = 1.0
        for c in cols:
            v = v - c * (np.conj(c) @ v)
        norm = np.linalg.norm(v)
        if norm >= PIVOT_TOL:
            cols.append(v / norm)
    return np.stack(cols, axis=1)


# ----------------------------------------------------------------------
# the truncated representation container

@dataclass(eq=False)
class TruncatedRep:
    """Generators S_1..S_N on the truncated graded basis, given by a step table."""

    n: int
    kind: str                 # "cycle" | "chain" | "fiber"
    depth: int
    layers: tuple             # layer ids in basis order
    # the step table, read-only: step s steps layer position step_sources[s]
    # down to step_targets[s] with S_i e_(source, m) =
    # sum_j step_coeffs[s, i, j] e_(target, N(m-1) + j)
    step_sources: np.ndarray
    step_targets: np.ndarray
    step_coeffs: np.ndarray
    omega: np.ndarray
    interior: np.ndarray      # columns on which S_i* S_j = delta_ij is exact
    sum_interior: np.ndarray  # columns on which sum_i S_i S_i* = I is exact
    param: object
    factor_rows: np.ndarray   # read-only rows of the factors realized (see module doc)
    window: tuple | None = None   # (d_minus, d_plus) for chains

    @property
    def dim(self) -> int:
        return self.omega.size

    @cached_property
    def csc(self) -> tuple:
        """Read-only (data, indices, indptr) of each generator's CSC matrix,
        written from the step table."""
        return tuple(_csc_arrays(self, i) for i in range(self.n))

    @cached_property
    def gens(self) -> list:
        """S_1..S_N as scipy csc_arrays over `csc`, not copies; the first
        use loads scipy.sparse."""
        import scipy.sparse as sp

        shape = (self.dim, self.dim)
        return [sp.csc_array(arrays, shape=shape, copy=False) for arrays in self.csc]

    @property
    def block(self) -> int:
        return self.n ** self.depth

    @cached_property
    def _step_runs(self) -> list:
        """(steps, sources, targets) slices of the maximal runs of steps whose
        source and target layer positions both ascend by one: one run for a
        chain, two for a cycle of more than one factor."""
        src, tgt = self.step_sources.tolist(), self.step_targets.tolist()
        starts = [s for s in range(len(src))
                  if s == 0 or (src[s], tgt[s]) != (src[s - 1] + 1, tgt[s - 1] + 1)]
        return [(slice(a, b), slice(src[a], src[a] + b - a), slice(tgt[a], tgt[a] + b - a))
                for a, b in zip(starts, starts[1:] + [len(src)])]

    def index(self, layer, m: int) -> int:
        return self.layers.index(layer) * self.block + (m - 1)

    def label_of(self, idx: int):
        return (self.layers[idx // self.block], idx % self.block + 1)


def _check_size(n: int, depth: int, layer_count: int) -> None:
    """Refuse, before anything is allocated, a depth below 2 or a rank-n
    truncation of more than 2 REP_BUDGET / n basis vectors."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    limit = 2 * REP_BUDGET // n
    # N >= 2, so this depth alone is over the budget; naming the power
    # avoids building an enormous integer
    if depth >= REP_BUDGET.bit_length():
        count = f"at least {n}^{depth}"
    else:
        count = layer_count * n ** depth
        if count <= limit:
            return
    raise ValueError(
        f"truncation would have dimension {count}, over the budget of {limit} for rank {n}"
    )


def _layered_rep(param, depth, layers, steps, omega_layer, kind, **fields) -> TruncatedRep:
    """Truncation of depth `depth` on `layers` from a step table.

    `steps` holds one (source layer, target layer, completing unitary,
    scale) row per step down.  No two rows share a source or a target, so
    each column of a generator is written by at most one step and each row
    by at most one.  Coefficients are formed entry by entry as
    `scale * conj(u_ij)`, since numpy's array complex multiply can differ
    from the scalar one in the last bit.  Chain steps pass scale None and
    keep `conj(u_ij)` as it is: a factor 1.0 would turn their -0.0
    imaginary parts into 0.0.
    """
    n = param.n
    sources = _read_only(np.array([layers.index(row[0]) for row in steps], dtype=np.intp))
    targets = _read_only(np.array([layers.index(row[1]) for row in steps], dtype=np.intp))
    assert len(set(sources.tolist())) == len(steps) == len(set(targets.tolist())), \
        "every step needs its own source and target layer"
    coeffs = _read_only(np.array(
        [[[np.conj(u[i, j]) if scale is None else scale * np.conj(u[i, j]) for j in range(n)]
          for i in range(n)] for _, _, u, scale in steps],
        dtype=complex,
    ).reshape(len(steps), n, n))
    blocks = (len(layers), n ** depth)
    interior = np.zeros(blocks, dtype=bool)
    interior[sources, : n ** (depth - 1)] = True
    sum_interior = np.zeros(blocks, dtype=bool)
    sum_interior[targets] = True
    omega = np.zeros(blocks, dtype=complex)
    omega[layers.index(omega_layer), 0] = 1.0
    return TruncatedRep(
        n=n,
        kind=kind,
        depth=depth,
        layers=layers,
        step_sources=sources,
        step_targets=targets,
        step_coeffs=coeffs,
        omega=omega.ravel(),
        interior=interior.ravel(),
        sum_interior=sum_interior.ravel(),
        param=param,
        **fields,
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _csc_arrays(rep: TruncatedRep, i: int) -> tuple:
    """Read-only (data, indices, indptr) of S_(i+1): every step fills the
    first N^(D-1) columns of its source with rows N m + j of its target in
    ascending j, exact zeros skipped."""
    # REP_BUDGET keeps every index and count far below 2^31, and scipy
    # wraps int32 arrays as they are
    idx = np.int32
    blk = rep.block
    inner = blk // rep.n
    kept = [np.flatnonzero(row) for row in rep.step_coeffs[:, i]]
    counts = np.zeros((len(rep.layers), blk), dtype=idx)
    counts[rep.step_sources, :inner] = [[len(js)] for js in kept]
    indptr = np.zeros(rep.dim + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1], dtype=complex)
    ms = np.arange(inner, dtype=idx)
    for source, target, js, coeffs in zip(rep.step_sources, rep.step_targets, kept,
                                          rep.step_coeffs[:, i]):
        block = slice(indptr[source * blk], indptr[source * blk] + inner * len(js))
        indices[block].reshape(inner, len(js))[:] = target * blk + rep.n * ms[:, None] + js
        data[block].reshape(inner, len(js))[:] = coeffs[js]
    return tuple(map(_read_only, (data, indices, indptr)))


def _cycle_rep(z: CycleParam, depth: int, wrap_scale, kind: str, factor_rows) -> TruncatedRep:
    """Layer t steps to t - 1 through factor t - 1 of `z`; layer 1 wraps
    onto layer k through the last factor, scaled by `wrap_scale`."""
    _check_size(z.n, depth, z.k)
    steps = [
        (t, (t - 2) % z.k + 1, complete_unitary(z.rows[t - 2]), wrap_scale if t == 1 else 1.0)
        for t in range(1, z.k + 1)
    ]
    return _layered_rep(z, depth, tuple(range(1, z.k + 1)), steps, 1, kind,
                        factor_rows=factor_rows)


def build_cycle_rep(z: CycleParam, depth: int) -> TruncatedRep:
    """Truncation of the cycle representation; the distinguished vector
    e_(1,1) is fixed by the product isometry of the factors."""
    return _cycle_rep(z, depth, 1.0, "cycle", z.rows)


def build_fiber_rep(v: CycleParam, c, depth: int) -> TruncatedRep:
    """Cycle truncation with the wrap step scaled by conj(c).

    The result realizes the parameter c*v with the same distinguished
    vector e_(1,1); with c = 1 the matrices coincide with
    build_cycle_rep(v, depth).
    """
    c = _unimodular(c, "fiber phase")
    return _cycle_rep(v, depth, np.conj(c), "fiber", scale_cycle(v, c).rows)


def build_chain_rep(
    z: ChainParam, depth: int, d_minus: int | None = None, d_plus: int | None = None
) -> TruncatedRep:
    """Truncation of the chain representation on layers -d_minus..d_plus.

    The distinguished vector is e_(0,1); the backward orthonormal family
    lives at e_(t,1) for t >= 1 and the factors below index 1 default to
    e_1, so e_(-t,1) is reached by powers of S_1.
    """
    if z.kind == "prefix":
        raise ValueError("prefix chains carry no tail model; build from an "
                         "explicit, rotation or gray_zone chain")
    if d_minus is None:
        d_minus = depth
    if d_plus is None:
        d_plus = depth
    if d_minus < 1 or d_plus < 1:
        raise ValueError("window extents must be >= 1")
    _check_size(z.n, depth, d_minus + d_plus + 1)
    layers = tuple(range(-d_minus, d_plus + 1))
    rows = chain_factors(z, 1, d_plus)
    # the bottom layer has no step: stepping down would leave the window
    steps = [(t, t - 1, complete_unitary(_chain_factor(rows, t)), None) for t in layers[1:]]
    return _layered_rep(z, depth, layers, steps, 0, "chain", factor_rows=rows,
                        window=(d_minus, d_plus))


def _chain_factor(rows: np.ndarray, m: int) -> np.ndarray:
    """Factor m of a chain truncation's `factor_rows`: row m - 1, and e_1
    for every m < 1, the factor its steps take below layer 1."""
    return rows[m - 1] if m >= 1 else basis_vector(rows.shape[1], 1)


# ----------------------------------------------------------------------
# operators applied to vectors

def _apply_gen(rep: TruncatedRep, i: int, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """S_(i+1) x, or S_(i+1)^T x, of a vector or a stack of column vectors,
    read from the step table through slices.

    S x fills rows N m + j of each step target with c_ij x_(source, m), and
    S^T x sums those rows back into column m of the step source in
    ascending j, from zero.  Each complex product is written out as
    (ar br - ai bi, ar bi + ai br) in float64, so for finite x every entry
    carries the bits of scipy's CSC product with `gens[i]`.
    """
    if x.ndim == 2:
        return np.stack([_apply_gen(rep, i, col, transpose) for col in x.T], axis=1)
    n, count = rep.n, len(rep.layers)
    inner = rep.block // n
    out = np.zeros(x.size, dtype=complex)
    if transpose:
        rows, cols = x.reshape(count, inner, n), out.reshape(count, n * inner)
    else:
        rows, cols = out.reshape(count, inner, n), x.reshape(count, n * inner)
    for steps, sources, targets in rep._step_runs:
        c = rep.step_coeffs[steps, i]
        src, tgt = cols[sources, :inner], rows[targets]
        if transpose:
            # the columns of `out` start at zero and take the sums in place
            for j in range(n):
                cr, ci = c.real[:, j, None], c.imag[:, j, None]
                yr, yi = tgt.real[:, :, j], tgt.imag[:, :, j]
                src.real += cr * yr - ci * yi
                src.imag += cr * yi + ci * yr
            continue
        xr, xi = src.real, src.imag
        for j in range(n):
            cr, ci = c.real[:, j, None], c.imag[:, j, None]
            # scipy adds each product to a zero, which turns -0.0 into 0.0
            np.add(cr * xr - ci * xi, 0.0, out=tgt.real[:, :, j])
            np.add(cr * xi + ci * xr, 0.0, out=tgt.imag[:, :, j])
    return out


def _apply_isometry(rep: TruncatedRep, v, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """s(v) x = sum_i v_i S_i x, or s(v)* x = conj(sum_i v_i S_i^T conj(x)),
    from the step table.  `x` is a vector or a stack of column vectors."""
    if adjoint:
        y = np.conj(x)
        return np.conj(sum(vi * _apply_gen(rep, i, y, transpose=True) for i, vi in enumerate(v)))
    return sum(vi * _apply_gen(rep, i, x) for i, vi in enumerate(v))


def _as_vector(rep: TruncatedRep, vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (rep.dim,):
        raise ValueError(f"vector of shape {vec.shape} does not fit a truncation "
                         f"of dimension {rep.dim}")
    return vec


def _apply_generator(rep: TruncatedRep, letter: int, vec: np.ndarray, adjoint: bool):
    if adjoint:
        # adjoints annihilate every layer that no step targets: the top
        # window layer of a chain, none of a cycle
        if not np.all(np.abs(vec[~rep.sum_interior]) <= PRUNE_TOL):
            raise TruncationOverflowError(
                "support reached the top window layer; enlarge d_plus"
            )
        return np.conj(_apply_gen(rep, letter - 1, np.conj(vec), transpose=True))
    if not np.all(np.abs(vec[~rep.interior]) <= PRUNE_TOL):
        raise TruncationOverflowError(
            "support escaped the exact interior; enlarge the depth"
        )
    return _apply_gen(rep, letter - 1, vec)


def apply_element(rep: TruncatedRep, a: AlgebraElement, vec: np.ndarray) -> np.ndarray:
    """Apply a normal-form element to a vector, guarding the truncation.

    Raises TruncationOverflowError if any single-letter step would move
    support across the truncation boundary, where content is silently
    annihilated by the cut columns.
    """
    if a.n != rep.n:
        raise RankMismatchError(f"rank mismatch: {a.n} vs {rep.n}")
    vec = _as_vector(rep, vec)
    out = np.zeros(rep.dim, dtype=complex)
    for (j, k), c in a.terms.items():
        w = vec
        for letter in k:                 # rightmost adjoint acts first
            w = _apply_generator(rep, letter, w, adjoint=True)
        for letter in reversed(j):
            w = _apply_generator(rep, letter, w, adjoint=False)
        out += c * w
    return out


def vacuum_expectation(rep: TruncatedRep, a: AlgebraElement) -> complex:
    """<Omega | pi(a) Omega> in the truncation."""
    return complex(np.vdot(rep.omega, apply_element(rep, a, rep.omega)))


# ----------------------------------------------------------------------
# distinguished families and basis enumeration

def cycle_anchor_vectors(rep: TruncatedRep) -> list:
    """The k vectors pi(s(z^(i)) ... s(z^(k))) Omega, i = 1..k."""
    if rep.kind not in ("cycle", "fiber"):
        raise ValueError("anchor vectors of this form require a cycle truncation")
    out = []
    vec = rep.omega
    for f in rep.factor_rows[::-1]:
        vec = _apply_isometry(rep, f, vec)
        out.append(vec)
    return out[::-1]


def _chain_walk(rep: TruncatedRep, lo: int, hi: int):
    """(t, E_t) for lo <= t <= hi, and for every t between them and 0.

    Each call walks from Omega once: E_t = s(z_t)* E_(t-1) for t > 0 and
    E_t = S_1 E_(t+1) for t < 0, so each vector comes from the same
    operations, in the same order, as a walk from Omega to it alone.
    """
    if rep.kind != "chain":
        raise ValueError("chain vectors require a chain truncation")
    d_minus, d_plus = rep.window
    for t in (lo, hi):
        if not -d_minus <= t <= d_plus:
            raise TruncationOverflowError(
                f"layer {t} outside the window [-{d_minus}, {d_plus}]"
            )
    yield 0, rep.omega
    vec = rep.omega
    for m in range(1, hi + 1):
        vec = _apply_isometry(rep, rep.factor_rows[m - 1], vec, adjoint=True)
        yield m, vec
    vec = rep.omega
    for t in range(-1, lo - 1, -1):
        vec = _apply_generator(rep, 1, vec, adjoint=False)
        yield t, vec


def _chain_vectors(rep: TruncatedRep, lo: int, hi: int) -> dict:
    """{t: E_t} of `_chain_walk`."""
    return dict(_chain_walk(rep, lo, hi))


def chain_vector(rep: TruncatedRep, t: int) -> np.ndarray:
    """E_t: Omega pushed |t| steps backward (t > 0) or forward along e_1."""
    return _chain_vectors(rep, t, t)[t]


@dataclass(frozen=True)
class BasisLabel:
    """Label of one enumerated basis vector.

    depth  -- number of extra letters on top of the anchor vector;
    anchor -- cycle position (1..k) or chain layer of the anchor;
    branch -- orthogonal-completion column index (2..N), 0 for anchors;
    prefix -- leading letter word for the deeper levels.
    """

    depth: int
    anchor: int
    branch: int = 0
    prefix: tuple = ()


def enumerate_basis(rep: TruncatedRep, max_depth: int):
    """Orthonormal family labels and vectors up to the given depth.

    Cycle truncations enumerate the full graded family (k N^d vectors at
    depth d); chain truncations enumerate over the anchor layers of -1..1
    that the window allows (N^(d-1) vectors per anchor at depth d >= 1).
    """
    if max_depth < 0:
        raise ValueError("depth must be nonnegative")
    if rep.kind in ("cycle", "fiber"):
        return _enumerate_cycle(rep, max_depth)
    return _enumerate_chain(rep, max_depth)


def _branch_words(rep: TruncatedRep, factor, vec, letters: int):
    """(j, word, pi(s_word s(u e_j)) vec) for every completion column
    j = 2..N of `factor` and every word of `letters` letters.

    Each level puts one more leading letter on the words of the previous
    level, so the words come in itertools.product order and every vector
    is one generator applied to a vector of the previous level.
    """
    u = complete_unitary(factor)
    out = []
    for j in range(2, rep.n + 1):
        level = [((), _apply_isometry(rep, u[:, j - 1], vec))]
        for _ in range(letters):
            level = [((a,) + word, _apply_gen(rep, a - 1, v))
                     for a in range(1, rep.n + 1) for word, v in level]
        out += [(j, word, v) for word, v in level]
    return out


def _enumerate_cycle(rep: TruncatedRep, max_depth: int):
    factors = rep.factor_rows
    k = len(factors)
    if rep.depth < max_depth + k:
        raise ValueError(
            f"insufficient depth: need >= {max_depth + k}, have {rep.depth}"
        )
    anchors = cycle_anchor_vectors(rep)
    out = [(BasisLabel(0, i + 1), anchors[i]) for i in range(k)]
    for a in range(1, k + 1):
        # depth d branches off the next anchor and carries d - 1 letters
        for depth in range(1, max_depth + 1):
            words = _branch_words(rep, factors[a - 1], anchors[a % k], depth - 1)
            out += [(BasisLabel(depth, a, j, word), v) for j, word, v in words]
    return out


def _chain_anchors(rep: TruncatedRep, max_depth: int) -> range:
    """The anchor layers of -1..1 a chain enumeration to `max_depth` can
    use: t above the bottom layer with t + max(max_depth, 1) - 1 in the
    window."""
    if max_depth > rep.depth:
        raise ValueError("depth of the enumeration exceeds the truncation depth")
    d_minus, d_plus = rep.window
    anchors = range(max(-d_minus + 1, -1), min(1, d_plus - max(max_depth, 1) + 1) + 1)
    if not anchors:
        raise ValueError(
            f"no anchor layer of -1..1 fits depth {max_depth} in the window "
            f"[-{d_minus}, {d_plus}]"
        )
    return anchors


def _enumerate_chain(rep: TruncatedRep, max_depth: int):
    anchors = _chain_anchors(rep, max_depth)
    family = _chain_vectors(rep, min(anchors), max(anchors) + max(max_depth, 1) - 1)
    out = []
    for t in anchors:
        out.append((BasisLabel(1, t), family[t]))
        # depth d branches off E_(t+d-1) and carries d - 2 letters on top
        for depth in range(2, max_depth + 1):
            top = t + depth - 1
            words = _branch_words(rep, _chain_factor(rep.factor_rows, top), family[top],
                                  depth - 2)
            out += [(BasisLabel(depth, t, j, word), v) for j, word, v in words]
    return out


# ----------------------------------------------------------------------
# verification

def _relation_residuals(rep: TruncatedRep) -> tuple:
    """The largest |S_i* S_j - delta_ij| on the interior columns and the
    largest |sum_i S_i S_i* - I| on the step targets, from the step table.

    A step's target rows are reached from its source alone, so with C its
    coefficients, S_i* S_j on each of the step's interior columns is
    sum_l conj(C_il) C_jl, and sum_i S_i S_i* on its target block is the
    N x N block sum_i C_il' conj(C_il) repeated down the diagonal.  The
    sums run in ascending l and ascending i from zero, with each product
    written out in float64 as `_apply_gen` writes it: the order and
    rounding of scipy's sparse products over the generators.  O(steps N^3).
    """
    c = rep.step_coeffs
    cr, ci = c.real, c.imag
    eye = np.eye(rep.n)
    # [s, i, j]: conj(C_il) C_jl summed over l
    iso_re, iso_im = np.zeros(c.shape), np.zeros(c.shape)
    for l in range(rep.n):
        ar, ai = cr[:, None, :, l], ci[:, None, :, l]
        br, bi = cr[:, :, None, l], -ci[:, :, None, l]
        iso_re += ar * br - ai * bi
        iso_im += ar * bi + ai * br
    # [s, l', l]: C_il' conj(C_il) summed over i
    comp_re, comp_im = np.zeros(c.shape), np.zeros(c.shape)
    for i in range(rep.n):
        ar, ai = cr[:, i, None, :], -ci[:, i, None, :]
        br, bi = cr[:, i, :, None], ci[:, i, :, None]
        comp_re += ar * br - ai * bi
        comp_im += ar * bi + ai * br
    return _max_abs(iso_re - eye, iso_im), _max_abs(comp_re - eye, comp_im)


def _max_abs(re: np.ndarray, im: np.ndarray) -> float:
    """Largest modulus of re + i im, taken as complex moduli; 0.0 if empty."""
    values = np.empty(re.size, dtype=complex)
    values.real = re.ravel()
    values.imag = im.ravel()
    return float(np.max(np.abs(values), initial=0.0))


@dataclass
class VerificationReport:
    kind: str
    isometry_residual: float
    completeness_residual: float
    family_residual: float
    eigen_residual: float | None = None
    step_residual: float | None = None
    basis_gram_residual: float | None = None
    basis_count: int | None = None
    basis_count_expected: int | None = None
    basis_min_singular: float | None = None

    def max_residual(self) -> float:
        vals = [
            self.isometry_residual,
            self.completeness_residual,
            self.family_residual,
        ]
        for extra in (self.eigen_residual, self.step_residual, self.basis_gram_residual):
            if extra is not None:
                vals.append(extra)
        if self.basis_min_singular is not None:
            vals.append(abs(1.0 - self.basis_min_singular))
        return max(vals)

    def passed(self, tol: float) -> bool:
        if self.basis_count is not None and self.basis_count != self.basis_count_expected:
            return False
        return self.max_residual() < tol

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items()}


def _gram(mat: np.ndarray):
    """Gram matrix of the columns of `mat` and its largest deviation from I."""
    gram = mat.conj().T @ mat
    return gram, float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def verify_gp(rep: TruncatedRep) -> VerificationReport:
    """Check the defining relations and the parameter contract.

    Reports the largest residual of: generator isometry and range
    completeness on the interior, the fixed-vector equation (cycles) or
    the backward family and step relations (chains), orthonormality of
    the anchored family, and a spanning check of the enumerated basis to
    depth min(2, D - k) against the matching graded interior.
    """
    cyclic = rep.kind in ("cycle", "fiber")
    k = len(rep.factor_rows) if cyclic else 0
    d = min(2, rep.depth - k)
    # a cycle family holds k N^d vectors at depth d, a chain family
    # N^(d-1) per anchor layer; the basis check stacks them densely
    expected = None
    if d >= 1:
        if cyclic:
            expected = k * rep.n ** d
        else:
            expected = len(_chain_anchors(rep, d)) * rep.n ** (d - 1)
        limit = _BASIS_STACK_SHARE * REP_BUDGET
        if expected * rep.dim > limit:
            raise ValueError(
                f"the basis check would stack {expected} vectors of dimension {rep.dim}, "
                f"{expected * rep.dim} entries, over the budget of {limit}"
            )
    iso, comp = _relation_residuals(rep)

    eigen = None
    step = None
    if cyclic:
        anchors = cycle_anchor_vectors(rep)
        # anchors[0] is pi(s(z^(1)) ... s(z^(k))) Omega
        eigen = float(np.linalg.norm(anchors[0] - rep.omega))
        family = _gram(np.stack(anchors, axis=1))[1]
    else:
        d_minus, d_plus = rep.window
        lo = -(d_minus - 1)
        # each E_t goes straight into its column: the family check holds
        # only this stack and its conjugate
        mat = np.empty((rep.dim, d_plus - lo + 1), dtype=complex)
        step = 0.0
        # the latest vector of the walk up from Omega and of the walk down
        latest = {True: rep.omega, False: rep.omega}
        for t, vec in _chain_walk(rep, lo, d_plus):
            mat[:, t - lo] = vec
            if t == 0:
                continue
            # s(z_u) E_u = E_(u-1) for the step the walk just took
            u, upper, lower = (t, vec, latest[True]) if t > 0 else (t + 1, latest[False], vec)
            pushed = _apply_isometry(rep, _chain_factor(rep.factor_rows, u), upper)
            step = max(step, float(np.linalg.norm(pushed - lower)))
            latest[t > 0] = vec
        family = _gram(mat)[1]
        del mat

    basis_gram = basis_count = min_sing = None
    if d >= 1:
        fam = enumerate_basis(rep, d)
        gram, basis_gram = _gram(np.stack([vec for _, vec in fam], axis=1))
        basis_count = len(fam)
        # the singular values of the stacked family are the square roots of
        # the eigenvalues of its Gram matrix
        min_sing = math.sqrt(max(float(np.linalg.eigvalsh(gram)[0]), 0.0))

    return VerificationReport(
        kind=rep.kind,
        isometry_residual=iso,
        completeness_residual=comp,
        family_residual=family,
        eigen_residual=eigen,
        step_residual=step,
        basis_gram_residual=basis_gram,
        basis_count=basis_count,
        basis_count_expected=expected,
        basis_min_singular=min_sing,
    )


def power_vanish(rep: TruncatedRep, z: CycleParam, v: np.ndarray, m_max: int) -> np.ndarray:
    """Norms of repeated adjoint applications of the cycle isometry.

    Each application is s(z^(k))* ... s(z^(1))*, one factor at a time.
    Components orthogonal to the fixed vector of a nonperiodic cycle
    contract to zero; the fixed vector itself keeps norm one.
    """
    if z.n != rep.n:
        raise RankMismatchError(f"vector lives in C^{z.n}, rep has rank {rep.n}")
    w = _as_vector(rep, v)
    norms = [float(np.linalg.norm(w))]
    for _ in range(m_max):
        for f in z.rows:
            w = _apply_isometry(rep, f, w, adjoint=True)
        norms.append(float(np.linalg.norm(w)))
    return np.asarray(norms)


# ----------------------------------------------------------------------
# export

def _generator_entries(rep: TruncatedRep):
    """Rows, columns and values of every generator, ordered by column and
    then row: its stored CSC arrays, with the columns spelled out."""
    for data, indices, indptr in rep.csc:
        cols = np.repeat(np.arange(rep.dim, dtype=indptr.dtype), np.diff(indptr))
        yield indices, cols, data


def _index_texts(dim: int):
    """`i` and ` i` text of every index 0..dim, as two object arrays."""
    plain = np.array(list(map(str, range(dim + 1))), dtype=object)
    return plain, " " + plain


def _value_texts(values: np.ndarray) -> np.ndarray:
    """` re im` and a line end, in shortest round-trip text, for every
    complex value.

    repr runs once per distinct bit pattern, and a step table gives a
    generator at most k N^2 of them.  The values are grouped by a lexsort
    of their two raw 64-bit halves, not compared as numbers, so -0.0 stays
    apart from 0.0.
    """
    halves = np.ascontiguousarray(values, dtype=complex).view(np.uint64).reshape(-1, 2).T.copy()
    order = np.lexsort(halves[::-1])
    re_bits, im_bits = halves[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (re_bits[1:] != re_bits[:-1]) | (im_bits[1:] != im_bits[:-1])
    pairs = np.stack((re_bits[first], im_bits[first]), axis=1).view(np.float64).tolist()
    texts = np.array([f" {re!r} {im!r}\n" for re, im in pairs], dtype=object)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return texts[group]


def _label_columns(rep: TruncatedRep):
    """Layer and m = 1..N^D of every basis index, in basis order."""
    layers = np.repeat(np.asarray(rep.layers, dtype=np.int64), rep.block)
    ms = np.tile(np.arange(1, rep.block + 1), len(rep.layers))
    return layers, ms


def _add_lines(pieces: list, header: str, *columns) -> None:
    """Append a header line, then one line per row of the text columns."""
    pieces.append(header)
    pieces += np.stack(columns, axis=1).ravel().tolist()


def export_coo(rep: TruncatedRep) -> str:
    """Coordinate-list text: `row col re im` per line, grouped by generator,
    with the basis labels and the distinguished vector appended.

    Every line is gathered by index from tables of texts made once, and
    the whole output is one join over them.
    """
    plain, spaced = _index_texts(rep.dim)
    pieces = []
    for gi, (rows, cols, values) in enumerate(_generator_entries(rep), start=1):
        _add_lines(pieces, f"# S{gi}\n", plain[rows], spaced[cols], _value_texts(values))
    layers = np.array([f" {t}" for t in rep.layers], dtype=object)
    _add_lines(pieces, "# labels: index layer m\n", plain[:rep.dim],
               np.repeat(layers, rep.block), np.tile(spaced[1:rep.block + 1], len(rep.layers)),
               np.full(rep.dim, "\n", dtype=object))
    support = np.flatnonzero(rep.omega)
    _add_lines(pieces, "# omega: index re im\n", plain[support],
               _value_texts(rep.omega[support]))
    return "".join(pieces)


def export_json(rep: TruncatedRep) -> dict:
    return {
        "rank": rep.n,
        "kind": rep.kind,
        "depth": rep.depth,
        "dim": rep.dim,
        "layers": [int(t) for t in rep.layers],
        "generators": [
            {"rows": rows.tolist(), "cols": cols.tolist(), "values": complex_pairs(values)}
            for rows, cols, values in _generator_entries(rep)
        ],
        "omega": complex_pairs(rep.omega),
        "labels": _nested_list(np.stack(_label_columns(rep), axis=1)),
        "interior": rep.interior.tolist(),
    }
