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
Every isometry, anchor, basis vector and residual is formed from these
rows; nothing goes back to the parameter.  `verify_gp(rep)` takes no
options: its eigen residual comes from the same factor isometries as its
anchor and basis checks, and its basis depth is min(2, D - k).

A truncation stores each generator as the read-only CSC arrays (`csc`:
data, indices, indptr) written straight from its step table with numpy,
in column order and ascending rows.  `gens` wraps these arrays, without a
copy, as scipy csc_arrays on first use; only operator work (`verify_gp`,
`vector_isometry`, `apply_element`, `cycle_isometry`, `power_vanish`)
reads it, so only that work loads scipy.sparse.  Building and exporting a
truncation, like importing this module, the package or its command line,
never does.

The builders refuse, before allocating, more than REP_BUDGET basis vectors
at rank 2 (2 REP_BUDGET / N at rank N), and `verify_gp` refuses, before it
enumerates, a basis check whose dense stack of count x dim entries would
exceed 8 REP_BUDGET.  The chain family E_t is pushed
from Omega through the window once.  The exports read the stored arrays
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
    """Sparse matrices S_1..S_N on the truncated graded basis."""

    n: int
    kind: str                 # "cycle" | "chain" | "fiber"
    depth: int
    layers: tuple             # layer ids in basis order
    csc: tuple                # read-only (data, indices, indptr) of each generator's CSC matrix
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
    def gens(self) -> list:
        """S_1..S_N as scipy csc_arrays over the stored arrays, not copies;
        the first use loads scipy.sparse."""
        import scipy.sparse as sp

        shape = (self.dim, self.dim)
        return [sp.csc_array(arrays, shape=shape, copy=False) for arrays in self.csc]

    @property
    def block(self) -> int:
        return self.n ** self.depth

    def index(self, layer, m: int) -> int:
        return self.layers.index(layer) * self.block + (m - 1)

    def label_of(self, idx: int):
        return (self.layers[idx // self.block], idx % self.block + 1)

    def gen_adjoint(self, i: int):
        return self.gens[i - 1].conjugate().transpose().tocsc()


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
    scale) row per step down, and no two rows share a source, so each
    column of a generator is written by at most one step: rows N(m-1) + j
    of the target layer in ascending j, exact zeros skipped.  Coefficients
    are formed entry by entry as `scale * conj(u_ij)`, since numpy's array
    complex multiply can differ from the scalar one in the last bit.
    Chain steps pass scale None and keep `conj(u_ij)` as it is: a factor
    1.0 would turn their -0.0 imaginary parts into 0.0.
    """
    n = param.n
    blk = n ** depth
    inner = n ** (depth - 1)
    dim = len(layers) * blk
    interior = np.zeros(dim, dtype=bool)
    sum_interior = np.zeros(dim, dtype=bool)
    # per generator, (first column, first row, kept j, their coefficients) per step
    spans = [[] for _ in range(n)]
    for source, target, u, scale in steps:
        col_base = layers.index(source) * blk
        row_base = layers.index(target) * blk
        interior[col_base : col_base + inner] = True
        sum_interior[row_base : row_base + blk] = True
        for i in range(n):
            coeffs = [np.conj(u[i, j]) if scale is None else scale * np.conj(u[i, j])
                      for j in range(n)]
            js = [j for j in range(n) if abs(coeffs[j]) != 0.0]
            spans[i].append((col_base, row_base, js, [coeffs[j] for j in js]))
    csc = tuple(_csc_arrays(n, dim, inner, gen_spans) for gen_spans in spans)
    omega = np.zeros(dim, dtype=complex)
    omega[layers.index(omega_layer) * blk] = 1.0
    return TruncatedRep(
        n=n,
        kind=kind,
        depth=depth,
        layers=layers,
        csc=csc,
        omega=omega,
        interior=interior,
        sum_interior=sum_interior,
        param=param,
        **fields,
    )


def _csc_arrays(n: int, dim: int, inner: int, spans: list) -> tuple:
    """Read-only (data, indices, indptr) of one generator: every step span
    fills its `inner` contiguous columns with rows row_base + N m + j."""
    # REP_BUDGET keeps every index and count far below 2^31, and scipy
    # wraps int32 arrays as they are
    idx = np.int32
    counts = np.zeros(dim, dtype=idx)
    for col_base, _, js, _ in spans:
        counts[col_base : col_base + inner] = len(js)
    indptr = np.zeros(dim + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1], dtype=complex)
    ms = np.arange(inner, dtype=idx)
    for col_base, row_base, js, coeffs in spans:
        block = slice(indptr[col_base], indptr[col_base] + inner * len(js))
        rows = row_base + n * ms[:, None] + np.array(js, dtype=idx)
        indices[block].reshape(inner, len(js))[:] = rows
        data[block].reshape(inner, len(js))[:] = np.array(coeffs, dtype=complex)
    for array in (data, indices, indptr):
        array.flags.writeable = False
    return data, indices, indptr


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
# matrices of algebra elements

def vector_isometry(rep: TruncatedRep, v):
    """Matrix of s(v) = sum_i v_i S_i."""
    v = np.asarray(v, dtype=complex)
    if v.size != rep.n:
        raise RankMismatchError(f"vector lives in C^{v.size}, rep has rank {rep.n}")
    out = v[0] * rep.gens[0]
    for i in range(1, rep.n):
        out = out + v[i] * rep.gens[i]
    return out.tocsc()


def _product(mats):
    out = None
    for m in mats:
        out = m if out is None else out @ m
    return out


def cycle_isometry(rep: TruncatedRep, factors):
    """Matrix of s(z^(1)) ... s(z^(k))."""
    return _product([vector_isometry(rep, f) for f in factors])


def _apply_generator(rep: TruncatedRep, letter: int, vec: np.ndarray, adjoint: bool):
    if adjoint:
        # adjoints annihilate every layer that no step targets: the top
        # window layer of a chain, none of a cycle
        if not np.all(np.abs(vec[~rep.sum_interior]) <= PRUNE_TOL):
            raise TruncationOverflowError(
                "support reached the top window layer; enlarge d_plus"
            )
        return rep.gen_adjoint(letter) @ vec
    if not np.all(np.abs(vec[~rep.interior]) <= PRUNE_TOL):
        raise TruncationOverflowError(
            "support escaped the exact interior; enlarge the depth"
        )
    return rep.gens[letter - 1] @ vec


def apply_element(rep: TruncatedRep, a: AlgebraElement, vec: np.ndarray) -> np.ndarray:
    """Apply a normal-form element to a vector, guarding the truncation.

    Raises TruncationOverflowError if any single-letter step would move
    support across the truncation boundary, where content is silently
    annihilated by the cut columns.
    """
    if a.n != rep.n:
        raise RankMismatchError(f"rank mismatch: {a.n} vs {rep.n}")
    vec = np.asarray(vec, dtype=complex)
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

def _cycle_isos(rep: TruncatedRep) -> list:
    """s(z^(i)), i = 1..k, for the factors the cycle truncation realizes."""
    if rep.kind not in ("cycle", "fiber"):
        raise ValueError("anchor vectors of this form require a cycle truncation")
    return [vector_isometry(rep, f) for f in rep.factor_rows]


def _anchor_vectors(rep: TruncatedRep, isos: list) -> list:
    out = [None] * len(isos)
    vec = rep.omega
    for i in range(len(isos), 0, -1):
        vec = isos[i - 1] @ vec
        out[i - 1] = vec
    return out


def cycle_anchor_vectors(rep: TruncatedRep) -> list:
    """The k vectors pi(s(z^(i)) ... s(z^(k))) Omega, i = 1..k."""
    return _anchor_vectors(rep, _cycle_isos(rep))


def _chain_iso(rep: TruncatedRep, m: int, isos: dict):
    """s(z_m), built once per m into `isos`; every m < 1 steps through e_1."""
    key = max(m, 0)
    if key not in isos:
        isos[key] = vector_isometry(rep, _chain_factor(rep.factor_rows, m))
    return isos[key]


def _chain_vectors(rep: TruncatedRep, lo: int, hi: int, isos: dict | None = None) -> dict:
    """{t: E_t} for lo <= t <= hi, and for every t between them and 0.

    Omega is pushed through the window once: E_t = s(z_t)* E_(t-1) for
    t > 0 and E_t = S_1 E_(t+1) for t < 0, so each vector comes from the
    same sparse operations, in the same order, as a walk from Omega alone.
    """
    if rep.kind != "chain":
        raise ValueError("chain vectors require a chain truncation")
    d_minus, d_plus = rep.window
    for t in (lo, hi):
        if not -d_minus <= t <= d_plus:
            raise TruncationOverflowError(
                f"layer {t} outside the window [-{d_minus}, {d_plus}]"
            )
    if isos is None:
        isos = {}
    out = {0: rep.omega}
    vec = rep.omega
    for m in range(1, hi + 1):
        vec = _chain_iso(rep, m, isos).conjugate().transpose() @ vec
        out[m] = vec
    vec = rep.omega
    for t in range(-1, lo - 1, -1):
        vec = _apply_generator(rep, 1, vec, adjoint=False)
        out[t] = vec
    return {t: np.asarray(v).ravel() for t, v in out.items()}


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
        level = [((), vector_isometry(rep, u[:, j - 1]) @ vec)]
        for _ in range(letters):
            level = [((a,) + word, rep.gens[a - 1] @ v)
                     for a in range(1, rep.n + 1) for word, v in level]
        out += [(j, word, v) for word, v in level]
    return out


def _enumerate_cycle(rep: TruncatedRep, max_depth: int, anchors: list | None = None):
    """`anchors`, when given, are the cycle_anchor_vectors of `rep`."""
    factors = rep.factor_rows
    k = len(factors)
    if rep.depth < max_depth + k:
        raise ValueError(
            f"insufficient depth: need >= {max_depth + k}, have {rep.depth}"
        )
    if anchors is None:
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


def _enumerate_chain(rep: TruncatedRep, max_depth: int, e_cache: dict | None = None):
    """`e_cache`, when given, is a _chain_vectors dict of `rep` over the layers read."""
    anchors = _chain_anchors(rep, max_depth)
    if e_cache is None:
        e_cache = _chain_vectors(rep, min(anchors), max(anchors) + max(max_depth, 1) - 1)
    out = []
    for t in anchors:
        out.append((BasisLabel(1, t), e_cache[t]))
        # depth d branches off E_(t+d-1) and carries d - 2 letters on top
        for depth in range(2, max_depth + 1):
            top = t + depth - 1
            words = _branch_words(rep, _chain_factor(rep.factor_rows, top), e_cache[top],
                                  depth - 2)
            out += [(BasisLabel(depth, t, j, word), v) for j, word, v in words]
    return out


# ----------------------------------------------------------------------
# verification

def _max_abs(mat) -> float:
    mat = mat.tocoo()
    if mat.nnz == 0:
        return 0.0
    return float(np.max(np.abs(mat.data)))


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


def _gram(vectors):
    """Gram matrix of the stacked vectors and its largest deviation from I."""
    mat = np.stack(vectors, axis=1)
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
    import scipy.sparse as sp

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
    ident = sp.identity(rep.dim, dtype=complex, format="csc")
    adjoints = [rep.gen_adjoint(i) for i in range(1, rep.n + 1)]
    iso = 0.0
    for i, si_h in enumerate(adjoints):
        for j, sj in enumerate(rep.gens):
            res = si_h @ sj
            if i == j:
                res = res - ident
            iso = max(iso, _max_abs(res[:, rep.interior]))
    total = None
    for si, si_h in zip(rep.gens, adjoints):
        piece = si @ si_h
        total = piece if total is None else total + piece
    comp = _max_abs((total - ident)[:, rep.sum_interior])
    # the adjoints are not needed by the basis check, which sets the memory peak
    del adjoints

    eigen = None
    step = None
    if cyclic:
        # the factor isometries and anchors are built once, for the eigen,
        # family and basis checks alike
        isos = _cycle_isos(rep)
        anchors = _anchor_vectors(rep, isos)
        iso_mat = _product(isos)
        eigen = float(np.linalg.norm(iso_mat @ rep.omega - rep.omega))
        family = _gram(anchors)[1]
        # the basis check below sets the memory peak and needs only the anchors
        del isos, iso_mat
    else:
        d_minus, d_plus = rep.window
        ts = range(-(d_minus - 1), d_plus + 1)
        isos = {}
        vectors = _chain_vectors(rep, ts[0], ts[-1], isos)
        family = _gram([vectors[t] for t in ts])[1]
        step = 0.0
        for t in range(-(d_minus - 2), d_plus + 1):
            iso_mat = _chain_iso(rep, t, isos)
            step = max(
                step, float(np.linalg.norm(iso_mat @ vectors[t] - vectors[t - 1]))
            )

    basis_gram = basis_count = min_sing = None
    if d >= 1:
        fam = _enumerate_cycle(rep, d, anchors) if cyclic else _enumerate_chain(rep, d, vectors)
        gram, basis_gram = _gram([vec for _, vec in fam])
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

    Components orthogonal to the fixed vector of a nonperiodic cycle
    contract to zero; the fixed vector itself keeps norm one.
    """
    mat = cycle_isometry(rep, z.rows).conjugate().transpose().tocsc()
    v = np.asarray(v, dtype=complex)
    norms = [float(np.linalg.norm(v))]
    w = v
    for _ in range(m_max):
        w = mat @ w
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
