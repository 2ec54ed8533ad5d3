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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .algebra import AlgebraElement, RankMismatchError
from .params import (
    ChainParam,
    CycleParam,
    complex_pairs,
    param_factor,
    scale_cycle,
)


class TruncationOverflowError(RuntimeError):
    """A vector's support escaped the exact interior during application."""


def complete_unitary(z, residual_tol: float = 1e-8) -> np.ndarray:
    """Deterministic unitary with first column z.

    Modified Gram-Schmidt over the sequence (z, e_1, ..., e_N), skipping
    candidates whose residual norm falls below `residual_tol`.
    """
    z = np.asarray(z, dtype=complex)
    if abs(np.linalg.norm(z) - 1.0) > 1e-10:
        raise ValueError("column seed must be a unit vector")
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
        if norm >= residual_tol:
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
    gens: list                # csc matrices
    omega: np.ndarray
    interior: np.ndarray      # columns on which S_i* S_j = delta_ij is exact
    sum_interior: np.ndarray  # columns on which sum_i S_i S_i* = I is exact
    param: object
    fiber_phase: complex = 1.0
    window: tuple | None = None   # (d_minus, d_plus) for chains

    @property
    def dim(self) -> int:
        return self.omega.size

    @property
    def block(self) -> int:
        return self.n ** self.depth

    def index(self, layer, m: int) -> int:
        return self.layers.index(layer) * self.block + (m - 1)

    def label_of(self, idx: int):
        return (self.layers[idx // self.block], idx % self.block + 1)

    def gen_adjoint(self, i: int):
        return self.gens[i - 1].conjugate().transpose().tocsc()

    def effective_param(self):
        """Parameter the representation realizes (fiber phase folded in)."""
        if self.kind == "fiber":
            return scale_cycle(self.param, self.fiber_phase)
        return self.param


def _layered_rep(param, depth, layers, steps, omega_layer, kind, **fields) -> TruncatedRep:
    """Truncation of depth `depth` on `layers` from a step table.

    `steps` holds one (source layer, target layer, completing unitary,
    scale) row per step down.  Coefficients are formed entry by entry as
    `scale * conj(u_ij)`, since numpy's array complex multiply can differ
    from the scalar one in the last bit.  Chain steps pass scale None and
    keep `conj(u_ij)` as it is: a factor 1.0 would turn their -0.0
    imaginary parts into 0.0.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    n = param.n
    blk = n ** depth
    inner = n ** (depth - 1)
    dim = len(layers) * blk
    ms = np.arange(inner)
    entries = [([], [], []) for _ in range(n)]
    interior = np.zeros(dim, dtype=bool)
    sum_interior = np.zeros(dim, dtype=bool)
    for source, target, u, scale in steps:
        col_base = layers.index(source) * blk
        row_base = layers.index(target) * blk
        interior[col_base : col_base + inner] = True
        sum_interior[row_base : row_base + blk] = True
        for i in range(n):
            rows, cols, vals = entries[i]
            for j in range(n):
                coeff = np.conj(u[i, j]) if scale is None else scale * np.conj(u[i, j])
                if abs(coeff) == 0.0:
                    continue
                rows.append(row_base + n * ms + j)
                cols.append(col_base + ms)
                vals.append(np.full(inner, coeff, dtype=complex))
    gens = [
        sp.csc_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )
        for rows, cols, vals in entries
    ]
    omega = np.zeros(dim, dtype=complex)
    omega[layers.index(omega_layer) * blk] = 1.0
    return TruncatedRep(
        n=n,
        kind=kind,
        depth=depth,
        layers=layers,
        gens=gens,
        omega=omega,
        interior=interior,
        sum_interior=sum_interior,
        param=param,
        **fields,
    )


def _cycle_rep(z: CycleParam, depth: int, wrap_scale, kind: str, **fields) -> TruncatedRep:
    """Layer t steps to t - 1 through factor t - 1; layer 1 wraps onto
    layer k through the last factor, scaled by `wrap_scale`."""
    steps = [
        (t, (t - 2) % z.k + 1, complete_unitary(param_factor(z, t - 1)),
         wrap_scale if t == 1 else 1.0)
        for t in range(1, z.k + 1)
    ]
    return _layered_rep(z, depth, tuple(range(1, z.k + 1)), steps, 1, kind, **fields)


def build_cycle_rep(z: CycleParam, depth: int) -> TruncatedRep:
    """Truncation of the cycle representation; the distinguished vector
    e_(1,1) is fixed by the product isometry of the factors."""
    return _cycle_rep(z, depth, 1.0, "cycle")


def build_fiber_rep(v: CycleParam, c, depth: int) -> TruncatedRep:
    """Cycle truncation with the wrap step scaled by conj(c).

    The result realizes the parameter c*v with the same distinguished
    vector e_(1,1); with c = 1 the matrices coincide with
    build_cycle_rep(v, depth).
    """
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-10:
        raise ValueError("fiber phase must be unimodular")
    return _cycle_rep(v, depth, np.conj(c), "fiber", fiber_phase=c)


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
    layers = tuple(range(-d_minus, d_plus + 1))
    # the bottom layer has no step: stepping down would leave the window
    steps = [(t, t - 1, complete_unitary(param_factor(z, t)), None) for t in layers[1:]]
    return _layered_rep(z, depth, layers, steps, 0, "chain", window=(d_minus, d_plus))


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


def cycle_isometry(rep: TruncatedRep, factors):
    """Matrix of s(z^(1)) ... s(z^(k))."""
    out = None
    for f in factors:
        m = vector_isometry(rep, f)
        out = m if out is None else out @ m
    return out


def word_matrix(rep: TruncatedRep, word):
    out = sp.identity(rep.dim, dtype=complex, format="csc")
    for letter in word:
        out = out @ rep.gens[letter - 1]
    return out


def element_matrix(rep: TruncatedRep, a: AlgebraElement):
    """Matrix of a normal-form element (adjoint words via conjugate transpose)."""
    if a.n != rep.n:
        raise RankMismatchError(f"rank mismatch: {a.n} vs {rep.n}")
    out = sp.csc_array((rep.dim, rep.dim), dtype=complex)
    for (j, k), c in a.terms.items():
        m = word_matrix(rep, j) @ word_matrix(rep, k).conjugate().transpose()
        out = out + c * m.tocsc()
    return out


_SUPPORT_TOL = 1e-12


def _apply_generator(rep: TruncatedRep, letter: int, vec: np.ndarray, adjoint: bool):
    if adjoint:
        # adjoints annihilate every layer that no step targets: the top
        # window layer of a chain, none of a cycle
        if np.any(np.abs(vec[~rep.sum_interior]) > _SUPPORT_TOL):
            raise TruncationOverflowError(
                "support reached the top window layer; enlarge d_plus"
            )
        return rep.gen_adjoint(letter) @ vec
    if np.any(np.abs(vec[~rep.interior]) > _SUPPORT_TOL):
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

def cycle_anchor_vectors(rep: TruncatedRep) -> list:
    """The k vectors pi(s(z^(i)) ... s(z^(k))) Omega, i = 1..k."""
    if rep.kind not in ("cycle", "fiber"):
        raise ValueError("anchor vectors of this form require a cycle truncation")
    factors = rep.effective_param().factors
    k = len(factors)
    out = [None] * k
    vec = rep.omega
    for i in range(k, 0, -1):
        vec = vector_isometry(rep, factors[i - 1]) @ vec
        out[i - 1] = vec
    return out


def chain_vector(rep: TruncatedRep, t: int) -> np.ndarray:
    """E_t: Omega pushed |t| steps backward (t > 0) or forward along e_1."""
    if rep.kind != "chain":
        raise ValueError("chain vectors require a chain truncation")
    d_minus, d_plus = rep.window
    if not -d_minus <= t <= d_plus:
        raise TruncationOverflowError(
            f"layer {t} outside the window [-{d_minus}, {d_plus}]"
        )
    vec = rep.omega
    if t >= 0:
        for m in range(1, t + 1):
            iso = vector_isometry(rep, param_factor(rep.param, m))
            vec = iso.conjugate().transpose() @ vec
    else:
        for m in range(0, t, -1):
            vec = _apply_generator(rep, 1, vec, adjoint=False)
    return np.asarray(vec).ravel()


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

    def to_jsonable(self):
        return {
            "depth": self.depth,
            "anchor": self.anchor,
            "branch": self.branch,
            "prefix": list(self.prefix),
        }


def enumerate_basis(rep: TruncatedRep, max_depth: int, anchors=None):
    """Orthonormal family labels and vectors up to the given depth.

    Cycle truncations enumerate the full graded family (k N^d vectors at
    depth d); chain truncations enumerate over the given anchor layers
    (N^(d-1) vectors per anchor at depth d >= 1).
    """
    if max_depth < 0:
        raise ValueError("depth must be nonnegative")
    if rep.kind in ("cycle", "fiber"):
        return _enumerate_cycle(rep, max_depth)
    return _enumerate_chain(rep, max_depth, anchors)


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


def _enumerate_cycle(rep: TruncatedRep, max_depth: int):
    factors = rep.effective_param().factors
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


def _enumerate_chain(rep: TruncatedRep, max_depth: int, anchors):
    d_minus, d_plus = rep.window
    if anchors is None:
        lo = max(-d_minus + 1, -1)
        hi = min(1, d_plus - max(max_depth, 1) + 1)
        anchors = range(lo, hi + 1)
    anchors = list(anchors)
    for t in anchors:
        if t < -d_minus + 1 or t + max(max_depth, 1) - 1 > d_plus:
            raise ValueError(
                f"anchor {t} with depth {max_depth} leaves the window "
                f"[-{d_minus}, {d_plus}]"
            )
    if max_depth > rep.depth:
        raise ValueError("depth of the enumeration exceeds the truncation depth")
    e_cache = {t: chain_vector(rep, t) for t in range(min(anchors), max(anchors) + max_depth)}
    out = []
    for t in anchors:
        out.append((BasisLabel(1, t), e_cache[t]))
        # depth d branches off E_(t+d-1) and carries d - 2 letters on top
        for depth in range(2, max_depth + 1):
            top = t + depth - 1
            words = _branch_words(rep, param_factor(rep.param, top), e_cache[top], depth - 2)
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


def _gram_residual(vectors) -> float:
    mat = np.stack(vectors, axis=1)
    gram = mat.conj().T @ mat
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def verify_gp(rep: TruncatedRep, param=None,
              basis_depth: int | None = None) -> VerificationReport:
    """Check the defining relations and the parameter contract.

    Reports the largest residual of: generator isometry and range
    completeness on the interior, the fixed-vector equation (cycles) or
    the backward family and step relations (chains), orthonormality of
    the anchored family, and a spanning check of the enumerated basis
    against the matching graded interior.
    """
    if param is None:
        param = rep.effective_param()
    ident = sp.identity(rep.dim, dtype=complex, format="csc")
    iso = 0.0
    for i in range(1, rep.n + 1):
        si_h = rep.gen_adjoint(i)
        for j in range(1, rep.n + 1):
            res = si_h @ rep.gens[j - 1]
            if i == j:
                res = res - ident
            iso = max(iso, _max_abs(res[:, rep.interior]))
    total = None
    for i in range(1, rep.n + 1):
        piece = rep.gens[i - 1] @ rep.gen_adjoint(i)
        total = piece if total is None else total + piece
    comp = _max_abs((total - ident)[:, rep.sum_interior])

    eigen = None
    step = None
    cyclic = rep.kind in ("cycle", "fiber")
    if cyclic:
        iso_mat = cycle_isometry(rep, param.factors)
        eigen = float(np.linalg.norm(iso_mat @ rep.omega - rep.omega))
        family = _gram_residual(cycle_anchor_vectors(rep))
    else:
        d_minus, d_plus = rep.window
        ts = range(-(d_minus - 1), d_plus + 1)
        vectors = {t: chain_vector(rep, t) for t in ts}
        family = _gram_residual([vectors[t] for t in ts])
        step = 0.0
        for t in range(-(d_minus - 2), d_plus + 1):
            iso_mat = vector_isometry(rep, param_factor(rep.param, t))
            step = max(
                step, float(np.linalg.norm(iso_mat @ vectors[t] - vectors[t - 1]))
            )

    basis_gram = basis_count = expected = min_sing = None
    k = len(param.factors) if cyclic else 0
    d = basis_depth if basis_depth is not None else min(2, rep.depth - k)
    if d >= 1:
        fam = enumerate_basis(rep, d)
        vectors = [vec for _, vec in fam]
        basis_gram = _gram_residual(vectors)
        basis_count = len(fam)
        # a cycle family holds k N^d vectors at depth d, a chain family
        # N^(d-1) per anchor layer
        if cyclic:
            expected = k * rep.n ** d
        else:
            expected = len({label.anchor for label, _ in fam}) * rep.n ** (d - 1)
        sing = np.linalg.svd(np.stack(vectors, axis=1), compute_uv=False)
        min_sing = float(sing[-1])

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
    mat = cycle_isometry(rep, z.factors).conjugate().transpose().tocsc()
    v = np.asarray(v, dtype=complex)
    norms = [float(np.linalg.norm(v))]
    w = v
    for _ in range(m_max):
        w = mat @ w
        norms.append(float(np.linalg.norm(w)))
    return np.asarray(norms)


# ----------------------------------------------------------------------
# export

def _sorted_coo(mat) -> dict:
    """JSON form of a generator: rows, cols and [re, im] values, ordered by
    column and then row."""
    coo = mat.tocoo()
    order = np.lexsort((coo.row, coo.col))
    return {
        "rows": coo.row[order].tolist(),
        "cols": coo.col[order].tolist(),
        "values": complex_pairs(coo.data[order]),
    }


def export_coo(rep: TruncatedRep) -> str:
    """Coordinate-list text: `row col re im` per line, grouped by generator,
    with the basis labels and the distinguished vector appended."""
    lines = []
    for gi, mat in enumerate(rep.gens, start=1):
        lines.append(f"# S{gi}")
        coo = _sorted_coo(mat)
        entries = zip(coo["rows"], coo["cols"], coo["values"])
        lines += [f"{r} {c} {re!r} {im!r}" for r, c, (re, im) in entries]
    lines.append("# labels: index layer m")
    for idx in range(rep.dim):
        layer, m = rep.label_of(idx)
        lines.append(f"{idx} {layer} {m}")
    lines.append("# omega: index re im")
    support = np.flatnonzero(rep.omega)
    values = complex_pairs(rep.omega[support])
    lines += [f"{idx} {re!r} {im!r}" for idx, (re, im) in zip(support.tolist(), values)]
    return "\n".join(lines) + "\n"


def export_json(rep: TruncatedRep) -> dict:
    return {
        "rank": rep.n,
        "kind": rep.kind,
        "depth": rep.depth,
        "dim": rep.dim,
        "layers": [int(t) for t in rep.layers],
        "generators": [_sorted_coo(mat) for mat in rep.gens],
        "omega": complex_pairs(rep.omega),
        "labels": [list(rep.label_of(i)) for i in range(rep.dim)],
        "interior": rep.interior.tolist(),
    }
