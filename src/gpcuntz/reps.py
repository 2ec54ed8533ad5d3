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
step source (`interior`) and sum_i S_i S_i* = I on every step target; all
contracts are stated there.  Support that would leave these columns, or a
chain layer outside the window, raises TruncationOverflowError, a ValueError
and a RuntimeError.  The distinguished vector sits at (1, 1) for cycles and
(0, 1) for chains.

A truncation carries, from construction, the read-only factor rows it
realizes (`factor_rows`): the k rows of the cycle, or of c*v for a fiber
twisted by c, and the chain factors 1..D+ from one `chain_factors` call.
Every anchor, basis vector and residual is formed from these rows;
nothing goes back to the parameter.  No operator s(v) = sum_i v_i S_i is
ever assembled: one routine applies s(v) or s(v)* to a vector from the N
generators, and every product of factors is applied one factor at a time.
`numeric_cycle_eigencheck`, the spectrum of pi(s(v)) on the power orbit,
is the one decision check that needs a truncation, so it lives here.
`verify_gp(rep)` takes no options: its eigen residual is |anchor_1 - Omega|,
where anchor_1 is the same pi(s(z^(1)) ... s(z^(k))) Omega its family and
basis checks use, and its basis depth is min(2, D - k).

A truncation stores its step table (`step_sources`, `step_targets`,
`step_coeffs`), read-only, and everything else is derived from it: the
dimension, Omega and `interior` when read, and the generators' entries for
each export.  Inside this module a vector is held as its layer block
prefixes, {layer position: the entries of the block up to its extent, one
past its last nonzero entry}, with the blocks of zeros left out: the
vectors reached from Omega fill block prefixes, since S_i maps m to
N(m-1) + j, so an application costs about their support, not the
dimension.  A generator moves each held block through the step leaving
its layer: S_i x writes c_ij x_(source, m) into row N(m-1) + j of the step
target, and S_i^T x sums those rows back into the step source; each
result is cut to its extent again.  s(v) and s(v)* run the N generators
on a block at once and add v_i times each block in the order of Python's
`sum` over whole applications; the support guard of `apply_element` reads
the same prefixes.  The dense entry points (`cycle_anchor_vectors`,
`chain_vector`, `enumerate_basis`, `apply_element`, `power_vanish`) cut a
vector's layer blocks through `_trimmed`, as every result is cut, and
write results out over zeros: +0.0, or the (0.0, -0.0) an adjoint's
conjugate leaves, as a sweep over the whole vector writes them.  Each
target is reached by one step, so the relation residuals of `verify_gp`
come from the N x N coefficient blocks alone, summed by `_backward` in
O(steps N^3).  Products are written out in float64 as (ar br - ai bi,
ar bi + ai br), since numpy's array complex multiply can round otherwise,
and summed in scipy's order, so every residual, and every vector from a
finite one, carries the bits of the sparse products it replaced.

`gens`, the generators as scipy csc_arrays built on first use from the
entries the exports write (the rows and columns of `_generator_entries`,
and each step's coefficients tiled over its source's columns with the exact
zeros dropped), is the only scipy view of a truncation and the only code
here that loads scipy.  Nothing in this module, the package or
its command line reads it; it stays for the benchmark and the tests,
which check a truncation against scipy's sparse products, and it needs
scipy, which only the package's `test` extra installs.

`verify_gp` holds every vector it forms as prefixes: the anchors, the
chain family E_t, pushed from Omega through the window once and reused by
the step and basis checks, and the branch words.  Its Gram checks stack
only the union of their vectors' prefixes, and its eigen and step
residuals write both vectors of a difference through `_dense` into one
window of the dense layout aligned to 64 entries, which keeps the bits of
numpy's norm of the whole difference; nothing it allocates or scans has
the truncation's dimension.  The builders refuse, before allocating, more
than REP_BUDGET basis vectors at rank 2 (2 REP_BUDGET / N at rank N), and
`verify_gp` refuses, before it enumerates, a basis check whose stack of
count x rows entries would exceed 8 REP_BUDGET, with the rows bounded
from the prefixes of the vectors the family branches from.

The exports write from the step table and cost about the bytes they
emit.  `export_coo` fills one preallocated byte buffer and decodes it
once, making no Python object per line or per index: each step's columns
split into runs on which every row and column keeps its digit count, and
a run is a (count, line width) view of the buffer that takes its spaces,
newlines and the `repr` texts of the step's nonzero coefficients by one
broadcast and each index field by one strided copy from a table of the
ASCII digits of 0..dim, made once per call; the labels are written the
same way, and the output is byte-stable with every -0.0 kept.
`export_json` builds its whole dict with the cyclic
garbage collector paused once and one object per distinct value: every
row, column and label m is an int of one table 0..dim, written into the
generators' lists by extended slices, the `[re, im]` lists of each step's
nonzero coefficients are made once and repeated over the step's columns,
and every entry of Omega outside its held support is one shared
`[0.0, 0.0]`.  The dict is for serialising and must be treated as
read-only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._policy import (DEFAULT_TOL, PIVOT_TOL, PRUNE_TOL, RankMismatchError, _check_integer,
                      _check_near, _collector_paused, _unimodular)
from .params import (
    ChainParam,
    CycleParam,
    basis_vector,
    chain_factors,
    primitive_root,
    scale_cycle,
)

if TYPE_CHECKING:  # named in annotations only, so a truncation loads no word layer
    from .algebra import AlgebraElement


# most basis vectors, len(layers) * N^D, one truncation of rank 2 may have;
# every generator holds about one entry per basis vector, so rank N is
# allowed 2 / N of it
REP_BUDGET = 1 << 20
# most entries, count x rows, the basis stack of verify_gp may hold per
# REP_BUDGET basis vectors (128 MiB of complex entries at the default); its
# rows are the union of the family's layer block prefixes
_BASIS_STACK_SHARE = 8
# the layer of the distinguished vector e_(layer, 1) of each kind
_OMEGA_LAYER = {"cycle": 1, "fiber": 1, "chain": 0}


class TruncationOverflowError(ValueError, RuntimeError):
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
    param: object
    factor_rows: np.ndarray   # read-only rows of the factors realized (see module doc)
    window: tuple | None = None   # (d_minus, d_plus) for chains

    @property
    def dim(self) -> int:
        return len(self.layers) * self.block

    @property
    def omega(self) -> np.ndarray:
        """The distinguished vector, dense."""
        return _dense(self, _omega(self))

    @property
    def interior(self) -> np.ndarray:
        """Mask of the columns on which S_i* S_j = delta_ij is exact: the
        first N^(D-1) of every step source."""
        out = np.zeros((len(self.layers), self.block), dtype=bool)
        out[self.step_sources, :self.block // self.n] = True
        return out.ravel()

    @cached_property
    def gens(self) -> list:
        """S_1..S_N as scipy csc_arrays built from `_generator_entries`; the
        first use loads scipy.sparse, which needs the `test` extra."""
        import scipy.sparse as sp

        shape = (self.dim, self.dim)
        columns = np.arange(self.dim + 1)
        # each step's coefficients tiled over its source's columns: the
        # entries' values once the exact zeros are dropped
        tile = self.block // self.n
        tiled = (np.tile(c, tile).ravel() for c in self.step_coeffs.transpose(1, 0, 2))
        return [sp.csc_array((v[v != 0], rows, np.searchsorted(cols, columns)), shape=shape)
                for (rows, cols), v in zip(_generator_entries(self), tiled)]

    @property
    def block(self) -> int:
        return self.n ** self.depth

    @cached_property
    def _moves(self) -> tuple:
        """Per layer position, (coefficients, target) of the step leaving
        it, then per layer position (coefficients, source) of the step
        entering it; None where there is no such step."""
        down, up = [None] * len(self.layers), [None] * len(self.layers)
        for c, source, target in zip(self.step_coeffs, self.step_sources.tolist(),
                                     self.step_targets.tolist()):
            down[source] = (c, target)
            up[target] = (c, source)
        return down, up

    def index(self, layer: int, m: int) -> int:
        """Basis index of e_(layer, m), m = 1..N^D."""
        layer, m = operator.index(layer), operator.index(m)
        if not 1 <= m <= self.block:
            raise ValueError(f"m = {m} is outside 1..{self.block}")
        if layer not in self.layers:
            raise ValueError(f"layer {layer!r} is not one of the truncation's layers "
                             f"{self.layers}")
        return self.layers.index(layer) * self.block + (m - 1)

    def label_of(self, idx: int):
        """(layer, m) of basis index idx = 0..dim - 1."""
        idx = operator.index(idx)
        if not 0 <= idx < self.dim:
            raise ValueError(f"index {idx} is outside 0..{self.dim - 1}")
        return (self.layers[idx // self.block], idx % self.block + 1)


def _check_size(n: int, depth: int, layer_count: int) -> None:
    """Refuse, before anything is allocated, a depth below 2 or a rank-n
    truncation of more than 2 REP_BUDGET / n basis vectors."""
    _check_integer(depth, "depth")
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


def _layered_rep(param, depth, layers, steps, kind, **fields) -> TruncatedRep:
    """Truncation of depth `depth` on `layers` from a step table.

    `steps` holds one (source layer, target layer, completing unitary,
    scale) row per step down.  No two rows share a source or a target, so
    each column of a generator is written by at most one step and each row
    by at most one, and the sources ascend, so the steps' columns come in
    basis order.  Coefficients are formed entry by entry as
    `scale * conj(u_ij)`, since numpy's array complex multiply can differ
    from the scalar one in the last bit.  Chain steps pass scale None and
    keep `conj(u_ij)` as it is: a factor 1.0 would turn their -0.0
    imaginary parts into 0.0.
    """
    n = param.n
    sources = _read_only(np.array([layers.index(row[0]) for row in steps], dtype=np.intp))
    targets = _read_only(np.array([layers.index(row[1]) for row in steps], dtype=np.intp))
    assert np.all(np.diff(sources) > 0) and len(set(targets.tolist())) == len(steps), \
        "every step needs its own target layer, and the sources must ascend"
    coeffs = _read_only(np.array(
        [[[np.conj(u[i, j]) if scale is None else scale * np.conj(u[i, j]) for j in range(n)]
          for i in range(n)] for _, _, u, scale in steps],
        dtype=complex,
    ).reshape(len(steps), n, n))
    return TruncatedRep(
        n=n,
        kind=kind,
        depth=depth,
        layers=layers,
        step_sources=sources,
        step_targets=targets,
        step_coeffs=coeffs,
        param=param,
        **fields,
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _cycle_rep(z: CycleParam, depth: int, wrap_scale, kind: str, factor_rows) -> TruncatedRep:
    """Layer t steps to t - 1 through factor t - 1 of `z`; layer 1 wraps
    onto layer k through the last factor, scaled by `wrap_scale`."""
    _check_size(z.n, depth, z.k)
    steps = [
        (t, (t - 2) % z.k + 1, complete_unitary(z.rows[t - 2]), wrap_scale if t == 1 else 1.0)
        for t in range(1, z.k + 1)
    ]
    return _layered_rep(z, depth, tuple(range(1, z.k + 1)), steps, kind,
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
    for extent in (d_minus, d_plus):
        if extent is not None:
            _check_integer(extent, "window extent")
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
    return _layered_rep(z, depth, layers, steps, "chain", factor_rows=rows,
                        window=(d_minus, d_plus))


def _chain_factor(rows: np.ndarray, m: int) -> np.ndarray:
    """Factor m of a chain truncation's `factor_rows`: row m - 1, and e_1
    for every m < 1, the factor its steps take below layer 1."""
    return rows[m - 1] if m >= 1 else basis_vector(rows.shape[1], 1)


# ----------------------------------------------------------------------
# operators applied to vectors, held as {layer position: block prefix}

def _prefixes(rep: TruncatedRep, x: np.ndarray) -> dict:
    """The dense vector x held as its nonzero layer block prefixes, as
    views of x."""
    x = np.ascontiguousarray(x, dtype=complex)
    return _trimmed(dict(enumerate(x.reshape(len(rep.layers), rep.block))))


def _dense(rep: TruncatedRep, held: dict, adjoint: bool = False, lo: int = 0,
           hi: int | None = None) -> np.ndarray:
    """Entries lo..hi - 1 of the dense vector of `held`, every held block
    lying inside them, its zeros those of a sweep over the whole vector:
    +0.0, or (0.0, -0.0) after an adjoint's conjugation."""
    out = np.zeros((rep.dim if hi is None else hi) - lo, dtype=complex)
    if adjoint:
        out.imag = -0.0
    for layer, x in held.items():
        start = layer * rep.block - lo
        out[start:start + x.size] = x
    return out


def _trimmed(blocks: dict) -> dict:
    """Each block cut to its extent, one past its last nonzero float64 part
    (NaN counts, -0.0 does not), the blocks of zeros dropped."""
    out = {}
    for layer, x in blocks.items():
        flags = x.view(np.float64) != 0
        last = flags.size - 1 - int(flags[::-1].argmax())
        if flags[last]:
            out[layer] = x[:last // 2 + 1]
    return out


def _padded(x: np.ndarray, size: int) -> np.ndarray:
    if x.size == size:
        return x
    out = np.zeros(size, dtype=complex)
    out[:x.size] = x
    return out


def _step_blocks(rep: TruncatedRep, held: dict, transpose: bool):
    """(coefficients, input, destination layer) of every held block a step
    moves: going forward, the first N^(D-1) entries of a step source's
    prefix, bound for its target; transposed, a step target's prefix
    padded with zeros to whole rows of N and shaped (rows, N), bound for
    its source.  A block no step moves is annihilated."""
    moves = rep._moves[transpose]
    n = rep.n
    for layer, x in held.items():
        if moves[layer] is None:
            continue
        coeffs, dest = moves[layer]
        if transpose:
            yield coeffs, _padded(x, -(-x.size // n) * n).reshape(-1, n), dest
        else:
            yield coeffs, x[:rep.block // n], dest


def _forward(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_j y_m + 0.0 at [..., m, j], for coefficients c of shape (..., N):
    column m of a step source fills rows N m + j of its target.  Each
    complex product is written out as (ar br - ai bi, ar bi + ai br) in
    float64; scipy adds each product to a zero, which turns -0.0 into 0.0."""
    cr, ci = c.real[..., None, :], c.imag[..., None, :]
    yr, yi = y.real[:, None], y.imag[:, None]
    out = np.empty(c.shape[:-1] + (y.size, c.shape[-1]), dtype=complex)
    np.add(cr * yr - ci * yi, 0.0, out=out.real)
    np.add(cr * yi + ci * yr, 0.0, out=out.imag)
    return out


def _backward(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j c_j y[..., m, j] at [..., m], for coefficients c of shape
    (..., N) and rows y broadcast against them: the rows of a step target
    summed back into the columns of its source, from zero in ascending j,
    each product written out as `_forward` writes it.  `_relation_residuals`
    runs it on a stack of coefficient blocks against their conjugates."""
    cr, ci = c.real[..., None, :], c.imag[..., None, :]
    re, im = cr * y.real - ci * y.imag, cr * y.imag + ci * y.real
    out = np.zeros(re.shape[:-1], dtype=complex)
    for j in range(y.shape[-1]):
        out.real += re[..., j]
        out.imag += im[..., j]
    return out


def _gen_held(rep: TruncatedRep, i: int, held: dict, transpose: bool = False) -> dict:
    """S_(i+1) or S_(i+1)^T of a held vector."""
    kernel = _backward if transpose else _forward
    return _trimmed({dest: kernel(c[i], y).ravel()
                     for c, y, dest in _step_blocks(rep, held, transpose)})


def _iso_held(rep: TruncatedRep, v, held: dict, adjoint: bool = False) -> dict:
    """s(v) x = sum_i v_i S_i x, or s(v)* x = conj(sum_i v_i S_i^T conj(x)),
    of a held vector: the N generators run on each block at once, and
    numpy's v_i * block is added to +0.0 in ascending i, in place, as
    Python's `sum` of whole generator applications adds them to 0."""
    out = {}
    for c, y, dest in _step_blocks(rep, held, adjoint):
        if adjoint:
            terms = _backward(c, np.conj(y))
        else:
            terms = _forward(c, y).reshape(rep.n, -1)
        block = np.zeros(terms.shape[1], dtype=complex)
        for vi, term in zip(v, terms):
            # not into `term`: numpy's complex multiply in place can round
            # otherwise
            block += vi * term
        out[dest] = np.conj(block, out=block) if adjoint else block
    return _trimmed(out)


def _apply_isometry(rep: TruncatedRep, v, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """s(v) x or s(v)* x of a dense vector or a stack of column vectors;
    outside the support s(v) x is 0j and s(v)* x its conjugate, (0.0, -0.0)."""
    if x.ndim == 2:
        return np.stack([_apply_isometry(rep, v, col, adjoint) for col in x.T], axis=1)
    return _dense(rep, _iso_held(rep, v, _prefixes(rep, x), adjoint), adjoint)


def _conj(held: dict) -> dict:
    return {layer: np.conj(x) for layer, x in held.items()}


def _letter_held(rep: TruncatedRep, letter: int, held: dict, adjoint: bool) -> dict:
    """s_letter or s_letter* of a held vector, refusing support that would
    cross the truncation boundary."""
    # the exact part of each layer block is a prefix: the whole of every
    # step target for adjoints, which annihilate every layer no step
    # targets (the top window layer of a chain, none of a cycle), and the
    # first N^(D-1) columns of every step source going forward; only the
    # entries between it and the prefix's end can be nonzero outside it
    moves = rep._moves[adjoint]
    size = rep.block if adjoint else rep.block // rep.n
    for layer, x in held.items():
        exact = 0 if moves[layer] is None else size
        if x.size > exact and not np.all(np.abs(x[exact:]) <= PRUNE_TOL):
            raise TruncationOverflowError(
                "support reached the top window layer; enlarge d_plus" if adjoint
                else "support escaped the exact interior; enlarge the depth"
            )
    if adjoint:
        return _conj(_gen_held(rep, letter - 1, _conj(held), True))
    return _gen_held(rep, letter - 1, held)


def _union_rows(lengths) -> dict:
    """{layer: longest prefix} over dicts of prefix lengths by layer."""
    out = {}
    for sizes in lengths:
        for layer, size in sizes.items():
            out[layer] = max(out.get(layer, 0), size)
    return out


# the norm's window is aligned to this many entries of the dense layout
_NORM_ALIGN = 64


def _norm(rep: TruncatedRep, held: dict, minus: dict | None = None) -> float:
    """np.linalg.norm of the dense vector of `held`, less that of `minus`.

    Both are written by `_dense` into one window of the dense layout that
    holds the union of their prefixes and starts and ends on multiples of
    _NORM_ALIGN entries (or at the end of the vector), so the strided BLAS
    dot numpy takes of its real and imaginary parts meets every product at
    the same place in its unrolled groups as in a one-thread sum of the
    whole vector, and the zeros outside the window add nothing.  A BLAS
    that splits a long vector among threads sums it in chunks, whose
    rounding this need not follow.
    """
    ends = _union_rows({layer: x.size for layer, x in vec.items()} for vec in (held, minus or {}))
    if not ends:
        return 0.0
    first, last = min(ends), max(ends)
    lo = first * rep.block // _NORM_ALIGN * _NORM_ALIGN
    hi = min(-(-(last * rep.block + ends[last]) // _NORM_ALIGN) * _NORM_ALIGN, rep.dim)
    window = _dense(rep, held, lo=lo, hi=hi)
    if minus:
        window -= _dense(rep, minus, lo=lo, hi=hi)
    return float(np.linalg.norm(window))


def _as_vector(rep: TruncatedRep, vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (rep.dim,):
        raise ValueError(f"vector of shape {vec.shape} does not fit a truncation "
                         f"of dimension {rep.dim}")
    return vec


def apply_element(rep: TruncatedRep, a: AlgebraElement, vec: np.ndarray) -> np.ndarray:
    """Apply a normal-form element to a vector, guarding the truncation.

    Raises TruncationOverflowError if any single-letter step would move
    support across the truncation boundary, where content is silently
    annihilated by the cut columns.
    """
    if a.n != rep.n:
        raise RankMismatchError(f"rank mismatch: {a.n} vs {rep.n}")
    start = _prefixes(rep, _as_vector(rep, vec))
    out = np.zeros(rep.dim, dtype=complex)
    blocks = out.reshape(len(rep.layers), rep.block)
    for (j, k), c in a.terms.items():
        w = start
        for letter in k:                 # rightmost adjoint acts first
            w = _letter_held(rep, letter, w, adjoint=True)
        for letter in reversed(j):
            w = _letter_held(rep, letter, w, adjoint=False)
        # c times the zeros past each prefix would add nothing to `out`
        for layer, x in w.items():
            blocks[layer, :x.size] += c * x
    return out


def vacuum_expectation(rep: TruncatedRep, a: AlgebraElement) -> complex:
    """<Omega | pi(a) Omega> in the truncation: Omega's entry of pi(a) Omega,
    which `apply_element` adds up from +0.0, as np.vdot against Omega would."""
    x = apply_element(rep, a, rep.omega)
    return complex(x[rep.index(_OMEGA_LAYER[rep.kind], 1)])


# ----------------------------------------------------------------------
# distinguished families and basis enumeration

def _omega(rep: TruncatedRep) -> dict:
    """Omega, held: the first entry of its layer block."""
    return {rep.layers.index(_OMEGA_LAYER[rep.kind]): np.ones(1, dtype=complex)}


def _anchors(rep: TruncatedRep) -> list:
    """The held pi(s(z^(i)) ... s(z^(k))) Omega, i = 1..k."""
    out = []
    vec = _omega(rep)
    for f in rep.factor_rows[::-1]:
        vec = _iso_held(rep, f, vec)
        out.append(vec)
    return out[::-1]


def cycle_anchor_vectors(rep: TruncatedRep) -> list:
    """The k vectors pi(s(z^(i)) ... s(z^(k))) Omega, i = 1..k."""
    if rep.kind not in ("cycle", "fiber"):
        raise ValueError("anchor vectors of this form require a cycle truncation")
    return [_dense(rep, vec) for vec in _anchors(rep)]


def numeric_cycle_eigencheck(v: CycleParam, p: int) -> np.ndarray:
    """Eigenvalues of the cycle isometry on the span of its power orbit.

    In the representation of the p-th tensor power of a nonperiodic v,
    the vectors pi(s(v))^j Omega (j = 1..p) span a p-dimensional space on
    which pi(s(v)) acts as a cyclic shift; the returned eigenvalues are
    the p-th roots of unity, sorted by phase angle.  The orbit is read off
    the anchors of the tiled cycle's truncation at depth k(p + 1), the
    least that holds it: pi(s(v))^j Omega is anchor (p - j) k + 1.
    """
    _check_integer(p, "power")
    if p < 1:
        raise ValueError("power must be >= 1")
    if primitive_root(v, DEFAULT_TOL)[1] != 1:
        raise ValueError("the base cycle must be nonperiodic")
    k = v.k
    rep = build_cycle_rep(CycleParam(np.tile(v.rows, (p, 1))), k * (p + 1))
    orbit = cycle_anchor_vectors(rep)[(p - 1) * k::-k]
    q_mat, _ = np.linalg.qr(np.stack(orbit, axis=1))
    image = q_mat
    # pi(s(v)) = s(v^(1)) ... s(v^(k)), one factor at a time
    for f in v.rows[::-1]:
        image = _apply_isometry(rep, f, image)
    eigenvalues = np.linalg.eigvals(q_mat.conj().T @ image)
    # sort by phase angle, keeping values just below the positive axis at 0
    # instead of letting rounding noise wrap them to 2 pi
    angles = np.angle(eigenvalues)
    angles = np.where(angles < -math.pi / (2 * p), angles + 2 * math.pi, angles)
    return eigenvalues[np.argsort(angles)]


def _chain_walk(rep: TruncatedRep, lo: int, hi: int):
    """(t, held E_t) for lo <= t <= hi, and for every t between them and 0.

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
    omega = _omega(rep)
    yield 0, omega
    vec = omega
    for m in range(1, hi + 1):
        vec = _iso_held(rep, rep.factor_rows[m - 1], vec, adjoint=True)
        yield m, vec
    vec = omega
    for t in range(-1, lo - 1, -1):
        vec = _letter_held(rep, 1, vec, adjoint=False)
        yield t, vec


def chain_vector(rep: TruncatedRep, t: int) -> np.ndarray:
    """E_t: Omega pushed |t| steps backward (t > 0) or forward along e_1."""
    return _dense(rep, dict(_chain_walk(rep, t, t))[t], adjoint=t > 0)


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
    chain = rep.kind == "chain"
    # a chain's anchored vectors are E_t, adjoints' for t > 0
    return [(label, _dense(rep, vec, adjoint=chain and not label.branch and label.anchor > 0))
            for label, vec in _enumerate(rep, _basis_plan(rep, max_depth))]


def _basis_plan(rep: TruncatedRep, max_depth: int, family=None) -> list:
    """The family of `enumerate_basis` to `max_depth`, in its order, as
    (depth, anchor, factor, vector, letters): an anchored vector where
    factor is None, and otherwise a branch, pi(s_word s(u e_j)) vector for
    every completion column j = 2..N of the factor and every word of
    `letters` letters.  `family` holds the held anchors of a cycle, or
    {t: E_t} of a chain reaching the layers the branches start from."""
    if rep.kind in ("cycle", "fiber"):
        factors = rep.factor_rows
        k = len(factors)
        if rep.depth < max_depth + k:
            raise ValueError(
                f"insufficient depth: need >= {max_depth + k}, have {rep.depth}"
            )
        anchors = _anchors(rep) if family is None else family
        # depth d branches off the next anchor and carries d - 1 letters
        return ([(0, i + 1, None, anchors[i], 0) for i in range(k)]
                + [(depth, a, factors[a - 1], anchors[a % k], depth - 1)
                   for a in range(1, k + 1) for depth in range(1, max_depth + 1)])
    anchors = _chain_anchors(rep, max_depth)
    if family is None:
        family = dict(_chain_walk(rep, min(anchors), max(anchors) + max(max_depth, 1) - 1))
    plan = []
    for t in anchors:
        plan.append((1, t, None, family[t], 0))
        # depth d branches off E_(t+d-1) and carries d - 2 letters on top
        plan += [(depth, t, _chain_factor(rep.factor_rows, t + depth - 1),
                  family[t + depth - 1], depth - 2) for depth in range(2, max_depth + 1)]
    return plan


def _enumerate(rep: TruncatedRep, plan: list) -> list:
    """(label, held vector) of every vector of a basis plan, in order."""
    out = []
    for depth, anchor, factor, vec, letters in plan:
        if factor is None:
            out.append((BasisLabel(depth, anchor), vec))
        else:
            out += [(BasisLabel(depth, anchor, j, word), v)
                    for j, word, v in _branch_words(rep, factor, vec, letters)]
    return out


def _branch_words(rep: TruncatedRep, factor, vec, letters: int):
    """(j, word, pi(s_word s(u e_j)) vec) for every completion column
    j = 2..N of `factor` and every word of `letters` letters, held.

    Each level puts one more leading letter on the words of the previous
    level, so the words come in itertools.product order and every vector
    is one generator applied to a vector of the previous level.
    """
    u = complete_unitary(factor)
    out = []
    for j in range(2, rep.n + 1):
        level = [((), _iso_held(rep, u[:, j - 1], vec))]
        for _ in range(letters):
            level = [((a,) + word, _gen_held(rep, a - 1, v))
                     for a in range(1, rep.n + 1) for word, v in level]
        out += [(j, word, v) for word, v in level]
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


# ----------------------------------------------------------------------
# verification

def _relation_residuals(rep: TruncatedRep) -> tuple:
    """The largest |S_i* S_j - delta_ij| on the interior columns and the
    largest |sum_i S_i S_i* - I| on the step targets, from the step table.

    A step's target rows are reached from its source alone, so with C its
    coefficients, S_i* S_j on each of the step's interior columns is
    sum_l conj(C_il) C_jl, and sum_i S_i S_i* on its target block is that
    sum over the transposed block repeated down the diagonal.  `_backward`
    of the blocks against their conjugates gives both transposed, which
    leaves max |X - I| as it is.  O(steps N^3).
    """
    eye = np.eye(rep.n)
    return tuple(float(np.max(np.abs(_backward(c, np.conj(c)[:, None]) - eye), initial=0.0))
                 for c in (rep.step_coeffs, rep.step_coeffs.transpose(0, 2, 1)))


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
        """The largest residual, NaN if any residual is NaN."""
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
        return float(np.max(vals))

    def passed(self, tol: float) -> bool:
        if self.basis_count is not None and self.basis_count != self.basis_count_expected:
            return False
        return self.max_residual() < tol

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items()}


def _compact_gram(vectors: list):
    """Gram matrix of held vectors and its largest deviation from I.

    The vectors are stacked on the union of their layer block prefixes
    only, in basis order: the rows that are zero in every vector add
    nothing to a Gram entry.
    """
    ends = _union_rows({layer: x.size for layer, x in vec.items()} for vec in vectors)
    offsets, rows = {}, 0
    for layer in sorted(ends):
        offsets[layer] = rows
        rows += ends[layer]
    mat = np.zeros((rows, len(vectors)), dtype=complex)
    for col, vec in enumerate(vectors):
        for layer, x in vec.items():
            mat[offsets[layer]:offsets[layer] + x.size, col] = x
    gram = mat.conj().T @ mat
    return gram, float(np.max(np.abs(gram - np.eye(len(vectors)))))


def _basis_rows(rep: TruncatedRep, plan: list) -> int:
    """Rows of the stack of a basis plan's vectors, bounded before any is
    formed: a forward step puts at most N entries of its target per entry
    in the first N^(D-1) of its source, so a vector `letters` + 1 forward
    steps from a held vector has at most N^(letters + 1) times its
    prefixes, capped at N^(D-1) per step, on the layers those steps reach."""
    moves = rep._moves[False]
    inner = rep.block // rep.n
    lengths = []
    for _, _, factor, vec, letters in plan:
        sizes = {layer: x.size for layer, x in vec.items()}
        for _ in range(0 if factor is None else letters + 1):
            sizes = {moves[layer][1]: rep.n * min(size, inner)
                     for layer, size in sizes.items() if moves[layer] is not None}
        lengths.append(sizes)
    return sum(_union_rows(lengths).values())


def verify_gp(rep: TruncatedRep) -> VerificationReport:
    """Check the defining relations and the parameter contract.

    Reports the largest residual of: generator isometry and range
    completeness on the interior, the fixed-vector equation (cycles) or
    the backward family and step relations (chains), orthonormality of
    the anchored family, and a spanning check of the enumerated basis to
    depth min(2, D - k) against the matching graded interior.  Every
    vector is held as its layer block prefixes.
    """
    cyclic = rep.kind in ("cycle", "fiber")
    k = len(rep.factor_rows) if cyclic else 0
    d = min(2, rep.depth - k)
    iso, comp = _relation_residuals(rep)

    eigen = None
    step = None
    if cyclic:
        family = _anchors(rep)
        # family[0] is pi(s(z^(1)) ... s(z^(k))) Omega
        eigen = _norm(rep, family[0], _omega(rep))
        columns = family
    else:
        d_minus, d_plus = rep.window
        family = dict(_chain_walk(rep, -(d_minus - 1), d_plus))
        # s(z_u) E_u = E_(u-1)
        step = float(np.max(
            [_norm(rep, _iso_held(rep, _chain_factor(rep.factor_rows, u), family[u]),
                   family[u - 1])
             for u in range(-d_minus + 2, d_plus + 1)],
            initial=0.0))
        columns = [family[t] for t in sorted(family)]
    family_residual = _compact_gram(columns)[1]

    expected = basis_gram = basis_count = min_sing = None
    if d >= 1:
        # a cycle family holds k N^d vectors at depth d, a chain family
        # N^(d-1) per anchor layer
        if cyclic:
            expected = k * rep.n ** d
        else:
            expected = len(_chain_anchors(rep, d)) * rep.n ** (d - 1)
        plan = _basis_plan(rep, d, family)
        rows = _basis_rows(rep, plan)
        limit = _BASIS_STACK_SHARE * REP_BUDGET
        if expected * rows > limit:
            raise ValueError(
                f"the basis check would stack {expected} vectors on {rows} rows, "
                f"{expected * rows} entries, over the budget of {limit}"
            )
        fam = _enumerate(rep, plan)
        gram, basis_gram = _compact_gram([vec for _, vec in fam])
        basis_count = len(fam)
        # the singular values of the stacked family are the square roots of
        # the eigenvalues of its Gram matrix
        min_sing = math.sqrt(max(float(np.linalg.eigvalsh(gram)[0]), 0.0))

    return VerificationReport(
        kind=rep.kind,
        isometry_residual=iso,
        completeness_residual=comp,
        family_residual=family_residual,
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
    w = _prefixes(rep, _as_vector(rep, v))
    norms = [_norm(rep, w)]
    for _ in range(m_max):
        for f in z.rows:
            w = _iso_held(rep, f, w, adjoint=True)
        norms.append(_norm(rep, w))
    return np.asarray(norms)


# ----------------------------------------------------------------------
# export

def _generator_entries(rep: TruncatedRep):
    """Rows and columns of every generator's entries, ordered by column and
    then row, exact zeros skipped.  A step fills column m < N^(D-1) of its
    source with rows N m + j of its target: position p = N m + j of its
    blocks holds target row p, source column p // N and coefficient j.
    The sources ascend, so the steps come in column order."""
    # REP_BUDGET keeps every index far below 2^31
    positions = np.arange(rep.block, dtype=np.int32)
    rows = rep.step_targets.astype(np.int32)[:, None] * rep.block + positions
    cols = rep.step_sources.astype(np.int32)[:, None] * rep.block + positions // rep.n
    for kept in (rep.step_coeffs != 0).transpose(1, 0, 2):
        kept = np.tile(kept, rep.block // rep.n)
        yield rows[kept], cols[kept]


# the ASCII digits, whose broadcasts write `_digit_table`
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _digit_table(dim: int) -> np.ndarray:
    """ASCII digits of every index 0..dim, right-aligned in rows of
    len(str(dim)) bytes; the places left of a shorter index hold `0`.

    The place of 10^e cycles through `0`..`9`, each held for 10^e rows, so
    it is written by one broadcast over rows padded to whole cycles of the
    top place; no integer is formed per index."""
    width = len(str(dim))
    top = 10 ** (width - 1)
    rows = -(-(dim + 1) // top) * top
    table = np.empty((rows, width), dtype=np.uint8)
    place = 1
    for at in range(width - 1, 0, -1):
        table.reshape(-1, 10, place, width)[..., at] = _DIGITS[:, None]
        place *= 10
    table.reshape(-1, top, width)[..., 0] = _DIGITS[:rows // top, None]
    return table[:dim + 1]


def _runs(count: int, fields, dim: int):
    """Split 0 <= m < count into runs a <= m < b on which every index
    base + stride * m of `fields`, (base, stride) pairs, keeps its digit
    count; the counts grow with m, so a run ends only where one of these
    indices reaches a power of ten."""
    cuts = {0, count}
    power = 10
    while power <= dim:
        for base, stride in fields:
            m = -(-(power - base) // stride)
            if 0 < m < count:
                cuts.add(m)
        power *= 10
    cuts = sorted(cuts)
    return zip(cuts, cuts[1:])


def _digits(table: np.ndarray, start: int, count: int, stride: int = 1) -> np.ndarray:
    """The digits of indices start, start + stride, ... (count of them),
    all as long as start's, as a view of the digit table."""
    return table[start:start + stride * count:stride, table.shape[1] - len(str(start)):]


def _written(plan: list) -> str:
    """The text of `plan`, a list of runs, each a list of pieces: a run of
    count lines, count the length of its digit views (1 without one), each
    line its pieces in order, bytes as they are and the k-th row of each
    view for line k.

    Every run is a (count, line width) view of one preallocated buffer,
    filled by one broadcast of its line, placeholders in the digit
    fields, and one strided copy per digit view."""
    runs, total = [], 0
    for pieces in plan:
        line, fields, count = bytearray(), [], 1
        for piece in pieces:
            if isinstance(piece, bytes):
                line += piece
            else:
                fields.append((len(line), piece))
                line += bytes(piece.shape[1])
                count = len(piece)
        runs.append((line, fields, count))
        total += count * len(line)
    buf = np.empty(total, dtype=np.uint8)
    end = 0
    for line, fields, count in runs:
        at, end = end, end + count * len(line)
        view = buf[at:end].reshape(count, len(line))
        view[:] = np.frombuffer(line, dtype=np.uint8)
        for offset, digits in fields:
            view[:, offset:offset + digits.shape[1]] = digits
    return str(buf, "ascii")


def export_coo(rep: TruncatedRep) -> str:
    """Coordinate-list text: `row col re im` per line, grouped by generator,
    with the basis labels and the distinguished vector appended.

    Each step writes a generator's lines for its source's columns m, which
    come in order since the sources ascend: one line per nonzero
    coefficient j, with row N m + j of its target layer, column m of its
    source and the `repr` text of the coefficient, rendered once per step.
    The columns split into `_runs` on which every row and column keeps its
    digit count, so every column of a run writes lines of the same widths
    and the run is written by `_written` from views of one `_digit_table`:
    the rows of coefficient j every N-th index from N a + j, the columns
    consecutive from a.  The labels are runs of `index layer m` lines in
    the same way; Omega's few lines are formatted one by one.
    """
    dim, block, n = rep.dim, rep.block, rep.n
    tile = block // n
    table = _digit_table(dim)
    plan = []
    for i in range(n):
        plan.append([f"# S{i + 1}\n".encode()])
        for coeffs, source, target in zip(rep.step_coeffs[:, i].tolist(),
                                          rep.step_sources.tolist(), rep.step_targets.tolist()):
            kept = [(j, f" {c.real!r} {c.imag!r}\n".encode()) for j, c in enumerate(coeffs)
                    if c != 0]
            fields = [(source * block, 1)] + [(target * block + j, n) for j, _ in kept]
            for a, b in _runs(tile, fields, dim):
                columns = _digits(table, source * block + a, b - a)
                run = []
                for j, value in kept:
                    run += [_digits(table, target * block + n * a + j, b - a, n), b" ", columns,
                            value]
                plan.append(run)
    plan.append([b"# labels: index layer m\n"])
    for position, layer in enumerate(rep.layers):
        for a, b in _runs(block, [(position * block, 1), (1, 1)], dim):
            plan.append([_digits(table, position * block + a, b - a), f" {layer} ".encode(),
                         _digits(table, a + 1, b - a), b"\n"])
    plan.append([b"# omega: index re im\n"])
    plan.append(["".join(f"{layer * block + m} {c.real!r} {c.imag!r}\n"
                         for layer, x in _omega(rep).items()
                         for m, c in enumerate(x.tolist()) if c != 0).encode()])
    return _written(plan)


def export_json(rep: TruncatedRep) -> dict:
    """The truncation as JSON-ready lists, built with the collector paused.

    The dict is for serialising and must be treated as read-only: equal
    ints and equal `[re, im]` pairs are one object.  Every row, column and
    label m is an int of one table 0..dim.  Generator i takes, step after
    step, the entries of `_generator_entries`: for the t-th of the k
    nonzero coefficients j of the step, every k-th entry from t on has row
    N m + j of the target layer and column m of the source, both read as
    slices of the table, and value the pair of that coefficient, made once.
    Every entry of Omega outside its held support is one shared `[0.0, 0.0]`.
    """
    block, n = rep.block, rep.n
    tile = block // n
    with _collector_paused():
        ints = list(range(rep.dim + 1))
        steps = list(zip(rep.step_sources.tolist(), rep.step_targets.tolist()))
        generators = []
        for coeffs in rep.step_coeffs.transpose(1, 0, 2).tolist():
            kept = [[j for j, c in enumerate(step) if c != 0] for step in coeffs]
            rows = [0] * (tile * sum(map(len, kept)))
            cols = rows.copy()
            values = []
            end = 0
            for step, js, (source, target) in zip(coeffs, kept, steps):
                at, end = end, end + len(js) * tile
                columns = ints[source * block:source * block + tile]
                for t, j in enumerate(js, at):
                    rows[t:end:len(js)] = ints[target * block + j:(target + 1) * block:n]
                    cols[t:end:len(js)] = columns
                values += [[c.real, c.imag] for c in step if c != 0] * tile
            generators.append({"rows": rows, "cols": cols, "values": values})
        omega = [[0.0, 0.0]] * rep.dim
        for layer, x in _omega(rep).items():
            start = layer * block
            omega[start:start + x.size] = [[c.real, c.imag] for c in x.tolist()]
        layers = [int(t) for t in rep.layers]
        return {
            "rank": rep.n,
            "kind": rep.kind,
            "depth": rep.depth,
            "dim": rep.dim,
            "layers": layers,
            "generators": generators,
            "omega": omega,
            "labels": [[t, m] for t in layers for m in ints[1:block + 1]],
            "interior": rep.interior.tolist(),
        }
