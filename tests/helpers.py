"""Shared constructors and oracles for the test suite."""

import cmath
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce

import numpy as np

import gpcuntz as g


class _ExhaustedArray(np.ndarray):
    """An array whose nested list runs out of memory."""

    def tolist(self):
        raise MemoryError


def exhaust_stacked_lists(monkeypatch):
    """Make the nested list of every array np.stack returns run out of
    memory: the JSON list build of `complex_pairs` stacks its columns and
    calls `tolist` on the result."""
    stack = np.stack
    monkeypatch.setattr(
        np, "stack", lambda arrays, **kwargs: stack(arrays, **kwargs).view(_ExhaustedArray))


def exhaust_omega_lists(monkeypatch):
    """Make the list of every held block of Omega run out of memory:
    `export_json` builds its omega entries from their `tolist`."""
    omega = g.reps._omega
    monkeypatch.setattr(g.reps, "_omega", lambda rep: {
        layer: x.view(_ExhaustedArray) for layer, x in omega(rep).items()})


def replaced(record, **changes):
    """A new record of the same class built from the fields of `record`,
    with `changes` in place of some of them."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_cycle(rng, n, k):
    return g.cycle([random_unit(rng, n) for _ in range(k)])


def random_nonperiodic_cycle(rng, n, k):
    while True:
        z = random_cycle(rng, n, k)
        if g.primitive_root(z)[1] == 1:
            return z


def random_explicit_chain(rng, n, pre_len, period_len):
    return g.explicit_chain(
        [random_unit(rng, n) for _ in range(period_len)],
        [random_unit(rng, n) for _ in range(pre_len)],
    )


def random_element(rng, n, max_word=2, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        lj = int(rng.integers(0, max_word + 1))
        lk = int(rng.integers(0, max_word + 1))
        j = tuple(int(x) for x in rng.integers(1, n + 1, size=lj))
        k = tuple(int(x) for x in rng.integers(1, n + 1, size=lk))
        coeff = complex(rng.normal(), rng.normal())
        terms[(j, k)] = terms.get((j, k), 0.0) + coeff
    return g.AlgebraElement.from_terms(n, terms)


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_elements_close(a, b, tol=1e-9):
    diff = (a - b).sup_norm()
    assert diff <= tol, f"elements differ by {diff}"


def reference_full_tensor(rows):
    """Flattened tensor product of the factor rows."""
    return reduce(np.kron, rows)


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def brute_force_power(z, tol=1e-9):
    """Independent tensor-power oracle on full tensors.

    Returns (d, p): the smallest block length d dividing k such that the
    flattened tensor of z is a unimodular multiple of the p-fold Kronecker
    power of its first d factors, with p = k // d.
    """
    t = reference_full_tensor(z.rows)
    k = z.k
    for d in divisors(k):
        p = k // d
        head = reference_full_tensor(z.rows[:d])
        cand = head
        for _ in range(p - 1):
            cand = np.kron(cand, head)
        if abs(abs(np.vdot(cand, t)) - 1.0) < tol:
            return d, p
    return k, 1


def brute_force_cycles_equivalent(z, y, tol=1e-9):
    """Independent equivalence oracle on full tensors: some cyclic rotation
    of z's factor list has the flattened tensor of y."""
    if z.k != y.k:
        return False
    t = reference_full_tensor(y.rows)
    return any(
        np.linalg.norm(reference_full_tensor(z.factors[r:] + z.factors[:r]) - t) < tol
        for r in range(z.k)
    )


def reference_phase_split(rows):
    """(canonical rows, global phase) by the per-factor loop: each row
    divided by the phase of its first entry above PIVOT_TOL in modulus,
    taken with the scalar abs, and the phases multiplied up one at a time
    from 1."""
    out = []
    phase = 1.0 + 0.0j
    for v in rows:
        a = v[int(np.argmax(np.abs(v) > g.algebra.PIVOT_TOL))]
        removed = a / abs(a)
        out.append(v / removed)
        phase *= removed
    return out, complex(phase)


def _reference_canonical_block(rows):
    """The canonical rows, as the float decision path compared factors."""
    return reference_phase_split(rows)[0]


def _reference_rotation_block(theta):
    return _reference_canonical_block(
        g.chain_factors(g.rotation_chain(theta), 1, theta.denominator)
    )


def reference_rotation_period(theta, tol=1e-9):
    """Tail period of the rotation chain by a Fraction theta on the float
    path: the least divisor d of the denominator b with the b canonical
    factors cyclically d-periodic within tol."""
    block = _reference_rotation_block(theta)
    b = len(block)
    for d in divisors(b):
        if all(np.linalg.norm(block[(i + d) % b] - block[i]) < tol for i in range(b)):
            return d


def reference_rotation_tail_equivalent(theta, other, tol=1e-9):
    """Tail equivalence of two rational rotation chains on the float path:
    the canonical period blocks agree factorwise within tol at some offset
    modulo the lcm of their lengths."""
    bz, by = _reference_rotation_block(theta), _reference_rotation_block(other)
    span = math.lcm(len(bz), len(by))
    return any(
        all(
            np.linalg.norm(bz[(m + offset) % len(bz)] - by[m % len(by)]) < tol
            for m in range(span)
        )
        for offset in range(span)
    )


def reference_roll_matches(a, b, tol=g.algebra.DEFAULT_TOL):
    """The matched phases (or None) of two blocks of one length at every
    offset, by the loop that rolled `a` once per offset."""
    return [g.params._phase_match(np.roll(a, -r, axis=0), b, tol) for r in range(len(a))]


def reference_gather_matches(a, b, tol=g.algebra.DEFAULT_TOL):
    """The matched phases (or None) at each offset below the gcd of the
    block lengths, by the per-offset gather of both blocks over their lcm."""
    m = np.arange(math.lcm(len(a), len(b)))
    return [g.params._phase_match(a[(m + r) % len(a)], b[m % len(b)], tol)
            for r in range(math.gcd(len(a), len(b)))]


def reference_cycles_equivalent(z, y, tol=g.algebra.DEFAULT_TOL):
    """Cycle equivalence by the per-offset roll: some rotation of z matches
    y factorwise with phases whose product is 1."""
    if z.n != y.n:
        raise g.RankMismatchError(f"rank mismatch: {z.n} vs {y.n}")
    if z.k != y.k:
        return False
    return any(c is not None and abs(np.prod(c) - 1.0) <= tol
               for c in reference_roll_matches(z.rows, y.rows, tol))


def reference_rotation_to_explicit(chain):
    """The explicit chain of a rational rotation's first b factors."""
    return g.explicit_chain(g.chain_factors(chain, 1, chain.theta.denominator))


def reference_chain_tail_equivalent(z, y, tol=g.algebra.DEFAULT_TOL):
    """Tail equivalence by the per-chain tail closure and the gather over
    gcd offsets; rational rotation pairs in closed form."""

    def tail_block(c):
        if c.kind == "explicit":
            return c.period
        if isinstance(c.theta, Fraction):
            return reference_rotation_to_explicit(c).period
        raise g.UndecidableError(
            f"chain kind {c.kind!r} has no exact periodic tail; "
            "use asymptotic diagnostics instead"
        )

    if z.n != y.n:
        raise g.RankMismatchError(f"rank mismatch: {z.n} vs {y.n}")
    if isinstance(z.theta, Fraction) and isinstance(y.theta, Fraction):
        return (2 * (z.theta - y.theta)).denominator == 1
    matches = reference_gather_matches(tail_block(z), tail_block(y), tol)
    return any(c is not None for c in matches)


def reference_primitive_root(z, tol=g.algebra.DEFAULT_TOL):
    """(root, p) through the per-factor canonical form: the canonical rows
    and global phase of `reference_phase_split`, their block period, and the
    p-th root of the global phase times the phases matched where the pivot
    jumped."""
    rows, phase = reference_phase_split(z.factors)
    rows = np.stack(rows)
    d, phases = g.params._block_period(rows, tol)
    p = len(rows) // d
    if p == 1:
        return z, 1
    jumped = np.linalg.norm(rows.reshape(p, d, -1) - rows[:d], axis=-1) >= tol
    if jumped.any():
        phase *= complex(np.prod(phases[jumped]))
    root_phase = cmath.exp(cmath.log(phase) / p)
    return g.CycleParam(np.vstack((rows[0] * root_phase, rows[1:d]))), p


def reference_decompose_chain_base(z, tol=g.algebra.DEFAULT_TOL):
    """Base rows of the direct integral by is_eventually_periodic, then the
    rotation's explicit chain, then the root of the phase-split period."""
    verdict = g.is_eventually_periodic(z, tol)
    if not verdict.eventually_periodic:
        raise g.UndecidableError(
            "direct-integral decomposition needs an eventually periodic chain"
        )
    if z.kind == "rotation":
        z = reference_rotation_to_explicit(z)
    split = g.params._phase_split
    root = reference_primitive_root(g.CycleParam(split(z.period)[0]), tol)[0]
    return g.CycleParam(split(root.rows)[0]).rows


def reference_chain_factor(chain, m):
    """Per-index chain factor by the direct formulas, independent of the
    vectorised `chain_factors`: Fraction reduction, longdouble fmod, scalar
    math.cos/math.sin/math.asin and tuple indexing."""
    if chain.kind == "explicit":
        pre = len(chain.preperiod)
        if m <= pre:
            return chain.preperiod[m - 1]
        return chain.period[(m - 1 - pre) % len(chain.period)]
    if chain.kind == "prefix":
        return chain.prefix[m - 1]
    if chain.kind == "rotation":
        if isinstance(chain.theta, Fraction):
            frac = float((m * chain.theta) % 1)
        else:
            frac = float(np.fmod(np.longdouble(m) * np.longdouble(chain.theta), 1.0))
        angle = 2.0 * math.pi * frac
    else:
        half = math.asin(1.0 / (math.sqrt(2.0) * ((m + 1) // 2)))
        angle = math.pi / 4 - half if m % 2 else math.pi / 4 + half
    return np.array([math.cos(angle), math.sin(angle)], dtype=complex)


def reference_diagnostics(chain, p_max, m_max, target=None):
    """(plain, absolute, target sums) of `asymptotic_diagnostics` and
    `target_overlap_sums` by the formula they had when the overlaps were
    summed over the row axis: rows from `reference_chain_factor`,
    `np.sum(np.conj(a) * b, axis=1)`, `np.sum(rows * conj(target), axis=1)`
    and a longdouble cumsum; `plain` and `absolute` are dicts over
    p = 1..p_max, the sums None without a target."""
    rows = np.stack([reference_chain_factor(chain, m) for m in range(1, m_max + p_max + 1)])

    def cumulative(defects):
        return np.cumsum(defects, dtype=np.longdouble).astype(float)

    plain, absolute = {}, {}
    for p in range(1, p_max + 1):
        inner = np.sum(np.conj(rows[:m_max]) * rows[p : p + m_max], axis=1)
        plain[p] = cumulative(1.0 - inner.real)
        absolute[p] = cumulative(1.0 - np.abs(inner))
    sums = None
    if target is not None:
        target = np.conj(np.asarray(target, dtype=complex))
        sums = cumulative(1.0 - np.abs(np.sum(rows[:m_max] * target, axis=1)))
    return plain, absolute, sums


def _reference_sorted_coo(mat) -> dict:
    coo = mat.tocoo()
    order = np.lexsort((coo.row, coo.col))
    return {
        "rows": coo.row[order].tolist(),
        "cols": coo.col[order].tolist(),
        "values": g.params.complex_pairs(coo.data[order]),
    }


def reference_export_coo(rep) -> str:
    """`export_coo` formatted entry by entry and label by label through
    `TruncatedRep.label_of`, independent of the array-built exporter."""
    lines = []
    for gi, mat in enumerate(rep.gens, start=1):
        lines.append(f"# S{gi}")
        coo = _reference_sorted_coo(mat)
        entries = zip(coo["rows"], coo["cols"], coo["values"])
        lines += [f"{r} {c} {re!r} {im!r}" for r, c, (re, im) in entries]
    lines.append("# labels: index layer m")
    for idx in range(rep.dim):
        layer, m = rep.label_of(idx)
        lines.append(f"{idx} {layer} {m}")
    lines.append("# omega: index re im")
    support = np.flatnonzero(rep.omega)
    values = g.params.complex_pairs(rep.omega[support])
    lines += [f"{idx} {re!r} {im!r}" for idx, (re, im) in zip(support.tolist(), values)]
    return "\n".join(lines) + "\n"


def reference_export_json(rep) -> dict:
    """`export_json` with per-index labels from `TruncatedRep.label_of`."""
    return {
        "rank": rep.n,
        "kind": rep.kind,
        "depth": rep.depth,
        "dim": rep.dim,
        "layers": [int(t) for t in rep.layers],
        "generators": [_reference_sorted_coo(mat) for mat in rep.gens],
        "omega": g.params.complex_pairs(rep.omega),
        "labels": [list(rep.label_of(i)) for i in range(rep.dim)],
        "interior": rep.interior.tolist(),
    }


def reference_layered_gens(n, depth, layers, steps) -> list:
    """The generators of `reps._layered_rep` for a step table by the route
    it replaced: per-step COO triplets that scipy sorts into CSC."""
    import scipy.sparse as sp

    blk = n ** depth
    inner = n ** (depth - 1)
    dim = len(layers) * blk
    ms = np.arange(inner)
    entries = [([], [], []) for _ in range(n)]
    for source, target, u, scale in steps:
        col_base = layers.index(source) * blk
        row_base = layers.index(target) * blk
        for i in range(n):
            rows, cols, vals = entries[i]
            for j in range(n):
                coeff = scale * np.conj(u[i, j])
                if abs(coeff) == 0.0:
                    continue
                rows.append(row_base + n * ms + j)
                cols.append(col_base + ms)
                vals.append(np.full(inner, coeff, dtype=complex))
    return [
        sp.csc_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )
        for rows, cols, vals in entries
    ]


def _reference_sum_interior(rep):
    """Mask of the columns on which sum_i S_i S_i* = I is exact: the whole
    block of every step target."""
    mask = np.zeros((len(rep.layers), rep.block), dtype=bool)
    mask[rep.step_targets] = True
    return mask.ravel()


def reference_relation_residuals(rep):
    """`verify_gp`'s isometry and completeness residuals by the route the
    step-table formulas replaced: sparse products of `rep.gens` with their
    conjugate-transposed CSC copies, restricted to the interior columns."""
    import scipy.sparse as sp

    def max_abs(mat):
        mat = mat.tocoo()
        if mat.nnz == 0:
            return 0.0
        return float(np.max(np.abs(mat.data)))

    ident = sp.identity(rep.dim, dtype=complex, format="csc")
    adjoints = [gen.conjugate().transpose().tocsc() for gen in rep.gens]
    iso = 0.0
    for i, si_h in enumerate(adjoints):
        for j, sj in enumerate(rep.gens):
            res = si_h @ sj
            if i == j:
                res = res - ident
            iso = max(iso, max_abs(res[:, rep.interior]))
    total = None
    for si, si_h in zip(rep.gens, adjoints):
        piece = si @ si_h
        total = piece if total is None else total + piece
    comp = max_abs((total - ident)[:, _reference_sum_interior(rep)])
    return iso, comp


def reference_gram(mat):
    """Gram matrix of the columns of the dense stack `mat` and its largest
    deviation from I: `verify_gp`'s check before it stacked only the
    union of its vectors' layer block prefixes."""
    gram = mat.conj().T @ mat
    return gram, float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def reference_prefixes(rep, x):
    """{layer position: block up to one past its last nonzero entry} of a
    dense vector, blocks of zeros left out, from `np.flatnonzero` of each
    block's float64 view: NaN counts as nonzero and -0.0 as zero."""
    blocks = np.ascontiguousarray(x, dtype=complex).reshape(len(rep.layers), rep.block)
    out = {}
    for layer, block in enumerate(blocks):
        parts = np.flatnonzero(block.view(np.float64))
        if parts.size:
            out[layer] = block[:parts[-1] // 2 + 1]
    return out


def reference_apply_gen(rep, i, x, transpose=False):
    """S_(i+1) x, or S_(i+1)^T x, by the full sweep that `reps._gen_held`
    replaced: every step's slices of the whole layer blocks, whatever x
    holds there."""
    if x.ndim == 2:
        return np.stack([reference_apply_gen(rep, i, col, transpose) for col in x.T], axis=1)
    n, count = rep.n, len(rep.layers)
    inner = rep.block // n
    out = np.zeros(x.size, dtype=complex)
    if transpose:
        rows, cols = x.reshape(count, inner, n), out.reshape(count, n * inner)
    else:
        rows, cols = out.reshape(count, inner, n), x.reshape(count, n * inner)
    for source, target, c in zip(rep.step_sources, rep.step_targets, rep.step_coeffs[:, i]):
        src, tgt = cols[source, :inner], rows[target]
        if transpose:
            for j in range(n):
                src.real += c.real[j] * tgt.real[:, j] - c.imag[j] * tgt.imag[:, j]
                src.imag += c.real[j] * tgt.imag[:, j] + c.imag[j] * tgt.real[:, j]
            continue
        for j in range(n):
            np.add(c.real[j] * src.real - c.imag[j] * src.imag, 0.0, out=tgt.real[:, j])
            np.add(c.real[j] * src.imag + c.imag[j] * src.real, 0.0, out=tgt.imag[:, j])
    return out


def reference_apply_isometry(rep, v, x, adjoint=False):
    """`reps._apply_isometry` as the sum it replaced: N whole generator
    applications, each scaled by v_i, summed by Python's `sum`."""
    if adjoint:
        y = np.conj(x)
        return np.conj(sum(vi * reference_apply_gen(rep, i, y, transpose=True)
                           for i, vi in enumerate(v)))
    return sum(vi * reference_apply_gen(rep, i, x) for i, vi in enumerate(v))


def reference_chain_vector(rep, t):
    """E_t walked from Omega alone, one `reps._apply_isometry` step per
    layer, with each factor from `reference_chain_factor`."""
    vec = rep.omega
    if t >= 0:
        for m in range(1, t + 1):
            factor = reference_chain_factor(rep.param, m)
            vec = g.reps._apply_isometry(rep, factor, vec, adjoint=True)
    else:
        for _ in range(-t):
            vec = rep.gens[0] @ vec
    return vec


def reference_vector_isometry(rep, v):
    """Matrix of s(v) = sum_i v_i S_i, assembled by scipy.sparse."""
    v = np.asarray(v, dtype=complex)
    if v.size != rep.n:
        raise g.RankMismatchError(f"vector lives in C^{v.size}, rep has rank {rep.n}")
    out = v[0] * rep.gens[0]
    for i in range(1, rep.n):
        out = out + v[i] * rep.gens[i]
    return out.tocsc()


def _reference_product(mats):
    out = None
    for m in mats:
        out = m if out is None else out @ m
    return out


def reference_cycle_isometry(rep, factors):
    """Matrix of s(z^(1)) ... s(z^(k)), assembled by scipy.sparse."""
    return _reference_product([reference_vector_isometry(rep, f) for f in factors])


def reference_gen_adjoint(rep, i):
    """S_i* as a fresh CSC matrix."""
    return rep.gens[i - 1].conjugate().transpose().tocsc()


def reference_apply_element(rep, a, vec):
    """`apply_element` with every adjoint letter multiplied by a fresh CSC
    copy of S_i*."""
    if a.n != rep.n:
        raise g.RankMismatchError(f"rank mismatch: {a.n} vs {rep.n}")

    interior, sum_interior = rep.interior, _reference_sum_interior(rep)

    def apply_generator(letter, vec, adjoint):
        if adjoint:
            if not np.all(np.abs(vec[~sum_interior]) <= g.algebra.PRUNE_TOL):
                raise g.TruncationOverflowError(
                    "support reached the top window layer; enlarge d_plus"
                )
            return reference_gen_adjoint(rep, letter) @ vec
        if not np.all(np.abs(vec[~interior]) <= g.algebra.PRUNE_TOL):
            raise g.TruncationOverflowError(
                "support escaped the exact interior; enlarge the depth"
            )
        return rep.gens[letter - 1] @ vec

    vec = np.asarray(vec, dtype=complex)
    out = np.zeros(rep.dim, dtype=complex)
    for (j, k), c in a.terms.items():
        w = vec
        for letter in k:
            w = apply_generator(letter, w, adjoint=True)
        for letter in reversed(j):
            w = apply_generator(letter, w, adjoint=False)
        out += c * w
    return out


def reference_power_vanish(rep, z, v, m_max):
    """`power_vanish` with the adjoint of the assembled cycle isometry."""
    mat = reference_cycle_isometry(rep, z.rows).conjugate().transpose().tocsc()
    v = np.asarray(v, dtype=complex)
    norms = [float(np.linalg.norm(v))]
    w = v
    for _ in range(m_max):
        w = mat @ w
        norms.append(float(np.linalg.norm(w)))
    return np.asarray(norms)


def reference_numeric_cycle_eigencheck(v, p):
    """`numeric_cycle_eigencheck` of a nonperiodic `v` with the assembled
    cycle isometry."""
    rep = g.build_cycle_rep(g.CycleParam(np.tile(v.rows, (p, 1))), v.k * (p + 1))
    a = reference_cycle_isometry(rep, v.rows)
    orbit = []
    w = rep.omega
    for _ in range(p):
        w = a @ w
        orbit.append(np.asarray(w).ravel())
    q_mat, _ = np.linalg.qr(np.stack(orbit, axis=1))
    compressed = q_mat.conj().T @ (a @ q_mat)
    eigenvalues = np.linalg.eigvals(compressed)
    angles = np.angle(eigenvalues)
    angles = np.where(angles < -math.pi / (2 * p), angles + 2 * math.pi, angles)
    return eigenvalues[np.argsort(angles)]


def reference_expand_identity(a, depth):
    """`expand_identity` by the loop it replaced: every one of the N^d tails
    of every term is generated and added into one dict, and the sums are
    pruned at the end."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not a.terms:
        return a
    target = max(min(len(j), len(k)) for (j, k) in a.terms) + depth
    tails = [target - min(len(j), len(k)) for (j, k) in a.terms]
    out: dict = {}
    alphabet = range(1, a.n + 1)
    for ((j, k), c), d in zip(a.terms.items(), tails):
        for tail in itertools.product(alphabet, repeat=d):
            key = (j + tail, k + tail)
            out[key] = out.get(key, 0.0) + c
    return g.AlgebraElement._from_words(a.n, out)


def _reduced_word(j1, k1, j2, k2):
    """(J, K) of s_J1 s_K1* s_J2 s_K2*, or None when it vanishes.

    The letters go on a stack, +x for s_x and -x for s_x*, in the order
    J1, K1*, J2, K2*; an s_y arriving on top of an s_x* reduces the pair to
    delta_xy, so what is left is s_J followed by s_K*.
    """
    stack = []
    for letter in (*j1, *(-x for x in reversed(k1)), *j2, *(-x for x in reversed(k2))):
        if letter > 0 and stack and stack[-1] < 0:
            if stack.pop() != -letter:
                return None
        else:
            stack.append(letter)
    return tuple(x for x in stack if x > 0), tuple(-x for x in reversed(stack) if x < 0)


def reference_pairwise_multiply(a, b):
    """`multiply` by the loop it replaced: every term of b is tried against
    every term of a by comparing the prefixes of K1 and J2, and the pairs
    that reduce are summed into one dict from 0.0 in that order."""
    out: dict = {}
    for (j1, k1), c1 in a.terms.items():
        for (j2, k2), c2 in b.terms.items():
            if len(k1) <= len(j2):
                if j2[: len(k1)] != k1:
                    continue
                key = (j1 + j2[len(k1):], k2)
            else:
                if k1[: len(j2)] != j2:
                    continue
                key = (j1, k2 + k1[len(j2):])
            out[key] = out.get(key, 0.0) + c1 * c2
    return g.AlgebraElement._from_words(a.n, out)


def reference_multiply(a, b):
    """`multiply` with every pair of words reduced letter by letter on a
    stack instead of by comparing prefixes; the pairs are taken in the same
    order and summed into one dict from 0.0, so the sums are the same."""
    out = {}
    for (j1, k1), c1 in a.terms.items():
        for (j2, k2), c2 in b.terms.items():
            key = _reduced_word(j1, k1, j2, k2)
            if key is not None:
                out[key] = out.get(key, 0.0) + c1 * c2
    return g.AlgebraElement.from_terms(a.n, out)


def reference_unitary_action(u, a):
    """`unitary_action` term by term: each generator's image is an element,
    each word's image a chain of `multiply` calls, and every piece is added
    into one dict."""
    n = a.n
    images = [
        g.AlgebraElement.from_terms(n, {((j,), ()): u[j - 1, i - 1] for j in range(1, n + 1)})
        for i in range(1, n + 1)
    ]
    out = {}
    for (j, k), c in a.terms.items():
        left = g.identity(n)
        for x in j:
            left = g.multiply(left, images[x - 1])
        right = g.identity(n)
        for x in k:
            right = g.multiply(right, images[x - 1])
        for key, val in g.multiply(left, right.adjoint()).terms.items():
            out[key] = out.get(key, 0.0) + c * val
    return g.AlgebraElement.from_terms(n, out)


def _reference_factor(param, pos):
    """Factor `pos` read from the parameter, not from a state's table: the
    cycle's rows mod k, or `reference_chain_factor`; past a prefix's end
    UndecidableError, as the state raises."""
    if isinstance(param, g.CycleParam):
        return param.rows[(pos - 1) % param.k]
    if param.kind == "prefix" and pos > len(param.prefix):
        raise g.UndecidableError(f"the prefix has {len(param.prefix)} factors, not {pos}")
    return reference_chain_factor(param, pos)


def _reference_letter_product(state, word):
    """z(word) through numpy's complex scalars: the entry of each letter in
    its factor from `_reference_factor` multiplied in from 1, stopping at an
    exact 0."""
    out = 1.0 + 0.0j
    for pos, letter in enumerate(word, start=1):
        out *= _reference_factor(state.param, pos)[letter - 1]
        if out == 0.0:
            break
    return out


def reference_evaluate(state, a, memo=None):
    """`GPState._evaluate` as it was when the state read its factors as
    numpy rows: z(J) and its conjugate are numpy scalars memoized per word
    in `memo`, and the terms are summed by `sum`."""
    memo = {} if memo is None else memo

    def z(word):
        value = _reference_letter_product(state, word)
        pair = memo[word] = (value, np.conj(value))
        return pair

    def word_value(left, right):
        if state.is_cycle:
            if (len(left) - len(right)) % state.param.k != 0:
                return 0.0
        elif len(left) != len(right):
            return 0.0
        zj, zj_bar = memo.get(left) or z(left)
        if zj == 0.0:
            return 0.0
        return zj_bar * (memo.get(right) or z(right))[0]

    return complex(sum(c * word_value(j, k) for (j, k), c in a.terms.items()))


def reference_gram_matrix(param, elements):
    """`gram_matrix` with every entry from `reference_evaluate`, one memo
    for all of them."""
    state = g.GPState(param)
    size = len(elements)
    out = np.zeros((size, size), dtype=complex)
    memo: dict = {}
    for i, a in enumerate(elements):
        for j in range(i, size):
            out[i, j] = reference_evaluate(state, g.multiply(a.adjoint(), elements[j]), memo)
            out[j, i] = np.conj(out[i, j])
    return out


def state_mixture_gap(param, parts, words):
    """The largest |omega_param(s_J s_K*) - mean of omega_part(s_J s_K*)|
    over the parameters in `parts`, for (J, K) in `words`.

    Both decomposition formulae are such identities: a cycle's state is the
    mean of the states of its `decompose_cycle` pieces, and a purely
    periodic chain's state is the mean of those of c*base over L + 1
    equally spaced c on the circle, exactly on words of length <= L.  Each
    value comes from `GPState.word_value`, never from a truncation."""
    state = g.GPState(param)
    states = [g.GPState(part) for part in parts]
    gap = 0.0
    for left, right in words:
        mean = sum(s.word_value(left, right) for s in states) / len(states)
        gap = max(gap, abs(state.word_value(left, right) - mean))
    return gap


def circle_fibers(base, count):
    """c*base for the `count` equally spaced c = exp(2 pi i j / count) on
    the circle: the mean of their states is the Haar integral on words
    shorter than `count`."""
    return [g.scale_cycle(base, cmath.exp(2j * math.pi * j / count)) for j in range(count)]


def reference_state_eval(param, a):
    """`state_eval` term by term: both words of each term are walked afresh
    through the factors, and the terms are summed by a left fold from 0."""
    state = g.GPState(param)

    def word_value(j, k):
        if state.is_cycle:
            if (len(j) - len(k)) % state.param.k != 0:
                return 0.0
        elif len(j) != len(k):
            return 0.0
        zj = _reference_letter_product(state, j)
        if zj == 0.0:
            return 0.0
        return np.conj(zj) * _reference_letter_product(state, k)

    return complex(sum(c * word_value(j, k) for (j, k), c in a.terms.items()))


def reference_car_residuals(gens):
    """car-check's JSON `pairs` and `fock` for the images `gens` = [a_1, a_2,
    ...] of the CAR generators, by the loop over every ordered pair (n, m)
    that forms each relation anew, {a_m, a_n} and {a_m, a_n*} included."""
    vacuum = g.GPState(g.explicit_chain([g.basis_vector(2, 1)]))
    pairs, fock = [], []
    for n, a in enumerate(gens, start=1):
        for m, b in enumerate(gens, start=1):
            b_star = b.adjoint()
            mixed = g.multiply(a, b_star) + g.multiply(b_star, a)
            if n == m:
                mixed = mixed - g.identity(2)
            anti = g.multiply(a, b) + g.multiply(b, a)
            pairs.append({"n": n, "m": m, "mixed": g.leavitt_form(mixed).sup_norm(),
                          "anti": g.leavitt_form(anti).sup_norm()})
        value = reference_evaluate(vacuum, g.multiply(a.adjoint(), a))
        fock.append({"n": n, "residual": float(value.real)})
    return {"pairs": pairs, "fock": fock}


def reference_parse_sum(parser, summands):
    """The pair fold `expressions._Parser` did summand by summand: each
    step materializes both sides and adds them with `AlgebraElement.__add__`."""
    out = summands[0]
    for pair in summands[1:]:
        if out[1] is None and pair[1] is None:
            out = (out[0] + pair[0], None)
        else:
            out = (1.0, parser._materialize(out) + parser._materialize(pair))
    return out


def _reference_scalar_text(c: complex) -> str:
    if c.imag == 0:
        return repr(float(c.real))
    if c.real == 0:
        if c.imag == 1:
            return "i"
        return repr(float(c.imag)) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"({float(c.real)!r}{sign}{float(abs(c.imag))!r}i)"


def reference_format_element(a) -> str:
    """`format_element` term by term: terms sorted by `term_sort_key`, both
    words of every term joined afresh, and the text grown piece by piece."""
    if not a.terms:
        return "0"
    rendered = []
    for (j, k), c in a.sorted_terms():
        negative = c.real < 0 or (c.real == 0 and c.imag < 0)
        if negative:
            c = -c
        word = " ".join(
            [f"s{x}" for x in j] + [f"s{x}*" for x in reversed(k)]
        )
        if not word:
            body = "I" if c == 1 else _reference_scalar_text(c)
        elif c == 1:
            body = word
        else:
            body = f"{_reference_scalar_text(c)} {word}"
        rendered.append((negative, body))
    negative, body = rendered[0]
    out = ("-" if negative else "") + body
    for negative, body in rendered[1:]:
        out += (" - " if negative else " + ") + body
    return out


def run_python(*args, preexec_fn=None):
    # the child process imports gpcuntz from the same tree as this test run,
    # installed or not
    package_root = os.path.dirname(os.path.dirname(g.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=preexec_fn,
    )
