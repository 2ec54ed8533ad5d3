"""Normal-form arithmetic in the *-algebra on N isometries s_1, ..., s_N.

The defining relations are s_i* s_j = delta_ij I together with
s_1 s_1* + ... + s_N s_N* = I.  Every product of generators and adjoints
reduces to a word s_J s_K* for multi-indices J, K over {1, ..., N} (the
empty index stands for I on its side), so elements are stored as finite
complex combinations of such words.  The first relation is applied as a
rewrite on every product; `multiply` indexes its right factor by left word
and visits only the pairs of terms that reduce.  The range relation is decided by
`leavitt_form`, which rewrites an element onto the basis of words s_J s_K*
in which J and K do not both end in the letter N; two elements are equal
modulo both relations exactly when their difference has zero Leavitt
form.  `expand_identity` pushes all terms to a common sandwich depth
instead; it serves `normalize --expand` and is the independent oracle
the tests compare `leavitt_form` against.  It walks the forest in which
(JL, KL) lies below (J, K) and values each subtree with no term below its
root by one sum, skipping the subtrees that cancel, so its cost follows
what survives; its budget is still charged on the full N^d expansion.
`unitary_action` acts on the
terms of one (|J|, |K|) block at once rather than term by term, as one
sparse tensor acted on letter axis by letter axis, so a sparse G keeps
it sparse at any length.

Coefficients are double precision.  The table below is the package's one
numeric policy; `_check_near` tests every unit, unimodular or unitary input.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import itertools
import math
from dataclasses import dataclass

import numpy as np

PRUNE_TOL = 1e-12   # a coefficient, entry or imaginary residue at or below it is 0; NaN is not
UNIT_TOL = 1e-10    # how far a unit or unimodular input may stray from 1 (G G^H from I)
PIVOT_TOL = 1e-8    # least magnitude a component or Gram-Schmidt residual needs as a pivot
DEFAULT_TOL = 1e-9  # the decision tolerance, which GPCUNTZ_TOL overrides
# most terms expand_identity may generate before merging them, and most
# entries unitary_action may hold
EXPAND_BUDGET = 1 << 22

Word = tuple[int, ...]


class RankMismatchError(ValueError):
    """Combination of elements living over different generator counts."""


def _as_word(letters, n: int) -> Word:
    word = tuple(int(x) for x in letters)
    for x in word:
        if not 1 <= x <= n:
            raise ValueError(f"letter {x} outside alphabet 1..{n}")
    return word


def _pruned(terms) -> dict:
    """Terms with complex coefficients not within PRUNE_TOL of 0; keys are
    kept as given, and so is NaN, for `check_finite` to see."""
    out = {}
    for key, c in terms.items():
        c = complex(c)
        if not abs(c) <= PRUNE_TOL:
            out[key] = c
    return out


def check_finite(terms) -> None:
    """Raise ValueError if a coefficient is infinite or NaN.

    A sum is finite only when every summand is, so one sum clears the
    common case; the terms are scanned only to find the culprit.
    """
    if cmath.isfinite(sum(terms.values())):
        return
    for (j, k), c in terms.items():
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient {c} of the word J={j}, K={k} is not finite")


def _check_near(values, target, message: str) -> None:
    """Raise ValueError(message) unless each |value - target| <= UNIT_TOL,
    which NaN never is; a scalar skips the array reduction, which costs more."""
    near = abs(values - target) <= UNIT_TOL
    if not (near.all() if isinstance(near, np.ndarray) else near):
        raise ValueError(message)


def _unimodular(c, what: str) -> complex:
    """complex(c), refused unless |c| = 1 within UNIT_TOL."""
    c = complex(c)
    _check_near(abs(c), 1.0, f"{what} must be unimodular")
    return c


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block.

    Building millions of small containers (key tuples, nested lists) sets
    off repeated collections that each traverse every live object, and
    none of them can be garbage.  The collector's previous state is
    restored however the block ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def term_sort_key(key):
    """Canonical term order: (|J|, J lexicographic, |K|, K lexicographic)."""
    j, k = key
    return (len(j), j, len(k), k)


@dataclass(frozen=True)
class AlgebraElement:
    """Finite combination sum_c c * s_J s_K* in normal form.

    `terms` maps (J, K) pairs of letter tuples to nonzero complex
    coefficients.  Use `AlgebraElement.from_terms` (or the module-level
    constructors) so pruning, letter validation and the finiteness check
    happen uniformly.
    """

    n: int
    terms: dict

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2")

    @classmethod
    def from_terms(cls, n: int, terms) -> "AlgebraElement":
        out = {(_as_word(j, n), _as_word(k, n)): c for (j, k), c in _pruned(terms).items()}
        check_finite(out)
        return cls(n, out)

    @classmethod
    def _from_words(cls, n: int, terms) -> "AlgebraElement":
        """Like `from_terms` for keys that are already valid letter tuples,
        such as the words of an operation on valid elements."""
        return cls(n, _pruned(terms))

    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def sup_norm(self) -> float:
        """Largest coefficient modulus (0 for the zero element)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def sorted_terms(self):
        return [(key, self.terms[key]) for key in sorted(self.terms, key=term_sort_key)]

    def adjoint(self) -> "AlgebraElement":
        """The *-involution: c s_J s_K*  ->  conj(c) s_K s_J*."""
        return AlgebraElement._from_words(
            self.n, {(k, j): c.conjugate() for (j, k), c in self.terms.items()}
        )

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError(f"rank mismatch: {self.n} vs {other.n}")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0.0) + c
        return AlgebraElement._from_words(self.n, merged)

    def __neg__(self):
        return AlgebraElement._from_words(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return AlgebraElement._from_words(
                self.n, {k: c * other for k, c in self.terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __repr__(self):
        body = ", ".join(
            f"{key}: {c!r}" for key, c in self.sorted_terms()
        )
        return f"AlgebraElement(n={self.n}, {{{body}}})"


# ----------------------------------------------------------------------
# constructors

def zero(n: int) -> AlgebraElement:
    return AlgebraElement.from_terms(n, {})


def identity(n: int) -> AlgebraElement:
    return AlgebraElement.from_terms(n, {((), ()): 1.0})


def generator(n: int, i: int) -> AlgebraElement:
    """The isometry s_i."""
    return AlgebraElement.from_terms(n, {((i,), ()): 1.0})


def word_element(n: int, left, right=(), coeff=1.0) -> AlgebraElement:
    """c * s_J s_K* for J=left, K=right."""
    return AlgebraElement.from_terms(n, {(tuple(left), tuple(right)): coeff})


# ----------------------------------------------------------------------
# ring operations

def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Normal form of the product a*b.

    Each cross term s_J1 s_K1* s_J2 s_K2* reduces by cancelling the
    overlap of K1 against J2: when K1 is a prefix of J2 the leftover
    letters of J2 migrate into J1; when J2 is a proper prefix of K1 the
    leftover letters of K1 migrate into K2; otherwise the term vanishes.

    Only the pairs that reduce are visited.  The terms of b are indexed
    once by J2 within each length of J2 and, for each length |K1| that a
    needs, by J2[:|K1|] over the terms with |J2| >= |K1|.  A term of a then
    probes K1[:L] for each length L < |K1| present in b and takes the one
    bucket keyed by K1, so the cost is sum |J2| to index, sum |K1| probes
    and the matches; an empty K1 matches every term of b.  The matches are
    visited in b's term order (positions are sorted only when two or more
    buckets contributed), so keys are inserted and summed in the order of
    the loop over all pairs, and the result is bit-identical to it.

    A product with at least as many pairs of terms as the collector's
    three thresholds multiplied runs with the cyclic garbage collector
    paused: its new key tuples would set off passes over the older
    generations, which hold the growing output, and none of them can find
    garbage.  Smaller products allocate too little to reach those passes,
    and pausing would only move their young passes to the end.
    """
    if a.n != b.n:
        raise RankMismatchError(f"rank mismatch: {a.n} vs {b.n}")
    if len(a.terms) * len(b.terms) < math.prod(gc.get_threshold()):
        return _matched_product(a, b)
    with _collector_paused():
        return _matched_product(a, b)


def _matched_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """`multiply` of two elements of the same rank."""
    items = list(b.terms.items())
    # b's positions by J2 (so within each length of J2), in b's term order
    by_word: dict = {}
    for pos, ((j2, _), _) in enumerate(items):
        by_word.setdefault(j2, []).append(pos)
    lengths = sorted({len(j2) for j2 in by_word})
    # per |K1|, the positions of the terms with |J2| >= |K1| by J2[:|K1|];
    # when no J2 is longer than K1, that is J2 itself
    heads_by_len: dict = {}
    out: dict = {}
    for (j1, k1), c1 in a.terms.items():
        m = len(k1)
        heads = heads_by_len.get(m)
        if heads is None:
            if lengths and m < lengths[-1]:
                heads = {}
                for pos, ((j2, _), _) in enumerate(items):
                    if len(j2) >= m:
                        heads.setdefault(j2[:m], []).append(pos)
            else:
                heads = by_word
            heads_by_len[m] = heads
        found = []
        for length in lengths:
            if length >= m:
                break
            bucket = by_word.get(k1[:length])
            if bucket:
                found.append(bucket)
        bucket = heads.get(k1)
        if bucket:
            found.append(bucket)
        if not found:
            continue
        for pos in found[0] if len(found) == 1 else sorted(itertools.chain(*found)):
            (j2, k2), c2 = items[pos]
            if m <= len(j2):
                key = (j1 + j2[m:], k2)
            else:
                key = (j1, k2 + k1[len(j2):])
            out[key] = out.get(key, 0.0) + c1 * c2
    return AlgebraElement._from_words(a.n, out)


def linear_combine(pairs) -> AlgebraElement:
    """Sum of coeff * element over (coeff, element) pairs (at least one)."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (coefficient, element) pair")
    n = pairs[0][1].n
    out: dict = {}
    for coeff, elem in pairs:
        if elem.n != n:
            raise RankMismatchError(f"rank mismatch: {elem.n} vs {n}")
        for key, c in elem.terms.items():
            out[key] = out.get(key, 0.0) + coeff * c
    return AlgebraElement._from_words(n, out)


def expand_identity(a: AlgebraElement, depth: int) -> AlgebraElement:
    """Expand all terms to a common sandwich depth.

    Repeated insertion of sum_i s_i s_i* turns c s_J s_K* into
    sum_{|L|=d} c s_{JL} s_{KL}*.  Here d is chosen per term so that
    every term reaches (max over terms of min(|J|, |K|)) + depth.  Two
    elements agree modulo the range relation at depth d exactly when
    expand_identity(a - b, d) is zero.  An expansion that would generate
    more than EXPAND_BUDGET terms raises ValueError before generating any;
    the budget is charged on that full count, the sum over terms of N^d,
    however much of it cancels.

    The words form a forest in which (JL, KL) lies below (J, K), and an
    output word sums exactly the terms on its one path up, found by
    stripping common last letters.  The walk descends from each term with
    no term above it, only into nodes with a term below them.  Below any
    other node every output word sums the same terms, so one sum, taken
    from 0.0 in term order as a term-by-term loop would take it, values
    the whole subtree: a sum at or below PRUNE_TOL skips it (NaN is kept),
    and the words of any other are written out.  The cost follows the
    input and the output, not the N^d terms a cancelling expansion would
    generate, and the result is bit-identical to that loop's, in its key
    order: by first contributing term, then by tail.  The words are written
    out with the cyclic garbage collector paused.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not a.terms:
        return a
    target = max(min(len(j), len(k)) for (j, k) in a.terms) + depth
    tails = [target - min(len(j), len(k)) for (j, k) in a.terms]
    # N >= 2, so a single term with this many tail letters is already over
    # the budget; naming the power avoids building an enormous integer
    if max(tails) >= EXPAND_BUDGET.bit_length():
        raise ValueError(
            f"expand_identity would generate at least {a.n}^{max(tails)} terms, "
            f"over the budget of {EXPAND_BUDGET}"
        )
    count = sum(a.n**d for d in tails)
    if count > EXPAND_BUDGET:
        raise ValueError(
            f"expand_identity would generate {count} terms, over the budget of {EXPAND_BUDGET}"
        )
    index = {key: i for i, key in enumerate(a.terms)}
    coeffs = list(a.terms.values())
    # `inner` holds the nodes with a term strictly below them, `nested` the
    # terms with a term strictly above them.  A term r levels above a term
    # of tail d has tail d + r, so no climb goes past the largest tail, and
    # each stops at the first term it meets, which climbs on by itself.
    top = max(tails)
    inner, nested = set(), set()
    for i, ((j, k), d) in enumerate(zip(a.terms, tails)):
        for r in range(1, min(len(j), len(k), top - d) + 1):
            if j[-r] != k[-r]:
                break
            up = (j[:-r], k[:-r])
            inner.add(up)
            if up in index:
                nested.add(i)
                break
    alphabet = range(1, a.n + 1)
    blocks = []

    def walk(j, k, rem, chain):
        i = index.get((j, k))
        if i is not None:
            chain = sorted(chain + [i])
        if (j, k) in inner:
            for x in alphabet:
                walk(j + (x,), k + (x,), rem - 1, chain)
            return
        # every leaf below sums the same terms, in term order as the loop does
        s = 0.0
        for t in chain:
            s = s + coeffs[t]
        s = complex(s)
        if not abs(s) <= PRUNE_TOL:
            blocks.append((chain[0], j, k, rem, s))

    for i, ((j, k), d) in enumerate(zip(a.terms, tails)):
        if i not in nested:
            walk(j, k, d, [])
    # a leaf's key is first inserted by its first term, in the order of its
    # tail from there: the depth-first order, which a stable sort keeps
    blocks.sort(key=lambda block: block[0])
    out: dict = {}
    with _collector_paused():
        for _, j, k, rem, s in blocks:
            for tail in itertools.product(alphabet, repeat=rem):
                out[j + tail, k + tail] = s
    return AlgebraElement(a.n, out)


def leavitt_form(a: AlgebraElement) -> AlgebraElement:
    """Canonical form modulo both relations.

    The words s_J s_K* in which J and K do not both end in the letter N
    form a basis of the algebra with both relations, the Leavitt algebra
    L(1, N) (the "special edge" basis of Abrams-Aranda Pino and of
    Alahmadi-Alsulami-Jain-Zelmanov).  Writing s_N s_N* = I - sum_{i<N}
    s_i s_i* rewrites s_{JN} s_{KN}* into s_J s_K* - sum_{i<N} s_{Ji} s_{Ki}*;
    only the shorter first word can again end in N on both sides.  A term
    J0 N^t, K0 N^t therefore becomes, after all t steps,

        s_{J0} s_{K0}* - sum_{r<t} sum_{i<N} s_{J0 N^r i} s_{K0 N^r i}*,

    and no word of the result ends in N on both sides.  Two elements are
    equal modulo both relations exactly when leavitt_form(a - b) is zero.
    """
    n = a.n
    out: dict = {}
    for (j, k), c in a.terms.items():
        t = 0
        while t < min(len(j), len(k)) and j[-1 - t] == n and k[-1 - t] == n:
            t += 1
        j0, k0 = j[: len(j) - t], k[: len(k) - t]
        out[(j0, k0)] = out.get((j0, k0), 0.0) + c
        for r in range(t):
            for i in range(1, n):
                key = (j0 + (n,) * r + (i,), k0 + (n,) * r + (i,))
                out[key] = out.get(key, 0.0) - c
    return AlgebraElement._from_words(n, out)


# ----------------------------------------------------------------------
# structural maps

def gauge_action(c, a: AlgebraElement) -> AlgebraElement:
    """The circle action: s_i -> c s_i, so s_J s_K* picks up c^(|J|-|K|)."""
    c = _unimodular(c, "gauge parameter")
    return AlgebraElement._from_words(
        a.n,
        {(j, k): coeff * c ** (len(j) - len(k)) for (j, k), coeff in a.terms.items()},
    )


def _check_unitary(g, n: int):
    g = np.asarray(g, dtype=complex)
    if g.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {g.shape}")
    _check_near(g @ g.conj().T, np.eye(n), f"matrix is not unitary within {UNIT_TOL}")
    return g


def _segments(start, length):
    """(owner, position) for the concatenated ranges start[i] .. start[i] +
    length[i] - 1, each position with the index i of its range."""
    owner = np.repeat(np.arange(len(length)), length)
    shift = np.repeat(start - (np.cumsum(length) - length), length)
    return owner, np.arange(owner.size) + shift


def _distinct(keys, space: int):
    """(the distinct keys in increasing order, the index of each key among
    them), as `np.unique(keys, return_inverse=True)` gives them, for keys
    in range(space).  When the space is at most four times the number of
    keys, a table over the space replaces the sort: it costs less, and a
    process that never sorts never pages in numpy's sort kernels, which
    adds a quarter of a megabyte or more to its resident size."""
    if space > 4 * len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(space, bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def _merge(keys, vals, height: int, width: int):
    """Sum the values that share a key row * width + col, for rows in
    range(height) and columns in range(width); returns the distinct rows
    and columns, sorted by (row, col), and the sums."""
    keys, slot = _distinct(keys, height * width)
    sums = np.empty(len(keys), dtype=complex)
    sums.real = np.bincount(slot, vals.real, len(keys))
    sums.imag = np.bincount(slot, vals.imag, len(keys))
    return keys // width, keys % width, sums


def _suffix_ids(letters, n: int):
    """Compact ids of the suffixes letters[t, i:] of the rows of an array
    of letters in range(n).

    Returns the id of each row at position 0 and, per position i, the
    first letter and the id of the rest (at i + 1) of each suffix id,
    plus the number of suffix ids at each position; a suffix is numbered
    from the pair (first letter, id of the rest) in sorted order, so no
    id grows like n^m.
    """
    count = [1] * (letters.shape[1] + 1)
    first, rest = [], []
    ids = np.zeros(len(letters), np.intp)
    for i in range(letters.shape[1] - 1, -1, -1):
        keys, ids = _distinct(letters[:, i] * count[i + 1] + ids, n * count[i + 1])
        first.append(keys // count[i + 1])
        rest.append(keys % count[i + 1])
        count[i] = len(keys)
    return ids, first[::-1], rest[::-1], count


def _row_words(letters, n: int) -> list:
    """The rows of an array of letters in range(n) as words over 1..n, one
    tuple per distinct row."""
    ids, count = _suffix_ids(letters, n)[::3]
    first_row = np.zeros(count[0], np.intp)
    first_row[ids] = np.arange(len(ids))
    table = [tuple(row) for row in (letters[first_row] + 1).tolist()]
    return [table[i] for i in ids.tolist()]


def _act_on_block(g, la, lb, word_letters, coeffs):
    """Terms of sum_t c_t u_J u_K^H over one block's terms (J, K), c_t,
    all with |J| = la and |K| = lb, where u_J = G^{(x)la} e_J; row t of
    `word_letters` holds the letters of J K minus one.

    The coefficients form a sparse tensor over the la + lb letter axes of
    J K; G acts on the first la axes and conj(G) on the last lb, one axis
    at a time.  An entry is a pair (head, suffix): the head ids the image
    letters on the axes already acted on, the suffix the term letters
    still to act on, both numbered compactly (a head from its previous
    head and new letter, in sorted order), so words of any length fit in
    int64.  Acting on an axis extends each entry by the entries of one
    column of G above PRUNE_TOL; entries that meet are summed and those at
    or below PRUNE_TOL dropped, as `multiply` drops them (NaN is kept).  No
    step holds more entries than the sum over terms of |u_J| |u_K|, an
    image counted by the entries above PRUNE_TOL in the columns its letters
    pick, and a monomial G keeps one entry per term.
    """
    n = g.shape[0]
    col_of, col_rows = np.nonzero(np.abs(g.T) > PRUNE_TOL)
    col_vals = g[col_rows, col_of]
    col_len = np.bincount(col_of, minlength=n)
    col_start = np.cumsum(col_len) - col_len

    size = la + lb
    suffix, first, rest, count = _suffix_ids(word_letters, n)
    head, heads = np.zeros(len(coeffs), np.intp), 1
    vals = np.array(coeffs, complex)
    parent, letter = [], []
    for axis in range(size):
        x = first[axis][suffix]
        entry, at = _segments(col_start[x], col_len[x])
        # the key (head * n + new letter) * count + rest of each extended
        # entry, built in place: fewer live arrays keep the process smaller
        keys = head[entry]
        keys *= n
        keys += col_rows[at]
        keys *= count[axis + 1]
        keys += rest[axis][suffix[entry]]
        vals = vals[entry]
        vals *= col_vals[at] if axis < la else np.conj(col_vals[at])
        del x, entry, at
        pairs, suffix, vals = _merge(keys, vals, heads * n, count[axis + 1])
        del keys
        keep = ~(np.abs(vals) <= PRUNE_TOL)
        if not keep.all():
            pairs, suffix, vals = pairs[keep], suffix[keep], vals[keep]
        # pairs come sorted, so each run of equal pairs is one new head
        new = np.ones(len(pairs), bool)
        new[1:] = pairs[1:] != pairs[:-1]
        head = np.cumsum(new) - 1
        parent.append(pairs[new] // n)
        letter.append(pairs[new] % n)
        heads = len(parent[-1])
    # each entry's K letters, then its head at level la, which ids its J
    k_letters = np.empty((len(head), lb), np.intp)
    for axis in range(size - 1, la - 1, -1):
        k_letters[:, axis - la] = letter[axis][head]
        head = parent[axis][head]
    at = np.arange(len(parent[la - 1]) if la else 1)
    j_letters = np.empty((len(at), la), np.intp)
    for axis in range(la - 1, -1, -1):
        j_letters[:, axis] = letter[axis][at]
        at = parent[axis][at]
    table = [tuple(w) for w in (j_letters + 1).tolist()]
    words = zip([table[i] for i in head.tolist()], _row_words(k_letters, n))
    return zip(words, vals.tolist())


def unitary_action(g, a: AlgebraElement) -> AlgebraElement:
    """The canonical U(N) action: s_i -> sum_j g[j,i] s_j, *-compatibly.

    The image of s_i is the combination of generators with coefficients
    read down the i-th column of g, so c s_J s_K* goes to
    c (G^{(x)|J|} e_J)(G^{(x)|K|} e_K)^H read as a matrix over the words
    of lengths |J| and |K|.  The terms of one block (|J|, |K|) are acted
    on together, letter axis by letter axis, as one sparse tensor
    (`_act_on_block`): terms whose images meet are merged as they go, no
    step holds more entries than the sum over terms of |u_J| |u_K|, and a
    permutation or diagonal g keeps every term a single word at any length.
    A sum over EXPAND_BUDGET raises ValueError before any block is acted on.
    """
    g = _check_unitary(g, a.n)
    blocks: dict = {}
    for (j, k), c in a.terms.items():
        words, coeffs = blocks.setdefault((len(j), len(k)), ([], []))
        words.append(j + k)
        coeffs.append(c)
    letters = {
        lens: np.array(words, np.intp).reshape(len(words), sum(lens)) - 1
        for lens, (words, _) in blocks.items()
    }
    _check_action_size(g, letters.values())
    out: dict = {}
    for (la, lb), (_, coeffs) in blocks.items():
        out.update(_act_on_block(g, la, lb, letters[la, lb], coeffs))
    return AlgebraElement(a.n, out)


def _check_action_size(g, letter_blocks) -> None:
    """Refuse, before acting, images of more than EXPAND_BUDGET entries in
    all: the sum over terms of |u_J| |u_K|, where each letter multiplies an
    image's size by the count of entries above PRUNE_TOL in the column of
    G it picks.  Sizes add up as base-2 logarithms, so a long word builds
    no huge integer."""
    col_len = np.count_nonzero(np.abs(g) > PRUNE_TOL, axis=0)
    log_len = np.log2(col_len)
    logs = np.concatenate([np.zeros(0)] + [log_len[w].sum(axis=1) for w in letter_blocks])
    if logs.max(initial=0.0) >= EXPAND_BUDGET.bit_length():
        raise ValueError(
            f"unitary_action would generate at least 2^{int(logs.max())} entries, "
            f"over the budget of {EXPAND_BUDGET}"
        )
    # each term now has fewer than 2^23 entries, so int64 products are exact
    count = sum(int(col_len[w].prod(axis=1).sum()) for w in letter_blocks)
    if count > EXPAND_BUDGET:
        raise ValueError(
            f"unitary_action would generate {count} entries, over the budget of {EXPAND_BUDGET}"
        )


def conditional_expectation(a: AlgebraElement) -> AlgebraElement:
    """Gauge averaging: keep exactly the terms with |J| = |K|.

    Projects onto the fixed-point subalgebra of the circle action; it is
    idempotent and commutes with the adjoint.
    """
    return AlgebraElement._from_words(
        a.n, {(j, k): c for (j, k), c in a.terms.items() if len(j) == len(k)}
    )


def car_generator(n: int) -> AlgebraElement:
    """Image of the n-th CAR generator inside the rank-2 algebra.

    a_1 -> s_1 s_2*, and for n >= 2 the sum over J in {1,2}^(n-1) of
    s_J s_1 s_2* s_J* signed by the parity automorphism s_2 -> -s_2,
    which contributes (-1)^(number of 2s in J).
    """
    if n < 1:
        raise ValueError("generator index must be >= 1")
    terms = {}
    for j in itertools.product((1, 2), repeat=n - 1):
        sign = -1.0 if sum(1 for x in j if x == 2) % 2 else 1.0
        terms[(j + (1,), j + (2,))] = sign
    return AlgebraElement._from_words(2, terms)


def s_of(vectors, n: int | None = None) -> AlgebraElement:
    """s(z) = z_1 s_1 + ... + z_N s_N, extended to products over factor lists.

    `vectors` is one unit vector or an ordered sequence of unit vectors;
    a k-factor input yields the normal form of s(z^(1)) ... s(z^(k)).
    """
    arr = np.asarray(vectors, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("expected a vector or a sequence of vectors")
    if n is None:
        n = arr.shape[1]
    elif arr.shape[1] != n:
        raise RankMismatchError(f"vectors live in C^{arr.shape[1]}, expected C^{n}")
    _check_near(np.linalg.norm(arr, axis=1), 1.0,
                f"factors must be unit vectors within {UNIT_TOL}")
    out = identity(n)
    for row in arr:
        factor = AlgebraElement._from_words(
            n, {((i,), ()): row[i - 1] for i in range(1, n + 1)}
        )
        out = multiply(out, factor)
    return out
