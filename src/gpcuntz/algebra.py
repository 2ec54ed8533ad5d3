"""Normal-form arithmetic in the *-algebra on N isometries s_1, ..., s_N.

The defining relations are s_i* s_j = delta_ij I together with
s_1 s_1* + ... + s_N s_N* = I.  Every product of generators and adjoints
reduces to a word s_J s_K* for multi-indices J, K over {1, ..., N} (the
empty index stands for I on its side), so elements are stored as finite
complex combinations of such words.  The first relation is applied as a
rewrite on every product; `multiply` indexes its right factor by left word,
once per element, and visits only the pairs of terms that reduce.  The
range relation is decided by
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

Coefficients are double precision.  The package's one numeric policy, its
tolerance table, unit checks and collector pause, lives in
`gpcuntz._policy`; this module re-exports it, so `algebra.PRUNE_TOL` and
`algebra.RankMismatchError` are the same objects.  All values are
immutable after construction and every operation is pure.
Only the U(N) action and `s_of` use numpy; they do their work in
`gpcuntz._unitary`, which they import when called, so the word arithmetic
loads nothing outside the standard library, and a process that never calls
them neither imports numpy nor compiles that module.
"""

from __future__ import annotations

import cmath
import gc
import itertools
import math

# re-exported, so that the policy's names can be read here as well
from ._policy import (DEFAULT_TOL, PIVOT_TOL, PRUNE_TOL, UNIT_TOL, RankMismatchError,
                      _check_integer, _check_near, _collector_paused, _Record, _unimodular)

# most terms expand_identity may generate before merging them, and most
# entries unitary_action may hold
EXPAND_BUDGET = 1 << 22

Word = tuple[int, ...]


def _as_word(letters, n: int) -> Word:
    """The letters as a tuple of ints in 1..n.  A letter that int() would
    change or refuse, such as 1.7, inf or None, raises ValueError; numpy
    integers are taken."""
    letters = tuple(letters)
    try:
        word = tuple(map(int, letters))
    except (ValueError, OverflowError, TypeError):  # NaN, infinities, None
        word = None
    if word != letters:
        raise ValueError(f"letters must be integers, got {letters!r}")
    for x in word:
        if not 1 <= x <= n:
            raise ValueError(f"letter {x} outside alphabet 1..{n}")
    return word


def _prune_in_place(terms: dict) -> dict:
    """Drop from `terms` the coefficients within PRUNE_TOL of 0, in one pass
    that keeps the order of the rest, and store the others as complex; NaN
    is kept, for `check_finite` to see.  Returns `terms`."""
    drop = []
    for key, c in terms.items():
        if type(c) is not complex:
            c = terms[key] = complex(c)
        if abs(c) <= PRUNE_TOL:
            drop.append(key)
    for key in drop:
        del terms[key]
    return terms


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


def term_sort_key(key):
    """Canonical term order: (|J|, J lexicographic, |K|, K lexicographic)."""
    j, k = key
    return (len(j), j, len(k), k)


class AlgebraElement(_Record):
    """Finite combination sum_c c * s_J s_K* in normal form.

    `terms` maps (J, K) pairs of letter tuples to nonzero complex
    coefficients, and must not be mutated after construction: `multiply`
    keeps an index of an element's terms the first time the element is its
    right factor.  Use `AlgebraElement.from_terms` (or the module-level
    constructors) so pruning, letter validation and the finiteness check
    happen uniformly.
    """

    _fields = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        if n < 2:
            raise ValueError("rank must be at least 2")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_terms(cls, n: int, terms) -> "AlgebraElement":
        """The element of the given terms, read into a new dict: the caller's
        mapping is left as it was."""
        _check_integer(n, "rank")
        out = {}
        for (j, k), c in terms.items():
            c = complex(c)
            if not abs(c) <= PRUNE_TOL:
                out[_as_word(j, n), _as_word(k, n)] = c
        check_finite(out)
        return cls(n, out)

    @classmethod
    def _from_words(cls, n: int, terms: dict) -> "AlgebraElement":
        """Like `from_terms` for a new dict whose keys are already valid
        letter tuples, such as the words of an operation on valid elements;
        the dict is pruned in place and becomes the element's terms."""
        return cls(n, _prune_in_place(terms))

    def _right_index(self) -> "_RightIndex":
        """The index of these terms that `multiply` reads when this element
        is its right factor, built on first use and kept; it is not a field,
        so `==` and `repr` do not see it."""
        try:
            return self._index
        except AttributeError:
            index = _RightIndex(self.terms)
            object.__setattr__(self, "_index", index)
            return index

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
    by J2 within each length of J2 and, for each length |K1| that a needs,
    by J2[:|K1|] over the terms with |J2| >= |K1|; the index is built the
    first time b is a right factor and kept with b, and grows by the
    lengths |K1| later left factors need (`_RightIndex`).  A term of a then
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


class _RightIndex:
    """The terms of an element, indexed for `multiply`'s right factor.

    `keys` and `coeffs` list the terms' (J2, K2) keys and coefficients in
    term order, `by_word` maps each J2 to its positions in those lists (so
    it indexes within each length of J2), and `lengths` are the distinct
    |J2| in increasing order.  `heads(m)` maps J2[:m] to the positions of
    the terms with |J2| >= m; it is built the first time a left factor
    needs that |K1| = m and then kept.  Positions are in term order.

    The index lives as long as its element, so it holds few objects for
    the cyclic garbage collector: no (key, coefficient) pair per term, and
    the positions in tuples of ints, which the collector stops tracking
    after its first pass, where lists would be traced by every pass.
    """

    __slots__ = ("keys", "coeffs", "by_word", "lengths", "heads_by_len")

    def __init__(self, terms: dict):
        self.keys = list(terms)
        self.coeffs = list(terms.values())
        by_word: dict = {}
        for pos, (j2, _) in enumerate(self.keys):
            by_word.setdefault(j2, []).append(pos)
        self.by_word = {j2: tuple(found) for j2, found in by_word.items()}
        self.lengths = sorted({len(j2) for j2 in by_word})
        self.heads_by_len: dict = {}

    def heads(self, m: int) -> dict:
        heads = self.heads_by_len.get(m)
        if heads is None:
            # when no J2 is longer than m, J2[:m] is J2 itself
            if self.lengths and m < self.lengths[-1]:
                heads = {}
                for pos, (j2, _) in enumerate(self.keys):
                    if len(j2) >= m:
                        heads.setdefault(j2[:m], []).append(pos)
                heads = {head: tuple(found) for head, found in heads.items()}
            else:
                heads = self.by_word
            self.heads_by_len[m] = heads
        return heads


def _matched_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """`multiply` of two elements of the same rank."""
    index = b._right_index()
    keys, coeffs, by_word, lengths = index.keys, index.coeffs, index.by_word, index.lengths
    heads_by_len = index.heads_by_len
    out: dict = {}
    for (j1, k1), c1 in a.terms.items():
        m = len(k1)
        heads = heads_by_len.get(m) or index.heads(m)
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
            j2, k2 = keys[pos]
            c2 = coeffs[pos]
            if m <= len(j2):
                key = (j1 + j2[m:], k2)
            else:
                key = (j1, k2 + k1[len(j2):])
            out[key] = out.get(key, 0.0) + c1 * c2
    return AlgebraElement._from_words(a.n, out)


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
    _check_integer(depth, "depth")
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


def unitary_action(g, a: AlgebraElement) -> AlgebraElement:
    """The canonical U(N) action: s_i -> sum_j g[j,i] s_j, *-compatibly.

    The image of s_i is the combination of generators with coefficients
    read down the i-th column of g.  A sum over EXPAND_BUDGET raises
    ValueError before any term is acted on; `_unitary.unitary_action`
    says how the terms are acted on.
    """
    from . import _unitary

    return _unitary.unitary_action(g, a)


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
    _check_integer(n, "generator index")
    if n < 1:
        raise ValueError("generator index must be >= 1")
    terms = {}
    for j in itertools.product((1, 2), repeat=n - 1):
        sign = -1.0 if sum(1 for x in j if x == 2) % 2 else 1.0
        terms[(j + (1,), j + (2,))] = sign
    return AlgebraElement._from_words(2, terms)


# the factor e_1 of the vacuum's constant chain, as the states read it
_E1 = (1.0 + 0.0j, 0.0j)


def _vacuum_z(word) -> complex:
    """z(word) along the constant chain e_1: the running product of the
    entries, stopped when it reaches 0."""
    value = 1.0 + 0.0j
    for letter in word:
        value *= _E1[letter - 1]
        if value == 0.0:
            break
    return value


def _fock_vacuum(a: AlgebraElement) -> complex:
    """The Fock vacuum of the rank-2 algebra: s_J s_K* goes to 1 when
    J = K = 1^m and to 0 otherwise.

    It is the state of the constant chain e_1 (the Cuntz state of e_1), and
    every `car_generator` image annihilates it.  It is evaluated step for
    step as `states.GPState` evaluates that chain, so the two agree to the
    bit, signed zeros included: a left fold from the int 0 of c * value,
    where value is the float 0.0 when |J| != |K|, else conj(z(J)) z(K), or
    0.0 when z(J) is 0.
    """
    if a.n != 2:
        raise RankMismatchError(f"rank mismatch: {a.n} vs 2")
    total = 0
    for (j, k), c in a.terms.items():
        if len(j) != len(k):
            value = 0.0
        else:
            zj = _vacuum_z(j)
            value = 0.0 if zj == 0.0 else zj.conjugate() * _vacuum_z(k)
        total = total + c * value
    return complex(total)


def s_of(vectors) -> AlgebraElement:
    """s(z) = z_1 s_1 + ... + z_N s_N, extended to products over factor lists.

    `vectors` is one unit vector or an ordered sequence of unit vectors;
    a k-factor input yields the normal form of s(z^(1)) ... s(z^(k)).
    """
    from . import _unitary

    return _unitary.s_of(vectors)
