"""Normal-form arithmetic in the *-algebra on N isometries s_1, ..., s_N.

The defining relations are s_i* s_j = delta_ij I together with
s_1 s_1* + ... + s_N s_N* = I.  Every product of generators and adjoints
reduces to a word s_J s_K* for multi-indices J, K over {1, ..., N} (the
empty index stands for I on its side), so elements are stored as finite
complex combinations of such words.  The first relation is applied as a
rewrite on every product.  The range relation is decided by
`leavitt_form`, which rewrites an element onto the basis of words s_J s_K*
in which J and K do not both end in the letter N; two elements are equal
modulo both relations exactly when their difference has zero Leavitt
form.  `expand_identity` pushes all terms to a common sandwich depth
instead; it serves `normalize --expand` and is the independent oracle
the tests compare `leavitt_form` against.

Coefficients are double precision; anything below PRUNE_TOL is dropped.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

PRUNE_TOL = 1e-12
# most terms expand_identity may generate before merging them
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
    """Terms with complex coefficients above PRUNE_TOL; keys are kept as given."""
    out = {}
    for key, c in terms.items():
        c = complex(c)
        if abs(c) > PRUNE_TOL:
            out[key] = c
    return out


def term_sort_key(key):
    """Canonical term order: (|J|, J lexicographic, |K|, K lexicographic)."""
    j, k = key
    return (len(j), j, len(k), k)


@dataclass(frozen=True)
class AlgebraElement:
    """Finite combination sum_c c * s_J s_K* in normal form.

    `terms` maps (J, K) pairs of letter tuples to nonzero complex
    coefficients.  Use `AlgebraElement.from_terms` (or the module-level
    constructors) so pruning and letter validation happen uniformly.
    """

    n: int
    terms: dict

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2")

    @classmethod
    def from_terms(cls, n: int, terms) -> "AlgebraElement":
        return cls(
            n, {(_as_word(j, n), _as_word(k, n)): c for (j, k), c in _pruned(terms).items()}
        )

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

    Each cross term s_J s_K* s_L s_M* reduces by cancelling the overlap
    of K against L: when K is a prefix of L the leftover letters of L
    migrate into J; when L is a prefix of K the leftover letters of K
    migrate into M; otherwise the term vanishes.
    """
    if a.n != b.n:
        raise RankMismatchError(f"rank mismatch: {a.n} vs {b.n}")
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
    more than EXPAND_BUDGET terms raises ValueError before generating any.
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
    out: dict = {}
    alphabet = range(1, a.n + 1)
    for ((j, k), c), d in zip(a.terms.items(), tails):
        for tail in itertools.product(alphabet, repeat=d):
            key = (j + tail, k + tail)
            out[key] = out.get(key, 0.0) + c
    return AlgebraElement._from_words(a.n, out)


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
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-10:
        raise ValueError("gauge parameter must be unimodular")
    return AlgebraElement._from_words(
        a.n,
        {(j, k): coeff * c ** (len(j) - len(k)) for (j, k), coeff in a.terms.items()},
    )


def _check_unitary(g, n: int):
    g = np.asarray(g, dtype=complex)
    if g.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {g.shape}")
    if np.max(np.abs(g @ g.conj().T - np.eye(n))) > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    return g


def unitary_action(g, a: AlgebraElement) -> AlgebraElement:
    """The canonical U(N) action: s_i -> sum_j g[j,i] s_j, *-compatibly.

    The image of s_i is the combination of generators with coefficients
    read down the i-th column of g.
    """
    g = _check_unitary(g, a.n)
    images = [
        AlgebraElement._from_words(
            a.n, {((j,), ()): g[j - 1, i - 1] for j in range(1, a.n + 1)}
        )
        for i in range(1, a.n + 1)
    ]
    out: dict = {}
    for (j, k), c in a.terms.items():
        left = identity(a.n)
        for x in j:
            left = multiply(left, images[x - 1])
        right = identity(a.n)
        for x in k:
            right = multiply(right, images[x - 1])
        piece = multiply(left, right.adjoint())
        for key, val in piece.terms.items():
            out[key] = out.get(key, 0.0) + c * val
    return AlgebraElement._from_words(a.n, out)


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
    out = identity(n)
    for row in arr:
        if abs(np.linalg.norm(row) - 1.0) > 1e-10:
            raise ValueError("factors must be unit vectors within 1e-10")
        factor = AlgebraElement._from_words(
            n, {((i,), ()): row[i - 1] for i in range(1, n + 1)}
        )
        out = multiply(out, factor)
    return out
