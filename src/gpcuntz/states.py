"""Exact evaluation of the parameter states on normal-form elements.

For a cycle parameter of length k the state sends s_J s_K* to
conj(z(J)) z(K) when |J| = |K| mod k and to 0 otherwise, where
z(J) = z^(1)_{j_1} ... z^(m)_{j_m} walks the factors with the k-periodic
extension.  For a chain parameter the same product formula applies but
only |J| = |K| survives.  Evaluation needs just the first max(|J|, |K|)
factors, so rotation and gray-zone chains work on demand.

`evaluate` computes z(J) and its conjugate once per distinct word of the
element (and `gram_matrix` once per distinct word of all its entries),
keeping them only for that call.  Each term then costs two lookups and
the same scalar products, summed in the same order, as `word_value`
would spend on it, so the result is the same to the bit.
"""

from __future__ import annotations

import numpy as np

from .algebra import PRUNE_TOL, AlgebraElement, RankMismatchError, car_generator, multiply
from .params import (
    ChainParam,
    CycleParam,
    basis_vector,
    chain_factors,
    explicit_chain,
)


class GPState:
    """State attached to a cycle or chain parameter."""

    def __init__(self, param):
        if not isinstance(param, (CycleParam, ChainParam)):
            raise TypeError("expected a cycle or chain parameter")
        self.param = param
        self.is_cycle = isinstance(param, CycleParam)
        # chain factors 1..len(_chain_rows), generated in blocks on demand
        self._chain_rows = np.empty((0, param.n), dtype=complex)

    @property
    def n(self) -> int:
        return self.param.n

    def factor(self, m: int) -> np.ndarray:
        """Factor m: the cycle's rows repeat with period k; a chain's start at 1."""
        if self.is_cycle:
            return self.param.rows[(m - 1) % self.param.k]
        if m < 1:
            raise ValueError("chain factor index starts at 1")
        if m > len(self._chain_rows):
            count = max(m, 2 * len(self._chain_rows))
            if self.param.kind == "prefix":
                # the whole prefix at once; past its end chain_factors raises
                count = max(m, len(self.param.prefix))
            self._chain_rows = chain_factors(self.param, 1, count)
        return self._chain_rows[m - 1]

    def _letter_product(self, word) -> complex:
        out = 1.0 + 0.0j
        for pos, letter in enumerate(word, start=1):
            out *= self.factor(pos)[letter - 1]
            if out == 0.0:
                break
        return out

    def word_value(self, left, right) -> complex:
        """Value on s_J s_K* for J=left, K=right."""
        return self._word_value(tuple(left), tuple(right), {})

    def _word_value(self, left, right, memo: dict) -> complex:
        """`word_value`, with z(J) and its conjugate read from and added to
        `memo`, which maps a word to the pair."""
        if self.is_cycle:
            if (len(left) - len(right)) % self.param.k != 0:
                return 0.0
        elif len(left) != len(right):
            return 0.0
        zj, zj_bar = memo.get(left) or self._z(left, memo)
        if zj == 0.0:
            return 0.0
        return zj_bar * (memo.get(right) or self._z(right, memo))[0]

    def _z(self, word, memo: dict):
        """z(word) and its conjugate, stored in `memo`."""
        value = self._letter_product(word)
        pair = memo[word] = (value, np.conj(value))
        return pair

    def evaluate(self, a: AlgebraElement) -> complex:
        return self._evaluate(a, {})

    def _evaluate(self, a: AlgebraElement, memo: dict) -> complex:
        if a.n != self.n:
            raise RankMismatchError(f"rank mismatch: {a.n} vs {self.n}")
        word_value = self._word_value
        return complex(sum(c * word_value(j, k, memo) for (j, k), c in a.terms.items()))


def as_state(param_or_state) -> GPState:
    if isinstance(param_or_state, GPState):
        return param_or_state
    return GPState(param_or_state)


def state_eval_word(param, left, right) -> complex:
    return as_state(param).word_value(left, right)


def state_eval(param, a: AlgebraElement) -> complex:
    return as_state(param).evaluate(a)


def gram_matrix(param, elements) -> np.ndarray:
    """Hermitian matrix G[a, b] = omega(a* b) over the given elements."""
    state = as_state(param)
    elements = list(elements)
    size = len(elements)
    g = np.zeros((size, size), dtype=complex)
    memo: dict = {}
    for i, a in enumerate(elements):
        a_star = a.adjoint()
        for j, b in enumerate(elements):
            if j < i:
                continue
            g[i, j] = state._evaluate(multiply(a_star, b), memo)
            g[j, i] = np.conj(g[i, j])
    return g


def fock_annihilation_residual(n: int) -> float:
    """omega(phi(a_n)* phi(a_n)) in the constant e_1 chain state.

    The chain (e_1, e_1, ...) plays the vacuum: every CAR generator image
    annihilates it, so the residual vanishes.
    """
    if n < 1:
        raise ValueError("generator index must be >= 1")
    vacuum = GPState(explicit_chain([basis_vector(2, 1)]))
    a = car_generator(n)
    value = vacuum.evaluate(multiply(a.adjoint(), a))
    if not abs(value.imag) <= PRUNE_TOL:
        raise AssertionError("residual unexpectedly non-real")
    return float(value.real)
