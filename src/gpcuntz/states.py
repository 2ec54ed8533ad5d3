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
would spend on it, so the result is the same to the bit.  A state reads
its factor rows once as Python `complex`, and z(J) is a Python `complex`:
its products are the ones numpy's complex scalars give, at less cost.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, RankMismatchError, _as_word, _check_integer, multiply
from .params import ChainParam, CycleParam, chain_factors


class GPState:
    """State attached to a cycle or chain parameter."""

    def __init__(self, param):
        if not isinstance(param, (CycleParam, ChainParam)):
            raise TypeError("expected a cycle or chain parameter")
        self.param = param
        self.is_cycle = isinstance(param, CycleParam)
        # factors 1..len(_rows) as lists of Python complex: the chain factors
        # generated so far, or the cycle's rows repeated
        self._rows = param.rows.tolist() if self.is_cycle else []

    @property
    def n(self) -> int:
        return self.param.n

    def factor(self, m: int) -> np.ndarray:
        """Factor m: the cycle's rows repeat with period k; a chain's start at 1.
        A cycle's factor is a read-only view of its row, a chain's a new array."""
        _check_integer(m, "factor index")
        if self.is_cycle:
            return self.param.rows[(m - 1) % self.param.k]
        if m < 1:
            raise ValueError("chain factor index starts at 1")
        rows = self._rows if m <= len(self._rows) else self._more_rows(m)
        return np.array(rows[m - 1], dtype=complex)

    def _more_rows(self, count: int) -> list:
        """`_rows` extended to at least `count` factors: at least doubled, or
        for a prefix chain the whole prefix at once."""
        if self.is_cycle:
            k = self.param.k
            self._rows = self.param.rows.tolist() * max(-(-count // k), 2 * len(self._rows) // k)
        else:
            # past a prefix's end chain_factors raises
            grown = len(self.param.prefix) if self.param.kind == "prefix" else 2 * len(self._rows)
            self._rows = chain_factors(self.param, 1, max(count, grown)).tolist()
        return self._rows

    def word_value(self, left, right) -> complex:
        """Value on s_J s_K* for J=left, K=right, letters in 1..N."""
        return next(self._values([(_as_word(left, self.n), _as_word(right, self.n))], {}))

    def _values(self, words, memo: dict):
        """The value on s_J s_K* of each (J, K) in `words`, with z(J) and its
        conjugate read from and added to `memo`, which maps a word to the
        pair."""
        period = self.param.k if self.is_cycle else 0
        z = self._z
        for left, right in words:
            gap = len(left) - len(right)
            if gap % period if period else gap:
                yield 0.0
                continue
            zj, zj_bar = memo.get(left) or z(left, memo)
            yield 0.0 if zj == 0.0 else zj_bar * (memo.get(right) or z(right, memo))[0]

    def _z(self, word, memo: dict):
        """z(word) and its conjugate, stored in `memo`.  The factor entries
        are multiplied in order from 1, and a product that reaches 0 stops
        there, so no chain factor past it is generated."""
        rows = self._rows
        value = 1.0 + 0.0j
        for pos, letter in enumerate(word):
            if pos == len(rows):
                rows = self._more_rows(pos + 1)
            value *= rows[pos][letter - 1]
            if value == 0.0:
                break
        pair = memo[word] = (value, value.conjugate())
        return pair

    def evaluate(self, a: AlgebraElement) -> complex:
        return self._evaluate(a, {})

    def _evaluate(self, a: AlgebraElement, memo: dict) -> complex:
        if a.n != self.n:
            raise RankMismatchError(f"rank mismatch: {a.n} vs {self.n}")
        # a left fold from 0, as `sum` takes it
        total = 0
        for c, value in zip(a.terms.values(), self._values(a.terms, memo)):
            total = total + c * value
        return complex(total)


def as_state(param_or_state) -> GPState:
    if isinstance(param_or_state, GPState):
        return param_or_state
    return GPState(param_or_state)


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
