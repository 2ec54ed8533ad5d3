"""Exact evaluation of the parameter states on normal-form elements.

For a cycle parameter of length k the state sends s_J s_K* to
conj(z(J)) z(K) when |J| = |K| mod k and to 0 otherwise, where
z(J) = z^(1)_{j_1} ... z^(m)_{j_m} walks the factors with the k-periodic
extension.  For a chain parameter the same product formula applies but
only |J| = |K| survives.  Evaluation needs just the first max(|J|, |K|)
factors, so rotation and gray-zone chains work on demand.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, RankMismatchError, car_generator, multiply
from .params import ChainParam, CycleParam, basis_vector, explicit_chain, param_factor


class GPState:
    """State attached to a cycle or chain parameter."""

    def __init__(self, param):
        if not isinstance(param, (CycleParam, ChainParam)):
            raise TypeError("expected a cycle or chain parameter")
        self.param = param
        self.is_cycle = isinstance(param, CycleParam)

    @property
    def n(self) -> int:
        return self.param.n

    def factor(self, m: int) -> np.ndarray:
        return param_factor(self.param, m)

    def _letter_product(self, word) -> complex:
        out = 1.0 + 0.0j
        for pos, letter in enumerate(word, start=1):
            out *= param_factor(self.param, pos)[letter - 1]
            if out == 0.0:
                break
        return out

    def word_value(self, left, right) -> complex:
        """Value on s_J s_K* for J=left, K=right."""
        left, right = tuple(left), tuple(right)
        if self.is_cycle:
            if (len(left) - len(right)) % self.param.k != 0:
                return 0.0
        elif len(left) != len(right):
            return 0.0
        zj = self._letter_product(left)
        if zj == 0.0:
            return 0.0
        return np.conj(zj) * self._letter_product(right)

    def evaluate(self, a: AlgebraElement) -> complex:
        if a.n != self.n:
            raise RankMismatchError(f"rank mismatch: {a.n} vs {self.n}")
        return complex(
            sum(c * self.word_value(j, k) for (j, k), c in a.terms.items())
        )


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
    for i, a in enumerate(elements):
        a_star = a.adjoint()
        for j, b in enumerate(elements):
            if j < i:
                continue
            g[i, j] = state.evaluate(multiply(a_star, b))
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
    if abs(value.imag) > 1e-12:
        raise AssertionError("residual unexpectedly non-real")
    return float(value.real)
