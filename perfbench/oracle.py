"""By-construction checks.  They run outside the timed window."""


class Failure(Exception):
    """An output that contradicts what its inputs imply."""

    def __init__(self, layer, message):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def expect(condition, layer, message):
    if not condition:
        raise Failure(layer, message)


def terms_distance(terms, expected):
    """Largest coefficient difference between two {(J, K): c} maps."""
    keys = set(terms) | set(expected)
    return max((abs(terms.get(k, 0.0) - expected.get(k, 0.0)) for k in keys), default=0.0)


def cycle_nnz_bounds(n, k, depth):
    """(low, high) nonzeros of each generator of a cycle rep of a generic cycle.

    S_i has k N^(D-1) columns times the nonzeros of row i of the unitary
    completing each factor, which is N for a generic factor, except that
    for N=3 entry (1, 3) is zero in exact arithmetic and may round to a
    tiny nonzero.
    """
    full = k * n ** depth
    low = full - (k * n ** (depth - 1) if n == 3 else 0)
    return [(low, full)] + [(full, full)] * (n - 1)
