"""Seeded input generation shared by the in-process workloads.

Seeds vary the values of the inputs, never their sizes: size parameters
that must vary from job to job (such as the number of diagnostics
summands) follow a fixed golden-ratio sequence in the job index, so every
run and every seed sees the same schedule of sizes.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0.6180339887498949


def rng_for(seed, index):
    """Generator for job `index` of a run (index -1 is the warm-up job)."""
    return np.random.default_rng([seed, index + 1])


def spread(index):
    """Low-discrepancy value in [0, 1) for job `index`."""
    return (index * GOLDEN) % 1.0


def unit_vectors(rng, count, n):
    z = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def coprime_rotation(rng):
    """A reduced fraction (a, b) with b in 3..8."""
    b = int(rng.integers(3, 9))
    a = int(rng.choice([a for a in range(1, b) if np.gcd(a, b) == 1]))
    return a, b


def tensor_terms(vectors):
    """{(J, ()): z_1[j_1] ... z_k[j_k]} for s(z_1) ... s(z_k), via Kronecker products."""
    n = len(vectors[0])
    coeffs = np.ones(1, dtype=complex)
    for v in vectors:
        coeffs = np.kron(coeffs, v)
    words = np.indices((n,) * len(vectors)).reshape(len(vectors), -1).T + 1
    return {(tuple(int(x) for x in w), ()): complex(c) for w, c in zip(words, coeffs)}
