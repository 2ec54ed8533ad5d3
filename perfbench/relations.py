"""relations: sparse deep words and equality modulo the range relation.

Each job runs `car-check --n-max 6` in process, multiplies seeded sparse
elements at N=2..4 whose words reach length ~12 (most cross pairs cancel),
and runs `expand_identity` zero tests on pairs that are equal by
construction or perturbed by 1e-3.
"""

from __future__ import annotations

import itertools
import json

import calls
import gpcuntz as g
from inputs import rng_for
from oracle import expect, terms_distance

RANKS = (2, 3, 4)
PRODUCT_TERMS = 30
MAX_WORD = 6
# (|J|, |K|) of the base element of a zero test, and how many levels of
# sum_i s_i s_i* = I each term is rewritten through in its equal partner
PROFILE = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2))
REWRITE = (1, 0, 2, 1, 0, 1)
ZERO_DEPTH = 3
PERTURBATION = 1e-3
TOL = 1e-9


def _coeff(rng):
    return complex(rng.normal(), rng.normal())


def _word(rng, n, length):
    return tuple(int(a) for a in rng.integers(1, n + 1, length))


def _sparse(rng, n):
    terms = {}
    while len(terms) < PRODUCT_TERMS:
        lengths = rng.integers(0, MAX_WORD + 1, 2)
        terms[(_word(rng, n, lengths[0]), _word(rng, n, lengths[1]))] = _coeff(rng)
    return g.AlgebraElement.from_terms(n, terms)


def _rewritten(terms, n):
    """The same element with term t pushed REWRITE[t] levels through the range relation."""
    out = {}
    for ((j, k), c), levels in zip(terms.items(), REWRITE):
        for tail in itertools.product(range(1, n + 1), repeat=levels):
            out[(j + tail, k + tail)] = out.get((j + tail, k + tail), 0.0) + c
    return out


def make(seed, index):
    rng = rng_for(seed, index)
    products = [(_sparse(rng, n), _sparse(rng, n)) for n in RANKS]
    zero_tests = []
    for n in RANKS:
        base = {(_word(rng, n, a), _word(rng, n, b)): _coeff(rng) for a, b in PROFILE}
        a = g.AlgebraElement.from_terms(n, base)
        b = g.AlgebraElement.from_terms(n, _rewritten(base, n))
        zero_tests.append((a - b, True))
        bump = g.word_element(n, _word(rng, n, 2), _word(rng, n, 1), PERTURBATION)
        zero_tests.append((a - (b + bump), False))
    return {"products": products, "zero_tests": zero_tests}


def job(rec, inp):
    code, text = calls.cli_main(rec, ["car-check", "--n-max", "6", "-f", "json"])
    products = []
    for a, b in inp["products"]:
        products.append(calls.multiply(rec, a, b))
        products.append(calls.multiply(rec, b, a))
    expanded = [calls.expand_identity(rec, diff, ZERO_DEPTH) for diff, _ in inp["zero_tests"]]
    return {"code": code, "text": text, "products": products, "expanded": expanded}


def reduce_word(j1, k1, j2, k2):
    """(J, K) of s_J1 s_K1* s_J2 s_K2*, or None when it vanishes.

    Letters are +x for s_x and -x for s_x*; s_x* s_y reduces to delta_xy.
    """
    stack = []
    for letter in (*j1, *(-x for x in reversed(k1)), *j2, *(-x for x in reversed(k2))):
        if letter > 0 and stack and stack[-1] < 0:
            if stack.pop() != -letter:
                return None
        else:
            stack.append(letter)
    left = tuple(x for x in stack if x > 0)
    right = tuple(-x for x in reversed(stack) if x < 0)
    return left, right


def reference_product(a, b):
    out = {}
    for (j1, k1), c1 in a.terms.items():
        for (j2, k2), c2 in b.terms.items():
            key = reduce_word(j1, k1, j2, k2)
            if key is not None:
                out[key] = out.get(key, 0.0) + c1 * c2
    return out


def check(rec, inp, out):
    expect(out["code"] == 0, "cli", f"car-check exited {out['code']}")
    report = json.loads(out["text"])
    expect(len(report["pairs"]) == 36 and len(report["fock"]) == 6, "cli", "car-check incomplete")
    expect(report["max_residual"] <= TOL, "cli", f"CAR residual {report['max_residual']!r}")
    pairs = [(a, b) for a, b in inp["products"] for a, b in ((a, b), (b, a))]
    for (a, b), prod in zip(pairs, out["products"]):
        expect(terms_distance(prod.terms, reference_product(a, b)) < 1e-10,
               "algebra", "sparse product disagrees with the reference reduction")
    for (_, equal), expanded in zip(inp["zero_tests"], out["expanded"]):
        residual = expanded.sup_norm()
        if equal:
            expect(residual <= TOL, "algebra", f"equal pair judged nonzero ({residual!r})")
        else:
            expect(residual > 0.1 * PERTURBATION, "algebra", "perturbed pair judged zero")
