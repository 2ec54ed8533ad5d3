"""word-algebra: dense normal-form arithmetic at N=3.

Each job parses a 4-factor product s(x) from text, forms s(x), P*P and the
dense product P Q* (6561 terms), evaluates a cycle state on it, applies a
unitary to s(x) and to a 5+2-letter word, forms an 8x8 Gram matrix and
prints P Q*.  No range-relation equality and no representations are used.
"""

from __future__ import annotations

import re

import numpy as np

import calls
import gpcuntz as g
from inputs import random_unitary, rng_for, tensor_terms, unit_vectors
from oracle import expect, terms_distance

N = 3
TOL = 1e-10


def _scalar_text(c):
    sign = "-" if c.imag < 0 else "+"
    return f"({float(c.real)!r} {sign} {abs(float(c.imag))!r} i)"


def product_text(vectors):
    """s(z_1) ... s(z_k) written in the expression grammar."""
    return "".join(
        "(" + " + ".join(f"{_scalar_text(c)} s{i}" for i, c in enumerate(v, start=1)) + ")"
        for v in vectors
    )


def make(seed, index):
    rng = rng_for(seed, index)
    x, y, z = (unit_vectors(rng, 4, N) for _ in range(3))
    left = tuple(int(a) for a in rng.integers(1, N + 1, 5))
    right = tuple(int(a) for a in rng.integers(1, N + 1, 2))
    return {
        "x": x,
        "y": y,
        "z": z,
        "text": product_text(x),
        "cycle": g.cycle(z),
        "unitary": random_unitary(rng, N),
        "letters": (left, right),
        "word": g.word_element(N, left, right),
        "gram": [g.s_of(v) for v in (unit_vectors(rng, 3, N) for _ in range(8))],
    }


def job(rec, inp):
    p = calls.parse(rec, inp["text"], N)
    sx = calls.s_of(rec, inp["x"])
    q_star = calls.adjoint(rec, calls.s_of(rec, inp["y"]))
    pp = calls.multiply(rec, calls.adjoint(rec, p), p)
    pq = calls.multiply(rec, p, q_star)
    return {
        "p": p,
        "sx": sx,
        "pp": pp,
        "pq": pq,
        "value": calls.state_eval(rec, inp["cycle"], pq),
        "ux": calls.unitary_action(rec, inp["unitary"], sx),
        "uw": calls.unitary_action(rec, inp["unitary"], inp["word"]),
        "gram": calls.gram_matrix(rec, inp["cycle"], inp["gram"]),
        "text": calls.format_element(rec, pq),
    }


_TERM_SEP = re.compile(r" ([+-]) ")


def _read_scalar(tok):
    if tok == "i":
        return 1j
    if tok.startswith("("):
        body = tok[1:-2]
        cut = len(body)
        while True:  # the sign before the imaginary part, not one inside an exponent
            cut = max(body.rfind("+", 0, cut), body.rfind("-", 0, cut))
            if body[cut - 1] != "e":
                break
        return complex(float(body[:cut]), float(body[cut:]))
    if tok.endswith("i"):
        return 1j * float(tok[:-1])
    return float(tok)


def read_canonical(text):
    """Terms of a canonical printout, read without the program's parser."""
    pieces = _TERM_SEP.split(text)
    signs = ["+"] + pieces[1::2]
    terms = {}
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = "-", body[1:]
        toks = body.split(" ")
        coeff = 1.0
        if toks[0] == "I":
            toks = []
        elif not toks[0].startswith("s"):
            coeff = _read_scalar(toks[0])
            toks = toks[1:]
        left = tuple(int(t[1:]) for t in toks if not t.endswith("*"))
        right = tuple(int(t[1:-1]) for t in reversed(toks) if t.endswith("*"))
        terms[(left, right)] = -coeff if sign == "-" else coeff
    return terms


def check(rec, inp, out):
    x, y, z, u = inp["x"], inp["y"], inp["z"], inp["unitary"]
    sx = tensor_terms(x)
    sy = tensor_terms(y)
    expect(terms_distance(out["p"].terms, sx) < TOL, "expressions", "parse(text) != s(x)")
    expect(terms_distance(out["sx"].terms, sx) < TOL, "algebra", "s_of(x) wrong")
    expect(terms_distance(out["pp"].terms, {((), ()): 1.0}) < TOL, "algebra", "P*P != I")
    dense = {(j, k): c * d.conjugate() for (j, _), c in sx.items() for (k, _), d in sy.items()}
    expect(terms_distance(out["pq"].terms, dense) < TOL, "algebra", "P Q* wrong")

    overlap = np.prod(np.sum(z.conj() * x, axis=1)) * np.prod(np.sum(y.conj() * z, axis=1))
    expect(abs(out["value"] - overlap) < TOL, "states", "omega_z(P Q*) wrong")

    expect(terms_distance(out["ux"].terms, tensor_terms(x @ u.T)) < TOL,
           "algebra", "unitary_action(G, s(x)) != s(Gx)")
    left, right = (tensor_terms([u[:, a - 1] for a in word]) for word in inp["letters"])
    image = {(j, k): c * d.conjugate() for (j, _), c in left.items() for (k, _), d in right.items()}
    expect(terms_distance(out["uw"].terms, image) < TOL, "algebra", "unitary_action on a word wrong")

    gram = out["gram"]
    expect(np.max(np.abs(gram - gram.conj().T)) < TOL, "states", "Gram matrix not Hermitian")
    expect(np.min(np.linalg.eigvalsh(gram)) > -1e-9, "states", "Gram matrix not PSD")

    expect(terms_distance(read_canonical(out["text"]), out["pq"].terms) < TOL,
           "expressions", "printout does not read back as P Q*")
    expect(terms_distance(g.parse(g.format_element(out["p"]), N).terms, out["p"].terms) < TOL,
           "expressions", "parse(format(P)) != P")
