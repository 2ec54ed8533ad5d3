"""The benchmark's calls into gpcuntz, one span per call.

Only names exported from `gpcuntz` and `gpcuntz.cli.main` are used.  The
counts recorded beside a span are computed from the call's inputs and
outputs, so they cost nothing inside the span.
"""

from __future__ import annotations

import contextlib
import io

import gpcuntz as g
import gpcuntz.cli as cli


def adjoint(rec, a):
    with rec.span("algebra.adjoint"):
        return a.adjoint()


def multiply(rec, a, b):
    with rec.span("algebra.multiply"):
        out = g.multiply(a, b)
    rec.add("algebra.multiply.calls", 1)
    rec.add("algebra.multiply.pairs", len(a.terms) * len(b.terms))
    rec.add("algebra.multiply.terms_out", len(out.terms))
    return out


def s_of(rec, vectors):
    with rec.span("algebra.s_of"):
        return g.s_of(vectors)


def unitary_action(rec, unitary, a):
    with rec.span("algebra.unitary_action"):
        return g.unitary_action(unitary, a)


def expand_identity(rec, a, depth):
    with rec.span("algebra.expand_identity"):
        out = g.expand_identity(a, depth)
    if rec.enabled and a.terms:
        target = max(min(len(j), len(k)) for j, k in a.terms) + depth
        generated = sum(a.n ** (target - min(len(j), len(k))) for j, k in a.terms)
        rec.add("algebra.expand_identity.terms_generated", generated)
        rec.add("algebra.expand_identity.terms_kept", len(out.terms))
    return out


def parse(rec, text, n):
    with rec.span("expressions.parse"):
        out = g.parse(text, n)
    rec.add("expressions.chars", len(text))
    return out


def format_element(rec, a):
    with rec.span("expressions.format"):
        text = g.format_element(a)
    rec.add("expressions.chars", len(text))
    return text


def state_eval(rec, param, a):
    with rec.span("states.evaluate"):
        value = g.state_eval(param, a)
    rec.add("states.evaluate.terms", len(a.terms))
    return value


def gram_matrix(rec, param, elements):
    with rec.span("states.gram_matrix"):
        out = g.gram_matrix(param, elements)
    rec.add("states.gram_matrix.entries", out.size)
    return out


def diagnostics(rec, chain, p_max, m_max):
    with rec.span("params.diagnostics"):
        table = g.asymptotic_diagnostics(chain, p_max, m_max)
    rec.add("params.diagnostics.factors", m_max + p_max)
    return table


def decide(rec, fn, *args):
    """A periodicity, equivalence or root decision from `gpcuntz.params`."""
    with rec.span("params.decide"):
        return fn(*args)


def build(rec, fn, *args):
    with rec.span("reps.build"):
        rep = fn(*args)
    rec.add("reps.build.dim", rep.dim)
    rec.add("reps.build.nnz", sum(m.nnz for m in rep.gens))
    return rep


def verify(rec, rep):
    with rec.span("reps.verify"):
        return g.verify_gp(rep)


def export(rec, fn, rep):
    with rec.span("reps.export"):
        return fn(rep)


def decision(rec, fn, *args):
    """A verdict from `gpcuntz.classify`."""
    with rec.span("classify"):
        return fn(*args)


def cli_main(rec, argv):
    """Run one CLI query in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with rec.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()
