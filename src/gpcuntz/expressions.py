"""Text syntax for algebra elements: a small parser and a canonical printer.

Grammar (EBNF):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (factor | '/' factor)*
    factor  := atom ('*' | '^*')*
    atom    := 'I' | 'i' | 'pi' | NUMBER | GENERATOR
             | ('sqrt' | 'exp') '(' expr ')' | '(' expr ')'

GENERATOR is the letter 's' immediately followed by digits (`s1`, `s12`).
Juxtaposition multiplies; `*` is always the postfix adjoint, never a
multiplication sign.  `/` divides by a scalar subexpression, and the
arguments of sqrt/exp must evaluate to scalars, so constants such as
`(1/sqrt(2))(s1+s2)` or `exp(i pi 2/3) s1` are exact at parse time.

`format_element` prints terms in the canonical order (|J|, J, |K|, K)
with shortest round-tripping float literals; parse(format(a)) == a.
"""

from __future__ import annotations

import cmath
import math
import re

from .algebra import PRUNE_TOL, AlgebraElement, identity, multiply, word_element


class ExprSyntaxError(ValueError):
    """Parse failure; `position` is the byte offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<gen>s\d+)
      | (?P<name>[A-Za-z]+)
      | (?P<op>\^\*|[()+\-*/])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over (scalar, element-or-None) pairs.

    Keeping the scalar prefactor separate until a value is materialized
    lets tiny literals combine into full coefficients before the element
    pruning tolerance applies, so parse(format(a)) recovers a exactly.
    """

    def __init__(self, text: str, n: int):
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect(self, text: str):
        tok = self._next()
        if tok[1] != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok[1]!r}", tok[2])

    # pair arithmetic ----------------------------------------------------
    def _materialize(self, pair) -> AlgebraElement:
        coeff, elem = pair
        if elem is None:
            return AlgebraElement.from_terms(self.n, {((), ()): coeff})
        return elem * coeff

    def _sum(self, summands):
        """The left fold of `summands` by pair addition, in one dict.

        A running sum of scalars stays a scalar.  Once an element enters,
        the pair fold would, at every step, materialize the running sum
        (multiplying each coefficient by 1.0), add the summand with
        `get(key, 0.0) + c` and prune a copy of the whole result.  Here the
        summand is added into one dict and only its keys are pruned.  The
        factor 1.0 leaves a nonzero coefficient unchanged once applied, so
        it is applied only to coefficients changed since the last step:
        all of them after the first step, the summand's keys after later
        ones.  Coefficients and key order come out as the fold gives them.
        """
        out, i = summands[0], 1
        while i < len(summands) and out[1] is None and summands[i][1] is None:
            out = (out[0] + summands[i][0], None)
            i += 1
        if i == len(summands):
            return out
        terms = dict(self._materialize(out).terms)
        changed = ()
        for step, pair in enumerate(summands[i:]):
            for key in changed:
                if key in terms:
                    terms[key] = terms[key] * 1.0
            piece = self._materialize(pair).terms
            for key, c in piece.items():
                terms[key] = terms.get(key, 0.0) + c
            for key in piece:
                if not abs(terms[key]) > PRUNE_TOL:
                    del terms[key]
            changed = piece if step else list(terms)
        return (1.0, AlgebraElement(self.n, terms))

    def _mul(self, a, b):
        coeff = a[0] * b[0]
        if a[1] is None:
            return (coeff, b[1])
        if b[1] is None:
            return (coeff, a[1])
        return (coeff, multiply(a[1], b[1]))

    def _scalar_of(self, pair, position: int) -> complex:
        coeff, elem = pair
        if elem is None:
            return coeff
        if not elem.terms:
            return 0.0
        if set(elem.terms) == {((), ())}:
            return coeff * elem.terms[((), ())]
        raise ExprSyntaxError("subexpression must be a scalar", position)

    # grammar rules ----------------------------------------------------
    def parse(self) -> AlgebraElement:
        out = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return self._materialize(out)

    def expr(self):
        negate = False
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            negate = True
        out = self.term()
        summands = [(-out[0], out[1]) if negate else out]
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in "+-":
                return self._sum(summands)
            self._next()
            rhs = self.term()
            summands.append((-rhs[0], rhs[1]) if tok[1] == "-" else rhs)

    def term(self):
        out = self.factor()
        while True:
            tok = self._peek()
            if tok is None:
                return out
            if tok[1] == "/":
                self._next()
                div_tok = self._peek()
                divisor = self._scalar_of(
                    self.factor(), div_tok[2] if div_tok else len(self.text)
                )
                if divisor == 0:
                    raise ExprSyntaxError("division by zero", tok[2])
                out = (out[0] / divisor, out[1])
            elif tok[0] in ("number", "gen") or tok[1] in ("I", "i", "pi", "sqrt", "exp", "("):
                out = self._mul(out, self.factor())
            else:
                return out

    def factor(self):
        out = self.atom()
        while True:
            tok = self._peek()
            if tok is not None and tok[1] in ("*", "^*"):
                self._next()
                coeff, elem = out
                out = (complex(coeff).conjugate(), None if elem is None else elem.adjoint())
            else:
                return out

    def atom(self):
        tok = self._next()
        kind, text, pos = tok
        if kind == "number":
            return (float(text), None)
        if kind == "gen":
            idx = int(text[1:])
            if not 1 <= idx <= self.n:
                raise ExprSyntaxError(
                    f"generator subscript {idx} out of range 1..{self.n}", pos
                )
            return (1.0, word_element(self.n, (idx,)))
        if kind == "name":
            if text == "I":
                return (1.0, identity(self.n))
            if text == "i":
                return (1j, None)
            if text == "pi":
                return (math.pi, None)
            if text in ("sqrt", "exp"):
                self._expect("(")
                inner = self.expr()
                self._expect(")")
                value = self._scalar_of(inner, pos)
                func = cmath.sqrt if text == "sqrt" else cmath.exp
                return (func(value), None)
            raise ExprSyntaxError(f"unknown symbol {text!r}", pos)
        if text == "(":
            inner = self.expr()
            self._expect(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(text: str, n: int) -> AlgebraElement:
    """Parse `text` over rank n and return its normal form."""
    return _Parser(text, n).parse()


# ----------------------------------------------------------------------
# printing

def _num(x: float) -> str:
    return repr(float(x))


def _scalar_text(c: complex) -> str:
    """Render a complex scalar whose leading nonzero part is positive."""
    if c.imag == 0:
        return _num(c.real)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        return _num(c.imag) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"({_num(c.real)}{sign}{_num(abs(c.imag))}i)"


def format_element(a: AlgebraElement) -> str:
    """Canonical text form; deterministic, and parse(format(a)) == a."""
    if not a.terms:
        return "0"
    rendered = []
    for (j, k), c in a.sorted_terms():
        negative = c.real < 0 or (c.real == 0 and c.imag < 0)
        if negative:
            c = -c
        word = " ".join(
            [f"s{x}" for x in j] + [f"s{x}*" for x in reversed(k)]
        )
        if not word:
            body = "I" if c == 1 else _scalar_text(c)
        elif c == 1:
            body = word
        else:
            body = f"{_scalar_text(c)} {word}"
        rendered.append((negative, body))
    negative, body = rendered[0]
    out = ("-" if negative else "") + body
    for negative, body in rendered[1:]:
        out += (" - " if negative else " + ") + body
    return out
