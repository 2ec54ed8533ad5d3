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
with shortest round-tripping float literals; parse(format(a)) == a.  It
renders each distinct word once per call and joins the terms once, so
its cost is close to that of the float reprs.  Neither side accepts a
coefficient that is infinite or NaN: `parse` raises ExprSyntaxError when
its result holds one, and `format_element` raises ValueError.
"""

from __future__ import annotations

import cmath
import math
import re

from ._policy import PRUNE_TOL, _check_integer
from .algebra import (
    AlgebraElement,
    check_finite,
    identity,
    multiply,
    term_sort_key,
    word_element,
)


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
        _check_integer(n, "rank")
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
            return AlgebraElement._from_words(self.n, {((), ()): coeff})
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
                if abs(terms[key]) <= PRUNE_TOL:
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
        elem = self._materialize(out)
        # an overflow anywhere leaves an inf or NaN coefficient in the result
        try:
            check_finite(elem.terms)
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), 0) from None
        return elem

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
            value = float(text)
            if value == math.inf:
                raise ExprSyntaxError(f"number {text} is out of range", pos)
            return (value, None)
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
                try:
                    return (func(value), None)
                except OverflowError:
                    raise ExprSyntaxError(f"{text} overflows", pos) from None
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

def format_element(a: AlgebraElement) -> str:
    """Canonical text form; deterministic, and parse(format(a)) == a.

    Each distinct word J and K is rendered once, each term becomes one
    piece with its scalar written inline, and the pieces are joined once,
    so a call costs little beyond the reprs of its coefficients.  A
    non-finite coefficient has no text that parses back: ValueError.
    """
    terms = a.terms
    if not terms:
        return "0"
    check_finite(terms)
    left_text: dict = {}
    right_text: dict = {}
    # word texts carry their leading space: " s1 s3", " s2* s1*", joined
    # from the texts of their letters 1..N
    letters = {x: f" s{x}" for x in range(1, a.n + 1)}
    adjoints = {x: f" s{x}*" for x in range(1, a.n + 1)}
    pieces = []
    append = pieces.append
    for key in sorted(terms, key=term_sort_key):
        j, k = key
        left = left_text.get(j)
        if left is None:
            left = left_text[j] = "".join(map(letters.__getitem__, j))
        right = right_text.get(k)
        if right is None:
            right = right_text[k] = "".join(map(adjoints.__getitem__, reversed(k)))
        c = terms[key]
        real, imag = c.real, c.imag
        # the sign is pulled out so that the leading nonzero part is positive
        if real < 0 or (real == 0 and imag < 0):
            sign = " - "
            real, imag = -real, -imag
        else:
            sign = " + "
        if imag == 0:
            if real == 1:
                append(sign + ((left + right)[1:] or "I"))
            else:
                append(f"{sign}{real!r}{left}{right}")
        elif real == 0:
            scalar = "i" if imag == 1 else f"{imag!r}i"
            append(f"{sign}{scalar}{left}{right}")
        elif imag > 0:
            append(f"{sign}({real!r}+{imag!r}i){left}{right}")
        else:
            append(f"{sign}({real!r}-{-imag!r}i){left}{right}")
    first = pieces[0]
    pieces[0] = ("-" if first[1] == "-" else "") + first[3:]
    return "".join(pieces)
