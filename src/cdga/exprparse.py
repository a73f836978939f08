"""Parser for polynomial expressions over a generator table.

Grammar (whitespace separates tokens but is otherwise ignored):

    polynomial := ['+'|'-'] term (('+'|'-') term)*
    term       := rational ('*'? factor)*  |  factor ('*'? factor)*
    factor     := NAME ('^' NATURAL)?
    rational   := NATURAL ('/' NATURAL)?
    NATURAL    := [0-9]+
    NAME       := a letter or '_', then letters, digits and '_'

NATURAL is ASCII digits only.  A name runs as long as it can, so two names
side by side need a space or '*' between them: with generators x and y,
"2x y^2" is 2 * x * y^2, while "2xy^2" names a generator "xy".  Both ASCII '-'
and the unicode minus sign are accepted.  Names are matched after NFC
normalization.  A bare rational denotes a constant (degree 0) term, so "0" is
the zero polynomial.

One regex splits the text into tokens; a character that starts no token is
reported before anything else.  Each term is folded into one {key:
coefficient} dict and the polynomial is built once, so parsing is linear in
the number of terms.  Errors carry 1-based line and column.
"""

from __future__ import annotations

import re
import unicodedata
from fractions import Fraction

from .graded import GradedError
from .poly import Generators, Polynomial, normalize_factors

# one group per token kind: number, name, sign, operator (told apart by its
# text), a bad character; END marks the end of the text
NUMBER, NAME, SIGN, BAD, END = 1, 2, 3, 5, 0
_TOKEN = re.compile(r"([0-9]+)|([^\W\d]\w*)|([-−+])|([*/^])|(\S)")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


def parse_polynomial(gens: Generators, text: str) -> Polynomial:
    """Parse an expression into a polynomial over the given generators."""
    text = unicodedata.normalize("NFC", text)
    tokens = [(m.lastindex, m[0], m.start()) for m in _TOKEN.finditer(text)]
    tokens.append((END, "", len(text)))
    i = 0

    def fail(message, at=None):
        at = tokens[i][2] if at is None else at
        raise ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    for kind, tok, at in tokens:
        if kind == BAD:
            fail("unexpected character %r" % tok, at)
    terms = {}
    while True:
        # the leading sign is optional; every later term starts at a sign
        kind, tok, _ = tokens[i]
        sign = -1 if kind == SIGN and tok != "+" else 1
        i += kind == SIGN
        kind, tok, _ = tokens[i]
        coeff, number = Fraction(sign), kind == NUMBER
        if number:
            i += 1
            den = 1
            if tokens[i][1] == "/":
                i += 1
                kind, den_tok, at = tokens[i]
                if kind != NUMBER:
                    fail("expected a denominator after '/'")
                i += 1
                den = int(den_tok)
                if not den:
                    fail("zero denominator", at)
            coeff = Fraction(sign * int(tok), den)
        factors, star = [], False
        while True:
            kind, tok, at = tokens[i]
            if tok == "*":
                i += 1
                star = True
                continue
            if kind != NAME:
                break
            i += 1
            try:
                index = gens.index(tok)
            except GradedError:
                fail("unknown generator %r" % tok, at)
            exp = 1
            if tokens[i][1] == "^":
                i += 1
                kind, exp_tok, at = tokens[i]
                if kind != NUMBER:
                    fail("expected an exponent after '^'")
                i += 1
                exp = int(exp_tok)
                if exp < 1:
                    fail("exponent must be positive", at)
            factors.append((index, exp))
            star = False
        if star:
            fail("expected a generator after '*'")
        if not factors and not number:
            fail("expected a term")
        c, key = normalize_factors(gens, factors, coeff)
        terms[key] = terms.get(key, 0) + c
        kind = tokens[i][0]
        if kind == END:
            return Polynomial(gens, terms)
        if kind != SIGN:
            fail("expected '+', '-' or end of expression")
