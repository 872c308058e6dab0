"""Tiny expression language for matrix entries in spec documents.

Grammar: integers, named variables, + - * / ^ and parentheses, with ^
restricted to nonnegative integer literal exponents of at most
MAX_EXPONENT, and at most MAX_DEPTH parenthesised atoms and unary signs
open at once.  Expressions are evaluated on whatever values the caller
supplies for the variables and for 1: any objects with + - * / ^, unary
minus and a zero test.  specdoc passes polynomials that enter the
function field only at a nonconstant division; plain rationals and field
elements work the same.  Errors carry line and column.
"""

from __future__ import annotations

# Nesting bound: deeper input is rejected with a ParseError instead of
# exhausting Python's recursion limit in the recursive-descent parser.
MAX_DEPTH = 100
# Exponent bound: a larger literal is rejected with a ParseError before
# any power is evaluated, instead of asking for a result of that degree.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, env, one):
        self.tokens = tokens
        self.pos = 0
        self.env = env
        self.one = one
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            tok = self.advance()
            rhs = self.unary()
            if tok[0] == "*":
                value = value * rhs
            else:
                if not rhs:
                    raise ParseError("division by zero", tok[2], tok[3])
                value = value / rhs
        return value

    def nested(self, tok, parse):
        """parse() one nesting level below tok, within MAX_DEPTH levels."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", tok[2], tok[3])
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def unary(self):
        tok = self.peek()
        if tok[0] in ("-", "+"):
            self.advance()
            value = self.nested(tok, self.unary)
            return -value if tok[0] == "-" else value
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.advance()
            exp = self.peek()
            if exp[0] != "int":
                raise ParseError("exponent must be a nonnegative integer literal",
                                 tok[2], tok[3])
            self.advance()
            if exp[1] > MAX_EXPONENT:
                raise ParseError(f"exponent {exp[1]} exceeds {MAX_EXPONENT}",
                                 exp[2], exp[3])
            return base ** exp[1]
        return base

    def atom(self):
        tok = self.advance()
        if tok[0] == "int":
            return self.one * tok[1]
        if tok[0] == "name":
            if tok[1] not in self.env:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
            return self.env[tok[1]]
        if tok[0] == "(":
            value = self.nested(tok, self.expr)
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse_expression(text: str, env: dict, one):
    """Evaluate an entry expression.

    env maps variable names to values; ``one`` is the multiplicative
    identity, and a literal n is read as ``one * n``.
    """
    return _Parser(_tokenize(text), env, one).parse()
