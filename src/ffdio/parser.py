"""Expression grammar for rational functions in t and index expressions in a.

Grammar (UTF-8 text): integers, variable `t`, operators + - * / ^ with `^`
binding tighter than `*`/`/`, which bind tighter than `+`/`-`; parentheses;
unary minus. The index grammar additionally allows the variable `a` and the
integer builtins floor_div(x, y) and ilog2(x); exponent positions must be
integer-valued expressions (in `a` alone for index expressions).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .ratfunc import RF_T, RatFunc


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


class EvalError(ArithmeticError):
    """Evaluation failure of a well-formed expression (e.g. division by zero)."""

    def __init__(self, message: str, alpha: Optional[int] = None):
        if alpha is not None:
            message = f"at index {alpha}: {message}"
        super().__init__(message)
        self.alpha = alpha


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "a"


@dataclass(frozen=True)
class Bin:
    op: str  # "+", "-", "*", "/"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"


@dataclass(frozen=True)
class Call:
    name: str  # "floor_div" or "ilog2"
    args: tuple["Node", ...]


Node = Union[Num, Var, Bin, Neg, Pow, Call]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^(),]))")

_BUILTINS = {"floor_div": 2, "ilog2": 1}

# A power larger than this is an evaluation error, raised before it is built.
# The bundled profiles reach degree 4 * 200 (fixed-fermat, M=4, on 1..200).
MAX_POWER_DEGREE = 10_000
MAX_POWER_BITS = 1_000_000  # of a constant power's numerator or denominator


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            tokens.append(("INT", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("NAME", m.group(2), pos))
        else:
            tokens.append(("OP", m.group(3), pos))
        pos = m.end()
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, index: bool):
        self.text = text
        self.index = index
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "OP" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expression()
        kind, value, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def expression(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "*/":
                self.advance()
                node = Bin(value, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "OP" and value in "+-":
            self.advance()
            inner = self.factor()
            return Neg(inner) if value == "-" else inner
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "OP" and value == "^":
            self.advance()
            return Pow(base, self.factor())
        return base

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "INT":
            return Num(value)
        if kind == "NAME":
            if value == "t":
                return Var("t")
            if value == "a":
                if not self.index:
                    raise ParseError("variable 'a' is only valid in index expressions", pos)
                return Var("a")
            if value in _BUILTINS:
                if not self.index:
                    raise ParseError(f"{value}() is only valid in index expressions", pos)
                self.expect_op("(")
                args = [self.expression()]
                while self.peek()[:2] == ("OP", ","):
                    self.advance()
                    args.append(self.expression())
                self.expect_op(")")
                if len(args) != _BUILTINS[value]:
                    raise ParseError(f"{value}() takes {_BUILTINS[value]} argument(s)", pos)
                return Call(value, tuple(args))
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "OP" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse_expression(text: str, *, index: bool = False) -> Node:
    return _Parser(text, index).parse()


def _int_value(value: RatFunc, alpha: Optional[int], what: str) -> int:
    if not value.is_constant():
        raise EvalError(f"{what} must be an integer, got {value}", alpha)
    f = value.as_fraction()
    if f.denominator != 1:
        raise EvalError(f"{what} must be an integer, got {f}", alpha)
    return int(f)


def _check_power_size(base: RatFunc, exp: int, alpha: Optional[int]) -> None:
    """Refuse base ** exp if its degree, or the bit length of a constant
    power, would exceed the caps; computed from the base and exponent alone."""
    n = abs(exp)
    degree = max(base.num.degree, base.den.degree) * n
    if degree > MAX_POWER_DEGREE:
        raise EvalError(f"power of degree {degree} exceeds the cap {MAX_POWER_DEGREE}", alpha)
    if base.is_constant():
        c = base.as_fraction()
        if abs(c.numerator) > 1 or c.denominator > 1:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length()) * n
            if bits > MAX_POWER_BITS:
                raise EvalError(
                    f"constant power of {bits} bits exceeds the cap {MAX_POWER_BITS}", alpha
                )


def evaluate(node: Node, alpha: Optional[int] = None) -> RatFunc:
    """Evaluate an expression to an element of Q(t); alpha binds the variable a."""
    if isinstance(node, Num):
        return RatFunc.constant(node.value)
    if isinstance(node, Var):
        if node.name == "t":
            return RF_T
        if alpha is None:
            raise EvalError("no index value bound for variable 'a'")
        return RatFunc.constant(alpha)
    if isinstance(node, Neg):
        return -evaluate(node.operand, alpha)
    if isinstance(node, Bin):
        left = evaluate(node.left, alpha)
        right = evaluate(node.right, alpha)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right.is_zero():
            raise EvalError("division by zero", alpha)
        return left / right
    if isinstance(node, Pow):
        base = evaluate(node.base, alpha)
        exp = _int_value(evaluate(node.exponent, alpha), alpha, "exponent")
        if exp < 0 and base.is_zero():
            raise EvalError("zero raised to a negative power", alpha)
        _check_power_size(base, exp, alpha)
        return base ** exp
    if isinstance(node, Call):
        args = [
            _int_value(evaluate(arg, alpha), alpha, f"argument of {node.name}()")
            for arg in node.args
        ]
        if node.name == "floor_div":
            if args[1] == 0:
                raise EvalError("floor_div by zero", alpha)
            return RatFunc.constant(args[0] // args[1])
        if node.name == "ilog2":
            if args[0] < 1:
                raise EvalError(f"ilog2 of {args[0]}", alpha)
            return RatFunc.constant(args[0].bit_length() - 1)
    raise TypeError(f"unknown node {node!r}")


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression in t to a reduced, monic-denominator rational function."""
    node = parse_expression(text, index=False)
    try:
        return evaluate(node)
    except ZeroDivisionError as exc:
        raise EvalError(str(exc)) from exc
