"""Concrete syntax: tokenizer, recursive-descent parser for .luni
source files, pretty-printer, and the type-inference translation of
untyped lambda terms.

Grammar sketch (lowest precedence first):

    file     ::= decl+ | decl* program       -- decl+ alone: program fail
    decl     ::= 'cons' UP ':' type '.' | 'base' LOW '=' INT '.'
               | 'def' LOW '=' term '.'
    program  ::= 'fail' | term ('|' term)*
    term     ::= unifterm (';' term)?            -- right-assoc
    unifterm ::= appterm ('=:=' appterm)?        -- non-assoc
    appterm  ::= atom+ | lambda | freshterm
    lambda   ::= '\\' LOW ('@L' INT)? '.' program
    freshterm::= 'fresh' LOW '.' term
    atom     ::= LOW | UP | '(' term-or-lambda ')'

Variables are lowercase identifiers, constructors uppercase; ``Ok`` and
its type ``unit`` are reserved.  Lambda and fresh bodies extend as far
right as possible.  The printer follows the same levels: ``pretty_term``
dispatches on the node's type, and each kind parenthesizes itself where
the grammar expects a higher level.
"""
from __future__ import annotations

import itertools
import re
from typing import Dict, Iterator, List

from .syntax import (
    FAIL, OK, Abs, AbsLoc, App, Cons, Fresh, Guard, LamuError, Program, Record,
    Term, Unif, Var, free_vars,
)
from .typecheck import UNIT, Arrow, Base, Type


class ParseError(LamuError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<atloc>@L[0-9]+)
  | (?P<lower>[a-z][A-Za-z0-9_']*)
  | (?P<upper>[A-Z][A-Za-z0-9_']*)
  | (?P<int>[0-9]+)
  | (?P<op>=:=|->|[\\.;|():=])
""", re.VERBOSE)

_KEYWORDS = {"fresh", "fail", "cons", "base", "def"}


class Token(Record):
    """A word's kind names its class (``lower``, ``upper``, ``int``,
    ``atloc``, ``eof``) or is the keyword itself; an operator or
    punctuation token's kind is its own text."""
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def tokenize(text: str) -> List[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        col = pos - line_start + 1
        value = m.group()
        if kind != "ws":
            if kind == "op" or kind == "lower" and value in _KEYWORDS:
                kind = value
            elif kind in ("int", "atloc") and len(value.lstrip("@L")) > 100:
                # so that every number read, and its successor, prints
                raise ParseError("a numeral has at most 100 digits", line, col)
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class SourceFile(Record):
    """A file's declarations and program, filled in as they are parsed
    (the REPL's session is one too): signature, base_sizes and
    definitions are dicts, and the program starts as fail."""
    __slots__ = ("signature", "base_sizes", "definitions", "program")

    def __init__(self, signature=None):
        self.signature = {} if signature is None else signature
        self.base_sizes = {}
        self.definitions = {}
        self.program = FAIL


class _Parser:
    def __init__(self, tokens: List[Token], definitions=None):
        self.tokens = tokens
        self.pos = 0
        self.definitions: Dict[str, Term] = dict(definitions or {})
        self.bound: List[str] = []     # what the enclosing binders bind

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = kind if kind.isalpha() else repr(kind)
            self.error(f"expected {shown}, found {tok.text or tok.kind!r}")
        return self.next()

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # declarations ---------------------------------------------------------

    def parse_file(self) -> SourceFile:
        src = SourceFile()
        reserved = {"cons": OK, "base": UNIT.name}
        while self.peek().kind in ("cons", "base", "def"):
            kind = self.next().kind
            if self.peek().text == reserved.get(kind):
                self.error(f"{kind} {self.peek().text} is reserved")
            if kind == "cons":
                name = self.expect("upper").text
                self.expect(":")
                ty = self.parse_type()
                src.signature[name] = ty
            elif kind == "base":
                name = self.expect("lower").text
                self.expect("=")
                size = int(self.expect("int").text)
                src.base_sizes[name] = size
            else:
                name = self.expect("lower").text
                self.expect("=")
                self.definitions[name] = src.definitions[name] = \
                    self.parse_term()
            self.expect(".")
        if self.pos == 0 or self.peek().kind != "eof":
            src.program = self.parse_program()
        self.expect("eof")
        return src

    def parse_type(self) -> Type:
        left = self.parse_type_atom()
        if self.peek().kind == "->":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_type_atom(self) -> Type:
        if self.peek().kind == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        return Base(self.expect("lower").text)

    # programs and terms ---------------------------------------------------

    def parse_program(self) -> Program:
        if self.peek().kind == "fail":
            self.next()
            return Program(())
        threads = [self.parse_term()]
        while self.peek().kind == "|":
            self.next()
            threads.append(self.parse_term())
        return Program(tuple(threads))

    def parse_term(self) -> Term:
        left = self.parse_unifterm()
        if self.peek().kind == ";":
            self.next()
            return Guard(left, self.parse_term())
        return left

    def parse_unifterm(self) -> Term:
        left = self.parse_appterm()
        if self.peek().kind == "=:=":
            self.next()
            right = self.parse_appterm()
            if self.peek().kind == "=:=":
                self.error("=:= is not associative; use parentheses")
            return Unif(left, right)
        return left

    def parse_appterm(self) -> Term:
        tok = self.peek()
        if tok.kind == "\\":
            return self.parse_lambda()
        if tok.kind == "fresh":
            return self.parse_fresh()
        term = self.parse_atom()
        while self.starts_atom():
            term = App(term, self.parse_atom())
        return term

    def parse_lambda(self) -> Term:
        self.expect("\\")
        var = self.expect("lower").text
        loc = None
        if self.peek().kind == "atloc":
            loc = int(self.next().text.removeprefix("@L"))
        self.expect(".")
        self.bound.append(var)
        body = self.parse_program()
        self.bound.pop()
        if loc is None:
            return Abs(var, body)
        return AbsLoc(loc, var, body)

    def parse_fresh(self) -> Term:
        self.expect("fresh")
        var = self.expect("lower").text
        self.expect(".")
        self.bound.append(var)
        body = self.parse_term()
        self.bound.pop()
        return Fresh(var, body)

    def starts_atom(self) -> bool:
        tok = self.peek()
        return tok.kind in ("lower", "upper", "(")

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "lower":
            self.next()
            if tok.text in self.definitions and tok.text not in self.bound:
                term = self.definitions[tok.text]
                captured = sorted(free_vars(term).intersection(self.bound))
                if captured:
                    raise ParseError(f"a binder captures {', '.join(captured)} "
                                     f"in definition {tok.text}", tok.line, tok.col)
                return term
            return Var(tok.text)
        if tok.kind == "upper":
            self.next()
            return Cons(tok.text)
        if self.peek().kind == "(":
            self.next()
            inner = self.parse_term()
            self.expect(")")
            return inner
        self.error(f"expected a term, found {tok.text or tok.kind!r}")


def parse_file(text: str, definitions=None) -> SourceFile:
    return _Parser(tokenize(text), definitions).parse_file()


def parse_program(text: str, definitions=None) -> Program:
    parser = _Parser(tokenize(text), definitions)
    program = parser.parse_program()
    parser.expect("eof")
    return program


def parse_term(text: str) -> Term:
    parser = _Parser(tokenize(text))
    term = parser.parse_term()
    parser.expect("eof")
    return term


# ---------------------------------------------------------------------------
# Pretty-printing

_LVL_OPEN = 1    # lambda, fresh, guard chains
_LVL_UNIF = 2
_LVL_APP = 3
_LVL_ATOM = 4


def pretty_term(t: Term, ctx: int = _LVL_OPEN, rightmost: bool = True) -> str:
    """t printed where the grammar expects level ctx; rightmost says that
    nothing follows it there.  Each kind decides its own parentheses:
    below its level, and a binder also where something follows it, since
    its body extends as far right as possible.  Only a term at level
    _LVL_OPEN reads rightmost, so every other position passes False."""
    cls = type(t)
    if cls is Var or cls is Cons:
        return t.name
    if cls is App:
        s = (f"{pretty_term(t.fn, _LVL_APP, False)} "
             f"{pretty_term(t.arg, _LVL_ATOM, False)}")
        return f"({s})" if ctx > _LVL_APP else s
    if cls is Unif:
        s = (f"{pretty_term(t.left, _LVL_APP, False)} =:= "
             f"{pretty_term(t.right, _LVL_APP, False)}")
        return f"({s})" if ctx > _LVL_UNIF else s
    if cls is Guard:
        parens = ctx > _LVL_OPEN
        s = (f"{pretty_term(t.left, _LVL_UNIF, False)} ; "
             f"{pretty_term(t.right, _LVL_OPEN, parens or rightmost)}")
        return f"({s})" if parens else s
    if cls is Abs:
        s = f"\\{t.var}. {pretty_program(t.body)}"
    elif cls is AbsLoc:
        s = f"\\{t.var}@L{t.loc}. {pretty_program(t.body)}"
    elif cls is Fresh:
        s = f"fresh {t.var}. {pretty_term(t.body)}"
    else:
        raise LamuError(f"cannot print {t!r}")
    return f"({s})" if ctx > _LVL_OPEN or not rightmost else s


def pretty_program(p: Program) -> str:
    if p.is_fail:
        return "fail"
    parts = []
    last = len(p) - 1
    for i, t in enumerate(p):
        parts.append(pretty_term(t, _LVL_OPEN, i == last))
    return " | ".join(parts)


# ---------------------------------------------------------------------------
# Hindley-Milner translation of untyped lambda terms

HM_ARROW = "F"


def hm_translate(t: Term) -> Term:
    """Translate a pure untyped lambda term (Var, single-thread Abs,
    App) into a term that computes its principal type, encoding the
    arrow type A -> B as the structure F A B."""
    return _hm(t, itertools.count(1))


def _hm(t: Term, names: Iterator[int]) -> Term:
    if isinstance(t, Var):
        return Var(f"a_{t.name}")
    if isinstance(t, Abs):
        if len(t.body) != 1:
            raise LamuError("hm_translate input must be a pure lambda term")
        a_x = f"a_{t.var}"
        body = _hm(t.body.threads[0], names)
        return Fresh(a_x, App(App(Cons(HM_ARROW), Var(a_x)), body))
    if isinstance(t, App):
        a = f"b{next(names)}"
        fn = _hm(t.fn, names)
        arg = _hm(t.arg, names)
        goal = Unif(fn, App(App(Cons(HM_ARROW), arg), Var(a)))
        return Fresh(a, Guard(goal, Var(a)))
    raise LamuError("hm_translate input must be a pure lambda term")
