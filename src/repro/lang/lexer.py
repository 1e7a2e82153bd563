"""Lexer for the mini MPI-like surface language.

The paper writes its example programs in "slightly simplified MPI
notation"::

    Program Example (x: input, v: output);
    y = f ( x );
    MPI_Scan (y, z, count1, type, op1, comm);
    MPI_Reduce (z, u, count2, type, op2, root, comm);
    v = g ( u );
    MPI_Bcast (v, count3, type, root, comm);

This lexer tokenizes exactly that surface (plus our extensions:
``MPI_Allreduce``); the parser ignores the ``count``/``type``/``root``/
``comm`` arguments just as the paper's formalism does.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Token", "LexError", "tokenize", "TOKEN_KINDS"]


class LexError(ValueError):
    """Invalid character or malformed token, with position info."""


TOKEN_KINDS = ("NAME", "NUMBER", "LPAREN", "RPAREN", "COMMA", "SEMI",
               "COLON", "EQUALS", "EOF")

_SINGLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    "=": "EQUALS",
}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Token stream for a program text; raises :class:`LexError` on junk."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        kind = _SINGLE.get(ch)
        if kind:
            tokens.append(Token(kind, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(Token("NAME", text, line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("NUMBER", source[start:i], line, col))
            col += i - start
            continue
        raise LexError(f"line {line}, column {col}: unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens
