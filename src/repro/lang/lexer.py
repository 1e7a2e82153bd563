"""Lexer for the mini MPI-like surface language.

The paper writes its example programs in "slightly simplified MPI
notation"::

    Program Example (x: input, v: output);
    y = f ( x );
    MPI_Scan (y, z, count1, type, op1, comm);
    MPI_Reduce (z, u, count2, type, op2, root, comm);
    v = g ( u );
    MPI_Bcast (v, count3, type, root, comm);

This lexer tokenizes that surface and every statement a stage class
declares (``repro.core.stages.MpiCall``) or prints: brackets for operator
names and counts lists (``ew[add]``, ``op_sr2[mul,add]``, ``[2, 1, 0]``),
a name ending in the paper's ``#`` (``map2#``), and a program's name read
as all that stands between ``Program`` and ``(`` (``fuzz-int``, ``a;b``).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Token", "LexError", "tokenize", "lex"]


class LexError(ValueError):
    """Invalid character or malformed token, with position info."""


_SINGLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
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
    return lex(source)[0]


def lex(source: str, i: int = 0, n: int | None = None, line: int = 1,
        col: int = 1, semi: bool = False) -> tuple[list[Token], int]:
    """``(tokens, stop)``: the tokens of ``source[i:n]`` read from
    ``(line, col)`` and closed by EOF, and the offset reading stopped at
    (with ``semi``: after the first ``;`` token).  Only a text's start may
    open a program header (``Program`` and its name)."""
    tokens: list[Token] = []
    n = len(source) if n is None else n
    header = i == 0  # may the first token open a program header?
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
            if semi and kind == "SEMI":
                break
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(Token("NAME", text, line, col))
            col += i - start
            if header and len(tokens) == 1 and text.lower() == "program":
                end = source.find("(", i)  # the name is all up to "("
                name = source[i:end]
                if end > 0 and name.strip() and "\n" not in name:
                    pad = len(name) - len(name.lstrip())
                    tokens.append(Token("NAME", name.strip(), line, col + pad))
                    col += end - i
                    i = end
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("NUMBER", source[start:i], line, col))
            col += i - start
            continue
        if ch == "#" and tokens:
            last = tokens[-1]  # a "#" right after a name ends it: map2#
            if (last.kind == "NAME" and not last.text.endswith("#")
                    and (last.line, last.column + len(last.text)) == (line, col)):
                tokens[-1] = last._replace(text=last.text + "#")
                i += 1
                col += 1
                continue
        raise LexError(f"line {line}, column {col}: unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens, i
