"""Parser for the mini MPI-like language: text → stage Program.

The grammar is what the stage classes' ``mpi_call`` declarations admit
(:class:`repro.core.stages.MpiCall`; terminals in caps)::

    program   := "Program" NAME "(" params ")" ";" statement*
    params    := NAME [":" NAME] ("," NAME [":" NAME])*
    statement := NAME "=" NAME "(" ["rank" ","] NAME ")" ";"   -- map, map#
               | CALL "(" NAME ["," NAME] ["," arg]* ")" ";"   -- in [, out]
    arg       := name | NUMBER
               | "[" [NUMBER ("," NUMBER)*] "]"       -- counts, after the buffers
    name      := NAME ["[" name ("," name)* "]"]      -- op_br[ew[add]]

After the buffers come, as declared, the ``counts`` (a list, or the word
for the balanced partition) and the operator: the one argument named
``op…``, else MPI's position after ``count`` and ``type`` — the paper's
``MPI_Scan (y, z, count, type, op1, comm)`` is ``MPI_Scan (y, z, op1)``.
Other arguments are discarded, as in the paper's formalism.  A word a
``NOT_WRITABLE`` class prints as (``MPI_Reduce_balanced``, ``Comcast``,
``Iter``, ``map2``) is a :class:`ParseError` naming the class and reason.

:func:`ProgramDecl.to_program` then validates the dataflow — each
statement consumes the value the previous one produced (the paper's
x → y → z → u → v chain) — and resolves function and operator names
through a user environment into a :class:`repro.core.stages.Program`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.operators import BinOp
from repro.core.store import BoundedStore
from repro.core.stages import Program, Stage, stage_written_as
from repro.lang.lexer import LexError, Token, lex
from repro.obs import span

__all__ = [
    "ParseError",
    "LocalStmt",
    "CollectiveStmt",
    "ProgramDecl",
    "parse_program",
]


class ParseError(ValueError):
    """Syntax or dataflow error with source position."""


@dataclass(frozen=True)
class LocalStmt:
    """``out = fn (in)`` or ``out = fn (rank, in)``: a map of class ``stage``"""

    stage: type[Stage]
    out: str
    fn: str
    arg: str


@dataclass(frozen=True)
class CollectiveStmt:
    """``CALL (in [, out] [, counts] [, op] [, ignored args...])``"""

    stage: type[Stage]              # the class that declares the call
    arg: str                        # input variable
    out: str                        # output variable (== arg when in place)
    op: str | None                  # operator name, if the call takes one
    counts: tuple[int, ...] | None  # segment lengths; None: balanced


Statement = LocalStmt | CollectiveStmt


@dataclass(frozen=True)
class ProgramDecl:
    """Parsed but unresolved program; ``lines`` holds each statement's
    line (a statement object serves every text that writes it)."""

    name: str
    input_var: str
    output_var: str | None
    statements: tuple[Statement, ...]
    lines: tuple[int, ...]

    def to_program(self, env: Mapping[str, Any]) -> Program:
        """Resolve names and validate dataflow into a stage Program.

        ``env`` maps local-function names to unary callables (or
        ``(callable, ops_per_element)`` pairs) and operator names to
        :class:`BinOp` instances.

        The last result is kept beside the declaration with the objects
        its names resolved to (so their ids cannot be reused): the same
        objects again, from any mapping, give the same Program, whose
        stages come from ``_STAGES``.  A resolution that raises is never
        kept.
        """
        with span("lang.to_program"):
            return self._resolve(env)

    def _resolve(self, env: Mapping[str, Any]) -> Program:
        """The body of :meth:`to_program`."""
        refs = tuple(env.get(s.fn) if isinstance(s, LocalStmt)
                     else s.op and env.get(s.op) for s in self.statements)
        last = self.__dict__.get("_resolved")
        if last is not None and all(map(operator.is_, last[0], refs)):
            return last[1]
        stages: list[Stage] = []
        current = self.input_var
        for stmt, ref, line in zip(self.statements, refs, self.lines):
            if stmt.arg != current:
                raise ParseError(
                    f"line {line}: statement consumes {stmt.arg!r} but the "
                    f"current value is {current!r} (programs are straight-line "
                    "chains in the paper's format)"
                )
            key = (stmt.stage, stmt.fn if isinstance(stmt, LocalStmt)
                   else stmt.counts, id(ref))
            entry = _STAGES.get(key)
            if entry is None:
                entry = (ref, _stage_of(stmt, ref, line))
                _STAGES.put(key, entry)
            stages.append(entry[1])
            current = stmt.out
        if self.output_var is not None and current != self.output_var:
            raise ParseError(
                f"program {self.name}: declared output {self.output_var!r} but "
                f"the final value is {current!r}"
            )
        program = Program(stages, name=self.name)
        self.__dict__["_resolved"] = (refs, program)
        return program


def _stage_of(stmt: Statement, ref: Any, line: int) -> Stage:
    """The stage ``stmt`` writes, its name resolved to ``ref``."""
    if isinstance(stmt, LocalStmt):
        fn = ref
        if fn is None:
            raise ParseError(f"line {line}: unknown function {stmt.fn!r}")
        ops = 0
        if isinstance(fn, tuple):
            fn, ops = fn
        if not callable(fn):
            raise ParseError(f"line {line}: {stmt.fn!r} is not callable")
        return stmt.stage(fn, label=stmt.fn, ops_per_element=ops)
    fields: dict[str, Any] = {}
    if stmt.stage.mpi_call.counts:
        fields["counts"] = stmt.counts
    if stmt.op is not None:
        fields["op"] = ref
        if not isinstance(ref, BinOp):
            raise ParseError(
                f"line {line}: operator {stmt.op!r} is not a "
                "BinOp in the environment"
            )
    return stmt.stage(**fields)


def _refused(tok: Token, cls: type[Stage] | None) -> ParseError:
    """Why ``tok`` is no call: an unknown word, or one that prints a
    class text cannot build."""
    if cls is None:
        return ParseError(f"line {tok.line}, column {tok.column}: unknown "
                          f"call {tok.text!r}")
    return ParseError(f"line {tok.line}: {tok.text} is {cls.__name__}, which "
                      f"text cannot build: {cls.NOT_WRITABLE[tok.text]}")


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"line {tok.line}, column {tok.column}: "
                             f"expected {kind}, got {tok.text!r}")
        return tok

    # ------------------------------------------------------------------

    def header(self) -> tuple[str, str, str | None]:
        """``Program NAME (params);``: the name, input and output."""
        header = self.expect("NAME")
        if header.text.lower() != "program":
            raise ParseError(f"line {header.line}: program must start with 'Program'")
        name = self.expect("NAME").text
        self.expect("LPAREN")
        input_var, output_var = self._parse_params()
        self.expect("RPAREN")
        self.expect("SEMI")
        return name, input_var, output_var

    def _parse_params(self) -> tuple[str, str | None]:
        """``x: input, v: output`` (roles optional; first is input)."""
        input_var: str | None = None
        output_var: str | None = None
        while True:
            var = self.expect("NAME").text
            role = None
            if self.peek().kind == "COLON":
                self.next()
                role = self.expect("NAME").text.lower()
            if role == "output":
                output_var = var
            elif role == "input" or input_var is None:
                input_var = var
            if self.peek().kind != "COMMA":
                break
            self.next()
        if input_var is None:
            raise ParseError("program has no input parameter")
        return input_var, output_var

    def statement(self) -> Statement:
        tok = self.expect("NAME")
        if self.peek().kind == "EQUALS":
            return self._parse_local(tok)
        return self._parse_call(tok)

    def _parse_local(self, out: Token) -> LocalStmt:
        self.next()
        fn = self.expect("NAME")
        cls = stage_written_as(fn.text)
        if cls is not None and fn.text in cls.NOT_WRITABLE:  # Iter, map2
            raise _refused(fn, cls)
        self.expect("LPAREN")
        arg = self.expect("NAME").text
        rank = arg == "rank" and self.peek().kind == "COMMA"
        if rank:
            self.next()
            arg = self.expect("NAME").text
        self.expect("RPAREN")
        self.expect("SEMI")
        return LocalStmt(stage_written_as(None, rank), out.text, fn.text, arg)

    def _parse_call(self, tok: Token) -> CollectiveStmt:
        cls = stage_written_as(tok.text)
        call = cls and cls.mpi_call
        if call is None:
            raise _refused(tok, cls)
        buffers = 1 if call.in_place else 2
        self.expect("LPAREN")
        args: list[str] = []
        counts = None
        arg = self.next()
        while arg.kind != "RPAREN":
            if arg.kind in ("NAME", "NUMBER"):
                args.append(arg.text if self.peek().kind != "LBRACK"
                            else self._parse_name(arg, tok))
            elif arg.kind == "LBRACK" and call.counts and len(args) == buffers:
                counts = self._parse_counts()
                args.append("counts")
            else:
                raise ParseError(
                    f"line {arg.line}: unexpected {arg.text!r} in "
                    f"{tok.text} argument list"
                )
            arg = self.next()
            if arg.kind == "COMMA":
                arg = self.next()
        self.expect("SEMI")

        if len(args) < buffers:
            needs = "a buffer" if call.in_place else "input and output buffers"
            raise ParseError(f"line {tok.line}: {tok.text} needs {needs}")
        # past the buffers and the counts slot (a list, or the word for the
        # balanced partition)
        extra = args[buffers + call.counts:]
        op = self._find_operator(extra, tok) if call.op else None
        return CollectiveStmt(cls, args[0], args[buffers - 1], op, counts)

    def _parse_counts(self) -> tuple[int, ...]:
        """A counts list past its ``[``: one segment length per rank."""
        counts = []
        while self.peek().kind == "NUMBER":
            counts.append(int(self.next().text))
            if self.peek().kind == "COMMA":
                self.next()
        self.expect("RBRACK")
        return tuple(counts)

    def _parse_name(self, tok: Token, word: Token) -> str:
        """``tok`` and the brackets after it: an operator's name, such as
        ``op_br[ew[add]]`` or ``op_sr2[mul,add]``, is one argument."""
        text, depth = tok.text, 0
        while depth or self.peek().kind == "LBRACK":
            part = self.next()
            if part.kind == "EOF":
                raise ParseError(f"line {tok.line}: unclosed '[' in {word.text}")
            depth += (part.kind == "LBRACK") - (part.kind == "RBRACK")
            text += part.text
        return text

    @staticmethod
    def _find_operator(extra: Sequence[str], tok: Token) -> str:
        """Locate the operator among the ignored count/type/root/comm args.

        MPI's argument order puts the op after count and type; we accept
        either exactly that position or any single argument whose name
        starts with ``op`` (the paper's convention: op1, op2).
        """
        named = [a for a in extra if a.lower().startswith("op")]
        if len(named) == 1:
            return named[0]
        if len(extra) >= 3:
            return extra[2]  # count, type, op, ...
        if len(extra) == 2:
            return extra[0]  # shorthand: MPI_Reduce(y, z, op, root)
        if len(extra) == 1:
            return extra[0]  # shorthand: MPI_Scan(y, z, op)
        raise ParseError(
            f"line {tok.line}: cannot identify the reduction operator among "
            f"arguments {list(extra)!r}"
        )


# A served front end sees the same texts again and again, and a
# declaration depends on nothing but its text, so the latest 256 distinct
# texts keep theirs (``_PARSE_MEMO``; a ProgramDecl is frozen, and its last
# resolution answers only to the identical objects: every caller may share
# one).  Different texts repeat statement texts, and a statement depends
# on its text alone, so the latest 256 distinct ones keep (statement, line
# of its first token less the text's first line), or () for blanks and
# comments (``_STATEMENTS``).  A statement's stage depends on its class,
# label or counts and the object its name resolved to only, so the latest
# 256 distinct ones are one stage object each, whose search facts are
# computed once per process (``_STAGES``; the entry holds the object, so
# the id in its key stays its own).  What does not parse or resolve is
# never stored, so it raises afresh.

_PARSE_MEMO = BoundedStore(256)
_STATEMENTS = BoundedStore(_PARSE_MEMO.bound)
_STAGES = BoundedStore(_PARSE_MEMO.bound)

#: what a statement text ends at or skips: ``;``, brackets, comments
_MARKS = re.compile(r"//[^\n]*|[;\[\]]")


def parse_program(source: str) -> ProgramDecl:
    """Parse MPI-like program text into a :class:`ProgramDecl`.

    A text parsed before (among the latest ``_PARSE_MEMO.bound`` distinct
    ones) returns the declaration it produced then — the same object.
    """
    with span("lang.parse"):
        decl = _PARSE_MEMO.get(source)
        if decl is None:
            try:
                decl = _read(source)
            except LexError as exc:
                raise ParseError(str(exc)) from exc
            _PARSE_MEMO.put(source, decl)
    return decl


def _read(source: str) -> ProgramDecl:
    """The declaration of ``source``: the header lexed and parsed, each
    statement text's from ``_STATEMENTS`` or from its own line and column;
    a lexing error anywhere comes first, as if the text were lexed whole."""
    tokens, at = lex(source, semi=True)
    line, col = tokens[-1].line, tokens[-1].column
    statements, lines = [], []
    try:
        head = _Parser(tokens).header()
        while at < len(source):
            stop = _statement_end(source, at)
            text = source[at:stop]
            entry = _STATEMENTS.get(text)
            if entry is None:
                tokens, _ = lex(source, at, stop, line, col)
                entry = () if len(tokens) == 1 else (
                    _Parser(tokens).statement(), tokens[0].line - line)
                _STATEMENTS.put(text, entry)
            if entry:
                statements.append(entry[0])
                lines.append(line + entry[1])
            breaks = text.count("\n")
            col = len(text) - text.rfind("\n") if breaks else col + len(text)
            line, at = line + breaks, stop
    except ParseError:  # the rest of the text, from where it failed
        lex(source, at, line=line, col=col)
        raise
    return ProgramDecl(*head, tuple(statements), tuple(lines))


def _statement_end(source: str, at: int) -> int:
    """Where the statement text at ``at`` ends: after its ``;`` at bracket
    depth 0 outside ``//`` comments, else at the end of the text."""
    depth = 0
    for mark in _MARKS.finditer(source, at):
        ch = mark.group()
        if ch == ";" and not depth:
            return mark.end()
        depth += (ch == "[") - (ch == "]")
    return len(source)
