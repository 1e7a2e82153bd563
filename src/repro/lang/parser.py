"""Parser for the mini MPI-like language: text → stage Program.

Grammar (terminals in caps; the paper's ``count``/``type``/``root``/
``comm`` arguments are accepted and discarded)::

    program    := "Program" NAME "(" params ")" ";" statement*
    params     := NAME [":" NAME] ("," NAME [":" NAME])*
    statement  := local ";" | collective ";"
    local      := NAME "=" NAME "(" NAME ")"
    collective := ("MPI_Scan" | "MPI_Reduce" | "MPI_Allreduce")
                     "(" NAME "," NAME ["," arg]* ")"
                | "MPI_Bcast" "(" NAME ["," arg]* ")"
    arg        := NAME | NUMBER

The parser produces a declarative AST first (:class:`ProgramDecl`), then
:func:`ProgramDecl.to_program` performs *dataflow validation* — each
statement must consume the value produced by the previous one (the
paper's x → y → z → u → v chain) — and resolves function/operator names
through a user environment into a :class:`repro.core.stages.Program`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.operators import BinOp
from repro.core.store import BoundedStore
from repro.core.stages import (
    AllGatherStage,
    GatherStage,
    ScatterStage,
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.lang.lexer import LexError, Token, tokenize

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
    """``out = fn (in)``"""

    out: str
    fn: str
    arg: str
    line: int


@dataclass(frozen=True)
class CollectiveStmt:
    """``MPI_Xxx (in [, out] [, ignored args...])``"""

    kind: str          # "scan" | "reduce" | "allreduce" | "bcast"
    arg: str           # input variable
    out: str           # output variable (== arg for bcast, in-place)
    op: str | None     # operator name (None for bcast)
    line: int


Statement = LocalStmt | CollectiveStmt

#: MPI call name → (our kind, has output variable, has operator)
_COLLECTIVES = {
    "MPI_Scan": ("scan", True, True),
    "MPI_Reduce": ("reduce", True, True),
    "MPI_Allreduce": ("allreduce", True, True),
    "MPI_Bcast": ("bcast", False, False),
    "MPI_Allgather": ("allgather", True, False),
    "MPI_Scatter": ("scatter", True, False),
    "MPI_Gather": ("gather", True, False),
}


@dataclass(frozen=True)
class ProgramDecl:
    """Parsed but unresolved program."""

    name: str
    input_var: str
    output_var: str | None
    statements: tuple[Statement, ...]

    def to_program(self, env: Mapping[str, Any]) -> Program:
        """Resolve names and validate dataflow into a stage Program.

        ``env`` maps local-function names to unary callables (or
        ``(callable, ops_per_element)`` pairs) and operator names to
        :class:`BinOp` instances.
        """
        stages: list[Stage] = []
        current = self.input_var
        for stmt in self.statements:
            if stmt.arg != current:
                raise ParseError(
                    f"line {stmt.line}: statement consumes {stmt.arg!r} but the "
                    f"current value is {current!r} (programs are straight-line "
                    "chains in the paper's format)"
                )
            if isinstance(stmt, LocalStmt):
                fn = env.get(stmt.fn)
                if fn is None:
                    raise ParseError(f"line {stmt.line}: unknown function {stmt.fn!r}")
                ops = 0
                if isinstance(fn, tuple):
                    fn, ops = fn
                if not callable(fn):
                    raise ParseError(f"line {stmt.line}: {stmt.fn!r} is not callable")
                stages.append(MapStage(fn, label=stmt.fn, ops_per_element=ops))
                current = stmt.out
            else:
                if stmt.kind == "bcast":
                    stages.append(BcastStage())
                elif stmt.kind == "allgather":
                    stages.append(AllGatherStage())
                elif stmt.kind == "scatter":
                    stages.append(ScatterStage())
                elif stmt.kind == "gather":
                    stages.append(GatherStage())
                else:
                    op = env.get(stmt.op or "")
                    if not isinstance(op, BinOp):
                        raise ParseError(
                            f"line {stmt.line}: operator {stmt.op!r} is not a "
                            "BinOp in the environment"
                        )
                    cls = {"scan": ScanStage, "reduce": ReduceStage,
                           "allreduce": AllReduceStage}[stmt.kind]
                    stages.append(cls(op))
                current = stmt.out
        if self.output_var is not None and current != self.output_var:
            raise ParseError(
                f"program {self.name}: declared output {self.output_var!r} but "
                f"the final value is {current!r}"
            )
        return Program(stages, name=self.name)


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

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"line {tok.line}, column {tok.column}: expected {want}, "
                f"got {tok.text!r}"
            )
        return tok

    # ------------------------------------------------------------------

    def parse(self) -> ProgramDecl:
        header = self.expect("NAME")
        if header.text.lower() != "program":
            raise ParseError(f"line {header.line}: program must start with 'Program'")
        name = self.expect("NAME").text
        self.expect("LPAREN")
        input_var, output_var = self._parse_params()
        self.expect("RPAREN")
        self.expect("SEMI")
        statements: list[Statement] = []
        while self.peek().kind != "EOF":
            statements.append(self._parse_statement())
        return ProgramDecl(name, input_var, output_var, tuple(statements))

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

    def _parse_statement(self) -> Statement:
        tok = self.expect("NAME")
        if tok.text in _COLLECTIVES:
            return self._parse_collective(tok)
        # local statement: out = fn ( arg )
        out = tok.text
        self.expect("EQUALS")
        fn = self.expect("NAME").text
        self.expect("LPAREN")
        arg = self.expect("NAME").text
        self.expect("RPAREN")
        self.expect("SEMI")
        return LocalStmt(out=out, fn=fn, arg=arg, line=tok.line)

    def _parse_collective(self, tok: Token) -> CollectiveStmt:
        kind, has_out, has_op = _COLLECTIVES[tok.text]
        self.expect("LPAREN")
        args: list[str] = []
        while self.peek().kind != "RPAREN":
            arg_tok = self.next()
            if arg_tok.kind not in ("NAME", "NUMBER"):
                raise ParseError(
                    f"line {arg_tok.line}: unexpected {arg_tok.text!r} in "
                    f"{tok.text} argument list"
                )
            args.append(arg_tok.text)
            if self.peek().kind == "COMMA":
                self.next()
        self.expect("RPAREN")
        self.expect("SEMI")

        if has_out:
            if len(args) < 2:
                raise ParseError(
                    f"line {tok.line}: {tok.text} needs input and output buffers"
                )
            arg, out = args[0], args[1]
            if not has_op:
                return CollectiveStmt(kind=kind, arg=arg, out=out, op=None,
                                      line=tok.line)
            # remaining args: count, type, [op], [root], comm — find the op
            # by convention: for Scan/Reduce/Allreduce the paper's position
            # is after count & type, but we accept any remaining NAME that
            # resolves later; take the *last-but-root/comm* heuristic off the
            # table by requiring the operator to be named 'op*' or be the
            # only extra NAME.
            op = self._find_operator(args[2:], tok)
            return CollectiveStmt(kind=kind, arg=arg, out=out, op=op, line=tok.line)
        # bcast: in-place single buffer
        if not args:
            raise ParseError(f"line {tok.line}: {tok.text} needs a buffer")
        return CollectiveStmt(kind=kind, arg=args[0], out=args[0], op=None,
                              line=tok.line)

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
# texts keep theirs.  A ProgramDecl is a frozen dataclass of strings and
# tuples: every caller may share one.  A text that does not parse is
# never remembered, so it raises afresh.

_PARSE_MEMO = BoundedStore(256)


def parse_program(source: str) -> ProgramDecl:
    """Parse MPI-like program text into a :class:`ProgramDecl`.

    A text parsed before (among the latest ``_PARSE_MEMO.bound`` distinct
    ones) returns the declaration it produced then — the same object.
    """
    decl = _PARSE_MEMO.get(source)
    if decl is not None:
        return decl
    try:
        tokens = tokenize(source)
    except LexError as exc:
        raise ParseError(str(exc)) from exc
    decl = _Parser(tokens).parse()
    _PARSE_MEMO.put(source, decl)
    return decl
