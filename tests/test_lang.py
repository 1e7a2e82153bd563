"""Tests for the mini MPI-like surface language (repro.lang)."""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

import pytest

import planner_corpus

from repro.core.operators import ADD, MUL
from repro.core.optimizer import optimize
from repro.core.cost import PARSYTEC_LIKE
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.lang import parser as parser_mod
from repro.lang import (
    LexError,
    ParseError,
    Token,
    parse_program,
    to_mpi_text,
    tokenize,
)

PAPER_SOURCE = """
Program Example (x: input, v: output);
y = f ( x );
MPI_Scan (y, z, count1, type, op1, comm);
MPI_Reduce (z, u, count2, type, op2, root, comm);
v = g ( u );
MPI_Bcast (v, count3, type, root, comm);
"""

ENV = {"f": (lambda a: 2 * a, 1), "g": (lambda a: a + 1, 1),
       "op1": MUL, "op2": ADD}


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("a = f(x);")]
        assert kinds == ["NAME", "EQUALS", "NAME", "LPAREN", "NAME",
                         "RPAREN", "SEMI", "EOF"]

    def test_positions(self):
        toks = tokenize("ab\n cd")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 2)

    def test_comments_skipped(self):
        toks = tokenize("a // comment\nb")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_numbers(self):
        toks = tokenize("MPI_Scan(y, z, 1024)")
        assert toks[6].kind == "NUMBER" and toks[6].text == "1024"

    def test_invalid_character(self):
        with pytest.raises(LexError, match="line 1"):
            tokenize("a @ b")


@dataclass(frozen=True)
class _OracleToken:
    """The token class of the lexer before ``Token`` became a tuple."""

    kind: str
    text: str
    line: int
    column: int


_ORACLE_SINGLE = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ";": "SEMI",
                  ":": "COLON", "=": "EQUALS"}


def _oracle_tokenize(source: str) -> list[_OracleToken]:
    """That lexer's loop, kept as the reference for ``tokenize``."""
    tokens: list[_OracleToken] = []
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
        kind = _ORACLE_SINGLE.get(ch)
        if kind:
            tokens.append(_OracleToken(kind, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_OracleToken("NAME", source[start:i], line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(_OracleToken("NUMBER", source[start:i], line, col))
            col += i - start
            continue
        raise LexError(f"line {line}, column {col}: unexpected character {ch!r}")
    tokens.append(_OracleToken("EOF", "", line, col))
    return tokens


def _lexer_sources() -> list[str]:
    rng = random.Random("lexer-differential")
    texts = [planner_corpus.mpi_text(rng, f"lex{i}", rng.randint(1, 9))
             for i in range(60)]
    return texts + [
        PAPER_SOURCE,
        "",
        "\ty\t=\tf ( x ) ;\n\t\tMPI_Bcast (y, 1);",
        "Program P (x: input, y: output);\r\ny = f (x);\r\n",
        "a = f (x); // trailing comment, no newline",
        "// only a comment",
        "é1 = f (_x9, 007);",
        "1abc",
        "a = f (x);\nb = g (a);\n  c = $ (b);\n",
        "x = f (y) # z",
        "a / b",
    ]


class TestLexerDifferential:
    """``tokenize`` against the lexer it replaced: the same streams and
    the same errors, positions included."""

    @pytest.mark.parametrize("source", _lexer_sources())
    def test_same_stream_or_same_error(self, source):
        try:
            want = _oracle_tokenize(source)
        except LexError as exc:
            with pytest.raises(LexError) as got:
                tokenize(source)
            assert str(got.value) == str(exc)
            return
        got = tokenize(source)
        assert all(type(tok) is Token for tok in got)
        assert ([(t.kind, t.text, t.line, t.column) for t in got]
                == [(t.kind, t.text, t.line, t.column) for t in want])

    def test_the_error_cases_are_errors(self):
        with pytest.raises(LexError, match=r"line 3, column 7: .*'\$'"):
            tokenize("a = f (x);\nb = g (a);\n  c = $ (b);\n")
        assert [t.text for t in tokenize("1abc")[:-1]] == ["1", "abc"]
        assert tokenize("") == [Token("EOF", "", 1, 1)]

    def test_token_value_semantics(self):
        tok = Token("NAME", "é1", 2, 5)
        assert tok == Token(kind="NAME", text="é1", line=2, column=5)
        assert tok != Token("NAME", "é1", 2, 6)
        assert repr(tok) == "NAME('é1')@2:5"
        assert Token._fields == ("kind", "text", "line", "column")


class TestParser:
    def test_paper_example_structure(self):
        decl = parse_program(PAPER_SOURCE)
        assert decl.name == "Example"
        assert decl.input_var == "x"
        assert decl.output_var == "v"
        kinds = [type(s).__name__ for s in decl.statements]
        assert kinds == ["LocalStmt", "CollectiveStmt", "CollectiveStmt",
                         "LocalStmt", "CollectiveStmt"]

    def test_to_program_stage_kinds(self):
        prog = parse_program(PAPER_SOURCE).to_program(ENV)
        assert [type(s) for s in prog.stages] == [
            MapStage, ScanStage, ReduceStage, MapStage, BcastStage,
        ]
        assert prog.stages[1].op is MUL
        assert prog.stages[2].op is ADD

    def test_program_runs(self):
        prog = parse_program(PAPER_SOURCE).to_program(ENV)
        out = prog.run([1, 2, 3, 4])
        # f doubles: [2,4,6,8]; scan(*): [2,8,48,384]; reduce(+): 442; g: 443
        assert out == [443, 443, 443, 443]

    def test_shorthand_operator_position(self):
        src = "Program P (x);\nMPI_Scan (x, y, myop);\n"
        decl = parse_program(src)
        assert decl.statements[0].op == "myop"

    def test_allreduce_supported(self):
        src = "Program P (x);\nMPI_Allreduce (x, y, op1);\n"
        prog = parse_program(src).to_program({"op1": ADD})
        assert isinstance(prog.stages[0], AllReduceStage)

    def test_missing_program_keyword(self):
        with pytest.raises(ParseError, match="Program"):
            parse_program("Prog P (x);")

    def test_dataflow_violation_detected(self):
        src = """
Program P (x);
y = f ( x );
MPI_Scan (x, z, op1);
"""
        with pytest.raises(ParseError, match="consumes 'x'"):
            parse_program(src).to_program({"f": lambda a: a, "op1": ADD})

    def test_output_var_mismatch_detected(self):
        src = "Program P (x: input, v: output);\ny = f ( x );\n"
        with pytest.raises(ParseError, match="output"):
            parse_program(src).to_program({"f": lambda a: a})

    def test_unknown_function(self):
        src = "Program P (x);\ny = nosuch ( x );\n"
        with pytest.raises(ParseError, match="unknown function"):
            parse_program(src).to_program({})

    def test_operator_must_be_binop(self):
        src = "Program P (x);\nMPI_Scan (x, y, op1);\n"
        with pytest.raises(ParseError, match="not a BinOp"):
            parse_program(src).to_program({"op1": lambda a, b: a + b})

    def test_bcast_requires_buffer(self):
        with pytest.raises(ParseError):
            parse_program("Program P (x);\nMPI_Bcast ();\n")

    def test_collective_requires_two_buffers(self):
        with pytest.raises(ParseError):
            parse_program("Program P (x);\nMPI_Scan (x);\n")


def _numbered(k: int) -> str:
    return f"Program P{k} (x);\ny = f ( x );\nMPI_Scan (y, z, op1);\n"


class TestParseMemo:
    """``parse_program`` keeps the declaration of a text it has seen: a
    served front end pays for lexing a repeated text once."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        parser_mod._PARSE_MEMO.clear()
        yield
        parser_mod._PARSE_MEMO.clear()

    def test_same_text_gives_the_identical_declaration(self):
        first = parse_program(PAPER_SOURCE)
        assert parse_program(PAPER_SOURCE) is first
        assert parse_program(str(PAPER_SOURCE.encode(), "ascii")) is first
        assert parse_program(PAPER_SOURCE + " ") is not first  # by text
        parser_mod._PARSE_MEMO.clear()
        cold = parse_program(PAPER_SOURCE)
        assert cold is not first and cold == first

    def test_shared_declaration_resolves_per_environment(self):
        decl = parse_program(PAPER_SOURCE)
        a, b = decl.to_program(ENV), parse_program(PAPER_SOURCE).to_program(ENV)
        assert a is not b and a == b and hash(a) == hash(b)
        swapped = parse_program(PAPER_SOURCE).to_program(
            {**ENV, "op1": ADD, "op2": MUL})
        assert swapped != a
        assert swapped.stages[1].op is ADD and a.stages[1].op is MUL

    @pytest.mark.parametrize("bad", [
        "Prog P (x);",                          # parser error
        "Program P (x);\ny = f ( x ) @;\n",     # lexer error
    ])
    def test_a_failing_text_is_never_remembered(self, bad):
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_program(bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0]
        assert bad not in parser_mod._PARSE_MEMO

    def test_memo_is_bounded_first_in_first_out(self):
        bound = parser_mod._PARSE_MEMO.bound
        decls = [parse_program(_numbered(k)) for k in range(bound + 40)]
        assert len(parser_mod._PARSE_MEMO) == bound
        assert _numbered(0) not in parser_mod._PARSE_MEMO
        assert parse_program(_numbered(bound + 39)) is decls[-1]
        again = parse_program(_numbered(0))  # evicted: parsed anew
        assert again is not decls[0] and again == decls[0]
        assert len(parser_mod._PARSE_MEMO) == bound

    def test_memo_stays_bounded_and_right_under_threads(self, monkeypatch):
        monkeypatch.setattr(parser_mod._PARSE_MEMO, "bound", 5)
        texts = [_numbered(k) for k in range(12)]
        expected = [parse_program(t) for t in texts]
        errors, sizes = [], []

        def work(tid):
            try:
                for round_no in range(60):
                    for k in range(tid, tid + len(texts)):
                        k %= len(texts)
                        assert parse_program(texts[k]) == expected[k]
                        sizes.append(len(parser_mod._PARSE_MEMO))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert max(sizes) <= 5


class TestPrinter:
    def test_round_trip_reparses(self):
        prog = parse_program(PAPER_SOURCE).to_program(ENV)
        text = to_mpi_text(prog)
        reparsed = parse_program(text).to_program(
            {"f": ENV["f"], "g": ENV["g"], "mul": MUL, "add": ADD}
        )
        assert reparsed.pretty() == prog.pretty()
        assert reparsed.run([1, 2, 3, 4]) == prog.run([1, 2, 3, 4])

    def test_optimized_program_prints_rule_annotations(self):
        prog = parse_program(PAPER_SOURCE).to_program(ENV)
        res = optimize(prog, PARSYTEC_LIKE)
        text = to_mpi_text(res.program)
        assert "introduced by SR2-Reduction" in text
        assert "op_sr2" in text

    def test_balanced_collective_rendering(self):
        from repro.core.derived_ops import SRTreeOp
        from repro.core.stages import BalancedReduceStage

        prog = Program([BalancedReduceStage(SRTreeOp(ADD))])
        assert "MPI_Reduce_balanced" in to_mpi_text(prog)


class TestRoundTripProperty:
    """Random stage programs survive print → parse → print."""

    from hypothesis import given, settings, strategies as st  # noqa: PLC0415

    _OPS = {"add": None, "mul": None, "max": None, "min": None}

    @staticmethod
    def _env():
        from repro.core.operators import ADD, MAX, MIN, MUL

        return {"add": ADD, "mul": MUL, "max": MAX, "min": MIN,
                "f": (lambda x: x, 0), "g": (lambda x: x, 0),
                "h": (lambda x: x, 0)}

    @given(st.data())
    @settings(max_examples=60)
    def test_random_program_round_trips(self, data):
        from hypothesis import strategies as st_

        from repro.core.operators import ADD, MAX, MIN, MUL
        from repro.core.stages import (
            AllGatherStage,
            AllReduceStage,
            BcastStage,
            GatherStage,
            MapStage,
            Program,
            ReduceStage,
            ScanStage,
            ScatterStage,
        )

        ops = [ADD, MUL, MAX, MIN]
        labels = iter(["f", "g", "h"])
        stages = []
        n = data.draw(st_.integers(1, 6))
        for _ in range(n):
            kind = data.draw(st_.sampled_from(
                ["map", "scan", "reduce", "allreduce", "bcast",
                 "allgather", "scatter", "gather"]))
            if kind == "map":
                try:
                    stages.append(MapStage(lambda x: x, label=next(labels)))
                except StopIteration:
                    stages.append(BcastStage())
            elif kind == "scan":
                stages.append(ScanStage(data.draw(st_.sampled_from(ops))))
            elif kind == "reduce":
                stages.append(ReduceStage(data.draw(st_.sampled_from(ops))))
            elif kind == "allreduce":
                stages.append(AllReduceStage(data.draw(st_.sampled_from(ops))))
            elif kind == "allgather":
                stages.append(AllGatherStage())
            elif kind == "scatter":
                stages.append(ScatterStage())
            elif kind == "gather":
                stages.append(GatherStage())
            else:
                stages.append(BcastStage())
        prog = Program(stages, name="RT")

        text = to_mpi_text(prog)
        reparsed = parse_program(text).to_program(self._env())
        assert reparsed.pretty() == prog.pretty()
        # and printing again is a fixed point
        assert to_mpi_text(reparsed) == text
