"""``parse_program`` reads statements as the whole-text parse did.

``parse_program`` lexes only a text's header and reads each statement
text (up to its ``;`` at bracket depth 0, outside ``//`` comments) from
the statement store, lexing and parsing one only on a miss, from its own
line and column.  Two checks hold it to the parse it replaced:

* **Differential**: over the corpus below and over random texts drawn
  from the language's pieces, ``parse_program`` and :func:`_oracle_parse`
  — the whole-text parse, kept here as the lexer's ``_oracle_tokenize``
  is kept in ``test_lang`` — give the same declaration or the same error,
  with the statement store cold and warmed by other texts.
* **Golden**: ``tests/data/parse_errors_v1.json`` was written by
  :func:`golden_doc` with the ``src`` of the parent commit on
  ``PYTHONPATH`` (the last whose ``parse_program`` lexed every text
  whole).  For every corpus text it records the ``ParseError`` /
  ``LexError`` message of ``parse_program`` with its line and column, and
  for a text that parses, the error of resolving it in an empty
  environment (whose line comes from the declaration).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_lang import PAPER_SOURCE, _lexer_sources

from repro.lang import LexError, ParseError, parse_program, tokenize
from repro.lang import parser as parser_mod

GOLDEN = Path(__file__).parent / "data" / "parse_errors_v1.json"

#: texts whose statement texts do not end where their lines do
CASES = [
    # a ';' inside brackets: open to the end, or closed further on
    "Program P (x);\nMPI_Scan (x, y, op[add;\nMPI_Bcast (y);\n",
    "Program P (x);\nMPI_Scan (x, y, op[add; b]);\nMPI_Bcast (y);\n",
    "Program P (x);\nMPI_Reduce_scatter (x, y, [2, 0; 1], ew[add]);\n",
    # two statements on one line
    "Program P (x);\nMPI_Scan (x, y, op); MPI_Bcast (y);\n",
    "Program P (x); y = f (x); MPI_Scan (y, z, op);",
    # ';;'
    "Program P (x);\nMPI_Bcast (x);;\n",
    "Program P (x);;\nMPI_Bcast (x);\n",
    # a comment holding ';'
    "Program P (x);\nMPI_Bcast (x); // a; b;\nMPI_Scan (x, y, op);\n",
    "Program P (x);\nMPI_Bcast (x // a;\n);\n",
    "Program P (x); // header; comment\n// line; comment\nMPI_Bcast (x);",
    "Program P (x);\nMPI_Bcast (x); // the end; no newline",
    # a program name holding ';'
    "Program a;b (x);\nMPI_Bcast (x);\n",
    "Program fuzz-int;case-SS-Scan (x: input);\nMPI_Scan (x, y, op);\n",
    "Program ; (x);\nMPI_Bcast (x);\n",
    # a missing final ';'
    "Program P (x);\nMPI_Bcast (x)\n",
    "Program P (x);\nMPI_Bcast (x);\ny = f (x)",
    "Program P (x)\nMPI_Bcast (x);\n",
    # junk after the last statement
    "Program P (x);\nMPI_Bcast (x);\n  MPI\n",
    "Program P (x);\nMPI_Bcast (x);\n@\n",
    "Program P (x);\nMPI_Bcast (x); ]\n",
    # a lexing error after a parse error comes first, as in text order
    "Program P (x);\nMPI_Foo (x);\ny = f (x) @;\n",
    "Prog P (x);\nMPI_Bcast (x);\n  #;\n",
    "Program P (x; y);\n$\n",
    # parse errors in the middle, positions on later lines and columns
    "Program P (x);\ny = f (x);\n\tMPI_Scan (y, z, a]); MPI_Bcast (z);\n",
    "Program P (x);\nMPI_Bcast (x);#\n",
    "Program P (x);\nProgram Q (y);\n",
    "Program P (x);\nprogram a-b (y);\n",  # only the text's start is a header
    "Program P (x);\n\n  MPI_Scan (x, y, [1], add);\n",
    "Program P (x);\nMPI_Scan (x, y, ew[add);\n",
    "Program P (x);\nMPI_Sum (x, y, add);\n",
    "Program P (x);\nMPI_Scan (x);\n",
    "Program P (x);\nMPI_Bcast ();\n",
    "Program P (x);\ny = map2 (x);\n",
    "Program P (x);\nComcast (x, y, op);\n",
    "Program P (x);\nMPI_Scan (x, y, a, b, c, d);\nMPI_Scan (y, z);\n",
    "Program P (:);\n",
    "Program P ();\n",
    "Program P (x: input, v: output);\ny = f (x);\n  z = g (rank, y);\n"
    "MPI_Reduce (z, v, count, type, op_sr2[mul,add], root, comm);\n",
    # resolution errors, whose lines come from the declaration
    "Program P (x);\n\ny = f (x);\n// c\n\n  MPI_Scan (x, z, op);\n",
    "Program P (x);\nMPI_Bcast (x);\n// c\n\n  MPI_Scan (y, z, op);\n",
    "Program P (x);\nMPI_Bcast (x); // c\n\n  MPI_Scan (x, z, op);\n",
    "Program P (x: input, v: output); y = f (x);\nMPI_Bcast (y);",
]


def corpus() -> list[str]:
    return _lexer_sources() + CASES


def _oracle_parse(source: str) -> parser_mod.ProgramDecl:
    """The whole-text parse ``parse_program`` replaced: every token lexed,
    then the header and each statement in turn."""
    try:
        tokens = tokenize(source)
    except LexError as exc:
        raise ParseError(str(exc)) from exc
    parser = parser_mod._Parser(tokens)
    name, input_var, output_var = parser.header()
    statements, lines = [], []
    while parser.peek().kind != "EOF":
        lines.append(parser.peek().line)
        statements.append(parser.statement())
    return parser_mod.ProgramDecl(name, input_var, output_var,
                                  tuple(statements), tuple(lines))


def _outcome(parse, source: str):
    """The declaration ``parse`` reads from ``source``, or its error."""
    try:
        return parse(source)
    except ParseError as exc:
        return type(exc), str(exc)


def _cold_memo() -> None:
    parser_mod._PARSE_MEMO.clear()
    parser_mod._STATEMENTS.clear()


class TestParserDifferential:
    @pytest.fixture(autouse=True)
    def cold(self):
        _cold_memo()
        yield
        _cold_memo()

    @pytest.mark.parametrize("source", corpus())
    def test_same_declaration_or_same_error(self, source):
        want = _outcome(_oracle_parse, source)
        assert _outcome(parse_program, source) == want  # cold
        parser_mod._PARSE_MEMO.clear()
        assert _outcome(parse_program, source) == want  # statements kept

    def test_a_corpus_warmed_by_the_others_reads_the_same(self):
        texts = corpus()
        for source in texts + texts[::-1]:
            parser_mod._PARSE_MEMO.clear()
            assert (_outcome(parse_program, source)
                    == _outcome(_oracle_parse, source))
        assert len(parser_mod._STATEMENTS) > 0

    @given(st.booleans(), st.lists(st.sampled_from([
        "MPI_Scan", "MPI_Bcast", "MPI_Reduce_scatter", "Program", "y",
        "x", "f", "op", "rank", "=", "(", ")", ",", ";", ";", ";", "[",
        "]", "2", "//", "\n", "\n", " ", "\t", "#", "@", ":",
        "MPI_Scan (x, y, op);", "\nMPI_Bcast (x);", "y = f (x);",
    ]), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_random_texts_read_the_same(self, headed, pieces):
        source = "".join(pieces)
        if headed:
            source = "Program P (x);\n" + source
        want = _outcome(_oracle_parse, source)
        parser_mod._PARSE_MEMO.clear()
        assert _outcome(parse_program, source) == want


_POSITION = re.compile(r"line (\d+)(?:, column (\d+))?")


def _error(exc: Exception) -> dict:
    position = _POSITION.search(str(exc))
    line, column = position.groups() if position else (None, None)
    return {"message": str(exc), "line": line and int(line),
            "column": column and int(column)}


def golden_doc() -> list[dict]:
    """Per corpus text: the error of parsing it, else the error of
    resolving it in an empty environment (``None`` where there is none)."""
    doc = []
    for source in corpus():
        entry = {"source": source, "parse": None, "resolve": None}
        try:
            decl = parse_program(source)
        except ParseError as exc:
            entry["parse"] = _error(exc)
        else:
            try:
                decl.to_program({})
            except ParseError as exc:
                entry["resolve"] = _error(exc)
        doc.append(entry)
    return doc


def test_errors_and_positions_are_the_golden_ones():
    _cold_memo()
    want = json.loads(GOLDEN.read_text())
    got = golden_doc()
    assert [e["source"] for e in got] == [e["source"] for e in want]
    for entry_got, entry_want in zip(got, want):
        assert entry_got == entry_want
    assert sum(e["parse"] is not None for e in want) >= 30
    assert sum(e["resolve"] is not None for e in want) >= 30
    assert PAPER_SOURCE in [e["source"] for e in want]


if __name__ == "__main__":  # regenerate (deliberately): python tests/test_parse_golden.py
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1,
                                 ensure_ascii=False) + "\n")
