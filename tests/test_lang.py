"""Tests for the mini MPI-like surface language (repro.lang)."""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

import planner_corpus
from test_stage_facets_golden import _vocabulary

from repro.core import stages as stages_module
from repro.core.operators import ADD, EW_ADD, EW_MAX, MAX, MIN, MUL
from repro.core.optimizer import exhaustive_optimize, greedy_optimize, optimize
from repro.core.cost import PARSYTEC_LIKE
from repro.core.planner import beam_optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllGatherVStage,
    AllReduceStage,
    BcastStage,
    MapIndexedStage,
    MapStage,
    Program,
    ReduceScatterStage,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.testing.generator import (
    INT_DOMAIN,
    RULE_CASES,
    generate_from_case,
    generate_random,
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

    def test_brackets_and_the_indexed_suffix(self):
        toks = tokenize("op_sr2[mul,add] [2, 0] map2# h")
        assert [t.kind for t in toks[:6]] == ["NAME", "LBRACK", "NAME",
                                              "COMMA", "NAME", "RBRACK"]
        assert [t.text for t in toks[6:-1]] == ["[", "2", ",", "0", "]",
                                                "map2#", "h"]
        for junk in ("x # y", "#x", "x##"):  # a name may end in one '#'
            with pytest.raises(LexError, match="'#'"):
                tokenize(junk)

    @pytest.mark.parametrize("name", ["fuzz-int", "case-SR2-Reduction",
                                      "fuzz-int;case-SS-Scan", "P"])
    def test_a_program_name_is_all_before_its_parenthesis(self, name):
        toks = tokenize(f"\nProgram  {name} (x: input);")
        assert toks[1] == Token("NAME", name, 2, 10)
        assert (toks[2].kind, toks[2].column) == ("LPAREN", 11 + len(name))
        # only on the header's own line, and only after the first token
        assert [t.text for t in tokenize("Program\nP (x)")][:2] == ["Program", "P"]
        with pytest.raises(LexError, match="'-'"):
            tokenize("x Program a-b (")


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


def _shipped(writable: bool) -> list[type]:
    """The stage classes of ``core.stages`` that declare a call (or not)."""
    exported = map(stages_module.__dict__.get, stages_module.__all__)
    return [cls for cls in exported if isinstance(cls, type)
            and issubclass(cls, Stage) and cls is not Stage
            and (cls.mpi_call is not None) == writable]


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

    def test_counts_and_bracketed_operators(self):
        src = ("Program P (x);\nMPI_Reduce_scatter (x, y, [2, 0, 1], ew[add]);\n"
               "MPI_Allgatherv (y, z, counts);\ny2 = h (rank, z);\n"
               "MPI_Reduce (y2, u, count, type, op_sr2[mul,add], root, comm);\n")
        op = replace(ADD, name="op_sr2[mul,add]")
        prog = parse_program(src).to_program(
            {"ew[add]": EW_ADD, "h": (max, 2), "op_sr2[mul,add]": op})
        assert list(prog.stages) == [
            ReduceScatterStage(EW_ADD, (2, 0, 1)), AllGatherVStage(),
            MapIndexedStage(max, "h", 2), ReduceStage(op)]
        with pytest.raises(ParseError, match=r"unexpected '\[' in MPI_Scan"):
            parse_program("Program P (x);\nMPI_Scan (x, y, [1], add);\n")
        with pytest.raises(ParseError, match="unclosed"):
            parse_program("Program P (x);\nMPI_Scan (x, y, ew[add);\n")
        with pytest.raises(ParseError, match="unknown call 'MPI_Sum'"):
            parse_program("Program P (x);\nMPI_Sum (x, y, add);\n")

    @pytest.mark.parametrize("program", [
        generate_random(random.Random(3), INT_DOMAIN).program,
        generate_from_case(random.Random(5), RULE_CASES[0]).program,
        generate_random(random.Random(3), INT_DOMAIN).program.then(
            generate_from_case(random.Random(5), RULE_CASES[0]).program),
    ], ids=lambda program: program.name)
    def test_a_printed_name_reads_back(self, program):
        """``fuzz-int``, ``case-SR2-Reduction`` and ``Program.then``'s
        ``a;b`` are no identifiers; the header reads them all the same."""
        assert parse_program(to_mpi_text(program)).name == program.name

    @pytest.mark.parametrize("cls", _shipped(writable=False),
                             ids=lambda cls: cls.__name__)
    def test_a_class_text_cannot_build_is_refused_by_name(self, cls):
        for word, reason in cls.NOT_WRITABLE.items():
            for statement in (f"{word} (x, y, op);", f"y = {word} (x);"):
                with pytest.raises(ParseError) as err:
                    parse_program(f"Program P (x);\n{statement}\n")
                assert f"line 2: {word} is {cls.__name__}" in str(err.value)
                assert reason in str(err.value)


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
        """A declaration keeps its last resolution, keyed by the identity
        of the objects its names resolve to."""
        decl = parse_program(PAPER_SOURCE)
        a = decl.to_program(ENV)
        # the same objects give the identical Program, from any mapping
        assert parse_program(PAPER_SOURCE).to_program(ENV) is a
        assert decl.to_program(dict(ENV)) is a
        # rebinding one name gives a new Program holding the new operator
        swapped = decl.to_program({**ENV, "op1": ADD})
        assert swapped is not a and swapped != a
        assert swapped.stages[1].op is ADD and a.stages[1].op is MUL
        again = decl.to_program(ENV)
        assert again == a and hash(again) == hash(a)
        # an environment whose resolution raises is never remembered
        for _ in range(2):
            with pytest.raises(ParseError, match="not a BinOp"):
                decl.to_program({**ENV, "op1": ADD.fn})
        assert decl.to_program(ENV) is again
        # a (fn, ops_per_element) pair is keyed by the pair object
        fn, ops = ENV["f"]
        pair = decl.to_program({**ENV, "f": (fn, ops)})
        assert pair is not again and pair == again
        assert decl.to_program({**ENV, "f": (fn, ops)}) is not pair

    def test_resolution_stays_right_under_threads(self):
        """Eight threads alternate two environments on one declaration,
        switching every microsecond: each gets its own objects' Program."""
        decl = parse_program(PAPER_SOURCE)
        envs = (ENV, {**ENV, "op1": ADD})
        errors = []

        def work(tid):
            try:
                for k in range(400):
                    env = envs[(tid + k) % 2]
                    assert decl.to_program(env).stages[1].op is env["op1"]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]

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


def _env_of(program: Program) -> dict:
    """The names ``program`` prints: its map labels and operator names."""
    env = {}
    for stage in program.stages:
        call = stage.mpi_call
        if call is not None and call.name is None:
            env[stage.label] = (stage.fn, stage.ops_per_element)
        if call is not None and call.op:
            env[stage.op.name] = stage.op
    return env


def _bare(program: Program) -> list:
    return [stage.with_origin("") for stage in program.stages]


def _reads_back(program: Program) -> bool:
    """``program`` parses back from its text to equal stages (up to
    ``origin``) under the same name, or — holding a class text cannot
    build — is a ``ParseError`` naming the first such class.  True for
    the former."""
    text = to_mpi_text(program)
    refused = [type(s) for s in program.stages if s.mpi_call is None]
    if refused:
        with pytest.raises(ParseError, match=refused[0].__name__):
            parse_program(text)
        return False
    got = parse_program(text).to_program(_env_of(program))
    assert got.name == program.name, text
    assert _bare(got) == _bare(program), text
    return True


#: label -> (function, ops per element) of the drawn maps
_MAPS = {"f": (abs, 0), "g": (max, 2), "h": (min, 3)}
_FOLD_OPS = (ADD, MUL, MAX, MIN, EW_ADD, EW_MAX)
_COUNTS = st.none() | st.lists(st.integers(0, 3), max_size=5).map(tuple)


def _drawn(cls: type) -> st.SearchStrategy:
    """Instances of ``cls`` varying in what its call declares it writes."""
    call = cls.mpi_call
    if call.name is None:
        return st.sampled_from(sorted(_MAPS)).map(
            lambda label: cls(_MAPS[label][0], label, _MAPS[label][1]))
    drawn = {"op": st.sampled_from(_FOLD_OPS)} if call.op else {}
    if call.counts:
        drawn["counts"] = _COUNTS
    return st.builds(cls, **drawn)


_STAGES = st.lists(
    st.tuples(st.one_of([_drawn(cls) for cls in _shipped(writable=True)]),
              st.sampled_from(["", "Some-Rule"]))
    .map(lambda pair: pair[0].with_origin(pair[1])),
    min_size=1, max_size=6)


class TestRoundTripProperty:
    """Random programs of every writable class survive print → parse."""

    @given(_STAGES)
    @example([ReduceScatterStage(EW_ADD), AllGatherVStage(),
              ReduceScatterStage(EW_MAX, (2, 0, 1)), AllGatherVStage((0, 3)),
              MapIndexedStage(max, "g", 2)])
    @settings(max_examples=60, deadline=None)
    def test_random_program_round_trips(self, stages):
        assert _reads_back(Program(stages, name="RT"))


_PLANNERS = {
    "greedy": lambda prog, params, rules: greedy_optimize(prog, params, rules),
    "beam": lambda prog, params, rules: beam_optimize(prog, params, rules,
                                                      width=4),
    "exhaustive": lambda prog, params, rules: exhaustive_optimize(
        prog, params, rules),
}


class TestPrintedPlansReadBack:
    """What the repo prints, it reads: ``parse ∘ print`` is the identity
    (up to ``origin`` and the environment) on the planner corpus and on
    every plan the three tiers make of it whose classes are writable."""

    def test_every_corpus_program_reads_back(self):
        assert all(_reads_back(prog) for prog, _ in planner_corpus.programs())

    @pytest.mark.parametrize("tier", sorted(_PLANNERS))
    def test_every_plan_reads_back_or_names_its_class(self, tier):
        outcomes = {}
        for prog, rules in planner_corpus.programs():
            for params in planner_corpus.PRESETS:
                plan = _PLANNERS[tier](prog, params, rules).program
                outcomes.setdefault(_reads_back(plan), []).append(plan)
        assert len(outcomes[True]) > 400 and len(outcomes[False]) > 400
        decomposed = [plan for plan in outcomes[True] if any(
            isinstance(s, ReduceScatterStage) for s in plan.stages)]
        assert decomposed, "no reduce_scatter ; allgatherv plan read back"

    def test_the_decomposed_allreduce_reads_back(self):
        plan = optimize(Program([AllReduceStage(EW_ADD)], name="d"),
                        planner_corpus.PRESETS[0], rules=FULL_RULES).program
        assert [type(s) for s in plan.stages] == [ReduceScatterStage,
                                                  AllGatherVStage]
        assert _reads_back(plan)

    def test_the_vocabulary_reads_back_or_names_its_class(self):
        """Every shipped class, each variant.  ``width`` (words per
        element, a cost annotation) is not written: the text is the same
        at any width, and reads back at 1."""
        def at_width_one(prog):
            return Program([replace(s, width=1) if "width" in
                            {f.name for f in fields(s)} else s for s in prog],
                           name=prog.name)

        reached = set()
        for prog in _vocabulary():
            assert to_mpi_text(at_width_one(prog)) == to_mpi_text(prog)
            _reads_back(at_width_one(prog))
            reached |= {type(s) for s in prog.stages}
        assert reached == set(_shipped(True)) | set(_shipped(False))
