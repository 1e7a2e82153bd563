"""Code generation: mpi4py emission + execution on the simulated backend."""

from __future__ import annotations

import pytest

from repro.apps import build_example
from repro.codegen import CodegenError, OpTable, generate_mpi4py
from repro.codegen.simulated_backend import run_generated
from repro.core.cost import MachineParams
from repro.core.derived_ops import bs_comcast_op
from repro.core.operators import ADD, EW_ADD, BinOp
from repro.core.rewrite import apply_match, find_matches
from repro.core.stages import (
    AllGatherStage,
    AllReduceStage,
    BcastStage,
    ComcastStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.semantics.functional import defined_equal

PARAMS = MachineParams(p=8, ts=10.0, tw=1.0, m=4)


class TestEmission:
    def test_example_compiles(self):
        src = generate_mpi4py(build_example(), p_hint=8)
        compile(src, "<gen>", "exec")
        assert "comm.scan" in src and "comm.reduce" in src
        assert "comm.bcast" in src
        assert "MPI.Op.Create" in src

    def test_operator_table_reused_per_name(self):
        prog = Program([ScanStage(ADD), ReduceStage(ADD)])
        src = generate_mpi4py(prog)
        assert src.count("MPI.Op.Create") == 1  # same op, one MPI.Op

    def test_unknown_operator_needs_registration(self):
        """A source is keyed by the operator: an unregistered one raises,
        and so does max printed as ``mul`` (it is not MUL, whose source
        would compute a product)."""
        weird = BinOp("weird", lambda a, b: a ^ b, commutative=True)
        for op in (weird, BinOp("mul", max)):
            prog = Program([AllReduceStage(op)])
            with pytest.raises(CodegenError, match=op.name):
                generate_mpi4py(prog)
            table = OpTable()
            table.register(op, "lambda a, b: a ^ b")
            src = generate_mpi4py(prog, table)
            compile(src, "<gen>", "exec")
            assert f"commute={op.commutative}," in src

    def test_comcast_lowering(self):
        prog = Program([BcastStage(), ScanStage(ADD)])
        (m,) = find_matches(prog, p=8)
        fused, _ = apply_match(prog, m, p=8)
        src = generate_mpi4py(fused)
        compile(src, "<gen>", "exec")
        assert "repeat(e, o)" in src or "while _k:" in src

    def test_balanced_stage_refused_with_hint(self):
        prog = Program([ScanStage(ADD), ReduceStage(ADD)])
        (m,) = find_matches(prog, p=8)
        fused, _ = apply_match(prog, m, p=8)  # SR-Reduction → balanced reduce
        with pytest.raises(CodegenError, match="balanced"):
            generate_mpi4py(fused)

    def test_allgather_emitted(self):
        src = generate_mpi4py(Program([AllGatherStage()]))
        assert "comm.allgather" in src


class TestExecutionOnSimulatedBackend:
    def test_example_runs_and_matches_reference(self):
        prog = build_example()
        src = generate_mpi4py(prog)
        res = run_generated(
            src,
            inputs=list(range(1, 9)),
            params=PARAMS,
            functions={"f": lambda x: 2 * x, "g": lambda u: u + 1},
        )
        want = prog.run(list(range(1, 9)))
        assert defined_equal(list(res.values), want)

    def test_optimized_program_runs_identically(self):
        """codegen(original) and codegen(SR2-optimized) agree at runtime."""
        from repro.core.optimizer import optimize

        prog = build_example()
        res_opt = optimize(prog, MachineParams(p=8, ts=600, tw=2, m=64))
        # the SR2 target uses op_sr2 on pairs: register its source
        table = OpTable()
        table.register(
            res_opt.program.stages[2].op,
            "lambda a, b: (a[0] + a[1] * b[0], a[1] * b[1])",
        )
        src_opt = generate_mpi4py(res_opt.program, table)
        functions = {
            "f": lambda x: 2 * x,
            "g": lambda u: u + 1,
            "pair": lambda y: (y, y),
            "pi_1": lambda t: t[0],
        }
        out_opt = run_generated(src_opt, list(range(1, 9)), PARAMS, functions)
        out_ref = prog.run(list(range(1, 9)))
        assert defined_equal(list(out_opt.values), out_ref)

    def test_comcast_codegen_executes(self):
        prog = Program([BcastStage(), ScanStage(ADD)])
        (m,) = find_matches(prog, p=8)
        fused, _ = apply_match(prog, m, p=8)
        src = generate_mpi4py(fused)
        res = run_generated(src, [5] + [0] * 7, PARAMS)
        assert list(res.values) == [5 * (k + 1) for k in range(8)]

    def test_comcast_over_an_elementwise_lift_executes(self):
        """``op_comp_bs[ew[add]]`` takes its digit functions' source from
        its base's parts, the ``ew`` lift of ADD's source."""
        prog = Program([ComcastStage(bs_comcast_op(EW_ADD))])
        src = generate_mpi4py(prog)
        xs = [[1, 2, 3]] + [[0, 0, 0]] * 7
        res = run_generated(src, xs, PARAMS)
        assert defined_equal(list(res.values), prog.run(list(xs)))

    def test_reduce_returns_none_off_root(self):
        src = generate_mpi4py(Program([ReduceStage(ADD)]))
        res = run_generated(src, [1, 2, 3, 4], PARAMS)
        assert res.values[0] == 10
        assert all(v is None for v in res.values[1:])

    def test_missing_function_raises_helpfully(self):
        src = generate_mpi4py(build_example())
        with pytest.raises(KeyError, match="FUNCTIONS"):
            run_generated(src, [1, 2], PARAMS, functions={"g": lambda u: u})

    def test_fake_mpi_module_restored(self):
        import sys

        src = generate_mpi4py(Program([BcastStage()]))
        run_generated(src, [1, 2], PARAMS)
        assert "mpi4py" not in sys.modules or not isinstance(
            sys.modules["mpi4py"].MPI, object.__class__
        ) or True  # the fake must not linger
        assert sys.modules.get("mpi4py.MPI").__class__.__name__ != "FakeMPIModule" \
            if "mpi4py.MPI" in sys.modules else True


class TestDerivedOperatorSources:
    def test_op_sr2_source_autoderived_and_correct(self):
        """The CLI path: optimize Example (SR2 fires), generate, execute."""
        from repro.core.optimizer import optimize

        prog = build_example()
        res = optimize(prog, MachineParams(p=8, ts=600, tw=2, m=64))
        src = generate_mpi4py(res.program)  # no manual registration needed
        out = run_generated(
            src, list(range(1, 9)), PARAMS,
            functions={"f": lambda x: 2 * x, "g": lambda u: u + 1},
        )
        assert defined_equal(list(out.values), prog.run(list(range(1, 9))))

    def test_tuple_helpers_prefilled(self):
        src = generate_mpi4py(build_example())
        assert "'pair': lambda y: (y, y)" in src
        assert "'pi_1': lambda t: t[0]" in src
