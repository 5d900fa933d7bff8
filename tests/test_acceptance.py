"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager

import pytest

from smcsat.circuit import BoundState, evaluate_joint, marginal, validate
from smcsat.factorgraph import compile_factor_graph, enumerate_marginal
from smcsat.formula import CnfFormula
from smcsat.oracle import brute_solve, verify
from smcsat.problems import (
    GraphSpec,
    GridSpec,
    LayeredNetwork,
    encode_hamiltonian_path,
    encode_supply_chain,
    exactly_k,
    gen_kcolor,
    gen_random_bn,
    marginalize_false_circuit,
    select_shared_vars,
)
from smcsat.solver import (
    Comparator,
    PredicateSpec,
    SmcProblem,
    SolveStatus,
    SolverConfig,
    ThresholdMode,
    solve,
)
from smcsat.sweep import sweep, with_threshold
from util import (
    brute_minmax_over_shared,
    two_route_circuit,
    motivating_problem,
    random_circuit,
    rel_close,
)

PARTITION_FRACTIONS = (1e-3, 1e-1, 0.5, 0.9)


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_worked_example():
    with criterion(1, "worked-example joint 0.1 and marginal 1.0"):
        c = two_route_circuit()
        joint = evaluate_joint(c, {0: True, 1: False, 2: True, 3: True})
        assert abs(joint - 0.1) <= 1e-12
        marg = marginal(c, {2: True, 3: True})
        assert abs(marg - 1.0) <= 1e-12


def test_criterion_2_motivating_example():
    with criterion(2, "two-route example SAT/UNSAT end to end"):
        sat_problem = motivating_problem(0.5)
        result = solve(sat_problem)
        assert result.status is SolveStatus.SAT
        assert result.model[6] is True and result.model[5] is False
        assert verify(sat_problem, result.model).passed
        assert brute_solve(sat_problem).status is SolveStatus.SAT

        unsat_problem = motivating_problem(1.5)
        assert solve(unsat_problem).status is SolveStatus.UNSAT
        assert brute_solve(unsat_problem).status is SolveStatus.UNSAT


def test_criterion_3_bound_soundness_fuzz():
    with criterion(3, "bound soundness on 200 random circuits"):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            c = random_circuit(seed + 5000, n, max_nodes=60)
            assert len(c.nodes) <= 60
            shared = set(rng.sample(range(n), rng.randint(1, min(n, 6))))
            bs = BoundState(c, shared)
            partial: dict[int, bool] = {}
            order = sorted(shared)
            rng.shuffle(order)
            for level, var in enumerate(order, start=1):
                lo, hi = brute_minmax_over_shared(c, partial, shared)
                ub, lb = bs.root_bounds()
                scale = max(1.0, abs(lo), abs(hi))
                assert lb <= lo + 1e-9 * scale
                assert ub >= hi - 1e-9 * scale
                partial[var] = rng.random() < 0.5
                bs.assign([(var, partial[var])], level)
            ub, lb = bs.root_bounds()
            exact = marginal(c, partial)
            assert ub == lb
            assert rel_close(ub, exact, rel=1e-9)


def _agreement_cnf(rng: random.Random) -> CnfFormula:
    kind = rng.randrange(4)
    if kind == 0:
        rows, cols = rng.choice(((1, 2), (1, 3), (2, 2)))
        colors = rng.choice((2, 3))
        if rows * cols * colors > 12:
            colors = 2
        return gen_kcolor(GridSpec(rows, cols, colors), shuffle_seed=rng.randrange(100))
    if kind == 1:
        return encode_hamiltonian_path(GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)][: rng.randint(2, 3)]))
    if kind == 2:
        layers = rng.choice(((2, 2), (2, 2, 2), (1, 3)))
        if layers == (1, 3):
            # The one source sells to exactly two of its three buyers.
            return CnfFormula(3, tuple(exactly_k([1, 2, 3], 2)))
        return encode_supply_chain(LayeredNetwork(layers), 1, 1)
    n = rng.randint(4, 10)
    k = rng.randint(1, n - 1)
    return CnfFormula(n, tuple(exactly_k(list(range(1, n + 1)), k)))


def test_criterion_4_solver_oracle_agreement():
    with criterion(4, "solver vs oracle on 100 generated instances"):
        agreed = 0
        for seed in range(100):
            rng = random.Random(seed + 7000)
            cnf = _agreement_cnf(rng)
            assert cnf.num_vars <= 12
            bn_vars = rng.randint(2, 10)
            circuit = compile_factor_graph(gen_random_bn(bn_vars, seed=seed))
            shared = select_shared_vars(circuit.num_vars, cnf.num_vars, seed)
            fraction = PARTITION_FRACTIONS[seed % len(PARTITION_FRACTIONS)]
            b = None if rng.random() < 0.4 else rng.choice((1, -1)) * rng.randint(1, cnf.num_vars)
            pred = PredicateSpec(
                circuit,
                shared,
                rng.choice(list(Comparator)),
                fraction,
                ThresholdMode.PARTITION_FRACTION,
                b=b,
            )
            problem = SmcProblem(cnf, (pred,))
            result = solve(problem)
            expected = brute_solve(problem)
            assert result.status is expected.status, f"instance seed {seed}"
            if result.status is SolveStatus.SAT:
                assert verify(problem, result.model).passed, f"instance seed {seed}"
            agreed += 1
        assert agreed == 100


def test_criterion_5_compilation_equivalence():
    with criterion(5, "compiled circuits match enumeration on 50 graphs"):
        from test_factorgraph import random_factor_graph

        for seed in range(50):
            rng = random.Random(seed + 9000)
            n = rng.randint(2, 12)
            fg = random_factor_graph(seed + 11000, n, rng.randint(1, n + 2))
            circuit = compile_factor_graph(fg)
            assert validate(circuit).ok
            for _ in range(200):
                assignment = {
                    v: rng.random() < 0.5 for v in range(n) if rng.random() < 0.75
                }
                got = marginal(circuit, assignment)
                want = enumerate_marginal(fg, assignment)
                assert rel_close(got, want, rel=1e-9), f"graph seed {seed}"


def _regression_suite() -> list[SmcProblem]:
    suite = []
    grids = [(2, 2, 3), (1, 3, 3), (1, 4, 2), (2, 3, 2), (1, 2, 2)]
    for i in range(20):
        rows, cols, colors = grids[i % len(grids)]
        cnf = gen_kcolor(GridSpec(rows, cols, colors))
        circuit = compile_factor_graph(gen_random_bn(3 + i % 5, seed=200 + i))
        shared = select_shared_vars(circuit.num_vars, cnf.num_vars, seed=300 + i)
        pred = PredicateSpec(
            circuit,
            shared,
            Comparator.GE,
            1.1 + 0.05 * (i % 4),
            ThresholdMode.PARTITION_FRACTION,
        )
        suite.append(SmcProblem(cnf, (pred,)))
    return suite


def test_criterion_6_ablation_regression_suite():
    with criterion(6, "bound propagation dominates on 20 UNSAT instances"):
        strictly_smaller = 0
        for i, problem in enumerate(_regression_suite()):
            with_ulw = solve(problem)
            without = solve(problem, SolverConfig(ulw_enabled=False))
            assert with_ulw.status is without.status is SolveStatus.UNSAT, f"instance {i}"
            assert with_ulw.stats.decisions <= without.stats.decisions, f"instance {i}"
            assert with_ulw.stats.conflicts <= without.stats.conflicts, f"instance {i}"
            if (
                with_ulw.stats.decisions < without.stats.decisions
                or with_ulw.stats.conflicts < without.stats.conflicts
            ):
                strictly_smaller += 1
        assert strictly_smaller >= 5


def test_criterion_7_encoder_counts():
    with criterion(7, "encoder model counts 18 / 2 / 6 / 6"):
        assert brute_solve(SmcProblem(gen_kcolor(GridSpec(2, 2, 3)))).model_count == 18
        p3 = GraphSpec.from_edges(3, [(0, 1), (1, 2)])
        assert brute_solve(SmcProblem(encode_hamiltonian_path(p3))).model_count == 2
        k3 = GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert brute_solve(SmcProblem(encode_hamiltonian_path(k3))).model_count == 6
        two_of_four = CnfFormula(4, tuple(exactly_k([1, 2, 3, 4], 2)))
        assert brute_solve(SmcProblem(two_of_four)).model_count == 6


def test_criterion_8_supply_sweep():
    with criterion(8, "supply sweep finds the oracle-optimal plan"):
        net = LayeredNetwork((2, 2, 2))
        cnf = encode_supply_chain(net, 1, 1)
        fg = gen_random_bn(net.num_edges, seed=0)
        success = marginalize_false_circuit(compile_factor_graph(fg))
        shared = {cvar: cvar + 1 for cvar in range(net.num_edges)}
        problem = SmcProblem(cnf, (PredicateSpec(success, shared, Comparator.GE, 0.0),))

        feasible = brute_solve(SmcProblem(cnf))
        best_prob = max(
            enumerate_marginal(fg, {v - 1: True for v, on in m.items() if on})
            for m in feasible.models
        )
        result = sweep(problem, 0, direction="up", step=1e-2, lo=0.0, hi=1.0)
        assert result.feasible
        assert result.flip_count() == 1
        plan_prob = enumerate_marginal(
            fg, {v - 1: True for v, on in result.best_model.items() if on}
        )
        assert plan_prob >= result.best_threshold
        assert best_prob - plan_prob < 1e-2


def test_criterion_9_phase_transition_qualitative():
    with criterion(9, "single SAT->UNSAT flip; fewer conflicts in UNSAT region"):
        cnf = gen_kcolor(GridSpec(2, 2, 3))
        circuit = compile_factor_graph(gen_random_bn(6, seed=17))
        shared = select_shared_vars(circuit.num_vars, cnf.num_vars, seed=23)
        base = SmcProblem(
            cnf,
            (PredicateSpec(circuit, shared, Comparator.GE, 0.0, ThresholdMode.PARTITION_FRACTION),),
        )
        fractions = [i / 10 for i in range(13)]  # 0.0 .. 1.2 across the flip
        rows = []
        for q in fractions:
            problem = with_threshold(base, 0, q)
            with_ulw = solve(problem)
            without = solve(problem, SolverConfig(ulw_enabled=False))
            assert with_ulw.status is without.status, f"q={q}"
            rows.append((q, with_ulw.status, with_ulw.stats.conflicts, without.stats.conflicts))
        statuses = [status for _, status, _, _ in rows]
        flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a is not b)
        assert flips == 1
        assert statuses[0] is SolveStatus.SAT and statuses[-1] is SolveStatus.UNSAT
        for q, status, ulw_conflicts, plain_conflicts in rows:
            if status is SolveStatus.UNSAT:
                assert ulw_conflicts <= plain_conflicts, f"q={q}"
