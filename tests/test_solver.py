import random
from dataclasses import asdict

import pytest

from smcsat.circuit import NumericMode, parse_pc, partition
from smcsat.factorgraph import compile_factor_graph
from smcsat.formula import CnfFormula
from smcsat.oracle import brute_solve, verify
from smcsat.problems import (
    GridSpec,
    gen_kcolor,
    gen_random_bn,
    select_shared_vars,
)
from smcsat.solver import (
    CdclSolver,
    Comparator,
    PredicateSpec,
    SmcProblem,
    SolveStatus,
    SolverConfig,
    ThresholdMode,
    inequality_status,
    luby,
    probabilistic_clause,
    solve,
)
from util import two_route_circuit, motivating_problem, random_circuit, random_cnf


# ------------------------------------------------------- pure components

def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_inequality_status_strictness():
    GE, GT, LE, LT = Comparator.GE, Comparator.GT, Comparator.LE, Comparator.LT
    assert inequality_status(GE, 0.5, 0.5, 1.0) is True
    assert inequality_status(GE, 0.5, 0.0, 0.49) is False
    assert inequality_status(GE, 0.5, 0.0, 0.5) is None
    assert inequality_status(GT, 0.5, 0.5, 1.0) is None
    assert inequality_status(GT, 0.5, 0.51, 1.0) is True
    assert inequality_status(GT, 0.5, 0.0, 0.5) is False
    assert inequality_status(LE, 0.5, 0.0, 0.5) is True
    assert inequality_status(LE, 0.5, 0.51, 1.0) is False
    assert inequality_status(LT, 0.5, 0.0, 0.5) is None
    assert inequality_status(LT, 0.5, 0.0, 0.49) is True
    assert inequality_status(LT, 0.5, 0.5, 1.0) is False


def test_probabilistic_clause_shapes():
    # soft predicate: complement of b plus negated assigned shared literals
    assert probabilistic_clause(-5, [1]) == [-5, -1]
    # hard predicate conflicting at x1=True, x2=False
    assert probabilistic_clause(None, [1, -2]) == [-1, 2]
    # level-0 violation of a hard predicate: empty clause
    assert probabilistic_clause(None, []) == []


# ----------------------------------------------------- motivating example

def test_route_problem_sat():
    problem = motivating_problem(0.5)
    result = solve(problem)
    assert result.status is SolveStatus.SAT
    model = result.model
    assert model[6] is True and model[5] is False  # route 2, not route 1
    assert model[3] is True and model[4] is True
    assert verify(problem, model).passed
    assert brute_solve(problem).status is SolveStatus.SAT


def test_route_problem_unsat_high_threshold():
    problem = motivating_problem(1.5)
    assert solve(problem).status is SolveStatus.UNSAT
    assert brute_solve(problem).status is SolveStatus.UNSAT


def test_plain_sat_problems():
    assert solve(SmcProblem(CnfFormula(1, ((1,), (-1,))))).status is SolveStatus.UNSAT
    result = solve(SmcProblem(CnfFormula(2, ((1, 2), (-1, 2)))))
    assert result.status is SolveStatus.SAT
    assert result.model[2] is True


def test_empty_clause_unsat():
    assert solve(SmcProblem(CnfFormula(1, ((),)))).status is SolveStatus.UNSAT


def test_early_conflict_before_second_shared_var():
    # like the route problem but only x1 is forced by b1, so the bound
    # update alone must refute the branch while x2 is still unassigned
    c = two_route_circuit()
    cnf = CnfFormula(6, ((5, 6), (-5, -6), (-5, 1), (-6, 3), (-6, 4)))
    p1 = PredicateSpec(c, {0: 1, 1: 2}, Comparator.GE, 0.5, b=5)
    p2 = PredicateSpec(c, {2: 3, 3: 4}, Comparator.GE, 0.5, b=6)
    solver = CdclSolver(SmcProblem(cnf, (p1, p2)))
    assert solver.propagate() is None
    solver.pa.new_decision_level()
    solver.pa.assign(5)  # decide b1 = True
    conflict = solver.propagate()
    assert conflict is not None
    assert solver.pa.value(2) is None  # x2 untouched
    assert set(conflict) == {-5, -1}
    assert solver.stats.prob_conflicts == 1


def test_shared_empty_predicate_decided_at_level_zero():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")  # partition 1.0
    cnf = CnfFormula(1, ())
    hard_ok = SmcProblem(cnf, (PredicateSpec(c, {}, Comparator.GE, 0.5),))
    assert solve(hard_ok).status is SolveStatus.SAT
    hard_bad = SmcProblem(cnf, (PredicateSpec(c, {}, Comparator.GE, 1.5),))
    assert solve(hard_bad).status is SolveStatus.UNSAT
    soft = SmcProblem(cnf, (PredicateSpec(c, {}, Comparator.GE, 1.5, b=1),))
    result = solve(soft)
    assert result.status is SolveStatus.SAT
    assert result.model[1] is False  # b forced to the inequality's truth


def test_hard_predicate_above_partition_unsat():
    c = two_route_circuit()
    cnf = CnfFormula(4, ((1, 2),))
    problem = SmcProblem(
        cnf,
        (PredicateSpec(c, {0: 1, 1: 2}, Comparator.GE, 1.5, ThresholdMode.PARTITION_FRACTION),),
    )
    assert solve(problem).status is SolveStatus.UNSAT
    assert brute_solve(problem).status is SolveStatus.UNSAT


def test_b_literal_negative_polarity():
    # b = -1: variable 1 False <=> inequality holds
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    cnf = CnfFormula(2, ((1, 2),))
    problem = SmcProblem(cnf, (PredicateSpec(c, {}, Comparator.GE, 0.5, b=-1),))
    result = solve(problem)
    assert result.status is SolveStatus.SAT
    assert result.model[1] is False  # partition 1.0 >= 0.5, so -1 must hold
    # clause (1 v 2) then forces variable 2: exactly one model
    assert brute_solve(problem).models == ({1: False, 2: True},)


# ------------------------------------------------------------- comparators

@pytest.mark.parametrize("cmp", list(Comparator))
def test_comparator_agreement_with_oracle(cmp):
    c = two_route_circuit()
    cnf = CnfFormula(5, ((1, 2), (-1, 5)))
    for q in (0.05, 0.1, 0.4, 0.5, 1.0):
        problem = SmcProblem(cnf, (PredicateSpec(c, {0: 1, 1: 2}, cmp, q, b=5),))
        assert solve(problem).status is brute_solve(problem).status


# ---------------------------------------------------------- fuzz agreement

def _random_instance(seed: int) -> SmcProblem:
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        rows, cols = rng.choice(((1, 2), (2, 2), (1, 3)))
        cnf = gen_kcolor(GridSpec(rows, cols, rng.choice((2, 3))))
    elif kind == 1:
        n = rng.randint(3, 10)
        cnf = random_cnf(seed * 7 + 1, n, rng.randint(2, 2 * n))
    else:
        cnf = gen_kcolor(GridSpec(1, 2, 2), shuffle_seed=seed)
    if cnf.num_vars > 12:
        cnf = CnfFormula(12, tuple(cl for cl in cnf.clauses if all(abs(l) <= 12 for l in cl)))
    preds = []
    for j in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            circuit = compile_factor_graph(gen_random_bn(rng.randint(2, 6), seed=seed + 31 * j))
        else:
            circuit = random_circuit(seed + 997 * j, rng.randint(2, 6))
        shared = select_shared_vars(circuit.num_vars, cnf.num_vars, seed + 13 * j)
        frac = rng.choice((1e-3, 0.1, 0.5, 0.9))
        b = rng.choice([None, rng.randint(1, cnf.num_vars), -rng.randint(1, cnf.num_vars)])
        preds.append(
            PredicateSpec(
                circuit,
                shared,
                rng.choice(list(Comparator)),
                frac,
                ThresholdMode.PARTITION_FRACTION,
                b=b,
            )
        )
    return SmcProblem(cnf, tuple(preds))


def test_agreement_with_oracle_fuzz():
    for seed in range(40):
        problem = _random_instance(seed)
        result = solve(problem)
        expected = brute_solve(problem)
        assert result.status is expected.status, f"seed {seed}"
        if result.status is SolveStatus.SAT:
            assert verify(problem, result.model).passed, f"seed {seed}"
            assert any(result.model == m for m in expected.models), f"seed {seed}"


def test_learned_clauses_sound_fuzz():
    for seed in range(15):
        problem = _random_instance(seed + 500)
        solver = CdclSolver(problem)
        solver.solve()
        learned = solver.clauses[solver.num_original :]
        if not learned:
            continue
        for model in brute_solve(problem).models:
            for clause in learned:
                assert any(model[abs(l)] == (l > 0) for l in clause), f"seed {seed}"


def test_no_ulw_agreement_fuzz():
    for seed in range(15):
        problem = _random_instance(seed + 900)
        with_ulw = solve(problem)
        without = solve(problem, SolverConfig(ulw_enabled=False))
        assert with_ulw.status is without.status, f"seed {seed}"
        if without.status is SolveStatus.SAT:
            assert verify(problem, without.model).passed


def test_log_mode_agreement():
    for seed in range(10):
        problem = _random_instance(seed + 60)
        lin = solve(problem)
        logm = solve(problem, SolverConfig(numeric_mode=NumericMode.LOG))
        assert lin.status is logm.status, f"seed {seed}"
        if logm.status is SolveStatus.SAT:
            assert verify(problem, logm.model, NumericMode.LOG).passed


# --------------------------------------------------------------- ablation

def _ablation_instance(seed: int) -> SmcProblem:
    rng = random.Random(seed)
    rows, cols = rng.choice(((2, 2), (1, 3), (2, 3)))
    cnf = gen_kcolor(GridSpec(rows, cols, rng.choice((2, 3))))
    circuit = compile_factor_graph(gen_random_bn(rng.randint(3, 6), seed=seed + 17))
    shared = select_shared_vars(circuit.num_vars, cnf.num_vars, seed + 3)
    pred = PredicateSpec(
        circuit, shared, Comparator.GE, 1.25, ThresholdMode.PARTITION_FRACTION
    )
    return SmcProblem(cnf, (pred,))


def test_ulw_ablation_dominance():
    strictly_better = 0
    for seed in range(12):
        problem = _ablation_instance(seed)
        with_ulw = solve(problem)
        without = solve(problem, SolverConfig(ulw_enabled=False))
        assert with_ulw.status is SolveStatus.UNSAT
        assert without.status is SolveStatus.UNSAT
        assert with_ulw.stats.decisions <= without.stats.decisions
        assert with_ulw.stats.conflicts <= without.stats.conflicts
        if (
            with_ulw.stats.decisions < without.stats.decisions
            or with_ulw.stats.conflicts < without.stats.conflicts
        ):
            strictly_better += 1
    assert strictly_better >= 6


# ------------------------------------------------------------ determinism

def test_determinism_repeated_runs():
    for seed in (3, 11):
        problem = _random_instance(seed)
        a = solve(problem, SolverConfig())
        b = solve(problem, SolverConfig())
        assert a.status is b.status
        assert a.model == b.model
        da, db = asdict(a.stats), asdict(b.stats)
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db


def _pinned_instance(seed: int, cmp: Comparator, frac: float, soft: bool) -> SmcProblem:
    """A 3-coloured 4x4 grid against a compiled 12-variable BN, all shared."""
    rng = random.Random(seed)
    cnf = gen_kcolor(GridSpec(4, 4, 3), shuffle_seed=seed)
    circuit = compile_factor_graph(gen_random_bn(12, max_parents=2, seed=seed))
    shared = dict(zip(range(12), rng.sample(range(1, cnf.num_vars + 1), 12)))
    b = rng.randint(1, cnf.num_vars) if soft else None
    pred = PredicateSpec(circuit, shared, cmp, frac, ThresholdMode.PARTITION_FRACTION, b=b)
    return SmcProblem(cnf, (pred,))


_COUNTER_NAMES = (
    "decisions",
    "boolean_propagations",
    "boolean_conflicts",
    "prob_conflicts",
    "prob_entailments",
    "learned_clauses",
    "restarts",
    "max_decision_level",
)
_PINNED_COUNTERS = [
    ((1, Comparator.GE, 0.002, False), NumericMode.LINEAR, SolveStatus.UNSAT, (25, 193, 2, 18, 0, 19, 0, 14)),
    ((2, Comparator.GE, 0.0005, False), NumericMode.LOG, SolveStatus.SAT, (24, 162, 0, 15, 0, 15, 0, 9)),
    ((1, Comparator.LE, 0.002, True), NumericMode.LINEAR, SolveStatus.SAT, (36, 229, 2, 17, 0, 19, 0, 14)),
    ((0, Comparator.LE, 0.05, True), NumericMode.LOG, SolveStatus.SAT, (13, 62, 0, 2, 1, 3, 0, 11)),
]


@pytest.mark.parametrize("instance, mode, status, counters", _PINNED_COUNTERS)
def test_search_counters_pinned(instance, mode, status, counters):
    # A change meant only to speed up bound tracking must leave the search,
    # and so every counter, exactly as it was.
    result = solve(_pinned_instance(*instance), SolverConfig(numeric_mode=mode))
    stats = asdict(result.stats)
    stats.pop("wall_time")
    assert result.status is status
    assert stats == dict(zip(_COUNTER_NAMES, counters))


# ----------------------------------------------------------------- budget

def test_conflict_budget_exhaustion():
    # exactly-one constraints that force lots of conflicts on a hard UNSAT core
    cnf = gen_kcolor(GridSpec(2, 3, 3))
    clauses = cnf.clauses + ((1, 2, 3),) * 0
    problem = SmcProblem(CnfFormula(cnf.num_vars, clauses + ((-1,), (-2,), (-3,))))
    result = solve(problem, SolverConfig(max_conflicts=0))
    assert result.status in (SolveStatus.UNSAT, SolveStatus.BUDGET)
    # a budget of zero conflicts must stop a conflict-heavy search
    hard = motivating_problem(1.5)
    budget = solve(hard, SolverConfig(max_conflicts=0))
    assert budget.status in (SolveStatus.BUDGET, SolveStatus.UNSAT)


def test_time_budget_exhaustion():
    # zero wall-clock budget trips before the first decision
    result = solve(motivating_problem(0.5), SolverConfig(max_seconds=0.0))
    assert result.status is SolveStatus.BUDGET


def test_restarts_preserve_completeness():
    problem = motivating_problem(0.5)
    result = solve(problem, SolverConfig(restart_base=1))
    assert result.status is SolveStatus.SAT
    assert verify(problem, result.model).passed
    hard = _ablation_instance(2)
    res = solve(hard, SolverConfig(restart_base=1, ulw_enabled=False))
    assert res.status is SolveStatus.UNSAT


def test_stats_counters_nonnegative_and_coherent():
    problem = motivating_problem(0.5)
    stats = solve(problem).stats
    for value in asdict(stats).values():
        assert value >= 0
    assert stats.conflicts == stats.boolean_conflicts + stats.prob_conflicts


def test_decide_prefers_active_then_lowest_index():
    solver = CdclSolver(SmcProblem(CnfFormula(3, ((1, 2, 3),))))
    solver.activity[2] = 5.0
    assert solver.propagate() is None
    lit = solver.decide()
    assert abs(lit) == 2


def test_overlapping_shared_vars_and_b_collisions():
    # one formula variable feeding two predicates, with a b literal that is
    # itself another predicate's shared variable
    for seed in range(10):
        rng = random.Random(seed)
        cnf = random_cnf(seed + 45, 5, rng.randint(3, 8))
        c0 = random_circuit(seed * 3 + 1, 4)
        c1 = random_circuit(seed * 3 + 2, 3)
        p0 = PredicateSpec(
            c0, {0: 1, 1: 2}, Comparator.GE, 0.4, ThresholdMode.PARTITION_FRACTION, b=3
        )
        p1 = PredicateSpec(
            c1, {0: 2, 1: 3}, Comparator.LT, 0.7, ThresholdMode.PARTITION_FRACTION, b=-5
        )
        problem = SmcProblem(cnf, (p0, p1))
        result = solve(problem)
        expected = brute_solve(problem)
        assert result.status is expected.status, f"seed {seed}"
        if result.status is SolveStatus.SAT:
            assert verify(problem, result.model).passed


def test_agreement_under_aggressive_restarts():
    config = SolverConfig(restart_base=1)
    for seed in range(12):
        problem = _random_instance(seed + 2000)
        result = solve(problem, config)
        expected = brute_solve(problem)
        assert result.status is expected.status, f"seed {seed}"
        if result.status is SolveStatus.SAT:
            assert verify(problem, result.model).passed


def test_sat_instance_beyond_oracle_cap():
    # 3x3 grid, 27 variables: out of reach for enumeration, easy for search
    cnf = gen_kcolor(GridSpec(3, 3, 3))
    circuit = compile_factor_graph(gen_random_bn(6, seed=5))
    shared = select_shared_vars(circuit.num_vars, cnf.num_vars, seed=6)
    problem = SmcProblem(
        cnf,
        (PredicateSpec(circuit, shared, Comparator.GE, 1e-3, ThresholdMode.PARTITION_FRACTION),),
    )
    result = solve(problem)
    assert result.status is SolveStatus.SAT
    assert verify(problem, result.model).passed
