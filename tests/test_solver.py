import itertools
import math
import random
from dataclasses import asdict

import pytest

from smcsat.circuit import BoundState, NumericMode, marginal, parse_pc, partition
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
    # a NaN bound leaves every comparator undecided, never refuted
    nan = math.nan
    for cmp in (GE, GT, LE, LT):
        for lb, ub in ((nan, nan), (nan, 1.0), (0.0, nan)):
            assert inequality_status(cmp, 0.5, lb, ub) is None, (cmp, lb, ub)


def test_probabilistic_clause_shapes():
    # soft predicate: complement of b plus negated assigned shared literals
    assert probabilistic_clause(-5, [1]) == [-5, -1]
    # hard predicate conflicting at x1=True, x2=False
    assert probabilistic_clause(None, [1, -2]) == [-1, 2]
    # level-0 violation of a hard predicate: empty clause
    assert probabilistic_clause(None, []) == []


# ------------------------------------------------------------ assignment

def test_trail_levels_and_backtrack():
    solver = CdclSolver(SmcProblem(CnfFormula(4, ())))
    solver._assign(1, None)
    solver.trail_lim.append(len(solver.trail))
    solver._assign(-2, None)
    solver.trail_lim.append(len(solver.trail))
    solver._assign(3, None)
    assert solver.trail == [1, -2, 3]
    assert solver.level[1:4] == [0, 1, 2]
    assert (solver.value[-2], solver.value[2]) == (True, False)
    solver.backtrack(1)
    assert solver.trail == [1, -2]
    assert solver.trail_lim == [1]
    assert solver.value[3] is None and solver.value[-3] is None
    assert (solver.value[2], solver.value[-2]) == (False, True)
    assert solver.phase[3] is True  # saved phase of the undone literal


def test_assign_rejects_double_assign():
    solver = CdclSolver(SmcProblem(CnfFormula(2, ())))
    solver._assign(1, None)
    with pytest.raises(AssertionError):
        solver._assign(-1, None)
    with pytest.raises(AssertionError):
        solver._assign(1, None)
    assert solver.trail == [1]


def test_predicate_spec_rejects_bad_fields_through_the_api():
    # the manifest layer catches these first, so only direct API use meets them
    c = two_route_circuit()
    with pytest.raises(ValueError, match="shared map is not injective"):
        PredicateSpec(c, {0: 1, 1: 1}, Comparator.GE, 0.5)
    with pytest.raises(ValueError, match="b literal must be nonzero"):
        PredicateSpec(c, {0: 1}, Comparator.GE, 0.5, b=0)
    negative = PredicateSpec(c, {0: 1}, Comparator.GE, -0.1)
    assert negative.resolved_threshold(NumericMode.LINEAR) == -0.1
    with pytest.raises(ValueError, match="log mode requires nonnegative thresholds"):
        negative.resolved_threshold(NumericMode.LOG)


def test_solver_config_rejects_negative_and_nan_budgets():
    with pytest.raises(ValueError, match="conflict budget must be nonnegative"):
        SolverConfig(max_conflicts=-1)
    for seconds in (-1.0, math.nan):
        with pytest.raises(ValueError, match="time budget must be a nonnegative number"):
            SolverConfig(max_seconds=seconds)
    assert SolverConfig(max_conflicts=0, max_seconds=0.0).max_seconds == 0.0


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
    solver.trail_lim.append(len(solver.trail))
    solver._assign(5, None)  # decide b1 = True
    conflict = solver.propagate()
    assert conflict is not None
    assert solver.value[2] is None  # x2 untouched
    assert set(conflict) == {-5, -1}
    assert solver.stats.prob_conflicts == 1


def test_propagate_one_batch_per_dirty_predicate_per_round(monkeypatch):
    # Each call's items are exactly the predicate's shared variables that the
    # solver has assigned and the bound state has not yet seen.
    solver: CdclSolver | None = None
    rounds = 0
    calls: list[tuple[int, int]] = []  # (round, predicate index)
    original_bool, original_assign = CdclSolver._propagate_bool, BoundState.assign

    def counting_bool(self):
        nonlocal rounds
        rounds += 1
        return original_bool(self)

    def checking_assign(self, items, level):
        pi = next(i for i, ps in enumerate(solver.preds) if ps.bounds is self)
        want = [
            (cvar, solver.value[fvar])
            for cvar, fvar in solver.preds[pi].shared_items
            if self.status[cvar] is None and solver.value[fvar] is not None
        ]
        assert sorted(items) == want
        assert level == len(solver.trail_lim)
        calls.append((rounds, pi))
        return original_assign(self, items, level)

    monkeypatch.setattr(CdclSolver, "_propagate_bool", counting_bool)
    monkeypatch.setattr(BoundState, "assign", checking_assign)
    for q in (0.1, 0.3, 0.5):  # 3, 2 and 0 conflicts
        calls.clear()
        solver = CdclSolver(motivating_problem(q))
        assert solver.solve().status is SolveStatus.SAT
        assert calls and len(set(calls)) == len(calls)
    # Deciding b2 = True forces x3 and x4 in one round: one call, both items.
    calls.clear()
    solver = CdclSolver(motivating_problem(0.5))
    assert solver.propagate() is None and calls == []
    solver.trail_lim.append(len(solver.trail))
    solver._assign(6, None)
    assert solver.propagate() is None
    assert calls == [(rounds, 1)]
    assert solver.preds[1].bounds.status == {2: True, 3: True}


def test_backjump_clears_unapplied_batches():
    # b1 forces all four shared variables; the first predicate (hard)
    # conflicts before the second one's batch is applied.
    c = two_route_circuit()
    cnf = CnfFormula(6, ((-5, 1), (-5, 2), (-5, 3), (-5, 4)))
    p1 = PredicateSpec(c, {0: 1, 1: 2}, Comparator.GE, 0.5)
    p2 = PredicateSpec(c, {2: 3, 3: 4}, Comparator.GE, 0.5, b=6)
    solver = CdclSolver(SmcProblem(cnf, (p1, p2)))
    assert solver.propagate() is None
    solver.trail_lim.append(len(solver.trail))
    solver._assign(5, None)
    conflict = solver.propagate()
    assert conflict is not None and solver.stats.prob_conflicts == 1
    assert solver.preds[1].pending == [(2, True), (3, True)]
    learned, backjump = solver.analyze(conflict)
    solver.backtrack(backjump)
    assert all(ps.pending == [] for ps in solver.preds)
    assert all(val is None for ps in solver.preds for val in ps.bounds.status.values())
    assert solve(SmcProblem(cnf, (p1, p2))).status is brute_solve(SmcProblem(cnf, (p1, p2))).status


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
        # every learned or predicate-reason clause is appended after the originals
        learned = solver.clauses[len(solver.clauses) - solver.stats.learned_clauses :]
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
    ((1, Comparator.GE, 0.002, False), NumericMode.LINEAR, SolveStatus.UNSAT, (14, 87, 0, 10, 0, 9, 0, 11)),
    ((2, Comparator.GE, 0.0005, False), NumericMode.LOG, SolveStatus.SAT, (17, 62, 0, 3, 0, 3, 0, 9)),
    ((1, Comparator.LE, 0.002, True), NumericMode.LINEAR, SolveStatus.SAT, (26, 124, 0, 9, 0, 9, 0, 14)),
    ((0, Comparator.LE, 0.05, True), NumericMode.LOG, SolveStatus.SAT, (9, 38, 0, 0, 1, 1, 0, 9)),
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


@pytest.mark.parametrize("instance, mode, status, counters", _PINNED_COUNTERS)
def test_pinned_instances_agree_without_ulw(instance, mode, status, counters):
    # the pinned instances are too large for brute_solve: their status is
    # checked against a solve that never reads a bound, and a model by verify
    problem = _pinned_instance(*instance)
    result = solve(problem, SolverConfig(numeric_mode=mode))
    without = solve(problem, SolverConfig(numeric_mode=mode, ulw_enabled=False))
    assert result.status is without.status is status
    if status is SolveStatus.SAT:
        assert verify(problem, result.model, mode).passed


def _decision_instance(seed: int) -> SmcProblem:
    """At most 14 formula variables and one compiled-BN predicate that shares
    some of its variables, hard or soft, GE or LE; the threshold lies midway
    between two marginals of the shared assignments."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        rows, cols, colors = rng.choice(((2, 2, 3), (1, 4, 3), (2, 3, 2), (2, 2, 2)))
        cnf = gen_kcolor(GridSpec(rows, cols, colors), shuffle_seed=seed)
    else:
        n = rng.randint(6, 14)
        clauses = [rng.sample(range(1, n + 1), rng.randint(2, 3)) for _ in range(rng.randint(n // 2, 2 * n))]
        cnf = CnfFormula(n, tuple(tuple(v if rng.random() < 0.5 else -v for v in cl) for cl in clauses))
    n = cnf.num_vars
    k = rng.randint(3, 7)
    order = rng.sample(range(k), k) if rng.random() < 0.5 else None
    circuit = compile_factor_graph(gen_random_bn(k, max_parents=2, seed=seed), order)
    cvars = rng.sample(range(k), rng.randint(1, min(k, n)))
    shared = dict(zip(cvars, rng.sample(range(1, n + 1), len(cvars))))
    values = sorted(
        {marginal(circuit, dict(zip(cvars, bits))) for bits in itertools.product((False, True), repeat=len(cvars))}
    )
    i = rng.randrange(len(values))
    q = (values[i] + values[i + 1]) / 2 if i + 1 < len(values) else values[i] * 1.5
    cmp = rng.choice((Comparator.GE, Comparator.LE))
    b = rng.choice((None, rng.randint(1, n), -rng.randint(1, n)))
    return SmcProblem(cnf, (PredicateSpec(circuit, shared, cmp, q, b=b),))


@pytest.mark.parametrize("mode", list(NumericMode))
def test_decision_bounds_solver_agreement(mode):
    # the decision-sum bounds prune sooner; the answers must not change
    for seed in range(60):
        problem = _decision_instance(seed)
        result = solve(problem, SolverConfig(numeric_mode=mode))
        expected = brute_solve(problem, mode=mode)
        without = solve(problem, SolverConfig(numeric_mode=mode, ulw_enabled=False))
        assert result.status is expected.status is without.status, f"seed {seed}"
        if result.status is SolveStatus.SAT:
            assert verify(problem, result.model, mode).passed, f"seed {seed}"
            assert result.model in expected.models, f"seed {seed}"


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


def test_restarts_preserve_completeness(monkeypatch):
    monkeypatch.setattr("smcsat.solver._RESTART_BASE", 1)
    problem = motivating_problem(0.5)
    result = solve(problem)
    assert result.status is SolveStatus.SAT
    assert verify(problem, result.model).passed
    hard = _ablation_instance(2)
    res = solve(hard, SolverConfig(ulw_enabled=False))
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


def test_agreement_under_aggressive_restarts(monkeypatch):
    monkeypatch.setattr("smcsat.solver._RESTART_BASE", 1)
    for seed in range(12):
        problem = _random_instance(seed + 2000)
        result = solve(problem)
        expected = brute_solve(problem)
        assert result.status is expected.status, f"seed {seed}"
        if result.status is SolveStatus.SAT:
            assert verify(problem, result.model).passed


class _BacktrackCheckingSolver(CdclSolver):
    """Checks both polarity slots of every variable after each backtrack."""

    backtracks = 0

    def backtrack(self, level: int) -> None:
        super().backtrack(level)
        self.backtracks += 1
        on_trail = {abs(lit) for lit in self.trail}
        for lit in self.trail:
            assert self.value[lit] is True and self.value[-lit] is False
        for v in range(1, self.num_vars + 1):
            if v not in on_trail:
                assert self.value[v] is None and self.value[-v] is None


def test_backtrack_clears_both_polarity_slots(monkeypatch):
    # Restarting after every conflict backtracks often, to level 0 and above.
    monkeypatch.setattr("smcsat.solver._RESTART_BASE", 1)
    backtracks = 0
    for instance, mode, status, _ in _PINNED_COUNTERS:
        config = SolverConfig(numeric_mode=mode)
        solver = _BacktrackCheckingSolver(_pinned_instance(*instance), config)
        assert solver.solve().status is status
        backtracks += solver.backtracks
    assert backtracks > 20


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


def test_activity_rescale_keeps_the_answer():
    # a VSIDS bump that starts at 1e99 drives an activity past 1e100 within
    # a few conflicts, so every activity and the bump are scaled by 1e-100
    # mid-search; the answer must not change. The pinned instance is beyond
    # brute_solve's cap, so its status is checked against the pinned one
    # and its model by verify.
    instance, mode, status, _ = _PINNED_COUNTERS[2]
    problem = _pinned_instance(*instance)
    solver = CdclSolver(problem, SolverConfig(numeric_mode=mode))
    solver.var_inc = 1e99
    result = solver.solve()
    assert solver.var_inc < 1.0 and max(solver.activity) <= 1e100
    assert result.status is status is SolveStatus.SAT
    assert verify(problem, result.model, mode).passed
