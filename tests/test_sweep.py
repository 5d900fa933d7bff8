import itertools
import math
import random
import re
import tracemalloc
from dataclasses import asdict, replace
from importlib import import_module

import pytest

from smcsat.circuit import NumericMode, marginal, parse_pc, partition
from smcsat.factorgraph import compile_factor_graph, enumerate_marginal
from smcsat.formula import CnfFormula
from smcsat.oracle import brute_solve, verify
from smcsat.problems import (
    LayeredNetwork,
    encode_supply_chain,
    gen_random_bn,
    marginalize_false_circuit,
)
from smcsat.solver import Comparator, PredicateSpec, SmcProblem, SolveStatus, SolverConfig, ThresholdMode, solve
from smcsat.sweep import sweep, with_threshold
from util import two_route_circuit, motivating_problem, random_circuit, random_cnf

# The module, not the package's re-exported `sweep` function.
sweep_mod = import_module("smcsat.sweep")


def hard_route_problem(q: float = 0.5) -> SmcProblem:
    """Route problem with predicate 2 made hard (no linkage literal)."""
    c = two_route_circuit()
    cnf = CnfFormula(6, ((5, 6), (-5, -6), (-5, 1), (-5, 2), (-6, 3), (-6, 4)))
    p1 = PredicateSpec(c, {0: 1, 1: 2}, Comparator.GE, 0.5, b=5)
    p2 = PredicateSpec(c, {2: 3, 3: 4}, Comparator.GE, q)
    return SmcProblem(cnf, (p1, p2))


def supply_problem(seed: int = 0) -> tuple[SmcProblem, object, object]:
    net = LayeredNetwork((2, 2, 2))
    cnf = encode_supply_chain(net, 1, 1)
    fg = gen_random_bn(net.num_edges, seed=seed)
    success = marginalize_false_circuit(compile_factor_graph(fg))
    shared = {cvar: cvar + 1 for cvar in range(net.num_edges)}
    pred = PredicateSpec(success, shared, Comparator.GE, 0.0)
    return SmcProblem(cnf, (pred,)), fg, net


def test_with_threshold_replaces_one_predicate():
    problem = motivating_problem(0.5)
    changed = with_threshold(problem, 1, 0.9)
    assert changed.predicates[0].threshold == 0.5
    assert changed.predicates[1].threshold == 0.9


def test_sweep_route_up():
    result = sweep(hard_route_problem(), 1, direction="up", step=0.1, lo=0.0, hi=1.5)
    assert result.best_threshold == pytest.approx(1.0)
    # best plan uses route 2
    assert result.best_model[6] is True and result.best_model[3] and result.best_model[4]
    assert result.flip_count() == 1
    statuses = [p.status for p in result.trace]
    assert statuses[-1] is SolveStatus.UNSAT
    assert all(s is SolveStatus.SAT for s in statuses[:-1])


def test_sweep_no_feasible_point():
    result = sweep(hard_route_problem(), 1, direction="up", step=0.25, lo=1.1, hi=2.0)
    assert not result.feasible
    assert result.best_model is None
    assert len(result.trace) == 1


def test_sweep_down_direction():
    # "stay below q" style predicate: decreasing q tightens, as in finding
    # the least tolerable heavy-traffic probability for a route
    c = two_route_circuit()
    cnf = CnfFormula(2, ((1, 2),))
    pred = PredicateSpec(c, {0: 1, 1: 2}, Comparator.LT, 1.0)
    problem = SmcProblem(cnf, (pred,))
    result = sweep(problem, 0, direction="down", step=0.25, lo=0.0, hi=1.0)
    assert result.feasible
    # marginals over (x1, x2) are 0.1 or 0.4; 0.25 is the last q with a model
    assert result.best_threshold == pytest.approx(0.25)
    assert result.flip_count() == 1
    assert result.trace[-1].status is SolveStatus.UNSAT


def test_sweep_validates_arguments():
    problem = hard_route_problem()
    with pytest.raises(ValueError):
        sweep(problem, 1, step=0.0)
    with pytest.raises(ValueError):
        sweep(problem, 1, lo=1.0, hi=0.5)
    with pytest.raises(ValueError):
        sweep(problem, 5)
    with pytest.raises(ValueError):
        sweep(problem, 1, direction="sideways")
    for bad in ({"step": math.nan}, {"lo": -math.inf}, {"hi": math.inf}, {"lo": math.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            sweep(problem, 1, **bad)


@pytest.mark.parametrize(
    "lo, hi, step", [(-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)], ids=["range-overflows", "step-underflows"]
)
def test_sweep_rejects_an_infinite_step_count(lo, hi, step):
    with pytest.raises(ValueError, match=re.escape(f"step {step!r} from lo {lo!r} to hi {hi!r}")):
        sweep(hard_route_problem(), 1, step=step, lo=lo, hi=hi)


def test_sweep_fine_step_builds_no_grid():
    # marginal 1.0 < q fails at the first step, q = 1.0; a million-step grid
    # built up front would take about 32 MB
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    problem = SmcProblem(CnfFormula(1, ()), (PredicateSpec(c, {}, Comparator.LT, 0.5),))
    tracemalloc.start()
    try:
        result = sweep(problem, 0, direction="down", step=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.q for p in result.trace] == [1.0]
    assert not result.feasible
    assert peak < 1_000_000


def test_sweep_monotone_single_flip_on_ge_hard():
    result = sweep(hard_route_problem(), 1, direction="up", step=0.05, lo=0.0, hi=1.4)
    assert result.flip_count() == 1


def test_supply_sweep_matches_oracle_best_plan():
    problem, fg, _ = supply_problem(seed=0)
    # oracle: exact success probability of every feasible trade set
    feasible = brute_solve(SmcProblem(problem.cnf))
    assert feasible.model_count == 4
    best_prob = max(
        enumerate_marginal(fg, {v - 1: True for v, on in m.items() if on})
        for m in feasible.models
    )
    result = sweep(problem, 0, direction="up", step=1e-2, lo=0.0, hi=1.0)
    assert result.feasible
    assert result.flip_count() == 1
    model_prob = enumerate_marginal(
        fg, {v - 1: True for v, on in result.best_model.items() if on}
    )
    assert model_prob >= result.best_threshold
    assert best_prob - model_prob < 1e-2
    assert abs(best_prob - result.best_threshold) < 1e-2


def test_supply_sweep_best_model_is_argmax_plan():
    for seed in (1, 2):
        problem, fg, _ = supply_problem(seed=seed)
        feasible = brute_solve(SmcProblem(problem.cnf))
        probs = {
            tuple(sorted(v for v, on in m.items() if on)): enumerate_marginal(
                fg, {v - 1: True for v, on in m.items() if on}
            )
            for m in feasible.models
        }
        best_prob = max(probs.values())
        result = sweep(problem, 0, direction="up", step=1e-2, lo=0.0, hi=1.0)
        chosen = tuple(sorted(v for v, on in result.best_model.items() if on))
        # within one step of optimal
        assert best_prob - probs[chosen] < 1e-2


def _step_counts(result) -> list[dict]:
    return [{**asdict(point.stats), "wall_time": None} for point in result.trace]


def _fresh_counts(problem: SmcProblem, index: int, result) -> list[dict]:
    """Per-step stats of a fresh solve at each of the trace's thresholds."""
    return [
        {**asdict(solve(with_threshold(problem, index, point.q)).stats), "wall_time": None}
        for point in result.trace
    ]


def test_supply_sweep_carries_learned_clauses_into_later_steps():
    problem, _, _ = supply_problem(seed=0)
    result = sweep(problem, 0, direction="up", step=1e-2, lo=0.0, hi=1.0)
    assert result.best_threshold == 0.17 and len(result.trace) == 19
    # the clauses learned at 0.05 settle every later step without a conflict
    # but the last, UNSAT one
    assert [point.stats.conflicts for point in result.trace] == [0] * 5 + [1] + [0] * 12 + [3]
    fresh = [count["boolean_conflicts"] + count["prob_conflicts"] for count in _fresh_counts(problem, 0, result)]
    assert fresh == [0] * 5 + [1] * 13 + [4]
    assert sum(point.stats.conflicts for point in result.trace) < sum(fresh)


def test_soft_and_loosening_sweeps_solve_every_step_afresh():
    problem, _, _ = supply_problem(seed=0)
    # a soft predicate whose b is forced true searches as the hard one does
    nv = problem.cnf.num_vars + 1
    soft = SmcProblem(
        CnfFormula(nv, problem.cnf.clauses + ((nv,),)), (replace(problem.predicates[0], b=nv),)
    )
    soft_result = sweep(soft, 0, direction="up", step=1e-2, lo=0.0, hi=1.0)
    assert soft_result.best_threshold == 0.17 and len(soft_result.trace) == 19
    assert _step_counts(soft_result) == _fresh_counts(soft, 0, soft_result)
    # `ge` swept down loosens: every step is SAT, and each from 0.17 down
    # to 0.05 has a conflict
    loose = sweep(problem, 0, direction="down", step=1e-2, lo=0.0, hi=0.17)
    assert len(loose.trace) == 18 and all(point.status is SolveStatus.SAT for point in loose.trace)
    counts = _step_counts(loose)
    assert counts == _fresh_counts(problem, 0, loose)
    assert [count["prob_conflicts"] for count in counts] == [1] * 13 + [0] * 5


def _random_hard_sweep_problem(seed: int, cmp: Comparator, tmode: ThresholdMode):
    """A random CNF with one hard predicate over a random circuit whose
    variables are all shared, and the (lo, hi, step) of a 16-point grid up
    to the largest marginal over those variables."""
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    cnf = random_cnf(seed * 13 + 5, n, rng.randint(n // 2, n))
    circuit = random_circuit(seed * 7 + 2, rng.randint(4, 7), max_nodes=120)
    cvars = rng.sample(range(circuit.num_vars), min(circuit.num_vars, n))
    shared = dict(zip(cvars, rng.sample(range(1, n + 1), len(cvars))))
    top = max(
        marginal(circuit, dict(zip(cvars, bits))) for bits in itertools.product((False, True), repeat=len(cvars))
    )
    if tmode is ThresholdMode.PARTITION_FRACTION:
        top /= partition(circuit)
    problem = SmcProblem(cnf, (PredicateSpec(circuit, shared, cmp, 0.0, tmode),))
    return problem, top / 16, top, top / 16


@pytest.mark.parametrize("tmode", list(ThresholdMode))
@pytest.mark.parametrize("mode", list(NumericMode))
@pytest.mark.parametrize("cmp", list(Comparator))
def test_carried_sweep_matches_brute_solve_at_every_step(monkeypatch, cmp, mode, tmode):
    direction = "up" if cmp in (Comparator.GE, Comparator.GT) else "down"
    config = SolverConfig(numeric_mode=mode)
    steps: list[tuple[SmcProblem, object]] = []

    def recording_solve(problem, config):
        result = solve(problem, config)
        steps.append((problem, result))
        return result

    monkeypatch.setattr(sweep_mod, "solve", recording_solve)
    carried = 0
    for seed in range(12):
        problem, lo, hi, step = _random_hard_sweep_problem(seed, cmp, tmode)
        steps.clear()
        result = sweep(problem, 0, direction, step, lo, hi, config)
        assert len(steps) == len(result.trace)
        for point in result.trace:
            expected = brute_solve(with_threshold(problem, 0, point.q), mode=mode).status
            assert point.status is expected, f"seed {seed}, q {point.q}"
        # each step's CNF is the last step's plus the clauses it learned
        clauses = problem.cnf.clauses
        for step_problem, step_result in steps:
            assert step_problem.cnf.clauses == clauses
            clauses += tuple(tuple(c) for c in step_result.learned)
        carried += len(steps[-1][0].cnf.clauses) - len(problem.cnf.clauses)
        if result.feasible:
            assert verify(with_threshold(problem, 0, result.best_threshold), result.best_model, mode).passed
    assert carried > 0
