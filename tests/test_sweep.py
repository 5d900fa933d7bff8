import math
import re
import tracemalloc

import pytest

from smcsat.circuit import parse_pc
from smcsat.factorgraph import compile_factor_graph, enumerate_marginal
from smcsat.formula import CnfFormula
from smcsat.oracle import brute_solve
from smcsat.problems import (
    LayeredNetwork,
    encode_supply_chain,
    gen_random_bn,
    marginalize_false_circuit,
)
from smcsat.solver import Comparator, PredicateSpec, SmcProblem, SolveStatus
from smcsat.sweep import sweep, with_threshold
from util import two_route_circuit, motivating_problem


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
