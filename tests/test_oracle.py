import pytest

from smcsat.circuit import marginal
from smcsat.formula import CnfFormula
from smcsat.oracle import brute_solve, verify
from smcsat.solver import Comparator, PredicateSpec, SmcProblem, SolveStatus, solve
from util import two_route_circuit, motivating_problem


def test_brute_route_problem_models():
    result = brute_solve(motivating_problem(0.5))
    assert result.status is SolveStatus.SAT
    # b2 selected, its segments on, b1 off; x1/x2 unconstrained
    assert result.model_count == 4
    for model in result.models:
        assert model[5] is False and model[6] is True
        assert model[3] is True and model[4] is True


def test_brute_plain_unit():
    result = brute_solve(SmcProblem(CnfFormula(1, ((1,),))))
    assert result.models == ({1: True},)


def test_brute_hard_predicate_above_partition():
    c = two_route_circuit()
    problem = SmcProblem(
        CnfFormula(4, ()),
        (PredicateSpec(c, {0: 1, 1: 2}, Comparator.GE, 1.5),),
    )
    assert brute_solve(problem).model_count == 0


def test_brute_cap():
    with pytest.raises(ValueError):
        brute_solve(SmcProblem(CnfFormula(30, ())), cap=24)


def test_verify_route_model():
    problem = motivating_problem(0.5)
    model = {1: False, 2: False, 3: True, 4: True, 5: False, 6: True}
    report = verify(problem, model)
    assert report.passed
    assert report.predicate_checks[1].marginal == pytest.approx(1.0)
    assert report.predicate_checks[1].holds is True


def test_verify_flipped_b_fails():
    problem = motivating_problem(0.5)
    model = {1: False, 2: False, 3: True, 4: True, 5: False, 6: False}
    report = verify(problem, model)
    # clause (5 v 6) violated and predicate 2 biconditional broken
    assert not report.passed
    assert not report.predicate_checks[1].consistent
    assert any("predicate 1" in f for f in report.failures())


def test_verify_clause_violation_identified():
    problem = motivating_problem(0.5)
    model = {1: False, 2: False, 3: False, 4: True, 5: False, 6: True}
    report = verify(problem, model)
    assert not report.passed
    assert report.clause_ok[4] is False  # (-6, 3)


def test_verify_incomplete_model_rejected():
    with pytest.raises(ValueError):
        verify(motivating_problem(0.5), {1: True})


def test_verify_accepts_exactly_the_brute_models():
    problem = motivating_problem(0.5)
    result = brute_solve(problem)
    accepted = []
    n = problem.cnf.num_vars
    for mask in range(1 << n):
        model = {v: bool((mask >> (v - 1)) & 1) for v in range(1, n + 1)}
        if verify(problem, model).passed:
            accepted.append(model)
    assert accepted == list(result.models)


def test_solver_agrees_on_oracle_models():
    problem = motivating_problem(0.5)
    result = solve(problem)
    assert any(result.model == m for m in brute_solve(problem).models)
