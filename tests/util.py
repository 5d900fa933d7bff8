"""Shared test helpers: fixed instances, random generators, brute oracles."""

from __future__ import annotations

import random
from itertools import product

import pytest

from smcsat.circuit import Circuit, evaluate_joint, marginal, parse_pc
from smcsat.formula import CnfFormula
from smcsat.solver import Comparator, PredicateSpec, SmcProblem


def _route_doc(**fields) -> dict:
    """A one-predicate manifest over route.cnf/route.pc; a None field is dropped."""
    pred = {"circuit": "route.pc", "shared": {"0": 1, "1": 2}, "b": 5, "cmp": "ge", "threshold": 0.5}
    pred.update(fields)
    return {"cnf": "route.cnf", "predicates": [{k: v for k, v in pred.items() if v is not None}]}


# Malformed manifest documents with a fragment of the error each must raise.
MALFORMED_MANIFESTS = [
    pytest.param(_route_doc(threshold=None), "missing 'threshold'", id="missing-threshold"),
    pytest.param(_route_doc(b=1.5), "'b' must be a nonzero integer", id="float-b"),
    pytest.param(_route_doc(b=True), "'b' must be a nonzero integer", id="bool-b"),
    pytest.param(_route_doc(shared=[[0, 1]]), "'shared' must be an object", id="shared-list"),
    pytest.param(5, "manifest must be a JSON object", id="non-object"),
    pytest.param(_route_doc(uai="route.uai"), "exactly one of 'circuit' or 'uai'", id="circuit-and-uai"),
    pytest.param(_route_doc(circuit=None, uai="route.uai", order=3), "'order' must be a list", id="order-not-list"),
]


# The worked 4-variable example circuit: two weighted routes over x1..x4,
# indicator leaves for both polarities of x1/x2, true-only leaves for x3/x4.
TWO_ROUTE_CIRCUIT_TEXT = """\
pc 15 4
i 0 1
i 0 0
i 1 1
i 1 0
i 2 1
i 3 1
p 2 3 1
p 2 3 0
p 2 1 2
p 2 2 0
s 2 0.8 6 0.2 7
s 2 0.8 8 0.2 9
p 3 5 10 4
p 3 11 4 5
s 2 0.5 12 0.5 13
"""


def two_route_circuit() -> Circuit:
    return parse_pc(TWO_ROUTE_CIRCUIT_TEXT)


def motivating_problem(q: float = 0.5) -> SmcProblem:
    """Two-route selection: choose exactly one of b1/b2, each implying its
    road segments, with each route's connectivity marginal against q.

    Variables: 1..4 = x1..x4, 5 = b1, 6 = b2.
    """
    c = two_route_circuit()
    cnf = CnfFormula(6, ((5, 6), (-5, -6), (-5, 1), (-5, 2), (-6, 3), (-6, 4)))
    p1 = PredicateSpec(c, {0: 1, 1: 2}, Comparator.GE, q, b=5)
    p2 = PredicateSpec(c, {2: 3, 3: 4}, Comparator.GE, q, b=6)
    return SmcProblem(cnf, (p1, p2))


def random_circuit(seed: int, num_vars: int, max_nodes: int = 60) -> Circuit:
    """Random smooth, decomposable circuit over all of 0..num_vars-1.

    Regenerates with a derived seed until the node budget holds, so results
    are deterministic per (seed, num_vars).
    """
    for attempt in range(100):
        rng = random.Random(seed * 1009 + attempt)
        nodes: list[tuple] = []

        def emit(row: tuple) -> int:
            nodes.append(row)
            return len(nodes) - 1

        def indicator(var: int, sign: bool) -> int:
            return emit((var, 1.0, 0.0) if sign else (var, 0.0, 1.0))

        def gen_leaf(var: int) -> int:
            kind = rng.random()
            if kind < 0.6:
                return emit((var, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)))
            if kind < 0.8:
                # weighted indicator pair, possibly unnormalized
                t = indicator(var, True)
                f = indicator(var, False)
                return emit(((t, f), (rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5))))
            return indicator(var, rng.random() < 0.5)

        def gen(scope: list[int], sums_left: int = 2) -> int:
            if len(scope) == 1:
                return gen_leaf(scope[0])
            if sums_left == 0 or rng.random() < 0.6:
                cut = rng.randint(1, len(scope) - 1)
                mixed = scope[:]
                rng.shuffle(mixed)
                return emit(((gen(mixed[:cut]), gen(mixed[cut:])), None))
            k = rng.randint(2, 3)
            # each branch draws its weight, then its subtree
            weights, children = zip(*((rng.uniform(0.1, 1.5), gen(scope, sums_left - 1)) for _ in range(k)))
            return emit((children, weights))

        gen(list(range(num_vars)))
        if len(nodes) <= max_nodes:
            return Circuit(num_vars, nodes)
    raise AssertionError("could not generate a circuit within the node budget")


def brute_joint_sum(c: Circuit, partial: dict[int, bool]) -> float:
    """Marginal by summing evaluate_joint over all completions."""
    free = [v for v in range(c.num_vars) if v not in partial]
    total = 0.0
    for bits in product((False, True), repeat=len(free)):
        full = dict(partial)
        full.update(zip(free, bits))
        total += evaluate_joint(c, full)
    return total


def brute_minmax_over_shared(
    c: Circuit, partial: dict[int, bool], shared: set[int]
) -> tuple[float, float]:
    """(min, max) of the exact marginal over completions of unassigned shared vars."""
    free = [v for v in sorted(shared) if v not in partial]
    lo, hi = float("inf"), float("-inf")
    for bits in product((False, True), repeat=len(free)):
        full = dict(partial)
        full.update(zip(free, bits))
        m = marginal(c, full)
        lo = min(lo, m)
        hi = max(hi, m)
    return lo, hi


def random_cnf(seed: int, num_vars: int, num_clauses: int, width: int = 3) -> CnfFormula:
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        w = rng.randint(1, width)
        vars_ = rng.sample(range(1, num_vars + 1), min(w, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
    return CnfFormula(num_vars, tuple(clauses))


def rel_close(a: float, b: float, rel: float = 1e-9, abs_floor: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_floor)
