"""Shared test helpers: fixed instances, random generators, brute oracles."""

from __future__ import annotations

import math
import operator
import random
from functools import reduce
from itertools import product
from typing import Sequence

import pytest

from smcsat.circuit import Circuit, NumericMode, evaluate_joint, marginal, parse_pc
from smcsat.factorgraph import Factor, FactorGraph
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
    pytest.param(_route_doc(b=1.5), "b literal 1.5 is not a nonzero integer", id="float-b"),
    pytest.param(_route_doc(b=True), "b literal True is not a nonzero integer", id="bool-b"),
    pytest.param(_route_doc(shared=[[0, 1]]), "'shared' must be an object", id="shared-list"),
    pytest.param(5, "manifest must be a JSON object", id="non-object"),
    pytest.param(_route_doc(uai="route.uai"), "exactly one of 'circuit' or 'uai'", id="circuit-and-uai"),
    pytest.param(_route_doc(circuit=None, uai="route.uai", order=3), "'order' must be a list", id="order-not-list"),
    pytest.param({"cnf": 3, "predicates": []}, "'cnf' must be a file name", id="cnf-not-string"),
    pytest.param({"cnf": "route.cnf", "predicates": {}}, "'predicates' must be a list", id="predicates-not-list"),
    pytest.param({"cnf": "route.cnf", "predicates": [7]}, "predicate 0: must be an object", id="predicate-not-object"),
    pytest.param(_route_doc(circuit=3), "'circuit' must be a file name", id="circuit-not-string"),
    pytest.param(_route_doc(order=[0, 1]), "'order' is allowed only with 'uai'", id="order-with-circuit"),
    pytest.param(_route_doc(shared={"x": 1}), "'shared' entry 'x'", id="shared-key-not-int"),
    pytest.param(_route_doc(shared={"0": "1"}), "shared map entry 0: '1' is not an integer pair", id="shared-value-not-int"),
    pytest.param(_route_doc(threshold="0.5"), "threshold '0.5' is not a finite number", id="threshold-string"),
    pytest.param(_route_doc(threshold=10**400), f"threshold {10**400} is not a finite number", id="threshold-beyond-float"),
    pytest.param(_route_doc(threshold_mode="relative"), "threshold_mode 'relative' is not a ThresholdMode", id="unknown-threshold-mode"),
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


# A decision sum of variable 0 whose False branch holds two 1e200 leaves:
# their product overflows to inf in linear mode, and once 0 is True that
# branch's zero indicator makes it inf * 0.0 = NaN. Log mode's mass at 0 =
# True is log(0.5).
NAN_BRANCH_PC = (
    "pc 9 3\ni 0 1\ni 0 0\nl 1 0.5 0.5\nl 2 0.5 0.5\nl 1 1e200 1e200\nl 2 1e200 1e200\n"
    "p 3 0 2 3\np 3 4 5 1\ns 2 0.5 6 0.5 7\n"
)


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


def reweighted(c: Circuit, seed: int) -> Circuit:
    """`c` with every sum weight redrawn from [0.1, 1.5): still smooth and
    decomposable, and the decision sums of a compiled circuit keep their
    shape but lose their unit weights."""
    rng = random.Random(seed)
    return Circuit(
        c.num_vars,
        [
            (row[0], tuple(rng.uniform(0.1, 1.5) for _ in row[1])) if len(row) == 2 and row[1] is not None else row
            for row in c.nodes
        ],
    )


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
    c: Circuit, partial: dict[int, bool], shared: set[int], mode: NumericMode = NumericMode.LINEAR
) -> tuple[float, float]:
    """(min, max) of the exact marginal over completions of unassigned shared vars."""
    free = [v for v in sorted(shared) if v not in partial]
    lo, hi = float("inf"), float("-inf")
    for bits in product((False, True), repeat=len(free)):
        full = dict(partial)
        full.update(zip(free, bits))
        m = marginal(c, full, mode)
        lo = min(lo, m)
        hi = max(hi, m)
    return lo, hi


def _log_weight(w: float) -> float:
    return math.log(w) if w > 0.0 else -math.inf


def _log_add(a: float, b: float) -> float:
    if a == -math.inf or b == -math.inf:
        return max(a, b)
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


def _opposed_indicators(nodes: tuple, row: tuple) -> tuple[int, int, int] | None:
    """For a sum of two products that hold the two indicators of one variable,
    ``(var, indicator in the first, indicator in the second)``, taking the
    first such variable in the first product's child order; else None."""
    children, _ = row
    if len(children) != 2:
        return None
    prods = [nodes[child] for child in children]
    if any(len(p) != 2 or p[1] is not None for p in prods):
        return None
    signs = [
        {nodes[k][0]: (nodes[k][1], k) for k in p[0] if len(nodes[k]) == 3 and nodes[k][0] >= 0
         and nodes[k][1:] in ((1.0, 0.0), (0.0, 1.0))}
        for p in prods
    ]
    for var, (sign, ind) in signs[0].items():
        if var in signs[1] and signs[1][var][0] != sign:
            return var, ind, signs[1][var][1]
    return None


def reference_bounds(
    c: Circuit, mode: NumericMode, status: dict[int, bool | None]
) -> tuple[list[float], list[float]]:
    """Every node's (ub, lb) under `status` (shared variable -> value, None
    while free), bottom-up from the rows, sharing no code with BoundState.

    A free shared leaf takes its larger and smaller weight, a latent leaf its
    summed-out mass. A sum whose two product children hold opposite
    indicators of a shared variable takes, for ub, the largest weighted
    branch ub and, for lb, the smallest weight times the product of the
    other children's lbs over the branches whose indicator ub is not zero;
    a NaN weighted branch ub makes both NaN, as it makes the interval sum
    NaN. Every other node folds its children left to right.
    """
    if mode is NumericMode.LOG:
        lift, mul, add, one, zero = _log_weight, operator.add, _log_add, 0.0, -math.inf
    else:
        lift, mul, add, one, zero = float, operator.mul, operator.add, 1.0, 0.0
    nodes = c.nodes
    ub: list[float] = []
    lb: list[float] = []
    for row in nodes:
        if len(row) == 3:
            var, t, f = row[0], lift(row[1]), lift(row[2])
            if var not in status:
                ub.append(add(t, f))
                lb.append(ub[-1])
            elif status[var] is None:
                ub.append(max(t, f))
                lb.append(min(t, f))
            else:
                ub.append(t if status[var] else f)
                lb.append(ub[-1])
            continue
        children, weights = row
        if weights is None:
            ub.append(reduce(mul, (ub[k] for k in children), one))
            lb.append(reduce(mul, (lb[k] for k in children), one))
            continue
        ws = [lift(w) for w in weights]
        decided = _opposed_indicators(nodes, row)
        if decided is None or decided[0] not in status:
            ub.append(reduce(add, (mul(w, ub[k]) for w, k in zip(ws, children)), zero))
            lb.append(reduce(add, (mul(w, lb[k]) for w, k in zip(ws, children)), zero))
            continue
        branch_ubs = [mul(w, ub[k]) for w, k in zip(ws, children)]
        if any(math.isnan(x) for x in branch_ubs):
            ub.append(math.nan)
            lb.append(math.nan)
            continue
        ub.append(max(branch_ubs))
        lb.append(
            min(
                mul(w, reduce(mul, (lb[k] for k in nodes[prod][0] if k != ind), one))
                for w, prod, ind in zip(ws, children, decided[1:])
                if ub[ind] > zero
            )
        )
    return ub, lb


def reference_compile(fg: FactorGraph, order: Sequence[int] | None = None) -> tuple[tuple, ...]:
    """The rows a Shannon expansion of `fg` along `order` (default ascending)
    emits, sharing no code with ``compile_factor_graph``: per variable a
    unit-weight sum of a True and a False product, each holding the
    variable's indicator, one constant per factor whose latest-ordered
    variable this is (in factor order) and the sub-circuit of the rest,
    memoized on the decided values of the variables that later factors
    still mention. Rows go out depth first, the True branch first."""
    order = list(range(fg.num_vars)) if order is None else list(order)
    position = {var: i for i, var in enumerate(order)}
    last = [max(position[v] for v in factor.scope) for factor in fg.factors]
    nodes: list[tuple] = []
    memo: dict[tuple, int] = {}

    def entry(factor: Factor, values: dict[int, bool]) -> float:
        idx = 0
        for var in factor.scope:
            idx = 2 * idx + (0 if values[var] else 1)
        return factor.table[idx]

    def expand(depth: int, context: dict[int, bool]) -> int:
        key = (depth, tuple(sorted(context.items())))
        if key in memo:
            return memo[key]
        var = order[depth]
        pending = [f for f, at in zip(fg.factors, last) if at > depth]
        relevant = {v for f in pending for v in f.scope if position[v] <= depth}
        branches = []
        for val in (True, False):
            extended = {**context, var: val}
            nodes.append((var, 1.0, 0.0) if val else (var, 0.0, 1.0))
            children = [len(nodes) - 1]
            for factor, at in zip(fg.factors, last):
                if at == depth:
                    nodes.append((-1, entry(factor, extended), 0.0))
                    children.append(len(nodes) - 1)
            if depth + 1 < len(order):
                children.append(expand(depth + 1, {v: extended[v] for v in relevant}))
            nodes.append((tuple(children), None))
            branches.append(len(nodes) - 1)
        nodes.append((tuple(branches), (1.0, 1.0)))
        memo[key] = len(nodes) - 1
        return memo[key]

    expand(0, {})
    return tuple(nodes)


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
