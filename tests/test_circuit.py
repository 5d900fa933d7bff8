import itertools
import math
import random

import pytest

from smcsat.circuit import (
    BernoulliLeaf,
    BoundState,
    Circuit,
    CircuitStructureError,
    ConstantLeaf,
    IndicatorLeaf,
    NumericMode,
    PcFormatError,
    ProductNode,
    SumNode,
    _evaluate,
    evaluate_joint,
    marginal,
    parse_pc,
    partition,
    validate,
    write_pc,
)
from smcsat.factorgraph import compile_factor_graph
from smcsat.problems import gen_random_bn
from util import (
    brute_joint_sum,
    brute_minmax_over_shared,
    two_route_circuit,
    random_circuit,
    rel_close,
)


# ---------------------------------------------------------------- parsing

def test_parse_two_route_circuit(route_circuit):
    assert len(route_circuit.nodes) == 15
    root = route_circuit.nodes[route_circuit.root]
    assert isinstance(root, SumNode)
    assert [w for w, _ in root.children] == [0.5, 0.5]
    assert route_circuit.scopes[route_circuit.root] == frozenset({0, 1, 2, 3})


def test_parse_single_leaf():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    assert c.nodes == (BernoulliLeaf(0, 0.3, 0.7),)


def test_parse_forward_reference():
    with pytest.raises(PcFormatError):
        parse_pc("pc 2 1\np 1 1\nl 0 0.5 0.5")


def test_parse_errors():
    with pytest.raises(PcFormatError):
        parse_pc("pc 1 1\nl 0 -0.5 0.5")  # negative weight
    with pytest.raises(PcFormatError):
        parse_pc("pc 1 1\nl 1 0.5 0.5")  # var out of range
    with pytest.raises(PcFormatError):
        parse_pc("pc 1 1\nq 0")  # unknown tag
    with pytest.raises(PcFormatError):
        parse_pc("pc 2 1\nl 0 0.5 0.5")  # node count mismatch
    with pytest.raises(PcFormatError):
        parse_pc("pc 2 1\nl 0 0.5 0.5\np 1 -1")  # negative child id


def test_parse_comments_and_scientific():
    c = parse_pc("# comment\npc 1 1\n\nl 0 3e-1 7e-1\n")
    leaf = c.nodes[0]
    assert leaf == BernoulliLeaf(0, 0.3, 0.7)


def test_write_roundtrips():
    for c in (
        two_route_circuit(),
        parse_pc("pc 1 1\nl 0 0.3 0.7"),
        parse_pc("pc 1 1\nc 2.5"),
    ):
        assert parse_pc(write_pc(c)) == c


def test_write_roundtrip_random():
    for seed in range(30):
        c = random_circuit(seed, 1 + seed % 6)
        assert parse_pc(write_pc(c)) == c


# ------------------------------------------------------------- validation

def test_validate_two_route_circuit(route_circuit):
    report = validate(route_circuit)
    assert report.smooth and report.decomposable and not report.violations


def test_validate_not_decomposable():
    c = Circuit(1, [BernoulliLeaf(0, 0.5, 0.5), BernoulliLeaf(0, 0.5, 0.5), ProductNode((0, 1))])
    report = validate(c)
    assert not report.decomposable
    assert ("decomposability", 2) in report.violations


def test_validate_not_smooth():
    c = Circuit(
        2,
        [
            BernoulliLeaf(0, 0.5, 0.5),
            BernoulliLeaf(1, 0.5, 0.5),
            SumNode(((1.0, 0), (1.0, 1))),
        ],
    )
    report = validate(c)
    assert not report.smooth
    assert ("smoothness", 2) in report.violations


def test_validate_flags_planted_violations():
    # mutate random valid circuits and check the violation is caught
    for seed in range(20):
        c = random_circuit(seed, 4)
        prod_ids = [i for i, n in enumerate(c.nodes) if isinstance(n, ProductNode)]
        sum_ids = [
            i
            for i, n in enumerate(c.nodes)
            if isinstance(n, SumNode) and len({c.scopes[ch] for _, ch in n.children}) == 1
        ]
        rng = random.Random(seed)
        nodes = list(c.nodes)
        if prod_ids:
            # duplicate a child: scope overlap
            nid = rng.choice(prod_ids)
            node = nodes[nid]
            nodes[nid] = ProductNode(node.children + (node.children[0],))
            mutated = Circuit(c.num_vars, nodes)
            assert not validate(mutated).decomposable
        elif sum_ids:
            nid = rng.choice(sum_ids)
            node = nodes[nid]
            # splice in a child with a different scope
            donor = next(
                (j for j in range(nid) if c.scopes[j] and c.scopes[j] != c.scopes[node.children[0][1]]),
                None,
            )
            if donor is None:
                continue
            nodes[nid] = SumNode(node.children + ((1.0, donor),))
            mutated = Circuit(c.num_vars, nodes)
            assert not validate(mutated).smooth


def test_marginal_requires_validity():
    bad = Circuit(1, [BernoulliLeaf(0, 0.5, 0.5), BernoulliLeaf(0, 0.5, 0.5), ProductNode((0, 1))])
    with pytest.raises(CircuitStructureError):
        marginal(bad, {})


# -------------------------------------------------------------- inference

def test_joint_two_route_values(route_circuit):
    assert evaluate_joint(route_circuit, {0: True, 1: False, 2: True, 3: True}) == pytest.approx(0.1, abs=1e-12)
    assert evaluate_joint(route_circuit, {0: True, 1: True, 2: True, 3: True}) == pytest.approx(0.1, abs=1e-12)


def test_joint_single_leaf():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    assert evaluate_joint(c, {0: False}) == 0.7


def test_joint_rejects_unassigned(route_circuit):
    with pytest.raises(ValueError):
        evaluate_joint(route_circuit, {0: True})


def test_marginal_two_route_values(route_circuit):
    assert marginal(route_circuit, {2: True, 3: True}) == pytest.approx(1.0, abs=1e-12)
    assert marginal(route_circuit, {0: True, 1: True}) == pytest.approx(0.1, abs=1e-12)
    assert marginal(route_circuit, {}) == pytest.approx(1.0, abs=1e-12)


def test_partition_examples(route_circuit):
    assert partition(route_circuit) == pytest.approx(1.0, abs=1e-12)
    assert partition(parse_pc("pc 1 1\nc 2.5")) == 2.5
    assert partition(parse_pc("pc 1 1\nl 0 0.3 0.7")) == 1.0


def test_marginal_equals_joint_sum_random():
    for seed in range(40):
        rng = random.Random(seed + 400)
        n = rng.randint(1, 12 if seed % 4 == 0 else 8)
        c = random_circuit(seed + 1000, n, max_nodes=80)
        partial = {
            v: rng.random() < 0.5 for v in range(n) if rng.random() < 0.5
        }
        assert rel_close(marginal(c, partial), brute_joint_sum(c, partial))


def test_log_mode_matches_linear():
    for seed in range(10):
        c = random_circuit(seed + 77, 5)
        rng = random.Random(seed)
        partial = {v: rng.random() < 0.5 for v in range(5) if rng.random() < 0.6}
        lin = marginal(c, partial)
        logm = marginal(c, partial, NumericMode.LOG)
        if lin == 0.0:
            assert logm == -math.inf
        else:
            assert rel_close(math.exp(logm), lin, rel=1e-9)


# ------------------------------------------------------------ bound state

def test_init_bounds_two_route(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    assert bs.root_bounds() == (1.0, 0.0)


def test_init_bounds_no_shared_collapses_to_partition(route_circuit):
    bs = BoundState(route_circuit, set())
    z = partition(route_circuit)
    assert bs.root_bounds() == (z, z)


def test_init_bounds_single_leaf():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    bs = BoundState(c, {0})
    assert bs.root_bounds() == (0.7, 0.3)


def test_assign_two_route_sequence(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    assert bs.assign(0, True, 1) == (0.2, 0.0)
    assert bs.assign(1, False, 2) == (0.1, 0.1)


def test_assign_single_leaf():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    bs = BoundState(c, {0})
    assert bs.assign(0, True, 1) == (0.3, 0.3)


def test_assign_rejects_invalid(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    with pytest.raises(ValueError):
        bs.assign(2, True, 1)  # latent
    bs.assign(0, True, 1)
    with pytest.raises(ValueError):
        bs.assign(0, False, 2)  # already assigned


def test_backtrack_restores_exactly(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    before_ub, before_lb = list(bs.ub), list(bs.lb)
    bs.assign(0, True, 1)
    bs.backtrack_bounds(0)
    assert bs.ub == before_ub and bs.lb == before_lb
    assert bs.status[0] is None


def test_backtrack_interleaved_replay():
    for seed in range(15):
        n = 3 + seed % 5
        c = random_circuit(seed + 50, n)
        shared = set(range(n))
        rng = random.Random(seed)
        bs = BoundState(c, shared)
        order = list(range(n))
        rng.shuffle(order)
        values = [rng.random() < 0.5 for _ in order]
        for level, (v, val) in enumerate(zip(order, values), start=1):
            bs.assign(v, val, level)
        keep = rng.randint(0, n - 1)
        bs.backtrack_bounds(keep)
        # replay oracle: fresh init + re-assign the kept prefix
        fresh = BoundState(c, shared)
        for level, (v, val) in enumerate(zip(order[:keep], values[:keep]), start=1):
            fresh.assign(v, val, level)
        assert bs.ub == fresh.ub
        assert bs.lb == fresh.lb


def test_backtrack_empty_trail_noop(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    before = bs.root_bounds()
    bs.backtrack_bounds(0)
    assert bs.root_bounds() == before


def test_bounds_sandwich_and_tightness_fuzz():
    # bound soundness on random circuits with random assignment paths
    for mode, seed in itertools.product(NumericMode, range(60)):
        to_linear = math.exp if mode is NumericMode.LOG else float
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        c = random_circuit(seed + 300, n)
        shared = set(rng.sample(range(n), rng.randint(1, min(n, 5))))
        bs = BoundState(c, shared, mode)
        partial: dict[int, bool] = {}
        order = sorted(shared)
        rng.shuffle(order)
        prev_ub, prev_lb = bs.root_bounds()
        for level, v in enumerate(order, start=1):
            lo, hi = brute_minmax_over_shared(c, partial, shared)
            ub, lb = map(to_linear, bs.root_bounds())
            assert lb <= lo + 1e-9 * max(1.0, abs(lo))
            assert ub >= hi - 1e-9 * max(1.0, abs(hi))
            val = rng.random() < 0.5
            partial[v] = val
            ub, lb = bs.assign(v, val, level)
            # monotone narrowing
            assert ub <= prev_ub and lb >= prev_lb
            prev_ub, prev_lb = ub, lb
        # a fully assigned bound state is the marginal, to the bit
        assert bs.root_bounds() == (marginal(c, partial, mode),) * 2


def _dag_with_unreachable_nodes() -> Circuit:
    """Leaf 0 has three parents; nodes 6 and 7 cannot be reached from the root."""
    return Circuit(
        3,
        [
            BernoulliLeaf(0, 0.3, 0.7),
            IndicatorLeaf(1, True),
            IndicatorLeaf(1, False),
            ConstantLeaf(2.0),
            ProductNode((0, 1, 3)),
            ProductNode((0, 2)),
            BernoulliLeaf(2, 0.5, 1.5),
            SumNode(((1.5, 0),)),
            SumNode(((0.4, 4), (0.6, 5))),
        ],
    )


def test_bounds_equal_full_pass_after_every_update():
    # every node, not just the root, matches a fresh bottom-up pass
    circuits = [_dag_with_unreachable_nodes()] + [random_circuit(seed + 700, 2 + seed % 5) for seed in range(20)]
    # compiled BNs: 3-ary products of an indicator, a constant and a sub-circuit
    circuits += [compile_factor_graph(gen_random_bn(n, max_parents=2, seed=n)) for n in (6, 7)]
    for mode, (i, c) in itertools.product(NumericMode, enumerate(circuits)):
        rng = random.Random(i)
        shared = set(rng.sample(range(c.num_vars), rng.randint(1, c.num_vars)))
        bs = BoundState(c, shared, mode)
        assert bs.ub == _evaluate(c, mode, bs.status, bs.shared, max)
        assert bs.lb == _evaluate(c, mode, bs.status, bs.shared, min)
        for level in range(1, 4 * c.num_vars):
            free = [v for v in sorted(shared) if bs.status[v] is None]
            if free and rng.random() < 0.7:
                bs.assign(rng.choice(free), rng.random() < 0.5, level)
            else:
                bs.backtrack_bounds(rng.randint(0, level - 1))
            assert bs.ub == _evaluate(c, mode, bs.status, bs.shared, max)
            assert bs.lb == _evaluate(c, mode, bs.status, bs.shared, min)


def test_bounds_log_mode_consistent():
    for seed in range(8):
        n = 5
        c = random_circuit(seed + 900, n)
        shared = {0, 2, 4}
        lin = BoundState(c, shared)
        log = BoundState(c, shared, NumericMode.LOG)
        rng = random.Random(seed)
        for level, v in enumerate(sorted(shared), start=1):
            val = rng.random() < 0.5
            lu, ll = lin.assign(v, val, level)
            gu, gl = log.assign(v, val, level)
            for linear, logged in ((lu, gu), (ll, gl)):
                if linear == 0.0:
                    assert logged == -math.inf
                else:
                    assert rel_close(math.exp(logged), linear, rel=1e-9)


def test_assigned_vars_tracking(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    bs.assign(1, False, 1)
    bs.assign(0, True, 2)
    assert bs.assigned_vars() == [1, 0]
    bs.backtrack_bounds(1)
    assert bs.assigned_vars() == [1]
