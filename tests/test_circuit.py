import itertools
import math
import random
import tracemalloc
from typing import Sequence

import pytest

from smcsat.circuit import (
    BoundState,
    Circuit,
    CircuitStructureError,
    NumericMode,
    PcFormatError,
    ValidationReport,
    _IDS_MEMO_CAP,
    _fold,
    _rows,
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
    NAN_BRANCH_PC,
    TWO_ROUTE_CIRCUIT_TEXT,
    _opposed_indicators,
    brute_joint_sum,
    brute_minmax_over_shared,
    reference_bounds,
    reweighted,
    two_route_circuit,
    random_circuit,
    rel_close,
)


# ---------------------------------------------------------------- parsing

def test_parse_two_route_circuit(route_circuit):
    assert len(route_circuit.nodes) == 15
    _, weights = route_circuit.nodes[route_circuit.root]
    assert weights is not None  # a sum
    assert list(weights) == [0.5, 0.5]
    assert route_circuit.scopes[route_circuit.root] == 0b1111


def test_parse_single_leaf():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    assert c.nodes == ((0, 0.3, 0.7),)


def test_parse_forward_reference():
    with pytest.raises(PcFormatError):
        parse_pc("pc 2 1\np 1 1\nl 0 0.5 0.5")


def test_circuit_rejects_malformed_rows():
    for rows in (
        [(0, 0.5, 0.5), (0, 0.5, 0.5), ((0, 1), (1.0,))],  # one weight for two children
        [(-1, 0.5, 0.5)],  # a constant's false weight is 0.0
        [(1, 0.5, 0.5)],  # variable out of range
        [((1,), None), (0, 0.5, 0.5)],  # child after its parent
    ):
        with pytest.raises(PcFormatError):
            Circuit(1, rows)


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
    for line in ("p", "s"):  # no count
        with pytest.raises(PcFormatError):
            parse_pc(f"pc 2 1\nl 0 .5 .5\n{line}")
    for sign in ("2", "x"):  # an indicator sign is 0 or 1
        with pytest.raises(PcFormatError):
            parse_pc(f"pc 1 1\ni 0 {sign}")
    with pytest.raises(PcFormatError) as err:
        parse_pc("pc 2 1\nl 0 .5 .5\np 2 0")
    assert str(err.value) == "node 1: product child count mismatch"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("", "empty circuit document", id="empty"),
        pytest.param("# nothing but a comment\n\n", "empty circuit document", id="comment-only"),
        pytest.param("pc 1\nc 1.0", "malformed header: 'pc 1'", id="header-short"),
        pytest.param("pc x 1\nc 1.0", "malformed header: 'pc x 1'", id="header-non-integer"),
        pytest.param("circuit 1 1\nc 1.0", "malformed header: 'circuit 1 1'", id="header-tag"),
        pytest.param("pc 1 1\nl 0 abc 0.5", "node 0: bad number 'abc'", id="bad-weight"),
        pytest.param("pc 1 1\nl -1 0.5 0.5", "node 0: variable -1 out of range", id="negative-var"),
        pytest.param("pc 3 1\ni 0 1\ni 0 0\ns 2 0.5 0", "node 2: sum arity mismatch", id="sum-arity"),
        pytest.param("pc 0 1\n", "circuit has no nodes", id="no-nodes"),
        pytest.param("pc 1 1\nl x .5 .5", "node 0: bad integer 'x'", id="var-non-integer"),
        pytest.param("pc 2 1\nl 0 .5 .5\np 1 x", "node 1: bad integer 'x'", id="child-non-integer"),
        pytest.param("pc 2 1\nl 0 .5 .5\np one 0", "node 1: bad integer 'one'", id="count-non-integer"),
        pytest.param("pc 2 1\nl 0 .5 .5\ns 1 1.0 0.5", "node 1: bad integer '0.5'", id="sum-child-non-integer"),
        pytest.param("pc 2 1\nl 0 .5 .5\ns 1.0 1.0 0", "node 1: bad integer '1.0'", id="sum-count-non-integer"),
    ],
)
def test_parse_pc_rejects_malformed(text, message):
    with pytest.raises(PcFormatError) as err:
        parse_pc(text)
    assert str(err.value) == message


def test_circuit_allocates_nothing_per_declared_variable():
    # a header can declare far more variables than the circuit's leaves
    # use; leaf lists are kept only for the variables that have leaves
    tracemalloc.start()
    try:
        c = parse_pc("pc 1 1000000\nc 1.0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert partition(c) == 1.0
    assert BoundState(c, {999_999}).assign([(999_999, True)], 1) == (1.0, 1.0)


def test_node_count_is_len_nodes():
    # perfbench reads circuit size as len(circuit.nodes)
    assert len(parse_pc(TWO_ROUTE_CIRCUIT_TEXT).nodes) == 15
    for n, count in ((6, 189), (7, 161), (10, 427)):
        c = compile_factor_graph(gen_random_bn(n, max_parents=2, seed=n))
        assert len(c.nodes) == count == int(write_pc(c).split()[1])


def test_parse_comments_and_scientific():
    c = parse_pc("# comment\npc 1 1\n\nl 0 3e-1 7e-1\n")
    leaf = c.nodes[0]
    assert leaf == (0, 0.3, 0.7)


def test_write_roundtrips():
    for c in (
        two_route_circuit(),
        parse_pc("pc 1 1\nl 0 0.3 0.7"),
        parse_pc("pc 1 1\nc 2.5"),
    ):
        assert parse_pc(write_pc(c)) == c


def test_write_pc_golden():
    # perfbench writes its supply-sweep PC files through write_pc
    c = parse_pc("pc 6 2\nl 0 0.25 0.75\nc 2.5\ni 1 1\np 2 0 2\np 3 0 1 2\ns 2 0.5 3 1e-3 4\n")
    assert write_pc(c) == "pc 6 2\nl 0 0.25 0.75\nc 2.5\nl 1 1.0 0.0\np 2 0 2\np 3 0 1 2\ns 2 0.5 3 0.001 4\n"


def test_write_roundtrip_random():
    for seed in range(30):
        c = random_circuit(seed, 1 + seed % 6)
        assert parse_pc(write_pc(c)) == c


# ------------------------------------------------------------- validation

def test_validate_two_route_circuit(route_circuit):
    report = validate(route_circuit)
    assert report.smooth and report.decomposable and not report.violations


def test_validate_not_decomposable():
    c = Circuit(1, [(0, 0.5, 0.5), (0, 0.5, 0.5), ((0, 1), None)])
    report = validate(c)
    assert not report.decomposable
    assert ("decomposability", 2) in report.violations


def test_validate_not_smooth():
    c = Circuit(
        2,
        [
            (0, 0.5, 0.5),
            (1, 0.5, 0.5),
            ((0, 1), (1.0, 1.0)),
        ],
    )
    report = validate(c)
    assert not report.smooth
    assert ("smoothness", 2) in report.violations


def test_validate_flags_planted_violations():
    # mutate random valid circuits and check the violation is caught
    for seed in range(20):
        c = random_circuit(seed, 4)
        prod_ids = [i for i, n in enumerate(c.nodes) if len(n) == 2 and n[1] is None]
        sum_ids = [
            i
            for i, n in enumerate(c.nodes)
            if len(n) == 2 and n[1] is not None and len({c.scopes[ch] for ch in n[0]}) == 1
        ]
        rng = random.Random(seed)
        nodes = list(c.nodes)
        if prod_ids:
            # duplicate a child: scope overlap
            nid = rng.choice(prod_ids)
            children, _ = nodes[nid]
            nodes[nid] = (children + (children[0],), None)
            mutated = Circuit(c.num_vars, nodes)
            assert not validate(mutated).decomposable
        elif sum_ids:
            nid = rng.choice(sum_ids)
            children, weights = nodes[nid]
            # splice in a child with a different scope
            donor = next(
                (j for j in range(nid) if c.scopes[j] and c.scopes[j] != c.scopes[children[0]]),
                None,
            )
            if donor is None:
                continue
            nodes[nid] = (children + (donor,), weights + (1.0,))
            mutated = Circuit(c.num_vars, nodes)
            assert not validate(mutated).smooth


def _expected_report(c: Circuit) -> ValidationReport:
    """The verdict by definition, from scopes as sets: product child scopes
    pairwise disjoint, sum child scopes all equal."""
    scopes: list[frozenset] = []
    violations = []
    for nid, row in enumerate(c.nodes):
        if len(row) == 3:
            scopes.append(frozenset() if row[0] == -1 else frozenset({row[0]}))
            continue
        children, weights = row
        kids = [scopes[child] for child in children]
        scopes.append(frozenset().union(*kids))
        if weights is None:
            if any(a & b for a, b in itertools.combinations(kids, 2)):
                violations.append(("decomposability", nid))
        elif len(set(kids)) > 1:
            violations.append(("smoothness", nid))
    assert c.scopes == [sum(1 << v for v in s) for s in scopes]
    kinds = {kind for kind, _ in violations}
    return ValidationReport("smoothness" not in kinds, "decomposability" not in kinds, tuple(violations))


def _random_rows(rng: random.Random, num_vars: int, size: int) -> list[tuple]:
    """Random rows with constants, zero- and one-child nodes and repeated
    children; products draw children from a few vars, so some overlap, and
    sums mix equal and unequal child scopes."""
    rows: list[tuple] = []
    for nid in range(size):
        if nid == 0 or rng.random() < 0.3:
            if rng.random() < 0.2:
                rows.append((-1, rng.uniform(0.0, 2.0), 0.0))
            else:
                rows.append((rng.randrange(num_vars), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)))
            continue
        children = tuple(rng.randrange(nid) for _ in range(rng.choice((0, 1, 2, 2, 3))))
        if rng.random() < 0.5:
            rows.append((children, None))
        else:
            rows.append((children, tuple(rng.uniform(0.1, 1.5) for _ in children)))
    return rows


def test_one_pass_verdict_matches_definition():
    edge_cases = [
        [((), None)],  # p 0
        [((), ())],  # s 0
        [(0, 0.5, 0.5), ((0, 0), None)],  # a product that repeats one child
        [(-1, 2.0, 0.0), ((0, 0), None)],  # ... a constant child
        [(-1, 2.0, 0.0), (0, 0.5, 0.5), ((0, 1), None), ((0, 1), (1.0, 1.0))],  # constants under p and s
        [(-1, 2.0, 0.0), (-1, 3.0, 0.0), ((0, 1), (1.0, 1.0))],
        [(1, 0.5, 0.5), ((0,), (1.0,))],  # a single-child sum
    ]
    cases = [Circuit(2, rows) for rows in edge_cases]
    for seed in range(200):
        rng = random.Random(seed)
        cases.append(Circuit(3, _random_rows(rng, 3, rng.randint(1, 25))))
    for seed in range(40):
        # valid circuits with a planted overlap or an unequal sum appended
        c = random_circuit(seed, 4)
        rng = random.Random(seed)
        nodes = list(c.nodes)
        for _ in range(3):
            children = tuple(rng.randrange(len(nodes)) for _ in range(2))
            nodes.append((children, None if rng.random() < 0.5 else (1.0, 1.0)))
        cases += [c, Circuit(c.num_vars, nodes)]
    flagged = set()
    for c in cases:
        report = validate(c)
        assert report == _expected_report(c)
        flagged.update(kind for kind, _ in report.violations)
        flagged.add(report.ok)
        assert c.leaves == [nid for nid, row in enumerate(c.nodes) if len(row) == 3]
        assert c.inner == [nid for nid, row in enumerate(c.nodes) if len(row) == 2]
        assert sorted(c.leaves + c.inner) == list(range(len(c.nodes)))
    assert flagged == {"decomposability", "smoothness", True, False}
    assert [validate(c).ok for c in cases[: len(edge_cases)]] == [True, True, False, True, False, True, True]


def test_marginal_requires_validity():
    bad = Circuit(1, [(0, 0.5, 0.5), (0, 0.5, 0.5), ((0, 1), None)])
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


def test_marginal_matches_independent_pass_to_the_bit():
    # marginal runs the bound-update kernel, so comparing it with a fully
    # assigned BoundState compares the kernel with itself; reference_bounds
    # shares no code with either, and with every shared variable assigned
    # its ub and lb are the marginal, so a kernel that folds a sum in
    # another order fails here
    circuits = [random_circuit(seed + 1500, 1 + seed % 8) for seed in range(30)]
    circuits += [_compiled_bn(seed + 60, seed % 2 == 0) for seed in range(12)]
    for mode, (i, c) in itertools.product(NumericMode, enumerate(circuits)):
        rng = random.Random(i)
        for _ in range(4):
            partial = {v: rng.random() < 0.5 for v in range(c.num_vars) if rng.random() < 0.5}
            ub, lb = reference_bounds(c, mode, partial)
            assert marginal(c, partial, mode) == ub[c.root] == lb[c.root], (mode, i, partial)


# ------------------------------------------------------------ bound state

def test_init_bounds_two_route(route_circuit):
    # nodes 10 and 11 decide the shared x1 (circuit var 0), so each bounds
    # its mass by its heavier branch, 0.8; the interval sum gave 1.0
    bs = BoundState(route_circuit, {0, 1})
    assert bs.root_bounds() == (0.8, 0.0)


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
    assert bs.assign([(0, True)], 1) == (0.2, 0.0)
    assert bs.assign([(1, False)], 2) == (0.1, 0.1)


def test_assign_single_leaf():
    c = parse_pc("pc 1 1\nl 0 0.3 0.7")
    bs = BoundState(c, {0})
    assert bs.assign([(0, True)], 1) == (0.3, 0.3)


def test_assign_rejects_invalid(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    with pytest.raises(ValueError):
        bs.assign([(2, True)], 1)  # latent
    bs.assign([(0, True)], 1)
    with pytest.raises(ValueError):
        bs.assign([(0, False)], 2)  # already assigned


def test_bound_state_rejects_shared_variable_out_of_range(route_circuit):
    for var in (-1, 4):
        with pytest.raises(ValueError, match=f"shared variable {var} out of range"):
            BoundState(route_circuit, {0, var})


def test_backtrack_restores_exactly(route_circuit):
    bs = BoundState(route_circuit, {0, 1})
    before_ub, before_lb = list(bs.ub), list(bs.lb)
    bs.assign([(0, True)], 1)
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
            bs.assign([(v, val)], level)
        keep = rng.randint(0, n - 1)
        bs.backtrack_bounds(keep)
        # replay oracle: fresh init + re-assign the kept prefix
        fresh = BoundState(c, shared)
        for level, (v, val) in enumerate(zip(order[:keep], values[:keep]), start=1):
            fresh.assign([(v, val)], level)
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
            ub, lb = bs.assign([(v, val)], level)
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
            (0, 0.3, 0.7),
            (1, 1.0, 0.0),
            (1, 0.0, 1.0),
            (-1, 2.0, 0.0),
            ((0, 1, 3), None),
            ((0, 2), None),
            (2, 0.5, 1.5),
            ((0,), (1.5,)),
            ((4, 5), (0.4, 0.6)),
        ],
    )


def test_bounds_equal_full_pass_after_every_update():
    # every node, not just the root, matches a fresh bottom-up pass
    circuits = [_dag_with_unreachable_nodes()] + [random_circuit(seed + 700, 2 + seed % 5) for seed in range(20)]
    # compiled BNs: 3-ary products of an indicator, a constant and a sub-circuit
    circuits += [compile_factor_graph(gen_random_bn(n, max_parents=2, seed=n)) for n in (6, 7)]
    circuits += [reweighted(c, seed) for seed, c in enumerate(circuits[-2:])]
    for mode, (i, c) in itertools.product(NumericMode, enumerate(circuits)):
        rng = random.Random(i)
        shared = set(rng.sample(range(c.num_vars), rng.randint(1, c.num_vars)))
        bs = BoundState(c, shared, mode)
        assert (bs.ub, bs.lb) == reference_bounds(c, mode, bs.status)
        for level in range(1, 4 * c.num_vars):
            free = [v for v in sorted(shared) if bs.status[v] is None]
            if free and rng.random() < 0.7:
                bs.assign([(rng.choice(free), rng.random() < 0.5)], level)
            else:
                bs.backtrack_bounds(rng.randint(0, level - 1))
            assert (bs.ub, bs.lb) == reference_bounds(c, mode, bs.status)


def _bound_snapshot(bs: BoundState) -> tuple[list[float], list[float], dict]:
    return list(bs.ub), list(bs.lb), dict(bs.status)


def test_batch_assign_equals_single_fold_and_full_pass():
    # a random assignment order split into random batches, against the same
    # order assigned one variable per call
    for mode, seed in itertools.product(NumericMode, range(100)):
        rng = random.Random(seed + 1100)
        n = rng.randint(2, 8)
        c = random_circuit(seed + 1100, n)
        shared = set(rng.sample(range(n), rng.randint(1, n)))
        batched = BoundState(c, shared, mode)
        single = BoundState(c, shared, mode)
        order = sorted(shared)
        rng.shuffle(order)
        items = [(v, rng.random() < 0.5) for v in order]
        level = 0
        while items:
            cut = rng.randint(1, len(items))
            batch, items = items[:cut], items[cut:]
            level += 1
            got = batched.assign(batch, level)
            for item in batch:
                single.assign([item], level)
            assert got == batched.root_bounds() == single.root_bounds()
            assert batched.ub == single.ub and batched.lb == single.lb
            assert (batched.ub, batched.lb) == reference_bounds(c, mode, batched.status)


def test_backtrack_restores_interleaved_batch_frames():
    for mode, seed in itertools.product(NumericMode, range(100)):
        rng = random.Random(seed + 1300)
        n = rng.randint(2, 8)
        c = random_circuit(seed + 1300, n)
        shared = set(rng.sample(range(n), rng.randint(1, n)))
        bs = BoundState(c, shared, mode)
        # states[k]: the arrays and status with every frame up to level k
        states = [_bound_snapshot(bs)]
        for _ in range(4 * n):
            free = [v for v in sorted(shared) if bs.status[v] is None]
            if free and rng.random() < 0.6:
                batch = [(v, rng.random() < 0.5) for v in rng.sample(free, rng.randint(1, len(free)))]
                bs.assign(batch, len(states))
                states.append(_bound_snapshot(bs))
            else:
                keep = rng.randint(0, len(states) - 1)
                bs.backtrack_bounds(keep)
                del states[keep + 1 :]
                assert _bound_snapshot(bs) == states[-1]
        bs.backtrack_bounds(0)
        assert _bound_snapshot(bs) == states[0]
        assert all(val is None for val in bs.status.values())


def test_batch_assign_rejects_before_any_change(route_circuit):
    bs = BoundState(route_circuit, {0, 1, 2})
    bs.assign([(2, False)], 1)
    before = _bound_snapshot(bs)
    for batch in (
        [(0, True), (3, True)],  # 3 is latent
        [(0, True), (2, True)],  # 2 is already assigned
        [(0, True), (1, False), (0, False)],  # 0 is repeated
    ):
        with pytest.raises(ValueError):
            bs.assign(batch, 2)
        assert _bound_snapshot(bs) == before
    bs.backtrack_bounds(1)
    assert _bound_snapshot(bs) == before
    bs.backtrack_bounds(0)
    assert bs.status == {0: None, 1: None, 2: None}


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
            lu, ll = lin.assign([(v, val)], level)
            gu, gl = log.assign([(v, val)], level)
            for linear, logged in ((lu, gu), (ll, gl)):
                if linear == 0.0:
                    assert logged == -math.inf
                else:
                    assert rel_close(math.exp(logged), linear, rel=1e-9)


# ---------------------------------------------------------- decision sums

def _compiled_bn(seed: int, shuffled: bool) -> Circuit:
    """A compiled BN, in a shuffled order if asked, with every other seed's
    sum weights redrawn so that its decision sums do not all weigh 1."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    order = list(range(n))
    if shuffled:
        rng.shuffle(order)
    c = compile_factor_graph(gen_random_bn(n, max_parents=2, seed=seed), order)
    return reweighted(c, seed) if seed % 2 else c


def _brackets(bs: BoundState, c: Circuit, mode: NumericMode, shared: set[int]) -> bool:
    partial = {v: val for v, val in bs.status.items() if val is not None}
    lo, hi = brute_minmax_over_shared(c, partial, shared)
    ub, lb = bs.root_bounds()
    if mode is NumericMode.LOG:
        ub, lb = math.exp(ub), math.exp(lb)
        return lb <= lo * (1 + 1e-9) and ub >= hi * (1 - 1e-9)
    return lb <= lo and ub >= hi


def test_decision_bounds_bracket_brute_force_on_compiled_bns():
    # every sum of a compiled BN decides a variable; random shared sets make
    # some of them shared decisions and leave the rest latent
    for mode, shuffled, seed in itertools.product(NumericMode, (False, True), range(12)):
        c = _compiled_bn(seed + 40, shuffled)
        rng = random.Random(seed)
        shared = set(rng.sample(range(c.num_vars), rng.randint(1, c.num_vars)))
        bs = BoundState(c, shared, mode)
        assert _brackets(bs, c, mode, shared)
        for level in range(1, 3 * c.num_vars):
            free = [v for v in sorted(shared) if bs.status[v] is None]
            if free and rng.random() < 0.7:
                batch = rng.sample(free, min(len(free), rng.randint(1, 2)))
                bs.assign([(v, rng.random() < 0.5) for v in batch], level)
            else:
                bs.backtrack_bounds(rng.randint(0, level - 1))
            assert _brackets(bs, c, mode, shared), (mode, shuffled, seed, level)
        free = [v for v in sorted(shared) if bs.status[v] is None]
        if free:
            bs.assign([(v, rng.random() < 0.5) for v in free], 3 * c.num_vars)
        # fully assigned: one branch per decision sum, the marginal to the bit
        assert bs.root_bounds() == (marginal(c, bs.status, mode),) * 2


def _permuted(c: Circuit, seed: int) -> Circuit:
    """`c` with the children of every product and sum shuffled (a sum's
    weights move with its children): the same circuit, whose indicators sit
    anywhere among their product's children."""
    rng = random.Random(seed)
    rows = []
    for row in c.nodes:
        if len(row) == 3:
            rows.append(row)
            continue
        children, weights = row
        perm = rng.sample(range(len(children)), len(children))
        rows.append(
            (tuple(children[k] for k in perm), None if weights is None else tuple(weights[k] for k in perm))
        )
    return Circuit(c.num_vars, rows)


def test_decision_sums_match_independent_scan():
    circuits = [random_circuit(seed, 4) for seed in range(30)]
    for seed in range(12):
        compiled = _compiled_bn(seed + 90, seed % 2 == 1)
        circuits += [compiled, _permuted(compiled, seed), _permuted(random_circuit(seed + 30, 4), seed)]
    moved = 0
    for c in circuits:
        nodes = c.nodes
        want = []
        for nid, row in enumerate(nodes):
            if len(row) == 2 and row[1] is not None:
                match = _opposed_indicators(nodes, row)
                if match is not None:
                    want.append((nid, *match))
        # with every variable shared, every decision sum is a branch row
        rows = _rows(c, NumericMode.LINEAR, frozenset(range(c.num_vars)))
        got = []
        for nid in c.inner:
            if rows[nid][0] is None:
                (w_a, prod_a, ind_a, rest_a), (w_b, prod_b, ind_b, rest_b) = rows[nid][1]
                assert (prod_a, prod_b) == nodes[nid][0] and (w_a, w_b) == nodes[nid][1]
                assert sorted((ind_a, *rest_a)) == sorted(nodes[prod_a][0])
                assert sorted((ind_b, *rest_b)) == sorted(nodes[prod_b][0])
                got.append((nid, nodes[ind_a][0], ind_a, ind_b))
                moved += (ind_a, ind_b) != (nodes[prod_a][0][0], nodes[prod_b][0][0])
        assert got == want
    # the permuted circuits reach the general scan
    assert moved > 0


def test_rows_are_cached_per_mode_and_shared_set(route_circuit):
    c = route_circuit
    for mode, shared in itertools.product(NumericMode, ({0, 1}, {2, 3}, set())):
        assert _rows(c, mode, frozenset(shared)) is _rows(c, mode, frozenset(shared))
        assert BoundState(c, shared, mode)._nodes is _rows(c, mode, frozenset(shared))
    # the first route's predicate shares x0 and x1; sums 10 and 11 decide x0
    # with its indicators at positions (1, 1) and (0, 1) of their products,
    # so only the general scan finds them
    rows = _rows(c, NumericMode.LINEAR, frozenset({0, 1}))
    assert [nid for nid in c.inner if rows[nid][0] is None] == [10, 11]
    assert rows[10] == (None, ((0.8, 6, 1, (3,)), (0.2, 7, 0, (3,))))
    assert rows[11] == (None, ((0.8, 8, 1, (2,)), (0.2, 9, 0, (2,))))
    # no sum decides x2 or x3: the second predicate reads the stored rows
    assert _rows(c, NumericMode.LINEAR, frozenset({2, 3})) is c.nodes
    assert _rows(c, NumericMode.LINEAR) is c.nodes
    assert _rows(c, NumericMode.LOG, frozenset({2, 3})) is _rows(c, NumericMode.LOG)


def test_latent_decision_keeps_plain_sum():
    # node 6 decides x0 through the indicators 0 and 1; x1 has plain leaves
    c = Circuit(
        2,
        [
            (0, 1.0, 0.0),
            (0, 0.0, 1.0),
            (1, 0.3, 0.7),
            (1, 0.2, 0.6),
            ((0, 2), None),
            ((1, 3), None),
            ((4, 5), (0.5, 0.5)),
        ],
    )
    # x0 latent: the root's mass is the sum of both branches, so its bounds
    # stay the interval sums, which are exact here; the largest branch,
    # 0.5*0.7, would be below the marginal at x1=False
    latent = BoundState(c, {1})
    lo, hi = brute_minmax_over_shared(c, {}, {1})
    assert latent.root_bounds() == (0.5 * 0.7 + 0.5 * 0.6, 0.5 * 0.3 + 0.5 * 0.2) == (hi, lo)
    assert 0.5 * 0.7 < hi
    # x0 shared: the root is one branch, and the bounds are the exact range
    decided = BoundState(c, {0, 1})
    assert decided.root_bounds() == (0.5 * 0.7, 0.5 * 0.2)
    assert brute_minmax_over_shared(c, {}, {0, 1}) == (0.5 * 0.2, 0.5 * 0.7)


def test_shared_first_order_bounds_are_exact():
    # with the shared variables compiled first, every sum above the latent
    # part decides a shared variable, so the root bounds are the exact max
    # and min over the free shared variables, in both modes
    for mode, seed in itertools.product(NumericMode, range(10)):
        rng = random.Random(seed + 70)
        n = rng.randint(4, 8)
        shared = set(rng.sample(range(n), rng.randint(1, n)))
        order = rng.sample(sorted(shared), len(shared)) + [v for v in range(n) if v not in shared]
        c = compile_factor_graph(gen_random_bn(n, max_parents=2, seed=seed + 70), order)
        bs = BoundState(c, shared, mode)
        partial: dict[int, bool] = {}
        for level, v in enumerate(rng.sample(sorted(shared), len(shared)), start=1):
            lo, hi = brute_minmax_over_shared(c, partial, shared, mode)
            assert bs.root_bounds() == (hi, lo), (mode, seed, level)
            partial[v] = rng.random() < 0.5
            bs.assign([(v, partial[v])], level)
        assert bs.root_bounds() == (marginal(c, partial, mode),) * 2


# ------------------------------------------------------- kernels and memos

# Weights that reach the kernels' edge cases: zeros of both signs (the PC
# parser accepts -0.0), and magnitudes whose linear-mode products overflow
# to inf, which times a zero gives NaN.
_EDGE_WEIGHTS = (0.0, -0.0, 1.0, 1e-200, 1e200)


def _bits(values: list[float]) -> list[str]:
    """Every bit of each float but a NaN's payload; -0.0 differs from 0.0."""
    return ["nan" if x != x else x.hex() for x in values]


def _edge_weighted(rows: Sequence[tuple], rng: random.Random) -> Circuit:
    """The rows with every leaf and sum weight redrawn, two in five from
    _EDGE_WEIGHTS. Indicators become plain leaves, so no sum decides a
    variable and every sum runs the interval rule."""

    def w() -> float:
        return rng.choice(_EDGE_WEIGHTS) if rng.random() < 0.4 else rng.uniform(0.0, 2.0)

    out = []
    for row in rows:
        if len(row) == 3:
            out.append((row[0], w(), w()) if row[0] >= 0 else (-1, w(), 0.0))
        elif row[1] is None:
            out.append(row)
        else:
            out.append((row[0], tuple(w() for _ in row[0])))
    return Circuit(1 + max([row[0] for row in rows if len(row) == 3] + [0]), out)


def test_kernels_match_reference_bit_for_bit_on_every_shape():
    # the kernels write out products of 3 and sums of 2 as the fold's
    # own operations in its own order; reference_bounds folds every node, so
    # a written-out shape that rounds, signs a zero, overflows or makes a
    # NaN differently from the fold fails here
    rng = random.Random(16)
    circuits = []
    for k, _ in itertools.product(range(6), range(8)):  # products of 0-5 leaves
        circuits.append(_edge_weighted([(v, 1.0, 1.0) for v in range(k)] + [(tuple(range(k)), None)], rng))
    for k, _ in itertools.product(range(1, 5), range(8)):  # sums of 1-4 leaves
        circuits.append(_edge_weighted([(0, 1.0, 1.0)] * k + [(tuple(range(k)), (1.0,) * k)], rng))
    # nested: products of 2 and sums of 2 and 3, and compiled BNs' products
    # of 3 under sums of 2
    circuits += [_edge_weighted(random_circuit(seed + 40, 2 + seed % 5).nodes, rng) for seed in range(16)]
    circuits += [_edge_weighted(_compiled_bn(seed + 90, seed % 2 == 0).nodes, rng) for seed in range(6)]
    reached = set()
    for mode, c in itertools.product(NumericMode, circuits):
        # a pass from NaN writes every node: marginal's, and BoundState's first
        for _ in range(3):
            partial = {v: rng.random() < 0.5 for v in range(c.num_vars) if rng.random() < 0.5}
            values = _fold(c, mode, partial)[0]
            ub, _ = reference_bounds(c, mode, partial)
            assert _bits(values) == _bits(ub), (mode, c.nodes, partial)
            reached.update((mode, b) for b in _bits(values) if b in ("nan", "inf", "-inf", "-0x0.0p+0"))
        shared = set(rng.sample(range(c.num_vars), rng.randint(0, c.num_vars)))
        bs = BoundState(c, shared, mode)
        assert (_bits(bs.ub), _bits(bs.lb)) == tuple(map(_bits, reference_bounds(c, mode, bs.status)))
        for level in range(1, 2 + 3 * len(shared)):
            ub, lb = reference_bounds(c, mode, bs.status)
            assert _bits(bs.ub) == _bits(ub), (mode, c.nodes, bs.status)
            assert _bits(bs.lb) == _bits(lb), (mode, c.nodes, bs.status)
            free = [v for v in sorted(shared) if bs.status[v] is None]
            if free and rng.random() < 0.7:
                bs.assign([(v, rng.random() < 0.5) for v in rng.sample(free, rng.randint(1, len(free)))], level)
            else:
                bs.backtrack_bounds(rng.randint(0, level - 1))
    linear, log = NumericMode.LINEAR, NumericMode.LOG
    assert {(linear, "nan"), (linear, "inf"), (linear, "-0x0.0p+0"), (log, "-inf")} <= reached


def test_fully_assigned_signed_zeros_equal_marginal():
    # the free leaf's bounds start at max(-0.0, 0.0) = -0.0; assigning False
    # must write its 0.0, which compares equal to -0.0
    c = parse_pc("pc 1 1\nl 0 -0.0 0.0")
    for mode in NumericMode:
        bs = BoundState(c, {0}, mode)
        ub, lb = bs.assign([(0, False)], 1)
        assert ub.hex() == lb.hex() == marginal(c, {0: False}, mode).hex()
    # a decision sum whose True branch's mass is -0.0 (a latent -0.0 leaf):
    # once variable 0 is True its lb is that branch alone, which the
    # interval sum adds to 0.0
    c = parse_pc("pc 7 2\ni 0 1\ni 0 0\nl 1 -0.0 -0.0\nl 1 1.0 1.0\np 2 0 2\np 2 1 3\ns 2 1.0 4 1.0 5")
    for mode in NumericMode:
        ub, lb = BoundState(c, {0}, mode).assign([(0, True)], 1)
        assert ub.hex() == lb.hex() == marginal(c, {0: True}, mode).hex()


def test_nan_decision_branch_makes_the_sum_nan():
    # the interval sum is NaN when a branch is, so marginal raises; the
    # decision sum must not skip the NaN branch and answer the other one
    c = parse_pc(NAN_BRANCH_PC)
    linear, log = NumericMode.LINEAR, NumericMode.LOG
    with pytest.raises(ValueError, match="marginal is NaN"):
        marginal(c, {0: True})
    bs = BoundState(c, {0}, linear)
    assert bs.root_bounds() == (math.inf, 0.5)
    assert _bits(list(bs.assign([(0, True)], 1))) == ["nan", "nan"]
    assert (_bits(bs.ub), _bits(bs.lb)) == tuple(map(_bits, reference_bounds(c, linear, bs.status)))
    bs.backtrack_bounds(0)
    assert bs.assign([(0, False)], 1) == (math.inf, math.inf)
    with pytest.raises(ValueError, match="marginal is infinite"):
        marginal(c, {0: False})
    # log mode has no +inf, so it never meets a NaN
    for val in (True, False):
        m = marginal(c, {0: val}, log)
        assert BoundState(c, {0}, log).assign([(0, val)], 1) == (m, m)


def _redrawn_bn(seed: int, rng: random.Random) -> Circuit:
    """``_compiled_bn(seed, ...)`` with each leaf redrawn with chance 0.3,
    half of its weights from _EDGE_WEIGHTS, so that decision sums meet
    signed zeros and linear-mode overflow."""

    def w() -> float:
        return rng.choice(_EDGE_WEIGHTS) if rng.random() < 0.5 else rng.uniform(0.0, 2.0)

    c = _compiled_bn(seed, seed % 2 == 0)
    rows = [
        (row[0], w(), w() if row[0] >= 0 else 0.0) if len(row) == 3 and rng.random() < 0.3 else row
        for row in c.nodes
    ]
    return Circuit(c.num_vars, rows)


def test_fully_assigned_linear_root_is_nan_exactly_when_marginal_is():
    # compiled BNs with one leaf in three redrawn, some to 1e200 or a zero,
    # their shared variables assigned in random batches: the root then
    # equals marginal's fold bit for bit, so it is NaN exactly when marginal
    # raises for a NaN mass
    rng = random.Random(18)
    linear = NumericMode.LINEAR
    nans = 0
    for seed in range(120):
        c = _redrawn_bn(seed + 700, rng)
        shared = rng.sample(range(c.num_vars), rng.randint(1, c.num_vars))
        bs = BoundState(c, shared, linear)
        for level in range(1, len(shared) + 1):
            free = [v for v in shared if bs.status[v] is None]
            if not free:
                break
            bs.assign([(v, rng.random() < 0.5) for v in rng.sample(free, rng.randint(1, len(free)))], level)
        status = dict(bs.status)
        root = _fold(c, linear, status)[0][c.root]
        assert _bits(list(bs.root_bounds())) == _bits([root, root]), (seed, status)
        if math.isnan(root):
            nans += 1
            with pytest.raises(ValueError, match="marginal is NaN"):
                marginal(c, status)
    assert nans > 0


def test_bounds_equal_fresh_fold_after_every_step():
    # the BoundState invariant, on compiled BNs with one leaf in three
    # redrawn, half of those from _EDGE_WEIGHTS, so that decision sums and
    # signed zeros meet: after every assign and backtrack, every node's
    # bounds equal a fold from scratch of the state's status, bit for bit
    rng = random.Random(17)
    decision_rows = 0
    for mode, seed in itertools.product(NumericMode, range(16)):
        c = _redrawn_bn(seed + 500, rng)
        shared = frozenset(rng.sample(range(c.num_vars), rng.randint(1, c.num_vars)))
        bs = BoundState(c, shared, mode)
        decision_rows += sum(row[0] is None for row in _rows(c, mode, shared))
        for level in range(1, 2 + 3 * len(shared)):
            ub, lb = _fold(c, mode, bs.status, shared)
            assert (_bits(bs.ub), _bits(bs.lb)) == (_bits(ub), _bits(lb)), (mode, seed, bs.status)
            free = [v for v in sorted(shared) if bs.status[v] is None]
            if free and rng.random() < 0.7:
                bs.assign([(v, rng.random() < 0.5) for v in rng.sample(free, rng.randint(1, len(free)))], level)
            else:
                bs.backtrack_bounds(rng.randint(0, level - 1))
    assert decision_rows > 0


def test_bound_states_on_one_circuit_start_fresh_and_independent():
    # a second BoundState on one circuit and shared set starts from fresh
    # bounds while the first is assigned, and neither assigning nor
    # backtracking one state touches the other
    for mode, seed in itertools.product(NumericMode, range(12)):
        c = _compiled_bn(seed + 300, seed % 2 == 0) if seed % 3 else random_circuit(seed + 300, 5)
        rng = random.Random(seed)
        shared = set(rng.sample(range(c.num_vars), rng.randint(1, c.num_vars)))
        first = BoundState(c, shared, mode)
        assert first.ub is not first.lb
        first.assign([(v, rng.random() < 0.5) for v in sorted(shared)], 1)
        second = BoundState(c, shared, mode)
        fresh = BoundState(Circuit(c.num_vars, c.nodes), shared, mode)
        assert (second.ub, second.lb) == (fresh.ub, fresh.lb) == reference_bounds(c, mode, dict.fromkeys(shared))
        after_first = _bound_snapshot(first)
        second.assign([(min(shared), True)], 1)
        assert _bound_snapshot(first) == after_first
        first.backtrack_bounds(0)
        assert (first.ub, first.lb) == (fresh.ub, fresh.lb)


def test_batch_ids_memo_is_capped():
    # 8 shared variables give far more distinct batch masks than the cap;
    # the memo keeps the first _IDS_MEMO_CAP, each the ids a scan of the
    # scopes finds, and every batch past the cap still gets exact bounds
    assert _IDS_MEMO_CAP == 64
    for mode in NumericMode:
        c = random_circuit(77, 8, max_nodes=120)
        rng = random.Random(77)
        bs = BoundState(c, range(8), mode)
        masks = set()
        for level in range(1, 400):
            free = [v for v in range(8) if bs.status[v] is None]
            if free and rng.random() < 0.6:
                batch = rng.sample(free, rng.randint(1, min(3, len(free))))
                masks.add(sum(1 << v for v in batch))
                bs.assign([(v, rng.random() < 0.5) for v in batch], level)
            else:
                bs.backtrack_bounds(rng.randint(0, level - 1))
            assert (bs.ub, bs.lb) == reference_bounds(c, mode, bs.status)
        ids = c._memo["ids"]
        assert len(masks) > _IDS_MEMO_CAP and len(ids) == _IDS_MEMO_CAP
        for mask, memoized in ids.items():
            assert memoized == [nid for nid in c.inner if c.scopes[nid] & mask]


def test_partition_is_memoized_and_overflow_raises_every_call():
    for mode, seed in itertools.product(NumericMode, range(10)):
        c = random_circuit(seed + 500, 1 + seed % 6) if seed % 2 else _compiled_bn(seed + 500, True)
        z = partition(c, mode)
        assert z == reference_bounds(c, mode, {})[0][c.root]
        assert c._memo[("partition", mode)] == z == partition(c, mode)
    # 1e200 * 1e200 overflows in linear mode: no mass is stored, so every
    # call raises; log mode's mass is finite
    c = parse_pc("pc 3 2\nl 0 1e200 0.0\nl 1 1e200 0.0\np 2 0 1")
    for _ in range(2):
        with pytest.raises(ValueError, match="marginal is infinite"):
            partition(c)
    assert ("partition", NumericMode.LINEAR) not in c._memo
    assert partition(c, NumericMode.LOG) == partition(c, NumericMode.LOG) == 2 * math.log(1e200)
