import json
import math
import random
from itertools import permutations

import pytest

from smcsat.circuit import Circuit, PcFormatError, evaluate_joint, partition
from smcsat.factorgraph import compile_factor_graph, enumerate_marginal, write_uai
from smcsat.oracle import brute_solve
from smcsat.problems import (
    GraphSpec,
    GridSpec,
    LayeredNetwork,
    ManifestError,
    build_manifest,
    decode_hamiltonian_path,
    encode_hamiltonian_path,
    encode_supply_chain,
    exactly_k,
    gen_kcolor,
    gen_random_bn,
    load_manifest,
    marginalize_false_circuit,
    parse_edge_list,
    save_manifest,
    select_shared_vars,
    shuffle_variables,
)
from smcsat.solver import Comparator, PredicateSpec, SmcProblem
from util import MALFORMED_MANIFESTS, TWO_ROUTE_CIRCUIT_TEXT, rel_close, two_route_circuit


def count_models(formula) -> int:
    return brute_solve(SmcProblem(formula)).model_count


# ----------------------------------------------------------------- kcolor

def test_kcolor_2x2_3colors():
    f = gen_kcolor(GridSpec(2, 2, 3))
    assert f.num_vars == 12
    # chromatic polynomial of the 4-cycle at k=3: (k-1)^4 + (k-1) = 18
    assert count_models(f) == 18


def test_kcolor_1x1():
    assert count_models(gen_kcolor(GridSpec(1, 1, 3))) == 3


def test_kcolor_1x2_2colors():
    assert count_models(gen_kcolor(GridSpec(1, 2, 2))) == 2


def test_kcolor_shuffle_preserves_count():
    base = gen_kcolor(GridSpec(2, 2, 3))
    shuffled = gen_kcolor(GridSpec(2, 2, 3), shuffle_seed=5)
    assert shuffled != base
    assert count_models(shuffled) == 18
    assert gen_kcolor(GridSpec(2, 2, 3), shuffle_seed=5) == shuffled


def test_shuffle_variables_is_seeded_permutation():
    f = gen_kcolor(GridSpec(1, 2, 2))
    a = shuffle_variables(f, seed=1)
    assert shuffle_variables(f, seed=1) == a
    assert a.num_vars == f.num_vars
    assert count_models(a) == count_models(f)


def test_kcolor_3colorable_grids_sat():
    for rows, cols in ((1, 3), (2, 2), (2, 3)):
        f = gen_kcolor(GridSpec(rows, cols, 3))
        assert count_models(f) > 0


# -------------------------------------------------------------- exactly_k

def test_exactly_one_of_two():
    clauses = exactly_k([1, 2], 1)
    assert set(clauses) == {(-1, -2), (1, 2)}
    from smcsat.formula import CnfFormula

    assert count_models(CnfFormula(2, tuple(clauses))) == 2


def test_exactly_two_of_four():
    from smcsat.formula import CnfFormula

    clauses = exactly_k([1, 2, 3, 4], 2)
    assert count_models(CnfFormula(4, tuple(clauses))) == 6  # C(4,2)


def test_exactly_zero_of_three():
    from smcsat.formula import CnfFormula

    clauses = exactly_k([1, 2, 3], 0)
    assert sorted(clauses) == [(-3,), (-2,), (-1,)] or len(clauses) == 3
    assert count_models(CnfFormula(3, tuple(clauses))) == 1


def test_exactly_k_out_of_range():
    with pytest.raises(ValueError):
        exactly_k([1, 2], 3)


# ----------------------------------------------------------- supply chain

def test_supply_2x2_single_trades():
    net = LayeredNetwork((2, 2))
    f = encode_supply_chain(net, 1, 1)
    assert f.num_vars == 4
    assert count_models(f) == 2  # the two perfect matchings


def test_supply_2x2x2_single_trades():
    f = encode_supply_chain(LayeredNetwork((2, 2, 2)), 1, 1)
    # one permutation matrix per layer interface: 2 * 2
    assert count_models(f) == 4


def test_supply_infeasible_cardinality():
    with pytest.raises(ValueError):
        encode_supply_chain(LayeredNetwork((1, 3)), k_up=2, k_down=2)


# ------------------------------------------------------- hamiltonian path

def test_hampath_path_graph():
    g = GraphSpec.from_edges(3, [(0, 1), (1, 2)])
    f = encode_hamiltonian_path(g)
    assert f.num_vars == 9
    result = brute_solve(SmcProblem(f))
    assert result.model_count == 2
    paths = {tuple(decode_hamiltonian_path(g, m)) for m in result.models}
    assert paths == {(0, 1, 2), (2, 1, 0)}


def test_hampath_triangle():
    g = GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    result = brute_solve(SmcProblem(encode_hamiltonian_path(g)))
    assert result.model_count == 6
    assert {tuple(decode_hamiltonian_path(g, m)) for m in result.models} == set(
        permutations(range(3))
    )


def test_hampath_isolated_vertex_unsat():
    g = GraphSpec.from_edges(3, [(0, 1)])
    assert count_models(encode_hamiltonian_path(g)) == 0


def test_hampath_models_decode_to_valid_paths():
    g = GraphSpec.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    result = brute_solve(SmcProblem(encode_hamiltonian_path(g)))
    assert result.model_count > 0
    for model in result.models:
        path = decode_hamiltonian_path(g, model)
        assert sorted(path) == list(range(4))
        for a, b in zip(path, path[1:]):
            assert g.adjacent(a, b)


def test_graph_without_nodes_and_path_position_without_one_city_rejected():
    # the CLI's --nodes check and edge-list parse never build either
    with pytest.raises(ValueError, match="need at least one node"):
        GraphSpec(0, frozenset())
    g = GraphSpec.from_edges(2, [(0, 1)])
    for cities in ((False, False), (True, True)):
        model = {1: True, 2: False, 3: cities[0], 4: cities[1]}
        with pytest.raises(ValueError, match=f"position 1 holds {sum(cities)} cities"):
            decode_hamiltonian_path(g, model)


def test_parse_edge_list():
    g = parse_edge_list("0 1\n1 2\n# comment\n")
    assert g.n == 3 and g.adjacent(0, 1) and not g.adjacent(0, 2)
    g2 = parse_edge_list("0 1\n", n=4)
    assert g2.n == 4


# -------------------------------------------------------------- random BN

def test_bn_single_node():
    fg = gen_random_bn(1, seed=3)
    assert len(fg.factors) == 1
    assert math.isclose(sum(fg.factors[0].table), 1.0)


def test_bn_deterministic_per_seed():
    a = gen_random_bn(5, seed=42)
    b = gen_random_bn(5, seed=42)
    c = gen_random_bn(5, seed=43)
    assert a == b
    assert a != c


def test_bn_normalized_partition():
    for seed in range(8):
        fg = gen_random_bn(6, seed=seed)
        assert rel_close(enumerate_marginal(fg, {}), 1.0, rel=1e-9)


def test_bn_respects_max_parents():
    fg = gen_random_bn(10, max_parents=2, seed=1)
    for factor in fg.factors:
        assert len(factor.scope) <= 3  # parents + child


def test_bn_writes_and_reloads():
    from smcsat.factorgraph import parse_uai

    fg = gen_random_bn(4, seed=9)
    assert parse_uai(write_uai(fg)) == fg


# ----------------------------------------------- selection-circuit helper

def test_marginalize_false_matches_selection_semantics():
    for seed in range(5):
        fg = gen_random_bn(5, seed=seed + 10)
        base = compile_factor_graph(fg)
        success = marginalize_false_circuit(base)
        rng = random.Random(seed)
        for _ in range(20):
            selection = {v: rng.random() < 0.5 for v in range(5)}
            chosen = {v: True for v, on in selection.items() if on}
            assert rel_close(
                evaluate_joint(success, selection),
                enumerate_marginal(fg, chosen),
                rel=1e-9,
            )


def test_marginalize_false_rejects_a_false_weight_that_overflows():
    # 1e308 + 1e308 is inf: the result would have an infinite marginal everywhere
    with pytest.raises(PcFormatError, match="^node 0: negative or non-finite weight inf$"):
        marginalize_false_circuit(Circuit(1, [(0, 1e308, 1e308)]))


def test_select_shared_vars_rule():
    shared = select_shared_vars(10, 3, seed=0)
    assert len(shared) == 3  # min(10 // 2, 3)
    shared = select_shared_vars(10, 100, seed=0)
    assert len(shared) == 5  # min(5, 100)
    assert len(set(shared.values())) == len(shared)
    assert select_shared_vars(10, 100, seed=1) == select_shared_vars(10, 100, seed=1)


# ---------------------------------------------------------------- manifest

def _write_route_files(tmp_path):
    cnf = "p cnf 6 6\n5 6 0\n-5 -6 0\n-5 1 0\n-5 2 0\n-6 3 0\n-6 4 0\n"
    (tmp_path / "route.cnf").write_text(cnf)
    (tmp_path / "route.pc").write_text(TWO_ROUTE_CIRCUIT_TEXT)


def test_manifest_roundtrip_hard(tmp_path):
    _write_route_files(tmp_path)
    doc = build_manifest(
        "route.cnf",
        [{"circuit": "route.pc", "shared": {2: 3, 3: 4}, "cmp": "ge", "threshold": 0.5}],
    )
    save_manifest(doc, tmp_path / "m.json")
    problem = load_manifest(tmp_path / "m.json")
    assert problem.cnf.num_vars == 6
    assert problem.predicates[0].b is None
    assert problem.predicates[0].shared_map == {2: 3, 3: 4}


def test_manifest_roundtrip_soft_and_fraction(tmp_path):
    _write_route_files(tmp_path)
    doc = build_manifest(
        "route.cnf",
        [
            {"circuit": "route.pc", "shared": {0: 1, 1: 2}, "b": 5, "cmp": "ge", "threshold": 0.5},
            {
                "circuit": "route.pc",
                "shared": {2: 3, 3: 4},
                "b": -6,
                "cmp": "lt",
                "threshold": 0.25,
                "threshold_mode": "partition_fraction",
            },
        ],
    )
    save_manifest(doc, tmp_path / "m.json")
    problem = load_manifest(tmp_path / "m.json")
    assert problem.predicates[0].b == 5
    assert problem.predicates[1].b == -6
    assert problem.predicates[1].threshold_mode.value == "partition_fraction"
    # resolved against the circuit's partition (1.0 here)
    assert problem.predicates[1].resolved_threshold() == pytest.approx(0.25)


def test_manifest_uai_predicate(tmp_path):
    fg = gen_random_bn(4, seed=2)
    (tmp_path / "m.uai").write_text(write_uai(fg))
    (tmp_path / "t.cnf").write_text("p cnf 2 1\n1 2 0\n")
    doc = build_manifest(
        "t.cnf",
        [{"uai": "m.uai", "shared": {0: 1, 1: 2}, "threshold": 0.1}],
    )
    save_manifest(doc, tmp_path / "m.json")
    problem = load_manifest(tmp_path / "m.json")
    assert rel_close(partition(problem.predicates[0].circuit), 1.0, rel=1e-9)


def test_manifest_dangling_path(tmp_path):
    # a manifest names its files relative to where it is saved, so only
    # saving (and loading) can check that they exist
    doc = build_manifest("missing.cnf", [])
    with pytest.raises(ManifestError, match="referenced file does not exist: missing.cnf"):
        save_manifest(doc, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_manifest_non_injective_shared(tmp_path):
    _write_route_files(tmp_path)
    with pytest.raises(ManifestError):
        build_manifest(
            "route.cnf",
            [{"circuit": "route.pc", "shared": {0: 1, 1: 1}, "threshold": 0.5}],
        )


def test_manifest_bad_cmp(tmp_path):
    _write_route_files(tmp_path)
    with pytest.raises(ManifestError):
        build_manifest(
            "route.cnf",
            [{"circuit": "route.pc", "shared": {}, "cmp": "eq", "threshold": 0.5}],
        )


@pytest.mark.parametrize("doc, message", MALFORMED_MANIFESTS)
def test_manifest_malformed_rejected_on_read_and_write(tmp_path, doc, message):
    _write_route_files(tmp_path)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)
    with pytest.raises(ManifestError, match=message):
        save_manifest(doc, tmp_path / "out.json")
    if isinstance(doc, dict):
        with pytest.raises(ManifestError, match=message):
            build_manifest(doc["cnf"], doc["predicates"])


# One fault per row in a predicate's own fields, as a manifest writes it
# (`shared` keyed by strings), with the one message that rejects it.
PREDICATE_FIELD_FAULTS = [
    pytest.param("cmp", "eq", "cmp 'eq' is not a Comparator", id="cmp-name"),
    pytest.param("cmp", 1, "cmp 1 is not a Comparator", id="cmp-int"),
    pytest.param("threshold_mode", "relative", "threshold_mode 'relative' is not a ThresholdMode", id="mode-name"),
    pytest.param("shared", {"0": 1.5}, "shared map entry 0: 1.5 is not an integer pair", id="shared-float"),
    pytest.param("shared", {"0": True}, "shared map entry 0: True is not an integer pair", id="shared-bool"),
    pytest.param("shared", {"0": [1]}, "shared map entry 0: [1] is not an integer pair", id="shared-unhashable"),
    pytest.param("shared", {"0": 1, "1": 1}, "shared map is not injective", id="shared-not-injective"),
    pytest.param("b", 0, "b literal 0 is not a nonzero integer", id="b-zero"),
    pytest.param("b", 1.5, "b literal 1.5 is not a nonzero integer", id="b-float"),
    pytest.param("b", True, "b literal True is not a nonzero integer", id="b-bool"),
    pytest.param("b", "5", "b literal '5' is not a nonzero integer", id="b-string"),
    pytest.param("threshold", "0.5", "threshold '0.5' is not a finite number", id="threshold-string"),
    pytest.param("threshold", True, "threshold True is not a finite number", id="threshold-bool"),
    pytest.param("threshold", 10**400, f"threshold {10**400} is not a finite number", id="threshold-huge-int"),
    pytest.param("threshold", math.nan, "threshold nan is not a finite number", id="threshold-nan"),
    pytest.param("threshold", math.inf, "threshold inf is not a finite number", id="threshold-inf"),
    pytest.param("threshold", -math.inf, "threshold -inf is not a finite number", id="threshold-minus-inf"),
]


@pytest.mark.parametrize("field, value, message", PREDICATE_FIELD_FAULTS)
def test_predicate_field_fault_has_one_message_through_api_and_manifest(tmp_path, field, value, message):
    # the API and the manifest schema apply one check, so they agree
    _write_route_files(tmp_path)
    api = {"shared_map": {0: 1, 1: 2}, "cmp": Comparator.GE, "threshold": 0.5, "b": 5}
    if field == "shared":
        api["shared_map"] = {int(k): v for k, v in value.items()}
    else:
        api[field] = value
    with pytest.raises(ValueError) as err:
        PredicateSpec(two_route_circuit(), **api)
    assert str(err.value) == message
    desc = {"circuit": "route.pc", "shared": {"0": 1, "1": 2}, "b": 5, "cmp": "ge", "threshold": 0.5, field: value}
    with pytest.raises(ManifestError) as err:
        build_manifest("route.cnf", [desc])
    assert str(err.value) == f"predicate 0: {message}"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"cnf": "route.cnf", "predicates": [desc]}))
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: predicate 0: {message}"
