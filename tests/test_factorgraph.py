import gc
import hashlib
import math
import random
from itertools import product

import pytest

from smcsat.circuit import evaluate_joint, marginal, partition, validate, write_pc
from smcsat.factorgraph import (
    Factor,
    FactorGraph,
    UaiFormatError,
    compile_factor_graph,
    enumerate_marginal,
    parse_uai,
    write_uai,
)
from smcsat.problems import gen_random_bn
from util import reference_compile, rel_close

UNARY = "MARKOV\n1\n2\n1\n1 0\n\n2\n0.3 0.7\n"


def random_factor_graph(seed: int, n: int, num_factors: int, max_scope: int = 3) -> FactorGraph:
    rng = random.Random(seed)
    factors = []
    for _ in range(num_factors):
        k = rng.randint(1, min(max_scope, n))
        scope = tuple(rng.sample(range(n), k))
        table = tuple(rng.uniform(0.0, 2.0) for _ in range(1 << k))
        factors.append(Factor(scope, table))
    return FactorGraph("MARKOV", n, tuple(factors))


# ---------------------------------------------------------------- parsing

def test_parse_unary():
    fg = parse_uai(UNARY)
    assert fg.kind == "MARKOV"
    assert fg.num_vars == 1
    assert fg.factors == (Factor((0,), (0.3, 0.7)),)


def test_parse_pairwise_indexing():
    text = "MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 2 3 4\n"
    fg = parse_uai(text)
    f = fg.factors[0]
    # last scope variable fastest, True entry first
    assert f.value({0: True, 1: True}) == 1
    assert f.value({0: True, 1: False}) == 2
    assert f.value({0: False, 1: True}) == 3
    assert f.value({0: False, 1: False}) == 4


def test_parse_rejects_non_binary():
    with pytest.raises(UaiFormatError):
        parse_uai("MARKOV\n2\n2 3\n1\n1 0\n2\n0.5 0.5\n")


def test_parse_rejects_bad_counts():
    with pytest.raises(UaiFormatError):
        parse_uai("MARKOV\n1\n2\n1\n1 0\n3\n0.1 0.2 0.3\n")
    with pytest.raises(UaiFormatError):
        parse_uai("MARKOV\n1\n2\n1\n1 0\n2\n0.1\n")


def test_parse_rejects_negative_entries():
    with pytest.raises(UaiFormatError):
        parse_uai("MARKOV\n1\n2\n1\n1 0\n2\n-0.1 0.7\n")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("MARKOV\n1\n", "unexpected end of input, expected cardinality of variable 0", id="end"),
        pytest.param("MARKOV\nx\n", "expected integer variable count, got 'x'", id="non-integer"),
        pytest.param(
            "MARKOV\n1\n2\n1\n1 0\n2\n0.5 abc\n", "expected number table entry of factor 0, got 'abc'", id="bad-number"
        ),
        pytest.param("GRID\n1\n2\n1\n1 0\n2\n0.5 0.5\n", "unknown network kind 'GRID'", id="kind"),
        pytest.param("MARKOV\n0\n0\n", "variable count must be positive", id="no-variables"),
        pytest.param("MARKOV\n1\n2\n1\n0\n1\n1.0\n", "factor 0: empty scope", id="empty-scope"),
        pytest.param(
            "MARKOV\n2\n2 2\n1\n2 0 0\n4\n0.1 0.2 0.3 0.4\n", "factor 0: repeated variable in scope", id="repeated-var"
        ),
        pytest.param("MARKOV\n1\n2\n1\n1 1\n2\n0.5 0.5\n", "factor 0: variable 1 out of range", id="var-range"),
        pytest.param(
            "MARKOV\n1\n2\n1\n1 0\n2\n0.5 0.5\n7\n", "trailing tokens after factor tables: '7'", id="trailing"
        ),
        pytest.param(
            "MARKOV\n2\n2 3\n", "variable 1 has cardinality 3; only binary supported", id="cardinality"
        ),
        pytest.param(
            "MARKOV\n1\n2\n1\n1 0\n3\n0.1 0.2 0.3\n",
            "factor 0: table size 3 does not match scope of 1 vars",
            id="table-size",
        ),
        pytest.param(
            "MARKOV\n1\n2\n1\n1 0\n2\n0.5 -1\n", "factor 0: negative or non-finite table entry -1.0", id="negative"
        ),
        pytest.param(
            "MARKOV\n1\n2\n2\n1 0\n1 0\n2\n0.5 0.5\n2\n1e400 1\n",
            "factor 1: negative or non-finite table entry inf",
            id="overflow",
        ),
    ],
)
def test_parse_uai_rejects_malformed(text, message):
    with pytest.raises(UaiFormatError) as err:
        parse_uai(text)
    assert str(err.value) == message


GOOD = Factor((0, 1), (0.1, 0.2, 0.3, 0.4))


@pytest.mark.parametrize(
    "kind, num_vars, factor, message",
    [
        pytest.param("markov", 2, GOOD, "unknown network kind 'markov'", id="lowercase-kind"),
        pytest.param("MARKOV", 0, None, "variable count must be positive", id="no-variables"),
        pytest.param("MARKOV", 2.0, GOOD, "variable count 2.0 is not an integer", id="float-count"),
        pytest.param("MARKOV", True, None, "variable count True is not an integer", id="bool-count"),
        pytest.param("MARKOV", 2, Factor((), (1.0,)), "factor 1: empty scope", id="empty-scope"),
        pytest.param("MARKOV", 2, Factor((0, 5), (1.0,) * 4), "factor 1: variable 5 out of range", id="var-range"),
        pytest.param("MARKOV", 2, Factor((-1,), (1.0,) * 2), "factor 1: variable -1 out of range", id="negative-var"),
        pytest.param("MARKOV", 2, Factor((0, 0), (1.0,) * 4), "factor 1: repeated variable in scope", id="repeated-var"),
        pytest.param("MARKOV", 2, Factor((True,), (1.0,) * 2), "factor 1: variable True is not an integer", id="bool-var"),
        pytest.param("MARKOV", 2, Factor((1.0,), (1.0,) * 2), "factor 1: variable 1.0 is not an integer", id="float-var"),
        pytest.param(
            "MARKOV", 2, Factor((0, 1), (1.0,) * 3), "factor 1: table size 3 does not match scope of 2 vars",
            id="short-table",
        ),
        pytest.param(
            "MARKOV", 2, Factor((0,), (1.0, -0.5)), "factor 1: negative or non-finite table entry -0.5", id="negative"
        ),
        pytest.param(
            "MARKOV", 2, Factor((0,), (math.nan, 1.0)), "factor 1: negative or non-finite table entry nan", id="nan"
        ),
        pytest.param(
            "MARKOV", 2, Factor((0,), (1.0, math.inf)), "factor 1: negative or non-finite table entry inf", id="inf"
        ),
    ],
)
def test_factor_graph_rejects_malformed(kind, num_vars, factor, message):
    # built through the API, each fault is a ValueError, never a KeyError
    # or IndexError from a later query; the second factor is the bad one
    factors = () if factor is None else (GOOD, factor)
    with pytest.raises(ValueError) as err:
        FactorGraph(kind, num_vars, factors)
    assert str(err.value) == message


def test_parse_bayes_kind_retained():
    fg = parse_uai("BAYES\n1\n2\n1\n1 0\n2\n0.4 0.6\n")
    assert fg.kind == "BAYES"


def test_write_roundtrip():
    for seed in range(10):
        fg = random_factor_graph(seed, 4, 3)
        assert parse_uai(write_uai(fg)) == fg


def test_write_uai_golden():
    fg = parse_uai("bayes 2 2 2 2 1 0 2 0 1 2 0.3 0.7 4 1 2 .5 0.25")
    assert write_uai(fg) == "BAYES\n2\n2 2\n2\n1 0\n2 0 1\n2\n0.3 0.7\n4\n1.0 2.0 0.5 0.25\n"


# ------------------------------------------------------------ enumeration

def test_enumerate_unary():
    fg = parse_uai(UNARY)
    assert enumerate_marginal(fg, {}) == pytest.approx(1.0)
    assert enumerate_marginal(fg, {0: True}) == pytest.approx(0.3)


def test_enumerate_independent_unaries():
    fg = FactorGraph("MARKOV", 2, (Factor((0,), (0.3, 0.7)), Factor((1,), (0.5, 0.5))))
    assert enumerate_marginal(fg, {0: True}) == pytest.approx(0.3)


def test_enumerate_cap():
    fg = random_factor_graph(0, 25, 2)
    with pytest.raises(ValueError):
        enumerate_marginal(fg, {})


# ------------------------------------------------------------ compilation

def test_compile_unary():
    fg = parse_uai(UNARY)
    c = compile_factor_graph(fg)
    assert validate(c).ok
    assert partition(c) == pytest.approx(1.0)
    assert evaluate_joint(c, {0: True}) == pytest.approx(0.3)
    assert evaluate_joint(c, {0: False}) == pytest.approx(0.7)


def test_compile_chain_joints_match_factor_product():
    rng = random.Random(11)
    factors = []
    for a, b in ((0, 1), (1, 2)):
        factors.append(Factor((a, b), tuple(rng.uniform(0.1, 2.0) for _ in range(4))))
    fg = FactorGraph("MARKOV", 3, tuple(factors))
    c = compile_factor_graph(fg)
    for _ in range(100):
        values = {v: rng.random() < 0.5 for v in range(3)}
        expected = 1.0
        for f in fg.factors:
            expected *= f.value(values)
        assert rel_close(evaluate_joint(c, values), expected, rel=1e-12)


def test_compile_all_single_var_marginals():
    for seed in range(10):
        fg = random_factor_graph(seed + 20, 5, 4)
        c = compile_factor_graph(fg)
        for v in range(fg.num_vars):
            for val in (True, False):
                assert rel_close(
                    marginal(c, {v: val}), enumerate_marginal(fg, {v: val}), rel=1e-9
                )


def test_compile_preserves_all_joints_and_marginals():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(1, 12 if seed % 3 == 0 else 7)
        fg = random_factor_graph(seed + 60, n, rng.randint(1, n + 2))
        c = compile_factor_graph(fg)
        assert validate(c).ok
        for bits in product((False, True), repeat=min(n, 6)):
            values = dict(enumerate(bits))
            assert rel_close(
                marginal(c, values), enumerate_marginal(fg, values), rel=1e-9
            )
        assert rel_close(partition(c), enumerate_marginal(fg, {}), rel=1e-9)


def test_compile_respects_order():
    fg = random_factor_graph(5, 4, 3)
    c1 = compile_factor_graph(fg, order=(3, 1, 0, 2))
    assert validate(c1).ok
    assert rel_close(partition(c1), enumerate_marginal(fg, {}), rel=1e-9)
    # a float or bool entry equals an int, so sorting alone would take it
    for order in ((0, 1), (3, 1, 0, 2.0), (3, True, 0, 2), (3, 1, 0, "2")):
        with pytest.raises(ValueError, match="^order must be a permutation of all variables$"):
            compile_factor_graph(fg, order=order)


def test_compile_rows_match_reference():
    # 60 graphs of 1-12 variables with unary to 3-variable factors, some
    # variables in no factor, in ascending and in random orders
    scope_sizes, unused = set(), 0
    for seed in range(60):
        rng = random.Random(seed + 500)
        n = rng.randint(1, 12)
        fg = random_factor_graph(seed + 500, n, rng.randint(0, n), max_scope=rng.randint(1, 3))
        order = None if seed % 4 == 0 else rng.sample(range(n), n)
        assert compile_factor_graph(fg, order).nodes == reference_compile(fg, order), seed
        scope_sizes.update(len(f.scope) for f in fg.factors)
        unused += len(set(range(n)) - {v for f in fg.factors for v in f.scope})
    assert scope_sizes == {1, 2, 3} and unused > 0


# sha256 of the rows of the first three BNs that supply-sweep's generator
# draws at seed 0 (18 variables, at most 2 parents, edge fraction 0.3). The
# benchmark ships these circuits as PC files, so a change to the rows
# changes its inputs.
SUPPLY_BN_DIGESTS = {
    801774104: "1759102b6d7c72d9faff3effe0e0743e487b2e500fc0ea050e08fb2b654008cc",
    496177709: "a5e0ecf124fc2035e5300184bce8b525a894c2bcab17dcc960c213bfcb5915e1",
    172089777: "b07b0a659ee299164e804d0a8470bcddf6528510cbb50f19e822947555a714c2",
}


@pytest.mark.parametrize("seed", sorted(SUPPLY_BN_DIGESTS))
def test_compile_pins_supply_sweep_circuits(seed):
    fg = gen_random_bn(18, max_parents=2, edge_fraction=0.3, seed=seed)
    text = write_pc(compile_factor_graph(fg))
    assert hashlib.sha256(text.encode()).hexdigest() == SUPPLY_BN_DIGESTS[seed]


def test_compile_leaves_no_cyclic_garbage():
    fg = gen_random_bn(10, max_parents=2, seed=10)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        compile_factor_graph(fg)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_compile_cap():
    fg = random_factor_graph(1, 21, 3)
    with pytest.raises(ValueError):
        compile_factor_graph(fg)
