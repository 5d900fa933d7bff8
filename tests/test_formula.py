import random

import pytest

from smcsat.formula import CnfFormula, DimacsError, parse_dimacs, write_dimacs
from util import random_cnf


def test_parse_smallest():
    f = parse_dimacs("p cnf 1 1\n1 0")
    assert f.num_vars == 1
    assert f.clauses == ((1,),)


def test_parse_two_clauses():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))


def test_parse_literal_out_of_range():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 3 0")


def test_parse_comments_and_crlf():
    f = parse_dimacs("c hello\r\np cnf 2 1\r\nc mid\r\n1 2 0\r\n")
    assert f.clauses == ((1, 2),)


def test_parse_multiline_and_multi_clause_per_line():
    f = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1 0")
    assert f.clauses == ((1, 2, 3), (-1,))


def test_parse_malformed_header():
    with pytest.raises(DimacsError):
        parse_dimacs("p dnf 2 1\n1 0")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2\n1 0")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate header line", id="duplicate-header"),
        pytest.param("p cnf x 1\n1 0\n", "malformed header: 'p cnf x 1'", id="non-integer-count"),
        pytest.param("p cnf 1 -1\n", "malformed header: 'p cnf 1 -1'", id="negative-count"),
        pytest.param("1 0\np cnf 1 1\n", "clause before header", id="clause-first"),
        pytest.param("c no header\n", "missing header", id="no-header"),
        pytest.param("p cnf 2 1\n1 -1 9 0\n", "literal 9 out of range for 2 vars", id="tautology-out-of-range"),
    ],
)
def test_parse_dimacs_rejects_malformed(text, message):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert str(err.value) == message


def test_parse_clause_count_mismatch():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 0")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 0 2 0")


def test_parse_unterminated_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2")


def test_parse_drops_tautology_and_duplicates():
    f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 2 0")
    assert f.clauses == ((2,),)


def test_api_formula_rejects_out_of_range_literal_in_tautology():
    with pytest.raises(ValueError) as err:
        CnfFormula(2, ((1, -1, 9),))
    assert str(err.value) == "literal 9 out of range for 2 vars"


@pytest.mark.parametrize("num_vars", [-2, 2.0, True, "2"], ids=["negative", "float", "bool", "str"])
def test_api_formula_rejects_bad_num_vars(num_vars):
    # with -2 variables the solver would stop on an assertion in decide
    with pytest.raises(ValueError) as err:
        CnfFormula(num_vars, ())
    assert str(err.value) == f"number of variables {num_vars!r} is not a nonnegative integer"


@pytest.mark.parametrize(
    "clauses, bad",
    [
        pytest.param(((1.0, 2), (-2,)), "1.0", id="float"),
        pytest.param(((True,),), "True", id="bool"),
        pytest.param(((1, 1.0),), "1.0", id="float-merged-into-int"),
    ],
)
def test_api_formula_rejects_non_integer_literal(clauses, bad):
    # the solver would fail on a float literal and take True for the literal 1
    with pytest.raises(ValueError) as err:
        CnfFormula(2, clauses)
    assert str(err.value) == f"literal {bad} is not an integer"


def test_api_formula_is_cleaned():
    f = CnfFormula(3, ((1, 1, 2), (2, -2), (), (-3,)))
    assert f.clauses == ((1, 2), (), (-3,))
    assert parse_dimacs(write_dimacs(f)) == f


def _reference_clauses(clauses):
    """Each clause's literals deduplicated through a set, first occurrence
    kept in order; a clause that holds some literal and its negation is
    dropped."""
    out = []
    for clause in clauses:
        lits = set(clause)
        if any(-lit in lits for lit in lits):
            continue
        seen: set[int] = set()
        kept = []
        for lit in clause:
            if lit not in seen:
                seen.add(lit)
                kept.append(lit)
        out.append(tuple(kept))
    return tuple(out)


def test_api_formulas_with_duplicates_tautologies_and_empty_clauses():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        raw = [
            [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(0, 12))
        ]
        f = CnfFormula(n, tuple(raw))
        assert f.clauses == _reference_clauses(raw), f"seed {seed}"
        assert all(type(clause) is tuple for clause in f.clauses)
        assert parse_dimacs(write_dimacs(f)) == f, f"seed {seed}"


def test_parse_empty_clause_is_falsified_formula():
    f = parse_dimacs("p cnf 1 1\n0")
    assert f.clauses == ((),)


def test_write_examples():
    assert write_dimacs(CnfFormula(1, ((1,),))) == "p cnf 1 1\n1 0\n"
    assert write_dimacs(CnfFormula(3, ())) == "p cnf 3 0\n"


def test_roundtrip_random_formulas():
    for seed in range(50):
        rng = random.Random(seed)
        f = random_cnf(seed, rng.randint(1, 12), rng.randint(0, 20))
        # generator may produce duplicate-free clauses already; parse normalizes
        f = parse_dimacs(write_dimacs(f))
        assert parse_dimacs(write_dimacs(f)) == f
