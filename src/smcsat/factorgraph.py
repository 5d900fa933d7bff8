"""Discrete factor graphs: UAI parsing, enumeration, circuit compilation.

Only binary variables are supported. Factor tables follow the convention
that the *last* scope variable varies fastest and, for each variable, the
True entry comes before the False entry (index bit 0 = True, 1 = False).

``compile_factor_graph`` is a deliberately naive Shannon-expansion compiler
producing smooth, decomposable circuits; it is meant for small models, with
externally compiled circuits supplied in PC format for anything larger.
It keeps the decided values in one list indexed by variable, set along the
depth-first walk, memoizes sub-circuits on an ``int`` that packs the values
still relevant, and emits leaf rows that were built once per step: the two
indicators and, per completing factor, one constant row per table entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .circuit import Circuit


# The most variables `enumerate_marginal` sums over and `compile_factor_graph`
# expands: both take time exponential in them.
_ENUMERATE_CAP = 24
_COMPILE_CAP = 20


class UaiFormatError(ValueError):
    """Raised on malformed or unsupported UAI input."""


@dataclass(frozen=True)
class Factor:
    scope: tuple[int, ...]
    table: tuple[float, ...]

    def value(self, assignment: dict[int, bool]) -> float:
        idx = 0
        for var in self.scope:
            idx = (idx << 1) | (0 if assignment[var] else 1)
        return self.table[idx]


@dataclass(frozen=True)
class FactorGraph:
    kind: str  # MARKOV or BAYES; metadata only, both are factor products
    num_vars: int
    factors: tuple[Factor, ...]


def parse_uai(text: str) -> FactorGraph:
    """Parse the UAI file format restricted to binary variables."""
    tokens = text.split()
    pos = 0

    def next_token(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise UaiFormatError(f"unexpected end of input, expected {what}")
        tok = tokens[pos]
        pos += 1
        return tok

    def next_int(what: str) -> int:
        tok = next_token(what)
        try:
            return int(tok)
        except ValueError as exc:
            raise UaiFormatError(f"expected integer {what}, got {tok!r}") from exc

    def next_float(what: str) -> float:
        tok = next_token(what)
        try:
            val = float(tok)
        except ValueError as exc:
            raise UaiFormatError(f"expected number {what}, got {tok!r}") from exc
        if not math.isfinite(val) or val < 0.0:
            raise UaiFormatError(f"negative or non-finite table entry {tok}")
        return val

    kind = next_token("network kind").upper()
    if kind not in ("MARKOV", "BAYES"):
        raise UaiFormatError(f"unknown network kind {kind!r}")
    num_vars = next_int("variable count")
    if num_vars < 1:
        raise UaiFormatError("variable count must be positive")
    for i in range(num_vars):
        card = next_int(f"cardinality of variable {i}")
        if card != 2:
            raise UaiFormatError(f"variable {i} has cardinality {card}; only binary supported")
    num_factors = next_int("factor count")
    scopes: list[tuple[int, ...]] = []
    for f in range(num_factors):
        k = next_int(f"scope size of factor {f}")
        if k < 1:
            raise UaiFormatError(f"factor {f}: empty scope")
        scope = tuple(next_int(f"scope var of factor {f}") for _ in range(k))
        if len(set(scope)) != len(scope):
            raise UaiFormatError(f"factor {f}: repeated variable in scope")
        for var in scope:
            if var < 0 or var >= num_vars:
                raise UaiFormatError(f"factor {f}: variable {var} out of range")
        scopes.append(scope)
    factors: list[Factor] = []
    for f, scope in enumerate(scopes):
        count = next_int(f"table size of factor {f}")
        if count != 1 << len(scope):
            raise UaiFormatError(
                f"factor {f}: table size {count} does not match scope of {len(scope)} vars"
            )
        table = tuple(next_float(f"table entry of factor {f}") for _ in range(count))
        factors.append(Factor(scope, table))
    if pos != len(tokens):
        raise UaiFormatError(f"trailing tokens after factor tables: {tokens[pos]!r}")
    return FactorGraph(kind, num_vars, tuple(factors))


def write_uai(fg: FactorGraph) -> str:
    """Serialize a factor graph; round-trips through parse_uai."""
    lines = [fg.kind, str(fg.num_vars), " ".join(["2"] * fg.num_vars)]
    lines.append(str(len(fg.factors)))
    for factor in fg.factors:
        lines.append(" ".join(str(x) for x in (len(factor.scope),) + factor.scope))
    for factor in fg.factors:
        lines.append(str(len(factor.table)))
        lines.append(" ".join(repr(v) for v in factor.table))
    return "\n".join(lines) + "\n"


def enumerate_marginal(
    fg: FactorGraph,
    assignment: dict[int, bool] | None = None,
) -> float:
    """Sum of the factor product over all completions of `assignment`."""
    assignment = assignment or {}
    free = [v for v in range(fg.num_vars) if v not in assignment]
    if len(free) > _ENUMERATE_CAP:
        raise ValueError(f"{len(free)} free variables exceed enumeration cap {_ENUMERATE_CAP}")
    total = 0.0
    values = dict(assignment)
    for mask in range(1 << len(free)):
        for bit, var in enumerate(free):
            values[var] = bool((mask >> bit) & 1)
        prod = 1.0
        for factor in fg.factors:
            prod *= factor.value(values)
            if prod == 0.0:
                break
        total += prod
    return total


def compile_factor_graph(
    fg: FactorGraph,
    order: Sequence[int] | None = None,
) -> Circuit:
    """Compile a factor graph into a smooth, decomposable circuit.

    Shannon expansion along `order` (default: ascending variable index):
    each variable becomes a weight-1 binary sum whose branches multiply an
    indicator for the decided value, constants for factors completed at
    this step, and the sub-circuit over the remaining variables. Equal
    sub-problems are shared by memoizing on the decided prefix projected
    onto the variables still referenced by pending factors.

    Everything that does not depend on the decided values is built here,
    once per step: its two indicator rows, each completing factor's
    constant rows (one per table entry, so a table index picks the row) and
    the sorted variables the memo key packs (see ``_expand``).
    """
    if fg.num_vars > _COMPILE_CAP:
        raise ValueError(f"{fg.num_vars} variables exceed compile cap {_COMPILE_CAP}")
    if order is None:
        order = tuple(range(fg.num_vars))
    else:
        order = tuple(order)
        if sorted(order) != list(range(fg.num_vars)):
            raise ValueError("order must be a permutation of all variables")

    position = {var: i for i, var in enumerate(order)}
    # Factor completes at the step its latest-ordered scope variable is decided.
    completes_at: dict[int, list[Factor]] = {}
    for factor in fg.factors:
        completes_at.setdefault(max(position[v] for v in factor.scope), []).append(factor)
    # Step d decides order[d], completes its factors, and keeps the decided
    # variables that some factor completing at a later step mentions.
    steps: list[_Step] = []
    for depth, var in enumerate(order):
        keep: set[int] = set()
        for step, facs in completes_at.items():
            if step > depth:
                for factor in facs:
                    keep.update(v for v in factor.scope if position[v] <= depth)
        completing = tuple(
            (factor.scope, tuple((-1, w, 0.0) for w in factor.table))
            for factor in completes_at.get(depth, ())
        )
        steps.append((var, ((var, 1.0, 0.0), (var, 0.0, 1.0)), completing, tuple(sorted(keep))))
    nodes: list[tuple] = []
    root = _expand(steps, 0, [0] * fg.num_vars, nodes, [{} for _ in steps])
    assert root == len(nodes) - 1
    return Circuit(fg.num_vars, nodes)


# One expansion step: the variable it decides, its indicator rows for True
# and for False, the factors it completes as ``(scope, constant row per
# table index)`` and the sorted variables it keeps.
_Step = tuple[int, tuple[tuple, tuple], tuple, tuple[int, ...]]


def _expand(
    steps: list[_Step],
    depth: int,
    bits: list[int],
    nodes: list[tuple],
    memo: list[dict[int, int]],
) -> int:
    """Append the circuit rows of `steps[depth:]` to `nodes` and return the
    id of their root. `bits` holds, per variable, the value decided on the
    current path as a table-index bit (0 for True, 1 for False), so a
    completing factor's table index is its scope's bits. The rows go out as
    the True branch's indicator, its constants in completing order, its
    sub-circuit and its product, then the same for False, then the sum.
    `memo[d]` maps the values of the variables step ``d - 1`` keeps, packed
    as bits in ascending variable order, to the id of the sub-circuit
    emitted for them. A module-level function, because a nested one that
    calls itself refers to itself through its closure and leaves each
    compile as cyclic garbage."""
    var, indicators, completing, keep = steps[depth]
    deeper = depth + 1 < len(steps)
    branches = []
    for bit in (0, 1):
        bits[var] = bit
        first = len(nodes)
        nodes.append(indicators[bit])
        for scope, rows in completing:
            idx = 0
            for v in scope:
                idx = idx << 1 | bits[v]
            nodes.append(rows[idx])
        children = tuple(range(first, len(nodes)))
        if deeper:
            key = 0
            for v in keep:
                key = key << 1 | bits[v]
            sub_memo = memo[depth + 1]
            sub = sub_memo.get(key)
            if sub is None:
                sub = sub_memo[key] = _expand(steps, depth + 1, bits, nodes, memo)
            children += (sub,)
        nodes.append((children, None))
        branches.append(len(nodes) - 1)
    nodes.append((tuple(branches), (1.0, 1.0)))
    return len(nodes) - 1
