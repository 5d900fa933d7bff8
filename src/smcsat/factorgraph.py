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
    """A product of factors over binary variables 0..num_vars-1.

    Every graph, parsed or built through the API, passes one gate: `kind`
    is ``MARKOV`` or ``BAYES`` (metadata only, both are factor products),
    `num_vars` is an ``int`` of at least 1, and each factor's scope holds
    one or more distinct ``int`` variables in range, and its table
    ``2 ** len(scope)`` finite, nonnegative entries.
    """

    kind: str
    num_vars: int
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("MARKOV", "BAYES"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        n = self.num_vars
        if type(n) is not int:
            raise ValueError(f"variable count {n!r} is not an integer")
        if n < 1:
            raise ValueError("variable count must be positive")
        for f, factor in enumerate(self.factors):
            scope, table = factor.scope, factor.table
            if not scope:
                raise ValueError(f"factor {f}: empty scope")
            for var in scope:
                if type(var) is not int:
                    raise ValueError(f"factor {f}: variable {var!r} is not an integer")
                if not 0 <= var < n:
                    raise ValueError(f"factor {f}: variable {var} out of range")
            if len(set(scope)) != len(scope):
                raise ValueError(f"factor {f}: repeated variable in scope")
            if len(table) != 1 << len(scope):
                raise ValueError(
                    f"factor {f}: table size {len(table)} does not match scope of {len(scope)} vars"
                )
            for w in table:
                if not 0.0 <= w < math.inf:  # false for NaN too
                    raise ValueError(f"factor {f}: negative or non-finite table entry {w!r}")


def parse_uai(text: str) -> FactorGraph:
    """Parse the UAI file format restricted to binary variables.

    The reader checks only the token stream: it ends where the counts say,
    every count and variable is an integer, every table entry a number and
    every cardinality 2. `FactorGraph` checks the rest, and its
    ``ValueError`` is re-raised as ``UaiFormatError``.
    """
    tokens = text.split()
    pos = 0

    def take(count: int, convert, what: str, f: int = 0) -> list:
        """The next `count` tokens through `convert`. `what` names one of
        them, with ``{i}`` its index among them and ``{f}`` the factor `f`;
        it is formatted only for the error it goes into."""
        nonlocal pos
        chunk = tokens[pos : pos + max(count, 0)]
        values = []
        try:
            for tok in chunk:
                values.append(convert(tok))
        except ValueError:
            i = len(values)
            noun = "integer" if convert is int else "number"
            raise UaiFormatError(f"expected {noun} {what.format(i=i, f=f)}, got {chunk[i]!r}") from None
        if len(chunk) < count:
            raise UaiFormatError(f"unexpected end of input, expected {what.format(i=len(chunk), f=f)}")
        pos += len(chunk)
        return values

    [kind] = take(1, str.upper, "network kind")
    [num_vars] = take(1, int, "variable count")
    for i, card in enumerate(take(num_vars, int, "cardinality of variable {i}")):
        if card != 2:
            raise UaiFormatError(f"variable {i} has cardinality {card}; only binary supported")
    [num_factors] = take(1, int, "factor count")
    scopes = []
    for f in range(num_factors):
        [size] = take(1, int, "scope size of factor {f}", f)
        scopes.append(tuple(take(size, int, "scope var of factor {f}", f)))
    factors = []
    for f, scope in enumerate(scopes):
        [size] = take(1, int, "table size of factor {f}", f)
        factors.append(Factor(scope, tuple(take(size, float, "table entry of factor {f}", f))))
    if pos != len(tokens):
        raise UaiFormatError(f"trailing tokens after factor tables: {tokens[pos]!r}")
    try:
        return FactorGraph(kind, num_vars, tuple(factors))
    except ValueError as exc:
        raise UaiFormatError(str(exc)) from exc


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
        # `any` first: a float or bool entry sorts like the int it equals
        if any(type(v) is not int for v in order) or sorted(order) != list(range(fg.num_vars)):
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
