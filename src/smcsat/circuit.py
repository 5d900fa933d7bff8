"""Probabilistic circuits: file format, validation, inference, bound tracking.

A circuit is a DAG of leaf, product and sum nodes in topological order
(children precede parents, root is the last node). Smoothness (sum children
share a scope) and decomposability (product children have disjoint scopes)
make marginal queries a single bottom-up pass. Circuits may be unnormalized;
the total mass plays the role of the partition function.

A circuit is stored once, as one row per node with weights in linear value
space:

- a leaf is ``(var, w_true, w_false)``. An indicator is ``(var, 1.0, 0.0)``
  or ``(var, 0.0, 1.0)``, and a constant ``v`` is ``(-1, v, 0.0)``. An
  unassigned leaf contributes its summed-out mass, the sum of its weights;
- a product is ``(children, None)`` and a sum ``(children, weights)``.

The constructor checks the rows in one pass, which also computes each
node's scope as an ``int`` bitmask (``Circuit.scopes``, bit ``v`` set for
variable ``v``), the ascending ids of the leaves, of each variable's leaves
and of the inner nodes (``Circuit.leaves``, ``Circuit.var_leaves``,
``Circuit.inner``) and the smoothness and decomposability verdict that
``validate`` returns. The rows a kernel reads are built by ``_rows`` on
first use and cached on the circuit per numeric mode and set of shared
variables: log mode maps every weight through ``math.log`` (zero to
``-inf``), and a decision sum (below) of a shared variable becomes a
``(None, branches)`` row. The same dict (``Circuit._memo``) keeps
``partition`` per mode and, per batch of variables, the inner nodes that
the batch recomputes. One function, ``_fold``, computes every node's
bounds from scratch: it sets each leaf from a status (an assigned
variable's weight for its value, a free shared variable's larger and
smaller weight, any other leaf its summed-out mass) and runs the mode's
bound-update kernel (below) once over the inner nodes. ``marginal``,
``partition`` and every fresh ``BoundState`` are a fold; without shared
variables one list serves as both the upper and the lower bounds.

``BoundState`` maintains, per node, an upper and lower bound on the marginal
mass under a partial assignment of the shared (decision) variables. Its work
is done by one update kernel per mode, which walks a list of inner-node ids
in ascending order, reads each node's row in the mode's value space and
computes its upper and lower bound together; a product of 3 children and a
sum of 2, the commonest shapes in compiled circuits, are written out with
the loop's operations in the loop's order, so they give its floats. An
assignment is a batch, the shared variables that one propagation round
fixed: it sets their leaves and runs the kernel once over the inner nodes
whose scope meets the batch, so each node is recomputed once, from its
children's final bounds. Every node visited is written, even when its new
value compares equal to the old, so the nodes a batch writes are known
before it runs: their old floats are its trail frame, which backtracking
restores by decision level. So at every step the bounds equal a fresh fold
of the state's status, bit for bit, signed zeros included.

Most nodes get interval bounds: a product multiplies its children's bounds
and a sum adds them. A *decision sum* is tighter. It has two product
children, one holding the indicator ``(v, 1.0, 0.0)`` and the other
``(v, 0.0, 1.0)`` of one variable ``v``; every sum that
``compile_factor_graph`` emits has this shape. When ``v`` is shared, every
completion of the free shared variables sets ``v`` and so zeroes one
branch: the sum's mass is one weighted branch, never both. So its ub is
the largest weighted branch ub, and its lb the smallest, over the branches
whose indicator can still be 1, of the weight times the product of the
branch's other children's lbs (a free indicator's lb is 0, which would
zero the product). Both hold for every assignment order and are at least
as tight as the interval sum; this is the MAP upper bound of Huang, Chavira
and Darwiche (AAAI 2006) applied to bound tracking. When ``v`` is latent
its mass is the sum of both branches, so the sum keeps the interval rule.
With the shared variables compiled first, these bounds are the exact max
and min over the free shared variables (Oztok, Choi and Darwiche, KR 2016).
Once ``v`` is assigned, the other branch's indicator is 0.0 (``-inf`` in log
mode) and its own 1.0 (0.0), so for finite masses the rule and the interval
sum give the same float. A NaN weighted branch ub (in linear mode, an
overflow times a zero indicator) makes the decision sum NaN, as it makes
the interval sum. A fully assigned ``BoundState`` sets the same leaves as
``marginal``, so it then reproduces ``marginal`` bit for bit, NaN included.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

CircuitVar = int


class PcFormatError(ValueError):
    """Raised on malformed circuit files."""


class CircuitStructureError(ValueError):
    """Raised when an operation requires smoothness/decomposability and it fails."""


_Add = Callable[[float, float], float]
# The weights of the two indicator leaves of a variable.
_INDICATOR_WEIGHTS = ((1.0, 0.0), (0.0, 1.0))
# The most batch masks per circuit whose recomputed inner ids are memoized;
# seed-0 benchmark circuits use at most 14.
_IDS_MEMO_CAP = 64


class NumericMode(enum.Enum):
    LINEAR = "linear"
    LOG = "log"


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log_weight(w: float) -> float:
    return math.log(w) if w > 0.0 else -math.inf


def _update_linear(ids: list[int], rows: Sequence[tuple], ub: list[float], lb: list[float]) -> None:
    """Recompute the bounds of each inner node of `ids` in order from its
    row, over `ub` and over `lb` (``marginal`` passes one list as both): a
    product is the product of its children, and a sum the sum of each
    weight times its child, folded left to right from 1.0 and 0.0. A product
    of 3 children and a sum of 2 are written out as the fold's own
    operations in its own order, so they give the loop's floats. Every
    node is written, whether or not its value compares equal, so a zero
    takes the sign the kernel computes. The row of a decision sum of a
    shared variable is ``(None, branches)`` (see ``BoundState``): its ub
    is the largest weighted branch ub, its lb the smallest weighted
    product of the non-indicator lbs of a branch whose indicator ub is not
    0, and both are NaN when a weighted branch ub is."""
    inf, nan = math.inf, math.nan
    for nid in ids:
        children, weights = rows[nid]
        if weights is None:
            if len(children) == 3:
                x, y, z = children
                u = 1.0 * ub[x] * ub[y] * ub[z]
                l = 1.0 * lb[x] * lb[y] * lb[z]
            else:
                u = l = 1.0
                for child in children:
                    u *= ub[child]
                    l *= lb[child]
        elif children is not None:
            if len(children) == 2:
                x, y = children
                wx, wy = weights
                u = 0.0 + wx * ub[x] + wy * ub[y]
                l = 0.0 + wx * lb[x] + wy * lb[y]
            else:
                u = l = 0.0
                for w, child in zip(weights, children):
                    u += w * ub[child]
                    l += w * lb[child]
        else:
            # A decision sum of a shared variable: `weights` holds its
            # branches, ``(weight, product, indicator, other children)``.
            # As in the interval sum, the weight multiplies last and the lb
            # adds to 0.0, so both give the same float once one branch is
            # left, signed zeros included. A NaN weighted branch ub (an
            # overflow times a zero) makes the node NaN, as it makes the
            # interval sum NaN.
            u, l = 0.0, inf
            for w, prod, ind, rest in weights:
                x = w * ub[prod]
                if x > u:
                    u = x
                elif x != x:
                    u = l = nan
                    break
                if ub[ind] > 0.0:
                    x = 1.0
                    for child in rest:
                        x *= lb[child]
                    x = 0.0 + w * x
                    if x < l:
                        l = x
        ub[nid] = u
        lb[nid] = l


def _update_log(ids: list[int], rows: Sequence[tuple], ub: list[float], lb: list[float]) -> None:
    """``_update_linear`` in log space: a product is the sum of its
    children, folded from 0.0, and a sum the log-sum-exp of each weight
    plus its child, folded from ``-inf`` with ``_log_add`` inlined, its
    branches unchanged. The same two shapes are written out. A decision
    sum's branch max and min add where linear mode multiplies."""
    inf, neg_inf, log1p, exp = math.inf, -math.inf, math.log1p, math.exp
    for nid in ids:
        children, weights = rows[nid]
        if weights is None:
            if len(children) == 3:
                x, y, z = children
                u = 0.0 + ub[x] + ub[y] + ub[z]
                l = 0.0 + lb[x] + lb[y] + lb[z]
            else:
                u = l = 0.0
                for child in children:
                    u += ub[child]
                    l += lb[child]
        elif children is not None:
            if len(children) == 2:
                # The fold's first step takes its first term as it is.
                x, y = children
                wx, wy = weights
                u = wx + ub[x]
                v = wy + ub[y]
                if u == neg_inf:
                    u = v
                elif v != neg_inf:
                    u = u + log1p(exp(v - u)) if u >= v else v + log1p(exp(u - v))
                l = wx + lb[x]
                v = wy + lb[y]
                if l == neg_inf:
                    l = v
                elif v != neg_inf:
                    l = l + log1p(exp(v - l)) if l >= v else v + log1p(exp(l - v))
            else:
                u = l = neg_inf
                for w, child in zip(weights, children):
                    x = w + ub[child]
                    if u == neg_inf:
                        u = x
                    elif x != neg_inf:
                        u = u + log1p(exp(x - u)) if u >= x else x + log1p(exp(u - x))
                    x = w + lb[child]
                    if l == neg_inf:
                        l = x
                    elif x != neg_inf:
                        l = l + log1p(exp(x - l)) if l >= x else x + log1p(exp(l - x))
        else:
            u, l = neg_inf, inf
            for w, prod, ind, rest in weights:
                x = w + ub[prod]
                if x > u:
                    u = x
                if ub[ind] != neg_inf:
                    x = 0.0
                    for child in rest:
                        x += lb[child]
                    x = w + x
                    if x < l:
                        l = x
        ub[nid] = u
        lb[nid] = l


# Per mode: how a leaf's weights sum out, and the fused bound-update kernel.
_OPS: dict[NumericMode, tuple[_Add, Callable]] = {
    NumericMode.LINEAR: (operator.add, _update_linear),
    NumericMode.LOG: (_log_add, _update_log),
}


@dataclass(frozen=True)
class ValidationReport:
    smooth: bool
    decomposable: bool
    violations: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return self.smooth and self.decomposable


class Circuit:
    """Immutable probabilistic circuit: its rows (see the module docstring),
    the bitmask scope of every node, its leaf and inner ids and its
    validation report. The rows each kernel reads are built on first use
    by ``_rows``, and kept in ``_memo`` with the other work that depends
    only on the circuit: the partition function and the inner ids each
    batch mask recomputes."""

    def __init__(self, num_vars: int, nodes: Iterable[tuple]):
        self.num_vars = num_vars
        self.nodes: tuple[tuple, ...] = tuple(nodes)
        if not self.nodes:
            raise PcFormatError("circuit has no nodes")
        self.root = len(self.nodes) - 1
        self.scopes: list[int] = []
        self.leaves: list[int] = []
        self.inner: list[int] = []
        # Per variable that has leaves, the ascending ids of its leaves.
        self.var_leaves: dict[int, list[int]] = defaultdict(list)
        scopes, var_leaves, violations = self.scopes, self.var_leaves, []
        for nid, row in enumerate(self.nodes):
            if len(row) == 3:
                var = row[0]
                if 0 <= var < num_vars:
                    scopes.append(1 << var)
                    var_leaves[var].append(nid)
                elif var == -1 and row[2] == 0.0:
                    scopes.append(0)
                else:
                    raise PcFormatError(f"node {nid}: variable {var} out of range")
                self.leaves.append(nid)
                continue
            children, weights = row
            if weights is not None and len(weights) != len(children):
                raise PcFormatError(f"node {nid}: {len(weights)} weights for {len(children)} children")
            scope = overlap = 0
            for child in children:
                if child < 0 or child >= nid:
                    raise PcFormatError(f"node {nid}: child {child} is not an earlier node")
                # Bits a child shares with the union of its earlier siblings.
                overlap |= scope & scopes[child]
                scope |= scopes[child]
            scopes.append(scope)
            self.inner.append(nid)
            if weights is None:
                if overlap:
                    violations.append(("decomposability", nid))
                continue
            for child in children:
                if scopes[child] != scope:
                    violations.append(("smoothness", nid))
                    break
        kinds = {kind for kind, _ in violations}
        self.report = ValidationReport(
            "smoothness" not in kinds, "decomposability" not in kinds, tuple(violations)
        )
        # Work that no solve changes, memoized on first use: ("rows", mode,
        # shared) -> the rows of `_rows`; ("partition", mode) -> the total
        # mass; "ids" -> per batch bitmask, the inner ids that the batch
        # recomputes, for at most _IDS_MEMO_CAP masks.
        self._memo: dict = {"ids": {}}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Circuit)
            and self.num_vars == other.num_vars
            and self.nodes == other.nodes
        )

    def __repr__(self) -> str:
        return f"Circuit(num_vars={self.num_vars}, num_nodes={len(self.nodes)})"

    def require_valid(self) -> None:
        report = validate(self)
        if not report.ok:
            raise CircuitStructureError(
                f"circuit is not smooth+decomposable: {list(report.violations)[:4]}"
            )


def validate(c: Circuit) -> ValidationReport:
    """The smoothness and decomposability verdict that the constructor
    computed, with the offending node ids."""
    return c.report


def _opposed_indicators(nodes: tuple, kids_a: tuple, kids_b: tuple) -> tuple[int, int, int] | None:
    """``(v, i, j)`` for the first indicator ``kids_a[i]`` of a variable
    ``v`` whose opposite indicator is ``kids_b[j]``, or None."""
    for i, kid in enumerate(kids_a):
        leaf = nodes[kid]
        if len(leaf) != 3 or leaf[0] < 0 or (leaf[1], leaf[2]) not in _INDICATOR_WEIGHTS:
            continue
        twin = (leaf[0], leaf[2], leaf[1])
        for j, other in enumerate(kids_b):
            if nodes[other] == twin:
                return leaf[0], i, j
    return None


def _rows(c: Circuit, mode: NumericMode, shared: frozenset[int] = frozenset()) -> Sequence[tuple]:
    """The rows that `mode`'s kernel reads for the shared variables
    `shared`: every weight in the mode's value space, and each decision sum
    of a variable in `shared` as ``(None, branches)``, one ``(weight,
    product id, indicator id, the product's other children)`` per child.
    Built on first use and cached on the circuit per ``(mode, shared)``;
    without such a sum, the mode's rows themselves (``c.nodes`` in linear
    mode). A decision sum has two product children, one holding the
    indicator ``(v, 1.0, 0.0)`` and the other ``(v, 0.0, 1.0)`` of the same
    variable ``v``; where several variables qualify, ``v`` is the first one
    among the first product's children. The first children of both products
    are tested first, because ``compile_factor_graph`` puts the indicators
    there; only a sum that fails that test gets the general scan."""
    key = ("rows", mode, shared)
    rows = c._memo.get(key)
    if rows is not None:
        return rows
    if shared:
        nodes = c.nodes
        rows = base = _rows(c, mode)
        for nid in c.inner:
            children, weights = nodes[nid]
            if weights is None or len(children) != 2:
                continue
            prod_a, prod_b = children
            row_a, row_b = nodes[prod_a], nodes[prod_b]
            if len(row_a) != 2 or row_a[1] is not None or len(row_b) != 2 or row_b[1] is not None:
                continue
            kids_a, kids_b = row_a[0], row_b[0]
            match = None
            if kids_a and kids_b:
                leaf = nodes[kids_a[0]]
                if len(leaf) == 3 and leaf[0] >= 0 and leaf[1:] == (1.0, 0.0):
                    if nodes[kids_b[0]] == (leaf[0], 0.0, 1.0):
                        match = (leaf[0], 0, 0)
            if match is None:
                match = _opposed_indicators(nodes, kids_a, kids_b)
            if match is None or match[0] not in shared:
                continue
            _, i, j = match
            if rows is base:
                rows = list(base)
            w_a, w_b = base[nid][1]
            rows[nid] = (
                None,
                (
                    (w_a, prod_a, kids_a[i], kids_a[:i] + kids_a[i + 1 :]),
                    (w_b, prod_b, kids_b[j], kids_b[:j] + kids_b[j + 1 :]),
                ),
            )
    elif mode is NumericMode.LINEAR:
        rows = c.nodes
    else:
        rows = tuple(
            (row[0], _log_weight(row[1]), _log_weight(row[2]))
            if len(row) == 3
            else (row[0], None if row[1] is None else tuple(map(_log_weight, row[1])))
            for row in c.nodes
        )
    c._memo[key] = rows
    return rows


def _fold(
    c: Circuit, mode: NumericMode, status: dict, shared: frozenset[int] = frozenset()
) -> tuple[list[float], list[float]]:
    """Every node's ``(ub, lb)`` from scratch, over the rows of `shared`. A
    leaf whose variable `status` maps to a value takes that value's weight,
    one it maps to None (a free shared variable, which must be in `shared`)
    its larger and smaller weight, and any other leaf its summed-out mass.
    The mode's kernel then runs once over the inner nodes, which start as
    NaN; without shared variables one list serves as both bounds."""
    rows = _rows(c, mode, shared)
    add, update = _OPS[mode]
    ub = [math.nan] * len(rows)
    lb = [math.nan] * len(rows) if shared else ub
    for nid in c.leaves:
        var, t, f = rows[nid]
        if var not in status:
            ub[nid] = lb[nid] = add(t, f)
        elif status[var] is None:
            ub[nid], lb[nid] = max(t, f), min(t, f)
        else:
            ub[nid] = lb[nid] = t if status[var] else f
    update(c.inner, rows, ub, lb)
    return ub, lb


def evaluate_joint(
    c: Circuit,
    assignment: dict[CircuitVar, bool],
    mode: NumericMode = NumericMode.LINEAR,
) -> float:
    """Evaluate the root at a full assignment of the circuit variables."""
    missing = c.var_leaves.keys() - assignment.keys()
    if missing:
        raise ValueError(f"variable {min(missing)} unassigned in joint query")
    return marginal(c, assignment, mode)


def marginal(
    c: Circuit,
    assignment: dict[CircuitVar, bool] | None = None,
    mode: NumericMode = NumericMode.LINEAR,
) -> float:
    """Marginal mass of a partial assignment; unassigned variables are summed
    out. Raises ValueError when the mass is NaN or infinite: in linear mode
    a mass above the largest float overflows to infinity, and infinity
    times a zero gives NaN. Log mode's ``-inf``, zero mass, is a value."""
    c.require_valid()
    status = {var: val for var, val in (assignment or {}).items() if val is not None}
    m = _fold(c, mode, status)[0][c.root]
    if math.isnan(m):
        raise ValueError("marginal is NaN: linear-mode overflow; try --mode log")
    if m == math.inf:
        raise ValueError("marginal is infinite: linear-mode overflow; try --mode log")
    return m


def partition(c: Circuit, mode: NumericMode = NumericMode.LINEAR) -> float:
    """Total mass: the marginal of the empty assignment, memoized on the
    circuit per mode. A mass that ``marginal`` rejects is not stored, so
    every call raises."""
    key = ("partition", mode)
    z = c._memo.get(key)
    if z is None:
        z = c._memo[key] = marginal(c, {}, mode)
    return z


class BoundState:
    """Per-node upper/lower bounds on the root marginal under partial assignment.

    Variables in `shared` are assigned True/False in batches; all other
    variables are latent and always marginalized. Every construction takes
    its bounds from ``_fold``, so no state shares a list with another. The
    state reads the rows that ``_rows`` caches for its mode and shared
    variables, in which a decision sum of a shared variable is ``(None,
    branches)``, so the kernels tell it apart with one identity test on a
    plain sum and none on a product. Each batch sets its variables' leaves
    and runs the kernel once, in ascending id order, over the inner nodes
    whose scope meets the batch (memoized on the circuit per batch mask,
    for the first ``_IDS_MEMO_CAP`` masks). It writes every node it visits
    and records each one's previous bounds in one trail frame, so
    backtracking restores them bit-exactly. The invariant: after every
    assign and backtrack, the bounds equal ``_fold(circuit, mode, status,
    shared)``, bit for bit, signed zeros included, because every inner
    node's bounds equal its kernel over the bounds of its children, which
    come earlier in every scan that reaches it. So the result does not
    depend on how the assignments are split into batches.
    """

    def __init__(
        self,
        circuit: Circuit,
        shared: Iterable[CircuitVar],
        mode: NumericMode = NumericMode.LINEAR,
    ):
        circuit.require_valid()
        self.circuit = circuit
        # The shared variables, each mapped to its value or None while free.
        self.status: dict[CircuitVar, bool | None] = dict.fromkeys(shared)
        for var in self.status:
            if var < 0 or var >= circuit.num_vars:
                raise ValueError(f"shared variable {var} out of range")
        self._update = _OPS[mode][1]
        shared_set = frozenset(self.status)
        self._nodes = _rows(circuit, mode, shared_set)
        self._ids: dict[int, list[int]] = circuit._memo["ids"]
        # With no shared variable `_fold` returns one list as both bounds;
        # that is safe, since `assign` then rejects every item as not shared
        # and nothing is ever written.
        self.ub, self.lb = _fold(circuit, mode, self.status, shared_set)
        # frames: (level, batch vars, ids written, their previous ubs, lbs)
        self._frames: list[tuple[int, list[CircuitVar], list[int], list[float], list[float]]] = []

    def assign(self, items: list[tuple[CircuitVar, bool]], level: int) -> tuple[float, float]:
        """Fix a batch of shared variables, given as ``(var, value)`` pairs,
        in one trail frame; returns the new (root ub, root lb). Every item is
        checked before any bound changes."""
        status = self.status
        batch = [var for var, _ in items]
        for var in batch:
            if var not in status:
                raise ValueError(f"variable {var} is not shared")
            if status[var] is not None:
                raise ValueError(f"variable {var} already assigned")
        if len(set(batch)) != len(batch):
            raise ValueError("variable repeated in one batch")
        c, nodes, ub, lb = self.circuit, self._nodes, self.ub, self.lb
        var_leaves = c.var_leaves
        mask = 0
        for var in batch:
            mask |= 1 << var
        # The inner nodes whose scope meets the batch, found by one scan of
        # the scopes per batch mask and memoized on the circuit. Ids are
        # topological, so each node settles after all its children and is
        # recomputed once, from their final bounds.
        ids = self._ids.get(mask)
        if ids is None:
            scopes = c.scopes
            ids = [nid for nid in c.inner if scopes[nid] & mask]
            if len(self._ids) < _IDS_MEMO_CAP:
                self._ids[mask] = ids
        # The batch writes its variables' leaves and `ids`, each once, so
        # their old bounds, read before any write, are the trail frame.
        written = [nid for var in batch for nid in var_leaves.get(var, ())] + ids
        old_ub, old_lb = list(map(ub.__getitem__, written)), list(map(lb.__getitem__, written))
        self._frames.append((level, batch, written, old_ub, old_lb))
        for var, val in items:
            status[var] = val
            pos = 1 if val else 2
            for nid in var_leaves.get(var, ()):
                ub[nid] = lb[nid] = nodes[nid][pos]
        self._update(ids, nodes, ub, lb)
        return self.root_bounds()

    def backtrack_bounds(self, level: int) -> None:
        """Pop all trail frames above `level`, restoring saved bounds exactly."""
        ub, lb = self.ub, self.lb
        while self._frames and self._frames[-1][0] > level:
            _, batch, written, old_ub, old_lb = self._frames.pop()
            for nid, u, l in zip(written, old_ub, old_lb):
                ub[nid] = u
                lb[nid] = l
            for var in batch:
                self.status[var] = None

    def root_bounds(self) -> tuple[float, float]:
        return self.ub[self.circuit.root], self.lb[self.circuit.root]


# The syntax of each PC node line, keyed by its tag.
_PC_LINES = {
    "l": "l <var> <w_true> <w_false>",
    "i": "i <var> <sign>",
    "c": "c <value>",
    "p": "p <k> <c1> ... <ck>",
    "s": "s <k> <w1> <c1> ... <wk> <ck>",
}


def _pc_weight(tok: str) -> float:
    try:
        w = float(tok)
    except ValueError:
        raise PcFormatError(f"bad number {tok!r}") from None
    if not math.isfinite(w) or w < 0.0:
        raise PcFormatError(f"negative or non-finite weight {tok}")
    return w


def _pc_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise PcFormatError(f"bad integer {tok!r}") from None


def _pc_var(tok: str) -> CircuitVar:
    var = _pc_int(tok)
    if var < 0:  # -1 would read as a constant; the upper range is the circuit's check
        raise PcFormatError(f"variable {var} out of range")
    return var


def _pc_row(tag: str, args: list[str]) -> tuple:
    """The row of one PC node line, split into its tag and arguments."""
    if tag == "l" and len(args) == 3:
        return (_pc_var(args[0]), _pc_weight(args[1]), _pc_weight(args[2]))
    if tag == "i" and len(args) == 2:
        if args[1] not in ("0", "1"):
            raise PcFormatError(f"indicator sign must be 0 or 1, got {args[1]!r}")
        var = _pc_var(args[0])
        return (var, 1.0, 0.0) if args[1] == "1" else (var, 0.0, 1.0)
    if tag == "c" and len(args) == 1:
        return (-1, _pc_weight(args[0]), 0.0)
    if tag == "p" and args:
        if len(args) - 1 != _pc_int(args[0]):
            raise PcFormatError("product child count mismatch")
        return (tuple(map(_pc_int, args[1:])), None)
    if tag == "s" and args:
        if len(args) - 1 != 2 * _pc_int(args[0]):
            raise PcFormatError("sum arity mismatch")
        return (tuple(map(_pc_int, args[2::2])), tuple(map(_pc_weight, args[1::2])))
    if tag in _PC_LINES:
        raise PcFormatError(f"expected '{_PC_LINES[tag]}'")
    raise PcFormatError(f"unknown node tag {tag!r}")


def parse_pc(text: str) -> Circuit:
    """Parse the PC text format into circuit rows.

    Header ``pc <num_nodes> <num_vars>``, then one node per line in
    topological order: ``l <var> <w_true> <w_false>``, ``i <var> <sign>``
    (sign 1 or 0; read as ``l <var> 1.0 0.0`` or ``l <var> 0.0 1.0``),
    ``c <value>``, ``p <k> <c1> ... <ck>``, ``s <k> <w1> <c1> ... <wk> <ck>``.
    Blank lines and ``#`` comments are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise PcFormatError("empty circuit document")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "pc":
        raise PcFormatError(f"malformed header: {lines[0]!r}")
    try:
        num_nodes, num_vars = int(header[1]), int(header[2])
    except ValueError as exc:
        raise PcFormatError(f"malformed header: {lines[0]!r}") from exc
    if len(lines) - 1 != num_nodes:
        raise PcFormatError(f"header declares {num_nodes} nodes, found {len(lines) - 1}")
    nodes: list[tuple] = []
    for nid, line in enumerate(lines[1:]):
        tag, *args = line.split()
        try:
            nodes.append(_pc_row(tag, args))
        except ValueError as exc:
            raise PcFormatError(f"node {nid}: {exc}") from exc
    return Circuit(num_vars, nodes)


def write_pc(c: Circuit) -> str:
    """Serialize a circuit; round-trips through parse_pc. Indicator leaves
    are written as ``l`` lines."""
    lines = [f"pc {len(c.nodes)} {c.num_vars}"]
    for row in c.nodes:
        if len(row) == 3:
            var, t, f = row
            lines.append(f"c {t!r}" if var == -1 else f"l {var} {t!r} {f!r}")
        elif row[1] is None:
            lines.append(" ".join(["p", str(len(row[0])), *map(str, row[0])]))
        else:
            children, weights = row
            pairs = [f"{w!r} {child}" for w, child in zip(weights, children)]
            lines.append(" ".join(["s", str(len(children)), *pairs]))
    return "\n".join(lines) + "\n"
