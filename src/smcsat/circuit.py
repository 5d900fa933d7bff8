"""Probabilistic circuits: file format, validation, inference, bound tracking.

A circuit is a DAG of leaf, product and sum nodes in topological file order
(children precede parents, root is the last node). Smoothness (sum children
share a scope) and decomposability (product children have disjoint scopes)
make marginal queries a single bottom-up pass. Circuits may be unnormalized;
the total mass plays the role of the partition function.

Evaluation and bound tracking read one node table per numeric mode, with
weights already in the mode's value space: entry ``nid`` is ``(var, value if
true, value if false, summed-out mass)`` for a leaf (``var`` is -1 for a
constant) and ``(children, sum weights or None)`` for a product or sum.
``marginal`` and ``partition`` evaluate it with one leaf rule and one combine
function per mode.

``BoundState`` maintains, per node, an upper and lower bound on the marginal
mass under a partial assignment of the shared (decision) variables. Its work
is done by one update kernel per mode, which walks ``(nid, children, weights
or None)`` plan entries in ascending id order and computes a node's upper
and lower bound together, with the combine function inlined. Each circuit
caches, per mode, the entries of all its inner nodes and, per variable on
its first assignment, a plan: the ids of the variable's leaves and the
entries of their ancestors.
Initialisation sets every leaf once and runs the kernel over all inner nodes;
assigning a variable sets its leaves and runs the kernel over its plan;
backtracking undoes by decision level. The kernels fold left to right from
the same identity as the combine functions, so a fully assigned
``BoundState`` reproduces ``marginal`` bit for bit.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Union

CircuitVar = int


class PcFormatError(ValueError):
    """Raised on malformed circuit files."""


class CircuitStructureError(ValueError):
    """Raised when an operation requires smoothness/decomposability and it fails."""


@dataclass(frozen=True)
class BernoulliLeaf:
    var: CircuitVar
    w_true: float
    w_false: float


@dataclass(frozen=True)
class IndicatorLeaf:
    var: CircuitVar
    sign: bool


@dataclass(frozen=True)
class ConstantLeaf:
    value: float


@dataclass(frozen=True)
class ProductNode:
    children: tuple[int, ...]


@dataclass(frozen=True)
class SumNode:
    children: tuple[tuple[float, int], ...]  # (weight, child id)


Node = Union[BernoulliLeaf, IndicatorLeaf, ConstantLeaf, ProductNode, SumNode]


_Combine = Callable[[tuple, tuple | None, list], float]
_Pick = Callable[[float, float], float]
# A plan entry: an inner node's id, children and sum weights (None for a product).
_Step = tuple[int, tuple[int, ...], Union[tuple, None]]
# A variable's plan: the ids of its leaves and the entries of their ancestors.
_VarPlan = tuple[list[int], list[_Step]]
# All leaf ids, all inner-node entries, and per variable its plan or None.
_Plans = tuple[list[int], list[_Step], list[Union[_VarPlan, None]]]
_Saved = list[tuple[int, float, float]]
# Where a kernel appends each changed node's old ``(nid, ub, lb)``.
_Sink = Union[_Saved, deque]


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


def _combine_linear(children: tuple[int, ...], weights: tuple | None, values: list[float]) -> float:
    """Product (``weights is None``) or weighted sum of child values."""
    if weights is None:
        acc = 1.0
        for child in children:
            acc *= values[child]
        return acc
    acc = 0.0
    for w, child in zip(weights, children):
        acc += w * values[child]
    return acc


def _combine_log(children: tuple[int, ...], weights: tuple | None, values: list[float]) -> float:
    """``_combine_linear`` with log-space values and weights."""
    if weights is None:
        acc = 0.0
        for child in children:
            acc += values[child]
        return acc
    acc = -math.inf
    for w, child in zip(weights, children):
        acc = _log_add(acc, w + values[child])
    return acc


def _update_linear(steps: list[_Step], ub: list[float], lb: list[float], saved: _Sink) -> None:
    """Recompute the bounds of each node of `steps` in order, as
    ``_combine_linear`` over `ub` and over `lb`; a node whose bounds change
    is written and its old ``(nid, ub, lb)`` appended to `saved`."""
    for nid, children, weights in steps:
        if weights is None:
            u = l = 1.0
            for child in children:
                u *= ub[child]
                l *= lb[child]
        else:
            u = l = 0.0
            for w, child in zip(weights, children):
                u += w * ub[child]
                l += w * lb[child]
        if u != ub[nid] or l != lb[nid]:
            saved.append((nid, ub[nid], lb[nid]))
            ub[nid] = u
            lb[nid] = l


def _update_log(steps: list[_Step], ub: list[float], lb: list[float], saved: _Sink) -> None:
    """``_update_linear`` with ``_combine_log``; ``_log_add`` is inlined with
    its branches unchanged, so every result is the same float."""
    neg_inf, log1p, exp = -math.inf, math.log1p, math.exp
    for nid, children, weights in steps:
        if weights is None:
            u = l = 0.0
            for child in children:
                u += ub[child]
                l += lb[child]
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
        if u != ub[nid] or l != lb[nid]:
            saved.append((nid, ub[nid], lb[nid]))
            ub[nid] = u
            lb[nid] = l


_KERNELS = {NumericMode.LINEAR: _update_linear, NumericMode.LOG: _update_log}


def node_children(node: Node) -> tuple[int, ...]:
    if isinstance(node, ProductNode):
        return node.children
    if isinstance(node, SumNode):
        return tuple(c for _, c in node.children)
    return ()


@dataclass(frozen=True)
class ValidationReport:
    smooth: bool
    decomposable: bool
    violations: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return self.smooth and self.decomposable


class Circuit:
    """Immutable probabilistic circuit with precomputed scopes; node tables
    and bound-update plans are built on first use."""

    def __init__(self, num_vars: int, nodes: Iterable[Node]):
        self.num_vars = num_vars
        self.nodes: tuple[Node, ...] = tuple(nodes)
        if not self.nodes:
            raise PcFormatError("circuit has no nodes")
        self.root = len(self.nodes) - 1
        self.scopes: list[frozenset[CircuitVar]] = []
        for nid, node in enumerate(self.nodes):
            if isinstance(node, (BernoulliLeaf, IndicatorLeaf)):
                if node.var < 0 or node.var >= num_vars:
                    raise PcFormatError(f"node {nid}: variable {node.var} out of range")
                self.scopes.append(frozenset((node.var,)))
            elif isinstance(node, ConstantLeaf):
                self.scopes.append(frozenset())
            else:
                scope: set[CircuitVar] = set()
                for child in node_children(node):
                    if child < 0 or child >= nid:
                        raise PcFormatError(f"node {nid}: child {child} is not an earlier node")
                    scope |= self.scopes[child]
                self.scopes.append(frozenset(scope))
        self._report: ValidationReport | None = None
        self._tables: dict[NumericMode, tuple[tuple[tuple, ...], _Combine]] = {}
        self._plans: dict[NumericMode, _Plans] = {}

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
    """Check smoothness and decomposability; reports offending node ids."""
    if c._report is not None:
        return c._report
    violations: list[tuple[str, int]] = []
    smooth = True
    decomposable = True
    for nid, node in enumerate(c.nodes):
        if isinstance(node, SumNode):
            child_scopes = {c.scopes[child] for _, child in node.children}
            if len(child_scopes) > 1:
                smooth = False
                violations.append(("smoothness", nid))
        elif isinstance(node, ProductNode):
            seen: set[CircuitVar] = set()
            for child in node.children:
                if seen & c.scopes[child]:
                    decomposable = False
                    violations.append(("decomposability", nid))
                    break
                seen |= c.scopes[child]
    report = ValidationReport(smooth, decomposable, tuple(violations))
    c._report = report
    return report


def _node_table(c: Circuit, mode: NumericMode) -> tuple[tuple[tuple, ...], _Combine]:
    """The circuit's node table for `mode` (see the module docstring) and the
    mode's combine function; built on first use and cached on the circuit."""
    table = c._tables.get(mode)
    if table is not None:
        return table
    log = mode is NumericMode.LOG
    zero, one = (-math.inf, 0.0) if log else (0.0, 1.0)
    add, combine = (_log_add, _combine_log) if log else (operator.add, _combine_linear)

    def weight(w: float) -> float:
        return (math.log(w) if w > 0.0 else -math.inf) if log else w

    nodes: list[tuple] = []
    for node in c.nodes:
        if isinstance(node, ProductNode):
            nodes.append((node.children, None))
        elif isinstance(node, SumNode):
            nodes.append((node_children(node), tuple(weight(w) for w, _ in node.children)))
        elif isinstance(node, ConstantLeaf):
            v = weight(node.value)
            nodes.append((-1, v, v, v))
        else:
            if isinstance(node, BernoulliLeaf):
                t, f = weight(node.w_true), weight(node.w_false)
            else:
                t, f = (one, zero) if node.sign else (zero, one)
            nodes.append((node.var, t, f, add(t, f)))
    table = c._tables[mode] = (tuple(nodes), combine)
    return table


def _plans(c: Circuit, mode: NumericMode) -> _Plans:
    """The circuit's bound-update plans for `mode`: the ids of all leaves, the
    entries of all inner nodes, and per variable its plan once `_var_plan`
    has built it. Entries are ascending by id; built on first use and cached
    on the circuit."""
    plans = c._plans.get(mode)
    if plans is None:
        nodes = _node_table(c, mode)[0]
        leaves = [nid for nid, entry in enumerate(nodes) if len(entry) == 4]
        steps = [(nid, *entry) for nid, entry in enumerate(nodes) if len(entry) == 2]
        plans = c._plans[mode] = (leaves, steps, [None] * c.num_vars)
    return plans


def _var_plan(c: Circuit, mode: NumericMode, var: CircuitVar) -> _VarPlan:
    """Plan of `var`: its leaves and the entries of the inner nodes whose
    scope contains it, sharing the entries of `_plans`; built on first use."""
    leaves, steps, by_var = _plans(c, mode)
    plan = by_var[var]
    if plan is None:
        nodes, scopes = _node_table(c, mode)[0], c.scopes
        plan = by_var[var] = (
            [nid for nid in leaves if nodes[nid][0] == var],
            [step for step in steps if var in scopes[step[0]]],
        )
    return plan


def _leaf_value(leaf: tuple, assignment: dict, free: frozenset, pick: _Pick) -> float:
    """An assigned leaf takes its weight; an unassigned one takes `pick` of
    its two weights if its variable is `free`, else its summed-out mass."""
    var, t, f, mass = leaf
    val = assignment.get(var)
    if val is None:
        return pick(t, f) if var in free else mass
    return t if val else f


def _evaluate(
    c: Circuit, mode: NumericMode, assignment: dict, free: frozenset = frozenset(), pick: _Pick = max
) -> list[float]:
    """Value of every node in one bottom-up pass over the mode's node table."""
    nodes, combine = _node_table(c, mode)
    values = [0.0] * len(nodes)
    for nid, entry in enumerate(nodes):
        if len(entry) == 2:  # (children, weights): a product or sum
            values[nid] = combine(*entry, values)
        else:
            values[nid] = _leaf_value(entry, assignment, free, pick)
    return values


def evaluate_joint(
    c: Circuit,
    assignment: dict[CircuitVar, bool],
    mode: NumericMode = NumericMode.LINEAR,
) -> float:
    """Evaluate the root at a full assignment of the circuit variables."""
    missing = {n.var for n in c.nodes if isinstance(n, (BernoulliLeaf, IndicatorLeaf))} - assignment.keys()
    if missing:
        raise ValueError(f"variable {min(missing)} unassigned in joint query")
    return marginal(c, assignment, mode)


def marginal(
    c: Circuit,
    assignment: dict[CircuitVar, bool] | None = None,
    mode: NumericMode = NumericMode.LINEAR,
) -> float:
    """Marginal mass of a partial assignment; unassigned variables are summed out."""
    c.require_valid()
    return _evaluate(c, mode, assignment or {})[c.root]


def partition(c: Circuit, mode: NumericMode = NumericMode.LINEAR) -> float:
    """Total mass: the marginal of the empty assignment."""
    return marginal(c, {}, mode)


class BoundState:
    """Per-node upper/lower bounds on the root marginal under partial assignment.

    Variables in `shared` may be assigned True/False one at a time; all other
    variables are latent and always marginalized. Construction sets every
    leaf (the larger and smaller weight of a free shared variable, the
    summed-out mass otherwise) and runs the mode's update kernel once over
    all inner nodes. Each assignment sets the variable's leaves and runs the
    kernel over the variable's cached plan in ascending id order, recording
    the previous bounds of every node that changed in a trail frame, so
    backtracking restores them bit-exactly.
    """

    def __init__(
        self,
        circuit: Circuit,
        shared: Iterable[CircuitVar],
        mode: NumericMode = NumericMode.LINEAR,
    ):
        circuit.require_valid()
        self.circuit = circuit
        self.shared = frozenset(shared)
        for var in self.shared:
            if var < 0 or var >= circuit.num_vars:
                raise ValueError(f"shared variable {var} out of range")
        self.mode = mode
        self.status: dict[CircuitVar, bool | None] = {v: None for v in self.shared}
        self._nodes = nodes = _node_table(circuit, mode)[0]
        leaves, steps, self._var_plans = _plans(circuit, mode)
        self._update = _KERNELS[mode]
        # Inner nodes start as NaN, unequal to every value, so the kernel
        # writes each of them. The zero-length deque frees each saved entry
        # at once, so the pass leaves no per-node garbage for the collector.
        self.ub: list[float] = [math.nan] * len(nodes)
        self.lb: list[float] = [math.nan] * len(nodes)
        for nid in leaves:
            var, t, f, mass = nodes[nid]
            if var in self.shared:
                self.ub[nid], self.lb[nid] = max(t, f), min(t, f)
            else:
                self.ub[nid] = self.lb[nid] = mass
        self._update(steps, self.ub, self.lb, deque(maxlen=0))
        # frames: (level, var, [(node id, previous ub, previous lb), ...])
        self._frames: list[tuple[int, CircuitVar, _Saved]] = []

    def assign(self, var: CircuitVar, val: bool, level: int) -> tuple[float, float]:
        """Fix a shared variable; returns the new (root ub, root lb)."""
        if var not in self.shared:
            raise ValueError(f"variable {var} is not shared")
        if self.status[var] is not None:
            raise ValueError(f"variable {var} already assigned")
        saved: _Saved = []
        self._frames.append((level, var, saved))
        self.status[var] = val
        leaves, steps = self._var_plans[var] or _var_plan(self.circuit, self.mode, var)
        nodes, ub, lb, pos = self._nodes, self.ub, self.lb, 1 if val else 2
        for nid in leaves:
            x = nodes[nid][pos]
            if x != ub[nid] or x != lb[nid]:
                saved.append((nid, ub[nid], lb[nid]))
                ub[nid] = lb[nid] = x
        # Ids are topological: each child in the plan settles before its parent.
        self._update(steps, ub, lb, saved)
        return self.root_bounds()

    def backtrack_bounds(self, level: int) -> None:
        """Pop all trail frames above `level`, restoring saved bounds exactly."""
        while self._frames and self._frames[-1][0] > level:
            _, var, saved = self._frames.pop()
            for nid, old_ub, old_lb in reversed(saved):
                self.ub[nid] = old_ub
                self.lb[nid] = old_lb
            self.status[var] = None

    def root_bounds(self) -> tuple[float, float]:
        return self.ub[self.circuit.root], self.lb[self.circuit.root]

    def assigned_vars(self) -> list[CircuitVar]:
        return [var for _, var, _ in self._frames]


def parse_pc(text: str) -> Circuit:
    """Parse the PC text format.

    Header ``pc <num_nodes> <num_vars>``, then one node per line in
    topological order: ``l <var> <w_true> <w_false>``, ``i <var> <sign>``,
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

    def parse_weight(tok: str, nid: int) -> float:
        try:
            w = float(tok)
        except ValueError as exc:
            raise PcFormatError(f"node {nid}: bad number {tok!r}") from exc
        if not math.isfinite(w) or w < 0.0:
            raise PcFormatError(f"node {nid}: negative or non-finite weight {tok}")
        return w

    nodes: list[Node] = []
    for nid, line in enumerate(lines[1:]):
        toks = line.split()
        tag = toks[0]
        try:
            if tag == "l":
                if len(toks) != 4:
                    raise PcFormatError(f"node {nid}: expected 'l <var> <w_true> <w_false>'")
                var = int(toks[1])
                node: Node = BernoulliLeaf(var, parse_weight(toks[2], nid), parse_weight(toks[3], nid))
            elif tag == "i":
                if len(toks) != 3:
                    raise PcFormatError(f"node {nid}: expected 'i <var> <sign>'")
                node = IndicatorLeaf(int(toks[1]), toks[2] == "1")
            elif tag == "c":
                if len(toks) != 2:
                    raise PcFormatError(f"node {nid}: expected 'c <value>'")
                node = ConstantLeaf(parse_weight(toks[1], nid))
            elif tag == "p":
                k = int(toks[1])
                children = [int(t) for t in toks[2:]]
                if len(children) != k:
                    raise PcFormatError(f"node {nid}: product child count mismatch")
                node = ProductNode(tuple(children))
            elif tag == "s":
                k = int(toks[1])
                rest = toks[2:]
                if len(rest) != 2 * k:
                    raise PcFormatError(f"node {nid}: sum arity mismatch")
                pairs = tuple(
                    (parse_weight(rest[2 * j], nid), int(rest[2 * j + 1])) for j in range(k)
                )
                node = SumNode(pairs)
            else:
                raise PcFormatError(f"node {nid}: unknown node tag {tag!r}")
        except ValueError as exc:
            raise PcFormatError(f"node {nid}: {exc}") from exc
        nodes.append(node)
    return Circuit(num_vars, nodes)


def write_pc(c: Circuit) -> str:
    """Serialize a circuit; round-trips through parse_pc."""
    lines = [f"pc {len(c.nodes)} {c.num_vars}"]
    for node in c.nodes:
        if isinstance(node, BernoulliLeaf):
            lines.append(f"l {node.var} {node.w_true!r} {node.w_false!r}")
        elif isinstance(node, IndicatorLeaf):
            lines.append(f"i {node.var} {1 if node.sign else 0}")
        elif isinstance(node, ConstantLeaf):
            lines.append(f"c {node.value!r}")
        elif isinstance(node, ProductNode):
            lines.append("p " + " ".join(str(x) for x in (len(node.children),) + node.children))
        else:
            parts = [str(len(node.children))]
            for w, child in node.children:
                parts.append(repr(w))
                parts.append(str(child))
            lines.append("s " + " ".join(parts))
    return "\n".join(lines) + "\n"
