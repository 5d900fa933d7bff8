"""Instance generators, application encoders and manifest assembly."""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .circuit import Circuit, parse_pc
from .factorgraph import Factor, FactorGraph, compile_factor_graph, parse_uai
from .formula import CnfFormula, Lit, Var, parse_dimacs
from .solver import Comparator, PredicateSpec, SmcProblem, ThresholdMode, check_predicate_fields


class ManifestError(ValueError):
    """Raised on malformed manifest documents."""


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    colors: int = 3

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.colors < 2:
            raise ValueError("need at least 2 colors")

    @property
    def num_vars(self) -> int:
        return self.rows * self.cols * self.colors


def gen_kcolor(g: GridSpec, shuffle_seed: int | None = None) -> CnfFormula:
    """k-coloring of a grid graph as CNF.

    Node (r, c) gets one variable per color; a node takes exactly one color
    and grid-adjacent nodes never share one. `shuffle_seed` optionally
    applies a seeded permutation to the variable names.
    """
    k = g.colors

    def var(r: int, c: int, color: int) -> Var:
        return (r * g.cols + c) * k + color + 1

    clauses: list[tuple[Lit, ...]] = []
    for r in range(g.rows):
        for c in range(g.cols):
            node_vars = [var(r, c, i) for i in range(k)]
            clauses.append(tuple(node_vars))
            for a, b in combinations(node_vars, 2):
                clauses.append((-a, -b))
    for r in range(g.rows):
        for c in range(g.cols):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 < g.rows and c2 < g.cols:
                    for i in range(k):
                        clauses.append((-var(r, c, i), -var(r2, c2, i)))
    formula = CnfFormula(g.num_vars, tuple(clauses))
    if shuffle_seed is not None:
        formula = shuffle_variables(formula, shuffle_seed)
    return formula


def shuffle_variables(f: CnfFormula, seed: int) -> CnfFormula:
    """Apply a seeded permutation to variable names, keeping polarities."""
    rng = random.Random(seed)
    perm = list(range(1, f.num_vars + 1))
    rng.shuffle(perm)
    mapping = {old: new for old, new in zip(range(1, f.num_vars + 1), perm)}
    clauses = tuple(
        tuple((1 if lit > 0 else -1) * mapping[abs(lit)] for lit in clause)
        for clause in f.clauses
    )
    return CnfFormula(f.num_vars, clauses)


def exactly_k(vars: Sequence[Var], k: int) -> list[tuple[Lit, ...]]:
    """Binomial exactly-k encoding over the given variables (no auxiliaries)."""
    n = len(vars)
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for {n} variables")
    clauses: list[tuple[Lit, ...]] = []
    for subset in combinations(vars, k + 1):
        clauses.append(tuple(-v for v in subset))
    for subset in combinations(vars, n - k + 1):
        clauses.append(tuple(subset))
    return clauses


@dataclass(frozen=True)
class LayeredNetwork:
    """Fully connected adjacent layers; every edge is one decision variable."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least two layers")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")

    @property
    def num_edges(self) -> int:
        return sum(a * b for a, b in zip(self.layer_sizes, self.layer_sizes[1:]))

    def edge_var(self, interface: int, u: int, v: int) -> Var:
        base = sum(a * b for a, b in zip(self.layer_sizes[:interface], self.layer_sizes[1 : interface + 1]))
        return base + u * self.layer_sizes[interface + 1] + v + 1

    def downstream_edges(self, layer: int, node: int) -> list[Var]:
        return [self.edge_var(layer, node, v) for v in range(self.layer_sizes[layer + 1])]

    def upstream_edges(self, layer: int, node: int) -> list[Var]:
        return [self.edge_var(layer - 1, u, node) for u in range(self.layer_sizes[layer - 1])]


def encode_supply_chain(net: LayeredNetwork, k_up: int = 2, k_down: int = 2) -> CnfFormula:
    """Cardinality constraints on trades: every node buys from exactly `k_up`
    upstream suppliers and sells to exactly `k_down` downstream demanders.

    The first layer carries no upstream constraint and the last layer no
    downstream constraint. All upstream clauses come before the downstream ones.
    """
    clauses: list[tuple[Lit, ...]] = []
    sizes = net.layer_sizes
    sides = (
        ("upstream", "k_up", k_up, range(1, len(sizes)), net.upstream_edges),
        ("downstream", "k_down", k_down, range(len(sizes) - 1), net.downstream_edges),
    )
    for side, name, k, layers, edges_of in sides:
        for layer in layers:
            for node in range(sizes[layer]):
                edges = edges_of(layer, node)
                if len(edges) < k:
                    raise ValueError(
                        f"layer {layer} node {node}: {len(edges)} {side} neighbors < {name}={k}"
                    )
                clauses.extend(exactly_k(edges, k))
    return CnfFormula(net.num_edges, tuple(clauses))


@dataclass(frozen=True)
class GraphSpec:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "GraphSpec":
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def parse_edge_list(text: str, n: int | None = None) -> GraphSpec:
    """Read `u v` edge lines (0-based); n defaults to max index + 1."""
    edges = []
    max_node = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: bad edge line {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: {line!r} is not two integer node ids") from None
        edges.append((u, v))
        max_node = max(max_node, u, v)
    if n is None:
        n = max_node + 1 if max_node >= 0 else 1
    return GraphSpec.from_edges(n, edges)


def encode_hamiltonian_path(g: GraphSpec) -> CnfFormula:
    """Order-based Hamiltonian path encoding with n^2 variables.

    Variable (i, j) means position i of the path is city j. Exactly one
    city per position, exactly one position per city, and consecutive
    positions may only hold adjacent cities. Models are in bijection with
    directed Hamiltonian paths.
    """
    n = g.n

    def var(pos: int, city: int) -> Var:
        return pos * n + city + 1

    clauses: list[tuple[Lit, ...]] = []
    for pos in range(n):
        clauses.extend(exactly_k([var(pos, j) for j in range(n)], 1))
    for city in range(n):
        clauses.extend(exactly_k([var(i, city) for i in range(n)], 1))
    for pos in range(n - 1):
        for u in range(n):
            for v in range(n):
                if u != v and not g.adjacent(u, v):
                    clauses.append((-var(pos, u), -var(pos + 1, v)))
    return CnfFormula(n * n, tuple(clauses))


def decode_hamiltonian_path(g: GraphSpec, model: dict[Var, bool]) -> list[int]:
    """Recover the visiting order from a model of encode_hamiltonian_path."""
    n = g.n
    path = []
    for pos in range(n):
        cities = [j for j in range(n) if model[pos * n + j + 1]]
        if len(cities) != 1:
            raise ValueError(f"position {pos} holds {len(cities)} cities")
        path.append(cities[0])
    return path


def gen_random_bn(
    n: int,
    max_parents: int = 5,
    edge_fraction: float = 0.5,
    seed: int = 0,
) -> FactorGraph:
    """Random Bayesian network over n binary variables.

    Parents are drawn topologically with at most `max_parents` per node and
    a total edge count of about `edge_fraction` of the maximum possible.
    Conditional tables are uniform draws normalized per parent configuration.
    """
    rng = random.Random(seed)
    capacity = sum(min(i, max_parents) for i in range(n))
    target = round(edge_fraction * capacity)
    candidates = [(p, child) for child in range(n) for p in range(child)]
    rng.shuffle(candidates)
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    taken = 0
    for p, child in candidates:
        if taken >= target:
            break
        if len(parents[child]) < max_parents:
            parents[child].append(p)
            taken += 1
    factors = []
    for child in range(n):
        ps = tuple(sorted(parents[child]))
        table: list[float] = []
        for _ in range(1 << len(ps)):
            wt, wf = rng.random(), rng.random()
            s = wt + wf
            if s == 0.0:
                wt, wf, s = 0.5, 0.5, 1.0
            table.extend((wt / s, wf / s))
        factors.append(Factor(ps + (child,), tuple(table)))
    return FactorGraph("BAYES", n, tuple(factors))


def marginalize_false_circuit(c: Circuit) -> Circuit:
    """Reinterpret False assignments as "don't care".

    Every variable leaf keeps its True weight but its False weight becomes
    the leaf's total mass (constants stay as they are), so evaluating the result at a selection vector x
    yields the original circuit's marginal with evidence v=True for every
    selected v and everything unselected summed out. This turns a
    disaster/survival model over components into a circuit whose joint at
    x is the success probability of the selected component set.
    """
    return Circuit(
        c.num_vars,
        ((row[0], row[1], row[1] + row[2]) if len(row) == 3 and row[0] >= 0 else row for row in c.nodes),
    )


def select_shared_vars(
    circuit_num_vars: int,
    formula_num_vars: int,
    seed: int,
) -> dict[int, Var]:
    """Random shared-variable map for synthetic SMC instances.

    The shared count is the lesser of half the circuit's variables and all
    of the formula's variables; both sides are drawn uniformly at random.
    """
    rng = random.Random(seed)
    count = min(circuit_num_vars // 2, formula_num_vars)
    cvars = sorted(rng.sample(range(circuit_num_vars), count))
    fvars = rng.sample(range(1, formula_num_vars + 1), count)
    return dict(zip(cvars, fvars))


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_key(key: object) -> int | None:
    """A shared-map key as an int; JSON object keys arrive as strings."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            return None
    return key if _is_int(key) else None


def _member(kind: type[enum.Enum], value: object) -> object:
    """The member of `kind` whose value is `value`, else `value` itself."""
    try:
        return kind(value)
    except ValueError:
        return value


def _check_predicate(desc: object) -> dict:
    if not isinstance(desc, dict):
        raise ManifestError(f"must be an object, got {desc!r}")
    if ("circuit" in desc) == ("uai" in desc):
        raise ManifestError("exactly one of 'circuit' or 'uai' required")
    source = "circuit" if "circuit" in desc else "uai"
    if not isinstance(desc[source], str):
        raise ManifestError(f"'{source}' must be a file name, got {desc[source]!r}")
    entry: dict = {source: desc[source]}
    if "order" in desc:
        order = desc["order"]
        if source != "uai":
            raise ManifestError("'order' is allowed only with 'uai'")
        if not isinstance(order, list) or not all(_is_int(v) for v in order):
            raise ManifestError(f"'order' must be a list of integers, got {order!r}")
        entry["order"] = order
    shared = desc.get("shared", {})
    if not isinstance(shared, dict):
        raise ManifestError(f"'shared' must be an object, got {shared!r}")
    mapping: dict = {}
    for key, fvar in shared.items():
        cvar = _int_key(key)
        if cvar is None or cvar in mapping:
            raise ManifestError(f"'shared' entry {key!r}: {fvar!r} is not a new integer-to-integer pair")
        mapping[cvar] = fvar
    if "threshold" not in desc:
        raise ManifestError("missing 'threshold'")
    b, q = desc.get("b"), desc["threshold"]
    cmp = _member(Comparator, desc.get("cmp", "ge"))
    mode = _member(ThresholdMode, desc.get("threshold_mode", "absolute"))
    try:
        check_predicate_fields(mapping, cmp, q, mode, b)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None
    entry["shared"] = {str(k): v for k, v in sorted(mapping.items())}
    if b is not None:
        entry["b"] = b
    entry.update(cmp=cmp.value, threshold=float(q), threshold_mode=mode.value)
    return entry


def _check_manifest(doc: object, base_dir: str | Path | None = None) -> dict:
    """Validate a manifest document and return it in normal form.

    The one schema behind `build_manifest`, `save_manifest` and
    `load_manifest`: every malformed field raises ManifestError. The normal
    form spells out defaults and keys `shared` by decimal strings. With
    `base_dir`, every referenced file must exist relative to it.
    """
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest must be a JSON object, got {doc!r}")
    cnf = doc.get("cnf")
    if not isinstance(cnf, str):
        raise ManifestError(f"'cnf' must be a file name, got {cnf!r}")
    predicates = doc.get("predicates", [])
    if not isinstance(predicates, list):
        raise ManifestError(f"'predicates' must be a list, got {predicates!r}")
    entries = []
    for i, desc in enumerate(predicates):
        try:
            entries.append(_check_predicate(desc))
        except ManifestError as exc:
            raise ManifestError(f"predicate {i}: {exc}") from None
    if base_dir is not None:
        for name in [cnf] + [e.get("circuit", e.get("uai")) for e in entries]:
            if not (Path(base_dir) / name).exists():
                raise ManifestError(f"referenced file does not exist: {name}")
    return {"cnf": cnf, "predicates": entries}


def build_manifest(cnf: str, predicates: list[dict]) -> dict:
    """Assemble and validate a manifest document (JSON-serializable dict).
    The files it names are checked when it is saved or loaded."""
    return _check_manifest({"cnf": cnf, "predicates": predicates})


def save_manifest(doc: dict, path: str | Path) -> None:
    """Write `doc` at `path`, creating its directory; every file it names
    must exist relative to that directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_check_manifest(doc, path.parent), indent=2) + "\n")


def predicate_from_entry(entry: dict, circuit: Circuit) -> PredicateSpec:
    """The predicate of one normal-form manifest entry over `circuit`."""
    return PredicateSpec(
        circuit=circuit,
        shared_map={int(k): v for k, v in entry["shared"].items()},
        cmp=Comparator(entry["cmp"]),
        threshold=entry["threshold"],
        threshold_mode=ThresholdMode(entry["threshold_mode"]),
        b=entry.get("b"),
    )


def load_manifest(path: str | Path) -> SmcProblem:
    """Load a manifest into an SmcProblem; paths resolve next to the manifest."""
    path = Path(path)
    base = path.parent
    try:
        doc = _check_manifest(json.loads(path.read_text()), base)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or a number past int's digit limit
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    try:
        cnf = parse_dimacs((base / doc["cnf"]).read_text())
    except ValueError as exc:
        raise ManifestError(f"{path}: {doc['cnf']}: {exc}") from exc
    predicates = []
    for i, entry in enumerate(doc["predicates"]):
        try:
            if "circuit" in entry:
                circuit = parse_pc((base / entry["circuit"]).read_text())
            else:
                fg = parse_uai((base / entry["uai"]).read_text())
                circuit = compile_factor_graph(fg, order=entry.get("order"))
            predicates.append(predicate_from_entry(entry, circuit))
        except ValueError as exc:
            raise ManifestError(f"{path}: predicate {i}: {exc}") from exc
    try:
        return SmcProblem(cnf=cnf, predicates=tuple(predicates))
    except ValueError as exc:  # its messages name the predicate
        raise ManifestError(f"{path}: {exc}") from exc
