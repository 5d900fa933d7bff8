"""Seeded input generator for the smcsat benchmark.

    python3 perfbench/gen.py --workload grid-bn --seed 0 --out DIR

writes every input file of one workload into DIR: DIMACS, UAI, PC and
manifest files, plus ``suite.json``, which lists the instances with the
expected answer of each. The same seed gives byte-identical files.

The expected answers come from checks that share nothing with the CDCL
solver under test: a subset-DP Hamiltonian-path search, a small
backtracking grid colourer, ``brute_solve`` over the plain CNF and
``enumerate_marginal`` on the source factor graph.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from smcsat.circuit import write_pc  # noqa: E402
from smcsat.factorgraph import FactorGraph, compile_factor_graph, enumerate_marginal, write_uai  # noqa: E402
from smcsat.formula import CnfFormula, write_dimacs  # noqa: E402
from smcsat.oracle import brute_solve  # noqa: E402
from smcsat.problems import (  # noqa: E402
    GraphSpec,
    GridSpec,
    LayeredNetwork,
    encode_hamiltonian_path,
    encode_supply_chain,
    gen_kcolor,
    gen_random_bn,
    marginalize_false_circuit,
    select_shared_vars,
)
from smcsat.solver import SmcProblem  # noqa: E402

WORKLOADS = ("grid-bn", "supply-sweep", "hampath")

# Every solve gets the same conflict budget, so a budget hit repeats exactly.
MAX_CONFLICTS = 20000

GRID_SIZES = ((4, 4), (4, 5), (5, 5))
GRID_COLORS = 3
GRID_BN_VARS = 10
# (comparator, rank): the threshold admits exactly `rank` shared assignments,
# which places every predicate at a like distance from the SAT/UNSAT boundary.
GRID_PREDICATES = (("ge", 1), ("le", 1), ("ge", 8), ("le", 8))
GRID_CHUNK = 48

SUPPLY_LAYERS = (3, 3, 3)
SUPPLY_K = 2
SUPPLY_BN = {"max_parents": 2, "edge_fraction": 0.3}
SUPPLY_NODES = (800, 1200)
SUPPLY_CHUNK = 12
# Sweep grid as fractions of the optimal plan's success probability: two
# feasible steps, then one infeasible step.
SUPPLY_LO, SUPPLY_STEP, SUPPLY_POINTS = 0.85, 0.1, 3

HAM_NODES = (10, 11)
HAM_EDGE_PROB = 0.32
HAM_BN_VARS = 6
HAM_CHUNK = 60


def _write(out: Path, name: str, text: str) -> str:
    (out / name).write_text(text)
    return name


def _manifest(out: Path, name: str, cnf: str, predicate: dict) -> str:
    doc = {"cnf": cnf, "predicates": [predicate]}
    return _write(out, name, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------ oracles


def grid_colourable(rows: int, cols: int, k: int, fixed: dict[int, bool]) -> bool:
    """Is there a proper k-colouring of the grid agreeing with `fixed`?

    Formula variable ``(r * cols + c) * k + colour + 1`` means cell (r, c)
    has that colour. Backtracking over cells with forward checking.
    """
    cells = rows * cols
    domains = [set(range(k)) for _ in range(cells)]
    for var, val in fixed.items():
        cell, colour = divmod(var - 1, k)
        domains[cell] &= {colour} if val else set(range(k)) - {colour}
    neighbours = [[] for _ in range(cells)]
    for r, c in product(range(rows), range(cols)):
        for r2, c2 in ((r + 1, c), (r, c + 1)):
            if r2 < rows and c2 < cols:
                neighbours[r * cols + c].append(r2 * cols + c2)
                neighbours[r2 * cols + c2].append(r * cols + c)

    def search(doms: list[set[int]], todo: frozenset[int]) -> bool:
        if not todo:
            return True
        cell = min(todo, key=lambda x: (len(doms[x]), x))
        for colour in sorted(doms[cell]):
            nxt = list(doms)
            nxt[cell] = {colour}
            ok = True
            for nb in neighbours[cell]:
                if nb in todo and colour in nxt[nb]:
                    nxt[nb] = nxt[nb] - {colour}
                    ok = ok and bool(nxt[nb])
            if ok and search(nxt, todo - {cell}):
                return True
        return False

    return all(domains) and search(domains, frozenset(range(cells)))


def hamiltonian_path(n: int, edges: list[tuple[int, int]]) -> bool:
    """Subset DP: ends[mask] is the set of path end points covering `mask`."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, 1 << n):
        e = ends[mask]
        while e:
            low = e & -e
            v = low.bit_length() - 1
            e ^= low
            nxt = adj[v] & ~mask
            while nxt:
                bit = nxt & -nxt
                nxt ^= bit
                ends[mask | bit] |= bit
    return ends[(1 << n) - 1] != 0


# ---------------------------------------------------------------- workloads


def random_bn_in_band(rng: random.Random, n: int, band: tuple[int, int], **kwargs) -> FactorGraph:
    """Draw random BNs until one compiles to a circuit with a node count in `band`."""
    while True:
        fg = gen_random_bn(n, seed=rng.randrange(1 << 30), **kwargs)
        if band[0] <= len(compile_factor_graph(fg).nodes) <= band[1]:
            return fg


def grid_answer(rows: int, cols: int, sigmas: list, rank: int, b: int | None) -> bool:
    """SAT iff a shared assignment consistent with the predicate extends to a
    proper grid colouring; `sigmas` is in order, the first `rank` satisfy it."""
    for j, (_, sigma) in enumerate(sigmas):
        holds = j < rank
        if b is None and not holds:
            return False
        fixed = dict(sigma)
        if b is not None:
            fixed[abs(b)] = holds == (b > 0)
        if grid_colourable(rows, cols, GRID_COLORS, fixed):
            return True
    return False


def gen_grid_bn(rng: random.Random, out: Path, count: int) -> list[dict]:
    """k-colour grids against random BNs, one linear-mode predicate each."""
    instances = []
    for i in range(count):
        rows, cols = GRID_SIZES[i % len(GRID_SIZES)]
        cmp, rank = GRID_PREDICATES[(i // len(GRID_SIZES)) % len(GRID_PREDICATES)]
        soft = (i // (len(GRID_SIZES) * len(GRID_PREDICATES))) % 4 == 2
        # Hard rank-1 predicates are drawn UNSAT, every other slot SAT, so
        # every seed has the same mix.
        want = soft or rank > 1
        cnf = gen_kcolor(GridSpec(rows, cols, GRID_COLORS))
        fg = gen_random_bn(GRID_BN_VARS, seed=rng.randrange(1 << 30))
        # Half the BN's variables are shared. The exact marginal of every
        # assignment to them comes from the factor graph, in the comparator's
        # order.
        cvars = sorted(rng.sample(range(GRID_BN_VARS), GRID_BN_VARS // 2))
        sigmas = []
        for bits in product((True, False), repeat=len(cvars)):
            sigmas.append((enumerate_marginal(fg, dict(zip(cvars, bits))), bits))
        sigmas.sort(key=lambda ms: -ms[0] if cmp == "ge" else ms[0])
        # Redraw which grid variables they map to until the answer is `want`.
        while True:
            fvars = rng.sample(range(1, cnf.num_vars + 1), len(cvars))
            b = None
            if soft:
                free = [v for v in range(1, cnf.num_vars + 1) if v not in fvars]
                b = rng.choice(free) * rng.choice((1, -1))
            ordered = [(m, dict(zip(fvars, bits))) for m, bits in sigmas]
            if grid_answer(rows, cols, ordered, rank, b) == want:
                break
        items = sorted(zip(cvars, fvars))
        # The threshold lies midway between the rank-th and the next marginal,
        # so exactly `rank` shared assignments pass and none lies near it.
        q = (sigmas[rank - 1][0] + sigmas[rank][0]) / 2
        entry = {
            "uai": _write(out, f"g{i:03d}.uai", write_uai(fg)),
            "shared": {str(c): f for c, f in items},
            "cmp": cmp,
            "threshold": q / enumerate_marginal(fg),
            "threshold_mode": "partition_fraction",
        }
        if b is not None:
            entry["b"] = b
        instances.append(
            {
                "manifest": _manifest(out, f"g{i:03d}.json", _write(out, f"g{i:03d}.cnf", write_dimacs(cnf)), entry),
                "mode": "linear",
                "expected": "sat" if want else "unsat",
            }
        )
    return instances


def gen_supply_sweep(rng: random.Random, out: Path, count: int) -> list[dict]:
    """Threshold sweeps on a supply chain against compiled disaster BNs."""
    net = LayeredNetwork(SUPPLY_LAYERS)
    cnf = encode_supply_chain(net, SUPPLY_K, SUPPLY_K)
    cnf_name = _write(out, "supply.cnf", write_dimacs(cnf))
    plans = brute_solve(SmcProblem(cnf), cap=net.num_edges).models
    instances = []
    for i in range(count):
        fg = random_bn_in_band(rng, net.num_edges, SUPPLY_NODES, **SUPPLY_BN)
        success = marginalize_false_circuit(compile_factor_graph(fg))
        best = max(
            enumerate_marginal(fg, {v - 1: True for v, on in plan.items() if on}) for plan in plans
        )
        lo, step = SUPPLY_LO * best, SUPPLY_STEP * best
        hi = lo + (SUPPLY_POINTS - 0.5) * step
        # The sweep's own grid: lo + i * step for i = 0, 1, ...
        grid = [lo + j * step for j in range(SUPPLY_POINTS)]
        feasible = [q for q in grid if q <= best]
        entry = {
            "circuit": _write(out, f"s{i:03d}.pc", write_pc(success)),
            "shared": {str(v): v + 1 for v in range(net.num_edges)},
            "cmp": "ge",
            "threshold": 0.0,
            "threshold_mode": "absolute",
        }
        instances.append(
            {
                "manifest": _manifest(out, f"s{i:03d}.json", cnf_name, entry),
                "mode": "log",
                "sweep": {"lo": lo, "hi": hi, "step": step},
                "expected_best_threshold": feasible[-1],
                "expected_steps": len(feasible) + 1,
            }
        )
    return instances


def gen_hampath(rng: random.Random, out: Path, count: int) -> list[dict]:
    """Hamiltonian paths on random graphs, each with one soft predicate.

    The predicate's b literal is a fresh variable, so it never decides
    satisfiability: the Boolean search does the work.
    """
    instances = []
    for i in range(count):
        n = HAM_NODES[i % len(HAM_NODES)]
        # Fixed SAT/UNSAT slots give every seed the same mix; one in three is
        # SAT, so the median solve lies inside the UNSAT cluster, not between.
        want = (i // len(HAM_NODES)) % 3 == 0
        while True:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < HAM_EDGE_PROB]
            if hamiltonian_path(n, edges) == want:
                break
        path_cnf = encode_hamiltonian_path(GraphSpec.from_edges(n, edges))
        cnf = CnfFormula(path_cnf.num_vars + 1, path_cnf.clauses)
        fg = gen_random_bn(HAM_BN_VARS, seed=rng.randrange(1 << 30))
        shared = select_shared_vars(HAM_BN_VARS, path_cnf.num_vars, rng.randrange(1 << 30))
        entry = {
            "uai": _write(out, f"h{i:03d}.uai", write_uai(fg)),
            "shared": {str(c): f for c, f in sorted(shared.items())},
            "b": cnf.num_vars,
            "cmp": "ge",
            "threshold": round(rng.uniform(0.01, 0.2), 4),
            "threshold_mode": "partition_fraction",
        }
        cnf_name = _write(out, f"h{i:03d}.cnf", write_dimacs(cnf))
        instances.append(
            {
                "manifest": _manifest(out, f"h{i:03d}.json", cnf_name, entry),
                "mode": "linear",
                "expected": "sat" if want else "unsat",
                "graph": {"n": n, "edges": edges},
            }
        )
    return instances


# A suite is a number of chunks, independent draws of the workload with the
# same mix of instance kinds. Many distinct instances per run, rather than
# repeats of a few, keep the medians steady from seed to seed.
# workload -> (generator, instances per chunk, chunks)
GENERATORS = {
    "grid-bn": (gen_grid_bn, GRID_CHUNK, 12),
    "supply-sweep": (gen_supply_sweep, SUPPLY_CHUNK, 9),
    "hampath": (gen_hampath, HAM_CHUNK, 10),
}


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    # Workloads draw from separate streams so one seed names one input set each.
    rng = random.Random(f"{workload}:{seed}")
    gen, chunk, chunks = GENERATORS[workload]
    suite = {
        "workload": workload,
        "seed": seed,
        "max_conflicts": MAX_CONFLICTS,
        "chunk_size": chunk,
        "instances": gen(rng, out, chunks * chunk),
    }
    _write(out, "suite.json", json.dumps(suite, indent=1, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
