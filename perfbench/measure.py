"""Timed passes over one generated workload, with correctness checks.

The suite is a list of chunks, each an independent draw of the workload
with the same mix of instance kinds. A pass over a chunk loads every
manifest, solves each instance (or sweeps it), and checks each answer
against the expected one stored by the generator and, for every SAT model,
with ``oracle.verify``. Passes run one solve at a time over chunk after
chunk until every chunk is done and the run's time is used up. Time
metrics are medians over chunks or over every solve of the suite.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from time import perf_counter

from smcsat.circuit import NumericMode
from smcsat.problems import GraphSpec, decode_hamiltonian_path
from smcsat.solver import SolveStatus, SolverConfig, solve
from smcsat.sweep import with_threshold

from spans import Tracer

# Modules by import path: the package re-exports a function named `sweep`,
# which hides the submodule of that name as a package attribute.
oracle = import_module("smcsat.oracle")
problems = import_module("smcsat.problems")
sweep_mod = import_module("smcsat.sweep")

# Counts from SolveResult.stats; a pure speed change leaves every one identical.
STAT_COUNTS = (
    "decisions",
    "conflicts",
    "prob_conflicts",
    "prob_entailments",
    "learned_clauses",
    "boolean_propagations",
)
# A traced run makes an untraced and a traced pass per chunk; it stops after
# this many chunks once its time is up.
MIN_TRACED_CHUNKS = 3


@dataclass
class PassResult:
    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


class Suite:
    def __init__(self, data_dir: Path):
        self.dir = data_dir
        doc = json.loads((data_dir / "suite.json").read_text())
        self.workload: str = doc["workload"]
        self.max_conflicts: int = doc["max_conflicts"]
        size = doc["chunk_size"]
        self.chunks: list[list[dict]] = [
            doc["instances"][i : i + size] for i in range(0, len(doc["instances"]), size)
        ]


def _check_hampath(inst: dict, model: dict[int, bool]) -> str | None:
    graph = GraphSpec.from_edges(inst["graph"]["n"], map(tuple, inst["graph"]["edges"]))
    path = decode_hamiltonian_path(graph, model)
    if sorted(path) != list(range(graph.n)):
        return "path does not visit every node once"
    if not all(graph.adjacent(u, v) for u, v in zip(path, path[1:])):
        return "path uses a missing edge"
    return None


def run_pass(suite: Suite, chunk: int, tracer: Tracer | None = None) -> PassResult:
    res = PassResult(counts=dict.fromkeys(STAT_COUNTS + ("sweep.steps", "circuit.nodes"), 0))

    def timed_solve(problem, config):
        res.attempted += 1
        t0 = perf_counter()
        try:
            result = solve(problem, config)
        finally:
            res.solve_times.append(perf_counter() - t0)
        for name in STAT_COUNTS:
            res.counts[name] += getattr(result.stats, name)
        if result.status is SolveStatus.BUDGET:
            raise RuntimeError("conflict budget exhausted")
        return result

    saved_solve = sweep_mod.solve
    sweep_mod.solve = timed_solve
    start = perf_counter()
    try:
        for idx, inst in enumerate(suite.chunks[chunk]):
            if tracer is not None:
                tracer.current_instance = chunk * len(suite.chunks[0]) + idx
            mode = NumericMode(inst["mode"])
            config = SolverConfig(numeric_mode=mode, max_conflicts=suite.max_conflicts)
            t0 = perf_counter()
            problem = problems.load_manifest(suite.dir / inst["manifest"])
            res.setup_s += perf_counter() - t0
            res.counts["circuit.nodes"] += sum(len(p.circuit.nodes) for p in problem.predicates)
            attempted = res.attempted
            try:
                error = _run_instance(inst, problem, config, mode, timed_solve, res)
            except Exception as exc:  # any raise is a failed solve, not a crash
                error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                res.failed += max(1, res.attempted - attempted)
                res.errors.append(f"{inst['manifest']}: {error}")
    finally:
        sweep_mod.solve = saved_solve
    res.wall_s = perf_counter() - start
    return res


def _run_instance(inst, problem, config, mode, timed_solve, res: PassResult) -> str | None:
    if "sweep" in inst:
        sw = inst["sweep"]
        result = sweep_mod.sweep(problem, 0, "up", sw["step"], sw["lo"], sw["hi"], config)
        res.counts["sweep.steps"] += len(result.trace)
        if result.best_threshold != inst["expected_best_threshold"]:
            return f"best threshold {result.best_threshold}, expected {inst['expected_best_threshold']}"
        if len(result.trace) != inst["expected_steps"] or result.flip_count() != 1:
            return f"sweep took {len(result.trace)} steps with {result.flip_count()} flips"
        checked = with_threshold(problem, 0, result.best_threshold)
        report = oracle.verify(checked, result.best_model, mode)
        return None if report.passed else "; ".join(report.failures())
    result = timed_solve(problem, config)
    if result.status.value != inst["expected"]:
        return f"status {result.status.value}, expected {inst['expected']}"
    if result.status is SolveStatus.SAT:
        report = oracle.verify(problem, result.model, mode)
        if not report.passed:
            return "; ".join(report.failures())
        if "graph" in inst:
            return _check_hampath(inst, result.model)
    return None


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(p for p in range(0, 100) if samples * (100 - p) >= 10 * 100)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(data_dir: Path, seconds: float, trace: bool, trace_out: Path | None) -> tuple[dict, PassResult]:
    """Measure one workload; returns the metrics and the merged pass result."""
    suite = Suite(data_dir)
    plain: list[tuple[int, PassResult]] = []
    traced: list[tuple[PassResult, dict[str, float]]] = []
    first_tracer: Tracer | None = None
    min_chunks = MIN_TRACED_CHUNKS if trace else len(suite.chunks)
    start = perf_counter()
    while True:
        chunk = len(plain) % len(suite.chunks)
        plain.append((chunk, run_pass(suite, chunk)))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                result = run_pass(suite, chunk, tracer)
            traced.append((result, tracer.self_times()))
            # Spans and counts come from the first chunk, which every run traces.
            first_tracer = first_tracer or tracer
        done = len(plain)
        elapsed = perf_counter() - start
        if done >= min_chunks and elapsed + elapsed / done > seconds:
            break
    passes = [r for _, r in plain] + [r for r, _ in traced]
    total = PassResult(
        attempted=sum(r.attempted for r in passes),
        failed=sum(r.failed for r in passes),
        errors=[e for r in passes for e in r.errors],
    )
    if first_tracer is not None:
        metrics = _layer_metrics(plain, traced, first_tracer)
        if trace_out is not None:
            first_tracer.write(trace_out)
    else:
        metrics = _end_to_end_metrics(suite, plain, total)
    return metrics, total


def _end_to_end_metrics(suite: Suite, plain: list[tuple[int, PassResult]], total: PassResult) -> dict:
    """Each chunk is one draw of the workload: `wall_s`, `setup_s` and
    `solve_s.tail` are taken per chunk and reported as their median over
    chunks; `solve_s.p50` is the median over every solve of the suite."""
    by_chunk: dict[int, list[PassResult]] = {}
    for chunk, r in plain:
        by_chunk.setdefault(chunk, []).append(r)
    wall, setup, tail, times = [], [], [], []
    for runs in by_chunk.values():
        wall.append(statistics.median(r.wall_s for r in runs))
        setup.append(statistics.median(r.setup_s for r in runs))
        # One sample per solve: its median over the chunk's passes.
        chunk_times = [statistics.median(ts) for ts in zip(*(r.solve_times for r in runs))]
        tail_p = tail_percentile(len(chunk_times))
        tail.append(percentile(chunk_times, tail_p))
        times.extend(chunk_times)
    print(
        f"# {suite.workload}: {len(plain)} passes over {len(by_chunk)} chunks, "
        f"{len(times)} solve() samples, {len(chunk_times)} per chunk; solve_s.tail is "
        f"the median over chunks of each chunk's p{tail_p}",
        file=sys.stderr,
    )
    return {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (statistics.median(tail), "s"),
        "solved_frac": (1.0 - total.failed / total.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# Per-layer time metrics: (metric name, span name whose self times add up).
LAYER_TIMES = (
    ("problems.load_manifest_self_s", "problems.load_manifest"),
    ("formula.parse_dimacs_s", "formula.parse_dimacs"),
    ("factorgraph.parse_uai_s", "factorgraph.parse_uai"),
    ("factorgraph.compile_s", "factorgraph.compile"),
    ("circuit.parse_pc_s", "circuit.parse_pc"),
    ("circuit.validate_s", "circuit.validate"),
    ("circuit.marginal_s", "circuit.marginal"),
    ("circuit.bound_init_s", "circuit.bound_init"),
    ("circuit.assign_s", "circuit.assign"),
    ("circuit.backtrack_s", "circuit.backtrack"),
    ("solver.init_self_s", "solver.init"),
    ("solver.propagate_self_s", "solver.propagate"),
    ("solver.analyze_s", "solver.analyze"),
    ("solver.decide_s", "solver.decide"),
    ("solver.backtrack_self_s", "solver.backtrack"),
    ("oracle.verify_s", "oracle.verify"),
)


def _layer_metrics(
    plain: list[tuple[int, PassResult]], traced: list[tuple[PassResult, dict[str, float]]], first: Tracer
) -> dict:
    """Median self times over traced passes; counts from the first chunk."""
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in LAYER_TIMES:
        metrics[metric] = (statistics.median(st[span] for _, st in traced), "s")
    counts = traced[0][0].counts
    assigns = first.count("circuit.assign")
    metrics["circuit.assign_calls"] = (assigns, "count")
    decisive = counts["prob_conflicts"] + counts["prob_entailments"]
    metrics["circuit.decisive_per_assign"] = (decisive / assigns if assigns else 0.0, "ratio")
    for name in STAT_COUNTS:
        metrics[f"solver.{name}"] = (counts[name], "count")
    metrics["sweep.steps"] = (counts["sweep.steps"], "count")
    metrics["circuit.nodes"] = (counts["circuit.nodes"], "count")
    # Untraced and traced passes alternate over the same chunks.
    plain_wall = statistics.median(r.wall_s for _, r in plain)
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics
