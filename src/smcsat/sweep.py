"""Threshold sweeps: locate the feasibility boundary of one predicate.

Re-solves the problem at evenly spaced thresholds, stopping at the first
point not found feasible (UNSAT, or out of budget); the last feasible
threshold and its model are the "best plan". Every step is a fresh solve.
Reusing learned clauses across steps is unsound for a soft predicate, whose
entailment clauses depend on the threshold, and for a sweep that loosens
the threshold. For a hard predicate that the sweep tightens (``ge`` going
up, ``le`` going down), each step's models are a subset of the last step's,
so earlier clauses would stay valid; the sweep does not exploit that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .solver import SmcProblem, SolveResult, SolveStatus, SolverConfig, Stats, solve
from .formula import Var


@dataclass(frozen=True)
class SweepPoint:
    q: float
    status: SolveStatus
    stats: Stats


@dataclass(frozen=True)
class SweepResult:
    best_threshold: float | None
    best_model: dict[Var, bool] | None
    trace: tuple[SweepPoint, ...]

    @property
    def feasible(self) -> bool:
        return self.best_threshold is not None

    def flip_count(self) -> int:
        """Number of status changes along the trace (1 = single clean flip)."""
        flips = 0
        for prev, cur in zip(self.trace, self.trace[1:]):
            if cur.status is not prev.status:
                flips += 1
        return flips


def with_threshold(p: SmcProblem, predicate_index: int, q: float) -> SmcProblem:
    """Copy of the problem with one predicate's threshold replaced."""
    preds = list(p.predicates)
    preds[predicate_index] = replace(preds[predicate_index], threshold=q)
    return SmcProblem(cnf=p.cnf, predicates=tuple(preds))


def sweep(
    p: SmcProblem,
    predicate_index: int,
    direction: str = "up",
    step: float = 1e-2,
    lo: float = 0.0,
    hi: float = 1.0,
    config: SolverConfig | None = None,
) -> SweepResult:
    """Linear threshold sweep that stops at the first step not found SAT.

    Direction "up" walks lo, lo+step, ... and tightens a lower-bound style
    predicate; "down" mirrors from hi. The threshold is interpreted in the
    predicate's own threshold mode at every step. An UNSAT step marks the
    boundary; a step that ran out of budget (the last trace point's status
    is BUDGET) marks none, and `best_threshold` is only the last one found SAT.
    """
    if not all(math.isfinite(x) for x in (step, lo, hi)):
        raise ValueError("step, lo and hi must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if lo >= hi:
        raise ValueError("lo must be below hi")
    if not 0 <= predicate_index < len(p.predicates):
        raise ValueError(f"predicate index {predicate_index} out of range")
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")

    count = (hi - lo) / step
    if not math.isfinite(count):
        raise ValueError(f"step {step} from lo {lo} to hi {hi} gives no finite step count")
    # Generated one at a time: a fine step must not build the grid up front.
    steps = range(int(count + 1e-9) + 1)
    if direction == "up":
        thresholds = (lo + i * step for i in steps)
    else:
        thresholds = (hi - i * step for i in steps)

    best_q: float | None = None
    best_model: dict[Var, bool] | None = None
    trace: list[SweepPoint] = []
    for q in thresholds:
        result: SolveResult = solve(with_threshold(p, predicate_index, q), config)
        trace.append(SweepPoint(q, result.status, result.stats))
        if result.status is not SolveStatus.SAT:
            break
        best_q = q
        best_model = result.model
    return SweepResult(best_q, best_model, tuple(trace))
