"""Threshold sweeps: locate the feasibility boundary of one predicate.

Re-solves the problem at evenly spaced thresholds, stopping at the first
point not found feasible (UNSAT, or out of budget); the last feasible
threshold and its model are the "best plan". Each step is one `solve` call.
For a hard predicate that the sweep tightens (``ge``/``gt`` going up,
``le``/``lt`` going down), each step's CNF is the last step's plus the
clauses that step learned: root bounds do not depend on the threshold, so
a partial assignment refuted at q is refuted at every tighter q' (an
absolute, partition-fraction or log threshold is monotone in q), and every
carried clause holds in every model of every later step. A soft
predicate's entailment clauses depend on the threshold, and a loosening
sweep admits models that earlier clauses exclude, so those sweeps solve
every step afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .formula import CnfFormula, Var
from .solver import _COMPARATORS, SmcProblem, SolveResult, SolveStatus, SolverConfig, Stats, solve


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
    A sweep that tightens a hard predicate carries each SAT step's learned
    clauses into the next step's CNF.
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

    pred = p.predicates[predicate_index]
    rising = _COMPARATORS[pred.cmp][2]
    carry = pred.b is None and rising == (direction == "up")

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
        if carry:
            p = replace(p, cnf=CnfFormula(p.cnf.num_vars, p.cnf.clauses + tuple(result.learned)))
    return SweepResult(best_q, best_model, tuple(trace))
