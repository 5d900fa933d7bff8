"""CDCL search over CNF plus marginal-probability predicates.

Each predicate links a literal b to an inequality between a circuit's
marginal mass (shared formula variables fixed, the rest summed out) and a
threshold. During propagation the solver narrows each predicate's root
bounds once per round: the shared variables assigned since the last check
are applied as one batch, over the inner nodes whose scope they meet,
before the bounds are read. Once the bounds decide the inequality it
propagates b or raises a conflict, learning a clause over the assigned
shared variables. With bound tracking disabled, predicates are checked
exactly and only when fully assigned, which reproduces the naive
solver-plus-inference loop as an ablation baseline.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuit import BoundState, Circuit, NumericMode, marginal, partition
from .formula import CnfFormula, Lit, Var


class Comparator(enum.Enum):
    GE = "ge"
    GT = "gt"
    LE = "le"
    LT = "lt"


class ThresholdMode(enum.Enum):
    ABSOLUTE = "absolute"
    PARTITION_FRACTION = "partition_fraction"


@dataclass(frozen=True)
class PredicateSpec:
    """One probabilistic predicate: b <=> (marginal cmp threshold).

    `shared_map` sends circuit variables to formula variables (injective);
    unmapped circuit variables are latent and always marginalized. A missing
    `b` makes the predicate hard: the inequality must hold.
    """

    circuit: Circuit
    shared_map: dict[int, Var]
    cmp: Comparator
    threshold: float
    threshold_mode: ThresholdMode = ThresholdMode.ABSOLUTE
    b: Lit | None = None

    def __post_init__(self) -> None:
        if len(set(self.shared_map.values())) != len(self.shared_map):
            raise ValueError("shared map is not injective")
        for cvar in self.shared_map:
            if cvar < 0 or cvar >= self.circuit.num_vars:
                raise ValueError(f"shared circuit variable {cvar} out of range")
        if self.b == 0:
            raise ValueError("b literal must be nonzero")
        self.circuit.require_valid()

    def resolved_threshold(self, mode: NumericMode = NumericMode.LINEAR) -> float:
        """Threshold in the numeric mode's value space."""
        if mode is NumericMode.LINEAR:
            if self.threshold_mode is ThresholdMode.PARTITION_FRACTION:
                return self.threshold * partition(self.circuit)
            return self.threshold
        if self.threshold < 0.0:
            raise ValueError("log mode requires nonnegative thresholds")
        log_t = math.log(self.threshold) if self.threshold > 0.0 else -math.inf
        if self.threshold_mode is ThresholdMode.PARTITION_FRACTION:
            return log_t + partition(self.circuit, NumericMode.LOG)
        return log_t


@dataclass(frozen=True)
class SmcProblem:
    cnf: CnfFormula
    predicates: tuple[PredicateSpec, ...] = ()

    def __post_init__(self) -> None:
        for i, pred in enumerate(self.predicates):
            for fvar in pred.shared_map.values():
                if fvar < 1 or fvar > self.cnf.num_vars:
                    raise ValueError(f"predicate {i}: formula variable {fvar} out of range")
            if pred.b is not None and abs(pred.b) > self.cnf.num_vars:
                raise ValueError(f"predicate {i}: b literal {pred.b} out of range")


# VSIDS: the activity bump grows by 1/decay after each conflict.
_ACTIVITY_DECAY = 0.95
# Restart after this many conflicts times the next Luby term.
_RESTART_BASE = 100


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET = "budget-exhausted"


@dataclass
class SolverConfig:
    ulw_enabled: bool = True
    numeric_mode: NumericMode = NumericMode.LINEAR
    max_conflicts: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_conflicts is not None and self.max_conflicts < 0:
            raise ValueError("conflict budget must be nonnegative")
        # `not >=` also rejects NaN, which would never trip the budget.
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError("time budget must be a nonnegative number")


@dataclass
class Stats:
    decisions: int = 0
    boolean_propagations: int = 0
    boolean_conflicts: int = 0
    prob_conflicts: int = 0
    prob_entailments: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    wall_time: float = 0.0

    @property
    def conflicts(self) -> int:
        return self.boolean_conflicts + self.prob_conflicts


@dataclass
class SolveResult:
    status: SolveStatus
    model: dict[Var, bool] | None
    stats: Stats


# Per comparator: the test that the value satisfies it, the test that it
# does not, and whether it holds more readily as the value rises (so its
# lower bound entails it and its upper bound refutes it).
_COMPARATORS = {
    Comparator.GE: (operator.ge, operator.lt, True),
    Comparator.GT: (operator.gt, operator.le, True),
    Comparator.LE: (operator.le, operator.gt, False),
    Comparator.LT: (operator.lt, operator.ge, False),
}


def cmp_holds(cmp: Comparator, value: float, threshold: float) -> bool:
    """Exact comparison of an inference value against a threshold."""
    return _COMPARATORS[cmp][0](value, threshold)


def inequality_status(cmp: Comparator, threshold: float, lb: float, ub: float) -> bool | None:
    """True/False when the root bounds decide the inequality, else None; a
    NaN bound decides nothing, since every comparison with it is false."""
    holds, refutes, rising = _COMPARATORS[cmp]
    worst, best = (lb, ub) if rising else (ub, lb)
    if holds(worst, threshold):
        return True
    if refutes(best, threshold):
        return False
    return None


def probabilistic_clause(implied: Lit | None, assigned_shared: Iterable[Lit]) -> list[Lit]:
    """Clause recording a predicate entailment or conflict.

    `assigned_shared` holds the predicate's currently assigned shared
    variables as true literals; the clause negates each of them, prefixed
    by the implied/complemented b literal when the predicate is soft.
    """
    clause = [] if implied is None else [implied]
    clause.extend(-lit for lit in assigned_shared)
    return clause


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _PredState:
    """Solver-side bookkeeping for one predicate."""

    def __init__(self, spec: PredicateSpec, mode: NumericMode, ulw: bool):
        self.spec = spec
        self.shared_items = sorted((cvar, fvar) for cvar, fvar in spec.shared_map.items())
        self.bounds = BoundState(spec.circuit, spec.shared_map.keys(), mode) if ulw else None
        self.resolved_q = spec.resolved_threshold(mode)
        self.decided_level: int | None = None
        self.dirty = True
        # (circuit var, value) pairs scanned but not yet applied to `bounds`.
        self.pending: list[tuple[int, bool]] = []


class CdclSolver:
    """Single-use solver instance; build one per solve call.

    The assignment is kept in plain lists, as in MiniSat. ``value`` and
    ``watches`` are indexed by literal: slot ``v`` for the literal ``v`` and,
    through Python's negative indexing, slot ``-v`` for ``-v``, so
    ``value[lit]`` is the literal's truth value (None while unassigned).
    ``level`` and ``reason`` are indexed by variable; ``trail`` lists the
    assigned literals in order and ``trail_lim`` where each decision level
    starts on it.
    """

    def __init__(self, problem: SmcProblem, config: SolverConfig | None = None):
        self.cfg = config or SolverConfig()
        self.mode = self.cfg.numeric_mode
        nv = problem.cnf.num_vars
        self.num_vars = nv
        self.value: list[bool | None] = [None] * (2 * nv + 1)
        self.level = [0] * (nv + 1)
        self.reason: list[int | None] = [None] * (nv + 1)
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []
        self.clauses: list[list[Lit]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * nv + 1)]
        self.activity = [0.0] * (nv + 1)
        self.var_inc = 1.0
        self.phase = [False] * (nv + 1)
        self.stats = Stats()
        self.ok = True
        for clause in problem.cnf.clauses:
            self._add_clause(list(clause))
        self.preds = [_PredState(p, self.mode, self.cfg.ulw_enabled) for p in problem.predicates]
        # formula var -> [(predicate index, circuit var)]
        self.shared_occ: dict[Var, list[tuple[int, int]]] = {}
        for pi, ps in enumerate(self.preds):
            for cvar, fvar in ps.shared_items:
                self.shared_occ.setdefault(fvar, []).append((pi, cvar))
        self.qhead = 0
        self.pred_qhead = 0

    # ------------------------------------------------------------------ db

    def _add_clause(self, lits: list[Lit]) -> None:
        """Attach an original clause and enqueue it at level 0 if it is a
        unit; an empty clause or a unit that is already false makes the
        problem UNSAT."""
        if not lits:
            self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(lits)
        if len(lits) == 1:
            if not self._enqueue(lits[0], idx):
                self.ok = False
        else:
            self.watches[lits[0]].append(idx)
            self.watches[lits[1]].append(idx)

    def _add_derived(self, lits: list[Lit]) -> int:
        """Attach a learned or predicate-reason clause.

        lits[0] must be the asserting/implied literal; the second watch is
        the deepest-assigned remaining literal so the watch invariant
        survives backtracking.
        """
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.stats.learned_clauses += 1
        if len(lits) >= 2:
            deepest = max(range(1, len(lits)), key=lambda i: self.level[abs(lits[i])])
            lits[1], lits[deepest] = lits[deepest], lits[1]
            self.watches[lits[0]].append(idx)
            self.watches[lits[1]].append(idx)
        return idx

    # --------------------------------------------------------- propagation

    def _assign(self, lit: Lit, reason_idx: int | None) -> None:
        """Make `lit` true at the current decision level."""
        var = abs(lit)
        assert self.value[lit] is None, f"variable {var} already assigned"
        self.value[lit] = True
        self.value[-lit] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_idx
        self.trail.append(lit)

    def _enqueue(self, lit: Lit, reason_idx: int | None) -> bool:
        """Assign `lit` unless it is set; False when it is already false."""
        val = self.value[lit]
        if val is None:
            self._assign(lit, reason_idx)
            return True
        return val

    def _propagate_bool(self) -> int | None:
        """Watched-literal unit propagation; returns a falsified clause index."""
        value, clauses, watches, trail = self.value, self.clauses, self.watches, self.trail
        while self.qhead < len(trail):
            false_lit = -trail[self.qhead]
            self.qhead += 1
            old = watches[false_lit]
            kept: list[int] = []
            for pos, idx in enumerate(old):
                cl = clauses[idx]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = value[cl[0]]
                if first is True:
                    kept.append(idx)
                    continue
                for k in range(2, len(cl)):
                    if value[cl[k]] is not False:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches[cl[1]].append(idx)
                        break
                else:
                    kept.append(idx)
                    if first is False:
                        kept.extend(old[pos + 1 :])
                        watches[false_lit] = kept
                        self.qhead = len(trail)
                        return idx
                    self._assign(cl[0], idx)
                    self.stats.boolean_propagations += 1
            watches[false_lit] = kept
        return None

    def _pred_bounds(self, ps: _PredState) -> tuple[float, float] | None:
        """Current (ub, lb) for a predicate, or None when not yet available."""
        if ps.bounds is not None:
            return ps.bounds.root_bounds()
        values: dict[int, bool] = {}
        for cvar, fvar in ps.shared_items:
            val = self.value[fvar]
            if val is None:
                return None
            values[cvar] = val
        m = marginal(ps.spec.circuit, values, self.mode)
        return m, m

    def _assigned_shared_lits(self, ps: _PredState) -> list[Lit]:
        out = []
        for _, fvar in ps.shared_items:
            val = self.value[fvar]
            if val is not None:
                out.append(fvar if val else -fvar)
        return out

    def propagate(self) -> list[Lit] | None:
        """Run Boolean and predicate propagation to fixpoint.

        Returns a conflict clause (as literals) or None. Predicate-implied
        b literals are enqueued with materialized reason clauses and Boolean
        propagation is re-run until nothing changes.
        """
        while True:
            confl = self._propagate_bool()
            if confl is not None:
                self.stats.boolean_conflicts += 1
                return list(self.clauses[confl])
            if not self.preds:
                return None
            while self.pred_qhead < len(self.trail):
                lit = self.trail[self.pred_qhead]
                self.pred_qhead += 1
                for pi, cvar in self.shared_occ.get(abs(lit), ()):
                    ps = self.preds[pi]
                    if ps.decided_level is not None:
                        continue
                    if ps.bounds is not None:
                        ps.pending.append((cvar, lit > 0))
                    ps.dirty = True
            progressed = False
            for ps in self.preds:
                if ps.decided_level is not None or not ps.dirty:
                    continue
                ps.dirty = False
                if ps.pending:
                    # Every scanned literal is at the current level.
                    ps.bounds.assign(ps.pending, len(self.trail_lim))
                    ps.pending.clear()
                bounds = self._pred_bounds(ps)
                if bounds is None:
                    continue
                ub, lb = bounds
                if lb == math.inf:
                    # Every completion's mass overflows; log mode has no +inf.
                    raise ValueError("marginal is infinite: linear-mode overflow; try --mode log")
                status = inequality_status(ps.spec.cmp, ps.resolved_q, lb, ub)
                if status is None:
                    continue
                b = ps.spec.b
                implied = None if b is None else (b if status else -b)
                # A hard predicate (no b) must hold; a soft one conflicts when
                # b is already assigned against the bounds' verdict.
                b_value = True if b is None else self.value[b]
                if b_value is not None and b_value != status:
                    self.stats.prob_conflicts += 1
                    return probabilistic_clause(implied, self._assigned_shared_lits(ps))
                ps.decided_level = len(self.trail_lim)
                if b_value is None:
                    idx = self._add_derived(probabilistic_clause(implied, self._assigned_shared_lits(ps)))
                    assigned = self._enqueue(implied, idx)
                    assert assigned
                    self.stats.prob_entailments += 1
                    progressed = True
            if not progressed:
                return None

    # ------------------------------------------------------------ conflicts

    def _bump(self, var: Var) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def analyze(self, conflict: Sequence[Lit]) -> tuple[list[Lit], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level).

        The learned clause's first literal is the asserting one. Must only
        be called for conflicts above decision level 0.
        """
        level = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        tail: list[Lit] = []
        counter = 0
        reason_lits: Sequence[Lit] = conflict
        p: Lit | None = None
        idx = len(self.trail) - 1
        while True:
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= level:
                        counter += 1
                    else:
                        tail.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_idx = self.reason[abs(p)]
            assert reason_idx is not None, "resolved a decision before the UIP"
            reason_lits = self.clauses[reason_idx]
        learned = [-p] + tail
        backjump = 0
        if tail:
            backjump = max(self.level[abs(q)] for q in tail)
        return learned, backjump

    def backtrack(self, level: int) -> None:
        """Undo assignments, bound updates and settled flags above `level`."""
        if level < len(self.trail_lim):
            cut = self.trail_lim[level]
            for lit in self.trail[cut:]:
                self.value[lit] = self.value[-lit] = None
                self.phase[abs(lit)] = lit > 0
            del self.trail[cut:]
            del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))
        self.pred_qhead = min(self.pred_qhead, len(self.trail))
        for ps in self.preds:
            # A conflict can return before a later predicate's batch is applied.
            ps.pending.clear()
            if ps.bounds is not None:
                ps.bounds.backtrack_bounds(level)
            if ps.decided_level is not None and ps.decided_level > level:
                ps.decided_level = None
                ps.dirty = True

    def decide(self) -> Lit:
        """Pick the unassigned variable with highest activity, saved phase."""
        best: Var | None = None
        best_act = -1.0
        for v in range(1, self.num_vars + 1):
            if self.value[v] is None and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        assert best is not None
        lit = best if self.phase[best] else -best
        self.trail_lim.append(len(self.trail))
        self._assign(lit, None)
        self.stats.decisions += 1
        self.stats.max_decision_level = max(self.stats.max_decision_level, len(self.trail_lim))
        return lit

    # ---------------------------------------------------------------- main

    def solve(self) -> SolveResult:
        start = time.monotonic()
        try:
            status, model = self._search(start)
        finally:
            self.stats.wall_time = time.monotonic() - start
        return SolveResult(status, model, self.stats)

    def _out_of_budget(self, start: float) -> bool:
        if self.cfg.max_conflicts is not None and self.stats.conflicts > self.cfg.max_conflicts:
            return True
        if self.cfg.max_seconds is not None and time.monotonic() - start > self.cfg.max_seconds:
            return True
        return False

    def _search(self, start: float) -> tuple[SolveStatus, dict[Var, bool] | None]:
        if not self.ok:
            return SolveStatus.UNSAT, None
        conflicts_since_restart = 0
        restart_limit = _RESTART_BASE * luby(self.stats.restarts + 1)
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return SolveStatus.UNSAT, None
                learned, backjump = self.analyze(conflict)
                self.backtrack(backjump)
                idx = self._add_derived(learned)
                assigned = self._enqueue(learned[0], idx)
                assert assigned
                self.var_inc /= _ACTIVITY_DECAY
                conflicts_since_restart += 1
                if self._out_of_budget(start):
                    return SolveStatus.BUDGET, None
                continue
            if len(self.trail) == self.num_vars:
                # Equal, non-NaN root bounds always settle; NaN ones come
                # from a linear-mode product that overflows and meets a zero.
                for i, ps in enumerate(self.preds):
                    if ps.decided_level is None:
                        raise ValueError(
                            f"predicate {i} unsettled at full assignment, root bounds "
                            f"{self._pred_bounds(ps)}: linear-mode overflow; try --mode log"
                        )
                return SolveStatus.SAT, {v: self.value[v] for v in range(1, self.num_vars + 1)}
            if self._out_of_budget(start):
                return SolveStatus.BUDGET, None
            if conflicts_since_restart >= restart_limit:
                self.stats.restarts += 1
                conflicts_since_restart = 0
                restart_limit = _RESTART_BASE * luby(self.stats.restarts + 1)
                if self.trail_lim:
                    self.backtrack(0)
            self.decide()


def solve(problem: SmcProblem, config: SolverConfig | None = None) -> SolveResult:
    """Solve an SMC problem; deterministic for a fixed problem and config."""
    return CdclSolver(problem, config).solve()
