"""CDCL search over CNF plus marginal-probability predicates.

Each predicate links a literal b to an inequality between a circuit's
marginal mass (shared formula variables fixed, the rest summed out) and a
threshold. During propagation the solver narrows each predicate's root
bounds once per round, whose literals are those one Boolean fixpoint
added, from `qhead` at the round's start: the shared variables among them
are applied as one batch, over the inner nodes whose scope they meet.
Every undecided predicate is checked in every round, after its batch for
that round, if any, is applied; no flag records which ones changed. That
is safe because a batch is checked in the loop step that applies it, so a
bounds state that a backtrack restores was already checked and found
undecided, and checking it again decides nothing. Once the bounds decide
the inequality it propagates b or raises a conflict, learning a clause
over the assigned shared variables. With bound tracking disabled,
predicates are checked exactly and only when fully assigned, which
reproduces the naive solver-plus-inference loop as an ablation baseline.
Either way, every predicate's shared variables start with a small VSIDS
activity, so they are decided first, as in the constrained order of
Oztok, Choi and Darwiche (KR 2016): a bound can decide a predicate only
as its shared variables get assigned. The first conflict's bump outranks
that start, and ties still go to the lowest index.

The Boolean core follows MiniSat. Binary clauses, which make up most of
an encoding such as the Hamiltonian path's, sit in per-literal
implication lists (`bins`) and never on the watch lists, which hold only
clauses of three or more literals. When a literal becomes false,
propagation walks its binary list first, then its watched clauses. A
variable's reason is the implying clause, or, when a binary clause
implied it, that clause's falsified literal, so a binary implication
allocates nothing.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
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


def check_predicate_fields(shared: dict, cmp: Comparator, q: float, mode: ThresholdMode, b: Lit | None) -> None:
    """Raise ValueError unless a predicate's own fields are well formed."""
    if not isinstance(cmp, Comparator):
        raise ValueError(f"cmp {cmp!r} is not a Comparator")
    if not isinstance(mode, ThresholdMode):
        raise ValueError(f"threshold_mode {mode!r} is not a ThresholdMode")
    # Types first, so an unhashable value never reaches set().
    for cvar, fvar in shared.items():
        if type(cvar) is not int or type(fvar) is not int:
            raise ValueError(f"shared map entry {cvar!r}: {fvar!r} is not an integer pair")
    if len(set(shared.values())) != len(shared):
        raise ValueError("shared map is not injective")
    if b is not None and (type(b) is not int or b == 0):
        raise ValueError(f"b literal {b!r} is not a nonzero integer")
    # The comparison also rejects NaN, infinities and ints beyond float range.
    if type(q) not in (int, float) or not abs(q) <= sys.float_info.max:
        raise ValueError(f"threshold {q!r} is not a finite number")


@dataclass(frozen=True)
class PredicateSpec:
    """One probabilistic predicate: b <=> (marginal cmp threshold).

    `shared_map` sends circuit variables to formula variables (injective);
    unmapped circuit variables are latent and always marginalized. A missing
    `b` makes the predicate hard: the inequality must hold. The fields pass
    `check_predicate_fields`, as a manifest's do: `cmp` and `threshold_mode`
    are enum members, not names, and `threshold` is a finite int or float.
    """

    circuit: Circuit
    shared_map: dict[int, Var]
    cmp: Comparator
    threshold: float
    threshold_mode: ThresholdMode = ThresholdMode.ABSOLUTE
    b: Lit | None = None

    def __post_init__(self) -> None:
        check_predicate_fields(self.shared_map, self.cmp, self.threshold, self.threshold_mode, self.b)
        for cvar in self.shared_map:
            if cvar < 0 or cvar >= self.circuit.num_vars:
                raise ValueError(f"shared circuit variable {cvar} out of range")
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
# The starting activity of every predicate's shared formula variables, so
# they are decided first; the first conflict's bump, 1.0, outranks it.
_SHARED_ACTIVITY = 1e-6
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
        if not isinstance(self.numeric_mode, NumericMode):
            raise ValueError(f"numeric_mode {self.numeric_mode!r} is not a NumericMode")
        conflicts, seconds = self.max_conflicts, self.max_seconds
        if conflicts is not None and (type(conflicts) is not int or conflicts < 0):
            raise ValueError("conflict budget must be a nonnegative int")
        # `not >=` also rejects NaN, which would never trip the budget.
        if seconds is not None and (type(seconds) not in (int, float) or not seconds >= 0):
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
    """`learned` lists the clauses the solve derived (learned conflict
    clauses and predicate reasons), in the order it attached them; each is
    implied by the problem."""

    status: SolveStatus
    model: dict[Var, bool] | None
    stats: Stats
    learned: list[list[Lit]]


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


class CdclSolver:
    """Single-use solver instance; build one per solve call.

    The assignment is kept in plain lists, as in MiniSat. ``value``,
    ``bins`` and ``watches`` are indexed by literal: slot ``v`` for the
    literal ``v`` and, through Python's negative indexing, slot ``-v`` for
    ``-v``, so ``value[lit]`` is the literal's truth value (None while
    unassigned). ``level`` and ``reason`` are indexed by variable; ``trail``
    lists the assigned literals in order, ``trail_lim`` where each decision
    level starts on it, and ``qhead`` where propagation stands on it. A
    propagation round reads the literals that its Boolean fixpoint added,
    from ``qhead`` at the round's start to the trail's end.

    Binary clauses, original or derived, live in implication lists:
    ``bins[lit]`` holds the other literal of each binary clause that
    contains ``lit``. ``watches[lit]`` holds the clauses of three or more
    literals watched on ``lit``, as the clause lists themselves. When a
    literal becomes false, propagation walks its binary list first and then
    its watched clauses. A variable's reason is None for a decision, the
    falsified literal of the binary clause that implied it (an ``int``),
    or else the implying clause itself.

    Original clauses are attached straight from the formula's tuples: a
    unit is assigned at level 0 with its tuple as reason, a binary goes
    into ``bins``, and only a clause of three or more literals is copied,
    once, into a list for the watches. ``learned`` lists the derived
    clauses (learned conflict clauses and predicate reasons) in the order
    they were attached.
    """

    def __init__(self, problem: SmcProblem, config: SolverConfig | None = None):
        self.cfg = config or SolverConfig()
        nv = problem.cnf.num_vars
        self.num_vars = nv
        self.value: list[bool | None] = [None] * (2 * nv + 1)
        self.level = [0] * (nv + 1)
        self.reason: list[Lit | Sequence[Lit] | None] = [None] * (nv + 1)
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []
        self.learned: list[list[Lit]] = []
        self.bins: list[list[Lit]] = [[] for _ in range(2 * nv + 1)]
        self.watches: list[list[list[Lit]]] = [[] for _ in range(2 * nv + 1)]
        self.activity = [0.0] * (nv + 1)
        self.var_inc = 1.0
        self.phase = [False] * (nv + 1)
        self.stats = Stats()
        self.ok = True
        for clause in problem.cnf.clauses:
            if len(clause) > 1:
                self._attach(clause if len(clause) == 2 else list(clause))
            elif not clause or self.value[clause[0]] is False:
                self.ok = False  # an empty clause, or a unit already false
            elif self.value[clause[0]] is None:
                self._assign(clause[0], clause)
        self.preds = [_PredState(p, self.cfg.numeric_mode, self.cfg.ulw_enabled) for p in problem.predicates]
        # formula var -> [(predicate index, circuit var)], for the bound
        # updates; without bound tracking there are none.
        self.shared_occ: dict[Var, list[tuple[int, int]]] = {}
        for pi, ps in enumerate(self.preds):
            for cvar, fvar in ps.shared_items:
                self.activity[fvar] = _SHARED_ACTIVITY
                if ps.bounds is not None:
                    self.shared_occ.setdefault(fvar, []).append((pi, cvar))
        self.qhead = 0

    # ------------------------------------------------------------------ db

    def _attach(self, lits: Sequence[Lit]) -> None:
        """Put a binary clause in the binary lists, or a longer one, as a
        list that propagation reorders, on the watch lists of its first two
        literals."""
        a, b = lits[0], lits[1]
        if len(lits) == 2:
            self.bins[a].append(b)
            self.bins[b].append(a)
        else:
            self.watches[a].append(lits)
            self.watches[b].append(lits)

    def _add_derived(self, lits: list[Lit]) -> Lit | list[Lit]:
        """Attach a learned or predicate-reason clause; returns the reason
        to record for its first literal.

        lits[0] must be the asserting/implied literal; lits[1] becomes the
        deepest-assigned remaining literal, so a long clause's watch
        invariant survives backtracking.
        """
        self.learned.append(lits)
        self.stats.learned_clauses += 1
        if len(lits) == 1:
            return lits
        level = self.level
        deepest, deepest_level = 1, level[abs(lits[1])]
        for i in range(2, len(lits)):
            lvl = level[abs(lits[i])]
            if lvl > deepest_level:
                deepest, deepest_level = i, lvl
        lits[1], lits[deepest] = lits[deepest], lits[1]
        self._attach(lits)
        return lits[1] if len(lits) == 2 else lits

    # --------------------------------------------------------- propagation

    def _assign(self, lit: Lit, reason: Lit | Sequence[Lit] | None) -> None:
        """Make `lit` true at the current decision level."""
        var = abs(lit)
        assert self.value[lit] is None, f"variable {var} already assigned"
        self.value[lit] = True
        self.value[-lit] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate_bool(self) -> list[Lit] | None:
        """Unit propagation over the binary lists and the watched long
        clauses; returns a falsified clause as a new list, or None."""
        value, level, reason, trail = self.value, self.level, self.reason, self.trail
        bins, watches = self.bins, self.watches
        lvl = len(self.trail_lim)
        qhead = self.qhead
        start = len(trail)
        conflict: list[Lit] | None = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            for other in bins[false_lit]:
                val = value[other]
                if val is None:
                    value[other] = True
                    value[-other] = False
                    var = other if other > 0 else -other
                    level[var] = lvl
                    reason[var] = false_lit
                    trail.append(other)
                elif val is False:
                    conflict = [other, false_lit]
                    break
            if conflict is not None:
                break
            old = watches[false_lit]
            kept: list[list[Lit]] = []
            for pos, cl in enumerate(old):
                first = cl[0]
                if first == false_lit:
                    first = cl[0] = cl[1]
                    cl[1] = false_lit
                val = value[first]
                if val is True:
                    kept.append(cl)
                    continue
                for k in range(2, len(cl)):
                    lit = cl[k]
                    if value[lit] is not False:
                        cl[1] = lit
                        cl[k] = false_lit
                        watches[lit].append(cl)
                        break
                else:
                    kept.append(cl)
                    if val is False:
                        kept.extend(old[pos + 1 :])
                        conflict = list(cl)
                        break
                    value[first] = True
                    value[-first] = False
                    var = first if first > 0 else -first
                    level[var] = lvl
                    reason[var] = cl
                    trail.append(first)
            watches[false_lit] = kept
            if conflict is not None:
                break
        self.stats.boolean_propagations += len(trail) - start
        self.qhead = len(trail)
        return conflict

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
        m = marginal(ps.spec.circuit, values, self.cfg.numeric_mode)
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

        Returns a conflict clause (as literals) or None. A round that
        entails b literals (assigned with materialized reason clauses)
        appends past ``qhead``, and so starts another round.
        """
        while True:
            start = self.qhead
            conflict = self._propagate_bool()
            if conflict is not None:
                self.stats.boolean_conflicts += 1
                return conflict
            if not self.preds:
                return None
            # predicate index -> (circuit var, value) pairs assigned this round
            batches: dict[int, list[tuple[int, bool]]] = {}
            for lit in self.trail[start:]:
                for pi, cvar in self.shared_occ.get(abs(lit), ()):
                    batches.setdefault(pi, []).append((cvar, lit > 0))
            for pi, ps in enumerate(self.preds):
                if ps.decided_level is not None:
                    continue
                if pi in batches:
                    # Every scanned literal is at the current level.
                    ps.bounds.assign(batches[pi], len(self.trail_lim))
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
                    reason = self._add_derived(probabilistic_clause(implied, self._assigned_shared_lits(ps)))
                    self._assign(implied, reason)
                    self.stats.prob_entailments += 1
            if self.qhead == len(self.trail):  # no entailment this round
                return None

    # ------------------------------------------------------------ conflicts

    def _rescale(self) -> None:
        """Scale every activity and the bump by 1e-100 once one passes 1e100."""
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self.var_inc *= 1e-100

    def analyze(self, conflict: Sequence[Lit]) -> tuple[list[Lit], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level).

        The learned clause's first literal is the asserting one. Must only
        be called for conflicts above decision level 0. A reason that is an
        ``int`` is the one other literal of a binary clause.
        """
        levels, reason, trail, activity = self.level, self.reason, self.trail, self.activity
        level = len(self.trail_lim)
        inc = self.var_inc
        seen = [False] * (self.num_vars + 1)
        tail: list[Lit] = []
        counter = 0
        reason_lits: Sequence[Lit] = conflict
        p: Lit | None = None
        idx = len(trail) - 1
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and levels[v] > 0:
                    seen[v] = True
                    activity[v] += inc
                    if activity[v] > 1e100:
                        self._rescale()
                        inc = self.var_inc
                    if levels[v] >= level:
                        counter += 1
                    else:
                        tail.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            r = reason[abs(p)]
            assert r is not None, "resolved a decision before the UIP"
            reason_lits = (r,) if type(r) is int else r
        learned = [-p] + tail
        backjump = 0
        if tail:
            backjump = max(levels[abs(q)] for q in tail)
        return learned, backjump

    def backtrack(self, level: int) -> None:
        """Undo assignments, bound updates and settled flags above `level`."""
        if level < len(self.trail_lim):
            value, phase, trail = self.value, self.phase, self.trail
            cut = self.trail_lim[level]
            for lit in trail[cut:]:
                value[lit] = value[-lit] = None
                phase[abs(lit)] = lit > 0
            del trail[cut:]
            del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))
        for ps in self.preds:
            if ps.bounds is not None:
                ps.bounds.backtrack_bounds(level)
            if ps.decided_level is not None and ps.decided_level > level:
                ps.decided_level = None

    def decide(self) -> Lit:
        """Pick the unassigned variable with highest activity, saved phase."""
        value, activity = self.value, self.activity
        best: Var | None = None
        best_act = -1.0
        for v in range(1, self.num_vars + 1):
            if value[v] is None and activity[v] > best_act:
                best = v
                best_act = activity[v]
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
        return SolveResult(status, model, self.stats, self.learned)

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
                self._assign(learned[0], self._add_derived(learned))
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
