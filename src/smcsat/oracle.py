"""Brute-force SMC solving and model verification.

This module is the ground truth the search solver is tested against: it
enumerates every assignment, evaluates predicate marginals exactly, and
never shares search machinery with the CDCL path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import NumericMode, marginal
from .formula import Var
from .solver import Comparator, SmcProblem, SolveStatus, cmp_holds


@dataclass(frozen=True)
class PredicateCheck:
    index: int
    marginal: float
    resolved_threshold: float
    cmp: Comparator
    holds: bool
    b_value: bool
    consistent: bool


@dataclass(frozen=True)
class VerificationReport:
    clause_ok: tuple[bool, ...]
    predicate_checks: tuple[PredicateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(self.clause_ok) and all(c.consistent for c in self.predicate_checks)

    def failures(self) -> list[str]:
        out = [f"clause {i} violated" for i, ok in enumerate(self.clause_ok) if not ok]
        out.extend(
            f"predicate {c.index} inconsistent (marginal {c.marginal}, "
            f"{c.cmp.value} {c.resolved_threshold}, holds={c.holds}, b={c.b_value})"
            for c in self.predicate_checks
            if not c.consistent
        )
        return out


def verify(
    p: SmcProblem,
    model: dict[Var, bool],
    mode: NumericMode = NumericMode.LINEAR,
) -> VerificationReport:
    """Check a full model against every clause and predicate biconditional."""
    for var in range(1, p.cnf.num_vars + 1):
        if var not in model:
            raise ValueError(f"model does not assign variable {var}")
    clause_ok = tuple(
        any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in p.cnf.clauses
    )
    checks = []
    for i, pred in enumerate(p.predicates):
        q = pred.resolved_threshold(mode)
        values = {cvar: model[fvar] for cvar, fvar in pred.shared_map.items()}
        m = marginal(pred.circuit, values, mode)
        holds = cmp_holds(pred.cmp, m, q)
        b_value = True if pred.b is None else model[abs(pred.b)] == (pred.b > 0)
        checks.append(
            PredicateCheck(
                index=i,
                marginal=m,
                resolved_threshold=q,
                cmp=pred.cmp,
                holds=holds,
                b_value=b_value,
                consistent=b_value == holds,
            )
        )
    return VerificationReport(clause_ok, tuple(checks))


@dataclass(frozen=True)
class BruteForceResult:
    status: SolveStatus
    models: tuple[dict[Var, bool], ...]

    @property
    def model_count(self) -> int:
        return len(self.models)


def brute_solve(
    p: SmcProblem,
    cap: int = 24,
    mode: NumericMode = NumericMode.LINEAR,
) -> BruteForceResult:
    """Enumerate all assignments, keeping exactly the SMC models.

    Predicate marginals are memoized per shared projection.
    """
    n = p.cnf.num_vars
    if n > cap:
        raise ValueError(f"{n} variables exceed enumeration cap {cap}")
    resolved = [pred.resolved_threshold(mode) for pred in p.predicates]
    shared_items = [sorted(pred.shared_map.items()) for pred in p.predicates]
    caches: list[dict[tuple[bool, ...], bool]] = [{} for _ in p.predicates]
    models: list[dict[Var, bool]] = []
    clauses = p.cnf.clauses
    for mask in range(1 << n):
        values = [False] + [bool((mask >> (v - 1)) & 1) for v in range(1, n + 1)]
        ok = True
        for clause in clauses:
            sat = False
            for lit in clause:
                if values[abs(lit)] == (lit > 0):
                    sat = True
                    break
            if not sat:
                ok = False
                break
        if not ok:
            continue
        for i, pred in enumerate(p.predicates):
            key = tuple(values[fvar] for _, fvar in shared_items[i])
            holds = caches[i].get(key)
            if holds is None:
                assignment = {cvar: values[fvar] for cvar, fvar in shared_items[i]}
                m = marginal(pred.circuit, assignment, mode)
                holds = cmp_holds(pred.cmp, m, resolved[i])
                caches[i][key] = holds
            b_value = True if pred.b is None else values[abs(pred.b)] == (pred.b > 0)
            if b_value != holds:
                ok = False
                break
        if ok:
            models.append({v: values[v] for v in range(1, n + 1)})
    status = SolveStatus.SAT if models else SolveStatus.UNSAT
    return BruteForceResult(status, tuple(models))
