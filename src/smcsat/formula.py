"""CNF formulas, literals, clauses and partial assignments.

Literals are DIMACS-style signed integers: ``7`` is variable 7 set to True,
``-7`` is variable 7 set to False. Variable indices are 1-based externally.
"""

from __future__ import annotations

from dataclasses import dataclass

Var = int
Lit = int


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..num_vars.

    Clauses are tuples of signed literals. Parsed formulas carry no
    duplicate literals and no tautological clauses; an empty clause is
    legal and marks the formula as trivially falsified.
    """

    num_vars: int
    clauses: tuple[tuple[Lit, ...], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} vars")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class PartialAssignment:
    """Mutable variable assignment with a trail and decision levels.

    Owned by a single search at a time; the trail records literals in
    assignment order and ``trail_lim`` marks where each decision level
    starts.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self._value: list[bool | None] = [None] * (num_vars + 1)
        self._level: list[int] = [0] * (num_vars + 1)
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []

    @property
    def current_level(self) -> int:
        return len(self.trail_lim)

    def value(self, var: Var) -> bool | None:
        return self._value[var]

    def lit_value(self, lit: Lit) -> bool | None:
        v = self._value[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def level(self, var: Var) -> int:
        return self._level[var]

    def num_assigned(self) -> int:
        return len(self.trail)

    def new_decision_level(self) -> int:
        self.trail_lim.append(len(self.trail))
        return self.current_level

    def assign(self, lit: Lit) -> None:
        var = abs(lit)
        if self._value[var] is not None:
            raise ValueError(f"variable {var} already assigned")
        self._value[var] = lit > 0
        self._level[var] = self.current_level
        self.trail.append(lit)

    def backtrack_to(self, level: int) -> list[Lit]:
        """Undo all assignments above `level`; returns the removed literals."""
        if level >= self.current_level:
            return []
        cut = self.trail_lim[level]
        removed = self.trail[cut:]
        for lit in removed:
            self._value[abs(lit)] = None
        del self.trail[cut:]
        del self.trail_lim[level:]
        return removed

    def as_model(self) -> dict[Var, bool]:
        if len(self.trail) != self.num_vars:
            raise ValueError("assignment is not complete")
        return {v: self._value[v] for v in range(1, self.num_vars + 1)}  # type: ignore[misc]


def _clean_clause(lits: list[Lit]) -> tuple[Lit, ...] | None:
    """Deduplicate literals; returns None for tautologies."""
    seen: dict[Lit, None] = {}
    for lit in lits:
        if -lit in seen:
            return None
        seen.setdefault(lit, None)
    return tuple(seen)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document.

    Tautological clauses are dropped and duplicate literals removed.
    An empty clause (a bare ``0``) is kept: the formula then evaluates
    to falsified.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[Lit, ...]] = []
    clauses_read = 0
    current: list[Lit] = []

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"malformed header: {line!r}") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"malformed header: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError("clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"bad token {tok!r}") from exc
            if lit == 0:
                clauses_read += 1
                cleaned = _clean_clause(current)
                if cleaned is not None:
                    clauses.append(cleaned)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"literal {lit} exceeds {num_vars} variables")
                current.append(lit)

    if num_vars is None or num_clauses is None:
        raise DimacsError("missing header")
    if current:
        raise DimacsError("unterminated clause at end of input")
    if clauses_read != num_clauses:
        raise DimacsError(f"header declares {num_clauses} clauses, found {clauses_read}")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS; round-trips through parse_dimacs."""
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + (" 0" if clause else "0"))
    return "\n".join(lines) + "\n"
