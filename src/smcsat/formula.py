"""CNF formulas, literals and clauses, with DIMACS I/O.

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

    ``clauses`` may be given as any sequences of literals. Every formula,
    parsed or built through the API, stores them in one normal form: tuples
    of signed literals with duplicates merged (first occurrence kept, in
    order), and no tautology (a clause with both ``v`` and ``-v``). Every
    literal is range-checked first, a tautology's included. An empty clause
    is legal and marks the formula as trivially falsified.
    """

    num_vars: int
    clauses: tuple[tuple[Lit, ...], ...]

    def __post_init__(self) -> None:
        n = self.num_vars
        if type(n) is not int or n < 0:
            raise ValueError(f"number of variables {n!r} is not a nonnegative integer")
        cleaned = []
        for clause in self.clauses:
            lits = dict.fromkeys(clause)
            tautology = False
            # `clause`, not `lits`: a `1.0` or `True` merges into an equal `1`.
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError(f"literal {lit!r} is not an integer")
                if not 0 < abs(lit) <= n:
                    raise ValueError(f"literal {lit} out of range for {n} vars")
                if -lit in lits:
                    tautology = True
            if tautology:
                continue
            # Keep a clean tuple, as every parsed clause is: a copy would
            # double the objects the cyclic collector counts during a parse.
            if type(clause) is not tuple or len(lits) < len(clause):
                clause = tuple(lits)
            cleaned.append(clause)
        object.__setattr__(self, "clauses", tuple(cleaned))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document.

    The header's clause count must match the clauses read, before
    `CnfFormula` brings them to normal form. An empty clause (a bare ``0``)
    is kept: the formula then evaluates to falsified.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[Lit, ...]] = []
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
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)

    if num_vars is None or num_clauses is None:
        raise DimacsError("missing header")
    if current:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise DimacsError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    try:
        return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))
    except ValueError as exc:  # a literal out of range
        raise DimacsError(str(exc)) from exc


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS; ``parse_dimacs(write_dimacs(f)) == f``."""
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + (" 0" if clause else "0"))
    return "\n".join(lines) + "\n"
