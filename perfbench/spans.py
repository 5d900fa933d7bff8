"""Spans around the public entry points of smcsat's layers.

The benchmark records spans from its own code: while a ``Tracer`` is
installed, each entry point below is replaced, where it is looked up, by a
wrapper that records name, start, end, parent span and instance id. Spans
stay in memory until ``write`` and are reduced to self times, a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from time import perf_counter

# By import path: the package re-exports a function named `sweep`, which
# hides the submodule of that name as a package attribute.
circuit, oracle, problems, solver, sweep = (
    import_module(f"smcsat.{name}") for name in ("circuit", "oracle", "problems", "solver", "sweep")
)

# (span name, owner, attribute): the owner is the module or class where
# callers look the name up, so the wrapper is seen by every call site.
ENTRY_POINTS = (
    ("problems.load_manifest", problems, "load_manifest"),
    ("formula.parse_dimacs", problems, "parse_dimacs"),
    ("factorgraph.parse_uai", problems, "parse_uai"),
    ("factorgraph.compile", problems, "compile_factor_graph"),
    ("circuit.parse_pc", problems, "parse_pc"),
    ("circuit.validate", circuit, "validate"),
    ("circuit.marginal", solver, "marginal"),
    ("circuit.marginal", solver, "partition"),
    ("circuit.marginal", oracle, "marginal"),
    ("circuit.bound_init", circuit.BoundState, "__init__"),
    ("circuit.assign", circuit.BoundState, "assign"),
    ("circuit.backtrack", circuit.BoundState, "backtrack_bounds"),
    ("solver.init", solver.CdclSolver, "__init__"),
    ("solver.propagate", solver.CdclSolver, "propagate"),
    ("solver.analyze", solver.CdclSolver, "analyze"),
    ("solver.decide", solver.CdclSolver, "decide"),
    ("solver.backtrack", solver.CdclSolver, "backtrack"),
    ("oracle.verify", oracle, "verify"),
    ("sweep.sweep", sweep, "sweep"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


class Tracer:
    """In-memory span store; columns are parallel arrays to keep it compact."""

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.current_instance = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        code = NAMES.index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.current_instance)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in ENTRY_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count(self, name: str) -> int:
        return self.name.count(NAMES.index(name))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[idx] - self.start[idx]
        totals = dict.fromkeys(NAMES, 0.0)
        for idx, code in enumerate(self.name):
            totals[NAMES[code]] += self.end[idx] - self.start[idx] - child_time[idx]
        return totals

    def write(self, path: Path) -> None:
        """Write spans as JSON lines: name, start, end, parent, instance."""
        with path.open("w") as fh:
            for idx, code in enumerate(self.name):
                fh.write(
                    json.dumps(
                        [NAMES[code], self.start[idx], self.end[idx], self.parent[idx], self.instance[idx]]
                    )
                    + "\n"
                )
