"""Exact satisfiability-modulo-counting solving over probabilistic circuits."""

from .circuit import (
    BoundState,
    Circuit,
    NumericMode,
    evaluate_joint,
    marginal,
    parse_pc,
    partition,
    validate,
    write_pc,
)
from .factorgraph import FactorGraph, compile_factor_graph, enumerate_marginal, parse_uai, write_uai
from .formula import CnfFormula, parse_dimacs, write_dimacs
from .oracle import brute_solve, verify
from .problems import build_manifest, load_manifest, save_manifest
from .solver import (
    Comparator,
    PredicateSpec,
    SmcProblem,
    SolveResult,
    SolveStatus,
    SolverConfig,
    Stats,
    ThresholdMode,
    solve,
)
from .sweep import SweepResult, sweep

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "Circuit",
    "CnfFormula",
    "Comparator",
    "FactorGraph",
    "NumericMode",
    "PredicateSpec",
    "SmcProblem",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "Stats",
    "SweepResult",
    "ThresholdMode",
    "brute_solve",
    "build_manifest",
    "compile_factor_graph",
    "enumerate_marginal",
    "evaluate_joint",
    "load_manifest",
    "marginal",
    "parse_dimacs",
    "parse_pc",
    "parse_uai",
    "partition",
    "save_manifest",
    "solve",
    "sweep",
    "validate",
    "verify",
    "write_dimacs",
    "write_pc",
    "write_uai",
]
