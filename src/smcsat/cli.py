"""Command-line interface: solve, verify, oracle, gen, compile, sweep, bench, pc.

Solver-style exit codes: 10 satisfiable, 20 unsatisfiable, 30 budget
exhausted, 0/2 for verification pass/fail, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from pathlib import Path

from . import circuit as pc
from .circuit import NumericMode
from .factorgraph import compile_factor_graph, parse_uai, write_uai
from .formula import parse_dimacs, write_dimacs
from .oracle import brute_solve, verify
from .problems import (
    GridSpec,
    LayeredNetwork,
    build_manifest,
    encode_hamiltonian_path,
    encode_supply_chain,
    gen_kcolor,
    gen_random_bn,
    load_manifest,
    marginalize_false_circuit,
    parse_edge_list,
    predicate_from_entry,
    save_manifest,
    select_shared_vars,
)
from .solver import SmcProblem, SolveResult, SolveStatus, SolverConfig, solve
from .sweep import sweep as run_sweep

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_BUDGET = 30
EXIT_VERIFY_FAIL = 2
EXIT_ERROR = 1

BENCH_COLUMNS = [
    "instance",
    "q",
    "status",
    "decisions",
    "propagations",
    "bool_conflicts",
    "prob_conflicts",
    "learned",
    "restarts",
    "wall_ms",
]


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    for flag, budget in (("--budget-conflicts", args.budget_conflicts), ("--budget-seconds", args.budget_seconds)):
        if budget is not None and not budget >= 0:
            raise ValueError(f"{flag}: {budget} is not a nonnegative budget")
    return SolverConfig(
        ulw_enabled=not args.no_ulw,
        numeric_mode=NumericMode(args.mode),
        max_conflicts=args.budget_conflicts,
        max_seconds=args.budget_seconds,
    )


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=[m.value for m in NumericMode], default=NumericMode.LINEAR.value)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-ulw", action="store_true", help="disable bound propagation")
    _add_mode_flag(parser)
    parser.add_argument("--budget-conflicts", type=int, default=None)
    parser.add_argument("--budget-seconds", type=float, default=None)


def _print_result(result: SolveResult, show_stats: bool, out) -> int:
    if show_stats:
        for name, value in asdict(result.stats).items():
            print(f"c stat {name} {value}", file=out)
    if result.status is SolveStatus.SAT:
        print("s SATISFIABLE", file=out)
        assert result.model is not None
        _print_model(result.model, out)
        return EXIT_SAT
    if result.status is SolveStatus.UNSAT:
        print("s UNSATISFIABLE", file=out)
        return EXIT_UNSAT
    print("s UNKNOWN", file=out)
    return EXIT_BUDGET


def _print_model(model: dict[int, bool], out) -> None:
    lits = [v if model[v] else -v for v in sorted(model)]
    print("v " + " ".join(str(l) for l in lits) + " 0", file=out)


def _read_model_file(path: str, num_vars: int) -> dict[int, bool]:
    """The model on the ``v`` lines of `path`: every token an integer literal
    over variables 1..num_vars, each variable assigned exactly one value."""
    model: dict[int, bool] = {}
    for line in Path(path).read_text().splitlines():
        tokens = line.split()
        if not tokens or tokens[0] != "v":
            continue
        for tok in tokens[1:]:
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"{path}: bad literal {tok!r}") from None
            if lit == 0:
                continue
            var = abs(lit)
            if var > num_vars:
                raise ValueError(f"{path}: variable {var} out of range 1..{num_vars}")
            if model.setdefault(var, lit > 0) != (lit > 0):
                raise ValueError(f"{path}: variable {var} assigned both values")
    if not model:
        raise ValueError(f"{path}: no v-lines found")
    for var in range(1, num_vars + 1):
        if var not in model:
            raise ValueError(f"{path}: model does not assign variable {var}")
    return model


def _int_list(flag: str, text: str) -> list[int]:
    """Parse a comma-separated list of integers given to `flag`."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a comma-separated list of integers") from None


def _parse_file(parse, path: str):
    """`parse` applied to the text of the file at `path`; a malformed file's
    error names the file, as manifest loads do."""
    text = Path(path).read_text()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def cmd_solve(args: argparse.Namespace, out) -> int:
    problem = load_manifest(args.manifest)
    result = solve(problem, _solver_config(args))
    return _print_result(result, args.stats, out)


def cmd_verify(args: argparse.Namespace, out) -> int:
    problem = load_manifest(args.manifest)
    model = _read_model_file(args.model, problem.cnf.num_vars)
    mode = NumericMode(args.mode)
    report = verify(problem, model, mode)
    for i, ok in enumerate(report.clause_ok):
        if not ok:
            print(f"clause {i} violated", file=out)
    for check in report.predicate_checks:
        print(
            f"predicate {check.index} marginal={check.marginal!r} "
            f"{check.cmp.value} {check.resolved_threshold!r} holds={check.holds} "
            f"b={check.b_value} {'ok' if check.consistent else 'inconsistent'}",
            file=out,
        )
    if report.passed:
        print("verdict PASS", file=out)
        return 0
    print("verdict FAIL", file=out)
    return EXIT_VERIFY_FAIL


def cmd_oracle(args: argparse.Namespace, out) -> int:
    problem = load_manifest(args.manifest)
    result = brute_solve(problem, cap=args.cap, mode=NumericMode(args.mode))
    print(f"c models {result.model_count}", file=out)
    if result.status is SolveStatus.SAT:
        print("s SATISFIABLE", file=out)
        _print_model(result.models[0], out)
        return EXIT_SAT
    print("s UNSATISFIABLE", file=out)
    return EXIT_UNSAT


def _gen_kcolor(args: argparse.Namespace, out) -> int:
    formula = gen_kcolor(GridSpec(args.rows, args.cols, args.colors), args.shuffle_seed)
    _write_text(args.output, write_dimacs(formula))
    print(f"wrote {args.output} ({formula.num_vars} vars, {formula.num_clauses} clauses)", file=out)
    return 0


def _gen_bn(args: argparse.Namespace, out) -> int:
    if args.max_parents < 0:
        raise ValueError(f"--max-parents: {args.max_parents} is not a nonnegative parent count")
    if not 0.0 <= args.edge_fraction <= 1.0:
        raise ValueError(f"--edge-fraction: {args.edge_fraction} is not a fraction in [0, 1]")
    fg = gen_random_bn(args.n, args.max_parents, args.edge_fraction, args.seed)
    _write_text(args.output, write_uai(fg))
    print(f"wrote {args.output} ({fg.num_vars} vars, {len(fg.factors)} factors)", file=out)
    return 0


def _relative_to(path: Path, base: Path) -> str:
    try:
        return str(path.resolve().relative_to(base.resolve()))
    except ValueError:
        return str(path)


def _gen_supply(args: argparse.Namespace, out) -> int:
    net = LayeredNetwork(tuple(_int_list("--layers", args.layers)))
    formula = encode_supply_chain(net, args.k_up, args.k_down)
    if args.manifest is None:
        _write_text(args.output, write_dimacs(formula))
        print(f"wrote {args.output} ({formula.num_vars} edge vars)", file=out)
        return 0
    # Full bundle: disaster BN over the edges, success circuit, manifest.
    # All of it is built and checked before the first file is written, so a
    # failure (too many edges to compile, a bad --cmp) leaves no partial bundle.
    manifest_path = Path(args.manifest)
    stem = manifest_path.with_suffix("")
    uai_path, pc_path = Path(f"{stem}.uai"), Path(f"{stem}.pc")
    fg = gen_random_bn(net.num_edges, seed=args.disaster_seed)
    success = marginalize_false_circuit(compile_factor_graph(fg))
    predicate = {
        "circuit": _relative_to(pc_path, manifest_path.parent),
        "shared": {cvar: cvar + 1 for cvar in range(net.num_edges)},
        "cmp": args.cmp,
        "threshold": args.threshold,
        "threshold_mode": args.threshold_mode,
    }
    doc = build_manifest(_relative_to(Path(args.output), manifest_path.parent), [predicate])
    _write_text(args.output, write_dimacs(formula))
    print(f"wrote {args.output} ({formula.num_vars} edge vars)", file=out)
    _write_text(str(uai_path), write_uai(fg))
    _write_text(str(pc_path), pc.write_pc(success))
    save_manifest(doc, manifest_path)
    print(f"wrote {uai_path}, {pc_path}, {manifest_path}", file=out)
    return 0


def _gen_hampath(args: argparse.Namespace, out) -> int:
    if args.nodes is not None and args.nodes < 1:
        raise ValueError(f"--nodes: {args.nodes} is not a positive node count")
    graph = _parse_file(lambda text: parse_edge_list(text, args.nodes), args.graph)
    formula = encode_hamiltonian_path(graph)
    _write_text(args.output, write_dimacs(formula))
    print(f"wrote {args.output} ({graph.n} cities, {formula.num_vars} vars)", file=out)
    return 0


def _gen_smc(args: argparse.Namespace, out) -> int:
    order = None if args.order is None else _int_list("--order", args.order)
    if order is not None and args.circuit is not None:
        raise ValueError("--order: applies only to a compiled --uai model")
    cnf_path = Path(args.cnf)
    formula = _parse_file(parse_dimacs, args.cnf)
    manifest_path = Path(args.output)
    if args.circuit is not None:
        model_path = Path(args.circuit)
        circ = _parse_file(pc.parse_pc, args.circuit)
        entry: dict = {"circuit": _relative_to(model_path, manifest_path.parent)}
    else:
        model_path = Path(args.uai)
        fg = _parse_file(parse_uai, args.uai)
        circ = compile_factor_graph(fg, order=order)
        entry = {"uai": _relative_to(model_path, manifest_path.parent)}
        if order is not None:
            entry["order"] = order
    shared = select_shared_vars(circ.num_vars, formula.num_vars, args.seed)
    entry.update(
        {
            "shared": shared,
            "cmp": args.cmp,
            "threshold": args.threshold,
            "threshold_mode": args.threshold_mode,
        }
    )
    if args.b is not None:
        entry["b"] = args.b
    doc = build_manifest(_relative_to(cnf_path, manifest_path.parent), [entry])
    # Build the problem first, so that no manifest is written that loading would reject.
    try:
        SmcProblem(formula, (predicate_from_entry(doc["predicates"][0], circ),))
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: not written: {exc}") from None
    save_manifest(doc, manifest_path)
    print(f"wrote {manifest_path} ({len(shared)} shared vars)", file=out)
    return 0


def cmd_compile(args: argparse.Namespace, out) -> int:
    fg = _parse_file(parse_uai, args.uai)
    order = None if args.order is None else _int_list("--order", args.order)
    circ = compile_factor_graph(fg, order=order)
    _write_text(args.output, pc.write_pc(circ))
    print(f"wrote {args.output} ({len(circ.nodes)} nodes)", file=out)
    return 0


def cmd_sweep(args: argparse.Namespace, out) -> int:
    problem = load_manifest(args.manifest)
    result = run_sweep(
        problem,
        args.predicate,
        direction=args.direction,
        step=args.step,
        lo=args.lo,
        hi=args.hi,
        config=_solver_config(args),
    )
    if args.trace is not None:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "status", "decisions", "conflicts", "wall_time"])
            for point in result.trace:
                writer.writerow(
                    [
                        point.q,
                        point.status.value,
                        point.stats.decisions,
                        point.stats.conflicts,
                        point.stats.wall_time,
                    ]
                )
    if not result.feasible:
        print("no feasible threshold in range", file=out)
        return EXIT_UNSAT
    print(f"best threshold {result.best_threshold}", file=out)
    assert result.best_model is not None
    _print_model(result.best_model, out)
    return 0


def _bench_row(path: Path, config: SolverConfig) -> list:
    problem = load_manifest(path)
    try:
        result = solve(problem, config)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    q = problem.predicates[0].threshold if problem.predicates else ""
    stats = result.stats
    return [
        path.name,
        q,
        result.status.value,
        stats.decisions,
        stats.boolean_propagations,
        stats.boolean_conflicts,
        stats.prob_conflicts,
        stats.learned_clauses,
        stats.restarts,
        round(stats.wall_time * 1000.0, 3),
    ]


def cmd_bench(args: argparse.Namespace, out) -> int:
    if not Path(args.suite).is_dir():
        raise ValueError(f"{args.suite}: not a directory")
    suite = sorted(Path(args.suite).glob("*.json"))
    config = _solver_config(args)
    rows = [_bench_row(p, config) for p in suite]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(rows)
    text = buf.getvalue()
    if args.csv is not None:
        _write_text(args.csv, text)
        print(f"wrote {args.csv} ({len(rows)} instances)", file=out)
    else:
        out.write(text)
    return 0


# The spellings that `--assign` accepts for each value.
_TRUTH = {
    **dict.fromkeys(("1", "true", "True", "t"), True),
    **dict.fromkeys(("0", "false", "False", "f"), False),
}


def _parse_assignment(spec: str, num_vars: int) -> dict[int, bool]:
    """Parse ``--assign``: comma-separated ``<var>=0|1``, each variable once."""
    values: dict[int, bool] = {}
    for item in spec.split(",") if spec else ():
        var, _, val = item.partition("=")
        try:
            v, truth = int(var), _TRUTH[val.strip()]
        except (ValueError, KeyError):
            raise ValueError(f"--assign: {item!r} is not <var>=0|1") from None
        if not 0 <= v < num_vars:
            raise ValueError(f"--assign: variable {v} out of range for {num_vars} variables")
        if v in values:
            raise ValueError(f"--assign: variable {v} given twice")
        values[v] = truth
    return values


def cmd_pc(args: argparse.Namespace, out) -> int:
    circ = _parse_file(pc.parse_pc, args.file)
    if args.action == "validate":
        report = pc.validate(circ)
        print(f"smooth {report.smooth}", file=out)
        print(f"decomposable {report.decomposable}", file=out)
        for kind, nid in report.violations:
            print(f"violation {kind} node {nid}", file=out)
        return 0 if report.ok else EXIT_VERIFY_FAIL
    mode = NumericMode(args.mode)
    if args.action == "partition":
        print(repr(pc.partition(circ, mode)), file=out)
        return 0
    assignment = _parse_assignment(args.assign or "", circ.num_vars)
    if args.action == "eval":
        print(repr(pc.evaluate_joint(circ, assignment, mode)), file=out)
    else:
        print(repr(pc.marginal(circ, assignment, mode)), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smcsat")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an SMC manifest")
    p_solve.add_argument("manifest")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--stats", action="store_true", help="print c stat lines")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a model against a manifest")
    p_verify.add_argument("manifest")
    p_verify.add_argument("model")
    _add_mode_flag(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force solve an SMC manifest")
    p_oracle.add_argument("manifest")
    p_oracle.add_argument("--cap", type=int, default=24)
    _add_mode_flag(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate instances")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_kcolor = gen_sub.add_parser("kcolor")
    g_kcolor.add_argument("--rows", type=int, required=True)
    g_kcolor.add_argument("--cols", type=int, required=True)
    g_kcolor.add_argument("--colors", type=int, default=3)
    g_kcolor.add_argument("--shuffle-seed", type=int, default=None)
    g_kcolor.add_argument("-o", "--output", required=True)
    g_kcolor.set_defaults(func=_gen_kcolor)

    g_bn = gen_sub.add_parser("bn")
    g_bn.add_argument("-n", type=int, required=True)
    g_bn.add_argument("--max-parents", type=int, default=5)
    g_bn.add_argument("--edge-fraction", type=float, default=0.5)
    g_bn.add_argument("--seed", type=int, default=0)
    g_bn.add_argument("-o", "--output", required=True)
    g_bn.set_defaults(func=_gen_bn)

    g_supply = gen_sub.add_parser("supply")
    g_supply.add_argument("--layers", required=True, help="comma-separated layer sizes")
    g_supply.add_argument("--k-up", type=int, default=2)
    g_supply.add_argument("--k-down", type=int, default=2)
    g_supply.add_argument("-o", "--output", required=True)
    g_supply.add_argument("--manifest", default=None, help="also emit disaster BN + manifest")
    g_supply.add_argument("--disaster-seed", type=int, default=0)
    g_supply.add_argument("--threshold", type=float, default=0.0)
    g_supply.add_argument("--threshold-mode", default="absolute")
    g_supply.add_argument("--cmp", default="ge")
    g_supply.set_defaults(func=_gen_supply)

    g_ham = gen_sub.add_parser("hampath")
    g_ham.add_argument("--graph", required=True, help="edge list file, `u v` per line")
    g_ham.add_argument("--nodes", type=int, default=None)
    g_ham.add_argument("-o", "--output", required=True)
    g_ham.set_defaults(func=_gen_hampath)

    g_smc = gen_sub.add_parser("smc")
    g_smc.add_argument("--cnf", required=True)
    src = g_smc.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit")
    src.add_argument("--uai")
    g_smc.add_argument("--order", default=None, help="comma-separated variable order (with --uai)")
    g_smc.add_argument("--threshold", type=float, required=True)
    g_smc.add_argument("--threshold-mode", default="partition_fraction")
    g_smc.add_argument("--cmp", default="ge")
    g_smc.add_argument("--b", type=int, default=None)
    g_smc.add_argument("--seed", type=int, default=0)
    g_smc.add_argument("-o", "--output", required=True)
    g_smc.set_defaults(func=_gen_smc)

    p_compile = sub.add_parser("compile", help="compile a UAI model to a circuit")
    p_compile.add_argument("uai")
    p_compile.add_argument("--order", default=None, help="comma-separated variable order")
    p_compile.add_argument("-o", "--output", required=True)
    p_compile.set_defaults(func=cmd_compile)

    p_sweep = sub.add_parser("sweep", help="threshold sweep on one predicate")
    p_sweep.add_argument("manifest")
    p_sweep.add_argument("--predicate", type=int, default=0)
    p_sweep.add_argument("--direction", choices=["up", "down"], default="up")
    p_sweep.add_argument("--step", type=float, default=1e-2)
    p_sweep.add_argument("--lo", type=float, default=0.0)
    p_sweep.add_argument("--hi", type=float, default=1.0)
    p_sweep.add_argument("--trace", default=None, help="write per-step CSV here")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="run a directory of manifests")
    p_bench.add_argument("suite")
    p_bench.add_argument("--csv", default=None)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_pc = sub.add_parser("pc", help="circuit utilities")
    p_pc.add_argument("action", choices=["validate", "eval", "marginal", "partition"])
    p_pc.add_argument("file")
    p_pc.add_argument("--assign", default=None, help="<var>=0|1,..., e.g. 0=1,3=0")
    _add_mode_flag(p_pc)
    p_pc.set_defaults(func=cmd_pc)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
