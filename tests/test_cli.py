import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smcsat
from smcsat.circuit import parse_pc, partition
from smcsat.cli import main
from smcsat.factorgraph import enumerate_marginal, parse_uai
from smcsat.formula import parse_dimacs
from util import MALFORMED_MANIFESTS, NAN_BRANCH_PC, TWO_ROUTE_CIRCUIT_TEXT


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def route_manifest(tmp_path):
    (tmp_path / "route.cnf").write_text(
        "p cnf 6 6\n5 6 0\n-5 -6 0\n-5 1 0\n-5 2 0\n-6 3 0\n-6 4 0\n"
    )
    (tmp_path / "route.pc").write_text(TWO_ROUTE_CIRCUIT_TEXT)

    def write(q: float) -> Path:
        doc = {
            "cnf": "route.cnf",
            "predicates": [
                {"circuit": "route.pc", "shared": {"0": 1, "1": 2}, "b": 5, "cmp": "ge", "threshold": q, "threshold_mode": "absolute"},
                {"circuit": "route.pc", "shared": {"2": 3, "3": 4}, "b": 6, "cmp": "ge", "threshold": q, "threshold_mode": "absolute"},
            ],
        }
        path = tmp_path / f"route_{q}.json"
        path.write_text(json.dumps(doc))
        return path

    return write


def test_solve_sat_exit_code_and_model(route_manifest):
    code, out = run_cli("solve", str(route_manifest(0.5)))
    assert code == 10
    assert "s SATISFIABLE" in out
    vline = next(l for l in out.splitlines() if l.startswith("v "))
    lits = [int(t) for t in vline[2:].split()]
    assert lits[-1] == 0
    assert 6 in lits and -5 in lits  # b2 chosen, b1 rejected


def test_solve_unsat_exit_code(route_manifest):
    code, out = run_cli("solve", str(route_manifest(1.5)))
    assert code == 20
    assert "s UNSATISFIABLE" in out


def test_solve_stats_lines(route_manifest):
    code, out = run_cli("solve", str(route_manifest(0.5)), "--stats")
    assert code == 10
    assert any(l.startswith("c stat decisions ") for l in out.splitlines())


def test_solve_missing_circuit(tmp_path, capsys):
    (tmp_path / "t.cnf").write_text("p cnf 1 1\n1 0\n")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"cnf": "t.cnf", "predicates": [{"circuit": "nope.pc", "shared": {}, "threshold": 0.5}]}))
    code, _ = run_cli("solve", str(manifest))
    assert code == 1
    assert "nope.pc" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", MALFORMED_MANIFESTS)
def test_solve_malformed_manifest(route_manifest, tmp_path, capsys, doc, message):
    route_manifest(0.5)
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps(doc))
    code, out = run_cli("solve", str(manifest))
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize(
    "fault, message",
    [
        pytest.param({"shared": {"-1": 3}}, "shared circuit variable -1 out of range", id="negative-shared-key"),
        pytest.param({"circuit": None, "uai": "pair.uai", "order": [0, 7]}, "order must be a permutation", id="bad-order"),
        pytest.param({"shared": {"2": 9}}, "formula variable 9 out of range", id="shared-formula-var"),
        pytest.param({"b": 9}, "b literal 9 out of range", id="b-out-of-range"),
    ],
)
def test_solve_manifest_range_error_names_file_and_predicate(route_manifest, tmp_path, capsys, fault, message):
    route_manifest(0.5)
    (tmp_path / "pair.uai").write_text("MARKOV\n2\n2 2\n1\n2 0 1\n4\n0.1 0.2 0.3 0.4\n")
    good = {"circuit": "route.pc", "shared": {"0": 1, "1": 2}, "b": 5, "cmp": "ge", "threshold": 0.5}
    bad = {"circuit": "route.pc", "shared": {"2": 3}, "b": 6, "cmp": "ge", "threshold": 0.5}
    bad.update(fault)
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"cnf": "route.cnf", "predicates": [good, {k: v for k, v in bad.items() if v is not None}]}))
    code, out = run_cli("solve", str(manifest))
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest}: predicate 1: ") and message in err[0]


def test_solve_manifest_cnf_error_names_manifest_and_cnf(route_manifest, tmp_path, capsys):
    route_manifest(0.5)
    (tmp_path / "bad.cnf").write_text("p cnf 6 1\n1 x 0\n")
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"cnf": "bad.cnf", "predicates": [{"circuit": "route.pc", "threshold": 0.5}]}))
    code, out = run_cli("solve", str(manifest))
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}: bad.cnf: bad token 'x'"]


def test_solve_manifest_bare_product_line(route_manifest, tmp_path, capsys):
    route_manifest(0.5)
    (tmp_path / "bare.pc").write_text("pc 2 1\nl 0 .5 .5\np\n")
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"cnf": "route.cnf", "predicates": [{"circuit": "bare.pc", "threshold": 0.5}]}))
    code, out = run_cli("solve", str(manifest))
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}: predicate 0: node 1: expected 'p <k> <c1> ... <ck>'"]


def test_solve_manifest_invalid_circuit_names_predicate(route_manifest, tmp_path, capsys):
    route_manifest(0.5)
    (tmp_path / "square.pc").write_text("pc 2 1\nl 0 0.3 0.7\np 2 0 0\n")
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"cnf": "route.cnf", "predicates": [{"circuit": "square.pc", "threshold": 0.5}]}))
    code, out = run_cli("solve", str(manifest))
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}: predicate 0: circuit is not smooth+decomposable: [('decomposability', 1)]"]


@pytest.fixture
def overflow_manifest(tmp_path):
    # 1e200 * 1e200 overflows to inf in linear mode, and inf times the
    # leaf's 0.0 at x1 = False is NaN; the true mass there is 0
    (tmp_path / "o.pc").write_text("pc 4 1\nc 1e200\nc 1e200\nl 0 1.0 0.0\np 3 0 1 2\n")
    (tmp_path / "o.cnf").write_text("p cnf 1 0\n")
    manifest = tmp_path / "o.json"
    pred = {"circuit": "o.pc", "shared": {"0": 1}, "cmp": "le", "threshold": 0.5, "threshold_mode": "absolute"}
    manifest.write_text(json.dumps({"cnf": "o.cnf", "predicates": [pred]}))
    return manifest


@pytest.fixture
def infinite_manifest(tmp_path):
    # 1e200 * 1e200 overflows to inf in linear mode, so the partition and
    # the marginal at x1 = False are both inf, and inf >= 0.9 * inf holds;
    # the true marginal there is a third of the partition
    (tmp_path / "inf.pc").write_text("pc 4 1\nc 1e200\nc 1e200\nl 0 1.0 0.5\np 3 0 1 2\n")
    (tmp_path / "inf.cnf").write_text("p cnf 1 1\n-1 0\n")
    (tmp_path / "inf.model").write_text("v -1 0\n")
    manifest = tmp_path / "inf.json"
    pred = {"circuit": "inf.pc", "shared": {"0": 1}, "cmp": "ge", "threshold": 0.9, "threshold_mode": "partition_fraction"}
    manifest.write_text(json.dumps({"cnf": "inf.cnf", "predicates": [pred]}))
    # beside it, abs.json compares the same circuit with an absolute 1e300:
    # the root lb is inf before any decision, and the true mass at x1 =
    # False is 5e399, so log mode is SAT
    pred = {**pred, "threshold": 1e300, "threshold_mode": "absolute"}
    (tmp_path / "abs.json").write_text(json.dumps({"cnf": "inf.cnf", "predicates": [pred]}))
    return manifest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "o.json"), "error: predicate 0 unsettled at full assignment, root bounds (nan, nan): "),
        (("solve", "o.json", "--no-ulw"), "error: marginal is NaN: "),
        (("oracle", "o.json"), "error: marginal is NaN: "),
        (("solve", "inf.json"), "error: marginal is infinite: "),
        (("solve", "inf.json", "--no-ulw"), "error: marginal is infinite: "),
        (("oracle", "inf.json"), "error: marginal is infinite: "),
        (("verify", "inf.json", "inf.model"), "error: marginal is infinite: "),
        (("solve", "abs.json"), "error: marginal is infinite: "),
        (("solve", "abs.json", "--no-ulw"), "error: marginal is infinite: "),
    ],
)
def test_linear_overflow_is_an_error(overflow_manifest, infinite_manifest, monkeypatch, capsys, argv, message):
    # a NaN mass comes from o.json, an infinite one from inf.json, and an
    # infinite root lb against an absolute threshold from abs.json
    monkeypatch.chdir(infinite_manifest.parent)
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert err[0].endswith("linear-mode overflow; try --mode log")


def test_linear_overflow_pc_marginal_and_log_mode(overflow_manifest, infinite_manifest, capsys):
    for manifest, argv, kind in [
        (overflow_manifest, ("marginal", "--assign", "0=0"), "NaN"),
        (infinite_manifest, ("partition",), "infinite"),
        (infinite_manifest, ("marginal", "--assign", "0=0"), "infinite"),
    ]:
        code, out = run_cli("pc", argv[0], str(manifest.with_suffix(".pc")), *argv[1:])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: marginal is {kind}: linear-mode overflow; try --mode log\n"
    code, out = run_cli("solve", str(overflow_manifest), "--mode", "log")
    assert code == 10 and out.splitlines() == ["s SATISFIABLE", "v -1 0"]
    code, out = run_cli("solve", str(infinite_manifest), "--mode", "log")
    assert code == 20 and out.splitlines() == ["s UNSATISFIABLE"]
    code, out = run_cli("solve", str(infinite_manifest.with_name("abs.json")), "--mode", "log")
    assert code == 10 and out.splitlines() == ["s SATISFIABLE", "v -1 0"]


@pytest.mark.parametrize("q, log_code", [(0.1, 10), (0.6, 20)])
def test_nan_decision_branch_is_an_error(tmp_path, capsys, q, log_code):
    # the one clause forces formula variable 1, circuit variable 0, True,
    # where the circuit's linear-mode mass is NaN: bound tracking must not
    # answer from the decision sum's other branch, SAT at 0.1 or UNSAT at
    # 0.6, while --no-ulw raises; log mode's mass is 0.5
    (tmp_path / "n.pc").write_text(NAN_BRANCH_PC)
    (tmp_path / "n.cnf").write_text("p cnf 1 1\n1 0\n")
    pred = {"circuit": "n.pc", "shared": {"0": 1}, "cmp": "ge", "threshold": q, "threshold_mode": "absolute"}
    manifest = tmp_path / "n.json"
    manifest.write_text(json.dumps({"cnf": "n.cnf", "predicates": [pred]}))
    for flags, message in [
        ((), "error: predicate 0 unsettled at full assignment, root bounds (nan, nan): "),
        (("--no-ulw",), "error: marginal is NaN: "),
    ]:
        code, out = run_cli("solve", str(manifest), *flags)
        assert code == 1 and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert err[0].endswith("linear-mode overflow; try --mode log")
    assert run_cli("solve", str(manifest), "--mode", "log")[0] == log_code


def test_bench_names_the_failing_manifest(route_manifest, overflow_manifest, capsys):
    route_manifest(0.5)
    code, out = run_cli("bench", str(overflow_manifest.parent))
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {overflow_manifest}: predicate 0 unsettled")


def test_solve_deterministic_output(route_manifest):
    path = route_manifest(0.5)
    assert run_cli("solve", str(path)) == run_cli("solve", str(path))


def test_verify_roundtrip(route_manifest, tmp_path):
    manifest = route_manifest(0.5)
    code, out = run_cli("solve", str(manifest))
    model_file = tmp_path / "model.txt"
    model_file.write_text(out)
    code, report = run_cli("verify", str(manifest), str(model_file))
    assert code == 0
    assert "verdict PASS" in report


def test_verify_flipped_model_fails(route_manifest, tmp_path):
    manifest = route_manifest(0.5)
    model_file = tmp_path / "model.txt"
    model_file.write_text("v -1 -2 3 4 -5 -6 0\n")  # b2 flipped off
    code, report = run_cli("verify", str(manifest), str(model_file))
    assert code == 2
    assert "verdict FAIL" in report


def test_verify_malformed_model(route_manifest, tmp_path, capsys):
    manifest = route_manifest(0.5)
    bad = tmp_path / "bad.txt"
    bad.write_text("no model here\n")
    code, _ = run_cli("verify", str(manifest), str(bad))
    assert code == 1


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("v 1 x 0\n", "bad literal 'x'", id="bad-token"),
        pytest.param("v 1 2 3 4 5 6 99 0\n", "variable 99 out of range 1..6", id="unknown-var"),
        pytest.param("v 1 0\n", "model does not assign variable 2", id="missing-var"),
        pytest.param("v 1 2 3 4 5 6 -1 0\n", "variable 1 assigned both values", id="contradiction"),
        pytest.param("verdict PASS\n", "no v-lines found", id="no-v-line"),
    ],
)
def test_verify_model_file_errors(route_manifest, tmp_path, capsys, text, message):
    manifest = route_manifest(0.5)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, out = run_cli("verify", str(manifest), str(bad))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_oracle_reports_count(route_manifest):
    code, out = run_cli("oracle", str(route_manifest(0.5)))
    assert code == 10
    assert "c models 4" in out
    code, out = run_cli("oracle", str(route_manifest(1.5)))
    assert code == 20
    assert "c models 0" in out


def test_gen_kcolor(tmp_path):
    out_file = tmp_path / "grid.cnf"
    code, _ = run_cli("gen", "kcolor", "--rows", "2", "--cols", "2", "-o", str(out_file))
    assert code == 0
    formula = parse_dimacs(out_file.read_text())
    assert formula.num_vars == 12


def test_gen_bn_normalized(tmp_path):
    out_file = tmp_path / "net.uai"
    code, _ = run_cli("gen", "bn", "-n", "5", "--seed", "3", "-o", str(out_file))
    assert code == 0
    fg = parse_uai(out_file.read_text())
    assert enumerate_marginal(fg, {}) == pytest.approx(1.0)


def test_gen_compile_and_pc_utilities(tmp_path):
    uai = tmp_path / "net.uai"
    run_cli("gen", "bn", "-n", "4", "--seed", "1", "-o", str(uai))
    pc_file = tmp_path / "net.pc"
    code, _ = run_cli("compile", str(uai), "-o", str(pc_file))
    assert code == 0
    circuit = parse_pc(pc_file.read_text())
    fg = parse_uai(uai.read_text())
    assert partition(circuit) == pytest.approx(enumerate_marginal(fg, {}), rel=1e-9)
    code, out = run_cli("pc", "validate", str(pc_file))
    assert code == 0 and "smooth True" in out and "decomposable True" in out
    code, out = run_cli("pc", "partition", str(pc_file))
    assert float(out.strip()) == pytest.approx(1.0)
    code, out = run_cli("pc", "marginal", str(pc_file), "--assign", "0=1")
    assert 0.0 <= float(out.strip()) <= 1.0


def test_pc_validate_reports_violations(tmp_path):
    pc_file = tmp_path / "square.pc"
    pc_file.write_text("pc 2 1\nl 0 0.3 0.7\np 2 0 0\n")
    code, out = run_cli("pc", "validate", str(pc_file))
    assert code == 2
    assert out.splitlines() == ["smooth True", "decomposable False", "violation decomposability node 1"]


def test_pc_eval_joint(tmp_path, capsys):
    pc_file = tmp_path / "route.pc"
    pc_file.write_text(TWO_ROUTE_CIRCUIT_TEXT)
    # with every variable True only the second route's product is nonzero:
    # 0.5 * (0.2 * 1 * 1) * 1 * 1
    code, out = run_cli("pc", "eval", str(pc_file), "--assign", "0=1,1=1,2=1,3=1")
    assert code == 0 and out == "0.1\n"
    code, out = run_cli("pc", "eval", str(pc_file), "--assign", "0=1")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: variable 1 unassigned in joint query\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        pytest.param("bad.pc", "pc 0 1\n", "circuit has no nodes", id="pc"),
        pytest.param("bad.uai", "GRID\n1\n2\n", "unknown network kind 'GRID'", id="uai"),
        pytest.param("bad.cnf", "1 0\np cnf 1 1\n", "clause before header", id="dimacs"),
    ],
)
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        ".pc": ("pc", "partition", str(path)),
        ".uai": ("compile", str(path), "-o", str(tmp_path / "out.pc")),
        ".cnf": ("gen", "smc", "--cnf", str(path), "--uai", str(tmp_path / "unread.uai"),
                 "--threshold", "0.5", "-o", str(tmp_path / "out.json")),
    }[path.suffix]
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command, kind, message",
    [
        pytest.param("pc", "pc", "node 1: bad integer 'x'", id="pc"),
        pytest.param("compile", "uai", "unknown network kind 'GRID'", id="compile"),
        pytest.param("gen-smc-cnf", "cnf", "bad token 'x'", id="gen-smc-cnf"),
        pytest.param("gen-smc-circuit", "pc", "node 1: bad integer 'x'", id="gen-smc-circuit"),
        pytest.param("gen-smc-uai", "uai", "unknown network kind 'GRID'", id="gen-smc-uai"),
    ],
)
def test_parser_error_names_the_input_file(tmp_path, capsys, command, kind, message):
    # each command prefixes a parser's message with the file it read, as a
    # manifest load does; the input of kind `kind` is the malformed one
    good = {"cnf": "p cnf 1 1\n1 0\n", "pc": "pc 1 1\nl 0 .5 .5\n", "uai": "BAYES\n1\n2\n1\n1 0\n2\n0.5 0.5\n"}
    bad = {"cnf": "p cnf 1 1\n1 x 0\n", "pc": "pc 2 1\nl 0 .5 .5\np 1 x\n", "uai": "GRID\n1\n2\n"}
    for ext in good:
        (tmp_path / f"in.{ext}").write_text(bad[ext] if ext == kind else good[ext])
    path = tmp_path / f"in.{kind}"
    out_path = str(tmp_path / "out")
    argv = {
        "pc": ("pc", "partition", str(path)),
        "compile": ("compile", str(path), "-o", out_path),
        "gen-smc-cnf": ("gen", "smc", "--cnf", str(path), "--uai", str(tmp_path / "in.uai"), "--threshold", "0.5", "-o", out_path),
        "gen-smc-circuit": ("gen", "smc", "--cnf", str(tmp_path / "in.cnf"), "--circuit", str(path), "--threshold", "0.5", "-o", out_path),
        "gen-smc-uai": ("gen", "smc", "--cnf", str(tmp_path / "in.cnf"), "--uai", str(path), "--threshold", "0.5", "-o", out_path),
    }[command]
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("--assign", "0=2"), "--assign: '0=2' is not <var>=0|1", id="value-2"),
        pytest.param(("--assign", "0=yes"), "--assign: '0=yes' is not <var>=0|1", id="value-yes"),
        pytest.param(("--assign", "0"), "--assign: '0' is not <var>=0|1", id="bare-var"),
        pytest.param(("--assign", "x=1"), "--assign: 'x=1' is not <var>=0|1", id="var-x"),
        pytest.param(("--assign", "5=1"), "--assign: variable 5 out of range for 4 variables", id="var-5"),
        pytest.param(("--assign", "0=1,-1=0"), "--assign: variable -1 out of range for 4 variables", id="var-neg"),
        pytest.param(("--assign", "0=1,0=0"), "--assign: variable 0 given twice", id="duplicate"),
        pytest.param(("--order", "1,x"), "--order: '1,x' is not a comma-separated list of integers", id="order-x"),
        pytest.param(("--order", "0,,1"), "--order: '0,,1' is not a comma-separated list of integers", id="order-empty"),
        pytest.param(("--order", "0,1"), "order must be a permutation of all variables", id="order-short"),
    ],
)
def test_assign_and_order_parse_strictly(tmp_path, capsys, argv, message):
    if argv[0] == "--assign":
        pc_file = tmp_path / "route.pc"
        pc_file.write_text(TWO_ROUTE_CIRCUIT_TEXT)
        argv = ("pc", "marginal", str(pc_file), *argv)
    else:
        uai = tmp_path / "net.uai"
        run_cli("gen", "bn", "-n", "3", "--seed", "1", "-o", str(uai))
        argv = ("compile", str(uai), "-o", str(tmp_path / "net.pc"), *argv)
    code, _ = run_cli(*argv)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_hampath_smc_chain(tmp_path):
    edges = tmp_path / "k3.edges"
    edges.write_text("0 1\n1 2\n0 2\n")
    cnf = tmp_path / "k3.cnf"
    code, _ = run_cli("gen", "hampath", "--graph", str(edges), "-o", str(cnf))
    assert code == 0
    assert parse_dimacs(cnf.read_text()).num_vars == 9
    uai = tmp_path / "traffic.uai"
    run_cli("gen", "bn", "-n", "6", "--seed", "7", "-o", str(uai))
    manifest = tmp_path / "k3.json"
    code, _ = run_cli(
        "gen", "smc", "--cnf", str(cnf), "--uai", str(uai),
        "--threshold", "1e-3", "--seed", "5", "-o", str(manifest),
    )
    assert code == 0
    solve_code, _ = run_cli("solve", str(manifest))
    oracle_code, _ = run_cli("oracle", str(manifest))
    assert solve_code == oracle_code
    assert solve_code in (10, 20)


def test_gen_smc_order_is_comma_separated(tmp_path):
    cnf = tmp_path / "k.cnf"
    run_cli("gen", "kcolor", "--rows", "1", "--cols", "2", "-o", str(cnf))
    uai = tmp_path / "net.uai"
    run_cli("gen", "bn", "-n", "3", "--seed", "1", "-o", str(uai))
    manifest = tmp_path / "k.json"
    code, _ = run_cli(
        "gen", "smc", "--cnf", str(cnf), "--uai", str(uai), "--order", "2,0,1",
        "--threshold", "0.5", "-o", str(manifest),
    )
    assert code == 0
    assert json.loads(manifest.read_text())["predicates"][0]["order"] == [2, 0, 1]


def test_gen_smc_from_circuit_with_b(tmp_path):
    cnf = tmp_path / "k.cnf"
    run_cli("gen", "kcolor", "--rows", "1", "--cols", "2", "-o", str(cnf))
    pc_file = tmp_path / "route.pc"
    pc_file.write_text(TWO_ROUTE_CIRCUIT_TEXT)
    manifest = tmp_path / "k.json"
    code, out = run_cli(
        "gen", "smc", "--cnf", str(cnf), "--circuit", str(pc_file), "--b", "6",
        "--threshold", "0.5", "-o", str(manifest),
    )
    assert code == 0 and out == f"wrote {manifest} (2 shared vars)\n"
    (pred,) = json.loads(manifest.read_text())["predicates"]
    assert pred["circuit"] == "route.pc" and pred["b"] == 6 and "uai" not in pred
    solve_code, solve_out = run_cli("solve", str(manifest))
    oracle_code, _ = run_cli("oracle", str(manifest))
    assert solve_code == oracle_code == 10
    model = tmp_path / "k.model"
    model.write_text(solve_out)
    assert run_cli("verify", str(manifest), str(model))[0] == 0


def test_gen_smc_rejects_order_with_circuit(tmp_path, capsys):
    cnf = tmp_path / "k.cnf"
    run_cli("gen", "kcolor", "--rows", "1", "--cols", "2", "-o", str(cnf))
    pc_file = tmp_path / "route.pc"
    pc_file.write_text(TWO_ROUTE_CIRCUIT_TEXT)
    manifest = tmp_path / "k.json"
    code, _ = run_cli(
        "gen", "smc", "--cnf", str(cnf), "--circuit", str(pc_file), "--order", "3,2,1,0",
        "--threshold", "0.5", "-o", str(manifest),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --order: applies only to a compiled --uai model\n"
    assert not manifest.exists()


@pytest.mark.parametrize(
    "argv, edges, message",
    [
        pytest.param(
            ("supply", "--layers", "2,x"), None,
            "--layers: '2,x' is not a comma-separated list of integers", id="layers-x",
        ),
        pytest.param((), "0 1\n0 1 2\n", "{graph}: line 2: bad edge line '0 1 2'", id="three-tokens"),
        pytest.param((), "0 1\n# note\n1 x\n", "{graph}: line 3: '1 x' is not two integer node ids", id="token-x"),
        pytest.param((), "0 1\n1 1\n", "{graph}: self-loop at node 1", id="self-loop"),
        pytest.param(("--nodes", "2"), "0 1\n1 5\n", "{graph}: edge (1, 5) out of range", id="out-of-range"),
        pytest.param(("--nodes", "0"), "0 1\n", "--nodes: 0 is not a positive node count", id="nodes-0"),
    ],
)
def test_gen_input_errors_name_flag_or_file(tmp_path, capsys, argv, edges, message):
    graph = tmp_path / "g.edges"
    if edges is not None:
        graph.write_text(edges)
        argv = ("hampath", "--graph", str(graph), *argv)
    code, _ = run_cli("gen", *argv, "-o", str(tmp_path / "out.cnf"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message.format(graph=graph)}\n"


def test_gen_supply_bundle_and_sweep(tmp_path):
    cnf = tmp_path / "supply.cnf"
    manifest = tmp_path / "supply.json"
    code, _ = run_cli(
        "gen", "supply", "--layers", "2,2,2", "--k-up", "1", "--k-down", "1",
        "-o", str(cnf), "--manifest", str(manifest), "--disaster-seed", "0",
    )
    assert code == 0
    trace = tmp_path / "trace.csv"
    code, out = run_cli(
        "sweep", str(manifest), "--predicate", "0", "--direction", "up",
        "--step", "0.01", "--lo", "0", "--hi", "1", "--trace", str(trace),
    )
    assert code == 0
    assert "best threshold" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "q,status,decisions,conflicts,wall_time"
    statuses = [l.split(",")[1] for l in lines[1:]]
    assert statuses[-1] == "unsat" and all(s == "sat" for s in statuses[:-1])


def test_gen_supply_cnf_only(tmp_path):
    cnf = tmp_path / "s.cnf"
    code, out = run_cli("gen", "supply", "--layers", "2,2,2", "-o", str(cnf))
    assert code == 0 and out == f"wrote {cnf} (8 edge vars)\n"
    assert parse_dimacs(cnf.read_text()).num_vars == 8
    assert list(tmp_path.iterdir()) == [cnf]


def test_sweep_without_feasible_threshold(route_manifest):
    # both routes need a connectivity marginal of at least 1.5: never
    code, out = run_cli("sweep", str(route_manifest(1.5)), "--lo", "1.5", "--hi", "2", "--step", "0.5")
    assert code == 20 and out == "no feasible threshold in range\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("--layers", "4,4,4"), "32 variables exceed compile cap 20", id="compile-cap"),
        pytest.param(("--layers", "2,2,2", "--cmp", "foo"), "predicate 0: unknown comparator 'foo'", id="bad-cmp"),
    ],
)
def test_gen_supply_bundle_error_writes_nothing(tmp_path, capsys, argv, message):
    code, out = run_cli(
        "gen", "supply", *argv, "-o", str(tmp_path / "s.cnf"), "--manifest", str(tmp_path / "m.json")
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_stats(route_manifest):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", str(route_manifest(0.5)), "--stats")
    assert exc.value.code == 2


def test_bench_csv(route_manifest, tmp_path):
    route_manifest(0.5)
    route_manifest(1.5)
    csv_file = tmp_path / "bench.csv"
    code, _ = run_cli("bench", str(tmp_path), "--csv", str(csv_file))
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "instance,q,status,decisions,propagations,bool_conflicts,prob_conflicts,learned,restarts,wall_ms"
    assert len(lines) == 3


def test_bench_no_ulw_same_verdicts(route_manifest, tmp_path):
    route_manifest(0.5)
    route_manifest(1.5)

    def verdicts(*flags):
        code, out = run_cli("bench", str(tmp_path), *flags)
        assert code == 0
        return [line.split(",")[:3] for line in out.strip().splitlines()[1:]]

    with_ulw = verdicts()
    assert [status for _, _, status in with_ulw] == ["sat", "unsat"]
    assert verdicts("--no-ulw") == verdicts("--mode", "log") == with_ulw


def test_bench_empty_suite(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    csv_file = tmp_path / "empty.csv"
    code, _ = run_cli("bench", str(empty), "--csv", str(csv_file))
    assert code == 0
    assert csv_file.read_text().strip().splitlines() == [
        "instance,q,status,decisions,propagations,bool_conflicts,prob_conflicts,learned,restarts,wall_ms"
    ]


def test_budget_exit_code(tmp_path):
    # without bound tracking the first conflict happens above level 0,
    # so a zero-conflict budget trips
    run_cli("gen", "kcolor", "--rows", "2", "--cols", "2", "-o", str(tmp_path / "g.cnf"))
    run_cli("gen", "bn", "-n", "4", "--seed", "2", "-o", str(tmp_path / "g.uai"))
    manifest = tmp_path / "g.json"
    run_cli(
        "gen", "smc", "--cnf", str(tmp_path / "g.cnf"), "--uai", str(tmp_path / "g.uai"),
        "--threshold", "1.25", "--threshold-mode", "partition_fraction",
        "--seed", "4", "-o", str(manifest),
    )
    code, out = run_cli("solve", str(manifest), "--no-ulw", "--budget-conflicts", "0")
    assert code == 30
    assert "s UNKNOWN" in out
    # with bound tracking the same instance refutes at level 0
    code, _ = run_cli("solve", str(manifest))
    assert code == 20


def test_module_entry_point(route_manifest):
    manifest = route_manifest(0.5)
    # The child imports the package under test, wherever pytest found it.
    src = str(Path(smcsat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "smcsat.cli", "solve", str(manifest)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("gen", "smc", "--cnf", "g.cnf", "--uai", "n.uai", "--threshold", "0.1", "--b", "99", "-o", "k.json"),
            "k.json: not written: predicate 0: b literal 99 out of range",
            id="gen-smc-b-out-of-range",
        ),
        pytest.param(
            ("solve", "m.json", "--budget-seconds", "nan"), "--budget-seconds: nan is not a nonnegative budget",
            id="solve-budget-seconds-nan",
        ),
        pytest.param(
            ("bench", "missing", "--csv", "out.csv"), "missing: not a directory", id="bench-missing-suite",
        ),
        pytest.param(
            ("gen", "bn", "-n", "4", "--edge-fraction", "nan", "-o", "x.uai"),
            "--edge-fraction: nan is not a fraction in [0, 1]",
            id="gen-bn-edge-fraction-nan",
        ),
        pytest.param(
            ("gen", "bn", "-n", "4", "--max-parents", "-1", "-o", "x.uai"),
            "--max-parents: -1 is not a nonnegative parent count",
            id="gen-bn-max-parents-negative",
        ),
    ],
)
def test_bad_flag_or_path_is_one_error_line_and_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    run_cli("gen", "kcolor", "--rows", "2", "--cols", "2", "-o", "g.cnf")
    run_cli("gen", "bn", "-n", "6", "--seed", "7", "-o", "n.uai")
    run_cli("gen", "smc", "--cnf", "g.cnf", "--uai", "n.uai", "--threshold", "0.1", "-o", "m.json")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before
