"""Command-line surface: wiring, formats, exit codes."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import melontau
from melontau import bilinear, decomposition, onematrix
from melontau.cli import _parse, _zero_check, main
from melontau.diffops import DiffOp
from melontau.reports import CheckReport, emit
from melontau.series import Series, TruncSpec, USeries


MELON_JSON = json.dumps({
    "D": 3, "white": 2, "black": 2,
    "edges": [{"w": 0, "b": 1, "c": 1}, {"w": 1, "b": 0, "c": 1},
              {"w": 0, "b": 0, "c": 2}, {"w": 1, "b": 1, "c": 2},
              {"w": 0, "b": 0, "c": 3}, {"w": 1, "b": 1, "c": 3}]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_reports(capsys):
    code, out, err = run_cli(capsys, "verify", "commutator", "--D", "2",
                             "--pmax", "3")
    assert code == 0
    lines = [json.loads(x) for x in out.strip().splitlines()]
    assert len(lines) == 1
    rep = lines[0]
    assert rep["passed"] is True
    assert rep["params"] == {"D": 2, "max_q": 3}
    assert "0 failed" in err


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "bch", "--format", "text")
    assert code == 0
    assert out.startswith("PASS bch-closed-form")


def test_verify_decomposition_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "decomposition")
    assert code == 0
    assert json.loads(out.strip())["params"] == {"D": 3, "K": 1}


def test_verify_hirota_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "hirota", "--deg", "1",
                           "--pmax", "2")
    assert code == 0
    reps = [json.loads(x) for x in out.strip().splitlines()]
    assert [r["params"]["nsize"] for r in reps] == [1, 2]
    assert all(r["passed"] for r in reps)


def test_verify_grading_ribbon_graphs(capsys):
    code, out, _ = run_cli(capsys, "verify", "grading", "--D", "2")
    assert code == 0
    rep = json.loads(out.strip())
    assert rep["name"] == "tensor-grading" and rep["params"]["D"] == 2
    assert rep["passed"]


def test_verify_grading_ribbon_graphs_refuse_an_odd_exponent(capsys,
                                                             monkeypatch):
    monkeypatch.setattr(decomposition, "tensor_free_energy_exponents",
                        lambda D, order: {1: [2], 2: [1, 2]})
    code, failed = _failures(capsys, "verify", "grading", "--D", "2")
    assert code == 1
    assert failed == {"tensor-grading":
                      "free-energy N-exponents {1: [2], 2: [1, 2]}"}


def test_threads_flag_rejected():
    # the flag never did anything and is gone: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bch", "--threads", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "verify tensor-bilinear --zwindow 3", "verify orthopoly --zwindow 3",
    "verify virasoro --zwindow 3", "verify hirota --zwindow 3"])
def test_zwindow_flag_rejected(argv):
    # the z window is derived from the sizes; no subcommand has the flag
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


def test_compute_tutte(capsys):
    code, out, _ = run_cli(capsys, "compute", "tutte", "--order", "4")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == ["1", "2", "9", "54", "378"]
    assert data["signed"][1] == "-2"


def test_compute_free_energy(capsys):
    code, out, _ = run_cli(capsys, "compute", "free-energy", "--order", "1")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"]["1"] == {"0": "-1/4", "2": "-1/2"}


def test_graph_degree_from_file(tmp_path, capsys):
    f = tmp_path / "melon.json"
    f.write_text(MELON_JSON)
    code, out, _ = run_cli(capsys, "graph", "degree", "--file", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 0
    assert data["jacket_genera"] == {"1-2-3": 0}


def test_graph_jackets(tmp_path, capsys):
    f = tmp_path / "melon.json"
    f.write_text(MELON_JSON)
    code, out, _ = run_cli(capsys, "graph", "jackets", "--file", str(f))
    assert code == 0
    assert json.loads(out)["jackets"] == [[1, 2, 3]]


def test_graph_needs_file(capsys):
    code, _, err = run_cli(capsys, "graph", "degree")
    assert code == 2
    assert "--file" in err


def test_moment_matrix(capsys):
    code, out, _ = run_cli(capsys, "moment", "matrix", "4")
    assert code == 0
    assert json.loads(out)["moment"] == {"-1": "1", "1": "2"}


def test_moment_matrix_rejects_negative(capsys):
    code, _, err = run_cli(capsys, "moment", "matrix", "--", "-2")
    assert code == 2
    assert "powers" in err


def test_moment_tensor_from_file(tmp_path, capsys):
    f = tmp_path / "melon.json"
    f.write_text(MELON_JSON)
    code, out, _ = run_cli(capsys, "moment", "tensor", "--file", str(f))
    assert code == 0
    assert json.loads(out)["moment"] == {"0": "1", "1": "1"}


# a size flag the suite never reads
UNREAD_FLAGS = ["verify %s --%s 3" % (suite, flag) for suite, flag in (
    ("virasoro", "nsize"), ("commutator", "nsize"), ("bch", "nsize"),
    ("decomposition", "nsize"), ("grading", "nsize"),
    ("conjugation", "nsize"))]

# one spelling per flag: no prefix of a flag stands for it, and the
# attached short form -K3 is named by its long name
SPELLINGS = {
    "verify virasoro --pm 1": "unrecognized arguments: --pm 1",
    "verify tensor-bilinear --ord 1": "unrecognized arguments: --ord 1",
    "verify virasoro -K3": "--order is not read by verify virasoro",
}


@pytest.mark.parametrize("argv", [
    "verify commutator --D 0",
    "compute tutte --order -1",
    "verify decomposition --D 1",
    "verify decomposition --order 0",
    "verify orthopoly --nsize 0",
    "verify grading --order 0",
    "verify bch --order -1",
    "verify orthopoly --order -1",
    "compute free-energy --order 0",
    "verify grading --D 1",
    "verify conjugation --D 1",
    "verify tensor-bilinear --D 1",
    "verify conjugation --deg -1",
    "verify hirota --deg 0",
    "verify hirota --pmax 0",
    "verify tensor-bilinear --deg 0",
    "verify tensor-bilinear --pmax 0",
    "verify tensor-bilinear --order -1",
    "verify tensor-bilinear --order 0",
    "verify commutator --pmax 0",
    "verify hirota --nsize 0",
    "verify tensor-bilinear --nsize 0",
    "verify virasoro --pmax -1",
    "verify virasoro --deg -1",
    "verify virasoro --pmax 0",
    "verify virasoro --deg 0",
    "verify conjugation --deg 1",
    "verify conjugation --D 4 --deg 2",
] + UNREAD_FLAGS + list(SPELLINGS))
def test_invalid_or_vacuous_config_exits_2(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:   # argparse's own refusals
        code = exc.code
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    assert code == 2
    assert out == ""
    if argv in SPELLINGS:
        assert "error: %s" % SPELLINGS[argv] in err
        return
    *_, suite, flag, _value = argv.split()
    if argv in UNREAD_FLAGS:
        assert "error: %s is not read by verify %s" % (flag, suite) in err
    else:
        assert "error: %s must be at least" % flag in err


def test_failed_zero_check_shows_lowest_residual_terms():
    # the naive A-scale leaves a two-term residual at N = 2
    rep = _zero_check("hirota", {}, lambda: bilinear.hirota_residual(
        2, 1, 2, a_scale="1"))
    assert not rep.passed
    assert rep.detail == ("2 nonzero residual term(s), lowest: "
                          "-1/1/0/1 * t[1,1]^1; 1/1/0/1 * t[2,1]^1")


def _failures(capsys, *argv):
    """Exit code and {name: detail} of the failed checks of one run."""
    code, out, _ = run_cli(capsys, *argv)
    reps = [json.loads(x) for x in out.strip().splitlines()]
    return code, {r["name"]: r["detail"] for r in reps if not r["passed"]}


def test_failed_commutator_reports_the_operator_terms(capsys, monkeypatch):
    bad = (DiffOp(TruncSpec(2, 0, 2))
           .add_term(1, mults=(((1, 1), 1),), derivs=(((2, 2), 1),))
           .add_term(-2, derivs=(((1, 2), 1),)))
    monkeypatch.setattr(decomposition, "commutator_residual",
                        lambda D, max_q: bad)
    code, failed = _failures(capsys, "verify", "commutator", "--D", "2")
    assert code == 1
    assert failed == {"commutator": (
        "2 nonzero residual term(s), lowest: "
        "(-2)*d[1,2]^1; (1)*t[1,1]^1*d[2,2]^1")}


def test_failed_conjugation_ops_names_the_identity(capsys, monkeypatch):
    trunc = TruncSpec(2, 0, 2)
    bad = {"B_commutes_with_Y": DiffOp(trunc),
           "ad_A_squared": DiffOp(trunc).add_term(
               Fraction(1, 3), mults=(((1, 0), 2),))}
    monkeypatch.setattr(bilinear, "dressing_op_residuals", lambda D: bad)
    code, failed = _failures(capsys, "verify", "conjugation", "--D", "2",
                             "--deg", "1")
    assert code == 1
    assert failed == {"conjugation-ops": (
        "ad_A_squared: 1 nonzero residual term(s), lowest: (1/3)*t[1,0]^2")}


def test_failed_bch_names_the_entry(capsys, monkeypatch):
    orig = decomposition.bch_gamma_sym
    monkeypatch.setattr(decomposition, "bch_gamma_sym", lambda order: (
        orig(order) + USeries([0, 0, 0, 1, 0, Fraction(-2, 7)], order)))
    code, failed = _failures(capsys, "verify", "bch")
    assert code == 1
    assert failed == {"bch-closed-form": (
        "gamma - gamma_sym: 2 nonzero residual term(s), lowest: "
        "x^3: -1; x^5: 2/7")}


def test_failed_orthopoly_names_the_power_of_x(capsys, monkeypatch):
    orig = onematrix.orthopoly_det

    def shifted(size, nweight, order):
        det = orig(size, nweight, order)
        return [det[0] + USeries([0, Fraction(1, 2)], order)] + det[1:]

    monkeypatch.setattr(onematrix, "orthopoly_det", shifted)
    code, failed = _failures(capsys, "verify", "orthopoly", "--nsize", "1")
    assert code == 1
    assert failed["orthopoly"] == (
        "det - charpoly[0]: 1 nonzero residual term(s), lowest: x^1: 1/2")


def test_failed_orthopoly_chain_names_the_rung(capsys, monkeypatch):
    orig = onematrix.kernel_norm
    monkeypatch.setattr(onematrix, "kernel_norm", lambda s, nw, order: (
        orig(s, nw, order) + USeries([0, 0, 3], order)))
    code, failed = _failures(capsys, "verify", "orthopoly", "--nsize", "1")
    assert code == 1
    assert failed == {"orthopoly-chain": (
        "step[0]: 1 nonzero residual term(s), lowest: x^2: -3")}


def test_failed_decomposition_names_the_route(capsys, monkeypatch):
    orig = decomposition.intermediate_field_z

    def shifted(D, order):
        z = orig(D, order)
        return z + Series(z.trunc).add_term(Fraction(1, 4), hl=2, hn=2)

    monkeypatch.setattr(decomposition, "intermediate_field_z", shifted)
    code, failed = _failures(capsys, "verify", "decomposition")
    assert code == 1
    assert failed == {"decomposition": (
        "intermediate: 1 nonzero residual term(s), lowest: "
        "-1/4/0/1 * sqrtLam^2 * sqrtN^2")}


def test_failed_sandwich_shows_lowest_residual_terms(capsys, monkeypatch):
    trunc = TruncSpec(2, 2, 2)
    bad = (Series(trunc).add_term(Fraction(1, 2), hl=1)
           .add_term(-3, times=(((2, 1), 1),)).add_term(1, hl=2)
           .add_term(5, zexp=1))
    monkeypatch.setattr(bilinear, "conjugation_sandwich_residual",
                        lambda mono, D, _ops: bad)
    code, out, _ = run_cli(capsys, "verify", "conjugation", "--D", "2",
                           "--deg", "1")
    assert code == 1
    sandwich = [json.loads(x) for x in out.strip().splitlines()][1]
    assert sandwich["name"] == "conjugation-sandwich"
    assert not sandwich["passed"]
    assert sandwich["detail"] == (
        "mismatch at 1: 4 nonzero residual term(s), lowest: "
        "-3/1/0/1 * t[2,1]^1; 5/1/0/1 * z^1; 1/2/0/1 * sqrtLam^1 * sqrt2^1")


# malformed graph files: each a configuration error, never a traceback
# (a negative count used to pass as an empty graph, a float one as an int)
BAD_GRAPHS = ['{"D": 3, "edges": []}',
              '{"D": 2, "white": 1, "edges": [{"w": 0, "b": 0}]}',
              '{"D": "3", "white": 1, "edges": []}',
              '[1, 2]',
              '{"D": 2, "white": -1, "edges": []}',
              '{"D": 2, "white": 1, "black": 1.0, "edges": '
              '[{"w": 0, "b": 0, "c": 1}, {"w": 0, "b": 0, "c": 2}]}']


@pytest.mark.parametrize("cmd", ["graph degree", "moment tensor"])
@pytest.mark.parametrize("text", BAD_GRAPHS)
def test_malformed_graph_json_exits_2(tmp_path, capsys, cmd, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    code, out, err = run_cli(capsys, *cmd.split(), "--file", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("D", [2, 3])
def test_conjugation_control_fails_at_least_degree(capsys, monkeypatch, D):
    # negative control: [A, Y] at twice the A-scale must fail at the least
    # accepted degree D-1; one degree lower e^Y never fires and is refused
    orig = bilinear.closed_form_AY
    monkeypatch.setattr(bilinear, "closed_form_AY",
                        lambda *args, **kw: orig(*args, **dict(kw, scale=2)))
    code, out, _ = run_cli(capsys, "verify", "conjugation", "--D", str(D),
                           "--deg", str(D - 1))
    assert code == 1
    sandwich = [json.loads(x) for x in out.strip().splitlines()][1]
    assert not sandwich["passed"]
    assert sandwich["params"] == {"D": D, "deg": D - 1}
    code, out, err = run_cli(capsys, "verify", "conjugation", "--D", str(D),
                             "--deg", str(D - 2))
    assert code == 2 and out == ""
    assert "error: --deg must be at least %d" % (D - 1) in err


def test_conjugation_control_reaches_shared_closed_form(capsys, monkeypatch):
    # the sandwich shares [A, Y] across the basis monomials of one ring:
    # the shared operator must still be the closed form under test
    orig = bilinear.closed_form_AY
    monkeypatch.setattr(bilinear, "closed_form_AY",
                        lambda *args, **kw: orig(*args, **dict(kw, scale=2)))
    code, out, _ = run_cli(capsys, "verify", "conjugation", "--D", "2")
    assert code == 1
    sandwich = [json.loads(x) for x in out.strip().splitlines()][1]
    assert sandwich["detail"].startswith("mismatch at ")


def test_conjugation_keeps_no_operator_across_runs(capsys, monkeypatch):
    # the operators are shared within one run only: a second run builds
    # them all again
    calls = []
    orig = bilinear.build_Y

    def counted(*args, **kw):
        calls.append(args)
        return orig(*args, **kw)

    monkeypatch.setattr(bilinear, "build_Y", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert run_cli(capsys, "verify", "conjugation", "--D", "2")[0] == 0
        counts.append(len(calls))
    n_sandwich = len(bilinear.basis_monomials(2, 2, 2))
    assert 0 < counts[0] == counts[1] < 2 * n_sandwich


def test_virasoro_control_fails_at_least_sizes(capsys, monkeypatch):
    # negative control: doubling the p t_p d/dt_{p+n} terms of L_n must
    # fail at the least accepted box, --pmax 1 --deg 1 (it passes at
    # index cap 0 or degree cap 0, which are refused)
    orig = onematrix.virasoro_op

    def doubled(n, trunc):
        op = orig(n, trunc)
        extra = DiffOp(trunc)
        for (mono, mults, derivs), c in op.terms.items():
            if mults:
                extra.add_term(c, mono, mults, derivs)
        return op + extra

    monkeypatch.setattr(onematrix, "virasoro_op", doubled)
    code, out, _ = run_cli(capsys, "verify", "virasoro", "--pmax", "1",
                           "--deg", "1")
    assert code == 1
    reps = [json.loads(x) for x in out.strip().splitlines()]
    assert [r["params"]["n"] for r in reps if not r["passed"]] == [-1, 1]
    assert all(r["params"]["p_ext"] == r["params"]["deg"] == 1 for r in reps)


# the flags each subcommand reads, written out by hand: 41 in all
READS = {
    "verify commutator": {"--D", "--pmax", "--format"},
    "verify bch": {"--order", "--format"},
    "verify decomposition": {"--D", "--order", "--format"},
    "verify grading": {"--D", "--order", "--format"},
    "verify virasoro": {"--pmax", "--deg", "--format"},
    "verify orthopoly": {"--nsize", "--order", "--format"},
    "verify hirota": {"--deg", "--pmax", "--nsize", "--format"},
    "verify conjugation": {"--D", "--deg", "--format"},
    "verify tensor-bilinear": {"--D", "--order", "--nsize", "--deg",
                               "--pmax", "--format"},
    "compute tutte": {"--order", "--format"},
    "compute free-energy": {"--order", "--format"},
    "graph degree": {"--file", "--format"},
    "graph jackets": {"--file", "--format"},
    "moment matrix": {"--format"},
    "moment tensor": {"--file", "--format"},
}
SHARED = ("--D", "--order", "--pmax", "--deg", "--nsize", "--format",
          "--file")
UNREAD_PAIRS = [(cmd, flag) for cmd in READS for flag in SHARED
                if flag not in READS[cmd]]


@pytest.mark.parametrize("cmd,flag", UNREAD_PAIRS)
def test_unread_shared_flag_exits_2(capsys, cmd, flag):
    # refused before anything runs, whatever the value
    value = "melon.json" if flag == "--file" else "3"
    positional = ["2"] if cmd == "moment matrix" else []
    code, out, err = run_cli(capsys, *cmd.split(), *positional, flag, value)
    assert code == 2
    assert out == ""
    assert "error: %s is not read by %s" % (flag, cmd) in err


def test_short_order_flag_is_refused_by_its_long_name(capsys):
    code, _, err = run_cli(capsys, "verify", "virasoro", "-K", "3")
    assert code == 2
    assert "error: --order is not read by verify virasoro" in err


@pytest.mark.parametrize("cmd", sorted(READS))
def test_help_lists_exactly_the_read_flags(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([*cmd.split(), "--help"])
    assert exc.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*",
                           capsys.readouterr().out))
    want = READS[cmd] | ({"-K"} if "--order" in READS[cmd] else set())
    assert shown - {"-h", "--help"} == want


def test_readme_command_lines_parse():
    # parse only: every `melontau` line of the README is accepted and
    # passes only flags its subcommand reads
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln.split("#")[0].split()[1:]
             for ln in readme.read_text().splitlines()
             if ln.startswith("melontau ")]
    assert {" ".join(argv[:2]) for argv in lines} == set(READS)
    for argv in lines:
        _parse(argv)
        flags = {"--order" if t == "-K" else t.split("=")[0]
                 for t in argv if t.startswith("-")}
        assert flags <= READS[" ".join(argv[:2])], argv


def test_graph_file_is_closed(tmp_path):
    f = tmp_path / "melon.json"
    f.write_text(MELON_JSON)
    src = os.path.dirname(os.path.dirname(melontau.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
         "melontau", "graph", "degree", "--file", str(f)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "ResourceWarning" not in proc.stderr


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_emit_maps_failures_to_exit_1(capsys):
    good = CheckReport("a", True)
    bad = CheckReport("b", False, {"D": 3}, "broke")
    assert emit([good], "json") == 0
    assert emit([good, bad], "text") == 1
    out = capsys.readouterr().out
    assert "FAIL b [D=3] -- broke" in out


def test_module_entry_point():
    # the child imports the same melontau as this process
    src = os.path.dirname(os.path.dirname(melontau.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "melontau", "moment", "matrix", "2", "2",
         "--format", "text"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "2*N^0 + 1*N^2" in proc.stdout


def test_check_names_match_the_benchmark(capsys):
    # the benchmark counts a renamed or reordered check as a failed
    # operation; pin the names here so such a change fails the tests
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for suites in workloads.SUITES.values():
        for suite, extra in suites:
            code, out, _ = run_cli(capsys, "verify", suite, *extra)
            names = tuple(json.loads(x)["name"]
                          for x in out.strip().splitlines())
            assert code == 0, suite
            assert names == workloads.EXPECTED_CHECKS[suite], suite


@pytest.mark.parametrize("workload", ["moments", "dressed-bilinear",
                                      "many-small"])
def test_traced_benchmark_run_is_correct(workload):
    # the traced run checks the recorded digests, that every expected span
    # fires and that every wrapped name exists: a refactor that keeps the
    # tests green but breaks one of these fails here
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=root, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True, [
        x for x in lines if x.startswith("FAILED")]
