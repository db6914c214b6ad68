import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import specmult.cli as cli_mod
from specmult.cli import main
from specmult.graphs import Graph, cycle_graph, serialize_graph, tadpole_graph
from specmult.hermitian import (
    HermitianMatrix,
    a_alpha_gain,
    adjacency_matrix,
    gain_graph,
    random_in_S,
    serialize_matrix,
)
from specmult.spectra import multiplicity
from specmult.theorems import RelationProbe, conclusion_classifier, lemma_relation_checks


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(serialize_graph(cycle_graph(5)))
    return str(path)


@pytest.fixture()
def tadpole_file(tmp_path):
    path = tmp_path / "tadpole.graph"
    path.write_text(serialize_graph(tadpole_graph(4, 2)))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_and_json(capsys, c5_file):
    code, out, err = _run(capsys, ["analyze", "--graph", c5_file])
    assert code == 0 and err == ""
    assert "n=5" in out and "theta=1" in out and "Cycle" in out
    code, out, _ = _run(capsys, ["analyze", "--graph", c5_file, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 5 and report["family"]["kind"] == "Cycle"


def test_mult_rational(capsys, c5_file):
    code, out, _ = _run(capsys, ["mult", "--graph", c5_file, "--lambda", "2"])
    assert code == 0 and "multiplicity 1" in out
    code, out, _ = _run(capsys, ["mult", "--graph", c5_file, "--lambda", "2", "--json"])
    payload = json.loads(out)
    assert payload["multiplicity"] == 1 and payload["method"] != "NumericCluster"


def test_mult_algebraic_minpoly(capsys, c5_file):
    argv = ["mult", "--graph", c5_file, "--lambda-minpoly=-1,1,1", "--near", "0.6", "--json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["multiplicity"] == 2
    # two real roots and no locator: refuse rather than guess
    code, out, err = _run(capsys, ["mult", "--graph", c5_file, "--lambda-minpoly=-1,1,1"])
    assert code == 1 and out == ""
    assert "real roots" in json.loads(err)["message"]
    # x^3 - 2 has one real root and two complex ones: accepted, no locator needed
    code, out, _ = _run(capsys, ["mult", "--graph", c5_file, "--lambda-minpoly=-2,0,0,1", "--json"])
    assert code == 0 and json.loads(out)["multiplicity"] == 0


def test_mult_minpoly_must_be_squarefree_and_may_be_reducible(capsys, tmp_path):
    # K3 has the simple eigenvalue 2 and the double eigenvalue -1
    k3 = tmp_path / "k3.graph"
    k3.write_text(serialize_graph(cycle_graph(3)))
    base = ["mult", "--graph", str(k3), "--near", "2", "--json"]
    # (x - 2)^2 is no squarefree description of 2: refused, not answered 0
    code, out, err = _run(capsys, base + ["--lambda-minpoly=4,-4,1"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParameterOutOfRange" and "squarefree" in err
    # (x - 1)(x - 2) is reducible but squarefree: its root near 2 is simple
    code, out, _ = _run(capsys, base + ["--lambda-minpoly=2,-3,1"])
    assert code == 0 and json.loads(out)["multiplicity"] == 1
    code, out, _ = _run(capsys, base[:-3] + ["--lambda-minpoly=2,-3,1", "--near", "-1.1", "--json"])
    assert code == 0 and json.loads(out)["multiplicity"] == 0
    # x^2 - 2 at 0: midway between its two roots, so it names neither
    code, out, err = _run(capsys, base[:-3] + ["--lambda-minpoly=-2,0,1", "--near", "0", "--json"])
    assert code == 1 and "midway" in json.loads(err)["message"]
    # x^2 + 1 has no real root
    code, _, err = _run(capsys, base + ["--lambda-minpoly=1,0,1"])
    assert code == 1 and "no real root" in json.loads(err)["message"]


def test_mult_numeric_mode(capsys, c5_file):
    code, out, _ = _run(capsys, ["mult", "--graph", c5_file, "--lambda", "2", "--numeric", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 1 and payload["method"] == "NumericCluster"


def test_mult_requires_lambda(capsys, c5_file):
    code, _, err = _run(capsys, ["mult", "--graph", c5_file])
    assert code == 1 and "eigenvalue" in json.loads(err)["message"]


def test_mult_bad_lambda(capsys, c5_file):
    code, _, err = _run(capsys, ["mult", "--graph", c5_file, "--lambda", "twelve"])
    assert code == 1 and json.loads(err)["error"] == "ParameterOutOfRange"


def test_classify(capsys, tadpole_file):
    code, out, _ = _run(capsys, ["classify", "--graph", tadpole_file, "--lambda", "0"])
    assert code == 0 and "OneDeficientFormB" in out
    code, out, _ = _run(capsys, ["classify", "--graph", tadpole_file, "--lambda", "0", "--json"])
    payload = json.loads(out)
    assert payload["verdict"] == "OneDeficientFormB"
    assert payload["evidence"]["multiplicity"] == 2
    assert payload["evidence"]["violations"] == []


def test_classify_matrix_file(capsys, tmp_path):
    from specmult.theorems import fixture_tadpole_matrix

    b = fixture_tadpole_matrix()
    gpath = tmp_path / "g.graph"
    gpath.write_text(serialize_graph(b.pattern))
    mpath = tmp_path / "b.matrix"
    mpath.write_text(serialize_matrix(b))
    argv = [
        "classify", "--graph", str(gpath), "--matrix", str(mpath),
        "--lambda=-9", "--json",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["verdict"] == "OneDeficientFormB"


def test_weighted_matrix_file_replies_as_the_library(capsys, tmp_path):
    """A weighted 16-vertex instance read from files: mult, classify and
    check print exactly the library's JSON reply for the same matrix. Two
    pendants twinned at one hub with equal diagonal entries d make d an
    eigenvalue."""
    rng = random.Random(1801)
    n = 16
    edges = [(v, rng.randrange(v)) for v in range(1, n - 2)] + [(0, 5), (3, 11), (n - 2, 4), (n - 1, 4)]
    g = Graph(n, edges)
    rows = [list(row) for row in random_in_S(g, seed=rng.randrange(1 << 30)).entries]
    rows[n - 1][n - 1] = rows[n - 2][n - 2]
    b = HermitianMatrix.from_rows(rows, pattern=g)
    eig = rows[n - 2][n - 2].re
    gpath, mpath = tmp_path / "g.graph", tmp_path / "b.mat"
    gpath.write_text(serialize_graph(g))
    mpath.write_text(serialize_matrix(b))
    files = ["--graph", str(gpath), "--matrix", str(mpath)]
    vertex = 4
    probe = RelationProbe("interlace-v", vertex=vertex)
    cases = [
        (["mult"], Fraction(0), lambda lam: multiplicity(b, lam)),
        (["mult"], eig, lambda lam: multiplicity(b, lam)),
        (["classify"], eig, lambda lam: conclusion_classifier(g, b, lam)),
        (["check", "--relation", "interlace-v", "--vertex", str(vertex)], eig,
         lambda lam: lemma_relation_checks(g, b, lam, probe)),
    ]
    for head, lam, library in cases:
        code, out, err = _run(capsys, head + files + [f"--lambda={lam}", "--json"])
        assert (code, err) == (0, "")
        assert out == cli_mod._dump(library(lam).as_json()) + "\n"
    assert multiplicity(b, eig).multiplicity >= 1


def test_matrix_pattern_mismatch(capsys, tmp_path, c5_file):
    mpath = tmp_path / "wrong.matrix"
    mpath.write_text(serialize_matrix(adjacency_matrix(tadpole_graph(3, 2))))
    argv = ["mult", "--graph", c5_file, "--matrix", str(mpath), "--lambda", "0"]
    code, _, err = _run(capsys, argv)
    assert code == 1 and json.loads(err)["error"] == "PatternMismatch"


def test_matrix_order_mismatch(capsys, tmp_path, c5_file):
    mpath = tmp_path / "small.matrix"
    mpath.write_text(serialize_matrix(adjacency_matrix(cycle_graph(4))))
    argv = ["classify", "--graph", c5_file, "--matrix", str(mpath), "--lambda", "0"]
    code, _, err = _run(capsys, argv)
    assert code == 1 and json.loads(err)["error"] == "DimensionMismatch"


def test_matrix_with_an_integer_too_large_for_a_float(capsys, tmp_path):
    gpath = tmp_path / "k2.graph"
    gpath.write_text(serialize_graph(Graph(2, [(0, 1)])))
    mpath = tmp_path / "big.matrix"
    mpath.write_text(f"2\n{'1' * 401} 0.5\n0.5 1\n")
    argv = ["mult", "--graph", str(gpath), "--matrix", str(mpath), "--lambda", "0"]
    code, out, err = _run(capsys, argv)
    assert code != 0 and out == "" and "Traceback" not in err
    assert json.loads(err) == {"error": "ParameterOutOfRange", "message": "entry (0,0) is not finite"}


def test_check_relation(capsys, c5_file):
    argv = [
        "check", "--relation", "interlace-v", "--graph", c5_file,
        "--lambda-minpoly=-1,1,1", "--near", "0.6", "--vertex", "0",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and "interlace-v: holds" in out
    argv = [
        "check", "--relation", "interlace-e", "--graph", c5_file,
        "--lambda", "2", "--edge", "0,1", "--json",
    ]
    code, out, _ = _run(capsys, argv)
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is True and payload["name"] == "interlace-e"


def test_check_gain_cycle_defaults_to_unit_gains(capsys, c5_file):
    argv = [
        "check", "--relation", "gain-cycle", "--graph", c5_file,
        "--lambda-minpoly=-1,1,1", "--near", "0.6", "--json",
    ]
    code, out, _ = _run(capsys, argv)
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is True
    assert payload["instance"]["gain_rho_zero"] is True


def test_check_gain_cycle_reads_alpha_and_gains_off_the_matrix(capsys, tmp_path, c5_file):
    mpath = tmp_path / "a_half.matrix"
    a_half = a_alpha_gain(gain_graph(cycle_graph(5), {}), Fraction(1, 2), "exact")
    mpath.write_text(serialize_matrix(a_half))
    base = [
        "check", "--relation", "gain-cycle", "--graph", c5_file, "--matrix", str(mpath), "--json",
    ]
    # 2cos(2pi/5) doubles in A(C5) but is no eigenvalue of A_1/2
    code, out, _ = _run(capsys, base + ["--lambda-minpoly=-1,1,1", "--near", "0.6"])
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is True and payload["lhs"] == 0
    assert payload["instance"]["alpha"] == "1/2"
    # 1 + cos(2pi/5), a root of 4x^2 - 6x + 1, doubles in A_1/2
    code, out, _ = _run(capsys, base + ["--lambda-minpoly=1,-6,4", "--near", "1.3"])
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is True and payload["lhs"] == 2
    assert payload["instance"]["matched_index"] == 1


def test_check_takes_no_alpha_gains_or_join(capsys, c5_file):
    """alpha and the gains are read off the matrix and the join off the
    left part, so no flag supplies them."""
    base = ["check", "--relation", "gain-cycle", "--graph", c5_file, "--lambda", "0"]
    for extra in (["--alpha", "0"], ["--gains", c5_file], ["--join", "0,1"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2


def test_check_side_condition_unmet(capsys, c5_file):
    argv = ["check", "--relation", "interlace-v", "--graph", c5_file, "--lambda", "2"]
    code, _, err = _run(capsys, argv)
    assert code == 1 and json.loads(err)["error"] == "SideConditionUnmet"


def test_check_flag_validation(capsys, c5_file):
    argv = [
        "check", "--relation", "interlace-e", "--graph", c5_file,
        "--lambda", "2", "--edge", "0,1,2",
    ]
    code, _, err = _run(capsys, argv)
    assert code == 1 and "exactly two" in json.loads(err)["message"]


def test_verify_campaign(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    argv = ["verify", "--campaign", "fixtures", "--out", str(out_file)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["campaign"] == "fixtures" and summary["discrepancies"] == 0
    assert out_file.read_text() == ""  # nothing to report
    # byte-identical reruns
    code2, out2, _ = _run(capsys, argv)
    assert code2 == 0 and out2 == out


def test_verify_only_key(capsys):
    argv = ["verify", "--campaign", "corollaries", "--cap", "6", "--only", "tree:n6:i3"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["instances"] == 1


def test_verify_cap_above_ceiling_exits_1(capsys):
    code, out, err = _run(capsys, ["verify", "--campaign", "cstar", "--cap", "12"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "CapExceeded"


def test_usage_errors_exit_2(capsys, c5_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--campaign", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mult", "--graph", c5_file, "--exact", "--numeric", "--lambda", "0"])
    assert exc.value.code == 2


def test_repeated_calls_in_one_process_agree(capsys, c5_file):
    """main() builds its parser once per process; every later call, after
    successes, domain errors and usage errors alike, answers as the first."""
    argvs = [
        ["analyze", "--graph", c5_file, "--json"],
        ["mult", "--graph", c5_file, "--lambda", "2", "--json"],
        ["classify", "--graph", c5_file, "--lambda", "2"],
        ["check", "--relation", "interlace-v", "--graph", c5_file, "--lambda", "2", "--vertex", "1"],
        ["verify", "--campaign", "connected", "--cap", "3"],
        ["mult", "--graph", c5_file],
        ["mult", "--graph", c5_file, "--matrix", c5_file, "--adjacency", "--lambda", "0"],
        ["check", "--relation", "nope", "--graph", c5_file],
        ["analyze"],
        [],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 1, 2, 2, 2, 2]
    assert all(err.startswith("usage: specmult") for _, _, err in first[6:])
    for _ in range(2):
        assert [outcome(argv) for argv in argvs] == first
    assert [outcome(argv) for argv in reversed(argvs)] == first[::-1]
    assert cli_mod._build_parser() is cli_mod._build_parser()


def test_missing_file_reports_io_error(capsys):
    code, _, err = _run(capsys, ["analyze", "--graph", "/nonexistent/g.graph"])
    assert code == 1 and json.loads(err)["error"] == "IOError"


def test_console_entry_point(c5_file):
    proc = subprocess.run(
        [sys.executable, "-m", "specmult.cli", "mult", "--graph", c5_file, "--lambda", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["multiplicity"] == 1
