import json
import subprocess
import sys

from hatlab.cli import main
from hatlab.graphs import cycle_graph
from hatlab.group import PermutationGroup, read_group_file, write_group_file
from hatlab.perm import Permutation


def test_group_file_roundtrip():
    G = PermutationGroup([Permutation.parse("(0 1 2 3)"), Permutation.parse("(0 2)", 4)])
    text = write_group_file(G)
    H = read_group_file(text)
    assert H.order() == G.order()
    assert H.degree == G.degree


def test_cli_pairsearch_a4(tmp_path, capsys):
    out = tmp_path / "a4.json"
    code = main(["pairsearch", "--amalgam", "A4s", "--json", str(out), "--verify"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 2
    assert payload["complete"] is True
    for entry in payload["results"]:
        assert entry["quadrupleSignature"] == ["S5", "F5", "A4", "C2"]
        assert entry["verified"] is True
        assert "hCycles" in entry and "mCycles" in entry and "n" in entry


def test_cli_aut_command(tmp_path, capsys):
    graph_file = tmp_path / "c5.graph"
    graph_file.write_text(cycle_graph(5).to_text())
    gens_file = tmp_path / "c5.gens"
    code = main(["aut", str(graph_file), "--gens-out", str(gens_file)])
    assert code == 0
    captured = capsys.readouterr()
    assert "order 10" in captured.out
    A = read_group_file(gens_file.read_text())
    assert A.order() == 10


def test_cli_altgraph_command(tmp_path, capsys):
    from test_symmetry import hat_circulant

    graph, act = hat_circulant(12, 5)
    gfile = tmp_path / "c12.graph"
    gfile.write_text(graph.to_text())
    sfile = tmp_path / "m.group"
    sfile.write_text(write_group_file(act.group))
    jfile = tmp_path / "alt.json"
    code = main(["altgraph", "--graph", str(gfile), "--subgroup", str(sfile), "--json", str(jfile)])
    assert code == 0
    payload = json.loads(jfile.read_text())
    assert payload["cycleCount"] >= 2
    assert payload["radius"] >= 2
    assert "attachment" in payload
    assert "altAutOrder" in payload


def test_cli_example_43(tmp_path):
    out = tmp_path / "e43.json"
    code = main(["example", "4.3", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


def test_cli_example_42_default_witness(capsys):
    # no --witness: the shipped witness file is found and every fact passes
    assert main(["example", "4.2"]) == 0
    assert "example 4.2: PASS" in capsys.readouterr().out


def test_cli_example_42_explicit_witness(capsys):
    from test_examples import WITNESS_PATH

    assert main(["example", "4.2", "--witness", WITNESS_PATH]) == 0
    assert "example 4.2: PASS" in capsys.readouterr().out


def test_cli_error_paths(capsys):
    assert main(["aut", "/nonexistent/file.graph"]) == 1


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hatlab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pairsearch" in proc.stdout
