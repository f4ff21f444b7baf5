import json
import subprocess
import sys

import pytest

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


def test_cli_pairsearch_verbose_progress(capsys):
    assert main(["pairsearch", "--amalgam", "A4s", "--verbose"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "  [candidate] {'order': 2, 'index': 1}",
        "  [hList] {'n': 6, 'hCandidates': 15, 'hCosets': 7}",
        "  [accepted] {'count': 1}",
        "  [accepted] {'count': 2}",
    ]


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


def test_cli_aut_to_stdout_reads_back(tmp_path, capsys):
    graph_file = tmp_path / "c4.graph"
    graph_file.write_text(cycle_graph(4).to_text())
    assert main(["aut", str(graph_file)]) == 0
    captured = capsys.readouterr()
    A = read_group_file(captured.out)
    assert A.order() == 8
    assert captured.err.strip() == "order 8"


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
    # no witness option: the example derives its witness and every fact passes
    assert main(["example", "4.2"]) == 0
    assert "example 4.2: PASS" in capsys.readouterr().out


def test_cli_example_has_no_witness_search_option(capsys):
    # the witness search has no budget to set: its scan bound is a constant
    with pytest.raises(SystemExit) as exc:
        main(["example", "4.2", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example", "4.2", "--witness", "w.json"], "unrecognized arguments"),
        (["example", "all", "--jobs", "2"], "unrecognized arguments"),
        (["witness42"], "invalid choice: 'witness42'"),
    ],
)
def test_cli_has_no_witness_file_jobs_or_witness42(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    assert main(["aut", "/nonexistent/file.graph"]) == 1
    # a negative size is named at the header, not deep inside numpy
    bad = tmp_path / "neg.graph"
    bad.write_text("-1 0\n")
    assert main(["aut", str(bad)]) == 1
    assert "header '-1 0' has a negative size or count" in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hatlab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pairsearch" in proc.stdout
