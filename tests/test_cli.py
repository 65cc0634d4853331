import hashlib
import json
import random
import re

import pytest

from folkman.arrowing import ArrowInstance, ArrowSpec, arrows_edges
from folkman.cli import main, resolve_graph
from folkman.graphs import complete, cycle, edges, emit_graph6, join, parse_graph6
from oracles import brute_arrows_edges_2color, relabelled

CATALOG_SHA256 = "eac2c84f2b63bf9c2b9474aff370f72acb0b97cfd994d867988079fe16124672"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_map(out: str) -> dict:
    return {line.split(" ", 1)[0]: line.split(" ", 1)[1]
            for line in out.strip().splitlines()}


def test_construct_q(capsys):
    code, out, _ = run(capsys, "construct", "q")
    kv = out_map(out)
    assert code == 0
    assert kv["n"] == "13"
    assert kv["clique_number"] == "4"
    assert kv["independence_number"] == "2"


def test_construct_theorem_graph(capsys):
    code, out, _ = run(capsys, "construct", "theorem-graph")
    kv = out_map(out)
    assert code == 0
    assert kv["n"] == "21"
    assert kv["edges"] == "184"
    assert kv["clique_number"] == "12"


def test_construct_k8_and_circulant_and_join(capsys):
    code, out, _ = run(capsys, "construct", "K8")
    assert code == 0 and out_map(out)["clique_number"] == "8"
    code, out, _ = run(capsys, "construct", "C13(1,5)")
    assert code == 0 and out_map(out)["edges"] == "26"
    assert out_map(out)["label"] == "C13(1,5)"
    code, out, _ = run(capsys, "construct", "K8+q")
    assert code == 0 and out_map(out)["n"] == "21"
    assert out_map(out)["label"] == "K8+Q"


LABELLED_SOURCES = ["K1", "K8", "C5", "C13(1,5)", "C13(5,1)+K2", "q", "Q",
                    "theorem-graph", "lin-graph", "K8+q", "K3+C5+C5", "K11+C5",
                    "K1+C5+C5+C5"]


@pytest.mark.parametrize("source", LABELLED_SOURCES)
def test_graph_labels_read_back_as_their_graph(source):
    # resolve_graph reads the grammar the constructors write, so a label
    # the package prints names the same graph, with the same label.
    g = resolve_graph(source)
    again = resolve_graph(g.label)
    assert (again, again.label) == (g, g.label)


@pytest.mark.parametrize("source", ["C300000", "C300000(1)"])
def test_construct_refuses_a_large_cycle_before_building_it(capsys, source):
    # The vertex count is checked before any row is built, so this is
    # refused at once instead of after gigabytes of rows.
    code, _, err = run(capsys, "construct", source)
    assert code == 3
    assert "vertex count 300000 outside 1..128" in err


def test_path_source_carries_no_label(capsys, tmp_path):
    # A file's name is not a graph source, and the file can change: K5 in
    # a file named K6.g6 is unlabeled, as its graph6 string is.
    path = tmp_path / "K6.g6"
    path.write_text(emit_graph6(complete(5)))
    code, out, _ = run(capsys, "construct", f"@{path}")
    assert code == 0
    assert (out_map(out)["label"], out_map(out)["n"]) == ("-", "5")


def test_construct_witnesses_are_pinned(capsys):
    # `max_clique` fixes which maximum clique and independent set
    # `construct` prints; a rewrite of it must keep them.
    for name, clique, indep in [("q", [6, 8, 10, 12], [11, 12]),
                                ("C5", [3, 4], [2, 4]),
                                ("theorem-graph",
                                 [0, 1, 2, 3, 4, 5, 6, 7, 14, 16, 18, 20], [19, 20])]:
        code, out, _ = run(capsys, "construct", name)
        kv = out_map(out)
        assert code == 0
        assert json.loads(kv["clique_witness"]) == clique, name
        assert json.loads(kv["independent_set_witness"]) == indep, name


def test_builtin_names_are_not_graph6():
    # resolve_graph tries graph6 before the builtin names, so no name may
    # also read as a graph6 string; nor may a label the constructors write.
    from folkman.bounds import BUILTIN_GRAPHS
    for name in [*BUILTIN_GRAPHS, "Q", "K8+Q", "K8+C5+C5", "C13(1,5)"]:
        with pytest.raises(ValueError):
            parse_graph6(name)


def test_construct_unknown(capsys):
    code, _, err = run(capsys, "construct", "no-such-graph")
    assert code == 3
    assert "error" in err


def test_arrows_edges_k6_exit_0(capsys):
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3")
    assert code == 0
    assert out_map(out)["verdict"] == "arrows"
    assert set(out_map(err)) == {"setup_seconds", "seconds"}


def test_arrows_edges_k5_exit_1_with_witness(capsys, tmp_path):
    wpath = tmp_path / "witness.json"
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "K5",
                       "--spec", "3,3", "--witness", str(wpath))
    assert code == 1
    obj = json.loads(wpath.read_text())
    assert obj["kind"] == "edges"
    assert parse_graph6(obj["graph6"]) == complete(5)
    triples = obj["coloring"]
    assert [tuple(t[:2]) for t in triples] == edges(complete(5))
    # witness re-verifies when fed back through the library
    from folkman.arrowing import ArrowSpec, EdgeColoring, is_free_edge_coloring
    c = EdgeColoring(complete(5), tuple(c for *_, c in triples))
    ok, _ = is_free_edge_coloring(complete(5), ArrowSpec((3, 3)), c)
    assert ok


def test_arrows_edges_edgeless_exit_1_with_empty_witness(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "K1",
                       "--spec", "3,3", "--witness", str(wpath))
    assert code == 1
    assert out_map(out)["nodes"] == "0"
    assert json.loads(wpath.read_text())["coloring"] == []


def test_arrows_vertices_q_exit_0(capsys):
    code, out, _ = run(capsys, "arrows", "vertices", "--graph", "q", "--spec", "3,4")
    assert code == 0
    assert out_map(out)["verdict"] == "arrows"


def test_arrows_vertices_c5_exit_1_with_witness(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    code, out, _ = run(capsys, "arrows", "vertices", "--graph", "C5", "--spec", "2,3",
                       "--witness", str(wpath))
    assert code == 1
    obj = json.loads(wpath.read_text())
    assert obj["kind"] == "vertices"
    assert obj["coloring"] == [1, 2, 1, 2, 2]


def test_arrows_budget_exit_2(capsys):
    # K9 -> (3,4) now takes 98 nodes; the open K8+C5+C5 -> (3,5) takes
    # millions.
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "lin-graph",
                       "--spec", "3,5", "--max-nodes", "100")
    assert code == 2
    assert out_map(out)["verdict"] == "budget-exhausted"
    # A budget of no nodes is refused, not run out.
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K5", "--spec", "3,3",
                         "--max-nodes", "0")
    assert (code, out, err) == (3, "", "error: max_nodes must be positive\n")


def test_arrows_node_budget_counts_tried_colors(capsys):
    # K7 -> (3,3,3) finds its free coloring in 35 tries; a color a
    # decision's edge cannot take is not tried, so is not counted.
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "K7",
                       "--spec", "3,3,3", "--max-nodes", "35")
    assert code == 1
    assert out_map(out)["verdict"] == "free-coloring"


def test_usage_error_exit_3(capsys):
    # The usage line, then what is wrong with it.
    k6 = ["arrows", "edges", "--graph", "K6"]
    for argv, message in [
            (k6, "the following arguments are required: --spec"),
            (k6 + ["--spec", "3,3", "--bogus"], "unrecognized arguments: --bogus"),
            (k6 + ["--spec", "3,3", "--max-nodes", "abc"],
             "argument --max-nodes: invalid decimal value"),
            (["nonsense"], "invalid choice")]:
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("usage: folkman")
        last = err.rstrip().splitlines()[-1]
        assert last.startswith("error: ") and message in last, argv


def test_spec_must_be_decimal_integers(capsys):
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K5", "--spec", "1_0,3")
    assert (code, out) == (3, "")
    assert err == "error: spec size: '1_0' is not a decimal integer\n"


def test_encode_k3(capsys):
    code, out, _ = run(capsys, "encode", "--graph", "K3", "--spec", "3,3")
    assert code == 0
    assert "p cnf 3 2" in out.splitlines()


# K3+C5+C5 relabelled by `relabelled(..., random.Random(5))`: its edge-id
# table has gaps (non-adjacent pairs) inside the rows, unlike K8+Q's kernel.
RELABELLED_K3_C5_C5 = r"L~\~|~v}tz~~~N"


def test_relabelled_k3_c5_c5_graph6():
    g = relabelled(join(complete(3), join(cycle(5), cycle(5))), random.Random(5))
    assert emit_graph6(g) == RELABELLED_K3_C5_C5


@pytest.mark.parametrize("graph, header, sha", [
    ("lin-graph", "143 4982",
     "d7a04ce27b16e1d2ebb64b4d4160faa6415a8ae949d5872c85b0de6471eae287"),
    (RELABELLED_K3_C5_C5, "68 446",
     "5ae7b14591e547651c5b68227b1e66c8f74f9b607de2f9763395903d00c6cd93"),
    ("K8+C5+C5", "143 4982",
     "d7a04ce27b16e1d2ebb64b4d4160faa6415a8ae949d5872c85b0de6471eae287"),
    ("K8+q", "184 7288",
     "1db983c4daf1e0fb098631f12433725bbed4c16f61082756f81ea39502e98325"),
], ids=["lin-graph", "relabelled-K3+C5+C5", "K8+C5+C5", "K8+q"])
def test_encode_dimacs_pins(capsys, tmp_path, graph, header, sha):
    # DIMACS bytes beyond the theorem graph's pin in test_cnf.py.  The
    # DIMACS names the graph's label, so a source whose label is that of a
    # builtin name (lin-graph is K8+C5+C5, theorem-graph K8+Q) encodes to
    # the builtin's bytes.
    path = tmp_path / "out.cnf"
    code, out, _ = run(capsys, "encode", "--graph", graph, "--spec", "3,5", "-o", str(path))
    assert code == 0
    assert out_map(out)["sha256"] == sha
    assert f"p cnf {header}" in path.read_text().splitlines()


def test_encode_reads_a_path_with_a_line_break_unlabeled(capsys, tmp_path):
    # A graph read from `@path` carries no label, so the file's name, line
    # break and all, never reaches the DIMACS comment: it encodes to the
    # bytes of its graph6 string.
    path = tmp_path / "bad\nname.g6"
    path.write_text(emit_graph6(complete(5)))
    written = []
    for i, source in enumerate((f"@{path}", emit_graph6(complete(5)))):
        out_path = tmp_path / f"out{i}.cnf"
        code, _, _ = run(capsys, "encode", "--graph", source, "--spec", "3,3",
                         "-o", str(out_path))
        assert code == 0
        written.append(out_path.read_text())
    assert written[0] == written[1]
    assert "c graph unlabeled n=5 m=10" in written[0].splitlines()


def test_encode_decode_pipeline(capsys, tmp_path):
    cnf_path = tmp_path / "k5.cnf"
    code, out, _ = run(capsys, "encode", "--graph", "K5", "--spec", "3,3",
                       "-o", str(cnf_path))
    assert code == 0
    assert out_map(out)["vars"] == "10"
    # play external solver: brute-force a model, write SAT-competition output
    g = complete(5)
    arrows, witness = brute_arrows_edges_2color(g, (3, 3))
    assert not arrows
    lits = [i if witness[e] == 1 else -i for i, e in enumerate(edges(g), start=1)]
    model_path = tmp_path / "model.txt"
    model_path.write_text("s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n")
    wpath = tmp_path / "decoded.json"
    code, out, _ = run(capsys, "decode", "--graph", "K5", "--spec", "3,3",
                       "--model", str(model_path), "--witness", str(wpath))
    assert code == 0
    assert out_map(out)["verdict"] == "free-coloring"
    assert json.loads(wpath.read_text())["kind"] == "edges"


def test_decode_truncated_model(capsys, tmp_path):
    model_path = tmp_path / "model.txt"
    model_path.write_text("s SATISFIABLE\nv 1 -2 0\n")
    code, _, err = run(capsys, "decode", "--graph", "K5", "--spec", "3,3",
                       "--model", str(model_path))
    assert code == 3
    assert "unassigned" in err


@pytest.mark.parametrize("lits", ["1 -1 2 3 999", "-1 2 3 1"])
def test_decode_refuses_model_for_another_formula(capsys, tmp_path, lits):
    # The first model once decoded to a free coloring, the second to an
    # "encoder/solver inconsistency": the last literal for a variable won.
    model_path = tmp_path / "model.txt"
    model_path.write_text(f"v {lits} 0\n")
    code, out, err = run(capsys, "decode", "--graph", "K3", "--spec", "3,3",
                         "--model", str(model_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: model ")


def test_certify_pipeline_k6(capsys, tmp_path):
    # With no evidence file, certify runs the edge search itself.
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--graph", "K6", "--spec", "3,3",
                       "--q", "7", "-o", str(cert_path))
    assert code == 0
    assert out_map(out)["bound"] == "F_e(3,3;7) <= 6"
    cert = json.loads(cert_path.read_text())
    assert cert["bound"] == "F_e(3,3;7) <= 6"
    assert cert["clique_number"] == 6
    evidence = cert["evidence"]
    assert (evidence["kind"], evidence["checked"]) == ("native-search", True)
    # 19 nodes and 6 propagations before the symmetry cut.
    assert (evidence["stats"]["nodes"], evidence["stats"]["propagations"]) == (13, 5)
    assert evidence["stats"]["prunings"]["symmetry"] == 2
    # The search's own run record is a log: certify does not take it.
    record = tmp_path / "run.json"
    code, _, _ = run(capsys, "arrows", "edges", "--graph", "K6",
                     "--spec", "3,3", "--evidence-out", str(record))
    assert code == 0
    code, out, err = run(capsys, "certify", "--graph", "K6", "--spec", "3,3",
                         "--q", "7", "--evidence", str(record))
    assert code == 3
    assert out == ""
    assert "not a solver UNSAT record" in err


@pytest.mark.parametrize("graph, spec, q, bound", [
    ("K3+C5", "3,3", "6", "F_e(3,3;6) <= 8"),  # Graham 1968
    ("K4+C5+C5", "3,4", "9", "F_e(3,4;9) <= 14"),
    ("K11+C5", "3,5", "14", "F_e(3,5;14) <= 16")])
def test_certify_checks_catalog_upper_bounds(capsys, graph, spec, q, bound):
    # Three catalog rows whose upper bound is attained by a join of K_k
    # with copies of C5, each certified by a search certify runs itself.
    code, out, _ = run(capsys, "certify", "--graph", graph, "--spec", spec, "--q", q)
    assert code == 0
    assert out_map(out)["bound"] == bound


def test_certify_rejects_inconclusive_evidence(capsys, tmp_path):
    evidence = tmp_path / "bad.json"
    evidence.write_text(json.dumps({"schema": "folkman-arrows-run/1",
                                    "verdict": "budget-exhausted"}))
    code, _, err = run(capsys, "certify", "--graph", "K6", "--spec", "3,3",
                       "--q", "7", "--evidence", str(evidence))
    assert code == 3


def test_certify_rejects_mismatched_graph(capsys, tmp_path):
    evidence = tmp_path / "run.json"
    run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
        "--evidence-out", str(evidence))
    code, out, err = run(capsys, "certify", "--graph", "K5", "--spec", "3,3",
                         "--q", "7", "--evidence", str(evidence))
    assert code == 3
    assert out == ""
    assert "not a solver UNSAT record" in err


def test_certify_refuses_untied_record_for_open_problem(capsys, tmp_path):
    # K8+C5+C5 -> (3,5) is open; a bare arrows record must not turn into
    # F_e(3,5;13) <= 18.
    evidence = tmp_path / "bare.json"
    evidence.write_text(json.dumps({"verdict": "arrows"}))
    code, out, err = run(capsys, "certify", "--graph", "lin-graph",
                         "--spec", "3,5", "--q", "13",
                         "--evidence", str(evidence))
    assert code == 3
    assert out == ""
    assert "error" in err


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)
    assert {"spec": [3, 4], "q": 9, "value": 14, "sources": ["N349"]} in entries
    # The catalog's bytes are pinned: the certify gate reads these rows.
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_SHA256


def test_deterministic_outputs_byte_identical(capsys, tmp_path):
    paths = []
    for i in range(2):
        w = tmp_path / f"w{i}.json"
        d = tmp_path / f"d{i}.cnf"
        run(capsys, "arrows", "edges", "--graph", "K8", "--spec", "3,4",
            "--witness", str(w))
        run(capsys, "encode", "--graph", "theorem-graph", "--spec", "3,5",
            "-o", str(d))
        paths.append((w.read_bytes(), d.read_bytes()))
    assert paths[0] == paths[1]


def test_no_bound_pruning_flag(capsys):
    # The neighborhood test is the instance's to decide, not a flag's: a
    # script that passes --no-bound-pruning is told what is wrong.
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
                         "--no-bound-pruning")
    assert code == 3
    assert out == ""
    assert err.rstrip().endswith("error: unrecognized arguments: --no-bound-pruning")


def test_progress_flag(capsys):
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
                         "--progress", "5")
    assert code == 0
    assert out_map(out)["nodes"] == "13"  # 19 before the symmetry cut
    assert any(line.startswith("progress nodes=5 ") for line in err.splitlines())
    assert "progress" not in out
    # Each progress line is `progress` and then `key=int` tokens: nodes,
    # depth, and the prunings as `prunings.<cause>=<n>` sorted by cause, as
    # on stdout.
    code, _, err = run(capsys, "arrows", "edges", "--graph", "K9", "--spec", "3,4",
                       "--progress", "10")
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith("progress")]
    assert len(lines) == 9  # 98 nodes
    for line in lines:
        keys = [t.split("=")[0] for t in line.split()[1:]]
        assert all(re.fullmatch(r"[a-z.]+=[0-9]+", t) for t in line.split()[1:]), line
        assert keys[:2] == ["nodes", "depth"] and keys[2:] == sorted(keys[2:])
        assert all(k.startswith("prunings.") for k in keys[2:])
    assert len(lines[-1].split()) == 6  # three causes by then


def test_progress_refuses_negative_interval(capsys):
    # `nodes % -1 == 0` would print a progress line at every node.
    for kind in ("edges", "vertices"):
        code, out, err = run(capsys, "arrows", kind, "--graph", "K6",
                             "--spec", "3,3", "--progress", "-1")
        assert code == 3
        assert out == ""
        assert err.startswith("usage: folkman") and "progress nodes" not in err
        assert err.rstrip().splitlines()[-1] == (
            "error: argument --progress: invalid decimal value: '-1'")
    # The search refuses it too, for callers that do not come through argparse.
    with pytest.raises(ValueError, match="progress interval must be >= 0, got -1"):
        arrows_edges(complete(6), ArrowSpec((3, 3)), progress_every=-1)


def test_certify_refuses_vertex_search_record(capsys, tmp_path):
    # K5 vertex-arrows (3,3) but does not edge-arrow it; F_e(3,3;7) = 6.
    evidence = tmp_path / "r.json"
    code, out, _ = run(capsys, "arrows", "vertices", "--graph", "K5",
                       "--spec", "3,3", "--evidence-out", str(evidence))
    assert code == 0 and out_map(out)["verdict"] == "arrows"
    code, out, err = run(capsys, "certify", "--graph", "K5", "--spec", "3,3",
                         "--q", "7", "--evidence", str(evidence))
    assert code == 3
    assert out == ""
    assert "error:" in err and "not a solver UNSAT record" in err
    assert json.loads(evidence.read_text())["search"] == "vertices"


def test_evidence_out_is_the_run_record(capsys, tmp_path):
    from folkman.arrowing import ArrowSpec, arrows_edges
    evidence = tmp_path / "r.json"
    run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
        "--evidence-out", str(evidence))
    record = json.loads(evidence.read_text())
    expected = arrows_edges(complete(6), ArrowSpec((3, 3))).to_json_obj()
    for timing in ("setup_seconds", "seconds"):
        del record["stats"][timing], expected["stats"][timing]
    assert record == expected
    assert record["search"] == "edges"


@pytest.mark.parametrize("argv, exit_code, verdict", [
    (["--graph", "K5", "--spec", "3,3"], 1, "free-coloring"),
    (["--graph", "K9", "--spec", "3,4", "--max-nodes", "3"], 2, "budget-exhausted")])
def test_evidence_out_records_every_verdict(capsys, tmp_path, argv, exit_code, verdict):
    evidence = tmp_path / "r.json"
    code, out, _ = run(capsys, "arrows", "edges", *argv, "--evidence-out", str(evidence))
    assert (code, out_map(out)["evidence"]) == (exit_code, str(evidence))
    assert json.loads(evidence.read_text())["verdict"] == verdict


def test_unwritable_output_exits_3(capsys, tmp_path):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
                         "--evidence-out", str(missing / "r.json"))
    assert code == 3
    assert out_map(out)["verdict"] == "arrows"
    assert "error:" in err and "Traceback" not in err
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K5", "--spec", "3,3",
                         "--witness", str(missing / "w.json"))
    assert code == 3
    assert "error:" in err


def test_construct_bad_parameters_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "C13(a,b)")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(capsys, "construct", "Cx(1,5)")
    assert code == 3 and err.startswith("error:")
    # Numbers are ASCII digits, as in a spec: int() alone would build
    # C13(1,5) from `C1_3(+1,\uff15)` and K5 from `K\uff15`.
    for source, message in [
            ("C1_3(1,5)", "circulant n: '1_3' is not a decimal integer"),
            ("C13(+1,5)", "circulant offset: '+1' is not"),
            ("C13(1,\uff15)", "circulant offset: '\uff15' is not"),
            ("K\uff15", "unknown graph source 'K\uff15'")]:
        code, out, err = run(capsys, "construct", source)
        assert (code, out) == (3, ""), source
        assert err.startswith("error: ") and message in err, source
    # A join needs a source on each side of every `+`, a circulant at least
    # one offset and its closing parenthesis.
    for source in ["K8+", "+K8", "C13()", "C13(1,5"]:
        code, out, err = run(capsys, "construct", source)
        assert (code, out) == (3, ""), source
        assert err.startswith("error: "), source
    # `construct` takes one graph source, like every other command: the
    # old parameter forms are refused by argparse.
    for argv, extra in [(["join", "K8", "q"], "K8 q"),
                        (["circulant", "13", "1,5"], "13 1,5")]:
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out) == (3, ""), argv
        assert f"error: unrecognized arguments: {extra}" in err, argv
    bad = tmp_path / "bad.g6"
    bad.write_text("~~??????\n")
    code, out, err = run(capsys, "construct", f"@{bad}")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: bad graph6 file {bad}: ")
    code, out, _ = run(capsys, "construct", "C13( 1, 5)")
    assert code == 0 and out_map(out)["label"] == "C13(1,5)"


def test_integer_flags_take_ascii_digits_only(capsys):
    # The flags read their numbers by the rule specs and graph sources use:
    # int() alone would run `1_3` and Arabic-Indic digits as 13 and read a
    # fullwidth 7 or ` +7` as 7.
    k6 = ["arrows", "edges", "--graph", "K6", "--spec", "3,3"]
    certify = ["certify", "--graph", "K6", "--spec", "3,3", "--q"]
    for argv, flag in [(k6 + ["--max-nodes", "\u0661\u0663"], "--max-nodes"),
                       (k6 + ["--max-nodes", "1_3"], "--max-nodes"),
                       (k6 + ["--progress", "\uff15"], "--progress"),
                       (certify + ["\uff17"], "--q"),
                       (certify + [" +7"], "--q")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.rstrip().splitlines()[-1].startswith(
            f"error: argument {flag}: invalid decimal value"), argv
    code, out, _ = run(capsys, *certify, "13")
    assert (code, out) == (0, "bound F_e(3,3;13) <= 6\n")
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", " 3 , 3 ",
                       "--max-nodes", " 100", "--progress", "50 ")
    assert code == 0 and out_map(out)["nodes"] == "13"


def test_over_long_numbers_are_named(capsys):
    nines = "9" * 5000
    for graph, spec, message in [(f"K{nines}", "3,3", "graph source K<n>: 5000 digits"),
                                 ("K5", f"3,{nines}", "spec size: 5000 digits")]:
        code, out, err = run(capsys, "arrows", "edges", "--graph", graph, "--spec", spec)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and message in err
        assert "Exceeds the limit" not in err


def test_over_long_integer_flag_is_named(capsys):
    # argparse would echo the whole number back on one stderr line.
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
                         "--max-nodes", "9" * 5000)
    assert (code, out) == (3, "")
    last = err.rstrip().splitlines()[-1]
    assert last.startswith("error: argument --max-nodes: ") and "5000 digits" in last
    assert len(last.encode()) < 200


def test_max_seconds_takes_ascii_decimals_only(capsys):
    # float() alone would run `1_0` and Arabic-Indic digits as 10 seconds.
    k6 = ["arrows", "edges", "--graph", "K6", "--spec", "3,3", "--max-seconds"]
    for seconds in ["1_0", "\u0661\u0660", "\uff11", "1e1", "+1", "1.2.3", ".", "", "inf"]:
        code, out, err = run(capsys, *k6, seconds)
        assert (code, out) == (3, ""), seconds
        assert err.rstrip().splitlines()[-1].startswith(
            "error: argument --max-seconds: max_seconds must be positive and finite"), seconds
    for seconds in ["1.5", " 2 ", "3.", ".5"]:
        code, out, _ = run(capsys, *k6, seconds)
        assert code == 0 and out_map(out)["nodes"] == "13", seconds


def test_internal_error_exits_4(capsys, monkeypatch):
    # A search that produces a non-free witness is a bug in the program,
    # not a verdict: it must not exit 0, 1 or 2.
    monkeypatch.setattr(ArrowInstance, "violation",
                        lambda self, colors: (1, (0, 1, 2)))
    code, out, err = run(capsys, "arrows", "edges", "--graph", "K5", "--spec", "3,3")
    assert code == 4
    assert "Traceback" in err and "non-free witness" in err


def test_propagations_reported(capsys, tmp_path):
    evidence = tmp_path / "r.json"
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "K6", "--spec", "3,3",
                       "--evidence-out", str(evidence))
    kv = out_map(out)
    assert code == 0
    # 19 nodes and 6 propagations before the symmetry cut, which K6's 5
    # generators (the adjacent transpositions of S_6) make twice.
    assert (kv["nodes"], kv["propagations"]) == ("13", "5")
    assert (kv["generators"], kv["prunings.symmetry"]) == ("5", "2")
    stats = json.loads(evidence.read_text())["stats"]
    assert (stats["nodes"], stats["propagations"]) == (13, 5)
    assert (stats["generators"], stats["prunings"]["symmetry"]) == (5, 2)


def test_vertex_search_progress(capsys):
    # Both searches are one loop, so both report progress.
    code, out, err = run(capsys, "arrows", "vertices", "--graph", "q",
                         "--spec", "3,4", "--progress", "5")
    assert code == 0
    assert out_map(out)["nodes"] == "32"
    assert any(line.startswith("progress nodes=5 ") for line in err.splitlines())
    assert "progress" not in out


def test_empty_formula_round_trip(capsys, tmp_path):
    # Two vertices and no edge: no variable and no clause, so every
    # coloring is free and the formula's one model is empty.
    code, out, _ = run(capsys, "encode", "--graph", "A?", "--spec", "3,3")
    assert code == 0 and "p cnf 0 0" in out.splitlines()
    code, out, _ = run(capsys, "arrows", "edges", "--graph", "A?", "--spec", "3,3")
    assert code == 1 and out_map(out)["verdict"] == "free-coloring"
    model_path = tmp_path / "model.txt"
    model_path.write_text("s SATISFIABLE\nv 0\n")
    code, out, _ = run(capsys, "decode", "--graph", "A?", "--spec", "3,3",
                       "--model", str(model_path))
    assert code == 0 and out_map(out)["verdict"] == "free-coloring"


def test_certify_budget(capsys, tmp_path):
    # Without --evidence certify searches; the unsplit K8+Q search does not
    # finish, so a budget turns a hang into exit 2 and no certificate.
    cert_path = tmp_path / "cert.json"
    for flags in (["--max-nodes", "200"], ["--max-seconds", "0.05"]):
        code, out, err = run(capsys, "certify", "--graph", "theorem-graph",
                             "--spec", "3,5", "--q", "13", "-o", str(cert_path), *flags)
        assert code == 2
        assert out == "verdict budget-exhausted\n"
        assert not cert_path.exists()
    # A budget the search fits in still certifies.
    code, out, _ = run(capsys, "certify", "--graph", "K6", "--spec", "3,3", "--q", "7",
                       "--max-nodes", "1000", "--max-seconds", "60")
    assert code == 0
    assert out_map(out)["bound"] == "F_e(3,3;7) <= 6"
    code, out, _ = run(capsys, "certify", "--graph", "K6", "--spec", "3,3", "--q", "7",
                       "--max-nodes", "5")
    assert (code, out) == (2, "verdict budget-exhausted\n")


def test_certify_reports_a_free_coloring_as_a_refutation(capsys):
    # K6 does not arrow (3,3,3): the search it runs finds a free coloring,
    # which refutes the bound rather than leaving it open.
    code, out, err = run(capsys, "certify", "--graph", "K6", "--spec", "3,3,3", "--q", "7")
    assert (code, out) == (3, "")
    assert err == ("error: the search found a free coloring, so the graph does not "
                   "arrow (3,3,3)\n")


def test_certify_refuses_budget_with_evidence(capsys, tmp_path):
    # With --evidence nothing is searched, so a budget would mean nothing.
    evidence = unsat_record(capsys, tmp_path, "K6", "3,3")
    for flags in (["--max-nodes", "10"], ["--max-seconds", "5"]):
        code, out, err = run(capsys, "certify", "--graph", "K6", "--spec", "3,3",
                             "--q", "7", "--evidence", str(evidence), *flags)
        assert code == 3
        assert out == ""
        assert err.startswith("error: --max-nodes and --max-seconds")


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
def test_non_finite_time_budget_exits_3(capsys, seconds):
    for argv in (["arrows", "edges", "--graph", "K6", "--spec", "3,3"],
                 ["certify", "--graph", "K6", "--spec", "3,3", "--q", "7"]):
        code, out, err = run(capsys, *argv, "--max-seconds", seconds)
        assert code == 3
        assert out == ""
        assert "max_seconds must be positive and finite" in err


def unsat_record(capsys, tmp_path, graph, spec, **keys):
    """Write an UNSAT record carrying the sha256 that `encode` reports."""
    code, out, _ = run(capsys, "encode", "--graph", graph, "--spec", spec,
                       "-o", str(tmp_path / "f.cnf"))
    assert code == 0
    path = tmp_path / "unsat.json"
    path.write_text(json.dumps({"status": "UNSAT",
                                "dimacs_sha256": out_map(out)["sha256"], **keys}))
    return path


@pytest.mark.parametrize("graph,spec,q", [
    ("K5", "3,3", "7"),          # F_e(3,3;7) = R(3,3) = 6
    ("C5", "3,3", "3"),          # F_e(3,3;3) is undefined
    ("lin-graph", "5,3", "13"),  # open problem, below the published 21
    ("K12", "5,3", "13"),        # below the published lower bound 18
    ("K5", "3,3,3", "6"),        # no CNF exists for a 3-color spec
])
def test_certify_refuses_bare_unsat_record(capsys, tmp_path, graph, spec, q):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"status": "UNSAT"}))
    code, out, err = run(capsys, "certify", "--graph", graph, "--spec", spec,
                         "--q", q, "--evidence", str(bare))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("graph,refusal", [
    ("lin-graph", "best published upper bound 21"),
    ("K12", "known lower bound 18"),
])
def test_certify_catalog_gate_ignores_spec_order(capsys, tmp_path, graph, refusal):
    evidence = unsat_record(capsys, tmp_path, graph, "5,3")
    code, out, err = run(capsys, "certify", "--graph", graph, "--spec", "5,3",
                         "--q", "13", "--evidence", str(evidence))
    assert code == 3
    assert out == ""
    assert refusal in err


def test_certify_refuses_undefined_q(capsys, tmp_path):
    evidence = unsat_record(capsys, tmp_path, "C5", "3,3")
    for extra in ([], ["--evidence", str(evidence)]):
        code, out, err = run(capsys, "certify", "--graph", "C5", "--spec", "3,3",
                             "--q", "3", *extra)
        assert code == 3
        assert out == ""
        assert "undefined" in err


def test_certify_names_the_label_of_a_mismatched_encoding(capsys, tmp_path):
    # The DIMACS text carries the graph's label, so K6 by name and by its
    # graph6 string E~~w encode to different bytes; the refusal says so.
    evidence = unsat_record(capsys, tmp_path, "K6", "3,3")
    code, out, _ = run(capsys, "certify", "--graph", "K6", "--spec", "3,3",
                       "--q", "7", "--evidence", str(evidence))
    assert code == 0 and out_map(out)["bound"] == "F_e(3,3;7) <= 6"
    code, out, err = run(capsys, "certify", "--graph", "E~~w", "--spec", "3,3",
                         "--q", "7", "--evidence", str(evidence))
    assert code == 3
    assert out == ""
    assert "`c graph unlabeled n=6 m=15`" in err
    assert "need the same graph source" in err


def test_certify_theorem_graph_from_solver_record(capsys, tmp_path):
    evidence = unsat_record(capsys, tmp_path, "theorem-graph", "3,5",
                            solver="stand-in", kind="native-search", checked=True)
    sha = json.loads(evidence.read_text())["dimacs_sha256"]
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--graph", "theorem-graph", "--spec",
                       "3,5", "--q", "13", "--evidence", str(evidence),
                       "-o", str(cert_path))
    assert code == 0
    assert out_map(out)["bound"] == "F_e(3,5;13) <= 21"
    cert = json.loads(cert_path.read_text())
    assert cert["evidence"] == {"status": "UNSAT", "solver": "stand-in",
                                "kind": "solver-unsat", "checked": False,
                                "dimacs_sha256": sha}
    for record in ({"status": "UNSAT"},
                   {"status": "UNSAT", "dimacs_sha256": "0" * 64}):
        evidence.write_text(json.dumps(record))
        code, out, err = run(capsys, "certify", "--graph", "theorem-graph",
                             "--spec", "3,5", "--q", "13", "--evidence", str(evidence))
        assert code == 3
        assert out == ""
        assert "dimacs_sha256" in err
