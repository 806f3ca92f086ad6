"""The command line front end, called in process through main(argv), and
through `python -m` under two string hash seeds."""

import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from boxslash import (
    InconsistencyError,
    ProductGraph,
    cli,
    layout_from_json,
    validate_queue_layout,
    validate_stack_layout,
)

from helpers_naive import (
    hex_colour,
    hex_neighbours,
    hex_spans,
    naive_boundary_lines,
    naive_dichotomy_branch,
    naive_queue_number,
    naive_stack_number,
    naive_top_boundaries,
)


@pytest.fixture
def product_files(tmp_path, capsys):
    """Graph and layout files of the (2,2)x2 product's three-queue layout."""
    assert cli.main(["layout", "--three-queue", "--degrees", "2,2", "--path", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    graph = tmp_path / "graph.json"
    layout = tmp_path / "layout.json"
    graph.write_text(json.dumps(doc["graph"]))
    layout.write_text(json.dumps(doc))
    return ["--graph", str(graph), "--layout", str(layout)]


def test_passes_run_reads_the_graph_of_gen_and_of_layout_output(product_files, tmp_path, capsys):
    # gen writes the descriptor under "graph", as layout does; solve and
    # validate read both, and so does passes run.
    assert cli.main(["passes", "run", *product_files]) == cli.EXIT_OK
    want = capsys.readouterr().out
    assert cli.main(["gen", "--degrees", "2,2", "--path", "2"]) == cli.EXIT_OK
    gen = tmp_path / "gen.json"
    gen.write_text(capsys.readouterr().out)
    layout = product_files[-1]
    for graph in (str(gen), layout):
        assert cli.main(["passes", "run", "--graph", graph, "--layout", layout]) == cli.EXIT_OK
        assert capsys.readouterr().out == want


def test_passes_run_keeps_the_canonical_layout(product_files, capsys):
    assert cli.main(["passes", "run", *product_files]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"]["tree_degrees"] == [2, 2]
    assert doc["checks"]["child_symmetry"]["ok"] is True
    assert doc["checks"]["child_symmetry"]["checked"] > 0
    assert doc["checks"]["related_sequences"]["ok"] is True
    assert doc["checks"]["direction_consistency"]["ok"] is True
    assert set(doc["direction_table"]["entries"].values()) == {"inc"}
    assert all(old == new for old, new in doc["node_map"].items())


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "shape, layout, extra",
    [("2-2x3", "canonical", []), ("2-2x3", "reversed", []),
     ("4-4x3", "scrambled", ["--target-degrees", "2,2"]), ("3-3-3x4", "reversed", []),
     ("3-3-3x4", "scrambled", ["--target-degrees", "2,2,2"])],
)
def test_passes_run_output_is_byte_identical_to_the_saved_document(shape, layout, extra, capsys):
    # The 2-level documents are the output of the object-based pipeline
    # that the integer one replaced; the (3,3,3)x4 ones that of the
    # pipeline whose checks still read objects.  A scrambled layout
    # renumbers each level's children and gives one child per level its
    # own horizontal colour.  The 3-level ones reach every multi-level
    # stride, and the scrambled one's direction table mixes inc and dec.
    argv = ["passes", "run", "--graph", str(DATA / f"passes_{shape}_graph.json"),
            "--layout", str(DATA / f"passes_{shape}_{layout}_layout.json"), *extra]
    assert cli.main(argv) == cli.EXIT_OK
    want = (DATA / f"passes_{shape}_{layout}_run.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_passes_run_reports_colour_starvation(product_files, capsys):
    code = cli.main(["passes", "run", *product_files, "--target-degrees", "3,3"])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: colour: level 1 can keep 2 children, target is 3" in captured.err


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_gen_prints_the_product(capsys):
    assert cli.main(["gen", "--degrees", "2", "--path", "2"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["vertex_count"], doc["edge_count"]) == (6, 9)


def test_gen_rejects_a_zero_degree(capsys):
    # The product checks its degrees, as every count, by errors.integer.
    assert cli.main(["gen", "--degrees", "0", "--path", "2"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: degree must be at least 1, got 0\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda order: order.append("1.1@9"), "order has vertex 1.1@9, which is not in the graph"),
        (lambda order: order.append("1@3"), "order has vertex 1@3, which is not in the graph"),
        (lambda order: order.remove("1@1"), "order misses vertex 1@1 of the graph"),
    ],
    ids=["deeper-node", "past-the-path", "missing"],
)
def test_validate_needs_exactly_the_product_vertices(tmp_path, capsys, edit, message):
    assert cli.main(["layout", "--three-queue", "--degrees", "1", "--path", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    edit(doc["order"])
    path = _write(tmp_path, "layout.json", doc)
    assert cli.main(["validate", "--queue", "--layout", path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_validate_rejects_colour_keys_outside_the_graph(tmp_path, capsys):
    assert cli.main(["layout", "--three-queue", "--degrees", "1", "--path", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["colors"].update({"r@1--1@2": 0, "1.1@9--r@1": 2})
    path = _write(tmp_path, "layout.json", doc)
    assert cli.main(["validate", "--queue", "--layout", path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: colour key 'r@1--1@2' is not an edge of the graph\n"
    # Two spellings of one non-edge: the first in the document is named.
    edges = {key: c for key, c in doc["colors"].items() if key not in ("r@1--1@2", "1.1@9--r@1")}
    for first, second in (("r@1--1@2", "1@2--r@1"), ("1@2--r@1", "r@1--1@2")):
        path = _write(tmp_path, "layout.json", {**doc, "colors": {**edges, first: 0, second: 1}})
        assert cli.main(["validate", "--queue", "--layout", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: colour key '{first}' is not an edge of the graph\n"


def test_validate_the_three_queue_layout(product_files, capsys):
    layout = product_files[product_files.index("--layout") + 1]
    assert cli.main(["validate", "--queue", "--layout", layout]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("valid queue layout")
    assert cli.main(["validate", "--stack", "--layout", layout]) == cli.EXIT_INVALID
    assert "invalid stack layout" in capsys.readouterr().out


@pytest.mark.parametrize(
    "check, one_colour, saved",
    [("--stack", False, "validate_2-2x2_stack.txt"),
     ("--queue", True, "validate_2-2x2_one-colour_queue.txt")],
)
def test_validate_output_on_an_invalid_product_layout_is_byte_identical(
    tmp_path, capsys, check, one_colour, saved
):
    # The saved texts are the output of the validators that ranked edge
    # pairs through the order, each edge spelled as its colour key; both
    # run past the 20 violations printed.
    assert cli.main(["layout", "--three-queue", "--degrees", "2,2", "--path", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if one_colour:
        doc.update(colors=dict.fromkeys(doc["colors"], 0), k=1)
    path = _write(tmp_path, "layout.json", doc)
    assert cli.main(["validate", check, "--layout", path]) == cli.EXIT_INVALID
    assert capsys.readouterr().out == (DATA / saved).read_text(encoding="utf-8")


def test_validate_names_violating_edges_of_a_plain_graph_by_key(tmp_path, capsys):
    doc = {"order": ["a", "b", "c", "d"], "colors": {"a--c": 0, "b--d": 0, "c--d": 0}}
    assert cli.main(["validate", "--stack", "--layout", _write(tmp_path, "plain.json", doc)]) == cli.EXIT_INVALID
    assert capsys.readouterr().out == (
        "violation: color 0 edges a--c and b--d cross\ninvalid stack layout: 1 violating pairs\n")


def test_validate_rejects_a_vertex_id_that_str_would_not_write(tmp_path, capsys):
    assert cli.main(["layout", "--three-queue", "--degrees", "2", "--path", "2"]) == 0
    text = capsys.readouterr().out
    for name in ("1", "2"):  # every non-root vertex, 1@1 as 01@1
        text = text.replace(f'"{name}@', f'"0{name}@').replace(f'--{name}@', f'--0{name}@')
    assert '"01@1"' in text
    path = tmp_path / "layout.json"
    path.write_text(text)
    assert cli.main(["validate", "--queue", "--layout", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad vertex id '0")


def test_validate_and_passes_run_name_a_missing_colour_alike(product_files, tmp_path, capsys):
    doc = json.loads(Path(product_files[-1]).read_text())
    del doc["colors"]["2@1--r@1"]
    layout = _write(tmp_path, "partial.json", doc)
    for argv in (["validate", "--queue", "--layout", layout],
                 ["passes", "run", "--graph", product_files[1], "--layout", layout]):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: edge 2@1 -- r@1 has no colour\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["order"].append("3@1"), "order has vertex 3@1, which is not in the graph"),
        (lambda doc: doc["order"].remove("2.1@2"), "order misses vertex 2.1@2 of the graph"),
        (lambda doc: doc["colors"].update({"r@1--1.1@2": 0}),
         "colour key 'r@1--1.1@2' is not an edge of the graph"),
    ],
    ids=["stray", "missing", "non-edge"],
)
def test_validate_and_passes_run_reject_a_layout_off_the_product_alike(
    product_files, tmp_path, capsys, edit, message
):
    doc = json.loads(Path(product_files[-1]).read_text())
    edit(doc)
    layout = _write(tmp_path, "off.json", doc)
    for argv in (["validate", "--queue", "--layout", layout],
                 ["passes", "run", "--graph", product_files[1], "--layout", layout]):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.fixture
def k4_file(tmp_path):
    edges = [[u, v] for u in range(4) for v in range(u + 1, 4)]
    return _write(tmp_path, "k4.json", {"edges": edges})


def test_solve_queue_number_of_k4(k4_file, capsys):
    assert cli.main(["solve", "--queue", "--graph", k4_file]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["value"], doc["exact"]) == ("queue", 2, True)


def test_solve_below_the_stack_number_is_not_exact(k4_file, capsys):
    assert cli.main(["solve", "--stack", "--limit", "1", "--graph", k4_file]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is False
    assert doc["value"] >= 2


def _random_edges(n, seed):
    rng = random.Random(seed)
    return [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


SOLVE_GRAPHS = {
    "k4": [[u, v] for u in range(4) for v in range(u + 1, 4)],
    "cycle6": [[i, (i + 1) % 6] for i in range(6)],
    "random7": _random_edges(7, 4),
}


@pytest.mark.parametrize("name", SOLVE_GRAPHS)
@pytest.mark.parametrize("kind", ["stack", "queue"])
def test_solve_document_matches_the_oracles(tmp_path, capsys, kind, name):
    edges = [(str(u), str(v)) for u, v in SOLVE_GRAPHS[name]]
    path = _write(tmp_path, "graph.json", {"edges": SOLVE_GRAPHS[name]})
    assert cli.main(["solve", f"--{kind}", "--graph", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    naive = naive_stack_number if kind == "stack" else naive_queue_number
    assert (doc["kind"], doc["value"], doc["exact"]) == (kind, naive(edges), True)
    assert sorted(doc["order"]) == sorted({v for e in edges for v in e})
    assert sorted(doc["colors"]) == sorted(f"{u}--{v}" for u, v in edges)
    assert set(doc["colors"].values()) <= set(range(doc["value"]))
    order, coloring = layout_from_json(doc, parse_vertex=str)
    validate = validate_stack_layout if kind == "stack" else validate_queue_layout
    assert validate(edges, order, coloring).valid


def test_solve_keys_every_edge_of_a_two_edge_graph(tmp_path, capsys):
    # Not the edges a -- b and b -- a of the vertices a and b.
    path = _write(tmp_path, "graph.json", {"edges": [["a", "b"], ["ab", "ba"]]})
    assert cli.main(["solve", "--stack", "--graph", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["exact"]) == (1, True)
    assert list(doc["colors"]) == ["a--b", "ab--ba"]
    assert sorted(doc["order"]) == ["a", "ab", "b", "ba"]


def test_solve_rejects_an_id_its_edge_keys_cannot_give_back(tmp_path, capsys):
    # "a--b" -- "c" would be written "a--b--c", which validate reads as a -- b--c.
    path = _write(tmp_path, "graph.json", {"edges": [["a--b", "c"], ["c", "d"]]})
    assert cli.main(["solve", "--queue", "--graph", path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: vertex id 'a--b' cannot be written in an edge key: "
                            "it contains '--' or ends in '-'\n")


def test_solve_refuses_a_large_descriptor_before_building_it(tmp_path, capsys, monkeypatch):
    def build(self, tree, path_len):
        raise AssertionError("the product was built")

    monkeypatch.setattr(ProductGraph, "__init__", build)
    path = _write(tmp_path, "graph.json", {"tree_degrees": [999], "path_len": 1000})
    assert cli.main(["solve", "--stack", "--graph", path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exhaustive search is limited to 10 vertices, got 1000000\n"


def test_solve_output_does_not_follow_the_hash_seed(tmp_path):
    # A set of strings iterates in an order that moves with the hash
    # seed; the order, keys and colours solved on string vertices must not.
    edges = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"], ["b", "d"], ["d", "e"], ["e", "f"],
             ["f", "a"], ["e", "b"]]
    path = _write(tmp_path, "graph.json", {"edges": edges})
    src = Path(cli.__file__).resolve().parents[1]
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "boxslash.cli", "solve", "--stack", "--graph", path],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["exact"] is True


def test_documents_are_read_from_stdin(k4_file, product_files, capsys, monkeypatch):
    # "-" names stdin, and so does a missing --layout.
    layout = product_files[-1]
    cases = [(["solve", "--queue", "--graph", k4_file], ["solve", "--queue", "--graph", "-"]),
             (["validate", "--queue", "--layout", layout], ["validate", "--queue", "--layout", "-"]),
             (["validate", "--queue", "--layout", layout], ["validate", "--queue"])]
    for from_file, from_stdin in cases:
        assert cli.main(from_file) == cli.EXIT_OK
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(from_file[-1]).read_text(encoding="utf-8")))
        assert cli.main(from_stdin) == cli.EXIT_OK
        assert capsys.readouterr().out == want


def test_main_keeps_no_parsed_state_between_calls(k4_file, capsys):
    assert cli.main(["solve", "--queue", "--limit", "1", "--graph", k4_file]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["exact"]) == ("queue", False)
    assert cli.main(["gen", "--degrees", "2", "--path", "2", "--dot"]) == cli.EXIT_OK
    capsys.readouterr()
    # Neither --queue, --limit nor --dot carries over to the next call.
    assert cli.main(["solve", "--stack", "--graph", k4_file]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["value"], doc["exact"]) == ("stack", 2, True)
    assert cli.main(["gen", "--degrees", "2", "--path", "2"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["vertex_count"] == 6


@pytest.mark.parametrize("kind", ["--stack", "--queue"])
def test_solve_rejects_a_limit_below_one(k4_file, capsys, kind):
    code = cli.main(["solve", kind, "--limit", "0", "--graph", k4_file])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "upper_limit must be at least 1, got 0" in captured.err


@pytest.mark.parametrize("budget", ["nan", "-5"])
def test_solve_rejects_a_bad_budget(k4_file, capsys, budget):
    code = cli.main(["solve", "--stack", "--budget-ms", budget, "--graph", k4_file])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"budget_ms must be a finite number at least 0, got {float(budget)}" in captured.err


CHI_3X3 = [[0, 1, 0], [1, 1, 0], [0, 0, 1]]


def test_hex_analyze_on_a_small_grid(tmp_path, capsys):
    path = _write(tmp_path, "hex.json", {"n": 3, "m": 3, "chi": CHI_3X3})
    assert cli.main(["hex", "analyze", "--coloring", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"] == [3, 3]
    assert "skipped" in doc["dichotomy"]


@pytest.mark.parametrize(
    "branch, rows, cols, options",
    [
        ("skipped", 5, 7, []),
        ("top_cells", 4, 16, ["--s", "1", "--long-length", "2"]),
        ("long_boundary", 4, 40, ["--s", "6", "--long-length", "2"]),
    ],
)
def test_hex_analyze_output_matches_the_oracles(tmp_path, capsys, branch, rows, cols, options):
    flips = random.Random(1)
    chi = [[flips.randrange(2) for _ in range(cols)] for _ in range(rows)]
    path = _write(tmp_path, "hex.json", {"n": rows, "m": cols, "chi": chi})
    assert cli.main(["hex", "analyze", "--coloring", path, *options]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)

    lines = naive_boundary_lines(chi)
    assert Counter((b["length"], b["closed"]) for b in doc["boundaries"]) == Counter(
        (len(line), closed) for line, closed in lines
    )
    assert all(b["violations"] == [] for b in doc["boundaries"])
    assert doc["cut_points"] == [x for x in range(1, cols) if chi[0][x - 1] != chi[0][x]]

    spanning = doc["spanning_path"]
    colour, axis, k, far = (0, "columns", 1, cols) if hex_spans(chi, 0, "columns") else (1, "rows", 0, rows)
    assert (spanning["color"], spanning["axis"]) == (("inc", "dec")[colour], axis)
    cells = [tuple(c) for c in spanning["cells"]]
    assert all(hex_colour(chi, c) == colour for c in cells)
    assert all(b in hex_neighbours(chi, a) for a, b in zip(cells, cells[1:]))
    assert (cells[0][k], cells[-1][k]) == (1, far)

    tops, maximal, flagged = naive_top_boundaries(chi)
    assert doc["top_boundaries"] == {
        "all": [[x, y, len(line)] for x, y, line in tops],
        "maximal": [list(pair) for pair in maximal],
        "flagged": len(flagged),
    }

    s = int(options[1]) if options else 1
    long_length = int(options[3]) if options else rows
    assert naive_dichotomy_branch(chi, s, long_length) == branch
    dichotomy = doc["dichotomy"]
    assert ("skipped" if "skipped" in dichotomy else dichotomy["witness"]) == branch


@pytest.mark.parametrize(
    "branch, options",
    [("skipped", []), ("top_cells", ["--s", "1", "--long-length", "2"]),
     ("long_boundary", ["--s", "6", "--long-length", "2"])],
)
def test_hex_analyze_output_is_byte_identical_to_the_saved_document(branch, options, capsys):
    # The saved documents are the output of the tracer that listed every
    # boundary edge as a tuple and verified lines pair by pair.  Each
    # grid has open lines leaving all four sides; the skipped one has
    # three closed lines, the long-boundary one four.
    argv = ["hex", "analyze", "--coloring", str(DATA / f"hex_{branch}_coloring.json"), *options]
    assert cli.main(argv) == cli.EXIT_OK
    want = (DATA / f"hex_{branch}_analyze.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_hex_analyze_reports_crossing_top_boundaries_and_goes_on(capsys, monkeypatch):
    # The top-boundary analysis fails on its own: its error takes its
    # place in the document, the rest is as before, and the exit is 1.
    argv = ["hex", "analyze", "--coloring", str(DATA / "hex_top_cells_coloring.json"), "--s", "1",
            "--long-length", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    want = json.loads(capsys.readouterr().out)

    def crossing(coloring, lines):
        raise InconsistencyError("boundaries (1,4) and (2,6) cross")

    monkeypatch.setattr(cli, "maximal_boundaries", crossing)
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    want["top_boundaries"] = {"error": "boundaries (1,4) and (2,6) cross"}
    assert (json.loads(captured.out), captured.err) == (want, "")


def test_an_inconsistency_exits_1_with_its_own_line(tmp_path, capsys, monkeypatch):
    # Corrupt data that a recheck finds is no usage error (exit 2).
    def corrupt(*args):
        raise InconsistencyError("grid is large enough yet has neither witness")

    monkeypatch.setattr(cli, "top_or_long", corrupt)
    path = _write(tmp_path, "hex.json", {"n": 3, "m": 3, "chi": CHI_3X3})
    assert cli.main(["hex", "analyze", "--coloring", path]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "inconsistency: grid is large enough yet has neither witness\n")


def test_hex_analyze_rejects_a_wrong_size(tmp_path, capsys):
    path = _write(tmp_path, "hex.json", {"n": 4, "m": 3, "chi": CHI_3X3})
    assert cli.main(["hex", "analyze", "--coloring", path]) == cli.EXIT_USAGE
    assert "declared grid size disagrees" in capsys.readouterr().err


MONO_3X12 = {"n": 3, "m": 12, "chi": [[0] * 12] * 3}


@pytest.mark.parametrize(
    "options, message",
    [
        (["--s", "-1"], "s must be at least 0, got -1"),
        (["--s", "12", "--long-length", "0"], "long_length must be at least 1, got 0"),
        (["--long-length", "-1"], "long_length must be at least 1, got -1"),
    ],
)
def test_hex_analyze_rejects_bad_dichotomy_parameters(tmp_path, capsys, options, message):
    path = _write(tmp_path, "hex.json", MONO_3X12)
    assert cli.main(["hex", "analyze", "--coloring", path, *options]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("chi", [[[0, 2], [1, 0]], 5])
def test_hex_analyze_rejects_cells_other_than_zero_or_one(tmp_path, capsys, chi):
    path = _write(tmp_path, "hex.json", {"n": 2, "m": 2, "chi": chi})
    assert cli.main(["hex", "analyze", "--coloring", path]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


DOC = "<document>"
VALIDATE = ["validate", "--stack", "--layout", DOC]
HEX = ["hex", "analyze", "--coloring", DOC]
SOLVE = ["solve", "--stack", "--graph", DOC]
ONE_NODE = {"tree_degrees": [1], "path_len": 1}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (VALIDATE, [1], "expected a JSON object, got list"),
        (["passes", "run", "--graph", DOC, "--layout", DOC], [1],
         "expected a JSON object, got list"),
        (VALIDATE, {"order": None, "colors": {}}, "layout 'order' must be a list"),
        (VALIDATE, {"order": ["a"], "colors": [1]}, "layout 'colors' must be an object"),
        (HEX, [[0, 1]], "expected a JSON object, got list"),
        (HEX, {"n": None, "m": 2, "chi": [[0, 1]]},
         "grid size 'n' must be an integer, got None"),
        (HEX, {"n": 2.5, "m": 2, "chi": [[0, 1], [1, 0]]},
         "grid size 'n' must be an integer, got 2.5"),
        (HEX, {"n": 1, "m": True, "chi": [[0]]}, "grid size 'm' must be an integer, got True"),
        (HEX, {"n": 1, "m": 1}, "coloring document has no 'chi' matrix"),
        (VALIDATE, {"order": ["a", "b"], "colors": {"a--b": None}},
         "colour of edge 'a--b' must be an integer, got None"),
        (VALIDATE, {"graph": ONE_NODE, "order": [1], "colors": {}},
         "vertex id must be a string, got 1"),
        (VALIDATE, {"graph": [1], "order": [], "colors": {}},
         "graph descriptor must be an object, got list"),
        (SOLVE, {"edges": None}, "graph 'edges' must be a list of vertex pairs"),
        (SOLVE, {"edges": [1]}, "graph 'edges' must be a list of vertex pairs"),
        # Counted before the exhaustive limit, these keep the product's own errors.
        (SOLVE, {"tree_degrees": [999], "path_len": 1001},
         "product would have 1001000 vertices, limit is 1000000"),
        (SOLVE, {"tree_degrees": [1000, 1000], "path_len": 1},
         "tree (1000, 1000) exceeds the 1000000 vertex limit"),
        (SOLVE, {"graph": {"tree_degrees": [1], "path_len": "3"}}, "path_len must be an integer, got '3'"),
        (VALIDATE, {"graph": {"tree_degrees": 5, "path_len": 2}, "order": [], "colors": {}},
         "tree_degrees must be a list of integers, got 5"),
        (VALIDATE, {"graph": {"tree_degrees": [1], "path_len": [1]}, "order": [], "colors": {}},
         "path_len must be an integer, got [1]"),
        (["passes", "run", "--graph", DOC, "--layout", DOC], {"tree_degrees": [True, 2], "path_len": 2},
         "degree must be an integer, got True"),
        (VALIDATE, {"order": ["a", "b", "c", "d"], "colors": {"a--c": -1, "b--d": 0}, "k": 1},
         "colour of edge 'a--c' must be at least 0, got -1"),
        (VALIDATE, {"order": ["a", "b"], "colors": {"a--b": 0}, "k": 3.9},
         "layout 'k' must be an integer, got 3.9"),
        (VALIDATE, {"order": ["a", "b"], "colors": {"a--b": 0}, "k": True},
         "layout 'k' must be an integer, got True"),
        # Read from stdin, by "-" or by a missing --layout, the document has one name.
        (["solve", "--stack", "--graph", "-"], [1], "error: stdin: expected a JSON object, got list"),
        (["validate", "--stack"], [1], "error: stdin: expected a JSON object, got list"),
    ],
    ids=["validate-list", "passes-graph-list", "order-null", "colors-list",
         "hex-list", "hex-n-null", "hex-n-float", "hex-m-bool", "hex-no-chi", "colour-null",
         "vertex-int", "graph-list", "edges-null", "edge-int", "solve-product-limit",
         "solve-tree-limit", "solve-path-len-str", "degrees-int",
         "path-len-list", "degrees-bool", "colour-negative", "k-float", "k-bool",
         "stdin-dash-list", "stdin-default-list"],
)
def test_malformed_documents_are_usage_errors(tmp_path, capsys, monkeypatch, command, doc, message):
    path = _write(tmp_path, "doc.json", doc)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main([path if arg == DOC else arg for arg in command]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
