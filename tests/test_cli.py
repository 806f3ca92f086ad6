"""The command line front end, called in process through main(argv)."""

import json

import pytest

from boxslash import cli


def test_selftest_passes():
    assert cli.main(["selftest"]) == cli.EXIT_OK


def test_selftest_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["selftest", "--jobs", "2"])
    assert err.value.code == cli.EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as err:
        cli.main(["gen", "--degrees", "0", "--path", "2"])
    assert err.value.code == cli.EXIT_USAGE
    assert "degrees must be positive" in capsys.readouterr().err


def test_validate_the_three_queue_layout(product_files, capsys):
    layout = product_files[product_files.index("--layout") + 1]
    assert cli.main(["validate", "--queue", "--layout", layout]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("valid queue layout")
    assert cli.main(["validate", "--stack", "--layout", layout]) == cli.EXIT_INVALID
    assert "invalid stack layout" in capsys.readouterr().out


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


@pytest.mark.parametrize("kind", ["--stack", "--queue"])
def test_solve_rejects_a_limit_below_one(k4_file, capsys, kind):
    code = cli.main(["solve", kind, "--limit", "0", "--graph", k4_file])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "upper_limit must be at least 1, got 0" in captured.err


CHI_3X3 = [[0, 1, 0], [1, 1, 0], [0, 0, 1]]


def test_hex_analyze_on_a_small_grid(tmp_path, capsys):
    path = _write(tmp_path, "hex.json", {"n": 3, "m": 3, "chi": CHI_3X3})
    assert cli.main(["hex", "analyze", "--coloring", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"] == [3, 3]
    assert "skipped" in doc["dichotomy"]


def test_hex_analyze_rejects_a_wrong_size(tmp_path, capsys):
    path = _write(tmp_path, "hex.json", {"n": 4, "m": 3, "chi": CHI_3X3})
    assert cli.main(["hex", "analyze", "--coloring", path]) == cli.EXIT_USAGE
    assert "declared grid size disagrees" in capsys.readouterr().err
