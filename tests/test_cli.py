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
