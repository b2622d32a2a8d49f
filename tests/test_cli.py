"""End-to-end exercises of the command line surface via cli.run."""

import json

import pytest

from skeinkit.cli import main as cli_main
from skeinkit.cli import run
from skeinkit.corpus import corpus_names, load_corpus, trefoil
from skeinkit.diagram import LinkDiagram
from skeinkit.eigen import (
    adjoint_meridian_eigenvalue,
    delta_kauffman,
    homfly_meridian_eigenvalue,
)
from skeinkit.partition import Partition
from skeinkit.skein_eval import homfly


def _trefoil_bytes(**changes) -> bytes:
    """The trefoil's link file with some fields replaced."""
    data = trefoil().to_dict()
    data.update(changes)
    return json.dumps(data).encode()


class TestSkeinCommand:
    def test_kauffman_of_unknot_is_circle_value(self):
        # documented example: the unknot evaluates to the free circle value
        assert run(["skein", "kauffman", "corpus:unknot"]) == (0, delta_kauffman().render())

    def test_file_path_loading(self, tmp_path):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil().to_json())
        code, text = run(["skein", "homfly", str(path)])
        assert code == 0
        assert text == homfly(trefoil()).render()

    def test_budget_error_exits_nonzero(self):
        code, text = run(["skein", "homfly", "corpus:trefoil", "--max-crossings", "2"])
        assert code == 1
        assert text.startswith("budget exceeded")

    def test_unknown_corpus_name_is_usage_error(self):
        code, text = run(["skein", "homfly", "corpus:nope"])
        assert code == 2
        assert "unknown corpus link" in text

    def test_missing_file_is_usage_error(self):
        code, text = run(["skein", "adjoint", "/no/such/file.json"])
        assert code == 2
        assert text.startswith("error: cannot read")

    @pytest.mark.parametrize(
        "content",
        [
            b"[1, 2]",
            b'"trefoil"',
            b'{"components": 1, "crossings": [], "component_of_edge": [[1, 0]]}',
            b"\xff\xfe{}",
            b"[" * 100000 + b"]" * 100000,
            b'{"components": 1e400, "crossings": [], "component_of_edge": {}}',
            _trefoil_bytes(crossings=[[1.5, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]),
            _trefoil_bytes(components=True),
        ],
        ids=[
            "json-list", "json-string", "edge-map-list", "not-utf8", "deep-nesting", "huge-number",
            "float-label", "bool-components",
        ],
    )
    def test_bad_link_file_is_usage_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, text = run(["skein", "homfly", str(path)])
        assert code == 2
        assert text.startswith("error:")


class TestEigenCommand:
    def test_empty_shape_closed_form(self):
        # documented example: the empty shape gives the circle value
        assert run(["eigen", "c", "--partition", "0"]) == (0, delta_kauffman().render())

    def test_oriented_eigenvalue_matches_library(self):
        want = homfly_meridian_eigenvalue(Partition((2, 1)), Partition((1,))).render()
        assert run(["eigen", "s", "--forward", "2,1", "--reverse", "1"]) == (0, want)

    def test_adjoint_eigenvalue_matches_library(self):
        want = adjoint_meridian_eigenvalue(Partition((1,)), Partition((1,))).render()
        assert run(["eigen", "adjoint", "--forward", "1", "--reverse", "1"]) == (0, want)

    def test_bad_partition_text(self):
        code, text = run(["eigen", "c", "--partition", "1,2"])
        assert code == 2
        assert "bad partition" in text

    def test_table_lists_shapes_then_distinctness(self):
        code, text = run(["eigen", "table", "--max-size", "2", "--check-distinct"])
        assert code == 0
        lines = text.splitlines()
        # four shapes of size <= 2, then the summary line
        assert len(lines) == 5
        assert lines[0].startswith("0: ")
        assert lines[-1].startswith("distinct: yes (4 shapes, 6 comparisons")


class TestExpandCommand:
    def test_plan_json_shape(self):
        code, text = run(["expand", "--partition", "2,1"])
        assert code == 0
        payload = json.loads(text)
        assert set(payload) == {"anchor", "inner", "scale", "target", "terms", "words"}
        assert payload["target"] == "2,1"
        assert payload["inner"]["target"] == payload["anchor"]
        assert {t["meridians"] for t in payload["terms"]} == {0, 1, 2}
        assert payload["words"] and all(isinstance(w, str) for w in payload["words"])

    def test_explicit_anchor_choice(self):
        code, text = run(["expand", "--partition", "2,1", "--rho", "1,1"])
        assert code == 0
        assert json.loads(text)["anchor"] == "1,1"

    def test_bad_anchor_rejected(self):
        code, text = run(["expand", "--partition", "2", "--rho", "3"])
        assert code == 2
        assert text.startswith("error:")


class TestVerifyCommand:
    def test_rudolph_text_report(self):
        code, text = run(["verify", "rudolph", "corpus:unknot"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "rudolph: unknot"
        assert lines[-1] == "result: PASS"

    def test_rudolph_json_report(self):
        code, text = run(["verify", "rudolph", "corpus:hopf_plus", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["kind"] == "rudolph"
        assert payload["passed"] is True
        assert "elapsed_seconds" not in payload

    def test_rudolph_budget_error_names_the_term(self):
        code, text = run(["verify", "rudolph", "corpus:hopf_plus", "--max-crossings", "6"])
        assert code == 1
        assert text == (
            "budget exceeded: hopf_plus.cable(1,2).rev(2).cable(0,2).rev(1): "
            "8 crossings exceed the budget of 6"
        )

    def test_main_width_two_on_unknot(self):
        code, text = run(
            ["verify", "main", "corpus:unknot", "--component", "1", "--partition", "2"]
        )
        assert code == 0
        assert text == "\n".join([
            "main: unknot",
            "assignments: 2",
            "  PASS  row r=0: adjoint equals doubled unoriented value  [0 crossings]",
            "  PASS  row r=1: adjoint equals doubled unoriented value  [4 crossings]",
            "  PASS  row r=2: adjoint equals doubled unoriented value  [8 crossings]",
            "  PASS  row r=3: adjoint equals doubled unoriented value  [12 crossings]",
            "  PASS  assembled: adjoint decoration equals doubled unoriented decoration"
            "  [decoration 2 on component 0]",
            "  PASS  solved empty-shape value equals deleted-component value"
            "  [deleted diagram unknot.drop(0)]",
            "  PASS  solved target value reproduces the assembled value"
            "  [division residual zero]",
            "  PASS  row r=3 predicted exactly",
            "  PASS  adjoint side: solved empty-shape value equals deleted-component value",
            "  PASS  adjoint side: solved target value reproduces the assembled value",
            "  PASS  adjoint side: row r=3 predicted exactly",
            "result: PASS",
        ])

    def test_main_component_index_is_one_based(self):
        code, text = run(
            ["verify", "main", "corpus:unknot", "--component", "0", "--partition", "2"]
        )
        assert code == 2
        assert "out of range 1..1" in text

    def test_eigen_consistency_passes(self):
        code, text = run(["verify", "eigen-consistency"])
        assert code == 0
        assert text.splitlines()[-1] == "result: PASS"


class TestCorpusCommand:
    def test_list_names(self):
        code, text = run(["corpus", "list"])
        assert code == 0
        assert text.splitlines() == corpus_names()

    def test_show_round_trips(self):
        code, text = run(["corpus", "show", "figure_eight"])
        assert code == 0
        assert LinkDiagram.from_json(text).same_diagram_as(load_corpus("figure_eight"))

    def test_show_unknown_name(self):
        code, text = run(["corpus", "show", "nope"])
        assert code == 2
        assert "unknown corpus link" in text


class TestUsage:
    def test_unknown_command(self):
        code, text = run(["bogus"])
        assert code == 2
        assert "usage:" in text

    def test_no_arguments(self):
        code, text = run([])
        assert code == 2
        assert "usage:" in text

    def test_help_exits_zero(self):
        code, text = run(["--help"])
        assert code == 0
        assert "COMMAND" in text

    def test_repeat_invocation_is_byte_identical(self):
        probe = ["skein", "kauffman", "corpus:hopf_minus"]
        assert run(probe) == run(probe)


class TestMainWrapper:
    def test_prints_to_stdout_and_returns_code(self, capsys):
        code = cli_main(["corpus", "list"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines() == corpus_names()
        assert captured.err == ""

    def test_usage_errors_go_to_stderr(self, capsys):
        code = cli_main(["bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
