"""End-to-end exercises of the command line surface via cli.run."""

import copy
import hashlib
import json
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import same_diagram_as
from skeinkit.cli import main as cli_main
from skeinkit.cli import run
from skeinkit.corpus import corpus_names, hopf_plus, load_corpus, trefoil
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
    return _link_bytes(trefoil(), **changes)


def _link_bytes(d: LinkDiagram, **changes) -> bytes:
    """The link file of `d` with some fields replaced."""
    data = d.to_dict()
    data.update(changes)
    return json.dumps(data).encode()


def _trefoil_edges(*keys: str) -> bytes:
    """The trefoil's link file with edge 1 of component_of_edge listed under each key."""
    data = trefoil().to_dict()
    edges = data["component_of_edge"]
    component = edges.pop("1")
    data["component_of_edge"] = {**{key: component for key in keys}, **edges}
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["skein", "homfly", "corpus:trefoil"],
            ["verify", "rudolph", "corpus:unknot"],
            ["verify", "main", "corpus:unknot", "--component", "1", "--partition", "2"],
        ],
        ids=["skein", "verify-rudolph", "verify-main"],
    )
    def test_negative_budget_is_usage_error(self, argv):
        code, text = run(argv + ["--max-crossings", "-1"])
        assert code == 2
        assert text.startswith("usage:")
        assert "error: argument --max-crossings: must be nonnegative, got -1" in text

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
            _trefoil_edges("0_1"),
            _trefoil_edges("01"),
            _trefoil_edges(" 1"),
            _trefoil_edges("+1"),
            _trefoil_edges("1", "01"),
            b'{"components": -1, "crossings": [], "component_of_edge": {}}',
        ],
        ids=[
            "json-list", "json-string", "edge-map-list", "not-utf8", "deep-nesting", "huge-number",
            "float-label", "bool-components",
            "underscore-key", "leading-zero-key", "space-key", "plus-key", "duplicate-key",
            "negative-components",
        ],
    )
    def test_bad_link_file_is_usage_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, text = run(["skein", "homfly", str(path)])
        assert code == 2
        assert text.startswith("error:")

    def test_negative_component_count_is_usage_error_for_verify(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"components": -1, "crossings": [], "component_of_edge": {}}')
        code, text = run(["verify", "rudolph", str(path)])
        assert code == 2
        assert text.startswith("error: bad link description")


    def test_component_count_costs_no_memory(self, tmp_path):
        # a stated count is compared, never enumerated
        path = tmp_path / "bad.json"
        path.write_text('{"components": 1000000, "crossings": [], "component_of_edge": {}}')
        tracemalloc.start()
        try:
            code, text = run(["skein", "kauffman", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert text.startswith("error: bad link description")
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "content, message",
        [
            (_trefoil_bytes(component_of_edge={str(e): 0 for e in range(1, 6)}),
             "edge 6 missing from component map"),
            (_trefoil_bytes(crossings=[[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 1, 2]]),
             "edge 1 appears 3 times; expected 2"),
            (_trefoil_bytes(signs=[1, 2, 1]), r"crossing 1: sign must be \+1 or -1, got 2"),
            (_trefoil_bytes(signs=[1, 1]), "2 signs for 3 crossings"),
            (_trefoil_bytes(signs=[1, -1, 1]), r"inconsistent strand directions at crossing \d+"),
            (b'{"components": 2, "crossings": [[1, 3, 2, 4], [2, 4, 1, 3]],'
             b' "component_of_edge": {"1": 0, "2": 0, "3": 1, "4": 1}}',
             "crossing 0: over-strand direction is not determined by the code; "
             "a component passing over at every transit has no orientation anchor"),
            (_link_bytes(hopf_plus(), component_of_edge={"1": 0, "2": 1, "3": 1, "4": 1}),
             "component 0 mixes edges of other components"),
            (_link_bytes(hopf_plus(), components=1,
                         component_of_edge={"1": 0, "2": 0, "3": 0, "4": 0}),
             "component 0 splits into several circles"),
            (_link_bytes(hopf_plus(), component_of_edge={"1": 0, "2": 0, "3": 2, "4": 2}),
             "component index 2 out of range"),
        ],
        ids=["missing-edge", "edge-thrice", "sign-two", "sign-count", "contradicting-sign",
             "all-over-clasp", "mixed-component", "split-component", "component-range"],
    )
    def test_refusal_text(self, tmp_path, content, message):
        # one fault per file, each refused with the constructor's own words;
        # `message` is a pattern
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, text = run(["skein", "homfly", str(path)])
        assert code == 2
        assert re.fullmatch(re.escape(f"error: bad link description in {path}: ") + message, text)


# values a mutation may put anywhere in a link file
_ODD_VALUES = [0, -1, 1.5, True, None, "1", [], {}, 10**30, -(10**30), [[0, [1]], [-1]]]


def _json_paths(doc, path=()):
    """Every path into a JSON document, the root first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@st.composite
def _mutated_link_files(draw):
    """A corpus link file after 1-3 edits, each dropping a key or item or
    replacing the value at a path by an odd one."""
    doc = json.loads(load_corpus(draw(st.sampled_from(corpus_names()))).to_json())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
    return json.dumps(doc)


def _assert_clean_exit(result):
    code, text = result
    assert code in (0, 1, 2)
    if code == 2:
        # argparse's own refusals open with the usage line
        assert text.startswith(("error:", "usage:"))
        assert "error:" in text


class TestGeneratedInput:
    """Generated malformed input ends in an exit code, never an exception."""

    @given(text=_mutated_link_files())
    @settings(max_examples=150, deadline=None)
    def test_mutated_link_files(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "link.json"
            path.write_text(text)
            for command in (["skein", "kauffman"], ["verify", "rudolph"]):
                _assert_clean_exit(run(command + [str(path), "--max-crossings", "8"]))

    @given(partition=st.text(",0123-x ", max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_partition_strings(self, partition):
        argv = ["verify", "main", "corpus:hopf_plus", "--component", "1"]
        _assert_clean_exit(run(argv + [f"--partition={partition}", "--max-crossings", "0"]))


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

    def test_words_are_longitude_meridian_descriptors(self):
        # one word per chain, outer level's letters last
        code, text = run(["expand", "--partition", "2,1"])
        assert code == 0
        assert json.loads(text)["words"] == [
            f"[1] l^2{inner} l^2{outer}"
            for outer in ("", " m^1", " m^2")
            for inner in ("", " m^1", " m^2")
        ]

    def test_explicit_anchor_choice(self):
        code, text = run(["expand", "--partition", "2,1", "--rho", "1,1"])
        assert code == 0
        assert json.loads(text)["anchor"] == "1,1"

    def test_bad_anchor_rejected(self):
        code, text = run(["expand", "--partition", "2", "--rho", "3"])
        assert code == 2
        assert text.startswith("error:")

    @pytest.mark.parametrize(
        "partition, message",
        [
            ("15", "error: partition 15 has size 15; its plan lists at least 3^14 words,"
                   " so expand takes sizes up to 14"),
            ("1100", "error: partition 1100 has size 1100; its plan lists at least 3^1099 words,"
                     " so expand takes sizes up to 14"),
        ],
    )
    def test_oversized_target_refused_before_planning(self, partition, message):
        started = time.perf_counter()
        assert run(["expand", "--partition", partition]) == (2, message)
        assert time.perf_counter() - started < 0.5


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

    # sha256 of the rendered --json report; any change to a label, detail,
    # assignment or the check order changes it
    @pytest.mark.parametrize(
        "link, component, partition, digest",
        [
            ("unknot", "1", "2",
             "bf78b76d86d9396c49636a30f060c215d3c9d36b0e418348954e71ddc437d055"),
            ("unknot", "1", "1,1",
             "acd6f7998983218a1af11e4a35b87f631158ec21580e6e2d69eae28a40b6bdd1"),
            ("hopf_plus", "2", "1",
             "101f213d8f033ff6228d1417050d7276009d9099227b382b257ce51fc1d8b259"),
        ],
    )
    def test_main_json_report_pinned(self, link, component, partition, digest):
        code, text = run([
            "verify", "main", f"corpus:{link}",
            "--component", component, "--partition", partition, "--json",
        ])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("partition", ["3", "0"])
    def test_main_rejects_shapes_other_than_one_or_two_cells(self, partition):
        assert run(
            ["verify", "main", "corpus:unknot", "--component", "1", "--partition", partition]
        ) == (2, "error: assignments must be width-one except one two-cell shape")

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
        assert same_diagram_as(LinkDiagram.from_json(text), load_corpus("figure_eight"))

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["skein", "kauffman", "corpus:unknot", "--max-crossings=--"],
            ["eigen", "c", "--partition=--"],
            ["expand", "--partition=2", "--rho=--"],
            ["verify", "main", "corpus:unknot", "--component=--", "--partition=1"],
        ],
        ids=["budget", "partition", "rho", "component"],
    )
    def test_double_dash_value_is_usage_error(self, argv):
        # argparse reads `--opt=--` as an empty list of values
        code, text = run(argv)
        assert code == 2
        assert text.startswith("usage:")
        assert "expected one argument" in text

    def test_skein_help_names_the_adjoint_polynomial(self):
        # the command prints the characteristic-0 value, not a mod-2 one
        code, text = run(["skein", "--help"])
        assert code == 0
        assert "antiparallel-pair adjoint polynomial" in text
        assert "mod-2" not in text

    def test_repeat_invocation_is_byte_identical(self):
        probe = ["skein", "kauffman", "corpus:hopf_minus"]
        assert run(probe) == run(probe)

    @pytest.mark.parametrize(
        "argv, code",
        [(["verify", "main", "corpus:unknot"], 2), (["--help"], 0),
         (["verify", "rudolph", "corpus:hopf_plus"], 0)],
        ids=["usage-error", "help", "verify-rudolph"],
    )
    def test_shared_parser_repeats_its_output(self, argv, code):
        # every call reuses one parser tree, whose messages go to one
        # capture buffer that each call empties first
        first = run(argv)
        assert first[0] == code
        assert run(argv) == first
        assert run(argv) == first


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
