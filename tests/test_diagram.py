"""Planar diagram model: construction, codes, and surgeries."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinkit import skein_eval
from skeinkit.annulus import build_satellite_row
from skeinkit.corpus import (
    CORPUS,
    braid_closure,
    corpus_names,
    empty_link,
    figure_eight,
    hopf_minus,
    hopf_plus,
    load_corpus,
    trefoil,
    unknot,
    unlink,
)
from skeinkit.diagram import AmbiguousOrientationError, DiagramError, LinkDiagram, Mesh
from skeinkit.ring import LaurentPoly
from skeinkit.verify import VERIFY_CONFIG


class TestConstruction:
    def test_hopf_plus_metadata(self):
        d = hopf_plus()
        assert d.n_components == 2
        assert len(d.crossings) == 2
        assert d.signs == (1, 1)
        assert d.writhe() == 2
        assert d.linking_number(0, 1) == 1
        assert d.self_writhe(0) == 0

    def test_hopf_minus_metadata(self):
        d = hopf_minus()
        assert d.signs == (-1, -1)
        assert d.writhe() == -2
        assert d.linking_number(0, 1) == -1

    def test_trefoil_metadata(self):
        d = trefoil()
        assert d.n_components == 1
        assert d.writhe() == 3
        assert d.self_writhe(0) == 3

    def test_figure_eight_metadata(self):
        d = figure_eight()
        assert d.n_components == 1
        assert len(d.crossings) == 4
        assert d.writhe() == 0

    def test_unlink_and_empty(self):
        assert empty_link().n_components == 0
        assert unlink(3).n_components == 3
        assert unlink(3).free_loops == (0, 1, 2)
        assert unknot().crossings == ()

    def test_signs_are_derived(self):
        # same quads, no signs supplied: derivation must match the stored ones
        d = hopf_plus()
        rebuilt = LinkDiagram(
            name="x",
            n_components=2,
            crossings=d.crossings,
            component_of_edge=d.component_of_edge,
        )
        assert rebuilt.signs == d.signs

    def test_wrong_signs_rejected(self):
        d = hopf_plus()
        with pytest.raises(DiagramError):
            LinkDiagram(
                name="x",
                n_components=2,
                crossings=d.crossings,
                signs=(1, -1),
                component_of_edge=d.component_of_edge,
            )

    def test_all_over_component_is_ambiguous(self):
        # a circle running over another at both transits: either direction
        # of the over circle is globally consistent, so there is no unique
        # orientation to derive
        with pytest.raises(AmbiguousOrientationError):
            LinkDiagram(
                name="bad",
                n_components=2,
                crossings=((1, 3, 2, 4), (2, 4, 1, 3)),
                component_of_edge={1: 0, 2: 0, 3: 1, 4: 1},
            )

    def test_supplied_signs_resolve_ambiguity(self):
        # both orientations of the all-over circle are legal diagrams; the
        # signs field picks one, and serialization keeps the choice
        quads = ((1, 3, 2, 4), (2, 4, 1, 3))
        comp = {1: 0, 2: 0, 3: 1, 4: 1}
        for chosen in ((1, 1), (-1, -1)):
            d = LinkDiagram("clasp", 2, quads, comp, signs=chosen)
            assert d.signs == chosen
            back = LinkDiagram.from_json(d.to_json())
            assert back.signs == chosen
        with pytest.raises(DiagramError):
            LinkDiagram("clasp", 2, quads, comp, signs=(1, -1))


class TestSerialization:
    def test_hopf_json_golden(self):
        want = {
            "component_of_edge": {"1": 0, "2": 0, "3": 1, "4": 1},
            "components": 2,
            "crossings": [[1, 4, 2, 3], [4, 1, 3, 2]],
            "free_loops": [],
            "name": "hopf_plus",
            "signs": [1, 1],
        }
        assert json.loads(hopf_plus().to_json()) == want

    def test_curl_json_golden(self):
        d = unknot().with_curl(0, 1)
        assert json.loads(d.to_json())["crossings"] == [[2, 2, 1, 1]]
        assert d.signs == (1,)
        d = unknot().with_curl(0, -1)
        assert d.signs == (-1,)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_roundtrip_preserves_structure(self, name):
        d = load_corpus(name)
        back = LinkDiagram.from_json(d.to_json())
        assert back.same_diagram_as(d)
        assert back.signs == d.signs

    def test_corpus_listing(self):
        names = corpus_names()
        assert "trefoil" in names and "hopf_plus" in names
        with pytest.raises(KeyError):
            load_corpus("no_such_link")


class TestCanonicalCode:
    def test_meridian_insertion_matches_hopf(self):
        # one meridian bead around an unknot core IS the positive hopf
        # diagram; this pins the handedness of the insertion
        beaded = unknot().with_meridians(0, 1)
        assert beaded.canonical_code() == hopf_plus().canonical_code()

    def test_distinguishes_mirror(self):
        assert hopf_plus().canonical_code() != hopf_minus().canonical_code()

    def test_stable_under_relabeling(self):
        d = trefoil()
        back = LinkDiagram.from_json(d.to_json())
        assert back.canonical_code() == d.canonical_code()


class TestSurgeries:
    def test_cable_hopf(self):
        d = hopf_plus().cable(0, 2)
        assert d.n_components == 3
        assert len(d.crossings) == 4
        assert d.writhe() == 4
        lk = [
            [0 if i == j else d.linking_number(i, j) for j in range(3)]
            for i in range(3)
        ]
        assert lk == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]

    def test_cable_trefoil_counts(self):
        # doubling squares self-crossings: 3 -> 12
        d = trefoil().cable(0, 2)
        assert len(d.crossings) == 12
        assert d.n_components == 2
        assert d.self_writhe(0) == 3 and d.self_writhe(1) == 3
        assert d.linking_number(0, 1) == 3
        assert d.writhe() == 12

    @pytest.mark.parametrize("name", corpus_names())
    def test_single_copy_cable_changes_only_the_name(self, name):
        d = load_corpus(name)
        for c in range(d.n_components):
            cabled = d.cable(c, 1)
            assert cabled.to_dict() == {**d.to_dict(), "name": cabled.name}
            assert cabled.same_diagram_as(d)
            assert skein_eval.homfly(cabled) == skein_eval.homfly(d)
            assert skein_eval.kauffman(cabled) == skein_eval.kauffman(d)

    def test_cable_takes_a_negative_index_from_the_end(self):
        assert hopf_plus().cable(-1, 2).same_diagram_as(hopf_plus().cable(1, 2))

    def test_negative_index_is_named_from_zero(self):
        assert hopf_plus().delete_component(-1).name == "hopf_plus.drop(1)"
        assert hopf_plus().with_curl(-2, 1).name == "hopf_plus.curl(0,+1)"

    @pytest.mark.parametrize(
        "surgery",
        [
            lambda d: d.cable(5, 2),
            lambda d: d.cable(-3, 2),
            lambda d: d.with_meridians(5, 1),
            lambda d: d.delete_component(2),
            lambda d: d.reverse_component(7),
            lambda d: d.with_curl(2, 1),
            lambda d: d.cable(True, 2),
        ],
    )
    def test_component_index_out_of_range(self, surgery):
        with pytest.raises(DiagramError, match="component index"):
            surgery(hopf_plus())

    def test_negative_meridian_count_refused(self):
        with pytest.raises(DiagramError, match="meridian count must be nonnegative, got -2"):
            hopf_plus().with_meridians(0, -2)

    def test_cable_then_delete_copy_restores(self):
        d = trefoil().cable(0, 2).delete_component(1)
        assert d.same_diagram_as(trefoil())

    def test_meridian_beads(self):
        d = unknot().with_meridians(0, 2)
        assert d.n_components == 3
        assert len(d.crossings) == 4
        assert d.writhe() == 4
        assert d.linking_number(0, 1) == 1
        assert d.linking_number(0, 2) == 1
        assert d.linking_number(1, 2) == 0

    def test_delete_to_free_loops(self):
        d = hopf_plus().delete_component(1)
        assert d.n_components == 1
        assert d.crossings == ()
        assert d.free_loops == (0,)
        d = unknot().with_meridians(0, 3).delete_component(0)
        assert d.free_loops == (0, 1, 2)

    def test_reverse_component(self):
        d = hopf_plus().reverse_component(0)
        assert d.writhe() == -2
        assert d.linking_number(0, 1) == -1
        # reversing one bead flips only its linking number with the core
        d = unknot().with_meridians(0, 2).reverse_component(1)
        assert d.linking_number(0, 1) == -1
        assert d.linking_number(0, 2) == 1
        assert d.writhe() == 0

    def test_double_reverse_is_identity(self):
        d = trefoil().reverse_component(0).reverse_component(0)
        assert d.same_diagram_as(trefoil())

    def test_mirror(self):
        d = trefoil().mirror()
        assert d.writhe() == -3
        assert d.mirror().same_diagram_as(trefoil())

    def test_disjoint_union(self):
        d = hopf_plus().disjoint_union(unknot())
        assert d.n_components == 3
        assert d.free_loops == (2,)
        assert len(d.crossings) == 2

    def test_curl_changes_writhe_only(self):
        d = trefoil().with_curl(0, -1)
        assert d.writhe() == 2
        assert d.n_components == 1
        assert len(d.crossings) == 4


# any change to these values changes the output or the names of surgery
BATTERY_SIZE = 363
BATTERY_SHA256 = "63e32c649fb2dbc75b839a0c6577c67ffe796c708612c91b63672ccd11aedac2"


def _surgery_battery(monkeypatch) -> list[LinkDiagram]:
    """Surgery results over every component of every corpus link, then every
    adjoint term of the corpus and of its satellite rows of <= 8 crossings."""
    out = []
    adjoint_inputs = []
    for name in corpus_names():
        d = load_corpus(name)
        adjoint_inputs.append(d)
        for c in range(d.n_components):
            out += [d.cable(c, copies) for copies in (1, 2, 3)]
            for r in range(4):
                row = build_satellite_row(d, c, r)
                out.append(row)
                if len(row.crossings) <= 8:
                    adjoint_inputs.append(row)
            out += [
                d.with_curl(c, 1).cable(c, 2),
                d.with_curl(c, -1).cable(c, 2),
                d.mirror().cable(c, 2),
                d.reverse_component(c).cable(c, 2),
                d.with_meridians(c, 2).cable(c, 3).delete_component(c),
            ]

    def record(term, flavor, config):
        out.append(term)
        return skein_eval._ZFrac(LaurentPoly.zero())

    monkeypatch.setattr(skein_eval, "_run", record)
    for d in adjoint_inputs:
        # the row terms reach 32 crossings, and adjoint_homfly sizes every
        # term against the budget before it builds one
        skein_eval.adjoint_homfly(d, VERIFY_CONFIG)
    return out


class TestSurgeryPinned:
    """Surgery output, names included, is pinned byte for byte."""

    def test_battery_hash(self, monkeypatch):
        battery = _surgery_battery(monkeypatch)
        digest = hashlib.sha256("\n".join(d.to_json() for d in battery).encode()).hexdigest()
        assert len(battery) == BATTERY_SIZE
        assert digest == BATTERY_SHA256


# the figure-eight knot's usual PD code as a hand-written link file: no
# signs, so every edge direction comes from the derivation alone
FIGURE_EIGHT_FILE = """{
  "name": "hand_figure_eight",
  "components": 1,
  "crossings": [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]],
  "component_of_edge": {"1": 0, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0}
}"""


def _mesh_built() -> list[LinkDiagram]:
    """Corpus links, their curls and their satellite rows of <= 12 crossings;
    every one of them is made by a Mesh."""
    out = []
    for name in corpus_names():
        d = load_corpus(name)
        out.append(d)
        for c in range(d.n_components):
            out += [d.with_curl(c, 1), d.with_curl(c, -1)]
            rows = [build_satellite_row(d, c, r) for r in range(4)]
            out += [row for row in rows if len(row.crossings) <= 12]
    return out


def _is_in_slot(d: LinkDiagram, ci: int, slot: int) -> bool:
    """The PD rule: slot 0 is in, slot 2 out, slot 3 in exactly when the
    crossing is positive and slot 1 exactly when it is negative."""
    return slot == 0 or slot == (3 if d.signs[ci] > 0 else 1)


def _partner_from_signs(d: LinkDiagram) -> dict:
    """The engine's arc matching as read from the signs alone, edge by edge
    in increasing order, each arc entered from its out-port."""
    ends: dict = {}
    for ci, quad in enumerate(d.crossings):
        for slot, edge in enumerate(quad):
            ends.setdefault(edge, {})["in" if _is_in_slot(d, ci, slot) else "out"] = (ci, slot)
    partner = {}
    for edge in sorted(ends):
        a, b = ends[edge]["out"], ends[edge]["in"]
        partner[a] = b
        partner[b] = a
    return partner


def _check_edge_ends(d: LinkDiagram):
    assert list(d.edge_ends) == sorted(d.component_of_edge)
    spots: dict = {}
    for ci, quad in enumerate(d.crossings):
        for slot, edge in enumerate(quad):
            spots.setdefault(edge, []).append((ci, slot))
    for edge, (tail, head) in d.edge_ends.items():
        assert sorted([tail, head]) == sorted(spots[edge])
        assert not _is_in_slot(d, *tail)
        assert _is_in_slot(d, *head)
    cross, partner = skein_eval._build_state(d)
    assert list(partner.items()) == list(_partner_from_signs(d).items())


class TestEdgeEnds:
    """`edge_ends` is the one record of edge directions; the PD rule and the
    engine's arcs read from the signs alone must agree with it."""

    @pytest.mark.parametrize("d", _mesh_built(), ids=lambda d: d.name)
    def test_mesh_built_diagrams(self, d):
        _check_edge_ends(d)

    @given(word=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_braid_closures(self, word):
        _check_edge_ends(braid_closure(3, word, "w"))

    def test_link_file_without_signs(self):
        d = LinkDiagram.from_json(FIGURE_EIGHT_FILE)
        assert d.signs == (1, 1, -1, -1)
        _check_edge_ends(d)
        # edge 1 leaves crossing 1 by its under-out slot and enters the
        # positive crossing 0 by its over-in slot 3
        assert d.edge_ends[1] == ((1, 2), (0, 3))
        assert skein_eval.homfly(d) == skein_eval.homfly(figure_eight())

    def test_curl_edge_runs_within_one_crossing(self):
        d = unknot().with_curl(0, 1)
        assert d.crossings == ((2, 2, 1, 1),)
        assert d.edge_ends == {1: ((0, 2), (0, 3)), 2: ((0, 1), (0, 0))}

    @pytest.mark.parametrize("d", _mesh_built(), ids=lambda d: d.name)
    def test_mesh_round_trip(self, d):
        assert Mesh.from_diagram(d).to_diagram(d.name).to_json() == d.to_json()

    def test_read_only(self):
        with pytest.raises(AttributeError):
            trefoil().edge_ends = {}
