"""Planar diagram model: construction, codes, and surgeries."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_code,
    linking_number,
    mesh_faults,
    mirror,
    port_list,
    same_diagram_as,
    self_writhe,
)
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
        assert linking_number(d, 0, 1) == 1
        assert self_writhe(d, 0) == 0

    def test_hopf_minus_metadata(self):
        d = hopf_minus()
        assert d.signs == (-1, -1)
        assert d.writhe() == -2
        assert linking_number(d, 0, 1) == -1

    def test_trefoil_metadata(self):
        d = trefoil()
        assert d.n_components == 1
        assert d.writhe() == 3
        assert self_writhe(d, 0) == 3

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

    @pytest.mark.parametrize("changed, message", [
        ({"n_components": 1.0}, "components: expected an integer, got 1.0"),
        ({"crossings": [(1.5, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)]},
         "crossing labels: expected an integer, got 1.5"),
        ({"component_of_edge": {e: (True if e == 6 else 0) for e in range(1, 7)}},
         "component_of_edge values: expected an integer, got True"),
        ({"n_components": 2, "free_loops": [1.0]}, "free_loops: expected an integer, got 1.0"),
        ({"signs": [True] * 3}, "signs: expected an integer, got True"),
        ({"component_of_edge": {e: 0 for e in (1, 2, 3, 4, 5, 6.0)}},
         "edge labels must be positive integers"),
    ], ids=["components", "crossing-label", "component", "free-loop", "sign", "edge-label"])
    def test_constructor_refuses_non_integers(self, changed, message):
        # int() would read 1.5 as 1 and True as 1, and load the trefoil
        d = trefoil()
        fields = {"n_components": 1, "crossings": d.crossings,
                  "component_of_edge": d.component_of_edge, "signs": d.signs}
        with pytest.raises(DiagramError, match=re.escape(message)):
            LinkDiagram("t", **{**fields, **changed})

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
        assert same_diagram_as(back, d)
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
        assert canonical_code(beaded) == canonical_code(hopf_plus())

    def test_distinguishes_mirror(self):
        assert canonical_code(hopf_plus()) != canonical_code(hopf_minus())

    def test_stable_under_relabeling(self):
        d = trefoil()
        back = LinkDiagram.from_json(d.to_json())
        assert canonical_code(back) == canonical_code(d)


class TestSurgeries:
    def test_cable_hopf(self):
        d = hopf_plus().cable(0, 2)
        assert d.n_components == 3
        assert len(d.crossings) == 4
        assert d.writhe() == 4
        lk = [
            [0 if i == j else linking_number(d, i, j) for j in range(3)]
            for i in range(3)
        ]
        assert lk == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]

    def test_cable_trefoil_counts(self):
        # doubling squares self-crossings: 3 -> 12
        d = trefoil().cable(0, 2)
        assert len(d.crossings) == 12
        assert d.n_components == 2
        assert self_writhe(d, 0) == 3 and self_writhe(d, 1) == 3
        assert linking_number(d, 0, 1) == 3
        assert d.writhe() == 12

    @pytest.mark.parametrize("name", corpus_names())
    def test_single_copy_cable_changes_only_the_name(self, name):
        d = load_corpus(name)
        for c in range(d.n_components):
            cabled = d.cable(c, 1)
            assert cabled.to_dict() == {**d.to_dict(), "name": cabled.name}
            assert same_diagram_as(cabled, d)
            assert skein_eval.homfly(cabled) == skein_eval.homfly(d)
            assert skein_eval.kauffman(cabled) == skein_eval.kauffman(d)

    def test_cable_takes_a_negative_index_from_the_end(self):
        assert same_diagram_as(hopf_plus().cable(-1, 2), hopf_plus().cable(1, 2))

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
        assert same_diagram_as(d, trefoil())

    def test_meridian_beads(self):
        d = unknot().with_meridians(0, 2)
        assert d.n_components == 3
        assert len(d.crossings) == 4
        assert d.writhe() == 4
        assert linking_number(d, 0, 1) == 1
        assert linking_number(d, 0, 2) == 1
        assert linking_number(d, 1, 2) == 0

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
        assert linking_number(d, 0, 1) == -1
        # reversing one bead flips only its linking number with the core
        d = unknot().with_meridians(0, 2).reverse_component(1)
        assert linking_number(d, 0, 1) == -1
        assert linking_number(d, 0, 2) == 1
        assert d.writhe() == 0

    def test_double_reverse_is_identity(self):
        d = trefoil().reverse_component(0).reverse_component(0)
        assert same_diagram_as(d, trefoil())

    def test_mirror(self):
        d = mirror(trefoil())
        assert d.writhe() == -3
        assert same_diagram_as(mirror(d), trefoil())

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
# the mesh builds and surgery steps the battery takes
MESH_STEPS = 2121


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
                mirror(d).cable(c, 2),
                d.reverse_component(c).cable(c, 2),
                d.with_meridians(c, 2).cable(c, 3).delete_component(c),
            ]

    def record(term, flavor, config):
        out.append(term)
        return LaurentPoly.zero()

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


class TestOneRecord:
    """The arcs are a mesh's one record of how crossings connect: after the
    mesh is built and after every surgery step, `mesh_faults` finds none."""

    def test_every_surgery_step(self, monkeypatch):
        steps = []

        def checked(method):
            def step(mesh, *args):
                out = method(mesh, *args)
                steps.append(mesh_faults(mesh))
                return out
            return step

        for name in ("__init__", "cable", "insert_meridian", "delete_component", "reverse_component",
                     "add_curl"):
            monkeypatch.setattr(Mesh, name, checked(getattr(Mesh, name)))
        _surgery_battery(monkeypatch)
        assert len(steps) == MESH_STEPS
        assert [faults for faults in steps if faults] == []

    def test_a_moved_head_is_a_fault(self):
        mesh = Mesh(trefoil())
        assert mesh_faults(mesh) == []
        head = mesh.arcs[1][1]
        mesh.arcs[1][1] = mesh.arcs[2][1]
        assert mesh_faults(mesh) == [
            f"port {mesh.arcs[2][1]} holds arcs 1 and 2", f"crossing {head[0]}: port {head[1]} is free",
        ]


CLOSURES_SHA256 = "7b5ce7187ec24de5f69b8aa46afd3387897db765fa2eebc427a5389e16bbf76e"


class TestClosurePinned:
    """Braid closures, edge labels and crossing order included, are pinned
    byte for byte on 300 seeded words of 0-16 letters on 1-6 strands,
    empty words and untouched positions among them."""

    def test_closure_hash(self):
        rng = random.Random(30)
        texts = []
        for i in range(300):
            n = rng.randint(1, 6)
            word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 16))] if n > 1 else []
            texts.append(braid_closure(n, word, f"w{i}").to_json())
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == CLOSURES_SHA256


# the figure-eight knot's usual PD code as a hand-written link file: no
# signs, so every edge direction comes from the derivation alone
FIGURE_EIGHT_FILE = """{
  "name": "hand_figure_eight",
  "components": 1,
  "crossings": [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]],
  "component_of_edge": {"1": 0, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0}
}"""


def _mesh_built() -> list[LinkDiagram]:
    """Corpus links, their curls and their satellite rows of <= 12 crossings:
    braid closures written as PD codes, and what surgery makes of them."""
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


def _partner_from_signs(d: LinkDiagram) -> list:
    """The engine's port list as read from the signs alone, edge by edge
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
    return port_list(partner, len(d.crossings))


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
    assert partner == _partner_from_signs(d)


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
        assert Mesh(d).to_diagram(d.name).to_json() == d.to_json()

    def test_read_only(self):
        with pytest.raises(AttributeError):
            trefoil().edge_ends = {}


# ----------------------------------------------------------------------
# the constructor against the in/out propagation that `_trace_strands`
# replaced, kept here as a reference


def _reference_derive_over_slots(crossings, edges, signs=None):
    """Each crossing's incoming over slot and each edge's `(tail, head)`,
    by propagating in/out labels from the slots whose direction is known."""
    appearances: dict[int, list[tuple[int, int]]] = {e: [] for e in edges}
    for ci, quad in enumerate(crossings):
        for slot, edge in enumerate(quad):
            if edge not in appearances:
                raise DiagramError(f"edge {edge} missing from component map")
            appearances[edge].append((ci, slot))
    for edge, spots in appearances.items():
        if len(spots) != 2:
            raise DiagramError(f"edge {edge} appears {len(spots)} times; expected 2")

    status: dict[tuple[int, int], str] = {}
    work: list[tuple[int, int]] = []

    def set_status(pos, value):
        old = status.get(pos)
        if old is None:
            status[pos] = value
            work.append(pos)
        elif old != value:
            raise DiagramError(f"inconsistent strand directions at crossing {pos[0]}")

    for ci, quad in enumerate(crossings):
        set_status((ci, 0), "in")
        set_status((ci, 2), "out")
    if signs is not None:
        if len(signs) != len(crossings):
            raise DiagramError(f"{len(signs)} signs for {len(crossings)} crossings")
        for ci, sign in enumerate(signs):
            if sign not in (1, -1):
                raise DiagramError(f"crossing {ci}: sign must be +1 or -1, got {sign}")
            set_status((ci, 3), "in" if sign > 0 else "out")
            set_status((ci, 1), "out" if sign > 0 else "in")
    while work:
        ci, slot = work.pop()
        value = status[(ci, slot)]
        edge = crossings[ci][slot]
        for other in appearances[edge]:
            if other != (ci, slot):
                set_status(other, "out" if value == "in" else "in")
        if slot in (1, 3):
            set_status((ci, 4 - slot), "out" if value == "in" else "in")

    over_slots = []
    for ci in range(len(crossings)):
        one = status.get((ci, 1))
        if one is None:
            raise AmbiguousOrientationError(
                f"crossing {ci}: over-strand direction is not determined by the code; "
                "a component passing over at every transit has no orientation anchor"
            )
        over_slots.append(1 if one == "in" else 3)
    ends = {}
    for edge, (a, b) in appearances.items():
        if status[a] == status[b]:
            raise DiagramError(f"edge {edge} is not traversed head to tail")
        ends[edge] = (a, b) if status[a] == "out" else (b, a)
    return over_slots, dict(sorted(ends.items()))


def _reference_component_cycles(crossings, component_of_edge, edge_ends):
    cycles: dict[int, list[int]] = {}
    seen = set()
    for start in sorted(component_of_edge):
        if start in seen:
            continue
        cycle = []
        edge = start
        while True:
            cycle.append(edge)
            seen.add(edge)
            ci, slot = edge_ends[edge][1]
            edge = crossings[ci][(slot + 2) % 4]
            if edge == start:
                break
            if edge in seen:
                raise DiagramError(f"edge {edge} reached from two different strands")
        comp = component_of_edge[start]
        if comp in cycles:
            raise DiagramError(f"component {comp} splits into several circles")
        cycles[comp] = cycle
    return cycles


def _reference_construct(n, crossings, component_of_edge, free_loops, signs):
    """The reference constructor's checks in their order; `(signs, edge_ends)`."""
    crossings = tuple(tuple(quad) for quad in crossings)
    edges = set(component_of_edge)
    if any(e <= 0 for e in edges):
        raise DiagramError("edge labels must be positive integers")
    over_slots, edge_ends = _reference_derive_over_slots(crossings, edges, signs)
    if n < 0:
        raise DiagramError(f"component count must be nonnegative, got {n}")
    crossed = set(component_of_edge.values())
    for comp in crossed:
        if not 0 <= comp < n:
            raise DiagramError(f"component index {comp} out of range")
    for comp in free_loops:
        if not 0 <= comp < n:
            raise DiagramError(f"free loop index {comp} out of range")
        if comp in crossed:
            raise DiagramError(f"component {comp} has edges and is marked crossingless")
    if len(set(free_loops)) != len(free_loops):
        raise DiagramError("duplicate free loop indices")
    if len(crossed) + len(free_loops) != n:
        raise DiagramError("every component must carry edges or be a free loop")
    if {e for quad in crossings for e in quad} != edges:
        raise DiagramError("component map and crossing labels disagree")
    for comp, cycle in _reference_component_cycles(crossings, component_of_edge, edge_ends).items():
        if set(component_of_edge[e] for e in cycle) != {comp}:
            raise DiagramError(f"component {comp} mixes edges of other components")
    return tuple(1 if o == 3 else -1 for o in over_slots), edge_ends


def _code_of(d: LinkDiagram) -> tuple:
    return (d.n_components, [list(quad) for quad in d.crossings], dict(d.component_of_edge),
            list(d.free_loops), list(d.signs))


_BASE_CODES = [_code_of(d) for d in _mesh_built()]
_MUTATIONS = ("replace", "swap", "rotate", "reverse", "flip sign", "drop sign", "move edge", "count")


@st.composite
def _mutated_codes(draw):
    """A corpus link, a curl, a satellite row of <= 12 crossings or a 3-braid
    closure, with or without its signs, after 0-3 mutations."""
    if draw(st.booleans()):
        n, crossings, comp, loops, signs = draw(st.sampled_from(_BASE_CODES))
    else:
        word = draw(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8))
        n, crossings, comp, loops, signs = _code_of(braid_closure(3, word, "w"))
    crossings = [list(quad) for quad in crossings]
    comp = dict(comp)
    signs = list(signs) if draw(st.booleans()) else None
    spots = [(ci, slot) for ci in range(len(crossings)) for slot in range(4)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        if kind == "count":
            n += draw(st.sampled_from([-1, 1]))
        elif kind == "move edge" and comp:
            comp[draw(st.sampled_from(sorted(comp)))] = draw(st.integers(0, max(n, 0)))
        elif kind in ("flip sign", "drop sign") and signs:
            ci = draw(st.integers(0, len(signs) - 1))
            if kind == "flip sign":
                signs[ci] = -signs[ci]
            else:
                del signs[ci]
        elif kind in ("replace", "swap") and spots:
            ci, slot = draw(st.sampled_from(spots))
            if kind == "replace":
                crossings[ci][slot] = draw(st.integers(1, max(comp) + 1))
            else:
                cj, other = draw(st.sampled_from(spots))
                crossings[ci][slot], crossings[cj][other] = crossings[cj][other], crossings[ci][slot]
        elif kind in ("rotate", "reverse") and crossings:
            quad = crossings[draw(st.integers(0, len(crossings) - 1))]
            k = draw(st.integers(1, 3)) if kind == "rotate" else 0
            quad[:] = quad[k:] + quad[:k] if k else quad[::-1]
    return n, crossings, comp, loops, signs


def _outcome(build) -> tuple:
    """`build()`'s `(signs, edge_ends)` with the ends in order, or the class
    and message of its refusal, an inconsistency's crossing number left out."""
    try:
        signs, ends = build()
    except DiagramError as exc:
        return type(exc), re.sub(r"(inconsistent strand directions at crossing) \d+", r"\1 N", str(exc))
    return signs, list(ends.items())


class TestConstructorDifferential:
    """The strand walk accepts and refuses what the propagation did, with
    the same signs, edge ends and messages."""

    def _check(self, code) -> tuple:
        n, crossings, comp, loops, signs = code

        def walked():
            d = LinkDiagram("m", n, crossings, comp, loops, signs=signs)
            return d.signs, d.edge_ends

        outcome = _outcome(walked)
        assert outcome == _outcome(lambda: _reference_construct(*code))
        return outcome

    @given(code=_mutated_codes())
    @settings(max_examples=400, deadline=None)
    def test_mutated_codes(self, code):
        self._check(code)

    @pytest.mark.parametrize("d", _mesh_built(), ids=lambda d: d.name)
    def test_base_codes_accepted(self, d):
        n, crossings, comp, loops, _ = code = _code_of(d)
        assert self._check(code)[0] == d.signs
        assert self._check((n, crossings, comp, loops, None))[0] == d.signs
