"""Planar link diagrams and the satellite surgery toolbox.

A diagram is stored in PD style: each crossing is a 4-tuple of edge labels
listed counterclockwise starting from the incoming under-strand edge, so
slot 0 is the under-in edge and slot 2 the under-out edge.  The over strand
occupies slots 1 and 3; which of those is incoming is not part of the tuple
and is derived by propagating edge directions globally.  A crossing is
positive exactly when the over strand runs from slot 3 to slot 1.

Surgery (cabling, meridian insertion, deletion, reversal, curls, mirror)
runs on an internal mesh whose crossings hold arcs by role: UI/UO for the
under strand in/out, OI/OO for the over strand.  For a positive crossing
the counterclockwise slot order is (UI, OO, UO, OI); for a negative one it
is (UI, OI, UO, OO).

Cabling replaces a component by parallel copies with the blackboard
framing; copy 1 is the leftmost copy relative to the strand direction.
Each crossing the component takes part in becomes one grid of over copies
times under copies: n x n at a self-crossing, 1 x n or n x 1 where the
other strand belongs to another component and so counts as one copy.  At
a positive crossing each over copy meets the under copies in the order
1..n and each under copy meets the over copies in the order n..1; a
negative crossing reverses both orders.
A meridian is a small circle around one point of a component, passing
over it on one side and under on the way back, with both crossings
positive; successive meridians on the same component sit side by side
like separate beads.
"""

from __future__ import annotations

import json
from itertools import product
from typing import Optional

ROLE_UI, ROLE_UO, ROLE_OI, ROLE_OO = "UI", "UO", "OI", "OO"
SLOTS_POS = (ROLE_UI, ROLE_OO, ROLE_UO, ROLE_OI)
SLOTS_NEG = (ROLE_UI, ROLE_OI, ROLE_UO, ROLE_OO)
IN_ROLES = (ROLE_UI, ROLE_OI)
_FLIP = {ROLE_UI: ROLE_UO, ROLE_UO: ROLE_UI, ROLE_OI: ROLE_OO, ROLE_OO: ROLE_OI}
_SWITCH = {ROLE_UI: ROLE_OI, ROLE_OI: ROLE_UI, ROLE_UO: ROLE_OO, ROLE_OO: ROLE_UO}


def slot_layout(sign: int) -> tuple[str, str, str, str]:
    return SLOTS_POS if sign > 0 else SLOTS_NEG


class DiagramError(ValueError):
    pass


class AmbiguousOrientationError(DiagramError):
    """The over-strand directions cannot be recovered from the code alone."""


# ----------------------------------------------------------------------
# orientation derivation


def _derive_over_slots(crossings, edges, signs=None) -> list[int]:
    """For each crossing return the incoming over slot (1 or 3).

    Propagates in/out labels: slot 0 is incoming and slot 2 outgoing by
    definition, each edge must be outgoing at one end and incoming at the
    other, and slots 1/3 of a crossing carry one of each.

    When `signs` is given it seeds the over-strand direction at every
    crossing; propagation then acts as a consistency check.  Without it a
    component that passes over at every transit leaves the labels
    underdetermined (both directions close up, with opposite signs) and
    the derivation refuses rather than guessing.
    """
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
        # an edge looping from a slot straight back to the same slot pair is
        # covered because both appearances are distinct (ci, slot) positions
        if slot in (1, 3):
            mate = (ci, 4 - slot)
            set_status(mate, "out" if value == "in" else "in")

    over_slots = []
    for ci in range(len(crossings)):
        one = status.get((ci, 1))
        if one is None:
            raise AmbiguousOrientationError(
                f"crossing {ci}: over-strand direction is not determined by the code; "
                "a component passing over at every transit has no orientation anchor"
            )
        over_slots.append(1 if one == "in" else 3)
    for edge, spots in appearances.items():
        kinds = sorted(status[pos] for pos in spots)
        if kinds != ["in", "out"]:
            raise DiagramError(f"edge {edge} is not traversed head to tail")
    return over_slots


def _require_ints(what: str, values):
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DiagramError(f"{what}: expected an integer, got {value!r}")


def _edge_label(key) -> int:
    """A component_of_edge key read as an edge label.

    Only the form str(n) is accepted: int() alone would also take "01",
    " 1", "+1" and "0_1", so two keys could name one edge and one of them
    would be dropped without a word.
    """
    try:
        label = int(key)
    except ValueError:
        label = None
    if label is None or str(label) != key:
        raise DiagramError(f"component_of_edge keys: expected an integer label, got {key!r}")
    return label


class LinkDiagram:
    """Immutable planar diagram of an oriented framed link."""

    __slots__ = ("name", "n_components", "crossings", "signs", "component_of_edge", "free_loops")

    def __init__(self, name, n_components, crossings, component_of_edge, free_loops=(), signs=None):
        crossings = tuple(tuple(int(e) for e in quad) for quad in crossings)
        if any(len(quad) != 4 for quad in crossings):
            raise DiagramError("each crossing needs exactly 4 edge labels")
        component_of_edge = {int(e): int(c) for e, c in component_of_edge.items()}
        free_loops = tuple(sorted(int(c) for c in free_loops))
        edges = set(component_of_edge)
        if any(e <= 0 for e in edges):
            raise DiagramError("edge labels must be positive integers")

        if signs is not None:
            signs = tuple(int(s) for s in signs)
        over_slots = _derive_over_slots(crossings, edges, signs)
        derived_signs = tuple(1 if o == 3 else -1 for o in over_slots)

        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "n_components", int(n_components))
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "signs", derived_signs)
        object.__setattr__(self, "component_of_edge", component_of_edge)
        object.__setattr__(self, "free_loops", free_loops)
        self._validate(edges)

    def __setattr__(self, name, value):
        raise AttributeError("LinkDiagram is immutable")

    # ------------------------------------------------------------------

    def _validate(self, edges):
        n = self.n_components
        if n < 0:
            raise DiagramError(f"component count must be nonnegative, got {n}")
        crossed = set(self.component_of_edge.values())
        for comp in crossed:
            if not 0 <= comp < n:
                raise DiagramError(f"component index {comp} out of range")
        for comp in self.free_loops:
            if not 0 <= comp < n:
                raise DiagramError(f"free loop index {comp} out of range")
            if comp in crossed:
                raise DiagramError(f"component {comp} has edges and is marked crossingless")
        if len(set(self.free_loops)) != len(self.free_loops):
            raise DiagramError("duplicate free loop indices")
        # all indices lie in 0..n-1 and free loops are distinct and uncrossed
        if len(crossed) + len(self.free_loops) != n:
            raise DiagramError("every component must carry edges or be a free loop")
        mentioned = {e for quad in self.crossings for e in quad}
        if mentioned != edges:
            raise DiagramError("component map and crossing labels disagree")
        # each crossed component must be one closed cycle
        for comp, cycle_edges in self._component_cycles().items():
            if set(self.component_of_edge[e] for e in cycle_edges) != {comp}:
                raise DiagramError(f"component {comp} mixes edges of other components")

    def _entry_of_edge(self) -> dict[int, tuple[int, int]]:
        entry = {}
        for ci, quad in enumerate(self.crossings):
            in_slots = (0, 3) if self.signs[ci] > 0 else (0, 1)
            for slot in in_slots:
                entry[quad[slot]] = (ci, slot)
        return entry

    def _component_cycles(self) -> dict[int, list[int]]:
        """Ordered edge cycle per crossed component."""
        entry = self._entry_of_edge()
        cycles: dict[int, list[int]] = {}
        seen = set()
        for start in sorted(self.component_of_edge):
            if start in seen:
                continue
            cycle = []
            edge = start
            while True:
                cycle.append(edge)
                seen.add(edge)
                ci, slot = entry[edge]
                edge = self.crossings[ci][(slot + 2) % 4]
                if edge == start:
                    break
                if edge in seen:
                    raise DiagramError(f"edge {edge} reached from two different strands")
            comp = self.component_of_edge[start]
            if comp in cycles:
                raise DiagramError(f"component {comp} splits into several circles")
            cycles[comp] = cycle
        return cycles

    # ------------------------------------------------------------------
    # numeric summaries

    def crossing_components(self, ci: int) -> tuple[int, int]:
        """(under component, over component) at crossing ci."""
        quad = self.crossings[ci]
        return self.component_of_edge[quad[0]], self.component_of_edge[quad[1]]

    def writhe(self) -> int:
        return sum(self.signs)

    def self_writhe(self, comp: int) -> int:
        total = 0
        for ci in range(len(self.crossings)):
            under, over = self.crossing_components(ci)
            if under == over == comp:
                total += self.signs[ci]
        return total

    def linking_number(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("linking number needs two distinct components")
        twice = 0
        for ci in range(len(self.crossings)):
            pair = set(self.crossing_components(ci))
            if pair == {a, b}:
                twice += self.signs[ci]
        if twice % 2:
            raise DiagramError("odd mutual crossing sum; diagram is inconsistent")
        return twice // 2

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "components": self.n_components,
            "free_loops": list(self.free_loops),
            "crossings": [list(quad) for quad in self.crossings],
            "signs": list(self.signs),
            "component_of_edge": {str(e): c for e, c in sorted(self.component_of_edge.items())},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "LinkDiagram":
        if not isinstance(data, dict):
            raise DiagramError("a link description must be a JSON object")
        edges = data["component_of_edge"]
        if not isinstance(edges, dict):
            raise DiagramError("component_of_edge must map edge labels to components")
        # __init__ coerces with int(), which would truncate 1.5 and accept true
        _require_ints("components", [data["components"]])
        for quad in data["crossings"]:
            _require_ints("crossing labels", quad)
        _require_ints("component_of_edge values", edges.values())
        _require_ints("free_loops", data.get("free_loops", ()))
        _require_ints("signs", data.get("signs") or ())
        return cls(
            data.get("name", "unnamed"),
            data["components"],
            data["crossings"],
            {_edge_label(e): c for e, c in edges.items()},
            data.get("free_loops", ()),
            signs=data.get("signs"),
        )

    @classmethod
    def from_json(cls, text: str) -> "LinkDiagram":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # canonical form

    def canonical_code(self) -> tuple:
        """Label-independent code; component order is preserved.

        Minimizes the serialized form over all rotations of each component's
        starting edge.  Free loops carry no labels and pass through as-is.
        """
        cycles = self._component_cycles()
        comps = sorted(cycles)
        choice_space = 1
        for comp in comps:
            choice_space *= len(cycles[comp])
        if choice_space > 200000:
            raise DiagramError("diagram too large for canonical code search")
        best = None
        for starts in product(*(range(len(cycles[c])) for c in comps)):
            relabel = {}
            counter = 1
            for comp, start in zip(comps, starts):
                cycle = cycles[comp]
                for k in range(len(cycle)):
                    relabel[cycle[(start + k) % len(cycle)]] = counter
                    counter += 1
            code = tuple(sorted(
                (tuple(relabel[e] for e in quad), self.signs[ci])
                for ci, quad in enumerate(self.crossings)
            ))
            candidate = (self.n_components, self.free_loops, code)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            best = (self.n_components, self.free_loops, ())
        return best

    def same_diagram_as(self, other: "LinkDiagram") -> bool:
        return self.canonical_code() == other.canonical_code()

    # ------------------------------------------------------------------
    # surgery wrappers

    def _component_index(self, comp: int) -> int:
        """`comp` as an index 0..n-1; a negative one counts from the end."""
        _require_ints("component index", [comp])
        n = self.n_components
        if not -n <= comp < n:
            raise DiagramError(f"{self.name}: component index {comp} out of range for {n} components")
        return comp % n

    def cable(self, comp: int, copies: int) -> "LinkDiagram":
        """Replace component comp by `copies` blackboard-framed parallel copies.

        The copies take over positions comp .. comp+copies-1; later
        components shift up.
        """
        comp = self._component_index(comp)
        mesh = Mesh.from_diagram(self)
        mesh.cable(comp, copies)
        return mesh.to_diagram(f"{self.name}.cable({comp},{copies})")

    def with_meridians(self, comp: int, count: int) -> "LinkDiagram":
        """Add `count` unlinked meridian circles around component comp.

        The meridians become the last `count` components, in insertion order.
        """
        comp = self._component_index(comp)
        if count < 0:
            raise DiagramError(f"{self.name}: meridian count must be nonnegative, got {count}")
        mesh = Mesh.from_diagram(self)
        site = None
        for _ in range(count):
            site = mesh.insert_meridian(comp, site)
        return mesh.to_diagram(f"{self.name}.mer({comp},{count})")

    def delete_component(self, comp: int) -> "LinkDiagram":
        """Remove a component; the rest keep their relative order."""
        comp = self._component_index(comp)
        mesh = Mesh.from_diagram(self)
        mesh.delete_component(comp)
        return mesh.to_diagram(f"{self.name}.drop({comp})")

    def reverse_component(self, comp: int) -> "LinkDiagram":
        comp = self._component_index(comp)
        mesh = Mesh.from_diagram(self)
        mesh.reverse_component(comp)
        return mesh.to_diagram(f"{self.name}.rev({comp})")

    def with_curl(self, comp: int, sign: int) -> "LinkDiagram":
        """Add one kink of the given sign to a component (framing change)."""
        comp = self._component_index(comp)
        mesh = Mesh.from_diagram(self)
        mesh.add_curl(comp, sign)
        return mesh.to_diagram(f"{self.name}.curl({comp},{sign:+d})")

    def mirror(self) -> "LinkDiagram":
        mesh = Mesh.from_diagram(self)
        mesh.mirror()
        return mesh.to_diagram(f"{self.name}.mirror")

    def disjoint_union(self, other: "LinkDiagram") -> "LinkDiagram":
        shift = max(self.component_of_edge, default=0)
        comp_shift = self.n_components
        crossings = list(self.crossings) + [
            tuple(e + shift for e in quad) for quad in other.crossings
        ]
        comp_map = dict(self.component_of_edge)
        comp_map.update({e + shift: c + comp_shift for e, c in other.component_of_edge.items()})
        loops = list(self.free_loops) + [c + comp_shift for c in other.free_loops]
        return LinkDiagram(
            f"{self.name}+{other.name}",
            self.n_components + other.n_components,
            crossings,
            comp_map,
            loops,
            signs=self.signs + other.signs,
        )

    def __repr__(self) -> str:
        return (
            f"LinkDiagram({self.name!r}, components={self.n_components}, "
            f"crossings={len(self.crossings)}, writhe={self.writhe()})"
        )


# ----------------------------------------------------------------------
# internal surgery mesh


class Mesh:
    """Mutable arc/crossing structure behind the surgery operations.

    Crossings map the four roles UI/UO/OI/OO to arc ids; arcs record
    (tail, head, component key) with tail at an out-role and head at an
    in-role.  Component keys are opaque and ordered by `comp_order`, and
    the surgeries take a component by its position there; crossingless
    circles sit in `loops`.
    """

    def __init__(self):
        self.arcs: dict[int, list] = {}
        self.crossings: dict[int, dict] = {}
        self.comp_order: list = []
        self.loops: set = set()
        self._next_arc = 1
        self._next_crossing = 1

    # -- construction --------------------------------------------------

    @classmethod
    def from_diagram(cls, d: LinkDiagram) -> "Mesh":
        mesh = cls()
        mesh.comp_order = list(range(d.n_components))
        mesh.loops = set(d.free_loops)
        ends: dict[int, dict] = {e: {} for e in d.component_of_edge}
        for ci, quad in enumerate(d.crossings):
            layout = slot_layout(d.signs[ci])
            mesh.crossings[ci + 1] = {"sign": d.signs[ci]}
            for slot, edge in enumerate(quad):
                role = layout[slot]
                key = "head" if role in IN_ROLES else "tail"
                # a curl grabs the same edge at two slots of one crossing
                ends[edge][key] = (ci + 1, role)
        mesh._next_crossing = len(d.crossings) + 1
        for edge in sorted(ends):
            tail, head = ends[edge]["tail"], ends[edge]["head"]
            aid = mesh._new_arc(tail, head, d.component_of_edge[edge])
            mesh.crossings[tail[0]][tail[1]] = aid
            mesh.crossings[head[0]][head[1]] = aid
        return mesh

    def _new_arc(self, tail, head, comp) -> int:
        aid = self._next_arc
        self._next_arc += 1
        self.arcs[aid] = [tail, head, comp]
        return aid

    def _new_crossing(self, sign: int) -> int:
        cid = self._next_crossing
        self._next_crossing += 1
        self.crossings[cid] = {"sign": sign}
        return cid

    def _attach(self, aid: int, end: str, port: tuple[int, str]):
        self.arcs[aid][0 if end == "tail" else 1] = port
        self.crossings[port[0]][port[1]] = aid

    # -- export ----------------------------------------------------------

    def _next_arc_of_strand(self, aid: int) -> int:
        _, head, _ = self.arcs[aid]
        cid, role = head
        return self.crossings[cid][_FLIP[role]]

    def to_diagram(self, name: str) -> LinkDiagram:
        comp_index = {key: i for i, key in enumerate(self.comp_order)}
        arcs_by_comp: dict = {}
        for aid, (_, _, comp) in self.arcs.items():
            arcs_by_comp.setdefault(comp, []).append(aid)
        edge_number = {}
        component_of_edge = {}
        counter = 1
        for key in self.comp_order:
            if key in self.loops:
                continue
            start = min(arcs_by_comp[key])
            aid = start
            while True:
                edge_number[aid] = counter
                component_of_edge[counter] = comp_index[key]
                counter += 1
                aid = self._next_arc_of_strand(aid)
                if aid == start:
                    break
        quads = []
        for cid in self.crossings:
            layout = slot_layout(self.crossings[cid]["sign"])
            quad = tuple(edge_number[self.crossings[cid][role]] for role in layout)
            quads.append((quad, self.crossings[cid]["sign"]))
        quads.sort(key=lambda pair: pair[0][0])
        return LinkDiagram(
            name,
            len(self.comp_order),
            [pair[0] for pair in quads],
            component_of_edge,
            tuple(sorted(comp_index[key] for key in self.loops)),
            signs=[pair[1] for pair in quads],
        )

    # -- surgeries -------------------------------------------------------

    def _roles_of(self, cid: int, comp) -> list[str]:
        cross = self.crossings[cid]
        roles = []
        if self.arcs[cross[ROLE_UI]][2] == comp:
            roles.append("U")
        if self.arcs[cross[ROLE_OI]][2] == comp:
            roles.append("O")
        return roles

    def cable(self, comp, copies: int):
        """Replace `comp` by parallel copies 1..copies (copy 1 leftmost)."""
        if copies < 1:
            raise ValueError("copies must be >= 1")
        key = self.comp_order[comp]
        copy_keys = [(key, k) for k in range(1, copies + 1)]
        self.comp_order[comp:comp + 1] = copy_keys
        if key in self.loops:
            self.loops.discard(key)
            self.loops.update(copy_keys)
            return

        # (crossing, role, copy) -> port on the grid; a strand of another
        # component counts as the single copy 1
        ports: dict[tuple[int, str, int], tuple[int, str]] = {}
        replaced = set()
        for cid in list(self.crossings):
            cross = self.crossings[cid]
            over, under = self.arcs[cross[ROLE_OI]][2], self.arcs[cross[ROLE_UI]][2]
            if key not in (over, under):
                continue
            sign = cross["sign"]
            n_over = copies if over == key else 1
            n_under = copies if under == key else 1
            # grid crossing (i, j), over copy i+1 against under copy j+1, is
            # cells[i * n_under + j]; each copy runs along its row or column,
            # forwards or backwards by the sign
            cells = [self._new_crossing(sign) for _ in range(n_over * n_under)]
            rows = [cells[i * n_under:(i + 1) * n_under] for i in range(n_over)]
            columns = [cells[j::n_under] for j in range(n_under)]
            for chains, forward, in_role, out_role, comp in (
                (rows, sign > 0, ROLE_OI, ROLE_OO, over),
                (columns, sign < 0, ROLE_UI, ROLE_UO, under),
            ):
                for k, chain in enumerate(chains, 1):
                    if not forward:
                        chain.reverse()
                    ports[(cid, in_role, k)] = (chain[0], in_role)
                    ports[(cid, out_role, k)] = (chain[-1], out_role)
                    arc_comp = (key, k) if comp == key else comp
                    for a, b in zip(chain, chain[1:]):
                        self._new_arc_attached((a, out_role), (b, in_role), arc_comp)
            replaced.add(cid)

        for aid in list(self.arcs):
            tail, head, arc_comp = self.arcs[aid]
            if arc_comp == key:
                for k in range(1, copies + 1):
                    self._new_arc_attached(ports[(*tail, k)], ports[(*head, k)], (key, k))
                del self.arcs[aid]
                continue
            if tail[0] in replaced:
                self._attach(aid, "tail", ports[(*tail, 1)])
            if head[0] in replaced:
                self._attach(aid, "head", ports[(*head, 1)])
        for cid in replaced:
            del self.crossings[cid]

    def _new_arc_attached(self, tail, head, comp) -> int:
        aid = self._new_arc(tail, head, comp)
        self.crossings[tail[0]][tail[1]] = aid
        self.crossings[head[0]][head[1]] = aid
        return aid

    def insert_meridian(self, comp, site: Optional[int] = None) -> int:
        """Encircle `comp` with a positive meridian; returns the resume arc.

        The meridian passes over the component once and back under it, both
        crossings positive.  The returned arc id is the segment just past
        the meridian: inserting the next meridian there keeps the beads
        mutually unlinked.
        """
        key = self.comp_order[comp]
        mer_key = ("meridian", self._next_crossing, self._next_arc)
        self.comp_order.append(mer_key)
        m1 = self._new_crossing(1)  # meridian over the component
        m2 = self._new_crossing(1)  # component over the meridian
        self._new_arc_attached((m1, ROLE_OO), (m2, ROLE_UI), mer_key)
        self._new_arc_attached((m2, ROLE_UO), (m1, ROLE_OI), mer_key)

        if key in self.loops:
            self.loops.discard(key)
            self._new_arc_attached((m1, ROLE_UO), (m2, ROLE_OI), key)
            return self._new_arc_attached((m2, ROLE_OO), (m1, ROLE_UI), key)
        if site is None:
            site = min(aid for aid, arc in self.arcs.items() if arc[2] == key)
        tail, head, arc_comp = self.arcs[site]
        if arc_comp != key:
            raise ValueError("meridian site must sit on the encircled component")
        # split the site arc: tail -> m1(under) -> m2(over) -> head
        self._attach(site, "head", (m1, ROLE_UI))
        self._new_arc_attached((m1, ROLE_UO), (m2, ROLE_OI), key)
        # the resume arc takes over the head port of the original arc
        return self._new_arc_attached((m2, ROLE_OO), head, key)

    def delete_component(self, comp):
        key = self.comp_order[comp]
        if key in self.loops:
            self.loops.discard(key)
            self.comp_order.remove(key)
            return
        # removing one crossing never changes which others the component
        # takes part in, so one pass in id order finds them all
        for cid in sorted(self.crossings):
            roles = self._roles_of(cid, key)
            if not roles:
                continue
            cross = self.crossings.pop(cid)
            if roles == ["U", "O"]:
                # a self-crossing of the doomed component: all four arcs are
                # its own and are swept up at the end
                continue
            other = "O" if roles == ["U"] else "U"
            in_arc = cross[other + "I"]
            out_arc = cross[other + "O"]
            if in_arc != out_arc:
                tail = self.arcs[in_arc][0]
                self.arcs[out_arc][0] = tail
                self.crossings[tail[0]][tail[1]] = out_arc
            # if in_arc == out_arc the surviving strand closes into a
            # crossingless circle, which the closing sweep adds to `loops`
            del self.arcs[in_arc]
        for aid in [a for a, arc in self.arcs.items() if arc[2] == key]:
            del self.arcs[aid]
        # deleting may strand other components as crossingless circles
        for other_key in self.comp_order:
            if other_key == key or other_key in self.loops:
                continue
            if not any(arc[2] == other_key for arc in self.arcs.values()):
                self.loops.add(other_key)
        self.comp_order.remove(key)

    def reverse_component(self, comp):
        key = self.comp_order[comp]
        if key in self.loops:
            return
        touched: dict[int, list[str]] = {}
        for cid in self.crossings:
            roles = self._roles_of(cid, key)
            if roles:
                touched[cid] = roles
        for aid, (tail, head, arc_comp) in list(self.arcs.items()):
            if arc_comp != key:
                continue
            self.arcs[aid][0] = (head[0], _FLIP[head[1]])
            self.arcs[aid][1] = (tail[0], _FLIP[tail[1]])
        for cid, roles in touched.items():
            cross = self.crossings[cid]
            if "U" in roles:
                cross[ROLE_UI], cross[ROLE_UO] = cross[ROLE_UO], cross[ROLE_UI]
            if "O" in roles:
                cross[ROLE_OI], cross[ROLE_OO] = cross[ROLE_OO], cross[ROLE_OI]
            if len(roles) == 1:
                cross["sign"] = -cross["sign"]

    def add_curl(self, comp, sign: int):
        if sign not in (1, -1):
            raise ValueError("curl sign must be +1 or -1")
        key = self.comp_order[comp]
        k = self._new_crossing(sign)
        if key in self.loops:
            self.loops.discard(key)
            self._new_arc_attached((k, ROLE_UO), (k, ROLE_OI), key)
            self._new_arc_attached((k, ROLE_OO), (k, ROLE_UI), key)
            return
        site = min(aid for aid, arc in self.arcs.items() if arc[2] == key)
        tail, head, _ = self.arcs[site]
        self._attach(site, "head", (k, ROLE_UI))
        self._new_arc_attached((k, ROLE_UO), (k, ROLE_OI), key)
        self._new_arc_attached((k, ROLE_OO), head, key)

    def mirror(self):
        for cid, cross in self.crossings.items():
            cross["sign"] = -cross["sign"]
            cross[ROLE_UI], cross[ROLE_OI] = cross[ROLE_OI], cross[ROLE_UI]
            cross[ROLE_UO], cross[ROLE_OO] = cross[ROLE_OO], cross[ROLE_UO]
        for aid, (tail, head, _) in list(self.arcs.items()):
            self.arcs[aid][0] = (tail[0], _SWITCH[tail[1]])
            self.arcs[aid][1] = (head[0], _SWITCH[head[1]])
