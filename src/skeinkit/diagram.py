"""Planar link diagrams and the satellite surgery toolbox.

A diagram is stored in PD style: each crossing is a 4-tuple of edge labels
listed counterclockwise starting from the incoming under-strand edge, so
slot 0 is the under-in edge and slot 2 the under-out edge.  The over strand
occupies slots 1 and 3; which of those is incoming is not part of the tuple
and is found by walking each strand once, in the direction given by the
slots it must enter: every slot 0, and every over-in slot when the signs
are stated.  A crossing is positive exactly when the over strand runs from
slot 3 to slot 1.  Each edge's tail and head, the (crossing, slot) it
leaves and enters, are found by that walk and kept as
`LinkDiagram.edge_ends`.

Surgery (cabling, meridian insertion, deletion, reversal, curls) runs on
an internal mesh of arcs, each running from an out-port to an in-port of a
crossing.  A port is a crossing and a role: UI/UO for the under strand
in/out, OI/OO for the over strand.  For a positive crossing the
counterclockwise slot order is (UI, OO, UO, OI); for a negative one it is
(UI, OI, UO, OO).  The arcs are the one record of how crossings connect; a
crossing holds only its sign.

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
from typing import Optional

ROLE_UI, ROLE_UO, ROLE_OI, ROLE_OO = "UI", "UO", "OI", "OO"
SLOTS_POS = (ROLE_UI, ROLE_OO, ROLE_UO, ROLE_OI)
SLOTS_NEG = (ROLE_UI, ROLE_OI, ROLE_UO, ROLE_OO)
_FLIP = {ROLE_UI: ROLE_UO, ROLE_UO: ROLE_UI, ROLE_OI: ROLE_OO, ROLE_OO: ROLE_OI}


def slot_layout(sign: int) -> tuple[str, str, str, str]:
    return SLOTS_POS if sign > 0 else SLOTS_NEG


class DiagramError(ValueError):
    pass


class AmbiguousOrientationError(DiagramError):
    """The over-strand directions cannot be recovered from the code alone."""


# ----------------------------------------------------------------------
# strand directions


def _trace_strands(crossings, component_of_edge, signs=None) -> tuple[tuple, dict, list]:
    """Walk every strand once; return `(signs, edge_ends, strands)`.

    A strand leaves a crossing by the slot opposite the one it entered.
    Slot 0 is always entered and so, when `signs` is given, is the over-in
    slot: 3 at a positive crossing, 1 at a negative one.  Each walk starts
    from the strand's lowest edge, takes the direction these slots give and
    refuses a strand whose slots disagree.  Without `signs` a strand that
    passes over at every transit enters none of them, and the walk refuses
    rather than guess.  The signs are read from the over-in slots entered;
    `strands` lists each strand's edges in order, by lowest edge.
    """
    spots: dict[int, list[int]] = {}
    for ci, quad in enumerate(crossings):
        for slot, edge in enumerate(quad):
            if edge not in component_of_edge:
                raise DiagramError(f"edge {edge} missing from component map")
            spots.setdefault(edge, []).append(4 * ci + slot)
    edges = sorted(component_of_edge)
    for edge in edges:
        count = len(spots.get(edge, ()))
        if count != 2:
            raise DiagramError(f"edge {edge} appears {count} times; expected 2")
    # a spot p is 4 * crossing + slot, so the slot opposite it is p ^ 2;
    # need[p] is +1 where a strand must enter, -1 where it must leave and 0
    # where either will do
    if signs is None:
        need = [1, 0, -1, 0] * len(crossings)
    else:
        if len(signs) != len(crossings):
            raise DiagramError(f"{len(signs)} signs for {len(crossings)} crossings")
        for ci, sign in enumerate(signs):
            if sign not in (1, -1):
                raise DiagramError(f"crossing {ci}: sign must be +1 or -1, got {sign}")
        need = [v for sign in signs for v in ((1, -1, -1, 1) if sign > 0 else (1, 1, -1, -1))]

    ends = dict.fromkeys(edges)
    derived = [0] * len(crossings)
    strands = []
    for start in edges:
        if ends[start] is not None:
            continue
        tail, head = spots[start]
        edge, direction, walk = start, 0, []
        while True:
            walk.append((edge, tail, head))
            vote = need[head]
            if vote:
                if direction == -vote:
                    raise DiagramError(f"inconsistent strand directions at crossing {head >> 2}")
                direction = vote
            tail = head ^ 2
            edge = crossings[tail >> 2][tail & 3]
            if edge == start:
                break
            a, b = spots[edge]
            head = a + b - tail
        if direction < 0:  # turn the walk round, still from `start`
            walk = [(e, h, t) for e, t, h in walk[:1] + walk[:0:-1]]
        for e, t, h in walk:
            ends[e] = (divmod(t, 4), divmod(h, 4))
            if h & 1 and direction:
                derived[h >> 2] = 1 if (h & 3) == 3 else -1
        strands.append([e for e, _, _ in walk])
    # a crossing whose over strand entered no needed slot has no sign
    if 0 in derived:
        raise AmbiguousOrientationError(
            f"crossing {derived.index(0)}: over-strand direction is not determined by the code; "
            "a component passing over at every transit has no orientation anchor"
        )
    return tuple(derived), ends, strands


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
    """Immutable planar diagram of an oriented framed link.

    `edge_ends` maps each edge, in increasing order, to the (crossing,
    slot) it leaves and the one it enters: the one record of edge directions.
    """

    __slots__ = ("name", "n_components", "crossings", "signs", "component_of_edge", "free_loops",
                 "edge_ends")

    def __init__(self, name, n_components, crossings, component_of_edge, free_loops=(), signs=None):
        # every integer is checked, not coerced: int() would truncate 1.5 and take True as 1
        _require_ints("components", [n_components])
        crossings = tuple(tuple(quad) for quad in crossings)
        for quad in crossings:
            _require_ints("crossing labels", quad)
        component_of_edge = dict(component_of_edge)
        _require_ints("component_of_edge values", component_of_edge.values())
        free_loops = tuple(free_loops)
        _require_ints("free_loops", free_loops)
        if signs is not None:
            signs = tuple(signs)
            _require_ints("signs", signs)
        if any(len(quad) != 4 for quad in crossings):
            raise DiagramError("each crossing needs exactly 4 edge labels")
        if any(isinstance(e, bool) or not isinstance(e, int) or e <= 0 for e in component_of_edge):
            raise DiagramError("edge labels must be positive integers")

        signs, edge_ends, strands = _trace_strands(crossings, component_of_edge, signs)

        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "n_components", n_components)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "component_of_edge", component_of_edge)
        object.__setattr__(self, "free_loops", tuple(sorted(free_loops)))
        object.__setattr__(self, "edge_ends", edge_ends)
        self._validate(strands)

    def __setattr__(self, name, value):
        raise AttributeError("LinkDiagram is immutable")

    # ------------------------------------------------------------------

    def _validate(self, strands):
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
        # each crossed component must be one strand, a strand counting for
        # the component of its lowest edge; any split is reported before a mix
        comps = [self.component_of_edge[strand[0]] for strand in strands]
        seen = set()
        for comp in comps:
            if comp in seen:
                raise DiagramError(f"component {comp} splits into several circles")
            seen.add(comp)
        for comp, strand in zip(comps, strands):
            if any(self.component_of_edge[e] != comp for e in strand):
                raise DiagramError(f"component {comp} mixes edges of other components")
        self._check_planar()

    def _check_planar(self):
        """Refuse a code that no planar diagram has.

        By Euler's formula a connected planar diagram of n crossings bounds
        n + 2 faces, and a code of higher genus bounds fewer, so the code is
        planar iff its faces number n + 2 per connected piece.  A face is
        traced over the darts, each a port 4 * crossing + slot: cross the
        edge to the far port, then turn to the previous slot there.
        """
        n = len(self.crossings)
        across = [0] * (4 * n)
        piece = list(range(n))  # a crossing's link towards its piece's root

        def root(c):
            while piece[c] != c:
                piece[c] = c = piece[piece[c]]  # path halving
            return c

        for (tc, ts), (hc, hs) in self.edge_ends.values():
            across[4 * tc + ts], across[4 * hc + hs] = 4 * hc + hs, 4 * tc + ts
            piece[root(tc)] = root(hc)
        pieces = sum(1 for c in range(n) if piece[c] == c)
        faces, traced = 0, [False] * (4 * n)
        for start in range(4 * n):
            if traced[start]:
                continue
            faces += 1
            p = start
            while not traced[p]:
                traced[p] = True
                far = across[p]
                p = far - (far & 3) + ((far - 1) & 3)
        if faces != n + 2 * pieces:
            raise DiagramError(
                f"not planar: {faces} faces, not {n + 2 * pieces} "
                f"({n} crossings plus 2 per connected piece)"
            )

    # ------------------------------------------------------------------
    # numeric summaries

    def crossing_components(self, ci: int) -> tuple[int, int]:
        """(under component, over component) at crossing ci."""
        quad = self.crossings[ci]
        return self.component_of_edge[quad[0]], self.component_of_edge[quad[1]]

    def writhe(self) -> int:
        return sum(self.signs)

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
        name = data.get("name", "unnamed")
        if not isinstance(name, str):
            raise DiagramError(f"name must be a string, got {type(name).__name__}")
        return cls(
            name,
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
        mesh = Mesh(self)
        mesh.cable(comp, copies)
        return mesh.to_diagram(f"{self.name}.cable({comp},{copies})")

    def with_meridians(self, comp: int, count: int) -> "LinkDiagram":
        """Add `count` unlinked meridian circles around component comp.

        The meridians become the last `count` components, in insertion order.
        """
        comp = self._component_index(comp)
        if count < 0:
            raise DiagramError(f"{self.name}: meridian count must be nonnegative, got {count}")
        mesh = Mesh(self)
        site = None
        for _ in range(count):
            site = mesh.insert_meridian(comp, site)
        return mesh.to_diagram(f"{self.name}.mer({comp},{count})")

    def delete_component(self, comp: int) -> "LinkDiagram":
        """Remove a component; the rest keep their relative order."""
        comp = self._component_index(comp)
        mesh = Mesh(self)
        mesh.delete_component(comp)
        return mesh.to_diagram(f"{self.name}.drop({comp})")

    def reverse_component(self, comp: int) -> "LinkDiagram":
        comp = self._component_index(comp)
        mesh = Mesh(self)
        mesh.reverse_component(comp)
        return mesh.to_diagram(f"{self.name}.rev({comp})")

    def with_curl(self, comp: int, sign: int) -> "LinkDiagram":
        """Add one kink of the given sign to a component (framing change)."""
        comp = self._component_index(comp)
        mesh = Mesh(self)
        mesh.add_curl(comp, sign)
        return mesh.to_diagram(f"{self.name}.curl({comp},{sign:+d})")

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
    """Mutable arc structure behind the surgery operations, built from a diagram.

    Each arc is [tail, head, component key], its tail at an out-role port
    and its head at an in-role port; the arcs are the one record of how
    crossings connect, and `crossings` maps each crossing id to its sign.
    A surgery that needs the arc at a port builds that index once
    (`_ports`).  Component keys are opaque and ordered by `comp_order`, and
    the surgeries take a component by its position there; crossingless
    circles sit in `loops`.
    """

    def __init__(self, d: LinkDiagram):
        self.arcs: dict[int, list] = {}
        self.crossings: dict[int, int] = {ci + 1: sign for ci, sign in enumerate(d.signs)}
        self.comp_order: list = list(range(d.n_components))
        self.loops: set = set(d.free_loops)
        self._next_arc = 1
        self._next_crossing = len(d.crossings) + 1
        layouts = [slot_layout(sign) for sign in d.signs]
        # one arc per edge, in edge order, so arc ids follow edge labels
        for edge, ((tc, ts), (hc, hs)) in d.edge_ends.items():
            self._new_arc((tc + 1, layouts[tc][ts]), (hc + 1, layouts[hc][hs]), d.component_of_edge[edge])

    def _new_arc(self, tail, head, comp) -> int:
        aid = self._next_arc
        self._next_arc += 1
        self.arcs[aid] = [tail, head, comp]
        return aid

    def _new_crossing(self, sign: int) -> int:
        cid = self._next_crossing
        self._next_crossing += 1
        self.crossings[cid] = sign
        return cid

    def _ports(self) -> dict:
        """The arc at each port."""
        at = {}
        for aid, (tail, head, _) in self.arcs.items():
            at[tail] = aid
            at[head] = aid
        return at

    # -- export ----------------------------------------------------------

    def to_diagram(self, name: str) -> LinkDiagram:
        at = self._ports()
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
                cid, role = self.arcs[aid][1]
                aid = at[(cid, _FLIP[role])]
                if aid == start:
                    break
        quads = []
        for cid, sign in self.crossings.items():
            quads.append((tuple(edge_number[at[(cid, role)]] for role in slot_layout(sign)), sign))
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

        at = self._ports()
        # (crossing, role, copy) -> port on the grid; a strand of another
        # component counts as the single copy 1
        ports: dict[tuple[int, str, int], tuple[int, str]] = {}
        replaced = set()
        for cid, sign in list(self.crossings.items()):
            over, under = self.arcs[at[(cid, ROLE_OI)]][2], self.arcs[at[(cid, ROLE_UI)]][2]
            if key not in (over, under):
                continue
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
                        self._new_arc((a, out_role), (b, in_role), arc_comp)
            replaced.add(cid)

        for aid in list(self.arcs):
            arc = self.arcs[aid]
            tail, head, arc_comp = arc
            if arc_comp == key:
                for k in range(1, copies + 1):
                    self._new_arc(ports[(*tail, k)], ports[(*head, k)], (key, k))
                del self.arcs[aid]
                continue
            if tail[0] in replaced:
                arc[0] = ports[(*tail, 1)]
            if head[0] in replaced:
                arc[1] = ports[(*head, 1)]
        for cid in replaced:
            del self.crossings[cid]

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
        self._new_arc((m1, ROLE_OO), (m2, ROLE_UI), mer_key)
        self._new_arc((m2, ROLE_UO), (m1, ROLE_OI), mer_key)

        if key in self.loops:
            self.loops.discard(key)
            self._new_arc((m1, ROLE_UO), (m2, ROLE_OI), key)
            return self._new_arc((m2, ROLE_OO), (m1, ROLE_UI), key)
        if site is None:
            site = min(aid for aid, arc in self.arcs.items() if arc[2] == key)
        head, arc_comp = self.arcs[site][1:]
        if arc_comp != key:
            raise ValueError("meridian site must sit on the encircled component")
        # split the site arc: tail -> m1(under) -> m2(over) -> head
        self.arcs[site][1] = (m1, ROLE_UI)
        self._new_arc((m1, ROLE_UO), (m2, ROLE_OI), key)
        # the resume arc takes over the head port of the original arc
        return self._new_arc((m2, ROLE_OO), head, key)

    def delete_component(self, comp):
        key = self.comp_order[comp]
        self.comp_order.remove(key)
        if key in self.loops:
            self.loops.discard(key)
            return
        at = self._ports()
        # removing one crossing never changes which others the component
        # takes part in, so one pass in id order finds them all
        for cid in sorted(self.crossings):
            under = self.arcs[at[(cid, ROLE_UI)]][2] == key
            over = self.arcs[at[(cid, ROLE_OI)]][2] == key
            if not (under or over):
                continue
            del self.crossings[cid]
            if under and over:
                # a self-crossing of the doomed component: all four arcs are
                # its own and are swept up at the end
                continue
            other = "O" if under else "U"
            in_arc, out_arc = at[(cid, other + "I")], at[(cid, other + "O")]
            if in_arc != out_arc:
                tail = self.arcs[out_arc][0] = self.arcs[in_arc][0]
                at[tail] = out_arc
            # if in_arc == out_arc the surviving strand closes into a
            # crossingless circle, which the closing sweep adds to `loops`
            del self.arcs[in_arc]
        for aid in [a for a, arc in self.arcs.items() if arc[2] == key]:
            del self.arcs[aid]
        # deleting may strand other components as crossingless circles
        live = {arc[2] for arc in self.arcs.values()}
        self.loops.update(k for k in self.comp_order if k not in live)

    def reverse_component(self, comp):
        key = self.comp_order[comp]
        mine = [arc for arc in self.arcs.values() if arc[2] == key]
        # a crossing the component passes once changes sign; at a
        # self-crossing both strands turn round and the sign stays
        passes: dict[int, int] = {}
        for arc in mine:
            passes[arc[1][0]] = passes.get(arc[1][0], 0) + 1
        for cid, count in passes.items():
            if count == 1:
                self.crossings[cid] = -self.crossings[cid]
        for arc in mine:
            (tc, tr), (hc, hr) = arc[0], arc[1]
            arc[0], arc[1] = (hc, _FLIP[hr]), (tc, _FLIP[tr])

    def add_curl(self, comp, sign: int):
        if sign not in (1, -1):
            raise ValueError("curl sign must be +1 or -1")
        key = self.comp_order[comp]
        k = self._new_crossing(sign)
        if key in self.loops:
            self.loops.discard(key)
            self._new_arc((k, ROLE_UO), (k, ROLE_OI), key)
            self._new_arc((k, ROLE_OO), (k, ROLE_UI), key)
            return
        site = min(aid for aid, arc in self.arcs.items() if arc[2] == key)
        head = self.arcs[site][1]
        self.arcs[site][1] = (k, ROLE_UI)
        self._new_arc((k, ROLE_UO), (k, ROLE_OI), key)
        self._new_arc((k, ROLE_OO), head, key)
