"""Exact framed link polynomial evaluators.

Two flavors share one engine:

- the oriented evaluator resolves a crossing against its switched and
  orientation-respecting smoothed forms (difference = z times the smoothing),
- the unoriented evaluator resolves against the switched form and the two
  planar smoothings (difference = z times the difference of smoothings).

Both are regular-isotopy (framed) invariants: a positive kink multiplies
the value by v^-1, a negative kink by v, the crossingless circle counts
delta, and the empty diagram counts 1.

The engine holds crossings as ports (crossing id, slot 0..3) with a perfect
matching `partner` describing the arcs.  Slot numbering is inherited from
the input diagram and never relabeled.  Each crossing carries one datum
`(u, o)`, its under-in and over-in slots, in both flavors: the over strand
occupies the slots of `o`'s parity, `u` and `o` always have opposite
parity, and a switch is `(u, o) -> (o, u)`.  The unoriented flavor reads
only that parity; the oriented one also reads the sign, positive when
`o = u + 3 (mod 4)`.  Before branching, states are simplified
(kink removal, parallel bigon cancellation, split into connected clusters,
free circle harvesting) and looked up in a cache keyed by a relabeling
invariant serialization.  Diagrams whose every crossing is first reached
on its over strand evaluate in closed form, so the recursion only branches
on the first crossing first reached on its under strand.

Every state the engine branches on is already simplified, and a resolved
child differs from it only at the resolved crossing c: the switched child
in c's levels, a smoothed child in the arcs through c.  So a child's
simplification examines c (switched) or the crossings the smoothing
rerouted, not every crossing, and ends in the same state.
"""

from __future__ import annotations

import heapq
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .diagram import LinkDiagram, Mesh
from .ring import LaurentPoly, RingElem, vpow, z_poly


class SkeinBudgetError(RuntimeError):
    """Raised when a diagram exceeds the configured crossing budget."""


@dataclass(frozen=True)
class EvalConfig:
    max_crossings: int = 24
    memo: bool = True


DEFAULT_CONFIG = EvalConfig()

_DELTA_NUM = vpow(-1) - vpow(1)           # oriented circle: (v^-1 - v)/z
_DELTA_K_NUM = _DELTA_NUM + z_poly()      # unoriented circle: (v^-1 - v + z)/z
_Z = z_poly()
_Z_POWERS = {0: LaurentPoly.one()}


def _zpow_poly(k: int) -> LaurentPoly:
    while k not in _Z_POWERS:
        top = max(_Z_POWERS)
        _Z_POWERS[top + 1] = _Z_POWERS[top] * _Z
    return _Z_POWERS[k]


class _ZFrac:
    """num / z^zpow with num a Laurent polynomial; closed under the engine ops."""

    __slots__ = ("num", "zpow")

    def __init__(self, num: LaurentPoly, zpow: int = 0):
        self.num = num
        self.zpow = zpow

    def __add__(self, other: "_ZFrac") -> "_ZFrac":
        # bring only the operand with the lower z-power up to the other's
        gap = self.zpow - other.zpow
        if gap == 0:
            return _ZFrac(self.num + other.num, self.zpow)
        if gap > 0:
            return _ZFrac(self.num + other.num * _zpow_poly(gap), self.zpow)
        return _ZFrac(self.num * _zpow_poly(-gap) + other.num, other.zpow)

    def __sub__(self, other: "_ZFrac") -> "_ZFrac":
        return self + other.negate()

    def __mul__(self, other: "_ZFrac") -> "_ZFrac":
        return _ZFrac(self.num * other.num, self.zpow + other.zpow)

    def times_z(self) -> "_ZFrac":
        return _ZFrac(self.num * _Z, self.zpow)

    def times_circles(self, k: int, flavor: str) -> "_ZFrac":
        if k == 0:
            return self
        num = _DELTA_NUM if flavor == ORIENTED else _DELTA_K_NUM
        return _ZFrac(self.num * (num ** k), self.zpow + k)

    def negate(self) -> "_ZFrac":
        return _ZFrac(-self.num, self.zpow)

    def to_ring_elem(self) -> RingElem:
        return RingElem(self.num, _zpow_poly(self.zpow))


# ----------------------------------------------------------------------
# state construction

ORIENTED = "oriented"
UNORIENTED = "unoriented"


def _build_state(d: LinkDiagram):
    partner = {}
    ends: dict[int, dict] = {}
    cross = {}
    for ci, quad in enumerate(d.crossings):
        over_in = 3 if d.signs[ci] > 0 else 1
        cross[ci] = (0, over_in)
        for slot, edge in enumerate(quad):
            key = "in" if slot in (0, over_in) else "out"
            ends.setdefault(edge, {})[key] = (ci, slot)
    for edge in sorted(ends):
        a, b = ends[edge]["out"], ends[edge]["in"]
        partner[a] = b
        partner[b] = a
    return cross, partner


def _sign(datum) -> int:
    u, o = datum
    return 1 if (o - u) % 4 == 3 else -1


def _is_over(datum, slot) -> bool:
    # over strand occupies the two slots of the over-entry's parity
    return slot % 2 == datum[1] % 2


# ----------------------------------------------------------------------
# structural surgery on states


def _excise(cross: dict, partner: dict, dead: set, through: dict) -> tuple[int, set]:
    """Delete the crossings in `dead`, rerouting strands along `through`.

    `through` pairs the ports where a strand runs through the deleted
    region; ports of dead crossings missing from `through` must sit on arcs
    internal to the region.  Reads only the dead crossings' ports and their
    partners.  Returns (circles freed, surviving crossings rerouted).
    """
    circles = 0
    consumed = set()
    touched = set()
    for c in dead:
        for s in range(4):
            a = partner[(c, s)]
            if a[0] in dead:
                continue
            touched.add(a[0])
            if partner[a][0] not in dead:
                continue  # already rerouted from the strand's other end
            x = (c, s)
            while True:
                y = through[x]
                consumed.add(x)
                consumed.add(y)
                z = partner[y]
                if z[0] in dead:
                    x = z
                else:
                    partner[a] = z
                    partner[z] = a
                    break
    for start in through:
        if start in consumed:
            continue
        x = start
        while True:
            y = through[x]
            consumed.add(x)
            consumed.add(y)
            z = partner[y]
            if z == start:
                circles += 1
                break
            x = z
    for c in dead:
        for s in range(4):
            del partner[(c, s)]
        del cross[c]
    return circles, touched


def _sym(*pairs) -> dict:
    out = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


def _smooth_through(c, datum, positive: bool) -> dict:
    """Planar smoothing of c; the plus one joins each under slot to the next.

    The orientation-respecting smoothing is the plus smoothing of a
    positive crossing and the minus smoothing of a negative one.
    """
    k = datum[0] % 2 + (0 if positive else 1)
    return _sym(
        ((c, k % 4), (c, (k + 1) % 4)),
        ((c, (k + 2) % 4), (c, (k + 3) % 4)),
    )


# ----------------------------------------------------------------------
# simplification


def _kink_move(cross: dict, partner: dict, c):
    """Return (v shift, through map) for a curl at c, or None.

    The curl is an arc joining adjacent slots i, i+1; it is positive (shift
    -1) when i is an under slot.  In an oriented state such an arc can only
    run from an out slot to an in slot, and the shift is minus the
    crossing sign.
    """
    for i in range(4):
        if partner.get((c, i)) == (c, (i + 1) % 4):
            positive = not _is_over(cross[c], i)
            through = _sym(((c, (i + 2) % 4), (c, (i + 3) % 4)))
            return (-1 if positive else 1), through
    return None


def _parallel_arcs(cross: dict, partner: dict, c, same_levels: bool):
    """First (i, c2, j) with slots i, i+1 of c running to slots j, j-1 of
    another crossing c2, where both arcs keep their levels (a bigon,
    `same_levels`) or swap them (a clasp); else None."""
    for i in range(4):
        c2, j = partner[(c, i)]
        if c2 == c or partner.get((c, (i + 1) % 4)) != (c2, (j - 1) % 4):
            continue
        if (_is_over(cross[c], i) == _is_over(cross[c2], j)) == same_levels:
            return i, c2, j
    return None


def _bigon_move(cross: dict, partner: dict, c):
    """Return (other crossing, through map) for a cancelling bigon at c, or None."""
    hit = _parallel_arcs(cross, partner, c, True)
    if hit is None:
        return None
    i, c2, j = hit
    through = _sym(
        ((c, (i + 2) % 4), (c2, (j + 2) % 4)),
        ((c, (i + 3) % 4), (c2, (j + 1) % 4)),
    )
    return c2, through


def _simplify(cross: dict, partner: dict, seeds) -> tuple[int, int]:
    """Harvest kinks and parallel bigons in place; returns (v shift, circles).

    Worklist-driven from `seeds`, which must hold every crossing where a
    move is possible: a pattern involving some crossing can only become
    true when an arc next to it is rewired or its levels change, so only
    neighbors of an excised region ever need re-examination.  A whole
    diagram is seeded with all its crossings.  A child that `_resolve`
    makes from a simplified state differs from it only at the resolved
    crossing c, so it is seeded with {c} when switched (a new bigon must
    contain c) and with the rerouted crossings when smoothed.  Crossings
    without a move are no-ops in the heap, so the moves, and the state
    they leave, are those of a run seeded with every crossing.
    """
    vshift = 0
    circles = 0
    heap = sorted(seeds)
    pending = set(heap)
    while heap:
        c = heapq.heappop(heap)
        if c not in pending:
            continue
        pending.discard(c)
        if c not in cross:
            continue
        kink = _kink_move(cross, partner, c)
        if kink is not None:
            shift, through = kink
            vshift += shift
            dead = {c}
        else:
            bigon = _bigon_move(cross, partner, c)
            if bigon is None:
                continue
            c2, through = bigon
            dead = {c, c2}
        freed, touched = _excise(cross, partner, dead, through)
        circles += freed
        for t in touched:
            if t not in pending:
                pending.add(t)
                heapq.heappush(heap, t)
    return vshift, circles


# ----------------------------------------------------------------------
# traversal: descending detection and branch point selection


def _find_clasp(cross: dict, partner: dict):
    """Find a crossing pair joined by two parallel arcs with opposite levels.

    Switching either crossing of such a clasp turns it into a bigon that
    cancels, so branching there shrinks every child diagram.
    """
    for c in sorted(cross):
        if _parallel_arcs(cross, partner, c, False) is not None:
            return c
    return None


def _scan(cross: dict, partner: dict):
    """Walk every circle; report (first bad crossing, circle count, writhe sum).

    A crossing is good when its first visit runs along the over strand.
    The walk order is deterministic: circles start at the smallest
    unvisited in-port (c, u) or (c, o), and a walk marks both directions
    of each port it passes visited.  An oriented state's walks only ever
    enter by in-ports, so there the marking changes nothing; an
    unoriented state's circles may run against the strands' directions.
    """
    entry_ports = sorted((c, s) for c, (u, o) in cross.items() for s in (u, o))
    visited = set()
    seen = set()
    n_circles = 0
    writhe_total = 0
    for start in entry_ports:
        if start in visited:
            continue
        n_circles += 1
        entries = {}
        p = start
        while p not in visited:
            c, s = p
            visited.add(p)
            visited.add((c, (s + 2) % 4))
            over = _is_over(cross[c], s)
            if c not in seen:
                if not over:
                    return c, -1, -1
                seen.add(c)
            if c in entries:
                x, y = (s, entries[c]) if over else (entries[c], s)
                writhe_total += 1 if (x - y) % 4 == 3 else -1
            else:
                entries[c] = s
            p = partner[(c, (s + 2) % 4)]
    return None, n_circles, writhe_total


# ----------------------------------------------------------------------
# the recursive engine


_MEMO: dict = {}


def clear_caches():
    _MEMO.clear()


def _clusters(cross: dict, partner: dict) -> list[set]:
    remaining = set(cross)
    out = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        group = {seed}
        while stack:
            c = stack.pop()
            for s in range(4):
                c2, _ = partner[(c, s)]
                if c2 in group:
                    continue
                group.add(c2)
                stack.append(c2)
        out.append(group)
        remaining -= group
    return out


def _canonical_key(cross: dict, partner: dict, flavor: str):
    """Relabeling-invariant memo key of a cluster state.

    One walk serves both flavors, which set only m: 4 oriented, 2
    unoriented.  A port's offset is its slot minus its crossing's under-in
    slot u, mod m, and a crossing's bases are range(u, u + 4, m): the
    under-in slot oriented, either under slot unoriented.  A breadth-first
    walk from each seed (crossing, base) numbers the crossings and writes
    one row per crossing: for each slot from the base on, the partner's
    number and slot offset from the partner's base.  A newly reached
    crossing takes the base s2 - offset at or before the reaching slot s2.
    The smallest row sequence wins.  The seeds are the bases of the
    crossings of the lowest local signature: the smallest, over the
    crossing's bases, of its row of neighbour offsets and self-loop flags.

    No row holds a crossing sign.  The port entries imply it: an arc joins
    an out-port to an in-port and a strand leaves by the slot opposite the
    one it enters, so in/out spreads from the under ports along every
    strand that passes under somewhere.  Only a component that passes over
    at every crossing escapes it; it lies above the rest, a split unknot of
    framing 0, so its orientation does not change the value either.
    `TestCanonicalKey` in tests/test_skein_eval.py checks both claims on
    the states the engine keys.
    """
    m = 4 if flavor == ORIENTED else 2
    sigs = {}
    for c, (u, _) in cross.items():
        row = []
        for r in range(4):
            c2, s2 = partner[(c, (u + r) % 4)]
            row.append(((s2 - cross[c2][0]) % m, c2 == c))
        row = tuple(row)
        sigs[c] = min(row, row[m:] + row[:m])  # from u and from u + m (mod 4)
    low = min(sigs.values())
    seeds = [(c, b) for c in sorted(cross) if sigs[c] == low for b in range(cross[c][0], cross[c][0] + 4, m)]
    best = None
    for seed, base in seeds:
        ids = {seed: 0}
        rots = {seed: base}
        queue = [seed]
        rows = []
        status = 0  # vs best: 0 tied so far, 1 strictly smaller at some row
        for c in queue:  # the walk appends to the queue as it goes
            b = rots[c]
            row = []
            for r in range(4):
                c2, s2 = partner[(c, (b + r) % 4)]
                if c2 not in ids:
                    ids[c2] = len(queue)
                    rots[c2] = s2 - (s2 - cross[c2][0]) % m
                    queue.append(c2)
                row.append((ids[c2], (s2 - rots[c2]) % 4))
            rowt = tuple(row)
            if best is not None and status == 0:
                ref = best[len(rows)]
                if rowt > ref:
                    rows = None
                    break
                if rowt < ref:
                    status = 1
            rows.append(rowt)
        if rows is not None and (best is None or status == 1):
            best = rows
    return (flavor, tuple(best))


def _evaluate(cross: dict, partner: dict, flavor: str, memo: bool, seeds) -> _ZFrac:
    """Value of a state after simplifying it from `seeds` (see `_simplify`)."""
    vshift, circles = _simplify(cross, partner, seeds)
    if not cross:
        return _ZFrac(vpow(vshift), 0).times_circles(circles, flavor)
    groups = _clusters(cross, partner)
    if len(groups) == 1:
        value = _cluster_value(cross, partner, flavor, memo)
    else:
        value = None
        for group in groups:
            sub_cross = {c: cross[c] for c in group}
            sub_partner = {
                (c, s): partner[(c, s)] for c in group for s in range(4)
            }
            part = _cluster_value(sub_cross, sub_partner, flavor, memo)
            value = part if value is None else value * part
    value = value.times_circles(circles, flavor)
    if vshift:
        value = _ZFrac(value.num.shift(vshift, 0), value.zpow)
    return value


def _cluster_value(cross: dict, partner: dict, flavor: str, memo: bool) -> _ZFrac:
    key = _canonical_key(cross, partner, flavor) if memo else None
    if memo and key in _MEMO:
        return _MEMO[key]
    first_bad, n_circles, writhe = _scan(cross, partner)
    if first_bad is not None:
        clasp = _find_clasp(cross, partner)
        if clasp is not None:
            first_bad = clasp
    if first_bad is None:
        result = _ZFrac(vpow(-writhe), 0).times_circles(n_circles, flavor)
    else:
        switched, _, z_term = _resolve(cross, partner, flavor, first_bad, memo)
        result = switched + z_term
    if memo:
        _MEMO[key] = result
    return result


def _resolve(cross: dict, partner: dict, flavor: str, c, memo: bool):
    """Apply the flavor's skein relation at crossing c, leaving the state intact.

    Returns (switched value, smoothing values, z-term); the state's value
    is the switched value plus the z-term.  Oriented: one smoothing and
    z-term +-z*smoothing by the crossing sign.  Unoriented: the two planar
    smoothings and z-term z*(plus - minus).
    """
    u, o = cross[c]
    sign = _sign(cross[c])
    sw_cross = dict(cross)
    sw_cross[c] = (o, u)
    if flavor == ORIENTED:
        throughs = (_smooth_through(c, cross[c], sign > 0),)
    else:
        throughs = (_smooth_through(c, cross[c], True), _smooth_through(c, cross[c], False))
    switched = _evaluate(sw_cross, dict(partner), flavor, memo, (c,))
    smoothings = []
    for through in throughs:
        sm_cross = dict(cross)
        sm_partner = dict(partner)
        freed, touched = _excise(sm_cross, sm_partner, {c}, through)
        smoothings.append(_evaluate(sm_cross, sm_partner, flavor, memo, touched).times_circles(freed, flavor))
    if flavor == ORIENTED:
        z_term = smoothings[0].times_z()
        if sign < 0:
            z_term = z_term.negate()
    else:
        z_term = (smoothings[0] - smoothings[1]).times_z()
    return switched, smoothings, z_term


# ----------------------------------------------------------------------
# public entry points


def _prepare(d: LinkDiagram, config: Optional[EvalConfig]):
    """Entry checks shared by every evaluation; returns (cross, partner, memo)."""
    cfg = config or DEFAULT_CONFIG
    if len(d.crossings) > cfg.max_crossings:
        raise SkeinBudgetError(
            f"{d.name}: {len(d.crossings)} crossings exceed the budget of {cfg.max_crossings}"
        )
    cross, partner = _build_state(d)
    return cross, partner, cfg.memo


@contextmanager
def _recursion_room():
    """Raise the recursion limit for one evaluation and restore it after."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _run(d: LinkDiagram, flavor: str, config: Optional[EvalConfig]) -> _ZFrac:
    cross, partner, memo = _prepare(d, config)
    with _recursion_room():
        value = _evaluate(cross, partner, flavor, memo, cross)
    return value.times_circles(len(d.free_loops), flavor)


def homfly(d: LinkDiagram, config: Optional[EvalConfig] = None) -> RingElem:
    """Framed oriented polynomial; empty diagram 1, crossingless circle delta."""
    return _run(d, ORIENTED, config).to_ring_elem()


def kauffman(d: LinkDiagram, config: Optional[EvalConfig] = None) -> RingElem:
    """Framed unoriented polynomial; same normalization, orientation ignored."""
    return _run(d, UNORIENTED, config).to_ring_elem()


def adjoint_homfly(d: LinkDiagram, config: Optional[EvalConfig] = None) -> RingElem:
    """Alternating sum over components of antiparallel double satellites.

    Every component is either deleted or replaced by a reversed parallel
    pair (2 copies, second reversed), with sign (-1)^(deleted count).
    The crossing budget applies to each term separately.

    Each term is built in one mesh pass and named as the chain of surgery
    wrappers would name it, e.g. `hopf_plus.drop(1).cable(0,2).rev(1)`.
    The terms are summed exactly as num / z^k fractions and the total is
    normalised once.
    """
    n = d.n_components
    total = _ZFrac(LaurentPoly.zero())
    for mask in range(1 << n):
        mesh = Mesh.from_diagram(d)
        name = d.name
        kept = 0
        for i in reversed(range(n)):
            if mask & (1 << i):
                kept += 1
            else:
                mesh.delete_component(i)
                name += f".drop({i})"
        for pos in reversed(range(kept)):
            mesh.cable(pos, 2)
            mesh.reverse_component(pos + 1)
            name += f".cable({pos},2).rev({pos + 1})"
        term = _run(mesh.to_diagram(name), ORIENTED, config)
        total = total - term if (n - kept) % 2 else total + term
    return total.to_ring_elem()


def skein_relation_probe(
    d: LinkDiagram,
    crossing: int,
    flavor: str = ORIENTED,
    config: Optional[EvalConfig] = None,
) -> dict:
    """Resolve one crossing both ways and check the defining relation.

    The state is resolved as given, not simplified first, so each child is
    simplified only around the crossing; that changes no value.
    """
    if not 0 <= crossing < len(d.crossings):
        raise ValueError(f"crossing index {crossing} out of range")
    if flavor not in (ORIENTED, UNORIENTED):
        raise ValueError(f"flavor must be {ORIENTED!r} or {UNORIENTED!r}, got {flavor!r}")
    cross, partner, memo = _prepare(d, config)
    with _recursion_room():
        here = _evaluate(dict(cross), dict(partner), flavor, memo, cross)
        switched, smoothings, z_term = _resolve(cross, partner, flavor, crossing, memo)
    loops = len(d.free_loops)
    out = {"flavor": flavor}
    if flavor == ORIENTED:
        out["sign"] = _sign(cross[crossing])
        names = ("value", "switched", "smoothed")
    else:
        names = ("value", "switched", "smoothed_plus", "smoothed_minus")
    for name, part in zip(names, [here, switched] + smoothings):
        out[name] = part.times_circles(loops, flavor).to_ring_elem()
    out["holds"] = (here - switched - z_term).to_ring_elem().is_zero()
    return out
