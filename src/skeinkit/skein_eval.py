"""Exact framed link polynomial evaluators.

Two flavors share one engine:

- the oriented evaluator resolves a crossing against its switched and
  orientation-respecting smoothed forms (difference = z times the smoothing),
- the unoriented evaluator resolves against the switched form and the two
  planar smoothings (difference = z times the difference of smoothings).

Both are regular-isotopy (framed) invariants: a positive kink multiplies
the value by v^-1, a negative kink by v, the crossingless circle counts
delta, and the empty diagram counts 1.

Both relations have coefficients in z = s - s^-1 alone: a switch differs
by z times smoothings, and a circle is (v^-1 - v)/z oriented or
(v^-1 - v + z)/z unoriented.  So the engine holds every value as a
`LaurentPoly` whose second exponent counts powers of z, not of s: a
product by z is an exponent shift, a sum is a plain sum, and a negative z
exponent stands for a power of z in the denominator.  Each evaluation
converts its value to a `RingElem` in v and s once, at the end
(`_to_ring_elem`).

The engine holds each port, slot s of crossing c, as one int `4 * c + s`:
its slot is `p & 3`, its crossing `p >> 2`, and the port across the
crossing `p ^ 2`.  Ints order as the (crossing, slot) pairs they pack.  A
state is a dict `cross` of its crossings and a list `partner`, indexed by
port, of length 4 x (input crossings): a perfect matching of the live
crossings' ports describing the arcs.  Excised crossings leave stale
entries that nothing reads, since only ports of crossings in `cross` are
read; children copy the list, and clusters share their parent's.  Slot
numbering is inherited from the input diagram and never relabeled.

Each crossing carries one datum `(u, o)`, its under-in and over-in slots,
in both flavors: the over strand occupies the slots of `o`'s parity, `u`
and `o` always have opposite parity, and a switch is `(u, o) -> (o, u)`.
The unoriented flavor reads only that parity; the oriented one also reads
the sign, positive when `o = u + 3 (mod 4)`.  Before branching, states are
simplified (kink removal, parallel bigon cancellation, free circle
harvesting), split into connected clusters, and each cluster is looked up
in a cache keyed by a relabeling invariant serialization.  Diagrams whose
every crossing is first reached on its over strand evaluate in closed
form, so the engine only branches on the first crossing first reached
on its under strand, in one loop over a task stack (`_evaluate`): it never
recurses, so the interpreter's recursion limit bounds no tree.

Every state the engine keys or branches on has been through `_simplify`,
which leaves no curl (an arc joining adjacent slots of one crossing) and
no bigon (two parallel arcs between two crossings that keep their
levels).  In a planar diagram an arc from a crossing back to itself is a
curl, so none is left either.  Two steps rely on this: `_keyed_clusters`
writes no self-loop flag into a signature, and `_find_clasp` takes every
parallel pair for a clasp.  `TestSimplifiedStates` in
tests/test_skein_eval.py checks it on the states they receive.

One pass finds a state's clusters and keys them (`_keyed_clusters`): the
walk that writes a cluster's key also reaches exactly its crossings.  A
key is one `bytes`: a flavor byte, then one unsigned 16-bit entry
`id * 4 + offset` per port, row by row, as read by a walk from each base
of lowest local signature; the smallest walk wins.  The 16-bit entries
limit a diagram to 16,383 crossings, whatever the budget.  Cached values
are immutable, and equal ones share one object.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Optional

from .diagram import LinkDiagram, Mesh
from .ring import LaurentPoly, RingElem, vpow, z_poly


class SkeinBudgetError(RuntimeError):
    """Raised when a diagram exceeds the configured crossing budget or the
    engine's crossing limit."""


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings.

    `max_crossings` bounds the input diagram's crossings.  With `memo`
    False no cluster value is looked up in or stored to the cache; states
    are still split into clusters by the walk that keys them, and their
    keys go unused.
    """

    max_crossings: int = 24
    memo: bool = True


DEFAULT_CONFIG = EvalConfig()

ORIENTED = "oriented"
UNORIENTED = "unoriented"

# The second exponent of an engine value counts powers of z = s - s^-1.
_DELTA = LaurentPoly({(-1, -1): 1, (1, -1): -1})  # oriented circle: (v^-1 - v)/z
_DELTA_K = _DELTA + LaurentPoly.one()  # unoriented circle: (v^-1 - v + z)/z
_Z = z_poly()
# Power tables [x^0, x^1, ...], grown on demand and kept across runs: a
# table holds powers up to the largest exponent any evaluated state needed.
_Z_POWERS = [LaurentPoly.one(), _Z]  # z^k written in s
_CIRCLE_POWERS = {ORIENTED: [LaurentPoly.one(), _DELTA], UNORIENTED: [LaurentPoly.one(), _DELTA_K]}


def _power(powers: list, k: int) -> LaurentPoly:
    """powers[k], extending the power table `powers` up to index k first."""
    while len(powers) <= k:
        powers.append(powers[-1] * powers[1])
    return powers[k]


def _times_circles(value: LaurentPoly, k: int, flavor: str) -> LaurentPoly:
    if k == 0:
        return value
    circles = _power(_CIRCLE_POWERS[flavor], k)
    if len(value) == 1:
        (exponents, coeff), = value.terms().items()
        if coeff == 1:  # a monomial, such as a crossingless state's v-power
            return circles.shift(*exponents)
    return value * circles


def _to_ring_elem(value: LaurentPoly) -> RingElem:
    """An engine value, a polynomial in v and z, as a fraction in v and s.

    The denominator is z^k for k = -(lowest z exponent) when that is
    positive, else 1, and each term c*v^a*z^j adds c*v^a*z^(j + k), written
    in s, to the numerator.  The denominator is then the value's
    z-valuation, so z does not divide the numerator: neither does s - 1 or
    s + 1, and the fraction needs no cancellation but its normalisation.
    """
    terms = value.terms()
    k = max([0] + [-j for _, j in terms])
    num: dict = {}
    for (a, j), c in terms.items():
        for (_, b), d in _power(_Z_POWERS, j + k).terms().items():
            num[a, b] = num.get((a, b), 0) + c * d
    return RingElem(LaurentPoly(num), _power(_Z_POWERS, k))


# ----------------------------------------------------------------------
# state construction

def _build_state(d: LinkDiagram):
    # a positive crossing's over strand enters at slot 3, a negative one's at 1
    cross = {ci: (0, 3 if sign > 0 else 1) for ci, sign in enumerate(d.signs)}
    partner = [0] * (4 * len(d.crossings))
    for (tc, ts), (hc, hs) in d.edge_ends.values():
        partner[4 * tc + ts] = 4 * hc + hs
        partner[4 * hc + hs] = 4 * tc + ts
    return cross, partner


def _sign(datum) -> int:
    u, o = datum
    return 1 if (o - u) % 4 == 3 else -1


# ----------------------------------------------------------------------
# structural surgery on states


def _excise(cross: dict, partner: list, dead: set, through: dict) -> tuple[int, set]:
    """Delete the crossings in `dead`, rerouting strands along `through`.

    `through` pairs the ports where a strand runs through the deleted
    region; ports of dead crossings missing from `through` must sit on arcs
    internal to the region.  Reads only the dead crossings' ports and their
    partners.  The dead crossings' entries of `partner` are left stale:
    nothing reads a port of a crossing that is not in `cross`.  Returns
    (circles freed, surviving crossings rerouted).
    """
    circles = 0
    consumed = set()
    touched = set()
    for c in dead:
        for p in range(4 * c, 4 * c + 4):
            a = partner[p]
            if a >> 2 in dead:
                continue
            touched.add(a >> 2)
            if partner[a] >> 2 not in dead:
                continue  # already rerouted from the strand's other end
            x = p
            while True:
                y = through[x]
                consumed.add(x)
                consumed.add(y)
                z = partner[y]
                if z >> 2 in dead:
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
        del cross[c]
    return circles, touched


def _smooth_through(c, datum, positive: bool) -> dict:
    """Planar smoothing of c; the plus one joins each under slot to the next.

    The orientation-respecting smoothing is the plus smoothing of a
    positive crossing and the minus smoothing of a negative one.
    """
    k = datum[0] % 2 + (0 if positive else 1)
    a, b, x, y = (4 * c + (k + r) % 4 for r in range(4))
    return {a: b, b: a, x: y, y: x}


# ----------------------------------------------------------------------
# simplification


def _local_move(cross: dict, partner: list, c):
    """Return (v shift, dead crossings, through map) for a curl at c, else
    for the first cancelling bigon at c, else None.

    A curl is an arc joining adjacent slots i, i+1; it is positive (shift
    -1) when i is an under slot.  In an oriented state such an arc can only
    run from an out slot to an in slot, and the shift is minus the
    crossing sign.  A bigon is a pair of parallel arcs, from slots i, i+1
    of c to slots j, j-1 of another crossing c2, that keep their levels:
    both over at one end and under at the other.  With no curl at c, no
    parallel pair runs back to c.
    """
    base = 4 * c
    ends = partner[base:base + 4]
    o = cross[c][1]
    for i in range(4):
        if ends[i] == base + (i + 1) % 4:
            # an under slot has the parity opposite the over-in slot's
            positive = (i ^ o) & 1
            x, y = base + (i + 2) % 4, base + (i + 3) % 4
            return (-1 if positive else 1), {c}, {x: y, y: x}
    for i in range(4):
        q, q1 = ends[i], ends[(i + 1) % 4]
        # q - 1 if q & 3 else q + 3 is slot j - 1 of c2; a slot is over
        # when it has the over-in slot's parity
        if q1 == (q - 1 if q & 3 else q + 3) and (i ^ o ^ q ^ cross[q >> 2][1]) & 1 == 0:
            p, p1 = base + i, base + (i + 1) % 4
            # the strands run on through the slots opposite the bigon's corners
            return 0, {c, q >> 2}, {p ^ 2: q ^ 2, q ^ 2: p ^ 2, p1 ^ 2: q1 ^ 2, q1 ^ 2: p1 ^ 2}
    return None


def _simplify(cross: dict, partner: list, seeds) -> tuple[int, int]:
    """Harvest kinks and parallel bigons in place; returns (v shift, circles).

    Moves delete crossings from `cross` and reroute the int ports of
    `partner` around them; a deleted crossing's four entries go stale.

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
        pending.discard(c)
        if c not in cross:
            continue
        move = _local_move(cross, partner, c)
        if move is None:
            continue
        shift, dead, through = move
        vshift += shift
        freed, touched = _excise(cross, partner, dead, through)
        circles += freed
        for t in touched:
            if t not in pending:
                pending.add(t)
                heapq.heappush(heap, t)
    return vshift, circles


# ----------------------------------------------------------------------
# traversal: descending detection and branch point selection


def _find_clasp(cross: dict, partner: list):
    """The lowest-label crossing with two parallel arcs to one other
    crossing, or None.

    A simplified state has no bigon, so every parallel pair it holds swaps
    its levels: it is a clasp.  Switching either crossing of a clasp turns
    it into a bigon that cancels, so branching there shrinks every child
    diagram.
    """
    for c in sorted(cross):
        base = 4 * c
        for i in range(4):
            q = partner[base + i]
            # q - 1 if q & 3 else q + 3: the slot before q's
            if partner[base + (i + 1) % 4] == (q - 1 if q & 3 else q + 3):
                return c
    return None


def _scan(cross: dict, partner: list):
    """Walk every circle; report (first bad crossing, circle count, writhe sum).

    A crossing is good when its first visit runs along the over strand.
    The walk order is deterministic: circles start at the smallest
    unvisited in-port 4c + u or 4c + o, and a walk marks both directions
    of each port it passes visited: p and p ^ 2, the port across the
    crossing.  An oriented state's walks only ever enter by in-ports, so
    there the marking changes nothing; an unoriented state's circles may
    run against the strands' directions.
    """
    entry_ports = sorted(4 * c + s for c, (u, o) in cross.items() for s in (u, o))
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
            c = p >> 2
            visited.add(p)
            visited.add(p ^ 2)
            # a port is over when its slot has the over-in slot's parity
            over = not (p ^ cross[c][1]) & 1
            if c not in seen:
                if not over:
                    return c, -1, -1
                seen.add(c)
            if c in entries:
                x, y = (p, entries[c]) if over else (entries[c], p)
                writhe_total += 1 if (x - y) % 4 == 3 else -1
            else:
                entries[c] = p
            p = partner[p ^ 2]
    return None, n_circles, writhe_total


# ----------------------------------------------------------------------
# the engine: memo keys and the evaluation loop


# A memo key packs each entry `id * 4 + offset` into 16 bits, which holds
# every entry of a diagram of at most this many crossings; the engine only
# ever removes crossings.
_KEY_CROSSINGS = 16383
_FLAVOR_BYTE = {ORIENTED: b"o", UNORIENTED: b"u"}

_MEMO: dict = {}
_VALUES: dict = {}  # value -> the one memo object of that value


def clear_caches():
    _MEMO.clear()
    _VALUES.clear()


# A seed, base `base` of crossing c, packs as `c << 3 | base` below its
# signature: c < 2**14 and base < 6, so ints order as (signature, c, base).
_SEED_BITS = 17
_SEED_MASK = (1 << _SEED_BITS) - 1
_ROWS = tuple(tuple((b + r) & 3 for r in range(4)) for b in range(4))  # slots from base b


def _keyed_clusters(cross: dict, partner: list, flavor: str) -> list[tuple[dict, bytes]]:
    """The connected clusters of a state, each with its relabeling-invariant
    memo key packed into bytes.

    A state of one cluster is returned as itself, the others as dicts of
    their own crossings; all of them keep reading the state's `partner`.
    The key reads only the ports of crossings in `cross`, and numbers
    crossings in lists indexed by crossing id.  One walk serves both
    flavors, which set only m: 4 oriented, 2 unoriented (`mask` is m - 1).
    A port's offset is its slot minus its crossing's under-in slot u, mod
    m, and a crossing's bases are range(u, u + 4, m): the under-in slot
    oriented, either under slot unoriented.  A breadth-first walk from a
    seed (crossing, base) numbers the crossings it reaches and writes four
    entries per crossing: for each slot from the base on, the entry
    `id * 4 + offset` of the partner's number and slot offset from the
    partner's base.  A newly reached crossing takes the base s2 - offset
    at or before the reaching slot s2.  Offsets are below 4, so entries
    order as the (id, offset) pairs they pack, and the flat entry list
    orders as its rows of four do.

    A base's signature is its row of neighbour offsets: for each slot from
    the base on, the partner's slot offset from its crossing's under-in
    slot, mod m, two bits an entry, packed into one int that orders as the
    row does.  One pass computes every base's signature; an unoriented
    crossing's second base reads its first base's row turned by two
    entries.  A keyed state is simplified, so no arc runs from a crossing
    to itself, and a row needs no flag to mark one.  A cluster's seeds are
    its bases of lowest signature.  The walk from the lowest seed left
    reaches exactly that seed's cluster: when it reaches every crossing the
    state is one cluster, else the crossings it reached are one, and the
    rest are split the same way.  One loop walks every seed of that cluster
    in order: the first walk has nothing to compare with and becomes the
    best, and each later one is compared entry by entry with the best walk
    so far, stops at its first entry above the best's, and replaces the
    best when it ends below it.  The seed set names no label, so it decides
    which walk wins but not which states share a key, and a cluster's key
    is the one it has as a state on its own.  A walk that ties the best to
    its end maps the best walk's i-th (crossing, base) to its own i-th one,
    an automorphism of the state; that loop is the one place where orbit
    pruning (McKay, "Practical graph isomorphism", 1981) would record it
    and skip the seeds of walked orbits.

    The key is a flavor byte followed by the entries, one unsigned
    16-bit entry each; `_prepare` refuses diagrams of more than
    `_KEY_CROSSINGS` crossings, so no entry overflows.

    No row holds a crossing sign.  The port entries imply it: an arc joins
    an out-port to an in-port and a strand leaves by the slot opposite the
    one it enters, so in/out spreads from the under ports along every
    strand that passes under somewhere.  Only a component that passes over
    at every crossing escapes it; it lies above the rest, a split unknot of
    framing 0, so its orientation does not change the value either.
    `TestCanonicalKey` in tests/test_skein_eval.py checks both claims on
    the states the engine keys.
    """
    mask = 3 if flavor == ORIENTED else 1  # offsets are taken mod mask + 1
    n = len(partner) >> 2
    under = [0] * n
    for c, (u, _) in cross.items():
        under[c] = u
    packed = []  # every base as its signature, crossing and base, see _SEED_BITS
    for c, (u, _) in cross.items():
        at = 4 * c
        sig = 0
        for slot in _ROWS[u]:
            q = partner[at + slot]
            sig = sig << 2 | ((q - under[q >> 2]) & mask)
        packed.append(sig << _SEED_BITS | c << 3 | u)
        if mask == 1:  # the row read two slots on, from base u + 2
            packed.append(((sig & 15) << 4 | sig >> 4) << _SEED_BITS | c << 3 | (u + 2))
    rots = [0] * n  # each walk sets a crossing's base before it reads it
    tag = _FLAVOR_BYTE[flavor]
    out = []
    while True:
        top = (min(packed) >> _SEED_BITS) + 1 << _SEED_BITS  # above every seed
        seeds = [x & _SEED_MASK for x in packed if x < top]
        seeds.sort()
        best = None
        for s in seeds:
            seed = s >> 3
            if best is not None and reached[seed] < 0:
                continue  # another cluster's seed
            ids = [-1] * n
            ids[seed] = 0
            rots[seed] = s & 7
            walk = [seed]
            entries = []
            k = 0  # entries equal to best's so far
            tied = best is not None  # the first walk has none to compare with
            for c in walk:  # the walk appends to its queue as it goes
                at = 4 * c
                for slot in _ROWS[rots[c] & 3]:
                    q = partner[at + slot]
                    c2 = q >> 2
                    i2 = ids[c2]
                    if i2 < 0:
                        i2 = ids[c2] = len(walk)
                        rots[c2] = q - ((q - under[c2]) & mask)
                        walk.append(c2)
                    entry = i2 * 4 + ((q - rots[c2]) & 3)
                    if tied:
                        ref = best[k]
                        if entry > ref:
                            break
                        k += 1
                        tied = entry == ref
                    entries.append(entry)
                else:
                    continue
                break  # the walk passed the best so far
            else:
                if best is None:  # the first walk's numbering is the cluster
                    reached, queue = ids, walk
                if not tied:
                    best = entries
        key = tag + array("H", best).tobytes()
        if len(queue) == len(cross):
            return [(cross, key)]
        out.append(({c: cross[c] for c in queue}, key))
        packed = [x for x in packed if reached[(x & _SEED_MASK) >> 3] < 0]
        if not packed:
            return out


_STATE, _CLUSTER, _PRODUCT, _RESOLVED = range(4)


def _evaluate(cross: dict, partner: list, flavor: str, memo: bool, seeds) -> LaurentPoly:
    """Value of a state after simplifying it from `seeds` (see `_simplify`).

    Tasks run depth first from a stack, and values wait on a second stack
    for the task that combines them: a state's clusters (`_keyed_clusters`,
    never writing its `partner` list) or a crossing's children (`_resolve`).
    """
    tasks = [(_STATE, cross, partner, seeds, 0)]
    values = []
    while tasks:
        task = tasks.pop()
        kind = task[0]
        if kind == _PRODUCT:
            _, n, circles, vshift = task
            parts = values[-n:]
            del values[-n:]
            value = parts[0]
            for part_value in parts[1:]:
                value = value * part_value
            value = _times_circles(value, circles, flavor)
            values.append(value.shift(vshift, 0) if vshift else value)
            continue
        if kind == _RESOLVED:
            _, key, sign, n = task
            result = _skein_sum(values[-n:], sign)
            del values[-n:]
        else:
            if kind == _STATE:
                _, cross, partner, seeds, circles = task
                vshift, freed = _simplify(cross, partner, seeds)
                circles += freed
                if not cross:
                    values.append(_times_circles(vpow(vshift), circles, flavor))
                    continue
                parts = _keyed_clusters(cross, partner, flavor)
                if len(parts) > 1 or circles or vshift:  # else the value is the cluster's
                    tasks.append((_PRODUCT, len(parts), circles, vshift))
                    tasks.extend((_CLUSTER, p, partner, k) for p, k in reversed(parts[1:]))
                cross, key = parts[0]  # its task would run next, so it runs now
            else:
                _, cross, partner, key = task
            hit = _MEMO.get(key) if memo else None
            if hit is not None:
                values.append(hit)
                continue
            first_bad, n_circles, writhe = _scan(cross, partner)
            if first_bad is not None:
                clasp = _find_clasp(cross, partner)
                c = first_bad if clasp is None else clasp
                sign = _sign(cross[c])
                children = _resolve(cross, partner, c, sign, flavor)
                tasks.append((_RESOLVED, key, sign, len(children)))
                tasks += children[::-1]
                continue
            result = _times_circles(vpow(-writhe), n_circles, flavor)
        if memo:
            # values are immutable, so entries of equal value share one object
            result = _VALUES.setdefault(result, result)
            _MEMO[key] = result
        values.append(result)
    return values[0]


def _resolve(cross: dict, partner: list, c, sign: int, flavor: str) -> list:
    """The children of the flavor's skein relation at crossing c, of sign
    `sign`, as state tasks (`_STATE`, cross, partner, seeds, circles freed),
    leaving the state intact: switched, then the oriented or the plus and
    minus smoothings."""
    children = [(_STATE, {**cross, c: cross[c][::-1]}, list(partner), (c,), 0)]
    for positive in ((sign > 0,) if flavor == ORIENTED else (True, False)):
        sm_cross = dict(cross)
        sm_partner = list(partner)
        freed, touched = _excise(sm_cross, sm_partner, {c}, _smooth_through(c, cross[c], positive))
        children.append((_STATE, sm_cross, sm_partner, touched, freed))
    return children


def _skein_sum(values: list, sign: int) -> LaurentPoly:
    """The switched value plus the z-term, from the values of `_resolve`'s
    children: +-z*smoothing by the crossing sign, or z*(plus - minus)."""
    switched, *smoothed = values
    if len(smoothed) == 2:
        return switched + (smoothed[0] - smoothed[1]).shift(0, 1)
    z_term = smoothed[0].shift(0, 1)
    return switched + z_term if sign > 0 else switched - z_term


# ----------------------------------------------------------------------
# public entry points


def _check_size(name: str, crossings: int, cfg: EvalConfig):
    """Refuse a diagram of more crossings than the engine's limit or the budget."""
    if crossings > _KEY_CROSSINGS:
        raise SkeinBudgetError(
            f"{name}: {crossings} crossings exceed the engine's limit of {_KEY_CROSSINGS}"
        )
    if crossings > cfg.max_crossings:
        raise SkeinBudgetError(
            f"{name}: {crossings} crossings exceed the budget of {cfg.max_crossings}"
        )


def _prepare(d: LinkDiagram, config: Optional[EvalConfig]):
    """Entry checks shared by every evaluation; returns (cross, partner, memo)."""
    cfg = config or DEFAULT_CONFIG
    _check_size(d.name, len(d.crossings), cfg)
    cross, partner = _build_state(d)
    return cross, partner, cfg.memo


def _run(d: LinkDiagram, flavor: str, config: Optional[EvalConfig]) -> LaurentPoly:
    cross, partner, memo = _prepare(d, config)
    value = _evaluate(cross, partner, flavor, memo, cross)
    return _times_circles(value, len(d.free_loops), flavor)


def homfly(d: LinkDiagram, config: Optional[EvalConfig] = None) -> RingElem:
    """Framed oriented polynomial; empty diagram 1, crossingless circle delta."""
    return _to_ring_elem(_run(d, ORIENTED, config))


def kauffman(d: LinkDiagram, config: Optional[EvalConfig] = None) -> RingElem:
    """Framed unoriented polynomial; same normalization, orientation ignored."""
    return _to_ring_elem(_run(d, UNORIENTED, config))


def _adjoint_terms(d: LinkDiagram, config: Optional[EvalConfig]) -> list[tuple[int, int, str]]:
    """Each adjoint term of `d` as (kept-components mask, kept count, name),
    sized before any is built: a crossing whose strands are both kept becomes
    a 2 x 2 grid.  Names follow the surgery chain, e.g. `hopf_plus.drop(1).cable(0,2).rev(1)`."""
    n = d.n_components
    strands = [d.crossing_components(ci) for ci in range(len(d.crossings))]
    terms = []
    for mask in range(1 << n):
        kept = bin(mask).count("1")
        name = d.name + "".join(f".drop({i})" for i in reversed(range(n)) if not mask & (1 << i))
        name += "".join(f".cable({pos},2).rev({pos + 1})" for pos in reversed(range(kept)))
        both = sum(1 for u, o in strands if mask & (1 << u) and mask & (1 << o))
        _check_size(name, 4 * both, config or DEFAULT_CONFIG)
        terms.append((mask, kept, name))
    return terms


def adjoint_homfly(d: LinkDiagram, config: Optional[EvalConfig] = None) -> RingElem:
    """Alternating sum over components of antiparallel double satellites.

    Every component is either deleted or replaced by a reversed parallel
    pair (2 copies, second reversed), with sign (-1)^(deleted count).
    The crossing budget applies to each term separately, and every term
    is sized before any is built (`_adjoint_terms`).  Each term is built
    in one mesh pass.  The terms are summed exactly as polynomials in v
    and z, and the total is converted once.
    """
    n = d.n_components
    total = LaurentPoly.zero()
    for mask, kept, name in _adjoint_terms(d, config):
        mesh = Mesh.from_diagram(d)
        for i in reversed(range(n)):
            if not mask & (1 << i):
                mesh.delete_component(i)
        for pos in reversed(range(kept)):
            mesh.cable(pos, 2)
            mesh.reverse_component(pos + 1)
        term = _run(mesh.to_diagram(name), ORIENTED, config)
        total = total - term if (n - kept) % 2 else total + term
    return _to_ring_elem(total)


def skein_relation_probe(
    d: LinkDiagram,
    crossing: int,
    flavor: str = ORIENTED,
    config: Optional[EvalConfig] = None,
) -> dict:
    """Resolve one crossing both ways and check the defining relation.

    The state is resolved as given, not simplified first, and each child is
    then simplified from all its crossings, as a whole diagram is: the
    engine branches only on simplified states.  Neither changes a value.
    """
    if not 0 <= crossing < len(d.crossings):
        raise ValueError(f"crossing index {crossing} out of range")
    if flavor not in (ORIENTED, UNORIENTED):
        raise ValueError(f"flavor must be {ORIENTED!r} or {UNORIENTED!r}, got {flavor!r}")
    cross, partner, memo = _prepare(d, config)
    sign = _sign(cross[crossing])
    states = [(_STATE, dict(cross), list(partner), cross, 0)]
    states += _resolve(cross, partner, crossing, sign, flavor)
    loops = len(d.free_loops)
    values = [
        _times_circles(_evaluate(c_cross, c_partner, flavor, memo, c_cross), freed + loops, flavor)
        for _, c_cross, c_partner, _, freed in states
    ]
    out = {"flavor": flavor}
    if flavor == ORIENTED:
        out["sign"] = sign
        names = ("value", "switched", "smoothed")
    else:
        names = ("value", "switched", "smoothed_plus", "smoothed_minus")
    out.update((name, _to_ring_elem(value)) for name, value in zip(names, values, strict=True))
    out["holds"] = (values[0] - _skein_sum(values[1:], sign)).is_zero()
    return out
