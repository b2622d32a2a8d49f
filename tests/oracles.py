"""Readings of skeinkit objects that only the tests need.

Each one is an oracle or a convenience for assertions, built on the public
attributes of the objects it reads; no code in `src/` calls them.
"""

from itertools import product
from math import gcd

from skeinkit import eigen
from skeinkit.annulus import AnnulusVecK
from skeinkit.diagram import ROLE_OI, ROLE_OO, ROLE_UI, ROLE_UO, DiagramError, LinkDiagram, Mesh
from skeinkit.eigen import DistinctnessReport, adjoint_meridian_eigenvalue, kauffman_meridian_eigenvalue
from skeinkit.partition import Partition, partitions_up_to
from skeinkit.ring import LaurentPoly, RingElem, spow, vpow, z_poly

# ----------------------------------------------------------------------
# diagram summaries


def self_writhe(d: LinkDiagram, comp: int) -> int:
    total = 0
    for ci in range(len(d.crossings)):
        under, over = d.crossing_components(ci)
        if under == over == comp:
            total += d.signs[ci]
    return total


def linking_number(d: LinkDiagram, a: int, b: int) -> int:
    if a == b:
        raise ValueError("linking number needs two distinct components")
    twice = 0
    for ci in range(len(d.crossings)):
        pair = set(d.crossing_components(ci))
        if pair == {a, b}:
            twice += d.signs[ci]
    if twice % 2:
        raise DiagramError("odd mutual crossing sum; diagram is inconsistent")
    return twice // 2


# ----------------------------------------------------------------------
# canonical form


def component_cycles(d: LinkDiagram) -> dict[int, list[int]]:
    """Ordered edge cycle per crossed component, read from `edge_ends`."""
    cycles: dict[int, list[int]] = {}
    seen = set()
    for start in sorted(d.component_of_edge):
        if start in seen:
            continue
        cycle = []
        edge = start
        while True:
            cycle.append(edge)
            seen.add(edge)
            ci, slot = d.edge_ends[edge][1]
            edge = d.crossings[ci][(slot + 2) % 4]
            if edge == start:
                break
        cycles[d.component_of_edge[start]] = cycle
    return cycles


def canonical_code(d: LinkDiagram) -> tuple:
    """Label-independent code; component order is preserved.

    Minimizes the serialized form over all rotations of each component's
    starting edge.  Free loops carry no labels and pass through as-is.
    """
    cycles = component_cycles(d)
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
            (tuple(relabel[e] for e in quad), d.signs[ci])
            for ci, quad in enumerate(d.crossings)
        ))
        candidate = (d.n_components, d.free_loops, code)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        best = (d.n_components, d.free_loops, ())
    return best


def same_diagram_as(d: LinkDiagram, other: LinkDiagram) -> bool:
    return canonical_code(d) == canonical_code(other)


def mirror(d: LinkDiagram) -> LinkDiagram:
    """The mirror image: every crossing switched, named `<name>.mirror`.

    Each crossing's tuple restarts at its over-in slot, which becomes the
    under-in one, and its sign flips; the mesh round trip numbers edges and
    orders crossings as every surgery does.
    """
    crossings = [quad[3:] + quad[:3] if sign > 0 else quad[1:] + quad[:1]
                 for quad, sign in zip(d.crossings, d.signs)]
    switched = LinkDiagram(d.name, d.n_components, crossings, d.component_of_edge, d.free_loops,
                           signs=[-sign for sign in d.signs])
    return Mesh(switched).to_diagram(f"{d.name}.mirror")


def mesh_faults(mesh: Mesh) -> list[str]:
    """Where a surgery mesh breaks its one record of how crossings connect.

    Every arc runs from an out-role port of a live crossing to an in-role
    port of one, every port of a live crossing holds exactly one arc end,
    and the components with arcs are exactly those of `comp_order` outside
    `loops`.
    """
    faults = []
    held: dict = {}
    for aid, (tail, head, comp) in mesh.arcs.items():
        for end, port, roles in (("tail", tail, (ROLE_UO, ROLE_OO)), ("head", head, (ROLE_UI, ROLE_OI))):
            if port[0] not in mesh.crossings or port[1] not in roles:
                faults.append(f"arc {aid}: {end} {port} is no {end} port of a live crossing")
            elif port in held:
                faults.append(f"port {port} holds arcs {held[port]} and {aid}")
            else:
                held[port] = aid
        if comp not in mesh.comp_order or comp in mesh.loops:
            faults.append(f"arc {aid}: component {comp!r} is not a crossed component")
    for cid in mesh.crossings:
        for role in (ROLE_UI, ROLE_UO, ROLE_OI, ROLE_OO):
            if (cid, role) not in held:
                faults.append(f"crossing {cid}: port {role} is free")
    live = {comp for _, _, comp in mesh.arcs.values()}
    for key in mesh.comp_order:
        if key not in mesh.loops and key not in live:
            faults.append(f"component {key!r} has no arc and is not a loop")
    return faults


# ----------------------------------------------------------------------
# Fox matrix points: Alexander (Trans. AMS 30, 1928) and Fox (Ann. Math. 57, 1953)


def bareiss_det(rows: list[dict]) -> int:
    """Determinant of a square integer matrix given as sparse rows, each a
    dict from column to entry, by fraction-free Bareiss elimination (Math.
    Comp. 22, 1968): every division is exact, and every entry stays a minor
    of the input."""
    rows = [dict(row) for row in rows]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        at = next((i for i in range(k, n) if rows[i].get(k)), None)
        if at is None:
            return 0
        if at != k:
            rows[k], rows[at] = rows[at], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            a = row.get(k, 0)
            merged = {}
            for j in row.keys() | top.keys() if a else row.keys():
                if j > k:
                    x = (pivot * row.get(j, 0) - a * top.get(j, 0)) // prev
                    if x:
                        merged[j] = x
            rows[i] = merged
        prev = pivot
    return sign * prev


def fox_minor(d: LinkDiagram, t: int) -> int:
    """A first minor of the Fox matrix of `d` at t: its last row and column
    deleted.  Up to a unit it is the Alexander polynomial at t.

    Wirtinger arcs are the classes of edges joined through each crossing's
    over slots 1 and 3.  A crossing's row holds 1 - t at its over arc k,
    t at the arc i entering slot 0 and -1 at the arc j leaving slot 2 when
    positive, and t - 1, 1 and -t when negative.  A component passing over
    at every crossing makes one arc more than there are crossings; it lies
    above the rest, so the link is split and the value is 0, as it is for
    any free loop but the unknot's.
    """
    if d.free_loops:
        return int(d.n_components == 1)
    root = {e: e for e in d.component_of_edge}

    def find(e):
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    for quad in d.crossings:
        root[find(quad[1])] = find(quad[3])
    arcs = {}  # numbered as the crossings first meet them, which keeps the rows banded
    for quad in d.crossings:
        for s in (0, 1, 2):
            arcs.setdefault(find(quad[s]), len(arcs))
    if len(arcs) != len(d.crossings):
        return 0
    rows = []
    for quad, sign in zip(d.crossings, d.signs):
        row = {}
        k, i, j = (arcs[find(quad[s])] for s in (1, 0, 2))
        for arc, x in zip((k, i, j), (1 - t, t, -1) if sign > 0 else (t - 1, 1, -t)):
            row[arc] = row.get(arc, 0) + x
        rows.append({col: x for col, x in row.items() if col < len(arcs) - 1 and x})
    return bareiss_det(rows[:-1])


# ----------------------------------------------------------------------
# skein engine states


def port_pairs(cross: dict, partner: list) -> dict:
    """An engine state's arcs with each int port `4 * c + s` read as the pair
    (c, s): every port of a crossing in `cross` to its partner, in port
    order.  Stale entries of excised crossings are left out."""
    return {divmod(p, 4): divmod(partner[p], 4) for c in sorted(cross) for p in range(4 * c, 4 * c + 4)}


def reference_clusters(cross: dict, partner: list) -> list[set]:
    """The connected clusters of an engine state by a plain depth-first
    search from each lowest crossing left, kept as the reference for the
    clusters that `skein_eval._keyed_clusters` finds while keying."""
    remaining = set(cross)
    out = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        group = {seed}
        while stack:
            at = 4 * stack.pop()
            for q in partner[at:at + 4]:
                c2 = q >> 2
                if c2 not in group:
                    group.add(c2)
                    stack.append(c2)
        out.append(group)
        remaining -= group
    return out


def port_list(pairs: dict, n_crossings: int) -> list:
    """The engine's port list for arcs given as (c, s) pairs, the inverse of
    `port_pairs`, for crossing ids below `n_crossings`; ports no pair names
    hold None."""
    partner = [None] * (4 * n_crossings)
    for (c, s), (c2, s2) in pairs.items():
        partner[4 * c + s] = 4 * c2 + s2
    return partner


# ----------------------------------------------------------------------
# annulus vectors and eigenvalues


def coefficient(v: AnnulusVecK, shape: Partition) -> RingElem:
    return v.coeffs.get(shape, RingElem.zero())


def adjoint_matches_doubled_meridian(shape: Partition) -> bool:
    """Mod-2 link between the two eigenvalue families on a diagonal pair.

    The adjoint eigenvalue at (shape, shape), reduced mod 2, must equal the
    image of the unoriented meridian eigenvalue under the exponent-doubling
    map.  This is the eigenvalue-level shadow of the main verification.
    """
    left = adjoint_meridian_eigenvalue(shape, shape).to_mod2()
    right = kauffman_meridian_eigenvalue(shape).to_mod2().doubling_map()
    return left == right


def _content_at(shape: Partition, power: int) -> RingElem:
    """Content polynomial of the shape evaluated at s^power."""
    return RingElem(shape.content_polynomial().scale_exponents(1, power))


def reference_homfly_meridian_eigenvalue(forward: Partition, reverse: Partition) -> RingElem:
    """The oriented meridian eigenvalue composed from normalised `RingElem`
    operations, z * (v^-1 C_f(s^2) - v C_r(s^-2)) + delta, kept as the
    reference for `eigen.homfly_meridian_eigenvalue`."""
    z = RingElem(z_poly())
    inner = RingElem(vpow(-1)) * _content_at(forward, 2) - RingElem(vpow(1)) * _content_at(reverse, -2)
    return z * inner + RingElem(vpow(-1) - vpow(1), z_poly())


def reference_kauffman_meridian_eigenvalue(shape: Partition) -> RingElem:
    """The unoriented meridian eigenvalue composed the same way, with + 1,
    kept as the reference for `eigen.kauffman_meridian_eigenvalue`."""
    return reference_homfly_meridian_eigenvalue(shape, shape) + 1


def reference_eval_polynomial(coefficients, value: RingElem) -> RingElem:
    """Horner's rule in normalised `RingElem` steps, ascending powers, kept
    as the reference for `eigen.eval_polynomial`."""
    total = RingElem.zero()
    for coeff in reversed(coefficients):
        total = total * value + coeff
    return total


def isolating_siblings(target: Partition, anchor: Partition) -> list[Partition]:
    """The anchor's one-cell neighbours other than the target, sorted: the
    shapes at whose eigenvalues `eigen.isolating_polynomial` vanishes."""
    return sorted(p for p in anchor.cells_addable() + anchor.cells_removable() if p != target)


def reference_isolating_coefficients(eigenvalues) -> tuple[RingElem, ...]:
    """The coefficients of the product of (t - e) over `eigenvalues`,
    ascending, composed from normalised `RingElem` operations, kept as the
    reference for the coefficients `eigen.isolating_polynomial` builds."""
    coefficients = [RingElem.one()]
    for eigenvalue in eigenvalues:
        extended = [RingElem.zero()] + coefficients
        for i, old in enumerate(coefficients):
            extended[i] = extended[i] - old * eigenvalue
        coefficients = extended
    return tuple(coefficients)


def annihilated_windows(values, roots) -> list[bool]:
    """Whether prod(x - root) over `roots` annihilates each window of
    len(roots) + 1 consecutive values: for every i, whether
    sum_j a_j * values[i + j] is 0, where a_j are the product's ascending
    coefficients.  All windows are annihilated exactly when, from the first
    value on, the values satisfy the linear recurrence with those
    characteristic roots, as v_r = sum_i b_i * root_i^r does."""
    coefficients = reference_isolating_coefficients(roots)
    if len(values) < len(coefficients):
        raise ValueError(f"{len(roots)} roots need at least {len(coefficients)} values")
    out = []
    for i in range(len(values) - len(roots)):
        total = RingElem.zero()
        for coeff, value in zip(coefficients, values[i:]):
            total = total + coeff * value
        out.append(total.is_zero())
    return out


def reference_distinctness(max_size: int) -> DistinctnessReport:
    """The mod-2 distinctness scan as a double loop that compares every pair
    with `==`, kept as the reference for `eigen.check_eigenvalue_distinctness`.
    It reduces `eigen.kauffman_meridian_eigenvalue`, read at call time, with
    `to_mod2`, where the scan reads `eigen._mod2_numerator`; a test that
    injects values replaces both."""
    shapes = partitions_up_to(max_size)
    values = [(p, eigen.kauffman_meridian_eigenvalue(p).to_mod2()) for p in shapes]
    collisions = []
    comparisons = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            comparisons += 1
            if values[i][1] == values[j][1]:
                collisions.append((values[i][0], values[j][0]))
    return DistinctnessReport(max_size, len(values), comparisons, tuple(collisions))


# ----------------------------------------------------------------------
# fractions


def reference_reduce_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The fraction normaliser without its s^2 - 1 pre-test or fold tests,
    kept as the reference for `ring._reduce_fraction`: every pair it does
    not return at once goes through the full cancellation, then divides by
    the largest s^(2r) - 1 that divides both parts, and starts again."""
    char = num.char
    one = LaurentPoly.one(char)
    if num.is_zero():
        return LaurentPoly.zero(char), one
    while True:
        if char == 0:
            g = gcd(num.content(), den.content())
            if g > 1:
                num = LaurentPoly({k: c // g for k, c in num.terms().items()})
                den = LaurentPoly({k: c // g for k, c in den.terms().items()})
        dmin = den.min_exponents()
        if dmin != (0, 0):
            num = num.shift(-dmin[0], -dmin[1])
            den = den.shift(-dmin[0], -dmin[1])
        den_terms = den.terms()
        if char == 0 and den_terms[max(den_terms)] < 0:
            num, den = -num, -den
        if den.is_one():
            return num, den
        quotient = num.try_div(den)
        if quotient is not None:
            return quotient, one
        span = den.max_exponents()[1] - den.min_exponents()[1]
        for r in range(span // 2, 0, -1):
            candidate = spow(2 * r, char) - one
            num_q, den_q = num.try_div(candidate), den.try_div(candidate)
            if num_q is not None and den_q is not None:
                num, den = num_q, den_q
                break
        else:
            return num, den
