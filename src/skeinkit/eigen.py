"""Closed-form eigenvalue data for meridian maps on annulus skeins.

A circle in the annulus that encircles a decorated core acts diagonally on
the standard skein bases; the eigenvalues are explicit Laurent expressions
in the content polynomial of the indexing partition(s).  This module holds
those closed forms, the coefficients of the isolating polynomials built
from them, the Horner evaluation of such a polynomial, and the mod-2
distinctness scan that the satellite verification relies on.

Every eigenvalue is a Laurent polynomial over z = s - s^-1, so the
isolating coefficients and their values at eigenvalues lie over powers of
z.  The arithmetic here runs on numerators over such a known denominator
and normalises each value once: an eigenvalue N/z, a coefficient over
z^(k - j), a polynomial's value over z^k.  A fraction over a power of z
has one reduced representative, so this gives the same representatives
as normalising after every operation.

Values live in characteristic 0, except that the distinctness scan
reduces each eigenvalue's numerator mod 2 before its one normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .partition import Partition, partitions_up_to
from .ring import LaurentPoly, RingElem, vpow, z_poly


_Z = z_poly()
_Z2 = _Z * _Z
_Z_MOD2 = z_poly(2)
_V_GAP = vpow(-1) - vpow(1)  # z times the oriented unknot value
_V_GAP_Z = _V_GAP + _Z  # z times the unoriented unknot value


def delta_homfly() -> RingElem:
    """Framed value of the 0-framed unknot in the oriented skein."""
    return RingElem(_V_GAP, _Z)


def delta_kauffman() -> RingElem:
    """Framed value of the 0-framed unknot in the unoriented skein."""
    return delta_homfly() + 1


def _meridian_numerator(forward: Partition, reverse: Partition, unknot: LaurentPoly) -> LaurentPoly:
    """N = z^2 * (v^-1 C_f(s^2) - v C_r(s^-2)) + unknot, the eigenvalue N/z times z.

    C_f and C_r are the content polynomials of `forward` and `reverse`, and
    `unknot` is z times the unknot value of the skein.
    """
    inner = forward.content_polynomial().scale_exponents(1, 2).shift(-1, 0) - (
        reverse.content_polynomial().scale_exponents(1, -2).shift(1, 0)
    )
    return _Z2 * inner + unknot


def _meridian_fraction(forward: Partition, reverse: Partition, unknot: LaurentPoly) -> RingElem:
    """The eigenvalue N/z of `_meridian_numerator`, with one normalisation."""
    return RingElem(_meridian_numerator(forward, reverse, unknot), _Z)


def kauffman_meridian_eigenvalue(shape: Partition) -> RingElem:
    """Eigenvalue of an unoriented meridian circle on the basis element of shape.

    Evaluates to the unoriented unknot value on the empty shape.
    """
    return _meridian_fraction(shape, shape, _V_GAP_Z)


def homfly_meridian_eigenvalue(forward: Partition, reverse: Partition) -> RingElem:
    """Eigenvalue of an oriented meridian on the two-sided oriented basis.

    The basis element carries `forward` strands parallel to the core and
    `reverse` strands against it.  Evaluates to the oriented unknot value
    on the pair of empty shapes.
    """
    return _meridian_fraction(forward, reverse, _V_GAP)


def adjoint_meridian_eigenvalue(forward: Partition, reverse: Partition) -> RingElem:
    """Eigenvalue of a meridian on the antiparallel-pair (adjoint style) basis."""
    return (
        homfly_meridian_eigenvalue(forward, reverse)
        * homfly_meridian_eigenvalue(reverse, forward)
        - 1
    )


# ----------------------------------------------------------------------
# isolating polynomials


def eval_polynomial(coefficients, value: RingElem) -> RingElem:
    """sum(coefficients[j] * value**j) for `RingElem` coefficients in
    ascending powers, with one normalisation.

    Horner's rule runs on numerators over a running common denominator L.
    With value = p/q, a step takes acc/L to (acc * p)/(L * q) and adds the
    next coefficient a/d as (a * (L/d))/L when d divides L; otherwise L
    takes the factor d as well.  So the final L is a multiple of every
    coefficient's denominator times q to that coefficient's power, and the
    value is normalised once, as acc/L.  An isolating polynomial of degree
    k at an eigenvalue has coefficient j over z^(k-j) and q = z, so each d
    is L itself and L ends as z^k.
    """
    if not coefficients:
        return RingElem.zero(value.char)
    top = coefficients[-1]
    acc, den = top.num, top.den
    p, q = value.num, value.den
    for coeff in reversed(coefficients[:-1]):
        acc = acc * p
        den = den * q
        if coeff.den == den:
            acc = acc + coeff.num
            continue
        lift = den.try_div(coeff.den)
        if lift is None:  # L takes the factor d
            acc = acc * coeff.den
            lift = den
            den = den * coeff.den
        acc = acc + coeff.num * lift
    return RingElem(acc, den)


def isolating_polynomial(target: Partition, anchor: Partition) -> tuple[RingElem, ...]:
    """Ascending coefficients of the polynomial that isolates the target.

    The polynomial is the product of (t - eigenvalue) over the unoriented
    meridian eigenvalues of every shape adjacent to the anchor (one cell
    added or removed) except the target itself.  Applying it to the
    meridian map therefore kills every sibling component of the branched
    decoration and leaves a known multiple of the target component: the
    polynomial's value at the target's own eigenvalue, nonzero by
    distinctness.  The anchor must be reachable from the target by
    deleting one cell.
    """
    if anchor not in target.cells_removable():
        raise ValueError(f"anchor {anchor} is not one cell below target {target}")
    siblings = sorted(p for p in anchor.cells_addable() + anchor.cells_removable() if p != target)
    # after i factors (t - N/z), coefficient j is numerators[j] / z^(i - j)
    numerators = [LaurentPoly.one()]
    for p in siblings:
        root = _meridian_numerator(p, p, _V_GAP_Z)
        numerators = (
            [-(numerators[0] * root)]
            + [low - high * root for low, high in zip(numerators, numerators[1:])]
            + [numerators[-1]]
        )
    z_powers = [LaurentPoly.one()]
    for _ in siblings:
        z_powers.append(z_powers[-1] * _Z)
    k = len(siblings)
    return tuple(RingElem(n, z_powers[k - j]) for j, n in enumerate(numerators))


# ----------------------------------------------------------------------
# distinctness scan


@dataclass(frozen=True)
class DistinctnessReport:
    """Outcome of the mod-2 distinctness scan over all shapes up to max_size.

    `comparisons` is the number of shape pairs decided, n(n-1)/2 for n
    shapes, whichever way each pair was decided.  `collisions` lists every
    pair (p, q) of equal values, p before q in canonical shape order, sorted
    by the positions of p and then q.
    """

    max_size: int
    shape_count: int
    comparisons: int
    collisions: tuple[tuple[Partition, Partition], ...] = field(default=())

    @property
    def all_distinct(self) -> bool:
        return not self.collisions


def _mod2_meridian_eigenvalue(shape: Partition) -> RingElem:
    """The unoriented meridian eigenvalue mod 2: its numerator over z, reduced
    mod 2 and normalised once over z mod 2."""
    return RingElem(_meridian_numerator(shape, shape, _V_GAP_Z).reduce_mod2(), _Z_MOD2)


def check_eigenvalue_distinctness(max_size: int = 8) -> DistinctnessReport:
    """Find every pair of shapes whose unoriented meridian eigenvalues agree mod 2.

    Values are compared after mod-2 reduction: distinctness there is the
    load-bearing property (the verifier inverts differences of these
    values in the mod-2 ring) and it implies distinctness over the
    integers.  Each value is its numerator over z reduced mod 2, normalised
    once in characteristic 2 (`_mod2_meridian_eigenvalue`).  The scan
    decides every pair exactly without comparing every pair.  Values are
    grouped by their denominator representative; in a group, two values
    are equal exactly when their numerators are, since the ring is a
    domain, so one dict keyed by numerator finds the group's collisions.
    Values in different groups are compared with `==`.  The eigenvalues to
    size 12 all share one denominator, so the scan is linear there.
    """
    shapes = partitions_up_to(max_size)
    values = [_mod2_meridian_eigenvalue(p) for p in shapes]
    groups: dict[LaurentPoly, dict[LaurentPoly, list[int]]] = {}
    for i, value in enumerate(values):
        groups.setdefault(value.den, {}).setdefault(value.num, []).append(i)
    pairs = []
    members = []  # the shape indices of each group
    for by_num in groups.values():
        for same in by_num.values():
            pairs += combinations(same, 2)
        members.append([i for same in by_num.values() for i in same])
    for g, first in enumerate(members):
        for second in members[g + 1:]:
            pairs += [(min(i, j), max(i, j)) for i in first for j in second if values[i] == values[j]]
    n = len(shapes)
    collisions = tuple((shapes[i], shapes[j]) for i, j in sorted(pairs))
    return DistinctnessReport(max_size, n, n * (n - 1) // 2, collisions)


def eigenvalue_table(max_size: int) -> list[tuple[Partition, RingElem]]:
    """(shape, unoriented meridian eigenvalue) rows in canonical shape order."""
    return [(p, kauffman_meridian_eigenvalue(p)) for p in partitions_up_to(max_size)]
