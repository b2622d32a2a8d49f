"""Closed-form eigenvalue data for meridian maps on annulus skeins.

A circle in the annulus that encircles a decorated core acts diagonally on
the standard skein bases; the eigenvalues are explicit Laurent expressions
in the content polynomial of the indexing partition(s).  This module holds
those closed forms, the isolating polynomials built from them, and the
pairwise-distinctness scan that the satellite verification relies on.

All values here live in characteristic 0; callers reduce mod 2 when needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partition import Partition, partitions_up_to
from .ring import RingElem, vpow, z_poly


def delta_homfly() -> RingElem:
    """Framed value of the 0-framed unknot in the oriented skein."""
    return RingElem(vpow(-1) - vpow(1), z_poly())


def delta_kauffman() -> RingElem:
    """Framed value of the 0-framed unknot in the unoriented skein."""
    return delta_homfly() + 1


def _content_at(shape: Partition, power: int) -> RingElem:
    """Content polynomial of the shape evaluated at s^power."""
    return RingElem(shape.content_polynomial().scale_exponents(1, power))


def kauffman_meridian_eigenvalue(shape: Partition) -> RingElem:
    """Eigenvalue of an unoriented meridian circle on the basis element of shape.

    Evaluates to the unoriented unknot value on the empty shape.
    """
    z = RingElem(z_poly())
    inner = RingElem(vpow(-1)) * _content_at(shape, 2) - RingElem(vpow(1)) * _content_at(shape, -2)
    return z * inner + delta_homfly() + 1


def homfly_meridian_eigenvalue(forward: Partition, reverse: Partition) -> RingElem:
    """Eigenvalue of an oriented meridian on the two-sided oriented basis.

    The basis element carries `forward` strands parallel to the core and
    `reverse` strands against it.  Evaluates to the oriented unknot value
    on the pair of empty shapes.
    """
    z = RingElem(z_poly())
    inner = RingElem(vpow(-1)) * _content_at(forward, 2) - RingElem(vpow(1)) * _content_at(reverse, -2)
    return z * inner + delta_homfly()


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
    """Horner evaluation of sum(coefficients[k] * value**k), ascending powers."""
    total = RingElem.zero()
    for coeff in reversed(coefficients):
        total = total * value + coeff
    return total


@dataclass(frozen=True)
class IsolatingPolynomial:
    """One-variable polynomial vanishing at every sibling eigenvalue.

    Built from a target shape and an anchor one cell smaller: the roots are
    the unoriented meridian eigenvalues of every shape adjacent to the
    anchor (one cell added or removed) except the target itself.  Applying
    the polynomial to the meridian map therefore kills every sibling
    component of the branched decoration and leaves a known multiple of
    the target component.
    """

    target: Partition
    anchor: Partition
    roots: tuple[tuple[Partition, RingElem], ...]
    coefficients: tuple[RingElem, ...]  # ascending powers

    def eval_at(self, value: RingElem) -> RingElem:
        return eval_polynomial(self.coefficients, value)

    def separation_value(self) -> RingElem:
        """Value at the target's own eigenvalue; nonzero by distinctness."""
        return self.eval_at(kauffman_meridian_eigenvalue(self.target))


def isolating_polynomial(target: Partition, anchor: Partition | None = None) -> IsolatingPolynomial:
    """Product of (t - eigenvalue) over the anchor's neighbors minus the target.

    The anchor defaults to the target with one cell removed from its last
    row.  The anchor must be reachable from the target by deleting one cell.
    """
    if anchor is None:
        anchor = target.last_row_shrunk()
    if anchor not in target.cells_removable():
        raise ValueError(f"anchor {anchor} is not one cell below target {target}")
    siblings = [p for p in anchor.cells_addable() + anchor.cells_removable() if p != target]
    roots = tuple((p, kauffman_meridian_eigenvalue(p)) for p in sorted(siblings))
    coefficients = [RingElem.one()]
    for _, eigenvalue in roots:
        extended = [RingElem.zero()] + coefficients
        for i, old in enumerate(coefficients):
            extended[i] = extended[i] - old * eigenvalue
        coefficients = extended
    return IsolatingPolynomial(target, anchor, roots, tuple(coefficients))


# ----------------------------------------------------------------------
# distinctness scan


@dataclass(frozen=True)
class DistinctnessReport:
    max_size: int
    shape_count: int
    comparisons: int
    collisions: tuple[tuple[Partition, Partition], ...] = field(default=())

    @property
    def all_distinct(self) -> bool:
        return not self.collisions


def check_eigenvalue_distinctness(max_size: int = 8) -> DistinctnessReport:
    """Pairwise-compare unoriented meridian eigenvalues over all small shapes.

    Comparisons happen after mod-2 reduction: distinctness there is the
    load-bearing property (the verifier inverts differences of these
    values in the mod-2 ring) and it implies distinctness over the
    integers.  Returns the number of shapes, the number of comparisons
    performed, and any collisions.
    """
    shapes = partitions_up_to(max_size)
    values = [(p, kauffman_meridian_eigenvalue(p).to_mod2()) for p in shapes]
    collisions = []
    comparisons = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            comparisons += 1
            if values[i][1] == values[j][1]:
                collisions.append((values[i][0], values[j][0]))
    return DistinctnessReport(max_size, len(values), comparisons, tuple(collisions))


def eigenvalue_table(max_size: int) -> list[tuple[Partition, RingElem]]:
    """(shape, unoriented meridian eigenvalue) rows in canonical shape order."""
    return [(p, kauffman_meridian_eigenvalue(p)) for p in partitions_up_to(max_size)]
