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
and normalises each value once: an eigenvalue N/z (N/z^2 on the adjoint
basis), a coefficient over z^(k - j), a polynomial's value over z^k.  A
fraction over a power of z has one reduced representative, so this gives
the same representatives as normalising after every operation.

Values live in characteristic 0.  The distinctness scan never builds a
mod-2 fraction: every value is N/z with z nonzero mod 2, so two values
agree mod 2 exactly when their numerators do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .partition import Partition, partitions_up_to
from .ring import LaurentPoly, RingElem, vpow, z_poly


_Z = z_poly()
_Z2 = _Z * _Z
_V_GAP = vpow(-1) - vpow(1)  # z times the oriented unknot value
_V_GAP_Z = _V_GAP + _Z  # z times the unoriented unknot value


def delta_homfly() -> RingElem:
    """Framed value of the 0-framed unknot in the oriented skein."""
    return RingElem(_V_GAP, _Z)


def delta_kauffman() -> RingElem:
    """Framed value of the 0-framed unknot in the unoriented skein."""
    return delta_homfly() + RingElem.one()


def _meridian_numerator(forward: Partition, reverse: Partition, unknot: LaurentPoly) -> LaurentPoly:
    """N = z^2 * (v^-1 C_f(s^2) - v C_r(s^-2)) + unknot, the eigenvalue N/z times z.

    C_f and C_r are the content polynomials of `forward` and `reverse`, and
    `unknot` is z times the unknot value of the skein.
    """
    inner = forward.content_polynomial().scale_exponents(1, 2).shift(-1, 0) - (
        reverse.content_polynomial().scale_exponents(1, -2).shift(1, 0)
    )
    return _Z2 * inner + unknot


def kauffman_meridian_eigenvalue(shape: Partition) -> RingElem:
    """Eigenvalue of an unoriented meridian circle on the basis element of shape.

    Evaluates to the unoriented unknot value on the empty shape.
    """
    return RingElem(_meridian_numerator(shape, shape, _V_GAP_Z), _Z)


def homfly_meridian_eigenvalue(forward: Partition, reverse: Partition) -> RingElem:
    """Eigenvalue of an oriented meridian on the two-sided oriented basis.

    The basis element carries `forward` strands parallel to the core and
    `reverse` strands against it.  Evaluates to the oriented unknot value
    on the pair of empty shapes.
    """
    return RingElem(_meridian_numerator(forward, reverse, _V_GAP), _Z)


def adjoint_meridian_eigenvalue(forward: Partition, reverse: Partition) -> RingElem:
    """Eigenvalue of a meridian on the antiparallel-pair (adjoint style) basis.

    It is s(f, r) * s(r, f) - 1 for the oriented eigenvalues s, built as
    the one fraction (N_fr * N_rf - z^2) / z^2 of their numerators.
    """
    n_fr = _meridian_numerator(forward, reverse, _V_GAP)
    return RingElem(n_fr * _meridian_numerator(reverse, forward, _V_GAP) - _Z2, _Z2)


# ----------------------------------------------------------------------
# isolating polynomials


def eval_polynomial(coefficients, value: RingElem) -> RingElem:
    """sum(coefficients[j] * value**j) for `RingElem` coefficients in
    ascending powers, with one normalisation.

    Horner's rule runs on numerators over a running denominator: with
    value = p/q and the leading coefficient over d, coefficient j of a
    degree-k polynomial must lie over d * q^(k - j), or `ValueError` is
    raised, and the value is normalised once over d * q^k.  An isolating
    polynomial at a meridian eigenvalue has d = 1, q = s^2 - 1 (z
    normalised) and coefficient j over z^(k - j), that is over q^(k - j).
    """
    p, q = value.num, value.den
    top = coefficients[-1]
    acc, den = top.num, top.den
    for j in range(len(coefficients) - 2, -1, -1):
        acc, den = acc * p, den * q
        if coefficients[j].den != den:
            raise ValueError(f"coefficient {j} is not over the running denominator")
        acc = acc + coefficients[j].num
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
    return tuple(RingElem(n, _Z ** (len(siblings) - j)) for j, n in enumerate(numerators))


# ----------------------------------------------------------------------
# distinctness scan


@dataclass(frozen=True)
class DistinctnessReport:
    """Outcome of the mod-2 distinctness scan over all shapes up to a size.

    `collisions` lists every pair (p, q) of equal values, p before q in
    canonical shape order, sorted by the positions of p and then q.
    """

    shape_count: int
    collisions: tuple[tuple[Partition, Partition], ...]

    @property
    def comparisons(self) -> int:
        """Shape pairs decided, whichever way each was decided."""
        return self.shape_count * (self.shape_count - 1) // 2

    @property
    def all_distinct(self) -> bool:
        return not self.collisions


def _mod2_numerator(shape: Partition) -> LaurentPoly:
    """The numerator over z of the shape's unoriented meridian eigenvalue, mod 2."""
    return _meridian_numerator(shape, shape, _V_GAP_Z).reduce_mod2()


def check_eigenvalue_distinctness(max_size: int = 8) -> DistinctnessReport:
    """Find every pair of shapes whose unoriented meridian eigenvalues agree mod 2.

    Values are compared after mod-2 reduction: distinctness there is the
    load-bearing property (the verifier inverts differences of these
    values in the mod-2 ring) and it implies distinctness over the
    integers.  Every value is N/z, z is nonzero mod 2 and the mod-2 ring
    is a domain, so two values agree exactly when their numerators reduced
    mod 2 (`_mod2_numerator`) do.  One dict keyed by those numerators
    decides every pair in one pass.
    """
    shapes = partitions_up_to(max_size)
    by_num: dict[LaurentPoly, list[int]] = {}
    for i, p in enumerate(shapes):
        by_num.setdefault(_mod2_numerator(p), []).append(i)
    pairs = sorted(pair for same in by_num.values() for pair in combinations(same, 2))
    collisions = tuple((shapes[i], shapes[j]) for i, j in pairs)
    return DistinctnessReport(len(shapes), collisions)


def eigenvalue_table(max_size: int) -> list[tuple[Partition, RingElem]]:
    """(shape, unoriented meridian eigenvalue) rows in canonical shape order."""
    return [(p, kauffman_meridian_eigenvalue(p)) for p in partitions_up_to(max_size)]
