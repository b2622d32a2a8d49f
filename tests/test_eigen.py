"""Eigenvalue closed forms, isolating polynomials, distinctness scan."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adjoint_matches_doubled_meridian,
    constant,
    isolating_siblings,
    reference_distinctness,
    reference_eval_polynomial,
    reference_homfly_meridian_eigenvalue,
    reference_isolating_coefficients,
    reference_kauffman_meridian_eigenvalue,
)
from skeinkit import eigen
from skeinkit.eigen import (
    adjoint_meridian_eigenvalue,
    check_eigenvalue_distinctness,
    delta_homfly,
    delta_kauffman,
    eigenvalue_table,
    eval_polynomial,
    homfly_meridian_eigenvalue,
    isolating_polynomial,
    kauffman_meridian_eigenvalue,
)
from skeinkit.partition import Partition, partitions_up_to
from skeinkit.ring import LaurentPoly, RingElem, spow, vpow, z_poly

EMPTY = Partition(())
ONE = Partition((1,))
TWO = Partition((2,))
ONE_ONE = Partition((1, 1))


class TestUnknotValues:
    def test_delta_homfly_frozen(self):
        assert delta_homfly() == RingElem(vpow(-1) - vpow(1), z_poly())

    def test_delta_kauffman_offset(self):
        assert delta_kauffman() - delta_homfly() == RingElem.one()

    def test_empty_shape_reproduces_unknot_values(self):
        assert kauffman_meridian_eigenvalue(EMPTY) == delta_kauffman()
        assert homfly_meridian_eigenvalue(EMPTY, EMPTY) == delta_homfly()


class TestClosedForms:
    def test_single_cell_unoriented_eigenvalue_expanded_by_hand(self):
        num = (spow(2) - LaurentPoly.one() + spow(-2)) * (vpow(-1) - vpow(1)) + z_poly()
        assert kauffman_meridian_eigenvalue(ONE) == RingElem(num, z_poly())

    def test_single_cell_oriented_eigenvalues(self):
        z = RingElem(z_poly())
        assert homfly_meridian_eigenvalue(ONE, EMPTY) == delta_homfly() + z * RingElem(vpow(-1))
        assert homfly_meridian_eigenvalue(EMPTY, ONE) == delta_homfly() - z * RingElem(vpow(1))

    def test_unoriented_is_diagonal_oriented_plus_one(self):
        for shape in partitions_up_to(6):
            assert kauffman_meridian_eigenvalue(shape) == homfly_meridian_eigenvalue(shape, shape) + RingElem.one()

    def test_adjoint_eigenvalue_symmetric(self):
        pairs = [(ONE, EMPTY), (TWO, ONE), (ONE_ONE, TWO), (Partition((2, 1)), ONE_ONE)]
        for a, b in pairs:
            assert adjoint_meridian_eigenvalue(a, b) == adjoint_meridian_eigenvalue(b, a)

    def test_adjoint_at_empty_pair(self):
        d = delta_homfly()
        assert adjoint_meridian_eigenvalue(EMPTY, EMPTY) == d * d - RingElem.one()

    def test_mod2_doubling_relation_small_shapes(self):
        for shape in partitions_up_to(5):
            assert adjoint_matches_doubled_meridian(shape)


class TestOneFractionForms:
    """The one-fraction eigenvalues keep the representatives, not only the
    values, of the forms composed from normalised `RingElem` operations."""

    def test_kauffman_representatives_to_size_8(self):
        for shape in partitions_up_to(8):
            new = kauffman_meridian_eigenvalue(shape)
            old = reference_kauffman_meridian_eigenvalue(shape)
            assert (new.num, new.den) == (old.num, old.den), shape

    def test_adjoint_representatives_to_size_5(self):
        # the one fraction over z^2 against the product of the oriented values
        shapes = partitions_up_to(5)
        for forward in shapes:
            for reverse in shapes:
                new = adjoint_meridian_eigenvalue(forward, reverse)
                product = homfly_meridian_eigenvalue(forward, reverse) * homfly_meridian_eigenvalue(reverse, forward)
                assert repr(new) == repr(product - RingElem.one()), (forward, reverse)

    def test_homfly_representatives_to_size_4(self):
        shapes = partitions_up_to(4)
        for forward in shapes:
            for reverse in shapes:
                new = homfly_meridian_eigenvalue(forward, reverse)
                old = reference_homfly_meridian_eigenvalue(forward, reverse)
                assert (new.num, new.den) == (old.num, old.den), (forward, reverse)

    def test_eigenvalue_table_to_size_10_pinned(self):
        # hash taken from the composed forms
        rows = eigenvalue_table(10)
        text = "\n".join(f"{p}\t{value.render()}\t{value.to_mod2().render()}" for p, value in rows)
        assert len(rows) == 139
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "9941d5382ab83607b2cdad997c09c309fa2d77805545c78f2c33eb44f678856f"

    def test_adjoint_pairs_to_size_3_pinned(self):
        # hash taken from the composed forms
        shapes = partitions_up_to(3)
        lines = [f"{f}\t{r}\t{adjoint_meridian_eigenvalue(f, r).render()}" for f in shapes for r in shapes]
        assert len(lines) == 49
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "c1c253cff778f03fa1640037dc9459e404b22d4b6ac96ec919a5c424a3db583f"


class TestIsolatingPolynomial:
    def test_single_cell_target_has_no_siblings(self):
        coefficients = isolating_polynomial(ONE, EMPTY)
        assert isolating_siblings(ONE, EMPTY) == []
        assert coefficients == (RingElem.one(),)
        assert eval_polynomial(coefficients, kauffman_meridian_eigenvalue(ONE)) == RingElem.one()

    def test_two_cell_target_structure(self):
        coefficients = isolating_polynomial(TWO, ONE)
        assert len(coefficients) == 3
        assert isolating_siblings(TWO, ONE) == [EMPTY, ONE_ONE]
        c_empty = kauffman_meridian_eigenvalue(EMPTY)
        c_oneone = kauffman_meridian_eigenvalue(ONE_ONE)
        assert coefficients[2] == RingElem.one()
        assert coefficients[1] == RingElem.zero() - (c_empty + c_oneone)
        assert coefficients[0] == c_empty * c_oneone

    def test_vanishes_exactly_at_siblings(self):
        coefficients = isolating_polynomial(TWO, ONE)
        for shape in isolating_siblings(TWO, ONE):
            assert eval_polynomial(coefficients, kauffman_meridian_eigenvalue(shape)).is_zero()
        assert not eval_polynomial(coefficients, kauffman_meridian_eigenvalue(TWO)).is_zero()

    def test_coefficients_match_composed_reference_to_size_6(self):
        # every target and anchor: the coefficients built on numerators over
        # z-powers keep the representatives of the normalised product
        for target in partitions_up_to(6):
            for anchor in target.cells_removable():
                coefficients = isolating_polynomial(target, anchor)
                want = reference_isolating_coefficients(
                    [kauffman_meridian_eigenvalue(p) for p in isolating_siblings(target, anchor)]
                )
                assert repr(coefficients) == repr(want), (target, anchor)

    def test_explicit_anchor_and_validation(self):
        target = Partition((2, 1))
        coefficients = isolating_polynomial(target, anchor=TWO)
        assert isolating_siblings(target, TWO) == [ONE, Partition((3,))]
        assert len(coefficients) == 3
        # the target is not a root: the polynomial vanishes at the siblings only
        for shape in isolating_siblings(target, TWO):
            assert eval_polynomial(coefficients, kauffman_meridian_eigenvalue(shape)).is_zero()
        assert not eval_polynomial(coefficients, kauffman_meridian_eigenvalue(target)).is_zero()
        with pytest.raises(ValueError, match="anchor 1,1 is not one cell below target 2"):
            isolating_polynomial(TWO, anchor=ONE_ONE)


class TestDistinctness:
    def test_full_scan_to_size_eight(self):
        report = check_eigenvalue_distinctness(8)
        assert report.shape_count == 67
        assert report.comparisons == 67 * 66 // 2 == 2211
        assert report.all_distinct
        assert report.collisions == ()

    def test_scan_equals_pairwise_reference(self):
        for max_size in (0, 1, 6):
            assert check_eigenvalue_distinctness(max_size) == reference_distinctness(max_size)

    def test_eigenvalues_to_size_12_share_one_denominator(self):
        # every value reduced mod 2 lies over 1 + s^2, the reduced z
        dens = {kauffman_meridian_eigenvalue(p).to_mod2().den for p in partitions_up_to(12)}
        assert dens == {spow(2, char=2) + LaurentPoly.one(2)}

    def test_table_rows_in_canonical_order(self):
        table = eigenvalue_table(3)
        assert [shape for shape, _ in table] == partitions_up_to(3)
        assert table[0][1] == delta_kauffman()


def _numerator(shape: Partition) -> LaurentPoly:
    """z times the shape's unoriented meridian eigenvalue."""
    return eigen._meridian_numerator(shape, shape, eigen._V_GAP_Z)


# numerators over z the collision tests assign to shapes: eigenvalue
# numerators, v z and z (the values v and 1), each also taken with an even
# offset, so that a pair can agree mod 2 and differ over the integers; the
# reference's char-0 values may be held with a factor that normalisation
# keeps, so an equal pair can have different denominator representatives
_POOL = [_numerator(p) for p in partitions_up_to(1)] + [vpow(1) * z_poly(), z_poly()]
_OFFSETS = [LaurentPoly.zero(), constant(2) * vpow(3), constant(2) * spow(2) + constant(2)]
_FACTORS = [LaurentPoly.one(), vpow(1) + LaurentPoly.one(), vpow(2) + vpow(1) + LaurentPoly.one()]


def _held_with(numerator: LaurentPoly, factor: LaurentPoly) -> RingElem:
    return RingElem(numerator * factor, z_poly() * factor)


class TestDistinctnessCollisions:
    """The numerator-keyed scan against the pairwise reference where values collide."""

    SHAPES = partitions_up_to(4)

    def _assign(self, monkeypatch, numerators, factors):
        # value i is numerators[i] / z: the reference reads the char-0
        # values, held with factors[i], the scan their numerators mod 2
        values = {shape: _held_with(n, f) for shape, n, f in zip(self.SHAPES, numerators, factors)}
        mod2 = {shape: n.reduce_mod2() for shape, n in zip(self.SHAPES, numerators)}
        monkeypatch.setattr(eigen, "kauffman_meridian_eigenvalue", values.__getitem__)
        monkeypatch.setattr(eigen, "_mod2_numerator", mod2.__getitem__)

    def test_equal_values_with_different_denominators(self, monkeypatch):
        one_cell = _numerator(ONE)
        held = _held_with(one_cell, vpow(1) + LaurentPoly.one())
        assert held == kauffman_meridian_eigenvalue(ONE)
        assert held.to_mod2().den != kauffman_meridian_eigenvalue(ONE).to_mod2().den
        shifted = one_cell + constant(2) * vpow(3)
        assert _held_with(shifted, LaurentPoly.one()) != kauffman_meridian_eigenvalue(ONE)
        numerators = [_numerator(p) for p in self.SHAPES]
        factors = [LaurentPoly.one()] * len(self.SHAPES)
        numerators[3] = numerators[5] = one_cell  # the value of (1) at 1, 3 and 5,
        factors[5] = vpow(1) + LaurentPoly.one()  # held at 5 over another denominator
        numerators[9] = shifted  # and at 9 mod 2 only
        numerators[7] = numerators[8] = vpow(1) * z_poly()
        self._assign(monkeypatch, numerators, factors)
        report = check_eigenvalue_distinctness(4)
        assert report == reference_distinctness(4)
        indices = [(self.SHAPES.index(p), self.SHAPES.index(q)) for p, q in report.collisions]
        assert indices == [(1, 3), (1, 5), (1, 9), (3, 5), (3, 9), (5, 9), (7, 8)]
        assert report.comparisons == 66

    PICK = st.tuples(*(st.integers(0, len(pool) - 1) for pool in (_POOL, _OFFSETS, _FACTORS)))

    @given(st.lists(PICK, min_size=12, max_size=12))
    @settings(max_examples=60)
    def test_scan_equals_reference(self, picks):
        numerators = [_POOL[n] + _OFFSETS[o] for n, o, _ in picks]
        factors = [_FACTORS[f] for _, _, f in picks]
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assign(monkeypatch, numerators, factors)
            assert check_eigenvalue_distinctness(4) == reference_distinctness(4)


class TestEvalPolynomial:
    """One normalisation over the running denominator against Horner's rule
    in normalised steps."""

    def test_single_coefficient_is_itself(self):
        coeff = RingElem(vpow(1) + spow(3), z_poly() ** 2)
        value = kauffman_meridian_eigenvalue(TWO)
        assert repr(eval_polynomial([coeff], value)) == repr(coeff)

    def test_isolating_values_over_z_power(self):
        # the package's case: degree k at an eigenvalue lies over z^k, and
        # each value keeps the stepwise representative
        shapes = partitions_up_to(6)
        eigenvalues = [kauffman_meridian_eigenvalue(shape) for shape in shapes]
        for target in partitions_up_to(5):
            for anchor in target.cells_removable():
                coefficients = isolating_polynomial(target, anchor)
                siblings = isolating_siblings(target, anchor)
                for shape, value in zip(shapes, eigenvalues):
                    got = eval_polynomial(coefficients, value)
                    want = reference_eval_polynomial(coefficients, value)
                    assert repr(got) == repr(want), (target, anchor, shape)
                    assert got.is_zero() == (shape in siblings)

    def test_refuses_a_coefficient_off_the_running_denominator(self):
        # at 0 = 0/1 the running denominator stays 1, and coefficient 1 is over z
        coefficients = isolating_polynomial(Partition((2, 1)), anchor=TWO)
        with pytest.raises(ValueError, match="coefficient 1 is not over the running denominator"):
            eval_polynomial(coefficients, RingElem.zero())
        # a constant over z^2 where z is due
        coefficients = [RingElem(vpow(1), z_poly() ** 2), RingElem.one()]
        with pytest.raises(ValueError, match="coefficient 0 is not over the running denominator"):
            eval_polynomial(coefficients, kauffman_meridian_eigenvalue(ONE))
