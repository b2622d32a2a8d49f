"""Eigenvalue closed forms, isolating polynomials, distinctness scan."""

import pytest

from oracles import adjoint_matches_doubled_meridian
from skeinkit.eigen import (
    DistinctnessReport,
    adjoint_meridian_eigenvalue,
    check_eigenvalue_distinctness,
    delta_homfly,
    delta_kauffman,
    eigenvalue_table,
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
        num = (spow(2) - 1 + spow(-2)) * (vpow(-1) - vpow(1)) + z_poly()
        assert kauffman_meridian_eigenvalue(ONE) == RingElem(num, z_poly())

    def test_single_cell_oriented_eigenvalues(self):
        z = RingElem(z_poly())
        assert homfly_meridian_eigenvalue(ONE, EMPTY) == delta_homfly() + z * RingElem(vpow(-1))
        assert homfly_meridian_eigenvalue(EMPTY, ONE) == delta_homfly() - z * RingElem(vpow(1))

    def test_unoriented_is_diagonal_oriented_plus_one(self):
        for shape in partitions_up_to(6):
            assert kauffman_meridian_eigenvalue(shape) == homfly_meridian_eigenvalue(shape, shape) + 1

    def test_adjoint_eigenvalue_symmetric(self):
        pairs = [(ONE, EMPTY), (TWO, ONE), (ONE_ONE, TWO), (Partition((2, 1)), ONE_ONE)]
        for a, b in pairs:
            assert adjoint_meridian_eigenvalue(a, b) == adjoint_meridian_eigenvalue(b, a)

    def test_adjoint_at_empty_pair(self):
        d = delta_homfly()
        assert adjoint_meridian_eigenvalue(EMPTY, EMPTY) == d * d - 1

    def test_mod2_doubling_relation_small_shapes(self):
        for shape in partitions_up_to(5):
            assert adjoint_matches_doubled_meridian(shape)


class TestIsolatingPolynomial:
    def test_single_cell_target_has_no_siblings(self):
        iso = isolating_polynomial(ONE)
        assert iso.anchor == EMPTY
        assert iso.coefficients == (RingElem.one(),)
        assert iso.separation_value() == RingElem.one()

    def test_two_cell_target_structure(self):
        iso = isolating_polynomial(TWO)
        assert iso.anchor == ONE
        assert len(iso.coefficients) == 3
        sibling_shapes = [shape for shape, _ in iso.roots]
        assert sorted(sibling_shapes) == [EMPTY, ONE_ONE]
        c_empty = kauffman_meridian_eigenvalue(EMPTY)
        c_oneone = kauffman_meridian_eigenvalue(ONE_ONE)
        assert iso.coefficients[2] == RingElem.one()
        assert iso.coefficients[1] == -(c_empty + c_oneone)
        assert iso.coefficients[0] == c_empty * c_oneone

    def test_vanishes_exactly_at_siblings(self):
        iso = isolating_polynomial(TWO)
        for _, eigenvalue in iso.roots:
            assert iso.eval_at(eigenvalue).is_zero()
        assert not iso.separation_value().is_zero()

    def test_explicit_anchor_and_validation(self):
        iso = isolating_polynomial(Partition((2, 1)), anchor=TWO)
        assert iso.anchor == TWO
        assert all(shape != Partition((2, 1)) for shape, _ in iso.roots)
        with pytest.raises(ValueError):
            isolating_polynomial(TWO, anchor=ONE_ONE)


class TestDistinctness:
    def test_full_scan_to_size_eight(self):
        report = check_eigenvalue_distinctness(8)
        assert report.shape_count == 67
        assert report.comparisons == 67 * 66 // 2 == 2211
        assert report.all_distinct
        assert report.collisions == ()

    def test_table_rows_in_canonical_order(self):
        table = eigenvalue_table(3)
        assert [shape for shape, _ in table] == partitions_up_to(3)
        assert table[0][1] == delta_kauffman()
