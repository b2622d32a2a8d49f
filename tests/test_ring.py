"""Ring layer: exact Laurent arithmetic, fractions, mod-2, doubling map."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinkit.ring import LaurentPoly, RingElem, spow, vpow, z_poly, s_power_difference


def poly_from(pairs, char=0):
    return LaurentPoly(dict(pairs), char)


small_exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
small_polys = st.builds(
    poly_from,
    st.lists(st.tuples(small_exponents, st.integers(-4, 4)), max_size=4),
)
small_polys_mod2 = st.builds(
    lambda pairs: poly_from(pairs, char=2),
    st.lists(st.tuples(small_exponents, st.integers(0, 1)), max_size=4),
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
nonzero_polys_mod2 = small_polys_mod2.filter(lambda p: not p.is_zero())
sample_points = st.tuples(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)).filter(lambda x: x != 0),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)).filter(lambda x: x != 0),
)


class TestLaurentPoly:
    def test_difference_of_squares(self):
        left = (spow(1) - spow(-1)) * (spow(1) + spow(-1))
        assert left == spow(2) - spow(-2)

    def test_mod2_square_kills_cross_terms(self):
        squared = (vpow(-1, char=2) - vpow(1, char=2)) ** 2
        assert squared == vpow(-2, char=2) + vpow(2, char=2)

    def test_exact_division(self):
        quotient = (spow(2) - spow(-2)).exact_div(spow(1) - spow(-1))
        assert quotient == spow(1) + spow(-1)

    def test_division_failure_raises(self):
        with pytest.raises(ValueError):
            (spow(2) + 1).exact_div(spow(1) - 1)
        with pytest.raises(ValueError):
            vpow(1).exact_div(LaurentPoly.constant(2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            vpow(1).try_div(LaurentPoly.zero())

    def test_char_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vpow(1) + vpow(1, char=2)

    def test_zero_and_one(self):
        assert LaurentPoly.zero().is_zero()
        assert LaurentPoly.one().is_one()
        assert LaurentPoly.constant(2, char=2).is_zero()

    def test_scale_exponents(self):
        p = vpow(1) + spow(-2)
        assert p.scale_exponents(2, 2) == vpow(2) + spow(-4)

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert a - a == LaurentPoly.zero()

    @given(small_polys, small_polys, sample_points)
    @settings(max_examples=60)
    def test_arithmetic_matches_rational_evaluation(self, a, b, point):
        v_val, s_val = point
        assert (a + b).evaluate(v_val, s_val) == a.evaluate(v_val, s_val) + b.evaluate(v_val, s_val)
        assert (a * b).evaluate(v_val, s_val) == a.evaluate(v_val, s_val) * b.evaluate(v_val, s_val)

    @given(small_polys, nonzero_polys)
    def test_product_then_divide_roundtrip(self, a, b):
        assert (a * b).exact_div(b) == a

    @given(small_polys_mod2, nonzero_polys_mod2)
    def test_product_then_divide_roundtrip_mod2(self, a, b):
        assert (a * b).exact_div(b) == a

    @given(small_polys)
    def test_mod2_reduction_is_a_ring_map(self, a):
        b = spow(2) - vpow(1) * 3
        assert (a * b).reduce_mod2() == a.reduce_mod2() * b.reduce_mod2()
        assert (a + b).reduce_mod2() == a.reduce_mod2() + b.reduce_mod2()

    def test_render_golden(self):
        # ascending (v, s) order, " + " joining, signs on the terms
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.one()) == "1"
        assert str(vpow(1)) == "v"
        assert str(spow(-2)) == "s^-2"
        assert str(-vpow(1) * spow(2)) == "-v*s^2"
        assert str(z_poly()) == "-s^-1 + s"
        assert str(LaurentPoly({(2, 0): 3, (0, 0): -1})) == "-1 + 3*v^2"
        assert str(LaurentPoly({(1, 1): -1, (-1, 1): 1})) == "v^-1*s + -v*s"


class TestRingElem:
    def test_reduction_to_polynomial(self):
        elem = RingElem(spow(2) - spow(-2), z_poly())
        assert elem.is_polynomial()
        assert elem.as_polynomial() == spow(1) + spow(-1)

    def test_unreduced_fraction_kept_exact(self):
        elem = RingElem(vpow(1), LaurentPoly.constant(2))
        assert not elem.is_polynomial()
        assert elem * 2 == RingElem(vpow(1))

    def test_cross_multiplication_equality(self):
        z = z_poly()
        a = RingElem(spow(2) + spow(-2), z)
        b = RingElem((spow(2) + spow(-2)) * z, z * z)
        assert a == b

    @given(small_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_common_factor_invisible(self, num, den, extra):
        assert RingElem(num * extra, den * extra) == RingElem(num, den)
        assert hash(RingElem(num * extra, den * extra)) == hash(RingElem(num, den))

    @pytest.mark.parametrize("char", [0, 2])
    def test_equal_values_hash_equally(self, char):
        # the shared factor v - 1 survives reduction in one representative
        one = LaurentPoly.one(char)
        v, s2 = vpow(1, char), spow(2, char)
        a = RingElem((v - one) * (s2 + one), (v - one) * (s2 - one))
        b = RingElem(s2 + one, s2 - one)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(small_polys, nonzero_polys, small_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_field_ops_match_rational_evaluation(self, n1, d1, n2, d2):
        a = RingElem(n1, d1)
        b = RingElem(n2, d2)
        v_val, s_val = Fraction(3, 2), Fraction(5, 3)
        try:
            av = a.evaluate(v_val, s_val)
            bv = b.evaluate(v_val, s_val)
        except ZeroDivisionError:
            return
        assert (a + b).evaluate(v_val, s_val) == av + bv
        assert (a * b).evaluate(v_val, s_val) == av * bv
        assert (a - b).evaluate(v_val, s_val) == av - bv

    def test_division_and_powers(self):
        z = RingElem(z_poly())
        assert (z / z).is_one()
        assert z ** 0 == RingElem.one()
        assert z ** -2 == RingElem(LaurentPoly.one(), z_poly() ** 2)
        with pytest.raises(ZeroDivisionError):
            z / RingElem.zero()

    def test_localized_denominators_cancel(self):
        num = s_power_difference(4)
        den = z_poly() * s_power_difference(2)
        elem = RingElem(num, den)
        assert elem == RingElem(spow(2) + spow(-2), z_poly())
        assert elem.den.max_exponents()[1] - elem.den.min_exponents()[1] == 2

    def test_to_mod2(self):
        assert RingElem(vpow(1) * 2).to_mod2().is_zero()
        with pytest.raises(ValueError):
            RingElem(vpow(1), LaurentPoly.constant(2)).to_mod2()
        reduced = RingElem(vpow(-1) - vpow(1), z_poly()).to_mod2()
        assert reduced.char == 2
        assert reduced == RingElem(vpow(1, 2) + vpow(-1, 2), z_poly(2))

    def test_to_mod2_rejects_mod2_input(self):
        with pytest.raises(ValueError):
            RingElem(vpow(1, 2)).to_mod2()

    def test_doubling_map_basics(self):
        bar = lambda e: e.doubling_map()
        v = RingElem(vpow(1, 2))
        s = RingElem(spow(1, 2))
        assert bar(v) == RingElem(vpow(2, 2))
        assert bar(s) == RingElem(spow(2, 2))
        assert bar(v + s) == bar(v) + bar(s)
        with pytest.raises(ValueError):
            RingElem(vpow(1)).doubling_map()

    @given(small_polys_mod2, small_polys_mod2)
    @settings(max_examples=60)
    def test_doubling_map_is_a_ring_homomorphism(self, a, b):
        ea, eb = RingElem(a), RingElem(b)
        assert (ea * eb).doubling_map() == ea.doubling_map() * eb.doubling_map()
        assert (ea + eb).doubling_map() == ea.doubling_map() + eb.doubling_map()

    @given(small_polys_mod2, small_polys_mod2)
    @settings(max_examples=60)
    def test_doubling_map_is_injective(self, a, b):
        ea, eb = RingElem(a), RingElem(b)
        if ea.doubling_map() == eb.doubling_map():
            assert ea == eb

    def test_doubling_map_is_squaring_mod2(self):
        p = RingElem(vpow(1, 2) + spow(-1, 2) + LaurentPoly.one(2))
        assert p.doubling_map() == p * p

    def test_render_golden(self):
        delta = RingElem(vpow(-1) - vpow(1), z_poly())
        assert str(delta) == "(v^-1*s + -v*s)/(-1 + s^2)"
        assert str(RingElem.zero()) == "0"
        assert str(RingElem(spow(2) - spow(-2), z_poly())) == "s^-1 + s"
