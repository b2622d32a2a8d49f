"""Ring layer: exact Laurent arithmetic, fractions, mod-2, doubling map."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import constant, reference_reduce_fraction
from skeinkit import ring
from skeinkit.ring import (
    LaurentPoly,
    RingElem,
    _divisible_by_s_period,
    spow,
    vpow,
    z_poly,
)


def poly_from(pairs, char=0):
    return LaurentPoly(dict(pairs), char)


def evaluate(x, v_value: Fraction, s_value: Fraction) -> Fraction:
    """A LaurentPoly or RingElem at nonzero rationals, characteristic 0: the
    rational-point oracle for ring arithmetic."""
    if isinstance(x, RingElem):
        denominator = evaluate(x.den, v_value, s_value)
        if denominator == 0:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return evaluate(x.num, v_value, s_value) / denominator
    assert x.char == 0 and v_value != 0 and s_value != 0
    total = Fraction(0)
    for (dv, ds), c in x.terms().items():
        total += c * Fraction(v_value) ** dv * Fraction(s_value) ** ds
    return total


def polys(char, max_size=4, low=-3, high=3):
    coeffs = st.integers(-4, 4) if char == 0 else st.integers(0, 1)
    exponents = st.tuples(st.integers(low, high), st.integers(low, high))
    return st.builds(
        lambda pairs: poly_from(pairs, char), st.lists(st.tuples(exponents, coeffs), max_size=max_size)
    )


small_polys = polys(0)
small_polys_mod2 = polys(2)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
nonzero_polys_mod2 = small_polys_mod2.filter(lambda p: not p.is_zero())
sample_points = st.tuples(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)).filter(lambda x: x != 0),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)).filter(lambda x: x != 0),
)


def reference_try_div(f, g):
    """Plain long division, kept as the reference for LaurentPoly.try_div.

    The remainder's leading term is found by max() over the whole remainder
    at every step, and the walk gives up only when a quotient exponent goes
    negative or, over Z, a coefficient does not divide.
    """
    if f.is_zero():
        return LaurentPoly.zero(f.char)
    fmin, gmin = f.min_exponents(), g.min_exponents()
    rem = {(dv - fmin[0], ds - fmin[1]): c for (dv, ds), c in f.terms().items()}
    gterms = {(dv - gmin[0], ds - gmin[1]): c for (dv, ds), c in g.terms().items()}
    glead = max(gterms)
    glc = gterms[glead]
    quo = {}
    while rem:
        rlead = max(rem)
        rlc = rem[rlead]
        edv, eds = rlead[0] - glead[0], rlead[1] - glead[1]
        if edv < 0 or eds < 0:
            return None
        if f.char == 0:
            if rlc % glc:
                return None
            qc = rlc // glc
        else:
            qc = rlc
        quo[(edv, eds)] = qc
        for (gdv, gds), gc in gterms.items():
            key = (gdv + edv, gds + eds)
            nc = rem.get(key, 0) - qc * gc
            if f.char == 2:
                nc %= 2
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    return LaurentPoly(
        {(dv + fmin[0] - gmin[0], ds + fmin[1] - gmin[1]): c for (dv, ds), c in quo.items()},
        f.char,
    )


def divisors(char):
    one = LaurentPoly.one(char)
    return st.one_of(
        polys(char).filter(lambda p: not p.is_zero()),
        st.integers(1, 8).map(lambda m: spow(m, char) - one),
        st.integers(1, 4).map(lambda k: (spow(2, char) - one) ** k),
    )


class TestLaurentPoly:
    def test_difference_of_squares(self):
        left = (spow(1) - spow(-1)) * (spow(1) + spow(-1))
        assert left == spow(2) - spow(-2)

    def test_mod2_square_kills_cross_terms(self):
        squared = (vpow(-1, char=2) - vpow(1, char=2)) ** 2
        assert squared == vpow(-2, char=2) + vpow(2, char=2)

    @pytest.mark.parametrize("char", [0, 2])
    def test_powers_equal_repeated_products(self, char):
        base = vpow(1, char) - spow(2, char) + LaurentPoly.one(char)
        expected = LaurentPoly.one(char)
        for exponent in range(10):
            assert base ** exponent == expected
            expected = expected * base

    def test_power_makes_no_wasted_products(self, monkeypatch):
        # square-and-multiply from the base: no product by one, no square
        # past the last bit
        calls = []
        mul = LaurentPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        base = vpow(1) + spow(1)
        for exponent, products in ((0, 0), (1, 0), (2, 1), (5, 3)):
            calls.clear()
            base ** exponent
            assert len(calls) == products, exponent

    def test_exact_division(self):
        quotient = (spow(2) - spow(-2)).exact_div(spow(1) - spow(-1))
        assert quotient == spow(1) + spow(-1)

    def test_division_failure_raises(self):
        with pytest.raises(ValueError):
            (spow(2) + LaurentPoly.one()).exact_div(spow(1) - LaurentPoly.one())
        with pytest.raises(ValueError):
            vpow(1).exact_div(constant(2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            vpow(1).try_div(LaurentPoly.zero())

    def test_char_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vpow(1) + vpow(1, char=2)

    def test_zero_and_one(self):
        assert LaurentPoly.zero().is_zero()
        assert LaurentPoly.one().is_one()
        assert constant(2, char=2).is_zero()

    def test_scale_exponents(self):
        p = vpow(1) + spow(-2)
        assert p.scale_exponents(2, 2) == vpow(2) + spow(-4)

    @pytest.mark.parametrize("mults", [(0, 1), (1, 0), (0, 0)])
    def test_scale_exponents_refuses_a_zero_multiplier(self, mults):
        with pytest.raises(ValueError, match="nonzero"):
            (vpow(1) + spow(-2)).scale_exponents(*mults)

    @given(data=st.data())
    def test_scale_exponents_matches_constructor_form(self, data):
        # the substitution built through the merging, cleaning constructor:
        # an injective exponent map leaves it nothing to merge or drop
        char = data.draw(st.sampled_from([0, 2]))
        p = data.draw(polys(char, max_size=6))
        mults = st.integers(-3, 3).filter(bool)
        v_mult, s_mult = data.draw(mults), data.draw(mults)
        want = LaurentPoly(
            {(dv * v_mult, ds * s_mult): c for (dv, ds), c in p.terms().items()}, char
        )
        got = p.scale_exponents(v_mult, s_mult)
        assert got == want and got.char == char
        assert got.terms() == want.terms() and hash(got) == hash(want)

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

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    def test_sums_and_differences_merge_exactly(self, char, data):
        # the one-pass merge against the negate-then-add form it replaced
        # and the constructor's own merge; b = a or -a cancels every term
        a = data.draw(polys(char))
        b = data.draw(st.one_of(polys(char), st.just(a), st.just(-a)))
        both = list(a.terms().items())
        assert (a - b).terms() == (a + (-b)).terms()
        assert (a - b).terms() == LaurentPoly(both + [(e, -c) for e, c in b.terms().items()], char).terms()
        assert (a + b).terms() == LaurentPoly(both + list(b.terms().items()), char).terms()

    @given(small_polys, small_polys, sample_points)
    @settings(max_examples=60)
    def test_arithmetic_matches_rational_evaluation(self, a, b, point):
        v_val, s_val = point
        assert evaluate(a + b, v_val, s_val) == evaluate(a, v_val, s_val) + evaluate(b, v_val, s_val)
        assert evaluate(a * b, v_val, s_val) == evaluate(a, v_val, s_val) * evaluate(b, v_val, s_val)

    @given(small_polys, nonzero_polys)
    def test_product_then_divide_roundtrip(self, a, b):
        assert (a * b).exact_div(b) == a

    @given(small_polys_mod2, nonzero_polys_mod2)
    def test_product_then_divide_roundtrip_mod2(self, a, b):
        assert (a * b).exact_div(b) == a

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_try_div_matches_reference(self, char, data):
        # dividends g*q (exact) and g*q + p (mostly not); about one in ten
        # of the latter has a quotient term that leaves the exponent box
        g = data.draw(divisors(char))
        q = data.draw(polys(char))
        p = data.draw(st.one_of(st.just(LaurentPoly.zero(char)), polys(char, max_size=2)))
        f = g * q + p
        assert f.try_div(g) == reference_try_div(f, g)
        assert (g * q).try_div(g) == q

    @pytest.mark.parametrize("char", [0, 2])
    def test_quotient_leaving_box_is_none(self, char):
        # shifted to lowest exponents (0, 0), the box is [0, 0] x [0, 2], but
        # the first quotient term is s^3: no quotient, though the plain walk
        # goes on until an exponent turns negative
        g = LaurentPoly({(1, 0): 1, (2, -1): 1}, char)
        f = g + LaurentPoly({(2, 2): 1}, char)
        assert f.try_div(g) is None
        assert reference_try_div(f, g) is None

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_fold_test_matches_division(self, char, data):
        m = data.draw(st.integers(1, 8))
        candidate = spow(m, char) - LaurentPoly.one(char)
        f = data.draw(polys(char, max_size=6, low=-6, high=6))
        f = f * data.draw(st.sampled_from([LaurentPoly.one(char), candidate]))
        assert _divisible_by_s_period(f, m) == (f.try_div(candidate) is not None)

    @given(small_polys)
    def test_mod2_reduction_is_a_ring_map(self, a):
        b = spow(2) - vpow(1) * constant(3)
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LaurentPoly({(0, 0): 1.5}),
            lambda: LaurentPoly({(0, 0): 2.0}),
            lambda: LaurentPoly([((1, 0), Fraction(1, 2))]),
            lambda: LaurentPoly({(0.5, 1): 2}),
            lambda: LaurentPoly({(1, 2.0): 2}),
            lambda: LaurentPoly.monomial(1, 2, 1.5),
            lambda: LaurentPoly.monomial(1.0, 2),
        ],
        ids=[
            "float-coeff", "integral-float-coeff", "fraction-coeff", "float-v-exponent",
            "float-s-exponent", "monomial-coeff", "monomial-exponent",
        ],
    )
    def test_inexact_input_is_refused(self, build):
        # exact values only: a non-integer is refused by name, never truncated
        with pytest.raises(TypeError, match="non-integer term"):
            build()


class TestRingElem:
    def test_reduction_to_polynomial(self):
        elem = RingElem(spow(2) - spow(-2), z_poly())
        assert elem.den.is_one()
        assert elem.num == spow(1) + spow(-1)

    def test_unreduced_fraction_kept_exact(self):
        elem = RingElem(vpow(1), constant(2))
        assert elem.den == constant(2)
        assert elem * RingElem(constant(2)) == RingElem(vpow(1))

    def test_cross_multiplication_equality(self):
        z = z_poly()
        a = RingElem(spow(2) + spow(-2), z)
        b = RingElem((spow(2) + spow(-2)) * z, z * z)
        assert a == b

    @given(small_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_common_factor_invisible(self, num, den, extra):
        assert RingElem(num * extra, den * extra) == RingElem(num, den)

    @pytest.mark.parametrize("char", [0, 2])
    def test_unhashable_while_polynomials_hash(self, char):
        # equal fractions may keep different representatives, so a RingElem
        # has no hash; dicts key exact values by LaurentPoly numerators
        one = LaurentPoly.one(char)
        with pytest.raises(TypeError):
            hash(RingElem(spow(2, char) + one, spow(2, char) - one))
        with pytest.raises(TypeError):
            hash(RingElem.one(char))
        v = vpow(1, char)
        a, b = (v + one) * (v - one), vpow(2, char) - one
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_equality_matches_cross_multiplication(self, char, data):
        nonzero = polys(char).filter(lambda p: not p.is_zero())
        n1, n2 = data.draw(polys(char)), data.draw(polys(char))
        den, extra = data.draw(nonzero), data.draw(nonzero)
        a = RingElem(n1, den)
        elems = [a, RingElem(a.num, a.den), RingElem(n2, den), RingElem(n1 * extra, den * extra)]
        for x in elems:
            for y in elems:
                assert (x == y) == (x.num * y.den == y.num * x.den)

    @given(small_polys, nonzero_polys, small_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_field_ops_match_rational_evaluation(self, n1, d1, n2, d2):
        a = RingElem(n1, d1)
        b = RingElem(n2, d2)
        v_val, s_val = Fraction(3, 2), Fraction(5, 3)
        try:
            av = evaluate(a, v_val, s_val)
            bv = evaluate(b, v_val, s_val)
        except ZeroDivisionError:
            return
        assert evaluate(a + b, v_val, s_val) == av + bv
        assert evaluate(a * b, v_val, s_val) == av * bv
        assert evaluate(a - b, v_val, s_val) == av - bv

    def test_division_and_powers(self):
        z = RingElem(z_poly())
        assert z / z == RingElem.one()
        assert z ** 0 == RingElem.one()
        assert z ** 2 == RingElem(z_poly() ** 2)
        with pytest.raises(ZeroDivisionError):
            z / RingElem.zero()

    def test_localized_denominators_cancel(self):
        num = spow(4) - spow(-4)
        den = z_poly() * (spow(2) - spow(-2))
        elem = RingElem(num, den)
        assert elem == RingElem(spow(2) + spow(-2), z_poly())
        assert elem.den.max_exponents()[1] - elem.den.min_exponents()[1] == 2

    def test_to_mod2(self):
        assert RingElem(vpow(1) * constant(2)).to_mod2().is_zero()
        with pytest.raises(ValueError):
            RingElem(vpow(1), constant(2)).to_mod2()
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


class TestOperandRule:
    """Ring values meet only values of their own class and characteristic."""

    OPERATORS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }

    @pytest.mark.parametrize("op", OPERATORS)
    @pytest.mark.parametrize("value", [vpow(1), RingElem(vpow(1), z_poly())], ids=["poly", "elem"])
    def test_int_operand_is_refused(self, value, op):
        # a silent int False would make `x != 0` pass on every x
        apply = self.OPERATORS[op]
        for a, b in ((value, 0), (0, value), (value, 2), (2, value)):
            with pytest.raises(TypeError):
                apply(a, b)

    @pytest.mark.parametrize("op", OPERATORS)
    def test_poly_operand_to_elem_is_refused(self, op):
        apply = self.OPERATORS[op]
        elem, poly = RingElem(vpow(1), z_poly()), vpow(1)
        for a, b in ((elem, poly), (poly, elem)):
            with pytest.raises(TypeError):
                apply(a, b)

    def test_constructor_takes_polynomials_only(self):
        with pytest.raises(TypeError, match="numerator must be a LaurentPoly"):
            RingElem(3)
        with pytest.raises(TypeError, match="a LaurentPoly operand must be a LaurentPoly, not int"):
            RingElem(vpow(1), 2)

    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError, match="negative powers"):
            RingElem(z_poly()) ** -2
        with pytest.raises(ValueError, match="negative powers"):
            RingElem(vpow(1), z_poly()) ** -1

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_characteristic_mismatch(self, op):
        apply = self.OPERATORS[op]
        for a, b in ((spow(1), spow(1, 2)), (RingElem(spow(1)), RingElem(spow(1, 2)))):
            with pytest.raises(ValueError, match="characteristic mismatch"):
                apply(a, b)

    def test_characteristic_mismatch_in_division_and_construction(self):
        with pytest.raises(ValueError, match="characteristic mismatch"):
            RingElem(spow(1)) / RingElem(spow(1, 2))
        with pytest.raises(ValueError, match="characteristic mismatch"):
            RingElem(spow(1), spow(1, 2))
        # equality across characteristics is False, not an error
        assert spow(1) != spow(1, 2) and RingElem(spow(1)) != RingElem(spow(1, 2))


def cross_multiplied_sum(a, b, sign):
    """a + sign*b by cross-multiplication, the general formula."""
    cross = b.num * a.den
    return RingElem(a.num * b.den + (cross if sign > 0 else -cross), a.den * b.den)


def z_denominators(char):
    """Unit x monomial x (s - s^-1)^k, the shared denominators of sums over z-powers."""
    return st.builds(
        lambda sign, dv, ds, k: LaurentPoly.monomial(dv, ds, sign, char) * z_poly(char) ** k,
        st.sampled_from([1, -1]),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(0, 4),
    )


def any_denominators(char):
    """Arbitrary nonzero denominators, some with the factor v + 1 that reduction keeps."""
    nonzero = polys(char).filter(lambda p: not p.is_zero())
    return st.one_of(nonzero, nonzero.map(lambda p: p * (vpow(1, char) + LaurentPoly.one(char))))


class TestFractionFastPaths:
    """Sums over a unit or a shared denominator against the general formula.

    Every RingElem is built reduced, so a unit-denominator sum and a sum over
    a shared unit x monomial x z^k denominator keep the general formula's
    (num, den) exactly; any other shared denominator may give a smaller
    representative of the same value.
    """

    @staticmethod
    def check(a, b, identical):
        for got, want in (
            (a + b, cross_multiplied_sum(a, b, 1)),
            (a - b, cross_multiplied_sum(a, b, -1)),
            (a * b, RingElem(a.num * b.num, a.den * b.den)),
        ):
            assert got == want
            if identical:
                assert (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_unit_denominator_on_one_side(self, char, data):
        a = RingElem(data.draw(polys(char)), data.draw(any_denominators(char)))
        p = RingElem(data.draw(polys(char)))
        self.check(a, p, identical=True)
        self.check(p, a, identical=True)
        self.check(p, RingElem(data.draw(polys(char))), identical=True)

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_shared_z_power_denominator(self, char, data):
        den = data.draw(z_denominators(char))
        a = RingElem(data.draw(polys(char)), den)
        b = RingElem(data.draw(polys(char)), den)
        self.check(a, b, identical=True)

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_arbitrary_denominators(self, char, data):
        den = data.draw(any_denominators(char))
        a = RingElem(data.draw(polys(char)), den)
        other = data.draw(st.one_of(st.just(den), any_denominators(char)))
        b = RingElem(data.draw(polys(char)), other)
        self.check(a, b, identical=False)

    @pytest.mark.parametrize("char", [0, 2])
    def test_shared_uncancelled_factor_gives_smaller_representative(self, char):
        one = LaurentPoly.one(char)
        den = vpow(1, char) + one
        a, b = RingElem(vpow(2, char), den), RingElem(spow(1, char), den)
        want = cross_multiplied_sum(a, b, 1)
        assert want.den == den * den
        got = a + b
        assert (got.num, got.den) == (vpow(2, char) + spow(1, char), den)
        assert got == want

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"reduce": 0, "mul": 0}
        reduce, mul = ring._reduce_fraction, LaurentPoly.__mul__

        def counting_reduce(num, den):
            calls["reduce"] += 1
            return reduce(num, den)

        def counting_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(ring, "_reduce_fraction", counting_reduce)
        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        return calls

    @staticmethod
    def counted(calls, compute):
        calls.update(reduce=0, mul=0)
        compute()
        return calls["reduce"], calls["mul"]

    def test_unit_denominator_sum_skips_reduction(self, counts):
        p = vpow(-1) - spow(2)
        pe = RingElem(p)
        assert self.counted(counts, lambda: pe + RingElem(p)) == (0, 0)

    def test_equal_denominator_sum_multiplies_nothing(self, counts):
        den = z_poly() ** 3
        a, b = RingElem(vpow(1) + spow(3), den), RingElem(vpow(2) - spow(-1), den)
        assert self.counted(counts, lambda: a + b) == (1, 0)
        assert self.counted(counts, lambda: a - b) == (1, 0)

    def test_product_over_unit_denominators(self, counts):
        a = RingElem(vpow(1) + spow(3), z_poly())
        p, q = RingElem(vpow(-1) - spow(2)), RingElem(spow(1) + constant(2))
        assert self.counted(counts, lambda: p * q) == (0, 1)
        assert self.counted(counts, lambda: a * a) == (1, 2)


class TestReduceFraction:
    """The normaliser against a reference without its s^2 - 1 pre-test."""

    @pytest.mark.parametrize("char", [0, 2])
    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_reference(self, char, data):
        one = LaurentPoly.one(char)
        v_plus_one = vpow(1, char) + one
        den = data.draw(z_denominators(char)) * data.draw(st.sampled_from([one, v_plus_one]))
        shared = st.sampled_from(
            [one, spow(2, char) - one, spow(4, char) - one, z_poly(char), z_poly(char) ** 2, v_plus_one, den]
        )
        num = data.draw(polys(char)) * data.draw(shared)
        assert ring._reduce_fraction(num, den) == reference_reduce_fraction(num, den)

    @pytest.mark.parametrize("char", [0, 2])
    def test_no_division_over_z_powers_z_does_not_divide(self, char, monkeypatch):
        calls = []
        try_div = LaurentPoly.try_div

        def counting(self, divisor):
            calls.append(divisor)
            return try_div(self, divisor)

        monkeypatch.setattr(LaurentPoly, "try_div", counting)
        z = z_poly(char)
        nums = [
            vpow(1, char) + spow(3, char),
            vpow(-1, char) + spow(-2, char) + LaurentPoly.one(char),
            vpow(2, char) * spow(5, char),
        ]
        for num in nums:
            assert not _divisible_by_s_period(num, 2)
            for k in range(1, 6):
                RingElem(num, z ** k)
        assert calls == []
        # a numerator z divides still cancels by division
        assert RingElem(nums[0] * z, z ** 2) == RingElem(nums[0], z)
        assert calls
