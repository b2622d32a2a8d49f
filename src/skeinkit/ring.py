"""Exact two-variable Laurent arithmetic over Z and over GF(2).

Every value this package computes lives in the fraction field of
Z[v, v^-1, s, s^-1] (or its mod-2 reduction), so all arithmetic here is
exact integer arithmetic on sparse exponent dictionaries.  No floats,
no truncation, no symbolic dependencies.

Rendering contract (stable, relied on by golden tests and the CLI):
terms are sorted by (v-exponent, s-exponent) ascending and joined with
" + "; each term carries its own sign, so a negative term reads "-v^2"
even after a " + "; a coefficient of magnitude 1 is omitted unless the
term is constant; exponent 1 renders bare ("v", not "v^1"); other
exponents render as "v^3" or "s^-2"; factors are joined with "*"; the
zero polynomial renders as "0"; a fraction renders as "(num)/(den)"
only when the reduced denominator is not 1.

Fractions (``RingElem``) are always stored reduced, and every one that
is not a polynomial over 1 is built by one normaliser; a sum over a
shared denominator forms no denominator product (see ``RingElem``).
Normalisation tries no division when s^2 - 1 divides the denominator but
not the numerator, as for a power of z = s - s^-1 over a numerator that z
does not divide.

Operands meet only their own class: an int, or a LaurentPoly beside a
RingElem, is a TypeError in +, -, *, / and == (see ``_check_operand``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import index
from typing import Iterable, Mapping, Optional, Union

Exponents = tuple[int, int]
TermsLike = Union[Mapping[Exponents, int], Iterable[tuple[Exponents, int]], None]


def _check_operand(value, other) -> None:
    """Refuse an operand of another class (TypeError) or characteristic (ValueError)."""
    if not isinstance(other, type(value)):
        name = type(value).__name__
        raise TypeError(f"a {name} operand must be a {name}, not {type(other).__name__}")
    if other.char != value.char:
        raise ValueError("characteristic mismatch")


class LaurentPoly:
    """Sparse Laurent polynomial in v and s with integer coefficients.

    ``char`` selects the coefficient ring: 0 for Z, 2 for GF(2).
    Instances are immutable and hashable; all operators return new objects.
    """

    __slots__ = ("_terms", "char")

    def __init__(self, terms: TermsLike = None, char: int = 0):
        if char not in (0, 2):
            raise ValueError("char must be 0 or 2")
        merged: dict[Exponents, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for (dv, ds), coeff in items:
                # exact input only: a float or other non-integer is refused,
                # never truncated
                try:
                    key = (index(dv), index(ds))
                    coeff = index(coeff)
                except TypeError:
                    raise TypeError(
                        f"non-integer term {(dv, ds)!r}: {coeff!r}; exponents and "
                        "coefficients must be integers"
                    ) from None
                merged[key] = merged.get(key, 0) + coeff
        clean = {}
        for key, coeff in merged.items():
            if char == 2:
                coeff %= 2
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "char", char)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _make(cls, clean: dict, char: int) -> "LaurentPoly":
        # internal fast path: `clean` must hold int pairs -> nonzero reduced ints
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "char", char)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, char: int = 0) -> "LaurentPoly":
        return cls(None, char)

    @classmethod
    def one(cls, char: int = 0) -> "LaurentPoly":
        return cls({(0, 0): 1}, char)

    @classmethod
    def monomial(cls, dv: int, ds: int, coeff: int = 1, char: int = 0) -> "LaurentPoly":
        return cls({(dv, ds): coeff}, char)

    # ------------------------------------------------------------------
    # inspection

    def terms(self) -> dict[Exponents, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0, 0): 1}

    def min_exponents(self) -> Exponents:
        if not self._terms:
            raise ValueError("zero polynomial has no exponent range")
        return (
            min(dv for dv, _ in self._terms),
            min(ds for _, ds in self._terms),
        )

    def max_exponents(self) -> Exponents:
        if not self._terms:
            raise ValueError("zero polynomial has no exponent range")
        return (
            max(dv for dv, _ in self._terms),
            max(ds for _, ds in self._terms),
        )

    def __len__(self) -> int:
        return len(self._terms)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        return self._merge(other, 1)

    def _merge(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other in one pass over other's terms (sign is +-1)."""
        _check_operand(self, other)
        out = dict(self._terms)
        if self.char == 2:  # every coefficient is 1, and -1 = 1
            for key in other._terms:
                if key in out:
                    del out[key]
                else:
                    out[key] = 1
        else:
            get = out.get
            for key, coeff in other._terms.items():
                c = get(key, 0) + sign * coeff
                if c:
                    out[key] = c
                else:
                    del out[key]
        return LaurentPoly._make(out, self.char)

    def __neg__(self):
        if self.char == 2:
            return self
        return LaurentPoly._make({k: -c for k, c in self._terms.items()}, self.char)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __mul__(self, other):
        _check_operand(self, other)
        out: dict[Exponents, int] = {}
        get = out.get
        for (av, as_), ac in self._terms.items():
            for (bv, bs), bc in other._terms.items():
                key = (av + bv, as_ + bs)
                out[key] = get(key, 0) + ac * bc
        if self.char == 2:
            out = {k: c % 2 for k, c in out.items()}
        return LaurentPoly._make({k: c for k, c in out.items() if c}, self.char)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers only exist for monomials; shift exponents instead")
        if exponent == 0:
            return LaurentPoly.one(self.char)
        # left to right over the bits below the leading one: a square per
        # bit and a product by the base per set bit, so p ** 1 is p itself
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            _check_operand(self, other)  # raises the TypeError
        return self.char == other.char and self._terms == other._terms

    def __hash__(self):
        return hash((self.char, frozenset(self._terms.items())))

    # ------------------------------------------------------------------
    # substitutions and coefficient-ring changes

    def scale_exponents(self, v_mult: int, s_mult: int) -> "LaurentPoly":
        """Substitute v -> v^v_mult and s -> s^s_mult (both nonzero).

        Nonzero multipliers map distinct exponents to distinct exponents, so
        no terms merge and the clean terms stay clean.
        """
        if v_mult == 0 or s_mult == 0:
            raise ValueError("exponent multipliers must be nonzero")
        return LaurentPoly._make(
            {(dv * v_mult, ds * s_mult): c for (dv, ds), c in self._terms.items()},
            self.char,
        )

    def shift(self, dv: int, ds: int) -> "LaurentPoly":
        """Multiply by the monomial v^dv * s^ds."""
        return LaurentPoly._make(
            {(a + dv, b + ds): c for (a, b), c in self._terms.items()},
            self.char,
        )

    def reduce_mod2(self) -> "LaurentPoly":
        return LaurentPoly(self._terms, char=2)

    def content(self) -> int:
        """gcd of the coefficient magnitudes (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = gcd(g, abs(c))
        return g

    # ------------------------------------------------------------------
    # exact division

    def try_div(self, divisor: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Exact quotient self/divisor, or None when it does not divide.

        Long division in lex order on (v-exponent, s-exponent), with both
        operands shifted so that their lowest exponents are (0, 0).  In a
        domain the lowest and highest exponents of a product add, so an
        exact quotient, shifted the same way, has every term inside the box
        [0, span_v(self) - span_v(divisor)] x [0, span_s(self) - span_s(divisor)],
        where span_x is the highest minus the lowest x-exponent.  Every
        quotient term of an exact division is a term of the quotient, so
        an empty box, or a quotient term outside it, means no quotient
        exists.  The remainder's leading term is taken from a heap with
        lazy deletion, so each step costs the divisor's length (times a
        logarithm), not a scan of the remainder.
        """
        if not isinstance(divisor, LaurentPoly) or divisor.char != self.char:
            raise ValueError("divisor must share the characteristic")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.char)
        fmin, fmax = self.min_exponents(), self.max_exponents()
        gmin, gmax = divisor.min_exponents(), divisor.max_exponents()
        box_v = (fmax[0] - fmin[0]) - (gmax[0] - gmin[0])
        box_s = (fmax[1] - fmin[1]) - (gmax[1] - gmin[1])
        if box_v < 0 or box_s < 0:
            return None
        char2 = self.char == 2
        rem = {(dv - fmin[0], ds - fmin[1]): c for (dv, ds), c in self._terms.items()}
        gterms = [((dv - gmin[0], ds - gmin[1]), c) for (dv, ds), c in divisor._terms.items()]
        glead, glc = max(gterms)
        heap = [(-dv, -ds) for dv, ds in rem]
        heapify(heap)
        quo: dict[Exponents, int] = {}
        while heap:
            ndv, nds = heappop(heap)
            rlc = rem.get((-ndv, -nds))
            if rlc is None:
                continue  # stale entry of a cancelled term
            edv = -ndv - glead[0]
            eds = -nds - glead[1]
            if not (0 <= edv <= box_v and 0 <= eds <= box_s):
                return None
            # over GF(2) both leading coefficients are 1, so qc is rlc
            if rlc % glc:
                return None
            qc = rlc // glc
            quo[(edv, eds)] = qc
            for (gdv, gds), gc in gterms:
                key = (gdv + edv, gds + eds)
                old = rem.get(key)
                nc = (0 if old is None else old) - qc * gc
                if char2:
                    nc %= 2
                if nc:
                    if old is None:
                        heappush(heap, (-key[0], -key[1]))
                    rem[key] = nc
                else:
                    del rem[key]  # only a present term can cancel to 0
        shift_v = fmin[0] - gmin[0]
        shift_s = fmin[1] - gmin[1]
        return LaurentPoly._make(
            {(dv + shift_v, ds + shift_s): c for (dv, ds), c in quo.items()},
            self.char,
        )

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        quotient = self.try_div(divisor)
        if quotient is None:
            raise ValueError("not exactly divisible")
        return quotient

    # ------------------------------------------------------------------
    # rendering

    @staticmethod
    def _term_str(magnitude: int, exponents: Exponents) -> str:
        dv, ds = exponents
        parts = []
        if dv:
            parts.append("v" if dv == 1 else f"v^{dv}")
        if ds:
            parts.append("s" if ds == 1 else f"s^{ds}")
        if not parts:
            return str(magnitude)
        if magnitude != 1:
            parts.insert(0, str(magnitude))
        return "*".join(parts)

    def render(self) -> str:
        # canonical text: terms ascending by (v-exponent, s-exponent),
        # joined by " + ", each term carrying its own sign
        if not self._terms:
            return "0"
        pieces = []
        for exponents, coeff in sorted(self._terms.items()):
            body = self._term_str(abs(coeff), exponents)
            pieces.append(("-" + body) if coeff < 0 else body)
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r}, char={self.char})"


def vpow(exponent: int = 1, char: int = 0) -> LaurentPoly:
    """The monomial v^exponent."""
    return LaurentPoly.monomial(exponent, 0, 1, char)


def spow(exponent: int = 1, char: int = 0) -> LaurentPoly:
    """The monomial s^exponent."""
    return LaurentPoly.monomial(0, exponent, 1, char)


def z_poly(char: int = 0) -> LaurentPoly:
    """The skein parameter s - s^-1."""
    return spow(1, char) - spow(-1, char)


class RingElem:
    """A quotient num/den of Laurent polynomials with matching characteristic.

    Equality is mathematical, independent of the stored representative:
    numerators are compared when the denominators agree (exact in a
    domain), and cross-multiplied otherwise.  A RingElem is not hashable;
    key a dict by a LaurentPoly numerator instead.  Construction normalizes the
    representative: common integer content and shared s^2r - 1 style
    factors are cancelled, the denominator is shifted to nonnegative
    corner exponents, its leading coefficient is made positive, and a
    denominator that divides the numerator exactly is cleared to 1.

    Every RingElem is built reduced.  A polynomial over 1 is already
    reduced: the constructor stores a numerator given with no denominator
    as it is, and ``_make`` stores the sum or product of two polynomials
    over 1.  Every other value goes through ``_reduce_fraction``, the one
    normaliser.  A sum over a shared denominator, a/d +- b/d, is reduced
    from (a +- b)/d, so a factor that reduction cannot cancel, such as
    v + 1, stays once in the sum's denominator, where cross-multiplying
    would square it; every other sum or product is reduced from the
    cross-multiplied pair.

    Every operand is a RingElem: there is no int or LaurentPoly coercion,
    no reflected operator, no negation and no negative power.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Optional[LaurentPoly] = None):
        if not isinstance(num, LaurentPoly):
            raise TypeError("numerator must be a LaurentPoly")
        if den is None:
            den = LaurentPoly.one(num.char)  # a polynomial over 1 is reduced
        else:
            _check_operand(num, den)
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            num, den = _reduce_fraction(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    @classmethod
    def _make(cls, num: LaurentPoly, den: LaurentPoly) -> "RingElem":
        # fast path for a sum or product of two polynomials over 1: `num` is
        # that polynomial and `den` is 1, a pair _reduce_fraction keeps as is
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    # ------------------------------------------------------------------

    @property
    def char(self) -> int:
        return self.num.char

    @classmethod
    def zero(cls, char: int = 0) -> "RingElem":
        return cls(LaurentPoly.zero(char))

    @classmethod
    def one(cls, char: int = 0) -> "RingElem":
        return cls(LaurentPoly.one(char))

    # ------------------------------------------------------------------
    # field operations

    def _sum(self, other: "RingElem", sign: int) -> "RingElem":
        """self + sign * other for sign 1 or -1, by the cheapest case that applies."""
        _check_operand(self, other)
        a, d1 = self.num, self.den
        b = other.num if sign > 0 else -other.num
        d2 = other.den
        if d1.is_one() and d2.is_one():
            return RingElem._make(a + b, d1)
        if d1 == d2:
            return RingElem(a + b, d1)
        return RingElem(a * d2 + b * d1, d1 * d2)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __mul__(self, other):
        _check_operand(self, other)
        num = self.num * other.num
        if self.den.is_one() and other.den.is_one():
            return RingElem._make(num, self.den)
        return RingElem(num, self.den * other.den)

    def __truediv__(self, other):
        _check_operand(self, other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero element")
        return RingElem(self.num * other.den, self.den * other.num)

    def __pow__(self, exponent: int):
        # LaurentPoly.__pow__ refuses a negative or non-int exponent
        return RingElem(self.num ** exponent, self.den ** exponent)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            _check_operand(self, other)  # raises the TypeError
        if other.char != self.char:
            return False
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def to_mod2(self) -> "RingElem":
        """Reduce coefficients mod 2; characteristic-0 elements only."""
        if self.char != 0:
            raise ValueError("element is already mod 2")
        den2 = self.den.reduce_mod2()
        if den2.is_zero():
            raise ValueError("denominator vanishes mod 2")
        return RingElem(self.num.reduce_mod2(), den2)

    def doubling_map(self) -> "RingElem":
        """The coefficient-ring endomorphism v -> v^2, s -> s^2 (mod 2 only).

        Over GF(2) this is the squaring (Frobenius) map, hence a ring
        homomorphism, and it is injective because the ring is a domain.
        """
        if self.char != 2:
            raise ValueError("the doubling map is defined on the mod-2 ring")
        return RingElem(self.num.scale_exponents(2, 2), self.den.scale_exponents(2, 2))

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RingElem({self.render()!r}, char={self.char})"


def _divisible_by_s_period(poly: LaurentPoly, period: int) -> bool:
    """Whether s^period - 1 divides poly, in O(len(poly)).

    Modulo s^period - 1 (monic in s) the remainder of poly is its fold:
    each term v^a*s^b lands on v^a*s^(b mod period).  So the division is
    exact iff every folded (v-exponent, s-exponent mod period) coefficient
    is 0, mod 2 in characteristic 2.
    """
    folded: dict[Exponents, int] = {}
    for (dv, ds), c in poly._terms.items():
        key = (dv, ds % period)
        folded[key] = folded.get(key, 0) + c
    if poly.char == 2:
        return not any(c % 2 for c in folded.values())
    return not any(folded.values())


def _reduce_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    char = num.char
    one = LaurentPoly.one(char)
    if num.is_zero():
        return LaurentPoly.zero(char), one

    # each pass returns or divides den by some s^(2r) - 1 (r >= 1), which
    # shrinks den's span in s, so the loop ends
    while True:
        # shared integer content
        if char == 0:
            g = gcd(num.content(), den.content())
            if g > 1:
                num = LaurentPoly({k: c // g for k, c in num.terms().items()})
                den = LaurentPoly({k: c // g for k, c in den.terms().items()})
        # shift so den has corner exponents (0, 0)
        dmin = den.min_exponents()
        if dmin != (0, 0):
            num = num.shift(-dmin[0], -dmin[1])
            den = den.shift(-dmin[0], -dmin[1])
        # positive leading coefficient for den
        if char == 0 and den._terms[max(den._terms)] < 0:
            num, den = -num, -den
        if den.is_one():
            return num, den
        # s^2 - 1 divides every s^(2r) - 1, so when it divides den but not
        # num, neither den nor any fold candidate below divides num, and the
        # loop would return this pair; this holds over Z and over GF(2)
        if _divisible_by_s_period(den, 2) and not _divisible_by_s_period(num, 2):
            return num, den
        # full cancellation
        quotient = num.try_div(den)
        if quotient is not None:
            return quotient, one
        # cancel one shared s^(2r) - 1 factor, largest candidates first;
        # the fold test rules a candidate out before any division is tried
        span = den.max_exponents()[1] - den.min_exponents()[1]
        for r in range(span // 2, 0, -1):
            if _divisible_by_s_period(den, 2 * r) and _divisible_by_s_period(num, 2 * r):
                candidate = spow(2 * r, char) - one
                num, den = num.exact_div(candidate), den.exact_div(candidate)
                break
        else:
            return num, den
