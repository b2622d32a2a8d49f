"""Framed polynomial evaluators against hand-resolved and structural oracles."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinkit.corpus import (
    braid_closure,
    corpus_names,
    empty_link,
    figure_eight,
    hopf_minus,
    hopf_plus,
    load_corpus,
    trefoil,
    unknot,
    unlink,
)
from skeinkit.eigen import (
    delta_homfly,
    delta_kauffman,
    homfly_meridian_eigenvalue,
    kauffman_meridian_eigenvalue,
)
from skeinkit.partition import Partition
from skeinkit.ring import RingElem, vpow, z_poly
from skeinkit.skein_eval import (
    EvalConfig,
    SkeinBudgetError,
    adjoint_homfly,
    clear_caches,
    homfly,
    kauffman,
    skein_relation_probe,
)
from skeinkit.verify import build_satellite_row

dH = delta_homfly()
dK = delta_kauffman()
z = RingElem(z_poly())
v = RingElem(vpow(1))
vi = RingElem(vpow(-1))
one = RingElem.one()


class TestHomflyOracles:
    """Values resolved by hand through the crossing relation."""

    def test_empty_and_circles(self):
        assert homfly(empty_link()) == one
        assert homfly(unknot()) == dH
        assert homfly(unlink(3)) == dH ** 3

    def test_hopf_links(self):
        assert homfly(hopf_plus()) == dH * dH + z * vi * dH
        assert homfly(hopf_minus()) == dH * dH - z * v * dH

    def test_trefoil(self):
        assert homfly(trefoil()) == dH * (vi + vi - v + vi * z * z)

    def test_figure_eight(self):
        assert homfly(figure_eight()) == dH * (vi * vi + v * v - one - z * z)

    def test_curl_factors(self):
        assert homfly(unknot().with_curl(0, 1)) == vi * dH
        assert homfly(unknot().with_curl(0, -1)) == v * dH

    def test_mirror_inverts_v(self):
        assert homfly(trefoil().mirror()) == dH * (v + v - vi + v * z * z)


class TestKauffmanOracles:
    def test_empty_and_circle(self):
        assert kauffman(empty_link()) == one
        assert kauffman(unknot()) == dK

    def test_hopf_links(self):
        want = dK * dK + z * dK * (vi - v)
        assert kauffman(hopf_plus()) == want
        # the framed value is fixed by v -> 1/v, s -> 1/s, so the mirror
        # diagram evaluates identically
        assert kauffman(hopf_minus()) == want

    def test_trefoil(self):
        # switch one crossing: positive curl; one smoothing: the hopf
        # diagram; the other caps the clasp into two negative kinks
        smooth_plus = dK * dK + z * dK * (vi - v)
        smooth_minus = v * v * dK
        assert kauffman(trefoil()) == vi * dK + z * (smooth_plus - smooth_minus)

    def test_curl_factors(self):
        assert kauffman(unknot().with_curl(0, 1)) == vi * dK
        assert kauffman(unknot().with_curl(0, -1)) == v * dK

    def test_orientation_independence(self):
        assert kauffman(hopf_plus().reverse_component(0)) == kauffman(hopf_plus())
        assert kauffman(trefoil().reverse_component(0)) == kauffman(trefoil())


class TestMeridianAnchors:
    """A meridian bead multiplies the invariant by its eigenvalue."""

    def test_kauffman_powers(self):
        c1 = kauffman_meridian_eigenvalue(Partition((1,)))
        for r in (1, 2):
            got = kauffman(unknot().with_meridians(0, r))
            assert got == dK * c1 ** r

    def test_homfly_powers(self):
        s1 = homfly_meridian_eigenvalue(Partition((1,)), Partition(()))
        for r in (1, 2):
            got = homfly(unknot().with_meridians(0, r))
            assert got == dH * s1 ** r

    def test_reversed_meridian(self):
        s1_rev = homfly_meridian_eigenvalue(Partition(()), Partition((1,)))
        got = homfly(hopf_plus().reverse_component(0))
        assert got == dH * s1_rev


class TestStructure:
    def test_split_multiplicativity(self):
        u = hopf_plus().disjoint_union(trefoil())
        assert homfly(u) == homfly(hopf_plus()) * homfly(trefoil())
        assert kauffman(u) == kauffman(hopf_plus()) * kauffman(trefoil())

    def test_memo_off_agrees(self):
        cfg = EvalConfig(memo=False)
        clear_caches()
        assert homfly(figure_eight(), cfg) == homfly(figure_eight())
        assert kauffman(trefoil(), cfg) == kauffman(trefoil())
        assert homfly(trefoil(), cfg) == dH * (vi + vi - v + vi * z * z)
        assert kauffman(figure_eight(), cfg) == kauffman(figure_eight())

    def test_budget_enforced(self):
        with pytest.raises(SkeinBudgetError):
            homfly(trefoil(), EvalConfig(max_crossings=2))
        with pytest.raises(SkeinBudgetError):
            kauffman(figure_eight(), EvalConfig(max_crossings=3))

    @pytest.mark.parametrize("ci", [0, 1, 2])
    def test_relation_probe_trefoil(self, ci):
        assert skein_relation_probe(trefoil(), ci, "oriented")["holds"]
        assert skein_relation_probe(trefoil(), ci, "unoriented")["holds"]

    def test_probe_rejects_bad_index(self):
        with pytest.raises(ValueError):
            skein_relation_probe(trefoil(), 5)

    def test_recursion_limit_restored(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(3000)
        try:
            homfly(trefoil())
            kauffman(trefoil())
            adjoint_homfly(hopf_plus())
            skein_relation_probe(figure_eight(), 0, "unoriented")
            assert sys.getrecursionlimit() == 3000
        finally:
            sys.setrecursionlimit(old)

    def test_probe_rejects_unknown_flavor(self):
        with pytest.raises(ValueError):
            skein_relation_probe(trefoil(), 0, "Oriented")


class TestAdjoint:
    def test_unknot_golden(self):
        assert adjoint_homfly(unknot()) == dH * dH - one

    def test_empty(self):
        assert adjoint_homfly(empty_link()) == one

    @pytest.mark.parametrize(
        "make", [unknot, lambda: unlink(2), hopf_plus, hopf_minus, trefoil, figure_eight]
    )
    def test_mod2_matches_doubled_kauffman(self, make):
        d = make()
        cfg = EvalConfig(max_crossings=64)
        adj = adjoint_homfly(d, cfg).to_mod2()
        dbl = kauffman(d, cfg).to_mod2().doubling_map()
        assert adj == dbl

    @pytest.mark.parametrize("r", [1, 2])
    def test_mod2_satellite_rows(self, r):
        d = unknot().with_meridians(0, r).cable(0, 2)
        cfg = EvalConfig(max_crossings=64)
        adj = adjoint_homfly(d, cfg).to_mod2()
        dbl = kauffman(d, cfg).to_mod2().doubling_map()
        assert adj == dbl


def _wrapper_route_adjoint(d, config):
    """adjoint_homfly the long way: every term built by the public surgery
    wrappers and evaluated by homfly, the terms summed as RingElems."""
    n = d.n_components
    total = RingElem.zero()
    for mask in range(1 << n):
        kept = [i for i in range(n) if mask & (1 << i)]
        term = d
        for i in reversed(range(n)):
            if i not in kept:
                term = term.delete_component(i)
        for pos in reversed(range(len(kept))):
            term = term.cable(pos, 2).reverse_component(pos + 1)
        value = homfly(term, config)
        total = total - value if (n - len(kept)) % 2 else total + value
    return total


def _oracle_links():
    """Every corpus link and every satellite row of 1 to 4 crossings."""
    links = []
    for name in corpus_names():
        d = load_corpus(name)
        links.append(d)
        for comp in range(d.n_components):
            for r in range(4):
                row = build_satellite_row(d, comp, r)
                if 0 < len(row.crossings) <= 4:
                    links.append(row)
    return links


class TestAdjointOracle:
    """adjoint_homfly against an independent route to the same sum."""

    @pytest.mark.parametrize("memo", [True, False], ids=["memo-on", "memo-off"])
    @pytest.mark.parametrize("d", _oracle_links(), ids=lambda d: d.name)
    def test_matches_wrapper_route(self, d, memo):
        cfg = EvalConfig(max_crossings=64, memo=memo)
        got = adjoint_homfly(d, cfg)
        want = _wrapper_route_adjoint(d, cfg)
        assert got == want
        assert got.render() == want.render()


word_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4
)


class TestBraidProperties:
    @given(word=word_strategy)
    @settings(max_examples=40, deadline=None)
    def test_union_with_circle_multiplies_by_delta(self, word):
        d = braid_closure(3, word, "w")
        assert homfly(d.disjoint_union(unknot())) == homfly(d) * dH
        assert kauffman(d.disjoint_union(unknot())) == kauffman(d) * dK

    @given(word=word_strategy)
    @settings(max_examples=40, deadline=None)
    def test_mirror_inverts_variables(self, word):
        d = braid_closure(3, word, "w")
        val = homfly(d)
        mirrored = homfly(d.mirror())
        flipped = RingElem(
            val.num.scale_exponents(-1, -1), val.den.scale_exponents(-1, -1)
        )
        assert mirrored == flipped

    @given(word=word_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_relations_hold_anywhere(self, word, data):
        d = braid_closure(3, word, "w")
        ci = data.draw(st.integers(min_value=0, max_value=len(d.crossings) - 1))
        assert skein_relation_probe(d, ci, "oriented")["holds"]
        assert skein_relation_probe(d, ci, "unoriented")["holds"]

    @given(word=word_strategy)
    @settings(max_examples=20, deadline=None)
    def test_kauffman_ignores_orientation(self, word):
        d = braid_closure(3, word, "w")
        r = d.reverse_component(0)
        assert kauffman(r) == kauffman(d)


def _letters(n_strands):
    return st.sampled_from([s * i for i in range(1, n_strands) for s in (1, -1)])


def _long_word(n_strands):
    return st.lists(_letters(n_strands), min_size=8, max_size=14)


def _both(word, n_strands, config=None):
    d = braid_closure(n_strands, word, "w")
    return homfly(d, config), kauffman(d, config)


def _splice(word, at, middle):
    cut = at % (len(word) + 1)
    return word[:cut] + middle + word[cut:]


class TestBraidRelations:
    """Moves the engine never performs must leave both values unchanged.

    Words of 8-14 letters reach past the memo's 4-crossing keying threshold,
    so these also exercise the canonical keys.
    """

    @given(word=_long_word(4), at=st.integers(0, 14), a=st.sampled_from([1, -1]),
           b=st.sampled_from([3, -3]))
    @settings(max_examples=30, deadline=None)
    def test_far_commutation(self, word, at, a, b):
        assert _both(_splice(word, at, [a, b]), 4) == _both(_splice(word, at, [b, a]), 4)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_braid_relation_r3(self, n, data):
        word = data.draw(_long_word(n))
        at = data.draw(st.integers(0, 14))
        i = data.draw(st.integers(1, n - 2))
        e = data.draw(st.sampled_from([1, -1]))
        left = _splice(word, at, [e * i, e * (i + 1), e * i])
        right = _splice(word, at, [e * (i + 1), e * i, e * (i + 1)])
        assert _both(left, n) == _both(right, n)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_conjugation(self, n, data):
        word = data.draw(_long_word(n))
        h = data.draw(st.lists(_letters(n), min_size=1, max_size=2))
        conjugated = h + word + [-g for g in reversed(h)]
        assert _both(conjugated, n) == _both(word, n)

    @given(word=_long_word(3), e=st.sampled_from([1, -1]))
    @settings(max_examples=30, deadline=None)
    def test_markov_stabilisation(self, word, e):
        hom, kau = _both(word, 3)
        factor = vi if e > 0 else v
        assert _both(word + [3 * e], 4) == (hom * factor, kau * factor)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_memo_off_agrees(self, n, data):
        word = data.draw(_long_word(n))
        assert _both(word, n, EvalConfig(memo=False)) == _both(word, n)
