"""Branching, expansion plans, and formal pair products."""

import hashlib
import json

import pytest

from oracles import coefficient, constant, isolating_siblings
from skeinkit.annulus import (
    AnnulusVecK,
    ExpansionPlan,
    branch_mul_y1,
    build_satellite_row,
    expand_ylambda,
    homfly_branching_expand,
    hsr_structure_check,
    realize_symbolic,
)
from skeinkit import annulus, eigen, ring
from skeinkit.corpus import hopf_plus, unknot
from skeinkit.eigen import (
    check_eigenvalue_distinctness,
    eigenvalue_table,
    eval_polynomial,
    isolating_polynomial,
    kauffman_meridian_eigenvalue,
)
from skeinkit.partition import Partition, partitions_up_to
from skeinkit.ring import RingElem, vpow
from skeinkit.skein_eval import kauffman
from skeinkit.verify import _solve


def P(*parts) -> Partition:
    return Partition(tuple(parts))


def nonempty_shapes(max_size):
    return [p for p in partitions_up_to(max_size) if not p.is_empty()]


def anchored_targets(max_size):
    """Every (target, anchor) up to max_size cells, the default anchor None first."""
    return [
        (target, anchor)
        for target in nonempty_shapes(max_size)
        for anchor in [None] + (target.cells_removable() if target.size() > 1 else [])
    ]


def plans_up_to(max_size):
    """Every plan of a target up to max_size cells, default and forced anchors."""
    return [expand_ylambda(target, anchor) for target, anchor in anchored_targets(max_size)]


def reference_meridian_act(coeffs: dict, r: int) -> dict:
    """r encircling meridians: each coefficient times its shape's eigenvalue**r."""
    if r < 0:
        raise ValueError(f"meridian count must be nonnegative, got {r}")
    return {
        shape: coeff * kauffman_meridian_eigenvalue(shape) ** r for shape, coeff in coeffs.items()
    }


def reference_realize_symbolic(plan: ExpansionPlan) -> AnnulusVecK:
    """realize_symbolic term by term: the branched vector under each term's
    meridian power, scaled by the term weight, summed over the terms."""
    if plan.is_trivial:
        return AnnulusVecK.basis(plan.target)
    if plan.inner is None:
        inner = AnnulusVecK.basis(plan.anchor)
    else:
        inner = reference_realize_symbolic(plan.inner)
    branched = branch_mul_y1(inner).coeffs
    total: dict = {}
    for r, weight in enumerate(plan.coefficients):
        for shape, value in reference_meridian_act(branched, r).items():
            total[shape] = total.get(shape, RingElem.zero()) + value * weight
    return AnnulusVecK(total)


class TestAnnulusVecK:
    def test_basis_and_zero(self):
        v = AnnulusVecK.basis(P(2))
        assert list(v.coeffs) == [P(2)]
        assert coefficient(v, P(2)) == RingElem.one()
        assert coefficient(v, P(1)).is_zero()
        assert AnnulusVecK({}).coeffs == {}

    def test_key_that_is_not_a_partition_refused(self):
        with pytest.raises(TypeError, match=r"basis keys must be Partitions, got \(2,\)"):
            AnnulusVecK({(2,): RingElem.one()})

    def test_zero_coefficients_are_dropped(self):
        v = AnnulusVecK.basis(P(1))
        assert v.scale(RingElem.zero()).coeffs == {}
        assert AnnulusVecK({P(3): RingElem.zero()}).coeffs == {}

    def test_linear_ops(self):
        two = RingElem(constant(2))
        assert AnnulusVecK.basis(P(1)).scale(two) == AnnulusVecK({P(1): two})
        v = AnnulusVecK({P(1): two, P(2): RingElem.one()})
        assert coefficient(v, P(1)) == two
        assert coefficient(v, P(2)) == RingElem.one()
        w = v.scale(RingElem(vpow(1)))
        assert coefficient(w, P(2)) == RingElem(vpow(1))

    def test_immutable(self):
        v = AnnulusVecK.basis(P(1))
        with pytest.raises(AttributeError):
            v.coeffs = {}


class TestBranching:
    def test_width_one_branches_three_ways(self):
        out = branch_mul_y1(AnnulusVecK.basis(P(1)))
        assert sorted(out.coeffs) == sorted([P(), P(2), P(1, 1)])
        assert all(coeff == RingElem.one() for coeff in out.coeffs.values())

    def test_empty_branches_to_width_one(self):
        out = branch_mul_y1(AnnulusVecK.basis(P()))
        assert list(out.coeffs) == [P(1)]

    def test_hook_shape_branches_five_ways(self):
        out = branch_mul_y1(AnnulusVecK.basis(P(2, 1)))
        assert sorted(out.coeffs) == sorted([P(3, 1), P(2, 2), P(2, 1, 1), P(2), P(1, 1)])

    def test_linearity(self):
        two = RingElem(constant(2))
        combined = branch_mul_y1(AnnulusVecK({P(2): two, P(): RingElem.one()}))
        a, b = branch_mul_y1(AnnulusVecK.basis(P(2))), branch_mul_y1(AnnulusVecK.basis(P()))
        expected = {
            shape: two * coefficient(a, shape) + coefficient(b, shape)
            for shape in {*a.coeffs, *b.coeffs}
        }
        assert combined == AnnulusVecK(expected)


class TestMeridianAct:
    """The test-side meridian action that reference_realize_symbolic uses."""

    def test_zero_power_is_identity(self):
        v = {P(2): RingElem.one(), P(1): RingElem(vpow(2))}
        assert reference_meridian_act(v, 0) == v

    def test_single_basis_vector_scales_by_eigenvalue_power(self):
        c1 = kauffman_meridian_eigenvalue(P(1))
        out = reference_meridian_act({P(1): RingElem.one()}, 2)
        assert out[P(1)] == c1 * c1

    def test_acts_diagonally(self):
        out = reference_meridian_act({P(2): RingElem.one(), P(): RingElem.one()}, 1)
        assert out == {shape: kauffman_meridian_eigenvalue(shape) for shape in (P(2), P())}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            reference_meridian_act({P(1): RingElem.one()}, -1)


class TestExpansionPlans:
    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            expand_ylambda(P())

    def test_width_one_is_trivial(self):
        plan = expand_ylambda(P(1))
        assert plan.is_trivial
        assert plan.coefficients == ()
        assert plan.scale == RingElem.one()
        assert plan.full_scale() == RingElem.one()
        assert plan.inner is None
        with pytest.raises(ValueError):
            expand_ylambda(P(1), P())

    def test_row_two_plan_structure(self):
        plan = expand_ylambda(P(2))
        assert plan.anchor == P(1)
        assert plan.inner is None
        assert [t["meridians"] for t in plan.to_dict()["terms"]] == [0, 1, 2]
        assert plan.coefficients == isolating_polynomial(P(2), P(1))
        assert plan.scale == eval_polynomial(plan.coefficients, kauffman_meridian_eigenvalue(P(2)))

    def test_row_two_terms_kill_siblings(self):
        # summing coefficient * eigenvalue^r must vanish on the two
        # sibling shapes and hit the stage scale on the target
        plan = expand_ylambda(P(2))

        def apply(shape):
            c = kauffman_meridian_eigenvalue(shape)
            total = RingElem.zero()
            for r, coeff in enumerate(plan.coefficients):
                total = total + coeff * c ** r
            return total

        assert apply(P(1, 1)).is_zero()
        assert apply(P()).is_zero()
        assert apply(P(2)) == plan.scale

    def test_hook_plan_nests_default_anchor(self):
        plan = expand_ylambda(P(2, 1))
        assert plan.anchor == P(2)
        assert plan.inner is not None
        assert plan.inner.target == P(2)
        assert plan.inner.inner is None
        assert len(plan.coefficients) == 3
        assert plan.full_scale() == plan.scale * plan.inner.scale

    def test_default_anchor_shrinks_the_last_row(self):
        for target in nonempty_shapes(5):
            if target.size() > 1:
                *rows, last = target.parts
                assert expand_ylambda(target).anchor == P(*rows, *([last - 1] if last > 1 else []))

    def test_anchor_choice_honored(self):
        plan = expand_ylambda(P(2, 1), P(1, 1))
        assert plan.anchor == P(1, 1)
        assert plan.inner.target == P(1, 1)

    def test_bad_anchor_rejected(self):
        with pytest.raises(ValueError):
            expand_ylambda(P(2, 1), P(1))

    def test_chain_counts(self):
        assert len(expand_ylambda(P(1)).lm_words()) == 1
        assert len(expand_ylambda(P(2)).lm_words()) == 3
        assert len(expand_ylambda(P(2, 1)).lm_words()) == 9


class TestRenderingPinned:
    """Rendered plans and eigenvalues, pinned by sha256 of their text.

    The hashes were taken before the ring's division and normalisation
    kernels were reworked; any change to a rendered fraction shows here.
    """

    def test_plans_up_to_size_4(self):
        lines = [json.dumps(plan.to_dict(), sort_keys=True) for plan in plans_up_to(4)]
        assert len(lines) == 24
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "034d5413320f4949f0758f75239afcf980e873e55bac2b8bb839b6f41242400e"

    def test_plans_up_to_size_6(self):
        # plans are where a shared denominator with a factor other than a
        # z-power could first reach a rendered byte; hash taken before sums
        # over a shared denominator stopped cross-multiplying
        lines = [json.dumps(plan.to_dict(), sort_keys=True) for plan in plans_up_to(6)]
        assert len(lines) == 73
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "17f8b87c150297b99e159aa2a61022b16c73d2dbe234221ca2c499e635112061"

    def test_realized_plans_up_to_size_6(self):
        # hash taken before isolating polynomials were evaluated over one
        # z-power denominator
        lines = [repr(realize_symbolic(plan)) for plan in plans_up_to(6)]
        assert len(lines) == 73
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "310e8682ca55a8f0aedfebc224ee5158c55d21bce40ece979def6a2849a08152"

    def test_isolating_polynomials_up_to_size_6(self):
        # hashes taken before the coefficients were built on numerators,
        # over the repr of a record that also held the anchor (the default
        # one for None) and each sibling with its eigenvalue
        lines, values = [], []
        for target, anchor in anchored_targets(6):
            anchor = min(target.cells_removable()) if anchor is None else anchor
            c = isolating_polynomial(target, anchor)
            roots = tuple((p, kauffman_meridian_eigenvalue(p)) for p in isolating_siblings(target, anchor))
            lines.append(
                f"IsolatingPolynomial(target={target!r}, anchor={anchor!r}, roots={roots!r}, coefficients={c!r})"
            )
            values.append(repr(eval_polynomial(c, kauffman_meridian_eigenvalue(target))))
        assert len(lines) == 73
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "15fe7d9b6a1649a5104c89559cbedaca20ecd85e7be1ea46a2b18a9359f60050"
        digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
        assert digest == "090e3283771946c08a728d73294e847ddfdd75fb8eea536cbfa8bf2717fbc844"

    def test_eigenvalue_table_to_size_8(self):
        rows = eigenvalue_table(8)
        text = "\n".join(f"{p}\t{value.render()}\t{value.to_mod2().render()}" for p, value in rows)
        assert len(rows) == 67
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "fbd4ef995eec98e8b561245070fb10bdf88e4058d3100eee3ac392a9f30730e6"


class TestAnnulusWork:
    """Fraction normalisations in the annulus layer, pinned as an upper bound.

    Eigenvalues, isolating coefficients and their values are each
    normalised once; a change that normalises per arithmetic step again
    shows here.
    """

    def test_normalisations_per_plan_pass(self, monkeypatch):
        calls = 0
        real = ring._reduce_fraction

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(ring, "_reduce_fraction", counting)
        for target, anchor in anchored_targets(4):
            realize_symbolic(expand_ylambda(target, anchor))
        check_eigenvalue_distinctness(9)
        assert calls <= 918  # 1,036 with sibling roots kept; 2,659 when every step was normalised

    def test_eigenvalues_per_plan_pass(self, monkeypatch):
        # one eigenvalue per branched shape and one per level's scale; the
        # isolating coefficients are built from numerators alone
        calls = 0
        real = eigen.kauffman_meridian_eigenvalue

        def counting(shape):
            nonlocal calls
            calls += 1
            return real(shape)

        for module in (annulus, eigen):
            monkeypatch.setattr(module, "kauffman_meridian_eigenvalue", counting)
        for target, anchor in anchored_targets(4):
            realize_symbolic(expand_ylambda(target, anchor))
        assert calls <= 226  # 344 when each plan also held its siblings' eigenvalues


class TestRealizeSymbolic:
    def test_trivial_plan_gives_bare_vector(self):
        assert realize_symbolic(expand_ylambda(P(1))) == AnnulusVecK.basis(P(1))

    def test_row_two_plan_gives_scaled_target(self):
        plan = expand_ylambda(P(2))
        want = AnnulusVecK.basis(P(2)).scale(plan.scale)
        assert realize_symbolic(plan) == want

    def test_nested_plan_multiplies_stage_scales(self):
        plan = expand_ylambda(P(2, 1))
        want = AnnulusVecK.basis(P(2, 1)).scale(plan.scale * plan.inner.scale)
        assert realize_symbolic(plan) == want

    @pytest.mark.parametrize("shape", nonempty_shapes(4), ids=str)
    def test_identity_for_every_anchor_choice(self, shape):
        # exhaustive over all targets up to four cells and all one-cell
        # subshapes: the realized vector is exactly the scaled target
        anchors = [None] if shape.size() == 1 else shape.cells_removable()
        for anchor in anchors:
            plan = expand_ylambda(shape, anchor)
            got = realize_symbolic(plan)
            assert got == AnnulusVecK.basis(shape).scale(plan.full_scale())

    def test_matches_term_by_term_reference(self):
        # every target up to four cells, every anchor: equal values and
        # identical representatives
        for plan in plans_up_to(4):
            got, want = realize_symbolic(plan), reference_realize_symbolic(plan)
            assert got == want
            assert repr(got) == repr(want)


class TestLMWords:
    def test_render_bare_core(self):
        assert expand_ylambda(P(1)).lm_words() == ["[1]"]

    def test_render_row_two_terms(self):
        words = expand_ylambda(P(2)).lm_words()
        assert words == ["[1] l^2", "[1] l^2 m^1", "[1] l^2 m^2"]

    def test_nested_words_list_innermost_first(self):
        words = expand_ylambda(P(2, 1)).lm_words()
        assert len(words) == 9
        assert words[0] == "[1] l^2 l^2"
        assert "[1] l^2 m^2 l^2 m^2" in words

    def test_words_need_no_coefficient_products(self, monkeypatch):
        plan = expand_ylambda(P(2, 1))

        def refuse(self, other):
            raise AssertionError("lm_words multiplied coefficients")

        monkeypatch.setattr(RingElem, "__mul__", refuse)
        assert len(plan.lm_words()) == 9

    def test_words_spell_chain_counts(self):
        # every target up to five cells, every anchor: the words spell each
        # combination of the levels' meridian counts, innermost level
        # first, with the outermost count varying slowest
        for plan in plans_up_to(5):
            levels = []
            level = plan
            while level is not None and not level.is_trivial:
                levels.append(level)
                level = level.inner
            chains = [()]
            for level in reversed(levels):
                chains = [
                    counts + (r,)
                    for r in range(len(level.coefficients))
                    for counts in chains
                ]
            want = []
            for counts in chains:
                letters = ["[1]"]
                for r in counts:
                    letters += ["l^2"] + ([f"m^{r}"] if r else [])
                want.append(" ".join(letters))
            assert plan.lm_words() == want


class TestRealizeDiagrams:
    """A plan realized as honest diagrams: its level's satellite rows."""

    @pytest.mark.parametrize("shape", [P(2), P(1, 1)], ids=str)
    @pytest.mark.parametrize("link", [unknot, hopf_plus], ids=lambda f: f.__name__)
    def test_weighted_sum_is_scaled_target_value(self, link, shape):
        # the isolating promise: the rows r = 0..2 weighted by the plan's
        # coefficients sum to full_scale() times the decorated value, here
        # solved from the same rows in the anchor's three branched shapes
        d = link()
        plan = expand_ylambda(shape)
        values = [kauffman(build_satellite_row(d, 0, r)) for r in range(3)]
        total = RingElem.zero()
        for weight, value in zip(plan.coefficients, values, strict=True):
            total = total + weight * value
        shapes = plan.anchor.cells_addable() + plan.anchor.cells_removable()
        eig = [kauffman_meridian_eigenvalue(s) for s in shapes]
        rows = [[e ** r for e in eig] for r in range(3)]
        solved = dict(zip(shapes, _solve(rows, values)))
        assert total == plan.full_scale() * solved[shape]


class TestDiagramSymbolConsistency:
    def test_vandermonde_recovers_deleted_component_and_predicts(self):
        # meridian powers 0..2 around a doubled unknot determine the
        # three width-two decoration values; the empty-shape value must
        # be the value with the component deleted, and power 3 must be
        # predicted exactly
        shapes = [P(2), P(1, 1), P()]
        eig = [kauffman_meridian_eigenvalue(s) for s in shapes]
        values = []
        for r in range(4):
            d = unknot()
            if r:
                d = d.with_meridians(0, r)
            d = d.cable(0, 2)
            values.append(kauffman(d))

        def det3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        rows = [[eig[j] ** r for j in range(3)] for r in range(3)]
        base = det3(rows)
        assert not base.is_zero()
        solved = []
        for j in range(3):
            replaced = [row[:] for row in rows]
            for r in range(3):
                replaced[r][j] = values[r]
            solved.append(det3(replaced) / base)
        assert solved[2] == RingElem.one()
        prediction = RingElem.zero()
        for j in range(3):
            prediction = prediction + solved[j] * eig[j] ** 3
        assert prediction == values[3]


class TestHomflyBranching:
    def test_empty_pair_with(self):
        out = homfly_branching_expand(P(), P(), "with")
        assert out == {(P(1), P()): 1}

    def test_single_single_with(self):
        out = homfly_branching_expand(P(1), P(1), "with")
        assert out == {(P(2), P(1)): 1, (P(1, 1), P(1)): 1, (P(1), P()): 1}

    def test_single_single_against(self):
        out = homfly_branching_expand(P(1), P(1), "against")
        assert out == {(P(1), P(2)): 1, (P(1), P(1, 1)): 1, (P(), P(1)): 1}

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            homfly_branching_expand(P(1), P(1), "sideways")


class TestPairProductShape:
    def test_width_one_composition_by_hand(self):
        # compose the two senses step by step and subtract the start;
        # hand expansion of the nine intermediate terms
        middle = homfly_branching_expand(P(1), P(1), "with")
        total = {}
        for (a, b), k in middle.items():
            for pair, k2 in homfly_branching_expand(a, b, "against").items():
                total[pair] = total.get(pair, 0) + k * k2
        total[(P(1), P(1))] -= 1
        assert total == {
            (P(1), P(1)): 2,
            (P(2), P(2)): 1,
            (P(1, 1), P(1, 1)): 1,
            (P(), P()): 1,
            (P(2), P(1, 1)): 1,
            (P(1, 1), P(2)): 1,
        }

    def test_width_one_report(self):
        report = hsr_structure_check(P(1))
        assert report.holds
        assert report.problems == ()
        assert report.pair_coefficients == ((P(1, 1), P(2), 1),)

    def test_empty_shape_degenerates(self):
        report = hsr_structure_check(P())
        assert report.holds
        assert report.pair_coefficients == ()

    @pytest.mark.parametrize("shape", partitions_up_to(4), ids=str)
    def test_shape_holds_with_small_multiplicities(self, shape):
        report = hsr_structure_check(shape)
        assert report.holds, report.problems
        assert all(n in (0, 1) for _, _, n in report.pair_coefficients)


class TestPlanSerialization:
    def test_to_dict_round_shape(self):
        data = expand_ylambda(P(2, 1)).to_dict()
        assert data["target"] == "2,1"
        assert data["anchor"] == "2"
        assert len(data["terms"]) == 3
        assert data["inner"]["target"] == "2"
        assert data["inner"]["inner"] is None
        assert all(isinstance(t["coefficient"], str) for t in data["terms"])
