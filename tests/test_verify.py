"""Verification reports: base relation, satellite rows, eigen consistency."""

from dataclasses import replace

import pytest

from oracles import constant, linking_number, same_diagram_as
from skeinkit import cli
from skeinkit.corpus import (
    corpus_names,
    empty_link,
    hopf_plus,
    load_corpus,
    trefoil,
    unknot,
)
from skeinkit.diagram import DiagramError
from skeinkit.eigen import delta_kauffman, kauffman_meridian_eigenvalue
from skeinkit.partition import Partition
from skeinkit.ring import RingElem, vpow, z_poly
from skeinkit.skein_eval import SkeinBudgetError, adjoint_homfly
from skeinkit.verify import (
    MAIN_CHECK_LABELS,
    VERIFY_MAX_CROSSINGS,
    CheckRecord,
    VerificationReport,
    _solve,
    build_satellite_row,
    eigen_consistency,
    verify_main,
    verify_rudolph,
)


def P(*parts) -> Partition:
    return Partition(tuple(parts))


CORPUS_BUDGET = 24


class TestBaseRelation:
    def test_empty_link_both_sides_one(self):
        report = verify_rudolph(empty_link())
        assert report.passed
        assert report.kind == "rudolph"
        assert len(report.checks) == 1

    def test_unknot_sides_equal_doubled_circle_value(self):
        report = verify_rudolph(unknot())
        assert report.passed
        expected = delta_kauffman().to_mod2().doubling_map()
        assert adjoint_homfly(unknot()).to_mod2() == expected

    @pytest.mark.parametrize("name", corpus_names())
    def test_whole_corpus_passes_at_stated_budget(self, name):
        report = verify_rudolph(load_corpus(name), CORPUS_BUDGET)
        assert report.passed, report.to_text()

    def test_budget_error_propagates(self):
        with pytest.raises(SkeinBudgetError):
            verify_rudolph(trefoil(), 4)


class TestReportShape:
    def test_passed_mirrors_checks(self):
        report = verify_rudolph(unknot())
        assert report.passed == all(c.passed for c in report.checks)

    def test_dict_excludes_timing_by_default(self):
        report = verify_rudolph(unknot())
        data = report.to_dict()
        assert set(data) == {"kind", "link", "assignments", "passed", "checks"}

    def test_text_rendering_is_stable(self):
        report = VerificationReport("rudolph", "x", (), (CheckRecord("thing", True, "note"),))
        assert report.to_text() == "rudolph: x\n  PASS  thing  [note]\nresult: PASS"

    def test_verdict_follows_replaced_checks(self):
        # the verdict is derived from the checks, so no copy can disagree
        report = verify_rudolph(unknot())
        assert report.passed is True
        failing = replace(report, checks=(CheckRecord("thing", False),))
        assert failing.passed is False
        assert failing.to_dict()["passed"] is False
        assert failing.to_text().endswith("result: FAIL")


class TestSatelliteRows:
    def test_unknot_row_two(self):
        row = build_satellite_row(unknot(), 0, 2)
        assert row.n_components == 4
        assert len(row.crossings) == 8

    def test_row_zero_is_doubling_only(self):
        row = build_satellite_row(unknot(), 0, 0)
        assert same_diagram_as(row, unknot().cable(0, 2))

    def test_hopf_row_one(self):
        row = build_satellite_row(hopf_plus(), 1, 1)
        assert row.n_components == 4
        assert len(row.crossings) == 8

    def test_meridians_encircle_both_copies(self):
        # copies sit at 0 and 1, meridians at the tail indices
        row = build_satellite_row(unknot(), 0, 2)
        for meridian in (2, 3):
            assert linking_number(row, 0, meridian) != 0
            assert linking_number(row, 1, meridian) != 0

    def test_negative_count_rejected(self):
        with pytest.raises(DiagramError, match="meridian count must be nonnegative"):
            build_satellite_row(unknot(), 0, -1)


# the full report text of a width-two decoration on the unknot; both
# shapes share the rows and differ only in the assignment label
MAIN_UNKNOT_TEXT = """main: unknot
assignments: {shape}
  PASS  row r=0: adjoint equals doubled unoriented value  [0 crossings]
  PASS  row r=1: adjoint equals doubled unoriented value  [4 crossings]
  PASS  row r=2: adjoint equals doubled unoriented value  [8 crossings]
  PASS  row r=3: adjoint equals doubled unoriented value  [12 crossings]
  PASS  assembled: adjoint decoration equals doubled unoriented decoration  [decoration {shape} on component 0]
  PASS  solved empty-shape value equals deleted-component value  [deleted diagram unknot.drop(0)]
  PASS  solved target value reproduces the assembled value  [division residual zero]
  PASS  row r=3 predicted exactly
  PASS  adjoint side: solved empty-shape value equals deleted-component value
  PASS  adjoint side: solved target value reproduces the assembled value
  PASS  adjoint side: row r=3 predicted exactly
result: PASS"""


@pytest.fixture(scope="module")
def unknot_row_two_report():
    return verify_main(unknot(), 0, P(2))


class TestMainUnknot:
    def test_row_two_passes(self, unknot_row_two_report):
        report = unknot_row_two_report
        assert report.passed, report.to_text()
        assert report.kind == "main"
        assert report.assignments == ("2",)

    def test_row_two_check_inventory(self, unknot_row_two_report):
        assert unknot_row_two_report.to_text() == MAIN_UNKNOT_TEXT.format(shape="2")

    def test_acceptance_flags_every_dropped_check(self, unknot_row_two_report, monkeypatch):
        # criterion 7 must notice a report that silently loses a promised check
        checks = unknot_row_two_report.checks
        assert tuple(c.label for c in checks) == MAIN_CHECK_LABELS
        for i, label in enumerate(MAIN_CHECK_LABELS):
            short = replace(unknot_row_two_report, checks=checks[:i] + checks[i + 1:])
            monkeypatch.setattr(cli, "verify_main", lambda d, comp, shape: short)
            passed, detail = cli._crit_main_width_two(False)
            assert not passed
            assert f"unknot with shape 2: missing checks: {label}" in detail

    def test_per_row_checks_agree_with_direct_calls(self, unknot_row_two_report):
        # each row check must match running the base relation on that row
        for r in range(4):
            row = build_satellite_row(unknot(), 0, r)
            direct = verify_rudolph(row, VERIFY_MAX_CROSSINGS)
            recorded = unknot_row_two_report.checks[r]
            assert recorded.label == f"row r={r}: adjoint equals doubled unoriented value"
            assert recorded.passed == direct.passed

    def test_column_shape_passes(self, unknot_row_two_report):
        # same row diagrams, different assembly coefficients
        report = verify_main(unknot(), 0, P(1, 1))
        assert report.passed, report.to_text()
        assert report.assignments == ("1,1",)
        assert report.to_text() == MAIN_UNKNOT_TEXT.format(shape="1,1")

    def test_width_one_degenerates_to_base_relation(self):
        report = verify_main(unknot(), 0, P(1))
        assert report.kind == "main"
        assert report.passed
        assert len(report.checks) == 1
        assert report.checks[0].label == "adjoint equals doubled unoriented value"


class TestSolve:
    """The exact linear solve behind the decorated cross-checks."""

    def _vandermonde(self, shapes):
        eig = [kauffman_meridian_eigenvalue(shape) for shape in shapes]
        return [[e ** r for e in eig] for r in range(len(shapes))]

    def test_vandermonde_over_distinct_eigenvalues(self):
        rows = self._vandermonde([P(), P(1), P(2), P(1, 1)])
        x = [RingElem.one(), delta_kauffman(), RingElem(vpow(1)), RingElem(z_poly()) - RingElem(constant(3))]
        rhs = [sum((a * b for a, b in zip(row, x)), RingElem.zero()) for row in rows]
        assert _solve(rows, rhs) == x

    def test_equal_columns_are_singular(self):
        rows = self._vandermonde([P(), P(2), P(1), P(2)])
        with pytest.raises(ArithmeticError, match="eigenvalue collision: width-two system is singular"):
            _solve(rows, [RingElem.one()] * 4)

    def test_zero_pivot_takes_a_lower_row(self):
        zero, one = RingElem.zero(), RingElem.one()
        two, five = RingElem(constant(2)), RingElem(constant(5))
        assert _solve([[zero, one], [one, zero]], [two, five]) == [five, two]


class TestMainValidation:
    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            verify_main(unknot(), 1, P(2))

    def test_component_out_of_range_names_the_range(self):
        # the library counts components from 0; the CLI from 1
        with pytest.raises(ValueError, match=r"^component index 2 out of range 0\.\.1$"):
            verify_main(hopf_plus(), 2, Partition((2,)))

    def test_oversized_shape_rejected(self):
        with pytest.raises(ValueError):
            verify_main(unknot(), 0, P(3))

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            verify_main(hopf_plus(), 1, P())


@pytest.mark.extended
class TestMainHopf:
    def test_hopf_component_one_row_two(self):
        # width-two shape on the first component, trivial shape on the other;
        # the same case the acceptance battery runs under --extended, so one
        # process computes the family once and shares the memo
        report = verify_main(hopf_plus(), 0, P(2))
        assert report.passed, report.to_text()


class TestEigenConsistency:
    def test_unknot_meridian_powers(self):
        report = eigen_consistency()
        assert report.passed, report.to_text()
        assert len(report.checks) == 10
