"""End-to-end checks tying the evaluators to the eigenvalue machinery.

Three entry points, each returning a structured report:

- ``verify_rudolph``: the adjoint oriented value of a link equals its
  unoriented value under the variable-doubling map, mod 2.
- ``verify_main``: the satellite extension on a link with one width-two
  decoration: per-row relation instances, the assembled decorated
  equality, and Vandermonde cross-checks on both sides.
- ``eigen_consistency``: meridian powers around an unknot evaluate to
  the predicted eigenvalue multiples in both flavors and both senses.

A report holds its checks and nothing else: its verdict is derived from
them, and it carries no timing, so repeated runs render byte-identically.
"""

from dataclasses import dataclass

from .annulus import build_satellite_row, expand_ylambda
from .corpus import unknot
from .diagram import LinkDiagram
from .eigen import (
    delta_homfly,
    delta_kauffman,
    homfly_meridian_eigenvalue,
    kauffman_meridian_eigenvalue,
)
from .partition import Partition
from .ring import RingElem
from .skein_eval import adjoint_homfly, adjoint_terms, check_size, homfly, kauffman

# largest row of the decorated family: the full antiparallel double of a
# 4-crossing base with 3 meridians lands on 64 crossings
VERIFY_MAX_CROSSINGS = 64


# every check a width-two verify_main report promises, in report order: a
# width-two target has three sibling shapes, so its plan has three terms
# and its rows run r = 0..3
MAIN_CHECK_LABELS = (
    "row r=0: adjoint equals doubled unoriented value",
    "row r=1: adjoint equals doubled unoriented value",
    "row r=2: adjoint equals doubled unoriented value",
    "row r=3: adjoint equals doubled unoriented value",
    "assembled: adjoint decoration equals doubled unoriented decoration",
    "solved empty-shape value equals deleted-component value",
    "solved target value reproduces the assembled value",
    "row r=3 predicted exactly",
    "adjoint side: solved empty-shape value equals deleted-component value",
    "adjoint side: solved target value reproduces the assembled value",
    "adjoint side: row r=3 predicted exactly",
)


# ----------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckRecord:
    label: str
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    link: str
    assignments: tuple[str, ...]
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "link": self.link,
            "assignments": list(self.assignments),
            "passed": self.passed,
            "checks": [
                {"label": c.label, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"{self.kind}: {self.link}"]
        if self.assignments:
            lines.append("assignments: " + " ".join(self.assignments))
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            suffix = f"  [{check.details}]" if check.details else ""
            lines.append(f"  {mark}  {check.label}{suffix}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# base relation


def _doubled(value: RingElem) -> RingElem:
    return value.to_mod2().doubling_map()


def verify_rudolph(d: LinkDiagram, max_crossings: int = VERIFY_MAX_CROSSINGS) -> VerificationReport:
    """Check the mod-2 bridge between the two polynomial flavors.

    The adjoint oriented value (antiparallel doubling of each component,
    by inclusion-exclusion) must equal the unoriented value with both
    variables squared, once coefficients are reduced mod 2.
    """
    adjoint_side = adjoint_homfly(d, max_crossings).to_mod2()
    doubled_side = _doubled(kauffman(d, max_crossings))
    check = CheckRecord(
        "adjoint equals doubled unoriented value",
        adjoint_side == doubled_side,
        f"{len(d.crossings)} crossings",
    )
    return VerificationReport("rudolph", d.name, (), (check,))


# ----------------------------------------------------------------------
# satellite rows


def _solve(rows, rhs) -> list[RingElem]:
    """The exact solution x of rows . x = rhs, by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ArithmeticError("eigenvalue collision: width-two system is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and not factor.is_zero():
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def _assemble_and_solve(plan, values, coeff_map, deleted_value):
    """Assemble one side's decorated value; return it with the side's three outcomes.

    `values` are the side's row values r = 0..len(plan.coefficients), and
    `coeff_map` carries characteristic-zero weights and eigenvalues into
    the side's ring.  The outcomes solve the first rows for the anchor's
    branched shapes and compare against the deleted-component value, the
    assembled value and the last row.
    """
    n = len(plan.coefficients)
    assembled = coeff_map(RingElem.zero())
    for weight, value in zip(plan.coefficients, values):
        assembled = assembled + coeff_map(weight) * value
    assembled = assembled / coeff_map(plan.scale)

    shapes = plan.anchor.cells_addable() + plan.anchor.cells_removable()
    eig = [coeff_map(kauffman_meridian_eigenvalue(shape)) for shape in shapes]
    matrix = [[e ** r for e in eig] for r in range(n)]
    solved = dict(zip(shapes, _solve(matrix, values[:n])))
    prediction = coeff_map(RingElem.zero())
    for e, shape in zip(eig, shapes):
        prediction = prediction + solved[shape] * e ** n

    return assembled, [
        solved[Partition(())] == deleted_value,
        solved[plan.target] == assembled,
        prediction == values[n],
    ]


def verify_main(
    d: LinkDiagram,
    comp: int,
    shape: Partition,
    max_crossings: int = VERIFY_MAX_CROSSINGS,
) -> VerificationReport:
    """Check the satellite extension with `shape` on component `comp` (0-based).

    Every other component carries the width-one shape.  A one-cell shape
    is the base relation itself.  For a two-cell shape, builds the
    meridian rows r = 0..3, checks the base relation on each, assembles
    the decorated values on both sides with the row weights and separation
    scale of the expansion plan ``expand_ylambda(shape)``, and
    cross-checks each side by solving the width-two linear system: the
    empty-shape solution must equal the deleted-component value, the
    target solution must reproduce the assembled value, and row r = 3
    must be predicted exactly.
    """
    if not 0 <= comp < d.n_components:
        raise ValueError(f"component index {comp} out of range 0..{d.n_components - 1}")
    assignments = tuple(str(shape) if i == comp else "1" for i in range(d.n_components))
    if shape.size() == 1:
        return VerificationReport("main", d.name, assignments, verify_rudolph(d, max_crossings).checks)
    if shape.size() != 2:
        raise ValueError(f"verify main takes a one- or two-cell shape, got one of size {shape.size()}")

    plan = expand_ylambda(shape)
    rows = [build_satellite_row(d, comp, r) for r in range(len(plan.coefficients) + 1)]
    deleted = d.delete_component(comp)
    # size every evaluation below before making any, in the order they are
    # made: an over-budget run is refused at once, with the message its
    # first refused evaluation would give
    for row in rows:
        check_size(row.name, len(row.crossings), max_crossings)
    for row in rows:
        adjoint_terms(row, max_crossings)
    check_size(deleted.name, len(deleted.crossings), max_crossings)
    adjoint_terms(deleted, max_crossings)
    unoriented = [kauffman(row, max_crossings) for row in rows]
    adjoint = [adjoint_homfly(row, max_crossings).to_mod2() for row in rows]
    # characteristic zero on the unoriented side, mod 2 throughout on the
    # adjoint side
    assembled_unoriented, unoriented_outcomes = _assemble_and_solve(
        plan, unoriented, lambda x: x, kauffman(deleted, max_crossings)
    )
    assembled_adjoint, adjoint_outcomes = _assemble_and_solve(
        plan, adjoint, _doubled, adjoint_homfly(deleted, max_crossings).to_mod2()
    )
    outcomes = (
        [a == _doubled(u) for a, u in zip(adjoint, unoriented)]
        + [assembled_adjoint == _doubled(assembled_unoriented)]
        + unoriented_outcomes
        + adjoint_outcomes
    )
    details = [f"{len(row.crossings)} crossings" for row in rows] + [
        f"decoration {shape} on component {comp}",
        f"deleted diagram {deleted.name}",
        "division residual zero",
        "", "", "", "",
    ]
    checks = tuple(
        CheckRecord(label, ok, detail)
        for label, ok, detail in zip(MAIN_CHECK_LABELS, outcomes, details, strict=True)
    )
    return VerificationReport("main", d.name, assignments, checks)


# ----------------------------------------------------------------------
# meridian eigenvalue consistency


def eigen_consistency() -> VerificationReport:
    """Evaluate meridian powers around the unknot against the eigenvalue tables.

    Unoriented values must be the free-circle value times the width-one
    eigenvalue power; oriented values likewise for both meridian senses.
    """
    base = unknot()

    width_one = Partition((1,))
    empty = Partition(())
    circle_unoriented = delta_kauffman()
    circle_oriented = delta_homfly()
    c1 = kauffman_meridian_eigenvalue(width_one)
    same_sense = homfly_meridian_eigenvalue(width_one, empty)
    opposite_sense = homfly_meridian_eigenvalue(empty, width_one)

    checks = [
        CheckRecord(
            "bare circle values",
            kauffman(base, VERIFY_MAX_CROSSINGS) == circle_unoriented
            and homfly(base, VERIFY_MAX_CROSSINGS) == circle_oriented,
            "",
        )
    ]
    for r in range(1, 4):
        ring = base.with_meridians(0, r)
        reversed_ring = ring
        for i in range(1, r + 1):
            reversed_ring = reversed_ring.reverse_component(i)
        checks.append(
            CheckRecord(
                f"unoriented meridian power {r}",
                kauffman(ring, VERIFY_MAX_CROSSINGS) == circle_unoriented * c1 ** r,
                f"{len(ring.crossings)} crossings",
            )
        )
        checks.append(
            CheckRecord(
                f"oriented meridian power {r}, same sense",
                homfly(ring, VERIFY_MAX_CROSSINGS) == circle_oriented * same_sense ** r,
                "",
            )
        )
        checks.append(
            CheckRecord(
                f"oriented meridian power {r}, opposite sense",
                homfly(reversed_ring, VERIFY_MAX_CROSSINGS) == circle_oriented * opposite_sense ** r,
                "",
            )
        )
    return VerificationReport("eigen-consistency", base.name, (), tuple(checks))
