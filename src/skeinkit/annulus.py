"""Symbolic annulus-skein vectors, branching rules, and expansion plans.

The unoriented side works in the eigenvector basis indexed by partitions:
multiplying by the core curve branches a basis vector into its one-cell
neighbors, and a meridian acts diagonally by the eigenvalues from
``eigen``.  Composing the two turns a decorated component into a weighted
family of plain cabled-and-encircled diagrams; ``ExpansionPlan`` records
that family and ``build_satellite_row`` builds one level's link diagrams.
Because the meridians act diagonally, a plan's weighted sum of meridian
powers is its isolating polynomial applied to the meridian map:
``realize_symbolic`` multiplies each branched coefficient by that
polynomial evaluated once at the shape's eigenvalue.  The evaluation
(``eigen.eval_polynomial``) runs on numerators over one power of
z = s - s^-1 and normalises the value once.

The oriented side is kept formal: basis symbols are partition pairs,
products with the width-one generators expand by the one-cell branching
rules in either sense, and ``hsr_structure_check`` verifies the shape of
the square-of-the-core product without ever presenting the basis
elements themselves.
"""

from dataclasses import dataclass
from typing import Optional

from .diagram import LinkDiagram
from .eigen import eval_polynomial, isolating_polynomial, kauffman_meridian_eigenvalue
from .partition import Partition
from .ring import RingElem


# ----------------------------------------------------------------------
# vectors in the unoriented annulus skein


class AnnulusVecK:
    """Finite combination of unoriented annulus basis vectors.

    Coefficients are exact ring fractions keyed by partition; zero
    coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[Partition, RingElem] = {}
        for shape, coeff in (coeffs or {}).items():
            if not isinstance(shape, Partition):
                raise TypeError(f"basis keys must be Partitions, got {shape!r}")
            if not coeff.is_zero():
                clean[shape] = coeff
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AnnulusVecK is immutable")

    @classmethod
    def basis(cls, shape: Partition) -> "AnnulusVecK":
        return cls({shape: RingElem.one()})

    def scale(self, factor: RingElem) -> "AnnulusVecK":
        return AnnulusVecK({shape: coeff * factor for shape, coeff in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnulusVecK):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "AnnulusVecK(0)"
        parts = [f"[{shape}]*({coeff})" for shape, coeff in sorted(self.coeffs.items())]
        return "AnnulusVecK(" + " + ".join(parts) + ")"


def branch_mul_y1(vec: AnnulusVecK) -> AnnulusVecK:
    """Multiply by the width-one basis vector: branch into one-cell neighbors.

    The coefficient of each output shape is the sum of the input
    coefficients over all shapes obtained from it by deleting or adding
    one cell.
    """
    total: dict[Partition, RingElem] = {}
    for shape, coeff in vec.coeffs.items():
        for neighbor in shape.cells_addable() + shape.cells_removable():
            total[neighbor] = total.get(neighbor, RingElem.zero()) + coeff
    return AnnulusVecK(total)


# ----------------------------------------------------------------------
# expansion plans


@dataclass(frozen=True)
class ExpansionPlan:
    """Recipe rewriting a decorated strand as diagrams with known weights.

    One level is one record.  Term r inserts r encircling circles around
    a doubled strand whose inner copy carries the anchor decoration, with
    weight `coefficients[r]`: the coefficients are the isolating
    polynomial's (``eigen.isolating_polynomial``), ascending, so a
    coefficient's index is its meridian count.  `inner` resolves the
    anchor decoration recursively until only bare strands remain.
    Applying all terms symbolically yields `scale`, the polynomial's value
    at the target's eigenvalue, times the target basis vector per stage
    (see realize_symbolic).
    """

    target: Partition
    anchor: Optional[Partition]
    coefficients: tuple[RingElem, ...]
    scale: RingElem
    inner: Optional["ExpansionPlan"]

    @property
    def is_trivial(self) -> bool:
        return not self.coefficients

    def full_scale(self) -> RingElem:
        scale = self.scale
        if self.inner is not None:
            scale = scale * self.inner.full_scale()
        return scale

    def lm_words(self) -> list[str]:
        """Every combination of the levels' terms as a longitude-meridian
        word, letters innermost first.

        A word opens with the decoration of the innermost strand in
        brackets, then reads "l^2" for each doubling and "m^r" for r
        meridians encircling everything inside them: "[1] l^2 m^1".
        The outermost level's meridian count varies slowest.
        """
        if self.is_trivial:
            return [f"[{self.target}]"]
        inner = self.inner.lm_words() if self.inner is not None else [f"[{self.anchor}]"]
        return [
            f"{word} l^2" + (f" m^{r}" if r else "")
            for r in range(len(self.coefficients))
            for word in inner
        ]

    def to_dict(self) -> dict:
        return {
            "target": str(self.target),
            "anchor": str(self.anchor) if self.anchor is not None else None,
            "scale": self.scale.render(),
            "terms": [
                {"meridians": r, "coefficient": coeff.render()}
                for r, coeff in enumerate(self.coefficients)
            ],
            "inner": self.inner.to_dict() if self.inner is not None else None,
        }


def expand_ylambda(target: Partition, rho_choice: Optional[Partition] = None) -> ExpansionPlan:
    """Build the expansion plan for a decorated strand.

    The anchor defaults to removing a cell from the target's last row;
    any one-cell-smaller subpartition may be forced instead.  Each level
    takes the isolating polynomial of its target and anchor, and its scale
    is that polynomial's value at the target's eigenvalue.  Width-one
    targets need no rewriting and yield the trivial plan.
    """
    if target.is_empty():
        raise ValueError("empty decoration is handled by deleting the component")
    if target.size() == 1:
        if rho_choice is not None:
            raise ValueError("width-one target takes no anchor choice")
        return ExpansionPlan(target, None, (), RingElem.one(), None)
    anchor = target.last_row_shrunk() if rho_choice is None else rho_choice
    coefficients = isolating_polynomial(target, anchor)
    scale = eval_polynomial(coefficients, kauffman_meridian_eigenvalue(target))
    inner = expand_ylambda(anchor) if anchor.size() > 1 else None
    return ExpansionPlan(target, anchor, coefficients, scale, inner)


def realize_symbolic(plan: ExpansionPlan) -> AnnulusVecK:
    """Interpret a plan inside the symbolic annulus.

    Branch the resolved inner vector by one strand.  The terms' weighted
    meridian powers act on each branched shape as the isolating
    polynomial at that shape's eigenvalue, so each branched coefficient is
    multiplied by that one value.  The isolating construction guarantees
    the result is exactly full_scale() times the target basis vector;
    callers may assert that identity.
    """
    if plan.is_trivial:
        return AnnulusVecK.basis(plan.target)
    if plan.inner is None:
        inner_vec = AnnulusVecK.basis(plan.anchor)
    else:
        inner_vec = realize_symbolic(plan.inner)
    return AnnulusVecK({
        shape: coeff * eval_polynomial(plan.coefficients, kauffman_meridian_eigenvalue(shape))
        for shape, coeff in branch_mul_y1(inner_vec).coeffs.items()
    })


def build_satellite_row(d: LinkDiagram, comp: int, r: int) -> LinkDiagram:
    """Double one component and surround the pair with r meridians.

    The meridians are inserted before doubling so each one encircles the
    full width-two bundle.  Component layout of the result: the two
    parallel copies sit at indices comp and comp+1, the other original
    components keep their order after them, and the r meridians occupy
    the final r indices.  ``with_meridians`` refuses a negative r.
    """
    out = d.with_meridians(comp, r) if r else d
    return out.cable(comp, 2)


# ----------------------------------------------------------------------
# oriented branching, kept formal


def homfly_branching_expand(alpha: Partition, beta: Partition, sense: str) -> dict[tuple[Partition, Partition], int]:
    """Multiply a basis pair by a width-one generator, in either sense.

    "with": the forward side gains a cell or the reverse side loses one.
    "against": the mirror rule (reverse side gains, forward side loses).
    """
    if sense not in ("with", "against"):
        raise ValueError(f"sense must be 'with' or 'against', got {sense!r}")
    total: dict[tuple[Partition, Partition], int] = {}
    if sense == "with":
        gained = [(mu, beta) for mu in alpha.cells_addable()]
        lost = [(alpha, nu) for nu in beta.cells_removable()]
    else:
        gained = [(alpha, nu) for nu in beta.cells_addable()]
        lost = [(mu, beta) for mu in alpha.cells_removable()]
    for pair in gained + lost:
        total[pair] = total.get(pair, 0) + 1
    return total


def _expand_linear(vec: dict[tuple[Partition, Partition], int], sense: str) -> dict[tuple[Partition, Partition], int]:
    total: dict[tuple[Partition, Partition], int] = {}
    for (alpha, beta), mult in vec.items():
        for pair, count in homfly_branching_expand(alpha, beta, sense).items():
            total[pair] = total.get(pair, 0) + mult * count
    return {pair: count for pair, count in total.items() if count}


@dataclass(frozen=True)
class PairingReport:
    """Decomposition of a diagonal-basis product into the expected shape."""

    shape: Partition
    holds: bool
    pair_coefficients: tuple[tuple[Partition, Partition, int], ...]
    problems: tuple[str, ...]


def hsr_structure_check(shape: Partition) -> PairingReport:
    """Check the shape of (diagonal basis element) times (width-one square).

    Expands the product through both branching senses, subtracts the
    original element, and verifies the result splits into the one-cell
    diagonal neighbors, twice-the-removable-count copies of the original,
    and symmetric off-diagonal pairs with equal nonnegative multiplicity.
    """
    start = {(shape, shape): 1}
    expanded = _expand_linear(_expand_linear(start, "with"), "against")
    expanded[(shape, shape)] = expanded.get((shape, shape), 0) - 1
    expanded = {pair: count for pair, count in expanded.items() if count}

    expected_diagonal: dict[tuple[Partition, Partition], int] = {}
    for neighbor in shape.cells_addable() + shape.cells_removable():
        key = (neighbor, neighbor)
        expected_diagonal[key] = expected_diagonal.get(key, 0) + 1
    removable = len(shape.cells_removable())
    if removable:
        key = (shape, shape)
        expected_diagonal[key] = expected_diagonal.get(key, 0) + 2 * removable

    problems: list[str] = []
    actual_diagonal = {pair: count for pair, count in expanded.items() if pair[0] == pair[1]}
    for pair in sorted(set(expected_diagonal) | set(actual_diagonal)):
        want = expected_diagonal.get(pair, 0)
        got = actual_diagonal.get(pair, 0)
        if want != got:
            problems.append(f"diagonal ({pair[0]};{pair[0]}) multiplicity {got}, expected {want}")

    pairs: dict[tuple[Partition, Partition], int] = {}
    for (alpha, beta), count in sorted(expanded.items()):
        if alpha == beta:
            continue
        if count < 0:
            problems.append(f"negative multiplicity {count} at ({alpha};{beta})")
            continue
        mirrored = expanded.get((beta, alpha), 0)
        if mirrored != count:
            problems.append(
                f"({alpha};{beta}) has multiplicity {count} but its mirror has {mirrored}"
            )
            continue
        canonical = (alpha, beta) if beta < alpha else (beta, alpha)
        pairs[canonical] = count
    coefficients = tuple((alpha, beta, count) for (alpha, beta), count in sorted(pairs.items()))
    return PairingReport(shape, not problems, coefficients, tuple(problems))
