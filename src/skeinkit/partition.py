"""Integer partitions with the cell data the eigenvalue formulas consume.

Partitions are stored as weakly decreasing tuples of positive parts.  The
canonical order used everywhere (enumeration, expansion anchors, report
output) is: smaller total size first, then descending-lexicographic
comparison of the part tuples, so the partitions of 2 list as (2), (1,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .ring import LaurentPoly


@total_ordering
@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"parts must be integers, got {p!r}")
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    # ------------------------------------------------------------------
    # construction and display

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse "3,1,1"; "0" and "" both mean the empty partition."""
        text = text.strip().strip("()")
        if text in ("", "0"):
            return cls(())
        return cls(tuple(int(piece) for piece in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    # ------------------------------------------------------------------
    # canonical order

    def __lt__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.size(), [-p for p in self.parts]) < (other.size(), [-p for p in other.parts])

    # ------------------------------------------------------------------
    # basic shape data

    def size(self) -> int:
        return sum(self.parts)

    def is_empty(self) -> bool:
        return not self.parts

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        width = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p >= j) for j in range(1, width + 1)))

    def cells(self) -> list[tuple[int, int]]:
        """All cells (row, column), 1-based, row-major."""
        return [(i, j) for i, p in enumerate(self.parts, start=1) for j in range(1, p + 1)]

    def contents(self) -> list[int]:
        """column - row over all cells."""
        return [j - i for i, j in self.cells()]

    def content_polynomial(self) -> LaurentPoly:
        """Sum of s^(column - row) over the cells, as a Laurent polynomial."""
        return LaurentPoly(((0, c), 1) for c in self.contents())

    # ------------------------------------------------------------------
    # diagonal hook (Frobenius) coordinates

    def diagonal_length(self) -> int:
        return sum(1 for i, p in enumerate(self.parts, start=1) if p >= i)

    def hook_arms_and_legs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arm and leg lengths of the diagonal hooks, both strictly decreasing."""
        k = self.diagonal_length()
        conj = self.conjugate()
        arms = tuple(self.parts[i - 1] - i for i in range(1, k + 1))
        legs = tuple(conj.parts[i - 1] - i for i in range(1, k + 1))
        return arms, legs

    # ------------------------------------------------------------------
    # one-cell neighbors

    def cells_removable(self) -> list["Partition"]:
        """Partitions reachable by deleting one corner cell, canonical order."""
        out = []
        for i, p in enumerate(self.parts):
            if i + 1 < len(self.parts) and self.parts[i + 1] == p:
                continue  # not a corner: the row below is just as long
            parts = list(self.parts)
            parts[i] -= 1
            out.append(Partition(tuple(q for q in parts if q > 0)))
        return sorted(out)

    def cells_addable(self) -> list["Partition"]:
        """Partitions reachable by adding one cell, canonical order."""
        out = [Partition((self.parts[0] + 1,) + self.parts[1:])] if self.parts else [Partition((1,))]
        for i in range(1, len(self.parts)):
            if self.parts[i] < self.parts[i - 1]:
                parts = list(self.parts)
                parts[i] += 1
                out.append(Partition(tuple(parts)))
        if self.parts:
            out.append(Partition(self.parts + (1,)))
        return sorted(out)

    def last_row_shrunk(self) -> "Partition":
        """Delete one cell from the final row; the canonical expansion anchor.

        This is also the smallest element of cells_removable() in the
        canonical order.
        """
        if not self.parts:
            raise ValueError("the empty partition has no cells")
        parts = list(self.parts)
        parts[-1] -= 1
        return Partition(tuple(q for q in parts if q > 0))


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in canonical (descending-lexicographic) order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return list(gen(n, n, ()))


def partitions_up_to(max_size: int) -> list[Partition]:
    """All partitions of size 0..max_size in canonical order."""
    out: list[Partition] = []
    for n in range(max_size + 1):
        out.extend(partitions_of(n))
    return out


def diagonal_hook_identity_holds(shape: Partition) -> bool:
    """Check (s - s^-1) * C(s^2) == sum_i (s^(2a_i+1) - s^(-2b_i-1)).

    C is the content polynomial of the shape and (a_i, b_i) its diagonal
    hook arm/leg lengths.  Holds for every partition; used as a test
    invariant and a sanity check on the hook data.
    """
    from .ring import z_poly

    left = z_poly() * shape.content_polynomial().scale_exponents(1, 2)
    arms, legs = shape.hook_arms_and_legs()
    right = LaurentPoly.zero()
    for a, b in zip(arms, legs):
        right = right + LaurentPoly.monomial(0, 2 * a + 1) - LaurentPoly.monomial(0, -2 * b - 1)
    return left == right
