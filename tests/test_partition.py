"""Partition shapes: order, cells, hooks, neighbors."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinkit.partition import (
    Partition,
    diagonal_hook_identity_holds,
    partitions_of,
    partitions_up_to,
)
from skeinkit.ring import LaurentPoly


def from_hooks(arms: tuple[int, ...], legs: tuple[int, ...]) -> Partition:
    """The partition with these diagonal hook arms and legs: the oracle side
    of the hook round trip."""
    if len(arms) != len(legs):
        raise ValueError("arm and leg sequences must have equal length")
    for seq in (arms, legs):
        if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError("hook coordinates must be strictly decreasing")
        if any(x < 0 for x in seq):
            raise ValueError("hook coordinates must be nonnegative")
    cells = set()
    for i in range(1, len(arms) + 1):
        for j in range(1, arms[i - 1] + i + 1):
            cells.add((i, j))
        for r in range(1, legs[i - 1] + i + 1):
            cells.add((r, i))
    if not cells:
        return Partition(())
    rows = max(i for i, _ in cells)
    return Partition(tuple(sum(1 for c in cells if c[0] == i) for i in range(1, rows + 1)))


random_partitions = st.lists(st.integers(1, 6), max_size=6).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


def naive_partitions(n):
    """Independent brute-force enumeration used as the oracle."""
    found = set()
    for k in range(n + 1):
        for combo in product(range(1, n + 1), repeat=k):
            if sum(combo) == n and all(combo[i] >= combo[i + 1] for i in range(k - 1)):
                found.add(combo)
    if n == 0:
        found.add(())
    return found


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("part", [2.7, 2.0, True, "3", None])
    def test_non_integer_part_refused(self, part):
        # refused, not coerced: int() would read 2.7 as 2 and True as 1
        with pytest.raises(ValueError, match=f"parts must be integers, got {part!r}"):
            Partition((3, part))

    def test_from_string(self):
        assert Partition.from_string("3,1,1") == Partition((3, 1, 1))
        assert Partition.from_string("0") == Partition(())
        assert Partition.from_string("") == Partition(())
        assert Partition.from_string("(2,1)") == Partition((2, 1))
        assert str(Partition((2, 1))) == "2,1"
        assert str(Partition(())) == "0"

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition(()).conjugate() == Partition(())

    @given(random_partitions)
    def test_conjugate_is_an_involution(self, shape):
        assert shape.conjugate().conjugate() == shape

    def test_cells_and_contents(self):
        shape = Partition((2, 1))
        assert shape.cells() == [(1, 1), (1, 2), (2, 1)]
        assert sorted(shape.contents()) == [-1, 0, 1]
        assert shape.content_polynomial() == LaurentPoly({(0, -1): 1, (0, 0): 1, (0, 1): 1})
        assert Partition(()).content_polynomial().is_zero()

    @given(random_partitions)
    def test_conjugate_negates_contents(self, shape):
        assert sorted(shape.conjugate().contents()) == sorted(-c for c in shape.contents())


class TestOrderAndEnumeration:
    def test_pinned_enumeration_order(self):
        assert partitions_up_to(2) == [
            Partition(()),
            Partition((1,)),
            Partition((2,)),
            Partition((1, 1)),
        ]

    def test_counts_up_to_eight(self):
        counts = [len(partitions_of(n)) for n in range(9)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert len(partitions_up_to(8)) == 67

    @pytest.mark.parametrize("n", range(7))
    def test_matches_naive_enumeration(self, n):
        assert {p.parts for p in partitions_of(n)} == naive_partitions(n)

    def test_descending_lex_within_size(self):
        order = [p.parts for p in partitions_of(4)]
        assert order == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    @given(random_partitions, random_partitions)
    def test_order_is_total(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1


class TestHooks:
    def test_known_hook_coordinates(self):
        arms, legs = Partition((4, 3, 1)).hook_arms_and_legs()
        assert arms == (3, 1)
        assert legs == (2, 0)
        assert Partition(()).hook_arms_and_legs() == ((), ())

    def test_from_hooks_rebuilds(self):
        assert from_hooks((3, 1), (2, 0)) == Partition((4, 3, 1))
        assert from_hooks((), ()) == Partition(())

    def test_from_hooks_validates(self):
        with pytest.raises(ValueError):
            from_hooks((1, 1), (1, 0))
        with pytest.raises(ValueError):
            from_hooks((1,), (1, 0))

    @given(random_partitions)
    def test_hook_roundtrip(self, shape):
        arms, legs = shape.hook_arms_and_legs()
        assert from_hooks(arms, legs) == shape

    @given(random_partitions)
    def test_conjugate_swaps_arms_and_legs(self, shape):
        arms, legs = shape.hook_arms_and_legs()
        assert shape.conjugate().hook_arms_and_legs() == (legs, arms)

    def test_diagonal_hook_identity_all_small_shapes(self):
        for shape in partitions_up_to(8):
            assert diagonal_hook_identity_holds(shape)


class TestNeighbors:
    def test_known_neighbors(self):
        assert Partition((2, 1)).cells_removable() == [Partition((2,)), Partition((1, 1))]
        assert Partition((2, 1)).cells_addable() == [
            Partition((3, 1)),
            Partition((2, 2)),
            Partition((2, 1, 1)),
        ]
        assert Partition(()).cells_addable() == [Partition((1,))]
        assert Partition(()).cells_removable() == []

    @given(random_partitions)
    def test_neighbor_duality(self, shape):
        for bigger in shape.cells_addable():
            assert shape in bigger.cells_removable()
        for smaller in shape.cells_removable():
            assert shape in smaller.cells_addable()

    @given(random_partitions)
    def test_one_more_addable_than_removable(self, shape):
        assert len(shape.cells_addable()) == len(shape.cells_removable()) + 1

    @given(random_partitions.filter(lambda p: not p.is_empty()))
    def test_expansion_anchor_is_canonical_minimum(self, shape):
        assert shape.last_row_shrunk() == min(shape.cells_removable())

    @given(random_partitions)
    def test_neighbor_sizes(self, shape):
        assert all(p.size() == shape.size() + 1 for p in shape.cells_addable())
        assert all(p.size() == shape.size() - 1 for p in shape.cells_removable())
