from fractions import Fraction

import pytest

from tree_oracles import (
    LEAF,
    arity_product,
    aut_order,
    enumerate_planar,
    enumerate_rooted,
    leaf_count,
    planar_embedding,
    serialize,
)

SCHROEDER = [1, 1, 3, 11, 45, 197]
SERIES_REDUCED = [1, 1, 2, 5, 12, 33]


def test_planar_counts():
    for k, want in enumerate(SCHROEDER, start=1):
        assert len(enumerate_planar(k)) == want


def test_rooted_counts():
    for k, want in enumerate(SERIES_REDUCED, start=1):
        assert len(enumerate_rooted(k)) == want


def test_k3_planar_shapes():
    trees = enumerate_planar(3)
    shapes = {serialize(t) for t in trees}
    assert shapes == {"((**)*)", "(*(**))", "(***)"}


def test_rooted_small():
    assert [serialize(t) for t in enumerate_rooted(2)] == ["(**)"]
    assert len(enumerate_rooted(3)) == 2
    assert len(enumerate_rooted(4)) == 5


def test_max_arity_cap():
    # binary trees with k leaves: Catalan numbers 1, 1, 2, 5, 14
    for k, want in zip(range(1, 6), [1, 1, 2, 5, 14]):
        assert len(enumerate_planar(k, max_arity=2)) == want
    assert len(enumerate_rooted(4, max_arity=2)) == 2


def test_enumeration_errors():
    with pytest.raises(ValueError):
        enumerate_planar(0)
    with pytest.raises(ValueError):
        enumerate_rooted(0)


def test_enumeration_deterministic():
    assert enumerate_planar(5) == enumerate_planar(5)
    assert enumerate_rooted(5) == enumerate_rooted(5)


def test_aut_orders():
    corolla4 = (LEAF, LEAF, LEAF, LEAF)
    assert aut_order(corolla4) == 24
    comb3 = ((LEAF, LEAF), LEAF)
    assert aut_order(comb3) == 2
    balanced4 = ((LEAF, LEAF), (LEAF, LEAF))
    assert aut_order(balanced4) == 8


def test_aut_divides_arity_product():
    for k in range(1, 7):
        for t in enumerate_rooted(k):
            assert arity_product(t) % aut_order(t) == 0


def test_embedding_count_identity():
    # sum over classes of (prod arity!)/|Aut| = number of planar trees
    for k in range(1, 7):
        total = sum(
            Fraction(arity_product(t), aut_order(t)) for t in enumerate_rooted(k)
        )
        assert total == len(enumerate_planar(k))


def test_planar_embedding_canonical():
    assert planar_embedding((LEAF, LEAF)) == (LEAF, LEAF)
    assert planar_embedding((LEAF, (LEAF, LEAF))) == ((LEAF, LEAF), LEAF)


def test_leaf_count():
    for k in range(1, 6):
        assert all(leaf_count(t) == k for t in enumerate_planar(k))
        assert all(leaf_count(t) == k for t in enumerate_rooted(k))
