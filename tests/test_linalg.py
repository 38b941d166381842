from fractions import Fraction

import pytest

from htcas import linalg

F = Fraction


def test_rref_nullspace_solve_on_empty_matrix():
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace([], 0) == []
    assert linalg.solve([], []) == []
    assert linalg.solve([], [F(1)]) is None


def test_rref_nullspace_solve_on_zero_matrix():
    zero = [[F(0)] * 3 for _ in range(2)]
    assert linalg.rref(zero) == ([], [])
    assert linalg.nullspace(zero, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.solve(zero, [F(0), F(0)]) == [0, 0, 0]
    assert linalg.solve(zero, [F(0), F(1)]) is None


def test_rref_nullspace_solve_on_a_rank_one_system():
    mat = [[F(2), F(4), F(0)], [F(1), F(2), F(1)]]
    rows, pivots = linalg.rref(mat)
    assert pivots == [0, 2] and rows == [[1, 2, 0], [0, 0, 1]]
    # one vector per free column: 1 there, zero at the other free columns
    assert linalg.nullspace(mat, 3) == [[-2, 1, 0]]
    assert linalg.solve(mat, [F(2), F(3)]) == [1, 0, 2]
    # inconsistent: the rows of [[1, 1], [1, 1]] cannot give 1 and 2
    assert linalg.solve([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)]) is None


def test_inverse_of_a_permuted_identity_is_its_transpose():
    perm = [2, 0, 3, 1]
    mat = [[F(int(j == perm[i])) for j in range(4)] for i in range(4)]
    assert linalg.inverse(mat) == [list(col) for col in zip(*mat)]
    assert linalg.inverse([]) == []


def test_inverse_of_an_upper_triangular_block():
    mat = [[F(1), F(2)], [F(0), F(3)]]
    assert linalg.inverse(mat) == [[1, F(-2, 3)], [0, F(1, 3)]]


def test_inverse_rejects_singular_and_nonsquare_blocks():
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[F(0), F(0)], [F(0), F(1)]])
    with pytest.raises(ValueError, match="not square"):
        linalg.inverse([[F(1), F(0)]])


def test_integer_matrices_give_exact_values():
    # pivots that do not divide the entries: a float division would give
    # 0.4 and the like, which no exact comparison accepts
    mat = [[3, 1], [1, 2]]
    rows, pivots = linalg.rref([[3, 1, 1], [1, 2, 0]])
    assert pivots == [0, 1] and rows == [[1, 0, F(2, 5)], [0, 1, F(-1, 5)]]
    inv = linalg.inverse(mat)
    assert inv == [[F(2, 5), F(-1, 5)], [F(-1, 5), F(3, 5)]]
    basis = linalg.nullspace([[3, 6, 2]], 3)
    assert basis == [[-2, 1, 0], [F(-2, 3), 0, 1]]
    for x in [x for r in rows + inv + basis for x in r]:
        assert isinstance(x, (int, Fraction)), x
