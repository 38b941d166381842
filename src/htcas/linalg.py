"""Exact linear algebra over Q.

Matrices are lists of rows; entries are exact scalars, ints or
``fractions.Fraction``, never floats.  The one division, by a pivot in
`rref`, divides by a Fraction, so integer input stays exact.  Everything
here is deterministic: pivots are chosen left to right, so echelon bases
respect declaration order of the ambient basis.
"""

from fractions import Fraction

Row = list  # list[int | Fraction]


def zeros(n: int) -> Row:
    return [Fraction(0)] * n


def rref(mat: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    rows = [list(r) for r in mat]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            pv = Fraction(pv)
            rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(mat: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : mat . x = 0}: one vector per free column of the RREF,
    with 1 there, 0 at the other free columns and no nonzero entry after it."""
    if not mat:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = zeros(ncols)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve(mat: list[Row], rhs: Row) -> Row | None:
    """One solution x of mat . x = rhs, or None."""
    ncols = len(mat[0]) if mat else 0
    aug = [list(r) + [b] for r, b in zip(mat, rhs)]
    if not mat:
        return zeros(0) if not any(rhs) else None
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = zeros(ncols)
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][-1]
    return x


def in_span(vectors: list[Row], v: Row) -> bool:
    if not vectors:
        return not any(v)
    cols = list(map(list, zip(*vectors)))
    return solve(cols, v) is not None


def inverse(mat: list[Row]) -> list[Row]:
    """Inverse of a square matrix, by one Gauss-Jordan pass over [M | I].

    Raises ValueError when the matrix is not square or is singular.
    """
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("matrix is not square")
    aug = [list(r) + [Fraction(i == j) for j in range(n)] for i, r in enumerate(mat)]
    rows, pivots = rref(aug) if n else ([], [])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in rows]


def echelon_basis(vectors: list[Row]) -> list[Row]:
    """RREF basis of the span (deterministic, pivot order = coordinate order)."""
    rows, _ = rref(vectors) if vectors else ([], [])
    return rows
