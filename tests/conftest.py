"""Shared fixtures: the running example of the test suite.

The source side is the exterior algebra on a, b (degree 3) and c (degree 5)
with dc = ab; its reduced dual coalgebra has basis

    g = a*, h = b* (3),  r = c* (5),  s = (ab)* (6),
    u = (ac)* (8), v = (bc)* (8),  w = (abc)* (11)

with delta(s) = r.  The target side is the Sullivan algebra on x(4), y(7),
z(10), t(16) with dz = xy, dt = yz, whose homotopy L-infinity algebra is
x'(3), y'(6), z'(9), t'(15) with [x',y'] = z', [y',z'] = t'.
"""

import pytest

from helpers import dgc_from_tables, linf_from_tables
from htcas.core import GradedSpace


@pytest.fixture(scope="session")
def cbar():
    space = GradedSpace.of(
        [("g", 3), ("h", 3), ("r", 5), ("s", 6), ("u", 8), ("v", 8), ("w", 11)]
    )
    diff = {"s": [(1, "r")]}
    cop = {
        "s": [(1, ("g", "h")), (-1, ("h", "g"))],
        "u": [(1, ("g", "r")), (-1, ("r", "g"))],
        "v": [(1, ("h", "r")), (-1, ("r", "h"))],
        "w": [
            (1, ("g", "v")),
            (1, ("v", "g")),
            (-1, ("h", "u")),
            (-1, ("u", "h")),
            (1, ("s", "r")),
            (1, ("r", "s")),
        ],
    }
    return dgc_from_tables(space, diff, cop)


@pytest.fixture(scope="session")
def target_dgl():
    space = GradedSpace.of([("x'", 3), ("y'", 6), ("z'", 9), ("t'", 15)])
    return linf_from_tables(
        space,
        {2: {("x'", "y'"): [(1, "z'")], ("y'", "z'"): [(1, "t'")]}},
    )
