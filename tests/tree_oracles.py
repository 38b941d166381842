"""Tree-sum oracles for both homotopy transfers.

Planar rooted trees (ordered children) index transferred A-infinity
co-operations; isomorphism classes of rooted trees index transferred
L-infinity brackets, weighted by 1/|Aut|.  All internal vertices have
valence >= 2 and trees are counted by their number of leaves.

Trees serialize as nested parentheses with `*` for a leaf, e.g. the
3-leaf left comb is ((**)*).

`tree_map_coalgebra` and `tree_map_lie` evaluate one tree at a time in
the suspension-normalized world of `htcas.structures`, on a shifted copy
of the retract built here (`shift_retract`), with h negated once and for
all.  The engine reads the retract in place and negates h where it reads
it, so the two do not share that step.  The engine computes the same sums
by the planar recursion and the i_infinity recursion and never enumerates
a tree; the tests compare the two tree by tree and arity by arity.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from htcas.core import (
    Element,
    GradedMap,
    Word,
    GradedSpace,
    koszul_sign,
    lincomb,
    suspend_map,
    tensor_apply,
    word_basis,
)
from htcas.structures import (
    AInfCoalgebra,
    LInfAlgebra,
    shifted_brackets,
    shifted_coops,
    unshift,
)
from htcas.transfer import HomotopyRetract

# A tree is either LEAF or a tuple of >= 2 subtrees (children, left to right).
LEAF = "*"

Tree = object  # LEAF or tuple of Tree


def is_leaf(t) -> bool:
    return t == LEAF


def leaf_count(t) -> int:
    if is_leaf(t):
        return 1
    return sum(leaf_count(c) for c in t)


def height(t) -> int:
    if is_leaf(t):
        return 0
    return 1 + max(height(c) for c in t)


def serialize(t) -> str:
    if is_leaf(t):
        return LEAF
    return "(" + "".join(serialize(c) for c in t) + ")"


def _compositions(k: int, max_parts: int):
    """Ordered compositions of k into 2..max_parts parts, lexicographic."""
    for r in range(2, min(k, max_parts) + 1):
        for cuts in itertools.combinations(range(1, k), r - 1):
            prev = 0
            parts = []
            for c in cuts:
                parts.append(c - prev)
                prev = c
            parts.append(k - prev)
            yield parts


def enumerate_planar(k: int, max_arity: int | None = None) -> list:
    """All planar rooted trees with k leaves, internal valence 2..max_arity.

    Deterministic: children compositions are generated lexicographically.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cap = max(k, 2) if max_arity is None else max_arity
    if cap < 2:
        raise ValueError("max_arity must be >= 2")

    @lru_cache(maxsize=None)
    def rec(n: int) -> tuple:
        if n == 1:
            return (LEAF,)
        out = []
        for parts in _compositions(n, cap):
            for combo in itertools.product(*(rec(p) for p in parts)):
                out.append(tuple(combo))
        return tuple(out)

    return list(rec(k))


def canonical(t):
    """Canonical form of a rooted tree: children sorted recursively.

    Taller / larger subtrees come first, so the canonical embedding of the
    3-leaf binary class is the left comb ((**)*).
    """
    if is_leaf(t):
        return LEAF
    kids = sorted((canonical(c) for c in t), key=_canon_key, reverse=True)
    return tuple(kids)


def _canon_key(t):
    return (height(t), leaf_count(t), serialize(t))


def enumerate_rooted(k: int, max_arity: int | None = None) -> list:
    """Isomorphism classes of rooted trees with k leaves, in canonical form."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cap = max(k, 2) if max_arity is None else max_arity
    if cap < 2:
        raise ValueError("max_arity must be >= 2")

    @lru_cache(maxsize=None)
    def rec(n: int) -> tuple:
        if n == 1:
            return (LEAF,)
        seen = []
        for parts in _compositions(n, cap):
            ordered = sorted(parts)
            for combo in itertools.product(*(rec(p) for p in ordered)):
                kids = sorted(combo, key=_canon_key, reverse=True)
                t = tuple(kids)
                if t not in seen:
                    seen.append(t)
        return tuple(sorted(seen, key=_canon_key))

    return list(rec(k))


def aut_order(t) -> int:
    """|Aut(T)|: product over vertices of m! for each group of equal subtrees."""
    if is_leaf(t):
        return 1
    kids = [canonical(c) for c in t]
    order = 1
    for c in kids:
        order *= aut_order(c)
    for _, grp in itertools.groupby(sorted(kids, key=_canon_key)):
        order *= math.factorial(len(list(grp)))
    return order


def planar_embedding(t):
    """The canonical-order planar embedding of an isomorphism class."""
    return canonical(t)


def arity_product(t) -> int:
    """Product of r! over internal vertices of arity r."""
    if is_leaf(t):
        return 1
    p = math.factorial(len(t))
    for c in t:
        p *= arity_product(c)
    return p


# ---------------------------------------------------------------------------
# the shifted retract


class ShiftedRetract(NamedTuple):
    big: GradedSpace
    small: GradedSpace
    incl: GradedMap
    proj: GradedMap
    homotopy: GradedMap  # already carries the bar-orientation sign


def shift_retract(r: HomotopyRetract, shift: int) -> ShiftedRetract:
    """i, p and -h carried onto the spaces suspended by `shift`, each by the
    decalage `core.suspend_map`; the internal edges of a tree are labelled
    by -h (the bar/cobar orientation)."""
    big = r.big.space.suspend(shift)
    small = r.small.space.suspend(shift)
    return ShiftedRetract(
        big,
        small,
        suspend_map(r.incl, small, big, 0),
        suspend_map(r.proj, big, small, 0),
        suspend_map(r.homotopy, big, big, 1, scale=-1),
    )


# ---------------------------------------------------------------------------
# A-infinity tree maps


def _compose(outer: GradedMap, inner: GradedMap) -> GradedMap:
    """outer after inner, on inner's stored domain words."""
    images = {w: outer.apply(el) for w, el in inner.images.items()}
    return GradedMap(inner.source, outer.target, outer.degree + inner.degree, images)


def _vertex(coops: dict[int, GradedMap], rr: ShiftedRetract, slots) -> GradedMap:
    """(S_1 (x) ... (x) S_j) o delta_j for the slot maps S, j = len(slots), on
    every basis element of the big space; zero when C has no arity-j co-op."""
    delta = coops.get(len(slots))
    images = {}
    if delta is not None:
        for name in rr.big.names:
            w = Word.tensor(name)
            images[w] = tensor_apply(slots, [1] * len(slots), delta.apply_word(w))
    return GradedMap(rr.big, rr.small, -1, images)


def _tree_coop(tree, coops: dict[int, GradedMap], rr: ShiftedRetract) -> GradedMap:
    """F_T for a planar tree T with an internal root: the root co-op followed
    by p on each leaf and F_c o h on each subtree c."""
    slots = tuple(rr.proj if is_leaf(c) else _compose(_tree_coop(c, coops, rr), rr.homotopy)
                  for c in tree)
    return _vertex(coops, rr, slots)


def tree_map_coalgebra(tree, C: AInfCoalgebra, r: HomotopyRetract) -> GradedMap:
    """The single labeled tree map Delta_T : H -> H^{(x)k}; a test oracle for
    `transfer_ainf`, which sums these over the planar trees with k leaves."""
    rr = shift_retract(r, -1)
    delta = _compose(_tree_coop(tree, shifted_coops(C), rr), rr.incl)
    return unshift(delta, leaf_count(tree), r.small.space)


# ---------------------------------------------------------------------------
# L-infinity tree maps


def _lie_node(tree, B: dict[int, GradedMap], rr: ShiftedRetract,
              factors: tuple[str, ...], memo: dict) -> Element:
    """Value of a subtree on its chunk of leaf inputs (before the edge below)."""
    if is_leaf(tree):
        return rr.incl.apply_word(Word.tensor(factors[0]))
    key = (id(tree), factors)
    hit = memo.get(key)
    if hit is not None:
        return hit
    arity = len(tree)
    if arity not in B:
        out = Element.zero(rr.big)
        memo[key] = out
        return out
    vals = []
    pos = 0
    dead = False
    for child in tree:
        n = leaf_count(child)
        v = _lie_node(child, B, rr, factors[pos:pos + n], memo)
        pos += n
        if not is_leaf(child):
            v = rr.homotopy.apply(v)
        if not v:
            dead = True
            break
        vals.append(v)
    if dead:
        out = Element.zero(rr.big)
    else:
        arg = vals[0]
        for v in vals[1:]:
            arg = arg.times(v)
        out = B[arity].apply(arg)
    memo[key] = out
    return out


def _lie_tree_shifted(tree, B, rr, factors: tuple[str, ...], memo: dict) -> Element:
    """p-hat o (tree composite) o Koszul symmetrization of the inputs."""
    degs = [rr.small.degree(f) for f in factors]
    parts = []
    for perm in itertools.permutations(range(1, len(factors) + 1)):
        s = koszul_sign(list(perm), degs, signature=False)
        arranged = tuple(factors[p - 1] for p in perm)
        val = _lie_node(tree, B, rr, arranged, memo)
        if val:
            parts.append((s, rr.proj.apply(val)))
    return lincomb(rr.small, parts)


def tree_map_lie(tree, L: LInfAlgebra, r: HomotopyRetract) -> GradedMap:
    """The single tree map ell_T (symmetrization included, no 1/|Aut|).

    A test oracle for `transfer_linf`: it evaluates one planar embedding on
    every canonical word and every input permutation."""
    k = leaf_count(tree)
    B = shifted_brackets(L)
    rr = shift_retract(r, +1)
    memo: dict = {}
    small = r.small.space
    emb = planar_embedding(tree)
    values = {}
    for w in word_basis(small, "w", k):
        val = _lie_tree_shifted(emb, B, rr, w.factors, memo)
        if val:
            values[w] = val
    return unshift(GradedMap(rr.small, rr.small, -1, values, k, "w"), k, small)
