"""Homotopy retracts and homotopy transfer.

A retract packages (big, small, i, p, h) with id - i o p = d o h + h o d,
p o i = id and the side conditions h o i = 0, p o h = 0, h o h = 0 (the
canonical retract of a homology decomposition satisfies all of them, and
user-supplied retracts are rejected otherwise: the transfer formulas below
assume them).  The differential is homogeneous, so the homology
decomposition, the canonical retract and the homology check all work one
degree block at a time: a few RREFs of each block of d, and one inverse
of each block of the basis matrix of A + dA + H.

Transfer is computed in the suspension-normalized world of `structures`
(all ops degree -1), where the transfer formulas carry no signs beyond
Koszul tensor evaluation; internal edges are labeled by the negated
suspended homotopy (the bar/cobar orientation) and results are conjugated
back with the exact-inverse suspension bookkeeping.  Transferred co-ops
come from the planar recursion G_1 = p, G_m = F_m o h, with F_m the sum
of (G_{m_1} (x) ... (x) G_{m_j}) o delta_j over the compositions of m
(Markl, Transferring A-infinity structures); it builds each G_m once and
unrolls to the sum over planar trees that `tree_map_coalgebra` evaluates
one tree at a time.  Transferred brackets come from the recursion for
the infinity-morphism i_infinity over splits of the inputs into blocks
(Berglund, arXiv:0909.3485; Loday-Vallette, Algebraic Operads, 10.3),
driven by the words on which it is nonzero; it sums each leaf-labelled
tree once, which equals the tree sum over isomorphism classes weighted by
1/|Aut(T)| that `tree_map_lie` evaluates one tree at a time.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from . import linalg
from .core import (
    ONE,
    ZERO,
    BoundError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    from_coords,
    koszul_sign,
    lincomb,
    substituted_words,
    tensor_apply,
    word_basis,
)
from .structures import (
    AInfCoalgebra,
    LInfAlgebra,
    shifted_brackets,
    shifted_coops,
    unshift_bracket,
    unshift_coop,
)


class ChainComplex:
    def __init__(self, space: GradedSpace, diff: GradedMap):
        self.space = space
        self.diff = diff

    @staticmethod
    def zero_diff(space: GradedSpace) -> "ChainComplex":
        return ChainComplex(space, GradedMap.zero(space, space, -1))

    @cached_property
    def blocks(self) -> dict[int, list[str]]:
        """Generators by degree, each block in declaration order."""
        out: dict[int, list[str]] = {}
        for n, deg in self.space.basis:
            out.setdefault(deg, []).append(n)
        return out

    def block_matrix(self, deg: int) -> list[list[Fraction]]:
        """Matrix of d from degree `deg` to degree `deg + |d|`: one column
        per generator of degree `deg`, one row per generator of the target."""
        row = {n: i for i, n in enumerate(self.blocks.get(deg + self.diff.degree, []))}
        gens = self.blocks[deg]
        mat = [[ZERO] * len(gens) for _ in row]
        for j, g in enumerate(gens):
            for w, c in self.diff.apply_word(Word.tensor(g)).terms.items():
                mat[row[w.factors[0]]][j] = c
        return mat

    def homology_dims(self) -> dict[int, int]:
        """Dimension of homology per degree, from one rank per degree block."""
        rank = {}
        for deg in self.blocks:
            mat = self.block_matrix(deg)
            rank[deg] = len(linalg.rref(mat)[1]) if any(map(any, mat)) else 0
        out = {deg: len(gens) - rank[deg] - rank.get(deg - self.diff.degree, 0)
               for deg, gens in self.blocks.items()}
        return {d: v for d, v in out.items() if v}


class Decomposition:
    """C = A + dA + H with A a complement of the cycles and H a complement
    of the boundaries inside the cycles, both chosen in declaration order."""

    def __init__(self, complex: ChainComplex, a_part: list[Element], h_part: list[Element]):
        self.complex = complex
        self.a_part = a_part
        self.h_part = h_part

    @property
    def da_part(self) -> list[Element]:
        return [self.complex.diff.apply(a) for a in self.a_part]


def homology_decomposition(cx: ChainComplex) -> Decomposition:
    """The canonical decomposition C = A + dA + H, one degree block at a time.

    d is homogeneous, so the cycles, boundaries and both greedy complements
    are the unions of those of the blocks.  In block k, the cycles are the
    RREF of ker(d_k); A is the greedy complement of the cycles in
    declaration order, i.e. the pivot columns of d_k (the columns at which
    no kernel basis vector ends); H is the greedy choice, modulo the
    boundaries d(A_{k+1}), first among the generators that are cycles and
    then among the cycle vectors, i.e. the pivot columns of one more RREF.
    The parts are reassembled in the global order: A by index, H as
    generators by index, then cycle vectors by pivot.
    """
    space = cx.space
    a_idx: list[int] = []
    h_gens: list[str] = []
    h_cycles: list[tuple[int, Element]] = []
    n_cycles = n_bnds = 0
    mats = {deg: cx.block_matrix(deg) for deg in cx.blocks}
    for deg, gens in cx.blocks.items():
        words = [Word.tensor(g) for g in gens]
        mat = mats[deg]
        kernel = linalg.nullspace(mat, len(gens))
        free = {max(i for i, x in enumerate(v) if x) for v in kernel}
        a_idx += [space.index(g) for i, g in enumerate(gens) if i not in free]
        cycles = linalg.echelon_basis(kernel)
        # the images of degree k+1 span the boundaries
        bnds = [list(col) for col in zip(*mats.get(deg - cx.diff.degree, [])) if any(col)]
        units = [i for i in range(len(gens)) if not any(r[i] for r in mat)]
        unit_vecs = [[ONE if j == i else ZERO for j in range(len(gens))] for i in units]
        columns = bnds + unit_vecs + cycles
        if not columns:
            continue
        _, chosen = linalg.rref([list(r) for r in zip(*columns)])
        for c in chosen:
            if c < len(bnds):
                n_bnds += 1
            elif c < len(bnds) + len(units):
                h_gens.append(gens[units[c - len(bnds)]])
            else:
                v = cycles[c - len(bnds) - len(units)]
                pivot = next(i for i, x in enumerate(v) if x)
                h_cycles.append((space.index(gens[pivot]), from_coords(space, words, v)))
        n_cycles += len(cycles)
    h_part = [Element.gen(space, g) for g in sorted(h_gens, key=space.index)]
    h_part += [el for _, el in sorted(h_cycles, key=lambda t: t[0])]
    if len(h_part) != n_cycles - n_bnds:
        raise ValidationError("homology decomposition miscounted")
    a_part = [Element.gen(space, space.names[i]) for i in sorted(a_idx)]
    return Decomposition(cx, a_part, h_part)


class HomotopyRetract:
    def __init__(self, big: ChainComplex, small: ChainComplex, incl: GradedMap,
                 proj: GradedMap, homotopy: GradedMap):
        self.big = big
        self.small = small
        self.incl = incl
        self.proj = proj
        self.homotopy = homotopy
        self.validate()

    def validate(self) -> None:
        """Retract identity, chain maps, side conditions, matching homology."""
        big, small = self.big, self.small
        i, p, h = self.incl, self.proj, self.homotopy
        for n in small.space.names:
            w = Word.tensor(n)
            if p.apply(i.apply_word(w)) != Element.gen(small.space, n):
                raise ValueError("p o i is not the identity")
            lhs = big.diff.apply(i.apply_word(w))
            rhs = i.apply(small.diff.apply_word(w))
            if lhs != rhs:
                raise ValueError("i is not a chain map")
            if h.apply(i.apply_word(w)):
                raise ValueError("side condition h o i = 0 fails")
        for n in big.space.names:
            w = Word.tensor(n)
            e = Element.gen(big.space, n)
            lhs = e - i.apply(p.apply_word(w))
            rhs = big.diff.apply(h.apply_word(w)) + h.apply(big.diff.apply_word(w))
            if lhs != rhs:
                raise ValueError(f"retract identity fails on {n}")
            if small.diff.apply(p.apply_word(w)) != p.apply(big.diff.apply_word(w)):
                raise ValueError("p is not a chain map")
            if p.apply(h.apply_word(w)):
                raise ValueError("side condition p o h = 0 fails")
            if h.apply(h.apply_word(w)):
                raise ValueError("side condition h o h = 0 fails")
        if big.homology_dims() != small.homology_dims():
            raise ValueError("i cannot be a quasi-isomorphism: homology differs")


def retract_from_decomposition(dec: Decomposition) -> HomotopyRetract:
    """The canonical retract: p kills A and dA, h inverts d from dA to A.

    A, dA and H are homogeneous, so the basis matrix of A + dA + H is
    block-diagonal by degree.  Each block is inverted once (Gauss-Jordan on
    [M | I]); column g of the inverse holds the A, dA and H coordinates of
    generator g, from which p(g) (the H part) and h(g) (the dA part moved
    to A) are read.
    """
    cx = dec.complex
    space = cx.space
    names = space.names

    used: set[str] = set()
    small_pairs = []
    for el in dec.h_part:
        name = min((w.factors[0] for w in el.terms), key=space.index)
        pivot = name
        while name in used:
            name += "_"
        used.add(name)
        small_pairs.append((name, space.degree(pivot)))
    small_space = GradedSpace.of(small_pairs)
    small = ChainComplex.zero_diff(small_space)

    incl_images = {
        Word.tensor(nm): el for (nm, _), el in zip(small_pairs, dec.h_part)
    }
    incl = GradedMap(small_space, space, 0, incl_images)

    # the basis vectors of each degree block, tagged by part and index
    columns: dict[int | None, list[tuple[str, int, Element]]] = {}
    for j, a in enumerate(dec.a_part):
        columns.setdefault(a.degree, []).append(("a", j, a))
    for j, a in enumerate(dec.a_part):
        deg = None if a.degree is None else a.degree + cx.diff.degree
        columns.setdefault(deg, []).append(("da", j, cx.diff.apply(a)))
    for s, el in enumerate(dec.h_part):
        columns.setdefault(el.degree, []).append(("h", s, el))
    if not columns.keys() <= cx.blocks.keys():
        raise ValidationError("decomposition does not span")
    coeffs: dict[str, list[tuple[str, int, Fraction]]] = {}
    for deg, gens in cx.blocks.items():
        cols = columns.get(deg, [])
        if len(cols) != len(gens):
            raise ValidationError(f"decomposition does not span degree {deg}")
        mat = [[el.coeff(Word.tensor(g)) for _, _, el in cols] for g in gens]
        try:
            inv = linalg.inverse(mat)
        except ValueError as exc:
            raise ValidationError(f"decomposition does not span degree {deg}") from exc
        for t, g in enumerate(gens):
            coeffs[g] = [(part, j, inv[c][t]) for c, (part, j, _) in enumerate(cols)
                         if inv[c][t]]

    proj_images = {}
    hom_images = {}
    for n in names:
        sol = coeffs[n]
        p_el = Element.make(
            small_space, [(x, "t", (small_pairs[j][0],)) for part, j, x in sol if part == "h"])
        if p_el:
            proj_images[Word.tensor(n)] = p_el
        h_el = lincomb(space, ((x, dec.a_part[j]) for part, j, x in sol if part == "da"))
        if h_el:
            hom_images[Word.tensor(n)] = h_el
    proj = GradedMap(space, small_space, 0, proj_images)
    homotopy = GradedMap(space, space, 1, hom_images)
    return HomotopyRetract(cx, small, incl, proj, homotopy)


def identity_retract(cx: ChainComplex) -> HomotopyRetract:
    ident = GradedMap.identity(cx.space)
    return HomotopyRetract(cx, cx, ident, ident, GradedMap.zero(cx.space, cx.space, 1))


# ---------------------------------------------------------------------------
# shifted retract views


class _ShiftedRetract:
    def __init__(self, big: GradedSpace, small: GradedSpace, incl: GradedMap,
                 proj: GradedMap, homotopy: GradedMap):
        self.big = big
        self.small = small
        self.incl = incl
        self.proj = proj
        self.homotopy = homotopy  # already carries the bar-orientation flip


def _shift_map(m: GradedMap, src: GradedSpace, tgt: GradedSpace, scale=1) -> GradedMap:
    images = {}
    for w, el in m.images.items():
        images[w] = Element(tgt, {wd: scale * c for wd, c in el.terms.items()})
    return GradedMap(src, tgt, m.degree, images)


def _shift_retract(r: HomotopyRetract, shift: int) -> _ShiftedRetract:
    big = r.big.space.suspend(shift)
    small = r.small.space.suspend(shift)
    return _ShiftedRetract(
        big,
        small,
        _shift_map(r.incl, small, big),
        _shift_map(r.proj, big, small),
        _shift_map(r.homotopy, big, big, scale=-1),
    )


# ---------------------------------------------------------------------------
# A-infinity transfer


def _coop_map(coops: dict[int, GradedMap], rr: _ShiftedRetract, slot_tuples) -> GradedMap:
    """Sum over slot tuples S of (S_1 (x) ... (x) S_j) o delta_j, j = len(S),
    as a map from the big space to tensor words of the small one; an arity
    missing from `coops` contributes zero.  Every slot has degree 0, so the
    evaluation carries no Koszul signs."""
    images = {}
    for name in rr.big.names:
        w = Word.tensor(name)
        parts = []
        for slots in slot_tuples:
            delta = coops.get(len(slots))
            mid = delta.apply_word(w) if delta is not None else None
            if mid:
                parts.append((1, tensor_apply(slots, [1] * len(slots), mid)))
        images[w] = lincomb(rr.small, parts)
    return GradedMap(rr.big, rr.small, -1, images)


def ainf_transfer_cap(C: AInfCoalgebra, small: GradedSpace) -> int | None:
    """Largest arity a tree-transferred co-op can have, by degree counting.

    Each leaf value lands in the desuspended small space; its degrees bound
    how many leaves the fixed total degree can feed.
    """
    lo = small.min_degree() - 1
    hi = C.space.max_degree() - 1
    if lo < 1:
        return None
    return max(2, (hi - 1) // lo) if hi >= 1 else 2


def transfer_ainf(C: AInfCoalgebra, r: HomotopyRetract,
                  max_k: int | None = None) -> AInfCoalgebra:
    """Transferred co-operations Delta'_k = unshift(F_k o i), where in the
    shifted world G_1 = p, G_m = F_m o h and

        F_m = sum_j sum_{m = m_1 + ... + m_j} (G_{m_1} (x) ... (x) G_{m_j}) o delta_j

    over the arities j >= 2 of C and the compositions of m.  Each G_m is one
    map from the big space to small^{(x)m}, built once.  Unrolled, this visits
    each planar tree once: it is the tree sum of `tree_map_coalgebra`."""
    if max_k is not None and max_k < 2:
        raise ValidationError(f"the arity cap must be at least 2, got {max_k}")
    coops = shifted_coops(C)
    rr = _shift_retract(r, -1)
    cap = max_k if max_k is not None else ainf_transfer_cap(C, r.small.space)
    if cap is None:
        raise BoundError("cannot derive an arity cap; pass max_k explicitly")

    ops: dict[int, GradedMap] = {}
    if not r.small.diff.is_zero():
        ops[1] = r.small.diff
    arities = [j for j in sorted(coops) if j >= 2]
    G = {1: rr.proj}
    for m in range(2, cap + 1):
        F = _coop_map(coops, rr, [
            tuple(G[b - a] for a, b in zip((0,) + cuts, cuts + (m,)))
            for j in arities
            for cuts in itertools.combinations(range(1, m), j - 1)
        ])
        G[m] = F.compose(rr.homotopy)
        ops[m] = unshift_coop(F.compose(rr.incl), m, r.small.space)
    counit = C.counit if (C.counit and C.counit in r.small.space) else None
    return AInfCoalgebra(r.small.space, ops, counit=counit)


def _tree_coop(tree, coops: dict[int, GradedMap], rr: _ShiftedRetract) -> GradedMap:
    """F_T for a planar tree T with an internal root: the root co-op followed
    by p on each leaf and F_c o h on each subtree c."""
    from . import trees

    slots = tuple(rr.proj if trees.is_leaf(c) else _tree_coop(c, coops, rr).compose(rr.homotopy)
                  for c in tree)
    return _coop_map(coops, rr, [slots])


def tree_map_coalgebra(tree, C: AInfCoalgebra, r: HomotopyRetract) -> GradedMap:
    """The single labeled tree map Delta_T : H -> H^{(x)k}; a test oracle for
    `transfer_ainf`, which sums these over the planar trees with k leaves."""
    from . import trees

    rr = _shift_retract(r, -1)
    delta = _tree_coop(tree, shifted_coops(C), rr).compose(rr.incl)
    return unshift_coop(delta, trees.leaf_count(tree), r.small.space)


# ---------------------------------------------------------------------------
# L-infinity transfer


def _lie_node(tree, B: dict[int, GradedMap], rr: _ShiftedRetract,
              factors: tuple[str, ...], memo: dict) -> Element:
    """Value of a subtree on its chunk of leaf inputs (before the edge below)."""
    from . import trees

    if trees.is_leaf(tree):
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
        n = trees.leaf_count(child)
        v = _lie_node(child, B, rr, factors[pos:pos + n], memo)
        pos += n
        if not trees.is_leaf(child):
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
            arg = arg.tensor(v)
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


def _as_wedge_op(m: GradedMap) -> GradedMap:
    """Reshape an arity-1 map onto wedge-word keys (for bracket storage)."""
    images = {Word.wedge(*w.factors): el for w, el in m.images.items()}
    return GradedMap(m.source, m.target, m.degree, images, arity=1, in_kind="w")


def linf_transfer_cap(L: LInfAlgebra, small: GradedSpace) -> int | None:
    """Arity cap by degree counting, available for positively graded input."""
    lo = small.min_degree() + 1
    hi = L.space.max_degree() + 1
    if lo < 1:
        return None
    return max(2, hi // lo)


def _set_partitions(k: int, j: int) -> list[tuple[tuple[int, ...], ...]]:
    """Unordered partitions of the positions 0..k-1 into j blocks; each block
    is increasing and the blocks are ordered by their least position."""
    out = []
    blocks: list[list[int]] = []

    def rec(i: int) -> None:
        if i == k:
            if len(blocks) == j:
                out.append(tuple(tuple(b) for b in blocks))
            return
        if k - i < j - len(blocks):
            return
        for b in blocks:
            b.append(i)
            rec(i + 1)
            b.pop()
        if len(blocks) < j:
            blocks.append([i])
            rec(i + 1)
            blocks.pop()

    rec(0)
    return out


def _support_merges(support: dict, k: int, arities: list[int], space: GradedSpace,
                    L: LInfAlgebra) -> list[tuple[str, ...]]:
    """Canonical words of length k that merge j support words, j in arities,
    into an input of a nonzero B_j, in word-basis order: the only words on
    which F can be nonzero.

    B_j(I(x_B1) (x) ... (x) I(x_Bj)) != 0 needs a term u_1 (x) ... (x) u_j,
    u_i a letter (a factor of a term) of I(x_Bi), whose canonical wedge
    word lies in the support of ell_j.  The merge does not depend on the
    order of its blocks, so replacing each factor u of each support word of
    ell_j by every support entry whose value carries u, at any block
    length, and keeping the merges of length k generates every word with
    F != 0.
    """
    carriers: dict[str, list[tuple[str, ...]]] = {}
    for entries in support.values():
        for x, val in entries.items():
            for u in {f for w in val.terms for f in w.factors}:
                carriers.setdefault(u, []).append(x)
    pool_lists = ([carriers.get(u, ()) for u in sw.factors]
                  for j in arities if j <= k for sw in L.ops[j].support())
    found = substituted_words(space, "m", pool_lists, length=k)
    return sorted((w.factors for w in found), key=lambda fs: [space.sortkey(f) for f in fs])


def _vertex_sum(w: tuple[str, ...], support: dict, partitions: dict,
                B: dict[int, GradedMap], rr: _ShiftedRetract) -> Element:
    """F(w): every root vertex B_j over every split of w into j blocks.

    The subwords of a canonical word are canonical, so each block is looked
    up in the support as it stands; a block outside it has I = 0."""
    degs = [rr.small.degree(f) for f in w]
    terms: dict[Word, Fraction] = {}
    for j, parts in partitions.items():
        for blocks in parts:
            vals = []
            for b in blocks:
                v = support[len(b)].get(tuple(w[p] for p in b))
                if v is None:
                    break
                vals.append(v)
            else:
                eps = koszul_sign([p + 1 for b in blocks for p in b], degs, signature=False)
                arg = vals[0]
                for v in vals[1:]:
                    arg = arg.tensor(v)
                for word, c in B[j].apply(arg).terms.items():
                    terms[word] = terms.get(word, ZERO) + eps * c
    return Element(rr.big, terms)


def transfer_linf(L: LInfAlgebra, r: HomotopyRetract, max_k: int | None = None,
                  words: dict[int, list[Word]] | None = None) -> LInfAlgebra:
    """Transferred brackets ell'_k = p o F by the i_infinity recursion.

    In the shifted world, for a canonical word w = x_1...x_k of the small
    space,

        F(w) = sum_j sum_{partitions of the k positions into j blocks}
               eps * B_j(I(x_{B_1}) (x) ... (x) I(x_{B_j})),

    where eps is the Koszul sign of concatenating the blocks, I(x) = i(x)
    for a single factor and I(x_B) = h(F(x_B)) otherwise, and
    ell'_k(w) = p(F(w)).  j runs over the arities j >= 2 of L.  Only the
    canonical merges of words with nonzero I that fill a support word of
    ell_j letter by letter are evaluated (`_support_merges`, built on the
    candidate generator `core.substituted_words` that the Jacobi check,
    twisting and truncation share), so the cost follows the output rather
    than the word basis.  Scalars stay exact ints or Fractions throughout.
    A split into blocks, applied recursively, is a leaf-labelled rooted
    tree, so by orbit-stabilizer this is the tree sum sum_T ell_T / |Aut T|
    of `tree_map_lie`.

    `words`, when given, restricts which ell'_k images are kept at each
    arity; the I values below max_k are computed in full regardless.
    """
    if max_k is not None and max_k < 2:
        raise ValidationError(f"the arity cap must be at least 2, got {max_k}")
    B = shifted_brackets(L)
    rr = _shift_retract(r, +1)
    if max_k is None:
        max_k = linf_transfer_cap(L, r.small.space)
        if max_k is None:
            raise BoundError("cannot derive an arity cap; pass max_k explicitly")
    arities = [j for j in sorted(L.ops) if j >= 2]

    ops: dict[int, GradedMap] = {}
    if not r.small.diff.is_zero():
        ops[1] = _as_wedge_op(r.small.diff)
    small = r.small.space
    # support[m]: canonical words of length m with nonzero I, mapped to I
    support = {1: {(n,): rr.incl.apply_word(Word.tensor(n)) for n in small.names}}
    for k in range(2, max_k + 1):
        kept = None if words is None or words.get(k) is None else {w.factors for w in words[k]}
        last = k == max_k
        partitions = {j: _set_partitions(k, j) for j in arities if j <= k}
        support[k] = {}
        images = {}
        for w in _support_merges(support, k, arities, rr.small, L):
            if last and kept is not None and w not in kept:
                continue
            f = _vertex_sum(w, support, partitions, B, rr)
            if not f:
                continue
            if not last:
                iw = rr.homotopy.apply(f)
                if iw:
                    support[k][w] = iw
            if kept is None or w in kept:
                img = rr.proj.apply(f)
                if img:
                    images[Word.wedge(*w)] = img
        if images:
            ops[k] = unshift_bracket(small, k, images)
    return LInfAlgebra(small, ops)


def tree_map_lie(tree, L: LInfAlgebra, r: HomotopyRetract) -> GradedMap:
    """The single tree map ell_T (symmetrization included, no 1/|Aut|).

    A test oracle for `transfer_linf`: it evaluates one planar embedding on
    every canonical word and every input permutation."""
    from . import trees

    k = trees.leaf_count(tree)
    B = shifted_brackets(L)
    rr = _shift_retract(r, +1)
    memo: dict = {}
    small = r.small.space
    emb = trees.planar_embedding(tree)
    values = {}
    for w in word_basis(small, "w", k):
        val = _lie_tree_shifted(emb, B, rr, w.factors, memo)
        if val:
            values[w] = val
    return unshift_bracket(small, k, values)


# ---------------------------------------------------------------------------
# Hom complexes and the induced retract


def hom_name(c: str, x: str) -> str:
    return f"{c}.{x}"


def hom_space(source: GradedSpace, target: GradedSpace) -> GradedSpace:
    """Elementary maps c -> x in source-major order; degree |x| - |c|."""
    pairs = []
    for c in source.names:
        for x in target.names:
            pairs.append((hom_name(c, x), target.degree(x) - source.degree(c)))
    return GradedSpace.of(pairs)


def _preimage_columns(g: GradedMap) -> dict[Word, list[tuple[str, Fraction]]]:
    """For each word w in the images of g, the (c', co) with co the
    coefficient of w in g(c'), in the order of g's source basis: each image
    of g read once."""
    cols: dict[Word, list[tuple[str, Fraction]]] = {}
    for cp in g.source.names:
        for w, co in g.apply_word(Word.tensor(cp)).terms.items():
            cols.setdefault(w, []).append((cp, co))
    return cols


def hom_complex(source: ChainComplex, L: LInfAlgebra) -> ChainComplex:
    """Hom(C, L) with ell_1(f) = ell_1 o f + (-1)^{|f|+1} f o delta."""
    space = hom_space(source.space, L.space)
    ell1 = L.ell(1)
    pre = _preimage_columns(source.diff)
    images: dict[Word, Element] = {}
    for c in source.space.names:
        col = pre.get(Word.tensor(c), ())
        for x in L.space.names:
            f = hom_name(c, x)
            post = ell1.apply_word(Word.tensor(x))
            sgn = -1 if (space.degree(f) + 1) % 2 else 1
            out = lincomb(space, [
                *((cy, Element.gen(space, hom_name(c, wy.factors[0])))
                  for wy, cy in post.terms.items()),
                *((sgn * co, Element.gen(space, hom_name(cp, x))) for cp, co in col),
            ])
            if out:
                images[Word.tensor(f)] = out
    return ChainComplex(space, GradedMap(space, space, -1, images))


def hom_retract(r: HomotopyRetract, L: LInfAlgebra) -> HomotopyRetract:
    """The retract induced on Hom complexes: precomposition with p, i and
    (sign-twisted) k; big side Hom(C,L), small side Hom(H,L)."""
    big = hom_complex(r.big, L)
    small = hom_complex(r.small, L)
    bs, ss = big.space, small.space

    def precompose(space_out, g: GradedMap, f_source, twisted: bool = False):
        """f |-> f o g as a map on elementary-map bases, times (-1)^{|f|}
        when twisted (f then lives in space_out)."""
        cols = _preimage_columns(g)
        images = {}
        for c in f_source.names:
            col = cols.get(Word.tensor(c))
            if not col:
                continue
            for x in L.space.names:
                f = hom_name(c, x)
                sgn = -1 if twisted and space_out.degree(f) % 2 else 1
                out = lincomb(space_out, [(sgn * co, Element.gen(space_out, hom_name(cp, x)))
                                          for cp, co in col])
                if out:
                    images[Word.tensor(f)] = out
        return images

    incl = GradedMap(ss, bs, 0, precompose(bs, r.proj, r.small.space))
    proj = GradedMap(bs, ss, 0, precompose(ss, r.incl, r.big.space))
    homotopy = GradedMap(bs, bs, 1, precompose(bs, r.homotopy, r.big.space, twisted=True))
    return HomotopyRetract(big, small, incl, proj, homotopy)
