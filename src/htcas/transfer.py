"""Homotopy retracts and homotopy transfer.

A retract packages (big, small, i, p, h) with id - i o p = d o h + h o d,
p o i = id and the side conditions h o i = 0, p o h = 0, h o h = 0 (the
canonical retract of a homology decomposition satisfies all of them, and
user-supplied retracts are rejected otherwise: the transfer formulas below
assume them).  The differential is homogeneous, so the homology
decomposition and the canonical retract work one degree block at a
time: a few RREFs of each block of d, and one inverse of each block of
the basis matrix of A + dA + H.  `canonical_retract` is
the one place that builds the canonical retract of a coalgebra, and
`retract_recursion` the one recursion through it that the direct Quillen
and Brown-Szczarba routes run.  `hom_retract` induces a retract on
Hom(C, L) by precomposition, the one rule (`_precompose`) that also gives
the f o delta term of `hom_complex`.

Transfer is computed in the suspension-normalized world of `structures`
(all ops degree -1), where the transfer formulas carry no signs beyond
Koszul tensor evaluation; internal edges are labeled by the negated
suspended homotopy (the bar/cobar orientation) and results are conjugated
back by `structures.unshift`.  Every shift, of the ops and back, is the
one decalage rule `core.suspend_map`.  The retract is read in place: i, p
and h take one letter to one letter, whose suspension sign is +1, so a
value moves onto the suspended space by its names alone (relabelled, not
re-checked, as a uniform shift keeps it homogeneous), and h is negated
where each transfer reads it.  Transferred co-ops come from the planar
recursion G_1 = p, G_m = F_m o h, with F_m the sum of
(G_{m_1} (x) ... (x) G_{m_j}) o delta_j over the compositions of m
(Markl, Transferring A-infinity structures), evaluated on demand from
i(H) downward and memoized per arity and basis element; it unrolls to the
sum over planar trees.  Transferred brackets come from the recursion for
the infinity-morphism i_infinity over splits of the inputs into blocks
(Berglund, arXiv:0909.3485; Loday-Vallette, Algebraic
Operads, 10.3), driven by the words on which it is nonzero; each split is
peeled block by block from one support table, the words with nonzero I.
It sums each leaf-labelled tree once, which equals the tree sum over
isomorphism classes weighted by 1/|Aut(T)|.  Neither transfer enumerates a tree: the
tree sums, evaluated one tree at a time, are the test suite's oracles
(`tests/tree_oracles.py`).  Every derived arity cap, of both transfers and
of `mapping`, is the one degree-counting rule `degree_cap`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property, reduce

from . import linalg
from .core import (
    ONE,
    ZERO,
    AxiomError,
    BoundError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    derived_names,
    from_coords,
    koszul_sign,
    letter_index,
    lincomb,
    substituted_words,
    suspend_map,
)
from .structures import (
    AInfCoalgebra,
    LInfAlgebra,
    shifted_brackets,
    shifted_coops,
    unshift,
)


class ChainComplex:
    """A graded space with a differential; d^2 != 0 is refused, checked
    sparsely on the image of each generator."""

    def __init__(self, space: GradedSpace, diff: GradedMap):
        for n in space.names:
            if diff.apply(diff.apply_word(Word.tensor(n))):
                raise AxiomError(f"d^2 != 0 on generator {n}")
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
        return self.diff.matrix(self.blocks[deg], self.blocks.get(deg + self.diff.degree, []))


class Decomposition:
    """C = A + dA + H with A a complement of the cycles and H a complement
    of the boundaries inside the cycles, both chosen in declaration order."""

    def __init__(self, complex: ChainComplex, a_part: list[Element], h_part: list[Element]):
        self.complex = complex
        self.a_part = a_part
        self.h_part = h_part


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
    generators by index, then cycle vectors by pivot.  H is not recounted:
    `ChainComplex` refuses d^2 != 0, so the boundaries, units and cycle
    vectors are all cycles, and the pivots past the boundary columns
    number dim Z_k - dim B_k.
    """
    space = cx.space
    a_idx: list[int] = []
    h_gens: list[str] = []
    h_cycles: list[tuple[int, Element]] = []
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
        _, chosen = linalg.rref([list(r) for r in zip(*columns)])
        for c in (c - len(bnds) for c in chosen if c >= len(bnds)):
            if c < len(units):
                h_gens.append(gens[units[c]])
            else:
                v = cycles[c - len(units)]
                pivot = next(i for i, x in enumerate(v) if x)
                h_cycles.append((space.index(gens[pivot]), from_coords(space, words, v)))
    h_part = [Element.gen(space, g) for g in sorted(h_gens, key=space.index)]
    h_part += [el for _, el in sorted(h_cycles, key=lambda t: t[0])]
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
        # the retract identity, i a chain map and the side conditions, per
        # generator.  They make p a homotopy inverse of i (pi = 1,
        # 1 - ip = dh + hd), so homology is not recounted.  `ChainComplex`
        # refuses d^2 != 0, and then p is a chain map by the others:
        # pd = pd(ip + dh + hd) = dp, as pi = 1, di = id and
        # pdh = p(1 - ip - hd) = 0.
        i, p, h = incl, proj, homotopy
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
            if p.apply(h.apply_word(w)):
                raise ValueError("side condition p o h = 0 fails")
            if h.apply(h.apply_word(w)):
                raise ValueError("side condition h o h = 0 fails")


def retract_from_decomposition(dec: Decomposition) -> HomotopyRetract:
    """The canonical retract: p kills A and dA, h inverts d from dA to A.
    Each homology class is named by its pivot, the first generator it
    involves, through `core.derived_names`.

    A, dA and H are homogeneous, so the basis matrix of A + dA + H is
    block-diagonal by degree.  Each block is inverted once (Gauss-Jordan on
    [M | I]); column g of the inverse holds the A, dA and H coordinates of
    generator g, from which p(g) (the H part) and h(g) (the dA part moved
    to A) are read.
    """
    cx = dec.complex
    space = cx.space
    names = space.names

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

    # each class is named by its pivot, the first generator it involves; the
    # pivots of a canonical decomposition are distinct, as a unit generator's
    # cycle vector is the generator itself
    def pivot(el: Element) -> str:
        return min((w.factors[0] for w in el.terms), key=space.index)

    small_names = derived_names(dec.h_part, pivot, "homology classes")
    small_pairs = [(nm, space.degree(nm)) for nm in small_names]
    small_space = GradedSpace.of(small_pairs)
    small = ChainComplex.zero_diff(small_space)

    incl_images = {Word.tensor(nm): el for nm, el in zip(small_names, dec.h_part)}
    incl = GradedMap(small_space, space, 0, incl_images)

    proj_images = {}
    hom_images = {}
    for n in names:
        sol = coeffs[n]
        proj_images[Word.tensor(n)] = Element.make(
            small_space, [(x, "t", (small_pairs[j][0],)) for part, j, x in sol if part == "h"])
        hom_images[Word.tensor(n)] = lincomb(
            space, ((x, dec.a_part[j]) for part, j, x in sol if part == "da"))
    proj = GradedMap(space, small_space, 0, proj_images)
    homotopy = GradedMap(space, space, 1, hom_images)
    return HomotopyRetract(cx, small, incl, proj, homotopy)


def canonical_retract(C: AInfCoalgebra) -> HomotopyRetract:
    """The canonical retract of (C, Delta_1) onto its homology: the retract
    of its homology decomposition.  Every pipeline that retracts a
    coalgebra takes it from here."""
    return retract_from_decomposition(homology_decomposition(ChainComplex(C.space, C.delta(1))))


def retract_recursion(r: HomotopyRetract, out: GradedSpace, leaf, substitute):
    """The one recursion through the canonical retract r that both direct
    routes run, the Quillen differential and the reduced Brown-Szczarba
    model: on a basis element c of the big space and a key,

        f(key, c) = sum_{h in p(c)} leaf(key, h) + substitute(key, h(c), f),

    in `out`, where the substitution reads f itself.  The canonical homotopy
    kills A and H and sends da_j to a_j, so h(c) is the element whose
    differential is the dA part of c: it is read directly, and c is never
    split by a solve.  f is memoized per (key, c).  The pair is marked in
    the memo while its value is computed, so a substitution that asks for
    an unfinished value, which would recurse without end, is refused at
    once, naming the pair.
    """
    memo: dict = {}
    unfinished = object()

    def f(key, c: str) -> Element:
        value = memo.get((key, c))
        if value is unfinished:
            raise ValidationError(f"the recursion through the retract asks for f({key!r}, {c}) "
                                  f"again while computing it")
        if value is not None:
            return value
        memo[key, c] = unfinished
        w = Word.tensor(c)
        parts = [(co, leaf(key, hw.factors[0])) for hw, co in r.proj.apply_word(w).terms.items()]
        a = r.homotopy.apply_word(w)
        if a:
            parts.append((1, substitute(key, a, f)))
        memo[key, c] = value = lincomb(out, parts)
        return value

    return f


# ---------------------------------------------------------------------------
# A-infinity transfer


def degree_cap(lo: int, hi: int, shift: int) -> int | None:
    """The one degree-counting rule of the derived arity caps: the largest
    k >= 2 with k lo + shift <= hi (2 when none fits), or None when lo < 1
    and the degrees bound nothing."""
    if lo < 1:
        return None
    return max(2, (hi - shift) // lo)


def arity_cap(max_k: int | None, derived: int | None) -> int:
    """The smaller of max_k, which must be at least 2, and the derived cap,
    or whichever of the two exists.  Every op above the derived cap is zero
    by degree, so a larger max_k would only compute zeros.  A BoundError
    names both ways to give a cap when neither exists."""
    if max_k is not None and max_k < 2:
        raise ValidationError(f"the arity cap must be at least 2, got {max_k}")
    caps = [c for c in (max_k, derived) if c is not None]
    if not caps:
        raise BoundError("cannot derive an arity cap; give max_k "
                         "(--max-arity on the command line)")
    return min(caps)


def ainf_transfer_cap(C: AInfCoalgebra, small: GradedSpace) -> int | None:
    """Largest arity a tree-transferred co-op can have, by degree counting.

    Each leaf value lands in the desuspended small space; its degrees bound
    how many leaves the fixed total degree can feed: shifted, k leaves of
    degree >= lo = min(small) - 1 sum to one less than a root of degree
    <= hi = max(C) - 1, so k lo + 1 <= hi.  An empty small space carries
    no co-operations, and the cap is 2.
    """
    return degree_cap(small.min_degree() - 1, C.space.max_degree() - 1, 1) if small.dim else 2


def transfer_ainf(C: AInfCoalgebra, r: HomotopyRetract,
                  max_k: int | None = None) -> AInfCoalgebra:
    """Transferred co-operations Delta'_m(n) = unshift(F(m, i(n))), where in
    the shifted world G(1, y) = p(y) and G(m, y) = F(m, h(y)) on a basis
    element y of the big space, and F(m, el) is the sum, over the arities
    j >= 2 of C, the compositions m = m_1 + ... + m_j and the terms
    c (y_1|...|y_j) of delta_j(el), of c G(m_1, y_1) ... G(m_j, y_j).  Every
    G value has degree 0, so their tensor carries no Koszul sign.  G is
    evaluated on demand from i(H) downward, once per (m, y).  Unrolled, this
    visits each planar tree once: it is the sum over planar trees with m
    leaves."""
    coops = shifted_coops(C)
    big, small = r.big.space.suspend(-1), r.small.space.suspend(-1)
    cap = arity_cap(max_k, ainf_transfer_cap(C, r.small.space))
    arities = [j for j in sorted(coops) if j >= 2]

    @cache
    def G(m: int, y: str) -> Element:
        w = Word.tensor(y)
        if m == 1:
            return Element._of(small, r.proj.apply_word(w).terms)
        return F(m, Element._of(big, (-r.homotopy.apply_word(w)).terms))

    def F(m: int, el: Element) -> Element:
        parts = []
        for j in arities:
            terms = coops[j].apply(el).terms.items()
            for cuts in itertools.combinations(range(1, m), j - 1):
                sizes = [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
                parts.extend((c, reduce(Element.times, map(G, sizes, w.factors)))
                             for w, c in terms)
        return lincomb(small, parts)

    ops = {1: r.small.diff}
    for m in range(2, cap + 1):
        images = {w: F(m, Element._of(big, el.terms)) for w, el in r.incl.images.items()}
        ops[m] = unshift(GradedMap(small, small, -1, images), m, r.small.space)
    counit = C.counit if (C.counit and C.counit in r.small.space) else None
    return AInfCoalgebra(r.small.space, ops, counit=counit)


# ---------------------------------------------------------------------------
# L-infinity transfer


def linf_transfer_cap(L: LInfAlgebra, small: GradedSpace) -> int | None:
    """Arity cap by degree counting, available for positively graded input;
    2 on an empty small space, which carries no brackets.  In the shifted
    world the k inputs of B'_k have degrees >= lo = min(small) + 1 and its
    value, one less than theirs, degree <= hi = max(L) + 1: k lo - 1 <= hi."""
    return degree_cap(small.min_degree() + 1, L.space.max_degree() + 1, -1) if small.dim else 2


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
    carriers = letter_index(support.items())
    pool_lists = ([carriers.get(u, ()) for u in sw.factors]
                  for j in arities if j <= k for sw in L.ops[j].images)
    found = substituted_words(space, "m", pool_lists, length=k)
    return sorted((w.factors for w in found), key=lambda fs: [space.sortkey(f) for f in fs])


def _vertex_sum(w: tuple[str, ...], support: dict, arities: list[int],
                B: dict[int, GradedMap], small: GradedSpace, big: GradedSpace) -> Element:
    """F(w): every root vertex B_j over every split of w into j blocks.

    A split is peeled block by block: the block that holds the least
    position left is looked up in the support, the rest is split alike.
    The subwords of a canonical word are canonical, so each block is looked
    up as it stands; a block outside the support has I = 0."""
    degs = [small.degree(f) for f in w]
    terms: dict[Word, Fraction] = {}

    def peel(left: tuple[int, ...], order: tuple[int, ...], vals: list[Element]) -> None:
        if not left:
            if len(vals) in arities:
                eps = koszul_sign([p + 1 for p in order], degs, signature=False)
                for word, c in B[len(vals)].apply(reduce(Element.times, vals)).terms.items():
                    terms[word] = terms.get(word, ZERO) + eps * c
        elif len(vals) < arities[-1]:
            first, rest = left[0], left[1:]
            for n in range(len(rest) + 1):
                for others in itertools.combinations(rest, n):
                    v = support.get(tuple(w[p] for p in (first, *others)))
                    if v is not None:
                        peel(tuple(p for p in rest if p not in others),
                             (*order, first, *others), [*vals, v])

    peel(tuple(range(len(w))), (), [])
    return Element(big, terms)


def transfer_linf(L: LInfAlgebra, r: HomotopyRetract, max_k: int | None = None,
                  words: dict[int, list[Word]] | None = None) -> LInfAlgebra:
    """Transferred brackets ell'_k = p o F by the i_infinity recursion.

    In the shifted world, for a canonical word w = x_1...x_k of the small
    space,

        F(w) = sum_j sum_{splits of the k positions into j blocks}
               eps * B_j(I(x_{B_1}) (x) ... (x) I(x_{B_j})),

    where eps is the Koszul sign of concatenating the blocks, I(x) = i(x)
    for a single factor and I(x_B) = h(F(x_B)) otherwise, and
    ell'_k(w) = p(F(w)).  j runs over the arities j >= 2 of L.  The splits
    are peeled from one support table, the dict from every word with
    nonzero I to its value (`_vertex_sum`), so no split with a block of
    I = 0 is enumerated.  Only the canonical merges of words with nonzero
    I that fill a support word of ell_j letter by letter are evaluated
    (`_support_merges`, built on the candidate generator
    `core.substituted_words` that the Jacobi check, twisting and
    truncation share), so the cost follows the output rather than the word
    basis.  Scalars stay exact ints or Fractions throughout.
    A split into blocks, applied recursively, is a leaf-labelled rooted
    tree, so by orbit-stabilizer this is the tree sum sum_T ell_T / |Aut T|
    over the isomorphism classes of rooted trees with k leaves.

    `words`, when given, restricts which ell'_k images are kept at each
    arity; the I values below max_k are computed in full regardless.
    """
    B = shifted_brackets(L)
    H = r.small.space
    big, small = r.big.space.suspend(+1), H.suspend(+1)
    max_k = arity_cap(max_k, linf_transfer_cap(L, H))
    arities = [j for j in sorted(L.ops) if j >= 2]

    ops = {1: suspend_map(r.small.diff, H, H, -1, kind="w")}
    # support: the canonical words with nonzero I, of every length so far, mapped to I
    support = {(n,): Element._of(big, r.incl.apply_word(Word.tensor(n)).terms) for n in H.names}
    for k in range(2, max_k + 1):
        kept = None if words is None or words.get(k) is None else {w.factors for w in words[k]}
        last = k == max_k
        images = {}
        for w in _support_merges(support, k, arities, small, L):
            if last and kept is not None and w not in kept:
                continue
            f = _vertex_sum(w, support, arities, B, small, big)
            if not f:
                continue
            f = Element._of(r.big.space, f.terms)
            if not last:
                iw = r.homotopy.apply(f)
                if iw:
                    support[w] = Element._of(big, (-iw).terms)
            if kept is None or w in kept:
                images[Word.wedge(*w)] = Element._of(small, r.proj.apply(f).terms)
        ops[k] = unshift(GradedMap(small, small, -1, images, k, "w"), k, H)
    return LInfAlgebra(H, ops)


# ---------------------------------------------------------------------------
# Hom complexes and the induced retract


def hom_name(c: str, x: str) -> str:
    return f"{c}.{x}"


def hom_space(source: GradedSpace, target: GradedSpace) -> GradedSpace:
    """Elementary maps c -> x in source-major order; degree |x| - |c|."""
    pairs = [(c, x) for c in source.names for x in target.names]
    names = derived_names(pairs, lambda p: hom_name(*p), "(c, x) =")
    return GradedSpace.of([(n, target.degree(x) - source.degree(c))
                           for n, (c, x) in zip(names, pairs)])


def _precompose(g: GradedMap, L: GradedSpace, out: GradedSpace,
                twist: int | None = None) -> dict[Word, Element]:
    """f |-> f o g on the elementary maps f = c.x, c in the target of g and
    x in L, as images in `out`; with `twist` t, times (-1)^{|f| + t}.
    f o g sends c' to co * x, co the coefficient of c in g(c'): each image
    of g is read once, in the order of g's source basis."""
    cols: dict[str, list[tuple[str, Fraction]]] = {}
    for cp in g.source.names:
        for w, co in g.apply_word(Word.tensor(cp)).terms.items():
            cols.setdefault(w.factors[0], []).append((cp, co))
    images = {}
    for c in g.target.names:
        col = cols.get(c)
        if not col:
            continue
        for x in L.names:
            odd = twist is not None and (L.degree(x) - g.target.degree(c) + twist) % 2
            images[Word.tensor(hom_name(c, x))] = lincomb(
                out, [(-co if odd else co, Element.gen(out, hom_name(cp, x))) for cp, co in col])
    return images


def hom_complex(source: ChainComplex, L: LInfAlgebra) -> ChainComplex:
    """Hom(C, L) with ell_1(f) = ell_1 o f + (-1)^{|f|+1} f o delta."""
    space = hom_space(source.space, L.space)
    ell1 = L.ell(1)
    zero = Element.zero(space)
    pre = _precompose(source.diff, L.space, space, twist=1)
    images: dict[Word, Element] = {}
    for c in source.space.names:
        for x in L.space.names:
            f = Word.tensor(hom_name(c, x))
            post = ell1.apply_word(Word.tensor(x))
            images[f] = lincomb(space, [*((cy, Element.gen(space, hom_name(c, wy.factors[0])))
                                          for wy, cy in post.terms.items()),
                                        (1, pre.get(f, zero))])
    return ChainComplex(space, GradedMap(space, space, -1, images))


def hom_retract(r: HomotopyRetract, L: LInfAlgebra) -> HomotopyRetract:
    """The retract induced on Hom complexes by precomposition: f |-> f o p,
    f o i and (-1)^{|f|} f o h; big side Hom(C,L), small side Hom(H,L)."""
    big = hom_complex(r.big, L)
    small = hom_complex(r.small, L)
    bs, ss = big.space, small.space
    incl = GradedMap(ss, bs, 0, _precompose(r.proj, L.space, bs))
    proj = GradedMap(bs, ss, 0, _precompose(r.incl, L.space, ss))
    homotopy = GradedMap(bs, bs, 1, _precompose(r.homotopy, L.space, bs, twist=0))
    return HomotopyRetract(big, small, incl, proj, homotopy)
