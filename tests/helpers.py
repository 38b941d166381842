"""Fixture constructors, cross-checks and randomized generators of valid
test structures.

The table constructors build the fixtures' coalgebras and L-infinity
algebras from coefficient tables.  The shifted checkers run the engine's
axiom loops on the suspension-normalized ops, without the literal signs,
as a second form of `check_ainf` and `check_linf`.  `parity_involution`
negates every bracket, the normalization under which transferred brackets
are compared with printed worked-example values.

Every structure is checked when it is built; `unchecked` patches the
constructors' axiom checks out, for the tests that feed a broken structure
to a checker.  `paper_dual` and `paper_bs_direct` give the worked example's
dual and its route-2 Brown-Szczarba model the paper's names `RENAME`.

Sullivan algebras are built generator by generator with differentials drawn
from the exact kernel of d on the smaller algebra, so d^2 = 0 holds by
construction; finite CDGAs are degree truncations of those, optionally
cut to words of length <= 2 (`length_two`), and random cocommutative DGCs
are their duals.

The dense reference loops at the end evaluate the convolution, the
Maurer-Cartan twist and the truncation on every wedge word of the space,
and build the homology decomposition, its retract, the direct Quillen
differential, the direct reduced Brown-Szczarba differential and the dual
coalgebra by full-width solves; the tests compare the engine against them
image by image.  The kernel references after them
are the routes the kernel replaced: the materialized tensor product of
maps (for `apply_at`), the derivation built as products of prefix and
suffix Elements (for `core.derivation`), and the all-combinations merge of
support words (for `transfer._support_merges`).
"""

import contextlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

from htcas import linalg, structures
from htcas.core import (
    ZERO,
    Element,
    GradedMap,
    GradedSpace,
    Word,
    canonical_word,
    frac,
    from_coords,
    koszul_sign,
    lincomb,
    suspend_map,
    tensor_apply,
    word_basis,
)
from htcas.functors import (
    CDGA,
    FiniteCDGA,
    FreeLieDGL,
    dual_coalgebra,
    lie_bracket,
)
from htcas.mapping import bs_name, convolution_linf, reduced_bs_direct
from htcas.structures import (
    AInfCoalgebra,
    CheckReport,
    LInfAlgebra,
    _check_coherence,
    _check_jacobi,
    iterated_coproducts,
    shifted_brackets,
    shifted_coops,
)
from htcas.transfer import (
    ChainComplex,
    Decomposition,
    HomotopyRetract,
    _support_merges,
    _vertex_sum,
    canonical_retract,
    hom_complex,
    hom_name,
)
from tree_oracles import shift_retract


@contextlib.contextmanager
def unchecked():
    """The structure constructors with their A-infinity and Jacobi checks
    patched out, for building a broken structure to feed a checker."""
    def ok(structure) -> CheckReport:
        return CheckReport(True)

    with mock.patch.object(structures, "check_ainf", ok), \
            mock.patch.object(structures, "check_linf", ok):
        yield


def dgc_from_tables(space: GradedSpace, diff: dict, cop: dict,
                    counit: str | None = None) -> AInfCoalgebra:
    """DGC from tables: diff {gen: [(coeff, target)]},
    cop {gen: [(coeff, (left, right))]}."""
    ops: dict[int, GradedMap] = {}
    if diff:
        images = {
            Word.tensor(g): Element.make(space, [(c, "t", (t,)) for c, t in pairs])
            for g, pairs in diff.items()
        }
        ops[1] = GradedMap(space, space, -1, images)
    if cop:
        images = {
            Word.tensor(g): Element.make(space, [(c, "t", fs) for c, fs in pairs])
            for g, pairs in cop.items()
        }
        ops[2] = GradedMap(space, space, 0, images)
    return AInfCoalgebra(space, ops, counit=counit)


def linf_from_tables(space: GradedSpace, ops_table: dict[int, dict]) -> LInfAlgebra:
    """L-infinity from {k: {(names...): [(coeff, target)]}} tables."""
    ops: dict[int, GradedMap] = {}
    for k, table in ops_table.items():
        images = {}
        for fs, pairs in table.items():
            w, s = canonical_word(space, "w", fs)
            if w is None:
                raise ValueError(f"degenerate wedge word {fs}")
            el = Element.make(space, [(s * frac(c), "t", (t,)) for c, t in pairs])
            if el:
                images[w] = el
        if images:
            ops[k] = GradedMap(space, space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(space, ops)


def check_ainf_shifted(C: AInfCoalgebra) -> CheckReport:
    """Cross-form of check_ainf in the degree -1 normalization (sign-free)."""
    return _check_coherence(shifted_coops(C), C.space.suspend(-1), False, "shifted relation")


def check_linf_shifted(L: LInfAlgebra) -> CheckReport:
    """Cross-form of check_linf in the suspended normalization."""
    return _check_jacobi(shifted_brackets(L), L.space.suspend(+1), "m", False, "shifted Jacobi")


def parity_involution(L: LInfAlgebra) -> LInfAlgebra:
    """Conjugation by f -> (-1)^{|f|+1} f, which negates every bracket.

    This is an isomorphism of L-infinity algebras; it is the documented
    global normalization used when comparing transferred brackets against
    their printed worked-example values."""
    ops = {
        k: GradedMap(m.source, m.target, m.degree,
                     {w: (-1) * el for w, el in m.images.items()},
                     arity=m.arity, in_kind=m.in_kind)
        for k, m in L.ops.items()
    }
    return LInfAlgebra(L.space, ops)


def identity_retract(cx: ChainComplex) -> HomotopyRetract:
    ident = GradedMap.identity(cx.space)
    return HomotopyRetract(cx, cx, ident, ident, GradedMap.zero(cx.space, cx.space, 1))


def symmetrize(space: GradedSpace, word: Word, signature: bool = True) -> Element:
    """Signed sum of the k! tensor rearrangements of a word: graded
    signature signs for a wedge word, Koszul signs alone (signature=False)
    for a monomial word."""
    fs = word.factors
    degs = [space.degree(f) for f in fs]
    terms: dict[Word, Fraction] = {}
    for perm in itertools.permutations(range(1, len(fs) + 1)):
        s = koszul_sign(list(perm), degs, signature=signature)
        w = Word.tensor(*(fs[p - 1] for p in perm))
        terms[w] = terms.get(w, ZERO) + s
    return Element(space, terms)


def coords(el: Element, words: list[Word]) -> list[Fraction]:
    return [el.coeff(w) for w in words]


# the worked example's dual basis names: monomials of Lambda(a3, b3, c5), dc = ab
RENAME = {"a": "g", "b": "h", "c": "r", "a.b": "s", "a.c": "u", "b.c": "v",
          "a.b.c": "w", "one": "unit"}


def _renamed(names: dict, w: Word) -> Word:
    return Word(w.kind, tuple(names.get(f, f) for f in w.factors))


def _renamed_element(space: GradedSpace, names: dict, el: Element) -> Element:
    return Element(space, {_renamed(names, w): c for w, c in el.terms.items()})


def paper_dual(B: FiniteCDGA, counital: bool) -> AInfCoalgebra:
    """`dual_coalgebra` of B with its basis renamed by RENAME."""
    C = dual_coalgebra(B, counital=counital)
    space = GradedSpace.of([(RENAME.get(n, n), d) for n, d in C.space.basis])
    ops = {k: GradedMap(space, space, m.degree, {
        _renamed(RENAME, w): _renamed_element(space, RENAME, el)
        for w, el in m.images.items()}) for k, m in C.ops.items()}
    return AInfCoalgebra(space, ops, counit=None if C.counit is None else RENAME[C.counit])


def paper_bs_direct(B: FiniteCDGA, A: CDGA) -> CDGA:
    """`reduced_bs_direct` of B and A with each generator v.h renamed
    v.RENAME[h], keyed by (h, v): h a homology class of B's reduced dual,
    v a generator of A."""
    bs = reduced_bs_direct(B, A)
    homology = canonical_retract(dual_coalgebra(B, counital=False)).small.space
    names = {bs_name(h, v): bs_name(RENAME.get(h, h), v)
             for h in homology.names for v in A.gens.names}
    space = GradedSpace.of([(names[n], d) for n, d in bs.gens.basis])
    return CDGA(space, {names[g]: _renamed_element(space, names, el)
                        for g, el in bs.diff.items()})


# a cubic differential, so that ell_3 reaches the convolution of any source
# with Delta^{(2)} != 0
CUBIC_Y = CDGA.of([("x", 3), ("y", 3), ("z", 3), ("w", 8)],
                  {"w": [(1, ("x", "y", "z"))]})


def random_sullivan(rng: random.Random, max_gens: int = 4, odd_only: bool = False,
                    max_degree: int = 7, quadratic_chance: float = 0.8) -> CDGA:
    gens: list[tuple[str, int]] = []
    diff: dict[str, list] = {}
    algebra = CDGA.of([], {})
    for i in range(rng.randint(2, max_gens)):
        if odd_only:
            deg = rng.choice([d for d in range(3, max_degree + 1, 2)])
        else:
            deg = rng.randint(2, max_degree)
        name = f"v{i}"
        img_items = []
        if gens and rng.random() < quadratic_chance:
            monos = [
                fs
                for fs in algebra.monomial_basis(deg + 1)
                if len(fs) >= 2 and algebra.gens.word_degree(Word.mono(*fs)) == deg + 1
            ]
            if monos:
                dmonos = [algebra.d(Element.make(algebra.gens, [(1, "m", fs)])) for fs in monos]
                allw = sorted({w for dm in dmonos for w in dm.terms}, key=repr)
                rows = [[dm.coeff(w) for dm in dmonos] for w in allw]
                kernel = linalg.nullspace(rows, len(monos))
                if kernel:
                    combo = [Fraction(0)] * len(monos)
                    for v in kernel:
                        c = Fraction(rng.randint(-1, 1))
                        if c:
                            combo = [a + c * b for a, b in zip(combo, v)]
                    img_items = [
                        (c, monos[j]) for j, c in enumerate(combo) if c
                    ]
        gens.append((name, deg))
        if img_items:
            diff[name] = img_items
        algebra = CDGA.of(gens, diff)
    return algebra


def length_two(B: FiniteCDGA) -> FiniteCDGA:
    """B cut to its monomials of word length <= 2, in the same order: its
    reduced dual has conilpotence two."""
    B.monomials = [fs for fs in B.monomials if len(fs) <= 2]
    B.names = {fs: B.names[fs] for fs in B.monomials}
    return B


def random_finite_cdga(rng: random.Random, max_dim: int = 8,
                       conilpotence_two: bool = False) -> FiniteCDGA:
    """Finite-dimensional truncation of a random Sullivan algebra, cut by
    `length_two` when `conilpotence_two`."""
    while True:
        A = random_sullivan(rng, max_gens=3, odd_only=True, max_degree=7)
        top = 2 * A.gens.max_degree() + 2
        B = FiniteCDGA(A, max_cohom=top)
        if conilpotence_two:
            B = length_two(B)
        if 2 <= len(B.monomials) - 1 <= max_dim:
            return B


def random_cocommutative_dgc(rng: random.Random, max_dim: int = 6,
                             conilpotence_two: bool = False):
    """(full, reduced) dual pair of a random finite CDGA, reduced dim <= max_dim."""
    B = random_finite_cdga(rng, max_dim=max_dim, conilpotence_two=conilpotence_two)
    return dual_coalgebra(B, counital=True), dual_coalgebra(B, counital=False)


def oracle_sources() -> list[tuple[str, FiniteCDGA]]:
    """Finite CDGAs on whose duals the engine is compared with the dense
    routes: example1_X, n4, n5 and chain truncated at their top degree, and
    the first ten random Sullivan algebras from random.Random(37) with a
    nonzero differential, truncated at twice their top generator degree.
    chain (de = ac on top of dc = ab) is the one whose substitutions through
    the canonical retract nest two levels deep, on both direct routes."""
    fixed = {
        "ex1": ([("a", 3), ("b", 3), ("c", 5)], {"c": [(1, ("a", "b"))]}),
        "n4": ([("a", 3), ("b", 3), ("c", 5), ("e", 3)], {"c": [(1, ("a", "b"))]}),
        "n5": ([("a", 3), ("b", 3), ("c", 5), ("e", 3), ("f", 5)],
               {"c": [(1, ("a", "b"))], "f": [(1, ("a", "e"))]}),
        "chain": ([("a", 3), ("b", 3), ("c", 5), ("e", 7)],
                  {"c": [(1, ("a", "b"))], "e": [(1, ("a", "c"))]}),
    }
    out = [(tag, FiniteCDGA(CDGA.of(gens, d), max_cohom=sum(deg for _, deg in gens)))
           for tag, (gens, d) in fixed.items()]
    rng = random.Random(37)
    while len(out) < len(fixed) + 10:
        A = random_sullivan(rng, odd_only=True, quadratic_chance=1.0)
        if A.diff:
            out.append((f"random{len(out) - len(fixed)}",
                        FiniteCDGA(A, max_cohom=2 * A.gens.max_degree())))
    return out


def convolution(C: AInfCoalgebra, L: LInfAlgebra) -> LInfAlgebra:
    """`mapping.convolution_linf` on the Hom complex of C and L built here."""
    return convolution_linf(C, L, hom_complex(ChainComplex(C.space, C.delta(1)), L))


# ---------------------------------------------------------------------------
# dense reference loops over every wedge word of the space; the engine
# builds the same brackets from the supports of the maps it reads


def dense_convolution(C: AInfCoalgebra, L: LInfAlgebra) -> LInfAlgebra:
    """The convolution structure on Hom(C, L) for a DGC C, one wedge word of
    Hom(C, L) at a time (reference for `mapping.convolution_linf`)."""
    if not C.is_dgc:
        raise ValueError("convolution brackets need a DGC source")
    cx = ChainComplex(C.space, C.delta(1))
    hc = hom_complex(cx, L)
    hs = hc.space
    ops: dict[int, GradedMap] = {}
    if not hc.diff.is_zero():
        ops[1] = suspend_map(hc.diff, hs, hs, -1, kind="w")

    parts = {
        hom_name(c, x): (c, x)
        for c in C.space.names
        for x in L.space.names
    }
    cops = dict(zip(range(2, L.max_arity + 1), iterated_coproducts(C)))
    for k in sorted(L.ops):
        if k < 2:
            continue
        ellk = L.ell(k)
        images: dict[Word, Element] = {}
        for w in word_basis(hs, "w", k):
            sources = [parts[f][0] for f in w.factors]
            targets = [parts[f][1] for f in w.factors]
            fdegs = [hs.degree(f) for f in w.factors]
            out = Element.zero(hs)
            for c in C.space.names:
                split = cops[k].apply_word(Word.tensor(c))
                total = Element.zero(L.space)
                for cw, co in split.terms.items():
                    if list(cw.factors) != sources:
                        continue
                    sign = 1
                    for i in range(k):
                        if C.space.degree(cw.factors[i]) % 2:
                            if sum(fdegs[i + 1:]) % 2:
                                sign = -sign
                    val = ellk.apply_word(Word.tensor(*targets))
                    total = total + (sign * co) * val
                for xw, cx_ in total.terms.items():
                    out = out + cx_ * Element.gen(hs, hom_name(c, xw.factors[0]))
            if out:
                images[w] = out
        if images:
            ops[k] = GradedMap(hs, hs, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(hs, ops)


def dense_perturb(L: LInfAlgebra, z: Element) -> LInfAlgebra:
    """Twisted structure ell_k^z = sum_i (1/i!) ell_{i+k}(z,...,z, -), on
    every wedge word (reference for `structures.perturb`)."""
    ops: dict[int, GradedMap] = {}
    for k in range(1, L.max_arity + 1):
        images = {}
        for w in word_basis(L.space, "w", k):
            base = Element(L.space, {Word.tensor(*w.factors): Fraction(1)})
            total = Element.zero(L.space)
            arg = base
            for i in range(0, L.max_arity - k + 1):
                if i > 0:
                    arg = z.times(arg)
                    if not arg:
                        break
                if i + k in L.ops:
                    total = total + Fraction(1, math.factorial(i)) * L.ell(i + k).apply(arg)
            if total:
                images[w] = total
        if images:
            ops[k] = GradedMap(L.space, L.space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(L.space, ops)


def dense_truncate(L: LInfAlgebra) -> LInfAlgebra:
    """Keep positive degrees and the ell_1-cycles in degree 0.

    The degree-0 part is replaced by an echelon basis of ker(ell_1),
    named by pivot generators; brackets are re-expressed in that basis,
    on every wedge word of the new basis (reference for
    `structures.truncate`).
    """
    space = L.space
    pos = [n for n in space.names if space.degree(n) > 0]
    zero = [n for n in space.names if space.degree(n) == 0]
    ell1 = L.ell(1)

    # cycle basis in degree 0
    tgt = [n for n in space.names if space.degree(n) == -1]
    mat = []
    for t in tgt:
        row = []
        for n in zero:
            img = ell1.apply_word(Word.tensor(n))
            row.append(img.coeff(Word.tensor(t)))
        mat.append(row)
    cycles = linalg.nullspace(mat, len(zero)) if zero else []
    cycles = linalg.echelon_basis(cycles)

    pairs = [(n, space.degree(n)) for n in pos]
    include: dict[str, Element] = {n: Element.gen(space, n) for n in pos}
    cycle_words = [Word.tensor(n) for n in zero]
    for vec in cycles:
        pivot = zero[next(i for i, x in enumerate(vec) if x)]
        include[pivot] = from_coords(space, cycle_words, vec)
        pairs.append((pivot, 0))
    new_space = GradedSpace.of(sorted(pairs, key=lambda p: space.index(p[0])))

    # coordinates of a degree-0 cycle in the new basis
    cyc_cols = [[v[i] for v in cycles] for i in range(len(zero))] if cycles else []
    zero_new = [n for n, d in new_space.basis if d == 0]

    def reexpress(el: Element) -> Element:
        if not el:
            return Element.zero(new_space)
        if el.degree != 0:
            for w in el.terms:
                if any(f not in new_space for f in w.factors):
                    raise ValueError("truncation is not closed under brackets")
            return Element(new_space, dict(el.terms))
        vec = [el.coeff(Word.tensor(n)) for n in zero]
        sol = linalg.solve(cyc_cols, vec) if cycles else None
        if sol is None:
            raise ValueError("bracket output is not an ell_1-cycle in degree 0")
        return Element.make(new_space, [(c, "t", (zero_new[i],)) for i, c in enumerate(sol) if c])

    ops: dict[int, GradedMap] = {}
    for k in sorted(L.ops):
        images = {}
        for w in word_basis(new_space, "w", k):
            arg = None
            for f in w.factors:
                e = include[f]
                arg = e if arg is None else arg.times(e)
            out = L.ell(k).apply(arg)
            out_deg = out.degree
            if not out or out_deg is None:
                continue
            if out_deg < 0:
                raise ValueError("truncation is not closed under brackets")
            img = reexpress(out)
            if img:
                images[w] = img
        if images:
            ops[k] = GradedMap(new_space, new_space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(new_space, ops)


# ---------------------------------------------------------------------------
# dense reference routes for the homology decomposition, its retract, the
# direct Quillen recursion and the dual coalgebra: full-width solves and
# ranks over the whole space, dim^2 derivations and a dim^3 degree filter;
# the engine builds the same data one degree block at a time


def dense_rank(mat: list) -> int:
    return len(linalg.rref(mat)[0]) if mat else 0


def dense_extend_to_complement(span: list, dim: int) -> list[int]:
    """Indices of coordinate vectors completing `span` to all of Q^dim.

    Greedy in declaration order, so the complement is canonical.
    """
    rows = [list(v) for v in span]
    out = []
    rk = dense_rank(rows)
    for i in range(dim):
        e = linalg.zeros(dim)
        e[i] = Fraction(1)
        if dense_rank(rows + [e]) > rk:
            rows.append(e)
            rk += 1
            out.append(i)
    return out


def dense_homology_dims(cx: ChainComplex) -> dict[int, int]:
    """Dimension of homology per degree, by full-width ranks: the reference
    for the degrees of H in `homology_decomposition`, which the engine never
    recounts (the retract checks already make i a homotopy equivalence)."""
    names = cx.space.names
    words = [Word.tensor(n) for n in names]
    by_deg: dict[int, list[str]] = {}
    for n in names:
        by_deg.setdefault(cx.space.degree(n), []).append(n)
    out: dict[int, int] = {}
    for deg, gens in by_deg.items():
        mat_rows = [coords(cx.diff.apply_word(Word.tensor(g)), words) for g in gens]
        rk = dense_rank(mat_rows)
        ker = len(gens) - rk
        bnd_rows = [
            coords(cx.diff.apply_word(Word.tensor(g)), words)
            for g in names
            if cx.space.degree(g) == deg + 1
        ]
        out[deg] = ker - dense_rank(bnd_rows)
    return {d: v for d, v in out.items() if v}


def dense_decomposition(cx: ChainComplex) -> Decomposition:
    """C = A + dA + H by a full-width nullspace, a rank per coordinate and
    two span tests per coordinate (reference for `homology_decomposition`)."""
    space = cx.space
    names = space.names
    words = [Word.tensor(n) for n in names]
    dim = len(names)

    d_rows = [coords(cx.diff.apply_word(w), words) for w in words]
    # kernel of d: vectors x with sum x_i d(e_i) = 0
    cols = [[d_rows[i][j] for i in range(dim)] for j in range(dim)]
    cycles = linalg.echelon_basis(linalg.nullspace(cols, dim))
    bnds = linalg.echelon_basis([r for r in d_rows if any(r)])

    a_idx = dense_extend_to_complement(cycles, dim)
    a_part = [Element.gen(space, names[i]) for i in a_idx]

    h_vecs: list[list[Fraction]] = []
    span = [list(b) for b in bnds]
    for i in range(dim):
        e = linalg.zeros(dim)
        e[i] = Fraction(1)
        if linalg.in_span(cycles, e) and not linalg.in_span(span, e):
            span.append(e)
            h_vecs.append(e)
    for v in cycles:
        if not linalg.in_span(span, v):
            span.append(list(v))
            h_vecs.append(list(v))
    want = len(cycles) - len(bnds)
    assert len(h_vecs) == want, "homology decomposition miscounted"
    h_part = [from_coords(space, words, v) for v in h_vecs]
    return Decomposition(cx, a_part, h_part)


def dense_retract(dec: Decomposition) -> HomotopyRetract:
    """The canonical retract by one dim x (dim+1) solve per generator
    (reference for `retract_from_decomposition`)."""
    cx = dec.complex
    space = cx.space
    names = space.names
    words = [Word.tensor(n) for n in names]
    dim = len(names)

    a_vecs = [coords(a, words) for a in dec.a_part]
    da_vecs = [coords(cx.diff.apply(a), words) for a in dec.a_part]
    h_vecs = [coords(hrep, words) for hrep in dec.h_part]

    used: set[str] = set()
    small_pairs = []
    for vec, el in zip(h_vecs, dec.h_part):
        pivot = next(i for i, x in enumerate(vec) if x)
        name = names[pivot]
        while name in used:
            name += "_"
        used.add(name)
        small_pairs.append((name, space.degree(names[pivot])))
    small_space = GradedSpace.of(small_pairs)
    small = ChainComplex.zero_diff(small_space)

    incl_images = {
        Word.tensor(nm): el for (nm, _), el in zip(small_pairs, dec.h_part)
    }
    incl = GradedMap(small_space, space, 0, incl_images)

    basis_vectors = a_vecs + da_vecs + h_vecs
    mat = [[basis_vectors[j][i] for j in range(len(basis_vectors))] for i in range(dim)]
    na = len(a_vecs)
    proj_images = {}
    hom_images = {}
    for gi, n in enumerate(names):
        e = linalg.zeros(dim)
        e[gi] = Fraction(1)
        sol = linalg.solve(mat, e)
        assert sol is not None, "decomposition does not span"
        p_el = Element.make(
            small_space,
            [(sol[2 * na + s], "t", (small_pairs[s][0],)) for s in range(len(h_vecs))],
        )
        if p_el:
            proj_images[Word.tensor(n)] = p_el
        h_el = Element.zero(space)
        for j in range(na):
            if sol[na + j]:
                h_el = h_el + sol[na + j] * dec.a_part[j]
        if h_el:
            hom_images[Word.tensor(n)] = h_el
    proj = GradedMap(space, small_space, 0, proj_images)
    homotopy = GradedMap(space, space, 1, hom_images)
    return HomotopyRetract(cx, small, incl, proj, homotopy)


def dense_quillen_direct(C: AInfCoalgebra, dec) -> FreeLieDGL:
    """Quillen-minimal differential with lam splitting every element by a
    fresh solve against the A + dA basis (reference for
    `functors.quillen_differential_direct`)."""
    if not C.is_dgc:
        raise ValueError("the direct recursion needs a DGC")
    if C.counit is not None:
        raise ValueError("the direct recursion expects a reduced coalgebra")
    space = C.space
    words = [Word.tensor(n) for n in space.names]

    r = dense_retract(dec)
    small = r.small.space
    gens = small.suspend(-1)

    a_elems = dec.a_part
    a_vecs = [coords(a, words) for a in a_elems]
    da_vecs = [coords(C.delta(1).apply(a), words) for a in a_elems]

    def bracket_halves(cop: Element, lam_fn, depth: int) -> Element:
        """(1/2) sum (-1)^{|z'|} [lam z', lam z''] over a coproduct value."""
        total = Element.zero(gens)
        for w, c in cop.terms.items():
            zl, zr = w.factors
            sign = -1 if space.degree(zl) % 2 else 1
            left = lam_fn(Element.gen(space, zl), depth)
            right = lam_fn(Element.gen(space, zr), depth)
            if left and right:
                total = total + (Fraction(1, 2) * sign * c) * lie_bracket(left, right)
        return total

    def lam(el: Element, depth: int = 0) -> Element:
        if depth > space.dim + 2:
            raise RuntimeError("non-terminating recursion")
        out = Element.zero(gens)
        if not el:
            return out
        proj = r.proj.apply(el)
        for w, c in proj.terms.items():
            out = out + c * Element.gen(gens, w.factors[0])
        # split the rest over the A and dA coordinates; lam kills A
        vec = coords(el, words)
        hvec = coords(r.incl.apply(proj), words)
        rest = [x - y for x, y in zip(vec, hvec)]
        if any(rest):
            basis = a_vecs + da_vecs
            cols = [[v[i] for v in basis] for i in range(space.dim)]
            sol = linalg.solve(cols, rest)
            if sol is None:
                raise ValueError("element outside A + dA + H")
            for j, cj in enumerate(sol[len(a_vecs):]):
                if cj:
                    cop = C.delta(2).apply(a_elems[j])
                    out = out + cj * bracket_halves(cop, lam, depth + 1)
        return out

    diff: dict[str, Element] = {}
    for nm in small.names:
        rep = r.incl.apply_word(Word.tensor(nm))
        total = bracket_halves(C.delta(2).apply(rep), lam, 0)
        if total:
            diff[nm] = total
    out = FreeLieDGL(gens, diff)
    if not out.is_minimal:
        raise ValueError("direct Quillen differential has a linear part")
    return out


def dense_bs_direct(B: FiniteCDGA, A: CDGA) -> CDGA:
    """The reduced Brown-Szczarba differential with each factor v.c split by
    a fresh solve against the A + dA basis of the dense decomposition, no
    value stored, and Delta^{(n-1)} taken as (id (x) Delta^{(n-2)}) o Delta
    (reference for `mapping.reduced_bs_direct`)."""
    C = dual_coalgebra(B, counital=False)
    space = C.space
    words = [Word.tensor(n) for n in space.names]
    dec = dense_decomposition(ChainComplex(space, C.delta(1)))
    r = dense_retract(dec)
    small = r.small.space
    bs = GradedSpace.of([(bs_name(h, v), A.gens.degree(v) - small.degree(h))
                         for h in small.names for v in A.gens.names])
    basis = [coords(a, words) for a in dec.a_part]
    basis += [coords(C.delta(1).apply(a), words) for a in dec.a_part]
    cols = [[vec[i] for vec in basis] for i in range(space.dim)]

    def split(el: Element, n: int) -> Element:
        """Delta^{(n-1)}(el), splitting off the first factor each time."""
        if n == 1:
            return el
        total = Element.zero(space)
        for w, c in C.delta(2).apply(el).terms.items():
            head, tail = w.factors
            for t, ct in split(Element.gen(space, tail), n - 1).terms.items():
                total = total + Element.make(space, [(c * ct, "t", (head, *t.factors))])
        return total

    def expand(v: str, el: Element, depth: int) -> Element:
        """dv over el: the products (v_1.c^1)...(v_n.c^n) over Delta^{(n-1)}(el),
        each signed by (-1)^{|c^i||v_j|} for i < j."""
        total = Element.zero(bs)
        for mw, mc in A.diff[v].terms.items():
            n = len(mw)
            for cw, co in split(el, n).terms.items():
                cdegs = [space.degree(cf) for cf in cw.factors]
                vdegs = [A.gens.degree(u) for u in mw.factors]
                odd = sum(cdegs[i] * vdegs[j] for i in range(n) for j in range(i + 1, n)) % 2
                prod = Element(bs, {Word.mono(): 1})
                for u, cf in zip(mw.factors, cw.factors):
                    prod = prod.times(factor(u, Element.gen(space, cf), depth))
                total = total + (-mc * co if odd else mc * co) * prod
        return total

    def factor(v: str, el: Element, depth: int) -> Element:
        """v.el: the H part passes through, A dies, dA substitutes dv."""
        if depth > space.dim + 2:
            raise RuntimeError("non-terminating substitution")
        proj = r.proj.apply(el)
        out = Element.zero(bs)
        for w, c in proj.terms.items():
            out = out + c * Element.gen(bs, bs_name(w.factors[0], v))
        rest = coords(el - r.incl.apply(proj), words)
        if any(rest) and v in A.diff:
            sol = linalg.solve(cols, rest)
            if sol is None:
                raise ValueError("element outside A + dA + H")
            a_el = Element.zero(space)
            for cj, a in zip(sol[len(dec.a_part):], dec.a_part):
                a_el = a_el + cj * a
            out = out + expand(v, a_el, depth + 1)
        return out

    diff = {}
    for h in small.names:
        for v in A.diff:
            total = expand(v, r.incl.apply_word(Word.tensor(h)), 0)
            if total:
                diff[bs_name(h, v)] = total
    return CDGA(bs, diff)


def dense_dual_coalgebra(B: FiniteCDGA) -> tuple[AInfCoalgebra, AInfCoalgebra]:
    """Dual DGC of a finite CDGA, one dual basis element at a time: every
    derivation and every product re-evaluated per target monomial, each
    product as the Element product of two monomials truncated to the basis
    (reference for `functors.dual_coalgebra`)."""

    def mono(fs) -> Element:
        return Element.make(B.parent.gens, [(1, "m", fs)])

    pairs = [(B.names[fs], B.cohom_degree(fs)) for fs in B.monomials]
    space = GradedSpace.of(pairs)
    unit = B.names[()]

    diff_imgs: dict[Word, Element] = {}
    cop_imgs: dict[Word, Element] = {}
    for fs in B.monomials:
        phi = B.names[fs]
        dd = []
        for xs in B.monomials:
            dx = B.d(xs)
            co = dx.coeff(Word.mono(*fs))
            if co:
                dd.append((co, (B.names[xs],)))
        if dd:
            diff_imgs[Word.tensor(phi)] = Element.make(
                space, [(c, "t", t) for c, t in dd]
            )
        cc = []
        for xs in B.monomials:
            for ys in B.monomials:
                if B.cohom_degree(xs) + B.cohom_degree(ys) != B.cohom_degree(fs):
                    continue
                prod = B.truncate(mono(xs).times(mono(ys)))
                co = prod.coeff(Word.mono(*fs))
                if co:
                    cc.append((co, (B.names[xs], B.names[ys])))
        if cc:
            cop_imgs[Word.tensor(phi)] = Element.make(
                space, [(c, "t", t) for c, t in cc]
            )
    ops: dict[int, GradedMap] = {}
    if diff_imgs:
        ops[1] = GradedMap(space, space, -1, diff_imgs)
    ops[2] = GradedMap(space, space, 0, cop_imgs)
    full = AInfCoalgebra(space, ops, counit=unit)

    red_pairs = [(n, d) for n, d in pairs if n != unit]
    red_space = GradedSpace.of(red_pairs)

    def reduce_el(el: Element) -> Element:
        keep = {
            w: c for w, c in el.terms.items() if unit not in w.factors
        }
        return Element(red_space, keep)

    red_ops: dict[int, GradedMap] = {}
    if diff_imgs:
        red_ops[1] = GradedMap(red_space, red_space, -1, {
            w: reduce_el(el) for w, el in diff_imgs.items()
            if unit not in w.factors
        })
    red_cop = {}
    for w, el in cop_imgs.items():
        if unit in w.factors:
            continue
        kept = reduce_el(el)
        if kept:
            red_cop[w] = kept
    if red_cop:
        red_ops[2] = GradedMap(red_space, red_space, 0, red_cop)
    reduced = AInfCoalgebra(red_space, red_ops)
    return full, reduced


# ---------------------------------------------------------------------------
# kernel references


def tensor_map(maps: list[GradedMap]) -> GradedMap:
    """Materialized f_1 (x) ... (x) f_r over the product of stored domains,
    one `tensor_apply` per basis word (dense reference for `apply_at`)."""
    if not maps:
        raise ValueError("empty tensor product")
    source = maps[0].source
    target = maps[0].target
    arities = [m.arity for m in maps]
    degree = sum(m.degree for m in maps)
    domains = []
    for m in maps:
        if m.in_kind != "t":
            raise ValueError("tensor_map expects tensor-domain factors")
        domains.append(word_basis(m.source, "t", m.arity))
    images = {}
    for combo in itertools.product(*domains):
        w = Word.tensor(*(f for u in combo for f in u.factors))
        img = tensor_apply(maps, arities, Element(source, {w: 1}))
        if img:
            images[w] = img
    return GradedMap(source, target, degree, images, sum(arities), "t")


def derivation_by_elements(M: CDGA | FreeLieDGL, el: Element) -> Element:
    """The derivation extension of M's differential to the words of el, as
    products prefix d(f) suffix of Elements per position, each prefix and
    suffix a word of the kind of its input (reference for `core.derivation`
    under `CDGA.d` and the `FreeLieDGL` check)."""
    space = M.gens
    parts = []
    for w, c in el.terms.items():
        fs = w.factors
        sign = 1
        for i, f in enumerate(fs):
            img = M.diff.get(f)
            if img:
                pre = Element(space, {Word(w.kind, fs[:i]): c * sign})
                post = Element(space, {Word(w.kind, fs[i + 1:]): 1})
                parts.append((1, pre.times(img).times(post)))
            if space.degree(f) % 2:
                sign = -sign
    return lincomb(space, parts)


def _length_splits(k: int, j: int, most: int):
    """Non-increasing j-tuples of positive lengths summing to k, each <= most."""
    if j == 1:
        if 1 <= k <= most:
            yield (k,)
        return
    for first in range(min(k - j + 1, most), 0, -1):
        for rest in _length_splits(k - first, j - 1, first):
            yield (first,) + rest


def all_support_merges(support: dict, k: int, arities: list[int],
                       space: GradedSpace) -> list[tuple[str, ...]]:
    """Every canonical merge of j support words of lengths summing to k, j
    in arities, in word-basis order (reference generator for
    `transfer._support_merges`, which also asks the letters to meet a
    support word of ell_j)."""
    by_length: dict[int, list[tuple[str, ...]]] = {}
    for u in support:
        by_length.setdefault(len(u), []).append(u)
    found = set()
    for j in arities:
        for split in _length_splits(k, j, k - 1):
            pools = [itertools.combinations_with_replacement(by_length.get(m, []), len(list(g)))
                     for m, g in itertools.groupby(split)]
            for combo in itertools.product(*pools):
                w, _ = canonical_word(space, "m", [f for grp in combo for u in grp for f in u])
                if w is not None:
                    found.add(w.factors)
    return sorted(found, key=lambda fs: [space.sortkey(f) for f in fs])


def linf_merge_candidates(L: LInfAlgebra, r: HomotopyRetract, max_k: int) -> dict:
    """The i_infinity recursion of `transfer_linf`, with F evaluated on
    every word of `all_support_merges`.  Returns, per arity k, the
    all-combinations candidates, the target-indexed candidates of
    `_support_merges` on the same support, and the words with F != 0."""
    B = shifted_brackets(L)
    rr = shift_retract(r, +1)
    arities = [j for j in sorted(L.ops) if j >= 2]
    support = {(n,): rr.incl.apply_word(Word.tensor(n)) for n in rr.small.names}
    out = {}
    for k in range(2, max_k + 1):
        every = all_support_merges(support, k, arities, rr.small)
        indexed = _support_merges(support, k, arities, rr.small, L)
        nonzero = []
        for w in every:
            f = _vertex_sum(w, support, arities, B, rr.small, rr.big)
            if f:
                nonzero.append(w)
                iw = rr.homotopy.apply(f)
                if iw:
                    support[w] = iw
        out[k] = (every, indexed, nonzero)
    return out
