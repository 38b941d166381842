"""Randomized generators of valid test structures.

Sullivan algebras are built generator by generator with differentials drawn
from the exact kernel of d on the smaller algebra, so d^2 = 0 holds by
construction; finite CDGAs are degree/word-length truncations of those, and
random cocommutative DGCs are their duals.

The dense reference loops at the end evaluate the convolution, the
Maurer-Cartan twist and the truncation on every wedge word of the space;
the tests compare the support-driven engine against them image by image.
"""

import math
import random
from fractions import Fraction

from htcas import linalg
from htcas.core import Element, GradedMap, GradedSpace, Word, from_coords, word_basis
from htcas.functors import CDGA, FiniteCDGA, dual_coalgebra
from htcas.structures import (
    AInfCoalgebra,
    LInfAlgebra,
    MaurerCartanElement,
    iterated_coproduct,
)
from htcas.transfer import ChainComplex, _as_wedge_op, hom_complex, hom_name


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
                if len(fs) >= 2 and algebra.cohom_degree_of(fs) == deg + 1
            ]
            if monos:
                allw = sorted(
                    {
                        w
                        for fs in monos
                        for w in algebra.d(algebra.monomial(fs)).terms
                    },
                    key=repr,
                )
                rows = [
                    [algebra.d(algebra.monomial(fs)).coeff(w) for fs in monos]
                    for w in allw
                ]
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


def random_finite_cdga(rng: random.Random, max_dim: int = 8,
                       conilpotence_two: bool = False) -> FiniteCDGA:
    """Finite-dimensional truncation of a random Sullivan algebra."""
    while True:
        A = random_sullivan(rng, max_gens=3, odd_only=True, max_degree=7)
        max_len = 2 if conilpotence_two else None
        top = 2 * A.gens.max_degree() + 2
        B = FiniteCDGA(A, max_cohom=top, max_length=max_len)
        if 2 <= len(B.monomials) - 1 <= max_dim:
            return B


def random_cocommutative_dgc(rng: random.Random, max_dim: int = 6,
                             conilpotence_two: bool = False):
    """(full, reduced) dual pair of a random finite CDGA, reduced dim <= max_dim."""
    B = random_finite_cdga(rng, max_dim=max_dim, conilpotence_two=conilpotence_two)
    return dual_coalgebra(B)


# ---------------------------------------------------------------------------
# dense reference loops over every wedge word of the space; the engine
# builds the same brackets from the supports of the maps it reads


def dense_convolution(C: AInfCoalgebra, L: LInfAlgebra,
                      validate: bool = True) -> LInfAlgebra:
    """The convolution structure on Hom(C, L) for a DGC C, one wedge word of
    Hom(C, L) at a time (reference for `mapping.convolution_linf`)."""
    if not C.is_dgc:
        raise ValueError("convolution brackets need a DGC source")
    cx = ChainComplex(C.space, C.delta(1))
    hc = hom_complex(cx, L)
    hs = hc.space
    ops: dict[int, GradedMap] = {}
    if not hc.diff.is_zero():
        ops[1] = _as_wedge_op(hc.diff)

    parts = {
        hom_name(c, x): (c, x)
        for c in C.space.names
        for x in L.space.names
    }
    cops = {k: iterated_coproduct(C, k - 1) for k in L.ops if k >= 2}
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
    return LInfAlgebra(hs, ops, validate=validate)


def dense_perturb(L: LInfAlgebra, mc: MaurerCartanElement, validate: bool = True) -> LInfAlgebra:
    """Twisted structure ell_k^z = sum_i (1/i!) ell_{i+k}(z,...,z, -), on
    every wedge word (reference for `structures.perturb`)."""
    z = mc.element
    ops: dict[int, GradedMap] = {}
    for k in range(1, L.max_arity + 1):
        images = {}
        for w in word_basis(L.space, "w", k):
            base = Element(L.space, {Word.tensor(*w.factors): Fraction(1)})
            total = Element.zero(L.space)
            arg = base
            for i in range(0, L.max_arity - k + 1):
                if i > 0:
                    arg = z.tensor(arg)
                    if not arg:
                        break
                if i + k in L.ops:
                    total = total + Fraction(1, math.factorial(i)) * L.ell(i + k).apply(arg)
            if total:
                images[w] = total
        if images:
            ops[k] = GradedMap(L.space, L.space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(L.space, ops, validate=validate)


def dense_truncate(L: LInfAlgebra, validate: bool = True) -> LInfAlgebra:
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
                arg = e if arg is None else arg.tensor(e)
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
    return LInfAlgebra(new_space, ops, validate=validate)
