"""Models of mapping spaces.

The convolution structure puts brackets on the complex of linear maps from
a DGC to an L-infinity algebra,

    ell_1(f) = ell_1 o f + (-1)^{|f|+1} f o delta,
    ell_k(f_1, ..., f_k) = ell_k o (f_1 (x) ... (x) f_k) o Delta^{(k-1)},

and homotopy transfer along the retract that `transfer.hom_retract` induces
from `transfer.canonical_retract(C)` moves it onto the maps out of
homology; ell_1 is the differential of that retract's big side, so one
complex of C and one Hom(C, L) serve the whole model.  Every bracket-level
loop follows the supports of the maps it reads, never the wedge-word basis
of Hom(C, L): the convolution pairs the terms of Delta^{(k-1)}, taken from
one pass of `structures.iterated_coproducts`, with the orderings of ell_k's
support words, and the reduced model reads the stored images of the
transferred brackets.  Every structure built here is checked once, when
built, by its constructor.  `component_model` takes a plain element and
checks the Maurer-Cartan equation itself.  The cochain functor of the
transferred structure, with generators renamed v.h from the spaces of H
and of L that `reduced_bs_cochain` takes, is the reduced Brown-Szczarba
model; the same differential is also computed by the direct substitution
recursion on (Lambda V (x) dual basis), `transfer.retract_recursion`, and
the two routes agreeing generator by generator is the strongest
correctness check in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    BoundError,
    Element,
    GradedMap,
    GradedSpace,
    Word,
    canonical_word,
    derived_names,
    lincomb,
    suspend_map,
    threading_sign,
)
from .functors import CDGA, FiniteCDGA, cochain, dual_coalgebra, unprimed
from .structures import (
    AInfCoalgebra,
    LInfAlgebra,
    iterated_coproducts,
    mc_check,
    perturb,
    truncate,
)
from .transfer import (
    ChainComplex,
    arity_cap,
    canonical_retract,
    degree_cap,
    hom_name,
    hom_retract,
    hom_space,
    retract_recursion,
    transfer_linf,
)


def convolution_linf(C: AInfCoalgebra, L: LInfAlgebra, hom: ChainComplex) -> LInfAlgebra:
    """The convolution structure on Hom(C, L) for a DGC C; ell_1 is the
    differential of `hom`, the complex Hom(C, L) of `transfer.hom_complex`.

    ell_k is built from the supports of the maps it reads: each term
    (c_1 ... c_k, co) of Delta^{(k-1)}(c) meets each ordered target tuple
    (x_1, ..., x_k) among the orderings of ell_k's support words, and it
    contributes to the image of the wedge word (c_1.x_1, ..., c_k.x_k) when
    that tuple is already canonical, with the Koszul sign of threading each
    c_i past the maps to its right.  ell_k is evaluated once per tuple.
    """
    if not C.is_dgc:
        raise ValueError("convolution brackets need a DGC source")
    hs = hom.space
    if hs is not hom_space(C.space, L.space):
        raise ValueError("the convolution needs the complex Hom(C, L)")
    ops = {1: suspend_map(hom.diff, hs, hs, -1, kind="w")}
    # cops[k]: Delta^{(k-1)}, each extended from the one before
    cops = dict(zip(range(2, L.max_arity + 1), iterated_coproducts(C)))

    for k in sorted(L.ops):
        if k < 2:
            continue
        ellk = L.ops[k]
        values: dict[tuple[str, ...], Element] = {}
        for sw in ellk.images:
            for xs in dict.fromkeys(itertools.permutations(sw.factors)):
                values[xs] = ellk.apply_word(Word.tensor(*xs))
        acc: dict[Word, dict[Word, Fraction]] = {}
        for c in C.space.names:
            for cw, co in cops[k].apply_word(Word.tensor(c)).terms.items():
                for xs, val in values.items():
                    fs = tuple(hom_name(ci, xi) for ci, xi in zip(cw.factors, xs))
                    w, _ = canonical_word(hs, "w", fs)
                    if w is None or w.factors != fs:
                        continue
                    sign = threading_sign([C.space.degree(ci) for ci in cw.factors],
                                          [hs.degree(f) for f in fs])
                    terms = acc.setdefault(w, {})
                    for xw, cx_ in val.terms.items():
                        f = Word.tensor(hom_name(c, xw.factors[0]))
                        terms[f] = terms.get(f, 0) + sign * co * cx_
        images = {w: Element(hs, terms) for w, terms in acc.items()}
        ops[k] = GradedMap(hs, hs, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(hs, ops)


def mapping_arity_cap(C: AInfCoalgebra, small: GradedSpace) -> int | None:
    """Cap on transferred bracket arities from the source-side degrees:
    a k-leaf tree splits a homology class across k factors of the source,
    gaining at most one degree per internal edge, k - 2 in all: with
    lo = min(C) - 1 and hi = max(small), k lo + 2 <= hi.  An empty
    homology carries no brackets, and the cap is 2."""
    return degree_cap(C.space.min_degree() - 1, small.max_degree(), 2) if small.dim else 2


class MappingModel:
    """The transferred mapping-space model and the data that built it."""

    def __init__(self, model: LInfAlgebra, convolution: LInfAlgebra,
                 homology: GradedSpace, coalgebra: AInfCoalgebra):
        self.model = model
        self.convolution = convolution
        self.homology = homology
        self.coalgebra = coalgebra


def mapping_space_model(C: AInfCoalgebra, L: LInfAlgebra,
                        max_k: int | None = None) -> MappingModel:
    """Transferred structure on Hom(H, L): homology decomposition, induced
    Hom retract and transfer of the convolution structure by the i_infinity
    recursion of `transfer_linf`, up to the derived arity cap unless max_k
    is given.

    The convolution ell_k is built from Delta^{(k-1)}, so a source of
    conilpotence 2 (Delta^{(2)} = 0) gives brackets of arity <= 2 only and
    the recursion meets binary vertices alone.  An empty Hom(H, L) carries
    no brackets, and the derived cap is 2."""
    r = canonical_retract(C)
    hr = hom_retract(r, L)
    conv = convolution_linf(C, L, hr.big)
    derived = mapping_arity_cap(C, r.small.space)
    cap = arity_cap(max_k, derived if hr.small.space.dim else 2)
    model = transfer_linf(conv, hr, max_k=cap)
    return MappingModel(model, conv, r.small.space, C)


# ---------------------------------------------------------------------------
# reduced Brown-Szczarba model, route 1: cochains of the transferred model


def bs_name(c: str, v: str) -> str:
    """Brown-Szczarba generator name v.c of the source basis element c and
    the target generator v of Lambda V."""
    return f"{v}.{c}"


def reduced_bs_cochain(model: LInfAlgebra, source: GradedSpace, target: GradedSpace) -> CDGA:
    """Cochain algebra of the transferred model on generators v.h of
    cohomological degree |v| - |h|: `cochain` with the generators named by
    `bs_name(c, unprimed(x))` and the Brown-Szczarba orientation.

    `model` lives on a Hom space; `source` and `target` are the spaces of H
    and of L.  The orientation lists the inputs
    of each bracket in the monomial order of the target generators (degree,
    then declaration), with the wedge sign of that order, the sign
    (-1)^{(j-1)(j-2)/2} of arity j, and (-1)^{|c_a| (|c_b| + 1)} for each
    pair a < b of source symbols: the price of threading every source symbol
    past the pairs to its right.  With this orientation the differential
    agrees with the substitution recursion of `reduced_bs_direct` generator
    by generator.  It is pinned for arity <= 3 only, so a model with a
    nonzero bracket of arity 4 or more is refused with a BoundError.
    """
    for k in model.ops:
        if k >= 4:
            raise BoundError(
                "the generator orientation of the reduced model is pinned for "
                f"brackets of arity <= 3; a nonzero arity-{k} bracket is present"
            )
    hs = model.space
    pairs = {hom_name(c, x): (c, x) for c in source.names for x in target.names}
    cdeg = {}
    okey = {}
    for f in hs.names:
        c, x = pairs[f]
        cdeg[f] = source.degree(c)
        okey[f] = (target.degree(x) + 1, target.index(x),
                   source.degree(c), source.index(c))

    def orient(w: Word) -> tuple[int, tuple[str, ...]]:
        j = len(w)
        ordered = tuple(sorted(w.factors, key=okey.__getitem__))
        _, sign = canonical_word(hs, "w", ordered)
        if ((j - 1) * (j - 2) // 2) % 2:
            sign = -sign
        c = [cdeg[f] for f in ordered]
        return sign * threading_sign(c, [d + 1 for d in c]), ordered

    names = derived_names([pairs[f] for f in hs.names],
                          lambda p: bs_name(p[0], unprimed(p[1])), "(c, x) =")
    return cochain(model, names=names, orient=orient)


# ---------------------------------------------------------------------------
# reduced Brown-Szczarba model, route 2: the substitution recursion


def reduced_bs_direct(B: FiniteCDGA, A: CDGA) -> CDGA:
    """The differential on Lambda(V (x) H) by expanding dv against iterated
    coproducts, each factor v.c split over the canonical retract of the
    dual by `transfer.retract_recursion`: H passes through, A dies, dA
    substitutes dv expanded over h(c).

    B is the finite model of the source, A = (Lambda V, d) the Sullivan
    model of the target.  Returns the CDGA on generators v.h, h running over
    the homology of the reduced dual of B; the dual basis and the homology
    classes are named by their one rules (`dual_coalgebra`,
    `transfer.retract_from_decomposition`).
    """
    if not A.is_sullivan:
        raise ValueError("the target must be a Sullivan algebra (d V in Lambda^{>=1} V)")
    C = dual_coalgebra(B, counital=False)
    r = canonical_retract(C)
    csp = C.space
    hsp = r.small.space

    keys = [(h, v) for h in hsp.names for v in A.gens.names]
    name = dict(zip(keys, derived_names(keys, lambda k: bs_name(*k), "(c, v) =")))
    bs = GradedSpace.of([(name[h, v], A.gens.degree(v) - hsp.degree(h)) for h, v in keys])

    unit = Element(bs, {Word.mono(): 1})
    # cops[n]: Delta^{(n)} for every n the words of dv can ask for
    longest = max((len(w) for dv in A.diff.values() for w in dv.terms), default=1)
    cops = [GradedMap.identity(csp), *itertools.islice(iterated_coproducts(C), longest - 1)]

    def expand(v: str, c_el: Element, factor) -> Element:
        """dv expanded over c_el: for each word v_1...v_n of dv, the sum of
        the products (v_1.c^1)...(v_n.c^n) over Delta^{(n-1)}(c_el)."""
        parts = []
        for mw, mc in (A.diff[v].terms.items() if v in A.diff else ()):
            vdegs = [A.gens.degree(u) for u in mw.factors]
            for cw, co in cops[len(mw) - 1].apply(c_el).terms.items():
                sign = threading_sign([csp.degree(cf) for cf in cw.factors], vdegs)
                prod = unit
                for u, cf in zip(mw.factors, cw.factors):
                    prod = prod.times(factor(u, cf))
                    if not prod:
                        break
                if prod:
                    parts.append((mc * sign * co, prod))
        return lincomb(bs, parts)

    factor = retract_recursion(r, bs, lambda v, h: Element.gen(bs, name[h, v]), expand)
    diff: dict[str, Element] = {}
    for h in hsp.names:
        h_el = r.incl.apply_word(Word.tensor(h))
        for v in A.gens.names:
            diff[name[h, v]] = expand(v, h_el, factor)
    return CDGA(bs, diff)


def restrict_positive(A: CDGA) -> CDGA:
    """Quotient by the generators of nonpositive degree (the component
    restriction on the Brown-Szczarba side)."""
    keep = [(n, d) for n, d in A.gens.basis if d > 0]
    space = GradedSpace.of(keep)
    return CDGA(space, {
        g: Element(space, {w: c for w, c in el.terms.items()
                           if all(f in space for f in w.factors)})
        for g, el in A.diff.items() if g in space})


# ---------------------------------------------------------------------------
# component models


def component_model(model: LInfAlgebra, phi: Element) -> LInfAlgebra:
    """Check that phi is a Maurer-Cartan element, perturb by it and truncate."""
    return truncate(perturb(model, mc_check(model, phi)))
