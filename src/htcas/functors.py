"""Dictionaries between presentations: Sullivan algebras, dual coalgebras,
Quillen models on free graded Lie algebras, and the cochain functor.

The word algebra lives in `core`: the product of Lambda V and of the tensor
algebra is `Element.times` on monomial and tensor words, and the Sullivan
and the Quillen differentials are both `core.derivation` of the generator
images.

Cohomological data (Sullivan generators, monomials) is stored with its
cohomological degree as the integer grade, so canonical monomial order is by
ascending cohomological degree; the Koszul rules only consult parities, and
the homological coalgebra/Lie side is unaffected.  Dualizing
a finite-dimensional graded-commutative algebra uses the plain transpose
pairing (no extra signs): <Delta phi, x (x) y> = <phi, x y> and
<delta phi, x> = <phi, d x>; the resulting coalgebras pass the executable
axioms, which their constructor checks once, when built, and this
convention is pinned by the dual-coalgebra tests.  The dual basis is named
by one rule, the monomial's factors joined by dots (`one` for the unit).
The reduced dual is the same construction on the non-unit monomials.  The
direct Quillen differential is `transfer.retract_recursion` through the
canonical retract.

A free graded Lie element is a plain Element, its expansion in the tensor
algebra (faithful in characteristic zero); zero tests are exact and
`is_primitive` decides primitivity by the bracketing operator, which acts
as k times the identity on Lie elements of weight k (words of length k).
Both expansions are counted first and refused past LIE_WORD_BOUND words.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    AxiomError,
    BoundError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    canonical_word,
    derivation,
    derived_names,
    lincomb,
)

if TYPE_CHECKING:  # imported where used, so `import htcas.functors` loads only core
    from .structures import AInfCoalgebra, LInfAlgebra


# ---------------------------------------------------------------------------
# free graded-commutative algebras


class CDGA:
    """Free graded-commutative algebra Lambda(V) with a differential.

    Generators carry their cohomological degrees as written; monomials are
    monomial-kind words, so odd generators square to zero.  The differential
    is given on generators and extended as a derivation.
    """

    def __init__(self, gens: GradedSpace, diff: dict[str, Element] | None = None):
        self.gens = gens
        self.diff = {g: el for g, el in (diff or {}).items() if el}
        for g, el in self.diff.items():
            if el.degree != self.gens.degree(g) + 1:
                raise ValidationError(f"d({g}) has the wrong degree")
        for g in self.diff:
            if self.d(self.diff[g]):
                raise AxiomError(f"d^2 != 0 on generator {g}")

    @staticmethod
    def of(gens, d: dict | None = None) -> "CDGA":
        """Build from [(name, cohomological degree)] and
        {gen: [(coeff, (factors...))]}."""
        space = GradedSpace.of([(n, int(deg)) for n, deg in gens])
        diff = {}
        for g, items in (d or {}).items():
            diff[g] = Element.make(space, [(c, "m", fs) for c, fs in items])
        return CDGA(space, diff)

    def d(self, el: Element) -> Element:
        """Derivation extension of the generator differential."""
        return derivation(self.diff, el)

    @property
    def is_sullivan(self) -> bool:
        return all(min(len(w) for w in el.terms) >= 1 for el in self.diff.values())

    @property
    def is_minimal(self) -> bool:
        return all(min(len(w) for w in el.terms) >= 2 for el in self.diff.values())

    def monomial_basis(self, max_cohom: int):
        """Canonical monomials of cohomological degree <= max_cohom."""
        names = sorted(self.gens.names, key=self.gens.sortkey)
        out: list[tuple[str, ...]] = [()]
        frontier: list[tuple[str, ...]] = [()]
        while frontier:
            nxt = []
            for fs in frontier:
                for n in names:
                    if fs and self.gens.sortkey(n) < self.gens.sortkey(fs[-1]):
                        continue
                    cand = fs + (n,)
                    w, s = canonical_word(self.gens, "m", cand)
                    if w is None or s != 1 or w.factors != cand:
                        continue
                    if sum(self.gens.degree(f) for f in cand) > max_cohom:
                        continue
                    nxt.append(cand)
            out.extend(nxt)
            frontier = nxt
        return out


class FiniteCDGA:
    """Degree-truncated quotient of a CDGA, with its monomial basis of
    cohomological degree <= max_cohom; the input to dualization.  Without
    `max_cohom` the cutoff is the top monomial's degree, which exists only
    when every generator is odd.  An even generator whose powers never
    pass the cutoff is refused, and so is a cutoff N that is no dg-ideal
    cut: one with a monomial m above N whose product with a generator g of
    negative degree falls back to N or below (N < |m| <= N - |g|)."""

    def __init__(self, parent: CDGA, max_cohom: int | None = None):
        for g, deg in parent.gens.basis:
            if deg % 2 == 0 and max_cohom is None:
                raise BoundError("dualizing a CDGA with even generators needs `truncate <N>`")
            if deg % 2 == 0 and deg <= 0:
                raise BoundError(f"the powers of the even generator {g} of degree "
                                 f"{deg} never pass the degree cutoff")
        if max_cohom is None:
            max_cohom = sum(d for d in parent.gens.degrees() if d > 0)
        for g, deg in parent.gens.basis:
            # g is odd, as an even generator of degree <= 0 is refused above
            for fs in parent.monomial_basis(max_cohom - deg) if deg < 0 else ():
                top = sum(map(parent.gens.degree, fs))
                if g not in fs and top > max_cohom:
                    raise ValidationError(
                        f"truncate {max_cohom} cuts no dg ideal: the monomial "
                        f"{'.'.join(fs) or 'one'} of degree {top} lies above it, but its "
                        f"product with the generator {g} of degree {deg} does not")
        self.parent = parent
        self.max_cohom = max_cohom
        self.monomials = parent.monomial_basis(max_cohom)
        self.names = {fs: ".".join(fs) if fs else "one" for fs in self.monomials}

    def truncate(self, el: Element) -> Element:
        keep = {}
        for w, c in el.terms.items():
            if w.factors in self.names:
                keep[w] = c
        return Element(self.parent.gens, keep)

    def d(self, fs) -> Element:
        return self.truncate(self.parent.d(Element(self.parent.gens, {Word("m", fs): 1})))

    def cohom_degree(self, fs) -> int:
        return sum(self.parent.gens.degree(f) for f in fs)


def dual_coalgebra(B: FiniteCDGA, *, counital: bool) -> AInfCoalgebra:
    """Dual DGC of a finite-dimensional CDGA: the counital C when `counital`,
    else the reduced C.

    The dual basis element of a monomial m sits in homological degree
    |m| and is named by the one rule of `FiniteCDGA.names`: its factors
    joined by dots, `one` for the unit (a name two monomials get is
    refused).  <Delta m*, x (x) y> = <m*, xy> and <delta m*, x> = <m*, dx>.
    Each dx is computed once, and each product xy is one canonical word
    with its sorting sign, kept when that word is a basis monomial; their
    terms are scattered into the dual images of the monomials they hit, in
    the order (x, then y) of the monomial basis.  The reduced C is built the
    same way on the non-unit monomials alone, so no word of it involves the
    counit.
    """
    from .structures import AInfCoalgebra

    gens = B.parent.gens
    monomials = B.monomials if counital else [fs for fs in B.monomials if fs]
    names = dict(zip(monomials, derived_names(monomials, B.names.__getitem__, "monomials")))
    degrees = {fs: B.cohom_degree(fs) for fs in monomials}
    space = GradedSpace.of([(names[fs], degrees[fs]) for fs in monomials])

    # tables[k][m]: the (coeff, dual word) terms of Delta_k(m*)
    tables: dict[int, dict[tuple, list]] = {1: {}, 2: {}}
    for xs in monomials:
        for w, co in B.d(xs).terms.items():
            tables[1].setdefault(w.factors, []).append((co, (names[xs],)))
        for ys in monomials:
            if degrees[xs] + degrees[ys] > B.max_cohom:
                continue
            w, sign = canonical_word(gens, "m", xs + ys)
            if w is not None and w.factors in names:
                tables[2].setdefault(w.factors, []).append((sign, (names[xs], names[ys])))
    ops = {k: GradedMap(space, space, k - 2, {
        Word.tensor(names[fs]): Element.make(space, [(c, "t", t) for c, t in table[fs]])
        for fs in monomials if fs in table}) for k, table in tables.items()}
    return AInfCoalgebra(space, ops, counit=names[()] if counital else None)


# ---------------------------------------------------------------------------
# free graded Lie algebras inside the tensor algebra


def lie_bracket(a: Element, b: Element) -> Element:
    """[a, b] = a (x) b - (-1)^{|a||b|} b (x) a in the tensor algebra."""
    da, db = a.degree, b.degree
    if da is None or db is None:
        return Element.zero(a.space)
    sign = -1 if (da % 2 and db % 2) else 1
    return a.times(b) - sign * b.times(a)


# the most tensor words one Lie expansion may produce: a bracket tree of
# weight w expands into 2^(w-1) words, and the Dynkin check brackets n
# words of weight k into n 2^(k-1) (Reutenauer, Free Lie Algebras); the
# Quillen model of the dual of nine odd generators needs 151,520
LIE_WORD_BOUND = 1 << 20


def _bounded_expansion(words: int, what: str) -> None:
    if words > LIE_WORD_BOUND:
        raise BoundError(f"{what} expands to {words:,} tensor words, "
                         f"over the bound of {LIE_WORD_BOUND:,}")


def bracket_weight(tree) -> int:
    """The number of generators in a bracket tree."""
    if isinstance(tree, str):
        return 1
    return sum(bracket_weight(t) for t in tree)


def _expansion(space: GradedSpace, tree) -> Element:
    if isinstance(tree, str):
        return Element.gen(space, tree)
    return lie_bracket(_expansion(space, tree[0]), _expansion(space, tree[1]))


def bracket_tree_element(space: GradedSpace, tree) -> Element:
    """Tensor expansion of a bracket tree: a generator name or a pair of
    trees, refused past LIE_WORD_BOUND words before it is expanded."""
    weight = bracket_weight(tree)
    _bounded_expansion(1 << (weight - 1), f"a bracket tree of weight {weight}")
    return _expansion(space, tree)


def bracket_tree_str(tree) -> str:
    """A bracket tree as text, [left,right]."""
    if isinstance(tree, str):
        return tree
    return f"[{bracket_tree_str(tree[0])},{bracket_tree_str(tree[1])}]"


def right_normed(factors):
    """The right-normed bracket tree [x1, [x2, [..., xk]]] of x1 ... xk."""
    tree = factors[-1]
    for f in reversed(factors[:-1]):
        tree = (f, tree)
    return tree


def bracketing(el: Element) -> Element:
    """Right-normed bracketing word by word:
    rho(x1 (x) ... (x) xk) = [x1, [x2, [..., xk]]]."""
    space = el.space
    return lincomb(space, ((c, _expansion(space, right_normed(w.factors)))
                           for w, c in el.terms.items()))


def weights(el: Element) -> list[int]:
    """The word lengths (bracket weights) that occur in el, ascending."""
    return sorted({len(w) for w in el.terms})


def weight_component(el: Element, k: int) -> Element:
    """The weight-k part of el."""
    return Element(el.space, {w: c for w, c in el.terms.items() if len(w) == k})


def is_primitive(el: Element) -> bool:
    """Dynkin criterion on every weight component, each refused past
    LIE_WORD_BOUND words before it is bracketed."""
    for k in weights(el):
        comp = weight_component(el, k)
        n = len(comp.terms)
        _bounded_expansion(n << (k - 1),
                           f"the Dynkin check of a weight-{k} component of {n:,} words")
        if bracketing(comp) != k * comp:
            return False
    return True


class FreeLieDGL:
    """Free graded Lie algebra on named generators with a differential
    given on generators by tensor-expanded Lie elements; checked for
    degree -1, primitivity and d^2 = 0 when built."""

    def __init__(self, gens: GradedSpace, diff: dict[str, Element],
                 presentation: dict[str, list] | None = None):
        self.gens = gens
        self.diff = {g: img for g, img in diff.items() if img}
        self.presentation = {} if presentation is None else presentation
        for g, img in self.diff.items():
            want = self.gens.degree(g) - 1
            if img.degree != want:
                raise ValidationError(f"diff {g} must have degree {want}, got {img.degree}")
            if not is_primitive(img):
                raise AxiomError(f"differential of {g} is not a Lie element")
            if derivation(self.diff, img):
                raise AxiomError(f"d^2 != 0 on generator {g}")

    @property
    def is_minimal(self) -> bool:
        return all(not weight_component(img, 1) for img in self.diff.values())


def _quillen_hypotheses(C: AInfCoalgebra, route: str) -> None:
    """The first theorem's hypotheses on C, which both Quillen routes read:
    C is reduced (no counit) and cocommutative.  A refusal starts with the
    name of the route."""
    from .structures import check_cocommutative

    if C.counit is not None:
        raise ValidationError(f"{route} expects a reduced coalgebra")
    rep = check_cocommutative(C)
    if not rep:
        raise ValidationError(f"{route} needs a cocommutative input: {rep}")


def quillen(C: AInfCoalgebra) -> FreeLieDGL:
    """Generalized Quillen model: free Lie algebra on the desuspension with
    the differential read off the co-operations (cobar orientation on the
    linear part)."""
    from .structures import shifted_coops

    _quillen_hypotheses(C, "quillen")
    coops = shifted_coops(C)
    gens = C.space.suspend(-1)
    diff: dict[str, Element] = {}
    for name in C.space.names:
        # the cobar sign (-1)^k; pinned by agreement with the direct
        # homology-decomposition recursion in every arity
        diff[name] = lincomb(gens, ((-1 if k % 2 else 1, m.apply_word(Word.tensor(name)))
                                    for k, m in coops.items()))
    return FreeLieDGL(gens, diff)


def quillen_differential_direct(C: AInfCoalgebra) -> FreeLieDGL:
    """Quillen-minimal differential straight from the canonical retract of
    a DGC: on s^{-1}h it is the bracket halves
    (1/2) sum (-1)^{|z'|} [lam z', lam z''] of Delta(h), where lam(c) is
    s^{-1}p(c) plus the bracket halves of Delta(h(c)), the recursion
    `transfer.retract_recursion` with no key.  Each term brackets two
    nonzero elements, so the model is minimal.
    """
    if not C.is_dgc:
        raise ValueError("the direct recursion needs a DGC")
    _quillen_hypotheses(C, "the direct recursion")
    space = C.space

    from .transfer import canonical_retract, retract_recursion

    r = canonical_retract(C)
    small = r.small.space
    gens = small.suspend(-1)

    def bracket_halves(_, el: Element, lam) -> Element:
        """(1/2) sum (-1)^{|z'|} [lam z', lam z''] over Delta(el)."""
        parts = []
        for w, c in C.delta(2).apply(el).terms.items():
            zl, zr = w.factors
            sign = -1 if space.degree(zl) % 2 else 1
            left = lam(None, zl)
            right = lam(None, zr)
            if left and right:
                parts.append((Fraction(1, 2) * sign * c, lie_bracket(left, right)))
        return lincomb(gens, parts)

    lam = retract_recursion(r, gens, lambda _, h: Element.gen(gens, h), bracket_halves)
    return FreeLieDGL(gens, {nm: bracket_halves(None, r.incl.apply_word(Word.tensor(nm)), lam)
                             for nm in small.names})


# ---------------------------------------------------------------------------
# the cochain functor and its inverse


def unprimed(x: str) -> str:
    """The prime rule: `linf_from_cdga` names the dual of a Sullivan
    generator v as v', and the Sullivan generator dual to x is x less a
    trailing prime."""
    return x[:-1] if x.endswith("'") else x


def _multiplicity_factor(factors) -> int:
    mult = 1
    for _, grp in itertools.groupby(factors):
        mult *= math.factorial(len(list(grp)))
    return mult


def cochain(L: LInfAlgebra, names: list[str] | None = None, orient=None) -> CDGA:
    """Chevalley-Eilenberg algebra: generators dual to the suspension, with
    <d_j v; s x_1 ^ ... ^ s x_j> = <v; s ell_j(x_1, ..., x_j)>.

    The monomial dual to a canonical wedge word lists the dual generators in
    the same factor order, divided by the repetition factorials.  `names`
    renames the dual generators (default: `unprimed` bracket names);
    `orient(w)` returns (sign, factor order) to identify the monomial of the
    wedge word w differently, with the sign multiplying it.
    """
    lnames = L.space.names
    vnames = names if names is not None else derived_names(lnames, unprimed, "generators")
    vspace = GradedSpace.of(
        [(vn, L.space.degree(x) + 1) for vn, x in zip(vnames, lnames)]
    )
    dual_of = {x: vn for x, vn in zip(lnames, vnames)}

    parts: dict[str, list] = {vn: [] for vn in vnames}
    for j in sorted(L.ops):
        for w, val in L.ops[j].images.items():
            sign, order = (1, w.factors) if orient is None else orient(w)
            mult = _multiplicity_factor(w.factors)
            mono = Element.make(
                vspace, [(Fraction(sign, mult), "m", tuple(dual_of[f] for f in order))]
            )
            for xw, co in val.terms.items():
                parts[dual_of[xw.factors[0]]].append((co, mono))
    return CDGA(vspace, {vn: lincomb(vspace, ps) for vn, ps in parts.items()})


def linf_from_cdga(A: CDGA) -> LInfAlgebra:
    """L-infinity structure on the desuspended dual of the generators,
    brackets read off the word-length parts of the differential (the exact
    inverse of `cochain`).  Each term c w of each d(v) is read once, into
    the image of the wedge word of w, as mult(w) c times the dual of v.

    The terms are canonical monomials: the parser, `Element.make` and
    `lincomb` build them that way.  Desuspension flips every parity, so they
    are exactly the canonical wedge words of the dual space with the factors
    renamed, in the same (degree, index) order."""
    from .structures import LInfAlgebra

    if not A.is_sullivan:
        raise ValueError("input must be a Sullivan algebra (d V in Lambda^{>=1} V)")
    vnames = A.gens.names
    xnames = derived_names(vnames, lambda v: v + "'", "generators")
    lspace = GradedSpace.of(
        [(x, A.gens.degree(v) - 1) for x, v in zip(xnames, vnames)]
    )
    # parts[j][w]: the (coefficient, dual of v) pairs of the monomial w of length j
    parts: dict[int, dict[Word, list]] = {}
    for v, x in zip(vnames, xnames):
        for w, c in (A.diff[v].terms.items() if v in A.diff else ()):
            parts.setdefault(len(w), {}).setdefault(w, []).append((c, x))
    x_of = dict(zip(vnames, xnames))
    key = A.gens.sortkey
    ops: dict[int, GradedMap] = {}
    for j in sorted(parts):
        images: dict[Word, Element] = {}
        for w in sorted(parts[j], key=lambda w: [key(f) for f in w.factors]):
            mult = _multiplicity_factor(w.factors)
            images[Word.wedge(*(x_of[f] for f in w.factors))] = lincomb(
                lspace, [(mult * c, Element.gen(lspace, x)) for c, x in parts[j][w]])
        ops[j] = GradedMap(lspace, lspace, j - 2, images, arity=j, in_kind="w")
    return LInfAlgebra(lspace, ops)
