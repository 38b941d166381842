"""Dictionaries between presentations: Sullivan algebras, dual coalgebras,
Quillen models on free graded Lie algebras, and the cochain functor.

Cohomological data (Sullivan generators, monomials) is stored with its
cohomological degree as the integer grade, so canonical monomial order is by
ascending cohomological degree; the Koszul rules only consult parities, and
the homological coalgebra/Lie side is unaffected.  Dualizing
a finite-dimensional graded-commutative algebra uses the plain transpose
pairing (no extra signs): <Delta phi, x (x) y> = <phi, x y> and
<delta phi, x> = <phi, d x>; the resulting coalgebras pass the executable
axioms and this convention is pinned by the dual-coalgebra tests.

Free graded Lie elements are stored through their expansion in the tensor
algebra (faithful in characteristic zero); zero tests are exact and
primitivity is decided by the bracketing operator, which acts as k times
the identity on Lie elements of weight k.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    AxiomError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    canonical_word,
    lincomb,
)

if TYPE_CHECKING:  # imported where used, so `import htcas.functors` loads only core
    from .structures import AInfCoalgebra, LInfAlgebra


# ---------------------------------------------------------------------------
# free graded-commutative algebras


class CDGA:
    """Free graded-commutative algebra Lambda(V) with a differential.

    Generators carry cohomological degrees (stored negated); monomials are
    monomial-kind words, so odd generators square to zero.  The differential
    is given on generators and extended as a derivation.
    """

    def __init__(self, gens, diff: dict[str, Element] | None = None,
                 validate: bool = True):
        if isinstance(gens, GradedSpace):
            self.gens = gens
        else:
            self.gens = GradedSpace.of([(n, int(d)) for n, d in gens])
        self.diff = {g: el for g, el in (diff or {}).items() if el}
        for g, el in self.diff.items():
            if el.degree is not None and el.degree != self.gens.degree(g) + 1:
                raise ValidationError(f"d({g}) has the wrong degree")
        if validate:
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

    def cohom_degree_of(self, factors) -> int:
        return sum(self.gens.degree(f) for f in factors)

    def multiply(self, a: Element, b: Element) -> Element:
        terms = []
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                terms.append((ca * cb, "m", wa.factors + wb.factors))
        return Element.make(self.gens, terms)

    def monomial(self, factors, coeff=1) -> Element:
        return Element.make(self.gens, [(coeff, "m", tuple(factors))])

    def d(self, el: Element) -> Element:
        """Derivation extension of the generator differential."""
        parts = []
        for w, c in el.terms.items():
            fs = w.factors
            sign = 1
            for i, f in enumerate(fs):
                img = self.diff.get(f)
                if img:
                    pre = self.monomial(fs[:i], c * sign)
                    post = self.monomial(fs[i + 1:])
                    parts.append((1, self.multiply(self.multiply(pre, img), post)))
                if self.gens.degree(f) % 2:
                    sign = -sign
        return lincomb(self.gens, parts)

    def d_parts(self, g: str) -> dict[int, Element]:
        """Word-length components d_j(g)."""
        parts: dict[int, dict[Word, Fraction]] = {}
        img = self.diff.get(g)
        for w, c in (img.terms if img else {}).items():
            parts.setdefault(len(w), {})[w] = c
        return {j: Element(self.gens, terms) for j, terms in parts.items()}

    @property
    def is_sullivan(self) -> bool:
        return all(min(len(w) for w in el.terms) >= 1 for el in self.diff.values())

    @property
    def is_minimal(self) -> bool:
        return all(min(len(w) for w in el.terms) >= 2 for el in self.diff.values())

    def monomial_basis(self, max_cohom: int, max_length: int | None = None):
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
                    if max_length is not None and len(cand) > max_length:
                        continue
                    nxt.append(cand)
            out.extend(nxt)
            frontier = nxt
        return out


class FiniteCDGA:
    """Degree- (and optionally word-length-) truncated quotient of a CDGA,
    with a chosen monomial basis; the input to dualization."""

    def __init__(self, parent: CDGA, max_cohom: int, max_length: int | None = None):
        self.parent = parent
        self.max_cohom = max_cohom
        self.max_length = max_length
        self.monomials = parent.monomial_basis(max_cohom, max_length)
        self.names = {fs: ".".join(fs) if fs else "one" for fs in self.monomials}

    def truncate(self, el: Element) -> Element:
        keep = {}
        for w, c in el.terms.items():
            if w.factors in self.names:
                keep[w] = c
        return Element(self.parent.gens, keep)

    def multiply(self, fa, fb) -> Element:
        return self.truncate(
            self.parent.multiply(self.parent.monomial(fa), self.parent.monomial(fb))
        )

    def d(self, fs) -> Element:
        return self.truncate(self.parent.d(self.parent.monomial(fs)))

    def cohom_degree(self, fs) -> int:
        return sum(self.parent.gens.degree(f) for f in fs)


def dual_coalgebra(B: FiniteCDGA, rename: dict[str, str] | None = None
                   ) -> tuple[AInfCoalgebra, AInfCoalgebra]:
    """Dual DGC of a finite-dimensional CDGA: returns (C, reduced C).

    The dual basis element of a monomial m sits in homological degree
    |m|; <Delta m*, x (x) y> = <m*, xy> and <delta m*, x> = <m*, dx>.
    Each dx and each product xy is computed once and its terms are
    scattered into the dual images of the monomials they hit, in the
    order (x, then y) of the monomial basis.
    """
    from .structures import AInfCoalgebra

    rename = rename or {}
    names = {fs: rename.get(B.names[fs], B.names[fs]) for fs in B.monomials}
    degrees = {fs: B.cohom_degree(fs) for fs in B.monomials}

    pairs = [(names[fs], degrees[fs]) for fs in B.monomials]
    space = GradedSpace.of(pairs)
    unit = names[()]

    dd: dict[tuple, list] = {}
    cc: dict[tuple, list] = {}
    for xs in B.monomials:
        for w, co in B.d(xs).terms.items():
            dd.setdefault(w.factors, []).append((co, (names[xs],)))
        for ys in B.monomials:
            if degrees[xs] + degrees[ys] > B.max_cohom:
                continue
            for w, co in B.multiply(xs, ys).terms.items():
                cc.setdefault(w.factors, []).append((co, (names[xs], names[ys])))
    diff_imgs: dict[Word, Element] = {}
    cop_imgs: dict[Word, Element] = {}
    for fs in B.monomials:
        phi = Word.tensor(names[fs])
        if fs in dd:
            diff_imgs[phi] = Element.make(space, [(c, "t", t) for c, t in dd[fs]])
        if fs in cc:
            cop_imgs[phi] = Element.make(space, [(c, "t", t) for c, t in cc[fs]])
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
# free graded Lie algebras inside the tensor algebra


def lie_bracket(a: Element, b: Element) -> Element:
    """[a, b] = a (x) b - (-1)^{|a||b|} b (x) a in the tensor algebra."""
    da, db = a.degree, b.degree
    if da is None or db is None:
        return Element.zero(a.space)
    sign = -1 if (da % 2 and db % 2) else 1
    return a.tensor(b) - sign * b.tensor(a)


def bracket_tree_element(space: GradedSpace, tree) -> Element:
    """Tensor expansion of a bracket tree: a generator name or a pair of trees."""
    if isinstance(tree, str):
        return Element.gen(space, tree)
    return lie_bracket(bracket_tree_element(space, tree[0]),
                       bracket_tree_element(space, tree[1]))


def bracket_tree_str(tree) -> str:
    """A bracket tree as text, [left,right]."""
    if isinstance(tree, str):
        return tree
    return f"[{bracket_tree_str(tree[0])},{bracket_tree_str(tree[1])}]"


def bracketing(el: Element) -> Element:
    """Right-normed bracketing word by word:
    rho(x1 (x) ... (x) xk) = [x1, [x2, [..., xk]]]."""
    space = el.space
    parts = []
    for w, c in el.terms.items():
        fs = w.factors
        acc = Element.gen(space, fs[-1])
        for f in reversed(fs[:-1]):
            acc = lie_bracket(Element.gen(space, f), acc)
        parts.append((c, acc))
    return lincomb(space, parts)


class FreeLieElement:
    """Element of the free graded Lie algebra, stored as its tensor expansion."""

    def __init__(self, element: Element):
        self.element = element

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.element == other.element

    def weight_component(self, k: int) -> Element:
        keep = {w: c for w, c in self.element.terms.items() if len(w) == k}
        return Element(self.element.space, keep)

    def weights(self):
        return sorted({len(w) for w in self.element.terms})

    def is_primitive(self) -> bool:
        """Dynkin criterion on every weight component."""
        for k in self.weights():
            comp = self.weight_component(k)
            if bracketing(comp) != k * comp:
                return False
        return True

    def __bool__(self) -> bool:
        return bool(self.element)


class FreeLieDGL:
    """Free graded Lie algebra on named generators with a differential
    given on generators by tensor-expanded Lie elements."""

    def __init__(self, gens: GradedSpace, diff: dict[str, FreeLieElement],
                 presentation: dict[str, list] | None = None):
        self.gens = gens
        self.diff = diff
        self.presentation = {} if presentation is None else presentation

    def d_tensor(self, el: Element) -> Element:
        """Derivation extension to tensor words: each factor f of a word is
        replaced in place by the words of d(f), with the sign
        (-1)**deg(prefix) of threading d past the factors before it."""
        space = self.gens
        terms: dict[Word, int | Fraction] = {}
        for w, c in el.terms.items():
            fs = w.factors
            for i, f in enumerate(fs):
                img = self.diff.get(f)
                if img and img.element:
                    pre, post = fs[:i], fs[i + 1:]
                    for iw, ic in img.element.terms.items():
                        nw = Word("t", pre + iw.factors + post)
                        terms[nw] = terms.get(nw, 0) + c * ic
                if space.degree(f) % 2:
                    c = -c
        return Element(space, terms)

    def validate(self) -> None:
        for g, img in self.diff.items():
            if not img.is_primitive():
                raise AxiomError(f"differential of {g} is not a Lie element")
            if self.d_tensor(img.element):
                raise AxiomError(f"d^2 != 0 on generator {g}")

    @property
    def is_minimal(self) -> bool:
        return all(not img.weight_component(1) for img in self.diff.values())


def quillen(C: AInfCoalgebra) -> FreeLieDGL:
    """Generalized Quillen model: free Lie algebra on the desuspension with
    the differential read off the co-operations (cobar orientation on the
    linear part)."""
    from .structures import check_cocommutative, shifted_coops

    if C.counit is not None:
        raise ValueError("quillen expects a reduced coalgebra")
    rep = check_cocommutative(C)
    if not rep:
        raise ValueError(f"quillen needs a cocommutative input: {rep}")
    coops = shifted_coops(C)
    gens = C.space.suspend(-1)
    diff: dict[str, FreeLieElement] = {}
    for name in C.space.names:
        # the cobar sign (-1)^k; pinned by agreement with the direct
        # homology-decomposition recursion in every arity
        total = lincomb(gens, ((-1 if k % 2 else 1, m.apply_word(Word.tensor(name)))
                               for k, m in coops.items()))
        if total:
            diff[name] = FreeLieElement(total)
    out = FreeLieDGL(gens, diff)
    out.validate()
    return out


def quillen_differential_direct(C: AInfCoalgebra, dec) -> FreeLieDGL:
    """Quillen-minimal differential straight from a homology decomposition
    of a DGC: on s^{-1}h it is (1/2) sum (-1)^{|z'|} [lam z', lam z''] over
    the coproduct of h, with lam recursing through the homotopy inverse of
    the differential on the A-part.

    lam(e) is the H-part p(e) plus the bracket halves of Delta(sum c_j a_j),
    where c_j is the dA_j-coefficient of e.  The canonical homotopy kills A
    and H and sends da_j to a_j, so h(e) = sum c_j a_j itself: lam needs no
    solve.  lam is linear and only ever evaluated on generators, so it is
    computed once per generator.
    """
    if not C.is_dgc:
        raise ValueError("the direct recursion needs a DGC")
    if C.counit is not None:
        raise ValueError("the direct recursion expects a reduced coalgebra")
    space = C.space

    from .transfer import retract_from_decomposition

    r = retract_from_decomposition(dec)
    small = r.small.space
    gens = small.suspend(-1)
    memo: dict[str, Element] = {}

    def bracket_halves(cop: Element, depth: int) -> Element:
        """(1/2) sum (-1)^{|z'|} [lam z', lam z''] over a coproduct value."""
        parts = []
        for w, c in cop.terms.items():
            zl, zr = w.factors
            sign = -1 if space.degree(zl) % 2 else 1
            left = lam(zl, depth)
            right = lam(zr, depth)
            if left and right:
                parts.append((Fraction(1, 2) * sign * c, lie_bracket(left, right)))
        return lincomb(gens, parts)

    def lam(name: str, depth: int) -> Element:
        if name in memo:
            return memo[name]
        if depth > space.dim + 2:
            raise ValidationError("non-terminating recursion")
        w = Word.tensor(name)
        parts = [(c, Element.gen(gens, pw.factors[0]))
                 for pw, c in r.proj.apply_word(w).terms.items()]
        ha = r.homotopy.apply_word(w)
        if ha:
            parts.append((1, bracket_halves(C.delta(2).apply(ha), depth + 1)))
        out = memo[name] = lincomb(gens, parts)
        return out

    diff: dict[str, FreeLieElement] = {}
    for nm in small.names:
        rep = r.incl.apply_word(Word.tensor(nm))
        total = bracket_halves(C.delta(2).apply(rep), 0)
        if total:
            diff[nm] = FreeLieElement(total)
    out = FreeLieDGL(gens, diff)
    out.validate()
    if not out.is_minimal:
        raise ValueError("direct Quillen differential has a linear part")
    return out


# ---------------------------------------------------------------------------
# the cochain functor and its inverse


def _dual_names(names, strip: bool = False):
    if strip:
        out = [n[:-1] if n.endswith("'") else n for n in names]
    else:
        out = [n + "'" for n in names]
    if len(set(out)) != len(out):
        raise ValueError("dual naming collides; rename generators")
    return out


def _multiplicity_factor(factors) -> int:
    mult = 1
    for _, grp in itertools.groupby(factors):
        mult *= math.factorial(len(list(grp)))
    return mult


def cochain(L: LInfAlgebra, names: list[str] | None = None, orient=None,
            validate: bool = True) -> CDGA:
    """Chevalley-Eilenberg algebra: generators dual to the suspension, with
    <d_j v; s x_1 ^ ... ^ s x_j> = <v; s ell_j(x_1, ..., x_j)>.

    The monomial dual to a canonical wedge word lists the dual generators in
    the same factor order, divided by the repetition factorials.  `names`
    renames the dual generators (default: the bracket names less a trailing
    prime); `orient(w)` returns (sign, factor order) to identify the
    monomial of the wedge word w differently, with the sign multiplying it.
    """
    lnames = L.space.names
    vnames = names if names is not None else _dual_names(lnames, strip=True)
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
    diff = {vn: lincomb(vspace, ps) for vn, ps in parts.items()}
    return CDGA(vspace, {vn: el for vn, el in diff.items() if el}, validate=validate)


def linf_from_cdga(A: CDGA) -> LInfAlgebra:
    """L-infinity structure on the desuspended dual of the generators,
    brackets read off the word-length parts of the differential (the exact
    inverse of `cochain`): only the monomials that occur in it are visited,
    in word-basis order."""
    from .structures import LInfAlgebra

    if not A.is_sullivan:
        raise ValueError("input must be a Sullivan algebra (d V in Lambda^{>=1} V)")
    vnames = A.gens.names
    xnames = _dual_names(vnames)
    lspace = GradedSpace.of(
        [(x, A.gens.degree(v) - 1) for x, v in zip(xnames, vnames)]
    )

    # the canonical monomials of the differential, by length; desuspension
    # flips every parity, so they are exactly the canonical wedge words of
    # lspace with the factors renamed, in the same (degree, index) order
    monos: dict[int, dict[Word, None]] = {}
    for el in A.diff.values():
        for w in el.terms:
            cw, _ = canonical_word(A.gens, "m", w.factors)
            if cw is not None and cw.factors == w.factors:
                monos.setdefault(len(w), {})[cw] = None
    x_of = dict(zip(vnames, xnames))
    key = A.gens.sortkey
    ops: dict[int, GradedMap] = {}
    for j in sorted(monos):
        images: dict[Word, Element] = {}
        for cw in sorted(monos[j], key=lambda cw: [key(f) for f in cw.factors]):
            mult = _multiplicity_factor(cw.factors)
            img = lincomb(lspace, [
                (mult * A.diff[v].coeff(cw), Element.gen(lspace, x))
                for v, x in zip(vnames, xnames) if A.diff.get(v)])
            if img:
                images[Word.wedge(*(x_of[f] for f in cw.factors))] = img
        if images:
            ops[j] = GradedMap(lspace, lspace, j - 2, images, arity=j, in_kind="w")
    return LInfAlgebra(lspace, ops)
