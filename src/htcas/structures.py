"""A-infinity coalgebras and L-infinity algebras as executable data.

Structure maps are stored unshifted: co-operations Delta_k : C -> C^{(x)k}
of degree k-2 on plain basis words, brackets ell_k : Lambda^k L -> L of
degree k-2 on wedge words.  The checkers evaluate the defining relations
literally:

  A-infinity:  sum_{k,n} (-1)^{k+n+kn} (id^{(x)i-k-n} (x) Delta_k (x) id^{(x)n})
               Delta_{i-k+1} = 0
  L-infinity:  sum_{i+j=n+1} sum_{(i,n-i)-shuffles} eps_sigma eps (-1)^{i(j-1)}
               ell_j(ell_i(x_sigma...), x_sigma...) = 0

with the Koszul tensor-evaluation rule supplying all remaining signs.

`shifted_coops` and `shifted_brackets` build the suspension-normalized
ops once, as plain GradedMaps of degree -1 (co-ops conjugated onto
s^{-1}C, brackets onto sL):

    delta_k = (s^{-1})^{(x)k} o Delta_k o s         (A-infinity)
    B_k     = s o ell_k o (s^{-1})^{(x)k}           (L-infinity)

and the exact inverse conjugation carries the interleaving sign
(-1)^{k(k-1)/2}.  By decalage B_k is graded symmetric on sL, so it is
stored on monomial words and GradedMap's canonicalization evaluates it on
every input order.  In this normalization the homotopy-transfer tree
sums are sign-free, which is how the transfer module computes them, and
the shifted checkers run the literal checkers' loops on these maps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .core import (
    AxiomError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    apply_at,
    canonical_word,
    frac,
    from_coords,
    lincomb,
    shuffle_sign,
    shuffles,
    substituted_words,
    suspend_element,
    suspension_sign,
    unshuffle,
)


class CheckReport:
    """Outcome of an axiom check; failures carry the first offending residual."""

    def __init__(self, ok: bool, where: str | None = None, residual: Element | None = None):
        self.ok = ok
        self.where = where
        self.residual = residual

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "ok"
        return f"FAIL at {self.where}: {self.residual!r}"


class AInfCoalgebra:
    """Graded space with co-operations Delta_k of degree k-2.

    `counit` names the dual-of-unit basis element when this is a full
    counital coalgebra; reduced coalgebras leave it None.
    """

    def __init__(self, space: GradedSpace, ops: dict[int, GradedMap],
                 counit: str | None = None, validate: bool = True):
        self.space = space
        self.ops = {k: m for k, m in ops.items() if not m.is_zero()}
        self.counit = counit
        if counit is not None and counit not in space:
            raise ValidationError(f"counit {counit!r} is not a generator")
        for k, m in self.ops.items():
            if m.degree != k - 2:
                raise ValidationError(f"Delta_{k} must have degree {k - 2}, got {m.degree}")
        if validate:
            rep = check_ainf(self)
            if not rep:
                raise AxiomError(f"A-infinity relation fails: {rep}")

    @property
    def max_arity(self) -> int:
        return max(self.ops, default=0)

    @property
    def is_dgc(self) -> bool:
        return self.max_arity <= 2

    def delta(self, k: int) -> GradedMap:
        m = self.ops.get(k)
        if m is None:
            return GradedMap.zero(self.space, self.space, k - 2)
        return m


class LInfAlgebra:
    """Graded space with brackets ell_k of degree k-2 stored on wedge words."""

    def __init__(self, space: GradedSpace, ops: dict[int, GradedMap],
                 validate: bool = True):
        self.space = space
        self.ops = {k: m for k, m in ops.items() if not m.is_zero()}
        for k, m in self.ops.items():
            if m.degree != k - 2:
                raise ValidationError(f"ell_{k} must have degree {k - 2}, got {m.degree}")
            if m.in_kind != "w" or m.arity != k:
                raise ValidationError(f"ell_{k} must act on wedge words of length {k}")
        if validate:
            rep = check_linf(self)
            if not rep:
                raise AxiomError(f"generalized Jacobi fails: {rep}")

    @property
    def max_arity(self) -> int:
        return max(self.ops, default=0)

    @property
    def is_minimal(self) -> bool:
        return 1 not in self.ops

    def ell(self, k: int) -> GradedMap:
        m = self.ops.get(k)
        if m is None:
            return GradedMap.zero(self.space, self.space, k - 2, arity=k, in_kind="w")
        return m

    def bracket(self, k: int, *elements: Element) -> Element:
        """ell_k evaluated on elements (tensor positions in the given order)."""
        el = elements[0]
        for e in elements[1:]:
            el = el.tensor(e)
        return self.ell(k).apply(el)


class MaurerCartanElement:
    """Degree -1 element with vanishing curvature (verified by mc_check)."""

    def __init__(self, element: Element, algebra: LInfAlgebra):
        self.element = element
        self.algebra = algebra


# ---------------------------------------------------------------------------
# shifted ops


def shifted_coops(C: AInfCoalgebra) -> dict[int, GradedMap]:
    """delta_k = (s^{-1})^{(x)k} o Delta_k o s on s^{-1}C, for each arity of C."""
    space = C.space.suspend(-1)
    return {k: GradedMap(space, space, -1, {w: suspend_element(el, space)
                                            for w, el in m.images.items()})
            for k, m in C.ops.items()}


def unshift_coop(shifted_map: GradedMap, k: int, space: GradedSpace) -> GradedMap:
    """Inverse conjugation: Delta_k = (-1)^{k(k-1)/2} s^{(x)k} o delta_k o s^{-1}."""
    c = suspension_sign([1] * k)
    images = {}
    for w, el in shifted_map.images.items():
        images[w] = c * suspend_element(el, space)
    return GradedMap(space, space, k - 2, images)


def shifted_brackets(L: LInfAlgebra) -> dict[int, GradedMap]:
    """B_k = s o ell_k o (s^{-1})^{(x)k} on the monomial words of sL, for
    each arity of L.

    The canonical wedge words of L are the canonical monomial words of sL.
    Swapping adjacent inputs of sL-degrees p and q costs the wedge sign
    -(-1)^{(p-1)(q-1)} in L times the change (-1)^{p+q} of the suspension
    sign, which is the Koszul sign (-1)^{pq} of monomial words; so these
    images give B_k on every input order."""
    space = L.space.suspend(+1)
    out = {}
    for k, m in L.ops.items():
        images = {Word.mono(*w.factors): suspension_sign([space.degree(f) for f in w.factors])
                  * suspend_element(el, space) for w, el in m.images.items()}
        out[k] = GradedMap(space, space, -1, images, arity=k, in_kind="m")
    return out


def unshift_bracket(space: GradedSpace, k: int,
                    shifted_images: dict[Word, Element]) -> GradedMap:
    """ell_k from the nonzero values of a shifted bracket B_k:
    ell_k = (-1)^{k(k-1)/2} s^{-1} o B_k o s^{(x)k}, materialized on wedge words.

    `shifted_images` is keyed by canonical wedge words of `space` (which are
    the canonical monomial words of its suspension); every other word maps
    to zero.  The images keep the order of the keys."""
    c = suspension_sign([1] * k)
    images = {}
    for w, val in shifted_images.items():
        sign = suspension_sign([space.degree(f) for f in w.factors])
        images[w] = (c * sign) * suspend_element(val, space)
    return GradedMap(space, space, k - 2, images, arity=k, in_kind="w")


# ---------------------------------------------------------------------------
# A-infinity checks


def _ainf_total(ops: dict[int, GradedMap], space: GradedSpace, gen: str,
                i: int, literal_signs: bool) -> Element:
    """The arity-i coherence sum on one generator: each
    (id^{(x)a} (x) Delta_k (x) id^{(x)n}) applied in place by `apply_at`."""
    parts = []
    for k in ops:
        j = i - k + 1
        if j < 1 or j not in ops:
            continue
        inner = ops[j].apply_word(Word.tensor(gen))
        if not inner:
            continue
        for n in range(0, i - k + 1):
            sc = -1 if literal_signs and (k + n + k * n) % 2 else 1
            parts.append((sc, apply_at(ops[k], i - k - n, inner)))
    return lincomb(space, parts)


def _check_coherence(ops: dict[int, GradedMap], space: GradedSpace,
                     literal_signs: bool, label: str) -> CheckReport:
    for i in range(1, 2 * max(ops, default=0)):
        for gen in space.names:
            total = _ainf_total(ops, space, gen, i, literal_signs)
            if total:
                return CheckReport(False, f"{label} i={i} on {gen}", total)
    return CheckReport(True)


def check_ainf(C: AInfCoalgebra) -> CheckReport:
    """Evaluate the A-infinity coherence relation on every basis element."""
    return _check_coherence(C.ops, C.space, True, "relation")


def check_ainf_shifted(C: AInfCoalgebra) -> CheckReport:
    """Cross-form of check_ainf in the degree -1 normalization (sign-free)."""
    return _check_coherence(shifted_coops(C), C.space.suspend(-1), False, "shifted relation")


def check_cocommutative(C: AInfCoalgebra) -> CheckReport:
    """tau o Delta_k = 0 for all k, tau the proper unshuffle splittings."""
    for k, m in sorted(C.ops.items()):
        if k < 2:
            continue
        for gen in C.space.names:
            el = m.apply_word(Word.tensor(gen))
            acc: dict[tuple[Word, Word], Fraction] = {}
            for w, c in el.terms.items():
                for pair, s in unshuffle(C.space, w, proper=True).items():
                    acc[pair] = acc.get(pair, 0) + s * c
            bad = {p: v for p, v in acc.items() if v}
            if bad:
                pair = next(iter(bad))
                return CheckReport(
                    False, f"tau on Delta_{k}({gen}), split {pair[0]!r}|{pair[1]!r}"
                )
    return CheckReport(True)


def iterated_coproducts(C: AInfCoalgebra):
    """Delta^{(1)}, Delta^{(2)}, ... in turn, each extended from the one
    before: Delta^{(k+1)} = (Delta (x) id^{(x)k}) o Delta^{(k)}."""
    if not C.is_dgc:
        raise ValueError("iterated coproducts need a DGC (Delta_k = 0 for k > 2)")
    delta = C.delta(2)
    it = GradedMap(C.space, C.space, 0, {Word.tensor(n): delta.apply_word(Word.tensor(n))
                                          for n in C.space.names})
    while True:
        yield it
        it = GradedMap(C.space, C.space, 0, {
            w: apply_at(delta, 0, el) for w, el in it.images.items()})


def iterated_coproduct(C: AInfCoalgebra, k: int) -> GradedMap:
    """Delta^{(k)} = (Delta (x) id^{...}) o ... o Delta, Delta^{(0)} = id."""
    if not C.is_dgc:
        raise ValueError("iterated coproducts need a DGC (Delta_k = 0 for k > 2)")
    if k == 0:
        return GradedMap.identity(C.space)
    return next(itertools.islice(iterated_coproducts(C), k - 1, None))


# ---------------------------------------------------------------------------
# L-infinity checks


def _jacobi_total(ops: dict[int, GradedMap], space: GradedSpace, factors: tuple[str, ...],
                  n: int, literal_signs: bool) -> Element:
    """Sum over (i, n-i)-shuffles of outer(inner(block), rest)."""
    degs = [space.degree(f) for f in factors]
    parts = []
    for i in sorted(ops):
        j = n + 1 - i
        if j not in ops:
            continue
        block_sign = 1
        if literal_signs and (i * (j - 1)) % 2:
            block_sign = -1
        for left, right in shuffles(n, i):
            s = shuffle_sign(degs, left, right, signature=literal_signs)
            inner = ops[i].apply_word(Word("t", tuple(factors[p] for p in left)))
            if not inner:
                continue
            rest = tuple(factors[p] for p in right)
            for w, c in inner.terms.items():
                out = ops[j].apply_word(Word("t", w.factors + rest))
                if out:
                    parts.append((block_sign * s * c, out))
    return lincomb(space, parts)


def _candidate_words(space: GradedSpace, ops: dict[int, GradedMap], n: int, kind: str):
    """Words of the given kind that can carry a nonzero Jacobi summand at
    arity n.

    A summand ell_j(ell_i(x_L), x_R), i = n + 1 - j, is nonzero only when some
    factor u of ell_i(x_L) completes x_R to a support word of ell_j, so one
    factor u at a time of each support word of ell_j is replaced by the
    support words of ell_i whose image carries u.  The result contains
    every word whose Jacobi total is nonzero.
    """
    pool_lists = []
    for i in sorted(ops):
        j = n + 1 - i
        if j not in ops:
            continue
        carriers: dict[str, list[tuple[str, ...]]] = {}
        for w_in, val in ops[i].images.items():
            for u in {f for w in val.terms for f in w.factors}:
                carriers.setdefault(u, []).append(w_in.factors)
        for sw in ops[j].images:
            fs = sw.factors
            pool_lists.extend([carriers.get(u, ()) if q == p else [(f,)] for q, f in enumerate(fs)]
                              for p, u in enumerate(fs))
    return substituted_words(space, kind, pool_lists)


def _check_jacobi(ops: dict[int, GradedMap], space: GradedSpace, kind: str,
                  literal_signs: bool, label: str) -> CheckReport:
    for n in range(1, 2 * max(ops, default=0)):
        for w in _candidate_words(space, ops, n, kind):
            total = _jacobi_total(ops, space, w.factors, n, literal_signs)
            if total:
                return CheckReport(False, f"{label} n={n} on {w!r}", total)
    return CheckReport(True)


def check_linf(L: LInfAlgebra) -> CheckReport:
    """Evaluate the generalized Jacobi identity on the words
    `_candidate_words` builds from the ops' supports and images, each
    support word of an outer ell_j with one factor replaced by the inner
    support words whose image carries it.  They include every word with a
    nonzero Jacobi total, so the check is exhaustive.  Among failing words
    the one reported is the first in that order.
    """
    return _check_jacobi(L.ops, L.space, "w", True, "Jacobi")


def check_linf_shifted(L: LInfAlgebra) -> CheckReport:
    """Cross-form of check_linf in the suspended normalization."""
    return _check_jacobi(shifted_brackets(L), L.space.suspend(+1), "m", False, "shifted Jacobi")


# ---------------------------------------------------------------------------
# Maurer-Cartan machinery


def mc_residual(L: LInfAlgebra, z: Element) -> Element:
    """sum_k (1/k!) ell_k(z, ..., z); finite because the op family is."""
    parts = []
    power = z
    for k in range(1, L.max_arity + 1):
        if k > 1:
            power = power.tensor(z)
        if k in L.ops:
            parts.append((Fraction(1, math.factorial(k)), L.ell(k).apply(power)))
    return lincomb(L.space, parts)


def mc_check(L: LInfAlgebra, z: Element) -> MaurerCartanElement:
    """Verify the Maurer-Cartan equation; raises on failure."""
    if z and z.degree != -1:
        raise ValueError(f"Maurer-Cartan elements have degree -1, got {z.degree}")
    res = mc_residual(L, z)
    if res:
        raise ValueError(f"Maurer-Cartan equation fails, residual {res!r}")
    return MaurerCartanElement(z, L)


def perturb(L: LInfAlgebra, mc: MaurerCartanElement) -> LInfAlgebra:
    """Twisted structure ell_k^z = sum_i (1/i!) ell_{i+k}(z,...,z, -).

    ell_k^z(w) is nonzero only when w is a support word of some ell_{i+k}
    less i factors that lie in the support of z, so only those words are
    evaluated: each such factor may be dropped, keeping length k."""
    z = mc.element
    zsupp = {f for w in z.terms for f in w.factors}
    ops: dict[int, GradedMap] = {}
    for k in range(1, L.max_arity + 1):
        pool_lists = ([[(), (f,)] if f in zsupp else [(f,)] for f in sw.factors]
                      for m in sorted(L.ops) if m >= k for sw in L.ops[m].support())
        cands = substituted_words(L.space, "w", pool_lists, length=k)
        images = {}
        for w in cands:
            arg = Element(L.space, {Word.tensor(*w.factors): 1})
            parts = []
            for i in range(0, L.max_arity - k + 1):
                if i > 0:
                    arg = z.tensor(arg)
                    if not arg:
                        break
                if i + k in L.ops:
                    parts.append((Fraction(1, math.factorial(i)), L.ell(i + k).apply(arg)))
            total = lincomb(L.space, parts)
            if total:
                images[w] = total
        if images:
            ops[k] = GradedMap(L.space, L.space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(L.space, ops)

def dgc_from_tables(space: GradedSpace, diff: dict, cop: dict,
                    counit: str | None = None, validate: bool = True) -> AInfCoalgebra:
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
    return AInfCoalgebra(space, ops, counit=counit, validate=validate)


def linf_from_tables(space: GradedSpace, ops_table: dict[int, dict],
                     validate: bool = True) -> LInfAlgebra:
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
    return LInfAlgebra(space, ops, validate=validate)


def truncate(L: LInfAlgebra, validate: bool = True) -> LInfAlgebra:
    """Keep positive degrees and the ell_1-cycles in degree 0.

    The degree-0 part is replaced by an echelon basis of ker(ell_1),
    named by pivot generators; brackets are re-expressed in that basis.
    ell_k is evaluated only on the words whose inclusion meets a support
    word of ell_k: each factor of a support word replaced by a new basis
    element whose inclusion involves it.
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
    # pre[n]: the new basis elements whose inclusion involves n
    pre: dict[str, list[tuple[str]]] = {n: [(n,)] for n in pos}
    cycle_words = [Word.tensor(n) for n in zero]
    pivots = []
    for vec in cycles:
        pivot = zero[next(i for i, x in enumerate(vec) if x)]
        pivots.append(pivot)
        include[pivot] = from_coords(space, cycle_words, vec)
        pairs.append((pivot, 0))
        for n, x in zip(zero, vec):
            if x:
                pre.setdefault(n, []).append((pivot,))
    new_space = GradedSpace.of(sorted(pairs, key=lambda p: space.index(p[0])))

    def reexpress(el: Element) -> Element:
        if not el:
            return Element.zero(new_space)
        if el.degree != 0:
            for w in el.terms:
                if any(f not in new_space for f in w.factors):
                    raise ValueError("truncation is not closed under brackets")
            return Element(new_space, dict(el.terms))
        # the cycle basis is in RREF: the coordinates of a cycle in it are
        # its entries at the pivots
        sol = [el.coeff(Word.tensor(p)) for p in pivots]
        if lincomb(space, ((c, include[p]) for p, c in zip(pivots, sol))) != el:
            raise ValueError("bracket output is not an ell_1-cycle in degree 0")
        return Element.make(new_space, [(c, "t", (p,)) for p, c in zip(pivots, sol) if c])

    ops: dict[int, GradedMap] = {}
    for k in sorted(L.ops):
        cands = substituted_words(
            new_space, "w", ([pre.get(f, ()) for f in sw.factors] for sw in L.ops[k].support()))
        images = {}
        for w in cands:
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
