"""A-infinity coalgebras and L-infinity algebras as executable data, each
checked once, when built: one whose defining relations fail is refused
with an AxiomError, so every structure the engine holds is valid.  Each
map's shape is checked there too (canonical input words, and image words:
tensor words of k letters for Delta_k, generators for ell_k), so each
round-trips.  A zero op is dropped there, by the rule of `core`'s
Conventions that no zero is stored.

Structure maps are stored unshifted: co-operations Delta_k : C -> C^{(x)k}
of degree k-2 on plain basis words, brackets ell_k : Lambda^k L -> L of
degree k-2 on wedge words.  The checkers evaluate the defining relations
literally:

  A-infinity:  sum_{k,n} (-1)^{k+n+kn} (id^{(x)i-k-n} (x) Delta_k (x) id^{(x)n})
               Delta_{i-k+1} = 0
  L-infinity:  sum_{i+j=n+1} sum_{(i,n-i)-shuffles} eps_sigma eps (-1)^{i(j-1)}
               ell_j(ell_i(x_sigma...), x_sigma...) = 0

with the Koszul tensor-evaluation rule supplying all remaining signs, and
`core.koszul_sign` the sign of each shuffle.  `iterated_coproducts` yields
Delta^{(1)}, Delta^{(2)}, ... in one pass; the convolution brackets, the
reduced Brown-Szczarba recursion and `conilpotence` all read it, and it
refuses a Delta^{(k)} past COPRODUCT_TERM_BOUND terms before building it.

`shifted_coops` and `shifted_brackets` build the suspension-normalized
ops once, as plain GradedMaps of degree -1 (co-ops conjugated onto
s^{-1}C, brackets onto sL):

    delta_k = (s^{-1})^{(x)k} o Delta_k o s         (A-infinity)
    B_k     = s o ell_k o (s^{-1})^{(x)k}           (L-infinity)

and `unshift`, the exact inverse conjugation, carries the interleaving
sign (-1)^{k(k-1)/2}.  All three are `core.suspend_map`, the one
decalage rule; the retract maps `transfer` reads in place, as it only
relabels a map with one letter in and one out.  By decalage
B_k is graded symmetric on sL, so it is stored on monomial words and
GradedMap's canonicalization evaluates it on every input order.  In this
normalization the homotopy-transfer tree sums are sign-free, which is how
the transfer module computes them.  The checkers evaluate the literal
relations alone; the test suite's shifted cross-checks evaluate these
maps with code of their own, d^2 = 0 of the cobar derivation and the
Koszul-signed Jacobi sums on every monomial word of sL.

A Maurer-Cartan element is a plain Element of degree -1, which `mc_check`
returns once its curvature vanishes; the curvature is the k = 0 case, on
the empty word, of the twisted brackets that `perturb` builds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

from . import linalg
from .core import (
    AxiomError,
    BoundError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    apply_at,
    canonical_word,
    from_coords,
    koszul_sign,
    letter_index,
    lincomb,
    shuffles,
    substituted_words,
    suspend_map,
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
        return f"FAIL at {self.where}" + ("" if self.residual is None else f": {self.residual!r}")


def _check_shapes(name: str, ops: dict[int, GradedMap], shape) -> None:
    """Refuse an op name_k of degree other than k - 2, on input words other
    than canonical `kind` words of `inputs` letters (maps are evaluated on
    the canonical word), or with an image word other than a tensor word of
    `letters` letters, for (kind, inputs, letters) = shape(k)."""
    for k, m in ops.items():
        kind, inputs, letters = shape(k)
        if m.degree != k - 2:
            raise ValidationError(f"{name}_{k} must have degree {k - 2}, got {m.degree}")
        if (m.in_kind, m.arity) != (kind, inputs) or any(
                (w.kind, len(w)) != (kind, inputs) for w in m.images):
            words = {"t": "tensor", "w": "wedge"}[kind]
            raise ValidationError(f"{name}_{k} must act on {words} words of length {inputs}")
        for w, el in m.images.items():
            cw = canonical_word(m.source, kind, w.factors)[0]
            if cw != w:
                why = "the word is zero" if cw is None else f"its canonical order is {cw!r}"
                raise ValidationError(f"{name}_{k} is given on {w!r}, but {why}")
            for t in el.terms:
                if (t.kind, len(t)) != ("t", letters):
                    want = "a generator" if letters == 1 else f"a tensor word of {letters} letters"
                    raise ValidationError(f"{name}_{k}({w!r}) has the word {t!r}, not {want}")


class AInfCoalgebra:
    """Graded space with co-operations Delta_k of degree k-2, checked once,
    when built, against the A-infinity relations (`check_ainf`).

    `counit` names the dual-of-unit basis element when this is a full
    counital coalgebra; reduced coalgebras leave it None.
    """

    def __init__(self, space: GradedSpace, ops: dict[int, GradedMap],
                 counit: str | None = None):
        self.space = space
        self.ops = {k: m for k, m in ops.items() if not m.is_zero()}
        self.counit = counit
        if counit is not None and counit not in space:
            raise ValidationError(f"counit {counit!r} is not a generator")
        _check_shapes("Delta", self.ops, lambda k: ("t", 1, k))
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
    """Graded space with brackets ell_k of degree k-2 stored on wedge words,
    checked once, when built, against the generalized Jacobi identity
    (`check_linf`)."""

    def __init__(self, space: GradedSpace, ops: dict[int, GradedMap]):
        self.space = space
        self.ops = {k: m for k, m in ops.items() if not m.is_zero()}
        _check_shapes("ell", self.ops, lambda k: ("w", k, 1))
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
        return self.ell(k).apply(reduce(Element.times, elements))


# ---------------------------------------------------------------------------
# shifted ops


def shifted_coops(C: AInfCoalgebra) -> dict[int, GradedMap]:
    """delta_k = (s^{-1})^{(x)k} o Delta_k o s on s^{-1}C, for each arity of C."""
    space = C.space.suspend(-1)
    return {k: suspend_map(m, space, space, -1) for k, m in C.ops.items()}


def shifted_brackets(L: LInfAlgebra) -> dict[int, GradedMap]:
    """B_k = s o ell_k o (s^{-1})^{(x)k} on the monomial words of sL, for
    each arity of L.

    The canonical wedge words of L are the canonical monomial words of sL.
    Swapping adjacent inputs of sL-degrees p and q costs the wedge sign
    -(-1)^{(p-1)(q-1)} in L times the change (-1)^{p+q} of the suspension
    sign, which is the Koszul sign (-1)^{pq} of monomial words; so these
    images give B_k on every input order."""
    space = L.space.suspend(+1)
    return {k: suspend_map(m, space, space, -1, kind="m") for k, m in L.ops.items()}


def unshift(m: GradedMap, k: int, space: GradedSpace) -> GradedMap:
    """The inverse conjugation of a shifted arity-k op m onto `space`, on m's
    word kind: Delta_k = (-1)^{k(k-1)/2} s^{(x)k} o delta_k o s^{-1} for a
    co-operation, ell_k = (-1)^{k(k-1)/2} s^{-1} o B_k o s^{(x)k} for a bracket."""
    return suspend_map(m, space, space, k - 2, scale=suspension_sign([1] * k))


# ---------------------------------------------------------------------------
# A-infinity checks


def _ainf_total(C: AInfCoalgebra, gen: str, i: int) -> Element:
    """The arity-i coherence sum on one generator: each
    (id^{(x)a} (x) Delta_k (x) id^{(x)n}) applied in place by `apply_at`."""
    ops = C.ops
    parts = []
    for k in ops:
        j = i - k + 1
        if j < 1 or j not in ops:
            continue
        inner = ops[j].apply_word(Word.tensor(gen))
        if not inner:
            continue
        for n in range(0, i - k + 1):
            parts.append((-1 if (k + n + k * n) % 2 else 1, apply_at(ops[k], i - k - n, inner)))
    return lincomb(C.space, parts)


def check_ainf(C: AInfCoalgebra) -> CheckReport:
    """Evaluate the A-infinity coherence relation on every basis element."""
    for i in range(1, 2 * C.max_arity):
        for gen in C.space.names:
            total = _ainf_total(C, gen, i)
            if total:
                return CheckReport(False, f"relation i={i} on {gen}", total)
    return CheckReport(True)


def check_cocommutative(C: AInfCoalgebra) -> CheckReport:
    """tau o Delta_k = 0 for all k, tau the proper unshuffle splittings."""
    for k, m in sorted(C.ops.items()):
        for gen in C.space.names:
            el = m.apply_word(Word.tensor(gen))
            acc: dict[tuple[Word, Word], Fraction] = {}
            for w, c in el.terms.items():
                for pair, s in unshuffle(C.space, w).items():
                    acc[pair] = acc.get(pair, 0) + s * c
            bad = {p: v for p, v in acc.items() if v}
            if bad:
                pair = next(iter(bad))
                return CheckReport(
                    False, f"tau on Delta_{k}({gen}), split {pair[0]!r}|{pair[1]!r}"
                )
    return CheckReport(True)


# the most terms, counted before cancellation, of one Delta^{(k)} of
# `iterated_coproducts`; the dual of nine odd generators reaches 4,233,600
COPRODUCT_TERM_BOUND = 8_000_000


def iterated_coproducts(C: AInfCoalgebra):
    """Delta^{(1)}, Delta^{(2)}, ... in turn, each extended from the one
    before: Delta^{(k+1)} = (Delta (x) id^{(x)k}) o Delta^{(k)}.  Its terms,
    over the terms of Delta^{(k)} those of Delta of the first factor, are
    counted first, and refused past COPRODUCT_TERM_BOUND."""
    if not C.is_dgc:
        raise ValueError("iterated coproducts need a DGC (Delta_k = 0 for k > 2)")
    delta = it = C.delta(2)
    size = {w.factors[0]: len(el.terms) for w, el in delta.images.items()}
    for k in itertools.count(2):
        yield it
        count = sum(size.get(t.factors[0], 0) for el in it.images.values() for t in el.terms)
        if count > COPRODUCT_TERM_BOUND:
            raise BoundError(f"Delta^{{({k})}} has {count:,} terms before cancellation, "
                             f"over the bound of {COPRODUCT_TERM_BOUND:,}")
        it = GradedMap(C.space, C.space, 0, {
            w: apply_at(delta, 0, el) for w, el in it.images.items()})


# ---------------------------------------------------------------------------
# L-infinity checks


def _jacobi_total(L: LInfAlgebra, factors: tuple[str, ...], n: int) -> Element:
    """Sum over (i, n-i)-shuffles of outer(inner(block), rest)."""
    ops = L.ops
    degs = [L.space.degree(f) for f in factors]
    parts = []
    for i in sorted(ops):
        j = n + 1 - i
        if j not in ops:
            continue
        block_sign = -1 if (i * (j - 1)) % 2 else 1
        for left, right in shuffles(n, i):
            inner = ops[i].apply_word(Word("t", tuple(factors[p] for p in left)))
            if not inner:
                continue
            s = block_sign * koszul_sign([p + 1 for p in left + right], degs)
            rest = tuple(factors[p] for p in right)
            for w, c in inner.terms.items():
                out = ops[j].apply_word(Word("t", w.factors + rest))
                if out:
                    parts.append((s * c, out))
    return lincomb(L.space, parts)


def _candidate_words(L: LInfAlgebra, n: int, index):
    """Wedge words that can carry a nonzero Jacobi summand at arity n;
    index[i] is the `core.letter_index` of ell_i's images.

    A summand ell_j(ell_i(x_L), x_R), i = n + 1 - j, is nonzero only when some
    factor u of ell_i(x_L) completes x_R to a support word of ell_j, so one
    factor u at a time of each support word of ell_j is replaced by the
    support words of ell_i whose image carries u.  The result contains
    every word whose Jacobi total is nonzero.
    """
    ops = L.ops
    pool_lists = []
    for i in sorted(ops):
        j = n + 1 - i
        if j not in ops:
            continue
        for sw in ops[j].images:
            fs = sw.factors
            pool_lists.extend([index[i].get(u, ()) if q == p else [(f,)] for q, f in enumerate(fs)]
                              for p, u in enumerate(fs))
    return substituted_words(L.space, "w", pool_lists)


def check_linf(L: LInfAlgebra) -> CheckReport:
    """Evaluate the generalized Jacobi identity on the words
    `_candidate_words` builds from the ops' supports and images, each
    support word of an outer ell_j with one factor replaced by the inner
    support words whose image carries it.  They include every word with a
    nonzero Jacobi total, so the check is exhaustive.  Among failing words
    the one reported is the first in that order.
    """
    index = {i: letter_index((w.factors, val) for w, val in op.images.items())
             for i, op in L.ops.items()}
    for n in range(1, 2 * L.max_arity):
        for w in _candidate_words(L, n, index):
            total = _jacobi_total(L, w.factors, n)
            if total:
                return CheckReport(False, f"Jacobi n={n} on {w!r}", total)
    return CheckReport(True)


# ---------------------------------------------------------------------------
# Maurer-Cartan machinery


def _twisted(L: LInfAlgebra, z: Element, factors: tuple[str, ...]) -> Element:
    """sum_i (1/i!) ell_{i+k}(z, ..., z, w): z taken i times, w the word of the k factors."""
    k = len(factors)
    w = Element(L.space, {Word.tensor(*factors): 1})
    parts = []
    for i in range(0, L.max_arity - k + 1):
        if i > 0:
            w = z.times(w)
            if not w:
                break
        if i + k in L.ops:
            parts.append((Fraction(1, math.factorial(i)), L.ell(i + k).apply(w)))
    return lincomb(L.space, parts)


def mc_check(L: LInfAlgebra, z: Element) -> Element:
    """Verify the Maurer-Cartan equation and return z; raises on failure."""
    if z and z.degree != -1:
        raise ValidationError(f"Maurer-Cartan elements have degree -1, got {z.degree}")
    # the curvature sum_k (1/k!) ell_k(z, ..., z), finite because the op family is
    res = _twisted(L, z, ())
    if res:
        raise ValidationError(f"Maurer-Cartan equation fails, residual {res!r}")
    return z


def perturb(L: LInfAlgebra, mc: Element) -> LInfAlgebra:
    """Twisted structure ell_k^z = sum_i (1/i!) ell_{i+k}(z,...,z, -), z = mc.

    ell_k^z(w) is nonzero only when w is a support word of some ell_{i+k}
    less i factors that lie in the support of z, so only those words are
    evaluated: each such factor may be dropped, keeping length k.  At z = 0
    every ell_k^z is ell_k, and L itself is returned."""
    if not mc:
        return L
    zsupp = {f for w in mc.terms for f in w.factors}
    ops: dict[int, GradedMap] = {}
    for k in range(1, L.max_arity + 1):
        pool_lists = ([[(), (f,)] if f in zsupp else [(f,)] for f in sw.factors]
                      for m in sorted(L.ops) if m >= k for sw in L.ops[m].images)
        cands = substituted_words(L.space, "w", pool_lists, length=k)
        images = {w: _twisted(L, mc, w.factors) for w in cands}
        ops[k] = GradedMap(L.space, L.space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(L.space, ops)


def truncate(L: LInfAlgebra) -> LInfAlgebra:
    """Keep positive degrees and the ell_1-cycles in degree 0.

    The degree-0 part is replaced by an echelon basis of ker(ell_1),
    named by pivot generators; brackets are re-expressed in that basis.
    L's checks close the result under brackets: a value is a sum of
    generators of degree >= 0, and in degree 0 a cycle (Jacobi, n = 1, 2).
    ell_k is evaluated only on the words whose inclusion meets a support
    word of ell_k: each factor of a support word replaced by a new basis
    element whose inclusion involves it.
    """
    space = L.space
    pos = [n for n in space.names if space.degree(n) > 0]
    zero = [n for n in space.names if space.degree(n) == 0]

    # cycle basis in degree 0
    mat = L.ell(1).matrix(zero, [n for n in space.names if space.degree(n) == -1])
    cycles = linalg.echelon_basis(linalg.nullspace(mat, len(zero)))

    include: dict[str, Element] = {n: Element.gen(space, n) for n in pos}
    cycle_words = [Word.tensor(n) for n in zero]
    pivots = []
    for vec in cycles:
        pivot = zero[next(i for i, x in enumerate(vec) if x)]
        pivots.append(pivot)
        include[pivot] = from_coords(space, cycle_words, vec)
    # pre[n]: the new basis elements whose inclusion involves n
    pre = letter_index(((m,), el) for m, el in include.items())
    new_space = GradedSpace.of([(n, d) for n, d in space.basis if n in include])

    ops: dict[int, GradedMap] = {}
    for k in sorted(L.ops):
        cands = substituted_words(
            new_space, "w", ([pre.get(f, ()) for f in sw.factors] for sw in L.ops[k].images))
        images = {}
        for w in cands:
            out = L.ell(k).apply(reduce(Element.times, (include[f] for f in w.factors)))
            if out.degree == 0:
                # a cycle: its coordinates in the RREF cycle basis are its
                # entries at the pivots
                images[w] = Element.make(new_space, [(out.coeff(Word.tensor(p)), "t", (p,))
                                                     for p in pivots])
            else:  # GradedMap checks it into new_space
                images[w] = out
        ops[k] = GradedMap(new_space, new_space, k - 2, images, arity=k, in_kind="w")
    return LInfAlgebra(new_space, ops)
