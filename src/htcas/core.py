"""Graded vector spaces over Q: named bases, sparse elements, sparse maps.

Conventions used across the package:

* Degrees are integers and homological.  Cohomological objects (Sullivan
  algebras, duals) are stored with negated degrees and rendered with upper
  indices only at the I/O boundary.
* Every sign comes from the Koszul rule: transposing graded symbols of
  degrees p and q costs (-1)**(p*q).  `koszul_sign` returns the graded
  signature (ordinary signature times Koszul sign), which governs wedge
  words; monomial words use the Koszul sign alone.
* Tensor products of maps evaluate as
      (f (x) g)(x (x) y) = (-1)**(|g|*|x|) f(x) (x) g(y).
* Word kinds:
    "t"  tensor words, no canonical form; a length-1 tensor word doubles
         as a plain basis word,
    "w"  wedge words (graded signature order; a repeated even-degree
         factor kills the word),
    "m"  monomial words (graded-commutative order; a repeated odd-degree
         factor kills the word).
  Wedge and monomial words are kept sorted by (degree, declaration index)
  with the sorting sign absorbed into the coefficient.
* Suspension: s and s^{-1} are degree +1 / -1 symbols; applying them
  slotwise to a k-factor word costs (-1)**sum((k-i)*|x_i|), the Koszul
  price of threading each symbol to its slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

ZERO = Fraction(0)
ONE = Fraction(1)


class ValidationError(ValueError):
    """Malformed input: a wrong degree, an inhomogeneous element, a bad name."""


class AxiomError(ValueError):
    """A structure whose defining relations fail (d^2, A-infinity, Jacobi)."""


class BoundError(ValueError):
    """A computation outside what the engine can bound, e.g. no arity cap."""


def frac(x) -> Fraction:
    """Exact scalar from an int, Fraction or 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


# ---------------------------------------------------------------------------
# signs


def koszul_sign(perm, degrees, signature: bool = True) -> int:
    """Graded signature of a permutation acting on graded symbols.

    `perm` is 1-based: slot i of the output holds symbol number perm[i-1].
    With signature=True returns eps_sigma * eps (wedge/shuffle signs); with
    signature=False the Koszul sign alone (symmetric words).
    """
    n = len(perm)
    if len(degrees) != n:
        raise ValueError("permutation and degree list have different lengths")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                if signature:
                    sign = -sign
                if degrees[perm[i] - 1] % 2 and degrees[perm[j] - 1] % 2:
                    sign = -sign
    return sign


def suspension_sign(degrees) -> int:
    """Sign of applying s (or s^{-1}) to every slot of a k-factor word."""
    s = 0
    k = len(degrees)
    for i, d in enumerate(degrees):
        s += (k - 1 - i) * d
    return -1 if s % 2 else 1


# ---------------------------------------------------------------------------
# spaces and words


@dataclass(frozen=True)
class GradedSpace:
    """Finite ordered basis of named generators with integer degrees."""

    basis: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.basis]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate basis names")

    @staticmethod
    def of(pairs) -> "GradedSpace":
        return GradedSpace(tuple((str(n), int(d)) for n, d in pairs))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.basis)}

    @cached_property
    def _degree(self) -> dict[str, int]:
        return dict(self.basis)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def degree(self, name: str) -> int:
        return self._degree[name]

    def index(self, name: str) -> int:
        return self._index[name]

    def sortkey(self, name: str):
        return (self._degree[name], self._index[name])

    def word_degree(self, word: "Word") -> int:
        return sum(self._degree[f] for f in word.factors)

    def suspend(self, shift: int) -> "GradedSpace":
        return GradedSpace(tuple((n, d + shift) for n, d in self.basis))

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.basis)

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())


@dataclass(frozen=True)
class Word:
    """An ordered word of basis names; kind "t", "w" or "m" (see module doc)."""

    kind: str
    factors: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        sep = {"t": "|", "w": "^", "m": "^"}[self.kind]
        return sep.join(self.factors) if self.factors else "1"

    @staticmethod
    def tensor(*names: str) -> "Word":
        return Word("t", tuple(names))

    @staticmethod
    def wedge(*names: str) -> "Word":
        return Word("w", tuple(names))

    @staticmethod
    def mono(*names: str) -> "Word":
        return Word("m", tuple(names))


def canonical_word(space: GradedSpace, kind: str, factors) -> tuple[Word | None, int]:
    """Sorted word and sorting sign; (None, 0) when the word is zero.

    Wedge words pick up the graded signature of the sort, monomial words the
    Koszul sign alone.  A repeated factor kills the word exactly when its
    self-transposition sign is -1 (even degree for "w", odd for "m").
    """
    fs = list(factors)
    if kind == "t":
        return Word("t", tuple(fs)), 1
    keys = [space.sortkey(f) for f in fs]
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            p = space.degree(fs[j - 1])
            q = space.degree(fs[j])
            s = -1 if (p % 2 and q % 2) else 1
            if kind == "w":
                s = -s
            sign *= s
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            j -= 1
    for a, b in zip(fs, fs[1:]):
        if a == b:
            d = space.degree(a)
            dead = (d % 2 == 0) if kind == "w" else (d % 2 == 1)
            if dead:
                return None, 0
    return Word(kind, tuple(fs)), sign


def word_basis(space: GradedSpace, kind: str, arity: int, degree: int | None = None):
    """All canonical words of the given kind and arity (optionally one degree)."""
    names = space.names
    out = []
    if kind == "t":
        pool = itertools.product(names, repeat=arity)
    else:
        pool = itertools.combinations_with_replacement(
            sorted(names, key=space.sortkey), arity
        )
    for fs in pool:
        w, s = canonical_word(space, kind, fs)
        if w is None or s != 1:
            continue
        if degree is not None and space.word_degree(w) != degree:
            continue
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# elements


class Element:
    """Finite Q-linear combination of same-kind, same-degree words."""

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: dict[Word, Fraction] | None = None):
        self.space = space
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}
        degs = {space.word_degree(w) for w in self.terms}
        if len(degs) > 1:
            raise ValidationError(f"inhomogeneous element: degrees {sorted(degs)}")

    @staticmethod
    def zero(space: GradedSpace) -> "Element":
        return Element(space, {})

    @staticmethod
    def gen(space: GradedSpace, name: str) -> "Element":
        if name not in space:
            raise KeyError(name)
        return Element(space, {Word.tensor(name): ONE})

    @staticmethod
    def make(space: GradedSpace, items) -> "Element":
        """Build from (coeff, kind, factors) triples, canonicalizing words."""
        terms: dict[Word, Fraction] = {}
        for coeff, kind, factors in items:
            w, s = canonical_word(space, kind, factors)
            if w is None:
                continue
            c = terms.get(w, ZERO) + s * frac(coeff)
            if c:
                terms[w] = c
            else:
                terms.pop(w, None)
        return Element(space, terms)

    @property
    def degree(self) -> int | None:
        for w in self.terms:
            return self.space.word_degree(w)
        return None

    def coeff(self, word: Word) -> Fraction:
        return self.terms.get(word, ZERO)

    def items(self):
        return self.terms.items()

    def sorted_items(self):
        sk = self.space.sortkey
        return sorted(self.terms.items(), key=lambda wc: [sk(f) for f in wc[0].factors])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __add__(self, other: "Element") -> "Element":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, ZERO) + c
        return Element(self.space, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __neg__(self) -> "Element":
        return (-1) * self

    def __rmul__(self, scalar) -> "Element":
        c = frac(scalar)
        return Element(self.space, {w: c * v for w, v in self.terms.items()})

    def tensor(self, other: "Element") -> "Element":
        """Concatenation x (x) y; both sides must be tensor-kind words."""
        terms: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = Word.tensor(*(w1.factors + w2.factors))
                terms[w] = terms.get(w, ZERO) + c1 * c2
        return Element(self.space, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_items():
            bits.append(f"{c}*{w}")
        return " + ".join(bits)


def coords(el: Element, words: list[Word]) -> list[Fraction]:
    return [el.coeff(w) for w in words]


def from_coords(space: GradedSpace, words: list[Word], vec) -> Element:
    return Element(space, {w: frac(c) for w, c in zip(words, vec) if c})


# ---------------------------------------------------------------------------
# maps


class GradedMap:
    """Homogeneous linear map given by sparse basis images.

    `in_kind`/`arity` describe the domain words; unspecified words map to
    zero.  Wedge and monomial domains accept arbitrary tensor input words,
    canonicalizing first.
    """

    __slots__ = ("source", "target", "degree", "arity", "in_kind", "images")

    def __init__(self, source, target, degree, images, arity=1, in_kind="t"):
        self.source = source
        self.target = target
        self.degree = degree
        self.arity = arity
        self.in_kind = in_kind
        self.images = {w: el for w, el in images.items() if el}
        for w, el in self.images.items():
            want = source.word_degree(w) + degree
            if el.degree is not None and el.degree != want:
                raise ValidationError(
                    f"image of {w} has degree {el.degree}, expected {want}"
                )

    @staticmethod
    def zero(source, target, degree, arity=1, in_kind="t") -> "GradedMap":
        return GradedMap(source, target, degree, {}, arity, in_kind)

    @staticmethod
    def identity(space) -> "GradedMap":
        return GradedMap(
            space, space, 0, {Word.tensor(n): Element.gen(space, n) for n in space.names}
        )

    def apply_word(self, word: Word, coeff: Fraction = ONE) -> Element:
        if self.in_kind == "t":
            img = self.images.get(Word("t", word.factors))
            return coeff * img if img is not None else Element.zero(self.target)
        w, s = canonical_word(self.source, self.in_kind, word.factors)
        if w is None:
            return Element.zero(self.target)
        img = self.images.get(w)
        return (s * coeff) * img if img is not None else Element.zero(self.target)

    def apply(self, el: Element) -> Element:
        out = Element.zero(self.target)
        for w, c in el.terms.items():
            out = out + self.apply_word(w, c)
        return out

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (self.degree, self.arity, self.in_kind) != (other.degree, other.arity, other.in_kind):
            raise ValueError("cannot add maps of different shapes")
        images = dict(self.images)
        for w, el in other.images.items():
            images[w] = images.get(w, Element.zero(self.target)) + el
        return GradedMap(self.source, self.target, self.degree, images, self.arity, self.in_kind)

    def scale(self, scalar) -> "GradedMap":
        c = frac(scalar)
        return GradedMap(
            self.source, self.target, self.degree,
            {w: c * el for w, el in self.images.items()}, self.arity, self.in_kind,
        )

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self after inner (defined on inner's stored domain words)."""
        images = {w: self.apply(el) for w, el in inner.images.items()}
        return GradedMap(
            inner.source, self.target, self.degree + inner.degree,
            images, inner.arity, inner.in_kind,
        )

    def is_zero(self) -> bool:
        return not self.images

    def support(self):
        return list(self.images.keys())


def tensor_apply(slots, arities, el: Element) -> Element:
    """Evaluate (m_1 (x) ... (x) m_r) on tensor words, Koszul signs included.

    Slot i is a GradedMap consuming arities[i] factors; the sign is the
    price of threading each map past the factors to its left.  The result
    lives in the target of the first slot.
    """
    out_terms: dict[Word, Fraction] = {}
    space = el.space
    for word, c in el.terms.items():
        if len(word) != sum(arities):
            raise ValueError(f"word {word} does not split into arities {arities}")
        chunks = []
        pos = 0
        for a in arities:
            chunks.append(word.factors[pos:pos + a])
            pos += a
        sign = 1
        for i, ch in enumerate(chunks):
            d = sum(space.degree(f) for f in ch)
            if d % 2:
                later = sum(slots[j].degree for j in range(i + 1, len(slots)))
                if later % 2:
                    sign = -sign
        pieces = [slots[i].apply_word(Word.tensor(*chunks[i])) for i in range(len(slots))]
        combos = [((), sign * c)]
        dead = False
        for p in pieces:
            if not p:
                dead = True
                break
            combos = [
                (fs + w.factors, cc * pc)
                for fs, cc in combos
                for w, pc in p.terms.items()
            ]
        if dead:
            continue
        for fs, cc in combos:
            w = Word.tensor(*fs)
            out_terms[w] = out_terms.get(w, ZERO) + cc
    return Element(slots[0].target, out_terms)


def tensor_map(maps: list[GradedMap]) -> GradedMap:
    """Materialized f_1 (x) ... (x) f_r over the product of stored domains."""
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
        fs = tuple(f for w in combo for f in w.factors)
        w = Word.tensor(*fs)
        img = tensor_apply(maps, arities, Element(source, {w: ONE}))
        if img:
            images[w] = img
    return GradedMap(source, target, degree, images, sum(arities), "t")


# ---------------------------------------------------------------------------
# unshuffles and symmetrization


def unshuffle(space: GradedSpace, word: Word, proper: bool = False):
    """Unshuffle splittings of a tensor word with graded-signature signs.

    Returns {(left Word, right Word): sign}.  With proper=True the trivial
    (n,0) and (0,n) splits are dropped; those never cancel anything, so the
    cocommutativity test uses the proper part.
    """
    if word.kind != "t":
        raise ValueError("unshuffle acts on tensor words")
    n = len(word)
    if n == 0:
        raise ValueError("empty word")
    degs = [space.degree(f) for f in word.factors]
    lo = 1 if proper else 0
    hi = n - 1 if proper else n
    out: dict[tuple[Word, Word], int] = {}
    for i in range(lo, hi + 1):
        for left in itertools.combinations(range(n), i):
            right = [p for p in range(n) if p not in left]
            sign = 1
            for a in left:
                for b in right:
                    if b < a:
                        sign = -sign
                        if degs[a] % 2 and degs[b] % 2:
                            sign = -sign
            lw = Word.tensor(*(word.factors[p] for p in left))
            rw = Word.tensor(*(word.factors[p] for p in right))
            out[(lw, rw)] = out.get((lw, rw), 0) + sign
    return {k: v for k, v in out.items() if v}


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


# ---------------------------------------------------------------------------
# suspension


def suspend_element(el: Element, target: GradedSpace) -> Element:
    """Slotwise s / s^{-1} on tensor words, with the threading sign."""
    terms: dict[Word, Fraction] = {}
    for w, c in el.terms.items():
        degs = [el.space.degree(f) for f in w.factors]
        terms[w] = terms.get(w, ZERO) + suspension_sign(degs) * c
    return Element(target, terms)
