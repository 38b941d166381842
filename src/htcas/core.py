"""Graded vector spaces over Q: named bases, sparse elements, sparse maps.

Conventions used across the package:

* Degrees are integers.  Coalgebras and Lie algebras are graded
  homologically; Sullivan algebras store each cohomological degree as
  written, and their differential raises it by one.
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
  with the sorting sign absorbed into the coefficient.  The word algebra has
  one product, `Element.times`, which concatenates words and canonicalizes
  the result by its kind, and one odd derivation, `derivation`, which
  splices a generator's image in place of each factor with the sign
  (-1)**deg(prefix).  They give the product of Lambda V and of the tensor
  algebra that expands a free Lie algebra, and the Sullivan and Quillen
  differentials.
* Suspension: s and s^{-1} are degree +1 / -1 symbols; applying them
  slotwise to a k-factor word costs (-1)**sum((k-i)*|x_i|), the Koszul
  price of threading each symbol to its slot.  `suspend_map` is the one
  place that applies it, to the input and output words of a map.
* Scalars are exact: an int, or a `fractions.Fraction` when the value is
  not integral, never a float.  `frac` turns any accepted scalar into that
  form.  Arithmetic may leave an integral Fraction, which is not
  normalized: mixed values are exact, and `==` and `hash` agree between
  them.  The only divisions (`linalg.rref` and the Dynkin fallback of the
  serializer) divide by a Fraction, so an int quotient never truncates or
  turns into a float.
* Checks run once.  `Element(space, terms)` scans every term: each word
  must lie in the space and all must share one degree.  `make`,
  `from_coords`, the parser and every other construction from raw terms go
  through it, and a `GradedMap` checks each image's space and degree when
  it is built.  Results computed from checked operands are built by the
  trusted `Element._of` without a second scan, because they are homogeneous
  by construction: a scalar multiple keeps the words (a scalar of 1 returns
  the element itself; elements are never mutated); a product `times` of two
  elements of one space has the sum of their degrees; `GradedMap.apply` on
  an element of its source, `tensor_apply` when every slot maps from the
  element's space into the first slot's target, and `apply_at` when its
  map takes the element's space to itself, sum images of one degree; and
  `lincomb`, the one in-place accumulator behind `+` and every engine sum,
  compares each operand's degree with the partial sum's in O(1).  Spaces
  are interned, so each of these tests of whether two spaces are the same
  is `is`, and a re-scan happens only for a different basis: an operand or
  image of another space is first checked in the space of the result, so
  every inhomogeneity `Element(...)` would reject is still rejected, with
  the same `ValidationError`.  `derivation` checks its sum once, because
  the generator images it splices need not share one degree shift.
* No zero is stored, and the constructors alone decide it: `Element`
  drops a zero coefficient, `GradedMap` a zero image, `CDGA` and
  `FreeLieDGL` a zero differential, and `AInfCoalgebra` and `LInfAlgebra`
  a zero op.  A builder hands over every value it computes, and a reader
  may take each stored image, op and differential to be nonzero; a
  builder tests for zero only to skip work.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from functools import cached_property

ZERO = 0
ONE = 1


class ValidationError(ValueError):
    """Malformed input: a wrong degree, an inhomogeneous element, a bad name."""


class AxiomError(ValueError):
    """A structure whose defining relations fail (d^2, A-infinity, Jacobi)."""


class BoundError(ValueError):
    """A computation outside what the engine can bound, e.g. no arity cap."""


def frac(x) -> int | Fraction:
    """Exact scalar from an int, Fraction or 'p/q' string: an int when the
    value is integral, a Fraction otherwise."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"not an exact scalar: {x!r}")
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# signs


def koszul_sign(perm, degrees, signature: bool = True) -> int:
    """Graded signature of a permutation acting on graded symbols.

    `perm` is 1-based: slot i of the output holds symbol number perm[i-1].
    With signature=True returns eps_sigma * eps (wedge/shuffle signs); with
    signature=False the Koszul sign alone (symmetric words).  The sign of an
    unshuffle (left, right) of 0-based positions is that of the permutation
    left + right.
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


def threading_sign(left, right) -> int:
    """(-1)**sum(left[i] * right[j] for i < j): the price of threading each
    symbol of degree left[i] past the symbols of degrees right[j] to its
    right."""
    s = later = 0
    for i in range(len(left) - 1, -1, -1):
        s += left[i] * later
        later += right[i]
    return -1 if s % 2 else 1


def suspension_sign(degrees) -> int:
    """Sign of applying s (or s^{-1}) to every slot of a k-factor word:
    each symbol of degree 1 threads past the factors to its left."""
    return threading_sign(degrees, [1] * len(degrees))


# ---------------------------------------------------------------------------
# spaces and words


class GradedSpace:
    """Finite ordered basis of named generators with integer degrees.

    Spaces are interned: `GradedSpace(basis)`, and so `of` and `suspend`,
    returns the one live object for an equal basis, so two spaces are the
    same space exactly when they are the same object.  The objects are held
    weakly, so a space nobody references is freed."""

    _live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, basis: tuple[tuple[str, int], ...]):
        space = cls._live.get(basis)
        if space is None:
            names = [n for n, _ in basis]
            if len(set(names)) != len(names):
                repeated = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValidationError(f"duplicate basis name {repeated!r}")
            space = super().__new__(cls)
            space.basis = basis
            cls._live[basis] = space
        return space

    def __repr__(self) -> str:
        return f"GradedSpace(basis={self.basis!r})"

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
        """The space with every degree moved by `shift`."""
        return GradedSpace(tuple((n, d + shift) for n, d in self.basis))

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.basis)

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())


def derived_names(keys, rule, what: str) -> list[str]:
    """rule(key) for each key: the names of a derived basis.  A name that two
    keys get is refused with both, after `what`, a tuple as (k_1, ..., k_n)."""
    seen: dict[str, object] = {}
    for key in keys:
        first = seen.setdefault(rule(key), key)
        if first != key:
            a, b = (f"({', '.join(k)})" if isinstance(k, tuple) else k for k in (first, key))
            raise ValidationError(f"basis name {rule(key)!r} is given to both {what} {a} and {b}")
    return list(seen)


# the separator that joins the factors of each word kind in text
SEPARATOR = {"t": "|", "w": "^", "m": "^"}


class Word:
    """An ordered word of basis names; kind "t", "w" or "m" (see module doc).

    Words are immutable dictionary keys: the hash of (kind, factors) is
    computed once, at construction, instead of on every lookup.
    """

    __slots__ = ("kind", "factors", "_hash")

    def __init__(self, kind: str, factors: tuple[str, ...]):
        self.kind = kind
        self.factors = factors
        self._hash = hash((kind, factors))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Word:
            return NotImplemented
        return (self._hash == other._hash and self.factors == other.factors
                and self.kind == other.kind)

    def __len__(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        return SEPARATOR[self.kind].join(self.factors) if self.factors else "1"

    @staticmethod
    def tensor(*names: str) -> "Word":
        return Word("t", names)

    @staticmethod
    def wedge(*names: str) -> "Word":
        return Word("w", names)

    @staticmethod
    def mono(*names: str) -> "Word":
        return Word("m", names)


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


def word_basis(space: GradedSpace, kind: str, arity: int):
    """All canonical words of the given kind and arity."""
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
        out.append(w)
    return out


def letter_index(items) -> dict[str, list]:
    """letter -> the keys, in order, of the (key, value) pairs whose value
    has a term with that letter as a factor: pools for `substituted_words`."""
    index: dict[str, list] = {}
    for key, val in items:
        for u in dict.fromkeys(f for w in val.terms for f in w.factors):
            index.setdefault(u, []).append(key)
    return index


def substituted_words(space: GradedSpace, kind: str, pool_lists,
                      length: int | None = None) -> list[Word]:
    """Distinct nonzero canonical words, in first-found order, of the
    concatenations that take one tuple of names from each pool of a pool
    list; with `length`, only the concatenations of that many names.

    The support-following loops build one pool per factor of a support
    word, holding the tuples that can stand in for that factor."""
    found: dict[Word, None] = {}
    for pools in pool_lists:
        for combo in itertools.product(*pools):
            fs = [f for part in combo for f in part]
            if length is not None and len(fs) != length:
                continue
            w, _ = canonical_word(space, kind, fs)
            if w is not None:
                found[w] = None
    return list(found)


# ---------------------------------------------------------------------------
# elements


def _exact(scalar):
    """An int or Fraction as it is; any other scalar through `frac`, which
    raises on a non-exact one."""
    return scalar if type(scalar) is int or isinstance(scalar, Fraction) else frac(scalar)


def _scaled(terms: dict, scalar) -> dict:
    """scalar * terms as a new dict; -1 negates and 0 empties."""
    if scalar == -1:
        return {w: -c for w, c in terms.items()}
    if not scalar:
        return {}
    return {w: scalar * c for w, c in terms.items()}


def _add_terms(acc: dict, terms: dict, scalar=1) -> None:
    """acc += scalar * terms, in place.  A coefficient that cancels is
    removed at once, so acc keeps the term order repeated `+` would give."""
    if scalar != 1:
        terms = _scaled(terms, scalar)
    if not acc:
        acc.update(terms)
        return
    get = acc.get
    for w, c in terms.items():
        old = get(w)
        if old is None:
            acc[w] = c
        else:
            c = old + c
            if c:
                acc[w] = c
            else:
                del acc[w]


class Element:
    """Finite Q-linear combination of same-kind, same-degree words.

    `Element(space, terms)` checks every term (see the module doc); the
    results of arithmetic are built by `_of` without a second scan.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: dict[Word, int | Fraction] | None = None):
        self.space = space
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}
        degs = {space.word_degree(w) for w in self.terms}
        if len(degs) > 1:
            raise ValidationError(f"inhomogeneous element: degrees {sorted(degs)}")

    @classmethod
    def _of(cls, space: GradedSpace, terms: dict[Word, Fraction]) -> "Element":
        """Trusted constructor: `terms` has no zero coefficient and is already
        known to be homogeneous in `space`."""
        el = object.__new__(cls)
        el.space = space
        el.terms = terms
        return el

    @staticmethod
    def zero(space: GradedSpace) -> "Element":
        return Element._of(space, {})

    @staticmethod
    def gen(space: GradedSpace, name: str) -> "Element":
        if name not in space:
            raise KeyError(name)
        return Element._of(space, {Word("t", (name,)): ONE})

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

    def sorted_items(self):
        sk = self.space.sortkey
        return sorted(self.terms.items(), key=lambda wc: [sk(f) for f in wc[0].factors])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __add__(self, other: "Element") -> "Element":
        return lincomb(self.space, ((1, self), (1, other)))

    def __sub__(self, other: "Element") -> "Element":
        return lincomb(self.space, ((1, self), (-1, other)))

    def __neg__(self) -> "Element":
        return Element._of(self.space, _scaled(self.terms, -1))

    def __rmul__(self, scalar) -> "Element":
        c = _exact(scalar)
        if c == 1:
            return self
        return Element._of(self.space, _scaled(self.terms, c))

    def times(self, other: "Element") -> "Element":
        """The product x y of the word algebra: each pair of words is
        concatenated and canonicalized by its kind (`_joined`), so a tensor
        word stays as it is, a wedge or monomial word takes its sorting sign
        and a killed word drops out.  The words of y are checked in this
        element's space unless y lives there."""
        space = self.space
        if self.terms and other.space is not space:
            other = Element(space, other.terms)
        terms: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w, s = _joined(space, w1, w2, w1.factors + w2.factors)
                if s:
                    terms[w] = terms.get(w, ZERO) + (c1 * c2 if s > 0 else -c1 * c2)
        return Element._of(space, {w: c for w, c in terms.items() if c})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_items():
            bits.append(f"{c}*{w}")
        return " + ".join(bits)


def _joined(space: GradedSpace, a: Word, b: Word, factors: tuple[str, ...]
            ) -> tuple[Word | None, int]:
    """The word of `factors`, spliced from the words a and b: of their kind,
    or of the other's when one is a tensor word (a length-1 tensor word
    doubles as a plain basis word), and canonical, with its sorting sign;
    (None, 0) when it is killed."""
    kind = a.kind if a.kind != "t" else b.kind
    if kind == "t":
        return Word("t", factors), 1
    return canonical_word(space, kind, factors)


def derivation(diff: dict[str, Element], el: Element) -> Element:
    """The odd derivation that extends `diff`, given on generators, to the
    words of el: each factor f is replaced in place by the words of
    diff[f], with the sign (-1)**deg(prefix) of threading the derivation
    past the factors before it, and each spliced word is canonicalized by
    its kind as in `Element.times`.  The images of `diff` are not known to
    share one degree shift, so the sum is checked once."""
    space = el.space
    degree = space._degree
    terms: dict[Word, int | Fraction] = {}
    for w, c in el.terms.items():
        fs = w.factors
        for i, f in enumerate(fs):
            img = diff.get(f)
            if img:
                pre, post = fs[:i], fs[i + 1:]
                for iw, ic in img.terms.items():
                    nw, s = _joined(space, w, iw, pre + iw.factors + post)
                    if s:
                        terms[nw] = terms.get(nw, ZERO) + (c * ic if s > 0 else -c * ic)
            if degree[f] % 2:
                c = -c
    return Element(space, terms)


def lincomb(space: GradedSpace, pairs) -> Element:
    """The sum of c * el over the (c, el) pairs, accumulated in one dict.

    Each operand of `space` was checked when it was built, so the sum stays
    homogeneous exactly when every operand has the degree of the partial sum
    it meets, which is compared in O(1); an operand of another space is
    first checked in `space`.  This is the check `+` made term by term.
    """
    acc: dict[Word, Fraction] = {}
    deg = None
    for c, el in pairs:
        c = _exact(c)
        if not el.terms or not c:
            continue
        if el.space is not space:
            el = Element(space, el.terms)
        d = el.degree
        if not acc:
            deg = d
        elif d != deg:
            raise ValidationError(f"inhomogeneous element: degrees {sorted((deg, d))}")
        _add_terms(acc, el.terms, c)
    return Element._of(space, acc)


def from_coords(space: GradedSpace, words: list[Word], vec) -> Element:
    return Element(space, {w: frac(c) for w, c in zip(words, vec) if c})


# ---------------------------------------------------------------------------
# maps


class GradedMap:
    """Homogeneous linear map given by sparse basis images.

    `in_kind`/`arity` describe the domain words; unspecified words map to
    zero.  Wedge and monomial domains accept arbitrary tensor input words,
    canonicalizing first.  Every image is checked at construction to be an
    element of `target` of the degree the map dictates, which is what lets
    `apply` and `tensor_apply` build their sums without a second scan.
    """

    __slots__ = ("source", "target", "degree", "arity", "in_kind", "images")

    def __init__(self, source, target, degree, images, arity=1, in_kind="t"):
        self.source = source
        self.target = target
        self.degree = degree
        self.arity = arity
        self.in_kind = in_kind
        self.images = {}
        for w, el in images.items():
            if not el:
                continue
            if el.space is not target:
                el = Element(target, el.terms)
            want = source.word_degree(w) + degree
            if el.degree != want:
                raise ValidationError(
                    f"image of {w} has degree {el.degree}, expected {want}"
                )
            self.images[w] = el

    @staticmethod
    def zero(source, target, degree, arity=1, in_kind="t") -> "GradedMap":
        return GradedMap(source, target, degree, {}, arity, in_kind)

    @staticmethod
    def identity(space) -> "GradedMap":
        return GradedMap(
            space, space, 0, {Word.tensor(n): Element.gen(space, n) for n in space.names}
        )

    def _image(self, factors: tuple[str, ...]):
        """(sign, stored image) for the input word with these factors; the
        image is None when the word maps to zero."""
        if self.in_kind == "t":
            return 1, self.images.get(Word("t", factors))
        w, s = canonical_word(self.source, self.in_kind, factors)
        if w is None:
            return 0, None
        return s, self.images.get(w)

    def apply_word(self, word: Word) -> Element:
        s, img = self._image(word.factors)
        if img is None:
            return Element.zero(self.target)
        return -img if s < 0 else img

    def apply(self, el: Element) -> Element:
        """The sum of c * image(w) over the terms of el, accumulated in place.
        An input of the source space has homogeneous images; any other input
        has its sum checked once."""
        acc: dict[Word, Fraction] = {}
        for w, c in el.terms.items():
            if self.in_kind == "t" and w.kind == "t":
                s, img = 1, self.images.get(w)
            else:
                s, img = self._image(w.factors)
            if img is not None:
                _add_terms(acc, img.terms, -c if s < 0 else c)
        if el.space is self.source:
            return Element._of(self.target, acc)
        return Element(self.target, acc)

    def matrix(self, sources, targets) -> list[list[Fraction]]:
        """The matrix of this map from the generators `sources` to the
        generators `targets`, which hold every letter of their images: one
        column per source, from one application of the map, and one row per
        target."""
        row = {n: i for i, n in enumerate(targets)}
        mat = [[ZERO] * len(sources) for _ in row]
        for j, g in enumerate(sources):
            for w, c in self.apply_word(Word.tensor(g)).terms.items():
                mat[row[w.factors[0]]][j] = c
        return mat

    def is_zero(self) -> bool:
        return not self.images


def tensor_apply(slots, arities, el: Element) -> Element:
    """Evaluate (m_1 (x) ... (x) m_r) on tensor words, Koszul signs included.

    Slot i is a GradedMap consuming arities[i] factors; the sign is the
    price of threading each map past the factors to its left.  The result
    lives in the target of the first slot.  When every slot maps from the
    space of `el` into that target, the result is homogeneous by the degree
    check on each slot's images and is built without a scan.
    """
    out_terms: dict[Word, Fraction] = {}
    space = el.space
    target = slots[0].target
    total = sum(arities)
    # later[i]: parity of the degrees of the maps right of slot i
    later = [sum(m.degree for m in slots[i + 1:]) % 2 for i in range(len(slots))]
    for word, c in el.terms.items():
        if len(word) != total:
            raise ValueError(f"word {word} does not split into arities {arities}")
        pieces = []
        sign = 1
        pos = 0
        for i, m in enumerate(slots):
            ch = word.factors[pos:pos + arities[i]]
            pos += arities[i]
            s, img = m._image(ch)
            if later[i] and sum(space.degree(f) for f in ch) % 2:
                s = -s
            sign *= s
            pieces.append(img)
        if any(img is None for img in pieces):
            continue
        combos = [((), c if sign > 0 else -c)]
        for img in pieces:
            combos = [
                (fs + w.factors, cc if pc == 1 else (-cc if pc == -1 else cc * pc))
                for fs, cc in combos
                for w, pc in img.terms.items()
            ]
        for fs, cc in combos:
            w = Word("t", fs)
            old = out_terms.get(w)
            out_terms[w] = cc if old is None else old + cc
    out_terms = {w: v for w, v in out_terms.items() if v}
    if all(m.target is target and m.source is space for m in slots):
        return Element._of(target, out_terms)
    return Element(target, out_terms)


def apply_at(m: GradedMap, pos: int, el: Element) -> Element:
    """(id^{(x)pos} (x) m (x) id^{(x)rest})(el) on tensor words.

    The images of the slot's factors are spliced between the prefix and the
    suffix, with the sign (-1)**(|m| * deg(prefix)) of threading m past the
    prefix: what `tensor_apply` gives with identity slots, without building
    or visiting them.  The result lives in m's target; it is built without a
    scan under `tensor_apply`'s condition, here that m maps the space of
    `el` to itself.
    """
    space = el.space
    degree = space._degree
    odd = m.degree % 2
    end = pos + m.arity
    out_terms: dict[Word, int | Fraction] = {}
    get = out_terms.get
    for word, c in el.terms.items():
        fs = word.factors
        if len(fs) < end:
            raise ValueError(f"word {word} has no slot {pos} of arity {m.arity}")
        s, img = m._image(fs[pos:end])
        if img is None:
            continue
        if odd and sum(degree[f] for f in fs[:pos]) % 2:
            s = -s
        cc = c if s > 0 else -c
        pre, post = fs[:pos], fs[end:]
        for w, pc in img.terms.items():
            nw = Word("t", pre + w.factors + post)
            v = cc if pc == 1 else (-cc if pc == -1 else cc * pc)
            old = get(nw)
            out_terms[nw] = v if old is None else old + v
    out_terms = {w: v for w, v in out_terms.items() if v}
    if m.source is space and m.target is space:
        return Element._of(m.target, out_terms)
    return Element(m.target, out_terms)


# ---------------------------------------------------------------------------
# unshuffles


def shuffles(n: int, i: int):
    """The (i, n-i)-unshuffles of positions 0..n-1 as (left, right) tuples."""
    for left in itertools.combinations(range(n), i):
        right = tuple(p for p in range(n) if p not in left)
        yield left, right


def unshuffle(space: GradedSpace, word: Word):
    """Proper unshuffle splittings of a tensor word with graded-signature
    signs: {(left Word, right Word): sign}, both sides nonempty.  The
    trivial (n,0) and (0,n) splits never cancel anything, so the
    cocommutativity test needs only the proper ones.
    """
    if word.kind != "t":
        raise ValueError("unshuffle acts on tensor words")
    n = len(word)
    if n == 0:
        raise ValueError("empty word")
    degs = [space.degree(f) for f in word.factors]
    out: dict[tuple[Word, Word], int] = {}
    for i in range(1, n):
        for left, right in shuffles(n, i):
            lw = Word.tensor(*(word.factors[p] for p in left))
            rw = Word.tensor(*(word.factors[p] for p in right))
            sign = koszul_sign([p + 1 for p in left + right], degs)
            out[(lw, rw)] = out.get((lw, rw), 0) + sign
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# suspension


def suspend_map(m: GradedMap, source: GradedSpace, target: GradedSpace, degree: int,
                kind: str | None = None, scale=1) -> GradedMap:
    """The decalage: m carried onto spaces with the names of its own, as a
    map of `degree` on words of `kind` (m's by default).  The image of w is
    scale * suspension_sign(w in source) times m(w), each word of which is
    signed by its suspension sign in m's target.  A one-factor word has sign
    +1, so this one rule shifts co-operations (one input), brackets (one
    output) and their inverses.  On a map with one letter in and one out,
    as each retract map is, it only relabels, so the transfers read the
    retract in place."""
    kind = kind or m.in_kind
    in_deg, out_deg = source._degree, m.target._degree
    images = {}
    for w, el in m.images.items():
        c = scale * suspension_sign([in_deg[f] for f in w.factors])
        images[Word(kind, w.factors)] = Element(target, {
            v: c * suspension_sign([out_deg[f] for f in v.factors]) * x
            for v, x in el.terms.items()})
    return GradedMap(source, target, degree, images, m.arity, kind)
