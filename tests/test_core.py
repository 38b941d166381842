import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coords, symmetrize, tensor_map
from htcas.core import (
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    apply_at,
    canonical_word,
    derived_names,
    frac,
    from_coords,
    koszul_sign,
    shuffles,
    substituted_words,
    suspension_sign,
    tensor_apply,
    unshuffle,
    word_basis,
)


def test_one_space_object_per_basis():
    pairs = (("a", 1), ("b", 2))
    S = GradedSpace.of(pairs)
    assert GradedSpace.of(list(pairs)) is S
    for k in (1, -3):
        assert S.suspend(k).suspend(-k) is S
    with pytest.raises(ValidationError, match="duplicate"):
        GradedSpace.of([("a", 1), ("a", 2)])
    # a space nobody references is freed
    ref = weakref.ref(GradedSpace.of([("only_here", 7)]))
    gc.collect()
    assert ref() is None


def test_repeated_names_are_named():
    # a hand-built space names the repeat; a derived basis names both keys
    with pytest.raises(ValidationError, match=r"^duplicate basis name 'b'$"):
        GradedSpace.of([("a", 1), ("b", 1), ("c", 2), ("b", 3)])
    assert derived_names([("a", "b"), ("b", "c")], ".".join, "pairs") == ["a.b", "b.c"]
    with pytest.raises(ValidationError, match=r"^basis name 'a\.b\.c' is given to both "
                                              r"pairs \(a, b\.c\) and \(a\.b, c\)$"):
        derived_names([("a", "b.c"), ("a.b", "c")], ".".join, "pairs")
    with pytest.raises(ValidationError, match=r"^basis name 'x' is given to both names x and x'$"):
        derived_names(["x", "x'"], lambda n: n.rstrip("'"), "names")


def test_both_hom_builds_share_one_space(cbar, target_dgl):
    from htcas.mapping import convolution_linf
    from htcas.transfer import canonical_retract, hom_complex, hom_retract

    r = canonical_retract(cbar)
    hr = hom_retract(r, target_dgl)
    assert hr.big.space is hom_complex(r.big, target_dgl).space
    assert convolution_linf(cbar, target_dgl, hr.big).space is hr.big.space
    # the convolution refuses a complex that is not Hom(C, L)
    with pytest.raises(ValueError, match="Hom\\(C, L\\)"):
        convolution_linf(cbar, target_dgl, hr.small)


def test_koszul_sign_examples():
    assert koszul_sign([2, 1], [3, 3]) == 1
    assert koszul_sign([1, 2, 3], [5, 2, 7]) == 1
    assert koszul_sign([2, 1], [2, 3]) == -1


def test_koszul_sign_input_errors():
    with pytest.raises(ValueError):
        koszul_sign([1, 2], [3])
    with pytest.raises(ValueError):
        koszul_sign([1, 1], [2, 2])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_koszul_sign_is_multiplicative(n, data):
    degs = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    perms = list(itertools.permutations(range(1, n + 1)))
    sigma = list(data.draw(st.sampled_from(perms)))
    tau = list(data.draw(st.sampled_from(perms)))
    # composite rearrangement: first tau, then sigma acting on the result
    comp = [tau[s - 1] for s in sigma]
    permuted = [degs[t - 1] for t in tau]
    assert koszul_sign(comp, degs) == koszul_sign(tau, degs) * koszul_sign(
        sigma, permuted
    )


SP = GradedSpace.of([("g", 3), ("h", 3), ("r", 5), ("s", 6)])


def test_canonical_wedge_order_and_sign():
    # r (deg 5) before s (deg 6); swapping odd/even flips graded signature
    w, s = canonical_word(SP, "w", ("s", "r"))
    assert w == Word.wedge("r", "s") and s == -1
    # two odds swap with graded signature +1
    w, s = canonical_word(SP, "w", ("h", "g"))
    assert w == Word.wedge("g", "h") and s == 1


def test_wedge_and_monomial_kill_rules():
    # wedge: repeated even-degree factor dies, repeated odd survives
    assert canonical_word(SP, "w", ("s", "s")) == (None, 0)
    assert canonical_word(SP, "w", ("g", "g"))[0] == Word.wedge("g", "g")
    # monomial: repeated odd dies, repeated even survives
    assert canonical_word(SP, "m", ("g", "g")) == (None, 0)
    assert canonical_word(SP, "m", ("s", "s"))[0] == Word.mono("s", "s")


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        fs = tuple(rng.choice(SP.names) for _ in range(rng.randint(1, 4)))
        for kind in ("w", "m"):
            w, s = canonical_word(SP, kind, fs)
            if w is None:
                continue
            w2, s2 = canonical_word(SP, kind, w.factors)
            assert w2 == w and s2 == 1


def test_substituted_words():
    # one tuple from each pool, concatenated, canonicalized, deduplicated in
    # first-found order: (s, r) and (r, s) are one wedge word, and (s, s)
    # is zero
    pool_lists = [[[("s",), ("r",)], [("r",), ("s",), ("g", "h")]],
                  [[("h",)], [("g",)]]]
    assert substituted_words(SP, "w", pool_lists) == [
        Word.wedge("r", "s"), Word.wedge("g", "h", "s"), Word.wedge("r", "r"),
        Word.wedge("g", "h", "r"), Word.wedge("g", "h")]
    assert substituted_words(SP, "w", pool_lists, length=3) == [
        Word.wedge("g", "h", "s"), Word.wedge("g", "h", "r")]
    # a repeated even factor kills a wedge word, a repeated odd one a monomial
    assert substituted_words(SP, "w", [[[("s",)], [("s",), ("g",)]]]) == [Word.wedge("g", "s")]
    assert substituted_words(SP, "m", [[[("g",)], [("g",), ("s",)]]]) == [Word.mono("g", "s")]
    # an empty tuple drops its factor; an empty pool yields nothing
    assert substituted_words(SP, "w", [[[(), ("g",)], [("h",)]]], length=1) == [Word.wedge("h")]
    assert substituted_words(SP, "w", [[[("g",)], []]]) == []
    assert substituted_words(SP, "w", []) == []


def test_element_homogeneity_enforced():
    with pytest.raises(ValueError):
        Element(SP, {Word.tensor("g"): Fraction(1), Word.tensor("r"): Fraction(1)})
    # the paths that build results without a scan refuse the same inputs
    g, r = Element.gen(SP, "g"), Element.gen(SP, "r")
    with pytest.raises(ValidationError, match=r"inhomogeneous element: degrees \[3, 5\]"):
        g + r
    with pytest.raises(ValidationError, match="inhomogeneous"):
        g - g + g + r
    with pytest.raises(ValidationError, match="inhomogeneous"):
        Element.make(SP, [(1, "t", ("g",)), (2, "t", ("h", "s"))])
    with pytest.raises(ValidationError, match="expected 3"):
        GradedMap(SP, SP, 0, {Word.tensor("g"): r})
    # r has degree 3 in this other space object, like g, but a sum in SP
    # measures it in SP
    other = GradedSpace.of([("g", 3), ("r", 3)])
    r3 = Element.gen(other, "r")
    assert r3.degree == g.degree
    with pytest.raises(ValidationError, match="inhomogeneous"):
        g + r3
    with pytest.raises(ValidationError, match="inhomogeneous"):
        GradedMap.identity(SP).apply(Element.gen(other, "g") + r3)
    # cancellation leaves the partial sum empty, so a new degree may follow
    assert g - g + r == r


def test_word_equality_and_hash():
    built = [
        Word("t", ("g", "h")),
        Word(kind="t", factors=("g", "h")),
        Word.tensor("g", "h"),
        Word.tensor(*["g", "h"]),
        canonical_word(SP, "t", ["g", "h"])[0],
        next(iter(Element.make(SP, [(1, "t", ("g", "h"))]).terms)),
    ]
    for w in built:
        assert w == built[0] and hash(w) == hash(built[0])
        assert {built[0]: 1}[w] == 1
    assert canonical_word(SP, "w", ("s", "r"))[0] == Word.wedge("r", "s")
    assert hash(canonical_word(SP, "w", ("s", "r"))[0]) == hash(Word.wedge("r", "s"))
    assert Word("t", ("a",)) != Word("w", ("a",))
    assert Word.wedge("g", "h") != Word.mono("g", "h")
    assert Word.tensor("g", "h") != Word.tensor("h", "g")
    assert Word.tensor("g") != ("t", ("g",))
    assert len({Word("t", ("a",)), Word("w", ("a",)), Word("m", ("a",))}) == 3
    assert repr(Word.tensor("g", "h")) == "g|h" and repr(Word.wedge("g", "h")) == "g^h"
    assert repr(Word.mono()) == "1"


def test_element_arithmetic_round_trip():
    e = Element.make(SP, [(1, "t", ("g", "r")), (-2, "t", ("r", "g"))])
    f = Element.make(SP, [(Fraction(1, 2), "t", ("g", "r"))])
    g = e + f - f
    assert g == e
    assert (-1) * e + e == Element.zero(SP)
    words = word_basis(SP, "t", 2)
    assert from_coords(SP, words, coords(e, words)) == e


def test_product_on_wedge_and_monomial_words():
    # x y is Element.make of the concatenation, with the sorting sign, and it
    # is zero exactly when a factor repeats with self-transposition sign -1:
    # an odd factor of a monomial word, an even factor of a wedge word; a
    # length-1 tensor word doubles as a generator of either kind
    rng = random.Random(3)
    killed = {"m": 1, "w": 0}
    for kind in ("w", "m"):
        words = [w for n in range(3) for w in word_basis(SP, kind, n)]
        zeros = 0
        for w1, w2 in itertools.product(words, repeat=2):
            c1, c2 = rng.choice([-2, -1, 1, Fraction(1, 3)]), rng.choice([-1, 1, 3])
            x, y = Element(SP, {w1: c1}), Element(SP, {w2: c2})
            fs = w1.factors + w2.factors
            got = x.times(y)
            assert got == Element.make(SP, [(c1 * c2, kind, fs)])
            dead = any(fs.count(f) > 1 and SP.degree(f) % 2 == killed[kind] for f in fs)
            assert (not got) == dead, (w1, w2)
            zeros += dead
            if len(w1) == 1:
                assert Element.gen(SP, w1.factors[0]).times(y) == Element.make(SP, [(c2, kind, fs)])
        assert zeros
    # bilinear on sums: odd factors commute in wedge words, so (gh + 2 hg) s = 3 ghs
    x = Element.make(SP, [(1, "w", ("g", "h")), (2, "w", ("h", "g"))])
    assert x.times(Element.make(SP, [(1, "w", ("s",))])) == Element.make(SP, [(3, "w", ("g", "h", "s"))])


def test_tensor_map_examples():
    # delta: s -> r, degree -1
    delta = GradedMap(SP, SP, -1, {Word.tensor("s"): Element.gen(SP, "r")})
    ident = GradedMap.identity(SP)
    g_s = Element.make(SP, [(1, "t", ("g", "s"))])
    s_g = Element.make(SP, [(1, "t", ("s", "g"))])
    # (id (x) delta)(g (x) s) = -(g (x) r)
    out = tensor_apply([ident, delta], [1, 1], g_s)
    assert out == Element.make(SP, [(-1, "t", ("g", "r"))])
    # (id (x) id) is the identity
    assert tensor_apply([ident, ident], [1, 1], g_s) == g_s
    # (delta (x) id)(s (x) g) = r (x) g, no sign
    out = tensor_apply([delta, ident], [1, 1], s_g)
    assert out == Element.make(SP, [(1, "t", ("r", "g"))])


def test_tensor_map_materialized_matches_apply():
    delta = GradedMap(SP, SP, -1, {Word.tensor("s"): Element.gen(SP, "r")})
    ident = GradedMap.identity(SP)
    tm = tensor_map([ident, delta])
    for w in word_basis(SP, "t", 2):
        el = Element(SP, {w: Fraction(1)})
        assert tm.apply(el) == tensor_apply([ident, delta], [1, 1], el)


def test_tensor_map_respects_composition_with_koszul_sign():
    rng = random.Random(3)
    names = SP.names

    def random_map(deg):
        images = {}
        for n in names:
            targets = [m for m in names if SP.degree(m) == SP.degree(n) + deg]
            if targets and rng.random() < 0.8:
                images[Word.tensor(n)] = Element.make(
                    SP, [(rng.randint(-2, 2), "t", (rng.choice(targets),))]
                )
        return GradedMap(SP, SP, deg, images)

    for _ in range(20):
        df, dg, dfp, dgp = (rng.choice([-1, 0, 1]) for _ in range(4))
        f, g, fp, gp = random_map(df), random_map(dg), random_map(dfp), random_map(dgp)
        sign = -1 if (dg % 2 and dfp % 2) else 1
        for w in word_basis(SP, "t", 2):
            el = Element(SP, {w: Fraction(1)})
            lhs = tensor_apply([f, g], [1, 1], tensor_apply([fp, gp], [1, 1], el))
            ff = GradedMap(SP, SP, df + dfp, {u: f.apply(e) for u, e in fp.images.items()})
            gg = GradedMap(SP, SP, dg + dgp, {u: g.apply(e) for u, e in gp.images.items()})
            rhs = sign * tensor_apply([ff, gg], [1, 1], el)
            assert lhs == rhs


def _random_map(rng, deg, arity, out_len):
    """A random map of SP of the given degree from words of length `arity`
    to sums of words of length `out_len`."""
    outs = word_basis(SP, "t", out_len)
    images = {}
    for w in word_basis(SP, "t", arity):
        targets = [u for u in outs if SP.word_degree(u) == SP.word_degree(w) + deg]
        if targets and rng.random() < 0.8:
            picked = rng.sample(targets, min(2, len(targets)))
            images[w] = Element(SP, {u: rng.choice([-2, -1, 1, 3]) for u in picked})
    return GradedMap(SP, SP, deg, images, arity=arity)


def test_apply_at_matches_identity_padded_tensor_apply():
    # (id^pos (x) m (x) id^rest) three ways: in place, through tensor_apply
    # with identity slots, and through the materialized tensor product
    rng = random.Random(11)
    ident = GradedMap.identity(SP)
    by_degree = {}
    for w in word_basis(SP, "t", 3):
        by_degree.setdefault(SP.word_degree(w), []).append(w)
    shapes = [(-1, 1, 1), (0, 1, 1), (1, 1, 1), (0, 1, 2), (1, 1, 2), (-1, 2, 1), (0, 2, 1)]
    parities = set()
    for deg, arity, out_len in shapes:
        m = _random_map(rng, deg, arity, out_len)
        assert m.images, (deg, arity, out_len)
        for pos in range(4 - arity):
            rest = 3 - arity - pos
            slots = [ident] * pos + [m] + [ident] * rest
            arities = [1] * pos + [arity] + [1] * rest
            dense = tensor_map(slots)
            for words in by_degree.values():
                el = Element(SP, {w: rng.choice([-1, 1, 2]) for w in
                                  rng.sample(words, min(3, len(words)))})
                got = apply_at(m, pos, el)
                assert got == tensor_apply(slots, arities, el) == dense.apply(el)
                if got:
                    parities.add((deg % 2, pos))
    assert {(p, pos) for p in (0, 1) for pos in range(3)} <= parities
    # the threading sign of an odd map past an odd prefix
    delta = GradedMap(SP, SP, -1, {Word.tensor("s"): Element.gen(SP, "r")})
    g_s = Element.make(SP, [(1, "t", ("g", "s"))])
    assert apply_at(delta, 1, g_s) == Element.make(SP, [(-1, "t", ("g", "r"))])
    assert apply_at(delta, 0, Element.make(SP, [(1, "t", ("s", "g"))])) == Element.make(
        SP, [(1, "t", ("r", "g"))])
    with pytest.raises(ValueError):
        apply_at(delta, 2, g_s)


def test_scalars_are_ints_or_fractions():
    assert frac(3) == 3 and type(frac(3)) is int
    assert frac(Fraction(4, 2)) == 2 and type(frac(Fraction(4, 2))) is int
    assert frac("2/2") == 1 and type(frac("2/2")) is int
    assert frac("-6/4") == Fraction(-3, 2) and type(frac("-6/4")) is Fraction
    for bad in (0.5, 1.0):
        with pytest.raises(TypeError):
            frac(bad)
        with pytest.raises(TypeError):
            Element.make(SP, [(bad, "t", ("g",))])
        with pytest.raises(TypeError):
            bad * Element.gen(SP, "g")
    # int and Fraction coefficients of one value are one element
    assert Element(SP, {Word.tensor("g"): 2}) == Element(SP, {Word.tensor("g"): Fraction(2)})


def test_unshuffle_small_cases():
    # n=1: no proper split
    assert unshuffle(SP, Word.tensor("g")) == {}
    with pytest.raises(ValueError):
        unshuffle(SP, Word.tensor())


def test_unshuffle_n2_brute_force():
    # even-degree letters: proper part is x(x)y + y(x)x off-diagonal pattern
    sp = GradedSpace.of([("a", 2), ("b", 4)])
    out = unshuffle(sp, Word.tensor("a", "b"))
    assert out[(Word.tensor("a"), Word.tensor("b"))] == 1
    assert out[(Word.tensor("b"), Word.tensor("a"))] == -1
    assert len(out) == 2
    # both odd: the swap picks up signature times Koszul = +1
    out = unshuffle(SP, Word.tensor("g", "h"))
    assert out == {
        (Word.tensor("g"), Word.tensor("h")): 1,
        (Word.tensor("h"), Word.tensor("g")): 1,
    }


def test_unshuffle_signs_count_inversions():
    # every proper unshuffle up to length 6 under every parity pattern,
    # against a brute-force count of the inversions of left + right
    for n in range(1, 7):
        for parities in itertools.product((0, 1), repeat=n):
            space = GradedSpace.of([(f"x{p}", 2 + odd) for p, odd in enumerate(parities)])
            splits = unshuffle(space, Word.tensor(*space.names))
            assert len(splits) == 2 ** n - 2
            for i in range(1, n):
                for left, right in shuffles(n, i):
                    perm = left + right
                    inv = [(a, b) for x, a in enumerate(perm) for b in perm[x + 1:] if a > b]
                    odd = sum(parities[a] * parities[b] for a, b in inv)
                    one_based = [p + 1 for p in perm]
                    assert koszul_sign(one_based, parities, signature=False) == (-1) ** odd
                    assert koszul_sign(one_based, parities) == (-1) ** (len(inv) + odd)
                    key = (Word.tensor(*(space.names[p] for p in left)),
                           Word.tensor(*(space.names[p] for p in right)))
                    assert splits[key] == (-1) ** (len(inv) + odd)


def test_symmetrize_counts_and_signs():
    # k=1
    assert symmetrize(SP, Word.wedge("g")) == Element.gen(SP, "g")
    # k=2 both even: transposing two even symbols has graded signature -1
    sp = GradedSpace.of([("a", 2), ("b", 4)])
    out = symmetrize(sp, Word.wedge("a", "b"))
    assert out == Element.make(sp, [(1, "t", ("a", "b")), (-1, "t", ("b", "a"))])
    # k=2 both odd: graded signature of the swap is +1
    out = symmetrize(SP, Word.wedge("g", "h"))
    assert out == Element.make(SP, [(1, "t", ("g", "h")), (1, "t", ("h", "g"))])


def test_symmetrize_well_defined_on_wedge_relations():
    # symmetrize(v2 ^ v1) must match the wedge sorting sign
    for names in (("r", "s"), ("g", "h"), ("g", "s")):
        a, b = names
        w, s = canonical_word(SP, "w", (b, a))
        lhs = symmetrize(SP, Word("w", (b, a)))
        rhs = s * symmetrize(SP, w)
        assert lhs == rhs


def test_symmetrize_term_count_distinct_factors():
    out = symmetrize(SP, Word.wedge("g", "r", "s"))
    assert len(out.terms) == 6
    out = symmetrize(SP, Word.mono("r", "s"), signature=False)
    assert len(out.terms) == 2


def test_suspension_sign():
    assert suspension_sign([3]) == 1
    assert suspension_sign([3, 4]) == -1  # first factor hops one symbol
    assert suspension_sign([2, 5]) == 1
