import inspect
import random
import pytest
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from helpers import (
    dense_decomposition,
    dense_homology_dims,
    dense_retract,
    identity_retract,
    linf_from_tables,
    oracle_sources,
)
from htcas import linalg
from htcas.core import (
    AxiomError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    lincomb,
    word_basis,
)
from htcas.functors import CDGA, FiniteCDGA, dual_coalgebra, quillen_differential_direct
from htcas.mapping import convolution_linf, mapping_arity_cap
from htcas.structures import (
    check_ainf,
    check_cocommutative,
    check_linf,
    unshift,
)
from htcas.transfer import (
    ChainComplex,
    Decomposition,
    HomotopyRetract,
    ainf_transfer_cap,
    canonical_retract,
    hom_complex,
    hom_retract,
    hom_space,
    homology_decomposition,
    linf_transfer_cap,
    retract_from_decomposition,
    retract_recursion,
    transfer_ainf,
    transfer_linf,
)
from tree_oracles import (
    aut_order,
    enumerate_planar,
    enumerate_rooted,
    is_leaf,
    serialize,
    tree_map_coalgebra,
    tree_map_lie,
)


@pytest.fixture(scope="module")
def cbar_retract(cbar):
    cx = ChainComplex(cbar.space, cbar.delta(1))
    dec = homology_decomposition(cx)
    return dec, retract_from_decomposition(dec)


@pytest.fixture(scope="module")
def n4():
    """Reduced dual of n4 = Lambda(a3, b3, c5, e3), dc = ab, and its retract."""
    B = FiniteCDGA(CDGA.of([("a", 3), ("b", 3), ("c", 5), ("e", 3)],
                           {"c": [(1, ("a", "b"))]}), max_cohom=14)
    red = dual_coalgebra(B, counital=False)
    return red, retract_from_decomposition(
        homology_decomposition(ChainComplex(red.space, red.delta(1))))


def names_of(elements):
    return sorted(w.factors[0] for e in elements for w in e.terms)


def test_homology_decomposition_of_cbar(cbar, cbar_retract):
    dec, _ = cbar_retract
    assert names_of(dec.a_part) == ["s"]
    assert names_of(dec.complex.diff.apply(a) for a in dec.a_part) == ["r"]
    assert names_of(dec.h_part) == ["g", "h", "u", "v", "w"]


def test_decomposition_zero_differential():
    sp = GradedSpace.of([("a", 1), ("b", 2)])
    dec = homology_decomposition(ChainComplex.zero_diff(sp))
    assert not dec.a_part and names_of(dec.h_part) == ["a", "b"]


def test_decomposition_acyclic_pair():
    sp = GradedSpace.of([("b", 1), ("a", 2)])
    d = GradedMap(sp, sp, -1, {Word.tensor("a"): Element.gen(sp, "b")})
    dec = homology_decomposition(ChainComplex(sp, d))
    assert names_of(dec.a_part) == ["a"]
    assert names_of(dec.complex.diff.apply(a) for a in dec.a_part) == ["b"]
    assert not dec.h_part


def test_retract_from_decomposition(cbar, cbar_retract):
    _, r = cbar_retract
    assert r.small.space.names == ("g", "h", "u", "v", "w")
    # k(r) = s and the retract identity on r: (id - ip)(r) = r = d h(r)
    assert r.homotopy.apply_word(Word.tensor("r")) == Element.gen(cbar.space, "s")
    e_r = Element.gen(cbar.space, "r")
    lhs = e_r - r.incl.apply(r.proj.apply(e_r))
    rhs = r.big.diff.apply(r.homotopy.apply(e_r)) + r.homotopy.apply(
        r.big.diff.apply(e_r)
    )
    assert lhs == e_r and lhs == rhs


def same_map(a, b):
    """Equal images, stored in the same order, between the same spaces."""
    return ((a.source, a.target, a.degree) == (b.source, b.target, b.degree)
            and list(a.images.items()) == list(b.images.items()))


def oracle_complexes(cbar, target_dgl):
    """(label, complex) pairs the blocked decomposition is checked on."""
    cbar_cx = ChainComplex(cbar.space, cbar.delta(1))
    yield "cbar", cbar_cx
    yield "zero differential", ChainComplex.zero_diff(GradedSpace.of([("a", 1), ("b", 2)]))
    sp = GradedSpace.of([("b", 1), ("a", 2)])
    d = {Word.tensor("a"): Element.gen(sp, "b")}
    yield "acyclic pair", ChainComplex(sp, GradedMap(sp, sp, -1, d))
    # da = db = x and dc = de = z: H is u, v, w, c - e, a - b, generators by
    # index then cycle vectors by pivot, though the degree-2 block comes first
    sp = GradedSpace.of([("u", 2), ("v", 4), ("c", 4), ("e", 4), ("a", 2), ("b", 2),
                         ("x", 1), ("z", 3), ("w", 2)])
    x, z = Element.gen(sp, "x"), Element.gen(sp, "z")
    d = {Word.tensor("a"): x, Word.tensor("b"): x, Word.tensor("c"): z, Word.tensor("e"): z}
    yield "cycle vectors", ChainComplex(sp, GradedMap(sp, sp, -1, d))
    yield "hom complex", hom_complex(cbar_cx, target_dgl)
    for tag, B in oracle_sources():
        full, red = (dual_coalgebra(B, counital=c) for c in (True, False))
        yield f"{tag} full", ChainComplex(full.space, full.delta(1))
        yield f"{tag} reduced", ChainComplex(red.space, red.delta(1))


def test_blocked_decomposition_matches_dense_route(cbar, target_dgl):
    seen_cycle_vector = False
    for label, cx in oracle_complexes(cbar, target_dgl):
        dense = dense_decomposition(cx)
        dec = homology_decomposition(cx)
        assert dec.a_part == dense.a_part, label
        assert dec.h_part == dense.h_part, label
        r, rd = retract_from_decomposition(dec), dense_retract(dense)
        assert r.small.space == rd.small.space, label
        # the homology oracle: H, as the retract's small space, has the
        # dimensions the full-width ranks count, degree by degree
        assert Counter(r.small.space.degrees()) == dense_homology_dims(cx), label
        for part in ("incl", "proj", "homotopy"):
            assert same_map(getattr(r, part), getattr(rd, part)), (label, part)
        seen_cycle_vector |= any(len(h.terms) > 1 for h in dec.h_part)
    assert seen_cycle_vector


def test_retract_rejects_a_decomposition_that_does_not_span(cbar):
    dec = homology_decomposition(ChainComplex(cbar.space, cbar.delta(1)))
    dec.h_part = dec.h_part[1:]
    with pytest.raises(ValidationError, match="does not span"):
        retract_from_decomposition(dec)


def test_retract_refuses_a_zero_or_dependent_decomposition(cbar):
    # a zero element has no degree block, whichever part it is given in; it
    # is refused before the homology classes are named by their pivots
    cx = ChainComplex(cbar.space, cbar.delta(1))
    for part in ("a_part", "h_part"):
        dec = homology_decomposition(cx)
        getattr(dec, part)[0] = Element.zero(cbar.space)
        with pytest.raises(ValidationError, match=r"^decomposition does not span$"):
            retract_from_decomposition(dec)
    # as many vectors as generators in each block, but b = d(a) twice in degree 0
    space = GradedSpace.of([("a", 1), ("b", 0), ("c", 0)])
    d = GradedMap(space, space, -1, {Word.tensor("a"): Element.gen(space, "b")})
    a, b = Element.gen(space, "a"), Element.gen(space, "b")
    dec = Decomposition(ChainComplex(space, d), [a], [b])
    with pytest.raises(ValidationError, match=r"^decomposition does not span degree 0$"):
        retract_from_decomposition(dec)


def _hand_retract(big, diff, small, incl, proj, homotopy):
    """A retract from (name, degree) bases and {name: {name: coeff}} tables;
    the small complex has zero differential."""
    B, S = GradedSpace.of(big), GradedSpace.of(small)

    def table(source, target, degree, images):
        return GradedMap(source, target, degree, {
            Word.tensor(n): Element.make(target, [(c, "t", (x,)) for x, c in img.items()])
            for n, img in images.items()})

    return HomotopyRetract(ChainComplex(B, table(B, B, -1, diff)), ChainComplex.zero_diff(S),
                           table(S, B, 0, incl), table(B, S, 0, proj), table(B, B, 1, homotopy))


@pytest.mark.parametrize("big, diff, small, incl, proj, homotopy, error, message", [
    ([("x", 0)], {}, [("x'", 0)], {"x'": {"x": 1}}, {}, {},
     ValueError, "p o i is not the identity"),
    ([("x", 1), ("y", 0)], {"x": {"y": 1}}, [("x'", 1), ("y'", 0)],
     {"x'": {"x": 1}, "y'": {"y": 1}}, {"x": {"x'": 1}, "y": {"y'": 1}}, {},
     ValueError, "i is not a chain map"),
    ([("x", 0), ("y", 1)], {}, [("x'", 0)], {"x'": {"x": 1}}, {"x": {"x'": 1}},
     {"x": {"y": 1}}, ValueError, "side condition h o i = 0 fails"),
    ([("x", 0)], {}, [], {}, {}, {}, ValueError, "retract identity fails on x"),
    # p d y = z' but d p y = 0: a p that is no chain map breaks the retract
    # identity, here on z
    ([("y", 1), ("z", 0), ("w", 0)], {"y": {"z": 1}}, [("z'", 0)], {"z'": {"w": 1}},
     {"z": {"z'": 1}, "w": {"z'": 1}}, {"z": {"y": 1}}, ValueError, "retract identity fails on z"),
    ([("b", 0), ("a", 1), ("c", 1)], {"a": {"b": 1}}, [("c'", 1)], {"c'": {"c": 1}},
     {"c": {"c'": 1}}, {"b": {"a": 1, "c": 1}}, ValueError, "side condition p o h = 0 fails"),
    ([("b", 0), ("a", 1), ("e", 2)], {"a": {"b": 1}}, [], {}, {},
     {"b": {"a": 1}, "a": {"e": 1}}, ValueError, "side condition h o h = 0 fails"),
    # d^2 != 0 on a contractible complex is refused by name, not found as a
    # homology mismatch (its rank count would give -1 in degrees 1 and 2)
    ([("a", 3), ("b", 2), ("e", 1), ("g", 0)], {"a": {"b": 1}, "b": {"e": 1}, "e": {"g": 1}},
     [], {}, {}, {"b": {"a": 1}, "g": {"e": 1}}, AxiomError,
     r"d\^2 != 0 on generator a"),
])
def test_retract_check_rejects_each_broken_condition(big, diff, small, incl, proj,
                                                     homotopy, error, message):
    with pytest.raises(error, match=message) as exc:
        _hand_retract(big, diff, small, incl, proj, homotopy)
    assert exc.type is error


def test_chain_complex_refuses_d_squared_nonzero():
    # a3 -> b2 -> e1 -> g0 with d a = b, d b = e, d e = g: the first generator
    # with d(d(g)) != 0 is named, before any rank is counted
    sp = GradedSpace.of([("a", 3), ("b", 2), ("e", 1), ("g", 0)])
    gen = {n: Element.gen(sp, n) for n in sp.names}
    d = {Word.tensor(x): gen[y] for x, y in (("a", "b"), ("b", "e"), ("e", "g"))}
    with pytest.raises(AxiomError, match=r"^d\^2 != 0 on generator a$"):
        ChainComplex(sp, GradedMap(sp, sp, -1, d))
    del d[Word.tensor("a")]
    with pytest.raises(AxiomError, match=r"^d\^2 != 0 on generator b$"):
        ChainComplex(sp, GradedMap(sp, sp, -1, d))
    del d[Word.tensor("b")]
    dec = homology_decomposition(ChainComplex(sp, GradedMap(sp, sp, -1, d)))
    assert Counter(h.degree for h in dec.h_part) == {3: 1, 2: 1}


def _recursion_retract():
    """x' retracts x (+) (a -> b): p(x) = x', h(b) = a."""
    return _hand_retract([("x", 0), ("a", 1), ("b", 0)], {"a": {"b": 1}}, [("x'", 0)],
                         {"x'": {"x": 1}}, {"x": {"x'": 1}}, {"b": {"a": 1}})


def test_retract_recursion_refuses_a_substitution_without_end():
    # a substitution that asks for its own argument again meets the mark of
    # the unfinished value, and is refused before it recurses
    r = _recursion_retract()
    entered = []

    def substitute(key, el, f):
        entered.append(el)
        return f(key, "b")

    f = retract_recursion(r, r.small.space, lambda key, h: Element.gen(r.small.space, h),
                          substitute)
    with pytest.raises(ValidationError, match=r"^the recursion through the retract asks for "
                                              r"f\(None, b\) again while computing it$"):
        f(None, "b")
    assert len(entered) == 1


def test_retract_recursion_evaluates_each_key_and_element_once():
    r = _recursion_retract()
    S = r.small.space
    leaves, substitutions = Counter(), Counter()

    def leaf(key, h):
        leaves[key, h] += 1
        return Element.gen(S, h)

    def substitute(key, el, f):
        substitutions[key] += 1
        assert el == Element.gen(r.big.space, "a")  # h(b), read without a solve
        return lincomb(S, [(1, f(key, "x")), (2, f(key, "x"))])

    f = retract_recursion(r, S, leaf, substitute)
    x = Element.gen(S, "x'")
    for _ in range(2):
        for key in ("u", "v"):
            assert f(key, "b") == 3 * x
            assert f(key, "x") == x
            assert not f(key, "a")
    assert leaves == {("u", "x'"): 1, ("v", "x'"): 1}
    assert substitutions == {"u": 1, "v": 1}


def test_fixed_linear_data_is_built_once_per_degree_block(monkeypatch):
    # a work guard: at most one RREF per block for each of the kernel, the
    # cycle basis, the H choice and the block inverse;
    # the dense routes make 169 RREFs (111 of them in solves) on this input
    # and the solve-based Quillen recursion 395 more solves
    red = dual_coalgebra(dict(oracle_sources())["n5"], counital=False)
    calls = Counter()
    for fn in ("rref", "solve"):
        def counting(*args, _fn=fn, _original=getattr(linalg, fn)):
            calls[_fn] += 1
            return _original(*args)
        monkeypatch.setattr(linalg, fn, counting)
    cx = ChainComplex(red.space, red.delta(1))
    dec = homology_decomposition(cx)
    retract_from_decomposition(dec)
    assert calls["rref"] <= 4 * len(cx.blocks)
    assert calls["solve"] == 0
    calls.clear()
    quillen_differential_direct(red)
    assert calls["solve"] == 0


def test_identity_retract_transfers_identically(cbar, n4):
    # the transferred n4 coalgebra carries Delta_3: a ternary vertex
    massey = transfer_ainf(*n4)
    assert 3 in massey.ops
    for C in (cbar, massey):
        r = identity_retract(ChainComplex(C.space, C.delta(1)))
        out = transfer_ainf(C, r, max_k=4)
        assert out.ops.keys() == C.ops.keys()
        for k in C.ops:
            assert out.ops[k].images == C.ops[k].images


def summed_images(maps):
    """The nonzero images of the sum of maps of one shape, per input word."""
    assert len({(m.degree, m.arity, m.in_kind) for m in maps}) == 1
    target = maps[0].target
    words = dict.fromkeys(w for m in maps for w in m.images)
    sums = {w: lincomb(target, [(1, m.images[w]) for m in maps if w in m.images]) for w in words}
    return {w: el for w, el in sums.items() if el}


def planar_tree_sum(C, r, k):
    return summed_images([tree_map_coalgebra(t, C, r) for t in enumerate_planar(k)
                          if not is_leaf(t)])


def test_transfer_ainf_matches_planar_tree_sum(cbar, cbar_retract, n4):
    for C, r, top in ((cbar, cbar_retract[1], 4), (*n4, 6)):
        H = transfer_ainf(C, r, max_k=top)
        for k in range(2, top + 1):
            assert planar_tree_sum(C, r, k) == H.delta(k).images, k
    C, r = n4
    H = transfer_ainf(C, r)
    assert {k: len(m.images) for k, m in H.ops.items()} == {2: 6, 3: 4}
    # a DGC has no ternary vertex: every Delta'_3 image needs an internal edge
    assert tree_map_coalgebra(("*", "*", "*"), C, r).is_zero()
    binary = [tree_map_coalgebra(t, C, r) for t in enumerate_planar(3, max_arity=2)]
    assert summed_images(binary) == H.delta(3).images


def test_engine_transfers_enumerate_no_trees(monkeypatch, cbar, cbar_retract, target_dgl, n4):
    def refuse(*args, **kwargs):
        raise AssertionError("tree enumeration on the transfer path")

    monkeypatch.setattr("tree_oracles.enumerate_planar", refuse)
    monkeypatch.setattr("tree_oracles.enumerate_rooted", refuse)
    assert 3 in transfer_ainf(*n4).ops
    hr = hom_retract(cbar_retract[1], target_dgl)
    assert 3 in transfer_linf(convolution_linf(cbar, target_dgl, hr.big), hr, max_k=3).ops


def test_transfer_linf_restricted_to_words(cbar, cbar_retract, target_dgl):
    # words at the top arity keep only those images of ell'_k; the lower
    # arities, and the I values under them, are computed in full
    hr = hom_retract(cbar_retract[1], target_dgl)
    L = convolution_linf(cbar, target_dgl, hr.big)
    full = transfer_linf(L, hr, max_k=3)
    top = sorted(full.ops[3].images, key=str)
    assert len(top) > 1
    kept = top[::2] + [Word.wedge(*hr.small.space.names[:3])]
    out = transfer_linf(L, hr, max_k=3, words={3: kept})
    assert out.ops.keys() == full.ops.keys()
    assert out.ops[3].images == {w: full.ops[3].images[w] for w in top[::2]}
    for k in full.ops.keys() - {3}:
        assert out.ops[k].images == full.ops[k].images, k


def test_ainf_transfer_computes_no_arity_above_the_derived_cap(monkeypatch):
    # a work guard: a max_k above the derived cap 4 of the example1_X dual
    # prints what the derived cap prints, and unshifts the three arities
    # 2, 3 and 4, not every arity up to 50
    from htcas import transfer
    B = FiniteCDGA(CDGA.of([("a", 3), ("b", 3), ("c", 5)], {"c": [(1, ("a", "b"))]}),
                   max_cohom=11)
    C = dual_coalgebra(B, counital=False)
    r = canonical_retract(C)
    assert ainf_transfer_cap(C, r.small.space) == 4
    want = transfer_ainf(C, r)
    calls = []
    monkeypatch.setattr(transfer, "unshift", lambda *args: calls.append(1) or unshift(*args))
    got = transfer_ainf(C, r, max_k=50)
    assert len(calls) == 3
    assert got.ops.keys() == want.ops.keys()
    for k in want.ops:
        assert got.ops[k].images == want.ops[k].images, k


def test_planar_trees_above_the_derived_cap_vanish(n4):
    # the degree count behind the clamp, tree by tree: every planar tree
    # map with one leaf more than the derived cap is zero
    C, r = n4
    cap = ainf_transfer_cap(C, r.small.space)
    assert cap == 6
    trees = enumerate_planar(cap + 1)
    assert len(trees) == 903
    assert all(tree_map_coalgebra(t, C, r).is_zero() for t in trees)


def test_transfer_cap_derivation(cbar, cbar_retract, target_dgl):
    _, r = cbar_retract
    assert ainf_transfer_cap(cbar, r.small.space) == 4
    # an empty small space carries no operations: the least cap
    empty = GradedSpace.of([])
    assert ainf_transfer_cap(cbar, empty) == 2
    assert linf_transfer_cap(target_dgl, empty) == 2


# the three derived caps as each was written before they shared one rule,
# kept as the oracle: each takes the big and the small degree lists
def old_ainf_cap(big, small):
    if not small:
        return 2
    lo, hi = min(small) - 1, max(big) - 1
    if lo < 1:
        return None
    return max(2, (hi - 1) // lo) if hi >= 1 else 2


def old_linf_cap(big, small):
    if not small:
        return 2
    lo, hi = min(small) + 1, max(big) + 1
    if lo < 1:
        return None
    return max(2, (hi + 1) // lo)


def old_mapping_cap(big, small):
    if not small:
        return 2
    lo, hi = min(big), max(small)
    if lo < 2:
        return None
    return max(2, (hi - 2) // (lo - 1))


def test_caps_match_their_old_formulas():
    # 1,000 random (big, small) degree sets, small possibly empty; each cap
    # reads only the degrees of its two spaces
    rng = random.Random(11)
    seen = Counter()
    for _ in range(1000):
        big = [rng.randint(-3, 14) for _ in range(rng.randint(1, 6))]
        small = [rng.randint(-3, 14) for _ in range(rng.randint(0, 5))]
        side = SimpleNamespace(space=GradedSpace.of((f"b{i}", d) for i, d in enumerate(big)))
        h = GradedSpace.of((f"s{i}", d) for i, d in enumerate(small))
        for new, old in ((ainf_transfer_cap, old_ainf_cap), (linf_transfer_cap, old_linf_cap),
                         (mapping_arity_cap, old_mapping_cap)):
            want = old(big, small)
            assert new(side, h) == want, (new.__name__, big, small)
            seen[new.__name__, want if want is None else min(want, 3)] += 1
    # every cap meets the underivable case, the least cap and a larger one
    assert len(seen) == 9, seen


def test_massey_coproducts_of_cbar(cbar, cbar_retract):
    _, r = cbar_retract
    H = transfer_ainf(cbar, r)
    HS = H.space
    # transferred structure is a valid cocommutative A-infinity coalgebra
    assert check_ainf(H)
    assert check_cocommutative(H)
    # Delta'_1 = 0, Delta'_2 = (p (x) p) Delta i
    assert 1 not in H.ops
    d2w = H.delta(2).apply_word(Word.tensor("w"))
    assert d2w == Element.make(
        HS,
        [(1, "t", ("g", "v")), (1, "t", ("v", "g")),
         (-1, "t", ("h", "u")), (-1, "t", ("u", "h"))],
    )
    assert not H.delta(2).apply_word(Word.tensor("u"))
    assert not H.delta(2).apply_word(Word.tensor("v"))
    # the headline higher Massey coproduct
    d3u = H.delta(3).apply_word(Word.tensor("u"))
    assert d3u == Element.make(
        HS,
        [(1, "t", ("g", "g", "h")), (-2, "t", ("g", "h", "g")),
         (1, "t", ("h", "g", "g"))],
    )
    assert H.delta(3).apply_word(Word.tensor("v"))
    # nothing in arity 4 despite the cap allowing it
    assert 4 not in H.ops


def test_tree_map_coalgebra_corolla(cbar, cbar_retract):
    _, r = cbar_retract
    corolla = ("*", "*")
    tm = tree_map_coalgebra(corolla, cbar, r)
    # equals (p (x) p) o Delta o i on every generator
    for n in r.small.space.names:
        el = cbar.delta(2).apply(r.incl.apply_word(Word.tensor(n)))
        from htcas.core import tensor_apply

        want = tensor_apply([r.proj, r.proj], [1, 1], el)
        assert tm.apply_word(Word.tensor(n)) == want


def test_transfer_linf_identity_retract(target_dgl):
    r = identity_retract(ChainComplex.zero_diff(target_dgl.space))
    out = transfer_linf(target_dgl, r, max_k=2)
    assert out.ops.keys() == target_dgl.ops.keys()
    for k in target_dgl.ops:
        assert out.ops[k].images == target_dgl.ops[k].images


def test_tree_map_lie_corolla_and_sum(target_dgl):
    from fractions import Fraction

    r = identity_retract(ChainComplex.zero_diff(target_dgl.space))
    corolla = ("*", "*")
    tm = tree_map_lie(corolla, target_dgl, r)
    # symmetrization contributes k! equal terms; no 1/|Aut| in a single tree
    for w, el in target_dgl.ops[2].images.items():
        assert tm.apply_word(w) == 2 * el
    # the transferred bracket is the Aut-weighted sum over tree classes
    out = transfer_linf(target_dgl, r, max_k=2)
    for w in target_dgl.ops[2].images:
        total = sum(
            (Fraction(1, aut_order(t)) * tree_map_lie(t, target_dgl, r).apply_word(w)
             for t in enumerate_rooted(2)),
            Element.zero(target_dgl.space),
        )
        assert total == out.ops[2].apply_word(w)


def test_transfer_linf_acyclic_pair_dgl():
    space = GradedSpace.of([("x", 2), ("y", 2), ("z", 4), ("t", 5)])
    L = linf_from_tables(
        space, {1: {("t",): [(1, "z")]}, 2: {("x", "y"): [(1, "z")]}}
    )
    cx = ChainComplex(space, L.ell(1))
    r = retract_from_decomposition(homology_decomposition(cx))
    assert r.small.space.names == ("x", "y")
    out = transfer_linf(L, r, max_k=3)
    assert check_linf(out)
    # p kills z, and no tree survives at arity 3 either
    assert not out.ops


def test_hom_space_table(cbar_retract, target_dgl):
    _, r = cbar_retract
    hs = hom_space(r.small.space, target_dgl.space)
    by_deg: dict[int, int] = {}
    for n, d in hs.basis:
        by_deg[d] = by_deg.get(d, 0) + 1
    assert by_deg == {
        -8: 1, -5: 3, -2: 3, 0: 2, 1: 2, 3: 2, 4: 1, 6: 2, 7: 2, 12: 2
    }
    assert hs.degree("w.x'") == -8


def test_hom_retract_valid(cbar_retract, target_dgl):
    _, r = cbar_retract
    hr = hom_retract(r, target_dgl)
    assert hr.small.space.dim == 20
    assert hr.big.space.dim == 28
    # differentials: target has ell_1 = 0, so the small complex is zero
    assert hr.small.diff.is_zero()
    # k*(f) = (-1)^{|f|} f o k: only maps defined on s = k(r) survive
    assert not hr.homotopy.apply_word(Word.tensor("u.x'"))
    img = hr.homotopy.apply_word(Word.tensor("s.x'"))  # degree -3, odd
    assert img == Element.make(hr.big.space, [(-1, "t", ("r.x'",))])


def ternary_vertex():
    """A positively graded L and its retract, on which ell_3(h ell_2(a, b),
    c, d) is the only nonzero composite: a ternary root whose first child is
    the binary vertex, joined by h(v) = u."""
    space = GradedSpace.of([("a", 2), ("b", 2), ("c", 2), ("d", 2),
                            ("v", 4), ("u", 5), ("e", 10)])
    L = linf_from_tables(space, {
        1: {("u",): [(1, "v")]},
        2: {("a", "b"): [(1, "v")]},
        3: {("u", "c", "d"): [(1, "e")]},
    })
    return L, retract_from_decomposition(homology_decomposition(ChainComplex(space, L.ell(1))))


def test_transfer_linf_ternary_vertex_with_internal_edge():
    L, r = ternary_vertex()
    assert r.small.space.names == ("a", "b", "c", "d", "e")
    out = transfer_linf(L, r, max_k=4)
    w = Word.wedge("a", "b", "c", "d")
    e = Element.gen(r.small.space, "e")
    assert out.ell(4).apply_word(w) == -e
    assert out.ell(4).images.keys() == {w}
    # the Aut-weighted tree sum agrees; only ((**)**) contributes, -4e / 4
    tree_values = {serialize(t): tree_map_lie(t, L, r).apply_word(w)
                   for t in enumerate_rooted(4)}
    assert tree_values["((**)**)"] == -4 * e
    assert all(not v for s, v in tree_values.items() if s != "((**)**)")
    total = sum((Fraction(1, aut_order(t)) * tree_values[serialize(t)]
                 for t in enumerate_rooted(4)), Element.zero(r.small.space))
    assert total == out.ell(4).apply_word(w)


def test_transfer_linf_quaternary_root_matches_the_tree_sum():
    # ell_4(a, h ell_2(b, d), c, f) is the only nonzero composite: at arity 5
    # the root has four blocks, and the one of them that spans two positions,
    # b and d, is neither first nor contiguous in the word a b c d f
    space = GradedSpace.of([("a", 2), ("b", 2), ("c", 2), ("d", 2), ("f", 2),
                            ("v", 4), ("u", 5), ("e", 13)])
    L = linf_from_tables(space, {
        1: {("u",): [(1, "v")]},
        2: {("b", "d"): [(1, "v")]},
        4: {("a", "u", "c", "f"): [(1, "e")]},
    })
    r = retract_from_decomposition(homology_decomposition(ChainComplex(space, L.ell(1))))
    assert r.small.space.names == ("a", "b", "c", "d", "f", "e")
    out = transfer_linf(L, r)
    assert out.ops.keys() == {5}
    w = Word.wedge("a", "b", "c", "d", "f")
    assert out.ell(5).images.keys() == {w}
    assert out.ell(5).apply_word(w)
    trees = enumerate_rooted(5)
    tree_maps = [(Fraction(1, aut_order(t)), tree_map_lie(t, L, r)) for t in trees]
    for word in word_basis(r.small.space, "w", 5):
        total = sum((c * m.apply_word(word) for c, m in tree_maps),
                    Element.zero(r.small.space))
        assert total == out.ell(5).apply_word(word), word


def test_derived_linf_cap_keeps_every_bracket():
    # B'_k has degree -1, so a nonzero ell'_k needs k * lo - 1 <= hi with lo
    # = 3 and hi = 11 here: the derived cap is (hi + 1) // lo = 4, and it
    # must reach the ell'_4(a, b, c, d) = -e that max_k=4 finds
    L, r = ternary_vertex()
    assert linf_transfer_cap(L, r.small.space) == 4
    derived, capped = transfer_linf(L, r), transfer_linf(L, r, max_k=4)
    assert derived.ops.keys() == capped.ops.keys() == {4}
    assert same_map(derived.ell(4), capped.ell(4))


def test_transfer_ainf_checks_few_elements(monkeypatch):
    # a work guard: sums, scalings, map applications and tensor evaluations
    # build their results without the homogeneity scan of Element(...),
    # which the transfer used to pay 16,376 times on this input
    red = dual_coalgebra(dict(oracle_sources())["n5"], counital=False)
    r = retract_from_decomposition(homology_decomposition(ChainComplex(red.space, red.delta(1))))
    calls = Counter()
    original = Element.__init__

    def counting(self, *args, **kwargs):
        calls["init"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counting)
    H = transfer_ainf(red, r)
    assert 3 in H.ops
    assert calls["init"] <= 2000


def test_transfer_ainf_evaluates_each_arity_and_element_once(monkeypatch):
    # a work guard for the memo: h is applied to a basis element y only to
    # evaluate G(m, y), once per arity m; the pair is read off the arguments
    # of the caller of h
    red = dual_coalgebra(dict(oracle_sources())["n5"], counital=False)
    r = retract_from_decomposition(homology_decomposition(ChainComplex(red.space, red.delta(1))))
    calls = Counter()

    class CountingHomotopy:
        def __init__(self, h):
            self.h = h

        def apply_word(self, w):
            frame = inspect.getargvalues(inspect.currentframe().f_back)
            calls[tuple(frame.locals[a] for a in frame.args)] += 1
            return self.h.apply_word(w)

    monkeypatch.setattr(r, "homotopy", CountingHomotopy(r.homotopy))
    H = transfer_ainf(red, r)
    monkeypatch.undo()
    assert all(same_map(m, H.ops[k]) for k, m in transfer_ainf(red, r).ops.items())
    assert calls and max(calls.values()) == 1
    assert {m for m, _ in calls} == set(range(2, ainf_transfer_cap(red, r.small.space)))
    assert {y for _, y in calls} <= set(red.space.names)
