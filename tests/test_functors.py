import random
from fractions import Fraction

import pytest

from helpers import (
    convolution,
    derivation_by_elements,
    dense_dual_coalgebra,
    dense_quillen_direct,
    oracle_sources,
    paper_dual,
    random_cocommutative_dgc,
    random_sullivan,
    unchecked,
)
from htcas.core import (
    AxiomError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    derivation,
    word_basis,
)
from htcas.functors import (
    CDGA,
    FiniteCDGA,
    FreeLieDGL,
    bracketing,
    cochain,
    dual_coalgebra,
    is_primitive,
    lie_bracket,
    linf_from_cdga,
    quillen,
    quillen_differential_direct,
    weight_parts,
)
from htcas.structures import (
    AInfCoalgebra,
    check_ainf,
    check_cocommutative,
    check_linf,
)
from htcas.transfer import ChainComplex, homology_decomposition, transfer_ainf, retract_from_decomposition


SOURCE = CDGA.of(
    [("a", 3), ("b", 3), ("c", 5)],
    {"c": [(1, ("a", "b"))]},
)
TARGET = CDGA.of(
    [("x", 4), ("y", 7), ("z", 10), ("t", 16)],
    {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]},
)


def test_cdga_basics():
    A = SOURCE
    assert A.is_sullivan and A.is_minimal
    a, b = (Element.make(A.gens, [(1, "m", (g,))]) for g in "ab")
    assert b.times(a) == -1 * a.times(b) == Element.make(A.gens, [(-1, "m", ("a", "b"))])
    assert not A.d(A.d(Element.make(A.gens, [(1, "m", ("c", "a"))])))
    with pytest.raises(ValueError):
        CDGA.of([("a", 3), ("e", 4)], {"e": [(1, ("a",))], "a": [(1, ())]})


def test_monomial_basis_counts():
    # exterior algebra on three odd generators: 2^3 monomials
    assert len(SOURCE.monomial_basis(100)) == 8
    # even generator contributes powers up to the degree bound
    A = CDGA.of([("u", 2)], {})
    assert len(A.monomial_basis(7)) == 4  # 1, u, u^2, u^3


def test_dual_coalgebra_reproduces_worked_example(cbar):
    B = FiniteCDGA(SOURCE, max_cohom=11)
    full = paper_dual(B, counital=True)
    red = paper_dual(B, counital=False)
    assert red.space.basis == cbar.space.basis
    for k in (1, 2):
        assert red.delta(k).images == cbar.delta(k).images
    # full coalgebra keeps the counit and stays coassociative
    assert full.counit == "unit"
    assert check_ainf(full)
    assert check_cocommutative(full)
    d2 = full.delta(2).apply_word(Word.tensor("s"))
    assert d2.coeff(Word.tensor("s", "unit")) == 1
    assert d2.coeff(Word.tensor("unit", "s")) == 1


def test_dual_coalgebra_trivial():
    B = FiniteCDGA(CDGA.of([], {}), max_cohom=0)
    full, red = (dual_coalgebra(B, counital=c) for c in (True, False))
    assert red.space.dim == 0
    assert full.space.dim == 1


def test_dual_of_random_cdgas_pass_axioms():
    rng = random.Random(23)
    for _ in range(12):
        full, red = random_cocommutative_dgc(rng)
        assert check_ainf(red)
        assert check_cocommutative(red)
        assert check_ainf(full)


def test_linf_from_cdga_pins_target_brackets(target_dgl):
    L = linf_from_cdga(TARGET)
    assert L.space.basis == target_dgl.space.basis
    assert L.ops.keys() == target_dgl.ops.keys()
    for k in L.ops:
        assert L.ops[k].images == target_dgl.ops[k].images
    # explicitly: [x',y'] = z' and [y',z'] = t' on the nose
    assert L.bracket(2, Element.gen(L.space, "x'"), Element.gen(L.space, "y'")) \
        == Element.gen(L.space, "z'")
    assert L.bracket(2, Element.gen(L.space, "y'"), Element.gen(L.space, "z'")) \
        == Element.gen(L.space, "t'")


def test_linf_from_cdga_higher_arity():
    # dw = u^4 + v^2 gives a binary and a quaternary bracket
    A = CDGA.of(
        [("u", 2), ("v", 4), ("w", 7)],
        {"w": [(1, ("u", "u", "u", "u")), (1, ("v", "v"))]},
    )
    L = linf_from_cdga(A)
    assert sorted(L.ops) == [2, 4]
    vv = L.ell(2).apply_word(Word.tensor("v'", "v'"))
    assert vv.terms == {Word.tensor("w'"): Fraction(2)}
    uuuu = L.ell(4).apply_word(Word.tensor("u'", "u'", "u'", "u'"))
    assert uuuu.terms == {Word.tensor("w'"): Fraction(24)}
    assert check_linf(L)


def test_cochain_recovers_target():
    L = linf_from_cdga(TARGET)
    A = cochain(L)
    assert A.gens.basis == TARGET.gens.basis
    assert A.diff.keys() == TARGET.diff.keys()
    for g in A.diff:
        assert A.diff[g] == TARGET.diff[g]


def test_cochain_abelian_is_zero_differential():
    sp = GradedSpace.of([("m", 3), ("n", 5)])
    from htcas.structures import LInfAlgebra

    L = LInfAlgebra(sp, {})
    A = cochain(L)
    assert not A.diff
    assert A.gens.basis == (("m", 4), ("n", 6))


def test_round_trips_random():
    rng = random.Random(31)
    done = 0
    while done < 20:
        A = random_sullivan(rng)
        if not A.diff:
            continue
        L = linf_from_cdga(A)
        A2 = cochain(L)
        assert A2.gens.basis == A.gens.basis
        assert A2.diff.keys() == A.diff.keys()
        for g in A.diff:
            assert A2.diff[g] == A.diff[g]
        L2 = linf_from_cdga(A2)
        assert L2.ops.keys() == L.ops.keys()
        for k in L.ops:
            assert L2.ops[k].images == L.ops[k].images
        done += 1


def test_cochain_d_squared_iff_jacobi():
    # corrupting one bracket breaks Jacobi exactly when d^2 breaks
    rng = random.Random(47)
    checked = 0
    while checked < 10:
        A = random_sullivan(rng)
        if not A.diff:
            continue
        L = linf_from_cdga(A)
        space = L.space
        names = list(space.names)
        rng.shuffle(names)
        corrupted = None
        for k in list(L.ops) or []:
            m = L.ops[k]
            w = next(iter(m.images))
            deg = space.word_degree(w) + k - 2
            tgt = [n for n in names if space.degree(n) == deg]
            extra = [n for n in tgt if not m.images[w].coeff(Word.tensor(n))]
            pick = (extra or tgt)[0] if tgt else None
            if pick is None:
                continue
            images = dict(m.images)
            images[w] = images[w] + Element.gen(space, pick)
            ops = dict(L.ops)
            ops[k] = GradedMap(space, space, k - 2, images, arity=k, in_kind="w")
            from htcas.structures import LInfAlgebra

            with unchecked():
                corrupted = LInfAlgebra(space, ops)
            break
        if corrupted is None:
            continue
        if check_linf(corrupted):
            cochain(corrupted)
        else:
            with pytest.raises(AxiomError, match="d\\^2 != 0"):
                cochain(corrupted)
        checked += 1


@pytest.mark.xfail(strict=True, raises=AxiomError,
                   reason="ROADMAP item 1: cochain drops the decalage word sign")
def test_cochain_of_the_worked_example_convolution():
    # check_linf accepts the convolution; cochain raises d^2 != 0 on a.b.c.z
    red = dual_coalgebra(FiniteCDGA(SOURCE, max_cohom=11), counital=False)
    conv = convolution(red, linf_from_cdga(TARGET))
    assert check_linf(conv)
    cochain(conv)


@pytest.mark.xfail(strict=True, raises=AxiomError,
                   reason="ROADMAP item 1: linf_from_cdga drops the decalage word sign")
def test_linf_from_cdga_of_a_valid_sullivan_algebra():
    # d^2 v4 = -v0^5 + v0^5 = 0, yet generalized Jacobi fails at n = 5 on v0'^5
    A = CDGA.of([("v0", 2), ("v1", 5), ("v2", 7), ("v3", 7), ("v4", 8)],
                {"v1": [(1, ("v0", "v0", "v0"))], "v3": [(-1, ("v0",) * 4)],
                 "v4": [(-1, ("v0", "v0", "v1")), (-1, ("v0", "v2")), (-1, ("v0", "v3"))]})
    assert not A.d(A.diff["v4"])
    linf_from_cdga(A)


def test_free_lie_elements():
    sp = GradedSpace.of([("a", 2), ("b", 2), ("c", 19)])
    x = Element.gen(sp, "a")
    y = Element.gen(sp, "b")
    br = lie_bracket(x, lie_bracket(x, y))
    assert is_primitive(br)
    assert bracketing(br) == 3 * br
    # a bare tensor word is not a Lie element
    assert not is_primitive(x.times(y))


def test_free_lie_dgl_checks_itself_when_built():
    sp = GradedSpace.of([("a", 2), ("b", 2), ("c", 5)])
    x, y = Element.gen(sp, "a"), Element.gen(sp, "b")
    with pytest.raises(AxiomError, match="differential of c is not a Lie element"):
        FreeLieDGL(sp, {"c": x.times(y)})
    # d c = b and d b = a: every image is a Lie element, but d^2 c = a
    sp = GradedSpace.of([("a", 1), ("b", 2), ("c", 3)])
    with pytest.raises(AxiomError, match="d\\^2 != 0 on generator c"):
        FreeLieDGL(sp, {"b": Element.gen(sp, "a"), "c": Element.gen(sp, "b")})
    # d c = a has degree 1, not 2: refused as the dgl file reader refuses it
    sp = GradedSpace.of([("a", 1), ("c", 3)])
    with pytest.raises(ValidationError, match="diff c must have degree 2, got 1"):
        FreeLieDGL(sp, {"c": Element.gen(sp, "a")})
    # a zero image is dropped, as CDGA drops one (core's Conventions)
    assert FreeLieDGL(sp, {"c": Element.zero(sp)}).diff == {}


def test_quillen_abelian_and_sphere():
    sp = GradedSpace.of([("e", 5)])
    C = AInfCoalgebra(sp, {})
    M = quillen(C)
    assert M.gens.basis == (("e", 4),)
    assert not M.diff


def test_quillen_of_transferred_equals_direct(cbar):
    cx = ChainComplex(cbar.space, cbar.delta(1))
    dec = homology_decomposition(cx)
    r = retract_from_decomposition(dec)
    H = transfer_ainf(cbar, r)
    M1 = quillen(H)
    M2 = quillen_differential_direct(cbar)
    assert M1.gens.basis == M2.gens.basis
    assert M1.diff.keys() == M2.diff.keys()
    for g in M1.diff:
        assert M1.diff[g] == M2.diff[g]
    assert M1.is_minimal and M2.is_minimal
    # the differential of w is quadratic (the bracket of the transferred
    # coproduct; the terms through s and r die since lambda kills the
    # A-part); the Massey coproduct shows up as the cubic part on u and v
    dw = M1.diff["w"]
    assert list(weight_parts(dw)) == [2]
    du = M1.diff["u"]
    assert list(weight_parts(du)) == [3]
    gens = M1.gens
    want = lie_bracket(
        Element.gen(gens, "g"),
        lie_bracket(Element.gen(gens, "g"), Element.gen(gens, "h")),
    )
    assert du == want


def test_quillen_direct_on_random_duals():
    rng = random.Random(7)
    done = 0
    while done < 8:
        _, red = random_cocommutative_dgc(rng)
        cx = ChainComplex(red.space, red.delta(1))
        dec = homology_decomposition(cx)
        r = retract_from_decomposition(dec)
        H = transfer_ainf(red, r)
        M1 = quillen(H)
        M2 = quillen_differential_direct(red)
        assert M1.diff.keys() == M2.diff.keys()
        for g in M1.diff:
            assert M1.diff[g] == M2.diff[g]
        done += 1


def test_dual_coalgebra_and_quillen_direct_match_dense_routes():
    for tag, B in oracle_sources():
        duals = [dual_coalgebra(B, counital=c) for c in (True, False)]
        for C, D in zip(duals, dense_dual_coalgebra(B)):
            assert (C.space, C.counit) == (D.space, D.counit), tag
            assert C.ops.keys() == D.ops.keys(), tag
            for k in C.ops:
                assert list(C.ops[k].images.items()) == list(D.ops[k].images.items()), (tag, k)
        red = duals[1]
        dec = homology_decomposition(ChainComplex(red.space, red.delta(1)))
        M, N = quillen_differential_direct(red), dense_quillen_direct(red, dec)
        assert M.gens == N.gens, tag
        assert M.diff == N.diff, tag


def test_quillen_reproduces_stated_cell_attachment_model():
    # a coalgebra with a single ternary co-operation whose Quillen model is
    # the free Lie algebra with de = [a,[a,b]]
    sp = GradedSpace.of([("A", 7), ("B", 7), ("E", 20)])
    img = Element.make(
        sp,
        [(1, "t", ("A", "A", "B")), (-2, "t", ("A", "B", "A")),
         (1, "t", ("B", "A", "A"))],
    )
    d3 = GradedMap(sp, sp, 1, {Word.tensor("E"): img})
    C = AInfCoalgebra(sp, {3: d3})
    assert check_cocommutative(C)
    M = quillen(C)
    gens = M.gens
    want = lie_bracket(
        Element.gen(gens, "A"),
        lie_bracket(Element.gen(gens, "A"), Element.gen(gens, "B")),
    )
    assert M.diff["E"] == want
    assert not M.diff.get("A") and not M.diff.get("B")


def test_d_tensor_matches_prefix_suffix_route(cbar):
    # the in-place derivation against the products pre d(f) post: for the
    # Quillen models, on every differential and on every tensor word of
    # length <= 2 (<= 3 on cbar), summed per degree; for random Sullivan
    # algebras, through CDGA.d on every monomial of cohomological degree
    # <= 12, alone and summed per degree
    rng = random.Random(5)
    duals = [dual_coalgebra(B, counital=False) for _, B in oracle_sources()]
    cases = []
    for C in [cbar, *duals]:
        M = quillen(C)
        els = list(M.diff.values())
        for n in (1, 2, 3) if C is cbar else (1, 2):
            by_degree = {}
            for w in word_basis(M.gens, "t", n):
                by_degree.setdefault(M.gens.word_degree(w), {})[w] = rng.choice([-2, -1, 1, 3])
            els += [Element(M.gens, terms) for terms in by_degree.values()]
        cases += [(M, el, derivation(M.diff, el)) for el in els]
    for _ in range(12):
        A = random_sullivan(rng, max_gens=5, max_degree=6)
        by_degree = {}
        for fs in A.monomial_basis(12):
            w = Word.mono(*fs)
            by_degree.setdefault(A.gens.word_degree(w), {})[w] = rng.choice([-2, -1, 1, 3])
        terms = [{w: c} for t in by_degree.values() for w, c in t.items()]
        els = [Element(A.gens, t) for t in terms + list(by_degree.values())]
        cases += [(A, el, A.d(el)) for el in els]
    nonzero = {"t": 0, "m": 0}
    for M, el, got in cases:
        assert got == derivation_by_elements(M, el)
        if got:
            nonzero[next(iter(el.terms)).kind] += 1
    assert nonzero["t"] > 20 and nonzero["m"] > 20
