import random

import pytest

from htcas.core import Element, GradedMap, GradedSpace, Word, word_basis
from htcas.functors import CDGA, FiniteCDGA, dual_coalgebra, linf_from_cdga
from htcas.mapping import convolution_linf
from htcas.structures import (
    AInfCoalgebra,
    LInfAlgebra,
    _candidate_words,
    _jacobi_total,
    check_ainf,
    check_ainf_shifted,
    check_cocommutative,
    check_linf,
    check_linf_shifted,
    dgc_from_tables,
    iterated_coproduct,
    linf_from_tables,
    mc_check,
    mc_residual,
    perturb,
    truncate,
)


def test_cbar_is_a_valid_cocommutative_dgc(cbar):
    assert check_ainf(cbar)
    assert check_ainf_shifted(cbar)
    assert check_cocommutative(cbar)
    assert cbar.is_dgc and cbar.max_arity == 2


def test_broken_coproduct_detected(cbar):
    space = cbar.space
    cop = {"s": [(1, ("g", "h"))]}  # one term only: not cocommutative
    C = dgc_from_tables(space, {}, cop, validate=False)
    assert check_ainf(C)  # still coassociative and compatible
    rep = check_cocommutative(C)
    assert not rep and "Delta_2(s)" in rep.where


def test_broken_compatibility_detected(cbar):
    space = cbar.space
    # flipping one sign in Delta(w) breaks compatibility with ds = r
    C = dgc_from_tables(
        space,
        {"s": [(1, "r")]},
        {
            "s": [(1, ("g", "h")), (-1, ("h", "g"))],
            "w": [(1, ("s", "r")), (-1, ("r", "s"))],
        },
        validate=False,
    )
    rep = check_ainf(C)
    assert not rep
    rep2 = check_ainf_shifted(C)
    assert not rep2


def test_literal_and_shifted_ainf_checkers_agree(cbar):
    rng = random.Random(11)
    space = cbar.space
    names = space.names
    for trial in range(20):
        diff = {}
        cop = {}
        for n in names:
            tgt = [m for m in names if space.degree(m) == space.degree(n) - 1]
            if tgt and rng.random() < 0.5:
                diff[n] = [(rng.randint(-2, 2), rng.choice(tgt))]
            pairs = [
                (a, b)
                for a in names
                for b in names
                if space.degree(a) + space.degree(b) == space.degree(n)
            ]
            if pairs and rng.random() < 0.5:
                cop[n] = [(rng.randint(-2, 2), rng.choice(pairs))]
        C = dgc_from_tables(space, diff, cop, validate=False)
        assert bool(check_ainf(C)) == bool(check_ainf_shifted(C))


def test_iterated_coproduct(cbar):
    d0 = iterated_coproduct(cbar, 0)
    assert d0.apply_word(Word.tensor("w")) == Element.gen(cbar.space, "w")
    d1 = iterated_coproduct(cbar, 1)
    assert d1.apply_word(Word.tensor("w")) == cbar.delta(2).apply_word(Word.tensor("w"))
    # length-2 iterates on this coalgebra vanish except on w
    d2 = iterated_coproduct(cbar, 2)
    for g in ("g", "h", "r", "s", "u", "v"):
        assert not d2.apply_word(Word.tensor(g))
    assert d2.apply_word(Word.tensor("w"))
    # and length 3 vanishes identically
    d3 = iterated_coproduct(cbar, 3)
    for g in cbar.space.names:
        assert not d3.apply_word(Word.tensor(g))


def test_iterated_coproduct_rejects_genuine_ainf(cbar):
    space = GradedSpace.of([("a", 2), ("b", 2), ("c", 2), ("e", 5)])
    d3 = GradedMap(
        space, space, 1,
        {Word.tensor("e"): Element.make(space, [(1, "t", ("a", "b", "c"))])},
        1, "t",
    )
    C = AInfCoalgebra(space, {3: d3}, validate=False)
    with pytest.raises(ValueError):
        iterated_coproduct(C, 2)


def test_target_dgl_valid(target_dgl):
    assert check_linf(target_dgl)
    assert check_linf_shifted(target_dgl)
    assert target_dgl.is_minimal


def test_classical_dgl_and_mutation():
    space = GradedSpace.of([("x", 2), ("y", 2), ("w", 3), ("z", 4), ("t", 5)])
    good = linf_from_tables(
        space,
        {1: {("t",): [(1, "z")]}, 2: {("x", "y"): [(1, "z")]}},
    )
    assert check_linf(good)
    # dz = w breaks the Leibniz rule against [x,y] = z
    bad = linf_from_tables(
        space,
        {1: {("z",): [(1, "w")]}, 2: {("x", "y"): [(1, "z")]}},
        validate=False,
    )
    rep = check_linf(bad)
    assert not rep and "n=2" in rep.where
    assert not check_linf_shifted(bad)


def test_literal_and_shifted_linf_checkers_agree():
    rng = random.Random(5)
    space = GradedSpace.of([("a", 1), ("b", 2), ("c", 3), ("e", 4), ("f", 6)])
    names = space.names
    for trial in range(25):
        table: dict[int, dict] = {1: {}, 2: {}, 3: {}}
        for k in (1, 2, 3):
            for fs in [tuple(rng.choice(names) for _ in range(k)) for _ in range(3)]:
                deg = sum(space.degree(f) for f in fs) + k - 2
                tgt = [m for m in names if space.degree(m) == deg]
                if tgt and rng.random() < 0.7:
                    table[k][fs] = [(rng.randint(-2, 2), rng.choice(tgt))]
        try:
            L = linf_from_tables(space, table, validate=False)
        except ValueError:
            continue
        assert bool(check_linf(L)) == bool(check_linf_shifted(L))


def _n4_convolution():
    # Hom(C, L) of dim 60: C the reduced dual of n4 = Lambda(a3, b3, c5, e3),
    # dc = ab; L the homotopy L-infinity algebra of example1_Y
    B = FiniteCDGA(CDGA.of([("a", 3), ("b", 3), ("c", 5), ("e", 3)],
                           {"c": [(1, ("a", "b"))]}), max_cohom=14)
    A = CDGA.of([("x", 4), ("y", 7), ("z", 10), ("t", 16)],
                {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]})
    return convolution_linf(dual_coalgebra(B)[1], linf_from_cdga(A))


def test_jacobi_candidates_are_exhaustive():
    conv = _n4_convolution()
    ops = {}
    for k, m in conv.ops.items():
        images = dict(m.images)
        first = next(iter(images))
        images[first] = 2 * images[first]
        ops[k] = GradedMap(m.source, m.target, m.degree, images, m.arity, m.in_kind)
    bad = LInfAlgebra(conv.space, ops, validate=False)
    assert sorted(ops) == [1, 2]

    nonzero = 0
    for n in (1, 2, 3):
        cands = set(_candidate_words(bad.space, bad.ops, n, "w"))
        for w in word_basis(bad.space, "w", n):
            if _jacobi_total(bad.ops, bad.space, w.factors, n, True):
                nonzero += 1
                assert w in cands, (n, w)
    assert nonzero
    assert not check_linf(bad)
    assert not check_linf_shifted(bad)


def test_jacobi_candidate_count_on_n4_convolution():
    # the dense pairing of every support word with every outer support
    # word less one factor gave 3,824 words here
    conv = _n4_convolution()
    counts = [len(_candidate_words(conv.space, conv.ops, n, "w")) for n in (1, 2, 3)]
    assert counts == [0, 10, 30]
    assert check_linf(conv) and check_linf_shifted(conv)


def test_mc_zero_and_failure():
    space = GradedSpace.of([("z0", -1), ("x", 1), ("y", 0)])
    L = linf_from_tables(space, {2: {("z0", "x"): [(1, "y")]}})
    z = Element.zero(space)
    assert mc_check(L, z).element == z
    # abelian algebra with a differential: mc fails when l1(f) != 0
    space2 = GradedSpace.of([("f", -1), ("gg", -2)])
    L2 = linf_from_tables(space2, {1: {("f",): [(1, "gg")]}})
    with pytest.raises(ValueError):
        mc_check(L2, Element.gen(space2, "f"))
    assert mc_residual(L2, Element.gen(space2, "f")) == Element.gen(space2, "gg")


def test_perturb_expansion():
    # l1^z(x) = l1(x) + l2(z, x) when the series stops at arity 2
    space = GradedSpace.of([("z0", -1), ("x", 1), ("y", 0)])
    L = linf_from_tables(space, {2: {("z0", "x"): [(1, "y")]}})
    z = mc_check(L, Element.gen(space, "z0"))
    Lz = perturb(L, z)
    got = Lz.ell(1).apply_word(Word.tensor("x"))
    want = L.bracket(2, Element.gen(space, "z0"), Element.gen(space, "x"))
    assert got == want and got == Element.gen(space, "y")
    # z = 0 perturbs nothing
    L0 = perturb(L, mc_check(L, Element.zero(space)))
    assert L0.ops.keys() == L.ops.keys()
    for k in L.ops:
        assert L0.ops[k].images == L.ops[k].images


def test_truncate_positive_part_unchanged():
    space = GradedSpace.of([("p", 1), ("q", 2), ("m", 3)])
    L = linf_from_tables(space, {2: {("p", "q"): [(1, "m")]}})
    T = truncate(L)
    assert T.space.names == space.names
    assert T.ops[2].images == L.ops[2].images


def test_truncate_drops_noncycles_and_negatives():
    space = GradedSpace.of([("mm", -1), ("a", 0), ("b", 0), ("p", 1)])
    L = linf_from_tables(space, {1: {("a",): [(1, "mm")]}})
    T = truncate(L)
    assert T.space.names == ("b", "p")
    assert not T.ops


def test_truncate_rejects_a_degree_zero_output_off_the_cycles():
    # ker(ell_1) in degree 0 is spanned by a + b and c, named a and c;
    # ell_2(a + b, c) = a has a nonzero pivot coordinate but is no cycle
    space = GradedSpace.of([("mm", -1), ("a", 0), ("b", 0), ("c", 0), ("p", 1)])
    L = linf_from_tables(space, {
        1: {("a",): [(1, "mm")], ("b",): [(-1, "mm")]},
        2: {("a", "c"): [(1, "a")]},
    }, validate=False)
    with pytest.raises(ValueError, match="not an ell_1-cycle"):
        truncate(L, validate=False)
    # the same bracket landing on the cycle a + b is re-expressed as a
    L = linf_from_tables(space, {
        1: {("a",): [(1, "mm")], ("b",): [(-1, "mm")]},
        2: {("a", "c"): [(1, "a")], ("b", "c"): [(1, "b")]},
    }, validate=False)
    T = truncate(L, validate=False)
    assert T.space.names == ("a", "c", "p")
    assert T.ops[2].images == {Word.wedge("a", "c"): Element.gen(T.space, "a")}


def test_truncate_after_perturb_identity_case():
    space = GradedSpace.of([("a", 0), ("p", 1), ("q", 2)])
    L = linf_from_tables(space, {2: {("a", "p"): [(1, "p")]}})
    z = mc_check(L, Element.zero(space))
    T = truncate(perturb(L, z))
    assert T.space.names == space.names
    assert T.ops[2].images == L.ops[2].images


def test_check_linf_on_perturbed_random_mc(target_dgl):
    # MC elements of the target are scalar multiples of nothing: only 0
    z = mc_check(target_dgl, Element.zero(target_dgl.space))
    assert check_linf(perturb(target_dgl, z))
