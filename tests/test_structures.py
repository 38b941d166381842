import itertools
import random

import pytest

from helpers import (
    check_ainf_shifted,
    check_linf_shifted,
    convolution,
    dense_truncate,
    dgc_from_tables,
    linf_from_tables,
    unchecked,
)
from htcas import structures
from htcas.core import (
    AxiomError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    letter_index,
    word_basis,
)
from htcas.functors import (
    CDGA,
    FiniteCDGA,
    dual_coalgebra,
    linf_from_cdga,
    quillen_differential_direct,
)
from htcas.invariants import conilpotence
from htcas.structures import (
    AInfCoalgebra,
    LInfAlgebra,
    _candidate_words,
    _jacobi_total,
    _twisted,
    check_ainf,
    check_cocommutative,
    check_linf,
    iterated_coproducts,
    mc_check,
    perturb,
    truncate,
)
from htcas.transfer import canonical_retract, transfer_ainf


def test_cbar_is_a_valid_cocommutative_dgc(cbar):
    assert check_ainf(cbar)
    assert repr(check_ainf(cbar)) == "ok"
    assert check_ainf_shifted(cbar)
    assert check_cocommutative(cbar)
    assert cbar.is_dgc and cbar.max_arity == 2


def test_broken_coproduct_detected(cbar):
    space = cbar.space
    cop = {"s": [(1, ("g", "h"))]}  # one term only: not cocommutative
    C = dgc_from_tables(space, {}, cop)
    assert check_ainf(C)  # still coassociative and compatible
    rep = check_cocommutative(C)
    assert not rep and "Delta_2(s)" in rep.where


def test_broken_compatibility_detected(cbar):
    space = cbar.space
    # flipping one sign in Delta(w) breaks compatibility with ds = r
    diff = {"s": [(1, "r")]}
    cop = {"s": [(1, ("g", "h")), (-1, ("h", "g"))], "w": [(1, ("s", "r")), (-1, ("r", "s"))]}
    with pytest.raises(AxiomError, match="A-infinity relation fails"):
        dgc_from_tables(space, diff, cop)
    with unchecked():
        C = dgc_from_tables(space, diff, cop)
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
        with unchecked():
            C = dgc_from_tables(space, diff, cop)
        assert bool(check_ainf(C)) == bool(check_ainf_shifted(C))


def test_literal_and_shifted_ainf_checkers_agree_on_a_genuine_delta_3():
    # the Massey coproducts of four reduced duals, each with a Delta_3, as
    # they are and with one Delta_2 or Delta_3 image scaled by 2, -1 or 0
    sources = {
        "n4": ([("a", 3), ("b", 3), ("c", 5), ("e", 3)], {"c": [(1, ("a", "b"))]}, None),
        "n5": ([("a", 3), ("b", 3), ("c", 5), ("e", 3), ("f", 5)],
               {"c": [(1, ("a", "b"))], "f": [(1, ("a", "e"))]}, None),
        # degree-1 generators derive no arity cap
        "heis": ([("a", 1), ("b", 1), ("c", 1)], {"c": [(1, ("a", "b"))]}, 4),
        "ex1": ([("a", 3), ("b", 3), ("c", 5)], {"c": [(1, ("a", "b"))]}, None),
    }
    verdicts = []
    for tag, (gens, d, max_k) in sources.items():
        C = dual_coalgebra(FiniteCDGA(CDGA.of(gens, d)), counital=False)
        H = transfer_ainf(C, canonical_retract(C), max_k=max_k)
        assert 3 in H.ops, tag
        cases = [H.ops]
        for k in (2, 3):
            m = H.ops[k]
            for w in m.images:
                for scale in (2, -1, 0):
                    images = {**m.images, w: scale * m.images[w]}
                    cases.append({**H.ops, k: GradedMap(m.source, m.target, m.degree, images)})
        for ops in cases:
            with unchecked():
                X = AInfCoalgebra(H.space, ops)
            verdict = bool(check_ainf(X))
            assert verdict == bool(check_ainf_shifted(X)), tag
            verdicts.append(verdict)
    assert len(verdicts) == 118
    # the four as they are, and twelve changes that keep the relations
    assert verdicts.count(True) == 16


def test_iterated_coproduct(cbar):
    d1, d2, d3 = itertools.islice(iterated_coproducts(cbar), 3)
    assert d1.apply_word(Word.tensor("w")) == cbar.delta(2).apply_word(Word.tensor("w"))
    # length-2 iterates on this coalgebra vanish except on w
    for g in ("g", "h", "r", "s", "u", "v"):
        assert not d2.apply_word(Word.tensor(g))
    assert d2.apply_word(Word.tensor("w"))
    # and length 3 vanishes identically
    for g in cbar.space.names:
        assert not d3.apply_word(Word.tensor(g))


def test_iterated_coproduct_rejects_genuine_ainf(target_dgl):
    space = GradedSpace.of([("a", 2), ("b", 2), ("c", 2), ("e", 5)])
    d3 = GradedMap(
        space, space, 1,
        {Word.tensor("e"): Element.make(space, [(1, "t", ("a", "b", "c"))])},
        1, "t",
    )
    C = AInfCoalgebra(space, {3: d3})
    with pytest.raises(ValueError):
        next(iterated_coproducts(C))
    # conilpotence reads the iterated coproducts, so it refuses C the same way
    with pytest.raises(ValueError, match=r"^iterated coproducts need a DGC"):
        conilpotence(C)
    # the direct Quillen recursion and the convolution brackets need a DGC too
    with pytest.raises(ValueError, match="^the direct recursion needs a DGC$") as exc:
        quillen_differential_direct(C)
    assert exc.type is ValueError
    with pytest.raises(ValueError, match="^convolution brackets need a DGC source$") as exc:
        convolution(C, target_dgl)
    assert exc.type is ValueError


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
    table = {1: {("z",): [(1, "w")]}, 2: {("x", "y"): [(1, "z")]}}
    with pytest.raises(AxiomError, match="generalized Jacobi fails"):
        linf_from_tables(space, table)
    with unchecked():
        bad = linf_from_tables(space, table)
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
            with unchecked():
                L = linf_from_tables(space, table)
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
    return convolution(dual_coalgebra(B, counital=False), linf_from_cdga(A))


def _candidates(L, n):
    """`_candidate_words` at arity n, with the letter index of each op."""
    index = {i: letter_index((w.factors, v) for w, v in m.images.items())
             for i, m in L.ops.items()}
    return _candidate_words(L, n, index)


def test_jacobi_candidates_are_exhaustive():
    conv = _n4_convolution()
    ops = {}
    for k, m in conv.ops.items():
        images = dict(m.images)
        first = next(iter(images))
        images[first] = 2 * images[first]
        ops[k] = GradedMap(m.source, m.target, m.degree, images, m.arity, m.in_kind)
    with pytest.raises(AxiomError, match="generalized Jacobi fails"):
        LInfAlgebra(conv.space, ops)
    with unchecked():
        bad = LInfAlgebra(conv.space, ops)
    assert sorted(ops) == [1, 2]

    nonzero = 0
    for n in (1, 2, 3):
        cands = set(_candidates(bad, n))
        for w in word_basis(bad.space, "w", n):
            if _jacobi_total(bad, w.factors, n):
                nonzero += 1
                assert w in cands, (n, w)
    assert nonzero
    assert not check_linf(bad)
    assert not check_linf_shifted(bad)


def test_jacobi_candidate_count_on_n4_convolution():
    # the dense pairing of every support word with every outer support
    # word less one factor gave 3,824 words here
    conv = _n4_convolution()
    counts = [len(_candidates(conv, n)) for n in (1, 2, 3)]
    assert counts == [0, 10, 30]
    assert check_linf(conv) and check_linf_shifted(conv)


def test_check_linf_indexes_each_op_once(monkeypatch):
    # the letter index of an op serves every arity n of the Jacobi check
    conv = _n4_convolution()
    calls = []
    monkeypatch.setattr(structures, "letter_index",
                        lambda items: calls.append(1) or letter_index(items))
    assert check_linf(conv)
    assert len(calls) == len(conv.ops) == 2


def test_mc_zero_and_failure():
    space = GradedSpace.of([("z0", -1), ("x", 1), ("y", 0)])
    L = linf_from_tables(space, {2: {("z0", "x"): [(1, "y")]}})
    z = Element.zero(space)
    assert mc_check(L, z) == z
    # abelian algebra with a differential: mc fails when l1(f) != 0
    space2 = GradedSpace.of([("f", -1), ("gg", -2)])
    L2 = linf_from_tables(space2, {1: {("f",): [(1, "gg")]}})
    with pytest.raises(ValueError):
        mc_check(L2, Element.gen(space2, "f"))
    # the residual is the twisted bracket on the empty word
    assert _twisted(L2, Element.gen(space2, "f"), ()) == Element.gen(space2, "gg")


def test_perturb_expansion():
    # l1^z(x) = l1(x) + l2(z, x) when the series stops at arity 2
    space = GradedSpace.of([("z0", -1), ("x", 1), ("y", 0)])
    L = linf_from_tables(space, {2: {("z0", "x"): [(1, "y")]}})
    z = mc_check(L, Element.gen(space, "z0"))
    Lz = perturb(L, z)
    got = Lz.ell(1).apply_word(Word.tensor("x"))
    want = L.bracket(2, Element.gen(space, "z0"), Element.gen(space, "x"))
    assert got == want and got == Element.gen(space, "y")
    # z = 0 perturbs nothing: ell^0_k = ell_k, and L itself comes back
    L0 = perturb(L, mc_check(L, Element.zero(space)))
    assert L0 is L
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


def test_truncate_reexpresses_a_degree_zero_output_in_the_cycle_basis():
    # ker(ell_1) in degree 0 is spanned by a + b and c, named a and c;
    # ell_2(a, c) = a + b is the cycle named a
    space = GradedSpace.of([("mm", -1), ("a", 0), ("b", 0), ("c", 0), ("p", 1)])
    L = linf_from_tables(space, {
        1: {("a",): [(1, "mm")], ("b",): [(-1, "mm")]},
        2: {("a", "c"): [(1, "a"), (1, "b")]},
    })
    T = truncate(L)
    assert T.space.names == ("a", "c", "p")
    assert T.ops[2].images == {Word.wedge("a", "c"): Element.gen(T.space, "a")}


def test_constructors_refuse_a_structure_map_of_the_wrong_shape():
    # the parser's rule, on maps built in the library: a Delta_k image is a
    # sum of tensor words of k letters, an ell_k value a sum of generators
    sp = GradedSpace.of([("x", 3), ("y", 1)])
    cop = GradedMap(sp, sp, 0, {Word.tensor("x"): Element.make(sp, [(1, "t", ("y", "y", "y"))])})
    with pytest.raises(ValidationError,
                       match=r"^Delta_2\(x\) has the word y\|y\|y, not a tensor word of 2 letters$"):
        AInfCoalgebra(sp, {2: cop})
    # and of degree k - 2: Delta_2 given as a degree-1 map
    sp = GradedSpace.of([("x", 3), ("w", 5), ("z", 7)])
    cop = GradedMap(sp, sp, 1, {Word.tensor("z"): Element.make(sp, [(1, "t", ("x", "w"))])})
    with pytest.raises(ValidationError, match=r"^Delta_2 must have degree 0, got 1$"):
        AInfCoalgebra(sp, {2: cop})
    sp = GradedSpace.of([("a", 2), ("b", 3), ("c", 2)])
    bracket = GradedMap(sp, sp, 0, {Word.wedge("a", "b"): Element.make(sp, [(1, "t", ("c", "b"))])},
                        arity=2, in_kind="w")
    with pytest.raises(ValidationError, match=r"^ell_2\(a\^b\) has the word c\|b, not a generator$"):
        LInfAlgebra(sp, {2: bracket})
    # and on input words of the arity: the text format has no line for
    # Delta_2(y|z) and refuses l2 ( a ^ b ^ c )
    sp = GradedSpace.of([("x", 4), ("y", 1), ("z", 2)])
    cop = GradedMap(sp, sp, 0, {Word.tensor("y", "z"): Element.make(sp, [(1, "t", ("y", "z"))])})
    with pytest.raises(ValidationError, match=r"^Delta_2 must act on tensor words of length 1$"):
        AInfCoalgebra(sp, {2: cop})
    sp = GradedSpace.of([("a", 2), ("b", 3), ("c", 4), ("d", 9)])
    bracket = GradedMap(sp, sp, 0, {Word.wedge("a", "b", "c"): Element.gen(sp, "d")},
                        arity=2, in_kind="w")
    with pytest.raises(ValidationError, match=r"^ell_2 must act on wedge words of length 2$"):
        LInfAlgebra(sp, {2: bracket})
    # and on canonical input words only: a map is evaluated on the canonical
    # word, so ell_2 on b^a was never read, yet serialized as l2 ( b ^ a )
    sp = GradedSpace.of([("a", 2), ("b", 3), ("c", 5)])
    bracket = GradedMap(sp, sp, 0, {Word.wedge("b", "a"): Element.gen(sp, "c")},
                        arity=2, in_kind="w")
    with pytest.raises(ValidationError,
                       match=r"^ell_2 is given on b\^a, but its canonical order is a\^b$"):
        LInfAlgebra(sp, {2: bracket})
    sp = GradedSpace.of([("a", 2), ("c", 4)])
    bracket = GradedMap(sp, sp, 0, {Word.wedge("a", "a"): Element.gen(sp, "c")},
                        arity=2, in_kind="w")
    with pytest.raises(ValidationError, match=r"^ell_2 is given on a\^a, but the word is zero$"):
        LInfAlgebra(sp, {2: bracket})


def test_truncate_applies_ell1_once_per_degree_zero_generator(monkeypatch):
    # the degree-0 matrix of ell_1 is read one column per generator, not
    # one entry per (degree -1, degree 0) pair
    space = GradedSpace.of([("m1", -1), ("m2", -1), ("a", 0), ("b", 0), ("c", 0), ("p", 1)])
    L = linf_from_tables(space, {
        1: {("a",): [(1, "m1")], ("b",): [(-1, "m1"), (2, "m2")], ("c",): [(1, "m2")]},
        2: {("a", "p"): [(1, "p")]},
    })
    ell1, apply_word = L.ops[1], GradedMap.apply_word
    calls = []

    def counted(m, word):
        if m is ell1:
            calls.append(word)
        return apply_word(m, word)

    monkeypatch.setattr(GradedMap, "apply_word", counted)
    T = truncate(L)
    assert len(calls) == 3
    monkeypatch.undo()
    D = dense_truncate(L)
    assert T.space is D.space
    assert T.ops[2].images and T.ops.keys() == D.ops.keys() == {2}
    assert T.ops[2].images == D.ops[2].images


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
