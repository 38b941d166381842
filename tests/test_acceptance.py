"""Acceptance suite: one test per criterion, exact equality throughout.

Run `pytest tests/test_acceptance.py -s` or `python tests/test_acceptance.py`
for the one-line-per-criterion report; all eight criteria are expected to
pass.  Criterion 3 pins the l'_3 values that the worked example determines:
its reference prints one bracket on the wrong degree-8 class, which the
source bigrading rules out, so the test asserts the value on v and the
u-supported value instead (see the comment there).
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import (
    CUBIC_Y,
    linf_from_tables,
    paper_bs_direct,
    paper_dual,
    parity_involution,
    random_cocommutative_dgc,
    random_finite_cdga,
    random_sullivan,
    unchecked,
)
from htcas.core import AxiomError, Element, GradedSpace, Word
from htcas.functors import (
    CDGA,
    FiniteCDGA,
    FreeLieDGL,
    cochain,
    dual_coalgebra,
    lie_bracket,
    linf_from_cdga,
    quillen,
    quillen_differential_direct,
)
from htcas.invariants import (
    bracket_length,
    conilpotence,
    differential_length,
    hspace_certificate,
    whitehead_length,
)
from htcas.mapping import (
    component_model,
    mapping_space_model,
    reduced_bs_cochain,
    reduced_bs_direct,
    restrict_positive,
)
from htcas.structures import (
    check_ainf,
    check_cocommutative,
    check_linf,
    mc_check,
    perturb,
)
from htcas.transfer import (
    ChainComplex,
    homology_decomposition,
    retract_from_decomposition,
    transfer_ainf,
)
from tree_oracles import arity_product, aut_order, enumerate_planar, enumerate_rooted


def _worked_example():
    B = FiniteCDGA(
        CDGA.of([("a", 3), ("b", 3), ("c", 5)], {"c": [(1, ("a", "b"))]}),
        max_cohom=11,
    )
    red = paper_dual(B, counital=False)
    A = CDGA.of([("x", 4), ("y", 7), ("z", 10), ("t", 16)],
                {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]})
    return B, red, A, linf_from_cdga(A)


def _report(n, title):
    print(f"ACCEPTANCE C{n} ({title}): PASS")


def test_c1_tree_combinatorics():
    assert [len(enumerate_rooted(k)) for k in range(1, 7)] == [1, 1, 2, 5, 12, 33]
    assert [len(enumerate_planar(k)) for k in range(1, 7)] == [1, 1, 3, 11, 45, 197]
    for k in range(1, 7):
        total = sum(Fraction(arity_product(t), aut_order(t))
                    for t in enumerate_rooted(k))
        assert total == len(enumerate_planar(k))
    _report(1, "tree combinatorics")


def test_c2_higher_massey_coproduct():
    _, cbar, _, _ = _worked_example()
    dec = homology_decomposition(ChainComplex(cbar.space, cbar.delta(1)))
    r = retract_from_decomposition(dec)
    H = transfer_ainf(cbar, r)
    HS = H.space
    d3u = H.delta(3).apply_word(Word.tensor("u"))
    assert d3u == Element.make(
        HS, [(1, "t", ("g", "g", "h")), (-2, "t", ("g", "h", "g")),
             (1, "t", ("h", "g", "g"))]
    ), "Delta'_3(u) must equal (g|g|h) - 2(g|h|g) + (h|g|g) exactly"
    assert H.delta(3).apply_word(Word.tensor("v")), "Delta'_3(v) must be nonzero"
    assert check_ainf(H)
    assert check_cocommutative(H)
    _report(2, "higher Massey coproduct")


def test_c3_mapping_model_brackets():
    _, cbar, _, L = _worked_example()
    mm = mapping_space_model(cbar, L)
    # the engine's pinned convention yields the negatives of both printed
    # values simultaneously; per this criterion one documented global sign
    # normalization (the parity involution) is applied
    m = parity_involution(mm.model)
    l2 = m.ell(2).apply_word(Word.tensor("g.y'", "v.z'"))
    assert l2 == Element.make(m.space, [(1, "t", ("w.t'",))]), \
        "l'_2(f_g^y', f_v^z') must equal f_w^t' exactly"
    # The reference prints l'_3(f_g^y', f_h^x', f_h^y') = -f_u^t', which no
    # engine can give.  dc = ab preserves the bigrading a=(1,0), b=(0,1),
    # c=(1,1), so every transferred bracket on Hom(H,L) preserves source
    # weight.  The inputs weigh g+h+h = (1,2), the weight of v = (bc)*;
    # u = (ac)* weighs (2,1).  The reference carries one wrong symbol, and
    # the repository does not settle which: reading it as u written for v
    # in the output gives (a) below, with the printed coefficient; reading
    # it as an input slot gives (b), the u-supported value.  Both are the
    # coefficients of d(t(x)v) and d(t(x)u) that criterion 5 checks against
    # the substitution recursion, which never calls the transfer; see also
    # tests/test_mapping.py::test_mapping_model_brackets.
    l3 = m.ell(3).apply_word(Word.tensor("g.y'", "h.x'", "h.y'"))
    assert l3 == Element.make(m.space, [(-1, "t", ("v.t'",))]), \
        "l'_3(f_g^y', f_h^x', f_h^y') must equal -f_v^t' exactly"
    assert l3.coeff(Word.tensor("u.t'")) == 0
    l3u = m.ell(3).apply_word(Word.tensor("g.x'", "g.y'", "h.y'"))
    assert l3u == Element.make(m.space, [(-1, "t", ("u.t'",))]), \
        "l'_3(f_g^x', f_g^y', f_h^y') must equal -f_u^t' exactly"
    _report(3, "mapping model brackets")


def test_c4_hom_grading_tables():
    _, cbar, _, L = _worked_example()
    mm = mapping_space_model(cbar, L)
    by_deg: dict[int, int] = {}
    for _, d in mm.model.space.basis:
        by_deg[d] = by_deg.get(d, 0) + 1
    assert by_deg == {-8: 1, -5: 3, -2: 3, 0: 2, 1: 2, 3: 2, 4: 1, 6: 2,
                      7: 2, 12: 2}
    comp = component_model(mm.model, Element.zero(mm.model.space))
    bs = reduced_bs_cochain(comp, source=mm.homology, target=L.space)
    pos: dict[int, int] = {}
    for _, d in bs.gens.basis:
        pos[d] = pos.get(d, 0) + 1
    assert pos == {1: 2, 2: 2, 4: 2, 5: 1, 7: 2, 8: 2, 13: 2}
    _report(4, "Hom grading tables")


def test_c5_reduced_brown_szczarba():
    B, cbar, A, L = _worked_example()
    mm = mapping_space_model(cbar, L)
    comp = component_model(mm.model, Element.zero(mm.model.space))
    route1 = reduced_bs_cochain(comp, source=mm.homology, target=L.space)
    route2 = restrict_positive(paper_bs_direct(B, A))
    G = route1.gens
    for g in ("x.g", "x.h", "z.u", "z.v", "y.g", "y.h", "z.g", "z.h",
              "t.g", "t.h"):
        assert g not in route1.diff and g not in route2.diff, g
    want = {
        "t.w": [(1, ("y.g", "z.v")), (-1, ("y.h", "z.u"))],
        "t.u": [(-1, ("y.g", "x.g", "y.h")), (1, ("y.g", "y.g", "x.h"))],
        "t.v": [(-1, ("y.h", "y.h", "x.g")), (1, ("y.h", "x.h", "y.g"))],
    }
    for g, items in want.items():
        expected = Element.make(G, [(c, "m", fs) for c, fs in items])
        assert route1.diff[g] == expected, g
        assert route2.diff[g].terms == expected.terms, g
    for g in set(route1.diff) | set(route2.diff):
        t1 = route1.diff.get(g).terms if route1.diff.get(g) else {}
        t2 = route2.diff.get(g).terms if route2.diff.get(g) else {}
        assert t1 == t2, g
    # randomized agreement, full (untruncated) models
    rng = random.Random(505)
    done = 0
    while done < 8:
        Br = random_finite_cdga(rng, max_dim=6)
        Ar = random_sullivan(rng, max_gens=4, max_degree=8)
        if not Ar.diff:
            continue
        redr = dual_coalgebra(Br, counital=False)
        if redr.space.dim < 2 or redr.space.min_degree() < 2:
            continue
        r2 = reduced_bs_direct(Br, Ar)
        assert max((len(w) for el in r2.diff.values() for w in el.terms),
                   default=0) <= 3
        Lr = linf_from_cdga(Ar)
        mmr = mapping_space_model(redr, Lr, max_k=3)
        r1 = reduced_bs_cochain(mmr.model, mmr.homology, Lr.space)
        for g in set(r1.diff) | set(r2.diff):
            t1 = r1.diff.get(g).terms if r1.diff.get(g) else {}
            t2 = r2.diff.get(g).terms if r2.diff.get(g) else {}
            assert t1 == t2, g
        done += 1
    _report(5, "reduced Brown-Szczarba differential, both routes")


def test_c6_quillen_consistency():
    _, cbar, _, _ = _worked_example()
    instances = [cbar]
    rng = random.Random(606)
    while len(instances) < 21:
        _, red = random_cocommutative_dgc(rng, max_dim=6)
        if red.space.dim >= 1:
            instances.append(red)
    for C in instances:
        dec = homology_decomposition(ChainComplex(C.space, C.delta(1)))
        r = retract_from_decomposition(dec)
        H = transfer_ainf(C, r)
        M1 = quillen(H)
        M2 = quillen_differential_direct(C)
        assert M1.diff.keys() == M2.diff.keys()
        for g in M1.diff:
            assert M1.diff[g] == M2.diff[g], g
        assert M1.is_minimal and M2.is_minimal  # zero weight-1 part
    _report(6, "Quillen model consistency on 21 coalgebras")


def test_c7_invariants_and_hspace():
    gens = GradedSpace.of([("a", 6), ("b", 6), ("c", 19)])
    a, b = Element.gen(gens, "a"), Element.gen(gens, "b")
    M = FreeLieDGL(gens, {"c": lie_bracket(a, lie_bracket(a, b))},
                   presentation={"c": [(1, ("a", ("a", "b")))]})
    Y = CDGA.of([("u", 2), ("v", 4), ("w", 7)],
                {"w": [(1, ("u", "u", "u", "u")), (1, ("v", "v"))]})
    bl = bracket_length(M)
    assert bl.value == 3 and bl.witness == "[a,[a,b]]"
    assert whitehead_length(linf_from_cdga(Y)).value == 2
    assert differential_length(Y).value == 2
    verdict = hspace_certificate(M, linf_from_cdga(Y))
    assert verdict.verdict == "yes-by-theorem"
    # conilpotence-2 shortcut on randomized instances: the convolution has
    # no bracket of arity >= 3 (ell_k is built from Delta^{(k-1)}), even
    # into a target with a nonzero ell_3
    rng = random.Random(707)
    done = 0
    while done < 10:
        B = random_finite_cdga(rng, max_dim=6, conilpotence_two=True)
        A = random_sullivan(rng, max_gens=3, max_degree=8)
        if not A.diff:
            continue
        red = dual_coalgebra(B, counital=False)
        if red.space.dim < 2 or red.space.min_degree() < 2:
            continue
        assert conilpotence(red).value <= 2
        for Y in (A, CUBIC_Y):
            mm = mapping_space_model(red, linf_from_cdga(Y), max_k=3)
            assert all(k < 3 for k in mm.convolution.ops)
        done += 1
    _report(7, "invariants and H-space detection")


def test_c8_property_suites():
    rng = random.Random(808)
    # transferred structures always pass their checkers
    for _ in range(8):
        _, red = random_cocommutative_dgc(rng, max_dim=6)
        dec = homology_decomposition(ChainComplex(red.space, red.delta(1)))
        r = retract_from_decomposition(dec)
        H = transfer_ainf(red, r)
        assert check_ainf(H)
        assert check_cocommutative(H)
    # round trips both ways on 20 random Sullivan algebras
    done = 0
    while done < 20:
        A = random_sullivan(rng)
        if not A.diff:
            continue
        L = linf_from_cdga(A)
        A2 = cochain(L)
        assert A2.gens.basis == A.gens.basis
        assert {g: e.terms for g, e in A2.diff.items()} == \
            {g: e.terms for g, e in A.diff.items()}
        L2 = linf_from_cdga(A2)
        assert L2.ops.keys() == L.ops.keys()
        for k in L.ops:
            assert L2.ops[k].images == L.ops[k].images
        done += 1
    # d^2 = 0 iff the generalized Jacobi identity holds (mutation)
    from htcas.core import GradedMap
    from htcas.structures import LInfAlgebra

    done = 0
    while done < 10:
        A = random_sullivan(rng)
        if not A.diff:
            continue
        L = linf_from_cdga(A)
        if not L.ops:
            continue
        space = L.space
        k = rng.choice(list(L.ops))
        m = L.ops[k]
        w = rng.choice(list(m.images))
        deg = space.word_degree(w) + k - 2
        tgt = [n for n in space.names if space.degree(n) == deg]
        if not tgt:
            continue
        images = dict(m.images)
        images[w] = images[w] + Element.gen(space, rng.choice(tgt))
        ops = dict(L.ops)
        ops[k] = GradedMap(space, space, k - 2, images, arity=k, in_kind="w")
        with unchecked():
            corrupted = LInfAlgebra(space, ops)
        try:
            cochain(corrupted)
            d2_zero = True
        except AxiomError:
            d2_zero = False
        assert bool(check_linf(corrupted)) == d2_zero
        done += 1
    # perturbing by a verified Maurer-Cartan element keeps the structure valid
    space = GradedSpace.of([("z0", -1), ("x", 1), ("y", 0)])
    L = linf_from_tables(space, {2: {("z0", "x"): [(1, "y")]}})
    perturbed_nonzero = 0
    for z in (Element.zero(space), Element.gen(space, "z0"),
              Fraction(3, 2) * Element.gen(space, "z0")):
        mc = mc_check(L, z)
        Lz = perturb(L, mc)
        assert check_linf(Lz)
        if z and Lz.ops.get(1) and not Lz.ops[1].is_zero():
            perturbed_nonzero += 1
    assert perturbed_nonzero == 2  # the twist genuinely changed the structure
    _report(8, "property suites")


CRITERIA = [
    test_c1_tree_combinatorics,
    test_c2_higher_massey_coproduct,
    test_c3_mapping_model_brackets,
    test_c4_hom_grading_tables,
    test_c5_reduced_brown_szczarba,
    test_c6_quillen_consistency,
    test_c7_invariants_and_hspace,
    test_c8_property_suites,
]


def main() -> int:
    failures = 0
    for i, fn in enumerate(CRITERIA, start=1):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            title = fn.__name__.split("_", 2)[2].replace("_", " ")
            msg = str(exc).splitlines()[0] if str(exc) else "assertion failed"
            print(f"ACCEPTANCE C{i} ({title}): FAIL - {msg}")
    if failures:
        print(f"{failures} criterion/criteria failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
