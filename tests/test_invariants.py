import types

import pytest

from helpers import dgc_from_tables, linf_from_tables
from htcas.core import Element, GradedSpace
from htcas.functors import (
    CDGA,
    FiniteCDGA,
    FreeLieDGL,
    dual_coalgebra,
    lie_bracket,
    linf_from_cdga,
    quillen_differential_direct,
)
from htcas.invariants import (
    INF,
    bracket_length,
    conilpotence,
    differential_length,
    hspace_certificate,
    two_stage_filtration,
    whitehead_length,
)
from htcas.structures import LInfAlgebra

EX2_TARGET = CDGA.of(
    [("u", 2), ("v", 4), ("w", 7)],
    {"w": [(1, ("u", "u", "u", "u")), (1, ("v", "v"))]},
)


def cell_attachment_model():
    gens = GradedSpace.of([("a", 6), ("b", 6), ("c", 19)])
    a, b = Element.gen(gens, "a"), Element.gen(gens, "b")
    img = lie_bracket(a, lie_bracket(a, b))
    M = FreeLieDGL(gens, {"c": img},
                   presentation={"c": [(1, ("a", ("a", "b")))]})
    return M


def test_differential_length():
    assert differential_length(CDGA.of([("m", 3)], {})).value == INF
    A = CDGA.of([("x", 4), ("y", 7), ("z", 10), ("t", 16)],
                {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]})
    assert differential_length(A).value == 2
    assert differential_length(EX2_TARGET).value == 2
    nonmin = CDGA.of([("m", 4), ("n", 5)], {"m": [(1, ("n",))]})
    with pytest.raises(ValueError):
        differential_length(nonmin)


def test_bracket_length_and_witness():
    M = cell_attachment_model()
    rep = bracket_length(M)
    assert rep.value == 3
    assert rep.witness == "[a,[a,b]]"
    empty = FreeLieDGL(GradedSpace.of([("a", 2)]), {})
    assert bracket_length(empty).value == INF


def test_bracket_length_of_massey_model(cbar):
    M = quillen_differential_direct(cbar)
    assert bracket_length(M).value == 2


def test_bracket_length_rejects_linear_part():
    gens = GradedSpace.of([("a", 3), ("b", 2)])
    M = FreeLieDGL(gens, {"a": Element.gen(gens, "b")})
    with pytest.raises(ValueError):
        bracket_length(M)


def test_whitehead_length():
    # abelian: Wl = 1
    ab = LInfAlgebra(GradedSpace.of([("m", 3)]), {})
    assert repr(whitehead_length(ab)) == "Wl = 1  (witness: all binary brackets vanish)"
    # an ell_3 and no ell_2: the same report, with the note on higher brackets
    A = CDGA.of([("x", 3), ("y", 3), ("z", 3), ("w", 8)], {"w": [(1, ("x", "y", "z"))]})
    L = linf_from_cdga(A)
    assert list(L.ops) == [3]
    assert repr(whitehead_length(L)) == ("Wl = 1  (witness: all binary brackets vanish)"
                                         "  [binary brackets only]")
    # worked-example target: l2(y', l2(x', y')) = t' is a 3-fold bracket
    A = CDGA.of([("x", 4), ("y", 7), ("z", 10), ("t", 16)],
                {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]})
    rep = whitehead_length(linf_from_cdga(A))
    assert rep.value == 3 and rep.note is None
    # Example-2 target: only [v', v'] is nonzero among binary iterates
    rep = whitehead_length(linf_from_cdga(EX2_TARGET))
    assert rep.value == 2
    assert rep.note == "binary brackets only"


def test_whitehead_length_rejects_nonminimal():
    bad = linf_from_tables(
        GradedSpace.of([("m", 3), ("n", 2)]), {1: {("m",): [(1, "n")]}}
    )
    with pytest.raises(ValueError):
        whitehead_length(bad)


def test_conilpotence(cbar):
    # the worked example has a double splitting on the top class
    assert conilpotence(cbar).value == 3
    # a primitive coalgebra has conilpotence 1
    prim = dual_coalgebra(FiniteCDGA(CDGA.of([("a", 3), ("b", 5)], {}), max_cohom=5),
                          counital=False)
    assert conilpotence(prim).value == 1
    # conilpotence 2: one product survives, nothing longer
    c2 = dual_coalgebra(FiniteCDGA(CDGA.of([("a", 3), ("b", 5)], {}), max_cohom=8),
                        counital=False)
    assert conilpotence(c2).value == 2


def test_two_stage_filtration():
    assert two_stage_filtration(cell_attachment_model())
    # three-stage: the attaching bracket uses a non-cycle generator
    gens = GradedSpace.of([("a", 3), ("b", 7), ("c", 11)])
    a, b = Element.gen(gens, "a"), Element.gen(gens, "b")
    M = FreeLieDGL(
        gens,
        {"b": lie_bracket(a, a),
         "c": lie_bracket(a, b)},
    )
    assert not two_stage_filtration(M)


def test_hspace_example2():
    verdict = hspace_certificate(cell_attachment_model(),
                                 linf_from_cdga(EX2_TARGET))
    assert verdict.verdict == "yes-by-theorem"
    values = {r.name: r.value for r in verdict.reports}
    assert values == {"bl": 3, "Wl": 2}
    # the source must be a reduced DGC or a free Lie model
    with pytest.raises(ValueError, match="^source side must be a reduced DGC or a free-Lie "
                                         "model$") as exc:
        hspace_certificate(linf_from_cdga(EX2_TARGET), linf_from_cdga(EX2_TARGET))
    assert exc.type is ValueError


def test_hspace_inconclusive_when_hypothesis_fails():
    # equal lengths: the theorem makes no claim
    gens = GradedSpace.of([("a", 6), ("b", 6), ("c", 13)])
    a, b = Element.gen(gens, "a"), Element.gen(gens, "b")
    M = FreeLieDGL(gens, {"c": lie_bracket(a, b)})
    assert bracket_length(M).value == 2
    verdict = hspace_certificate(M, linf_from_cdga(EX2_TARGET))
    assert verdict.verdict == "inconclusive"


def conilpotence_two_cell_attachment():
    """A conilpotence-2 coalgebra model of the two-sphere wedge with the
    long-bracket cell: the direct Quillen differential is [a,[a,b]]."""
    space = GradedSpace.of(
        [("al", 7), ("be", 7), ("q", 13), ("p", 14), ("e", 20)]
    )
    return dgc_from_tables(
        space,
        {"p": [(1, "q")]},
        {
            "p": [(1, ("al", "be")), (-1, ("be", "al"))],
            "e": [(1, ("al", "q")), (-1, ("q", "al"))],
        },
    )


def test_hspace_direct_check_on_conilpotence_two(cbar, target_dgl):
    # the worked example's coalgebra has conilpotence 3: no certificate
    verdict = hspace_certificate(cbar, target_dgl)
    assert verdict.verdict == "inconclusive"
    # a conilpotence-2 source realizing the bl = 3 attachment
    c2 = conilpotence_two_cell_attachment()
    assert conilpotence(c2).value == 2
    M = quillen_differential_direct(c2)
    assert bracket_length(M).value == 3
    verdict = hspace_certificate(c2, linf_from_cdga(EX2_TARGET))
    assert verdict.verdict == "yes-by-theorem"
    assert any("direct check" in t for t in verdict.trace)


def test_hspace_direct_check_failure_is_inconclusive(monkeypatch):
    # the certificate and the hypothesis hold on the conilpotence-2 source,
    # so a transferred model with a nonzero l_2 is the one thing left that
    # withdraws the verdict
    from htcas import mapping

    L = linf_from_cdga(EX2_TARGET)
    assert sorted(L.ops) == [2, 4]
    monkeypatch.setattr(mapping, "mapping_space_model",
                        lambda C, y: types.SimpleNamespace(model=L))
    verdict = hspace_certificate(conilpotence_two_cell_attachment(), L)
    assert verdict.verdict == "inconclusive"
    assert verdict.trace[-1] == "direct check FAILED: nonzero transferred brackets [2, 4]"
