"""Numeric rational-homotopy invariants and the H-space criterion.

dl is the lowest word-length part of a minimal Sullivan differential, bl
the lowest bracket weight in a minimal free-Lie differential, Wl the
longest nonzero iterated binary bracket (higher brackets do not count and
a note records when some are present).  The H-space verdict is one-sided:
cone length 2 is accepted through either certificate the theory provides
(a conilpotence-2 coalgebra, or a two-stage free-Lie filtration), and the
criterion is Wl(target) < bl(source).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .core import Element, ValidationError

if TYPE_CHECKING:  # imported where used, so `import htcas.invariants` loads only core
    from .functors import CDGA, FreeLieDGL
    from .structures import AInfCoalgebra, LInfAlgebra

INF = math.inf


class InvariantReport:
    def __init__(self, name: str, value: int | float, witness: object = None,
                 note: str | None = None):
        self.name = name
        self.value = value
        self.witness = witness
        self.note = note

    def __repr__(self) -> str:
        val = "inf" if self.value == INF else str(self.value)
        out = f"{self.name} = {val}"
        if self.witness is not None:
            out += f"  (witness: {self.witness})"
        if self.note:
            out += f"  [{self.note}]"
        return out


def differential_length(A: CDGA) -> InvariantReport:
    """Least word length of a nonzero part of a minimal Sullivan
    differential; infinity when d = 0."""
    from .functors import weight_component, weights

    if not A.is_minimal:
        raise ValidationError("differential length needs a minimal Sullivan algebra")
    lowest = {g: weights(A.diff[g])[0] for g in A.gens.names if g in A.diff}
    if not lowest:
        return InvariantReport("dl", INF)
    gen = min(lowest, key=lowest.get)
    part = weight_component(A.diff[gen], lowest[gen])
    return InvariantReport("dl", lowest[gen], witness=f"d({gen}) has the part {part!r}")


def bracket_length(M: FreeLieDGL) -> InvariantReport:
    """Least bracket weight in the differential of a minimal free-Lie model."""
    from .functors import (
        bracket_tree_element,
        bracket_tree_str,
        bracket_weight,
        weight_component,
        weights,
    )

    if not M.is_minimal:
        raise ValidationError("bracket length needs a minimal model (no linear part)")
    lowest = {g: weights(img)[0] for g, img in M.diff.items()}
    if not lowest:
        return InvariantReport("bl", INF)
    gen = min(lowest, key=lowest.get)
    best = lowest[gen]
    comp = weight_component(M.diff[gen], best)
    witness = None
    for coeff, tree in M.presentation.get(gen, []):
        if bracket_weight(tree) == best:
            if bracket_tree_element(M.gens, tree):
                witness = bracket_tree_str(tree)
                break
    if witness is None:
        witness = f"weight-{best} part of d({gen}): {comp!r}"
    return InvariantReport("bl", best, witness=witness)


def whitehead_length(L: LInfAlgebra) -> InvariantReport:
    """Longest nonzero iterated binary bracket of a minimal structure."""
    if not L.is_minimal:
        raise ValidationError("Whitehead length needs a minimal structure")
    if L.space.dim and L.space.min_degree() < 1:
        raise ValidationError("Whitehead length needs a positively graded algebra")
    note = "binary brackets only" if any(k > 2 for k in L.ops) else None
    if 2 not in L.ops:
        return InvariantReport("Wl", 1, witness="all binary brackets vanish",
                               note=note)
    levels = {1: [(Element.gen(L.space, n), n) for n in L.space.names]}
    best, bw = 1, "all binary brackets vanish"
    n = 1
    while levels.get(n):
        n += 1
        nxt = []
        for i in range(1, n // 2 + 1):
            j = n - i
            for a, wa in levels.get(i, []):
                for b, wb in levels.get(j, []):
                    val = L.bracket(2, a, b)
                    if val:
                        nxt.append((val, f"[{wa},{wb}]"))
        if nxt:
            levels[n] = nxt
            best, bw = n, nxt[0][1]
        else:
            break
    return InvariantReport("Wl", best, witness=bw, note=note)


def conilpotence(C: AInfCoalgebra) -> InvariantReport:
    """Least n with the n-fold iterated reduced coproduct zero; each
    Delta^{(n)} is extended from Delta^{(n-1)}, up to n = dim + 1."""
    from .structures import iterated_coproducts

    if C.counit is not None:
        raise ValidationError("conilpotence is an invariant of the reduced coalgebra")
    if not C.is_dgc:
        raise ValueError("conilpotence of a genuine A-infinity coalgebra "
                         "is not implemented; pass a DGC")
    for n, it in enumerate(itertools.islice(iterated_coproducts(C), C.space.dim + 1), start=1):
        if it.is_zero():
            return InvariantReport("conilpotence", n)
    raise ValidationError("iterated coproducts failed to vanish: the coalgebra is not conilpotent")


class HSpaceVerdict:
    def __init__(self, verdict: str, reports: list, trace: list):
        self.verdict = verdict  # "yes-by-theorem" | "inconclusive"
        self.reports = reports
        self.trace = trace

    def __repr__(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines += [f"  {r!r}" for r in self.reports]
        lines += [f"  {t}" for t in self.trace]
        return "\n".join(lines)


def two_stage_filtration(M: FreeLieDGL) -> bool:
    """W = W0 + W1 with dW0 = 0 and dW1 inside the Lie algebra on W0."""
    w0 = {g for g in M.gens.names if not M.diff.get(g)}
    for img in M.diff.values():
        for w in img.terms:
            if any(f not in w0 for f in w.factors):
                return False
    return True


def hspace_certificate(x_side, y_side: LInfAlgebra) -> HSpaceVerdict:
    """One-sided H-space detection for the components of the based mapping
    space: accepts a cone-length-2 certificate on the source and compares
    Whitehead length of the target with bracket length of the source."""
    from .functors import FreeLieDGL, quillen_differential_direct
    from .mapping import mapping_space_model
    from .structures import AInfCoalgebra

    reports = []
    trace = []

    if isinstance(x_side, AInfCoalgebra):
        cbar = x_side
        co = conilpotence(cbar)
        reports.append(co)
        cl_ok = co.value <= 2
        trace.append(
            f"cone-length certificate: conilpotence {co.value} "
            + ("<= 2, accepted" if cl_ok else "> 2, not a certificate")
        )
        model = quillen_differential_direct(cbar)
    elif isinstance(x_side, FreeLieDGL):
        model = x_side
        cl_ok = two_stage_filtration(model)
        trace.append(
            "cone-length certificate: two-stage filtration "
            + ("holds" if cl_ok else "fails")
        )
        cbar = None
    else:
        raise ValueError("source side must be a reduced DGC or a free-Lie model")

    bl = bracket_length(model)
    wl = whitehead_length(y_side)
    reports += [bl, wl]
    hypothesis = wl.value < bl.value
    trace.append(f"Wl = {wl.value} {'<' if hypothesis else '>='} bl = {bl.value}")

    if cl_ok and hypothesis and cbar is not None:
        mm = mapping_space_model(cbar, y_side)
        higher = sorted(k for k in mm.model.ops if k >= 2)
        if higher:
            trace.append(f"direct check FAILED: nonzero transferred brackets {higher}")
            return HSpaceVerdict("inconclusive", reports, trace)
        trace.append(
            "direct check: all transferred brackets of arity >= 2 vanish"
        )

    if cl_ok and hypothesis:
        return HSpaceVerdict("yes-by-theorem", reports, trace)
    return HSpaceVerdict("inconclusive", reports, trace)
