"""Exact-arithmetic engine for homotopy transfer of A-infinity coalgebra
and L-infinity algebra structures over rooted-tree formulas, convolution
models of mapping spaces, Quillen models and rational homotopy invariants.

Everything is computed over Q with `fractions.Fraction`; all values are
immutable after construction and all operations are pure."""

from .core import (
    Element,
    GradedMap,
    GradedSpace,
    Word,
    koszul_sign,
    symmetrize,
    tensor_apply,
    tensor_map,
    unshuffle,
)
from .functors import (
    CDGA,
    FiniteCDGA,
    FreeLieDGL,
    FreeLieElement,
    cochain,
    dual_coalgebra,
    linf_from_cdga,
    quillen,
    quillen_differential_direct,
)
from .invariants import (
    InvariantReport,
    bracket_length,
    conilpotence,
    differential_length,
    hspace_certificate,
    whitehead_length,
)
from .mapping import (
    component_model,
    convolution_linf,
    mapping_space_model,
    pointed_convolution,
    reduced_bs_cochain,
    reduced_bs_direct,
)
from .structures import (
    AInfCoalgebra,
    CheckReport,
    LInfAlgebra,
    MaurerCartanElement,
    check_ainf,
    check_cocommutative,
    check_linf,
    iterated_coproduct,
    mc_check,
    perturb,
    truncate,
)
from .transfer import (
    ChainComplex,
    HomotopyRetract,
    hom_retract,
    homology_decomposition,
    identity_retract,
    retract_from_decomposition,
    transfer_ainf,
    transfer_linf,
    tree_map_coalgebra,
    tree_map_lie,
)
from .trees import aut_order, enumerate_planar, enumerate_rooted, planar_embedding

__all__ = [
    "AInfCoalgebra", "CDGA", "ChainComplex", "CheckReport", "Element",
    "FiniteCDGA", "FreeLieDGL", "FreeLieElement", "GradedMap", "GradedSpace",
    "HomotopyRetract", "InvariantReport", "LInfAlgebra",
    "MaurerCartanElement", "Word", "aut_order", "bracket_length",
    "check_ainf", "check_cocommutative", "check_linf", "cochain",
    "component_model", "conilpotence", "convolution_linf",
    "differential_length", "dual_coalgebra", "enumerate_planar",
    "enumerate_rooted", "hom_retract", "homology_decomposition",
    "hspace_certificate", "identity_retract", "iterated_coproduct",
    "koszul_sign", "linf_from_cdga", "mapping_space_model", "mc_check",
    "perturb", "planar_embedding", "pointed_convolution", "quillen",
    "quillen_differential_direct", "reduced_bs_cochain", "reduced_bs_direct",
    "retract_from_decomposition", "symmetrize", "tensor_apply", "tensor_map",
    "transfer_ainf", "transfer_linf", "tree_map_coalgebra", "tree_map_lie",
    "truncate", "unshuffle", "whitehead_length",
]
