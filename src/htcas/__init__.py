"""Exact-arithmetic engine for homotopy transfer of A-infinity coalgebra
and L-infinity algebra structures by the planar and i-infinity
recursions, convolution models of mapping spaces, Quillen models and
rational homotopy invariants.

Everything is computed exactly over Q: scalars are ints, or
`fractions.Fraction` where a value is not integral, and never floats.  All
values are immutable after construction and all operations are pure.

`import htcas` loads no engine module: each name in `__all__` is imported
from its defining module on first access (PEP 562), so `htcas.X` and
`from htcas import *` work, and a process compiles only what it uses."""

import importlib

_EXPORTS = {
    "core": (
        "Element", "GradedMap", "GradedSpace", "Word", "koszul_sign",
        "tensor_apply", "unshuffle",
    ),
    "functors": (
        "CDGA", "FiniteCDGA", "FreeLieDGL", "cochain",
        "dual_coalgebra", "linf_from_cdga", "quillen",
        "quillen_differential_direct",
    ),
    "invariants": (
        "InvariantReport", "bracket_length", "conilpotence",
        "differential_length", "hspace_certificate", "whitehead_length",
    ),
    "mapping": (
        "component_model", "convolution_linf", "mapping_space_model",
        "reduced_bs_cochain", "reduced_bs_direct",
    ),
    "structures": (
        "AInfCoalgebra", "CheckReport", "LInfAlgebra", "check_ainf",
        "check_cocommutative", "check_linf", "mc_check", "perturb",
        "truncate",
    ),
    "transfer": (
        "ChainComplex", "HomotopyRetract", "canonical_retract", "hom_retract",
        "homology_decomposition", "retract_from_decomposition",
        "transfer_ainf", "transfer_linf",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
