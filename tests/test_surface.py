"""The option surface: every flag of each `htcas` subcommand and every
parameter of the engine entry points, pinned so that a new option shows up
as a change to this file; and the README's library tour, run as written."""

import contextlib
import inspect
import io
import re
from pathlib import Path

from htcas import cli, core, functors, structures, transfer
from htcas.core import GradedMap, GradedSpace, tensor_apply, word_basis
from htcas.functors import (
    CDGA,
    FiniteCDGA,
    cochain,
    dual_coalgebra,
    linf_from_cdga,
    quillen,
    quillen_differential_direct,
)
from htcas.invariants import hspace_certificate
from htcas.mapping import (
    component_model,
    convolution_linf,
    mapping_space_model,
    reduced_bs_cochain,
    reduced_bs_direct,
)
from htcas.structures import (
    AInfCoalgebra,
    LInfAlgebra,
    _ainf_total,
    _candidate_words,
    _jacobi_total,
    check_ainf,
    check_linf,
    mc_check,
    perturb,
    truncate,
)
from htcas.transfer import arity_cap, hom_retract, transfer_ainf, transfer_linf

README = Path(__file__).resolve().parent.parent / "README.md"

FLAGS = {
    "check": [],
    "transfer-ainf": ["--max-arity"],
    "quillen": ["--direct"],
    "cochain": [],
    "dualize": ["--full"],
    "mapmodel": ["--pointed", "--mc", "--emit", "--max-arity"],
    "invariants": [],
    "hspace": [],
}

PARAMETERS = {
    mapping_space_model: ["C", "L", "max_k"],
    convolution_linf: ["C", "L", "hom"],
    component_model: ["model", "phi"],
    reduced_bs_direct: ["B", "A"],
    reduced_bs_cochain: ["model", "source", "target"],
    perturb: ["L", "mc"],
    mc_check: ["L", "z"],
    # `words` is the one parameter that only tests set; the benchmark's
    # tracer binds it by name
    transfer_linf: ["L", "r", "max_k", "words"],
    transfer_ainf: ["C", "r", "max_k"],
    linf_from_cdga: ["A"],
    cochain: ["L", "names", "orient"],
    truncate: ["L"],
    CDGA: ["gens", "diff"],
    CDGA.of: ["gens", "d"],
    CDGA.monomial_basis: ["self", "max_cohom"],
    FiniteCDGA: ["parent", "max_cohom"],
    AInfCoalgebra: ["space", "ops", "counit"],
    LInfAlgebra: ["space", "ops"],
    quillen: ["C"],
    quillen_differential_direct: ["C"],
    hom_retract: ["r", "L"],
    dual_coalgebra: ["B", "counital"],
    # one form per relation: no parameter selects signs, a word kind or a label
    check_ainf: ["C"],
    check_linf: ["L"],
    _ainf_total: ["C", "gen", "i"],
    _jacobi_total: ["L", "factors", "n"],
    _candidate_words: ["L", "n", "index"],
    tensor_apply: ["slots", "arities", "el"],
    arity_cap: ["max_k", "derived"],
    hspace_certificate: ["x_side", "y_side"],
    word_basis: ["space", "kind", "arity"],
    GradedMap.apply_word: ["self", "word"],
}


def help_text(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--help"]) == 0
    return out.getvalue()


def test_subcommands_and_their_flags():
    commands = re.search(r"\{([a-z,-]+)\}", help_text([])).group(1).split(",")
    assert commands == list(FLAGS)
    for command, flags in FLAGS.items():
        found = dict.fromkeys(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text([command])))
        found.pop("--help")
        assert list(found) == flags, command


def test_engine_parameters():
    for fn, params in PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__


def test_no_wrappers_of_a_single_call():
    assert not hasattr(AInfCoalgebra, "shifted")
    assert not hasattr(LInfAlgebra, "shifted")
    assert not hasattr(cli, "fmt_scalar")
    assert not hasattr(functors, "FreeLieElement")
    assert not hasattr(structures, "MaurerCartanElement")
    assert not hasattr(structures, "iterated_coproduct")
    # mc_check reads the curvature off _twisted on the empty word
    assert not hasattr(structures, "mc_residual")
    # one decalage rule, core.suspend_map, in place of its seven copies
    assert not hasattr(core, "suspend_element")
    assert not hasattr(structures, "unshift_coop")
    assert not hasattr(structures, "unshift_bracket")
    # each relation has one checker; the shifted forms are test oracles
    assert not hasattr(structures, "_check_coherence")
    assert not hasattr(structures, "_check_jacobi")
    assert not hasattr(transfer, "_shift_map")
    assert not hasattr(transfer, "_as_wedge_op")
    assert not hasattr(GradedMap, "support")
    # the transfers read the canonical retract in place, h negated where read
    assert not hasattr(transfer, "_shift_retract")
    assert not hasattr(transfer, "_ShiftedRetract")
    # each structure check runs in its constructor, its only caller
    assert not hasattr(functors.FreeLieDGL, "validate")
    assert not hasattr(transfer.HomotopyRetract, "validate")
    # the A-infinity transfer evaluates its recursion per basis element
    assert not hasattr(transfer, "_coop_map")
    assert not hasattr(GradedMap, "compose")
    # dual_coalgebra reads the parent CDGA's derivation and degrees; the
    # terms outside the window land in rows that no op reads
    assert not hasattr(FiniteCDGA, "truncate")
    assert not hasattr(FiniteCDGA, "d")
    assert not hasattr(FiniteCDGA, "cohom_degree")
    # one split of a Lie element by weight, functors.weight_parts
    assert not hasattr(functors, "weights")
    assert not hasattr(functors, "weight_component")
    sphere = AInfCoalgebra(GradedSpace.of([("e", 5)]), {})
    mm = mapping_space_model(sphere, LInfAlgebra(GradedSpace.of([("x", 2)]), {}))
    assert not hasattr(mm, "retract")


def test_readme_library_tour():
    # the one python block of README.md, the documented use of the library
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
