import ast
import io
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from htcas import cli
from htcas.cli import ParseError, main, parse, serialize
from htcas.core import AxiomError, Element, Word

MODELS = Path(__file__).resolve().parent.parent / "models"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def linf_file(tmp_path, model):
    """The shipped cdga model `model`, written as a linf file."""
    from htcas.functors import linf_from_cdga

    return write(tmp_path, f"{model}.linf",
                 serialize(linf_from_cdga(parse(str(MODELS / f"{model}.cdga")).payload)))


def test_parse_shipped_models():
    for f in MODELS.iterdir():
        mf = parse(str(f))
        assert mf.payload is not None


def test_round_trip_all_kinds(tmp_path, cbar, target_dgl):
    from htcas.functors import CDGA

    sources = {
        "m.cdga": serialize(CDGA.of([("x", 4), ("y", 7), ("z", 10)],
                                    {"z": [(1, ("x", "y"))]})),
        "m.dgc": serialize(cbar),
        "m.linf": serialize(target_dgl),
    }
    for name, text in sources.items():
        p = write(tmp_path, name, text)
        mf = parse(p)
        assert serialize(mf.payload) == text
    # an Element is no structure: it has no model format
    with pytest.raises(TypeError, match="^cannot serialize Element$") as exc:
        serialize(Element.zero(mf.payload.space))
    assert exc.type is TypeError


def test_round_trip_ainf(tmp_path, cbar):
    from htcas.transfer import (
        ChainComplex,
        homology_decomposition,
        retract_from_decomposition,
        transfer_ainf,
    )

    r = retract_from_decomposition(
        homology_decomposition(ChainComplex(cbar.space, cbar.delta(1)))
    )
    H = transfer_ainf(cbar, r)
    text = serialize(H, kind="ainf")
    p = write(tmp_path, "m.ainf", text)
    mf = parse(p)
    assert serialize(mf.payload, kind="ainf") == text


def test_round_trip_dgl(tmp_path):
    text = (MODELS / "example2_X.dgl").read_text()
    p = write(tmp_path, "m.dgl", "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("#")) + "\n")
    mf = parse(p)
    assert serialize(mf.payload) == serialize(parse(str(MODELS / "example2_X.dgl")).payload)
    # serialization is stable under reparsing
    again = write(tmp_path, "m2.dgl", serialize(mf.payload))
    assert serialize(parse(again).payload) == serialize(mf.payload)


def test_parse_error_locations(tmp_path):
    p = write(tmp_path, "bad.cdga", "kind cdga\ngen a : 3\nd a = a$b\n")
    with pytest.raises(ParseError) as exc:
        parse(p)
    assert ":3:" in str(exc.value)
    p = write(tmp_path, "bad2.cdga", "kind cdga\ngen a : 3\nd a = q\n")
    with pytest.raises(ParseError) as exc:
        parse(p)
    assert "unknown generator" in str(exc.value)


def test_degree_mismatch_rejected(tmp_path, capsys):
    p = write(tmp_path, "bad.dgc",
              "kind dgc\ngen g : 3\ngen r : 5\ngen s : 6\ncop s = g|r\n")
    code, out, err = run(["check", p], capsys)
    assert code == 2
    assert "degree" in err
    # a dgl differential lowers the degree by one, as a dgc diff does
    p = write(tmp_path, "bad.dgl", "kind dgl\ngen a : 3\ngen b : 5\ndiff b = [a,a]\n")
    code, out, err = run(["check", p], capsys)
    assert code == 2 and out == ""
    assert err.startswith(p + ":4:0: diff b must have degree 4, got 6")


def test_axiom_failure_exit_code(tmp_path, capsys):
    # coassociativity fails: cop w hits s but cop s is missing
    p = write(
        tmp_path, "bad.dgc",
        "kind dgc\ngen g : 3\ngen s : 6\ngen w : 9\ncop w = g|s - s|g\n"
        "cop s = g|g\n",
    )
    code, out, err = run(["check", p], capsys)
    assert code == 3


def test_axiom_exit_code_ignores_generator_names(tmp_path, capsys):
    # d^2 (degree) = x^3 != 0; the generator name must not pick the exit code
    text = ("kind cdga\ngen x : 2\ngen z : 3\ngen {0} : 4\n"
            "d z = x^x\nd {0} = x^z\n")
    for name in ("degree", "w"):
        p = write(tmp_path, f"{name}.cdga", text.format(name))
        code, out, err = run(["check", p], capsys)
        assert code == 3 and f"d^2 != 0 on generator {name}" in err


def test_empty_generator_list_is_valid(tmp_path, capsys):
    p = write(tmp_path, "triv.dgc", "kind dgc\n")
    code, out, err = run(["check", p], capsys)
    assert code == 0


def test_check_command(capsys):
    code, out, err = run(["check", str(MODELS / "example1_X.cdga")], capsys)
    assert code == 0 and "ok" in out


def test_usage_error(capsys, monkeypatch):
    # an argv that names no command builds every subparser, so the usage
    # and the error list all eight; one that names a command builds its
    # parser alone, under the same prog
    monkeypatch.setenv("COLUMNS", "80")
    choices = "{" + ",".join(cli._COMMANDS) + "}"
    code, out, err = run(["frobnicate"], capsys)
    assert (code, out) == (1, "")
    *usage, error = err.splitlines()
    assert usage == ["usage: htcas [-h]", f"             {choices}", "             ..."]
    assert error.startswith("htcas: error: argument command: invalid choice: 'frobnicate' (")
    assert re.findall(r"[\w-]+", error.partition("(choose from ")[2]) == list(cli._COMMANDS)
    code, out, err = run(["mapmodel", "x"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: htcas mapmodel [-h] [--pointed] [--mc MC]")
    assert err.endswith("\nhtcas mapmodel: error: the following arguments are required: yfile\n")
    # an unknown option is reported by the top-level parser, whose usage
    # still lists every command
    code, out, err = run(["mapmodel", "x", "y", "--bogus"], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[1] == f"             {choices}"
    # main() reads sys.argv when given no argv, as the console script calls it
    x = str(MODELS / "example1_X.cdga")
    monkeypatch.setattr(sys, "argv", ["htcas", "check", x])
    assert main() == 0
    assert capsys.readouterr().out == f"{x}: cdga ok (3 generators)\n"
    monkeypatch.setattr(sys, "argv", ["htcas", "frobnicate"])
    assert main() == 1
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_transfer_ainf_command(capsys, tmp_path):
    code, out, err = run(
        ["dualize", str(MODELS / "example1_X.cdga")], capsys
    )
    assert code == 0
    p = write(tmp_path, "cbar.dgc", out)
    code, out, err = run(["transfer-ainf", p], capsys)
    assert code == 0
    assert "D3 a.c = a|a|b - 2 a|b|a + b|a|a" in out


def test_quillen_commands(capsys, tmp_path):
    code, out, err = run(["dualize", str(MODELS / "example1_X.cdga")], capsys)
    p = write(tmp_path, "cbar.dgc", out)
    code, direct, err = run(["quillen", "--direct", p], capsys)
    assert code == 0 and "kind dgl" in direct
    code, cobar, err = run(["quillen", p], capsys)
    assert code == 0
    # the plain functor output keeps the linear part of the differential
    assert "diff a.b" in cobar


def test_quillen_of_the_transferred_ainf_is_the_direct_route(capsys, tmp_path):
    # the first theorem as a two-route check: the Quillen functor of the
    # higher Massey coproducts is the minimal model that the direct
    # recursion reads off the homology decomposition, byte for byte
    from helpers import oracle_sources
    from htcas.functors import dual_coalgebra

    code, out, err = run(["dualize", str(MODELS / "example1_X.cdga")], capsys)
    duals = {"ex1": out}
    duals.update((tag, serialize(dual_coalgebra(B, counital=False)))
                 for tag, B in oracle_sources() if tag in ("n4", "n5"))
    for tag, text in duals.items():
        dgc = write(tmp_path, f"{tag}.dgc", text)
        code, out, err = run(["transfer-ainf", dgc], capsys)
        assert code == 0, tag
        ainf = write(tmp_path, f"{tag}.ainf", out)
        code, cobar, err = run(["quillen", ainf], capsys)
        assert code == 0 and err == "", tag
        assert cobar == run(["quillen", "--direct", dgc], capsys)[1], tag
    # the direct recursion reads a dgc only
    assert run(["quillen", "--direct", ainf], capsys) == (
        2, "", "validation failure: quillen --direct expects a dgc model, got ainf\n")


def test_colliding_basis_names_are_named(capsys, tmp_path):
    # dotted names can give two Hom or Brown-Szczarba basis elements one
    # name; the refusal names it and both (c, x) pairs.  w puts the top
    # degree of L at 7, so the pointed source keeps a.b (degree 6)
    x = write(tmp_path, "ab.cdga", "kind cdga\ngen a : 3\ngen b : 3\n")
    y = write(tmp_path, "y.cdga", "kind cdga\ngen x : 4\ngen b.x : 4\ngen w : 8\n")
    assert run(["mapmodel", x, y, "--pointed", "--emit", "bs"], capsys) == (
        2, "", "validation failure: basis name \"a.b.x'\" is given to both "
               "(c, x) = (a, b.x') and (a.b, x')\n")
    # without w the pointed source stops at degree 4, so (a.b, x'), of
    # degree -3, is never built and a.b.x' names one map
    y = write(tmp_path, "y3.cdga", "kind cdga\ngen x : 4\ngen b.x : 4\n")
    code, out, err = run(["mapmodel", x, y, "--pointed", "--emit", "bs"], capsys)
    assert code == 0 and "gen b.x.a : 1\n" in out
    # y and y' both give the generator name y.a in the reduced model
    y = write(tmp_path, "y.linf", "kind linf\ngen y : 5\ngen y' : 5\n")
    assert run(["mapmodel", x, y, "--pointed", "--emit", "bs"], capsys) == (
        2, "", "validation failure: basis name 'y.a' is given to both "
               "(c, x) = (a, y) and (a, y')\n")
    code, out, err = run(["mapmodel", x, y, "--pointed", "--emit", "linf"], capsys)
    assert code == 0 and "gen a.y' : 2" in out
    # the dual monomial a^b and the generator a.b, and the unit and a
    # generator one, give one dual basis name
    ab = write(tmp_path, "ab7.cdga", "kind cdga\ngen a : 3\ngen b : 3\ngen a.b : 7\n")
    assert run(["dualize", ab], capsys) == (
        2, "", "validation failure: basis name 'a.b' is given to both "
               "monomials (a.b) and (a, b)\n")
    one = write(tmp_path, "one.cdga", "kind cdga\ngen one : 3\ngen b : 3\n")
    assert run(["dualize", "--full", one], capsys) == (
        2, "", "validation failure: basis name 'one' is given to both monomials () and (one)\n")
    # (a.b, x) and (b, x.a) both give x.a.b on the substitution route; the
    # pointed model drops the first, of degree -2, so route 1 names x.a.b once
    from htcas.core import ValidationError
    from htcas.functors import FiniteCDGA
    from htcas.mapping import reduced_bs_direct

    xa = write(tmp_path, "xa.cdga", "kind cdga\ngen x : 4\ngen x.a : 4\n")
    code, out, err = run(["mapmodel", x, xa, "--pointed", "--emit", "bs"], capsys)
    assert code == 0 and out.count("gen x.a.b : 1\n") == 1
    with pytest.raises(ValidationError, match=r"^basis name 'x\.a\.b' is given to both "
                                              r"\(c, v\) = \(b, x\.a\) and \(a\.b, x\)$"):
        reduced_bs_direct(FiniteCDGA(parse(x).payload), parse(xa).payload)


def test_cochain_command(capsys, tmp_path):
    from htcas.functors import linf_from_cdga
    from htcas.cli import serialize as ser

    A = parse(str(MODELS / "example1_Y.cdga")).payload
    text = ser(linf_from_cdga(A))
    p = write(tmp_path, "m.linf", text)
    code, out, err = run(["cochain", p], capsys)
    assert code == 0
    assert "d z = x^y" in out and "d t = y^z" in out


def test_invariants_commands(capsys, tmp_path):
    code, out, err = run(["invariants", str(MODELS / "example2_X.dgl")], capsys)
    assert code == 0
    assert "bl = 3" in out and "[a,[a,b]]" in out
    code, out, err = run(["invariants", str(MODELS / "example2_Y.cdga")], capsys)
    assert code == 0
    assert "dl = 2" in out and "Wl = 2" in out
    # a linf model has its Whitehead length only
    y = linf_file(tmp_path, "example2_Y")
    code, out, err = run(["invariants", y], capsys)
    assert code == 0 and out.startswith("Wl = 2  (witness: [v',v'])") and "dl" not in out


def test_invariants_wl_skip_and_errors(tmp_path, capsys, monkeypatch):
    # a generator of degree 1 leaves L = s^{-1}V not positively graded: dl only
    p = write(tmp_path, "deg1.cdga", "kind cdga\ngen a : 1\ngen b : 1\ngen c : 1\nd c = a^b\n")
    code, out, err = run(["invariants", p], capsys)
    assert code == 0 and "dl = 2" in out and "Wl" not in out
    # every other failure of the Wl route reaches main: an AxiomError exits 3
    def failing(A):
        raise AxiomError("generalized Jacobi fails")

    monkeypatch.setattr(cli, "linf_from_cdga", failing)
    code, out, err = run(["invariants", str(MODELS / "example2_Y.cdga")], capsys)
    assert code == 3 and "generalized Jacobi fails" in err


def test_hspace_command(capsys):
    code, out, err = run(
        ["hspace", str(MODELS / "example2_X.dgl"), str(MODELS / "example2_Y.cdga")],
        capsys,
    )
    assert code == 0
    assert "yes-by-theorem" in out


def test_mapmodel_command(capsys, tmp_path):
    code, out, err = run(
        ["mapmodel", str(MODELS / "example1_X.cdga"), str(MODELS / "example1_Y.cdga"),
         "--pointed", "--emit", "bs"],
        capsys,
    )
    assert code == 0
    gens = [ln for ln in out.splitlines() if ln.startswith("gen ")]
    assert len(gens) == 13
    assert "d t.a.b.c = - z.a.c^y.b + z.b.c^y.a" in out
    # byte-identical across runs
    code2, out2, err2 = run(
        ["mapmodel", str(MODELS / "example1_X.cdga"), str(MODELS / "example1_Y.cdga"),
         "--pointed", "--emit", "bs"],
        capsys,
    )
    assert out2 == out
    # identifiers may contain dots: the Hom names c.x are split by the pair
    # that built them, so renaming x to x.1 renames it in the output alone
    text = (MODELS / "example1_Y.cdga").read_text()
    dotted = write(tmp_path, "y.cdga", re.sub(r"\bx\b", "x.1", text))
    code3, out3, err3 = run(
        ["mapmodel", str(MODELS / "example1_X.cdga"), dotted, "--pointed", "--emit", "bs"],
        capsys,
    )
    assert (code3, err3) == (0, "") and "x.1.a" in out3
    assert out3.replace("x.1", "x") == out


def test_linf_target_reads_as_its_cdga(tmp_path, capsys):
    # the target of mapmodel and hspace may be the linf model of a cdga
    x1, y1 = str(MODELS / "example1_X.cdga"), str(MODELS / "example1_Y.cdga")
    x2, y2 = str(MODELS / "example2_X.dgl"), str(MODELS / "example2_Y.cdga")
    for argv, model in ((["mapmodel", x1, y1, "--pointed", "--emit", "both"], "example1_Y"),
                        (["hspace", x2, y2], "example2_Y")):
        code, want, err = run(argv, capsys)
        assert code == 0 and want, argv
        argv[2] = linf_file(tmp_path, model)
        assert run(argv, capsys) == (0, want, ""), argv


def test_mc_file_picks_the_component(tmp_path, capsys):
    # the zero MC element gives the model of the run without --mc; a name
    # outside Hom(H, L) is a validation failure
    argv = ["mapmodel", str(MODELS / "example1_X.cdga"), str(MODELS / "example1_Y.cdga"),
            "--pointed", "--emit", "both"]
    code, want, err = run(argv, capsys)
    assert code == 0
    zero = write(tmp_path, "zero.mc", "kind mc\ngen a.x' : 0\nmc = 0\n")
    assert run(argv + ["--mc", zero], capsys) == (0, want, "")
    outside = write(tmp_path, "q.mc", "kind mc\ngen q : -1\nmc = q\n")
    code, out, err = run(argv + ["--mc", outside], capsys)
    assert code == 2 and out == "" and err == "validation failure: unknown name 'q'\n"


def test_mc_file_degrees_must_match_the_model(tmp_path, capsys):
    # phi is rebuilt in the model's space by name, so a name that the mc
    # file declares with another degree is refused, not read at the model's
    x = write(tmp_path, "ab.cdga", "kind cdga\ngen a : 3\ngen b : 3\n")
    y = write(tmp_path, "xyzt.cdga", "kind cdga\ngen x : 3\ngen y : 3\ngen z : 5\ngen t : 7\n"
                                     "d z = x^y\nd t = x^z\n")
    argv = ["mapmodel", x, y, "--pointed", "--emit", "linf", "--max-arity", "3", "--mc"]
    ok = write(tmp_path, "ok.mc", "kind mc\ngen a.x' : -1\nmc = a.x'\n")
    code, out, err = run(argv + [ok], capsys)
    assert code == 0 and out and err == ""
    bad = write(tmp_path, "bad.mc", "kind mc\ngen a.x' : 7\nmc = a.x'\n")
    assert run(argv + [bad], capsys) == (
        2, "", f"validation failure: \"a.x'\" has degree 7 in {bad}, but -1 in the model\n")


def test_bound_exceeded_exit_code(tmp_path, capsys):
    # even generators make the free algebra infinite: dualize needs truncate
    p = write(tmp_path, "even.cdga", "kind cdga\ngen u : 2\n")
    code, out, err = run(["dualize", p], capsys)
    assert code == 4 and "truncate" in err
    # the pointed model's cut at the target's top degree never stands in
    # for the missing directive
    y = str(MODELS / "example1_Y.cdga")
    assert run(["mapmodel", p, y, "--pointed"], capsys) == (
        4, "", "bound exceeded: dualizing a CDGA with even generators needs `truncate <N>`\n")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_failing_command_leaves_stdout_empty(command, tmp_path, capsys):
    # a handler returns its whole text and main alone writes it, so no
    # command writes anything when it fails; each input below is refused by
    # its command, mapmodel's only after the L-infinity model is built
    x, y = str(MODELS / "example1_X.cdga"), str(MODELS / "example1_Y.cdga")
    full = write(tmp_path, "full.dgc", run(["dualize", "--full", x], capsys)[1])
    cases = {
        "check": ([write(tmp_path, "bad.cdga", "kind cdga\ngen 5 : 3\n")], 2),
        "transfer-ainf": ([full], 4),
        "quillen": ([full], 2),
        "cochain": ([y], 2),
        "dualize": ([write(tmp_path, "even.cdga", "kind cdga\ngen u : 2\n")], 4),
        "mapmodel": ([write(tmp_path, "x.cdga", "kind cdga\ngen a : 3\ngen b : 3\ngen c : 3\n"
                                                "gen e : 3\n"),
                      write(tmp_path, "y.linf", "kind linf\ngen p : 4\ngen q : 4\ngen r : 4\n"
                                                "gen s : 4\ngen y : 18\n"
                                                "l4 ( p ^ q ^ r ^ s ) = y\n"),
                      "--pointed", "--emit", "both", "--max-arity", "4"], 4),
        "invariants": ([write(tmp_path, "x.dgc", "kind dgc\ngen x : 0\ncop x = x|x\n")], 2),
        "hspace": ([full, y], 2),
    }
    args, want = cases[command]
    code, out, err = run([command, *args], capsys)
    assert (code, out) == (want, "") and err


def test_main_alone_writes_to_stdout():
    # the rule that the test above checks command by command, in the source
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for call in ast.walk(fn) if isinstance(call, ast.Call)
               and (ast.unparse(call.func) == "sys.stdout.write"
                    or ast.unparse(call.func) == "print"
                    and "file" not in [k.arg for k in call.keywords])]
    assert writers == ["main"]


def test_refused_bs_model_leaves_stdout_empty(tmp_path, capsys):
    # the BS model is built before either model is written, so a nonzero
    # arity-4 bracket refuses `--emit both` before the L-infinity model
    x = write(tmp_path, "x.cdga", "kind cdga\ngen a : 3\ngen b : 3\ngen c : 3\ngen e : 3\n")
    y = write(tmp_path, "y.linf", "kind linf\ngen p : 4\ngen q : 4\ngen r : 4\ngen s : 4\n"
                                  "gen y : 18\nl4 ( p ^ q ^ r ^ s ) = y\n")
    for emit in ("bs", "both"):
        code, out, err = run(["mapmodel", x, y, "--pointed", "--emit", emit, "--max-arity", "4"],
                             capsys)
        assert code == 4 and out == "" and "a nonzero arity-4 bracket is present" in err, emit


def test_truncate_that_cuts_no_dg_ideal_is_refused(tmp_path, capsys):
    # B^{>7} of Lambda(a-1, b3, c5) holds b.c (degree 8) but not a.b.c
    # (degree 7), so the cut is no dg ideal and its dual failed its own
    # A-infinity check (exit 3); it is refused by name, and the default
    # cutoff, the top monomial's degree 8, still dualizes
    gens = "kind cdga\ngen a : -1\ngen b : 3\ngen c : 5\n"
    y = write(tmp_path, "xyzt.cdga", "kind cdga\ngen x : 3\ngen y : 3\ngen z : 5\ngen t : 7\n"
                                     "d z = x^y\nd t = x^z\n")
    cut = write(tmp_path, "cut.cdga", gens + "truncate 7\n")
    whole = write(tmp_path, "whole.cdga", gens)
    err = ("validation failure: truncate 7 cuts no dg ideal: the monomial b.c of degree 8 "
           "lies above it, but its product with the generator a of degree -1 does not\n")
    for command, rest in {"dualize": [], "mapmodel": [y, "--pointed", "--max-arity", "3"]}.items():
        assert run([command, cut, *rest], capsys) == (2, "", err), command
        code, out, _ = run([command, whole, *rest], capsys)
        assert code == 0 and out, command


def test_non_positive_even_generator_is_refused(tmp_path):
    # the powers of an even generator of degree <= 0 never pass the degree
    # cutoff; run in a child with a timeout, so a hang fails instead of
    # stalling the suite
    y = str(MODELS / "example1_Y.cdga")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for text in ("kind cdga\ngen x : 0\ntruncate 3\n",
                 "kind cdga\ngen x : -2\ngen y : 3\ntruncate 3\n"):
        x = write(tmp_path, "x.cdga", text)
        for argv in (["dualize", x], ["mapmodel", x, y]):
            proc = subprocess.run(
                [sys.executable, "-I", "-B", "-c",
                 f"import sys; sys.path.insert(0, {src!r}); from htcas import cli; "
                 "sys.exit(cli.main(sys.argv[1:]))", *argv],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 4 and proc.stdout == "", (text, argv)
            assert "generator x " in proc.stderr, (text, argv)


def _nested_bracket(weight: int) -> str:
    """A dgl model with d c = [a,[b,[a,...]]], `weight` letters alternating a3, b4."""
    letters = "ab" * (weight // 2) + "a" * (weight % 2)
    tree = letters[-1]
    for f in reversed(letters[:-1]):
        tree = f"[{f},{tree}]"
    degree = sum(3 if f == "a" else 4 for f in letters) + 1
    return f"kind dgl\ngen a : 3\ngen b : 4\ngen c : {degree}\ndiff c = {tree}\n"


def test_nested_bracket_is_refused_in_time(tmp_path, capsys):
    # the Dynkin check of the weight-16 bracket took 24 s before it was
    # bounded: its 4,284 words bracket into 140 M; a weight-30 tree is
    # refused before it is expanded into 2^29 words
    from htcas.functors import LIE_WORD_BOUND

    bound = f"over the bound of {LIE_WORD_BOUND:,}"
    assert run(["check", write(tmp_path, "w12.dgl", _nested_bracket(12))], capsys)[0] == 0
    start = time.perf_counter()
    code, out, err = run(["check", write(tmp_path, "w16.dgl", _nested_bracket(16))], capsys)
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert f"weight-16 component of 4,284 words expands to 140,378,112 tensor words, {bound}" in err
    code, out, err = run(["check", write(tmp_path, "w30.dgl", _nested_bracket(30))], capsys)
    assert code == 4 and out == ""
    assert f"a bracket tree of weight 30 expands to 536,870,912 tensor words, {bound}" in err


def test_coproduct_growth_is_refused(tmp_path, capsys, monkeypatch):
    # each Delta^{(k)} is counted before it is built: on the n5 dual the
    # counts of Delta^{(2)} to Delta^{(5)} are 390, 360, 120 and 0
    from htcas import structures

    n5 = write(tmp_path, "n5.cdga", "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\n"
                                    "gen f : 5\nd c = + a^b\nd f = + a^e\n")
    dual = write(tmp_path, "n5.dgc", run(["dualize", n5], capsys)[1])
    assert run(["invariants", dual], capsys)[1] == "conilpotence = 5\n"
    monkeypatch.setattr(structures, "COPRODUCT_TERM_BOUND", 389)
    code, out, err = run(["invariants", dual], capsys)
    assert code == 4 and out == ""
    assert "Delta^{(2)} has 390 terms before cancellation, over the bound of 389" in err


def test_monomial_growth_is_refused(tmp_path, capsys):
    # each level of the monomial basis is counted before it is built: x^k
    # is a tuple of k letters, so the memory of x2 with `truncate 200000`
    # grows with its square; mapmodel without --pointed dualizes it whole
    big = write(tmp_path, "big.cdga", "kind cdga\ngen x : 2\ntruncate 200000\n")
    target = str(MODELS / "example1_Y.cdga")
    for argv in (["dualize", big], ["mapmodel", big, target]):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 4 and out == ""
        assert ("4,097 monomials of length <= 4,096 have degree <= 200000, the degree "
                "cutoff: over the bound of 4,096 monomials") in err


def test_closed_stdout_ends_quietly():
    # a reader that closes its end early (`htcas ... | head -1`) ends the
    # command with 128 + SIGPIPE and nothing on stderr, output still buffered
    # when the command returns and argparse's help text included
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["--help"], ["check", str(MODELS / "example1_X.cdga")],
                 ["dualize", str(MODELS / "example1_X.cdga")]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-I", "-B", "-c",
                 f"import sys; sys.path.insert(0, {src!r}); from htcas import cli; "
                 "sys.exit(cli.main(sys.argv[1:]))", *argv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), argv


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    # the engine iterates sets of names (the letter index among them); two
    # interpreters with different string hash seeds print the same bytes
    y = str(MODELS / "example1_Y.cdga")
    n4 = write(tmp_path, "n4.cdga",
               "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\nd c = + a^b\n")
    n5 = write(tmp_path, "n5.cdga", "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\n"
                                    "gen f : 5\nd c = + a^b\nd f = + a^e\n")
    dual = write(tmp_path, "n5.dgc", run(["dualize", n5], capsys)[1])
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["mapmodel", n4, y, "--pointed", "--emit", "both", "--max-arity", "4"],
                 ["transfer-ainf", dual]):
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-B", "-c",
                 f"import sys; sys.path.insert(0, {src!r}); from htcas import cli; "
                 "sys.exit(cli.main(sys.argv[1:]))", *argv],
                env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, timeout=120)
            assert proc.returncode == 0 and proc.stdout, (argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv


def test_dualize_cutoff_is_the_top_monomial_degree(tmp_path, capsys):
    # Lambda(a3, x-1): the top monomial x.a has degree 2, but a itself has
    # degree 3, so the cutoff is the sum of the positive degrees
    x = write(tmp_path, "x.cdga", "kind cdga\ngen a : 3\ngen x : -1\n")
    assert run(["dualize", x], capsys) == (
        0, "kind dgc\ngen x : -1\ngen a : 3\ngen x.a : 2\ncop x.a = x|a - a|x\n", "")


def test_wrong_model_kind_exit_code(tmp_path, capsys):
    # a model of the wrong kind is a validation failure, not a bound
    x = str(MODELS / "example1_X.cdga")
    y = str(MODELS / "example1_Y.cdga")
    code, out, err = run(["dualize", x], capsys)
    assert code == 0
    dgc = write(tmp_path, "x.dgc", out)
    mc = write(tmp_path, "z.mc", "kind mc\ngen a.x' : 0\nmc = 0\n")
    for argv in (
        ["transfer-ainf", x],
        ["quillen", x],
        ["cochain", x],
        ["dualize", dgc],
        ["mapmodel", dgc, y],
        ["mapmodel", x, dgc],
        ["mapmodel", x, y, "--pointed", "--mc", y],
        # without --pointed the file would be ignored, even a missing one
        ["mapmodel", x, y, "--mc", mc],
        ["mapmodel", x, y, "--mc", str(tmp_path / "missing.mc")],
        ["invariants", mc],
        ["hspace", x, y],
        ["hspace", dgc, dgc],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and "validation failure" in err and out == "", argv
    # the refusal names the reader and the kind it got
    for argv, want in ((["transfer-ainf", x], "transfer-ainf expects a dgc model, got cdga"),
                       (["mapmodel", x, dgc], "mapmodel target expects a linf or cdga model, "
                                              "got dgc"),
                       (["invariants", mc], "invariants expects a cdga or dgl or linf or dgc "
                                            "model, got mc")):
        assert run(argv, capsys) == (2, "", f"validation failure: {want}\n"), argv


def test_refusals_state_their_reason(tmp_path, capsys):
    # inputs each command refuses with exit 2, and the one stderr line it prints
    x = str(MODELS / "example1_X.cdga")
    y = str(MODELS / "example1_Y.cdga")
    full = write(tmp_path, "full.dgc", run(["dualize", "--full", x], capsys)[1])
    # Delta(c) = a|b has no b|a term, so the coalgebra is not cocommutative
    skew = write(tmp_path, "skew.dgc", "kind dgc\ngen a : 3\ngen b : 3\ngen c : 6\ncop c = a|b\n")
    primes = write(tmp_path, "primes.linf", "kind linf\ngen x : 2\ngen x' : 3\n")
    deg0 = write(tmp_path, "deg0.linf", "kind linf\ngen x : 0\ngen y : 2\n")
    mc0 = write(tmp_path, "deg0.mc", "kind mc\ngen a.x' : 0\nmc = a.x'\n")
    linear = write(tmp_path, "linear.cdga", "kind cdga\ngen c : 6\ngen e : 5\nd e = + c\n")
    dgl = write(tmp_path, "linear.dgl", "kind dgl\ngen a : 2\ngen b : 3\ndiff b = a\n")
    linf = write(tmp_path, "linear.linf", "kind linf\ngen x : 2\ngen y : 1\nl1 ( x ) = y\n")
    ab = write(tmp_path, "ab.cdga", "kind cdga\ngen a : 3\ngen b : 3\n")
    xyzt = write(tmp_path, "xyzt.cdga", "kind cdga\ngen x : 3\ngen y : 3\ngen z : 5\n"
                                        "gen t : 7\nd z = x^y\nd t = x^z\n")
    mc = write(tmp_path, "bad.mc", "kind mc\ngen a.x' : -1\ngen b.y' : -1\nmc = a.x' + b.y'\n")
    for argv, want in (
        (["quillen", full], "quillen expects a reduced coalgebra"),
        (["quillen", "--direct", full], "the direct recursion expects a reduced coalgebra"),
        (["quillen", skew], "quillen needs a cocommutative input: "
                            "FAIL at tau on Delta_2(c), split a|b"),
        (["quillen", "--direct", skew], "the direct recursion needs a cocommutative input: "
                                        "FAIL at tau on Delta_2(c), split a|b"),
        (["hspace", skew, y], "the direct recursion needs a cocommutative input: "
                              "FAIL at tau on Delta_2(c), split a|b"),
        (["cochain", primes], "basis name 'x' is given to both generators x and x'"),
        (["invariants", deg0], "Whitehead length needs a positively graded algebra"),
        (["mapmodel", x, y, "--pointed", "--mc", mc0],
         "Maurer-Cartan elements have degree -1, got 0"),
        (["invariants", linear], "differential length needs a minimal Sullivan algebra"),
        (["invariants", dgl], "bracket length needs a minimal model (no linear part)"),
        (["invariants", linf], "Whitehead length needs a minimal structure"),
        (["mapmodel", ab, xyzt, "--pointed", "--max-arity", "3", "--mc", mc],
         "Maurer-Cartan equation fails, residual -1*a.b.z'"),
    ):
        assert run(argv, capsys) == (2, "", f"validation failure: {want}\n"), argv


def test_engine_fault_is_not_an_input_error(capsys, monkeypatch):
    # a plain ValueError raised inside the engine is a fault, not a refusal
    # of the input: it leaves main with its traceback instead of exit 2
    def faulty(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli, "dual_coalgebra", faulty)
    with pytest.raises(ValueError, match="engine fault"):
        main(["dualize", str(MODELS / "example1_X.cdga")])
    assert capsys.readouterr().err == ""


def test_arity_cap_below_two_exit_code(tmp_path, capsys):
    # a cap below 2 would drop every co-operation or bracket of the model
    x = str(MODELS / "example1_X.cdga")
    y = str(MODELS / "example1_Y.cdga")
    code, out, err = run(["dualize", x], capsys)
    dgc = write(tmp_path, "x.dgc", out)
    for cap in ("0", "1", "-3"):
        for argv in (["transfer-ainf", dgc, f"--max-arity={cap}"],
                     ["mapmodel", x, y, "--pointed", f"--max-arity={cap}"]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and "at least 2" in err, argv
    code, out, err = run(["transfer-ainf", dgc, "--max-arity=2"], capsys)
    assert code == 0 and "D2" in out


def test_underivable_cap_names_the_flag(tmp_path, capsys):
    # the full dual keeps its counit, so no arity cap can be derived; the
    # refusal names the flag that gives one
    x = str(MODELS / "example1_X.cdga")
    y = str(MODELS / "example1_Y.cdga")
    code, out, err = run(["dualize", "--full", x], capsys)
    dgc = write(tmp_path, "full.dgc", out)
    for argv in (["mapmodel", x, y, "--emit", "linf"], ["transfer-ainf", dgc]):
        code, out, err = run(argv, capsys)
        assert code == 4 and out == "" and "--max-arity" in err, argv


def test_unreadable_input_is_a_located_parse_error(tmp_path, capsys):
    # a missing file, a directory and a file that is not UTF-8
    binary = tmp_path / "binary.cdga"
    binary.write_bytes(b"kind cdga\ngen a : 3\n\xff\xfe\n")
    for path in (str(tmp_path / "missing.cdga"), str(tmp_path), str(binary)):
        with pytest.raises(ParseError, match=f"^{re.escape(path)}:1:0: cannot read the file"):
            parse(path)
        code, out, err = run(["check", path], capsys)
        assert code == 2 and out == "" and err.startswith(f"{path}:1:0: "), path


def test_empty_homology_derives_the_least_cap(tmp_path, capsys):
    # a contractible source and a point have empty reduced homology: the
    # derived arity caps are 2, as if --max-arity 2 had been passed
    y1 = str(MODELS / "example1_Y.cdga")
    y2 = str(MODELS / "example2_Y.cdga")
    sources = {
        "contr": "kind cdga\ngen u : 3\ngen v : 4\nd u = v\ntruncate 8\n",
        "point": "kind cdga\ngen a : 3\ntruncate 0\n",
    }
    for name, text in sources.items():
        x = write(tmp_path, f"{name}.cdga", text)
        code, dual, err = run(["dualize", x], capsys)
        dgc = write(tmp_path, f"{name}.dgc", dual)
        for argv in (["mapmodel", x, y1, "--pointed"], ["transfer-ainf", dgc]):
            code, out, err = run(argv, capsys)
            assert code == 0 and err == "", argv
            assert run(argv + ["--max-arity=2"], capsys) == (0, out, ""), argv
        code, out, err = run(["hspace", dgc, y2], capsys)
        assert code == 0 and out.startswith("verdict: yes-by-theorem"), name


def test_empty_hom_derives_the_least_cap(tmp_path, capsys):
    # a target with no generators leaves Hom(H, L) = 0, which carries no
    # brackets: the unpointed model derives the cap 2, though the counit of
    # the full dual bounds no arity by degrees
    x = str(MODELS / "example1_X.cdga")
    point = write(tmp_path, "point.cdga", "kind cdga\n")
    assert run(["mapmodel", x, point], capsys) == (0, "kind linf\n", "")
    assert run(["mapmodel", x, point, "--emit", "both"], capsys) == (
        0, "kind linf\nkind cdga\n", "")


def test_non_conilpotent_coalgebra_exit_code(tmp_path, capsys):
    # check accepts x with Delta(x) = x|x, whose iterated coproducts never vanish
    dgc = write(tmp_path, "x.dgc", "kind dgc\ngen x : 0\ncop x = x|x\n")
    code, out, err = run(["check", dgc], capsys)
    assert code == 0
    code, out, err = run(["invariants", dgc], capsys)
    assert code == 2 and "validation failure" in err and "Traceback" not in err


def test_dualize_full_round_trip(tmp_path, capsys):
    code, out, err = run(
        ["dualize", "--full", str(MODELS / "example1_X.cdga")], capsys
    )
    assert code == 0 and "counit one" in out
    p = write(tmp_path, "full.dgc", out)
    mf = parse(p)
    assert mf.payload.counit == "one"
    assert serialize(mf.payload) == out


def test_mc_file_zero(capsys, tmp_path):
    mc = "kind mc\ngen a.x' : 0\nmc = 0\n"
    p = write(tmp_path, "z.mc", mc)
    mf = parse(p)
    assert not mf.payload


CDGA_HEAD = "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\n"
DGC_HEAD = "kind dgc\ngen g : 3\ngen s : 6\n"
DGL_HEAD = "kind dgl\ngen a : 6\ngen b : 6\ngen c : 19\n"
LINF_HEAD = "kind linf\ngen x : 2\ngen y : 3\ngen z : 5\n"


def test_malformed_directives_are_parse_errors(tmp_path, capsys):
    # a directive missing its argument is located, not an IndexError
    cases = [
        ("a.dgc", "kind dgc\ngen x : 2\ncounit\n", ":3:0: expected: counit <name>"),
        ("b.cdga", "kind cdga\ngen x : 3\ntruncate\n", ":3:0: expected: truncate <N>"),
        ("c.linf", "kind linf\ngen x : 2\nl2\n", ":3:0: expected: l<k> ("),
        ("d.cdga", "kind cdga\ngen x : 3\ntruncate x\n", ":3:9: expected an integer"),
        ("e.cdga", "kind cdga\ngen x : 3\ntruncate 3/2\n", ":3:9: expected an integer"),
        ("f.dgc", "kind dgc\ngen x : 2\ncounit x x\n", ":3:0: expected: counit <name>"),
        ("g.cdga", "kind cdga\ngen a : 3 7\n", ":2:10: expected: gen <name> : <degree>"),
        ("h.linf", "kind linf\ngen x : 2\ngen y : 3\ngen z : 5\nl2 ( x y ) = z\n",
         ":5:7: expected ^ between inputs, got 'y'"),
        ("i.linf", "kind linf\ngen x : 2\ngen y : 3\ngen z : 5\nl2 ( x ^ ^ y ) = z\n",
         ":5:9: expected a generator name, got '^'"),
        # a zero denominator is located at its scalar
        ("j.mc", "kind mc\ngen x : -1\nmc = 3/0 x\n", ":3:5: zero denominator in 3/0"),
        ("k.cdga", CDGA_HEAD + "d c = 2/0 a^b\n", ":5:6: zero denominator in 2/0"),
        # no curved structures: arity-0 heads are refused
        ("l.linf", "kind linf\ngen z : -2\nl0 ( ) = z\n",
         ":3:0: the arity of l0 must be at least 1"),
        ("m.ainf", "kind ainf\ngen g : 2\ngen h : 0\nD0 g = h\n",
         ":4:0: the arity of D0 must be at least 1"),
        # a second line for one head and operand neither replaces nor adds
        # to the first
        ("n.cdga", CDGA_HEAD + "d c = a^b\nd c = - a^b\n",
         ":6:0: d(c) is already defined on line 5"),
        ("o.cdga", CDGA_HEAD + "d c = 0\nd c = a^b\n", ":6:0: d(c) is already defined on line 5"),
        ("p.dgc", DGC_HEAD + "cop s = g|g\ncop s = g|g\n",
         ":5:0: cop s is already defined on line 4"),
        ("q.dgc", DGC_HEAD + "diff s = 0\ndiff s = 0\n",
         ":5:0: diff s is already defined on line 4"),
        ("r.ainf", "kind ainf\ngen g : 3\ngen s : 6\nD2 s = g|g\nD2 s = g|g\n",
         ":5:0: D2 s is already defined on line 4"),
        ("s.dgl", "kind dgl\ngen a : 6\ngen b : 6\ngen c : 19\n"
         "diff c = [a,[a,b]]\ndiff c = [b,[a,b]]\n",
         ":6:0: diff c is already defined on line 5"),
        ("t.linf", "kind linf\ngen x : 2\ngen y : 3\ngen z : 5\n"
         "l2 ( x ^ y ) = z\nl2 ( y ^ x ) = z\n",
         ":6:0: l2 ( y ^ x ) is already defined on line 5"),
        ("u.mc", "kind mc\ngen x : -1\nmc = x\nmc = x\n", ":4:0: mc is already defined on line 3"),
        # so do a second directive and a second gen line for one name, and
        # a directive is refused where its kind does not read it
        ("v.cdga", "kind cdga\ngen a : 3\ntruncate 6\ntruncate 9\n",
         ":4:0: truncate is already defined on line 3"),
        ("w.dgc", "kind dgc\ngen x : 2\ngen y : 2\ncounit x\ncounit y\n",
         ":5:0: counit is already defined on line 4"),
        ("x.linf", "kind linf\ngen x : 2\ntruncate 4\n", ":3:0: truncate belongs to cdga files"),
        ("y.linf", "kind linf\ngen x : 2\ncounit x\n",
         ":3:0: counit belongs to dgc and ainf files"),
        ("z.cdga", "kind cdga\ngen a : 3\ngen a : 5\n", ":3:0: gen a is already defined on line 2"),
        # a term error names the column of the token it complains about, or
        # the column just past the last token at the end of the line
        ("t1.cdga", CDGA_HEAD + "d c = a^q\n", ":5:8: unknown generator 'q'"),
        ("t2.cdga", CDGA_HEAD + "d c = a^q + a^b\n", ":5:8: unknown generator 'q'"),
        ("t3.cdga", CDGA_HEAD + "d c = 2 2 + a^b\n", ":5:8: expected a generator name, got '2'"),
        ("t4.dgl", DGL_HEAD + "diff c = [a b]\n", ":5:12: expected , in bracket"),
        ("t5.dgl", DGL_HEAD + "diff c = [a,b,a]\n", ":5:13: expected closing ]"),
        ("t6.cdga", CDGA_HEAD + "d c = 3\n", ":5:6: scalar term without a word"),
        ("t7.cdga", CDGA_HEAD + "d c = 2 * + a^b\n", ":5:6: scalar term without a word"),
        ("t8.cdga", CDGA_HEAD + "d c = a^\n", ":5:8: unexpected end of line"),
        ("t9.cdga", CDGA_HEAD + "d c =\n", ":5:5: unexpected end of line"),
        ("t10.cdga", CDGA_HEAD + "d c = a^b a^b\n", ":5:10: expected + or -, got 'a'"),
        # each remaining refusal of a body line or of a file's head
        ("u1.cdga", CDGA_HEAD + "x c = a^b\n", ":5:0: expected: d <gen> = <sum>"),
        ("u2.cdga", CDGA_HEAD + "d c a^b\n", ":5:0: expected: d <gen> = <sum>"),
        ("u3.mc", "kind mc\ngen x : -1\nmc x = x\n", ":3:0: expected: mc = <sum>"),
        ("u4.cdga", CDGA_HEAD + "d q = a^b\n", ":5:2: unknown generator 'q'"),
        ("u5.linf", LINF_HEAD + "l2 ( x ^ y z\n", ":5:0: expected ( ... ) = <sum>"),
        ("u6.linf", LINF_HEAD + "l3 ( x ^ y ) = z\n", ":5:0: l3 takes 3 inputs, got 2"),
        ("u7.linf", LINF_HEAD + "l2 ( x ^ x ) = z\n", ":5:0: degenerate wedge word"),
        ("u8.linf", LINF_HEAD + "l2 ( x ^ ) = z\n", ":5:7: expected a generator name after ^"),
        ("u9.linf", LINF_HEAD + "l2 ( x ^ q ) = z\n", ":5:9: unknown generator 'q'"),
        ("u10.cdga", "gen x : 2\n", ":1:0: file must start with: kind <cdga|dgc|"),
        ("u11.cdga", "kind foo\n", ":1:5: unknown kind 'foo'"),
        ("u12.cdga", "kind cdga\ngen x 2\n", ":2:0: expected: gen <name> : <degree>"),
        ("u13.cdga", "kind cdga\ngen x : y\n", ":2:8: expected an integer degree"),
        ("u14.cdga", "# nothing\n", ":1:0: empty file"),
        # a generator name is an identifier, as every sum reads it
        ("u15.cdga", "kind cdga\ngen 5 : 3\n", ":2:4: expected a generator name, got '5'"),
        ("u16.cdga", "kind cdga\ngen : : 3\n", ":2:4: expected a generator name, got ':'"),
        ("u17.cdga", "kind cdga\ngen ( : 3\n", ":2:4: expected a generator name, got '('"),
        # a tensor word has the length its head gives: one letter for a dgc
        # differential, a bracket value or mc, two for cop and k for D<k>
        ("w1.dgc", "kind dgc\ngen a : 2\ngen b : 5\ndiff b = a|a\n",
         ":4:9: expected a generator, got a|a"),
        ("w2.dgc", "kind dgc\ngen a : 2\ngen c : 6\ncop c = a|a|a\n",
         ":4:8: expected a word of 2 letters, got a|a|a"),
        ("w3.linf", LINF_HEAD + "l2 ( x ^ y ) = x|y\n", ":5:15: expected a generator, got x|y"),
        ("w4.mc", "kind mc\ngen a : -1\ngen b : 0\nmc = a|b\n",
         ":4:5: expected a generator, got a|b"),
        ("w5.ainf", "kind ainf\ngen g : 2\ngen h : 3\ngen u : 4\nD3 u = g|h\n",
         ":5:7: expected a word of 3 letters, got g|h"),
        ("w6.dgc", "kind dgc\ngen a : 2\ngen c : 4\ncop c = a|a - 2 a\n",
         ":4:16: expected a word of 2 letters, got a"),
        # refusal order: the input word before the sum, the = before the
        # sum, the scanner before the term reader, the duplicate before the sum
        ("v1.linf", LINF_HEAD + "l2 ( q y ) = z\n", ":5:7: expected ^ between inputs, got 'y'"),
        ("v2.cdga", CDGA_HEAD + "d q a^b\n", ":5:0: expected: d <gen> = <sum>"),
        ("v3.cdga", "kind cdga\ngen a : 3\nd a = a @ b\n", ":3:8: unexpected character '@'"),
        ("v4.linf", LINF_HEAD + "l2 ( x ^ y ) = z\nl2 ( y ^ x ) = q\n",
         ":6:0: l2 ( y ^ x ) is already defined on line 5"),
    ]
    for name, text, want in cases:
        p = write(tmp_path, name, text)
        code, out, err = run(["check", p], capsys)
        assert code == 2 and err.startswith(p + want) and "Traceback" not in err, name
    p = write(tmp_path, "ok.cdga", "kind cdga\ngen x : 3\ntruncate 6\n")
    assert parse(p).options == {"truncate": 6}
    p = write(tmp_path, "ok.linf", "kind linf\ngen x : 2\ngen y : 3\ngen z : 5\n"
              "l2 ( x ^ y ) = z\n")
    code, out, err = run(["check", p], capsys)
    assert code == 0 and "linf ok" in out
    # diff and cop of one generator are distinct heads
    p = write(tmp_path, "ok.dgc", DGC_HEAD + "diff s = 0\ncop s = g|g\n")
    code, out, err = run(["check", p], capsys)
    assert code == 0 and "dgc ok" in out
    # a scalar may be joined to its word by *
    p = write(tmp_path, "ok.mc", "kind mc\ngen x : -1\nmc = 2 * x\n")
    assert parse(p).payload.terms == {Word.tensor("x"): 2}


def test_coefficients_parse_to_exact_scalars(tmp_path):
    p = write(tmp_path, "z.mc", "kind mc\ngen x : -1\ngen y : -1\nmc = 2/2 x - 3/6 y\n")
    terms = parse(p).payload.terms
    cx, cy = terms[Word.tensor("x")], terms[Word.tensor("y")]
    assert cx == 1 and type(cx) is int
    assert cy == Fraction(-1, 2) and type(cy) is Fraction


def test_unknown_counit_rejected(tmp_path, capsys):
    p = write(tmp_path, "x.dgc", "kind dgc\ngen x : 2\ncounit y\n")
    code, out, err = run(["check", p], capsys)
    assert code == 2 and "counit 'y' is not a generator" in err and out == ""
    p = write(tmp_path, "y.dgc", "kind dgc\ngen x : 2\ncounit x\n")
    code, out, err = run(["check", p], capsys)
    assert code == 0


def test_invariants_on_counital_coalgebra_exit_code(tmp_path, capsys):
    # conilpotence is defined on the reduced coalgebra only, as in hspace
    y = str(MODELS / "example1_Y.cdga")
    code, out, err = run(["dualize", "--full", str(MODELS / "example1_X.cdga")], capsys)
    full = write(tmp_path, "full.dgc", out)
    for argv in (["invariants", full], ["hspace", full, y]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert "conilpotence is an invariant of the reduced coalgebra" in err, argv
