"""Byte-identical output: the sha256 of each command's stdout on the shipped
models and on the benchmark's n4 and n5 sources, recorded before the engine
refactors that must keep it unchanged.

A digest that moves means the serialized output changed.  A change meant to
alter output records the new digests and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from htcas import cli

MODELS = Path(__file__).resolve().parent.parent / "models"
X1, Y1, X2, Y2 = "{X1}", "{Y1}", "{X2}", "{Y2}"

# argv and the sha256 of stdout; X1, Y1, X2, Y2 are the shipped models,
# {dgc} the dualized X1 and {linf} its pointed mapping-space model into Y1
GOLDEN = [
    (["dualize", X1], "e7aa810b744f04062c67202f50efb4db44e144738ba454aade976b7143aa6075"),
    (["dualize", "--full", X1],
     "189a858a0883b616b4d36cbd4841bae22d9c9dba7e26f17300333936cbc7f8be"),
    (["transfer-ainf", "{dgc}"],
     "d3ced6c90ec64558b6a89afed79509ce89af1b1b009523de98a1f4e4eddce9ff"),
    (["quillen", "{dgc}"], "36649bf8734feac001b83b5fb2c6a0889fa99693ddfdf06a3a313432fccda725"),
    (["quillen", "--direct", "{dgc}"],
     "a3b1c486e24f16e7bbb54d2a21645275bd00584aad25aa285c1063d9a459a6b7"),
    (["cochain", "{linf}"], "7ba01e0599ccb3e4ad07c02396dc7800845dd952a96904b8b4d27b56e076a057"),
    (["mapmodel", X1, Y1, "--pointed", "--emit", "linf"],
     "26964d85f795b6beec1a92f348c599ae77d9c698418915db8d758ace69fca84a"),
    (["mapmodel", X1, Y1, "--pointed", "--emit", "both"],
     "e45e6d3f3630c1ea95b9e4bfca83926a838acb63842e886b4536d5cf5975e6ef"),
    (["mapmodel", X1, Y2, "--pointed", "--emit", "both"],
     "aed28cca49dc186c61340351c2f599ea8a993b1059d6fcd6f97ade4fccbd226a"),
    (["invariants", X1], "94569edbcb845d0dee8259ced323d92b8e3169658981c8e14cebedbd4c427f7a"),
    (["invariants", Y2], "325562dd84355bd4168c0682db17914a42b456cf5dab4fa6b92b00b5f170196c"),
    (["invariants", X2], "705857b0dce7a8740b7b3877e5c7a8d40b66b54d778e9b11662e18695aff6102"),
    (["invariants", "{dgc}"], "6052c02d7c6bde5be259b7c5ef740161ab32ead89ead55c34860af247d2120b1"),
    (["hspace", X2, Y2], "e82645018fe14cae6979692148cae71122c23a227504a958ad613a5244e108a5"),
    (["hspace", "{dgc}", Y1], "0d92bd7acd71b1af5d45d046cfc0cde325e75e441ed6b993133a3449e2d53750"),
]


def stdout_of(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args) == 0, args
    return out.getvalue()


def test_outputs_are_byte_identical(tmp_path):
    files = {"X1": MODELS / "example1_X.cdga", "Y1": MODELS / "example1_Y.cdga",
             "X2": MODELS / "example2_X.dgl", "Y2": MODELS / "example2_Y.cdga",
             "dgc": tmp_path / "x.dgc", "linf": tmp_path / "m.linf"}
    files["dgc"].write_text(stdout_of(["dualize", str(files["X1"])]))
    files["linf"].write_text(stdout_of(["mapmodel", str(files["X1"]), str(files["Y1"]),
                                        "--pointed", "--emit", "linf"]))
    for args, want in GOLDEN:
        argv = [a.format(**files) for a in args]
        assert hashlib.sha256(stdout_of(argv).encode()).hexdigest() == want, args


# the benchmark's n4 and n5 sources (Lambda(a3, b3, c5, e3), dc = ab, and
# n4 + f5 with df = ae), six free 3-spheres s3x6 (whose degree-0 cycle block
# has dimension 6), n8 (n5 + g3, h5 with dh = bg), n9 (n8 + k3, m5 with
# dm = ek), two free 3-spheres ab into xyzt (dz = xy, dt = xz) with the
# Maurer-Cartan element a.x' of mc_ax, the target y4 (example1_Y + u22 with
# du = yt), their argv with {n4}, {n5}, {s3x6}, {n8}, {n9}, {ab}, {xyzt},
# {mc_ax}, {y4}, {dgc} = the dualized n5, {n8dgc} = the dualized n8,
# {chaindgc} = the dualized chain (Lambda(a3, b3, c5, e7), dc = ab and
# de = ac), and the sha256 of stdout
N4 = "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\nd c = + a^b\n"
N5 = ("kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\ngen f : 5\n"
      "d c = + a^b\nd f = + a^e\n")
S3X6 = "kind cdga\n" + "".join(f"gen {g} : 3\n" for g in "abcefg")
N8 = ("kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\ngen f : 5\ngen g : 3\n"
      "gen h : 5\nd c = + a^b\nd f = + a^e\nd h = + b^g\n")
N9 = N8 + "gen k : 3\ngen m : 5\nd m = + e^k\n"
AB = "kind cdga\ngen a : 3\ngen b : 3\n"
XYZT = "kind cdga\ngen x : 3\ngen y : 3\ngen z : 5\ngen t : 7\nd z = x^y\nd t = x^z\n"
MC_AX = "kind mc\ngen a.x' : -1\nmc = a.x'\n"
U22 = "gen u : 22\nd u = y^t\n"
CHAIN = "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 7\nd c = + a^b\nd e = + a^c\n"
GOLDEN_N = [
    (["mapmodel", "{n4}", Y1, "--pointed", "--emit", "both", "--max-arity", "4"],
     "d6f3ac17e9a69bc11a5897479a4638cf633764951d358835c894341099a24130"),
    (["mapmodel", "{n5}", Y1, "--pointed", "--emit", "linf", "--max-arity", "2"],
     "b87e803fb18b9b841f1df752a951d74be9a47fa2e31d450af0f0e904e6811ac0"),
    (["transfer-ainf", "{dgc}"],
     "cfb3620151c984465a86a6b51d875d725a60b6477b4a7fdd428e92efae41f681"),
    (["quillen", "--direct", "{dgc}"],
     "4380d60bd0aae41944ee9c1d56fb8d9daaeb81e44b92e175811ab6b1ec077b79"),
    (["hspace", "{dgc}", Y2], "9d5a564ab67aa3bd46e8667f4bcedcb4b5233ee236738f13a829e41c0197d4cf"),
    (["mapmodel", "{s3x6}", Y1, "--pointed", "--emit", "both"],
     "b3fb5d6ad0dd4fc9a49c5108151fbbb494d1e29a53ff8ca7a1edce736c02b19a"),
    # conilpotence = 7, and bl = 2 with the witness d(a.g)
    (["invariants", "{n8dgc}"], "af8e37f1abac0dfb45b68deca47cc3a9d029244f2eba543e3fe795433127b73b"),
    (["hspace", "{n8dgc}", Y1], "b16cb1b9899c6c7e4dac048dea35c5fb304bf1e2f097c634d2b5fbf25b00f2d6"),
    # the unpointed free model, which no benchmark digest covers
    (["mapmodel", X1, Y1, "--emit", "both", "--max-arity", "3"],
     "dd70c6fa1adfe2ed6dc55f475a0f031ef3aec36ff15a05fd53480773aae09b2a"),
    # a nonzero Maurer-Cartan component: two lines off the phi = 0 run,
    # l1 ( b.z' ) = - a.b.t' and d t.a.b = - z.b
    (["mapmodel", "{ab}", "{xyzt}", "--pointed", "--emit", "both", "--max-arity", "3",
      "--mc", "{mc_ax}"], "94f4563333a57872cdcf3dea6f83a199a2aff6d111a36366ccf2ffea819ffe87"),
    # pointed, these dualize their sources only through degrees 16 and 22:
    # the cut n9 has dim C 235 of 511
    (["mapmodel", "{n9}", Y1, "--pointed", "--emit", "both"],
     "613428ada0763392dc35f2c19eda57f38f29506afac63353cb7c57ba4e055b8b"),
    (["mapmodel", "{n8}", "{y4}", "--pointed", "--emit", "linf"],
     "65f602f56c1bdd0df5ae0482a71bc5402b19bbe94c5a2e5dea35b453ad5ad34d"),
    # the direct Quillen recursion substitutes two levels deep on this dual
    (["quillen", "--direct", "{chaindgc}"],
     "75619bfcaa34847e99d1e4bc7c7e2f9f72b054ce760634ad830d3cf43c81a614"),
]


def test_benchmark_models_are_byte_identical(tmp_path):
    files = {"X1": MODELS / "example1_X.cdga", "Y1": MODELS / "example1_Y.cdga",
             "Y2": MODELS / "example2_Y.cdga",
             "n4": tmp_path / "n4.cdga", "n5": tmp_path / "n5.cdga",
             "s3x6": tmp_path / "s3x6.cdga", "dgc": tmp_path / "n5.dgc",
             "n8": tmp_path / "n8.cdga", "n8dgc": tmp_path / "n8.dgc",
             "n9": tmp_path / "n9.cdga", "y4": tmp_path / "y4.cdga",
             "ab": tmp_path / "ab.cdga", "xyzt": tmp_path / "xyzt.cdga",
             "mc_ax": tmp_path / "ax.mc", "chain": tmp_path / "chain.cdga",
             "chaindgc": tmp_path / "chain.dgc"}
    files["n4"].write_text(N4)
    files["n5"].write_text(N5)
    files["s3x6"].write_text(S3X6)
    files["ab"].write_text(AB)
    files["xyzt"].write_text(XYZT)
    files["mc_ax"].write_text(MC_AX)
    files["dgc"].write_text(stdout_of(["dualize", str(files["n5"])]))
    files["n8"].write_text(N8)
    files["n9"].write_text(N9)
    files["y4"].write_text(files["Y1"].read_text() + U22)
    files["n8dgc"].write_text(stdout_of(["dualize", str(files["n8"])]))
    files["chain"].write_text(CHAIN)
    files["chaindgc"].write_text(stdout_of(["dualize", str(files["chain"])]))
    for args, want in GOLDEN_N:
        argv = [a.format(**files) for a in args]
        assert hashlib.sha256(stdout_of(argv).encode()).hexdigest() == want, args


# models of the cut-and-whole comparison: the Heisenberg nilmanifold, four
# free 3-spheres, a source with a generator of degree -1, and S^2
HEIS = "kind cdga\ngen a : 1\ngen b : 1\ngen c : 1\nd c = a^b\n"
S3X4 = "kind cdga\n" + "".join(f"gen {g} : 3\n" for g in "abce")
NEG = "kind cdga\ngen a : -1\ngen b : 3\ngen c : 5\n"
S2 = "kind cdga\ngen v : 2\ngen w : 3\nd w = v^v\n"


def whole_source_model(x, y, emit, max_k=None, mc=None):
    """`mapmodel X Y --pointed` through the engine on the whole source."""
    from htcas.core import Element
    from htcas.functors import FiniteCDGA, dual_coalgebra, linf_from_cdga
    from htcas.mapping import component_model, mapping_space_model, reduced_bs_cochain

    xf = cli.parse(x)
    L = linf_from_cdga(cli.parse(y).payload)
    C = dual_coalgebra(FiniteCDGA(xf.payload, max_cohom=xf.options.get("truncate")),
                       counital=False)
    mm = mapping_space_model(C, L, max_k=max_k)
    phi = (Element.zero(mm.model.space) if mc is None
           else Element(mm.model.space, dict(cli.parse(mc).payload.terms)))
    model = component_model(mm.model, phi)
    texts = [cli.serialize(model)] if emit != "bs" else []
    if emit != "linf":
        texts.append(cli.serialize(reduced_bs_cochain(model, mm.homology, L.space)))
    return "".join(texts)


def test_pointed_cut_matches_the_whole_source(tmp_path, monkeypatch):
    # mapmodel --pointed dualizes its source only through degree N + 1, N
    # the top degree of the target's L (N + 2 with --mc), and prints the
    # whole source's model byte for byte, though the derived arity cap then
    # reads the cut homology (the caps of both runs are recorded, cut first)
    from htcas import mapping

    cutoffs, caps = [], []
    finite, cap = cli.FiniteCDGA, mapping.mapping_arity_cap

    def recorded_cutoff(B, max_cohom):
        cutoffs.append(max_cohom)
        return finite(B, max_cohom=max_cohom)

    def recorded_cap(C, small):
        caps.append(cap(C, small))
        return caps[-1]

    monkeypatch.setattr(cli, "FiniteCDGA", recorded_cutoff)
    monkeypatch.setattr(mapping, "mapping_arity_cap", recorded_cap)
    files = {"Y1": MODELS / "example1_Y.cdga"}
    for name, text in (("n8", N8), ("heis", HEIS), ("s3x4", S3X4), ("neg", NEG), ("ab", AB),
                       ("s5", "kind cdga\ngen a : 5\n"),
                       ("xyzt", XYZT), ("mc_ax", MC_AX), ("s2", S2), ("point", "kind cdga\n")):
        files[name] = tmp_path / name
        files[name].write_text(text)
    files["y4"] = tmp_path / "y4"
    files["y4"].write_text(files["Y1"].read_text() + U22)
    cases = [
        # y4's L tops out at u' (21); the derived cap falls from 12 to 9
        ("n8", "y4", "linf", None, None, 22, [9, 12]),
        # degree-1 generators derive no cap; the cut at 16 keeps all of Heis
        ("heis", "Y1", "linf", 4, None, 16, [None, None]),
        # phi = a.x' has degree -1: xyzt's L tops out at t' (6), so the cut
        # is 8, below the source's top degree 12, and the cap falls from 5 to 2
        ("s3x4", "xyzt", "both", None, "mc_ax", 8, [2, 5]),
        # B^{>N+1} is no ideal when a generator has degree -1: cut at 7, this
        # source's dual fails coassociativity, so it stays whole
        ("neg", "xyzt", "linf", 3, None, None, [None, None]),
        # S^2's L tops out at w' (2): the cut at 3 leaves S^5 no cells at all
        ("s5", "s2", "both", None, None, 3, [2, 2]),
        # a point as the target has no top degree, and the source stays whole
        ("ab", "point", "both", None, None, None, [2, 2]),
    ]
    for x, y, emit, max_k, mc, cutoff, want_caps in cases:
        cutoffs.clear()
        caps.clear()
        argv = ["mapmodel", str(files[x]), str(files[y]), "--pointed", "--emit", emit]
        argv += ["--max-arity", str(max_k)] if max_k else []
        argv += ["--mc", str(files[mc])] if mc else []
        cut = stdout_of(argv)
        whole = whole_source_model(str(files[x]), str(files[y]), emit, max_k,
                                   mc and str(files[mc]))
        assert (cut, cutoffs, caps) == (whole, [cutoff], want_caps), x


def test_heisenberg_triple_massey_coproducts(tmp_path):
    # Heis's generators have degree 1, so no arity cap is derived, and its
    # classes a, b shift to degree 0, where the A-infinity recursion nests
    # without lowering degree: every cap from 3 up prints the same triple
    # Massey coproducts, cap 2 none, and the full dual keeps them
    heis = tmp_path / "heis.cdga"
    heis.write_text(HEIS)
    d3 = "D3 a.c = a|a|b - 2 a|b|a + b|a|a\nD3 b.c = - a|b|b + 2 b|a|b - b|b|a\n"
    for dual in (["dualize"], ["dualize", "--full"]):
        dgc = tmp_path / "heis.dgc"
        dgc.write_text(stdout_of(dual + [str(heis)]))
        outs = {cap: stdout_of(["transfer-ainf", str(dgc), "--max-arity", cap])
                for cap in ("2", "3", "4", "8", "12")}
        assert outs["3"].endswith(d3), dual
        assert all(outs[cap] == outs["3"] for cap in ("4", "8", "12")), dual
        assert "D3" not in outs["2"], dual
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["transfer-ainf", str(dgc)]) == 4, dual
        assert "cannot derive an arity cap" in err.getvalue(), dual
