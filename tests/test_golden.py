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
# has dimension 6), their argv with {n4}, {n5}, {s3x6}, {dgc} = the dualized
# n5, and the sha256 of stdout
N4 = "kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\nd c = + a^b\n"
N5 = ("kind cdga\ngen a : 3\ngen b : 3\ngen c : 5\ngen e : 3\ngen f : 5\n"
      "d c = + a^b\nd f = + a^e\n")
S3X6 = "kind cdga\n" + "".join(f"gen {g} : 3\n" for g in "abcefg")
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
]


def test_benchmark_models_are_byte_identical(tmp_path):
    files = {"Y1": MODELS / "example1_Y.cdga", "Y2": MODELS / "example2_Y.cdga",
             "n4": tmp_path / "n4.cdga", "n5": tmp_path / "n5.cdga",
             "s3x6": tmp_path / "s3x6.cdga", "dgc": tmp_path / "n5.dgc"}
    files["n4"].write_text(N4)
    files["n5"].write_text(N5)
    files["s3x6"].write_text(S3X6)
    files["dgc"].write_text(stdout_of(["dualize", str(files["n5"])]))
    for args, want in GOLDEN_N:
        argv = [a.format(**files) for a in args]
        assert hashlib.sha256(stdout_of(argv).encode()).hexdigest() == want, args
