"""Byte-identical output: the sha256 of each command's stdout on the shipped
models, recorded before the engine refactors that must keep it unchanged.

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
