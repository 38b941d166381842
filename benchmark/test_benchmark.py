"""Checks on the benchmark's own machinery.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import contextlib
import io
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from htcas import cli  # noqa: E402
from htcas.core import GradedSpace, word_basis  # noqa: E402

JOBS = [
    ["mapmodel", "models/example1_X.cdga", "models/example1_Y.cdga", "--pointed",
     "--emit", "both", "--max-arity", "3"],
    ["hspace", "models/example2_X.dgl", "models/example2_Y.cdga"],
]


def run_cli(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args) == 0
    return out.getvalue()


def htcas_bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "htcas" or name.startswith("htcas.")
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("args", JOBS)
def test_traced_run_integrity(args, monkeypatch):
    monkeypatch.chdir(ROOT)
    plain = run_cli(args)
    before = htcas_bindings()
    init = vars(cli.Element)["__init__"]
    t = tracer.Tracer("job")
    t.install()
    assert not t.restored()
    start = time.perf_counter()
    try:
        traced = run_cli(args)
    finally:
        wall = time.perf_counter() - start
        t.uninstall()
    assert traced == plain
    assert t.restored()
    assert htcas_bindings() == before
    assert vars(cli.Element)["__init__"] is init
    assert t.spans and t.absent == []
    assert sum(tracer.self_times(t.spans).values()) <= wall
    assert all(parent < i for i, (*_, parent, job) in enumerate(t.spans)) and \
        {job for *_, job in t.spans} == {"job"}


def test_removed_name_is_recorded_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + ["mapping.no_such_function"])
    t = tracer.Tracer("job")
    t.install()
    t.uninstall()
    assert t.absent == ["mapping.no_such_function"]
    assert t.restored()


def test_wedge_word_count_matches_word_basis():
    rng = random.Random(1)
    for _ in range(20):
        space = GradedSpace.of([(f"g{i}", rng.randint(-4, 9)) for i in range(rng.randint(1, 7))])
        for k in range(1, 5):
            assert tracer.wedge_word_count(space.degrees(), k) == len(word_basis(space, "w", k))


def test_relabelling_is_isomorphic(tmp_path):
    for seed in (0, 7):
        path, labels = workloads.write_model(tmp_path, "n5", workloads.N5, seed, "s")
        model = cli.parse(path).payload
        assert sorted(model.gens.degrees()) == sorted(d for _, d in workloads.N5[0])
        assert {labels.get(g, g) for g in model.gens.names} == {g for g, _ in workloads.N5[0]}
        assert (labels == {}) == (seed == 0)
    rename = workloads.bs_namer(workloads.N4, {"sqa": "e", "sxb": "a", "sko": "c"}, {})
    assert rename("t.sqa.sxb.sko") == "t.a.e.c"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark")
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "convolution-coalgebra",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
