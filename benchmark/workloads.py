"""Benchmark inputs: the model files each workload needs and the jobs it runs.

Every generated file is a seeded, isomorphic relabelling of a fixed model:
generators are renamed and, among generators of equal degree, their
declaration order is permuted.  Dimensions and the work the engine does
stay the same while bytes and canonical orderings change.  Seed 0 is the
identity.  The shipped `models/` files are read as they are.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SHIPPED_X = "models/example1_X.cdga"
SHIPPED_Y = "models/example1_Y.cdga"
SHIPPED_Y2 = "models/example2_Y.cdga"

# Sullivan models as (generators, differential); a differential maps a
# generator to a list of (coefficient, factors).
EX1_X = ([("a", 3), ("b", 3), ("c", 5)], {"c": [(1, ("a", "b"))]})
EX1_Y = ([("x", 4), ("y", 7), ("z", 10), ("t", 16)],
         {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]})
N4 = ([("a", 3), ("b", 3), ("c", 5), ("e", 3)], {"c": [(1, ("a", "b"))]})
N5 = ([("a", 3), ("b", 3), ("c", 5), ("e", 3), ("f", 5)],
      {"c": [(1, ("a", "b"))], "f": [(1, ("a", "e"))]})

# The VARIANTS of tests/test_mapping.py after the first, which is the
# shipped example1 pair.
VARIANT_PAIRS = [
    (([("a", 3), ("b", 5), ("c", 7)], {"c": [(1, ("a", "b"))]}), EX1_Y),
    (EX1_X, ([("p", 3), ("m", 4), ("n", 5), ("q", 7)],
             {"m": [(1, ("n",))], "q": [(1, ("p", "n"))]})),
    (EX1_X, ([("x", 3), ("y", 5), ("z", 7), ("t", 11)],
             {"z": [(1, ("x", "y"))], "t": [(1, ("y", "z"))]})),
]


@dataclass
class Job:
    """One CLI invocation and the oracle that judges its output.

    `source`/`target` are the mapmodel input files; `peer` names the job
    whose output a two-route check compares against; `rename` maps a
    relabelled BS generator name back to its seed-0 name for reports.
    """

    name: str
    argv: list[str]
    check: str
    source: str | None = None
    target: str | None = None
    peer: str | None = None
    rename: Callable[[str], str] | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: list[str]  # the inputs set-up parses, one `htcas check` each
    derived: dict[str, list[str]] = field(default_factory=dict)  # file -> CLI args making it
    min_passes: int = 1


def relabel(gens, diff, rng: random.Random, prefix: str):
    """Rename generators (to `prefix` + two letters) and permute the
    declaration slots of equal-degree generators.  Returns the relabelled
    model and the map from new names back to the old ones."""
    pool = [prefix + a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
    new = dict(zip((g for g, _ in gens), rng.sample(pool, len(gens))))
    by_degree: dict[int, list[str]] = {}
    for g, d in gens:
        by_degree.setdefault(d, []).append(g)
    for names in by_degree.values():
        rng.shuffle(names)
    order = [(new[by_degree[d].pop(0)], d) for _, d in gens]
    diff = {new[g]: [(c, tuple(new[f] for f in fs)) for c, fs in terms]
            for g, terms in diff.items()}
    return (order, diff), {v: k for k, v in new.items()}


def cdga_text(gens, diff) -> str:
    lines = ["kind cdga"] + [f"gen {g} : {d}" for g, d in gens]
    for g, _ in gens:
        if g in diff:
            terms = " ".join(("+ " if c > 0 else "- ") + (f"{abs(c)} " if abs(c) != 1 else "")
                             + "^".join(fs) for c, fs in diff[g])
            lines.append(f"d {g} = {terms}")
    return "\n".join(lines) + "\n"


def write_model(workdir: Path, stem: str, model, seed: int, prefix: str):
    """Write the seed's relabelling of `model`; return its path and the map
    from its generator names back to the model's."""
    labels: dict[str, str] = {}
    if seed:
        model, labels = relabel(*model, random.Random(f"{seed}:{stem}"), prefix)
    path = workdir / f"{stem}.cdga"
    path.write_text(cdga_text(*model))
    return str(path), labels


def bs_namer(source, source_labels, target_labels):
    """Map a reduced BS generator name v.c1...cn back to its seed-0 name.

    The source monomial's factors are re-sorted in the fixed model's
    canonical order (degree, then declaration)."""
    order = {g: (d, i) for i, (g, d) in enumerate(source[0])}

    def rename(name: str) -> str:
        v, *cs = name.split(".")
        cs = sorted((source_labels.get(c, c) for c in cs), key=lambda c: order.get(c, (0, 0)))
        return ".".join([target_labels.get(v, v), *cs])
    return rename


def build(name: str, workdir: Path, seed: int) -> Workload:
    """Write the inputs of workload `name` under `workdir` and list its jobs.

    Paths are relative to the repository root, where the jobs run.
    """
    if name == "mapmodel-arity4":
        pairs = [("v0", EX1_X, (SHIPPED_X, {}), (SHIPPED_Y, {}))]
        for i, (src, tgt) in enumerate(VARIANT_PAIRS, start=1):
            pairs.append((f"v{i}", src, write_model(workdir, f"v{i}_X", src, seed, "s"),
                          write_model(workdir, f"v{i}_Y", tgt, seed, "t")))
        pairs.append(("n4", N4, write_model(workdir, "n4", N4, seed, "s"), (SHIPPED_Y, {})))
        jobs = [Job(f"mapmodel {tag}",
                    ["mapmodel", x, y, "--pointed", "--emit", "both", "--max-arity", "4"],
                    "bs+linf", x, y, rename=bs_namer(src, xl, yl))
                for tag, src, (x, xl), (y, yl) in pairs]
        files = sorted({p for *_, (x, _), (y, _) in pairs for p in (x, y)})
        return Workload(name, jobs, files)
    if name == "convolution-coalgebra":
        jobs, derived = [], {}
        sources = {tag: write_model(workdir, tag, model, seed, "s")[0]
                   for tag, model in (("n5", N5), ("n4", N4))}
        for tag, x in sources.items():
            jobs.append(Job(f"mapmodel {tag}", ["mapmodel", x, SHIPPED_Y, "--pointed", "--emit",
                                                "linf", "--max-arity", "2"], "linf"))
        for tag in ("n4", "n5"):
            cdga, dgc = sources[tag], str(workdir / f"{tag}.dgc")
            derived[dgc] = ["dualize", cdga]
            jobs += [
                Job(f"dualize {tag}", ["dualize", cdga], "dgc"),
                Job(f"transfer-ainf {tag}", ["transfer-ainf", dgc], "ainf",
                    peer=f"quillen-direct {tag}"),
                Job(f"quillen {tag}", ["quillen", dgc], "dgl"),
                Job(f"quillen-direct {tag}", ["quillen", "--direct", dgc], "dgl"),
                Job(f"invariants {tag}", ["invariants", dgc], "nonempty"),
                Job(f"hspace {tag}", ["hspace", dgc, SHIPPED_Y2], "nonempty"),
            ]
        files = [*sources.values(), SHIPPED_Y, SHIPPED_Y2, *derived]
        # Two passes of about 30 s: this box's speed swings over about half
        # a minute, and one pass spread by up to a third from run to run.
        return Workload(name, jobs, files, derived, min_passes=2)
    raise KeyError(name)


WORKLOADS = ("mapmodel-arity4", "convolution-coalgebra")
