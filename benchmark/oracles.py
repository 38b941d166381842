"""Output oracles: the engine's own two-route agreements, applied to job output.

Each check returns None when the output is accepted, or a one-line reason.
The checks run in the benchmark process, outside the timed region.  Engine
functions are called through their modules so that the tracer's wrappers
see them.
"""

from __future__ import annotations

from pathlib import Path

from htcas import cli, functors, mapping, structures
from htcas.core import Element


def _parse_text(text: str, path: Path, kind: str):
    path.write_text(text)
    model = cli.parse(str(path))
    if model.kind != kind:
        raise ValueError(f"expected a {kind} model, got {model.kind}")
    return model.payload


def _linf(text: str, scratch: Path) -> str | None:
    L = _parse_text(text, scratch / "out.linf", "linf")
    report = structures.check_linf(L)
    return None if report else f"L-infinity output fails check_linf: {report!r}"


def _bs_route_disagreement(text: str, source: str, target: str, scratch: Path) -> list[str]:
    """Generators whose differential differs between the emitted reduced BS
    model and the substitution recursion, both canonicalized in one space."""
    emitted = _parse_text(text, scratch / "out.bs.cdga", "cdga")
    src = cli.parse(source).payload
    direct = mapping.restrict_positive(mapping.reduced_bs_direct(
        functors.FiniteCDGA(src, max_cohom=sum(d for _, d in src.gens.basis)),
        cli.parse(target).payload))
    space = direct.gens
    if set(emitted.gens.names) != set(space.names):
        return sorted(set(emitted.gens.names) ^ set(space.names))

    def terms(diff, g):
        el = diff.get(g)
        return Element.make(space, [(c, "m", w.factors) for w, c in el.terms.items()]).terms if el else {}
    return [g for g in space.names if terms(emitted.diff, g) != terms(direct.diff, g)]


def check(job, stdout: str, outputs: dict[str, str], scratch: Path) -> str | None:
    """Judge one job's stdout; `outputs` holds the stdout of every job of
    the same pass by job name, for checks that compare two routes."""
    if job.check == "bs+linf":
        split = stdout.index("kind cdga\n")
        bad = _linf(stdout[:split], scratch)
        if bad:
            return bad
        wrong = _bs_route_disagreement(stdout[split:], job.source, job.target, scratch)
        return f"BS routes disagree at {', '.join(sorted(map(job.rename or str, wrong)))}" if wrong else None
    if job.check == "linf":
        return _linf(stdout, scratch)
    if job.check == "ainf":
        peer = outputs.get(job.peer)
        if peer is None:
            return f"no output from {job.peer} to compare with"
        mine = cli.serialize(functors.quillen(_parse_text(stdout, scratch / "out.ainf", "ainf")))
        return None if mine == peer else f"quillen of the transferred A-infinity output differs from {job.peer}"
    if job.check in ("dgc", "dgl"):
        _parse_text(stdout, scratch / f"out.{job.check}", job.check)
        return None
    return None if stdout.strip() else "empty output"
