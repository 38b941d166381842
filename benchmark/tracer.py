"""Per-module tracing by wrapping public htcas functions from the outside.

Each wrapped function is replaced at every name that binds it in an htcas
module (`htcas.mapping.transfer_linf` as well as `htcas.transfer.transfer_linf`),
so the engine's own call paths run unchanged.  Span wrappers record
(name, start, end, parent span, job id) in memory; count wrappers, used on
the hot primitives, only count calls.  Every wrapper counts the exceptions
that pass through it.  A name a later refactor removes is recorded as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED = {
    "cli": ["parse", "serialize"],
    "functors": ["dual_coalgebra", "quillen", "quillen_differential_direct"],
    "transfer": ["homology_decomposition", "retract_from_decomposition",
                 "hom_retract", "transfer_linf", "transfer_ainf"],
    "mapping": ["mapping_space_model", "convolution_linf", "component_model",
                "reduced_bs_cochain", "reduced_bs_direct"],
    "structures": ["perturb", "truncate", "check_linf", "check_ainf"],
    "invariants": ["conilpotence", "bracket_length", "whitehead_length",
                   "hspace_certificate"],
    "linalg": ["solve"],
}
COUNTED = {
    "core": ["Element.__init__", "canonical_word", "tensor_apply"],
    "linalg": ["rref", "in_span"],
}
SPANNED_KEYS = [f"{m}.{f}" for m, fs in SPANNED.items() for f in fs]
WRAPPED = SPANNED_KEYS + [f"{m}.{f}" for m, fs in COUNTED.items() for f in fs]


def wedge_word_count(degrees, k: int) -> int:
    """Number of canonical wedge words of length k (what core.word_basis
    lists): even-degree factors appear at most once, odd ones freely."""
    even = sum(1 for d in degrees if d % 2 == 0)
    odd = len(degrees) - even
    total = 0
    for j in range(min(even, k) + 1):
        rest = k - j
        free = math.comb(odd + rest - 1, rest) if odd else int(rest == 0)
        total += math.comb(even, j) * free
    return total


def _images(structure, counters, prefix):
    n = 0
    for k, op in structure.ops.items():
        if k >= 2:
            counters[f"{prefix}.arity{k}"] += len(op.images)
            n += len(op.images)
    counters[prefix] += n


def _linf_counts(counters, bound, result):
    """Candidate words the tree sum evaluates, and the images it keeps."""
    from htcas.transfer import linf_transfer_cap

    small = bound["r"].small.space
    max_k = bound["max_k"]
    if max_k is None:
        max_k = linf_transfer_cap(bound["L"], small)
    words = bound["words"]
    for k in range(2, max_k + 1):
        given = words.get(k) if words is not None else None
        n = len(given) if given is not None else wedge_word_count(small.degrees(), k)
        counters[f"transfer.linf_candidate_words.arity{k}"] += n
        counters["transfer.linf_candidate_words"] += n
    _images(result, counters, "transfer.linf_nonzero_images")


def _convolution_counts(counters, bound, result):
    """Wedge words of Hom(C, L) the convolution loop visits, and images kept."""
    for k in bound["L"].ops:
        if k >= 2:
            counters["mapping.convolution_words"] += wedge_word_count(result.space.degrees(), k)
    _images(result, counters, "mapping.convolution_nonzero_images")


def _mapping_dims(counters, bound, result):
    from htcas.mapping import mapping_arity_cap

    counters["mapping.dim_C"] += result.coalgebra.space.dim
    counters["mapping.dim_H"] += result.homology.dim
    counters["mapping.dim_Hom_C_L"] += result.convolution.space.dim
    counters["mapping.dim_Hom_H_L"] += result.model.space.dim
    counters["mapping.derived_arity_cap"] += mapping_arity_cap(result.coalgebra, result.homology) or 0


def _ainf_counts(counters, bound, result):
    _images(result, counters, "transfer.ainf_nonzero_images")


POST = {
    "transfer.transfer_linf": _linf_counts,
    "mapping.convolution_linf": _convolution_counts,
    "mapping.mapping_space_model": _mapping_dims,
    "transfer.transfer_ainf": _ainf_counts,
}


class Tracer:
    """Install wrappers, collect spans and counts for one job, remove them."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        import htcas.cli  # noqa: F401  (imports every engine module)

        for key in WRAPPED:
            module, _, qualname = key.partition(".")
            self._wrap(module, qualname, key, self._span if key in SPANNED_KEYS else self._count)

    def _wrap(self, module: str, qualname: str, key: str, make) -> None:
        try:
            owner = importlib.import_module(f"htcas.{module}")
        except ImportError:
            self.absent.append(key)
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(key)
            return
        wrapper = make(key, original)
        if path:  # a method: wrap it on its class
            sites = [(owner, attr)]
        else:
            sites = [(mod, name) for mod_name, mod in list(sys.modules.items())
                     if mod_name == "htcas" or mod_name.startswith("htcas.")
                     for name, value in list(vars(mod).items()) if value is original]
        for site, name in sites:
            self._patches.append((site, name, original))
            setattr(site, name, wrapper)

    def _count(self, key, fn):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[key] += 1
                raise
        return wrapper

    def _span(self, key, fn):
        spans, stack, calls, errors, job = self.spans, self._stack, self.calls, self.errors, self.job
        post = POST.get(key)
        signature = inspect.signature(fn) if post else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[key] += 1
                raise
            finally:
                spans[index] = (key, start, perf_counter(), parent, job)
                stack.pop()
            if post:
                self._post(post, key, signature.bind(*args, **kwargs), result)
            return result
        return wrapper

    def _post(self, post, key, bound, result) -> None:
        bound.apply_defaults()
        try:
            post(self.counters, bound.arguments, result)
        except (KeyError, AttributeError, TypeError) as exc:
            # a refactor changed the function's signature or result type
            self.absent.append(f"{key} counters ({type(exc).__name__}: {exc})")

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)

    def restored(self) -> bool:
        """True when every site holds its original function again."""
        return all(vars(site).get(name) is original for site, name, original in self._patches)

    def record(self, wall_s: float) -> dict:
        return {"job": self.job, "wall_s": wall_s, "spans": self.spans,
                "calls": dict(self.calls), "errors": dict(self.errors),
                "counters": dict(self.counters), "absent": self.absent,
                "restored": self.restored()}


def self_times(spans) -> dict[str, float]:
    """Span duration minus the time its direct child spans cover, by name."""
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out
