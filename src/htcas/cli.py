"""Command-line interface: a line-oriented model format and commands over it.

Grammar (one declaration per line, `#` comments):

    kind cdga|dgc|ainf|linf|dgl|mc
    gen <name> : <integer degree>     cohomological for cdga, else homological
    counit <name>                     dgc, ainf: marks a counital coalgebra
    truncate <N>                      cdga only: dualization degree cutoff
    d <gen> = <sum of product words>        (cdga)       e.g. d c = a^b
    diff <gen> = <sum>                      (dgc, dgl)   e.g. diff s = r
    cop <gen> = <sum of tensor words>       (dgc)        e.g. cop s = g|h - h|g
    D<k> <gen> = <sum of tensor words>      (ainf)       e.g. D3 u = g|g|h
    l<k> ( g1 ^ ... ^ gk ) = <sum>          (linf)       e.g. l2 ( x ^ y ) = z
    mc = <sum>                              (mc)

Scalars are integers or p/q with q != 0; dgl differentials use bracket
words [a,[a,b]].  One reader takes the `<head> <operand> = <sum>` lines of
all six kinds, the operand being a generator, a parenthesised input word
or nothing (mc).  It checks that the sum has the degree its head gives:
|g| + 1 for d, |g| - 1 for diff (dgc and dgl alike), |g| for cop,
|g| + k - 2 for D<k> and |g1 ^ ... ^ gk| + k - 2 for l<k>, with k >= 1;
that each tensor word has the length its head gives: 1 for diff in a
dgc, 2 for cop, k for D<k>, and 1 for l<k> and mc, whose values are sums
of generators; and it refuses a second line with the same head and
operand (an input word in any order).  A second gen line for one name, a
second counit or truncate line, and either directive in a kind that does
not read it are refused too.  A gen line takes exactly one degree.  Each
line is tokenized once, into a `_Line` that holds its tokens, their
columns and a cursor, and reads its sums.  Every error it locates names
the column of the token it complains about, or the column just past the
last token; one table per file records the line that defines each gen
name, directive and head with operand, and names it in a refusal.
Identifiers may contain letters, digits, _, ' and . (dotted names appear
in Hom and reduced-model bases); every derived basis (Hom maps,
reduced-model generators, dual monomials, primed duals) refuses a name
that two sources get, naming both.  Serialization uses the same grammar,
with one header helper for the kind, counit and gen lines, so
parse(serialize(S)) round-trips for every kind but mc, which only
`mapmodel --mc` reads; ordering is canonical and output is byte-stable.

One table, `_COMMANDS`, states each subcommand once: its handler, help,
positional files and options, from which `main` builds the argument parser
(the named command's alone when argv[0] names one).
Every command reads a model through one loader, `_load(path, what, *kinds)`,
which refuses any other kind as "<what> expects a <kinds> model, got
<kind>"; the target of `mapmodel` and `hspace` is a linf model or a cdga
model read as one.

Exit codes: 0 ok, 1 usage, 2 parse/validation (a wrong model kind too), 3
axiom failure, 4 bound exceeded (e.g. `mapmodel --emit bs|both` on a model
with a bracket of arity 4 or more; stdout stays empty), 141 (128 + SIGPIPE)
stdout closed early, with nothing on stderr.  `mapmodel --mc FILE` needs
`--pointed`.  `mapmodel --pointed` dualizes its source only through degree
N + 1, N the top degree of the target's L (N + 2 with --mc), or through
its `truncate` when that is lower; the printed model is the same.

Each command imports only the engine modules it runs (`import htcas` itself
is lazy), so a process compiles no more than it needs.  `check` on a cdga
or dgl file loads `core`, `functors` and `invariants` (which imports only
`core` at its top); a dgc, ainf or linf model, `dualize`, `quillen`,
`cochain` and `invariants` on such models add `structures` and `linalg`;
`transfer-ainf` adds `transfer`, and so does `quillen --direct`, through
`functors.quillen_differential_direct`; `mapmodel` and `hspace` add
`transfer` and `mapping`, and `mapmodel` checks a Maurer-Cartan element
through `mapping.component_model`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    SEPARATOR,
    AxiomError,
    BoundError,
    Element,
    GradedMap,
    GradedSpace,
    ValidationError,
    Word,
    canonical_word,
    frac,
    lincomb,
)
from .functors import (
    CDGA,
    FiniteCDGA,
    FreeLieDGL,
    bracket_tree_element,
    bracket_tree_str,
    cochain,
    dual_coalgebra,
    linf_from_cdga,
    quillen,
    quillen_differential_direct,
    right_normed,
    weight_component,
    weights,
)
from .invariants import (
    bracket_length,
    conilpotence,
    differential_length,
    hspace_certificate,
    whitehead_length,
)

if TYPE_CHECKING:  # imported by the commands and models that use them
    from .structures import LInfAlgebra


class ParseError(Exception):
    def __init__(self, path, line, col, msg):
        super().__init__(f"{path}:{line}:{col}: {msg}")


IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_'.]*")
NUMBER = re.compile(r"\d+(/\d+)?")


class ModelFile:
    def __init__(self, kind: str, space: GradedSpace, payload: object, options: dict):
        self.kind = kind
        self.space = space
        self.payload = payload
        self.options = options


# ---------------------------------------------------------------------------
# line reading


# one token per match, after any whitespace: the end of the line or a
# comment, an identifier, a number or a one-character symbol, or anything else
_SCANNER = re.compile(rf"\s*(?:(?P<end>#|$)|(?P<tok>{IDENT.pattern}|{NUMBER.pattern}"
                      r"|[\^|+\-=:()\[\]/,*])|(?P<bad>.))")


class _Line:
    """One tokenized line of a model file: its tokens (symbols are single
    characters), their columns and a cursor.  Every error located on the
    line goes through `fail`, and every sum is read by the term methods,
    over a known generator set."""

    def __init__(self, path, lineno, text):
        self.path, self.lineno, self.pos = path, lineno, 0
        self.toks, self.cols = [], []
        for m in _SCANNER.finditer(text):
            if m.lastgroup == "end":
                break
            self.toks.append(m[m.lastgroup])
            self.cols.append(m.start(m.lastgroup))
            if m.lastgroup == "bad":
                self.fail(f"unexpected character {m['bad']!r}", len(self.toks) - 1)

    def tok(self, i):
        """Token i, or None past the end of the line."""
        return self.toks[i] if i < len(self.toks) else None

    def fail(self, msg, at=0):
        """Raise at the column of token `at`, or just past the last token."""
        col = self.cols[at] if at < len(self.toks) else self.cols[-1] + len(self.toks[-1])
        raise ParseError(self.path, self.lineno, col, msg)

    def once(self, first: dict, key, what=None):
        """Record this line as the one that defines `key` in `first`, or refuse
        a second definition, naming `what` (by default the key)."""
        seen = first.setdefault(key, self.lineno)
        if seen != self.lineno:
            self.fail(f"{what or key} is already defined on line {seen}")

    def next(self):
        tok = self.tok(self.pos)
        if tok is None:
            self.fail("unexpected end of line", self.pos)
        self.pos += 1
        return tok

    def parse_sum(self, start, space: GradedSpace, kind: str, letters: int | None):
        """The sum from token `start` on, as a list of (scalar, word-factors |
        bracket-tree | None).  `kind` is "m" for product words, "t" for
        tensor words and "lie" for brackets; `letters` is the length of every
        word, when fixed.  The first term's sign is optional."""
        self.pos, self.space, self.kind, self.letters = start, space, kind, letters
        out = []
        while True:
            tok = self.tok(self.pos)
            if tok in ("+", "-"):
                self.next()
            elif out:
                self.fail(f"expected + or -, got {tok!r}", self.pos)
            out.append(self.parse_term(-1 if tok == "-" else 1))
            if self.tok(self.pos) is None:
                return out

    def parse_term(self, sign):
        coeff = sign
        tok = self.tok(self.pos)
        if tok is not None and NUMBER.fullmatch(tok):
            at = self.pos
            _, slash, den = tok.partition("/")
            if slash and int(den) == 0:
                self.fail(f"zero denominator in {tok}", at)
            coeff *= frac(self.next())
            if self.tok(self.pos) == "*":
                self.next()
            if self.tok(self.pos) in (None, "+", "-"):
                if coeff == 0:
                    return coeff, None
                self.fail("scalar term without a word (only 0 is allowed)", at)
        if self.kind == "lie":
            return coeff, self.parse_bracket()
        at = self.pos
        factors = [self.parse_name()]
        sep = SEPARATOR[self.kind]
        while self.tok(self.pos) == sep:
            self.next()
            factors.append(self.parse_name())
        n = self.letters
        if n is not None and len(factors) != n:
            want = "a generator" if n == 1 else f"a word of {n} letters"
            self.fail(f"expected {want}, got {sep.join(factors)}", at)
        return coeff, tuple(factors)

    def parse_name(self):
        tok = self.next()
        if not IDENT.fullmatch(tok):
            self.fail(f"expected a generator name, got {tok!r}", self.pos - 1)
        if tok not in self.space:
            self.fail(f"unknown generator {tok!r}", self.pos - 1)
        return tok

    def parse_bracket(self):
        if self.tok(self.pos) == "[":
            self.next()
            left = self.parse_bracket()
            if self.next() != ",":
                self.fail("expected , in bracket", self.pos - 1)
            right = self.parse_bracket()
            if self.next() != "]":
                self.fail("expected closing ]", self.pos - 1)
            return (left, right)
        return self.parse_name()


# The `<head> <operand> = <sum>` lines of each kind: the word kind of the
# sums, the operand ("gen", "word" for `( g1 ^ ... ^ gk )`, or None), the
# degree each fixed head adds to the operand's, the prefix of the arity
# heads `<prefix><k>` (which add k - 2), and the usage message.
_LINES = {
    "cdga": ("m", "gen", {"d": 1}, None, "expected: d <gen> = <sum>"),
    "dgc": ("t", "gen", {"diff": -1, "cop": 0}, None, "expected: diff|cop <gen> = <sum>"),
    "ainf": ("t", "gen", {}, "D", "expected: D<k> <gen> = <sum>"),
    "linf": ("t", "word", {}, "l", "expected: l<k> ( g1 ^ ... ^ gk ) = <sum>"),
    "dgl": ("lie", "gen", {"diff": -1}, None, "expected: diff <gen> = <sum>"),
    "mc": ("t", None, {"mc": 0}, None, "expected: mc = <sum>"),
}


def _headed_lines(body, space, kind, first):
    """Read the body lines of a kind, as `_LINES` gives them.  Yields
    (shift, operand, value, presentation) for each nonzero value: shift is
    the degree the head adds, operand the generator, the canonical input
    word (the value carries its sign) or None.  The value must have the
    operand's degree plus shift; only a "lie" sum has a presentation, its
    bracket trees.  A head and operand may be defined on one line only,
    which the file's table `first` records.  A tensor sum has words of
    fixed length: k letters for a co-operation of arity k (diff 1, cop 2,
    D<k> k), one for a bracket value or mc."""
    word_kind, operand, fixed, prefix, usage = _LINES[kind]
    for line in body:
        toks = line.toks
        head = toks[0]
        m = re.fullmatch(rf"{prefix}(\d+)", head) if prefix else None
        if m:
            if int(m.group(1)) < 1:
                line.fail(f"the arity of {head} must be at least 1")
            shift = int(m.group(1)) - 2
        elif head in fixed:
            shift = fixed[head]
        else:
            line.fail(usage)
        sign, degree = 1, None
        if operand == "gen":
            if line.tok(2) != "=":
                line.fail(usage)
            key = toks[1]
            if key not in space:
                line.fail(f"unknown generator {key!r}", 1)
            degree, eq = space.degree(key), 2
            what = f"d({key})" if head == "d" else f"{head} {key}"
        elif operand == "word":
            if line.tok(1) != "(":
                line.fail(usage)
            eq = (toks.index(")") if ")" in toks else len(toks)) + 1
            if line.tok(eq) != "=":
                line.fail("expected ( ... ) = <sum>")
            names = _input_names(line, eq - 1, space)
            if len(names) != shift + 2:
                line.fail(f"{head} takes {shift + 2} inputs, got {len(names)}")
            key, sign = canonical_word(space, "w", names)
            if key is None:
                line.fail("degenerate wedge word")
            degree = space.word_degree(key)
            what = f"{head} ( {' ^ '.join(names)} )"
        else:
            if line.tok(1) != "=":
                line.fail(usage)
            key, eq, what = None, 1, head
        line.once(first, (shift, key), what)
        letters = (shift + 2 if operand == "gen" else 1) if word_kind == "t" else None
        terms = [(c, w) for c, w in line.parse_sum(eq + 1, space, word_kind, letters)
                 if w is not None]
        if word_kind == "lie":
            value, pres = lincomb(
                space, ((c, bracket_tree_element(space, tree)) for c, tree in terms)), terms
        else:
            value = sign * Element.make(space, [(c, word_kind, fs) for c, fs in terms])
            pres = None
        if value and degree is not None and value.degree != degree + shift:
            line.fail(f"{what} must have degree {degree + shift}, got {value.degree}")
        if value:
            yield shift, key, value, pres


def _input_names(line, end, space):
    """The generator names of `g1 ^ ... ^ gk`, tokens 2 to `end` (exclusive)
    of `line`, the ones between the parentheses."""
    toks = line.toks
    for i in range(2, end):
        if i % 2 and toks[i] != "^":
            line.fail(f"expected ^ between inputs, got {toks[i]!r}", i)
        if not i % 2 and toks[i] == "^":
            line.fail("expected a generator name, got '^'", i)
    if end > 2 and end % 2 == 0:
        line.fail("expected a generator name after ^", end - 1)
    for i in range(2, end, 2):
        if toks[i] not in space:
            line.fail(f"unknown generator {toks[i]!r}", i)
    return toks[2:end:2]


# ---------------------------------------------------------------------------
# file parsing

# the directives, each allowed once: the kinds that read it and its usage
_DIRECTIVES = {
    "counit": (("dgc", "ainf"), "expected: counit <name>"),
    "truncate": (("cdga",), "expected: truncate <N>"),
}


def parse(path: str) -> ModelFile:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.reason if isinstance(exc, UnicodeDecodeError) else exc.strerror
        raise ParseError(path, 1, 0, f"cannot read the file: {why}") from None
    kind = None
    gens: list[tuple[str, int]] = []
    body: list[_Line] = []
    options: dict = {}
    first: dict = {}  # what each gen line, directive and headed line defines
    for lineno, raw in enumerate(lines, start=1):
        line = _Line(path, lineno, raw)
        toks = line.toks
        if not toks:
            continue
        head = toks[0]
        if kind is None:
            if head != "kind" or len(toks) != 2:
                line.fail(f"file must start with: kind <{'|'.join(_LINES)}>")
            kind = toks[1]
            if kind not in _LINES:
                line.fail(f"unknown kind {kind!r}", 1)
            continue
        if head == "gen":
            if len(toks) < 4 or toks[2] != ":":
                line.fail("expected: gen <name> : <degree>")
            di = 4 if toks[3] == "-" else 3
            if di >= len(toks) or not toks[di].isdigit():
                line.fail("expected an integer degree", len(toks) - 1)
            if di + 1 < len(toks):
                line.fail("expected: gen <name> : <degree>", di + 1)
            line.once(first, f"gen {toks[1]}")
            gens.append((toks[1], (-1 if di == 4 else 1) * int(toks[di])))
            continue
        if head in _DIRECTIVES:
            kinds, usage = _DIRECTIVES[head]
            if len(toks) != 2:
                line.fail(usage)
            if kind not in kinds:
                line.fail(f"{head} belongs to {' and '.join(kinds)} files, not {kind}")
            line.once(first, head)
            value = toks[1]
            if head == "truncate":
                if not value.isdigit():
                    line.fail("expected an integer", 1)
                value = int(value)
            options[head] = value
            continue
        body.append(line)

    if kind is None:
        raise ParseError(path, 1, 0, "empty file")
    space = GradedSpace.of(gens)
    entries = _headed_lines(body, space, kind, first)
    if kind == "cdga":
        payload = CDGA(space, {g: el for _, g, el, _ in entries})
    elif kind in ("dgc", "ainf", "linf"):
        from .structures import AInfCoalgebra, LInfAlgebra

        tabs: dict[int, dict] = {}
        for shift, x, el, _ in entries:
            tabs.setdefault(shift + 2, {})[x if kind == "linf" else Word.tensor(x)] = el
        if kind == "linf":
            payload = LInfAlgebra(space, {
                k: GradedMap(space, space, k - 2, tab, arity=k, in_kind="w")
                for k, tab in sorted(tabs.items())})
        else:
            ops = {k: GradedMap(space, space, k - 2, tab) for k, tab in sorted(tabs.items())}
            payload = AInfCoalgebra(space, ops, counit=options.get("counit"))
    elif kind == "dgl":
        diff, pres = {}, {}
        for _, g, el, p in entries:
            diff[g], pres[g] = el, p
        payload = FreeLieDGL(space, diff, presentation=pres)
    else:
        payload = lincomb(space, ((1, el) for _, _, el, _ in entries))
    return ModelFile(kind, space, payload, options)


# ---------------------------------------------------------------------------
# serialization


def _fmt_sum(terms) -> str:
    """Signed sum text from (coefficient, word text) pairs; "0" when empty."""
    bits = []
    for c, word in terms:
        if c == 1:
            term = word
        elif c == -1:
            term = f"- {word}"
        elif c < 0:
            term = f"- {-c} {word}"
        else:
            term = f"{c} {word}"
        if bits and not term.startswith("- "):
            term = "+ " + term
        bits.append(term)
    return " ".join(bits) if bits else "0"


def _fmt_terms(el: Element) -> str:
    return _fmt_sum((c, SEPARATOR[w.kind].join(w.factors)) for w, c in el.sorted_items())


def _header(kind: str, space: GradedSpace, counit: str | None = None) -> list[str]:
    lines = [f"kind {kind}"]
    if counit:
        lines.append(f"counit {counit}")
    return lines + [f"gen {n} : {d}" for n, d in space.basis]


def serialize(obj, kind: str | None = None) -> str:
    """Canonical machine-format text for any engine structure."""
    from .structures import AInfCoalgebra, LInfAlgebra

    if isinstance(obj, CDGA):
        lines = _header("cdga", obj.gens)
        for g in obj.gens.names:
            el = obj.diff.get(g)
            if el:
                lines.append(f"d {g} = {_fmt_terms(el)}")
    elif isinstance(obj, AInfCoalgebra):
        dgc = obj.is_dgc and kind != "ainf"
        lines = _header("dgc" if dgc else "ainf", obj.space, obj.counit)
        heads = (("diff", 1), ("cop", 2)) if dgc else ((f"D{k}", k) for k in sorted(obj.ops))
        for head, k in heads:
            for g in obj.space.names:
                el = obj.delta(k).apply_word(Word.tensor(g))
                if el:
                    lines.append(f"{head} {g} = {_fmt_terms(el)}")
    elif isinstance(obj, LInfAlgebra):
        lines = _header("linf", obj.space)
        for k in sorted(obj.ops):
            m = obj.ops[k]
            for w in sorted(m.images, key=lambda w: [obj.space.sortkey(f) for f in w.factors]):
                head = " ^ ".join(w.factors)
                lines.append(f"l{k} ( {head} ) = {_fmt_terms(m.images[w])}")
    elif isinstance(obj, FreeLieDGL):
        lines = _header("dgl", obj.gens)
        for g in obj.gens.names:
            img = obj.diff.get(g)
            if img:
                lines.append(f"diff {g} = {_fmt_lie(obj, g)}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def _fmt_lie(M: FreeLieDGL, g: str) -> str:
    pres = M.presentation.get(g)
    if pres:
        return _fmt_sum((c, bracket_tree_str(tree)) for c, tree in pres)
    # fall back to the Dynkin expansion: t = (1/k) rho(t) weightwise
    img = M.diff[g]
    terms = []
    for k in weights(img):
        for w, c in weight_component(img, k).sorted_items():
            terms.append((Fraction(c, k), bracket_tree_str(right_normed(w.factors))))
    return _fmt_sum(terms)


# ---------------------------------------------------------------------------
# commands


def _load(path: str, what: str, *kinds: str) -> ModelFile:
    """The model file at `path`, which `what` reads; any other kind is refused."""
    mf = parse(path)
    if mf.kind not in kinds:
        raise ValidationError(f"{what} expects a {' or '.join(kinds)} model, got {mf.kind}")
    return mf


def _as_linf(path: str, what: str) -> LInfAlgebra:
    mf = _load(path, what, "linf", "cdga")
    return mf.payload if mf.kind == "linf" else linf_from_cdga(mf.payload)


def cmd_check(args) -> int:
    mf = parse(args.file)
    print(f"{args.file}: {mf.kind} ok ({mf.space.dim} generators)")
    return 0


def cmd_transfer_ainf(args) -> int:
    C = _load(args.file, args.command, "dgc").payload
    from .transfer import canonical_retract, transfer_ainf

    H = transfer_ainf(C, canonical_retract(C), max_k=args.max_arity)
    sys.stdout.write(serialize(H, kind="ainf"))
    return 0


def cmd_quillen(args) -> int:
    if args.direct:
        M = quillen_differential_direct(_load(args.file, "quillen --direct", "dgc").payload)
    else:  # the functor reads co-operations of every arity
        M = quillen(_load(args.file, args.command, "dgc", "ainf").payload)
    sys.stdout.write(serialize(M))
    return 0


def cmd_cochain(args) -> int:
    sys.stdout.write(serialize(cochain(_load(args.file, args.command, "linf").payload)))
    return 0


def cmd_dualize(args) -> int:
    mf = _load(args.file, args.command, "cdga")
    B = FiniteCDGA(mf.payload, max_cohom=mf.options.get("truncate"))
    sys.stdout.write(serialize(dual_coalgebra(B, counital=args.full)))
    return 0


def _pointed_cutoff(B: CDGA, top: int | None, L: LInfAlgebra, mc: bool) -> int | None:
    """The dualization cutoff of a pointed model's source: its `truncate`
    `top`, lowered to N + 1, N the top degree of L (N + 2 with an MC element,
    which has degree -1).  A map c.x of degree >= 0 has |c| <= |x| <= N, and
    C_{<=N+1}, the dual of B / B^{>N+1}, is a sub-DGC with C's degree blocks
    through N and the boundaries from N + 1, so the printed model is the
    same.  B^{>N+1} is an ideal only when every generator has positive
    degree; otherwise, or on an empty L, `top` stands.  The cut never stands
    in for a missing `truncate`, which FiniteCDGA asks for on even generators."""
    degrees = B.gens.degrees()
    if not L.space.dim or min(degrees, default=1) <= 0 or (
            top is None and any(d % 2 == 0 for d in degrees)):
        return top
    cut = L.space.max_degree() + (2 if mc else 1)
    return cut if top is None else min(top, cut)


def cmd_mapmodel(args) -> int:
    if args.mc and not args.pointed:
        raise ValidationError("--mc applies to the pointed model only; add --pointed")
    xf = _load(args.xfile, f"{args.command} source", "cdga")
    L = _as_linf(args.yfile, f"{args.command} target")
    from .mapping import component_model, mapping_space_model, reduced_bs_cochain

    top = xf.options.get("truncate")
    if args.pointed:
        top = _pointed_cutoff(xf.payload, top, L, bool(args.mc))
    C = dual_coalgebra(FiniteCDGA(xf.payload, max_cohom=top), counital=not args.pointed)
    mm = mapping_space_model(C, L, max_k=args.max_arity)
    model = mm.model
    if args.pointed:
        phi = Element.zero(model.space)
        if args.mc:
            mc = _load(args.mc, f"{args.command} --mc", "mc").payload
            unknown = [f for w in mc.terms for f in w.factors if f not in model.space]
            if unknown:
                raise ValidationError(f"unknown name {unknown[0]!r}")
            phi = Element(model.space, dict(mc.terms))
        model = component_model(model, phi)
    texts = [serialize(model)] if args.emit != "bs" else []
    if args.emit != "linf":  # built before anything is written
        texts.append(serialize(reduced_bs_cochain(model, mm.homology, L.space)))
    sys.stdout.write("".join(texts))
    return 0


def cmd_invariants(args) -> int:
    mf = _load(args.file, args.command, "cdga", "dgl", "linf", "dgc")
    A = mf.payload
    if mf.kind == "cdga":
        reports = [differential_length(A)]
        # Wl needs L = s^{-1}V positively graded: no generator of degree <= 1
        if all(d > 1 for d in A.gens.degrees()):
            reports.append(whitehead_length(linf_from_cdga(A)))
    else:
        reports = [{"dgl": bracket_length, "linf": whitehead_length,
                    "dgc": conilpotence}[mf.kind](A)]
    for r in reports:
        print(repr(r))
    return 0


def cmd_hspace(args) -> int:
    x = _load(args.xfile, f"{args.command} source", "dgc", "dgl").payload
    print(repr(hspace_certificate(x, _as_linf(args.yfile, f"{args.command} target"))))
    return 0


# Each subcommand, in the order of the usage line: its handler, its help, its
# positional files and its options, each a flag and its `add_argument` keywords.
_COMMANDS = {
    "check": (cmd_check, "parse and run the axiom checkers", ("file",), {}),
    "transfer-ainf": (cmd_transfer_ainf, "higher Massey coproducts on homology", ("file",),
                      {"--max-arity": {"type": int}}),
    "quillen": (cmd_quillen, "free Lie model of a coalgebra", ("file",), {
        "--direct": {"action": "store_true",
                     "help": "minimal differential through the homology decomposition"}}),
    "cochain": (cmd_cochain, "Sullivan algebra of a linf model", ("file",), {}),
    "dualize": (cmd_dualize, "dual coalgebra of a finite cdga", ("file",),
                {"--full": {"action": "store_true", "help": "keep the counit"}}),
    "mapmodel": (cmd_mapmodel, "mapping-space model", ("xfile", "yfile"), {
        "--pointed": {"action": "store_true"},
        "--mc": {},
        "--emit": {"choices": ("linf", "bs", "both"), "default": "linf"},
        "--max-arity": {"type": int}}),
    "invariants": (cmd_invariants, "dl / bl / Wl / conilpotence", ("file",), {}),
    "hspace": (cmd_hspace, "H-space criterion for mapping components", ("xfile", "yfile"), {}),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="htcas",
        description="exact homotopy-transfer computer algebra",
    )
    # a process runs one command, so only its parser is built when argv[0]
    # names one; the metavar keeps every choice in the top-level usage line
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=every if len(names) == 1 else None)
    for name in names:
        fn, summary, files, options = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for file in files:
            p.add_argument(file)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)
    try:
        try:
            args = parser.parse_args(argv)
            return args.fn(args)
        except SystemExit as exc:  # argparse has printed the help or a usage error
            return 1 if exc.code else 0
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    except AxiomError as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        return 3
    except BoundError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
