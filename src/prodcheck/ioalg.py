"""Exact algebra of rational IO-sequences.

An IO-sequence is a word over the two-letter alphabet '-' / '+': a '-' is a
requirement for one input element, a '+' is the output of one element.  We
only ever materialize the rational ones, as an :class:`IOTerm`: either a
finite word, or a finite prefix followed by a non-empty loop repeated forever.
An infinite sequence must be productive (its loop contains a '+').

Interpreting a sequence gives an increasing step function from input supply
to output count, with TOP playing the role of infinity on both ends.  All
operations here (composition, pointwise infimum, requirement removal, least
fixed point) are exact on that function semantics, and `normalize` computes
the unique shortest representative of a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MINUS = "-"
PLUS = "+"

#: Extended naturals: plain ints plus TOP (infinity).
TOP = math.inf

CoNat = int | float


def is_top(n: CoNat) -> bool:
    return n == TOP


def monus(a: CoNat, b: CoNat) -> CoNat:
    """Truncated subtraction; TOP - TOP is 0 by convention."""
    if is_top(b):
        return 0
    if is_top(a):
        return TOP
    return a - b if a > b else 0


def conat_str(n: CoNat) -> str:
    return "inf" if is_top(n) else str(int(n))


@dataclass(frozen=True)
class IOTerm:
    """A rational IO-sequence: `prefix` then `loop` forever.

    An empty loop means the sequence is the finite word `prefix`.
    """

    prefix: str
    loop: str = ""

    def __post_init__(self):
        for ch in self.prefix + self.loop:
            if ch not in (MINUS, PLUS):
                raise ValueError("bad IO symbol %r" % ch)

    @property
    def finite(self) -> bool:
        return not self.loop

    def __str__(self) -> str:
        return render(self)


EPSILON = IOTerm("", "")


def render(t: IOTerm) -> str:
    """ASCII notation: prefix, then the loop in parentheses, e.g. ``-(-+)``."""
    if t.finite:
        return t.prefix if t.prefix else "eps"
    return "%s(%s)" % (t.prefix, t.loop)


def parse_ioterm(text: str) -> IOTerm:
    """Inverse of :func:`render`; accepts e.g. ``-(-+)``, ``++``, ``(+)``."""
    text = text.strip()
    if text == "eps":
        return EPSILON
    if "(" in text:
        if not text.endswith(")") or text.count("(") != 1:
            raise ValueError("malformed IO-term %r" % text)
        pre, loop = text[:-1].split("(")
        if not loop:
            raise ValueError("empty loop in %r" % text)
        return IOTerm(pre, loop)
    return IOTerm(text, "")


def normalize(t: IOTerm) -> IOTerm:
    """Unique shortest representative of the same sequence.

    Folds the loop to its primitive period, rolls shared trailing symbols of
    the prefix into the loop, converts a '+'-free loop into a finite word,
    and trims trailing requirements off finite words.
    """
    pre, loop = t.prefix, t.loop
    if loop and PLUS not in loop:
        # an all-input loop never produces again; same function as stopping
        loop = ""
    if not loop:
        return IOTerm(pre.rstrip(MINUS), "")
    n = len(loop)
    for p in range(1, n):
        if n % p == 0 and loop == loop[:p] * (n // p):
            loop = loop[:p]
            break
    while pre and pre[-1] == loop[-1]:
        pre = pre[:-1]
        loop = loop[-1] + loop[:-1]
    return IOTerm(pre, loop)


def interpret(t: IOTerm, n: CoNat) -> CoNat:
    """Output count of `t` given input supply `n` (monotone in `n`)."""
    if is_top(n):
        if t.loop and PLUS in t.loop:
            return TOP
        return t.prefix.count(PLUS) + t.loop.count(PLUS)
    need = int(n)
    prod = 0
    for ch in t.prefix:
        if ch == PLUS:
            prod += 1
        else:
            if need == 0:
                return prod
            need -= 1
    if not t.loop:
        return prod
    p = t.loop.count(MINUS)
    q = t.loop.count(PLUS)
    if p == 0:
        return TOP
    cycles = need // p
    prod += cycles * q
    need -= cycles * p
    for ch in t.loop:
        if ch == PLUS:
            prod += 1
        else:
            if need == 0:
                return prod
            need -= 1
    raise AssertionError("unreachable: supply not exhausted by loop pass")


def prepend(word: str, t: IOTerm) -> IOTerm:
    return IOTerm(word + t.prefix, t.loop)


def compose(s: IOTerm, t: IOTerm) -> IOTerm:
    """Sequential composition: interpret(compose(s, t)) = interpret(s) o interpret(t).

    Runs the communication between the two sequences symbol by symbol.  The
    pair of residual positions fully determines the future, so when a pair
    repeats the emitted segment in between is the loop (pigeonhole over the
    finitely many position pairs).  A position equal to its word's length
    marks a finite word that has ended.
    """
    s = normalize(s)
    t = normalize(t)
    ws, wt = s.prefix + s.loop, t.prefix + t.loop

    def advance(u: IOTerm, word: str, pos: int) -> int:
        pos += 1
        if pos == len(word) and u.loop:
            return len(u.prefix)  # wrap to loop start
        return pos

    ps = pt = 0
    out: list[str] = []
    seen: dict = {}
    while True:
        key = (ps, pt)
        if key in seen:
            i = seen[key]
            loop = "".join(out[i:])
            assert loop, "cycle without progress"
            return normalize(IOTerm("".join(out[:i]), loop))
        seen[key] = len(out)
        if ps == len(ws):
            return normalize(IOTerm("".join(out), ""))
        if ws[ps] == PLUS:
            out.append(PLUS)
            ps = advance(s, ws, ps)
            continue
        if pt == len(wt):
            return normalize(IOTerm("".join(out), ""))
        if wt[pt] == PLUS:  # internal hand-over of one element
            ps = advance(s, ws, ps)
            pt = advance(t, wt, pt)
        else:
            out.append(MINUS)
            pt = advance(t, wt, pt)


def infimum(s: IOTerm, t: IOTerm, max_columns: int = 10000) -> IOTerm:
    """Pointwise minimum of the two interpretations, as a canonical term.

    Solves the one-root system X = s /\\ t, where each operand with a loop
    continues with its own variable L = loop L, so that the solver is the
    single engine for rational infima; `max_columns` caps its diagram.
    """
    from .equations import EEmpty, EInf, EVar, IOSpec, steps
    from .solver import solve  # solver imports this module

    equations: dict = {}

    def operand(name: tuple, u: IOTerm):
        if not u.loop:
            return steps(u.prefix, EEmpty())
        equations[name] = steps(u.loop, EVar(name))
        return steps(u.prefix, EVar(name))

    root = ("inf",)
    equations[root] = EInf(operand(("inf", 1), s), operand(("inf", 2), t))
    return solve(IOSpec(equations, (root,)), root, max_columns=max_columns)


def remove_requirement(t: IOTerm) -> IOTerm:
    """Drop the first '-' of the denoted sequence (identity if none)."""
    t = normalize(t)
    if MINUS in t.prefix:
        i = t.prefix.index(MINUS)
        return normalize(IOTerm(t.prefix[:i] + t.prefix[i + 1:], t.loop))
    if t.loop and MINUS in t.loop:
        i = t.loop.index(MINUS)
        return normalize(IOTerm(t.prefix + t.loop[:i] + t.loop[i + 1:], t.loop))
    return t


def least_fixed_point(t: IOTerm) -> CoNat:
    """Least fixed point of the interpretation (Kleene iteration from 0).

    Divergence is decided from the loop shape.  Past the prefix the map
    gains q outputs per p inputs: with q > p every fixed point is bounded by
    (settle + p) * q, so an iterate beyond that settles it; with q == p the
    gap to the diagonal is p-periodic in the argument, so p unsuccessful
    rounds in that regime settle it; with q < p the iteration reaches a
    fixed point on its own.
    """
    t = normalize(t)
    settle = t.prefix.count(MINUS)
    p = t.loop.count(MINUS)
    q = t.loop.count(PLUS)
    v: CoNat = 0
    rounds_past = 0
    guard = 0
    while True:
        nv = interpret(t, v)
        if is_top(nv):
            return TOP
        if nv == v:
            return v
        assert nv > v, "interpretation must be increasing"
        v = nv
        if t.loop:
            if q > p and v > (settle + p) * q:
                return TOP
            if q == p and v >= settle:
                rounds_past += 1
                if rounds_past > p:
                    return TOP
        guard += 1
        assert guard < 10_000_000, "fixed point iteration runaway"


def equal_denotation(s: IOTerm, t: IOTerm) -> bool:
    """True iff both terms denote the same sequence (unique normal forms)."""
    return normalize(s) == normalize(t)
