"""Exact algebra of rational IO-sequences.

An IO-sequence is a word over the two-letter alphabet '-' / '+': a '-' is a
requirement for one input element, a '+' is the output of one element.  We
only ever materialize the rational ones, as an :class:`IOTerm`: either a
finite word, or a finite prefix followed by a non-empty loop repeated forever.
An infinite sequence must be productive (its loop contains a '+').

An IOTerm stores its prefix and its loop as runs, tuples of (symbol, count)
pairs in which adjacent runs are merged and no count is 0, so that a loop of
2^n symbols in four runs costs four pairs.  Every operation advances one run
per step; composition reads the outer operand's counter function along the
inner one's runs, and jumps at once the loop passes of the inner operand
that leave the outer one's output unchanged.  The words themselves are
spelled out only on demand, by the `prefix` and `loop` properties and by
`render`.

Interpreting a sequence gives an increasing step function from input supply
to output count, its counter function, with TOP playing the role of
infinity on both ends; `_shape` and `_reader` read it and `_of_values`
builds a term from its values.  All operations here (composition,
requirement removal, least fixed point) are exact on that function
semantics, and `normalize` computes the unique shortest representative of
a sequence.  The pointwise infimum of two sequences is taken in closed form
in `prodcheck.solver`.
"""

from __future__ import annotations

import bisect
import math
import re

MINUS = "-"
PLUS = "+"

#: Extended naturals: plain ints plus TOP (infinity).
TOP = math.inf

CoNat = int | float

_WORD = re.compile(r"[-+]*")
_RUN = re.compile(r"-+|\++")


def is_top(n: CoNat) -> bool:
    return n == TOP


def conat_str(n: CoNat) -> str:
    return "inf" if is_top(n) else str(int(n))


# ---------------------------------------------------------------------------
# runs


def _runs(word: str) -> tuple:
    """The runs of a word over '-' / '+'."""
    if not word:
        return ()
    if _WORD.fullmatch(word) is None:
        raise ValueError("bad IO symbol %r" % word.replace(MINUS, "").replace(PLUS, "")[0])
    return tuple([(run[0], len(run)) for run in _RUN.findall(word)])


def _push(out: list, sym: str, n: int) -> None:
    """Append n copies of `sym` to the runs in `out`."""
    if n:
        if out and out[-1][0] == sym:
            out[-1] = (sym, out[-1][1] + n)
        else:
            out.append((sym, n))


def _merged(runs) -> tuple:
    out: list = []
    for sym, n in runs:
        _push(out, sym, n)
    return tuple(out)


def _counts(runs) -> tuple:
    """The number of '-' and of '+' in the runs."""
    minus = plus = 0
    for sym, n in runs:
        if sym == PLUS:
            plus += n
        else:
            minus += n
    return minus, plus


class IOTerm:
    """A rational IO-sequence: `prefix` then `loop` forever.

    An empty loop means the sequence is the finite word `prefix`.  The term
    is built from the two words and keeps them as runs; :meth:`of_runs`
    builds one from runs directly.  Equality and hashing go by the runs;
    `normal` (set on the normal forms that `normalize` and
    `remove_requirement` build) is left out.  A term is never changed
    once built, so it keeps its hash from the first `hash` on, and its
    counter function's reader (`_reader`) from the first read on.
    """

    __slots__ = ("prefix_runs", "loop_runs", "normal", "_hash", "_read")

    def __init__(self, prefix: str, loop: str = ""):
        self.prefix_runs = _runs(prefix)
        self.loop_runs = _runs(loop)
        self.normal = False
        self._hash = self._read = None

    def __eq__(self, other):
        if type(other) is not IOTerm:
            return NotImplemented
        return self.prefix_runs == other.prefix_runs and self.loop_runs == other.loop_runs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.prefix_runs, self.loop_runs))
        return h

    def __repr__(self):
        return "IOTerm.of_runs(%r, %r)" % (self.prefix_runs, self.loop_runs)

    @classmethod
    def of_runs(cls, prefix_runs=(), loop_runs=()) -> "IOTerm":
        """The term with these runs, merged and with empty runs dropped."""
        return _term(_merged(prefix_runs), _merged(loop_runs))

    @property
    def prefix(self) -> str:
        return "".join([sym * n for sym, n in self.prefix_runs])

    @property
    def loop(self) -> str:
        return "".join([sym * n for sym, n in self.loop_runs])

    @property
    def finite(self) -> bool:
        return not self.loop_runs

    def __str__(self) -> str:
        return render(self)


def _term(prefix_runs: tuple, loop_runs: tuple, normal: bool = False) -> IOTerm:
    """The term with these runs, which must be merged and non-empty."""
    t = object.__new__(IOTerm)
    t.prefix_runs = prefix_runs
    t.loop_runs = loop_runs
    t.normal = normal
    t._hash = t._read = None
    return t


EPSILON = IOTerm("", "")

#: The successor n -> n+1 as a pebble spells it.
PEB_SEQ = IOTerm("+", "-+")


def render(t: IOTerm) -> str:
    """ASCII notation: prefix, then the loop in parentheses, e.g. ``-(-+)``."""
    if t.finite:
        return t.prefix if t.prefix_runs else "eps"
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
    if t.normal:  # built as a normal form: already the representative
        return t
    pre, loop = t.prefix_runs, t.loop_runs
    if not loop or (len(loop) == 1 and loop[0][0] == MINUS):
        # an all-input loop never produces again; same function as stopping
        if pre and pre[-1][0] == MINUS:
            pre = pre[:-1]
        return _term(pre, (), True)
    if len(loop) > 1 and loop[0][0] == loop[-1][0]:
        # pre (F B)^w = pre F (B F)^w: the loop now starts and ends on
        # different symbols, so its runs repeat exactly when its word does
        pre = _merged(pre + loop[:1])
        loop = loop[1:-1] + ((loop[-1][0], loop[-1][1] + loop[0][1]),)
    if len(loop) == 1:  # all '+': '+' forever takes every trailing '+'
        if pre and pre[-1][0] == PLUS:
            pre = pre[:-1]
        return _term(pre, ((PLUS, 1),), True)
    for d in range(2, len(loop), 2):
        if len(loop) % d == 0 and loop == loop[:d] * (len(loop) // d):
            loop = loop[:d]
            break
    # roll: walk the prefix backwards against the loop, cyclically, one run
    # pair per step; runs that end together let the walk go on.  `kept`
    # prefix runs stay whole, `cut` loop runs move whole to the front, and
    # `part` symbols of the loop run before them move too
    r = len(loop)
    kept, cut, part, rest = len(pre), 0, 0, ()
    while kept:
        sym, n = pre[kept - 1]
        loop_sym, loop_n = loop[-1 - cut % r]
        if sym != loop_sym:
            break
        if n == loop_n:
            kept -= 1
            cut += 1
            continue
        kept -= 1
        if n < loop_n:
            part = n
        else:
            rest = ((sym, n - loop_n),)
            cut += 1
        break
    if kept < len(pre):
        pre = pre[:kept] + rest
        k = r - 1 - cut % r  # the loop run that `part` comes from
        if part:
            sym, n = loop[k]
            loop = ((sym, part),) + loop[k + 1:] + loop[:k] + ((sym, n - part),)
        else:
            loop = loop[k + 1:] + loop[:k + 1]
    return _term(pre, loop, True)


# ---------------------------------------------------------------------------
# counter functions


def _shape(u: IOTerm) -> tuple:
    """(m, p, q): from supply m on, `u`'s output grows by q every p
    supplies.  A finite word grows by 0 and all output by TOP, per 1
    supply."""
    m = _counts(u.prefix_runs)[0]
    p, q = _counts(u.loop_runs)
    return (m, p, q) if p else (m, 1, TOP if q else 0)


def _reader(u: IOTerm):
    """`interpret(u, n)` as a function of n, by bisection over the '-'
    counts at the end of each '-' run of `u`'s prefix and one loop pass,
    each with the output before that run, once n drops whole loop passes.
    At TOP it reads TOP if the loop outputs, else the whole output.  Built
    once per term and kept on it; the closure holds no reference to `u`,
    so keeping it makes no reference cycle."""
    if u._read is not None:
        return u._read
    m, p, q = _shape(u)
    ends, outs, minus, plus = [], [], 0, 0
    for sym, k in u.prefix_runs + u.loop_runs:
        if sym == PLUS:
            plus += k
        else:
            outs.append(plus)
            minus += k
            ends.append(minus)
    outs.append(plus)  # past every '-': a finite word's whole output

    def read(n: CoNat) -> CoNat:
        if n < m:
            return outs[bisect.bisect_right(ends, n)]
        if is_top(q) or is_top(n):
            return TOP if q else outs[-1]
        passes = (n - m) // p
        return outs[bisect.bisect_right(ends, n - passes * p)] + passes * q

    u._read = read
    return read


def _of_values(values: list, start: int) -> IOTerm:
    """The canonical term whose output at supply n is `values[n]`: a stair up
    to `values[start]`, then a loop of the increments after it, or all output
    from the first TOP value on."""
    runs: list = []
    prev = 0
    for n, v in enumerate(values):
        if n:
            runs.append((MINUS, 1))
        if is_top(v):
            return normalize(IOTerm.of_runs(runs, ((PLUS, 1),)))
        runs.append((PLUS, v - prev))
        prev = v
    return normalize(IOTerm.of_runs(runs[: 2 * start + 1], runs[2 * start + 1 :]))


def interpret(t: IOTerm, n: CoNat) -> CoNat:
    """Output count of `t` given input supply `n` (monotone in `n`)."""
    return _reader(t)(n)


def prepend(word: str, t: IOTerm) -> IOTerm:
    return _term(_merged(_runs(word) + t.prefix_runs), t.loop_runs)


def compose(s: IOTerm, t: IOTerm) -> IOTerm:
    """Sequential composition: interpret(compose(s, t)) = interpret(s) o interpret(t).

    The result takes input where `t` does, so it reads `s` along `t`'s
    runs: a run of '-' is kept, and a run of k '+' at `t`'s output count c
    becomes the read(c + k) - read(c) '+' that `s` outputs on them, after
    the read(0) it outputs on no input.  From supply m on, `s` repeats every
    p supplies (`_shape`), so a loop pass of `t` that starts at c >= m in a
    phase (c - m) mod p seen before closes the loop.  The passes that leave
    `s`'s output unchanged are jumped at once, by galloping and bisection.
    A TOP read ends the result in (+), and an `s` with nothing left to
    output ends it as a finite word.

    The successor as a pebble spells it, +(-+), is recognized before either
    operand is normalized: after it, s loses its first '-', which the extra
    element meets; before it, t gains one '+' in front.
    """
    if t == PEB_SEQ:
        return remove_requirement(s)
    if s == PEB_SEQ:
        return normalize(prepend(PLUS, t))
    s, t = normalize(s), normalize(t)
    read, (m, p, _) = _reader(s), _shape(s)
    p_t, q_t = _counts(t.loop_runs)
    c = done = 0
    out: list = []  # unmerged runs, so that a loop can start at any index
    seen: dict = {}
    runs = ((PLUS, 0),) + t.prefix_runs  # an empty run of '+' reads read(0)
    while True:
        for sym, k in runs:
            if sym == MINUS:
                out.append((MINUS, k))
                continue
            c += k
            now = read(c)
            if is_top(now):
                return normalize(IOTerm.of_runs(out, ((PLUS, 1),)))
            out.append((PLUS, now - done))
            done = now
        if t.finite or done == read(TOP):  # t ends, or s has no more to output
            return normalize(IOTerm.of_runs(out))
        lo, hi = 0, 1  # lo passes of t leave s's output at done, hi passes do not
        while read(c + hi * q_t) == done:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if read(c + mid * q_t) == done else (lo, mid)
        c += lo * q_t
        out.append((MINUS, lo * p_t))
        if c >= m:
            phase = (c - m) % p
            if phase in seen:
                return normalize(IOTerm.of_runs(out[: seen[phase]], out[seen[phase] :]))
            seen[phase] = len(out)
        runs = t.loop_runs


def _first_minus(runs: tuple):
    """The index of the first run of '-', or None when there is none."""
    for i, (sym, _) in enumerate(runs):
        if sym == MINUS:
            return i
    return None


def remove_requirement(t: IOTerm) -> IOTerm:
    """Drop the first '-' of the denoted sequence (identity if none).

    One edit of the runs, whose result is already normal when no rule of
    `normalize` can fire: the '-' comes from a prefix run that neither
    empties nor is the last, or from the loop, unrolled once into the
    prefix, and the new prefix ends on another symbol than the loop (the
    prefix then had no '-', and the loop is kept).  Else it is normalized.
    """
    t = normalize(t)
    pre, loop = t.prefix_runs, t.loop_runs
    i = _first_minus(pre)
    if i is None:
        i = _first_minus(loop)
        if i is None:
            return t
        head = _merged(pre + loop[:i] + ((MINUS, loop[i][1] - 1),) + loop[i + 1:])
        if head[-1][0] != loop[-1][0]:
            return _term(head, loop, True)
        return normalize(_term(head, loop))
    n = pre[i][1]
    head = pre[:i] + ((MINUS, n - 1),) + pre[i + 1:]
    if n > 1 and i < len(pre) - 1:
        return _term(head, loop, True)
    return normalize(IOTerm.of_runs(head, loop))


def least_fixed_point(t: IOTerm) -> CoNat:
    """Least fixed point of the interpretation f, in one pass over the runs.

    f is monotone and continuous, so its least fixed point is its least
    pre-fixed point: the least v with f(v) <= v, or TOP if there is none.
    f(v) counts the '+' before the (v+1)-th '-', so v qualifies iff at most
    v '+' go before that '-', and the first such '-' gives the answer.  In
    one run of '-', all of them follow the same '+'.  Each loop pass adds p
    '-' and q '+': with q >= p a run of the loop that has no such '-' in its
    first pass has none in any later pass, with q < p the first pass in
    which it has one is a division away.  A finite word ends with f
    constant at its number of '+'.
    """
    t = normalize(t)
    minus = plus = 0  # the '-' and '+' before the current run
    for sym, n in t.prefix_runs:
        if sym == PLUS:
            plus += n
        elif plus <= minus + n - 1:
            return _checked_fixed_point(t, max(minus, plus))
        else:
            minus += n
    if t.finite:
        return _checked_fixed_point(t, max(minus, plus))
    p, q = _counts(t.loop_runs)
    best: CoNat = TOP
    for sym, n in t.loop_runs:
        if sym == PLUS:
            plus += n
            continue
        gap = plus - (minus + n - 1)  # excess '+' at this run's last '-' in pass 0
        if gap <= 0 or p > q:
            k = -(-gap // (p - q)) if gap > 0 else 0  # the passes that close it
            best = min(best, max(minus + k * p, plus + k * q))
        minus += n
    return best if is_top(best) else _checked_fixed_point(t, best)


def _checked_fixed_point(t: IOTerm, v: int) -> int:
    """`v`, once it is seen to be a fixed point of `t`'s interpretation."""
    if interpret(t, v) != v:
        raise AssertionError("least pre-fixed point %d is not a fixed point" % v)
    return v
