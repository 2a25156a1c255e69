"""Solver for finite, weakly guarded IO-expression systems.

Only the cyclic part of a system needs the diagram.  The caller walks the
variable graph (`TraceGraph.refs`) from its roots with
`streamspec.feedback_order`, whose back-edge targets form a feedback vertex
set F; every other variable's equation is then a composition of prepends and
infima over values already known, in the walk's post-order, and is evaluated
with the IO-term algebra (`evaluate`), each infimum in closed form from
its two operands' counter functions, as `prodcheck.ioalg` reads them
(`infimum`).

The unique solution for a variable of F is recovered from a trace graph: a
node per position of every right-hand side, with one successor list each,
labelled '-' or '+' for a step and silent (None) for variable references and
infimum forks.  The graph is the same for every root, so each system keeps
one graph, checked to have no cycle of silent edges, and a root's diagram
starts at the head of its equation.  `_columns` generates that
two-dimensional diagram column by column (one column per input consumed,
heights counting outputs), each with the solution's value at its supply:
the lowest '-' node of the column, read off the next column's seed.  The
repetition search in `solve` keeps each column once, with the values, and
finds two strips with the same node constellation whose low entries, swept
alone from the earlier strip, reproduce its values and themselves shifted;
the value sequence is then quasi-periodic and the rational IO-term is read
off (`ioalg._of_values`, as for an infimum).  An exact repeat, every node at
its earlier relative height, needs no second sweep: its low entries are the
earlier column, which replays the strip.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .equations import CapError, Caps, EEmpty, EInf, EStep, EVar, IOSpec, TranslationError, var_str
from .ioalg import EPSILON, MINUS, TOP, IOTerm, _of_values, _reader, _shape, is_top, normalize, prepend
from .streamspec import feedback_order


class TraceGraph:
    __slots__ = ("nodes", "succ", "label", "heads", "refs")

    def __init__(self, nodes: list, succ: list, label: list, heads: dict, refs: dict):
        self.nodes = nodes  # (var, parent id, branch digit) labels, index = node id
        self.succ = succ  # successors per node
        self.label = label  # '-' or '+' for a labelled edge, None for silent ones
        self.heads = heads  # var -> node id of the top position of its right-hand side
        self.refs = refs  # var -> the variables its right-hand side names, in preorder

    @property
    def size(self) -> int:
        return len(self.nodes)


def _system_graph(iospec: IOSpec) -> TraceGraph:
    """The trace graph of the whole system, shared by every root.

    One preorder walk per right-hand side numbers its positions, so a
    node's first child is the next node; an infimum's right child is linked
    when the walk reaches it, a variable reference once every head is known.
    The walk also lists the variables each right-hand side names, left to
    right, as `refs`.
    """
    nodes: list = []
    succ: list = []
    label: list = []
    heads: dict = {}
    refs: dict = {}
    links: list = []  # (node id, variable) of every reference, in node order
    for var, expr in iospec.equations.items():
        heads[var] = len(nodes)
        named = refs[var] = []
        todo = [(expr, None, None)]
        while todo:
            e, parent, digit = todo.pop()
            nid = len(nodes)
            nodes.append((var, parent, digit))
            if digit == 2:
                succ[parent].append(nid)
            if isinstance(e, EVar):
                links.append((nid, e.var))
                named.append(e.var)
                out, sym = [], None
            elif isinstance(e, EStep):
                todo.append((e.body, nid, 1))
                out, sym = [nid + 1], e.sym
            elif isinstance(e, EInf):
                todo += ((e.right, nid, 2), (e.left, nid, 1))
                out, sym = [nid + 1], None
            else:  # the end of the sequence: production freezes, inputs are ignored
                out, sym = [nid], MINUS
            succ.append(out)
            label.append(sym)
    for nid, v in links:
        if v not in heads:
            raise TranslationError("undefined variable %s" % (v,))
        succ[nid].append(heads[v])

    if feedback_order(range(len(nodes)), lambda v: () if label[v] else succ[v])[0]:
        raise TranslationError("silent cycle: system is not weakly guarded")
    return TraceGraph(nodes, succ, label, heads, refs)


def _position(g: TraceGraph, node: int) -> str:
    """The node's position in its right-hand side, as branch digits ("e" at
    the top)."""
    digits = []
    _, parent, digit = g.nodes[node]
    while parent is not None:
        digits.append(str(digit))
        _, parent, digit = g.nodes[parent]
    return "".join(reversed(digits)) or "e"


def build_graph(iospec: IOSpec, root) -> TraceGraph:
    """The system's trace graph, once `root` is checked to have an
    equation.  Every root shares it: it is built and checked on first use
    and kept on the `IOSpec`."""
    if root not in iospec.equations:
        raise TranslationError("root %r has no equation" % (root,))
    if iospec.graph is None:
        iospec.graph = _system_graph(iospec)
    return iospec.graph


# ---------------------------------------------------------------------------
# the diagram


def _vclose(g: TraceGraph, seed: dict) -> dict:
    """Least heights reachable from `seed` by silent (0) and '+' (1) moves."""
    succ, label = g.succ, g.label
    best = dict(seed)
    heap = [(y, v) for v, y in seed.items()]
    heapq.heapify(heap)
    while heap:
        y, v = heapq.heappop(heap)
        if best[v] < y or label[v] == MINUS:
            continue
        if label[v]:  # '+'
            y += 1
        for w in succ[v]:
            if y < best.get(w, TOP):
                best[w] = y
                heapq.heappush(heap, (y, w))
    return best


def _columns(g: TraceGraph, first: dict):
    """The columns of the omit-reduced diagram over `g`, left to right from
    `first` (node -> height; for a root, the head of its equation at 0),
    each with its bound, the least height of a node that can consume: its
    '-' nodes seed the next column at their own heights."""
    succ, label = g.succ, g.label
    seed = first
    while True:
        column = _vclose(g, seed)
        seed = {}
        for v, y in column.items():
            if label[v] == MINUS:
                w = succ[v][0]
                if y < seed.get(w, TOP):
                    seed[w] = y
        yield column, min(seed.values(), default=TOP)


# ---------------------------------------------------------------------------
# repetition search and extraction


def _check_repetition(g: TraceGraph, bounds: list, x1: int, x2: int, core: dict, d: int) -> bool:
    """Only the nodes that kept their relative height, `core` (as at x1), may
    contribute to the bound on [x1, x2], and they must rebuild themselves `d`
    higher at x2; an empty core bounds nothing, and the bound at x1 is finite."""
    for x, (col, beta) in zip(range(x1, x2 + 1), _columns(g, core)):
        if beta != bounds[x]:
            return False
    return all(col.get(v) == y + d for v, y in core.items())


def dump_diagram(iospec: IOSpec, root, max_columns: int) -> str:
    """Per-column node/height table plus the repetition that closed the
    search (debug rendering for the CLI): every column the solver's sweep
    read, with its bound, replayed once the sweep has closed."""
    witness: list = []
    solve(iospec, root, max_columns, witness)
    g = build_graph(iospec, root)
    lines = ["diagram for %s" % var_str(root)]
    for x, (col, beta) in enumerate(_columns(g, {g.heads[root]: 0})):
        cells = sorted(col.items(), key=lambda kv: (kv[1], kv[0]))
        text = " ".join("%s@%s=%d" % (var_str(g.nodes[v][0]), _position(g, v), y) for v, y in cells)
        lines.append("  x=%d beta=%s | %s" % (x, "inf" if is_top(beta) else int(beta), text))
        if is_top(beta) or witness and x == witness[0][1]:
            break
    lines.append("  repetition: strips %d and %d" % witness[0] if witness else "  all-output tail: no repetition needed")
    return "\n".join(lines)


def solve(iospec: IOSpec, root, max_columns: int = Caps.DEFAULTS["max_columns"], trace=None) -> IOTerm:
    """Canonical IO-term denoting the unique solution for `root`, by a
    repetition search over its diagram.  Each column is kept once, with its
    least height, and later ones compare with it.  When a repetition closes
    the search, `(x1, x2)`, the columns of its two strips, is appended to
    `trace`."""
    g = build_graph(iospec, root)
    bounds: list = []
    strips: dict = {}  # hash of the node set -> [(x, least height, column)]
    for x, (col, beta) in zip(range(max_columns), _columns(g, {g.heads[root]: 0})):
        bounds.append(beta)
        if is_top(beta):
            # no consuming node is left: all output from here on
            return _of_values(bounds, x)
        if not col:
            raise AssertionError("empty column with a finite bound")
        h = min(col.values())
        key = hash(frozenset(col))
        for x1, h1, col1 in strips.get(key, ()):
            d = h - h1
            if col.keys() == col1.keys() and all(col[v] - d >= y for v, y in col1.items()):
                core = {v: y for v, y in col1.items() if col[v] - d == y}
                # an exact repeat's core is column x1: the check holds by construction
                if len(core) == len(col) or _check_repetition(g, bounds, x1, x, core, d):
                    if trace is not None:
                        trace.append((x1, x))
                    return _of_values(bounds, x1)
        strips.setdefault(key, []).append((x, h, col))
    raise CapError("repetition search cap exceeded (%d columns)" % max_columns)


# ---------------------------------------------------------------------------
# the acyclic rest of a system


def _rises(u: IOTerm, a: int, b: int) -> list:
    """The supplies in (a, b) at which `u`'s output rises, one range per '+'
    run: a loop's steps by its period, an all-output loop's is its m."""
    _, p, q = _shape(u)
    n, found = 0, []
    for i, (sym, k) in enumerate(u.prefix_runs + u.loop_runs):
        if sym == MINUS:
            n += k
        elif i < len(u.prefix_runs) or is_top(q):
            found.append(range(max(n, a + 1), min(n + 1, b)))
        else:
            found.append(range(n + max(0, (a - n) // p + 1) * p, b, p))
    return found


def _lead_points(low: IOTerm, high: IOTerm, a: int, b: int) -> tuple:
    """How many and which supplies hold the least lead of `high` over `low`
    on [a, b).  The lead only grows while `low` stays put and only falls
    while `high` does, so it is least both at a or a rise of `low` and at
    b - 1 or just before a rise of `high`; the smaller set is read."""
    ups, downs = _rises(low, a, b), _rises(high, a, b)
    n_ups, n_downs = sum(map(len, ups)), sum(map(len, downs))
    if n_ups <= n_downs:
        return n_ups + 1, itertools.chain([a], *ups)
    return n_downs + 1, itertools.chain([b - 1], (n - 1 for r in downs for n in r))


def infimum(s: IOTerm, t: IOTerm, max_columns: int = Caps.DEFAULTS["max_columns"]) -> IOTerm:
    """Pointwise minimum of the two interpretations, as a canonical term.

    From supply `start` on, each operand grows by a fixed amount every
    `period` supplies.  An operand that grows no more than the other and is
    nowhere above it on [0, start + period) is the minimum.  Otherwise, with
    equal growth the minimum repeats over `period`; with unequal growth the
    operand that grows less is the minimum, over its own loop, once the
    other's least lead in one period is made up.  Past `max_columns`
    supplies, a check is skipped and a lead scan or minimum raises `CapError`.
    Each point is read by `ioalg._reader`, in time logarithmic in the runs.
    """
    (ms, ps, qs), (mt, pt, qt) = _shape(s), _shape(t)
    read = {s: _reader(s), t: _reader(t)}
    start, period = max(ms, mt), math.lcm(ps, pt)
    gs, gt = qs * (period // ps), qt * (period // pt)
    for low, high, lesser in ((s, t, gs <= gt), (t, s, gt <= gs)):
        # past `start` the lead repeats over `period` or grows with it
        count, points = _lead_points(low, high, 0, start + period)
        if lesser and count <= max_columns and all(read[high](n) >= read[low](n) for n in points):
            return normalize(low)
    if gs != gt:
        low, high, p = (s, t, ps) if gs < gt else (t, s, pt)
        # a lead one period on is larger by |gt - gs|, so one period suffices
        count, points = _lead_points(low, high, start, start + period)
        if count > max_columns:
            raise CapError("repetition search cap exceeded (%d columns)" % max_columns)
        lead = min(read[high](n) - read[low](n) for n in points)
        if lead < 0:
            start += -(lead // abs(gt - gs)) * period
        period = p
    if start + period >= max_columns:
        raise CapError("repetition search cap exceeded (%d columns)" % max_columns)
    return _of_values([min(read[s](n), read[t](n)) for n in range(start + period + 1)], start)


def evaluate(expr, values: dict, max_columns: int = Caps.DEFAULTS["max_columns"],
             prepends: dict | None = None) -> IOTerm:
    """Canonical IO-term of `expr` when every variable it names has its
    canonical value in `values`: a run of steps prepends its whole word,
    an infimum takes the closed form of its two operands' values.
    `prepends`, if given, maps `(word, value)` to the normal form of the
    word in front of the value; a caller that shares one dict across the
    equations of one system computes each distinct prepend once."""
    prepends = {} if prepends is None else prepends
    results: list = []
    todo: list = [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, EVar):
            results.append(values[e.var])
        elif isinstance(e, EEmpty):
            results.append(EPSILON)
        elif isinstance(e, EStep):
            word = []
            while isinstance(e, EStep):
                word.append(e.sym)
                e = e.body
            todo += ("".join(word), e)
        elif isinstance(e, EInf):
            todo += (None, e.right, e.left)
        elif e is None:  # both operands of an infimum are done
            right = results.pop()
            results.append(infimum(results.pop(), right, max_columns=max_columns))
        else:  # a word, to go in front of the value just done
            key = (e, results.pop())
            if key not in prepends:
                prepends[key] = normalize(prepend(*key))
            results.append(prepends[key])
    return results[0]
