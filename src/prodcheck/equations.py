"""Recursion equations over IO-expressions for a stream specification.

Every stream symbol f gets one variable per argument place and supply level
q (how many elements are already queued in front of that argument) plus a
star variable for its production with unlimited supplies.  The family is
conceptually infinite in q; `finitize` materializes the part reachable from
the requested roots and removes non-consuming pseudo-cycles: whenever some
X_{f,i,q} reaches X_{f,i,q'} with q < q' along a path that only ever emits
'+', the lower variable is replaced by the all-output variable.

Every later stage imports this module, so it also holds `Caps`, the bounds
of an analysis, and the two errors an analysis can end in.
"""

from __future__ import annotations

import heapq

from .streamspec import Classification, Node, reachable

# ---------------------------------------------------------------------------
# variables and expressions

XM = ("m",)  # the empty sequence
XP = ("p",)  # all output
XID = ("id",)  # one in, one out, forever
_MU_BASE = {XM: "eps", XP: "mu x. +x", XID: "mu x. -+x"}  # their mu renderings; never bound


def star(symbol: str):
    return ("star", symbol)


def arg(symbol: str, i: int, q: int):
    return ("arg", symbol, i, q)


def var_str(v) -> str:
    if v == XM:
        return "X_-"
    if v == XP:
        return "X_+"
    if v == XID:
        return "X_id"
    if v[0] == "star":
        return "X_{%s,*}" % v[1]
    return "X_{%s}" % ",".join(map(str, v[1:]))  # an `arg`, or any other kind


class _ExprNode(Node):
    """An IO-expression node: structural `==` and `hash` from `Node`, and
    `repr` is `expr_str`."""

    __slots__ = ()

    def __repr__(self):
        return expr_str(self)


class EEmpty(_ExprNode):
    __slots__ = __match_args__ = ()


class EVar(_ExprNode):
    __slots__ = __match_args__ = ("var",)

    def __init__(self, var: tuple):
        self.var = var


class EStep(_ExprNode):
    __slots__ = __match_args__ = ("sym", "body")

    def __init__(self, sym: str, body: "IOExpr"):
        self.sym = sym  # '-' or '+'
        self.body = body


class EInf(_ExprNode):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "IOExpr", right: "IOExpr"):
        self.left = left
        self.right = right


IOExpr = EEmpty | EVar | EStep | EInf


def steps(word: str, tail: IOExpr) -> IOExpr:
    for ch in reversed(word):
        tail = EStep(ch, tail)
    return tail


def inf_all(parts: list) -> IOExpr:
    if not parts:
        return EVar(XP)  # the infimum of nothing constrains nothing
    expr = parts[-1]
    for part in reversed(parts[:-1]):
        expr = EInf(part, expr)
    return expr


def expr_str(e: IOExpr, equations=None) -> str:
    """ASCII rendering on an explicit stack.  Given the system's `equations`,
    mu binds each non-base variable at its first occurrence, over its equation."""
    out = []
    bound: set = set()
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, str):
            out.append(e)
        elif isinstance(e, EEmpty):
            out.append("eps")
        elif isinstance(e, EStep):
            out.append(e.sym)
            todo.append(e.body)
        elif isinstance(e, EInf):  # one pair of braces per right-nested chain
            pieces = ["/\\ { "]
            while isinstance(e, EInf):
                pieces += (e.left, ", ")
                e = e.right
            todo.extend(reversed(pieces + [e, " }"]))
        elif equations is None or e.var in bound:
            out.append(var_str(e.var))
        elif e.var in _MU_BASE:
            out.append(_MU_BASE[e.var])
        else:
            bound.add(e.var)
            out.append("mu %s. " % var_str(e.var))
            todo.append(equations[e.var])
    return "".join(out)


def expr_vars(e: IOExpr):
    """Yield (variable, clean) for each occurrence, left to right; clean = no
    '-' above it."""
    todo = [(e, False)]
    while todo:
        e, consumed = todo.pop()
        if isinstance(e, EVar):
            yield e.var, not consumed
        elif isinstance(e, EStep):
            todo.append((e.body, consumed or e.sym == "-"))
        elif isinstance(e, EInf):
            todo += ((e.right, consumed), (e.left, consumed))


class Caps(Node):
    """The search bounds of one analysis, given in the order of `DEFAULTS`
    or by name.  Each field is the command-line flag of the same name
    (`max_columns` is `--max-columns`), and its default in `DEFAULTS` is the
    only one: functions that take a bound default to it."""

    DEFAULTS = {
        "max_columns": 10000,  # every diagram sweep
        "finitize_cap": 100000,  # equations of one finitized system
        "oracle_prod_cap": 32,  # output the game oracle counts
        "oracle_steps": 100000,  # expansions one constant's games share, reused states charged in full
    }
    __slots__ = __match_args__ = tuple(DEFAULTS)

    def __init__(self, *values, **named):
        if len(values) > len(self.DEFAULTS):
            raise TypeError("Caps takes at most %d values" % len(self.DEFAULTS))
        for name, value in dict(self.DEFAULTS, **dict(zip(self.DEFAULTS, values)), **named).items():
            setattr(self, name, value)

    def __repr__(self):
        return "Caps(%s)" % ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.DEFAULTS)


class TranslationError(Exception):
    """The specification cannot be translated (exit 12)."""


class CapError(Exception):
    """A search bound of `Caps` was reached (exit 13)."""


# ---------------------------------------------------------------------------
# the equation generator


def rhs(cls: Classification, v) -> IOExpr:
    """The right-hand side of `v` in the infinite system of the classified
    specification: for a stream symbol's variable, the infimum over its
    rules, or X_- when the symbol is unguarded."""
    if v == XM:
        return EEmpty()
    if v == XP:
        return EStep("+", EVar(XP))
    if v == XID:
        return EStep("-", EStep("+", EVar(XID)))
    f = v[1]
    if cls.symbol_class[f] == "unfriendly":
        bad = next(sh for sh in cls.shapes[f] if sh.nesting)
        raise TranslationError("cannot translate %r: unfriendly nesting rule %r" % (f, str(bad.rule)))
    if not cls.guarded[f]:
        return EVar(XM)
    parts = []
    for sh in cls.shapes[f]:
        if sh.nesting:
            # a nesting rule keeps producing whatever it is fed
            parts.append(EVar(XID))
        elif v[0] == "star":
            parts.append(EVar(XP) if sh.tail_var is not None else steps("+" * sh.produce, EVar(star(sh.callee))))
        else:
            # argument i with q elements queued: the pattern takes c, each
            # one past the queue costs a '-', and the queue's rest stays
            _, _, i, q = v
            c = sh.consume[i - 1]
            q2 = max(q - c, 0)
            if sh.tail_var is None:
                members = [EVar(arg(sh.callee, j + 1, q2 + sh.feedback[j])) for j, k in enumerate(sh.perm) if k == i]
                body = inf_all(members)
            elif sh.tail_var == i:
                body = steps("+" * q2, EVar(XID))
            else:
                body = EVar(XP)
            parts.append(steps("-" * max(c - q, 0) + "+" * sh.produce, body))
    return inf_all(parts)


# ---------------------------------------------------------------------------
# finite systems


class IOSpec:
    __slots__ = ("equations", "roots", "graph")

    def __init__(self, equations: dict, roots: tuple):
        self.equations = equations  # var -> IOExpr
        self.roots = roots
        # the solver's trace graph, built on first use; the equations must
        # not change once it is there
        self.graph = None

    def dump(self) -> str:
        lines = []
        for v, e in self.equations.items():
            lines.append("%s = %s" % (var_str(v), expr_str(e)))
        return "\n".join(lines)

    def dump_mu(self, root) -> str:
        """Single-expression rendering with mu binding each variable at its
        first occurrence, e.g. ``mu X_{f,1,0}. /\\ { --+X_{f,1,1}, ... }``."""
        return expr_str(EVar(root), self.equations)


def _var_order_key(v):
    if v[0] == "arg":
        return (v[3], 1, v[1], v[2])
    if v[0] == "star":
        return (0, 0, v[1], 0)
    return (0, -1, v[0], 0)


def finitize(cls: Classification, roots, cap: int = Caps.DEFAULTS["finitize_cap"]) -> IOSpec:
    """Materialize the system reachable from `roots`, applying pseudo-cycle
    removal eagerly, lowest supply level first.

    Reachability from the roots and the clean edges (occurrences with no '-'
    above them) are kept up to date as equations are added.  Clean edges are
    kept for argument equations only: star, X_+, X_- and X_id equations have
    clean edges only to variables that are not argument variables, and so do
    those variables' own equations, so no clean path through them reaches an
    argument variable.  A new equation v can only open a pseudo-cycle along a
    clean path through v, so the check runs only after an argument equation
    with a clean edge (every clean path ending at an equation with none was
    checked when its last edge was added), and it takes only v's clean
    ancestors u whose place (f, i) v reaches at a level above u's, found by
    one forward walk from v.  A replacement only removes edges: it opens no
    pseudo-cycle, and reachability is recomputed only then.
    """
    roots = tuple(roots)
    plus = EVar(XP)
    eqs: dict = {}
    names: dict = {}  # var -> the variables its equation names, left to right
    clean: dict = {}  # var -> variables occurring clean in its equation
    clean_rev: dict = {}  # var -> variables whose equation has it clean
    seen: set = set()  # reachable from the roots
    missing: list = []  # heap of (order key, var): reachable, no equation yet

    def reach(starts):
        todo = list(starts)
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            if v in eqs:
                todo += names[v]
            else:
                heapq.heappush(missing, (_var_order_key(v), v))

    def set_equation(v, e):
        for w in clean.get(v, ()):
            clean_rev[w].discard(v)
        eqs[v] = e
        occurrences = list(expr_vars(e))
        names[v] = [w for w, _ in occurrences]
        clean[v] = {w for w, is_clean in occurrences if is_clean and v[0] == "arg"}
        for w in clean[v]:
            clean_rev.setdefault(w, set()).add(v)

    def pseudo_cycle(v):
        """v reaches some X_{f,i,q'} with q < q' through clean edges."""
        return any(
            w[0] == "arg" and w[1] == v[1] and w[2] == v[2] and w[3] > v[3]
            for w in reachable((v,), lambda w: clean.get(w, ()))
        )

    reach(roots)
    while missing:
        _, v = heapq.heappop(missing)
        set_equation(v, rhs(cls, v))
        if len(eqs) > cap:
            raise CapError("finitization cap exceeded (%d equations)" % cap)
        reach(names[v])
        if not clean[v]:
            continue
        top: dict = {}  # place (f, i) -> the highest level v reaches there
        for w in reachable((v,), lambda w: clean.get(w, ())):
            if w[0] == "arg" and top.get(w[1:3], -1) < w[3]:
                top[w[1:3]] = w[3]
        ancestors = reachable((v,), lambda u: clean_rev.get(u, ()))
        candidates = [u for u in ancestors if top.get(u[1:3], -1) > u[3] and eqs[u] != plus]
        replaced = False
        for u in sorted(candidates, key=_var_order_key):
            if pseudo_cycle(u):
                set_equation(u, plus)
                replaced = True
        if replaced:
            seen.clear()
            missing.clear()
            reach(roots)

    kept = {v: e for v, e in eqs.items() if v in seen}
    ordered = dict(sorted(kept.items(), key=lambda kv: _var_order_key(kv[0])))
    return IOSpec(ordered, roots)

