"""Independent desk-scale oracle for data-oblivious lower bounds.

The data layer is erased: a stream is a count of available elements, and an
adversary picks, for every rewrite, which defining rule the hidden data has
enabled.  The value of a function under supplies is the least production the
adversary can force; constants are evaluated against every uniform rule
assignment the adversary may commit to, taking the worst outcome.

Results are either exact numbers or `AtLeast(b)` lower bounds; the oracle
never asserts infinity on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .streamspec import App, Classification, Cons, StreamSpec, SVar, reachable_symbols

_INF_DEP = 10**9


@dataclass(frozen=True)
class AtLeast:
    bound: int

    def __repr__(self):
        return "AtLeast(%d)" % self.bound


def _combine_min(results):
    """Min of (lo, exact) claims; exact only when an exact claim attains it."""
    lo = min(r[0] for r in results)
    exact = any(r[1] and r[0] == lo for r in results)
    return lo, exact


def _as_result(lo, exact, prod_cap):
    if exact:
        return int(lo)
    return AtLeast(int(min(lo, prod_cap)))


def _flat_shapes(spec: StreamSpec, cls: Classification, f: str):
    if cls.symbol_class.get(f) not in ("flat", "pure"):
        raise ValueError("%r is not a flat stream function" % f)
    return cls.shapes[f]


def do_low_function(
    spec: StreamSpec,
    cls: Classification,
    f: str,
    supplies,
    prod_cap: int = 32,
    depth_cap: int = 10000,
):
    """Least production of f the adversary can force from finite supplies.

    Minimizes over defining rules at every state: a rule whose pattern wants
    more than some supply strands the term (value 0); a rule continuing with
    a plain argument tail pays out that argument's leftover; a recursive
    tail is followed with updated supplies.  Cycles that pass no output can
    be looped forever (0); cycles that produce pump past any bound.
    """
    _flat_shapes(spec, cls, f)
    memo: dict = {}
    on_stack: dict = {}  # state -> (accumulated output at entry, depth)
    visits = [0]

    def value(g, ns, acc, depth):
        """Remaining production from state (g, ns); returns (lo, exact, dep)."""
        state = (g, ns)
        if state in memo:
            lo, exact = memo[state]
            return lo, exact, _INF_DEP
        if state in on_stack:
            entry_acc, entry_depth = on_stack[state]
            if acc == entry_acc:
                return 0, True, entry_depth  # silent cycle: loop forever
            return max(prod_cap - acc, 0), False, entry_depth  # pumping cycle
        if acc >= prod_cap or visits[0] >= depth_cap:
            return 0, False, -1  # cap hit: nothing above may be memoized
        visits[0] += 1
        on_stack[state] = (acc, depth)
        branches = []
        dep = _INF_DEP
        for sh in cls.shapes[g]:
            if any(n < c for n, c in zip(ns, sh.consume)):
                branches.append((0, True))
                continue
            if sh.tail_var is not None:
                leftover = ns[sh.tail_var - 1] - sh.consume[sh.tail_var - 1]
                branches.append((sh.produce + leftover, True))
                continue
            ns2 = tuple(
                sh.feedback[j] + ns[sh.perm[j] - 1] - sh.consume[sh.perm[j] - 1]
                for j in range(len(sh.perm))
            )
            lo, exact, d = value(sh.callee, ns2, acc + sh.produce, depth + 1)
            branches.append((sh.produce + lo, exact))
            dep = min(dep, d)
        del on_stack[state]
        lo, exact = _combine_min(branches)
        if dep >= depth:  # no live dependency below this frame
            memo[state] = (lo, exact)
            dep = _INF_DEP
        return lo, exact, dep

    lo, exact, _ = value(f, tuple(int(n) for n in supplies), 0, 0)
    return _as_result(lo, exact, prod_cap)


# ---------------------------------------------------------------------------
# constants


def _single_rule_value(shapes_of, assign, g, supplies, prod_cap, budget):
    """Production of g under a committed rule per symbol; (lo, exact)."""
    path: dict = {}
    memo: dict = {}

    def go(h, ns, acc):
        state = (h, ns)
        if state in memo:
            return memo[state]
        if state in path:
            res = (0, True) if acc == path[state] else (prod_cap, False)
            return res
        if acc >= prod_cap:
            return prod_cap, False
        budget[0] -= 1
        if budget[0] <= 0:
            return 0, False
        sh = shapes_of(h)[assign[h]]
        if any(n < c for n, c in zip(ns, sh.consume)):
            res = (0, True)
        elif sh.tail_var is not None:
            res = (sh.produce + ns[sh.tail_var - 1] - sh.consume[sh.tail_var - 1], True)
        else:
            path[state] = acc
            ns2 = tuple(
                sh.feedback[j] + ns[sh.perm[j] - 1] - sh.consume[sh.perm[j] - 1]
                for j in range(len(sh.perm))
            )
            lo, exact = go(sh.callee, ns2, acc + sh.produce)
            del path[state]
            res = (sh.produce + lo, exact)
        if not path and res[1]:  # only context-free exact values are reusable
            memo[state] = res
        return res

    return go(g, tuple(supplies), 0)


def do_low_constant(
    spec: StreamSpec,
    cls: Classification,
    name: str,
    prod_cap: int = 32,
    step_cap: int = 100000,
):
    """Least production of a stream constant the adversary can force.

    Enumerates uniform rule assignments (one committed rule per reachable
    symbol); for each, the constant values are the least fixed point of the
    resulting single-rule system, computed by iteration from zero with the
    production cap guarding divergence.  Nesting rules are outside this
    oracle's state space.
    """
    sig = spec.signature
    reach = reachable_symbols(spec, cls, name)
    for s in sorted(reach):
        if cls.symbol_class.get(s) in ("friendly", "unfriendly"):
            raise ValueError("game oracle does not cover nesting symbol %r" % s)
        if not spec.rules_of(s):
            raise ValueError("%r has no defining rule" % s)
    symbols = sorted(reach)
    constants = [s for s in symbols if sig.symbols[s].kind == "const"]

    def shapes_of(s):
        return cls.shapes[s]

    def term_production(term, values, assign):
        if isinstance(term, Cons):
            lo, exact = term_production(term.tail, values, assign)
            return lo + 1, exact
        if isinstance(term, SVar):
            raise ValueError("open stream term under constant %r" % name)
        assert isinstance(term, App)
        info = sig.symbols[term.sym]
        if info.kind == "const":
            return values[term.sym]
        child = [term_production(a, values, assign) for a in term.args[: info.stream_arity]]
        supplies = tuple(min(lo, prod_cap) for lo, _ in child)
        lo, exact = _single_rule_value(shapes_of, assign, term.sym, supplies, prod_cap, budget)
        return lo, exact and all(ex for _, ex in child)

    outcomes = []
    budget = [step_cap]
    choices = [range(len(shapes_of(s))) for s in symbols]
    for picks in itertools.product(*choices):
        assign = dict(zip(symbols, picks))
        values = {c: (0, True) for c in constants}
        settled = False
        for _ in range(prod_cap * max(1, len(constants)) + 2):
            rule_of = {c: spec.rules_of(c)[assign[c]] for c in constants}
            new = {c: term_production(rule_of[c].rhs, values, assign) for c in constants}
            # a capped iterate is only a lower bound from here on
            capped = {c: (min(lo, prod_cap), ex and lo < prod_cap) for c, (lo, ex) in new.items()}
            if capped == values:
                settled = True
                break
            values = capped
        lo, exact = values[name]
        if not settled or lo >= prod_cap:
            outcomes.append((min(lo, prod_cap), False))
        else:
            outcomes.append((lo, exact))
    lo, exact = _combine_min(outcomes)
    return _as_result(lo, exact, prod_cap)
