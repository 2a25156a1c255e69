"""Independent desk-scale oracle for data-oblivious lower bounds.

The data layer is erased: a stream is a count of available elements, and an
adversary picks, for every rewrite, which defining rule the hidden data has
enabled.  The value of a function under supplies is the least production the
adversary can force; constants are evaluated against every uniform rule
assignment the adversary may commit to, taking the worst outcome.

Both games are played by one search on an explicit stack, `_game_value`:
a function game offers the adversary every rule at every state and may
expand `_FUNCTION_EXPANSIONS` states; a constant's games offer one committed
rule per symbol and share the `step_cap` of `do_low_constant`.  Feedback
makes supplies grow along a path, so states seldom repeat exactly; a state
dominated by an open frame of its symbol, with supplies at least as large
in every argument, closes a cycle there (the Karp-Miller cut).  Under one
committed assignment a walk is a single path, so the Kleene rounds of a
constant reuse the states earlier rounds settled instead of walking them
again, or a root game an earlier round played; a supply sweep over
single-rule symbols shares its settled states the same way.  A reused state
or game is charged the expansions its walk spent, so reuse changes neither
a value nor how much of a budget is left.

Results are either exact numbers or `AtLeast(b)` lower bounds; the oracle
never asserts infinity on its own.  A game that reaches `prod_cap` output
or runs out of expansions ends in `AtLeast`, never in an error.
"""

from __future__ import annotations

import itertools
from operator import le, lt

from .equations import Caps
from .streamspec import Classification, Cons, Node, StreamSpec, SVar, reachable, reachable_symbols

_INF_DEP = 10**9
_FUNCTION_EXPANSIONS = 10000  # game states one do_low_function call may expand


class AtLeast(Node):
    __slots__ = __match_args__ = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

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


def _dominated(own, ns):
    """Depth of the deepest open frame in `own` whose supplies are <= ns in
    every argument, or -1.  A tuple <= ns pointwise is also <= ns in
    lexicographic order, which the interpreter checks in C before the
    pointwise test; the running minimum of the newest frame rejects most
    misses without a scan."""
    if all(map(le, own[-1][2], ns)):
        for sup, depth, _ in reversed(own):
            if sup <= ns and all(map(le, sup, ns)):
                return depth
    return -1


def _game_value(shapes_of, f, supplies, prod_cap, budget, settled=None):
    """Least remaining production from state (f, supplies tuple); (lo, exact).

    A depth-first search on an explicit stack that minimizes over the shapes
    `shapes_of(g)` at every state (g, supplies): a shape whose pattern wants
    more than some supply strands the term (value 0); a shape continuing
    with a plain argument tail pays out that argument's leftover; a
    recursive tail is followed with updated supplies.  A state (g, ns')
    dominated by an open frame (g, ns), ns <= ns' in every argument, closes
    a cycle at the deepest such frame: without output since that frame the
    adversary repeats the same rules forever (0); with output, the branch
    gets the inexact bound of a pump past `prod_cap`.  The cut is sound
    because a state's value never decreases as its supplies grow: a rule
    enabled at ns is still enabled at ns' and hands its callee supplies at
    least as large, and a rule that strands at ns gives 0 there.  So a
    pumping branch, its output plus the value at ns', is never the frame's
    minimum, the argument that an exact repeat (ns = ns') rests on.  A state
    whose value depends on no state below it is memoized.  Every expansion
    spends one unit of `budget[0]`, which callers may share; past the budget
    or `prod_cap` output the value is an inexact lower bound.

    `settled` may be given only when every symbol has one shape (the rounds
    of a rule assignment share it, as do the calls of a supply sweep, each
    with its own budget).  A walk is then one path, the same from a state
    whichever call reaches it, and the table keeps, across calls, each state
    whose path ended exact without closing a cycle at or below it: state ->
    (value, expansions spent, peak output above entry).  A state is taken
    from the table, and its expansions charged to the budget, only where expanding it again would
    hit neither `prod_cap` nor the budget, so results and budget use equal
    those of a search without the table.  Reuse stays so under the cut: if
    a settled state's path reached a state dominating a frame above it, the
    path would repeat from there, dominate its own start and close a cycle
    at or below the settled state.
    """
    memo: dict = {}
    opened: dict = {}  # symbol -> its open frames, [(supplies, depth, pointwise min of supplies so far)]
    frames: list = []  # [state, acc, branches, calls left, dep, output of the open call]
    starts: list = []  # with `settled`: budget[0] as each frame was expanded
    top = 0  # with `settled`: output at the deepest state reached so far
    g, ns, acc = f, supplies, 0
    while True:
        state = (g, ns)
        res = None  # (lo, exact, shallowest stack depth it depends on)
        if state in memo:
            res = memo[state]
        elif (own := opened.get(g)) and own[-1][2] <= ns and (entry_depth := _dominated(own, ns)) >= 0:
            if acc == frames[entry_depth][1]:
                res = (0, True, entry_depth)  # silent cycle: loop forever
            else:
                res = (max(prod_cap - acc, 0), False, entry_depth)  # pumping cycle
        elif (
            settled is not None
            and (hit := settled.get(state))
            and acc + hit[2] < prod_cap
            and budget[0] >= hit[1]
        ):
            lo, spent, peak = hit
            budget[0] -= spent
            top = acc + peak
            res = (lo, True, _INF_DEP)
        elif acc >= prod_cap or budget[0] <= 0:
            res = (0, False, -1)  # cap hit: nothing above may be memoized
        else:
            if settled is not None:
                starts.append(budget[0])
                top = acc
            budget[0] -= 1
            own = opened.setdefault(g, [])
            low = ns  # pointwise min of the supplies of g's open frames, ns while they shrink
            if own and not (ns <= own[-1][2] and all(map(le, ns, own[-1][2]))):
                low = tuple(map(min, own[-1][2], ns))
            own.append((ns, len(frames), low))
            branches, calls = [], []
            for sh in reversed(shapes_of(g)):  # calls pop off in rule order
                if any(map(lt, ns, sh.consume)):  # some supply runs short
                    branches.append((0, True))
                elif sh.tail_var is not None:
                    leftover = ns[sh.tail_var - 1] - sh.consume[sh.tail_var - 1]
                    branches.append((sh.produce + leftover, True))
                else:
                    ns2 = tuple(fb + ns[p - 1] - sh.consume[p - 1] for fb, p in zip(sh.feedback, sh.perm))
                    calls.append((sh.produce, sh.callee, ns2))
            frames.append([state, acc, branches, calls, _INF_DEP, 0])
        while frames:
            frame = frames[-1]
            state, acc, branches, calls, dep, produce = frame
            if res is not None:  # the value of the open call's state
                branches.append((produce + res[0], res[1]))
                if res[2] < dep:
                    dep = res[2]
            if calls:
                produce, g, ns = calls.pop()
                frame[4], frame[5] = dep, produce
                acc += produce
                break  # expand the callee state (g, ns)
            frames.pop()
            opened[state[0]].pop()
            lo, exact = branches[0] if len(branches) == 1 else _combine_min(branches)
            if dep >= len(frames):  # no live dependency below this frame
                res = memo[state] = (lo, exact, _INF_DEP)
            else:
                res = (lo, exact, dep)
            if settled is not None:
                start = starts.pop()
                if exact and dep == _INF_DEP:  # no cycle closed at or below this frame
                    settled[state] = (lo, start - budget[0], top - acc)
        else:
            return res[0], res[1]


def nesting_entered(cls: Classification, starts):
    """The first symbol with a nesting rule that a game from `starts` enters
    by tail calls, or None: such a rule has no state in the game."""
    entered = reachable(starts, lambda g: [sh.callee for sh in cls.shapes[g] if sh.callee is not None])
    return next((g for g in entered if any(sh.nesting for sh in cls.shapes[g])), None)


def function_game(cls: Classification, f: str):
    """None if f has no function game, else whether every symbol its games
    reach has one rule, so that they may share a `settled` table; answered
    once per symbol and kept on `cls`."""
    if f not in cls.games:
        # a constant's class is flat or pure even when it has a nesting rule
        flat = cls.symbol_class.get(f) in ("flat", "pure") and nesting_entered(cls, (f,)) is None
        cls.games[f] = all(len(cls.shapes[g]) == 1 for g in reachable_symbols(cls, f)) if flat else None
    return cls.games[f]


def do_low_function(
    cls: Classification, f: str, supplies, prod_cap: int = Caps.DEFAULTS["oracle_prod_cap"], settled=None
):
    """Least production of f the adversary can force from finite supplies.

    The adversary picks any defining rule at every state; the search expands
    at most `_FUNCTION_EXPANSIONS` states.  The calls of a supply sweep may
    share one dict `settled` under one `prod_cap`; it is used only where
    `function_game` allows it.
    """
    if (single := function_game(cls, f)) is None:
        raise ValueError("%r is not a flat stream function" % f)
    supplies, settled = tuple(int(n) for n in supplies), settled if single else None
    lo, exact = _game_value(cls.shapes.__getitem__, f, supplies, prod_cap, [_FUNCTION_EXPANSIONS], settled)
    return _as_result(lo, exact, prod_cap)


# ---------------------------------------------------------------------------
# constants


def do_low_constant(
    spec: StreamSpec,
    cls: Classification,
    name: str,
    prod_cap: int = Caps.DEFAULTS["oracle_prod_cap"],
    step_cap: int = Caps.DEFAULTS["oracle_steps"],
    decided: dict | None = None,
):
    """Least production of a stream constant the adversary can force.

    Enumerates uniform rule assignments (one committed rule per reachable
    symbol); for each, the constant values are the least fixed point of the
    resulting single-rule system, computed by iteration from zero with the
    production cap guarding divergence.  The function games of the whole
    enumeration share `step_cap - 1` expansions; the rounds of one
    assignment share a table of settled states, so each round walks only
    the states no earlier round settled, and a table of the root games
    that ended with budget left.  A root game starts at output 0, so while
    the budget lasts its result and spend depend only on its symbol and
    supplies; an entry is taken, and its spend charged, only while the
    budget covers that spend.  Past the budget every game is (0, inexact)
    whatever its shapes: if each constant has one rule, the first
    assignment that starts with the budget spent is the last one played.
    Nesting rules are outside this oracle's state space.

    `decided` (constant -> result), shared under one `prod_cap` and
    `step_cap`, answers `name` if it holds it.  Otherwise the result of
    `name` and of each constant D it reaches is stored there when budget is
    left and, in every assignment, D's constants settled within D's own
    round limit: D's own enumeration then plays the same games (a round
    reads only the round before it, a game only D's symbols), once each.
    """
    if decided is not None and name in decided:
        return decided[name]
    sig = spec.signature
    symbols = sorted(reachable_symbols(cls, name))
    for s in symbols:
        if cls.symbol_class.get(s) in ("friendly", "unfriendly"):
            raise ValueError("game oracle does not cover nesting symbol %r" % s)
        if not spec.rules_of(s):
            raise ValueError("%r has no defining rule" % s)
    constants = [s for s in symbols if sig.symbols[s].kind == "const"]
    if (g := nesting_entered(cls, [s for s in symbols if sig.symbols[s].kind == "func"])) is not None:
        raise ValueError("game oracle does not cover nesting symbol %r" % g)

    # each right-hand side in postorder: 1 is a cons over the last result, a
    # constant's name reads its value, (symbol, n) plays a game on the last n
    program: dict = {}
    for sh in itertools.chain.from_iterable(cls.shapes[c] for c in constants):
        ops = program[sh] = []
        todo: list = [sh.rule.rhs]
        while todo:
            term = todo.pop()
            if isinstance(term, (int, tuple)):
                ops.append(term)
            elif isinstance(term, Cons):
                todo += (1, term.tail)
            elif isinstance(term, SVar):
                raise ValueError("open stream term under constant %r" % name)
            elif sig.symbols[term.sym].kind == "const":
                ops.append(term.sym)
            else:
                args = term.args[: sig.symbols[term.sym].stream_arity]
                todo.append((term.sym, len(args)))
                todo.extend(reversed(args))

    def production(ops, values, shapes_of, settled, roots):
        done: list = []
        for op in ops:
            if op.__class__ is int:
                lo, exact = done[-1]
                done[-1] = (lo + 1, exact)
            elif op.__class__ is str:
                done.append(values[op])
            else:
                sym, n = op
                child = done[len(done) - n :]
                del done[len(done) - n :]
                supplies = tuple(min(lo, prod_cap) for lo, _ in child)
                if (hit := roots.get(key := (sym, supplies))) and budget[0] >= hit[2]:
                    lo, exact, spent = hit
                    budget[0] -= spent
                else:
                    start = budget[0]
                    lo, exact = _game_value(shapes_of, sym, supplies, prod_cap, budget, settled)
                    if budget[0] > 0:  # no expansion was refused
                        roots[key] = (lo, exact, start - budget[0])
                done.append((lo, exact and all(ex for _, ex in child)))
        return done[0]

    # the constants each constant reaches, and its own enumeration's round limit
    reach = {c: reachable_symbols(cls, c).intersection(constants) for c in constants}
    limit = {c: prod_cap * max(1, len(r)) + 2 for c, r in reach.items()}
    outcomes: dict = {c: [] for c in constants}
    budget = [step_cap - 1]
    for picks in itertools.product(*(cls.shapes[s] for s in symbols)):
        last = budget[0] <= 0 and all(len(cls.shapes[c]) == 1 for c in constants)
        committed = {s: (sh,) for s, sh in zip(symbols, picks)}
        ops_of = {c: program[committed[c][0]] for c in constants}
        values = {c: (0, True) for c in constants}
        changed_at = dict.fromkeys(constants, -1)  # the last round that changed each value
        settled: dict = {}  # game states whose path this assignment's rounds replay
        roots: dict = {}  # (symbol, supplies) -> (value, exact, expansions spent) of its root game
        for k in range(limit[name]):
            new = {c: production(ops_of[c], values, committed.__getitem__, settled, roots) for c in constants}
            # a capped iterate is only a lower bound from here on
            capped = {c: (min(lo, prod_cap), ex and lo < prod_cap) for c, (lo, ex) in new.items()}
            changed_at.update((c, k) for c in constants if capped[c] != values[c])
            if capped == values:
                break
            values = capped
        for c, found in list(outcomes.items()):
            lo, exact = values[c]  # exact only below prod_cap
            converged = max(changed_at[d] for d in reach[c]) + 1 < limit[c]
            if c != name and not converged:
                del outcomes[c]  # its own enumeration would stop at its round limit
            else:
                found.append((lo, exact and converged))
        if last:
            break
    results = {c: _as_result(*_combine_min(found), prod_cap) for c, found in outcomes.items()}
    if decided is not None and budget[0] > 0:
        decided.update(results)
    return results[name]
