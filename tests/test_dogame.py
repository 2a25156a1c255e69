import itertools
import random
from operator import le

import pytest

from prodcheck import cli, dogame
from prodcheck.dogame import AtLeast, do_low_constant, do_low_function
from prodcheck.equations import Caps
from prodcheck.ioalg import interpret, is_top, parse_ioterm
from prodcheck.streamspec import Cons, SVar, classify, parse, reachable_symbols, validate
from prodcheck.translate import translate_symbols

from conftest import spec_path
import specgen
from specgen import random_flat_spec


def setup(corpus, name):
    spec = corpus[name]
    return spec, classify(spec)


def test_h_lower_bound(corpus):
    spec, cls = setup(corpus, "do_h")
    assert [do_low_function(cls, "h", (n,)) for n in range(1, 9)] == list(range(8))


def test_traces_f_matches_published_gate(corpus):
    spec, cls = setup(corpus, "traces")
    gate = parse_ioterm("----++-++-+--++-+(-++-)")
    for n in range(20):
        assert do_low_function(cls, "f", (n,)) == interpret(gate, n)


def test_stuck_when_supplies_short(corpus):
    spec, cls = setup(corpus, "traces")
    # every rule of g consumes from both arguments
    assert do_low_function(cls, "g", (0, 0)) == 0
    assert do_low_function(cls, "g", (9, 0)) == 0


def test_rejects_nesting_symbols(corpus):
    spec, cls = setup(corpus, "convolution")
    with pytest.raises(ValueError):
        do_low_function(cls, "conv", (3, 3))
    with pytest.raises(ValueError):
        do_low_function(cls, "nats", ())
    with pytest.raises(ValueError):
        do_low_constant(spec, cls, "nats")


def test_monotone_in_supplies(corpus):
    rng = random.Random(51)
    for name in ("traces", "do_h", "pascal"):
        spec, cls = setup(corpus, name)
        for f in spec.signature.stream_functions():
            arity = spec.signature.symbols[f].stream_arity
            for _ in range(30):
                base = tuple(rng.randrange(0, 8) for _ in range(arity))
                i = rng.randrange(arity)
                bumped = tuple(n + (1 if j == i else 0) for j, n in enumerate(base))
                lo = do_low_function(cls, f, base)
                hi = do_low_function(cls, f, bumped)
                lo_v = lo.bound if isinstance(lo, AtLeast) else lo
                hi_v = hi.bound if isinstance(hi, AtLeast) else hi
                assert lo_v <= hi_v or isinstance(lo, AtLeast)


def test_rule_order_irrelevant(corpus):
    # determinacy: shuffling the rule list leaves every value unchanged
    src = spec_path("do_h").read_text()
    lines = src.strip().splitlines()
    swapped = "\n".join(lines[:-2] + [lines[-1], lines[-2]])
    a = parse(src)
    b = parse(swapped)
    ca, cb = classify(a), classify(b)
    for n in range(10):
        assert do_low_function(ca, "h", (n,)) == do_low_function(cb, "h", (n,))


def test_constant_do_m(corpus):
    spec, cls = setup(corpus, "do_m")
    assert do_low_constant(spec, cls, "M") == 1


def test_constant_intro_b(corpus):
    spec, cls = setup(corpus, "intro_b")
    assert do_low_constant(spec, cls, "B", prod_cap=8, step_cap=10000) == 1


def test_constant_pascal_at_least(corpus):
    spec, cls = setup(corpus, "pascal")
    assert do_low_constant(spec, cls, "P", prod_cap=8) == AtLeast(8)


def test_constant_productive_streams(corpus):
    spec, cls = setup(corpus, "morse_dol")
    assert do_low_constant(spec, cls, "M", prod_cap=16) == AtLeast(16)


def test_constant_rounds_reuse_settled_states(corpus, monkeypatch):
    """P's value climbs by one per Kleene round, and each round's walk runs
    through the last round's.  The rounds reuse what earlier rounds walked,
    so the states actually expanded grow linearly in `prod_cap`; replaying
    every walk would grow quadratically.  Each expansion compares supplies
    with `lt`, so its calls count the walking done."""
    spec, cls = setup(corpus, "pascal")
    calls = [0]

    def counting_lt(a, b):
        calls[0] += 1
        return a < b

    monkeypatch.setattr(dogame, "lt", counting_lt)
    work = []
    for prod_cap in (32, 64, 128):
        calls[0] = 0
        assert do_low_constant(spec, cls, "P", prod_cap=prod_cap) == AtLeast(prod_cap)
        work.append(calls[0])
    assert work[1] <= 2.5 * work[0] and work[2] <= 2.5 * work[1], work


@pytest.mark.parametrize("name, most", [("ternary_morse_flat", 186), ("ternary_morse_pure", 276)])
def test_oracle_check_plays_no_root_game_twice(name, most, monkeypatch, capsys):
    """A constant's Kleene rounds take a root game they played before from
    its assignment's table, and a single-rule function's supply sweep walks
    the paths of smaller supplies once.  The expansions, counted by `lt`
    calls as above, are at most the pinned numbers; replaying every root
    game and walking each sweep's paths again took 245 and 508."""
    calls = [0]

    def counting_lt(a, b):
        calls[0] += 1
        return a < b

    played: dict = {}
    game = dogame._game_value

    def counting_game(shapes_of, f, supplies, *rest):
        if isinstance(shapes_of(f), tuple):  # one committed rule per symbol: a constant's game
            key = (frozenset((s, id(shs[0])) for s, shs in shapes_of.__self__.items()), f, supplies)
            played[key] = played.get(key, 0) + 1
        return game(shapes_of, f, supplies, *rest)

    monkeypatch.setattr(dogame, "lt", counting_lt)
    monkeypatch.setattr(dogame, "_game_value", counting_game)
    assert cli.main([str(spec_path(name)), "--mode", "oracle-check"]) == 0
    assert "agree" in capsys.readouterr().out
    assert played and max(played.values()) == 1
    assert calls[0] <= most


def test_dominated_takes_the_deepest_frame_below_in_every_argument():
    """Open frames of one symbol as `(supplies, depth, running pointwise
    minimum)`: a state closes a cycle at the deepest frame whose supplies
    are <= its own in every argument; lexicographic order is not enough."""
    own = [((0, 5), 0, (0, 5)), ((5, 0), 3, (0, 0))]
    assert dogame._dominated(own, (5, 5)) == 3
    assert dogame._dominated(own, (4, 5)) == 0
    assert dogame._dominated(own, (4, 4)) == -1  # (0, 5) is below only lexicographically
    assert dogame._dominated(own[:1], (9, 4)) == -1


_TRADE = """Signature( f : stream(bit) -> stream(bit) -> stream(bit), 0, 1 : bit )
f(x:y:s, t) = 0:f(s, 0:0:0:t)
"""


def test_function_game_deeper_than_the_recursion_limit():
    """Each step trades two elements of the first supply for three of the
    second, so no open frame is dominated: the search runs one frame per
    step, 3,000 deep, until the first supply runs short."""
    cls = classify(parse(_TRADE))
    assert do_low_function(cls, "f", (6001, 0), prod_cap=10**4) == 3000


# The max_feedback=2 seeds of `random_flat_spec` whose gates disagree with
# the game at supplies 0-4: pseudo-cycle removal drops a branch the
# adversary takes (ROADMAP item 1).  Mending it empties this set.
PSEUDO_CYCLE_SEEDS = {9, 47, 133, 159, 194, 248, 272, 278, 289}


def test_gates_against_games_at_supplies_up_to_seven():
    """Past supply 4 one more seed disagrees: at seed 210, `f1(2, 7)` has
    gate 6, but its rule 2 gives 2 + f0(2) = 5 whatever the second supply."""
    disagree: dict = {}
    for seed in range(300):
        spec = parse(random_flat_spec(random.Random(seed), max_feedback=2))
        cls = classify(spec)
        gates, _ = translate_symbols(spec, cls)
        for f, gate in gates.items():
            for supplies in itertools.product(range(8), repeat=gate.arity):
                want = min([gate.cap] + [interpret(a, n) for a, n in zip(gate.args, supplies)])
                game = do_low_function(cls, f, supplies)
                if isinstance(game, AtLeast):
                    ok = is_top(want) or want >= game.bound
                else:
                    ok = want == game
                if not ok:
                    disagree.setdefault(seed, []).append((f, supplies, want, game))
    assert set(disagree) == PSEUDO_CYCLE_SEEDS | {210}
    assert disagree[210] == [("f1", (2, 7), 6, 5)]


# --- the shared game search against the recursive searches it replaced ------


def _function_reference(cls, f, supplies, prod_cap=32, depth_cap=10000, dominance=True):
    """The function game by recursion, one Python frame per game state, as
    `do_low_function` played it before the search moved onto a stack.  A
    state closes a cycle at the deepest open frame of its symbol whose
    supplies it dominates; with `dominance=False`, as before the dominance
    cut, only at an open frame of the same state."""
    memo: dict = {}
    path: list = []  # open frames: (symbol, supplies, output at entry)
    depth_of: dict = {}  # state -> depth of its open frame
    visits = [0]

    def value(g, ns, acc, depth):
        state = (g, ns)
        if state in memo:
            lo, exact = memo[state]
            return lo, exact, dogame._INF_DEP
        if dominance:
            closing = [d for d, (h, sup, _) in enumerate(path) if h == g and all(map(le, sup, ns))]
        else:  # a lookup, not a scan: these walks run 300 states deep
            closing = [depth_of[state]] if state in depth_of else []
        if closing:
            entry_depth = closing[-1]
            if acc == path[entry_depth][2]:
                return 0, True, entry_depth
            return max(prod_cap - acc, 0), False, entry_depth
        if acc >= prod_cap or visits[0] >= depth_cap:
            return 0, False, -1
        visits[0] += 1
        path.append((g, ns, acc))
        depth_of[state] = depth
        branches = []
        dep = dogame._INF_DEP
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
        path.pop()
        del depth_of[state]
        lo, exact = dogame._combine_min(branches)
        if dep >= depth:
            memo[state] = (lo, exact)
            dep = dogame._INF_DEP
        return lo, exact, dep

    lo, exact, _ = value(f, tuple(supplies), 0, 0)
    return dogame._as_result(lo, exact, prod_cap)


def _constant_reference(spec, cls, name, prod_cap=32, step_cap=100000, dominance=True):
    """The constant game with its own recursive single-rule search and a
    budget counted down from `step_cap`, as `do_low_constant` played it
    before it shared the function game's search.  Cycles close as in
    `_function_reference`."""
    sig = spec.signature
    symbols = sorted(reachable_symbols(cls, name))
    for s in symbols:
        if cls.symbol_class.get(s) in ("friendly", "unfriendly"):
            raise ValueError("nesting symbol %r" % s)
        if not spec.rules_of(s):
            raise ValueError("%r has no defining rule" % s)
    constants = [s for s in symbols if sig.symbols[s].kind == "const"]
    budget = [step_cap]

    def single_rule(assign, g, supplies):
        path: list = []  # (symbol, supplies, output at entry) of the walk so far

        def go(h, ns, acc):
            closing = [
                entry for sym, sup, entry in path if sym == h and (all(map(le, sup, ns)) if dominance else sup == ns)
            ]
            if closing:
                return (0, True) if acc == closing[-1] else (prod_cap, False)
            if acc >= prod_cap:
                return prod_cap, False
            budget[0] -= 1
            if budget[0] <= 0:
                return 0, False
            sh = cls.shapes[h][assign[h]]
            if any(n < c for n, c in zip(ns, sh.consume)):
                return 0, True
            if sh.tail_var is not None:
                return sh.produce + ns[sh.tail_var - 1] - sh.consume[sh.tail_var - 1], True
            path.append((h, ns, acc))
            ns2 = tuple(
                sh.feedback[j] + ns[sh.perm[j] - 1] - sh.consume[sh.perm[j] - 1]
                for j in range(len(sh.perm))
            )
            lo, exact = go(sh.callee, ns2, acc + sh.produce)
            path.pop()
            return sh.produce + lo, exact

        return go(g, supplies, 0)

    def term_production(term, values, assign):
        if isinstance(term, Cons):
            lo, exact = term_production(term.tail, values, assign)
            return lo + 1, exact
        if isinstance(term, SVar):
            raise ValueError("open stream term")
        info = sig.symbols[term.sym]
        if info.kind == "const":
            return values[term.sym]
        child = [term_production(a, values, assign) for a in term.args[: info.stream_arity]]
        supplies = tuple(min(lo, prod_cap) for lo, _ in child)
        lo, exact = single_rule(assign, term.sym, supplies)
        return lo, exact and all(ex for _, ex in child)

    outcomes = []
    for picks in itertools.product(*(range(len(cls.shapes[s])) for s in symbols)):
        assign = dict(zip(symbols, picks))
        values = {c: (0, True) for c in constants}
        settled = False
        for _ in range(prod_cap * max(1, len(constants)) + 2):
            new = {c: term_production(spec.rules_of(c)[assign[c]].rhs, values, assign) for c in constants}
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
    return dogame._as_result(*dogame._combine_min(outcomes), prod_cap)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


def _game_cases(corpus):
    for name, spec in corpus.items():
        yield name, spec
    for seed in range(150):
        spec = parse(random_flat_spec(random.Random(seed), max_feedback=2))
        if not any(d.severity == "error" for d in validate(spec)):
            yield seed, spec


def _keeps_contract(new, old):
    """Whether `new` keeps the contract of `old`, a result from before the
    dominance cut: equal where `old` is exact, and at least its bound where
    it is `AtLeast`."""
    if isinstance(old, AtLeast) and new is not ValueError:
        return (new.bound if isinstance(new, AtLeast) else new) >= old.bound
    return new == old


def test_game_search_matches_recursive_references(corpus, monkeypatch):
    """The search equals the recursive references with the dominance cut,
    and keeps the contract of the references without it.  Of the 3,595
    function games, 282 (about one in thirteen) spend the whole budget
    without the cut and none with it.  A budget of 300 expansions keeps the
    test fast and the reference's recursion far below the interpreter's
    limit."""
    monkeypatch.setattr(dogame, "_FUNCTION_EXPANSIONS", 300)
    checked = 0
    for case, spec in _game_cases(corpus):
        cls = classify(spec)
        for f in spec.signature.stream_functions():
            if cls.symbol_class[f] not in ("flat", "pure"):
                continue
            arity = spec.signature.symbols[f].stream_arity
            for supplies in itertools.product(range(5), repeat=arity):
                got = do_low_function(cls, f, supplies)
                assert got == _function_reference(cls, f, supplies, depth_cap=300), (case, f, supplies)
                old = _function_reference(cls, f, supplies, depth_cap=300, dominance=False)
                assert _keeps_contract(got, old), (case, f, supplies, got, old)
                checked += 1
        for c in spec.signature.stream_constants():
            for step_cap in (1, 2, 3, 5, 20, 100):
                for prod_cap in (4, 12):
                    want = _outcome(_constant_reference, spec, cls, c, prod_cap, step_cap)
                    got = _outcome(do_low_constant, spec, cls, c, prod_cap, step_cap)
                    assert got == want, (case, c, step_cap, prod_cap)
                    old = _outcome(_constant_reference, spec, cls, c, prod_cap, step_cap, dominance=False)
                    assert _keeps_contract(got, old), (case, c, step_cap, prod_cap, got, old)
                    checked += 1
    assert checked > 5000


# A constant of two rules over three two-rule functions: its first rule's
# assignments come first and spend the budget with outcomes of at least 3,
# and its second rule, a silent cycle, still gives 0.
_TWO_RULE_CONSTANT = """Signature( C : nat -> stream(nat), f0, f1, f2 : stream(nat) -> stream(nat), 0 : nat, s : nat -> nat )
C(0) = 0:0:0:f0(f1(f2(C(0))))
C(s(x)) = f0(f1(f2(C(x))))
""" + "".join("f%d(0:xs) = 0:f%d(xs)\nf%d(s(x):xs) = x:x:f%d(xs)\n" % ((i,) * 4) for i in range(3))


def test_constant_enumeration_ends_once_the_budget_is_spent():
    """Past the budget every game is (0, inexact) whatever its rules, so with
    one rule per constant the 2^n assignments of n two-rule functions have
    one outcome from there on; a constant of two rules still has both
    played.  The same answers as the reference, which plays every
    assignment."""
    specs = [parse(specgen.nested_calls(n)) for n in range(1, 6)] + [parse(_TWO_RULE_CONSTANT)]
    for spec in specs:
        cls = classify(spec)
        for step_cap in (1, 2, 3, 5, 10, 40, 200):
            for prod_cap in (4, 12):
                want = _constant_reference(spec, cls, "C", prod_cap, step_cap)
                got = do_low_constant(spec, cls, "C", prod_cap, step_cap)
                assert got == want, (spec.signature.stream_functions(), step_cap, prod_cap)


_SILENT_RING = """Signature( C, D : stream(bit), f, g : stream(bit) -> stream(bit), 0, 1 : bit )
C = 0:f(C)
D = g(C)
f(x:s) = g(x:s)
g(x:s) = f(x:s)
"""


def test_constant_rounds_reuse_no_state_inside_a_cycle():
    """C's walk enters the silent cycle f -> g -> f at f, D's walk enters it
    at g.  Inside C's walk g cost one expansion, from D's walk it costs two,
    so a state whose walk closed a cycle at or below it is never reused, and
    every budget gives the reference's answer."""
    spec = parse(_SILENT_RING)
    cls = classify(spec)
    for c in ("C", "D"):
        for prod_cap in (4, 12):
            for step_cap in range(1, 30):
                want = _constant_reference(spec, cls, c, prod_cap, step_cap)
                assert do_low_constant(spec, cls, c, prod_cap, step_cap) == want, (c, prod_cap, step_cap)


# morse_dol with the constant that the other reaches declared first
_SUBSET_FIRST = """Signature( Mprime, M : stream(bit), h : stream(bit) -> stream(bit), 0, 1 : bit )
M = 0:Mprime
Mprime = 1:h(Mprime)
h(0:sigma) = 0:1:h(sigma)
h(1:sigma) = 1:0:h(sigma)
"""


def _constant_results(spec, cls, order, step_cap, decided=None):
    results = {}
    for c in order:
        try:
            results[c] = do_low_constant(spec, cls, c, step_cap=step_cap, decided=decided)
        except ValueError as exc:
            results[c] = "ValueError: %s" % exc
    return results


def test_shared_decisions_equal_fresh_enumerations():
    """One `decided` table shared by the constants of a spec gives each the
    result, or the error, of its own enumeration, whether the constants
    reaching more symbols come first (as the CLI visits them) or last, and
    also under budgets that run out."""
    from conftest import DATA

    texts = [p.read_text() for p in sorted(DATA.glob("*.spec"))]
    texts += [random_flat_spec(random.Random(seed), max_feedback=fb) for fb in (1, 2) for seed in range(150)]
    texts += [specgen.ring(5), _SUBSET_FIRST]
    taken = 0
    for text in texts:
        spec = parse(text)
        if any(d.severity == "error" for d in validate(spec)):
            continue
        cls = classify(spec)
        constants = spec.signature.stream_constants()
        order = sorted(constants, key=lambda c: -len(reachable_symbols(cls, c)))
        for step_cap in (Caps.DEFAULTS["oracle_steps"], 300, 40):
            fresh = _constant_results(spec, cls, constants, step_cap)
            for visit in (order, order[::-1]):
                decided: dict = {}
                assert _constant_results(spec, cls, visit, step_cap, decided) == fresh, (text, step_cap, visit)
                taken += len(decided)
    assert taken > 100


def test_enumeration_decides_the_constants_it_covers(corpus):
    """Q's enumeration covers Qprime's, so it decides Qprime as well as Q;
    once the budget is spent (5 steps) it decides nothing."""
    spec, cls = setup(corpus, "ternary_morse_flat")
    decided: dict = {}
    q = do_low_constant(spec, cls, "Q", decided=decided)
    assert decided == {"Q": q, "Qprime": do_low_constant(spec, cls, "Qprime")}
    assert q == do_low_constant(spec, cls, "Q")
    assert do_low_constant(spec, cls, "Qprime", decided=decided) is decided["Qprime"]
    decided = {}
    do_low_constant(spec, cls, "Q", step_cap=5, decided=decided)
    assert decided == {}


def _unbounded_spend(spec, cls, name, prod_cap, monkeypatch):
    """The expansions that the enumeration of `name` spends when its budget
    never runs out, read from the budget its games share."""
    budgets = []
    game = dogame._game_value

    def keeping(shapes_of, f, supplies, cap, budget, settled=None):
        budgets.append(budget)
        return game(shapes_of, f, supplies, cap, budget, settled)

    with monkeypatch.context() as m:
        m.setattr(dogame, "_game_value", keeping)
        do_low_constant(spec, cls, name, prod_cap, 10**9)
    return 10**9 - 1 - budgets[0][0] if budgets else 0


def test_game_tables_keep_answers_at_every_budget(corpus, monkeypatch):
    """A root game is taken from its assignment's table, and a settled state
    from a sweep's shared table, only while the budget covers the spend the
    game first had: at every budget up to the one that never runs out, each
    constant gives the reference's answer, and each game of a supply sweep
    sharing one table gives the reference's answer at its tuple.

    The reference replays the enumeration at each budget, so its cost grows
    with the square of the spend.  To keep the test near 3 s, three cases
    are left out: `_TWO_RULE_CONSTANT` at `prod_cap` 12 and 32 (525 and
    1,825 expansions) and `Qprime` at 32 (381), whose games are a part of
    `Q`'s."""
    cases = {name: corpus[name] for name in ("ternary_morse_flat", "ternary_morse_pure", "pascal", "morse_dol", "do_m", "intro_b")}
    cases.update(silent_ring=parse(_SILENT_RING), two_rule=parse(_TWO_RULE_CONSTANT))
    left_out = {("two_rule", "C", 12), ("two_rule", "C", 32), ("ternary_morse_flat", "Qprime", 32)}
    checked = 0
    for case, spec in cases.items():
        cls = classify(spec)
        for c in spec.signature.stream_constants():
            for prod_cap in (4, 12, 32):
                if (case, c, prod_cap) in left_out:
                    continue
                for step_cap in range(1, _unbounded_spend(spec, cls, c, prod_cap, monkeypatch) + 3):
                    want = _constant_reference(spec, cls, c, prod_cap, step_cap)
                    assert do_low_constant(spec, cls, c, prod_cap, step_cap) == want, (case, c, prod_cap, step_cap)
                    checked += 1
    shared = 0
    for name in ("ternary_morse_pure", "nested_fb"):
        spec, cls = setup(corpus, name)
        for f in spec.signature.stream_functions():
            assert dogame.function_game(cls, f) is True
            for expansions in range(1, 41):
                monkeypatch.setattr(dogame, "_FUNCTION_EXPANSIONS", expansions)
                settled: dict = {}
                for supplies in itertools.product(range(5), repeat=spec.signature.symbols[f].stream_arity):
                    got = do_low_function(cls, f, supplies, 32, settled)
                    assert got == _function_reference(cls, f, supplies, depth_cap=expansions), (f, expansions, supplies)
                    checked += 1
                shared += len(settled)
    assert checked > 9000 and shared > 1000, (checked, shared)
