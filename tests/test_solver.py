import random
import time

import pytest

from prodcheck.equations import (
    CapError,
    EEmpty,
    EInf,
    EStep,
    EVar,
    IOSpec,
    TranslationError,
    expr_vars,
    steps,
    var_str,
)
from prodcheck.ioalg import TOP, IOTerm, interpret, parse_ioterm, render
from prodcheck.solver import (
    _check_repetition,
    _position,
    _vclose,
    build_graph,
    dump_diagram,
    evaluate,
    infimum,
    solve,
)
from prodcheck.streamspec import feedback_order

import specgen
from specgen import diagram, edge_lists, random_flat_spec, random_system, two_rule_width

X = ("v", "X")
Y = ("v", "Y")


def sys1(**eqs):
    table = {("v", k): v for k, v in eqs.items()}
    return IOSpec(table, tuple(table))


# --- graph construction -----------------------------------------------------


def test_graph_single_plus_loop():
    iospec = sys1(X=EStep("+", EVar(X)))
    g = build_graph(iospec, X)
    assert g.size == 2
    head = g.heads[X]
    assert g.label[head] == "+"
    (target,) = g.succ[head]
    assert g.label[target] is None and g.succ[target] == [head]


def test_graph_translation_example():
    iospec = sys1(
        X=EInf(steps("-++", EVar(X)), steps("--+", EVar(Y))),
        Y=EInf(steps("++", EVar(X)), steps("-+", EVar(Y))),
    )
    g = build_graph(iospec, X)
    # one node per position of each right-hand side, variables included
    assert g.size == 16
    forks = [n for n in range(g.size) if g.label[n] is None and len(g.succ[n]) == 2]
    assert len(forks) == 2
    assert solve(iospec, X) == parse_ioterm("-(-+)")


def test_graph_rejects_silent_cycle():
    iospec = sys1(X=EVar(Y), Y=EVar(X))
    with pytest.raises(TranslationError):
        build_graph(iospec, X)


def test_graph_missing_root():
    with pytest.raises(TranslationError):
        build_graph(sys1(X=EEmpty()), Y)


def test_graph_shared_by_roots():
    iospec = sys1(
        X=EInf(steps("-++", EVar(X)), steps("--+", EVar(Y))),
        Y=EInf(steps("++", EVar(X)), steps("-+", EVar(Y))),
    )
    g = build_graph(iospec, X)
    assert build_graph(iospec, Y) is g is iospec.graph
    assert g.nodes[g.heads[X]] == (X, None, None) and g.nodes[g.heads[Y]] == (Y, None, None)
    fresh = IOSpec(dict(iospec.equations), iospec.roots)
    assert solve(iospec, Y) == solve(fresh, Y)


def test_graph_errors_on_every_call():
    Z = ("v", "Z")
    # an undefined variable and a silent cycle: the missing root is reported
    # first, then the undefined variable, and nothing is kept in between
    broken = sys1(X=EVar(Z), Y=EInf(EVar(Y), EStep("+", EVar(X))))
    cycle = sys1(X=EVar(Y), Y=EVar(X))
    for _ in range(2):
        with pytest.raises(TranslationError, match="has no equation"):
            build_graph(broken, Z)
        with pytest.raises(TranslationError, match="undefined variable"):
            build_graph(broken, X)
        with pytest.raises(TranslationError, match="undefined variable"):
            solve(broken, Y)
        with pytest.raises(TranslationError, match="silent cycle"):
            build_graph(cycle, X)
        with pytest.raises(TranslationError, match="silent cycle"):
            solve(cycle, Y)


def test_graph_of_a_long_word():
    """A right-hand side of 20,000 steps: one node per position, numbered in
    one walk, so the graph costs linear time; only the dump spells a
    position out.  Such a loop is nowhere above (-+), so it is their
    infimum."""
    word = "-" * 19999 + "+"
    g = build_graph(sys1(X=steps(word, EVar(X))), X)
    assert g.size == 20001
    assert g.nodes[19999] == (X, 19998, 1) and _position(g, 19999) == "1" * 19999
    assert g.label[19999] == "+" and g.succ[19999] == [20000]
    assert g.label[20000] is None and g.succ[20000] == [g.heads[X]]
    assert _position(g, g.heads[X]) == "e"
    s, t = parse_ioterm("(%s+)" % ("-" * 20000)), parse_ioterm("(-+)")
    got = infimum(s, t, max_columns=30000)
    for n in [*range(51), *range(19990, 20011)]:
        assert interpret(got, n) == min(interpret(s, n), interpret(t, n)), n


def test_graph_reports_the_first_undefined_reference():
    Z1, Z2 = ("v", "Z1"), ("v", "Z2")
    iospec = sys1(X=EInf(steps("-+", EInf(EVar(Z1), EVar(Z2))), EVar(Z2)), Y=EVar(Z2))
    with pytest.raises(TranslationError, match="undefined variable \\('v', 'Z1'\\)"):
        build_graph(iospec, Y)


# --- columns and bounds ------------------------------------------------------


def test_columns_all_output():
    iospec = sys1(X=EStep("+", EVar(X)))
    g = build_graph(iospec, X)
    columns, bounds = diagram(g, {g.heads[X]: 0}, 6)
    assert columns[0][g.heads[X]] == 0 and len(columns[0]) == 2
    assert bounds[0] == TOP
    assert bounds[5] == TOP


def test_columns_identity():
    iospec = sys1(X=EStep("-", EStep("+", EVar(X))))
    g = build_graph(iospec, X)
    bounds = diagram(g, {g.heads[X]: 0}, 8)[1]
    assert bounds[:4] == [0, 1, 2, 3]
    assert bounds[7] == 7


def test_columns_pascal(corpus):
    from prodcheck.equations import arg, finitize
    from prodcheck.streamspec import classify

    spec = corpus["pascal"]
    iospec = finitize(classify(spec), [arg("f", 1, 0)])
    g = build_graph(iospec, arg("f", 1, 0))
    assert diagram(g, {g.heads[arg("f", 1, 0)]: 0}, 5)[1] == [0, 0, 1, 2, 3]


def test_bound_matches_nested_solution(corpus):
    from prodcheck.equations import arg, finitize
    from prodcheck.streamspec import classify

    spec = corpus["nested_fb"]
    iospec = finitize(classify(spec), [arg("f", 1, 0)])
    g = build_graph(iospec, arg("f", 1, 0))
    expect = parse_ioterm("-+--(+)")
    bounds = diagram(g, {g.heads[arg("f", 1, 0)]: 0}, 6)[1]
    for n in range(6):
        assert bounds[n] == interpret(expect, n)


def test_dump_diagram_shows_every_swept_column(corpus):
    """The sweep of X_{f,1,0} = -+--(+) reads columns 0-3 and stops at the
    all-output column 3: the dump shows each of them with its bound."""
    from prodcheck.equations import arg
    from prodcheck.translate import translate_symbols

    _, iospec = translate_symbols(corpus["nested_fb"])
    lines = dump_diagram(iospec, arg("f", 1, 0), max_columns=100).splitlines()
    heads = [line.split(" | ")[0] for line in lines[1:-1]]
    assert heads == ["  x=0 beta=0", "  x=1 beta=1", "  x=2 beta=1", "  x=3 beta=inf"]
    assert lines[-1] == "  all-output tail: no repetition needed"


# --- solving -----------------------------------------------------------------


def test_solve_simple_shapes():
    assert solve(sys1(X=EStep("+", EVar(X))), X) == parse_ioterm("(+)")
    assert solve(sys1(X=EStep("-", EVar(X))), X) == parse_ioterm("eps")
    assert solve(sys1(X=EEmpty()), X) == parse_ioterm("eps")


def test_solve_guarded_words():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(1, 7)
        word = "".join(rng.choice("-+") for _ in range(n))
        if "+" not in word:
            continue
        iospec = sys1(X=steps(word, EVar(X)))
        got = solve(iospec, X)
        want = parse_ioterm("(%s)" % word)
        for k in range(40):
            assert interpret(got, k) == interpret(want, k)


def test_solve_cap():
    iospec = sys1(X=EStep("-", EStep("+", EVar(X))))
    with pytest.raises(CapError):
        solve(iospec, X, max_columns=2)


def test_repetition_witness_and_shift_stability():
    iospec = sys1(
        X=EInf(steps("-++", EVar(X)), steps("--+", EVar(Y))),
        Y=EInf(steps("++", EVar(X)), steps("-+", EVar(Y))),
    )
    witness: list = []
    solve(iospec, X, trace=witness)
    assert witness
    x1, x2 = witness[0]
    g = build_graph(iospec, X)
    columns = diagram(g, {g.heads[X]: 0}, x2 + 4)[0]

    def pseudo(x1, x2):
        c1, c2 = columns[x1], columns[x2]
        if set(c1) != set(c2):
            return False
        d = min(c2.values()) - min(c1.values())
        return all(c2[v] - c1[v] >= d for v in c1)

    assert pseudo(x1, x2)
    for m in range(1, 4):
        assert pseudo(x1 + m, x2 + m)


def test_vclose_is_a_closure():
    iospec = sys1(
        X=EInf(steps("-++", EVar(X)), steps("--+", EVar(Y))),
        Y=EInf(steps("++", EVar(X)), steps("-+", EVar(Y))),
    )
    g = build_graph(iospec, X)
    col, nxt = diagram(g, {g.heads[X]: 0}, 2)[0]
    assert _vclose(g, dict(col)) == col
    assert _vclose(g, dict(nxt)) == nxt


# --- random systems against a no-omit enumeration --------------------------


def no_omit_entries(g, root, xmax, ymax):
    """All diagram entries with bounded height, by saturation (no omit)."""
    eps, out_plus, out_minus = edge_lists(g)
    entries = {(g.heads[root], 0, 0)}
    frontier = [(g.heads[root], 0, 0)]
    while frontier:
        v, x, y = frontier.pop()
        moves = [(w, x, y) for w in eps[v]]
        moves += [(w, x, y + 1) for w in out_plus[v]]
        moves += [(w, x + 1, y) for w in out_minus[v]]
        for e in moves:
            if e[1] <= xmax and e[2] <= ymax and e not in entries:
                entries.add(e)
                frontier.append(e)
    return entries


def test_omit_safety_random_systems():
    rng = random.Random(42)
    checked = 0
    while checked < 60:
        iospec = random_system(rng)
        root = iospec.roots[0]
        try:
            g = build_graph(iospec, root)
        except TranslationError:
            continue
        if g.size > 20:
            continue
        checked += 1
        ymax = 25
        entries = no_omit_entries(g, root, xmax=12, ymax=ymax)
        bounds = diagram(g, {g.heads[root]: 0}, 12)[1]
        out_minus = edge_lists(g)[2]
        for x in range(12):
            ys = [y for (v, xx, y) in entries if xx == x and out_minus[v]]
            brute = min(ys) if ys else TOP
            ours = bounds[x]
            if brute == TOP or brute >= ymax:
                assert ours == TOP or ours >= min(brute, ymax)
            else:
                assert ours == brute


def test_solve_random_systems_match_diagram():
    rng = random.Random(43)
    checked = 0
    while checked < 60:
        iospec = random_system(rng)
        root = iospec.roots[0]
        try:
            got = solve(iospec, root)
        except TranslationError:
            continue
        checked += 1
        g = build_graph(iospec, root)
        bounds = diagram(g, {g.heads[root]: 0}, 40)[1]
        for n in range(40):
            assert interpret(got, n) == bounds[n], (iospec.dump(), render(got), n)


def test_solve_acyclic_random_systems_match_the_algebra():
    """On a system with no cycle, `evaluate` in dependency order gives each
    variable's value by the IO-term algebra alone, with no diagram: `solve`
    must agree with it on every variable, so a fault in how the diagram
    seeds its next column shows here even where the diagram agrees with
    itself."""
    systems = variables = 0
    for seed in range(3000):
        iospec = random_system(random.Random(seed))
        refs = {v: [w for w, _ in expr_vars(e)] for v, e in iospec.equations.items()}
        feedback, order = feedback_order(iospec.roots, refs.__getitem__)
        if feedback:
            continue
        systems += 1
        values: dict = {}
        for v in order:
            values[v] = evaluate(iospec.equations[v], values)
        for v in order:
            try:
                got = solve(iospec, v)
            except (CapError, TranslationError):
                continue
            variables += 1
            assert got == values[v], (seed, iospec.dump(), var_str(v), render(got), render(values[v]))
    assert systems > 1000 and variables > 3000


# --- diagrams for a feedback vertex set, the algebra for the rest ------------


def system_order(iospec, roots):
    """`feedback_order` over the system graph's `refs`, as
    `translate_symbols` walks it."""
    refs = build_graph(iospec, roots[0]).refs
    return feedback_order(roots, lambda v: refs[v])


def test_feedback_set_gates_match_per_root_solve():
    from conftest import DATA
    from prodcheck.equations import arg, star
    from prodcheck.streamspec import parse
    from prodcheck.translate import translate_symbols

    texts = [p.read_text() for p in sorted(DATA.glob("*.spec"))]
    texts += [
        random_flat_spec(random.Random(seed), max_feedback=fb) for fb in (1, 2) for seed in range(300)
    ]
    sizes = set()
    for text in texts:
        gates, iospec = translate_symbols(parse(text))
        feedback, order = system_order(iospec, iospec.roots)
        sizes.add(len(feedback))
        assert set(order) == set(iospec.equations)
        # the walk reads each variable's successors in the order of `expr_vars`
        assert iospec.graph.refs == {v: [w for w, _ in expr_vars(e)] for v, e in iospec.equations.items()}
        for name, gate in gates.items():
            assert gate.star == solve(iospec, star(name)), text
            args = tuple(solve(iospec, arg(name, i, 0)) for i in range(1, gate.arity + 1))
            assert gate.args == args, text
    assert {0, 1, 2, 3} <= sizes


def system_values(iospec) -> dict:
    """Every variable's value as `translate_symbols` computes it: `solve`
    for the feedback vertex set, `evaluate` for the rest."""
    feedback, order = system_order(iospec, iospec.roots)
    values = {v: solve(iospec, v) for v in order if v in feedback}
    for v in order:
        if v not in feedback:
            values[v] = evaluate(iospec.equations[v], values)
    return values


def rhs_at(e, values: dict, n: int):
    """Output of the right-hand side `e` at supply n, with each variable
    read from `values`: '+' adds 1, '-' gives 0 at supply 0 and otherwise
    goes on at n - 1, an infimum takes the minimum."""
    out = 0
    while isinstance(e, EStep):
        if e.sym == "+":
            out += 1
        elif n == 0:
            return out
        else:
            n -= 1
        e = e.body
    if isinstance(e, EInf):
        return out + min(rhs_at(e.left, values, n), rhs_at(e.right, values, n))
    return out + (interpret(values[e.var], n) if isinstance(e, EVar) else 0)


def substitution_failure(iospec, values: dict):
    """The first (variable, supply) at which `values` breaks an equation,
    or None.  A weakly guarded system has one solution, so values that meet
    every equation are it.  Each value is read below its prefix's '-' count
    plus two loop passes, and at least 30."""
    for v, e in iospec.equations.items():
        u = values[v]
        for n in range(max(30, u.prefix.count("-") + 2 * u.loop.count("-"))):
            if interpret(u, n) != rhs_at(e, values, n):
                return v, n
    return None


def test_solutions_satisfy_their_equations():
    """The solver's values checked by substitution, a check that uses
    neither the diagram nor `solve`: over the corpus and 600 generated flat
    specifications."""
    from conftest import DATA
    from prodcheck.streamspec import parse
    from prodcheck.translate import translate_symbols

    texts = [p.read_text() for p in sorted(DATA.glob("*.spec"))]
    texts += [random_flat_spec(random.Random(seed), max_feedback=fb) for fb in (1, 2) for seed in range(300)]
    for text in texts:
        iospec = translate_symbols(parse(text))[1]
        assert substitution_failure(iospec, system_values(iospec)) is None, text


def test_substitution_catches_a_wrong_value(corpus):
    """Dropping one loop symbol of one solution, or shifting its prefix by
    one supply, breaks an equation of every corpus system with a value that
    both consumes and produces in its loop."""
    from prodcheck.translate import translate_symbols

    mutated = []
    for name, spec in corpus.items():
        iospec = translate_symbols(spec)[1]
        values = system_values(iospec)
        v = next((v for v, u in values.items() if "-" in u.loop and "+" in u.loop), None)
        if v is None:
            continue
        u = values[v]
        for wrong in (IOTerm(u.prefix, u.loop[1:]), IOTerm("-" + u.prefix, u.loop)):
            assert substitution_failure(iospec, {**values, v: wrong}) is not None, (name, render(wrong))
        mutated.append(name)
    assert len(mutated) == 8  # all but intro_b (eps) and nested_fb (all-output loops)


def has_negative_cycle(g, nodes, num, den) -> bool:
    """Whether some cycle through `nodes`, a set closed under the trace
    graph's edges, has a '+'/'-' ratio below num/den: Bellman-Ford, from 0
    at every node, under the integer weights plus·den - num·minus."""
    eps, out_plus, out_minus = edge_lists(g)
    weighted = ((eps, 0), (out_plus, den), (out_minus, -num))
    edges = [(u, v, w) for u in nodes for succ, w in weighted for v in succ[u]]
    dist = dict.fromkeys(nodes, 0)
    for _ in range(len(nodes)):  # with no negative cycle, a round changes nothing
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return False
    return True


def test_gate_slopes_are_critical_cycle_ratios():
    """Slope check, with neither the diagram nor `solve`: each gate argument
    grows by q every p supplies (`_shape`), and q/p is the least '+'/'-'
    ratio over the cycles of the trace graph reachable from the head of its
    equation X_{f,i,0}.  With M '-' edges reachable, a simple cycle's ratio
    has a denominator of at most M, and two such ratios that differ are
    more than 1/(M²+1) apart.  So q/p, with a denominator of at most M, is
    the least ratio when no cycle lies below it and one lies below
    q/p + 1/(M²+1).  A finite word grows by 0; an all-output argument
    reaches no cycle through a '-' edge.  Over the corpus, 600 generated
    flat specifications, and the two-rule width and chain families."""
    from fractions import Fraction

    from conftest import DATA
    from prodcheck.equations import arg
    from prodcheck.ioalg import _shape
    from prodcheck.streamspec import parse, reachable
    from prodcheck.translate import translate_symbols

    start = time.perf_counter()
    texts = [p.read_text() for p in sorted(DATA.glob("*.spec"))]
    texts += [random_flat_spec(random.Random(seed), max_feedback=fb) for fb in (1, 2) for seed in range(300)]
    texts += [two_rule_width(k) for k in (2, 3, 8, 64)] + [specgen.chain(n) for n in (1, 2, 16)]
    checked = 0
    for text in texts:
        gates, iospec = translate_symbols(parse(text))
        for name, gate in gates.items():
            for i, u in enumerate(gate.args, 1):
                g = build_graph(iospec, arg(name, i, 0))
                eps, out_plus, out_minus = edge_lists(g)
                nodes = set(reachable((g.heads[arg(name, i, 0)],), lambda n: eps[n] + out_plus[n] + out_minus[n]))
                _, p, q = _shape(u)
                checked += 1
                if q == TOP:
                    assert not has_negative_cycle(g, nodes, 1, 0), (text, name, i)
                    continue
                minus_edges = sum(len(out_minus[n]) for n in nodes)
                r = Fraction(q, p)
                above = r + Fraction(1, minus_edges * minus_edges + 1)
                assert r.denominator <= minus_edges, (text, name, i)
                assert not has_negative_cycle(g, nodes, r.numerator, r.denominator), (text, name, i)
                assert has_negative_cycle(g, nodes, above.numerator, above.denominator), (text, name, i)
    assert checked == 1400  # 146 of them all output, 508 finite words
    assert time.perf_counter() - start < 3.0


def test_repetition_needs_the_shifted_core(monkeypatch):
    """In this generated system a core's bounds match over one strip
    without the core rebuilding itself shifted.  With the shift check the
    solver finds the loops below, which meet every equation; with bounds
    alone it would close early on finite words, which break X0's equation
    from supply 13 on."""
    import prodcheck.solver as solver

    iospec = random_system(random.Random(13683), max_eqs=5, max_size=8)
    v0, v1, v2 = iospec.roots
    values = {v: solve(iospec, v) for v in iospec.roots}
    assert values == {v0: parse_ioterm("(-++---)"), v1: parse_ioterm("(--++--)"), v2: parse_ioterm("(+)")}
    assert substitution_failure(iospec, values) is None

    def bounds_only(g, bounds, x1, x2, core, d):
        return diagram(g, core, x2 - x1 + 1)[1] == bounds[x1 : x2 + 1]

    monkeypatch.setattr(solver, "_check_repetition", bounds_only)
    early = {v: solve(iospec, v) for v in iospec.roots}
    assert early[v0] == parse_ioterm("-++----++----++") and early[v1] == parse_ioterm("--++----++----++")
    assert substitution_failure(iospec, early) == (v0, 13)


def test_exact_repeats_pass_the_repetition_check(corpus):
    """The search closes on an exact repeat, a strip whose every node keeps
    its height relative to the earlier strip x1, without sweeping its core
    as a second diagram.  At every such closing, over the corpus systems and
    2,000 generated ones, that sweep would have accepted it."""
    from prodcheck.translate import translate_symbols

    systems = [translate_symbols(spec)[1] for spec in corpus.values()]
    systems += [random_system(random.Random(seed), max_eqs=5, max_size=8) for seed in range(2000)]
    exact = partial = 0
    for iospec in systems:
        for root in iospec.roots:
            witness: list = []
            try:
                solve(iospec, root, trace=witness)
            except (TranslationError, CapError):
                continue
            if not witness:
                continue
            x1, x2 = witness[0]
            g = build_graph(iospec, root)
            columns, bounds = diagram(g, {g.heads[root]: 0}, x2 + 1)
            first, last = columns[x1], columns[x2]
            d = min(last.values()) - min(first.values())
            if all(last[v] == y + d for v, y in first.items()):
                exact += 1
                assert _check_repetition(g, bounds, x1, x2, dict(first), d), (iospec.dump(), root)
            else:
                partial += 1
    assert exact > partial > 0


def test_partial_core_still_runs_the_check(monkeypatch):
    """In the shifted-core system of `test_repetition_needs_the_shifted_core`,
    X0's search meets three strips whose core is only part of the column;
    the first matches its bounds alone.  Each still goes through
    `_check_repetition`, which rejects it, and the search closes on an exact
    repeat, with no check."""
    import prodcheck.solver as solver

    iospec = random_system(random.Random(13683), max_eqs=5, max_size=8)
    root = iospec.roots[0]
    calls = []

    def recording(g, bounds, x1, x2, core, d):
        accepted = _check_repetition(g, bounds, x1, x2, core, d)
        column = diagram(g, {g.heads[root]: 0}, x1 + 1)[0][x1]
        calls.append((x1, x2, len(core) < len(column), accepted))
        return accepted

    monkeypatch.setattr(solver, "_check_repetition", recording)
    witness: list = []
    assert solve(iospec, root, trace=witness) == parse_ioterm("(-++---)")
    assert calls == [(10, 11, True, False), (10, 12, True, False), (11, 12, True, False)]
    assert witness == [(9, 13)]


def test_feedback_order_checks_the_system_first(monkeypatch):
    """`translate_symbols` checks each root in order through `build_graph`,
    which checks the system with the first one, before the walk."""
    import prodcheck.translate as translate
    from prodcheck.equations import arg, star
    from prodcheck.streamspec import parse

    Z = ("v", "Z")
    # acyclic: no variable needs the diagram, and the checks still run
    undefined = sys1(X=steps("-+", EVar(Y)), Y=EInf(EVar(Z), EEmpty()))
    acyclic = sys1(X=steps("-+", EVar(Y)), Y=EInf(EStep("+", EEmpty()), EEmpty()))
    assert system_order(acyclic, (X,)) == (set(), [Y, X])
    with pytest.raises(TranslationError, match="undefined variable"):
        build_graph(undefined, X)
    with pytest.raises(TranslationError, match="silent cycle"):
        build_graph(sys1(X=EStep("+", EVar(Y)), Y=EInf(EVar(Y), EEmpty())), X)
    with pytest.raises(TranslationError, match="has no equation"):
        build_graph(acyclic, Z)

    # `f`'s roots are star(f), then arg(f, 1, 0); finitize hands back `system`
    one = parse("Signature( C : stream(nat), f : stream(nat) -> stream(nat), 0 : nat )\nC = 0:C\nf(s) = s\n")
    none = parse("Signature( C : stream(nat), 0 : nat )\nC = 0:C\n")
    system = None
    monkeypatch.setattr(translate.eq, "finitize", lambda cls, roots, cap: system)
    system = IOSpec({star("f"): EStep("+", EVar(Z))}, ())
    # the system is checked with the first root, before the second one
    with pytest.raises(TranslationError, match="undefined variable"):
        translate.translate_symbols(one)
    system = IOSpec({arg("f", 1, 0): EStep("+", EVar(Z))}, ())
    with pytest.raises(TranslationError, match="has no equation"):
        translate.translate_symbols(one)
    system = IOSpec({X: EStep("+", EVar(Z))}, ())
    # no roots: nothing reachable, and no graph is built
    assert translate.translate_symbols(none) == ({}, system)
    assert system.graph is None


def test_chain_solves_only_the_feedback_set(monkeypatch):
    """A chain of n one-step functions sweeps diagrams for |F| = 2
    variables, not for its 2n roots."""
    import prodcheck.translate as translate
    from prodcheck.streamspec import parse

    solved = []
    real_solve = translate.solve

    def counting_solve(iospec, root, **kwargs):
        solved.append(root)
        return real_solve(iospec, root, **kwargs)

    monkeypatch.setattr(translate, "solve", counting_solve)
    gates, iospec = translate.translate_symbols(parse(specgen.chain(512)))
    feedback, _ = system_order(iospec, iospec.roots)
    assert len(solved) == len(feedback) <= 2
    assert set(solved) == feedback
    assert {str(g) for g in gates.values()} == {"[inf]((-+))"}


def test_feedback_order_walks_left_to_right():
    """Successors in the order the right-hand side names them: the cycle
    Y <-> Z is entered at Y, so Y is the back edge's target."""
    Z = ("v", "Z")
    iospec = sys1(X=EInf(EVar(Y), EVar(Z)), Y=EStep("+", EVar(Z)), Z=EStep("+", EVar(Y)))
    assert system_order(iospec, (X,)) == ({Y}, [Z, Y, X])


def test_chain_builds_one_graph_per_solve(monkeypatch):
    """Every root and every sweep shares the system's one graph: a chain of
    n one-step functions builds it once, not once per each of its 2n roots
    or |F| = 2 sweeps."""
    import prodcheck.solver as solver
    import prodcheck.translate as translate
    from prodcheck.streamspec import parse

    built, solved = [], []
    real_build, real_solve = solver._system_graph, translate.solve

    def counting_build(iospec):
        built.append(iospec)
        return real_build(iospec)

    def counting_solve(iospec, root, **kwargs):
        solved.append(root)
        return real_solve(iospec, root, **kwargs)

    monkeypatch.setattr(solver, "_system_graph", counting_build)
    monkeypatch.setattr(translate, "solve", counting_solve)
    translate.translate_symbols(parse(specgen.chain(512)))
    assert len(built) == 1 and len(solved) == 2


def test_cli_analysis_builds_one_graph(monkeypatch):
    """One analysis of `nested_fb`, infima included, builds the trace graph
    of its one system and no other."""
    import prodcheck.solver as solver
    from conftest import spec_path
    from prodcheck import cli

    built = []
    real_build = solver._system_graph

    def counting_build(iospec):
        built.append(iospec)
        return real_build(iospec)

    monkeypatch.setattr(solver, "_system_graph", counting_build)
    assert cli.main([str(spec_path("nested_fb"))]) == 0
    assert len(built) == 1


def test_evaluate_deep_expressions():
    """Nesting deeper than the interpreter's recursion limit."""
    values = {X: parse_ioterm("(-+)")}
    nested = EVar(X)
    for _ in range(1200):
        nested = EInf(EStep("+", nested), EVar(X))
    assert evaluate(nested, values) == parse_ioterm("(-+)")
    word = "-+" * 3000 + "+"
    assert evaluate(steps(word, EVar(X)), values) == parse_ioterm("-+" * 3000 + "(+-)")


def test_evaluate_caps_infima():
    """(-+) /\\ ++ is ++ from supply 2 on, with period 1: the infimum reads
    supplies 0 to 3, and `max_columns` must allow 4."""
    values = {X: parse_ioterm("(-+)"), Y: parse_ioterm("++")}
    expr = EInf(EVar(X), EVar(Y))
    assert evaluate(expr, values, max_columns=4) == parse_ioterm("-+-+")
    with pytest.raises(CapError, match="3 columns"):
        evaluate(expr, values, max_columns=3)
