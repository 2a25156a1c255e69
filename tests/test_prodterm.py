import io
import random
from collections import Counter

import pytest

from prodcheck import cli, prodterm
from prodcheck.ioalg import TOP, IOTerm, conat_str, interpret, is_top, parse_ioterm, render
from prodcheck.prodterm import (
    PEB_SEQ,
    Box,
    Gate,
    Meet,
    Mu,
    Peb,
    Src,
    Var,
    _first_redex,
    collapse_trace,
    derivation_texts,
    gate_apply,
    pretty,
)
from prodcheck.streamspec import parse
from prodcheck.translate import decide

from conftest import DATA
from specgen import children, prefix, random_closed_term, random_flat_spec, ring


def collapse(t):
    """The unique k with t ->* src(k)."""
    steps = collapse_trace(t)
    return (steps[-1][1] if steps else t).value


T = parse_ioterm


def ref_rule_at(t):
    """The collapse rule whose left-hand side matches at `t`, worked out
    from the node and its children: the reference for the cached `rule`."""
    if isinstance(t, Peb):
        return "peb"
    if isinstance(t, Box):
        b = t.body
        if isinstance(b, Box):
            return "box-box"
        if isinstance(b, Meet):
            return "box-meet"
        if isinstance(b, Src):
            return "box-src"
        return None
    if isinstance(t, Mu):
        b = t.body
        if isinstance(b, Var) and b.name == t.name:
            return "mu-var"
        if isinstance(b, Box) and isinstance(b.body, Var) and b.body.name == t.name:
            return "mu-box"
        if isinstance(b, Meet):
            return "mu-meet"
        if t.name not in b.free_vars:
            return "mu-drop"
        return None
    if isinstance(t, Meet) and isinstance(t.left, Src) and isinstance(t.right, Src):
        return "meet-src"
    return None


def find_redexes(t, path=()):
    """All redex positions, in preorder, as (path, rule) pairs."""
    found = []
    rule = ref_rule_at(t)
    if rule is not None:
        found.append((path, rule))
    for i, c in enumerate(children(t)):
        found.extend(find_redexes(c, path + (i,)))
    return found


def collapse_random(t, rng, trail=None):
    """Collapse contracting a uniformly random redex each step; every term
    passed through, the first included, is appended to `trail` if given."""
    if t.free_vars:
        raise ValueError("open term")
    while True:
        if trail is not None:
            trail.append(t)
        redexes = find_redexes(t)
        if not redexes:
            return t.value
        path, rule = rng.choice(redexes)
        t = ref_rewrite_at(t, path, rule)


def weight(t):
    """Termination measure; strictly decreases along every collapse step."""
    if isinstance(t, (Src, Var)):
        return 1
    if isinstance(t, Peb):
        return 2 * weight(t.body) + 1
    if isinstance(t, (Box, Mu)):
        return 2 * weight(t.body)
    return weight(t.left) + weight(t.right) + 1


def pascal_term():
    return Mu("P", Peb(Peb(Box(T("-(-+)"), Var("P")))))


# --- collapse -------------------------------------------------------------


def test_collapse_pascal():
    assert collapse(pascal_term()) == TOP


def test_collapse_mu_var():
    assert collapse(Mu("x", Var("x"))) == 0


def test_collapse_meet_src():
    steps = collapse_trace(Meet(Src(2), Src(TOP)))
    assert steps == [("meet-src", Src(2))]


def test_collapse_open_term_rejected():
    with pytest.raises(ValueError):
        collapse(Box(T("(-+)"), Var("y")))


def test_collapse_trace_pascal_shape():
    steps = collapse_trace(pascal_term())
    rules = [rule for rule, _ in steps]
    assert rules == ["peb", "peb", "box-box", "box-box", "mu-box"]
    terms = [term for _, term in steps]
    assert Mu("P", Box(T("+(+-)"), Box(T("-(-+)"), Var("P")))) in terms
    assert Mu("P", Box(T("++-(-+)"), Var("P"))) in terms
    assert terms[-1] == Src(TOP)


def test_collapse_trace_trivial():
    assert collapse_trace(Src(5)) == []


def test_pebble_is_successor_box():
    rng = random.Random(20)
    for _ in range(100):
        t = random_closed_term(rng, rng.randrange(1, 8))
        assert collapse(Peb(t)) == collapse(Box(PEB_SEQ, t))


def test_weight_examples():
    assert weight(Src(3)) == 1
    assert weight(Peb(Src(0))) == 3
    assert weight(Mu("x", Box(T("(-+)"), Var("x")))) == 4


def test_weight_decreases_along_collapse():
    rng = random.Random(21)
    for _ in range(200):
        t = random_closed_term(rng, rng.randrange(1, 20))
        w = weight(t)
        for _, after in collapse_trace(t):
            w2 = weight(after)
            assert w2 < w
            w = w2


def test_strategy_irrelevance():
    # randomized redex choice reaches the same numeral as the fixed strategy
    rng = random.Random(22)
    for _ in range(1000):
        t = random_closed_term(rng, rng.randrange(1, 14))
        assert collapse_random(t, rng) == collapse(t)


# --- denotational oracle --------------------------------------------------


def denot_production(t, env=None, iter_cap=200):
    """Evaluate the production denotationally, independently of the rewrite
    system; mu by Kleene iteration.

    Returns (value, exact).  When a recursion neither stabilizes nor is
    forced to TOP within `iter_cap` rounds the result is a lower bound with
    exact=False; the oracle never asserts TOP on its own.
    """
    env = {} if env is None else dict(env)

    def ev(t, env):
        if isinstance(t, Src):
            return t.value, True
        if isinstance(t, Var):
            return env.get(t.name, 0), True
        if isinstance(t, Peb):
            v, ex = ev(t.body, env)
            return v + 1, ex
        if isinstance(t, Box):
            v, ex = ev(t.body, env)
            out = interpret(t.seq, v)
            # a lower bound that already saturates the box is exact
            return out, ex or out == interpret(t.seq, TOP)
        if isinstance(t, Meet):
            v1, ex1 = ev(t.left, env)
            v2, ex2 = ev(t.right, env)
            if v1 < v2:
                return v1, ex1
            if v2 < v1:
                return v2, ex2
            return v1, ex1 or ex2
        n = 0
        for _ in range(iter_cap):
            v, ex = ev(t.body, {**env, t.name: n})
            if is_top(v):
                return TOP, ex
            if v == n:
                return n, ex
            if v < n:
                raise AssertionError("production semantics must be monotone")
            n = v
        return n, False

    return ev(t, env)


def test_denot_src():
    assert denot_production(Src(7)) == (7, True)
    assert denot_production(Var("a"), {"a": 3}) == (3, True)
    assert denot_production(Var("a")) == (0, True)


def test_denot_pascal_diverges():
    value, exact = denot_production(pascal_term(), iter_cap=100)
    assert not exact
    assert value >= 100


def test_denot_box_src():
    assert denot_production(Box(T("(+-)"), Src(0))) == (1, True)


def test_denot_agrees_with_collapse():
    rng = random.Random(23)
    for _ in range(500):
        t = random_closed_term(rng, rng.randrange(1, 12))
        k = collapse(t)
        value, exact = denot_production(t, iter_cap=200)
        if exact:
            assert value == k
        else:
            assert k >= value
            if value >= 200:
                # a still-growing iteration; these small terms have no fixed
                # point anywhere near the cap, so the true value is infinite
                assert k == TOP


# --- the explicit-stack redex search and rewrite against the recursive ones --


def ref_rewrite_at(t, path, rule):
    """The contraction of the `rule` redex at `path`, rebuilt by recursion."""
    if not path:
        return prodterm._contract(t, rule, {})
    i = path[0]
    return prodterm._replace_child(t, i, ref_rewrite_at(children(t)[i], path[1:], rule))


def ref_first_redex(t, path=()):
    """The recursive search that `_first_redex` replaced."""
    rule = ref_rule_at(t)
    if rule is not None:
        return (path, rule)
    for i, c in enumerate(children(t)):
        hit = ref_first_redex(c, path + (i,))
        if hit is not None:
            return hit
    return None


def chain_path(t, redex, chain):
    """The path from `t` down to `redex` that `chain` links up, each link's
    parent checked to hold the node below it at the linked index."""
    path = []
    node = redex
    while chain is not None:
        parent, i, chain = chain
        assert children(parent)[i] is node
        path.append(i)
        node = parent
    assert node is t
    return tuple(reversed(path))


def test_redex_search_and_rewrite_match_recursive_reference():
    """On every term of random-order derivations of random terms and their
    subterms, open ones included, and on every term of the derivations of
    the specs under tests/data: the same first redex, reached by its chain.
    On the closed ones, `collapse_trace` takes the steps of the recursive
    search and rewrite."""
    rng = random.Random(28)
    terms = []
    for _ in range(300):
        trail = []
        collapse_random(random_closed_term(rng, rng.randrange(1, 24)), rng, trail)
        for t in trail:
            stack = [t]
            while stack:
                terms.append(stack.pop())
                stack.extend(children(terms[-1]))
    for path in sorted(DATA.glob("*.spec")):
        verdicts, _, _ = decide(parse(path.read_text(), str(path)))
        terms += [term for v in verdicts.values() for _, term in v.trace]
    rewrites = 0
    for t in terms:
        hit = _first_redex(t)
        want = ref_first_redex(t)
        if hit is None:
            assert want is None, pretty(t)
            continue
        redex, rule, chain = hit
        assert (chain_path(t, redex, chain), rule) == want, pretty(t)
        if not t.free_vars:
            steps = []
            while want is not None:
                path, rule = want
                steps.append((rule, ref_rewrite_at(steps[-1][1] if steps else t, path, rule)))
                want = ref_first_redex(steps[-1][1])
            assert collapse_trace(t) == steps, pretty(t)
            rewrites += len(steps)
    assert len(terms) > 10000 and rewrites > 20000, (len(terms), rewrites)


def test_redex_deep_in_a_term():
    """The only redex of a left comb of meets sits 5,000 levels down; its
    chain holds the 5,000 meets above it, and the step rebuilds them."""
    n = 5000
    t = Meet(Src(1), Src(2))
    for _ in range(n):
        t = Meet(t, Src(3))
    redex, rule, chain = _first_redex(t)
    assert (redex, rule, chain_path(t, redex, chain)) == (Meet(Src(1), Src(2)), "meet-src", (0,) * n)
    u = prodterm._contract(redex, rule, {})
    while chain is not None:
        parent, i, chain = chain
        u = prodterm._replace_child(parent, i, u)
    for _ in range(n):
        assert u.right == Src(3)
        u = u.left
    assert u == Src(1)


def lockstep_descent(old, new):
    """Walk `old` and its collapse step `new` down from the root together,
    as `derivation_texts` does, to the first old node with a rule; check on
    the way that each old node passed has no rule and that its new copy
    differs from it by identity and in the child on the path alone.
    Returns the old node reached and the child indices of the path."""
    path = []
    while old.rule is None:
        assert new is not old and type(new) is type(old), pretty(old)
        if isinstance(old, Meet):
            i = 1 if new.left is old.left else 0
            assert children(new)[1 - i] is children(old)[1 - i]
        else:
            i = 0
            assert getattr(new, "seq", None) is getattr(old, "seq", None)
            assert getattr(new, "name", None) == getattr(old, "name", None)
        path.append(i)
        old, new = children(old)[i], children(new)[i]
    assert new is not old
    return old, tuple(path)


def test_collapse_steps_change_one_path():
    """The renderer's precondition, on every collapse step of the specs under
    tests/data, of random closed terms, of rings of 4 to 12 constants and of
    cons prefixes of 1 to 400 elements (every 21st length, and 400): the
    nodes where a step's old and new term differ by identity form one path
    from the root, the old nodes on it above the redex have no rule, each
    new one keeps its other child, and the path ends at the redex
    `_first_redex` finds."""
    rng = random.Random(23)
    terms = [random_closed_term(rng, rng.randrange(1, 24)) for _ in range(300)]
    specs = [path.read_text() for path in sorted(DATA.glob("*.spec"))]
    specs += [ring(n) for n in range(4, 13)] + [prefix(m) for m in (*range(1, 400, 21), 400)]
    for text in specs:
        terms += [v.trace[0][1] for v in decide(parse(text))[0].values()]
    steps = 0
    for t in terms:
        derivation = [t] + [u for _, u in collapse_trace(t)]
        for old, new in zip(derivation, derivation[1:]):
            reached, path = lockstep_descent(old, new)
            redex, rule, chain = _first_redex(old)
            assert reached is redex and chain_path(old, redex, chain) == path, pretty(old)
            steps += 1
    assert steps > 10000, steps


def test_derivation_texts_deep_redexes():
    """A derivation whose redexes sit 5,000 levels down, right of meets and
    under mus, renders each line as `pretty` renders its term."""
    n = 5000
    s, x, y = T("-(-+)"), Var("x"), Var("y")
    t = Mu("x", Box(s, Mu("y", Peb(Meet(x, Box(s, y))))))
    for k in range(n):
        t = Meet(Src(k), t)
    derivation, rules = [t], []
    for _ in range(12):
        redex, rule, chain = _first_redex(derivation[-1])
        u = prodterm._contract(redex, rule, {})
        while chain is not None:
            parent, i, chain = chain
            u = prodterm._replace_child(parent, i, u)
        reached, path = lockstep_descent(derivation[-1], u)
        assert reached is redex and path[:n] == (1,) * n
        derivation.append(u)
        rules.append(rule)
    assert set(rules) == {"peb", "box-meet", "mu-meet", "mu-drop", "box-box", "mu-box", "box-src"}
    assert list(derivation_texts(derivation)) == [pretty(u) for u in derivation]


# --- pretty printing ------------------------------------------------------


def _reference_pretty(t):
    """The rendering by a recursive walk of the whole term."""
    if isinstance(t, Src):
        return "src(%s)" % conat_str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Peb):
        return "peb(%s)" % _reference_pretty(t.body)
    if isinstance(t, Box):
        return "box<%s>(%s)" % (render(t.seq), _reference_pretty(t.body))
    if isinstance(t, Mu):
        return "mu %s. %s" % (t.name, _reference_pretty(t.body))
    return "meet(%s, %s)" % (_reference_pretty(t.left), _reference_pretty(t.right))


def test_pretty_pascal():
    assert pretty(pascal_term()) == "mu P. peb(peb(box<-(-+)>(P)))"
    assert pretty(Meet(Src(0), Src(TOP))) == "meet(src(0), src(inf))"
    shared = Box(T("-(-+)"), Var("x"))
    assert list(derivation_texts([Mu("x", Meet(shared, shared))])) == [
        "mu x. meet(box<-(-+)>(x), box<-(-+)>(x))",
    ]


def test_derivation_texts_match_reference():
    """Every line spliced from the one before it renders its term as the
    recursive walk renders it: on the collapse derivations of random closed
    terms, of every constant of the specs under tests/data, of generated
    flat specs, rings and cons prefixes, and of terms whose redexes sit right
    of a meet or split a meet under a box or a mu, past left parts of every
    width.  Random-order derivations are not spliced, so `pretty` renders
    them term by term."""
    rng = random.Random(26)
    terms = [random_closed_term(rng, rng.randrange(1, 24)) for _ in range(300)]
    for _ in range(100):
        u, v = random_closed_term(rng, rng.randrange(1, 12)), random_closed_term(rng, rng.randrange(1, 12))
        seq = T(rng.choice(["eps", "+", "-(-+)", "+-+-(--+)", "-" * rng.randrange(1, 40)]))
        k = rng.choice([0, 7, 12345, TOP])
        terms += [
            Meet(Src(k), v),
            Meet(Src(k), Meet(Src(TOP), Box(seq, v))),
            Box(seq, Meet(u, v)),
            Mu("x", Meet(Box(seq, Var("x")), Meet(u, Box(seq, Var("x"))))),
        ]
    specs = [path.read_text() for path in sorted(DATA.glob("*.spec"))]
    specs += [random_flat_spec(random.Random(seed)) for seed in range(100)]
    specs += [ring(n) for n in range(4, 13)] + [prefix(m) for m in (1, 2, 50, 200, 400)]
    for text in specs:
        terms += [v.trace[0][1] for v in decide(parse(text))[0].values()]
    lines = 0
    for t in terms:
        derivation = [t] + [u for _, u in collapse_trace(t)]
        assert list(derivation_texts(derivation)) == [_reference_pretty(u) for u in derivation]
        lines += len(derivation)
    assert lines > 10000, lines
    for _ in range(100):
        trail = []
        collapse_random(random_closed_term(rng, rng.randrange(1, 24)), rng, trail)
        assert [pretty(u) for u in trail] == [_reference_pretty(u) for u in trail]


def test_pretty_deep_chain():
    t = Src(0)
    for _ in range(20000):
        t = Peb(t)
    assert pretty(t) == "peb(" * 20000 + "src(0)" + ")" * 20000


def test_derivation_texts_render_each_sequence_once(monkeypatch):
    """The text report of a 400-element cons prefix, and that of a ring of
    8 constants, render each distinct IO-sequence of all their derivations
    once, besides the gate table's own renderings, and search for no redex:
    each line is spliced at the redex the renderer's descent reaches."""
    renders = []

    def counting_render(seq):
        renders.append(seq)
        return render(seq)

    def no_search(t):
        raise AssertionError("redex search while rendering %s" % pretty(t))

    for text, constants, lines in ((prefix(400), 1, 802), (ring(8), 8, 256)):
        spec = parse(text)
        verdicts, gates, cls = decide(spec)
        derivations = [[term for _, term in v.trace] for v in verdicts.values()]
        seqs, stack = Counter(), [u for derivation in derivations for u in derivation]
        while stack:
            u = stack.pop()
            if isinstance(u, Box):
                seqs[u.seq] = 1
            stack.extend(children(u))
        table = Counter(a for name in spec.signature.stream_functions() for a in gates[name].args)
        del renders[:]
        out = io.StringIO()
        with monkeypatch.context() as patch:
            patch.setattr(prodterm, "render", counting_render)
            patch.setattr(prodterm, "_first_redex", no_search)
            cli._report_text(spec, cls, gates, verdicts, out)
        assert Counter(renders) == seqs + table
        report = out.getvalue()
        assert (len(derivations), sum(map(len, derivations))) == (constants, lines)
        assert report.count("\n  ~> ") == lines - constants
        for v in verdicts.values():
            assert "  ~> src(%s)    [" % conat_str(v.production) in report


def test_free_vars_scoping():
    t = Meet(Mu("x", Var("x")), Var("x"))
    assert t.free_vars == {"x"}
    assert Mu("x", Meet(Var("x"), Var("y"))).free_vars == {"y"}


def _reference_free_vars(t):
    """The free variables by a walk of the whole term."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Src):
        return frozenset()
    if isinstance(t, (Peb, Box)):
        return _reference_free_vars(t.body)
    if isinstance(t, Mu):
        return _reference_free_vars(t.body) - {t.name}
    return _reference_free_vars(t.left) | _reference_free_vars(t.right)


def test_free_vars_cached_per_node_match_walk():
    """Every node of random open terms, and of every term their closed
    relatives pass through while collapsing, carries its free variables."""
    rng = random.Random(25)
    checked = 0
    for k in range(600):
        scope = ("a", "b")[: k % 3]
        t = random_closed_term(rng, rng.randrange(1, 24), scope=scope)
        terms = [t] + ([after for _, after in collapse_trace(t)] if not scope else [])
        for term in terms:
            stack = [term]
            while stack:
                u = stack.pop()
                assert u.free_vars == _reference_free_vars(u), pretty(u)
                checked += 1
                stack.extend(children(u))
    assert checked > 10000


def test_rule_cached_per_node_matches_reference():
    """Every node of 3,000 random closed terms, and of every term of the
    derivations of the specs under tests/data, carries the rule that the
    reference works out; every rule shows up."""
    rng = random.Random(29)
    roots = [random_closed_term(rng, rng.randrange(1, 24)) for _ in range(3000)]
    for path in sorted(DATA.glob("*.spec")):
        verdicts, _, _ = decide(parse(path.read_text(), str(path)))
        roots += [term for v in verdicts.values() for _, term in v.trace]
    seen, stack, rules = set(), list(roots), Counter()
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            assert u.rule == ref_rule_at(u), pretty(u)
            rules[u.rule] += 1
            stack.extend(children(u))
    assert len(rules) == 10 and min(rules.values()) > 50, rules


def test_deep_terms_compare_hash_and_repr():
    """`==`, `hash` and `repr` of a 20,000-deep production term walk an
    explicit stack."""
    n = 20000

    def term(leaf):
        t = Box(T("(-+)"), leaf)
        for _ in range(n):
            t = Peb(t)
        return Mu("x", Meet(Src(1), t))

    a, b, c = term(Var("x")), term(Var("x")), term(Var("y"))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != c and not a == c and a != Src(1) and a != "x"
    assert len({a, b, c}) == 2
    assert repr(a) == pretty(a) == "mu x. meet(src(1), %sbox<(-+)>(x)%s)" % ("peb(" * n, ")" * n)


def test_box_box_composes_long_runs():
    """Runs of 2^40 symbols compose in a handful of steps: the halving by
    2^40 after the multiplication by 2^40 is the identity, the other order
    rounds down to a multiple of 2^40."""
    big = 2 ** 40
    shrink = IOTerm.of_runs((), (("-", big), ("+", 1)))  # n -> n // 2^40
    grow = IOTerm.of_runs((), (("-", 1), ("+", big)))  # n -> n * 2^40
    for n in (0, 1, 7, big - 1, big, 3 * big + 5, TOP):
        steps = collapse_trace(Box(grow, Box(shrink, Src(n))))
        assert [rule for rule, _ in steps] == ["box-box", "box-src"]
        assert steps[0][1] == Box(IOTerm.of_runs((), (("-", big), ("+", big))), Src(n))
        assert steps[-1][1] == Src(TOP if n == TOP else (n // big) * big)
        steps = collapse_trace(Box(shrink, Box(grow, Src(n))))
        assert steps[0][1] == Box(T("(-+)"), Src(n))
        assert steps[-1][1] == Src(n)


# --- gates ------------------------------------------------------------------


def test_gate_apply_unary_top():
    g = Gate(star=T("(+)"), args=(T("-(-+)"),))
    assert gate_apply(g, [Var("P")]) == Box(T("-(-+)"), Var("P"))


def test_gate_apply_nullary():
    assert gate_apply(Gate(star=T("eps"), args=()), []) == Src(0)


def test_gate_apply_binary_top():
    g = Gate(star=T("(+)"), args=(T("(-+)"), T("(-+)")))
    got = gate_apply(g, [Var("A"), Var("B")])
    assert got == Meet(Box(T("(-+)"), Var("A")), Box(T("(-+)"), Var("B")))


def test_gate_apply_consuming_star_keeps_port():
    g = Gate(star=T("(-+)"), args=(T("(-+)"),))
    got = gate_apply(g, [Src(9)])
    assert got == Meet(Box(T("(-+)"), Src(0)), Box(T("(-+)"), Src(9)))
    assert collapse(got) == 0


def test_gate_apply_arity_mismatch():
    with pytest.raises(ValueError):
        gate_apply(Gate(star=T("(+)"), args=(T("(-+)"),)), [])


def test_gate_interpretation():
    rng = random.Random(24)
    for _ in range(100):
        arity = rng.randrange(0, 3)
        cap = rng.choice([0, 1, 3, TOP])
        args = []
        while len(args) < arity:
            pre = "".join(rng.choice("-+") for _ in range(rng.randrange(3)))
            loop = "".join(rng.choice("-+") for _ in range(rng.randrange(1, 4)))
            if "+" not in loop:
                continue
            args.append(IOTerm(pre, loop))
        g = Gate(star=T("(+)") if cap == TOP else IOTerm("+" * cap), args=tuple(args))
        for _ in range(5):
            supplies = [rng.randrange(0, 9) for _ in range(arity)]
            term = gate_apply(g, [Src(n) for n in supplies])
            expected = min([cap] + [interpret(a, n) for a, n in zip(args, supplies)])
            assert collapse(term) == expected
