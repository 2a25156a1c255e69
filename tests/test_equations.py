import random

import pytest

from prodcheck import equations as eq
from prodcheck.equations import (
    CapError,
    EEmpty,
    EInf,
    EStep,
    EVar,
    IOSpec,
    TranslationError,
    XID,
    XM,
    XP,
    arg,
    expr_str,
    expr_vars,
    finitize,
    star,
    steps,
    var_str,
)
from prodcheck.ioalg import interpret, parse_ioterm
from prodcheck.solver import build_graph, solve
from prodcheck.streamspec import classify, parse

import specgen
from conftest import load
from specgen import diagram, random_flat_spec


def test_pascal_arg_equation(corpus):
    cls = classify(corpus["pascal"])
    got = eq.rhs(cls, arg("f", 1, 0))
    want = EInf(
        steps("--+", EVar(arg("f", 1, 1))),
        steps("-++", EVar(arg("f", 1, 0))),
    )
    assert got == want


def test_pascal_star_equation(corpus):
    cls = classify(corpus["pascal"])
    assert eq.rhs(cls, star("f")) == EInf(steps("+", EVar(star("f"))), steps("++", EVar(star("f"))))


def test_base_equations(corpus):
    cls = classify(corpus["pascal"])
    assert eq.rhs(cls, XM) == eq.EEmpty()
    assert eq.rhs(cls, XP) == EStep("+", EVar(XP))
    assert eq.rhs(cls, XID) == EStep("-", EStep("+", EVar(XID)))


def test_nested_feedback_equations(corpus):
    cls = classify(corpus["nested_fb"])
    for q in range(4):
        assert eq.rhs(cls, arg("b", 3, q)) == EStep("+", EVar(arg("b", 2, q + 1)))
    assert eq.rhs(cls, arg("b", 1, 0)) == steps("--+", EVar(arg("b", 3, 1)))
    assert eq.rhs(cls, arg("b", 1, 1)) == steps("-+", EVar(arg("b", 3, 1)))
    assert eq.rhs(cls, arg("b", 1, 3)) == steps("+", EVar(arg("b", 3, 2)))


def test_unguarded_symbol_maps_to_empty(corpus):
    cls = classify(corpus["intro_b"])
    assert eq.rhs(cls, arg("g", 1, 0)) == EVar(XM)
    assert eq.rhs(cls, star("g")) == EVar(XM)


def test_nesting_rule_maps_to_identity(corpus):
    cls = classify(corpus["convolution"])
    assert eq.rhs(cls, arg("conv", 1, 0)) == EVar(XID)
    assert eq.rhs(cls, star("conv")) == EVar(XID)


def test_unfriendly_not_translatable():
    text = """Signature(
      f : stream(bit) -> stream(bit),
      g : stream(bit) -> stream(bit),
      0, 1 : bit
    )
    f(x:y:s) = x:g(f(s))
    g(x:s) = x:g(s)
    """
    spec = parse(text)
    cls = classify(spec)
    with pytest.raises(TranslationError):
        eq.rhs(cls, arg("f", 1, 0))


def test_finitize_pascal_reachable_set(corpus):
    cls = classify(corpus["pascal"])
    iospec = finitize(cls, [arg("f", 1, 0)])
    argvars = {v for v in iospec.equations if v[0] == "arg"}
    assert argvars == {arg("f", 1, 0), arg("f", 1, 1)}
    build_graph(iospec, arg("f", 1, 0))  # no silent cycle


def test_finitize_pascal_star(corpus):
    cls = classify(corpus["pascal"])
    iospec = finitize(cls, [star("f")])
    assert solve(iospec, star("f")) == parse_ioterm("(+)")


def test_finitize_rpc_fires_on_nested_example(corpus):
    cls = classify(corpus["nested_fb"])
    iospec = finitize(cls, [arg("f", 1, 0)])
    assert iospec.equations[arg("b", 3, 0)] == EVar(XP)
    assert iospec.equations[arg("b", 3, 1)] == EVar(XP)
    assert solve(iospec, arg("f", 1, 0)) == parse_ioterm("-+--(+)")
    assert iospec.graph is not None  # built by `solve`: no silent cycle


def test_finitize_cap():
    spec = load("nested_fb")
    cls = classify(spec)
    with pytest.raises(CapError):
        finitize(cls, [arg("f", 1, 0)], cap=2)


def test_corpus_systems_weakly_guarded(corpus):
    for name, spec in corpus.items():
        cls = classify(spec)
        roots = []
        for f in spec.signature.stream_functions():
            info = spec.signature.symbols[f]
            roots.append(star(f))
            roots.extend(arg(f, i, 0) for i in range(1, info.stream_arity + 1))
        iospec = finitize(cls, roots)
        build_graph(iospec, roots[0])  # no silent cycle


def test_rpc_soundness_against_deep_truncation(corpus):
    """Solutions after pseudo-cycle removal match a direct diagram over the
    system materialized far deeper than any value we inspect."""
    for name in ("nested_fb", "pascal", "traces", "convolution"):
        spec = load(name)
        cls = classify(spec)
        for f in spec.signature.stream_functions():
            info = spec.signature.symbols[f]
            for i in range(1, info.stream_arity + 1):
                root = arg(f, i, 0)
                solved = solve(finitize(cls, [root]), root)
                deep = _truncate_without_rpc(cls, root, qmax=100)
                g = build_graph(deep, root)
                bounds = diagram(g, {g.heads[root]: 0}, 40)[1]
                for n in range(40):
                    assert interpret(solved, n) == bounds[n], (name, f, i, n)


def _truncate_without_rpc(cls, root, qmax):
    """Materialize the raw system breadth-first; references above the q
    ceiling are stubbed with the all-output variable, which only all-'+'
    chains can reach within the inspected range."""
    eqs = {v: eq.rhs(cls, v) for v in (XM, XP, XID)}
    todo = [root]
    while todo:
        v = todo.pop()
        if v in eqs:
            continue
        if v[0] == "arg" and v[3] > qmax:
            eqs[v] = EVar(XP)
            continue
        eqs[v] = eq.rhs(cls, v)
        for w, _ in eq.expr_vars(eqs[v]):
            if w not in eqs:
                todo.append(w)
    return IOSpec(eqs, (root,))


def test_dump_format(corpus):
    cls = classify(corpus["pascal"])
    iospec = finitize(cls, [arg("f", 1, 0)])
    dump = iospec.dump()
    assert "X_{f,1,0} = /\\ { --+X_{f,1,1}, -++X_{f,1,0} }" in dump


def test_any_variable_shape_renders():
    """A variable of another kind than the translation's prints its fields
    after the kind, so the systems of `specgen.random_system`, over
    `("v", "X<i>")`, render in `repr`, `expr_str` and `dump`."""
    assert var_str(("v", "X0")) == "X_{X0}" and var_str(arg("f", 1, 0)) == "X_{f,1,0}"
    for seed in range(100):
        iospec = specgen.random_system(random.Random(seed))
        for v, e in iospec.equations.items():
            assert var_str(v) == "X_{%s}" % v[1]
            assert repr(e) == expr_str(e) == ref_expr_str(e)
        assert iospec.dump().count(" = ") == len(iospec.equations)


# --- the explicit-stack renderer against the recursive one -------------------


def ref_expr_str(e, var=var_str):
    """The recursive renderer that `expr_str` replaced; `var` renders each
    variable occurrence."""
    if isinstance(e, EEmpty):
        return "eps"
    if isinstance(e, EVar):
        return var(e.var)
    if isinstance(e, EStep):
        return e.sym + ref_expr_str(e.body, var)
    parts = []
    while isinstance(e, EInf):
        parts.append(e.left)
        e = e.right
    parts.append(e)
    return "/\\ { %s }" % ", ".join(ref_expr_str(p, var) for p in parts)


def ref_dump_mu(iospec, root):
    """The recursive mu rendering that `IOSpec.dump_mu` replaced."""
    visited = set()

    def var(v):
        if v == XM:
            return "eps"
        if v == XP:
            return "mu x. +x"
        if v == XID:
            return "mu x. -+x"
        if v in visited:
            return var_str(v)
        visited.add(v)
        return "mu %s. %s" % (var_str(v), ref_expr_str(iospec.equations[v], var))

    return var(root)


def test_rendering_matches_recursive_reference(corpus):
    """`dump` and `dump_mu` from every variable of the finitized systems, and
    of random systems over the base variables and argument variables, render
    as the recursive walk renders them."""
    systems = []
    for name, spec in _finitize_cases(corpus):
        try:
            systems.append(finitize(classify(spec), _all_roots(spec)))
        except TranslationError:
            continue
    rng = random.Random(27)
    for _ in range(300):
        names = [arg("f", 1, q) for q in range(rng.randrange(1, 6))] + [star("g")]
        equations = {v: _random_expr(rng, names + [XM, XP, XID]) for v in names}
        systems.append(IOSpec(equations, (names[0],)))
    rendered = 0
    for iospec in systems:
        assert iospec.dump() == "\n".join(
            "%s = %s" % (var_str(v), ref_expr_str(e)) for v, e in iospec.equations.items()
        )
        for v in iospec.equations:
            assert iospec.dump_mu(v) == ref_dump_mu(iospec, v)
            rendered += 1
    assert rendered > 3000


def test_dump_mu_of_a_long_chain():
    """The mu rendering of a 1,000-function chain nests 1,000 binders."""
    iospec = finitize(classify(parse(specgen.chain(1000))), [arg("f00", 1, 0)])
    text = iospec.dump_mu(arg("f00", 1, 0))
    assert text.count("mu X_") == 1000 and text.endswith("X_{f00,1,0}")


def test_deep_expressions_compare_hash_and_repr():
    """`==`, `hash` and `repr` of a 20,000-deep IO-expression walk an
    explicit stack."""
    n = 20000

    def expr(v):
        return EInf(EVar(XP), steps("-+" * (n // 2), EInf(EVar(v), EEmpty())))

    a, b, c = expr(arg("f", 1, 0)), expr(arg("f", 1, 0)), expr(arg("f", 1, 1))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != c and not a == c and a != EVar(XP) and a != "x"
    assert len({a, b, c}) == 2
    assert EEmpty() == EEmpty() and EVar(XM) != EEmpty() and EStep("+", EEmpty()) != EStep("-", EEmpty())
    assert repr(a) == expr_str(a) == "/\\ { X_+, %s/\\ { X_{f,1,0}, eps } }" % ("-+" * (n // 2))


# --- incremental finitize against the from-scratch sweep ---------------------


def _finitize_reference(cls, roots, cap=100000):
    """Pseudo-cycle removal done from scratch: after every new equation,
    rebuild all clean edges and search from every variable, restarting
    after each replacement.  The order of the materialized equations, the
    replacements and the cap must match `finitize` exactly."""
    roots = tuple(roots)
    eqs: dict = {}

    def reachable_undefined():
        seen = set()
        todo = list(roots)
        missing = []
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            if v not in eqs:
                missing.append(v)
                continue
            for w, _ in eq.expr_vars(eqs[v]):
                todo.append(w)
        return missing, seen

    def rpc_sweep():
        while True:
            clean_edges: dict = {}
            for v, e in eqs.items():
                clean_edges[v] = {w for w, clean in eq.expr_vars(e) if clean}
            hit = None
            for v in sorted(eqs, key=eq._var_order_key):
                if v[0] != "arg" or eqs[v] == EVar(XP):
                    continue
                stack = [v]
                seen = set()
                while stack:
                    w = stack.pop()
                    if w in seen:
                        continue
                    seen.add(w)
                    if w != v and w[0] == "arg" and w[1] == v[1] and w[2] == v[2] and w[3] > v[3]:
                        hit = v
                        break
                    stack.extend(clean_edges.get(w, ()))
                if hit:
                    break
            if hit is None:
                return
            eqs[hit] = EVar(XP)

    while True:
        missing, _ = reachable_undefined()
        if not missing:
            break
        v = min(missing, key=eq._var_order_key)
        eqs[v] = eq.rhs(cls, v)
        if len(eqs) > cap:
            raise CapError("finitization cap exceeded (%d equations)" % cap)
        rpc_sweep()

    _, seen = reachable_undefined()
    kept = {v: e for v, e in eqs.items() if v in seen}
    return IOSpec(dict(sorted(kept.items(), key=lambda kv: eq._var_order_key(kv[0]))), roots)


def _all_roots(spec):
    roots = []
    for f in spec.signature.stream_functions():
        roots.append(star(f))
        roots.extend(arg(f, i, 0) for i in range(1, spec.signature.symbols[f].stream_arity + 1))
    return roots


def _outcome(fn, cls, roots, **kw):
    try:
        return list(fn(cls, roots, **kw).equations.items())
    except CapError as exc:
        return (type(exc), str(exc))


# One new equation here opens two pseudo-cycles at once: the second one must
# still be removed after the first replacement.
TWO_PSEUDO_CYCLES = """Signature( C0, C1 : stream(bit), f0 : stream(bit) -> stream(bit) -> stream(bit), 0, 1 : bit )
f0(0:s0,y1_0:y1_1:s1) = 0:1:f0(1:0:s1,s1)
f0(1:s0,y1_0:y1_1:s1) = 1:1:f0(1:s0,1:1:s0)
C0 = 1:1:f0(C0,C0)
C1 = f0(C1,C0)
"""


def _finitize_cases(corpus):
    for seed in range(200):
        yield "seed %d" % seed, parse(random_flat_spec(random.Random(seed)))
    # longer feedback makes pseudo-cycles: q grows along '+'-only paths
    for seed in range(200):
        yield "feedback seed %d" % seed, parse(random_flat_spec(random.Random(seed), max_feedback=3))
    yield "two pseudo-cycles", parse(TWO_PSEUDO_CYCLES)
    yield from corpus.items()
    yield "chain 24", parse(specgen.chain(24))
    yield "ring 8", parse(specgen.ring(8))
    for n in range(2, 13):
        yield "push-back chain %d" % n, parse(specgen.push_back_chain(n))


def test_finitize_matches_from_scratch_sweep(corpus):
    replaced = 0
    for name, spec in _finitize_cases(corpus):
        cls = classify(spec)
        roots = _all_roots(spec)
        want = _outcome(_finitize_reference, cls, roots)
        assert _outcome(finitize, cls, roots) == want, name
        for cap in range(6):
            assert _outcome(finitize, cls, roots, cap=cap) == _outcome(
                _finitize_reference, cls, roots, cap=cap
            ), (name, cap)
        if isinstance(want, list):
            replaced += sum(1 for v, e in want if e == EVar(XP) and eq.rhs(cls, v) != e)
    assert replaced > 0  # the cases exercise pseudo-cycle removal


def test_weakly_guarded_deep_surface_chain():
    n = 5000
    chain = {("v", i): EVar(("v", i + 1)) for i in range(n)}
    chain[("v", n)] = EStep("+", EVar(("v", n)))
    assert _weakly_guarded(IOSpec(chain, (("v", 0),)))
    chain[("v", n)] = EVar(("v", 0))
    assert not _weakly_guarded(IOSpec(chain, (("v", 0),)))


def _weakly_guarded(iospec):
    """Whether `build_graph` takes the system, rather than reporting a
    silent cycle: a cycle of its trace graph's silent edges."""
    try:
        build_graph(iospec, next(iter(iospec.equations)))
    except TranslationError as e:
        if "silent cycle" not in str(e):
            raise
        return False
    return True


def _weakly_guarded_reference(iospec):
    """Weak guardedness by a colour depth-first search over the surface
    occurrences (those with no '-'/'+' above them): the reference for the
    silent-cycle check of `build_graph`."""
    surface: dict = {}
    for v, e in iospec.equations.items():
        out: set = set()
        todo = [e]
        while todo:
            e = todo.pop()
            if isinstance(e, EVar):
                out.add(e.var)
            elif isinstance(e, EInf):
                todo.extend((e.left, e.right))
        surface[v] = out
    color: dict = {}  # 1 = on the stack, 2 = done
    for start in surface:
        if start in color:
            continue
        color[start] = 1
        stack = [(start, iter(surface[start]))]
        while stack:
            v, succ = stack[-1]
            for w in succ:
                if color.get(w) == 1:
                    return False
                if w not in color:
                    color[w] = 1
                    stack.append((w, iter(surface.get(w, ()))))
                    break
            else:
                color[v] = 2
                stack.pop()
    return True


def _random_expr(rng, names, depth=0):
    pick = rng.random()
    if depth > 3 or pick < 0.4:
        return EVar(rng.choice(names))
    if pick < 0.5:
        return EEmpty()
    if pick < 0.75:
        return EStep(rng.choice("-+"), _random_expr(rng, names, depth + 1))
    return EInf(_random_expr(rng, names, depth + 1), _random_expr(rng, names, depth + 1))


def test_weakly_guarded_matches_colour_search(corpus):
    outcomes = []
    rng = random.Random(806)
    while len(outcomes) < 300:
        n = rng.randrange(1, 8)
        names = [("v", i) for i in range(n + rng.randrange(0, 3))]  # some undefined
        iospec = IOSpec({names[i]: _random_expr(rng, names) for i in range(n)}, (names[0],))
        # `build_graph` reports an undefined variable first
        if all(w in iospec.equations for e in iospec.equations.values() for w, _ in expr_vars(e)):
            want = _weakly_guarded_reference(iospec)
            assert _weakly_guarded(iospec) == want
            outcomes.append(want)
    assert set(outcomes) == {True, False}
    for name, spec in _finitize_cases(corpus):
        try:
            iospec = finitize(classify(spec), _all_roots(spec))
        except TranslationError:
            continue
        assert _weakly_guarded(iospec) == _weakly_guarded_reference(iospec), name
