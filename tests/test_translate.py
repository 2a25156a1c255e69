import random

import pytest

from prodcheck import dogame, prodterm
from prodcheck.ioalg import TOP, interpret, parse_ioterm
from prodcheck.prodterm import Box, Meet, Mu, Peb, Var, gate_apply, meet_all
from prodcheck.streamspec import App, Cons, Rule, SVar, classify, parse
from prodcheck.equations import TranslationError
from prodcheck.translate import (
    decide,
    translate_constant,
    translate_symbols,
)

import specgen
from conftest import DATA, load
from specgen import children, random_flat_spec
from test_prodterm import collapse

T = parse_ioterm


def gates_of(spec):
    gates, _ = translate_symbols(spec)
    return gates


def test_gates_pascal(corpus):
    g = gates_of(corpus["pascal"])["f"]
    assert g.cap == TOP and g.args == (T("-(-+)"),)


def test_gates_ternary_morse_pure(corpus):
    gates = gates_of(corpus["ternary_morse_pure"])
    assert gates["zip"].args == (T("(-++)"), T("(+-+)"))
    assert gates["inv"].args == (T("(-+)"),)
    assert gates["tail"].args == (T("-(-+)"),)
    assert gates["diff"].args == (T("-(-+)"),)
    assert all(g.cap == TOP for g in gates.values())


def test_gates_traces(corpus):
    gates = gates_of(corpus["traces"])
    assert gates["f"].args == (T("----++-++-+--++-+(-++-)"),)
    assert gates["g"].args == (T("(--++)"), T("--(--++-++-+)"))


def test_gates_nested_fb(corpus):
    gates = gates_of(corpus["nested_fb"])
    assert gates["f"].args == (T("-+--(+)"),)
    assert gates["b"].args == (T("--(+)"), T("+-(+)"), T("(+)"))


def test_gates_convolution_star(corpus):
    gates = gates_of(corpus["convolution"])
    conv = gates["conv"]
    # total output of the star sequence is unbounded, but it consumes:
    # the cap port in a net is its value at zero supply
    assert conv.cap == TOP
    assert conv.star == T("(-+)")
    assert interpret(conv.star, 0) == 0
    assert gates["add"].args == (T("(-+)"), T("(-+)"))
    assert gates["times"].args == (T("(-+)"),)


def test_gates_unguarded(corpus):
    gates = gates_of(corpus["intro_b"])
    g = gates["g"]
    assert g.cap == 0 and g.args == (T("eps"),)


def test_translate_unfriendly_rejected():
    text = """Signature(
      P : stream(bit),
      f : stream(bit) -> stream(bit),
      g : stream(bit) -> stream(bit),
      0, 1 : bit
    )
    P = 0:f(P)
    f(x:y:s) = x:g(f(s))
    g(x:s) = x:g(s)
    """
    with pytest.raises(TranslationError) as err:
        translate_symbols(parse(text))
    assert "f" in str(err.value)


# --- constant translation ---------------------------------------------------


def test_translate_constant_pascal(corpus):
    spec = corpus["pascal"]
    gates = gates_of(spec)
    term = translate_constant(spec, gates, "P")
    assert term == Mu("P", Peb(Peb(Box(T("-(-+)"), Var("P")))))


def test_translate_constant_ones(corpus):
    spec = corpus["convolution"]
    gates = gates_of(spec)
    assert translate_constant(spec, gates, "ones") == Mu("ones", Peb(Var("ones")))


def test_translate_constant_two_rules():
    text = """Signature(
      C : bit -> stream(bit),
      0, 1 : bit
    )
    C(0) = 0:C(1)
    C(1) = 1:C(0)
    """
    spec = parse(text)
    term = translate_constant(spec, {}, "C")
    assert term == Mu("C", Meet(Peb(Var("C")), Peb(Var("C"))))
    assert collapse(term) == TOP


def test_translate_constant_unknown(corpus):
    with pytest.raises(TranslationError):
        translate_constant(corpus["pascal"], {}, "nope")


def ref_translate_constant(spec, gates, name):
    """The recursive translation that `translate_constant` replaced."""
    sig = spec.signature

    def tr(term, visited):
        if isinstance(term, Cons):
            return Peb(tr(term.tail, visited))
        if isinstance(term, SVar):
            raise TranslationError("stream variable %r reachable from constant %r" % (term.name, name))
        info = sig.symbols[term.sym]
        if info.kind == "const":
            if term.sym in visited:
                return Var(term.sym)
            rules = spec.rules_of(term.sym)
            if not rules:
                raise TranslationError("stream constant %r has no defining rule" % term.sym)
            inner = visited | {term.sym}
            return Mu(term.sym, meet_all([tr(r.rhs, inner) for r in rules]))
        parts = [tr(a, visited) for a in term.args[: info.stream_arity]]
        return gate_apply(gates[term.sym], parts)

    return tr(App(name, ()), frozenset())


def _translation_outcome(fn, spec, gates, name):
    try:
        return fn(spec, gates, name)
    except TranslationError as exc:
        return str(exc)


# Constants of two rules each, whose translations meet in rule order.
_TWO_RULES = """Signature( C, D : bit -> stream(bit), f : stream(bit) -> stream(bit) -> stream(bit), 0, 1 : bit )
C(0) = 0:C(1)
C(1) = 1:f(D(0), C(0))
D(0) = f(C(1), 0:D(1))
D(1) = 1:1:D(0)
f(x:s, y:t) = x:y:f(s, t)
"""

# C0 reaches D, which has no rule, and then the stream variable of E's
# second rule; the translation stops at whichever comes first in preorder.
_BROKEN = """Signature( C0, C1, D, E : stream(bit), f : stream(bit) -> stream(bit) -> stream(bit), 0 : bit )
C0 = 0:f(D, E)
C1 = f(0:E, D)
E = 0:E
f(x:s, t) = x:f(s, t)
"""


def test_translate_constant_matches_recursive_reference():
    """Every constant of the specs under tests/data, of random flat specs
    and of a ring and a prefix, and the errors of a broken spec: the same
    term or the same first error."""
    specs = [parse(path.read_text(), str(path)) for path in sorted(DATA.glob("*.spec"))]
    specs += [parse(random_flat_spec(random.Random(seed), max_feedback=2)) for seed in range(200)]
    specs += [parse(specgen.ring(12)), parse(specgen.prefix(300)), parse(_TWO_RULES)]
    translated = 0
    for spec in specs:
        try:
            gates = gates_of(spec)
        except TranslationError:
            continue
        for c in spec.signature.stream_constants():
            want = ref_translate_constant(spec, gates, c)
            assert translate_constant(spec, gates, c) == want, c
            translated += 1
    assert translated > 300
    broken = parse(_BROKEN)
    rule = broken.rules_of("E")[0]
    broken.by_root["E"].append(Rule(rule.lhs, Cons(rule.rhs.head, SVar("s")), rule.line))
    gates = gates_of(parse(_BROKEN))
    outcomes = [_translation_outcome(fn, broken, gates, c) for c in ("C0", "C1") for fn in (translate_constant, ref_translate_constant)]
    assert outcomes[0] == outcomes[1] == "stream constant 'D' has no defining rule"
    assert outcomes[2] == outcomes[3] == "stream variable 's' reachable from constant 'C1'"


def test_translate_constant_of_a_deep_prefix():
    m = 20000
    spec = parse(specgen.prefix(m))
    gates = gates_of(spec)
    expected = Box(T("(-+)"), Var("P"))
    for _ in range(m):
        expected = Peb(expected)
    assert translate_constant(spec, gates, "P") == Mu("P", expected)


# --- decisions ---------------------------------------------------------------


def test_decide_pascal(corpus):
    verdicts, _, _ = decide(corpus["pascal"])
    v = verdicts["P"]
    assert v.production == TOP and v.answer == "productive" and v.context == "flat"


def test_decide_convolution(corpus):
    verdicts, _, _ = decide(corpus["convolution"])
    assert verdicts["nats"].production == 1
    assert verdicts["nats"].answer == "unknown"
    assert verdicts["nats"].context == "friendly-nesting"
    assert verdicts["ones"].production == TOP
    assert verdicts["ones"].answer == "productive"
    assert verdicts["ones"].context == "pure"


def test_decide_do_m(corpus):
    verdicts, _, _ = decide(corpus["do_m"])
    v = verdicts["M"]
    assert v.production == 1 and v.answer == "not-do-productive"


@pytest.mark.xfail(strict=True, reason="pseudo-cycle removal drops the X_id branch of X_{f1,1,1}")
def test_decide_pseudo_cycle_not_productive():
    """C0 -> f0(0:C0) -> f1(1:C0) -> C0 emits nothing, so C0 has production
    0; today the gate of f0 comes out as -(+) and C0 is called productive."""
    verdicts, _, _ = decide(load("pseudo_cycle"))
    assert verdicts["C0"].production == 0


@pytest.mark.parametrize("n", [6, 12, 32])
def test_one_analysis_composes_each_box_pair_once(monkeypatch, n):
    """The derivations of a ring's n constants repeat one another's box-box
    steps; an analysis composes each of its 2n-1 distinct pairs once, and a
    second analysis starts afresh."""
    calls = []
    compose = prodterm.compose

    def counted(s, t):
        calls.append((s, t))
        return compose(s, t)

    monkeypatch.setattr(prodterm, "compose", counted)
    spec = parse(specgen.ring(n))
    for _ in range(2):
        calls.clear()
        verdicts, _, _ = decide(spec)
        assert len(calls) == 2 * n - 1
        assert len(set(calls)) == len(calls)
        assert {v.production for v in verdicts.values()} == {1}


def test_decide_ring_of_64():
    """Each P_i has its head and no more.  Its collapse composes loops of up
    to 2^64 + 1 symbols, which are four runs each."""
    verdicts, gates, _ = decide(parse(specgen.ring(64)))
    assert str(gates["f"]) == "[inf]((--+))"
    assert len(verdicts) == 64
    assert {(v.production, v.answer) for v in verdicts.values()} == {(1, "not-productive")}
    longest = 0
    for _, term in verdicts["P0"].trace:
        stack = [term]
        while stack:
            t = stack.pop()
            if isinstance(t, Box):
                assert len(t.seq.loop_runs) <= 4
                longest = max(longest, sum(n for _, n in t.seq.loop_runs))
            stack.extend(children(t))
    assert longest == 2 ** 64 + 1


def test_decide_root_restriction(corpus):
    verdicts, _, _ = decide(corpus["convolution"], root="ones")
    assert list(verdicts) == ["ones"]
    with pytest.raises(TranslationError):
        decide(corpus["convolution"], root="zeros")


def test_verdict_sentences(corpus):
    verdicts, _, _ = decide(corpus["convolution"])
    assert verdicts["ones"].sentence() == "The specification of ones is productive."
    assert verdicts["nats"].sentence() == "Failed to prove productivity of nats."
    verdicts, _, _ = decide(corpus["do_m"])
    assert (
        verdicts["M"].sentence()
        == "M is not data-obliviously productive (production = 1)."
    )


# --- agreement with the game oracle ----------------------------------------


def test_gates_agree_with_game(corpus):
    for name in ("pascal", "traces", "do_h", "morse_dol", "ternary_morse_flat"):
        spec = corpus[name]
        cls = classify(spec)
        gates = gates_of(spec)
        for f in spec.signature.stream_functions():
            if cls.symbol_class[f] not in ("flat", "pure"):
                continue
            g = gates[f]
            import itertools

            for supplies in itertools.product(range(9), repeat=g.arity):
                gate_value = min(
                    [g.cap] + [interpret(a, n) for a, n in zip(g.args, supplies)]
                )
                game = dogame.do_low_function(cls, f, supplies)
                if isinstance(game, dogame.AtLeast):
                    assert gate_value == TOP or gate_value >= game.bound
                else:
                    assert gate_value == game, (name, f, supplies)


def test_constant_production_matches_game(corpus):
    for name, constant in (("do_m", "M"), ("intro_b", "B")):
        spec = corpus[name]
        cls = classify(spec)
        verdicts, _, _ = decide(spec)
        game = dogame.do_low_constant(spec, cls, constant, prod_cap=8)
        assert verdicts[constant].production == game


def test_random_flat_specs_cross_validated():
    import itertools
    import random

    from prodcheck.streamspec import validate

    rng = random.Random(424242)
    checked = 0
    while checked < 150:
        text = random_flat_spec(rng)
        spec = parse(text)
        if any(d.severity in ("error", "warning") for d in validate(spec)):
            continue
        cls = classify(spec)
        if any(v in ("friendly", "unfriendly") for v in cls.symbol_class.values()):
            continue
        checked += 1
        gates, _ = translate_symbols(spec, cls)
        for f in spec.signature.stream_functions():
            g = gates[f]
            for supplies in itertools.product(range(5), repeat=g.arity):
                gate_value = min(
                    [g.cap] + [interpret(a, n) for a, n in zip(g.args, supplies)]
                )
                game = dogame.do_low_function(cls, f, supplies, prod_cap=40)
                if isinstance(game, dogame.AtLeast):
                    assert gate_value == TOP or gate_value >= game.bound, text
                else:
                    assert gate_value == game, (text, f, supplies)
        verdicts, _, _ = decide(spec)
        for c, v in verdicts.items():
            game = dogame.do_low_constant(spec, cls, c, prod_cap=12)
            if isinstance(game, dogame.AtLeast):
                continue
            # the game's adversary is per-symbol uniform, so it can concede
            # more than the exact bound, never less
            assert v.production <= game, (text, c)


def test_star_solutions_of_non_nesting_symbols():
    # with no nesting rules the star solution is all-plus or a plus word
    for name in (
        "pascal",
        "ternary_morse_flat",
        "ternary_morse_pure",
        "morse_dol",
        "traces",
        "nested_fb",
        "do_m",
        "intro_b",
        "do_h",
    ):
        spec = load(name)
        gates, _ = translate_symbols(spec)
        for f, g in gates.items():
            star = g.star
            assert (star.loop == "+" and star.prefix == "") or (
                star.finite and set(star.prefix) <= {"+"}
            ), (name, f, star)
