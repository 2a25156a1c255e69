"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
pass/fail report per criterion.
"""

import itertools
import random

import pytest

from prodcheck import dogame
from prodcheck.equations import TranslationError, arg, finitize, star
from prodcheck.ioalg import (
    TOP,
    IOTerm,
    compose,
    interpret,
    least_fixed_point,
    normalize,
    parse_ioterm,
)
from prodcheck.prodterm import Box, Mu, Var, collapse_trace
from prodcheck.solver import build_graph, infimum, solve
from prodcheck.streamspec import classify
from prodcheck.translate import decide, translate_symbols

from conftest import load
from specgen import diagram, kleene_lfp, random_canonical, random_closed_term, random_system
from test_prodterm import collapse, denot_production

T = parse_ioterm


def report(name, ok):
    print("%s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok


# --- criterion 1: gate regression -------------------------------------------

EXPECTED_GATES = {
    "pascal": {"f": (TOP, ("-(-+)",))},
    "ternary_morse_flat": {"f": (TOP, ("(-+)",))},
    "ternary_morse_pure": {
        "zip": (TOP, ("(-++)", "(+-+)")),
        "inv": (TOP, ("(-+)",)),
        "tail": (TOP, ("-(-+)",)),
        "diff": (TOP, ("-(-+)",)),
    },
    "morse_dol": {"h": (TOP, ("(-++)",))},
    "convolution": {
        "conv": (TOP, ("(-+)", "(-+)")),
        "add": (TOP, ("(-+)", "(-+)")),
        "times": (TOP, ("(-+)",)),
    },
    "traces": {
        "f": (TOP, ("----++-++-+--++-+(-++-)",)),
        "g": (TOP, ("(--++)", "--(--++-++-+)")),
    },
    "nested_fb": {
        "f": (TOP, ("-+--(+)",)),
        "b": (TOP, ("--(+)", "+-(+)", "(+)")),
    },
}


def test_c1_gate_regression():
    ok = True
    for name, expected in EXPECTED_GATES.items():
        gates, _ = translate_symbols(load(name))
        for f, (cap, args) in expected.items():
            got = gates[f]
            if got.cap != cap or got.args != tuple(T(a) for a in args):
                ok = False
                print("  %s.%s: got %s" % (name, f, got))
    report("C1 gate regression", ok)


# --- criterion 2: verdict regression ----------------------------------------

EXPECTED_VERDICTS = {
    "pascal": {"P": (TOP, "productive")},
    "ternary_morse_flat": {"Q": (TOP, "productive"), "Qprime": (TOP, "productive")},
    "ternary_morse_pure": {"Q": (TOP, "productive"), "M": (TOP, "productive")},
    "morse_dol": {"M": (TOP, "productive"), "Mprime": (TOP, "productive")},
    "convolution": {"nats": (1, "unknown"), "ones": (TOP, "productive")},
    "do_m": {"M": (1, "not-do-productive")},
}


def test_c2_verdict_regression():
    ok = True
    for name, expected in EXPECTED_VERDICTS.items():
        verdicts, _, _ = decide(load(name))
        for c, (k, answer) in expected.items():
            v = verdicts[c]
            if v.production != k or v.answer != answer:
                ok = False
                print("  %s.%s: got %s %s" % (name, c, v.production, v.answer))
    report("C2 verdict regression", ok)


# --- criterion 3: collapse derivation ---------------------------------------


def test_c3_pascal_collapse_derivation():
    verdicts, _, _ = decide(load("pascal"))
    terms = [t for _, t in verdicts["P"].trace]
    boxes = []
    for t in terms:
        while isinstance(t, Mu):
            t = t.body
        if isinstance(t, Box):
            boxes.append(t.seq)
    i1 = boxes.index(T("+(+-)")) if T("+(+-)") in boxes else -1
    i2 = boxes.index(T("++-(-+)")) if T("++-(-+)") in boxes else -1
    final = terms[-1]
    ok = i1 >= 0 and i2 > i1 and final.value == TOP
    report("C3 collapse derivation", ok)


# --- criterion 4: algebra homomorphisms --------------------------------------


def test_c4_algebra_homomorphisms():
    rng = random.Random(1000)
    ok = True
    for _ in range(1000):
        s, t = random_canonical(rng, loop_p=0.85), random_canonical(rng, loop_p=0.85)
        c, i = compose(s, t), infimum(s, t)
        for n in range(65):
            if interpret(c, n) != interpret(s, interpret(t, n)):
                ok = False
            if interpret(i, n) != min(interpret(s, n), interpret(t, n)):
                ok = False
        if least_fixed_point(s) != kleene_lfp(s):
            ok = False
        if normalize(IOTerm(s.prefix, s.loop)) != s or not all(
            interpret(normalize(IOTerm(s.prefix, s.loop)), n) == interpret(s, n)
            for n in range(65)
        ):
            ok = False
        if not ok:
            print("  failing pair: %s %s" % (s, t))
            break
    report("C4 algebra homomorphisms", ok)


# --- criterion 5: solver vs diagram ------------------------------------------


def _corpus_roots():
    for name in (
        "pascal",
        "ternary_morse_flat",
        "ternary_morse_pure",
        "morse_dol",
        "convolution",
        "traces",
        "nested_fb",
        "do_m",
        "intro_b",
        "do_h",
    ):
        spec = load(name)
        cls = classify(spec)
        roots = []
        for f in spec.signature.stream_functions():
            info = spec.signature.symbols[f]
            roots.append(star(f))
            roots.extend(arg(f, i, 0) for i in range(1, info.stream_arity + 1))
        iospec = finitize(cls, roots)
        for root in roots:
            yield iospec, root


def test_c5_solver_vs_diagram():
    ok = True
    for iospec, root in _corpus_roots():
        got = solve(iospec, root)
        g = build_graph(iospec, root)
        bounds = diagram(g, {g.heads[root]: 0}, 41)[1]
        for n in range(41):
            if interpret(got, n) != bounds[n]:
                ok = False
                print("  corpus root %s differs at %d" % (root, n))
    rng = random.Random(2000)
    checked = 0
    while checked < 200:
        iospec = random_system(rng, max_eqs=5, max_size=8)
        root = iospec.roots[0]
        try:
            got = solve(iospec, root)
        except TranslationError:
            continue  # not weakly guarded
        checked += 1
        g = build_graph(iospec, root)
        bounds = diagram(g, {g.heads[root]: 0}, 41)[1]
        for n in range(41):
            if interpret(got, n) != bounds[n]:
                ok = False
                print("  random system differs: %s" % iospec.dump())
                break
    report("C5 solver vs diagram oracle", ok)


# --- criterion 6: collapse vs denotation -------------------------------------


def test_c6_collapse_vs_denotation():
    rng = random.Random(3000)
    ok = True
    for _ in range(1000):
        t = random_closed_term(rng, rng.randrange(1, 13))
        k = collapse(t)
        value, exact = denot_production(t, iter_cap=200)
        if exact:
            if k != value:
                ok = False
        else:
            if k < value:
                ok = False
            if value >= 200 and k != TOP:
                ok = False
    report("C6 collapse vs denotation oracle", ok)


# --- criterion 7: DO-game agreement ------------------------------------------


def test_c7_do_game_agreement():
    ok = True
    spec = load("do_h")
    cls = classify(spec)
    for n in range(9):
        want = max(n - 1, 0)
        if dogame.do_low_function(cls, "h", (n,)) != want:
            ok = False
    for name, funcs in (("pascal", ("f",)), ("traces", ("f", "g"))):
        spec = load(name)
        cls = classify(spec)
        gates, _ = translate_symbols(spec, cls)
        for f in funcs:
            g = gates[f]
            for supplies in itertools.product(range(9), repeat=g.arity):
                gate_value = min(
                    [g.cap] + [interpret(a, n) for a, n in zip(g.args, supplies)]
                )
                game = dogame.do_low_function(cls, f, supplies)
                if isinstance(game, dogame.AtLeast):
                    if gate_value != TOP and gate_value < game.bound:
                        ok = False
                elif game != gate_value:
                    ok = False
                    print("  %s.%s%s: game %s gate %s" % (name, f, supplies, game, gate_value))
    report("C7 DO-game agreement", ok)


# --- criterion 8: scope note --------------------------------------------------


def test_c8_full_scale_note():
    print(
        "C8 note: decidability/optimality over all flat specifications is "
        "covered by the bounded oracle equivalences above, not exhaustively."
    )
    assert True
