import random

import pytest

from prodcheck.streamspec import (
    App,
    Cons,
    ParseError,
    SVar,
    classify,
    parse,
    reaches_cycle,
    rule_shape,
    validate,
)

from conftest import load


def render_spec(spec):
    """Print a spec back in the input syntax."""
    sig = spec.signature
    decls = []
    for name in sig.order:
        info = sig.symbols[name]
        sorts = list(info.arg_sorts) + [info.result_sort]
        decls.append("  %s : %s" % (name, " -> ".join(str(s) for s in sorts)))
    lines = ["Signature("] + [d + ("," if i < len(decls) - 1 else "") for i, d in enumerate(decls)] + [")"]
    for r in spec.stream_rules + spec.data_rules:
        lines.append(str(r))
    return "\n".join(lines) + "\n"


# --- parsing ----------------------------------------------------------------


def test_parse_pascal_counts(corpus):
    spec = corpus["pascal"]
    assert len([r for r in spec.stream_rules if r.root == "P"]) == 1
    assert len([r for r in spec.stream_rules if r.root == "f"]) == 2
    assert len([r for r in spec.data_rules if r.root == "a"]) == 2
    sig = spec.signature
    assert sig.symbols["P"].kind == "const"
    assert sig.symbols["f"].stream_arity == 1
    assert sig.symbols["a"].kind == "data"


def test_parse_name_lists(corpus):
    sig = corpus["ternary_morse_pure"].signature
    assert sig.symbols["0"].kind == "data"
    assert sig.symbols["1"].kind == "data"
    assert {n for n in sig.order if sig.symbols[n].kind == "const"} == {"Q", "M"}
    assert sig.symbols["zip"].stream_arity == 2


def test_parse_data_argument(corpus):
    times = corpus["convolution"].signature.symbols["times"]
    assert times.stream_arity == 1 and times.data_arity == 1


def test_parse_unbound_rhs_variable():
    text = """Signature(
      P : stream(nat),
      0 : nat
    )
    P = x
    """
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "unbound stream variable" in str(err.value)


def test_parse_unbound_names_leftmost():
    text = """Signature(
      P : stream(nat),
      f : stream(nat) -> stream(nat) -> stream(nat),
      0 : nat
    )
    P = f(y:t,u)
    """
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "unbound data variable on rhs: 'y'" in str(err.value)


def test_parse_comments_only():
    with pytest.raises(ParseError) as err:
        parse("-- nothing here\n-- still nothing\n")
    assert str(err.value).count(":") >= 2


def test_parse_no_stream_symbols():
    with pytest.raises(ParseError) as err:
        parse("Signature( 0 : nat )\n")
    assert "no stream constant" in str(err.value)


def test_parse_redeclaration():
    with pytest.raises(ParseError) as err:
        parse("Signature( P : stream(nat), P : nat )\n")
    assert "redeclaration" in str(err.value)


def test_parse_sort_clash():
    text = """Signature(
      P : stream(nat),
      Q : stream(bit),
      0 : nat,
      1 : bit
    )
    P = 1:P
    """
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "sort clash" in str(err.value)


def test_parse_variable_lhs_root():
    text = "Signature( P : stream(nat), 0 : nat )\nx = P\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "left-hand side" in str(err.value)


def test_roundtrip_through_printer(corpus):
    for name, spec in corpus.items():
        again = parse(render_spec(spec), name)
        assert render_spec(again) == render_spec(spec)
        assert [str(r) for r in again.stream_rules] == [str(r) for r in spec.stream_rules]


# --- validation -------------------------------------------------------------


def test_validate_corpus_clean(corpus):
    for name, spec in corpus.items():
        errors = [d for d in validate(spec) if d.severity == "error"]
        assert errors == [], (name, [str(d) for d in errors])


def test_validate_non_exhaustive():
    text = """Signature(
      P : stream(bit),
      f : stream(bit) -> stream(bit),
      0, 1 : bit
    )
    P = 0:f(P)
    f(0:s) = 0:f(s)
    """
    spec = parse(text)
    warnings = [d for d in validate(spec) if d.severity == "warning"]
    assert len(warnings) == 1
    assert "non-exhaustive" in warnings[0].message
    assert "f(1:" in warnings[0].message


def test_validate_duplicate_rule():
    text = """Signature(
      P : stream(bit),
      f : stream(bit) -> stream(bit),
      0, 1 : bit
    )
    P = 0:f(P)
    f(x:s) = s
    f(x:s) = s
    """
    spec = parse(text)
    errors = [d for d in validate(spec) if d.severity == "error"]
    assert errors and "overlapping" in errors[0].message


def test_validate_left_linearity():
    text = """Signature(
      P : stream(bit),
      g : stream(bit) -> stream(bit) -> stream(bit),
      0, 1 : bit
    )
    P = 0:g(P,P)
    g(x:s,x:t) = x:g(s,t)
    """
    spec = parse(text)
    errors = [d for d in validate(spec) if d.severity == "error"]
    assert errors and "non-left-linear" in errors[0].message


def test_validate_defined_symbols_in_pattern_preorder():
    text = """Signature(
      P : stream(bit),
      f : stream(bit) -> stream(bit),
      a, b : bit -> bit,
      0, 1 : bit
    )
    P = 0:f(P)
    f(b(a(x)):s) = x:f(s)
    a(x) = x
    b(x) = x
    """
    errors = [d.message for d in validate(parse(text)) if d.severity == "error"]
    assert errors == [
        "defined symbol 'b' in a pattern of 'f'",
        "defined symbol 'a' in a pattern of 'f'",
    ]


def test_validate_missing_rules():
    text = """Signature(
      P : stream(bit),
      f : stream(bit) -> stream(bit),
      0, 1 : bit
    )
    P = 0:f(P)
    """
    spec = parse(text)
    errors = [d for d in validate(spec) if d.severity == "error"]
    assert errors and "no defining rule" in errors[0].message


def test_validate_data_termination_note(corpus):
    notes = [d for d in validate(corpus["pascal"]) if d.severity == "note"]
    assert any("data layer" in d.message for d in notes)


# --- classification ---------------------------------------------------------


def test_classify_pascal(corpus):
    cls = classify(corpus["pascal"])
    assert cls.symbol_class["f"] == "flat"  # two rules with different shapes
    assert cls.guarded["f"] and cls.guarded["P"]


def test_classify_pure_symbols(corpus):
    cls = classify(corpus["ternary_morse_pure"])
    assert {f: cls.symbol_class[f] for f in ("zip", "inv", "tail", "diff")} == {
        "zip": "pure",
        "inv": "pure",
        "tail": "pure",
        "diff": "pure",
    }


def test_classify_friendly_nesting(corpus):
    cls = classify(corpus["convolution"])
    assert cls.symbol_class["conv"] == "friendly"
    assert cls.symbol_class["add"] == "pure"


def test_classify_unfriendly():
    # the nested call is guarded by fewer elements than the rule consumes
    text = """Signature(
      f : stream(bit) -> stream(bit),
      g : stream(bit) -> stream(bit),
      0, 1 : bit
    )
    f(x:y:s) = x:g(f(s))
    g(x:s) = x:g(s)
    """
    cls = classify(parse(text))
    assert cls.symbol_class["f"] == "unfriendly"


def test_classify_unguarded(corpus):
    cls = classify(corpus["intro_b"])
    assert not cls.guarded["g"]
    assert cls.guarded["B"]


def test_guardedness_against_path_enumeration():
    # brute force: a symbol is unguarded iff some zero-production path from it
    # can be extended forever (pumping over at most |symbols| steps)
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(1, 7)
        names = ["f%d" % i for i in range(n)]
        edges = {a: set() for a in names}
        for a in names:
            for b in names:
                if rng.random() < 0.25:
                    edges[a].add(b)

        def long_path_exists(start):
            frontier = {start}
            for _ in range(n + 1):
                frontier = {b for a in frontier for b in edges[a]}
                if not frontier:
                    return False
            return True

        lines = ["Signature("]
        lines.append(", ".join("%s : stream(bit) -> stream(bit)" % a for a in names))
        lines.append(", 0, 1 : bit)")
        rules = []
        for a in names:
            for b in sorted(edges[a]):
                rules.append("%s(x:s) = %s(s)" % (a, b))
            if not edges[a]:
                rules.append("%s(x:s) = x:%s(s)" % (a, a))
        spec = parse("\n".join(["".join(lines)] + rules))
        cls = classify(spec)
        for a in names:
            if edges[a]:  # rules overlap when both kinds exist; only check edges
                assert cls.guarded[a] == (not long_path_exists(a))


def test_classification_data_renaming_invariant(corpus):
    src = open(str(__import__("conftest").spec_path("do_m"))).read()
    renamed = src.replace("0", "zero").replace("1", "one")
    a, b = parse(src), parse(renamed)
    ca, cb = classify(a), classify(b)
    assert ca.symbol_class == cb.symbol_class
    assert ca.guarded == cb.guarded


def test_rule_shapes_pascal(corpus):
    spec = corpus["pascal"]
    shapes = classify(spec).shapes["f"]
    assert [(s.consume, s.produce, s.callee, s.feedback) for s in shapes] == [
        ((2,), 1, "f", (1,)),
        ((1,), 2, "f", (0,)),
    ]


def test_rule_shape_duplication(corpus):
    (shape,) = classify(corpus["traces"]).shapes["f"]
    assert shape.perm == (1, 1) and shape.consume == (0,) and shape.produce == 0


def test_reaches_cycle_against_brute_force():
    rng = random.Random(2008)
    sizes = set()
    for _ in range(300):
        n = rng.randrange(0, 8)
        targets = list(range(n + rng.randrange(0, 3)))  # some have no entry
        edges = {v: {w for w in targets if rng.random() < 0.2} for v in range(n)}

        def reach(v):
            seen, todo = set(), list(edges.get(v, ()))
            while todo:
                w = todo.pop()
                if w not in seen:
                    seen.add(w)
                    todo.extend(edges.get(w, ()))
            return seen

        on_cycle = {v for v in edges if v in reach(v)}
        want = {v for v in edges if v in on_cycle or reach(v) & on_cycle}
        assert reaches_cycle(edges) == want, edges
        sizes.add(len(want))
    assert 0 in sizes and len(sizes) > 3
