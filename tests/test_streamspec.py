import random
import sys
import time
from typing import NamedTuple

import pytest

from prodcheck import streamspec
from prodcheck.streamspec import (
    App,
    Cons,
    DataSort,
    Diagnostic,
    DVar,
    ParseError,
    Rule,
    Signature,
    StreamSort,
    StreamSpec,
    SVar,
    SymbolInfo,
    _PUNCT,
    _TOKEN,
    _VALID,
    _tokenize,
    _constructors_of,
    _missing_vector,
    _peel_rhs,
    _positions,
    _Sorter,
    _wild,
    classify,
    feedback_order,
    parse,
    reachable,
    reaches_cycle,
    rule_shape,
    term_str,
    validate,
)

from conftest import DATA, load, spec_path
import specgen
from specgen import random_flat_spec


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


# --- the explicit-stack front end against the recursive one -----------------
#
# The per-line tokenizer, token cursor, signature parser, recursive term
# parser, sort resolver, `parse` and exhaustiveness search that the
# package's ones replaced, kept as the reference: every input must give the
# same tokens at the same positions, the same rules or the same first error,
# and every pattern table the same witness.  Only `_Sorter`, the sort
# unification, is shared with the package.


class RefTok(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_REF_PUNCT = {"(": "LP", ")": "RP", ",": "COMMA", ":": "COLON", "=": "EQ"}


def ref_lines(text):
    """The lines of `text`, each ended by "\\n", "\\r\\n" or "\\r"."""
    lines, start, i = [], 0, 0
    while i < len(text):
        if text[i] in "\r\n":
            lines.append(text[start:i])
            i += 2 if text.startswith("\r\n", i) else 1
            start = i
        else:
            i += 1
    if start < len(text):
        lines.append(text[start:])
    return lines


def ref_tokenize(text, filename):
    tokens = []
    for lineno, raw in enumerate(ref_lines(text), start=1):
        line = raw.split("--", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            if line.startswith("->", i):
                tokens.append(RefTok("ARROW", "->", lineno, i + 1))
                i += 2
                continue
            if ch in _REF_PUNCT:
                tokens.append(RefTok(_REF_PUNCT[ch], ch, lineno, i + 1))
                i += 1
                continue
            if ch.isalnum() or ch in "_'":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                    j += 1
                tokens.append(RefTok("IDENT", line[i:j], lineno, i + 1))
                i = j
                continue
            raise ParseError(Diagnostic("error", "unexpected character %r" % ch, lineno, i + 1, filename))
        tokens.append(RefTok("NL", "", lineno, len(line) + 1))
    return tokens


class RefParser:
    """A cursor over `RefTok`s; `failure` places an error at a token, or at the
    last one (the `NL` of the last line) at the end of input, or at 1:1."""

    def __init__(self, tokens, filename):
        self.toks = tokens
        self.i = 0
        self.filename = filename
        self.data_sorts = {}

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def at(self, kind):
        return self.peek() is not None and self.peek().kind == kind

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def failure(self, message, tok=None):
        tok = tok or self.peek() or (self.toks or [RefTok("NL", "", 1, 1)])[-1]
        return ParseError(Diagnostic("error", message, tok.line, tok.col, self.filename))

    def expect(self, kind, what):
        if not self.at(kind):
            raise self.failure("expected %s" % what)
        return self.next()

    def skip_newlines(self):
        while self.at("NL"):
            self.next()


def ref_parse_signature(p):
    def parse_sort():
        name = p.expect("IDENT", "a sort").value
        if name == "stream":
            p.expect("LP", "'('")
            param = p.expect("IDENT", "a sort name").value
            p.expect("RP", "')'")
            return StreamSort(param)
        return p.data_sorts.setdefault(name, DataSort(name))

    def parse_type():
        sorts = [parse_sort()]
        while p.at("ARROW"):
            p.next()
            p.skip_newlines()
            sorts.append(parse_sort())
        return sorts

    p.skip_newlines()
    if p.peek() is None:
        raise p.failure("no stream constant declared")
    if p.peek()[:2] != ("IDENT", "Signature"):
        raise p.failure("expected 'Signature('")
    p.next()
    p.expect("LP", "'('")
    symbols, order = {}, []
    while True:
        p.skip_newlines()
        if p.at("RP"):
            p.next()
            break
        names = [p.expect("IDENT", "a symbol name")]
        while p.at("COMMA"):
            save = p.i
            p.next()
            p.skip_newlines()
            after = p.toks[p.i + 1].kind if p.i + 1 < len(p.toks) else None
            if p.at("IDENT") and after in ("COLON", "COMMA"):
                names.append(p.next())
                continue
            p.i = save
            break
        p.expect("COLON", "':'")
        p.skip_newlines()
        sorts = parse_type()
        arg_sorts, result = tuple(sorts[:-1]), sorts[-1]
        for tok in names:
            if tok.value in symbols:
                raise p.failure("redeclaration of %r" % tok.value, tok)
            streams = [s for s in arg_sorts if isinstance(s, StreamSort)]
            if isinstance(result, StreamSort):
                if arg_sorts[: len(streams)] != tuple(streams):
                    raise p.failure("stream arguments of %r must precede data arguments" % tok.value, tok)
                kind = "func" if streams else "const"
            else:
                if streams:
                    raise p.failure("data symbol %r cannot take stream arguments" % tok.value, tok)
                kind = "data"
            symbols[tok.value] = SymbolInfo(tok.value, kind, arg_sorts, result)
            order.append(tok.value)
        p.skip_newlines()
        if p.at("COMMA"):
            p.next()
    return Signature(symbols, order, p.filename)


def ref_parse_term_tokens(p):
    def parse_app():
        tok = p.expect("IDENT", "a term")
        args = []
        if p.at("LP"):
            p.next()
            args.append(parse_term())
            while p.at("COMMA"):
                p.next()
                args.append(parse_term())
            p.expect("RP", "')'")
        return ("app", tok, tuple(args))

    def parse_term():
        head = parse_app()
        if p.at("COLON"):
            colon = p.next()
            tail = parse_term()
            return ("cons", colon, head, tail)
        return head

    return parse_term()


def subterms(t):
    """Every subterm of `t`, in preorder, left to right."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, Cons):
            todo += (t.tail, t.head)
        elif isinstance(t, App):
            todo.extend(reversed(t.args))


def term_vars(t):
    return (s for s in subterms(t) if isinstance(s, (SVar, DVar)))


def ref_resolve_term(raw, expected, sorter, varsorts):
    sig = sorter.sig
    if raw[0] == "cons":
        _, colon, head, tail = raw
        if not isinstance(expected, StreamSort):
            sorter.fail("':' builds a stream where a data term is expected", colon)
        h = ref_resolve_term(head, DataSort(expected.param), sorter, varsorts)
        t = ref_resolve_term(tail, expected, sorter, varsorts)
        return Cons(h, t)
    _, tok, args = raw
    name = tok.value
    if name in sig.symbols:
        info = sig.symbols[name]
        arg_sorts, result = sorter.instantiate(info)
        if info.kind == "const" and not args and info.data_arity > 0:
            sorter.fail("%r expects %d data arguments" % (name, info.data_arity), tok)
        if len(args) != len(arg_sorts):
            sorter.fail("%r expects %d arguments, got %d" % (name, len(arg_sorts), len(args)), tok)
        sorter.unify(result, expected, tok)
        return App(name, tuple(ref_resolve_term(a, s, sorter, varsorts) for a, s in zip(args, arg_sorts)))
    if args:
        sorter.fail("undeclared symbol %r applied to arguments" % name, tok)
    if name in varsorts:
        sorter.unify(varsorts[name], expected, tok)
    else:
        varsorts[name] = expected
    return SVar(name) if isinstance(expected, StreamSort) else DVar(name)


def ref_parse(text, filename="<input>"):
    p = RefParser(ref_tokenize(text, filename), filename)
    sig = ref_parse_signature(p)
    if not sig.stream_constants() and not sig.stream_functions():
        raise ParseError(Diagnostic("error", "no stream constant declared", 1, 1, filename))
    stream_rules, data_rules = [], []
    while True:
        p.skip_newlines()
        if p.peek() is None:
            break
        first = p.peek()
        lhs_raw = ref_parse_term_tokens(p)
        p.expect("EQ", "'='")
        rhs_raw = ref_parse_term_tokens(p)
        nl = p.peek()
        if nl is not None and nl.kind != "NL":
            raise p.failure("trailing tokens after rule")
        if lhs_raw[0] == "cons":
            raise ParseError(Diagnostic("error", "rule left-hand side cannot be a cons", first.line, first.col, filename))
        root = lhs_raw[1].value
        if root not in sig.symbols:
            raise ParseError(Diagnostic("error", "variable on left-hand side root", first.line, first.col, filename))
        info = sig.symbols[root]
        sorter = _Sorter(sig, p, sig.concrete_sorts())
        varsorts = {}
        lhs = ref_resolve_term(lhs_raw, info.result_sort, sorter, varsorts)
        rhs = ref_resolve_term(rhs_raw, info.result_sort, sorter, varsorts)
        lhs_vars = {v.name for v in term_vars(lhs)}
        for v in term_vars(rhs):
            if v.name not in lhs_vars:
                kind = "stream" if isinstance(v, SVar) else "data"
                raise ParseError(
                    Diagnostic("error", "unbound %s variable on rhs: %r" % (kind, v.name), first.line, first.col, filename)
                )
        rule = Rule(lhs, rhs, "data" if info.kind == "data" else "stream", first.line)
        (data_rules if info.kind == "data" else stream_rules).append(rule)
    by_root = {}
    for rule in stream_rules + data_rules:
        by_root.setdefault(rule.root, []).append(rule)
    return StreamSpec(sig, stream_rules, data_rules, by_root, filename)


def ref_missing_vector(rows, col_sorts, by_sort):
    if not rows:
        return [_wild(s) for s in col_sorts]
    if not col_sorts:
        return None
    sort = col_sorts[0]
    if all(isinstance(r[0], (SVar, DVar)) for r in rows):
        rest = ref_missing_vector([r[1:] for r in rows], col_sorts[1:], by_sort)
        return None if rest is None else [_wild(sort)] + rest
    if isinstance(sort, StreamSort):
        sub_rows = [
            ([DVar("_"), SVar("_")] if isinstance(r[0], SVar) else [r[0].head, r[0].tail]) + list(r[1:])
            for r in rows
        ]
        sub = ref_missing_vector(sub_rows, [DataSort(sort.param), sort] + list(col_sorts[1:]), by_sort)
        return None if sub is None else [Cons(sub[0], sub[1])] + sub[2:]
    for info in by_sort.get(sort.name, []):
        sub_rows = []
        for r in rows:
            if isinstance(r[0], DVar):
                sub_rows.append([DVar("_")] * len(info.arg_sorts) + list(r[1:]))
            elif isinstance(r[0], App) and r[0].sym == info.name:
                sub_rows.append(list(r[0].args) + list(r[1:]))
        sub = ref_missing_vector(sub_rows, list(info.arg_sorts) + list(col_sorts[1:]), by_sort)
        if sub is not None:
            k = len(info.arg_sorts)
            return [App(info.name, tuple(sub[:k]))] + sub[k:]
    return None


_MUTATION_CHARS = "():,=x0s-\t é'_>"


def _mutate(rng, text):
    """One or two seeded edits: a line deleted, duplicated or swapped, or a
    character inserted or deleted."""
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            c = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:c] + rng.choice(_MUTATION_CHARS) + lines[i][c:]
        elif lines[i]:
            c = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:c] + lines[i][c + 1 :]
    return "\n".join(lines) + "\n"


# Errors that neither the corpus nor its mutations reach, with the position
# and message each one reports.
FRONT_END_ERRORS = [
    (
        "Signature(\n  f : nat -> stream(nat) -> stream(nat),\n  P : stream(nat),\n  0 : nat\n)\nP = 0:P\n",
        "2:3: error: stream arguments of 'f' must precede data arguments",
    ),
    (
        "Signature(\n  P : nat -> stream(nat),\n  0 : nat\n)\nP(x) = 0:P\n",
        "5:10: error: 'P' expects 1 data arguments",
    ),
    (
        "Signature(\n  P : stream(nat),\n  s : nat -> nat,\n  0 : nat\n)\nP = s(0:P):P\n",
        "6:8: error: ':' builds a stream where a data term is expected",
    ),
]

# Inputs that end early: the error is at the last line's end, or at 1:1.
END_OF_INPUT_ERRORS = [
    ("Signature(\n  P : stream(nat),\n  0 : nat\n", "3:10: error: expected a symbol name"),
    ("-- a comment\n-- and another\n", "2:1: error: no stream constant declared"),
    ("", "1:1: error: no stream constant declared"),
]


def _front_end_inputs():
    texts = [path.read_text() for path in sorted(DATA.glob("*.spec"))]
    inputs = list(texts)
    inputs += [text for text, _ in FRONT_END_ERRORS + END_OF_INPUT_ERRORS]
    inputs += [random_flat_spec(random.Random(seed), max_feedback=2) for seed in range(200)]
    rng = random.Random(909)
    mutated = [_mutate(rng, rng.choice(texts)) for _ in range(5000)]
    inputs += mutated
    # every tenth mutated text again with "\r\n" and with "\r" line ends
    inputs += [text.replace("\n", end) for end in ("\r\n", "\r") for text in mutated[::10]]
    return inputs


def _shares_instance(a, b):
    """Whether two patterns, `_` read as any value, match a common value."""
    if isinstance(a, (SVar, DVar)) or isinstance(b, (SVar, DVar)):
        return True
    if isinstance(a, Cons) and isinstance(b, Cons):
        return _shares_instance(a.head, b.head) and _shares_instance(a.tail, b.tail)
    return isinstance(a, App) and isinstance(b, App) and a.sym == b.sym and all(map(_shares_instance, a.args, b.args))


def test_front_end_matches_recursive_reference():
    """Same signature order and rules (terms, layer, line), or the same first
    error; on every table of patterns, a witness exactly when the reference
    finds one, and one that no row matches any value of."""
    parsed = errors = 0
    for text in _front_end_inputs():
        try:
            want = ref_parse(text, "m.spec")
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse(text, "m.spec")
            assert str(err.value) == str(exc), text
            errors += 1
            continue
        spec = parse(text, "m.spec")
        assert spec.signature.order == want.signature.order, text
        assert spec.stream_rules == want.stream_rules, text
        assert spec.data_rules == want.data_rules, text
        assert spec.by_root == want.by_root, text
        parsed += 1
        sig = spec.signature
        by_sort = _constructors_of(spec)
        for name in sig.stream_functions():
            table = [list(r.lhs.args) for r in spec.rules_of(name)]
            # the reference fails on a defined stream symbol in a pattern
            if table and not any(
                isinstance(t, App) and sig.symbols[t.sym].kind != "data"
                for row in table
                for p in row
                for t in subterms(p)
            ):
                sorts = list(sig.symbols[name].arg_sorts)
                witness = _missing_vector(table, sorts, by_sort)
                assert (witness is None) == (ref_missing_vector(table, sorts, by_sort) is None), text
                assert witness is None or not any(all(map(_shares_instance, row, witness)) for row in table), text
    assert parsed > 1000 and errors > 1000, (parsed, errors)


def located_tokens(text):
    """Each token of `text` with its line and column, as `_positions` finds
    them."""
    return [(tok, *where) for tok, where in zip(_tokenize(text, "m.spec"), _positions(text), strict=True)]


def ref_located_tokens(text):
    """The reference tokens in the same form, "\\n" for the `NL` token."""
    tokens = [(tok.kind, tok.value or "\n", tok.line, tok.col) for tok in ref_tokenize(text, "m.spec")]
    assert all((kind == "IDENT") == (value not in _PUNCT) for kind, value, _, _ in tokens)
    return [tok[1:] for tok in tokens]


def test_tokens_match_reference_tokenizer():
    """Token by token, value, line and column, or the same first error, on
    all three line ends: a column that drifts shows here even where no
    diagnostic prints it."""
    line_ends = set()
    for text in _front_end_inputs():
        try:
            want = ref_located_tokens(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                _tokenize(text, "m.spec")
            assert str(err.value) == str(exc), text
            continue
        assert located_tokens(text) == want, text
        line_ends.add("\r\n" if "\r\n" in text else "\r" if "\r" in text else "\n")
    assert line_ends == {"\r\n", "\r", "\n"}


def test_trailing_whitespace_tokenizes_in_linear_time():
    """A token pattern that starts with `\\s*` matches a run of trailing
    whitespace from each of its positions and then fails: quadratic, about
    26 s for 20,000 trailing blanks on a 2 vCPU VM.  The tokenizer's
    patterns take a blank once."""
    text = "Signature( P : stream(nat), 0 : nat )" + " \t" * 10000 + "\nP = 0:P" + " " * 20000 + "-- x\n"
    start = time.perf_counter()
    _tokenize(text, "m.spec")
    assert time.perf_counter() - start < 2.0
    assert located_tokens(text) == ref_located_tokens(text)
    assert len(parse(text).stream_rules) == 1


def test_token_classes_match_str_predicates():
    """On every code point, the token pattern takes `str.isalnum()` plus
    `_'` into identifiers, skips the blanks, `str.isspace()` but "\\n",
    and takes each other character alone; the validity pattern accepts
    exactly the blanks, "\\n", identifier characters and `(),:=`."""
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        valid = _VALID.match(ch).end() == 1
        tokens = _TOKEN.findall("a" + ch)
        if ch.isspace() and ch != "\n":
            assert valid and tokens == ["a"], hex(cp)
        elif ch.isalnum() or ch in "_'":
            assert valid and tokens == ["a" + ch], hex(cp)
        else:
            assert valid == (ch in "(),:=\n") and tokens == ["a", ch], hex(cp)


def test_positions_only_on_demand(monkeypatch):
    """Parsing finds no token's line and column unless a diagnostic needs
    them: with the lookup made to fail, every spec of tests/data, a
    128-function chain and a 2,000-element prefix parse, and an input with
    one error looks up positions once."""

    def refuse(text):
        raise AssertionError("a position was looked up")

    monkeypatch.setattr(streamspec, "_positions", refuse)
    texts = [path.read_text() for path in sorted(DATA.glob("*.spec"))]
    for text in texts + [specgen.chain(128), specgen.prefix(2000)]:
        parse(text)
    monkeypatch.undo()

    lookups = []
    positions = streamspec._positions

    def counted(text):
        lookups.append(text)
        return positions(text)

    monkeypatch.setattr(streamspec, "_positions", counted)
    bad = [
        (specgen.prefix(2000).replace(" -> ", " -> ?"), "3:22: error: unexpected character '?'"),
        (specgen.chain(128).replace("x:f127", "x f127"), "133:15: error: trailing tokens after rule"),
        (specgen.chain(128).replace("f127(x:s)", "f127(x:x)"), "134:8: error: sort clash: data term where stream expected"),
    ]
    for text, message in bad + FRONT_END_ERRORS + END_OF_INPUT_ERRORS[:2]:
        lookups.clear()
        with pytest.raises(ParseError) as err:
            parse(text, "m.spec")
        assert str(err.value) == "m.spec:" + message
        assert len(lookups) == 1, text


def test_concrete_sorts_computed_once_per_parse(monkeypatch):
    """The set of concrete sorts walks the whole signature: once per parse,
    not once per rule, keeps parsing linear in the number of functions."""
    calls = []
    concrete_sorts = Signature.concrete_sorts

    def counted(sig):
        calls.append(sig)
        return concrete_sorts(sig)

    monkeypatch.setattr(Signature, "concrete_sorts", counted)
    spec = parse(specgen.chain(128))
    assert len(spec.stream_rules) == 129
    assert len(calls) == 1


def ref_term_str(t):
    """The recursive printer that `term_str` replaced."""
    heads = []
    while isinstance(t, Cons):
        heads.append(ref_app_str(t.head))
        t = t.tail
    heads.append(ref_app_str(t))
    return ":".join(heads)


def ref_app_str(t):
    if isinstance(t, (SVar, DVar)):
        return t.name
    if isinstance(t, App):
        if not t.args:
            return t.sym
        return "%s(%s)" % (t.sym, ",".join(ref_term_str(a) for a in t.args))
    return "(%s)" % ref_term_str(t)


def _random_term(rng, budget):
    """A random term of about `budget` nodes; a cons may be the head of a
    cons, which prints in parentheses."""
    if budget <= 1:
        return rng.choice([SVar("s"), DVar("x"), App("0", ()), App("P", ())])
    pick = rng.random()
    if pick < 0.5:
        left = rng.randrange(1, budget)
        return Cons(_random_term(rng, left), _random_term(rng, budget - left))
    n = rng.randrange(1, 4)
    return App(rng.choice(["f", "g"]), tuple(_random_term(rng, max(1, (budget - 1) // n)) for _ in range(n)))


def test_term_str_matches_recursive_reference():
    """Every rule of the tests/data specs and of random flat specs, and
    random terms with cons heads, print as the recursive printer prints."""
    terms = []
    for text in [path.read_text() for path in sorted(DATA.glob("*.spec"))] + [
        random_flat_spec(random.Random(seed), max_feedback=2) for seed in range(200)
    ]:
        spec = parse(text)
        terms += [t for r in spec.stream_rules + spec.data_rules for t in (r.lhs, r.rhs)]
    rng = random.Random(10)
    terms += [_random_term(rng, rng.randrange(1, 30)) for _ in range(2000)]
    assert sum(isinstance(t, Cons) and isinstance(t.head, Cons) for t in terms) > 100
    for t in terms:
        assert term_str(t) == ref_term_str(t)


def test_reachable_yields_each_node_once_as_found():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 9)
        edges = {v: [w for w in range(n) if rng.random() < 0.3] for v in range(n)}
        starts = [rng.randrange(n) for _ in range(rng.randrange(1, 3))]
        found = list(reachable(starts, edges.__getitem__))
        want, todo = set(starts), list(starts)
        while todo:
            for w in edges[todo.pop()]:
                if w not in want:
                    want.add(w)
                    todo.append(w)
        assert len(found) == len(set(found)) and set(found) == want
    # a caller that stops at the first node asks for no successor
    asked = []
    walk = reachable([0], lambda v: asked.append(v) or [v + 1])
    assert (next(walk), asked) == (0, [])


def test_deep_terms_parse_without_recursion():
    m = 20000
    spec = parse("Signature( P : stream(nat), 0 : nat )\nP = " + "0:" * m + "P\n")
    (rule,) = spec.stream_rules
    assert _peel_rhs(rule.rhs) == (m, App("P", ()))
    assert str(rule) == "P = " + "0:" * m + "P"
    spec = parse("Signature( P : stream(nat), s : nat -> nat, 0 : nat )\nP = " + "s(" * m + "0" + ")" * m + ":P\n")
    t, depth = spec.stream_rules[0].rhs.head, 0
    while t.args:
        (t,) = t.args
        depth += 1
    assert (depth, t) == (m, App("0", ()))


def test_deep_stream_terms_compare_hash_and_repr():
    """`==`, `hash` and `repr` of 20,000-deep stream terms, a cons chain and
    a nest of applications, and the hash of a rule holding them, walk an
    explicit stack."""
    m = 20000
    text = "Signature( P : stream(nat), s : nat -> nat, 0 : nat )\nP = %s0%s:%sP\n" % ("s(" * m, ")" * m, "0:" * m)
    (a,), (b,) = parse(text).stream_rules, parse(text).stream_rules
    assert a.rhs == b.rhs and a.rhs is not b.rhs and hash(a.rhs) == hash(b.rhs)
    assert a == b and hash(a) == hash(b)
    assert a.rhs.head != b.rhs.head.args[0] and a.rhs != a.rhs.tail and a.rhs != "P"
    assert len({a.rhs, b.rhs, a.rhs.tail}) == 2
    assert repr(a.rhs) == term_str(a.rhs) == "%s0%s:%sP" % ("s(" * m, ")" * m, "0:" * m)
    assert repr(Cons(DVar("x"), SVar("s"))) == "x:s" and Cons(DVar("x"), SVar("s")) != Cons(SVar("x"), SVar("s"))


def test_wide_patterns_validate():
    """Exhaustiveness, overlap and the witness of a pattern 2,000 elements
    wide, without recursion per element."""
    w = 2000
    xs = ["x%d" % i for i in range(w - 1)]
    head = "Signature( C : stream(bit), f : stream(bit) -> stream(bit), 0, 1 : bit )\nC = 0:f(C)\n"
    wide = "f(%s:s) = %s:f(s)\n" % (":".join(xs + ["x"]), ":".join(xs))
    assert validate(parse(head + wide)) == []
    split = ["f(%s:%s:s) = %s:f(s)\n" % (":".join(xs), d, ":".join(xs)) for d in "01"]
    assert validate(parse(head + "".join(split))) == []
    (warning,) = validate(parse(head + split[0]))
    assert warning.message == "non-exhaustive patterns for 'f': no rule matches f(%s1:_)" % ("_:" * (w - 1))
    errors = [d.message for d in validate(parse(head + split[0] + split[0])) if d.severity == "error"]
    assert errors == ["overlapping rules for 'f' (lines 3 and 4)"]


def _pattern_table(k, cell):
    """A spec whose function f has k rules over k-element patterns, rule i
    with `cell(i, j)` in column j."""
    head = "Signature( C : stream(bit), f : stream(bit) -> stream(bit), 0, 1 : bit )\nC = 0:f(C)\n"
    rows = [":".join(cell(i, j) or "x%d" % j for j in range(k)) for i in range(k)]
    return parse(head + "".join("f(%s:s) = 0:f(s)\n" % row for row in rows))


def test_pattern_table_families():
    """Two 64-rule tables that a split per constructor takes exponential
    time on: a disjoint decision list (rule i: column 63-i is 0, the columns
    after it 1) and an overlapping list (rule i: column i is 0), the other
    columns variables.  Each validates at once, with its exact
    diagnostics.  With one rule all variables, a catch-all row first or
    last in the decision list or amid the overlapping list, no vector is
    missing, and each rule overlaps the catch-all as before."""
    k = 64
    missing = [("warning", "non-exhaustive patterns for 'f': no rule matches f(%s_)" % ("1:" * k))]
    every_pair = [(a, b) for a in range(3, k + 3) for b in range(a + 1, k + 3)]  # rules start on line 3
    assert len(every_pair) == 2016

    def decision(i, j):
        return "0" if j == k - 1 - i else "1" if j > k - 1 - i else None

    def overlapping(i, j):
        return "0" if j == i else None

    families = [
        (decision, [], missing),
        (overlapping, every_pair, missing),
        (lambda i, j: i and decision(i, j), [(3, b) for b in range(4, k + 3)], []),
        (lambda i, j: i < k - 1 and decision(i, j), [(a, k + 2) for a in range(3, k + 2)], []),
        (lambda i, j: i != k // 2 and overlapping(i, j), every_pair, []),
    ]
    for cell, overlaps, warnings in families:
        spec = _pattern_table(k, cell)
        start = time.perf_counter()
        diags = validate(spec)
        assert time.perf_counter() - start < 0.5
        assert [(d.severity, d.message) for d in diags] == [
            ("error", "overlapping rules for 'f' (lines %d and %d)" % pair) for pair in overlaps
        ] + warnings


def test_deep_pattern_witness():
    """A pattern nested deeper than the interpreter's recursion limit.  The
    one rule takes c^3000(z), and z is a constructor it leaves out at the
    top, so the witness is z itself.  Where every level names its sort's
    only constructor, the witness is as deep as the pattern."""
    d = 3000
    head = "Signature( P : stream(t), f : stream(t) -> stream(t), c : t -> t, z : t )\nP = z:f(P)\n"
    rule = "f(%sz%s:xs) = z:f(xs)\n" % ("c(" * d, ")" * d)
    assert d > sys.getrecursionlimit()
    (warning,) = validate(parse(head + rule))
    assert warning.message == "non-exhaustive patterns for 'f': no rule matches f(z:_)"
    head = "Signature( P : stream(b), f : stream(b) -> t -> stream(b), c : b -> t -> t, 0, 1 : b )\nP = 0:P\n"
    rule = "f(s, %sc(0, y)%s) = s\n" % ("".join("c(x%d, " % i for i in range(d)), ")" * d)
    (warning,) = validate(parse(head + rule))
    shown = "%sc(1,_)%s" % ("c(_," * d, ")" * d)
    assert warning.message == "non-exhaustive patterns for 'f': no rule matches f(_,%s)" % shown


def test_validate_defined_stream_symbol_in_pattern():
    """A stream constant where a pattern needs a cons matches no stream: an
    error of its own, and a gap in the exhaustiveness check."""
    text = """Signature( P : stream(nat), f : stream(nat) -> stream(nat), 0 : nat )
    P = 0:f(P)
    f(x:P) = P
    """
    diags = [(d.severity, d.message) for d in validate(parse(text))]
    assert diags == [
        ("error", "defined symbol 'P' in a pattern of 'f'"),
        ("warning", "non-exhaustive patterns for 'f': no rule matches f(_:_:_)"),
    ]


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
    # one constructor short of a catch-all row: the walk runs and names the gap
    bit = "Signature( P : stream(bit), f : stream(bit) -> stream(bit), 0, 1 : bit )\nP = 0:f(P)\n"
    nat = "Signature( P : stream(nat), f : stream(nat) -> stream(nat), s : nat -> nat, 0 : nat )\nP = 0:f(P)\n"
    for head, rule, gap in [
        (bit, "f(0:s) = 0:f(s)", "f(1:_)"),
        (bit, "f(x:0:s) = x:f(s)", "f(_:1:_)"),
        (nat, "f(s(x):t) = x:f(t)", "f(0:_)"),
    ]:
        diags = [(d.severity, d.message) for d in validate(parse(head + rule + "\n"))]
        assert diags == [("warning", "non-exhaustive patterns for 'f': no rule matches %s" % gap)], rule


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
    # a repeated variable is reported first, though the walk meets it last
    errors = [d.message for d in validate(parse(text.replace("f(b(a(x)):s)", "f(b(x):a(y):y:s)"))) if d.severity == "error"]
    assert errors == [
        "non-left-linear rule for 'f': repeated 'y'",
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
    src = spec_path("do_m").read_text()
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


def test_feedback_order_on_random_graphs():
    """Removing F leaves the reachable graph acyclic, every node of F lies on
    a cycle, and the order lists each reachable node once, after each of its
    successors outside F; a second call gives the same result."""
    rng = random.Random(2009)
    sizes = set()
    for _ in range(400):
        n = rng.randrange(1, 9)
        targets = list(range(n + rng.randrange(0, 3)))  # some have no entry
        edges = {v: [w for w in targets if rng.random() < 0.25] for v in range(n)}
        roots = rng.sample(range(n), rng.randrange(1, n + 1))

        def successors(v):
            return edges.get(v, ())

        feedback, order = feedback_order(roots, successors)
        assert feedback_order(roots, successors) == (feedback, order)
        assert sorted(order) == sorted(reachable(roots, successors)), edges
        position = {v: i for i, v in enumerate(order)}
        for v in order:
            assert all(position[w] < position[v] for w in successors(v) if w not in feedback), edges
        def rest(v):
            return [w for w in successors(v) if w not in feedback]

        for v in order:
            if v not in feedback:
                assert v not in set(reachable(rest(v), rest)), edges
        for v in feedback:
            assert v in set(reachable(successors(v), successors)), edges
        sizes.add(len(feedback))
    assert 0 in sizes and len(sizes) > 3


def test_feedback_order_does_not_recurse():
    """A path of 20,000 nodes closed into a cycle: far deeper than the
    interpreter's recursion limit, so the walk keeps its own stack."""
    n = 20000
    feedback, order = feedback_order([0], lambda v: ((v + 1) % n,))
    assert feedback == {0}
    assert order == list(range(n - 1, -1, -1))
