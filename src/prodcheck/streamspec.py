"""Parsing, validation and classification of stream specifications.

Input files declare a two-layer signature, then one rewrite rule per line:

    Signature(
      P : stream(nat),            -- stream constant
      f : stream(nat) -> stream(nat),
      0 : nat, s : nat -> nat     -- data symbols
    )
    P = 0:s(0):f(P)
    f(s(x):y:sigma) = a(s(x),y):f(y:sigma)

`--` starts a line comment, `:` is the right-associative stream cons and
binds looser than application, and any identifier not declared in the
signature is a variable whose sort is inferred from its position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "note"
    message: str
    line: int = 0
    col: int = 0
    filename: str = "<input>"

    def __str__(self):
        return "%s:%d:%d: %s: %s" % (self.filename, self.line, self.col, self.severity, self.message)


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# tokens

_PUNCT = {"(": "LP", ")": "RP", ",": "COMMA", ":": "COLON", "=": "EQ"}


@dataclass(frozen=True)
class Tok:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str, filename: str):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("--", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            if line.startswith("->", i):
                tokens.append(Tok("ARROW", "->", lineno, i + 1))
                i += 2
                continue
            if ch in _PUNCT:
                tokens.append(Tok(_PUNCT[ch], ch, lineno, i + 1))
                i += 1
                continue
            if ch.isalnum() or ch in "_'":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                    j += 1
                tokens.append(Tok("IDENT", line[i:j], lineno, i + 1))
                i = j
                continue
            raise ParseError(Diagnostic("error", "unexpected character %r" % ch, lineno, i + 1, filename))
        tokens.append(Tok("NL", "", lineno, len(line) + 1))
    return tokens


# ---------------------------------------------------------------------------
# signature


@dataclass(frozen=True)
class StreamSort:
    param: str

    def __str__(self):
        return "stream(%s)" % self.param


@dataclass(frozen=True)
class DataSort:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class SymbolInfo:
    name: str
    kind: str  # "const" | "func" | "data"
    arg_sorts: tuple
    result_sort: object

    @property
    def stream_arity(self) -> int:
        return sum(1 for s in self.arg_sorts if isinstance(s, StreamSort))

    @property
    def data_arity(self) -> int:
        return sum(1 for s in self.arg_sorts if isinstance(s, DataSort))


@dataclass
class Signature:
    symbols: dict  # name -> SymbolInfo
    order: list  # declaration order
    filename: str = "<input>"

    def stream_constants(self):
        return [n for n in self.order if self.symbols[n].kind == "const"]

    def stream_functions(self):
        return [n for n in self.order if self.symbols[n].kind == "func"]

    def data_symbols(self):
        return [n for n in self.order if self.symbols[n].kind == "data"]

    def concrete_sorts(self):
        """Data sort names pinned down by some data symbol's result sort."""
        return {
            self.symbols[n].result_sort.name
            for n in self.data_symbols()
        }


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class SVar:
    name: str


@dataclass(frozen=True)
class DVar:
    name: str


@dataclass(frozen=True)
class Cons:
    head: object  # data term
    tail: object  # stream term


@dataclass(frozen=True)
class App:
    sym: str
    args: tuple


Term = SVar | DVar | Cons | App


def term_str(t: Term) -> str:
    if isinstance(t, (SVar, DVar)):
        return t.name
    if isinstance(t, Cons):
        return "%s:%s" % (_app_str(t.head), term_str(t.tail))
    return _app_str(t)


def _app_str(t: Term) -> str:
    if isinstance(t, (SVar, DVar)):
        return t.name
    if isinstance(t, App):
        if not t.args:
            return t.sym
        return "%s(%s)" % (t.sym, ",".join(term_str(a) for a in t.args))
    return "(%s)" % term_str(t)


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    layer: str  # "stream" | "data"
    line: int

    @property
    def root(self) -> str:
        return self.lhs.sym

    def __str__(self):
        return "%s = %s" % (term_str(self.lhs), term_str(self.rhs))


@dataclass
class StreamSpec:
    signature: Signature
    stream_rules: list
    data_rules: list
    filename: str = "<input>"
    # rules per root symbol, indexed on first use; the rules must not change
    # once it is there
    by_root: dict = field(default=None, compare=False, repr=False)

    def rules_of(self, symbol: str):
        if self.by_root is None:
            self.by_root = {}
            for r in self.stream_rules + self.data_rules:
                self.by_root.setdefault(r.root, []).append(r)
        return self.by_root.get(symbol, [])


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens, filename):
        self.toks = tokens
        self.i = 0
        self.filename = filename

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek() or Tok("EOF", "", 0, 0)
        raise ParseError(Diagnostic("error", message, tok.line, tok.col, self.filename))

    def expect(self, kind, what):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.fail("expected %s" % what, tok)
        return self.next()

    def skip_newlines(self):
        while self.peek() is not None and self.peek().kind == "NL":
            self.next()


def _parse_sort(p: _Parser):
    tok = p.expect("IDENT", "a sort")
    if tok.value == "stream":
        p.expect("LP", "'('")
        param = p.expect("IDENT", "a sort name")
        p.expect("RP", "')'")
        return StreamSort(param.value)
    return DataSort(tok.value)


def _parse_type(p: _Parser):
    sorts = [_parse_sort(p)]
    while p.peek() is not None and p.peek().kind == "ARROW":
        p.next()
        p.skip_newlines()
        sorts.append(_parse_sort(p))
    return sorts


def _parse_signature(p: _Parser) -> Signature:
    p.skip_newlines()
    head = p.peek()
    if head is None:
        p.fail("no stream constant declared")
    if head.kind != "IDENT" or head.value != "Signature":
        p.fail("expected 'Signature('")
    p.next()
    p.expect("LP", "'('")
    symbols: dict = {}
    order: list = []
    while True:
        p.skip_newlines()
        if p.peek() is not None and p.peek().kind == "RP":
            p.next()
            break
        names = [p.expect("IDENT", "a symbol name")]
        while p.peek() is not None and p.peek().kind == "COMMA":
            save = p.i
            p.next()
            p.skip_newlines()
            nxt = p.peek()
            after = p.toks[p.i + 1] if p.i + 1 < len(p.toks) else None
            # a comma continues the name list only when 'name :' or 'name ,' follows
            if nxt is not None and nxt.kind == "IDENT" and after is not None and after.kind in ("COLON", "COMMA"):
                names.append(p.next())
                continue
            p.i = save
            break
        p.expect("COLON", "':'")
        p.skip_newlines()
        sorts = _parse_type(p)
        arg_sorts, result = tuple(sorts[:-1]), sorts[-1]
        for tok in names:
            if tok.value in symbols:
                p.fail("redeclaration of %r" % tok.value, tok)
            if isinstance(result, StreamSort):
                streams = [s for s in arg_sorts if isinstance(s, StreamSort)]
                datas = [s for s in arg_sorts if isinstance(s, DataSort)]
                if streams and tuple(arg_sorts[: len(streams)]) != tuple(streams):
                    p.fail("stream arguments of %r must precede data arguments" % tok.value, tok)
                kind = "func" if streams else "const"
            else:
                if any(isinstance(s, StreamSort) for s in arg_sorts):
                    p.fail("data symbol %r cannot take stream arguments" % tok.value, tok)
                kind = "data"
            symbols[tok.value] = SymbolInfo(tok.value, kind, tuple(arg_sorts), result)
            order.append(tok.value)
        p.skip_newlines()
        if p.peek() is not None and p.peek().kind == "COMMA":
            p.next()
    return Signature(symbols, order, p.filename)


def _parse_term_tokens(p: _Parser):
    """term := app (':' term)? ; app := IDENT ['(' term {',' term} ')']"""

    def parse_app():
        tok = p.expect("IDENT", "a term")
        args = []
        if p.peek() is not None and p.peek().kind == "LP":
            p.next()
            args.append(parse_term())
            while p.peek() is not None and p.peek().kind == "COMMA":
                p.next()
                args.append(parse_term())
            p.expect("RP", "')'")
        return ("app", tok, tuple(args))

    def parse_term():
        head = parse_app()
        if p.peek() is not None and p.peek().kind == "COLON":
            colon = p.next()
            tail = parse_term()
            return ("cons", colon, head, tail)
        return head

    return parse_term()


class _Sorter:
    """Resolves raw term trees against the signature, inferring variables.

    Data sorts that are never the result sort of a data symbol act as sort
    variables and unify freely; concrete data sorts must match exactly.
    """

    def __init__(self, sig: Signature, filename: str):
        self.sig = sig
        self.filename = filename
        self.concrete = sig.concrete_sorts()
        self.fresh = 0
        self.insts = 0
        self.bindings: dict = {}

    def fail(self, message, tok):
        raise ParseError(Diagnostic("error", message, tok.line, tok.col, self.filename))

    def _freshen(self, sort):
        if isinstance(sort, StreamSort):
            return StreamSort(self._freshen_name(sort.param))
        return DataSort(self._freshen_name(sort.name))

    def _freshen_name(self, name):
        if name in self.concrete:
            return name
        key = ("sortvar", self.inst_id, name)
        if key not in self.inst_map:
            self.fresh += 1
            self.inst_map[key] = "?%d" % self.fresh
        return self.inst_map[key]

    def instantiate(self, info: SymbolInfo):
        self.insts += 1
        self.inst_id = self.insts
        self.inst_map = {}
        return [self._freshen(s) for s in info.arg_sorts], self._freshen(info.result_sort)

    def _resolve(self, name):
        while name in self.bindings:
            name = self.bindings[name]
        return name

    def unify_data(self, a: str, b: str, tok):
        a, b = self._resolve(a), self._resolve(b)
        if a == b:
            return
        if a.startswith("?"):
            self.bindings[a] = b
        elif b.startswith("?"):
            self.bindings[b] = a
        else:
            self.fail("sort clash: %s vs %s" % (a, b), tok)

    def unify(self, a, b, tok):
        if isinstance(a, StreamSort) != isinstance(b, StreamSort):
            self.fail(
                "sort clash: %s term where %s expected"
                % ("stream" if isinstance(a, StreamSort) else "data",
                   "stream" if isinstance(b, StreamSort) else "data"),
                tok,
            )
        if isinstance(a, StreamSort):
            self.unify_data(a.param, b.param, tok)
        else:
            self.unify_data(a.name, b.name, tok)


def _resolve_term(raw, expected, sorter: _Sorter, varsorts: dict):
    """Turn a raw token tree into a sorted Term of sort `expected`."""
    sig = sorter.sig
    if raw[0] == "cons":
        _, colon, head, tail = raw
        if not isinstance(expected, StreamSort):
            sorter.fail("':' builds a stream where a data term is expected", colon)
        h = _resolve_term(head, DataSort(expected.param), sorter, varsorts)
        t = _resolve_term(tail, expected, sorter, varsorts)
        return Cons(h, t)
    _, tok, args = raw
    name = tok.value
    if name in sig.symbols:
        info = sig.symbols[name]
        arg_sorts, result = sorter.instantiate(info)
        if info.kind == "const" and not args and info.data_arity > 0:
            sorter.fail("%r expects %d data arguments" % (name, info.data_arity), tok)
        if len(args) != len(arg_sorts):
            sorter.fail(
                "%r expects %d arguments, got %d" % (name, len(arg_sorts), len(args)), tok
            )
        sorter.unify(result, expected, tok)
        resolved = tuple(
            _resolve_term(a, s, sorter, varsorts) for a, s in zip(args, arg_sorts)
        )
        return App(name, resolved)
    if args:
        sorter.fail("undeclared symbol %r applied to arguments" % name, tok)
    # a variable; record / check its sort
    if name in varsorts:
        sorter.unify(varsorts[name], expected, tok)
    else:
        varsorts[name] = expected
    if isinstance(expected, StreamSort):
        return SVar(name)
    return DVar(name)


def _subterms(t: Term):
    """Every subterm of `t`, in preorder, left to right."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, Cons):
            todo += (t.tail, t.head)
        elif isinstance(t, App):
            todo.extend(reversed(t.args))


def _term_vars(t: Term):
    return (s for s in _subterms(t) if isinstance(s, (SVar, DVar)))


def parse(text: str, filename: str = "<input>") -> StreamSpec:
    """Parse and sort-check a specification file."""
    tokens = _tokenize(text, filename)
    p = _Parser(tokens, filename)
    sig = _parse_signature(p)
    if not sig.stream_constants() and not sig.stream_functions():
        raise ParseError(Diagnostic("error", "no stream constant declared", 1, 1, filename))
    stream_rules: list = []
    data_rules: list = []
    while True:
        p.skip_newlines()
        if p.peek() is None:
            break
        first = p.peek()
        lhs_raw = _parse_term_tokens(p)
        p.expect("EQ", "'='")
        rhs_raw = _parse_term_tokens(p)
        nl = p.peek()
        if nl is not None and nl.kind != "NL":
            p.fail("trailing tokens after rule")
        if lhs_raw[0] == "cons":
            raise ParseError(Diagnostic("error", "rule left-hand side cannot be a cons", first.line, first.col, filename))
        root = lhs_raw[1].value
        if root not in sig.symbols:
            raise ParseError(Diagnostic("error", "variable on left-hand side root", first.line, first.col, filename))
        info = sig.symbols[root]
        sorter = _Sorter(sig, filename)
        varsorts: dict = {}
        expected = info.result_sort
        lhs = _resolve_term(lhs_raw, expected, sorter, varsorts)
        rhs = _resolve_term(rhs_raw, expected, sorter, varsorts)
        lhs_vars = {v.name for v in _term_vars(lhs)}
        for v in _term_vars(rhs):
            if v.name not in lhs_vars:
                kind = "stream" if isinstance(v, SVar) else "data"
                raise ParseError(
                    Diagnostic("error", "unbound %s variable on rhs: %r" % (kind, v.name), first.line, first.col, filename)
                )
        rule = Rule(lhs, rhs, "data" if info.kind == "data" else "stream", first.line)
        (data_rules if info.kind == "data" else stream_rules).append(rule)
    return StreamSpec(sig, stream_rules, data_rules, filename)


# ---------------------------------------------------------------------------
# validation


def _linear(rule: Rule, diags, spec):
    seen = set()
    for v in _term_vars(rule.lhs):
        if v.name in seen:
            diags.append(
                Diagnostic("error", "non-left-linear rule for %r: repeated %r" % (rule.root, v.name), rule.line, 1, spec.filename)
            )
            return
        seen.add(v.name)


def _patterns_overlap(a: Term, b: Term) -> bool:
    """Two linear constructor patterns overlap iff they unify."""
    if isinstance(a, (SVar, DVar)) or isinstance(b, (SVar, DVar)):
        return True
    if isinstance(a, Cons) and isinstance(b, Cons):
        return _patterns_overlap(a.head, b.head) and _patterns_overlap(a.tail, b.tail)
    if isinstance(a, App) and isinstance(b, App):
        return a.sym == b.sym and all(_patterns_overlap(x, y) for x, y in zip(a.args, b.args))
    return False


def _constructors_of(spec: StreamSpec):
    defined = {r.root for r in spec.data_rules}
    by_sort: dict = {}
    for name in spec.signature.data_symbols():
        if name in defined:
            continue
        info = spec.signature.symbols[name]
        by_sort.setdefault(info.result_sort.name, []).append(info)
    return by_sort


def _missing_vector(rows, col_sorts, by_sort):
    """Search for a value vector matched by no pattern row.

    Streams have the single constructor cons; data columns split over the
    constructors of their sort.  Returns a list of witness terms or None.
    """
    if not rows:
        return [_wild(s) for s in col_sorts]
    if not col_sorts:
        return None  # some row matches everything remaining
    first = [r[0] for r in rows]
    sort = col_sorts[0]
    if all(isinstance(p, (SVar, DVar)) for p in first):
        rest = _missing_vector([r[1:] for r in rows], col_sorts[1:], by_sort)
        return None if rest is None else [_wild(sort)] + rest
    if isinstance(sort, StreamSort):
        # only constructor: cons(head, tail)
        sub_rows = []
        for r in rows:
            p = r[0]
            if isinstance(p, SVar):
                sub_rows.append([DVar("_"), SVar("_")] + list(r[1:]))
            else:
                sub_rows.append([p.head, p.tail] + list(r[1:]))
        sub = _missing_vector(sub_rows, [DataSort(sort.param), sort] + list(col_sorts[1:]), by_sort)
        if sub is None:
            return None
        return [Cons(sub[0], sub[1])] + sub[2:]
    ctors = by_sort.get(sort.name, [])
    if not ctors:
        # no known constructors for this sort; a constructor pattern here can
        # never be shown exhaustive, report the bare-variable witness
        return None
    for info in ctors:
        sub_rows = []
        usable = True
        for r in rows:
            p = r[0]
            if isinstance(p, DVar):
                sub_rows.append([DVar("_")] * len(info.arg_sorts) + list(r[1:]))
            elif isinstance(p, App) and p.sym == info.name:
                sub_rows.append(list(p.args) + list(r[1:]))
            else:
                continue
        sub = _missing_vector(sub_rows, list(info.arg_sorts) + list(col_sorts[1:]), by_sort)
        if sub is not None:
            k = len(info.arg_sorts)
            return [App(info.name, tuple(sub[:k]))] + sub[k:]
    return None


def _wild(sort):
    return SVar("_") if isinstance(sort, StreamSort) else DVar("_")


def validate(spec: StreamSpec):
    """Well-formedness checks; errors block the analysis, warnings do not."""
    diags: list = []
    sig = spec.signature
    by_sort = _constructors_of(spec)
    constructors = {info.name for infos in by_sort.values() for info in infos}

    all_rules = spec.stream_rules + spec.data_rules
    for rule in all_rules:
        _linear(rule, diags, spec)
        # lhs arguments must be constructor patterns
        for a in rule.lhs.args:
            for t in _subterms(a):
                if isinstance(t, App) and t.sym not in constructors:
                    diags.append(
                        Diagnostic("error", "defined symbol %r in a pattern of %r" % (t.sym, rule.root), rule.line, 1, spec.filename)
                    )

    later: dict = {}  # root -> its rules after the current one
    for r1 in all_rules:
        later[r1.root] = later.get(r1.root, spec.rules_of(r1.root))[1:]
        for r2 in later[r1.root]:
            if _patterns_overlap(r1.lhs, r2.lhs):
                diags.append(
                    Diagnostic("error", "overlapping rules for %r (lines %d and %d)" % (r1.root, r1.line, r2.line), r2.line, 1, spec.filename)
                )

    for name in sig.stream_functions():
        rules = spec.rules_of(name)
        info = sig.symbols[name]
        if not rules:
            diags.append(Diagnostic("error", "stream function %r has no defining rule" % name, 1, 1, spec.filename))
            continue
        rows = [list(r.lhs.args) for r in rules]
        witness = _missing_vector(rows, list(info.arg_sorts), by_sort)
        if witness is not None:
            shown = App(name, tuple(witness))
            diags.append(
                Diagnostic("warning", "non-exhaustive patterns for %r: no rule matches %s" % (name, term_str(shown)), rules[0].line, 1, spec.filename)
            )

    if spec.data_rules:
        diags.append(
            Diagnostic("note", "termination of the data layer is assumed, not proven", 1, 1, spec.filename)
        )
    return diags


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class RuleShape:
    """Consumption/production/feedback skeleton of one stream rule."""

    rule: Rule
    nesting: bool
    consume: tuple  # per stream argument, elements taken by the pattern
    produce: int  # elements emitted before the tail
    tail_var: int | None  # case (a): index of the argument continued with
    callee: str | None  # case (b): symbol of the tail call (maybe a constant)
    perm: tuple | None  # case (b): callee arg j continues lhs arg perm[j]
    feedback: tuple | None  # case (b): elements pushed in front per callee arg

    @property
    def signature(self):
        return (self.nesting, self.consume, self.produce, self.tail_var, self.callee, self.perm, self.feedback)


def _peel_rhs(rhs: Term):
    produced = 0
    while isinstance(rhs, Cons):
        produced += 1
        rhs = rhs.tail
    return produced, rhs


def _cons_prefix(t: Term):
    """Split a stream term into (data prefix length, base) when it is a
    cons-chain over a variable; otherwise (None, None)."""
    depth, base = _peel_rhs(t)
    if isinstance(base, SVar):
        return depth, base.name
    return None, None


def rule_shape(spec: StreamSpec, rule: Rule) -> RuleShape:
    sig = spec.signature
    info = sig.symbols[rule.root]
    stream_args = rule.lhs.args[: info.stream_arity]
    consume = []
    vars_by_name = {}
    for i, pat in enumerate(stream_args):
        depth, base = _cons_prefix(pat)
        if base is None:
            raise ValueError("stream pattern of %r is not a cons chain over a variable" % rule.root)
        consume.append(depth)
        vars_by_name[base] = i + 1  # 1-based
    produce, tail = _peel_rhs(rule.rhs)
    if isinstance(tail, SVar):
        return RuleShape(rule, False, tuple(consume), produce, vars_by_name[tail.name], None, None, None)
    assert isinstance(tail, App)
    callee = tail.sym
    callee_info = sig.symbols.get(callee)
    if callee_info is not None and callee_info.kind in ("func", "const"):
        c_stream = tail.args[: callee_info.stream_arity]
        perm = []
        feedback = []
        for arg in c_stream:
            depth, base = _cons_prefix(arg)
            if base is None or base not in vars_by_name:
                return RuleShape(rule, True, tuple(consume), produce, None, None, None, None)
            perm.append(vars_by_name[base])
            feedback.append(depth)
        return RuleShape(rule, False, tuple(consume), produce, None, callee, tuple(perm), tuple(feedback))
    return RuleShape(rule, True, tuple(consume), produce, None, None, None, None)


@dataclass
class Classification:
    shapes: dict  # symbol -> [RuleShape]
    symbol_class: dict  # stream function -> "pure"|"flat"|"friendly"|"unfriendly"
    guarded: dict  # stream symbol -> bool (weakly guarded)
    depends: dict  # stream symbol -> set of stream symbols in its rule rhss


def classify(spec: StreamSpec) -> Classification:
    sig = spec.signature
    shapes: dict = {}
    depends: dict = {}
    stream_symbols = sig.stream_constants() + sig.stream_functions()
    # zero-production tail calls: a symbol is weakly guarded unless they can
    # run into a cycle
    edges: dict = {name: set() for name in stream_symbols}
    for name in stream_symbols:
        rules = spec.rules_of(name)
        shapes[name] = [rule_shape(spec, r) for r in rules]
        depends[name] = {t.sym for r in rules for t in _subterms(r.rhs) if isinstance(t, App) and t.sym in edges}
        for sh in shapes[name]:
            if sh.produce == 0:
                _, tail = _peel_rhs(sh.rule.rhs)
                if isinstance(tail, App) and tail.sym in edges:
                    edges[name].add(tail.sym)
    unguarded = reaches_cycle(edges)
    guarded = {name: name not in unguarded for name in stream_symbols}

    symbol_class = {}
    for name in sig.stream_functions():
        shs = shapes[name]
        nesting = [sh for sh in shs if sh.nesting]
        if not nesting:
            uniform = len({sh.signature for sh in shs}) == 1
            symbol_class[name] = "pure" if uniform else "flat"
        else:
            friendly = all(sh.produce >= max(sh.consume, default=0) for sh in nesting)
            symbol_class[name] = "friendly" if friendly else "unfriendly"
    return Classification(shapes, symbol_class, guarded, depends)


def reaches_cycle(edges: dict) -> set:
    """Nodes from which some path runs into a directed cycle.

    `edges` maps each node to its successors.  Sinks are peeled off until
    none is left; a target with no entry of its own is a sink.
    """
    left = {v: len(ws) for v, ws in edges.items()}  # successors not peeled
    preds: dict = {}
    for v, ws in edges.items():
        for w in ws:
            preds.setdefault(w, []).append(v)
    todo = [v for v in preds if v not in edges] + [v for v, n in left.items() if not n]
    while todo:
        for u in preds.get(todo.pop(), ()):
            left[u] -= 1
            if not left[u]:
                todo.append(u)
    return {v for v, n in left.items() if n}


def reachable_symbols(spec: StreamSpec, cls: Classification, start: str):
    """Stream symbols transitively involved in the unfolding of `start`."""
    seen = set()
    todo = [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(cls.depends.get(name, ()))
    return seen
