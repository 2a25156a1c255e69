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
signature is a variable whose sort is inferred from its position.  Only
"\\n", "\\r\\n" and "\\r" end a line: form feed, vertical tab and the
other characters at which `str.splitlines()` ends one are whitespace, inside
a comment too.  The parser reads the token strings of one regex `findall`;
a token's line and column are found again only for a diagnostic.
"""

from __future__ import annotations

import itertools
import re

# ---------------------------------------------------------------------------
# diagnostics


class Diagnostic:
    __slots__ = ("severity", "message", "line", "col", "filename")

    def __init__(self, severity: str, message: str, line: int = 0, col: int = 0, filename: str = "<input>"):
        self.severity = severity  # "error" | "warning" | "note"
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename

    def __str__(self):
        return "%s:%d:%d: %s: %s" % (self.filename, self.line, self.col, self.severity, self.message)


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# tokens

# one alternative per token class, "\n" the line end; the last one, which
# only a bad character reaches, lets `_positions` place it.  `_VALID` takes
# the longest prefix free of bad characters.  `[\w']` and `\s` agree with
# `str.isalnum()` plus `_'` and with `str.isspace()` on every code point
# (the tests check this).
_TOKEN = re.compile(r"->|[(),:=\n]|[\w']+|\S")
_VALID = re.compile(r"[\s\w'(),:=]*(?:->[\s\w'(),:=]*)*")
_COMMENT = re.compile(r"--[^\n]*")
_PUNCT = frozenset(("->", "(", ")", ",", ":", "=", "\n"))  # the tokens but identifiers


def _clean(text: str) -> str:
    """`text` with every line ended by "\\n", a last one too, and without
    comments; `_clean(_clean(t)) == _clean(t)`."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text and not text.endswith("\n"):
        text += "\n"
    return _COMMENT.sub("", text)


def _tokenize(text: str, filename: str) -> list:
    """The tokens of `text` as strings, "\\n" at the end of every line."""
    text = _clean(text)
    bad = _VALID.match(text).end()
    if bad < len(text):
        line, col = next(itertools.islice(_positions(text), len(_TOKEN.findall(text, 0, bad)), None))
        raise ParseError(Diagnostic("error", "unexpected character %r" % text[bad], line, col, filename))
    return _TOKEN.findall(text)


def _positions(text: str):
    """The 1-based line and column of each token of `text`, in file order; a
    bad character counts as a token."""
    text = _clean(text)
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN.finditer(text):
        at = m.start()
        yield line, at - start + 1
        if text[at] == "\n":
            line, start = line + 1, at + 1


# ---------------------------------------------------------------------------
# signature


class StreamSort:
    __slots__ = ("param",)

    def __init__(self, param: str):
        self.param = param

    def __str__(self):
        return "stream(%s)" % self.param


class DataSort:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self):
        return self.name


class SymbolInfo:
    __slots__ = ("name", "kind", "arg_sorts", "result_sort", "stream_arity", "data_arity")

    def __init__(self, name: str, kind: str, arg_sorts: tuple, result_sort):
        self.name = name
        self.kind = kind  # "const" | "func" | "data"
        self.arg_sorts = arg_sorts
        self.result_sort = result_sort
        self.stream_arity = sum(1 for s in arg_sorts if isinstance(s, StreamSort))
        self.data_arity = sum(1 for s in arg_sorts if isinstance(s, DataSort))


class Signature:
    __slots__ = ("symbols",)

    def __init__(self, symbols: dict):
        self.symbols = symbols  # name -> SymbolInfo, in declaration order

    def stream_constants(self):
        return [n for n, info in self.symbols.items() if info.kind == "const"]

    def stream_functions(self):
        return [n for n, info in self.symbols.items() if info.kind == "func"]

    def data_symbols(self):
        return [n for n, info in self.symbols.items() if info.kind == "data"]

    def concrete_sorts(self):
        """Data sort names pinned down by some data symbol's result sort."""
        return {
            self.symbols[n].result_sort.name
            for n in self.data_symbols()
        }


# ---------------------------------------------------------------------------
# terms


class Node:
    """A node of a stream term, and the base of every class compared by its
    fields: production-term nodes, IO-expressions and a few records.

    `__match_args__` names the fields that make up the node: nodes, tuples
    of nodes or plain values.  Equality and hashing are structural and walk
    an explicit stack, so term depth is not bounded by the interpreter.  A
    node is never changed once built, for its hash depends on its fields.
    """

    __slots__ = ()

    def _flat(self) -> list:
        """The term in preorder: node types, tuple lengths and plain values."""
        parts, todo = [], [self]
        while todo:
            t = todo.pop()
            if isinstance(t, Node):
                parts.append(type(t))
                todo += [getattr(t, f) for f in t.__match_args__]
            elif type(t) is tuple:
                parts += (tuple, len(t))
                todo += t
            else:
                parts.append(t)
        return parts

    def __eq__(self, other):
        return self._flat() == other._flat() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._flat()))

    def __repr__(self):
        return term_str(self)


class SVar(Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class DVar(Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Cons(Node):
    __slots__ = __match_args__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head  # data term
        self.tail = tail  # stream term


class App(Node):
    __slots__ = __match_args__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple):
        self.sym = sym
        self.args = args


Term = SVar | DVar | Cons | App


def term_str(t: Term) -> str:
    """Source syntax; an explicit stack of terms and literal pieces."""
    out = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Cons):
            todo += (t.tail, ":")
            todo += (")", t.head, "(") if isinstance(t.head, Cons) else (t.head,)
        elif isinstance(t, App) and t.args:
            todo.append(")")
            for i in reversed(range(len(t.args))):
                todo += (t.args[i], ",") if i else (t.args[i], t.sym + "(")
        else:
            out.append(t.sym if isinstance(t, App) else t.name)
    return "".join(out)


class Rule(Node):
    __slots__ = __match_args__ = ("lhs", "rhs", "line")

    def __init__(self, lhs: Term, rhs: Term, line: int):
        self.lhs = lhs
        self.rhs = rhs
        self.line = line

    @property
    def root(self) -> str:
        return self.lhs.sym

    def __str__(self):
        return "%s = %s" % (term_str(self.lhs), term_str(self.rhs))

    def __repr__(self):
        return "Rule(%r, %r, %d)" % (self.lhs, self.rhs, self.line)


class StreamSpec:
    __slots__ = ("signature", "stream_rules", "data_rules", "by_root", "filename")

    def __init__(self, signature: Signature, stream_rules: list, data_rules: list, by_root: dict,
                 filename: str = "<input>"):
        self.signature = signature
        self.stream_rules = stream_rules
        self.data_rules = data_rules
        self.by_root = by_root  # root symbol -> its rules, in file order
        self.filename = filename

    def rules_of(self, symbol: str):
        return self.by_root.get(symbol, [])


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """A cursor over the token strings of `text`.  `line` counts the line
    ends skipped so far, so that after `skip_newlines` it is the line of the
    next token.  `data_sorts` holds one `DataSort` per sort name the
    signature names."""

    def __init__(self, text, filename):
        self.text = text
        self.toks = _tokenize(text, filename)
        self.i = 0
        self.line = 1
        self.filename = filename
        self.data_sorts: dict = {}

    def at(self, tok) -> bool:
        """Whether the next token is `tok`."""
        return self.i < len(self.toks) and self.toks[self.i] == tok

    def failure(self, message, at=None) -> ParseError:
        """An error at token `at`, by default the next one; at the end of
        input, at the last token (the line end of the last line), or at 1:1
        when there is none."""
        line, col = 1, 1
        for line, col in itertools.islice(_positions(self.text), (self.i if at is None else at) + 1):
            pass
        return ParseError(Diagnostic("error", message, line, col, self.filename))

    def expect(self, tok, what):
        if not self.at(tok):
            raise self.failure("expected %s" % what)
        self.i += 1

    def name(self, what) -> str:
        """The next token, which must be an identifier."""
        if self.i == len(self.toks) or self.toks[self.i] in _PUNCT:
            raise self.failure("expected %s" % what)
        self.i += 1
        return self.toks[self.i - 1]

    def skip_newlines(self):
        toks, i = self.toks, self.i
        end = len(toks)
        while i < end and toks[i] == "\n":
            i += 1
        self.line += i - self.i
        self.i = i


def _parse_sort(p: _Parser):
    name = p.name("a sort")
    if name == "stream":
        p.expect("(", "'('")
        param = p.name("a sort name")
        p.expect(")", "')'")
        return StreamSort(param)
    return p.data_sorts.setdefault(name, DataSort(name))


def _parse_type(p: _Parser):
    sorts = [_parse_sort(p)]
    while p.at("->"):
        p.i += 1
        p.skip_newlines()
        sorts.append(_parse_sort(p))
    return sorts


def _parse_signature(p: _Parser) -> Signature:
    p.skip_newlines()
    if p.i == len(p.toks):
        raise p.failure("no stream constant declared")
    if not p.at("Signature"):
        raise p.failure("expected 'Signature('")
    p.i += 1
    p.expect("(", "'('")
    toks = p.toks
    end = len(toks)
    symbols: dict = {}
    while True:
        p.skip_newlines()
        if p.at(")"):
            p.i += 1
            break
        names = [p.i]  # the token of each name
        p.name("a symbol name")
        while p.at(","):
            j = p.i + 1
            while j < end and toks[j] == "\n":
                j += 1
            # a comma continues the name list only when 'name :' or 'name ,' follows
            if not (j + 1 < end and toks[j] not in _PUNCT and toks[j + 1] in (":", ",")):
                break
            p.i += 1
            p.skip_newlines()
            names.append(p.i)
            p.i += 1
        p.expect(":", "':'")
        p.skip_newlines()
        sorts = _parse_type(p)
        arg_sorts, result = tuple(sorts[:-1]), sorts[-1]
        streams = sum(isinstance(s, StreamSort) for s in arg_sorts)
        if isinstance(result, StreamSort):
            kind = "func" if streams else "const"
            ordered = all(isinstance(s, StreamSort) for s in arg_sorts[:streams])
            clash = None if ordered else "stream arguments of %r must precede data arguments"
        else:
            kind = "data"
            clash = "data symbol %r cannot take stream arguments" if streams else None
        for at in names:
            name = toks[at]
            if name in symbols:
                raise p.failure("redeclaration of %r" % name, at)
            if clash:
                raise p.failure(clash % name, at)
            symbols[name] = SymbolInfo(name, kind, arg_sorts, result)
        p.skip_newlines()
        if p.at(","):
            p.i += 1
    return Signature(symbols)


def _parse_term_tokens(p: _Parser):
    """term := app (':' term)? ; app := IDENT ['(' term {',' term} ')']

    Shift-reduce on an explicit stack, so that neither a long cons chain nor
    deep nesting recurses.  A frame is an open application `[at, args]` or
    a pending cons `(colon, head)`; terms are raw tuples `("app", at, args)`
    and `("cons", colon, head, tail)`, with the index of the symbol's or
    the colon's token.  The token list ends with a line end, which no term
    takes, so no index runs past it.
    """
    toks, i = p.toks, p.i
    stack: list = []
    while True:
        if toks[i] in _PUNCT:
            p.i = i
            raise p.failure("expected a term")
        i += 1
        if toks[i] == "(":
            stack.append([i - 1, []])
            i += 1
            continue  # shift the first argument
        term = ("app", i - 1, ())
        while True:  # reduce the finished application `term`
            tok = toks[i]
            if tok == ":":
                stack.append((i, term))
                i += 1
                break  # shift the tail
            while stack and type(stack[-1]) is tuple:
                colon, head = stack.pop()
                term = ("cons", colon, head, term)
            if not stack:
                p.i = i
                return term
            frame = stack[-1]
            frame[1].append(term)
            if tok == ",":
                i += 1
                break  # shift the next argument
            if tok != ")":
                p.i = i
                raise p.failure("expected ')'")
            i += 1
            stack.pop()
            term = ("app", frame[0], tuple(frame[1]))


class _Sorter:
    """Resolves raw term trees against the signature, inferring variables.

    Data sorts that are never the result sort of a data symbol act as sort
    variables and unify freely; concrete data sorts, the set `concrete`,
    must match exactly.  One sorter serves a whole parse: which symbols
    have only concrete sorts is decided once, and `start_rule` forgets the
    sort variables of the rule before.
    """

    def __init__(self, sig: Signature, parser, concrete: set):
        self.sig = sig
        self.parser = parser
        self.concrete = concrete
        # the symbols whose every sort is concrete: an occurrence of one
        # has its declared sorts and makes no fresh sort variable
        self.fixed = {
            name
            for name, info in sig.symbols.items()
            if all(
                (s.param if isinstance(s, StreamSort) else s.name) in concrete
                for s in (*info.arg_sorts, info.result_sort)
            )
        }
        # sort name -> the DataSort of a stream's elements; first the signature's
        # own (one per name), so that a cons head of a declared sort unifies by identity
        self.elements = {s.name: s for info in sig.symbols.values()
                         for s in (*info.arg_sorts, info.result_sort) if isinstance(s, DataSort)}
        self.start_rule()

    def start_rule(self):
        self.fresh = 0
        self.bindings: dict = {}

    def fail(self, message, tok):
        raise self.parser.failure(message, tok)

    def _freshen(self, sort, inst_map):
        if isinstance(sort, StreamSort):
            return StreamSort(self._freshen_name(sort.param, inst_map))
        return DataSort(self._freshen_name(sort.name, inst_map))

    def _freshen_name(self, name, inst_map):
        if name in self.concrete:
            return name
        if name not in inst_map:
            self.fresh += 1
            inst_map[name] = "?%d" % self.fresh
        return inst_map[name]

    def instantiate(self, info: SymbolInfo):
        """The sorts of one occurrence of `info`, its sort variables fresh;
        the declared ones, shared, when all of them are concrete."""
        if info.name in self.fixed:
            return info.arg_sorts, info.result_sort
        inst_map: dict = {}
        return [self._freshen(s, inst_map) for s in info.arg_sorts], self._freshen(info.result_sort, inst_map)

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
        if a is b:
            return
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
    """Turn a raw token tree into a sorted Term of sort `expected`.

    Each variable not yet in `varsorts` is added to it with its sort.  A
    preorder walk on an explicit stack of `(raw, expected)` pairs; a pair
    `(n, sym)` pops the n resolved subterms of an application of `sym` into
    its node, a Cons if `sym` is None.  A leaf is done when it is visited.
    Checks and unifications run in preorder, left to right.
    """
    symbols = sorter.sig.symbols
    elements = sorter.elements
    toks = sorter.parser.toks
    todo: list = [(raw, expected)]
    done: list = []
    while todo:
        raw, expected = todo.pop()
        if type(raw) is int:
            if expected is None:
                tail = done.pop()
                done[-1] = Cons(done[-1], tail)
            else:
                parts = tuple(done[-raw:])
                del done[-raw:]
                done.append(App(expected, parts))
            continue
        if raw[0] == "cons":
            _, colon, head, tail = raw
            if not isinstance(expected, StreamSort):
                sorter.fail("':' builds a stream where a data term is expected", colon)
            element = elements.get(expected.param)
            if element is None:
                element = elements[expected.param] = DataSort(expected.param)
            todo += (2, None), (tail, expected), (head, element)
            continue
        _, tok, args = raw
        name = toks[tok]
        info = symbols.get(name)
        if info is not None:
            arg_sorts, result = sorter.instantiate(info)
            if len(args) != len(arg_sorts):
                if info.kind == "const" and not args:
                    sorter.fail("%r expects %d data arguments" % (name, info.data_arity), tok)
                sorter.fail("%r expects %d arguments, got %d" % (name, len(arg_sorts), len(args)), tok)
            sorter.unify(result, expected, tok)
            if not args:
                done.append(App(name, ()))
                continue
            todo.append((len(args), name))
            for k in range(len(args) - 1, -1, -1):
                todo.append((args[k], arg_sorts[k]))
            continue
        if args:
            sorter.fail("undeclared symbol %r applied to arguments" % name, tok)
        # a variable; record / check its sort
        if name in varsorts:
            sorter.unify(varsorts[name], expected, tok)
        else:
            varsorts[name] = expected
        done.append(SVar(name) if isinstance(expected, StreamSort) else DVar(name))
    return done[0]


def parse(text: str, filename: str = "<input>") -> StreamSpec:
    """Parse and sort-check a specification file."""
    p = _Parser(text, filename)
    sig = _parse_signature(p)
    if not sig.stream_constants() and not sig.stream_functions():
        raise ParseError(Diagnostic("error", "no stream constant declared", 1, 1, filename))
    sorter = _Sorter(sig, p, sig.concrete_sorts())
    toks = p.toks
    stream_rules: list = []
    data_rules: list = []
    by_root: dict = {}
    while True:
        p.skip_newlines()
        if p.i == len(toks):
            break
        first, line = p.i, p.line
        lhs_raw = _parse_term_tokens(p)
        p.expect("=", "'='")
        rhs_raw = _parse_term_tokens(p)
        if not p.at("\n"):
            raise p.failure("trailing tokens after rule")
        if lhs_raw[0] == "cons":
            raise p.failure("rule left-hand side cannot be a cons", first)
        root = toks[lhs_raw[1]]
        if root not in sig.symbols:
            raise p.failure("variable on left-hand side root", first)
        info = sig.symbols[root]
        sorter.start_rule()
        varsorts: dict = {}
        expected = info.result_sort
        lhs = _resolve_term(lhs_raw, expected, sorter, varsorts)
        bound = len(varsorts)
        rhs = _resolve_term(rhs_raw, expected, sorter, varsorts)
        # a variable new on the rhs is not bound by the lhs; dicts keep
        # insertion order, so the first is the first key added after `bound`
        if len(varsorts) > bound:
            name = list(varsorts)[bound]
            kind = "stream" if isinstance(varsorts[name], StreamSort) else "data"
            raise p.failure("unbound %s variable on rhs: %r" % (kind, name), first)
        rule = Rule(lhs, rhs, line)
        (data_rules if info.kind == "data" else stream_rules).append(rule)
        by_root.setdefault(root, []).append(rule)
    return StreamSpec(sig, stream_rules, data_rules, by_root, filename)


# ---------------------------------------------------------------------------
# validation


def _patterns_overlap(a: Term, b: Term) -> bool:
    """Two linear constructor patterns overlap iff they unify."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, (SVar, DVar)) or isinstance(b, (SVar, DVar)):
            continue
        if isinstance(a, Cons) and isinstance(b, Cons):
            todo += ((a.tail, b.tail), (a.head, b.head))
        elif isinstance(a, App) and isinstance(b, App) and a.sym == b.sym:
            todo.extend(zip(a.args, b.args))
        else:
            return False
    return True


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
    constructors of their sort, or try the first one no row names.
    Returns a list of witness terms or None.

    A depth-first loop over a stack of tasks `(rows, columns, then)`, in
    the order of the recursive search, so the first witness found is the
    answer.  Rows and columns are linked lists `(first, rest)`, so that
    dropping or splitting the first column copies nothing.  `then` is a
    linked chain of steps that turn a witness of the task's columns into
    one of the whole table: a sort puts a wildcard of that sort in front,
    "cons" joins the first two terms, and a constructor's `SymbolInfo`
    joins its first arguments into an App.

    A catch-all row, whose every pattern is a variable or a cons chain of
    data variables over a stream variable, matches every vector, so the
    search would find none: None at once.
    """
    if any(all(map(_catch_all, r)) for r in rows):
        return None
    todo = [([_linked(r, None) for r in rows], _linked(col_sorts, None), None)]
    while todo:
        rows, cols, then = todo.pop()
        if not rows:
            found = _linked([_wild(s) for s in _unlinked(cols)], None)
            while then is not None:
                step, then = then
                if isinstance(step, SymbolInfo):
                    args = []
                    for _ in step.arg_sorts:
                        arg, found = found
                        args.append(arg)
                    found = (App(step.name, tuple(args)), found)
                elif step == "cons":
                    head, (tail, found) = found
                    found = (Cons(head, tail), found)
                else:
                    found = (_wild(step), found)
            return _unlinked(found)
        if cols is None:
            continue  # some row matches everything remaining
        sort, rest = cols
        if all(isinstance(r[0], (SVar, DVar)) for r in rows):
            todo.append(([r[1] for r in rows], rest, (sort, then)))
        elif isinstance(sort, StreamSort):
            # only constructor: cons(head, tail); a defined symbol in the
            # pattern (an error of its own) matches no cons
            rows = [
                (DVar("_"), (SVar("_"), tail)) if isinstance(p, SVar) else (p.head, (p.tail, tail))
                for p, tail in rows
                if not isinstance(p, App)
            ]
            todo.append((rows, (DataSort(sort.param), cols), ("cons", then)))
        else:
            # under a constructor no row names, a vector is missing iff the
            # default matrix, the variable rows, misses one (Maranget 2007).
            # A sort without known constructors pushes nothing: no witness
            # can be built, so none is reported
            infos = by_sort.get(sort.name, ())
            named = {p.sym for p, _ in rows if isinstance(p, App)}
            for info in reversed([i for i in infos if i.name not in named][:1] or infos):
                wilds = [DVar("_")] * len(info.arg_sorts)
                sub_rows = [
                    _linked(wilds, tail) if isinstance(p, DVar) else _linked(p.args, tail)
                    for p, tail in rows
                    if isinstance(p, DVar) or p.sym == info.name
                ]
                todo.append((sub_rows, _linked(info.arg_sorts, rest), (info, then)))
    return None


def _catch_all(p) -> bool:
    while isinstance(p, Cons) and isinstance(p.head, DVar):
        p = p.tail
    return isinstance(p, (SVar, DVar))


def _linked(items, rest):
    """The linked list `(items[0], (items[1], ... rest))`."""
    for x in reversed(items):
        rest = (x, rest)
    return rest


def _unlinked(linked):
    items = []
    while linked is not None:
        x, linked = linked
        items.append(x)
    return items


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
        # the lhs is left-linear and its arguments are constructor patterns:
        # one preorder walk finds the first repeated variable, reported
        # first, and every defined symbol
        seen, repeated, defined = set(), [], []
        todo = list(reversed(rule.lhs.args))
        while todo:
            t = todo.pop()
            if isinstance(t, Cons):
                todo += (t.tail, t.head)
            elif isinstance(t, App):
                if t.sym not in constructors:
                    defined.append("defined symbol %r in a pattern of %r" % (t.sym, rule.root))
                todo.extend(reversed(t.args))
            elif t.name not in seen:
                seen.add(t.name)
            elif not repeated:
                repeated.append("non-left-linear rule for %r: repeated %r" % (rule.root, t.name))
        diags += [Diagnostic("error", message, rule.line, 1, spec.filename) for message in repeated + defined]

    before: dict = {}  # root -> how many of its rules came up to the current one
    for r1 in all_rules:
        rules = spec.rules_of(r1.root)
        before[r1.root] = before.get(r1.root, 0) + 1
        for k in range(before[r1.root], len(rules)):
            r2 = rules[k]
            if _patterns_overlap(r1.lhs, r2.lhs):
                diags.append(
                    Diagnostic("error", "overlapping rules for %r (lines %d and %d)" % (r1.root, r1.line, r2.line), r2.line, 1, spec.filename)
                )

    for name in sig.stream_constants() + sig.stream_functions():
        rules = spec.rules_of(name)
        info = sig.symbols[name]
        if not rules:
            kind = "constant" if info.kind == "const" else "function"
            diags.append(Diagnostic("error", "stream %s %r has no defining rule" % (kind, name), 1, 1, spec.filename))
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


class RuleShape:
    """Consumption/production/feedback skeleton of one stream rule."""

    __slots__ = ("rule", "nesting", "consume", "produce", "tail_var", "callee", "perm", "feedback")

    def __init__(self, rule: Rule, nesting: bool, consume: tuple, produce: int, tail_var, callee, perm, feedback):
        self.rule = rule
        self.nesting = nesting
        self.consume = consume  # per stream argument, elements taken by the pattern
        self.produce = produce  # elements emitted before the tail
        self.tail_var = tail_var  # case (a): index of the argument continued with
        self.callee = callee  # case (b): symbol of the tail call (maybe a constant)
        self.perm = perm  # case (b): callee arg j continues lhs arg perm[j]
        self.feedback = feedback  # case (b): elements pushed in front per callee arg

    @property
    def signature(self):
        return (self.nesting, self.consume, self.produce, self.tail_var, self.callee, self.perm, self.feedback)


def _peel(t: Term):
    depth = 0
    while isinstance(t, Cons):
        depth += 1
        t = t.tail
    return depth, t


def rule_shape(spec: StreamSpec, rule: Rule) -> RuleShape:
    sig = spec.signature
    info = sig.symbols[rule.root]
    stream_args = rule.lhs.args[: info.stream_arity]
    consume = []
    vars_by_name = {}
    for i, pat in enumerate(stream_args):
        depth, base = _peel(pat)
        if not isinstance(base, SVar):
            raise ValueError("stream pattern of %r is not a cons chain over a variable" % rule.root)
        consume.append(depth)
        vars_by_name[base.name] = i + 1  # 1-based
    produce, tail = _peel(rule.rhs)
    if isinstance(tail, SVar):
        return RuleShape(rule, False, tuple(consume), produce, vars_by_name[tail.name], None, None, None)
    if not isinstance(tail, App):
        raise ValueError("right-hand side of %r is not a stream term" % rule.root)
    callee = tail.sym
    callee_info = sig.symbols.get(callee)
    if callee_info is not None and callee_info.kind in ("func", "const"):
        c_stream = tail.args[: callee_info.stream_arity]
        perm = []
        feedback = []
        for arg in c_stream:
            depth, base = _peel(arg)
            if not isinstance(base, SVar) or base.name not in vars_by_name:
                return RuleShape(rule, True, tuple(consume), produce, None, None, None, None)
            perm.append(vars_by_name[base.name])
            feedback.append(depth)
        return RuleShape(rule, False, tuple(consume), produce, None, callee, tuple(perm), tuple(feedback))
    return RuleShape(rule, True, tuple(consume), produce, None, None, None, None)


class Classification:
    __slots__ = ("shapes", "symbol_class", "guarded", "depends", "games")

    def __init__(self, shapes: dict, symbol_class: dict, guarded: dict, depends: dict):
        self.shapes = shapes  # symbol -> [RuleShape]
        self.symbol_class = symbol_class  # stream symbol -> "pure"|"flat"|"friendly"|"unfriendly"
        self.guarded = guarded  # stream symbol -> bool (weakly guarded)
        self.depends = depends  # stream symbol -> set of stream symbols in its rule rhss
        self.games: dict = {}  # stream symbol -> dogame.function_game's answer, filled as asked


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
        todo = [r.rhs for r in rules]
        for t in todo:  # the list grows as the walk goes
            if isinstance(t, Cons):
                todo.append(t.tail)  # the head is a data term: no stream symbol
            elif isinstance(t, App):
                todo += t.args
        depends[name] = {t.sym for t in todo if isinstance(t, App) and t.sym in edges}
        edges[name].update(r.rhs.sym for r in rules if isinstance(r.rhs, App) and r.rhs.sym in edges)
    unguarded = reaches_cycle(edges)
    guarded = {name: name not in unguarded for name in stream_symbols}

    symbol_class = {}
    for name in stream_symbols:
        shs = shapes[name]
        const = sig.symbols[name].kind == "const"
        nesting = [] if const else [sh for sh in shs if sh.nesting]
        if not nesting:
            # a constant's rules are unfolded, not translated: only data choosing one makes it flat
            uniform = len(shs if const else {sh.signature for sh in shs}) == 1
            symbol_class[name] = "pure" if uniform else "flat"
        else:
            friendly = all(sh.produce >= max(sh.consume, default=0) for sh in nesting)
            symbol_class[name] = "friendly" if friendly else "unfriendly"
    return Classification(shapes, symbol_class, guarded, depends)


def reaches_cycle(edges: dict) -> set:
    """Nodes from which some path runs into a directed cycle.

    `edges` maps each node to its successors; a target with no entry of its
    own has none.  Every node of `feedback_order`'s F lies on a cycle, and in
    its post-order each node comes after its successors outside F, so one
    pass over that order adds every node with a successor already found.
    """
    found, order = feedback_order(edges, lambda v: edges.get(v, ()))
    for v in order:
        if not found.isdisjoint(edges.get(v, ())):
            found.add(v)
    return found


def feedback_order(roots, successors) -> tuple[set, list]:
    """A feedback vertex set F of the nodes reachable from `roots`, and
    those nodes in post-order: each one comes after every successor that is
    not in F.

    One depth-first walk on an explicit stack, reading each node's
    `successors` left to right, takes the targets of its back edges as F
    (every cycle holds a back edge, and every back edge's target lies on a
    cycle).
    """
    feedback: set = set()
    order: list = []
    on_stack: dict = {}  # node -> True while on the walk's stack, False after
    for root in roots:
        if root in on_stack:
            continue
        on_stack[root] = True
        stack = [(root, iter(successors(root)))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if w not in on_stack:
                    on_stack[w] = True
                    stack.append((w, iter(successors(w))))
                    break
                if on_stack[w]:
                    feedback.add(w)
            else:
                stack.pop()
                on_stack[v] = False
                order.append(v)
    return feedback, order


def reachable(starts, successors):
    """Yield each node reachable from `starts`, themselves included, once
    and as soon as it is found, so that a caller may stop early."""
    seen = set()
    todo = [starts]  # iterables of nodes found, not all of them new
    while todo:
        for w in todo.pop():
            if w not in seen:
                seen.add(w)
                yield w
                todo.append(successors(w))


def reachable_symbols(cls: Classification, start: str):
    """Stream symbols transitively involved in the unfolding of `start`."""
    return set(reachable((start,), lambda name: cls.depends.get(name, ())))
