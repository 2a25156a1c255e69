"""Production terms and the collapse rewrite system.

A production term is built from numeric sources, recursion variables,
pebbles (unary +1 buffers), boxes (IO-sequence transducers), mu-recursion
and binary meets.  Every closed term collapses, by a terminating and
confluent rewrite system, to a unique numeral src(k); that k is the term's
production.  Gates package the per-argument transducers of a translated
stream function.

A node is a slotted object that carries, besides its fields, its free
variables (`free_vars`) and the collapse rule whose left-hand side matches
at it (`rule`, or None), both worked out once by its constructor.  Nodes
are immutable by contract: nothing is assigned to one after it is built,
for its hash and these two depend on its fields.  Equality and hashing are
structural (`streamspec.Node`); `repr` is `pretty`.
"""

from __future__ import annotations

from .ioalg import (
    PEB_SEQ,
    TOP,
    CoNat,
    IOTerm,
    conat_str,
    compose,
    interpret,
    is_top,
    least_fixed_point,
    render,
)
from .streamspec import Node


class _ProdNode(Node):
    # a class attribute shadows a slot whose value is the same for every node
    # of the class: the free variables of Src, the rule of Src, Var and Peb
    __slots__ = ("free_vars", "rule")

    def __repr__(self):
        return pretty(self)


class Src(_ProdNode):
    __slots__ = __match_args__ = ("value",)
    free_vars = frozenset()
    rule = None

    def __init__(self, value: CoNat):
        self.value = value


class Var(_ProdNode):
    __slots__ = __match_args__ = ("name",)
    rule = None

    def __init__(self, name: str):
        self.name = name
        self.free_vars = frozenset((name,))


class Peb(_ProdNode):
    __slots__ = __match_args__ = ("body",)
    rule = "peb"

    def __init__(self, body: "ProdTerm"):
        self.body = body
        self.free_vars = body.free_vars


class Box(_ProdNode):
    __slots__ = __match_args__ = ("seq", "body")

    def __init__(self, seq: IOTerm, body: "ProdTerm"):
        self.seq = seq
        self.body = body
        self.free_vars = body.free_vars
        self.rule = _BOX_RULES.get(type(body))


class Mu(_ProdNode):
    __slots__ = __match_args__ = ("name", "body")

    def __init__(self, name: str, body: "ProdTerm"):
        self.name = name
        self.body = body
        inner = body.free_vars
        self.free_vars = inner - {name} if name in inner else inner
        self.rule = (
            "mu-meet" if isinstance(body, Meet)
            else "mu-drop" if name not in inner
            else "mu-var" if isinstance(body, Var)  # `name` is then its only free variable
            else "mu-box" if isinstance(body, Box) and isinstance(body.body, Var)
            else None
        )


class Meet(_ProdNode):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "ProdTerm", right: "ProdTerm"):
        self.left = left
        self.right = right
        a, b = left.free_vars, right.free_vars
        self.free_vars = a | b if a and b else a or b
        self.rule = "meet-src" if isinstance(left, Src) and isinstance(right, Src) else None


_BOX_RULES = {Box: "box-box", Meet: "box-meet", Src: "box-src"}

ProdTerm = Src | Var | Peb | Box | Mu | Meet


def meet_all(parts: list) -> ProdTerm:
    """Right-nested meet of a non-empty list."""
    if not parts:
        raise ValueError("meet of nothing")
    term = parts[-1]
    for part in reversed(parts[:-1]):
        term = Meet(part, term)
    return term


def pretty(t: ProdTerm) -> str:
    """mu P. peb(box<-(-+)>(P)) style rendering."""
    return next(derivation_texts([t]))


def _head(t: ProdTerm, heads: dict) -> str:
    """The text of `t` before its first child, all of it for a leaf; `heads`
    maps each IO-sequence met so far to its box's head."""
    cls = type(t)
    if cls is Box:
        head = heads.get(t.seq)
        if head is None:
            head = heads[t.seq] = "box<%s>(" % render(t.seq)
        return head
    if cls is Peb:
        return "peb("
    if cls is Mu:
        return "mu %s. " % t.name
    if cls is Meet:
        return "meet("
    return "src(%s)" % conat_str(t.value) if cls is Src else t.name


def derivation_texts(terms, heads: dict | None = None):
    """The `pretty` rendering of each term of a derivation, yielded in turn.

    Each term after the first is the leftmost-outermost collapse step of
    the one before it, as `collapse_trace` makes them.  One walk renders the
    first term and notes each node's width, the length of its text; each
    later text is the one before it with the redex's span (measured from the
    end) replaced by the contractum's text, cut from that span; a pebble or
    box-box step keeps its body's text in place and splices only the new
    box's head in front of it, with no contractum text built.  The redex
    is reached with no search, by walking both terms down the one path on
    which they differ (see `collapse_trace`) to the first node with a rule.
    Widths are keyed by identity, unique while `terms` keeps the nodes
    alive.  `heads` maps IO-sequences to box heads; the derivations of one
    report share it, so each sequence is rendered once per report.
    """
    heads = {} if heads is None else heads
    widths = {}  # id(node) -> width
    pieces, pos, todo = [], 0, [terms[0]]
    while todo:
        t = todo.pop()
        if isinstance(t, int):  # the end of the node below it, which starts at t
            widths[id(todo.pop())] = pos - t
            continue
        if not isinstance(t, str):
            todo += (t, pos)
            if isinstance(t, Meet):
                todo += (")", t.right, ", ", t.left)
            elif isinstance(t, (Peb, Box)):
                todo += (")", t.body)
            elif isinstance(t, Mu):
                todo.append(t.body)
            t = _head(t, heads)
        pieces.append(t)
        pos += len(t)
    text = "".join(pieces)
    yield text
    for prev, new in zip(terms, terms[1:]):
        end, rebuilt = len(text), []  # (new ancestor, the old one it replaces), root first
        while prev.rule is None:  # an ancestor: step both terms towards the redex
            rebuilt.append((new, prev))  # and take the text after the child off `end`
            if not isinstance(prev, Meet):  # `)`, or none after `mu x. `
                end -= 0 if isinstance(prev, Mu) else 1
                prev, new = prev.body, new.body
            elif prev.left is new.left:  # the left child is kept: the redex is right, before `)`
                end -= 1
                prev, new = prev.right, new.right
            else:  # the redex is left, before `, R)`
                end -= widths[id(prev.right)] + 3
                prev, new = prev.left, new.left
        redex, rule = prev, prev.rule
        start = end - widths[id(redex)]
        if rule == "peb":  # peb(B) -> box<+(-+)>(B): only the head changes
            head = _head(new, heads)
            text = "".join((text[:start], head, text[start + 4:]))
            grown = len(head) - 4
        elif rule == "box-box":  # box<S>(box<T>(B)) -> box<ST>(B): B, one `)` and the rest stay
            head = _head(new, heads)
            b = end - 2 - widths[id(new.body)]  # where B starts
            text = "".join((text[:start], head, text[b:end - 1], text[end:]))
            grown = len(head) - 1 - (b - start)
        else:
            if isinstance(new, Src):
                piece = _head(new, heads)
            elif rule == "mu-drop":  # mu x. B -> B
                piece = text[end - widths[id(new)]:end]
            else:  # box<S>(meet(L, R)) -> meet(box<S>(L), box<S>(R)), and so under mu x.
                close = ")" if rule == "box-meet" else ""
                inner = end - len(close) - widths[id(redex.body)]
                mid = inner + 5 + widths[id(redex.body.left)]  # the end of L
                left = text[start:inner] + text[inner + 5:mid] + close
                right = text[start:inner] + text[mid + 2:end - len(close) - 1] + close
                widths[id(new.left)], widths[id(new.right)] = len(left), len(right)
                piece = "meet(%s, %s)" % (left, right)
            text = "".join((text[:start], piece, text[end:]))
            grown = len(piece) - (end - start)
        widths[id(new)] = widths[id(redex)] + grown
        for node, old in rebuilt:
            widths[id(node)] = widths[id(old)] + grown
        yield text


# ---------------------------------------------------------------------------
# collapse


def _contract(t: ProdTerm, rule: str, memo: dict) -> ProdTerm:
    """The contractum of the redex `t`; `memo` maps (outer, inner) sequence
    pairs to their composition, so a pair is composed once per memo."""
    if rule == "peb":
        return Box(PEB_SEQ, t.body)
    if rule == "box-box":
        key = (t.seq, t.body.seq)
        seq = memo.get(key)
        if seq is None:
            seq = memo[key] = compose(t.seq, t.body.seq)
        return Box(seq, t.body.body)
    if rule == "box-meet":
        return Meet(Box(t.seq, t.body.left), Box(t.seq, t.body.right))
    if rule == "box-src":
        return Src(interpret(t.seq, t.body.value))
    if rule == "mu-var":
        return Src(0)
    if rule == "mu-box":
        return Src(least_fixed_point(t.body.seq))
    if rule == "mu-meet":
        return Meet(Mu(t.name, t.body.left), Mu(t.name, t.body.right))
    if rule == "mu-drop":
        return t.body
    if rule == "meet-src":
        return Src(min(t.left.value, t.right.value))
    raise AssertionError(rule)


def _replace_child(t: ProdTerm, i: int, sub: ProdTerm) -> ProdTerm:
    cls = type(t)  # no node class has subclasses
    if cls is Box:
        return Box(t.seq, sub)
    if cls is Mu:
        return Mu(t.name, sub)
    if cls is Peb:
        return Peb(sub)
    if cls is Meet:
        return Meet(sub, t.right) if i == 0 else Meet(t.left, sub)
    raise AssertionError


def _first_redex(t: ProdTerm):
    """The leftmost-outermost redex of `t` as (redex, rule, chain), or None.
    A chain is None at the root, else (parent, child index, parent's chain),
    linked once as the preorder walk, on an explicit stack, reaches a node."""
    todo = [(t, None)]
    while todo:
        t, chain = todo.pop()
        rule = t.rule
        if rule is not None:
            return t, rule, chain
        cls = type(t)  # no node class has subclasses
        if cls is Meet:
            todo += ((t.right, (t, 1, chain)), (t.left, (t, 0, chain)))
        elif cls is not Src and cls is not Var:
            todo.append((t.body, (t, 0, chain)))
    return None


def collapse_trace(t: ProdTerm, memo: dict | None = None):
    """Leftmost-outermost rewrite steps down to a numeral.

    Returns the list of (rule name, term after the step); empty when the
    term already is a numeral.  Each step contracts the redex `_first_redex`
    finds and rebuilds the ancestors along its chain, bottom up, each with
    its other child kept by identity; a contractum is a new node or the
    redex's body.  So the nodes a step changes form one path from the root
    to the redex, which `derivation_texts` walks with no search.  Box-box
    steps look their composition up in `memo` and add it there on a miss:
    the collapses of one analysis share one dict, which lives no longer
    than the analysis (by default, one collapse).
    """
    if t.free_vars:
        raise ValueError("open term: %s" % ", ".join(sorted(t.free_vars)))
    memo = {} if memo is None else memo
    steps = []
    while True:
        hit = _first_redex(t)
        if hit is None:
            if not isinstance(t, Src):
                raise AssertionError("stuck non-numeral: %s" % pretty(t))
            return steps
        redex, rule, chain = hit
        t = _contract(redex, rule, memo)
        while chain is not None:
            parent, i, chain = chain
            t = _replace_child(parent, i, t)
        steps.append((rule, t))


# ---------------------------------------------------------------------------
# gates


class Gate:
    """The IO-sequence `star` of the production with all supplies infinite,
    whose output count is the cap, plus one transducer per stream argument."""

    __slots__ = ("star", "args", "cap", "port")

    def __init__(self, star: IOTerm, args: tuple):
        self.star = star
        self.args = args
        self.cap, self.port = interpret(star, TOP), interpret(star, 0)  # port: the output count on no input

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return "[%s](%s)" % (conat_str(self.cap), ", ".join(render(a) for a in self.args))


def gate_apply(g: Gate, children) -> ProdTerm:
    """Meet of the cap port with one box per stream argument.

    The cap port is src(k) for a finite star sequence and box(star)(src(0))
    otherwise; an all-plus star contributes nothing and is omitted (unless
    the gate is nullary).
    """
    children = list(children)
    if len(children) != g.arity:
        raise ValueError("gate arity mismatch: expected %d children, got %d" % (g.arity, len(children)))
    parts = []
    if not is_top(g.port):
        parts.append(Src(g.port) if g.star.finite else Box(g.star, Src(0)))
    parts.extend(Box(seq, child) for seq, child in zip(g.args, children))
    if not parts:  # nullary gate with an all-plus star
        return Src(g.port)
    return meet_all(parts)
