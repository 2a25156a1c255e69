"""End-to-end decision pipeline.

Stream functions are translated into gates by solving their argument and
star equations; stream constants are unfolded into closed production terms
over those gates; collapsing the term yields the constant's production, and
the verdict follows from that number and how much of the specification the
constant touches (pure, flat, or friendly nesting).
"""

from __future__ import annotations

from . import equations as eq
from .equations import Caps, TranslationError
from .ioalg import CoNat, is_top
from .prodterm import Gate, Mu, Peb, ProdTerm, Var, collapse_trace, gate_apply, meet_all
from .solver import build_graph, evaluate, solve
from .streamspec import (
    App,
    Classification,
    Cons,
    StreamSpec,
    SVar,
    classify,
    feedback_order,
    reachable_symbols,
)


def translate_symbols(spec: StreamSpec, cls: Classification | None = None, caps: Caps | None = None):
    """Gate table for every stream function of the specification."""
    cls = cls or classify(spec)
    caps = caps or Caps()
    functions = spec.signature.stream_functions()
    roots = []
    for name in functions:
        roots.append(eq.star(name))
        roots.extend(eq.arg(name, i, 0) for i in range(1, spec.signature.symbols[name].stream_arity + 1))
    iospec = eq.finitize(cls, roots, cap=caps.finitize_cap)
    # finitize gives every root an equation, and all roots share one graph
    refs = build_graph(iospec, roots[0]).refs if roots else {}
    # the diagram only for a feedback vertex set; the rest is acyclic over it
    feedback, order = feedback_order(roots, refs.__getitem__)
    values = {v: solve(iospec, v, max_columns=caps.max_columns) for v in order if v in feedback}
    prepends: dict = {}  # (word, value) -> normal form, shared by this call's evaluations
    for v in order:
        if v not in feedback:
            values[v] = evaluate(iospec.equations[v], values, caps.max_columns, prepends)
    gates = {}
    for name in functions:
        info = spec.signature.symbols[name]
        args = tuple(values[eq.arg(name, i, 0)] for i in range(1, info.stream_arity + 1))
        gates[name] = Gate(values[eq.star(name)], args)
    return gates, iospec


def translate_constant(spec: StreamSpec, gates: dict, name: str) -> ProdTerm:
    """Closed production term for a stream constant.

    Constants unfold under a mu binder; a constant whose binder is open
    becomes a back reference, cons a pebble, and a stream function
    application its gate applied to the translated arguments.  A preorder
    walk on an explicit stack of terms and markers `(symbol, n)`, which
    build a node from the last n translations (None: a pebble).
    """
    sig = spec.signature
    if name not in sig.symbols or sig.symbols[name].kind != "const":
        raise TranslationError("%r is not a stream constant" % name)
    built: list = []  # translations waiting for their parent's build step
    path: set = set()  # constants whose marker is on the stack: the open binders
    todo: list = [App(name, ())]
    while todo:
        term = todo.pop()
        if isinstance(term, tuple):
            sym, n = term
            parts = built[len(built) - n :]
            del built[len(built) - n :]
            if sym is None:
                built.append(Peb(parts[0]))
            elif sym in path:  # a constant's marker closes its binder
                path.remove(sym)
                built.append(Mu(sym, meet_all(parts)))
            else:
                built.append(gate_apply(gates[sym], parts))
        elif isinstance(term, Cons):
            todo += ((None, 1), term.tail)
        elif isinstance(term, SVar):
            raise TranslationError("stream variable %r reachable from constant %r" % (term.name, name))
        elif term.sym in path:
            built.append(Var(term.sym))
        elif sig.symbols[term.sym].kind == "const":
            rules = spec.rules_of(term.sym)
            if not rules:
                raise TranslationError("stream constant %r has no defining rule" % term.sym)
            path.add(term.sym)
            todo.append((term.sym, len(rules)))
            todo.extend(r.rhs for r in reversed(rules))
        else:
            args = term.args[: sig.symbols[term.sym].stream_arity]
            todo.append((term.sym, len(args)))
            todo.extend(reversed(args))
    return built[0]


class Verdict:
    __slots__ = ("constant", "production", "context", "answer", "trace")

    def __init__(self, constant: str, production: CoNat, context: str, answer: str, trace: list):
        self.constant = constant
        self.production = production
        self.context = context  # "pure" | "flat" | "friendly-nesting"
        self.answer = answer  # "productive" | "not-productive" | "not-do-productive" | "unknown"
        self.trace = trace  # (rule or None, production term) per step, the untouched term first

    def sentence(self) -> str:
        if self.answer == "productive":
            return "The specification of %s is productive." % self.constant
        if self.answer == "unknown":
            return "Failed to prove productivity of %s." % self.constant
        k = int(self.production)
        if self.answer == "not-do-productive":
            return "%s is not data-obliviously productive (production = %d)." % (self.constant, k)
        return "%s is not productive (production = %d)." % (self.constant, k)


def _context_for(cls: Classification, constant: str) -> str:
    reach = reachable_symbols(cls, constant)
    classes = {cls.symbol_class[s] for s in reach}
    if "friendly" in classes:
        return "friendly-nesting"
    if "flat" in classes:
        return "flat"
    return "pure"


def decide(spec: StreamSpec, caps: Caps | None = None, root: str | None = None, gates: dict | None = None,
           cls: Classification | None = None):
    """Analyze every declared stream constant (or just `root`)."""
    caps = caps or Caps()
    cls = cls or classify(spec)
    if gates is None:
        gates, _ = translate_symbols(spec, cls, caps)
    # a root that is no stream constant fails in translate_constant
    constants = spec.signature.stream_constants() if root is None else [root]
    verdicts = {}
    compositions: dict = {}  # box-box contractions, shared by this analysis's collapses
    for name in constants:
        term = translate_constant(spec, gates, name)
        trace = collapse_trace(term, compositions)
        k = (trace[-1][1] if trace else term).value
        context = _context_for(cls, name)
        if is_top(k):
            answer = "productive"
        elif context == "pure":
            answer = "not-productive"
        elif context == "flat":
            answer = "not-do-productive"
        else:
            answer = "unknown"
        verdicts[name] = Verdict(name, k, context, answer, [(None, term)] + trace)
    return verdicts, gates, cls
