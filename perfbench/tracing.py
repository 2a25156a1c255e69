"""Spans and work counts for the traced run, recorded from outside the analyzer.

The analyzer has no instrumentation of its own, so the traced run replaces
its public functions, for the length of a pass, by wrappers installed at the
names their callers look them up by (`prodcheck.translate.solve` rather than
`prodcheck.solver.solve`).  Each wrapper records a span: name, start, end and
the span that called it; spans of one analysis share its id.  A layer's self
time is its spans' durations minus the part covered by their child spans.

Work counts that need extra computation (graph sizes, term sizes) run in a
`bench.count` span, so their time is taken out of every layer's self time
and shows only in the traced run's overhead.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from dataclasses import dataclass

# The collapse rules of prodterm; a step under any other name is an error.
RULES = (
    "peb",
    "box-box",
    "box-meet",
    "box-src",
    "mu-var",
    "mu-box",
    "mu-meet",
    "mu-drop",
    "meet-src",
)


class GuardError(Exception):
    """A wrapped name or a layer's spans are missing."""


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str  # the module the caller looks the name up in
    attr: str
    caller: str  # a function of `module` or `caller_module` whose code names attr
    caller_module: str = ""

    @property
    def span(self) -> str:
        return "%s.%s" % (self.module.rsplit(".", 1)[-1], self.attr)


ROOT = Hook("cli", "prodcheck.cli", "main", "")

HOOKS = (
    Hook("streamspec", "prodcheck.cli", "parse", "main"),
    Hook("streamspec", "prodcheck.cli", "validate", "main"),
    Hook("streamspec", "prodcheck.cli", "classify", "main"),
    Hook("streamspec", "prodcheck.translate", "classify", "decide"),
    Hook("translate", "prodcheck.cli", "translate_symbols", "main"),
    Hook("translate", "prodcheck.cli", "decide", "main"),
    Hook("translate", "prodcheck.translate", "translate_constant", "decide"),
    Hook("equations", "prodcheck.equations", "finitize", "translate_symbols", "prodcheck.translate"),
    Hook("solver", "prodcheck.translate", "solve", "translate_symbols"),
    Hook("prodterm", "prodcheck.translate", "collapse_trace", "decide"),
    Hook("ioalg", "prodcheck.prodterm", "compose", "_contract"),
    Hook("ioalg", "prodcheck.prodterm", "least_fixed_point", "_contract"),
    Hook("dogame", "prodcheck.dogame", "do_low_function", "_oracle_check", "prodcheck.cli"),
    Hook("dogame", "prodcheck.dogame", "do_low_constant", "_oracle_check", "prodcheck.cli"),
)

# Per-layer self times: metric -> the spans it sums.
SELF_MS = {
    "streamspec.parse_ms": ("cli.parse",),
    "streamspec.validate_ms": ("cli.validate",),
    "streamspec.classify_ms": ("cli.classify", "translate.classify"),
    "equations.finitize_ms": ("equations.finitize",),
    "solver.solve_ms": ("translate.solve",),
    "translate.gates_self_ms": ("cli.translate_symbols",),
    "translate.decide_self_ms": ("cli.decide",),
    "translate.constant_ms": ("translate.translate_constant",),
    "prodterm.collapse_self_ms": ("translate.collapse_trace",),
    "ioalg.compose_ms": ("prodterm.compose",),
    "ioalg.lfp_ms": ("prodterm.least_fixed_point",),
    "cli.self_ms": ("cli.main",),
}

# The game oracle runs only in oracle-check mode, that is only on `corpus`,
# so its times read 0 on the other workloads; they are printed, not reported.
DIAGNOSTIC_MS = {
    "dogame.function_ms": ("dogame.do_low_function",),
    "dogame.constant_ms": ("dogame.do_low_constant",),
}

CALLS = {
    "streamspec.classify_calls": ("cli.classify", "translate.classify"),
    "solver.solve_calls": ("translate.solve",),
    "ioalg.compose_calls": ("prodterm.compose",),
    "dogame.calls": ("dogame.do_low_function", "dogame.do_low_constant"),
}

# Counts the wrappers accumulate per pass; the `max_` ones keep a maximum.
COUNTS = (
    "streamspec.rules",
    "equations.kept",
    "solver.graph_nodes",
    "solver.columns",
    "prodterm.steps",
    *("prodterm.steps." + rule for rule in RULES),
    "prodterm.max_term_nodes",
    "ioalg.max_seq_len",
    "cli.output_bytes",
)

UNITS = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTS},
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

# Each layer must record spans on the workload it is heavy on.
HEAVY = {
    "streamspec": "corpus",
    "translate": "corpus",
    "dogame": "corpus",
    "equations": "chain",
    "solver": "chain",
    "prodterm": "collapse",
    "ioalg": "collapse",
    "cli": "collapse",
}


@dataclass(frozen=True)
class Span:
    analysis: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _names_in(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_in(const)
    return names


def check_hook(hook: Hook):
    """Raise GuardError unless the name exists where its caller looks it up."""
    try:
        module = importlib.import_module(hook.module)
    except ImportError as exc:
        raise GuardError("cannot import %s: %s" % (hook.module, exc)) from exc
    if not callable(getattr(module, hook.attr, None)):
        raise GuardError("%s.%s is gone" % (hook.module, hook.attr))
    if not hook.caller:
        return
    caller_module = importlib.import_module(hook.caller_module or hook.module)
    caller = getattr(caller_module, hook.caller, None)
    if caller is None or hook.attr not in _names_in(caller.__code__):
        raise GuardError(
            "%s.%s no longer calls %s.%s"
            % (caller_module.__name__, hook.caller, hook.module, hook.attr)
        )


def _term_sizes(terms):
    """Largest node count of any term, and the longest prefix plus loop of
    any box in them.  Terms of one trace share subterms, so sizes are
    memoized per object."""
    memo: dict = {}
    for root in terms:
        stack = [root]
        while stack:
            t = stack[-1]
            if id(t) in memo:
                stack.pop()
                continue
            kids = [getattr(t, a) for a in ("body", "left", "right") if hasattr(t, a)]
            pending = [c for c in kids if id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            seq = getattr(t, "seq", None)
            own = len(seq.prefix) + len(seq.loop) if seq is not None else 0
            memo[id(t)] = (
                1 + sum(memo[id(c)][0] for c in kids),
                max([own] + [memo[id(c)][1] for c in kids]),
            )
    return max(memo[id(t)][0] for t in terms), max(memo[id(t)][1] for t in terms)


class Tracer:
    """Installs the wrappers and records one pass of spans and counts."""

    def __init__(self):
        for hook in (ROOT,) + HOOKS:
            check_hook(hook)
        check_hook(Hook("solver", "prodcheck.solver", "build_graph", ""))
        self._build_graph = importlib.import_module("prodcheck.solver").build_graph
        self._saved = []
        self._stack: list = []
        self._analysis = -1
        self.reset()

    def reset(self):
        self.spans: list = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.unknown_rules: set = set()

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((parent, name, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        end = time.perf_counter()
        self._stack.pop()
        parent, name, start = self.spans[sid]
        self.spans[sid] = Span(self._analysis, sid, parent, name, start, end)

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after:
                sid = self._open("bench.count")
                try:
                    after(args, result, state)
                finally:
                    self._close(sid)
            return result

        return wrapper

    def root(self, main):
        """`main` wrapped in the root span of a new analysis."""
        wrapped = self._wrap(ROOT.span, main)

        def analysis(argv):
            self._analysis += 1
            return wrapped(argv)

        return analysis

    # -- counters ------------------------------------------------------

    def _after_parse(self, args, spec, state):
        self.counts["streamspec.rules"] += len(spec.stream_rules) + len(spec.data_rules)

    def _after_finitize(self, args, iospec, state):
        self.counts["equations.kept"] += len(iospec.equations)

    @staticmethod
    def _before_solve(args, kwargs):
        witness = args[3] if len(args) > 3 else kwargs.get("trace")
        if witness is None:
            witness = kwargs["trace"] = []
        return witness

    def _after_solve(self, args, result, witness):
        self.counts["solver.graph_nodes"] += self._build_graph(args[0], args[1]).size
        if witness:
            self.counts["solver.columns"] += witness[-1][1] + 1

    def _after_collapse(self, args, steps, state):
        self.counts["prodterm.steps"] += len(steps)
        for rule, _ in steps:
            if rule in RULES:
                self.counts["prodterm.steps." + rule] += 1
            else:
                self.unknown_rules.add(rule)
        nodes, longest = _term_sizes([args[0]] + [t for _, t in steps])
        self.counts["prodterm.max_term_nodes"] = max(self.counts["prodterm.max_term_nodes"], nodes)
        self.counts["ioalg.max_seq_len"] = max(self.counts["ioalg.max_seq_len"], longest)

    # -- installation --------------------------------------------------

    def __enter__(self):
        hooks = {
            ("prodcheck.cli", "parse"): (None, self._after_parse),
            ("prodcheck.equations", "finitize"): (None, self._after_finitize),
            ("prodcheck.translate", "solve"): (self._before_solve, self._after_solve),
            ("prodcheck.translate", "collapse_trace"): (None, self._after_collapse),
        }
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr)
            before, after = hooks.get((hook.module, hook.attr), (None, None))
            self._saved.append((module, hook.attr, fn))
            setattr(module, hook.attr, self._wrap(hook.span, fn, before, after))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    # -- one pass --------------------------------------------------------

    def pass_metrics(self, workload: str) -> dict:
        """Self times (ms), calls and counts of the pass recorded so far."""
        if self.unknown_rules:
            raise GuardError("unknown collapse rules %s" % sorted(self.unknown_rules))
        covered: Counter = Counter()
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for s in self.spans:
            self_s[s.name] += s.end - s.start - covered[s.id]
            calls[s.name] += 1
        layer_calls: Counter = Counter()
        for hook in (ROOT,) + HOOKS:
            layer_calls[hook.layer] += calls[hook.span]
        for layer, heavy_on in HEAVY.items():
            if heavy_on == workload and not layer_calls[layer]:
                raise GuardError("layer %s recorded no span on %s" % (layer, workload))
        metrics = {}
        for table in (SELF_MS, DIAGNOSTIC_MS):
            for metric, names in table.items():
                metrics[metric] = 1000.0 * sum(self_s[n] for n in names)
        for metric, names in CALLS.items():
            metrics[metric] = sum(calls[n] for n in names)
        metrics.update(self.counts)
        return metrics
