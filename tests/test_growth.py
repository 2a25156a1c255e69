"""Growth contracts: counts of work that grow no faster than a family's
documented class, read at sizes n, 2n and 4n.  They assert ratios per
doubling, not bytes or seconds, so they hold across interpreter versions
and hosts: at most 2.2 for a linear class, 4.5 for a quadratic one."""

import tracemalloc

import pytest

import prodcheck.equations as equations
import prodcheck.prodterm as prodterm
import prodcheck.solver as solver
import prodcheck.streamspec as streamspec
import prodcheck.translate as translate
from prodcheck.equations import arg
from prodcheck.solver import solve
from prodcheck.streamspec import parse, validate

import specgen


def _ratios(counts):
    return [b / a for a, b in zip(counts, counts[1:])]


def _sweep_columns(monkeypatch, text):
    """The columns each feedback sweep of `translate_symbols` reads, up to
    the second strip of the repetition that closes it, in solving order."""
    found = []

    def traced(*args, **kwargs):
        witness: list = []
        value = solve(*args, trace=witness, **kwargs)
        if witness:
            found.append(witness[-1][1] + 1)
        return value

    monkeypatch.setattr(translate, "solve", traced)
    translate.translate_symbols(parse(text))
    return found


@pytest.mark.parametrize("family, sizes", [("chain", (32, 64, 128)), ("two_rule_width", (64, 128, 256))])
def test_feedback_sweeps_read_linearly_many_columns(monkeypatch, family, sizes):
    """A chain of n one-step functions and a two-rule width of k each close
    their feedback sweep after about n (or k) columns."""
    sweeps = [_sweep_columns(monkeypatch, getattr(specgen, family)(n)) for n in sizes]
    assert sweeps[0] and len({len(s) for s in sweeps}) == 1, sweeps
    for per_size in zip(*sweeps):
        assert max(_ratios(per_size)) <= 2.2, per_size
    if family == "chain":  # the same sweeps with the functions renamed
        assert [_sweep_columns(monkeypatch, specgen.chain(n, "g")) for n in sizes] == sweeps


def _calls(monkeypatch, module, name, run):
    """How many times `run()` calls `module.name`."""
    calls = []

    def counted(*args, inner=getattr(module, name)):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    try:
        run()
    finally:
        monkeypatch.undo()
    return len(calls)


def test_chain_gates_prepend_and_validate_in_constant_work(monkeypatch):
    """The n functions of a chain share one star value and one argument
    value, so `translate_symbols` prepends each distinct word to each
    distinct value once: as often at n = 32 as at 128, again as often in
    a second analysis (no memo outlives one), and as often with the
    functions renamed.  Each table has the catch-all row f_i(x:s), so
    `validate` starts no exhaustiveness walk, whose first step links the
    table's rows."""
    prepends, walks = [], []
    for name in ("f", "g"):
        for n in (32, 64, 128):
            spec = parse(specgen.chain(n, name))
            for _ in range(2):
                prepends.append(_calls(monkeypatch, solver, "prepend", lambda: translate.translate_symbols(spec)))
            walks.append(_calls(monkeypatch, streamspec, "_linked", lambda: validate(spec)))
    assert len(set(prepends)) == 1, prepends
    assert walks == [0] * 6, walks


def test_push_back_chain_finitizes_in_linear_walks(monkeypatch):
    """A push-back chain of n functions has one clean cycle of n argument
    equations, all at one supply level, so no ancestor of a new equation
    can gain a pseudo-cycle: `finitize` makes two clean walks per equation
    and confirms no candidate, not even the equation itself.  The nodes
    those walks yield grow at most quadratically, until the ancestor walk
    is replaced by a summary (ROADMAP item 19)."""
    sizes = (64, 128, 256)
    calls, nodes = [], []
    for n in sizes:
        yielded = []

        def counted(starts, successors, inner=equations.reachable):
            calls[-1] += 1
            for w in inner(starts, successors):
                yielded.append(None)
                yield w

        calls.append(0)
        monkeypatch.setattr(equations, "reachable", counted)
        translate.translate_symbols(parse(specgen.push_back_chain(n)))
        monkeypatch.undo()
        nodes.append(len(yielded))
    assert calls == [2 * n for n in sizes], calls
    assert max(_ratios(nodes)) <= 4.5, nodes


def test_chain_cycle_checks_start_nowhere(monkeypatch):
    """No right-hand side of a chain names a variable with only infima
    above it, and no rule's right-hand side is a bare call, so the
    silent-cycle check of `build_graph` and the guardedness walk of
    `classify` each start from no root, not from every node or symbol."""
    roots = {}

    def recorder(module):
        def recorded(starts, successors, inner=module.feedback_order):
            starts = list(starts)
            roots.setdefault(module.__name__, []).append(len(starts))
            return inner(starts, successors)
        return recorded

    for module in (solver, streamspec):
        monkeypatch.setattr(module, "feedback_order", recorder(module))
    translate.translate_symbols(parse(specgen.chain(128)))
    assert roots == {"prodcheck.solver": [0], "prodcheck.streamspec": [0]}, roots


def test_solver_memory_grows_at_most_quadratically():
    """Two-rule width k sweeps about k columns of O(k) nodes, each kept
    once, so `solve`'s traced peak grows at most quadratically in k, until
    gates are computed without a column sweep."""
    peaks = []
    for k in (128, 256, 512):
        iospec = translate.translate_symbols(parse(specgen.two_rule_width(k)))[1]
        tracemalloc.start()
        try:
            solve(iospec, arg("f", 1, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(_ratios(peaks)) <= 4.5, peaks


def test_unfolding_holds_linear_memory():
    """Every C_i of a constant comb is unfolded under the binders of C_0 to
    C_{i-1}, and D once below each of them.  The open binders are one set,
    not a copy per pending subterm, so `translate_constant`'s traced peak
    grows linearly in n.  The bound is 2.5, not 2.2: lists and sets grow
    their storage in steps, so a linear peak can read a little over 2."""
    peaks = []
    for n in (250, 500, 1000):
        spec = parse(specgen.constant_comb(n))
        gates = translate.translate_symbols(spec)[0]
        tracemalloc.start()
        try:
            translate.translate_constant(spec, gates, "C0")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(_ratios(peaks)) <= 2.5, peaks


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: each collapse step rebuilds every ancestor of its redex")
def test_comb_collapse_rebuilds_linearly(monkeypatch):
    """A comb n deep collapses in O(n) steps, but each step rebuilds the
    spine above its redex, so the ancestors rebuilt grow quadratically
    until productions come from one elimination, not from the tree."""
    rebuilt = []
    for n in (50, 100, 200):
        calls = []

        def counted(t, i, sub, replace=prodterm._replace_child):
            calls.append(None)
            return replace(t, i, sub)

        monkeypatch.setattr(prodterm, "_replace_child", counted)
        translate.decide(parse(specgen.comb(n)), root="C")
        monkeypatch.undo()
        rebuilt.append(len(calls))
    assert max(_ratios(rebuilt)) <= 2.2, rebuilt
