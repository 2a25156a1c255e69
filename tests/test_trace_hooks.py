"""The traced benchmark run wraps analyzer functions at the names their
callers look them up by; every such name must still be there."""

import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "hook",
    [tracing.ROOT, *tracing.HOOKS, tracing.Hook("solver", "prodcheck.solver", "build_graph", "")],
    ids=lambda h: "%s:%s" % (h.span, h.caller or "-"),
)
def test_hook_present(hook):
    tracing.check_hook(hook)


def test_tracer_counts_one_analysis(capsys):
    """The wrappers see the work of one decide and one oracle-check analysis
    of pascal, whose diagram closes by repetition, and are taken out again
    when the pass ends."""
    import prodcheck.cli as cli
    import prodcheck.solver as solver
    import prodcheck.translate as translate
    from conftest import spec_path

    tracer = tracing.Tracer()
    with tracer:
        for mode in ("decide", "oracle-check"):
            assert tracer.root(cli.main)([str(spec_path("pascal")), "--mode", mode]) == 0
    assert "productive" in capsys.readouterr().out
    metrics = tracer.pass_metrics("corpus")
    assert not tracer.unknown_rules
    for name in ("solver.graph_nodes", "solver.columns", "prodterm.steps"):
        assert metrics[name] > 0, name
    assert translate.solve is solver.solve


def test_tracer_counts_every_oracle_game(capsys):
    """Oracle-check of morse_dol and ternary_morse_flat plays 5 function
    games (one unary function at supplies 0..4) and goes through
    `do_low_constant` once per constant (2) on each spec, even where the
    other constant's enumeration already decided it."""
    import prodcheck.cli as cli
    from conftest import spec_path

    tracer = tracing.Tracer()
    with tracer:
        for name in ("morse_dol", "ternary_morse_flat"):
            assert tracer.root(cli.main)([str(spec_path(name)), "--mode", "oracle-check"]) == 0
    assert "agree" in capsys.readouterr().out
    assert tracer.pass_metrics("corpus")["dogame.calls"] == 14


@pytest.mark.parametrize(
    "name, expected",
    [
        ("prefix20", (41, 20, 20, 20, 21, 23)),
        ("ring6", (138, 36, 66, 11, 66, 19)),
    ],
)
def test_tracer_counts_one_collapse(name, expected, capsys):
    """One decide of a cons prefix and of a ring: the tracer sees every
    collapse step, and a `compose` call on each box-box step that misses
    the analysis's memo, fast path or not."""
    import prodcheck.cli as cli
    from conftest import spec_path

    tracer = tracing.Tracer()
    with tracer:
        tracer.root(cli.main)([str(spec_path(name)), "--mode", "decide"])
    assert "productive" in capsys.readouterr().out
    metrics = tracer.pass_metrics("collapse")
    names = ("prodterm.steps", "prodterm.steps.peb", "prodterm.steps.box-box",
             "ioalg.compose_calls", "ioalg.max_seq_len", "prodterm.max_term_nodes")
    assert tuple(metrics[n] for n in names) == expected
