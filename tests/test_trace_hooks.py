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
