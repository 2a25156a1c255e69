"""Byte-for-byte CLI outputs for the corpus specs and generated systems.

Each case runs the CLI on one spec of `tests/data/` under one flag set and
compares stdout and the exit code with the file recorded in `tests/golden/`.
The first line of a golden file is ``exit: N``; stdout follows.

The generated specs are larger than the paper's: a cyclic chain of 16
one-step functions, a ring of 6 constants over a halving function, and a
constant behind a cons prefix of 20 elements.  They run under the text
report and the equation and diagram dumps.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib

import pytest

from conftest import CORPUS, spec_path
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

FLAG_SETS = {
    "text": [],
    "json": ["--report", "json"],
    "oracle": ["--mode", "oracle-check"],
    "dumps": ["--mode", "gates", "--dump-equations", "--dump-diagram"],
}

GENERATED = ["chain16", "ring6", "prefix20"]

CASES = [(name, flags) for name in CORPUS for flags in FLAG_SETS] + [
    (name, flags) for name in GENERATED for flags in ("text", "dumps")
]


def _render(name: str, flags: str) -> str:
    code, out, _ = run_cli([str(spec_path(name))] + FLAG_SETS[flags])
    return "exit: %d\n%s" % (code, out)


def _golden_path(name: str, flags: str) -> pathlib.Path:
    return GOLDEN / ("%s.%s.txt" % (name, flags))


@pytest.mark.parametrize("name,flags", CASES)
def test_golden_output(name, flags):
    expected = _golden_path(name, flags).read_text(encoding="utf-8")
    assert _render(name, flags) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, flags in CASES:
        _golden_path(name, flags).write_text(_render(name, flags), encoding="utf-8")
