"""Byte-for-byte CLI outputs for the corpus specs and generated systems.

Each case runs the CLI on one spec of `tests/data/` under one flag set and
compares stdout and the exit code with the file recorded in `tests/golden/`.
The first line of a golden file is ``exit: N``; stdout follows.

The generated specs are larger than the paper's: a cyclic chain of 16
one-step functions, a ring of 6 constants over a halving function, and a
constant behind a cons prefix of 20 elements.  They run under the text
report and the equation and diagram dumps.

`generated.txt` pins the outputs of `specgen.random_flat_spec` seeds 0-99
at feedback bounds 1 and 2 under six flag sets, one line per run with the
exit code and a short hash of stdout and of stderr.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

and name the changed specs, seeds and flag sets in CHANGES.md.
"""

import gc
import hashlib
import os
import pathlib
import random
import tempfile

import pytest

import specgen
from conftest import CORPUS, spec_path
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

FLAG_SETS = {
    "text": [],
    "json": ["--report", "json"],
    "oracle": ["--mode", "oracle-check"],
    "dumps": ["--mode", "gates", "--dump-equations", "--dump-diagram"],
}

GENERATED = {"chain16": specgen.chain(16), "ring6": specgen.ring(6), "prefix20": specgen.prefix(20)}

CASES = [(name, flags) for name in CORPUS for flags in FLAG_SETS] + [
    (name, flags) for name in GENERATED for flags in ("text", "dumps")
]

RANDOM_FLAG_SETS = {
    "default": [],
    "gates": ["--mode", "gates"],
    "oracle": ["--mode", "oracle-check"],
    "json": ["--report", "json"],
    "equations": ["--dump-equations"],
    "diagram": ["--dump-diagram"],
}


def _render(name: str, flags: str) -> str:
    code, out, _ = run_cli([str(spec_path(name))] + FLAG_SETS[flags])
    return "exit: %d\n%s" % (code, out)


def _golden_path(name: str, flags: str) -> pathlib.Path:
    return GOLDEN / ("%s.%s.txt" % (name, flags))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _random_lines():
    """One line per (feedback bound, seed, flag set): the exit code and the
    hashes of stdout and stderr.  Each spec is read from a relative path
    named after its bound and seed, so the file name in a diagnostic is the
    same wherever this runs.  All 1,200 runs leave a few thousand objects
    in garbage cycles, so the collector is off meanwhile, which saves about
    a tenth of the time."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        gc.disable()
        try:
            for fb in (1, 2):
                for seed in range(100):
                    path = "fb%d-seed%d.spec" % (fb, seed)
                    pathlib.Path(path).write_text(specgen.random_flat_spec(random.Random(seed), max_feedback=fb))
                    for name, flags in RANDOM_FLAG_SETS.items():
                        code, out, err = run_cli([path] + flags)
                        lines.append(
                            "fb=%d seed=%d %s: exit=%d stdout=%s stderr=%s"
                            % (fb, seed, name, code, _digest(out), _digest(err))
                        )
        finally:
            gc.enable()
            os.chdir(cwd)
    return lines


@pytest.mark.parametrize("name,flags", CASES)
def test_golden_output(name, flags):
    expected = _golden_path(name, flags).read_text(encoding="utf-8")
    assert _render(name, flags) == expected


def test_generated_data_files_come_from_specgen():
    for name, text in GENERATED.items():
        assert spec_path(name).read_text() == text, name


def test_random_flat_spec_outputs():
    want = (GOLDEN / "generated.txt").read_text(encoding="utf-8").splitlines()
    got = _random_lines()
    assert len(got) == len(want)
    changed = ["%s (recorded: %s)" % (line, old.split(": ", 1)[1]) for line, old in zip(got, want) if line != old]
    assert not changed, "outputs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, flags in CASES:
        _golden_path(name, flags).write_text(_render(name, flags), encoding="utf-8")
    (GOLDEN / "generated.txt").write_text("\n".join(_random_lines()) + "\n", encoding="utf-8")
