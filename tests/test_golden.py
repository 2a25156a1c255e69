"""Byte-for-byte CLI outputs for the corpus specs, and one recorded line per
run for a few thousand more.

Each case of `test_golden_output` runs the CLI on one spec of `tests/data/`
under one flag set and compares stdout and the exit code with the file
recorded in `tests/golden/`.  The first line of a golden file is
``exit: N``; stdout follows.  The generated specs there are larger than the
paper's: a cyclic chain of 16 one-step functions, a ring of 6 constants
over a halving function, and a constant behind a cons prefix of 20
elements.  They run under the text report and the equation and diagram
dumps.

`runs.txt` records 3,778 in-process runs, one line each:

    do_m.spec --report json: exit=1 stdout=c046546736de stderr=e3b0c44298fc M=1:not-do-productive

that is, the spec's file name and the argv after it, the exit code, the
first 12 hex digits of the sha256 of stdout and of stderr, and, for a run
that decides with the text or the JSON report, each constant as
``name=production:verdict``.  The runs are:
- the `tests/data` specs, `random_flat_spec` seeds 0-149 at feedback
  bounds 1 and 2, and `random_mixed_spec` seeds 0-149, each in
  oracle-check with default caps, with `--oracle-prod-cap 8 --oracle-steps
  50`, with `--oracle-steps 3` and with `--oracle-prod-cap 4 --oracle-steps
  20`;
- the same `tests/data` specs and flat seeds, and the generator families
  `chain` 1/64, `ring` 4/8, `two_rule_width` 2/8/64, `nested_calls` 1-4,
  `push_back_chain` 2/8/32, `comb` 4/8/32 and `constant_comb` 4/8/16, each
  in decide with the text and the JSON report, in oracle-check and in gates
  with `--dump-equations --dump-diagram` (`chain` 16, `ring` 6 and `prefix`
  20 are `tests/data` specs);
- flat seeds 0-99 at both bounds also in gates and in decide with
  `--dump-equations` and with `--dump-diagram`, and the mixed seeds in
  decide with the text and the JSON report.

No run may raise, end in an undocumented exit code or write a traceback.
On a mismatch the test counts the changed runs by kind (exit code, a
constant's verdict or production, other stdout, stderr only, added,
removed) and shows the first three of each.

Re-record every golden after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

The diff of `runs.txt` names each changed run; name them in CHANGES.md.
"""

import gc
import hashlib
import json
import os
import pathlib
import random
import tempfile
import traceback

import pytest

import specgen
from conftest import CORPUS, DATA, spec_path
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
RUNS = GOLDEN / "runs.txt"

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

DOCUMENTED = {0, 1, 2, 10, 11, 12, 13, 14, 15, 16}

ORACLE_ARGS = [
    ["--mode", "oracle-check"],
    ["--mode", "oracle-check", "--oracle-prod-cap", "8", "--oracle-steps", "50"],
    ["--mode", "oracle-check", "--oracle-steps", "3"],
    ["--mode", "oracle-check", "--oracle-prod-cap", "4", "--oracle-steps", "20"],
]
REPORT_ARGS = list(FLAG_SETS.values())
BOTH = ORACLE_ARGS + [args for args in REPORT_ARGS if args not in ORACLE_ARGS]
DECIDE_ARGS = [FLAG_SETS["text"], FLAG_SETS["json"]]
FLAT_EXTRA_ARGS = [["--mode", "gates"], ["--dump-equations"], ["--dump-diagram"]]


def _render(name: str, flags: str) -> str:
    code, out, _ = run_cli([str(spec_path(name))] + FLAG_SETS[flags])
    return "exit: %d\n%s" % (code, out)


def _golden_path(name: str, flags: str) -> pathlib.Path:
    return GOLDEN / ("%s.%s.txt" % (name, flags))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _specs():
    """(file name, text, argument lists) of every spec of `runs.txt`."""
    data = [(p.name, p.read_text(), BOTH) for p in sorted(DATA.glob("*.spec"))]
    flat = [
        (
            "flat%d_%d.spec" % (fb, seed),
            specgen.random_flat_spec(random.Random(seed), max_feedback=fb),
            BOTH + FLAT_EXTRA_ARGS if seed < 100 else BOTH,
        )
        for fb in (1, 2)
        for seed in range(150)
    ]
    mixed = [
        ("mixed_%d.spec" % seed, specgen.random_mixed_spec(random.Random(seed)), ORACLE_ARGS + DECIDE_ARGS)
        for seed in range(150)
    ]
    families = [("chain%d.spec" % n, specgen.chain(n)) for n in (1, 64)]
    families += [("ring%d.spec" % n, specgen.ring(n)) for n in (4, 8)]
    families += [("width%d.spec" % k, specgen.two_rule_width(k)) for k in (2, 8, 64)]
    families += [("nested%d.spec" % n, specgen.nested_calls(n)) for n in range(1, 5)]
    families += [("push_back%d.spec" % n, specgen.push_back_chain(n)) for n in (2, 8, 32)]
    families += [("comb%d.spec" % n, specgen.comb(n)) for n in (4, 8, 32)]
    families += [("constant_comb%d.spec" % n, specgen.constant_comb(n)) for n in (4, 8, 16)]
    return data + flat + mixed + [(name, text, REPORT_ARGS) for name, text in families]


def _constants(args, code, out) -> str:
    """` name=production:verdict` for each constant a decide report names."""
    if "--mode" in args or code not in (0, 1, 2):
        return ""
    if "json" in args:
        rows = [(c["name"], c["production"], c["verdict"]) for c in json.loads(out)["constants"]]
    else:
        summary = out.partition("\n-- summary --\n")[2].splitlines()
        rows = [line.replace(" : production = ", " : ").split(" : ") for line in summary]
    return "".join(" %s=%s:%s" % tuple(row) for row in rows)


def _record():
    """The lines of `runs.txt`, and the faults: each run that raises, ends
    in an undocumented exit code or writes a traceback.  Each spec is read
    from a relative path, so the file name in a diagnostic is the same
    wherever this runs.  The runs leave a few thousand objects in garbage
    cycles, so the collector is off meanwhile, which saves about a tenth of
    the time."""
    lines, faults = [], []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        gc.disable()
        try:
            for name, text, arg_lists in _specs():
                pathlib.Path(name).write_text(text)
                for args in arg_lists:
                    run = " ".join([name] + args)
                    try:
                        code, out, err = run_cli([name] + args)
                    except Exception:  # a fault of the analyzer, named below
                        faults.append("%s: raised\n%s" % (run, traceback.format_exc()))
                        continue
                    if code not in DOCUMENTED:
                        faults.append("%s: exit code %r" % (run, code))
                    if "Traceback" in err:
                        faults.append("%s: traceback on stderr" % run)
                    lines.append(
                        "%s: exit=%s stdout=%s stderr=%s%s"
                        % (run, code, _digest(out), _digest(err), _constants(args, code, out))
                    )
        finally:
            gc.enable()
            os.chdir(cwd)
    return lines, faults


KINDS = ("exit code", "verdict or production", "other stdout", "stderr only", "added", "removed")


def _kind(was, now) -> str:
    """Which of `KINDS` a changed run is.  A run whose constants changed
    counts there even when its exit code changed too, since a decide run's
    exit code follows from its verdicts."""
    if now is None:
        return "removed"
    if was is None:
        return "added"
    code, out, _, *constants = was.split(" ")
    code2, out2, _, *constants2 = now.split(" ")
    if constants != constants2:
        return "verdict or production"
    if code != code2:
        return "exit code"
    return "other stdout" if out != out2 else "stderr only"


def _changes(recorded, new):
    """The runs that differ between two recordings, grouped by kind in the
    order of `KINDS`: kind -> [(recorded line or None, new line or None)],
    in recorded order."""
    old = dict(line.split(": ", 1) for line in recorded)
    got = dict(line.split(": ", 1) for line in new)
    groups = {kind: [] for kind in KINDS}
    for run in list(old) + [run for run in got if run not in old]:
        was, now = old.get(run), got.get(run)
        if was != now:
            groups[_kind(was, now)].append(tuple(line and "%s: %s" % (run, line) for line in (was, now)))
    return {kind: pairs for kind, pairs in groups.items() if pairs}


def _summary(groups) -> str:
    lines = ["%d runs changed; re-record if intended (see the docstring)" % sum(map(len, groups.values()))]
    for kind, pairs in groups.items():
        lines.append("%s: %d runs" % (kind, len(pairs)))
        for was, now in pairs[:3]:
            lines += ["  recorded: %s" % was, "  now:      %s" % now]
    return "\n".join(lines)


@pytest.mark.parametrize("name,flags", CASES)
def test_golden_output(name, flags):
    expected = _golden_path(name, flags).read_text(encoding="utf-8")
    assert _render(name, flags) == expected


def test_generated_data_files_come_from_specgen():
    for name, text in GENERATED.items():
        assert spec_path(name).read_text() == text, name


def test_runs_match_recording():
    lines, faults = _record()
    assert not faults, "\n".join(faults)
    runs = [line.split(": ", 1)[0] for line in lines]
    assert len(set(runs)) == len(runs), "two runs share an id"
    groups = _changes(RUNS.read_text(encoding="utf-8").splitlines(), lines)
    assert not groups, _summary(groups)


def test_changes_grouped_by_kind():
    recorded = [
        "a.spec: exit=0 stdout=111111111111 stderr=222222222222 C=inf:productive",
        "b.spec --report json: exit=0 stdout=111111111111 stderr=222222222222 C=inf:productive",
        "c.spec --dump-diagram: exit=0 stdout=111111111111 stderr=222222222222 C=1:not-productive",
        "d.spec --mode gates: exit=0 stdout=111111111111 stderr=222222222222",
        "e.spec --mode oracle-check: exit=1 stdout=111111111111 stderr=222222222222",
        "f.spec: exit=0 stdout=111111111111 stderr=222222222222",
        "h.spec: exit=0 stdout=111111111111 stderr=222222222222 C=inf:productive",
        "same.spec: exit=0 stdout=111111111111 stderr=222222222222 C=inf:productive",
    ]
    new = [
        "a.spec: exit=2 stdout=111111111111 stderr=222222222222 C=inf:productive",
        "b.spec --report json: exit=0 stdout=333333333333 stderr=222222222222 C=inf:not-do-productive",
        "c.spec --dump-diagram: exit=0 stdout=333333333333 stderr=222222222222 C=2:not-productive",
        "d.spec --mode gates: exit=0 stdout=333333333333 stderr=222222222222",
        "e.spec --mode oracle-check: exit=1 stdout=111111111111 stderr=333333333333",
        "h.spec: exit=1 stdout=333333333333 stderr=222222222222 C=0:not-productive",
        "same.spec: exit=0 stdout=111111111111 stderr=222222222222 C=inf:productive",
        "g.spec: exit=0 stdout=111111111111 stderr=222222222222",
    ]
    groups = _changes(recorded, new)
    runs = {kind: [(was or now).split(":")[0] for was, now in pairs] for kind, pairs in groups.items()}
    assert runs == {
        "exit code": ["a.spec"],
        "verdict or production": ["b.spec --report json", "c.spec --dump-diagram", "h.spec"],
        "other stdout": ["d.spec --mode gates"],
        "stderr only": ["e.spec --mode oracle-check"],
        "removed": ["f.spec"],
        "added": ["g.spec"],
    }
    assert groups["removed"] == [(recorded[5], None)]
    summary = _summary(groups)
    assert list(groups) == list(KINDS)
    assert summary.startswith("8 runs changed")
    assert "verdict or production: 3 runs\n  recorded: %s\n  now:      %s" % (recorded[1], new[1]) in summary


def test_no_orphan_goldens():
    written = {_golden_path(name, flags) for name, flags in CASES} | {RUNS}
    assert set(GOLDEN.iterdir()) == written


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, flags in CASES:
        _golden_path(name, flags).write_text(_render(name, flags), encoding="utf-8")
    lines, faults = _record()
    RUNS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if faults:
        raise SystemExit("\n".join(faults))
