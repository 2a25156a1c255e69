import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from prodcheck import cli
from prodcheck.cli import main
from prodcheck.equations import CapError, Caps

import specgen
from conftest import CORPUS, DATA, spec_path
from specgen import random_flat_spec
from test_dogame import PSEUDO_CYCLE_SEEDS
from test_streamspec import END_OF_INPUT_ERRORS, FRONT_END_ERRORS


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


PARTIAL = "Signature( C, D : stream(bit), f : stream(bit) -> stream(bit), 0, 1 : bit )\nC = 0:f(C)\nD = 1:f(D)\nf(0:s) = 0:f(s)\n"


def test_warning_printed_without_verbose(tmp_path):
    """A non-exhaustive function's warning reaches standard error with no
    `--verbose`, and the exit code stays what the verdicts give.  That exit
    0 is ROADMAP item 14's open bug: `D` gets stuck after one element."""
    p = tmp_path / "partial.spec"
    p.write_text(PARTIAL)
    for args in ([], ["--report", "json"]):
        code, _, err = run_cli([str(p)] + args)
        assert (code, err) == (0, "%s:4:1: warning: non-exhaustive patterns for 'f': no rule matches f(1:_)\n" % p)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: gates are built as if f's rules covered every input")
def test_stuck_constant_not_productive(tmp_path):
    """D -> 1:f(D) -> 1:f(1:f(D)), and no rule matches f(1:_), so D has
    production 1; an adversary can feed C a 1 the same way, so C is not
    productive either, in the text report and in JSON."""
    p = tmp_path / "partial.spec"
    p.write_text(PARTIAL)
    code, out, _ = run_cli([str(p)])
    assert code != 0 and "D : production = 1 :" in out, out
    assert "The specification of C is productive." not in out, out
    code, out, _ = run_cli([str(p), "--report", "json"])
    verdicts = {c["name"]: c for c in json.loads(out)["constants"]}
    assert code != 0 and verdicts["D"]["production"] == 1, out
    assert verdicts["C"]["verdict"] != "productive", out


# E -> C(0) -> 0:f(D) produces forever; f's gate is only a lower bound where
# its tail call reaches C's nesting rule.  With C = 0:f(D), C is that constant.
NESTING_TAIL = (
    "Signature( C, D, E : stream(nat), f, g : stream(nat) -> stream(nat), 0 : nat )\n"
    "C = 0:g(D)\nD = 0:D\nE = f(D)\nf(x:s) = C\ng(x:s) = x:g(s)\n"
)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: a tail call into a constant's nesting rule gets the gate port 0")
def test_tail_call_into_nesting_constant_not_refuted(tmp_path):
    """E = f(D) -> C -> 0:g(D) produces forever, and so does C in the
    variant C = 0:f(D): no constant of either reads not-productive, in the
    text report and in JSON."""
    p = tmp_path / "nesting_tail.spec"
    for text in (NESTING_TAIL, NESTING_TAIL.replace("C = 0:g(D)", "C = 0:f(D)")):
        p.write_text(text)
        _, out, _ = run_cli([str(p)])
        assert ": not-productive" not in out, out
        _, out, _ = run_cli([str(p), "--report", "json"])
        assert all(c["verdict"] != "not-productive" for c in json.loads(out)["constants"]), out


# C(s(0)) matches no rule, so D = C(0) -> 0:C(s(0)) stops after one element.
STUCK_CONSTANT = "Signature( C : nat -> stream(nat), D : stream(nat), 0 : nat, s : nat -> nat )\nC(0) = 0:C(s(0))\nD = C(0)\n"


def test_warning_for_a_non_exhaustive_constant(tmp_path):
    """A stream constant's missing pattern gets the warning a function's
    gets, in either report."""
    p = tmp_path / "stuck.spec"
    p.write_text(STUCK_CONSTANT)
    for args in ([], ["--report", "json"]):
        _, _, err = run_cli([str(p)] + args)
        assert err == "%s:2:1: warning: non-exhaustive patterns for 'C': no rule matches C(s(_))\n" % p


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: a constant is unfolded as if its rules covered every argument")
def test_stuck_data_constant_not_productive(tmp_path):
    """The constant case of `test_stuck_constant_not_productive`: D stops
    after one element, in the text report and in JSON."""
    p = tmp_path / "stuck.spec"
    p.write_text(STUCK_CONSTANT)
    code, out, _ = run_cli([str(p)])
    assert code != 0 and "The specification of D is productive." not in out, out
    code, out, _ = run_cli([str(p), "--report", "json"])
    verdicts = {c["name"]: c for c in json.loads(out)["constants"]}
    assert code != 0 and verdicts["D"]["verdict"] != "productive", out


def test_constant_choosing_its_rule_by_data_is_flat(tmp_path):
    """D = C(0) -> 0:C(s(0)) -> 0:C(0) -> ... produces forever, but which of
    C's two rule shapes applies depends on data, so the context is flat:
    the adversary's production 0 reads not-do-productive, not a proof of
    non-productivity.  A constant with two rules is flat whatever their
    shapes; the flat C(0) = 0:C(1), C(1) = 1:C(0) is still productive."""
    p = tmp_path / "flat.spec"
    p.write_text(STUCK_CONSTANT.replace("D = ", "C(s(x)) = C(x)\nD = "))
    code, out, _ = run_cli([str(p)])
    assert code == 1 and out.endswith("C : production = 0 : not-do-productive\nD : production = 0 : not-do-productive\n"), out
    code, out, _ = run_cli([str(p), "--report", "json"])
    verdicts = [(c["name"], c["production"], c["verdict"]) for c in json.loads(out)["constants"]]
    assert code == 1 and verdicts == [("C", 0, "not-do-productive"), ("D", 0, "not-do-productive")], out
    p.write_text("Signature( C : bit -> stream(bit), 0, 1 : bit )\nC(0) = 0:C(1)\nC(1) = 1:C(0)\n")
    code, out, _ = run_cli([str(p)])
    assert code == 0 and out.endswith("C : production = inf : productive\n"), out


def test_constant_with_two_nesting_rules_is_flat(tmp_path):
    """E -> C(0) -> 0:f(D) produces forever, while C(1) -> 0:f(K) stops
    after one element.  C's two rules have one nesting shape, but data picks
    between them, so C and E read not-do-productive, not the exact claim
    not-productive, in the text report and in JSON."""
    p = tmp_path / "choice.spec"
    p.write_text(
        "Signature( C : nat -> stream(nat), D, K, E : stream(nat), f : stream(nat) -> stream(nat), 0, 1 : nat )\n"
        "C(0) = 0:f(D)\nC(1) = 0:f(K)\nD = 0:D\nK = K\nE = C(0)\nf(x:s) = x:f(s)\n"
    )
    code, out, _ = run_cli([str(p)])
    assert code == 1 and out.endswith(
        "C : production = 1 : not-do-productive\nD : production = inf : productive\n"
        "K : production = 0 : not-productive\nE : production = 1 : not-do-productive\n"
    ), out
    code, out, _ = run_cli([str(p), "--report", "json"])
    verdicts = [(c["name"], c["production"], c["verdict"]) for c in json.loads(out)["constants"]]
    assert code == 1 and verdicts == [
        ("C", 1, "not-do-productive"), ("D", "inf", "productive"), ("K", 0, "not-productive"), ("E", 1, "not-do-productive")
    ], out


def test_pascal_productive_exit_zero():
    code, out, _ = run_cli([str(spec_path("pascal"))])
    assert code == 0
    assert "The specification of P is productive." in out
    assert "f : [inf](-(-+))" in out
    assert "mu P. peb(peb(box<-(-+)>(P)))" in out


def test_convolution_unknown_exit_two():
    code, out, _ = run_cli([str(spec_path("convolution"))])
    assert code == 2
    assert "Failed to prove productivity of nats." in out
    assert "The specification of ones is productive." in out


def test_do_m_not_productive_exit_one():
    code, out, _ = run_cli([str(spec_path("do_m"))])
    assert code == 1
    assert "M is not data-obliviously productive (production = 1)." in out


def test_gates_mode_traces():
    code, out, _ = run_cli([str(spec_path("traces")), "--mode", "gates"])
    assert code == 0
    assert "f : [inf](----++-++-+--++-+(-++-))" in out
    assert "g : [inf]((--++), --(--++-++-+))" in out


def test_parse_error_exit_ten(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("Signature( P : stream(nat), 0 : nat )\nP = x\n")
    code, _, err = run_cli([str(bad)])
    assert code == 10
    assert "error" in err


def test_only_newlines_end_a_line(tmp_path):
    """"\\n", "\\r\\n" and "\\r" end a line; every other character at which
    `str.splitlines()` ends one is whitespace, in a comment too.  A
    diagnostic carries the line number that `grep -n` gives."""
    separators = {ch for ch in map(chr, range(sys.maxunicode + 1)) if len(("a" + ch + "b").splitlines()) == 2}
    others = sorted(separators - {"\n", "\r"})
    assert others == ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    path = tmp_path / "sep.spec"
    for sep in others:
        for newline in ("\n", "\r\n", "\r"):
            text = "Signature(\n  P : stream(nat),  -- the constant%s here\n  0 : nat\n)\nP = 0:P\n" % sep
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            code, out, err = run_cli([str(path)])
            assert (code, err) == (0, ""), repr(sep + newline)
            assert "The specification of P is productive." in out
            # line 6 of 6 for `grep -n`, which counts "\n" only
            text = "-- page break%s\nSignature(\n  P : stream(nat),\n  0 : nat\n)\nP = 0:Q(P)\n" % sep
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            code, out, err = run_cli([str(path)])
            assert (code, out) == (10, ""), repr(sep + newline)
            assert err == "%s:6:7: error: undeclared symbol 'Q' applied to arguments\n" % path
    # a spec with CRLF or CR line ends gives byte for byte the output of its
    # LF original, diagnostics included
    for name in ("convolution", "pascal", "pseudo_cycle"):
        text = spec_path(name).read_text()
        assert "\r" not in text
        path = tmp_path / (name + ".spec")
        outputs = set()
        for newline in ("\n", "\r\n", "\r"):
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            outputs.add(run_cli([str(path), "--mode", "oracle-check"]))
            outputs.add(run_cli([str(path), "--dump-equations"]))
        assert len(outputs) == 2, name


@pytest.mark.parametrize("text, message", FRONT_END_ERRORS + END_OF_INPUT_ERRORS)
def test_parse_error_position(text, message, tmp_path):
    """Each parse error names the line and column where it was found; one
    at the end of input names where the input stopped, never 0:0."""
    bad = tmp_path / "m.spec"
    bad.write_text(text)
    assert run_cli([str(bad)]) == (10, "", "%s:%s\n" % (bad, message))


def test_validate_error_exit_eleven(tmp_path):
    bad = tmp_path / "dup.spec"
    bad.write_text(
        "Signature( P : stream(bit), f : stream(bit) -> stream(bit), 0, 1 : bit )\n"
        "P = 0:f(P)\nf(x:s) = s\nf(x:s) = s\n"
    )
    code, _, err = run_cli([str(bad)])
    assert code == 11
    assert "overlapping" in err


@pytest.mark.parametrize("mode", ["decide", "gates", "oracle-check"])
def test_rule_less_constant_exit_eleven(mode, tmp_path):
    """A stream constant without a rule is a validation error in every mode,
    as a stream function without one is."""
    bad = tmp_path / "norule.spec"
    bad.write_text("Signature( P, Q : stream(nat), 0 : nat )\nP = 0:Q\n")
    code, out, err = run_cli([str(bad), "--mode", mode])
    assert (code, out) == (11, "")
    assert err == "%s:1:1: error: stream constant 'Q' has no defining rule\n" % bad


UNFRIENDLY_SPEC = (
    "Signature( P : stream(bit), f : stream(bit) -> stream(bit),"
    " g : stream(bit) -> stream(bit), 0, 1 : bit )\n"
    "P = 0:f(P)\nf(x:y:s) = x:g(f(s))\ng(x:s) = x:g(s)\n"
)


def test_translate_error_exit_twelve(tmp_path):
    bad = tmp_path / "unf.spec"
    bad.write_text(UNFRIENDLY_SPEC)
    code, _, err = run_cli([str(bad)])
    assert code == 12


def test_translate_error_message(tmp_path):
    bad = tmp_path / "unf.spec"
    bad.write_text(UNFRIENDLY_SPEC)
    _, _, err = run_cli([str(bad)])
    assert err == "prodcheck: cannot translate 'f': unfriendly nesting rule 'f(x:y:s) = x:g(f(s))'\n"


def test_caps_error_exit_thirteen():
    code, _, err = run_cli([str(spec_path("pascal")), "--max-columns", "1"])
    assert code == 13
    assert "cap" in err


@pytest.mark.parametrize(
    "name, first_answer",
    [("intro_b", 0), ("nested_fb", 2), ("ternary_morse_pure", 3), ("do_h", 3)],
)
def test_max_columns_bounds_feedback_sweeps_and_infima(name, first_answer):
    """`--max-columns` caps the diagram sweeps for the feedback vertex set
    and the supplies each infimum reads; gates answer from `first_answer`
    on.  `intro_b` has no cycle and needs no infimum, so it answers at 0.
    Each infimum of `nested_fb` and `do_h` has an operand nowhere above the
    other, the answer once the supplies that show it are read: two at most
    for `nested_fb`, and fewer than the three columns `do_h`'s sweeps need."""
    for cap in range(first_answer + 1):
        code, out, err = run_cli([str(spec_path(name)), "--mode", "gates", "--max-columns", str(cap)])
        if cap < first_answer:
            assert (code, out) == (13, "")
            assert err == "prodcheck: repetition search cap exceeded (%d columns)\n" % cap
        else:
            assert (code, err) == (0, "")


def test_dump_diagram_hits_cap_before_writing():
    """The gates of intro_b need no sweep, but `--dump-diagram` sweeps every
    root: at `--max-columns 0` the run ends in exit 13 with nothing written."""
    args = ["--mode", "gates", "--dump-equations", "--dump-diagram", "--max-columns", "0"]
    code, out, err = run_cli([str(spec_path("intro_b"))] + args)
    assert (code, out) == (13, "")
    assert err == "prodcheck: repetition search cap exceeded (0 columns)\n"


def test_missing_file_exit_ten(tmp_path):
    code, _, err = run_cli([str(tmp_path / "absent.spec")])
    assert code == 10


def test_non_utf8_file_exit_ten(tmp_path):
    bad = tmp_path / "latin1.spec"
    bad.write_bytes(spec_path("pascal").read_bytes() + b"\xff\n")
    code, out, err = run_cli([str(bad)])
    assert code == 10
    assert out == ""
    assert err.startswith("prodcheck: ") and "utf-8" in err


def test_deep_surface_chain_no_traceback(tmp_path):
    """C = 0:g0000(C), g_i(x:s) = g_{i+1}(s) for i < 1099 and
    g1099(x:s) = x:g1099(s).  The star equations form a chain of 1,100
    variables at the surface.  g_i drops 1099 - i elements and then copies,
    so g0000 can emit only after 1099 inputs; C gets its head and no more."""
    n = 1100
    fs = ["g%04d" % i for i in range(n)]
    lines = ["Signature(", "  C : stream(nat),", "  %s : stream(nat) -> stream(nat)," % ", ".join(fs)]
    lines += ["  0 : nat", ")", "C = 0:g0000(C)"]
    lines += ["%s(x:s) = %s(s)" % (fs[i], fs[i + 1]) for i in range(n - 1)]
    lines.append("g1099(x:s) = x:g1099(s)")
    p = tmp_path / "deep.spec"
    p.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli([str(p)])
    assert (code, err) == (1, "")
    assert "g0000 : [inf](%s(-+))\n" % ("-" * 1099) in out
    assert "g1098 : [inf](-(-+))\n" in out
    assert "g1099 : [inf]((-+))\n" in out
    assert "C : production = 1 : not-productive\n" in out


def test_json_report_roundtrip():
    code, out, _ = run_cli([str(spec_path("convolution")), "--report", "json"])
    assert code == 2
    payload = json.loads(out)
    constants = {c["name"]: c for c in payload["constants"]}
    assert constants["nats"]["production"] == 1
    assert constants["nats"]["verdict"] == "unknown"
    assert constants["ones"]["production"] == "inf"
    assert payload["gates"]["conv"]["args"] == ["(-+)", "(-+)"]
    assert json.loads(json.dumps(payload)) == payload


def test_json_report_prefix_of_800(tmp_path):
    """P = 0^800:f(P) over the identity f: P is productive."""
    p = tmp_path / "prefix800.spec"
    p.write_text(
        "Signature( P : stream(nat), f : stream(nat) -> stream(nat), 0 : nat )\n"
        "P = %sf(P)\nf(x:s) = x:f(s)\n" % ("0:" * 800)
    )
    code, out, err = run_cli([str(p), "--report", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["constants"] == [{"name": "P", "production": "inf", "verdict": "productive"}]


def test_json_report_push_back_chain(tmp_path):
    """Each function of a push-back chain reads two elements, emits the
    first and pushes both back, swapped: f00(C) waits for C's second
    element, its own first output, so C produces only its first."""
    p = tmp_path / "push_back128.spec"
    p.write_text(specgen.push_back_chain(128))
    code, out, err = run_cli([str(p), "--report", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out)["constants"] == [{"name": "C", "production": 1, "verdict": "not-productive"}]


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run_module(args, python_flags=(), **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, *python_flags, "-m", "prodcheck", *args]
    return subprocess.run(command, env=env, stderr=subprocess.PIPE, timeout=60, **kwargs)


def test_out_of_memory_exit_sixteen(tmp_path):
    """A DAG of 15 constants, each feeding the one above it twice, runs out
    of a 100 or 150 MB address space, limited on the child process only:
    exit 16 and a one-line message naming the stage, `decide`, whose
    collapse of the production term runs out, with no traceback."""
    resource = pytest.importorskip("resource")
    names = ["C%02d" % i for i in range(15)]
    p = tmp_path / "dag14.spec"
    p.write_text(
        "Signature( %s : stream(nat), g : stream(nat) -> stream(nat) -> stream(nat), 0 : nat )\n" % ", ".join(names)
        + "".join("%s = 0:g(%s, %s)\n" % (names[i], names[i + 1], names[i + 1]) for i in range(14))
        + "C14 = 0:C14\ng(x:s, t) = x:g(s, t)\n"
    )

    for limit_mb in (100, 150):

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit_mb * 1000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))

        done = _run_module([str(p), "--report", "json", "--root", "C00"], stdout=subprocess.PIPE, preexec_fn=limit_memory)
        assert (done.returncode, done.stderr) == (16, b"prodcheck: out of memory in decide\n"), limit_mb


def test_out_of_memory_line_waits_for_the_stage_to_be_freed(monkeypatch):
    """The out-of-memory line is written once the failed stage's frames, and
    the data they hold, are freed: while its traceback holds them, writing
    the line could run out of memory a second time."""
    import weakref

    class Data:
        pass

    held = []

    def failing_decide(*args, **kwargs):
        data = Data()
        held.append(weakref.ref(data))
        raise MemoryError

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append((text, held[0]() is None))

        def flush(self):
            pass

    err = Recorder()
    monkeypatch.setattr(cli, "decide", failing_decide)
    monkeypatch.setattr(sys, "stderr", err)
    assert main([str(spec_path("nested_fb"))]) == 16
    assert "".join(text for text, _ in err.writes) == "prodcheck: out of memory in decide\n"
    assert all(freed for _, freed in err.writes), err.writes


@pytest.mark.parametrize("name", ["ring6", "prefix20"])
def test_optimized_interpreter_matches_goldens(name):
    """`python -O` drops assert statements; the reports must not change."""
    golden = (pathlib.Path(__file__).parent / "golden" / ("%s.text.txt" % name)).read_bytes()
    done = _run_module([str(spec_path(name))], python_flags=("-O",), stdout=subprocess.PIPE)
    assert b"exit: %d\n" % done.returncode + done.stdout == golden
    assert done.stderr == b""


def test_import_loads_neither_dataclasses_nor_inspect():
    """Importing the command line in a fresh interpreter, one that reads no
    environment variables and no user site, leaves the two modules that
    dataclass code generation needs unloaded.  `-B`: it writes no bytecode
    either."""
    script = "import sys; sys.path.insert(0, %r); import prodcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    command = [sys.executable, "-I", "-B", "-c", script % str(SRC)]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[]\n", b"")


@pytest.mark.parametrize(
    "args",
    [
        ["ring6"],
        ["intro_b", "--mode", "gates", "--dump-equations"],
        ["convolution", "--report", "json"],
    ],
)
def test_closed_stdout_exit_fourteen(args):
    """A reader that closed the pipe before any output was written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_module([str(spec_path(args[0]))] + args[1:], stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 14
    assert done.stderr == b""


def test_reader_closing_partway_through_a_text_report(tmp_path):
    """A reader that closes the pipe after the first 64 KiB of a text
    report of about 24 MB, written line by line as it is rendered."""
    path = tmp_path / "prefix2000.spec"
    path.write_text(specgen.prefix(2000))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "prodcheck", str(path)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        head = proc.stdout.read(1 << 16)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # nothing left to stop once it has exited
    assert head.startswith(b"-- classification --\n") and len(head) == 1 << 16
    assert (proc.returncode, err) == (14, b"")


def test_reports_byte_stable():
    for name in ("pascal", "ternary_morse_flat", "ternary_morse_pure", "morse_dol", "convolution"):
        first = run_cli([str(spec_path(name))])
        second = run_cli([str(spec_path(name))])
        assert first == second
    for name in ("traces",):
        first = run_cli([str(spec_path(name)), "--mode", "gates"])
        second = run_cli([str(spec_path(name)), "--mode", "gates"])
        assert first == second


def test_root_flag():
    code, out, _ = run_cli([str(spec_path("convolution")), "--root", "ones"])
    assert code == 0
    assert "nats" not in out.split("-- summary --")[1]


def test_unknown_root_fails_in_every_mode():
    """The name is checked before the analysis starts: even a cap the
    analysis would trip does not come first."""
    for mode in ("decide", "gates", "oracle-check"):
        for extra in ([], ["--dump-equations"], ["--finitize-cap", "0"]):
            code, out, err = run_cli([str(spec_path("convolution")), "--mode", mode, "--root", "NAME"] + extra)
            assert (code, out, err) == (12, "", "prodcheck: unknown stream constant 'NAME'\n"), (mode, extra)


def test_dump_equations_flag():
    code, out, _ = run_cli([str(spec_path("pascal")), "--dump-equations"])
    assert code == 0
    assert "X_{f,1,0} = /\\ { --+X_{f,1,1}, -++X_{f,1,0} }" in out


def test_oracle_check_mode():
    code, out, _ = run_cli([str(spec_path("do_m")), "--mode", "oracle-check"])
    assert code == 0
    assert "gate agrees with game" in out
    assert "agree" in out


def test_gates_mode_exits_zero():
    """`--mode gates` gives no verdict and exits 0, also on a spec whose
    constant is not productive (`do_m` exits 1 under `--mode decide`)."""
    assert run_cli([str(spec_path("do_m"))])[0] == 1
    code, out, _ = run_cli([str(spec_path("do_m")), "--mode", "gates"])
    assert code == 0 and "-- gates --" in out and "-- summary --" not in out


def _mutate_lines(rng, text):
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        c = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:c] + rng.choice("():,=x0s-") + lines[i][c:]
    return ("\n".join(lines) + "\n").encode()


def test_fuzz_documented_exit_codes(tmp_path):
    """Seeded line mutations of the corpus, a non-UTF-8 byte, random flat
    specifications and a cons prefix 2,000 deep all end in a documented
    exit code, never in a traceback; the prefix, run under `--mode gates`,
    is analyzed (exit 0)."""
    rng = random.Random(806)
    inputs = []
    for name in CORPUS:
        text = spec_path(name).read_text()
        inputs += [_mutate_lines(rng, text) for _ in range(20)]
    raw = bytearray(spec_path("pascal").read_bytes())
    raw[rng.randrange(len(raw))] = 0xFF
    inputs.append(bytes(raw))
    inputs += [random_flat_spec(random.Random(seed), max_feedback=2).encode() for seed in range(20)]
    inputs.append(b"Signature( P : stream(nat), 0 : nat )\nP = " + b"0:" * 2000 + b"P\n")
    codes = []
    for k, data in enumerate(inputs):
        p = tmp_path / ("fuzz%d.spec" % k)
        p.write_bytes(data)
        mode = ["--mode", "gates", "--verbose"] if k % 2 else []
        code, _, err = run_cli([str(p)] + mode)
        assert code in {0, 1, 2, 10, 11, 12, 13}, (data, code)
        assert "Traceback" not in err, data
        codes.append(code)
    assert codes[-1] == 0
    assert {0, 10, 11} <= set(codes)


@pytest.mark.parametrize(
    "text, args, code",
    [
        (specgen.prefix(1000), ["--report", "json"], 0),
        (specgen.prefix(2000), [], 0),
        (specgen.prefix(2000), ["--mode", "oracle-check"], 0),
        (specgen.ring(200), ["--report", "json", "--root", "P0"], 1),
        (specgen.chain(300), ["--mode", "gates", "--dump-equations"], 0),
        (specgen.prefix(5000), ["--report", "json"], 0),
    ],
    ids=["prefix1000-json", "prefix2000", "prefix2000-oracle", "ring200-json", "chain300-dump", "prefix5000-json"],
)
def test_deep_inputs_end_in_a_verdict(text, args, code, tmp_path):
    """Deep cons prefixes, a long ring of constants and a long chain of
    functions are analyzed with the default caps: no walk recurses once per
    level, so nesting depth never ends a run (exit 13 is for caps only)."""
    p = tmp_path / "deep.spec"
    p.write_text(text)
    got, _, err = run_cli([str(p)] + args)
    assert (got, err) == (code, "")


def test_oracle_check_of_many_two_rule_functions(tmp_path):
    """C's game has 2^24 rule assignments; the enumeration ends once the
    oracle's expansions are spent."""
    p = tmp_path / "nested24.spec"
    p.write_text(specgen.nested_calls(24))
    start = time.perf_counter()
    code, out, err = run_cli([str(p), "--mode", "oracle-check"])
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert out.endswith("f23 : gate agrees with game\nC : production inf vs game AtLeast(1) : consistent\n")


def test_deep_prefix_from_the_command_line(tmp_path):
    p = tmp_path / "deep.spec"
    p.write_text(specgen.prefix(5000))
    done = _run_module([str(p), "--report", "json"], stdout=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["constants"] == [{"name": "P", "production": "inf", "verdict": "productive"}]


@pytest.mark.parametrize("flag", ["--max-columns", "--finitize-cap", "--oracle-prod-cap", "--oracle-steps"])
def test_negative_cap_is_usage_error(flag, capsys):
    for value, message in (("-1", "must be at least 0, got -1"), ("abc", "invalid int value: 'abc'")):
        with pytest.raises(SystemExit) as exc:
            main([str(spec_path("pascal")), flag, value])
        assert exc.value.code == 15
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: prodcheck")
        assert "argument %s: %s\n" % (flag, message) in captured.err


def test_every_cap_is_a_flag_with_its_default(monkeypatch):
    """Each field of `Caps` is the flag of the same name, its default is the
    field's, and `main` hands the flags' values on in one `Caps`."""
    flags = {
        "max_columns": "--max-columns",
        "finitize_cap": "--finitize-cap",
        "oracle_prod_cap": "--oracle-prod-cap",
        "oracle_steps": "--oracle-steps",
    }
    assert list(Caps.DEFAULTS) == list(flags)
    pascal = str(spec_path("pascal"))
    parsed = cli._build_parser().parse_args([pascal])
    for name, default in Caps.DEFAULTS.items():
        assert getattr(parsed, name) == default == getattr(Caps(), name)

    seen = []

    def capped(spec, cls, caps):
        seen.append(caps)
        raise CapError("some cap")

    monkeypatch.setattr(cli, "translate_symbols", capped)
    argv = [pascal]
    for value, flag in enumerate(flags.values(), start=1):
        argv += [flag, str(value)]
    assert run_cli(argv) == (13, "", "prodcheck: some cap\n")
    assert seen == [Caps(1, 2, 3, 4)]


def test_usage_error_exit_code_from_command_line():
    """A malformed command line ends in 15, apart from the 2 of an unknown
    verdict; asking for help is no error."""
    pascal = str(spec_path("pascal"))
    for args, code in (([], 15), ([pascal, "--bogus"], 15), ([pascal, "--max-columns", "-1"], 15), (["--help"], 0)):
        done = _run_module(args, stdout=subprocess.PIPE)
        assert done.returncode == code, (args, done.stderr)
        assert done.stderr.startswith(b"usage: prodcheck") == (code == 15), args


def test_mixed_generated_specs_end_in_documented_exit_codes(tmp_path):
    """Decide with either report and oracle-check, on 300 random specs that
    mix every rule shape, each end in a documented exit code, and nothing
    escapes `main`.  Oracle-check used to end in a TypeError where a
    function game entered a nesting rule by a tail call."""
    p = tmp_path / "mixed.spec"
    for seed in range(300):
        p.write_text(specgen.random_mixed_spec(random.Random(seed)))
        for mode in ([], ["--report", "json"], ["--mode", "oracle-check"]):
            try:
                code, _, _ = run_cli([str(p)] + mode)
            except Exception as exc:
                pytest.fail("seed %d %s: %r" % (seed, mode, exc))
            assert code in {0, 1, 2, 10, 11, 12, 13}, (seed, mode, code)


@pytest.mark.parametrize(
    "text",
    [
        "Signature( C : stream(nat), f, g : stream(nat) -> stream(nat), 0 : nat )\n"
        "C = 0:f(C)\nf(x:s) = x:g(s)\ng(x:s) = x:g(g(s))\n",
        "Signature( C, D : stream(nat), f : stream(nat) -> stream(nat), 0 : nat )\nC = 0:f(D)\nD = 0:D\nf(x:s) = C\n",
    ],
    ids=["nesting-function", "nesting-constant"],
)
def test_oracle_check_skips_a_game_entering_a_nesting_rule(text, tmp_path):
    """f is flat, but its tail call enters a nesting rule, of the function
    g or of the constant C, which has no game state: f's check and that of
    each constant reaching it are skipped, with exit 0."""
    p = tmp_path / "enters_nesting.spec"
    p.write_text(text)
    code, out, err = run_cli([str(p), "--mode", "oracle-check"])
    assert (code, err) == (0, "") and out.startswith("f : skipped (nesting)\n"), out
    assert "C : skipped (game oracle does not cover nesting symbol " in out, out


@pytest.mark.parametrize("seed", [26, 50])
def test_oracle_check_answers_deep_games(seed, tmp_path):
    """Without the dominance cut, the function games of these specs ran
    10,000 and 5,000 states deep; with it they close within 5 states.  The
    oracle answers within its caps instead of ending in exit 13."""
    p = tmp_path / "deep_game.spec"
    p.write_text(random_flat_spec(random.Random(seed), max_feedback=2))
    code, out, err = run_cli([str(p), "--mode", "oracle-check"])
    assert (code, err) == (0, "")
    assert "MISMATCH" not in out


def test_oracle_check_agrees_on_generated_specs(tmp_path):
    """Every oracle game agrees with the analysis on 300 generated specs with
    one element of feedback per argument.  With two, pseudo-cycle removal
    still drops adversary branches on a few seeds (see ROADMAP.md)."""
    p = tmp_path / "generated.spec"
    for seed in range(300):
        p.write_text(random_flat_spec(random.Random(seed), max_feedback=1))
        code, out, err = run_cli([str(p), "--mode", "oracle-check"])
        assert (code, err) == (0, ""), seed
        assert "MISMATCH" not in out, seed


def test_oracle_check_sweeps_generated_specs_with_two_feedback(tmp_path):
    """With two elements of feedback per argument every oracle check ends in
    a verdict, and exactly the pseudo-cycle seeds report a mismatch."""
    p = tmp_path / "generated.spec"
    mismatched = set()
    for seed in range(300):
        p.write_text(random_flat_spec(random.Random(seed), max_feedback=2))
        code, out, err = run_cli([str(p), "--mode", "oracle-check"])
        assert code in (0, 1) and err == "", (seed, code, err)
        assert (code == 1) == ("MISMATCH" in out), seed
        if code == 1:
            mismatched.add(seed)
    assert mismatched == PSEUDO_CYCLE_SEEDS


def test_oracle_check_pins_pseudo_cycle():
    """Pseudo-cycle removal gives `f0` the gate `-(+)`, where the game gives
    n-1 at supply n (ROADMAP item 1).  The mismatch lines stay pinned until
    that is mended."""
    code, out, err = run_cli([str(spec_path("pseudo_cycle")), "--mode", "oracle-check"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "f0(1,) : gate inf vs game 0",
        "f0(2,) : gate inf vs game 1",
        "f0(3,) : gate inf vs game 2",
        "f0(4,) : gate inf vs game 3",
        "f0 : MISMATCH",
        "f1 : gate agrees with game",
        "C0 : production inf vs game 0 : MISMATCH",
        "C1 : production inf vs game 1 : MISMATCH",
    ]


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_state(collecting, tmp_path, monkeypatch):
    """`main` pauses the cyclic collector for its analysis and leaves it as
    it found it, whichever way the analysis ends."""
    bad = tmp_path / "bad.spec"
    bad.write_text("Signature( P : stream(nat), 0 : nat )\nP = x\n")
    dup = tmp_path / "dup.spec"
    dup.write_text(
        "Signature( P : stream(bit), f : stream(bit) -> stream(bit), 0, 1 : bit )\n"
        "P = 0:f(P)\nf(x:s) = s\nf(x:s) = s\n"
    )
    unf = tmp_path / "unf.spec"
    unf.write_text(UNFRIENDLY_SPEC)
    runs = [
        ([spec_path("pascal")], 0),
        ([spec_path("do_m")], 1),
        ([spec_path("convolution")], 2),
        ([tmp_path / "missing.spec"], 10),
        ([bad], 10),
        ([dup], 11),
        ([unf], 12),
        ([spec_path("pascal"), "--max-columns", "1"], 13),
    ]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for args, code in runs:
            assert run_cli([str(a) for a in args])[0] == code
            assert gc.isenabled() == collecting, args

        def internal_error(spec):
            raise RuntimeError("internal error")

        monkeypatch.setattr(cli, "classify", internal_error)
        with pytest.raises(RuntimeError):
            run_cli([str(spec_path("pascal"))])
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


def _cyclic_garbage(args):
    """The objects in reference cycles that one `main(args)` call leaves,
    which only the collector would free: it is off around the call."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run_cli(args)
        return gc.collect()
    finally:
        if was:
            gc.enable()


def test_analysis_leaves_no_reference_cycles():
    """With the collector paused, reference counting alone frees everything
    an analysis builds, in every mode and report of every spec."""
    _cyclic_garbage([str(spec_path("pascal"))])  # a first call fills caches
    modes = [[], ["--mode", "oracle-check"], ["--mode", "gates", "--dump-equations", "--dump-diagram"], ["--verbose"]]
    for path in sorted(DATA.glob("*.spec")):
        for flags in modes:
            assert _cyclic_garbage([str(path)] + flags) == 0, (path.name, flags)


def test_json_report_cycles_do_not_grow(tmp_path):
    """The standard library's indenting JSON encoder leaves a few objects
    in cycles per report, as many for a chain of 128 functions as of 16."""
    chain128 = tmp_path / "chain128.spec"
    chain128.write_text(specgen.chain(128))
    small = _cyclic_garbage([str(spec_path("chain16")), "--report", "json"])
    assert _cyclic_garbage([str(chain128), "--report", "json"]) == small
