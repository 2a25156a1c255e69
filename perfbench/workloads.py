"""Workload inputs and their hand-derived reference answers.

Every input is a spec file plus the CLI mode it runs in.  The expected
gates, productions, verdicts and exit codes are written down here from the
paper and from working the small families out by hand; nothing here asks
the analyzer for an answer.

The generated families take their symbol names from the seed.  Names keep
one length and the same lexicographic order for every seed, so the seed
changes neither the order in which the analyzer materializes equations nor
the size of its reports.
"""

from __future__ import annotations

import json
import pathlib
import random
import string
from dataclasses import dataclass

CORPUS_DIR = pathlib.Path(__file__).resolve().parent / "corpus"

WORKLOADS = ("corpus", "chain", "collapse")

# Sizes per family.  An odd number of equally repeated sizes puts the median
# of all analyses inside one size group instead of on the gap between two.
CHAIN_SIZES = (16, 32, 64, 96, 128)
RING_SIZES = (6, 8, 10, 12)
PREFIX_SIZES = (100, 200, 400)


@dataclass(frozen=True)
class Expected:
    exit_code: int
    gates: dict  # stream function -> gate as the report prints it
    verdicts: dict  # stream constant -> (production, answer)


@dataclass(frozen=True)
class Case:
    label: str  # e.g. "chain-64" or "pascal/decide"
    family: str  # "corpus", "chain", "ring" or "prefix"
    size: int  # the family's size parameter; 0 for corpus specs
    mode: str  # "decide" or "oracle-check"
    text: str
    expected: Expected
    report: str = "text"

    @property
    def argv(self):
        return ["--mode", self.mode, "--report", self.report]


INF = "inf"

# The paper's gates and verdicts for the corpus (Endrullis, Grabmayer and
# Hendriks, LPAR 2008).  Exit codes follow from the verdicts: 1 when some
# constant is not (data-obliviously) productive, 2 when one is unknown.
CORPUS = {
    "convolution": Expected(
        2,
        {"conv": "[inf]((-+), (-+))", "add": "[inf]((-+), (-+))", "times": "[inf]((-+))"},
        {"nats": ("1", "unknown"), "ones": (INF, "productive")},
    ),
    "do_h": Expected(0, {"h": "[inf](-(-+))"}, {}),
    "do_m": Expected(1, {"f": "[inf]((--+))"}, {"M": ("1", "not-do-productive")}),
    "intro_b": Expected(1, {"g": "[0](eps)"}, {"B": ("1", "not-do-productive")}),
    "morse_dol": Expected(
        0, {"h": "[inf]((-++))"}, {"M": (INF, "productive"), "Mprime": (INF, "productive")}
    ),
    "nested_fb": Expected(0, {"f": "[inf](-+--(+))", "b": "[inf](--(+), +-(+), (+))"}, {}),
    "pascal": Expected(0, {"f": "[inf](-(-+))"}, {"P": (INF, "productive")}),
    "ternary_morse_flat": Expected(
        0, {"f": "[inf]((-+))"}, {"Q": (INF, "productive"), "Qprime": (INF, "productive")}
    ),
    "ternary_morse_pure": Expected(
        0,
        {
            "zip": "[inf]((-++), (+-+))",
            "inv": "[inf]((-+))",
            "tail": "[inf](-(-+))",
            "diff": "[inf](-(-+))",
        },
        {"Q": (INF, "productive"), "M": (INF, "productive")},
    ),
    "traces": Expected(
        0, {"f": "[inf](----++-++-+--++-+(-++-))", "g": "[inf]((--++), --(--++-++-+))"}, {}
    ),
}


class Names:
    """Seeded symbol names: one random stem, then a zero-padded index."""

    def __init__(self, rng: random.Random):
        self.stem = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))

    def function(self, i: int) -> str:
        return "%s%03d" % (self.stem, i)

    def constant(self, i: int) -> str:
        return "%s%03d" % (self.stem.upper(), i)


def _spec(constants, functions, rules) -> str:
    lines = [
        "Signature(",
        "  %s : stream(nat)," % ", ".join(constants),
        "  %s : stream(nat) -> stream(nat)," % ", ".join(functions),
        "  0 : nat",
        ")",
    ]
    return "\n".join(lines + rules) + "\n"


def chain(n: int, names: Names) -> Case:
    """C = 0:f0(C), f_i(x:s) = x:f_{i+1 mod n}(s).

    Each f_i consumes one element and passes it on, so every gate is the
    identity (-+) and C keeps producing: productive, exit 0.
    """
    c = names.constant(0)
    fs = [names.function(i) for i in range(n)]
    rules = ["%s = 0:%s(%s)" % (c, fs[0], c)]
    rules += ["%s(x:s) = x:%s(s)" % (fs[i], fs[(i + 1) % n]) for i in range(n)]
    expected = Expected(0, {f: "[inf]((-+))" for f in fs}, {c: (INF, "productive")})
    return Case("chain-%d" % n, "chain", n, "decide", _spec([c], fs, rules), expected)


def ring(n: int, names: Names) -> Case:
    """P_i = 0:f(P_{i+1 mod n}), f(x:y:s) = x:f(s).

    f halves its input, gate (--+).  Each P_i has its own head element, and
    f needs two elements of P_{i+1} (one of them behind another f) before
    it emits: every P_i has production 1, not productive, exit 1.
    """
    ps = [names.constant(i) for i in range(n)]
    f = names.function(0)
    rules = ["%s = 0:%s(%s)" % (ps[i], f, ps[(i + 1) % n]) for i in range(n)]
    rules.append("%s(x:y:s) = x:%s(s)" % (f, f))
    expected = Expected(1, {f: "[inf]((--+))"}, {p: ("1", "not-productive") for p in ps})
    return Case("ring-%d" % n, "ring", n, "decide", _spec(ps, [f], rules), expected)


def prefix(m: int, names: Names) -> Case:
    """P = 0^m:f(P), f(x:s) = x:f(s).

    f is the identity (-+) and P is guarded by m elements: productive, exit 0.
    """
    p, f = names.constant(0), names.function(0)
    rules = ["%s = %s%s(%s)" % (p, "0:" * m, f, p), "%s(x:s) = x:%s(s)" % (f, f)]
    expected = Expected(0, {f: "[inf]((-+))"}, {p: (INF, "productive")})
    return Case("prefix-%d" % m, "prefix", m, "decide", _spec([p], [f], rules), expected)


# Corpus specs that also run with the JSON report: the five whose reports
# carry productive constants.  They make 25 analyses per pass, so that the
# median and the 90th percentile fall inside one spec's group of samples
# instead of on the gap between two (with 20, both sit on a gap).
JSON_REPORTS = ("convolution", "morse_dol", "pascal", "ternary_morse_flat", "ternary_morse_pure")


def corpus_cases():
    cases = []
    for name in sorted(CORPUS):
        text = (CORPUS_DIR / (name + ".spec")).read_text()
        decide = CORPUS[name]
        oracle = Expected(0, decide.gates, decide.verdicts)
        cases.append(Case(name + "/decide", "corpus", 0, "decide", text, decide))
        cases.append(Case(name + "/oracle-check", "corpus", 0, "oracle-check", text, oracle))
        if name in JSON_REPORTS:
            cases.append(Case(name + "/decide-json", "corpus", 0, "decide", text, decide, "json"))
    return cases


def build(workload: str, seed: int):
    """The cases of one workload; the seed only picks symbol names."""
    names = Names(random.Random(seed))
    if workload == "corpus":
        return corpus_cases()
    if workload == "chain":
        return [chain(n, names) for n in CHAIN_SIZES]
    if workload == "collapse":
        return [ring(n, names) for n in RING_SIZES] + [prefix(m, names) for m in PREFIX_SIZES]
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# checking a report against the reference


def _section(lines, header):
    """Lines after `header` up to the next blank line."""
    try:
        start = lines.index(header) + 1
    except ValueError:
        return []
    out = []
    for line in lines[start:]:
        if not line:
            break
        out.append(line)
    return out


def check(case: Case, code: int, stdout: str, stderr: str):
    """Problems with one analysis' outcome; empty when it matches."""
    exp = case.expected
    problems = []
    if code != exp.exit_code:
        problems.append("exit code %s, expected %d" % (code, exp.exit_code))
    if stderr:
        problems.append("stderr: %s" % stderr.strip().splitlines()[-1])
    if case.report == "json":
        return problems + _check_json(exp, stdout)
    lines = stdout.splitlines()
    if case.mode == "oracle-check":
        if "MISMATCH" in stdout:
            problems.append("oracle reports a mismatch")
        named = {line.split(" ", 1)[0] for line in lines}
        missing = (set(exp.gates) | set(exp.verdicts)) - named
        if missing:
            problems.append("oracle skipped %s" % ", ".join(sorted(missing)))
        return problems
    gates = {}
    for line in _section(lines, "-- gates --"):
        name, _, gate = line.partition(" : ")
        gates[name] = gate
    verdicts = {}
    for line in _section(lines, "-- summary --"):
        name, _, rest = line.partition(" : production = ")
        production, _, answer = rest.partition(" : ")
        verdicts[name] = (production, answer)
    return problems + _compare(exp, gates, verdicts)


def _check_json(exp: Expected, stdout: str):
    try:
        payload = json.loads(stdout)
        gates = {
            name: "[%s](%s)" % (g["cap"], ", ".join(g["args"])) for name, g in payload["gates"].items()
        }
        verdicts = {
            c["name"]: (str(c["production"]), c["verdict"]) for c in payload["constants"]
        }
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable JSON report: %r" % exc]
    return _compare(exp, gates, verdicts)


def _compare(exp: Expected, gates: dict, verdicts: dict):
    problems = []
    if gates != exp.gates:
        problems.append("gates %s, expected %s" % _diff(gates, exp.gates))
    if verdicts != exp.verdicts:
        problems.append("verdicts %s, expected %s" % _diff(verdicts, exp.verdicts))
    return problems


def _diff(got: dict, want: dict):
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))[:3]
    return ({k: got.get(k) for k in keys}, {k: want.get(k) for k in keys})
