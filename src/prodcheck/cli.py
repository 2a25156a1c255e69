"""Command line driver.

    prodcheck FILE [--mode decide|gates|oracle-check] [--root NAME]
                   [--report text|json] [--max-columns N] [--finitize-cap N]
                   [--oracle-prod-cap N] [--oracle-steps N]
                   [--dump-equations] [--dump-diagram] [--verbose]

Exit codes: in `--mode decide`, 0 every analyzed constant is productive, 1
some is (data-obliviously) non-productive, 2 some verdict is unknown;
`--mode gates` exits 0, and `--mode oracle-check` 0 when all agrees with
the game oracle, 1 on a MISMATCH, whatever the verdicts.  In every mode, 10
parse error, 11 validation error, 12 translation error, 13 a search cap was
exceeded (`--finitize-cap` or `--max-columns`), 14 standard output was
closed before the whole report was written, 15 a malformed command line,
16 out of memory, named with the stage it ran out in: parse, validate,
classify, translate_symbols, decide or report.  Validation errors and
warnings go to standard error; `--verbose` adds the notes.

`--max-columns` bounds every diagram sweep, the repetition search for each
variable of the equations' feedback vertex set and, with `--dump-diagram`,
for each root; an infimum the solver takes for the other variables reads
at most N supplies, its least-lead scan included.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import sys

from . import dogame
from .equations import CapError, Caps, TranslationError, var_str
from .ioalg import conat_str, interpret, is_top, render
from .prodterm import derivation_texts
from .solver import dump_diagram
from .streamspec import ParseError, classify, parse, reachable_symbols, validate
from .translate import decide, translate_symbols

_CLASS_WORDS = {
    "pure": "pure",
    "flat": "flat",
    "friendly": "friendly nesting",
    "unfriendly": "unfriendly nesting",
}


def _count(text):
    """argparse type of the caps: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % value)
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 15 for a malformed command line: its own
    code 2 already means that some verdict is unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(15, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser as it was
    p = _Parser(prog="prodcheck", description="stream specification productivity analyzer")
    p.add_argument("file", help="specification file")
    p.add_argument("--mode", choices=["decide", "gates", "oracle-check"], default="decide")
    p.add_argument("--root", help="analyze only this stream constant")
    p.add_argument("--report", choices=["text", "json"], default="text")
    for name, default in Caps.DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), type=_count, default=default)
    p.add_argument("--dump-equations", action="store_true", help="print the finitized equation system")
    p.add_argument("--dump-diagram", action="store_true", help="print solver columns and repetition witnesses")
    p.add_argument("--verbose", action="store_true")
    return p


def _debug_dumps(iospec, args, out):
    # rendered whole before writing: a diagram sweep may still hit the cap
    text = []
    if args.dump_equations:
        text.append(iospec.dump() + "\n")
        text += ["%s = %s\n" % (var_str(root), iospec.dump_mu(root)) for root in iospec.roots]
        text.append("\n")
    if args.dump_diagram:
        text += [dump_diagram(iospec, root, max_columns=args.max_columns) + "\n" for root in iospec.roots]
        text.append("\n")
    out.write("".join(text))


def _tables(spec, cls, gates):
    """The classification and the gate table, as the text report starts."""
    lines = ["-- classification --"]
    for name in spec.signature.stream_functions():
        klass = _CLASS_WORDS[cls.symbol_class[name]]
        guard = "weakly guarded" if cls.guarded[name] else "unguarded"
        lines.append("%s : %s (%s)" % (name, klass, guard))
    lines += ["", "-- gates --"] + ["%s : %s" % (name, gates[name]) for name in spec.signature.stream_functions()]
    return "\n".join(lines) + "\n"


def _trace_lines(verdict, heads):
    texts = derivation_texts([term for _, term in verdict.trace], heads)
    yield "\n-- analysis of %s --\n[%s] = %s\n" % (verdict.constant, verdict.constant, next(texts))
    for (rule, _), text in zip(verdict.trace[1:], texts):
        yield "  ~> %s    [%s]\n" % (text, rule)
    yield verdict.sentence() + "\n"


def _exit_code(verdicts) -> int:
    answers = {v.answer for v in verdicts.values()}
    if answers & {"not-productive", "not-do-productive"}:
        return 1
    if "unknown" in answers:
        return 2
    return 0


def _report_text(spec, cls, gates, verdicts, out):
    out.write(_tables(spec, cls, gates))
    heads = {}  # IO-sequence -> box head, one rendering per report
    for verdict in verdicts.values():  # each line written as soon as it is rendered
        out.writelines(_trace_lines(verdict, heads))
    out.write("\n-- summary --\n")
    for name, v in verdicts.items():
        out.write("%s : production = %s : %s\n" % (name, conat_str(v.production), v.answer))


def _report_json(gates, verdicts, out):
    payload = {
        "constants": [
            {
                "name": name,
                "production": "inf" if is_top(v.production) else int(v.production),
                "verdict": v.answer,
            }
            for name, v in verdicts.items()
        ],
        "gates": {
            name: {
                "cap": "inf" if is_top(g.cap) else int(g.cap),
                "args": [render(a) for a in g.args],
            }
            for name, g in gates.items()
        },
    }
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _oracle_check(spec, cls, gates, verdicts, caps, out):
    """Cross-check gates and verdicts against the game oracle."""
    failures = 0
    for name in spec.signature.stream_functions():
        if dogame.function_game(cls, name) is None:
            out.write("%s : skipped (nesting)\n" % name)
            continue
        g = gates[name]
        agree = True
        tables = [[min(g.cap, interpret(u, n)) for n in range(5)] for u in g.args]
        settled: dict = {}  # walks the sweep's games settle, kept where they have one rule per symbol
        for supplies in itertools.product(range(5), repeat=g.arity):
            gate_value = min((t[n] for t, n in zip(tables, supplies)), default=g.cap)
            game = dogame.do_low_function(cls, name, supplies, caps.oracle_prod_cap, settled)
            if isinstance(game, dogame.AtLeast):
                ok = is_top(gate_value) or gate_value >= game.bound
            else:
                ok = gate_value == game
            if not ok:
                agree = False
                out.write(
                    "%s%s : gate %s vs game %s\n"
                    % (name, supplies, conat_str(gate_value), game)
                )
        out.write("%s : %s\n" % (name, "gate agrees with game" if agree else "MISMATCH"))
        failures += 0 if agree else 1
    # those reaching more symbols first: an enumeration decides what it reaches
    games, decided = {}, {}
    for name in sorted(verdicts, key=lambda c: -len(reachable_symbols(cls, c))):
        try:
            games[name] = dogame.do_low_constant(spec, cls, name, caps.oracle_prod_cap, caps.oracle_steps, decided)
        except ValueError as exc:
            games[name] = str(exc)  # the exception itself would hold this frame in a cycle
    for name, v in verdicts.items():
        if isinstance(game := games[name], str):
            out.write("%s : skipped (%s)\n" % (name, game))
            continue
        # the game's adversary commits one rule per symbol, so its value can
        # only exceed the translated lower bound, never undercut it
        if isinstance(game, dogame.AtLeast):
            ok = True
            word = "consistent"
        elif v.production == game:
            ok = True
            word = "agree"
        else:
            ok = not is_top(v.production) and v.production < game
            word = "consistent (restricted adversary)" if ok else "MISMATCH"
        out.write(
            "%s : production %s vs game %s : %s\n"
            % (name, conat_str(v.production), game, word)
        )
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    caps = Caps(**{name: getattr(args, name) for name in Caps.DEFAULTS})
    out = sys.stdout
    try:
        with open(args.file, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print("prodcheck: %s" % exc, file=sys.stderr)
        return 10
    # the analysis builds no reference cycles: the collector would find nothing
    collecting = gc.isenabled()
    gc.disable()
    stage = "parse"  # the step an out-of-memory exit names
    try:
        spec = parse(text, args.file)
        stage = "validate"
        diagnostics = validate(spec)
        errors = [d for d in diagnostics if d.severity == "error"]
        for d in diagnostics:
            if d.severity != "note" or args.verbose:
                print(str(d), file=sys.stderr)
        if errors:
            return 11
        if args.root is not None and args.root not in spec.signature.stream_constants():
            raise TranslationError("unknown stream constant %r" % args.root)
        stage = "classify"
        cls = classify(spec)
        stage = "translate_symbols"
        gates, iospec = translate_symbols(spec, cls, caps)
        if args.mode == "gates":
            stage = "report"
            _debug_dumps(iospec, args, out)
            out.write(_tables(spec, cls, gates))
            code = 0
        else:
            stage = "decide"
            verdicts, gates, cls = decide(spec, caps, root=args.root, gates=gates, cls=cls)
            stage = "report"
            _debug_dumps(iospec, args, out)
            if args.mode == "oracle-check":
                code = _oracle_check(spec, cls, gates, verdicts, caps, out)
            elif args.report == "json":
                _report_json(gates, verdicts, out)
                code = _exit_code(verdicts)
            else:
                _report_text(spec, cls, gates, verdicts, out)
                code = _exit_code(verdicts)
        out.flush()  # a closed reader shows here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the idiom of the Python docs: the interpreter flushes stdout again
        # at exit, and that flush must not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 14
    except ParseError as exc:
        print(str(exc.diagnostic), file=sys.stderr)
        return 10
    except TranslationError as exc:
        print("prodcheck: %s" % exc, file=sys.stderr)
        return 12
    except CapError as exc:
        print("prodcheck: %s" % exc, file=sys.stderr)
        return 13
    except MemoryError:
        # the traceback holds the failed stage's frames, and with them its
        # data, until this clause ends: the line is written after the `try`
        pass
    finally:
        if collecting:
            gc.enable()
    print("prodcheck: out of memory in %s" % stage, file=sys.stderr)
    return 16


if __name__ == "__main__":
    sys.exit(main())
