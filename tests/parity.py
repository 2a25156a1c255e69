"""Output parity harness: one hash over the analyzer's observable output.

    PYTHONPATH=src python tests/parity.py

Runs `prodcheck.cli.main` in this process over a fixed set of
specifications and command lines, and prints the number of runs and one
SHA-1 over every run's (spec, argv, exit code, stdout, stderr).  Two
checkouts whose hashes agree give byte-identical output on the whole set.
It exits with 1 if a run raises, ends in an exit code that is not
documented, or writes a traceback to stderr.

The set is the union of two:
- oracle runs: the `tests/data` specs, `random_flat_spec` seeds 0-149 at
  `max_feedback` 1 and 2 and `random_mixed_spec` seeds 0-149, each in
  `--mode oracle-check` with default caps, with `--oracle-prod-cap 8
  --oracle-steps 50`, with `--oracle-steps 3` and with `--oracle-prod-cap 4
  --oracle-steps 20`;
- report runs: the `tests/data` specs, the same `random_flat_spec` seeds and
  the families `chain` 1/16/64, `ring` 4/6/8, `prefix` 20, `two_rule_width`
  2/8/64 and `nested_calls` 1-4, each in decide with the text and the JSON
  report, in oracle-check and in gates with `--dump-equations
  --dump-diagram`.

The specs are written into a temporary directory under relative names, so
the hash does not depend on where the checkout lies.  The package is
imported from `sys.path`: point `PYTHONPATH` at another checkout's `src` to
hash that checkout's output on the same set.  Pytest does not collect this
file.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import random
import sys
import tempfile
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specgen  # noqa: E402
from prodcheck import cli  # noqa: E402

DOCUMENTED = {0, 1, 2, 10, 11, 12, 13, 14, 15, 16}

ORACLE_ARGS = [
    ["--mode", "oracle-check"],
    ["--mode", "oracle-check", "--oracle-prod-cap", "8", "--oracle-steps", "50"],
    ["--mode", "oracle-check", "--oracle-steps", "3"],
    ["--mode", "oracle-check", "--oracle-prod-cap", "4", "--oracle-steps", "20"],
]
REPORT_ARGS = [
    [],
    ["--report", "json"],
    ["--mode", "oracle-check"],
    ["--mode", "gates", "--dump-equations", "--dump-diagram"],
]
BOTH = ORACLE_ARGS + [args for args in REPORT_ARGS if args not in ORACLE_ARGS]


def specs():
    """(name, text, argument lists) of every spec of the set."""
    data = [("data_" + p.name, p.read_text(), BOTH) for p in sorted((HERE / "data").glob("*.spec"))]
    flat = [
        ("flat%d_%d.spec" % (fb, seed), specgen.random_flat_spec(random.Random(seed), max_feedback=fb), BOTH)
        for fb in (1, 2)
        for seed in range(150)
    ]
    mixed = [("mixed_%d.spec" % seed, specgen.random_mixed_spec(random.Random(seed)), ORACLE_ARGS) for seed in range(150)]
    families = [("chain%d.spec" % n, specgen.chain(n)) for n in (1, 16, 64)]
    families += [("ring%d.spec" % n, specgen.ring(n)) for n in (4, 6, 8)]
    families += [("prefix20.spec", specgen.prefix(20))]
    families += [("width%d.spec" % k, specgen.two_rule_width(k)) for k in (2, 8, 64)]
    families += [("nested%d.spec" % n, specgen.nested_calls(n)) for n in range(1, 5)]
    return data + flat + mixed + [(name, text, REPORT_ARGS) for name, text in families]


def main():
    digest = hashlib.sha1()
    runs, faults = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text, arg_lists in specs():
            pathlib.Path(name).write_text(text)
            for args in arg_lists:
                argv = [name] + args
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                except Exception:  # a fault of the analyzer, reported below
                    faults.append("%s: raised\n%s" % (" ".join(argv), traceback.format_exc()))
                    code = "raised"
                if code not in DOCUMENTED and code != "raised":
                    faults.append("%s: exit code %r" % (" ".join(argv), code))
                if "Traceback" in err.getvalue():
                    faults.append("%s: traceback on stderr" % " ".join(argv))
                record = repr((name, argv, code, out.getvalue(), err.getvalue()))
                digest.update(record.encode("utf-8") + b"\0")
                runs += 1
        os.chdir(HERE)
    for fault in faults:
        print("FAULT " + fault)
    print("%d runs, sha1 %s" % (runs, digest.hexdigest()))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
