"""Self-tests of the benchmark harness, not of the analyzer.

    python3 perfbench/selftest.py

They check that a wrong reference, an exception and a hang each count as a
failed analysis without stopping the run, that the trace guards fail loudly,
and that per-layer counts repeat exactly across traced passes and seeds.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import signal
import sys
import tempfile
import unittest

import run
import tracing
import workloads


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if tracing.UNITS.get(k) != "ms" and k not in tracing.DIAGNOSTIC_MS}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        run.WORK.mkdir(exist_ok=True)
        cls.workdir = pathlib.Path(tempfile.mkdtemp(dir=run.WORK))
        cls.previous = signal.signal(signal.SIGALRM, run._on_alarm)

    @classmethod
    def tearDownClass(cls):
        signal.signal(signal.SIGALRM, cls.previous)
        shutil.rmtree(cls.workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    def _run(self, workload, seed=1):
        return run.Run(workload, seed, 60, self.workdir)

    def test_references_hold_at_this_commit(self):
        for workload in workloads.WORKLOADS:
            r = self._run(workload)
            for case, outcome in r.one_pass(r.cli.main):
                self.assertEqual(outcome.problems, [], case.label)

    def test_wrong_reference_is_a_failure(self):
        r = self._run("chain")
        case = r.cases[0]
        wrong = dataclasses.replace(
            case.expected, verdicts={c: ("1", "not-productive") for c in case.expected.verdicts}
        )
        r.cases = [dataclasses.replace(case, expected=wrong)]
        outcomes = r.one_pass(r.cli.main)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("verdicts", outcomes[0][1].problems[0])

    def test_exception_is_a_failure(self):
        def broken(argv):
            raise RecursionError("too deep")

        r = self._run("collapse")
        r.cases = r.cases[:1]
        outcomes = r.one_pass(broken)
        self.assertEqual(r.failed, 1)
        self.assertIn("RecursionError", outcomes[0][1].problems[0])

    def test_hang_is_a_failure(self):
        def hang(argv):
            while True:
                pass

        r = self._run("collapse")
        case = r.cases[0]
        outcome = run.analyze(hang, case, r.paths[case.label], limit=1)
        self.assertEqual(outcome.problems, ["no result within 1 s"])
        self.assertLess(outcome.seconds, 5)

    def test_traced_counts_repeat_across_passes_and_seeds(self):
        for workload in workloads.WORKLOADS:
            tracer = tracing.Tracer()
            counts = []
            for seed in (1, 2):
                r = self._run(workload, seed)
                for _ in range(2):
                    _, metrics = run.traced_pass(r, tracer, workload)
                    counts.append(_counts(metrics))
                self.assertEqual(r.failed, 0, workload)
            for other in counts[1:]:
                self.assertEqual(counts[0], other, workload)

    def test_seed_renames_symbols_only(self):
        for workload in ("chain", "collapse"):
            one, two = workloads.build(workload, 1), workloads.build(workload, 2)
            self.assertNotEqual([c.text for c in one], [c.text for c in two])
            self.assertEqual([len(c.text) for c in one], [len(c.text) for c in two])
            self.assertEqual([c.label for c in one], [c.label for c in two])

    def test_guard_rejects_a_moved_call(self):
        self._run("corpus")  # imports the analyzer
        for hook in (tracing.ROOT,) + tracing.HOOKS:
            tracing.check_hook(hook)
        gone = tracing.Hook("solver", "prodcheck.translate", "no_such_solve", "translate_symbols")
        moved = tracing.Hook("solver", "prodcheck.translate", "solve", "decide")
        for hook in (gone, moved):
            with self.assertRaises(tracing.GuardError):
                tracing.check_hook(hook)

    def test_guard_rejects_a_silent_layer(self):
        self._run("corpus")
        tracer = tracing.Tracer()
        with self.assertRaises(tracing.GuardError):
            tracer.pass_metrics("collapse")


if __name__ == "__main__":
    unittest.main()
