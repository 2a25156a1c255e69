"""prodcheck benchmark.

    python3 perfbench/run.py --workload corpus|chain|collapse
                             --seed N --seconds S --trace 0|1

Runs one workload through `prodcheck.cli.main(argv)` in this process, one
analysis at a time (a closed loop with a single caller), and checks every
report against the hand-derived references in `workloads.py`.  With
`--trace 0` it times analyses untraced and reports the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes and reports
per-layer self times and work counts (see `tracing.py`).  Human-readable
lines come first; the last line of standard output is one JSON object.

The analyzer is imported from `src/` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import pathlib
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TIME_LIMIT_S = 10  # per analysis; the slowest input, chain-128, takes about 1 s
MIN_SAMPLES = 100  # so that at least ten analyses lie above the p90
HARD_STOP_S = 100  # no analysis starts later than this into the measurement
SETUP_REPEATS = 11
MIN_TRACED_PASSES = 3
REFERENCE_RUNS = 2  # reference timings on each side of every analysis


class AnalysisTimeout(BaseException):
    """Raised from the alarm handler.  A BaseException, so that no handler
    inside the analyzer can swallow it."""


def _on_alarm(signum, frame):
    raise AnalysisTimeout


def reference_work() -> int:
    """A fixed piece of interpreter work that belongs to the benchmark.

    The CPU this runs on slows down by 1.3 to 1.5 times for stretches of
    seconds to minutes (other tenants of the host), and process CPU time
    slows with it.  Every analysis is therefore bracketed by timings of this
    function, and its time is also reported in units of the reference: a
    machine-independent figure that stays steady while the host's speed
    swings.  Tuples, dicts, small lists and str() calls are close to what
    the analyzer spends its time on.
    """
    table = {}
    for i in range(3000):
        table[("k", i % 97, i)] = [str(i), i * 3 % 11]
    return sum(len(v[0]) + v[1] for v in table.values())


def _time_reference() -> float:
    gc.disable()  # the analyzer's heap must not slow the reference down
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Outcome:
    seconds: float
    reference: float  # median time of reference_work() around the analysis
    problems: list
    output_bytes: int

    @property
    def relative(self) -> float:
        """The analysis time in units of the reference."""
        return self.seconds / self.reference


def analyze(main, case, path, limit=TIME_LIMIT_S) -> Outcome:
    """One `main([path, "--mode", mode, "--report", report])` call, timed
    and checked.

    A wrong answer, an exception or no answer within `limit` seconds is a
    failed analysis; it never stops the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every analysis starts from the same collector state
    references = [_time_reference() for _ in range(REFERENCE_RUNS)]
    start = time.perf_counter()
    signal.alarm(limit)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = main([path] + case.argv)
            elapsed = time.perf_counter() - start
        signal.alarm(0)
        problems = workloads.check(case, code, out.getvalue(), err.getvalue())
    except AnalysisTimeout:
        elapsed = time.perf_counter() - start
        problems = ["no result within %d s" % limit]
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        problems = ["raised " + traceback.format_exc().strip().splitlines()[-1]]
    finally:
        signal.alarm(0)
    references += [_time_reference() for _ in range(REFERENCE_RUNS)]
    return Outcome(
        elapsed, statistics.median(references), problems, len(out.getvalue().encode("utf-8"))
    )


def _analyzer_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "prodcheck" or m.startswith("prodcheck.")}


def setup(workload: str, seed: int, workdir: pathlib.Path):
    """Import the analyzer afresh and write the workload's spec files."""
    for name in _analyzer_modules():
        del sys.modules[name]
    cli = importlib.import_module("prodcheck.cli")
    cases = workloads.build(workload, seed)
    folder = pathlib.Path(tempfile.mkdtemp(dir=workdir))
    paths = {}
    for i, case in enumerate(cases):
        path = folder / ("input-%02d.spec" % i)
        path.write_text(case.text)
        paths[case.label] = str(path)
    return cli, cases, paths


class Run:
    """Analyses of one measurement, in seeded order, whole passes at a time.

    Set-up is timed again every `seconds / SETUP_REPEATS` of the run, so that
    its median sees the same machine as the analyses do.  The modules that
    a repeated set-up imports are dropped again afterwards: the analyses keep
    running the code they have warmed up.
    """

    def __init__(self, workload: str, seed: int, seconds: int, workdir: pathlib.Path):
        self._setup_args = (workload, seed, workdir)
        gc.collect()
        start = time.perf_counter()
        self.cli, self.cases, self.paths = setup(*self._setup_args)
        self.setups = [time.perf_counter() - start]
        self.rng = random.Random("order-%d" % seed)
        self.attempted = 0
        self.failed = 0
        self._setup_every = seconds / SETUP_REPEATS
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _time_setup(self):
        kept = _analyzer_modules()
        gc.collect()
        start = time.perf_counter()
        setup(*self._setup_args)
        self.setups.append(time.perf_counter() - start)
        for name in _analyzer_modules():
            del sys.modules[name]
        sys.modules.update(kept)

    def one_pass(self, main):
        if self.elapsed() >= len(self.setups) * self._setup_every:
            self._time_setup()
        order = list(self.cases)
        self.rng.shuffle(order)
        outcomes = []
        for case in order:
            if self.elapsed() > HARD_STOP_S:
                break
            outcome = analyze(main, case, self.paths[case.label])
            self.attempted += 1
            if outcome.problems:
                self.failed += 1
                print("FAILED %s: %s" % (case.label, "; ".join(outcome.problems)), file=sys.stderr)
            outcomes.append((case, outcome))
        return outcomes


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def growth(outcomes):
    """Log-log slope of the median relative time per size, per generated
    family, and the median time per size in ms."""
    by_size: dict = {}
    for case, outcome in outcomes:
        if case.size:
            by_size.setdefault(case.family, {}).setdefault(case.size, []).append(outcome)
    slopes = {}
    for family, sizes in by_size.items():
        xs = [math.log(s) for s in sizes]
        ys = [math.log(statistics.median(o.relative for o in v)) for v in sizes.values()]
        slopes[family] = statistics.linear_regression(xs, ys).slope
    medians = {
        "%s-%d" % (family, size): 1000 * statistics.median(o.seconds for o in v)
        for family, sizes in by_size.items()
        for size, v in sizes.items()
    }
    return slopes, medians


def timed(run: Run, seconds: int):
    outcomes = []
    while run.elapsed() < seconds or len(outcomes) < MIN_SAMPLES:
        if run.elapsed() > HARD_STOP_S:
            break
        outcomes.extend(run.one_pass(run.cli.main))
    rel = sorted(o.relative for _, o in outcomes)
    ms = sorted(1000 * o.seconds for _, o in outcomes)
    metrics = {
        "analyze_rel.p50": (statistics.median(rel), "ref"),
        "analyze_rel.p90": (_p90(rel), "ref"),
        "specs_per_ref": (len(rel) / sum(rel), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(run.setups), "s"),
    }
    print("analyze_ms.p50 %.4f ms (as measured)" % statistics.median(ms))
    print("analyze_ms.p90 %.4f ms (as measured)" % _p90(ms))
    print("specs_per_s %.4f 1/s (as measured)" % (len(ms) / (sum(ms) / 1000)))
    print("reference_ms %.4f ms (median)" % (1000 * statistics.median(o.reference for _, o in outcomes)))
    print("samples %d (analyses timed), set-ups %d" % (len(ms), len(run.setups)))
    slopes, medians = growth(outcomes)
    for label, value in medians.items():
        print("median %s %.3f ms" % (label, value))
    if slopes:
        for family, slope in slopes.items():
            print("growth_exponent.%s %.4f (diagnostic)" % (family, slope))
        print("growth_exponent %.4f (diagnostic)" % max(slopes.values()))
    return metrics


def traced_pass(run: Run, tracer: tracing.Tracer, workload: str):
    """One pass with the wrappers installed, and its per-layer metrics."""
    tracer.reset()
    with tracer:
        outcomes = run.one_pass(tracer.root(run.cli.main))
    tracer.counts["cli.output_bytes"] += sum(o.output_bytes for _, o in outcomes)
    return outcomes, tracer.pass_metrics(workload)


def traced(run: Run, seconds: int, workload: str):
    tracer = tracing.Tracer()
    untraced, traced_rel, passes = [], [], []
    while run.elapsed() < seconds or len(passes) < MIN_TRACED_PASSES:
        if run.elapsed() > HARD_STOP_S:
            break
        untraced.extend(o.relative for _, o in run.one_pass(run.cli.main))
        outcomes, metrics = traced_pass(run, tracer, workload)
        traced_rel.extend(o.relative for _, o in outcomes)
        passes.append(metrics)
    steady = True
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if tracing.UNITS.get(name) == "ms" or name in tracing.DIAGNOSTIC_MS:
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                steady = False
                print("count %s differs between traced passes: %s" % (name, values), file=sys.stderr)
        if name in tracing.DIAGNOSTIC_MS:
            print("%s %.4f ms (diagnostic)" % (name, value))
        else:
            metrics[name] = (value, tracing.UNITS[name])
    overhead = statistics.median(traced_rel) / statistics.median(untraced)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    print("traced passes %d, untraced analyses %d, traced analyses %d" % (len(passes), len(untraced), len(traced_rel)))
    return metrics, steady


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "prodcheck" / "cli.py").is_file():
        print("perfbench: no analyzer sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=WORK))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        if not pathlib.Path(run.cli.__file__).resolve().is_relative_to(SRC):
            print("perfbench: imported %s, not the analyzer under %s" % (run.cli.__file__, SRC), file=sys.stderr)
            return 2
        steady = True
        if args.trace:
            metrics, steady = traced(run, args.seconds, args.workload)
        else:
            metrics = timed(run, args.seconds)
    except tracing.GuardError as exc:
        print("perfbench: trace guard: %s" % exc, file=sys.stderr)
        return 3
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print("attempted %d failed %d failed_frac %.4f" % (run.attempted, run.failed, run.failed / run.attempted))
    for name, (value, unit) in metrics.items():
        print("%s %s %s" % (name, value, unit))
    result = {
        "correct": run.failed == 0 and steady,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
