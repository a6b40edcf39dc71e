"""Plumbing shared by the workloads: importing treeball from the checkout,
driving its CLI in-process, timing operations at a reference machine speed,
and recording operations and check results."""

import bisect
import contextlib
import gc
import io
import os
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark: no source tree, or a warm-up
    command that fails."""


def fresh_import():
    """Import treeball from the checkout's src/, dropping any earlier copy,
    so every set-up pays for a cold import and empty module caches."""
    if not os.path.isfile(os.path.join(SRC, "treeball", "__init__.py")):
        raise SetupError("no treeball source tree under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "treeball" or n.startswith("treeball.")]:
        del sys.modules[name]
    import treeball
    import treeball.cli
    if not os.path.abspath(treeball.__file__).startswith(SRC):
        raise SetupError("imported treeball from %s, not the checkout"
                         % treeball.__file__)
    return treeball


#: seconds one calibration unit takes at the reference speed: about its time
#: on the machine README.md describes in that machine's faster stretches
REFERENCE_UNIT_S = 1.2e-3
#: seconds between calibration samples
SAMPLE_PERIOD_S = 0.025
#: an operation is scaled by the samples taken while it ran and in the
#: WINDOW_S before it, and by at least the last MIN_SAMPLES samples
WINDOW_S = 0.1
MIN_SAMPLES = 6


def calibration_unit():
    """A fixed piece of pure-Python work shaped like treeball's inner loops:
    the closure of S6 under two generators, its 720 permutations held as
    tuples in a dict. It imports nothing from treeball, so no change to the
    program moves it."""
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    seen = {tuple(range(6)): 0}
    frontier = list(seen)
    while frontier:
        grown = []
        for p in frontier:
            for g in gens:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen[q] = len(seen)
                    grown.append(q)
        frontier = grown
    return len(seen)


class Speedometer:
    """The machine's speed, sampled while a run measures.

    This machine's speed drifts by a quarter and more, over seconds as well
    as over minutes, and the program's times follow it. So a timer
    interrupts the run every SAMPLE_PERIOD_S, inside operations as well as
    between them, to time one calibration unit with the garbage collector
    off (so that the size of the program's heap does not slow it). clock()
    leaves the samples' time out, so operations are timed as if they had
    not been interrupted. scaled() multiplies an operation's time by
    REFERENCE_UNIT_S over the mean time of a unit in the samples taken
    while it ran and just before, so that it reads as seconds at the
    reference speed. A change to treeball moves a scaled time as it moves
    the clock; a slow stretch of the machine slows the program and the loop
    alike, and cancels out. Without the timer, times are left as they are.
    """

    def __init__(self):
        self.samples = []    # (clock() when it began, seconds it took)
        self.seconds = 0.0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_unit()
            took = time.perf_counter() - start
            self.samples.append((start - self.seconds, took))
            self.seconds += took
        finally:
            if collecting:
                gc.enable()

    def clock(self):
        """perf_counter() less the time the samples took so far."""
        while True:
            spent = self.seconds
            now = time.perf_counter()
            if spent == self.seconds:
                return now - spent

    def scaled(self, start):
        """Seconds since clock() read `start`, at the reference speed."""
        seconds = self.clock() - start
        n = len(self.samples)
        first = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        near = self.samples[min(first, max(0, n - MIN_SAMPLES)):n]
        if not near:
            return seconds
        return seconds * REFERENCE_UNIT_S * len(near) / sum(t for _, t in near)

    def factor(self):
        """REFERENCE_UNIT_S over the mean time of a unit in the whole run."""
        return (REFERENCE_UNIT_S * len(self.samples) / self.seconds
                if self.samples else 1.0)


SPEED = Speedometer()


class Outcome:
    __slots__ = ("code", "out", "err", "seconds", "crashed")

    def __init__(self, code, out, err, seconds, crashed):
        self.code = code
        self.out = out
        self.err = err
        self.seconds = seconds
        self.crashed = crashed


def run_cli(tb, args, tracer=None):
    """Run `treeball <args>` in this process, as the console script would.

    Returns the exit code the process would have had: click's own for
    usage errors, 1 with a traceback for an exception that escapes.
    """
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    span = tracer.span("cli." + args[0]) if tracer else contextlib.nullcontext()
    # start with no garbage left by earlier operations, as a fresh process
    gc.collect()
    start = SPEED.clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with span:
            try:
                tb.cli.main.main(args=list(args), prog_name="treeball",
                                 standalone_mode=True)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code, crashed = 1, True
    seconds = SPEED.scaled(start)
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, crashed)


def call(fn, *args):
    """fn(*args) timed, as (result, seconds, exception or None): a library
    operation that raises fails, without ending the run."""
    gc.collect()    # as in run_cli
    start = SPEED.clock()
    try:
        result, error = fn(*args), None
    except Exception as exc:
        result, error = None, exc
    return result, SPEED.scaled(start), error


class Recorder:
    """Operations of one run with their timings, and every failed check.

    An operation is attempted once per round; it fails when the program
    crashes on it or gives a wrong answer. A wrong answer also makes the
    run incorrect, while a crash that the workload expects does not.
    """

    def __init__(self):
        self.ops = []
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def op(self, name, phase, seconds, ok=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.ops.append((name, phase, seconds))

    def check(self, condition, message):
        if not condition:
            self.errors.append(message)
            print("CHECK FAILED: %s" % message, file=sys.stderr)

    def checks(self, messages, where):
        for message in messages:
            self.check(False, "%s: %s" % (where, message))


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]
