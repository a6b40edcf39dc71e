"""treeball benchmark: one workload, one process, a fixed amount of work.

    python3 bench/run.py --workload census|documents|constructions \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; treeball is imported from its src/. The
work of a run is fixed per workload (ROUNDS rounds of the same operations);
`--seconds` is the nominal run length the work was sized to and does not
bound it. The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`. End-to-end times
are scaled to a reference machine speed (harness.Speedometer); per-layer
times are read off the clock. See README.md.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("census", "documents", "constructions")
SETUP_REPEATS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def load_workload(name):
    import importlib
    return importlib.import_module("wl_" + name)


def main(argv=None):
    args = parse_args(argv)
    try:
        import oracle  # noqa: F401  (needs sympy)
    except ImportError as err:
        print("bench: the oracle needs sympy: %s" % err, file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    workdir = os.path.join(harness.OUT, "work-%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    try:
        return measure(args, workload, workdir)
    except harness.SetupError as err:
        print("bench: %s" % err, file=sys.stderr)
        return 2
    finally:
        harness.SPEED.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir):
    make_inputs = getattr(workload, "make_inputs", None)
    inputs = make_inputs(random.Random(args.seed)) if make_inputs else None
    setup_times = []
    if not args.trace:
        harness.SPEED.start()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gc.collect()
        start = harness.SPEED.clock()
        tb = harness.fresh_import()
        state = workload.prepare(tb, workdir, inputs)
        setup_times.append(harness.SPEED.scaled(start))

    rec = harness.Recorder()
    rng = random.Random(args.seed * 7919 + 1)
    if args.trace:
        import oracle
        import tracing
        layers = tracing.layer_cases(tb, oracle, random.Random(args.seed))
        before = timed_round(tb, workload, state, rec, rng, True, None)
        tracer = tracing.Tracer()
        tracer.install(tb)
        try:
            traced = timed_round(tb, workload, state, rec, rng, False, tracer)
        finally:
            tracer.uninstall()
        # plain rounds on both sides of the traced one, so that neither cold
        # caches nor the machine's drift read as tracing overhead
        after = timed_round(tb, workload, state, rec, rng, False, None)
        plain = (before + after) / 2
        tracer.write(os.path.join(harness.OUT, "trace-%s-%d.json"
                                  % (args.workload, args.seed)))
        metrics = dict(tracing.layer_metrics(tracer))
        metrics.update(layers)
        metrics["trace.overhead_s"] = (traced - plain, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    else:
        rounds = []
        for i in range(workload.ROUNDS):
            rounds.append(timed_round(tb, workload, state, rec, rng, i == 0,
                                      None))
        harness.SPEED.stop()
        print("bench: %d calibration samples, %.2f s; the run's mean speed"
              " factor %.4f" % (len(harness.SPEED.samples),
                                harness.SPEED.seconds, harness.SPEED.factor()),
              file=sys.stderr)
        metrics = end_to_end(rec, rounds, setup_times, workload.ROUNDS)
    result = {
        "correct": not rec.errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def timed_round(tb, workload, state, rec, rng, first, tracer):
    """Run one round; its wall time is the sum of its operations, so the
    oracle's checks between operations are not counted."""
    gc.collect()
    before = len(rec.ops)
    workload.run_round(tb, state, rec, rng, first, tracer)
    return sum(op[2] for op in rec.ops[before:])


def end_to_end(rec, rounds, setup_times, n_rounds):
    per_op = len(rec.ops) // n_rounds
    by_round = [rec.ops[i:i + per_op] for i in range(0, len(rec.ops), per_op)]

    def phase_median(phase):
        return statistics.median(sum(op[2] for op in ops if op[1] == phase)
                                 for ops in by_round)

    latencies = [op[2] * 1e3 for op in rec.ops]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(rounds), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "census_s": (phase_median("census"), "s"),
        "lifts_s": (phase_median("lifts"), "s"),
        # the median of the rounds' medians: a round's operations can fall
        # into groups far apart in length, and the median over all the
        # rounds' operations would then be two order statistics at the gap
        "op_p50_ms": (statistics.median(statistics.median(op[2] for op in ops)
                                        for ops in by_round) * 1e3, "ms"),
        "op_p90_ms": (harness.p90(latencies), "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
