"""Benchmark of elastinet: one workload per run, every output checked.

    python3 bench/run.py --workload theta_ladder|curve_ladder|audit_batch \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from its
``src``.  The workload runs whole rounds while the next one is expected to
end within ``S`` seconds, and at least one.  Set-up (a fresh import of the
library plus construction of the inputs) runs fifteen times at the start,
for ``setup_s``, and again before every round.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced rounds for ``S/2`` seconds are followed by traced ones
for ``S/2`` and by single-layer timings, and the object holds the per-layer
metrics.  Every workload reports
every metric declared in BENCHMARK.json, by the name and unit declared there.
Times are CPU seconds of the main thread (see ``recorder``) scaled to the
nominal speed of the host (see ``speed``); a run in which other threads take
more than a sliver of the CPU stops with exit code 4, since those times would
leave their work out.
"""

from __future__ import annotations

import os

# One thread everywhere: numpy must not start a BLAS pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYER_MODULES = ("geometry", "energy", "networks", "bounds", "stationarity", "minimize", "cli")
SETUP_REPEATS = 15
# The layers every workload calls, since each certifies networks.  The solver
# ("minimize") and the command line ("cli") run on the ladders only, so their
# spans go to standard error.
CERTIFY_LAYERS = ("energy", "networks", "bounds", "stationarity", "injectivity")
SAMPLER = speed.Sampler()


def import_library():
    """A fresh import of the library from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "elastinet" or m.startswith("elastinet.")]:
        del sys.modules[name]
    package = importlib.import_module("elastinet")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"elastinet imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"elastinet.{m}") for m in LAYER_MODULES})


def set_up(args, setup_s: list):
    """Import the library afresh and build the workload's inputs; time both."""
    from workloads import WORKLOADS

    start = SAMPLER.work_clock()
    lib = import_library()
    workload = WORKLOADS[args.workload](lib, args.seed, str(BENCH / "out" / args.workload))
    setup_s.append(SAMPLER.work_clock() - start)
    return lib, workload


def measure(args, seconds: float, tracing: bool):
    """Whole rounds, each on a fresh set-up, while the next one is expected to
    end within ``seconds``; at least one.  Returns the recorder, the sampler's
    marks at the start of every round and at the end of the last, the library
    and the workload."""
    from recorder import Recorder

    rec = Recorder(tracing, SAMPLER.work_clock)
    marks = []
    start = perf_counter()
    while True:
        lib, workload = set_up(args, [])
        marks.append(SAMPLER.mark())
        workload.run_round(rec)
        if (perf_counter() - start) * (len(marks) + 1) / len(marks) > seconds:
            marks.append(SAMPLER.mark())
            return rec, marks, lib, workload


def op_seconds(rec, marks: list) -> list[float]:
    """Each operation's library time at nominal speed, the median over the
    run's rounds.

    A round's times are divided by the speed factor of the slices taken
    during it, which removes the host's drift over seconds and minutes.
    """
    rounds = len(marks) - 1
    per_round = len(rec.op_seconds) // rounds
    factors = [SAMPLER.factor(marks[r], marks[r + 1]) for r in range(rounds)]
    scaled = [t / factors[k // per_round] for k, t in enumerate(rec.op_seconds)]
    return [statistics.median(scaled[i::per_round]) for i in range(per_round)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("theta_ladder", "curve_ladder", "audit_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    sys.path.insert(0, str(SRC))
    SAMPLER.start()
    try:
        return run(args, declared, units)
    finally:
        SAMPLER.stop()


def run(args, declared, units) -> int:
    setup_s = []
    mark = SAMPLER.mark()
    for _ in range(SETUP_REPEATS):
        try:
            set_up(args, setup_s)
        except ImportError as exc:
            print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
            return 2
    setup_factor = SAMPLER.factor(mark)

    if args.trace:
        from layers import layer_timings
        from recorder import layer_summary

        rec, marks, _, _ = measure(args, args.seconds / 2, False)
        traced, traced_marks, lib, workload = measure(args, args.seconds / 2, True)
        spans = layer_summary(traced.spans, len(traced_marks) - 1)
        factor = SAMPLER.factor(traced_marks[0], traced_marks[-1])
        declared_spans = {f"span.{layer}.{what}" for layer in CERTIFY_LAYERS for what in ("calls", "self_s")}
        values = {name: spans[name] / (factor if name.endswith("_s") else 1.0) for name in sorted(declared_spans)}
        values["trace.overhead_s"] = sum(op_seconds(traced, traced_marks)) - sum(op_seconds(rec, marks))
        mark = SAMPLER.mark()
        timings = layer_timings(lib, SAMPLER.work_clock)
        factor = SAMPLER.factor(mark)
        values.update({name: us / factor for name, us in timings.items()})
        info = {name: v for name, v in spans.items() if name not in declared_spans}
        info.update(workload.stats)
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
        errors = rec.errors + traced.errors
    else:
        rec, marks, _, workload = measure(args, args.seconds, False)
        attempted, failed, errors = rec.attempted, rec.failed, rec.errors
        values = {
            "setup_s": statistics.median(setup_s) / setup_factor,
            "scaled_cpu_s": sum(op_seconds(rec, marks)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_round = len(rec.op_seconds) // (len(marks) - 1)
        unscaled = sum(statistics.median(rec.op_seconds[i::per_round]) for i in range(per_round))
        info = {"unscaled_cpu_s": unscaled, **workload.stats}
    info["speed_factor"] = SAMPLER.factor(0)
    print(f"info: {json.dumps(info)}", file=sys.stderr)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    other_threads_s = usage.ru_utime + usage.ru_stime - thread_time()
    if other_threads_s > 0.02 * thread_time() + 0.1:
        print(f"error: threads other than the main one took {other_threads_s:.2f} s of CPU", file=sys.stderr)
        return 4
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != expected:
        print(f"error: metrics {sorted(set(values) ^ expected)} are not both declared and measured", file=sys.stderr)
        return 3
    for message in errors:
        print(f"failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
