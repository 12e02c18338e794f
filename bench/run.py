#!/usr/bin/env python3
"""chevelem benchmark: seeded factor / verify / localglobal workloads.

Run from the repository root:

    python3 bench/run.py --workload factor --seed 20181210 --seconds 20 --trace 0

One client drives the public ``chevelem`` API in a closed loop: the next
input starts only when the previous one has finished. Every output is
re-checked exactly, untimed, after its input finishes. A wrong output makes
the run print ``"correct": false`` and exit 1.

``--trace 0`` runs ``seconds * rate`` inputs (about ``--seconds`` seconds)
and reports the end-to-end metrics. ``--trace 1`` runs a fixed prefix of the
inputs twice, untraced and then traced (see tracer.py), reports the
per-layer metrics and the tracing overhead, and writes the spans to
``bench/out/``. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
are for people: the p90 sample count, the failure base, failures by kind,
the host's speed drift and the SHA-256 of the canonical certificate texts
of the prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

DEFAULT_SEED = 20181210  # README.md names the held-out seed
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
DRIFT_WINDOW = 5  # reference times within this many inputs either side
REFERENCE_S = 0.001  # times are reported at the host speed where reference_time() is this
ROOT_SYSTEMS = (("A", 2), ("A", 3), ("C", 2), ("C", 3))

END_TO_END = (
    ("throughput_per_s", "inputs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("verified_ratio", "ratio"),
    ("letters_per_input", "letters"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
OVERHEAD = (
    ("overhead.untraced_throughput_per_s", "inputs/s"),
    ("overhead.traced_throughput_per_s", "inputs/s"),
    ("overhead.inputs", "count"),
)


class InputCeiling(BaseException):
    """Raised inside the running input when it reaches its ceiling.

    A BaseException, so no ``except Exception`` in the library absorbs it."""


def _on_alarm(signum, frame):
    raise InputCeiling()


# -- set-up ---------------------------------------------------------------------


def import_library():
    """Import chevelem from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "chevelem" or n.startswith("chevelem.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    ce = importlib.import_module("chevelem")
    importlib.import_module("chevelem.cli")
    importlib.import_module("chevelem.fileio")
    if SRC not in Path(ce.__file__).resolve().parents:
        raise SystemExit("chevelem was imported from %s, not from %s" % (ce.__file__, SRC))
    return ce


def set_up(workload, seed, n, tracer=None):
    """Import, build the root systems and make n inputs; returns the seconds taken."""
    t0 = time.perf_counter()
    ce = import_library()
    if tracer is not None:
        tracer.install(ce)
        tracer.active = True
    for kind, rank in ROOT_SYSTEMS:
        ce.build_root_system(kind, rank)
    if tracer is not None:
        tracer.active = False
    items = workload.build(ce, random.Random(seed), n)
    return ce, items, time.perf_counter() - t0


# -- host speed drift --------------------------------------------------------------

_REF_RNG = random.Random(0)
_REF_A = {(_REF_RNG.randrange(8), _REF_RNG.randrange(8)): _REF_RNG.randrange(-99, 99) for _ in range(40)}
_REF_B = {(_REF_RNG.randrange(8), _REF_RNG.randrange(8)): _REF_RNG.randrange(-99, 99) for _ in range(40)}


def reference_time():
    """Seconds taken by fixed pure-Python work that does not use chevelem:
    a sparse product of two dict polynomials, as in MultiPoly.__mul__."""
    t0 = time.perf_counter()
    for _ in range(4):
        out = {}
        for (a1, a2), c1 in _REF_A.items():
            for (b1, b2), c2 in _REF_B.items():
                e = (a1 + b1, a2 + b2)
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
    return time.perf_counter() - t0


def smoothed(refs):
    """Median reference time around each input."""
    return [
        statistics.median(refs[max(0, i - DRIFT_WINDOW): i + DRIFT_WINDOW + 1])
        for i in range(len(refs))
    ]


def correct_drift(latencies, near):
    """Scale each latency, in place, to the host speed where the reference
    work takes REFERENCE_S.

    A shared host's speed drifts by tens of percent over seconds, for every
    program alike. ``near[i]`` is the reference time around input i; its
    ratio to REFERENCE_S is the slowdown input i ran under. Returns the mean
    slowdown."""
    for i, r in enumerate(near):
        latencies[i] *= REFERENCE_S / r
    return statistics.fmean(near) / REFERENCE_S


# -- running inputs --------------------------------------------------------------


class Tally:
    """Outcome of a sequence of inputs."""

    def __init__(self):
        self.latencies = []
        self.refs = []
        self.letters = []
        self.failures = {}
        self.wrong = []
        self.digest = hashlib.sha256()
        self.digested = 0

    def add(self, workload, ce, index, item, out, dt, error):
        self.latencies.append(dt)
        if error is None:
            ok, letters, text = workload.check(ce, item, out)
            if not ok:
                self.wrong.append("input %d (%s)" % (index, item.family))
            self.letters.append(letters)
        else:
            self.failures[error] = self.failures.get(error, 0) + 1
            text = "failed\n"
        if index < workload.trace_inputs:
            self.digest.update(text.encode())
            self.digested += 1

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def verified(self):
        return self.attempted - self.failed

    def throughput(self):
        return self.verified / sum(self.latencies)


def run_one(workload, ce, item, slowdown=1.0):
    """Time one input under the workload's ceiling, stretched by the host's
    current slowdown; returns (output, seconds, error name)."""
    out, error = None, None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.ceiling_s * slowdown)
            out = workload.run(ce, item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InputCeiling:
        error = "ceiling"
    except Exception as exc:  # any library error is a failed input, not a crash
        error = type(exc).__name__
    return out, time.perf_counter() - t0, error


def run_inputs(workload, ce, items, tracer=None):
    """Run the inputs in order, each after one reference timing."""
    tally = Tally()
    ceiling_hits = 0
    for index, item in enumerate(items):
        tally.refs.append(reference_time())
        slowdown = max(1.0, statistics.median(tally.refs[-2 * DRIFT_WINDOW:]) / REFERENCE_S)
        if tracer is None:
            out, dt, error = run_one(workload, ce, item, slowdown)
        else:
            snap = tracer.snapshot()
            sid = tracer.begin_input("%s[%d] %s" % (workload.name, index, item.family))
            tracer.active = True
            try:
                out, dt, error = run_one(workload, ce, item, slowdown)
            finally:
                tracer.active = False
                tracer.end_input(sid)
            if error == "ceiling":
                # where the ceiling cuts an input depends on the clock: keep
                # its counts out so that they repeat exactly
                tracer.restore(snap)
                ceiling_hits += 1
        tally.add(workload, ce, index, item, out, dt, error)
    return tally, ceiling_hits


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(workload, seed, seconds):
    n = max(1, round(seconds * workload.rate))
    setups, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(statistics.median(reference_time() for _ in range(3)))
        ce, items, took = set_up(workload, seed, n)
        setups.append(took)
    start = time.perf_counter()
    tally, _ = run_inputs(workload, ce, items)
    wall = time.perf_counter() - start

    raw = tally.throughput()
    slowdown = correct_drift(tally.latencies, smoothed(tally.refs))
    correct_drift(setups, setup_refs)
    lat = sorted(tally.latencies)
    p90 = percentile(lat, 0.9)
    values = {
        "throughput_per_s": tally.throughput(),
        "latency_p50_ms": percentile(lat, 0.5) * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "verified_ratio": tally.verified / tally.attempted,
        "letters_per_input": statistics.fmean(tally.letters) if tally.letters else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("workload %s seed %d: %d inputs, %.2f s timed, %.2f s in all"
          % (workload.name, seed, tally.attempted, sum(tally.latencies), wall))
    print("  drift: reference work took %.3fx REFERENCE_S on average; uncorrected throughput %.3f inputs/s"
          % (slowdown, raw))
    print("  p90 over %d samples, %d above it" % (len(lat), sum(1 for v in lat if v > p90)))
    print("  failed_ratio %.4f = %d / %d attempted %s"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted, tally.failures))
    print("  setup_s runs: %s" % " ".join("%.3f" % s for s in setups))
    _print_digest(workload, tally)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return tally, metrics


def traced_run(workload, seed):
    ce, items, _ = set_up(workload, seed, workload.trace_inputs)
    plain, _ = run_inputs(workload, ce, items)
    tracer = Tracer()
    ce, items, _ = set_up(workload, seed, workload.trace_inputs, tracer)
    traced, ceiling_hits = run_inputs(workload, ce, items, tracer)

    correct_drift(plain.latencies, smoothed(plain.refs))
    correct_drift(traced.latencies, smoothed(traced.refs))
    print("workload %s seed %d traced: %d inputs, %d failed %s, %d cut by the ceiling"
          % (workload.name, seed, traced.attempted, traced.failed, traced.failures, ceiling_hits))
    print("  untraced %.3f inputs/s, traced %.3f inputs/s, both over %d inputs"
          % (plain.throughput(), traced.throughput(), len(items)))
    _print_digest(workload, traced)
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        print("  NOTE: the untraced pass emitted other certificates (sha256 %s)"
              % plain.digest.hexdigest())
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-%d.json" % (workload.name, seed))
    spans.write_text(json.dumps(tracer.spans))
    print("  %d spans written to %s" % (len(tracer.spans), spans))
    metrics = tracer.metrics()
    overhead = (plain.throughput(), traced.throughput(), len(items))
    for (name, unit), value in zip(OVERHEAD, overhead):
        metrics[name] = {"value": value, "unit": unit}
    return traced, metrics


def _print_digest(workload, tally):
    if tally.digested >= workload.trace_inputs:
        print("  certificate sha256 over the first %d inputs: %s"
              % (tally.digested, tally.digest.hexdigest()))
    else:
        print("  certificate sha256: not reached (%d of %d inputs)"
              % (tally.digested, workload.trace_inputs))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            tally, m = traced_run(workload, args.seed)
        else:
            tally, m = timed_run(workload, args.seed, args.seconds)
        for line in tally.wrong:
            print("  WRONG: %s" % line)
        for metric, v in m.items():
            print("  %-48s %16.6f %s" % (metric, v["value"], v["unit"]))
        correct = correct and not tally.wrong
        attempted += tally.attempted
        failed += tally.failed
        prefix = "%s." % name if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
