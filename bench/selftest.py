#!/usr/bin/env python3
"""Self-test of the benchmark's tracing and determinism.

Run from the repository root:

    python3 bench/selftest.py [--seed N]

For each workload it makes two traced runs of one seed, each in its own
process, and checks:

* ``words.eval_word.calls > 0`` on ``factor`` (the wrapping reaches names
  imported into other modules);
* every ``localglobal.*.calls`` is 0 on ``factor`` and ``verify``;
* every count metric repeats exactly between the two runs;
* the certificate SHA-256 of the prefix repeats between the two runs;
* the metric names match BENCHMARK.json, in both trace modes.

It prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "letters")


def bench_run(workload, seed, *args):
    """One run in a fresh process: (metrics, digest line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), *args],
        cwd=BENCH.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s run %s failed:\n%s%s" % (workload, args, proc.stdout, proc.stderr))
    digest = next((ln.strip() for ln in lines if "certificate sha256" in ln), "")
    return json.loads(lines[-1])["metrics"], digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print("%s  %s%s" % ("PASS" if ok else "FAIL", name, (": " + detail) if detail else ""))

    timed, _ = bench_run("localglobal", args.seed, "--seconds", "2", "--trace", "0")
    check("--trace 0 metric names match end_to_end",
          sorted(timed) == sorted(m["name"] for m in declared["end_to_end"]))
    per_layer = sorted(m["name"] for m in declared["per_layer"])
    for workload in ("factor", "verify", "localglobal"):
        first, digest1 = bench_run(workload, args.seed, "--trace", "1")
        second, digest2 = bench_run(workload, args.seed, "--trace", "1")
        check("%s: --trace 1 metric names match per_layer" % workload, sorted(first) == per_layer)
        if workload == "factor":
            calls = first["words.eval_word.calls"]["value"]
            check("factor: words.eval_word.calls > 0", calls > 0, "%d calls" % calls)
        if workload in ("factor", "verify"):
            busy = {k: v["value"] for k, v in first.items()
                    if k.startswith("localglobal.") and k.endswith(".calls") and v["value"]}
            check("%s: every localglobal.*.calls is 0" % workload, not busy, str(busy or ""))
        counts = [k for k, v in first.items()
                  if v["unit"] in COUNT_UNITS and not k.startswith("overhead.")]
        moved = {k: (first[k]["value"], second[k]["value"])
                 for k in counts if first[k]["value"] != second[k]["value"]}
        check("%s: %d count metrics repeat across two processes" % (workload, len(counts)),
              not moved, str(moved or ""))
        check("%s: certificate digest repeats across two processes" % workload,
              digest1 == digest2 and bool(digest1),
              "" if digest1 == digest2 else "%s vs %s" % (digest1, digest2))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
