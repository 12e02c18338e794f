"""Line reach of src/chevelem: which lines of the package any recorded run
executed, and which executable lines none did.

    python3 tools/reach.py OUTDIR -- CMD [ARG ...]
    python3 tools/reach.py OUTDIR --report

The first form runs CMD with a generated ``sitecustomize`` first on
PYTHONPATH.  It installs a ``sys.settrace`` hook in every Python process
that starts under CMD, child processes included (``bench/selftest.py``
runs the bench in children), and each process adds a file of the
(module, line) pairs of src/chevelem it executed to OUTDIR when it exits.
Runs of several commands accumulate in OUTDIR; the exit code is CMD's.

The second form lists, per module, the executable lines that no recorded
run reached, grouped by the function that encloses them.  A module's
executable lines are the lines its compiled code objects' ``co_lines``
name; a function's ``def`` line belongs to the code around it, so a
lambda or comprehension counts as reached with the line it sits on.

Cost: every line of the package runs a Python callback.  On a 2-core
Xeon VM, Tier-1 took 124 s under the hook against 28 s plain, and a test
with a fixed wall-time ceiling can fail under it
(test_factor_integer_sl_dense_sl20_within_ceiling did).  A process that
ends through ``os._exit`` or a signal writes no file, and a
``sitecustomize`` elsewhere on the path is shadowed while CMD runs.
Standard library only; not part of Tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "chevelem"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading, time

PKG, OUTDIR = %r, %r
names, lines, tracers = {}, {}, {}


def local_tracer(hits):
    def local(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return local
    return local


def trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in names:
        path = os.path.realpath(filename)
        names[filename] = os.path.basename(path) if os.path.dirname(path) == PKG else None
    module = names[filename]
    if module is None:
        return None
    if module not in tracers:
        tracers[module] = local_tracer(lines.setdefault(module, set()))
    return tracers[module]


def dump():
    sys.settrace(None)
    name = os.path.join(OUTDIR, "lines-%%d-%%d.txt" %% (os.getpid(), time.time_ns()))
    with open(name, "w", encoding="utf-8") as fh:
        fh.writelines("%%s %%d\\n" %% (m, n) for m, hits in lines.items() for n in sorted(hits))


atexit.register(dump)
threading.settrace(trace)
sys.settrace(trace)
'''


def run(outdir: Path, cmd: list) -> int:
    """Run cmd under the line hook, adding its records to outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as site:
        text = SITECUSTOMIZE % (str(PKG), str(outdir.resolve()))
        Path(site, "sitecustomize.py").write_text(text, encoding="utf-8")
        path = [site] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run(cmd, env=env, check=False).returncode


def executable_lines(path: Path) -> dict:
    """{line: qualified name of the function around it} for each line an
    instruction of the module's code starts on."""
    out: dict = {}

    def walk(code, owner):
        for _, _, line in code.co_lines():
            if line and line not in out:
                out[line] = owner
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, const.co_qualname if const.co_name[0] != "<" else owner)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return out


def runs(missed: list, lines: dict) -> dict:
    """{function: "a-b, c"} for the missed lines, each span a run of the
    module's executable lines that lie in one function and all missed."""
    index = {line: i for i, line in enumerate(sorted(lines))}
    out: dict = {}
    prev = None
    for line in missed:
        spans = out.setdefault(lines[line], [])
        if prev is not None and index[line] == index[prev] + 1 and lines[prev] == lines[line]:
            spans[-1][1] = line
        else:
            spans.append([line, line])
        prev = line
    return {
        owner: ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)
        for owner, spans in out.items()
    }


def report(outdir: Path) -> int:
    """Print the unreached executable lines of every module of the package."""
    reached: dict = {}
    records = sorted(outdir.glob("lines-*.txt"))
    for record in records:
        for row in record.read_text(encoding="utf-8").splitlines():
            module, line = row.split()
            reached.setdefault(module, set()).add(int(line))
    print("%d recorded processes in %s" % (len(records), outdir))
    for path in sorted(PKG.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(set(lines) - reached.get(path.name, set()))
        print("%s: %d of %d executable lines unreached" % (path.name, len(missed), len(lines)))
        for owner, spans in runs(missed, lines).items():
            print("  %s: %s  %s" % (path.name, owner, spans))
    return 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[1] == "--report":
        return report(Path(argv[0]))
    if len(argv) >= 3 and argv[1] == "--":
        return run(Path(argv[0]), argv[2:])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
