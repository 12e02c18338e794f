"""Smoke test of tools/reach.py, the line-reach tool."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REACH = ROOT / "tools" / "reach.py"


def reach(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(REACH), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


def test_reach_lists_what_an_import_leaves_unreached(tmp_path):
    # importing the CLI runs its module body and no verb: main is unreached
    run = reach(tmp_path, "--", sys.executable, "-c", "import chevelem.cli")
    assert run.returncode == 0, run.stderr
    report = reach(tmp_path, "--report")
    assert report.returncode == 0, report.stderr
    lines = report.stdout.splitlines()
    assert lines[0] == "1 recorded processes in %s" % tmp_path
    assert any(line.startswith("  cli.py: main  ") for line in lines), report.stdout
    assert "errors.py: 0 of " in report.stdout
