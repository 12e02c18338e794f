"""Mutation check of the floor: every exact check must fail a test when
it is removed.

Each mutant is a (file, old text, new text) triple that removes or weakens
one exact check, or breaks the code or the type rule a check guards.  The
old text must occur exactly once in its file.  Mutants run one at a time,
each applied to a fresh temporary copy of the repository, where
``python -m pytest -q -x`` runs with PYTHONPATH=src.  The script prints
killed or survived for each, with the first failing test, and exits 1 if
any mutant survives.  It uses the standard library only and is not part
of Tier-1: a survivor costs one full Tier-1 run.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = "src/chevelem/"

MUTANTS = (
    # a certificate's residual is not checked for membership
    (SRC + "words.py",
     "if not (res.is_constant() and membership_check(res, g.rs)):",
     "if not res.is_constant():"),
    # matrix equality ignores row 0
    (SRC + "rootdata.py",
     "return self.rs == other.rs and self.entries == other.entries",
     "return self.rs == other.rs and self.entries[1:] == other.entries[1:]"),
    # is_identity ignores the off-diagonal entries
    (SRC + "rootdata.py",
     "                elif not p.is_zero():\n                    return False",
     "                elif False:\n                    return False"),
    # free reduction merges two letters of one root by subtraction
    (SRC + "words.py",
     "merged = stack[j][1] + arg",
     "merged = stack[j][1] - arg"),
    # a pair whose commutator is a product of cone letters counts as commuting
    (SRC + "rootdata.py",
     "= not self.proportional(a, b) and not self.cone_roots(a, b)",
     "= not self.proportional(a, b)"),
    # type-A membership accepts any constant determinant
    (SRC + "rootdata.py",
     "return d.is_constant() and d.constant_term() == base.one()",
     "return d.is_constant()"),
    # type-C membership accepts every matrix
    (SRC + "rootdata.py",
     "return (m * m.inverse()).is_identity()",
     "return True"),
    # patch's final multiply-back
    (SRC + "localglobal.py",
     "if eval_word(word, onto=g.at_zero(0)) != g:",
     "if False:"),
    # the descent's check of its word
    (SRC + "localglobal.py",
     "if lifted != gw.dilate(z, s ** k) or not lhs.at_zero(z).is_identity():",
     "if False:"),
    # the dilation generator's check of its word
    (SRC + "localglobal.py",
     "if eval_word(word, onto=g.dilate(0, b)) != g.dilate(0, a):",
     "if False:"),
    # dilation_factor's check of the localized word
    (SRC + "localglobal.py",
     "    if not matches:\n",
     "    if False:\n"),
    # dilation_factor's check of the descended word
    (SRC + "localglobal.py",
     "if eval_word(h, onto=g_xy) != g_xyz.dilate(zv, s ** k):",
     "if False:"),
    # heuristic_reduce's multiply-back
    (SRC + "factorize.py",
     "if eval_word(left, onto=r.rmul_letters(right.letters)) != g:",
     "if False:"),
    # the Euclidean reduction's multiply-back
    (SRC + "factorize.py",
     "if eval_word(word, g.base, g.nvars) != g:",
     "if False:"),
    # type C's form sign flipped to +1
    (SRC + "rootdata.py",
     'FORM_SIGN = {"A": 0, "C": -1}',
     'FORM_SIGN = {"A": 0, "C": 1}'),
    # the structure-constant bound forced to 1
    (SRC + "rootdata.py",
     "self.length_ratio = max(lengths) // min(lengths)",
     "self.length_ratio = 1"),
    # a letter list's inverse keeps each argument's sign
    (SRC + "rootdata.py",
     "return [(root, -arg) for root, arg in reversed(letters)]",
     "return [(root, arg) for root, arg in reversed(letters)]"),
    # a letter list multiplied onto a matrix drops its last letter
    (SRC + "rootdata.py",
     "for root, t in letters:\n            m = m.rmul_unipotent(root, t)",
     "for root, t in letters[:-1]:\n            m = m.rmul_unipotent(root, t)"),
    # a file header with a negative variable count is read
    (SRC + "fileio.py",
     "if nvars < 0 or nvars > 9:",
     "if nvars > 9:"),
    # a file header with more than nine variables is read
    (SRC + "fileio.py",
     "if nvars < 0 or nvars > 9:",
     "if nvars < 0:"),
    # a file's rows are not sized before the root system is built
    (SRC + "fileio.py",
     "shape = [rows] + (rows if isinstance(rows, list) else [])",
     "shape = [rows]"),
    # a word record's root may hold floats or bools
    (SRC + "fileio.py",
     "if not all(type(v) is int for v in root):",
     "if False:"),
    # a certificate's verified flag may be any truthy or falsy JSON value
    (SRC + "fileio.py",
     "if type(verified) is not bool:",
     "if False:"),
    # canonical text reads every monomial after the first as positive
    (SRC + "exactring.py",
     'neg = sign == "-"',
     "neg = False"),
    # canonical text reads a sign token other than "+" or "-" as "+"
    (SRC + "exactring.py",
     "text.isascii() and _SIGNS.issuperset(signs)",
     "text.isascii()"),
    # the short-text memo serves a read over one base to a read over another
    (SRC + "exactring.py",
     "@lru_cache(maxsize=1024)\ndef _read_short(",
     "@lambda read: lambda t, b, n, memo={}: memo.setdefault((t, n), read(t, b, n))\n"
     "def _read_short("),
    # canonical text takes an exponent chain outside the grammar
    (SRC + "exactring.py",
     "if not _VARS.fullmatch(chain):",
     "if False:"),
    # canonical text reads every exponent as 1
    (SRC + "exactring.py",
     "e[i] += int(f[3:]) if len(f) > 2 else 1",
     "e[i] += 1"),
    # a one-term power is not checked against the degree cap
    (SRC + "exactring.py",
     "_check_degree((e >> _W * nvars) * n, 0)",
     "pass"),
    # emitted text keeps " + -" where a negative term is joined
    (SRC + "exactring.py",
     'return " + ".join(pieces).replace(" + -", " - ")',
     'return " + ".join(pieces)'),
    # text over Z with a "/" is not coerced, so 1/2 is read as a coefficient
    (SRC + "exactring.py",
     'if base.kind != KIND_INTEGERS or "/" in text:',
     "if base.kind != KIND_INTEGERS:"),
    # a polynomial text that is not a string reaches the readers
    (SRC + "exactring.py",
     "if not isinstance(text, str):\n        raise TypeError(",
     "if False:\n        raise TypeError("),
)

ONCE_TEST = "tests/test_lint.py::test_every_mutant_applies_once"

# a mutant that lets the suite build a huge root system fails on
# MemoryError under this address-space cap, instead of filling the host
MEMORY_CAP = 1 << 30  # Tier-1 peaks near 70 MB

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


def mutated(root: Path, path: str, old: str, new: str) -> str:
    """The text of root/path with its one occurrence of old made new."""
    text = (root / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit("mutant %s: %r occurs %d times, not once" % (path, old, text.count(old)))
    return text.replace(old, new)


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(path: str, old: str, new: str) -> bool:
    """True when Tier-1 fails on the mutant, so the mutant is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        (copy / path).write_text(mutated(copy, path, old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        # the lint test that each old text occurs once reads the mutated copy
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--deselect", ONCE_TEST],
            cwd=copy, env=env, capture_output=True, text=True, preexec_fn=limit_memory,
        )
    label = "%s: %s" % (path.rsplit("/", 1)[-1], old.strip().splitlines()[0])
    if proc.returncode:
        failure = first_failure(proc.stdout + proc.stderr)
        print("killed    %s\n          by %s" % (label, failure), flush=True)
        return True
    print("SURVIVED  %s" % label, flush=True)
    return False


def main() -> int:
    for mutant in MUTANTS:  # every mutant applies before any runs
        mutated(ROOT, *mutant)
    n = len(MUTANTS)
    survivors = sum(not run(*mutant) for mutant in MUTANTS)
    print("%d mutants, %d killed, %d survived" % (n, n - survivors, survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
