"""Command-line surface: relations, factor, verify, roundtrip, demo.

Exit codes: 0 success, 1 verification or relation failure, or the
program's own multiply-back refusing its word (InternalCheckFailed), 2
not factored (NotFactored: no word found), 3 invalid input (usage
errors, parse errors, rank gate, non-membership).  A verb lets a
ChevElemError rise; main alone maps it to an exit code,
InternalCheckFailed to 1, NotFactored to 2 and any other to 3.  Reports
on stdout are deterministic for fixed inputs and seeds; timing goes to
stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .errors import ChevElemError, InternalCheckFailed, NotFactored
from .exactring import BaseRing, MultiPoly, parse_poly
from .factorize import factor_polynomial, random_elementary_word
from .fileio import (
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    load,
    matrix_from_dict,
    save,
)
from .rootdata import (
    FORM_SIGN,
    GroupMatrix,
    build_root_system,
    commutator_expand,
    commutator_letters,
    elem_unipotent,
    weyl_and_torus,
)
from .words import ElemWord, eval_word

Z = BaseRing.integers()

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_NOT_FACTORED = 2
EXIT_BAD_INPUT = 3


def _rand_poly(rng: random.Random, nvars: int) -> MultiPoly:
    return MultiPoly.random(rng, Z, nvars, 3, 2, 9)


def run_relation_suite(kind: str, rank: int, trials: int, seed: int) -> dict:
    """Commutator, additivity, and torus-conjugation checks, all exact.

    Arguments are seeded random polynomials in two variables of degree at
    most 2 with coefficients in [-9, 9]; every ordered non-proportional
    root pair is exercised.
    """
    rs = build_root_system(kind, rank)
    rng = random.Random(seed)
    nvars = 2
    pairs = [
        (a, b) for a in rs.roots for b in rs.roots if not rs.proportional(a, b)
    ]
    failures = {"commutator": 0, "additivity": 0, "torus": 0}
    ident = GroupMatrix.identity(rs, Z, nvars)
    for a, b in pairs:
        for _ in range(trials):
            s = _rand_poly(rng, nvars)
            t = _rand_poly(rng, nvars)
            lhs = eval_word(ElemWord(rs, commutator_expand(rs, a, b, s, t)), Z, nvars)
            rhs = ident.rmul_letters(commutator_letters([(a, s)], [(b, t)]))
            if lhs != rhs:
                failures["commutator"] += 1
    for a in rs.roots:
        for _ in range(trials):
            s = _rand_poly(rng, nvars)
            t = _rand_poly(rng, nvars)
            lhs = ident.rmul_letters([(a, s), (a, t)])
            if lhs != elem_unipotent(rs, a, s + t):
                failures["additivity"] += 1
    units = (1, -1)
    torus = {}
    for a in rs.roots:
        for u in units:
            torus[(a, u)] = weyl_and_torus(rs, a, MultiPoly.const(Z, nvars, u))[1]
    all_pairs = [(a, b) for a in rs.roots for b in rs.roots]
    torus_trials = max(1, trials // 5)
    for a, b in all_pairs:
        k = rs.pairing(b, a)
        for u in units:
            h = torus[(a, u)]
            for _ in range(torus_trials):
                t = _rand_poly(rng, nvars)
                scaled = t if u == 1 else (t if k % 2 == 0 else -t)
                # h x_b(t) h^-1 = x_b(scaled), checked as h x_b(t) = x_b(scaled) h
                if h.rmul_unipotent(b, t) != h.lmul_unipotent(b, scaled):
                    failures["torus"] += 1
    report = {
        "type": kind,
        "rank": rank,
        "trials": trials,
        "seed": seed,
        "root_pairs": len(pairs),
        "failures": failures,
        "ok": not any(failures.values()),
    }
    return report


def cmd_factor(args) -> int:
    g = matrix_from_dict(load(args.infile))
    t0 = time.monotonic()
    cert = factor_polynomial(g)
    elapsed = time.monotonic() - t0
    payload = certificate_to_dict(cert)
    if args.outfile:
        save(args.outfile, payload)
        print("certificate written to %s" % args.outfile)
    else:
        sys.stdout.write(dumps(payload))
    print(
        "verified=%s word_length=%d max_degree=%d"
        % (cert.verified, len(cert.word), cert.word.max_degree())
    )
    print("wall time: %.3f s" % elapsed, file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = certificate_from_dict(load(args.infile))
    if cert.check():
        print("certificate verifies: word * residual = target exactly")
        return EXIT_OK
    print("certificate REJECTED: word * residual != target, or residual not constant in G(R)")
    return EXIT_MISMATCH


def cmd_relations(args) -> int:
    report = run_relation_suite(args.type, args.rank, args.trials, args.seed)
    print(
        "relations %s%d: pairs=%d trials=%d commutator_failures=%d "
        "additivity_failures=%d torus_failures=%d"
        % (
            report["type"],
            report["rank"],
            report["root_pairs"],
            report["trials"],
            report["failures"]["commutator"],
            report["failures"]["additivity"],
            report["failures"]["torus"],
        )
    )
    print("result: %s" % ("PASS" if report["ok"] else "FAIL"))
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def cmd_roundtrip(args) -> int:
    rs = build_root_system(args.type, args.rank)
    master = random.Random(args.seed)
    failures = 0
    not_factored = 0
    for trial in range(args.trials):
        trial_seed = master.randrange(1 << 30)
        word = random_elementary_word(
            rs, trial_seed, args.length, nvars=args.vars
        )
        g = eval_word(word, Z, args.vars)
        try:
            cert = factor_polynomial(g)
        except NotFactored:
            not_factored += 1
            print("trial %d: NOT FACTORED (greedy stall)" % trial)
            continue
        ok = cert.check() and cert.residual_constant.is_identity()
        if not ok:
            failures += 1
        print(
            "trial %d: %s word_length=%d"
            % (trial, "verified" if ok else "MISMATCH", len(cert.word))
        )
    print(
        "roundtrip summary: %d trials, %d verified, %d not factored, %d failures"
        % (args.trials, args.trials - failures - not_factored, not_factored, failures)
    )
    if failures:
        return EXIT_MISMATCH
    if not_factored:
        return EXIT_NOT_FACTORED
    return EXIT_OK


def cohn_matrix() -> GroupMatrix:
    """diag(Cohn, 1): the rank-1 flagship input, elementary only in SL_3."""
    rs = build_root_system("A", 2)
    rows = [
        ["1+2*x1", "x1^2", "0"],
        ["-4", "1-2*x1", "0"],
        ["0", "0", "1"],
    ]
    return GroupMatrix(rs, [[parse_poly(t, Z, 1) for t in row] for row in rows])


def cmd_demo(args) -> int:
    g = cohn_matrix()
    print("demo: factoring the 3x3 embedding of [[1+2x, x^2], [-4, 1-2x]]")
    t0 = time.monotonic()
    cert = factor_polynomial(g)
    elapsed = time.monotonic() - t0
    out = args.outfile or "cohn_certificate.json"
    save(out, certificate_to_dict(cert))
    print(
        "verified=%s word_length=%d max_degree=%d -> %s"
        % (cert.verified, len(cert.word), cert.word.max_degree(), out)
    )
    print("wall time: %.3f s" % elapsed, file=sys.stderr)
    if not certificate_from_dict(load(out)).check():
        print("replay verification FAILED")
        return EXIT_MISMATCH
    print("replay verification: exact match")
    return EXIT_OK


def _at_least(low: int):
    """An argparse type: an int of at least low; a smaller count is a
    usage error (exit 3), not a run over no inputs or a traceback."""

    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError("%d is below %d" % (n, low))
        return n

    return count


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means NotFactored;
    a usage error is invalid input.  Subparsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chevelem",
        description=(
            "Factor polynomial matrices in SL_N / Sp_2N into words of "
            "elementary generators, with exact verification."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_factor = sub.add_parser("factor", help="factor a matrix file into a certificate")
    p_factor.add_argument("--in", dest="infile", required=True)
    p_factor.add_argument("--out", dest="outfile")
    p_factor.set_defaults(func=cmd_factor)

    p_verify = sub.add_parser("verify", help="re-check a certificate from scratch")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_rel = sub.add_parser("relations", help="run the exact relation suites")
    p_rel.add_argument("--type", choices=FORM_SIGN, required=True)
    p_rel.add_argument("--rank", type=int, required=True)
    p_rel.add_argument("--trials", type=_at_least(1), default=100)
    p_rel.add_argument("--seed", type=int, default=0)
    p_rel.set_defaults(func=cmd_relations)

    p_round = sub.add_parser("roundtrip", help="factor random words and verify")
    p_round.add_argument("--type", choices=FORM_SIGN, required=True)
    p_round.add_argument("--rank", type=int, required=True)
    p_round.add_argument("--vars", type=_at_least(0), default=1)
    p_round.add_argument("--trials", type=_at_least(1), default=10)
    p_round.add_argument("--seed", type=int, default=0)
    p_round.add_argument("--length", type=_at_least(0), default=10)
    p_round.set_defaults(func=cmd_roundtrip)

    p_demo = sub.add_parser("demo", help="factor the flagship 3x3 example")
    p_demo.add_argument("--out", dest="outfile")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotFactored as exc:
        print("not factored: %s" % exc, file=sys.stderr)
        print("the search found no word; this is not a non-membership proof", file=sys.stderr)
        return EXIT_NOT_FACTORED
    except InternalCheckFailed as exc:
        print("the program's own check failed, not the input: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except ChevElemError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
