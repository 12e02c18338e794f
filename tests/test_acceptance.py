"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact arithmetic; the only tolerances are the stated
runtime ceilings and the 25/30 floor for the descent criterion.
"""

import copy
import json
import random
import time
from fractions import Fraction

from chevelem.cli import EXIT_BAD_INPUT, EXIT_OK, cohn_matrix, main, run_relation_suite
from chevelem.errors import DescentBudgetExceeded, RankTooLow
from chevelem.exactring import BaseRing, MultiPoly, convert
from chevelem.factorize import factor_polynomial, random_elementary_word
from chevelem.fileio import certificate_to_dict
from chevelem.localglobal import (
    CoveringData,
    descend_word,
    dilate_word,
    dilation_equalizer,
    telescoping_chain,
    telescoping_product,
)
from chevelem.rootdata import build_root_system
from chevelem.words import ElemWord, congruence_check, eval_word

Z = BaseRing.integers()
ZHALF = BaseRing.integers_localized(2)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
C2 = build_root_system("C", 2)


def report(n, name, ok, detail):
    line = "ACCEPTANCE %d %s: %s (%s)" % (n, name, "PASS" if ok else "FAIL", detail)
    print(line)
    return ok


# -- criterion 1: relation soundness -----------------------------------------------


def test_acceptance_1_relation_soundness():
    t0 = time.monotonic()
    bad = []
    for kind, rank in (("A", 2), ("A", 3), ("C", 2), ("C", 3)):
        rep = run_relation_suite(kind, rank, 100, seed=7)
        if not rep["ok"]:
            bad.append((kind, rank, rep["failures"]))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    assert report(
        1,
        "relation soundness",
        ok,
        "A2 A3 C2 C3, 100 trials each, failures=%r, %.1fs < 60s" % (bad, elapsed),
    )


# -- criterion 2: telescoping identity ----------------------------------------------


def test_acceptance_2_telescoping():
    rng = random.Random(202)
    coverings = [CoveringData.from_elements(e) for e in ((2, 3), (2, 3, 5))]
    checked = 0
    failures = 0
    for i in range(50):
        rs = A2 if i % 2 == 0 else C2
        word = random_elementary_word(rs, 20000 + i, rng.randint(1, 6))
        g = eval_word(word, Z, 1)
        for cov in coverings:
            chain = telescoping_chain(cov)
            lhs = telescoping_product(g, chain)
            rhs = g * g.at_zero(0).inverse()
            checked += 1
            if lhs != rhs:
                failures += 1
    ok = failures == 0
    assert report(
        2,
        "telescoping identity",
        ok,
        "50 matrices x coverings {(2,3)},{(2,3,5)}: %d checks, %d failures, zero tolerance"
        % (checked, failures),
    )


# -- criterion 3: dilation equalizer oracle -------------------------------------------


def brute_minimal_dilation(g, h, s, bound):
    base, nvars = g.base, g.nvars
    x = MultiPoly.variable(base, nvars, 0)
    for n in range(bound + 1):
        f = MultiPoly.const(base, nvars, 1)
        for _ in range(n):
            f = f.scale(base.from_int(s))
        img = {0: x * f}
        if g.substitute(img, nvars_out=nvars) == h.substitute(img, nvars_out=nvars):
            return n
    return None


def test_acceptance_3_equalizer_oracle():
    rng = random.Random(303)
    mismatches = 0
    total = 0
    for e in range(2, 7):
        zmod = BaseRing.integers_mod(2 ** e)
        for _ in range(20):
            total += 1
            length = rng.randint(1, 4)
            letters = []
            for _ in range(length):
                root = rng.choice(A2.roots)
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    exp = (rng.randint(0, 2),)
                    c = rng.randint(-9, 9)
                    if c:
                        terms[exp] = terms.get(exp, 0) + c
                arg = MultiPoly(zmod, 1, terms)
                if not arg.is_zero():
                    letters.append((root, arg))
            h = eval_word(ElemWord(A2, letters), zmod, 1)
            g = h
            for _ in range(rng.randint(1, 3)):
                root = rng.choice(A2.roots)
                arg = MultiPoly(
                    zmod,
                    1,
                    {(rng.randint(1, 2),): 2 ** rng.randint(1, e - 1) * rng.randint(1, 3)},
                )
                if not arg.is_zero():
                    g = g.rmul_unipotent(root, arg)
            n = dilation_equalizer(g, h, 2)
            expected = brute_minimal_dilation(g, h, 2, e)
            x = MultiPoly.variable(zmod, 1, 0)
            f = MultiPoly.const(zmod, 1, 2 ** n)
            img = {0: x * f}
            exact = g.substitute(img, nvars_out=1) == h.substitute(img, nvars_out=1)
            if n != expected or not exact:
                mismatches += 1
    ok = mismatches == 0
    assert report(
        3,
        "dilation equalizer oracle",
        ok,
        "Z/2^e, e in 2..6, %d instances, %d disagreements with brute force"
        % (total, mismatches),
    )


# -- criterion 4: descent verification -------------------------------------------------


def build_congruence_word(seed):
    """Congruence word over Z[1/2][z]: <= 6 letters, denominators <= 2^3."""
    rng = random.Random(seed)
    z = MultiPoly.variable(ZHALF, 1, 0)

    def payload():
        c = Fraction(rng.choice([1, 2, 3, -1, -2, 3]), 2 ** rng.randint(0, 3))
        deg = rng.randint(1, 2)
        return (z ** deg).scale(c)

    shape = rng.choice(["plain", "conjugate", "opposite"])
    roots = list(A2.roots)
    if shape == "plain":
        letters = []
        for _ in range(rng.randint(1, 4)):
            letters.append((rng.choice(roots), payload()))
        return ElemWord(A2, letters)
    alpha = rng.choice(roots)
    if shape == "conjugate":
        beta = rng.choice([b for b in roots if not A2.proportional(b, alpha)])
    else:
        beta = tuple(-v for v in alpha)
    conj_arg = MultiPoly.const(ZHALF, 1, Fraction(rng.choice([1, -1]), 2 ** rng.randint(1, 3)))
    inner = [(alpha, payload()) for _ in range(rng.randint(1, 2))]
    letters = [(beta, conj_arg)] + inner + [(beta, -conj_arg)]
    if rng.random() < 0.4 and len(letters) < 6:
        letters.append((rng.choice(roots), payload()))
    return ElemWord(A2, letters)


def test_acceptance_4_descent_verification():
    successes = 0
    budget_misses = 0
    wrong = 0
    for i in range(30):
        w = build_congruence_word(40000 + i)
        assert len(w) <= 6
        assert congruence_check(w, 0).holds
        try:
            h, k = descend_word(w, 2)
        except DescentBudgetExceeded:
            budget_misses += 1
            continue
        lhs = eval_word(h, Z, 1).map_entries(lambda p: convert(p, ZHALF))
        rhs = eval_word(dilate_word(w, 0, 2, k), ZHALF, 1)
        if lhs == rhs and congruence_check(h, 0).holds:
            successes += 1
        else:
            wrong += 1
    ok = wrong == 0 and successes >= 25
    assert report(
        4,
        "descent verification",
        ok,
        "30 congruence words over Z[1/2][z]: %d verified, %d budget misses, %d unsound (floor 25/30)"
        % (successes, budget_misses, wrong),
    )


# -- criterion 5: round-trip completeness ------------------------------------------------


def test_acceptance_5_roundtrip_completeness():
    t0 = time.monotonic()
    jobs = (
        (A2, 1, 15, 200, 6000, "SL3(Z[x])"),
        (A3, 2, 10, 50, 7000, "SL4(Z[x1,x2])"),
        (C2, 1, 10, 50, 8000, "Sp4(Z[x])"),
    )
    failed = []
    total = 0
    for rs, nvars, length, count, base_seed, label in jobs:
        for seed in range(count):
            total += 1
            word = random_elementary_word(rs, base_seed + seed, length, nvars=nvars)
            g = eval_word(word, Z, nvars)
            try:
                cert = factor_polynomial(g)
            except Exception as exc:  # noqa: BLE001 - acceptance accounting
                failed.append((label, seed, type(exc).__name__))
                continue
            if not (cert.verified and cert.check() and cert.residual_constant.is_identity()):
                failed.append((label, seed, "unverified"))
    elapsed = time.monotonic() - t0
    ok = not failed and elapsed < 600.0
    assert report(
        5,
        "round-trip completeness",
        ok,
        "%d/%d verified, failures=%r, %.1fs < 600s" % (total - len(failed), total, failed[:5], elapsed),
    )


# -- criterion 6: flagship factorization ----------------------------------------------------


def test_acceptance_6_flagship(tmp_path):
    g = cohn_matrix()
    t0 = time.monotonic()
    cert = factor_polynomial(g)
    elapsed = time.monotonic() - t0
    exact = cert.check() and cert.residual_constant.is_identity()
    cert_file = tmp_path / "cohn_cert.json"
    cert_file.write_text(json.dumps(certificate_to_dict(cert)))
    replay = main(["verify", "--in", str(cert_file)])
    ok = exact and elapsed < 10.0 and replay == EXIT_OK
    assert report(
        6,
        "flagship factorization",
        ok,
        "verified=%s replay_exit=%d word_length=%d %.2fs < 10s"
        % (exact, replay, len(cert.word), elapsed),
    )


# -- criterion 7: rank-1 gate ------------------------------------------------------------------


def test_acceptance_7_rank_gate(tmp_path):
    raised = False
    try:
        build_root_system("A", 1)
    except RankTooLow:
        raised = True
    data = {
        "group": {"type": "A", "rank": 1},
        "nvars": 1,
        "base": "Z",
        "entries": [["1+2*x1", "x1^2"], ["-4", "1-2*x1"]],
    }
    matrix_file = tmp_path / "sl2_cohn.json"
    matrix_file.write_text(json.dumps(data))
    exit_code = main(["factor", "--in", str(matrix_file)])
    ok = raised and exit_code == EXIT_BAD_INPUT
    assert report(
        7,
        "rank-1 gate",
        ok,
        "RootSystem(A,1) raises RankTooLow=%s, SL_2 factor exit=%d (want %d)"
        % (raised, exit_code, EXIT_BAD_INPUT),
    )


# -- criterion 8: fail-closed fuzz ----------------------------------------------------------------


def mutate_certificate(data, rng):
    """One seeded mutation: perturb an arg, drop a letter, or swap roots."""
    mutated = copy.deepcopy(data)
    word = mutated["word"]
    if not word:
        return None
    kind = rng.choice(["perturb", "drop", "swap"])
    if kind == "perturb":
        i = rng.randrange(len(word))
        word[i]["arg"] = "(%s) + 1" % word[i]["arg"]
    elif kind == "drop":
        del word[rng.randrange(len(word))]
    else:
        i = rng.randrange(len(word))
        j = rng.randrange(len(word))
        word[i]["root"], word[j]["root"] = word[j]["root"], word[i]["root"]
    return mutated


def test_acceptance_8_fail_closed_fuzz(tmp_path):
    rng = random.Random(808)
    base_certs = []
    for seed in range(10):
        rs = A2 if seed % 2 == 0 else C2
        word = random_elementary_word(rs, 50000 + seed, 8)
        g = eval_word(word, Z, 1)
        cert = factor_polynomial(g)
        base_certs.append(certificate_to_dict(cert))
    from chevelem.fileio import certificate_from_dict

    false_accepts = 0
    missed_rejects = 0
    checked = 0
    mutation_file = tmp_path / "mutated.json"
    for i in range(1000):
        data = base_certs[i % len(base_certs)]
        mutated = mutate_certificate(data, rng)
        if mutated is None:
            continue
        checked += 1
        replay = certificate_from_dict(mutated)
        product = eval_word(
            replay.word, replay.target.base, replay.target.nvars
        ) * replay.residual_constant
        changes_product = product != replay.target
        mutation_file.write_text(json.dumps(mutated))
        exit_code = main(["verify", "--in", str(mutation_file)])
        if changes_product and exit_code == EXIT_OK:
            false_accepts += 1
        if not changes_product and exit_code != EXIT_OK:
            missed_rejects += 1
    ok = false_accepts == 0 and missed_rejects == 0 and checked >= 990
    assert report(
        8,
        "fail-closed fuzz",
        ok,
        "%d mutations, %d false accepts (want 0), %d wrong rejects of no-op mutations"
        % (checked, false_accepts, missed_rejects),
    )
