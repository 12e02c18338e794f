"""Integer and Euclidean factorizers, the greedy heuristic, the pipeline."""

import hashlib
import json
import random
import signal
from fractions import Fraction

import pytest

from chevelem import fileio
from chevelem.cli import cohn_matrix
from chevelem.errors import (
    BaseMismatch,
    NotFactored,
    NotInGroup,
    PreconditionViolated,
)
from chevelem.exactring import BaseRing, MultiPoly, convert, parse_poly
from chevelem.factorize import (
    factor_integer_sl,
    factor_integer_sp,
    factor_polynomial,
    factor_univar_euclidean,
    heuristic_reduce,
    partial_quotient,
    random_elementary_word,
    try_divide,
)
from chevelem.factorize import (
    _STRATEGIES,
    _OpRecorder,
    _all_moves,
    _apply,
    _leading_term_division,
    _matrix_size,
    _move_delta,
)
from chevelem.rootdata import GroupMatrix, build_root_system, elem_unipotent
from chevelem.words import ElemWord, eval_word

Z = BaseRing.integers()
Q = BaseRing.rationals()
F5 = BaseRing.prime_field(5)

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
C2 = build_root_system("C", 2)
C3 = build_root_system("C", 3)


def const(v, base=Z, nvars=1):
    return MultiPoly.const(base, nvars, v)


def int_matrix(rs, rows, base=Z, nvars=1):
    return GroupMatrix(
        rs, [[const(v, base, nvars) for v in row] for row in rows]
    )


# -- integer SL ---------------------------------------------------------------


def test_factor_integer_sl_upper():
    g = int_matrix(A2, [[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    w = factor_integer_sl(g)
    assert eval_word(w, Z, 1) == g
    assert w.letters == (((1, -1, 0), const(5)),)


def test_factor_integer_sl_weyl():
    g = int_matrix(A2, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    w = factor_integer_sl(g)
    assert eval_word(w, Z, 1) == g


def test_factor_integer_sl_dense():
    g = int_matrix(A2, [[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    w = factor_integer_sl(g)
    assert eval_word(w, Z, 1) == g


def test_factor_integer_sl_random_products():
    rng = random.Random(71)
    for trial in range(20):
        rs = rng.choice([A2, A3])
        word = random_elementary_word(rs, 1000 + trial, 8, max_degree=0, coeff_bound=4)
        g = eval_word(word, Z, 1)
        w = factor_integer_sl(g)
        assert eval_word(w, Z, 1) == g


def test_factor_integer_sl_rejects():
    bad = int_matrix(A2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInGroup):
        factor_integer_sl(bad)
    with pytest.raises(PreconditionViolated):
        factor_integer_sl(
            GroupMatrix.identity(A2, Z, 1).rmul_unipotent(
                (1, -1, 0), parse_poly("x1", Z, 1)
            )
        )


def test_factor_integer_sl_negative_determinant_blocks():
    bad = int_matrix(A2, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInGroup):
        factor_integer_sl(bad)


# -- integer Sp ----------------------------------------------------------------


def test_factor_integer_sp_identity():
    g = GroupMatrix.identity(C2, Z, 1)
    assert len(factor_integer_sp(g)) == 0


def test_factor_integer_sp_single_generator():
    g = elem_unipotent(C2, (2, 0), const(3))
    w = factor_integer_sp(g)
    assert eval_word(w, Z, 1) == g


def test_factor_integer_sp_seeded_products():
    for seed in range(30):
        word = random_elementary_word(C2, 2000 + seed, 6, max_degree=0, coeff_bound=3)
        g = eval_word(word, Z, 1)
        w = factor_integer_sp(g)
        assert eval_word(w, Z, 1) == g


def test_factor_integer_sp_c3():
    c3 = build_root_system("C", 3)
    for seed in range(5):
        word = random_elementary_word(c3, 3000 + seed, 5, max_degree=0, coeff_bound=2)
        g = eval_word(word, Z, 1)
        w = factor_integer_sp(g)
        assert eval_word(w, Z, 1) == g


# -- univariate euclidean ----------------------------------------------------------


def test_univar_euclid_single_letter():
    x = MultiPoly.variable(Q, 1, 0)
    g = elem_unipotent(A2, (1, -1, 0), x)
    w = factor_univar_euclidean(g)
    assert w.letters == (((1, -1, 0), x),)


def test_univar_euclid_companion_style():
    # [[0,0,1],[1,0,-x],[0,1,x^2]] has det 1
    e = [
        ["0", "0", "1"],
        ["1", "0", "-x1"],
        ["0", "1", "x1^2"],
    ]
    g = GroupMatrix(A2, [[parse_poly(t, Q, 1) for t in row] for row in e])
    w = factor_univar_euclidean(g)
    assert eval_word(w, Q, 1) == g


def test_univar_euclid_f5_roundtrip():
    for seed in range(10):
        word = random_elementary_word(A2, 4000 + seed, 6, base=F5, coeff_bound=4)
        g = eval_word(word, F5, 1)
        w = factor_univar_euclidean(g)
        assert eval_word(w, F5, 1) == g


def test_univar_euclid_c2_over_q():
    for seed in range(8):
        word = random_elementary_word(C2, 5000 + seed, 5, base=Q, coeff_bound=3)
        g = eval_word(word, Q, 1)
        w = factor_univar_euclidean(g)
        assert eval_word(w, Q, 1) == g


def test_univar_euclid_rejects_multivariate():
    p = parse_poly("x1*x2", Q, 2)
    g = GroupMatrix.identity(A2, Q, 2).rmul_unipotent((1, -1, 0), p)
    with pytest.raises(PreconditionViolated):
        factor_univar_euclidean(g)


# -- heuristic -----------------------------------------------------------------------


def test_try_divide():
    a = parse_poly("x1^2-1", Z, 1)
    b = parse_poly("x1-1", Z, 1)
    assert try_divide(a, b) == parse_poly("x1+1", Z, 1)
    assert try_divide(b, a) is None
    assert try_divide(parse_poly("2*x1", Z, 1), parse_poly("2", Z, 1)) == parse_poly(
        "x1", Z, 1
    )
    # 1/2 is not in Z: the division stops at its first step
    half = (parse_poly("x1^20-1", Z, 1), parse_poly("2*x1-2", Z, 1))
    assert try_divide(*half) is None
    assert partial_quotient(*half) is None


@pytest.mark.parametrize(
    "base, lead",
    [(Z, 1), (F5, 2), (BaseRing.integers_localized(2), 2)],
)
def test_partial_quotient_stops_before_try_divide(base, lead):
    # x1^20 - 1 = (x1 - 1)(x1^19 + ... + 1): the division takes 20 steps,
    # under try_divide's limit 4*(2+2+4) = 32 and over partial_quotient's
    # limit 2*2+8 = 12
    a = MultiPoly(base, 1, {(20,): 1, (0,): -1})
    b = MultiPoly(base, 1, {(1,): lead, (0,): -lead})
    c = base.normalize(Fraction(1, lead))
    assert try_divide(a, b) == MultiPoly(base, 1, {(k,): c for k in range(20)})
    assert partial_quotient(a, b) == MultiPoly(base, 1, {(k,): c for k in range(8, 20)})


# -- the greedy kernels against polynomial arithmetic ---------------------------

KERNEL_BASES = (Z, Q, F5, BaseRing.integers_mod(4), BaseRing.integers_localized(2))


def kernel_matrices():
    """Seeded A2/C2 products over each base; Q and Z[1/2] get halves."""
    for base in KERNEL_BASES:
        for rs, nvars, seed in ((A2, 1, 7100), (A2, 2, 7101), (C2, 1, 7102)):
            word = random_elementary_word(rs, seed, 6, nvars=nvars, coeff_bound=3)
            letters = []
            for k, (root, arg) in enumerate(word.letters):
                arg = convert(arg, base)
                if base.kind in ("Q", "Zloc") and k % 2:
                    arg = arg.scale(Fraction(1, 2))
                letters.append((root, arg))
            yield rs, eval_word(ElemWord(rs, letters), base, nvars)


def test_move_delta_matches_applied_moves():
    # every move's scored delta equals the size change of applying it, under
    # each weighting, over moduli, fractions and diagonal lines; the memo is
    # read twice per move and kept across three greedy steps
    checked = 0
    for rs, g in kernel_matrices():
        one = MultiPoly.const(g.base, g.nvars, 1)
        for sides, degw, bitw in _STRATEGIES:
            rec = _OpRecorder(rs, g.entries, one)
            pairs: dict = {}
            sizes: dict = {}
            for _ in range(3):
                before = _matrix_size(rec.m, degw, bitw, {})
                best = None
                for root, t, side in _all_moves(rec, sides, pairs):
                    delta = _move_delta(rec, root, t, side, degw, bitw, sizes)
                    assert _move_delta(rec, root, t, side, degw, bitw, sizes) == delta
                    moved = _OpRecorder(rs, rec.m, one)
                    _apply(moved, root, t, side)
                    assert delta == _matrix_size(moved.m, degw, bitw, {}) - before
                    checked += 1
                    if best is None or delta < best[0]:
                        best = (delta, root, t, side)
                if best is None:
                    break
                _apply(rec, best[1], best[2], best[3])
    assert checked > 1000


def reference_division(a, b):
    """Leading-term division on whole polynomials: r <- r - q*b per step."""
    base = a.base
    partial_limit = 2 * len(a.terms) + 8
    limit = 4 * (len(a.terms) + len(b.terms) + 4)
    q_terms: dict = {}
    partial = None
    r = a
    lead_b = max(b.terms, key=lambda e: (sum(e), e))
    steps = 0
    while not r.is_zero() and steps < limit:
        if steps == partial_limit:
            partial = dict(q_terms)
        steps += 1
        lead_r = max(r.terms, key=lambda e: (sum(e), e))
        exps = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in exps):
            break
        try:
            coeff = base.normalize(Fraction(r.terms[lead_r]) / Fraction(b.terms[lead_b]))
        except BaseMismatch:
            break
        q_terms[exps] = coeff
        r = r - MultiPoly(base, a.nvars, {exps: coeff}) * b
    if partial is None:
        partial = q_terms
    return partial, (q_terms if r.is_zero() else None)


def division_inputs():
    for _, g in kernel_matrices():
        entries = [p for row in g.entries for p in row if not p.is_zero()]
        for a in entries:
            for b in entries:
                yield a, b
    for base, lead in ((Z, 1), (F5, 2), (BaseRing.integers_localized(2), 2)):
        yield (
            MultiPoly(base, 1, {(20,): 1, (0,): -1}),
            MultiPoly(base, 1, {(1,): lead, (0,): -lead}),
        )
    # a coefficient that does not divide: over Z, and 1/2 over Z/4
    yield parse_poly("-7*x1^3+x1", Z, 1), parse_poly("-2*x1+1", Z, 1)
    z4 = BaseRing.integers_mod(4)
    yield parse_poly("x1^2+1", z4, 1), parse_poly("2*x1+1", z4, 1)


def test_leading_term_division_matches_reference():
    count = 0
    outcomes = set()
    for a, b in division_inputs():
        partial, exact, _ = _leading_term_division(a, b)
        want_partial, want_exact = reference_division(a, b)
        assert list(partial.items()) == list(want_partial.items())
        if want_exact is None:
            assert exact is None
        else:
            assert list(exact.items()) == list(want_exact.items())
        outcomes.add((bool(partial), exact is not None))
        count += 1
    assert count > 1000
    assert outcomes == {(False, False), (True, False), (True, True)}


# SHA-256 of the canonical certificate texts of pinned_inputs(), recorded
# with the greedy search as it was before it reused results across steps;
# a change to the search that alters any emitted word changes it
PINNED_SHA256 = "f3f1cb02cc2f59fcdd2e3951eea9bc7c5f17f436bd1e252905fe9a34c0c97a21"


def pinned_inputs():
    """The Cohn flagship, then four seeded words of each benchmark family."""
    yield cohn_matrix()
    for kind, rank, nvars, length in (
        ("A", 2, 1, 15),
        ("A", 3, 2, 10),
        ("C", 2, 1, 10),
        ("C", 3, 1, 10),
    ):
        rs = build_root_system(kind, rank)
        for seed in range(9500, 9504):
            word = random_elementary_word(rs, seed, length, nvars=nvars)
            yield eval_word(word, Z, nvars)


def test_greedy_certificates_pinned():
    digest = hashlib.sha256()
    for g in pinned_inputs():
        cert = factor_polynomial(g)
        assert cert.verified and cert.residual_constant.is_identity()
        digest.update(fileio.dumps(fileio.certificate_to_dict(cert)).encode())
    assert digest.hexdigest() == PINNED_SHA256


# SHA-256 of the words of elimination_words(): the integer, Q and F5
# reductions, whose words have not changed since the Euclidean and field
# reductions came to share their elimination steps
ELIMINATION_SHA256 = "ef6ea60fcf59adfaf339a142074804c1348ee0a18fa8a6dfbac18907704211c4"


def elimination_words():
    """Words of the integer reductions over Z and the field reductions over Q and F5."""
    groups = [A2, A3, C2, C3]
    for rs in groups:
        factor = factor_integer_sl if rs.kind == "A" else factor_integer_sp
        for seed in range(6100, 6104):
            word = random_elementary_word(rs, seed, 6, max_degree=0, coeff_bound=3)
            yield factor(eval_word(word, Z, 1))
    for rs in groups:
        for base in (Q, F5):
            for seed in range(6200, 6204):
                word = random_elementary_word(rs, seed, 5, base=base, coeff_bound=3)
                yield factor_univar_euclidean(eval_word(word, base, 1))


def test_elimination_words_pinned():
    digest = hashlib.sha256()
    count = 0
    for w in elimination_words():
        count += 1
        text = [[list(root), repr(arg)] for root, arg in w.letters]
        digest.update(json.dumps(text).encode())
    assert count == 48
    assert digest.hexdigest() == ELIMINATION_SHA256


def cohn_embedded():
    rows = [
        ["1+2*x1", "x1^2", "0"],
        ["-4", "1-2*x1", "0"],
        ["0", "0", "1"],
    ]
    return GroupMatrix(A2, [[parse_poly(t, Z, 1) for t in row] for row in rows])


def test_heuristic_identity():
    g = GroupMatrix.identity(A2, Z, 1)
    word, residual = heuristic_reduce(g)
    assert len(word) == 0 and residual.is_identity()


def test_heuristic_unitriangular():
    g = GroupMatrix.identity(A2, Z, 1)
    g = g.rmul_unipotent((1, -1, 0), parse_poly("x1^2+1", Z, 1))
    g = g.rmul_unipotent((1, 0, -1), parse_poly("3*x1", Z, 1))
    word, residual = heuristic_reduce(g)
    assert residual.is_identity()
    assert eval_word(word, Z, 1) == g


def test_heuristic_cracks_cohn():
    g = cohn_embedded()
    word, residual = heuristic_reduce(g)
    assert residual.is_identity()
    assert eval_word(word, Z, 1) == g


def test_heuristic_factors_constant_leftover_over_q():
    # over a field the Euclidean reduction factors the constant leftover
    g = int_matrix(A2, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]], base=Q)
    word, residual = heuristic_reduce(g)
    assert residual.is_identity()
    assert eval_word(word, Q, 1) == g
    assert len(word) == 4


def test_heuristic_conservation_on_stall():
    # a constant residual is legitimate; the invariant word*residual = g holds
    g = int_matrix(A2, [[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    word, residual = heuristic_reduce(g)
    assert eval_word(word, Z, 1) * residual == g


# -- factor_polynomial ------------------------------------------------------------------


def certificate_ok(cert, g):
    assert cert.verified
    assert cert.residual_constant.is_constant()
    assert eval_word(cert.word, g.base, g.nvars) * cert.residual_constant == g
    return True


def test_factor_polynomial_sl3_roundtrips():
    for seed in range(25):
        word = random_elementary_word(A2, 6000 + seed, 10)
        g = eval_word(word, Z, 1)
        cert = factor_polynomial(g)
        assert certificate_ok(cert, g)
        assert cert.residual_constant.is_identity()


def test_factor_polynomial_sl4_two_vars():
    a3 = build_root_system("A", 3)
    for seed in range(8):
        word = random_elementary_word(a3, 7000 + seed, 6, nvars=2)
        g = eval_word(word, Z, 2)
        cert = factor_polynomial(g)
        assert certificate_ok(cert, g)


def test_factor_polynomial_sp4():
    for seed in range(10):
        word = random_elementary_word(C2, 8000 + seed, 6)
        g = eval_word(word, Z, 1)
        cert = factor_polynomial(g)
        assert certificate_ok(cert, g)


def test_factor_polynomial_cohn_flagship():
    g = cohn_embedded()
    cert = factor_polynomial(g)
    assert certificate_ok(cert, g)
    assert cert.residual_constant.is_identity()
    assert cert.word_length > 0


def test_factor_polynomial_constant_residual_mode():
    # a constant input: the Euclidean tail leaves an identity residual
    word = random_elementary_word(A2, 9100, 5, max_degree=0)
    g = eval_word(word, Z, 1)
    cert = factor_polynomial(g)
    assert certificate_ok(cert, g)
    assert cert.residual_constant.is_identity()


def test_factor_polynomial_rejects_nonmember():
    bad = int_matrix(A2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInGroup):
        factor_polynomial(bad)


@pytest.mark.parametrize(
    "rs, length, floor",
    [(A2, 30, 23), (C3, 20, 29)],
    ids=["SL3-length30", "Sp6-length20"],
)
def test_hard_corpus_solved_floor(rs, length, floor):
    # long words over Z[x], seeds 5000-5029, where greedy stalls on a few;
    # the floor is the measured solved count and is only ever raised
    solved = 0
    for seed in range(5000, 5030):
        g = eval_word(random_elementary_word(rs, seed, length), Z, 1)
        try:
            cert = factor_polynomial(g)
        except NotFactored:
            continue
        assert cert.verified and cert.residual_constant.is_identity()
        solved += 1
    assert solved >= floor


class _WallCeiling(Exception):
    pass


def _raise_wall_ceiling(signum, frame):
    raise _WallCeiling()


@pytest.mark.parametrize(
    "rs, seed, length",
    [(A2, 5013, 30), (A2, 5024, 30), (C3, 5017, 20)],
    ids=["A2-5013", "A2-5024", "C3-5017"],
)
def test_factor_polynomial_greedy_stall_fails_fast(rs, seed, length):
    # greedy leaves a non-constant residual on these words; the call must
    # say so at once, naming the stage and the budget field
    g = eval_word(random_elementary_word(rs, seed, length, nvars=1), Z, 1)
    previous = signal.signal(signal.SIGALRM, _raise_wall_ceiling)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(NotFactored) as exc:
            factor_polynomial(g)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert "greedy stage" in str(exc.value)
    assert "max_steps" in str(exc.value)
