"""Integer and Euclidean factorizers, the greedy heuristic, the pipeline."""

import hashlib
import json
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chevelem import factorize, fileio, rootdata
from chevelem.cli import cohn_matrix
from chevelem.errors import (
    BaseMismatch,
    InternalCheckFailed,
    NotFactored,
    NotInGroup,
    PreconditionViolated,
)
from chevelem.exactring import BaseRing, MultiPoly, convert, leading_term_division, parse_poly
from chevelem.localglobal import DEFAULT_BUDGET, Budget
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
    _apply,
    _best_move,
    _candidate_args,
    _constant_matrix,
    _greedy_pass,
    _group_bounds,
    _matrix_size,
    _move_delta,
    _rank1_difference,
    _rank1_update,
    _size_grid,
)
from chevelem.rootdata import GroupMatrix, build_root_system, elem_unipotent, membership_check
from chevelem.words import ElemWord, eval_word, free_reduce
from test_words import adjacent_merge

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


def test_factor_integer_sp_rejects_a_zero_column():
    bad = int_matrix(C2, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotInGroup, match="^column collapses to zero; not in the group$"):
        factor_integer_sp(bad)


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


@pytest.mark.parametrize(
    "factor, g, message",
    [
        (factor_integer_sl, GroupMatrix.identity(C2, Z, 1), "type A matrix expected"),
        (factor_integer_sp, GroupMatrix.identity(A2, Z, 1), "type C matrix expected"),
        (factor_integer_sl, GroupMatrix.identity(A2, Q, 1), "integer matrix expected"),
        (factor_integer_sp, elem_unipotent(C2, (2, 0), parse_poly("x1", Z, 1)),
         "entries must be constant"),
        (factor_univar_euclidean, GroupMatrix.identity(A2, Z, 1), "field base ring expected"),
    ],
    ids=["sl-on-C2", "sp-on-A2", "sl-over-Q", "sp-not-constant", "univar-over-Z"],
)
def test_euclid_entry_guards(factor, g, message):
    with pytest.raises(PreconditionViolated, match=message):
        factor(g)


@pytest.mark.parametrize("base", [F5, Q], ids=str)
def test_factor_polynomial_refuses_bases_other_than_z(base):
    with pytest.raises(PreconditionViolated, match="^factorization target must be over Z$"):
        factor_polynomial(GroupMatrix.identity(A2, base, 1))


def perturbed_members():
    """(factor, g) for 600 seeded g: a member of A2, A3, C2 or C3, constant
    over Z and univariate over Q or F5, with one entry moved by +-c, two
    rows swapped, or one row scaled by c."""
    rng = random.Random(39)
    for rs in (A2, A3, C2, C3):
        for base in (Z, Q, F5):
            if base.is_field:
                factor = factor_univar_euclidean
            else:
                factor = factor_integer_sl if rs.kind == "A" else factor_integer_sp
            for seed in range(50):
                word = random_elementary_word(
                    rs, 39000 + seed, 5, max_degree=2 if base.is_field else 0, coeff_bound=3, base=base
                )
                rows = [list(row) for row in eval_word(word, base, 1).entries]
                i, j = rng.sample(range(len(rows)), 2)
                c = const(rng.choice([-2, -1, 1, 2, 3]), base)
                kind = rng.randrange(3)
                if kind == 0:
                    rows[i][j] = rows[i][j] + c
                elif kind == 1:
                    rows[i], rows[j] = rows[j], rows[i]
                else:
                    rows[i] = [p * c for p in rows[i]]
                yield factor, GroupMatrix(rs, rows)


def test_euclid_reduction_decides_membership(monkeypatch):
    # every move is elementary, so the reduction reaches the identity only
    # on a member and raises NotInGroup on the rest, with no invariant check
    checked = []
    real_check = factorize.membership_check

    def counting_check(matrix, rs):
        checked.append(matrix)
        return real_check(matrix, rs)

    monkeypatch.setattr(factorize, "membership_check", counting_check)
    verdicts = []
    for factor, g in perturbed_members():
        try:
            word = factor(g)
        except NotInGroup:
            verdicts.append(False)
        else:
            assert eval_word(word, g.base, g.nvars) == g
            verdicts.append(True)
        assert verdicts[-1] == membership_check(g, g.rs)
    assert checked == []
    assert len(verdicts) == 600 and 0 < sum(verdicts) < 600


def test_factor_integer_sl_dense_sl20_within_ceiling():
    # the reduction decides membership by itself, so no determinant of a
    # dense 20 x 20 matrix is expanded before it runs
    a19 = build_root_system("A", 19)
    g = eval_word(random_elementary_word(a19, 7, 120, max_degree=0, coeff_bound=3), Z, 1)
    previous = signal.signal(signal.SIGALRM, _raise_wall_ceiling)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        word = factor_integer_sl(g)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert eval_word(word, Z, 1) == g


@pytest.mark.parametrize("base", [Q, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("rs", [A2, C2], ids=["A2", "C2"])
def test_field_euclid_factors_matrices_in_no_variables(rs, base):
    # a constant matrix in 0 variables has no x1 to size entries by
    for seed in range(20):
        g = eval_word(random_elementary_word(rs, seed, 5, nvars=0, coeff_bound=3, base=base), base, 0)
        assert eval_word(factor_univar_euclidean(g), base, 0) == g
        left, r, _ = heuristic_reduce(g)
        assert r.is_identity() and eval_word(left, base, 0) == g


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


def kernel_matrix(rs, nvars, seed, base):
    """A seeded six-letter product over base; Q and Z[1/2] get halves."""
    word = random_elementary_word(rs, seed, 6, nvars=nvars, coeff_bound=3)
    letters = []
    for k, (root, arg) in enumerate(word.letters):
        arg = convert(arg, base)
        if base.kind in ("Q", "Zloc") and k % 2:
            arg = arg.scale(Fraction(1, 2))
        letters.append((root, arg))
    return eval_word(ElemWord(rs, letters), base, nvars)


def kernel_matrices():
    """Seeded A2/C2 products over each base."""
    for base in KERNEL_BASES:
        for rs, nvars, seed in ((A2, 1, 7100), (A2, 2, 7101), (C2, 1, 7102)):
            yield rs, kernel_matrix(rs, nvars, seed, base)


def all_moves(rec, sides, pairs):
    """Every candidate move of a greedy step, in the search's order:
    side, then root, then _candidate_args."""
    for side in sides:
        for root in rec.rs.roots:
            for t in factorize._candidate_args(rec.m, rec.rs, root, side, pairs):
                yield root, t, side


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
                before = _matrix_size(rec.m, degw, bitw)
                best = None
                for root, t, side in all_moves(rec, sides, pairs):
                    delta = _move_delta(rec, root, t, side, degw, bitw, sizes)
                    assert _move_delta(rec, root, t, side, degw, bitw, sizes) == delta
                    moved = _OpRecorder(rs, rec.m, one)
                    _apply(moved, root, t, side)
                    assert delta == _matrix_size(moved.m, degw, bitw) - before
                    checked += 1
                    if best is None or delta < best[0]:
                        best = (delta, root, t, side)
                if best is None:
                    break
                _apply(rec, best[1], best[2], best[3])
    assert checked > 1000


def reference_division(a, b):
    """Leading-term division on whole polynomials: r <- r - q*b per step,
    on exponent tuples ordered by (total degree, tuple)."""
    base = a.base
    partial_limit = 2 * len(a.terms) + 8
    limit = 4 * (len(a.terms) + len(b.terms) + 4)
    q_terms: dict = {}
    partial = None
    r = a
    b_terms = dict(b.exponent_items())
    lead_b = max(b_terms, key=lambda e: (sum(e), e))
    steps = 0
    while not r.is_zero() and steps < limit:
        if steps == partial_limit:
            partial = dict(q_terms)
        steps += 1
        r_terms = dict(r.exponent_items())
        lead_r = max(r_terms, key=lambda e: (sum(e), e))
        exps = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in exps):
            break
        try:
            coeff = base.normalize(Fraction(r_terms[lead_r]) / Fraction(b_terms[lead_b]))
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
        partial, exact, _ = leading_term_division(a, b)
        want_partial, want_exact = reference_division(a, b)
        assert partial.exponent_items() == list(want_partial.items())
        if want_exact is None:
            assert exact is None
        else:
            assert exact.exponent_items() == list(want_exact.items())
        outcomes.add((not partial.is_zero(), exact is not None))
        count += 1
    assert count > 1000
    assert outcomes == {(False, False), (True, False), (True, True)}


_COEFFS = st.fractions(-20, 20, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F5, Q]), st.lists(st.integers(0, 60), max_size=5), st.integers(0, 3), st.data()
)
def test_field_quotient_is_euclidean(base, a_exps, db, data):
    # leading coefficients arbitrary and nonzero in the field; a sparse a
    # of high degree takes more steps than the greedy's limits allow
    a = MultiPoly(base, 1, {(k,): data.draw(_COEFFS) for k in a_exps})
    lead = data.draw(_COEFFS.filter(lambda c: base.normalize(c) != 0))
    b = MultiPoly(base, 1, {**{(k,): data.draw(_COEFFS) for k in range(db)}, (db,): lead})
    q = factorize._field_quotient(a, b)
    r = a - q * b
    assert r.is_zero() or r.degree_in(0) < b.degree_in(0)


@pytest.mark.parametrize("base", [F5, Q])
def test_field_quotient_runs_past_the_greedy_limit(base):
    # 100 division steps; the greedy stops leading-term division after 32
    a = parse_poly("x1^100 - 1", base, 1)
    b = parse_poly("x1 + 1", base, 1)
    q = factorize._field_quotient(a, b)
    assert q * b == a


# SHA-256 of the canonical certificate texts of pinned_inputs(), recorded
# when free_reduce came to collect letters across the letters they commute
# with; a change to the search or the reduction that alters any emitted
# word changes it
PINNED_SHA256 = "6048589e6ab3f562eb1784b6022178dfaf37975aa2b0bc19ea6711a04e9664d9"


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
# reductions, recorded when free_reduce came to collect letters across the
# letters they commute with
ELIMINATION_SHA256 = "ff0808aba0449b7362525a9a7e8b919395bcf56682ee98c4a09e50200c001060"


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


def split_reduce(g, budget=DEFAULT_BUDGET):
    """heuristic_reduce(g, budget) with its contract checked: left and
    right are free-reduced and eval(left) * r * eval(right) = g."""
    left, r, right = heuristic_reduce(g, budget)
    assert free_reduce(left) == left and free_reduce(right) == right
    assert eval_word(left, g.base, g.nvars) * r * eval_word(right, g.base, g.nvars) == g
    return left, r, right


def reduced_word(g, budget=DEFAULT_BUDGET):
    """The word heuristic_reduce found for g: r must be the identity."""
    left, r, right = split_reduce(g, budget)
    assert r.is_identity()
    word = free_reduce(left.concat(right))
    assert eval_word(word, g.base, g.nvars) == g
    return word


def test_rank1_update_needs_a_spare_coordinate():
    # M - I = v w^T with v = (x, x, x), w = (1, -1, 0): no coordinate is
    # zero in both, so the commutator has none to pass through; nothing moves
    g = GroupMatrix(A2, [[parse_poly(t, Z, 1) for t in row] for row in (
        ("1+x1", "-x1", "0"), ("x1", "1-x1", "0"), ("x1", "-x1", "1"))])
    rec = _OpRecorder(A2, g.entries, const(1))
    v, w = _rank1_difference(rec.m)
    assert not any(p.is_zero() for p in v) and membership_check(g, A2)
    _rank1_update(rec)
    assert rec.matrix() == g and rec.left == rec.right == []


def test_heuristic_identity():
    g = GroupMatrix.identity(A2, Z, 1)
    assert len(reduced_word(g)) == 0


def test_heuristic_unitriangular():
    g = GroupMatrix.identity(A2, Z, 1)
    g = g.rmul_unipotent((1, -1, 0), parse_poly("x1^2+1", Z, 1))
    g = g.rmul_unipotent((1, 0, -1), parse_poly("3*x1", Z, 1))
    reduced_word(g)


def test_heuristic_cracks_cohn():
    reduced_word(cohn_embedded())


def test_solved_word_is_handed_back_once():
    # on success the checked word comes back as left, right is empty, and
    # factor_polynomial returns that word as it is
    for g in (cohn_embedded(), eval_word(random_elementary_word(C2, 11, 6), Z, 1)):
        left, r, right = heuristic_reduce(g)
        assert r.is_identity() and len(right) == 0
        assert factor_polynomial(g).word == left == free_reduce(left)


def test_multiply_back_refuses_a_broken_word(monkeypatch):
    # a fault upstream of the multiply-back (here free_reduce dropping the
    # last letter) is caught by it: no certificate comes back
    real = factorize.free_reduce
    monkeypatch.setattr(factorize, "free_reduce", lambda w: ElemWord(w.rs, real(w).letters[:-1]))
    for g in (cohn_embedded(), eval_word(random_elementary_word(C2, 11, 6), Z, 1)):
        with pytest.raises(InternalCheckFailed, match="heuristic invariant broken"):
            factor_polynomial(g)


@pytest.mark.parametrize(
    "factor, rs, base",
    [(factor_integer_sl, A3, Z), (factor_integer_sp, C2, Z), (factor_univar_euclidean, A2, Q),
     (factor_univar_euclidean, C2, F5)],
    ids=["sl", "sp", "univar-A2-Q", "univar-C2-F5"],
)
def test_euclid_multiply_back_refuses_a_broken_word(monkeypatch, factor, rs, base):
    # a fault between the Euclidean reduction and its multiply-back (here
    # free_reduce dropping the last letter) is the program's, not the input's
    real = factorize.free_reduce
    monkeypatch.setattr(factorize, "free_reduce", lambda w: ElemWord(w.rs, real(w).letters[:-1]))
    for seed in range(5):
        word = random_elementary_word(
            rs, 42000 + seed, 6, max_degree=2 if base.is_field else 0, coeff_bound=3, base=base
        )
        with pytest.raises(InternalCheckFailed, match="failed multiply-back verification"):
            factor(eval_word(word, base, 1))


def test_certificate_check_multiplies_no_matrices(monkeypatch):
    # check folds the word onto the residual, so with a type-A residual,
    # whose membership is a determinant, it multiplies no two matrices
    real, calls = GroupMatrix.__mul__, []

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    word = random_elementary_word(A2, 31, 8)
    res = int_matrix(A2, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    good = factorize.FactorizationCertificate(eval_word(word) * res, word, res, True)
    bad = factorize.FactorizationCertificate(eval_word(word), word, res, True)
    monkeypatch.setattr(GroupMatrix, "__mul__", spy)
    verdicts = good.check(), bad.check()
    monkeypatch.undo()
    assert verdicts == (True, False) and calls == []


def test_heuristic_factors_constant_leftover_over_q():
    # over a field the Euclidean reduction factors the constant leftover
    g = int_matrix(A2, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]], base=Q)
    assert len(reduced_word(g)) == 4


def test_heuristic_conservation_on_stall():
    # a constant leftover over Z is factored by the Euclidean tail, so the
    # matrix between the two words is the identity and g = eval(left + right)
    g = int_matrix(A2, [[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    reduced_word(g)


def test_constant_tail_calls_factor_integer_sl_by_module_name(monkeypatch):
    # the benchmark's tracer counts these calls by wrapping the module name
    calls = []
    real = factorize.factor_integer_sl

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(factorize, "factor_integer_sl", counted)
    # with no greedy steps the whole constant matrix is the tail
    g = int_matrix(A2, [[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    reduced_word(g, Budget(max_steps=0))
    assert calls == [g]


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
    assert len(cert.word) > 0


def test_factor_polynomial_constant_residual_mode():
    # a constant input: the Euclidean tail leaves an identity residual
    word = random_elementary_word(A2, 9100, 5, max_degree=0)
    g = eval_word(word, Z, 1)
    cert = factor_polynomial(g)
    assert certificate_ok(cert, g)
    assert cert.residual_constant.is_identity()


def test_factor_polynomial_zero_step_budget_ends_in_not_factored():
    # with no greedy step a non-constant member is its own stall matrix:
    # the call names the spent budget field instead of rejecting g
    g = eval_word(random_elementary_word(A2, 6000, 10), Z, 1)
    assert not g.is_constant() and certificate_ok(factor_polynomial(g), g)
    with pytest.raises(NotFactored, match=r"Budget\.max_steps=0 spent"):
        factor_polynomial(g, Budget(max_steps=0))


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


def test_stall_checks_membership_on_the_stall_matrix(monkeypatch):
    # after a stall the invariant is checked only on the matrix the greedy
    # stopped at, never on g; the message sizes that matrix
    checked = []
    real_check = factorize.membership_check

    def counting_check(matrix, rs):
        checked.append(matrix)
        return real_check(matrix, rs)

    monkeypatch.setattr(factorize, "membership_check", counting_check)
    g = eval_word(random_elementary_word(A2, 5013, 30), Z, 1)
    _, stall, _ = split_reduce(g)
    assert not stall.is_constant()
    checked.clear()
    with pytest.raises(NotFactored) as exc:
        factor_polynomial(g)
    assert checked == [stall] and stall != g
    terms = sum(len(p.coefficients()) for row in stall.entries for p in row)
    degree = max(p.total_degree() for row in stall.entries for p in row)
    assert "has %d terms of total degree up to %d" % (terms, degree) in str(exc.value)


def bench_family_words(seeds):
    """Seeded words of the four benchmark families: (nvars, word)."""
    for rs, nvars, length in ((A2, 1, 15), (A3, 2, 10), (C2, 1, 10), (C3, 1, 10)):
        for seed in seeds:
            yield nvars, random_elementary_word(rs, seed, length, nvars=nvars)


def test_reductions_no_longer_than_adjacent_merges(monkeypatch):
    # on the bench families each of factorize's reductions, the last one
    # being the word handed out, keeps at most as many letters as the
    # adjacent-only merge of its input; heuristic_reduce multiplies back
    real = factorize.free_reduce
    lengths = []

    def recorded(w):
        out = real(w)
        lengths.append((len(out), len(adjacent_merge(w.letters))))
        return out

    monkeypatch.setattr(factorize, "free_reduce", recorded)
    for nvars, word in bench_family_words(range(9600, 9610)):
        heuristic_reduce(eval_word(word, Z, nvars))
    assert len(lengths) >= 40
    assert all(got <= adjacent for got, adjacent in lengths)
    assert sum(got for got, _ in lengths) < sum(adjacent for _, adjacent in lengths)


def perturbed_word_matrix():
    """A genuine word's matrix with x1 added to one entry: g(0) is unchanged."""
    g = eval_word(random_elementary_word(A2, 9500, 15), Z, 1)
    rows = [list(row) for row in g.entries]
    rows[0][0] = rows[0][0] + MultiPoly.variable(Z, 1, 0)
    return GroupMatrix(A2, rows)


def poly_matrix(rs, rows):
    return GroupMatrix(rs, [[parse_poly(str(v), Z, 1) for v in row] for row in rows])


@pytest.mark.parametrize(
    "make",
    [
        lambda: poly_matrix(A2, [["1+x1", 0, 0], [0, 1, 0], [0, 0, 1]]),
        # det 1, but x1 at (1, 2) lacks the partner entry a root unipotent has
        lambda: poly_matrix(C2, [[1, "x1", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        perturbed_word_matrix,
    ],
    ids=["SL3-diag", "C2-nonsymplectic", "SL3-perturbed-word"],
)
def test_factor_polynomial_nonmember_with_member_constant_term(make):
    # g(0) is a member, so the rejection comes from the full invariant
    # check on the failure path, within the stall test's ceiling
    g = make()
    constant = g.map_entries(lambda p: MultiPoly.const(Z, 1, p.constant_term()))
    assert membership_check(constant, g.rs) and not membership_check(g, g.rs)
    previous = signal.signal(signal.SIGALRM, _raise_wall_ceiling)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(NotInGroup) as exc:
            factor_polynomial(g)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == "matrix fails the group invariant"


def perturbed_members_and_nonmembers():
    """120 short A2/C2/A3 word matrices, each with +-1 or +-x1 added to one
    entry: most leave the group, some (a zero cofactor, say) stay in it."""
    for rs in (A2, C2, A3):
        for seed in range(7000, 7040):
            rng = random.Random(seed)
            g = eval_word(random_elementary_word(rs, seed, 6, max_degree=1, coeff_bound=3), Z, 1)
            rows = [list(row) for row in g.entries]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            bump = MultiPoly.variable(Z, 1, 0) ** rng.randrange(2)
            rows[i][j] = rows[i][j] + bump.scale(rng.choice([-1, 1]))
            yield GroupMatrix(rs, rows)


def test_factor_polynomial_rejects_exactly_the_nonmembers():
    # with no up-front check, a non-member is still refused on every path
    # (the Euclidean reduction or the stall check), and a member still
    # gets a word that multiplies back to it
    seen = set()
    for g in perturbed_members_and_nonmembers():
        member = membership_check(g, g.rs)
        if member:
            assert factor_polynomial(g).check()
        else:
            with pytest.raises(NotInGroup):
                factor_polynomial(g)
        seen.add(member)
    assert seen == {True, False}


def test_factor_polynomial_word_proves_membership(monkeypatch):
    # on success no matrix reaches membership_check, g(0) included: the
    # word is the proof, and it is multiplied back exactly once
    checked, evaluated = [], []
    real_check, real_eval = factorize.membership_check, factorize.eval_word

    def counting_check(matrix, rs):
        checked.append(matrix)
        return real_check(matrix, rs)

    def counting_eval(word, *args, **kwargs):
        evaluated.append(word)
        return real_eval(word, *args, **kwargs)

    monkeypatch.setattr(factorize, "membership_check", counting_check)
    monkeypatch.setattr(factorize, "eval_word", counting_eval)
    targets = [cohn_matrix()] + [
        eval_word(word, Z, nvars) for nvars, word in bench_family_words((9500,))
    ]
    for g in targets:
        assert not g.is_constant()
        checked.clear()
        evaluated.clear()
        cert = factor_polynomial(g)
        assert cert.verified and cert.residual_constant.is_identity()
        assert not checked
        assert sum(w == cert.word for w in evaluated) == 1
        assert real_eval(cert.word, g.base, g.nvars) == g


def test_factor_path_derives_no_structure_constant(monkeypatch):
    # free_reduce reads commutation off the roots' cone, so factoring derives
    # no structure constant; fresh root systems keep earlier memos out
    monkeypatch.setattr(rootdata, "_ROOT_SYSTEM_CACHE", {})
    targets = [cohn_matrix()]
    for kind, rank, nvars, length in (("A", 2, 1, 15), ("A", 3, 2, 10), ("C", 2, 1, 10), ("C", 3, 1, 10)):
        rs = build_root_system(kind, rank)
        for seed in range(9600, 9605):
            targets.append(eval_word(random_elementary_word(rs, seed, length, nvars=nvars), Z, nvars))
    calls = []
    real = rootdata.structure_constants

    def counting(rs, alpha, beta):
        calls.append((alpha, beta))
        return real(rs, alpha, beta)

    monkeypatch.setattr(rootdata, "structure_constants", counting)
    for g in targets:
        assert factor_polynomial(g).verified
    assert calls == []


def test_greedy_running_size_matches_recount(monkeypatch):
    # every move a greedy pass applies, escapes included, changes the
    # matrix size by exactly its scored delta, so the pass's running total
    # equals the size recomputed from scratch; and the quotients that
    # candidate moves are built from hold no zero coefficient
    weights = []
    moves = []
    real_apply, real_division = factorize._apply, factorize.leading_term_division

    def pass_with_weights(g, sides, degw, bitw, max_steps, pairs):
        weights.append((degw, bitw, {}))
        return _greedy_pass(g, sides, degw, bitw, max_steps, pairs)

    def checked_apply(rec, root, t, side):
        degw, bitw, sizes = weights[-1]
        before = _matrix_size(rec.m, degw, bitw)
        delta = _move_delta(rec, root, t, side, degw, bitw, sizes)
        real_apply(rec, root, t, side)
        assert _matrix_size(rec.m, degw, bitw) == before + delta
        moves.append(delta)

    def checked_division(a, b, limit=None):
        partial, exact, first = real_division(a, b, limit)
        for q in (partial, exact or partial):
            assert all(c != 0 for c in q.coefficients())
        return partial, exact, first

    monkeypatch.setattr(factorize, "_greedy_pass", pass_with_weights)
    monkeypatch.setattr(factorize, "_apply", checked_apply)
    monkeypatch.setattr(factorize, "leading_term_division", checked_division)
    for nvars, word in bench_family_words(range(9600, 9605)):
        reduced_word(eval_word(word, Z, nvars))
    assert len(moves) > 100
    assert any(d >= 0 for d in moves)  # a two-ply escape move was checked too


def reference_pass(g, sides, degw, bitw, max_steps, pairs, escapes):
    """The greedy pass that scores every candidate of every step, kept as
    the oracle for the pruned one; appends to escapes at each escape."""
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    sizes: dict = {}
    current = _matrix_size(rec.m, degw, bitw)
    steps = 0
    while steps < max_steps:
        steps += 1
        if current == 0:
            break
        best = None
        scored = []
        for root, t, side in all_moves(rec, sides, pairs):
            delta = _move_delta(rec, root, t, side, degw, bitw, sizes)
            scored.append((delta, root, t, side))
            if delta < 0 and (best is None or delta < best[0]):
                best = (delta, root, t, side)
        if best is None and scored:
            snap = [row[:] for row in rec.m], len(rec.left), len(rec.right)
            scored.sort(key=lambda item: item[0])
            escaped = False
            for delta, root, t, side in scored[:8]:
                factorize._apply(rec, root, t, side)
                follow = None
                for root2, t2, side2 in all_moves(rec, sides, pairs):
                    d2 = _move_delta(rec, root2, t2, side2, degw, bitw, sizes)
                    if follow is None or d2 < follow[0]:
                        follow = (d2, root2, t2, side2)
                if follow and delta + follow[0] < 0:
                    factorize._apply(rec, follow[1], follow[2], follow[3])
                    current += delta + follow[0]
                    escaped = True
                    escapes.append(g)
                    break
                rec.m = [row[:] for row in snap[0]]
                del rec.left[snap[1]:]
                del rec.right[snap[2]:]
            if escaped:
                continue
        if best is None:
            if not _constant_matrix(rec.m):
                _rank1_update(rec)
            break
        factorize._apply(rec, best[1], best[2], best[3])
        current += best[0]
    return rec


def pass_inputs():
    for _, g in kernel_matrices():
        yield g
    # at a stall of these, a group of bound 0 follows the least delta, 0
    for base in KERNEL_BASES:
        yield kernel_matrix(A2, 1, 7096, base)
    for nvars, word in bench_family_words(range(9600, 9610)):
        yield eval_word(word, Z, nvars)


def test_pruned_pass_applies_the_reference_moves(monkeypatch):
    # branch and bound skips only groups that cannot hold the chosen move,
    # so every pass applies the moves, escapes included, of the pass that
    # scores every candidate, and ends in the same matrix and letters; each
    # move keeps the grid of entry sizes equal to one sized afresh
    applied = []
    weights = []
    real_apply, real_grid_move = factorize._apply, factorize._grid_move

    def recording_apply(rec, root, t, side):
        applied.append((root, t, side))
        real_apply(rec, root, t, side)

    def checked_grid_move(rec, grid, root, t, side, sizes):
        real_grid_move(rec, grid, root, t, side, sizes)
        assert grid == _size_grid(rec.m, *weights[-1])

    monkeypatch.setattr(factorize, "_apply", recording_apply)
    monkeypatch.setattr(factorize, "_grid_move", checked_grid_move)
    escapes: list = []
    passes = 0
    for g in pass_inputs():
        for sides, degw, bitw in _STRATEGIES:
            weights.append((degw, bitw))
            args = (g, sides, degw, bitw, DEFAULT_BUDGET.max_steps)
            ref = reference_pass(*args, {}, escapes)
            expected = applied[:]
            applied.clear()
            rec = _greedy_pass(*args, {})
            assert applied == expected
            assert (rec.m, rec.left, rec.right) == (ref.m, ref.left, ref.right)
            applied.clear()
            passes += 1
    assert passes == 4 * (15 + 5 + 40)
    assert escapes  # the escape's pruned follow-up search was compared too


def test_stall_step_scores_every_candidate(monkeypatch):
    # with no improving move, nothing may be skipped: the escape ranks the
    # stall step's candidates, so scored holds all of them, in any order
    real_best = factorize._best_move
    stalls = []

    def checked_best(rec, groups, grid, pairs, sizes, degw, bitw, scored=None):
        best = real_best(rec, groups, grid, pairs, sizes, degw, bitw, scored)
        if scored is not None and best is None:
            sides = list(dict.fromkeys(side for side, _ in groups))
            full = [
                (_move_delta(rec, root, t, side, degw, bitw, sizes), root, t, side)
                for root, t, side in all_moves(rec, sides, pairs)
            ]
            ranked = sorted(scored, key=lambda move: move[1:3])
            assert [(d, root, t, side) for d, _, _, root, t, side in ranked] == full
            if full:
                stalls.append(len(full))
        return best

    monkeypatch.setattr(factorize, "_best_move", checked_best)
    for g in pass_inputs():
        for sides, degw, bitw in _STRATEGIES:
            _greedy_pass(g, sides, degw, bitw, DEFAULT_BUDGET.max_steps, {})
    assert len(stalls) >= 30


def test_group_bound_is_below_every_candidate_delta():
    # a group's bound, minus the target sizes of its lines with a nonzero
    # source, is at most the delta of each of its candidates; so is, after
    # every prefix of those lines, the prefix's size changes minus the
    # remaining targets' sizes, the bound _move_delta cuts on; checked over
    # three greedy steps of each weighting
    checked = 0
    for g in pass_inputs():
        one = MultiPoly.const(g.base, g.nvars, 1)
        for sides, degw, bitw in _STRATEGIES:
            rec = _OpRecorder(g.rs, g.entries, one)
            pairs: dict = {}
            sizes: dict = {}
            groups = [(side, root) for side in sides for root in g.rs.roots]
            for _ in range(3):
                grid = _size_grid(rec.m, degw, bitw)
                bounds = _group_bounds(rec, groups, grid)
                assert sorted(gi for _, gi in bounds) == list(range(len(groups)))
                for bound, gi in bounds:
                    side, root = groups[gi]
                    for t in _candidate_args(rec.m, g.rs, root, side, pairs):
                        delta = _move_delta(rec, root, t, side, degw, bitw, sizes)
                        lines = [
                            (sizes[(t, sign, rec.m[ti][tj], rec.m[si][sj], ti == tj)], grid[ti][tj])
                            for ti, tj, si, sj, sign in g.rs.moves[side][root]
                            if not rec.m[si][sj].is_zero()
                        ]
                        assert bound == -sum(size for _, size in lines)
                        lower = bound
                        assert lower <= delta
                        for d, size in lines:
                            lower += d + size
                            assert lower <= delta
                        assert lower == delta
                        # the cut fires only on a limit below the delta
                        assert _move_delta(rec, root, t, side, degw, bitw, sizes, (grid, bound, delta)) == delta
                        assert _move_delta(rec, root, t, side, degw, bitw, sizes, (grid, bound, delta - 1)) is None
                        checked += 1
                best = _best_move(rec, groups, grid, pairs, sizes, degw, bitw)
                if best is None:
                    break
                _apply(rec, best[3], best[4], best[5])
    assert checked > 10000


def test_cut_candidates_lose_to_the_chosen_move(monkeypatch):
    # a candidate _move_delta cuts short, scored again in full on a fresh
    # memo, has a delta above the move its search returns, so cutting
    # changes no step's choice; stall steps, escapes and follow-ups included
    real_delta, real_best = factorize._move_delta, factorize._best_move
    fulls: list = []
    checked = 0

    def spied_delta(rec, root, t, side, degw, bitw, sizes, cut=None):
        delta = real_delta(rec, root, t, side, degw, bitw, sizes, cut)
        if delta is None:
            fulls.append(real_delta(rec, root, t, side, degw, bitw, {}))
        return delta

    def checked_best(*args):
        nonlocal checked
        fulls.clear()
        best = real_best(*args)
        assert best is not None or not fulls
        assert all(full > best[0] for full in fulls), (fulls, best[0])
        checked += len(fulls)
        return best

    monkeypatch.setattr(factorize, "_move_delta", spied_delta)
    monkeypatch.setattr(factorize, "_best_move", checked_best)
    for g in pass_inputs():
        for sides, degw, bitw in _STRATEGIES:
            _greedy_pass(g, sides, degw, bitw, DEFAULT_BUDGET.max_steps, {})
    assert checked >= 5000


def pruned_and_reference_calls(monkeypatch, name):
    """Calls of factorize.<name> by heuristic_reduce on the benchmark
    families, with the pruned pass and with the pass that scores every
    candidate: (pruned, reference)."""
    calls = []
    real = getattr(factorize, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    def reference(g, sides, degw, bitw, max_steps, pairs):
        return reference_pass(g, sides, degw, bitw, max_steps, pairs, [])

    monkeypatch.setattr(factorize, name, counted)
    gs = [eval_word(word, Z, nvars) for nvars, word in bench_family_words(range(9600, 9605))]
    for g in gs:
        heuristic_reduce(g)
    pruned = len(calls)
    calls.clear()
    monkeypatch.setattr(factorize, "_greedy_pass", reference)
    for g in gs:
        heuristic_reduce(g)
    return pruned, len(calls)


def test_pruned_pass_generates_at_most_half_the_candidates(monkeypatch):
    # the bound must keep skipping work: against the pass that scores every
    # candidate, the pruned pass asks _candidate_args for at most half as
    # many groups on the benchmark families
    pruned, reference = pruned_and_reference_calls(monkeypatch, "_candidate_args")
    assert 0 < pruned <= 0.5 * reference, (pruned, reference)


def test_pruned_pass_scores_at_most_half_the_lines(monkeypatch):
    # the group bound and the cut inside _move_delta together must keep
    # skipping lines: the pruned pass sizes at most half as many lines as
    # the pass that scores every candidate on the benchmark families
    pruned, reference = pruned_and_reference_calls(monkeypatch, "size_change")
    assert 0 < pruned <= 0.5 * reference, (pruned, reference)
