"""Tests for dilation equalizers, descent, dilation certs, and patching."""

import random
from fractions import Fraction

import pytest

from chevelem.errors import (
    CoveringInconsistent,
    DescentBudgetExceeded,
    PreconditionViolated,
)
from chevelem.exactring import BaseRing, MultiPoly, convert, parse_poly
from chevelem.localglobal import (
    Budget,
    CoveringData,
    descend_word,
    dilate_word,
    dilation_equalizer,
    dilation_factor,
    patch,
    telescoping_chain,
    telescoping_product,
    xgcd,
)
from chevelem.rootdata import GroupMatrix, build_root_system
from chevelem.words import ElemWord, congruence_check, eval_word, map_word

Z = BaseRing.integers()
ZHALF = BaseRing.integers_localized(2)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)

E12 = (1, -1, 0)
E21 = (-1, 1, 0)
E13 = (1, 0, -1)
E23 = (0, 1, -1)


def const(v, base=Z, nvars=1):
    return MultiPoly.const(base, nvars, v)


def rand_word(rng, rs, length, base=Z, nvars=1, max_deg=2, bound=4):
    letters = []
    for _ in range(length):
        root = rng.choice(rs.roots)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            c = rng.randint(-bound, bound)
            if c:
                terms[e] = terms.get(e, 0) + c
        arg = MultiPoly(base, nvars, terms)
        if not arg.is_zero():
            letters.append((root, arg))
    return ElemWord(rs, letters)


# -- xgcd and coverings -------------------------------------------------------


def test_xgcd():
    for a, b in [(2, 3), (12, 18), (-5, 7), (0, 4)]:
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g


def test_covering_from_elements():
    cov = CoveringData.from_elements([2, 3])
    assert sum(c * s for c, s in zip(cov.coeffs, cov.elems)) == 1
    raised = CoveringData((2, 3), cov.coeffs, (3, 2)).raised()
    assert sum(c * s for c, s in zip(raised.coeffs, raised.elems)) == 1
    assert raised.elems == (8, 9)


def test_covering_validation():
    with pytest.raises(CoveringInconsistent):
        CoveringData((2, 4), (1, 1), (1, 1))
    with pytest.raises(CoveringInconsistent):
        CoveringData.from_elements([2, 4])
    with pytest.raises(CoveringInconsistent):
        CoveringData((2, 3), (-1, 1), (0, 1))


def test_chain_spec_example():
    cov = CoveringData((2, 3), (-1, 1), (1, 1))
    assert telescoping_chain(cov) == [1, -2, 0]


def test_telescoping_identity():
    rng = random.Random(101)
    for elems in ((2, 3), (2, 3, 5)):
        cov = CoveringData.from_elements(elems)
        for _ in range(5):
            rs = rng.choice([A2, C2])
            g = eval_word(rand_word(rng, rs, rng.randint(1, 6)), Z, 1)
            chain = telescoping_chain(cov)
            lhs = telescoping_product(g, chain)
            rhs = g * g.at_zero(0).inverse()
            assert lhs == rhs


def test_telescoping_constant_matrix():
    cov = CoveringData.from_elements([2, 3])
    g = eval_word(ElemWord(A2, [(E12, const(3))]), Z, 1)
    assert telescoping_product(g, telescoping_chain(cov)).is_identity()


# -- dilation equalizer ---------------------------------------------------------


def test_equalizer_domain_zero():
    g = eval_word(ElemWord(A2, [(E12, parse_poly("2*x1", Z, 1))]), Z, 1)
    assert dilation_equalizer(g, g, 2) == 0


def test_equalizer_mod4():
    z4 = BaseRing.integers_mod(4)
    g = GroupMatrix.identity(A2, z4, 1).rmul_unipotent(E12, parse_poly("2*x1", z4, 1))
    h = GroupMatrix.identity(A2, z4, 1)
    assert dilation_equalizer(g, h, 2) == 1


def test_equalizer_mod8_spec_example():
    z8 = BaseRing.integers_mod(8)
    g = GroupMatrix.identity(A2, z8, 1).rmul_unipotent(
        E12, parse_poly("4*x1+2*x1^2", z8, 1)
    )
    h = GroupMatrix.identity(A2, z8, 1)
    assert dilation_equalizer(g, h, 2) == 1


def test_equalizer_precondition_violations():
    # equal at z = 0, but x1 (over Z) and 3*x1 (over Z/9) survive inverting 2
    for base, arg in ((Z, "x1"), (BaseRing.integers_mod(9), "3*x1")):
        g = GroupMatrix.identity(A2, base, 1).rmul_unipotent(E12, parse_poly(arg, base, 1))
        h = GroupMatrix.identity(A2, base, 1)
        with pytest.raises(PreconditionViolated, match="localizations at s differ"):
            dilation_equalizer(g, h, 2)
    z4 = BaseRing.integers_mod(4)
    g2 = GroupMatrix.identity(A2, z4, 1).rmul_unipotent(E12, parse_poly("2", z4, 1))
    h2 = GroupMatrix.identity(A2, z4, 1)
    with pytest.raises(PreconditionViolated, match="differ at z = 0"):
        dilation_equalizer(g2, h2, 2)


def brute_minimal_dilation(g, h, s, bound, var=0):
    base, nvars = g.base, g.nvars
    x = MultiPoly.variable(base, nvars, var)
    for n in range(bound + 1):
        f = MultiPoly.const(base, nvars, 1)
        for _ in range(n):
            f = f.scale(base.from_int(s))
        img = {var: x * f}
        if g.substitute(img, nvars_out=nvars) == h.substitute(img, nvars_out=nvars):
            return n
    return None


def test_equalizer_matches_brute_force_mod_powers_of_two():
    rng = random.Random(55)
    for e in range(2, 7):
        zmod = BaseRing.integers_mod(2 ** e)
        for _ in range(10):
            h = eval_word(rand_word(rng, A2, rng.randint(1, 4), base=zmod), zmod, 1)
            extra_letters = []
            for _ in range(rng.randint(1, 3)):
                root = rng.choice(A2.roots)
                arg = MultiPoly(
                    zmod,
                    1,
                    {
                        (rng.randint(1, 2),): 2 ** rng.randint(1, e - 1)
                        * rng.randint(1, 3)
                    },
                )
                if not arg.is_zero():
                    extra_letters.append((root, arg))
            g = h
            for root, arg in extra_letters:
                g = g.rmul_unipotent(root, arg)
            n = dilation_equalizer(g, h, 2)
            assert n == brute_minimal_dilation(g, h, 2, e)


# -- descent ----------------------------------------------------------------------


def zvar(base=ZHALF, nvars=1):
    return MultiPoly.variable(base, nvars, 0)


def check_descent(w, s=2, z=0, budget=None):
    h, k = descend_word(w, s, z=z, budget=budget)
    base, nvars = w.base_and_nvars()
    lhs = eval_word(h, Z, nvars).map_entries(lambda p: convert(p, base))
    rhs = eval_word(dilate_word(w, z, s, k), base, nvars)
    assert lhs == rhs
    assert congruence_check(h, z).holds
    assert all(arg.base == Z for _, arg in h.letters)
    return h, k


def test_descend_integral_passthrough():
    z = zvar()
    w = ElemWord(A2, [(E12, z.scale(Fraction(3)))])
    h, k = check_descent(w)
    assert k == 0


def test_descend_single_letter_half():
    z = zvar()
    w = ElemWord(A2, [(E12, z.scale(Fraction(1, 2)))])
    h, k = check_descent(w)
    assert k == 1
    assert h.letters == ((E12, parse_poly("x1", Z, 1)),)


def test_descend_conjugated_letter():
    z = zvar()
    half = Fraction(1, 2)
    w = ElemWord(
        A2,
        [
            (E23, const(half, ZHALF)),
            (E12, z.scale(half)),
            (E23, const(-half, ZHALF)),
        ],
    )
    check_descent(w)


def test_descend_opposite_conjugation():
    z = zvar()
    half = Fraction(1, 2)
    w = ElemWord(
        A2,
        [
            (E21, const(half, ZHALF)),
            (E12, z.scale(half)),
            (E21, const(-half, ZHALF)),
        ],
    )
    check_descent(w)


def test_descend_opposite_conjugation_c2():
    z = zvar(nvars=1)
    half = Fraction(1, 2)
    w = ElemWord(
        C2,
        [
            ((-2, 0), const(half, ZHALF)),
            ((2, 0), z.scale(half)),
            ((-2, 0), const(-half, ZHALF)),
        ],
    )
    check_descent(w)


def test_descend_spec_conjugate_example():
    # h0 . x_alpha(z/2) . h0^{-1} with h0 = [x_beta(1/2)]
    z = zvar()
    half = Fraction(1, 2)
    w = ElemWord(
        A2,
        [
            (E13, const(half, ZHALF)),
            (E12, z.scale(half)),
            (E13, const(-half, ZHALF)),
        ],
    )
    check_descent(w)


def test_descend_longer_mixed_word():
    z = zvar()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    w = ElemWord(
        A2,
        [
            (E23, const(quarter, ZHALF)),
            (E12, z.scale(half)),
            (E13, (z * z).scale(quarter)),
            (E12, z.scale(-half)),
            (E23, const(-quarter, ZHALF)),
            (E12, z.scale(3)),
        ],
    )
    assert congruence_check(w, 0).holds
    check_descent(w)


def test_descend_rejects_noncongruent():
    w = ElemWord(A2, [(E12, const(Fraction(1, 2), ZHALF))])
    with pytest.raises(PreconditionViolated):
        descend_word(w, 2)


def nested_conjugate_word(rs, seed, depth=2, denom_pow=3):
    rng = random.Random(seed)
    z = MultiPoly.variable(ZHALF, 1, 0)
    roots = list(rs.roots)

    def payload():
        c = Fraction(rng.choice([1, 3, -1, -3]), 2 ** rng.randint(0, denom_pow))
        return (z ** rng.randint(1, 2)).scale(c)

    alpha = rng.choice(roots)
    letters = [(alpha, payload())]
    for _ in range(depth):
        beta = rng.choice(roots)
        arg = const(
            Fraction(rng.choice([1, -1]), 2 ** rng.randint(1, denom_pow)), ZHALF
        )
        letters = [(beta, arg)] + letters + [(beta, -arg)]
    return ElemWord(rs, letters)


def test_descend_nested_never_unsound():
    """Deep conjugations either descend verified or fail cleanly."""
    ok = 0
    budget_misses = 0
    for rs in (A2, C2):
        for seed in range(15):
            w = nested_conjugate_word(rs, 70000 + seed, depth=2)
            assert congruence_check(w, 0).holds
            try:
                h, k = descend_word(w, 2)
            except DescentBudgetExceeded:
                budget_misses += 1
                continue
            lhs = eval_word(h, Z, 1).map_entries(lambda p: convert(p, ZHALF))
            rhs = eval_word(dilate_word(w, 0, 2, k), ZHALF, 1)
            assert lhs == rhs
            assert congruence_check(h, 0).holds
            ok += 1
    assert ok >= 25  # the clean-failure rate stays marginal at this depth


def half_conjugate_word():
    z = zvar()
    return ElemWord(
        A2,
        [
            (E21, const(Fraction(1, 2), ZHALF)),
            (E12, z.scale(Fraction(1, 2))),
            (E21, const(Fraction(-1, 2), ZHALF)),
        ],
    )


def test_descend_budget_exhaustion():
    with pytest.raises(DescentBudgetExceeded):
        descend_word(half_conjugate_word(), 2, budget=Budget(max_letters=2))


@pytest.mark.parametrize("field", ["max_letters", "max_degree", "max_coeff_bits"])
def test_descend_zero_budget_fails_fast(field):
    check_descent(half_conjugate_word())  # descends under the default budget
    with pytest.raises(DescentBudgetExceeded):
        descend_word(half_conjugate_word(), 2, budget=Budget(**{field: 0}))


def test_descend_dilation_levels_fixed():
    """max_steps bounds greedy passes, not the dilation levels tried."""
    w = nested_conjugate_word(A2, 70012, depth=2)
    with pytest.raises(DescentBudgetExceeded, match="within 8 dilation levels"):
        descend_word(w, 2, budget=Budget())


# -- dilation certificates ------------------------------------------------------------


def integral_word_and_matrix(rng, rs, length=4):
    w = rand_word(rng, rs, length)
    g = eval_word(w, Z, 1)
    return w, g


def test_dilation_factor_integral_shortcut():
    rng = random.Random(7)
    w, g = integral_word_and_matrix(rng, A2)
    w_loc = map_word(w, ("localize", 2))
    cert = dilation_factor(g, w_loc, 2)
    assert cert.k == 0
    word = cert.generator(3, 1)
    x = MultiPoly.variable(Z, 1, 0)
    expect = g.substitute({0: x.scale(3)}, nvars_out=1) * g.substitute(
        {0: x}, nvars_out=1
    ).inverse()
    assert eval_word(word, Z, 1) == expect


def test_dilation_factor_equal_endpoints():
    rng = random.Random(9)
    w, g = integral_word_and_matrix(rng, A2)
    cert = dilation_factor(g, map_word(w, ("localize", 2)), 2)
    word = cert.generator(5, 5)
    assert eval_word(word, Z, 1).is_identity()


def halfling_word(rng, rs, length=5):
    """Word over Z[1/2][x] with integral evaluation: conjugates of
    4-divisible payloads by half-integer letters."""
    letters = []
    conj_root = None
    payload = []
    for _ in range(length - 2):
        root = rng.choice(rs.roots)
        arg = MultiPoly(
            ZHALF, 1, {(rng.randint(0, 2),): Fraction(4 * rng.randint(-2, 2))}
        )
        if not arg.is_zero():
            payload.append((root, arg))
    conj_root = rng.choice(rs.roots)
    half = const(Fraction(1, 2), ZHALF)
    letters = [(conj_root, half)] + payload + [(conj_root, -half)]
    return ElemWord(rs, letters)


def test_dilation_factor_with_descent():
    rng = random.Random(21)
    w_s = halfling_word(rng, A2, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    entries = [[convert(p, Z) for p in row] for row in m_loc.entries]
    g = GroupMatrix(A2, entries)
    cert = dilation_factor(g, w_s, 2)
    assert cert.k >= 0
    a, b = 1 + 2 ** cert.k, 1
    word = cert.generator(a, b)
    x = MultiPoly.variable(Z, 1, 0)
    expect = g.substitute({0: x.scale(a)}, nvars_out=1) * g.substitute(
        {0: x.scale(b)}, nvars_out=1
    ).inverse()
    assert eval_word(word, Z, 1) == expect
    # generator(3, 1) from the spec narrative
    word31 = cert.generator(1 + 2 ** cert.k * 2, 1)
    assert len(word31) >= 0


def test_dilation_factor_empty_descent():
    # the descended word is empty; its congruence must be read off the
    # matrix, since an empty word carries no variable count
    half = const(Fraction(1, 2), ZHALF)
    w_s = ElemWord(A2, [(E12, half), (E12, -half)])
    g = GroupMatrix.identity(A2, Z, 1)
    cert = dilation_factor(g, w_s, 2)
    assert cert.k == 0
    word = cert.generator(3, 1)
    assert eval_word(word, Z, 1) == g


def test_dilation_factor_rejects_bad_word():
    rng = random.Random(23)
    w, g = integral_word_and_matrix(rng, A2)
    wrong = ElemWord(A2, [(E12, const(Fraction(1), ZHALF))])
    with pytest.raises(PreconditionViolated):
        dilation_factor(g, wrong, 2)


def test_dilation_generator_rejects_incongruent_args():
    # force a nonzero modulus: descend a genuinely half-integral word
    z = zvar()
    w = ElemWord(
        A2,
        [
            (E23, const(Fraction(1, 2), ZHALF)),
            (E12, z.scale(Fraction(1, 2))),
            (E23, const(Fraction(-1, 2), ZHALF)),
        ],
    )
    h, k = descend_word(w, 2)
    assert k > 0


# -- patch ------------------------------------------------------------------------------


def test_patch_trivial_covering():
    rng = random.Random(31)
    w, g = integral_word_and_matrix(rng, A2)
    loc1 = BaseRing.integers_localized(1)
    w_loc = ElemWord(A2, [(r, convert(a, loc1)) for r, a in w.letters])
    cert = dilation_factor(g, w_loc, 1)
    cov = CoveringData((1,), (1,), (1,))
    word = patch(g, [(1, cert)], cov)
    assert eval_word(word, Z, 1) == g * g.at_zero(0).inverse()


def test_patch_two_element_covering():
    rng = random.Random(33)
    w, g = integral_word_and_matrix(rng, A2)
    certs = []
    for s in (2, 3):
        w_loc = map_word(w, ("localize", s))
        certs.append((s, dilation_factor(g, w_loc, s)))
    cov = CoveringData.from_elements([2, 3], exponents=[1, 1])
    word = patch(g, certs, cov)
    assert eval_word(word, Z, 1) == g * g.at_zero(0).inverse()


def test_patch_constant_in_x_reduces_toward_empty():
    g = eval_word(ElemWord(A2, [(E12, const(7))]), Z, 1)
    loc1 = BaseRing.integers_localized(1)
    w_loc = ElemWord(A2, [(E12, const(Fraction(7), loc1))])
    cert = dilation_factor(g, w_loc, 1)
    cov = CoveringData((1,), (1,), (1,))
    word = patch(g, [(1, cert)], cov)
    assert eval_word(word, Z, 1).is_identity()


def test_patch_mismatched_certs():
    rng = random.Random(35)
    w, g = integral_word_and_matrix(rng, A2)
    cert = dilation_factor(g, map_word(w, ("localize", 2)), 2)
    cov = CoveringData.from_elements([2, 3])
    with pytest.raises(CoveringInconsistent):
        patch(g, [(2, cert)], cov)
