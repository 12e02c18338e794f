"""Tests for dilation equalizers, descent, dilation certs, and patching."""

import random
from fractions import Fraction

import pytest

from chevelem import localglobal
from chevelem.errors import (
    BaseMismatch,
    CoveringInconsistent,
    DescentBudgetExceeded,
    InternalCheckFailed,
    NotInGroup,
    PreconditionViolated,
)
from chevelem.exactring import BaseRing, MultiPoly, convert, parse_poly
from chevelem.factorize import random_elementary_word
from chevelem.localglobal import (
    DEFAULT_BUDGET,
    Budget,
    CoveringData,
    DilationCert,
    descend_word,
    dilate_word,
    dilation_equalizer,
    dilation_factor,
    patch,
    telescoping_chain,
    telescoping_product,
    xgcd,
)
from chevelem.rootdata import GroupMatrix, build_root_system, elem_unipotent
from chevelem.words import ElemWord, congruence_check, eval_word, free_reduce, map_word

Z = BaseRing.integers()
ZHALF = BaseRing.integers_localized(2)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
A3 = build_root_system("A", 3)

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


def test_covering_from_elements_edge_inputs():
    with pytest.raises(CoveringInconsistent, match="empty covering"):
        CoveringData.from_elements([])
    # an empty exponent list is a list of the wrong length, not "all 1"
    with pytest.raises(CoveringInconsistent, match="component lengths differ"):
        CoveringData.from_elements([2, 3], [])
    # -1 alone generates the unit ideal, as CoveringData itself accepts
    assert CoveringData.from_elements([-1]) == CoveringData((-1,), (-1,), (1,))
    assert CoveringData((-1,), (-1,), (3,)).raised() == CoveringData((-1,), (-1,), (1,))


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


def dilated(g, a):
    """g(a x), through substitute rather than the dilation under test."""
    x = MultiPoly.variable(Z, 1, 0)
    return g.substitute({0: x.scale(a)}, nvars_out=1)


@pytest.mark.parametrize("rs", [A2, C2, A3], ids=["A2", "C2", "A3"])
@pytest.mark.parametrize(
    "chain", [[3], [1, 0], [1, -2, 5, 0], [1, 1, -2, 0]], ids=["1", "2", "4", "4-repeated"]
)
def test_telescoping_product_matches_the_written_out_product(rs, chain, monkeypatch):
    # out * g(a x) * g(b x)^{-1} from the identity, step by step; g is
    # inverted once, and a step from a to b != a dilates g once at a and
    # g^{-1} once at b; a step with a = b is the identity and builds nothing
    g = eval_word(random_elementary_word(rs, 2500 + len(chain), 6), Z, 1)
    expect = GroupMatrix.identity(rs, Z, 1)
    for a, b in zip(chain, chain[1:]):
        expect = expect * dilated(g, a) * dilated(g, b).inverse()
    dilations, inverses = {"g": [], "inverse": []}, []
    real_dilate, real_inverse = GroupMatrix.dilate, GroupMatrix.inverse

    def counted_dilate(self, var, c):
        dilations["g" if self is g else "inverse"].append(c)
        return real_dilate(self, var, c)

    def counted_inverse(self):
        inverses.append(self)
        return real_inverse(self)

    monkeypatch.setattr(GroupMatrix, "dilate", counted_dilate)
    monkeypatch.setattr(GroupMatrix, "inverse", counted_inverse)
    assert telescoping_product(g, chain) == expect
    assert inverses == [g] * (len(chain) > 1)
    steps = [(a, b) for a, b in zip(chain, chain[1:]) if a != b]
    assert dilations == {"g": [a for a, _ in steps], "inverse": [b for _, b in steps]}


def test_telescoping_product_refuses_a_non_member():
    # det = 2, so g(b x) has no inverse over Z[x]
    entries = [[const(2 if i == j == 0 else int(i == j)) for j in range(3)] for i in range(3)]
    g = GroupMatrix(A2, entries)
    with pytest.raises(NotInGroup):
        telescoping_product(g, [1, 0])


def test_telescoping_product_refuses_a_non_member_with_invertible_points():
    # det = 1 + x1: g(1 x) = g and g(0 x) = 1, so the product along
    # [1, 0] would be g, but g is not in SL3(Z[x]) and its inverse is refused
    x = MultiPoly.variable(Z, 1, 0)
    entries = [
        [x + const(1) if i == j == 0 else const(int(i == j)) for j in range(3)] for i in range(3)
    ]
    g = GroupMatrix(A2, entries)
    assert g.at_zero(0).is_identity()
    with pytest.raises(NotInGroup):
        telescoping_product(g, [1, 0])


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
    # the term c x1^e needs n e >= t, t the annihilator exponent of c: over
    # Z/16, 2 x1^3 (t = 3) needs only n = 1 and x1^2 x2 (t = 4) n = 2
    z16 = BaseRing.integers_mod(16)
    for arg, want in (
        ("2*x1^3", 1),
        ("2*x1^3 + 4*x1*x2", 2),
        ("8*x1^2 + 2*x1^4", 1),
        ("x1^2*x2 + 2*x1", 3),
    ):
        h = eval_word(rand_word(rng, A2, 3, base=z16, nvars=2), z16, 2)
        g = h.rmul_unipotent(E12, parse_poly(arg, z16, 2))
        assert dilation_equalizer(g, h, 2) == brute_minimal_dilation(g, h, 2, 4) == want


# -- descent ----------------------------------------------------------------------


def zvar(base=ZHALF, nvars=1):
    return MultiPoly.variable(base, nvars, 0)


def check_descent(w, s=2, z=0, budget=DEFAULT_BUDGET):
    h, k = descend_word(w, s, z=z, budget=budget)
    base, nvars = w.base_and_nvars()
    lhs = eval_word(h, Z, nvars).map_entries(lambda p: convert(p, base))
    rhs = eval_word(dilate_word(w, z, s, k), base, nvars)
    assert lhs == rhs
    assert congruence_check(h, z).holds
    assert all(arg.base == Z for _, arg in h.letters)
    if any(arg.den != 1 for _, arg in w.letters):  # not the integral pass-through
        assert free_reduce(h) == h
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


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("C", 2), ("C", 3)])
def test_opposite_rewrite_every_root(kind, rank):
    # x_gamma(t) rewritten through roots non-proportional to gamma, for
    # a z-divisible, a mixed and a z-free payload at each reserve
    rs = build_root_system(kind, rank)
    z = zvar()
    payloads = [z.scale(Fraction(3, 4)), z * z + const(4, ZHALF), const(8, ZHALF)]
    for gamma in rs.roots:
        for t in payloads:
            for reserve in range(3):
                letters = localglobal._opposite_rewrite(rs, gamma, t, 0, 2, reserve)
                assert letters is not None
                assert not any(rs.proportional(root, gamma) for root, _ in letters)
                word = ElemWord(rs, letters)
                assert eval_word(word, ZHALF, 1) == elem_unipotent(rs, gamma, t)


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
    with pytest.raises(DescentBudgetExceeded, match=r"refused by Budget\.%s: " % field):
        descend_word(half_conjugate_word(), 2, budget=Budget(**{field: 0}))


def test_descend_word_refuses_an_s_that_leaves_denominators():
    # the word has eighths: s = 0 inverts nothing and s = 1, 3 do not
    # invert 2, so no dilation by s clears them; an even s does
    w = nested_conjugate_word(A2, 70007)
    for s in (0, 1, 3):
        with pytest.raises(PreconditionViolated, match="s=%d " % s):
            descend_word(w, s)
    assert [check_descent(w, s)[1] for s in (2, -2, 4, 6)] == [3, 3, 2, 3]


def test_descend_word_refuses_a_rewrite_that_divides_by_a_non_unit():
    # s = 6 inverts 2, but an opposite rewrite divides by s, which is no
    # unit of Z[1/2]: the descent names s and the base rather than a spent
    # budget or a leaked BaseMismatch, a spent budget still reads as one,
    # and a word that needs no such rewrite still descends at s = 6
    for seed in (70005, 70010):
        w = nested_conjugate_word(A2, seed)
        with pytest.raises(DescentBudgetExceeded, match=r"s=6, not a unit of Z\[1/2\]$"):
            descend_word(w, 6)
        with pytest.raises(DescentBudgetExceeded, match=r"Budget\.max_letters: 9$"):
            descend_word(w, 6, budget=Budget(max_letters=0))
        check_descent(w, 2)
    assert check_descent(nested_conjugate_word(A2, 70007), 6)[1] == 3


def test_descend_dilation_levels_fixed():
    """max_steps bounds greedy passes, not the dilation levels tried."""
    w = nested_conjugate_word(A2, 70012, depth=2)
    with pytest.raises(DescentBudgetExceeded, match="within 8 dilation levels") as exc:
        descend_word(w, 2, budget=Budget())
    # four levels meet a z-free payload with too few powers of s for the
    # opposite rewrite; no Budget field ran out, so none is named
    message = str(exc.value)
    assert "stopped by opposite rewrite without a power of s: 4, no clearing exponent: 5" in message
    assert "Budget." not in message


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


def test_dilation_factor_letter_budget_bounds_the_descent():
    # a half-integral word is descended under the caller's budget: none
    # left stops it, the default yields a certificate that multiplies back
    w_s = halfling_word(random.Random(21), A2, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    g = GroupMatrix(A2, [[convert(p, Z) for p in row] for row in m_loc.entries])
    assert any(a.den > 1 for _, a in w_s.letters)
    with pytest.raises(DescentBudgetExceeded):
        dilation_factor(g, w_s, 2, budget=Budget(max_letters=0))
    cert = dilation_factor(g, w_s, 2)
    x = MultiPoly.variable(Z, 1, 0)
    a = 1 + 2 ** cert.k
    expect = g.substitute({0: x.scale(a)}, nvars_out=1) * g.inverse()
    assert eval_word(cert.generator(a, 1), Z, 1) == expect


def test_descent_names_the_stage_that_stopped_it():
    # no budget field runs out here: at every one of the 9 levels a z-free
    # letter keeps its denominator, so clearing_exponent finds none
    w_s = halfling_word(random.Random(190), A2, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    g = GroupMatrix(A2, [[convert(p, Z) for p in row] for row in m_loc.entries])
    stage = "within 8 dilation levels; stopped by no clearing exponent: 9$"
    with pytest.raises(DescentBudgetExceeded, match=stage):
        dilation_factor(g, w_s, 2)


def test_descent_counts_level_one_without_expanding_it(monkeypatch):
    # level 0 finds no clearing exponent, so level 1, its dilation by s,
    # is counted under that stage unexpanded: 8 expansions for 9 levels
    w_s = halfling_word(random.Random(190), A2, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    g = GroupMatrix(A2, [[convert(p, Z) for p in row] for row in m_loc.entries])
    reserves = []
    real = localglobal._expand_good

    def counted(w0, z, s, reserve, budget):
        reserves.append(reserve)
        return real(w0, z, s, reserve, budget)

    monkeypatch.setattr(localglobal, "_expand_good", counted)
    stage = "within 8 dilation levels; stopped by no clearing exponent: 9$"
    with pytest.raises(DescentBudgetExceeded, match=stage):
        dilation_factor(g, w_s, 2)
    assert reserves == [0, 2, 3, 4, 5, 6, 7, 8]


def congruence_word(rng, rs):
    """Congruence word over Z[1/2][z]: z-divisible payloads, alone or
    conjugated by a half-integral letter on a root or on its opposite."""
    z = zvar()
    roots = list(rs.roots)

    def payload():
        c = Fraction(rng.choice([1, 2, 3, -1, -3]), 2 ** rng.randint(0, 3))
        return (z ** rng.randint(1, 2)).scale(c)

    shape = rng.choice(["plain", "conjugate", "opposite"])
    if shape == "plain":
        return ElemWord(rs, [(rng.choice(roots), payload()) for _ in range(rng.randint(1, 4))])
    alpha = rng.choice(roots)
    if shape == "conjugate":
        beta = rng.choice([b for b in roots if not rs.proportional(b, alpha)])
    else:
        beta = tuple(-v for v in alpha)
    conj = const(Fraction(rng.choice([1, -1]), 2 ** rng.randint(1, 3)), ZHALF)
    letters = [(beta, conj)] + [(alpha, payload()) for _ in range(rng.randint(1, 2))]
    return ElemWord(rs, letters + [(beta, -conj)])


def descended_words(rs, seed):
    """(word, z) pairs the descent expands: the word in two auxiliary
    variables that dilation_factor builds from a halfling word, a nested
    conjugate word and a congruence word."""
    rng = random.Random(seed)
    w_s = halfling_word(rng, rs, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    g = GroupMatrix(rs, [[convert(p, Z) for p in row] for row in m_loc.entries])
    seen = []
    real = localglobal.descend_word

    def recorded(w, s, z=0, budget=DEFAULT_BUDGET):
        seen.append((w, z))
        return real(w, s, z=z, budget=budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localglobal, "descend_word", recorded)
        try:
            dilation_factor(g, w_s, 2)
        except DescentBudgetExceeded:
            pass
    return seen + [(nested_conjugate_word(rs, seed), 0), (congruence_word(rng, rs), 0)]


@pytest.mark.parametrize("rs", [A2, C2], ids=["A2", "C2"])
def test_level_one_expansion_is_level_zero_dilated(rs):
    # both levels reserve s^1 on the constant slot, so expanding w(s z)
    # gives w's expansion with every letter dilated by z -> s z
    expanded = 0
    for seed in range(190, 202):
        for w, z in descended_words(rs, seed):
            try:
                level0 = localglobal._expand_good(w, z, 2, 0, DEFAULT_BUDGET)
            except localglobal._Refused:
                continue
            level1 = localglobal._expand_good(dilate_word(w, z, 2, 1), z, 2, 1, DEFAULT_BUDGET)
            assert level1 == [(r, a.dilate(z, 2)) for r, a in level0]
            expanded += 1
    assert expanded >= 30


def test_dilation_factor_checks_descended_word(monkeypatch):
    # a descended word that misses one letter evaluates to another matrix
    # over Z, and the exact check must refuse the certificate
    real = localglobal.descend_word

    def one_letter_short(w, s, z=0, budget=DEFAULT_BUDGET):
        h, k = real(w, s, z=z, budget=budget)
        assert len(h) > 0
        return ElemWord(h.rs, h.letters[1:]), k

    w_s = halfling_word(random.Random(21), A2, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    g = GroupMatrix(A2, [[convert(p, Z) for p in row] for row in m_loc.entries])
    dilation_factor(g, w_s, 2)
    monkeypatch.setattr(localglobal, "descend_word", one_letter_short)
    with pytest.raises(InternalCheckFailed):
        dilation_factor(g, w_s, 2)


def _direct_and_descended_certs():
    w, g = integral_word_and_matrix(random.Random(7), A2)
    direct = dilation_factor(g, map_word(w, ("localize", 2)), 2)
    w_s = halfling_word(random.Random(21), A2, 5)
    m_loc = eval_word(w_s, ZHALF, 1)
    g2 = GroupMatrix(A2, [[convert(p, Z) for p in row] for row in m_loc.entries])
    assert any(a.den > 1 for _, a in w_s.letters)  # so it descends
    return direct, dilation_factor(g2, w_s, 2)


def test_dilation_generator_checks_its_word(monkeypatch):
    # a generator word that misses its first letter evaluates to another
    # matrix, and the multiplied-out check eval(word) g(bx) = g(ax) refuses it
    certs = _direct_and_descended_certs()
    real = localglobal.free_reduce

    def first_letter_dropped(w):
        reduced = real(w)
        assert len(reduced) > 0
        return ElemWord(reduced.rs, reduced.letters[1:])

    monkeypatch.setattr(localglobal, "free_reduce", first_letter_dropped)
    for cert in certs:
        with pytest.raises(InternalCheckFailed):
            cert.generator(1 + 2 ** cert.k, 1)


def test_dilation_generator_multiplies_no_matrices(monkeypatch):
    # eval(word) g(bx) is folded letter by letter onto g(bx): neither
    # certificate's check multiplies two matrices
    certs = _direct_and_descended_certs()
    real, calls = GroupMatrix.__mul__, []

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(GroupMatrix, "__mul__", spy)
    words = [cert.generator(1 + 2 ** cert.k, 1) for cert in certs]
    monkeypatch.undo()
    assert calls == [] and all(len(w) > 0 for w in words)


def test_dilation_generator_takes_integers_only():
    # a polynomial argument is not coerced into Z: no word comes back
    for cert in _direct_and_descended_certs():
        with pytest.raises(TypeError):
            cert.generator(MultiPoly.const(Z, 1, 3), 1)


@pytest.mark.parametrize("a", ["3", True], ids=["string", "bool"])
def test_dilation_generator_refuses_strings_and_bools(a):
    # "3" and True are not integers of Z, though Fraction() would take them
    for cert in _direct_and_descended_certs():
        with pytest.raises(TypeError):
            cert.generator(a, 1)
        with pytest.raises(TypeError):
            cert.generator(1, a)


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


@pytest.mark.parametrize("a", [Fraction(3, 2), 2.9], ids=["fraction", "float"])
def test_dilation_generator_rejects_non_integer_argument(a):
    # a is coerced into Z, never truncated to a neighbouring integer
    w = random_elementary_word(A2, 3, 4)
    g = eval_word(w, Z, 1)
    cert = dilation_factor(g, map_word(w, ("localize", 2)), 2)
    with pytest.raises(BaseMismatch):
        cert.generator(a, 1)


def test_dilation_factor_rejects_bad_word():
    rng = random.Random(23)
    w, g = integral_word_and_matrix(rng, A2)
    wrong = ElemWord(A2, [(E12, const(Fraction(1), ZHALF))])
    with pytest.raises(PreconditionViolated):
        dilation_factor(g, wrong, 2)
    with pytest.raises(PreconditionViolated, match="s=0"):
        dilation_factor(g, map_word(w, ("localize", 2)), 0)


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


def incongruent_args_word():
    z = zvar()
    return ElemWord(
        A2,
        [
            (E23, const(Fraction(1, 2), ZHALF)),
            (E12, z.scale(Fraction(1, 2))),
            (E23, const(Fraction(-1, 2), ZHALF)),
        ],
    )


def incongruent_generator_call():
    # a C2 word whose descent needs k = 2, so 2 and 1 are not congruent
    w_s = halfling_word(random.Random(20), C2, 5)
    g = GroupMatrix(C2, [[convert(p, Z) for p in row] for row in eval_word(w_s, ZHALF, 1).entries])
    cert = dilation_factor(g, w_s, 2)
    assert cert.k == 2
    cert.generator(2, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: dilation_factor(GroupMatrix.identity(A2, BaseRing.prime_field(5), 1),
                                 ElemWord(A2, []), 2),
         PreconditionViolated, "dilation certificates are built over Z here"),
        (lambda: descend_word(ElemWord(A2, [(E12, zvar(Z))]), 2),
         PreconditionViolated, "descent expects a word over Z[1/s]"),
        (incongruent_generator_call, PreconditionViolated, "arguments are not congruent mod 2^2"),
        (lambda: patch(GroupMatrix.identity(A2, Z, 1),
                       [(3, DilationCert(3, 0, None)), (2, DilationCert(2, 0, None))],
                       CoveringData.from_elements([2, 3])),
         CoveringInconsistent, "certificate element mismatch"),
        (lambda: patch(GroupMatrix.identity(A2, Z, 1),
                       [(2, DilationCert(2, 2, None)), (3, DilationCert(3, 0, None))],
                       CoveringData.from_elements([2, 3])),
         CoveringInconsistent, "covering exponent 1 below certificate modulus 2"),
        (lambda: dilation_equalizer(GroupMatrix.identity(A2, Z, 1),
                                    GroupMatrix.identity(A2, BaseRing.rationals(), 1), 2),
         PreconditionViolated, "matrices over different rings"),
    ],
    ids=["dilation-over-F5", "descent-over-Z", "incongruent-points", "certs-out-of-order",
         "cert-above-exponent", "equalizer-mixed-rings"],
)
def test_input_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_descend_word_refuses_a_wrong_expansion(monkeypatch):
    # an expansion that misses its first letter evaluates to another
    # matrix, so descend_word's own check refuses the first level; where
    # the dilated product is not integral that is a fault in the program,
    # not a BaseMismatch
    check_descent(incongruent_args_word())
    real = localglobal._expand_good

    def first_letter_dropped(*args):
        return real(*args)[1:]

    products = []
    real_dilate = GroupMatrix.dilate

    def recorded(self, var, c):
        out = real_dilate(self, var, c)
        products.append(out)
        return out

    monkeypatch.setattr(localglobal, "_expand_good", first_letter_dropped)
    monkeypatch.setattr(GroupMatrix, "dilate", recorded)
    with pytest.raises(InternalCheckFailed):
        descend_word(incongruent_args_word(), 2)
    assert any(p.den > 1 for m in products for row in m.entries for p in row)


def test_dilation_factor_refuses_words_not_over_the_localization():
    # integral letters over Z, or over Z[1/3] at s = 2, are not a word
    # over Z[1/2] even though they evaluate to g
    w, g = integral_word_and_matrix(random.Random(23), A2)
    assert dilation_factor(g, map_word(w, ("localize", 2)), 2).k == 0
    for wrong in (w, map_word(w, ("localize", 3))):
        assert all(a.den == 1 for _, a in wrong.letters)
        with pytest.raises(PreconditionViolated):
            dilation_factor(g, wrong, 2)


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


@pytest.mark.parametrize("kind, rank", [("A", 3), ("C", 3)])
def test_patch_refuses_certs_over_another_root_system(kind, rank):
    # the steps' words are joined by one concat, which compares root
    # systems: C3 has every A2 root, so the roots alone would not tell
    rng = random.Random(31)
    w, g = integral_word_and_matrix(rng, A2)
    cert = dilation_factor(g, map_word(w, ("localize", 1)), 1)
    other = GroupMatrix.identity(build_root_system(kind, rank), Z, 1)
    with pytest.raises(BaseMismatch, match="words over different root systems"):
        patch(other, [(1, cert)], CoveringData((1,), (1,), (1,)))


@pytest.mark.parametrize("rs", [A2, C2], ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
def test_patch_refuses_a_non_member(rs):
    # the certificate's word is h h(0)^{-1} for h = x_b(1) x_a(x1); g is h
    # with one entry moved by x1 or by 1, in no group, and the word times
    # g(0) is not g.  In A2 the move by 1 makes det g(0) = 2: g(0) has no
    # inverse, and patch's check, eval(word) g(0) = g, needs none
    x = MultiPoly.variable(Z, 1, 0)
    a, b = rs.roots[0], rs.roots[-1]
    h = eval_word(ElemWord(rs, [(b, const(1)), (a, x)]), Z, 1)
    word = ElemWord(rs, [(b, const(1)), (a, x), (b, const(-1))])
    cert = DilationCert(s=1, k=0, generator=lambda _a, _b: word)
    cov = CoveringData((1,), (1,), (1,))
    assert patch(h, [(1, cert)], cov) == word
    for change in (x, const(1)):
        bad = [list(row) for row in h.entries]
        bad[0][0] = bad[0][0] + change
        g = GroupMatrix(rs, bad)
        with pytest.raises(CoveringInconsistent):
            patch(g, [(1, cert)], cov)
