"""Ring arithmetic, substitution, annihilators, monic division, grammar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chevelem.errors import (
    BaseMismatch,
    NotMonic,
    ParseError,
)
from chevelem.exactring import (
    BaseRing,
    MultiPoly,
    annihilator_exponent,
    base_ring_from_str,
    convert,
    denominator_lcm,
    emit_poly,
    monic_divrem,
    parse_poly,
    poly_s_valuation,
    s_valuation,
)
from chevelem.rootdata import GroupMatrix, build_root_system

Z = BaseRing.integers()
Q = BaseRing.rationals()
Z4 = BaseRing.integers_mod(4)
Z8 = BaseRing.integers_mod(8)
Z12 = BaseRing.integers_mod(12)
F5 = BaseRing.prime_field(5)
ZHALF = BaseRing.integers_localized(2)


def P(text, base=Z, nvars=1):
    return parse_poly(text, base, nvars)


# -- base rings -------------------------------------------------------------


def test_base_ring_validation():
    with pytest.raises(ValueError):
        BaseRing.integers_mod(1)
    with pytest.raises(ValueError):
        BaseRing.prime_field(6)
    with pytest.raises(ValueError):
        BaseRing.integers_localized(0)


def test_base_ring_str_roundtrip():
    for b in (Z, Q, Z12, F5, ZHALF):
        assert base_ring_from_str(str(b)) == b


def test_localized_units():
    assert ZHALF.is_unit(Fraction(4))
    assert ZHALF.is_unit(Fraction(-1, 8))
    assert not ZHALF.is_unit(Fraction(3))
    assert ZHALF.unit_inverse(Fraction(4)) == Fraction(1, 4)


def test_normalize_contract():
    # one coercion: ints and exact rationals become the ring's own elements
    for base, elem in ((Z, int), (Z12, int), (F5, int), (Q, Fraction), (ZHALF, Fraction)):
        for c in (0, 1, -3, 7, Fraction(6, 2)):
            assert type(base.normalize(c)) is elem
        assert type(base.zero()) is elem and type(base.one()) is elem
        assert type(MultiPoly.const(base, 1, 3).constant_term()) is elem
        assert type(MultiPoly(base, 1, {(1,): 3}).terms[(1,)]) is elem
    assert Z12.normalize(-1) == 11
    assert F5.normalize(Fraction(1, 2)) == 3
    assert Q.normalize(Fraction(1, 3)) == Fraction(1, 3)
    # a non-member is rejected by the constructor, scale and const alike
    z6 = BaseRing.integers_mod(6)
    for base, c in ((Z, Fraction(1, 2)), (z6, Fraction(1, 3)), (ZHALF, Fraction(1, 3))):
        with pytest.raises(BaseMismatch):
            base.normalize(c)
        with pytest.raises(BaseMismatch):
            MultiPoly(base, 1, {(1,): c})
        with pytest.raises(BaseMismatch):
            MultiPoly.variable(base, 1, 0).scale(c)
        with pytest.raises(BaseMismatch):
            MultiPoly.const(base, 1, c)
    # the modulus is derived from kind and param: ==, hash and repr ignore it
    z4 = BaseRing.integers_mod(4)
    assert z4 == BaseRing("Zmod", 4) and hash(z4) == hash(BaseRing("Zmod", 4))
    assert repr(z4) == "BaseRing(kind='Zmod', param=4)"
    assert (z4.modulus, F5.modulus, Z.modulus, Q.modulus, ZHALF.modulus) == (4, 5, None, None, None)


def test_localized_denominator_check():
    with pytest.raises(BaseMismatch):
        ZHALF.normalize(Fraction(1, 3))
    assert ZHALF.normalize(Fraction(3, 8)) == Fraction(3, 8)


# -- polynomial arithmetic: spec examples ------------------------------------


def test_add_example():
    assert P("x1+1") + P("x1-1") == P("2*x1")


def test_mul_example():
    assert P("1+2*x1") * P("1-2*x1") == P("1-4*x1^2")


def test_mul_mod4_kills():
    p = P("2*x1", Z4)
    assert (p * p).is_zero()


def test_substitute_dilation():
    p = P("x1^2+1")
    two_x = P("2*x1")
    assert p.substitute({0: two_x}) == P("4*x1^2+1")


def test_substitute_at_zero():
    p = P("x1^2+x1+5")
    assert p.substitute({0: MultiPoly.zero(Z, 1)}) == P("5")


def test_substitute_mod8_vanishes():
    p = P("4*x1+2*x1^2", Z8)
    img = P("2*x1", Z8)
    assert p.substitute({0: img}).is_zero()


def reference_pow(p, n):
    """p**n by repeated squaring with MultiPoly.__mul__ alone."""
    result, square = MultiPoly.const(p.base, p.nvars, 1), p
    while n:
        if n & 1:
            result = result * square
        n >>= 1
        if n:
            square = square * square
    return result


def reference_substitute(p, assignment, nvars_out):
    """The substitution as a sum of products of MultiPolys: only __mul__ and __add__."""
    base = p.base
    images = {v: img.extend_vars(nvars_out) for v, img in assignment.items()}
    for v in range(p.nvars):
        images.setdefault(v, MultiPoly.variable(base, nvars_out, v))
    out = MultiPoly.zero(base, nvars_out)
    for exps, c in p.terms.items():
        term = MultiPoly.const(base, nvars_out, 1)
        for v, e in enumerate(exps):
            if e:
                term = term * reference_pow(images[v], e)
        out = out + term * MultiPoly.const(base, nvars_out, c)
    return out


def typed_items(p):
    """Terms in insertion order, with each coefficient's type."""
    return [(e, c, type(c)) for e, c in p.terms.items()]


DIFF_BASES = [
    Z, Q, Z4, BaseRing.integers_mod(6), Z8, F5, ZHALF, BaseRing.integers_localized(6)
]


def random_poly(rng, base, nvars, max_terms=5, max_deg=3):
    def coeff():
        if base.kind == "Q":
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if base.kind == "Zloc":
            return Fraction(rng.randint(-6, 6), base.param ** rng.randint(0, 2))
        return rng.randint(-9, 9)

    terms = {
        tuple(rng.randint(0, max_deg) for _ in range(nvars)): coeff()
        for _ in range(rng.randint(0, max_terms))
    }
    return MultiPoly(base, nvars, terms)


def test_substitute_matches_reference():
    rng = random.Random(20181210)
    # powers that vanish: of one term, and of a sum whose square is one term
    for text, base, n in (("2*x1", Z4, 2), ("2*x1 + 4", Z8, 4)):
        q = P(text, base)
        assert typed_items(q ** n) == [] == typed_items(reference_pow(q, n))
        assert typed_items(q ** 0) == typed_items(reference_pow(q, 0))
    for base in DIFF_BASES:
        p = random_poly(rng, base, 1, max_terms=4) + MultiPoly.variable(base, 1, 0)
        # zero and constant images, and a wider output ring
        for img in (MultiPoly.zero(base, 2), MultiPoly.const(base, 2, 3)):
            assert typed_items(p.substitute({0: img})) == typed_items(
                reference_substitute(p, {0: img}, 2)
            )
        for _ in range(60):
            nvars = rng.randint(1, 3)
            p = random_poly(rng, base, nvars)
            n = rng.randint(0, 4)
            assert typed_items(p ** n) == typed_items(reference_pow(p, n))
            nvars_out = nvars + rng.choice([0, 0, 1, 2])
            assignment = {}
            for v in range(nvars):
                if rng.random() < 0.6:  # the others stay unassigned
                    k = rng.randint(1, nvars_out)
                    assignment[v] = random_poly(rng, base, k, rng.choice([0, 1, 3]), 2)
            got = p.substitute(assignment, nvars_out)
            assert got.nvars == nvars_out
            assert typed_items(got) == typed_items(
                reference_substitute(p, assignment, nvars_out)
            )


def test_substitute_error_branches():
    p = P("x1*x2", Z, 2)
    ident = GroupMatrix.identity(build_root_system("A", 2), Z, 2)
    for target in (p, ident):
        with pytest.raises(BaseMismatch, match="substitution image"):
            target.substitute({0: P("x1", Q)})
        # x2 is unassigned and the output ring has one variable
        with pytest.raises(BaseMismatch, match="x2 has no slot"):
            target.substitute({0: P("x1")}, nvars_out=1)


# -- ring axioms (property tests) --------------------------------------------

BASES = [Z, Q, Z4, Z12, F5, ZHALF]


@st.composite
def poly_triples(draw):
    base = draw(st.sampled_from(BASES))
    nvars = draw(st.integers(1, 2))

    def coeff():
        if base.kind in ("Q", "Zloc"):
            num = draw(st.integers(-6, 6))
            den = 2 ** draw(st.integers(0, 2))
            return Fraction(num, den)
        return draw(st.integers(-9, 9))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            e = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
            terms[e] = coeff()
        return MultiPoly(base, nvars, terms)

    return poly(), poly(), poly()


@settings(max_examples=80, deadline=None)
@given(poly_triples())
def test_ring_axioms(triple):
    p, q, r = triple
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_substitute_is_homomorphism(triple):
    p, q, img = triple
    assignment = {0: img}
    lhs = (p * q).substitute(assignment)
    rhs = p.substitute(assignment) * q.substitute(assignment)
    assert lhs == rhs
    assert (p + q).substitute(assignment) == p.substitute(assignment) + q.substitute(
        assignment
    )


# -- annihilator exponents ----------------------------------------------------


def test_annihilator_mod4():
    assert annihilator_exponent(Z4, 2, 2) == 1


def test_annihilator_domain():
    assert annihilator_exponent(Z, 3, 2) is None


def brute_annihilator(m, d, s, limit=64):
    acc = d % m
    for n in range(limit):
        if acc == 0:
            return n
        acc = acc * s % m
    return None


def test_annihilator_mod12_matches_brute_force():
    # spec example: Z/12, d=3, s=2 -> 2
    assert brute_annihilator(12, 3, 2) == 2
    assert annihilator_exponent(Z12, 3, 2) == 2
    for d in range(12):
        for s in range(12):
            assert annihilator_exponent(Z12, d, s) == brute_annihilator(12, d, s)


# -- valuations ---------------------------------------------------------------


def test_s_valuation():
    assert s_valuation(ZHALF, Fraction(6), 2) == 1
    assert s_valuation(ZHALF, Fraction(3, 8), 2) == -3
    assert s_valuation(Z, 12, 6) == 1
    assert s_valuation(Z, 0, 2) is None
    assert poly_s_valuation(P("2*x1 + 8", ZHALF), 2) == 1
    assert denominator_lcm(P("1/2*x1 + 1/3", Q)) == 6


# -- monic division ------------------------------------------------------------


def test_monic_divrem_simple():
    q, r = monic_divrem(P("x1^2+1"), P("x1"))
    assert q == P("x1") and r == P("1")


def test_monic_divrem_zero():
    q, r = monic_divrem(MultiPoly.zero(Z, 1), P("x1^2+1"))
    assert q.is_zero() and r.is_zero()


def test_monic_divrem_roundtrip_example():
    g, f = P("x1^3+2*x1+1"), P("x1^2+1")
    q, r = monic_divrem(g, f)
    assert q * f + r == g
    assert r.degree_in(0) < f.degree_in(0)
    assert (q, r) == (P("x1"), P("x1+1"))


def test_monic_divrem_rejects_nonmonic():
    with pytest.raises(NotMonic):
        monic_divrem(P("x1"), P("2*x1+1"))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(1, 3), st.data())
def test_monic_divrem_roundtrip_random(dg, df, data):
    g_terms = {
        (k,): data.draw(st.integers(-9, 9), label="g%d" % k) for k in range(dg + 1)
    }
    f_terms = {
        (k,): data.draw(st.integers(-9, 9), label="f%d" % k) for k in range(df)
    }
    f_terms[(df,)] = 1
    g = MultiPoly(Z, 1, g_terms)
    f = MultiPoly(Z, 1, f_terms)
    q, r = monic_divrem(g, f)
    assert q * f + r == g
    assert r.is_zero() or r.degree_in(0) < f.degree_in(0)


# -- conversions -----------------------------------------------------------------


def test_convert_directions():
    p = P("2*x1+6")
    assert convert(p, Q).base == Q
    assert convert(convert(p, Q), Z) == p
    assert convert(p, Z4) == P("2*x1+2", Z4)
    with pytest.raises(BaseMismatch):
        convert(P("1/2*x1", Q), Z)
    with pytest.raises(BaseMismatch):
        convert(P("2*x1", Z4), Z)


def test_convert_localized():
    p = P("1/2*x1 + 3", Q)
    loc = convert(p, ZHALF)
    assert loc.base == ZHALF
    with pytest.raises(BaseMismatch):
        convert(P("1/3*x1", Q), ZHALF)


# -- grammar ----------------------------------------------------------------------


def test_emit_canonical_order():
    p = P("1 + 4*x1^2")
    assert emit_poly(p) == "4*x1^2 + 1"


def test_emit_signs_and_units():
    assert emit_poly(P("x1^2 - 2*x1 + 1")) == "x1^2 - 2*x1 + 1"
    assert emit_poly(P("-x1")) == "-x1"
    assert emit_poly(MultiPoly.zero(Z, 1)) == "0"
    assert emit_poly(P("1/2*x1", Q)) == "1/2*x1"


def test_parse_emit_roundtrip():
    texts = ["4*x1^2 + 1", "x1*x2 - 3", "-x1^3 + 2*x1 - 7"]
    for t in texts:
        p = parse_poly(t, Z, 2)
        assert parse_poly(emit_poly(p), Z, 2) == p


def test_parse_grlex_tie_break():
    p = parse_poly("x2^2 + x1*x2", Z, 2)
    assert emit_poly(p) == "x1*x2 + x2^2"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("x1 +", Z, 1)
    with pytest.raises(ParseError):
        parse_poly("y1", Z, 1)
    with pytest.raises(ParseError):
        parse_poly("x2", Z, 1)
    with pytest.raises(ParseError):
        parse_poly("x1/x1", Q, 1)
    with pytest.raises(ParseError):
        parse_poly("(x1", Z, 1)


def test_parse_mod_base_reduces():
    assert parse_poly("5*x1", Z4, 1) == P("x1", Z4)
    assert parse_poly("1/3", F5, 1) == P("2", F5)  # 3*2 = 6 = 1 mod 5
    # normalize sends 4*x1 to 0 over Z/4; the zero term is dropped
    assert parse_poly("4*x1 + 1", Z4, 1) == P("1", Z4)



# (text, base, emitted text or exception type); "²" is a digit to
# str.isdigit but not an integer literal; nesting deeper than the
# recursive descent can follow is invalid input, not a RecursionError
_PARSE_EDGES = [
    ("", Q, ParseError),
    ("   ", Q, ParseError),
    ("x1 x1", Q, ParseError),
    ("x1^-1", Q, ParseError),
    ("x1^2^2", Q, ParseError),
    ("1/0", Q, ParseError),
    ("1/(x1-x1+2)", Q, "1/2"),
    ("x1 / 2 / 3", Q, "1/6*x1"),
    ("-x1^2", Q, "-x1^2"),
    ("-(x1+1)^3", Q, "-x1^3 - 3*x1^2 - 3*x1 - 1"),
    ("0^0", Q, "1"),
    ("x1^0", Q, "1"),
    ("(x1-x1)^2", Q, "0"),
    ("-2^2", Q, "-4"),
    ("--x1", Q, "x1"),
    ("(2*x1)^3", Q, "8*x1^3"),
    ("x1 - x1 + x1^2", Q, "x1^2"),
    ("1/2", Z, BaseMismatch),
    ("x1²", Z, ParseError),
    pytest.param("(" * 100 + "x1" + ")" * 100, Q, "x1", id="nested-100"),
    pytest.param("(" * 400 + "x1" + ")" * 400, Q, ParseError, id="nested-400"),
]


@pytest.mark.parametrize("text,base,expected", _PARSE_EDGES)
def test_parse_edge_cases(text, base, expected):
    if isinstance(expected, str):
        assert emit_poly(parse_poly(text, base, 1)) == expected
    else:
        with pytest.raises(expected):
            parse_poly(text, base, 1)


@pytest.mark.parametrize(
    "base,kind", [(Q, Fraction), (ZHALF, Fraction), (Z, int), (Z4, int), (F5, int)]
)
def test_parse_coefficient_types(base, kind):
    p = parse_poly("x1^2 - 3*x1*x2 + 4/2", base, 2)
    assert len(p.terms) == 3
    assert all(type(c) is kind for c in p.coefficients())


@pytest.mark.parametrize("base", [Z, Q, Z4, F5, ZHALF], ids=str)
def test_parse_emit_roundtrip_on_group_entries(base):
    from chevelem.factorize import random_elementary_word
    from chevelem.rootdata import build_root_system
    from chevelem.words import ElemWord, eval_word

    scale = {Q: Fraction(2, 3), ZHALF: Fraction(3, 2)}.get(base, 1)
    for kind, rank, seed in (("A", 2, 61), ("C", 2, 62), ("A", 3, 63)):
        rs = build_root_system(kind, rank)
        word = random_elementary_word(rs, seed, 12, nvars=2, base=base)
        word = ElemWord(rs, [(r, a.scale(scale)) for r, a in word.letters])
        for row in eval_word(word, base, 2).entries:
            for p in row:
                assert parse_poly(emit_poly(p), base, 2) == p


def test_parse_long_text_uses_no_polynomial_products(monkeypatch):
    terms = {
        (i, j): Fraction((7 * i - 3 * j) or 5, 1 + (i + j) % 4)
        for i in range(21)
        for j in range(21 - i)
    }
    p = MultiPoly(Q, 2, terms)
    assert len(p.terms) >= 200
    text = emit_poly(p)
    calls = []
    for name in ("__mul__", "__pow__"):
        real = getattr(MultiPoly, name)
        monkeypatch.setattr(
            MultiPoly, name, lambda a, b, real=real, name=name: calls.append(name) or real(a, b)
        )
    assert parse_poly(text, Q, 2) == p
    assert calls == []
