"""Ring arithmetic, substitution, annihilators, grammar."""

import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chevelem.errors import (
    BaseMismatch,
    DegreeOverflow,
    ParseError,
)
from chevelem.exactring import (
    MAX_DEGREE,
    MAX_PARSE_PRODUCTS,
    BaseRing,
    MultiPoly,
    _coerced,
    _is_prime,
    _over_one_den,
    _parse_general,
    _SHORT_TEXT,
    _poly,
    _read_canonical,
    _read_short,
    add_product,
    annihilator_exponent,
    base_ring_from_str,
    clearing_exponent,
    coeff_bits,
    convert,
    emit_poly,
    leading_term_division,
    parse_poly,
    poly_s_valuation,
    size_change,
    sum_of_products,
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


def test_prime_test_matches_trial_division():
    def trial(p):
        return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(5000) if _is_prime(p)] == [p for p in range(5000) if trial(p)]


def test_prime_field_refuses_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError, match="prime modulus"):
            BaseRing.prime_field(n)


def test_prime_field_of_a_large_prime_is_fast():
    start = time.perf_counter()
    assert BaseRing.prime_field(2**61 - 1).modulus == 2**61 - 1
    assert time.perf_counter() - start < 0.5


def test_prime_field_capped_below_2_64():
    assert BaseRing.prime_field(2**64 - 59).modulus == 2**64 - 59  # the largest prime below
    with pytest.raises(ValueError, match="below 2\\^64"):
        BaseRing.prime_field(2**64 + 13)


def test_base_ring_str_roundtrip():
    for b in (Z, Q, Z12, F5, ZHALF):
        assert base_ring_from_str(str(b)) == b


def test_base_ring_text_read_once_and_shared():
    # every file naming a base shares one BaseRing, so a short-text memo
    # hit and a fresh read of that file compare bases by identity
    _read_short.cache_clear()
    for text in ("Z", "Q", "Z/12", "F5", "Z[1/2]"):
        base = base_ring_from_str(text)
        assert base_ring_from_str(text) is base
        for _ in range(2):  # a cold read, then a memo hit
            assert parse_poly("1", base_ring_from_str(text), 1).base is base
    for _ in range(2):  # a refusal is not memoised
        with pytest.raises(ValueError, match="prime"):
            base_ring_from_str("F6")


def test_localized_units():
    assert ZHALF.is_unit(Fraction(4))
    assert ZHALF.is_unit(Fraction(-1, 8))
    assert not ZHALF.is_unit(Fraction(3))
    assert ZHALF.unit_inverse(Fraction(4)) == Fraction(1, 4)


@pytest.mark.parametrize(
    "base, unit, inverse",
    [(Z, -1, -1), (Z, Fraction(-1), -1), (Z12, 5, 5), (Z12, Fraction(1, 5), 5),
     (F5, 3, 2), (F5, Fraction(1, 3), 3), (Q, 4, Fraction(1, 4)),
     (Q, Fraction(-2, 3), Fraction(-3, 2)), (ZHALF, 4, Fraction(1, 4)),
     (ZHALF, Fraction(-1, 8), Fraction(-8))],
    ids=["%s-%s" % (b, kind) for b in ("Z", "Z12", "F5", "Q", "Z[1/2]") for kind in ("int", "Fraction")],
)
def test_unit_inverse_of_an_int_or_a_fraction(base, unit, inverse):
    # the inverse is an element of the ring, whatever type the unit came in
    got = base.unit_inverse(unit)
    assert got == inverse and type(got) is type(base.one())
    assert base.normalize(unit * got) == base.one()


def test_localized_at_s():
    # Z and Z[1/t] gain s, Q and F_p keep their ring where s is nonzero
    for base, s, out in ((Z, 2, ZHALF), (ZHALF, 3, BaseRing.integers_localized(6)),
                         (Q, 5, Q), (F5, 3, F5)):
        assert base.localized(s) == out
    for base, s, message in ((F5, 10, "cannot invert 0 in F5"),
                             (BaseRing.integers_mod(6), 2, "no localization of Z/6 at 2 here")):
        with pytest.raises(BaseMismatch) as caught:
            base.localized(s)
        assert str(caught.value) == message


def test_normalize_contract():
    # one coercion: ints and exact rationals become the ring's own elements
    for base, elem in ((Z, int), (Z12, int), (F5, int), (Q, Fraction), (ZHALF, Fraction)):
        for c in (0, 1, -3, 7, Fraction(6, 2)):
            assert type(base.normalize(c)) is elem
        assert type(base.one()) is elem
        assert type(MultiPoly.const(base, 1, 3).constant_term()) is elem
        assert type(MultiPoly(base, 1, {(1,): 3}).coefficient((1,))) is elem
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


@pytest.mark.parametrize("base", [Z, Q, Z4, F5, ZHALF], ids=str)
def test_normalize_refuses_strings_and_bools(base):
    for c in ("3", "1/3", True, False):
        with pytest.raises(TypeError):
            base.normalize(c)
        with pytest.raises(TypeError):
            MultiPoly.const(base, 1, c)


def test_normalize_keeps_float_behaviour():
    # floats still go through Fraction: exact values pass, others mismatch
    assert Z.normalize(2.0) == 2 and type(Z.normalize(2.0)) is int
    assert Q.normalize(0.5) == Fraction(1, 2)
    with pytest.raises(BaseMismatch):
        Z.normalize(2.9)


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
        if v not in images:  # a dropped variable is always assigned
            images[v] = MultiPoly.variable(base, nvars_out, v)
    out = MultiPoly.zero(base, nvars_out)
    for exps, c in p.exponent_items():
        term = MultiPoly.const(base, nvars_out, 1)
        for v, e in enumerate(exps):
            if e:
                term = term * reference_pow(images[v], e)
        out = out + term * MultiPoly.const(base, nvars_out, c)
    return out


def typed_items(p):
    """Terms in insertion order, with each coefficient's type: packed keys
    for a reader's dict, exponent tuples for a polynomial."""
    items = p.items() if isinstance(p, dict) else p.exponent_items()
    return [(e, c, type(c)) for e, c in items]


def exponents(p):
    """The exponent tuples of p's terms, in insertion order."""
    return [e for e, _ in p.exponent_items()]


def evaluate(p, point):
    """p at an integer point in plain base-ring arithmetic, not the term kernel."""
    m = p.base.modulus
    total = 0
    for exps, c in p.exponent_items():
        for x, e in zip(point, exps):
            c *= x ** e if m is None else pow(x, e, m)
        total += c
    return total if m is None else total % m


def power(base, v, n):
    return v ** n if base.modulus is None else pow(v, n, base.modulus)


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


def test_random_matches_the_constructor():
    # random builds its packed terms directly; from the same draws the
    # constructor must give the same terms over the same den
    for base in DIFF_BASES:
        rng, twin = random.Random(5), random.Random(5)
        for _ in range(20):
            p = MultiPoly.random(rng, base, 2, 4, 3, 9)
            terms: dict = {}
            for _ in range(twin.randint(1, 4)):
                e = tuple(twin.randint(0, 3) for _ in range(2))
                c = twin.randint(-9, 9)
                if c:
                    terms[e] = terms.get(e, 0) + c
            q = MultiPoly(base, 2, terms)
            assert (p.terms, p.den) == (q.terms, q.den)


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
            # the references above share the term kernel; values at
            # integer points do not
            for _ in range(3):
                point = [rng.randint(-3, 3) for _ in range(nvars_out)]
                assert evaluate(p ** n, point) == power(base, evaluate(p, point), n)
                inner = [
                    evaluate(assignment[v], point) if v in assignment else point[v]
                    for v in range(nvars)
                ]
                assert evaluate(got, point) == evaluate(p, inner)
    # a narrower output ring: nvars_out drops the trailing variables,
    # each of which is assigned, and the kept ones may be too
    for base in DIFF_BASES:
        for _ in range(30):
            nvars = rng.randint(2, 4)
            nvars_out = rng.randint(1, nvars - 1)
            p = random_poly(rng, base, nvars)
            assignment = {
                v: random_poly(rng, base, rng.randint(1, nvars_out), rng.choice([0, 1, 3]), 2)
                for v in range(nvars)
                if v >= nvars_out or rng.random() < 0.5
            }
            got = p.substitute(assignment, nvars_out)
            assert got.nvars == nvars_out
            assert typed_items(got) == typed_items(
                reference_substitute(p, assignment, nvars_out)
            )
            point = [rng.randint(-3, 3) for _ in range(nvars_out)]
            inner = [
                evaluate(assignment[v], point) if v in assignment else point[v]
                for v in range(nvars)
            ]
            assert evaluate(got, point) == evaluate(p, inner)


@pytest.mark.parametrize("base", [Z, Z8, Z12, F5, Q, ZHALF], ids=str)
def test_dilate_matches_substitute(base):
    # the term map against the general substitution x_var -> c * x_var,
    # term order and coefficient types included
    rng = random.Random(4326)
    scalars = [0, 1, -1, 2] + ([Fraction(3, 2)] if base.kind in ("Q", "Zloc") else [])
    for nvars in (1, 2, 3):
        for _ in range(8):
            p = random_poly(rng, base, nvars, max_terms=6)
            for var in {0, nvars - 1}:
                x = MultiPoly.variable(base, nvars, var)
                for c in scalars:
                    ref = p.substitute({var: x.scale(c)}, nvars)
                    assert typed_items(p.dilate(var, c)) == typed_items(ref)
    if base == Z8:  # 2^3 = 0: the x1^3 term vanishes, 4*x1 becomes 0 too
        p = P("x1^3 + 4*x1 + 3", Z8)
        assert p.dilate(0, 2) == P("3", Z8) == p.substitute({0: P("2*x1", Z8)})


@pytest.mark.parametrize("base", [Z, Q, Z4, Z12, F5, ZHALF], ids=str)
def test_unit_shortcuts_match_the_general_path(base):
    # scale by 1 and -1 and the first power skip the term work; each
    # agrees with a path that does it, term order and coefficient types
    # included (dilate by 0 and 1: test_dilate_matches_substitute)
    rng = random.Random("shortcuts-%s" % base)
    elem = type(base.one())

    def scaled(p, c):  # the loop of scale, by hand
        c = base.normalize(c)
        return MultiPoly(base, p.nvars, {e: c0 * c for e, c0 in p.exponent_items()})

    for nvars in (1, 2, 3):
        for _ in range(8):
            p = random_poly(rng, base, nvars, max_terms=6)
            got = [p.scale(1), p.scale(-1), p ** 1]
            assert typed_items(got[0]) == typed_items(scaled(p, 1))
            assert typed_items(got[1]) == typed_items(scaled(p, -1))
            assert typed_items(got[2]) == typed_items(reference_pow(p, 1))
            assert all(type(c) is elem for q in got for c in q.coefficients())


def test_dilate_rejects_variable_out_of_range():
    p = P("x1*x2 + 1", Z, 2)
    ident = GroupMatrix.identity(build_root_system("A", 2), Z, 2)
    for target in (p, ident):
        for var in (-1, 2):
            for c in (3, 0, 1):
                with pytest.raises(ValueError):
                    target.dilate(var, c)
        # in range, x -> 1 * x is the identity map
        assert target.dilate(1, 1) is target


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
    # a constant's valuation is its coefficient's
    assert poly_s_valuation(P("6", ZHALF), 2) == 1
    assert poly_s_valuation(P("3/8", ZHALF), 2) == -3
    assert poly_s_valuation(P("12", Z), 6) == 1
    assert poly_s_valuation(P("0", Z), 2) is None
    assert poly_s_valuation(P("2*x1 + 8", ZHALF), 2) == 1
    # s = +-1 divides everything: no valuation loop runs
    assert poly_s_valuation(P("6", Z), 1) == poly_s_valuation(P("3/8", ZHALF), -1) == 0
    assert P("1/2*x1 + 1/3", Q).den == 6


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
    # Z/12 -> Z/4 is a ring map, Z/6 -> Z/4 is not
    assert convert(P("7*x1+5", Z12), Z4) == P("3*x1+1", Z4)
    with pytest.raises(BaseMismatch):
        convert(P("x1", BaseRing.integers_mod(6)), Z4)


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
    # an exponent chain outside the grammar is refused, not read as 3*x1^2
    with pytest.raises(ParseError):
        parse_poly("3*x1x2", Z, 2)


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
    pytest.param("   ", Q, ParseError, id="whitespace-only"),
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
    ("2 * 3", Z, "6"),  # a product, not the sum a sign token would make
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


def general(text, base, nvars):
    """parse_poly with the canonical reader left out."""
    terms = _coerced(_parse_general(text, nvars), base)
    if base.fractional:
        return _poly(base, nvars, *_over_one_den(terms, base))
    return _poly(base, nvars, terms)


def outcome(parse, text, base, nvars):
    """The polynomial's typed terms, or the exception type (and, for
    ParseError, its message)."""
    try:
        return typed_items(parse(text, base, nvars))
    except ParseError as exc:
        return ParseError, str(exc)
    except Exception as exc:  # the type is the contract
        return type(exc)


# The reference grammar of emit_poly's output, the oracle for the reader
# that checks it piece by piece: an optional leading "-", then monomials
# joined by " + " / " - ", each n, n/d, n*X, n/d*X or X, where X is x_i
# or x_i^k factors joined by "*".
_VARS = r"x[1-9](?:\^[0-9]+)?(?:\*x[1-9](?:\^[0-9]+)?)*"
_MONO = r"(?:[0-9]+(?:/[1-9][0-9]*)?(?:\*%s)?|%s)" % (_VARS, _VARS)
_CANONICAL = re.compile(r"-?%s(?: [-+] %s)*" % (_MONO, _MONO))


def check_against_oracle(text, base, nvars):
    """The canonical reader accepts text exactly when the oracle grammar
    matches it and the general reader can read it (a variable beyond
    nvars or a degree past the cap leaves the refusal to the general
    reader), and parse_poly gives the general reader's outcome."""
    try:
        _parse_general(text, nvars)
        readable = True
    except (ParseError, DegreeOverflow):
        readable = False
    accepted = _read_canonical(text, nvars) is not None
    assert accepted == (bool(_CANONICAL.fullmatch(text)) and readable), text
    expected = outcome(general, text, base, nvars)
    _read_short.cache_clear()  # read cold, then (a short text accepted) as a memo hit
    for _ in range(2):
        assert outcome(parse_poly, text, base, nvars) == expected
    if accepted and len(text) <= _SHORT_TEXT and isinstance(expected, list):
        assert parse_poly(text, base, nvars) is parse_poly(text, base, nvars), text


def test_canonical_reader_matches_general_parser():
    rng = random.Random(20181210)
    bases = [Z, Q, Z4, BaseRing.integers_mod(6), F5, ZHALF, BaseRing.integers_localized(6)]
    # the grammar's characters, and near misses: a character no reader
    # takes, characters str.isdigit or int() take that the grammar does
    # not, a tab, a variable past nvars
    alphabet = list("0123456789x^*/+- ()") + ["&", "_", "\u00b2", "\u0663", "\t", "x9"]
    for base in bases:
        for _ in range(40):
            nvars = rng.randint(1, 3)
            text = emit_poly(random_poly(rng, base, nvars))
            assert _CANONICAL.fullmatch(text), text
            # a sum of two emitted texts repeats exponents, so terms cancel
            more = emit_poly(random_poly(rng, base, nvars))
            joined = text + (" - " + more[1:] if more[0] == "-" else " + " + more)
            for t in (text, joined):
                assert _CANONICAL.fullmatch(t), t
                assert typed_items(_read_canonical(t, nvars)) == typed_items(
                    _parse_general(t, nvars)
                )
                check_against_oracle(t, base, nvars)
            # fail-closed: one edited character leaves both readers agreeing
            for _ in range(5):
                i = rng.randrange(len(text) + 1)
                edit = rng.choice(alphabet)
                for t in (text[:i] + edit + text[i:], text[:i] + edit + text[i + 1 :]):
                    check_against_oracle(t, base, nvars)
    # near-canonical text: valid, invalid, and canonical but out of range
    cases = [("- 3", Z, 1), ("x1  + 1", Z, 1), ("2 * 3", Z, 1), ("3*x1x2", Z, 2)] + [
        (t, Q, 1)
        for t in ("", "-", "1/0", "1/00", "3 -", "3*", "x1^", "x1^2^2", "x0", "1_0", "\u0663")
    ]
    for text, base, nvars in cases:
        assert not _CANONICAL.fullmatch(text)
        check_against_oracle(text, base, nvars)
    assert outcome(parse_poly, "- 3", Z, 1) == [((0,), -3, int)]
    for text, base in (("x2", Q), ("1/2", Z)):
        assert _CANONICAL.fullmatch(text)
        check_against_oracle(text, base, 1)
    assert outcome(parse_poly, "x2", Q, 1) == (ParseError, "variable x2 beyond declared nvars=1")
    assert outcome(parse_poly, "1/2", Z, 1) is BaseMismatch
    # past the cap the canonical reader leaves the refusal to parse_poly's general route
    past_cap = "x1^%d" % (MAX_DEGREE + 1)
    assert _CANONICAL.fullmatch(past_cap) and _read_canonical(past_cap, 1) is None
    assert outcome(parse_poly, past_cap, Q, 1)[0] is ParseError


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


def test_general_reader_refuses_a_product_past_the_bound():
    # (1+x1+x2)^500 would square a 33153-term power; the reader stops at
    # the first product past the bound, in milliseconds
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds %d monomial products" % MAX_PARSE_PRODUCTS):
        parse_poly("(1+x1+x2)^500", Z, 2)
    with pytest.raises(ParseError, match="monomial products"):
        parse_poly("(1+x1+x2)^24*(1+x1+x2)^24", Z, 2)
    assert time.perf_counter() - start < 1.0
    # a power of one term and a small sum still read at once
    assert exponents(parse_poly("x1^1000000", Z, 1)) == [(1000000,)]
    assert parse_poly("-(x1+1)^3", Z, 1) == P("-x1^3 - 3*x1^2 - 3*x1 - 1")
    assert len(parse_poly("(1+x1+x2)^23*(1+x1+x2)^23", Z, 2).terms) == 1128


def test_general_reader_bounds_the_products_of_one_text():
    # 2000 factors (1+x1) make no product past the bound on its own, but
    # some four million monomial products together; the reader counts them
    # per text and stops at the bound, so the refusal comes at once
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds %d monomial products" % MAX_PARSE_PRODUCTS):
        parse_poly("*".join(["(1+x1)"] * 2000), Z, 1)
    assert time.perf_counter() - start < 0.5
    assert parse_poly("*".join(["(1+x1)"] * 300), Z, 1).degree_in(0) == 300


@pytest.mark.parametrize(
    "nvars,terms",
    [
        (1, {(-1,): 3}),
        (1, {(1.5,): 2}),
        (1, {(True,): 1}),
        (1, {("1",): 1}),
        (1, {(1, 2): 1}),
        (2, {(1,): 0}),
        (2, {(0, -1): 0}),
    ],
    ids=["negative", "float", "bool", "string", "too-long", "short-zero", "negative-zero"],
)
def test_tuple_constructor_validates_every_key(nvars, terms):
    # every key is checked, also one whose coefficient is zero
    with pytest.raises(ValueError, match="exponent tuple"):
        MultiPoly(Z, nvars, terms)


def test_degree_cap_pinned():
    # one field width for every key: x1^1000000 fits, 2^20 does not
    assert MAX_DEGREE == 2**20 - 1
    top = MultiPoly(Z, 2, {(MAX_DEGREE - 1, 1): 1})
    assert top.total_degree() == MAX_DEGREE and top.degree_in(1) == 1
    assert exponents(MultiPoly(Z, 2, {(0, MAX_DEGREE): 3})) == [(0, MAX_DEGREE)]
    x1, x2 = MultiPoly.variable(Z, 2, 0), MultiPoly.variable(Z, 2, 1)
    with pytest.raises(DegreeOverflow, match="exceeds the cap %d" % MAX_DEGREE):
        MultiPoly(Z, 2, {(MAX_DEGREE, 1): 1})
    with pytest.raises(DegreeOverflow):
        MultiPoly(Z, 1, {(2**100,): 0})  # checked even when the term is dropped
    for cross in (
        lambda: top * x1,
        lambda: top * (x1 + x2),
        lambda: add_product(x1, top, x2),
        lambda: x1 ** (MAX_DEGREE + 1),
        lambda: x1 ** 2**100,
        lambda: MultiPoly(Z, 1, {(2**19,): 1, (0,): 1}) ** 2,
        lambda: top.substitute({1: x1 * x2}),
    ):
        with pytest.raises(DegreeOverflow):
            cross()
    assert (x1 ** (MAX_DEGREE - 1) * x2).exponent_items() == [((MAX_DEGREE - 1, 1), 1)]


def test_substitute_bound_past_the_cap_checks_each_product():
    # deg(p) times the largest image degree passes the cap, so each term's
    # product is checked on its own: only a term that crosses the cap raises
    x1, x2 = MultiPoly.variable(Z, 2, 0), MultiPoly.variable(Z, 2, 1)
    p = x1**600000 * x2 + x2
    assert p.substitute({1: x2**2}) == x1**600000 * x2**2 + x2**2
    with pytest.raises(DegreeOverflow, match="exceeds the cap %d" % MAX_DEGREE):
        p.substitute({1: x1**600000})


def test_division_guard_bits_at_the_cap():
    # a quotient exponent below zero borrows from the field above and sets
    # its guard bit, also when the fields below the cap are full
    top = MultiPoly(Z, 2, {(MAX_DEGREE - 1, 1): 1})
    for divisor, quotient in (
        ({(0, 2): 1}, None),
        ({(MAX_DEGREE, 0): 1}, None),
        ({(1, 0): 1}, (MAX_DEGREE - 2, 1)),
        ({(0, 1): 1}, (MAX_DEGREE - 1, 0)),
        ({(MAX_DEGREE - 1, 1): 1}, (0, 0)),
    ):
        partial, exact, _ = leading_term_division(top, MultiPoly(Z, 2, divisor))
        if quotient is None:
            assert partial.is_zero() and exact is None
        else:
            assert exponents(exact) == [quotient]


def test_text_past_the_degree_cap_is_a_parse_error():
    assert exponents(parse_poly("x1^%d" % MAX_DEGREE, Z, 1)) == [(MAX_DEGREE,)]
    for text in (
        "x1^%d" % (MAX_DEGREE + 1),  # canonical, one chain
        "x1^%d*x2" % MAX_DEGREE,  # canonical, a chain of two factors
        "x1^99999999999999999999",
        "(x1^%d)*x2" % MAX_DEGREE,  # general reader, a product
        "(x1^%d)^2" % (2**19),  # general reader, a power of one term
        "(x1^%d + 1)^2" % (2**19),  # general reader, a power of a sum
    ):
        with pytest.raises(ParseError, match="degree cap"):
            parse_poly(text, Q, 2)


def test_one_term_power_past_the_cap_names_its_degree():
    # the top variable's field times n would carry into the degree field,
    # so the degree is checked before the key is multiplied
    with pytest.raises(ParseError, match="total degree 10185762 exceeds"):
        parse_poly("x1^10185762", Q, 1)
    with pytest.raises(DegreeOverflow, match="total degree 3000000 exceeds"):
        MultiPoly.variable(Z, 1, 0) ** 3000000


def test_reader_memo_keys_on_nvars():
    # one chain read under two variable counts gives tuples of each length
    assert exponents(parse_poly("x1^3*x2", Z, 2)) == [(3, 1)]
    assert exponents(parse_poly("x1^3*x2", Z, 3)) == [(3, 1, 0)]
    assert exponents(parse_poly("2*x1^3*x2", Q, 2)) == [(3, 1)]


def test_reader_raises_again_on_a_chain_it_refused():
    # exceptions are not memoised: the same text fails the same way twice
    for _ in range(2):
        with pytest.raises(ParseError, match="variable x2 beyond declared nvars=1"):
            parse_poly("x2", Z, 1)
        with pytest.raises(ParseError, match="variable x3 beyond declared nvars=2"):
            parse_poly("0*x1*x3", Z, 2)


def test_short_text_memo_keys_on_base():
    # "3" over Z/2 is 1; the memo must not serve that to a read over Z
    _read_short.cache_clear()
    assert typed_items(parse_poly("3", BaseRing.integers_mod(2), 1)) == [((0,), 1, int)]
    assert typed_items(parse_poly("3", Z, 1)) == [((0,), 3, int)]


def test_short_text_memo_keys_on_nvars():
    _read_short.cache_clear()
    assert exponents(parse_poly("x1", Z, 1)) == [(1,)]
    assert exponents(parse_poly("x1", Z, 2)) == [(1, 0)]
    assert parse_poly("x1", Z, 2).nvars == 2


@pytest.mark.parametrize("base", [Z, Q, Z4, ZHALF], ids=str)
def test_short_text_memo_hit_is_never_mutated(base):
    from chevelem.factorize import _OpRecorder
    from chevelem.words import ElemWord, eval_word

    a2 = build_root_system("A", 2)
    texts = [["1", "x1", "0"], ["0", "1", "0"], ["2*x1^2", "x1 + 1", "1"]]
    _read_short.cache_clear()
    rows = [[parse_poly(t, base, 1) for t in row] for row in texts]
    kept = [[(p, dict(p.terms), p.den) for p in row] for row in rows]
    for row, text_row in zip(rows, texts):  # each re-read is a memo hit
        assert all(parse_poly(t, base, 1) is p for t, p in zip(text_row, row))
    x, one = rows[0][1], rows[0][0]
    word = ElemWord(a2, [((1, -1, 0), x), ((0, 1, -1), rows[2][1]), ((1, 0, -1), x)])
    eval_word(word, onto=GroupMatrix(a2, rows))
    for p in (x, one, rows[2][0]):
        x + p, p + x, x * p, p * x, -p, p**2
    convert(x, {Z: Q, Q: ZHALF, Z4: BaseRing.integers_mod(2), ZHALF: Q}[base])
    rec = _OpRecorder(a2, rows, one)
    rec.move((1, -1, 0), x, "left")
    rec.move((0, 1, -1), rows[2][0], "right")
    for row, text_row, kept_row in zip(rows, texts, kept):
        for t, (p, terms, den) in zip(text_row, kept_row):
            again = parse_poly(t, base, 1)
            assert again is p and again.terms == terms and again.den == den
            assert again == general(t, base, 1)


def test_short_text_memo_is_bounded():
    _read_short.cache_clear()
    for i in range(3000):
        assert parse_poly("%d*x1" % i, Z, 1).exponent_items() == ([((1,), i)] if i else [])
    assert _read_short.cache_info().currsize <= 1024


def test_reader_over_z_keeps_ints_and_refuses_fractions():
    p = parse_poly("x1^2*x2 - 3*x2 + 4", Z, 2)
    assert typed_items(p) == [((2, 1), 1, int), ((0, 1), -3, int), ((0, 0), 4, int)]
    assert typed_items(parse_poly("4/2*x1 + 1", Z, 1)) == [((1,), 2, int), ((0,), 1, int)]
    assert typed_items(parse_poly("(x1 + 1)^2 - 1", Z, 1)) == [((2,), 1, int), ((1,), 2, int)]
    for text in ("1/2", "x1 + 1/2"):
        with pytest.raises(BaseMismatch):
            parse_poly(text, Z, 1)


@pytest.mark.parametrize("base", [Z, Q, ZHALF], ids=str)
def test_reader_two_variable_roundtrip(base):
    text = "-x1*x2^3 + 3*x1^2*x2 + x1^2 - 7*x2 + 5"
    p = parse_poly(text, base, 2)
    assert emit_poly(p) == text
    assert parse_poly(emit_poly(p), base, 2) == p
    assert emit_poly(parse_poly("3*x1^2*x2 + x1^2 - x1*x2^3 + 5 - 7*x2", base, 2)) == text


@pytest.mark.parametrize("base", [Z, Z4, F5, Q, ZHALF], ids=str)
def test_size_change_matches_the_applied_product(base):
    # the greedy's scoring kernel against the line it scores: p + sign*a*b
    # built by add_product and sized whole, under every weighting and both
    # readings of minus_one; zero operands, cancelling products and a
    # constant term that lands on exactly 1 are drawn on purpose
    rng = random.Random(23)
    checked = 0
    for nvars in (1, 2, 3):
        one = MultiPoly.const(base, nvars, 1)
        for _ in range(30):
            p, a, b = (random_poly(rng, base, nvars, max_terms=4) for _ in range(3))
            zero = MultiPoly.zero(base, nvars)
            cases = [(p, a, b), (p, zero, b), (p, a, zero), (zero, a, b)]
            cases.append((a * b + p, a, b))  # sign -1 cancels back to p
            cases.append((-(a * b), a, b))  # sign 1 cancels every term
            cases.append((one + a * b, a, b))  # sign -1 leaves exactly 1
            for q, x, y in cases:
                for sign in (1, -1):
                    line = add_product(q, x if sign == 1 else -x, y)
                    for degw, bitw in ((1, 1), (3, 0), (0, 1), (2, 5)):
                        for minus_one in (False, True):
                            want = line.weighted_size(degw, bitw, minus_one)
                            want -= q.weighted_size(degw, bitw, minus_one)
                            assert size_change(q, x, y, sign, degw, bitw, minus_one) == want
                            checked += 1
    assert checked == 3 * 30 * 7 * 2 * 4 * 2
    # a diagonal 3 + x1 that the move takes to 1 + x1 sheds its constant
    # term, which was sized as 3 - 1 = 2: one term plus 3 bits
    x1 = MultiPoly.variable(base, 1, 0)
    three, two, unit = (MultiPoly.const(base, 1, c) for c in (3, 2, 1))
    assert size_change(three + x1, two, unit, -1, 1, 1, True) == -(1 + 3)


@pytest.mark.parametrize("sign", [1, -1])
def test_size_change_past_the_degree_cap(sign):
    # the kernel checks the cap as add_product does, before sizing anything
    x1, x2 = MultiPoly.variable(Z, 2, 0), MultiPoly.variable(Z, 2, 1)
    top = MultiPoly(Z, 2, {(MAX_DEGREE - 1, 1): 1})
    with pytest.raises(DegreeOverflow, match="exceeds the cap %d" % MAX_DEGREE):
        add_product(x1, top, x2)
    for minus_one in (False, True):
        with pytest.raises(DegreeOverflow, match="exceeds the cap %d" % MAX_DEGREE):
            size_change(x1, top, x2, sign, 1, 1, minus_one)
    assert size_change(x1, top, MultiPoly.const(Z, 2, 1), sign, 1, 1) == 1 + MAX_DEGREE**2 + 2


def test_general_reader_bounds_the_bits_of_a_power():
    # a power of one term may not make a coefficient longer than the
    # longest literal the reader takes; it is refused before it is made
    start = time.perf_counter()
    for text in ("(2)^30000000", "(2)^14285", "(3)^9100", "(-1/2)^20000", "(2*x1)^20000"):
        with pytest.raises(ParseError, match="coefficient exceeds 14285 bits"):
            parse_poly(text, Q, 1)
    assert time.perf_counter() - start < 0.5
    assert parse_poly("(2)^100", Z, 1) == MultiPoly.const(Z, 1, 2**100)
    assert parse_poly("(1/3)^50", Q, 1) == MultiPoly.const(Q, 1, Fraction(1, 3**50))
    assert parse_poly("(2)^14284", Z, 1).constant_term() == 2**14284
    assert parse_poly("(-1)^99999999999999999999 + (x1)^3", Z, 1) == P("x1^3 - 1")


def test_general_reader_bounds_the_bits_of_products_of_sums():
    # a power or product of sums is refused before it is made when its
    # coefficients could pass the longest literal; without the bound the
    # first text took seconds and made 127,563-bit coefficients
    big = "9" * 2000
    refused = [
        "(" + "9" * 300 + " + x1)^128",
        "(" + "9" * 1000 + " + x1)^128",
        "(" + "9" * 4000 + " + x1)*(" + "9" * 4000 + " - x1)",
        "(%s + x1)^2*(%s + x1)^2" % (big, big),  # each factor alone reads
        "(1/%s + x1/7)^3" % big,  # the denominators count too
    ]
    start = time.perf_counter()
    for text in refused:
        with pytest.raises(ParseError, match="coefficient exceeds 14285 bits"):
            parse_poly(text, Q, 1)
    assert time.perf_counter() - start < 0.5
    # under the bound the reader multiplies out as MultiPoly does
    assert parse_poly("(%s + x1)^2" % big, Z, 1) == P("%s + x1" % big) ** 2
    assert parse_poly("(%s + x1)^128" % ("9" * 30), Z, 1) == P("9" * 30 + " + x1") ** 128
    want = P("1/3 + x1/7", Q) ** 40 * P("2 - x1", Q)
    assert parse_poly("(1/3 + x1/7)^40*(2 - x1)", Q, 1) == want


# -- Q and Z[1/s] against a plain {exponent tuple: Fraction} reference ------------

ZSIXTH = BaseRing.integers_localized(6)
DENOMINATORS = {Q: range(1, 13), ZHALF: (1, 2, 4, 8), ZSIXTH: (1, 2, 3, 4, 6, 9, 36)}


def frac_poly(rng, base, nvars, max_terms=4, max_deg=2):
    """Up to max_terms terms with numerators in [-9, 9] and denominators
    drawn from DENOMINATORS[base]."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS[base]))
    return MultiPoly(base, nvars, terms)


def ref(p):
    """p as {exponent tuple: Fraction}, read off the public view."""
    out = dict(p.exponent_items())
    assert all(type(c) is Fraction and c for c in out.values())
    return out


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_bits(c):
    return abs(c.numerator).bit_length() + c.denominator.bit_length()


def ref_size(a, nvars, degw, bitw, minus_one):
    if minus_one:
        a = ref_add(a, {(0,) * nvars: Fraction(1)}, -1)
    return sum(1 + degw * sum(e) ** 2 + bitw * ref_bits(c) for e, c in a.items())


def ref_valuation(c, s):
    v, num, e = 0, abs(c.numerator), 0
    while num % s == 0:
        num, v = num // s, v + 1
    while s**e % c.denominator:
        e += 1
    return v - e


def ref_division(a, b, base):
    """Leading-term division run to completion, leading terms in graded
    lex order: (quotient, remainder)."""
    q, r = {}, dict(a)
    lead_b = max(b, key=glex)
    while r:
        lead_r = max(r, key=glex)
        e = tuple(x - y for x, y in zip(lead_r, lead_b))
        c = r[lead_r] / b[lead_b]
        if min(e) < 0 or (base.kind == "Zloc" and not base_has(base, c)):
            break
        q[e] = c
        r = ref_add(r, ref_mul({e: c}, b), -1)
    return q, r


def glex(e):
    return sum(e), e


def base_has(base, c):
    d = c.denominator
    while d > 1 and math.gcd(d, base.param) > 1:
        d //= math.gcd(d, base.param)
    return d == 1


@pytest.mark.parametrize("base", [Q, ZHALF, ZSIXTH], ids=str)
def test_fraction_free_ring_matches_the_reference(base):
    rng = random.Random("fraction-free-%s" % base)
    s = base.param or 6
    for nvars in (1, 2, 3):
        one = {(0,) * nvars: Fraction(1)}
        for _ in range(25):
            p, a, b = (frac_poly(rng, base, nvars) for _ in range(3))
            rp, ra, rb = ref(p), ref(a), ref(b)
            assert ref(a + b) == ref_add(ra, rb)
            assert ref(a - b) == ref_add(ra, rb, -1)
            assert ref(-a) == ref_add({}, ra, -1)
            assert ref(a * b) == ref_mul(ra, rb)
            assert ref(a**3) == ref_pow(ra, 3, nvars)
            c = Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS[base]))
            assert ref(a.scale(c)) == {e: v * c for e, v in ra.items() if v * c}
            var = rng.randrange(nvars)
            for d in (c, 0, 1, s, Fraction(1, s)):
                want = {e: v * Fraction(d) ** e[var] for e, v in ra.items() if v * d ** e[var]}
                assert ref(a.dilate(var, d)) == want
            images = {v: frac_poly(rng, base, nvars, 2) for v in range(nvars) if rng.random() < 0.7}
            want = {}
            for e, v in ra.items():
                term = {tuple(0 if i in images else k for i, k in enumerate(e)): v}
                for i, img in images.items():
                    term = ref_mul(term, ref_pow(ref(img), e[i], nvars))
                want = ref_add(want, term)
            assert ref(a.substitute(images, nvars)) == want
            assert ref(add_product(p, a, b)) == ref_add(rp, ref_mul(ra, rb))
            assert ref(sum_of_products([(a, b), (p, b), (a, p)], base, nvars)) == ref_add(
                ref_add(ref_mul(ra, rb), ref_mul(rp, rb)), ref_mul(rp, ra)
            )
            for sign in (1, -1):
                line = ref_add(rp, ref_mul(ra, rb), sign)
                for minus_one in (False, True):
                    want = ref_size(line, nvars, 2, 3, minus_one)
                    want -= ref_size(rp, nvars, 2, 3, minus_one)
                    assert size_change(p, a, b, sign, 2, 3, minus_one) == want
            for minus_one in (False, True):
                assert p.weighted_size(2, 3, minus_one) == ref_size(rp, nvars, 2, 3, minus_one)
            assert coeff_bits(p) == sum(map(ref_bits, rp.values()))
            if not b.is_zero():
                product = a * b + p
                quotient, remainder = ref_division(ref(product), rb, base)
                partial, exact, first = leading_term_division(product, b, math.inf)
                assert ref(partial) == quotient
                assert (exact is None) == bool(remainder)
                if first is not None:
                    assert type(first[1]) is type(first[2]) is Fraction
            # the text form and the s-valuation helpers
            assert parse_poly(emit_poly(p), base, nvars) == p
            assert p.den == math.lcm(*(c.denominator for c in rp.values()))
            if all(base_has(ZSIXTH, c) for c in rp.values()):
                vals = [ref_valuation(c, s) for c in rp.values()]
                assert poly_s_valuation(p, s) == (min(vals) if vals else None)
                z = rng.randrange(nvars)
                if any(v < 0 and e[z] == 0 for e, v in zip(rp, vals)):
                    assert clearing_exponent(p, z, s) is None
                else:
                    lift = [(-v + e[z] - 1) // e[z] for e, v in zip(rp, vals) if v < 0]
                    assert clearing_exponent(p, z, s) == max(lift, default=0)
            else:
                with pytest.raises(BaseMismatch):  # a denominator s does not support
                    poly_s_valuation(p, s)
            # conversions there and back
            for target in (Q, ZHALF, ZSIXTH, Z, F5, Z4):
                fits = all(target.kind == "Q" or (
                    target.fractional and base_has(target, c)
                ) or (not target.fractional and target.modulus is None and c.denominator == 1) or (
                    target.modulus and math.gcd(c.denominator, target.modulus) == 1
                ) for c in rp.values())
                if not fits:
                    with pytest.raises(BaseMismatch):
                        convert(p, target)
                    continue
                got = convert(p, target)
                assert dict(got.exponent_items()) == {
                    e: v for e, v in ((e, target.normalize(c)) for e, c in rp.items()) if v
                }
                if target.fractional:
                    assert convert(got, base) == p
            assert ref(p * MultiPoly.const(base, nvars, 1)) == ref_mul(rp, one)


@pytest.mark.parametrize("base", [Q, ZHALF, ZSIXTH], ids=str)
def test_one_value_has_one_form(base):
    # the same value built by every route is == and hashes alike:
    # Fraction(4, 2), 2, scale, a product, the reader and convert
    x = MultiPoly.variable(base, 2, 0)
    for value in (Fraction(2), Fraction(1, 2), Fraction(-3, 4)):
        routes = [
            MultiPoly(base, 2, {(1, 0): value}),
            MultiPoly(base, 2, {(1, 0): Fraction(value.numerator * 2, value.denominator * 2)}),
            x.scale(value),
            x.scale(value * 4).scale(Fraction(1, 4)),
            (x * MultiPoly.const(base, 2, value * 2)).scale(Fraction(1, 2)),
            parse_poly("%s*x1" % value, base, 2),
            convert(MultiPoly(Q, 2, {(1, 0): value}), base),
        ]
        if value.denominator == 1:
            n = int(value)
            routes += [MultiPoly(base, 2, {(1, 0): n}), convert(MultiPoly(Z, 2, {(1, 0): n}), base)]
        for p in routes:
            assert p == routes[0] and hash(p) == hash(routes[0])
            assert p.coefficient((1, 0)) == value


@pytest.mark.parametrize("base", [Q, ZHALF, ZSIXTH], ids=str)
def test_accessors_return_fractions(base):
    rng = random.Random("accessors-%s" % base)
    for _ in range(20):
        p = frac_poly(rng, base, 2)
        for c in list(p.coefficients()) + [c for _, c in p.exponent_items()]:
            assert type(c) is Fraction
        assert type(p.constant_term()) is Fraction
        assert type(p.coefficient((2, 2))) is Fraction
        assert type(p.coefficient((7, 7))) is Fraction and p.coefficient((7, 7)) == 0
    assert type(MultiPoly.zero(base, 1).constant_term()) is Fraction
