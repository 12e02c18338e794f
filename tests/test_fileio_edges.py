"""Serialization edges: localized bases, fraction literals, guards."""

from fractions import Fraction

import pytest

from chevelem import rootdata
from chevelem.errors import BaseMismatch, NotAUnit, ParseError, SizeMismatch
from chevelem.exactring import BaseRing, MultiPoly, annihilator_exponent, emit_poly, parse_poly
from chevelem.factorize import FactorizationCertificate
from chevelem.fileio import certificate_from_dict, certificate_to_dict, matrix_from_dict
from chevelem.rootdata import GroupMatrix, build_root_system, weyl_and_torus
from chevelem.words import ElemWord, eval_word

Z = BaseRing.integers()
ZHALF = BaseRing.integers_localized(2)
A2 = build_root_system("A", 2)


def certificate_dict(base: str, letters) -> dict:
    """A certificate file whose target and residual are the identity."""
    ident = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    return {
        "group": {"type": "A", "rank": 2},
        "base": base,
        "nvars": 1,
        "target": ident,
        "residual": ident,
        "word": letters,
        "verified": True,
    }


def test_localized_word_file_roundtrip():
    z = MultiPoly.variable(ZHALF, 1, 0)
    w = ElemWord(
        A2,
        [
            ((1, -1, 0), z.scale(Fraction(3, 4))),
            ((0, 1, -1), MultiPoly.const(ZHALF, 1, Fraction(-1, 2))),
        ],
    )
    g = eval_word(w, ZHALF, 1)
    ident = GroupMatrix.identity(A2, ZHALF, 1)
    cert = FactorizationCertificate(target=g, word=w, residual_constant=ident, verified=True)
    d = certificate_to_dict(cert)
    assert d["base"] == "Z[1/2]"
    assert d["word"][0]["arg"] == "3/4*x1"
    again = certificate_from_dict(d)
    assert again.word == w
    assert again.target == g
    assert again.check()


def test_word_file_rejects_wrong_denominator():
    d = certificate_dict("Z[1/2]", [{"root": [1, -1, 0], "arg": "1/3*x1"}])
    with pytest.raises(BaseMismatch):
        certificate_from_dict(d)


def test_word_file_rejects_unknown_root():
    d = certificate_dict("Z", [{"root": [2, -2, 0], "arg": "x1"}])
    with pytest.raises(Exception):
        certificate_from_dict(d)


def test_header_nvars_bound():
    d = {"group": {"type": "A", "rank": 2}, "base": "Z", "nvars": 12, "entries": []}
    with pytest.raises(ParseError):
        matrix_from_dict(d)


@pytest.mark.parametrize("rows", [[[]] * 1001, [["1"]]], ids=["row-length", "row-count"])
def test_header_shape_refused_before_building(rows):
    # a small file cannot make A1000's root system be built
    d = {"group": {"type": "A", "rank": 1000}, "base": "Z", "nvars": 1, "entries": rows}
    with pytest.raises(SizeMismatch, match="expected 1001x1001 matrix"):
        matrix_from_dict(d)
    assert ("A", 1000) not in rootdata._ROOT_SYSTEM_CACHE


def test_unknown_base_string():
    d = {"group": {"type": "A", "rank": 2}, "base": "R", "nvars": 1, "entries": []}
    with pytest.raises(ParseError):
        matrix_from_dict(d)


# past the 4300 digits that str() writes by default
@pytest.mark.parametrize("c", [10**5000, Fraction(1, 10**5000)], ids=["integer", "fraction"])
def test_emit_poly_oversized_coefficient(c):
    with pytest.raises(ParseError):
        emit_poly(MultiPoly.const(BaseRing.rationals(), 1, c))


def test_certificate_to_dict_oversized_letter():
    q = BaseRing.rationals()
    huge = MultiPoly.const(q, 1, Fraction(1, 10**5000))
    word = ElemWord(A2, [((1, -1, 0), huge), ((1, -1, 0), -huge)])
    ident = GroupMatrix.identity(A2, q, 1)
    cert = FactorizationCertificate(target=ident, word=word, residual_constant=ident, verified=True)
    with pytest.raises(ParseError):
        certificate_to_dict(cert)


def test_annihilator_zero_multiplier():
    assert annihilator_exponent(Z, 5, 0) == 1
    assert annihilator_exponent(Z, 0, 0) == 0


def test_torus_with_localized_unit():
    u = MultiPoly.const(ZHALF, 1, Fraction(1, 2))
    w, h = weyl_and_torus(A2, (1, -1, 0), u)
    assert h.entries[0][0] == MultiPoly.const(ZHALF, 1, Fraction(1, 2))
    assert h.entries[1][1] == MultiPoly.const(ZHALF, 1, 2)
    with pytest.raises(NotAUnit):
        weyl_and_torus(A2, (1, -1, 0), MultiPoly.const(ZHALF, 1, Fraction(3)))
    # elements outside the localization are rejected at construction
    with pytest.raises(BaseMismatch):
        MultiPoly.const(ZHALF, 1, Fraction(1, 3))


def test_parse_fraction_literal_and_division():
    p = parse_poly("(3/4)*x1 - 1/2", BaseRing.rationals(), 1)
    assert p.exponent_items() == [((1,), Fraction(3, 4)), ((0,), Fraction(-1, 2))]
