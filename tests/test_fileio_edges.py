"""Serialization edges: localized bases, fraction literals, guards."""

import hashlib
import time
from fractions import Fraction

import pytest

from chevelem import fileio, rootdata
from chevelem.errors import (
    BaseMismatch,
    NotAUnit,
    ParseError,
    RankTooLow,
    SizeMismatch,
    UnsupportedType,
)
from chevelem.cli import cohn_matrix
from chevelem.exactring import (
    MAX_PARSE_PRODUCTS,
    BaseRing,
    MultiPoly,
    annihilator_exponent,
    emit_poly,
    parse_poly,
)
from chevelem.factorize import FactorizationCertificate, factor_polynomial, random_elementary_word
from chevelem.fileio import certificate_from_dict, certificate_to_dict, dumps, matrix_from_dict
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


@pytest.mark.parametrize("nvars", [-1, 10])
def test_header_nvars_outside_0_to_9_refused(nvars):
    # a square matrix of the right size still needs 0..9 variables
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    d = {"group": {"type": "A", "rank": 2}, "base": "Z", "nvars": nvars, "entries": rows}
    with pytest.raises(ParseError) as caught:
        matrix_from_dict(d)
    assert str(caught.value) == "nvars out of the supported range 0..9"


def test_short_row_refused_before_building(monkeypatch):
    # each row is sized with the header, before the root system is built
    built = []
    real = fileio.build_root_system
    monkeypatch.setattr(
        fileio, "build_root_system", lambda *args: built.append(args) or real(*args)
    )
    rows = [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]
    header = {"group": {"type": "A", "rank": 2}, "base": "Z", "nvars": 1}
    for read, key in ((matrix_from_dict, "entries"), (certificate_from_dict, "target")):
        with pytest.raises(SizeMismatch, match="expected 3x3 matrix"):
            read(dict(header, **{key: rows}))
    assert built == []


@pytest.mark.parametrize(
    "rows",
    [[[]] * 1001, [["1"]], "x", ["1"] * 1001],
    ids=["row-length", "row-count", "string", "string-rows"],
)
def test_header_shape_refused_before_building(rows):
    # a small file cannot make A1000's root system be built, as a matrix
    # or as a certificate's target
    header = {"group": {"type": "A", "rank": 1000}, "base": "Z", "nvars": 1}
    for read, key in ((matrix_from_dict, "entries"), (certificate_from_dict, "target")):
        with pytest.raises(SizeMismatch, match="expected 1001x1001 matrix"):
            read(dict(header, **{key: rows}))
    assert ("A", 1000) not in rootdata._ROOT_SYSTEM_CACHE


THREE_ROWS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "kind, rank, error, message",
    [
        ("B", 2, UnsupportedType, "type must be A or C, got 'B'"),
        ("D", 2, UnsupportedType, "type must be A or C, got 'D'"),
        ("A", 1, RankTooLow, "isotropic rank >= 2 required, got rank 1"),
        (["A"], 2, ParseError, "malformed header: unhashable type: 'list'"),
        (["A"], 1, ParseError, "malformed header: unhashable type: 'list'"),
        ("A", True, ParseError, "malformed header: rank and nvars must be integers, got True and 1"),
        ("C", 2, SizeMismatch, "expected 4x4 matrix for RootSystem(C, 2)"),
        ("A", 50, SizeMismatch, "expected 51x51 matrix for RootSystem(A, 50)"),
    ],
    ids=["type-B", "type-D", "rank-1", "list-type", "list-type-rank-1", "bool-rank", "C2-3x3",
         "A50-3x3"],
)
def test_header_refusals_build_nothing(kind, rank, error, message):
    # the type and the size of a header are judged before any root system
    # is built, each refusal with its own class and message
    cached = dict(rootdata._ROOT_SYSTEM_CACHE)
    d = {"group": {"type": kind, "rank": rank}, "base": "Z", "nvars": 1, "entries": THREE_ROWS}
    with pytest.raises(error) as caught:
        matrix_from_dict(d)
    assert str(caught.value) == message
    assert rootdata._ROOT_SYSTEM_CACHE == cached


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


# every base a certificate file can name, with the scale of its odd
# letters: Q and Z[1/2] get denominators, and their even letters keep 1
PIN_BASES = [
    (Z, 1),
    (BaseRing.integers_mod(8), 1),
    (BaseRing.prime_field(5), 1),
    (BaseRing.rationals(), Fraction(2, 3)),
    (ZHALF, Fraction(-3, 2)),
]
# SHA-256 of dumps(certificate_to_dict(cert)) over pinned_certificates()
CERTIFICATE_BYTES_SHA256 = "29b18c9cb64ea6acc3ab62d4db0504f3cf75f4ce6ebf1b0d3613ae6705a0b326"


def pinned_certificates():
    """Seeded certificates of 5-letter A2 and C2 words over every base in
    1 to 3 variables: negative, unit and constant terms, and fractions."""
    c2 = build_root_system("C", 2)
    for base, scale in PIN_BASES:
        for nvars in (1, 2, 3):
            for seed in range(6400, 6404):
                rs = (A2, c2)[seed % 2]
                w = random_elementary_word(rs, seed, 5, nvars, 1, 3, base)
                letters = [(r, a.scale(scale) if i % 2 else a) for i, (r, a) in enumerate(w)]
                w = ElemWord(rs, letters)
                yield FactorizationCertificate(
                    target=eval_word(w, base, nvars),
                    word=w,
                    residual_constant=GroupMatrix.identity(rs, base, nvars),
                    verified=True,
                )


def reference_emit(p: MultiPoly) -> str:
    """emit_poly as a plain formatter: terms by descending total degree,
    then exponents, each coefficient printed through Fraction(c)."""
    pieces = []
    for e, c in sorted(p.exponent_items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        exps = enumerate(e, 1)
        mono = "*".join("x%d" % i if k == 1 else "x%d^%d" % (i, k) for i, k in exps if k)
        q = abs(Fraction(c))
        body = str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
        if mono:
            body = mono if q == 1 else "%s*%s" % (body, mono)
        if pieces:
            pieces.append(("- " if c < 0 else "+ ") + body)
        else:
            pieces.append("-" + body if c < 0 else body)
    return " ".join(pieces) or "0"


def pinned_polys():
    for cert in pinned_certificates():
        yield from (p for row in cert.target.entries for p in row)
        yield from (a for _, a in cert.word.letters)


def test_certificate_bytes_pinned_on_every_base():
    digest = hashlib.sha256()
    for cert in pinned_certificates():
        digest.update(dumps(certificate_to_dict(cert)).encode())
    assert digest.hexdigest() == CERTIFICATE_BYTES_SHA256


def test_emit_poly_matches_reference_formatter():
    polys = list(pinned_polys())
    for p in polys:
        assert emit_poly(p) == reference_emit(p)
    # the corpus has every kind of term the formatter distinguishes
    coeffs = [c for p in polys for c in p.coefficients()]
    assert any(c < 0 for c in coeffs) and 1 in coeffs and -1 in coeffs
    assert any(p.is_constant() and not p.is_zero() for p in polys)
    assert any(type(c) is Fraction and c.denominator > 1 for c in coeffs)
    assert any(type(c) is Fraction and c.denominator == 1 for c in coeffs)


def test_certificate_reader_bounds_the_products_of_one_file():
    # each argument, 330 factors (1+x1), stays under the bound on its own,
    # but the eight of the Cohn certificate pass it together: the reader
    # counts them per file and refuses the file at once
    text = "*".join(["(1+x1)"] * 330)
    assert parse_poly(text, Z, 1).degree_in(0) == 330
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    assert len(data["word"]) == 8
    for rec in data["word"]:
        rec["arg"] = text
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds %d monomial products" % MAX_PARSE_PRODUCTS):
        certificate_from_dict(data)
    assert time.perf_counter() - start < 0.5
    matrix = {k: data[k] for k in ("group", "base", "nvars")}
    matrix["entries"] = [[text] * 3 for _ in range(3)]
    with pytest.raises(ParseError, match="exceeds %d monomial products" % MAX_PARSE_PRODUCTS):
        matrix_from_dict(matrix)


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
