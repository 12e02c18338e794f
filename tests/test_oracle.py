"""The grid oracle against FactorizationCertificate.check, on factor
certificates and on genuine and mutated verify-style certificates over Z,
F_p, Q and Z[1/2]."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import grid_oracle
from chevelem.cli import cohn_matrix
from chevelem.exactring import BaseRing, MultiPoly
from chevelem.factorize import FactorizationCertificate, factor_polynomial, random_elementary_word
from chevelem.rootdata import GroupMatrix, build_root_system
from chevelem.words import ElemWord, eval_word

Z = BaseRing.integers()


def certificate(target, letters):
    rs = target.rs
    return FactorizationCertificate(
        target=target,
        word=ElemWord(rs, letters),
        residual_constant=GroupMatrix.identity(rs, target.base, target.nvars),
        verified=True,
    )


def factor_corpus():
    yield factor_polynomial(cohn_matrix())
    families = (("A", 2, 1, 8), ("A", 3, 2, 5), ("C", 2, 1, 6), ("A", 2, 2, 6))
    for seed in range(8100, 8103):
        for kind, rank, nvars, length in families:
            rs = build_root_system(kind, rank)
            word = random_elementary_word(rs, seed, length, nvars=nvars)
            yield factor_polynomial(eval_word(word, Z, nvars))


def verify_corpus(base=Z, count=24, lengths=(10, 20, 30), scale=1, seed=8200):
    """Genuine certificates of random words and mutated twins, as the
    verify benchmark makes them: one argument moved by a nonzero constant,
    or one letter dropped.  Each letter is scaled by scale."""
    rng = random.Random(seed)
    groups = (("A", 2), ("A", 3), ("C", 2), ("C", 3))
    for i in range(count):
        rs = build_root_system(*groups[i % 4])
        nvars = 1 + i % 8 // 4
        word = random_elementary_word(
            rs, rng.randrange(1 << 31), lengths[i % len(lengths)], nvars=nvars,
            max_degree=1, coeff_bound=3, base=base,
        )
        letters = [(root, arg.scale(scale)) for root, arg in word.letters]
        target = eval_word(ElemWord(rs, letters), base, nvars)
        genuine = i % 2 == 0
        if not genuine:
            k = rng.randrange(len(letters))
            if rng.random() < 0.5:
                root, arg = letters[k]
                letters[k] = (root, arg + MultiPoly.const(base, nvars, rng.choice((-2, -1, 1, 2))))
            else:
                del letters[k]
        yield certificate(target, letters), genuine


def mutants(cert):
    """One letter dropped, and one coefficient of a letter moved by 1: each
    changes the product."""
    letters = list(cert.word.letters)
    for k in (0, len(letters) // 2, len(letters) - 1):
        yield letters[:k] + letters[k + 1 :]
        root, arg = letters[k]
        items = arg.exponent_items()
        (e, c), *_ = items
        moved = MultiPoly(Z, arg.nvars, {**dict(items), e: c + 1})
        yield letters[:k] + [(root, moved)] + letters[k + 1 :]


def test_oracle_agrees_with_check_on_factor_certificates():
    count = 0
    for cert in factor_corpus():
        assert cert.check() and grid_oracle.check_certificate(cert)
        count += 1
    assert count == 13


def test_oracle_agrees_with_check_on_verify_certificates():
    verdicts = []
    for cert, genuine in verify_corpus():
        verdict = cert.check()
        assert verdict == genuine
        assert grid_oracle.check_certificate(cert) == verdict
        verdicts.append(verdict)
    assert verdicts.count(True) == verdicts.count(False) == 12


@pytest.mark.parametrize(
    "base, lengths, scale",
    [
        (BaseRing.prime_field(5), (2, 3), 1),
        (BaseRing.prime_field(101), (10, 20), 1),
        (BaseRing.rationals(), (10, 20), Fraction(2, 3)),
        (BaseRing.integers_localized(2), (10, 20), Fraction(3, 4)),
    ],
    ids=["F5", "F101", "Q", "Z[1/2]"],
)
def test_oracle_agrees_with_check_beyond_z(base, lengths, scale):
    # the product kernel against arithmetic it does not share, on every
    # base where a grid decides: F_p with p above every degree bound, Q
    # and Z[1/2] with coefficients that are not integers
    verdicts = []
    for cert, genuine in verify_corpus(base, 12, lengths, scale, seed=8300):
        verdict = cert.check()
        assert verdict == genuine
        assert grid_oracle.check_certificate(cert) == verdict
        verdicts.append(verdict)
    assert verdicts.count(True) == verdicts.count(False) == 6


def test_oracle_refuses_where_no_grid_decides():
    f5 = BaseRing.prime_field(5)
    (cert, _), *_ = verify_corpus(f5, 1, (30,), seed=8400)
    with pytest.raises(ValueError, match="not F5"):
        grid_oracle.check_certificate(cert)
    z8 = BaseRing.integers_mod(8)
    (cert, _), *_ = verify_corpus(z8, 1, (2,), seed=8400)
    with pytest.raises(ValueError, match="refuses Z/8"):
        grid_oracle.check_certificate(cert)


def test_oracle_rejects_mutants():
    count = 0
    for cert in list(factor_corpus())[:5]:
        for letters in mutants(cert):
            bad = certificate(cert.target, letters)
            assert not bad.check()
            assert not grid_oracle.check_certificate(bad)
            count += 1
    assert count == 30


def test_oracle_imports_no_product_path():
    # the oracle must not share a bug with the kernel it checks
    source = (Path(__file__).resolve().parent / "grid_oracle.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported == ["Fraction", "product", "prod"], imported
    for name in ("_mul_add", "_mul_terms", "_pow_terms", "eval_word", "GroupMatrix", "__mul__"):
        assert name not in source, name
