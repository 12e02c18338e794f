"""The multiply-accumulate kernel against plain base-ring arithmetic.

Unipotent moves on either side, matrix products, determinants, powers and
substitutions all run on exactring._mul_add.  The reference here never
does: it evaluates every entry at integer points and multiplies the
values as Python ints and Fractions (pow(x, e, m) over Z/m).  Results
must also be in normal form, which a missing reduction mod m would break
without changing any value."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chevelem import exactring, rootdata, words
from chevelem.errors import BaseMismatch
from chevelem.exactring import BaseRing, MultiPoly, convert
from chevelem.factorize import factor_univar_euclidean, random_elementary_word
from chevelem.localglobal import descend_word, dilation_factor
from chevelem.rootdata import GroupMatrix, apply_moves, build_root_system
from chevelem.words import ElemWord, eval_word

Z = BaseRing.integers()
Q = BaseRing.rationals()
BASES = [
    Z,
    Q,
    BaseRing.integers_mod(6),
    BaseRing.integers_mod(8),
    BaseRing.prime_field(5),
    BaseRing.integers_localized(2),
]
SYSTEMS = [build_root_system(k, r) for k, r in (("A", 2), ("A", 3), ("C", 2), ("C", 3))]
NVARS = (1, 2, 3, 4)


def coeff(rng, base):
    if base.kind == "Q":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if base.kind == "Zloc":
        return Fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 2))
    return rng.randint(-7, 7)


def rand_poly(rng, base, nvars, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[e] = terms.get(e, 0) + coeff(rng, base)
    return MultiPoly(base, nvars, terms)


def pool_rows(rng, rs, base, nvars):
    """A matrix as a list of row lists, drawn from a pool of four entries
    (zero among them), so entries share objects as identity() does."""
    pool = [MultiPoly.zero(base, nvars)] + [rand_poly(rng, base, nvars) for _ in range(3)]
    size = rs.matrix_size
    return [[rng.choice(pool) for _ in range(size)] for _ in range(size)]


def value(p, point):
    m = p.base.modulus
    total = 0
    for exps, c in p.exponent_items():
        for x, e in zip(point, exps):
            c *= x ** e if m is None else pow(x, e, m)
        total += c
    return total if m is None else total % m


def values(rows, point):
    return [[value(p, point) for p in row] for row in rows]


def reduced(base, rows):
    m = base.modulus
    return rows if m is None else [[v % m for v in row] for row in rows]


def matmul(base, a, b):
    size = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
    return reduced(base, out)


def identity(size):
    return [[int(i == j) for j in range(size)] for i in range(size)]


def unipotent(rs, root, tv):
    """x_root(t) at a point: the identity plus sign*t at each term's position."""
    x = identity(rs.matrix_size)
    for r, c, sign in rs.unipotent_terms[root]:
        x[r][c] += sign * tv
    return x


def det(base, a):
    size = len(a)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for i in range(size):
            term *= a[i][perm[i]]
        total += term
    return total if base.modulus is None else total % base.modulus


def assert_normal(rows):
    for row in rows:
        for p in row:
            for c in p.coefficients():
                want = p.base.normalize(c)
                assert c and c == want and type(c) is type(want), (p.base, c)
            # int numerators over one positive denominator, in lowest terms
            assert all(type(c) is int for c in p.terms.values()), p
            assert p.den > 0 and math.gcd(p.den, *p.terms.values()) == 1, p


def points(rng, nvars, n=2):
    return [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(n)]


@pytest.mark.parametrize("rs", SYSTEMS, ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
@pytest.mark.parametrize("base", BASES, ids=str)
def test_updates_match_evaluation(base, rs):
    """Every root, type-C roots with two unipotent terms included: a right
    move, then a left move that reads the entries it changed."""
    rng = random.Random("%s-%s%d" % (base, rs.kind, rs.rank))
    for nvars in NVARS:
        for root in rs.roots:
            rows = pool_rows(rng, rs, base, nvars)
            pts = points(rng, nvars)
            want = [values(rows, pt) for pt in pts]
            for left in (False, True):
                t = rand_poly(rng, base, nvars, max_terms=2, max_deg=1)
                apply_moves(rows, rs.moves["left" if left else "right"][root], t)
                for k, pt in enumerate(pts):
                    x = unipotent(rs, root, value(t, pt))
                    want[k] = matmul(base, x, want[k]) if left else matmul(base, want[k], x)
            for k, pt in enumerate(pts):
                assert values(rows, pt) == want[k], (nvars, root)
            assert_normal(rows)


@pytest.mark.parametrize("rs", SYSTEMS, ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
@pytest.mark.parametrize("base", BASES, ids=str)
def test_products_and_determinants_match_evaluation(base, rs):
    """GroupMatrix.__mul__ and rootdata._det on shared-entry matrices, and a word
    evaluated from the identity, whose entries all start shared."""
    rng = random.Random("%s-%s%d-mul" % (base, rs.kind, rs.rank))
    for nvars in NVARS:
        a = GroupMatrix(rs, pool_rows(rng, rs, base, nvars))
        b = GroupMatrix(rs, pool_rows(rng, rs, base, nvars))
        letters = [
            (rng.choice(rs.roots), rand_poly(rng, base, nvars, max_terms=2, max_deg=1))
            for _ in range(6)
        ]
        ab = a * b
        d = rootdata._det(a.entries, MultiPoly.const(base, nvars, 1))
        w = eval_word(ElemWord(rs, letters), base, nvars)
        assert_normal(ab.entries + w.entries + ((d,),))
        for pt in points(rng, nvars):
            want = matmul(base, values(a.entries, pt), values(b.entries, pt))
            assert values(ab.entries, pt) == want
            assert value(d, pt) == det(base, values(a.entries, pt))
            want = identity(rs.matrix_size)
            for root, t in letters:
                want = matmul(base, want, unipotent(rs, root, value(t, pt)))
            assert values(w.entries, pt) == want


@pytest.mark.parametrize("base", BASES, ids=str)
def test_power_and_substitute_match_evaluation(base):
    rng = random.Random("%s-pow" % (base,))
    m = base.modulus
    for nvars in NVARS:
        for _ in range(6):
            p = rand_poly(rng, base, nvars, max_terms=4)
            n = rng.randint(0, 4)
            nvars_out = nvars + rng.choice([0, 1])
            images = {
                v: rand_poly(rng, base, rng.randint(1, nvars_out), max_terms=3)
                for v in range(nvars)
                if rng.random() < 0.7
            }
            pw = p ** n
            got = p.substitute(images, nvars_out)
            assert_normal([[pw, got]])
            for pt in points(rng, nvars_out):
                pv = value(p, pt[:nvars])
                assert value(pw, pt) == (pv ** n if m is None else pow(pv, n, m))
                inner = [value(images[v], pt) if v in images else pt[v] for v in range(nvars)]
                assert value(got, pt) == value(p, inner)


@pytest.mark.parametrize("other", [BaseRing.integers_mod(6), Q], ids=str)
def test_fused_updates_keep_base_checks(other):
    """The updates and products check the base once, not per product; a
    foreign base or a different nvars still raises BaseMismatch, and a
    matrix cannot mix them, since the check reads one entry for all."""
    rs = SYSTEMS[2]
    g = eval_word(ElemWord(rs, [(rs.roots[0], MultiPoly.variable(Z, 1, 0))]), Z, 1)
    for t in (MultiPoly.variable(other, 1, 0), MultiPoly.variable(Z, 2, 1)):
        for op in (g.rmul_unipotent, g.lmul_unipotent):
            with pytest.raises(BaseMismatch):
                op(rs.roots[0], t)
    for h in (GroupMatrix.identity(rs, other, 1), GroupMatrix.identity(rs, Z, 2)):
        with pytest.raises(BaseMismatch):
            g * h
        with pytest.raises(BaseMismatch):
            h * g
    for t in (MultiPoly.variable(other, 1, 0), MultiPoly.variable(Z, 2, 1)):
        rows = [list(row) for row in g.entries]
        rows[1][0] = t
        with pytest.raises(BaseMismatch):
            GroupMatrix(rs, rows)


def test_kernel_multiplies_only_ints(monkeypatch):
    """Over Q and Z[1/s] a polynomial is int numerators over one
    denominator, so the product and sum kernels never see a Fraction: a
    spy on _mul_add and _fold records every coefficient handed to them
    while a small Q, Z[1/2] and F5 corpus is evaluated, descended,
    dilation-factored and Euclid-factored."""
    seen = {}

    def spy(kernel, name, ndicts):
        def wrapped(*args):
            types = seen.setdefault(name, set())
            for d in args[:ndicts]:
                types.update(map(type, d.values()))
            return kernel(*args)

        return wrapped

    monkeypatch.setattr(exactring, "_mul_add", spy(exactring._mul_add, "_mul_add", 3))
    monkeypatch.setattr(words, "_mul_add", exactring._mul_add)
    monkeypatch.setattr(exactring, "_fold", spy(exactring._fold, "_fold", 2))
    zhalf, f5 = BaseRing.integers_localized(2), BaseRing.prime_field(5)
    a2 = SYSTEMS[0]
    e12, e23 = (1, -1, 0), (0, 1, -1)
    half = Fraction(1, 2)
    for base in (Q, zhalf, f5):
        scale = half if base.kind in ("Q", "Zloc") else 1
        word = random_elementary_word(a2, 5, 8, nvars=2, base=base)
        eval_word(ElemWord(a2, [(r, a.scale(scale)) for r, a in word.letters]), base, 2)
        if base is not zhalf:
            g = eval_word(random_elementary_word(a2, 6, 6, base=base), base, 1)
            assert factor_univar_euclidean(g) is not None
    z = MultiPoly.variable(zhalf, 1, 0)
    conj = MultiPoly.const(zhalf, 1, half)
    h, k = descend_word(ElemWord(a2, [(e23, conj), (e12, z.scale(half)), (e23, -conj)]), 2)
    assert k >= 1 and len(h) > 0
    # a half-integral word whose product is integral: the 3-variable descent
    payload = [(e12, z.scale(4)), (a2.roots[2], (z * z).scale(-8))]
    w_s = ElemWord(a2, [(e23, conj)] + payload + [(e23, -conj)])
    g = GroupMatrix(a2, [[convert(p, Z) for p in row] for row in eval_word(w_s).entries])
    assert dilation_factor(g, w_s, 2).k >= 0
    assert seen["_mul_add"] == {int} and seen["_fold"] == {int}, seen
