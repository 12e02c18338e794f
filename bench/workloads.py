"""Seeded inputs, timed jobs and exact output checks for the three workloads.

Each workload is a ``Workload`` with three functions:

* ``inputs(ce, rng)`` yields the inputs, without end, from a seeded
  ``random.Random``. The first n of them depend only on the seed. It runs
  in set-up and may call the library to make targets.
* ``run(ce, item)`` is the timed job. It only calls the public library API.
* ``check(ce, item, out)`` re-checks the output from scratch, untimed, and
  returns ``(ok, letters, canonical_text)``.

``ce`` is the imported ``chevelem`` package. Library functions are looked up
on it at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# factor: (family, type, rank, nvars, word length)
FACTOR_FAMILIES = (
    ("SL3(Z[x])", "A", 2, 1, 15),
    ("SL4(Z[x1,x2])", "A", 3, 2, 10),
    ("Sp4(Z[x])", "C", 2, 1, 10),
    ("Sp6(Z[x])", "C", 3, 1, 10),
    ("SL3(Z[x1,x2])", "A", 2, 2, 15),
)
COHN_EVERY = 10  # the Cohn flagship opens every tenth round of the families

VERIFY_GROUPS = (("A", 2), ("A", 3), ("C", 2), ("C", 3))
VERIFY_LENGTHS = tuple(range(10, 41, 3))
# input i takes group, variable count, genuine or twin, and length from i:
# 16 * 11 inputs meet every combination once, and every prefix is balanced

PATCH_LENGTHS = (3, 4, 5, 6)
COVERING = (2, 3, 5)


@dataclass(frozen=True)
class Item:
    family: str
    data: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    run: Callable
    check: Callable
    rate: float  # inputs per second of a timed run on a 2-core x86-64 box
    ceiling_s: float  # an input still running after this long has failed
    trace_inputs: int  # prefix used by the traced run and the digest

    def build(self, ce, rng, n: int):
        return list(itertools.islice(self.inputs(ce, rng), n))


def _word_seed(rng) -> int:
    return rng.randrange(1 << 31)


def _canonical(ce, target, word, note: str = "") -> str:
    """Canonical certificate text of an emitted word for its target."""
    fileio = ce.fileio
    ident = ce.GroupMatrix.identity(target.rs, target.base, target.nvars)
    cert = ce.FactorizationCertificate(
        target=target, word=word, residual_constant=ident, verified=True
    )
    return note + fileio.dumps(fileio.certificate_to_dict(cert))


# -- factor --------------------------------------------------------------------


def factor_inputs(ce, rng):
    z = ce.BaseRing.integers()
    for r in itertools.count():
        if r % COHN_EVERY == 0:
            yield Item("Cohn", (ce.cli.cohn_matrix(),))
        for family, kind, rank, nvars, length in FACTOR_FAMILIES:
            rs = ce.build_root_system(kind, rank)
            word = ce.random_elementary_word(rs, _word_seed(rng), length, nvars=nvars)
            yield Item(family, (ce.eval_word(word, z, nvars),))


def run_factor(ce, item):
    return ce.factor_polynomial(item.data[0])


def check_factor(ce, item, cert):
    g = item.data[0]
    ok = (
        cert.verified
        and cert.target == g
        and cert.residual_constant.is_identity()
        and ce.eval_word(cert.word, g.base, g.nvars) == g
    )
    fileio = ce.fileio
    return ok, len(cert.word), fileio.dumps(fileio.certificate_to_dict(cert))


# -- verify --------------------------------------------------------------------


def _mutate(ce, word, rng):
    """A twin whose product provably differs: x_a(t) -> x_a(t + d) with
    d != 0, or one letter dropped (every letter has a nonzero argument)."""
    letters = list(word.letters)
    i = rng.randrange(len(letters))
    if rng.random() < 0.5:
        root, arg = letters[i]
        d = rng.choice((-3, -2, -1, 1, 2, 3))
        letters[i] = (root, arg + ce.MultiPoly.const(arg.base, arg.nvars, d))
    else:
        del letters[i]
    return ce.ElemWord(word.rs, letters)


def verify_inputs(ce, rng):
    """Genuine certificates and mutated twins, each from its own random word."""
    fileio = ce.fileio
    z = ce.BaseRing.integers()
    for i in itertools.count():
        kind, rank = VERIFY_GROUPS[i % 4]
        rs = ce.build_root_system(kind, rank)
        nvars = 1 + i % 8 // 4
        genuine = i % 16 < 8
        length = VERIFY_LENGTHS[i % len(VERIFY_LENGTHS)]
        word = ce.random_elementary_word(
            rs, _word_seed(rng), length, nvars=nvars, max_degree=1, coeff_bound=3
        )
        target = ce.eval_word(word, z, nvars)
        if not genuine:
            word = _mutate(ce, word, rng)
        cert = ce.FactorizationCertificate(
            target=target,
            word=word,
            residual_constant=ce.GroupMatrix.identity(rs, z, nvars),
            verified=True,
        )
        text = fileio.dumps(fileio.certificate_to_dict(cert))
        yield Item("%s%d" % (kind, rank), (text, genuine))


def run_verify(ce, item):
    cert = ce.fileio.certificate_from_dict(json.loads(item.data[0]))
    target = cert.target
    product = ce.eval_word(cert.word, target.base, target.nvars) * cert.residual_constant
    return product == target, cert


def check_verify(ce, item, out):
    verdict, cert = out
    fileio = ce.fileio
    text = "%s\n%s" % (verdict, fileio.dumps(fileio.certificate_to_dict(cert)))
    return verdict == item.data[1], len(cert.word), text


# -- localglobal -----------------------------------------------------------------


def _halfling_word(ce, rng, rs, length=5):
    """Word over Z[1/2][x] with integral evaluation: a half-integer letter
    conjugating 4-divisible payload letters."""
    zhalf = ce.BaseRing.integers_localized(2)
    payload = []
    for _ in range(length - 2):
        root = rng.choice(rs.roots)
        arg = ce.MultiPoly(zhalf, 1, {(rng.randint(0, 2),): Fraction(4 * rng.randint(-2, 2))})
        if not arg.is_zero():
            payload.append((root, arg))
    conj = rng.choice(rs.roots)
    half = ce.MultiPoly.const(zhalf, 1, Fraction(1, 2))
    return ce.ElemWord(rs, [(conj, half)] + payload + [(conj, -half)])


def _congruence_word(ce, rng, rs):
    """Congruence word over Z[1/2][z]: at most 6 letters, denominators at most 2^3."""
    zhalf = ce.BaseRing.integers_localized(2)
    z = ce.MultiPoly.variable(zhalf, 1, 0)

    def payload():
        c = Fraction(rng.choice([1, 2, 3, -1, -2, 3]), 2 ** rng.randint(0, 3))
        return (z ** rng.randint(1, 2)).scale(c)

    roots = list(rs.roots)
    shape = rng.choice(["plain", "conjugate", "opposite"])
    if shape == "plain":
        return ce.ElemWord(rs, [(rng.choice(roots), payload()) for _ in range(rng.randint(1, 4))])
    alpha = rng.choice(roots)
    if shape == "conjugate":
        beta = rng.choice([b for b in roots if not rs.proportional(b, alpha)])
    else:
        beta = tuple(-v for v in alpha)
    conj = ce.MultiPoly.const(zhalf, 1, Fraction(rng.choice([1, -1]), 2 ** rng.randint(1, 3)))
    letters = [(beta, conj)] + [(alpha, payload()) for _ in range(rng.randint(1, 2))]
    letters.append((beta, -conj))
    if rng.random() < 0.4:
        letters.append((rng.choice(roots), payload()))
    return ce.ElemWord(rs, letters)


def _equalizer_twist(ce, rng, rs):
    """Modulus 2^e and letters x_a(2^j * m * z^d) with d >= 1 over Z/2^e:
    they leave z = 0 and the localization at 2 unchanged."""
    e = rng.randint(2, 6)
    zmod = ce.BaseRing.integers_mod(2 ** e)
    letters = []
    for _ in range(rng.randint(1, 3)):
        arg = ce.MultiPoly(
            zmod, 1, {(rng.randint(1, 2),): 2 ** rng.randint(1, e - 1) * rng.randint(1, 3)}
        )
        if not arg.is_zero():
            letters.append((rng.choice(rs.roots), arg))
    return zmod, ce.ElemWord(rs, letters)


def localglobal_inputs(ce, rng):
    z = ce.BaseRing.integers()
    zhalf = ce.BaseRing.integers_localized(2)
    a2, c2 = ce.build_root_system("A", 2), ce.build_root_system("C", 2)
    for r in itertools.count():
        rs = (a2, c2)[r // len(PATCH_LENGTHS) % 2]
        length = PATCH_LENGTHS[r % len(PATCH_LENGTHS)]
        w = ce.random_elementary_word(rs, _word_seed(rng), length, coeff_bound=4)
        yield Item("patch-%s%d" % (rs.kind, rs.rank), (w, ce.eval_word(w, z, 1)))

        rs = (a2, c2)[r % 2]
        w_s = _halfling_word(ce, rng, rs)
        m_loc = ce.eval_word(w_s, zhalf, 1)
        g = ce.GroupMatrix(rs, [[ce.convert(p, z) for p in row] for row in m_loc.entries])
        yield Item("dilation-%s%d" % (rs.kind, rs.rank), (w_s, g))

        w = _congruence_word(ce, rng, a2)
        zmod, twist = _equalizer_twist(ce, rng, a2)
        yield Item("descent-A2", (w, zmod, twist))


def run_localglobal(ce, item):
    kind = item.family.split("-")[0]
    if kind == "patch":
        w, g = item.data
        certs = [(s, ce.dilation_factor(g, ce.map_word(w, ("localize", s)), s)) for s in COVERING]
        return ce.patch(g, certs, ce.CoveringData.from_elements(COVERING))
    if kind == "dilation":
        w_s, g = item.data
        cert = ce.dilation_factor(g, w_s, 2)
        a, b = 1 + 2 ** cert.k, 1
        return cert.generator(a, b), a, b
    w, zmod, twist = item.data
    h, k = ce.descend_word(w, 2)
    gh = ce.eval_word(h, ce.BaseRing.integers(), 1)
    tele = ce.telescoping_product(gh, ce.telescoping_chain(ce.CoveringData.from_elements(COVERING)))
    h_mod = ce.ElemWord(h.rs, [(r, ce.convert(a, zmod)) for r, a in h.letters])
    plain = ce.eval_word(h_mod, zmod, 1)
    twisted = plain
    for root, arg in twist.letters:
        twisted = twisted.rmul_unipotent(root, arg)
    n = ce.dilation_equalizer(twisted, plain, 2)
    return h, k, tele, (twisted, plain, n)


def _dilated_at(ce, g, var, factor):
    x = ce.MultiPoly.variable(g.base, g.nvars, var)
    return g.substitute({var: x.scale(g.base.from_int(factor))}, nvars_out=g.nvars)


def check_localglobal(ce, item, out):
    z = ce.BaseRing.integers()
    kind = item.family.split("-")[0]
    if kind == "patch":
        word, g = out, item.data[1]
        expect = g * g.at_zero(0).inverse()
        return ce.eval_word(word, z, 1) == expect, len(word), _canonical(ce, expect, word)
    if kind == "dilation":
        (word, a, b), g = out, item.data[1]
        expect = _dilated_at(ce, g, 0, a) * _dilated_at(ce, g, 0, b).inverse()
        ok = ce.eval_word(word, z, 1) == expect
        return ok, len(word), _canonical(ce, expect, word, "a=%d b=%d\n" % (a, b))
    (h, k, tele, (twisted, plain, n)), w = out, item.data[0]
    zhalf = w.letters[0][1].base
    gh = ce.eval_word(h, z, 1)
    lhs = gh.map_entries(lambda p: ce.convert(p, zhalf))
    rhs = ce.eval_word(ce.localglobal.dilate_word(w, 0, 2, k), zhalf, 1)
    ok = lhs == rhs and ce.congruence_check(h, 0).holds
    ok = ok and tele == gh * gh.at_zero(0).inverse()
    # n is the least exponent with twisted(2^n z) = plain(2^n z)
    ok = ok and _dilated_at(ce, twisted, 0, 2 ** n) == _dilated_at(ce, plain, 0, 2 ** n)
    if n > 0:
        ok = ok and _dilated_at(ce, twisted, 0, 2 ** (n - 1)) != _dilated_at(ce, plain, 0, 2 ** (n - 1))
    return ok, len(h), _canonical(ce, gh, h, "k=%d n=%d\n" % (k, n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("factor", factor_inputs, run_factor, check_factor, 19.0, 1.0, 66),
        Workload("verify", verify_inputs, run_verify, check_verify, 20.0, 4.0, 176),
        Workload("localglobal", localglobal_inputs, run_localglobal, check_localglobal, 90.0, 1.0, 180),
    )
}
