"""Relations and words over the less common coefficient rings.

Structure constants are derived over the integers; these checks confirm
the commutator identities push forward exactly to composite moduli,
prime fields, and localized rings.
"""

import random
from fractions import Fraction

from chevelem.exactring import BaseRing, MultiPoly
from chevelem.rootdata import GroupMatrix, build_root_system, commutator_expand
from chevelem.words import ElemWord, eval_word, free_reduce, invert_word

Z6 = BaseRing.integers_mod(6)
Z8 = BaseRing.integers_mod(8)
F3 = BaseRing.prime_field(3)
ZHALF = BaseRing.integers_localized(2)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)

BASES = (Z6, Z8, F3, ZHALF)


def rand_poly(rng, base, nvars=1, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if base.kind == "Zloc":
            c = Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 2))
        else:
            c = rng.randint(-6, 6)
        if c:
            terms[e] = terms.get(e, 0) + c
    return MultiPoly(base, nvars, terms)


def brute_commutator(rs, a, b, s, t):
    ident = GroupMatrix.identity(rs, s.base, s.nvars)
    return (
        ident.rmul_unipotent(a, s)
        .rmul_unipotent(b, t)
        .rmul_unipotent(a, -s)
        .rmul_unipotent(b, -t)
    )


def test_commutator_pushforward_all_bases():
    rng = random.Random(61)
    for base in BASES:
        for rs in (A2, C2):
            for _ in range(40):
                a = rng.choice(rs.roots)
                b = rng.choice(rs.roots)
                if rs.proportional(a, b):
                    continue
                s = rand_poly(rng, base)
                t = rand_poly(rng, base)
                w = ElemWord(rs, commutator_expand(rs, a, b, s, t))
                assert eval_word(w, base, 1) == brute_commutator(rs, a, b, s, t)


def test_word_group_laws_all_bases():
    rng = random.Random(67)
    for base in BASES:
        for rs in (A2, C2):
            letters = []
            for _ in range(rng.randint(1, 5)):
                arg = rand_poly(rng, base)
                if not arg.is_zero():
                    letters.append((rng.choice(rs.roots), arg))
            w = ElemWord(rs, letters)
            assert (eval_word(invert_word(w), base, 1) * eval_word(w, base, 1)).is_identity()
            assert eval_word(free_reduce(w), base, 1) == eval_word(w, base, 1)


def test_composite_modulus_collapse():
    # over Z/6 an argument of 3 and 2 annihilate different parts
    s = MultiPoly.const(Z6, 1, 3)
    t = MultiPoly.const(Z6, 1, 2)
    w = ElemWord(A2, commutator_expand(A2, (1, -1, 0), (0, 1, -1), s, t))
    m = eval_word(w, Z6, 1)
    assert m.entries[0][2] == MultiPoly.const(Z6, 1, 0)  # 3*2 = 6 = 0 mod 6
    assert m.is_identity()
