"""Word evaluation, inversion, reduction, transport, congruence tags."""

import copy
import random
from fractions import Fraction

import pytest

from chevelem.errors import BaseMismatch, DegreeOverflow, SizeMismatch, UnknownRoot
from chevelem.exactring import MAX_DEGREE, BaseRing, MultiPoly, convert, parse_poly
from chevelem.rootdata import GroupMatrix, build_root_system
from chevelem.words import (
    Budget,
    CongruenceTag,
    ElemWord,
    congruence_check,
    eval_word,
    free_reduce,
    invert_word,
    map_word,
    reduce_letters,
)

Z = BaseRing.integers()
ZHALF = BaseRing.integers_localized(2)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)

E12 = (1, -1, 0)
E21 = (-1, 1, 0)
E13 = (1, 0, -1)


def const(v, base=Z, nvars=1):
    return MultiPoly.const(base, nvars, v)


def rand_word(rng, rs, length, base=Z, nvars=1, max_deg=2, bound=5):
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


def test_empty_word_is_identity():
    assert eval_word(ElemWord(A2, []), Z, 1).is_identity()


def test_eval_weyl_like_word():
    w = ElemWord(A2, [(E12, const(1)), (E21, const(-1)), (E12, const(1))])
    m = eval_word(w)
    expect = [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]
    for i in range(3):
        for j in range(3):
            assert m.entries[i][j] == const(expect[i][j])


def test_eval_inverse_pair():
    t = parse_poly("x1^2-3", Z, 1)
    w = ElemWord(A2, [(E12, t), (E12, -t)])
    assert eval_word(w).is_identity()


def test_invert_single():
    t = parse_poly("x1", Z, 1)
    w = invert_word(ElemWord(A2, [(E12, t)]))
    assert w.letters == ((E12, -t),)


def test_free_reduce_merges():
    s, t = const(2), const(3)
    w = free_reduce(ElemWord(A2, [(E12, s), (E12, t)]))
    assert w.letters == ((E12, const(5)),)


def test_free_reduce_cancels():
    t = parse_poly("x1+1", Z, 1)
    w = free_reduce(ElemWord(A2, [(E13, t), (E12, t), (E12, -t), (E13, -t)]))
    assert len(w) == 0


def test_mixed_base_rejected():
    with pytest.raises(BaseMismatch):
        ElemWord(A2, [(E12, const(1)), (E21, const(1, base=ZHALF))])


def test_map_word_substitute():
    x = MultiPoly.variable(Z, 1, 0)
    w = ElemWord(A2, [(E12, x)])
    out = map_word(w, ("substitute", {0: x.scale(2)}))
    assert out.letters == ((E12, x.scale(2)),)


def test_map_word_localize():
    w = ElemWord(A2, [(E12, const(3))])
    out = map_word(w, ("localize", 2))
    assert out.letters[0][1].base == ZHALF


@pytest.mark.parametrize(
    "base,s,target",
    [
        (ZHALF, 3, BaseRing.integers_localized(6)),
        (BaseRing.integers_localized(6), 4, BaseRing.integers_localized(24)),
        (BaseRing.rationals(), 5, BaseRing.rationals()),
        (BaseRing.prime_field(5), 3, BaseRing.prime_field(5)),
    ],
    ids=str,
)
def test_map_word_localize_beyond_z(base, s, target):
    # Z[1/s] goes to Z[1/(s*s')], Q and F_p with s a unit stay put, and
    # evaluation commutes with the transport
    rng = random.Random("localize-%s-%d" % (base, s))
    for rs in (A2, C2):
        for nvars in (1, 2):
            w = ElemWord(rs, [(rng.choice(rs.roots), rand_arg(rng, base, nvars)) for _ in range(6)])
            out = map_word(w, ("localize", s))
            assert {arg.base for _, arg in out.letters} == {target}
            assert eval_word(out) == eval_word(w).map_entries(lambda p: convert(p, target))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Budget(max_steps=-1), "max_steps must not be negative"),
        (lambda: map_word(ElemWord(A2, []), ("bogus",)), "unknown homomorphism kind 'bogus'"),
    ],
    ids=["negative-budget", "unknown-map"],
)
def test_value_refusals(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "base,s", [(BaseRing.prime_field(5), 10), (BaseRing.integers_mod(8), 3)], ids=str
)
def test_map_word_localize_refused(base, s):
    # s is 0 in F_p when p divides it, and Z/m has no localization here
    w = ElemWord(A2, [(E12, const(1, base)), (E13, const(2, base))])
    with pytest.raises(BaseMismatch):
        map_word(w, ("localize", s))


def test_eval_commutes_with_maps():
    rng = random.Random(31)
    x = MultiPoly.variable(Z, 1, 0)
    for _ in range(100):
        rs = rng.choice([A2, C2])
        w = rand_word(rng, rs, rng.randint(1, 5))
        if not w.letters:
            continue
        # substitution
        sub = ("substitute", {0: x.scale(rng.randint(-3, 3))})
        lhs = eval_word(map_word(w, sub))
        rhs = eval_word(w).substitute(sub[1], nvars_out=1)
        assert lhs == rhs
        # localization
        loc = map_word(w, ("localize", 2))
        assert eval_word(loc) == eval_word(w).map_entries(
            lambda p: convert(p, ZHALF)
        )


def test_eval_invert_property():
    rng = random.Random(37)
    for _ in range(25):
        rs = rng.choice([A2, C2])
        w = rand_word(rng, rs, rng.randint(0, 6))
        prod = eval_word(invert_word(w), Z, 1) * eval_word(w, Z, 1)
        assert prod.is_identity()


def test_free_reduce_preserves_eval():
    rng = random.Random(41)
    for _ in range(25):
        rs = rng.choice([A2, C2])
        w = rand_word(rng, rs, rng.randint(0, 6))
        assert eval_word(free_reduce(w), Z, 1) == eval_word(w, Z, 1)


def test_congruence_tag():
    z = MultiPoly.variable(Z, 1, 0)
    w = ElemWord(A2, [(E12, z * parse_poly("x1+2", Z, 1))])
    assert congruence_check(w, 0).holds
    w2 = ElemWord(A2, [(E12, const(1))])
    assert not congruence_check(w2, 0).holds
    for z in (0, 2):  # the empty word is the identity in any variable
        assert congruence_check(ElemWord(A2, []), z) == CongruenceTag(z, True)


@pytest.mark.parametrize("z", [-1, 1], ids=["negative", "nvars"])
def test_variable_out_of_range_raises(z):
    # an index that names no variable is an error, never a no-op
    w = ElemWord(A2, [(E12, MultiPoly.variable(Z, 1, 0))])
    with pytest.raises(ValueError):
        congruence_check(w, z)
    with pytest.raises(ValueError):
        eval_word(w).at_zero(z)


def test_congruence_commutator_pattern():
    z = MultiPoly.variable(Z, 1, 0)
    one = const(1)
    w = ElemWord(A2, [(E12, z), (E21, one), (E12, -z), (E21, -one)])
    assert congruence_check(w, 0).holds


# -- eval_word against a letter-by-letter reference ---------------------------

EVAL_BASES = [
    Z,
    BaseRing.integers_mod(8),
    BaseRing.prime_field(5),
    BaseRing.rationals(),
    ZHALF,
]
EVAL_SYSTEMS = [build_root_system(k, r) for k, r in (("A", 2), ("A", 3), ("C", 2), ("C", 3))]


def typed_entries(g):
    """Each entry's terms sorted by exponent, with coefficient types."""
    return [[sorted((e, c, type(c)) for e, c in p.exponent_items()) for p in row] for row in g.entries]


def reference_eval(w, base, nvars):
    """The product of the letters by rmul_unipotent, one at a time."""
    g = GroupMatrix.identity(w.rs, base, nvars)
    for root, arg in w.letters:
        g = g.rmul_unipotent(root, arg)
    return g


def rand_arg(rng, base, nvars):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        c = rng.randint(-5, 5)
        if base.kind == "Q":
            c = Fraction(c, rng.randint(1, 3))
        elif base.kind == "Zloc":
            c = Fraction(c, 2 ** rng.randint(0, 2))
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(base, nvars, terms)


@pytest.mark.parametrize("rs", EVAL_SYSTEMS, ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
@pytest.mark.parametrize("base", EVAL_BASES, ids=str)
def test_eval_word_matches_letter_by_letter_reference(base, rs):
    rng = random.Random("eval-%s-%s%d" % (base, rs.kind, rs.rank))
    for nvars in (1, 2, 3):
        identity = typed_entries(GroupMatrix.identity(rs, base, nvars))
        for _ in range(3):
            letters = [(rng.choice(rs.roots), rand_arg(rng, base, nvars)) for _ in range(8)]
            w = ElemWord(rs, letters)
            got = eval_word(w, base, nvars)
            assert typed_entries(got) == typed_entries(reference_eval(w, base, nvars))
            # w then its inverse: every entry cancels back to the identity's
            assert typed_entries(eval_word(w.concat(invert_word(w)), base, nvars)) == identity
        empty = eval_word(ElemWord(rs, []), base, nvars)
        assert (empty.base, empty.nvars) == (base, nvars)
        assert typed_entries(empty) == identity


def test_eval_word_leaves_letters_alone():
    # eval_word folds into dicts of its own: no letter's terms change, and
    # no entry of the product is a letter's dict
    rng = random.Random(2020)
    for rs in EVAL_SYSTEMS:
        for base in EVAL_BASES:
            letters = [(rng.choice(rs.roots), rand_arg(rng, base, 2)) for _ in range(12)]
            before = [dict(arg.terms) for _, arg in letters]
            g = eval_word(ElemWord(rs, letters), base, 2)
            assert [arg.terms for _, arg in letters] == before
            owned = {id(arg.terms) for _, arg in letters}
            assert not any(id(p.terms) in owned for row in g.entries for p in row)


# -- eval_word onto a matrix ---------------------------------------------------

ONTO_BASES = [
    Z,
    BaseRing.rationals(),
    BaseRing.prime_field(5),
    BaseRing.integers_mod(4),
    ZHALF,
]


def rand_matrix(rng, rs, base, nvars):
    """A matrix of random entries, as a rule in no group."""
    size = rs.matrix_size
    return GroupMatrix(rs, [[rand_arg(rng, base, nvars) for _ in range(size)] for _ in range(size)])


@pytest.mark.parametrize("rs", EVAL_SYSTEMS, ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
@pytest.mark.parametrize("base", ONTO_BASES, ids=str)
def test_eval_word_onto_is_the_product(base, rs):
    # eval_word(w, onto=m) is eval(w) * m, coefficient types included, for
    # a group element m and for a matrix in no group; m is left alone
    rng = random.Random("onto-%s-%s%d" % (base, rs.kind, rs.rank))
    for nvars in (1, 2):
        member = reference_eval(ElemWord(rs, [(rng.choice(rs.roots), rand_arg(rng, base, nvars))
                                              for _ in range(5)]), base, nvars)
        for m in (member, rand_matrix(rng, rs, base, nvars)):
            before = typed_entries(m)
            for _ in range(2):
                letters = [(rng.choice(rs.roots), rand_arg(rng, base, nvars)) for _ in range(8)]
                w = ElemWord(rs, letters)
                assert typed_entries(eval_word(w, onto=m)) == typed_entries(eval_word(w) * m)
            empty = eval_word(ElemWord(rs, []), onto=m)
            assert empty is m and typed_entries(m) == before


def test_eval_word_onto_keeps_the_letter_order():
    # x12(1) x21(1) and x21(1) x12(1) differ: the letters fold onto m last
    # first, and the other way round gives the swapped word's product
    m = GroupMatrix.identity(A2, Z, 1)
    ab = ElemWord(A2, [(E12, const(1)), (E21, const(1))])
    ba = ElemWord(A2, [(E21, const(1)), (E12, const(1))])
    assert eval_word(ab, onto=m) == eval_word(ab) != eval_word(ba) == eval_word(ba, onto=m)


def test_eval_word_onto_refuses_another_ring():
    m = GroupMatrix.identity(A2, Z, 1)
    for base, nvars in ((ZHALF, 1), (BaseRing.integers_mod(4), 1), (Z, 2)):
        w = ElemWord(A2, [(E12, const(1, base, nvars))])
        with pytest.raises(BaseMismatch):
            eval_word(w, onto=m)
    with pytest.raises(SizeMismatch):
        eval_word(ElemWord(A2, [(E12, const(1))]), onto=GroupMatrix.identity(C2, Z, 1))


CAP_BASES = [Z, BaseRing.rationals(), BaseRing.integers_mod(4)]


@pytest.mark.parametrize("base", CAP_BASES, ids=str)
def test_eval_word_product_past_the_degree_cap(base):
    # x12(a) x23(b) has a*b in its corner: degree 1200000, past the cap,
    # whether b is a letter of the word or sits in onto
    half = MultiPoly(base, 1, {(600000,): 1})
    a, b = E12, (0, 1, -1)
    w = ElemWord(A2, [(a, half), (b, half)])
    for run in (
        lambda: eval_word(w),
        lambda: eval_word(w, onto=GroupMatrix.identity(A2, base, 1)),
        lambda: eval_word(ElemWord(A2, [(a, half)]), onto=eval_word(ElemWord(A2, [(b, half)]))),
    ):
        with pytest.raises(DegreeOverflow, match="exceeds the cap %d" % MAX_DEGREE):
            run()


@pytest.mark.parametrize("base", CAP_BASES, ids=str)
def test_eval_word_degrees_past_the_cap_whose_product_is_under_it(base):
    # x12(a) x34(b) commute and never multiply a by b: the letters' degrees
    # sum past the cap, so every product is checked, and none crosses it
    A3 = build_root_system("A", 3)
    half = MultiPoly(base, 1, {(600000,): 1})
    w = ElemWord(A3, [((1, -1, 0, 0), half), ((0, 0, 1, -1), half)])
    assert 2 * half.total_degree() > MAX_DEGREE
    expect = [list(row) for row in GroupMatrix.identity(A3, base, 1).entries]
    expect[0][1] = expect[2][3] = half
    assert eval_word(w) == GroupMatrix(A3, expect)
    assert eval_word(w, onto=GroupMatrix.identity(A3, base, 1)) == GroupMatrix(A3, expect)


@pytest.mark.parametrize("rs", EVAL_SYSTEMS, ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
@pytest.mark.parametrize("base", ONTO_BASES, ids=str)
def test_eval_word_reads_only_the_left_moves(base, rs):
    # with onto or without, eval_word folds by the left move table alone:
    # a root system with no right moves evaluates as the reference does
    left_only = copy.copy(rs)
    left_only.moves = {"left": rs.moves["left"]}
    rng = random.Random("left-%s-%s%d" % (base, rs.kind, rs.rank))
    for nvars in (1, 2):
        letters = [(rng.choice(rs.roots), rand_arg(rng, base, nvars)) for _ in range(8)]
        expect = typed_entries(reference_eval(ElemWord(rs, letters), base, nvars))
        w = ElemWord(left_only, letters)
        assert typed_entries(eval_word(w, base, nvars)) == expect
        onto = GroupMatrix.identity(left_only, base, nvars)
        assert typed_entries(eval_word(w, onto=onto)) == expect
        empty = eval_word(ElemWord(left_only, []), base, nvars)
        assert typed_entries(empty) == typed_entries(GroupMatrix.identity(rs, base, nvars))


# -- collection across commuting letters -------------------------------------


def adjacent_merge(letters):
    """The reduction before collection: adjacent same-root letters merge,
    zero arguments drop."""
    out = []
    for root, arg in letters:
        if out and out[-1][0] == root:
            arg = out.pop()[1] + arg
        if not arg.is_zero():
            out.append((root, arg))
    return out


def swaps(rs, a, b):
    """x_a and x_b commute: one root, or no positive combination a root."""
    return a == b or (a != tuple(-v for v in b) and not rs.cone_roots(a, b))


def collectable_word(rng, rs, base):
    """Letters over three roots with arguments from a pool of three and
    their negatives, so that merges and cancellations are frequent."""
    roots = rng.sample(rs.roots, 3)
    pool = [rand_arg(rng, base, 1) for _ in range(3)]
    letters = []
    for _ in range(rng.randint(0, 14)):
        arg = rng.choice(pool)
        letters.append((rng.choice(roots), arg if rng.random() < 0.5 else -arg))
    return ElemWord(rs, letters)


@pytest.mark.parametrize("rs", EVAL_SYSTEMS, ids=lambda rs: "%s%d" % (rs.kind, rs.rank))
@pytest.mark.parametrize("base", ONTO_BASES, ids=str)
def test_free_reduce_collects_across_commuting_letters(base, rs):
    rng = random.Random("collect-%s-%s%d" % (base, rs.kind, rs.rank))
    for _ in range(20):
        w = collectable_word(rng, rs, base)
        got = free_reduce(w)
        assert eval_word(got, base, 1) == eval_word(w, base, 1)
        assert len(got) <= len(adjacent_merge(w.letters))
        assert free_reduce(got) == got
        # between two letters of one root stands a letter that blocks them
        roots = [r for r, _ in got.letters]
        for j, root in enumerate(roots):
            if root in roots[:j]:
                i = j - 1 - roots[:j][::-1].index(root)
                assert not all(swaps(rs, r, root) for r in roots[i + 1:j])


def test_reduce_letters_refuses_an_unknown_root_in_either_place():
    # the scan asks rs.commutes(earlier root, later root): either may be unknown
    p = parse_poly("x1", Z, 1)
    known, unknown = (E12, p), ((9, 9, 9), p)
    for letters in ([unknown, known], [known, unknown]):
        with pytest.raises(UnknownRoot, match=r"^\(9, 9, 9\) is not a root of A2$"):
            reduce_letters(A2, letters)
