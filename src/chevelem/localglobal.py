"""Local-global machinery: dilation equalizers, congruence-word descent,
dilation factorization certificates, and the telescoping patch.

The descent engine rewrites a congruence word over Z[1/s][z] into a
product of conjugates of z-divisible letters, expands every conjugation
through the derived commutator identities (splitting payloads across a
commutator when an opposite-root conjugation forces it), and then clears
all denominators with one dilation z -> s^k z.  Every emitted word is
re-evaluated exactly before it is returned; failure is an explicit
exception, never an unverified word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoveringInconsistent,
    DescentBudgetExceeded,
    InternalCheckFailed,
    PreconditionViolated,
)
from .exactring import (
    KIND_INTEGERS,
    KIND_LOCALIZED,
    BaseRing,
    MultiPoly,
    annihilator_exponent,
    clearing_exponent,
    coeff_bits,
    convert,
    poly_s_valuation,
)
from .rootdata import GroupMatrix, commutator_expand, opposite_decomposition
from .words import (
    DEFAULT_BUDGET, Budget, ElemWord, eval_word, free_reduce, invert_word, map_word, reduce_letters,
)

DILATION_LEVELS = 8


def xgcd(a: int, b: int):
    """Returns (g, x, y) with x*a + y*b = g = gcd(a, b)."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


# ---------------------------------------------------------------------------
# coverings


@dataclass(frozen=True)
class CoveringData:
    """Finitely many elements s_i with sum c_i s_i = 1, plus exponents.

    The finite covering replaces quantification over all maximal ideals:
    only the localizations at the s_i ever matter for a concrete input.
    """

    elems: tuple
    coeffs: tuple
    exponents: tuple

    def __post_init__(self):
        if not (len(self.elems) == len(self.coeffs) == len(self.exponents)):
            raise CoveringInconsistent("covering component lengths differ")
        if not self.elems:
            raise CoveringInconsistent("empty covering")
        if any(s == 0 for s in self.elems):
            raise CoveringInconsistent("covering elements must be nonzero")
        if any(k < 1 for k in self.exponents):
            raise CoveringInconsistent("exponents must be at least 1")
        if sum(c * s for c, s in zip(self.coeffs, self.elems)) != 1:
            raise CoveringInconsistent("coefficients do not witness the unit ideal")

    @staticmethod
    def from_elements(elems, exponents=None) -> "CoveringData":
        """Builds coefficients by iterated extended gcd over Z."""
        elems = tuple(int(s) for s in elems)
        exponents = (1,) * len(elems) if exponents is None else tuple(exponents)
        coeffs = _unit_combination(elems)
        return CoveringData(elems, coeffs, exponents)

    def raised(self) -> "CoveringData":
        """Same elements with coefficients recomputed for s_i^{k_i}."""
        powers = tuple(s ** k for s, k in zip(self.elems, self.exponents))
        coeffs = _unit_combination(powers)
        return CoveringData(powers, coeffs, (1,) * len(powers))


def _unit_combination(elems) -> tuple:
    if not elems:
        raise CoveringInconsistent("empty covering")
    g, coeffs = elems[0], [1]
    for s in elems[1:]:
        g, x, y = xgcd(g, s)
        coeffs = [c * x for c in coeffs] + [y]
    if g < 0:  # a lone element: xgcd makes every longer gcd non-negative
        g, coeffs = -g, [-1]
    if g != 1:
        raise CoveringInconsistent("elements generate gcd %d, not the unit ideal" % g)
    return tuple(coeffs)


def telescoping_chain(covering: CoveringData) -> list:
    """a_j = sum of the first N-j products c_i s_i; a_0 = 1, a_N = 0."""
    products = [c * s for c, s in zip(covering.coeffs, covering.elems)]
    n = len(products)
    return [sum(products[: n - j]) for j in range(n + 1)]


def telescoping_product(g: GroupMatrix, chain) -> GroupMatrix:
    """The exact matrix product of g(a_j x1) g(a_{j+1} x1)^{-1} along the chain.

    g is inverted once and g(b x1)^{-1} is taken as g^{-1}(b x1), since
    inversion commutes with the ring map x1 -> b x1.  A step with a = b
    is the identity and is skipped.  A type-A g whose determinant is not 1
    raises NotInGroup even where every g(b x1) would be invertible (g(0),
    say); type C takes the form inverse, which checks nothing.
    """
    out = GroupMatrix.identity(g.rs, g.base, g.nvars)  # __mul__ passes it through
    if len(chain) < 2:
        return out
    inv = g.inverse()
    for a, b in zip(chain, chain[1:]):
        if a != b:
            out = out * g.dilate(0, a) * inv.dilate(0, b)
    return out


# ---------------------------------------------------------------------------
# dilation equalizer


def dilation_equalizer(g: GroupMatrix, h: GroupMatrix, s) -> int:
    """Smallest n with g(s^n x1) = h(s^n x1), given g = h at x1 = 0 and
    equal localizations at s.  Over a domain this forces n = 0."""
    if g.rs is not h.rs or g.base != h.base or g.nvars != h.nvars:
        raise PreconditionViolated("matrices over different rings")
    base = g.base
    s_elem = base.normalize(s)
    if g.at_zero(0) != h.at_zero(0):
        raise PreconditionViolated("matrices differ at z = 0")
    # x1 -> s^n x1 scales the term c x1^e ... of g - h by s^(n e), and e >= 1
    # here, so that term vanishes once n e reaches c's annihilator exponent
    n = 0
    for row_g, row_h in zip(g.entries, h.entries):
        for a, b in zip(row_g, row_h):
            for exps, c in (a - b).exponent_items():
                t = annihilator_exponent(base, c, s_elem)
                if t is None:
                    raise PreconditionViolated("localizations at s differ")
                n = max(n, -(-t // exps[0]))
    return n


# ---------------------------------------------------------------------------
# congruence-word descent


def dilate_word(w: ElemWord, z: int, s: int, k: int) -> ElemWord:
    if k == 0 or not w.letters:
        return w
    return ElemWord(w.rs, [(r, a.dilate(z, s ** k)) for r, a in w.letters])


def descend_word(w: ElemWord, s: int, z: int = 0, budget: Budget = DEFAULT_BUDGET):
    """Descend a congruence word over Z[1/s][z] to integral coefficients.

    Returns (h, k) with h over Z, congruence tag holding for h, and
    F_s(eval(h)) = eval(w)(s^k z) exactly.  Raises DescentBudgetExceeded
    when no dilation level gives a word, naming the stages that stopped
    the levels (a named Budget field refusing the expansion, a rewrite
    without a power of s, no clearing exponent) with their counts, or
    naming s when a rewrite divides by a non-unit s.  The first word found
    is checked exactly; the expansion is an identity, so a mismatch is a
    fault in the program and raises InternalCheckFailed.

    Levels 0 and 1 reserve the same power of s, so level 1's letters are
    level 0's under z -> s z, with the same z-free letters: when level 0
    finds no clearing exponent, level 1 is counted under that stage
    without being expanded.
    """
    base, nvars = w.base_and_nvars()
    if base.kind != KIND_LOCALIZED:
        raise PreconditionViolated("descent expects a word over Z[1/s]")
    if s == 0 or not BaseRing.integers_localized(s).is_unit(base.param):
        raise PreconditionViolated("s=%d does not invert the denominators of %s" % (s, base))
    gw = eval_word(w, base, nvars)
    if not gw.at_zero(z).is_identity():
        raise PreconditionViolated("word is not congruent to the identity at z=0")

    target = BaseRing.integers()
    if all(arg.den == 1 for _, arg in w.letters):
        h = ElemWord(w.rs, [(r, convert(a, target)) for r, a in w.letters])
        return h, 0

    stops = Counter()  # the levels each stage stopped
    for k0 in range(DILATION_LEVELS + 1):
        if k0 == 1 and stops["no clearing exponent"]:
            stops["no clearing exponent"] += 1
            continue
        w0 = dilate_word(w, z, s, k0)
        try:
            letters = _expand_good(w0, z, s, k0, budget)
        except _Refused as refused:
            stops[refused.args[0]] += 1
            continue
        # the smallest k1 making every argument integral after z -> s^k1 z
        ks = [clearing_exponent(arg, z, s) for _, arg in letters]
        if None in ks:
            stops["no clearing exponent"] += 1
            continue
        k1 = max(ks, default=0)
        # z -> s^k1 z gives each non-integral coefficient at least its
        # s-power denominator back, so the lift to Z cannot fail
        h = ElemWord(w0.rs, [(r, convert(a.dilate(z, s ** k1), target)) for r, a in letters])
        k = k0 + k1
        # eval(w)(s^k z) is eval(w(s^k z)): dilation is a ring map, and
        # eval(h) lifts to Z[1/s] by a rewrap, its denominator being 1
        lhs = eval_word(h, target, nvars)
        lifted = lhs.map_entries(lambda p: convert(p, base))
        # h is free-reduced: z -> s^k1 z and the lift keep _expand_good's letters nonzero
        if lifted != gw.dilate(z, s ** k) or not lhs.at_zero(z).is_identity():
            raise InternalCheckFailed("descended word differs from the dilated word")
        return h, k
    raise DescentBudgetExceeded(
        "no verified descent within %d dilation levels; stopped by %s"
        % (DILATION_LEVELS, ", ".join("%s: %d" % kv for kv in stops.items()))
    )


class _Refused(Exception):
    """A level's expansion stopped; args[0] names the cause for the count."""


def _expand_good(w0: ElemWord, z: int, s: int, reserve: int, budget: Budget):
    """Rewrite eval(w0) as a flat word whose letters either carry
    z-divisible arguments (cleared later by dilation) or z-free integral
    ones.  Raises _Refused naming the Budget field spent or the rewrite."""
    rs = w0.rs
    conjugators = []
    payloads = []
    for root, a in w0.letters:
        a0 = a.dilate(z, 0)
        payloads.append((root, a - a0))
        conjugators.append((root, a0))
    out: list = []
    for i, (root, tail) in enumerate(payloads):
        if tail.is_zero():
            continue
        wseg = [(root, tail)]
        for j in range(i, -1, -1):
            beta, r = conjugators[j]
            if r.is_zero():
                continue
            wseg = _flat_conj(rs, beta, r, wseg, z, s, reserve, budget)
        out.extend(wseg)
        if len(out) > budget.max_letters:
            raise _Refused("expansion refused by Budget.max_letters")
    return reduce_letters(rs, out)


def _flat_conj(rs, beta, r, letters, z, s, reserve, budget: Budget):
    """Letters of x_beta(r) * (product of letters) * x_beta(-r).  Every
    letter in and out is nonzero: commutator_expand drops zero letters,
    and _opposite_rewrite's payloads and powers of s are nonzero."""
    neg_beta = tuple(-v for v in beta)
    r_degree = r.total_degree()
    out: list = []
    for gamma, t in letters:
        if max(t.total_degree(), r_degree) > budget.max_degree:
            raise _Refused("expansion refused by Budget.max_degree")
        if coeff_bits(t) > budget.max_coeff_bits:
            raise _Refused("expansion refused by Budget.max_coeff_bits")
        if gamma == beta:
            out.append((gamma, t))
        elif gamma == neg_beta:
            rewritten = _opposite_rewrite(rs, gamma, t, z, s, reserve)
            out.extend(_flat_conj(rs, beta, r, rewritten, z, s, reserve, budget))
        else:
            out.extend(commutator_expand(rs, beta, gamma, r, t))
            out.append((gamma, t))
        if len(out) > budget.max_letters:
            raise _Refused("expansion refused by Budget.max_letters")
    return out


def _opposite_rewrite(rs, gamma, t, z: int, s: int, reserve: int):
    """Letters evaluating to x_gamma(t), with every root involved
    non-proportional to gamma.  Payload powers of s are reserved on the
    constant slot so that later conjugations keep integral arguments.
    It divides by s, so an s that is no unit of t's base raises
    DescentBudgetExceeded: every dilation level would fail alike.  A
    z-free payload with too few powers of s to reserve raises _Refused."""
    base, nvars = t.base, t.nvars
    if not base.is_unit(s):
        raise DescentBudgetExceeded("rewrite divides by s=%d, not a unit of %s" % (s, base))
    t0 = t.dilate(z, 0)
    d1, d2, i0, j0, constants = opposite_decomposition(rs, gamma)
    n0 = dict(((i, j), n) for i, j, _, n in constants)[(i0, j0)]
    const_power = j0 if i0 == 1 else i0
    out: list = []
    for part, z_divisible in ((t - t0, True), (t0, False)):
        if part.is_zero():
            continue
        if z_divisible:
            m1 = max(1, reserve)
        else:
            m1 = poly_s_valuation(part, s) // const_power
            if m1 < 1:
                raise _Refused("opposite rewrite without a power of s")
        u = part.scale(Fraction(1, n0) / s ** (m1 * const_power))
        const_arg = MultiPoly.const(base, nvars, s ** m1)
        v1, v2 = (u, const_arg) if i0 == 1 else (const_arg, u)
        out += commutator_expand(rs, d1, d2, v1, v2, solve_for=gamma)
    return out


# ---------------------------------------------------------------------------
# dilation certificates


@dataclass
class DilationCert:
    """Certificate that g(ax) g(bx)^{-1} is elementary once a = b mod s^k.

    generator(a, b) emits a verified word for that element; a and b
    are integers.
    """

    s: int
    k: int
    generator: object


def dilation_factor(g: GroupMatrix, w_s: ElemWord, s: int, budget: Budget = DEFAULT_BUDGET) -> DilationCert:
    """Build a dilation certificate, dilating in x1, from a local word for F_s(g).

    When w_s is already integral the certificate is direct with k = 0,
    and the check that w_s evaluates to g runs over Z.  Otherwise that
    check runs over Z[1/s], and the word for g(x(y+z)) g(xy)^{-1} in two
    auxiliary variables is descended, checked for exact equality over Z
    after z -> s^k z, and the generator specializes y -> b, z -> (a-b)/s^k.  Over Z, a domain,
    that check is what dilation_equalizer would decide with exponent 0.
    """
    base = g.base
    if base.kind != KIND_INTEGERS:
        raise PreconditionViolated("dilation certificates are built over Z here")
    if s == 0:
        raise PreconditionViolated("dilation needs a nonzero s, got s=0")
    nvars = g.nvars
    loc = BaseRing.integers_localized(s)
    if w_s.letters and w_s.base_and_nvars()[0] != loc:
        raise PreconditionViolated("word does not evaluate to the localized matrix")
    if all(arg.den == 1 for _, arg in w_s.letters):
        w_int = ElemWord(w_s.rs, [(r, convert(a, base)) for r, a in w_s.letters])
        # Z[x] -> Z[1/s][x] is injective: this is the check over Z[1/s]
        matches = eval_word(w_int, base, nvars) == g
    else:
        w_int = None
        matches = eval_word(w_s, loc, nvars) == g.map_entries(lambda p: convert(p, loc))
    # this check puts g in E(Z[1/s][x]), so every g(bx) below is invertible
    if not matches:
        raise PreconditionViolated("word does not evaluate to the localized matrix")

    if w_int is not None:
        k = 0

        def word_for(a, b):
            wa = ElemWord(w_int.rs, [(r, p.dilate(0, a)) for r, p in w_int])
            wb = ElemWord(w_int.rs, [(r, p.dilate(0, b)) for r, p in w_int])
            return wa.concat(invert_word(wb))

    else:
        n2 = nvars + 2
        yv, zv = nvars, nvars + 1
        loc_x, loc_y, loc_z = (MultiPoly.variable(loc, n2, v) for v in (0, yv, zv))
        part_a = map_word(w_s, ("substitute", {0: loc_x * (loc_y + loc_z)}, n2))
        part_b = invert_word(map_word(w_s, ("substitute", {0: loc_x * loc_y}, n2)))
        w_f = part_a.concat(part_b)

        h, k = descend_word(w_f, s, z=zv, budget=budget)

        int_x, int_y, int_z = (MultiPoly.variable(base, n2, v) for v in (0, yv, zv))
        g_xy = g.substitute({0: int_x * int_y}, nvars_out=n2)
        g_xyz = g.substitute({0: int_x * (int_y + int_z)}, nvars_out=n2)
        # eval(h) = g(x(y + s^k z)) g(xy)^{-1}, multiplied out
        if eval_word(h, onto=g_xy) != g_xyz.dilate(zv, s ** k):
            raise InternalCheckFailed("descended word differs from the dilated matrix over Z")

        def word_for(a, b):
            q, r = divmod(a - b, s ** k)
            if r:
                raise PreconditionViolated("arguments are not congruent mod %d^%d" % (s, k))
            # y and z go to constants, so the output ring drops them
            img = {yv: MultiPoly.const(base, nvars, b), zv: MultiPoly.const(base, nvars, q)}
            return map_word(h, ("substitute", img, nvars))

    def generator(a, b):
        """The free-reduced word_for(a, b) for integers a, b, checked
        exactly as eval(word) g(bx) = g(ax)."""
        a, b = base.normalize(a), base.normalize(b)
        word = free_reduce(word_for(a, b))
        if eval_word(word, onto=g.dilate(0, b)) != g.dilate(0, a):
            raise InternalCheckFailed("generator output failed verification")
        return word

    return DilationCert(s=s, k=k, generator=generator)


# ---------------------------------------------------------------------------
# the telescoping patch


def patch(g: GroupMatrix, certs, covering: CoveringData) -> ElemWord:
    """Assemble local dilation certificates into a word for g * g(0)^{-1},
    g(0) being g at x1 = 0.

    The chain a_0 = 1, ..., a_N = 0 telescopes exactly; each step's
    difference a_j - a_{j+1} is divisible by the matching certificate's
    modulus, which the covering consistency check enforces.
    """
    if len(certs) != len(covering.elems):
        raise CoveringInconsistent("one certificate per covering element required")
    for (s_i, cert), s_cov, k_cov in zip(certs, covering.elems, covering.exponents):
        if cert.s != s_i or s_i != s_cov:
            raise CoveringInconsistent("certificate element mismatch")
        if cert.k > k_cov:
            raise CoveringInconsistent(
                "covering exponent %d below certificate modulus %d" % (k_cov, cert.k)
            )
    chain = telescoping_chain(covering.raised())
    steps = (cert.generator(a, b) for (_, cert), a, b in zip(reversed(certs), chain, chain[1:]))
    word = free_reduce(ElemWord(g.rs, []).concat(*steps))
    # eval(word) = g g(0)^{-1}, checked as eval(word) g(0) = g: no inverse
    if eval_word(word, onto=g.at_zero(0)) != g:
        raise CoveringInconsistent("patched word failed exact verification")
    return word
