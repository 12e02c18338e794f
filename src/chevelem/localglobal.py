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

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BaseMismatch,
    CoveringInconsistent,
    DescentBudgetExceeded,
    PreconditionViolated,
)
from .exactring import (
    BaseRing,
    MultiPoly,
    annihilator_exponent,
    convert,
    denominator_lcm,
    poly_s_valuation,
    s_valuation,
)
from .rootdata import GroupMatrix, opposite_decomposition, structure_constants
from .words import (
    ElemWord,
    congruence_check,
    eval_word,
    extend_word_vars,
    free_reduce,
    invert_word,
    map_word,
    reduce_letters,
    shrink_word_vars,
)

DILATION_LEVELS = 8


@dataclass(frozen=True)
class Budget:
    """Resource limits for searches; non-negative (zero means fail fast).

    max_letters, max_degree and max_coeff_bits bound the descent
    expansion; max_steps bounds each greedy pass and nothing else.  The
    descent tries DILATION_LEVELS + 1 pre-dilation levels.
    """

    max_letters: int = 40000
    max_degree: int = 600
    max_coeff_bits: int = 200000
    max_steps: int = 800

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError("%s must not be negative" % name)


DEFAULT_BUDGET = Budget()


def _poly_bits(p: MultiPoly) -> int:
    total = 0
    for c in p.coefficients():
        total += abs(c.numerator).bit_length() + c.denominator.bit_length()
    return total


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
        exponents = tuple(exponents) if exponents else (1,) * len(elems)
        coeffs = _unit_combination(elems)
        return CoveringData(elems, coeffs, exponents)

    def raised(self) -> "CoveringData":
        """Same elements with coefficients recomputed for s_i^{k_i}."""
        powers = tuple(s ** k for s, k in zip(self.elems, self.exponents))
        coeffs = _unit_combination(powers)
        return CoveringData(powers, coeffs, (1,) * len(powers))


def _unit_combination(elems) -> tuple:
    g = elems[0]
    coeffs = [1]
    for s in elems[1:]:
        g2, x, y = xgcd(g, s)
        coeffs = [c * x for c in coeffs] + [y]
        g = g2
    if g != 1:
        raise CoveringInconsistent("elements generate gcd %d, not the unit ideal" % g)
    return tuple(coeffs)


def telescoping_chain(covering: CoveringData) -> list:
    """a_j = sum of the first N-j products c_i s_i; a_0 = 1, a_N = 0."""
    products = [c * s for c, s in zip(covering.coeffs, covering.elems)]
    n = len(products)
    return [sum(products[: n - j]) for j in range(n + 1)]


def telescoping_product(g: GroupMatrix, chain, var: int = 0) -> GroupMatrix:
    """The exact matrix product of g(a_j x) g(a_{j+1} x)^{-1} along the chain."""
    base, nvars = g.base, g.nvars
    x = MultiPoly.variable(base, nvars, var)
    out = GroupMatrix.identity(g.rs, base, nvars)
    for a, b in zip(chain, chain[1:]):
        ga = g.substitute({var: x.scale(a)}, nvars_out=nvars)
        gb = g.substitute({var: x.scale(b)}, nvars_out=nvars)
        out = out * ga * gb.inverse()
    return out


# ---------------------------------------------------------------------------
# dilation equalizer


def dilation_equalizer(g: GroupMatrix, h: GroupMatrix, s, var: int = 0) -> int:
    """Smallest n with g(s^n z) = h(s^n z), given g(0) = h(0) and equal
    localizations at s.  Over a domain this forces n = 0."""
    if g.rs is not h.rs or g.base != h.base or g.nvars != h.nvars:
        raise PreconditionViolated("matrices over different rings")
    base = g.base
    s_elem = base.normalize(s)
    if g.at_zero(var) != h.at_zero(var):
        raise PreconditionViolated("matrices differ at z = 0")
    bound = 0
    for row_g, row_h in zip(g.entries, h.entries):
        for a, b in zip(row_g, row_h):
            for c in (a - b).coefficients():
                n = annihilator_exponent(base, c, s_elem)
                if n is None:
                    raise PreconditionViolated("localizations at s differ")
                bound = max(bound, n)
    x = MultiPoly.variable(base, g.nvars, var)
    for n in range(bound + 1):
        img = {var: x.scale(s_elem ** n)}
        if g.substitute(img, nvars_out=g.nvars) == h.substitute(img, nvars_out=g.nvars):
            return n
    raise PreconditionViolated("no dilation exponent within the exact bound")


# ---------------------------------------------------------------------------
# congruence-word descent


def dilate_word(w: ElemWord, z: int, s: int, k: int) -> ElemWord:
    if k == 0 or not w.letters:
        return w
    base, nvars = w.base_and_nvars()
    x = MultiPoly.variable(base, nvars, z)
    return map_word(w, ("substitute", {z: x.scale(s ** k)}, nvars))


def descend_word(w: ElemWord, s: int, z: int = 0, budget: Budget | None = None):
    """Descend a congruence word over Z[1/s][z] to integral coefficients.

    Returns (h, k) with h over Z, congruence tag holding for h, and
    F_s(eval(h)) = eval(w)(s^k z) exactly.  Raises DescentBudgetExceeded
    when the expansion or dilation search exhausts its budget.
    """
    budget = budget or DEFAULT_BUDGET
    base, nvars = w.base_and_nvars()
    if base.kind not in ("Zloc",):
        raise PreconditionViolated("descent expects a word over Z[1/s]")
    if not congruence_check(w, z).holds:
        raise PreconditionViolated("word is not congruent to the identity at z=0")

    target = BaseRing.integers()
    if all(denominator_lcm(arg) == 1 for _, arg in w.letters):
        h = ElemWord(w.rs, [(r, convert(a, target)) for r, a in w.letters])
        return h, 0

    for k0 in range(DILATION_LEVELS + 1):
        w0 = dilate_word(w, z, s, k0)
        letters = _expand_good(w0, z, s, k0, budget)
        if letters is None:
            continue
        k1 = _clearing_exponent(letters, z, s)
        if k1 is None:
            continue
        h = _clear_and_lift(w0.rs, letters, z, s, k1, target)
        if h is None:
            continue
        k = k0 + k1
        dilated = dilate_word(w, z, s, k)
        lhs = eval_word(h, target, nvars).map_entries(lambda p: convert(p, base))
        if lhs == eval_word(dilated, base, nvars) and lhs.at_zero(z).is_identity():
            return free_reduce(h), k
    raise DescentBudgetExceeded(
        "no verified descent within %d dilation levels" % DILATION_LEVELS
    )


def _expand_good(w0: ElemWord, z: int, s: int, reserve: int, budget: Budget):
    """Rewrite eval(w0) as a flat word whose letters either carry
    z-divisible arguments (cleared later by dilation) or z-free integral
    ones.  Returns None when stuck or over budget."""
    rs = w0.rs
    base, nvars = w0.base_and_nvars()
    zero = MultiPoly.zero(base, nvars)
    conjugators = []
    payloads = []
    for root, a in w0.letters:
        a0 = a.substitute({z: zero}, nvars_out=nvars)
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
            if wseg is None:
                return None
        out.extend(wseg)
        if len(out) > budget.max_letters:
            return None
    return reduce_letters(out)


def _flat_conj(rs, beta, r, letters, z, s, reserve, budget: Budget):
    """Letters of x_beta(r) * (product of letters) * x_beta(-r)."""
    neg_beta = tuple(-v for v in beta)
    out: list = []
    for gamma, t in letters:
        if t.is_zero():
            continue
        if max(t.total_degree(), r.total_degree()) > budget.max_degree:
            return None
        if _poly_bits(t) > budget.max_coeff_bits:
            return None
        if gamma == beta:
            out.append((gamma, t))
        elif gamma == neg_beta:
            rewritten = _opposite_rewrite(rs, gamma, t, z, s, reserve)
            if rewritten is None:
                return None
            inner = _flat_conj(rs, beta, r, rewritten, z, s, reserve, budget)
            if inner is None:
                return None
            out.extend(inner)
        else:
            for i, j, delta, n in structure_constants(rs, beta, gamma):
                arg = ((r ** i) * (t ** j)).scale(n)
                if not arg.is_zero():
                    out.append((delta, arg))
            out.append((gamma, t))
        if len(out) > budget.max_letters:
            return None
    return out


def _opposite_rewrite(rs, gamma, t, z: int, s: int, reserve: int):
    """Letters evaluating to x_gamma(t), with every root involved
    non-proportional to gamma.  Payload powers of s are reserved on the
    constant slot so that later conjugations keep integral arguments."""
    base, nvars = t.base, t.nvars
    zero = MultiPoly.zero(base, nvars)
    t0 = t.substitute({z: zero}, nvars_out=nvars)
    parts = [(t - t0, True), (t0, False)]
    out: list = []
    for part, z_divisible in parts:
        if part.is_zero():
            continue
        d1, d2, i0, j0, constants = opposite_decomposition(rs, gamma)
        n0 = dict(((i, j), n) for i, j, _, n in constants)[(i0, j0)]
        const_power = j0 if i0 == 1 else i0
        if z_divisible:
            m1 = max(1, reserve)
        else:
            v = poly_s_valuation(part, s)
            m1 = v // const_power if v is not None else 1
            if m1 < 1:
                return None
        u = part.scale(Fraction(1, n0) / s ** (m1 * const_power))
        const_arg = MultiPoly.const(base, nvars, s ** m1)
        if i0 == 1:
            v1, v2 = u, const_arg
        else:
            v1, v2 = const_arg, u
        pre: list = []
        post: list = []
        seen_target = False
        for i, j, delta, n in constants:
            if (i, j) == (i0, j0):
                seen_target = True
                continue
            arg = ((v1 ** i) * (v2 ** j)).scale(n)
            if arg.is_zero():
                continue
            if seen_target:
                post.append((delta, arg))
            else:
                pre.append((delta, arg))
        # prod = pre . x_gamma(target) . post  =>  x_gamma = pre^-1 . comm . post^-1
        letters = [(d, -a) for d, a in reversed(pre)]
        letters += [(d1, v1), (d2, v2), (d1, -v1), (d2, -v2)]
        letters += [(d, -a) for d, a in reversed(post)]
        out.extend(letters)
    return out


def _clearing_exponent(letters, z: int, s: int):
    """Smallest k making every argument integral after z -> s^k z."""
    k = 0
    for _, arg in letters:
        for exps, c in arg.terms.items():
            cz = exps[z]
            if c.denominator == 1:
                continue
            v = s_valuation(arg.base, c, s)
            if v >= 0:
                continue
            if cz == 0:
                return None
            k = max(k, (-v + cz - 1) // cz)
    return k


def _clear_and_lift(rs, letters, z: int, s: int, k1: int, target: BaseRing):
    if not letters:
        return ElemWord(rs, [])
    base, nvars = letters[0][1].base, letters[0][1].nvars
    x = MultiPoly.variable(base, nvars, z)
    img = {z: x.scale(s ** k1)}
    out = []
    try:
        for root, arg in letters:
            cleared = arg.substitute(img, nvars_out=nvars)
            out.append((root, convert(cleared, target)))
    except BaseMismatch:
        return None
    return ElemWord(rs, out)


# ---------------------------------------------------------------------------
# dilation certificates


@dataclass
class DilationCert:
    """Certificate that g(ax) g(bx)^{-1} is elementary once a = b mod s^k.

    generator(a, b) emits a verified word for that element; the descended
    word it specializes is kept for inspection.
    """

    s: int
    k: int
    generator: object
    var: int = 0
    word: ElemWord | None = None


def _as_coeff_poly(value, base: BaseRing, nvars: int, forbid_var: int) -> MultiPoly:
    if isinstance(value, MultiPoly):
        p = convert(value, base) if value.base != base else value
        p = p.extend_vars(nvars) if p.nvars < nvars else p
    else:
        p = MultiPoly.const(base, nvars, int(value))
    if p.degree_in(forbid_var) > 0:
        raise PreconditionViolated("dilation arguments must not involve the dilated variable")
    return p


def dilation_factor(
    g: GroupMatrix, w_s: ElemWord, s: int, var: int = 0, budget: Budget | None = None
) -> DilationCert:
    """Build a dilation certificate from a local word for F_s(g).

    When w_s is already integral the certificate is direct with k = 0.
    Otherwise the word for g(x(y+z)) g(xy)^{-1} in two auxiliary variables
    is descended, upgraded to exact equality over the base ring, and the
    generator specializes y -> b, z -> (a-b)/s^k.
    """
    base = g.base
    if base.kind != "Z":
        raise PreconditionViolated("dilation certificates are built over Z here")
    nvars = g.nvars
    loc = BaseRing.integers_localized(s)
    g_loc = g.map_entries(lambda p: convert(p, loc))
    if eval_word(w_s, loc, nvars) != g_loc:
        raise PreconditionViolated("word does not evaluate to the localized matrix")

    x = MultiPoly.variable(base, nvars, var)

    def specialize(m: GroupMatrix, a: MultiPoly) -> GroupMatrix:
        return m.substitute({var: x * a}, nvars_out=nvars)

    if all(denominator_lcm(arg) == 1 for _, arg in w_s.letters):
        w_int = ElemWord(w_s.rs, [(r, convert(a, base)) for r, a in w_s.letters])

        def generator_direct(a, b):
            pa = _as_coeff_poly(a, base, nvars, var)
            pb = _as_coeff_poly(b, base, nvars, var)
            wa = map_word(w_int, ("substitute", {var: x * pa}, nvars))
            wb = map_word(w_int, ("substitute", {var: x * pb}, nvars))
            word = free_reduce(wa.concat(invert_word(wb)))
            expect = specialize(g, pa) * specialize(g, pb).inverse()
            if eval_word(word, base, nvars) != expect:
                raise PreconditionViolated("generator output failed verification")
            return word

        return DilationCert(s=s, k=0, generator=generator_direct, var=var, word=w_int)

    n2 = nvars + 2
    yv, zv = nvars, nvars + 1
    loc_y = MultiPoly.variable(loc, n2, yv)
    loc_z = MultiPoly.variable(loc, n2, zv)
    loc_x = MultiPoly.variable(loc, n2, var)
    wx = extend_word_vars(w_s, n2)
    part_a = map_word(wx, ("substitute", {var: loc_x * (loc_y + loc_z)}, n2))
    part_b = invert_word(map_word(wx, ("substitute", {var: loc_x * loc_y}, n2)))
    w_f = part_a.concat(part_b)

    h, k = descend_word(w_f, s, z=zv, budget=budget)

    int_y = MultiPoly.variable(base, n2, yv)
    int_z = MultiPoly.variable(base, n2, zv)
    int_x = MultiPoly.variable(base, n2, var)
    g_ext = g.map_entries(lambda p: p.extend_vars(n2))
    f_mat = g_ext.substitute({var: int_x * (int_y + int_z)}, nvars_out=n2) * (
        g_ext.substitute({var: int_x * int_y}, nvars_out=n2).inverse()
    )
    sk = MultiPoly.const(base, n2, s ** k)
    f_dilated = f_mat.substitute({zv: int_z * sk}, nvars_out=n2)
    l = dilation_equalizer(eval_word(h, base, n2), f_dilated, s, var=zv)
    big_k = k + l
    sl = MultiPoly.const(base, n2, s ** l)
    h2 = map_word(h, ("substitute", {zv: int_z * sl}, n2)) if l else h

    def generator_descended(a, b):
        pa = _as_coeff_poly(a, base, nvars, var)
        pb = _as_coeff_poly(b, base, nvars, var)
        diff = pa - pb
        mod = s ** big_k
        quot = {}
        for e, c in diff.terms.items():
            if c % mod:
                raise PreconditionViolated(
                    "arguments are not congruent mod %d^%d" % (s, big_k)
                )
            quot[e] = c // mod
        zq = MultiPoly(base, nvars, quot).extend_vars(n2)
        word = map_word(
            h2, ("substitute", {yv: pb.extend_vars(n2), zv: zq}, n2)
        )
        word = free_reduce(shrink_word_vars(word, nvars))
        expect = specialize(g, pa) * specialize(g, pb).inverse()
        if eval_word(word, base, nvars) != expect:
            raise PreconditionViolated("generator output failed verification")
        return word

    return DilationCert(s=s, k=big_k, generator=generator_descended, var=var, word=h2)


# ---------------------------------------------------------------------------
# the telescoping patch


def patch(g: GroupMatrix, certs, covering: CoveringData, var: int = 0) -> ElemWord:
    """Assemble local dilation certificates into a word for g * g(0)^{-1}.

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
    n = len(covering.elems)
    word = ElemWord.empty(g.rs)
    for j in range(n):
        i = n - 1 - j
        step = certs[i][1].generator(chain[j], chain[j + 1])
        word = word.concat(step)
    word = free_reduce(word)
    expect = g * g.at_zero(var).inverse()
    if eval_word(word, g.base, g.nvars) != expect:
        raise CoveringInconsistent("patched word failed exact verification")
    return word
