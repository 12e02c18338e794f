"""End-to-end factorization into elementary words.

heuristic_reduce is greedy: a division-guided reduction, finished by a
rank-one commutator word where it applies, brings the matrix down to a
constant, and over Z or a field the Euclidean reduction factors that
constant tail.  factor_polynomial certifies its word over Z[x..]; a
greedy stall ends in NotFactored.  The Euclidean and field reductions
are public on their own.  Every word produced anywhere is re-evaluated
exactly against its target before it is returned; NotFactored is never
a claim of non-membership.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, sub

from .errors import (
    BaseMismatch,
    NotFactored,
    NotInGroup,
    PreconditionViolated,
)
from .exactring import BaseRing, MultiPoly, _fold, monic_divrem
from .localglobal import DEFAULT_BUDGET, Budget
from .rootdata import (
    GroupMatrix,
    RootSystem,
    column_update,
    membership_check,
    row_update,
)
from .words import ElemWord, eval_word, free_reduce

Z = BaseRing.integers()

log = logging.getLogger(__name__)


@dataclass
class FactorizationCertificate:
    """g = eval(word) * residual_constant, with residual variable-free."""

    target: GroupMatrix
    word: ElemWord
    residual_constant: GroupMatrix
    verified: bool

    @property
    def word_length(self) -> int:
        return len(self.word)

    @property
    def max_degree(self) -> int:
        return self.word.max_degree()

    def check(self) -> bool:
        """Exact re-check: the residual is constant and in G(R), and
        eval(word) * residual equals the target."""
        res, g = self.residual_constant, self.target
        if not (res.is_constant() and membership_check(res, g.rs)):
            return False
        return eval_word(self.word, g.base, g.nvars) * res == g


def random_elementary_word(
    rs: RootSystem,
    seed: int,
    length: int,
    nvars: int = 1,
    max_degree: int = 2,
    coeff_bound: int = 5,
    base: BaseRing = Z,
) -> ElemWord:
    """Deterministic random word; the round-trip suites feed on these."""
    rng = random.Random(seed)
    letters = []
    while len(letters) < length:
        root = rng.choice(rs.roots)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[e] = terms.get(e, 0) + c
        arg = MultiPoly(base, nvars, terms)
        if not arg.is_zero():
            letters.append((root, arg))
    return ElemWord(rs, letters)


# ---------------------------------------------------------------------------
# scalar contexts for the shared Euclidean engine


class _IntScalars:
    """Constant integer entries: sizes are absolute values."""

    def __init__(self, base: BaseRing, nvars: int):
        self.base = base
        self.nvars = nvars

    def size(self, p: MultiPoly):
        return abs(p.constant_term())

    def divmod(self, a: MultiPoly, b: MultiPoly):
        q, r = divmod(a.constant_term(), b.constant_term())
        return (
            MultiPoly.const(self.base, self.nvars, q),
            MultiPoly.const(self.base, self.nvars, r),
        )

    def is_unit(self, p: MultiPoly) -> bool:
        return p.is_constant() and p.constant_term() in (1, -1)

    def unit_inverse(self, p: MultiPoly) -> MultiPoly:
        return p


class _FieldPolyScalars:
    """Entries in k[x1] over a field k: sizes are shifted degrees."""

    def __init__(self, base: BaseRing, nvars: int):
        self.base = base
        self.nvars = nvars

    def size(self, p: MultiPoly):
        return 0 if p.is_zero() else p.degree_in(0) + 1

    def divmod(self, a: MultiPoly, b: MultiPoly):
        inv = self.base.unit_inverse(_leading_coeff(b))
        q, r = monic_divrem(a, b.scale(inv))
        return q.scale(inv), r

    def is_unit(self, p: MultiPoly) -> bool:
        return p.is_constant() and not p.is_zero()

    def unit_inverse(self, p: MultiPoly) -> MultiPoly:
        return MultiPoly.const(
            self.base, self.nvars, self.base.unit_inverse(p.constant_term())
        )


def _leading_coeff(p: MultiPoly):
    """Leading coefficient in x1 of a polynomial in x1 alone."""
    d = p.degree_in(0)
    best = None
    for e, c in p.terms.items():
        if e[0] == d and not any(e[1:]):
            best = c
    if best is None:
        raise PreconditionViolated("entry is not univariate in the pivot variable")
    return best


class _OpRecorder:
    """Mutable matrix with left/right unipotent moves, recorded for replay.

    Entries are ring elements with + - * and is_zero (MultiPoly here); one
    is the unit of their ring.
    """

    def __init__(self, rs: RootSystem, rows, one):
        self.rs = rs
        self.base = one.base
        self.nvars = one.nvars
        self.one = one
        self.m = [list(row) for row in rows]
        self.left: list = []
        self.right: list = []

    def lmul(self, root, t) -> None:
        if t.is_zero():
            return
        row_update(self.m, self.rs.unipotent_terms[root], t)
        self.left.append((root, t))

    def rmul(self, root, t) -> None:
        if t.is_zero():
            return
        column_update(self.m, self.rs.unipotent_terms[root], t)
        self.right.append((root, t))

    def entry_is(self, i: int, j: int, want_one: bool) -> bool:
        e = self.m[i][j]
        return e == self.one if want_one else e.is_zero()

    def is_identity(self) -> bool:
        size = len(self.m)
        return all(
            self.entry_is(i, j, i == j) for i in range(size) for j in range(size)
        )

    def matrix(self) -> GroupMatrix:
        return GroupMatrix(self.rs, self.m)

    def inverse_letters(self) -> tuple:
        """(left, right) letter lists with left * current * right = original."""
        return (
            [(root, -t) for root, t in self.left],
            [(root, -t) for root, t in reversed(self.right)],
        )

    def word(self) -> ElemWord:
        """Word w with eval(w) * current = original."""
        left, right = self.inverse_letters()
        return ElemWord(self.rs, left + right)


def _swap_into(rec: _OpRecorder, src: int, dst: int) -> None:
    """Row dst += row src, then row src -= row dst: with dst zero in the
    pivot column, this moves src's entry there into dst."""
    at = rec.rs.root_at
    rec.lmul(at(dst, src), rec.one)
    rec.lmul(at(src, dst), -rec.one)


def _normalize_pivot(rec: _OpRecorder, pivot: int, spare: int, d_inv) -> None:
    """Turn the unit pivot d on the diagonal into 1 by three moves through
    a spare row whose entry in the pivot column is zero."""
    at = rec.rs.root_at
    d = rec.m[pivot][pivot]
    rec.lmul(at(spare, pivot), d_inv)
    rec.lmul(at(pivot, spare), rec.one - d)
    rec.lmul(at(spare, pivot), -rec.one)


def _clear_pivot_row_c(rec: _OpRecorder, stage: int) -> None:
    """Type C: clear the pivot row by column moves; the symplectic form
    then forces the partner row and column clean, which is checked."""
    rs = rec.rs
    later = list(range(stage + 1, rs.rank))
    for c in later + [rs.partner(c) for c in later] + [rs.partner(stage)]:
        rec.rmul(rs.root_at(stage, c), -rec.m[stage][c])
    for fixed in (stage, rs.partner(stage)):
        for c in range(rs.matrix_size):
            if not (rec.entry_is(fixed, c, c == fixed) and rec.entry_is(c, fixed, c == fixed)):
                raise NotInGroup("matrix does not preserve the symplectic form")


def _column_gcd(rec: _OpRecorder, ctx, rows, col: int, collapse: str) -> int:
    """Euclid down column col across rows by row moves until one entry
    is left nonzero; returns its row.  Raises NotInGroup with the given
    reason when the whole column is zero."""
    at = rec.rs.root_at
    while True:
        nz = [r for r in rows if ctx.size(rec.m[r][col]) != 0]
        if not nz:
            raise NotInGroup("column collapses to zero; " + collapse)
        if len(nz) == 1:
            return nz[0]
        r_min = min(nz, key=lambda r: ctx.size(rec.m[r][col]))
        for r in nz:
            if r == r_min:
                continue
            q, _ = ctx.divmod(rec.m[r][col], rec.m[r_min][col])
            rec.lmul(at(r, r_min), -q)


def _reduce_type_a(rec: _OpRecorder, ctx) -> None:
    size = len(rec.m)
    at = rec.rs.root_at
    for col in range(size):
        pivot = _column_gcd(rec, ctx, range(col, size), col, "matrix is singular")
        if pivot != col:
            _swap_into(rec, pivot, col)
        d = rec.m[col][col]
        if d != rec.one:
            if col == size - 1:
                raise NotInGroup("final pivot is not 1; determinant is not 1")
            if not ctx.is_unit(d):
                raise NotInGroup("column gcd %r is not a unit" % (d,))
            _normalize_pivot(rec, col, col + 1, ctx.unit_inverse(d))
        for r in range(size):
            if r != col:
                rec.lmul(at(r, col), -rec.m[r][col])


def _reduce_type_c(rec: _OpRecorder, ctx) -> None:
    rs = rec.rs
    n = rs.rank
    at, star = rs.root_at, rs.partner

    for stage in range(n):
        col = stage
        # (a) gcd within each active hyperbolic pair via long-root ops
        for j in range(stage, n):
            while ctx.size(rec.m[star(j)][col]) != 0:
                a = rec.m[j][col]
                b = rec.m[star(j)][col]
                if ctx.size(a) == 0:
                    _swap_into(rec, star(j), j)
                    continue
                if ctx.size(b) >= ctx.size(a):
                    q, _ = ctx.divmod(b, a)
                    rec.lmul(at(star(j), j), -q)
                else:
                    q, _ = ctx.divmod(a, b)
                    rec.lmul(at(j, star(j)), -q)
        # (b) gcd across the unstarred rows
        pivot = _column_gcd(rec, ctx, range(stage, n), col, "not in the group")
        if pivot != stage:
            _swap_into(rec, pivot, stage)
        # (c) normalize the pivot using the hyperbolic partner
        d = rec.m[stage][col]
        if d != rec.one:
            if not ctx.is_unit(d):
                raise NotInGroup("column gcd %r is not a unit" % (d,))
            _normalize_pivot(rec, stage, star(stage), ctx.unit_inverse(d))
        # (d) clear the rest of the column.  Of the starred rows only
        # stage* can be nonzero: (a) zeroed j* for j >= stage, earlier
        # stages left j* clean for j < stage, and (b)/(c) add starred rows
        # only to starred rows, except on stage*.  (e) rejects anything else.
        for r in list(range(n)) + [star(stage)]:
            if r != stage:
                rec.lmul(at(r, stage), -rec.m[r][col])
        # (e) clear the pivot row by column operations
        _clear_pivot_row_c(rec, stage)


def _finish_reduction(g: GroupMatrix, rec: _OpRecorder) -> ElemWord:
    if not rec.is_identity():
        raise NotInGroup("reduction did not reach the identity")
    word = free_reduce(rec.word())
    if eval_word(word, g.base, g.nvars) != g:
        raise NotInGroup("reduced word failed multiply-back verification")
    return word


def factor_integer_sl(g: GroupMatrix) -> ElemWord:
    """Euclidean factorization of a constant matrix in SL_N(Z)."""
    _require_constant_int(g)
    if g.rs.kind != "A":
        raise PreconditionViolated("type A matrix expected")
    if not membership_check(g, g.rs):
        raise NotInGroup("determinant is not 1")
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    _reduce_type_a(rec, _IntScalars(g.base, g.nvars))
    return _finish_reduction(g, rec)


def factor_integer_sp(g: GroupMatrix) -> ElemWord:
    """Pairwise Euclidean factorization of a constant matrix in Sp_2N(Z)."""
    _require_constant_int(g)
    if g.rs.kind != "C":
        raise PreconditionViolated("type C matrix expected")
    if not membership_check(g, g.rs):
        raise NotInGroup("matrix does not preserve the symplectic form")
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    _reduce_type_c(rec, _IntScalars(g.base, g.nvars))
    return _finish_reduction(g, rec)


def factor_integer_constant(g: GroupMatrix) -> ElemWord:
    return factor_integer_sl(g) if g.rs.kind == "A" else factor_integer_sp(g)


def _require_constant_int(g: GroupMatrix) -> None:
    if g.base.kind != "Z":
        raise PreconditionViolated("integer matrix expected")
    if not g.is_constant():
        raise PreconditionViolated("entries must be constant")


def factor_univar_euclidean(g: GroupMatrix) -> ElemWord:
    """Division-based reduction over k[x1] for a field k (Q or F_p)."""
    if not g.base.is_field:
        raise PreconditionViolated("field base ring expected")
    for row in g.entries:
        for p in row:
            for v in range(1, g.nvars):
                if p.degree_in(v) > 0:
                    raise PreconditionViolated("entries must be univariate")
    if not membership_check(g, g.rs):
        raise NotInGroup("matrix fails the group invariant")
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    ctx = _FieldPolyScalars(g.base, g.nvars)
    if g.rs.kind == "A":
        _reduce_type_a(rec, ctx)
    else:
        _reduce_type_c(rec, ctx)
    return _finish_reduction(g, rec)


# ---------------------------------------------------------------------------
# the greedy heuristic


def _glex(e: tuple) -> tuple:
    """Graded-lex sort key of an exponent tuple."""
    return sum(e), e


def _leading_term_division(a: MultiPoly, b: MultiPoly):
    """Strip leading terms of a against b: the one division behind both
    try_divide and partial_quotient.

    Stops early when a leading exponent or coefficient does not divide.
    Returns (partial, exact, first).  partial holds the quotient terms
    found within the first 2*len(a)+8 steps; exact is the whole quotient
    when at most 4*(len(a)+len(b)+4) steps leave no remainder, else None.
    The first limit is always the smaller one.  first is (exponent,
    leading coefficient of a, of b) of the first step, or None when b's
    leading monomial does not divide a's.  The remainder is one term dict,
    updated in place by each quotient term times b."""
    base = a.base
    m = base.modulus
    partial_limit = 2 * len(a.terms) + 8
    limit = 4 * (len(a.terms) + len(b.terms) + 4)
    q_terms: dict = {}
    partial = first = None
    r = dict(a.terms)
    b_terms = b.terms.items()
    lead_b = max(b.terms, key=_glex)
    cb = b.terms[lead_b]
    steps = 0
    while r and steps < limit:
        if steps == partial_limit:
            partial = dict(q_terms)
        steps += 1
        lead_r = max(r, key=_glex)
        cr = r[lead_r]
        exps = tuple(map(sub, lead_r, lead_b))
        if any(e < 0 for e in exps):
            break
        if first is None:
            first = (exps, cr, cb)
        if base.kind == "Fp":
            coeff = cr * pow(cb, -1, m) % m
        elif base.kind == "Z":
            coeff, rem = divmod(cr, cb)
            if rem:
                break
        else:
            try:
                coeff = base.normalize(Fraction(cr) / Fraction(cb))
            except BaseMismatch:
                break
        q_terms[exps] = coeff
        _fold(r, {tuple(map(add, exps, e2)): -coeff * c2 for e2, c2 in b_terms}, m)
    if partial is None:
        partial = q_terms
    return partial, (None if r else q_terms), first


def try_divide(a: MultiPoly, b: MultiPoly):
    """Exact quotient a / b, or None.  Graded-lex leading-term division."""
    if b.is_zero():
        return None
    if a.is_zero():
        return MultiPoly.zero(a.base, a.nvars)
    _, exact, _ = _leading_term_division(a, b)
    if exact is None:
        return None
    return MultiPoly(a.base, a.nvars, exact)


def partial_quotient(a: MultiPoly, b: MultiPoly):
    """Leading-term division of a by b as far as it goes exactly.

    Unlike try_divide the remainder may be nonzero; the quotient is the
    move argument that strips a's leading terms against b."""
    if a.is_zero() or b.is_zero():
        return None
    partial, _, _ = _leading_term_division(a, b)
    if not partial:
        return None
    return MultiPoly(a.base, a.nvars, partial)


def _terms_size(terms: dict, degw: int, bitw: int) -> int:
    """Size of a term dict; a zero coefficient counts for nothing."""
    total = 0
    for e, c in terms.items():
        if not c:
            continue
        if type(c) is int:
            bits = abs(c).bit_length() + 1
        else:
            bits = abs(c.numerator).bit_length() + c.denominator.bit_length()
        total += 1 + degw * sum(e) ** 2 + bitw * bits
    return total


def _sum_size(
    old: MultiPoly, t: MultiPoly, sign: int, src: MultiPoly, diagonal: bool, degw: int, bitw: int
) -> int:
    """_entry_size of old + sign*t*src, summed on one term dict: neither
    the product nor the sum is built as a polynomial."""
    out = dict(old.terms)
    get = out.get
    src_terms = src.terms.items()
    for e1, c1 in t.terms.items():
        if sign != 1:
            c1 = -c1
        for e2, c2 in src_terms:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    if diagonal:
        e = (0,) * old.nvars
        out[e] = get(e, 0) - 1
    m = old.base.modulus
    if m is not None:
        out = {e: c % m for e, c in out.items()}
    return _terms_size(out, degw, bitw)


def _entry_size(p: MultiPoly, diagonal: bool, degw: int, bitw: int) -> int:
    """Size of one entry's distance from the identity entry."""
    if diagonal:
        p = p - MultiPoly.const(p.base, p.nvars, 1)
    return _terms_size(p.terms, degw, bitw)


def _line_size(p: MultiPoly, diagonal: bool, degw: int, bitw: int, sizes: dict) -> int:
    """_entry_size memoised in sizes, which serves one (degw, bitw) only."""
    key = (p, diagonal)
    s = sizes.get(key)
    if s is None:
        s = sizes[key] = _entry_size(p, diagonal, degw, bitw)
    return s


def _matrix_size(m, degw: int, bitw: int, sizes: dict) -> int:
    total = 0
    for i, row in enumerate(m):
        for j, p in enumerate(row):
            total += _line_size(p, i == j, degw, bitw, sizes)
    return total


def _pair_candidates(tgt: MultiPoly, src: MultiPoly) -> tuple:
    """Move arguments that strip tgt against src: (args, negated args).

    The exact and the partial quotient come from one division; over Z its
    first step also gives the integer-Euclid steps on the leading
    coefficients, floor and round."""
    partial, exact, first = _leading_term_division(tgt, src)
    args = []
    for terms in (exact, partial):
        if terms:
            q = MultiPoly(tgt.base, tgt.nvars, terms)
            if not q.is_zero():
                args.append(q)
    if first is not None and tgt.base.kind == "Z":
        exps, ct, cs = first
        qf = ct // cs
        qr = (2 * ct + cs) // (2 * cs)
        for qc in {qf, qr}:
            if qc:
                args.append(MultiPoly(tgt.base, tgt.nvars, {exps: qc}))
    return args, [-q for q in args]


def _candidate_args(m, rs: RootSystem, root, side: str, pairs: dict):
    """Division-derived argument candidates for one unipotent move.

    pairs memoises _pair_candidates by (target, source) value across the
    steps of one search.  A dict serves as an insertion-ordered set:
    iterating a set of polynomials would follow string hashing and make
    tie-breaks, hence certificates, depend on the interpreter's hash seed."""
    out: dict = {}
    size = len(m)
    r1, c1, s1 = rs.unipotent_terms[root][0]
    if side == "right":
        lines = [(m[i][c1], m[i][r1]) for i in range(size)]
    else:
        lines = [(m[r1][j], m[c1][j]) for j in range(size)]
    for key in lines:
        tgt, src = key
        if src.is_zero() or tgt.is_zero():
            continue
        found = pairs.get(key)
        if found is None:
            found = pairs[key] = _pair_candidates(tgt, src)
        for q in found[1] if s1 == 1 else found[0]:
            out[q] = None
    return list(out)


def _move_delta(rec: _OpRecorder, root, t: MultiPoly, side: str, degw: int, bitw: int, sizes: dict) -> int:
    """Size change of a candidate move, computed on the affected lines.

    A line whose source entry is zero keeps its entry and is skipped.
    sizes memoises by value, for one (degw, bitw), both the size of a
    current entry (key (p, diagonal)) and the new size of a line (key
    (t, sign, old, src, diagonal)); most lines recur across steps."""
    m = rec.m
    size = len(m)
    delta = 0
    for r, c, sign in rec.rs.unipotent_terms[root]:
        if side == "right":
            lines = [(i, c, m[i][c], m[i][r]) for i in range(size)]
        else:
            lines = [(r, j, m[r][j], m[c][j]) for j in range(size)]
        for i, j, old, src in lines:
            if src.is_zero():
                continue
            diagonal = i == j
            key = (t, sign, old, src, diagonal)
            new = sizes.get(key)
            if new is None:
                new = sizes[key] = _sum_size(old, t, sign, src, diagonal, degw, bitw)
            delta += new - _line_size(old, diagonal, degw, bitw, sizes)
    return delta


def _constant_matrix(m) -> bool:
    return all(p.is_constant() for row in m for p in row)


def _rank1_difference(m):
    """Factor M - I = v w^T with w^T v = 0, or None.

    Such rank-one shapes (the Cohn block is one) factor exactly into an
    eight-letter commutator through any spare coordinate."""
    size = len(m)
    base = m[0][0].base
    nvars = m[0][0].nvars
    one = MultiPoly.const(base, nvars, 1)
    d = [[m[i][j] - one if i == j else m[i][j] for j in range(size)] for i in range(size)]
    if all(p.is_zero() for row in d for p in row):
        return None

    def column(c):
        return [d[i][c] for i in range(size)]

    candidates = []
    for c in range(size):
        col = column(c)
        if any(not p.is_zero() for p in col):
            candidates.append(col)
            stripped = _strip_integer_content(col)
            if stripped is not None:
                candidates.append(stripped)
    for v in candidates:
        i0 = next(i for i in range(size) if not v[i].is_zero())
        w = []
        good = True
        for j in range(size):
            wj = try_divide(d[i0][j], v[i0])
            if wj is None:
                good = False
                break
            w.append(wj)
        if not good:
            continue
        if all((v[i] * w[j] - d[i][j]).is_zero() for i in range(size) for j in range(size)):
            dot = MultiPoly.zero(base, nvars)
            for i in range(size):
                dot = dot + w[i] * v[i]
            if dot.is_zero():
                return v, w
    return None


def _strip_integer_content(col):
    base = col[0].base
    if base.kind != "Z":
        return None
    g = 0
    for p in col:
        for c in p.coefficients():
            g = gcd(g, abs(c))
    if g <= 1:
        return None
    return [try_divide(p, MultiPoly.const(base, p.nvars, g)) for p in col]


def _rank1_update(rec: _OpRecorder) -> bool:
    """Apply the commutator word for (M - I) = v w^T; True on success."""
    if rec.rs.kind != "A":
        return False
    fact = _rank1_difference(rec.m)
    if fact is None:
        return False
    v, w = fact
    size = len(rec.m)
    spare = next(
        (s for s in range(size) if v[s].is_zero() and w[s].is_zero()), None
    )
    if spare is None:
        return False
    letters = []
    for i in range(size):
        if not v[i].is_zero():
            letters.append((rec.rs.root_at(i, spare), v[i]))
    p_len = len(letters)
    for i in range(size):
        if not w[i].is_zero():
            letters.append((rec.rs.root_at(spare, i), -w[i]))
    p_part = letters[:p_len]
    q_part = letters[p_len:]
    full = (
        p_part
        + q_part
        + [(r, -t) for r, t in reversed(p_part)]
        + [(r, -t) for r, t in reversed(q_part)]
    )
    for root, t in reversed(full):
        rec.lmul(root, t)
    return rec.is_identity()


_STRATEGIES = (
    (("right", "left"), 1, 1),
    (("right",), 1, 1),
    (("right", "left"), 3, 0),
    (("right", "left"), 0, 1),
)


def _all_moves(rec: _OpRecorder, sides, pairs: dict):
    for side in sides:
        for root in rec.rs.roots:
            for t in _candidate_args(rec.m, rec.rs, root, side, pairs):
                yield root, t, side


def _apply(rec: _OpRecorder, root, t, side) -> None:
    if side == "right":
        rec.rmul(root, t)
    else:
        rec.lmul(root, t)


def _snapshot(rec: _OpRecorder):
    return [row[:] for row in rec.m], len(rec.left), len(rec.right)


def _restore(rec: _OpRecorder, snap) -> None:
    m, nl, nr = snap
    rec.m = [row[:] for row in m]
    del rec.left[nl:]
    del rec.right[nr:]


def _greedy_pass(g: GroupMatrix, sides, degw: int, bitw: int, max_steps: int, pairs: dict) -> _OpRecorder:
    """One strictly-descending greedy run with a two-ply escape at stalls.

    pairs (from the caller) and sizes (this pass's weighting) memoise
    candidates, entry sizes and candidate line sizes by value, so a step
    computes them afresh only on the lines the last move changed."""
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    sizes: dict = {}
    steps = 0
    while steps < max_steps:
        steps += 1
        if _matrix_size(rec.m, degw, bitw, sizes) == 0:
            break
        best = None
        scored = []
        for root, t, side in _all_moves(rec, sides, pairs):
            delta = _move_delta(rec, root, t, side, degw, bitw, sizes)
            scored.append((delta, root, t, side))
            if delta < 0 and (best is None or delta < best[0]):
                best = (delta, root, t, side)
        if best is None and scored:
            # two-ply escape: allow one non-improving move when a follow-up
            # more than pays it back
            current = _matrix_size(rec.m, degw, bitw, sizes)
            snap = _snapshot(rec)
            scored.sort(key=lambda item: item[0])
            escaped = False
            for _, root, t, side in scored[:8]:
                _apply(rec, root, t, side)
                follow = None
                for root2, t2, side2 in _all_moves(rec, sides, pairs):
                    d2 = _move_delta(rec, root2, t2, side2, degw, bitw, sizes)
                    if follow is None or d2 < follow[0]:
                        follow = (d2, root2, t2, side2)
                if follow and _matrix_size(rec.m, degw, bitw, sizes) + follow[0] < current:
                    _apply(rec, follow[1], follow[2], follow[3])
                    escaped = True
                    break
                _restore(rec, snap)
            if escaped:
                continue
        if best is None:
            if not _constant_matrix(rec.m):
                _rank1_update(rec)
            break
        _apply(rec, best[1], best[2], best[3])
    return rec


def heuristic_reduce(g: GroupMatrix, budget: Budget | None = None):
    """Greedy elementary reduction: (word, residual) with word*residual = g.

    Division-guided moves shrink a size measure under a cascade of scoring
    strategies; stalls fall back to a two-ply escape and the rank-one
    commutator finisher.  A constant leftover over Z or a field is
    factored by the Euclidean reduction (factor_integer_constant,
    factor_univar_euclidean), so the residual is then the identity.  Over
    other bases a constant leftover is returned as the residual; after a
    stall the residual is the best stall state.  A constant leftover
    outside the group raises NotInGroup.
    """
    budget = budget or DEFAULT_BUDGET
    rs = g.rs
    best_rec = None
    best_score = None
    pairs: dict = {}  # (target, source) -> candidates, shared by all passes
    for sides, degw, bitw in _STRATEGIES:
        rec = _greedy_pass(g, sides, degw, bitw, budget.max_steps, pairs)
        if _constant_matrix(rec.m):
            best_rec = rec
            log.debug(
                "greedy pass sides=%s degw=%d bitw=%d reduced to constants, "
                "%d left ops %d right ops",
                sides, degw, bitw, len(rec.left), len(rec.right),
            )
            break
        score = _matrix_size(rec.m, 1, 1, {})
        log.debug(
            "greedy pass sides=%s degw=%d bitw=%d stalled at size %d",
            sides, degw, bitw, score,
        )
        if best_score is None or score < best_score:
            best_rec, best_score = rec, score
    rec = best_rec
    final = rec.matrix()
    left, right = rec.inverse_letters()
    if final.is_identity():
        word = free_reduce(ElemWord(rs, left + right))
        residual = final
    elif final.is_constant() and (g.base.kind == "Z" or g.base.is_field):
        # splice the Euclidean word of the constant leftover between the
        # two op families so the residual is the identity
        if g.base.kind == "Z":
            mid = factor_integer_constant(final)
        else:
            mid = factor_univar_euclidean(final)
        word = free_reduce(ElemWord(rs, left + list(mid.letters) + right))
        residual = GroupMatrix.identity(rs, g.base, g.nvars)
    else:
        # the leftover sits between the two op families; keep the left
        # word and fold the undone column ops into the residual
        word = free_reduce(ElemWord(rs, left))
        residual = final * eval_word(ElemWord(rs, right), g.base, g.nvars)
    if eval_word(word, g.base, g.nvars) * residual != g:
        raise NotInGroup("heuristic invariant broken")  # defensive; never expected
    return word, residual


def factor_polynomial(g: GroupMatrix, budget: Budget | None = None) -> FactorizationCertificate:
    """Factor g in SL_N(Z[x..]) or Sp_2N(Z[x..]) into elementary letters.

    heuristic_reduce brings g down to a constant matrix and factors that
    by the integer Euclidean reduction, so the certificate's residual is
    always the identity.  A greedy stall leaves a non-constant residual
    and raises NotFactored at once.
    """
    budget = budget or DEFAULT_BUDGET
    if g.base.kind != "Z":
        raise PreconditionViolated("factorization target must be over Z")
    if not membership_check(g, g.rs):
        raise NotInGroup("matrix fails the group invariant")
    word, residual = heuristic_reduce(g, budget)
    log.debug(
        "heuristic stage: residual identity=%s, word length %d, max degree %d",
        residual.is_identity(), len(word), word.max_degree(),
    )
    if not residual.is_identity():
        raise NotFactored(
            "greedy stage left a non-constant residual (no size-reducing "
            "move, or Budget.max_steps=%d spent in a pass)" % budget.max_steps
        )
    cert = FactorizationCertificate(target=g, word=word, residual_constant=residual, verified=False)
    if not cert.check():
        raise NotFactored("assembled certificate failed final verification")
    cert.verified = True
    return cert
