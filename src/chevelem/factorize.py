"""End-to-end factorization into elementary words.

heuristic_reduce is greedy: a division-guided reduction, finished by a
rank-one commutator word where it applies, brings the matrix down to a
constant, and over Z or a field the Euclidean reduction factors that
constant tail.  It hands back g = L * r * R for elementary words L and
R, where r is the identity exactly when a word was found and otherwise
the matrix the search stalled at.  factor_polynomial certifies its word
over Z[x..]; a greedy stall ends in NotFactored.  The Euclidean and
field reductions are public on their own.  Every reduction records its
moves with one recorder, and every polynomial quotient, greedy or
Euclidean, comes from one leading-term division.  Every word produced
anywhere is re-evaluated exactly against its target before it is
returned; NotFactored is never a claim of non-membership.  A word whose
exact product is the target proves membership, so factor_polynomial
checks nothing up front, and after a stall only the stall matrix, which
is in the group exactly when g is.  A constant leftover goes to the
Euclidean reduction, its own membership test: it reaches the identity
exactly when g is in the group and otherwise raises NotInGroup where it
meets the failure; the full invariant check on g never runs.
"""

from __future__ import annotations

import math
import random
from math import gcd

from .errors import (
    InternalCheckFailed,
    NotFactored,
    NotInGroup,
    PreconditionViolated,
)
from .exactring import KIND_INTEGERS, BaseRing, MultiPoly, leading_term_division, size_change
from .rootdata import (
    GroupMatrix, RootSystem, apply_moves, commutator_letters, invert_letters, membership_check,
)
from .words import (
    DEFAULT_BUDGET, Budget, ElemWord, FactorizationCertificate, eval_word, free_reduce,
)

Z = BaseRing.integers()


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
        arg = MultiPoly.random(rng, base, nvars, 2, max_degree, coeff_bound)
        if not arg.is_zero():
            letters.append((root, arg))
    return ElemWord(rs, letters)


# ---------------------------------------------------------------------------
# rings for the shared Euclidean engine: each is a (size, quotient) pair


def _int_size(p: MultiPoly) -> int:
    """Constant integer entries: sizes are absolute values."""
    return abs(p.constant_term())


def _int_quotient(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return MultiPoly.const(a.base, a.nvars, a.constant_term() // b.constant_term())


def _field_size(p: MultiPoly) -> int:
    """Entries in k[x1], or in k with no variable: shifted total degrees."""
    return 0 if p.is_zero() else p.total_degree() + 1


def _field_quotient(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    # in k[x1] graded-lex leading terms are x1-leading terms, so the
    # leading-term division run to completion is Euclidean division
    q, _, _ = leading_term_division(a, b, math.inf)
    return q


class _OpRecorder:
    """Mutable matrix with left/right unipotent moves, recorded for replay.

    Entries are MultiPoly over one base ring; one is its unit.
    """

    def __init__(self, rs: RootSystem, rows, one):
        self.rs = rs
        self.base = one.base
        self.nvars = one.nvars
        self.one = one
        self.m = [list(row) for row in rows]
        self.left: list = []
        self.right: list = []

    def move(self, root, t, side: str) -> None:
        """m <- x_root(t) * m on the left side, m * x_root(t) on the right."""
        if t.is_zero():
            return
        apply_moves(self.m, self.rs.moves[side][root], t)
        (self.left if side == "left" else self.right).append((root, t))

    def matrix(self) -> GroupMatrix:
        return GroupMatrix(self.rs, self.m)

    def inverse_letters(self) -> tuple:
        """(left, right) letter lists with left * current * right = original."""
        return [(root, -t) for root, t in self.left], invert_letters(self.right)


def _swap_into(rec: _OpRecorder, src: int, dst: int) -> None:
    """Row dst += row src, then row src -= row dst: with dst zero in the
    pivot column, this moves src's entry there into dst."""
    at = rec.rs.root_at
    rec.move(at(dst, src), rec.one, "left")
    rec.move(at(src, dst), -rec.one, "left")


def _normalize_pivot(rec: _OpRecorder, pivot: int, spare: int) -> None:
    """Turn the pivot d on the diagonal into 1 by three moves through a
    spare row whose entry in the pivot column is zero; raises NotInGroup
    unless d is a unit of the base ring."""
    at = rec.rs.root_at
    d = rec.m[pivot][pivot]
    c = d.constant_term()
    if not (d.is_constant() and rec.base.is_unit(c)):
        raise NotInGroup("column gcd %r is not a unit" % (d,))
    inverse = MultiPoly.const(rec.base, rec.nvars, rec.base.unit_inverse(c))
    rec.move(at(spare, pivot), inverse, "left")
    rec.move(at(pivot, spare), rec.one - d, "left")
    rec.move(at(spare, pivot), -rec.one, "left")


def _clear_pivot_row_c(rec: _OpRecorder, stage: int) -> None:
    """Type C: clear the pivot row by column moves; the symplectic form
    then forces the partner row and column clean, which is checked."""
    rs = rec.rs
    later = list(range(stage + 1, rs.rank))
    for c in later + [rs.partner(c) for c in later] + [rs.partner(stage)]:
        rec.move(rs.root_at(stage, c), -rec.m[stage][c], "right")
    unit = GroupMatrix.identity(rs, rec.base, rec.nvars).entries
    for fixed in (stage, rs.partner(stage)):
        # row and column fixed are the identity's
        if not tuple(rec.m[fixed]) == tuple(row[fixed] for row in rec.m) == unit[fixed]:
            raise NotInGroup("matrix does not preserve the symplectic form")


def _column_gcd(rec: _OpRecorder, ring, rows, col: int):
    """Euclid down column col across rows by row moves, in the ring's
    (size, quotient), until at most one entry is nonzero; returns its row,
    or None when the whole column is zero.  Of rows of equal size the
    first pivots."""
    size, quotient = ring
    at = rec.rs.root_at
    while True:
        nz = [r for r in rows if size(rec.m[r][col]) != 0]
        if len(nz) <= 1:
            return nz[0] if nz else None
        r_min = min(nz, key=lambda r: size(rec.m[r][col]))
        for r in nz:
            if r != r_min:
                rec.move(at(r, r_min), -quotient(rec.m[r][col], rec.m[r_min][col]), "left")


def _reduce_type_a(rec: _OpRecorder, ring) -> None:
    size = len(rec.m)
    at = rec.rs.root_at
    for col in range(size):
        pivot = _column_gcd(rec, ring, range(col, size), col)
        if pivot is None:
            raise NotInGroup("column collapses to zero; matrix is singular")
        if pivot != col:
            _swap_into(rec, pivot, col)
        if rec.m[col][col] != rec.one:
            if col == size - 1:
                raise NotInGroup("final pivot is not 1; determinant is not 1")
            _normalize_pivot(rec, col, col + 1)
        for r in range(size):
            if r != col:
                rec.move(at(r, col), -rec.m[r][col], "left")


def _reduce_type_c(rec: _OpRecorder, ring) -> None:
    rs = rec.rs
    n = rs.rank
    at, star = rs.root_at, rs.partner

    for stage in range(n):
        col = stage
        # (a) gcd within each active hyperbolic pair via long-root ops,
        # left in the unstarred row
        for j in range(stage, n):
            if _column_gcd(rec, ring, (j, star(j)), col) == star(j):
                _swap_into(rec, star(j), j)
        # (b) gcd across the unstarred rows
        pivot = _column_gcd(rec, ring, range(stage, n), col)
        if pivot is None:
            raise NotInGroup("column collapses to zero; not in the group")
        if pivot != stage:
            _swap_into(rec, pivot, stage)
        # (c) normalize the pivot using the hyperbolic partner
        if rec.m[stage][col] != rec.one:
            _normalize_pivot(rec, stage, star(stage))
        # (d) clear the rest of the column.  Of the starred rows only
        # stage* can be nonzero: (a) zeroed j* for j >= stage, earlier
        # stages left j* clean for j < stage, and (b)/(c) add starred rows
        # only to starred rows, except on stage*.  (e) rejects anything else.
        for r in list(range(n)) + [star(stage)]:
            if r != stage:
                rec.move(at(r, stage), -rec.m[r][col], "left")
        # (e) clear the pivot row by column operations
        _clear_pivot_row_c(rec, stage)


def _euclid(g: GroupMatrix, ring) -> ElemWord:
    """The Euclidean reduction of g in the ring's (size, quotient),
    replayed as a word and multiplied back.  It is the membership test:
    every move is elementary, so only a member reaches the identity, and a
    non-member raises NotInGroup where the reduction meets it (a zero
    column, a non-unit pivot, a last pivot other than 1, a partner line
    the symplectic form should have cleared)."""
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    (_reduce_type_c if g.rs.form else _reduce_type_a)(rec, ring)
    left, right = rec.inverse_letters()
    word = free_reduce(ElemWord(g.rs, left + right))
    if eval_word(word, g.base, g.nvars) != g:
        raise InternalCheckFailed("reduced word failed multiply-back verification")
    return word


def factor_integer_sl(g: GroupMatrix) -> ElemWord:
    """Euclidean factorization of a constant matrix in SL_N(Z)."""
    _require_constant_int(g, "A")
    return _euclid(g, (_int_size, _int_quotient))


def factor_integer_sp(g: GroupMatrix) -> ElemWord:
    """Pairwise Euclidean factorization of a constant matrix in Sp_2N(Z)."""
    _require_constant_int(g, "C")
    return _euclid(g, (_int_size, _int_quotient))


def _require_constant_int(g: GroupMatrix, kind: str) -> None:
    if g.base.kind != KIND_INTEGERS:
        raise PreconditionViolated("integer matrix expected")
    if not g.is_constant():
        raise PreconditionViolated("entries must be constant")
    if g.rs.kind != kind:
        raise PreconditionViolated("type %s matrix expected" % kind)


def factor_univar_euclidean(g: GroupMatrix) -> ElemWord:
    """Division-based reduction over k[x1] for a field k (Q or F_p)."""
    if not g.base.is_field:
        raise PreconditionViolated("field base ring expected")
    for row in g.entries:
        for p in row:
            for v in range(1, g.nvars):
                if p.degree_in(v) > 0:
                    raise PreconditionViolated("entries must be univariate")
    return _euclid(g, (_field_size, _field_quotient))


# ---------------------------------------------------------------------------
# the greedy heuristic


def try_divide(a: MultiPoly, b: MultiPoly):
    """Exact quotient a / b, or None.  Graded-lex leading-term division."""
    if b.is_zero():
        return None
    _, exact, _ = leading_term_division(a, b)
    return exact


def partial_quotient(a: MultiPoly, b: MultiPoly):
    """Leading-term division of a by b as far as it goes exactly.

    Unlike try_divide the remainder may be nonzero; the quotient is the
    move argument that strips a's leading terms against b."""
    if b.is_zero():
        return None
    partial, _, _ = leading_term_division(a, b)
    return None if partial.is_zero() else partial


def _size_grid(m, degw: int, bitw: int) -> list:
    """Each entry's size as a term of m's distance from the identity, sized
    afresh: a pass sizes its matrix once and then adds line deltas."""
    return [
        [p.weighted_size(degw, bitw, i == j) for j, p in enumerate(row)] for i, row in enumerate(m)
    ]


def _matrix_size(m, degw: int, bitw: int) -> int:
    return sum(map(sum, _size_grid(m, degw, bitw)))


def _pair_candidates(tgt: MultiPoly, src: MultiPoly) -> tuple:
    """Move arguments that strip tgt against src: (args, negated args).

    The exact and the partial quotient come from one division; over Z its
    first step also gives the integer-Euclid steps on the leading
    coefficients, floor and round."""
    partial, exact, first = leading_term_division(tgt, src)
    args = [q for q in (exact, partial) if q is not None and not q.is_zero()]
    if first is not None and tgt.base.kind == KIND_INTEGERS:
        mono, ct, cs = first
        qf = ct // cs
        qr = (2 * ct + cs) // (2 * cs)
        for qc in {qf, qr}:
            if qc:
                args.append(mono.scale(qc))
    return args, [-q for q in args]


def _candidate_args(m, rs: RootSystem, root, side: str, pairs: dict):
    """Division-derived argument candidates for one unipotent move.

    pairs memoises _pair_candidates by (target, source) value across the
    steps of one search.  A dict serves as an insertion-ordered set:
    iterating a set of polynomials would follow string hashing and make
    tie-breaks, hence certificates, depend on the interpreter's hash seed."""
    out: dict = {}
    # the first term's lines: one per row or column
    for ti, tj, si, sj, sign in rs.moves[side][root][:rs.matrix_size]:
        key = tgt, src = m[ti][tj], m[si][sj]
        if src.is_zero() or tgt.is_zero():
            continue
        found = pairs.get(key)
        if found is None:
            found = pairs[key] = _pair_candidates(tgt, src)
        for q in found[1] if sign == 1 else found[0]:
            out[q] = None
    return list(out)


def _move_delta(rec: _OpRecorder, root, t: MultiPoly, side: str, degw: int, bitw: int, sizes: dict,
                cut: tuple | None = None) -> int | None:
    """Size change of a candidate move, summed over the affected lines.

    A line whose source entry is zero keeps its entry and is skipped.
    sizes memoises by value, for one (degw, bitw), the size change of each
    line under the key (t, sign, old, src, diagonal): one lookup per line,
    and most lines recur across steps.  With cut = (grid, group bound,
    limit), it returns None as soon as the scored lines' changes minus
    the remaining targets' sizes in grid, a floor of the delta, exceed limit."""
    m = rec.m
    delta = 0
    grid, lower, limit = cut or (None, 0, 0)
    for ti, tj, si, sj, sign in rec.rs.moves[side][root]:
        src = m[si][sj]
        if src.is_zero():
            continue
        old = m[ti][tj]
        key = (t, sign, old, src, ti == tj)
        d = sizes.get(key)
        if d is None:
            d = sizes[key] = size_change(old, t, src, sign, degw, bitw, ti == tj)
        delta += d
        if grid is not None:
            lower += d + grid[ti][tj]
            if lower > limit:
                return None
    return delta


def _constant_matrix(m) -> bool:
    return all(p.is_constant() for row in m for p in row)


def _rank1_difference(m):
    """Factor M - I = v w^T with w^T v = 0, or None.

    Such rank-one shapes (the Cohn block is one) factor exactly into an
    eight-letter commutator through any spare coordinate.  Each nonzero
    column is tried once as v, over Z as its primitive part."""
    size = len(m)
    base = m[0][0].base
    nvars = m[0][0].nvars
    one = MultiPoly.const(base, nvars, 1)
    d = [[m[i][j] - one if i == j else m[i][j] for j in range(size)] for i in range(size)]
    for c in range(size):
        v = [d[i][c] for i in range(size)]
        if all(p.is_zero() for p in v):
            continue
        if base.kind == KIND_INTEGERS:
            # v with integer content g works only if v/g (with g*w) does
            g = gcd(*(coeff for p in v for coeff in p.coefficients()))
            if g > 1:
                v = [try_divide(p, MultiPoly.const(base, nvars, g)) for p in v]
        i0 = next(i for i in range(size) if not v[i].is_zero())
        w = []
        for j in range(size):
            wj = try_divide(d[i0][j], v[i0])
            if wj is None:
                break
            w.append(wj)
        if (
            len(w) == size
            and all((v[i] * w[j] - d[i][j]).is_zero() for i in range(size) for j in range(size))
            and sum((w[i] * v[i] for i in range(size)), MultiPoly.zero(base, nvars)).is_zero()
        ):
            return v, w
    return None


def _rank1_update(rec: _OpRecorder) -> None:
    """Apply the commutator word for (M - I) = v w^T, where one exists."""
    if rec.rs.form:
        return
    fact = _rank1_difference(rec.m)
    if fact is None:
        return
    v, w = fact
    size = len(rec.m)
    spare = next(
        (s for s in range(size) if v[s].is_zero() and w[s].is_zero()), None
    )
    if spare is None:
        return
    p = [(rec.rs.root_at(i, spare), v[i]) for i in range(size) if not v[i].is_zero()]
    q = [(rec.rs.root_at(spare, i), -w[i]) for i in range(size) if not w[i].is_zero()]
    for root, t in reversed(commutator_letters(p, q)):
        rec.move(root, t, "left")


_STRATEGIES = (
    (("right", "left"), 1, 1),
    (("right",), 1, 1),
    (("right", "left"), 3, 0),
    (("right", "left"), 0, 1),
)


def _apply(rec: _OpRecorder, root, t, side) -> None:
    rec.move(root, t, side)


def _grid_move(rec: _OpRecorder, grid: list, root, t, side, sizes: dict) -> None:
    """Apply a scored move, adding each changed line's memoised size change
    to its target's entry in grid; no entry is sized afresh."""
    m = rec.m
    for ti, tj, si, sj, sign in rec.rs.moves[side][root]:
        src = m[si][sj]
        if not src.is_zero():
            grid[ti][tj] += sizes[(t, sign, m[ti][tj], src, ti == tj)]
    _apply(rec, root, t, side)


def _group_bounds(rec: _OpRecorder, groups, grid: list) -> list:
    """(bound, group index) for each (side, root) in groups, least first:
    the bound of _greedy_pass, read off grid."""
    moves = rec.rs.moves
    nonzero = [[not p.is_zero() for p in row] for row in rec.m]
    bounds = []
    for gi, (side, root) in enumerate(groups):
        bound = 0
        for ti, tj, si, sj, _ in moves[side][root]:
            if nonzero[si][sj]:
                bound -= grid[ti][tj]
        bounds.append((bound, gi))
    bounds.sort()
    return bounds


def _best_move(rec: _OpRecorder, groups, grid: list, pairs: dict, sizes: dict, degw: int, bitw: int,
               scored: list | None = None):
    """The least (delta, group index, candidate position, root, t, side)
    over the candidates of groups, a list of (side, root), or None.

    Groups are visited in the order of _group_bounds, and the scan ends at
    the first whose (bound, group index) exceeds the best's (delta, group
    index), and each candidate is cut at the best's delta.  With scored
    given, only a delta < 0 is a best and every scored candidate is
    appended to scored, so a stall scores them all in full."""
    best = None
    for bound, gi in _group_bounds(rec, groups, grid):
        if best is not None and (bound, gi) > best[:2]:
            break  # sorted: no later group is smaller either
        side, root = groups[gi]
        for pos, t in enumerate(_candidate_args(rec.m, rec.rs, root, side, pairs)):
            cut = None if best is None else (grid, bound, best[0])
            delta = _move_delta(rec, root, t, side, degw, bitw, sizes, cut)
            if delta is None:
                continue  # cut short: worse than the best
            move = (delta, gi, pos, root, t, side)
            if scored is not None:
                scored.append(move)
                if move[0] >= 0:
                    continue
            if best is None or move[:3] < best[:3]:
                best = move
    return best


def _snapshot(rec: _OpRecorder, grid: list):
    return [row[:] for row in rec.m], [row[:] for row in grid], len(rec.left), len(rec.right)


def _restore(rec: _OpRecorder, grid: list, snap) -> None:
    m, sized, nl, nr = snap
    rec.m = [row[:] for row in m]
    grid[:] = [row[:] for row in sized]
    del rec.left[nl:]
    del rec.right[nr:]


def _greedy_pass(g: GroupMatrix, sides, degw: int, bitw: int, max_steps: int, pairs: dict) -> _OpRecorder:
    """One strictly-descending greedy run with a two-ply escape at stalls.

    pairs (from the caller) and sizes (this pass's weighting) memoise by
    value the candidates and the size change of each candidate line, so a
    step computes them afresh only on the lines the last move changed.
    grid holds each entry's size: sized once, then kept up to date from the
    memoised line changes of each applied move; the matrix size is its sum.

    A step applies the move of least (delta, group, position): a group is
    a (side, root) pair, numbered in the order sides x roots, and a
    position is the order of _candidate_args, so ties go to the move an
    exhaustive scan in that order meets first.  _best_move finds it by
    branch and bound.  No entry's size is negative, so a group's moves
    change the size by at least its bound, minus the summed sizes of the
    targets of its lines with a nonzero source.  Groups are visited by
    increasing (bound, group); once a move of delta < 0 is in hand, the
    first group whose (bound, group) exceeds the best's (delta, group)
    ends the scan, as no move of it or of a later group could win.  So the
    pass applies the moves, and builds the words and certificates, of the
    exhaustive scan.  A candidate is cut, its scoring stopped, once its
    scored lines' changes minus its other targets' sizes exceed the best
    delta.  A stall step (no delta < 0) holds no best, so it neither prunes
    nor cuts, as the escape ranks every candidate; its follow-up search is
    a plain least move and prunes and cuts from its first best."""
    rec = _OpRecorder(g.rs, g.entries, MultiPoly.const(g.base, g.nvars, 1))
    groups = [(side, root) for side in sides for root in g.rs.roots]
    sizes: dict = {}
    grid = _size_grid(rec.m, degw, bitw)
    steps = 0
    while steps < max_steps:
        steps += 1
        if not any(map(any, grid)):
            break
        scored: list = []
        best = _best_move(rec, groups, grid, pairs, sizes, degw, bitw, scored)
        if best is None and scored:
            # two-ply escape: allow one non-improving move when a follow-up
            # more than pays it back
            snap = _snapshot(rec, grid)
            scored.sort(key=lambda move: move[:3])
            escaped = False
            for delta, _, _, root, t, side in scored[:8]:
                _grid_move(rec, grid, root, t, side, sizes)
                follow = _best_move(rec, groups, grid, pairs, sizes, degw, bitw)
                if follow and delta + follow[0] < 0:
                    _grid_move(rec, grid, follow[3], follow[4], follow[5], sizes)
                    escaped = True
                    break
                _restore(rec, grid, snap)
            if escaped:
                continue
        if best is None:
            if not _constant_matrix(rec.m):
                _rank1_update(rec)
            break
        _grid_move(rec, grid, best[3], best[4], best[5], sizes)
    return rec


def heuristic_reduce(g: GroupMatrix, budget: Budget = DEFAULT_BUDGET):
    """Greedy elementary reduction: (left, r, right), free-reduced words
    left and right with eval(left) * r * eval(right) = g.

    Division-guided moves shrink a size measure under a cascade of scoring
    strategies; stalls fall back to a two-ply escape and the rank-one
    commutator finisher.  A constant leftover over Z or a field is
    factored by the Euclidean reduction (factor_integer_sl or _sp,
    factor_univar_euclidean), whose word is appended to left.  So r is the
    identity exactly when a word was found; then left is that word, free-
    reduced once, and right is empty.  Otherwise r is the matrix the best
    pass stopped at, and a word for r gives g's word as left + word(r) +
    right.  A constant leftover outside the group raises NotInGroup.
    """
    rs = g.rs
    stalls = []
    pairs: dict = {}  # (target, source) -> candidates, shared by all passes
    for sides, degw, bitw in _STRATEGIES:
        rec = _greedy_pass(g, sides, degw, bitw, budget.max_steps, pairs)
        if _constant_matrix(rec.m):
            break
        stalls.append(rec)
    else:
        rec = min(stalls, key=lambda rec: _matrix_size(rec.m, 1, 1))
    r = rec.matrix()
    left, right = rec.inverse_letters()
    if r.is_constant() and not r.is_identity() and (g.base.kind == KIND_INTEGERS or g.base.is_field):
        # the module-level names are looked up here, so the bench tracer's
        # wrappers see the calls
        if g.base.kind != KIND_INTEGERS:
            mid = factor_univar_euclidean(r)
        else:
            mid = (factor_integer_sp if rs.form else factor_integer_sl)(r)
        left += mid.letters
        r = GroupMatrix.identity(rs, g.base, g.nvars)
    if r.is_identity():
        left, right = left + right, []
    left, right = free_reduce(ElemWord(rs, left)), free_reduce(ElemWord(rs, right))
    if eval_word(left, onto=r.rmul_letters(right.letters)) != g:
        raise InternalCheckFailed("heuristic invariant broken")  # defensive; never expected
    return left, r, right


def factor_polynomial(g: GroupMatrix, budget: Budget = DEFAULT_BUDGET) -> FactorizationCertificate:
    """Factor g in SL_N(Z[x..]) or Sp_2N(Z[x..]) into elementary letters.

    heuristic_reduce brings g down to a constant matrix and factors that
    by the integer Euclidean reduction, so the certificate's residual is
    always the identity.  A greedy stall leaves a non-constant matrix
    between the two words and raises NotFactored at once.

    Membership is proved by the word: heuristic_reduce multiplies it back
    exactly, and a word whose product is g puts g in E(R[x..]).  Nothing
    is checked up front.  A stall checks the stall matrix r: g = L * r * R
    with L, R elementary (det 1, form kept), so g is in the group exactly
    when r is; a constant leftover c = L^-1 g R^-1 is likewise checked by
    the Euclidean reduction.  A non-member raises NotInGroup, not
    NotFactored.
    """
    if g.base.kind != KIND_INTEGERS:
        raise PreconditionViolated("factorization target must be over Z")
    left, r, right = heuristic_reduce(g, budget)
    if not r.is_identity():
        if not membership_check(r, r.rs):
            raise NotInGroup("matrix fails the group invariant")
        entries = [p for row in r.entries for p in row]
        size = sum(len(p.coefficients()) for p in entries), max(p.total_degree() for p in entries)
        raise NotFactored(
            "greedy stage left a non-constant residual (no size-reducing move, or "
            "Budget.max_steps=%d spent in a pass); the stall matrix has %d terms "
            "of total degree up to %d" % ((budget.max_steps,) + size)
        )
    # right is empty when r is the identity
    return FactorizationCertificate(target=g, word=left, residual_constant=r, verified=True)
