"""Root systems of types A and C with their matrix models.

Type A_n is realized as SL_{n+1}; type C_n as Sp_{2n} with coordinates
ordered (1, ..., n, n*, ..., 1*) and the symplectic form pairing i with i*
with sign RootSystem.eps(i) (+1 in the upper right, -1 in the lower left).
Every type rule is read off one table, FORM_SIGN, of the form's sign.
Roots are integer vectors in the ambient coordinate basis.

Nothing else of the model is transcribed from tables.  The roots and their
unipotents are read off the form, and the Chevalley structure constants
are derived at build time by expanding commutators of the model's
unipotent matrices with formal arguments; the derived product is
re-multiplied and compared against the literal commutator before use.
"""

from __future__ import annotations

from .errors import (
    InternalCheckFailed,
    NotAUnit,
    NotInGroup,
    ProportionalRoots,
    RankTooLow,
    SizeMismatch,
    UnknownRoot,
    UnsupportedType,
)
from .exactring import BaseRing, MultiPoly, add_product, sum_of_products

Root = tuple  # integer vector in the ambient basis


def _dot(a: Root, b: Root) -> int:
    return sum(x * y for x, y in zip(a, b))


# type -> the sign of J[i][i*] from the rank on in the form J kept; 0: none
FORM_SIGN = {"A": 0, "C": -1}


def model_size(kind: str, rank: int) -> int:
    """kind's matrix size at rank, else UnsupportedType, then RankTooLow."""
    if kind not in FORM_SIGN:
        raise UnsupportedType("type must be %s, got %r" % (" or ".join(FORM_SIGN), kind))
    if rank < 2:
        raise RankTooLow("isotropic rank >= 2 required, got rank %d" % rank)
    return 2 * rank if FORM_SIGN[kind] else rank + 1


class RootSystem:
    """Roots, Cartan pairings, and the unipotent matrix model for one type."""

    def __init__(self, kind: str, rank: int):
        self.matrix_size = size = model_size(kind, rank)
        self.kind, self.rank, self.form = kind, rank, FORM_SIGN[kind]
        star, eps = self.partner, self.eps
        # coordinate i has weight w(i) = eps(i) e_j, j = i where eps(i) = 1
        # and j = i* where eps(i) = -1; E(r, c) has weight w(r) - w(c).  With
        # a form, a unipotent pairs E(r, c) with -eps(r) eps(c) E(c*, r*), the
        # smaller row first, and is E(r, c) alone where c = r*
        w = [[0] * (rank if self.form else size) for _ in range(size)]
        for i in range(size):
            w[i][i if eps(i) > 0 else star(i)] = eps(i)
        terms = {}
        for r in range(size):
            for c in range(size):
                a = tuple(x - y for x, y in zip(w[r], w[c]))
                if r != c and a not in terms:
                    terms[a] = ((r, c, 1),)
                    if self.form and c != star(r):
                        terms[a] += ((star(c), star(r), -eps(r) * eps(c)),)
        self.roots: tuple = tuple(sorted(terms, reverse=True))
        # the bound on |structure constant|: longest over shortest squared length
        lengths = [_dot(a, a) for a in self.roots]
        self.length_ratio = max(lengths) // min(lengths)
        self._root_set = set(self.roots)
        # root -> tuple of (row, col, sign): x_root(t) = I + t * sum sign*E(row,col)
        self.unipotent_terms = {a: terms[a] for a in self.roots}
        # (row, col) of each root's first unipotent term -> the root
        self._root_at = {t[0][:2]: a for a, t in self.unipotent_terms.items()}
        # side -> root -> ((target row, target col, source row, source col,
        # sign), ...): x_root(t) on that side adds sign*t*source to target,
        # the first term's entries first.  No target is a source.
        n = range(size)
        self.moves = {
            "right": {a: tuple((i, c, i, r, s) for r, c, s in t for i in n)
                      for a, t in self.unipotent_terms.items()},
            "left": {a: tuple((r, j, c, j, s) for r, c, s in t for j in n)
                     for a, t in self.unipotent_terms.items()},
        }
        self._commutator_cache: dict = {}
        self._decomposition_cache: dict = {}
        # (root, root) -> whether the two unipotents commute, filled on use
        self._commutes: dict = {}

    # -- queries ---------------------------------------------------------------

    def check_root(self, v) -> Root:
        a = tuple(v)
        if a not in self._root_set:
            raise UnknownRoot("%r is not a root of %s%d" % (v, self.kind, self.rank))
        return a

    def root_at(self, row: int, col: int):
        """The root whose first unipotent term is E(row, col), or None.

        Every elimination move names the matrix position it changes; no
        two roots share a first term."""
        return self._root_at.get((row, col))

    def partner(self, i: int) -> int:
        """The coordinate the type-C form pairs with i (i* = size-1-i)."""
        return self.matrix_size - 1 - i

    def eps(self, i: int) -> int:
        """The sign of coordinate i in the form: J[i][i*] = eps(i), +1
        below the rank and where no form is kept, the table's sign from
        the rank on."""
        return self.form if self.form and i >= self.rank else 1

    def pairing(self, beta: Root, alpha: Root) -> int:
        """Cartan integer <beta, alpha> = 2 (beta, alpha) / (alpha, alpha)."""
        num = 2 * _dot(beta, alpha)
        den = _dot(alpha, alpha)
        if num % den:
            raise ValueError("non-integral pairing; not roots of one system")
        return num // den

    def proportional(self, a: Root, b: Root) -> bool:
        return a == b or a == tuple(-x for x in b)

    def commutes(self, a: Root, b: Root) -> bool:
        """Whether x_a(s) x_b(t) = x_b(t) x_a(s) for all s, t: just when a, b are
        not proportional and no i*a + j*b (i, j > 0) is a root (Steinberg, section
        3); test_commutes_is_the_literal_swap_over_z_s_t proves it over Z[s, t]."""
        hit = self._commutes.get((a, b))
        if hit is None:
            self.check_root(a)
            self.check_root(b)
            hit = self._commutes[a, b] = not self.proportional(a, b) and not self.cone_roots(a, b)
        return hit

    def cone_roots(self, a: Root, b: Root):
        """Positive integer combinations i*a + j*b that are roots, ordered
        by (i + j, i).  At most {(1,1),(1,2),(2,1)} in types A and C."""
        out = []
        for i, j in ((1, 1), (1, 2), (2, 1)):
            g = tuple(i * x + j * y for x, y in zip(a, b))
            if g in self._root_set:
                out.append((i, j, g))
        return out

    def __repr__(self) -> str:
        return "RootSystem(%s, %d)" % (self.kind, self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootSystem):
            return NotImplemented
        return self.kind == other.kind and self.rank == other.rank


_ROOT_SYSTEM_CACHE: dict = {}


def build_root_system(kind: str, rank: int) -> RootSystem:
    """Construct (and memoize) the root system; rank below 2 is rejected."""
    key = (kind, rank)
    hit = _ROOT_SYSTEM_CACHE.get(key)
    if hit is None:
        hit = RootSystem(kind, rank)
        _ROOT_SYSTEM_CACHE[key] = hit
    return hit


# ---------------------------------------------------------------------------
# group matrices


class GroupMatrix:
    """Square polynomial matrix tagged with its root system.

    Membership (det = 1 for type A, M^T J M = J for type C) is not checked
    on construction.  The Euclidean entry points decide it by reducing;
    in factor_polynomial the verified word proves membership, and the full
    check runs only on the stall matrix of a failed search.
    All entries share one base ring and nvars, so products check them once.
    """

    __slots__ = ("rs", "entries")

    def __init__(self, rs: RootSystem, entries):
        rows = tuple(map(tuple, entries))
        size = rs.matrix_size
        if len(rows) != size or any(len(row) != size for row in rows):
            raise SizeMismatch("expected %dx%d matrix for %s" % (size, size, rs))
        self.rs = rs
        self.entries = rows
        first = rows[0][0]
        base, nvars = first.base, first.nvars
        for row in rows:
            for p in row:
                if p.base is not base or p.nvars != nvars:
                    first._check_compatible(p)

    @property
    def base(self) -> BaseRing:
        return self.entries[0][0].base

    @property
    def nvars(self) -> int:
        return self.entries[0][0].nvars

    @staticmethod
    def identity(rs: RootSystem, base: BaseRing, nvars: int) -> "GroupMatrix":
        size = rs.matrix_size
        zero = MultiPoly.zero(base, nvars)
        one = MultiPoly.const(base, nvars, 1)
        return GroupMatrix(
            rs,
            [[one if i == j else zero for j in range(size)] for i in range(size)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return self.rs == other.rs and self.entries == other.entries

    def is_identity(self) -> bool:
        one = self.base.one()
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if i == j:
                    if not (p.is_constant() and p.constant_term() == one):
                        return False
                elif not p.is_zero():
                    return False
        return True

    def is_constant(self) -> bool:
        return all(p.is_constant() for row in self.entries for p in row)

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.rs.matrix_size != other.rs.matrix_size:
            raise SizeMismatch("matrix sizes differ")
        a, b = self.entries, other.entries
        a[0][0]._check_compatible(b[0][0])
        if other.is_identity():  # the one pass-through: a residual, or g^{-1}(0) of a congruence g
            return self
        base, nvars = self.base, self.nvars
        cols = list(zip(*b))
        return GroupMatrix(
            self.rs, [[sum_of_products(zip(ai, col), base, nvars) for col in cols] for ai in a]
        )

    def rmul_unipotent(self, root: Root, t: MultiPoly) -> "GroupMatrix":
        """Fast product self * x_root(t)."""
        return self._moved(self.rs.moves["right"][root], t)

    def rmul_letters(self, letters) -> "GroupMatrix":
        """self * x_r1(t1) ... x_rk(tk), one rmul_unipotent per letter (ri, ti)."""
        m = self
        for root, t in letters:
            m = m.rmul_unipotent(root, t)
        return m

    def lmul_unipotent(self, root: Root, t: MultiPoly) -> "GroupMatrix":
        """Fast product x_root(t) * self."""
        return self._moved(self.rs.moves["left"][root], t)

    def _moved(self, moves, t: MultiPoly) -> "GroupMatrix":
        if t.is_zero():
            return self
        rows = [list(row) for row in self.entries]
        apply_moves(rows, moves, t)
        return GroupMatrix(self.rs, rows)

    def inverse(self) -> "GroupMatrix":
        eps, star, m = self.rs.eps, self.rs.partner, self.entries
        if self.rs.form:
            # M^{-1} = J^{-1} M^T J for M keeping the form J; J is a signed
            # permutation, so inv[i][j] = eps(i) eps(j) M[j*][i*]
            def entry(i, j):
                p = m[star(j)][star(i)]
                return p if eps(i) == eps(j) else -p
        else:
            # inv[i][j] = (-1)^(i+j) times the minor without row j and column
            # i; one memo of minors serves them all and the determinant, whose
            # expansion along row 0 leaves row 0's cofactors in it
            one, memo, full = MultiPoly.const(self.base, self.nvars, 1), {}, (1 << len(m)) - 1
            d = _minor(m, one, memo, full, full)
            if not (d.is_constant() and d.constant_term() == self.base.one()):
                raise NotInGroup("inverse only for determinant-1 matrices")

            def entry(i, j):
                c = _minor(m, one, memo, full & ~(1 << j), full & ~(1 << i))
                return c if (i + j) % 2 == 0 else -c

        size = self.rs.matrix_size
        return GroupMatrix(self.rs, [[entry(i, j) for j in range(size)] for i in range(size)])

    def substitute(self, assignment: dict, nvars_out: int | None = None) -> "GroupMatrix":
        return self.map_entries(lambda p: p.substitute(assignment, nvars_out))

    def dilate(self, var: int, c) -> "GroupMatrix":
        """Entrywise MultiPoly.dilate: the image under x_var -> c * x_var;
        with c = 1 it is self."""
        if not 0 <= var < self.nvars:
            raise ValueError("variable index %d out of range" % var)
        if type(c) is int and c == 1:
            return self
        return self.map_entries(lambda p: p.dilate(var, c))

    def at_zero(self, var: int) -> "GroupMatrix":
        return self.dilate(var, 0)

    def map_entries(self, fn) -> "GroupMatrix":
        return GroupMatrix(self.rs, [[fn(p) for p in row] for row in self.entries])


def apply_moves(rows: list, moves, t: MultiPoly) -> None:
    """rows <- one root unipotent x(t) applied in place, on the side its
    move table rs.moves[side][root] was taken from.

    rows is a list of row lists of MultiPoly over t's ring, checked once.
    Each sign*t * source is added to its target entry by add_product; no
    target is a source, and a zero source leaves its entry as the same
    object."""
    rows[0][0]._check_compatible(t)
    neg = None
    for ti, tj, si, sj, sign in moves:
        if sign < 0 and neg is None:
            neg = -t
        rows[ti][tj] = add_product(rows[ti][tj], t if sign > 0 else neg, rows[si][sj])


def _det(entries, one: MultiPoly) -> MultiPoly:
    """Division-free determinant of a square MultiPoly matrix; one is the
    unit of the entries' ring."""
    full = (1 << len(entries)) - 1
    return _minor(entries, one, {}, full, full)


def _minor(entries, one: MultiPoly, memo: dict, rows: int, cols: int) -> MultiPoly:
    """The minor of entries on the rows and the columns in the bitmasks
    rows and cols, of one size: expansion along the lowest row in rows,
    its signed products of minors summed by sum_of_products, memoised in
    memo on (rows, cols).  A module function, not a closure over itself,
    so a call leaves no reference cycle holding its memo."""
    if not rows:
        return one
    hit = memo.get((rows, cols))
    if hit is None:
        row = (rows & -rows).bit_length() - 1
        rest = rows & (rows - 1)
        pairs, sign = [], 1
        for c, p in enumerate(entries[row]):
            if cols >> c & 1:
                if not p.is_zero():
                    sub = _minor(entries, one, memo, rest, cols & ~(1 << c))
                    pairs.append((p if sign == 1 else -p, sub))
                sign = -sign
        hit = memo[rows, cols] = sum_of_products(pairs, one.base, one.nvars)
    return hit


def membership_check(matrix: GroupMatrix, rs: RootSystem) -> bool:
    """Exact invariant check of a GroupMatrix of rs's size (else
    SizeMismatch): M^T J M = J where rs keeps a form J, else det = 1."""
    m = matrix if matrix.rs is rs else GroupMatrix(rs, matrix.entries)
    if not rs.form:
        base = m.base
        d = _det(m.entries, MultiPoly.const(base, m.nvars, 1))
        return d.is_constant() and d.constant_term() == base.one()
    # M (-J M^T J) = I <=> M J M^T = J <=> M^T J M = J: a one-sided
    # inverse of a square matrix over a commutative ring is two-sided
    return (m * m.inverse()).is_identity()


# ---------------------------------------------------------------------------
# generators


def elem_unipotent(rs: RootSystem, alpha, t: MultiPoly) -> GroupMatrix:
    """The one-parameter root unipotent x_alpha(t)."""
    a = rs.check_root(alpha)
    return GroupMatrix.identity(rs, t.base, t.nvars).rmul_unipotent(a, t)


def weyl_and_torus(rs: RootSystem, alpha, u) -> tuple:
    """w_alpha(u) = x_a(u) x_{-a}(-1/u) x_a(u) and h_alpha(u) = w(u) w(1)^{-1}."""
    a = rs.check_root(alpha)
    neg = tuple(-x for x in a)
    if not isinstance(u, MultiPoly):
        raise NotAUnit("torus parameter must be a constant MultiPoly")
    if not u.is_constant():
        raise NotAUnit("torus parameter must be a constant")
    base, nvars, uc = u.base, u.nvars, u.constant_term()
    if not base.is_unit(uc):
        raise NotAUnit("%r is not a unit of %s" % (uc, base))

    def w(c):
        x, y = MultiPoly.const(base, nvars, c), MultiPoly.const(base, nvars, -base.unit_inverse(c))
        return GroupMatrix.identity(rs, base, nvars).rmul_letters([(a, x), (neg, y), (a, x)])

    w_u = w(uc)
    # w(1)^{-1} = x_a(-1) x_{-a}(1) x_a(-1) = w(-1)
    return w_u, w_u * w(-base.one())


def invert_letters(letters) -> list:
    """Letters (root, arg) of the inverse word: reversed, each argument negated."""
    return [(root, -arg) for root, arg in reversed(letters)]


def commutator_letters(p, q) -> list:
    """The letters of the commutator p q p^-1 q^-1 of letter lists p and q."""
    return p + q + invert_letters(p) + invert_letters(q)


# ---------------------------------------------------------------------------
# structure constants, derived from the model


def structure_constants(rs: RootSystem, alpha, beta):
    """Constants of [x_a(s), x_b(t)] = prod x_{ia+jb}(N_ij s^i t^j).

    Returns a tuple of (i, j, gamma, N) in the fixed order (i+j, i)
    ascending.  Derived once per ordered pair by formal expansion over
    Z[s, t], verified by re-multiplication, then cached; a failed check is
    a fault in the program and raises InternalCheckFailed.
    """
    a = rs.check_root(alpha)
    b = rs.check_root(beta)
    if rs.proportional(a, b):
        raise ProportionalRoots("structure constants need non-proportional roots")
    hit = rs._commutator_cache.get((a, b))
    if hit is not None:
        return hit
    base = BaseRing.integers()
    s = MultiPoly.variable(base, 2, 0)
    t = MultiPoly.variable(base, 2, 1)
    ident = GroupMatrix.identity(rs, base, 2)
    comm = ident.rmul_letters(commutator_letters([(a, s)], [(b, t)]))
    cone = rs.cone_roots(a, b)
    constants = []
    for i, j, gamma in cone:
        r0, c0, sign0 = rs.unipotent_terms[gamma][0]
        n = comm.entries[r0][c0].coefficient((i, j)) * sign0
        if n:
            constants.append((i, j, gamma, n))
    # verification: rebuild and compare against the literal commutator
    check = ident.rmul_letters([(gamma, (s**i * t**j).scale(n)) for i, j, gamma, n in constants])
    if check != comm:
        raise InternalCheckFailed("structure constant derivation failed for %r, %r" % (a, b))
    if any(abs(n) > rs.length_ratio for _, _, _, n in constants):
        raise InternalCheckFailed("constant out of range for type %s" % rs.kind)
    out = tuple(constants)
    rs._commutator_cache[(a, b)] = out
    return out


def commutator_expand(rs: RootSystem, alpha, beta, s: MultiPoly, t: MultiPoly, solve_for=None):
    """Letters (root, arg) of a word equal to x_a(s) x_b(t) x_a(-s) x_b(-t),
    exactly; zero arguments are left out.  The caller wraps them in an
    ElemWord where it wants one, as words sits above this module.

    With solve_for a root gamma of that word, the word equals instead its
    gamma letter: the commutator is pre . x_gamma(.) . post, so the letter
    is pre^-1 . x_a(s) x_b(t) x_a(-s) x_b(-t) . post^-1, and its argument
    is never built.
    """
    constants = structure_constants(rs, alpha, beta)
    letters = []
    cut = None
    for i, j, gamma, n in constants:
        if gamma == solve_for:
            cut = len(letters)
            continue
        arg = (s ** i) * (t ** j)
        arg = arg.scale(n)
        if not arg.is_zero():
            letters.append((gamma, arg))
    if solve_for is None:
        return letters
    if cut is None:
        raise UnknownRoot("%r is not a root of this commutator" % (solve_for,))
    pre, post = letters[:cut], letters[cut:]
    return invert_letters(pre) + commutator_letters([(alpha, s)], [(beta, t)]) + invert_letters(post)


def opposite_decomposition(rs: RootSystem, gamma):
    """A pair (d1, d2) and target index with gamma in the cone of (d1, d2),
    target constant +-1, and no root involved proportional to gamma.

    Used to rewrite x_gamma(t) as a commutator word when a conjugation by
    x_{-gamma} must be expanded.  Requires rank >= 2, which holds here.
    """
    g = rs.check_root(gamma)
    hit = rs._decomposition_cache.get(g)
    if hit is not None:
        return hit
    for d1 in rs.roots:
        if rs.proportional(d1, g):
            continue
        for d2 in rs.roots:
            if rs.proportional(d2, g) or rs.proportional(d1, d2):
                continue
            entry = [(i, j) for i, j, gg in rs.cone_roots(d1, d2) if gg == g]
            if not entry:
                continue
            constants = structure_constants(rs, d1, d2)
            cmap = {(i, j): n for i, j, _, n in constants}
            i0, j0 = entry[0]
            n0 = cmap.get((i0, j0), 0)
            if n0 in (1, -1) and 1 in (i0, j0):
                out = (d1, d2, i0, j0, constants)
                rs._decomposition_cache[g] = out
                return out
    raise UnknownRoot("no usable decomposition for %r" % (gamma,))
