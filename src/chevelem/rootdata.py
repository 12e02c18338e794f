"""Root systems of types A and C with their matrix models.

Type A_n is realized as SL_{n+1}; type C_n as Sp_{2n} with coordinates
ordered (1, ..., n, n*, ..., 1*) and the symplectic form pairing i with i*
(+1 in the upper right, -1 in the lower left).  Roots are integer vectors
in the ambient coordinate basis.

Chevalley structure constants are not transcribed from tables: they are
derived at build time by expanding commutators of the model's unipotent
matrices with formal arguments, and the derived product is re-multiplied
and compared against the literal commutator before use.
"""

from __future__ import annotations

from .errors import (
    NotAUnit,
    ProportionalRoots,
    RankTooLow,
    SizeMismatch,
    UnknownRoot,
    UnsupportedType,
)
from .exactring import BaseRing, MultiPoly

Root = tuple  # integer vector in the ambient basis


def _dot(a: Root, b: Root) -> int:
    return sum(x * y for x, y in zip(a, b))


class RootSystem:
    """Roots, Cartan pairings, and the unipotent matrix model for one type."""

    def __init__(self, kind: str, rank: int):
        if kind not in ("A", "C"):
            raise UnsupportedType("type must be A or C, got %r" % (kind,))
        if rank < 2:
            raise RankTooLow("isotropic rank >= 2 required, got rank %d" % rank)
        self.kind = kind
        self.rank = rank
        self.matrix_size = rank + 1 if kind == "A" else 2 * rank
        self.roots: tuple = self._build_roots()
        self._root_set = set(self.roots)
        # root -> tuple of (row, col, sign): x_root(t) = I + t * sum sign*E(row,col)
        self.unipotent_terms = {a: self._terms_for(a) for a in self.roots}
        # (row, col) of each root's first unipotent term -> the root
        self._root_at = {t[0][:2]: a for a, t in self.unipotent_terms.items()}
        self._commutator_cache: dict = {}
        self._decomposition_cache: dict = {}

    # -- construction -------------------------------------------------------

    def _build_roots(self):
        out = []
        if self.kind == "A":
            n = self.rank + 1
            for i in range(n):
                for j in range(n):
                    if i != j:
                        v = [0] * n
                        v[i], v[j] = 1, -1
                        out.append(tuple(v))
        else:
            n = self.rank
            for i in range(n):
                for j in range(n):
                    if i != j:
                        v = [0] * n
                        v[i], v[j] = 1, -1
                        out.append(tuple(v))
            for i in range(n):
                for j in range(i + 1, n):
                    for si in (1, -1):
                        v = [0] * n
                        v[i], v[j] = si, si
                        out.append(tuple(v))
            for i in range(n):
                for si in (1, -1):
                    v = [0] * n
                    v[i] = 2 * si
                    out.append(tuple(v))
        return tuple(sorted(out, reverse=True))

    def _terms_for(self, a: Root):
        if self.kind == "A":
            i = a.index(1)
            j = a.index(-1)
            return ((i, j, 1),)
        star = self.partner
        support = [(i, v) for i, v in enumerate(a) if v]
        if len(support) == 1:
            i, v = support[0]
            if v == 2:
                return ((i, star(i), 1),)
            return ((star(i), i, 1),)
        (i, vi), (j, vj) = support
        if vi == 1 and vj == -1:
            return ((i, j, 1), (star(j), star(i), -1))
        if vi == -1 and vj == 1:
            return ((j, i, 1), (star(i), star(j), -1))
        if vi == 1 and vj == 1:
            return ((i, star(j), 1), (j, star(i), 1))
        return ((star(j), i, 1), (star(i), j, 1))

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

    def pairing(self, beta: Root, alpha: Root) -> int:
        """Cartan integer <beta, alpha> = 2 (beta, alpha) / (alpha, alpha)."""
        num = 2 * _dot(beta, alpha)
        den = _dot(alpha, alpha)
        if num % den:
            raise ValueError("non-integral pairing; not roots of one system")
        return num // den

    def proportional(self, a: Root, b: Root) -> bool:
        return a == b or a == tuple(-x for x in b)

    def cone_roots(self, a: Root, b: Root):
        """Positive integer combinations i*a + j*b that are roots, ordered
        by (i + j, i).  At most {(1,1),(1,2),(2,1)} in types A and C."""
        out = []
        for i, j in ((1, 1), (1, 2), (2, 1)):
            g = tuple(i * x + j * y for x, y in zip(a, b))
            if g in self._root_set:
                out.append((i, j, g))
        out.sort(key=lambda t: (t[0] + t[1], t[0]))
        return out

    def __repr__(self) -> str:
        return "RootSystem(%s, %d)" % (self.kind, self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootSystem):
            return NotImplemented
        return self.kind == other.kind and self.rank == other.rank

    def __hash__(self):
        return hash((self.kind, self.rank))

    # -- symplectic form -------------------------------------------------------

    def form_matrix(self, base: BaseRing, nvars: int):
        """The invariant symplectic form J (type C only)."""
        if self.kind != "C":
            raise UnsupportedType("form matrix only exists for type C")
        size = self.matrix_size
        zero = MultiPoly.zero(base, nvars)
        one = MultiPoly.const(base, nvars, 1)
        J = [[zero] * size for _ in range(size)]
        for i in range(self.rank):
            J[i][self.partner(i)] = one
            J[self.partner(i)][i] = -one
        return J


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

    Membership (det = 1 for type A, M^T J M = J for type C) is checked by
    membership_check at the public entry points, not on every construction.
    """

    __slots__ = ("rs", "entries")

    def __init__(self, rs: RootSystem, entries):
        size = rs.matrix_size
        if len(entries) != size or any(len(row) != size for row in entries):
            raise SizeMismatch(
                "expected %dx%d matrix for %s" % (size, size, rs)
            )
        self.rs = rs
        self.entries = tuple(tuple(row) for row in entries)

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

    def __hash__(self):
        return hash(self.entries)

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
        size = len(a)
        zero = MultiPoly.zero(self.base, self.nvars)
        out = []
        for i in range(size):
            row = []
            ai = a[i]
            for j in range(size):
                acc = zero
                for k in range(size):
                    x = ai[k]
                    y = b[k][j]
                    if x.terms and y.terms:
                        acc = acc + x * y
                row.append(acc)
            out.append(row)
        return GroupMatrix(self.rs, out)

    def rmul_unipotent(self, root: Root, t: MultiPoly) -> "GroupMatrix":
        """Fast product self * x_root(t): sparse column updates."""
        if t.is_zero():
            return self
        rows = [list(row) for row in self.entries]
        column_update(rows, self.rs.unipotent_terms[root], t)
        return GroupMatrix(self.rs, rows)

    def lmul_unipotent(self, root: Root, t: MultiPoly) -> "GroupMatrix":
        """Fast product x_root(t) * self: sparse row updates."""
        if t.is_zero():
            return self
        rows = [list(row) for row in self.entries]
        row_update(rows, self.rs.unipotent_terms[root], t)
        return GroupMatrix(self.rs, rows)

    def det(self) -> MultiPoly:
        return _det(self.entries, *_one_zero(self.base, self.nvars))

    def inverse(self) -> "GroupMatrix":
        if self.rs.kind == "C":
            # M^{-1} = -J M^T J for symplectic M; J is a signed permutation,
            # so inv[i][j] = eps(i) eps(j) M[j*][i*] with eps = +1 below rank
            rank, star, m = self.rs.rank, self.rs.partner, self.entries
            size = self.rs.matrix_size

            def entry(i, j):
                p = m[star(j)][star(i)]
                return p if (i < rank) == (j < rank) else -p

            return GroupMatrix(
                self.rs, [[entry(i, j) for j in range(size)] for i in range(size)]
            )
        adj = self.adjugate()
        d = self.det()
        if not (d.is_constant() and d.constant_term() == self.base.one()):
            raise SizeMismatch("inverse only for determinant-1 matrices")
        return GroupMatrix(self.rs, adj)

    def adjugate(self) -> list:
        return _adjugate(self.entries, self.base, self.nvars)

    def substitute(self, assignment: dict, nvars_out: int | None = None) -> "GroupMatrix":
        return GroupMatrix(
            self.rs,
            [
                [p.substitute(assignment, nvars_out) for p in row]
                for row in self.entries
            ],
        )

    def at_zero(self, var: int) -> "GroupMatrix":
        z = MultiPoly.zero(self.base, self.nvars)
        return self.substitute({var: z}, nvars_out=self.nvars)

    def map_entries(self, fn) -> "GroupMatrix":
        return GroupMatrix(self.rs, [[fn(p) for p in row] for row in self.entries])


def row_update(rows: list, terms, t) -> None:
    """rows <- x(t) * rows in place, for a root with unipotent terms.

    rows is a list of row lists over any ring with + - * and is_zero
    (MultiPoly in this package); all products are taken before any row
    changes.  A zero source leaves its entry as the same object."""
    updates = []
    for r, c, sign in terms:
        coeff = t if sign == 1 else -t
        updates.append((r, [None if p.is_zero() else coeff * p for p in rows[c]]))
    for r, add in updates:
        rows[r] = [a if b is None else a + b for a, b in zip(rows[r], add)]


def column_update(rows: list, terms, t) -> None:
    """rows <- rows * x(t) in place; the column twin of row_update."""
    updates = []
    for r, c, sign in terms:
        coeff = t if sign == 1 else -t
        updates.append((c, [None if row[r].is_zero() else coeff * row[r] for row in rows]))
    for c, add in updates:
        for row, b in zip(rows, add):
            if b is not None:
                row[c] = row[c] + b


def _one_zero(base: BaseRing, nvars: int) -> tuple:
    return MultiPoly.const(base, nvars, 1), MultiPoly.zero(base, nvars)


def _det(entries, one, zero):
    """Division-free determinant: expansion with memo on column subsets.

    Entries may come from any commutative ring with + - * and is_zero;
    one and zero are its unit and zero."""
    size = len(entries)
    memo: dict = {}
    full = (1 << size) - 1

    def rec(row: int, colmask: int):
        if row == size:
            return one
        key = colmask
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = zero
        sign = 1
        for c in range(size):
            bit = 1 << c
            if not colmask & bit:
                continue
            p = entries[row][c]
            if not p.is_zero():
                sub = rec(row + 1, colmask & ~bit)
                term = p * sub
                acc = acc + (term if sign == 1 else -term)
            sign = -sign
        memo[key] = acc
        return acc

    return rec(0, full)


def _adjugate(entries, base: BaseRing, nvars: int) -> list:
    size = len(entries)
    one, zero = _one_zero(base, nvars)
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        rows = [entries[r] for r in range(size) if r != i]
        for j in range(size):
            minor = [
                [row[c] for c in range(size) if c != j] for row in rows
            ]
            d = _det(minor, one, zero) if minor else one
            out[j][i] = d if (i + j) % 2 == 0 else -d
    return out


def membership_check(matrix, rs: RootSystem) -> bool:
    """Exact invariant check: det = 1 (type A), M^T J M = J (type C)."""
    if isinstance(matrix, GroupMatrix):
        entries = matrix.entries
    else:
        entries = tuple(tuple(row) for row in matrix)
    size = rs.matrix_size
    if len(entries) != size or any(len(row) != size for row in entries):
        raise SizeMismatch("expected %dx%d matrix for %s" % (size, size, rs))
    base = entries[0][0].base
    nvars = entries[0][0].nvars
    if rs.kind == "A":
        d = _det(entries, *_one_zero(base, nvars))
        return d.is_constant() and d.constant_term() == base.one()
    J = rs.form_matrix(base, nvars)
    # J M is M's rows permuted by partner, the rows from rank on negated
    jm = [
        entries[rs.partner(i)] if i < rs.rank else [-p for p in entries[rs.partner(i)]]
        for i in range(size)
    ]
    lhs = (GroupMatrix(rs, list(zip(*entries))) * GroupMatrix(rs, jm)).entries
    return lhs == tuple(tuple(row) for row in J)


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
    base = u.base if isinstance(u, MultiPoly) else None
    if base is not None:
        if not u.is_constant():
            raise NotAUnit("torus parameter must be a constant")
        nvars = u.nvars
        uc = u.constant_term()
    else:
        raise NotAUnit("torus parameter must be a constant MultiPoly")
    if not base.is_unit(uc):
        raise NotAUnit("%r is not a unit of %s" % (uc, base))
    uinv = base.unit_inverse(uc)

    def w(val, val_inv):
        c = MultiPoly.const(base, nvars, val)
        cinv = MultiPoly.const(base, nvars, val_inv)
        m = GroupMatrix.identity(rs, base, nvars)
        m = m.rmul_unipotent(a, c)
        m = m.rmul_unipotent(neg, -cinv)
        m = m.rmul_unipotent(a, c)
        return m

    w_u = w(uc, uinv)
    one = base.one()
    # w(1)^{-1} = x_a(-1) x_{-a}(1) x_a(-1)
    c1 = MultiPoly.const(base, nvars, one)
    w1_inv = GroupMatrix.identity(rs, base, nvars)
    w1_inv = w1_inv.rmul_unipotent(a, -c1)
    w1_inv = w1_inv.rmul_unipotent(neg, c1)
    w1_inv = w1_inv.rmul_unipotent(a, -c1)
    return w_u, w_u * w1_inv


# ---------------------------------------------------------------------------
# structure constants, derived from the model


def structure_constants(rs: RootSystem, alpha, beta):
    """Constants of [x_a(s), x_b(t)] = prod x_{ia+jb}(N_ij s^i t^j).

    Returns a tuple of (i, j, gamma, N) in the fixed order (i+j, i)
    ascending.  Derived once per ordered pair by formal expansion over
    Z[s, t], verified by re-multiplication, then cached.
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
    comm = (
        ident.rmul_unipotent(a, s)
        .rmul_unipotent(b, t)
        .rmul_unipotent(a, -s)
        .rmul_unipotent(b, -t)
    )
    cone = rs.cone_roots(a, b)
    constants = []
    for i, j, gamma in cone:
        want = (i, j)
        r0, c0, sign0 = rs.unipotent_terms[gamma][0]
        coeff = comm.entries[r0][c0].terms.get(want, 0)
        n = coeff * sign0
        if n:
            constants.append((i, j, gamma, n))
    # verification: rebuild and compare against the literal commutator
    check = ident
    for i, j, gamma, n in constants:
        arg = (s ** i) * (t ** j)
        check = check.rmul_unipotent(gamma, arg.scale(n))
    if check != comm:
        raise AssertionError(
            "structure constant derivation failed for %r, %r" % (a, b)
        )
    limit = 1 if rs.kind == "A" else 2
    if any(abs(n) > limit for _, _, _, n in constants):
        raise AssertionError("constant out of range for type %s" % rs.kind)
    out = tuple(constants)
    rs._commutator_cache[(a, b)] = out
    return out


def commutator_expand(rs: RootSystem, alpha, beta, s: MultiPoly, t: MultiPoly):
    """Word equal to x_a(s) x_b(t) x_a(-s) x_b(-t), exactly."""
    from .words import ElemWord  # local import to avoid a cycle

    constants = structure_constants(rs, alpha, beta)
    letters = []
    for i, j, gamma, n in constants:
        arg = (s ** i) * (t ** j)
        arg = arg.scale(n)
        if not arg.is_zero():
            letters.append((gamma, arg))
    return ElemWord(rs, letters)


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
            cone = rs.cone_roots(d1, d2)
            entry = [(i, j) for i, j, gg in cone if gg == g]
            if not entry:
                continue
            if any(
                rs.proportional(gg, g) for i, j, gg in cone if gg != g
            ):
                continue
            try:
                constants = structure_constants(rs, d1, d2)
            except ProportionalRoots:
                continue
            cmap = {(i, j): n for i, j, _, n in constants}
            i0, j0 = entry[0]
            n0 = cmap.get((i0, j0), 0)
            if n0 in (1, -1) and 1 in (i0, j0):
                out = (d1, d2, i0, j0, constants)
                rs._decomposition_cache[g] = out
                return out
    raise UnknownRoot("no usable decomposition for %r" % (gamma,))
