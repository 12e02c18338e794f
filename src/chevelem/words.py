"""Elementary words: formal products of root unipotents.

A word is the only certificate format in this package: no matrix is ever
claimed to be a product of elementary generators without a word for it,
and words are always checkable by exact evaluation.  The layer both
searches and fileio share also holds FactorizationCertificate and Budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseMismatch, SizeMismatch
from .exactring import MAX_DEGREE, BaseRing, _fold_product, _mul_add, _poly, _reduced, convert
from .rootdata import GroupMatrix, RootSystem, invert_letters, membership_check


@dataclass(frozen=True)
class Budget:
    """Resource limits for searches; non-negative (zero means fail fast).

    max_letters, max_degree and max_coeff_bits bound localglobal's descent
    expansion at each of its pre-dilation levels; max_steps bounds each
    greedy pass of factorize and nothing else.
    """

    max_letters: int = 40000
    max_degree: int = 600
    max_coeff_bits: int = 200000
    max_steps: int = 800

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:
                raise TypeError("%s must be an int, not %s" % (name, type(value).__name__))
            if value < 0:
                raise ValueError("%s must not be negative" % name)


DEFAULT_BUDGET = Budget()


class ElemWord:
    """Ordered letters (root, argument) denoting the product of x_root(arg)."""

    __slots__ = ("rs", "letters")

    def __init__(self, rs: RootSystem, letters):
        checked = []
        base = None
        nvars = None
        for root, arg in letters:
            root = rs.check_root(root)
            if base is None:
                base, nvars = arg.base, arg.nvars
            elif arg.base is not base and arg.base != base or arg.nvars != nvars:
                raise BaseMismatch("word letters over mixed rings")
            checked.append((root, arg))
        self.rs = rs
        self.letters = tuple(checked)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElemWord):
            return NotImplemented
        return self.rs == other.rs and self.letters == other.letters

    def __repr__(self) -> str:
        inner = ", ".join(
            "x[%s](%s)" % (",".join(map(str, r)), a.to_text()) for r, a in self.letters
        )
        return "ElemWord(%s)" % inner

    def base_and_nvars(self):
        """Base ring and variable count of the arguments; Z[x1] when empty."""
        if self.letters:
            arg = self.letters[0][1]
            return arg.base, arg.nvars
        return BaseRing.integers(), 1

    def concat(self, *others: "ElemWord") -> "ElemWord":
        """self followed by others, in order, checked once as one word."""
        if any(self.rs != other.rs for other in others):
            raise BaseMismatch("words over different root systems")
        return ElemWord(self.rs, self.letters + tuple(x for other in others for x in other.letters))

    def max_degree(self) -> int:
        return max((arg.total_degree() for _, arg in self.letters), default=0)


@dataclass
class FactorizationCertificate:
    """g = eval(word) * residual_constant, with residual variable-free."""

    target: GroupMatrix
    word: ElemWord
    residual_constant: GroupMatrix
    verified: bool

    def check(self) -> bool:
        """Exact re-check: the residual is constant and in G(R), and
        eval(word) * residual equals the target."""
        res, g = self.residual_constant, self.target
        if not (res.is_constant() and membership_check(res, g.rs)):
            return False
        return eval_word(self.word, onto=res) == g


@dataclass(frozen=True)
class CongruenceTag:
    """Checked witness that a word evaluates to the identity at z -> 0."""

    variable: int
    holds: bool


def eval_word(
    w: ElemWord,
    base: BaseRing | None = None,
    nvars: int | None = None,
    onto: GroupMatrix | None = None,
) -> GroupMatrix:
    """Exact matrix product of the letters, in order; with onto, the
    product eval(w) * onto, without building eval(w).

    For the empty word the ambient ring is ambiguous; pass base/nvars
    explicitly or accept integers in one variable.  With onto the ring is
    onto's, letters over another ring raise BaseMismatch, and the empty
    word gives onto itself (tagged with w's root system).  Over Q
    and Z[1/s] each entry keeps its own denominator beside its terms.

    The degree cap is checked once per word: each letter is I + tX with
    X^2 = 0, so every entry of the product, and every product the fold
    makes, has total degree at most onto's largest plus the sum of the
    letters' degrees.  When that bound is at most MAX_DEGREE the kernel
    skips its per-call check; past it every call keeps its own, so
    DegreeOverflow is raised exactly when a product crosses the cap.
    """
    letters = w.letters
    if onto is None:
        if letters:
            base, nvars = letters[0][1].base, letters[0][1].nvars
        else:
            base = base or BaseRing.integers()
            nvars = 1 if nvars is None else nvars
        # the identity's term dicts; the letters share one ring (ElemWord)
        n = range(w.rs.matrix_size)
        rows = [[{0: 1} if i == j else {} for j in n] for i in n]
        dens = [[1 for _ in n] for _ in n]
        top = 0
    else:
        if onto.rs.matrix_size != w.rs.matrix_size:
            raise SizeMismatch("matrix sizes differ")
        if not letters:
            return onto if onto.rs is w.rs else GroupMatrix(w.rs, onto.entries)
        base, nvars = onto.base, onto.nvars
        # as GroupMatrix.__mul__ would check eval(w) against onto
        letters[0][1]._check_compatible(onto.entries[0][0])
        rows = [[dict(p.terms) for p in row] for row in onto.entries]
        dens = [[p.den for p in row] for row in onto.entries]
        top = max(p.total_degree() for row in onto.entries for p in row)
    check = top + sum(arg.total_degree() for _, arg in letters) > MAX_DEGREE
    # x_1 ... x_k * onto: each letter multiplies from the left, last first
    m, moves = base.modulus, w.rs.moves["left"]
    # apply_moves copies each entry, as the greedy keeps old matrices as
    # memo keys; these dicts are ours, only the kernel reads them, and no
    # move's target is a source, so letters fold in place
    for root, arg in reversed(letters):
        neg = None
        for ti, tj, si, sj, sign in moves[root]:
            src = rows[si][sj]
            if src:
                if sign < 0 and neg is None:
                    neg = -arg
                t, d = (arg if sign > 0 else neg).terms, arg.den * dens[si][sj]
                if d == dens[ti][tj] == 1:
                    _mul_add(rows[ti][tj], t, src, nvars, m, check)
                else:  # over Q or Z[1/s]: lowest terms when the denominator grows
                    old = dens[ti][tj]
                    den = _fold_product(rows[ti][tj], old, t, src, d, nvars)
                    if den != old:
                        rows[ti][tj], den = _reduced(rows[ti][tj], den)
                    dens[ti][tj] = den
    return GroupMatrix(
        w.rs, [[_poly(base, nvars, p, d) for p, d in zip(*row)] for row in zip(rows, dens)]
    )


def invert_word(w: ElemWord) -> ElemWord:
    return ElemWord(w.rs, invert_letters(w.letters))


def free_reduce(w: ElemWord) -> ElemWord:
    """Collect same-root letters across the letters they commute with, merge
    them by additivity and drop zero args (see reduce_letters)."""
    return ElemWord(w.rs, reduce_letters(w.rs, w.letters))


def reduce_letters(rs: RootSystem, letters) -> list:
    """free_reduce on a bare (root, arg) sequence over any ring with + and
    is_zero, for callers that have letters but no ElemWord yet.

    One pass over a stack: each letter scans back over the letters whose
    roots commute with its own (rs.commutes) and merges with the first
    letter of its root it meets; both drop out if the sum is zero, and a
    letter that meets none is pushed.  The result is a fixpoint: a merge
    that deletes stack[j] unblocks nothing, as every letter after j
    commutes with that root.  Cost: O(L^2) memoised rs.commutes lookups in
    the worst case, for L letters.
    """
    commutes = rs.commutes
    stack: list = []
    for root, arg in letters:
        if arg.is_zero():
            continue
        j = len(stack) - 1
        while j >= 0 and stack[j][0] != root and commutes(stack[j][0], root):
            j -= 1
        if j >= 0 and stack[j][0] == root:
            merged = stack[j][1] + arg
            if merged.is_zero():
                del stack[j]
            else:
                stack[j] = (root, merged)
        else:
            stack.append((root, arg))
    return stack


def map_word(w: ElemWord, hom) -> ElemWord:
    """Transport a word along a ring homomorphism, letterwise.

    hom is ("localize", s) for the localization map, or
    ("substitute", assignment[, nvars_out]) for a variable substitution.
    Evaluation commutes with the transport either way.
    """
    kind = hom[0]
    if kind == "localize":
        s = hom[1]
        if not w.letters:
            return w
        target = w.letters[0][1].base.localized(s)
        return ElemWord(w.rs, [(r, convert(a, target)) for r, a in w.letters])
    if kind == "substitute":
        assignment = hom[1]
        nvars_out = hom[2] if len(hom) > 2 else None
        return ElemWord(
            w.rs, [(r, a.substitute(assignment, nvars_out)) for r, a in w.letters]
        )
    raise ValueError("unknown homomorphism kind %r" % (kind,))


def congruence_check(w: ElemWord, z: int) -> CongruenceTag:
    """holds = True iff eval(w) becomes the identity under z -> 0."""
    if not w.letters:
        return CongruenceTag(variable=z, holds=True)
    return CongruenceTag(variable=z, holds=eval_word(w).at_zero(z).is_identity())

