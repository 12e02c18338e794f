"""An exact check of word certificates that shares no arithmetic with
the polynomial kernel.

It decides eval(W) * R == T for a word W, a constant residual R and a
target T.  Let D_v bound the degree in x_v of every entry of W * R - T.
Over an integral domain, a polynomial of degree at most D_v in each x_v
that vanishes at every point of {0..D_1} x ... x {0..D_n} is zero (Alon,
"Combinatorial Nullstellensatz", Combin. Probab. Comput. 8 (1999), Lemma
2.1), provided the points 0..D_v are distinct in the ring.  So the product
is compared with T at each such point, as a matrix of ints or Fractions:
over Z, Q and Z[1/s] always, over F_p only when p > every D_v, and reduced
mod p there.  Z/m is refused: it has zero divisors, and 4*x1*(x1 - 1)
vanishes at every point of Z/8.

The bounds are propagated through the letters with ints alone: a column
update c += t * r gives deg c <= max(deg c, deg t + deg r) in each
variable.  From the library only the matrix model (rs.unipotent_terms)
and the (exponent, coefficient) pairs of the polynomials are used.
"""

from fractions import Fraction
from itertools import product
from math import prod


def pairs(p) -> list:
    """(exponent tuple, coefficient) pairs of a polynomial."""
    return p.exponent_items()


def degrees(terms: list, nvars: int):
    """Per-variable degrees of a pair list, or None when it is zero."""
    if not terms:
        return None
    return tuple(max(e[v] for e, _ in terms) for v in range(nvars))


def join(a, b):
    """Bound of a sum: the larger degree in each variable."""
    if a is None or b is None:
        return b if a is None else a
    return tuple(map(max, a, b))


def value(terms: list, point: tuple) -> int:
    return sum(c * prod(x**k for x, k in zip(point, e)) for e, c in terms)


def word_bounds(model, letters: list, size: int, nvars: int) -> list:
    """Per-entry degree bounds of the product of the letters."""
    zero = (0,) * nvars
    deg = [[zero if i == j else None for j in range(size)] for i in range(size)]
    for root, arg in letters:
        dt = degrees(arg, nvars)
        if dt is None:
            continue
        for r, c, _ in model[root]:
            for row in deg:
                if row[r] is not None:
                    row[c] = join(row[c], tuple(x + y for x, y in zip(dt, row[r])))
    return deg


def word_at(model, letters: list, size: int, point: tuple) -> list:
    """The product of the letters as an int matrix at one point."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for root, arg in letters:
        t = value(arg, point)
        updates = [(c, sign * t, [row[r] for row in m]) for r, c, sign in model[root]]
        for c, f, src in updates:
            for row, s in zip(m, src):
                row[c] += f * s
    return m


def in_group(kind: str, m: list, p=None) -> bool:
    """det m = 1 (type A) or m^T J m = J (type C), over the rationals, or
    mod p when p is given and m holds ints."""
    size = len(m)

    def same(x, y) -> bool:
        return x == y if p is None else (x - y) % p == 0

    if kind == "C":
        # (m^T J m)[i][l] = sum over k of J[k][k*] m[k][i] m[k*][l], k* = size-1-k
        sign = [1 if k < size // 2 else -1 for k in range(size)]
        return all(
            same(
                sum(sign[k] * m[k][i] * m[size - 1 - k][l] for k in range(size)),
                sign[i] * (l == size - 1 - i),
            )
            for i in range(size)
            for l in range(size)
        )
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return same(0, 1)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return same(det, 1)


def check(rs, letters: list, residual: list, target: list, nvars: int, p=None) -> bool:
    """eval(W) * R == T with R constant and in G; letters are (root, pairs)
    and residual and target are matrices of pair lists.  Over F_p, p is
    given and every value is compared mod p; ValueError when some degree
    bound reaches p, where the grid would repeat a point."""
    size, model = rs.matrix_size, rs.unipotent_terms
    if any(any(e) for row in residual for q in row for e, _ in q):
        return False
    res = [[value(q, ()) if q else 0 for q in row] for row in residual]
    if not in_group(rs.kind, res, p):
        return False
    wdeg = word_bounds(model, letters, size, nvars)
    bound = None
    for i in range(size):
        for j in range(size):
            bound = join(bound, degrees(target[i][j], nvars))
            for k in range(size):
                if res[k][j]:
                    bound = join(bound, wdeg[i][k])
    bound = bound or (0,) * nvars
    if p is not None and max(bound) >= p:
        raise ValueError("a degree bound of %d needs a field of more than %d elements, not F%d"
                         % (max(bound), max(bound), p))
    for point in product(*(range(d + 1) for d in bound)):
        w = word_at(model, letters, size, point)
        for i in range(size):
            for j in range(size):
                diff = sum(w[i][k] * res[k][j] for k in range(size)) - value(target[i][j], point)
                if (diff if p is None else diff % p) != 0:
                    return False
    return True


def check_certificate(cert) -> bool:
    """check() on a FactorizationCertificate over Z, Q, Z[1/s] or F_p."""
    g = cert.target
    if g.base.kind == "Zmod":
        raise ValueError("the grid oracle refuses %s: it has zero divisors, so no grid "
                         "of points decides a polynomial identity there" % (g.base,))
    letters = [(root, pairs(arg)) for root, arg in cert.word.letters]
    residual = [[pairs(q) for q in row] for row in cert.residual_constant.entries]
    target = [[pairs(q) for q in row] for row in g.entries]
    return check(g.rs, letters, residual, target, g.nvars, g.base.modulus)
