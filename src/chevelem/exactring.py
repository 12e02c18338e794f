"""Exact base-ring and multivariate polynomial arithmetic.

Everything here is integer/rational arithmetic; there is no floating point
anywhere in the package.  Supported coefficient rings: the integers, the
integers mod m, prime fields, the rationals, and the integers with a single
element s inverted (fractions whose denominators divide a power of s).

Polynomials are sparse maps from exponent tuples to nonzero coefficients,
canonically ordered graded-lexicographically (x1 > x2 > ...) for text
emission.  The text grammar accepted and emitted here is the substrate of
every file format in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add

from .errors import (
    BaseMismatch,
    NotAUnit,
    NotMonic,
    ParseError,
)

KIND_INTEGERS = "Z"
KIND_MOD = "Zmod"
KIND_PRIME_FIELD = "Fp"
KIND_RATIONALS = "Q"
KIND_LOCALIZED = "Zloc"


def _s_smooth(n: int, s: int) -> bool:
    """True iff the positive integer n divides a power of s."""
    while n > 1:
        g = gcd(n, s)
        if g == 1:
            return False
        while n % g == 0:
            n //= g
    return True


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class BaseRing:
    """One of the effective coefficient rings.

    kind/param pairs: ("Z", None), ("Zmod", m), ("Fp", p), ("Q", None),
    ("Zloc", s).  Elements are plain ints (Z, Zmod, Fp) or Fractions
    (Q, Zloc); Zloc fractions are kept in lowest terms with denominators
    dividing a power of s, which is a unique normal form.  modulus is m
    or p for Zmod and Fp, else None; it is set once, from kind and param.
    """

    kind: str
    param: int | None = None
    modulus: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = self.param if self.kind in (KIND_MOD, KIND_PRIME_FIELD) else None
        object.__setattr__(self, "modulus", m)

    @staticmethod
    def integers() -> "BaseRing":
        return BaseRing(KIND_INTEGERS)

    @staticmethod
    def integers_mod(m: int) -> "BaseRing":
        if m < 2:
            raise ValueError("modulus must be at least 2")
        return BaseRing(KIND_MOD, m)

    @staticmethod
    def prime_field(p: int) -> "BaseRing":
        if not _is_prime(p):
            raise ValueError("prime field needs a prime modulus, got %r" % (p,))
        return BaseRing(KIND_PRIME_FIELD, p)

    @staticmethod
    def rationals() -> "BaseRing":
        return BaseRing(KIND_RATIONALS)

    @staticmethod
    def integers_localized(s: int) -> "BaseRing":
        if s == 0:
            raise ValueError("cannot invert zero")
        return BaseRing(KIND_LOCALIZED, abs(s))

    @property
    def is_field(self) -> bool:
        return self.kind in (KIND_PRIME_FIELD, KIND_RATIONALS)

    def zero(self):
        return self.normalize(0)

    def one(self):
        return self.normalize(1)

    def normalize(self, c):
        """The element of this ring equal to the int or exact rational c.

        Raises BaseMismatch when there is none: a denominator that is not
        1 over Z, not invertible mod m, or not dividing a power of s.
        """
        m = self.modulus
        if isinstance(c, int):
            if m is not None:
                return c % m
            return c if self.kind == KIND_INTEGERS else Fraction(c)
        q = c if isinstance(c, Fraction) else Fraction(c)
        den = q.denominator
        if m is not None:
            if gcd(den, m) != 1:
                raise BaseMismatch("denominator %d not invertible mod %d" % (den, m))
            return q.numerator * pow(den, -1, m) % m
        if self.kind == KIND_INTEGERS:
            if den != 1:
                raise BaseMismatch("%s is not an integer" % (q,))
            return q.numerator
        if self.kind == KIND_LOCALIZED and not _s_smooth(den, self.param):
            raise BaseMismatch("denominator %d has factors outside Z[1/%d]" % (den, self.param))
        return q

    from_int = normalize  # the older name, still called by bench/workloads.py

    def is_unit(self, c) -> bool:
        c = self.normalize(c)
        if self.kind == KIND_INTEGERS:
            return c in (1, -1)
        if self.kind == KIND_MOD:
            return gcd(c, self.param) == 1
        if self.kind == KIND_PRIME_FIELD:
            return c % self.param != 0
        if self.kind == KIND_RATIONALS:
            return c != 0
        # Zloc: units are +-(divisors of s^k)
        return c != 0 and _s_smooth(abs(c.numerator), self.param)

    def unit_inverse(self, c):
        if not self.is_unit(c):
            raise NotAUnit("%r is not a unit of %s" % (c, self))
        if self.kind == KIND_INTEGERS:
            return c
        if self.kind in (KIND_MOD, KIND_PRIME_FIELD):
            return pow(c % self.param, -1, self.param)
        return Fraction(1) / Fraction(c)

    def __str__(self) -> str:
        if self.kind == KIND_INTEGERS:
            return "Z"
        if self.kind == KIND_RATIONALS:
            return "Q"
        if self.kind == KIND_MOD:
            return "Z/%d" % self.param
        if self.kind == KIND_PRIME_FIELD:
            return "F%d" % self.param
        return "Z[1/%d]" % self.param


def base_ring_from_str(text: str) -> BaseRing:
    """Inverse of str(BaseRing); used by all file headers."""
    t = text.strip()
    if t == "Z":
        return BaseRing.integers()
    if t == "Q":
        return BaseRing.rationals()
    if t.startswith("Z/"):
        return BaseRing.integers_mod(int(t[2:]))
    if t.startswith("F"):
        return BaseRing.prime_field(int(t[1:]))
    if t.startswith("Z[1/") and t.endswith("]"):
        return BaseRing.integers_localized(int(t[4:-1]))
    raise ParseError("unknown base ring %r" % (text,))


class MultiPoly:
    """Sparse exact multivariate polynomial over a BaseRing.

    Immutable by contract: never mutate `terms` after construction.
    """

    __slots__ = ("base", "nvars", "terms", "_hash")

    def __init__(self, base: BaseRing, nvars: int, terms: dict, normalized: bool = False):
        self.base = base
        self.nvars = nvars
        if normalized:
            self.terms = terms
        else:
            clean = {}
            for exps, c in terms.items():
                c = base.normalize(c)
                if c != 0:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple %r has wrong length" % (exps,))
                    clean[tuple(exps)] = c
            self.terms = clean
        self._hash = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(base: BaseRing, nvars: int) -> "MultiPoly":
        return MultiPoly(base, nvars, {}, normalized=True)

    @staticmethod
    def const(base: BaseRing, nvars: int, value) -> "MultiPoly":
        c = base.normalize(value)
        if c == 0:
            return MultiPoly.zero(base, nvars)
        return MultiPoly(base, nvars, {(0,) * nvars: c}, normalized=True)

    @staticmethod
    def variable(base: BaseRing, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range" % index)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return MultiPoly(base, nvars, {exps: base.one()}, normalized=True)

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.base.zero())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def coefficients(self):
        return self.terms.values()

    def _check_compatible(self, other: "MultiPoly") -> None:
        same_base = self.base is other.base or self.base == other.base
        if not same_base or self.nvars != other.nvars:
            raise BaseMismatch(
                "operands over %s[%d vars] vs %s[%d vars]"
                % (self.base, self.nvars, other.base, other.nvars)
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        _fold(out, other.terms, self.base.modulus)
        return MultiPoly(self.base, self.nvars, out, normalized=True)

    def __neg__(self) -> "MultiPoly":
        m = self.base.modulus
        if m is None:
            out = {e: -c for e, c in self.terms.items()}
        else:
            out = {e: (-c) % m for e, c in self.terms.items()}
        return MultiPoly(self.base, self.nvars, out, normalized=True)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = _mul_terms(self.terms, other.terms, self.base.modulus)
        return MultiPoly(self.base, self.nvars, out, normalized=True)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MultiPoly.const(self.base, self.nvars, 1)
        terms = _pow_terms(self.terms, n, (0,) * self.nvars, self.base.modulus)
        return MultiPoly(self.base, self.nvars, terms, normalized=True)

    def scale(self, c) -> "MultiPoly":
        """Multiply by a base-ring scalar."""
        c = self.base.normalize(c)
        if c == 0:
            return MultiPoly.zero(self.base, self.nvars)
        m = self.base.modulus
        out = {}
        for e, c0 in self.terms.items():
            v = c0 * c
            if m is not None:
                v %= m
            if v:
                out[e] = v
        return MultiPoly(self.base, self.nvars, out, normalized=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            (self.base is other.base or self.base == other.base)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.base, self.nvars, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        return "MultiPoly(%s, %s)" % (self.base, self.to_text())

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: dict, nvars_out: int | None = None) -> "MultiPoly":
        """Ring-homomorphism image under var index -> MultiPoly.

        Unassigned variables map to themselves (the output must have at
        least that many variables).  All images share one base ring.

        Works on term dicts: unassigned variables keep their exponents,
        each power of an image is built once per call, and every scaled
        term folds in place into one accumulator, so the cost is linear
        in the terms each product makes.
        """
        base, m = self.base, self.base.modulus
        if nvars_out is None:
            nvars_out = max(
                [self.nvars] + [img.nvars for img in assignment.values()]
            )
        images = {}
        for v, img in assignment.items():
            if img.base is not base and img.base != base:
                raise BaseMismatch("substitution image over %s, poly over %s" % (img.base, base))
            images[v] = img.extend_vars(nvars_out).terms
        free = [v for v in range(self.nvars) if v not in images]
        for v in free:
            if v >= nvars_out:
                raise BaseMismatch("variable x%d has no slot in the output ring" % (v + 1,))
        zero = (0,) * nvars_out
        out: dict = {}
        powers: dict = {}
        for exps, c in self.terms.items():
            prod = None
            for v, e in enumerate(exps):
                if e and v in images:
                    pw = powers.get((v, e))
                    if pw is None:
                        pw = powers[(v, e)] = _pow_terms(images[v], e, zero, m)
                    prod = pw if prod is None else _mul_terms(prod, pw, m)
            kept = tuple(exps[v] if v in free else 0 for v in range(nvars_out)) if free else zero
            if prod is None:
                prod = {zero: 1}
            _fold(out, {tuple(map(add, kept, e)): c * t for e, t in prod.items()}, m)
        return MultiPoly(base, nvars_out, out, normalized=True)

    def extend_vars(self, nvars: int) -> "MultiPoly":
        if nvars < self.nvars:
            raise ValueError("extend_vars cannot shrink")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        out = {e + pad: c for e, c in self.terms.items()}
        return MultiPoly(self.base, nvars, out, normalized=True)

    def shrink_vars(self, nvars: int) -> "MultiPoly":
        """Drop trailing variables, which must not occur."""
        if nvars > self.nvars:
            raise ValueError("shrink_vars cannot grow")
        out = {}
        for e, c in self.terms.items():
            if any(e[nvars:]):
                raise BaseMismatch("variable beyond x%d still occurs" % nvars)
            out[e[:nvars]] = c
        return MultiPoly(self.base, nvars, out, normalized=True)

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        return emit_poly(self)


# ---------------------------------------------------------------------------
# annihilators and s-valuations


def annihilator_exponent(base: BaseRing, d, s):
    """Smallest n >= 0 with s^n * d = 0 in the base ring, or None.

    Domains are answered analytically; for Z/m the search bound is the
    exponent of m, which is exact, so None is a definitive answer there.
    """
    d = base.normalize(d)
    s = base.normalize(s)
    if d == 0:
        return 0
    m = base.modulus
    if m is None or base.kind == KIND_PRIME_FIELD:
        # domain: s^n * d = 0 forces d = 0 unless s is nilpotent (only s=0)
        if s == 0:
            return 1
        return None
    acc = d
    for n in range(max(1, m.bit_length()) + 1):
        if acc == 0:
            return n
        acc = (acc * s) % m
    return None


def s_valuation(base: BaseRing, c, s: int) -> int | None:
    """Largest v with c / s^v still s-integral (negative when c has
    denominators).  None for c = 0 (infinite valuation)."""
    c = base.normalize(c)
    if c == 0:
        return None
    if s in (1, -1):
        return 0
    s = abs(s)
    num, den = abs(c.numerator), c.denominator
    v = 0
    while num % s == 0:
        num //= s
        v += 1
    e = 0
    if den > 1:
        if not _s_smooth(den, s):
            raise BaseMismatch("denominator %d not supported by s=%d" % (den, s))
        power = 1
        while power % den != 0:
            power *= s
            e += 1
    return v - e


def poly_s_valuation(p: MultiPoly, s: int) -> int | None:
    """Minimum s-valuation over all coefficients; None if p = 0."""
    vals = [s_valuation(p.base, c, s) for c in p.coefficients()]
    vals = [v for v in vals if v is not None]
    if not vals:
        return None
    return min(vals)


def denominator_lcm(p: MultiPoly) -> int:
    """LCM of coefficient denominators (1 for integral polynomials)."""
    out = 1
    for c in p.coefficients():
        d = c.denominator
        out = out * d // gcd(out, d)
    return out


# ---------------------------------------------------------------------------
# base changes


def convert(p: MultiPoly, new_base: BaseRing) -> MultiPoly:
    """Exact coefficient conversion; raises BaseMismatch when lossy.

    Supported directions: into Q from anything fraction-valued or Z;
    Z -> Zmod/Fp/Zloc; Q/Zloc -> Z (integrality checked), Q -> Zloc
    (denominators checked), Zloc -> Zloc (checked), Q/Zloc -> Zmod/Fp
    (denominator invertibility checked).
    """
    if p.base == new_base:
        return p
    if p.base.modulus is not None:
        m2 = new_base.modulus
        if m2 is None or p.base.modulus % m2 != 0:
            raise BaseMismatch("no ring map %s -> %s" % (p.base, new_base))
    out = {}
    for e, c in p.terms.items():
        c = new_base.normalize(c)
        if c:
            out[e] = c
    return MultiPoly(new_base, p.nvars, out, normalized=True)


# ---------------------------------------------------------------------------
# monic division


def monic_divrem(g: MultiPoly, f: MultiPoly):
    """Exact division g = q*f + r with deg_x1(r) < deg_x1(f).

    f must be monic in x1: its leading coefficient with respect to x1 is
    the constant 1.
    """
    g._check_compatible(f)
    df = f.degree_in(0)
    if df < 0:
        raise NotMonic("zero divisor polynomial")
    lead = _coeff_in_x1(f, df)
    if not (lead.is_constant() and lead.constant_term() == g.base.one()):
        raise NotMonic("leading coefficient in x1 is not 1")
    base, nv = g.base, g.nvars
    q = MultiPoly.zero(base, nv)
    r = g
    while True:
        dr = r.degree_in(0)
        if r.is_zero() or dr < df:
            return q, r
        lead_r = _coeff_in_x1(r, dr)
        shift = (dr - df,) + (0,) * (nv - 1)
        mono = MultiPoly(base, nv, {shift: base.one()})
        qt = lead_r * mono
        q = q + qt
        r = r - qt * f


def _coeff_in_x1(p: MultiPoly, deg: int) -> MultiPoly:
    out = {}
    for e, c in p.terms.items():
        if e[0] == deg:
            out[(0,) + e[1:]] = c
    return MultiPoly(p.base, p.nvars, out)


# ---------------------------------------------------------------------------
# text grammar: integer (or integer/integer) literals, x1..x9, + - * / ^, parens


def emit_poly(p: MultiPoly) -> str:
    if not p.terms:
        return "0"
    if p.nvars > 9:
        raise ParseError("text form supports at most 9 variables")
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    pieces = []
    for e, c in items:
        mono = "*".join(
            "x%d" % (i + 1) if k == 1 else "x%d^%d" % (i + 1, k)
            for i, k in enumerate(e)
            if k
        )
        neg = c < 0
        ca = -c if neg else c
        if mono and ca == 1:
            body = mono
        elif mono:
            body = "%s*%s" % (_coeff_text(ca), mono)
        else:
            body = _coeff_text(ca)
        if not pieces:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def _coeff_text(c) -> str:
    q = Fraction(c)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


_TOKEN = re.compile(r"(\d+)|x([1-9])|([-+*/^()])|(\S)")
# the descent spends four Python frames per parenthesis level
_MAX_PAREN_DEPTH = 100


def _fold(acc: dict, terms: dict, m: int | None = None) -> None:
    """acc += terms in place (mod m when given), dropping coefficients that cancel."""
    for e, c in terms.items():
        v = acc.get(e, 0) + c
        if m is not None:
            v %= m
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


def _mul_terms(a: dict, b: dict, m: int | None = None) -> dict:
    """a * b on term dicts (mod m when given): the one product of term dicts."""
    if len(a) == 1 == len(b):
        ((e1, c1),), ((e2, c2),) = a.items(), b.items()
        c = c1 * c2 if m is None else c1 * c2 % m
        return {tuple(map(add, e1, e2)): c} if c else {}
    out: dict = {}
    b_terms = b.items()
    for e1, c1 in a.items():
        for e2, c2 in b_terms:
            e = tuple(map(add, e1, e2))
            v = out.get(e, 0) + c1 * c2
            if m is not None:
                v %= m
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _pow_terms(p: dict, n: int, zero: tuple, m: int | None = None) -> dict:
    """p**n on term dicts by repeated squaring; may return p itself."""
    if len(p) == 1:
        ((e, c),) = p.items()
        c = pow(c, n, m)
        return {tuple(k * n for k in e): c} if c else {}
    result, square = None, p
    while n:
        if n & 1:
            result = square if result is None else _mul_terms(result, square, m)
        n >>= 1
        square = _mul_terms(square, square, m) if n else square
    return {zero: 1} if result is None else result


def parse_poly(text: str, base: BaseRing, nvars: int) -> MultiPoly:
    """Parse the polynomial grammar over the rationals, then coerce.

    Works on {exponents: rational} dicts without zero coefficients: sums
    fold into one accumulator and a power of one term scales its exponents,
    so only products of parenthesised sums cost more than linear time.
    """
    toks = []
    for m in _TOKEN.finditer(text):
        num, var, op, bad = m.groups()
        if bad == "x":
            raise ParseError("bad variable at position %d in %r" % (m.start(), text))
        if bad is not None:
            raise ParseError("unexpected character %r in %r" % (bad, text))
        toks.append(("int", int(num)) if num else ("var", int(var) - 1) if var else (op, None))
    if text.count("(") > _MAX_PAREN_DEPTH and max(
        accumulate((k == "(") - (k == ")") for k, _ in toks)
    ) > _MAX_PAREN_DEPTH:
        raise ParseError("parentheses nested deeper than %d" % _MAX_PAREN_DEPTH)
    toks = [(None, None)] + toks[::-1]  # a stack: next token on top, end marker at the bottom
    zero = (0,) * nvars

    def expr() -> dict:
        acc = dict(term())
        while toks[-1][0] in ("+", "-"):
            t = term() if toks.pop()[0] == "+" else {e: -c for e, c in term().items()}
            _fold(acc, t)
        return acc

    def term() -> dict:
        node = factor()
        while toks[-1][0] in ("*", "/"):
            times = toks.pop()[0] == "*"
            rhs = factor()
            if times:
                node = _mul_terms(node, rhs)
            elif len(rhs) == 1 and zero in rhs:
                d = Fraction(rhs[zero])
                node = {e: c / d for e, c in node.items()}
            else:
                raise ParseError("division only by nonzero constants")
        return node

    def factor() -> dict:
        # unary minus binds looser than "^": -x1^2 is -(x1^2)
        negate = False
        while toks[-1][0] == "-":
            toks.pop()
            negate = not negate
        node = atom()
        if toks[-1][0] == "^":
            toks.pop()
            kind, n = toks.pop()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            node = _pow_terms(node, n, zero)
        return {e: -c for e, c in node.items()} if negate else node

    def atom() -> dict:
        kind, val = toks.pop()
        if kind == "int":
            return {zero: val} if val else {}
        if kind == "var":
            if val >= nvars:
                raise ParseError("variable x%d beyond declared nvars=%d" % (val + 1, nvars))
            return {zero[:val] + (1,) + zero[val + 1 :]: 1}
        if kind == "(":
            node = expr()
            if toks.pop()[0] != ")":
                raise ParseError("unbalanced parentheses")
            return node
        raise ParseError("unexpected token %r" % (kind,))

    p = expr()
    if toks[-1][0] is not None:
        raise ParseError("trailing tokens in %r" % (text,))
    terms = {e: base.normalize(c) for e, c in p.items()}
    return MultiPoly(base, nvars, {e: c for e, c in terms.items() if c}, normalized=True)
