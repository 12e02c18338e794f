"""Exact base-ring and multivariate polynomial arithmetic.

Everything here is integer/rational arithmetic; there is no floating point
anywhere in the package.  Supported coefficient rings: the integers, the
integers mod m, prime fields, the rationals, and the integers with a single
element s inverted (fractions whose denominators divide a power of s).

Polynomials are sparse maps from packed monomial keys to nonzero
coefficients; over Q and Z[1/s] the coefficients are int numerators over
one denominator, den, coprime to their content (Geddes, Czapor & Labahn,
Algorithms for Computer Algebra, ch. 2), so every product is on ints.
Keys are ((deg << W | e1) << W | e2) ... << W | en for exponents
e1..en of total degree deg and one field width W.  Integer order is the
graded-lex order (x1 > x2 > ...) of text emission, and keys multiply by +.
Degrees stay at most MAX_DEGREE = 2^(W-1) - 1, so no field carries and
each keeps a guard bit; past it a product raises DegreeOverflow and the
reader ParseError.  Only this module reads a key; MultiPoly.exponent_items
is the tuple view.  The text grammar accepted and emitted here is the
substrate of every file format in the package.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm, prod

from .errors import (
    BaseMismatch,
    DegreeOverflow,
    NotAUnit,
    ParseError,
)

KIND_INTEGERS = "Z"
KIND_MOD = "Zmod"
KIND_PRIME_FIELD = "Fp"
KIND_RATIONALS = "Q"
KIND_LOCALIZED = "Zloc"

_W = 21  # bits per exponent field; x1^1000000 still fits
_MASK = (1 << _W) - 1
MAX_DEGREE = (1 << _W - 1) - 1  # the top bit of each field is its guard


def _s_smooth(n: int, s: int) -> bool:
    """True iff the positive integer n divides a power of s."""
    while n > 1:
        g = gcd(n, s)
        if g == 1:
            return False
        while n % g == 0:
            n //= g
    return True


# the first twelve primes: as Miller-Rabin bases they decide primality
# exactly below 3.18e23 (Sorenson and Webster), past prime_field's cap
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < 3.18e23."""
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(r):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@dataclass(frozen=True)
class BaseRing:
    """One of the effective coefficient rings.

    kind/param pairs: ("Z", None), ("Zmod", m), ("Fp", p), ("Q", None),
    ("Zloc", s).  Elements are plain ints (Z, Zmod, Fp) or Fractions
    (Q, Zloc); Zloc fractions are kept in lowest terms with denominators
    dividing a power of s, which is a unique normal form.  modulus is m
    or p for Zmod and Fp, else None; fractional is true for Q and Zloc,
    whose polynomials keep a denominator.  Both are set once, from kind
    and param.
    """

    kind: str
    param: int | None = None
    modulus: int | None = field(init=False, compare=False, repr=False)
    fractional: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = self.param if self.kind in (KIND_MOD, KIND_PRIME_FIELD) else None
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "fractional", self.kind in (KIND_RATIONALS, KIND_LOCALIZED))

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
        if p >= 2**64:
            raise ValueError("prime field modulus must be below 2^64, got %r" % (p,))
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

    def one(self):
        return self.normalize(1)

    def normalize(self, c):
        """The element of this ring equal to the int or exact rational c.

        Raises BaseMismatch when there is none: a denominator that is not
        1 over Z, not invertible mod m, or not dividing a power of s.
        Strings and bools are not ring elements and raise TypeError.
        """
        m = self.modulus
        if type(c) is int:
            if m is not None:
                return c % m
            return c if self.kind == KIND_INTEGERS else Fraction(c)
        if type(c) is Fraction:
            q = c
        elif isinstance(c, (str, bool)):
            raise TypeError("a ring element is an int or a rational, not %r" % (c,))
        else:
            q = Fraction(c)
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
        c = self.normalize(c)
        if not self.is_unit(c):
            raise NotAUnit("%r is not a unit of %s" % (c, self))
        if self.kind == KIND_INTEGERS:
            return c
        if self.kind in (KIND_MOD, KIND_PRIME_FIELD):
            return pow(c % self.param, -1, self.param)
        return Fraction(1) / Fraction(c)

    def localized(self, s: int) -> "BaseRing":
        """The ring with s inverted: Z[1/s] from Z, Z[1/(t s)] from Z[1/t];
        Q, and F_p where s is nonzero, are their own localizations."""
        if self.kind == KIND_INTEGERS:
            return BaseRing.integers_localized(s)
        if self.kind == KIND_LOCALIZED:
            return BaseRing.integers_localized(self.param * s)
        if self.kind == KIND_RATIONALS:
            return self
        if self.kind == KIND_PRIME_FIELD:
            if s % self.param == 0:
                raise BaseMismatch("cannot invert 0 in %s" % self)
            return self
        raise BaseMismatch("no localization of %s at %r here" % (self, s))

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
    if not isinstance(text, str):
        raise ParseError("base ring must be a string, got %r" % (text,))
    return _base_ring(text)


@lru_cache(maxsize=64)
def _base_ring(text: str) -> BaseRing:
    """base_ring_from_str of a string, memoised: the files that name one
    base share one BaseRing, so their polynomials, _read_short's memo
    hits included, compare bases by identity."""
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

    The constructor packs a dict from exponent tuples (one int >= 0 per
    variable) to ints or exact rationals.  Over Q and Z[1/s] `terms` then
    holds int numerators over the denominator `den`, in lowest terms (den
    is 1 over the other rings); the accessors return ring elements.
    Immutable by contract: never mutate `terms` after construction.
    """

    __slots__ = ("base", "nvars", "terms", "den", "_hash")

    def __init__(self, base: BaseRing, nvars: int, terms: dict):
        self.base = base
        self.nvars = nvars
        packed = {}
        for exps, c in terms.items():  # every key, also one with a zero coefficient
            if type(exps) is not tuple or len(exps) != nvars or not (
                set(map(type, exps)) <= {int} and min(exps, default=0) >= 0
            ):
                raise ValueError("exponent tuple %r is not %d ints >= 0" % (exps, nvars))
            packed[_pack(exps)] = c
        terms = _coerced(packed, base)
        self.terms, self.den = _over_one_den(terms, base) if base.fractional else (terms, 1)
        self._hash = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(base: BaseRing, nvars: int) -> "MultiPoly":
        return _poly(base, nvars, {})

    @staticmethod
    def const(base: BaseRing, nvars: int, value) -> "MultiPoly":
        c = base.normalize(value)
        if c == 0:
            return MultiPoly.zero(base, nvars)
        if base.fractional:
            return _poly(base, nvars, {0: c.numerator}, c.denominator)
        return _poly(base, nvars, {0: c})

    @staticmethod
    def random(rng, base: BaseRing, nvars: int, max_terms: int, max_degree: int, bound: int):
        """1 to max_terms terms of degree <= max_degree in each variable and
        coefficients in [-bound, bound], drawn from rng."""
        terms: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            e = _pack(tuple(rng.randint(0, max_degree) for _ in range(nvars)))
            c = rng.randint(-bound, bound)
            if c:
                terms[e] = terms.get(e, 0) + c
        terms = _coerced(terms, base)
        return _poly(base, nvars, *(_over_one_den(terms, base) if base.fractional else (terms,)))

    @staticmethod
    def variable(base: BaseRing, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range" % index)
        key = _pack(tuple(int(i == index) for i in range(nvars)))
        return _poly(base, nvars, {key: 1})

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_term(self):
        c = self.terms.get(0, 0)
        return Fraction(c, self.den) if self.base.fractional else c

    def coefficient(self, exps: tuple):
        """The coefficient of the monomial with exponent tuple exps."""
        c = self.terms.get(_pack(tuple(exps)), 0)
        return Fraction(c, self.den) if self.base.fractional else c

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms) >> _W * self.nvars

    def degree_in(self, var: int) -> int:
        if not 0 <= var < self.nvars:
            raise ValueError("variable index %d out of range" % var)
        if not self.terms:
            return -1
        shift = _W * (self.nvars - 1 - var)
        return max(k >> shift & _MASK for k in self.terms)

    def coefficients(self):
        if self.base.fractional:
            den = self.den
            return [Fraction(c, den) for c in self.terms.values()]
        return self.terms.values()

    def exponent_items(self) -> list:
        """(exponent tuple, coefficient) pairs in term order: the tuple view
        of the packed keys, for readers outside this module."""
        n = self.nvars
        return [(_unpack(k, n), c) for k, c in zip(self.terms, self.coefficients())]

    def weighted_size(self, degw: int, bitw: int, minus_one: bool = False) -> int:
        """Sum over the terms of 1 + degw*deg^2 + bitw*bits, with deg the
        total degree and bits the coefficient's length; of self - 1, not
        built, when minus_one."""
        total, shift, den = 0, _W * self.nvars, self.den
        for k, c in self.terms.items():
            bits = abs(c).bit_length() + 1 if den == 1 else _bits(c, den)
            total += 1 + degw * (k >> shift) ** 2 + bitw * bits
        if minus_one:  # the constant term c becomes d = c - 1
            c = self.terms.get(0, 0)
            d = c - den if self.base.modulus is None else (c - 1) % self.base.modulus
            total += (1 + bitw * _bits(d, den) if d else 0) - (1 + bitw * _bits(c, den) if c else 0)
        return total

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
        out, den = dict(self.terms), self.den
        if den == other.den:
            _fold(out, other.terms, self.base.modulus)
        else:  # over Q or Z[1/s]: both over the lcm of the denominators
            den = _rescale(out, den, other.den)
            _fold(out, _times(other.terms, den // other.den))
        return _poly(self.base, self.nvars, out, den)

    def __neg__(self) -> "MultiPoly":
        m = self.base.modulus
        if m is None:
            out = {e: -c for e, c in self.terms.items()}
        else:
            out = {e: (-c) % m for e, c in self.terms.items()}
        return _poly(self.base, self.nvars, out, self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = _mul_terms(self.terms, other.terms, self.nvars, self.base.modulus)
        return _poly(self.base, self.nvars, out, self.den * other.den)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MultiPoly.const(self.base, self.nvars, 1)
        terms = _pow_terms(self.terms, n, self.nvars, self.base.modulus)
        return _poly(self.base, self.nvars, terms, self.den**n)

    def scale(self, c) -> "MultiPoly":
        """Multiply by a base-ring scalar."""
        c = self.base.normalize(c)
        if c == 0:
            return MultiPoly.zero(self.base, self.nvars)
        if c == 1:
            return self
        if c == -1:  # only without a modulus: mod m, -1 normalizes to m - 1
            return -self
        if self.base.fractional:
            out = _times(self.terms, c.numerator)
            return _poly(self.base, self.nvars, out, self.den * c.denominator)
        m = self.base.modulus
        out = {}
        for e, c0 in self.terms.items():
            v = c0 * c
            if m is not None:
                v %= m
            if v:
                out[e] = v
        return _poly(self.base, self.nvars, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            (self.base is other.base or self.base == other.base)
            and self.nvars == other.nvars
            and self.terms == other.terms
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:  # the hash of the coefficients as ring elements
            items = self.terms.items() if self.den == 1 else zip(self.terms, self.coefficients())
            self._hash = hash((self.base, self.nvars, frozenset(items)))
        return self._hash

    def __repr__(self) -> str:
        return "MultiPoly(%s, %s)" % (self.base, self.to_text())

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: dict, nvars_out: int | None = None) -> "MultiPoly":
        """Ring-homomorphism image under var index -> MultiPoly.

        Unassigned variables map to themselves (the output must have at
        least that many variables).  All images share one base ring.

        Works on term dicts: each key loses the fields of the assigned
        variables, read by shift and mask, and keeps the rest; each power
        of an image is built once per call, and every scaled term folds in
        place into one accumulator, so the cost is linear in the terms
        each product makes.  Over Q and Z[1/s] a term with x_v^e takes the
        factor d^(top-e) for an image with denominator d and top the degree
        in x_v, so that every term is over one denominator.

        The degree cap is checked once per call: every term's image has
        total degree at most deg(self) times the largest image degree (an
        unassigned variable is its own image, of degree 1).  When that
        bound is at most MAX_DEGREE the per-term products skip the
        kernel's check; past it each keeps its own, so DegreeOverflow is
        raised exactly when a product crosses the cap.
        """
        base, m, n = self.base, self.base.modulus, self.nvars
        if nvars_out is None:
            nvars_out = max([n] + [img.nvars for img in assignment.values()])
        images, dens = {}, {}
        for v, img in assignment.items():
            if img.base is not base and img.base != base:
                raise BaseMismatch("substitution image over %s, poly over %s" % (img.base, base))
            images[v], dens[v] = img.extend_vars(nvars_out).terms, img.den
        for v in range(nvars_out, n):
            if v not in images:
                raise BaseMismatch("variable x%d has no slot in the output ring" % (v + 1,))
        if not self.terms:
            return MultiPoly.zero(base, nvars_out)
        fields = [(v, _W * (n - 1 - v)) for v in sorted(images) if 0 <= v < n]
        clear = [(shift, dens[v], self.degree_in(v)) for v, shift in fields if dens[v] != 1]
        den = self.den * prod(d**top for _, d, top in clear)
        widen = _W * (nvars_out - n)  # negative when trailing variables go
        widest = max([1] + [img.total_degree() for img in assignment.values()])
        check = self.total_degree() * widest > MAX_DEGREE
        out: dict = {}
        powers: dict = {}
        for key, c in self.terms.items():
            for shift, d, top in clear:
                c *= d ** (top - (key >> shift & _MASK))
            factor = None
            for v, shift in fields:
                e = key >> shift & _MASK
                if e:
                    key -= (e << shift) + (e << _W * n)  # the field and its share of deg
                    pw = powers.get((v, e))
                    if pw is None:
                        pw = powers[(v, e)] = _pow_terms(images[v], e, nvars_out, m)
                    factor = pw if factor is None else _mul_terms(factor, pw, nvars_out, m)
            kept = key << widen if widen >= 0 else key >> -widen
            _mul_add(out, {kept: c}, {0: 1} if factor is None else factor, nvars_out, m, check)
        return _poly(base, nvars_out, out, den)

    def dilate(self, var: int, c) -> "MultiPoly":
        """Image under x_var -> c * x_var for a base-ring scalar c; with
        c = 0 it is the value at x_var = 0.

        A term map: each coefficient is multiplied by c^e[var] (mod m),
        and terms that vanish are dropped.  With c = 1 it is self, and
        with c = 0 it keeps the terms free of x_var.  Over Q and Z[1/s]
        c = n/d multiplies the numerators by n^e d^(top-e) and the
        denominator by d^top, top the degree in x_var.
        """
        if not 0 <= var < self.nvars:
            raise ValueError("variable index %d out of range" % var)
        m, den = self.base.modulus, self.den
        if type(c) is not int or m is not None:  # an int is in Z, Q and Z[1/s] as it is
            c = self.base.normalize(c)
        if c == 1:
            return self
        shift = _W * (self.nvars - 1 - var)
        if c == 0:
            out = {k: c0 for k, c0 in self.terms.items() if not k >> shift & _MASK}
            return _poly(self.base, self.nvars, out, den)
        top, d = 0, 1
        if self.base.fractional:
            c, d = c.numerator, c.denominator
            if d != 1 and self.terms:
                top = self.degree_in(var)
                den *= d**top
        out = {}
        for k, c0 in self.terms.items():
            e = k >> shift & _MASK
            if top:
                c0 *= d ** (top - e)
            if e:
                c0 = c0 * c ** e
                if m is not None:
                    c0 %= m
                if not c0:
                    continue
            out[k] = c0
        return _poly(self.base, self.nvars, out, den)

    def extend_vars(self, nvars: int) -> "MultiPoly":
        if nvars < self.nvars:
            raise ValueError("extend_vars cannot shrink")
        if nvars == self.nvars:
            return self
        shift = _W * (nvars - self.nvars)
        out = {k << shift: c for k, c in self.terms.items()}
        return _poly(self.base, nvars, out, self.den)

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        return emit_poly(self)


def _poly(base: BaseRing, nvars: int, terms: dict, den: int = 1) -> MultiPoly:
    """The MultiPoly of terms over den, both divided by their gcd."""
    if den != 1:
        terms, den = _reduced(terms, den)
    p = object.__new__(MultiPoly)
    p.base, p.nvars, p.terms, p.den, p._hash = base, nvars, terms, den, None
    return p


def _coerced(terms: dict, base: BaseRing) -> dict:
    """terms with each coefficient normalized into base, zeros dropped."""
    out = {}
    for e, c in terms.items():
        c = base.normalize(c)
        if c:
            out[e] = c
    return out


def _over_one_den(terms: dict, base: BaseRing) -> tuple:
    """(int numerators, den) of nonzero ints and Fractions of Q or Z[1/s]:
    den is the lcm of the denominators, so it is coprime to the content.
    A denominator outside Z[1/s] raises BaseMismatch as normalize does."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den != 1 and base.kind == KIND_LOCALIZED and not _s_smooth(den, base.param):
        _coerced(terms, base)  # names the first coefficient outside
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _reduced(terms: dict, den: int) -> tuple:
    """(terms, den) divided by the gcd of den and the numerators."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {k: c // g for k, c in terms.items()}, den // g
    return terms, den


def _rescale(terms: dict, den: int, d: int) -> int:
    """Rewrite terms over den, in place, over lcm(den, d), and return it."""
    new = lcm(den, d)
    if new != den:
        f = new // den
        for k in terms:
            terms[k] *= f
    return new


def _times(terms: dict, f: int) -> dict:
    """terms with each coefficient times the nonzero int f."""
    return terms if f == 1 else {k: c * f for k, c in terms.items()}


def _bits(c: int, den: int) -> int:
    """Length in bits, sign bit included, of c/den in lowest terms."""
    if den == 1:
        return abs(c).bit_length() + 1
    g = gcd(c, den)
    return abs(c // g).bit_length() + (den // g).bit_length()


def _pack(exps: tuple) -> int:
    """The packed key of an exponent tuple; DegreeOverflow past the cap."""
    key = sum(exps)
    _check_degree(key, 0)
    for e in exps:
        key = key << _W | e
    return key


def _unpack(key: int, nvars: int) -> tuple:
    """The exponent tuple of a packed key in nvars variables."""
    return tuple(key >> _W * (nvars - 1 - i) & _MASK for i in range(nvars))


def _check_degree(key: int, nvars: int) -> None:
    """DegreeOverflow when a key in nvars variables has degree past MAX_DEGREE."""
    deg = key >> _W * nvars
    if deg > MAX_DEGREE:
        raise DegreeOverflow("total degree %d exceeds the cap %d" % (deg, MAX_DEGREE))


def coeff_bits(p: MultiPoly) -> int:
    """The summed length in bits of p's coefficients, sign bits included."""
    den = p.den
    return sum(_bits(c, den) for c in p.terms.values())


# ---------------------------------------------------------------------------
# products and division, on whole polynomials


def add_product(p: MultiPoly, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """p + a*b, folded into one copy of p's terms; p itself when a or b is
    zero.  The operands are not checked against each other: callers pass
    entries of one matrix, which was checked once."""
    if not (a.terms and b.terms):
        return p
    base, acc = p.base, dict(p.terms)
    if not base.fractional or p.den == a.den == b.den == 1:
        _mul_add(acc, a.terms, b.terms, p.nvars, base.modulus)
        return _poly(base, p.nvars, acc)
    den = _fold_product(acc, p.den, a.terms, b.terms, a.den * b.den, p.nvars)
    return _poly(base, p.nvars, acc, den)


def _fold_product(acc: dict, den: int, a: dict, b: dict, d: int, nvars: int) -> int:
    """acc/den + a*b/d over Q or Z[1/s], folded into acc in place over
    the lcm of den and d, which is returned."""
    new = _rescale(acc, den, d)
    _mul_add(acc, _times(a, new // d), b, nvars)
    return new


def size_change(p: MultiPoly, a: MultiPoly, b: MultiPoly, sign: int, degw: int, bitw: int,
                minus_one: bool = False) -> int:
    """weighted_size(p + sign*a*b) - weighted_size(p) for sign +-1, with
    minus_one as in weighted_size, sized on the keys that a*b touches only:
    p is not copied and no MultiPoly is built.  The degree cap is checked
    as in add_product."""
    touched: dict = {}
    _mul_add(touched, a.terms, b.terms, p.nvars, p.base.modulus)
    m, shift, terms, den = p.base.modulus, _W * p.nvars, p.terms, p.den
    if p.base.fractional and den != a.den * b.den:  # the touched terms and p's over one den
        d = a.den * b.den
        common = lcm(den, d)
        terms = {k: terms.get(k, 0) * (common // den) for k in touched}
        touched, den = _times(touched, common // d), common
    delta = 0
    for k, v in touched.items():
        old = terms.get(k, 0)
        new = old + v if sign == 1 else old - v
        if minus_one and not k:  # the constant term is sized as c - 1
            old, new = old - den, new - den
        if m is not None:
            old, new = old % m, new % m
        if new and old:
            delta += bitw * (_bits(new, den) - _bits(old, den))
        elif new or old:
            size = 1 + degw * (k >> shift) ** 2 + bitw * _bits(new or old, den)
            delta += size if new else -size
    return delta


def sum_of_products(pairs, base: BaseRing, nvars: int) -> MultiPoly:
    """The sum of a*b over the (a, b) in pairs, all over base in nvars
    variables and, as in add_product, not checked against each other."""
    m = base.modulus
    acc, den = None, 1  # the first nonzero product starts the sum
    for a, b in pairs:
        x, y = a.terms, b.terms
        if x and y:
            d = a.den * b.den
            if acc is None:
                acc, den = _mul_terms(x, y, nvars, m), d
            elif d == den:
                _mul_add(acc, x, y, nvars, m)
            else:
                den = _fold_product(acc, den, x, y, d, nvars)
    return _poly(base, nvars, acc or {}, den)


def leading_term_division(a: MultiPoly, b: MultiPoly, limit=None):
    """Strip leading terms of a against b: the one polynomial division in
    the package, behind the greedy's candidates and the field Euclid.

    Stops early when a leading exponent or coefficient does not divide.
    Returns (partial, exact, first).  partial is the quotient found within
    the first 2*len(a)+8 steps; exact is the whole quotient when at most
    4*(len(a)+len(b)+4) steps leave no remainder, else None.  A given
    limit replaces both; math.inf runs the division to completion.  first
    is (leading monomial of a over that of b, with coefficient 1, leading
    coefficient of a, of b), or None when that monomial does not exist.
    The remainder is one term dict, less each quotient term times b.  A
    quotient key with an exponent below 0 borrows: a guard bit or the sign.
    Over Q and Z[1/s] the quotient and the remainder each keep one
    denominator, and the remainder is reduced to lowest terms each step."""
    base, nvars = a.base, a.nvars
    m = base.modulus
    if limit is None:
        partial_limit = 2 * len(a.terms) + 8
        limit = 4 * (len(a.terms) + len(b.terms) + 4)
    else:
        partial_limit = limit
    q_terms: dict = {}
    partial = first = None
    r, dr, db, dq = dict(a.terms), a.den, b.den, 1
    guard = ((1 << _W * nvars) - 1) // _MASK << _W - 1  # the top bit of each field
    lead_b = max(b.terms)
    cb = b.terms[lead_b]
    steps = 0
    while r and steps < limit:
        if steps == partial_limit:
            partial = dict(q_terms), dq
        steps += 1
        lead_r = max(r)
        cr = r[lead_r]
        exps = lead_r - lead_b
        if exps < 0 or exps & guard:
            break
        if first is None:
            lead = (Fraction(cr, dr), Fraction(cb, db)) if base.fractional else (cr, cb)
            first = (_poly(base, nvars, {exps: 1}),) + lead
        if base.fractional:  # (cr/dr) / (cb/db) = n/d in lowest terms, d > 0
            n, d = cr * db, dr * cb
            g = gcd(n, d) if d > 0 else -gcd(n, d)
            n, d = n // g, d // g
            if base.kind == KIND_LOCALIZED and not _s_smooth(d, base.param):
                break
            dq = _rescale(q_terms, dq, d)
            q_terms[exps] = n * (dq // d)
            dr = _fold_product(r, dr, {exps: -n}, b.terms, d * db, nvars)
            r, dr = _reduced(r, dr)
            continue
        if base.kind == KIND_PRIME_FIELD:
            coeff = cr * pow(cb, -1, m) % m
        elif base.kind == KIND_INTEGERS:
            coeff, rem = divmod(cr, cb)
            if rem:
                break
        else:
            try:
                coeff = base.normalize(Fraction(cr) / Fraction(cb))
            except BaseMismatch:
                break
        q_terms[exps] = coeff
        # every product key is at most lead_r, a key of r, so under the cap
        _mul_add(r, {exps: -coeff}, b.terms, nvars, m, False)
    q = _poly(base, nvars, q_terms, dq)
    part = q if partial is None else _poly(base, nvars, *partial)
    return part, (None if r else q), first


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


def _s_valuation(num: int, den: int, s: int) -> int:
    """The s-valuation of num/den, not 0: the largest v with num/den / s^v
    still s-integral, negative when num/den has a denominator; lowest
    terms not needed.  BaseMismatch for a denominator outside Z[1/s]."""
    if s in (1, -1):
        return 0
    s, g = abs(s), gcd(num, den)
    num, den = abs(num) // g, den // g
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
    return min((_s_valuation(c, p.den, s) for c in p.terms.values()), default=None)


def clearing_exponent(p: MultiPoly, z: int, s: int) -> int | None:
    """Smallest k >= 0 making p s-integral after x_z -> s^k x_z, or None
    when a term free of x_z has a coefficient that is not."""
    k, shift, den = 0, _W * (p.nvars - 1 - z), p.den
    for key, c in p.terms.items():
        if den == 1 or c % den == 0:
            continue
        # c/den is not integral: in lowest terms its denominator is s-smooth
        # and prime to the numerator, so s does not divide that and v < 0
        v = _s_valuation(c, den, s)
        cz = key >> shift & _MASK
        if cz == 0:
            return None
        k = max(k, (-v + cz - 1) // cz)
    return k


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
    den, m = p.den, new_base.modulus
    if p.base.modulus is not None:
        if m is None or p.base.modulus % m != 0:
            raise BaseMismatch("no ring map %s -> %s" % (p.base, new_base))
        return _poly(new_base, p.nvars, _coerced(p.terms, new_base))
    if new_base.fractional:
        if den == 1 or new_base.kind == KIND_RATIONALS or _s_smooth(den, new_base.param):
            return _poly(new_base, p.nvars, p.terms, den)
    elif den == 1:
        return _poly(new_base, p.nvars, p.terms if m is None else _coerced(p.terms, new_base))
    elif m is not None and gcd(den, m) == 1:
        return _poly(new_base, p.nvars, _coerced(_times(p.terms, pow(den, -1, m)), new_base))
    # a denominator that new_base lacks: normalize raises on the first one
    return MultiPoly(new_base, p.nvars, dict(p.exponent_items()))


# ---------------------------------------------------------------------------
# text grammar: integer (or integer/integer) literals, x1..x9, + - * / ^, parens


def emit_poly(p: MultiPoly) -> str:
    if not p.terms:
        return "0"
    if p.nvars > 9:
        raise ParseError("text form supports at most 9 variables")
    terms, nvars, den = p.terms, p.nvars, p.den
    pieces = []  # signed terms without spaces: " + -" occurs only where one is joined
    try:
        for key in sorted(terms, reverse=True):
            c = terms[key]
            if den != 1:  # c/den in lowest terms, as str() writes a Fraction
                g = gcd(c, den)
                c = c // g if g == den else "%d/%d" % (c // g, den // g)
            c = str(c)  # "n" or "n/d"
            mono = _chain_text(key, nvars)
            if not mono:
                pieces.append(c)
            elif c == "1":
                pieces.append(mono)
            elif c == "-1":
                pieces.append("-" + mono)
            else:
                pieces.append(c + "*" + mono)
    except ValueError as exc:  # str() refuses ints past sys.get_int_max_str_digits()
        raise ParseError("coefficient too long for polynomial text: %s" % exc) from None
    return " + ".join(pieces).replace(" + -", " - ")


@lru_cache(maxsize=4096)
def _chain_text(key: int, nvars: int) -> str:
    """The variable part of a packed key, such as "x1^3*x2" ("" for a
    constant): _chain_exponents inverted, and memoised."""
    exps = enumerate(_unpack(key, nvars), 1)
    return "*".join("x%d" % i if k == 1 else "x%d^%d" % (i, k) for i, k in exps if k)


# emit_poly's output language: an optional leading "-", then monomials
# joined by " + " / " - ", each n, n/d, n*X, n/d*X or X, where X is x_i
# or x_i^k factors joined by "*" (the chain _VARS matches), n and d ASCII
# digits and d without a leading 0.  _read_canonical checks this grammar
# piece by piece as it reads, in one linear pass, and parse_poly hands any
# other text to _parse_general.
_VARS = re.compile(r"x[1-9](?:\^[0-9]+)?(?:\*x[1-9](?:\^[0-9]+)?)*")


_TOKEN = re.compile(r"(\d+)|x([1-9])|([-+*/^()])|(\S)")
# the descent spends four Python frames per parenthesis level
_MAX_PAREN_DEPTH = 100
# monomial products that all the products of one general read may take (under 0.1 s)
MAX_PARSE_PRODUCTS = 115_000
# bits of the longest integer literal the reader takes (4300 digits, Python's int-string limit)
_MAX_LITERAL_BITS = (10**4300 - 1).bit_length()


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


def _mul_add(acc: dict, a: dict, b: dict, nvars: int, m: int | None = None,
             check: bool = True) -> None:
    """acc += a * b in place on term dicts in nvars variables (mod m when
    given), dropping coefficients that cancel as _fold does: the one
    product loop.

    Packed keys multiply by +; the largest product key is checked against
    the degree cap once per call, so no field carries.  A caller that has
    bounded the total degree of every product it makes by MAX_DEGREE
    passes check=False to skip that scan and check; with a bound past
    the cap it keeps the per-call check, so the call raises DegreeOverflow
    exactly when its own product crosses the cap."""
    if not a or not b:
        return
    if check:
        _check_degree(max(a) + max(b), nvars)
    get = acc.get
    b_terms = b.items()
    for e1, c1 in a.items():
        for e2, c2 in b_terms:
            e = e1 + e2
            v = get(e, 0) + c1 * c2
            if m is not None:
                v %= m
            if v:
                acc[e] = v
            elif e in acc:
                del acc[e]


def _mul_terms(a: dict, b: dict, nvars: int, m: int | None = None) -> dict:
    """a * b on term dicts in nvars variables (mod m when given), as a new dict."""
    if len(b) == 1:
        ((e2, c2),) = b.items()
        if c2 == 1 and not e2:  # a * 1, as an identity residual gives
            return dict(a)
        if len(a) == 1:
            ((e1, c1),) = a.items()
            e = e1 + e2
            _check_degree(e, nvars)
            c = c1 * c2 if m is None else c1 * c2 % m
            return {e: c} if c else {}
    out: dict = {}
    _mul_add(out, a, b, nvars, m)
    return out


def _pow_terms(p: dict, n: int, nvars: int, m: int | None = None, mul=_mul_terms) -> dict:
    """p**n on term dicts by repeated squaring with mul; may return p itself."""
    if n == 1:
        return p
    if len(p) == 1:
        ((e, c),) = p.items()
        _check_degree((e >> _W * nvars) * n, 0)  # the true degree, before a field can carry
        e *= n  # every field times n: no carry below the cap
        c = pow(c, n, m)
        return {e: c} if c else {}
    result, square = None, p
    while n:
        if n & 1:
            result = square if result is None else mul(result, square, nvars, m)
        n >>= 1
        square = mul(square, square, nvars, m) if n else square
    return {0: 1} if result is None else result


def _height(p: dict) -> int:
    """max(D, sum of |c|*D) over p's coefficients c, D their common
    denominator: the numerators and denominators of p*q are at most
    _height(p)*_height(q), those of p**n at most _height(p)**n.  For one
    term it is max(|numerator|, denominator)."""
    d = lcm(*(c.denominator for c in p.values()))
    return max(d, sum(abs(c.numerator) * (d // c.denominator) for c in p.values()))


def _check_height(h: int, n: int, what: str) -> None:
    """ParseError when h**n has more bits than the longest literal; a
    cheap lower bound first, so no int much past the cap is made."""
    cap = _MAX_LITERAL_BITS
    if n * (h.bit_length() - 1) >= cap or (h**n).bit_length() > cap:
        raise ParseError("a %s's coefficient exceeds %d bits, or may by its bound" % (what, cap))


def parse_poly(text: str, base: BaseRing, nvars: int, *, spent: list | None = None) -> MultiPoly:
    """Parse the polynomial grammar over the rationals, then coerce.

    Text in emit_poly's canonical form is read in one linear pass; any
    other text goes through the recursive descent of _parse_general.
    Both readers give int coefficients to text without a "/", which over
    Z are already normalized and so are kept as read; over Q and Z[1/s]
    the read coefficients go over one denominator at once.  spent, a one-item
    list, counts the monomial products of every text read with it, so
    MAX_PARSE_PRODUCTS bounds them together; by default each text alone.
    A canonical text of at most _SHORT_TEXT characters is read once per
    base and nvars and then served from _read_short's memo.
    """
    if not isinstance(text, str):
        raise TypeError("polynomial text must be a string, not %s" % type(text).__name__)
    if len(text) <= _SHORT_TEXT:
        p = _read_short(text, base, nvars)
        if p is not None:
            return p
    try:
        p = _read_canonical(text, nvars)
        if p is None:
            p = _parse_general(text, nvars, spent)
    except ValueError as exc:  # int() refuses literals past sys.get_int_max_str_digits()
        raise ParseError("integer literal too long in polynomial text: %s" % exc) from None
    except DegreeOverflow as exc:
        raise ParseError("polynomial text past the degree cap: %s" % exc) from None
    return _finished(p, text, base, nvars)


def _finished(terms: dict, text: str, base: BaseRing, nvars: int) -> MultiPoly:
    """The MultiPoly over base of the terms read from text."""
    if base.fractional:
        return _poly(base, nvars, *_over_one_den(terms, base))
    if base.kind != KIND_INTEGERS or "/" in text:
        terms = _coerced(terms, base)
    return _poly(base, nvars, terms)


# certificates repeat a few hundred short texts ("0", "1", small word
# arguments) thousands of times; a text this long or shorter is memoised
_SHORT_TEXT = 16


@lru_cache(maxsize=1024)
def _read_short(text: str, base: BaseRing, nvars: int) -> MultiPoly | None:
    """parse_poly of a short text _read_canonical accepts, or None for any
    other text.  A MultiPoly is immutable, so one can serve every read of
    its text; an exception (a coefficient outside base) is not memoised."""
    p = _read_canonical(text, nvars)
    return None if p is None else _finished(p, text, base, nvars)


_SIGNS = frozenset("+-")
# nvars -> {chain: _chain_exponents(chain, nvars)}, emptied when it holds
# _MAX_CHAINS: certificates repeat a few hundred chains
_CHAINS: defaultdict = defaultdict(dict)
_MAX_CHAINS = 4096


def _read_canonical(text: str, nvars: int) -> dict | None:
    """The {packed key: rational} dict of text in emit_poly's language, or
    None for any other text, a variable beyond nvars or a degree past the
    cap, so that _parse_general decides every refusal and its message.

    Folds each signed monomial into one accumulator as _fold does, so
    terms, their order and their types are those of _parse_general.
    """
    acc: dict = {}
    neg = text[:1] == "-"
    words = (text[1:] if neg else text).split(" ")  # monomial, sign, monomial, ...
    signs = words[1::2]
    # isascii, so that isdigit() means [0-9]+
    if not (len(words) & 1 and text.isascii() and _SIGNS.issuperset(signs)):
        return None
    slashed = "/" in text
    chains = _CHAINS[nvars]
    for sign, mono in zip(["-" if neg else "+"] + signs, words[::2]):
        neg = sign == "-"
        if mono[:1] == "x":
            c, chain = 1, mono
        else:
            num, star, chain = mono.partition("*")
            n, slash, d = num.partition("/") if slashed else (num, "", "")
            if not n.isdigit() or star and not chain:
                return None
            if slash:
                if not d.isdigit() or d[0] == "0":
                    return None
                c = Fraction(int(n), int(d))
            else:
                c = int(n)
        key = chains.get(chain, -1)  # a key is an int >= 0 or None
        if key == -1:
            if len(chains) >= _MAX_CHAINS:
                chains.clear()
            key = chains[chain] = _chain_exponents(chain, nvars)
        if key is None:
            return None
        if c:
            v = acc.get(key, 0) + (-c if neg else c)
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return acc


def _chain_exponents(chain: str, nvars: int) -> int | None:
    """The packed key of a variable part such as "x1^3*x2" ("" for a
    constant), or None when chain does not match _VARS, names a variable
    beyond nvars or has a degree past the cap; _read_canonical memoises
    it in _CHAINS."""
    e = [0] * nvars
    if chain:
        if not _VARS.fullmatch(chain):
            return None
        for f in chain.split("*"):
            i = int(f[1]) - 1
            if i >= nvars:
                return None
            e[i] += int(f[3:]) if len(f) > 2 else 1
    if sum(e) > MAX_DEGREE:
        return None
    return _pack(tuple(e))


def _parse_general(text: str, nvars: int, spent: list | None = None) -> dict:
    """The {packed key: rational} dict of any text in the grammar.

    A recursive descent on dicts without zero coefficients: sums fold
    into one accumulator and a power of one term scales its exponents,
    so only products of parenthesised sums cost more than linear time,
    and the text is refused once its products, squarings of a power
    included, take spent[0] past MAX_PARSE_PRODUCTS monomial products
    (by default spent counts this text alone).  A product or a power is
    refused before it is made when _height bounds its coefficients past
    the longest literal, exactly for a power of one term.
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
    spent = [0] if spent is None else spent

    def capped_mul(a: dict, b: dict, nvars: int, m: int | None = None) -> dict:
        """_mul_terms, refused past MAX_PARSE_PRODUCTS for all the counted texts
        and when its coefficients could pass _MAX_LITERAL_BITS."""
        spent[0] += len(a) * len(b)
        if spent[0] > MAX_PARSE_PRODUCTS:
            raise ParseError("polynomial text exceeds %d monomial products" % MAX_PARSE_PRODUCTS)
        _check_height(_height(a) * _height(b), 1, "product")
        return _mul_terms(a, b, nvars, m)

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
                node = capped_mul(node, rhs, nvars)
            elif len(rhs) == 1 and 0 in rhs:
                d = Fraction(rhs[0])
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
            _check_height(_height(node), n, "power")  # before the power is made
            node = _pow_terms(node, n, nvars, mul=capped_mul)
        return {e: -c for e, c in node.items()} if negate else node

    def atom() -> dict:
        kind, val = toks.pop()
        if kind == "int":
            return {0: val} if val else {}
        if kind == "var":
            if val >= nvars:
                raise ParseError("variable x%d beyond declared nvars=%d" % (val + 1, nvars))
            return {_pack(tuple(int(i == val) for i in range(nvars))): 1}
        if kind == "(":
            node = expr()
            if toks.pop()[0] != ")":
                raise ParseError("unbalanced parentheses")
            return node
        raise ParseError("unexpected token %r" % (kind,))

    p = expr()
    if toks[-1][0] is not None:
        raise ParseError("trailing tokens in %r" % (text,))
    return p
