"""Exact rational and truncated p-adic arithmetic, ball algebra, Haar measure and sampling.

Exact quantities (digits, convergents, measures) live in `fractions.Fraction`;
orbit points of the sampling harness live in `PadicApprox`, a truncated p-adic
number with a sound absolute-precision bound (the cylinder Monte Carlo carries
its integers (ord, unit, abs_prec) without the object).  A `Ball` keeps its
centre in digit form, p**ord * unit, and builds the `Fraction` centre only on
demand.  All values are immutable after construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DivisionByZeroAtPrecision, PrecisionExhausted

INF = math.inf

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeCtx:
    """The prime p; every value in the package carries one of these."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p!r}")


def _intval(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer; at p = 2 its count of trailing
    zero bits, read off the lowest set bit n & -n."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _inv_unit(u: int, p: int, n: int) -> int:
    """Inverse of u mod p**n for p not dividing u.

    Hensel lifting doubles the precision per round, which beats the
    extended-gcd path of pow(u, -1, m) once moduli get large.
    """
    v = pow(u % p, -1, p)
    k = 1
    pk = p
    while k < n:
        pk = pk * pk
        k *= 2
        if k > n:
            pk = p**n
            k = n
        v = v * (2 - u * v % pk) % pk
    return v


def _fraction(p: int, lo: int, unit: int, den: int = 1) -> Fraction:
    """p**lo * unit / den, the exact value of a digit form."""
    return Fraction(unit * p**lo, den) if lo >= 0 else Fraction(unit, den * p**-lo)


def as_fraction(x) -> Fraction:
    """x as a Fraction, without copying one that already is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def valuation(x, ctx: PrimeCtx):
    """p-adic valuation of an exact rational; math.inf for zero, which is
    told by its integer numerator.

    An approximation answers through PadicApprox.valuation.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num = x.numerator
    if not num:
        return INF
    return _intval(num, ctx.p) - _intval(x.denominator, ctx.p)


def norm(x, ctx: PrimeCtx) -> Fraction:
    """p-adic absolute value p**(-valuation) of an exact rational; 0 for zero."""
    v = valuation(x, ctx)
    if v == INF:
        return Fraction(0)
    return _fraction(ctx.p, -v, 1)


def _digit_form(x, p: int):
    """(ord, unit, abs_prec, den) with x == p**ord * unit / den (mod
    p**abs_prec), den prime to p and unit prime to p or 0: the one reader of
    a value into digit form.

    An int or Fraction is exact: abs_prec = inf, and the powers of p of its
    numerator and denominator move into ord.  A PadicApprox is its own
    integers over den = 1 (zero at precision has unit 0 and ord = abs_prec).
    Either kind of exact zero is (inf, 0, inf, 1).  None for any other type;
    ValueError for a PadicApprox of a prime other than p.
    """
    if isinstance(x, PadicApprox):
        if x.ctx.p != p:
            raise ValueError("operands must share the same prime")
        return x._lo, x._unit, x._prec, 1
    if not isinstance(x, (int, Fraction)):
        return None
    if not x:
        return INF, 0, INF, 1
    num, den = x.numerator, x.denominator
    vn, vd = _intval(num, p), _intval(den, p)
    return vn - vd, num // p**vn, INF, den // p**vd


def _unit_mod(form, p: int, lo: int, ndigits: int) -> int:
    """Integer u in [0, p**ndigits) with x == p**lo * u (mod p**(lo+ndigits)).

    form is _digit_form(x, p), with valuation(x) >= lo; ndigits may be <= 0 (returns 0).
    """
    if ndigits <= 0:
        return 0
    v, unit, _, den = form
    shift = v - lo
    if shift < 0:
        raise ValueError("valuation below requested base position")
    if shift >= ndigits:  # an exact zero included, at shift inf
        return 0
    m = p ** (ndigits - shift)
    u = unit % m if den == 1 else unit * _inv_unit(den, p, ndigits - shift) % m
    return u * p**shift


def _digits_of(unit: int, p: int, count: int) -> tuple[int, ...]:
    out = []
    for _ in range(count):
        unit, d = divmod(unit, p)
        out.append(d)
    return tuple(out)


def digit_expand(x, ctx: PrimeCtx, start: int, stop: int) -> tuple[int, ...]:
    """Digits c_start .. c_{stop-1} of the canonical expansion sum(c_n p**n)
    of an exact rational, the reference expansion; an approximation's digits
    are PadicApprox.digits."""
    if stop < start:
        raise ValueError("stop must be >= start")
    form = _digit_form(Fraction(x), ctx.p)
    base = min(form[0], start)  # ord >= stop, the exact zero included, leaves u = 0
    u = _unit_mod(form, ctx.p, base, stop - base)
    if start > base:
        u //= ctx.p ** (start - base)
    return _digits_of(u, ctx.p, stop - start)


def integral_part(x, ctx: PrimeCtx) -> Fraction:
    """Sum of the digit terms at positions <= 0 of an exact rational; an
    element of J or zero."""
    return Ball(ctx, x, 1).center  # the centre keeps the digits below position 1


class PadicApprox:
    """Truncated p-adic number: every digit at a position < abs_prec is known.

    Three states:
      * nonzero: finite valuation and abs_prec, leading digit nonzero (a
        nonzero unit at abs_prec = inf raises ValueError);
      * exact zero: valuation and abs_prec +inf, every digit known to be zero;
      * zero at precision: all digits below abs_prec are zero but the true
        valuation is unknown (asking for it raises PrecisionExhausted).

    Internally the digits are packed into one integer `unit` with
    value == p**ord * unit (mod p**abs_prec), p not dividing unit.
    """

    __slots__ = ("ctx", "_lo", "_unit", "_prec")

    def __init__(self, ctx: PrimeCtx, lo: int, unit: int, abs_prec: int):
        if unit and abs_prec == INF:
            raise ValueError(f"a nonzero PadicApprox needs a finite abs_prec, got {abs_prec}")
        p = ctx.p
        ndig = abs_prec - lo if unit else 0
        unit = unit % p**ndig if ndig > 0 else 0
        if unit == 0:
            lo = abs_prec
        else:
            v = _intval(unit, p)
            lo += v
            unit //= p**v
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_prec", abs_prec)

    def __setattr__(self, name, value):
        raise AttributeError("PadicApprox is immutable")

    @classmethod
    def exact_zero(cls, ctx: PrimeCtx) -> "PadicApprox":
        return cls(ctx, INF, 0, INF)

    @classmethod
    def from_rational(cls, x, ctx: PrimeCtx, abs_prec: int) -> "PadicApprox":
        form = _digit_form(Fraction(x), ctx.p)
        v = form[0]
        if v == INF:
            return cls.exact_zero(ctx)
        if abs_prec == INF:
            raise ValueError(f"a nonzero PadicApprox needs a finite abs_prec, got {abs_prec}")
        return cls(ctx, v, _unit_mod(form, ctx.p, v, abs_prec - v), abs_prec)

    # -- state ------------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self._prec == INF

    @property
    def is_zero_at_precision(self) -> bool:
        return self._unit == 0 and self._prec != INF

    @property
    def abs_prec(self):
        return self._prec

    def valuation(self):
        if self._unit == 0 and self._prec != INF:
            raise PrecisionExhausted(
                f"indistinguishable from zero below position {self._prec}"
            )
        return self._lo

    @property
    def digits(self) -> tuple[int, ...]:
        """Digits from position ord upward; empty for either zero state."""
        if self._unit == 0:
            return ()
        return _digits_of(self._unit, self.ctx.p, self._prec - self._lo)

    def representative(self) -> Fraction:
        """The exact rational with the same digits below abs_prec and none above."""
        return _fraction(self.ctx.p, self._lo, self._unit) if self._unit else Fraction(0)

    def _split_at_one(self) -> tuple[Fraction, "PadicApprox"]:
        """(digits at positions <= 0 as an exact rational, the rest).

        integral_part and x - integral_part(x) on the known digits, without
        the generic arithmetic; requires abs_prec >= 1.  Nothing in the
        package calls it; the benchmark's span tracer wraps it by name.
        """
        if self._prec < 1:
            raise PrecisionExhausted("digits at positions <= 0 not all determined")
        lo = self._lo
        if lo >= 1:  # the exact zero included, at lo = inf
            return Fraction(0), self
        p = self.ctx.p
        cut = 1 - lo
        u0 = self._unit % p**cut
        return _fraction(p, lo, u0), PadicApprox(self.ctx, 1, self._unit // p**cut, self._prec)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        form = _digit_form(other, self.ctx.p)
        if form is None:
            return NotImplemented
        if self._lo == INF:
            return other
        olo, _, oprec, _ = form
        if olo == INF:
            return self
        prec = min(self._prec, oprec)
        lo = min(self._lo, olo)
        ndig = prec - lo
        if ndig <= 0:
            return PadicApprox(self.ctx, prec, 0, prec)
        p = self.ctx.p
        u = _unit_mod(_digit_form(self, p), p, lo, ndig) + _unit_mod(form, p, lo, ndig)
        return PadicApprox(self.ctx, lo, u, prec)

    __radd__ = __add__

    def __neg__(self):
        if self._unit == 0:  # either zero state
            return self
        m = self.ctx.p ** (self._prec - self._lo)
        return PadicApprox(self.ctx, self._lo, m - self._unit, self._prec)

    def __sub__(self, other):
        if _digit_form(other, self.ctx.p) is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        form = _digit_form(other, self.ctx.p)
        if form is None:
            return NotImplemented
        olo, _, oprec, _ = form
        if self._lo == INF or olo == INF:
            return PadicApprox.exact_zero(self.ctx)
        prec = min(self._prec + olo, oprec + self._lo)
        lo = self._lo + olo
        u = self._unit * _unit_mod(form, self.ctx.p, olo, prec - lo)
        return PadicApprox(self.ctx, lo, u, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicApprox":
        """Multiplicative inverse; loses 2*ord digits of absolute precision."""
        if self._prec == INF:
            raise DivisionByZeroAtPrecision("inverse of exact zero")
        if self._unit == 0:
            raise PrecisionExhausted(
                f"inverse of a value indistinguishable from zero below {self._prec}"
            )
        d = self._lo
        n = self._prec - d
        return PadicApprox(self.ctx, -d, _inv_unit(self._unit, self.ctx.p, n), self._prec - 2 * d)

    def __truediv__(self, other):
        form = _digit_form(other, self.ctx.p)
        if form is None:
            return NotImplemented
        if form[0] == INF:
            raise DivisionByZeroAtPrecision("division by exact zero")
        return self.__mul__(Fraction(1) / other)

    def __rtruediv__(self, other):
        if _digit_form(other, self.ctx.p) is None:
            return NotImplemented
        return self.inverse().__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, PadicApprox):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self._lo == other._lo
            and self._unit == other._unit
            and self._prec == other._prec
        )

    def __hash__(self):
        return hash((self.ctx.p, self._lo, self._unit, self._prec))

    def __repr__(self):
        if self._prec == INF:
            return f"PadicApprox(p={self.ctx.p}, 0 exactly)"
        if self._unit == 0:
            return f"PadicApprox(p={self.ctx.p}, O(p^{self._prec}))"
        return (
            f"PadicApprox(p={self.ctx.p}, ord={self._lo}, "
            f"digits={list(self.digits)}, prec={self._prec})"
        )


# -- balls and cylinders ----------------------------------------------------


class Ball:
    """The set center + p**level * Z_p in digit form: the centre reduced mod
    p**level is p**_clo * _cunit, _cunit prime to p (or _clo = level,
    _cunit = 0).  Equality and hash read this canonical form; the Fraction
    `center` is built on its first read and kept."""

    def __init__(self, ctx: PrimeCtx, center, level: int):
        if level < 1:
            raise ValueError("ball level must be >= 1")
        form = _digit_form(as_fraction(center), ctx.p)
        lo = min(form[0], level)
        unit = _unit_mod(form, ctx.p, lo, level - lo)
        object.__setattr__(self, "__dict__", {"ctx": ctx, "level": level, "_clo": lo, "_cunit": unit})

    @classmethod
    def _from_residue(cls, ctx: PrimeCtx, z: int, level: int) -> "Ball":
        """Ball(ctx, z, level) for an integer 0 <= z < p**level."""
        ball = object.__new__(cls)
        p = ctx.p
        lo = _intval(z, p) if z else level
        fields = ball.__dict__  # filled in place: Ball.__setattr__ refuses
        fields["ctx"] = ctx
        fields["level"] = level
        fields["_clo"] = lo
        fields["_cunit"] = z // p**lo
        return ball

    @cached_property
    def center(self) -> Fraction:
        return _fraction(self.ctx.p, self._clo, self._cunit)

    def _key(self) -> tuple:
        return self.ctx.p, self.level, self._clo, self._cunit

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Ball(ctx={self.ctx!r}, center={self.center!r}, level={self.level!r})"

    def contains(self, x) -> bool:
        """Exact membership for rationals; at-precision membership for approximations."""
        form = _digit_form(x, self.ctx.p)
        if form is None:
            raise TypeError(f"cannot test membership of {type(x).__name__}")
        return self.contains_digits(*form)

    def contains_digits(self, lo: int, unit: int, prec, x0: int = 1) -> bool:
        """contains for p**lo * unit / x0 known mod p**prec: PadicApprox's
        integers at x0 = 1, or a cfsystems.step_core coordinate over its
        denominator.  lo = inf is the exact zero; the unit may be negative or
        divisible by p, and its digits at or above prec are ignored.  x0 is
        prime to p, so p**lo * unit is compared with x0 * centre, uninverted.
        False when a known digit below the level differs from the centre's;
        PrecisionExhausted when all known digits agree but stop short of the
        level."""
        if lo == INF:
            return self._cunit == 0
        level = self.level
        stop = level if prec >= level else prec
        clo = self._clo
        base = lo if lo < clo else clo
        if stop > base:
            p = self.ctx.p
            diff = unit * p ** (lo - base) - x0 * self._cunit * p ** (clo - base)
            if diff % p ** (stop - base):
                return False
        if stop < level:
            raise PrecisionExhausted("membership not determined at this precision")
        return True

    def __str__(self):
        return f"{format_rational(self.center)}~{self.level}"


@dataclass(frozen=True)
class ProductCylinder:
    """An m-fold product of balls sharing one prime context."""

    balls: tuple[Ball, ...]

    def __post_init__(self):
        balls = tuple(self.balls)
        if not balls:
            raise ValueError("cylinder needs at least one ball")
        p = balls[0].ctx.p
        if any(b.ctx.p != p for b in balls):
            raise ValueError("all balls must share one prime")
        object.__setattr__(self, "balls", balls)

    @classmethod
    def _of(cls, balls: tuple) -> "ProductCylinder":
        """ProductCylinder(balls) for a non-empty tuple of balls known to
        share one prime, unchecked."""
        c = object.__new__(cls)
        object.__setattr__(c, "balls", balls)
        return c

    @property
    def ctx(self) -> PrimeCtx:
        return self.balls[0].ctx

    @property
    def m(self) -> int:
        return len(self.balls)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(b.level for b in self.balls)

    def uniform_level(self) -> int:
        lv = self.balls[0].level
        if any(b.level != lv for b in self.balls):
            raise ValueError("cylinder levels are not uniform")
        return lv

    def contains(self, xs) -> bool:
        if len(xs) != self.m:
            raise ValueError("dimension mismatch")
        return all(b.contains(x) for b, x in zip(self.balls, xs))

    def contains_digits(self, triples, x0: int = 1) -> bool:
        """contains for approximations given as (lo, unit, prec) triples over
        one denominator x0, one per ball (Ball.contains_digits): balls in
        order, False at the first miss, PrecisionExhausted at the first ball
        the digits cannot decide."""
        for b, (lo, unit, prec) in zip(self.balls, triples, strict=True):
            if not b.contains_digits(lo, unit, prec, x0):
                return False
        return True


@lru_cache(maxsize=256)
def _haar(p: int, k: int) -> Fraction:
    """Fraction(1, p**k), one shared value per (p, k) while it stays cached."""
    return Fraction(1, p**k)


def measure(obj) -> Fraction:
    """Haar measure normalised so that a level-1 ball has measure 1.

    A level-n ball has measure p**(1-n); a product cylinder multiplies over
    coordinates.  Equal measures are one shared Fraction, from a bounded
    cache on (p, exponent).
    """
    if isinstance(obj, Ball):
        return _haar(obj.ctx.p, obj.level - 1)
    if isinstance(obj, ProductCylinder):
        return _haar(obj.ctx.p, sum(b.level - 1 for b in obj.balls))
    raise TypeError(f"cannot measure {type(obj).__name__}")


def _uniform_below(rng: random.Random, n: int):
    """Endless draws uniform on 0..n-1 (n >= 1): the values rng.randrange(n)
    would return, call after call, and with rng advanced alike.

    It repeats CPython's randrange for a generator that draws through
    getrandbits (every Random, unless a subclass overrides random() alone):
    getrandbits(n.bit_length()) until the value is below n.  Python does not
    promise to keep that algorithm across versions, so tests/test_padic_core.py
    pins the stream to randrange's.  A draw is made only when the next value
    is asked for, so rng is never read ahead and may be shared with later
    calls.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    while True:
        u = getrandbits(k)
        if u < n:
            yield u


def haar_sample(ctx: PrimeCtx, n_digits: int, rng) -> PadicApprox:
    """Uniform sample from p*Z_p truncated at n_digits digits.

    Digits at positions 1..n_digits are i.i.d. uniform, so abs_prec is
    n_digits + 1.  `rng` is either an int seed or a random.Random instance
    (which is advanced by exactly one draw of _uniform_below, the value
    rng.randrange(p**n_digits) would give, allowing sequential composition).
    """
    if n_digits < 1:
        raise ValueError("need at least one digit")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    u = next(_uniform_below(rng, ctx.p**n_digits))
    return PadicApprox(ctx, 1, u, n_digits + 1)


def haar_sample_vector(ctx: PrimeCtx, m: int, n_digits: int, rng) -> tuple[PadicApprox, ...]:
    """m independent Haar samples drawn sequentially from one generator."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return tuple(haar_sample(ctx, n_digits, rng) for _ in range(m))


# -- serialization -----------------------------------------------------------


def format_rational(x) -> str:
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _is_int_text(t: str) -> bool:
    """Whether t is an optional '-' and one or more ASCII digits; int()
    alone would also read '+', '_' separators and other scripts' digits."""
    body = t[1:] if t[:1] == "-" else t
    return body.isascii() and body.isdigit()


def parse_int(s: str) -> int:
    """An optional '-' and ASCII digits, after a strip, as an int;
    ValueError for anything else."""
    if not (isinstance(s, str) and _is_int_text(s.strip())):
        raise ValueError(f"expected an ASCII decimal integer, got {s!r}")
    return int(s)


def parse_rational(s: str) -> Fraction:
    """'num/den' or 'num' as a Fraction: after a strip, an optional '-' and
    ASCII digits, then optionally '/' and ASCII digits.  ValueError for
    anything else, a value that is not a string included."""
    if not isinstance(s, str):
        raise ValueError(f"expected 'num/den' as a string, got {s!r}")
    num, sep, den = s.strip().partition("/")
    if not (_is_int_text(num) and (not sep or den.isascii() and den.isdigit())):
        raise ValueError(f"expected ASCII decimal 'num/den' or 'num', got {s!r}")
    return Fraction(int(num), int(den)) if sep else Fraction(int(num))

