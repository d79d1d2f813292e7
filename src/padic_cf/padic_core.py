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
from functools import cached_property

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
    """p-adic valuation of an exact rational; math.inf for zero.

    An approximation answers through PadicApprox.valuation.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        return INF
    return _intval(x.numerator, ctx.p) - _intval(x.denominator, ctx.p)


def norm(x, ctx: PrimeCtx) -> Fraction:
    """p-adic absolute value p**(-valuation) of an exact rational; 0 for zero."""
    v = valuation(x, ctx)
    if v == INF:
        return Fraction(0)
    return _fraction(ctx.p, -v, 1)


def vector_norm(xs, ctx: PrimeCtx) -> Fraction:
    """Max of coordinate norms."""
    return max(norm(x, ctx) for x in xs)


def _unit_mod(x: Fraction, p: int, lo: int, ndigits: int) -> int:
    """Integer u in [0, p**ndigits) with x == p**lo * u (mod p**(lo+ndigits)).

    Requires valuation(x) >= lo; ndigits may be <= 0 (returns 0).
    """
    if ndigits <= 0 or x == 0:
        return 0
    num, den = x.numerator, x.denominator
    vn = _intval(num, p)
    vd = _intval(den, p)
    num //= p**vn
    den //= p**vd
    shift = (vn - vd) - lo
    if shift < 0:
        raise ValueError("valuation below requested base position")
    if shift >= ndigits:
        return 0
    m = p ** (ndigits - shift)
    u = num % m if den == 1 else num * _inv_unit(den, p, ndigits - shift) % m
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
    x = Fraction(x)
    if x == 0:
        return (0,) * (stop - start)
    v = valuation(x, ctx)
    if v >= stop:
        return (0,) * (stop - start)
    base = min(v, start)
    u = _unit_mod(x, ctx.p, base, stop - base)
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
      * nonzero: finite valuation, leading digit nonzero;
      * exact zero: valuation +inf, every digit known to be zero;
      * zero at precision: all digits below abs_prec are zero but the true
        valuation is unknown (asking for it raises PrecisionExhausted).

    Internally the digits are packed into one integer `unit` with
    value == p**ord * unit (mod p**abs_prec), p not dividing unit.
    """

    __slots__ = ("ctx", "_lo", "_unit", "_prec", "_exact")

    def __init__(self, ctx: PrimeCtx, lo: int, unit: int, abs_prec: int):
        p = ctx.p
        ndig = abs_prec - lo
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
        object.__setattr__(self, "_exact", False)

    def __setattr__(self, name, value):
        raise AttributeError("PadicApprox is immutable")

    @classmethod
    def exact_zero(cls, ctx: PrimeCtx) -> "PadicApprox":
        obj = cls.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "_lo", INF)
        object.__setattr__(obj, "_unit", 0)
        object.__setattr__(obj, "_prec", INF)
        object.__setattr__(obj, "_exact", True)
        return obj

    @classmethod
    def from_rational(cls, x, ctx: PrimeCtx, abs_prec: int) -> "PadicApprox":
        x = Fraction(x)
        if x == 0:
            return cls.exact_zero(ctx)
        v = valuation(x, ctx)
        if v >= abs_prec:
            return cls(ctx, abs_prec, 0, abs_prec)
        return cls(ctx, v, _unit_mod(x, ctx.p, v, abs_prec - v), abs_prec)

    # -- state ------------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self._exact

    @property
    def is_zero_at_precision(self) -> bool:
        return not self._exact and self._unit == 0

    @property
    def abs_prec(self):
        return self._prec

    def valuation(self):
        if self._exact:
            return INF
        if self._unit == 0:
            raise PrecisionExhausted(
                f"indistinguishable from zero below position {self._prec}"
            )
        return self._lo

    @property
    def digits(self) -> tuple[int, ...]:
        """Digits from position ord upward; empty for either zero state."""
        if self._exact or self._unit == 0:
            return ()
        return _digits_of(self._unit, self.ctx.p, self._prec - self._lo)

    def representative(self) -> Fraction:
        """The exact rational with the same digits below abs_prec and none above."""
        return _fraction(self.ctx.p, self._lo, self._unit) if self._unit else Fraction(0)

    def _unit_shifted(self, lo: int, ndigits: int) -> int:
        """Digits at positions lo .. lo+ndigits-1, packed as one integer."""
        if self._unit == 0 or ndigits <= 0:
            return 0
        shift = self._lo - lo
        if shift >= 0:
            u = self._unit * self.ctx.p**shift
        else:
            u = self._unit // self.ctx.p**-shift
        return u % self.ctx.p**ndigits

    def _split_at_one(self) -> tuple[Fraction, "PadicApprox"]:
        """(digits at positions <= 0 as an exact rational, the rest).

        integral_part and x - integral_part(x) on the known digits, without
        the generic arithmetic; requires abs_prec >= 1.  Nothing in the
        package calls it; the benchmark's span tracer wraps it by name.
        """
        if self._exact:
            return Fraction(0), self
        if self._prec < 1:
            raise PrecisionExhausted("digits at positions <= 0 not all determined")
        lo = self._lo
        if lo >= 1:
            return Fraction(0), self
        p = self.ctx.p
        cut = 1 - lo
        u0 = self._unit % p**cut
        return _fraction(p, lo, u0), PadicApprox(self.ctx, 1, self._unit // p**cut, self._prec)

    # -- arithmetic --------------------------------------------------------

    def _check_ctx(self, other: "PadicApprox"):
        if other.ctx.p != self.ctx.p:
            raise ValueError("operands must share the same prime")

    def __add__(self, other):
        p = self.ctx.p
        if isinstance(other, PadicApprox):
            self._check_ctx(other)
            if self._exact:
                return other
            if other._exact:
                return self
            prec = min(self._prec, other._prec)
            lo = min(self._lo, other._lo)
            ndig = prec - lo
            if ndig <= 0:
                return PadicApprox(self.ctx, prec, 0, prec)
            u = self._unit_shifted(lo, ndig) + other._unit_shifted(lo, ndig)
            return PadicApprox(self.ctx, lo, u, prec)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if self._exact:
                return q
            if q == 0:
                return self
            prec = self._prec
            lo = min(self._lo, valuation(q, self.ctx))
            ndig = prec - lo
            if ndig <= 0:
                return PadicApprox(self.ctx, prec, 0, prec)
            u = self._unit_shifted(lo, ndig) + _unit_mod(q, p, lo, ndig)
            return PadicApprox(self.ctx, lo, u, prec)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        if self._exact:
            return self
        if self._unit == 0:
            return self
        m = self.ctx.p ** (self._prec - self._lo)
        return PadicApprox(self.ctx, self._lo, m - self._unit, self._prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__add__(-Fraction(other))
        if isinstance(other, PadicApprox):
            return self.__add__(other.__neg__())
        return NotImplemented

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, PadicApprox):
            self._check_ctx(other)
            if self._exact or other._exact:
                return PadicApprox.exact_zero(self.ctx)
            prec = min(self._prec + other._lo, other._prec + self._lo)
            lo = self._lo + other._lo
            u = self._unit * other._unit
            return PadicApprox(self.ctx, lo, u, prec)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0 or self._exact:
                return PadicApprox.exact_zero(self.ctx)
            vq = valuation(q, self.ctx)
            prec = self._prec + vq
            lo = self._lo + vq
            u = self._unit * _unit_mod(q, self.ctx.p, vq, prec - lo)
            return PadicApprox(self.ctx, lo, u, prec)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "PadicApprox":
        """Multiplicative inverse; loses 2*ord digits of absolute precision."""
        if self._exact:
            raise DivisionByZeroAtPrecision("inverse of exact zero")
        if self._unit == 0:
            raise PrecisionExhausted(
                f"inverse of a value indistinguishable from zero below {self._prec}"
            )
        d = self._lo
        n = self._prec - d
        return PadicApprox(self.ctx, -d, _inv_unit(self._unit, self.ctx.p, n), self._prec - 2 * d)

    def __truediv__(self, other):
        if isinstance(other, PadicApprox):
            return self.__mul__(other.inverse())
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivisionByZeroAtPrecision("division by exact zero")
            return self.__mul__(1 / q)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse().__mul__(Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, PadicApprox):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self._exact == other._exact
            and self._lo == other._lo
            and self._unit == other._unit
            and self._prec == other._prec
        )

    def __hash__(self):
        return hash((self.ctx.p, self._lo, self._unit, self._prec, self._exact))

    def __repr__(self):
        if self._exact:
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
        c = center if isinstance(center, (int, Fraction)) else Fraction(center)
        lo = min(valuation(c, ctx), level)
        unit = _unit_mod(c, ctx.p, lo, level - lo)
        object.__setattr__(self, "__dict__", {"ctx": ctx, "level": level, "_clo": lo, "_cunit": unit})

    @classmethod
    def _from_residue(cls, ctx: PrimeCtx, z: int, level: int) -> "Ball":
        """Ball(ctx, z, level) for an integer 0 <= z < p**level."""
        ball = object.__new__(cls)
        lo = _intval(z, ctx.p) if z else level
        unit = z // ctx.p**lo
        object.__setattr__(ball, "__dict__", {"ctx": ctx, "level": level, "_clo": lo, "_cunit": unit})
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
        if isinstance(x, PadicApprox):
            return self.contains_digits(x._lo, x._unit, x._prec)
        diff = x - self.center
        return valuation(Fraction(diff), self.ctx) >= self.level

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

    def random_element(self, rng: random.Random, depth: int = 48) -> Fraction:
        """A random exact rational in the ball, uniform over depth extra digit levels."""
        p = self.ctx.p
        t = rng.randrange(p**depth)
        return self.center + Fraction(t * p**self.level)

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

    def random_element(self, rng: random.Random, depth: int = 48) -> tuple[Fraction, ...]:
        return tuple(b.random_element(rng, depth) for b in self.balls)


def measure(obj) -> Fraction:
    """Haar measure normalised so that a level-1 ball has measure 1.

    A level-n ball has measure p**(1-n); a product cylinder multiplies over
    coordinates.
    """
    if isinstance(obj, Ball):
        return Fraction(1, obj.ctx.p ** (obj.level - 1))
    if isinstance(obj, ProductCylinder):
        return Fraction(1, obj.ctx.p ** sum(b.level - 1 for b in obj.balls))
    raise TypeError(f"cannot measure {type(obj).__name__}")


def invert_ball(b: Ball, v) -> Ball:
    """The exact image of b + v under x -> 1/x, for v with valuation -k <= 0.

    Requires the ball to sit inside p*Z_p.  The image is again a ball, at
    level b.level + 2k.
    """
    ctx = b.ctx
    v = Fraction(v)
    if b.center != 0 and valuation(b.center, ctx) < 1:
        raise ValueError("ball must be contained in p*Z_p")
    kv = valuation(v, ctx)
    if kv > 0:
        raise ValueError("offset must have valuation <= 0 (and be nonzero)")
    k = -kv
    return Ball(ctx, 1 / (v + b.center), b.level + 2 * k)


def haar_sample(ctx: PrimeCtx, n_digits: int, rng) -> PadicApprox:
    """Uniform sample from p*Z_p truncated at n_digits digits.

    Digits at positions 1..n_digits are i.i.d. uniform, so abs_prec is
    n_digits + 1.  `rng` is either an int seed or a random.Random instance
    (which is advanced by exactly one draw, allowing sequential composition).
    """
    if n_digits < 1:
        raise ValueError("need at least one digit")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    u = rng.randrange(ctx.p**n_digits)
    return PadicApprox(ctx, 1, u, n_digits + 1)


def haar_sample_vector(ctx: PrimeCtx, m: int, n_digits: int, rng) -> tuple[PadicApprox, ...]:
    """m independent Haar samples drawn sequentially from one generator."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return tuple(haar_sample(ctx, n_digits, rng) for _ in range(m))


# -- serialization -----------------------------------------------------------


def format_rational(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """'num/den' or 'num' as a Fraction; ValueError for anything else, a
    value that is not a string included."""
    if not isinstance(s, str):
        raise ValueError(f"expected 'num/den' as a string, got {s!r}")
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_approx(x: PadicApprox) -> str:
    if x.is_exact_zero:
        return f"p={x.ctx.p};ord=inf;digits=;prec=inf"
    ord_s = "?" if x.is_zero_at_precision else str(x._lo)
    digits_s = ",".join(str(d) for d in x.digits)
    return f"p={x.ctx.p};ord={ord_s};digits={digits_s};prec={x.abs_prec}"

