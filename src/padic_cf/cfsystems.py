"""The concrete continued fraction families.

Every family steps by one map on (p*Z_p)^m.  With pivot coordinate i, a
permutation sigma of 1..m and s = sigma^-1(i), the next point is

    y_s = p**r_s / x_i - q_s,    y_k = p**r_k * x_sigma(k) / x_i - q_k  (k != s),

where q_k, the integral part of the term before it, is the digit entry; the
branch is the lft.LftParams (i, sigma, p**r, q).  The families differ in
three rules, and `step_core` has one body for all of them:

* pivot: coordinate 1, or for Brun the first coordinate of least valuation;
* sigma: the cycle (2, ..., m, 1), or for Brun the identity;
* exponent: r_k = max(depth - ell, 0) for a term at valuation depth
  ord(x_i) - ord(x_sigma(k)), or ord(x_i) in slot s (_depth_split); Brun is
  the case ell = inf, so its exponents are all 0.

One-dimensional systems are the case m = 1: x -> p**k / x - v with
k = max(ord(x) - ell, 0), where ell = 0 is Schneider's algorithm and
ell = inf is Ruban's.  The cyclic family at ell = inf is the p-adic
Jacobi-Perron algorithm.

Each step emits a digit identifying the inverse branch; composing inverse
branches applied to the origin yields the exact rational convergents.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExpansionTerminated,
    InvalidDigit,
    PrecisionExhausted,
)
from .lft import LftParams, apply_inverse
from .padic_core import (
    INF,
    PadicApprox,
    PrimeCtx,
    _digit_form,
    _fraction,
    _intval,
    _inv_unit,
    as_fraction,
    format_rational,
    parse_rational,
)

ONE_DIM = "one-dim"
MULTI_DIM = "multi-dim"
BRUN = "brun"

RUNNING = "running"
TERMINATED = "terminated"
EXHAUSTED = "precision-exhausted"


def digit_class(v, p: int) -> int | None:
    """Class N of an admissible digit value: v = sum_{i=-N}^0 c_i p**i with
    leading digit nonzero.  None when v is not of this shape, a v <= 0
    told by its integer numerator included."""
    v = as_fraction(v)
    num, den = v.numerator, v.denominator
    if num <= 0:
        return None
    n = _intval(den, p)  # class n needs den = p**n and num < p**(n + 1)
    if den != p**n or num >= p * den:
        return None
    return n


def digit_values(p: int, n: int):
    """All (p-1)*p**n admissible digit values of class n, ascending."""
    q = p**n
    for w in range(1, p * q):
        if w % p:
            yield Fraction(w, q)


@dataclass(frozen=True)
class SystemSpec:
    """Selects an algorithm family: kind, depth parameter ell, dimension m."""

    ctx: PrimeCtx
    kind: str
    ell: int | float | None = None
    m: int = 1

    def __post_init__(self):
        if self.kind not in (ONE_DIM, MULTI_DIM, BRUN):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.kind == ONE_DIM and self.m != 1:
            raise ValueError("one-dimensional system requires m = 1")
        if self.kind == BRUN:
            if self.ell is not None:
                raise ValueError("Brun's algorithm has no depth parameter")
        else:
            ok = self.ell == INF or (isinstance(self.ell, int) and self.ell >= 0)
            if not ok:
                raise ValueError("ell must be a nonnegative integer or inf")

    @classmethod
    def schneider(cls, ctx: PrimeCtx) -> "SystemSpec":
        return cls(ctx, ONE_DIM, 0)

    @classmethod
    def ruban(cls, ctx: PrimeCtx) -> "SystemSpec":
        return cls(ctx, ONE_DIM, INF)

    @classmethod
    def one_dim(cls, ctx: PrimeCtx, ell) -> "SystemSpec":
        return cls(ctx, ONE_DIM, ell)

    @classmethod
    def multi_dim(cls, ctx: PrimeCtx, ell, m: int) -> "SystemSpec":
        return cls(ctx, MULTI_DIM, ell, m)

    @classmethod
    def jacobi_perron(cls, ctx: PrimeCtx, m: int) -> "SystemSpec":
        return cls(ctx, MULTI_DIM, INF, m)

    @classmethod
    def brun(cls, ctx: PrimeCtx, m: int) -> "SystemSpec":
        return cls(ctx, BRUN, None, m)

    @functools.cached_property
    def sigma(self) -> tuple[int, ...]:
        """The permutation of every branch, sigma[k-1] = sigma(k): the identity
        for Brun, the cycle (2, ..., m, 1) otherwise."""
        if self.kind == BRUN:
            return tuple(range(1, self.m + 1))
        return tuple(range(2, self.m + 1)) + (1,)

    @functools.cached_property
    def exponent_ell(self):
        """The ell of the exponent rule; Brun's branches carry no p factors,
        which is the case ell = inf."""
        return INF if self.kind == BRUN else self.ell

    @property
    def ell_str(self) -> str:
        if self.kind == BRUN:
            return "-"
        return "inf" if self.ell == INF else str(self.ell)


@dataclass(frozen=True)
class Digit1D:
    """One-dimensional digit (k, v): the branch x -> p**k / x - v.

    It reads as the m = 1 case of DigitMD: pexp = (k,), qvec = (v,), pivot 1.
    """

    k: int
    v: Fraction
    pivot = 1

    def __post_init__(self):
        object.__setattr__(self, "v", as_fraction(self.v))

    @property
    def pexp(self) -> tuple[int]:
        return (self.k,)

    @property
    def qvec(self) -> tuple[Fraction]:
        return (self.v,)


@dataclass(frozen=True)
class DigitMD:
    """Multi-dimensional digit: p-exponent vector and integral-part vector.

    `pivot` is the index of the coordinate that is inverted; it is always 1
    for the cyclic family and records the maximal-norm coordinate for Brun.
    """

    pexp: tuple[int, ...]
    qvec: tuple[Fraction, ...]
    pivot: int = 1

    def __post_init__(self):
        object.__setattr__(self, "pexp", tuple(map(int, self.pexp)))
        object.__setattr__(self, "qvec", tuple(map(as_fraction, self.qvec)))


@dataclass(frozen=True)
class Expansion:
    """Digit record of an orbit: emitted digits plus the stopping status."""

    digits: tuple
    status: str
    stopped_at: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))


EXACT_ZERO = (INF, 0, INF)  # an exact zero as a step_core triple


def _coerce_point(spec: SystemSpec, coords: tuple):
    """(x0, triples), the step_core form of a point of (p*Z_p)^m; ValueError
    for any other input.

    Each coordinate reads through padic_core._digit_form as p**ord * unit /
    den known mod p**abs_prec (den = 1 for an approximation).  x0 is the lcm
    of the dens, prime to p because the point lies in (p*Z_p)^m, and the
    coordinate becomes (ord, unit * (x0 // den), abs_prec)."""
    if len(coords) != spec.m:
        raise ValueError(f"expected {spec.m} coordinates, got {len(coords)}")
    forms = []
    for c in coords:
        try:
            form = _digit_form(c, spec.ctx.p)
        except ValueError:
            raise ValueError("coordinate prime differs from system prime") from None
        if form is None:
            kind = type(c).__name__
            raise ValueError(f"coordinate must be an int, Fraction or PadicApprox, got {kind}")
        forms.append(form)
    if any(lo < 1 for lo, _, _, _ in forms):
        raise ValueError("point must lie in (p*Z_p)^m")
    x0 = math.lcm(*(den for _, _, _, den in forms))
    return x0, [(lo, unit * (x0 // den), prec) for lo, unit, prec, den in forms]


def _depth_split(depth: int, ell) -> tuple[int, int]:
    """(p-exponent, digit class) of an entry at valuation depth `depth`:
    (max(depth - ell, 0), min(depth, ell)), which is (0, depth) at ell = inf."""
    if ell == INF or depth <= ell:
        return 0, depth
    return depth - ell, ell


def _entry_depth(pexp: int, q, ell, p: int) -> int:
    """Depth of a digit entry (p-exponent, integral part), the inverse of
    _depth_split: InvalidDigit unless the pair is _depth_split(depth)."""
    cls = digit_class(q, p)
    if cls is None:
        raise InvalidDigit("integral parts must be admissible digit values")
    depth = pexp + cls
    if _depth_split(depth, ell) != (pexp, cls):
        raise InvalidDigit(f"exponent {pexp} does not fit digit class {cls} at ell = {ell}")
    return depth


def _pivot(spec: SystemSpec, point) -> int:
    """The pivot i of step_core's normalised point.  point[k] is the triple
    (ord, unit, abs_prec) of coordinate k + 1: a nonzero unit means ord is the
    valuation, unit 0 with abs_prec inf is the exact zero, and unit 0 with a
    finite abs_prec = ord means only valuation >= ord is known.  The pivot is
    coordinate 1, or for Brun the first coordinate of least valuation; raises
    when it is zero or its valuation undetermined."""
    if spec.kind != BRUN:
        _, unit, prec = point[0]
        if not unit:
            if prec == INF:
                raise ExpansionTerminated("pivot coordinate is exact zero")
            raise PrecisionExhausted("pivot valuation not determined")
        return 1
    known = [(lo, k) for k, (lo, unit, _) in enumerate(point, 1) if unit]
    if not known:
        if all(prec == INF for _, _, prec in point):
            raise ExpansionTerminated("orbit reached exact zero")
        raise PrecisionExhausted("no coordinate has a determined valuation")
    # A coordinate known only to be 0 below a depth P <= min(known) could
    # tie or undercut the pivot; its quotient by the pivot then has
    # absolute precision P - min(known) <= 0, and its split raises
    # PrecisionExhausted.
    return min(known)[1]


def step_core(spec: SystemSpec, x0: int, coords):
    """step on integers: (pivot i, pexp, entries, x0', nxt), q_k = w / p**c
    for entries[k] = (w, c).

    Coordinate k is p**ord * unit / x0 known mod p**abs_prec, for
    coords[k] = (ord, unit, abs_prec) and an integer x0 prime to p; an exact
    coordinate has abs_prec = inf, and with unit 0 it is the exact zero.
    Units may be negative or divisible by p, and their digits at or above
    abs_prec are ignored.  nxt has the same form over x0', the pivot unit.

    With pivot p**d * u_i / x0, slot s = sigma^-1(i) is p**(r - d) * x0 / u_i
    and slot k is p**(r + ord_k - d) * u_k / u_i otherwise.  Every integral
    part lies at positions >= -d, so u_i is inverted mod p**(d + 1) only.
    Precision follows PadicApprox (P - 2*ord on inversion, min on products,
    +r on shifts), so this raises exactly where PadicApprox arithmetic would,
    and an inf precision passes through min: a term of exact coordinates over
    an exact pivot stays exact.  A pivot of valuation below 1 raises
    ValueError.
    """
    p = spec.ctx.p
    point = []
    for lo, unit, prec in coords:
        if unit:
            while unit % p == 0:
                unit //= p
                lo += 1
        if not (unit and lo < prec) and prec != INF:  # no nonzero digit below prec
            lo, unit = prec, 0
        point.append((lo, unit, prec))
    i = _pivot(spec, point)
    d, u_i, prec_i = point[i - 1]
    if d < 1:
        raise ValueError("pivot coordinate must lie in p*Z_p")
    inv = pow(u_i, -1, p ** (d + 1))
    inv_prec = prec_i - 2 * d
    ell = spec.exponent_ell
    pexp, entries, nxt = [], [], []
    for src in spec.sigma:
        if src == i:  # p**r / x_i = p**(r - d) * x0 / u_i
            r = _depth_split(d, ell)[0]
            lo, unit, prec = r - d, x0, inv_prec + r
        else:  # p**r * x_src / x_i
            lo_s, unit, prec_s = point[src - 1]
            if not unit and prec_s == INF:  # the zero term of an exact zero
                pexp.append(0)
                entries.append((0, 0))
                nxt.append(EXACT_ZERO)
                continue
            # lo_s only bounds the valuation from below when unit is 0;
            # a positive exponent from it leaves too little precision to split
            r = _depth_split(d - lo_s, ell)[0]
            lo = lo_s - d
            prec = min(prec_s - d, inv_prec + lo_s)
            if prec <= lo:  # no digit known: zero at precision
                lo, unit = prec, 0
            lo += r
            prec += r
        if prec < 1:
            raise PrecisionExhausted("digits at positions <= 0 not all determined")
        pexp.append(r)
        if lo >= 1:
            entries.append((0, 0))
            nxt.append((lo, unit, prec))
        else:  # the digits at positions lo .. 0 are the integral part
            pc = p ** (1 - lo)
            w = unit * inv % pc
            entries.append((w, -lo))
            nxt.append((1, (unit - w * u_i) // pc, prec))
    return i, pexp, entries, u_i, nxt


def _digit(spec: SystemSpec, i: int, pexp, entries):
    """The digit of a step_core step: pivot i, exponents pexp and integral
    parts q_k = w / p**c for entries[k] = (w, c)."""
    p = spec.ctx.p
    qvec = [Fraction(w, p**c) for w, c in entries]
    if spec.kind == ONE_DIM:
        return Digit1D(pexp[0], qvec[0])
    return DigitMD(tuple(pexp), tuple(qvec), i)


def step(spec: SystemSpec, x):
    """One application of the algorithm: (digit, next point).

    With pivot i, the term of slot k is x_sigma(k) / x_i at depth
    ord(x_i) - ord(x_sigma(k)), or 1 / x_i at depth ord(x_i) in the slot with
    sigma(k) = i.  It is scaled by p**r_k, r_k the exponent of its depth, and
    split into its integral part q_k (the digit entry) and its fractional part
    y_k (the next point).

    This is the value-typed edge of step_core, which does the step on
    integers.  An exact coordinate keeps inf precision, so a term of exact
    coordinates over an exact pivot stays a Fraction (an exact zero stays
    Fraction(0)), and every other term becomes a PadicApprox.  Raises
    ExpansionTerminated when the pivot coordinate is exactly zero and
    PrecisionExhausted when an approximation cannot support the step.  A
    scalar is accepted when m = 1, and the next point has the input's shape.
    """
    scalar = not isinstance(x, (tuple, list))
    ctx = spec.ctx
    p = ctx.p
    i, pexp, entries, x0, nxt = step_core(spec, *_coerce_point(spec, (x,) if scalar else tuple(x)))
    n = max([prec - lo for lo, _, prec in nxt if prec != INF], default=0)
    inv = _inv_unit(x0, p, n) if x0 != 1 else 1
    ys = [
        PadicApprox(ctx, lo, unit * inv, prec) if prec != INF
        else _fraction(p, lo, unit, x0) if unit else Fraction(0)
        for lo, unit, prec in nxt
    ]
    return _digit(spec, i, pexp, entries), (ys[0] if scalar else tuple(ys))


def pivot_valuation(spec: SystemSpec, d) -> int:
    """Valuation of the pivot coordinate at the step that emitted this digit,
    its pivot depth; InvalidDigit for a digit no step of the system emits.

    A Digit1D is the case m = 1.  The entry of slot s = sigma^-1(i) lies at
    the pivot depth d_i >= 1.  Every other nonzero entry lies at depth
    d_i - ord(x_sigma(k)), and the pivot rule bounds that valuation below: by
    1 for the cyclic family, and for Brun by d_i after the pivot and d_i + 1
    before it.
    """
    if isinstance(d, Digit1D) != (spec.kind == ONE_DIM):
        dim = "one" if spec.kind == ONE_DIM else "multi"
        raise InvalidDigit(f"expected a {dim}-dimensional digit")
    m = spec.m
    i, pexp, qvec = d.pivot, d.pexp, d.qvec
    if len(pexp) != m or len(qvec) != m or not 1 <= i <= m or (i != 1 and spec.kind != BRUN):
        raise InvalidDigit("malformed digit")
    p = spec.ctx.p
    ell = spec.exponent_ell
    sigma = spec.sigma
    s = sigma.index(i)
    d_i = _entry_depth(pexp[s], qvec[s], ell, p)
    if d_i < 1:
        raise InvalidDigit("pivot depth must be >= 1")
    for k in range(m):
        if k == s:
            continue
        r, q = pexp[k], qvec[k]
        if q == 0:
            if r != 0:
                raise InvalidDigit("zero integral part forces zero exponent")
            continue
        least_ord = 1 if spec.kind != BRUN else (d_i + 1 if sigma[k] < i else d_i)
        if _entry_depth(r, q, ell, p) > d_i - least_ord:
            raise InvalidDigit("coordinate depth exceeds what the pivot rule allows")
    return d_i


def branch_lft(spec: SystemSpec, d) -> LftParams:
    """The branch transformation determined by a digit; always hyperbolic."""
    pivot_valuation(spec, d)  # validates
    p = spec.ctx.p
    pvec = tuple([p**r for r in d.pexp])
    return LftParams(spec.ctx, spec.m, d.pivot, spec.sigma, pvec, d.qvec)


def expand(spec: SystemSpec, x, max_steps: int) -> Expansion:
    """Iterate the algorithm, recording digits until it stops or max_steps.

    The point, a scalar when m = 1, is read once into step_core's form and
    stepped on integers, so the digits are those of repeated step calls;
    ValueError for a point outside (p*Z_p)^m, even at max_steps = 0."""
    x0, point = _coerce_point(spec, tuple(x) if isinstance(x, (tuple, list)) else (x,))
    digits = []
    for j in range(max_steps):
        try:
            i, pexp, entries, x0, point = step_core(spec, x0, point)
        except ExpansionTerminated:
            return Expansion(tuple(digits), TERMINATED, j)
        except PrecisionExhausted:
            return Expansion(tuple(digits), EXHAUSTED, j)
        digits.append(_digit(spec, i, pexp, entries))
    return Expansion(tuple(digits), RUNNING, max_steps)


def convergent(spec: SystemSpec, digits):
    """Exact rational approximant from a digit prefix.

    Composes the inverse branches, innermost applied to the origin.  Returns
    a scalar for one-dimensional systems, a tuple otherwise.
    """
    vec = (Fraction(0),) * spec.m
    for d in reversed(tuple(digits)):
        vec = apply_inverse(branch_lft(spec, d), vec)
    return vec[0] if spec.kind == ONE_DIM else vec


def _branch_slots(spec: SystemSpec, d) -> tuple[int, list[tuple[int, int, int]]]:
    """(top, slots), the nonzero entries of the integer matrix M of
    branch_lft(spec, d)'s inverse branch, for a digit pivot_valuation
    accepted: lft.apply_inverse maps y = (Y_1/Y_0, ..., Y_m/Y_0) to X/X_0 for
    X = M Y, so composing inverse branches multiplies their matrices.  With
    p_k = p**r_k and q_k = n_k / p**c_k, top is the largest p_k * p**c_k.
    Entry [i][0] is top, and slot t = 1..m gives (k, e0, et): entry [k][0] is
    e0 = n_t*top/(p_t*p**c_t) and [k][t] is et = top/p_t, for k = 0 in the
    pivot's slot s = sigma^-1(i) and k = sigma(t) otherwise.  Every entry is
    >= 0, and top, every et and entry [0][0] (q_s > 0 scaled) are > 0."""
    p, i = spec.ctx.p, d.pivot
    pw = [p**r for r in d.pexp]
    scale = [pk * q.denominator for pk, q in zip(pw, d.qvec)]
    top = max(scale)
    slots = [
        (0 if k == i else k, q.numerator * (top // sc), top // pk)
        for k, q, sc, pk in zip(spec.sigma, d.qvec, scale, pw)
    ]
    return top, slots


def _convergent_pairs(spec: SystemSpec, digits):
    """Yield convergent(spec, digits[:j]) for j = 1, 2, ..., in turn, as a
    tuple of m reduced integer pairs (num, den) with den > 0.

    Carries the composed inverse branch M_1*...*M_j as its m + 1 integer
    columns and right-multiplies it by each new branch matrix, so every row
    costs one branch instead of j.  By the shape _branch_slots gives, new
    column t >= 1 is old column k times et, and new column 0 is top times old
    column i plus each slot's e0 times old column k; no LftParams and no
    dense branch matrix is built.  The convergent, the image of the origin
    e_0, is column 0 over its entry 0, which stays > 0 because every branch
    entry is >= 0 and entry [0][0] is > 0; one gcd per coordinate reduces
    it.  Digits are validated by pivot_valuation one by one, so an invalid
    digit raises after the rows before it.
    """
    size = spec.m + 1
    cols = [[int(r == c) for r in range(size)] for c in range(size)]
    for d in digits:
        pivot_valuation(spec, d)
        top, slots = _branch_slots(spec, d)
        col0 = [top * x for x in cols[d.pivot]]
        for k, e0, _ in slots:
            if e0:
                col0 = [a + e0 * b for a, b in zip(col0, cols[k])]
        cols = [col0] + [[et * x for x in cols[k]] for k, _, et in slots]
        x0 = col0[0]
        pairs = []
        for n in col0[1:]:
            g = math.gcd(n, x0)
            pairs.append((n // g, x0 // g))
        yield tuple(pairs)


def convergents(spec: SystemSpec, digits):
    """Yield convergent(spec, digits[:j]) for j = 1, 2, ..., in turn: the
    pairs of _convergent_pairs as Fractions, a scalar for one-dimensional
    systems and a tuple otherwise."""
    for pairs in _convergent_pairs(spec, digits):
        vec = tuple([Fraction(n, d) for n, d in pairs])
        yield vec[0] if spec.kind == ONE_DIM else vec


def _top_exponent(p: int, iota_bound) -> int:
    """The largest e with p**e <= iota_bound, for iota_bound >= 1: the cut
    that branch enumeration compares exponents against, in place of powers."""
    e = int(math.log(math.floor(iota_bound), p))  # a float log, off by at most one
    return e + (p ** (e + 1) <= iota_bound) - (p**e > iota_bound)


def _pivot_classes(spec: SystemSpec, iota_bound) -> list[tuple[int, int, int, int, int, int]]:
    """(d1, r_m, u, base, r, cls) for each pivot depth d1 = 1, 2, ... with a
    branch of iota <= iota_bound.

    The pivot entry splits as (r_m, u) = _depth_split(d1); a branch whose
    non-pivot exponents sum to R has iota p**(base - R).  A non-pivot entry is
    zero or at a depth 0 .. d1 - 1, so (r, cls) = _depth_split(d1 - 1) is the
    one class it gains at d1 and r its largest exponent: a table of non-pivot
    options carried across the depths grows by that class alone.  The depths
    stop at the first whose smallest iota exceeds the bound (two _depth_split
    calls per depth, that one included); a one-dimensional system is m = 1.
    """
    p = spec.ctx.p
    if iota_bound < p:
        raise ValueError("iota_bound must be at least p")
    if spec.kind == BRUN:
        raise NotImplementedError("Brun branches are only observed, not enumerated")
    m = spec.m
    top = _top_exponent(p, iota_bound)
    out = []
    d1 = 1
    while True:
        r_m, u = _depth_split(d1, spec.ell)
        base = m * r_m + (m + 1) * u
        r, cls = _depth_split(d1 - 1, spec.ell)
        if base - (m - 1) * r > top:
            return out
        out.append((d1, r_m, u, base, r, cls))
        d1 += 1


def _enumerate(spec: SystemSpec, iota_bound) -> list:
    """(e, digit) for every branch with iota = p**e <= iota_bound, unsorted."""
    p = spec.ctx.p
    classes = _pivot_classes(spec, iota_bound)
    top = _top_exponent(p, iota_bound)
    out = []
    options = [(0, Fraction(0))]  # a non-pivot entry: zero, or at depth 0 .. d1-1
    for _, r_m, u, base, max_r, cls in classes:
        if spec.kind == ONE_DIM:
            out += [(base, Digit1D(r_m, q)) for q in digit_values(p, u)]
            continue
        options += [(max_r, q) for q in digit_values(p, cls)]
        for q_m in digit_values(p, u):
            partial = [((), (), base)]
            for left in range(spec.m - 2, -1, -1):  # slots left after this one
                partial = [
                    (rs + (r,), qs + (q,), expo - r)
                    for rs, qs, expo in partial
                    for r, q in options
                    if expo - r - left * max_r <= top
                ]
            for rs, qs, expo in partial:
                if expo <= top:
                    out.append((expo, DigitMD(rs + (r_m,), qs + (q_m,), 1)))
    return out


def enumerate_branches(spec: SystemSpec, iota_bound) -> list[tuple]:
    """All branches with iota <= iota_bound, each once, in a fixed order.

    Returns (digit, params) pairs sorted by iota, then by digit key.  Brun's
    family is not enumerable here (its branch set has no closed form in this
    parameterisation).
    """
    entries = _enumerate(spec, iota_bound)
    entries.sort(
        key=lambda e: (e[0], e[1].pexp, tuple((q.numerator, q.denominator) for q in e[1].qvec))
    )
    return [(d, branch_lft(spec, d)) for _, d in entries]


def branch_counts(spec: SystemSpec, iota_bound) -> dict[int, int]:
    """{e: number of branches with iota = p**e} over the branches with
    iota <= iota_bound: the counts of enumerate_branches without the branches.

    A class-n digit value has (p-1)*p**n choices, and the non-pivot
    coordinates choose independently, so their option counts, grouped by
    p-exponent, multiply.  The option table is carried across pivot depths,
    one class added per depth.  The cut p**e <= iota_bound is applied per
    exponent, so a bound that cuts a pivot class partway is still exact.
    """
    p = spec.ctx.p
    counts: Counter[int] = Counter()
    slot = Counter({0: 1})  # the zero entry
    classes = _pivot_classes(spec, iota_bound)
    top = _top_exponent(p, iota_bound)
    for _, _, u, base, r, cls in classes:
        slot[r] += (p - 1) * p**cls
        by_sum = Counter({0: (p - 1) * p**u})  # sum of non-pivot exponents -> branches
        for _ in range(spec.m - 1):
            nxt: Counter[int] = Counter()
            for total, n in by_sum.items():
                for r_k, c in slot.items():
                    nxt[total + r_k] += n * c
            by_sum = nxt
        for total, n in by_sum.items():
            if base - total <= top:
                counts[base - total] += n
    return counts


# -- digit serialization ------------------------------------------------------


def digit_to_obj(d) -> dict:
    if isinstance(d, Digit1D):
        return {"k": d.k, "v": format_rational(d.v)}
    return {
        "pexp": list(d.pexp),
        "q": [format_rational(q) for q in d.qvec],
        "pivot": d.pivot,
    }


def _json_int(x) -> int:
    if type(x) is not int:  # neither a bool nor a float such as 1e0
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def digit_from_obj(obj: dict):
    """The digit of a digit_to_obj record; ValueError unless its keys are
    {k, v} or {pexp, q} with an optional pivot, k, pivot and the pexp entries
    are JSON integers and v and the q entries strings."""
    keys = set(obj) if isinstance(obj, dict) else None
    if keys == {"k", "v"}:
        return Digit1D(_json_int(obj["k"]), parse_rational(obj["v"]))
    if keys not in ({"pexp", "q"}, {"pexp", "q", "pivot"}):
        raise ValueError(f"expected the keys k, v or pexp, q[, pivot], got {obj!r}")
    if not (isinstance(obj["pexp"], list) and isinstance(obj["q"], list)):
        raise ValueError("pexp and q must be lists")
    return DigitMD(
        tuple(map(_json_int, obj["pexp"])),
        tuple(map(parse_rational, obj["q"])),
        _json_int(obj.get("pivot", 1)),
    )


def expansion_records(spec: SystemSpec, exp: Expansion):
    """One JSON-ready record per emitted digit: {j, digit, ord_consumed}.
    The digits are step's, so the pivot depth is read, not validated:
    pexp[s] + digit_class(qvec[s]) in the pivot's slot s = sigma^-1(i)."""
    p = spec.ctx.p
    slot = {i: s for s, i in enumerate(spec.sigma)}
    for j, d in enumerate(exp.digits):
        s = slot[d.pivot]
        depth = d.pexp[s] + digit_class(d.qvec[s], p)
        yield {"j": j, "digit": digit_to_obj(d), "ord_consumed": depth}
