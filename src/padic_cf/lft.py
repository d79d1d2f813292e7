"""m-dimensional linear fractional transformations.

A branch of a continued fraction algorithm is the map

    y_k = p_k / x_i - q_k                 for k = s,
    y_k = p_k * x_{sigma(k)} / x_i - q_k  otherwise,

with parameter (i, sigma, p-vector, q-vector) and s = sigma^{-1}(i).  The
hyperbolicity conditions force the inverse branch to contract (p*Z_p)^m by a
factor 1/p, and give it a constant Jacobian with respect to Haar measure.

This module is the exact-measure side of a branch: its parameters, the
hyperbolicity certificate, the Jacobian factor iota, the inverse branch on
exact vectors and the exact preimage of a cylinder.  Certifying a branch
reads each ord(p_k) and ord(q_k) once and keeps one record on it, from which
iota and preimage_cylinder read every exponent and integer they need.
Forward evaluation, the rational inverse matrix and random branches are test
oracles, kept in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotHyperbolicError
from .padic_core import (
    Ball,
    PrimeCtx,
    ProductCylinder,
    _haar,
    as_fraction,
    format_rational,
    valuation,
)


@dataclass(frozen=True)
class LftParams:
    """Parameter (i, sigma, pvec, qvec) of one m-dimensional branch.

    sigma is stored as a tuple with sigma[k-1] = sigma(k), indices 1-based.
    """

    ctx: PrimeCtx
    m: int
    i: int
    sigma: tuple[int, ...]
    pvec: tuple[Fraction, ...]
    qvec: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "pvec", tuple(map(as_fraction, self.pvec)))
        object.__setattr__(self, "qvec", tuple(map(as_fraction, self.qvec)))
        if self.m < 1 or not (1 <= self.i <= self.m):
            raise ValueError("need m >= 1 and 1 <= i <= m")
        if sorted(self.sigma) != list(range(1, self.m + 1)):
            raise ValueError("sigma must be a permutation of 1..m")
        if len(self.pvec) != self.m or len(self.qvec) != self.m:
            raise ValueError("pvec and qvec must have length m")
        if not all(self.pvec):
            raise ValueError("pvec entries must be nonzero")

    @property
    def s(self) -> int:
        """sigma^{-1}(i), the coordinate whose image carries 1/x_i alone."""
        return self.sigma.index(self.i) + 1

    def sigma_inv(self, k: int) -> int:
        return self.sigma.index(k) + 1

    def to_obj(self) -> dict:
        return {
            "m": self.m,
            "i": self.i,
            "sigma": list(self.sigma),
            "p": [format_rational(v) for v in self.pvec],
            "q": [format_rational(v) for v in self.qvec],
        }


@dataclass(frozen=True)
class HyperbolicCert:
    """Derived constants of a hyperbolic branch: u = -ord(q_s), v = ord(p_s),
    h = max_k(ord(p_s) - ord(p_k))."""

    u: int
    v: int
    h: int

    def __post_init__(self):
        if self.v + self.u <= 0:
            raise ValueError("hyperbolicity requires v + u > 0")
        if self.h < 0:
            raise ValueError("h must be >= 0")


def certify_hyperbolic(f: LftParams) -> HyperbolicCert:
    """Check the four hyperbolicity conditions; raise NotHyperbolicError with
    the failing condition number otherwise.

    The same pass, which reads each ord(p_k) and ord(q_k) once, builds f's
    record (see _record) and keeps it on f (not a field), so it is freed with
    f.  It is kept only once every condition holds: a non-hyperbolic f keeps
    nothing and raises on every call.

    Writing n/d for numerators and denominators, p_k/(x + q_k) is
    N_k/(A_k*x + C_k) with N_k = pn_k*qd_k, A_k = pd_k*qd_k, C_k = pd_k*qn_k,
    and ord(N_k) = ord(p_k) - min(ord(q_k), 0) once ord(p_k) >= 0.
    """
    ctx = f.ctx
    pord = [valuation(v, ctx) for v in f.pvec]
    low = min(pord)
    if low < 0:
        raise NotHyperbolicError(1, "some ord(p_k) < 0")
    s = f.s
    qord = [valuation(q, ctx) for q in f.qvec]  # q_k = 0 reads +inf
    if qord[s - 1] > 0:
        raise NotHyperbolicError(2, "ord(q_s) <= 0 required")
    u = -qord[s - 1]
    v = pord[s - 1]
    if v + u <= 0:
        raise NotHyperbolicError(2, "ord(p_s/q_s) > 0 required")
    p, h = ctx.p, v - low
    coords = [(v + 2 * u + h, 0, 0, 1, 1, 1)] * f.m  # the pivot's; the rest are set below
    for k in range(1, f.m + 1):
        if k == s:
            continue
        ak = pord[k - 1]
        nord = ak - min(qord[k - 1], 0)  # ord(N_k)
        if v + u <= nord:
            # (iii) for ord(q_k) <= 0, else (iv), q_k = 0 included
            raise NotHyperbolicError(3 if qord[k - 1] <= 0 else 4, f"coordinate {k}")
        x, q = f.pvec[k - 1], f.qvec[k - 1]
        pd, qd = x.denominator, q.denominator
        pp = p**nord
        num = x.numerator * qd
        coords[f.sigma[k - 1] - 1] = (v + u - ak, k - 1, pd * qd, pd * q.numerator, pp, num // pp)
    x, q = f.pvec[s - 1], f.qvec[s - 1]
    pd, qd = x.denominator, q.denominator
    cert = HyperbolicCert(u, v, h)
    expo = f.m * v + (f.m + 1) * u - (sum(pord) - v)
    pivot = (x.numerator * qd, pd * qd, pd * q.numerator)
    object.__setattr__(f, "_rec", (cert, expo, s - 1, *pivot, v + 2 * u, p**h, tuple(coords)))
    return cert


def _record(f: LftParams) -> tuple:
    """f's record, made by certify_hyperbolic on f's first iota,
    apply_inverse or preimage_cylinder call.

    It is (cert, e, s-1, N_s, A_s, C_s, v+2u, p**h, coords) with iota(f) =
    p**e, where coordinate k has (level - n, t-1, A_t, C_t, p**P_t, R_t),
    t = sigma^-1(k) and N_t = p**P_t * R_t with R_t prime to p, so that
    (x + q_t)/p_t = (A_t*x + C_t)/N_t; the pivot has A = 0 and
    C = p**P = R = 1, for the factor 1.  None of it depends on a cylinder.
    """
    rec = getattr(f, "_rec", None)
    if rec is None:
        certify_hyperbolic(f)
        rec = f._rec
    return rec


def iota(f: LftParams) -> Fraction:
    """The constant Jacobian factor of the inverse branch, a power of p.

    1/iota is the Haar measure of the branch's first-digit cylinder.
    """
    return _haar(f.ctx.p, -_record(f)[1])


def apply_inverse(f: LftParams, ys) -> tuple:
    """Evaluate the inverse branch on an exact vector in (p*Z_p)^m.

    Hyperbolicity makes this total there, with every output coordinate back
    in p*Z_p.
    """
    _record(f)
    if len(ys) != f.m:
        raise ValueError("dimension mismatch")
    if any(valuation(y, f.ctx) < 1 for y in ys):
        raise ValueError("inverse branch expects a vector in (p*Z_p)^m")
    s = f.s
    ps = f.pvec[s - 1]
    dinv = 1 / (ys[s - 1] + f.qvec[s - 1])
    out = []
    for k in range(1, f.m + 1):
        if k == f.i:
            out.append(ps * dinv)
        else:
            t = f.sigma_inv(k)
            out.append(ps * (ys[t - 1] + f.qvec[t - 1]) * dinv / f.pvec[t - 1])
    return tuple(out)


def _cylinder_ints(c: ProductCylinder) -> tuple:
    """(p, uniform level, integer ball centres) of c for preimage_cylinder,
    read on its first call and kept on c like a branch's record; nothing is
    kept when a check raises, so a bad cylinder raises on every call."""
    ints = getattr(c, "_ints", None)
    if ints is None:
        n = c.uniform_level()
        if any(b._clo < 1 for b in c.balls):
            raise ValueError("cylinder must be contained in (p*Z_p)^m")
        p = c.ctx.p
        ints = (p, n, [b._cunit * p**b._clo for b in c.balls])
        object.__setattr__(c, "_ints", ints)
    return ints


def preimage_cylinder(f: LftParams, c: ProductCylinder) -> list[ProductCylinder]:
    """Exact decomposition of the inverse image of a uniform-level cylinder.

    Returns p**h pairwise disjoint product cylinders whose measures sum to
    measure(c) / iota(f).  Piece y has pivot centre x = base + p**e * y and
    centre x * w_k, w_k = (c_t + q_t) / p_t, at coordinate k != i,
    t = sigma^-1(k): all p-integral, so built as (a_k + b_k * y) mod p**level
    from _record(f)'s integers, with one modular inverse per coordinate.
    Piece 0 is built from the a_k directly, and the steps b_k only when
    h > 0.  The pieces' balls are in digit form, with no Fraction centre built.
    """
    _, _, s, num, lin, const, e, count, parts = _record(f)
    if c.m != f.m:
        raise ValueError("dimension mismatch")
    ctx = f.ctx
    p, n, centres = _cylinder_ints(c)
    if p != ctx.p:
        raise ValueError("cylinder and branch must share one prime")
    unit = lin * centres[s] + const  # base = num / unit, a p-adic unit
    ball = Ball._from_residue
    first, steps = [], []
    for off, t, lin_t, const_t, pp, r in parts:
        level = n + off
        mod = p**level
        w = lin_t * centres[t] + const_t  # w_k = w / (pp * r)
        inv = pow(unit * r, -1, mod)
        a = num * w // pp * inv % mod
        first.append(ball(ctx, a, level))
        if count > 1:
            steps.append((level, mod, a, p ** (n + e) * w // pp * unit * inv % mod))
    piece = ProductCylinder._of
    pieces = [piece(tuple(first))]
    if count > 1:
        pieces += [
            piece(tuple([ball(ctx, (a + b * y) % mod, level) for level, mod, a, b in steps]))
            for y in range(1, count)
        ]
    return pieces
