"""The concrete continued fraction families.

One-dimensional: the map x -> p**k / x - floor(p**k / x) on p*Z_p, where
k = max(ord(x) - ell, 0).  ell = 0 is Schneider's algorithm, ell = inf is
Ruban's.  Multi-dimensional: the cyclic pivot generalisation whose ell = inf
instance is the p-adic Jacobi-Perron algorithm.  Brun's variant pivots on the
coordinate of maximal norm instead.

Each step emits a digit identifying the inverse branch; composing inverse
branches applied to the origin yields the exact rational convergents.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExpansionTerminated,
    InvalidDigit,
    PrecisionExhausted,
)
from .lft import LftParams, apply_inverse, certify_hyperbolic, inverse_matrix, iota
from .padic_core import (
    INF,
    PadicApprox,
    PrimeCtx,
    format_rational,
    integral_part,
    parse_rational,
    valuation,
)

ONE_DIM = "one-dim"
MULTI_DIM = "multi-dim"
BRUN = "brun"

RUNNING = "running"
TERMINATED = "terminated"
EXHAUSTED = "precision-exhausted"


def digit_class(v, p: int) -> int | None:
    """Class N of an admissible digit value: v = sum_{i=-N}^0 c_i p**i with
    leading digit nonzero.  None when v is not of this shape."""
    v = Fraction(v)
    if v <= 0:
        return None
    num, den = v.numerator, v.denominator
    if den == 1:
        return 0 if num <= p - 1 else None
    n = 0
    while den % p == 0:
        den //= p
        n += 1
    if den != 1:
        return None
    return n if num < p ** (n + 1) else None


def digit_values(p: int, n: int):
    """All (p-1)*p**n admissible digit values of class n, ascending."""
    if n == 0:
        for w in range(1, p):
            yield Fraction(w)
        return
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

    @property
    def name(self) -> str:
        if self.kind == BRUN:
            return "brun"
        if self.kind == MULTI_DIM:
            return "jacobi-perron" if self.ell == INF else "tlm"
        if self.ell == 0:
            return "schneider"
        if self.ell == INF:
            return "ruban"
        return "tl"

    @property
    def ell_str(self) -> str:
        if self.kind == BRUN:
            return "-"
        return "inf" if self.ell == INF else str(self.ell)


@dataclass(frozen=True)
class Digit1D:
    """One-dimensional digit (k, v): the branch x -> p**k / x - v."""

    k: int
    v: Fraction

    def __post_init__(self):
        object.__setattr__(self, "v", Fraction(self.v))


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
        object.__setattr__(self, "pexp", tuple(int(r) for r in self.pexp))
        object.__setattr__(self, "qvec", tuple(Fraction(q) for q in self.qvec))


@dataclass(frozen=True)
class Expansion:
    """Digit record of an orbit: emitted digits plus the stopping status."""

    digits: tuple
    status: str
    stopped_at: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))


def _coerce_point(spec: SystemSpec, x):
    """Normalise a point to a coordinate tuple; scalars allowed for 1-D."""
    if spec.kind == ONE_DIM:
        coords = (x,) if not isinstance(x, (tuple, list)) else tuple(x)
    else:
        coords = tuple(x)
    if len(coords) != spec.m:
        raise ValueError(f"expected {spec.m} coordinates, got {len(coords)}")
    out = []
    for c in coords:
        if isinstance(c, PadicApprox):
            if c.ctx.p != spec.ctx.p:
                raise ValueError("coordinate prime differs from system prime")
            if not c.is_exact_zero and c.valuation_lower_bound() < 1:
                raise ValueError("point must lie in (p*Z_p)^m")
            out.append(c)
        else:
            c = Fraction(c)
            if c != 0 and valuation(c, spec.ctx) < 1:
                raise ValueError("point must lie in (p*Z_p)^m")
            out.append(c)
    return tuple(out)


def _val_info(x, ctx: PrimeCtx):
    """(kind, value): ('zero', None) exact zero, ('ord', d) known valuation,
    ('min', bound) only a lower bound is known."""
    if isinstance(x, PadicApprox):
        if x.is_exact_zero:
            return "zero", None
        if x.is_zero_at_precision:
            return "min", x.abs_prec
        return "ord", x.valuation()
    if x == 0:
        return "zero", None
    return "ord", valuation(x, ctx)


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


def _clamped_exponent(d1: int, ell, other_kind: str, other_val) -> int:
    """p-exponent of a coordinate at depth d1 - ord(x_other) below the pivot."""
    if other_kind == "zero":
        return 0
    r = _depth_split(d1 - other_val, ell)[0]
    if r and other_kind == "min":
        raise PrecisionExhausted("pivot exponent not determined")
    return r


def _invert(x):
    if isinstance(x, PadicApprox):
        return x.inverse()
    return 1 / x


def _shift_pk(x, k: int, p: int):
    if k == 0:
        return x
    if isinstance(x, PadicApprox):
        return x._shift(k)
    return x * p**k


def _split(x, ctx: PrimeCtx):
    """(integral part, fractional part) for either value type."""
    if isinstance(x, PadicApprox):
        return x._split_at_one()
    i = integral_part(x, ctx)
    return i, x - i


def _step_one_dim(spec: SystemSpec, coords):
    x = coords[0]
    kind, d = _val_info(x, spec.ctx)
    if kind == "zero":
        raise ExpansionTerminated("orbit reached exact zero")
    if kind == "min":
        raise PrecisionExhausted("pivot valuation not determined")
    k = _depth_split(d, spec.ell)[0]
    w = _shift_pk(_invert(x), k, spec.ctx.p)
    v, nxt = _split(w, spec.ctx)
    return Digit1D(k, v), (nxt,)


def _step_multi_dim(spec: SystemSpec, coords):
    ctx = spec.ctx
    m = spec.m
    x1 = coords[0]
    kind, d1 = _val_info(x1, ctx)
    if kind == "zero":
        raise ExpansionTerminated("pivot coordinate is exact zero")
    if kind == "min":
        raise PrecisionExhausted("pivot valuation not determined")
    inv1 = _invert(x1)
    pexp = []
    qvec = []
    ys = []
    for k in range(1, m + 1):
        if k == m:
            r = _depth_split(d1, spec.ell)[0]
            arg = _shift_pk(inv1, r, ctx.p)
        else:
            xk = coords[k]
            okind, oval = _val_info(xk, ctx)
            r = _clamped_exponent(d1, spec.ell, okind, oval)
            if okind == "zero":
                arg = Fraction(0)
            else:
                arg = _shift_pk(xk * inv1, r, ctx.p)
        q, y = _split(arg, ctx)
        pexp.append(r)
        qvec.append(q)
        ys.append(y)
    return DigitMD(tuple(pexp), tuple(qvec), 1), tuple(ys)


def _step_brun(spec: SystemSpec, coords):
    ctx = spec.ctx
    infos = [_val_info(c, ctx) for c in coords]
    known = [v for kind, v in infos if kind == "ord"]
    if not known:
        if all(kind == "zero" for kind, _ in infos):
            raise ExpansionTerminated("orbit reached exact zero")
        raise PrecisionExhausted("no coordinate has a determined valuation")
    dmin = min(known)
    pivot = None
    for idx, (kind, v) in enumerate(infos):
        if kind == "min" and v <= dmin:
            # could tie or undercut the best known valuation
            raise PrecisionExhausted("pivot selection not determined")
        if kind == "ord" and v == dmin and pivot is None:
            pivot = idx + 1
    xi = coords[pivot - 1]
    invi = _invert(xi)
    qvec = []
    ys = []
    for k in range(1, spec.m + 1):
        if k == pivot:
            arg = invi
        else:
            xk = coords[k - 1]
            kind, _ = _val_info(xk, ctx)
            arg = Fraction(0) if kind == "zero" else xk * invi
        q, y = _split(arg, ctx)
        qvec.append(q)
        ys.append(y)
    return DigitMD((0,) * spec.m, tuple(qvec), pivot), tuple(ys)


def step(spec: SystemSpec, x):
    """One application of the algorithm: (digit, next point).

    Raises ExpansionTerminated when the pivot coordinate is exactly zero and
    PrecisionExhausted when an approximation cannot support the step.  The
    shape of the returned point matches the input (scalar for 1-D).
    """
    coords = _coerce_point(spec, x)
    if spec.kind == ONE_DIM:
        digit, nxt = _step_one_dim(spec, coords)
        scalar_in = not isinstance(x, (tuple, list))
        return digit, (nxt[0] if scalar_in else nxt)
    if spec.kind == MULTI_DIM:
        return _step_multi_dim(spec, coords)
    return _step_brun(spec, coords)


def _sigma_cyclic(m: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(1, m)) + (1,)


def _validate_digit_1d(spec: SystemSpec, d: Digit1D) -> int:
    """Pivot depth of a one-dimensional digit; InvalidDigit if no step emits it."""
    depth = _entry_depth(d.k, d.v, spec.ell, spec.ctx.p)
    if depth < 1:
        raise InvalidDigit("pivot depth must be >= 1")
    return depth


def _validate_digit_md(spec: SystemSpec, d: DigitMD) -> int:
    """Pivot depth of a cyclic-family digit; InvalidDigit if no step emits it."""
    p = spec.ctx.p
    m = spec.m
    if len(d.pexp) != m or len(d.qvec) != m or d.pivot != 1:
        raise InvalidDigit("malformed digit")
    d1 = _entry_depth(d.pexp[m - 1], d.qvec[m - 1], spec.ell, p)
    if d1 < 1:
        raise InvalidDigit("pivot depth must be >= 1")
    for r, q in zip(d.pexp[: m - 1], d.qvec[: m - 1]):
        if q == 0:
            if r != 0:
                raise InvalidDigit("zero integral part forces zero exponent")
        elif _entry_depth(r, q, spec.ell, p) > d1 - 1:
            raise InvalidDigit("coordinate depth exceeds pivot depth")
    return d1


def _validate_digit_brun(spec: SystemSpec, d: DigitMD):
    p = spec.ctx.p
    m = spec.m
    if len(d.pexp) != m or len(d.qvec) != m or not (1 <= d.pivot <= m):
        raise InvalidDigit("malformed digit")
    if any(r != 0 for r in d.pexp):
        raise InvalidDigit("Brun branches carry no p factors")
    cls_p = digit_class(d.qvec[d.pivot - 1], p)
    if cls_p is None or cls_p < 1:
        raise InvalidDigit("pivot integral part must have class >= 1")
    for k in range(1, m + 1):
        if k == d.pivot:
            continue
        q = d.qvec[k - 1]
        if k < d.pivot:
            if q != 0:
                raise InvalidDigit("coordinates before the pivot have larger valuation")
        elif q != 0 and digit_class(q, p) != 0:
            raise InvalidDigit("non-pivot integral parts have class 0")


def branch_lft(spec: SystemSpec, d) -> LftParams:
    """The branch transformation determined by a digit; always hyperbolic."""
    ctx = spec.ctx
    p = ctx.p
    if spec.kind == ONE_DIM:
        if not isinstance(d, Digit1D):
            raise InvalidDigit("expected a one-dimensional digit")
        _validate_digit_1d(spec, d)
        return LftParams(ctx, 1, 1, (1,), (Fraction(p**d.k),), (d.v,))
    if not isinstance(d, DigitMD):
        raise InvalidDigit("expected a multi-dimensional digit")
    if spec.kind == MULTI_DIM:
        _validate_digit_md(spec, d)
        pvec = tuple(Fraction(p**r) for r in d.pexp)
        return LftParams(ctx, spec.m, 1, _sigma_cyclic(spec.m), pvec, d.qvec)
    _validate_digit_brun(spec, d)
    identity = tuple(range(1, spec.m + 1))
    ones = (Fraction(1),) * spec.m
    return LftParams(ctx, spec.m, d.pivot, identity, ones, d.qvec)


def pivot_valuation(spec: SystemSpec, d) -> int:
    """Valuation of the pivot coordinate at the step that emitted this digit.

    Raises InvalidDigit for a digit the system cannot emit.
    """
    if spec.kind == ONE_DIM:
        return _validate_digit_1d(spec, d)
    if spec.kind == MULTI_DIM:
        return _validate_digit_md(spec, d)
    return digit_class(d.qvec[d.pivot - 1], spec.ctx.p)


def expand(spec: SystemSpec, x, max_steps: int) -> Expansion:
    """Iterate the algorithm, recording digits until it stops or max_steps."""
    cur = x
    digits = []
    for j in range(max_steps):
        try:
            d, cur = step(spec, cur)
        except ExpansionTerminated:
            return Expansion(tuple(digits), TERMINATED, j)
        except PrecisionExhausted:
            return Expansion(tuple(digits), EXHAUSTED, j)
        digits.append(d)
    return Expansion(tuple(digits), RUNNING, max_steps)


def convergent(spec: SystemSpec, digits):
    """Exact rational approximant from a digit prefix.

    Composes the inverse branches, innermost applied to the origin.  Returns
    a scalar for one-dimensional systems, a tuple otherwise.
    """
    vec = (Fraction(0),) * spec.m
    for d in reversed(tuple(digits)):
        f = branch_lft(spec, d)
        cert = certify_hyperbolic(f)
        vec = apply_inverse(f, vec, cert)
    return vec[0] if spec.kind == ONE_DIM else vec


def _integral(matrix):
    """The same projective map with integer entries, scaled by the lcm of the
    denominators, so that products need no gcd per entry."""
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in matrix)


def _compose(a, b):
    """Matrix product a*b, skipping the zero entries of b (every column of a
    branch matrix but the first has a single nonzero entry)."""
    size = len(b)
    cols = [[(k, b[k][c]) for k in range(size) if b[k][c]] for c in range(size)]
    return tuple(tuple(sum(row[k] * x for k, x in col) for col in cols) for row in a)


def convergents(spec: SystemSpec, digits):
    """Yield convergent(spec, digits[:j]) for j = 1, 2, ..., in turn.

    Carries the composed inverse branch M_1*...*M_j as one homogeneous
    matrix and right-multiplies it by each new branch matrix, so every row
    costs one branch instead of j.  The convergent, the image of the origin
    e_0, is column 0 divided by its entry 0.  Digits are validated one by
    one, so an invalid digit raises after the rows before it.
    """
    carried = None
    for d in digits:
        f = branch_lft(spec, d)
        certify_hyperbolic(f)
        branch = _integral(inverse_matrix(f))
        carried = branch if carried is None else _compose(carried, branch)
        x0 = carried[0][0]
        vec = tuple(Fraction(row[0], x0) for row in carried[1:])
        yield vec[0] if spec.kind == ONE_DIM else vec


def digit_functionals(d: Digit1D) -> tuple[Fraction, int]:
    """(a, b) = (v, k): the two observables averaged by the ergodic harness."""
    return d.v, d.k


def _pivot_classes(spec: SystemSpec, iota_bound) -> list[tuple[int, int, int, int, int]]:
    """(d1, r_m, u, base, max_r) for each pivot depth d1 = 1, 2, ... with a
    branch of iota <= iota_bound.

    The pivot entry splits as (r_m, u) = _depth_split(d1); a branch whose
    non-pivot exponents sum to R has iota p**(base - R), and each non-pivot
    exponent is at most max_r.  The depths stop at the first whose smallest
    iota exceeds the bound; a one-dimensional system is the case m = 1.
    """
    p = spec.ctx.p
    if iota_bound < p:
        raise ValueError("iota_bound must be at least p")
    if spec.kind == BRUN:
        raise NotImplementedError("Brun branches are only observed, not enumerated")
    m = spec.m
    out = []
    d1 = 1
    while True:
        r_m, u = _depth_split(d1, spec.ell)
        base = m * r_m + (m + 1) * u
        max_r = _depth_split(d1 - 1, spec.ell)[0]
        if p ** (base - (m - 1) * max_r) > iota_bound:
            return out
        out.append((d1, r_m, u, base, max_r))
        d1 += 1


def _enumerate(spec: SystemSpec, iota_bound) -> list:
    """Digits of every branch with iota <= iota_bound, unsorted."""
    p = spec.ctx.p
    out = []
    for d1, r_m, u, base, max_r in _pivot_classes(spec, iota_bound):
        if spec.kind == ONE_DIM:
            out += [Digit1D(r_m, q) for q in digit_values(p, u)]
            continue
        options = [(0, Fraction(0))]  # a non-pivot entry: zero, or at depth 0 .. d1-1
        for delta in range(d1):
            r, cls = _depth_split(delta, spec.ell)
            options += [(r, q) for q in digit_values(p, cls)]
        for q_m in digit_values(p, u):
            partial = [((), (), base)]
            for left in range(spec.m - 2, -1, -1):  # slots left after this one
                partial = [
                    (rs + (r,), qs + (q,), expo - r)
                    for rs, qs, expo in partial
                    for r, q in options
                    if p ** (expo - r - left * max_r) <= iota_bound
                ]
            for rs, qs, expo in partial:
                if p**expo <= iota_bound:
                    out.append(DigitMD(rs + (r_m,), qs + (q_m,), 1))
    return out


def enumerate_branches(spec: SystemSpec, iota_bound) -> list[tuple]:
    """All branches with iota <= iota_bound, each once, in a fixed order.

    Returns (digit, params) pairs sorted by iota, then by digit key.  Brun's
    family is not enumerable here (its branch set has no closed form in this
    parameterisation).
    """
    entries = []
    for d in _enumerate(spec, iota_bound):
        f = branch_lft(spec, d)
        entries.append((iota(f), d, f))
    if spec.kind == ONE_DIM:
        entries.sort(key=lambda e: (e[0], e[1].k, e[1].v.numerator))
    else:
        entries.sort(
            key=lambda e: (
                e[0],
                e[1].pexp,
                tuple((q.numerator, q.denominator) for q in e[1].qvec),
            )
        )
    return [(d, f) for _, d, f in entries]


def branch_counts(spec: SystemSpec, iota_bound) -> dict[int, int]:
    """{e: number of branches with iota = p**e} over the branches with
    iota <= iota_bound: the counts of enumerate_branches without the branches.

    A class-n digit value has (p-1)*p**n choices, and the non-pivot
    coordinates choose independently, so their option counts, grouped by
    p-exponent, multiply.  The cut p**e <= iota_bound is applied per exponent,
    so a bound that cuts a pivot class partway is still exact.
    """
    p = spec.ctx.p
    counts: Counter[int] = Counter()
    for d1, _, u, base, _ in _pivot_classes(spec, iota_bound):
        slot = Counter({0: 1})  # the zero entry
        for delta in range(d1):
            r, cls = _depth_split(delta, spec.ell)
            slot[r] += (p - 1) * p**cls
        by_sum = Counter({0: (p - 1) * p**u})  # sum of non-pivot exponents -> branches
        for _ in range(spec.m - 1):
            nxt: Counter[int] = Counter()
            for total, n in by_sum.items():
                for r, c in slot.items():
                    nxt[total + r] += n * c
            by_sum = nxt
        for total, n in by_sum.items():
            if p ** (base - total) <= iota_bound:
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


def digit_from_obj(obj: dict):
    if "k" in obj:
        return Digit1D(int(obj["k"]), parse_rational(obj["v"]))
    return DigitMD(
        tuple(int(r) for r in obj["pexp"]),
        tuple(parse_rational(q) for q in obj["q"]),
        int(obj.get("pivot", 1)),
    )


def expansion_records(spec: SystemSpec, exp: Expansion):
    """One JSON-ready record per emitted digit: {j, digit, ord_consumed}."""
    for j, d in enumerate(exp.digits):
        yield {"j": j, "digit": digit_to_obj(d), "ord_consumed": pivot_valuation(spec, d)}
