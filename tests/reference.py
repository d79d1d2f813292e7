"""Value-typed oracles, random generators and text forms for the tests.

The package computes on integers: `cfsystems.step_core`, the integer branch
slots of `convergents`, `lft.preimage_cylinder`, the cylinder Monte Carlo
`ergodics.invariance_mc`.  The functions here compute the same things the
slow way, on exact values (and on `PadicApprox` through its public
operators and accessors), so the tests can compare the two.  Nothing in
`src/padic_cf` calls them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from padic_cf import (
    DivisionByZeroAtPrecision,
    ExpansionTerminated,
    LftParams,
    PadicApprox,
    PrecisionExhausted,
    PrimeCtx,
    ProductCylinder,
    SystemSpec,
    certify_hyperbolic,
    enumerate_branches,
    norm,
    step,
    valuation,
)
from padic_cf.cfsystems import _branch_slots


def vector_norm(xs, ctx: PrimeCtx) -> Fraction:
    """Max of coordinate norms."""
    return max(norm(x, ctx) for x in xs)


def random_element(x, rng: random.Random, depth: int = 48):
    """A random exact rational in the Ball x, uniform over depth extra digit
    levels; for a ProductCylinder, one such point per ball, in order."""
    if isinstance(x, ProductCylinder):
        return tuple(random_element(b, rng, depth) for b in x.balls)
    p = x.ctx.p
    t = rng.randrange(p**depth)
    return x.center + Fraction(t * p**x.level)


def apply_forward(f: LftParams, xs) -> tuple:
    """Evaluate the branch at an m-vector; exact on rational inputs."""
    if len(xs) != f.m:
        raise ValueError("dimension mismatch")
    xi = xs[f.i - 1]
    if xi == 0:  # an exact-zero PadicApprox raises in its own inverse
        raise DivisionByZeroAtPrecision("pivot coordinate is zero")
    inv = Fraction(1) / xi
    s = f.s
    out = []
    for k in range(1, f.m + 1):
        pk = f.pvec[k - 1]
        qk = f.qvec[k - 1]
        if k == s:
            out.append(pk * inv - qk)
        else:
            xk = xs[f.sigma[k - 1] - 1]
            out.append(pk * xk * inv - qk)
    return tuple(out)


def inverse_matrix(f: LftParams) -> tuple[tuple[Fraction, ...], ...]:
    """Homogeneous (m+1)x(m+1) matrix of the inverse branch.

    With y = (Y_1/Y_0, ..., Y_m/Y_0) and X = M Y, the image x_k = X_k/X_0 is
    apply_inverse(f, y):

        X_0 = Y_s + q_s*Y_0,   X_i = p_s*Y_0,
        X_k = (p_s/p_t)*(Y_t + q_t*Y_0)   for k != i, t = sigma^{-1}(k).

    Composing inverse branches is multiplying their matrices.
    """
    m = f.m
    s = f.s
    ps = f.pvec[s - 1]
    rows = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    rows[0][0] = f.qvec[s - 1]
    rows[0][s] = Fraction(1)
    for k in range(1, m + 1):
        if k == f.i:
            rows[k][0] = ps
        else:
            t = f.sigma_inv(k)
            ratio = ps / f.pvec[t - 1]
            rows[k][t] = ratio
            rows[k][0] = ratio * f.qvec[t - 1]
    return tuple(tuple(row) for row in rows)


def sufficient_hyperbolic(f: LftParams, witness) -> bool:
    """Image test: does the branch map the witness into (p*Z_p)^m?

    Under the structural preconditions (ord(q_s) <= 0; every p_k nonzero with
    ord(p_k) >= 0; ord(q_k) > 0 forces ord(p_k) = 0) a single witness in
    (p*Z_p)^m whose image lands back in (p*Z_p)^m certifies hyperbolicity.
    """
    ctx = f.ctx
    s = f.s
    qs = f.qvec[s - 1]
    if qs == 0 or valuation(qs, ctx) > 0:
        raise ValueError("precondition ord(q_s) <= 0 violated")
    for k in range(1, f.m + 1):
        pk = f.pvec[k - 1]
        qk = f.qvec[k - 1]
        if valuation(pk, ctx) < 0:
            raise ValueError("precondition ord(p_k) >= 0 violated")
        if (qk == 0 or valuation(qk, ctx) > 0) and valuation(pk, ctx) != 0:
            raise ValueError("precondition ord(q_k) > 0 => ord(p_k) = 0 violated")
    if any(valuation(x, ctx) < 1 for x in witness):
        raise ValueError("witness must lie in (p*Z_p)^m")
    return all(valuation(y, ctx) >= 1 for y in apply_forward(f, witness))


def random_hyperbolic(rng: random.Random, ctx: PrimeCtx, m: int) -> LftParams:
    """A random hyperbolic branch for property tests.

    Valuation targets are sampled to satisfy the four conditions with margin
    at least 1, then numerators are dressed with random p-adic units.
    """
    p = ctx.p

    def unit() -> Fraction:
        # small rational with valuation 0
        while True:
            num = rng.randint(1, 9)
            den = rng.randint(1, 9)
            if num % p and den % p:
                sign = -1 if rng.random() < 0.5 else 1
                return Fraction(sign * num, den)

    i = rng.randint(1, m)
    sigma = list(range(1, m + 1))
    rng.shuffle(sigma)
    s = sigma.index(i) + 1
    a_s = rng.randint(0, 2)  # ord(p_s)
    b_s = a_s - rng.randint(1, 3)  # ord(q_s) <= a_s - 1, and <= 0
    b_s = min(b_s, 0)
    depth = a_s - b_s  # = v + u >= 1
    pvec = [None] * m
    qvec = [None] * m
    pvec[s - 1] = Fraction(p**a_s) * unit()
    qvec[s - 1] = Fraction(p) ** b_s * unit()
    for k in range(1, m + 1):
        if k == s:
            continue
        choice = rng.random()
        if choice < 0.3:
            # q_k = 0: condition (iv) needs depth > ord(p_k)
            a_k = rng.randint(0, max(depth - 1, 0))
            qvec[k - 1] = Fraction(0)
        elif choice < 0.45:
            # ord(q_k) > 0: also condition (iv)
            a_k = rng.randint(0, max(depth - 1, 0))
            qvec[k - 1] = Fraction(p ** rng.randint(1, 2)) * unit()
        else:
            # ord(q_k) <= 0: condition (iii) needs depth > ord(p_k) - ord(q_k)
            b_k = -rng.randint(0, 2)
            a_k = rng.randint(0, max(depth - 1 + b_k, 0))
            if a_k - b_k >= depth:
                b_k = a_k - depth + 1
            qvec[k - 1] = Fraction(p) ** b_k * unit()
        pvec[k - 1] = Fraction(p**a_k) * unit()
    f = LftParams(ctx, m, i, tuple(sigma), tuple(pvec), tuple(qvec))
    certify_hyperbolic(f)
    return f


def random_word(
    rng: random.Random, spec: SystemSpec, length: int, iota_bound=None
) -> tuple:
    """A random digit word drawn from the branches within the given bound."""
    if iota_bound is None:
        iota_bound = spec.ctx.p ** 4
    branches = enumerate_branches(spec, iota_bound)
    return tuple(rng.choice(branches)[0] for _ in range(length))


def format_approx(x: PadicApprox) -> str:
    """The text of a PadicApprox, as in p=2;ord=1;digits=1,1,0,1,0;prec=6:
    ord=inf for the exact zero, ord=? when every known digit is zero."""
    if x.is_exact_zero:
        return f"p={x.ctx.p};ord=inf;digits=;prec=inf"
    ord_s = "?" if x.is_zero_at_precision else str(x.valuation())
    digits_s = ",".join(str(d) for d in x.digits)
    return f"p={x.ctx.p};ord={ord_s};digits={digits_s};prec={x.abs_prec}"


def _branch_matrix(spec: SystemSpec, d):
    """The dense (m+1)x(m+1) integer matrix of cfsystems._branch_slots(spec,
    d): entry [i][0] is top, and slot t gives entries [k][0] = e0 and
    [k][t] = et.  It is inverse_matrix(branch_lft(spec, d)) times the lcm of
    its denominators."""
    m = spec.m
    top, slots = _branch_slots(spec, d)
    rows = [[0] * (m + 1) for _ in range(m + 1)]
    rows[d.pivot][0] = top
    for t, (k, e0, et) in enumerate(slots, 1):
        rows[k][0] = e0
        rows[k][t] = et
    return rows


def _haar_point(rng, ctx, m, n_digits):
    """haar_sample_vector's point, drawn here with rng.randrange so that the
    reference loops stay independent of the generator the package draws with."""
    return tuple(
        PadicApprox(ctx, 1, rng.randrange(ctx.p**n_digits), n_digits + 1) for _ in range(m)
    )


def _reference_mc(spec, c, n_samples, seed, preimage):
    """(hits, done) of one shard of invariance_mc (preimage) or of the direct
    estimate of measure(c) (not preimage), written with the value types:
    Haar samples, step and ProductCylinder.contains, dropping samples that
    raise."""
    rng = random.Random(seed)
    hits = done = 0
    for _ in range(n_samples):
        x = _haar_point(rng, spec.ctx, spec.m, max(c.levels) + 48)
        try:
            inside = c.contains(step(spec, x)[1] if preimage else x)
        except (PrecisionExhausted, ExpansionTerminated):
            continue
        hits += inside
        done += 1
    return hits, done
