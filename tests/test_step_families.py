"""The step of every family against independent references.

Two checks run over the same twelve family/ell/m configurations at
p in {2, 3, 5}:

* an oracle: on seeded Haar orbits, the next point of `step` equals the
  emitted branch evaluated forwards, `apply_forward(branch_lft(spec, d), x)`,
  in `PadicApprox` arithmetic (value and absolute precision), and on orbits
  from points that mix exact rationals, zeros and approximations it does so
  in value and in type;
* committed digests: the digits, next points (with their precision) and
  stopping errors of seeded orbits hash to the lines of
  `golden/step_digests.txt`.

The same configurations check the integer path of the cylinder Monte Carlo
against `step` and `ProductCylinder.contains`: sample by sample on
low-precision points, where `step_core`'s triples are tested over its
denominator x0', and report by report against a reference loop.  The
one-dimensional ones check the digit-means Monte Carlo, also on the integer
path, report by report against a reference loop on `step`.  Both Monte Carlo
drivers count the samples they drop, checked against independent counts.
Every digit that `pivot_valuation` accepts gives a hyperbolic branch, and
`preimage_cylinder`'s integer pieces equal a `Fraction` construction.

Regenerate the digest file only when a change to the outputs is intended:

    PYTHONPATH=src python tests/test_step_families.py --write
"""

import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padic_cf import (
    Digit1D,
    DigitMD,
    InvalidDigit,
    ExpansionTerminated,
    InsufficientData,
    PadicApprox,
    PadicError,
    PrecisionExhausted,
    PrimeCtx,
    ProductCylinder,
    SystemSpec,
    Ball,
    branch_counts,
    branch_lft,
    certify_hyperbolic,
    digit_mean_reports,
    enumerate_branches,
    expand,
    expansion_records,
    format_rational,
    haar_sample,
    haar_sample_vector,
    invariance_mc,
    pivot_valuation,
    preimage_cylinder,
    random_cylinder,
    step,
    valuation,
)
from padic_cf import ergodics
from padic_cf.cfsystems import digit_to_obj, step_core
from reference import (
    _haar_point,
    _reference_mc,
    apply_forward,
    format_approx,
    random_hyperbolic,
)

DIGESTS = Path(__file__).parent / "golden" / "step_digests.txt"

CONFIGS = (
    ("schneider", lambda ctx: SystemSpec.schneider(ctx)),
    ("ruban", lambda ctx: SystemSpec.ruban(ctx)),
    ("t1", lambda ctx: SystemSpec.one_dim(ctx, 1)),
    ("t2", lambda ctx: SystemSpec.one_dim(ctx, 2)),
    ("tlm-l1-m1", lambda ctx: SystemSpec.multi_dim(ctx, 1, 1)),
    ("tlm-l0-m2", lambda ctx: SystemSpec.multi_dim(ctx, 0, 2)),
    ("tlm-l1-m2", lambda ctx: SystemSpec.multi_dim(ctx, 1, 2)),
    ("tlm-l1-m3", lambda ctx: SystemSpec.multi_dim(ctx, 1, 3)),
    ("jp-m2", lambda ctx: SystemSpec.jacobi_perron(ctx, 2)),
    ("jp-m3", lambda ctx: SystemSpec.jacobi_perron(ctx, 3)),
    ("brun-m2", lambda ctx: SystemSpec.brun(ctx, 2)),
    ("brun-m3", lambda ctx: SystemSpec.brun(ctx, 3)),
)
PRIMES = (2, 3, 5)
CASES = [(name, make, p) for name, make in CONFIGS for p in PRIMES]
CASE_IDS = [f"{name}-p{p}" for name, _, p in CASES]


def _rational_point(rng, p, m):
    """A point of (p*Z_p)^m with small exact rational coordinates."""
    coords = []
    for _ in range(m):
        while True:
            num, den = rng.randint(1, 60), rng.randint(1, 60)
            if num % p and den % p:
                break
        coords.append(Fraction(num * p ** rng.randint(1, 3), den))
    return tuple(coords)


def _value_text(x) -> str:
    return format_approx(x) if isinstance(x, PadicApprox) else format_rational(x)


def _orbit_records(spec, x, max_steps):
    """One record per step: the digit and the next point, or the error raised."""
    out = []
    for _ in range(max_steps):
        try:
            d, x = step(spec, x)
        except PadicError as exc:
            out.append(type(exc).__name__)
            break
        out.append([digit_to_obj(d), [_value_text(c) for c in x]])
    return out


def case_digest(name, make, p) -> str:
    """Digest line of one configuration: Haar orbits at precisions 6, 12 and
    40 digits plus exact rational orbits, each run for up to 40 steps."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    records = []
    for prec in (6, 12, 40):
        rng = random.Random(f"{name}/p{p}/n{prec}")
        for _ in range(6):
            records.append(_orbit_records(spec, haar_sample_vector(ctx, spec.m, prec, rng), 40))
    rng = random.Random(f"{name}/p{p}/exact")
    for _ in range(4):
        records.append(_orbit_records(spec, _rational_point(rng, p, spec.m), 40))
    steps = sum(len(r) for r in records)
    text = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return f"{name} p={p} records={steps} sha256={hashlib.sha256(text.encode()).hexdigest()}"


def _golden_lines():
    return DIGESTS.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_expansion_digest_matches_golden(name, make, p):
    line = case_digest(name, make, p)
    golden = [g for g in _golden_lines() if g.startswith(f"{name} p={p} ")]
    assert golden == [line]


def test_digest_file_lists_every_case():
    assert [" ".join(g.split()[:2]) for g in _golden_lines()] == [
        f"{name} p={p}" for name, _, p in CASES
    ]


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_next_point_is_the_branch_applied_forwards(name, make, p):
    """150 steps per configuration, each checked in p-adic arithmetic."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"oracle/{name}/p{p}")
    checked = 0
    while checked < 150:
        x = haar_sample_vector(ctx, spec.m, 120, rng)
        for _ in range(15):
            if checked == 150:
                break
            try:
                d, nxt = step(spec, x)
            except PadicError:
                break
            assert apply_forward(branch_lft(spec, d), x) == nxt
            checked += 1
            x = nxt
    assert checked == 150


def _mixed_point(rng, ctx, m):
    """A point of (p*Z_p)^m whose coordinates are drawn independently: an
    exact rational of valuation 1 to 6 (numerator of either sign, denominator
    prime to p), Fraction(0), or a Haar approximation of 6 to 60 digits."""
    p = ctx.p
    coords = []
    for _ in range(m):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                num, den = rng.randint(-60, 60), rng.randint(1, 60)
                if num % p and den % p:
                    break
            coords.append(Fraction(num * p ** rng.randint(1, 6), den))
        elif kind == 1:
            coords.append(Fraction(0))
        else:
            coords.append(haar_sample(ctx, rng.randint(6, 60), rng))
    return tuple(coords)


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_mixed_point_is_the_branch_applied_forwards(name, make, p):
    """The oracle above on points that mix exact rationals, Fraction(0) and
    approximations, so that steps run over a denominator x0 != 1: the next
    point equals the branch applied forwards in value and in type (a term of
    exact coordinates over an exact pivot stays a Fraction).  In more than
    one dimension some step has an exact pivot beside an approximation.  An
    exact-zero PadicApprox in place of each Fraction(0) steps to the same
    digit and next point, also by the branch applied forwards."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"mixed/{name}/p{p}")
    checked = over_x0 = exact_pivot_beside_approx = approx_zeros = 0
    while checked < 300:
        x = _mixed_point(rng, ctx, spec.m)
        for _ in range(4):  # mixed points turn approximate within a few steps
            if checked == 300:
                break
            z = None
            if Fraction(0) in x:
                z = tuple(PadicApprox.exact_zero(ctx) if c == Fraction(0) else c for c in x)
                assert _outcome(lambda: step(spec, z)) == _outcome(lambda: step(spec, x))
                approx_zeros += 1
            try:
                d, nxt = step(spec, x)
            except PadicError:
                break
            forwards = apply_forward(branch_lft(spec, d), x)
            assert forwards == nxt
            assert [type(c) for c in forwards] == [type(c) for c in nxt]
            if z is not None:
                assert apply_forward(branch_lft(spec, d), z) == nxt
            exact = [c for c in x if isinstance(c, Fraction)]
            over_x0 += any(c.denominator != 1 for c in exact)
            exact_pivot_beside_approx += isinstance(x[d.pivot - 1], Fraction) and len(exact) < spec.m
            checked += 1
            x = nxt
    assert checked == 300 and over_x0 > 0 and approx_zeros > 0
    assert exact_pivot_beside_approx > 0 or spec.m == 1


def _step_loop(spec, x, max_steps):
    """expand's result by repeated step calls, the public value edge."""
    digits = []
    for j in range(max_steps):
        try:
            d, x = step(spec, x)
        except ExpansionTerminated:
            return digits, "terminated", j
        except PrecisionExhausted:
            return digits, "precision-exhausted", j
        digits.append(d)
    return digits, "running", max_steps


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_expand_equals_a_loop_over_step(name, make, p):
    """expand carries step_core's (x0, triples) from step to step, with x0
    unreduced; step rebuilds Fractions and PadicApprox values on every call.
    Exact, zero, mixed and Haar points, run until they stop, give the same
    digits, status and stopping step; among them are orbits that terminate
    and orbits that run out of precision, each after at least one step."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"expand/{name}/p{p}")
    points = [_rational_point(rng, p, spec.m) for _ in range(24)]
    points += [tuple(-c for c in x) for x in points[:4]]  # negative numerators
    if spec.m > 1:  # one nonzero coordinate: Brun's orbits then terminate too
        points += [(Fraction(0),) * (spec.m - 1) + x[-1:] for x in points[:24]]
    points += [(Fraction(0),) * spec.m]
    points += [_mixed_point(rng, ctx, spec.m) for _ in range(12)]
    points += [haar_sample_vector(ctx, spec.m, n, rng) for n in (3, 20, 80)]
    statuses = set()
    for x in points:
        if spec.m == 1:
            x = x[0]
        exp = expand(spec, x, 60)
        assert (list(exp.digits), exp.status, exp.stopped_at) == _step_loop(spec, x, 60)
        statuses.add((exp.status, exp.stopped_at > 0))
    assert {("terminated", True), ("precision-exhausted", True)} <= statuses


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_expansion_records_read_the_pivot_depth(name, make, p):
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"records/{name}/p{p}")
    for _ in range(5):
        exp = expand(spec, haar_sample_vector(ctx, spec.m, 60, rng), 12)
        depths = [rec["ord_consumed"] for rec in expansion_records(spec, exp)]
        assert depths == [pivot_valuation(spec, d) for d in exp.digits]


def _outcome(fn):
    try:
        return fn()
    except (PrecisionExhausted, ExpansionTerminated) as exc:
        return type(exc).__name__


def _image_in(spec, c, triples):
    _, _, _, x0, nxt = step_core(spec, 1, triples)
    return c.contains_digits(nxt, x0)


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_integer_sample_path_matches_step_and_contains(name, make, p):
    """Sample by sample, on points of 1 to 6 digits, so that steps and
    membership tests run out of precision: step_core, then
    ProductCylinder.contains_digits on its unnormalised triples over its
    denominator x0', decides as step then ProductCylinder.contains does
    (True, False or the error raised)."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"integer/{name}/p{p}")
    seen = set()
    for _ in range(25):
        c = random_cylinder(rng, ctx, spec.m, max_level=4)
        for n_digits in (1, 2, 3, 4, 6):
            for _ in range(4):
                units = [rng.randrange(p**n_digits) for _ in range(spec.m)]
                x = tuple(PadicApprox(ctx, 1, u, n_digits + 1) for u in units)
                triples = [(1, u, n_digits + 1) for u in units]
                direct = _outcome(lambda: c.contains(x))
                assert _outcome(lambda: c.contains_digits(triples)) == direct
                image = _outcome(lambda: c.contains(step(spec, x)[1]))
                assert _outcome(lambda: _image_in(spec, c, triples)) == image
                seen.update((direct, image))
    assert {True, False, "PrecisionExhausted"} <= seen


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_cylinder_mc_matches_reference_loop(name, make, p):
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"mc/{name}/p{p}")
    for _ in range(2):
        c = random_cylinder(rng, ctx, spec.m, max_level=3)
        seed = rng.randrange(10**6)
        rep = invariance_mc(spec, c, 300, seed)
        hits, done = _reference_mc(spec, c, 300, seed, preimage=True)
        est = Fraction(hits, done)
        assert (rep.estimate, rep.n_samples) == (float(est), done)
        assert rep.stderr == math.sqrt(float(est * (1 - est)) / done)


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_cylinder_mc_matches_reference_loop_on_deep_cylinders(name, make, p):
    """2,000 samples on a cylinder of level 4 to 6, so that samples share the
    digits that decide them: the shard's outcome memo must agree with a loop
    that steps every sample."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"mc-deep/{name}/p{p}")
    c = random_cylinder(rng, ctx, spec.m, max_level=6)
    while max(c.levels) < 4:
        c = random_cylinder(rng, ctx, spec.m, max_level=6)
    seed = rng.randrange(10**6)
    rep = invariance_mc(spec, c, 2000, seed)
    hits, done = _reference_mc(spec, c, 2000, seed, preimage=True)
    assert (rep.estimate, rep.n_samples) == (hits / done, done)


def test_cylinder_mc_keys_zero_draws(monkeypatch):
    """A coordinate drawn as 0 (probability p**-(L + 48) each) is keyed and
    decided like any other: here every getrandbits value that is 0 mod 4
    reads 0, so about a quarter of the draws are 0, in the Monte Carlo shards
    and the reference loop alike (randrange draws through getrandbits)."""

    class ZeroEveryFourth(random.Random):
        def getrandbits(self, k):
            n = super().getrandbits(k)
            return 0 if n % 4 == 0 else n

    monkeypatch.setattr(random, "Random", ZeroEveryFourth)
    for name, make in CONFIGS:
        for p in PRIMES:
            ctx = PrimeCtx(p)
            spec = make(ctx)
            c = random_cylinder(random.Random(f"zero/{name}/p{p}"), ctx, spec.m, max_level=3)
            hits, done = _reference_mc(spec, c, 200, 7, preimage=True)
            if 2 * done < 200:
                with pytest.raises(InsufficientData):
                    invariance_mc(spec, c, 200, 7)
                continue
            rep = invariance_mc(spec, c, 200, 7)
            assert (rep.estimate, rep.n_samples) == (hits / done, done), (name, p)


def _reference_digit_means(spec, n_samples, n_steps, seed, precision):
    """((estimate, stderr) of a, of b), or None where too few digits complete,
    written with the value types: Haar samples, step and Digit1D.v/.k, in
    shards of 250 samples seeded seed, seed + 1, ..."""
    a_values, b_values = [], []
    for idx, start in enumerate(range(0, n_samples, 250)):
        rng = random.Random(seed + idx)
        for _ in range(min(250, n_samples - start)):
            x = _haar_point(rng, spec.ctx, 1, precision)[0]
            for _ in range(n_steps):
                try:
                    d, x = step(spec, x)
                except (PrecisionExhausted, ExpansionTerminated):
                    break
                a_values.append(d.v)
                b_values.append(d.k)
    n = len(a_values)
    if n < (n_samples * n_steps) // 2:
        return None
    out = []
    for values in (a_values, b_values):
        mean = sum(values, Fraction(0)) / n
        var = sum((v * v for v in values), Fraction(0)) / n - mean * mean
        out.append((float(mean), math.sqrt(max(float(var), 0.0) / n)))
    return tuple(out)


ONE_DIM_CASES = [case for case in CASES if case[0] in ("schneider", "ruban", "t1", "t2")]


@pytest.mark.parametrize(
    "name,make,p", ONE_DIM_CASES, ids=[f"{name}-p{p}" for name, _, p in ONE_DIM_CASES]
)
def test_digit_means_match_reference_loop(name, make, p):
    # 260 samples are two shards.  At 2 * n_steps digits most orbits run out
    # mid-way; at n_steps digits most configurations complete too few steps.
    spec = make(PrimeCtx(p))
    n_samples, n_steps = 260, 12
    seed = random.Random(f"digit-means/{name}/p{p}").randrange(10**6)
    for precision in (None, 2 * n_steps, n_steps):
        ref = _reference_digit_means(
            spec, n_samples, n_steps, seed, 4 * n_steps if precision is None else precision
        )
        if ref is None:
            with pytest.raises(InsufficientData):
                digit_mean_reports(spec, n_samples, n_steps, seed, precision=precision)
            continue
        reports = digit_mean_reports(spec, n_samples, n_steps, seed, precision=precision)
        for rep, (estimate, stderr) in zip(reports, ref):
            assert (rep.estimate, rep.stderr, rep.n_samples) == (estimate, stderr, n_samples)


def test_digit_means_need_a_digit():
    with pytest.raises(ValueError):
        digit_mean_reports(SystemSpec.schneider(PrimeCtx(2)), 10, 5, 0, precision=0)


def test_digit_means_count_the_orbits_that_stop_early():
    # at 2 * n_steps digits some orbits run out before n_steps
    spec = SystemSpec.schneider(PrimeCtx(3))
    n_samples, n_steps, seed = 260, 12, 41
    precision = 2 * n_steps
    stopped = 0
    for idx, start in enumerate(range(0, n_samples, 250)):
        rng = random.Random(seed + idx)
        for _ in range(min(250, n_samples - start)):
            x = _haar_point(rng, spec.ctx, 1, precision)[0]
            for _ in range(n_steps):
                try:
                    x = step(spec, x)[1]
                except (PrecisionExhausted, ExpansionTerminated):
                    stopped += 1
                    break
    assert 0 < stopped < n_samples
    for rep in digit_mean_reports(spec, n_samples, n_steps, seed, precision=precision):
        assert (rep.n_samples, rep.n_dropped) == (n_samples, stopped)


def _raises_on_unit_3_mod_4(fn, unit_of):
    """fn, raising PrecisionExhausted instead when unit_of(args), an integer
    2**v * u, has u = 3 mod 4: a function of the valuation of coordinate 1's
    unit and the two digits above it, which every sample sharing them shares."""

    def wrapper(*args):
        unit = unit_of(args)
        if unit and unit // (unit & -unit) % 4 == 3:
            raise PrecisionExhausted("forced")
        return fn(*args)

    return wrapper


def test_cylinder_mc_counts_the_samples_it_drops(monkeypatch):
    # at max(levels) + 48 digits no sample drops on its own, so the step or
    # the membership test of the image raises for about half the samples,
    # those whose coordinate 1 has unit 3 mod 4, however often either is
    # called: the step reads that unit, and the image's denominator x0' is
    # its odd part
    ctx = PrimeCtx(2)
    spec = SystemSpec.jacobi_perron(ctx, 2)
    c = random_cylinder(random.Random(43), ctx, 2, max_level=3)
    n_digits = max(c.levels) + 48
    # the same draws in an independent loop on the value types
    draw = random.Random(44).randrange
    hits = done = 0
    for _ in range(300):
        units = [draw(2**n_digits) for _ in range(2)]
        if units[0] // (units[0] & -units[0]) % 4 == 3:
            continue
        x = tuple(PadicApprox(ctx, 1, u, n_digits + 1) for u in units)
        hits += c.contains(step(spec, x)[1])
        done += 1
    assert 100 < done < 200
    for module, name, unit_of in (
        (ergodics, "step_core", lambda args: args[2][0][1]),  # (spec, x0, point)
        (ProductCylinder, "contains_digits", lambda args: args[2]),  # (self, point, x0)
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, _raises_on_unit_3_mod_4(getattr(module, name), unit_of))
            rep = invariance_mc(spec, c, 300, seed=44)
        assert (rep.n_samples, rep.n_dropped, rep.estimate) == (done, 300 - done, hits / done), name


# -- accepted digits give hyperbolic branches ----------------------------------


def _accepted(spec, d):
    try:
        pivot_valuation(spec, d)
    except InvalidDigit:
        return False
    return True


def _digits_by_valuation(spec):
    """A digit, of both digit types when m = 1, for every pivot and every
    (p-exponent 0..3, integral part 0 or of class 0..3) per slot: hyperbolicity reads only the valuations and
    which q_k are 0, so this covers every accepted shape of these depths."""
    p = spec.ctx.p
    entries = [(r, q) for r in range(4) for q in [Fraction(0)] + [Fraction(1, p**c) for c in range(4)]]
    one_dim = [Digit1D(r, q) for r, q in entries] if spec.m == 1 else []
    return one_dim + [
        DigitMD(tuple(r for r, _ in slots), tuple(q for _, q in slots), i)
        for slots in itertools.product(entries, repeat=spec.m)
        for i in range(1, spec.m + 1)
    ]


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_accepted_digits_give_hyperbolic_branches(name, make, p):
    # convergents builds a branch per digit without certifying it: every
    # digit pivot_valuation accepts must give a hyperbolic branch, whether
    # built by valuation, enumerated, or emitted by expand from Haar points
    ctx = PrimeCtx(p)
    spec = make(ctx)
    digits = [d for d in _digits_by_valuation(spec) if _accepted(spec, d)]
    assert digits
    if not name.startswith("brun"):
        bound = max(
            p**j
            for j in range(spec.m + 1, 16)
            if sum(branch_counts(spec, p**j).values()) <= BRANCHES_PER_CASE
        )
        enumerated = enumerate_branches(spec, bound)
        assert len(enumerated) >= 10
        digits += [d for d, _ in enumerated]
    rng = random.Random(f"hyperbolic/{name}/p{p}")
    for _ in range(10):
        emitted = expand(spec, haar_sample_vector(ctx, spec.m, 80, rng), 80).digits
        assert emitted and all(_accepted(spec, d) for d in emitted)
        digits += emitted
    for d in digits:
        certify_hyperbolic(branch_lft(spec, d))


# -- preimage pieces against the Fraction construction ------------------------


def _fraction_preimage(f, c, cert):
    """preimage_cylinder's pieces built in Fraction arithmetic, each ball
    canonicalised by Ball: the construction the integer residues replaced."""
    ctx = f.ctx
    p = ctx.p
    n = c.uniform_level()
    centers = [b.center for b in c.balls]
    s = f.s
    base = f.pvec[s - 1] / (centers[s - 1] + f.qvec[s - 1])
    scale = Fraction(p ** (n + cert.v + 2 * cert.u))
    out = []
    for y in range(p**cert.h):
        offset = base + scale * y
        balls = [None] * f.m
        balls[f.i - 1] = Ball(ctx, offset, n + cert.v + 2 * cert.u + cert.h)
        for k in range(1, f.m + 1):
            if k == f.i:
                continue
            t = f.sigma_inv(k)
            pt = f.pvec[t - 1]
            level = n + cert.v + cert.u - valuation(pt, ctx)
            balls[k - 1] = Ball(ctx, offset / pt * (centers[t - 1] + f.qvec[t - 1]), level)
        out.append(ProductCylinder(tuple(balls)))
    return out


def _assert_pieces_match(f, c):
    """Same pieces in the same order, ball by ball, digit form included."""
    got = preimage_cylinder(f, c)
    want = _fraction_preimage(f, c, certify_hyperbolic(f))
    assert got == want, (f, c)
    assert [[(b._clo, b._cunit) for b in pc.balls] for pc in got] == [
        [(b._clo, b._cunit) for b in pc.balls] for pc in want
    ], (f, c)


def _cylinders_at_levels_1_to_4(rng, ctx, m):
    p = ctx.p
    return [
        ProductCylinder(
            tuple(Ball(ctx, Fraction(p * rng.randrange(p ** (n - 1))), n) for _ in range(m))
        )
        for n in range(1, 5)
    ]


ENUMERABLE_CASES = [case for case in CASES if not case[0].startswith("brun")]
BRANCHES_PER_CASE = 600
PIECES_PER_CYLINDER = 400


@pytest.mark.parametrize(
    "name,make,p", ENUMERABLE_CASES, ids=[f"{n}-p{p}" for n, _, p in ENUMERABLE_CASES]
)
def test_preimage_pieces_match_the_fraction_construction(name, make, p):
    # the branches of the largest bound p**j (j <= 15) that lists at most
    # BRANCHES_PER_CASE, in enumerate_branches' order up to PIECES_PER_CYLINDER
    # pieces, on one random uniform cylinder per level 1..4
    ctx = PrimeCtx(p)
    spec = make(ctx)
    bound = max(
        p**j
        for j in range(spec.m + 1, 16)
        if sum(branch_counts(spec, p**j).values()) <= BRANCHES_PER_CASE
    )
    branches, pieces = [], 0
    for _, f in enumerate_branches(spec, bound):
        pieces += p ** certify_hyperbolic(f).h
        if pieces > PIECES_PER_CYLINDER:
            break
        branches.append(f)
    assert len(branches) >= 10
    rng = random.Random(f"{name}-{p}")
    for c in _cylinders_at_levels_1_to_4(rng, ctx, spec.m):
        for f in branches:
            _assert_pieces_match(f, c)


def test_preimage_branch_integers_do_not_depend_on_the_cylinder():
    # the same branch objects meet cylinders at levels 4, 1, 3, 2 in turn, so
    # what a branch keeps from its first call serves every later level
    rng = random.Random(59)
    for p in (2, 3, 5):
        ctx = PrimeCtx(p)
        spec = SystemSpec.jacobi_perron(ctx, 2)
        for m in (1, 2, 3):
            branches = [random_hyperbolic(rng, ctx, m) for _ in range(20)]
            if m == 2:
                branches += [f for _, f in enumerate_branches(spec, p**5)][:40]
            cylinders = _cylinders_at_levels_1_to_4(rng, ctx, m)
            for n in (4, 1, 3, 2):
                for f in branches:
                    _assert_pieces_match(f, cylinders[n - 1])


def test_preimage_pieces_match_on_random_branches():
    # random_hyperbolic dresses p_k and q_k with signed units num/den, so the
    # entries are negative and non-integral; q_k = 0 and h > 0 occur too
    rng = random.Random(53)
    seen = set()
    for p in (2, 3, 5, 7):
        ctx = PrimeCtx(p)
        for m in (1, 2, 3, 4):
            for _ in range(25):
                f = random_hyperbolic(rng, ctx, m)
                seen.add(("h > 0", certify_hyperbolic(f).h > 0))
                seen.add(("q_k = 0", 0 in f.qvec))
                seen.add(("negative", any(x < 0 for x in f.pvec + f.qvec)))
                seen.add(("non-integral", any(x.denominator > 1 for x in f.pvec + f.qvec)))
                seen.add(("sigma", f.sigma != tuple(f.sigma_inv(k) for k in range(1, m + 1))))
                for c in _cylinders_at_levels_1_to_4(rng, ctx, m):
                    _assert_pieces_match(f, c)
    assert all((what, True) in seen for what, _ in seen)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_step_families.py --write")
    lines = [case_digest(name, make, p) for name, make, p in CASES]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {DIGESTS}")
