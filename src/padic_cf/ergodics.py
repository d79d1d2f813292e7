"""Measure-theoretic verification harness.

Exact side: symbolic cylinder measures (products of inverse branch factors),
branch-family measure sums with closed-form tails, and the exact mixing
identity on cylinders.  Monte Carlo side: Birkhoff averages of the digit
observables and invariance checks on random cylinders, with exact integer
sums per digit class and 4-standard-error tolerances.  Both Monte Carlo
drivers step integers with cfsystems.step_core: a point is a denominator x0
prime to p and one (ord, unit, abs_prec) triple per coordinate, and the
cylinder test reads the triples over x0 without inverting it.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cfsystems import (
    ONE_DIM,
    SystemSpec,
    branch_counts,
    branch_lft,
    enumerate_branches,
    step_core,
)
from .errors import (
    ExpansionTerminated,
    InsufficientData,
    PrecisionExhausted,
    ShardProcessDied,
    WordTooShort,
)
from .lft import iota
from .padic_core import (
    INF,
    Ball,
    PrimeCtx,
    ProductCylinder,
    measure,
)


@dataclass(frozen=True)
class SymbolicCylinder:
    """The set of points whose first n digits form the given word."""

    system: SystemSpec
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        for d in self.word:
            branch_lft(self.system, d)  # validates

    def __len__(self):
        return len(self.word)


@dataclass(frozen=True)
class StatReport:
    """A Monte Carlo estimate with its uncertainty and the exact target."""

    estimate: float
    stderr: float
    n_samples: int
    n_steps: int
    theoretical: Fraction | None = None
    seed: int | None = None
    n_dropped: int = 0  # samples stopped early, not in the CLI rows

    def __post_init__(self):
        if self.stderr < 0 or self.n_samples < 1:
            raise ValueError("invalid report")

    def within(self, n_sigma: float = 4.0) -> bool:
        if self.theoretical is None:
            return True
        return abs(self.estimate - float(self.theoretical)) <= n_sigma * self.stderr


def cylinder_measure(c: SymbolicCylinder) -> Fraction:
    """Product of 1/iota over the letters; 1 for the empty word."""
    out = Fraction(1)
    for d in c.word:
        f = branch_lft(c.system, d)
        out /= iota(f)
    return out


def iota_sum(spec: SystemSpec, iota_bound) -> Fraction:
    """Sum of 1/iota over all branches with iota <= iota_bound.

    Computed from the branch counts per iota exponent, so it costs one term
    per exponent, not per branch.  Monotone in the bound, always <= 1, and
    converging to 1 as the bound grows: pivot depth d carries measure
    (p-1)/p**d, and the complement is the exact measure of the omitted
    branches.
    """
    p = spec.ctx.p
    counts = branch_counts(spec, iota_bound)
    top = max(counts, default=0)
    return Fraction(sum(n * p ** (top - e) for e, n in counts.items()), p**top)


def theoretical_digit_means(p: int, ell) -> tuple[Fraction, Fraction]:
    """Almost-everywhere limits of the running means of the digit observables
    a (the subtracted value) and b (the p-exponent)."""
    mean_a = Fraction(p, 2)
    if ell == INF:
        return mean_a, Fraction(0)
    return mean_a, Fraction(p, p**ell * (p - 1))


# Set by the pool initializer in each forked child, never in the caller.
_shard_worker = None


def _set_shard_worker(worker) -> None:
    global _shard_worker
    _shard_worker = worker


def _run_job(job):
    return _shard_worker(job)


def _run_sharded(worker, n_samples: int, seed: int, chunk: int, threads: int) -> list:
    """Split a sample budget into fixed-size shards with seeds seed, seed+1, ...

    The shard layout depends only on n_samples, never on the worker count, so
    results are reproducible whether or not the run is parallel.  With more
    than one shard and threads > 1 the shards run in forked processes, no more
    than `threads` and the CPU count (at least 2, so that they stay child
    processes on a one-CPU host).  The worker reaches them by fork
    inheritance, not by pickling, so it may be a closure; only the (seed,
    size) jobs and the shard results cross the process boundary, and `map`
    returns them in shard order.  A worker process that dies raises
    ShardProcessDied.
    """
    jobs = []
    offset = 0
    idx = 0
    while offset < n_samples:
        size = min(chunk, n_samples - offset)
        jobs.append((seed + idx, size))
        offset += size
        idx += 1
    if threads > 1 and len(jobs) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(
                min(threads, len(jobs), max(2, os.cpu_count() or 1)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_set_shard_worker,
                initargs=(worker,),
            ) as pool:
                return list(pool.map(_run_job, jobs))
        except BrokenProcessPool as exc:
            raise ShardProcessDied(
                "a shard worker process exited before returning its result"
            ) from exc
    return [worker(job) for job in jobs]


def digit_mean_reports(
    spec: SystemSpec,
    n_samples: int,
    n_steps: int,
    seed: int,
    precision: int | None = None,
    threads: int = 1,
) -> tuple[StatReport, StatReport]:
    """Monte Carlo means of both digit observables over Haar-random orbits.

    Every sample is expanded for n_steps.  An orbit that stops early keeps
    the digits it produced and counts in n_dropped, so the means are
    conditioned on the completed digits; fewer than half raises
    InsufficientData.  Shards sum w and w*w of each digit a = w/p**c as
    integers per class c; the caller builds each exact total once over
    p**max(c), and floats appear only in the reports.
    """
    if spec.kind != ONE_DIM:
        raise ValueError("digit observables are defined for one-dimensional systems")
    if precision is None:
        precision = 4 * n_steps
    if precision < 1:
        raise ValueError("need at least one digit")
    p = spec.ctx.p
    top = p**precision

    def run_shard(args):
        shard_seed, shard_samples = args
        draw = random.Random(shard_seed).randrange
        sum_w = {}  # digit class c -> sum of w over its steps, a = w / p**c
        sum_w_sq = {}
        tot_b = 0
        tot_b_sq = 0
        count = 0
        dropped = 0
        for _ in range(shard_samples):
            # haar_sample's draw: digits 1 .. precision, abs_prec precision + 1
            x0, point = 1, [(1, draw(top), precision + 1)]
            for _ in range(n_steps):
                try:
                    _, pexp, entries, x0, point = step_core(spec, x0, point)
                except (PrecisionExhausted, ExpansionTerminated):
                    dropped += 1
                    break
                w, c = entries[0]
                sum_w[c] = sum_w.get(c, 0) + w
                sum_w_sq[c] = sum_w_sq.get(c, 0) + w * w
                b = pexp[0]
                tot_b += b
                tot_b_sq += b * b
                count += 1
        return sum_w, sum_w_sq, tot_b, tot_b_sq, count, dropped

    results = _run_sharded(run_shard, n_samples, seed, chunk=250, threads=threads)
    count = sum(r[4] for r in results)
    if count < (n_samples * n_steps) // 2:
        raise InsufficientData(
            f"only {count} of {n_samples * n_steps} digit observations completed"
        )
    sum_w, sum_w_sq = Counter(), Counter()
    for r in results:
        sum_w.update(r[0])
        sum_w_sq.update(r[1])
    k = max(sum_w, default=0)
    theo_a, theo_b = theoretical_digit_means(p, spec.ell)
    reports = []
    for total, total_sq, theo in (
        (
            Fraction(sum(s * p ** (k - c) for c, s in sum_w.items()), p**k),
            Fraction(sum(s * p ** (2 * (k - c)) for c, s in sum_w_sq.items()), p ** (2 * k)),
            theo_a,
        ),
        (Fraction(sum(r[2] for r in results)), Fraction(sum(r[3] for r in results)), theo_b),
    ):
        mean = total / count
        var = total_sq / count - mean * mean
        reports.append(
            StatReport(
                estimate=float(mean),
                stderr=math.sqrt(max(float(var), 0.0) / count),
                n_samples=n_samples,
                n_steps=n_steps,
                theoretical=theo,
                seed=seed,
                n_dropped=sum(r[5] for r in results),
            )
        )
    return reports[0], reports[1]


def _cylinder_mc(
    spec: SystemSpec,
    c: ProductCylinder,
    n_samples: int,
    seed: int,
    preimage: bool,
    threads: int = 1,
) -> StatReport:
    """Fraction of Haar samples x (preimage: of their images T(x)) in c.

    Samples are haar_sample_vector's draws at max(c.levels) + 48 digits, kept
    as step_core triples over x0 = 1; a preimage sample is stepped once, and
    its image is tested with ProductCylinder.contains_digits over the step's
    denominator x0'.  A
    sample whose step or membership test raises is dropped, so the estimate
    is conditioned on the completed samples: n_samples is the count done,
    n_dropped the rest, and fewer than half done raises InsufficientData.
    """
    if c.m != spec.m:
        raise ValueError("cylinder dimension mismatch")
    precision = max(c.levels) + 48
    top = spec.ctx.p**precision
    m = spec.m

    def run_shard(args):
        shard_seed, shard_samples = args
        draw = random.Random(shard_seed).randrange
        hits = 0
        done = 0
        for _ in range(shard_samples):
            # haar_sample's draw: digits 1 .. precision, abs_prec precision + 1
            x0, point = 1, [(1, draw(top), precision + 1) for _ in range(m)]
            try:
                if preimage:
                    _, _, _, x0, point = step_core(spec, x0, point)
                inside = c.contains_digits(point, x0)
            except (PrecisionExhausted, ExpansionTerminated):
                continue
            done += 1
            hits += inside
        return hits, done

    results = _run_sharded(run_shard, n_samples, seed, chunk=10_000, threads=threads)
    hits = sum(r[0] for r in results)
    done = sum(r[1] for r in results)
    if done < n_samples // 2:
        raise InsufficientData(f"only {done} of {n_samples} samples completed")
    est = Fraction(hits, done)
    stderr = math.sqrt(float(est * (1 - est)) / done)
    return StatReport(
        estimate=float(est),
        stderr=stderr,
        n_samples=done,
        n_steps=1 if preimage else 0,
        theoretical=measure(c),
        seed=seed,
        n_dropped=n_samples - done,
    )


def invariance_mc(
    spec: SystemSpec, c: ProductCylinder, n_samples: int, seed: int, threads: int = 1
) -> StatReport:
    """Estimate the measure of the inverse image of a cylinder.

    Invariance of Haar measure makes the target equal measure(c), which is
    stored in the report's theoretical field.
    """
    return _cylinder_mc(spec, c, n_samples, seed, preimage=True, threads=threads)


def membership_mc(
    spec: SystemSpec, c: ProductCylinder, n_samples: int, seed: int, threads: int = 1
) -> StatReport:
    """Estimate the measure of a cylinder directly (no dynamics)."""
    return _cylinder_mc(spec, c, n_samples, seed, preimage=False, threads=threads)


@dataclass(frozen=True)
class MixingReport:
    """Both sides of the cylinder mixing identity plus the truncation tail."""

    lhs: Fraction
    rhs: Fraction
    tail_bound: Fraction
    n: int


def mixing_exact(
    A: SymbolicCylinder, B: SymbolicCylinder, n: int, iota_bound=None
) -> MixingReport:
    """Exact correlation of two symbolic cylinders after n iterations.

    The inverse image of A after n steps meets B in the words B-w-A with w of
    length n - len(B), so the correlation factorises as
    measure(B) * S**(n - len(B)) * measure(A) with S the branch measure sum.
    With the complete branch family S = 1 and the identity is exact; with a
    truncated family the defect is bounded by the reported tail.
    """
    if A.system != B.system:
        raise ValueError("cylinders must share one system")
    if n < len(B):
        raise WordTooShort(f"need n >= {len(B)}")
    mu_a = cylinder_measure(A)
    mu_b = cylinder_measure(B)
    rhs = mu_a * mu_b
    middle = n - len(B)
    if iota_bound is None:
        s = Fraction(1)
    else:
        s = iota_sum(A.system, iota_bound)
    lhs = mu_b * s**middle * mu_a
    return MixingReport(lhs=lhs, rhs=rhs, tail_bound=rhs - lhs, n=n)


# -- random generators for tests and the CLI ---------------------------------


def random_cylinder(
    rng: random.Random,
    ctx: PrimeCtx,
    m: int,
    max_level: int = 4,
    uniform: bool = False,
) -> ProductCylinder:
    """A random cylinder inside (p*Z_p)^m with canonical ball centers."""
    p = ctx.p
    levels = [rng.randint(1, max_level) for _ in range(m)]
    if uniform:
        levels = [levels[0]] * m
    balls = []
    for lv in levels:
        center = p * rng.randrange(p ** (lv - 1))
        balls.append(Ball(ctx, Fraction(center), lv))
    return ProductCylinder(tuple(balls))


def random_word(
    rng: random.Random, spec: SystemSpec, length: int, iota_bound=None
) -> tuple:
    """A random digit word drawn from the branches within the given bound."""
    if iota_bound is None:
        iota_bound = spec.ctx.p ** 4
    branches = enumerate_branches(spec, iota_bound)
    return tuple(rng.choice(branches)[0] for _ in range(length))
