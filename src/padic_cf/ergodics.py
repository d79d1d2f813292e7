"""Measure-theoretic verification harness.

Exact side: symbolic cylinder measures (products of inverse branch factors),
branch-family measure sums with closed-form tails, and the exact mixing
identity on cylinders.  Monte Carlo side: Birkhoff averages of the digit
observables and invariance checks on random cylinders, with exact integer
sums per digit class and 4-standard-error tolerances.  Both Monte Carlo
drivers step integers with cfsystems.step_core: a point is a denominator x0
prime to p and one (ord, unit, abs_prec) triple per coordinate, and the
cylinder test reads the triples over x0 without inverting it.  A cylinder
shard memoises each sample's outcome on the digits that decide it: every
coordinate's valuation o_k and its unit mod p**(L + o_1), L the cylinder's
top level.  step_core decides every precision drop from the valuations, and
the digits the cylinder test compares below L depend only on the units mod
p**(L + d), d <= o_1 the pivot depth, so equal keys give equal outcomes.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .cfsystems import (
    ONE_DIM,
    SystemSpec,
    branch_counts,
    branch_lft,
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
    _intval,
    _uniform_below,
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


def _power_sum(terms: dict[int, int], q: int) -> Fraction:
    """Sum of n / q**e over terms {e: n}, as one Fraction over q**max(e)."""
    top = max(terms, default=0)
    return Fraction(sum(n * q ** (top - e) for e, n in terms.items()), q**top)


def iota_sum(spec: SystemSpec, iota_bound) -> Fraction:
    """Sum of 1/iota over all branches with iota <= iota_bound.

    Computed from the branch counts per iota exponent, so it costs one term
    per exponent, not per branch.  Monotone in the bound, always <= 1, and
    converging to 1 as the bound grows: pivot depth d carries measure
    (p-1)/p**d, and the complement is the exact measure of the omitted
    branches.
    """
    return _power_sum(branch_counts(spec, iota_bound), spec.ctx.p)


def _require_half(done: int, total: int, what: str) -> None:
    """InsufficientData when fewer than half of total completed: 2*done < total."""
    if 2 * done < total:
        raise InsufficientData(f"only {done} of {total} {what} completed")


def theoretical_digit_means(p: int, ell) -> tuple[Fraction, Fraction]:
    """Almost-everywhere limits of the running means of the digit observables
    a (the subtracted value) and b (the p-exponent)."""
    mean_a = Fraction(p, 2)
    if ell == INF:
        return mean_a, Fraction(0)
    return mean_a, Fraction(p, p**ell * (p - 1))


def _run_sharded(worker, n_samples: int, seed: int, chunk: int, threads: int) -> list:
    """Split a sample budget into fixed-size shards with seeds seed, seed+1, ...

    The shard layout depends only on n_samples, never on the worker count, so
    results are reproducible whether or not the run is parallel.  With more
    than one shard and threads > 1 the shards go to n workers, no more than
    `threads`, the shard count and the CPU count (at least 2, so that a
    one-CPU host still forks).  Worker k runs shards k, k+n, ... and stops at
    the first that raises (_run_shards): worker 0 is the calling process, and
    each other worker is one forked child that reaches the worker by fork
    inheritance, so it may be a closure.  A child pickles its outcome once
    into a pipe and leaves through os._exit; the caller merges the results in
    shard order.  Errors are raised as a serial run raises them: the error of
    the lowest-indexed failing shard, whatever the worker count.  The caller
    reads the children in worker order and stops once its lowest failing
    index is below the next child's first shard, which no later child can
    undercut.  A child that exits uncleanly or sends a short or empty payload
    counts as ShardProcessDied at its first shard.  Every child is killed if
    still running and reaped before the call returns or raises.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    jobs = []
    offset = 0
    idx = 0
    while offset < n_samples:
        size = min(chunk, n_samples - offset)
        jobs.append((seed + idx, size))
        offset += size
        idx += 1
    n = min(threads, len(jobs), max(2, os.cpu_count() or 1))
    if n < 2:
        return [worker(job) for job in jobs]
    import pickle
    import signal

    children = {}  # pid -> read end of its pipe, for each child not yet reaped
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _shard_child(worker, jobs, k, n, w)
            os.close(w)
            children[pid] = r
        ok, value = _run_shards(worker, jobs, 0, n)
        parts = [value if ok else None]
        failed = None if ok else value  # (shard index, exception), the lowest so far
        for k, pid in enumerate(list(children), 1):
            if failed is not None and failed[0] < k:
                break  # every shard of children k, k+1, ... lies above it
            with open(children[pid], "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            # a child writes its payload whole before it exits with 0
            if os.waitstatus_to_exitcode(status) != 0 or not payload:
                died = ShardProcessDied("a shard worker process exited before returning its result")
                ok, value = False, (k, died)
            else:
                ok, value = pickle.loads(payload)
            if ok:
                parts.append(value)
            elif failed is None or value[0] < failed[0]:
                failed = value
        if failed is not None:
            raise failed[1]
    finally:
        for pid, r in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
    return [parts[i % n][i // n] for i in range(len(jobs))]


def _run_shards(worker, jobs, k: int, n: int) -> tuple:
    """Worker k's share of the shards, k, k+n, ...: (True, their results), or
    (False, (index, exception)) for the first of them that raises."""
    results = []
    for idx in range(k, len(jobs), n):
        try:
            results.append(worker(jobs[idx]))
        except Exception as exc:
            return False, (idx, exc)
    return True, results


def _shard_child(worker, jobs, k: int, n: int, w: int) -> None:
    """Body of forked shard worker k of n: run its shards (_run_shards), write
    the pickled outcome to the pipe end w, and leave through os._exit without
    returning.  An outcome that does not pickle is sent as a ShardProcessDied
    naming why, at the failing shard's index, or at shard k for results."""
    import pickle

    code = 1
    try:
        outcome = _run_shards(worker, jobs, k, n)
        try:
            payload = pickle.dumps(outcome)
        except Exception as exc:
            idx = k if outcome[0] else outcome[1][0]
            payload = pickle.dumps(
                (False, (idx, ShardProcessDied(f"a shard's outcome does not pickle: {exc}")))
            )
        with open(w, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


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
    conditioned on the completed digits; 2*done < n_samples*n_steps raises
    InsufficientData (_require_half).  Shards sum w and w*w of each digit
    a = w/p**c as integers per class c; the caller builds each exact total
    once with _power_sum, and floats appear only in the reports.  A shard's
    starting points are haar_sample's at `precision` digits, read from one
    padic_core._uniform_below generator on its seeded Random.
    """
    if spec.kind != ONE_DIM:
        raise ValueError("digit observables are defined for one-dimensional systems")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if precision is None:
        precision = 4 * n_steps
    if precision < 1:
        raise ValueError("need at least one digit")
    p = spec.ctx.p
    top = p**precision

    def run_shard(args):
        shard_seed, shard_samples = args
        draws = _uniform_below(random.Random(shard_seed), top)
        sum_w = {}  # digit class c -> sum of w over its steps, a = w / p**c
        sum_w_sq = {}
        tot_b = 0
        tot_b_sq = 0
        count = 0
        dropped = 0
        # haar_sample's draws: digits 1 .. precision, abs_prec precision + 1
        for u in islice(draws, shard_samples):
            x0, point = 1, [(1, u, precision + 1)]
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
    _require_half(count, n_samples * n_steps, "digit observations")
    sum_w, sum_w_sq = Counter(), Counter()
    for r in results:
        sum_w.update(r[0])
        sum_w_sq.update(r[1])
    theo_a, theo_b = theoretical_digit_means(p, spec.ell)
    reports = []
    for total, total_sq, theo in (
        (_power_sum(sum_w, p), _power_sum(sum_w_sq, p * p), theo_a),
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


def invariance_mc(
    spec: SystemSpec, c: ProductCylinder, n_samples: int, seed: int, threads: int = 1
) -> StatReport:
    """Estimate the measure of the inverse image of c, the fraction of Haar
    samples x whose images T(x) lie in c.  Invariance of Haar measure makes
    the target equal measure(c), which is the report's theoretical field.

    Samples are haar_sample_vector's draws at L + 48 digits, L = max(c.levels),
    read m at a time from one padic_core._uniform_below generator on the
    shard's seeded Random: coordinate k is p * u_k, kept as the step_core
    triple (1, u_k, L + 49) over x0 = 1.  A sample is stepped once, and its
    image is tested with ProductCylinder.contains_digits over the step's
    denominator x0'.  A sample whose step or membership test raises is
    dropped, so the estimate is conditioned on the completed samples:
    n_samples is the count done, n_dropped the rest, and 2*done < n_samples
    raises InsufficientData (_require_half).

    Each shard memoises the outcome (hit, miss or dropped) on the sample's
    key, the residues u_k mod p**(v_k + L + o_1) with v_k = o_k - 1 the
    valuation of u_k (a zero draw has o_k = L + 49 and residue 0).  A residue
    names o_k and the unit mod p**(L + o_1), and an unseen key is decided by
    step_core and contains_digits on the residues themselves, a point with
    the same valuations and precisions.  That outcome is every sample's with
    this key: step_core raises PrecisionExhausted on the valuations alone,
    and a unit changed by a multiple of p**(L + o_1) moves the image's
    coordinates p**ord_k * u_k / u_i (and p**(-d) / u_i) only at positions
    >= L, as the pivot depth d is o_1 for the cyclic family and
    min(o_k) <= o_1 for Brun.
    """
    if c.m != spec.m:
        raise ValueError("cylinder dimension mismatch")
    level = max(c.levels)
    precision = level + 48
    p = spec.ctx.p
    top = p**precision
    m = spec.m
    # p**e for every key modulus p**(v_k + L + o_1), v_k <= precision and o_1 <= precision + 1
    powers = [p**e for e in range(2 * precision + level + 2)]

    def run_shard(args):
        shard_seed, shard_samples = args
        draws = _uniform_below(random.Random(shard_seed), top)
        outcomes = {}  # key -> True (hit), False (miss) or None (dropped)
        unseen = object()
        hits = 0
        done = 0
        # haar_sample_vector's draws, m at a time: digits 1 .. precision,
        # abs_prec precision + 1
        for units in islice(zip(*[draws] * m), shard_samples):
            residues = []
            for u in units:
                v = _intval(u, p) if u else precision  # o_k - 1
                if not residues:
                    shift = level + 1 + v  # L + o_1
                residues.append(u % powers[v + shift])
            key = tuple(residues)
            inside = outcomes.get(key, unseen)
            if inside is unseen:
                x0, point = 1, [(1, u, precision + 1) for u in key]
                try:
                    _, _, _, x0, point = step_core(spec, x0, point)
                    inside = c.contains_digits(point, x0)
                except (PrecisionExhausted, ExpansionTerminated):
                    inside = None
                outcomes[key] = inside
            if inside is not None:
                done += 1
                hits += inside
        return hits, done

    results = _run_sharded(run_shard, n_samples, seed, chunk=10_000, threads=threads)
    hits = sum(r[0] for r in results)
    done = sum(r[1] for r in results)
    _require_half(done, n_samples, "samples")
    est = Fraction(hits, done)
    stderr = math.sqrt(float(est * (1 - est)) / done)
    return StatReport(
        estimate=float(est),
        stderr=stderr,
        n_samples=done,
        n_steps=1,
        theoretical=measure(c),
        seed=seed,
        n_dropped=n_samples - done,
    )


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
    truncated family the defect is bounded by the reported tail.  lhs comes
    from the same factorisation as rhs, not from the forward map, so this
    check (stats --check mixing) cannot fail on a wrong step.
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


# -- random cylinders for the CLI ---------------------------------------------


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

