"""The four benchmark workloads.

Each builder takes the imported `padic_cf` package and the run's seed and
returns a `Workload`: the calls of one pass, in a fixed order, and the input
sizes.  A call's `run` is the only timed part; its `judge` checks the output
against an oracle that does not reuse the code it checks, untimed.

Calls go through module attributes looked up at call time
(`pkg.ergodics.digit_mean_reports`, never a bound name), so the wrappers that
the traced run installs see them.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Callable

INF = math.inf


@dataclass
class Verdict:
    ok: bool
    record: str  # canonical text of the output; hashed into the pass digest
    units: int  # work units the call completed (see Workload.unit)
    values: tuple = ()  # numbers a pass-level oracle needs


@dataclass
class Call:
    kind: str
    run: Callable  # (state) -> raw output
    judge: Callable  # (raw output, state) -> Verdict


@dataclass
class Workload:
    unit: str  # what one work unit is, as the name of its throughput metric
    calls: list
    sizes: dict
    pass_check: Callable | None = None  # (calls, verdicts) -> indices of failed calls


def family_z(n_tests: int) -> float:
    """Threshold, in standard errors, at which n independent tests together
    raise a false alarm as rarely as one 4-sigma test (Bonferroni).

    A pass makes up to 200 Monte Carlo reports.  Judging each at plain 4
    sigma would fail about one seed in eighty on correct code.
    """
    tail = 1 - NormalDist().cdf(4.0)
    return NormalDist().inv_cdf(1 - tail / n_tests)


def _within(estimate: float, stderr: float, target: float, z: float) -> bool:
    return estimate == target or abs(estimate - target) <= z * stderr


# -- orbits -------------------------------------------------------------------

# (kind, p, ell, calls per pass).  Unequal counts put p50 inside the
# schneider-p3 calls and p90 inside the schneider-p5 calls, not on the edge
# between two cost groups.
ORBIT_CONFIGS = (
    ("schneider-p3", 3, 0, 40),
    ("schneider-p5", 5, 0, 20),
    ("tl1-p3", 3, 1, 20),
    ("ruban-p2", 2, INF, 20),
)
ORBIT_SAMPLES = 2
ORBIT_STEPS = 200


def digit_mean_limits(p: int, ell) -> tuple[Fraction, Fraction]:
    """The paper's almost-everywhere means of the digit observables a = v and b = k."""
    mean_b = Fraction(0) if ell == INF else Fraction(p, p**ell * (p - 1))
    return Fraction(p, 2), mean_b


def orbits(pkg, seed: int) -> Workload:
    rng = random.Random(seed)
    n_calls = sum(c[3] for c in ORBIT_CONFIGS)
    z = family_z(2 * n_calls)
    limits = {}
    calls = []
    for kind, p, ell, count in ORBIT_CONFIGS:
        spec = pkg.SystemSpec.one_dim(pkg.PrimeCtx(p), ell)
        limits[kind] = digit_mean_limits(p, ell)
        for _ in range(count):
            calls.append(_orbit_call(pkg, kind, spec, rng.randrange(2**31), limits[kind], z))
    rng.shuffle(calls)
    sizes = {
        "calls_per_pass": n_calls,
        "calls_per_config": {c[0]: c[3] for c in ORBIT_CONFIGS},
        "samples_per_call": ORBIT_SAMPLES,
        "steps": ORBIT_STEPS,
        "precision": 4 * ORBIT_STEPS,
        "threads": 1,
        "per_report_z": round(z, 3),
    }
    return Workload("steps_per_s", calls, sizes, _pooled_digit_means(limits))


def _orbit_call(pkg, kind, spec, call_seed, limits, z) -> Call:
    def run(state):
        return pkg.ergodics.digit_mean_reports(spec, ORBIT_SAMPLES, ORBIT_STEPS, call_seed)

    def judge(reports, state):
        ok = len(reports) == 2 and all(
            rep.theoretical == limit
            and rep.n_samples == ORBIT_SAMPLES
            and rep.n_steps == ORBIT_STEPS
            and _within(rep.estimate, rep.stderr, float(limit), z)
            for rep, limit in zip(reports, limits)
        )
        values = tuple(x for rep in reports for x in (rep.estimate, rep.stderr))
        return Verdict(ok, repr(values), ORBIT_SAMPLES * ORBIT_STEPS, values)

    return Call(kind, run, judge)


def _pooled_digit_means(limits: dict) -> Callable:
    """Per config and observable, the mean of the calls' estimates must lie
    within 4 sigma (family-wise) of the limit: a small bias that no single
    400-digit call can show fails here."""

    def check(calls, verdicts):
        groups: dict = {}
        for i, (call, verdict) in enumerate(zip(calls, verdicts)):
            if verdict.values:
                groups.setdefault(call.kind, []).append(i)
        z = family_z(2 * len(limits))
        bad = set()
        for kind, idx in groups.items():
            for obs in (0, 1):
                ests = [verdicts[i].values[2 * obs] for i in idx]
                ses = [verdicts[i].values[2 * obs + 1] for i in idx]
                est = sum(ests) / len(ests)
                se = math.sqrt(sum(s * s for s in ses)) / len(ses)
                if not _within(est, se, float(limits[kind][obs]), z):
                    bad.update(idx)
        return bad

    return check


# -- invariance ---------------------------------------------------------------

# (kind, p, m, calls per pass).  p50 falls inside the cheaper schneider
# calls and p90 inside the jacobi-perron calls.
INVARIANCE_SYSTEMS = (
    ("schneider-p2", 2, 1, 4),
    ("jp-p2", 2, 2, 2),
)
INVARIANCE_SAMPLES = 20_000  # two full shards of _cylinder_mc's 10,000-sample chunk
INVARIANCE_THREADS = 2


def invariance(pkg, seed: int) -> Workload:
    rng = random.Random(seed)
    n_calls = sum(s[3] for s in INVARIANCE_SYSTEMS)
    z = family_z(n_calls)
    calls = []
    for kind, p, m, count in INVARIANCE_SYSTEMS:
        ctx = pkg.PrimeCtx(p)
        spec = pkg.SystemSpec.schneider(ctx) if m == 1 else pkg.SystemSpec.jacobi_perron(ctx, m)
        for _ in range(count):
            c = pkg.random_cylinder(rng, ctx, m, max_level=3)
            haar = Fraction(1, p ** sum(level - 1 for level in c.levels))
            calls.append(_invariance_call(pkg, kind, spec, c, haar, rng.randrange(2**31), z))
    sizes = {
        "calls_per_pass": n_calls,
        "calls_per_system": {s[0]: s[3] for s in INVARIANCE_SYSTEMS},
        "samples_per_call": INVARIANCE_SAMPLES,
        "shards_per_call": INVARIANCE_SAMPLES // 10_000,
        "threads": INVARIANCE_THREADS,
        "max_level": 3,
        "per_report_z": round(z, 3),
    }
    return Workload("steps_per_s", calls, sizes)


def _invariance_call(pkg, kind, spec, c, haar, call_seed, z) -> Call:
    def run(state):
        return pkg.ergodics.invariance_mc(
            spec, c, INVARIANCE_SAMPLES, call_seed, threads=INVARIANCE_THREADS
        )

    def judge(rep, state):
        # Haar measure is invariant, so the preimage has the cylinder's measure
        ok = rep.theoretical == haar and _within(rep.estimate, rep.stderr, float(haar), z)
        return Verdict(ok, repr((rep.estimate, rep.stderr, rep.n_samples)), INVARIANCE_SAMPLES)

    return Call(kind, run, judge)


# -- branch-sums --------------------------------------------------------------

JP_M = 2
JP_ENUMERATIONS = ((2, 3), (2, 4), (3, 3))  # (p, D): bound p^((m+1)D) admits classes 1..D
# (p, D, cylinders per pass).  p50 falls inside the (2, 3) sums and p90
# inside the (2, 4) sums; the few large calls lie above p90.
PREIMAGE_SUMS = ((2, 3, 96), (2, 4, 36), (3, 3, 2))
RUBAN_IOTA_SUMS = ((2, 22), (3, 16))  # (p, b): iota_sum at bound p^b


def deepest_class(p: int, bound: int, expo_per_class: int) -> int:
    """Largest D with p**(expo_per_class * D) <= bound, counting class by class."""
    d = 0
    while p ** (expo_per_class * (d + 1)) <= bound:
        d += 1
    return d


def ruban_branch_count(p: int, depth: int) -> int:
    """Ruban's class d holds the (p-1)*p**d digit values with exactly d
    fractional digits; each has iota p**(2d)."""
    return sum((p - 1) * p**d for d in range(1, depth + 1))


def jp_branch_count(p: int, m: int, depth: int) -> int:
    """Jacobi-Perron pivot class d: (p-1)*p**d values for the pivot entry and,
    for each of the m-1 other entries, zero or a value of class < d, i.e. one
    of the p**d digit strings at positions 1-d..0.  Each has iota p**((m+1)d)."""
    return sum((p - 1) * p**d * p ** (d * (m - 1)) for d in range(1, depth + 1))


def branch_sums(pkg, seed: int) -> Workload:
    rng = random.Random(seed)
    enumerations = [_enumerate_call(pkg, p, depth) for p, depth in JP_ENUMERATIONS]
    rest = [_iota_sum_call(pkg, p, b) for p, b in RUBAN_IOTA_SUMS]
    for p, depth, count in PREIMAGE_SUMS:
        ctx = pkg.PrimeCtx(p)
        for _ in range(count):
            c = pkg.random_cylinder(rng, ctx, JP_M, max_level=3, uniform=True)
            rest.append(_preimage_sum_call(pkg, p, depth, c))
    rng.shuffle(rest)
    calls = enumerations + rest  # the preimage sums use this pass's enumerations
    sizes = {
        "calls_per_pass": len(calls),
        "jp_enumerations": [
            {"p": p, "D": d, "branches": jp_branch_count(p, JP_M, d)} for p, d in JP_ENUMERATIONS
        ],
        "preimage_sums": [
            {"p": p, "D": d, "cylinders": n, "branches_each": jp_branch_count(p, JP_M, d)}
            for p, d, n in PREIMAGE_SUMS
        ],
        "ruban_iota_sums": [
            {"p": p, "bound": f"{p}^{b}", "branches": ruban_branch_count(p, deepest_class(p, p**b, 2))}
            for p, b in RUBAN_IOTA_SUMS
        ],
    }
    return Workload("branches_per_s", calls, sizes)


def _iota_sum_call(pkg, p, b) -> Call:
    spec = pkg.SystemSpec.ruban(pkg.PrimeCtx(p))
    depth = deepest_class(p, p**b, 2)
    expected = 1 - Fraction(1, p**depth)

    def run(state):
        return pkg.ergodics.iota_sum(spec, p**b)

    def judge(total, state):
        return Verdict(total == expected, str(total), ruban_branch_count(p, depth))

    return Call(f"iota-sum-ruban-p{p}", run, judge)


def _enumerate_call(pkg, p, depth) -> Call:
    spec = pkg.SystemSpec.jacobi_perron(pkg.PrimeCtx(p), JP_M)
    count = jp_branch_count(p, JP_M, depth)

    def run(state):
        return pkg.cfsystems.enumerate_branches(spec, p ** ((JP_M + 1) * depth))

    def judge(branches, state):
        state[(p, depth)] = branches
        record = "\n".join(repr(d) for d, _ in branches)
        return Verdict(len(branches) == count, record, count)

    return Call(f"enumerate-jp-p{p}-D{depth}", run, judge)


def _preimage_sum_call(pkg, p, depth, c) -> Call:
    haar = Fraction(1, p ** sum(level - 1 for level in c.levels))
    expected = haar * (1 - Fraction(1, p**depth))

    def run(state):
        total = Fraction(0)
        for _, f in state[(p, depth)]:
            for piece in pkg.lft.preimage_cylinder(f, c):
                total += pkg.padic_core.measure(piece)
        return total

    def judge(total, state):
        return Verdict(total == expected, str(total), jp_branch_count(p, JP_M, depth))

    return Call(f"preimage-sum-jp-p{p}-D{depth}", run, judge)


# -- convergents --------------------------------------------------------------

CONVERGENT_SYSTEMS = (
    ("schneider-p2", ("--p", "2", "--system", "schneider")),
    ("ruban-p3", ("--p", "3", "--system", "ruban")),
    ("tl1-p3", ("--p", "3", "--system", "tl", "--l", "1")),
    ("jp-p2", ("--p", "2", "--system", "jacobi-perron")),
)
CONVERGENT_DIGITS = 80
CONVERGENT_TRIPS = 25  # per system and pass


def convergents(pkg, seed: int) -> Workload:
    rng = random.Random(seed)
    calls = [
        _round_trip_call(pkg, kind, flags, rng.randrange(2**31))
        for kind, flags in CONVERGENT_SYSTEMS
        for _ in range(CONVERGENT_TRIPS)
    ]
    rng.shuffle(calls)
    sizes = {
        "calls_per_pass": len(calls),
        "systems": [kind for kind, _ in CONVERGENT_SYSTEMS],
        "trips_per_system": CONVERGENT_TRIPS,
        "digits_per_point": CONVERGENT_DIGITS,
    }
    return Workload("rows_per_s", calls, sizes)


def _round_trip_call(pkg, kind, flags, point_seed) -> Call:
    """`padic-cf expand ... random:N | padic-cf convergents ... - --point random:N`."""
    point = f"random:{CONVERGENT_DIGITS}"
    expand_argv = ["expand", *flags, point, "--seed", str(point_seed),
                   "--steps", str(CONVERGENT_DIGITS)]
    convergents_argv = ["convergents", *flags, "-", "--point", point, "--seed", str(point_seed)]

    def run(state):
        digits = io.StringIO()
        rc_expand = pkg.cli.main(expand_argv, out=digits)
        rows = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(digits.getvalue())
        try:
            rc_convergents = pkg.cli.main(convergents_argv, out=rows)
        finally:
            sys.stdin = stdin
        return rc_expand, digits.getvalue(), rc_convergents, rows.getvalue()

    return Call(kind, run, _judge_round_trip)


def _judge_round_trip(raw, state) -> Verdict:
    rc_expand, digits, rc_convergents, rows = raw
    records = [json.loads(line) for line in digits.splitlines()]
    table = [row.split("\t") for row in rows.splitlines()]
    ok = (
        rc_expand == 0
        and rc_convergents == 0
        and bool(records)
        and "status" in records[-1]
        and all("digit" in r for r in records[:-1])
        and len(table) == len(records) - 1
    )
    # Row j is the convergent of the first j+1 digits: ord(x - convergent)
    # >= j+2, checkable while j+2 <= N+1, the point's known digits.
    for j, cols in enumerate(table):
        if len(cols) != 3 or cols[0] != str(j):
            ok = False
        elif cols[2] != "inf" and j + 2 <= CONVERGENT_DIGITS + 1 and int(cols[2]) < j + 2:
            ok = False
    return Verdict(ok, digits + rows, len(table))


BUILDERS = {
    "orbits": orbits,
    "invariance": invariance,
    "branch-sums": branch_sums,
    "convergents": convergents,
}
