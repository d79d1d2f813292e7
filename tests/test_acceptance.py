"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
All tolerances are fixed here; Monte Carlo checks use 4 standard errors with
pinned seeds.
"""

import io
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from padic_cf import (
    Ball,
    PrimeCtx,
    ProductCylinder,
    SymbolicCylinder,
    SystemSpec,
    apply_inverse,
    certify_hyperbolic,
    convergents,
    digit_mean_reports,
    enumerate_branches,
    expand,
    haar_sample_vector,
    invariance_mc,
    iota,
    iota_sum,
    measure,
    mixing_exact,
    preimage_cylinder,
    random_cylinder,
    valuation,
)
from padic_cf.cli import main as cli_main
from reference import apply_forward, random_element, random_hyperbolic, random_word, vector_norm

INF = math.inf
GOLDEN = Path(__file__).parent / "golden"


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def one_dim_spec(p: int, ell) -> SystemSpec:
    return SystemSpec.one_dim(PrimeCtx(p), ell)


def test_criterion_1_branch_sum_identity():
    """Sum of inverse branch factors equals 1 minus the exact geometric tail."""
    configs = [(2, 0), (3, 0), (2, INF), (3, 1), (5, 0)]
    worst = 0.0
    for p, ell in configs:
        spec = one_dim_spec(p, ell)
        t0 = time.time()
        total = iota_sum(spec, p**20)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        # deepest pivot valuation class the bound admits, found independently
        d_max = 0
        while True:
            d = d_max + 1
            expo = 2 * d if ell == INF else max(d - ell, 0) + 2 * min(d, ell)
            if p**expo > p**20:
                break
            d_max = d
        assert total == 1 - Fraction(1, p**d_max), (p, ell)
        assert elapsed < 1.0, f"({p},{ell}) took {elapsed:.2f}s"
    report(
        "criterion-1 branch-sum identity",
        True,
        f"5 configs exact at bound p^20, slowest {worst * 1000:.0f} ms",
    )


def test_criterion_2_digit_mean_limits():
    """Birkhoff means of both digit observables, 2000 samples x 200 steps."""
    configs = [(3, 0), (5, 0), (3, 1), (2, INF)]
    t0 = time.time()
    details = []
    for p, ell in configs:
        spec = one_dim_spec(p, ell)
        rep_a, rep_b = digit_mean_reports(spec, 2000, 200, seed=20_240 + p, threads=2)
        for label, rep in (("a", rep_a), ("b", rep_b)):
            target = float(rep.theoretical)
            gap = abs(rep.estimate - target)
            ok = gap <= 4 * rep.stderr or gap == 0.0
            assert ok, (p, ell, label, rep.estimate, target, rep.stderr)
            details.append(f"({p},{'inf' if ell == INF else ell}){label}")
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.0f}s"
    report(
        "criterion-2 digit-mean limits",
        True,
        f"8 estimates within 4 stderr, {elapsed:.0f}s total",
    )


def _system_matrix():
    out = []
    for p in (2, 3):
        ctx = PrimeCtx(p)
        out.append(SystemSpec.schneider(ctx))
        out.append(SystemSpec.ruban(ctx))
        out.append(SystemSpec.one_dim(ctx, 1))
        out.append(SystemSpec.jacobi_perron(ctx, 2))
    return out


def test_criterion_3_convergence_rate():
    """ord(x - convergent_j) >= j + 1 for every computable prefix."""
    t0 = time.time()
    n_digits = 200
    per_system = 13  # 13 x 8 systems > 100 samples total
    samples = 0
    checks = 0
    for sys_idx, spec in enumerate(_system_matrix()):
        rng = random.Random(3_000 + sys_idx)
        for _ in range(per_system):
            xs = haar_sample_vector(spec.ctx, spec.m, n_digits, rng)
            x = xs if spec.m > 1 else xs[0]
            e = expand(spec, x, 10**9)
            samples += 1
            for j, pi in enumerate(convergents(spec, e.digits), start=1):
                pis = pi if isinstance(pi, tuple) else (pi,)
                computable = True
                for coord, approx in zip(pis, xs):
                    diff = approx - coord
                    if diff.is_exact_zero:
                        continue
                    if diff.is_zero_at_precision:
                        if diff.abs_prec < j + 1:
                            computable = False
                            break
                        continue
                    assert diff.valuation() >= j + 1, (spec, spec.ctx.p, j)
                if not computable:
                    break
                checks += 1
    elapsed = time.time() - t0
    assert samples >= 100
    assert elapsed < 60, f"took {elapsed:.0f}s"
    report(
        "criterion-3 convergence rate",
        True,
        f"{samples} samples, {checks} prefixes, {elapsed:.1f}s",
    )


def test_criterion_4_contraction():
    """Inverse branches contract the max-norm metric by at least 1/p."""
    rng = random.Random(4_000)
    violations = 0
    for _ in range(10_000):
        m = rng.choice([1, 2, 3])
        ctx = PrimeCtx(rng.choice([2, 3, 5]))
        f = random_hyperbolic(rng, ctx, m)

        def point():
            coords = []
            for _ in range(m):
                e = rng.randint(1, 4)
                while True:
                    num, den = rng.randint(1, 80), rng.randint(1, 80)
                    if num % ctx.p and den % ctx.p:
                        break
                sign = -1 if rng.random() < 0.5 else 1
                coords.append(Fraction(sign * num * ctx.p**e, den))
            return tuple(coords)

        x, y = point(), point()
        lhs = vector_norm(
            [a - b for a, b in zip(apply_inverse(f, x), apply_inverse(f, y))], ctx
        )
        rhs = vector_norm([a - b for a, b in zip(x, y)], ctx)
        if lhs > rhs / ctx.p:
            violations += 1
    report("criterion-4 contraction", violations == 0, "10000 cases, 0 violations")


def test_criterion_5_preimage_decomposition():
    """Inverse images of cylinders split into p^h exact disjoint pieces."""
    rng = random.Random(5_000)
    cases = 0
    while cases < 500:
        m = rng.choice([1, 2])
        ctx = PrimeCtx(rng.choice([2, 3]))
        f = random_hyperbolic(rng, ctx, m)
        cert = certify_hyperbolic(f)
        n = rng.randint(1, 6)
        balls = tuple(
            Ball(ctx, Fraction(ctx.p * rng.randrange(ctx.p ** (n - 1))), n)
            for _ in range(m)
        )
        c = ProductCylinder(balls)
        pieces = preimage_cylinder(f, c)
        assert len(pieces) == ctx.p**cert.h
        # pairwise disjoint: canonical pivot-coordinate centers all differ
        centers = {pc.balls[f.i - 1].center for pc in pieces}
        assert len(centers) == len(pieces)
        total = sum((measure(pc) for pc in pieces), Fraction(0))
        assert total * iota(f) == measure(c)
        for _ in range(100):
            z = random_element(c, rng, depth=24)
            w = apply_inverse(f, z)
            assert sum(pc.contains(w) for pc in pieces) == 1
            pc = pieces[rng.randrange(len(pieces))]
            assert c.contains(apply_forward(f, random_element(pc, rng, depth=24)))
        cases += 1
    report("criterion-5 preimage decomposition", True, "500 cases exact")


def test_criterion_6_invariance():
    """Monte Carlo invariance on random cylinders plus the exact branch sum."""
    systems = [
        SystemSpec.schneider(PrimeCtx(2)),
        SystemSpec.ruban(PrimeCtx(3)),
        SystemSpec.one_dim(PrimeCtx(3), 1),
        SystemSpec.jacobi_perron(PrimeCtx(2), 2),
    ]
    worst_sigma = 0.0
    for sys_idx, spec in enumerate(systems):
        rng = random.Random(6_000 + sys_idx)
        for k in range(20):
            c = random_cylinder(rng, spec.ctx, spec.m, max_level=3)
            rep = invariance_mc(spec, c, 50_000, seed=60_000 + 100 * sys_idx + k, threads=2)
            gap = abs(rep.estimate - float(rep.theoretical))
            if rep.stderr > 0:
                worst_sigma = max(worst_sigma, gap / rep.stderr)
            assert gap <= 4 * rep.stderr or gap == 0.0, (spec, k, gap, rep.stderr)

    # exact decomposition: preimage measures over every branch of pivot
    # valuation class <= D sum to measure(c) * (1 - p^-D)
    rng = random.Random(6_500)
    for spec in systems:
        p = spec.ctx.p
        D = 3
        bound = p ** ((spec.m + 1) * D)
        branches = enumerate_branches(spec, bound)
        for _ in range(3):
            c = random_cylinder(rng, spec.ctx, spec.m, max_level=3, uniform=True)
            total = Fraction(0)
            for _, f in branches:
                cert = certify_hyperbolic(f)
                if cert.u + cert.v > D:
                    continue
                for piece in preimage_cylinder(f, c):
                    total += measure(piece)
            assert total == measure(c) * (1 - Fraction(1, p**D)), spec
    report(
        "criterion-6 invariance",
        True,
        f"80 cylinders x 50k samples, worst gap {worst_sigma:.2f} sigma; exact sums ok",
    )


def test_criterion_7_mixing():
    """Exact mixing identity on 50 random cylinder pairs."""
    specs = [SystemSpec.schneider(PrimeCtx(2)), SystemSpec.ruban(PrimeCtx(3))]
    rng = random.Random(7_000)
    pairs = 0
    for spec in specs:
        p = spec.ctx.p
        for _ in range(25):
            A = SymbolicCylinder(spec, random_word(rng, spec, rng.randint(0, 3)))
            B = SymbolicCylinder(spec, random_word(rng, spec, rng.randint(0, 3)))
            n = len(B) + rng.randint(0, 3)
            complete = mixing_exact(A, B, n)
            assert complete.lhs == complete.rhs  # exact Rational equality
            truncated = mixing_exact(A, B, n, iota_bound=p**20)
            assert abs(truncated.lhs - truncated.rhs) <= truncated.tail_bound
            assert truncated.tail_bound <= Fraction(len(B) + 3, p**9)
            pairs += 1
    report("criterion-7 mixing", True, f"{pairs} pairs, lhs = rhs exactly when complete")


def test_criterion_8_cli_round_trips():
    """The documented CLI runs reproduce their golden outputs byte for byte."""
    cases = [
        (
            ["expand", "--p", "2", "--system", "schneider", "2/3"],
            "expand_schneider_p2_2_3.jsonl",
        ),
        (
            ["expand", "--p", "2", "--system", "ruban", "2/3"],
            "expand_ruban_p2_2_3.jsonl",
        ),
    ]
    for argv, golden in cases:
        buf = io.StringIO()
        code = cli_main(argv, out=buf)
        assert code == 0
        assert buf.getvalue() == (GOLDEN / golden).read_text(encoding="utf-8"), golden
    # and the digits feed back through the convergent command to 2/3 exactly
    buf = io.StringIO()
    code = cli_main(["expand", "--p", "2", "--system", "schneider", "2/3"], out=buf)
    digits_path = GOLDEN / "expand_schneider_p2_2_3.jsonl"
    out = io.StringIO()
    code = cli_main(
        ["convergents", "--p", "2", "--system", "schneider", str(digits_path),
         "--point", "2/3"],
        out=out,
    )
    assert code == 0
    assert out.getvalue() == "0\t2/1\t2\n1\t2/3\tinf\n"
    report("criterion-8 oracle round trips", True, "golden files byte-exact")
