"""Measure identities, Birkhoff averages, invariance and mixing checks."""

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from padic_cf import (
    Ball,
    Digit1D,
    InsufficientData,
    NotHyperbolicError,
    PadicApprox,
    PrecisionExhausted,
    PrimeCtx,
    ProductCylinder,
    SymbolicCylinder,
    SystemSpec,
    WordTooShort,
    branch_counts,
    branch_lft,
    convergent,
    convergents,
    cylinder_measure,
    digit_mean_reports,
    enumerate_branches,
    expand,
    haar_sample,
    invariance_mc,
    iota,
    iota_sum,
    measure,
    membership_mc,
    mixing_exact,
    preimage_cylinder,
    random_cylinder,
    random_word,
    theoretical_digit_means,
    valuation,
)
from padic_cf.ergodics import StatReport, _run_sharded

P2 = PrimeCtx(2)
P3 = PrimeCtx(3)
P5 = PrimeCtx(5)
INF = math.inf


class TestCylinderMeasure:
    def test_empty_word(self):
        s = SystemSpec.schneider(P2)
        assert cylinder_measure(SymbolicCylinder(s, ())) == 1

    def test_single_letter(self):
        s = SystemSpec.schneider(P2)
        assert cylinder_measure(SymbolicCylinder(s, (Digit1D(1, Fraction(1)),))) == Fraction(1, 2)

    def test_two_letters(self):
        s = SystemSpec.schneider(P2)
        word = (Digit1D(1, Fraction(1)), Digit1D(2, Fraction(1)))
        assert cylinder_measure(SymbolicCylinder(s, word)) == Fraction(1, 8)

    def test_total_measure_of_two_letter_words(self):
        # sum over all length-2 words with bounded letters plus the exact tail
        s = SystemSpec.ruban(P3)
        bound = 3**6
        letters = enumerate_branches(s, bound)
        total = Fraction(0)
        for d1, f1 in letters:
            for d2, f2 in letters:
                total += 1 / (iota(f1) * iota(f2))
        partial = iota_sum(s, bound)
        assert total == partial**2
        assert 1 - total == 1 - partial**2  # exact tail, no float involved


class TestIotaSum:
    def test_schneider_p2_bound_2_20(self):
        s = SystemSpec.schneider(P2)
        assert iota_sum(s, 2**20) == 1 - Fraction(1, 2**20)

    def test_ruban_p3_bound_3_10(self):
        s = SystemSpec.ruban(P3)
        total = iota_sum(s, 3**10)
        assert total == 1 - Fraction(1, 3**5)
        # the complement is the tail of the class weights (p-1)/p^k
        tail = sum(Fraction(2, 3**k) for k in range(6, 60))
        assert (1 - total) - tail == Fraction(1, 3**59)

    def test_monotone_in_bound(self):
        s = SystemSpec.one_dim(P3, 1)
        sums = [iota_sum(s, 3**b) for b in (2, 4, 8, 12)]
        assert sums == sorted(sums) and all(x < 1 for x in sums)

    @pytest.mark.parametrize(
        "p,ell,m,top",
        [
            pytest.param(p, ell, m, top, id=f"p{p}-l{ell}-m{m}")
            for p, ell, m, top in (
                [(p, ell, 1, 9) for p in (2, 3, 5) for ell in (0, INF, 1, 2)]
                + [(2, ell, m, 10) for ell in (INF, 0, 1) for m in (2, 3)]
                + [(3, ell, m, 7) for ell in (INF, 0, 1) for m in (2, 3)]
            )
        ],
    )
    def test_counts_match_enumeration(self, p, ell, m, top):
        # every bound p^1 .. p^top; for tlm p=2 ell=1 m=3, 2^8 and 2^9 cut
        # pivot class 3, whose branches have iota 2^8 .. 2^10
        ctx = PrimeCtx(p)
        spec = SystemSpec.one_dim(ctx, ell) if m == 1 else SystemSpec.multi_dim(ctx, ell, m)
        for b in range(1, top + 1):
            branches = enumerate_branches(spec, p**b)
            literal = sum((1 / iota(f) for _, f in branches), Fraction(0))
            assert iota_sum(spec, p**b) == literal, b
            assert sum(branch_counts(spec, p**b).values()) == len(branches), b

    def test_multi_dim_complete_classes(self):
        # classes of pivot valuation d carry weight (p-1)/p^d; bound p^{(m+1)D}
        # includes every class up to D
        for p, m, ell, D in ((2, 2, INF, 3), (3, 2, 0, 2), (2, 3, 1, 2)):
            ctx = PrimeCtx(p)
            spec = SystemSpec.multi_dim(ctx, ell, m)
            bound = p ** ((m + 1) * D)
            total = iota_sum(spec, bound)
            assert total == sum((1 / iota(f) for _, f in enumerate_branches(spec, bound)), Fraction(0))
            assert 1 - Fraction(1, p**D) <= total < 1

    def test_brun_and_small_bound_rejected(self):
        with pytest.raises(NotImplementedError):
            iota_sum(SystemSpec.brun(P2, 2), 2**6)
        with pytest.raises(ValueError):
            iota_sum(SystemSpec.schneider(P3), 2)


class TestTheoreticalMeans:
    def test_examples(self):
        assert theoretical_digit_means(3, 0) == (Fraction(3, 2), Fraction(3, 2))
        assert theoretical_digit_means(2, INF) == (Fraction(1), Fraction(0))
        assert theoretical_digit_means(5, 1) == (Fraction(5, 2), Fraction(1, 4))

    def test_mean_a_from_branch_weights(self):
        # the closed form agrees with the exact weighted sum over branches
        for spec, bound in (
            (SystemSpec.schneider(P3), 3**30),
            (SystemSpec.ruban(P2), 2**22),
            (SystemSpec.one_dim(P2, 2), 2**24),
        ):
            p = spec.ctx.p
            total_a = Fraction(0)
            total_b = Fraction(0)
            covered = Fraction(0)
            for d, f in enumerate_branches(spec, bound):
                w = 1 / iota(f)
                total_a += d.v * w
                total_b += d.k * w
                covered += w
            mean_a, mean_b = theoretical_digit_means(p, spec.ell)
            # every valuation class contributes a mean a-value of p/2, so the
            # omitted classes account for exactly (p/2) * (1 - covered)
            assert total_a + Fraction(p, 2) * (1 - covered) == mean_a
            assert mean_b - total_b < Fraction(1, p**8)


class TestBirkhoff:
    def test_p2_schneider_degenerate_a(self):
        # the only class-0 digit value at p = 2 is 1, so a is constant
        s = SystemSpec.schneider(P2)
        rep_a, rep_b = digit_mean_reports(s, 50, 40, seed=4)
        assert rep_a.estimate == 1.0 and rep_a.stderr == 0.0
        assert rep_a.within(4.0)

    def test_ruban_b_is_zero(self):
        s = SystemSpec.ruban(P2)
        _, rep_b = digit_mean_reports(s, 30, 30, seed=4)
        assert rep_b.estimate == 0.0 and rep_b.theoretical == 0

    def test_small_run_within_tolerance(self):
        s = SystemSpec.schneider(P3)
        rep_a, rep_b = digit_mean_reports(s, 300, 80, seed=11)
        assert rep_a.within(4.0) and rep_b.within(4.0)

    def test_insufficient_data(self):
        s = SystemSpec.ruban(P2)
        with pytest.raises(InsufficientData):
            digit_mean_reports(s, 20, 50, seed=1, precision=12)

    def test_multi_dim_rejected(self):
        with pytest.raises(ValueError):
            digit_mean_reports(SystemSpec.jacobi_perron(P2, 2), 10, 10, seed=0)


class TestInvarianceMC:
    def test_full_space_hits_exactly(self):
        s = SystemSpec.schneider(P2)
        c = ProductCylinder((Ball(P2, Fraction(0), 1),))
        rep = invariance_mc(s, c, 500, seed=8)
        assert rep.estimate == 1.0
        assert rep.theoretical == 1

    def test_cylinder_of_another_dimension(self):
        c = ProductCylinder((Ball(P2, Fraction(0), 1),) * 2)
        with pytest.raises(ValueError, match="cylinder dimension mismatch"):
            invariance_mc(SystemSpec.schneider(P2), c, 10, seed=1)

    def test_level_three_ball(self):
        s = SystemSpec.schneider(P2)
        c = ProductCylinder((Ball(P2, Fraction(2), 3),))
        rep = invariance_mc(s, c, 20000, seed=9)
        assert rep.theoretical == Fraction(1, 4)
        assert rep.within(4.0)

    def test_preimage_matches_direct_estimate(self):
        rng = random.Random(10)
        s = SystemSpec.jacobi_perron(P2, 2)
        for idx in range(3):
            c = random_cylinder(rng, P2, 2, max_level=2)
            pre = invariance_mc(s, c, 4000, seed=100 + idx)
            direct = membership_mc(s, c, 4000, seed=900 + idx)
            tol = 4 * math.hypot(pre.stderr, direct.stderr)
            assert abs(pre.estimate - direct.estimate) <= tol

    @pytest.mark.parametrize("every,done", [(4, 250), (2, 500)])
    def test_insufficient_data(self, monkeypatch, every, done):
        # the step runs out of precision on all but one in `every` samples;
        # fewer than half completed raises, exactly half still reports
        from padic_cf import ergodics

        calls = []
        step_core = ergodics.step_core

        def mostly_exhausted(*args):
            calls.append(None)
            if len(calls) % every:
                raise PrecisionExhausted("not enough digits")
            return step_core(*args)

        monkeypatch.setattr(ergodics, "step_core", mostly_exhausted)
        s = SystemSpec.schneider(P2)
        c = ProductCylinder((Ball(P2, Fraction(0), 1),))
        if done < 500:
            with pytest.raises(InsufficientData, match=f"^only {done} of 1000 samples completed$"):
                invariance_mc(s, c, 1000, seed=8)
        else:
            rep = invariance_mc(s, c, 1000, seed=8)
            assert (rep.n_samples, rep.n_dropped, rep.estimate) == (500, 500, 1.0)
        assert len(calls) == 1000

    @pytest.mark.parametrize(
        "make_spec,same_as",
        [
            (lambda ctx: SystemSpec.multi_dim(ctx, 1, 1), lambda ctx: SystemSpec.one_dim(ctx, 1)),
            (lambda ctx: SystemSpec.jacobi_perron(ctx, 1), lambda ctx: SystemSpec.ruban(ctx)),
            (lambda ctx: SystemSpec.brun(ctx, 1), lambda ctx: SystemSpec.ruban(ctx)),
        ],
        ids=["tlm-l1-m1", "jp-m1", "brun-m1"],
    )
    def test_m1_specs_sample_like_their_one_dim_map(self, make_spec, same_as):
        # a multi-dim or Brun spec with m = 1 is the same map as a 1-D one, so
        # on the same seeds both harnesses report the same estimates
        c = ProductCylinder((Ball(P3, Fraction(3), 2),))
        spec, one_dim = make_spec(P3), same_as(P3)
        for mc in (invariance_mc, membership_mc):
            rep = mc(spec, c, 3000, seed=12)
            assert rep == mc(one_dim, c, 3000, seed=12)
            assert rep.n_samples == 3000 and rep.within(4.0)

    def test_integer_membership_keeps_ball_order(self):
        # x_1 = 10 + O(2^4) misses the ball 0~2; x_2 = O(2^3) agrees with the
        # ball 0~5 as far as its digits go, short of level 5.  The first miss
        # decides before the later exhaustion; swapped, the exhaustion comes first.
        a, b = Ball(P2, Fraction(0), 2), Ball(P2, Fraction(0), 5)
        miss, short = (1, 0b101, 4), (3, 0, 3)
        for balls, triples, expected in (
            ((a, b), [miss, short], False),
            ((b, a), [short, miss], "exhausted"),
        ):
            cyl = ProductCylinder(balls)
            point = tuple(PadicApprox(P2, *t) for t in triples)
            for test in (lambda: cyl.contains(point), lambda: cyl.contains_digits(triples)):
                try:
                    outcome = test()
                except PrecisionExhausted:
                    outcome = "exhausted"
                assert outcome is expected

    def test_integer_membership_of_centres_outside_p_z_p(self):
        # a point of p*Z_p is in neither 1/2 + 4Z_2 (centre outside Z_2) nor
        # 1 + 4Z_2 (centre a unit), whatever its precision, and the triple of
        # an exact zero is in neither
        for centre in (Fraction(1, 2), Fraction(1)):
            cyl = ProductCylinder((Ball(P2, centre, 2),))
            for triple in ((1, 0b11, 3), (1, 0, 2), (2, 0, 2)):
                x = (PadicApprox(P2, *triple),)
                assert cyl.contains(x) is False
                assert cyl.contains_digits([triple]) is False
            assert cyl.contains((PadicApprox.exact_zero(P2),)) is False
            assert cyl.contains_digits([(INF, 0, INF)]) is False

    def test_exact_decomposition_identity(self):
        # summing preimage measures over enumerated branches reproduces the
        # cylinder measure scaled by the enumerated branch mass
        rng = random.Random(11)
        for spec in (SystemSpec.schneider(P2), SystemSpec.ruban(P3)):
            bound = spec.ctx.p**8
            branches = enumerate_branches(spec, bound)
            s_mass = iota_sum(spec, bound)
            for _ in range(5):
                c = random_cylinder(rng, spec.ctx, 1, max_level=3, uniform=True)
                total = Fraction(0)
                for _, f in branches:
                    for piece in preimage_cylinder(f, c):
                        total += measure(piece)
                assert total == measure(c) * s_mass


class TestShardPool:
    """threads > 1 runs the shards in forked processes; the shard layout and
    seeds, and so every report, do not depend on the worker count."""

    def test_reports_equal_at_every_worker_count(self):
        rng = random.Random(12)
        jp = SystemSpec.jacobi_perron(P2, 2)
        c2 = random_cylinder(rng, P2, 2, max_level=2)
        c1 = ProductCylinder((Ball(P2, Fraction(2), 3),))
        runs = {
            # 25,000 samples are 3 shards of at most 10,000
            "invariance": lambda t: invariance_mc(jp, c2, 25_000, seed=31, threads=t),
            "membership": lambda t: membership_mc(
                SystemSpec.schneider(P2), c1, 25_000, seed=32, threads=t
            ),
            # 600 samples are 3 shards of at most 250
            "digit-means": lambda t: digit_mean_reports(
                SystemSpec.schneider(P3), 600, 10, seed=33, threads=t
            ),
            # classes c > 0 too: the shards' per-class sums merge in the caller
            "digit-means ruban p2": lambda t: digit_mean_reports(
                SystemSpec.ruban(P2), 600, 10, seed=34, threads=t
            ),
            "digit-means t1 p3": lambda t: digit_mean_reports(
                SystemSpec.one_dim(P3, 1), 600, 10, seed=35, threads=t
            ),
        }
        for name, run in runs.items():
            serial = run(1)
            assert run(2) == serial, name
            assert run(3) == serial, name

    def test_shard_exception_reaches_caller(self):
        def worker(job):
            if job[0] == 2:
                raise PrecisionExhausted(f"shard {job[0]}")
            return job

        with pytest.raises(PrecisionExhausted, match="^shard 2$"):
            _run_sharded(worker, 40, 0, chunk=10, threads=2)

        def not_hyperbolic(job):
            raise NotHyperbolicError(3, f"coordinate {job[0]}")

        # an error that does not unpickle would leave pool.map waiting forever
        copy = pickle.loads(pickle.dumps(NotHyperbolicError(3, "coordinate 0")))
        assert copy.condition == 3
        assert str(copy) == "not hyperbolic: condition (iii) failed (coordinate 0)"
        with pytest.raises(NotHyperbolicError, match=r"\(iii\) failed") as err:
            _run_sharded(not_hyperbolic, 20, 0, chunk=10, threads=2)
        assert err.value.condition == 3

    def test_closure_worker_runs_in_child_processes(self):
        offset = {"seed": 1000}

        def worker(job):
            seed, size = job
            return seed + offset["seed"], size, os.getpid()

        out = _run_sharded(worker, 25, 7, chunk=10, threads=2)
        assert [r[:2] for r in out] == [(1007, 10), (1008, 10), (1009, 5)]
        assert os.getpid() not in {r[2] for r in out}
        # a single shard runs in this process whatever the worker count
        assert _run_sharded(worker, 10, 7, chunk=10, threads=2) == [(1007, 10, os.getpid())]

    def test_dead_worker_process_raises(self):
        # one of three shards ends its process; the call raises instead of
        # waiting for that shard's result
        code = (
            "import os\n"
            "from padic_cf import ShardProcessDied\n"
            "from padic_cf.ergodics import _run_sharded\n"
            "def worker(job):\n"
            "    if job[0] == 1:\n"
            "        os._exit(1)\n"
            "    return job\n"
            "try:\n"
            "    _run_sharded(worker, 30, 0, chunk=10, threads=2)\n"
            "except ShardProcessDied as exc:\n"
            "    print(type(exc.__cause__).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "BrokenProcessPool"

    def test_more_workers_than_shards(self):
        out = _run_sharded(lambda job: job, 15, 4, chunk=10, threads=5)
        assert out == [(4, 10), (5, 5)]

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # the executor forks all its workers at the first submit, so an
        # uncapped threads value would fork one process per shard
        import concurrent.futures

        import padic_cf.ergodics as ergodics

        sizes = []

        class InProcessExecutor:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
        monkeypatch.setattr(ergodics, "_shard_worker", None)
        serial = [(j, 1) for j in range(1000)]
        for cpus, cap in ((64, 64), (1, 2), (None, 2)):
            monkeypatch.setattr(ergodics.os, "cpu_count", lambda: cpus)
            assert _run_sharded(lambda j: j, 1000, 0, chunk=1, threads=10**6) == serial
            assert sizes.pop() == cap, cpus
        # fewer jobs than CPUs: one worker a job
        monkeypatch.setattr(ergodics.os, "cpu_count", lambda: 64)
        assert _run_sharded(lambda j: j, 3, 0, chunk=1, threads=10**6) == serial[:3]
        assert sizes == [3]

    def test_import_loads_no_pool_module(self):
        code = (
            "import sys, padic_cf, padic_cf.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestMixing:
    def test_full_space_words(self):
        s = SystemSpec.schneider(P2)
        full = SymbolicCylinder(s, ())
        rep = mixing_exact(full, full, 5)
        assert rep.lhs == 1 and rep.rhs == 1

    def test_exact_identity_single_letters(self):
        s = SystemSpec.schneider(P2)
        A = SymbolicCylinder(s, (Digit1D(1, Fraction(1)),))
        B = SymbolicCylinder(s, (Digit1D(2, Fraction(1)),))
        rep = mixing_exact(A, B, 1)
        assert rep.lhs == rep.rhs == Fraction(1, 8)
        assert rep.tail_bound == 0

    def test_truncated_defect_bounded_and_monotone(self):
        s = SystemSpec.ruban(P3)
        A = SymbolicCylinder(s, (Digit1D(0, Fraction(1, 3)),))
        B = SymbolicCylinder(s, (Digit1D(0, Fraction(2, 3)),))
        prev_gap = None
        for bound in (3**2, 3**6, 3**10):
            rep = mixing_exact(A, B, 4, iota_bound=bound)
            gap = rep.rhs - rep.lhs
            assert 0 <= gap <= rep.tail_bound
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_middle_word_sum_is_power_of_branch_mass(self):
        # literal double sum over middle words of length two
        s = SystemSpec.schneider(P3)
        bound = 3**4
        letters = enumerate_branches(s, bound)
        literal = Fraction(0)
        for _, f1 in letters:
            for _, f2 in letters:
                literal += 1 / (iota(f1) * iota(f2))
        assert literal == iota_sum(s, bound) ** 2

    def test_word_too_short(self):
        s = SystemSpec.schneider(P2)
        B = SymbolicCylinder(s, (Digit1D(1, Fraction(1)), Digit1D(1, Fraction(1))))
        with pytest.raises(WordTooShort):
            mixing_exact(SymbolicCylinder(s, ()), B, 1)

    def test_cylinders_of_two_systems(self):
        A = SymbolicCylinder(SystemSpec.schneider(P2), ())
        B = SymbolicCylinder(SystemSpec.ruban(P2), ())
        with pytest.raises(ValueError, match="cylinders must share one system"):
            mixing_exact(A, B, 1)


class TestDiameterBound:
    def test_convergents_of_extensions_cluster(self):
        # two points sharing their first n digits differ by at most p^-(n+1)
        rng = random.Random(14)
        for spec in (SystemSpec.schneider(P2), SystemSpec.ruban(P3)):
            p = spec.ctx.p
            branches = enumerate_branches(spec, p**4)
            for _ in range(10):
                n = rng.randint(1, 4)
                word = tuple(rng.choice(branches)[0] for _ in range(n))
                u1 = tuple(rng.choice(branches)[0] for _ in range(2))
                u2 = tuple(rng.choice(branches)[0] for _ in range(2))
                pi1 = convergent(spec, word + u1)
                pi2 = convergent(spec, word + u2)
                diff = pi1 - pi2
                assert diff == 0 or valuation(diff, spec.ctx) >= n + 1

    def test_haar_point_close_to_its_convergents(self):
        spec = SystemSpec.schneider(P3)
        x = haar_sample(P3, 150, 15)
        e = expand(spec, x, 12)
        for j, pi in enumerate(convergents(spec, e.digits), start=1):
            diff = x - pi
            if not diff.is_zero_at_precision:
                assert diff.valuation() >= j + 1


class TestReportsAndGenerators:
    def test_stat_report_validation(self):
        with pytest.raises(ValueError):
            StatReport(estimate=0.5, stderr=-1.0, n_samples=10, n_steps=1)
        with pytest.raises(ValueError):
            StatReport(estimate=0.5, stderr=0.0, n_samples=0, n_steps=1)

    def test_random_cylinder_properties(self):
        rng = random.Random(16)
        for _ in range(20):
            c = random_cylinder(rng, P3, 2, max_level=4)
            assert all(1 <= b.level <= 4 for b in c.balls)
            assert all(b.center == 0 or valuation(b.center, P3) >= 1 for b in c.balls)

    def test_random_word_valid(self):
        rng = random.Random(17)
        s = SystemSpec.ruban(P2)
        word = random_word(rng, s, 4)
        for d in word:
            branch_lft(s, d)  # validates
