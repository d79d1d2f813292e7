"""Measure identities, Birkhoff averages, invariance and mixing checks."""

import math
import os
import pickle
import random
import subprocess
import sys
import time
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
    ShardProcessDied,
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

    def test_ruban_p2_closed_form_at_large_bound(self):
        # pivot depth d has 2**d class-d values of iota 2**(2d)
        s = SystemSpec.ruban(P2)
        assert branch_counts(s, 2**2000) == {2 * d: 2**d for d in range(1, 1001)}
        assert iota_sum(s, 2**2000) == 1 - Fraction(1, 2**1000)

    @pytest.mark.parametrize(
        "spec,bound",
        [(SystemSpec.ruban(P2), 2**400), (SystemSpec.multi_dim(P2, 1, 2), 2**60)],
        ids=["ruban-p2", "tl1-p2-m2"],
    )
    def test_branch_counts_carries_its_table(self, monkeypatch, spec, bound):
        # the non-pivot option table grows by one class per pivot depth, so
        # _depth_split runs only in _pivot_classes: twice per depth, the
        # stopping depth included
        from padic_cf import cfsystems

        n_classes = len(cfsystems._pivot_classes(spec, bound))
        calls = []
        depth_split = cfsystems._depth_split

        def counted(*args):
            calls.append(args)
            return depth_split(*args)

        monkeypatch.setattr(cfsystems, "_depth_split", counted)
        counts = branch_counts(spec, bound)
        assert n_classes > 10 and counts
        assert len(calls) <= 2 * (n_classes + 1)

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

    @pytest.mark.parametrize(
        "n_samples,seed,precision,done",
        [(1, 31, None, 0), (3, 15, 2, 1)],
        ids=["0-of-1", "1-of-3"],
    )
    def test_fewer_than_half_completed(self, n_samples, seed, precision, done):
        # 2*done < total raises, also when total is odd or no digit completed
        s = SystemSpec.schneider(P2)
        with pytest.raises(
            InsufficientData, match=f"^only {done} of {n_samples} digit observations completed$"
        ):
            digit_mean_reports(s, n_samples, 1, seed, precision=precision)

    def test_multi_dim_rejected(self):
        with pytest.raises(ValueError):
            digit_mean_reports(SystemSpec.jacobi_perron(P2, 2), 10, 10, seed=0)

    @pytest.mark.parametrize("n_steps", [0, -5])
    def test_step_count_below_one(self, n_steps):
        with pytest.raises(ValueError, match=f"^n_steps must be at least 1, got {n_steps}$"):
            digit_mean_reports(SystemSpec.schneider(P3), 3, n_steps, seed=0)


@pytest.mark.parametrize("n_samples", [0, -5])
@pytest.mark.parametrize("check", ["invariance", "membership", "digit-means"])
def test_sample_count_below_one(check, n_samples):
    c = ProductCylinder((Ball(P2, Fraction(2), 3),))
    run = {
        "invariance": lambda: invariance_mc(SystemSpec.schneider(P2), c, n_samples, seed=1),
        "membership": lambda: membership_mc(SystemSpec.schneider(P2), c, n_samples, seed=1),
        "digit-means": lambda: digit_mean_reports(SystemSpec.schneider(P3), n_samples, 3, seed=1),
    }[check]
    with pytest.raises(ValueError, match=f"^n_samples must be at least 1, got {n_samples}$"):
        run()


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

    @pytest.mark.parametrize(
        "every,done,n_samples",
        [(4, 250, 1000), (2, 500, 1000), (2, 0, 1), (2, 1, 3)],
        ids=["4-250", "2-500", "2-0-of-1", "2-1-of-3"],
    )
    def test_insufficient_data(self, monkeypatch, every, done, n_samples):
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
        if 2 * done < n_samples:
            with pytest.raises(
                InsufficientData, match=f"^only {done} of {n_samples} samples completed$"
            ):
                invariance_mc(s, c, n_samples, seed=8)
        else:
            rep = invariance_mc(s, c, n_samples, seed=8)
            assert (rep.n_samples, rep.n_dropped, rep.estimate) == (500, 500, 1.0)
        assert len(calls) == n_samples

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

        # shard 2 is the caller's own (worker 0 of 2 runs shards 0 and 2)
        with pytest.raises(PrecisionExhausted, match="^shard 2$"):
            _run_sharded(worker, 40, 0, chunk=10, threads=2)

        def not_hyperbolic(job):
            if job[0] == 1:
                raise NotHyperbolicError(3, f"coordinate {job[0]}")
            return job

        # shard 1 is a child's: its error crosses the pipe pickled, and must
        # come back whole
        copy = pickle.loads(pickle.dumps(NotHyperbolicError(3, "coordinate 1")))
        assert copy.condition == 3
        assert str(copy) == "not hyperbolic: condition (iii) failed (coordinate 1)"
        with pytest.raises(NotHyperbolicError, match=r"\(iii\) failed \(coordinate 1\)") as err:
            _run_sharded(not_hyperbolic, 20, 0, chunk=10, threads=2)
        assert err.value.condition == 3

    def test_closure_worker_runs_in_child_processes(self):
        offset = {"seed": 1000}

        def worker(job):
            seed, size = job
            return seed + offset["seed"], size, os.getpid()

        # two workers: the caller runs shards 0 and 2, one child shard 1
        out = _run_sharded(worker, 25, 7, chunk=10, threads=2)
        assert [r[:2] for r in out] == [(1007, 10), (1008, 10), (1009, 5)]
        assert out[0][2] == out[2][2] == os.getpid() != out[1][2]
        # a single shard runs in this process whatever the worker count
        assert _run_sharded(worker, 10, 7, chunk=10, threads=2) == [(1007, 10, os.getpid())]

    def test_dead_worker_process_raises(self):
        # one of three shards ends its process, with a failing status or with
        # status 0 and no payload; the call raises instead of waiting for that
        # shard's result, and names no other cause
        code = (
            "import os\n"
            "from padic_cf import ShardProcessDied\n"
            "from padic_cf.ergodics import _run_sharded\n"
            "for status in (1, 0):\n"
            "    def worker(job):\n"
            "        if job[0] == 1:\n"
            "            os._exit(status)\n"
            "        return job\n"
            "    try:\n"
            "        _run_sharded(worker, 30, 0, chunk=10, threads=2)\n"
            "    except ShardProcessDied as exc:\n"
            "        print(exc.__cause__, exc.__context__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["None None", "None None"]

    @pytest.mark.parametrize(
        "outcome", ["success", "child raises", "caller raises", "child dies"]
    )
    def test_no_child_left_running(self, outcome):
        parent = os.getpid()

        def worker(job):
            in_child = os.getpid() != parent
            if outcome == "child raises" and in_child:
                raise PrecisionExhausted("in a child")
            if outcome == "caller raises":
                if not in_child:
                    raise PrecisionExhausted("in the caller")
                time.sleep(30)  # still running when the caller raises
            if outcome == "child dies" and in_child:
                os._exit(1)
            return job

        errors = {
            "child raises": PrecisionExhausted,
            "caller raises": PrecisionExhausted,
            "child dies": ShardProcessDied,
        }
        start = time.monotonic()
        if outcome == "success":
            assert _run_sharded(worker, 30, 0, chunk=10, threads=2) == [
                (0, 10), (1, 10), (2, 10)
            ]
        else:
            with pytest.raises(errors[outcome]):
                _run_sharded(worker, 30, 0, chunk=10, threads=2)
        assert time.monotonic() - start < 20
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_error_that_does_not_pickle_surfaces(self):
        # an error that cannot cross the pipe, or cannot be rebuilt on the
        # caller's side, still ends the call with an error and no hang
        code = (
            "from padic_cf.ergodics import _run_sharded\n"
            "class Unpicklable(Exception):\n"
            "    def __init__(self):\n"
            "        super().__init__('carries a function')\n"
            "        self.hook = lambda: None\n"
            "class NeedsTwo(Exception):\n"
            "    def __init__(self, a, b):\n"
            "        super().__init__(a)\n"
            "for error in (Unpicklable, lambda: NeedsTwo(1, 2)):\n"
            "    def worker(job):\n"
            "        if job[0] == 1:\n"
            "            raise error()\n"
            "        return job\n"
            "    try:\n"
            "        _run_sharded(worker, 30, 0, chunk=10, threads=2)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        first, second = proc.stdout.splitlines()
        assert first.startswith("ShardProcessDied a shard's outcome does not pickle: ")
        assert second.startswith("TypeError ")

    def test_more_workers_than_shards(self):
        out = _run_sharded(lambda job: job, 15, 4, chunk=10, threads=5)
        assert out == [(4, 10), (5, 5)]

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # n workers make n - 1 forks.  The forks below are faked, so no
        # process starts: a faked child sends nothing, and the call raises
        # ShardProcessDied once it has made every fork.  An uncapped count
        # would make 999 forks for 1,000 shards.
        import padic_cf.ergodics as ergodics

        fake = 10**8  # above any real pid (Linux caps pids at 2**22)
        forks = []
        real_waitpid = os.waitpid

        def fork():
            forks.append(fake + len(forks))
            return forks[-1]

        def waitpid(pid, options):
            return (pid, 0) if pid >= fake else real_waitpid(pid, options)

        def kill(pid, sig):
            assert pid >= fake

        monkeypatch.setattr(ergodics.os, "fork", fork)
        monkeypatch.setattr(ergodics.os, "waitpid", waitpid)
        monkeypatch.setattr(ergodics.os, "kill", kill)
        for cpus, n_jobs, cap in ((64, 1000, 64), (1, 1000, 2), (None, 1000, 2), (64, 3, 3)):
            monkeypatch.setattr(ergodics.os, "cpu_count", lambda: cpus)
            forks.clear()
            with pytest.raises(ShardProcessDied):
                _run_sharded(lambda j: j, n_jobs, 0, chunk=1, threads=10**6)
            assert len(forks) == cap - 1, (cpus, n_jobs)
        monkeypatch.undo()
        # two real forks: workers 1 and 2 of 3 send shards k, k+3, ... back,
        # and the caller puts all 8 in shard order
        monkeypatch.setattr(ergodics.os, "cpu_count", lambda: 3)
        out = _run_sharded(lambda j: (j, os.getpid()), 8, 0, chunk=1, threads=10**6)
        assert [r[0] for r in out] == [(j, 1) for j in range(8)]
        pids = [r[1] for r in out]
        assert pids[0::3] == [os.getpid()] * 3
        assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
        assert len(set(pids)) == 3

    def test_import_loads_no_pool_module(self):
        # nor does a parallel run: the fan-out forks directly
        code = (
            "import sys, padic_cf, padic_cf.cli\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.partition('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "print(pools())\n"
            "from padic_cf.ergodics import _run_sharded\n"
            "assert _run_sharded(lambda job: job, 20, 0, chunk=10, threads=2) == [(0, 10), (1, 10)]\n"
            "print(pools())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]


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
