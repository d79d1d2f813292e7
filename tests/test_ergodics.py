"""Measure identities, Birkhoff averages, invariance and mixing checks."""

import math
import random
from fractions import Fraction

import pytest

from padic_cf import (
    Ball,
    Digit1D,
    IncompatibleWords,
    InsufficientData,
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
from padic_cf.ergodics import StatReport

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
                    from padic_cf import certify_hyperbolic

                    cert = certify_hyperbolic(f)
                    for piece in preimage_cylinder(f, c, cert):
                        total += measure(piece)
                assert total == measure(c) * s_mass


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


class TestConditionalDensity:
    def test_full_space_base(self):
        s = SystemSpec.schneider(P2)
        A = SymbolicCylinder(s, ())
        X = SymbolicCylinder(s, (Digit1D(2, Fraction(1)),))
        pre, plain = __import__("padic_cf").conditional_density_check(A, X, Digit1D(1, Fraction(1)))
        assert plain == cylinder_measure(X)
        assert pre == plain

    def test_ratio_invariant_under_prepending(self):
        s = SystemSpec.schneider(P2)
        from padic_cf import conditional_density_check

        A = SymbolicCylinder(s, (Digit1D(1, Fraction(1)),))
        X = SymbolicCylinder(s, A.word + (Digit1D(3, Fraction(1)),))
        base = None
        for k in range(1, 11):
            letter = Digit1D(k, Fraction(1))
            pre, plain = conditional_density_check(A, X, letter)
            assert pre == plain
            base = plain if base is None else base
            assert plain == base

    def test_incompatible_words(self):
        from padic_cf import conditional_density_check

        s = SystemSpec.schneider(P2)
        A = SymbolicCylinder(s, (Digit1D(1, Fraction(1)),))
        X = SymbolicCylinder(s, (Digit1D(2, Fraction(1)),))
        with pytest.raises(IncompatibleWords):
            conditional_density_check(A, X, Digit1D(1, Fraction(1)))


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

    def test_stat_report_serialization(self):
        rep = StatReport(0.5, 0.01, 100, 2, Fraction(1, 2), seed=7)
        obj = rep.to_obj()
        assert obj["theoretical"] == 0.5 and obj["seed"] == 7

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
