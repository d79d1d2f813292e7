"""Algorithm families: steps, digits, branches, expansions, convergents."""

import math
import random
from fractions import Fraction

import pytest

from padic_cf import (
    Digit1D,
    DigitMD,
    ExpansionTerminated,
    InvalidDigit,
    PadicApprox,
    PrecisionExhausted,
    PrimeCtx,
    SystemSpec,
    apply_forward,
    branch_lft,
    convergent,
    convergents,
    digit_class,
    digit_functionals,
    digit_values,
    enumerate_branches,
    expand,
    haar_sample,
    haar_sample_vector,
    integral_part,
    iota,
    is_hyperbolic,
    pivot_valuation,
    step,
    valuation,
)
from padic_cf.cfsystems import (
    EXHAUSTED,
    RUNNING,
    TERMINATED,
    digit_from_obj,
    digit_to_obj,
    expansion_records,
)

P2 = PrimeCtx(2)
P3 = PrimeCtx(3)
INF = math.inf


def random_phase_point(rng, ctx, m):
    coords = []
    for _ in range(m):
        e = rng.randint(1, 3)
        while True:
            num, den = rng.randint(1, 40), rng.randint(1, 40)
            if num % ctx.p and den % ctx.p:
                break
        coords.append(Fraction(num * ctx.p**e, den))
    return tuple(coords)


class TestDigitClasses:
    def test_class_zero(self):
        assert digit_class(Fraction(1), 3) == 0
        assert digit_class(Fraction(2), 3) == 0
        assert digit_class(Fraction(3), 3) is None

    def test_deeper_classes(self):
        assert digit_class(Fraction(3, 2), 2) == 1
        assert digit_class(Fraction(1, 4), 2) == 2
        assert digit_class(Fraction(5, 4), 2) == 2
        assert digit_class(Fraction(-1, 2), 2) is None
        assert digit_class(Fraction(9, 4), 2) is None  # 9/4 >= 2^(2+1)/2^2... too big

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 3), (3, 0), (3, 2), (5, 1)])
    def test_value_counts(self, p, n):
        vals = list(digit_values(p, n))
        assert len(vals) == (p - 1) * p**n
        assert len(set(vals)) == len(vals)
        assert all(digit_class(v, p) == n for v in vals)


class TestOneDimStep:
    def test_schneider_two_thirds(self):
        s = SystemSpec.schneider(P2)
        d, nxt = step(s, Fraction(2, 3))
        assert d == Digit1D(1, Fraction(1)) and nxt == 2
        d, nxt = step(s, nxt)
        assert d == Digit1D(1, Fraction(1)) and nxt == 0
        with pytest.raises(ExpansionTerminated):
            step(s, nxt)

    def test_ruban_two_thirds(self):
        s = SystemSpec.ruban(P2)
        d, nxt = step(s, Fraction(2, 3))
        assert d == Digit1D(0, Fraction(3, 2)) and nxt == 0

    def test_rejects_points_outside_phase_space(self):
        s = SystemSpec.schneider(P2)
        with pytest.raises(ValueError):
            step(s, Fraction(1, 3))

    def test_rejects_approximations_outside_phase_space(self):
        # known to no digit, or with a digit at position -1: not in p*Z_p
        s = SystemSpec.schneider(P2)
        for x in (PadicApprox(P2, 0, 0, 0), PadicApprox(P2, -1, 1, 0), PadicApprox(P2, 0, 1, 3)):
            with pytest.raises(ValueError, match="p\\*Z_p"):
                step(s, x)
            with pytest.raises(ValueError, match="p\\*Z_p"):
                step(SystemSpec.jacobi_perron(P2, 2), (Fraction(2), x))

    def test_digit_invariants_on_samples(self):
        rng = random.Random(5)
        for spec in (
            SystemSpec.schneider(P3),
            SystemSpec.ruban(P3),
            SystemSpec.one_dim(P3, 2),
        ):
            for _ in range(50):
                x = haar_sample(P3, 60, rng)
                d, _ = step(spec, x)
                if d.k > 0:
                    assert spec.ell != INF and digit_class(d.v, 3) == spec.ell
                else:
                    cls = digit_class(d.v, 3)
                    assert cls is not None and cls >= 1
                    if spec.ell != INF:
                        assert cls <= spec.ell


class TestMultiDimStep:
    def test_jacobi_perron_formula(self):
        # two generic coordinates; compare against the literal formula
        s = SystemSpec.jacobi_perron(P2, 2)
        x = (Fraction(2, 3), Fraction(2, 5))
        d, nxt = step(s, x)
        w1 = x[1] / x[0]
        w2 = 1 / x[0]
        expected = (w1 - integral_part(w1, P2), w2 - integral_part(w2, P2))
        assert nxt == expected
        assert d.pexp == (0, 0)
        assert d.qvec == (integral_part(w1, P2), integral_part(w2, P2))

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_zero_at_precision_coordinate_exhausts(self, ell):
        # x_2 is only known to be 0 mod 2^a, so at pivot depth d1 > a + ell
        # its exponent max(d1 - ord(x_2) - ell, 0) is not determined
        s = SystemSpec.multi_dim(P2, ell, 2)
        for a in (1, 2, 3):
            x2 = PadicApprox(P2, a, 0, a)
            assert x2.is_zero_at_precision
            for d1 in range(a + ell + 1, a + ell + 4):
                x1 = PadicApprox.from_rational(3 * 2**d1, P2, 40)
                with pytest.raises(PrecisionExhausted):
                    step(s, (x1, x2))

    def test_branch_matches_step(self):
        rng = random.Random(9)
        for spec in (
            SystemSpec.jacobi_perron(P2, 2),
            SystemSpec.jacobi_perron(P3, 3),
            SystemSpec.multi_dim(P2, 1, 2),
            SystemSpec.multi_dim(P3, 0, 2),
        ):
            for _ in range(40):
                x = random_phase_point(rng, spec.ctx, spec.m)
                try:
                    d, nxt = step(spec, x)
                except ExpansionTerminated:
                    continue
                f = branch_lft(spec, d)
                assert is_hyperbolic(f)
                assert apply_forward(f, x) == nxt

    def test_exact_coordinates_beside_approximations(self):
        # a nonzero exact coordinate that is not the pivot steps as it does in
        # the PadicApprox arithmetic of the emitted branch, and the term of an
        # exact zero stays Fraction(0)
        rng = random.Random(31)
        checked = 0
        for spec in (SystemSpec.jacobi_perron(P2, 2), SystemSpec.multi_dim(P3, 1, 3)):
            for j in range(40):
                x = list(haar_sample_vector(spec.ctx, spec.m, 40, rng))
                x[-1] = Fraction(0) if j % 4 == 0 else random_phase_point(rng, spec.ctx, 1)[0]
                try:
                    d, nxt = step(spec, tuple(x))
                except PrecisionExhausted:
                    continue
                assert apply_forward(branch_lft(spec, d), tuple(x)) == nxt
                if x[-1] == 0:
                    assert nxt[spec.sigma.index(spec.m)] == 0
                checked += 1
        assert checked > 60

    def test_exact_pivot_beside_approximations(self):
        # the terms of an exact pivot's own slot are split exactly: 1/(2/3)
        # = 3/2 leaves Fraction(0) in Jacobi-Perron, which becomes the pivot
        # at step 2 and ends the orbit, and 1/(6/5) leaves -2/3 in Brun; read
        # as approximations they would run out of precision sooner
        rng = random.Random(37)
        jp = SystemSpec.jacobi_perron(P2, 2)
        for _ in range(10):
            x = (Fraction(2, 3), haar_sample(P2, 40, rng))
            d, nxt = step(jp, x)
            assert d.qvec[1] == Fraction(3, 2) and type(nxt[1]) is Fraction and nxt[1] == 0
            exp = expand(jp, x, 30)
            assert (exp.status, exp.stopped_at) == (TERMINATED, 2)
        brun = SystemSpec.brun(P2, 2)
        x = (Fraction(6, 5), PadicApprox(P2, 3, 0b101101, 9))
        d, nxt = step(brun, x)
        assert d.qvec[0] == Fraction(3, 2) and type(nxt[0]) is Fraction and nxt[0] == Fraction(-2, 3)
        exp = expand(brun, x, 30)
        assert (exp.status, exp.stopped_at) == (EXHAUSTED, 8)

    def test_branch_parameters_recomputed_independently(self):
        # inline re-derivation of the parameter vectors from the definition
        rng = random.Random(29)
        spec = SystemSpec.multi_dim(P3, 1, 3)
        for _ in range(40):
            x = random_phase_point(rng, P3, 3)
            d, _ = step(spec, x)
            d1 = valuation(x[0], P3)
            pexp = []
            qvec = []
            for k in range(1, 4):
                if k == 3:
                    r = max(d1 - spec.ell, 0)
                    arg = Fraction(3**r) / x[0]
                else:
                    r = max(d1 - valuation(x[k], P3) - spec.ell, 0)
                    arg = Fraction(3**r) * x[k] / x[0]
                pexp.append(r)
                qvec.append(integral_part(arg, P3))
            assert d == DigitMD(tuple(pexp), tuple(qvec), 1)

    def test_one_dim_consistency(self):
        rng = random.Random(10)
        for ell in (0, 1, INF):
            md = SystemSpec.multi_dim(P3, ell, 1)
            od = SystemSpec.one_dim(P3, ell)
            for _ in range(25):
                x = haar_sample(P3, 80, rng)
                dm, nm = step(md, (x,))
                do, no = step(od, x)
                assert dm.pexp == (do.k,)
                assert dm.qvec == (do.v,)
                assert nm[0] == no

    @pytest.mark.parametrize(
        "spec",
        [SystemSpec.multi_dim(P3, 1, 1), SystemSpec.jacobi_perron(P2, 1), SystemSpec.brun(P3, 1)],
        ids=["tlm-l1-m1", "jp-m1", "brun-m1"],
    )
    def test_m1_scalar_point_keeps_its_shape(self, spec):
        rng = random.Random(13)
        for _ in range(20):
            x = haar_sample(spec.ctx, 60, rng)
            d, nxt = step(spec, x)
            assert isinstance(nxt, PadicApprox)
            assert step(spec, (x,)) == (d, (nxt,))
            assert step(spec, [x]) == (d, (nxt,))
        d, nxt = step(spec, Fraction(2 * spec.ctx.p, 5))
        assert isinstance(nxt, Fraction)

    def test_scalar_point_needs_m1(self):
        with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
            step(SystemSpec.jacobi_perron(P2, 2), Fraction(2, 3))

    def test_pivot_valuation_matches_point(self):
        rng = random.Random(12)
        for spec in (
            SystemSpec.schneider(P3),
            SystemSpec.ruban(P2),
            SystemSpec.jacobi_perron(P2, 2),
            SystemSpec.brun(P3, 2),
        ):
            for _ in range(30):
                x = random_phase_point(rng, spec.ctx, spec.m)
                try:
                    d, _ = step(spec, x if spec.m > 1 else x[0])
                except ExpansionTerminated:
                    continue
                if spec.kind == "brun":
                    expected = min(valuation(c, spec.ctx) for c in x)
                else:
                    expected = valuation(x[0], spec.ctx)
                assert pivot_valuation(spec, d) == expected


class TestBrun:
    def test_pivot_is_max_norm_coordinate(self):
        s = SystemSpec.brun(P2, 2)
        d, nxt = step(s, (Fraction(4, 3), Fraction(2, 3)))
        assert d.pivot == 2
        assert d.qvec == (Fraction(0), Fraction(3, 2))
        assert nxt == (Fraction(2), Fraction(0))

    def test_undetermined_tie_exhausts(self):
        # x_1 is known only to be 0 mod 2^2, so its valuation may tie x_2's,
        # and the first coordinate of least valuation would then be x_1
        s = SystemSpec.brun(P2, 2)
        x2 = PadicApprox.from_rational(Fraction(4, 3), P2, 20)
        with pytest.raises(PrecisionExhausted):
            step(s, (PadicApprox(P2, 2, 0, 2), x2))
        d, _ = step(s, (PadicApprox(P2, 3, 0, 3), x2))
        assert d.pivot == 2

    def test_branches_hyperbolic_and_match(self):
        rng = random.Random(21)
        s = SystemSpec.brun(P3, 3)
        for _ in range(60):
            x = random_phase_point(rng, P3, 3)
            d, nxt = step(s, x)
            f = branch_lft(s, d)
            assert is_hyperbolic(f)
            assert apply_forward(f, x) == nxt

    def test_word_round_trip(self):
        rng = random.Random(22)
        s = SystemSpec.brun(P2, 2)
        for _ in range(20):
            x = random_phase_point(rng, P2, 2)
            e = expand(s, x, 4)
            if len(e.digits) < 2:
                continue
            pt = convergent(s, e.digits)
            back = expand(s, pt, len(e.digits) + 2)
            assert back.status == TERMINATED
            assert back.digits == e.digits


class TestExpandAndConvergents:
    def test_schneider_terminating(self):
        s = SystemSpec.schneider(P2)
        e = expand(s, Fraction(2, 3), 10)
        assert [(d.k, d.v) for d in e.digits] == [(1, 1), (1, 1)]
        assert e.status == TERMINATED and e.stopped_at == 2

    def test_zero_terminates_immediately(self):
        s = SystemSpec.schneider(P2)
        e = expand(s, Fraction(0), 5)
        assert e.status == TERMINATED and e.stopped_at == 0 and e.digits == ()

    def test_running_status(self):
        s = SystemSpec.ruban(P2)
        e = expand(s, haar_sample(P2, 200, 3), 5)
        assert e.status == RUNNING and len(e.digits) == 5

    def test_precision_exhaustion_step_count(self):
        # consumption per step is 2*ord, mean 2p/(p-1) = 3 for p = 3
        s = SystemSpec.ruban(P3)
        n = 400
        e = expand(s, haar_sample(P3, n, 7), 10**9)
        assert e.status == EXHAUSTED
        assert len(e.digits) >= n // 3

    def test_convergent_examples(self):
        s = SystemSpec.schneider(P2)
        assert convergent(s, [Digit1D(1, Fraction(1))]) == 2
        assert convergent(s, [Digit1D(1, Fraction(1))] * 2) == Fraction(2, 3)
        r = SystemSpec.ruban(P2)
        assert convergent(r, [Digit1D(0, Fraction(3, 2))]) == Fraction(2, 3)

    def test_convergents_lie_in_phase_space(self):
        rng = random.Random(31)
        s = SystemSpec.jacobi_perron(P3, 2)
        for _ in range(10):
            x = haar_sample_vector(P3, 2, 120, rng)
            e = expand(s, x, 6)
            for j in range(1, len(e.digits) + 1):
                vec = convergent(s, e.digits[:j])
                assert all(c == 0 or valuation(c, P3) >= 1 for c in vec)

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda ctx: SystemSpec.schneider(ctx),
            lambda ctx: SystemSpec.ruban(ctx),
            lambda ctx: SystemSpec.one_dim(ctx, 1),
        ],
    )
    def test_word_round_trip_one_dim(self, make_spec):
        rng = random.Random(33)
        for ctx in (P2, P3):
            spec = make_spec(ctx)
            branches = enumerate_branches(spec, ctx.p**5)
            for _ in range(15):
                word = tuple(rng.choice(branches)[0] for _ in range(rng.randint(1, 5)))
                pt = convergent(spec, word)
                back = expand(spec, pt, len(word) + 3)
                assert back.status == TERMINATED
                assert back.digits == word

    def test_word_round_trip_multi_dim(self):
        rng = random.Random(34)
        for spec in (SystemSpec.jacobi_perron(P2, 2), SystemSpec.multi_dim(P3, 1, 2)):
            branches = enumerate_branches(spec, spec.ctx.p**6)
            for _ in range(15):
                word = tuple(rng.choice(branches)[0] for _ in range(rng.randint(1, 4)))
                pt = convergent(spec, word)
                back = expand(spec, pt, len(word) + 3)
                assert back.status == TERMINATED
                assert back.digits == word


class TestEnumerateBranches:
    def test_schneider_small_bounds(self):
        s = SystemSpec.schneider(P2)
        assert [(d.k, d.v) for d, _ in enumerate_branches(s, 8)] == [
            (1, Fraction(1)),
            (2, Fraction(1)),
            (3, Fraction(1)),
        ]
        s3 = SystemSpec.schneider(P3)
        bs = enumerate_branches(s3, 3)
        assert [(d.k, d.v) for d, _ in bs] == [(1, Fraction(1)), (1, Fraction(2))]
        assert sum((1 / iota(f) for _, f in bs), Fraction(0)) == Fraction(2, 3)

    def test_branches_unique_and_bounded(self):
        for spec, bound in (
            (SystemSpec.ruban(P2), 2**8),
            (SystemSpec.one_dim(P3, 1), 3**6),
            (SystemSpec.jacobi_perron(P2, 2), 2**6),
            (SystemSpec.multi_dim(P2, 0, 2), 2**6),
        ):
            bs = enumerate_branches(spec, bound)
            digits = [d for d, _ in bs]
            assert len(set(digits)) == len(digits)
            assert all(iota(f) <= bound for _, f in bs)
            for d, f in bs:
                assert is_hyperbolic(f)
                assert branch_lft(spec, d) == f

    def test_partial_sums_increase_toward_one(self):
        s = SystemSpec.ruban(P2)
        sums = []
        for bound in (2**2, 2**4, 2**8, 2**12):
            bs = enumerate_branches(s, bound)
            sums.append(sum((1 / iota(f) for _, f in bs), Fraction(0)))
        assert sums == sorted(sums)
        assert all(x < 1 for x in sums)
        assert 1 - sums[-1] == Fraction(1, 2**6)

    def test_emitted_digits_appear_in_enumeration(self):
        rng = random.Random(41)
        spec = SystemSpec.jacobi_perron(P2, 2)
        small = {d for d, _ in enumerate_branches(spec, 2**9)}
        hits = 0
        for _ in range(40):
            x = haar_sample_vector(P2, 2, 60, rng)
            d, _ = step(spec, x)
            if iota(branch_lft(spec, d)) <= 2**9:
                assert d in small
                hits += 1
        assert hits > 10

    def test_brun_not_enumerable(self):
        with pytest.raises(NotImplementedError):
            enumerate_branches(SystemSpec.brun(P2, 2), 100)


class TestPartitionProperty:
    def _forward_in_phase_space(self, f, x):
        y = apply_forward(f, (x,))[0]
        if isinstance(y, Fraction):
            return y == 0 or valuation(y, f.ctx) >= 1
        if y.is_exact_zero or y.is_zero_at_precision:
            return True
        return y.valuation() >= 1

    @pytest.mark.parametrize("p,ell", [(2, 0), (3, 0), (2, INF), (3, 1)])
    def test_emitted_digit_is_the_unique_branch(self, p, ell):
        ctx = PrimeCtx(p)
        spec = SystemSpec.one_dim(ctx, ell)
        rng = random.Random(43)
        from padic_cf import LftParams

        for _ in range(40):
            x = haar_sample(ctx, 60, rng)
            d, _ = step(spec, x)
            f = branch_lft(spec, d)
            assert self._forward_in_phase_space(f, x)
            # shifting the power spoils membership
            for k2 in (d.k - 1, d.k + 1):
                if k2 < 0:
                    continue
                g = LftParams(ctx, 1, 1, (1,), (Fraction(p**k2),), (d.v,))
                assert not self._forward_in_phase_space(g, x)
            # and so does any other value in the same digit class
            cls = digit_class(d.v, p)
            others = [v for v in digit_values(p, cls) if v != d.v][:6]
            for v2 in others:
                g = LftParams(ctx, 1, 1, (1,), (Fraction(p**d.k),), (v2,))
                assert not self._forward_in_phase_space(g, x)


class TestDigitValidation:
    def test_ruban_rejects_positive_k(self):
        with pytest.raises(InvalidDigit):
            branch_lft(SystemSpec.ruban(P2), Digit1D(1, Fraction(1)))
        with pytest.raises(InvalidDigit):
            pivot_valuation(SystemSpec.ruban(P2), Digit1D(1, Fraction(1)))

    def test_schneider_rejects_k_zero(self):
        with pytest.raises(InvalidDigit):
            branch_lft(SystemSpec.schneider(P2), Digit1D(0, Fraction(3, 2)))

    def test_class_mismatch(self):
        with pytest.raises(InvalidDigit):
            branch_lft(SystemSpec.one_dim(P2, 1), Digit1D(2, Fraction(1)))
        with pytest.raises(InvalidDigit):
            branch_lft(SystemSpec.one_dim(P2, 1), Digit1D(0, Fraction(1, 4)))

    def test_multi_dim_depth_constraint(self):
        spec = SystemSpec.jacobi_perron(P2, 2)
        # non-pivot class must stay below the pivot class
        with pytest.raises(InvalidDigit):
            branch_lft(spec, DigitMD((0, 0), (Fraction(3, 2), Fraction(1, 2)), 1))

    def test_brun_pivot_ordering(self):
        spec = SystemSpec.brun(P2, 2)
        with pytest.raises(InvalidDigit):
            branch_lft(spec, DigitMD((0, 0), (Fraction(1), Fraction(3, 2)), 2))

    def test_digit_kind_must_match_the_system(self):
        with pytest.raises(InvalidDigit):
            branch_lft(SystemSpec.jacobi_perron(P2, 1), Digit1D(0, Fraction(3, 2)))
        with pytest.raises(InvalidDigit):
            branch_lft(SystemSpec.ruban(P2), DigitMD((0,), (Fraction(3, 2),), 1))
        with pytest.raises(InvalidDigit):
            pivot_valuation(SystemSpec.brun(P2, 1), Digit1D(0, Fraction(3, 2)))

    def test_brun_pivot_valuation_validates(self):
        spec = SystemSpec.brun(P2, 2)
        assert pivot_valuation(spec, DigitMD((0, 0), (Fraction(0), Fraction(3, 2)), 2)) == 1
        with pytest.raises(InvalidDigit):
            pivot_valuation(spec, DigitMD((0, 0), (Fraction(1), Fraction(3, 2)), 2))

    def test_functionals(self):
        assert digit_functionals(Digit1D(1, Fraction(1))) == (Fraction(1), 1)
        assert digit_functionals(Digit1D(0, Fraction(3, 2))) == (Fraction(3, 2), 0)


class TestSerialization:
    def test_digit_round_trip(self):
        d1 = Digit1D(2, Fraction(5, 4))
        assert digit_from_obj(digit_to_obj(d1)) == d1
        dm = DigitMD((1, 0), (Fraction(1), Fraction(3, 2)), 2)
        assert digit_from_obj(digit_to_obj(dm)) == dm

    def test_expansion_records(self):
        s = SystemSpec.schneider(P2)
        e = expand(s, Fraction(2, 3), 10)
        recs = list(expansion_records(s, e))
        assert recs[0] == {"j": 0, "digit": {"k": 1, "v": "1/1"}, "ord_consumed": 1}
        assert len(recs) == 2


class TestConvergentsGenerator:
    """The carried-matrix generator against the per-prefix reference."""

    @pytest.mark.parametrize(
        "spec",
        [
            SystemSpec.schneider(P2),
            SystemSpec.ruban(P3),
            SystemSpec.one_dim(P3, 1),
            SystemSpec.multi_dim(P3, 1, 3),
            SystemSpec.jacobi_perron(P2, 2),
            SystemSpec.brun(P3, 2),
        ],
        ids=["schneider", "ruban", "t1", "tlm-l1-m3", "jp-m2", "brun-m2"],
    )
    def test_matches_per_prefix_convergent(self, spec):
        rng = random.Random(41)
        pivots = set()
        for _ in range(4):
            xs = haar_sample_vector(spec.ctx, spec.m, 120, rng)
            e = expand(spec, xs if spec.m > 1 else xs[0], 10**9)
            assert len(e.digits) >= 10
            reference = [convergent(spec, e.digits[:j]) for j in range(1, len(e.digits) + 1)]
            assert list(convergents(spec, e.digits)) == reference
            pivots.update(getattr(d, "pivot", 1) for d in e.digits)
        if spec.kind == "brun":
            assert pivots - {1}, "no Brun digit pivoted off coordinate 1"

    def test_empty_word(self):
        assert list(convergents(SystemSpec.schneider(P2), ())) == []

    def test_invalid_digit_yields_prefix_then_raises(self):
        spec = SystemSpec.ruban(P2)
        e = expand(spec, haar_sample(P2, 120, 5), 6)
        k = 3
        word = e.digits[:k] + (Digit1D(1, Fraction(1)),) + e.digits[k:]
        rows = []
        with pytest.raises(InvalidDigit):
            for row in convergents(spec, word):
                rows.append(row)
        assert rows == [convergent(spec, word[:j]) for j in range(1, k + 1)]
