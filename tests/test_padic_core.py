"""Core arithmetic: valuations, digits, truncated numbers, balls, sampling."""

import copy
import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_cf import (
    Ball,
    PadicApprox,
    PrimeCtx,
    PrecisionExhausted,
    DivisionByZeroAtPrecision,
    ProductCylinder,
    digit_expand,
    format_approx,
    format_rational,
    haar_sample,
    integral_part,
    invert_ball,
    measure,
    norm,
    parse_rational,
    valuation,
)
from padic_cf.cfsystems import digit_class
from padic_cf.padic_core import _intval

P2 = PrimeCtx(2)
P3 = PrimeCtx(3)
P5 = PrimeCtx(5)

INF = math.inf


def brute_ord(x: Fraction, p: int):
    """Independent valuation oracle: repeated exact division by p."""
    if x == 0:
        return INF
    v = 0
    while x.denominator % p == 0:
        x *= p
        v -= 1
    while x.numerator % p == 0:
        x /= p
        v += 1
    return v


nonzero_fractions = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=60
).filter(lambda f: f != 0)
any_fractions = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=60
)


class TestPrimeCtx:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 97, 1009, 1759, 2053, 1000003):
            assert PrimeCtx(p).p == p

    def test_rejects_composites(self):
        # 1763 = 41*43 has no factor among the trial bases, and the last five
        # are strong pseudoprimes to the first few bases: only the
        # Miller-Rabin rounds reject them
        for n in (0, 1, 4, 6, 91, -3, 1763, 2047, 1373653, 25326001, 3215031751,
                  3825123056546413051):
            with pytest.raises(ValueError):
                PrimeCtx(n)


class TestValuationAndNorm:
    def test_ord_of_zero_is_infinite(self):
        assert valuation(Fraction(0), P2) == INF
        assert valuation(0, P5) == INF

    def test_ord_examples(self):
        assert valuation(Fraction(9, 2), P3) == 2
        assert valuation(Fraction(2, 3), P2) == 1

    @given(any_fractions, st.sampled_from([2, 3, 5]))
    def test_ord_matches_brute_force(self, x, p):
        assert valuation(x, PrimeCtx(p)) == brute_ord(x, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_intval_matches_the_division_loop(self, p):
        def loop(n):
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            return v

        rng = random.Random(p)
        units = [1, p - 1, p + 1, *(rng.randrange(1, 10**30) for _ in range(20))]
        for e in [*range(12), 63, 64, 65, 3000]:
            for u in units:
                for n in (u * p**e, -u * p**e):
                    assert _intval(n, p) == loop(n), (n, p)

    def test_norm_examples(self):
        assert norm(Fraction(0), P2) == 0
        assert norm(Fraction(2, 3), P2) == Fraction(1, 2)
        assert norm(Fraction(1, 5), P5) == 5

    @given(nonzero_fractions, nonzero_fractions, st.sampled_from([2, 3, 5]))
    def test_ultrametric_inequality(self, x, y, p):
        ctx = PrimeCtx(p)
        nx, ny, ns = norm(x, ctx), norm(y, ctx), norm(x + y, ctx)
        assert ns <= max(nx, ny)
        if nx != ny:
            assert ns == max(nx, ny)


class TestDigitExpand:
    def test_one(self):
        assert digit_expand(Fraction(1), P2, 0, 3) == (1, 0, 0)

    def test_minus_one_is_all_ones(self):
        assert digit_expand(Fraction(-1), P2, 0, 4) == (1, 1, 1, 1)
        # geometric series: sum of 2^n over n < N differs from -1 by 2^N
        total = sum(Fraction(2**n) for n in range(12))
        assert valuation(total - Fraction(-1), P2) == 12

    def test_one_half_base_three(self):
        assert digit_expand(Fraction(1, 2), P3, 0, 3) == (2, 1, 1)

    def test_window_above_leading_digit(self):
        assert digit_expand(Fraction(1), P2, 2, 5) == (0, 0, 0)
        assert digit_expand(Fraction(6), P2, 1, 3) == (1, 1)

    @given(any_fractions, st.sampled_from([2, 3, 5]), st.integers(-4, 4), st.integers(0, 12))
    def test_partial_sums_reconstruct(self, x, p, start, width):
        ctx = PrimeCtx(p)
        stop = start + width
        digits = digit_expand(x, ctx, start, stop)
        assert all(0 <= d < p for d in digits)
        total = sum(
            Fraction(d * p**n) if n >= 0 else Fraction(d, p**-n)
            for d, n in zip(digits, range(start, stop))
        )
        # below `stop` the expansion agrees with x, up to digits below `start`
        diff = x - total
        if diff != 0 and valuation(x, ctx) >= start:
            assert valuation(diff, ctx) >= stop


class TestIntegralFractionalParts:
    def test_minus_one(self):
        assert integral_part(Fraction(-1), P2) == 1
        assert Fraction(-1) - integral_part(Fraction(-1), P2) == -2

    def test_three_halves(self):
        assert integral_part(Fraction(3, 2), P2) == Fraction(3, 2)
        assert Fraction(3, 2) - integral_part(Fraction(3, 2), P2) == 0

    def test_positive_valuation_has_no_integral_part(self):
        for x in (Fraction(2), Fraction(6), Fraction(4, 3)):
            assert integral_part(x, P2) == 0

    @given(any_fractions, st.sampled_from([2, 3, 5]))
    def test_decomposition_identity(self, x, p):
        ctx = PrimeCtx(p)
        i = integral_part(x, ctx)
        # the digit terms of x at positions below 1, from digit_expand
        lo = min(valuation(x, ctx), 1)
        terms = zip(range(lo, 1), digit_expand(x, ctx, lo, 1))
        assert i == sum((d * Fraction(p) ** n for n, d in terms), Fraction(0))
        f = x - i
        assert f == 0 or valuation(f, ctx) >= 1
        assert i == 0 or digit_class(i, p) is not None


class TestApproxArithmetic:
    def test_from_rational_digits(self):
        a = PadicApprox.from_rational(Fraction(2, 3), P2, 10)
        assert a.valuation() == 1
        assert a.abs_prec == 10
        assert a.digits == digit_expand(Fraction(2, 3), P2, 1, 10)

    def test_add_exact_rational_keeps_precision(self):
        a = PadicApprox.from_rational(Fraction(2, 3), P2, 10)
        s = a + Fraction(1, 3)
        assert s.abs_prec == 10
        assert s.valuation() == 0
        assert s.representative() == 1

    def test_inverse_precision_rule(self):
        a = PadicApprox.from_rational(Fraction(12, 5), P2, 11)  # ord 2
        inv = a.inverse()
        assert inv.valuation() == -2
        assert inv.abs_prec == 11 - 4

    def test_multiply_by_p_shifts(self):
        a = PadicApprox.from_rational(Fraction(2, 3), P2, 10)
        b = a * Fraction(2)
        assert b.valuation() == a.valuation() + 1
        assert b.abs_prec == a.abs_prec + 1

    def test_cancellation_gives_zero_at_precision(self):
        a = PadicApprox.from_rational(Fraction(5, 3), P2, 8)
        z = a - a
        assert z.is_zero_at_precision
        assert z.abs_prec == 8
        with pytest.raises(PrecisionExhausted):
            z.valuation()
        with pytest.raises(PrecisionExhausted):
            z.inverse()

    def test_exact_zero_behaviour(self):
        z = PadicApprox.from_rational(0, P2, 5)
        assert z.is_exact_zero
        assert z.valuation() == INF
        assert norm(z.representative(), P2) == 0
        a = PadicApprox.from_rational(Fraction(2), P2, 6)
        assert (z + a) == a
        assert (z * a).is_exact_zero
        assert z + Fraction(1, 3) == Fraction(1, 3)  # exact + exact stays exact
        with pytest.raises(DivisionByZeroAtPrecision):
            z.inverse()

    @given(
        nonzero_fractions,
        nonzero_fractions,
        st.sampled_from([2, 3, 5]),
        st.integers(4, 14),
        st.integers(4, 14),
        st.sampled_from(["add", "sub", "mul", "div"]),
    )
    def test_digit_oracle_consistency(self, x, y, p, n1, n2, op):
        """Arithmetic on truncations agrees with the digits of the exact result."""
        ctx = PrimeCtx(p)
        vx, vy = valuation(x, ctx), valuation(y, ctx)
        ax = PadicApprox.from_rational(x, ctx, vx + n1)
        ay = PadicApprox.from_rational(y, ctx, vy + n2)
        if op == "add":
            exact, approx = x + y, ax + ay
        elif op == "sub":
            exact, approx = x - y, ax - ay
        elif op == "mul":
            exact, approx = x * y, ax * ay
        else:
            exact, approx = x / y, ax / ay
        if approx.is_zero_at_precision:
            assert exact == 0 or valuation(exact, ctx) >= approx.abs_prec
            return
        lo = approx.valuation()
        assert approx.digits == digit_expand(exact, ctx, lo, approx.abs_prec)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_division_with_an_exact_rational(self, p):
        """x / q and q / x for an exact nonzero q are the exact quotients
        truncated at x's precision moved by ord(q), less 2*ord(x) for q / x."""
        ctx = PrimeCtx(p)
        rng = random.Random(p)
        for _ in range(40):
            x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**3))
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(1, 10**3))
            if rng.random() < 0.3:
                q = q.numerator
            vx, vq = valuation(x, ctx), valuation(q, ctx)
            n = vx + rng.randint(1, 12)
            a = PadicApprox.from_rational(x, ctx, n)
            assert a / q == PadicApprox.from_rational(x / q, ctx, n - vq)
            assert q / a == PadicApprox.from_rational(q / x, ctx, n - 2 * vx + vq)
        with pytest.raises(DivisionByZeroAtPrecision):
            a / Fraction(0)

    def test_precision_rules_match_contract(self):
        ctx = P3
        x = PadicApprox.from_rational(Fraction(6, 5), ctx, 9)   # ord 1
        y = PadicApprox.from_rational(Fraction(9, 4), ctx, 7)   # ord 2
        assert (x + y).abs_prec == 7
        assert (x * y).abs_prec == min(9 + 2, 7 + 1)
        assert (x / y).abs_prec == min(9 - 2, (7 - 4) + 1)


class TestBallsAndMeasure:
    def test_canonical_center(self):
        b = Ball(P2, Fraction(10), 3)  # 10 = 2 + 8 reduces to 2 mod 8
        assert b.center == 2
        assert b == Ball(P2, Fraction(2), 3)

    def test_membership(self):
        b = Ball(P2, Fraction(2), 3)
        assert b.contains(Fraction(2))
        assert b.contains(Fraction(10))
        assert not b.contains(Fraction(4))

    def test_membership_of_digit_triples(self):
        # oracle in Fractions: p**lo * unit + O(p**prec) misses the ball when
        # it differs from the centre below min(level, prec), is undecided when
        # it agrees there and prec < level, and is inside otherwise; the unit
        # may be divisible by p and carry digits at or above prec
        rng = random.Random(4)
        seen = set()
        for ctx in (P2, P3, P5):
            p = ctx.p
            for _ in range(300):
                level = rng.randint(1, 5)
                centre = Fraction(rng.randrange(p**6), p ** rng.randint(0, 2)) * p ** rng.randint(0, 3)
                b = Ball(ctx, centre, level)
                lo, prec = rng.randint(-2, 4), rng.randint(-1, 7)
                unit = rng.randrange(p**8)
                diff = Fraction(unit) * Fraction(p) ** lo - b.center
                stop = min(level, prec)
                if diff != 0 and valuation(diff, ctx) < stop:
                    expected = False
                else:
                    expected = True if prec >= level else "exhausted"
                try:
                    outcome = b.contains_digits(lo, unit, prec)
                except PrecisionExhausted:
                    outcome = "exhausted"
                assert outcome is expected
                seen.add(expected)
                assert b.contains_digits(INF, 0, INF) is (b.center == 0)
        assert seen == {True, False, "exhausted"}

    def test_residue_ball_equals_the_fraction_ball(self):
        # every residue z mod p**level, z = 0 included, against the ball that
        # canonicalises Fraction(z); contains_digits on triples that fall
        # inside, outside and short of the level
        rng = random.Random(6)
        for ctx in (P2, P3, P5):
            p = ctx.p
            for level in range(1, 5):
                # distinct residues are distinct balls
                balls = [Ball._from_residue(ctx, z, level) for z in range(p**level)]
                assert len(set(balls)) == p**level
                assert all(a != b for a, b in itertools.combinations(balls, 2))
                for z in range(p**level):
                    got = Ball._from_residue(ctx, z, level)
                    want = Ball(ctx, Fraction(z), level)
                    assert got == want and hash(got) == hash(want)
                    assert str(got) == str(want)
                    assert (got._clo, got._cunit) == (want._clo, want._cunit)
                    assert type(got.center) is Fraction and got.center == want.center
                    assert Ball(ctx, z, level) == want
                    assert got.contains_digits(INF, 0, INF) is want.contains_digits(INF, 0, INF)
                    for _ in range(3):
                        lo, prec = rng.randint(0, 3), rng.randint(0, 6)
                        unit = rng.choice([z, rng.randrange(p**6)])
                        outcomes = []
                        for b in (got, want):
                            try:
                                outcomes.append(b.contains_digits(lo, unit, prec))
                            except PrecisionExhausted:
                                outcomes.append("exhausted")
                        assert outcomes[0] == outcomes[1]

    def test_copies_keep_the_ball(self):
        # the centre is built on its first read; a copy made before or after
        # that read equals the ball, and carries the centre only if it was read
        balls = [
            Ball(P3, Fraction(7, 2), 3),
            Ball(P2, Fraction(-5, 4), 2),
            Ball(P5, 0, 2),
            Ball._from_residue(P5, 10, 3),
        ]
        for ball in balls:
            for read in (False, True):
                if read:
                    ball.center
                for twin in (copy.copy(ball), copy.deepcopy(ball), pickle.loads(pickle.dumps(ball))):
                    assert ("center" in vars(twin)) is read
                    assert twin == ball and hash(twin) == hash(ball)
                    assert twin.center == ball.center and str(twin) == str(ball)

    def test_ball_is_frozen_and_keeps_its_repr(self):
        b = Ball(P2, 10, 3)
        assert repr(b) == "Ball(ctx=PrimeCtx(p=2), center=Fraction(2, 1), level=3)"
        for act in (lambda: setattr(b, "level", 4), lambda: delattr(b, "ctx")):
            with pytest.raises(FrozenInstanceError):
                act()
        assert b != Ball(P2, 2, 4) and b != Ball(P3, 2, 3) and b != "2/1~3"

    def test_measure_examples(self):
        assert measure(Ball(P2, Fraction(0), 1)) == 1
        assert measure(Ball(P3, Fraction(3), 2)) == Fraction(1, 3)
        c = ProductCylinder((Ball(P2, Fraction(0), 2), Ball(P2, Fraction(2), 2)))
        assert measure(c) == Fraction(1, 4)

    def test_cylinder_measure_is_the_product_over_its_balls(self):
        rng = random.Random(8)
        for ctx in (P2, P3, P5):
            for _ in range(40):
                balls = tuple(
                    Ball(ctx, Fraction(rng.randrange(99), rng.randint(1, 9)), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 4))
                )
                product = Fraction(1)
                for b in balls:
                    product *= measure(b)
                assert measure(ProductCylinder(balls)) == product

    def test_invert_ball_unit_case(self):
        out = invert_ball(Ball(P2, Fraction(0), 1), Fraction(1))
        assert out == Ball(P2, Fraction(1), 1)
        # oracle: invert every residue 1 + 2t exactly and check membership
        for t in range(16):
            xi = Fraction(1, 1 + 2 * t)
            assert out.contains(xi)

    def test_invert_ball_negative_valuation_offset(self):
        out = invert_ball(Ball(P3, Fraction(0), 1), Fraction(1, 3))
        assert out == Ball(P3, Fraction(3), 3)

    def test_invert_ball_level_rule(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 4)
            b = Ball(P3, Fraction(3 * rng.randrange(3 ** (n - 1))), n)
            k = rng.randint(0, 3)
            num = rng.choice([1, 2, 4, 5, 7, 8])
            v = Fraction(num, 3**k)
            out = invert_ball(b, v)
            assert out.level == n + 2 * k

    def test_invert_ball_membership_sampling(self):
        rng = random.Random(2)
        b = Ball(P2, Fraction(2), 3)
        v = Fraction(3, 4)
        out = invert_ball(b, v)
        for _ in range(100):
            xi = b.random_element(rng, depth=40)
            assert out.contains(1 / (xi + v))

    def test_invert_ball_rejects_bad_offsets(self):
        b = Ball(P2, Fraction(2), 3)
        with pytest.raises(ValueError):
            invert_ball(b, Fraction(0))
        with pytest.raises(ValueError):
            invert_ball(b, Fraction(2))


class TestHaarSampling:
    def test_determinism(self):
        a = haar_sample(P3, 40, 12345)
        b = haar_sample(P3, 40, 12345)
        assert a == b and a.digits == b.digits

    def test_valuation_at_least_one(self):
        rng = random.Random(0)
        for _ in range(200):
            s = haar_sample(P2, 20, rng)
            assert s.is_zero_at_precision or s.valuation() >= 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_leading_zero_statistics(self, p):
        ctx = PrimeCtx(p)
        rng = random.Random(99)
        m_samples = 20000
        counts = {}
        for _ in range(m_samples):
            s = haar_sample(ctx, 16, rng)
            if not s.is_zero_at_precision:
                counts[s.valuation()] = counts.get(s.valuation(), 0) + 1
        for j in range(1, 5):
            q = (p - 1) / p**j
            got = counts.get(j, 0) / m_samples
            tol = 4 * math.sqrt(q * (1 - q) / m_samples)
            assert abs(got - q) <= tol, (j, got, q)


class TestSerialization:
    def test_rational_round_trip(self):
        assert format_rational(Fraction(-4, 6)) == "-2/3"
        assert parse_rational("-2/3") == Fraction(-2, 3)
        assert parse_rational("7") == 7

    def test_approx_round_trip(self):
        a = PadicApprox.from_rational(Fraction(2, 3), P2, 6)
        # 2/3 = 2 * (1/3) and 1/3 = 11 mod 32, binary 11011 read low-to-high
        assert format_approx(a) == "p=2;ord=1;digits=1,1,0,1,0;prec=6"

    def test_approx_zero_states(self):
        z = PadicApprox.exact_zero(P2)
        assert format_approx(z) == "p=2;ord=inf;digits=;prec=inf"
        zp = PadicApprox(P2, 5, 0, 5)
        assert zp.is_zero_at_precision and zp.abs_prec == 5
        assert format_approx(zp) == "p=2;ord=?;digits=;prec=5"

    def test_ball_round_trip(self):
        b = Ball(P3, Fraction(3), 2)
        assert str(b) == "3/1~2"


class TestRefusals:
    @pytest.mark.parametrize(
        "call,error,match",
        [
            (lambda: Ball(P2, Fraction(2), 0), ValueError, "ball level must be >= 1"),
            (lambda: ProductCylinder(()), ValueError, "cylinder needs at least one ball"),
            (lambda: ProductCylinder((Ball(P2, Fraction(2), 1), Ball(P3, Fraction(3), 1))),
             ValueError, "all balls must share one prime"),
            (lambda: ProductCylinder((Ball(P2, Fraction(2), 1),)).contains(
                (Fraction(2), Fraction(4))), ValueError, "dimension mismatch"),
            (lambda: measure(Fraction(1)), TypeError, "cannot measure Fraction"),
            (lambda: invert_ball(Ball(P2, Fraction(1), 3), Fraction(1)), ValueError,
             r"ball must be contained in p\*Z_p"),
            (lambda: haar_sample(P2, 0, 1), ValueError, "need at least one digit"),
            (lambda: digit_expand(Fraction(1), P2, 3, 2), ValueError, "stop must be >= start"),
            (lambda: PadicApprox.from_rational(Fraction(2), P2, 5)
             + PadicApprox.from_rational(Fraction(3), P3, 5),
             ValueError, "operands must share the same prime"),
        ],
        ids=["ball-level-0", "empty-cylinder", "mixed-primes", "contains-dimension",
             "measure-non-cylinder", "invert-outside-pZp", "sample-no-digits",
             "expand-stop-before-start", "sum-two-primes"],
    )
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
