"""Core arithmetic: valuations, digits, truncated numbers, balls, sampling."""

import math
import random
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
    format_ball,
    format_rational,
    fractional_part,
    haar_sample,
    integral_part,
    invert_ball,
    measure,
    norm,
    parse_approx,
    parse_ball,
    parse_rational,
    residue,
    valuation,
)
from padic_cf.cfsystems import digit_class

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
        for p in (2, 3, 5, 7, 97, 1009):
            assert PrimeCtx(p).p == p

    def test_rejects_composites(self):
        for n in (0, 1, 4, 6, 91, -3):
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


class TestResidue:
    def test_examples(self):
        assert residue(Fraction(3), P2) == 1
        assert residue(Fraction(1, 2), P3) == 2

    def test_zero_for_positive_valuation(self):
        for u in (Fraction(3), Fraction(1, 3), Fraction(-5)):
            assert residue(2 * u, P2) == 0


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
        assert fractional_part(Fraction(-1), P2) == -2

    def test_three_halves(self):
        assert integral_part(Fraction(3, 2), P2) == Fraction(3, 2)
        assert fractional_part(Fraction(3, 2), P2) == 0

    def test_positive_valuation_has_no_integral_part(self):
        for x in (Fraction(2), Fraction(6), Fraction(4, 3)):
            assert integral_part(x, P2) == 0

    @given(any_fractions, st.sampled_from([2, 3, 5]))
    def test_decomposition_identity(self, x, p):
        ctx = PrimeCtx(p)
        i = integral_part(x, ctx)
        f = fractional_part(x, ctx)
        assert i + f == x
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
        assert norm(z) == 0
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

    def test_measure_examples(self):
        assert measure(Ball(P2, Fraction(0), 1)) == 1
        assert measure(Ball(P3, Fraction(3), 2)) == Fraction(1, 3)
        c = ProductCylinder((Ball(P2, Fraction(0), 2), Ball(P2, Fraction(2), 2)))
        assert measure(c) == Fraction(1, 4)

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
        assert parse_approx(format_approx(a)) == a

    def test_approx_zero_states(self):
        z = PadicApprox.exact_zero(P2)
        assert parse_approx(format_approx(z)).is_exact_zero
        zp = PadicApprox(P2, 5, 0, 5)
        s = format_approx(zp)
        back = parse_approx(s)
        assert back.is_zero_at_precision and back.abs_prec == 5

    def test_ball_round_trip(self):
        b = Ball(P3, Fraction(3), 2)
        assert format_ball(b) == "3/1~2"
        assert parse_ball("3/1~2", P3) == b
