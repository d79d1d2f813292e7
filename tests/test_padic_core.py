"""Core arithmetic: valuations, digits, truncated numbers, balls, sampling."""

import collections
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
    format_rational,
    haar_sample,
    haar_sample_vector,
    integral_part,
    measure,
    norm,
    parse_rational,
    valuation,
)
from padic_cf import padic_core
from padic_cf.cfsystems import digit_class
from padic_cf.padic_core import _digit_form, _intval
from reference import format_approx

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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_valuation_matches_the_division_loop(self, p):
        # ints and Fractions of either sign, zero and sizes up to p**3000:
        # the zero test reads the numerator, never Fraction's comparison
        ctx = PrimeCtx(p)
        assert valuation(0, ctx) == valuation(Fraction(0), ctx) == valuation(False, ctx) == INF
        rng = random.Random(25 + p)
        units = [1, p - 1, p + 1, *(rng.randrange(1, 10**30) for _ in range(6))]
        units = [u for u in units if u % p]
        for e in (0, 1, 2, 7, 64, 3000):
            for u in units:
                for sign in (1, -1):
                    n = sign * u * p**e
                    assert valuation(n, ctx) == brute_ord(Fraction(n), p) == e
                    for d in (units[-1], p ** (e + 1) * units[-1]):
                        x = Fraction(n, d)
                        assert valuation(x, ctx) == brute_ord(x, p), (x, p)

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


    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_split_at_one_of_an_approximation(self, p):
        """PadicApprox._split_at_one is (integral_part, the rest) of the
        known digits: the rest keeps every digit at positions >= 1 and the
        precision."""
        ctx, rng = PrimeCtx(p), random.Random(p)
        for _ in range(200):
            lo = rng.randrange(-6, 6)
            prec = rng.randrange(max(lo, 0) + 1, max(lo, 0) + 16)
            x = PadicApprox(ctx, lo, rng.randrange(p ** (prec - lo)), prec)
            rep = x.representative()
            head, rest = x._split_at_one()
            assert head == integral_part(rep, ctx)
            assert rest.abs_prec == prec and rest.representative() == rep - head
            assert digit_expand(rest.representative(), ctx, 1, prec) == (
                digit_expand(rep, ctx, 1, prec)
            )
            assert rest.is_zero_at_precision or rest.valuation() >= 1
        zero = PadicApprox.exact_zero(ctx)
        assert zero._split_at_one() == (0, zero)

    @pytest.mark.parametrize("lo,prec", [(-3, 0), (-1, -1), (0, 0)])
    def test_split_at_one_needs_position_zero(self, lo, prec):
        with pytest.raises(PrecisionExhausted):
            PadicApprox(P3, lo, 2, prec)._split_at_one()

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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_nonzero_at_infinite_precision_is_refused(self, p):
        # only the exact zero has abs_prec = inf; a nonzero unit there would
        # read as the exact zero with a float unit
        ctx = PrimeCtx(p)
        for unit in (1, p - 1, -1, p + 1, 10**40 + 1):
            for lo in (-2, 0, 1):
                with pytest.raises(ValueError, match="finite abs_prec, got inf"):
                    PadicApprox(ctx, lo, unit, INF)
        for x in (1, -1, Fraction(1, p), Fraction(-p * p, 7), Fraction(p**50 + 1, p + 1)):
            with pytest.raises(ValueError, match="finite abs_prec, got inf"):
                PadicApprox.from_rational(x, ctx, INF)
        zero = PadicApprox.exact_zero(ctx)
        assert zero.is_exact_zero and zero.valuation() == INF
        assert PadicApprox.from_rational(0, ctx, INF) == zero == PadicApprox(ctx, 3, 0, INF)

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


class TestDigitForm:
    """padic_core._digit_form, the one reader of a value into the digit form
    (ord, unit, abs_prec, den): x == p**ord * unit / den mod p**abs_prec."""

    def test_exact_values(self):
        assert _digit_form(12, 2) == (2, 3, INF, 1)
        assert _digit_form(True, 3) == (0, 1, INF, 1)
        # p in the denominator: a negative ord, the powers of p taken out of den
        assert _digit_form(Fraction(-5, 12), 2) == (-2, -5, INF, 3)
        assert _digit_form(Fraction(7, 75), 5) == (-2, 7, INF, 3)

    def test_the_same_value_at_another_prime(self):
        x = Fraction(9, 10)
        assert _digit_form(x, 3) == (2, 1, INF, 10)
        assert _digit_form(x, 2) == (-1, 9, INF, 5)
        assert _digit_form(x, 5) == (-1, 9, INF, 2)
        assert _digit_form(x, 7) == (0, 9, INF, 10)

    @given(nonzero_fractions, st.sampled_from([2, 3, 5, 7]))
    def test_exact_forms_against_the_valuation_oracle(self, x, p):
        lo, unit, prec, den = _digit_form(x, p)
        assert prec == INF and lo == brute_ord(x, p)
        assert unit % p and den % p and den > 0
        assert Fraction(unit, den) * Fraction(p) ** lo == x

    def test_exact_zeros(self):
        zeros = (0, Fraction(0), PadicApprox.exact_zero(P3), PadicApprox.from_rational(0, P3, 4))
        for zero in zeros:
            assert _digit_form(zero, 3) == (INF, 0, INF, 1)

    def test_approximations(self):
        x = PadicApprox.from_rational(Fraction(2, 3), P2, 6)  # digits 1,1,0,1,0 from ord 1
        assert _digit_form(x, 2) == (1, 0b01011, 6, 1)
        # zero at precision: only valuation >= 4 is known, so ord = abs_prec
        assert _digit_form(PadicApprox(P3, 2, 9, 4), 3) == (4, 0, 4, 1)

    def test_another_prime_and_other_types(self):
        with pytest.raises(ValueError, match="operands must share the same prime"):
            _digit_form(PadicApprox.from_rational(Fraction(3), P3, 5), 2)
        for other in (0.5, 2.0, "2/3", None, complex(2)):
            assert _digit_form(other, 2) is None

    def test_operators_decline_what_the_reader_declines(self):
        x = PadicApprox.from_rational(Fraction(2, 3), P2, 6)
        for op in (
            lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: 0.5 - x,
            lambda: x * 0.5, lambda: 0.5 * x, lambda: x / 0.5, lambda: 0.5 / x,
        ):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize(
        "call,reader,count",
        [
            (lambda x, q: x + q, "_digit_form", 2),
            (lambda x, q: x * q, "_digit_form", 1),
            (lambda x, q: x - q, "_digit_form", 3),
            (lambda x, q: PadicApprox.from_rational(q, P3, 6), "_intval", 3),
            (lambda x, q: Ball(P3, q, 4), "_intval", 2),
            (lambda x, q: digit_expand(q, P3, 0, 5), "_intval", 2),
        ],
        ids=["add", "mul", "sub", "from-rational", "ball", "digit-expand"],
    )
    def test_each_value_is_read_once(self, monkeypatch, call, reader, count):
        """A sum reads each operand once, a product its other operand once and
        a difference its operand once more for the check; from_rational, Ball
        and digit_expand read the rational's numerator and denominator once
        (from_rational's new unit is one more _intval)."""
        x, q = PadicApprox(P3, 1, 7, 9), Fraction(5, 21)
        calls = collections.Counter()
        for name in ("_digit_form", "_intval"):
            def counted(*args, _name=name, _f=getattr(padic_core, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(padic_core, name, counted)
        call(x, q)
        assert calls[reader] == count

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mixed_operators_against_exact_arithmetic(self, p):
        """x op q for an approximation x and an exact int or Fraction q,
        either side, against the exact result's digits; a zero q included."""
        ctx, rng = PrimeCtx(p), random.Random(p)
        for _ in range(60):
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3) * p**2) * p ** rng.randint(0, 5)
            q = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
            if rng.random() < 0.3:
                q = q.numerator
            a = PadicApprox.from_rational(x, ctx, valuation(x, ctx) + rng.randint(1, 12))
            cases = [(a + q, x + q), (q + a, x + q), (a - q, x - q), (q - a, q - x),
                     (a * q, x * q), (q * a, x * q)]
            if q:
                cases += [(a / q, x / q), (q / a, q / x)]
            for got, exact in cases:
                if got.is_exact_zero:
                    assert exact == 0
                elif got.is_zero_at_precision:
                    assert exact == 0 or valuation(exact, ctx) >= got.abs_prec
                else:
                    assert got.digits == digit_expand(exact, ctx, got.valuation(), got.abs_prec)


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

    def test_membership_of_exact_rationals(self):
        # contains reads a rational through _digit_form into contains_digits;
        # the oracle is ord(x - centre) >= level in Fractions, with centres
        # and points of negative valuation and exact zeros among them
        rng = random.Random(7)
        for ctx in (P2, P3, P5):
            p = ctx.p
            for _ in range(300):
                level = rng.randint(1, 5)
                b = Ball(ctx, Fraction(rng.randrange(p**6), p ** rng.randint(0, 2)), level)
                near = Fraction(rng.randrange(-p**3, p**3), rng.choice([1, 7])) * p ** rng.randint(0, 6)
                far = Fraction(rng.randrange(-p**6, p**6), p ** rng.randint(0, 3) * rng.choice([1, 11]))
                x = rng.choice([b.center + near, far, 0])
                assert b.contains(x) is (valuation(Fraction(x) - b.center, ctx) >= level)

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

    def test_measure_is_one_shared_haar_value(self):
        rng = random.Random(25)
        for ctx in (P2, P3, P5):
            p = ctx.p
            for _ in range(40):
                balls = tuple(
                    Ball(ctx, Fraction(rng.randrange(99), rng.randint(1, 9)), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 4))
                )
                c = ProductCylinder(balls)
                want = Fraction(1, p ** sum(b.level - 1 for b in balls))
                assert measure(c) == want
                # equal exponents share one value: the reversed product, or one
                # ball at the summed level
                assert measure(c) is measure(ProductCylinder(balls[::-1]))
                assert measure(c) is measure(Ball(ctx, 0, 1 + sum(b.level - 1 for b in balls)))
                for b in balls:
                    assert measure(b) == Fraction(1, p ** (b.level - 1))

    def test_measure_cache_stays_at_its_bound(self):
        bound = padic_core._haar.cache_info().maxsize
        assert bound is not None
        for k in range(bound + 40):
            assert measure(Ball(P3, 0, k + 1)) == Fraction(1, 3**k)
        assert padic_core._haar.cache_info().currsize == bound


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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_uniform_below_replays_randrange(self, p):
        # the Monte Carlo drivers and haar_sample draw through _uniform_below,
        # which repeats CPython's randrange algorithm; every report rests on
        # its stream being randrange's, value for value, at p**k (a power of
        # 2 at p = 2, where a wrong bit count or no rejection shows at once)
        # and at a bound of no special form
        bounds = [p**k for k in (*range(1, 61), 800)] + [10**9 + 7]
        for seed in range(25):
            for n in bounds:
                draws = padic_core._uniform_below(random.Random(seed), n)
                rng = random.Random(seed)
                assert list(itertools.islice(draws, 4)) == [rng.randrange(n) for _ in range(4)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shared_random_continues_as_randrange(self, p):
        # a Random shared with later randrange calls, as haar_sample_vector's
        # caller shares it, is advanced exactly as randrange would advance it
        ctx = PrimeCtx(p)
        for seed in range(25):
            shared, reference = random.Random(seed), random.Random(seed)
            for m, n in ((3, 50), (1, 1), (2, 800)):
                units = [reference.randrange(p**n) for _ in range(m)]
                xs = haar_sample_vector(ctx, m, n, shared)
                assert xs == tuple(PadicApprox(ctx, 1, u, n + 1) for u in units)
                assert haar_sample(ctx, n, shared) == PadicApprox(
                    ctx, 1, reference.randrange(p**n), n + 1
                )
                draws = padic_core._uniform_below(shared, p**n)
                assert next(draws) == reference.randrange(p**n)
                assert shared.randrange(10**6) == reference.randrange(10**6)

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
        assert format_rational(-7) == "-7/1" and format_rational(True) == "1/1"
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

    def test_repr_and_hash_of_each_state(self):
        nonzero = PadicApprox.from_rational(Fraction(2, 3), P2, 6)
        at_precision = PadicApprox(P2, 5, 0, 5)
        zero = PadicApprox.exact_zero(P2)
        assert repr(nonzero) == "PadicApprox(p=2, ord=1, digits=[1, 1, 0, 1, 0], prec=6)"
        assert repr(at_precision) == "PadicApprox(p=2, O(p^5))"
        assert repr(zero) == "PadicApprox(p=2, 0 exactly)"
        # equal values hash alike however they were built; the states differ
        assert hash(nonzero) == hash(PadicApprox(P2, 0, 0b010110, 6))
        assert hash(at_precision) == hash(PadicApprox(P2, 2, 8, 5))
        assert hash(zero) == hash(PadicApprox.from_rational(0, P2, 9))
        assert len({nonzero, at_precision, zero, PadicApprox(P2, 6, 0, 6)}) == 4
        # the exact zero is the one value of infinite precision, however built
        built = PadicApprox(P2, INF, 0, INF)
        assert built == zero and hash(built) == hash(zero) and built.is_exact_zero
        assert PadicApprox.from_rational(0, P2, 4) == zero
        assert PadicApprox(P2, 4, 0, 4) != zero and PadicApprox(P2, 4, 0, 4).is_zero_at_precision
        assert not PadicApprox(P2, 4, 0, 4).is_exact_zero
        assert PadicApprox.__slots__ == ("ctx", "_lo", "_unit", "_prec")

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
            (lambda: haar_sample(P2, 0, 1), ValueError, "need at least one digit"),
            (lambda: digit_expand(Fraction(1), P2, 3, 2), ValueError, "stop must be >= start"),
            (lambda: PadicApprox.from_rational(Fraction(2), P2, 5)
             + PadicApprox.from_rational(Fraction(3), P3, 5),
             ValueError, "operands must share the same prime"),
            (lambda: Ball(P3, Fraction(1, 2), 3).contains(2.5), TypeError,
             "cannot test membership of float"),
            (lambda: Ball(P3, Fraction(1, 2), 3).contains("1/2"), TypeError,
             "cannot test membership of str"),
            (lambda: ProductCylinder((Ball(P3, Fraction(1, 2), 3),)).contains((2.5,)),
             TypeError, "cannot test membership of float"),
        ],
        ids=["ball-level-0", "empty-cylinder", "mixed-primes", "contains-dimension",
             "measure-non-cylinder", "sample-no-digits",
             "expand-stop-before-start", "sum-two-primes", "contains-float", "contains-str",
             "cylinder-contains-float"],
    )
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
