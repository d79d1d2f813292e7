"""Branch transformations: hyperbolicity, inversion, Jacobian factor, preimages."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_cf import (
    Ball,
    DivisionByZeroAtPrecision,
    HyperbolicCert,
    LftParams,
    NotHyperbolicError,
    PadicApprox,
    PrecisionExhausted,
    PrimeCtx,
    ProductCylinder,
    apply_inverse,
    certify_hyperbolic,
    iota,
    parse_rational,
    measure,
    preimage_cylinder,
    valuation,
)
from reference import (
    apply_forward,
    inverse_matrix,
    random_element,
    random_hyperbolic,
    sufficient_hyperbolic,
    vector_norm,
)

P2 = PrimeCtx(2)
P3 = PrimeCtx(3)
P5 = PrimeCtx(5)


def one_dim(ctx, p1, q1) -> LftParams:
    return LftParams(ctx, 1, 1, (1,), (Fraction(p1),), (Fraction(q1),))


def random_point(rng: random.Random, ctx: PrimeCtx, m: int, min_ord: int = 1):
    """Random exact rational vector with every coordinate of valuation >= min_ord."""
    p = ctx.p
    coords = []
    for _ in range(m):
        e = rng.randint(min_ord, min_ord + 3)
        while True:
            num = rng.randint(1, 60)
            den = rng.randint(1, 60)
            if num % p and den % p:
                break
        sign = -1 if rng.random() < 0.5 else 1
        coords.append(Fraction(sign * num * p**e, den))
    return tuple(coords)


class TestHyperbolicity:
    def test_schneider_branch(self):
        cert = certify_hyperbolic(one_dim(P2, 2, 1))
        assert (cert.u, cert.v, cert.h) == (0, 1, 0)

    def test_zero_q_rejected_condition_two(self):
        with pytest.raises(NotHyperbolicError) as exc:
            certify_hyperbolic(one_dim(P2, 1, 0))
        assert exc.value.condition == 2

    def test_condition_two_needs_ord_p_over_q_positive(self):
        # ord(q_s) = 0 passes the first clause, and ord(p_s/q_s) = 0 fails the second
        with pytest.raises(NotHyperbolicError, match=r"ord\(p_s/q_s\) > 0 required") as exc:
            certify_hyperbolic(LftParams(PrimeCtx(3), 1, 1, (1,), (1,), (1,)))
        assert exc.value.condition == 2

    def test_q_s_of_positive_valuation_fails_condition_two(self):
        # ord(q_s) = 1 > 0 although ord(p_s/q_s) = 2 > 0
        for qs in (Fraction(2), Fraction(-6, 5), Fraction(4, 3)):
            with pytest.raises(NotHyperbolicError, match=r"ord\(q_s\) <= 0 required") as exc:
                certify_hyperbolic(one_dim(P2, 8, qs))
            assert exc.value.condition == 2

    def test_q_k_of_positive_valuation_takes_condition_four(self):
        # m = 2, i = 1, sigma = (2, 1): s = 2 with v + u = 1; q_1 = 2 or 6/5 has
        # ord 1, so coordinate 1 needs ord(p_1) < v + u, whatever ord(q_1) is
        sigma = (2, 1)
        for q1 in (Fraction(2), Fraction(6, 5)):
            for p1 in (Fraction(2), Fraction(4, 3)):  # ord(p_1) >= v + u
                bad = LftParams(P2, 2, 1, sigma, (p1, Fraction(2)), (q1, Fraction(1)))
                with pytest.raises(NotHyperbolicError, match=r"\(iv\) failed \(coordinate 1\)") as exc:
                    certify_hyperbolic(bad)
                assert exc.value.condition == 4
            good = LftParams(P2, 2, 1, sigma, (Fraction(3), Fraction(2)), (q1, Fraction(1)))
            cert = certify_hyperbolic(good)
            assert (cert.u, cert.v, cert.h) == (0, 1, 1)

    def test_ruban_branch(self):
        cert = certify_hyperbolic(one_dim(P2, 1, Fraction(1, 2)))
        assert (cert.u, cert.v) == (1, 0)

    def test_condition_one(self):
        with pytest.raises(NotHyperbolicError) as exc:
            certify_hyperbolic(one_dim(P2, Fraction(1, 2), 1))
        assert exc.value.condition == 1

    def test_condition_three_and_four(self):
        # m = 2, i = 1, cyclic sigma; s = 2
        sigma = (2, 1)
        bad3 = LftParams(P2, 2, 1, sigma, (Fraction(2), Fraction(2)), (Fraction(1), Fraction(1)))
        with pytest.raises(NotHyperbolicError) as exc:
            certify_hyperbolic(bad3)
        assert exc.value.condition == 3
        bad4 = LftParams(P2, 2, 1, sigma, (Fraction(2), Fraction(2)), (Fraction(0), Fraction(1)))
        with pytest.raises(NotHyperbolicError) as exc:
            certify_hyperbolic(bad4)
        assert exc.value.condition == 4

    def test_cert_invariants(self):
        with pytest.raises(ValueError):
            HyperbolicCert(0, 0, 0)
        with pytest.raises(ValueError, match="h must be >= 0"):
            HyperbolicCert(1, 1, -1)

    def test_random_generator_always_certifies(self):
        rng = random.Random(7)
        for _ in range(300):
            m = rng.choice([1, 2, 3])
            ctx = rng.choice([P2, P3, P5])
            f = random_hyperbolic(rng, ctx, m)
            certify_hyperbolic(f)  # raises unless hyperbolic


class TestSufficientCondition:
    def test_schneider_witness(self):
        f = one_dim(P2, 2, 1)
        assert sufficient_hyperbolic(f, (Fraction(2, 3),)) is True

    def test_witness_mapped_outside(self):
        f = one_dim(P2, 2, 1)
        # 2/(4/3) - 1 = 1/2, valuation -1: image leaves p*Z_p
        assert sufficient_hyperbolic(f, (Fraction(4, 3),)) is False

    def test_true_implies_hyperbolic(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.choice([1, 2])
            ctx = rng.choice([P2, P3])
            f = random_hyperbolic(rng, ctx, m)
            x = random_point(rng, ctx, m)
            try:
                ok = sufficient_hyperbolic(f, x)
            except ValueError:
                continue  # generator made a branch outside the lemma's preconditions
            if ok:
                certify_hyperbolic(f)  # raises unless hyperbolic

    @pytest.mark.parametrize(
        "f,witness,match",
        [
            (one_dim(P2, Fraction(1, 2), 1), (Fraction(2, 3),),
             r"precondition ord\(p_k\) >= 0 violated"),
            (one_dim(P2, 2, 1), (Fraction(1, 3),), r"witness must lie in \(p\*Z_p\)\^m"),
        ],
        ids=["p_k", "witness"],
    )
    def test_each_precondition_names_itself(self, f, witness, match):
        with pytest.raises(ValueError, match=match):
            sufficient_hyperbolic(f, witness)

    def test_precondition_violation_raises(self):
        f = one_dim(P2, 1, 0)
        with pytest.raises(ValueError):
            sufficient_hyperbolic(f, (Fraction(2, 3),))


class TestForwardInverse:
    def test_forward_example(self):
        f = one_dim(P2, 2, 1)
        assert apply_forward(f, (Fraction(2, 3),)) == (Fraction(2),)

    def test_ruban_forward_hits_zero(self):
        f = one_dim(P2, 1, Fraction(3, 2))
        assert apply_forward(f, (Fraction(2, 3),)) == (Fraction(0),)

    def test_inverse_at_origin(self):
        f = one_dim(P3, 9, 2)
        assert apply_inverse(f, (Fraction(0),)) == (Fraction(9, 2),)

    def test_round_trips(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.choice([1, 2, 3])
            ctx = rng.choice([P2, P3])
            f = random_hyperbolic(rng, ctx, m)
            y = random_point(rng, ctx, m)
            x = apply_inverse(f, y)
            assert apply_forward(f, x) == y
            # and the other way, starting from a point in the branch's image cell
            assert apply_inverse(f, apply_forward(f, x)) == x

    def test_inverse_output_valuation(self):
        rng = random.Random(13)
        for _ in range(100):
            ctx = rng.choice([P2, P3])
            m = rng.choice([1, 2])
            f = random_hyperbolic(rng, ctx, m)
            cert = certify_hyperbolic(f)
            x = apply_inverse(f, random_point(rng, ctx, m))
            assert valuation(x[f.i - 1], ctx) == cert.v + cert.u
            assert all(valuation(c, ctx) >= 1 for c in x)

    def test_inverse_matrix_matches_apply_inverse(self):
        rng = random.Random(17)
        for _ in range(200):
            m = rng.choice([1, 2, 3])
            ctx = rng.choice([P2, P3, P5])
            f = random_hyperbolic(rng, ctx, m)
            y = random_point(rng, ctx, m)
            # any nonzero multiple of (1, y) represents y
            scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
            Y = (scale,) + tuple(scale * c for c in y)
            X = [sum(a * b for a, b in zip(row, Y)) for row in inverse_matrix(f)]
            assert tuple(c / X[0] for c in X[1:]) == apply_inverse(f, y)

    def test_inverse_requires_small_coordinates(self):
        f = one_dim(P2, 2, 1)
        with pytest.raises(ValueError):
            apply_inverse(f, (Fraction(1, 3),))


class TestIota:
    @pytest.mark.parametrize("p,k,ell", [(2, 1, 1), (3, 2, 1), (3, 1, 2)])
    def test_deep_digit_family(self, p, k, ell):
        ctx = PrimeCtx(p)
        v = Fraction(1, p**ell) + 1  # class ell value
        f = one_dim(ctx, p**k, v)
        assert iota(f) == p ** (k + 2 * ell)

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 2), (5, 1)])
    def test_shallow_digit_family(self, p, k):
        ctx = PrimeCtx(p)
        v = Fraction(1, p**k)
        f = one_dim(ctx, 1, v)
        assert iota(f) == p ** (2 * k)

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (5, 2)])
    def test_unit_digit_family(self, p, k):
        ctx = PrimeCtx(p)
        f = one_dim(ctx, p**k, 1)
        assert iota(f) == p**k


class TestPreimageCylinder:
    def test_one_dim_single_ball(self):
        f = one_dim(P2, 2, 1)
        cert = certify_hyperbolic(f)
        c = ProductCylinder((Ball(P2, Fraction(2), 3),))
        pieces = preimage_cylinder(f, c)
        assert len(pieces) == 1
        assert pieces[0].balls[0].level == 3 + cert.v + 2 * cert.u

    def test_measure_scaling_exact(self):
        rng = random.Random(17)
        for _ in range(150):
            ctx = rng.choice([P2, P3])
            m = rng.choice([1, 2])
            f = random_hyperbolic(rng, ctx, m)
            cert = certify_hyperbolic(f)
            n = rng.randint(1, 4)
            balls = tuple(
                Ball(ctx, Fraction(ctx.p * rng.randrange(ctx.p ** (n - 1))), n)
                for _ in range(m)
            )
            c = ProductCylinder(balls)
            pieces = preimage_cylinder(f, c)
            assert len(pieces) == ctx.p**cert.h
            total = sum((measure(pc) for pc in pieces), Fraction(0))
            assert total * iota(f) == measure(c)

    def test_disjoint_and_membership(self):
        rng = random.Random(19)
        for _ in range(40):
            ctx = rng.choice([P2, P3])
            m = rng.choice([1, 2])
            f = random_hyperbolic(rng, ctx, m)
            cert = certify_hyperbolic(f)
            n = rng.randint(1, 3)
            balls = tuple(
                Ball(ctx, Fraction(ctx.p * rng.randrange(ctx.p ** (n - 1))), n)
                for _ in range(m)
            )
            c = ProductCylinder(balls)
            pieces = preimage_cylinder(f, c)
            # pairwise disjoint in the pivot coordinate
            centers = {pc.balls[f.i - 1].center for pc in pieces}
            assert len(centers) == len(pieces)
            for _ in range(10):
                z = random_element(c, rng, depth=30)
                w = apply_inverse(f, z)
                assert sum(pc.contains(w) for pc in pieces) == 1
            for pc in pieces:
                u = random_element(pc, rng, depth=30)
                assert c.contains(apply_forward(f, u))

    def test_requires_uniform_levels(self):
        f = random_hyperbolic(random.Random(0), P2, 2)
        c = ProductCylinder((Ball(P2, Fraction(0), 1), Ball(P2, Fraction(0), 2)))
        with pytest.raises(ValueError):
            preimage_cylinder(f, c)

    @pytest.mark.parametrize("reduced", [False, True], ids=["fresh", "reduced"])
    def test_rejects_cylinders_it_cannot_pull_back(self, reduced):
        # on a fresh branch and on one whose integers are already kept
        good = ProductCylinder((Ball(P2, Fraction(2), 2), Ball(P2, Fraction(4), 2)))
        cases = [
            (ProductCylinder((Ball(P2, Fraction(2), 2),)), "dimension mismatch"),
            (
                ProductCylinder((Ball(P2, Fraction(2), 2), Ball(P2, Fraction(1), 2))),
                r"contained in \(p\*Z_p\)\^m",
            ),
            (
                ProductCylinder((Ball(P2, Fraction(2), 2), Ball(P2, Fraction(4), 3))),
                "not uniform",
            ),
        ]
        for c, message in cases:
            f = random_hyperbolic(random.Random(0), P2, 2)
            if reduced:
                preimage_cylinder(f, good)
            with pytest.raises(ValueError, match=message):
                preimage_cylinder(f, c)
        assert preimage_cylinder(f, good) == preimage_cylinder(
            random_hyperbolic(random.Random(0), P2, 2), good
        )

    def test_bad_cylinder_raises_on_every_call(self):
        # a cylinder keeps its integers only once its checks pass
        rng = random.Random(2)
        for c, message in [
            (ProductCylinder((Ball(P2, 2, 2), Ball(P2, 1, 2))), r"contained in \(p\*Z_p\)\^m"),
            (ProductCylinder((Ball(P2, 2, 2), Ball(P2, 4, 3))), "not uniform"),
            (ProductCylinder((Ball(P3, 3, 2), Ball(P3, 6, 2))), "share one prime"),
        ]:
            f = random_hyperbolic(rng, P2, 2)
            for g in (f, f, random_hyperbolic(rng, P2, 2)):
                with pytest.raises(ValueError, match=message):
                    preimage_cylinder(g, c)

    def test_pieces_are_digit_form_cylinders(self):
        # the pieces equal the cylinders the public constructors build, and
        # no piece has built a Fraction centre
        rng = random.Random(4)
        for ctx in (P2, P3, P5):
            p = ctx.p
            for m in (1, 2, 3):
                f = random_hyperbolic(rng, ctx, m)
                n = rng.randint(1, 4)
                c = ProductCylinder(
                    tuple(Ball(ctx, p * rng.randrange(p ** (n - 1)), n) for _ in range(m))
                )
                pieces = preimage_cylinder(f, c)
                assert all("center" not in vars(b) for pc in pieces for b in pc.balls)
                rebuilt = [
                    ProductCylinder([Ball(ctx, b.center, b.level) for b in pc.balls])
                    for pc in pieces
                ]
                assert pieces == rebuilt and list(map(hash, pieces)) == list(map(hash, rebuilt))
                assert all(type(pc.balls) is tuple for pc in pieces)
                assert [str(b) for pc in pieces for b in pc.balls] == [
                    str(b) for pc in rebuilt for b in pc.balls
                ]


class TestCertificatePerBranch:
    """A branch is certified once, on its first iota, apply_inverse or
    preimage_cylinder call."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from padic_cf import lft

        calls = []
        real = lft.certify_hyperbolic

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(lft, "certify_hyperbolic", counting)
        return calls

    @staticmethod
    def branch_and_cylinder(seed):
        rng = random.Random(seed)
        f = random_hyperbolic(rng, P3, 2)
        c = ProductCylinder((Ball(P3, Fraction(3), 2), Ball(P3, Fraction(6), 2)))
        return f, c

    def test_iota_then_preimages_certify_once(self, counted):
        f, c = self.branch_and_cylinder(41)
        counted.clear()  # random_hyperbolic's own check
        first = iota(f)
        pieces = [preimage_cylinder(f, c) for _ in range(10)]
        apply_inverse(f, (Fraction(3), Fraction(9)))
        assert len(counted) == 1
        assert iota(f) == first and all(pc == pieces[0] for pc in pieces)

    def test_equal_branches_keep_their_own_certificates(self, counted):
        f, c = self.branch_and_cylinder(43)
        g, _ = self.branch_and_cylinder(43)
        assert f == g and f is not g
        counted.clear()
        preimage_cylinder(f, c)
        preimage_cylinder(g, c)
        preimage_cylinder(f, c)
        assert [id(x) for x in counted] == [id(f), id(g)]

    def test_equal_branches_keep_their_own_reduction(self):
        from padic_cf import lft

        f, c = self.branch_and_cylinder(43)
        g, _ = self.branch_and_cylinder(43)
        assert preimage_cylinder(f, c) == preimage_cylinder(g, c)
        red = lft._reduced(f)
        assert lft._reduced(f) is red
        assert lft._reduced(g) == red and lft._reduced(g) is not red
        # kept on f, not in a cache that outlives it
        ref = weakref.ref(f)
        del f, red
        gc.collect()
        assert ref() is None

    def test_non_hyperbolic_raises_on_every_call(self, counted):
        f = one_dim(P2, 1, 2)  # ord(q_s) = 1 > 0: condition (ii)
        c = ProductCylinder((Ball(P2, Fraction(2), 2),))
        for _ in range(3):
            with pytest.raises(NotHyperbolicError):
                iota(f)
            with pytest.raises(NotHyperbolicError):
                apply_inverse(f, (Fraction(2),))
            with pytest.raises(NotHyperbolicError):
                preimage_cylinder(f, c)
        assert len(counted) == 9


class TestContraction:
    @given(st.integers(0, 10_000))
    def test_inverse_contracts_by_p(self, seed):
        rng = random.Random(seed)
        m = rng.choice([1, 2, 3])
        ctx = rng.choice([P2, P3, P5])
        f = random_hyperbolic(rng, ctx, m)
        x = random_point(rng, ctx, m)
        y = random_point(rng, ctx, m)
        fx, fy = apply_inverse(f, x), apply_inverse(f, y)
        lhs = vector_norm([a - b for a, b in zip(fx, fy)], ctx)
        rhs = vector_norm([a - b for a, b in zip(x, y)], ctx)
        assert lhs <= rhs / ctx.p


class TestSerialization:
    def test_round_trip(self):
        f = random_hyperbolic(random.Random(23), P3, 3)
        obj = f.to_obj()
        assert (obj["m"], obj["i"], obj["sigma"]) == (f.m, f.i, list(f.sigma))
        assert [parse_rational(v) for v in obj["p"]] == list(f.pvec)
        assert [parse_rational(v) for v in obj["q"]] == list(f.qvec)


class TestRefusals:
    @pytest.mark.parametrize(
        "args,match",
        [
            ((0, 1, (), (), ()), "need m >= 1 and 1 <= i <= m"),
            ((1, 2, (1,), (2,), (1,)), "need m >= 1 and 1 <= i <= m"),
            ((2, 1, (1, 1), (2, 2), (1, 1)), "sigma must be a permutation of 1..m"),
            ((1, 1, (1,), (2, 2), (1,)), "pvec and qvec must have length m"),
            ((1, 1, (1,), (0,), (1,)), "pvec entries must be nonzero"),
        ],
        ids=["m-0", "i-above-m", "sigma", "pvec-length", "zero-p"],
    )
    def test_lft_params(self, args, match):
        with pytest.raises(ValueError, match=match):
            LftParams(P2, *args)

    def test_wrong_dimension(self):
        f = one_dim(P2, 2, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_forward(f, (Fraction(2), Fraction(4)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_inverse(f, (Fraction(2), Fraction(4)))

    def test_forward_at_a_zero_pivot(self):
        with pytest.raises(DivisionByZeroAtPrecision, match="pivot coordinate is zero"):
            apply_forward(one_dim(P2, 2, 1), (Fraction(0),))

    def test_forward_at_an_approximate_zero_pivot(self):
        # a PadicApprox pivot is inverted by its own inverse, which refuses
        # both zero states
        f = one_dim(P2, 2, 1)
        with pytest.raises(DivisionByZeroAtPrecision, match="inverse of exact zero"):
            apply_forward(f, (PadicApprox.exact_zero(P2),))
        with pytest.raises(PrecisionExhausted):
            apply_forward(f, (PadicApprox(P2, 4, 0, 4),))
