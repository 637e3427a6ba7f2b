import json

import numpy as np
import pytest
from conftest import exp_series, horner_compose, recurrence_reciprocal

from parafold.series import (
    UNIT_TOL,
    BadConstantTerm,
    BivariateSeries,
    NonZeroConstantTerm,
    NotAUnit,
    NotInvertible,
    TruncatedSeries,
    _compose_classes,
    _newton_orders,
    class_join,
    series_distance,
)


def log1p_series(order):
    """Taylor series of log(1 + x)."""
    c = np.zeros(order + 1, dtype=complex)
    n = np.arange(1, order + 1, dtype=float)
    c[1:] = (-1.0) ** (n + 1) / n
    return TruncatedSeries(c)


def geometric_series(order, ratio=1.0):
    """1/(1 - ratio*x)."""
    return TruncatedSeries(complex(ratio) ** np.arange(order + 1))


def random_series(rng, order, unit=False, zero_const=False, radius=1.0, decay=1.0):
    c = radius * (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1))
    c *= decay ** np.arange(order + 1)
    if unit:
        c[0] = 1.0 + 0.5 * c[0]
    if zero_const:
        c[0] = 0.0
        c[1] = 1.0 + 0.5 * c[1]
    return TruncatedSeries(c)


class TestMul:
    def test_identity(self):
        one = TruncatedSeries.constant(1.0, 6)
        assert np.allclose((one * one).coefficients, one.coefficients)

    def test_difference_of_squares(self):
        a = TruncatedSeries([1, 1], order=4)
        b = TruncatedSeries([1, -1], order=4)
        assert np.allclose((a * b).coefficients, [1, 0, -1, 0, 0])

    def test_pointwise_oracle(self):
        # evaluation of the truncated product agrees with the pointwise
        # product once the truncation tail is budgeted for
        rng = np.random.default_rng(42)
        n = 16
        a = random_series(rng, n)
        b = random_series(rng, n)
        prod = a * b
        r = 0.1
        tail = (
            np.abs(a.coefficients).max()
            * np.abs(b.coefficients).max()
            * (n + 1) ** 2
            * r ** (n + 1)
            / (1 - r)
        )
        for point in r * np.exp(2j * np.pi * np.arange(10) / 10):
            direct = a(point) * b(point)
            err = abs(prod(point) - direct)
            assert err <= tail + 1e-10 * abs(direct)

    def test_min_order_rule(self):
        a = TruncatedSeries([1, 2, 3], order=8)
        b = TruncatedSeries([1, 1], order=3)
        assert (a * b).order == 3


class TestReciprocal:
    def test_one(self):
        one = TruncatedSeries.constant(1.0, 5)
        assert np.allclose(one.reciprocal().coefficients, one.coefficients)

    def test_geometric(self):
        a = TruncatedSeries([1, 1], order=3)
        assert np.allclose(a.reciprocal().coefficients, [1, -1, 1, -1])

    def test_self_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_series(rng, 24, unit=True, decay=0.7)
            prod = a * a.reciprocal()
            target = np.zeros(25, dtype=complex)
            target[0] = 1.0
            assert np.abs(prod.coefficients - target).max() < 1e-12

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            TruncatedSeries([0, 1, 2]).reciprocal()


class TestCompose:
    def test_identity_inner(self):
        rng = np.random.default_rng(5)
        lam = random_series(rng, 12)
        ident = TruncatedSeries.identity(12)
        assert np.allclose(lam.compose(ident).coefficients, lam.coefficients)

    def test_binomial(self):
        outer = TruncatedSeries.monomial(2, 4)  # x^2
        inner = TruncatedSeries([0, 1, 1], order=4)  # x + x^2
        assert np.allclose(outer.compose(inner).coefficients, [0, 0, 1, 2, 1])

    def test_exp_log_identity(self):
        e = exp_series(12)
        l = log1p_series(12)
        got = e.compose(l)
        expect = np.zeros(13, dtype=complex)
        expect[0] = 1.0
        expect[1] = 1.0
        assert np.abs(got.coefficients - expect).max() < 1e-12

    def test_requires_zero_constant(self):
        with pytest.raises(NonZeroConstantTerm):
            exp_series(5).compose(TruncatedSeries([1, 1], order=5))

    def test_associative(self):
        rng = np.random.default_rng(11)
        outer = random_series(rng, 14, radius=0.8)
        mid = random_series(rng, 14, zero_const=True, radius=0.8)
        inner = random_series(rng, 14, zero_const=True, radius=0.8)
        lhs = outer.compose(mid).compose(inner)
        rhs = outer.compose(mid.compose(inner))
        assert np.abs(lhs.coefficients - rhs.coefficients).max() < 1e-9


class TestReversion:
    def test_identity(self):
        ident = TruncatedSeries.identity(10)
        assert np.allclose(ident.reversion().coefficients, ident.coefficients)

    def test_cubic_lagrange_inversion(self):
        # inverse of x + c x^3 is x - c x^3 + 3 c^2 x^5 + O(x^7)
        c = 0.31 - 0.12j
        f = TruncatedSeries.identity(6) + TruncatedSeries.monomial(3, 6, c)
        g = f.reversion()
        expect = np.zeros(7, dtype=complex)
        expect[1] = 1.0
        expect[3] = -c
        expect[5] = 3 * c**2
        assert np.abs(g.coefficients - expect).max() < 1e-12

    def test_self_consistency_n40(self):
        rng = np.random.default_rng(9)
        ident = TruncatedSeries.identity(40)
        for _ in range(5):
            a = random_series(rng, 40, zero_const=True, radius=0.5, decay=0.55)
            res = a.compose(a.reversion())
            assert np.abs(res.coefficients - ident.coefficients).max() < 1e-11

    def test_involution(self):
        rng = np.random.default_rng(13)
        a = random_series(rng, 40, zero_const=True, radius=0.5, decay=0.55)
        back = a.reversion().reversion()
        assert np.abs(back.coefficients - a.coefficients).max() < 1e-10

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            TruncatedSeries([0, 0, 1, 1]).reversion()


class TestKthRoot:
    def test_one(self):
        one = TruncatedSeries.constant(1.0, 8)
        for k in (1, 2, 5):
            assert np.allclose(one.kth_root(k).coefficients, one.coefficients)

    def test_perfect_square(self):
        a = TruncatedSeries([1, 2, 1], order=6)
        got = a.kth_root(2)
        assert np.abs(got.coefficients - TruncatedSeries([1, 1], order=6).coefficients).max() < 1e-13

    def test_self_consistency(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 5):
            a = random_series(rng, 30, radius=0.6)
            c = a.coefficients.copy()
            c[0] = 1.0
            a = TruncatedSeries(c)
            root = a.kth_root(k)
            assert np.abs((root**k).coefficients - a.coefficients).max() < 1e-11

    def test_bad_constant(self):
        with pytest.raises(BadConstantTerm):
            TruncatedSeries([2, 1, 1]).kth_root(3)


def _decaying(rng, order, decay, amplitude=1.0):
    c = amplitude * (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1))
    return c * decay ** np.arange(order + 1)


def _tangent(rng, order, decay, const):
    """const e^{i phi} + x e^{i theta} + a decaying tail of amplitude 0.25."""
    c = _decaying(rng, order, decay, 0.25)
    c[0] = const * np.exp(2j * np.pi * rng.random())
    if order >= 1:
        c[1] = decay * np.exp(2j * np.pi * rng.random())
    return c


class TestAgainstHornerAndRecurrence:
    """The Brent-Kung composition and the Newton reciprocal, reversion and
    k-th root against the Horner composition and the reciprocal recurrence
    of ``conftest``.  Orders 0..11 reach every block remainder of a short
    series; 39, 80, 159 and 200 leave a partial last block, 40 and 160 do
    not.  Both compositions sum the same products in another order, so a
    coefficient is bounded relative to the same composition of the moduli,
    sum_d |outer_d| (|inner|^d)_j, which bounds the rounding of either; the
    reciprocal and the root are bounded relative to max(1, |coefficient|).
    The bounds were fixed before the first run."""

    ORDERS = [*range(12), 39, 40, 80, 159, 160, 200]
    COMPOSE_BOUND = 1e-13
    RECIPROCAL_BOUND = 1e-12
    REVERSION_BOUND = 1e-13
    KTH_ROOT_BOUND = 1e-12

    @pytest.mark.parametrize("decay", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("const", [0.0, 0.5 * UNIT_TOL])
    def test_compose(self, decay, const):
        rng = np.random.default_rng(40 + int(10 * decay))
        for order in self.ORDERS:
            outer = _decaying(rng, order, decay)
            inner = _tangent(rng, order, decay, const)
            got = TruncatedSeries(outer).compose(TruncatedSeries(inner)).coefficients
            modulus = horner_compose(np.abs(outer), np.abs(inner)).real
            err = np.abs(got - horner_compose(outer, inner))
            assert np.all(err <= self.COMPOSE_BOUND * modulus)

    @pytest.mark.parametrize("decay", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("valuation", [2, 3])
    def test_compose_valuation(self, decay, valuation):
        # the power table and the Horner sum skip the degrees below i v
        rng = np.random.default_rng(80 + 10 * valuation + int(10 * decay))
        for order in self.ORDERS:
            outer = _decaying(rng, order, decay)
            inner = np.zeros(order + 1, dtype=complex)
            inner[valuation:] = _tangent(rng, order, decay, 0.0)[1 : order + 2 - valuation]
            got = TruncatedSeries(outer).compose(TruncatedSeries(inner)).coefficients
            modulus = horner_compose(np.abs(outer), np.abs(inner)).real
            err = np.abs(got - horner_compose(outer, inner))
            assert np.all(err <= self.COMPOSE_BOUND * modulus), order

    @pytest.mark.parametrize("decay", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("only", [None, 1, 0])
    def test_compose_classes(self, decay, k, only):
        # inner = eta g(eta^{k+1}); ``only`` keeps one class of outer and
        # zeroes the others, as the canonical maps of equivalent_full do
        q = k + 1
        rng = np.random.default_rng(90 + 10 * k + int(10 * decay))
        for order in (40, 41, 43, 80, 160):
            outer = _decaying(rng, order, decay)
            if only is not None:
                outer[np.arange(order + 1) % q != only] = 0.0
            g = _tangent(rng, (order - 1) // q, decay, 1.0)
            inner = np.zeros(order + 1, dtype=complex)
            inner[1::q] = g
            got = _compose_classes(outer, g, q)
            modulus = horner_compose(np.abs(outer), np.abs(inner)).real
            err = np.abs(got - horner_compose(outer, inner))
            assert np.all(err <= self.COMPOSE_BOUND * modulus), order

    @pytest.mark.parametrize("decay", [0.3, 0.7, 0.9])
    def test_reciprocal(self, decay):
        rng = np.random.default_rng(50 + int(10 * decay))
        for order in self.ORDERS:
            c = _decaying(rng, order, decay)
            c[0] = 2 * np.exp(2j * np.pi * rng.random())
            got = TruncatedSeries(c).reciprocal()
            expect = TruncatedSeries(recurrence_reciprocal(c))
            assert series_distance(got, expect) <= self.RECIPROCAL_BOUND

    @pytest.mark.parametrize("decay", [0.3, 0.7, 0.9])
    def test_reversion(self, decay):
        rng = np.random.default_rng(60 + int(10 * decay))
        for order in self.ORDERS[1:]:
            f = _tangent(rng, order, decay, 0.0)
            g = TruncatedSeries(f).reversion().coefficients
            residual = horner_compose(f, g)
            residual[1] -= 1.0
            modulus = horner_compose(np.abs(f), np.abs(g)).real
            assert np.all(np.abs(residual) <= self.REVERSION_BOUND * modulus)

    @pytest.mark.parametrize("decay", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_kth_root(self, decay, k):
        # the root is the fixed point x = s x^{-(k-1)} of the Newton map
        rng = np.random.default_rng(70 + 10 * k + int(10 * decay))
        for order in self.ORDERS:
            c = _decaying(rng, order, decay, 0.5)
            c[0] = 1.0
            root = TruncatedSeries(c).kth_root(k)
            power = (root ** (k - 1)).coefficients
            fixed = TruncatedSeries(c) * TruncatedSeries(recurrence_reciprocal(power))
            assert series_distance(fixed, root) <= self.KTH_ROOT_BOUND


class TestNewtonOrders:
    def test_doubling_orders(self):
        assert _newton_orders(0, 160) == [1, 3, 7, 15, 31, 63, 127, 160]
        assert _newton_orders(1, 160, gain=0) == [2, 4, 8, 16, 32, 64, 128, 160]

    @pytest.mark.parametrize("gain", [0, 1])
    def test_one_sweep_at_full_order(self, gain):
        for start in range(1, 6):
            for n in [*range(start, 40), 80, 160]:
                orders = _newton_orders(start, n, gain)
                assert orders[-1] == n and orders.count(n) == 1, (start, n)
                assert all(b <= 2 * a + gain for a, b in zip([start, *orders], orders))

    def test_start_at_full_order(self):
        assert _newton_orders(0, 0) == [0]
        assert _newton_orders(40, 40) == [40]
        assert _newton_orders(1, 1, gain=0) == [1]


class TestClassSplit:
    def test_by_inspection(self):
        a = TruncatedSeries([1, 1, 1, 1])
        a0, a1 = a.class_split(2)
        assert np.allclose(a0.coefficients, [1, 1])
        assert np.allclose(a1.coefficients, [1, 1])

    def test_monomial(self):
        k = 4
        a = TruncatedSeries.monomial(k, 12)
        parts = a.class_split(k + 1)
        assert np.allclose(parts[k].coefficients[0], 1.0)
        for j, part in enumerate(parts):
            expect = np.zeros(part.order + 1)
            if j == k:
                expect[0] = 1.0
            assert np.allclose(part.coefficients, expect)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 5):
            a = random_series(rng, 23)
            parts = a.class_split(m)
            back = class_join(parts, m, a.order)
            assert np.array_equal(back.coefficients, a.coefficients)


class TestRingAxioms:
    def test_axioms_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_series(rng, 18)
            b = random_series(rng, 18)
            c = random_series(rng, 18)
            assoc = ((a * b) * c).coefficients - (a * (b * c)).coefficients
            distr = (a * (b + c)).coefficients - (a * b + a * c).coefficients
            scale = max(1.0, np.abs((a * b * c).coefficients).max())
            assert np.abs(assoc).max() / scale < 1e-12
            assert np.abs(distr).max() / scale < 1e-12

    def test_powers_match_repeated_products(self):
        rng = np.random.default_rng(18)
        a = random_series(rng, 18)
        product = TruncatedSeries.constant(1.0, 18)
        for e in range(7):
            assert series_distance(a**e, product) < 1e-12
            product = product * a


class TestScalingHelpers:
    def test_scale_argument(self):
        rng = np.random.default_rng(2)
        a = random_series(rng, 10)
        w = 0.7 - 0.2j
        x = 0.3 + 0.1j
        assert abs(a.scale_argument(w)(x) - a(w * x)) < 1e-12

    def test_shift_round_trip(self):
        a = TruncatedSeries([0, 0, 1, 2, 3])
        assert np.allclose(a.shift_down(2).coefficients, [1, 2, 3])
        assert np.allclose(a.shift_down(2).extended(4).shift_up(2).coefficients, a.coefficients)

    def test_upsample(self):
        a = TruncatedSeries([1, 2, 3])
        up = a.upsample(3, order=8)
        assert np.allclose(up.coefficients, [1, 0, 0, 2, 0, 0, 3, 0, 0])

    def test_geometric_series(self):
        g = geometric_series(20, ratio=0.5)
        assert abs(g(0.3) - 1 / (1 - 0.15)) < 1e-12


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        a = random_series(rng, 9)
        back = TruncatedSeries.from_dict(json.loads(json.dumps(a.to_dict())))
        assert np.array_equal(back.coefficients, a.coefficients)

    def test_omitted_degrees_are_zero(self):
        s = TruncatedSeries.from_dict({"truncation": 4, "coefficients": [{"deg": 2, "re": 1.0, "im": 0.0}]})
        assert np.allclose(s.coefficients, [0, 0, 1, 0, 0])


class TestBivariate:
    def test_weighted_diagonal(self):
        c = np.zeros((5, 3), dtype=complex)
        c[2, 0] = 1.0  # z^2
        c[0, 1] = 2.0  # eps
        c[1, 1] = 3.0  # z eps
        b = BivariateSeries(c)
        diag = b.weighted_diagonal(3, 6)  # z -> d, eps -> d^3
        assert np.allclose(diag.coefficients, [0, 0, 1, 2, 3, 0, 0])

    def test_json_round_trip(self):
        rng = np.random.default_rng(7)
        a = BivariateSeries(rng.standard_normal((3, 4)))
        back = BivariateSeries.from_dict(a.to_dict())
        assert np.array_equal(back.coefficients, a.coefficients)
