import cmath
import math

import numpy as np
import pytest
from conftest import exp_series, sampled_nf, vandermonde_Q

from parafold.series import BivariateSeries, NotAUnit, TruncatedSeries
from parafold.normal_forms import (
    KostovNF,
    NotCanonical,
    PolynomialNF,
    kostov_check,
    lagrange_Q,
    poly_to_canonical_parameter,
    polynomial_nf,
    rational_nf,
)
from parafold.unfolding import EigenvalueFunction, FamilySpec, factor_family, realize


def random_series(rng, order, decay=0.6, unit=True):
    c = (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)) * decay ** np.arange(
        order + 1
    )
    if unit:
        c[0] = 1.0 + 0.4 * c[0]
    return TruncatedSeries(c)


def family_from_sigma(sigma, k):
    ef = EigenvalueFunction(k, ((k + 1) * sigma).shift_up(k).extended(sigma.order + k))
    return factor_family(realize(ef))


class TestLagrange:
    def test_constant(self):
        q = lagrange_Q(TruncatedSeries.constant(2.0 - 1.0j, 8), 3, 0.2 + 0.1j)
        assert np.abs(q - np.r_[2.0 - 1.0j, np.zeros(3)]).max() < 1e-13

    def test_identity(self):
        q = lagrange_Q(TruncatedSeries.identity(8), 2, 0.37)
        assert np.abs(q - np.array([0, 1, 0])).max() < 1e-13

    def test_hermite_limit_small_eps(self):
        q = lagrange_Q(exp_series(20), 2, 1e-12)
        assert np.abs(q - np.array([1.0, 1.0, 0.5])).max() < 1e-4

    def test_exact_coalescence(self):
        q = lagrange_Q(exp_series(20), 2, 0.0)
        assert np.abs(q - np.array([1.0, 1.0, 0.5])).max() < 1e-15

    def test_interpolates(self):
        rng = np.random.default_rng(0)
        sigma = random_series(rng, 20)
        k = 3
        eps = 0.21 + 0.33j
        q = lagrange_Q(sigma, k, eps)
        nodes = eps ** (1 / (k + 1)) * np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
        for d in nodes:
            assert abs(np.polyval(q[::-1], d) - sigma(d)) < 1e-12

    def test_matches_determinant_formula(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 4):
            sigma = random_series(rng, 18)
            eps = 0.3 * cmath.exp(2j * math.pi * rng.random())
            qa = lagrange_Q(sigma, k, eps)
            qb = vandermonde_Q(sigma, k, eps)
            assert np.abs(qa - qb).max() < 1e-10

    def test_matches_vandermonde_solve(self):
        # 420 seeded points, |eps| log-uniform on [1e-3, 0.5]
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(70):
            for k in range(1, 7):
                sigma = random_series(rng, int(rng.integers(k + 2, 41)))
                radius = 10 ** rng.uniform(-3, math.log10(0.5))
                eps = radius * cmath.exp(2j * math.pi * rng.random())
                q = lagrange_Q(sigma, k, eps)
                worst = max(worst, np.abs(q - vandermonde_Q(sigma, k, eps)).max())
        assert worst < 1e-12


class TestPolynomialNF:
    def test_low_degree_sigma_constant_in_eps(self):
        # sigma of degree <= k: Q equals sigma for every eps
        k = 2
        sigma = TruncatedSeries([1, 0.5, -0.25], order=20)
        nf = polynomial_nf(family_from_sigma(sigma, k), eps_order=4)
        for j, c in enumerate(nf.coefficients):
            expect = np.zeros(c.order + 1, dtype=complex)
            expect[0] = sigma[j]
            assert np.abs(c.coefficients - expect).max() < 1e-12

    def test_interpolation_residual(self):
        rng = np.random.default_rng(4)
        k = 2
        sigma = random_series(rng, 24)
        spec = family_from_sigma(sigma, k)
        nf = polynomial_nf(spec, eps_order=6)
        for eps in (0.01 + 0.02j, 0.03, -0.02 + 0.005j):
            qv = nf.eval_at(eps)
            nodes = eps ** (1 / (k + 1)) * np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
            for d in nodes:
                assert abs(np.polyval(qv[::-1], d) - sigma(d)) < 1e-10

    def test_eps_zero_is_taylor(self):
        rng = np.random.default_rng(5)
        k = 3
        sigma = random_series(rng, 24)
        nf = polynomial_nf(family_from_sigma(sigma, k), eps_order=5)
        got = np.array([c[0] for c in nf.coefficients])
        assert np.abs(got - sigma.coefficients[: k + 1]).max() < 1e-8

    def test_canonicity_flag(self):
        k = 2
        # sigma with no (k+1)-class terms beyond 1: canonical parameter
        canonical = TruncatedSeries(np.r_[1.0, 0.3, 0.2, 0.0, 0.1, np.zeros(10)])
        nf = polynomial_nf(family_from_sigma(canonical, k), eps_order=3)
        assert nf.is_canonical()
        off = TruncatedSeries(np.r_[1.0, 0.3, 0.2, 0.05, np.zeros(11)])
        nf2 = polynomial_nf(family_from_sigma(off, k), eps_order=3)
        assert not nf2.is_canonical()

    def test_split_matches_sampled(self):
        rng = np.random.default_rng(6)
        k = 2
        sigma = random_series(rng, 20)
        a = polynomial_nf(sigma, k=k, eps_order=2)
        for est in sampled_nf(sigma, k, 2):
            for ca, cb in zip(a.coefficients, est):
                assert np.abs(ca.coefficients[:3] - cb).max() < 1e-8


class TestRationalNF:
    def test_unit_sigma(self):
        k = 2
        nf = rational_nf(TruncatedSeries.constant(1.0, 12), k=k, eps_order=3)
        assert nf.is_canonical()
        assert np.abs(nf.coefficients[0].coefficients - np.r_[1, np.zeros(3)]).max() < 1e-13

    def test_reciprocal_residual(self):
        rng = np.random.default_rng(7)
        k = 3
        sigma = random_series(rng, 24)
        nf = rational_nf(sigma, k=k, eps_order=5)
        for eps in (0.01 + 0.01j, 0.02):
            rv = nf.eval_at(eps)
            nodes = eps ** (1 / (k + 1)) * np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
            for d in nodes:
                assert abs(np.polyval(rv[::-1], d) * sigma(d) - 1.0) < 1e-10

    def test_duality(self):
        # rational coefficients of sigma == polynomial coefficients of 1/sigma
        rng = np.random.default_rng(8)
        k = 2
        sigma = random_series(rng, 26)
        ra = rational_nf(family_from_sigma(sigma, k), eps_order=5)
        recip = sigma.reciprocal()
        pb = polynomial_nf(family_from_sigma(recip, k), eps_order=5)
        for a, b in zip(ra.coefficients, pb.coefficients):
            assert np.abs(a.coefficients - b.coefficients).max() < 1e-10

    def test_requires_unit(self):
        with pytest.raises(NotAUnit):
            rational_nf(TruncatedSeries([0.0, 1.0], order=6), k=1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reports_only_determined_coefficients(k):
    # a family factored at z-order T determines sigma to order T - 1, so b_j
    # to eps^((T - 1 - j) // (k + 1)); a padded zero would miss the T = 200 run
    c = np.zeros((k + 3, 2), dtype=complex)
    c[k + 1, 0], c[k + 2, 0], c[0, 1], c[1, 1] = 1.0, 0.3, -1.0, 0.2
    family = FamilySpec(k=k, omega=BivariateSeries(c))
    for maker in (polynomial_nf, rational_nf):
        reference = maker(factor_family(family, z_order=200), eps_order=12)
        for truncation in (10, 20, 80):
            nf = maker(factor_family(family, z_order=truncation), eps_order=12)
            for j, (got, want) in enumerate(zip(nf.coefficients, reference.coefficients)):
                assert got.order == min(12, (truncation - 1 - j) // (k + 1))
                assert np.abs(got.coefficients - want.coefficients[: got.order + 1]).max() <= 1e-12
        with pytest.raises(ValueError, match="undetermined"):
            maker(factor_family(family, z_order=k))


class TestCanonicalParameter:
    def test_identity_on_canonical(self):
        nf = PolynomialNF(
            k=2,
            coefficients=(
                TruncatedSeries([1, 0, 0, 0, 0]),
                TruncatedSeries([0.4, 0.1, 0, 0, 0]),
                TruncatedSeries([0.2, 0, 0.3, 0, 0]),
            ),
        )
        change, out = poly_to_canonical_parameter(nf)
        assert change.is_identity
        for a, b in zip(nf.coefficients, out.coefficients):
            assert np.abs(a.coefficients - b.coefficients).max() < 1e-12

    def test_makes_constant_one(self):
        nf = PolynomialNF(
            k=2,
            coefficients=(
                TruncatedSeries([1, 1, 0, 0, 0, 0]),
                TruncatedSeries([0.5, 0, 0, 0, 0, 0]),
                TruncatedSeries([0.1, 0.2, 0, 0, 0, 0]),
            ),
        )
        change, out = poly_to_canonical_parameter(nf)
        c0 = out.coefficients[0].coefficients
        assert np.abs(c0 - np.r_[1.0, np.zeros(len(c0) - 1)]).max() < 1e-10
        assert out.is_canonical()

    def test_k1_no_branch_choice(self):
        nf = PolynomialNF(
            k=1,
            coefficients=(
                TruncatedSeries([2.0, 0.3, 0, 0, 0]),
                TruncatedSeries([0.1, 0, 0, 0, 0]),
            ),
        )
        change, out = poly_to_canonical_parameter(nf)
        # Q_eps(0)^{1/1} is Q_eps(0) itself
        assert np.abs(change.z_factor.coefficients - nf.coefficients[0].coefficients).max() < 1e-12
        assert out.is_canonical()

    def test_change_maps_are_inverse(self):
        nf = PolynomialNF(
            k=3,
            coefficients=(
                TruncatedSeries([1.0, -0.4, 0.05, 0, 0, 0]),
                TruncatedSeries([0.2, 0, 0, 0, 0, 0]),
                TruncatedSeries([0, 0.1, 0, 0, 0, 0]),
                TruncatedSeries([0.05, 0, 0, 0, 0, 0]),
            ),
        )
        change, _ = poly_to_canonical_parameter(nf)
        round_trip = change.eps_map.compose(change.eps_inverse)
        ident = TruncatedSeries.identity(round_trip.order)
        assert np.abs(round_trip.coefficients - ident.coefficients).max() < 1e-11

    def test_requires_unit(self):
        nf = PolynomialNF(
            k=1,
            coefficients=(TruncatedSeries([0.0, 1.0, 0, 0]), TruncatedSeries([1.0, 0, 0, 0])),
        )
        with pytest.raises(NotAUnit):
            poly_to_canonical_parameter(nf)


def make_kostov(rng, k, order=8):
    b = [TruncatedSeries(np.r_[0.0, -1.0, np.zeros(order - 1)])]
    for j in range(1, k):
        c = 0.2 * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        c[0] = 0.0  # P_0(z) = z^{k+1}
        b.append(TruncatedSeries(c))
    A = TruncatedSeries(0.3 * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)))
    return KostovNF(k=k, b=tuple(b), A=A)


class TestKostov:
    def test_self_match(self):
        rng = np.random.default_rng(9)
        nf = make_kostov(rng, 3)
        assert kostov_check(nf, nf) == 0

    def test_rotation_detected(self):
        rng = np.random.default_rng(10)
        for k in (2, 3, 5):
            nf = make_kostov(rng, k)
            for m in range(k):
                nu = cmath.exp(2j * math.pi * m / k)
                rotated = nf.rotated(nu)
                assert rotated.is_canonical()
                assert kostov_check(nf, rotated) == m

    def test_perturbed_A_rejected(self):
        rng = np.random.default_rng(11)
        nf = make_kostov(rng, 3)
        c = nf.A.coefficients.copy()
        c[2] += 1e-3
        other = KostovNF(k=3, b=nf.b, A=TruncatedSeries(c))
        assert kostov_check(nf, other) is None

    def test_requires_canonical(self):
        rng = np.random.default_rng(12)
        nf = make_kostov(rng, 2)
        bad_b0 = TruncatedSeries(np.r_[0.0, -1.0, 0.5, np.zeros(6)])
        bad = KostovNF(k=2, b=(bad_b0, nf.b[1]), A=nf.A)
        with pytest.raises(NotCanonical):
            kostov_check(bad, nf)

    def test_json_round_trip(self):
        rng = np.random.default_rng(13)
        nf = make_kostov(rng, 2)
        back = KostovNF.from_dict(nf.to_dict())
        assert kostov_check(nf, back) == 0

    def test_polynomial_nf_json_round_trip(self):
        rng = np.random.default_rng(14)
        sigma = random_series(rng, 16)
        nf = polynomial_nf(sigma, k=2, eps_order=3)
        back = PolynomialNF.from_dict(nf.to_dict())
        assert back.kind == "polynomial"
        for a, b in zip(nf.coefficients, back.coefficients):
            assert np.array_equal(a.coefficients, b.coefficients)


def _with(doc, **changes):
    """A copy of ``doc`` with fields replaced; a value of ``...`` drops the field."""
    out = dict(doc)
    for name, value in changes.items():
        if value is ...:
            del out[name]
        else:
            out[name] = value
    return out


class TestFromDictValidation:
    """Each malformed field gives a plain ValueError that names it."""

    def _raises(self, cls, doc, field):
        with pytest.raises(ValueError, match=field) as exc:
            cls.from_dict(doc)
        assert type(exc.value) is ValueError

    def test_polynomial_nf(self):
        doc = polynomial_nf(random_series(np.random.default_rng(15), 16), k=2, eps_order=3).to_dict()
        series = doc["coefficients"][0]
        rows = [
            ([doc], "'k'"),
            (_with(doc, k=...), "missing field 'k'"),
            (_with(doc, k=0), "'k'"),
            (_with(doc, k="2"), "'k'"),
            (_with(doc, k=2.0), "'k'"),
            (_with(doc, coefficients=...), "missing field 'coefficients'"),
            (_with(doc, coefficients=series), "'coefficients' must be a list"),
            (_with(doc, coefficients=doc["coefficients"][:2]), "'coefficients' must hold 3 entries"),
            (_with(doc, coefficients=[series, series, 7]), "'truncation'"),
            (_with(doc, coefficients=[series, series, _with(series, truncation=-1)]), "'truncation'"),
            (_with(doc, kind="cubic"), "'kind'"),
            (_with(doc, kind=None), "'kind'"),
        ]
        for bad, field in rows:
            self._raises(PolynomialNF, bad, field)
        assert PolynomialNF.from_dict(_with(doc, kind=...)).kind == "polynomial"
        assert PolynomialNF.from_dict(_with(doc, kind="rational")).kind == "rational"

    def test_kostov_nf(self):
        doc = make_kostov(np.random.default_rng(16), 2).to_dict()
        rows = [
            ("kostov", "'k'"),
            (_with(doc, k=...), "missing field 'k'"),
            (_with(doc, k=-1), "'k'"),
            (_with(doc, k=True), "'k'"),
            (_with(doc, b=...), "missing field 'b'"),
            (_with(doc, b=doc["A"]), "'b' must be a list"),
            (_with(doc, b=doc["b"] * 2), "'b' must hold 2 entries"),
            (_with(doc, b=[doc["b"][0], _with(doc["b"][1], coefficients=...)]), "'coefficients'"),
            (_with(doc, A=...), "missing field 'A'"),
            (_with(doc, A=[1, 2]), "'truncation'"),
            (_with(doc, A=_with(doc["A"], coefficients=[{"deg": 0, "re": float("nan")}])), "'re'"),
        ]
        for bad, field in rows:
            self._raises(KostovNF, bad, field)
