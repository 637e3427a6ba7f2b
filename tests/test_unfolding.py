import cmath
import math

import numpy as np
import pytest

from parafold.series import BivariateSeries, TruncatedSeries, series_distance
from parafold.unfolding import (
    _divide_by_model,
    AmbiguousMatch,
    EigenvalueFunction,
    FamilySpec,
    NotGeneric,
    canonicalize,
    check_generic,
    eigenvalue_function,
    equivalent_fixed_parameter,
    equivalent_full,
    factor_family,
    is_model_equivalent,
    model_eigenvalue_function,
    realize,
    residue_sum,
)


def straightened_family(spec):
    """omega~(z~, eps) = (z~^{k+1} - eps) v_eps(z~) reassembled."""
    k, v = spec.k, spec.factored.v
    nz, ne = v.z_order, v.eps_order
    out = np.zeros((nz + 1, ne + 1), dtype=complex)
    vc = v.coefficients
    out[k + 1 :, :] += vc[: nz - k, :]
    out[:, 1:] -= vc[:, : ne]
    return BivariateSeries(out)


def model_family(k, nz=20):
    c = np.zeros((nz + 1, 2), dtype=complex)
    c[k + 1, 0] = 1.0
    c[0, 1] = -1.0
    return FamilySpec(k=k, omega=BivariateSeries(c))


def _divide_by_model_reference(omega_t, k):
    """The entry-by-entry loop that the shifted-block sum replaced; the array
    form must reproduce it bit for bit, signed zeros included."""
    nz, ne = omega_t.z_order, omega_t.eps_order
    c = omega_t.coefficients
    v = np.zeros((nz + 1, ne + 1), dtype=complex)
    for m in range(nz + 1):
        for n in range(ne + 1):
            acc = 0j
            j = 0
            while m - j * (k + 1) >= 0:
                nn = n + 1 + j
                if nn <= ne:
                    acc += c[m - j * (k + 1), nn]
                j += 1
            v[m, n] = -acc
    return BivariateSeries(v)


def random_sigma(rng, order, decay=0.6):
    c = (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)) * decay ** np.arange(
        order + 1
    )
    c[0] = 1.0 + 0.4 * c[0]
    return TruncatedSeries(c)


def random_eigenvalue(rng, k, order, decay=0.6, normalized=False):
    sigma = random_sigma(rng, order - k, decay)
    if normalized:
        c = sigma.coefficients.copy()
        c[0] = 1.0
        sigma = TruncatedSeries(c)
    return EigenvalueFunction(k, ((k + 1) * sigma.extended(order)).shift_up(k))


class TestCheckGeneric:
    def test_model(self):
        rep = check_generic(model_family(3))
        assert rep.A == 1 and rep.B == 1
        assert np.abs(rep.repelling - 2 * np.pi * np.arange(3) / 3).max() < 1e-12
        assert np.abs(rep.explosion - 2 * np.pi * np.arange(4) / 4).max() < 1e-12

    def test_scaled_family(self):
        # omega = 2 z^3 - i eps: explosion rays solve 2 z^3 / i real positive
        c = np.zeros((5, 2), dtype=complex)
        c[3, 0] = 2.0
        c[0, 1] = 1j
        rep = check_generic(FamilySpec(k=2, omega=BivariateSeries(c)))
        assert rep.B == 2 and rep.A == -1j
        for ang in rep.explosion:
            val = 2 * cmath.exp(3j * ang) / rep.A / rep.B * abs(rep.B) ** 2
            # B z^{k+1}/A at z = e^{i ang} must be real positive
            val = rep.B * cmath.exp(3j * ang) / rep.A
            assert abs(val.imag) < 1e-12 and val.real > 0

    def test_not_generic_eps_square(self):
        c = np.zeros((5, 3), dtype=complex)
        c[3, 0] = 1.0
        c[0, 2] = 1.0  # omega = z^3 + eps^2
        with pytest.raises(NotGeneric):
            check_generic(FamilySpec(k=2, omega=BivariateSeries(c)))

    def test_not_generic_low_order(self):
        c = np.zeros((5, 2), dtype=complex)
        c[2, 0] = 1.0
        c[0, 1] = -1.0
        with pytest.raises(NotGeneric):
            check_generic(FamilySpec(k=2, omega=BivariateSeries(c)))


class TestFactorFamily:
    def test_already_factored(self):
        # omega = (z^{k+1} - eps)(1 + z): g = identity, v = 1 + z
        k = 2
        sigma = TruncatedSeries([1, 1], order=18)
        spec = realize(EigenvalueFunction(k, ((k + 1) * sigma).shift_up(k)))
        fac = factor_family(spec)
        ident = TruncatedSeries.identity(fac.factored.g.order)
        assert np.abs(fac.factored.g.coefficients - ident.coefficients).max() < 1e-12
        v = fac.factored.v
        expect = np.zeros_like(v.coefficients)
        expect[0, 0] = 1.0
        expect[1, 0] = 1.0
        assert np.abs(v.coefficients - expect).max() < 1e-12

    def test_residual_oracle(self):
        # omega = z^{k+1} - eps + eps z^{k+1}: singularities on z^{k+1} = eps/(1+eps)
        k = 2
        c = np.zeros((8, 2), dtype=complex)
        c[k + 1, 0] = 1.0
        c[0, 1] = -1.0
        c[k + 1, 1] = 1.0
        spec = factor_family(FamilySpec(k=k, omega=BivariateSeries(c)), z_order=24)
        ginv = spec.factored.g.reversion()
        rng = np.random.default_rng(0)
        for _ in range(20):
            eps = 0.01 * cmath.exp(2j * math.pi * rng.random())
            zt = eps ** (1.0 / (k + 1))
            assert abs(spec.omega(complex(ginv(zt)), eps)) < 1e-10

    def test_refactoring_gives_root_of_unity(self):
        k = 2
        rng = np.random.default_rng(5)
        sigma = random_sigma(rng, 16)
        spec = factor_family(realize(EigenvalueFunction(k, ((k + 1) * sigma.extended(18)).shift_up(k))))
        for choice in range(k + 1):
            fac = factor_family(spec, choice=choice)
            g = fac.factored.g
            zeta = g[1]
            assert abs(zeta ** (k + 1) - 1) < 1e-10
            expect = TruncatedSeries.identity(g.order) * zeta
            assert np.abs(g.coefficients - expect.coefficients).max() < 1e-10

    def test_straightened_matches_original_on_roots(self):
        k = 3
        c = np.zeros((8, 2), dtype=complex)
        c[k + 1, 0] = 1.0
        c[0, 1] = -2.0
        c[1, 1] = 0.3
        c[k + 2, 0] = 0.4
        spec = factor_family(FamilySpec(k=k, omega=BivariateSeries(c)), z_order=28)
        om_t = straightened_family(spec)
        # singular points of the straightened family are exactly the roots
        rng = np.random.default_rng(1)
        for _ in range(10):
            eps = 0.005 * cmath.exp(2j * math.pi * rng.random())
            zt = eps ** (1.0 / (k + 1))
            assert abs(om_t(zt, eps)) < 1e-10


class TestDivideByModel:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        cases = [(k, nz, ne) for k in range(1, 6) for nz in (0, k, k + 1, 170) for ne in (0, 1)]
        cases += [(k, 170, 90) for k in (1, 5)]
        cases += [
            (int(rng.integers(1, 6)), int(rng.integers(0, 171)), int(rng.integers(0, 91)))
            for _ in range(40)
        ]
        for k, nz, ne in cases:
            shape = (nz + 1, ne + 1)
            c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            c.real[rng.random(shape) < 0.2] = -0.0
            c.imag[rng.random(shape) < 0.2] = -0.0
            omega_t = BivariateSeries(c)
            got = _divide_by_model(omega_t, k, ne).coefficients
            want = _divide_by_model_reference(omega_t, k).coefficients
            assert got.tobytes() == want.tobytes(), (k, nz, ne)
            if ne <= 1:
                # a wider eps-order sums the stored columns only; the
                # reference sums the zero columns that pad it
                got = _divide_by_model(omega_t, k, ne + 6).coefficients
                padded = BivariateSeries(c, eps_order=ne + 6)
                want = _divide_by_model_reference(padded, k).coefficients
                assert got.tobytes() == want.tobytes(), (k, nz, ne)

    def test_stored_columns_only_bit_for_bit(self):
        # factor_family composes only the stored eps columns of omega; the
        # reference pads omega to the working eps-order before composing
        rng = np.random.default_rng(24)
        for k in range(1, 5):
            for order in (40, 80, 160):
                for _ in range(2):
                    spec = factor_family(realize(random_eigenvalue(rng, k, order)))
                    z_order = spec.omega.z_order
                    ginv = spec.factored.g.reversion()
                    jac = spec.factored.g.derivative().extended(z_order).compose(ginv)
                    eps_work = spec.omega.eps_order + 1 + math.ceil((z_order + 1) / (k + 1))
                    omega_pad = BivariateSeries(spec.omega.coefficients, z_order, eps_work)
                    omega_t = omega_pad.compose_z(ginv.extended(z_order)).mul_z(jac)
                    want = _divide_by_model(omega_t, k, eps_work).coefficients
                    assert spec.factored.v.coefficients.tobytes() == want.tobytes(), (k, order)


class TestEigenvalueFunction:
    def test_trivial_unit(self):
        ef = eigenvalue_function(factor_family(model_family(4)), order=16)
        expect = np.zeros(17)
        expect[4] = 5.0
        assert np.abs(ef.lam.coefficients - expect).max() < 1e-12

    def test_order_below_k_is_refused(self):
        # the CLI's canon and classify take the order from --truncation
        with pytest.raises(ValueError, match="below k"):
            eigenvalue_function(model_family(2), order=1)

    def test_eps_independent_v(self):
        k = 3
        sigma = TruncatedSeries([1, 1], order=20)
        spec = factor_family(realize(EigenvalueFunction(k, ((k + 1) * sigma).shift_up(k))))
        ef = eigenvalue_function(spec, order=20)
        expect = np.zeros(21, dtype=complex)
        expect[k] = k + 1.0
        expect[k + 1] = k + 1.0
        assert np.abs(ef.lam.coefficients - expect).max() < 1e-12

    def test_derivative_oracle(self):
        # lambda(delta) equals d(omega~)/dz at the singularity z = delta
        k = 2
        rng = np.random.default_rng(9)
        sigma = random_sigma(rng, 18)
        spec = factor_family(realize(EigenvalueFunction(k, ((k + 1) * sigma.extended(20)).shift_up(k))))
        ef = eigenvalue_function(spec, order=20)
        om_t = straightened_family(spec)
        h = 1e-6
        for _ in range(10):
            delta = 0.15 * cmath.exp(2j * math.pi * rng.random())
            eps = delta ** (k + 1)
            fd = (om_t(delta + h, eps) - om_t(delta - h, eps)) / (2 * h)
            assert abs(ef.lam(delta) - fd) < 1e-7

    def test_gauge_covariance(self):
        # the k+1 factorizations give eigenvalue functions related by
        # precomposition with roots of unity
        k = 2
        rng = np.random.default_rng(12)
        sigma = random_sigma(rng, 14)
        base = realize(EigenvalueFunction(k, ((k + 1) * sigma.extended(16)).shift_up(k)))
        ef0 = eigenvalue_function(factor_family(base, choice=0), order=16)
        for choice in range(1, k + 1):
            efc = eigenvalue_function(factor_family(base, choice=choice), order=16)
            zeta = cmath.exp(-2j * math.pi * choice / (k + 1))
            expect = ef0.lam.scale_argument(zeta)
            assert np.abs(efc.lam.coefficients - expect.coefficients).max() < 1e-9

    def test_realize_round_trip(self):
        rng = np.random.default_rng(21)
        for k in (1, 2, 3):
            for _ in range(50 // (k + 1)):
                ef = random_eigenvalue(rng, k, 24)
                back = eigenvalue_function(factor_family(realize(ef)), order=24)
                assert np.abs(back.lam.coefficients - ef.lam.coefficients).max() < 1e-12


class TestResidueSum:
    def test_model_vanishes(self):
        for k in (1, 2, 4):
            A = residue_sum(model_eigenvalue_function(k, 30))
            assert np.abs(A.coefficients).max() == 0.0

    def test_closed_form_k2(self):
        # lambda = 3 d^2 (1 + d^2): 1/lambda Laurent constant term is -1/3
        k = 2
        lam = TruncatedSeries.monomial(k, 30, k + 1.0) + TruncatedSeries.monomial(2 * k, 30, k + 1.0)
        A = residue_sum(EigenvalueFunction(k, lam))
        assert abs(A[0] + 1.0) < 1e-12

    def test_two_method_agreement(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            ef = random_eigenvalue(rng, k, 40)
            A = residue_sum(ef)
            for _ in range(20):
                eps = 0.02 * cmath.exp(2j * math.pi * rng.random())
                roots = eps ** (1.0 / (k + 1)) * np.exp(
                    2j * np.pi * np.arange(k + 1) / (k + 1)
                )
                direct = sum(1.0 / complex(ef.lam(d)) for d in roots)
                assert abs(A(eps) - direct) < 1e-8 * max(1.0, abs(direct))

    def test_gauge_invariance(self):
        rng = np.random.default_rng(41)
        k = 3
        ef = random_eigenvalue(rng, k, 30)
        A0 = residue_sum(ef)
        for i in range(1, k + 1):
            zeta = cmath.exp(2j * math.pi * i / (k + 1))
            Ai = residue_sum(ef.precompose_root(zeta))
            assert np.abs(Ai.coefficients - A0.coefficients).max() < 1e-12


class TestCanonicalize:
    def test_identity_on_canonical(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            ef = random_eigenvalue(rng, k, 30, normalized=True)
            can = canonicalize(ef)
            can2 = canonicalize(can.lam)
            assert can2.is_identity

    def test_k1_closed_form(self):
        c = 0.4 - 0.22j
        lam = TruncatedSeries.monomial(1, 20, 2.0) + TruncatedSeries.monomial(3, 20, 2 * c)
        can = canonicalize(EigenvalueFunction(1, lam))
        expect = np.zeros(21, dtype=complex)
        expect[1] = 2.0
        assert np.abs(can.lam.lam.coefficients - expect).max() < 1e-10
        assert abs(can.h[3] + c) < 1e-12

    def test_random_elimination(self):
        rng = np.random.default_rng(8)
        for k in (1, 2, 3, 4):
            for _ in range(10):
                ef = random_eigenvalue(rng, k, 40)
                can = canonicalize(ef)
                assert can.lam.is_canonical(tol=1e-10)
                # verify against a direct composition of the pieces
                direct = ef.lam.compose(can.h)
                scale = np.abs(direct.coefficients).max()
                deg = np.arange(41)
                offenders = (deg % (k + 1) == k % (k + 1)) & (deg > k)
                assert np.abs(direct.coefficients[offenders]).max() < 1e-10 * scale

    def test_linear_choice_count(self):
        rng = np.random.default_rng(13)
        for k in (1, 2, 5):
            ef = random_eigenvalue(rng, k, 20)
            can = canonicalize(ef)
            assert len(can.linear_choices) == k
            s0 = ef.sigma[0]
            assert np.abs(can.linear_choices**k * s0 - 1.0).max() < 1e-12

    def test_rescale_action(self):
        # canonicalizing lambda(nu delta), nu^k = 1, precomposes the
        # canonical form with nu
        rng = np.random.default_rng(17)
        k = 3
        ef = random_eigenvalue(rng, k, 30)
        base = canonicalize(ef).lam.lam
        nu = cmath.exp(2j * math.pi / k)
        rotated = canonicalize(EigenvalueFunction(k, ef.lam.scale_argument(nu))).lam.lam
        expect = base.scale_argument(nu)
        assert np.abs(rotated.coefficients - expect.coefficients).max() < 1e-9


class TestCanonicalInverse:
    """``CanonicalForm.h_inverse`` is built beside h, not by reverting it.

    The eigenvalue functions decay like 0.3^n, as in the benchmark, so that
    the compositions are well conditioned up to order 160.  At decay 0.6
    and k = 1 the canonicalising maps converge on a disk of radius below 1,
    and xi = h2 o h1^{-1} loses every digit by order 160 by either route.
    """

    @pytest.mark.parametrize("order", [40, 80, 160])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_composes_to_identity(self, k, order):
        rng = np.random.default_rng(100 * k + order)
        can = canonicalize(random_eigenvalue(rng, k, order, decay=0.3))
        ident = TruncatedSeries.identity(order)
        assert series_distance(can.h.compose(can.h_inverse), ident) <= 1e-12
        assert series_distance(can.h_inverse.compose(can.h), ident) <= 1e-12

    @pytest.mark.parametrize("order", [40, 80, 160])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_xi_matches_reverted_h(self, k, order):
        # l2 = l1 o psi with psi(delta) = delta (1 + c delta^{k+1}) commuting
        # with rotation; the oracle reverts the canonicalising map of l1
        rng = np.random.default_rng(200 * k + order)
        l1 = random_eigenvalue(rng, k, order, decay=0.3)
        psi = TruncatedSeries.identity(order) + TruncatedSeries.monomial(k + 2, order, 0.05 - 0.03j)
        l2 = EigenvalueFunction(k, l1.lam.compose(psi))
        nu, xi = equivalent_full(l1, l2)
        c1, c2 = canonicalize(l1), canonicalize(l2)
        oracle = c2.h.scale_argument(1 / nu).compose(c1.h.reversion())
        assert series_distance(xi, oracle) <= 1e-12


class TestEquivalence:
    def test_fixed_parameter_witness(self):
        rng = np.random.default_rng(2)
        for k in (1, 2, 4):
            ef = random_eigenvalue(rng, k, 30)
            for i in range(k + 1):
                zeta = cmath.exp(2j * math.pi * i / (k + 1))
                other = ef.precompose_root(zeta)
                got = equivalent_fixed_parameter(ef, other)
                assert abs(got - zeta) < 1e-10

    def test_witness_inverts_under_swap(self):
        rng = np.random.default_rng(19)
        k = 2
        ef = random_eigenvalue(rng, k, 24)
        zeta = cmath.exp(2j * math.pi / (k + 1))
        other = ef.precompose_root(zeta)
        assert abs(equivalent_fixed_parameter(ef, other) * equivalent_fixed_parameter(other, ef) - 1) < 1e-10

    def test_model_witness_unique(self):
        # lambda(zeta delta) = zeta^k lambda(delta) for the model, so the
        # fixed-parameter witness is exactly zeta = 1; no eigenvalue
        # function vanishing to order exactly k is rotation invariant
        k = 2
        got = equivalent_fixed_parameter(
            model_eigenvalue_function(k), model_eigenvalue_function(k)
        )
        assert abs(got - 1.0) < 1e-12

    def test_ambiguous_full_equivalence(self):
        # the canonical form of the model is fixed by the whole group U_k,
        # so the parameter-change witness is genuinely ambiguous
        k = 3
        with pytest.raises(AmbiguousMatch) as info:
            equivalent_full(model_eigenvalue_function(k), model_eigenvalue_function(k))
        assert len(info.value.witnesses) == k

    def test_perturbation_rejected(self):
        rng = np.random.default_rng(23)
        k = 2
        ef = random_eigenvalue(rng, k, 24)
        c = ef.lam.coefficients.copy()
        c[k + 2] += 1e-3
        other = EigenvalueFunction(k, TruncatedSeries(c))
        assert equivalent_fixed_parameter(ef, other) is None

    def test_full_equivalence_with_xi(self):
        rng = np.random.default_rng(29)
        for k in (2, 3):
            ef = random_eigenvalue(rng, k, 36)
            g = TruncatedSeries(
                np.r_[1.0, 0.08 + 0.02j, -0.03], order=(36) // (k + 1)
            ).upsample(k + 1, 36).shift_up(1)
            other = EigenvalueFunction(k, ef.lam.compose(g))
            res = equivalent_full(other, ef)
            assert res is not None
            nu, xi = res
            rhs = ef.lam.compose(xi)
            assert np.abs(other.lam.coefficients - rhs.coefficients).max() < 1e-8
            # xi commutes with rotation by 2 pi/(k+1)
            deg = np.arange(xi.order + 1)
            assert np.abs(xi.coefficients[deg % (k + 1) != 1]).max() < 1e-10

    def test_xi_has_the_lower_truncation(self):
        # xi is known only to the order both eigenvalue functions carry
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            ef = random_eigenvalue(rng, k, 36, decay=0.3)
            short = EigenvalueFunction(k, ef.lam.truncated(20))
            for l1, l2 in ((ef, short), (short, ef)):
                nu, xi = equivalent_full(l1, l2)
                assert xi.order == 20
                assert series_distance(l1.lam, l2.lam.compose(xi)) <= 1e-12

    def test_full_inequivalence(self):
        # canonical with a_1 != 0 cannot match the model
        k = 2
        c = np.zeros(25, dtype=complex)
        c[k] = k + 1.0
        c[k + 1] = 0.7 * (k + 1)
        ef = EigenvalueFunction(k, TruncatedSeries(c))
        assert equivalent_full(ef, model_eigenvalue_function(k, 24)) is None


class TestJsonInterfaces:
    def test_family_round_trip(self):
        spec = model_family(3)
        back = FamilySpec.from_dict(spec.to_dict())
        assert back.k == 3
        assert np.array_equal(back.omega.coefficients, spec.omega.coefficients)

    def test_eigenvalue_round_trip(self):
        rng = np.random.default_rng(6)
        ef = random_eigenvalue(rng, 2, 18)
        data = ef.to_dict()
        assert data["k"] == 2 and "canonical" in data
        back = EigenvalueFunction.from_dict(data)
        assert np.array_equal(back.lam.coefficients, ef.lam.coefficients)


class TestModelEquivalence:
    def test_positive_case(self):
        k = 3
        c = np.zeros(30, dtype=complex)
        c[k] = k + 1.0
        c[k + (k + 1)] = k + 1.0
        assert is_model_equivalent(EigenvalueFunction(k, TruncatedSeries(c)))

    def test_negative_case(self):
        k = 3
        c = np.zeros(30, dtype=complex)
        c[k] = k + 1.0
        c[k + 1] = k + 1.0
        assert not is_model_equivalent(EigenvalueFunction(k, TruncatedSeries(c)))

    def test_model_itself(self):
        assert is_model_equivalent(model_eigenvalue_function(5))

    def test_full_pipeline_from_family(self):
        # (z^{k+1}-eps)(1+z^{k+1}) is conjugate to the model, (z^{k+1}-eps)(1+z) is not
        k = 2
        yes = TruncatedSeries(np.r_[1.0, np.zeros(k), 1.0, np.zeros(12)])
        no = TruncatedSeries(np.r_[1.0, 1.0, np.zeros(14)])
        for sigma, verdict in ((yes, True), (no, False)):
            ef0 = EigenvalueFunction(k, ((k + 1) * sigma).shift_up(k).extended(18))
            ef = eigenvalue_function(factor_family(realize(ef0)), order=18)
            assert is_model_equivalent(ef) is verdict
