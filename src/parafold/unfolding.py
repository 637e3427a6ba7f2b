"""Generic one-parameter unfoldings of a parabolic singularity.

A family omega_eps(z) with omega_0 = B z^{k+1} + O(z^{k+2}) and
d(omega)/d(eps)(0,0) = -A != 0 is straightened so that its singular points
sit exactly on z^{k+1} = eps, its eigenvalue function is extracted, brought
to canonical form by eliminating the removable coefficient classes, and the
two conjugacy problems (with and without a change of parameter) are decided
on series data.

All verdicts are certified only up to the truncation order of the data and
are reported together with that order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .series import (
    MAX_JSON_ORDER,
    UNIT_TOL,
    BivariateSeries,
    TruncatedSeries,
    _compose_classes,
    _newton_orders,
    json_field,
    json_int,
    principal_root,
    roots_of_unity,
    series_distance,
)


class NotGeneric(ValueError):
    """The family violates a genericity requirement; the message names it."""


class AmbiguousMatch(RuntimeError):
    """Several roots of unity witness the same equivalence (degenerate data)."""

    def __init__(self, witnesses):
        self.witnesses = list(witnesses)
        super().__init__(f"ambiguous equivalence witnesses: {self.witnesses}")


@dataclass(frozen=True)
class FactoredForm:
    """Straightening data: omega = (g(z)^{k+1} - eps) * (unit) in z, i.e.
    omega~(z~, eps) = (z~^{k+1} - eps) v_eps(z~) after z~ = g(z)."""

    g: TruncatedSeries
    v: BivariateSeries


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family omega_eps(z) of codimension k."""

    k: int
    omega: BivariateSeries
    factored: FactoredForm | None = None

    def to_dict(self):
        return {"k": self.k, "omega": self.omega.to_dict()}

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; ValueError names the first malformed field."""
        k = json_int(data, "k", 1, MAX_JSON_ORDER)
        return cls(k=k, omega=BivariateSeries.from_dict(json_field(data, "omega")))


@dataclass(frozen=True)
class AxesReport:
    """Principal part B z^{k+1} - A eps and the three axis families."""

    k: int
    A: complex
    B: complex
    repelling: np.ndarray
    attracting: np.ndarray
    explosion: np.ndarray


def _k_class(k: int) -> slice:
    """The degrees k, 2k+1, 3k+2, ... congruent to k mod k+1.  Past the first
    they are the degrees k + m(k+1), m >= 1, that canonicalisation removes."""
    return slice(k, None, k + 1)


@dataclass(frozen=True)
class EigenvalueFunction:
    """lambda(delta): single series carrying all eigenvalues of the family.

    The eigenvalues of omega_eps are the values of lambda at the (k+1)-st
    roots of eps.  lambda vanishes to order exactly k; sigma is the unit
    with lambda = (k+1) delta^k sigma(delta).
    """

    k: int
    lam: TruncatedSeries

    def __post_init__(self):
        k = self.k
        c = self.lam.coefficients
        if len(c) <= k:
            raise ValueError(f"truncation order {len(c) - 1} is below k = {k}")
        scale = max(np.abs(c).max(), 1.0)
        low = np.abs(c[:k]).max(initial=0.0)
        if k >= 1 and low > 1e-8 * scale:
            raise NotGeneric("eigenvalue function must vanish to order k")
        # compare the leading coefficient against the low block only: high
        # coefficients of a germ may be legitimately huge
        if abs(c[k]) <= UNIT_TOL * max(1.0, low):
            raise NotGeneric("eigenvalue function must vanish to order exactly k")

    @property
    def order(self):
        return self.lam.order

    @property
    def sigma(self):
        return self.lam.shift_down(self.k) / (self.k + 1)

    def is_canonical(self, tol: float = 1e-9) -> bool:
        """sigma(0) = 1 and no coefficients at degrees k + m(k+1), m >= 1."""
        c = self.lam.coefficients
        scale = max(np.abs(c).max(), 1.0)
        if abs(c[self.k] - (self.k + 1)) > tol * scale:
            return False
        return bool(np.abs(c[_k_class(self.k)][1:]).max(initial=0.0) <= tol * scale)

    def precompose_root(self, zeta: complex) -> "EigenvalueFunction":
        """lambda(zeta * delta)."""
        return EigenvalueFunction(self.k, self.lam.scale_argument(zeta))

    def to_dict(self):
        d = self.lam.to_dict()
        d["k"] = self.k
        d["canonical"] = self.is_canonical()
        return d

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict`` (which adds ``k`` and ``canonical`` to the
        series fields); ValueError names the first malformed field."""
        lam = TruncatedSeries.from_dict(data)
        return cls(k=json_int(data, "k", 1, lam.order), lam=lam)


def model_eigenvalue_function(k: int, order: int = 32) -> EigenvalueFunction:
    """lambda(delta) = (k+1) delta^k, the eigenvalue function of z^{k+1}-eps."""
    return EigenvalueFunction(k, TruncatedSeries.monomial(k, order, k + 1))


# ---------------------------------------------------------------------------
# genericity and principal part
# ---------------------------------------------------------------------------


def check_generic(spec: FamilySpec) -> AxesReport:
    """Validate the genericity conditions and report the axis geometry."""
    k = spec.k
    c = spec.omega.coefficients
    scale = max(np.abs(c).max(), 1.0)
    if c.shape[0] < k + 2 or c.shape[1] < 2:
        raise NotGeneric("family truncation orders too small for codimension k")
    low = np.abs(c[: k + 1, 0]).max(initial=0.0)
    if low > 1e-9 * scale:
        raise NotGeneric("omega_0 must vanish to order k+1 in z")
    B = c[k + 1, 0]
    if abs(B) <= UNIT_TOL * scale:
        raise NotGeneric("omega_0 must vanish to order exactly k+1 in z")
    A = -c[0, 1]
    if abs(A) <= UNIT_TOL * scale:
        raise NotGeneric("d(omega)/d(eps)(0,0) must be nonzero")
    j_rep = np.arange(k)
    repelling = (-cmath.phase(B) + 2 * math.pi * j_rep) / k % (2 * math.pi)
    attracting = (math.pi - cmath.phase(B) + 2 * math.pi * j_rep) / k % (2 * math.pi)
    j_exp = np.arange(k + 1)
    explosion = (cmath.phase(A / B) + 2 * math.pi * j_exp) / (k + 1) % (2 * math.pi)
    return AxesReport(
        k=k,
        A=A,
        B=B,
        repelling=np.sort(repelling),
        attracting=np.sort(attracting),
        explosion=np.sort(explosion),
    )


# ---------------------------------------------------------------------------
# straightening: placing the singularities on z^{k+1} = eps
# ---------------------------------------------------------------------------


def _solve_root_locus(omega: BivariateSeries, z_order: int) -> TruncatedSeries:
    """The series f with omega(z, f(z)) = 0, f = O(z^{k+1}).

    Newton iteration on the functional equation; the eps-derivative of omega
    is a unit at the origin by genericity.  An iterate exact to order m
    comes out exact to order 2m+1, so the sweeps run once at each of the
    doubling truncation orders 1, 3, 7, ..., z_order.
    The reciprocal of the slope is carried as a second Newton iterate,
    inv <- inv (2 - slope inv), one step a sweep: an inv exact to order m
    (against the slope of an f exact to order m) suffices for the step of
    f, and one step brings it to 2m+1.
    """
    if omega.z_order < z_order:
        omega = BivariateSeries(omega.coefficients, z_order, omega.eps_order)
    d_omega = omega.deps()
    f = TruncatedSeries.zero(0)
    inv = d_omega.eval_eps_series(f).reciprocal()
    for order in _newton_orders(0, z_order):
        f = f.extended(order)
        res = omega.eval_eps_series(f)
        slope = d_omega.eval_eps_series(f)
        inv = inv.extended(order)
        inv = inv * (2.0 - slope * inv)
        f = f - res * inv
    return f


def factor_family(spec: FamilySpec, z_order: int | None = None, choice: int = 0) -> FamilySpec:
    """Straighten a generic family to (z~^{k+1} - eps) v_eps(z~).

    ``choice`` selects among the k+1 admissible coordinate changes (they
    differ by the (k+1)-st roots of unity acting on g); 0 is the principal
    one.  The returned spec carries the factorisation data.

    The eps-truncation of v is set high enough that the weighted diagonal
    (the eigenvalue data) is exact up to ``z_order`` whenever the input
    family is polynomial in eps over its stored orders; genuinely truncated
    eps-data leaves the deepest coefficients approximate.
    """
    k = spec.k
    check_generic(spec)
    if z_order is None:
        z_order = spec.omega.z_order
    f = _solve_root_locus(spec.omega, z_order + k + 1)
    h = f.shift_down(k + 1).truncated(z_order)
    c0 = h[0]
    gamma = principal_root(c0, k + 1) * cmath.exp(2j * math.pi * choice / (k + 1))
    root = (h / c0).kth_root(k + 1)
    # g(z) = gamma * z * (h/h(0))^{1/(k+1)}
    g = (root.extended(z_order) * gamma).shift_up(1)
    omega = BivariateSeries(spec.omega.coefficients, z_order, spec.omega.eps_order)
    # g' rides as a last eps column, so one power table of g^{-1} composes both
    gprime = g.derivative().extended(z_order).coefficients
    both = BivariateSeries(np.column_stack([omega.coefficients, gprime])).compose_z(g.reversion())
    jac = TruncatedSeries(both.coefficients[:, -1])
    omega_t = BivariateSeries(both.coefficients[:, :-1]).mul_z(jac)
    # the eps columns past the stored ones are zero: the division pads them
    eps_work = spec.omega.eps_order + 1 + math.ceil((z_order + 1) / (k + 1))
    v = _divide_by_model(omega_t, k, eps_work)
    return replace(spec, factored=FactoredForm(g=g, v=v))


def _divide_by_model(omega_t: BivariateSeries, k: int, eps_order: int) -> BivariateSeries:
    """Exact division of a straightened family by (z^{k+1} - eps), to an
    ``eps_order`` at least that of omega~.

    Matching coefficients gives v_{m,n} = -sum_j omega~_{m-j(k+1), n+1+j};
    entries beyond the stored eps-order count as zero, which is exact for
    families polynomial in eps, and are not summed.  Every entry sums its
    terms in the order j = 0, 1, 2, ... from zero.
    """
    nz, ne = omega_t.z_order, omega_t.eps_order
    c = omega_t.coefficients
    acc = np.zeros((nz + 1, eps_order + 1), dtype=complex)
    for j in range(min(nz // (k + 1) + 1, ne)):
        acc[j * (k + 1) :, : ne - j] += c[: nz + 1 - j * (k + 1), 1 + j :]
    return BivariateSeries(-acc)


# ---------------------------------------------------------------------------
# eigenvalue functions
# ---------------------------------------------------------------------------


def eigenvalue_function(spec: FamilySpec, order: int = 32) -> EigenvalueFunction:
    """The natural eigenvalue function lambda(delta) = (k+1) delta^k v(delta, delta^{k+1}).

    A factored spec caps ``order`` at v.z_order + k - 1, the last order its
    v determines: ``factor_family`` pads g' with a zero at degree z_order.
    """
    if spec.factored is None:
        spec = factor_family(spec, z_order=order)
    k = spec.k
    order = min(order, spec.factored.v.z_order + k - 1)
    sigma = spec.factored.v.weighted_diagonal(k + 1, order - k)
    lam = (sigma.extended(order) * (k + 1)).shift_up(k)
    return EigenvalueFunction(k, lam)


def realize(ef: EigenvalueFunction) -> FamilySpec:
    """A family realizing a given eigenvalue function: (z^{k+1} - eps) sigma(z).

    Its z-order leaves room for the full product, so the family is stored
    exactly and a round trip through factor_family and eigenvalue_function
    reproduces lambda to its truncation.
    """
    k = ef.k
    sigma = ef.sigma
    z_order = ef.order + 1
    s = sigma.extended(z_order).coefficients
    c = np.zeros((z_order + 1, 2), dtype=complex)
    c[k + 1 :, 0] = s[: z_order - k]
    c[:, 1] = -s
    return FamilySpec(k=k, omega=BivariateSeries(c))


def residue_sum(ef: EigenvalueFunction) -> TruncatedSeries:
    """The analytic sum A(eps) of the reciprocals of the eigenvalues.

    1/lambda is a Laurent series from degree -k; summing over the roots of
    unity kills every exponent not divisible by k+1, so A is a power series
    in eps whose m-th coefficient is (k+1) times the Laurent coefficient of
    1/lambda at degree m(k+1).
    """
    k = ef.k
    u = ef.sigma.reciprocal() / (k + 1)  # 1/lambda = delta^{-k} u(delta)
    max_m = (u.order - k) // (k + 1)  # Laurent degree m(k+1) sits at u index m(k+1)+k
    if max_m < 0:
        raise ValueError("truncation order too small for any eps coefficient")
    idx = k + (k + 1) * np.arange(max_m + 1)
    return TruncatedSeries((k + 1) * u.coefficients[idx])


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalisation: lambda_canonical = lambda o h, and the
    compositional inverse of h."""

    h: TruncatedSeries
    h_inverse: TruncatedSeries
    lam: EigenvalueFunction
    linear_choices: np.ndarray

    @property
    def is_identity(self):
        ident = TruncatedSeries.identity(self.h.order)
        return bool(np.abs(self.h.coefficients - ident.coefficients).max() < 1e-12)


def canonicalize(ef: EigenvalueFunction) -> CanonicalForm:
    """Eliminate the removable coefficients of an eigenvalue function.

    First a linear rescale delta -> a delta normalises the leading
    coefficient to k+1 (k choices of a; the principal one is returned, all
    are listed).  Then the unique tangent-to-identity substitution
    h(eta) = eta g(eta^{k+1}) kills every coefficient of degree k + m(k+1),
    m >= 1: with sigma split into classes sum_j delta^j a_j(delta^{k+1}),
    the germ l(delta) = delta A(delta^{k+1}), A = a_0^{1/k} (k-th root
    fixing 1), satisfies l o h = id, so h is the compositional inverse of l.

    Both live in x = delta^{k+1}: l^{k+1} = L(delta^{k+1}) with
    L(x) = x a_0(x) A(x), and h(eta) = eta G(eta^{k+1}) with
    G = (L^{-1}(x)/x)^{1/(k+1)}, so the reversion and the roots run at order
    (N-1)//(k+1) for truncation order N.  h commutes with rotation by
    2 pi/(k+1), so lambda o h is composed class by class at order N//(k+1)
    in x (``series._compose_classes``).  The inverse of the returned map
    eta -> a h(eta) is delta -> l(delta/a), which costs nothing more.
    """
    k = ef.k
    order = ef.order
    s0 = ef.sigma[0]
    a = principal_root(1.0 / s0, k)
    linear_choices = a * np.exp(2j * math.pi * np.arange(k) / k)
    lam1 = ef.lam.scale_argument(a)
    sigma1 = lam1.shift_down(k).extended(order) / (k + 1)
    # exact high-order padding is justified because every reported
    # coefficient of lam o h below the truncation depends only on
    # lambda-coefficients below it
    m = (order - 1) // (k + 1)
    a0 = sigma1.class_split(k + 1)[0].truncated(m)
    root = a0.kth_root(k)
    ell_power = (a0 * root).extended(m + 1).shift_up(1)  # L(x)
    g = ell_power.reversion().shift_down(1).kth_root(k + 1)
    h = g.upsample(k + 1, order).shift_up(1)
    ell = root.upsample(k + 1, order).shift_up(1)
    lam_can = _compose_classes(lam1.coefficients, g.coefficients, k + 1)
    lam_can[_k_class(k)][1:] = 0.0  # the eliminated classes are O(roundoff)
    return CanonicalForm(
        h=h * a,
        h_inverse=ell.scale_argument(1 / a),
        lam=EigenvalueFunction(k, TruncatedSeries(lam_can)),
        linear_choices=linear_choices,
    )


def _unique_witness(roots, matches):
    """The one root for which ``matches`` holds, or None if there is none."""
    witnesses = [w for w in roots if matches(w)]
    if len(witnesses) > 1:
        raise AmbiguousMatch(witnesses)
    return witnesses[0] if witnesses else None


def equivalent_fixed_parameter(
    l1: EigenvalueFunction, l2: EigenvalueFunction, tol: float = 1e-9
):
    """Witness zeta with zeta^{k+1} = 1 and l2(delta) = l1(zeta delta), or None."""
    if l1.k != l2.k:
        raise ValueError("eigenvalue functions have different codimension")
    return _unique_witness(
        roots_of_unity(l1.k + 1),
        lambda zeta: series_distance(l1.lam.scale_argument(zeta), l2.lam) <= tol,
    )


def equivalent_full(l1: EigenvalueFunction, l2: EigenvalueFunction, tol: float = 1e-9):
    """Conjugacy with parameter change: nu with nu^k = 1 and xi with l1 = l2 o xi.

    Canonical forms are compared up to precomposition by the k-th roots of
    unity; the realizing substitution xi (an element of the symmetric group,
    commuting with rotation by 2 pi/(k+1)) is assembled from the two
    canonicalising maps.  Both commute with that rotation, h2 has terms in
    one class mod k+1 only, and h1^{-1}(delta) = delta G(delta^{k+1}), so
    xi is one class composition at order N//(k+1) (``series._compose_classes``).
    """
    if l1.k != l2.k:
        raise ValueError("eigenvalue functions have different codimension")
    c1 = canonicalize(l1)
    c2 = canonicalize(l2)
    nu = _unique_witness(
        roots_of_unity(l1.k),
        lambda nu: series_distance(c1.lam.lam.scale_argument(nu), c2.lam.lam) <= tol,
    )
    if nu is None:
        return None
    # l1 o h1 = c1, l2 o h2 = c2 and c2 = c1 o (nu .): xi = h2 o (nu^{-1} .) o h1^{-1}
    n = min(c1.h.order, c2.h.order)
    outer = c2.h.scale_argument(1 / nu).coefficients[: n + 1]
    xi = _compose_classes(outer, c1.h_inverse.coefficients[1 :: l1.k + 1], l1.k + 1)
    return nu, TruncatedSeries(xi)


def is_model_equivalent(ef: EigenvalueFunction) -> bool:
    """Whether the family is conjugate to the model z^{k+1} - eps.

    True iff lambda(delta) = delta^k sigma(delta^{k+1}), i.e. every
    coefficient at a degree not congruent to k mod k+1 vanishes.
    """
    c = ef.lam.coefficients
    scale = max(np.abs(c).max(), 1.0)
    foreign = np.delete(c, _k_class(ef.k))
    return bool(np.abs(foreign).max(initial=0.0) <= 1e-9 * scale)
