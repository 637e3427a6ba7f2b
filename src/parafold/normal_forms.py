"""Polynomial, rational and Kostov-type normal forms.

The polynomial form (z^{k+1} - eps) Q_eps(z) carries the degree-<=k
interpolant of sigma at the singular points; the rational form interpolates
1/sigma.  Both coefficient families are analytic in eps and are recovered
exactly from the residue-class decomposition of sigma, with circle-sampled
Lagrange interpolation kept as an independent pointwise oracle.  Kostov-type
data (monic centred P_eps over 1 + A(eps) z^k) is not constructed, only
checked for canonicity and uniqueness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelField, singularities
from .series import (
    MAX_JSON_ORDER,
    UNIT_TOL,
    NotAUnit,
    TruncatedSeries,
    json_field,
    json_int,
    json_list,
    roots_of_unity,
    series_distance,
)
from .unfolding import EigenvalueFunction, eigenvalue_function


class NotCanonical(ValueError):
    """Kostov data does not satisfy b_0(eps) = -eps."""


# ---------------------------------------------------------------------------
# Lagrange / Hermite interpolation at the singular points
# ---------------------------------------------------------------------------


def _hermite_divided_differences(values_fn, derivs_fn, nodes, coalesce_tol):
    """Newton divided-difference coefficients with confluent nodes.

    ``derivs_fn(x, m)`` must return f^(m)(x)/m!; equal nodes (within the
    coalescence threshold) take the Hermite limit.
    """
    n = len(nodes)
    x = np.asarray(nodes, dtype=complex)
    scale = max(np.abs(x).max(initial=0.0), 1e-300)
    # group nearly-equal nodes and snap each group to its mean
    order = np.lexsort((x.imag, x.real))
    x = x[order]
    groups = []
    for xi in x:
        if groups and abs(xi - groups[-1][0]) < coalesce_tol * scale:
            groups[-1][1].append(xi)
        else:
            groups.append([xi, [xi]])
    xs = []
    for g in groups:
        center = np.mean(g[1])
        xs.extend([center] * len(g[1]))
    xs = np.array(xs)
    table = np.zeros((n, n), dtype=complex)
    for i in range(n):
        table[i, i] = values_fn(xs[i])
    for width in range(1, n):
        for i in range(n - width):
            j = i + width
            if xs[i] == xs[j]:
                table[i, j] = derivs_fn(xs[i], width)
            else:
                table[i, j] = (table[i + 1, j] - table[i, j - 1]) / (xs[j] - xs[i])
    return xs, table[0, :]


def lagrange_Q(
    sigma: TruncatedSeries,
    k: int,
    eps: complex,
    nodes=None,
    coalesce_tol: float = 1e-4,
) -> np.ndarray:
    """The unique degree-<=k polynomial with Q(delta_i) = sigma(delta_i).

    The nodes default to the k+1 roots of delta^{k+1} = eps; near (or at)
    node coalescence the interpolant is computed by confluent divided
    differences, whose limit is the Taylor polynomial of sigma.  Nodes are
    sorted internally, so any permutation of an explicit node list yields
    the identical result.
    """
    if nodes is None:
        if eps == 0:
            nodes = np.zeros(k + 1, dtype=complex)
        else:
            nodes = singularities(ModelField(k, eps))
    if len(nodes) != k + 1:
        raise ValueError("need exactly k+1 interpolation nodes")

    taylor_cache = {}

    def taylor(x, m):
        # coefficient of (z-x)^m in the expansion of sigma around x
        key = complex(x)
        if key not in taylor_cache:
            vals = []
            d = sigma
            fact = 1.0
            for row in range(sigma.order + 1):
                vals.append(d(key) / fact)
                d = d.derivative()
                fact *= row + 1
            taylor_cache[key] = vals
        return taylor_cache[key][m] if m <= sigma.order else 0j

    xs, dd = _hermite_divided_differences(
        values_fn=lambda x: sigma(x),
        derivs_fn=taylor,
        nodes=nodes,
        coalesce_tol=coalesce_tol,
    )
    # expand Newton form sum dd_i prod_{j<i}(z - x_j)
    coeffs = np.zeros(k + 1, dtype=complex)
    basis = np.zeros(k + 1, dtype=complex)
    basis[0] = 1.0
    for i in range(k + 1):
        coeffs += dd[i] * basis
        if i + 1 <= k:
            new = np.zeros(k + 1, dtype=complex)
            new[1:] = basis[:-1]
            basis = new - xs[i] * basis
    return coeffs


def lagrange_Q_determinant(sigma, k, eps, nodes=None) -> np.ndarray:
    """Same interpolant via the Vandermonde determinant identity (oracle).

    The default nodes are the roots of delta^{k+1} = eps, so eps = 0 raises
    ``DegenerateParameter``.
    """
    nodes = singularities(ModelField(k, eps)) if nodes is None else np.asarray(nodes, dtype=complex)
    vander = np.vander(nodes, k + 1, increasing=True)
    values = np.array([sigma(x) for x in nodes])
    return np.linalg.solve(vander, values)


# ---------------------------------------------------------------------------
# coefficient families in eps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialNF:
    """Coefficient series b_j(eps) of Q_eps (or R_eps for the rational form)."""

    k: int
    coefficients: tuple
    kind: str = "polynomial"

    def __post_init__(self):
        if len(self.coefficients) != self.k + 1:
            raise ValueError("need k+1 coefficient series")

    @property
    def eps_order(self):
        return min(c.order for c in self.coefficients)

    def constant_term(self) -> TruncatedSeries:
        """Q_eps(0) = b_0(eps)."""
        return self.coefficients[0]

    def is_canonical(self, tol: float = 1e-10) -> bool:
        """Whether Q_eps(0) is identically 1 (canonical parameter test)."""
        c0 = self.coefficients[0].coefficients
        ref = np.zeros_like(c0)
        ref[0] = 1.0
        return bool(np.abs(c0 - ref).max() <= tol)

    def eval_at(self, eps: complex) -> np.ndarray:
        return np.array([c(eps) for c in self.coefficients])

    def to_dict(self):
        return {
            "k": self.k,
            "kind": self.kind,
            "canonical": self.is_canonical(),
            "coefficients": [c.to_dict() for c in self.coefficients],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; ValueError names the first malformed field."""
        k = json_int(data, "k", 1, MAX_JSON_ORDER)
        series = json_list(data, "coefficients", k + 1)
        kind = data.get("kind", "polynomial")
        if kind not in ("polynomial", "rational"):
            raise ValueError(f"field 'kind' must be 'polynomial' or 'rational', got {kind!r}")
        return cls(k=k, coefficients=tuple(TruncatedSeries.from_dict(c) for c in series), kind=kind)


def _sigma_of(spec_or_sigma, sigma_order=32):
    if isinstance(spec_or_sigma, TruncatedSeries):
        return spec_or_sigma
    if isinstance(spec_or_sigma, EigenvalueFunction):
        return spec_or_sigma.sigma
    spec = spec_or_sigma
    return eigenvalue_function(spec, order=sigma_order + spec.k).sigma


def _split_coefficients(sigma: TruncatedSeries, k: int, eps_order) -> tuple:
    parts = sigma.class_split(k + 1)
    out = []
    for j, part in enumerate(parts):
        n = part.order if eps_order is None else min(eps_order, part.order)
        out.append(part.truncated(n))
    return tuple(out)


def _sampled_coefficients(sigma, k, eps_order, radii=(1e-2, 1e-3)) -> tuple:
    """Coefficient series by circle sampling and discrete Fourier projection.

    Kept as an independent (if noise-amplifying for high orders) route; the
    two radii provide the consistency check.
    """
    m_samples = 4 * (eps_order + 1)
    estimates = []
    for rho in radii:
        phis = 2 * math.pi * np.arange(m_samples) / m_samples
        qs = np.array(
            [lagrange_Q(sigma, k, rho * cmath.exp(1j * p)) for p in phis]
        )  # (samples, k+1)
        est = np.empty((k + 1, eps_order + 1), dtype=complex)
        for m in range(eps_order + 1):
            est[:, m] = (qs * np.exp(-1j * m * phis)[:, None]).mean(axis=0) / rho**m
        estimates.append(est)
    consistency = float(np.abs(estimates[0] - estimates[1]).max())
    series = tuple(TruncatedSeries(estimates[0][j]) for j in range(k + 1))
    return series, consistency


def polynomial_nf(
    spec_or_sigma,
    k: int | None = None,
    eps_order: int | None = 8,
    method: str = "split",
) -> PolynomialNF:
    """Coefficients of the polynomial normal form (z^{k+1} - eps) Q_eps(z).

    The identity sigma(delta) = sum_j delta^j b_j(delta^{k+1}) determines
    Q_eps exactly (``split``); ``sampled`` reconstructs the series from
    Lagrange data on parameter circles instead and cross-checks two radii.
    """
    return _normal_form(spec_or_sigma, k, eps_order, method, "polynomial")


def rational_nf(
    spec_or_sigma,
    k: int | None = None,
    eps_order: int | None = 8,
    method: str = "split",
) -> PolynomialNF:
    """Coefficients of the rational normal form (z^{k+1} - eps)/R_eps(z).

    Identical pipeline with target values 1/sigma(delta_i).
    """
    return _normal_form(spec_or_sigma, k, eps_order, method, "rational")


def _normal_form(spec_or_sigma, k, eps_order, method, kind) -> PolynomialNF:
    """The pipeline of both forms: the rational one interpolates 1/sigma."""
    if k is None:
        k = spec_or_sigma.k
    target = _sigma_of(spec_or_sigma)
    if kind == "rational":
        if not target.is_unit():
            raise NotAUnit("sigma must not vanish at the origin")
        target = target.reciprocal()
    if method == "split":
        coeffs = _split_coefficients(target, k, eps_order)
    elif method == "sampled":
        coeffs, _ = _sampled_coefficients(target, k, 4 if eps_order is None else eps_order)
    else:
        raise ValueError("method must be 'split' or 'sampled'")
    return PolynomialNF(k=k, coefficients=coeffs, kind=kind)


@dataclass(frozen=True)
class ParameterChange:
    """(z, eps) -> (z * zfactor(eps), eps_map(eps)) with analytic inverse."""

    z_factor: TruncatedSeries
    eps_map: TruncatedSeries
    eps_inverse: TruncatedSeries

    @property
    def is_identity(self):
        ident = TruncatedSeries.identity(self.eps_map.order)
        one = TruncatedSeries.constant(1.0, self.z_factor.order)
        return bool(
            np.abs(self.eps_map.coefficients - ident.coefficients).max() < 1e-12
            and np.abs(self.z_factor.coefficients - one.coefficients).max() < 1e-12
        )


def poly_to_canonical_parameter(nf: PolynomialNF, tol: float = UNIT_TOL):
    """Renormalise the parameter so that Q_eps(0) = 1 identically.

    The change is (z, eps) -> (z Q_eps(0)^{1/k}, eps Q_eps(0)^{1+1/k}) with
    the root branch that is principal at eps = 0; the transformed
    coefficient series are b~_j = [c^{-1-j/k} b_j] o inverse-parameter-map.
    """
    k = nf.k
    c = nf.constant_term()
    if not c.is_unit(tol):
        raise NotAUnit("Q_0(0) must be nonzero")
    c0 = c[0]
    unit = c / c0
    root = unit.kth_root(k) * cmath.exp(cmath.log(c0) / k)  # c^{1/k}, principal at 0
    eps_map = (c * root).shift_up(1)  # eps * c^{1+1/k}
    eps_inv = eps_map.reversion()
    root_inv = root.reciprocal()
    c_inv = c.reciprocal()
    new_coeffs = []
    factor = c_inv  # c^{-1-j/k}, advanced by root_inv each degree
    for j in range(k + 1):
        new_coeffs.append((factor * nf.coefficients[j]).compose(eps_inv))
        factor = factor * root_inv
    change = ParameterChange(z_factor=root, eps_map=eps_map, eps_inverse=eps_inv)
    return change, PolynomialNF(k=k, coefficients=tuple(new_coeffs), kind=nf.kind)


# ---------------------------------------------------------------------------
# Kostov-type data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KostovNF:
    """Data of z' = P_eps(z)/(1 + A(eps) z^k), P monic centred, P_0 = z^{k+1}."""

    k: int
    b: tuple  # b_0..b_{k-1} as series in eps
    A: TruncatedSeries

    def __post_init__(self):
        if len(self.b) != self.k:
            raise ValueError("need k coefficient series b_0..b_{k-1}")

    def is_canonical(self, tol: float = 1e-10) -> bool:
        """Canonical parameter iff b_0(eps) = -eps identically."""
        c = self.b[0].coefficients
        ref = np.zeros_like(c)
        if len(ref) > 1:
            ref[1] = -1.0
        return bool(np.abs(c - ref).max() <= tol)

    def rotated(self, nu: complex) -> "KostovNF":
        """The data after (z, eps) -> (nu z, nu eps)."""
        new_b = tuple(
            (self.b[j] * nu ** (1 - j)).scale_argument(1.0 / nu) for j in range(self.k)
        )
        return KostovNF(k=self.k, b=new_b, A=self.A.scale_argument(1.0 / nu))

    def to_dict(self):
        return {
            "k": self.k,
            "b": [s.to_dict() for s in self.b],
            "A": self.A.to_dict(),
            "canonical": self.is_canonical(),
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; ValueError names the first malformed field."""
        k = json_int(data, "k", 1, MAX_JSON_ORDER)
        b = tuple(TruncatedSeries.from_dict(s) for s in json_list(data, "b", k))
        return cls(k=k, b=b, A=TruncatedSeries.from_dict(json_field(data, "A")))


def kostov_check(nf1: KostovNF, nf2: KostovNF, tol: float = 1e-9):
    """Uniqueness check for canonical Kostov data.

    Two canonical tuples describe conjugate families iff they match under
    (z, eps) -> (nu z, nu eps) for some k-th root of unity nu = e^{2 pi i m/k}:
    b_j(eps) = nu^{j-1} c_j(nu eps) and A(eps) = A~(nu eps).  Returns the
    smallest such m, or None.
    """
    if nf1.k != nf2.k:
        raise ValueError("codimension mismatch")
    for nf in (nf1, nf2):
        if not nf.is_canonical():
            raise NotCanonical("b_0(eps) must equal -eps")
    for m, nu in enumerate(roots_of_unity(nf1.k)):
        pairs = [(nf1.A, nf2.A.scale_argument(nu))] + [
            (b1, b2.scale_argument(nu) * nu ** (j - 1))
            for j, (b1, b2) in enumerate(zip(nf1.b, nf2.b))
        ]
        if all(series_distance(s1, s2) <= tol for s1, s2 in pairs):
            return m
    return None
