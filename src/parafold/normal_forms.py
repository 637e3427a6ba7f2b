"""Polynomial, rational and Kostov-type normal forms.

The polynomial form (z^{k+1} - eps) Q_eps(z) carries the degree-<=k
interpolant of sigma at the singular points; the rational form interpolates
1/sigma.  Both coefficient families are analytic in eps and are read off
exactly from the residue-class decomposition of sigma.  Kostov-type
data (monic centred P_eps over 1 + A(eps) z^k) is not constructed, only
checked for canonicity and uniqueness.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .series import (
    MAX_JSON_ORDER,
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

    def constant_term(self) -> TruncatedSeries:
        """Q_eps(0) = b_0(eps)."""
        return self.coefficients[0]

    def is_canonical(self) -> bool:
        """Whether Q_eps(0) is identically 1 (canonical parameter test)."""
        c0 = self.coefficients[0].coefficients
        ref = np.zeros_like(c0)
        ref[0] = 1.0
        return bool(np.abs(c0 - ref).max() <= 1e-10)

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


def _sigma_of(spec_or_sigma):
    if isinstance(spec_or_sigma, TruncatedSeries):
        return spec_or_sigma
    if isinstance(spec_or_sigma, EigenvalueFunction):
        return spec_or_sigma.sigma
    if spec_or_sigma.factored is None:
        raise ValueError("family is not factored")
    order = spec_or_sigma.factored.v.z_order + spec_or_sigma.k - 1
    return eigenvalue_function(spec_or_sigma, order=order).sigma


def polynomial_nf(spec_or_sigma, k: int | None = None, eps_order: int | None = 8) -> PolynomialNF:
    """Coefficients of the polynomial normal form (z^{k+1} - eps) Q_eps(z).

    A truncated sigma is a polynomial, so sigma(delta) = sum_j delta^j
    b_j(delta^{k+1}) holds identically, and Q_eps(z) = sum_j b_j(eps) z^j
    takes the values of sigma at the k+1 roots of delta^{k+1} = eps.  The
    b_j are the residue classes of sigma mod k+1, each truncated at
    ``eps_order`` unless it is None; a factored family gives sigma to every
    order its factorisation determines.
    """
    k = spec_or_sigma.k if k is None else k
    sigma = _sigma_of(spec_or_sigma)
    if sigma.order < k:
        raise ValueError(f"sigma to order {sigma.order} leaves b_{k} undetermined")
    parts = sigma.class_split(k + 1)
    if eps_order is not None:
        parts = [part.truncated(min(eps_order, part.order)) for part in parts]
    return PolynomialNF(k=k, coefficients=tuple(parts))


def rational_nf(spec_or_sigma, k: int | None = None, eps_order: int | None = 8) -> PolynomialNF:
    """Coefficients of the rational normal form (z^{k+1} - eps)/R_eps(z):
    the polynomial form of 1/sigma."""
    k = spec_or_sigma.k if k is None else k
    sigma = _sigma_of(spec_or_sigma)
    if not sigma.is_unit():
        raise NotAUnit("sigma must not vanish at the origin")
    nf = polynomial_nf(sigma.reciprocal(), k, eps_order)
    return PolynomialNF(k=nf.k, coefficients=nf.coefficients, kind="rational")


def lagrange_Q(sigma: TruncatedSeries, k: int, eps: complex) -> np.ndarray:
    """Coefficients of the degree-<=k polynomial Q_eps with Q_eps(delta) =
    sigma(delta) at the k+1 roots of delta^{k+1} = eps: the untruncated
    polynomial normal form at eps.  It is the unique interpolant for every
    eps != 0, however small, and the Taylor polynomial of sigma at 0.
    """
    return polynomial_nf(sigma, k, eps_order=None).eval_at(eps)


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


def poly_to_canonical_parameter(nf: PolynomialNF):
    """Renormalise the parameter so that Q_eps(0) = 1 identically.

    The change is (z, eps) -> (z Q_eps(0)^{1/k}, eps Q_eps(0)^{1+1/k}) with
    the root branch that is principal at eps = 0; the transformed
    coefficient series are b~_j = [c^{-1-j/k} b_j] o inverse-parameter-map.
    """
    k = nf.k
    c = nf.constant_term()
    if not c.is_unit():
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

    def is_canonical(self) -> bool:
        """Canonical parameter iff b_0(eps) = -eps identically."""
        c = self.b[0].coefficients
        ref = np.zeros_like(c)
        if len(ref) > 1:
            ref[1] = -1.0
        return bool(np.abs(c - ref).max() <= 1e-10)

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


def kostov_check(nf1: KostovNF, nf2: KostovNF):
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
        if all(series_distance(s1, s2) <= 1e-9 for s1, s2 in pairs):
            return m
    return None
