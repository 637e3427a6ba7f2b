"""Truncated complex power-series arithmetic.

Everything downstream (eigenvalue functions, canonical forms, normal forms)
reduces to coefficient manipulation of formal power series truncated at a
fixed order.  Series are immutable; every operation returns a new object and
the result order is the minimum of the operand orders, so a coefficient is
only ever reported when it is determined by the input data.

Coefficients are complex doubles.  A series is a *unit* when its constant
term exceeds ``UNIT_TOL`` in modulus.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

#: threshold below which a leading coefficient counts as zero
UNIT_TOL = 1e-12

#: largest truncation order, and codimension, that a JSON document may declare
MAX_JSON_ORDER = 1000

#: the scalar types that series arithmetic accepts as constants
SCALAR_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


class SeriesError(ValueError):
    """Base class for series precondition failures."""


class NotAUnit(SeriesError):
    """Constant term is (numerically) zero where an invertible one is needed."""


class NonZeroConstantTerm(SeriesError):
    """Inner series of a composition must vanish at the origin."""


class NotInvertible(SeriesError):
    """Linear coefficient is (numerically) zero, so no compositional inverse."""


class BadConstantTerm(SeriesError):
    """k-th root requires constant term 1."""


def json_field(data, name):
    """``data[name]`` of a JSON object; ValueError naming the field otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with field {name!r}, got {type(data).__name__}")
    if name not in data:
        raise ValueError(f"missing field {name!r}")
    return data[name]


def json_int(data, name, lo, hi):
    """``data[name]`` checked to be an integer in [lo, hi]."""
    value = json_field(data, name)
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"field {name!r} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def json_list(data, name, length=None):
    """``data[name]`` checked to be a list, of ``length`` entries if given."""
    entries = json_field(data, name)
    if not isinstance(entries, list):
        raise ValueError(f"field {name!r} must be a list, got {type(entries).__name__}")
    if length is not None and len(entries) != length:
        raise ValueError(f"field {name!r} must hold {length} entries, got {len(entries)}")
    return entries


def _json_complex(entry):
    """complex(re, im) of a coefficient entry; both parts optional.  The bound
    refuses nan, inf and integers too large for a float."""
    parts = []
    for name in ("re", "im"):
        x = entry.get(name, 0.0)
        if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise ValueError(f"field {name!r} must be a finite number, got {x!r}")
        parts.append(x)
    return complex(*parts)


def _mul_raw(a, b):
    n = min(len(a), len(b))
    return np.convolve(a[:n], b[:n])[:n]


def _newton_orders(start, n, gain=1):
    """Truncation orders of a Newton iteration whose iterate is exact to
    order ``start``: each sweep takes an iterate exact to order m to one
    exact to 2m + gain, up to n.  One sweep runs at n: the iterate it starts
    from is exact to order n/2, so it resolves order n, and a start already
    at n gets that one sweep."""
    orders = []
    while start < n:
        start = min(2 * start + gain, n)
        orders.append(start)
    return orders or [n]


def _pow_raw(c, e):
    """c^e for an integer e >= 0 by binary powering; c itself when e = 1."""
    if e == 0:
        return np.eye(1, len(c), dtype=complex)[0]
    result = None
    while True:
        if e & 1:
            result = c if result is None else _mul_raw(result, c)
        e >>= 1
        if not e:
            return result
        c = _mul_raw(c, c)


def _reciprocal_raw(c):
    """1/c by Newton's inv <- inv (2 - c inv) at doubling orders."""
    n = len(c) - 1
    inv = np.zeros(n + 1, dtype=complex)
    inv[0] = 1.0 / c[0]
    for order in _newton_orders(0, n):
        corr = -_mul_raw(c[: order + 1], inv[: order + 1])
        corr[0] += 2.0
        inv[: order + 1] = _mul_raw(inv[: order + 1], corr)
    return inv


def _valuation(c):
    """Degree of the first nonzero coefficient of c; len(c) if there is none."""
    nonzero = np.flatnonzero(c)
    return int(nonzero[0]) if len(nonzero) else len(c)


def _power_table(inner, n):
    """Rows inner^0 .. inner^m truncated at order n, m = isqrt(n+1): the
    baby steps of ``_compose_table``.  With v the valuation of inner, read
    off its coefficients, row i vanishes below degree i v, and each product
    runs over the degrees from i v up only; a nonzero constant term gives
    v = 0 and products at full length."""
    m = math.isqrt(n + 1)
    table = np.zeros((m + 1, n + 1), dtype=complex)
    table[0, 0] = 1.0
    table[1] = inner[: n + 1]
    v = _valuation(table[1])
    for i in range(2, m + 1):
        lo = i * v
        if lo > n:
            break
        table[i, lo:] = _mul_raw(table[i - 1, lo - v : n + 1 - v], table[1, v:])
    return table


def _compose_table(outer, table):
    """outer(inner) truncated at the table's order n, by Brent and Kung's
    baby steps and giant steps: the blocks of m coefficients of outer are
    taken against inner^0 .. inner^{m-1} in one matrix product, and summed
    by Horner in the giant step inner^m, about n/m products.  Block b is
    multiplied by inner^{mb}, so with w the valuation of inner^m the Horner
    sum keeps n+1 - bw coefficients at block b."""
    m, width = table.shape[0] - 1, table.shape[1]
    blocks = np.zeros((-(-width // m), m), dtype=complex)
    blocks.flat[:width] = outer[:width]
    parts = blocks @ table[:m]
    giant = table[m]
    w = _valuation(giant)
    acc = parts[-1, : max(width - (len(parts) - 1) * w, 0)]
    for b in range(len(parts) - 2, -1, -1):
        keep = max(width - b * w, 0)
        step = parts[b, :keep].copy()
        if keep > w:
            step[w:] += _mul_raw(acc, giant[w:keep])
        acc = step
    return acc


def _compose_raw(outer, inner):
    """outer(inner) truncated at the shorter order, inner used as given (its
    constant term included): one power table, then ``_compose_table``."""
    return _compose_table(outer, _power_table(inner, min(len(outer), len(inner)) - 1))


def _compose_classes(outer, g, modulus):
    """outer(y) at y = eta g(eta^q), q = ``modulus``, truncated at outer's
    order n.  Such a y commutes with rotation by 2 pi/q.  With outer split
    into classes, outer(y) = sum_j y^j a_j(y^q), and x = eta^q,

        outer(y) = sum_j eta^j g(x)^j a_j(x g(x)^q):

    every class is composed at order n//q in x, all from one power table of
    x g(x)^q, and a class of outer that is all zero costs nothing.  g must
    be known to order (n-1)//q; it is zero-padded past that."""
    n = len(outer) - 1
    top = n // modulus
    g = g[: top + 1]
    g = np.concatenate([g, np.zeros(top + 1 - len(g), dtype=complex)])
    powers = [None, g]  # g^0 is never multiplied by
    for _ in range(2, modulus + 1):
        powers.append(_mul_raw(powers[-1], g))
    inner = np.zeros(top + 1, dtype=complex)
    inner[1:] = powers[modulus][:top]
    table = _power_table(inner, top)
    out = np.zeros(n + 1, dtype=complex)
    for j in range(modulus):
        a = outer[j::modulus]
        if not a.any():
            continue
        part = np.zeros(top + 1, dtype=complex)
        part[: len(a)] = a
        part = _compose_table(part, table)
        if j:
            part = _mul_raw(part, powers[j])
        out[j::modulus] = part[: len(a)]
    return out


class TruncatedSeries:
    """A power series sum_{n<=N} c_n x^n known exactly up to degree N."""

    __slots__ = ("_c",)

    def __init__(self, coefficients, order=None):
        c = np.asarray(coefficients, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficient array must be one-dimensional")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(c) < order + 1:
                c = np.concatenate([c, np.zeros(order + 1 - len(c), dtype=complex)])
            else:
                c = c[: order + 1]
        self._c = c.copy()
        self._c.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls(np.zeros(order + 1, dtype=complex))

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def identity(cls, order):
        """The series x."""
        c = np.zeros(order + 1, dtype=complex)
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def monomial(cls, degree, order, value=1.0):
        c = np.zeros(order + 1, dtype=complex)
        c[degree] = value
        return cls(c)

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self):
        return len(self._c) - 1

    @property
    def coefficients(self):
        return self._c

    def __getitem__(self, n):
        return self._c[n]

    def __len__(self):
        return len(self._c)

    def __repr__(self):
        head = ", ".join(f"{c:.4g}" for c in self._c[:5])
        tail = ", ..." if self.order > 4 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def is_unit(self):
        return abs(self._c[0]) > UNIT_TOL

    def truncated(self, order):
        """Restriction to a lower order (raises if asked to extend)."""
        if order > self.order:
            raise ValueError("cannot truncate upward; use extended()")
        return TruncatedSeries(self._c[: order + 1])

    def extended(self, order):
        """Zero-pad up to ``order``.

        The added coefficients are a statement that the caller knows them to
        vanish (e.g. polynomial data); this is not a truncation-safe
        operation in general.
        """
        if order < self.order:
            return self.truncated(order)
        return TruncatedSeries(self._c, order)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, SCALAR_TYPES):
            return TruncatedSeries.constant(complex(other), self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(self._c[: n + 1] + other._c[: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self._c)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(_mul_raw(self._c, other._c))
        if isinstance(other, SCALAR_TYPES):
            return TruncatedSeries(self._c * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)) or exponent < 0:
            raise ValueError("only non-negative integer powers")
        return TruncatedSeries(_pow_raw(self._c, int(exponent)))

    # -- calculus / structural helpers --------------------------------------

    def derivative(self):
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(self._c[1:] * np.arange(1, self.order + 1))

    def shift_up(self, s):
        """Multiply by x^s, truncating at the same order."""
        c = np.zeros(self.order + 1, dtype=complex)
        c[s:] = self._c[: self.order + 1 - s]
        return TruncatedSeries(c)

    def shift_down(self, s):
        """Divide by x^s; the dropped low coefficients must be negligible."""
        scale = max(np.abs(self._c).max(), 1.0)
        if s > 0 and np.abs(self._c[:s]).max() > 1e-9 * scale:
            raise SeriesError(f"series is not divisible by x^{s}")
        return TruncatedSeries(self._c[s:])

    def scale_argument(self, factor):
        """Precompose with x -> factor*x."""
        return TruncatedSeries(self._c * complex(factor) ** np.arange(self.order + 1))

    def upsample(self, m, order=None):
        """Interpret a series in zeta as a series in x^m (zeta = x^m)."""
        n = self.order if order is None else order
        c = np.zeros(n + 1, dtype=complex)
        top = min(self.order, n // m)
        c[: (top * m) + 1 : m] = self._c[: top + 1]
        return TruncatedSeries(c)

    def __call__(self, x):
        """Numerical evaluation by Horner's rule (scalars or arrays)."""
        acc = np.zeros_like(np.asarray(x, dtype=complex))
        for c in self._c[::-1]:
            acc = acc * x + c
        return acc if acc.shape else complex(acc)

    # -- the nontrivial operations ------------------------------------------

    def reciprocal(self):
        """Multiplicative inverse; requires a unit."""
        if not self.is_unit():
            raise NotAUnit(f"constant term {self._c[0]!r} is below tolerance")
        return TruncatedSeries(_reciprocal_raw(self._c))

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        if isinstance(other, SCALAR_TYPES):
            return TruncatedSeries(self._c / complex(other))
        return NotImplemented

    def compose(self, inner):
        """self(inner(x)), requiring inner(0) = 0."""
        if abs(inner._c[0]) > UNIT_TOL:
            raise NonZeroConstantTerm("inner series must vanish at the origin")
        n = min(self.order, inner.order)
        return TruncatedSeries(_compose_raw(self._c[: n + 1], inner._c[: n + 1]))

    def reversion(self):
        """Compositional inverse g with self(g(x)) = x.

        Newton iteration on the composition equation, g <- g - (self(g) - x) g',
        with g' in place of 1/self'(g): each sweep is one composition (one
        power table of g) and one product.  An iterate exact to order m
        comes out exact to order 2m, so the sweeps run once at each of the
        truncation orders 2, 4, 8, ..., n.
        """
        if abs(self._c[0]) > UNIT_TOL:
            raise NonZeroConstantTerm("series must vanish at the origin")
        if len(self._c) < 2 or abs(self._c[1]) <= UNIT_TOL:
            raise NotInvertible("linear coefficient is numerically zero")
        n = self.order
        g = np.zeros(n + 1, dtype=complex)
        g[1] = 1.0 / self._c[1]
        slope = np.zeros(n + 1, dtype=complex)
        for order in _newton_orders(1, n, gain=0):
            residual = _compose_raw(self._c[: order + 1], g[: order + 1])
            residual[1] -= 1.0
            slope[:order] = g[1 : order + 1] * np.arange(1, order + 1)
            g[: order + 1] -= _mul_raw(residual, slope[: order + 1])
        return TruncatedSeries(g)

    def kth_root(self, k):
        """The branch of the k-th root with value 1 at the origin.

        Requires constant term 1 (callers normalise first).  Newton for the
        inverse root y = self^{-1/k}, y <- y + y (1 - self y^k)/k, needs no
        reciprocal; it runs once at each of the doubling truncation orders
        1, 3, 7, ..., n.  The root x = self y^{k-1} is polished once at full
        order, x <- x + (self - x^k) y^{k-1}/k.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if abs(self._c[0] - 1.0) > 1e-9:
            raise BadConstantTerm(f"constant term {self._c[0]!r} != 1")
        if k == 1:
            return self
        s = self._c
        y = np.zeros(len(s), dtype=complex)
        y[0] = 1.0
        for order in _newton_orders(0, self.order):
            corr = -_mul_raw(s[: order + 1], _pow_raw(y[: order + 1], k))
            corr[0] += 1.0
            y[: order + 1] += _mul_raw(y[: order + 1], corr) / k
        y_pow = _pow_raw(y, k - 1)
        x = _mul_raw(s, y_pow)
        return TruncatedSeries(x + _mul_raw(s - _pow_raw(x, k), y_pow) / k)

    def class_split(self, modulus):
        """Group coefficients by residue class of the exponent.

        Returns parts a_0..a_{modulus-1} with
        ``self(x) = sum_j x^j a_j(x^modulus)``.
        """
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        return [TruncatedSeries(self._c[j::modulus]) for j in range(modulus)]

    # -- serialization -------------------------------------------------------

    def to_dict(self, zero_tol=0.0):
        entries = [
            {"deg": int(d), "re": float(c.real), "im": float(c.imag)}
            for d, c in enumerate(self._c)
            if abs(c) > zero_tol
        ]
        return {"truncation": self.order, "coefficients": entries}

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; ValueError names the first malformed field."""
        order = json_int(data, "truncation", 0, MAX_JSON_ORDER)
        c = np.zeros(order + 1, dtype=complex)
        for entry in json_list(data, "coefficients"):
            deg = json_int(entry, "deg", 0, order)
            c[deg] = _json_complex(entry)
        return cls(c)


def class_join(parts, modulus, order):
    """Inverse of class_split: rebuild sum_j x^j a_j(x^modulus)."""
    c = np.zeros(order + 1, dtype=complex)
    for j, part in enumerate(parts):
        idx = j + modulus * np.arange(part.order + 1)
        keep = idx <= order
        c[idx[keep]] = part.coefficients[keep]
    return TruncatedSeries(c)


class BivariateSeries:
    """Series sum c_{m,n} z^m eps^n truncated at orders (Nz, Neps).

    Used for one-parameter families omega_eps(z).  Coefficients live in an
    (Nz+1, Neps+1) array.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients, z_order=None, eps_order=None):
        c = np.asarray(coefficients, dtype=complex)
        if c.ndim != 2:
            raise ValueError("coefficient array must be two-dimensional")
        nz = c.shape[0] - 1 if z_order is None else z_order
        ne = c.shape[1] - 1 if eps_order is None else eps_order
        full = np.zeros((nz + 1, ne + 1), dtype=complex)
        src = c[: nz + 1, : ne + 1]
        full[: src.shape[0], : src.shape[1]] = src
        self._c = full
        self._c.flags.writeable = False

    @classmethod
    def zero(cls, z_order, eps_order):
        return cls(np.zeros((z_order + 1, eps_order + 1), dtype=complex))

    @property
    def z_order(self):
        return self._c.shape[0] - 1

    @property
    def eps_order(self):
        return self._c.shape[1] - 1

    @property
    def coefficients(self):
        return self._c

    def __getitem__(self, mn):
        m, n = mn
        return self._c[m, n]

    def __call__(self, z, eps):
        """Numerical evaluation (Horner in both variables)."""
        acc = 0.0 + 0.0j
        for m in range(self.z_order, -1, -1):
            row = 0.0 + 0.0j
            for n in range(self.eps_order, -1, -1):
                row = row * eps + self._c[m, n]
            acc = acc * z + row
        return acc

    def deps(self):
        """Partial derivative in eps."""
        if self.eps_order == 0:
            return BivariateSeries.zero(self.z_order, 0)
        return BivariateSeries(self._c[:, 1:] * np.arange(1, self.eps_order + 1)[None, :])

    def eval_eps_series(self, f):
        """Substitute eps -> f(z); returns a univariate series in z.

        Exact for families polynomial in eps (the stored eps-order is the
        eps-degree); otherwise correct to the usual truncation caveats.
        """
        n = min(self.z_order, f.order)
        acc = TruncatedSeries(self._c[: n + 1, self.eps_order])
        ftr = TruncatedSeries(f.coefficients[: n + 1])
        for q in range(self.eps_order - 1, -1, -1):
            acc = acc * ftr + TruncatedSeries(self._c[: n + 1, q])
        return acc

    def compose_z(self, inner):
        """Substitute z -> inner(z~) slice by slice in eps, all slices from
        one power table of inner."""
        if abs(inner.coefficients[0]) > UNIT_TOL:
            raise NonZeroConstantTerm("inner series must vanish at the origin")
        nz = min(self.z_order, inner.order)
        table = _power_table(inner.coefficients, nz)
        out = np.zeros((nz + 1, self.eps_order + 1), dtype=complex)
        for n in range(self.eps_order + 1):
            out[:, n] = _compose_table(self._c[:, n], table)
        return BivariateSeries(out)

    def mul_z(self, factor):
        """Multiply every eps-slice by a univariate series in z."""
        nz = min(self.z_order, factor.order)
        out = np.zeros((nz + 1, self.eps_order + 1), dtype=complex)
        for n in range(self.eps_order + 1):
            out[:, n] = _mul_raw(self._c[:, n], factor.coefficients)
        return BivariateSeries(out)

    def weighted_diagonal(self, weight, order):
        """Substitute (z, eps) -> (d, d^weight); series in d.

        Coefficient of d^s collects all c_{m,n} with m + weight*n = s.
        """
        c = np.zeros(order + 1, dtype=complex)
        for n in range(self.eps_order + 1):
            base = weight * n
            if base > order:
                break
            top = min(self.z_order, order - base)
            c[base : base + top + 1] += self._c[: top + 1, n]
        return TruncatedSeries(c)

    def to_dict(self, zero_tol=0.0):
        entries = []
        for m in range(self.z_order + 1):
            for n in range(self.eps_order + 1):
                c = self._c[m, n]
                if abs(c) > zero_tol:
                    entries.append(
                        {"m": m, "n": n, "re": float(c.real), "im": float(c.imag)}
                    )
        return {"Nz": self.z_order, "Neps": self.eps_order, "coefficients": entries}

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; ValueError names the first malformed field."""
        nz = json_int(data, "Nz", 0, MAX_JSON_ORDER)
        ne = json_int(data, "Neps", 0, MAX_JSON_ORDER)
        c = np.zeros((nz + 1, ne + 1), dtype=complex)
        for entry in json_list(data, "coefficients"):
            m, n = json_int(entry, "m", 0, nz), json_int(entry, "n", 0, ne)
            c[m, n] = _json_complex(entry)
        return cls(c)


def series_distance(s1: TruncatedSeries, s2: TruncatedSeries) -> float:
    """Largest coefficient difference over their common order, each relative
    to max(1, |a_n|, |b_n|)."""
    n = min(s1.order, s2.order)
    a, b = s1.coefficients[: n + 1], s2.coefficients[: n + 1]
    weight = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / weight).max())


def roots_of_unity(n):
    """e^{2 pi i m/n} for m = 0..n-1, each from the scalar ``cmath.exp`` so
    that the last bit does not depend on an array kernel."""
    return [cmath.exp(2j * math.pi * m / n) for m in range(n)]


def principal_root(value, k):
    """Principal k-th root of a nonzero complex number."""
    if value == 0:
        raise ValueError("principal root of zero")
    return cmath.exp(cmath.log(value) / k)
