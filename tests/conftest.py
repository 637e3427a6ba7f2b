import cmath
import contextlib
import io
import math

import numpy as np

from parafold import cli
from parafold.model import ModelField, singularities

_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def quad_rectify(fld, z):
    """int_0^z dz/(z^{k+1}-eps) by adaptive quadrature along the segment
    [0, z]: the independent oracle of ``model.rectify``."""
    from scipy.integrate import quad

    def integrand(s):
        return z / fld.rhs(s * z)

    val, _ = quad(integrand, 0.0, 1.0, complex_func=True, limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def vandermonde_Q(sigma, k, eps):
    """Q_eps by a Vandermonde solve at the roots of delta^{k+1} = eps: the
    independent oracle of ``normal_forms.lagrange_Q`` (eps = 0 raises
    ``DegenerateParameter``)."""
    nodes = singularities(ModelField(k, eps))
    values = np.array([sigma(x) for x in nodes])
    return np.linalg.solve(np.vander(nodes, k + 1, increasing=True), values)


def sampled_nf(sigma, k, eps_order):
    """The coefficient series of Q_eps up to ``eps_order``, one (k+1,
    eps_order+1) array for each of the radii 1e-2 and 1e-3: ``vandermonde_Q``
    on a parameter circle, projected onto eps^m by a discrete Fourier sum.
    The independent oracle of the class split in ``normal_forms.polynomial_nf``."""
    n = 4 * (eps_order + 1)
    phis = 2 * math.pi * np.arange(n) / n
    m = np.arange(eps_order + 1)
    estimates = []
    for rho in (1e-2, 1e-3):
        qs = np.array([vandermonde_Q(sigma, k, rho * cmath.exp(1j * p)) for p in phis])
        estimates.append(qs.T @ np.exp(-1j * np.outer(phis, m)) / (n * rho**m))
    return estimates


def horner_compose(outer, inner):
    """outer(inner) truncated at the shorter order, by Horner's rule with one
    full convolution per coefficient of outer: the independent oracle of
    ``series._compose_raw`` (inner is used as given, constant term included)."""
    n = min(len(outer), len(inner)) - 1
    inner = inner[: n + 1]
    acc = np.zeros(n + 1, dtype=complex)
    acc[0] = outer[n]
    for d in range(n - 1, -1, -1):
        acc = np.convolve(acc, inner)[: n + 1]
        acc[0] += outer[d]
    return acc


def recurrence_reciprocal(c):
    """1/c by the recurrence b_d = -(c_1 b_{d-1} + ... + c_d b_0) / c_0, one
    dot product per degree, then one Newton polish: the independent oracle of
    ``series._reciprocal_raw``."""
    n = len(c) - 1
    inv = np.zeros(n + 1, dtype=complex)
    inv[0] = 1.0 / c[0]
    for d in range(1, n + 1):
        inv[d] = -np.dot(c[1 : d + 1], inv[d - 1 :: -1]) / c[0]
    corr = -np.convolve(c, inv)[: n + 1]
    corr[0] += 2.0
    return np.convolve(inv, corr)[: n + 1]


def run_main(argv):
    """``(exit code, stdout, stderr)`` of an in-process ``cli.main``.

    Any exception other than SystemExit propagates, so a traceback fails
    the calling test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError("cli.main returned without exiting")
