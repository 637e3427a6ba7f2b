import cmath
import contextlib
import io
import math

import numpy as np

from parafold import cli, model
from parafold.disk import tangency_angles
from parafold.model import (
    TWO_PI,
    AtBifurcation,
    DSInvariant,
    IntegratorControls,
    ModelField,
    _walk_path,
    capture_radius,
    escape_radius,
    landing_radii,
    singularities,
)

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


def scalar_landing(fld, z0, direction, controls=None):
    """Landing index (or None) of the orbit of z0 on the scalar kernel
    ``model._dopri`` alone, with the landing radii of ``landing_lanes``,
    and its ``Termination``: the oracle of the lane kernel."""
    ctl = controls or IntegratorControls()
    sing = singularities(fld)
    rho = np.where(direction * fld.d_rhs(sing).real < 0, landing_radii(fld), 0.0)
    if ctl.boundary_radius is not None:
        rho = np.minimum(rho, ctl.boundary_radius - fld.scale)
    radii = np.maximum(rho, capture_radius(fld))
    term, landed, _, _, _ = model._dopri(fld, z0, direction, ctl, radii)
    return landed, term


def classify_point(fld, r, alpha, controls):
    """The label of the boundary sample at angle alpha, one orbit at a time
    on ``scalar_landing``."""
    z = r * cmath.exp(1j * alpha)
    radial = (fld.rhs(z) * complex(z).conjugate()).real
    inward = radial < 0
    z_in = z * (1.0 - 1e-9)
    if scalar_landing(fld, z_in, 1 if inward else -1, controls)[0] is not None:
        return "incoming" if inward else "outgoing"
    return "separating"


def scalar_separating_regions(fld, r, samples_per_arc=24):
    """``disk.separating_regions`` with every sample classified on its own
    by ``classify_point``: the oracle of the one lane call."""
    ctl = IntegratorControls(boundary_radius=r * (1.0 - 1e-12))
    cuts = np.sort(tangency_angles(fld.k, fld.epsilon, r).angles)
    arcs = []
    for i in range(len(cuts)):
        a0 = cuts[i]
        a1 = cuts[(i + 1) % len(cuts)]
        if i == len(cuts) - 1:
            a1 += TWO_PI
        alphas = np.linspace(a0, a1, samples_per_arc + 2)[1:-1]
        labels = [classify_point(fld, r, a, ctl) for a in alphas]
        start = a0
        cur = labels[0]
        for a_prev, a_next, lab in zip(alphas[:-1], alphas[1:], labels[1:]):
            if lab != cur:
                mid = 0.5 * (a_prev + a_next)
                arcs.append((start % TWO_PI, mid % TWO_PI, cur))
                start, cur = mid, lab
        arcs.append((start % TWO_PI, a1 % TWO_PI, cur))
    return arcs


def scalar_ds_invariant_integrated(fld, n_angles=24):
    """``model.ds_invariant_integrated`` with the seed orbits and the arg
    z = 0 separatrix run one at a time on ``scalar_landing``."""
    sing = singularities(fld)
    k1 = fld.k + 1
    gaps = [abs(sing[i] - sing[j]) for i in range(k1) for j in range(i + 1, k1)]
    rho = 0.2 * min(gaps)
    edges = set()
    for ell in range(k1):
        for m in range(n_angles):
            seed = sing[ell] + rho * cmath.exp(2j * math.pi * m / n_angles)
            fwd = scalar_landing(fld, seed, 1)[0]
            bwd = scalar_landing(fld, seed, -1)[0]
            if fwd is not None and bwd is not None and fwd != bwd:
                edges.add(frozenset((fwd, bwd)))
    order = _walk_path([tuple(sorted(e)) for e in edges], k1)
    launch = 0.995 * escape_radius(fld)
    attachment = scalar_landing(fld, launch + 0j, -1)[0]
    if attachment is None:
        raise AtBifurcation("distinguished separatrix failed to land")
    return DSInvariant(fld.k, fld.epsilon, order, attachment).normalised()


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
