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
    StepSizeUnderflow,
    Termination,
    _walk_path,
    escape_radius,
    lane_radii,
    singularities,
)
from parafold.series import TruncatedSeries

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


def reference_periods(fld):
    """The vertices of the period-gon of ``fld``: minus the partial sums of
    the periods 2 pi i/lambda_l at the roots of eps, centred.  The
    independent oracle of ``model.periods``, which turns and scales the gon
    of eps = 1."""
    partial = -np.cumsum(2j * math.pi / fld.d_rhs(singularities(fld)))
    return partial - partial.mean()


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


def exp_series(order):
    """Taylor series of exp(x)."""
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, order + 1):
        c[n] = c[n - 1] / n
    return TruncatedSeries(c)


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


# Dormand-Prince 5(4) tableau (Hairer, Norsett, Wanner, Solving ODEs I, II.5)
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
# 5th-order weights; they are also the last row of A, so the 7th stage is the
# field at the new point and opens the next step (first same as last)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# embedded 4th-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40,
)
# absolute error tolerance, largest first step, largest and smallest step
ATOL, H_INIT, H_MAX, H_MIN = 1e-13, 1e-3, 1.0, 1e-14


def reference_dopri(fld, z0, direction, ctl, radii, path=None, t=0.0, h=None, rtol=1e-10):
    """Adaptive Dormand-Prince 5(4) steps from z0 until a stop fires: the
    error-controlled oracle of ``model._march`` and of the orbits that
    ``integrate`` and ``separatrices`` draw.

    The orbit lands at the root of the first disk of the row ``radii`` that
    holds an accepted point (the nearest if two do), and stops on the
    ``boundary_radius``, ``time_cap`` and ``max_steps`` of ``ctl`` and on
    the escape radius, in the order of ``Termination``; its step error is
    held below ATOL + ``rtol`` |z|.  It starts at time ``t``, with the step
    ``h`` when given, appends each accepted point and time to ``path =
    (points, times)`` when given, and raises ``StepSizeUnderflow`` below
    the step H_MIN.  Returns ``(termination, landed_index, n_accepted,
    n_rejected, h_min_seen)``."""
    k1 = fld.k + 1
    eps = fld.epsilon
    z_big = 1e120 ** (1.0 / k1)
    big = complex(1e120)

    def f(z):
        # overflow guard: absurd trial stages force a step rejection
        if abs(z) > z_big:
            return big
        return z**k1 - eps

    disks = list(zip(range(k1), singularities(fld).tolist(), map(float, radii)))
    time_cap, boundary, escape = ctl.time_cap, ctl.boundary_radius, escape_radius(fld)
    z = complex(z0)
    p1 = f(z)
    if h is None:
        h = min(H_INIT, 1e-2 / (1.0 + abs(p1)))
    n_acc = n_rej = 0
    h_seen = math.inf
    stop = Termination.STEP_BUDGET
    landed = None
    for _ in range(ctl.max_steps):
        if h < H_MIN:
            raise StepSizeUnderflow(f"step size {h:g} below floor at t={t:g}")
        h = min(h, H_MAX, time_cap - t)
        hd = h * direction
        p2 = f(z + hd * (_A21 * p1))
        p3 = f(z + hd * (_A31 * p1 + _A32 * p2))
        p4 = f(z + hd * (_A41 * p1 + _A42 * p2 + _A43 * p3))
        p5 = f(z + hd * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4))
        p6 = f(z + hd * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5))
        z5 = z + hd * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
        p7 = f(z5)
        z4 = z + hd * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
        err = abs(z5 - z4) / (ATOL + rtol * max(abs(z), abs(z5)))
        if err <= 1.0:
            t += h
            z = z5
            p1 = p7
            n_acc += 1
            h_seen = min(h_seen, h)
            if path is not None:
                path[0].append(z)
                path[1].append(t)
            for idx, centre, radius in disks:
                d = abs(z - centre)
                if d <= radius and (landed is None or d < best):
                    landed, best = idx, d
            if landed is not None:
                stop = Termination.LANDED
                break
            if boundary is not None and abs(z) >= boundary:
                stop = Termination.HIT_BOUNDARY
                break
            if abs(z) >= escape:
                stop = Termination.ESCAPED
                break
            if t >= time_cap:
                stop = Termination.TIME_CAP
                break
        else:
            n_rej += 1
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
    return stop, landed, n_acc, n_rej, h_seen


def _reference_fmt(value):
    out = f"{value:.3f}"
    return "0.000" if out == "-0.000" else out


def reference_coords(canvas, points):
    """The ``points`` attribute of ``SvgCanvas.polyline`` and ``polygon``
    mapped and formatted point by point, as it was before the one-call
    emission: the oracle of ``SvgCanvas._coords``."""
    span_x = canvas.xmax - canvas.xmin
    span_y = canvas.ymax - canvas.ymin
    out = []
    for z in points:
        x = (z.real - canvas.xmin) / span_x * canvas.size
        y = (canvas.ymax - z.imag) / span_y * canvas.size
        out.append(f"{_reference_fmt(x)},{_reference_fmt(y)}")
    return " ".join(out)


def scalar_landing(fld, z0, direction, controls=None):
    """Landing index (or None) of the orbit of z0 on ``reference_dopri``,
    with the landing radii of ``landing_lanes``, and its ``Termination``:
    one orbit, on an error-controlled kernel instead of the marcher, for
    the one-orbit-at-a-time oracles below."""
    ctl = controls or IntegratorControls()
    radii = lane_radii(fld, direction, ctl.boundary_radius)
    term, landed, _, _, _ = reference_dopri(fld, z0, direction, ctl, radii)
    return landed, term


def classify_point(fld, r, alpha, controls):
    """The label of the boundary sample at angle alpha, one orbit at a time
    on ``scalar_landing``: an orbit that crosses the disk separates, and one
    that stops short of both a landing and the boundary raises
    ``AtBifurcation``."""
    z = r * cmath.exp(1j * alpha)
    radial = (fld.rhs(z) * complex(z).conjugate()).real
    inward = radial < 0
    z_in = z * (1.0 - 1e-9)
    landed, stop = scalar_landing(fld, z_in, 1 if inward else -1, controls)
    if landed is not None:
        return "incoming" if inward else "outgoing"
    if stop is Termination.HIT_BOUNDARY:
        return "separating"
    raise AtBifurcation(f"the orbit at alpha = {alpha:.12g} stopped at {stop.value}")


def scalar_separating_regions(fld, r, samples_per_arc=24):
    """``disk.separating_regions`` with every sample classified on its own
    by ``classify_point``: the oracle of its arc-end lane calls."""
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
    """The invariant from a ring of seed orbits, run one at a time on
    ``scalar_landing``: orbits from ``n_angles`` points a circle (radius a
    fifth of the closest root spacing) around each root, integrated both
    ways; each generic orbit joins two roots, and the connections must form
    the trunk.  The angles m = 0, s, 2s, ... (s = n_angles // 3) run first,
    and the other angles only where those connections do not form a path
    (at generic eps every connection is one of the k trunk edges, so a path
    of them is the trunk).  The attachment is where the arg z = 0
    separatrix, launched at 0.995 times the escape radius, lands in
    reversed time.  The seed-ring oracle of ``model.ds_invariant_integrated``,
    which shares neither its seeds nor its launch."""
    sing = singularities(fld)
    k1 = fld.k + 1
    rho = 0.2 * min(abs(sing[i] - sing[j]) for i in range(k1) for j in range(i + 1, k1))
    step = max(1, n_angles // 3)
    rings = [m for m in range(n_angles) if m % step == 0], [m for m in range(n_angles) if m % step]
    edges = set()
    for level, ring in enumerate(rings):
        for ell in range(k1):
            for m in ring:
                seed = sing[ell] + rho * cmath.exp(2j * math.pi * m / n_angles)
                fwd = scalar_landing(fld, seed, 1)[0]
                bwd = scalar_landing(fld, seed, -1)[0]
                if fwd is not None and bwd is not None and fwd != bwd:
                    edges.add(frozenset((fwd, bwd)))
        try:
            order = _walk_path([tuple(sorted(e)) for e in edges], k1)
            break
        except AtBifurcation:
            if level:
                raise
    attachment = scalar_separatrix_landings(fld, [0])[0]
    if attachment is None:
        raise AtBifurcation("distinguished separatrix failed to land")
    return DSInvariant(fld.k, fld.epsilon, order, attachment).normalised()


def scalar_separatrix_landings(fld, js=None):
    """Where the separatrices ``js`` (all 2k by default) land, one at a
    time on ``scalar_landing``: separatrix j launched on its asymptotic
    direction arg z = pi j/k at 0.995 times the escape radius, in reversed
    time for even j.  A start off the exact separatrix lands where it does,
    since the orbits of both sectors beside it run to its landing root.
    None where an orbit does not land."""
    js = range(2 * fld.k) if js is None else js
    launch = 0.995 * escape_radius(fld)
    return [
        scalar_landing(fld, launch * cmath.exp(1j * math.pi * j / fld.k), 1 if j % 2 else -1)[0]
        for j in js
    ]


def scalar_separatrix_invariant(fld):
    """The invariant read off the separatrix landings of
    ``scalar_separatrix_landings``: the trunk is the path of the 2k pairs
    {land(j), land(j+1 mod 2k)} and the attachment land(0).  The oracle of
    ``model.ds_invariant_integrated``, sharing no launch with it."""
    land = scalar_separatrix_landings(fld)
    if None in land:
        raise AtBifurcation(f"separatrix landings {land}")
    order = _walk_path({tuple(sorted(p)) for p in zip(land, land[1:] + land[:1])}, fld.k + 1)
    return DSInvariant(fld.k, fld.epsilon, order, land[0]).normalised()


def cold_far_segment(fld, js, time_cap):
    """``model._far_segment`` with its Newton solve started from the leading
    term xi ~ -1/(k z^k) alone: the cold-start oracle of its series start."""
    k, eps = fld.k, fld.epsilon
    js = np.asarray(js)
    ang = np.exp(1j * model.separatrix_directions(k)[js])[:, None]
    sign = np.where(js % 2 == 0, -1.0, 1.0)[:, None]
    ends = ang * [0.995 * escape_radius(fld), 1.5 * fld.scale]
    tau = sign * model.xi_array(k, eps, ends).real
    tau[:, 1] = np.minimum(tau[:, 1], tau[:, 0] + time_cap)
    n = math.ceil(float(np.log(tau[:, 1] / tau[:, 0]).max()) / (k * math.log(model.FAR_RATIO)))
    tau = tau[:, :1] * (tau[:, 1:] / tau[:, :1]) ** (np.arange(n + 1) / n)
    target = sign * tau
    z = model._newton(
        ang * (k * tau) ** (-1.0 / k),
        lambda z: (model.xi_array(k, eps, z) - target) * (z ** (k + 1) - eps),
        "far segment",
    )
    return z, tau - tau[:, :1]


def cold_landing_segments(fld, entries, time_cap):
    """``model._landing_segments`` with its Newton solve started from the
    linear chart, v_e e^{lambda_l direction tau}: the cold-start oracle of
    its series start."""
    if not entries:
        return []
    k1 = fld.k + 1
    sing = singularities(fld)
    floor = math.log(0.5 * model.capture_radius(fld) / fld.scale)
    v_e = np.array([z / sing[l] - 1.0 for z, _, l, _ in entries])
    log_e = model._chart_log(fld.k, v_e)
    runs = []
    for (_, t_e, l, direction), start in zip(entries, log_e.tolist()):
        rate = direction * fld.d_rhs(sing[l])
        span = max(0.0, (floor - start.real) / rate.real) if rate.real < 0 else 0.0
        stop = Termination.LANDED
        if t_e + span > time_cap:
            span, stop = time_cap - t_e, Termination.TIME_CAP
        n = 0
        if span > 0:
            dtau = math.log(model.LAND_SHRINK) / -rate.real
            if rate.imag:
                dtau = min(dtau, model.LAND_TURN / abs(rate.imag))
            n = math.ceil(span / dtau)
        runs.append((rate, span * np.arange(1, n + 1) / n, stop))
    rates = np.concatenate([np.full(len(tau), rate) for rate, tau, _ in runs])
    tau = np.concatenate([tau for _, tau, _ in runs])
    owner = np.repeat(np.arange(len(runs)), [len(tau) for _, tau, _ in runs])
    target = log_e[owner] + rates * tau

    def step(v):
        r = model._chart_log(fld.k, v) - target
        r.imag = (r.imag + math.pi) % TWO_PI - math.pi
        return r * np.expm1(k1 * np.log1p(v)) / k1

    v = model._newton(v_e[owner] * np.exp(rates * tau), step, "landing segment")
    z = sing[[l for _, _, l, _ in entries]][owner] * (1.0 + v)
    cuts = np.cumsum([len(tau) for _, tau, _ in runs])[:-1]
    return [
        (zs, t_e + tau, stop)
        for zs, (_, t_e, _, _), (_, tau, stop) in zip(np.split(z, cuts), entries, runs)
    ]


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
