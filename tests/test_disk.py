import cmath
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from parafold import disk, model
from parafold.disk import (
    CurveTag,
    NewtonDivergence,
    RootLoss,
    double_tangency_residual,
    eyelet_diameter,
    eyelet_points,
    eyelet_reference_radius,
    group_tags,
    separating_regions,
    symmetric_pairs,
    tangency_angles,
    tangency_equation,
    tangency_seeds,
    tangency_times,
    trace_curve,
)
from conftest import classify_point, scalar_separating_regions
from parafold.model import (
    AtBifurcation,
    IntegratorControls,
    ModelField,
    StepSizeUnderflow,
    bifurcation_angles,
    landing_lanes,
    periods,
)
from test_model import _sector_reference, _xi_reference

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# the scalar disk layer that the array kernel replaced, kept as its oracle
# ---------------------------------------------------------------------------


def _equation_reference(k, r, eps, alpha):
    x, y = eps.real, eps.imag
    return np.cos(k * alpha) - (x * np.cos(alpha) + y * np.sin(alpha)) / r ** (k + 1)


def _slope_reference(k, r, eps, alpha):
    x, y = eps.real, eps.imag
    return -k * np.sin(k * alpha) - (-x * np.sin(alpha) + y * np.cos(alpha)) / r ** (k + 1)


def _tangency_angles_reference(k, eps, r, max_iter=60):
    """One scalar Newton loop per seed; returns (sorted angles, iterations).
    r^{k+1} <= |eps| is refused, naming that condition, before any step."""
    if r ** (k + 1) <= abs(eps):
        raise NewtonDivergence(
            f"the {2 * k} tangencies need r^{k + 1} > |eps|, got r^{k + 1} = "
            f"{r ** (k + 1):.6g} <= |eps| = {abs(eps):.6g}"
        )
    return _tangency_newton_reference(k, eps, r, max_iter)


def _tangency_newton_reference(k, eps, r, max_iter):
    basin = math.pi / (2 * k)
    out = np.empty(2 * k)
    iterations = 0
    for j, seed in enumerate(tangency_seeds(k)):
        a = seed
        for _ in range(max_iter):
            iterations += 1
            e = float(_equation_reference(k, r, eps, a))
            de = float(_slope_reference(k, r, eps, a))
            if de == 0.0:
                raise NewtonDivergence(f"vanishing derivative at seed {j}")
            step = e / de
            a -= step
            if abs(step) < 1e-15:
                break
        if abs(a - seed) > basin or abs(_equation_reference(k, r, eps, a)) > 1e-11:
            raise NewtonDivergence(f"no tangency root in the basin of seed {j}")
        out[j] = a % TWO_PI
    return np.sort(out), iterations


def _tangency_times_reference(k, r, eps, angles):
    """(t values, sectors) point by point, with the gon from ``periods``."""
    fld = ModelField(k, eps)
    if r <= fld.scale:
        raise ValueError("disk radius must exceed |eps|^{1/(k+1)}")
    gon = periods(fld)
    ts, sectors = [], []
    for a in angles:
        z = r * cmath.exp(1j * a)
        ell, on_slit = _sector_reference(fld, z)
        if on_slit:
            z = r * cmath.exp(1j * (a + 1e-12))
        ts.append(gon.vertices[ell] + _xi_reference(fld, z))
        sectors.append(ell)
    return np.array(ts), np.array(sectors)


def _residual_reference(k, r, abs_eps, theta, pair, selection="top-bottom"):
    shift = 0
    while theta < 0.0:
        theta += TWO_PI
        shift -= 1
    while theta >= TWO_PI:
        theta -= TWO_PI
        shift += 1
    m, mp = ((idx + shift) % (k + 1) for idx in pair)
    eps = abs_eps * cmath.exp(1j * theta)
    ts, sectors = _tangency_times_reference(k, r, eps, _tangency_angles_reference(k, eps, r)[0])

    def extremes(m):
        sel = ts[sectors == m]
        if len(sel) == 0:
            raise RootLoss(f"eyelet {m} carries no tangency point")
        return sel[np.argmax(sel.imag)], sel[np.argmin(sel.imag)]

    (top_m, bot_m), (top_p, bot_p) = extremes(m), extremes(mp)
    a, b = {
        "top-top": (top_m, top_p),
        "bottom-bottom": (bot_m, bot_p),
        "top-bottom": (top_m, bot_p),
        "bottom-top": (bot_m, top_p),
    }[selection]
    return float(a.imag - b.imag)


def _trace_curve_reference(k, r, tag, decades, per_decade):
    """Curve samples with the grid scanned point by point and scipy's brentq."""
    from scipy.optimize import brentq

    def bracket(fun, lo, hi, n=80):
        # the grid is evaluated only up to its first sign change
        xs = np.linspace(lo, hi, n)
        here = fun(xs[0])
        for i in range(n - 1):
            if here == 0.0:
                return xs[i], xs[i]
            there = fun(xs[i + 1])
            if here * there < 0:
                return xs[i], xs[i + 1]
            here = there
        return None

    theta_j = bifurcation_angles(k)[tag.j]
    rows, c_est, selection = [], None, None
    for abs_eps in disk._log_grid(decades[0], decades[1], per_decade)[::-1]:
        def residual(theta, sel):
            return _residual_reference(k, r, abs_eps, theta, tuple(tag.pair), sel)

        if c_est is None:
            found = None
            for sel in ("top-bottom", "bottom-top"):
                span = 0.45 * math.pi / k
                for _ in range(2):
                    lo = theta_j + (1e-7 if tag.side > 0 else -span)
                    hi = theta_j + (span if tag.side > 0 else -1e-7)
                    br = bracket(lambda th: residual(th, sel), lo, hi)
                    if br is not None:
                        found = (sel, br)
                        break
                    span *= 2.0
                if found:
                    break
            selection, (lo, hi) = found
        else:
            offset = c_est * abs_eps ** (k / (k + 1.0))
            for widen in (1.0, 2.0, 5.0):
                lo = theta_j + tag.side * offset / (3.0 * widen)
                hi = theta_j + tag.side * offset * 3.0 * widen
                br = bracket(lambda th: residual(th, selection), min(lo, hi), max(lo, hi), n=40)
                if br is not None:
                    break
            lo, hi = br
        theta = lo if lo == hi else brentq(
            lambda th: residual(th, selection), lo, hi, xtol=1e-15, rtol=1e-15
        )
        rows.append((abs_eps, theta))
        c_est = abs(theta - theta_j) / abs_eps ** (k / (k + 1.0))
    return np.array(rows[::-1])


def _calibration_reference(k, r, tag, abs_eps):
    """The sample at the largest |eps| from a Brent run on that lane alone,
    started from the bracket of the 80-point calibration scan; the joint
    Brent of ``trace_curve`` must keep its bits."""
    theta_j = bifurcation_angles(k)[tag.j]
    window0 = 0.45 * math.pi / k
    for selection in ("top-bottom", "bottom-top"):
        for span in (window0, 2.0 * window0):
            def residual(theta, _lanes=None):
                return double_tangency_residual(k, r, abs_eps, theta, tuple(tag.pair), selection)

            lo = theta_j + (1e-7 if tag.side > 0 else -span)
            hi = theta_j + (span if tag.side > 0 else -1e-7)
            br = disk._bracket_root(residual, [lo], [hi])
            if not np.isnan(br[0][0]):
                return disk._brent_lanes(residual, *br)[0]
    raise RootLoss(f"no initial bracket for tag {tag}")


def _outcome(fun, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return fun(*args)
    except (NewtonDivergence, RootLoss, ValueError) as exc:
        return type(exc), str(exc)


class TestTangencyAngles:
    def test_eps_zero_exact(self):
        for k in (1, 2, 5, 7):
            ts = tangency_angles(k, 0.0, 1.0)
            expect = np.sort(tangency_seeds(k) % TWO_PI)
            assert np.abs(ts.angles - expect).max() < 1e-12

    def test_derivative_at_seeds(self):
        # dE/dalpha(0, 0, alpha_j) = (-1)^{j+1} k, checked by differences
        for k in (2, 3, 5):
            h = 1e-6
            for j, a in enumerate(tangency_seeds(k)):
                fd = (
                    tangency_equation(k, 1.0, 0j, a + h)
                    - tangency_equation(k, 1.0, 0j, a - h)
                ) / (2 * h)
                assert abs(fd - (-1) ** (j + 1) * k) < 1e-8

    def test_newton_residual(self):
        ts = tangency_angles(2, 0.01 + 0j, 1.0)
        assert len(ts.angles) == 4
        assert np.abs(ts.residuals()).max() < 1e-12

    def test_solution_count(self):
        rng = np.random.default_rng(3)
        for k in range(1, 8):
            eps = 1e-2 * cmath.exp(2j * math.pi * rng.random())
            ts = tangency_angles(k, eps, 1.0)
            assert len(np.unique(np.round(ts.angles, 9))) == 2 * k

    def test_divergence_guard(self):
        # |eps| >> r^{k+1} leaves only two tangencies; the other seeds diverge
        with pytest.raises(NewtonDivergence):
            tangency_angles(2, 100j, 1.0)

    def test_small_radius_names_the_condition(self):
        # |eps| 3..10 times r^{k+1}: separating_regions fails in its tangency
        # solve, before it integrates anything, and says what r must satisfy
        rng = np.random.default_rng(55)
        for k in range(2, 7):
            for _ in range(2):
                r = rng.uniform(0.5, 1.5)
                eps = rng.uniform(3, 10) * r ** (k + 1) * cmath.exp(2j * math.pi * rng.random())
                with pytest.raises(NewtonDivergence, match=rf"tangencies need r\^{k + 1} > \|eps\|"):
                    separating_regions(ModelField(k, eps), r)
        # at k = 3, r = 0.3 Newton converges on every seed for these tags,
        # once |eps| passes r^4: the condition is named before it runs
        for j, pair in ((1, (0, 2)), (3, (1, 3)), (5, (0, 2))):
            with pytest.raises(NewtonDivergence, match=r"tangencies need r\^4 > \|eps\|"):
                trace_curve(3, 0.3, CurveTag(j=j, pair=pair, side=1))

    def test_radius_power_out_of_range(self):
        # r^{k+1} must be a finite positive float: an overflow (also as an
        # exact int power) or an underflow to 0 is refused before Newton
        # runs, and alike by the tangency equation and the eyelet radius
        cases = ((700, 3.0), (700, 3), (2, 1e200), (3, 1e80), (2, 1e-200), (2, np.float64(1e-200)))
        calls = (
            lambda k, r: tangency_angles(k, 1.0, r),
            lambda k, r: tangency_equation(k, r, 1.0, 0.1),
            lambda k, r: eyelet_reference_radius(k, r),
        )
        for k, r in cases:
            message = rf"r\^{k + 1} is not a finite positive float at k = {k}, r = "
            for call in calls:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    with pytest.raises(NewtonDivergence, match=message):
                        call(k, r)


class TestTangencyTimes:
    def test_simultaneous_tangencies_at_theta_j(self):
        # at a homoclinic angle the period-gon is vertical-axis symmetric and
        # a horizontal line is tangent to two mirror eyelets at once; the
        # eyelet arcs themselves are not fully symmetric (their gaps follow
        # the slits), so the statement is existence of equal-height pairs
        k = 2
        theta_j = bifurcation_angles(k)[0]
        ts = tangency_times(tangency_angles(k, 1e-4 * cmath.exp(1j * theta_j), 1.0))
        tv = ts.t_values
        scale = np.abs(tv).max()
        gon = periods(ModelField(k, 1e-4 * cmath.exp(1j * theta_j)))
        v = gon.vertices
        assert np.abs((-np.conj(v))[:, None] - v[None, :]).min(axis=1).max() < 1e-8 * scale
        found = False
        for i in range(len(tv)):
            for j in range(i + 1, len(tv)):
                if ts.vertex_index[i] != ts.vertex_index[j]:
                    found |= abs(tv[i].imag - tv[j].imag) < 1e-8 * scale
        assert found

    def test_offsets_near_reference_radius(self):
        for k in (2, 4):
            fld = ModelField(k, 1e-4 + 0j)
            gon = periods(fld)
            ts = tangency_times(tangency_angles(k, fld.epsilon, 1.0))
            r0 = eyelet_reference_radius(k, 1.0)
            offsets = np.abs(ts.t_values - gon.vertices[ts.vertex_index])
            assert np.all(offsets > 0.9 * r0)
            assert np.all(offsets < 1.1 * r0)

    def test_conjugation_symmetry_real_eps(self):
        # k = 2: no tangency lies on a slit, closure is exact
        ts = tangency_times(tangency_angles(2, 1e-4 + 0j, 1.0))
        conj = np.conj(ts.t_values)
        dist = np.abs(conj[:, None] - ts.t_values[None, :]).min(axis=1).max()
        assert dist < 1e-10 * np.abs(ts.t_values).max()

    def test_conjugation_symmetry_on_slit(self):
        # k = 3 with real eps puts two tangencies exactly on slits; their
        # mirror images differ by the sector convention, i.e. by one period
        fld = ModelField(3, 1e-4 + 0j)
        gon = periods(fld)
        ts = tangency_times(tangency_angles(3, fld.epsilon, 1.0))
        tv, scale = ts.t_values, np.abs(ts.t_values).max()
        for t, on_slit in zip(np.conj(tv), ts.on_slit):
            plain = np.abs(tv - t).min()
            if not on_slit:
                assert plain < 1e-10 * scale
            else:
                shifted = min(np.abs(tv - (t + s * mu)).min() for mu in gon.periods for s in (1, -1))
                assert min(plain, shifted) < 1e-8 * scale

    def test_eyelet_diameter(self):
        for k in (2, 3):
            fld = ModelField(k, 1e-4 + 0j)
            d = eyelet_diameter(fld, 1.0, 0, n=192)
            assert abs(d - 2 * eyelet_reference_radius(k, 1.0)) < 0.1 * 2 * eyelet_reference_radius(k, 1.0)


class TestRigidRotation:
    def test_eyelet_centers_rotate(self):
        # shifting arg eps by delta rotates the vertex set by -k delta/(k+1)
        k = 3
        abs_eps = 1e-3
        delta = 0.1
        g1 = periods(ModelField(k, abs_eps * cmath.exp(0.2j)))
        g2 = periods(ModelField(k, abs_eps * cmath.exp(1j * (0.2 + delta))))
        rotated = g1.vertices * cmath.exp(-1j * k * delta / (k + 1))
        dist = np.abs(rotated[:, None] - g2.vertices[None, :]).min(axis=1).max()
        assert dist < 1e-12 * np.abs(g1.vertices).max()


class TestDoubleTangency:
    def test_symmetric_zero_at_theta_j(self):
        k = 2
        theta_j = bifurcation_angles(k)[0]
        pair = symmetric_pairs(k, 0)[0]
        res = double_tangency_residual(k, 1.0, 1e-4, theta_j, pair, selection="top-top")
        assert abs(res) < 1e-9

    def test_sign_change_off_axis(self):
        k = 2
        theta_j = bifurcation_angles(k)[0]
        pair = symmetric_pairs(k, 0)[0]
        abs_eps = 1e-4
        alpha_hat = abs_eps ** (k / (k + 1))
        vals = {}
        for sel in ("top-bottom", "bottom-top"):
            a = double_tangency_residual(k, 1.0, abs_eps, theta_j, pair, selection=sel)
            b = double_tangency_residual(k, 1.0, abs_eps, theta_j + 4 * alpha_hat, pair, selection=sel)
            vals[sel] = (a, b)
        assert any(a * b < 0 for a, b in vals.values())

    def test_odd_to_first_order(self):
        k = 2
        theta_j = bifurcation_angles(k)[0]
        pair = symmetric_pairs(k, 0)[0]
        s = 2e-4
        plus = double_tangency_residual(k, 1.0, 1e-4, theta_j + s, pair, selection="top-top")
        minus = double_tangency_residual(k, 1.0, 1e-4, theta_j - s, pair, selection="top-top")
        assert abs(plus + minus) < 0.05 * max(abs(plus), abs(minus))


class TestCurves:
    def test_straight_ray(self):
        tag = CurveTag(j=1, pair=symmetric_pairs(2, 1)[0], side=0)
        curve = trace_curve(2, 1.0, tag, decades=(1e-4, 1e-2), per_decade=6)
        theta_j = bifurcation_angles(2)[1]
        assert np.all(curve.samples[:, 1] == theta_j)
        assert curve.fitted_exponent is None

    def test_samples_monotone(self):
        tag = CurveTag(j=0, pair=symmetric_pairs(2, 0)[0], side=1)
        curve = trace_curve(2, 1.0, tag, decades=(1e-5, 1e-2), per_decade=8)
        assert np.all(np.diff(curve.samples[:, 0]) > 0)

    def test_exponent_k4(self):
        # tangency order 2 - 1/(k+1) = 1.8 for five singular points
        for pair in symmetric_pairs(4, 0):
            for side in (-1, 1):
                tag = CurveTag(j=0, pair=pair, side=side)
                curve = trace_curve(4, 1.0, tag, decades=(1e-6, 1e-3), per_decade=10)
                assert curve.fitted_exponent == pytest.approx(1.8, abs=0.05)

    def test_group_structure(self):
        # each group holds the ray plus at least one pair of side curves
        for k in (2, 3, 4):
            for j in (0, 1):
                tags = group_tags(k, j)
                assert sum(1 for t in tags if t.side == 0) == 1
                assert len(tags) >= 3

    def test_sides_disjoint(self):
        k = 2
        pair = symmetric_pairs(k, 0)[0]
        plus = trace_curve(k, 1.0, CurveTag(0, pair, +1), decades=(1e-4, 1e-2), per_decade=6)
        minus = trace_curve(k, 1.0, CurveTag(0, pair, -1), decades=(1e-4, 1e-2), per_decade=6)
        theta_j = bifurcation_angles(k)[0]
        assert np.all(plus.samples[:, 1] > theta_j)
        assert np.all(minus.samples[:, 1] < theta_j)

    def test_group_curves_disjoint(self):
        # within one group the traced curves never cross: their angular
        # ordering is the same on every circle |eps| = const
        k = 4
        curves = [
            trace_curve(k, 1.0, tag, decades=(1e-5, 1e-3), per_decade=6)
            for tag in group_tags(k, 0)
        ]
        thetas = np.array([c.samples[:, 1] for c in curves])
        orders = np.argsort(thetas, axis=0)
        for col in range(1, orders.shape[1]):
            assert np.array_equal(orders[:, 0], orders[:, col])

    def test_odd_k_zero_angle_group(self):
        # theta_0 = 0 for odd k: the minus-side probes run at negative
        # angles, across the label seam of the normalised argument
        k = 3
        for tag in group_tags(k, 0):
            if tag.side == 0:
                continue
            curve = trace_curve(k, 1.0, tag, decades=(1e-4, 1e-2), per_decade=5)
            theta_j = bifurcation_angles(k)[0]
            assert np.all(tag.side * (curve.samples[:, 1] - theta_j) > 0)

    def test_curve_json_schema(self):
        tag = CurveTag(j=1, pair=symmetric_pairs(2, 1)[0], side=-1)
        curve = trace_curve(2, 1.0, tag, decades=(1e-3, 1e-2), per_decade=4)
        data = curve.to_dict()
        assert set(data) == {"tag", "samples", "exponent"}
        assert data["tag"]["j"] == 1 and data["tag"]["side"] == -1
        assert len(data["tag"]["pair"]) == 2
        assert all(len(row) == 2 for row in data["samples"])


class TestSeparatingRegions:
    def test_wide_sector_no_separating(self):
        arcs = separating_regions(ModelField(4, 0.05), 1.0, samples_per_arc=8)
        labels = {a.label for a in arcs}
        assert labels == {"incoming", "outgoing"}

    def test_near_homoclinic_has_separating(self):
        theta = bifurcation_angles(4)[0]
        arcs = separating_regions(ModelField(4, 0.05 * cmath.exp(1j * theta)), 1.0, samples_per_arc=8)
        assert any(a.label == "separating" for a in arcs)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_labels_at_every_abs_eps(self, k):
        # z = s w maps the field to s^k (w^{k+1} - eps/|eps|) and the circle
        # of radius 1.8 s to that of 1.8: the labels of |eps| = 1, in order
        def labels(abs_eps):
            fld = ModelField(k, abs_eps * cmath.exp(0.37j))
            return [a.label for a in separating_regions(fld, 1.8 * fld.scale, 8)]

        want = labels(1.0)
        for abs_eps in (1e-100, 1e-20, 1e-9, 1e-6, 1e-2, 1e3, 1e6):
            assert labels(abs_eps) == want, abs_eps

    def test_locally_constant_labels(self):
        fld1 = ModelField(3, 0.05)
        fld2 = ModelField(3, 0.05 * (1 + 1e-6))
        a1 = separating_regions(fld1, 1.0, samples_per_arc=6)
        a2 = separating_regions(fld2, 1.0, samples_per_arc=6)
        assert [a.label for a in a1] == [a.label for a in a2]

    def test_conjugation_symmetric_real_eps(self):
        # (z, eps) -> (conj z, conj eps) preserves time, so the boundary
        # classification at angles +a and -a coincides for real eps
        fld = ModelField(2, 0.05)
        ctl = IntegratorControls(boundary_radius=1.0 * (1 - 1e-12))
        for alpha in (0.2, 0.9, 2.0, 2.8):
            assert classify_point(fld, 1.0, alpha, ctl) == classify_point(fld, 1.0, -alpha, ctl)

    @pytest.mark.parametrize("samples_per_arc", [6, 8, 24])
    def test_matches_scalar_oracle(self, monkeypatch, samples_per_arc):
        # the band labels and the arc-end lane calls against every sample
        # classified on its own by the scalar kernel: the same arcs, bit for
        # bit, for k 1..8; near a ray and on a circle at 1.05 s the
        # certificate fails, the arc-end call runs, end samples separate and
        # the second call runs the rest of their arcs
        calls = []

        def counted(fld, z0, direction, boundary_radius):
            calls.append(len(z0))
            return landing_lanes(fld, z0, direction, boundary_radius)

        monkeypatch.setattr(disk, "landing_lanes", counted)
        rng = np.random.default_rng(600 + samples_per_arc)
        labels = set()
        banded = marched = fallbacks = 0
        cases = [(k, k % 2, 1.2, 2.0) for k in range(1, 8)] + [(8, 1, 1.2, 2.0), (3, 1, 1.05, 1.05)]
        for k, near, lo, hi in cases:
            # near a homoclinic ray separating arcs open
            offset = rng.uniform(0.01, 0.05) if near else rng.uniform(0.25, 0.75)
            theta = bifurcation_angles(k)[rng.integers(2 * k)] + offset * math.pi / k
            fld = ModelField(k, rng.uniform(0.1, 1.0) * cmath.exp(1j * theta))
            r = fld.scale * rng.uniform(lo, hi)
            calls.clear()
            arcs = separating_regions(fld, r, samples_per_arc)
            got = [(a.alpha_start, a.alpha_end, a.label) for a in arcs]
            assert got == scalar_separating_regions(fld, r, samples_per_arc)
            labels.update(label for _, _, label in got)
            if not calls:  # certified: read off the bands
                banded += 1
            else:
                assert calls[0] == 4 * k and len(calls) <= 2
                marched += 1
                fallbacks += len(calls) == 2
        assert labels == {"incoming", "outgoing", "separating"}
        assert banded and marched
        assert fallbacks >= 2

    def test_unfinished_orbit_raises(self, monkeypatch):
        # an orbit out of steps has neither landed nor crossed the disk: the
        # sample is undecided, not separating, in the code and its oracle;
        # 0.05 from ray 0 the band certificate fails and the orbits run
        fld = ModelField(3, 0.5 * cmath.exp(0.05j))
        r = 1.5 * fld.scale
        field_controls = model._field_controls
        monkeypatch.setattr(  # a budget of 3 attempts per orbit
            model, "_field_controls", lambda fld, ctl: replace(field_controls(fld, ctl), max_steps=3)
        )
        with pytest.raises(AtBifurcation, match=r"sample at alpha = .* stopped at step_budget"):
            separating_regions(fld, r, samples_per_arc=6)
        ctl = IntegratorControls(boundary_radius=r * (1.0 - 1e-12), max_steps=3)
        with pytest.raises(AtBifurcation, match="stopped at step_budget"):
            classify_point(fld, r, 0.1, ctl)

    def test_no_landing_call_at_generic_eps(self, monkeypatch):
        # midway between two rays every tip fits its band: the labels are
        # read off the bands, whatever samples_per_arc is, and no orbit runs
        def refuse(*args):
            raise AssertionError("separating_regions ran a landing orbit")

        monkeypatch.setattr(disk, "landing_lanes", refuse)
        rng = np.random.default_rng(61)
        for k in range(1, 8):
            theta = bifurcation_angles(k)[rng.integers(2 * k)] + 0.5 * math.pi / k
            fld = ModelField(k, rng.uniform(0.3, 1.0) * cmath.exp(1j * theta))
            arcs = separating_regions(fld, 1.5 * fld.scale, samples_per_arc=24)
            assert len(arcs) == 2 * k
            assert {a.label for a in arcs} == {"incoming", "outgoing"}

    def test_bands_outside_the_float_range(self):
        # at k = 30 and |eps| = 1e-320 the gon overflows a float: the
        # certificate fails without a warning, and the orbits run into the
        # marcher's typed error, as they did before the bands
        fld = ModelField(30, 1e-320j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeUnderflow):
                separating_regions(fld, 1.8 * fld.scale, 8)

    def test_bands_match_the_marcher(self, monkeypatch):
        # seeded fields from 1e-5 to 0.98 of the gap from a ray, on either
        # side, |eps| in 10^[-1.5, 0.5], r/s in [1.02, 3]: where the
        # certificate holds, the band labels give the arcs of the landing
        # orbits, bit for bit; near the rays the certificate fails
        rng = np.random.default_rng(63)
        cases = []
        for _ in range(60):
            k = int(rng.integers(1, 9))
            offset = 10 ** rng.uniform(-5, math.log10(0.98)) * rng.choice([-1, 1])
            theta = bifurcation_angles(k)[rng.integers(2 * k)] + offset * math.pi / k
            fld = ModelField(k, 10 ** rng.uniform(-1.5, 0.5) * cmath.exp(1j * theta))
            cases.append((fld, fld.scale * rng.uniform(1.02, 3.0), int(rng.choice([1, 2, 6, 8, 24]))))
        calls = []

        def counted(fld, z0, direction, boundary_radius):
            calls.append(len(z0))
            return landing_lanes(fld, z0, direction, boundary_radius)

        monkeypatch.setattr(disk, "landing_lanes", counted)
        banded = []
        for fld, r, spa in cases:
            calls.clear()
            arcs = separating_regions(fld, r, spa)
            if not calls:
                banded.append((fld, r, spa, arcs))
        monkeypatch.setattr(disk, "_band_labels", lambda *args: None)
        for fld, r, spa, arcs in banded:
            assert arcs == separating_regions(fld, r, spa), (fld, r, spa)
        assert 15 <= len(banded) <= len(cases) - 15

    @pytest.mark.parametrize("samples_per_arc", [0, -1])
    def test_rejects_fewer_than_one_sample(self, monkeypatch, samples_per_arc):
        # refused by value before any tangency solve
        def refuse(*args):
            raise AssertionError("separating_regions solved for the tangencies")

        monkeypatch.setattr(disk, "tangency_angles", refuse)
        message = f"samples_per_arc must be at least 1, got {samples_per_arc}"
        with pytest.raises(ValueError, match=message):
            separating_regions(ModelField(3, 0.5), 1.5, samples_per_arc)

    def test_separating_samples_run_from_the_arc_ends(self):
        # every sample of every arc in one lane call, near the rays: the
        # separating samples of an arc form a run at each end of it (either
        # run may be empty), never a run in the middle
        rng = np.random.default_rng(62)
        n_runs = 0
        for n in range(48):
            k = n % 8 + 1
            offset = 10 ** rng.uniform(-4, -1) * rng.choice([-1, 1])
            theta = bifurcation_angles(k)[rng.integers(2 * k)] + offset
            fld = ModelField(k, 10 ** rng.uniform(-2, 1) * cmath.exp(1j * theta))
            r = fld.scale * rng.uniform(1.03, 3.0)
            spa = int(rng.choice([6, 8, 12]))
            cuts = tangency_angles(k, fld.epsilon, r).angles
            ends = np.append(cuts[1:], cuts[0] + TWO_PI)
            alphas = np.concatenate([np.linspace(a, b, spa + 2)[1:-1] for a, b in zip(cuts, ends)])
            zs = r * np.exp(1j * alphas)
            inward = (fld.rhs(zs) * np.conj(zs)).real < 0
            boundary = r * (1.0 - 1e-12)
            index, _ = landing_lanes(fld, zs * (1.0 - 1e-9), np.where(inward, 1, -1), boundary)
            for row in (index >= 0).reshape(2 * k, spa):
                marks = "".join("L" if x else "S" for x in row)
                assert "S" not in marks.strip("S"), marks
                n_runs += "S" in marks
        assert n_runs > 50


class TestArrayKernel:
    """The array kernel against the scalar loops it replaced (1e-13)."""

    def test_tangency_angles_match_reference(self):
        rng = np.random.default_rng(51)
        for k in range(1, 8):
            for _ in range(8):
                eps = 10 ** rng.uniform(-8, -1) * cmath.exp(2j * math.pi * rng.random())
                r = rng.uniform(0.8, 1.25)
                got = tangency_angles(k, eps, r)
                want, iterations = _tangency_angles_reference(k, eps, r)
                assert np.abs(got.angles - want).max() <= 1e-13
                assert abs(got.newton_iterations - iterations) <= 2 * k

    def test_eps_rows_match_single_solves(self):
        rng = np.random.default_rng(52)
        for k in (1, 3, 6):
            eps = 10 ** rng.uniform(-6, -1, 9) * np.exp(2j * math.pi * rng.random(9))
            rows = tangency_angles(k, eps, 1.1)
            singles = [tangency_angles(k, e, 1.1) for e in eps]
            assert rows.angles.shape == (9, 2 * k)
            assert np.abs(rows.angles - [s.angles for s in singles]).max() <= 1e-13
            assert rows.newton_iterations == sum(s.newton_iterations for s in singles)
            assert np.abs(rows.residuals()).max() < 1e-12

    def test_newton_divergence_on_the_same_inputs(self):
        # |eps| against r^{k+1} from 0.1 to 30: some seeds leave their basin
        rng = np.random.default_rng(53)
        raised = 0
        for k in range(1, 8):
            for _ in range(12):
                r = rng.uniform(0.5, 1.25)
                eps = 10 ** rng.uniform(-1, 1.5) * r ** (k + 1) * cmath.exp(2j * math.pi * rng.random())
                want = _outcome(lambda: _tangency_angles_reference(k, eps, r)[0])
                got = _outcome(lambda: tangency_angles(k, eps, r).angles)
                if isinstance(want, tuple):
                    assert got == want
                    raised += 1
                else:
                    assert np.abs(got - want).max() <= 1e-13
        assert 10 < raised < 84
        # over a vector of eps the first failing row names its seed
        eps = np.array([1e-3, 100j, 1e-2])
        with pytest.raises(NewtonDivergence) as exc:
            tangency_angles(2, eps, 1.0)
        with pytest.raises(NewtonDivergence) as ref:
            _tangency_angles_reference(2, 100j, 1.0)
        assert str(exc.value) == str(ref.value)

    def test_tangency_times_match_reference(self):
        # real eps with k = 3 puts tangencies exactly on slits
        rng = np.random.default_rng(54)
        cases = [(3, 1e-4 + 0j, 1.0), (3, -2e-3 + 0j, 0.9)]
        for k in range(1, 8):
            for _ in range(4):
                eps = 10 ** rng.uniform(-8, -1) * cmath.exp(2j * math.pi * rng.random())
                cases.append((k, eps, rng.uniform(0.8, 1.25)))
        slits = 0
        for k, eps, r in cases:
            got = tangency_times(tangency_angles(k, eps, r))
            want, sectors = _tangency_times_reference(k, r, eps, got.angles)
            assert np.array_equal(got.vertex_index, sectors)
            assert np.abs(got.t_values - want).max() <= 1e-13 * np.abs(want).max()
            slits += int(got.on_slit.sum())
        assert slits >= 2

    def test_eyelet_points_match_reference(self):
        fld = ModelField(4, 3e-3 * cmath.exp(0.8j))
        gon = periods(fld)
        for ell in range(5):
            pts = eyelet_points(fld, 0.95, ell, n=64)
            a0 = (fld.theta() + TWO_PI * ell) / 5
            a1 = (fld.theta() + TWO_PI * (ell + 1)) / 5
            alphas = np.linspace(a0 + 1e-6, a1 - 1e-6, 64)
            want = np.array([gon.vertices[ell] + _xi_reference(fld, 0.95 * cmath.exp(1j * a)) for a in alphas])
            assert np.abs(pts - want).max() <= 1e-13 * np.abs(want).max()

    def test_residual_grid_across_the_seam(self):
        # theta grids that cross 0 and 2*pi, all four selections
        rng = np.random.default_rng(55)
        for k in (1, 2, 3, 4, 5):
            pairs = [(0, 1), (0, k)] if k > 1 else [(0, 1)]
            for pair in pairs:
                abs_eps = 10 ** rng.uniform(-6, -1)
                r = rng.uniform(0.8, 1.25)
                grid = np.concatenate([np.linspace(-0.4, 0.4, 9), TWO_PI + np.linspace(-0.4, 0.4, 9)])
                scale = 2 * np.abs(periods(ModelField(k, abs_eps)).vertices).max()
                for selection in disk.SELECTIONS:
                    got = double_tangency_residual(k, r, abs_eps, grid, pair, selection=selection)
                    want = [_residual_reference(k, r, abs_eps, th, pair, selection) for th in grid]
                    assert got.shape == grid.shape
                    assert np.abs(got - want).max() <= 1e-13 * scale
                    one = double_tangency_residual(k, r, abs_eps, grid[3], pair, selection=selection)
                    assert type(one) is float and one == got[3]

    def test_first_failing_theta_raises(self):
        # k = 1, r = 0.8: |eps| = 0.63 fails in the Newton solve at some
        # theta, and every fifth point, at |eps| = 0.8 >= r^2, at the radius
        # check before it; a grid raises what a loop over it raises first
        grid = np.linspace(-1.0, 7.0, 33)
        abs_eps = np.where(np.arange(33) % 5 == 4, 0.8, 0.63)
        kinds = set()
        for start in range(0, 33, 4):
            for ae, th in zip(abs_eps[start:], grid[start:]):
                want = _outcome(_residual_reference, 1, 0.8, ae, th, (0, 1))
                if isinstance(want, tuple):
                    break
            kinds.add(want[1].split(",")[0])
            got = _outcome(double_tangency_residual, 1, 0.8, abs_eps[start:], grid[start:], (0, 1))
            assert got == want
        assert kinds == {"no tangency root in the basin of seed 0", "the 2 tangencies need r^2 > |eps|"}

    def test_eps_grid_matches_scalar_calls(self):
        # lanes of |eps| over five decades against (|eps|, theta) grids that
        # cross the seam: every element has the bits of its scalar call
        rng = np.random.default_rng(57)
        for k in (1, 2, 3, 4, 5):
            pair = (0, k) if k > 1 else (0, 1)
            r = rng.uniform(0.8, 1.25)
            abs_eps = 10 ** rng.uniform(-6, -1, size=(4, 1))
            theta = rng.uniform(-0.5, 0.5, size=(4, 5)) + TWO_PI * rng.integers(0, 2, size=(4, 1))
            for selection in ("top-bottom", "bottom-top"):
                got = double_tangency_residual(k, r, abs_eps, theta, pair, selection=selection)
                assert got.shape == theta.shape
                for (i, j), value in np.ndenumerate(got):
                    one = double_tangency_residual(k, r, abs_eps[i, 0], theta[i, j], pair, selection=selection)
                    assert value == one
            lanes = double_tangency_residual(k, r, abs_eps[:, 0], theta[:, 0], pair)
            assert np.array_equal(lanes, double_tangency_residual(k, r, abs_eps, theta, pair)[:, 0])

    def test_first_failing_eps_raises(self):
        # k = 1, r = 0.8: |eps| = 0.8 fails at every theta; a (|eps|, theta)
        # grid raises what its first failing pair raises alone
        abs_eps = np.array([[1e-3], [0.8], [1e-3], [0.8]])
        theta = np.linspace(-1.0, 7.0, 33)[::4]
        for start in range(4):
            part = abs_eps[start:]
            want = next(
                out
                for ae in part[:, 0]
                for th in theta
                if isinstance(out := _outcome(_residual_reference, 1, 0.8, ae, th, (0, 1)), tuple)
            )
            assert _outcome(double_tangency_residual, 1, 0.8, part, theta, (0, 1)) == want

    def test_non_finite_theta_refused(self):
        # an infinite theta used to spin in the seam loop for ever
        for bad in (math.inf, -math.inf, math.nan, [0.3, math.inf]):
            with pytest.raises(ValueError):
                double_tangency_residual(2, 1.0, 1e-3, bad, (0, 1))

    def test_root_loss_rule_per_theta(self, monkeypatch):
        # no eyelet goes empty on valid input, so relabel eyelet 1 as 2 for
        # theta > 1 and check the rule and the first-failing-theta order
        real = disk.tangency_times

        def relabel(tset):
            out = real(tset)
            far = np.angle(np.asarray(tset.epsilon)[..., None]) % TWO_PI > 1.0
            return replace(out, vertex_index=np.where(far & (out.vertex_index == 1), 2, out.vertex_index))

        monkeypatch.setattr(disk, "tangency_times", relabel)
        ok = double_tangency_residual(2, 1.0, 1e-3, np.linspace(0.2, 0.9, 5), (0, 1))
        assert np.isfinite(ok).all()
        with pytest.raises(RootLoss, match="eyelet 1 carries no tangency point"):
            double_tangency_residual(2, 1.0, 1e-3, np.linspace(0.2, 2.0, 7), (0, 1))
        # across the seam the pair (2, 0) is relabelled to (0, 1) at theta - 2 pi
        with pytest.raises(RootLoss, match="eyelet 1 carries no tangency point"):
            double_tangency_residual(2, 1.0, 1e-3, 1.5 - TWO_PI, (2, 0))
        assert math.isfinite(double_tangency_residual(2, 1.0, 1e-3, 0.5 - TWO_PI, (2, 0)))

    def test_bracket_root_grid(self):
        calls = []

        def fun(xs):
            calls.append(xs.shape)
            return np.cos(xs)

        # one call on a (lanes, n) grid; each lane its own first sign change
        x0, x1, f0, f1 = disk._bracket_root(fun, [0.0, 2.0, 0.0], [3.0, 6.0, 0.5], n=31)
        assert calls == [(3, 31)]
        assert x0[0] < math.pi / 2 < x1[0] and f0[0] > 0 > f1[0]
        assert x0[1] < 3 * math.pi / 2 < x1[1] and f0[1] < 0 < f1[1]
        # a lane without a sign change has no bracket
        assert all(np.isnan(a[2]) for a in (x0, x1, f0, f1))
        assert all(np.isnan(a).all() for a in disk._bracket_root(fun, [0.0], [0.5], n=8))
        # an exact zero returns (x, x); a sign change before it comes first
        out = disk._bracket_root(lambda xs: np.cos(4 * xs) * (xs - 1.0), [0.0, 0.0], [2.0, 2.0], n=5)
        assert (out[0][0], out[1][0]) == (0.0, 0.5)
        out = disk._bracket_root(lambda xs: xs - 1.0, [0.0], [2.0], n=5)
        assert (out[0][0], out[1][0], out[2][0], out[3][0]) == (1.0, 1.0, 0.0, 0.0)

    BRENT_CASES = (
        (lambda x: np.cos(x) - 0.3, 0.0, 3.0),
        (lambda x: x**3 - 2 * x - 5, 0.0, 3.0),
        (lambda x: np.exp(x) - 3.0, -3.0, 3.0),
        (lambda x: np.tanh(20 * (x - 0.7)), -3.0, 3.0),
        (lambda x: x * np.exp(-x) - 0.1, 0.0, 1.0),
    )

    def _brent_brackets(self):
        """Lanes (function index, lo, hi) around the roots of BRENT_CASES."""
        from scipy.optimize import brentq

        rng = np.random.default_rng(56)
        lanes = []
        for i, (f, a, b) in enumerate(self.BRENT_CASES):
            root = brentq(f, a, b, xtol=1e-15, rtol=1e-15)
            for _ in range(8):
                lo = root - rng.uniform(1e-6, 1.0)
                hi = root + rng.uniform(1e-6, 1.0)
                if f(lo) * f(hi) < 0:
                    lanes.append((i, lo, hi))
        which, lo, hi = (np.array(col) for col in zip(*lanes))
        return which, lo, hi

    def _lane_function(self, which):
        def f(x, lanes):
            every = np.array([g(x) for g, _, _ in self.BRENT_CASES])
            return every[which[lanes], np.arange(len(x))]

        return f

    def test_brent_matches_brentq(self):
        from scipy.optimize import brentq

        which, lo, hi = self._brent_brackets()
        assert len(lo) >= 30
        f = self._lane_function(which)
        lanes = np.arange(len(lo))
        got = disk._brent_lanes(f, lo, hi, f(lo, lanes), f(hi, lanes))
        for i, g in enumerate(got):
            want = brentq(self.BRENT_CASES[which[i]][0], lo[i], hi[i], xtol=1e-15, rtol=1e-15)
            assert abs(g - want) <= 4e-15 * max(1.0, abs(want))

    def test_brent_lanes_independent(self):
        # each lane's root has the bits of that lane run alone, and a lane
        # that starts on an exact zero returns it
        which, lo, hi = self._brent_brackets()
        f = self._lane_function(which)
        lanes = np.arange(len(lo))
        f_lo, f_hi = f(lo, lanes), f(hi, lanes)
        f_lo[3], hi[3] = 0.0, lo[3]
        together = disk._brent_lanes(f, lo, hi, f_lo, f_hi)
        assert together[3] == lo[3]
        for i in lanes:
            alone = disk._brent_lanes(lambda x, _: f(x, np.array([i])), lo[i : i + 1], hi[i : i + 1],
                                      f_lo[i : i + 1], f_hi[i : i + 1])
            assert alone[0] == together[i]

    def test_trace_curve_matches_reference(self):
        # theta_0 = 0 for k = 3, so its minus side runs across the seam
        for k in (2, 3, 4):
            for tag in group_tags(k, 0)[1:3]:
                got = trace_curve(k, 1.0, tag, decades=(1e-4, 1e-2), per_decade=3)
                want = _trace_curve_reference(k, 1.0, tag, (1e-4, 1e-2), 3)
                assert np.array_equal(got.samples[:, 0], want[:, 0])
                assert np.abs(got.samples[:, 1] - want[:, 1]).max() <= 1e-13

    @pytest.mark.parametrize("k, j, side", [(2, 1, 1), (3, 0, -1), (4, 2, -1), (5, 1, 1)])
    def test_trace_curve_full_range_matches_reference(self, k, j, side):
        # one calibration at |eps| = 1e-2 serves four decades; the k = 3,
        # j = 0 minus side crosses the seam
        tag = next(t for t in group_tags(k, j) if t.side == side)
        got = trace_curve(k, 1.0, tag, decades=(1e-6, 1e-2), per_decade=6)
        want = _trace_curve_reference(k, 1.0, tag, (1e-6, 1e-2), 6)
        assert np.array_equal(got.samples[:, 0], want[:, 0])
        assert np.abs(got.samples[:, 1] - want[:, 1]).max() <= 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_predicted_brackets_match_reference(self, k, monkeypatch):
        # one tag per side of every ray, at r = 0.8 and 1.25 on alternate
        # pairs of rays; theta_0 = 0 for k = 3, so its minus side crosses
        # the seam.  Every lane is bracketed by its two predicted points,
        # and the calibration sample keeps the bits of a lone Brent run
        real, stages = disk._bracket_root, []

        def spy(fun, lo, hi, n=80):
            stages.append(n)
            return real(fun, lo, hi, n)

        monkeypatch.setattr(disk, "_bracket_root", spy)
        for j in range(2 * k):
            r = (0.8, 1.25)[j // 2 % 2]
            for side in (-1, 1):
                tag = next(t for t in group_tags(k, j) if t.side == side)
                got = trace_curve(k, r, tag, decades=(1e-3, 1e-2), per_decade=1)
                want = _trace_curve_reference(k, r, tag, (1e-3, 1e-2), 1)
                assert np.array_equal(got.samples[:, 0], want[:, 0])
                assert np.abs(got.samples[:, 1] - want[:, 1]).max() <= 1e-13
                assert got.samples[-1, 1] == _calibration_reference(k, r, tag, got.samples[-1, 0])
        assert 2 in stages and 40 not in stages


class TestCounters:
    def test_residual_evaluations_counted(self, monkeypatch):
        seen = []
        real = disk.double_tangency_residual

        def counted(k, r, abs_eps, theta, pair, selection="top-bottom"):
            out = real(k, r, abs_eps, theta, pair, selection=selection)
            seen.append(np.size(out))
            return out

        monkeypatch.setattr(disk, "double_tangency_residual", counted)
        tag = group_tags(2, 1)[1]
        curve = trace_curve(2, 1.0, tag, decades=(1e-4, 1e-2), per_decade=4)
        n = len(curve.samples)
        assert curve.residual_calls == len(seen)
        assert curve.residual_evaluations == sum(seen)
        # the calibration scan, two points a predicted sample, then the
        # lane Brent, every sample in its first step
        assert seen[:3] == [80, 2 * (n - 1), n]
        assert max(seen[3:]) <= n
        assert curve.bracket_widenings == 0

    def test_residual_calls_per_curve(self):
        # calibration, one bracket call for the other 48 samples, lane Brent
        for k in (2, 3, 4):
            tag = group_tags(k, 0)[1]
            curve = trace_curve(k, 1.0, tag, decades=(1e-6, 1e-2), per_decade=12)
            assert len(curve.samples) == 49
            assert curve.residual_calls <= 20

    def test_bracket_widenings_counted(self, monkeypatch):
        # refuse the first lane of the predicted brackets and of the 3x and
        # 6x windows: that lane is found in the 15x window
        real = disk._bracket_root
        calls = []

        def refusing(fun, lo, hi, n=80):
            out = real(fun, lo, hi, n)
            calls.append((len(lo), n))
            if len(calls) in (2, 3, 4):
                for a in out:
                    a[0] = np.nan
            return out

        monkeypatch.setattr(disk, "_bracket_root", refusing)
        tag = group_tags(3, 1)[1]
        curve = trace_curve(3, 1.0, tag, decades=(1e-3, 1e-2), per_decade=3)
        assert calls == [(1, 80), (len(curve.samples) - 1, 2), (1, 40), (1, 40), (1, 40)]
        assert curve.bracket_widenings == 3
        monkeypatch.setattr(disk, "_bracket_root", real)
        plain = trace_curve(3, 1.0, tag, decades=(1e-3, 1e-2), per_decade=3)
        assert np.abs(plain.samples - curve.samples).max() <= 1e-13

    def test_refused_predictions_fall_back(self, monkeypatch):
        # lanes whose two predicted points are refused reach the 40-point
        # windows and find the roots of the plain trace
        tag = group_tags(4, 2)[2]
        plain = trace_curve(4, 1.0, tag, decades=(1e-5, 1e-2), per_decade=2)
        real = disk._bracket_root
        calls = []

        def refusing(fun, lo, hi, n=80):
            out = real(fun, lo, hi, n)
            calls.append((len(lo), n))
            if n == 2:
                for a in out:
                    a[[0, 3, 5]] = np.nan
            return out

        monkeypatch.setattr(disk, "_bracket_root", refusing)
        curve = trace_curve(4, 1.0, tag, decades=(1e-5, 1e-2), per_decade=2)
        assert calls[-2:] == [(len(curve.samples) - 1, 2), (3, 40)]
        assert curve.bracket_widenings == plain.bracket_widenings + 3
        assert np.abs(plain.samples - curve.samples).max() <= 1e-13
        want = _trace_curve_reference(4, 1.0, tag, (1e-5, 1e-2), 2)
        assert np.abs(curve.samples - want).max() <= 1e-13

    def test_root_loss_names_largest_unbracketed(self, monkeypatch):
        # the continued lanes run from the largest |eps| down; refuse lanes
        # 2 and 4 of the predicted brackets and every rescan
        real = disk._bracket_root

        def refusing(fun, lo, hi, n=80):
            out = real(fun, lo, hi, n)
            if n < 80:
                for a in out:
                    a[[2, 4] if n == 2 else slice(None)] = np.nan
            return out

        monkeypatch.setattr(disk, "_bracket_root", refusing)
        tag = group_tags(2, 0)[1]
        grid = disk._log_grid(1e-3, 1e-2, 6)
        with pytest.raises(RootLoss, match=f"at \\|eps\\|={grid[-4]:g}$"):
            trace_curve(2, 1.0, tag, decades=(1e-3, 1e-2), per_decade=6)

    def test_to_dict_unchanged_by_counters(self):
        tag = group_tags(2, 0)[1]
        curve = trace_curve(2, 1.0, tag, decades=(1e-3, 1e-2), per_decade=3)
        assert curve.residual_evaluations > 0
        bare = replace(curve, residual_evaluations=0, bracket_widenings=0)
        assert json.dumps(curve.to_dict()) == json.dumps(bare.to_dict())
        assert set(curve.to_dict()) == {"tag", "samples", "exponent"}

    def test_newton_iterations(self):
        assert tangency_angles(3, 0.0, 1.0).newton_iterations == 6
        assert tangency_angles(3, 1e-2j, 1.0).newton_iterations > 6
