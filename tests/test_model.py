import cmath
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    cold_far_segment,
    cold_landing_segments,
    lane_radii,
    quad_rectify,
    reference_dopri,
    reference_periods,
    scalar_ds_invariant_integrated,
    scalar_landing,
    scalar_separatrix_invariant,
)
from parafold import model, render
from parafold.disk import tangency_angles
from parafold.model import (
    AtBifurcation,
    DegenerateParameter,
    DSInvariant,
    IntegratorControls,
    ModelField,
    PathThroughSingularity,
    SeriesOutOfDomain,
    StepSizeUnderflow,
    Termination,
    apply_transition,
    bifurcation_angles,
    capture_radius,
    chart_radius,
    ds_invariant,
    ds_invariant_integrated,
    ds_transition,
    escape_radius,
    homoclinic_defect,
    integrate,
    is_homoclinic,
    is_zigzag,
    landing_lanes,
    landing_radii,
    periods,
    rectify,
    sector_index,
    separatrices,
    singularities,
    transition_rule_holds,
    xi_array,
    xi_series,
)

TWO_PI = 2 * math.pi


def vertex_scale(k):
    """Circumradius constant of the period-gon at |eps| = 1."""
    return (math.pi / (k + 1)) / math.sin(math.pi / (k + 1))


def _xi_reference(fld, z, tol=1e-18, max_terms=20000):
    """The scalar loop that ``xi_series`` replaced: terms are summed until
    one falls below ``tol`` times the sum."""
    k1 = fld.k + 1
    if abs(z) ** k1 <= abs(fld.epsilon):
        raise SeriesOutOfDomain("|z|^{k+1} must exceed |eps|")
    ratio = fld.epsilon / z**k1
    zk = z**fld.k
    acc = 0j
    power = 1.0 + 0.0j
    for n in range(max_terms):
        term = power / (((n + 1) * k1 - 1) * zk)
        acc -= term
        if abs(term) < tol * max(abs(acc), 1e-300):
            break
        power *= ratio
    return acc


def _sector_reference(fld, z, slit_tol=1e-12):
    """The scalar sector rule that ``sector_array`` replaced."""
    k1 = fld.k + 1
    ang = (cmath.phase(z) - fld.theta() / k1) % TWO_PI
    ell = int(ang / (TWO_PI / k1)) % k1
    rel = ang - ell * TWO_PI / k1
    on_slit = min(rel, TWO_PI / k1 - rel) < slit_tol
    if on_slit:
        ang = (ang + 2 * slit_tol) % TWO_PI
        ell = int(ang / (TWO_PI / k1)) % k1
    return ell, on_slit


def _apply_transition_reference(order, parity):
    """The group walk that the swap of adjacent entries replaced."""
    chain = list(order)
    n_seg = len(chain) - 1
    kept = [(chain[i], chain[i + 1]) for i in range(parity, n_seg, 2)]
    groups = []
    covered = set()
    for a, b in kept:
        covered.add(a)
        covered.add(b)
    i = 0
    while i < len(chain):
        if i + 1 < len(chain) and (chain[i], chain[i + 1]) in kept:
            groups.append([chain[i + 1], chain[i]])
            i += 2
        elif chain[i] not in covered:
            groups.append([chain[i]])
            i += 1
        else:
            i += 1
    return tuple(x for g in groups for x in g)


def _generic_field(rng, k, log_eps=(-1.0, 0.0), margin=1e-2):
    while True:
        eps = 10 ** rng.uniform(*log_eps) * cmath.exp(2j * math.pi * rng.random())
        fld = ModelField(k, eps)
        if homoclinic_defect(fld) > margin:
            return fld


def _near_ray_fields(ks=range(1, 8), abs_eps=(0.5, 1.0, 3.0)):
    """Fields at offsets 1e-3 down to 1e-8 on both sides of every theta_j."""
    for k in ks:
        for theta in bifurcation_angles(k):
            for r in abs_eps:
                for offset in (1e-3, 1e-4, 1e-6, 1e-8):
                    for side in (-1, 1):
                        yield ModelField(k, r * cmath.exp(1j * (theta + side * offset)))


class TestModelField:
    @pytest.mark.parametrize(
        "eps", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1, math.inf)]
    )
    def test_non_finite_eps_is_refused(self, eps):
        # a NaN eps is not generic, nor an infinite one a field
        with pytest.raises(ValueError, match="eps must be finite"):
            ModelField(2, eps)


class TestSingularities:
    def test_cube_roots_of_unity(self):
        got = singularities(ModelField(2, 1.0))
        expect = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.abs(got - expect).max() < 1e-14

    def test_k1_negative(self):
        got = singularities(ModelField(1, -4.0))
        assert np.abs(got - np.array([2j, -2j])).max() < 1e-14

    def test_residuals_k6(self):
        eps = cmath.exp(1j * math.pi / 5)
        got = singularities(ModelField(6, eps))
        assert np.abs(got**7 - eps).max() < 1e-14

    def test_degenerate(self):
        with pytest.raises(DegenerateParameter):
            singularities(ModelField(3, 0.0))

    def test_rotational_covariance(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 4, 6):
            eps = cmath.exp(2j * math.pi * rng.random())
            beta = 2 * math.pi * rng.random()
            rotated = singularities(ModelField(k, cmath.exp(1j * (k + 1) * beta) * eps))
            base = np.exp(1j * beta) * singularities(ModelField(k, eps))
            # compare as sets
            dist = np.abs(rotated[:, None] - base[None, :]).min(axis=1).max()
            assert dist < 1e-12


class TestPeriods:
    def test_k2_relation(self):
        # for z^3 = 1 the periods are (2 pi i/3) z_l and they sum to zero
        gon = periods(ModelField(2, 1.0))
        expect = 2j * np.pi / 3 * gon.singularities
        assert np.abs(gon.periods - expect).max() < 1e-14
        assert abs(gon.periods.sum()) < 1e-14

    def test_vertex_spacing_k1(self):
        gon = periods(ModelField(1, cmath.exp(0.7j)))
        assert abs(abs(gon.periods[0]) - math.pi) < 1e-13
        spacing = abs(gon.vertices[0] - gon.vertices[1])
        assert abs(spacing - math.pi) < 1e-13
        assert abs(vertex_scale(1) - math.pi / 2) < 1e-15
        assert np.abs(np.abs(gon.vertices) - vertex_scale(1)).max() < 1e-13

    def test_vertex_polar_magnitude(self):
        # |v| = C_k |eps|^{-k/(k+1)}
        for k in (2, 3, 5):
            abs_eps = 0.37
            gon = periods(ModelField(k, abs_eps * cmath.exp(0.9j)))
            expect = vertex_scale(k) * abs_eps ** (-k / (k + 1))
            assert np.abs(np.abs(gon.vertices) - expect).max() < 1e-10 * expect

    def test_cyclic_order_of_period_arguments(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 5, 6):
            eps = cmath.exp(2j * math.pi * rng.random())
            gon = periods(ModelField(k, eps))
            args = np.angle(gon.periods)
            # circular order of arguments matches the singularity order:
            # going counterclockwise through the list, each argument advances
            # by the same circular shift
            diffs = np.diff(np.r_[args, args[0]]) % TWO_PI
            assert np.all(diffs > 0)
            assert abs(diffs.sum() - TWO_PI) < 1e-9

    def test_eigenvalue_order_reversed(self):
        gon = periods(ModelField(3, cmath.exp(0.21j)))
        sing_args = np.angle(gon.singularities * np.exp(-1j * np.angle(gon.singularities[0])))
        eig_args = np.angle(gon.eigenvalues * np.exp(-1j * np.angle(gon.eigenvalues[0])))
        sing_steps = np.diff(sing_args % TWO_PI) % TWO_PI
        eig_steps = np.diff(eig_args % TWO_PI) % TWO_PI
        # counterclockwise steps of eigenvalues are the complements
        assert np.abs(sing_steps + eig_steps - TWO_PI).max() < 1e-9

    def test_sides_are_negated_periods(self):
        gon = periods(ModelField(4, cmath.exp(1.1j)))
        for ell in range(5):
            a, b = gon.side(ell)
            assert abs((b - a) + gon.periods[ell]) < 1e-12


class TestGonTurnedAndScaled:
    """``periods`` turns and scales the gon of eps = 1; ``reference_periods``
    sums the periods at eps itself."""

    @staticmethod
    def _fields(n, seed):
        # offsets of 1e-10 to 1e-5 from a homoclinic ray, on either side;
        # arg eps at 0, +-1e-13 and +-1e-12; and arg eps near +-(k+1) 1e-12,
        # where z = 1 sits on either side of the 1e-12 slit band
        rng = np.random.default_rng(seed)
        fields = []
        for i in range(n):
            k = int(rng.integers(1, 13))
            kind = i % 3
            if kind == 0:
                ray = bifurcation_angles(k)[rng.integers(2 * k)]
                theta = ray + rng.choice([-1, 1]) * 10 ** rng.uniform(-10, -5)
            elif kind == 1:
                theta = float(rng.choice([0.0, 1e-13, -1e-13, 1e-12, -1e-12]))
            else:
                theta = rng.choice([-1, 1]) * (k + 1) * 1e-12 * rng.choice([0.5, 0.999, 1.001, 2.0])
            fields.append(ModelField(k, 10 ** rng.uniform(-6, 6) * cmath.exp(1j * theta)))
        return fields

    def test_vertices_match_the_partial_sums(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for k in range(1, 13):
            for abs_eps in 10.0 ** np.linspace(-300, 300, 25):
                for theta in (0.0, 1e-13, -1e-13, rng.uniform(0, TWO_PI), -1.0, TWO_PI - 1e-12):
                    fld = ModelField(k, abs_eps * cmath.exp(1j * theta))
                    ref = reference_periods(fld)
                    err = np.abs(periods(fld).vertices - ref).max() / np.abs(ref).max()
                    worst = max(worst, err)
        assert worst < 1e-13

    def test_verdicts_match_the_partial_sums(self, monkeypatch):
        fields = self._fields(20000, 31)

        def verdicts():
            out = []
            for fld in fields:
                try:
                    inv = ds_invariant(fld)
                    out.append((inv.order, inv.attachment, is_homoclinic(fld)))
                except AtBifurcation:
                    out.append(("at bifurcation", is_homoclinic(fld)))
            return out

        turned = verdicts()
        monkeypatch.setattr(
            model, "_unit_vertices", lambda fld: reference_periods(model._unit_field(fld)).tolist()
        )
        summed = verdicts()
        assert turned == summed
        # both verdicts occur, at either side of the slit band
        assert 0 < sum(v[0] == "at bifurcation" for v in turned) < len(fields)

    def test_sector_of_one(self):
        fields = self._fields(6000, 37)
        assert [model._sector_of_one(fld) for fld in fields] == [
            sector_index(fld, 1 + 0j)[0] for fld in fields
        ]
        assert any(sector_index(fld, 1 + 0j)[1] for fld in fields)

    def test_gon_that_overflows_is_refused(self):
        # |eps|^{-30/31} overflows a float at |eps| = 1e-320: a typed error
        # naming k and |eps|, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesOutOfDomain, match=r"k = 30, \|eps\| = "):
                periods(ModelField(30, 1e-320j))
            with pytest.raises(DegenerateParameter):
                periods(ModelField(3, 0))

    def test_unit_gon_is_read_only(self):
        with pytest.raises(ValueError):
            model._unit_gon(3)[0] = 0


class TestBifurcationAngles:
    def test_k3(self):
        expect = np.array([0, 1, 2, 3, 4, 5]) * math.pi / 3
        assert np.abs(bifurcation_angles(3) - expect).max() < 1e-15

    def test_k2(self):
        expect = np.array([1, 3, 5, 7]) * math.pi / 4
        assert np.abs(bifurcation_angles(2) - expect).max() < 1e-15

    def test_k1(self):
        assert np.abs(bifurcation_angles(1) - np.array([0.0, math.pi])).max() < 1e-15


class TestHomoclinic:
    def test_k2_diagonal(self):
        flagged, pairs = is_homoclinic(ModelField(2, cmath.exp(1j * math.pi / 4)))
        assert flagged and pairs

    def test_k5_stable_example(self):
        assert not is_homoclinic(ModelField(5, cmath.exp(2j * math.pi * 13 / 20)))[0]

    def test_near_miss(self):
        fld = ModelField(3, cmath.exp(1j * (math.pi / 3 + 1e-3)))
        assert not is_homoclinic(fld, tol=1e-6)[0]

    def test_k1_axis_case(self):
        # for k = 1 both homoclinic positions put the vertices on the axis
        # or at equal heights
        assert is_homoclinic(ModelField(1, 1.0))[0]
        assert is_homoclinic(ModelField(1, -1.0))[0]
        assert not is_homoclinic(ModelField(1, 1j))[0]

    def test_flip_count_matches_angles(self):
        for k in (2, 3):
            thetas = bifurcation_angles(k)
            probe = np.sort(np.r_[thetas, (thetas + np.roll(thetas, -1) + np.where(np.arange(2*k) == 2*k-1, TWO_PI, 0)) / 2])
            flags = [is_homoclinic(ModelField(k, cmath.exp(1j * t)), tol=1e-9)[0] for t in probe]
            assert flags[::2] == [True] * (2 * k)
            assert flags[1::2] == [False] * (2 * k)


class TestIntegrate:
    def test_lands_at_attractor(self):
        traj = integrate(ModelField(1, 1.0), 0.0)
        assert traj.termination is Termination.LANDED
        assert abs(traj.points[-1] + 1.0) < 1e-6

    def test_rejects_near_singularity_start(self):
        with pytest.raises(ValueError):
            integrate(ModelField(1, 1.0), 1.0 + 1e-12)

    def test_conjugation_symmetry(self):
        k = 3
        eps = cmath.exp(0.77j)
        z0 = 0.3 + 0.4j
        t1 = integrate(ModelField(k, eps), z0)
        t2 = integrate(ModelField(k, eps.conjugate()), z0.conjugate())
        n = min(len(t1.points), len(t2.points))
        assert np.abs(t1.points[:n] - t2.points[:n].conjugate()).max() < 1e-8
        assert t1.termination == t2.termination

    def test_escape(self):
        # launched far outside the singular-gon along the outgoing direction
        traj = integrate(ModelField(2, 0.01), 1.5)
        assert traj.termination is Termination.ESCAPED

    def test_stops_match_reference(self):
        # the stop and the landing index of reference_dopri at rtol 1e-10,
        # with the capture radius for every root, on seeded cases: k 1..6,
        # both directions, without and with a sag bound, free, inside a
        # boundary circle, under a time cap, on a step budget and from the
        # launch circle of the separatrices.  The budget counts each
        # kernel's own attempts, so a reference that runs out of it is run
        # again without it, and an orbit that runs out of it spends it all
        rng = np.random.default_rng(2024)
        seen = set()
        n = 0
        for k in range(1, 7):
            for direction in (1, -1):
                for sag in (None, 1e-3):
                    for stop in ("free", "boundary", "time_cap", "max_steps", "separatrix"):
                        fld = _generic_field(rng, k)
                        extra = {}
                        if stop == "boundary":
                            extra["boundary_radius"] = 1.3 * fld.scale
                        elif stop == "time_cap":
                            extra["time_cap"] = float(rng.uniform(0.05, 0.5))
                        elif stop == "max_steps":
                            extra["max_steps"] = int(rng.integers(10, 200))
                        if stop == "separatrix":
                            ang = float(rng.integers(2 * k)) * math.pi / k
                            z0 = 0.995 * escape_radius(fld) * cmath.exp(1j * ang)
                        else:
                            z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
                        ctl = IntegratorControls(sag=sag, **extra)
                        got = integrate(fld, z0, direction, ctl)
                        radii = [capture_radius(fld)] * (k + 1)
                        # the reference reads the cap in the unit of z
                        ref = model._field_controls(fld, ctl)
                        want, landed, *_ = reference_dopri(fld, z0, direction, ref, radii)
                        if want is Termination.STEP_BUDGET:
                            free = replace(ref, max_steps=200_000)
                            want, landed, *_ = reference_dopri(fld, z0, direction, free, radii)
                        if got.termination is Termination.STEP_BUDGET:
                            assert got.n_accepted + got.n_rejected == ctl.max_steps
                        else:
                            assert (got.termination, got.landed_index) == (want, landed), (fld, z0)
                        seen.add(got.termination)
                        n += 1
        assert n == 120
        assert seen == set(Termination)

    def test_counters(self):
        # the marcher's kept steps, one point each before the chart points,
        # its halved attempts and its smallest kept step time
        traj = integrate(ModelField(2, cmath.exp(0.3j)), 0.5 + 0.5j, -1)
        n = traj.n_accepted
        assert 0 < n < len(traj.points) - 1
        assert traj.n_rejected >= 0
        assert traj.h_min_seen == pytest.approx(np.diff(traj.times[: n + 1]).min(), rel=1e-9)
        # the JSON form carries no counters
        assert set(traj.to_dict()) == {"points", "termination"}

    def test_step_budget_is_not_time_cap(self):
        traj = integrate(ModelField(2, 1.0), 0.3, controls=IntegratorControls(max_steps=5))
        assert traj.termination is Termination.STEP_BUDGET
        assert traj.n_accepted + traj.n_rejected == 5
        assert traj.to_dict()["termination"] == "step_budget"


class TestScalarKernel:
    """``_march`` on one orbit, against ``conftest.reference_dopri``, an
    error-controlled Dormand-Prince kernel."""

    def test_matches_reference_kernel(self):
        # k 1..7, both directions, every stop; radii of integrate (the
        # capture radius) and of landing_lanes (certified disks, cut back
        # to a boundary circle); starts anywhere, on the launch circle of
        # the separatrices and outward on an outgoing ray (escape): the
        # stop and the landing index of the reference at rtol 1e-10.  The
        # budget counts each kernel's own attempts: the reference runs
        # without it, and an orbit of the marcher that runs out of it
        # spends it all
        rng = np.random.default_rng(1414)
        seen = set()
        n = 0
        for k in range(1, 8):
            for direction in (1, -1):
                for stop in ("free", "boundary", "time_cap", "max_steps", "separatrix", "escape"):
                    for lanes in (False, True):
                        fld = _generic_field(rng, k, log_eps=(-1.5, 1.0))
                        extra = {}
                        if stop == "boundary":
                            extra["boundary_radius"] = fld.scale * rng.uniform(1.1, 2.0)
                        elif stop == "time_cap":
                            extra["time_cap"] = float(rng.uniform(0.05, 0.5))
                        elif stop == "max_steps":
                            extra["max_steps"] = int(rng.integers(2, 20))
                        ctl = IntegratorControls(**extra)
                        if stop == "separatrix":
                            ang = float(rng.integers(2 * k)) * math.pi / k
                            z0 = 0.995 * escape_radius(fld) * cmath.exp(1j * ang)
                        elif stop == "escape":
                            # z' = z^{k+1} points outward on arg z = 0 and
                            # inward on arg z = pi/k, far from the roots
                            ang = 0.0 if direction == 1 else math.pi / k
                            z0 = 3.0 * fld.scale * cmath.exp(1j * ang)
                        else:
                            z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
                        if lanes:
                            radii = lane_radii(fld, direction, ctl.boundary_radius).tolist()
                        else:
                            radii = [capture_radius(fld)] * (k + 1)
                        got = model._march(fld, z0, direction, radii, ctl)
                        free = IntegratorControls(**{**extra, "max_steps": 200_000})
                        want = reference_dopri(fld, z0, direction, free, radii)
                        if got[0] is Termination.STEP_BUDGET:
                            assert got[2] + got[3] == ctl.max_steps
                        else:
                            assert got[:2] == want[:2], (fld, z0, direction, radii)
                        seen.add(got[0])
                        n += 1
        assert n == 168
        assert seen == set(Termination)

    def test_takeover_arguments(self):
        # an orbit started mid-flight, as separatrices starts a transit
        # where its far segment ends: the steps of the orbit started at
        # time 0, shifted by the start time, up to the time cap (the last
        # step, cut at the cap, to rounding)
        rng = np.random.default_rng(1415)
        for k in range(1, 8):
            fld = _generic_field(rng, k)
            for direction in (1, -1):
                z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
                t = float(rng.uniform(0.0, 1.0))
                radii = landing_radii(fld).tolist()
                runs = []
                for start in (0.0, t):
                    path = ([], [])
                    ctl = IntegratorControls(time_cap=start + 1.0)
                    runs.append((model._march(fld, z0, direction, radii, ctl, path, start), path))
                (got, got_path), (ref, ref_path) = runs[1], runs[0]
                assert got[:2] == ref[:2]
                np.testing.assert_allclose(got_path[0], ref_path[0], rtol=1e-12)
                np.testing.assert_allclose(got_path[1], np.add(ref_path[1], t), rtol=1e-12)

    def test_start_an_ulp_short_of_the_cap(self):
        # a far segment cut at the cap can end its time an ulp short of it;
        # the rest moves z by less than a solve resolves, and the orbit stops
        # at the cap instead of halving that step below its floor
        for k in (1, 2, 3, 5):
            for abs_eps in (1e-6, 1.0):
                fld = ModelField(k, abs_eps * cmath.exp(0.7j))
                z0 = 1.5 * fld.scale * cmath.exp(0.3j)
                radii = lane_radii(fld, 1).tolist()
                for cap in (0.5, 500.0, 5e5):
                    ctl = IntegratorControls(time_cap=cap)
                    got = model._march(fld, z0, 1, radii, ctl, None, math.nextafter(cap, 0.0))
                    assert got[0] is Termination.TIME_CAP and got[2] <= 1, (k, abs_eps, cap)
        # separatrices with caps that fall in their far segments or transits
        rng = np.random.default_rng(488)
        for k in (1, 2):
            fld = ModelField(k, 1e-6 * cmath.exp(1j * (0.37 * math.pi / k)))
            for cap in rng.uniform(100.0, 3000.0, 12):
                ctl = IntegratorControls(sag=1e-3, time_cap=cap * fld.scale**k, max_steps=40_000)
                for traj in separatrices(fld, ctl):
                    assert traj.termination in (Termination.TIME_CAP, Termination.LANDED)
                    assert traj.times[-1] <= cap * (1.0 + 1e-15)

    def test_underflow_message(self):
        # with no Newton sweep allowed every step is rejected and halved:
        # the message names the step, its nominal time and the time of the
        # orbit, which starts mid-flight here
        fld = ModelField(3, cmath.exp(-2.1j))
        radii = [capture_radius(fld)] * 4
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "MARCH_SWEEPS", 0)
            with pytest.raises(StepSizeUnderflow) as exc:
                model._march(fld, -1.68 + 0.46j, 1, radii, IntegratorControls(), None, 2.5)
        pattern = r"marching step (\S+) below 1e-09 of its nominal (\S+) at t=2.5"
        assert re.fullmatch(pattern, str(exc.value)), str(exc.value)

    def test_predictor_at_large_k(self):
        # at k = 700 f and f' reach 1e123 on |z| = 1.5 s and the cube of f'
        # overflows a float: in the unit chord/|f| the predictor's terms stay
        # of order one, and separatrices from their inner far ends land
        fld = ModelField(700, 0.3 + 0.2j)
        js = np.arange(0, 1400, 233)
        ang, sign, tau = model._far_ends(fld, js, [1.5 * fld.scale])
        far = model._far_points(fld, ang, sign, tau)[:, 0]
        ctl = IntegratorControls(max_steps=2000)
        for j, z0 in zip(js.tolist(), far.tolist()):
            direction = 1 if j % 2 else -1
            radii = lane_radii(fld, direction).tolist()
            stop, _, n_acc, n_rej, _ = model._march(fld, z0, direction, radii, ctl)
            assert stop is Termination.LANDED and n_rej <= n_acc, (j, n_acc, n_rej)

    def test_field_overflow_is_typed(self):
        # at k = 1000 z^{k+1} overflows a float from |z| = 2.0: an orbit that
        # starts there, or marches out to it, stops on the typed error that
        # the CLI maps to exit 3, in every entry point
        fld = ModelField(1000, 1.0)
        for z0 in (1.9, 2.05, 1.5 + 1.5j):
            with pytest.raises(StepSizeUnderflow, match="overflows a float"):
                integrate(fld, z0, 1)
        with pytest.raises(StepSizeUnderflow, match="overflows a float"):
            landing_lanes(fld, [0.5, 2.05], 1)

    def test_roots_at_their_angles(self):
        # the landing rule takes the root nearest in angle, l = round((arg z
        # - theta/(k+1)) (k+1)/(2 pi)) mod (k+1): every root sits at its own
        # index, and on the circle |z| = s, at any |eps|
        for k in range(1, 8):
            arc = TWO_PI / (k + 1)
            for abs_eps in (1e-30, 1e-8, 1.0, 1e8, 1e30):
                for arg in np.linspace(0.0, TWO_PI, 13):
                    fld = ModelField(k, abs_eps * cmath.exp(1j * arg))
                    sing = singularities(fld)
                    angle = (np.angle(sing) - fld.theta() / (k + 1)) / arc
                    assert [round(a) % (k + 1) for a in angle.tolist()] == list(range(k + 1))
                    gap = np.abs(np.abs(sing) - fld.scale).max()
                    assert gap <= 1e-15 * fld.scale


def _chord_times(fld, z):
    """The time along each chord [z_n, z_n+1] in closed form, sum_l
    Log((z_n+1 - z_l)/(z_n - z_l))/lambda_l by partial fractions: the time
    along the orbit wherever no root lies between the chord and the arc."""
    sing = singularities(fld)
    return (np.log((z[1:, None] - sing) / (z[:-1, None] - sing)) / fld.d_rhs(sing)).sum(axis=1)


def _distance_to_polyline(points, poly):
    """The distance from each of ``points`` to the polyline ``poly``."""
    a, ab = poly[:-1], np.diff(poly)
    length = np.maximum(np.abs(ab) ** 2, 1e-300)
    out = np.empty(len(points))
    for i in range(0, len(points), 256):
        q = points[i : i + 256, None]
        t = np.clip(((q - a) * np.conj(ab)).real / length, 0.0, 1.0)
        out[i : i + 256] = np.abs(q - (a + t * ab)).min(axis=1)
    return out


class TestDrawnOrbits:
    """The orbits ``integrate`` and ``separatrices`` draw: marched to the
    landing disk, then on the exact orbit in the chart of the root."""

    def test_points_on_their_orbit(self):
        # every kept point lies on the orbit of the start: the closed-form
        # times of the chords add up to Im t = Im t(z_0) and Re t = Re t(z_0)
        # + dir tau_n, within 1e-10 max(1, tau_n); reference_dopri at rtol
        # 1e-12, run for tau_n, reaches three of the marched points, so no
        # root passed between a chord and its arc (the chord time would be
        # off by a period there).  k 1..6, with and without a sag bound, on
        # sample orbits and on the separatrices from the last far point
        rng = np.random.default_rng(2626)
        checked = 0
        for k in range(1, 7):
            fld = _generic_field(rng, k)
            n_far = model._far_segment(fld, np.arange(2 * k), math.inf)[0].shape[1]
            for sag in (None, 2e-3 * fld.scale):
                ctl = IntegratorControls(sag=sag)
                orbits = []
                for _ in range(3):
                    direction = int(rng.choice([1, -1]))
                    z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
                    traj = integrate(fld, z0, direction, ctl)
                    orbits.append((traj.points, traj.times, direction, traj.n_accepted))
                for j, traj in enumerate(separatrices(fld, ctl)):
                    direction = -1 if j % 2 == 0 else 1
                    kept = slice(n_far - 1, None)
                    orbits.append((traj.points[kept], traj.times[kept], direction, traj.n_accepted))
                for points, times, direction, n_acc in orbits:
                    tau = times[1:] - times[0]
                    t = np.cumsum(_chord_times(fld, points))
                    bound = 1e-10 * np.maximum(1.0, tau)
                    assert np.all(np.abs(t - direction * tau) <= bound), (fld, sag)
                    for m in sorted({n_acc // 3, 2 * n_acc // 3, n_acc} - {0}):
                        path = ([], [])
                        cap = IntegratorControls(time_cap=tau[m - 1])
                        radii = [0.0] * (k + 1)
                        reference_dopri(fld, points[0], direction, cap, radii, path, rtol=1e-12)
                        error = abs(path[0][-1] - points[m])
                        assert error <= 1e-10 * max(1.0, abs(points[m])), (fld, m)
                        checked += 1
        assert checked > 100

    @pytest.mark.parametrize("k", range(1, 7))
    def test_polylines_within_half_a_pixel(self, k):
        # the portrait's polylines, read back from the SVG in pixels, against
        # reference_dopri at rtol 1e-12 from each start (the launch point of
        # each separatrix): every reference point inside the window lies
        # within half a pixel of its polyline
        radius, size, samples = 1.5, 800, 3
        theta = bifurcation_angles(k)[0] + 0.37 * math.pi / k
        fld = ModelField(k, 0.7 * cmath.exp(1j * theta))
        svg, seps = render._portrait(k, fld.epsilon, radius, k, samples, size)
        drawn = [
            np.array([complex(*map(float, xy.split(","))) for xy in m.split()])
            for m in re.findall(r'points="([^"]*)"', svg)
        ]
        rng = np.random.default_rng(k)
        starts = []
        for _ in range(samples):
            z0 = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            starts += [(z0, 1), (z0, -1)]
        starts += [(traj.points[0], -1 if j % 2 == 0 else 1) for j, traj in enumerate(seps)]
        assert len(drawn) == len(starts) == 2 * samples + 2 * k
        ctl, radii = IntegratorControls(time_cap=2e3), [capture_radius(fld)] * (k + 1)
        for poly, (z0, direction) in zip(drawn, starts):
            path = ([complex(z0)], [0.0])
            reference_dopri(fld, z0, direction, ctl, radii, path, rtol=1e-12)
            ref = np.array(path[0])
            ref = ref[(np.abs(ref.real) <= radius) & (np.abs(ref.imag) <= radius)]
            pixels = (ref.real + radius + 1j * (radius - ref.imag)) * (size / (2 * radius))
            assert _distance_to_polyline(pixels, poly).max() <= 0.5, (k, z0, direction)

    def test_array_starts_match_scalar_calls(self):
        # integrate on an array of starts, with the directions per start or
        # one for all, against one call per start: the same stop, landing
        # index and point count, and the points to rounding, although all
        # the orbits of the array land in one chart solve
        rng = np.random.default_rng(2727)
        for k in range(1, 7):
            fld = _generic_field(rng, k)
            z0 = (rng.uniform(-2.0, 2.0, 6) + 1j * rng.uniform(-2.0, 2.0, 6)) * fld.scale
            for sag in (None, 2e-3 * fld.scale):
                ctl = IntegratorControls(sag=sag)
                mixed = np.tile([1, -1], 3)
                for direction in (1, -1, mixed):
                    batch = integrate(fld, z0, direction, ctl)
                    each = np.broadcast_to(direction, z0.shape)
                    assert isinstance(batch, list) and len(batch) == len(z0)
                    for got, z, d in zip(batch, z0.tolist(), each.tolist()):
                        want = integrate(fld, z, d, ctl)
                        assert (got.termination, got.landed_index) == (
                            want.termination, want.landed_index
                        )
                        assert len(got.points) == len(want.points), (k, z, d)
                        error = np.abs(got.points - want.points).max()
                        assert error <= 1e-14 * max(1.0, fld.scale), (k, z, d, error)
                        np.testing.assert_array_equal(got.times[: got.n_accepted + 1],
                                                      want.times[: want.n_accepted + 1])
        # a one-point array still gives a list
        assert isinstance(integrate(ModelField(2, 1.0), [0.3])[0], model.Trajectory)

    def test_portrait_lands_in_two_chart_solves(self, monkeypatch):
        # one integrate call draws every sample orbit, and the portrait
        # makes one _landing_segments call for them and one for the
        # separatrices
        calls = {"integrate": 0, "chart": []}
        integrate_, landing = render.integrate, model._landing_segments

        def counted_integrate(*args):
            calls["integrate"] += 1
            return integrate_(*args)

        def counted_landing(fld, entries, *args):
            calls["chart"].append(len(entries))
            return landing(fld, entries, *args)

        monkeypatch.setattr(render, "integrate", counted_integrate)
        monkeypatch.setattr(model, "_landing_segments", counted_landing)
        for k in (1, 2, 6):
            calls.update(integrate=0, chart=[])
            render._portrait(k, 0.5 + 0.2j, 1.5, 0, 10)
            assert calls["integrate"] == 1 and len(calls["chart"]) == 2, (k, calls)
            assert calls["chart"][0] > 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_eps_orbits_land(self, k):
        # the time cap is in the field's own unit s^{-k}: natural times grow
        # as |eps|^{-k/(k+1)}, and a cap in the unit of z stopped these
        # separatrices at time_cap.  Default controls and the portrait's;
        # sample orbits of integrate land or escape
        theta = bifurcation_angles(k)[0] + 0.37 * math.pi / k
        for abs_eps in (1e-6, 1e-4):
            fld = ModelField(k, abs_eps * cmath.exp(1j * theta))
            sing = singularities(fld)
            portrait = render._portrait(k, fld.epsilon, 1.5 * fld.scale, 0, 0)[1]
            for seps in (separatrices(fld), portrait):
                for traj in seps:
                    assert traj.termination is Termination.LANDED, (k, abs_eps)
                    assert abs(traj.points[-1] - sing[traj.landed_index]) < capture_radius(fld)
            z0 = np.exp(2j * math.pi * np.arange(8) / 8) * 1.2 * fld.scale
            for traj in integrate(fld, np.repeat(z0, 2), np.tile([1, -1], 8)):
                assert traj.termination in (Termination.LANDED, Termination.ESCAPED), (k, abs_eps)


class TestLandingIndex:
    def test_agrees_with_integrate(self):
        rng = np.random.default_rng(99)
        n = landed = 0
        while n < 240:
            k = int(rng.integers(1, 7))
            fld = _generic_field(rng, k, log_eps=(-1.0, 0.5))
            bound = None
            if n % 4 == 0:  # as separating_regions runs it, inside a boundary circle
                bound = fld.scale * rng.uniform(1.2, 2.0)
            z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
            direction = int(rng.choice([1, -1]))
            ctl = IntegratorControls(boundary_radius=bound)
            expect = integrate(fld, z0, direction, ctl).landed_index
            index = landing_lanes(fld, z0, direction, bound)[0][0]
            assert index == (-1 if expect is None else expect)
            landed += expect is not None
            n += 1
        assert landed > 150

    def test_certified_disk_sampled(self):
        # on |w| = rho_l the radial speed Re(conj(w) f) has the sign of Re lambda_l
        rng = np.random.default_rng(7)
        w_dir = np.exp(1j * np.linspace(0.0, TWO_PI, 257)[:-1])
        for k in range(1, 8):
            for abs_eps in (1e-3, 1.0, 1e3):
                for _ in range(4):
                    fld = ModelField(k, abs_eps * cmath.exp(2j * math.pi * rng.random()))
                    sing = singularities(fld)
                    re_lam = fld.d_rhs(sing).real
                    for z_l, rho, sign in zip(sing, landing_radii(fld), np.sign(re_lam)):
                        w = rho * w_dir
                        radial = (np.conj(w) * fld.rhs(z_l + w)).real
                        assert np.all(sign * radial > 0)

    def test_disks_are_disjoint(self):
        for k in range(1, 8):
            fld = ModelField(k, cmath.exp(0.1j))
            gap = 2 * fld.scale * math.sin(math.pi / (k + 1))
            assert 2 * landing_radii(fld).max() < gap

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            landing_lanes(ModelField(2, 1.0), 0.3, direction=0)

    def test_rejects_start_in_capture_radius(self):
        fld = ModelField(2, 1.0)
        with pytest.raises(ValueError):
            landing_lanes(fld, 1.0 + 1e-9, direction=1)


def _chart_modulus(fld, ell, w):
    """|u_l(z_l + w)| from the closed form of the Koenigs chart of root l,
    term by term over the other roots: the oracle of ``chart_radius``."""
    sing = singularities(fld)
    lam = fld.d_rhs(sing)
    log_u = np.log(w.astype(complex))
    for m in range(fld.k + 1):
        if m != ell:
            log_u = log_u + lam[ell] / lam[m] * np.log(1.0 - w / (sing[m] - sing[ell]))
    return np.abs(np.exp(log_u))


def _spacing(fld):
    return 2.0 * fld.scale * math.sin(math.pi / (fld.k + 1))


class TestChartDisk:
    def test_bounds_resampled(self):
        # max |u_l| on |w| = rho_k(c) d stays below min |u_l| on |w| = c d
        # on 16 times the points the cached bound sampled, for k 1..8 and
        # every c of the grid.  Reflection in the line through 0 and z_l
        # maps the field to its conjugate, so |u_l| is symmetric about it
        # (checked first) and a half circle covers the circle.
        rng = np.random.default_rng(31)
        for k in range(1, 9):
            fld = ModelField(k, 10 ** rng.uniform(-1, 1) * cmath.exp(2j * math.pi * rng.random()))
            ell = int(rng.integers(k + 1))
            axis = singularities(fld)[ell] / fld.scale
            d = _spacing(fld)
            mirror = axis * np.exp(2j * math.pi * rng.random(64))
            for radius in (0.3 * d, 0.9 * d):
                np.testing.assert_allclose(
                    _chart_modulus(fld, ell, radius * mirror),
                    _chart_modulus(fld, ell, radius * axis**2 * np.conj(mirror)),
                    rtol=1e-12,
                )
            gaps = np.abs(np.exp(2j * math.pi * np.arange(1, k + 1) / (k + 1)) - 1.0)
            for step in range(1, round(model.CHART_C * model.CHART_GRID) + 1):
                c = step / model.CHART_GRID
                rho = chart_radius(k, c)
                assert 0.0 < rho < c
                bounds = []
                for radius in (rho, c):
                    lip = 1.0 + np.sum(radius * gaps[0] / (gaps - radius * gaps[0]))
                    n = 16 * math.ceil(lip * math.pi / 0.02)
                    half = axis * np.exp(1j * np.linspace(0.0, math.pi, n + 1))
                    bounds.append(_chart_modulus(fld, ell, radius * d * half))
                assert bounds[0].max() < bounds[1].min()

    def test_grid(self):
        # c is floored to the grid, capped at CHART_C, and 0 below 1/CHART_GRID
        step = 1.0 / model.CHART_GRID
        assert chart_radius(3, 0.9) == chart_radius(3, 5.0) == chart_radius(3, 0.9 + 0.5 * step)
        assert chart_radius(3, 0.5 + 0.9 * step) == chart_radius(3, 0.5)
        assert chart_radius(3, 0.99 * step) == chart_radius(3, -1.0) == 0.0
        assert chart_radius(2, 0.3) < chart_radius(2, 0.6)

    def test_starts_in_the_chart_disk_land(self):
        # starts between landing_radii and rho_k d land at that root on the
        # capture radius, on reference_dopri, in both directions, k 1..7,
        # where every root has |Re lambda_l| >= 0.05 |lambda_l|
        rng = np.random.default_rng(32)
        n = 0
        for k in range(1, 8):
            while True:
                fld = _generic_field(rng, k, log_eps=(-1.0, 1.0))
                lam = fld.d_rhs(singularities(fld))
                if np.all(np.abs(lam.real) >= 0.05 * np.abs(lam)):
                    break
            sing = singularities(fld)
            outer = chart_radius(k, model.CHART_C) * _spacing(fld)
            ctl = IntegratorControls()
            for ell, (z_l, inner) in enumerate(zip(sing, landing_radii(fld))):
                if inner >= outer:  # at k = 1 and 2 near a centre-free direction
                    continue
                direction = -1 if lam[ell].real > 0 else 1
                for _ in range(2):
                    w = rng.uniform(inner, outer) * cmath.exp(2j * math.pi * rng.random())
                    radii = [capture_radius(fld)] * (k + 1)
                    stop, landed, *_ = reference_dopri(fld, z_l + w, direction, ctl, radii)
                    assert (stop, landed) == (Termination.LANDED, ell)
                    n += 1
        assert n >= 60

    def test_chart_modulus_falls_near_the_rays(self):
        # 1e-2 and 1e-3 from a ray a root is a weak focus: the orbit from the
        # edge of its chart disk, on reference_dopri, spirals for longer than
        # the step budget, but |u_l| falls at every step and |w| stays below
        # c d
        rng = np.random.default_rng(33)
        for k in range(1, 8):
            for offset in (1e-2, 1e-3):
                theta = bifurcation_angles(k)[rng.integers(2 * k)] + offset * rng.choice([-1, 1])
                fld = ModelField(k, 10 ** rng.uniform(-0.5, 0.5) * cmath.exp(1j * theta))
                lam = fld.d_rhs(singularities(fld))
                ell = int(np.argmin(np.abs(lam.real) / np.abs(lam)))
                d = _spacing(fld)
                z_l = singularities(fld)[ell]
                w0 = chart_radius(k, model.CHART_C) * d * cmath.exp(2j * math.pi * rng.random())
                direction = -1 if lam[ell].real > 0 else 1
                path = ([z_l + w0], [0.0])
                ctl = IntegratorControls(max_steps=1500)
                radii = [capture_radius(fld)] * (k + 1)
                reference_dopri(fld, z_l + w0, direction, ctl, radii, path)
                w = np.array(path[0]) - z_l
                u = _chart_modulus(fld, ell, w)
                assert len(u) > 100
                assert np.all(np.diff(u) < 0)
                assert np.abs(w).max() < model.CHART_C * d

    def test_lane_radii(self):
        # attracting roots: max(landing_radii, rho_k(c) d), both cut to a
        # boundary circle; the others the capture radius
        rng = np.random.default_rng(34)
        assert lane_radii is model.lane_radii
        for k in range(1, 8):
            fld = _generic_field(rng, k, log_eps=(-1.0, 1.0))
            d = _spacing(fld)
            re_lam = fld.d_rhs(singularities(fld)).real
            for bound in (None, fld.scale * rng.uniform(1.01, 1.5)):
                room = math.inf if bound is None else bound - fld.scale
                chart = chart_radius(k, min(model.CHART_C, room / d)) * d
                disk = np.maximum(np.minimum(landing_radii(fld), room), chart)
                for direction in (1, -1):
                    want = np.where(direction * re_lam < 0, disk, capture_radius(fld))
                    assert np.array_equal(lane_radii(fld, direction, bound), want)
                    assert np.all(want[direction * re_lam < 0] <= room)


class TestLandingLanes:
    """``landing_lanes``: one ``_march`` run per orbit, behind the checks
    of its entry point."""

    def test_one_direction_for_all(self):
        fld = ModelField(3, 0.7j)
        z0 = 1.5 * fld.scale * np.exp(2j * math.pi * np.arange(24) / 24 + 0.1j)
        index, _ = landing_lanes(fld, z0, -1)
        assert index.tolist() == [landing_lanes(fld, z, -1)[0][0] for z in z0]

    def test_underflow_in_the_lanes(self, monkeypatch):
        # with no Newton sweep allowed every step is rejected and halved:
        # the first of 30 equal orbits stops once its step falls below
        # MARCH_FLOOR of its nominal step, at the start (t = 0)
        fld = ModelField(3, cmath.exp(-2.1j))
        monkeypatch.setattr(model, "MARCH_SWEEPS", 0)
        with pytest.raises(StepSizeUnderflow) as got:
            landing_lanes(fld, np.full(30, -1.68 + 0.46j), 1)
        pattern = r"marching step (\S+) below 1e-09 of its nominal (\S+) at t=0"
        found = re.fullmatch(pattern, str(got.value))
        assert found, str(got.value)
        ratio = float(found[1]) / float(found[2])
        assert 0.5e-9 <= ratio < 1e-9

    def test_matches_scalar_landing(self):
        # every sample of boundary circles taken as separating_regions takes
        # them, 8 an arc, k 1..8, 1e-4 to 1e-1 from a homoclinic ray and r/s
        # in 1.03..3: the marcher against _dopri one orbit at a time, stop
        # and landing index alike, orbits that cross the disk included
        rng = np.random.default_rng(2323)
        counts = dict.fromkeys(Termination, 0)
        for k in range(1, 9):
            for _ in range(4):
                offset = 10 ** rng.uniform(-4, -1) * rng.choice([-1, 1])
                theta = bifurcation_angles(k)[rng.integers(2 * k)] + offset
                fld = ModelField(k, 10 ** rng.uniform(-1, 0.5) * cmath.exp(1j * theta))
                r = fld.scale * rng.uniform(1.03, 3.0)
                cuts = np.sort(tangency_angles(k, fld.epsilon, r).angles)
                ends = np.append(cuts[1:], cuts[0] + TWO_PI)
                alphas = np.concatenate([np.linspace(a, b, 10)[1:-1] for a, b in zip(cuts, ends)])
                zs = r * np.exp(1j * alphas) * (1.0 - 1e-9)
                direction = np.where((fld.rhs(zs) * np.conj(zs)).real < 0, 1, -1)
                ctl = IntegratorControls(boundary_radius=r * (1.0 - 1e-12))
                index, stops = landing_lanes(fld, zs, direction, ctl.boundary_radius)
                for z, d, got, stop in zip(zs.tolist(), direction.tolist(), index.tolist(), stops):
                    landed, want = scalar_landing(fld, z, d, ctl)
                    assert (stop, got) == (want, -1 if landed is None else landed), (fld, r, z)
                    counts[stop] += 1
        assert sum(counts.values()) == 2304
        assert counts[Termination.HIT_BOUNDARY] > 400
        assert counts[Termination.LANDED] + counts[Termination.HIT_BOUNDARY] == 2304

    def test_non_finite_start_as_scalar(self):
        # the entry points refuse a NaN or infinite start before the kernel
        # runs, naming it
        fld = ModelField(2, 1.0)
        nan = complex(math.nan, 1.0)
        z0 = np.linspace(0.2, 0.5, 30)
        for bad in (nan, complex(math.inf, 0.0), complex(0.3, -math.inf)):
            message = re.escape(f"z0 = {bad} is not finite")
            with pytest.raises(ValueError, match=message):
                integrate(fld, bad)
            with pytest.raises(ValueError, match=message):
                landing_lanes(fld, np.r_[z0[:-1], bad], 1)

    def test_rejects_bad_input(self):
        fld = ModelField(2, 1.0)
        z0 = np.linspace(0.2, 0.5, 20)
        with pytest.raises(ValueError):
            landing_lanes(fld, z0, np.r_[np.ones(19), 0])
        with pytest.raises(ValueError):
            landing_lanes(fld, np.r_[z0, 1.0], 1)


class TestSeparatrices:
    def test_k5_example_all_land(self):
        fld = ModelField(5, cmath.exp(2j * math.pi * 13 / 20))
        seps = separatrices(fld)
        assert len(seps) == 10
        assert all(t.termination is Termination.LANDED for t in seps)
        sing = singularities(fld)
        for t in seps:
            assert np.abs(sing - t.points[-1]).min() < 1e-6

    def test_alternating_orientation(self):
        seps = separatrices(ModelField(3, cmath.exp(0.4j)))
        assert [t.orientation for t in seps] == ["outgoing", "incoming"] * 3

    def test_homoclinic_failure(self):
        seps = separatrices(ModelField(2, cmath.exp(1j * math.pi / 4)))
        assert any(t.termination is not Termination.LANDED for t in seps)

    def test_large_eps_lands_within_absolute_tolerance(self):
        for k in (2, 3, 4):
            fld = ModelField(k, 8.0 * cmath.exp(0.3j))
            sing = singularities(fld)
            for t in separatrices(fld):
                assert t.termination is Termination.LANDED
                assert np.abs(sing - t.points[-1]).min() < 1e-6

    def test_k1_distinct_landings(self):
        seps = separatrices(ModelField(1, 1.0))
        assert {t.landed_index for t in seps} == {0, 1}

    def test_k1_transit_starts_in_the_chart_disk(self):
        # at k = 1, within about 0.5 of arg eps = 0, the far segment ends
        # inside the chart disk of the landing root (0.32 d = 0.63 s): the
        # transit takes no step, and the chart runs from the last far point,
        # with and without a sag bound
        for eps in (cmath.exp(0.2j), 0.3 * cmath.exp(0.5j), 5.0 * cmath.exp(-0.3j)):
            fld = ModelField(1, eps)
            far = model._far_segment(fld, [0, 1], math.inf)[0]
            sing = singularities(fld)
            for ctl in (IntegratorControls(), IntegratorControls(sag=1e-3)):
                seps = separatrices(fld, ctl)
                assert {t.landed_index for t in seps} == {0, 1}
                for j, t in enumerate(seps):
                    radii = lane_radii(fld, -1 if j % 2 == 0 else 1)
                    assert t.termination is Termination.LANDED and t.n_accepted == 0
                    assert abs(far[j, -1] - sing[t.landed_index]) <= radii[t.landed_index]
                    np.testing.assert_array_equal(t.points[: far.shape[1]], far[j])
                    assert len(t.points) > far.shape[1] and np.all(np.diff(t.times) > 0)
                    assert abs(t.points[-1] - sing[t.landed_index]) < capture_radius(fld)

    def test_outgoing_reach_escape_in_finite_time(self):
        # the pole at infinity makes the travel time finite for k >= 2
        for k in (2, 4):
            fld = ModelField(k, 1e-3 * cmath.exp(0.3j))
            probe = integrate(fld, 1.2, direction=1)
            assert probe.termination is Termination.ESCAPED
            assert probe.times[-1] < 10.0
            # and the outgoing separatrices themselves carry finite times
            for traj in separatrices(fld):
                if traj.orientation == "outgoing":
                    assert traj.termination is Termination.LANDED
                    assert np.isfinite(traj.times[-1])


    # the chart segments against Dormand-Prince at rtol 1e-12; both bounds
    # were fixed before the first run
    CHART_CASES = [
        (k, a * cmath.exp(1j * (bifurcation_angles(k)[1] + f * math.pi / k)))
        for k in range(1, 7)
        for a, f in ((0.05, 0.3), (1.0, 0.5), (8.0, 0.7))
    ]

    def test_far_segment_on_the_exact_separatrix(self):
        # Im xi = 0 to 1e-13 |xi| at every far point, and each far point
        # where an integrated orbit from the first one is at its time
        for k, eps in self.CHART_CASES:
            fld = ModelField(k, eps)
            far, times = model._far_segment(fld, np.arange(2 * k), math.inf)
            xi = xi_array(k, eps, far)
            assert np.all(np.abs(xi.imag) <= 1e-13 * np.abs(xi))
            assert np.all(np.diff(times) > 0)
            assert np.abs(np.abs(far[:, 0]) / (0.995 * escape_radius(fld)) - 1).max() < 1e-3
            assert np.abs(np.abs(far[:, -1]) / (1.5 * fld.scale) - 1).max() < 0.2
            n = far.shape[1] - 1
            for j in (0, 1):
                for m in (n // 2, n):
                    ctl = IntegratorControls(time_cap=times[j, m])
                    path = ([], [])
                    direction = 1 - 2 * (j % 2 == 0)
                    stop, *_ = reference_dopri(
                        fld, far[j, 0], direction, ctl, [0.0] * (k + 1), path, rtol=1e-12
                    )
                    assert stop is Termination.TIME_CAP
                    assert abs(path[0][-1] - far[j, m]) <= 1e-10 * abs(far[j, m]), (k, eps, j, m)

    def test_inner_ends_solved_alone(self):
        # ds_invariant_integrated solves only the inner end circle: the
        # points of the far grid's last column, to rounding
        for k, eps in self.CHART_CASES:
            fld = ModelField(k, eps)
            js = np.arange(2 * k)
            ang, sign, tau = model._far_ends(fld, js, [1.5 * fld.scale])
            inner = model._far_points(fld, ang, sign, tau)[:, 0]
            grid = model._far_segment(fld, js, math.inf)[0][:, -1]
            assert np.abs(inner / grid - 1).max() < 1e-14, (k, eps)

    def test_landing_segment_follows_the_orbit(self):
        # from the point where the transit entered the landing disk, the
        # chart points are where an integrated orbit is at their times
        for k, eps in self.CHART_CASES:
            fld = ModelField(k, eps)
            n_far = model._far_segment(fld, [0], math.inf)[0].shape[1]
            for j, traj in enumerate(separatrices(fld)[:2]):
                entry = n_far + traj.n_accepted - 1
                n = len(traj.points) - 1
                assert traj.termination is Termination.LANDED and n > entry
                assert abs(traj.points[-1] - singularities(fld)[traj.landed_index]) < capture_radius(fld)
                for m in sorted({entry + 1, (entry + n) // 2, n}):
                    span = traj.times[m] - traj.times[entry]
                    ctl = IntegratorControls(time_cap=span)
                    path = ([], [])
                    direction = 1 - 2 * (j % 2 == 0)
                    stop, *_ = reference_dopri(
                        fld, traj.points[entry], direction, ctl, [0.0] * (k + 1), path, rtol=1e-12
                    )
                    assert stop is Termination.TIME_CAP
                    assert abs(path[0][-1] - traj.points[m]) <= 1e-10 * fld.scale, (k, eps, j, m)

    def test_time_cap_ends_a_chart_segment(self):
        # a cap inside the landing segment ends it there, as it would end an
        # integrated orbit; a cap inside the far segment ends that one.
        # The controls give the cap in the field's time unit s^{-k}
        fld = ModelField(3, 0.7 * cmath.exp(0.9j))
        full = separatrices(fld)
        n_far = model._far_segment(fld, [0], math.inf)[0].shape[1]
        entry = n_far + full[1].n_accepted - 1
        cap = 0.5 * (full[1].times[entry] + full[1].times[-1])
        traj = separatrices(fld, IntegratorControls(time_cap=cap * fld.scale**fld.k))[1]
        assert traj.termination is Termination.TIME_CAP and traj.landed_index is None
        assert traj.times[-1] == pytest.approx(cap, rel=1e-15)
        np.testing.assert_array_equal(traj.points[: entry + 1], full[1].points[: entry + 1])
        ctl = IntegratorControls(time_cap=cap - traj.times[entry])
        path = ([], [])
        reference_dopri(fld, traj.points[entry], 1, ctl, [0.0] * 4, path, rtol=1e-12)
        assert abs(path[0][-1] - traj.points[-1]) <= 1e-10 * fld.scale
        fld = ModelField(1, 1e-6j)
        for traj in separatrices(fld, IntegratorControls(time_cap=50.0 * fld.scale**fld.k)):
            assert traj.termination is Termination.TIME_CAP and traj.n_accepted == 0
            assert traj.times[-1] == pytest.approx(50.0, rel=1e-15)

    @pytest.mark.parametrize("k", [9, 12])
    def test_large_k_lands(self, k):
        # launched at 0.995 (10 s + 10) the first Dormand-Prince step fell
        # below its floor 1e-14 for k >= 9; the arg z = 0 separatrix lands
        # at the gon's attachment
        for eps in (0.3 + 0.2j, 2.0 * cmath.exp(1j * (bifurcation_angles(k)[0] + math.pi / (2 * k)))):
            fld = ModelField(k, eps)
            seps = separatrices(fld)
            sing = singularities(fld)
            assert [t.orientation for t in seps] == ["outgoing", "incoming"] * k
            for t in seps:
                assert t.termination is Termination.LANDED
                assert abs(t.points[-1] - sing[t.landed_index]) < capture_radius(fld)
                assert np.all(np.diff(t.times) > 0)
            assert seps[0].landed_index == ds_invariant(fld).attachment

    # the series starts against the cold starts of conftest; the bounds, 1e-14
    # and 3 sweeps, were fixed before the first run
    START_CASES = [(k, a) for k in range(1, 13) for a in (1e-3, 1.0, 50.0)] + [(24, 1.0), (40, 1.0)]

    def test_series_starts_match_the_cold_starts(self, monkeypatch):
        # arg eps midway between rays 0 and 1; a sweep is one evaluation of
        # the Newton step, so a start within NEWTON_TOL takes 2
        sweeps = []
        newton = model._newton

        def counted(x, step, what):
            def stepped(v):
                sweeps[-1][1] += 1
                return step(v)

            sweeps.append([what, 0])
            return newton(x, stepped, what)

        monkeypatch.setattr(model, "_newton", counted)
        for k, a in self.START_CASES:
            fld = ModelField(k, a * cmath.exp(1j * (bifurcation_angles(k)[0] + math.pi / (2 * k))))
            js = np.arange(2 * k)
            sweeps.clear()
            far, times = model._far_segment(fld, js, math.inf)
            seps = separatrices(fld)
            entries = []
            for j, traj in enumerate(seps):
                entry = far.shape[1] + traj.n_accepted - 1
                if traj.landed_index is not None:
                    direction = -1 if j % 2 == 0 else 1
                    entries.append(
                        (traj.points[entry], traj.times[entry], traj.landed_index, direction)
                    )
            assert len(entries) == 2 * k
            time_cap = IntegratorControls().time_cap
            landing = model._landing_segments(fld, entries, time_cap)
            assert sweeps and max(n for _, n in sweeps) <= 3, (k, a, sweeps)
            cold, cold_times = cold_far_segment(fld, js, math.inf)
            np.testing.assert_array_equal(times, cold_times)
            assert np.all(np.abs(far - cold) <= 1e-14 * np.abs(cold)), (k, a)
            for (zs, ts, stop), (cold_zs, cold_ts, cold_stop) in zip(
                landing, cold_landing_segments(fld, entries, time_cap)
            ):
                assert stop is cold_stop and len(zs) == len(cold_zs)
                np.testing.assert_array_equal(ts, cold_ts)
                assert np.all(np.abs(zs - cold_zs) <= 1e-14 * np.abs(cold_zs)), (k, a)

    def test_import_builds_no_series(self):
        # the start series are built on first use, per k, never at import
        code = (
            "import parafold.series as s\n"
            "built = []\n"
            "init = s.TruncatedSeries.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "s.TruncatedSeries.__init__ = counted\n"
            "import parafold.model as m\n"
            "assert m._far_start.cache_info().currsize == 0\n"
            "assert m._landing_start.cache_info().currsize == 0\n"
            "print(len(built))\n"
        )
        src = os.path.dirname(os.path.dirname(model.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"

    def test_xi_overflow_raises(self):
        # (0.995 escape radius)^{k+1} overflows a double from k = 236 on
        with pytest.raises(SeriesOutOfDomain, match="overflows"):
            separatrices(ModelField(240, 1.0))


class TestDSInvariant:
    def test_k1(self):
        inv = ds_invariant(ModelField(1, cmath.exp(0.4j)))
        assert sorted(inv.order) == [0, 1]

    def test_k2_spec_example(self):
        inv = ds_invariant(ModelField(2, 1.0))
        assert inv.order == (1, 0, 2)
        assert inv.attachment == 0

    def test_zigzag_property(self):
        rng = np.random.default_rng(31)
        for k in (2, 3, 4, 5):
            theta = float(rng.uniform(0, TWO_PI))
            fld = ModelField(k, cmath.exp(1j * theta))
            try:
                inv = ds_invariant(fld)
            except AtBifurcation:
                continue
            assert is_zigzag(inv.order, singularities(fld))

    def test_methods_agree_k5_example(self):
        fld = ModelField(5, cmath.exp(2j * math.pi * 13 / 20))
        assert ds_invariant(fld, validate=True).order == ds_invariant_integrated(fld).order

    def test_methods_agree_random(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 10:
            k = int(rng.integers(1, 7))
            theta = float(rng.uniform(0, TWO_PI))
            fld = ModelField(k, cmath.exp(1j * theta))
            if homoclinic_defect(fld) < 5e-2:
                continue
            a = ds_invariant(fld)
            b = ds_invariant_integrated(fld)
            assert a.order == b.order and a.attachment == b.attachment
            checked += 1

    def test_at_bifurcation_raises(self):
        with pytest.raises(AtBifurcation):
            ds_invariant(ModelField(2, cmath.exp(1j * math.pi / 4)))

    def test_defined_near_every_ray(self):
        # the trunk is a path of the side-overlap graph: consecutive sides
        # overlap in open height span, and exactly k pairs of sides do
        for fld in _near_ray_fields():
            order = ds_invariant(fld).order
            assert sorted(order) == list(range(fld.k + 1))
            assert is_zigzag(order, singularities(fld))
            gon = periods(fld)
            spans = [sorted((a.imag, b.imag)) for a, b in map(gon.side, range(fld.k + 1))]

            def overlap(i, j):
                return max(spans[i][0], spans[j][0]) < min(spans[i][1], spans[j][1])

            assert all(overlap(a, b) for a, b in zip(order, order[1:]))
            pairs = itertools.combinations(range(fld.k + 1), 2)
            assert sum(overlap(a, b) for a, b in pairs) == fld.k

    def test_attachment_agrees_with_integration(self):
        # the arg z = 0 separatrix, launched at 0.995 times the escape radius
        # as in conftest.scalar_ds_invariant_integrated; points where that
        # orbit does not land are skipped and counted
        rng = np.random.default_rng(512)
        checked = skipped = 0
        while checked < 500:
            k = int(rng.integers(1, 8))
            fld = ModelField(k, rng.uniform(0.3, 2.0) * cmath.exp(2j * math.pi * rng.random()))
            attachment = ds_invariant(fld).attachment
            launch = 0.995 * escape_radius(fld)
            landed = landing_lanes(fld, launch, direction=-1)[0][0]
            if landed < 0:
                skipped += 1
                continue
            assert attachment == landed
            checked += 1
        assert skipped < 10

    def test_integrates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ds_invariant integrated an orbit")

        monkeypatch.setattr(model, "landing_lanes", refuse)
        monkeypatch.setattr(model, "_march", refuse)
        assert ds_invariant(ModelField(2, 1.0)).attachment == 0
        for fld in _near_ray_fields(ks=(1, 4), abs_eps=(1.0,)):
            ds_invariant(fld)

    def test_integrated_matches_scalar_oracle(self):
        # against the seed ring run one orbit at a time, wherever the ring
        # returns, and against the gon everywhere: 42 generic eps for k
        # 1..5 with 6 or 8 seeds a circle, 42 at 0.3-0.5 pi/k from the
        # nearest ray for k 1..6, and 6 within 1e-2 pi/k of a ray for k
        # 3..5, with 24 (the ring misses a zone at 5 of the 90)
        def near_ray(rng, k, lo, hi):
            offset = rng.uniform(lo, hi) * rng.choice((-1, 1)) * math.pi / k
            theta = bifurcation_angles(k)[rng.integers(2 * k)] + offset
            return ModelField(k, 10 ** rng.uniform(-1, 0.5) * cmath.exp(1j * theta))

        rng = np.random.default_rng(4040)
        cases = [
            (_generic_field(rng, n % 5 + 1, log_eps=(-0.5, 0.3), margin=5e-2), (6, 8)[n % 2])
            for n in range(42)
        ]
        rng = np.random.default_rng(1919)
        cases += [(near_ray(rng, n % 6 + 1, 0.3, 0.5), 24) for n in range(42)]
        rng = np.random.default_rng(19)
        fields = [near_ray(rng, n % 6 + 1, 1e-3, 1e-2) for n in range(12)]
        cases += [(fld, 24) for fld in fields if fld.k in (3, 4, 5)]
        assert len(cases) == 90
        compared = 0
        for fld, n_angles in cases:
            got = ds_invariant_integrated(fld)
            gon = ds_invariant(fld)
            assert (got.order, got.attachment) == (gon.order, gon.attachment), fld
            try:
                want = scalar_ds_invariant_integrated(fld, n_angles)
            except AtBifurcation:
                continue
            assert (got.order, got.attachment) == (want.order, want.attachment), fld
            compared += 1
        assert compared >= 80

    def test_integrated_matches_separatrix_oracle(self):
        # all 2k separatrices, each launched at 0.995 times the escape
        # radius and landed one at a time, against the lanes from the ends
        # of the far segments, and both against the gon: 15 generic eps for
        # each k 1..8
        rng = np.random.default_rng(2020)
        for k in range(1, 9):
            for _ in range(15):
                fld = _generic_field(rng, k, log_eps=(-1.0, 0.5))
                want = scalar_separatrix_invariant(fld)
                got = ds_invariant_integrated(fld)
                gon = ds_invariant(fld)
                assert (got.order, got.attachment) == (want.order, want.attachment), fld
                assert (got.order, got.attachment) == (gon.order, gon.attachment), fld

    @pytest.mark.parametrize("k", [12, 16, 24])
    @pytest.mark.parametrize("abs_eps", [0.5, 2.0])
    def test_validate_at_large_k(self, k, abs_eps):
        # 2k separatrices, more orbits than the oracle tests above run, at
        # arg eps midway between two rays
        theta = bifurcation_angles(k)[1] + 0.5 * math.pi / k
        fld = ModelField(k, abs_eps * cmath.exp(1j * theta))
        inv = ds_invariant(fld, validate=True)
        gon = ds_invariant(fld)
        assert (inv.order, inv.attachment) == (gon.order, gon.attachment)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_validate_at_every_abs_eps(self, k):
        # z = s w maps the field to s^k (w^{k+1} - eps/|eps|): the landings,
        # and so the integrated invariant, are those of |eps| = 1, with the
        # marcher's time cap in the field's own time unit
        gon = ds_invariant(ModelField(k, cmath.exp(0.37j)))
        for abs_eps in (1e-100, 1e-20, 1e-9, 1e-6, 1e-2, 1e3, 1e6):
            inv = ds_invariant(ModelField(k, abs_eps * cmath.exp(0.37j)), validate=True)
            assert (inv.order, inv.attachment) == (gon.order, gon.attachment), abs_eps

    def test_gon_where_the_periods_overflow(self):
        # at k = 30 and |eps| = 1e-320 the periods scale as |eps|^{-30/31},
        # past the largest float; the gon of eps/|eps| does not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = ds_invariant(ModelField(30, 1e-320j))
            unit = ds_invariant(ModelField(30, 1j))
        assert (tiny.order, tiny.attachment) == (unit.order, unit.attachment)

    def test_validate_where_the_periods_overflow(self):
        # the separatrices land on the field of eps/|eps|, so at k = 30 and
        # |eps| = 1e-320 xi does not overflow on the launch circle
        inv = ds_invariant(ModelField(30, 1e-320j), validate=True)
        unit = ds_invariant(ModelField(30, 1j))
        assert (inv.order, inv.attachment) == (unit.order, unit.attachment)

    def test_lanes_where_the_time_unit_overflows(self):
        # s^{-k} overflows a float at k = 30 and |eps| = 1e-320: the time
        # cap is infinite and the orbit stops on a typed error
        fld = ModelField(30, 1e-320j)
        with pytest.raises(StepSizeUnderflow):
            landing_lanes(fld, 1.5 * fld.scale, 1)

    def test_validate_at_very_large_k(self):
        # at k = 100 the first step of a separatrix from 1.5 s takes about
        # 7e-20 of time, and the marcher's floor is relative to its own
        # nominal step; at k = 240 xi would overflow on the launch circle,
        # and the lanes start from the inner circle alone
        for k in (100, 240):
            fld = ModelField(k, 0.3 + 0.2j)
            inv = ds_invariant(fld, validate=True)
            gon = ds_invariant(fld)
            assert (inv.order, inv.attachment) == (gon.order, gon.attachment), k

    @pytest.mark.parametrize(
        "k, eps",
        [
            (4, 0.373426 + 0.927660j),  # 1e-2 past ray 1
            (7, -0.35283645794670165 + 1.5462713090622942j),  # a weak focus at root 0
            (8, 0.3 + 0.2j),  # homoclinic defect 6.4e-4
        ],
    )
    def test_validate_finds_thin_zones(self, k, eps):
        # near a ray some alpha-omega zones are thin and a root can be a
        # weak focus; every zone still meets infinity between two
        # separatrices
        fld = ModelField(k, eps)
        inv = ds_invariant(fld, validate=True)
        gon = ds_invariant(fld)
        assert (inv.order, inv.attachment) == (gon.order, gon.attachment)

    def test_failure_names_orbits_that_did_not_land(self, monkeypatch):
        # with a budget of one step from |z| = 1.5 s no separatrix lands: a
        # step ends at least 0.55 times as far from the nearest root as it
        # starts, 0.27 s here, outside every landing disk (radius 0.25 s
        # at most)
        field_controls = model._field_controls
        monkeypatch.setattr(
            model, "_field_controls", lambda fld, ctl: replace(field_controls(fld, ctl), max_steps=1)
        )
        with pytest.raises(AtBifurcation) as exc:
            ds_invariant_integrated(ModelField(3, 1.0))
        assert str(exc.value) == "separatrices did not land: " + ", ".join(
            f"{j} (step_budget)" for j in range(6)
        )

    def test_failure_names_the_landings(self, monkeypatch):
        # landings whose pairs miss root 2 of k = 2: no trunk
        def lanes(fld, z0, direction):
            return np.array([0, 1, 0, 1]), [Termination.LANDED] * 4

        monkeypatch.setattr(model, "landing_lanes", lanes)
        with pytest.raises(AtBifurcation) as exc:
            ds_invariant_integrated(ModelField(2, 1.0))
        assert str(exc.value) == (
            "integrated connections do not form a trunk: separatrix landings [0, 1, 0, 1]"
        )

    def test_validate_compares_attachment(self, monkeypatch):
        fld = ModelField(2, 1.0)
        inv = ds_invariant(fld)
        wrong = DSInvariant(2, fld.epsilon, inv.order, (inv.attachment + 1) % 3)
        monkeypatch.setattr(model, "ds_invariant_integrated", lambda fld: wrong)
        with pytest.raises(AtBifurcation) as exc:
            ds_invariant(fld, validate=True)
        assert f"attachment {inv.attachment}" in str(exc.value)
        assert f"attachment {wrong.attachment}" in str(exc.value)


class TestDSTransition:
    def test_rule_text_example(self):
        # chain a-b-c-d-e-f, keep odd segments (parity 0): (ba)(dc)(fe)
        assert apply_transition((0, 1, 2, 3, 4, 5), 0) == (1, 0, 3, 2, 5, 4)
        # keep even segments (parity 1): a (cb) (ed) f
        assert apply_transition((0, 1, 2, 3, 4, 5), 1) == (0, 2, 1, 4, 3, 5)

    def test_matches_reference_on_all_short_permutations(self):
        for n in range(1, 8):
            for order in itertools.permutations(range(n)):
                for parity in (0, 1):
                    assert apply_transition(order, parity) == _apply_transition_reference(order, parity)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rule_across_all_angles(self, k):
        for j in range(2 * k):
            for offset in (1e-3, 1e-6, 1e-8):
                before, after = ds_transition(k, j, probe_offset=offset)
                assert transition_rule_holds(before, after)

    def test_sides_are_zigzag(self):
        before, after = ds_transition(2, 1)
        for inv, theta_side in ((before, -1), (after, +1)):
            theta = bifurcation_angles(2)[1] + theta_side * 1e-3
            pts = singularities(ModelField(2, cmath.exp(1j * theta)))
            assert is_zigzag(inv.order, pts)


class TestRectify:
    def test_series_leading_term(self):
        val = xi_series(ModelField(1, 1e-12), 2.0)
        assert abs(val + 0.5) < 1e-10

    def test_series_derivative_oracle(self):
        fld = ModelField(1, 0.25)
        h = 1e-5
        z = 2.0
        fd = (xi_series(fld, z + h) - xi_series(fld, z - h)) / (2 * h)
        assert abs(fd - 1.0 / (z**2 - 0.25)) < 1e-8

    def test_modes_agree_modulo_vertex(self):
        fld = ModelField(2, 0.2 * cmath.exp(0.3j))
        gon = periods(fld)
        rng = np.random.default_rng(12)
        for _ in range(6):
            z = (1.1 + rng.random()) * cmath.exp(2j * math.pi * rng.random())
            tq = quad_rectify(fld, z)
            ell, _ = sector_index(fld, z)
            ts = gon.vertices[ell] + xi_series(fld, z)
            assert abs(tq - ts) < 1e-8

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 400:
            k = int(rng.integers(1, 8))
            eps = 10 ** rng.uniform(-3, math.log10(3)) * cmath.exp(2j * math.pi * rng.random())
            r = 10 ** rng.uniform(math.log10(0.05), math.log10(3))
            z = r * cmath.exp(2j * math.pi * rng.random())
            fld = ModelField(k, eps)
            try:
                t = rectify(fld, z)
            except PathThroughSingularity:
                continue
            tq = quad_rectify(fld, z)
            assert abs(t - tq) <= 1e-12 * abs(tq)
            checked += 1

    def test_out_of_domain(self):
        with pytest.raises(SeriesOutOfDomain):
            xi_series(ModelField(2, 1.0), 0.5)

    @pytest.mark.filterwarnings("error")
    def test_path_through_singularity(self):
        with pytest.raises(PathThroughSingularity):
            rectify(ModelField(1, 0.25), 1.0)
        with pytest.raises(DegenerateParameter):
            rectify(ModelField(1, 0.0), 1.0)
        # the point segment z = 0 misses every root
        assert rectify(ModelField(1, 0.25), 0j) == 0


class TestXiArray:
    def test_matches_scalar_loop(self):
        # points near the domain edge (|eps/z^{k+1}| in [0.5, 0.9]) mixed with
        # far ones; each point keeps its own term count
        rng = np.random.default_rng(41)
        for k in range(1, 8):
            for _ in range(5):
                eps = 10 ** rng.uniform(-8, -1) * cmath.exp(2j * math.pi * rng.random())
                fld = ModelField(k, eps)
                q = np.concatenate([rng.uniform(0.5, 0.9, 6), 10 ** rng.uniform(-6, -1, 10)])
                z = (abs(eps) / q) ** (1 / (k + 1)) * np.exp(2j * math.pi * rng.random(16))
                got = xi_series(fld, z)
                want = np.array([_xi_reference(fld, complex(w)) for w in z])
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
                far = z[6:]
                want_far = want[6:]
                assert np.abs(xi_series(fld, far) - want_far).max() <= 1e-13 * np.abs(want_far).max()

    def test_point_keeps_its_bits_in_any_array(self):
        # q = |eps/z^{k+1}| over eight decades by an eps per point, and in
        # [0.05, 0.95] by z: every point has the bits it has in an array of its
        # own (two copies: numpy multiplies a one-point array in place by
        # its scalar loop, which rounds differently from its vector loop)
        rng = np.random.default_rng(44)
        for k in range(1, 7):
            eps = 10 ** rng.uniform(-9, -1, 12) * np.exp(2j * math.pi * rng.random(12))
            z = 1.2 * np.exp(2j * math.pi * rng.random(12))
            got = xi_array(k, eps, z)
            for e, w, g in zip(eps, z, got):
                assert g == xi_array(k, e, np.full(2, w))[0]
            # the largest q keeps the most terms; one term count for all
            # changed the last bit of about 1.6% of such points
            q = np.concatenate([[0.95], rng.uniform(0.05, 0.9, 47)])
            z = (abs(eps[0]) / q) ** (1 / (k + 1)) * np.exp(2j * math.pi * rng.random(48))
            got = xi_array(k, eps[0], z)
            for w, g in zip(z, got):
                assert g == xi_array(k, eps[0], np.full(2, w))[0]

    def test_scalar_returns_complex(self):
        fld = ModelField(3, 1e-3 * cmath.exp(0.4j))
        for z in (1.2, 0.9 + 0.3j, np.complex128(-1.1j)):
            got = xi_series(fld, z)
            assert type(got) is complex
            assert abs(got - _xi_reference(fld, complex(z))) <= 1e-13 * abs(got)
        assert type(xi_series(fld, 1.2)) is complex

    def test_out_of_domain_same_points(self):
        rng = np.random.default_rng(42)
        for k in range(1, 6):
            fld = ModelField(k, 0.3 * cmath.exp(2j * math.pi * rng.random()))
            z = 10 ** rng.uniform(-0.6, 0.3, 12) * np.exp(2j * math.pi * rng.random(12))
            outside = []
            for w in z:
                try:
                    _xi_reference(fld, complex(w))
                except SeriesOutOfDomain:
                    outside.append(True)
                    with pytest.raises(SeriesOutOfDomain):
                        xi_series(fld, complex(w))
                else:
                    outside.append(False)
                    xi_series(fld, complex(w))
            assert any(outside) and not all(outside)
            with pytest.raises(SeriesOutOfDomain):
                xi_series(fld, z)
            xi_series(fld, z[~np.array(outside)])

    def test_sector_array_matches_scalar_rule(self):
        rng = np.random.default_rng(43)
        for k in range(1, 7):
            fld = ModelField(k, 1e-2 * cmath.exp(2j * math.pi * rng.random()))
            slits = np.exp(1j * (fld.theta() + TWO_PI * np.arange(k + 1)) / (k + 1))
            z = np.concatenate([np.exp(2j * math.pi * rng.random(20)), slits])
            ell, on_slit = sector_index(fld, z)
            for w, e, s in zip(z, ell, on_slit):
                assert (e, s) == _sector_reference(fld, complex(w))
                assert sector_index(fld, complex(w)) == (e, s)
            assert on_slit[20:].all()
        # a nan point has no sector, as int(nan) refuses in the scalar rule
        with pytest.raises(ValueError):
            _sector_reference(fld, complex("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            sector_index(fld, np.array([1.0, complex("nan")]))
