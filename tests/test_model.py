import cmath
import itertools
import math

import numpy as np
import pytest

from conftest import quad_rectify
from parafold.model import (
    AtBifurcation,
    DegenerateParameter,
    IntegratorControls,
    ModelField,
    PathThroughSingularity,
    RadiusTooSmall,
    SeriesOutOfDomain,
    StepSizeUnderflow,
    Termination,
    apply_transition,
    bifurcation_angles,
    build_tau_model,
    ds_invariant,
    ds_invariant_integrated,
    ds_transition,
    homoclinic_defect,
    integrate,
    is_homoclinic,
    is_zigzag,
    landing_index,
    landing_radii,
    periods,
    rectify,
    sector_index,
    separatrices,
    singularities,
    transition_rule_holds,
    vertex_scale,
    xi_series,
)

TWO_PI = 2 * math.pi

# Dormand-Prince 5(4) tableau, as rows, for the reference loop below
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _integrate_reference(fld, z0, direction=1, controls=None):
    """The plain tableau loop (seven field evaluations a step, the field
    negated for reversed time); the fast kernel must reproduce it bit for
    bit.  Returns (points, times, termination, landed, n_rejected, h_min)."""
    ctl = (controls or IntegratorControls()).resolved(fld)
    sing = singularities(fld)
    z_big = 1e120 ** (1.0 / (fld.k + 1))

    def f(z):
        if abs(z) > z_big:
            return direction * complex(1e120)
        return direction * fld.rhs(z)

    zs, ts = [complex(z0)], [0.0]
    z, t = complex(z0), 0.0
    h = min(ctl.h_init, 1e-2 / (1.0 + abs(f(z0))))
    termination, landed = Termination.TIME_CAP, None
    n_rej, h_min = 0, math.inf
    ks = [0j] * 7
    for _ in range(ctl.max_steps):
        if h < ctl.h_min:
            raise StepSizeUnderflow(f"step size {h:g} below floor at t={t:g}")
        h = min(h, ctl.h_max, ctl.time_cap - t)
        ks[0] = f(z)
        for i in range(1, 7):
            acc = 0j
            for j, a in enumerate(_DP_A[i]):
                acc += a * ks[j]
            ks[i] = f(z + h * acc)
        z5 = z + h * sum(b * kk for b, kk in zip(_DP_B5, ks))
        z4 = z + h * sum(b * kk for b, kk in zip(_DP_B4, ks))
        err = abs(z5 - z4) / (ctl.atol + ctl.rtol * max(abs(z), abs(z5)))
        if err <= 1.0:
            t += h
            z = z5
            h_min = min(h_min, h)
            zs.append(z)
            ts.append(t)
            dist = np.abs(sing - z)
            if dist.min() <= ctl.capture_radius:
                termination, landed = Termination.LANDED, int(dist.argmin())
                break
            if ctl.boundary_radius is not None and abs(z) >= ctl.boundary_radius:
                termination = Termination.HIT_BOUNDARY
                break
            if abs(z) >= ctl.escape_radius:
                termination = Termination.ESCAPED
                break
            if t >= ctl.time_cap:
                break
        else:
            n_rej += 1
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return np.array(zs), np.array(ts), termination, landed, n_rej, h_min


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
        if homoclinic_defect(fld)[0] > margin:
            return fld


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
        assert abs(gon.gap) == 0.0

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

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(2024)
        seen = set()
        n = 0
        for k in range(1, 7):
            for direction in (1, -1):
                for rtol in (1e-8, 1e-10):
                    for stop in ("free", "boundary", "time_cap", "separatrix"):
                        fld = _generic_field(rng, k)
                        extra = {}
                        if stop == "boundary":
                            extra["boundary_radius"] = 1.3 * fld.scale
                        elif stop == "time_cap":
                            extra["time_cap"] = float(rng.uniform(0.05, 0.5))
                        if stop == "separatrix":
                            ctl = IntegratorControls(rtol=rtol).resolved(fld)
                            ang = float(rng.integers(2 * k)) * math.pi / k
                            z0 = 0.995 * ctl.escape_radius * cmath.exp(1j * ang)
                        else:
                            z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
                        ctl = IntegratorControls(rtol=rtol, **extra)
                        got = integrate(fld, z0, direction, ctl)
                        pts, ts, term, landed, n_rej, h_min = _integrate_reference(
                            fld, z0, direction, ctl
                        )
                        assert np.array_equal(got.points, pts)
                        assert np.array_equal(got.times, ts)
                        assert got.termination is term
                        assert got.landed_index == landed
                        assert got.n_accepted == len(got.points) - 1
                        assert got.n_rejected == n_rej
                        assert got.h_min_seen == h_min
                        seen.add(term)
                        n += 1
        assert n == 96
        assert seen == set(Termination)

    def test_underflow_at_same_step(self):
        # the step needed near t = 6.2 is below this floor; the message
        # carries the step size and the time of the failing step
        fld = ModelField(3, cmath.exp(-2.1j))
        ctl = IntegratorControls(h_min=9.5e-4)
        with pytest.raises(StepSizeUnderflow) as ref:
            _integrate_reference(fld, -1.68 + 0.46j, 1, ctl)
        with pytest.raises(StepSizeUnderflow) as got:
            integrate(fld, -1.68 + 0.46j, 1, ctl)
        assert str(got.value) == str(ref.value)
        assert "t=0 " not in str(got.value)

    def test_counters(self):
        traj = integrate(ModelField(2, cmath.exp(0.3j)), 0.5 + 0.5j, -1)
        assert traj.n_accepted == len(traj.points) - 1 > 0
        assert traj.n_rejected >= 0
        assert 0.0 < traj.h_min_seen <= np.diff(traj.times).min() * (1 + 1e-9)
        # the JSON form carries no counters
        assert set(traj.to_dict()) == {"points", "termination"}


class TestLandingIndex:
    def test_agrees_with_integrate(self):
        rng = np.random.default_rng(99)
        n = landed = 0
        while n < 240:
            k = int(rng.integers(1, 7))
            fld = _generic_field(rng, k, log_eps=(-1.0, 0.5))
            ctl = None
            if n % 4 == 0:  # as separating_regions runs it, inside a boundary circle
                ctl = IntegratorControls(boundary_radius=fld.scale * rng.uniform(1.2, 2.0))
            z0 = complex(*rng.uniform(-2.0, 2.0, 2)) * fld.scale
            direction = int(rng.choice([1, -1]))
            expect = integrate(fld, z0, direction, ctl).landed_index
            assert landing_index(fld, z0, direction, ctl) == expect
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
            landing_index(ModelField(2, 1.0), 0.3, direction=0)


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
            if homoclinic_defect(fld)[0] < 5e-2:
                continue
            a = ds_invariant(fld)
            b = ds_invariant_integrated(fld, n_angles=16)
            assert a.order == b.order and a.attachment == b.attachment
            checked += 1

    def test_at_bifurcation_raises(self):
        with pytest.raises(AtBifurcation):
            ds_invariant(ModelField(2, cmath.exp(1j * math.pi / 4)))


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
            before, after = ds_transition(k, j)
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
        # far ones; one term count serves the whole array
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


class TestTauModel:
    def test_model_field_degenerates_to_period_gon(self):
        gon = periods(ModelField(2, 1.0))
        tm = build_tau_model(gon, 0.4)
        assert tm.closure_residual() < 1e-14
        shorts = [abs(b - a) for a, b in tm.short_sides]
        assert max(shorts) < 1e-14
        widths = sorted(abs(mu) for mu in tm.periods)
        assert np.allclose(widths, sorted(np.abs(gon.periods)))

    def test_vertices_match_period_gon(self):
        gon = periods(ModelField(3, cmath.exp(0.9j)))
        tm = build_tau_model(gon, 0.1)
        tips = np.array([v for i, v in enumerate(tm.vertices) if i % 2 == 1])
        dist = np.abs(tips[:, None] - gon.vertices[None, :]).min(axis=1).max()
        assert dist < 1e-12

    def test_nonzero_gap_closes(self):
        from parafold.series import TruncatedSeries
        from parafold.unfolding import EigenvalueFunction, gap_function, unfolding_periods

        k = 2
        lam = TruncatedSeries.monomial(k, 30, k + 1.0) + TruncatedSeries.monomial(2 * k, 30, k + 1.0)
        ef = EigenvalueFunction(k, lam)
        a0 = gap_function(ef)(0.0)
        assert abs(a0 - 2j * math.pi * (-1.0) / (k + 1)) < 1e-12
        gon = unfolding_periods(ef, 0.01 * cmath.exp(0.4j))
        assert abs(gon.gap) > 1e-3
        tm = build_tau_model(gon, 10.0)
        assert tm.closure_residual() < 1e-10
        with pytest.raises(RadiusTooSmall):
            build_tau_model(gon, 1e-6)

    def test_strip_axes_fixed_by_orientation(self):
        # at k = 1 both long sides of a gap gon pass through its centre, so
        # only the direction of each side can fix its strip axis
        from parafold.series import TruncatedSeries
        from parafold.unfolding import EigenvalueFunction, unfolding_periods

        rng = np.random.default_rng(46)
        for k in range(1, 6):
            for _ in range(12):
                c = np.zeros(30, dtype=complex)
                c[k] = k + 1.0
                n = 29 - k
                c[k + 1 :] = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.6 ** np.arange(1, n + 1)
                eps = 10 ** rng.uniform(-3, -1) * cmath.exp(2j * math.pi * rng.random())
                gon = unfolding_periods(EigenvalueFunction(k, TruncatedSeries(c)), eps)
                assert abs(gon.gap) > 1e-6
                tm = build_tau_model(gon, 1.0 + abs(gon.gap) / math.tan(math.pi / (2 * k + 2)))
                want = 1j * tm.periods / np.abs(tm.periods)
                assert np.abs(tm.strip_axes - want).max() <= 1e-12

    def test_strips_point_outward(self):
        gon = periods(ModelField(4, cmath.exp(1.7j)))
        tm = build_tau_model(gon, 0.2)
        for (a, b), n_hat in zip(tm.long_sides, tm.strip_axes):
            mid = 0.5 * (a + b)
            assert (n_hat * np.conj(mid)).real > 0
