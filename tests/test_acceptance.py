"""Acceptance gate: one test per criterion, each timed against its budget.

Every test prints a single PASS/FAIL line (collected into the terminal
summary) and enforces the stated numerical tolerance.
"""

import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import quad_rectify, record_acceptance
from parafold.disk import (
    eyelet_diameter,
    eyelet_reference_radius,
    group_tags,
    tangency_equation,
    tangency_angles,
    tangency_seeds,
    trace_curve,
)
from parafold.model import (
    ModelField,
    Termination,
    bifurcation_angles,
    ds_invariant,
    ds_invariant_integrated,
    ds_transition,
    is_zigzag,
    periods,
    sector_index,
    separatrices,
    singularities,
    transition_rule_holds,
    xi_series,
)
from parafold.normal_forms import (
    poly_to_canonical_parameter,
    polynomial_nf,
    rational_nf,
)
from parafold.series import BivariateSeries, TruncatedSeries
from parafold.unfolding import (
    EigenvalueFunction,
    FamilySpec,
    canonicalize,
    eigenvalue_function,
    equivalent_fixed_parameter,
    factor_family,
    is_model_equivalent,
    model_eigenvalue_function,
    realize,
    residue_sum,
)


class Criterion:
    """Context manager timing a criterion and reporting one line."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        record_acceptance(
            f"criterion {self.number:02d} {self.name:<28s} {status}"
            f"  ({elapsed:6.2f}s, budget {self.budget:g}s)"
        )
        print(f"criterion {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        if status == "FAIL" and exc_type is None:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget:g}s budget ({elapsed:.2f}s)"
            )
        return False


def random_eigenvalue(rng, k, order=40, decay=0.6):
    c = (rng.uniform(-1, 1, order + 1 - k) + 1j * rng.uniform(-1, 1, order + 1 - k))
    c = c * decay ** np.arange(order + 1 - k)
    c[0] = 1.0 + 0.4 * c[0]
    sigma = TruncatedSeries(c)
    return EigenvalueFunction(k, ((k + 1) * sigma.extended(order)).shift_up(k))


def homoclinic_flip_angles(k, n_grid=720):
    """Angles where the vertical-symmetry defect of the period-gon vanishes.

    The normalised defect is piecewise smooth with V-shaped zeros, so each
    flip is located by bounded minimisation around a grid minimum.
    """
    from scipy.optimize import minimize_scalar

    from parafold.model import homoclinic_defect

    def defect(theta):
        return homoclinic_defect(ModelField(k, cmath.exp(1j * theta)))

    thetas = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    values = np.array([defect(t) for t in thetas])
    step = thetas[1] - thetas[0]
    roots = []
    for i in range(n_grid):
        prev_v = values[(i - 1) % n_grid]
        next_v = values[(i + 1) % n_grid]
        if values[i] <= prev_v and values[i] <= next_v and values[i] < 0.1:
            res = minimize_scalar(
                defect,
                bounds=(thetas[i] - step, thetas[i] + step),
                method="bounded",
                options={"xatol": 1e-13},
            )
            if res.fun < 1e-8:
                roots.append(res.x % (2 * math.pi))
    roots = np.sort(roots)
    dedup = [roots[0]]
    for r in roots[1:]:
        if r - dedup[-1] > 1e-6:
            dedup.append(r)
    if len(dedup) > 1 and (2 * math.pi - dedup[-1]) + dedup[0] < 1e-6:
        dedup.pop()
    return np.array(dedup)


def test_criterion_01_homoclinic_angles():
    with Criterion(1, "homoclinic angles", 5.0):
        for k in range(1, 7):
            got = homoclinic_flip_angles(k)
            expect = np.sort(bifurcation_angles(k))
            assert len(got) == 2 * k, f"k={k}: found {len(got)} flip angles"
            assert np.abs(got - expect).max() < 1e-9


def test_criterion_02_separatrix_landing_and_trunk():
    with Criterion(2, "separatrix landing / trunk", 30.0):
        fld = ModelField(5, cmath.exp(2j * math.pi * 13 / 20))
        seps = separatrices(fld)
        sing = singularities(fld)
        assert len(seps) == 10
        for traj in seps:
            assert traj.termination is Termination.LANDED
            assert np.abs(sing - traj.points[-1]).min() < 1e-6
        inv = ds_invariant(fld, validate=True)
        assert is_zigzag(inv.order, sing)
        assert inv.order == ds_invariant_integrated(fld).order


def test_criterion_03_transition_rule():
    with Criterion(3, "DS transition rule", 120.0):
        for k in range(2, 6):
            for j in range(2 * k):
                before, after = ds_transition(k, j)
                assert transition_rule_holds(before, after), f"k={k}, j={j}"


def test_criterion_04_canonicalization():
    with Criterion(4, "canonicalization", 10.0):
        rng = np.random.default_rng(2024)
        for k in (1, 2, 3, 4):
            for _ in range(100):
                ef = random_eigenvalue(rng, k, order=40)
                can = canonicalize(ef)
                direct = ef.lam.compose(can.h)
                scale = np.abs(direct.coefficients).max()
                deg = np.arange(41)
                offenders = (deg % (k + 1) == k % (k + 1)) & (deg > k)
                assert np.abs(direct.coefficients[offenders]).max() < 1e-10 * scale
                assert canonicalize(can.lam).is_identity


def test_criterion_05_equivalence_decisions():
    with Criterion(5, "equivalence decisions", 5.0):
        rng = np.random.default_rng(77)
        for k in (1, 2, 3):
            ef = random_eigenvalue(rng, k, order=32)
            # correct witness for every rotation
            for i in range(k + 1):
                zeta = cmath.exp(2j * math.pi * i / (k + 1))
                got = equivalent_fixed_parameter(ef, ef.precompose_root(zeta))
                assert abs(got - zeta) < 1e-10
            # single-coefficient perturbations rejected
            c = ef.lam.coefficients.copy()
            c[k + 1] += 1e-3
            assert equivalent_fixed_parameter(ef, EigenvalueFunction(k, TruncatedSeries(c))) is None
        # gauge covariance of the k+1 eigenvalue functions of one family
        k = 2
        base = realize(random_eigenvalue(rng, k, order=20))
        ef0 = eigenvalue_function(factor_family(base, choice=0), order=20)
        for choice in range(1, k + 1):
            efc = eigenvalue_function(factor_family(base, choice=choice), order=20)
            zeta = cmath.exp(-2j * math.pi * choice / (k + 1))
            assert (
                np.abs(efc.lam.coefficients - ef0.lam.scale_argument(zeta).coefficients).max()
                < 1e-9
            )


def test_criterion_06_residue_sum():
    with Criterion(6, "residue sum", 5.0):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            ef = random_eigenvalue(rng, k, order=40)
            A = residue_sum(ef)
            # numeric cross-check at 20 parameter samples
            for _ in range(20):
                eps = 0.02 * cmath.exp(2j * math.pi * rng.random())
                roots = eps ** (1.0 / (k + 1)) * np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
                direct = sum(1.0 / complex(ef.lam(d)) for d in roots)
                assert abs(A(eps) - direct) < 1e-8 * max(1.0, abs(direct))
            # Laurent constant-term identity
            u = ef.sigma.reciprocal() / (k + 1)
            assert abs(A[0] - (k + 1) * u[k]) < 1e-12
        for k in (1, 2, 4):
            assert np.abs(residue_sum(model_eigenvalue_function(k, 30)).coefficients).max() == 0.0


def test_criterion_07_normal_forms():
    with Criterion(7, "Lagrange / normal forms", 10.0):
        rng = np.random.default_rng(5)
        k = 2
        c = (rng.uniform(-1, 1, 25) + 1j * rng.uniform(-1, 1, 25)) * 0.6 ** np.arange(25)
        c[0] = 1.2
        sigma = TruncatedSeries(c)
        spec = factor_family(realize(EigenvalueFunction(k, ((k + 1) * sigma).shift_up(k).extended(27))))
        nf = polynomial_nf(spec, eps_order=5)
        # interpolation residual
        for eps in (0.01 + 0.02j, 0.04, -0.03 + 0.01j):
            qv = nf.eval_at(eps)
            nodes = eps ** (1 / (k + 1)) * np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
            for d in nodes:
                assert abs(np.polyval(qv[::-1], d) - sigma(d)) < 1e-12
        # eps -> 0 continuity to the Taylor polynomial
        got0 = np.array([s[0] for s in nf.coefficients])
        assert np.abs(got0 - sigma.coefficients[: k + 1]).max() < 1e-8
        # duality between the polynomial and rational forms
        ra = rational_nf(spec, eps_order=5)
        dual = polynomial_nf(
            factor_family(
                realize(EigenvalueFunction(k, ((k + 1) * sigma.reciprocal()).shift_up(k).extended(27)))
            ),
            eps_order=5,
        )
        for a, b in zip(ra.coefficients, dual.coefficients):
            assert np.abs(a.coefficients - b.coefficients).max() < 1e-10
        # canonical-parameter change makes the constant coefficient 1
        shifted = list(nf.coefficients)
        shifted[0] = shifted[0] + TruncatedSeries(np.r_[0.0, 0.8, np.zeros(4)])
        change, out = poly_to_canonical_parameter(
            type(nf)(k=k, coefficients=tuple(shifted), kind="polynomial")
        )
        c0 = out.coefficients[0].coefficients
        assert np.abs(c0 - np.r_[1.0, np.zeros(len(c0) - 1)]).max() < 1e-10


def test_criterion_08_bifurcation_exponent():
    with Criterion(8, "bifurcation-curve exponent", 300.0):
        k = 4  # five singular points
        for j in range(2 * k):
            tags = group_tags(k, j)
            assert len(tags) >= 3
            assert sum(1 for t in tags if t.side == 0) == 1
        for tag in group_tags(k, 0):
            if tag.side == 0:
                continue
            curve = trace_curve(k, 1.0, tag, decades=(1e-6, 1e-2), per_decade=40)
            assert curve.fitted_exponent == pytest.approx(2 - 1 / (k + 1), abs=0.05)


def test_criterion_09_tangency_structure():
    with Criterion(9, "tangency structure", 10.0):
        for k in (2, 3, 5):
            ts = tangency_angles(k, 0.0, 1.0)
            expect = np.sort(tangency_seeds(k) % (2 * math.pi))
            assert np.abs(ts.angles - expect).max() < 1e-12
            h = 1e-6
            for j, a in enumerate(tangency_seeds(k)):
                fd = (
                    tangency_equation(k, 1.0, 0j, a + h)
                    - tangency_equation(k, 1.0, 0j, a - h)
                ) / (2 * h)
                assert abs(fd - (-1) ** (j + 1) * k) < 1e-8
        for k in (2, 3):
            fld = ModelField(k, 1e-4 + 0j)
            ref = 2 * eyelet_reference_radius(k, 1.0)
            for ell in range(k + 1):
                assert abs(eyelet_diameter(fld, 1.0, ell, n=160) - ref) < 0.1 * ref


def test_criterion_10_rectify_consistency():
    with Criterion(10, "rectify consistency", 5.0):
        rng = np.random.default_rng(8)
        k = 2
        fld = ModelField(k, 0.3 * cmath.exp(0.7j))
        r = 1.2
        h = 1e-5
        for _ in range(12):
            z = r * cmath.exp(2j * math.pi * rng.random())
            fd = (xi_series(fld, z + h) - xi_series(fld, z - h)) / (2 * h)
            assert abs(fd - 1.0 / (z ** (k + 1) - fld.epsilon)) < 1e-8
        gon = periods(fld)
        for _ in range(8):
            z = (1.1 + rng.random()) * cmath.exp(2j * math.pi * rng.random())
            tq = quad_rectify(fld, z)
            ts = xi_series(fld, z)
            ell, _ = sector_index(fld, z)
            base = abs(tq - (gon.vertices[ell] + ts))
            shifted = min(
                abs(tq - (gon.vertices[ell] + ts + s * mu))
                for mu in gon.periods
                for s in (0, 1, -1)
            )
            assert min(base, shifted) < 1e-8


def test_criterion_11_model_equivalence_verdicts():
    with Criterion(11, "model-equivalence verdicts", 2.0):
        k = 2
        yes_sigma = TruncatedSeries(np.r_[1.0, np.zeros(k), 1.0, np.zeros(14)])  # 1 + z^{k+1}
        no_sigma = TruncatedSeries(np.r_[1.0, 1.0, np.zeros(16)])  # 1 + z
        for sigma, verdict in ((yes_sigma, True), (no_sigma, False)):
            spec = realize(EigenvalueFunction(k, ((k + 1) * sigma).shift_up(k).extended(20)))
            ef = eigenvalue_function(factor_family(spec), order=20)
            assert is_model_equivalent(ef) is verdict


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "parafold.cli", *args],
        capture_output=True,
        timeout=600,
    )


def test_criterion_12_cli_determinism(tmp_path):
    with Criterion(12, "CLI determinism", 60.0):
        k = 2
        fam = tmp_path / "fam.json"
        c = np.zeros((20, 2), dtype=complex)
        c[k + 1, 0] = 1.0
        c[0, 1] = -1.0
        c[k + 2, 0] = 0.5
        fam.write_text(json.dumps(FamilySpec(k=k, omega=BivariateSeries(c)).to_dict()))
        lam = tmp_path / "lam.json"
        lam.write_text(
            json.dumps(
                EigenvalueFunction(
                    k, TruncatedSeries(np.r_[0, 0, 3.0, 1.0, np.zeros(16)])
                ).to_dict()
            )
        )
        commands = [
            ["portrait", "--k", "1", "--eps", "1", "--samples", "4", "--seed", "3"],
            ["star", "--k", "2", "--eps", "0.2+0.1i", "--r", "1.0"],
            ["bifdiagram", "--k", "2", "--r", "1", "--decades", "1e-3", "1e-2", "--per-decade", "4"],
        ]
        for i, args in enumerate(commands):
            outs = []
            for run in range(2):
                out = tmp_path / f"cmd{i}_{run}.svg"
                res = _run_cli([*args, "--out", str(out)])
                assert res.returncode == 0, res.stderr.decode()
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"command {args[0]} not deterministic"
        stdout_commands = [
            ["classify", str(fam), str(fam)],
            ["canon", str(lam)],
            ["nf", "polynomial", str(fam), "--eps-order", "3"],
            ["nf", "rational", str(fam), "--eps-order", "3"],
            ["dsinv", "--k", "2", "--eps", "1"],
        ]
        for args in stdout_commands:
            a = _run_cli(args)
            b = _run_cli(args)
            assert a.returncode == 0, a.stderr.decode()
            assert a.stdout == b.stdout
