"""The benchmark workloads: seeded inputs, operations and oracles.

Each workload is an object with

* ``ops(seed, workdir)``: an endless, deterministic stream of operations.
  The same seed gives the same stream; parafold only ever sees the
  generated values.  Parameters cycle through fixed strata (kind, k,
  truncation order) with seeded values inside each stratum.  A run takes
  the first ``BATCH`` operations, a whole number of cycles, so every seed
  gives the same mix.  That keeps the cost of a run from swinging with the
  seed.  Each pass through ``KINDS`` uses one k, so every kind meets every k.
* ``call(op, tracer)``: the timed calls into parafold, each inside a span
  named ``<module>.<function>``.  A call slower than the workload's
  ``limit_s`` is stopped and counts as a failed operation.
* ``check(op, result)``: the untimed oracle.  It returns ``(info,
  problem)``: counters for the per-layer metrics and ``None``, or a string
  saying what is wrong.  A wrong answer is a failed operation.
* ``layer_metrics(ops, infos, spans)``: the per-layer metrics of a traced
  phase.

Tolerances are those of ``tests/test_acceptance.py``.  Why each workload
was chosen is recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from parafold import svgfig
from parafold.disk import (
    double_tangency_residual,
    eyelet_points,
    group_tags,
    separating_regions,
    tangency_angles,
    tangency_times,
    trace_curve,
)
from parafold.model import (
    ModelField,
    Termination,
    bifurcation_angles,
    ds_invariant,
    is_homoclinic,
    is_zigzag,
    separatrices,
    singularities,
    transition_rule_holds,
)
from parafold.normal_forms import polynomial_nf, rational_nf
from parafold.render import portrait_svg, star_svg
from parafold.series import BivariateSeries, TruncatedSeries
from parafold.unfolding import (
    EigenvalueFunction,
    FamilySpec,
    canonicalize,
    eigenvalue_function,
    equivalent_fixed_parameter,
    equivalent_full,
    factor_family,
    realize,
    residue_sum,
)

from spans import durations, fastest

TWO_PI = 2.0 * math.pi
# oracle tolerances (tests/test_acceptance.py)
LANDING_TOL = 1e-6
EXPONENT_TOL = 0.05
TANGENCY_TOL = 1e-11
SERIES_TOL = 1e-9
NF_TOL = 1e-12
RESIDUE_TOL = 1e-8


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with ten samples or fewer it is the
    maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def mismatch(a: TruncatedSeries, b: TruncatedSeries) -> float:
    """Coefficient distance relative to max(1, |a_n|, |b_n|), degree by degree."""
    n = min(a.order, b.order)
    x, y = a.coefficients[: n + 1], b.coefficients[: n + 1]
    return float((np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))).max())


def _svg_problem(svg, counts):
    if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
        return "malformed SVG document"
    for cls, want in counts.items():
        got = svg.count(f'class="{cls}"')
        if got != want:
            return f"{got} elements of class {cls}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# dynamics: the integrator behind the DS invariant, separatrices and portraits
# ---------------------------------------------------------------------------


class Dynamics:
    # one pass of KINDS per k.  ds_invariant calls (4-12 ms) are 100 of the
    # 132 operations, so the median falls well inside them, not on the edge
    # between two kinds.  validate (24 trajectories: 0.6 s at k = 2, 1.4 s
    # at k = 6) runs at k = 2 and 3 only, which keeps a round of the batch
    # short enough for several rounds in a run.  With two
    # separating_regions calls (0.1-0.3 s) per k, the tail falls on the
    # cheapest of those, at k = 2, or on separatrices at k = 6, which cost
    # about the same.
    KINDS = ("ds_invariant", "transition", "ds_invariant", "ds_invariant", "separatrices",
             "ds_invariant", "ds_invariant", "ds_invariant", "separating_regions",
             "ds_invariant", "ds_invariant", "ds_invariant", "ds_invariant", "transition",
             "ds_invariant", "ds_invariant", "portrait", "ds_invariant", "ds_invariant",
             "ds_invariant", "separating_regions", "ds_invariant", "ds_invariant",
             "validate", "ds_invariant", "ds_invariant", "ds_invariant")
    BATCH = 132
    VALIDATE_K = (2, 3)
    limit_s = 5.0  # the slowest call, validate at k = 3, takes ~0.8 s
    K_RANGE = range(2, 7)
    # Gated operations run at generic eps, a quarter to three quarters of
    # the way from a homoclinic ray to the next.  Within 1e-1 of a ray the
    # cost of one call depends on the ray and the offset far more than on
    # k, so it would swing with the seed, and within 1e-3 calls take
    # seconds or raise AtBifurcation.  Those offsets go to the near-ray
    # probe of the traced run instead (near_ray_ops).
    PROBE_DECADES = range(-8, -1)  # delta in [10^d, 10^(d+1))
    PROBE_PER_DECADE = 2
    probe_limit_s = 2.0

    def ops(self, seed, workdir):
        rng = _rng(seed, 1)
        i = 0
        while True:
            kind = self.KINDS[i % len(self.KINDS)]
            k = self.K_RANGE[i // len(self.KINDS) % len(self.K_RANGE)]
            i += 1
            if kind == "validate" and k not in self.VALIDATE_K:
                continue
            gap = math.pi / k
            yield self._draw(rng, kind, k, lambda: gap * rng.uniform(0.25, 0.75))

    def near_ray_ops(self, seed):
        """ds_invariant calls at delta from 1e-8 to 1e-1, two per decade, k cycling."""
        rng = _rng(seed, 5)
        ops = []
        for n, decade in enumerate(np.repeat(self.PROBE_DECADES, self.PROBE_PER_DECADE)):
            k = self.K_RANGE[n % len(self.K_RANGE)]
            ops.append(self._draw(rng, "ds_invariant", k, lambda: 10.0 ** (decade + rng.random())))
        return ops

    @staticmethod
    def _draw(rng, kind, k, offset):
        """eps at ``offset()`` from a random homoclinic ray, redrawn while
        is_homoclinic flags it or its mirror image across the ray.

        |eps| stays at most 1: the integrator captures a trajectory within
        1e-6 |eps|^(1/(k+1)) of a singular point, and the landing oracle
        asks for 1e-6 as the acceptance suite does.
        """
        j = int(rng.integers(2 * k))
        side = 2 * int(rng.integers(2)) - 1
        theta_j = float(bifurcation_angles(k)[j])
        while True:
            delta = offset()
            abs_eps = 10.0 ** rng.uniform(-0.3, 0.0)
            eps = abs_eps * cmath.exp(1j * (theta_j + side * delta))
            mirror = abs_eps * cmath.exp(1j * (theta_j - side * delta))
            if not (is_homoclinic(ModelField(k, eps))[0]
                    or is_homoclinic(ModelField(k, mirror))[0]):
                break
        return {
            "kind": kind, "k": k, "j": j, "side": side, "delta": delta,
            "abs_eps": abs_eps, "eps": eps,
            "r": abs_eps ** (1.0 / (k + 1)) * rng.uniform(1.5, 2.5),
            "seed": int(rng.integers(1 << 30)),
        }

    def call(self, op, tracer):
        kind, k, eps = op["kind"], op["k"], op["eps"]
        fld = ModelField(k, eps)
        if kind == "ds_invariant":
            with tracer.span("model.ds_invariant"):
                return ds_invariant(fld)
        if kind == "transition":
            theta_j = float(bifurcation_angles(k)[op["j"]])
            sides = []
            for sign in (-1, 1):
                other = ModelField(k, op["abs_eps"] * cmath.exp(1j * (theta_j + sign * op["delta"])))
                with tracer.span("model.ds_invariant"):
                    sides.append(ds_invariant(other))
            return tuple(sides)
        if kind == "validate":
            with tracer.span("model.ds_invariant_validate"):
                return ds_invariant(fld, validate=True)
        if kind == "separating_regions":
            with tracer.span("disk.separating_regions"):
                return separating_regions(fld, op["r"], samples_per_arc=8)
        if kind == "separatrices":
            with tracer.span("model.separatrices"):
                seps = separatrices(fld)
            radius = 1.5 * fld.scale
            canvas = svgfig.SvgCanvas(size=200, window=(-radius, radius, -radius, radius))
            with tracer.span("svgfig.polyline"):
                for traj in seps:
                    canvas.polyline(traj.points, stroke=svgfig.COLOR_GENERIC)
            return seps
        if kind == "portrait":
            with tracer.span("render.portrait_svg"):
                return portrait_svg(k, eps, radius=1.5 * fld.scale, seed=op["seed"],
                                    samples=2, size=200)
        raise ValueError(f"unknown operation {kind!r}")

    def check(self, op, result):
        kind, k = op["kind"], op["k"]
        if kind in ("ds_invariant", "validate"):
            return {}, self._trunk_problem(result)
        if kind == "transition":
            before, after = result
            problem = self._trunk_problem(before) or self._trunk_problem(after)
            if problem is None and not transition_rule_holds(before, after):
                problem = f"transition rule fails across ray {op['j']} of k={k}"
            return {}, problem
        if kind == "separating_regions":
            return {}, self._arcs_problem(op, result)
        if kind == "separatrices":
            sing = singularities(ModelField(k, op["eps"]))
            steps = [len(t.points) - 1 for t in result]
            landed = [
                t.termination is Termination.LANDED
                and np.abs(sing - t.points[-1]).min() < LANDING_TOL
                for t in result
            ]
            info = {"steps": steps, "landed": sum(landed), "points": sum(s + 1 for s in steps)}
            if len(result) != 2 * k:
                return info, f"{len(result)} separatrices, expected {2 * k}"
            if not all(landed):
                return info, f"{len(landed) - sum(landed)} separatrices did not land"
            return info, None
        if kind == "portrait":
            info = {"svg_bytes": len(result)}
            return info, _svg_problem(result, {"singularity": k + 1})
        raise ValueError(f"unknown operation {kind!r}")

    @staticmethod
    def _trunk_problem(inv):
        sing = singularities(ModelField(inv.k, inv.epsilon))
        if sorted(inv.order) != list(range(inv.k + 1)):
            return f"trunk {inv.order} is not a permutation"
        if not is_zigzag(inv.order, sing):
            return f"trunk {inv.order} is not a zig-zag"
        if not 0 <= inv.attachment <= inv.k:
            return f"attachment {inv.attachment} out of range"
        return None

    @staticmethod
    def _arcs_problem(op, arcs):
        fld = ModelField(op["k"], op["eps"])
        total = 0.0
        for arc, nxt in zip(arcs, arcs[1:] + arcs[:1]):
            width = (arc.alpha_end - arc.alpha_start) % TWO_PI
            gap = (nxt.alpha_start - arc.alpha_end + math.pi) % TWO_PI - math.pi
            if abs(gap) > 1e-9:
                return "boundary arcs are not contiguous"
            total += width
            z = op["r"] * cmath.exp(1j * (arc.alpha_start + 0.5 * width))
            radial = (fld.rhs(z) * z.conjugate()).real
            if (arc.label == "incoming" and radial >= 0) or (arc.label == "outgoing" and radial <= 0):
                return f"{arc.label} arc with radial field component {radial:.3g}"
        if abs(total - TWO_PI) > 1e-9:
            return f"boundary arcs cover {total:.12g}, not 2 pi"
        return None

    def layer_metrics(self, ops, infos, spans):
        out = {}
        ds = durations(spans, "model.ds_invariant")
        # spans outside any operation are the near-ray probe's
        probe = [s for s in spans if s[0] == "model.ds_invariant" and s[4] is None]
        out["model.ds_invariant_ms.p50"] = 1e3 * _median(ds)
        out["model.ds_invariant_ms.tail"] = 1e3 * tail(ds)[0]
        out["model.ds_invariant.fail_ratio"] = (
            sum(s[5] is not None for s in probe) / len(probe) if probe else 0.0)
        out["model.ds_invariant_validate_ms.p50"] = 1e3 * _median(
            durations(spans, "model.ds_invariant_validate"))
        seps_ops = {i for i, info in infos.items() if "steps" in info}
        # the fastest round of each operation, as for the gated op times
        sep_time = fastest(spans, "model.separatrices", seps_ops).values()
        out["model.separatrices_ms.p50"] = 1e3 * _median(durations(spans, "model.separatrices"))
        steps = [s for i in seps_ops for s in infos[i]["steps"]]
        out["model.integrate.calls"] = len(steps)
        out["model.integrate.steps"] = sum(steps)
        out["model.integrate.us_per_step"] = 1e6 * sum(sep_time) / sum(steps) if steps else 0.0
        out["model.integrate.landed_ratio"] = (
            sum(infos[i]["landed"] for i in seps_ops) / len(steps) if steps else 0.0)
        out["model.integrate.steps_per_traj.p50"] = _median(steps)
        out["model.integrate.steps_per_traj.max"] = max(steps, default=0)
        out["disk.separating_regions_ms.p50"] = 1e3 * _median(
            durations(spans, "disk.separating_regions"))
        out["render.portrait_svg_ms.p50"] = 1e3 * _median(durations(spans, "render.portrait_svg"))
        emitted = fastest(spans, "svgfig.polyline", seps_ops).values()
        points = sum(infos[i]["points"] for i in seps_ops)
        out["svgfig.emit_us_per_point"] = 1e6 * sum(emitted) / points if points else 0.0
        svg = [info["svg_bytes"] for info in infos.values() if "svg_bytes" in info]
        out["render.svg_bytes"] = _median(svg)
        return out


# ---------------------------------------------------------------------------
# bifurcation: the disk layer (tangencies, curve continuation, star figures)
# ---------------------------------------------------------------------------


class Bifurcation:
    # trace_curve (0.3-0.6 s, set mostly by k) costs ~300x a tangency solve
    # and most of the run time.  Tangency solves are ten in twelve
    # operations, so the median falls well inside them; twelve trace_curve
    # calls a batch put the tail among those at k = 2, not on the edge
    # between two kinds.
    KINDS = ("trace_curve", "tangency", "tangency", "tangency", "tangency", "tangency",
             "star", "tangency", "tangency", "tangency", "tangency", "tangency")
    BATCH = 144
    limit_s = 5.0  # a trace_curve takes 0.3-0.6 s
    K_RANGE = range(2, 5)
    DECADES = (1e-6, 1e-2)
    PER_DECADE = 12

    def ops(self, seed, workdir):
        rng = _rng(seed, 2)
        i = 0
        while True:
            kind = self.KINDS[i % len(self.KINDS)]
            k = self.K_RANGE[i // len(self.KINDS) % len(self.K_RANGE)]
            j = int(rng.integers(2 * k))
            tags = [t for t in group_tags(k, j) if t.side != 0]
            tag = tags[int(rng.integers(len(tags)))]
            abs_eps = 10.0 ** rng.uniform(-4, -1)
            yield {
                "kind": kind, "k": k, "j": j, "tag": tag,
                "r": rng.uniform(0.8, 1.25), "abs_eps": abs_eps,
                "theta": rng.uniform(0.0, TWO_PI),
            }
            i += 1

    def call(self, op, tracer):
        kind, k, r = op["kind"], op["k"], op["r"]
        eps = op["abs_eps"] * cmath.exp(1j * op["theta"])
        if kind == "trace_curve":
            with tracer.span("disk.trace_curve"):
                curve = trace_curve(k, r, op["tag"], decades=self.DECADES,
                                    per_decade=self.PER_DECADE)
            abs_eps, theta = curve.samples[-1]
            residuals = []
            for selection in ("top-bottom", "bottom-top"):
                with tracer.span("disk.double_tangency_residual"):
                    residuals.append(double_tangency_residual(
                        k, r, abs_eps, theta, op["tag"].pair, selection=selection))
            return curve, residuals
        if kind == "tangency":
            with tracer.span("disk.tangency_angles"):
                tset = tangency_angles(k, eps, r)
            with tracer.span("disk.tangency_times"):
                tset = tangency_times(tset)
            ell = int(tset.vertex_index[0])
            with tracer.span("disk.eyelet_points"):
                arc = eyelet_points(ModelField(k, eps), r, ell, n=128)
            pair = op["tag"].pair
            with tracer.span("disk.double_tangency_residual"):
                res = double_tangency_residual(k, r, op["abs_eps"], op["theta"], pair)
            return tset, arc, res
        if kind == "star":
            with tracer.span("render.star_svg"):
                return star_svg(k, eps, r, size=300)
        raise ValueError(f"unknown operation {kind!r}")

    def check(self, op, result):
        kind, k = op["kind"], op["k"]
        if kind == "trace_curve":
            curve, residuals = result
            info = {"samples": len(curve.samples)}
            want = 2 - 1 / (k + 1)
            if curve.fitted_exponent is None or abs(curve.fitted_exponent - want) > EXPONENT_TOL:
                return info, f"fitted exponent {curve.fitted_exponent} is not {want:.4f}"
            if min(abs(x) for x in residuals) > TANGENCY_TOL:
                return info, f"double-tangency residual {min(map(abs, residuals)):.3g} on the curve"
            return info, None
        if kind == "tangency":
            tset, arc, res = result
            if len(tset.angles) != 2 * k or np.any(np.diff(tset.angles) <= 0):
                return {}, "tangency angles are not 2k distinct sorted values"
            worst = float(np.abs(tset.residuals()).max())
            if worst > TANGENCY_TOL:
                return {}, f"tangency residual {worst:.3g}"
            if not np.all(np.isfinite(tset.t_values)):
                return {}, "non-finite tangency times"
            gap = float(np.abs(np.diff(arc)).max())
            miss = float(np.abs(arc - tset.t_values[0]).min())
            if miss > gap:
                return {}, f"tangency time {miss:.3g} away from its eyelet"
            m, mp = op["tag"].pair
            top = tset.t_values[tset.vertex_index == m]
            bottom = tset.t_values[tset.vertex_index == mp]
            expect = top[np.argmax(top.imag)].imag - bottom[np.argmin(bottom.imag)].imag
            if abs(res - expect) > TANGENCY_TOL:
                return {}, f"double-tangency residual {res:.6g}, expected {expect:.6g}"
            return {}, None
        if kind == "star":
            info = {"svg_bytes": len(result)}
            return info, _svg_problem(result, {"tangency": 2 * k, "eyelet": k + 1})
        raise ValueError(f"unknown operation {kind!r}")

    def layer_metrics(self, ops, infos, spans):
        samples = [info["samples"] for info in infos.values() if "samples" in info]
        svg = [info["svg_bytes"] for info in infos.values() if "svg_bytes" in info]
        return {
            "disk.trace_curve_s.p50": _median(durations(spans, "disk.trace_curve")),
            "disk.trace_curve.samples": _median(samples),
            "disk.tangency_angles_us.p50": 1e6 * _median(durations(spans, "disk.tangency_angles")),
            "disk.tangency_times_us.p50": 1e6 * _median(durations(spans, "disk.tangency_times")),
            "disk.double_tangency_residual_us.p50": 1e6 * _median(
                durations(spans, "disk.double_tangency_residual")),
            "disk.eyelet_points_ms.p50": 1e3 * _median(durations(spans, "disk.eyelet_points")),
            "render.star_svg_ms.p50": 1e3 * _median(durations(spans, "render.star_svg")),
            "render.svg_bytes": _median(svg),
        }


# ---------------------------------------------------------------------------
# unfold: series kernels under unfolding and normal forms
# ---------------------------------------------------------------------------


class Unfold:
    KINDS = ("roundtrip", "canonicalize", "equivalence", "normal_forms", "series")
    BATCH = 60
    limit_s = 5.0  # factor_family at order 160 takes 0.1-0.3 s
    ORDERS = (40, 80, 160)
    K_RANGE = range(1, 5)
    # coefficient decay: radius of convergence 1/0.3, and a small enough
    # nonlinear part of the series to revert that its inverse stays bounded,
    # so that every identity is well conditioned in double precision up to
    # order 160
    DECAY = 0.3

    def ops(self, seed, workdir):
        rng = _rng(seed, 3)
        i = 0
        while True:
            kind = self.KINDS[i % len(self.KINDS)]
            order = self.ORDERS[i % len(self.ORDERS)]
            k = self.K_RANGE[i // len(self.KINDS) % len(self.K_RANGE)]
            op = {"kind": kind, "order": order, "k": k}
            if kind == "series":
                op["s"] = self._unit(rng, order)
                op["b"] = self._unit(rng, order)
                op["g"] = self._unit(rng, order, amplitude=0.25).shift_up(1)
            else:
                sigma = self._unit(rng, order - k)
                sigma = TruncatedSeries(sigma.coefficients * (1.0 + 0.4 * self._cplx(rng)))
                op["ef"] = EigenvalueFunction(k, ((k + 1) * sigma.extended(order)).shift_up(k))
            if kind == "equivalence":
                op["zeta"] = cmath.exp(2j * math.pi * int(rng.integers(k + 1)) / (k + 1))
                # psi(delta) = delta (1 + a delta^{k+1}) commutes with rotation
                psi = TruncatedSeries.identity(order) + TruncatedSeries.monomial(
                    k + 2, order, 0.05 * self._cplx(rng))
                op["other"] = EigenvalueFunction(k, op["ef"].lam.compose(psi))
            if kind == "normal_forms":
                op["eps"] = [0.02 * cmath.exp(TWO_PI * 1j * rng.random()) for _ in range(3)]
            yield op
            i += 1

    @staticmethod
    def _cplx(rng):
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def _unit(self, rng, order, amplitude=1.0):
        n = order + 1
        c = amplitude * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        c *= self.DECAY ** np.arange(n)
        c[0] = 1.0
        return TruncatedSeries(c)

    def call(self, op, tracer):
        kind = op["kind"]
        if kind == "roundtrip":
            with tracer.span("unfolding.realize"):
                spec = realize(op["ef"])
            with tracer.span("unfolding.factor_family"):
                spec = factor_family(spec)
            with tracer.span("unfolding.eigenvalue_function"):
                return eigenvalue_function(spec, order=op["order"])
        if kind == "canonicalize":
            with tracer.span("unfolding.canonicalize"):
                can = canonicalize(op["ef"])
            with tracer.span("unfolding.canonicalize"):
                return can, canonicalize(can.lam)
        if kind == "equivalence":
            ef = op["ef"]
            rotated = ef.precompose_root(op["zeta"])
            with tracer.span("unfolding.equivalent_fixed_parameter"):
                zeta = equivalent_fixed_parameter(ef, rotated)
            with tracer.span("unfolding.equivalent_full"):
                return zeta, equivalent_full(ef, op["other"])
        if kind == "normal_forms":
            with tracer.span("unfolding.residue_sum"):
                a = residue_sum(op["ef"])
            with tracer.span("normal_forms.polynomial_nf"):
                p = polynomial_nf(op["ef"], eps_order=8)
            with tracer.span("normal_forms.rational_nf"):
                q = rational_nf(op["ef"], eps_order=8)
            return a, p, q
        if kind == "series":
            s, b, g = op["s"], op["b"], op["g"]
            with tracer.span("series.mul"):
                prod = s * b
            with tracer.span("series.reciprocal"):
                rec = b.reciprocal()
            with tracer.span("series.compose"):
                comp = s.compose(g)
            with tracer.span("series.reversion"):
                rev = g.reversion()
            with tracer.span("series.kth_root"):
                root = s.kth_root(op["k"] + 1)
            return prod, rec, comp, rev, root
        raise ValueError(f"unknown operation {kind!r}")

    def check(self, op, result):
        kind, k, order = op["kind"], op["k"], op["order"]
        if kind == "roundtrip":
            err = mismatch(result.lam, op["ef"].lam)
            return {}, None if err <= SERIES_TOL else f"round trip off by {err:.3g}"
        if kind == "canonicalize":
            can, again = result
            direct = op["ef"].lam.compose(can.h).coefficients
            deg = np.arange(len(direct))
            offender = (deg % (k + 1) == k % (k + 1)) & (deg > k)
            left = np.abs(direct[offender]).max(initial=0.0)
            if left >= 1e-10 * np.abs(direct).max():
                return {}, f"removable coefficients left at {left:.3g}"
            return {}, None if again.is_identity else "canonicalize is not idempotent"
        if kind == "equivalence":
            zeta, full = result
            if zeta is None or abs(zeta - op["zeta"]) > 1e-10:
                return {}, f"fixed-parameter witness {zeta}, expected {op['zeta']}"
            if full is None:
                return {}, "equivalent_full found no conjugacy"
            err = mismatch(op["ef"].lam, op["other"].lam.compose(full[1]))
            return {}, None if err <= SERIES_TOL else f"l1 != l2 o xi by {err:.3g}"
        if kind == "normal_forms":
            a, p, q = result
            lam = op["ef"].lam
            sigma = op["ef"].sigma
            for eps in op["eps"]:
                roots = eps ** (1.0 / (k + 1)) * np.exp(TWO_PI * 1j * np.arange(k + 1) / (k + 1))
                direct = sum(1.0 / complex(lam(d)) for d in roots)
                if abs(a(eps) - direct) >= RESIDUE_TOL * max(1.0, abs(direct)):
                    return {}, f"residue sum off by {abs(a(eps) - direct):.3g}"
                qv, rv = p.eval_at(eps), q.eval_at(eps)
                for d in roots:
                    s = sigma(d)
                    if abs(np.polyval(qv[::-1], d) - s) >= NF_TOL:
                        return {}, "polynomial normal form misses sigma at a singular point"
                    if abs(np.polyval(rv[::-1], d) * s - 1.0) >= NF_TOL:
                        return {}, "rational normal form misses 1/sigma at a singular point"
            return {}, None
        if kind == "series":
            prod, rec, comp, rev, root = result
            s, b, g = op["s"], op["b"], op["g"]
            checks = (
                ("mul / reciprocal", prod * rec, s),
                ("reciprocal", b * rec, TruncatedSeries.constant(1.0, order)),
                ("reversion", g.compose(rev), TruncatedSeries.identity(order)),
                ("compose", comp.compose(rev), s),
                ("kth_root", root ** (k + 1), s),
            )
            for label, got, want in checks:
                err = mismatch(got, want)
                if err > SERIES_TOL:
                    return {}, f"{label} identity off by {err:.3g}"
            return {}, None
        raise ValueError(f"unknown operation {kind!r}")

    def layer_metrics(self, ops, infos, spans):
        by_order = {n: {i for i, op in enumerate(ops) if op["order"] == n} for n in self.ORDERS}
        out = {}
        for fn in ("mul", "reciprocal", "compose", "reversion", "kth_root"):
            for n, ids in by_order.items():
                out[f"series.{fn}_us.o{n}"] = 1e6 * _median(durations(spans, f"series.{fn}", ids))
        for fn in ("factor_family", "canonicalize", "equivalent_full"):
            for n, ids in by_order.items():
                out[f"unfolding.{fn}_ms.o{n}"] = 1e3 * _median(
                    durations(spans, f"unfolding.{fn}", ids))
        out["unfolding.equivalent_fixed_parameter_ms"] = 1e3 * _median(
            durations(spans, "unfolding.equivalent_fixed_parameter"))
        for fn in ("polynomial_nf", "rational_nf"):
            out[f"normal_forms.{fn}_ms"] = 1e3 * _median(durations(spans, f"normal_forms.{fn}"))
        return out


# ---------------------------------------------------------------------------
# cli: fresh `python -m parafold.cli` processes, run as a probe of the traced
# runs.  The processes inherit the worker's environment: PYTHONPATH at the
# checkout's src/, BLAS pinned to 1.
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("portrait", "star", "bifdiagram", "classify", "canon", "nf", "dsinv")


def cli_jobs(seed, workdir):
    """Seeded CLI runs as ``(name, argv, expected exit code, SVG path or None)``.

    One run per subcommand on small inputs, then three malformed inputs that
    must exit with code 2.  The input files are written into ``workdir``.
    """
    rng = _rng(seed, 4)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def family(k, order=20):
        c = np.zeros((order, 2), dtype=complex)
        c[k + 1, 0] = 1.0
        c[0, 1] = -1.0
        c[k + 2 : k + 6, 0] = rng.uniform(-0.5, 0.5, 4)
        return FamilySpec(k=k, omega=BivariateSeries(c)).to_dict()

    def write(name, data):
        path = workdir / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def generic_eps(k):
        rays = bifurcation_angles(k)
        while True:
            theta = rng.uniform(0.0, TWO_PI)
            if np.abs((rays - theta + math.pi) % TWO_PI - math.pi).min() > 0.1:
                eps = 10.0 ** rng.uniform(-0.3, 0.3) * cmath.exp(1j * theta)
                # --eps=VALUE: a leading minus must not read as an option
                return f"--eps={eps.real:.6f}{eps.imag:+.6f}i"

    k_fam = int(rng.integers(1, 4))
    fam_a = write("family_a.json", family(k_fam))
    fam_b = write("family_b.json", family(k_fam))
    lam = np.zeros(21, dtype=complex)
    lam[2], lam[3:8] = 3.0, rng.uniform(-1, 1, 5)
    lam_file = write("lambda.json", EigenvalueFunction(2, TruncatedSeries(lam)).to_dict())
    bad_deg = EigenvalueFunction(2, TruncatedSeries(lam)).to_dict()
    bad_deg["coefficients"].append({"deg": 25, "re": 1.0, "im": 0.0})
    k_p, k_s, k_d = (int(rng.integers(1, 4)), int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    svg = {name: str(workdir / f"{name}.svg") for name in ("portrait", "star", "bifdiagram")}
    return [
        ("portrait", ["portrait", "--k", str(k_p), generic_eps(k_p), "--samples", "4",
                      "--seed", str(int(rng.integers(1000))), "--out", svg["portrait"]],
         0, svg["portrait"]),
        ("star", ["star", "--k", str(k_s), generic_eps(k_s), "--r", f"{rng.uniform(1.0, 1.5):.3f}",
                  "--out", svg["star"]], 0, svg["star"]),
        ("bifdiagram", ["bifdiagram", "--k", "2", "--r", f"{rng.uniform(0.8, 1.25):.3f}",
                        "--decades", "1e-3", "1e-2", "--per-decade", "4", "--out", svg["bifdiagram"]],
         0, svg["bifdiagram"]),
        ("classify", ["classify", fam_a, fam_b], 0, None),
        ("canon", ["canon", lam_file], 0, None),
        ("nf", ["nf", str(rng.choice(["polynomial", "rational"])), fam_a, "--eps-order", "3"], 0, None),
        ("dsinv", ["dsinv", "--k", str(k_d), generic_eps(k_d)], 0, None),
        ("malformed", ["canon", write("list.json", [1, 2, 3])], 2, None),
        ("malformed", ["canon", write("bad_deg.json", bad_deg)], 2, None),
        ("malformed", ["dsinv", "--k", "2", "--eps", "nan"], 2, None),
    ]


def cli_problem(job, result, reference):
    """Oracle of one CLI run: the documented exit code, and output
    byte-identical to the first run of the same argv (kept in ``reference``)."""
    _, argv, code, svg = job
    if result.returncode != code:
        return f"exit code {result.returncode}, expected {code}"
    if code != 0:
        return None
    output = Path(svg).read_bytes() if svg else result.stdout
    if not output:
        return "empty output"
    first = reference.setdefault(" ".join(argv), output)
    return None if output == first else "output differs from the first run"


def cli_probe(seed, workdir, tracer, rounds=2):
    """Per-layer CLI metrics: every job ``rounds`` times, one process at a time."""
    jobs = cli_jobs(seed, workdir)
    reference, failed = {}, 0
    for _ in range(rounds):
        for job in jobs:
            with tracer.span(f"cli.{job[0]}"):
                result = subprocess.run([sys.executable, "-m", "parafold.cli", *job[1]],
                                        capture_output=True, timeout=60)
            failed += cli_problem(job, result, reference) is not None
    out = {f"cli.process_ms.{sub}": 1e3 * _median(durations(tracer.spans, f"cli.{sub}"))
           for sub in SUBCOMMANDS}
    out["cli.fail_ratio"] = failed / (rounds * len(jobs))
    return out


def import_times(repeats=3):
    """``(import_s, import_scipy_s)`` of ``import parafold.cli``, from ``-X importtime``.

    ``import_s`` sums the top-level parafold entries; ``import_scipy_s`` the
    scipy entries not imported by scipy itself.  Medians over ``repeats``
    fresh interpreters.
    """
    totals, scipy_totals = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import parafold.cli"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, name.strip(), int(cumulative) * 1e-6))
        total = sum(c for d, n, c in rows if d == 0 and n.split(".")[0] == "parafold")
        scipy = 0.0
        for i, (depth, name, cum) in enumerate(rows):
            if name.split(".")[0] != "scipy":
                continue
            parent = next((n for d, n, c in rows[i + 1:] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                scipy += cum
        totals.append(total)
        scipy_totals.append(scipy)
    return float(np.median(totals)), float(np.median(scipy_totals))


def get(name):
    return {"dynamics": Dynamics, "bifurcation": Bifurcation, "unfold": Unfold}[name]()
