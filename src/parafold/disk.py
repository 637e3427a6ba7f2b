"""Bifurcation analysis of the model field restricted to a disk B(0, r).

Boundary tangencies of the field with the circle, their positions in the
rectifying coordinate (eyelets around the period-gon tips), double-tangency
detection, and numerical continuation of the bifurcation curves in the
eps-plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    TWO_PI,
    IntegratorControls,
    ModelField,
    PeriodGon,
    bifurcation_angles,
    is_homoclinic,
    landing_index,
    periods,
    sector_index,
    xi_series,
)


class NewtonDivergence(RuntimeError):
    """Tangency-angle Newton iteration left its seed basin."""


class RootLoss(RuntimeError):
    """Curve continuation failed to bracket the next root."""


def tangency_equation(k: int, r: float, eps: complex, alpha):
    """E(x, y, alpha) = cos(k*alpha) - (x cos alpha + y sin alpha)/r^{k+1}.

    Zeroes are the boundary angles where the field is tangent to the circle
    |z| = r.
    """
    x, y = eps.real, eps.imag
    return np.cos(k * np.asarray(alpha)) - (x * np.cos(alpha) + y * np.sin(alpha)) / r ** (k + 1)


def tangency_equation_dalpha(k: int, r: float, eps: complex, alpha):
    x, y = eps.real, eps.imag
    return -k * np.sin(k * np.asarray(alpha)) - (-x * np.sin(alpha) + y * np.cos(alpha)) / r ** (
        k + 1
    )


def tangency_seeds(k: int) -> np.ndarray:
    """The eps = 0 tangency angles (pi/2 + j*pi)/k, j = 0..2k-1."""
    return (math.pi / 2 + np.arange(2 * k) * math.pi) / k


@dataclass
class TangencySet:
    """Tangency angles on |z| = r with rectified positions and sector data."""

    k: int
    r: float
    epsilon: complex
    angles: np.ndarray
    t_values: np.ndarray | None = None
    vertex_index: np.ndarray | None = None
    on_slit: np.ndarray | None = None

    def residuals(self):
        return tangency_equation(self.k, self.r, self.epsilon, self.angles)


def tangency_angles(k: int, eps: complex, r: float, max_iter: int = 60) -> TangencySet:
    """The 2k tangency angles, by Newton from the eps = 0 seeds."""
    seeds = tangency_seeds(k)
    basin = math.pi / (2 * k)
    out = np.empty(2 * k)
    for j, seed in enumerate(seeds):
        a = seed
        for _ in range(max_iter):
            e = float(tangency_equation(k, r, eps, a))
            de = float(tangency_equation_dalpha(k, r, eps, a))
            if de == 0.0:
                raise NewtonDivergence(f"vanishing derivative at seed {j}")
            step = e / de
            a -= step
            if abs(step) < 1e-15:
                break
        if abs(a - seed) > basin or abs(tangency_equation(k, r, eps, a)) > 1e-11:
            raise NewtonDivergence(f"no tangency root in the basin of seed {j}")
        out[j] = a % TWO_PI
    order = np.argsort(out)
    return TangencySet(k=k, r=r, epsilon=eps, angles=out[order])


def tangency_times(tset: TangencySet, gon: PeriodGon | None = None) -> TangencySet:
    """Rectified positions t_m = v(sector) + xi(r e^{i alpha_m}) of the tangencies."""
    fld = ModelField(tset.k, tset.epsilon)
    if tset.r <= fld.scale:
        raise ValueError("disk radius must exceed |eps|^{1/(k+1)}")
    gon = periods(fld) if gon is None else gon
    ts = np.empty(len(tset.angles), dtype=complex)
    sectors = np.empty(len(tset.angles), dtype=int)
    slit = np.zeros(len(tset.angles), dtype=bool)
    for i, a in enumerate(tset.angles):
        z = tset.r * cmath.exp(1j * a)
        ell, on_slit = sector_index(fld, z)
        if on_slit:
            z = tset.r * cmath.exp(1j * (a + 1e-12))
        ts[i] = gon.vertices[ell] + xi_series(fld, z)
        sectors[i] = ell
        slit[i] = on_slit
    return replace(tset, t_values=ts, vertex_index=sectors, on_slit=slit)


def eyelet_points(fld: ModelField, r: float, ell: int, n: int = 256, margin: float = 1e-6):
    """Sampled image of the boundary arc of sector ``ell`` in t-coordinate."""
    gon = periods(fld)
    k1 = fld.k + 1
    theta = fld.theta()
    a0 = (theta + TWO_PI * ell) / k1
    a1 = (theta + TWO_PI * (ell + 1)) / k1
    alphas = np.linspace(a0 + margin, a1 - margin, n)
    zs = r * np.exp(1j * alphas)
    return gon.vertices[ell] + np.array([xi_series(fld, z) for z in zs])


def eyelet_diameter(fld: ModelField, r: float, ell: int, n: int = 256) -> float:
    pts = eyelet_points(fld, r, ell, n)
    return float(np.abs(pts[:, None] - pts[None, :]).max())


def eyelet_reference_radius(k: int, r: float) -> float:
    """Limit radius 1/(k r^k) of the eyelets as eps -> 0."""
    return 1.0 / (k * r**k)


def _eyelet_extremes(tset: TangencySet, m: int):
    """Top- and bottom-most tangency t-values on eyelet m."""
    if tset.t_values is None:
        raise ValueError("tangency times not computed")
    sel = tset.t_values[tset.vertex_index == m]
    if len(sel) == 0:
        raise RootLoss(f"eyelet {m} carries no tangency point")
    return sel[np.argmax(sel.imag)], sel[np.argmin(sel.imag)]


def double_tangency_residual(
    k: int,
    r: float,
    abs_eps: float,
    theta: float,
    pair,
    selection: str = "top-bottom",
) -> float:
    """Height mismatch Im(t_m - t_{m'}) of selected tangency points.

    ``selection`` picks which extreme tangency point of each eyelet is
    compared: ``top-top`` (or ``bottom-bottom``) vanishes on the straight
    symmetric ray, while the mixed selections vanish on the paired curves
    where a horizontal line is tangent to the two eyelets from opposite
    sides.

    ``theta`` may leave [0, 2*pi): vertex labels index by the normalised
    argument, so a pair defined near theta = 0 is translated across the
    seam to keep its geometric identity.
    """
    shift = 0
    while theta < 0.0:
        theta += TWO_PI
        shift -= 1
    while theta >= TWO_PI:
        theta -= TWO_PI
        shift += 1
    m, mp = ((idx + shift) % (k + 1) for idx in pair)
    eps = abs_eps * cmath.exp(1j * theta)
    tset = tangency_times(tangency_angles(k, eps, r))
    top_m, bot_m = _eyelet_extremes(tset, m)
    top_p, bot_p = _eyelet_extremes(tset, mp)
    pick = {
        "top-top": (top_m, top_p),
        "bottom-bottom": (bot_m, bot_p),
        "top-bottom": (top_m, bot_p),
        "bottom-top": (bot_m, top_p),
    }
    if selection not in pick:
        raise ValueError(f"unknown selection {selection!r}")
    a, b = pick[selection]
    return float(a.imag - b.imag)


def symmetric_pairs(k: int, j: int, abs_eps: float = 1e-3, tol: float = 1e-9):
    """Vertex index pairs at equal height at the homoclinic angle theta_j."""
    theta = bifurcation_angles(k)[j]
    return is_homoclinic(ModelField(k, abs_eps * cmath.exp(1j * theta)), tol)[1]


@dataclass
class CurveTag:
    j: int
    pair: tuple
    side: int  # -1, 0, +1

    def to_dict(self):
        return {"j": self.j, "pair": list(self.pair), "side": self.side}


@dataclass
class BifurcationCurve:
    tag: CurveTag
    samples: np.ndarray  # rows (|eps|, theta)
    fitted_exponent: float | None = None

    def to_dict(self):
        return {
            "tag": self.tag.to_dict(),
            "samples": [[float(a), float(t)] for a, t in self.samples],
            "exponent": self.fitted_exponent,
        }


def _log_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    n = max(2, int(round(per_decade * math.log10(hi / lo))) + 1)
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _bracket_root(fun, lo, hi, n=80):
    xs = np.linspace(lo, hi, n)
    vals = [fun(x) for x in xs]
    for i in range(n - 1):
        if vals[i] == 0.0:
            return xs[i], xs[i]
        if vals[i] * vals[i + 1] < 0:
            return xs[i], xs[i + 1]
    return None


def fit_exponent(samples, theta_ref, drop_decades_above: float | None = None):
    """Least-squares slope of log|y| against log x for curve samples.

    Returns None when fewer than three usable samples remain (the largest
    decade is discarded to suppress higher-order terms).
    """
    ae = samples[:, 0]
    th = samples[:, 1]
    x = ae * np.cos(th - theta_ref)
    y = ae * np.sin(th - theta_ref)
    mask = (np.abs(y) > 0) & (x > 0)
    if drop_decades_above is not None:
        mask &= ae <= drop_decades_above
    if mask.sum() < 3:
        return None
    lx, ly = np.log(x[mask]), np.log(np.abs(y[mask]))
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def trace_curve(
    k: int,
    r: float,
    tag: CurveTag,
    decades=(1e-6, 1e-2),
    per_decade: int = 40,
) -> BifurcationCurve:
    """Numerical continuation of one bifurcation curve in the eps-plane.

    ``side = 0`` is the straight homoclinic ray; the paired curves are found
    by bracketing the double-tangency residual in theta at each |eps|,
    seeded by the asymptotic offset ~ C |eps|^{k/(k+1)} calibrated at the
    largest sample.
    """
    from scipy.optimize import brentq

    theta_j = bifurcation_angles(k)[tag.j]
    grid = _log_grid(decades[0], decades[1], per_decade)
    if tag.side == 0:
        samples = np.column_stack([grid, np.full_like(grid, theta_j)])
        return BifurcationCurve(tag=tag, samples=samples, fitted_exponent=None)

    pair = tuple(tag.pair)
    selections = ("top-bottom", "bottom-top")
    rows = []
    c_est = None
    selection = None
    window0 = 0.45 * math.pi / k
    for abs_eps in grid[::-1]:
        def residual(theta, sel):
            return double_tangency_residual(k, r, abs_eps, theta, pair, selection=sel)

        if c_est is None:
            found = None
            for sel in selections:
                fun = lambda th: residual(th, sel)
                span = window0
                for _ in range(2):
                    lo = theta_j + (1e-7 if tag.side > 0 else -span)
                    hi = theta_j + (span if tag.side > 0 else -1e-7)
                    br = _bracket_root(fun, lo, hi)
                    if br is not None:
                        found = (sel, br)
                        break
                    span *= 2.0
                if found:
                    break
            if found is None:
                raise RootLoss(f"no initial bracket for tag {tag}")
            selection, (lo, hi) = found
        else:
            offset = c_est * abs_eps ** (k / (k + 1.0))
            fun = lambda th: residual(th, selection)
            br = None
            for widen in (1.0, 2.0, 5.0):
                lo = theta_j + tag.side * offset / (3.0 * widen)
                hi = theta_j + tag.side * offset * 3.0 * widen
                lo, hi = min(lo, hi), max(lo, hi)
                br = _bracket_root(fun, lo, hi, n=40)
                if br is not None:
                    break
            if br is None:
                raise RootLoss(f"continuation lost the root of tag {tag} at |eps|={abs_eps:g}")
            lo, hi = br
        if lo == hi:
            theta = lo
        else:
            theta = brentq(lambda th: residual(th, selection), lo, hi, xtol=1e-15, rtol=1e-15)
        rows.append((abs_eps, theta))
        c_est = abs(theta - theta_j) / abs_eps ** (k / (k + 1.0))
    samples = np.array(rows[::-1])
    exponent = fit_exponent(samples, theta_j, drop_decades_above=decades[1] / 10.0)
    return BifurcationCurve(tag=tag, samples=samples, fitted_exponent=exponent)


def group_tags(k: int, j: int) -> list[CurveTag]:
    """All curve tags of the group at theta_j: the straight ray plus pairs.

    Empty for the degenerate k = 1 groups where the symmetric period-gon
    has both vertices on the axis and no horizontal segment, hence no
    double tangency.
    """
    pairs = symmetric_pairs(k, j)
    if not pairs:
        return []
    tags = [CurveTag(j=j, pair=pairs[0], side=0)]
    for pair in pairs:
        tags.append(CurveTag(j=j, pair=pair, side=-1))
        tags.append(CurveTag(j=j, pair=pair, side=+1))
    return tags


# ---------------------------------------------------------------------------
# boundary classification (separating trajectories)
# ---------------------------------------------------------------------------


@dataclass
class BoundaryArc:
    alpha_start: float
    alpha_end: float
    label: str  # incoming | outgoing | separating

    def to_dict(self):
        return {
            "alpha_start": self.alpha_start,
            "alpha_end": self.alpha_end,
            "label": self.label,
        }


def _classify_point(fld: ModelField, r: float, alpha: float, controls) -> str:
    z = r * cmath.exp(1j * alpha)
    radial = (fld.rhs(z) * complex(z).conjugate()).real
    inward = radial < 0
    z_in = z * (1.0 - 1e-9)
    if landing_index(fld, z_in, direction=1 if inward else -1, controls=controls) is not None:
        return "incoming" if inward else "outgoing"
    return "separating"


def separating_regions(
    fld: ModelField,
    r: float,
    samples_per_arc: int = 24,
    controls: IntegratorControls | None = None,
) -> list[BoundaryArc]:
    """Classify the boundary circle into incoming/outgoing/separating arcs.

    The 2k exact tangency angles cut the circle into arcs on which the field
    points strictly inward or outward; each arc is subsampled and the orbit
    through every sample is run inside the disk to its first exit or landing.
    Entering orbits that land label their samples ``incoming``, exiting
    orbits born at a singularity label theirs ``outgoing`` and orbits that
    cross the disk label ``separating``.
    """
    base = controls or IntegratorControls()
    ctl = base.resolved(fld)
    ctl = replace(ctl, boundary_radius=r * (1.0 - 1e-12))
    tset = tangency_angles(fld.k, fld.epsilon, r)
    cuts = np.sort(tset.angles)
    arcs = []
    for i in range(len(cuts)):
        a0 = cuts[i]
        a1 = cuts[(i + 1) % len(cuts)]
        if i == len(cuts) - 1:
            a1 += TWO_PI
        alphas = np.linspace(a0, a1, samples_per_arc + 2)[1:-1]
        labels = [_classify_point(fld, r, a, ctl) for a in alphas]
        start = a0
        cur = labels[0]
        for a_prev, a_next, lab in zip(alphas[:-1], alphas[1:], labels[1:]):
            if lab != cur:
                mid = 0.5 * (a_prev + a_next)
                arcs.append(BoundaryArc(start % TWO_PI, mid % TWO_PI, cur))
                start, cur = mid, lab
        arcs.append(BoundaryArc(start % TWO_PI, a1 % TWO_PI, cur))
    return arcs
