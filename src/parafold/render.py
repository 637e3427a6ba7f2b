"""Figure assembly: phase portraits, t-space star figures, bifurcation diagrams.

Every figure is a pure function of its arguments (plus an explicit RNG seed
for the trajectory sample), emitted through the deterministic SVG canvas.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import svgfig
from .disk import eyelet_points, group_tags, tangency_angles, tangency_times, trace_curve
from .model import (
    IntegratorControls,
    ModelField,
    bifurcation_angles,
    integrate,
    outward_normal,
    periods,
    separatrices,
    singularities,
)
from .svgfig import SvgCanvas


def portrait_svg(k: int, eps: complex, radius: float = 1.5, seed: int = 0, samples: int = 40,
                 size: int = 800) -> str:
    """Phase portrait: singular points, the 2k separatrices, random orbits."""
    return _portrait(k, eps, radius, seed, samples, size)[0]


def _portrait(k, eps, radius, seed, samples, size=800):
    """``portrait_svg`` and the separatrices it draws: ``(svg, separatrices)``."""
    fld = ModelField(k, eps)
    canvas = SvgCanvas(size=size, window=(-radius, radius, -radius, radius))
    rng = np.random.default_rng(seed)
    # a pixel is 2 radius / size: every drawn arc stays within a quarter of one
    ctl = IntegratorControls(sag=0.5 * radius / size, time_cap=2e3, max_steps=40_000)
    sing = singularities(fld)
    starts = []
    for _ in range(samples):
        z0 = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if np.abs(sing - z0).min() >= 1e-3:
            starts.append(z0)
    # every sample forwards, then backwards, in one integrate call
    for traj in integrate(fld, np.repeat(starts, 2), np.tile([1, -1], len(starts)), ctl):
        canvas.polyline(traj.points, stroke=svgfig.COLOR_GENERIC, width=0.8, cls="orbit")
    seps = separatrices(fld, controls=ctl)
    for traj in seps:
        color = svgfig.COLOR_OUTGOING if traj.orientation == "outgoing" else svgfig.COLOR_INCOMING
        canvas.polyline(
            traj.points, stroke=color, width=1.6, cls=f"separatrix-{traj.orientation[:3]}"
        )
    for z in sing:
        canvas.dot(z, radius_px=5.0, cls="singularity")
    return canvas.tostring(), seps


def star_svg(k: int, eps: complex, r: float, size: int = 800) -> str:
    """The rectified picture: period-gon, strips, eyelets, tangency points."""
    fld = ModelField(k, eps)
    gon = periods(fld)
    v = gon.vertices
    scale = float(np.abs(v).max())
    strip_length = 1.6 * scale
    win = 1.15 * (scale + strip_length) / 1.6
    canvas = SvgCanvas(size=size, window=(-win, win, -win, win))
    tset = tangency_times(tangency_angles(k, eps, r))
    k1 = k + 1
    # strips: two half-lines orthogonal to each side, from its endpoints
    for ell in range(k1):
        a, b = gon.side(ell)
        n_hat = outward_normal(a, b)
        for end in (a, b):
            canvas.polyline(
                [end, end + strip_length * n_hat],
                stroke=svgfig.COLOR_GENERIC,
                width=1.0,
                cls="strip",
                dash="6,4",
            )
    canvas.polygon([complex(z) for z in v], stroke=svgfig.COLOR_MARKER, width=1.4, cls="polygon")
    for ell in range(k1):
        pts = eyelet_points(fld, r, ell, n=200)
        canvas.polyline(pts, stroke=svgfig.COLOR_MARKER, width=1.0, cls="eyelet")
    for t in tset.t_values:
        canvas.dot(t, radius_px=3.5, cls="tangency")
    return canvas.tostring()


def bifdiagram_svg(
    k: int,
    r: float,
    decades=(1e-6, 1e-2),
    per_decade: int = 12,
) -> str:
    """Bifurcation curves in the eps-disk, radius log-scaled in |eps|."""
    lo, hi = decades
    if not (0 < lo < hi):
        raise ValueError("empty decade range")
    loglo, loghi = math.log10(lo), math.log10(hi)

    def radial(abs_eps):
        return 0.08 + 0.9 * (math.log10(abs_eps) - loglo) / (loghi - loglo)

    canvas = SvgCanvas(size=800, window=(-1.05, 1.05, -1.05, 1.05))
    canvas.circle(0j, 0.98, stroke=svgfig.COLOR_GENERIC, width=0.8, cls="frame")
    for j, theta in enumerate(bifurcation_angles(k)):
        ray = [radial(lo) * cmath.exp(1j * theta), radial(hi) * cmath.exp(1j * theta)]
        canvas.polyline(ray, stroke=svgfig.COLOR_GENERIC, width=1.0, cls="ray", dash="3,3")
    for j in range(2 * k):
        for tag in group_tags(k, j):
            if tag.side == 0:
                continue
            curve = trace_curve(k, r, tag, decades=decades, per_decade=per_decade)
            pts = [
                radial(ae) * cmath.exp(1j * th) for ae, th in curve.samples
            ]
            canvas.polyline(pts, stroke=svgfig.COLOR_SEPARATING, width=1.4, cls="curve")
    return canvas.tostring()
