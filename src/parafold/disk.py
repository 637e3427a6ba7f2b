"""Bifurcation analysis of the model field restricted to a disk B(0, r).

Boundary tangencies of the field with the circle, their positions in the
rectifying coordinate (eyelets around the period-gon tips), double-tangency
detection, and numerical continuation of the bifurcation curves in the
eps-plane.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    TWO_PI,
    AtBifurcation,
    ModelField,
    Termination,
    _gon_vertices,
    bifurcation_angles,
    is_homoclinic,
    landing_lanes,
    periods,
    sector_array,
    xi_array,
    xi_series,
)


class NewtonDivergence(RuntimeError):
    """Tangency-angle Newton iteration left its seed basin."""


class RootLoss(RuntimeError):
    """Curve continuation failed to bracket the next root."""


def _radius_power(k: int, r: float) -> float:
    """r^{k+1} as a float; where it is not a finite positive float,
    ``NewtonDivergence`` naming k and r."""
    try:
        r_k1 = float(r) ** (k + 1)
    except OverflowError:
        r_k1 = math.inf
    if not 0.0 < r_k1 < math.inf:
        raise NewtonDivergence(f"r^{k + 1} is not a finite positive float at k = {k}, r = {r:g}")
    return r_k1


def _polar(k: int, r: float, eps):
    """(rho, phi) with eps / r^{k+1} = rho e^{i phi}."""
    return np.abs(eps) / r ** (k + 1), np.angle(eps)


def _tangency_terms(k: int, rho, phi, alpha):
    """E = cos(k alpha) - rho cos(alpha - phi) and its alpha-derivative."""
    ka = k * alpha
    d = alpha - phi
    return np.cos(ka) - rho * np.cos(d), rho * np.sin(d) - k * np.sin(ka)


def tangency_equation(k: int, r: float, eps, alpha):
    """E(x, y, alpha) = cos(k*alpha) - (x cos alpha + y sin alpha)/r^{k+1}.

    Zeroes are the boundary angles where the field is tangent to the circle
    |z| = r.  An r whose r^{k+1} is not a finite positive float raises
    ``NewtonDivergence``, as in ``tangency_angles``.
    """
    _radius_power(k, r)
    return _tangency_terms(k, *_polar(k, r, eps), np.asarray(alpha))[0]


def tangency_seeds(k: int) -> np.ndarray:
    """The eps = 0 tangency angles (pi/2 + j*pi)/k, j = 0..2k-1."""
    return (math.pi / 2 + np.arange(2 * k) * math.pi) / k


@dataclass
class TangencySet:
    """Tangency angles on |z| = r with rectified positions and sector data.

    For an array of eps every array field has one row per eps.
    ``newton_iterations`` counts the Newton steps over all seeds and rows.
    """

    k: int
    r: float
    epsilon: complex | np.ndarray
    angles: np.ndarray
    t_values: np.ndarray | None = None
    vertex_index: np.ndarray | None = None
    on_slit: np.ndarray | None = None
    newton_iterations: int = 0

    def residuals(self):
        rho, phi = _polar(self.k, self.r, np.asarray(self.epsilon)[..., None])
        return _tangency_terms(self.k, rho, phi, self.angles)[0]


def tangency_angles(k: int, eps, r: float) -> TangencySet:
    """The 2k tangency angles, by Newton from the eps = 0 seeds.

    All seeds, and all rows when ``eps`` is a 1-D array, run as one masked
    Newton iteration; each seed stops on its own once its step is below
    1e-15.  Before any Newton step, an r whose r^{k+1} is not a finite
    positive float raises ``NewtonDivergence`` naming k and r, and so does
    the first row with r^{k+1} <= |eps|, naming this condition: the circle
    then does not enclose the roots, and ``tangency_times`` has no series
    there.  A seed whose derivative vanishes, which leaves its basin or
    whose residual exceeds 1e-11 raises ``NewtonDivergence``, reported for
    the first such seed in row order.
    """
    r_k1 = _radius_power(k, r)
    seeds = tangency_seeds(k)
    basin = math.pi / (2 * k)
    rho, phi = _polar(k, r, np.asarray(eps)[..., None])
    inside = np.abs(np.ravel(eps)) >= r_k1
    if np.count_nonzero(inside):
        abs_eps = abs(np.ravel(eps)[np.argmax(inside)])
        raise NewtonDivergence(
            f"the {2 * k} tangencies need r^{k + 1} > |eps|, got r^{k + 1} = "
            f"{r_k1:.6g} <= |eps| = {abs_eps:.6g}"
        )
    a = np.empty(rho.shape[:-1] + seeds.shape)
    a[...] = seeds
    active = np.ones(a.shape, dtype=bool)
    stalled = np.zeros(a.shape, dtype=bool)
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            n_active = np.count_nonzero(active)
            if not n_active:
                break
            iterations += n_active
            e, de = _tangency_terms(k, rho, phi, a)
            # a stalled seed steps to inf or nan and stops at the next
            # sweep; only stalled seeds (never converged ones) have de == 0
            stalled |= de == 0.0
            step = e / de
            step *= active
            a -= step
            active &= np.abs(step) >= 1e-15
    failed = stalled | (np.abs(a - seeds) > basin)
    failed |= np.abs(_tangency_terms(k, rho, phi, a)[0]) > 1e-11
    if np.count_nonzero(failed):
        first = int(np.argmax(failed.ravel()))
        j = first % (2 * k)
        if stalled.ravel()[first]:
            raise NewtonDivergence(f"vanishing derivative at seed {j}")
        raise NewtonDivergence(f"no tangency root in the basin of seed {j}")
    angles = np.sort(a % TWO_PI, axis=-1)
    return TangencySet(k=k, r=r, epsilon=eps, angles=angles, newton_iterations=iterations)


def tangency_times(tset: TangencySet) -> TangencySet:
    """Rectified positions t_m = v(sector) + xi(r e^{i alpha_m}) of the tangencies.

    A tangency on a slit is evaluated 1e-12 rad counterclockwise of it.  A
    gon that overflows a float raises ``SeriesOutOfDomain`` (``_gon_vertices``).
    """
    k = tset.k
    col = np.asarray(tset.epsilon)[..., None]
    if tset.r <= np.abs(col).max() ** (1.0 / (k + 1)):
        raise ValueError("disk radius must exceed |eps|^{1/(k+1)}")
    z = tset.r * np.exp(1j * tset.angles)
    sectors, slit = sector_array(k, col, z)
    if np.count_nonzero(slit):
        z = np.where(slit, tset.r * np.exp(1j * (tset.angles + 1e-12)), z)
    ts = _gon_vertices(k, col, sectors) + xi_array(k, col, z)
    return replace(tset, t_values=ts, vertex_index=sectors, on_slit=slit)


def eyelet_points(fld: ModelField, r: float, ell: int, n: int = 256):
    """Sampled image of the boundary arc of sector ``ell`` in t-coordinate."""
    gon = periods(fld)
    k1 = fld.k + 1
    theta = fld.theta()
    a0 = (theta + TWO_PI * ell) / k1
    a1 = (theta + TWO_PI * (ell + 1)) / k1
    alphas = np.linspace(a0 + 1e-6, a1 - 1e-6, n)
    return gon.vertices[ell] + xi_series(fld, r * np.exp(1j * alphas))


def eyelet_diameter(fld: ModelField, r: float, ell: int, n: int = 256) -> float:
    pts = eyelet_points(fld, r, ell, n)
    return float(np.abs(pts[:, None] - pts[None, :]).max())


def eyelet_reference_radius(k: int, r: float) -> float:
    """Limit radius 1/(k r^k) of the eyelets as eps -> 0.  An r whose
    r^{k+1} is not a finite positive float raises ``NewtonDivergence``, as
    in ``tangency_angles``."""
    _radius_power(k, r)
    return 1.0 / (k * float(r) ** k)


SELECTIONS = ("top-top", "bottom-bottom", "top-bottom", "bottom-top")


def double_tangency_residual(
    k: int,
    r: float,
    abs_eps,
    theta,
    pair,
    selection: str = "top-bottom",
):
    """Height mismatch Im(t_m - t_{m'}) of selected tangency points.

    ``selection`` picks which extreme tangency point of each eyelet is
    compared: ``top-top`` (or ``bottom-bottom``) vanishes on the straight
    symmetric ray, while the mixed selections vanish on the paired curves
    where a horizontal line is tangent to the two eyelets from opposite
    sides.

    ``theta`` may leave [0, 2*pi): vertex labels index by the normalised
    argument, so a pair defined near theta = 0 is translated across the
    seam to keep its geometric identity.

    ``abs_eps`` and ``theta`` may be arrays that broadcast; the result is
    then an array of their broadcast shape, computed in one pass, each
    element with the bits of its scalar call, and an error is raised for
    the first pair that fails, as a loop over the pairs would raise it.
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection {selection!r}")
    th = np.array(theta, dtype=float)
    ae = abs_eps
    eps_array = not np.isscalar(abs_eps)
    if eps_array:
        ae, th = (np.array(a, dtype=float) for a in np.broadcast_arrays(abs_eps, th))
        ae = ae.ravel()
    shape = th.shape
    th = th.ravel()
    if np.count_nonzero(np.isinf(th)):
        raise ValueError("theta must be finite")
    shift = np.zeros(th.shape, dtype=int)
    while np.count_nonzero(low := th < 0.0):
        th[low] += TWO_PI
        shift[low] -= 1
    while np.count_nonzero(high := th >= TWO_PI):
        th[high] -= TWO_PI
        shift[high] += 1
    try:
        res = _residuals(k, r, ae, th, shift, pair, selection)
    except (NewtonDivergence, RootLoss, ValueError):
        if th.size > 1:  # raise what the first failing pair raises alone
            for i in range(th.size):
                one = ae[i : i + 1] if eps_array else ae
                _residuals(k, r, one, th[i : i + 1], shift[i : i + 1], pair, selection)
        raise
    if shape or eps_array:
        return res.reshape(shape)
    return float(res[0])


def _residuals(k, r, abs_eps, th, shift, pair, selection):
    """``double_tangency_residual`` at angles ``th`` in [0, 2*pi), the pair
    labels moved by ``shift`` turns."""
    tset = tangency_times(tangency_angles(k, abs_eps * np.exp(1j * th), r))
    heights = tset.t_values.imag
    ends = []
    for extreme, label in zip(selection.split("-"), np.add.outer(pair, shift) % (k + 1)):
        pick, empty = (np.maximum, -np.inf) if extreme == "top" else (np.minimum, np.inf)
        on = tset.vertex_index == label[:, None]
        height = pick.reduce(heights, axis=-1, where=on, initial=empty)
        if np.count_nonzero(height == empty):
            raise RootLoss(f"eyelet {label[np.argmax(height == empty)]} carries no tangency point")
        ends.append(height)
    return ends[0] - ends[1]


def symmetric_pairs(k: int, j: int):
    """Vertex index pairs at equal height at the homoclinic angle theta_j."""
    theta = bifurcation_angles(k)[j]
    return is_homoclinic(ModelField(k, 1e-3 * cmath.exp(1j * theta)))[1]


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
    residual_calls: int = 0  # vectorised residual calls
    residual_evaluations: int = 0  # (|eps|, theta) points at which the residual was evaluated
    bracket_widenings: int = 0  # bracket scans repeated on a wider window

    def to_dict(self):
        return {
            "tag": self.tag.to_dict(),
            "samples": [[float(a), float(t)] for a, t in self.samples],
            "exponent": self.fitted_exponent,
        }


#: (spread, points) of the continuation's bracket stages: a sample's root is
#: sought on ``points`` points of [offset/spread, spread offset] around its
#: predicted offset, and a sample left without a sign change goes on to the
#: next, wider stage
_BRACKET_STAGES = ((1.1, 2), (3.0, 40), (6.0, 40), (15.0, 40))


def _log_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    n = max(2, int(round(per_decade * math.log10(hi / lo))) + 1)
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _bracket_root(fun, lo, hi, n=80):
    """First sign change of ``fun`` in each lane, on an n-point grid from
    ``lo`` to ``hi`` (1-D arrays, one entry a lane), all lanes evaluated in
    one call of ``fun`` on the (lanes, n) grid: arrays ``(x0, x1, f0, f1)``,
    with x0 = x1 at an exact zero and NaN in a lane without a bracket."""
    xs = np.linspace(lo, hi, n, axis=-1)
    vals = fun(xs)
    hits = (vals[:, :-1] == 0.0) | (vals[:, :-1] * vals[:, 1:] < 0)
    lanes = np.arange(len(xs))
    i = np.argmax(hits, axis=1)
    j = np.where(vals[lanes, i] == 0.0, i, i + 1)
    out = xs[lanes, i], xs[lanes, j], vals[lanes, i], vals[lanes, j]
    miss = ~hits.any(axis=1)
    for a in out:
        a[miss] = np.nan
    return out


def _brent_lanes(f, xpre, xcur, fpre, fcur):
    """Roots in the brackets [xpre, xcur] of 1-D arrays, f values fpre, fcur
    of opposite sign or fpre = 0, by Brent's method: every lane steps as
    scipy's ``brentq`` with xtol = rtol = 1e-15 and at most 100 steps.
    ``f(x, lanes)`` evaluates the unfinished lanes, ``lanes`` indexing the
    input arrays, in one call a step."""
    xtol = rtol = 1e-15
    roots = np.array(xpre, dtype=float)
    lanes = np.flatnonzero(np.asarray(fpre) != 0)
    xpre, xcur, fpre, fcur = (np.asarray(a, dtype=float)[lanes] for a in (xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(lanes.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            new = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
            xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
            spre, scur = (np.where(new, xcur - xpre, a) for a in (spre, scur))
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (
                np.where(swap, a, b) for a, b in ((xcur, xpre), (xblk, xcur), (xcur, xblk))
            )
            fpre, fcur, fblk = (
                np.where(swap, a, b) for a, b in ((fcur, fpre), (fblk, fcur), (fcur, fblk))
            )
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if np.count_nonzero(done):
                roots[lanes[done]] = xcur[done]
                live = ~done
                lanes, delta, sbis = lanes[live], delta[live], sbis[live]
                xpre, xcur, xblk, spre, scur = (a[live] for a in (xpre, xcur, xblk, spre, scur))
                fpre, fcur, fblk = (a[live] for a in (fpre, fcur, fblk))
            if not lanes.size:
                return roots
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(  # secant, or inverse quadratic interpolation
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            take = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            take &= 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
            spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, lanes)
    raise RootLoss("Brent iteration did not converge in 100 steps")


def fit_exponent(samples, theta_ref, drop_decades_above: float):
    """Least-squares slope of log|y| against log x for curve samples.

    Samples with |eps| above ``drop_decades_above`` are discarded to suppress
    higher-order terms.  Returns None when fewer than three usable samples
    remain.
    """
    ae = samples[:, 0]
    th = samples[:, 1]
    x = ae * np.cos(th - theta_ref)
    y = ae * np.sin(th - theta_ref)
    mask = (np.abs(y) > 0) & (x > 0) & (ae <= drop_decades_above)
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

    ``side = 0`` is the straight homoclinic ray.  A paired curve is the root
    in theta of the double-tangency residual at each |eps| sample, found by
    predictor and corrector.  The curve is calibrated once, at the largest
    |eps|: an 80-point scan from theta_j fixes the selection and brackets
    that sample's root, and regula falsi on the bracket estimates the
    constant C of the asymptotic offset C |eps|^{k/(k+1)}.  Every other
    sample is then bracketed in one residual call, on the two points
    theta_j + side [offset/1.1, 1.1 offset] around its predicted offset;
    the samples left without a sign change are scanned on 40 points of
    the windows [offset/s, s offset] for s = 3, 6 and 15, in turn.  One
    lane Brent refines every root at once, the calibration sample
    included.  ``RootLoss`` names the largest |eps| left without a
    bracket.  The scalar point-by-point continuation, one bracket scan and
    one Brent run per sample, is kept only as the test oracle
    ``_trace_curve_reference`` in ``tests/test_disk.py``.
    """
    theta_j = bifurcation_angles(k)[tag.j]
    grid = _log_grid(decades[0], decades[1], per_decade)
    if tag.side == 0:
        samples = np.column_stack([grid, np.full_like(grid, theta_j)])
        return BifurcationCurve(tag=tag, samples=samples, fitted_exponent=None)

    pair = tuple(tag.pair)
    abs_eps = grid[::-1]  # lane 0, the largest |eps|, calibrates the rest
    calls = evaluations = widenings = 0

    def residual(ae, theta, selection):
        nonlocal calls, evaluations
        vals = double_tangency_residual(k, r, ae, theta, pair, selection=selection)
        calls += 1
        evaluations += np.size(vals)
        return vals

    window0 = 0.45 * math.pi / k
    selections = ("top-bottom", "bottom-top")
    for selection, span in itertools.product(selections, (window0, 2.0 * window0)):
        widenings += span > window0
        lo = theta_j + (1e-7 if tag.side > 0 else -span)
        hi = theta_j + (span if tag.side > 0 else -1e-7)
        br = _bracket_root(lambda th: residual(abs_eps[0], th, selection), [lo], [hi])
        if not np.isnan(br[0][0]):
            break
    else:
        raise RootLoss(f"no initial bracket for tag {tag}")

    x0, x1, f0, f1 = (a[0] for a in br)
    guess = x0 if f0 == 0.0 else x0 - f0 * (x1 - x0) / (f1 - f0)  # regula falsi
    power = k / (k + 1.0)
    offset = abs(guess - theta_j) / abs_eps[0] ** power * abs_eps**power
    brackets = np.full((4, abs_eps.size), np.nan)
    brackets[:, 0] = x0, x1, f0, f1
    lanes = np.arange(1, abs_eps.size)  # the samples still without a bracket
    for stage, (spread, points) in enumerate(_BRACKET_STAGES):
        widenings += lanes.size if stage else 0
        near = theta_j + tag.side * offset[lanes] / spread
        far = theta_j + tag.side * offset[lanes] * spread
        brackets[:, lanes] = _bracket_root(
            lambda th: residual(abs_eps[lanes, None], th, selection),
            np.minimum(near, far),
            np.maximum(near, far),
            n=points,
        )
        lanes = lanes[np.isnan(brackets[0, lanes])]
        if not lanes.size:
            break
    else:
        raise RootLoss(f"continuation lost the root of tag {tag} at |eps|={abs_eps[lanes[0]]:g}")
    thetas = _brent_lanes(lambda th, lanes: residual(abs_eps[lanes], th, selection), *brackets)
    samples = np.column_stack([grid, thetas[::-1]])
    exponent = fit_exponent(samples, theta_j, drop_decades_above=decades[1] / 10.0)
    return BifurcationCurve(
        tag=tag,
        samples=samples,
        fitted_exponent=exponent,
        residual_calls=calls,
        residual_evaluations=evaluations,
        bracket_widenings=widenings,
    )


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


#: relative margin of the band certificate of ``separating_regions``: a tip
#: fits its band, and a sample clears a threshold of the band rule, only by
#: more than this fraction of the band's height
BAND_MARGIN = 1e-6


def _band_labels(fld: ModelField, tset: TangencySet, zs, inward, samples_per_arc: int):
    """The labels of the samples ``zs`` read off the period-gon's bands, or
    None where the certificate of ``separating_regions`` fails.

    ``tset`` holds the 2k tangencies sorted by angle; the samples of arc
    n, between tips n and n+1 (mod 2k), are the n-th run of
    ``samples_per_arc`` in ``zs``, and ``inward`` gives their directions.
    """
    k = fld.k
    n_tips = 2 * k
    try:
        tset = tangency_times(tset)
        y = xi_array(k, fld.epsilon, zs).imag
    except ValueError:  # eps = 0, or r within rounding of s: left to the orbits
        return None
    v = periods(fld).vertices
    t, ell = tset.t_values, tset.vertex_index
    depth = (t - v[ell]).imag
    down = depth < 0
    if np.count_nonzero(down == np.roll(down, -1)):  # consecutive tips alternate
        return None
    # the band of a tip runs from its vertex to the next vertex below it
    # (a hanging tip) or above it (a standing one); its partner is the tip
    # at that vertex that points the other way
    by_height = np.argsort(v.imag)
    rank = np.empty(k + 1, dtype=int)
    rank[by_height] = np.arange(k + 1)
    other_rank = rank[ell] + np.where(down, -1, 1)
    if np.count_nonzero((other_rank < 0) | (other_rank > k)):  # a band is missing
        return None
    other = by_height[other_rank]
    slot = np.full(2 * (k + 1), -1)
    slot[2 * ell + down] = np.arange(n_tips)
    if np.count_nonzero(slot >= 0) != n_tips:  # two tips share a slot
        return None
    partner = slot[2 * other + ~down]
    height = np.abs(v.imag[ell] - v.imag[other])
    margin = BAND_MARGIN * height
    if not np.all(np.abs(depth) < height - margin):  # every tip fits its band
        return None
    # the tip of a sample is the end of its arc whose depth has its sign
    n = np.repeat(np.arange(n_tips), samples_per_arc)
    n1 = (n + 1) % n_tips
    m = np.where(down[n] == (y < 0), n, n1)
    p = partner[m]
    reach = np.abs(y) - (height[m] - np.abs(depth[p]))
    side = (t[p] - t[m]).real
    if not np.all(np.abs(reach) > margin[m]):
        return None
    reaches = reach > 0
    if not np.all(np.abs(side[reaches]) > margin[m][reaches]):
        return None
    separating = reaches & ((side > 0) == inward)
    return np.where(separating, "separating", np.where(inward, "incoming", "outgoing")).tolist()


def _marched_labels(fld: ModelField, r: float, alphas, zs, inward, samples_per_arc: int):
    """The labels of the samples ``zs``, at angles ``alphas``, from their
    landing orbits: one
    ``landing_lanes`` call on the end samples of every arc, and one on the
    other samples of each arc with a separating end."""
    boundary = r * (1.0 - 1e-12)
    starts = np.array([z * (1.0 - 1e-9) for z in zs])
    sign = np.where(inward, 1, -1)
    grid = np.arange(len(zs)).reshape(-1, samples_per_arc)
    end_samples = grid[:, [0, -1]]
    stops = [Termination.LANDED] * len(zs)

    def run(samples):
        for i, stop in zip(samples, landing_lanes(fld, starts[samples], sign[samples], boundary)[1]):
            stops[i] = stop

    run(np.unique(end_samples))
    landed = np.array([stop is Termination.LANDED for stop in stops])
    rest = grid[~landed[end_samples].all(axis=1), 1:-1].ravel()
    if rest.size:
        run(rest)
    for alpha, stop in zip(alphas, stops):
        if stop not in (Termination.LANDED, Termination.HIT_BOUNDARY):
            raise AtBifurcation(
                f"the orbit of the sample at alpha = {alpha % TWO_PI:.12g} stopped at "
                f"{stop.value}, neither landed nor crossed the disk"
            )
    return [
        ("incoming" if w else "outgoing") if stop is Termination.LANDED else "separating"
        for w, stop in zip(inward, stops)
    ]


def separating_regions(fld: ModelField, r: float, samples_per_arc: int = 24) -> list[BoundaryArc]:
    """Classify the boundary circle into incoming/outgoing/separating arcs.

    The 2k exact tangency angles cut the circle into arcs on which the field
    points strictly inward or outward; each arc is subsampled, and a sample
    is labelled by the orbit through it inside the disk.  Entering orbits
    that land label their samples ``incoming``, exiting orbits born at a
    singularity label theirs ``outgoing`` and orbits that cross the disk
    label ``separating``.  Arc ends are the midpoints between samples of
    different labels.

    In t = int dz/f every orbit is a horizontal line, running to the right
    in forward time, and each alpha-omega zone is a horizontal strip.  Each
    tangency point (a tip) z_m has the position t_m (``tangency_times``),
    vertex v[l_m] of the period-gon and depth d_m = Im xi(z_m): it hangs
    down from its vertex if d_m < 0 and stands up from it otherwise.  The
    band of a tip runs from its vertex to the next vertex height below it
    (hanging) or above it (standing), of height H_m, and its partner m' is
    the tip at that other vertex pointing the other way.  A sample z on the
    arc between tips n and n+1 belongs to the one whose depth has the sign
    of Im xi(z), m, and is ``separating`` if and only if it reaches the
    partner's bump, |Im xi(z)| >= H_m - |d_m'|, and the partner lies on its
    side: Re t_m' > Re t_m for an inward sample, which runs right, and <
    for an outward one, which runs left in reversed time.

    Why it holds where it is certified.  Each arc between two consecutive
    crossings of the circle by the separatrices through infinity, the
    zeros of Im xi, holds exactly one tip, so every eyelet bump is
    horizontally convex.  The bands between consecutive vertex heights
    split the heights among the k zones.  When every tip fits its band, the
    only bumps a line in a band can meet are the two at that band's edge
    vertices.  This holds in the gon and after each wrap round a strip,
    because the other corner images of a strip lie a whole side-height
    away.  Near a homoclinic ray, or with r close to |eps|^{1/(k+1)}, a
    band is thinner than the eyelets: the separatrices then wrap round a
    strip and come back near infinity, and the rule fails.  So the rule
    runs only under its certificate: consecutive tips alternate in the sign
    of their depth, each (vertex, up or down) slot holds one tip, every
    tip's band exists, every tip fits its band, |d_m| < H_m, and no sample
    sits within BAND_MARGIN H_m of a threshold of the rule, in height or
    in the side test.  A certified call runs no orbit.

    Elsewhere the orbits run (``landing_lanes``).  One call runs the first
    and the last sample of every arc.  Where both land, every sample of the
    arc takes the label of its own direction; a second call runs the other
    samples of each arc with a separating end.  Why the ends decide: the
    outside of the disk meets a zone as two bumps, one at each of the
    zone's two ends at infinity, and an entering orbit (an exiting one, in
    reversed time) separates only if it meets the zone's other bump.  For
    convex bumps the heights at which it does form one interval, and that
    interval ends at the arc's tangency point.  So the separating samples
    of an arc form a run at each end of it, never a run in the middle.  An
    orbit that crosses the disk stops at ``hit_boundary``.  Any other stop
    short of a landing (``time_cap``, ``step_budget``, ``escaped``) leaves
    the sample undecided and raises ``AtBifurcation``, naming its angle and
    the stop.  Both paths give the arcs of running every sample.

    ``samples_per_arc`` below 1 raises ``ValueError``.
    """
    if samples_per_arc < 1:
        raise ValueError(f"samples_per_arc must be at least 1, got {samples_per_arc}")
    tset = tangency_angles(fld.k, fld.epsilon, r)
    cuts = tset.angles
    ends = np.append(cuts[1:], cuts[0] + TWO_PI)
    alphas = [np.linspace(a0, a1, samples_per_arc + 2)[1:-1] for a0, a1 in zip(cuts, ends)]
    flat = np.concatenate(alphas).tolist()
    zs = [r * cmath.exp(1j * a) for a in flat]
    inward = [(fld.rhs(z) * z.conjugate()).real < 0 for z in zs]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a band that leaves the float range fails the certificate
        labels = _band_labels(fld, tset, np.array(zs), np.array(inward), samples_per_arc)
    if labels is None:
        labels = _marched_labels(fld, r, flat, zs, inward, samples_per_arc)
    arcs = []
    for n, (a0, a1, arc_alphas) in enumerate(zip(cuts, ends, alphas)):
        arc_labels = labels[n * samples_per_arc : (n + 1) * samples_per_arc]
        start = a0
        cur = arc_labels[0]
        for a_prev, a_next, lab in zip(arc_alphas[:-1], arc_alphas[1:], arc_labels[1:]):
            if lab != cur:
                mid = 0.5 * (a_prev + a_next)
                arcs.append(BoundaryArc(start % TWO_PI, mid % TWO_PI, cur))
                start, cur = mid, lab
        arcs.append(BoundaryArc(start % TWO_PI, a1 % TWO_PI, cur))
    return arcs
