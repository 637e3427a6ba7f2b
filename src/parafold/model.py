"""Geometry and dynamics of the model field z' = z^{k+1} - eps on the sphere.

The module computes the exact combinatorial-geometric data (singularities,
periods, period-gon, homoclinic angles, zig-zag invariant) and follows
trajectories and separatrices, so every combinatorial answer can be
cross-checked dynamically.  The period-gon of eps is that of eps = 1,
built once per k (``_unit_gon``), turned and scaled (``_gon_vertices``).
The Douady-Sentenac invariant, trunk and attachment, is read off the
period-gon alone; its integrated counterpart ``ds_invariant_integrated``
is the oracle.

One kernel steps orbits, ``_march``.  It marches an orbit in the
rectifying coordinate t = int dz/f, where every orbit is a horizontal
line: a step solves t(z_n) = t(z) + dir tau by Newton, with steps set by
the geometry of the roots rather than by an error estimate.  It tests the
stops in the order of ``Termination`` (landed, hit_boundary, escaped,
time_cap, step_budget), and stops an orbit as soon as it enters the
certified disk |z - z_l| <= rho_l of a root z_l attracting in its
direction (``lane_radii``).  rho_l is the larger of two certified radii:
the linearization disk of ``landing_radii``, which shrinks with |Re
lambda_l|/|lambda_l| near the homoclinic rays, and the chart disk of
``chart_radius``, rho_k(c) d with d the closest root spacing, which does
not (0.32 d at k = 1, 0.13 d at k = 8).  z lands at the root z_l nearest
in angle if |z - z_l| <= radii[l]: each radius is below half the closest
root spacing, so no other disk can hold z.

Callers that need only where orbits land (``ds_invariant_integrated``, and
``disk.separating_regions`` where its band certificate fails) call
``landing_lanes``, which keeps no points.  A drawn orbit (``_drawn``)
keeps the points of its steps, with ``IntegratorControls.sag`` the most an
arc may bend away from its chord, and ends on the exact orbit in the
Koenigs chart of its landing root (``_landing_segments``), down to half
the capture radius 1e-6 min(1, |eps|^{1/(k+1)}) (``capture_radius``):
``integrate`` draws from each of its starts, and ``separatrices`` (and so
``render.portrait_svg``) from the ends of far segments on the exact
curves in xi near infinity.  The orbits of one call land in one chart
solve: one vectorised Newton solve, started from a series inverse of its
chart that is built once per k on first use (``_far_start``,
``_landing_start``).  Every entry point reads ``time_cap`` in the field's
own time unit |eps|^{-k/(k+1)} (``_field_controls``).
``ds_invariant_integrated`` reads the trunk off where the 2k separatrices
of the field of eps/|eps| land, in one ``landing_lanes`` call.
``integrate`` and ``landing_lanes`` refuse, with ``ValueError``, a
direction other than +1 or -1 and a start point that is not finite or
lies within the capture radius.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .series import TruncatedSeries

TWO_PI = 2.0 * math.pi


class DegenerateParameter(ValueError):
    """eps = 0: the singular point is multiple, geometric queries undefined."""


class AtBifurcation(RuntimeError):
    """The invariant is requested at (or numerically on) a homoclinic value."""


class StepSizeUnderflow(RuntimeError):
    """A marching step fell below its floor or met a field that overflows a
    float, or a chart solve did not converge."""


class PathThroughSingularity(ValueError):
    """The segment [0, z] of ``rectify`` passes within 1e-6 |eps|^{1/(k+1)}
    of a singularity."""


class SeriesOutOfDomain(ValueError):
    """Series branch of the rectifying coordinate evaluated inside its cut,
    or a quantity of it (xi, the period-gon) that overflows a float."""


@dataclass(frozen=True)
class ModelField:
    """The vector field z' = z^{k+1} - eps."""

    k: int
    epsilon: complex

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not cmath.isfinite(self.epsilon):
            raise ValueError(f"eps must be finite, got {self.epsilon}")

    def rhs(self, z):
        return z ** (self.k + 1) - self.epsilon

    def d_rhs(self, z):
        return (self.k + 1) * z**self.k

    @property
    def scale(self):
        """|eps|^{1/(k+1)}: the radius of the singular-gon."""
        return abs(self.epsilon) ** (1.0 / (self.k + 1))

    def theta(self):
        """arg(eps) normalised to [0, 2*pi)."""
        return cmath.phase(self.epsilon) % TWO_PI


def singularities(fld: ModelField) -> np.ndarray:
    """The k+1 roots of z^{k+1} = eps, counterclockwise from the principal one."""
    if fld.epsilon == 0:
        raise DegenerateParameter("eps = 0")
    k1 = fld.k + 1
    ang = (fld.theta() + TWO_PI * np.arange(k1)) / k1
    return fld.scale * np.exp(1j * ang)


def bifurcation_angles(k: int) -> np.ndarray:
    """The 2k homoclinic angles theta_j in [0, 2*pi)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    j = np.arange(2 * k)
    if k % 2 == 1:
        return j * math.pi / k
    return math.pi / (2 * k) + j * math.pi / k


@dataclass(frozen=True)
class PeriodGon:
    """Periods of the singular points and the closed polygon they span.

    ``vertices[l]`` is the vertex between the sides of singularities l and
    l+1 (half-integer index l+1/2 in the usual convention); consecutive
    differences along sides are the negated periods.  The singularities,
    eigenvalues and periods are computed when read.
    """

    k: int
    epsilon: complex
    vertices: np.ndarray

    @property
    def singularities(self) -> np.ndarray:
        return singularities(ModelField(self.k, self.epsilon))

    @property
    def eigenvalues(self) -> np.ndarray:
        return ModelField(self.k, self.epsilon).d_rhs(self.singularities)

    @property
    def periods(self) -> np.ndarray:
        return 2j * math.pi / self.eigenvalues

    @property
    def scale(self):
        return float(np.abs(self.vertices).max())

    def side(self, ell):
        """Endpoints (start, end) of the side carrying singularity ``ell``."""
        k1 = self.k + 1
        return self.vertices[(ell - 1) % k1], self.vertices[ell % k1]


@functools.cache
def _unit_gon(k: int) -> np.ndarray:
    """Vertices of the period-gon of eps = 1 (read-only): minus the partial
    sums of the periods 2 pi i/lambda_l, centred."""
    fld = ModelField(k, 1.0)
    partial = -np.cumsum(2j * math.pi / fld.d_rhs(singularities(fld)))
    vertices = partial - partial.mean()
    vertices.flags.writeable = False
    return vertices


def _gon_vertices(k: int, eps, index=slice(None)):
    """The vertices ``index`` of the period-gon of ``eps``, which broadcasts
    against them.

    The roots of eps are those of eps = 1 turned by arg(eps)/(k+1) and
    scaled by s = |eps|^{1/(k+1)}, so each period 2 pi i/((k+1) z_l^k), and
    with them the gon (``_unit_gon``), is turned by -k arg(eps)/(k+1),
    arg(eps) in [0, 2*pi), and scaled by s^{-k}.  eps = 0 raises
    ``DegenerateParameter``, and a gon that overflows a float
    ``SeriesOutOfDomain``.
    """
    abs_eps = np.abs(eps)
    if np.count_nonzero(abs_eps == 0):
        raise DegenerateParameter("eps = 0")
    k1 = k + 1
    with np.errstate(over="ignore", invalid="ignore"):
        turn = abs_eps ** (-k / k1) * np.exp(-1j * k / k1 * (np.angle(eps) % TWO_PI))
        vertices = _unit_gon(k)[index] * turn
    if np.count_nonzero(~np.isfinite(vertices)):
        raise SeriesOutOfDomain(
            f"the period-gon overflows a float at k = {k}, |eps| = {np.min(abs_eps):g}"
        )
    return vertices


def periods(fld: ModelField) -> PeriodGon:
    """The centred period-gon of the model field (``_gon_vertices``)."""
    return PeriodGon(k=fld.k, epsilon=fld.epsilon, vertices=_gon_vertices(fld.k, fld.epsilon))


def _unit_field(fld: ModelField) -> ModelField:
    """The field of eps/|eps|.  z = s w, s = |eps|^{1/(k+1)}, maps the field
    to s^k (w^{k+1} - eps/|eps|): orbits to orbits, each root to the root
    of its index, and the gon of eps to s^k times the gon of eps/|eps|."""
    if fld.epsilon == 0:
        raise DegenerateParameter("eps = 0")
    return ModelField(fld.k, fld.epsilon / abs(fld.epsilon))


@functools.cache
def _unit_basis(k: int) -> tuple:
    """The vertices of the eps = 1 gon (``_unit_gon``) as Python complex
    numbers, divided by their largest modulus."""
    v = _unit_gon(k).tolist()
    scale = max(map(abs, v))
    return tuple(z / scale for z in v)


def _defect(fld: ModelField):
    """``homoclinic_defect`` of ``fld`` and the normalised vertices it
    reads: those of ``_unit_basis`` turned by -k arg(eps)/(k+1), in Python
    scalars (the gon of eps/|eps| over its largest modulus)."""
    if fld.epsilon == 0:
        raise DegenerateParameter("eps = 0")
    turn = cmath.exp(-1j * fld.k / (fld.k + 1) * fld.theta())
    v = [z * turn for z in _unit_basis(fld.k)]
    h = sorted(z.imag for z in v)
    best = min(b - a for a, b in zip(h, h[1:]))
    if fld.k == 1:
        best = min(best, min(abs(z.real) for z in v))
    return best, v


def homoclinic_defect(fld: ModelField) -> float:
    """Distance (on normalised heights) from the vertical-symmetry locus.

    Symmetry of the period-gon about the imaginary axis is the homoclinic
    criterion: the defect is the smallest gap between two sorted vertex
    heights.  For k = 1 the symmetric position with both vertices on the
    axis has no equal-height pair, so the on-axis defect is included
    there.  The heights are those of the eps = 1 gon, cached per k and
    turned by -k arg(eps)/(k+1) (``_defect``), so the defect does not
    depend on |eps|.
    """
    return _defect(fld)[0]


def is_homoclinic(fld: ModelField, tol: float = 1e-9):
    """Whether arg(eps) sits on a homoclinic ray, with witness vertex pairs:
    ``homoclinic_defect`` at most ``tol``, read off the cached eps = 1 gon
    (``_defect``) as ``ds_invariant`` reads it."""
    defect, v = _defect(fld)
    if not defect <= tol:
        return False, []
    n, h = fld.k + 1, [z.imag for z in v]
    return True, [(i, j) for i in range(n) for j in range(i + 1, n) if abs(h[i] - h[j]) <= tol]


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------


class Termination(str, Enum):
    """Why an orbit stopped, in the order ``_march`` tests the stops."""

    LANDED = "landed"
    HIT_BOUNDARY = "hit_boundary"
    ESCAPED = "escaped"
    TIME_CAP = "time_cap"
    STEP_BUDGET = "step_budget"


@dataclass(frozen=True)
class IntegratorControls:
    """The stops and the drawing bound of ``integrate``, ``separatrices``
    and ``landing_lanes``.

    ``sag`` is the most an arc may bend away from the chord between two
    kept points, or None for the geometric steps of ``_march`` alone.
    ``time_cap`` is in the field's own time unit (``_field_controls``), and
    ``max_steps`` counts the attempts of ``_march``, one budget per orbit.
    """

    sag: float | None = None
    boundary_radius: float | None = None  # e.g. the disk radius r, if restricted
    time_cap: float = 1e4
    max_steps: int = 200_000


def _field_controls(fld: ModelField, controls: IntegratorControls | None) -> IntegratorControls:
    """``controls`` (the defaults if None) with the time cap taken from the
    field's own unit to times of z: multiplied by s^{-k}, s = |eps|^{1/(k+1)},
    infinite where that overflows.  z = s w maps the field to s^k (w^{k+1}
    - eps/|eps|), so z at time s^{-k} tau is s w(tau), and the cap, like
    the steps of ``_march``, is the same in w at every |eps|."""
    ctl = controls or IntegratorControls()
    return replace(ctl, time_cap=ctl.time_cap / fld.scale**fld.k)


def capture_radius(fld: ModelField) -> float:
    """1e-6 min(1, |eps|^{1/(k+1)}): an orbit this close to a root has landed."""
    return 1e-6 * min(1.0, fld.scale)


def escape_radius(fld: ModelField) -> float:
    """10 |eps|^{1/(k+1)} + 10: an orbit this far out has escaped."""
    return 10.0 * fld.scale + 10.0


@dataclass
class Trajectory:
    """An orbit and why it stopped.

    ``n_accepted`` counts the steps ``_march`` kept, one point each (the
    chart points of the landing segment, and the far points of a
    separatrix, come on top), ``n_rejected`` its halved attempts, and
    ``h_min_seen`` is the smallest time tau of a kept step.
    """

    points: np.ndarray
    times: np.ndarray
    termination: Termination
    landed_index: int | None = None
    orientation: str | None = None
    n_accepted: int = 0
    n_rejected: int = 0
    h_min_seen: float = math.inf

    def to_dict(self):
        term = self.termination.value
        if self.termination is Termination.LANDED:
            term = f"landed:{self.landed_index}"
        return {
            "points": np.column_stack((self.points.real, self.points.imag)).tolist(),
            "termination": term,
        }


def _starts(fld: ModelField, z0, direction):
    """The start points ``z0`` as a 1-D array and ``direction`` broadcast to
    it.  ``ValueError`` refuses a direction other than +1 or -1, and a start
    point that is not finite or lies within the capture radius of a
    singular point."""
    z = np.asarray(z0, dtype=complex).reshape(-1)
    direction = np.broadcast_to(direction, z.shape)
    if not np.isin(direction, (1, -1)).all():
        raise ValueError("direction must be +1 or -1")
    bad = ~np.isfinite(z)
    if np.count_nonzero(bad):
        raise ValueError(f"z0 = {complex(z[bad][0])} is not finite")
    near = np.abs(singularities(fld) - z[:, None]).min(axis=1) < capture_radius(fld)
    if np.count_nonzero(near):
        raise ValueError(f"z0 = {complex(z[near][0])} lies within the capture radius of a root")
    return z, direction


def integrate(fld: ModelField, z0, direction=1, controls: IntegratorControls | None = None):
    """The orbits of the points ``z0`` under z' = z^{k+1} - eps until a stop
    fires: one ``Trajectory`` for a scalar z0, a list of them, one per
    point, for an array (``_drawn``).

    ``direction`` is +1 or -1 per point, or one value for all; -1 follows
    the orbit in reversed time.  Times are the (positive, increasing) time
    along the orbit from 0.  ``controls.time_cap`` is in the field's own
    time unit (``_field_controls``).
    """
    z, direction = _starts(fld, z0, direction)
    starts = zip(z.tolist(), [0.0] * len(z), direction.tolist())
    drawn = _drawn(fld, starts, _field_controls(fld, controls))
    return drawn[0] if np.ndim(z0) == 0 else drawn


def landing_radii(fld: ModelField) -> np.ndarray:
    """Radii rho_l of the certified landing disks around the singular points.

    With lambda_l = (k+1) z_l^k and s = |eps|^{1/(k+1)},
    rho_l = 0.99 (s/k) min(1, (2/e) |Re lambda_l| / |lambda_l|).  Writing
    f(z_l + w) = lambda_l w + R(w), the bound C(k+1, j) <= C(k+1, 2) C(k-1, j-2)
    gives |R(w)| <= C(k+1, 2) s^{k-1} |w|^2 (1 + |w|/s)^{k-1}, which is below
    |Re lambda_l| |w| for 0 < |w| <= rho_l.  So d|w|^2/dt = 2 Re(conj(w) f)
    has the sign of Re lambda_l on the punctured disk: an orbit that enters
    the disk of a root attracting in its direction stays in it and lands.
    """
    sing = singularities(fld)
    lam = fld.d_rhs(sing)
    ratio = np.minimum(1.0, (2.0 / math.e) * np.abs(lam.real) / np.abs(lam))
    return 0.99 * (fld.scale / fld.k) * ratio


# the linearizing chart traps orbits in |z - z_l| < c d with c = CHART_C, or
# with the largest multiple of 1/CHART_GRID below the room a boundary circle
# leaves (chart_radius)
CHART_C, CHART_GRID = 0.9, 20


def _roots_of_unity(k: int) -> np.ndarray:
    """zeta^j for j = 1..k, zeta = e^{2 pi i/(k+1)}."""
    return np.exp(2j * math.pi * np.arange(1, k + 1) / (k + 1))


def _chart_log(k: int, v):
    """log g(v), with g(v) = v prod_{j=1..k} (1 - v/(zeta^j - 1))^{zeta^j}
    the normalised Koenigs chart: u_l(z_l (1 + v)) = z_l g(v) at every root
    z_l (``chart_radius``).  Each log is principal, so the imaginary part
    is log g only up to a multiple of 2 pi; every factor is analytic for
    |v| < |zeta - 1| = d/s."""
    out = np.log(v)
    for q in _roots_of_unity(k):
        out += q * np.log1p(v / (1.0 - q))
    return out


def _chart_log_modulus(k: int, radius: float):
    """log |g| (``_chart_log``) on the upper half of the circle |v| =
    radius, and a bound on how far log |g| strays between the samples:
    ``(values, margin)``.  |g(conj v)| = |g(v)|, so the half circle covers
    the circle.  d/dphi log |g(radius e^{i phi})| is at most |v g'/g| <= 1 +
    sum_j radius / (|zeta^j - 1| - radius) =: L, and every angle lies
    within pi/(2n) of one of the n + 1 samples, with n = ceil(L pi / 0.02):
    margin L pi/(2n) <= 0.01.
    """
    lip = 1.0 + float(np.sum(radius / (np.abs(_roots_of_unity(k) - 1.0) - radius)))
    n = math.ceil(lip * math.pi / 0.02)
    v = radius * np.exp(1j * np.linspace(0.0, math.pi, n + 1))
    return _chart_log(k, v).real, lip * math.pi / (2 * n)


@functools.cache
def _chart_ratio(k: int, step: int) -> float:
    """``chart_radius`` at c = step / CHART_GRID: bisection in the radius,
    12 halvings, between the certified bounds of ``_chart_log_modulus``."""
    delta = 2.0 * math.sin(math.pi / (k + 1))  # d/s
    values, margin = _chart_log_modulus(k, step / CHART_GRID * delta)
    floor = values.min() - margin - 1e-9  # 1e-9 covers the rounding of the sums
    lo, hi = 0.0, step / CHART_GRID * delta
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        values, margin = _chart_log_modulus(k, mid)
        if values.max() + margin + 1e-9 < floor:
            lo = mid
        else:
            hi = mid
    return lo / delta


def chart_radius(k: int, c: float) -> float:
    """rho_k(c)/d: the radius, over the closest root spacing d, of a disk
    around a root z_l on which every orbit attracted to z_l lands there.

    The Koenigs chart u_l(z) = w exp(sum_{m != l} (lambda_l/lambda_m)
    Log(1 - w/(z_m - z_l))), w = z - z_l, is analytic on |w| < d and obeys
    du_l/dt = lambda_l u_l, so |u_l| falls strictly along an orbit stepped
    towards an attracting z_l.  Let M = min |u_l| over |w| = c d.  An orbit
    that enters |w| <= rho with max |u_l| < M there cannot reach |w| = c d
    afterwards, and u_l vanishes only at w = 0 in that disk: it lands at
    z_l.  As lambda_l/lambda_m = z_m/z_l, u_l(z_l (1 + v)) = z_l g(v) with
    g of ``_chart_log_modulus``, so rho/d depends on k and c alone.  c is
    floored to a multiple of 1/CHART_GRID (0 below the first), and each
    value is computed once, on its first use, from sampled bounds with
    their Lipschitz margins, so it is certified.
    """
    step = math.floor(min(c, CHART_C) * CHART_GRID)
    return _chart_ratio(k, step) if step > 0 else 0.0


def lane_radii(fld: ModelField, direction: int, boundary_radius=None) -> np.ndarray:
    """The row of k+1 landing radii ``landing_lanes`` gives orbits stepped
    in ``direction``, +1 or -1.

    A root that attracts in the direction, i.e. direction * Re lambda_l < 0,
    gets max(``landing_radii``, ``chart_radius`` d); the others get none.
    With a ``boundary_radius`` R the disks stay inside that circle: the
    first is cut back to R - s and c to (R - s)/d.  No radius is below the
    capture radius, and each is below half the root spacing d.
    """
    d = 2.0 * fld.scale * math.sin(math.pi / (fld.k + 1))
    rho, c = landing_radii(fld), CHART_C
    if boundary_radius is not None:
        room = boundary_radius - fld.scale
        rho, c = np.minimum(rho, room), min(c, room / d)
    rho = np.maximum(rho, chart_radius(fld.k, c) * d)
    attracting = direction * fld.d_rhs(singularities(fld)).real < 0
    return np.maximum(np.where(attracting, rho, 0.0), capture_radius(fld))


# Gauss-Legendre rule on [0, 1], as (node, weight) pairs: the time along
# a chord of ``_march``
_GAUSS = (
    (0.019855071751231912, 0.05061426814518853),
    (0.10166676129318664, 0.11119051722668721),
    (0.2372337950418355, 0.15685332293894344),
    (0.4082826787521751, 0.18134189168918083),
    (0.5917173212478248, 0.18134189168918083),
    (0.7627662049581645, 0.15685332293894344),
    (0.8983332387068134, 0.11119051722668721),
    (0.9801449282487681, 0.05061426814518853),
)
# A marching step aims its chord at MARCH_ROOT times the distance to the
# nearest root, and at most MARCH_TURN over |f'/f| (the orbit turns by at
# most that angle); it accepts a chord up to MARCH_ROOT_MAX (< 1/2) times
# that distance.  Under a sag bound it aims the bend of its arc at
# MARCH_SAG times the bound, so that the bend at the far end of the step
# rarely rejects it.  Newton stops once a correction is below MARCH_TOL of
# the chord and gives up after MARCH_SWEEPS sweeps; a step halved below
# MARCH_FLOOR of its nominal time raises ``StepSizeUnderflow``.
MARCH_ROOT, MARCH_ROOT_MAX, MARCH_TURN, MARCH_SAG = 0.35, 0.45, 1.0, 0.8
MARCH_TOL, MARCH_SWEEPS, MARCH_FLOOR = 1e-6, 8, 1e-9


def _chord_newton(z, zn, h, k1, eps):
    """Newton from zn on Delta t(z -> zn) = h, with Delta t integrated
    along the chord by ``_GAUSS``: the solution, or None where it does not
    settle within MARCH_SWEEPS sweeps or the field overflows."""
    try:
        for _ in range(MARCH_SWEEPS):
            dz = zn - z
            acc = 0j
            for x, w in _GAUSS:
                acc += w / ((z + x * dz) ** k1 - eps)
            step = (dz * acc - h) * (zn**k1 - eps)
            zn -= step
            if abs(step) <= MARCH_TOL * abs(dz):
                return zn
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _march(fld, z0, direction, radii, ctl, path=None, t=0.0):
    """March the orbit of z0 in the rectifying coordinate t = int dz/f
    until a stop fires: ``(termination, landed_index, n_accepted,
    n_rejected, tau_min)``, with the kept steps, the halved attempts and
    the smallest kept step time.

    In t the orbit is the horizontal line t(z0) + direction tau, tau >= 0.
    A step of time tau solves Delta t(z -> z_n) = direction tau by Newton,
    z_n <- z_n - (Delta t - direction tau) f(z_n), from the fourth-order
    Taylor predictor of the orbit, with Delta t integrated along the chord
    [z, z_n] by the Gauss-Legendre rule ``_GAUSS``.  That is the time
    along the orbit when no root lies between the chord and the arc, which
    a chord of at most MARCH_ROOT_MAX < 1/2 times the distance from z to
    the nearest root ensures.  The nominal step aims the predicted chord
    at MARCH_ROOT times that distance and at most MARCH_TURN / |f'/f|, so
    the rule stays at rounding level at any k.  The arc bends at most
    |f'/f| |Delta z|^2 / 8 away from its chord, with |f'/f| the larger of
    its values at the two ends.  With ``ctl.sag`` the nominal chord is
    also at most sqrt(8 MARCH_SAG sag / |f'/f|), and a step is rejected
    where that bend exceeds sag.  With a ``ctl.boundary_radius`` R the
    chord is also at most about sqrt(R (R - |z|)), and a step is rejected
    where the arc could pass R between two points inside it.  A step whose
    solve does not settle within MARCH_SWEEPS sweeps, or whose chord is
    too long, is halved, and one halved below MARCH_FLOOR of its nominal
    time raises ``StepSizeUnderflow``; every attempt counts against
    ``ctl.max_steps``.  A point where f overflows a float, which no step
    can leave (from |z| about 2 at k = 1000), raises it too.  The orbit
    starts at time ``t`` and stops at ``ctl.time_cap``, in the unit of z,
    or once the time left is below MARCH_FLOOR of its next step; the point
    and the time of each kept step are appended to ``path = (points,
    times)`` when given.  The stops are tested at z0 and after each step,
    in the order of ``Termination``, with the landing rule of the module
    docstring on the row ``radii``.
    """
    k, k1 = fld.k, fld.k + 1
    eps = fld.epsilon
    sing = singularities(fld).tolist()
    arc, offset = TWO_PI / k1, fld.theta() / k1
    boundary, sag, time_cap = ctl.boundary_radius, ctl.sag, ctl.time_cap
    escape = escape_radius(fld)
    if path is not None:
        add_z, add_t = path[0].append, path[1].append
    z, n, n_acc, tau_min = complex(z0), 0, 0, math.inf
    while True:
        az = abs(z)
        ell = round((cmath.phase(z) - offset) / arc) % k1
        dist = abs(z - sing[ell])
        stop = None
        if dist <= radii[ell]:
            stop = Termination.LANDED
        elif boundary is not None and az >= boundary:
            stop = Termination.HIT_BOUNDARY
        elif az >= escape:
            stop = Termination.ESCAPED
        elif t >= time_cap:
            stop = Termination.TIME_CAP
        if stop is not None:
            landed = ell if stop is Termination.LANDED else None
            return stop, landed, n_acc, n - n_acc, tau_min
        try:
            zk = z**k
        except OverflowError:
            zk = math.inf
        fz = zk * z - eps
        turn = k1 * abs(zk) / abs(fz)  # |f'/f|
        chord = MARCH_ROOT * dist
        if turn * chord > MARCH_TURN:
            chord = MARCH_TURN / turn
        if boundary is not None:
            room = boundary - az
            bound = math.sqrt(room * (boundary if 8.0 > turn * boundary else 8.0 / turn))
            if bound < chord:
                chord = bound
        if sag is not None and turn * chord * chord > 8.0 * MARCH_SAG * sag:
            chord = math.sqrt(8.0 * MARCH_SAG * sag / turn)
        # the Taylor series of the orbit to h^4, h = direction tau: with
        # u = h f' and q = h f f''/f' = k h f/z, z_n - z = h f (1 + u/2 +
        # u (u + q)/6 + u (u^2 + 4 u q + (k-1) q^2/k)/24).  Taken at tau_0
        # = chord/|f|, u and q are at most about 1, while f' and f/z grow as
        # |z|^k and their cubes overflow a float at large k; at tau = r
        # tau_0 the series is h f (1 + r (c1 + r (c2 + r c3)))
        v = direction * fz
        unit = chord / abs(fz)
        if not unit > 0.0:
            raise StepSizeUnderflow(f"the field overflows a float at |z| = {az:g}, t={t:g}")
        u1 = unit * direction * k1 * zk
        q1 = unit * k * v / z if z else 0j
        c1, c2 = u1 / 2.0, u1 * (u1 + q1) / 6.0
        c3 = u1 * (u1 * (u1 + 4.0 * q1) + (k - 1) * q1 * q1 / k) / 24.0
        tau = unit / abs(1.0 + c1 + c2 + c3)  # aim the predicted chord
        if time_cap - t < tau:
            # a start an ulp short of the cap: no step settles in the rest
            if time_cap - t < MARCH_FLOOR * tau:
                return Termination.TIME_CAP, None, n_acc, n - n_acc, tau_min
            tau = time_cap - t
        nominal = tau
        while True:
            if n == ctl.max_steps:
                return Termination.STEP_BUDGET, None, n_acc, n - n_acc, tau_min
            n += 1
            r = tau / unit
            zn = z + tau * v * (1.0 + r * (c1 + r * (c2 + r * c3)))
            zn = _chord_newton(z, zn, tau * direction, k1, eps)
            if zn is not None and abs(zn - z) <= MARCH_ROOT_MAX * dist:
                azn = abs(zn)
                outside = boundary is None or azn >= boundary
                if outside and sag is None:
                    break
                wk = zn**k
                bend = max(turn, k1 * abs(wk) / abs(wk * zn - eps)) * abs(zn - z) ** 2 / 8.0
                if (sag is None or bend <= sag) and (outside or max(az, azn) + bend < boundary):
                    break
            tau *= 0.5
            if tau < MARCH_FLOOR * nominal:
                raise StepSizeUnderflow(
                    f"marching step {tau:g} below {MARCH_FLOOR:g} of its nominal "
                    f"{nominal:g} at t={t:g}"
                )
        z = zn
        t += tau
        n_acc += 1
        if tau < tau_min:
            tau_min = tau
        if path is not None:
            add_z(z)
            add_t(t)


def landing_lanes(
    fld: ModelField,
    z0,
    direction,
    boundary_radius: float | None = None,
) -> tuple[np.ndarray, list[Termination]]:
    """Where the orbits of the points ``z0`` land, one ``_march`` run each.

    ``direction`` is +1 or -1 per point, or one value for all.  Each orbit
    has the default ``IntegratorControls``: its own budget of 200 000
    attempts and a time cap of 1e4 in the field's own time unit
    (``_field_controls``).  An orbit stops as soon as it enters the
    certified disk (its row of ``lane_radii``) of a root that attracts in
    its direction.  A start at or outside ``boundary_radius`` stops at
    ``hit_boundary`` before any step.  Returns ``(index, stop)``: the
    landing index of each orbit or -1, and the list of the ``Termination``
    of each.
    """
    z0, direction = _starts(fld, z0, direction)
    ctl = _field_controls(fld, IntegratorControls(boundary_radius=boundary_radius))
    radii = {d: lane_radii(fld, d, boundary_radius).tolist() for d in (1, -1)}
    index, stops = np.full(len(z0), -1), []
    for i, (z, d) in enumerate(zip(z0.tolist(), direction.tolist())):
        stop, landed, *_ = _march(fld, z, d, radii[d], ctl)
        if landed is not None:
            index[i] = landed
        stops.append(stop)
    return index, stops


def _drawn(fld: ModelField, starts, ctl: IntegratorControls) -> list[Trajectory]:
    """The drawn orbits of ``starts``, ``(z, t, direction)`` each: one
    ``Trajectory`` per start, from z at time t, with the time cap of
    ``ctl`` in the unit of z.

    ``_march`` keeps the points of each orbit until it enters the landing
    disk (``lane_radii``) of a root that attracts in its direction.  One
    ``_landing_segments`` call then gives the rest of every orbit that
    did, in the Koenigs chart of its root, down to |u_l| = capture
    radius/2, so the orbit lands within the capture radius of the root.
    ``ctl.sag`` bounds the bend of every arc between two points, marched
    or charted.
    """
    radii = {d: lane_radii(fld, d, ctl.boundary_radius).tolist() for d in (1, -1)}
    out, entries = [], []
    for z, t, direction in starts:
        zs, ts = [z], [t]
        stop, landed, *counts = _march(fld, z, direction, radii[direction], ctl, (zs, ts), t)
        out.append(Trajectory(np.array(zs), np.array(ts), stop, landed, None, *counts))
        if stop is Termination.LANDED:
            entries.append((zs[-1], ts[-1], landed, direction))
    charted = [traj for traj in out if traj.termination is Termination.LANDED]
    landing = _landing_segments(fld, entries, ctl.time_cap, ctl.sag)
    for traj, (zs, ts, stop) in zip(charted, landing):
        traj.points = np.append(traj.points, zs)
        traj.times = np.append(traj.times, ts)
        traj.termination = stop
        if stop is not Termination.LANDED:
            traj.landed_index = None
    return out


def separatrix_directions(k: int) -> np.ndarray:
    """Asymptotic directions arg z = pi*j/k, alternately outgoing/incoming."""
    return np.arange(2 * k) * math.pi / k


# Point spacing of the chart segments, as chord-error bounds: far points
# at most a factor FAR_RATIO apart in |z| (the curve there is close to a
# ray), landing points at most LAND_TURN rad of rotation and a factor
# LAND_SHRINK in |u_l| apart (a log spiral in u_l).  A Newton solve makes
# one more sweep once every relative step is below NEWTON_TOL
# (convergence is quadratic, so after that sweep only rounding is left),
# and raises after NEWTON_MAX sweeps.  It starts from a series inverse of
# its chart, truncated at START_ORDER (``_far_start``,
# ``_landing_start``).
FAR_RATIO, LAND_TURN, LAND_SHRINK = 1.05, 0.25, 1.3
NEWTON_TOL, NEWTON_MAX, START_ORDER = 1e-9, 40, 40


def _newton(x, step, what):
    """x <- x - step(x) until one sweep after every |step| is below
    NEWTON_TOL |x|."""
    for _ in range(NEWTON_MAX):
        dx = step(x)
        x = x - dx
        if np.all(np.abs(dx) <= NEWTON_TOL * np.abs(x)):
            return x - step(x)
    raise StepSizeUnderflow(f"{what}: Newton did not converge in {NEWTON_MAX} sweeps")


@functools.cache
def _far_start(k: int) -> TruncatedSeries:
    """S_k(X), the series that inverts xi near infinity.

    With c^{k+1} = eps and y = c/z, xi = -(c^{-k}/k) y^k F(y^{k+1}),
    F(x) = sum_n k x^n / a_n, a_n = (n+1)(k+1) - 1.  Where the leading
    term z_g solves -1/(k z^k) = xi, the exact point is z_g / S_k(X) with X
    = eps / z_g^{k+1}, S_k(X) = (R(X)/X)^{1/(k+1)} and R the reversion of
    T(x) = x F(x)^{(k+1)/k}: raising y^k F = y_g^k to the power (k+1)/k
    gives T(y^{k+1}) = X.  Built on first use, to order START_ORDER.
    """
    n = np.arange(START_ORDER + 2)
    f = TruncatedSeries(k / ((n + 1) * (k + 1) - 1))
    t = (f.kth_root(k) ** (k + 1)).shift_up(1)
    return t.reversion().shift_down(1).kth_root(k + 1)


@functools.cache
def _landing_start(k: int) -> TruncatedSeries:
    """G_k(x), the series that inverts the normalised Koenigs chart g of
    ``_chart_log``: g(G_k(x)) = x.

    It is built in w = v/delta, delta = |zeta - 1|, where g(delta w)/delta
    = w exp(sum_n L_n w^n) with L_n = -(1/n) sum_j zeta^j (delta/(zeta^j -
    1))^n, whose terms stay below k/n since |zeta^j - 1| >= delta: its
    reversion H_k has coefficients of order one at any k, and G_k(x) =
    delta H_k(x/delta).  Built on first use, to order START_ORDER.
    """
    delta = 2.0 * math.sin(math.pi / (k + 1))
    q = _roots_of_unity(k)[:, None]
    n = np.arange(1, START_ORDER + 1)
    log_g = TruncatedSeries(np.r_[0.0, -(q * (delta / (q - 1.0)) ** n).sum(axis=0) / n])
    exp = TruncatedSeries(np.r_[1.0, 1.0 / np.cumprod(n)])
    return delta * exp.compose(log_g).shift_up(1).reversion().scale_argument(1.0 / delta)


def _far_ends(fld: ModelField, js, radii):
    """The rows of the separatrices ``js`` on the circles |z| = ``radii``,
    the launch circle at 0.995 times the escape radius and |z| = 1.5 s or
    the second alone: ``(ang, sign, tau)``, one row per separatrix.

    In xi (``xi_array``), which vanishes at infinity and advances by 1 per
    unit of time, separatrix j is the half-line sign * xi = tau > 0, sign
    its integration direction (-1 for even j), leaving infinity along arg z
    = pi j/k, the direction ``ang``.  Each row takes the real tau of sign *
    xi at its circles, on the direction of the row.  Where xi or the field
    overflows on a circle it raises ``SeriesOutOfDomain``.
    """
    k = fld.k
    js = np.asarray(js)
    ang = np.exp(1j * separatrix_directions(k)[js])[:, None]
    sign = np.where(js % 2 == 0, -1.0, 1.0)[:, None]
    ends = ang * radii
    with np.errstate(over="ignore", invalid="ignore"):
        tau = sign * xi_array(k, fld.epsilon, ends).real
        if not (np.isfinite(ends ** (k + 1)).all() and (tau > 0).all()):
            raise SeriesOutOfDomain(f"xi overflows on |z| = {max(radii):g} at k = {k}")
    return ang, sign, tau


def _far_points(fld: ModelField, ang, sign, tau):
    """The points sign * xi = tau of the rows of ``_far_ends``, one column
    per time of ``tau``.

    Newton z <- z - (xi(z) - sign tau) f(z) solves all points at once.  It
    starts from z_g / S_k(eps / z_g^{k+1}) (``_far_start``), with z_g the
    root of the leading term xi ~ -1/(k z^k) on the row's direction; from
    |z| = 1.5 s out |eps / z_g^{k+1}| <= 1.5^-(k+1), so the start is exact
    to rounding and the solve ends after its second sweep.
    """
    k, eps = fld.k, fld.epsilon
    target = sign * tau
    z = ang * (k * tau) ** (-1.0 / k)
    return _newton(
        z / _far_start(k)(eps / z ** (k + 1)),
        lambda z: (xi_array(k, eps, z) - target) * (z ** (k + 1) - eps),
        "far segment",
    )


def _far_segment(fld: ModelField, js, time_cap: float):
    """Points of the separatrices ``js`` on their exact curves, from the
    launch circle at 0.995 times the escape radius down to |z| = 1.5 s:
    ``(points, times)``, one row per separatrix.

    Each row runs from its tau at the launch circle to its tau at 1.5 s
    (``_far_ends``), on a shared geometric grid with a ratio of at most
    FAR_RATIO^k (|xi| ~ |z|^-k/k), solved by ``_far_points``.  A row whose
    time from the launch would pass ``time_cap`` ends at that time.
    """
    ang, sign, tau = _far_ends(fld, js, [0.995 * escape_radius(fld), 1.5 * fld.scale])
    tau[:, 1] = np.minimum(tau[:, 1], tau[:, 0] + time_cap)
    n = math.ceil(float(np.log(tau[:, 1] / tau[:, 0]).max()) / (fld.k * math.log(FAR_RATIO)))
    tau = tau[:, :1] * (tau[:, 1:] / tau[:, :1]) ** (np.arange(n + 1) / n)
    return _far_points(fld, ang, sign, tau), tau - tau[:, :1]


def _landing_segments(fld: ModelField, entries, time_cap: float, sag=None):
    """The chart points of orbits that entered the landing disk of their
    root: ``entries`` holds ``(z_e, t_e, l, direction)`` per orbit; returns
    per orbit ``(points, times, termination)`` after z_e.

    With v = z/z_l - 1 the chart of ``_chart_log`` is exact, log g(v) =
    log g(v_e) + lambda_l direction tau at time t_e + tau, so the points
    run to |u_l| = capture radius/2 (``LANDED``), or to ``time_cap``
    (``TIME_CAP``) if that comes first, on an even tau grid spaced by
    LAND_TURN and LAND_SHRINK.  Newton on log g, v <- v - (log g(v) -
    target) ((1 + v)^{k+1} - 1)/(k+1) with the residual's phase taken in
    (-pi, pi], solves every point of every orbit at once.  It starts from
    the series inverse of the chart, v = G_k(e^target) (``_landing_start``),
    which leaves the solve two or three sweeps at generic eps.  At a weak
    focus near a homoclinic ray the entry's |g(v_e)|/delta comes close to
    the radius of convergence of H_k (0.21 at k = 4, 0.18 at k = 10,
    against radii of 0.28 and 0.21), and the solve takes up to five.

    With a ``sag`` the arcs bend at most that far from their chords, by
    the bound of ``_march``: a chord whose bend max(|f'/f|) |Delta z|^2 / 8
    exceeds sag by a factor e is cut into ceil(sqrt e) equal times, and
    the new points are solved in one more sweep over all orbits, until no
    chord exceeds it.  The orbit can swing out from z_e towards the edge
    of the chart disk, where the grid's chords are longest.
    """
    if not entries:
        return []
    k, k1 = fld.k, fld.k + 1
    sing = singularities(fld)
    floor = math.log(0.5 * capture_radius(fld) / fld.scale)
    v_e = np.array([z / sing[l] - 1.0 for z, _, l, _ in entries])
    log_e = _chart_log(k, v_e)
    runs = []
    for (_, t_e, l, direction), start in zip(entries, log_e.tolist()):
        rate = direction * fld.d_rhs(sing[l])
        # a root that does not attract lands only within the capture radius
        span = max(0.0, (floor - start.real) / rate.real) if rate.real < 0 else 0.0
        stop = Termination.LANDED
        if t_e + span > time_cap:
            span, stop = time_cap - t_e, Termination.TIME_CAP
        n = 0
        if span > 0:
            dtau = math.log(LAND_SHRINK) / -rate.real
            if rate.imag:
                dtau = min(dtau, LAND_TURN / abs(rate.imag))
            n = math.ceil(span / dtau)
        runs.append((rate, span * np.arange(1, n + 1) / n, stop))
    rates = np.array([rate for rate, _, _ in runs])
    roots = sing[[l for _, _, l, _ in entries]]

    def solve(owner, tau):
        target = log_e[owner] + rates[owner] * tau

        def step(v):
            r = _chart_log(k, v) - target
            r.imag = (r.imag + math.pi) % TWO_PI - math.pi
            return r * np.expm1(k1 * np.log1p(v)) / k1

        v = _newton(_landing_start(k)(np.exp(target)), step, "landing segment")
        return roots[owner] * (1.0 + v)

    tau = np.concatenate([tau for _, tau, _ in runs])
    owner = np.repeat(np.arange(len(runs)), [len(tau) for _, tau, _ in runs])
    z = solve(owner, tau)
    if sag is not None:
        # each orbit's chords from its entry on, in time order, cut until
        # none bends more than sag
        owner = np.concatenate((np.arange(len(runs)), owner))
        tau = np.concatenate((np.zeros(len(runs)), tau))
        z = np.concatenate(([z_e for z_e, _, _, _ in entries], z))
        while True:
            order = np.lexsort((tau, owner))
            owner, tau, z = owner[order], tau[order], z[order]
            zk = z**k
            turn = k1 * np.abs(zk) / np.abs(zk * z - fld.epsilon)  # |f'/f|
            bend = np.maximum(turn[1:], turn[:-1]) * np.abs(np.diff(z)) ** 2 / 8.0
            cut = np.flatnonzero((bend > sag) & (owner[1:] == owner[:-1]))
            if not len(cut):
                break
            pieces = np.ceil(np.sqrt(bend[cut] / sag)).astype(int)
            chord, step = np.repeat(cut, pieces - 1), np.repeat(1.0 / pieces, pieces - 1)
            # the j-th of the pieces - 1 new points of a chord, j = 1, 2, ...
            first = np.repeat(np.cumsum(pieces - 1) - (pieces - 1), pieces - 1)
            j = np.arange(1, len(chord) + 1) - first
            new_tau = tau[chord] + (tau[chord + 1] - tau[chord]) * (j * step)
            new_owner = owner[chord]
            owner, tau = np.concatenate((owner, new_owner)), np.concatenate((tau, new_tau))
            z = np.concatenate((z, solve(new_owner, new_tau)))
        owner, tau, z = owner[tau > 0], tau[tau > 0], z[tau > 0]
    cuts = np.cumsum(np.bincount(owner, minlength=len(runs)))[:-1]
    return [
        (zs, t_e + ts, stop)
        for zs, ts, (_, t_e, _, _), (_, _, stop) in zip(
            np.split(z, cuts), np.split(tau, cuts), entries, runs
        )
    ]


def separatrices(fld: ModelField, controls: IntegratorControls | None = None) -> list[Trajectory]:
    """The 2k separatrices, from the launch circle at 0.995 times the escape
    radius to within the capture radius of their landing roots.

    Separatrix j leaves infinity along arg z = pi j/k; outgoing ones (even
    j) run in reversed time, so that every trajectory runs from its launch
    point towards its landing point, with increasing ``times`` from 0.
    Each is its far segment (``_far_segment``), on the exact curve Im xi =
    0 down to |z| = 1.5 s, s = |eps|^{1/(k+1)}, and then the drawn orbit
    (``_drawn``) from its last point at its time, in one call for all 2k:
    the transit, ``_march`` steps that stop on the landing disks of
    ``lane_radii`` (or on any other stop of the controls), and the landing
    segment in the Koenigs chart of the landing root, down to |u_l| =
    capture radius/2 (so |z - z_l| is below the capture radius).  At k = 1
    that point lies in the chart disk already, and the transit has no
    step.  ``controls.time_cap``, in the field's own time unit
    (``_field_controls``), ends whichever segment it falls in with
    ``TIME_CAP``, as it would end an integrated orbit.

    ``n_accepted``, ``n_rejected`` and ``h_min_seen`` count the transit's
    steps; the far and chart points come on top of them.
    """
    if fld.epsilon == 0:
        raise DegenerateParameter("eps = 0")
    ctl = _field_controls(fld, controls)
    js = np.arange(2 * fld.k)
    far, far_t = _far_segment(fld, js, ctl.time_cap)
    direction = np.where(js % 2 == 0, -1, 1).tolist()
    drawn = _drawn(fld, zip(far[:, -1].tolist(), far_t[:, -1].tolist(), direction), ctl)
    for traj, zs, ts, d in zip(drawn, far, far_t, direction):
        traj.points = np.concatenate((zs[:-1], traj.points))
        traj.times = np.concatenate((ts[:-1], traj.times))
        traj.orientation = "outgoing" if d < 0 else "incoming"
    return drawn


# ---------------------------------------------------------------------------
# Douady-Sentenac combinatorial invariant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DSInvariant:
    """Zig-zag chain of singularity indices plus the attachment datum."""

    k: int
    epsilon: complex
    order: tuple
    attachment: int

    def normalised(self):
        if self.order[0] > self.order[-1]:
            return replace(self, order=tuple(reversed(self.order)))
        return self

    def to_dict(self):
        return {
            "k": self.k,
            "order": list(self.order),
            "attachment": self.attachment,
        }


def _walk_path(edges, n_vertices):
    adj = {i: [] for i in range(n_vertices)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    ends = [i for i, nbrs in adj.items() if len(nbrs) == 1]
    if len(ends) != 2 or any(len(nbrs) > 2 for nbrs in adj.values()):
        raise AtBifurcation("integrated connections do not form a trunk")
    start = min(ends)
    order = [start]
    prev = None
    cur = start
    while len(order) < n_vertices:
        nxt = [w for w in adj[cur] if w != prev]
        if len(nxt) != 1:
            raise AtBifurcation("integrated connections do not form a trunk")
        prev, cur = cur, nxt[0]
        order.append(cur)
    return tuple(order)


def outward_normal(a: complex, b: complex) -> complex:
    """Right-hand unit normal of the directed side a -> b: outward for a
    counterclockwise polygon."""
    return -1j * (b - a) / abs(b - a)


def _sector_of_one(fld: ModelField) -> int:
    """``sector_index(fld, 1)`` on Python floats: the rule of
    ``sector_array``, the nudge off a slit included."""
    k1 = fld.k + 1
    width = TWO_PI / k1
    ang = (0.0 - fld.theta() / k1) % TWO_PI
    ell = int(ang / width) % k1
    rel = ang - ell * TWO_PI / k1
    if min(rel, width - rel) < 1e-12:
        ell = int((ang + 2e-12) % TWO_PI / width) % k1
    return ell


def _gon_attachment(fld: ModelField, v) -> int:
    """Landing index of the separatrix with asymptotic direction arg z = 0,
    read off the gon with vertices ``v``.

    In t = int dz/(z^{k+1} - eps) infinity in the sector s of z = 1 is the
    vertex p = v_s, and the separatrix in reversed time is the ray from p
    towards -infinity.  It lands at the side not ending at p that it
    crosses (the gon is convex, so there is at most one), else in the strip
    of side s or s+1 whose corner cone at p, spanned by the unit vector u
    along the side away from p and the outward normal n, contains
    -1 = -Re(u) u - Re(n) n.  The side with the larger min(-Re u, -Re n) is
    taken, which also decides eps > 0 at even k, where -1 = n on side s,
    without a tolerance.
    """
    k1 = fld.k + 1
    s = _sector_of_one(fld)
    p = v[s]
    at_p = (s, (s + 1) % k1)
    for ell in range(k1):
        a, b = v[ell - 1], v[ell]
        if ell not in at_p and min(a.imag, b.imag) < p.imag < max(a.imag, b.imag):
            if a.real + (b.real - a.real) * (p.imag - a.imag) / (b.imag - a.imag) < p.real:
                return ell

    def depth(ell):
        a, b = v[ell - 1], v[ell]
        u = (a - b if ell == s else b - a) / abs(b - a)
        return min(-u.real, -outward_normal(a, b).real)

    return max(at_p, key=depth)


def _gon_reading(fld: ModelField, v) -> tuple:
    """The normalised (trunk, attachment) read off the gon of ``fld`` with
    vertices ``v``.

    The trunk sorts the sides by the heights of their (lower, upper) ends:
    the vertices of the regular gon alternate between its left and right
    chains when their heights are distinct, so an upward sweep meets each
    side at its lower end.  The attachment is ``_gon_attachment``.  Both
    need only the distinct heights, so any positive multiple of the gon
    will do.
    """
    k1 = fld.k + 1
    spans = [sorted((v[ell - 1].imag, v[ell].imag)) for ell in range(k1)]
    order = tuple(sorted(range(k1), key=spans.__getitem__))
    inv = DSInvariant(fld.k, fld.epsilon, order, _gon_attachment(fld, v)).normalised()
    return inv.order, inv.attachment


@functools.cache
def _rays(k: int) -> tuple:
    """``bifurcation_angles(k)`` as Python floats."""
    return tuple(bifurcation_angles(k).tolist())


def _sector(fld: ModelField) -> int:
    """The sector of arg eps: it lies in [theta_{sector-1}, theta_sector)
    of ``_rays`` (with 0 and 2 pi at the ends)."""
    return bisect.bisect_right(_rays(fld.k), fld.theta())


@functools.cache
def _sector_invariant(k: int, sector: int) -> tuple:
    """The normalised (trunk, attachment) of every generic field in
    ``sector`` (``_sector``), read off the gon (``_gon_reading``) once, in
    the middle of the sector.

    The trunk changes only where two vertex heights meet, on a homoclinic
    ray, so it is constant on each sector (Douady, Estrada and Sentenac
    2005).  So is the attachment: in the slit band arg eps in
    [0, (k+1) 1e-12), where the nudge off the slit moves z = 1 from sector
    k of the gon to sector 0, the separatrix still lands on the same side.
    """
    rays = _rays(k)
    lo = rays[sector - 1] if sector else 0.0
    hi = rays[sector] if sector < len(rays) else TWO_PI
    fld = ModelField(k, cmath.exp(0.5j * (lo + hi)))
    return _gon_reading(fld, _defect(fld)[1])


def ds_invariant(fld: ModelField, tol: float = 1e-9, validate: bool = False) -> DSInvariant:
    """The combinatorial invariant, read off the period-gon.

    A field within ``tol`` of a homoclinic ray (``homoclinic_defect``, read
    off the cached eps = 1 gon) raises ``AtBifurcation``.  Off the rays
    the trunk and attachment are constant on each sector of arg eps between
    two rays, so each sector's are read off the gon once per process, in
    the middle of the sector, and looked up (``_sector_invariant``).  With
    ``validate=True`` both must agree with ``ds_invariant_integrated`` at
    eps itself.
    """
    if _defect(fld)[0] <= tol:
        raise AtBifurcation("arg eps lies on a homoclinic ray")
    inv = DSInvariant(fld.k, fld.epsilon, *_sector_invariant(fld.k, _sector(fld)))
    if validate:
        other = ds_invariant_integrated(fld)
        if (other.order, other.attachment) != (inv.order, inv.attachment):
            raise AtBifurcation(
                f"gon trunk {inv.order}, attachment {inv.attachment} != "
                f"integrated trunk {other.order}, attachment {other.attachment}"
            )
    return inv


def ds_invariant_integrated(fld: ModelField) -> DSInvariant:
    """The invariant recovered purely dynamically, from where the 2k
    separatrices land.

    Separatrix j leaves infinity along arg z = pi j/k, and the sector at
    infinity between separatrices j and j+1 (mod 2k) is swept by orbits
    that run from the landing root of the outgoing one to the landing root
    of the incoming one.  At generic eps the field has exactly k alpha-omega
    zones, one per trunk edge, and each meets infinity in exactly two such
    sectors (Douady, Estrada and Sentenac 2005; Branner and Dias 2010).  So
    the 2k pairs {land(j), land(j+1)} name each of the k trunk edges
    exactly twice, and the trunk is the path they form.  The attachment is
    land(0), where the separatrix with asymptotic direction arg z = 0 lands
    in reversed time.

    The separatrices land on the field of eps/|eps| (``_unit_field``),
    whose landings are those of eps at any |eps| a float holds.  All 2k
    orbits start where ``separatrices`` starts its transits, at the inner
    ends of their far segments (|z| = 1.5 s, ``_far_ends``), solved on
    their own (``_far_points``), in one ``landing_lanes`` call; xi is
    evaluated on that circle alone, so it does not overflow where the
    launch circle would.  ``AtBifurcation`` names each separatrix that did
    not land with its stop, or the landings if their pairs do not form a
    path.  Once they do, each edge is named exactly twice: the pairs form
    a closed walk, which crosses each edge of a path an even number of
    times, and 2k crossings over k edges leave two for each.
    """
    unit = _unit_field(fld)
    js = range(2 * fld.k)
    ang, sign, tau = _far_ends(unit, js, [1.5 * unit.scale])
    far = _far_points(unit, ang, sign, tau)[:, 0]
    index, stop = landing_lanes(unit, far, [1 if j % 2 else -1 for j in js])
    lost = [f"{j} ({s.value})" for j, s in zip(js, stop) if s is not Termination.LANDED]
    if lost:
        raise AtBifurcation(f"separatrices did not land: {', '.join(lost)}")
    land = index.tolist()
    try:
        order = _walk_path({tuple(sorted(p)) for p in zip(land, land[1:] + land[:1])}, fld.k + 1)
    except AtBifurcation as exc:
        raise AtBifurcation(f"{exc}: separatrix landings {land}") from None
    return DSInvariant(fld.k, fld.epsilon, order, land[0]).normalised()


def apply_transition(order, parity: int):
    """Rewire a trunk across a homoclinic bifurcation.

    Erase every other segment (those with index = parity mod 2), swap the
    endpoints of each surviving segment, and keep the segment order; lone
    vertices keep their place in the chain.
    """
    chain = list(order)
    for i in range(parity, len(chain) - 1, 2):
        chain[i], chain[i + 1] = chain[i + 1], chain[i]
    return tuple(chain)


def ds_transition(k: int, j: int, probe_offset: float = 1e-3):
    """DS invariants on the two sides of the homoclinic angle theta_j."""
    if not 0 <= j < 2 * k:
        raise ValueError("angle index out of range")
    theta_j = bifurcation_angles(k)[j]
    before = ds_invariant(ModelField(k, cmath.exp(1j * (theta_j - probe_offset))))
    after = ds_invariant(ModelField(k, cmath.exp(1j * (theta_j + probe_offset))))
    return before, after


def transition_rule_holds(before: DSInvariant, after: DSInvariant) -> bool:
    """Whether the erase-alternate-and-swap rule maps one invariant to the other.

    The singularity labels of the two sides are matched geometrically first:
    indexing is by normalised arg(eps), which wraps when a probe crosses
    zero, while the rule presumes the continuous labelling.
    """
    sb = singularities(ModelField(before.k, before.epsilon))
    sa = singularities(ModelField(after.k, after.epsilon))
    relabel = {i: int(np.abs(sa - z).argmin()) for i, z in enumerate(sb)}
    if sorted(relabel.values()) != list(range(len(sa))):
        raise ValueError("probe offsets too large to match singularities")
    order_b = tuple(relabel[i] for i in before.order)
    targets = {after.order, tuple(reversed(after.order))}
    for order in (order_b, tuple(reversed(order_b))):
        for parity in (0, 1):
            if apply_transition(order, parity) in targets:
                return True
    return False


def is_zigzag(order, points) -> bool:
    """Whether a linear order of planar points is a zig-zag ordering.

    True iff some rotation makes the real parts strictly increasing along
    the order, i.e. all steps fit in an open half-plane of directions.
    """
    steps = [points[b] - points[a] for a, b in zip(order[:-1], order[1:])]
    args = [cmath.phase(s) for s in steps]
    # need phi with cos(arg + phi) > 0 for every step
    candidates = []
    for a in args:
        candidates.extend([-a, -a + math.pi / 2 - 1e-9, -a - math.pi / 2 + 1e-9])
    for phi in candidates:
        if all(math.cos(a + phi) > 1e-12 for a in args):
            return True
    return False


# ---------------------------------------------------------------------------
# rectifying coordinate
# ---------------------------------------------------------------------------


def xi_array(k: int, eps, z):
    """xi on arrays: ``eps`` broadcasts against ``z``.

    Each point keeps the first n terms with q^n a_0/a_n < 1e-18, plus one,
    for its own q = |eps/z^{k+1}| (at most 20000 terms), so its terms do
    not depend on the other points of the array; the sums run as one Horner
    pass, which each point joins at its last term.  A lone point is
    evaluated as two copies of itself: numpy runs one point through its
    scalar loops, which round differently from the vector loops of any
    longer array.
    """
    k1 = k + 1
    z = np.asarray(z, dtype=complex)
    if z.size == 1 and np.size(eps) == 1:
        shape = np.broadcast_shapes(np.shape(eps), z.shape)
        return xi_array(k, np.ravel(eps)[:1], np.repeat(z.ravel(), 2))[:1].reshape(shape)
    if np.count_nonzero(np.abs(z) ** k1 <= np.abs(eps)):
        raise SeriesOutOfDomain("|z|^{k+1} must exceed |eps|")
    zk = z**k
    ratio = eps / (zk * z)
    q = np.abs(ratio)
    top = float(np.maximum.reduce(q, axis=None, initial=0.0))
    inv_a = [1.0 / k]  # 1/a_n of the terms kept at the largest q
    power = 1.0  # its q^n of the last term kept
    while len(inv_a) < 20000 and power * k * inv_a[-1] >= 1e-18:
        power *= top
        inv_a.append(1.0 / (len(inv_a) * k1 + k))
    # the loop condition falls with n and with q: some point keeps fewer
    # terms where the smallest q fails it at the last term kept
    bottom = float(np.minimum.reduce(q, axis=None, initial=top))
    power = 1.0
    for _ in inv_a[2:]:
        power *= bottom
    ragged = len(inv_a) > 1 and power * k * inv_a[-2] < 1e-18
    if ragged:  # the loop above, point by point
        kept = np.ones(q.shape, dtype=int)
        power = np.ones(q.shape)
        for c in inv_a[:-1]:
            kept += power * k * c >= 1e-18
            power *= q
    acc = np.full(ratio.shape, inv_a[-1], dtype=complex)
    for n in range(len(inv_a) - 2, -1, -1):
        acc *= ratio
        acc += inv_a[n]
        if ragged:
            acc[kept == n + 1] = inv_a[n]
    return -acc / zk


def xi_series(fld: ModelField, z):
    """Monodromy-free branch of int dz/(z^{k+1}-eps) outside the root disk.

    xi(z) = -sum_n eps^n / (a_n z^{a_n}) with a_n = (n+1)(k+1) - 1.  ``z``
    may be a scalar (the result is a complex) or an array (see
    ``xi_array``); any point with |z|^{k+1} <= |eps| raises
    ``SeriesOutOfDomain``.
    """
    xi = xi_array(fld.k, fld.epsilon, z)
    return complex(xi) if np.ndim(xi) == 0 else xi


def rectify(fld: ModelField, z: complex) -> complex:
    """Complex time t = int_0^z dz/(z^{k+1}-eps) along the segment [0, z].

    By partial fractions over the roots z_l, with lambda_l = (k+1) z_l^k,
    t = sum_l Log(1 - z/z_l) / lambda_l with the principal Log.  This is
    exact because the angle the segment subtends at each root lies in
    (-pi, pi); a segment within 1e-6 |eps|^{1/(k+1)} of a root raises
    ``PathThroughSingularity``.  ``xi_series`` is the monodromy-free branch
    outside the singular-gon; offset by a period-gon vertex it equals t on
    each sector.
    """
    sing = singularities(fld)
    # distance from the segment [0, z] to each root, multiplied through by
    # |z|^2 so that the point segment z = 0 needs no division
    zz = abs(z) ** 2
    along = np.clip((sing * np.conj(z)).real, 0.0, zz)
    near = np.abs(sing * zz - along * z) < 1e-6 * fld.scale * zz
    if np.count_nonzero(near):
        raise PathThroughSingularity(f"segment passes near singularity {sing[near][0]:.6g}")
    return complex(np.sum(np.log(1 - z / sing) / fld.d_rhs(sing)))


def sector_array(k: int, eps, z):
    """Sector indices and slit flags of the points ``z``; ``eps`` broadcasts
    against ``z``.  Each point on a slit is nudged counterclockwise on its
    own, as ``sector_index`` describes."""
    k1 = k + 1
    theta = np.angle(eps) % TWO_PI
    ang = (np.arctan2(z.imag, z.real) - theta / k1) % TWO_PI
    if np.count_nonzero(np.isnan(ang)):
        raise ValueError("no sector for a non-finite point or eps")
    ell = (ang / (TWO_PI / k1)).astype(int) % k1
    rel = ang - ell * TWO_PI / k1
    on_slit = np.minimum(rel, TWO_PI / k1 - rel) < 1e-12
    if np.count_nonzero(on_slit):
        nudged = (ang + 2e-12) % TWO_PI
        ell = np.where(on_slit, (nudged / (TWO_PI / k1)).astype(int) % k1, ell)
    return ell, on_slit


def sector_index(fld: ModelField, z):
    """Index of the radial-slit sector containing z.

    Sector l spans the angles between the slits through singularities l and
    l+1.  On a slit the point is nudged counterclockwise; the flag reports
    it.  A scalar z gives ``(int, bool)``, an array z two arrays.
    """
    ell, on_slit = sector_array(fld.k, fld.epsilon, z)
    if np.ndim(z) == 0:
        return int(ell), bool(on_slit)
    return ell, on_slit
