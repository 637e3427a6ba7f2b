"""Geometry and dynamics of the model field z' = z^{k+1} - eps on the sphere.

The module computes the exact combinatorial-geometric data (singularities,
periods, period-gon, homoclinic angles, zig-zag invariant) and provides an
adaptive complex-plane integrator for trajectories and separatrices, so every
combinatorial answer can be cross-checked dynamically.

One Dormand-Prince 5(4) kernel does all integration.  It reuses the last
stage of an accepted step as the first of the next, so a step costs six
field evaluations, and it counts accepted and rejected steps and the
smallest accepted step (``Trajectory.n_accepted``, ``n_rejected``,
``h_min_seen``).  ``integrate`` and ``separatrices`` follow an orbit until
it is within the capture radius 1e-6 min(1, |eps|^{1/(k+1)}) of a singular
point.  Callers that need only where an orbit lands (``_attachment``,
``ds_invariant_integrated`` and ``disk.separating_regions``) call
``landing_index``, which stops as soon as the orbit enters the certified
disk |z - z_l| < rho_l of a root z_l attracting in the integration
direction; ``landing_radii`` gives rho_l and the argument that an orbit
inside the disk lands at z_l.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class DegenerateParameter(ValueError):
    """eps = 0: the singular point is multiple, geometric queries undefined."""


class AtBifurcation(RuntimeError):
    """The invariant is requested at (or numerically on) a homoclinic value."""


class StepSizeUnderflow(RuntimeError):
    """The adaptive integrator could not meet the tolerance."""


class PathThroughSingularity(ValueError):
    """The segment [0, z] of ``rectify`` passes within 1e-6 |eps|^{1/(k+1)}
    of a singularity."""


class SeriesOutOfDomain(ValueError):
    """Series branch of the rectifying coordinate evaluated inside its cut."""


class RadiusTooSmall(ValueError):
    """Eyelet radius below the geometric lower bound of the strip model."""


@dataclass(frozen=True)
class ModelField:
    """The vector field z' = z^{k+1} - eps."""

    k: int
    epsilon: complex

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

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
    differences along sides are the negated periods.  For the model field
    the sides close up exactly and ``gap`` is 0; period data extracted from
    an unfolding carries a nonzero gap and no closed polygon.
    """

    k: int
    epsilon: complex
    singularities: np.ndarray
    eigenvalues: np.ndarray
    periods: np.ndarray
    vertices: np.ndarray | None
    gap: complex = 0.0

    @property
    def scale(self):
        if self.vertices is not None:
            return float(np.abs(self.vertices).max())
        return float(np.abs(self.periods).max())

    def side(self, ell):
        """Endpoints (start, end) of the side carrying singularity ``ell``."""
        k1 = self.k + 1
        return self.vertices[(ell - 1) % k1], self.vertices[ell % k1]


def periods(fld: ModelField) -> PeriodGon:
    """Eigenvalues, periods and the centred period-gon of the model field."""
    sing = singularities(fld)
    eig = fld.d_rhs(sing)
    mu = 2j * math.pi / eig
    partial = -np.cumsum(mu)
    vertices = partial - partial.mean()
    return PeriodGon(
        k=fld.k,
        epsilon=fld.epsilon,
        singularities=sing,
        eigenvalues=eig,
        periods=mu,
        vertices=vertices,
        gap=0.0,
    )


def vertex_scale(k: int) -> float:
    """Circumradius constant of the period-gon at |eps| = 1."""
    return (math.pi / (k + 1)) / math.sin(math.pi / (k + 1))


def homoclinic_defect(fld: ModelField, gon: PeriodGon | None = None):
    """Distance (on normalised heights) from the vertical-symmetry locus.

    Returns ``(defect, pairs)`` where pairs are the vertex index pairs at
    (nearly) equal height.  Symmetry of the period-gon about the imaginary
    axis is the homoclinic criterion; for k = 1 the symmetric position with
    both vertices on the axis has no equal-height pair, so the on-axis
    defect is included there.
    """
    gon = periods(fld) if gon is None else gon
    v = gon.vertices
    scale = gon.scale
    k1 = fld.k + 1
    heights = v.imag / scale
    best = math.inf
    pairs = []
    for i in range(k1):
        for j in range(i + 1, k1):
            d = abs(heights[i] - heights[j])
            best = min(best, d)
            pairs.append(((i, j), d))
    if fld.k == 1:
        best = min(best, float(np.abs(v.real).min()) / scale)
    return best, pairs


def is_homoclinic(fld: ModelField, tol: float = 1e-9):
    """Whether arg(eps) sits on a homoclinic ray, with witness vertex pairs."""
    defect, pairs = homoclinic_defect(fld)
    flagged = defect <= tol
    witnesses = [p for p, d in pairs if d <= tol] if flagged else []
    return flagged, witnesses


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------


class Termination(str, Enum):
    LANDED = "landed"
    ESCAPED = "escaped"
    TIME_CAP = "time_cap"
    HIT_BOUNDARY = "hit_boundary"


@dataclass(frozen=True)
class IntegratorControls:
    rtol: float = 1e-10
    atol: float = 1e-13
    capture_radius: float | None = None  # default 1e-6 * min(1, |eps|^{1/(k+1)})
    escape_radius: float | None = None  # default 10 * |eps|^{1/(k+1)} + 10
    boundary_radius: float | None = None  # e.g. the disk radius r, if restricted
    time_cap: float = 1e4
    max_steps: int = 200_000
    h_init: float = 1e-3
    h_min: float = 1e-14
    h_max: float = 1.0

    def resolved(self, fld: ModelField):
        cap = self.capture_radius
        esc = self.escape_radius
        if cap is None:
            cap = 1e-6 * min(1.0, fld.scale)
        if esc is None:
            esc = 10.0 * fld.scale + 10.0
        return replace(self, capture_radius=cap, escape_radius=esc)


@dataclass
class Trajectory:
    """An integrated orbit and why it stopped.

    ``n_accepted`` and ``n_rejected`` count the kernel's steps (one point
    per accepted step) and ``h_min_seen`` is the smallest accepted step.
    """

    points: np.ndarray
    times: np.ndarray
    termination: Termination
    landed_index: int | None = None
    direction: int = 1
    launch_angle: float | None = None
    orientation: str | None = None
    n_accepted: int = 0
    n_rejected: int = 0
    h_min_seen: float = math.inf

    def to_dict(self):
        term = self.termination.value
        if self.termination is Termination.LANDED:
            term = f"landed:{self.landed_index}"
        return {
            "points": [[float(z.real), float(z.imag)] for z in self.points],
            "termination": term,
        }


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


def _dopri(fld, z0, direction, ctl, disks, path=None):
    """Adaptive Dormand-Prince 5(4) steps from z0 until a stop fires.

    ``disks`` lists ``(index, centre, radius)``: an accepted point within
    ``radius`` of a centre lands at the nearest such centre.  The field is
    direction-free and the step is ``h * direction``; negation is exact, and
    z4 and z5 are formed as in the plain tableau loop (not from the weight
    differences), so the steps equal that loop's bit for bit.  Accepted
    points and times are appended to ``path = (points, times)`` when given.
    Returns ``(termination, landed_index, n_accepted, n_rejected,
    h_min_seen)``.
    """
    k1 = fld.k + 1
    eps = fld.epsilon
    z_big = 1e120 ** (1.0 / k1)
    big = complex(1e120)

    def f(z):
        # overflow guard: absurd trial stages force a step rejection
        if abs(z) > z_big:
            return big
        return z**k1 - eps

    rtol, atol, h_min, h_max = ctl.rtol, ctl.atol, ctl.h_min, ctl.h_max
    time_cap, boundary, escape = ctl.time_cap, ctl.boundary_radius, ctl.escape_radius
    z = complex(z0)
    t = 0.0
    p1 = f(z)
    h = min(ctl.h_init, 1e-2 / (1.0 + abs(p1)))
    n_acc = n_rej = 0
    h_seen = math.inf
    for _ in range(ctl.max_steps):
        if h < h_min:
            raise StepSizeUnderflow(f"step size {h:g} below floor at t={t:g}")
        h = min(h, h_max, time_cap - t)
        hd = h * direction
        p2 = f(z + hd * (_A21 * p1))
        p3 = f(z + hd * (_A31 * p1 + _A32 * p2))
        p4 = f(z + hd * (_A41 * p1 + _A42 * p2 + _A43 * p3))
        p5 = f(z + hd * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4))
        p6 = f(z + hd * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5))
        z5 = z + hd * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
        p7 = f(z5)
        z4 = z + hd * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
        err = abs(z5 - z4) / (atol + rtol * max(abs(z), abs(z5)))
        if err <= 1.0:
            t += h
            z = z5
            p1 = p7
            n_acc += 1
            h_seen = min(h_seen, h)
            if path is not None:
                path[0].append(z)
                path[1].append(t)
            landed = None
            for idx, centre, radius in disks:
                d = abs(z - centre)
                if d <= radius and (landed is None or d < best):
                    landed, best = idx, d
            if landed is not None:
                return Termination.LANDED, landed, n_acc, n_rej, h_seen
            if boundary is not None and abs(z) >= boundary:
                return Termination.HIT_BOUNDARY, None, n_acc, n_rej, h_seen
            if abs(z) >= escape:
                return Termination.ESCAPED, None, n_acc, n_rej, h_seen
            if t >= time_cap:
                break
        else:
            n_rej += 1
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
    return Termination.TIME_CAP, None, n_acc, n_rej, h_seen


def _prepare(fld, z0, direction, controls):
    """Resolved controls and singular points, after checking the start point."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    ctl = (controls or IntegratorControls()).resolved(fld)
    sing = singularities(fld)
    if np.abs(sing - z0).min() < ctl.capture_radius:
        raise ValueError("z0 lies within the capture radius of a singularity")
    return ctl, sing


def integrate(
    fld: ModelField,
    z0: complex,
    direction: int = 1,
    controls: IntegratorControls | None = None,
) -> Trajectory:
    """Adaptive RK5(4) integration of z' = z^{k+1} - eps until a stop fires.

    ``direction = -1`` integrates in reversed time.  Times are the
    (positive, increasing) integration parameter.  The trajectory lands
    once it comes within the capture radius of a singular point.
    """
    ctl, sing = _prepare(fld, z0, direction, controls)
    disks = [(i, s, ctl.capture_radius) for i, s in enumerate(sing.tolist())]
    zs = [complex(z0)]
    ts = [0.0]
    termination, landed, n_acc, n_rej, h_seen = _dopri(fld, z0, direction, ctl, disks, (zs, ts))
    return Trajectory(
        points=np.array(zs),
        times=np.array(ts),
        termination=termination,
        landed_index=landed,
        direction=direction,
        n_accepted=n_acc,
        n_rejected=n_rej,
        h_min_seen=h_seen,
    )


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


def landing_index(
    fld: ModelField,
    z0: complex,
    direction: int = 1,
    controls: IntegratorControls | None = None,
) -> int | None:
    """Index of the singular point the orbit of z0 lands at, or None.

    Runs the step kernel of ``integrate`` but stops as soon as the orbit
    enters the certified disk (``landing_radii``) of a root that attracts in
    the integration direction, i.e. direction * Re lambda_l < 0.  A disk
    that reaches past ``boundary_radius`` is cut back to it, and no disk is
    smaller than the capture radius.  None means the orbit escaped, hit the
    boundary or ran out of time or steps.
    """
    ctl, sing = _prepare(fld, z0, direction, controls)
    rho = np.where(direction * fld.d_rhs(sing).real < 0, landing_radii(fld), 0.0)
    if ctl.boundary_radius is not None:
        rho = np.minimum(rho, ctl.boundary_radius - fld.scale)
    radii = np.maximum(rho, ctl.capture_radius)
    disks = list(zip(range(len(sing)), sing.tolist(), radii.tolist()))
    return _dopri(fld, z0, direction, ctl, disks)[1]


def separatrix_directions(k: int) -> np.ndarray:
    """Asymptotic directions arg z = pi*j/k, alternately outgoing/incoming."""
    return np.arange(2 * k) * math.pi / k


def separatrices(
    fld: ModelField,
    launch_radius: float | None = None,
    controls: IntegratorControls | None = None,
) -> list[Trajectory]:
    """The 2k separatrices, integrated inward from a far-field launch circle.

    Outgoing separatrices (even j) are integrated in reversed time so that
    every trajectory runs from the launch point towards its landing point.
    """
    if fld.epsilon == 0:
        raise DegenerateParameter("eps = 0")
    ctl = (controls or IntegratorControls()).resolved(fld)
    if launch_radius is None:
        launch_radius = 0.995 * ctl.escape_radius
    if launch_radius <= fld.scale:
        raise ValueError("launch radius must exceed |eps|^{1/(k+1)}")
    if launch_radius >= ctl.escape_radius:
        ctl = replace(ctl, escape_radius=launch_radius / 0.995)
    out = []
    for j, ang in enumerate(separatrix_directions(fld.k)):
        outgoing = j % 2 == 0
        traj = integrate(
            fld,
            launch_radius * cmath.exp(1j * ang),
            direction=-1 if outgoing else 1,
            controls=ctl,
        )
        traj.launch_angle = float(ang)
        traj.orientation = "outgoing" if outgoing else "incoming"
        out.append(traj)
    return out


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

    @property
    def edges(self):
        return frozenset(
            frozenset((self.order[i], self.order[i + 1])) for i in range(len(self.order) - 1)
        )

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


def _band_edges(gon: PeriodGon, tol: float):
    """Edges of the trunk from overlapping side projections, via a band sweep."""
    v = gon.vertices
    scale = gon.scale
    heights = np.sort(v.imag)
    if np.diff(heights).min() <= tol * scale:
        raise AtBifurcation("two period-gon vertices share a height")
    sides = [(ell, *gon.side(ell)) for ell in range(gon.k + 1)]
    edges = []
    for lo, hi in zip(heights[:-1], heights[1:]):
        y = 0.5 * (lo + hi)
        cover = []
        for ell, a, b in sides:
            ia, ib = a.imag, b.imag
            if min(ia, ib) < y < max(ia, ib):
                x = a.real + (b.real - a.real) * (y - ia) / (ib - ia)
                cover.append((x, ell))
        if len(cover) != 2:
            raise AtBifurcation(f"band at height {y:g} covered by {len(cover)} sides")
        cover.sort()
        edges.append((cover[0][1], cover[1][1]))
    return edges


def _walk_path(edges, n_vertices):
    adj = {i: [] for i in range(n_vertices)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    ends = [i for i, nbrs in adj.items() if len(nbrs) == 1]
    if len(ends) != 2 or any(len(nbrs) > 2 for nbrs in adj.values()):
        raise AtBifurcation("projection overlaps do not form a trunk")
    start = min(ends)
    order = [start]
    prev = None
    cur = start
    while len(order) < n_vertices:
        nxt = [w for w in adj[cur] if w != prev]
        if len(nxt) != 1:
            raise AtBifurcation("projection overlaps do not form a trunk")
        prev, cur = cur, nxt[0]
        order.append(cur)
    return tuple(order)


def _attachment(fld: ModelField, controls=None) -> int:
    """Landing index of the separatrix with asymptotic direction arg z = 0."""
    ctl = (controls or IntegratorControls()).resolved(fld)
    launch = 0.995 * ctl.escape_radius
    landed = landing_index(fld, launch + 0j, direction=-1, controls=ctl)
    if landed is None:
        raise AtBifurcation("distinguished separatrix failed to land")
    return landed


def ds_invariant(
    fld: ModelField,
    tol: float = 1e-9,
    validate: bool = False,
    controls: IntegratorControls | None = None,
) -> DSInvariant:
    """The combinatorial invariant, from side-projection overlaps.

    The trunk ordering comes from the band sweep of the period-gon; the
    attachment comes from integrating the distinguished separatrix
    (asymptotic direction nearest arg z = 0).  With ``validate=True`` the
    trunk is recomputed from integrated trajectories and must agree.
    """
    flagged, _ = is_homoclinic(fld, tol)
    if flagged:
        raise AtBifurcation("arg eps lies on a homoclinic ray")
    gon = periods(fld)
    order = _walk_path(_band_edges(gon, tol), fld.k + 1)
    inv = DSInvariant(
        k=fld.k, epsilon=fld.epsilon, order=order, attachment=_attachment(fld, controls)
    ).normalised()
    if validate:
        other = ds_invariant_integrated(fld, controls=controls)
        if other.order != inv.order:
            raise AtBifurcation(
                f"projection trunk {inv.order} != integrated trunk {other.order}"
            )
    return inv


def ds_invariant_integrated(
    fld: ModelField,
    n_angles: int = 24,
    seed_scale: float = 0.2,
    controls: IntegratorControls | None = None,
) -> DSInvariant:
    """The invariant recovered purely dynamically.

    Orbits seeded on circles around each singularity are integrated both
    ways; each generic orbit joins two singular points, and the collected
    connections must assemble into the trunk.
    """
    sing = singularities(fld)
    k1 = fld.k + 1
    gaps = [abs(sing[i] - sing[j]) for i in range(k1) for j in range(i + 1, k1)]
    rho = seed_scale * min(gaps)
    edges = set()
    for ell in range(k1):
        for m in range(n_angles):
            seed = sing[ell] + rho * cmath.exp(2j * math.pi * m / n_angles)
            fwd = landing_index(fld, seed, 1, controls)
            bwd = landing_index(fld, seed, -1, controls)
            if fwd is not None and bwd is not None and fwd != bwd:
                edges.add(frozenset((fwd, bwd)))
    order = _walk_path([tuple(sorted(e)) for e in edges], k1)
    return DSInvariant(
        k=fld.k, epsilon=fld.epsilon, order=order, attachment=_attachment(fld, controls)
    ).normalised()


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


def ds_transition(k: int, j: int, probe_offset: float = 1e-3, abs_eps: float = 1.0):
    """DS invariants on the two sides of the homoclinic angle theta_j."""
    if not 0 <= j < 2 * k:
        raise ValueError("angle index out of range")
    theta_j = bifurcation_angles(k)[j]
    before = ds_invariant(ModelField(k, abs_eps * cmath.exp(1j * (theta_j - probe_offset))))
    after = ds_invariant(ModelField(k, abs_eps * cmath.exp(1j * (theta_j + probe_offset))))
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


def is_zigzag(order, points, strict_margin: float = 1e-12) -> bool:
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
        if all(math.cos(a + phi) > strict_margin for a in args):
            return True
    return False


# ---------------------------------------------------------------------------
# rectifying coordinate
# ---------------------------------------------------------------------------


def xi_array(k: int, eps, z, tol: float = 1e-18, max_terms: int = 20000):
    """xi on arrays: ``eps`` broadcasts against ``z``.

    One term count serves every point: the first n with
    q^n a_0/a_n < ``tol``, plus one, for q the largest |eps/z^{k+1}|
    (capped at ``max_terms``); the sum is evaluated by Horner.
    """
    k1 = k + 1
    z = np.asarray(z, dtype=complex)
    if np.count_nonzero(np.abs(z) ** k1 <= np.abs(eps)):
        raise SeriesOutOfDomain("|z|^{k+1} must exceed |eps|")
    zk = z**k
    ratio = eps / (zk * z)
    q = float(np.maximum.reduce(np.abs(ratio), axis=None, initial=0.0))
    inv_a = [1.0 / k]  # 1/a_n of the terms kept
    power = 1.0  # q^n of the last term kept
    while len(inv_a) < max_terms and power * k * inv_a[-1] >= tol:
        power *= q
        inv_a.append(1.0 / (len(inv_a) * k1 + k))
    acc = np.full(ratio.shape, inv_a[-1], dtype=complex)
    for c in inv_a[-2::-1]:
        acc *= ratio
        acc += c
    return -acc / zk


def xi_series(fld: ModelField, z, tol: float = 1e-18, max_terms: int = 20000):
    """Monodromy-free branch of int dz/(z^{k+1}-eps) outside the root disk.

    xi(z) = -sum_n eps^n / (a_n z^{a_n}) with a_n = (n+1)(k+1) - 1.  ``z``
    may be a scalar (the result is a complex) or an array (see
    ``xi_array``); any point with |z|^{k+1} <= |eps| raises
    ``SeriesOutOfDomain``.
    """
    xi = xi_array(fld.k, fld.epsilon, z, tol, max_terms)
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


def sector_array(k: int, eps, z, slit_tol: float = 1e-12):
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
    on_slit = np.minimum(rel, TWO_PI / k1 - rel) < slit_tol
    if np.count_nonzero(on_slit):
        nudged = (ang + 2 * slit_tol) % TWO_PI
        ell = np.where(on_slit, (nudged / (TWO_PI / k1)).astype(int) % k1, ell)
    return ell, on_slit


def sector_index(fld: ModelField, z, slit_tol: float = 1e-12):
    """Index of the radial-slit sector containing z.

    Sector l spans the angles between the slits through singularities l and
    l+1.  On a slit the point is nudged counterclockwise; the flag reports
    it.  A scalar z gives ``(int, bool)``, an array z two arrays.
    """
    ell, on_slit = sector_array(fld.k, fld.epsilon, z, slit_tol)
    if np.ndim(z) == 0:
        return int(ell), bool(on_slit)
    return ell, on_slit


# ---------------------------------------------------------------------------
# the tau-model translation surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauModel:
    """Polygon-with-strips model of the rectified surface.

    2(k+1) vertices alternate long sides (the negated periods, by increasing
    argument, so the polygon runs counterclockwise) and short gap sides;
    half-infinite strips sit orthogonally on the long sides; eyelet disks of
    radius R are removed at the short-side midpoints.  The strip on the side
    -mu points along its right-hand normal i mu/|mu| (``strip_axes``), also
    at k = 1, where both long sides pass through the centre.
    """

    k: int
    vertices: np.ndarray  # 2(k+1) polygon vertices, centred
    periods: np.ndarray  # the periods in construction order
    gap: complex
    eyelet_radius: float
    strip_axes: np.ndarray  # i mu/|mu|, the outward unit normal of each long side
    eyelet_centers: np.ndarray

    @property
    def long_sides(self):
        return [(self.vertices[2 * i], self.vertices[2 * i + 1]) for i in range(self.k + 1)]

    @property
    def short_sides(self):
        n = 2 * (self.k + 1)
        return [
            (self.vertices[(2 * i + 1) % n], self.vertices[(2 * i + 2) % n])
            for i in range(self.k + 1)
        ]

    def closure_residual(self):
        side_sum = (self.k + 1) * self.gap - np.sum(self.periods)
        return abs(side_sum)


def outward_normal(a: complex, b: complex) -> complex:
    """Right-hand unit normal of the directed side a -> b: outward for a
    counterclockwise polygon."""
    return -1j * (b - a) / abs(b - a)


def build_tau_model(gon: PeriodGon, eyelet_radius: float) -> TauModel:
    """Assemble the 2(k+1)-gon with strips and eyelets from period data.

    For a nonzero gap the radius must exceed (3/4)|a| cot(pi/(2(k+1))), the
    bound that keeps the crossing point of consecutive strip boundaries
    inside the removed disk; the pure model (gap 0) accepts any R > 0.
    """
    k = gon.k
    k1 = k + 1
    a = complex(gon.gap)
    if eyelet_radius <= 0:
        raise RadiusTooSmall("eyelet radius must be positive")
    if a != 0:
        bound = 0.75 * abs(a) / math.tan(math.pi / (2 * k1))
        if eyelet_radius <= bound:
            raise RadiusTooSmall(f"eyelet radius must exceed {bound:g}")
    neg = -gon.periods
    order = np.argsort(np.angle(neg))
    mu_sorted = gon.periods[order]
    verts = np.empty(2 * k1, dtype=complex)
    cur = 0j
    for i in range(k1):
        verts[2 * i] = cur
        cur += -mu_sorted[i]
        verts[2 * i + 1] = cur
        cur += a
    verts -= verts.mean()
    axes = np.empty(k1, dtype=complex)
    centers = np.empty(k1, dtype=complex)
    for i in range(k1):
        axes[i] = outward_normal(verts[2 * i], verts[2 * i + 1])
        s0, s1 = verts[(2 * i + 1) % (2 * k1)], verts[(2 * i + 2) % (2 * k1)]
        centers[i] = 0.5 * (s0 + s1)
    return TauModel(
        k=k,
        vertices=verts,
        periods=mu_sorted,
        gap=a,
        eyelet_radius=eyelet_radius,
        strip_axes=axes,
        eyelet_centers=centers,
    )
