"""Whole-plane SLE sampling and the reversed-radial density.

The curve grows from the origin with capacity parametrization: at time t the
hull gamma_t has logarithmic capacity log t.  Each solver step composes an
exact exterior radial-slit map, so capacities are exact by construction and
only the driving-path discretization is approximate.  On top of the sampler
sit two measurements: the conformal modulus of D minus a hull (via excursion
flux) and the density of radial SLE from the interior with respect to
whole-plane SLE, assembled from measured map data, moduli and loop masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Estimate, RngStream, excursion_estimate, wos_exit_points
from .geometry import (ClosedDisk, DiscretizedHull, Disk, Domain,
                       DomainMinusSet, PolyCurve, PolylineJordan, as_complex)
from .lamstar import _boundary_as_set, lambda_star


class KappaOutOfRange(ValueError):
    """kappa outside the simple-curve range (0, 4]."""


class SolverUnstable(RuntimeError):
    """The Loewner composition produced non-finite map values."""


class HullTouchesBoundary(ValueError):
    """The hull is not strictly inside the reference domain."""


T0_DEFAULT = math.exp(-12.0)


@dataclass(frozen=True)
class SLEParams:
    """kappa and the exponents derived from it.

    All derived quantities are computed on access so they can never go
    stale: a = 2/kappa, b = (6-kappa)/(2 kappa), btilde = (kappa-2) b / 4,
    and the central charge c = (3 kappa - 8) b.
    """

    kappa: float

    def __post_init__(self):
        if not (0.0 < self.kappa <= 4.0):
            raise KappaOutOfRange(f"kappa = {self.kappa} not in (0, 4]")

    @property
    def a(self) -> float:
        return 2.0 / self.kappa

    @property
    def b(self) -> float:
        return (6.0 - self.kappa) / (2.0 * self.kappa)

    @property
    def btilde(self) -> float:
        return (self.kappa - 2.0) * self.b / 4.0

    @property
    def c(self) -> float:
        return (3.0 * self.kappa - 8.0) * self.b


def exponents(kappa: float) -> SLEParams:
    return SLEParams(float(kappa))


# ---------------------------------------------------------------------------
# exact exterior slit map
#
# In the coordinate u = q(w) = w/(1+w)^2 the exterior of the unit circle is
# the plane cut along [1/4, oo), and growing a radial slit of capacity
# increment delta is exact multiplication of u by e^delta.


def _q(w):
    return w / (1.0 + w) ** 2


def _q_prime(w):
    return (1.0 - w) / (1.0 + w) ** 3


def _q_inv(u):
    # branch with |w| > 1 (principal sqrt; u stays off [1/4, oo))
    return (1.0 - 2.0 * u + np.sqrt(1.0 - 4.0 * u)) / (2.0 * u)


def slit_length(delta: float) -> float:
    """Euclidean length of the radial slit on C_1 with capacity delta."""
    e = 4.0 * math.expm1(delta)
    return (e + math.sqrt(e * e + 4.0 * e)) / 2.0


def _step_forward(z, dz, s, theta, delta):
    """One Loewner step: map O_s minus the slit at angle theta onto
    O_{s e^delta}, tracking derivatives by the chain rule."""
    rot = np.exp(-1j * theta)
    w = z * rot / s
    u = _q(w)
    ew = _q_inv(math.exp(delta) * u)
    z_new = (s * math.exp(delta)) * ew / rot
    dz_new = dz * math.exp(2.0 * delta) * _q_prime(w) / _q_prime(ew)
    return z_new, dz_new


def _step_inverse(z, s, theta, delta):
    rot = np.exp(-1j * theta)
    w = z * rot / (s * math.exp(delta))
    fw = _q_inv(math.exp(-delta) * _q(w))
    return s * fw / rot


@dataclass
class SLEHull:
    """Whole-plane SLE hull at capacity time t_end.

    The trace is a capacity-stamped polyline; the composed slit maps give
    g_t (normalized g_t(inf) = inf, g_t'(inf) = 1, image the exterior of
    the circle of radius t_end) at any point outside the hull.
    """

    params: SLEParams
    t0: float
    t_end: float
    delta: float
    thetas: np.ndarray = field(repr=False)
    trace: PolyCurve = field(repr=False)
    seed: int = 0

    @property
    def tip(self) -> complex:
        return self.trace.vertices[-1]

    @property
    def driving_point(self) -> complex:
        return self.t_end * complex(math.cos(self.thetas[-1]),
                                    math.sin(self.thetas[-1]))

    def radius(self) -> float:
        return float(np.max(np.abs(self.trace.as_array())))

    def hull_set(self) -> DiscretizedHull:
        return self.trace.as_hull()

    def map_at(self, z):
        """g_t and g_t' at points outside the hull."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        dz = np.ones_like(z)
        s = self.t0
        for k in range(1, len(self.thetas)):
            z, dz = _step_forward(z, dz, s, self.thetas[k], self.delta)
            s *= math.exp(self.delta)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(dz))):
            raise SolverUnstable("non-finite map values; point inside hull?")
        return z, dz


def whole_plane_sample(params: SLEParams, t_end: float, dt: float = 1e-4,
                       seed: int = 0, t0: float = T0_DEFAULT,
                       n_trace: int = 512) -> SLEHull:
    """Sample a whole-plane SLE hull with ccap gamma_t = log t_end.

    The process is truncated at capacity t0: the initial hull is the closed
    t0-disk (whose exterior map is the identity) with a uniform starting
    angle.  Earlier history would perturb g_t only at scale t0/t_end.
    Driving increments have variance kappa per unit capacity.
    """
    if t_end > 0.125 * (1.0 + 1e-12):
        raise ValueError("t_end must be at most 1/8 for the small-t regime")
    if t_end <= t0:
        raise ValueError("t_end must exceed the truncation capacity t0")
    span = math.log(t_end) - math.log(t0)
    n_steps = max(1, int(round(span / dt)))
    delta = span / n_steps
    gen = RngStream(seed).generator()
    thetas = np.empty(n_steps + 1)
    thetas[0] = gen.uniform(0.0, 2.0 * math.pi)
    thetas[1:] = thetas[0] + np.cumsum(
        math.sqrt(params.kappa * delta) * gen.standard_normal(n_steps))
    d = slit_length(delta)

    # tips: gamma(t_k) is the preimage of the driving point under g_{t_k};
    # peeling one slit map sends it to s_{k-1} (1+d) e^{i theta_k}, and the
    # remaining inverse maps are applied in one backward sweep shared by all
    # requested trace times
    idx = np.unique(np.linspace(1, n_steps, min(n_trace, n_steps))
                    .round().astype(int))
    mark = np.zeros(n_steps + 1, dtype=bool)
    mark[idx] = True
    batch = np.empty(0, dtype=complex)
    order = []
    for k in range(n_steps, 0, -1):
        s_prev = t0 * math.exp((k - 1) * delta)
        batch = _step_inverse(batch, s_prev, thetas[k], delta)
        if mark[k]:
            seedpt = s_prev * (1.0 + d) * np.exp(1j * thetas[k])
            batch = np.append(batch, seedpt)
            order.append(k)
    if not np.all(np.isfinite(batch)):
        raise SolverUnstable("trace inversion produced non-finite points")
    order = np.asarray(order[::-1])
    tips = batch[::-1]
    times = t0 * np.exp(order * delta)

    verts = [0j, t0 * complex(math.cos(thetas[0]), math.sin(thetas[0]))]
    stamps = [0.0, t0]
    for t, p in zip(times, tips):
        if complex(p) != verts[-1]:
            verts.append(complex(p))
            stamps.append(float(t))
    trace = PolyCurve(tuple(verts), tuple(stamps))
    return SLEHull(params, t0, t_end, delta, thetas, trace, seed)


def whole_plane_ensemble(params: SLEParams, t_end: float, points, n: int,
                         seed: int, dt: float = 1e-4,
                         t0: float = T0_DEFAULT):
    """n independent driving paths tracking g_t and g_t' at fixed points.

    Returns (thetas_end, g, gprime) where g and gprime have shape
    (n, len(points)).  No traces are built; this is the cheap bulk route
    for ensemble means.
    """
    pts = np.asarray([as_complex(p) for p in points], dtype=complex)
    span = math.log(t_end) - math.log(t0)
    n_steps = max(1, int(round(span / dt)))
    delta = span / n_steps
    gen = RngStream(seed).generator()
    theta = gen.uniform(0.0, 2.0 * math.pi, size=n)
    z = np.tile(pts, (n, 1))
    dz = np.ones_like(z)
    s = t0
    sq = math.sqrt(params.kappa * delta)
    for _ in range(n_steps):
        theta = theta + sq * gen.standard_normal(n)
        z, dz = _step_forward(z, dz, s, theta[:, None], delta)
        s *= math.exp(delta)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(dz))):
        raise SolverUnstable("ensemble produced non-finite map values")
    return theta, z, dz


def trace_is_simple(hull: SLEHull, tol_factor: float = 0.25,
                    window: int = 5) -> bool:
    """Crude self-intersection detector on the discretized trace: every
    vertex must stay clear of vertices more than `window` samples back,
    relative to the local sampling resolution.  Near-returns at finer
    scales than the trace resolution are discretization artifacts, not
    failures of simpleness."""
    v = hull.trace.as_array()
    if len(v) < window + 3:
        return True
    gaps = np.abs(np.diff(v))
    for i in range(window + 1, len(v)):
        d = np.abs(v[: i - window] - v[i])
        local = tol_factor * float(np.min(gaps[max(0, i - 3): i]))
        if np.any(d < local):
            return False
    return True


# ---------------------------------------------------------------------------
# conformal modulus via excursion flux


def _boundary_nodes(D: Domain, n_nodes: int):
    """Quadrature nodes and arclength weights on the outer boundary."""
    if isinstance(D, Disk):
        phis = 2.0 * math.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        pts = D.center + D.radius * np.exp(1j * phis)
        w = 2.0 * math.pi * D.radius / n_nodes
        return pts, np.full(n_nodes, w)
    if isinstance(D, PolylineJordan):
        v = D.boundary_chain().vertices
        seg = np.abs(np.diff(v))
        total = float(seg.sum())
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        targets = total * (np.arange(n_nodes) + 0.5) / n_nodes
        j = np.searchsorted(cum, targets) - 1
        frac = (targets - cum[j]) / seg[j]
        pts = v[j] + frac * (v[j + 1] - v[j])
        return pts, np.full(n_nodes, total / n_nodes)
    raise ValueError(f"no boundary quadrature for {type(D).__name__}")


def annulus_modulus(D: Domain, K, n: int, seed: int, n_radii: int = 4,
                    wos_eps: float | None = None) -> Estimate:
    """Modulus s of the conformal annulus D minus K (image A_{s,1}).

    Uses the conformal invariant s = exp(-2 pi / F) where F is the total
    excursion flux from the outer boundary into K.  The flux is measured
    through interior contours: on circles C_rho inside the annular gap the
    circular mean of h(z) = P(hit K before dD) is exactly linear in
    log rho with slope -F / (2 pi), so a least-squares log-slope over a
    small radius ladder recovers F with bounded relative variance (each
    walk is a Bernoulli trial with order-one success probability, unlike
    boundary-local difference quotients).
    """
    if isinstance(K, SLEHull):
        K = K.hull_set()
    r_in = K.radial_range()[1]
    d0 = float(min(p.dist(np.asarray([0j]))[0] for p in D.boundary_sets()))
    if not D.contains(0j) or r_in >= d0:
        raise ValueError("need K around the origin, strictly inside D")
    lo, hi = 1.3 * r_in, 0.75 * d0
    if lo >= hi:
        lo, hi = 1.05 * r_in, 0.9 * d0
    if lo >= hi:
        raise ValueError("no annular gap between K and the boundary")
    radii = np.exp(np.linspace(math.log(lo), math.log(hi), n_radii))
    Dm = DomainMinusSet(D, K)
    if wos_eps is None:
        wos_eps = 1e-4 * r_in
    rng = RngStream(seed)
    means, varis = [], []
    m_per = max(1, n // n_radii)
    for i, rho in enumerate(radii):
        gen = rng.child(i).generator()
        ang = gen.uniform(0.0, 2.0 * math.pi, size=m_per)
        z0 = rho * np.exp(1j * ang)
        exits = wos_exit_points(Dm, z0, wos_eps, rng.child(1000 + i))
        hits = (K.dist_wos(exits, 10.0 * wos_eps) <= 10.0 * wos_eps).astype(float)
        means.append(float(hits.mean()))
        varis.append(float(hits.var() / m_per) + 1e-12)
    x = np.log(radii)
    w = 1.0 / np.asarray(varis)
    xb = float(np.sum(w * x) / np.sum(w))
    yb = float(np.sum(w * np.asarray(means)) / np.sum(w))
    sxx = float(np.sum(w * (x - xb) ** 2))
    slope = float(np.sum(w * (x - xb) * (np.asarray(means) - yb)) / sxx)
    slope_var = 1.0 / sxx
    if slope >= 0:
        raise ValueError("measured flux is not positive")
    inv_l = -slope  # equals 1 / log(1/s)
    s = math.exp(-1.0 / inv_l)
    stderr = s * math.sqrt(slope_var) / inv_l ** 2
    return Estimate(s, stderr, m_per * n_radii, seed)


# ---------------------------------------------------------------------------
# reversed-radial density


def _check_inside(hull: SLEHull, D: Domain):
    v = hull.trace.as_array()
    if not all(D.contains(complex(z)) for z in v[1:]):
        raise HullTouchesBoundary("hull reaches the domain boundary")
    if float(np.min(D.dist_to_boundary(v))) <= 1e-9 * D.scale():
        raise HullTouchesBoundary("hull is numerically on the boundary")


def _image_domain(hull: SLEHull, D: Domain, n_nodes: int = 192):
    """g_t(D): region between the image of dD and the circle C_t."""
    pts, _ = _boundary_nodes(D, n_nodes)
    img, _ = hull.map_at(pts)
    jordan = PolylineJordan(img)
    dom = DomainMinusSet(jordan, ClosedDisk(0j, hull.t_end))
    return dom, jordan.boundary_chain()


@dataclass(frozen=True)
class DensityParts:
    """Measured ingredients of the reversed-radial density."""

    lam_star: Estimate
    modulus: Estimate
    exc_w: Estimate
    exc_tip: Estimate
    g_prime_w: float
    value: Estimate


def _assemble_density(params: SLEParams, t: float, lam: Estimate,
                      s: Estimate, exc_w: Estimate, exc_tip: Estimate,
                      seed: int) -> Estimate:
    """Combine measured factors into the density value.

    Starting from the defining product
        exp{(c/2) Lam*} t^{b-btilde} |g'(w)|^b |rho'(U)|^b |rho'(g(w))|^b
        s^{btilde-b} [log(1/s)]^{c/2},
    the boundary derivatives of the annulus uniformizer rho are expressed
    through excursion values: |rho'(U)| = exc_tip * s * log(1/s) measured at
    the driving point in the image domain, and |g'(w)| |rho'(g(w))| =
    exc_w * log(1/s) measured at w in D minus the hull (the excursion
    density transforms with the first derivative, so g' cancels).  The
    powers of s and log(1/s) collect to s^btilde and log^(2b + c/2).
    """
    b, bt, c = params.b, params.btilde, params.c
    L = math.log(1.0 / s.value)
    value = (math.exp(0.5 * c * lam.value) * t ** (b - bt)
             * (exc_w.value * exc_tip.value) ** b
             * s.value ** bt * L ** (2.0 * b + 0.5 * c))
    # delta method on log value
    dlog_s = (bt / s.value
              - (2.0 * b + 0.5 * c) / (s.value * L))
    rel = math.sqrt((0.5 * c * lam.stderr) ** 2
                    + (b * exc_w.stderr / exc_w.value) ** 2
                    + (b * exc_tip.stderr / exc_tip.value) ** 2
                    + (dlog_s * s.stderr) ** 2)
    return Estimate(value, abs(value) * rel, lam.n, seed)


def rn_density(hull: SLEHull, D: Domain, w, params: SLEParams | None = None,
               seed: int = 0, n: int = 20_000,
               r_schedule=None, lam_kwargs=None) -> DensityParts:
    """Density of radial SLE from the interior of D to w with respect to
    whole-plane SLE, evaluated at the sampled hull.

    Every conformal factor is measured: Lam*(hull, boundary) by the loop
    Monte Carlo, the annulus modulus and the two boundary-derivative
    factors by excursion estimates, and the map data from the composed
    slit maps.  For kappa = 8/3 the central charge vanishes and the loop
    term is identically 1.
    """
    if params is None:
        params = hull.params
    _check_inside(hull, D)
    w = as_complex(w)
    t = hull.t_end
    K = hull.hull_set()
    bset = _boundary_as_set(D)

    s_est = annulus_modulus(D, K, n, seed + 1)
    # boundary difference quotients are Bernoulli trials with success
    # probability proportional to the offset, so the ladders sit at a few
    # percent of the local feature size to keep the variance workable
    scale = D.scale()
    exc_w = excursion_estimate(DomainMinusSet(D, K), w, K, 3 * n, seed + 2,
                               eps_ladder=[0.08 * scale, 0.04 * scale],
                               wos_eps=2e-4 * hull.radius())
    dom_img, chain = _image_domain(hull, D)
    U = hull.driving_point
    exc_tip = excursion_estimate(dom_img, U, chain, n, seed + 3,
                                 eps_ladder=[0.2 * t, 0.1 * t],
                                 normal=U / abs(U), wos_eps=1e-4 * t)
    if params.c == 0.0:
        lam = Estimate(0.0, 0.0, 0, seed)
    else:
        kw = dict(lam_kwargs or {})
        depth = int(kw.pop("depth", 12))
        if r_schedule is None:
            top = hull.radius()
            r_schedule = [top * math.exp(-j) for j in range(1, depth + 1)]
        lam = _lam_estimate(K, bset, r_schedule, seed + 4, **kw)
    value = _assemble_density(params, t, lam, s_est, exc_w, exc_tip, seed)
    gw, gdw = hull.map_at(np.asarray([w]))
    return DensityParts(lam, s_est, exc_w, exc_tip, float(np.abs(gdw[0])),
                        value)


def _lam_estimate(K, bset, r_schedule, seed, **kwargs) -> Estimate:
    res = lambda_star(K, bset, seed, r_schedule=r_schedule, **kwargs)
    return Estimate(res.value, res.stderr, 0, seed)


def density_limit_check(D: Domain, w, params: SLEParams, t_ladder, n: int,
                        seed: int, n_calib: int = 3, dt: float = 1e-4,
                        n_mc: int = 20_000, target: float | None = None,
                        lam_kwargs=None):
    """Ensemble mean of the density against its small-t limit.

    For each t the heavy conformal factors (loop mass, modulus, excursion
    derivatives) vary across hulls only at relative order t, so they are
    measured in full on n_calib sampled hulls, while the per-sample map
    factor |g_t'(w)|^b is tracked across the whole n-path ensemble.  The
    deviation from the limit value should shrink like 1/log(1/t).

    Returns a list of rows (t, mean, stderr, target, deviation).
    """
    w = as_complex(w)
    rows = []
    for j, t in enumerate(t_ladder):
        base = seed + 1000 * j
        vals, variances, gcal = [], [], []
        for i in range(n_calib):
            hull = whole_plane_sample(params, t, dt=dt, seed=base + i + 1)
            parts = rn_density(hull, D, w, params, seed=base + 100 * i,
                               n=n_mc, lam_kwargs=lam_kwargs)
            vals.append(parts.value.value)
            variances.append(parts.value.stderr ** 2)
            gcal.append(parts.g_prime_w ** params.b)
        cal_mean = float(np.mean(vals))
        cal_var = float(np.var(vals) / len(vals) + np.mean(variances)
                        / len(vals))
        _, _, gdz = whole_plane_ensemble(params, t, [w], n, base + 500,
                                         dt=dt)
        gb = np.abs(gdz[:, 0]) ** params.b
        lane = float(np.mean(gb)) / float(np.mean(gcal))
        lane_err = float(np.std(gb) / math.sqrt(len(gb))) / float(
            np.mean(gcal))
        mean = cal_mean * lane
        stderr = math.hypot(math.sqrt(cal_var) * lane, cal_mean * lane_err)
        if target is None:
            tgt = _limit_target(D, w, params, base + 900)
        else:
            tgt = target
        rows.append((float(t), mean, stderr, tgt, mean - tgt))
    return rows


def _limit_target(D: Domain, w: complex, params: SLEParams,
                  seed: int) -> float:
    """|psi'(0)|^btilde |psi'(w)|^b for the uniformizer psi: D -> unit disk
    fixing 0, exact for disks."""
    if isinstance(D, Disk):
        # psi(z) = R z / (R^2 + conj(z0) z - |z0|^2) maps the disk of
        # radius R centered at z0 onto the unit disk fixing the origin
        z0, R = D.center, D.radius
        psi0 = R / (R ** 2 - abs(z0) ** 2)
        psiw = (R * (R ** 2 - abs(z0) ** 2)
                / abs(R ** 2 + np.conj(z0) * w - abs(z0) ** 2) ** 2)
        return float(psi0 ** params.btilde * psiw ** params.b)
    raise ValueError("closed-form limit target only available for disks; "
                     "pass target= explicitly")
