"""Monte Carlo planar Brownian motion.

Walk-on-spheres exit sampling, hitting probabilities, excursion (normal
derivative) estimates, conformal radius and logarithmic capacity.  All
estimators are pure functions of (inputs, seed): samples are drawn from
counter-based Philox streams and reduced in fixed order, so reruns are
bit-identical and stream indices parallelize safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ClosedDisk, CompactSet, Domain, DomainMinusSet,
                       ExteriorDisk, HullComplement, as_complex)

DEFAULT_EPS_FRAC = 1e-6
STEP_CAP = 10_000_000
CHUNK = 1 << 14


class StepLimitExceeded(RuntimeError):
    """A walk exceeded the configured step budget (near-polar geometry)."""


class ExtrapolationUnstable(RuntimeError):
    """Finite-difference ladder values are non-monotone beyond noise."""


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result with exact merge semantics.

    stderr is s/sqrt(n) with s^2 the (1/n)-normalized sample variance, so
    pooled merges reconstruct the full-run mean and variance exactly.
    """

    value: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    @staticmethod
    def from_samples(x: np.ndarray, seed: int) -> "Estimate":
        x = np.asarray(x, dtype=float)
        n = x.size
        if n == 0:
            raise ValueError("no samples")
        mean = float(x.mean())
        var = float(x.var())  # population-style, merge-exact
        return Estimate(mean, math.sqrt(var / n), n, seed)

    def merge(self, other: "Estimate") -> "Estimate":
        n1, n2 = self.n, other.n
        n = n1 + n2
        mean = (n1 * self.value + n2 * other.value) / n
        # pooled update: the variances about each sample's own mean plus the
        # spread of the two means, with no cancelling difference of moments
        var = ((n1 * n1 * self.stderr**2 + n2 * n2 * other.stderr**2) / n
               + n1 * n2 * (self.value - other.value)**2 / n**2)
        return Estimate(mean, math.sqrt(var / n), n, self.seed)

    def scaled(self, lam: float) -> "Estimate":
        return Estimate(self.value * lam, abs(lam) * self.stderr, self.n, self.seed)

    def plus(self, other: "Estimate") -> "Estimate":
        """Sum of independent estimates (errors in quadrature)."""
        return Estimate(self.value + other.value,
                        math.hypot(self.stderr, other.stderr),
                        min(self.n, other.n), self.seed)


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream: same (seed, stream) gives the same samples on
    every platform, and distinct stream indices are independent."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream * 1_000_003 + index + 1)


# ---------------------------------------------------------------------------
# walk-on-spheres core


def _domain_features(D: Domain) -> list[CompactSet]:
    return D.boundary_sets()


def _is_unbounded(D: Domain) -> bool:
    """Unbounded with compact boundary (the recurrent-return case)."""
    if isinstance(D, (ExteriorDisk, HullComplement)):
        return True
    if isinstance(D, DomainMinusSet):
        return _is_unbounded(D.base)
    return False


def _circle_harmonic_sample(z: np.ndarray, c: float,
                            gen: np.random.Generator) -> np.ndarray:
    """Exact hitting points on the circle |w| = c for BM started at points z
    outside it.

    Harmonic measure from an exterior point equals that from its inversion
    across the circle, and the interior law is the push-forward of the
    uniform law by the disk automorphism sending 0 to the inverted point.
    """
    a = c / np.conj(z)
    u = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, size=z.shape))
    return c * (a + u) / (1.0 + np.conj(a) * u)


def wos_exit_batch(features: list[CompactSet], z0: np.ndarray, eps: float,
                   gen: np.random.Generator,
                   unbounded: bool = False) -> np.ndarray:
    """Vectorized walk-on-spheres: from each start point, jump on maximal
    circles avoiding every feature until within eps of one, then project to
    the nearest feature point.

    In unbounded domains the jump radius is capped at 10|z| so walks that
    wander far still return (planar BM is neighborhood recurrent).  Raises
    StepLimitExceeded past STEP_CAP steps, read at call time.
    """
    z = np.array(z0, dtype=complex)
    alive = np.ones(z.shape, dtype=bool)
    ctrl = 0.0
    if unbounded:
        # the compact boundary sits inside |w| <= rmax; walkers that stray far
        # re-enter through an exact harmonic-measure jump onto this circle
        ctrl = 1.5 * max(f.radial_range()[1] for f in features)
    steps = 0
    while True:
        if unbounded:
            far = alive & (np.abs(z) > 2.0 * ctrl)
            if np.any(far):
                z[far] = _circle_harmonic_sample(z[far], ctrl, gen)
        za = z[alive]
        if za.size == 0:
            break
        d = features[0].dist_wos(za, eps)
        for f in features[1:]:
            d = np.minimum(d, f.dist_wos(za, eps))
        done = d <= eps
        if np.any(done):
            idx = np.flatnonzero(alive)[done]
            still = np.flatnonzero(alive)[~done]
            alive[idx] = False
        else:
            still = np.flatnonzero(alive)
        if still.size:
            r = d[~done] if np.any(done) else d
            if unbounded:
                r = np.minimum(r, 10.0 * np.maximum(np.abs(z[still]), eps))
            th = gen.uniform(0.0, 2.0 * np.pi, size=still.size)
            z[still] = z[still] + r * np.exp(1j * th)
        steps += 1
        if steps > STEP_CAP:
            raise StepLimitExceeded(f"walk exceeded {STEP_CAP} steps")
    # project survivors to the nearest feature point: one projection per
    # feature gives both the point and its distance
    p_best = features[0].nearest(z)
    d_best = np.abs(z - p_best)
    for f in features[1:]:
        pf = f.nearest(z)
        df = np.abs(z - pf)
        closer = df < d_best
        p_best = np.where(closer, pf, p_best)
        d_best = np.minimum(d_best, df)
    return p_best


def wos_exit_points(D: Domain, z0: np.ndarray, eps: float | None,
                    rng: RngStream) -> np.ndarray:
    if eps is None:
        eps = DEFAULT_EPS_FRAC * D.scale()
    # estimators start many walkers at one point: check each point once
    for z in np.unique(np.atleast_1d(z0)):
        if not D.contains(complex(z)):
            raise ValueError(f"start point {z} not in domain")
    gen = rng.generator()
    out = np.empty(len(z0), dtype=complex)
    feats = _domain_features(D)
    unb = _is_unbounded(D)
    for i in range(0, len(z0), CHUNK):
        out[i:i + CHUNK] = wos_exit_batch(feats, z0[i:i + CHUNK], eps, gen, unb)
    return out


def hitting_prob(D: Domain, z, V: CompactSet, n: int, seed: int,
                 eps: float | None = None) -> Estimate:
    """MC estimate of the probability that BM from z exits D through V."""
    if eps is None:
        eps = DEFAULT_EPS_FRAC * D.scale()
    z0 = np.full(n, as_complex(z), dtype=complex)
    exits = wos_exit_points(D, z0, eps, RngStream(seed))
    hits = V.dist_wos(exits, 10.0 * eps) <= 10.0 * eps
    return Estimate.from_samples(hits.astype(float), seed)


# ---------------------------------------------------------------------------
# excursion derivative


def _boundary_normal(D: Domain, z: complex) -> complex:
    """Inward unit normal of the boundary piece nearest to z."""
    feats = _domain_features(D)
    zz = np.asarray([z], dtype=complex)
    best, bn = None, None
    for f in feats:
        d = float(f.dist(zz)[0])
        if best is None or d < best:
            best, bn = d, f
    p = complex(bn.nearest(zz)[0])
    # probe both sides of the local normal direction for the inward one
    if isinstance(bn, ClosedDisk):
        bn = bn.boundary_circle()
    if hasattr(bn, "center"):
        v = (p - bn.center) / abs(p - bn.center)
    else:
        # segment-like: rotate the tangent
        q = complex(bn.nearest(zz + 1e-7)[0])
        t = q - p
        if t == 0:
            t = 1.0
        v = 1j * t / abs(t)
    h = max(1e-9, 1e-6 * D.scale())
    if D.contains(p + h * v):
        return v
    if D.contains(p - h * v):
        return -v
    raise ValueError("could not find inward normal at boundary point")


def richardson(eps_ladder, values, errors):
    """Extrapolate f(eps) = A + c1 eps + c2 eps^2 + ... to eps = 0 by a
    Neville tableau; returns (A, stderr) with errors propagated linearly."""
    e = np.asarray(eps_ladder, dtype=float)
    v = [np.asarray(values, dtype=float).copy()]
    g = [np.asarray(errors, dtype=float).copy()]
    k = len(e)
    for lvl in range(1, k):
        prev_v, prev_g = v[-1], g[-1]
        cur_v = np.empty(k - lvl)
        cur_g = np.empty(k - lvl)
        for i in range(k - lvl):
            a, b = e[i], e[i + lvl]
            w1 = -b / (a - b)
            w2 = a / (a - b)
            cur_v[i] = w1 * prev_v[i] + w2 * prev_v[i + 1]
            cur_g[i] = math.hypot(w1 * prev_g[i], w2 * prev_g[i + 1])
        v.append(cur_v)
        g.append(cur_g)
    return float(v[-1][0]), float(g[-1][0])


def excursion_estimate(D: Domain, z, V: CompactSet, n: int, seed: int,
                       eps_ladder=None, normal: complex | None = None,
                       wos_eps: float | None = None) -> Estimate:
    """Excursion measure exc_D(z, V): inward normal derivative of h_D(., V)
    at the boundary point z, by a Richardson ladder of finite differences.

    Default ladder is (eps, eps/2) with eps = 1e-2 of domain scale; the
    2-level Richardson step removes the O(eps) term of the difference
    quotient, so the residual bias is O(eps^2) at analytic boundary points.
    """
    z = as_complex(z)
    if normal is None:
        normal = _boundary_normal(D, z)
    scale = D.scale()
    if eps_ladder is None:
        e0 = 1e-2 * scale
        eps_ladder = [e0, e0 / 2.0]
    eps_ladder = sorted(float(e) for e in eps_ladder)
    vals, errs = [], []
    for i, e in enumerate(eps_ladder):
        est = hitting_prob(D, z + e * normal, V, n, seed + 7919 * i, eps=wos_eps)
        vals.append(est.value / e)
        errs.append(est.stderr / e)
    if len(eps_ladder) >= 3:
        diffs = np.diff(vals)
        noise = 3.0 * np.hypot(np.asarray(errs[:-1]), np.asarray(errs[1:]))
        signs = np.sign(diffs[np.abs(diffs) > noise])
        if len(signs) >= 2 and np.any(signs[1:] != signs[0]):
            raise ExtrapolationUnstable("ladder values non-monotone beyond noise")
    value, err = richardson(eps_ladder, vals, errs)
    return Estimate(value, err, n * len(eps_ladder), seed)


# ---------------------------------------------------------------------------
# conformal radius and capacity


def conformal_radius(D: Domain, n: int, seed: int,
                     eps: float | None = None) -> Estimate:
    """psi'(0) = exp(-E^0[log |exit point|]) for a simply connected D with
    0 inside; psi is the uniformizer of D onto the unit disk fixing 0."""
    if not D.contains(0j):
        raise ValueError("domain must contain 0")
    z0 = np.zeros(n, dtype=complex)
    exits = wos_exit_points(D, z0, eps, RngStream(seed))
    logs = np.log(np.abs(exits))
    mean = Estimate.from_samples(logs, seed)
    value = math.exp(-mean.value)
    return Estimate(value, value * mean.stderr, n, seed)


def capacity_estimate(K: CompactSet, n: int, seed: int,
                      launch_radius: float | None = None,
                      eps: float | None = None) -> Estimate:
    """Logarithmic capacity of a compact connected K: mean of log |hit point|
    over walks launched uniformly from a large circle.

    The uniform launch cancels the 1/z harmonic correction, leaving an
    O(launch_radius^-2) bias.
    """
    _, rmax = K.radial_range()
    rmax = max(rmax, 1e-12)
    if launch_radius is None:
        launch_radius = 200.0 * rmax
    if launch_radius <= 2.0 * rmax:
        raise ValueError("launch radius must dominate the set")
    if eps is None:
        eps = DEFAULT_EPS_FRAC * rmax
    gen = RngStream(seed).generator()
    out = np.empty(n, dtype=float)
    for i in range(0, n, CHUNK):
        m = min(CHUNK, n - i)
        th = gen.uniform(0.0, 2.0 * np.pi, size=m)
        z0 = launch_radius * np.exp(1j * th)
        hits = wos_exit_batch([K], z0, eps, gen, unbounded=True)
        # projection can land exactly on a vertex at the origin; the log
        # singularity is integrable, so flooring at the stopping tolerance
        # adds only an O(eps log eps) bias
        out[i:i + m] = np.log(np.maximum(np.abs(hits), eps))
    return Estimate.from_samples(out, seed)
