"""Brownian bubble-difference masses m(z; D, Dtilde).

Two deliberately independent routes compute the same quantity:

* ``rho`` integrates closed-form boundary kernels by quadrature (no random
  numbers at all);
* ``bubble_diff_mass`` is Monte Carlo through the factorization
  m = pi * exc_{Dtilde}(z, new boundary) * E[h_D(W, z)], where W is the
  excursion exit point on the new boundary and the boundary density
  h_D(W, z) is estimated by small-arc hitting frequency around z.

Each validates the other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .engine import (CHUNK, Estimate, RngStream, richardson, wos_exit_batch,
                     _domain_features, _is_unbounded, _boundary_normal)
from .geometry import (Annulus, Disk, Domain, ExteriorDisk, HalfPlane,
                       Intersection, as_complex)


class ArcTooCoarse(RuntimeError):
    """The small-arc density estimator's bias exceeds its noise."""


@dataclass(frozen=True)
class BubbleMass:
    """Deterministic bubble-mass value with an attached error band."""

    value: float
    error: float


def rho(R: float, nodes: int = 256) -> BubbleMass:
    """Mass of bubbles at 1 in the disk exterior that leave the annulus
    1 < |z| < R, by angular quadrature of closed-form boundary kernels:

        rho(R) = pi * Int_{C_R} h_{dA_R}(1, w) h_O(w, 1) |dw|.

    Tends to 1/(2 log R); the attached band 4/(R log R) covers the gap.
    """
    if R <= 1:
        raise kernels.DomainViolation("need R > 1")
    theta = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    w = R * np.exp(1j * theta)
    h_ann = np.array([kernels.boundary_poisson_annulus(R, t) for t in theta])
    h_ext = np.array([kernels.poisson_exterior(wi, 1.0) for wi in w])
    # trapezoid on a periodic integrand; |dw| = R dtheta
    value = math.pi * float(np.mean(h_ann * h_ext)) * 2.0 * math.pi * R
    return BubbleMass(value, 4.0 / (R * math.log(R)))


def _new_boundary(D: Domain, Dtilde: Domain):
    """Boundary pieces of Dtilde that are not boundary pieces of D."""
    base = D.boundary_sets()

    def known(p):
        return any(p is q or p == q for q in base)

    fresh = [p for p in Dtilde.boundary_sets() if not known(p)]
    if not fresh:
        raise ValueError("Dtilde adds no boundary inside D")
    return fresh


def _halfplane_exit(W: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Exact exit points on the real axis for BM started at W in Im z > 0."""
    u = gen.uniform(0.0, 1.0, size=W.shape)
    return W.real + W.imag * np.tan(math.pi * (u - 0.5)) + 0j


def bubble_diff_mass(z, D: Domain, Dtilde: Domain, n: int, seed: int,
                     normal: complex | None = None,
                     eps_ladder=None, eta: float | None = None) -> Estimate:
    """MC estimate of the bubble-difference mass m(z; D, Dtilde) at a smooth
    boundary point z of both domains, Dtilde contained in D and agreeing
    with D near z.

    Per offset eps the estimator is

        pi/eps * mean[ 1{exit of Dtilde-walk from z+eps*n lands on the new
                         boundary} * (arc-frequency density of D-walk from
                         that landing point near z) ]

    and a Richardson ladder in eps removes the leading offset bias.
    Raises ArcTooCoarse when halving the density arc shifts the result by
    more than its combined noise.
    """
    if n < 1:
        raise ValueError(f"need at least one walker, got n = {n}")
    z = as_complex(z)
    if normal is None:
        normal = _boundary_normal(Dtilde, z)
    scale = Dtilde.scale()
    if eps_ladder is None:
        e0 = 0.05 * scale
        eps_ladder = [e0, e0 / 2.0]
    eps_ladder = sorted(float(e) for e in eps_ladder)
    if eta is None:
        eta = n ** -0.25 * D.scale()
    fresh = _new_boundary(D, Dtilde)
    feats_D = _domain_features(D)

    def _min_dist(pieces, pts):
        d = pieces[0].dist(pts)
        for f in pieces[1:]:
            d = np.minimum(d, f.dist(pts))
        return d

    feats_tilde = _domain_features(Dtilde)
    unb_t, unb_D = _is_unbounded(Dtilde), _is_unbounded(D)
    wos_eps = 1e-6 * scale
    vals, errs, val_half = [], [], []
    for i, e in enumerate(eps_ladder):
        gen = RngStream(seed).child(i).generator()
        payoff = np.zeros(n)
        payoff_h = np.zeros(n)
        for lo in range(0, n, CHUNK):
            m = min(CHUNK, n - lo)
            z0 = np.full(m, z + e * normal, dtype=complex)
            exits = wos_exit_batch(feats_tilde, z0, wos_eps, gen, unb_t)
            # exits are projected onto a boundary piece, so nearest-piece
            # classification is exact: new boundary lies strictly inside D
            acc = _min_dist(fresh, exits) < _min_dist(feats_D, exits)
            if np.any(acc):
                W = exits[acc]
                if isinstance(D, HalfPlane):
                    final = _halfplane_exit(W, gen)
                else:
                    final = wos_exit_batch(feats_D, W, wos_eps, gen, unb_D)
                close = np.abs(final - z)
                p = np.zeros(m)
                ph = np.zeros(m)
                p[acc] = (close <= eta) / (2.0 * eta)
                ph[acc] = (close <= eta / 2.0) / eta
                payoff[lo:lo + m] = p
                payoff_h[lo:lo + m] = ph
        est = Estimate.from_samples(math.pi / e * payoff, seed)
        est_h = Estimate.from_samples(math.pi / e * payoff_h, seed)
        vals.append(est.value)
        errs.append(est.stderr)
        val_half.append((est_h.value, est_h.stderr))
    value, err = richardson(eps_ladder, vals, errs)
    value_h, err_h = richardson(eps_ladder, [v for v, _ in val_half],
                                [s for _, s in val_half])
    if abs(value - value_h) > 3.0 * math.hypot(err, err_h) + 1e-12:
        raise ArcTooCoarse(
            f"halving the density arc moved the estimate from {value:.4g} "
            f"to {value_h:.4g}, beyond noise {math.hypot(err, err_h):.2g}")
    return Estimate(value, err, n * len(eps_ladder), seed)


def bubble_mass_blocked(w, D: Domain, R: float, n: int, seed: int):
    """Split the bubble mass at w on C_1 into the part staying in D but
    leaving the annulus A_R (mass_inside) and the part escaping D
    (mass_escaping), for A_R <= D <= exterior disk.

    Returns (mass_inside, mass_escaping, predictions) where predictions
    holds the leading-order forms q/(2 log R) and (1-q)/(2 log R), with q
    the probability that BM from a uniform point of C_R exits D at C_1.
    """
    from .engine import wos_exit_points
    w = as_complex(w)
    if abs(abs(w) - 1.0) > 1e-9:
        raise ValueError("w must lie on the unit circle")
    exterior = ExteriorDisk(0j, 1.0)
    ann = Intersection([exterior, Disk(0j, R)])
    inside = bubble_diff_mass(w, D, ann, n, seed)
    escaping = bubble_diff_mass(w, exterior, D, n, seed + 1)
    # q from uniform launch on C_R
    gen = RngStream(seed).child(999).generator()
    th = gen.uniform(0.0, 2.0 * math.pi, size=max(n // 4, 1000))
    launch = R if D.contains(R + 0j) else R * (1.0 - 1e-9)
    z0 = launch * np.exp(1j * th)
    exits = wos_exit_points(D, z0, None, RngStream(seed).child(1000))
    q = float(np.mean(np.abs(np.abs(exits) - 1.0) <= 1e-4))
    lead = 1.0 / (2.0 * math.log(R))
    predictions = {"q": q, "mass_inside": q * lead,
                   "mass_escaping": (1.0 - q) * lead}
    return inside, escaping, predictions
