"""Closed-form reference values that the benchmark checks loupe's artifacts
against.

Everything here is plain `math`: nothing imports loupe, so a fault in loupe
cannot move a reference.  Series are summed until their terms stop changing
the total in double precision.
"""

from __future__ import annotations

import math

# whole-plane hulls start from the closed disk of capacity e^-12; the
# sampler's step count is fixed by this truncation and the step size
T0 = math.exp(-12.0)


def _series(term, rtol: float = 1e-17, max_terms: int = 10_000) -> float:
    total = 0.0
    for m in range(1, max_terms + 1):
        t = term(m)
        total += t
        if abs(t) <= rtol * max(abs(total), 1e-300):
            break
    return total


def harmonic_annulus(z_abs: float, r: float, R: float) -> float:
    """P(Brownian motion from |z| = z_abs leaves r < |w| < R through C_R)."""
    return math.log(z_abs / r) / math.log(R / r)


def excursion_annulus_inner(r: float, R: float) -> float:
    """Excursion measure from a point of C_r to the whole of C_R in the
    annulus r < |w| < R: the normal derivative of log(|w|/r)/log(R/r)."""
    return 1.0 / (r * math.log(R / r))


def excursion_ladder_bias(r: float, R: float, eps_ladder) -> float:
    """Bias of a finite-difference excursion estimate at a point of C_r:
    the exact difference quotients h(r + eps)/eps on the ladder,
    extrapolated linearly to eps = 0 through the two smallest offsets, minus
    the exact excursion value."""
    a, b = sorted(eps_ladder)[:2]
    fa = harmonic_annulus(r + a, r, R) / a
    fb = harmonic_annulus(r + b, r, R) / b
    return (b * fa - a * fb) / (b - a) - excursion_annulus_inner(r, R)


def disk_uniformizer_derivative(center: complex, R: float, z: complex = 0j
                                ) -> float:
    """|psi'(z)| for psi: {|w - center| < R} -> unit disk with psi(0) = 0,
    psi(w) = R w / (R^2 + conj(center) w - |center|^2).  At z = 0 this is the
    inverse conformal radius R / (R^2 - |center|^2)."""
    c2 = abs(center) ** 2
    return R * (R * R - c2) / abs(R * R + center.conjugate() * z - c2) ** 2


def rho_series(R: float) -> float:
    """Mass of Brownian bubbles rooted at 1 in {|z| > 1} that leave the
    annulus 1 < |z| < R: 1/(2 log R) + 2 Sum_m m R^-m / (R^m - R^-m)."""
    if R <= 1.0:
        raise ValueError("need R > 1")
    return 1.0 / (2.0 * math.log(R)) + _series(
        lambda m: 2.0 * m * R ** -m / (R ** m - R ** -m))


def concentric_loop_mass(R: float, s: float) -> float:
    """Mass of loops in {|z| > s} that hit both C_1 and C_R (s < 1 < R).

    Integrating 2 rho(e^u) over log R < u < log(R/s) in closed form gives
    log(b/a) + 2 Sum_m [log(1 - e^{-2mb}) - log(1 - e^{-2ma})] with
    a = log R and b = log(R/s).  By inversion z -> 1/z the same number is
    the mass of loops in {|z| < 1/s} that hit C_1 and the closed disk of
    radius 1/R.
    """
    if not (0.0 < s < 1.0 < R):
        raise ValueError("need 0 < s < 1 < R")
    a, b = math.log(R), math.log(R / s)
    return math.log(b / a) + 2.0 * _series(
        lambda m: math.log1p(-math.exp(-2.0 * m * b))
        - math.log1p(-math.exp(-2.0 * m * a)))


def lambda_star_circles(R: float) -> float:
    """Lambda*(C_1, C_R) = -log log R - 2 Sum_m log(1 - R^{-2m}): the limit of
    concentric_loop_mass(R, r) - log log(1/r) as r -> 0."""
    return -math.log(math.log(R)) - 2.0 * _series(
        lambda m: math.log1p(-R ** (-2.0 * m)))


def renormalized_circles(R: float, r: float) -> float:
    """Lambda(C_1, C_R; {|z| > r}) - log log(1/r)."""
    return concentric_loop_mass(R, r) - math.log(math.log(1.0 / r))


def tail_fit(xs, vals) -> float:
    """Least-squares intercept a of vals = a - C/x (the extrapolation model
    of a renormalized sequence in x = log(1/r))."""
    n = len(xs)
    us = [-1.0 / x for x in xs]
    ub, vb = sum(us) / n, sum(vals) / n
    suu = sum((u - ub) ** 2 for u in us)
    slope = sum((u - ub) * (v - vb) for u, v in zip(us, vals)) / suu
    return vb - slope * ub


def lambda_star_schedule_bias(R: float, depth: int, fit_points: int) -> float:
    """Truncation bias of extrapolating the exact concentric sequence on the
    schedule r_j = e^-j, j = 1..depth, from its last fit_points entries."""
    xs = [float(j) for j in range(1, depth + 1)][-fit_points:]
    vals = [renormalized_circles(R, math.exp(-x)) for x in xs]
    return tail_fit(xs, vals) - lambda_star_circles(R)


def sle_exponents(kappa: float) -> tuple[float, float]:
    """(b, btilde) = ((6 - kappa)/(2 kappa), (kappa - 2) b / 4)."""
    b = (6.0 - kappa) / (2.0 * kappa)
    return b, (kappa - 2.0) * b / 4.0


def density_target(kappa: float, center: complex, R: float, w: complex
                   ) -> float:
    """Small-t limit |psi'(w)|^b |psi'(0)|^btilde of the reversed-radial
    density in the disk {|z - center| < R}; 0.5 for kappa = 2 in the disk
    of radius 2 at w = 2."""
    b, bt = sle_exponents(kappa)
    return (disk_uniformizer_derivative(center, R, w) ** b
            * disk_uniformizer_derivative(center, R) ** bt)


def whole_plane_steps(t: float, dt: float, t0: float = T0) -> int:
    """Loewner steps from capacity t0 to t at step size dt."""
    return max(1, int(round(math.log(t / t0) / dt)))
