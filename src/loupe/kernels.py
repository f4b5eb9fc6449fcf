"""Closed-form harmonic measure, Poisson kernels and excursion measures in
canonical domains (disk, exterior disk, annulus).

These are the ground truth for the Monte Carlo estimators.  All values are
densities per unit boundary length, or probabilities when the target is a
full boundary component.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


class DomainViolation(ValueError):
    """Arguments fall outside the kernel's domain of validity."""


def poisson_disk(z: complex, w: complex) -> float:
    """Poisson kernel of the unit disk, source z inside, w on the circle."""
    z, w = complex(z), complex(w)
    if abs(z) >= 1:
        raise DomainViolation("z must lie inside the unit disk")
    if abs(abs(w) - 1.0) > 1e-9:
        raise DomainViolation("w must lie on the unit circle")
    return (1.0 - abs(z) ** 2) / (TWO_PI * abs(z - w) ** 2)


def poisson_exterior(z: complex, w: complex) -> float:
    """Poisson kernel of {|z| > 1}, source z outside, w on the circle.

    Tends to 1/(2 pi) as z -> infinity; |2 pi value - 1| <= 4/|z| for |z| >= 2.
    """
    z, w = complex(z), complex(w)
    if abs(z) <= 1:
        raise DomainViolation("z must lie outside the unit disk")
    if abs(abs(w) - 1.0) > 1e-9:
        raise DomainViolation("w must lie on the unit circle")
    return (abs(z) ** 2 - 1.0) / (TWO_PI * abs(z - w) ** 2)


def harm_annulus(z: complex, r: float, R: float, side: str = "outer") -> float:
    """Probability of exiting the annulus r < |w| < R on the given side."""
    if not (0 < r < R):
        raise DomainViolation("need 0 < r < R")
    az = abs(complex(z))
    if not (r < az < R):
        raise DomainViolation("z must lie inside the annulus")
    outer = math.log(az / r) / math.log(R / r)
    if side == "outer":
        return outer
    if side == "inner":
        return 1.0 - outer
    raise DomainViolation("side must be 'inner' or 'outer'")


def exc_annulus(which: str, r: float, R: float) -> float:
    """Excursion measure from a boundary point of the annulus r < |z| < R to
    the full opposite circle.

    'inner-point': from a point on C_r to C_R, value 1/(r log(R/r)).
    'outer-point': from a point on C_R to C_r, value 1/(R log(R/r)).
    Both follow from 1/log R in the r = 1 annulus by the scaling covariance
    exc_D(z,V) = |f'(z)| exc_{f(D)}(f(z), f(V)).
    """
    if not (0 < r < R):
        raise DomainViolation("need 0 < r < R")
    L = math.log(R / r)
    if which == "inner-point":
        return 1.0 / (r * L)
    if which == "outer-point":
        return 1.0 / (R * L)
    raise DomainViolation("which must be 'inner-point' or 'outer-point'")


def boundary_poisson_annulus(R: float, theta: float, terms: int = 64) -> float:
    """Boundary-to-boundary kernel h_{dA}(1, R e^{i theta}) of the annulus
    1 < |z| < R, via its rapidly converging Fourier series.

    Normalized so that R * Int_0^{2pi} h dtheta = exc(1 -> C_R) = 1/log R.
    """
    if R <= 1:
        raise DomainViolation("need R > 1")
    total = 1.0 / math.log(R)
    for m in range(1, terms + 1):
        total += 4.0 * m / (R**m - R**-m) * math.cos(m * theta)
    return total / (TWO_PI * R)
