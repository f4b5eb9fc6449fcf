"""The normalized loop measure Lambda*.

Lambda*(V1, V2) is the limit of Lambda(V1, V2; O_r) - log log(1/r) as the
removed disk shrinks.  The sequence is one `loops.loop_mass_profile` over a
geometric r-schedule (one shared radial node grid), and `_extrapolate` fits
it against a C/log(1/r) tail.  The growing disks D_R are the removal center
at infinity: the same profile in the disk family, extrapolated in r = 1/R
through the same `_extrapolate` and its TailNotDecaying checks.
Center-independence (finite centers and the growing-disk family) and Mobius
invariance are exposed as measurable gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Estimate, capacity_estimate, conformal_radius
from .geometry import (Circle, ClosedDisk, CompactSet, Disk, Domain,
                       ExteriorDisk, HullComplement, MobiusMap,
                       PolylineJordan, is_infinity, mobius_image_set)
from .loops import LoopMassQuery, loop_mass, loop_mass_profile
from .loops import integrate  # noqa: F401  (bench/tracing.py patches it)


class TailNotDecaying(RuntimeError):
    """The renormalized sequence shows no decaying tail to extrapolate."""


@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolated limit of the renormalized sequence.

    table rows are (r, Lambda(V1,V2;O_r) - log log(1/r), stderr); the raw
    masses increase as r shrinks while the renormalized values approach the
    limit from above with a C/log(1/r) tail, whose fitted decay rate on log
    axes is residual_slope (about -1 when the model is right).
    """

    value: float
    stderr: float
    residual_slope: float
    table: tuple


def _max_removable_radius(sets) -> float:
    # roots live on circles of radius s in (r, min_i rmax(V_i)], so the
    # removed disk must stay strictly below every set's outer radial extent
    return min(V.radial_range()[1] for V in sets)


def default_schedule(depth: int = 8):
    return [math.exp(-j) for j in range(1, depth + 1)]


def _fit_tail(xs, vals, cov, fit_points: int = 4):
    """Least squares of value = a - C/x on the last fit_points entries.

    Returns (a, stderr of a via the covariance, residual rms, slope of the
    fitted tail magnitudes on log axes, fitted tail coefficient C).
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    k = min(fit_points, len(xs))
    sl = slice(len(xs) - k, len(xs))
    X = np.column_stack([np.ones(k), -1.0 / xs[sl]])
    coef, *_ = np.linalg.lstsq(X, vals[sl], rcond=None)
    a, C = float(coef[0]), float(coef[1])
    proj = np.linalg.pinv(X.T @ X) @ X.T
    alpha = proj[0]
    var = float(alpha @ cov[sl, sl] @ alpha)
    resid = vals[sl] - X @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    # tail decay rate across the whole table
    gaps = np.abs(vals - a)
    ok = gaps > 1e-12
    slope = float("nan")
    if ok.sum() >= 2:
        slope = float(np.polyfit(np.log(xs[ok]), np.log(gaps[ok]), 1)[0])
    return a, math.sqrt(var), rms, slope, C


def _extrapolate(rs, ests, cov, fit_points=4) -> ExtrapolationResult:
    xs = [math.log(1.0 / r) for r in rs]
    renorm = [e.value - math.log(x) for e, x in zip(ests, xs)]
    errs = [e.stderr for e in ests]
    a, a_err, rms, slope, C = _fit_tail(xs, renorm, np.asarray(cov),
                                        fit_points)
    # reject a tail that fails to decay: late gaps should be smaller, and
    # consecutive increments must shrink as the C/x model demands
    gaps = [abs(v - a) for v in renorm]
    noise = [3.0 * e + 1e-9 for e in errs]
    if len(gaps) >= 3 and gaps[-1] > gaps[0] + noise[-1] + noise[0]:
        raise TailNotDecaying(
            f"renormalized gaps grow along the schedule: {gaps[0]:.4g} -> "
            f"{gaps[-1]:.4g}")
    inc = np.abs(np.diff(renorm))
    if len(inc) >= 3:
        inc_noise = 3.0 * (math.hypot(errs[0], errs[1])
                           + math.hypot(errs[-2], errs[-1])) + 1e-9
        if inc[-1] > 0.6 * inc[0] + inc_noise:
            raise TailNotDecaying(
                f"renormalized increments do not decay: {inc[0]:.4g} -> "
                f"{inc[-1]:.4g}")
    # the fitted tail model is a - C/x; the first neglected order is ~C/x^2
    # at the deepest point, so carry it as a model-truncation uncertainty
    # (calibrated: the depth-16 -> depth-32 shift of the deterministic
    # concentric family matches |C|/x_last^2 to within a few percent)
    model_err = abs(C) / xs[-1] ** 2
    stderr = math.sqrt(a_err ** 2 + rms ** 2 + model_err ** 2)
    table = tuple((r, v, e) for r, v, e in zip(rs, renorm, errs))
    return ExtrapolationResult(a, stderr, slope, table)


def lambda_star(V1: CompactSet, V2: CompactSet, seed: int = 0,
                r_schedule=None, fit_points: int = 4,
                **profile_kwargs) -> ExtrapolationResult:
    """Lambda*(V1, V2) by renormalized extrapolation over shrinking O_r."""
    return lambda_star_sets([V1, V2], seed, r_schedule=r_schedule,
                            fit_points=fit_points, **profile_kwargs)


def lambda_star_sets(sets, seed: int = 0, r_schedule=None,
                     fit_points: int = 4, **profile_kwargs):
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("need at least two disjoint sets")
    rmax_allowed = _max_removable_radius(sets)
    if rmax_allowed <= 0:
        raise ValueError("a set degenerates to the origin; recenter first")
    if r_schedule is None:
        r_schedule = default_schedule()
    rs = sorted((r for r in r_schedule if r < rmax_allowed), reverse=True)
    if len(rs) < 2:
        raise ValueError("schedule too shallow for these sets")
    ests, cov = loop_mass_profile(sets, rs, seed, **profile_kwargs)
    return _extrapolate(rs, ests, cov, fit_points)


# ---------------------------------------------------------------------------
# centered families


def lambda_star_centered(V1: CompactSet, V2: CompactSet, center,
                         seed: int = 0, r_schedule=None,
                         fit_points: int = 4,
                         **profile_kwargs) -> ExtrapolationResult:
    """Lambda* computed through the family of disks removed around `center`
    (finite point) or through growing disks D_R (center INFINITY); the limit
    is center-independent."""
    if is_infinity(center):
        Rmin = max(V.radial_range()[1] for V in (V1, V2))
        if r_schedule is None:
            depth = 8
            Rs = [math.exp(j) for j in range(1, depth + 1)]
        else:
            Rs = [1.0 / r for r in r_schedule]
        Rs = sorted(R for R in Rs if R > Rmin)
        if len(Rs) < 2:
            raise ValueError("schedule too shallow for these sets")
        ests, cov = loop_mass_profile([V1, V2], Rs, seed, family="disk",
                                      **profile_kwargs)
        return _extrapolate([1.0 / R for R in Rs], ests, cov, fit_points)
    z0 = complex(center)
    # the loop measure is translation invariant: shrink disks around z0 by
    # working with the translated sets around the origin
    sets = [V.translated(-z0) for V in (V1, V2)]
    return lambda_star_sets(sets, seed, r_schedule=r_schedule,
                            fit_points=fit_points, **profile_kwargs)


# ---------------------------------------------------------------------------
# invariance and asymptotics


@dataclass(frozen=True)
class MobiusGap:
    gap: float
    stderr: float
    base: ExtrapolationResult
    image: ExtrapolationResult


def mobius_invariance_gap(V1: CompactSet, V2: CompactSet, f: MobiusMap,
                          seed: int = 0, **kwargs) -> MobiusGap:
    """|Lambda*(f V1, f V2) - Lambda*(V1, V2)|, zero within error."""
    base = lambda_star(V1, V2, seed, **kwargs)
    W1 = mobius_image_set(f, V1)
    W2 = mobius_image_set(f, V2)
    img = lambda_star(W1, W2, seed + 1, **kwargs)
    return MobiusGap(abs(img.value - base.value),
                     math.hypot(base.stderr, img.stderr), base, img)


def annulus_crossing_lambda_star(K: CompactSet, D: Domain, seed: int = 0,
                                 n: int = 50_000, **kwargs):
    """Measured Lambda*(K, boundary of D) against the small-hull prediction
    -log log(1/(psi'(0) t)), for a hull K containing 0 with capacity log t
    at most log(1/8), inside a simply connected D with dist(0, dD) = 1.

    Returns (measured result, predicted value, diagnostics dict).
    """
    if not K.contains_point(0j, tol=1e-9):
        raise ValueError("hull must contain the origin")
    bset = _boundary_as_set(D)
    d0 = float(bset.dist(np.asarray([0j]))[0])
    if abs(d0 - 1.0) > 1e-6:
        raise ValueError(f"dist(0, boundary) = {d0:.6g}, need 1")
    cap = capacity_estimate(K, n, seed)
    t = math.exp(cap.value)
    if t > 0.125 * (1 + 1e-9):
        raise ValueError(f"hull capacity exp {t:.4g} exceeds 1/8")
    psi = conformal_radius(D, n, seed + 1)
    measured = lambda_star(K, bset, seed + 2, **kwargs)
    predicted = -math.log(math.log(1.0 / (psi.value * t)))
    diag = {"t": t, "t_stderr": t * cap.stderr, "psi0": psi.value,
            "psi0_stderr": psi.stderr}
    return measured, predicted, diag


def _boundary_as_set(D: Domain) -> CompactSet:
    if isinstance(D, Disk):
        return Circle(D.center, D.radius)
    if isinstance(D, PolylineJordan):
        return D.boundary_chain()
    raise ValueError(f"no compact boundary set for {type(D).__name__}")


def bridging_mass(V: CompactSet, center, r: float, alpha: float = 1.0,
                  seed: int = 0, **query_kwargs) -> Estimate:
    """Mass of loops that hit both V and the closed r-disk at the origin,
    inside the exterior of the (alpha r)-disk around `center` (or inside the
    disk of radius alpha/r when `center` is INFINITY).

    As r -> 0 this tends to log 2 for any fixed center off V, with a
    1/log(1/r) error: roughly half of the loops that reach the origin scale
    from V also survive the removal of the slightly larger disk.
    """
    if r <= 0 or alpha <= 0:
        raise ValueError("need r > 0 and alpha > 0")
    small = ClosedDisk(0j, r)
    if is_infinity(center):
        query = LoopMassQuery((V, small), Disk(0j, alpha / r),
                              force_mc=True, **query_kwargs)
        return loop_mass(query, seed)
    z0 = complex(center)
    query = LoopMassQuery((V.translated(-z0), small.translated(-z0)),
                          ExteriorDisk(0j, alpha * r),
                          force_mc=True, **query_kwargs)
    return loop_mass(query, seed)


def lambda_star_multi(sets, seed: int = 0, **kwargs) -> ExtrapolationResult:
    """Lambda*(V1, ..., Vk) by the splitting recursion grounded at k = 2:
    each extra set subtracts the mass of loops that avoid it entirely."""
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    base = lambda_star(sets[0], sets[1], seed, **kwargs)
    value, var = base.value, base.stderr**2
    mc_keys = {k: v for k, v in kwargs.items()
               if k in ("d_log", "n_theta", "n_per_node", "eps_hats")}
    for i in range(2, len(sets)):
        correction = loop_mass(
            LoopMassQuery(tuple(sets[:i]), HullComplement(sets[i]),
                          **mc_keys), seed + 100 + i)
        value -= correction.value
        var += correction.stderr**2
    return ExtrapolationResult(value, math.sqrt(var), base.residual_slope,
                               base.table)
