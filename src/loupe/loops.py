"""Brownian loop-measure masses Lambda(V1,...,Vk; D).

The radial decomposition roots every loop at its closest point to the origin
(exterior-disk domain families) or its furthest point (disk families), so

    Lambda = (1/pi) Int Int m(s e^{i theta}) s ds dtheta

with m the bubble mass of loops rooted on the circle C_s that stay on the
root's far side, hit every listed set, and avoid any removed set.  One
integrator, `loop_mass_profile`, evaluates this integral for a list of limit
radii of one family on a single node grid, with a covariance between the
limits; `loop_mass`, `loop_mass_circles` and `dyadic_loop_mass` read from it,
as do the Lambda* extrapolations in `lamstar`.  Nodes are estimated by
record-and-drop walks: the walk runs in the root circle's complement, marks
each target on first touch, and at the moment the last target is marked the
closing-leg density at the root is either the exact one-circle boundary
kernel (pure domains) or a small-arc frequency (domains with extra removed
sets).  Concentric-circle configurations collapse to an exact quadrature of
closed-form kernels (the fast path), which doubles as the oracle for the
Monte Carlo route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Estimate, RngStream, _circle_harmonic_sample
from .geometry import (Circle, ClosedDisk, CompactSet, Disk, Domain,
                       DomainMinusSet, ExteriorDisk, HullComplement)

TWO_PI = 2.0 * math.pi


class _Integrate:
    """`scipy.integrate`, imported by the first `quad` call: scipy is most of
    the package's import time and only the exact concentric route uses it."""

    @staticmethod
    def quad(*args, **kwargs):
        from scipy import integrate as real
        return real.quad(*args, **kwargs)


integrate = _Integrate()


class QuadratureNonconvergent(RuntimeError):
    pass


class ShellRangeInsufficient(RuntimeError):
    """Dyadic shells fail to cover the sets' radial extent."""


# ---------------------------------------------------------------------------
# exact concentric machinery


def rho_exact(R: float, terms: int = 200) -> float:
    """Mass of bubbles at 1 in {|z|>1} leaving the annulus 1 < |z| < R,
    summed in closed form: 1/(2 log R) + 2 Sum m R^-m/(R^m - R^-m)."""
    if R <= 1:
        raise ValueError("need R > 1")
    total = 1.0 / (2.0 * math.log(R))
    for m in range(1, terms + 1):
        num = R**-m
        den = R**m - num
        t = 2.0 * m * num / den
        total += t
        if t < 1e-17 * total:
            break
    return total


def _concentric_radii(sets, tol: float = 1e-12):
    """If every set is an origin-centered circle or closed disk, return their
    radii; otherwise None.  These configurations are rotation-symmetric and
    nested, so 'hit all' degenerates to 'hit the outermost'."""
    radii = []
    for V in sets:
        if isinstance(V, (Circle, ClosedDisk)) and abs(V.center) <= tol:
            radii.append(V.radius)
        else:
            return None
    return radii


def loop_mass_circles(s: float, R: float) -> Estimate:
    """Mass of loops outside the disk of radius s that hit both C_1 and C_R,
    by adaptive quadrature of the exact radial profile.

    Exact up to quadrature error since rho is summed in closed form; the
    limit closed form log[log(R/s)/log R] holds up to O(1/(R log R)).
    """
    if not (0 < s <= 1 < R):
        raise ValueError("need 0 < s <= 1 < R")
    (est,), _ = loop_mass_profile([Circle(0j, 1.0), Circle(0j, R)], [s], 0)
    if est.stderr > 1e-8 * max(1.0, abs(est.value)):
        raise QuadratureNonconvergent(f"quad error {est.stderr:.2g}")
    return est


# ---------------------------------------------------------------------------
# Monte Carlo node machinery


def _kernel_exterior(W, z, s):
    """Boundary Poisson density of {|w| > s} at the root z on C_s."""
    return (np.abs(W) ** 2 - s * s) / (TWO_PI * s * np.abs(W - z) ** 2)


def _kernel_disk(W, z, S):
    """Boundary Poisson density of {|w| < S} at the root z on C_S."""
    return (S * S - np.abs(W) ** 2) / (TWO_PI * S * np.abs(W - z) ** 2)


def _node_walks(s, roots, targets, absorbers, n_per_root, eps_hats, gens,
                family="exterior", eta=None):
    """Every ladder rung of the node estimator at root radius s, in one batch.

    Rung i starts n_per_root walkers at each root offset radially by
    eps_hats[i]*s into the domain and marks targets on first touch.  Returns
    (means, variances), each of shape (rungs, roots): the mean payoff of a
    root's walkers and its variance over n_per_root, where the payoff already
    includes the pi/(eps_hat s) normalization of the bubble density.

    The live walkers of all rungs are kept compacted, ordered by (rung,
    walker).  Rung i draws only from gens[i], and in the order and sizes a
    walk of that rung alone would: the far-field re-entry angles, then the
    jump angles, and nothing once its walkers are done.  So each rung returns
    bit for bit what a one-rung walk on its stream returns.

    Each step takes |z| once and makes one distance pass over the live
    walkers: dist_wos of every absorber, and of every target for the walkers
    that have not hit it yet, is evaluated once, classifies arrivals, and
    then gives the jump radius of the walkers still alive (with the targets
    they hit on this step masked out).  Raises StepLimitExceeded past
    engine.STEP_CAP steps, as wos_exit_batch does.
    """
    k = len(targets)
    n_rungs = len(eps_hats)
    nr = len(roots)
    N = nr * n_per_root
    root_rep = np.repeat(np.asarray(roots, dtype=complex), n_per_root)
    sign = 1.0 if family == "exterior" else -1.0
    wos_eps = 1e-6 * s
    hit = np.zeros((N, k), dtype=bool)
    for j, t in enumerate(targets):
        # a target containing the root itself is hit by every loop
        hit[:, j] = t.dist_wos(root_rep, wos_eps) <= wos_eps
    # live-walker state of all rungs, rung after rung
    hit = np.tile(hit, (n_rungs, 1))
    root = np.tile(root_rep, n_rungs)
    z = np.concatenate([root_rep * (1.0 + sign * eh) for eh in eps_hats])
    walker = np.arange(n_rungs * N)
    rung_starts = N * np.arange(1, n_rungs)
    payoff = np.zeros(n_rungs * N)
    use_arc = bool(absorbers)
    ctrl = 1.5 * max([s] + [t.radial_range()[1] for t in targets]
                     + [a.radial_range()[1] for a in absorbers])
    steps = 0
    while walker.size:
        steps += 1
        if steps > engine.STEP_CAP:
            raise engine.StepLimitExceeded(
                f"walk exceeded {engine.STEP_CAP} steps")
        az = np.abs(z)
        if family == "exterior":
            # every feature sits inside |w| <= ctrl; walkers that stray far
            # re-enter through an exact harmonic-measure jump onto C_ctrl
            far = np.flatnonzero(az > 2.0 * ctrl)
            if far.size:
                cuts = np.searchsorted(walker[far], rung_starts)
                for gen, fr in zip(gens, np.split(far, cuts)):
                    if fr.size:
                        z[fr] = _circle_harmonic_sample(z[fr], ctrl, gen)
                az[far] = np.abs(z[far])
        d_close = np.abs(az - s)
        d_tgt = []
        for j, t in enumerate(targets):
            # a target already hit no longer bounds the walk: skip its query
            todo = ~hit[:, j]
            if todo.all():
                dt = t.dist_wos(z, wos_eps)
            else:
                dt = np.full(z.size, np.inf)
                dt[todo] = t.dist_wos(z[todo], wos_eps)
            d_tgt.append(dt)
        d_abs = [a.dist_wos(z, wos_eps) for a in absorbers]
        dmin = d_close.copy()
        code = np.zeros(z.size, dtype=int)  # 0 closure, 1.. targets, -1 abs
        for j, dt in enumerate(d_tgt):
            better = dt < dmin
            dmin[better] = dt[better]
            code[better] = j + 1
        for da in d_abs:
            better = da < dmin
            dmin[better] = da[better]
            code[better] = -1
        ia = np.flatnonzero(dmin <= wos_eps)
        dead = np.zeros(z.size, dtype=bool)
        if ia.size:
            ca = code[ia]
            # absorber or closure without full hits: payoff stays 0
            ic = ia[ca == 0]
            if ic.size:
                done_all = hit[ic].all(axis=1) if k else np.ones(ic.size, bool)
                if use_arc and np.any(done_all):
                    icd = ic[done_all]
                    E = s * z[icd] / az[icd]
                    near = np.abs(E - root[icd]) <= eta
                    payoff[walker[icd]] = near / (2.0 * eta)
                dead[ic] = True
            tgt = ca >= 1
            if np.any(tgt):
                it = ia[tgt]
                jt = ca[tgt] - 1
                hit[it, jt] = True
                for j, dt in enumerate(d_tgt):
                    # a target hit on this step no longer bounds the jump
                    dt[it[jt == j]] = np.inf
                done = hit[it].all(axis=1)
                if np.any(done) and not use_arc:
                    fin = it[done]
                    zf, jf = z[fin], jt[done]
                    W = np.empty(fin.size, dtype=complex)
                    for j in range(k):
                        mask = jf == j
                        if np.any(mask):
                            W[mask] = targets[j].nearest(zf[mask])
                    if family == "exterior":
                        payoff[walker[fin]] = _kernel_exterior(W, root[fin], s)
                    else:
                        payoff[walker[fin]] = _kernel_disk(W, root[fin], s)
                    dead[fin] = True
            dead[ia[ca == -1]] = True
        # jump radius: every hit target's distance now reads inf
        r = d_close
        for dt in d_tgt:
            r = np.minimum(r, dt)
        for da in d_abs:
            r = np.minimum(r, da)
        if family == "exterior":
            r = np.minimum(r, 10.0 * az)
        if dead.any():
            keep = ~dead
            z, r, root, hit, walker = (z[keep], r[keep], root[keep],
                                       hit[keep], walker[keep])
        if walker.size:
            th = np.empty(walker.size)
            cuts = np.searchsorted(walker, rung_starts)
            for gen, lo, hi in zip(gens, [0, *cuts], [*cuts, walker.size]):
                if hi > lo:
                    th[lo:hi] = gen.uniform(0.0, TWO_PI, size=hi - lo)
            z = z + r * np.exp(1j * th)
    payoff = payoff.reshape(n_rungs, nr, n_per_root)
    payoff *= (math.pi / (np.asarray(eps_hats) * s))[:, None, None]
    return payoff.mean(axis=2), payoff.var(axis=2) / n_per_root


def _node_mass(s, n_theta, targets, absorbers, n_per_node, eps_hats, rng,
               family="exterior", eta_frac=0.05):
    """Richardson-extrapolated node value: the theta-average of the bubble
    mass m(s e^{i theta}) over n_theta equispaced roots, with its variance.

    One `_node_walks` batch walks every rung, rung lvl (in increasing
    eps_hat) on stream rng.child(lvl)."""
    thetas = TWO_PI * (np.arange(n_theta) + 0.5) / n_theta
    roots = s * np.exp(1j * thetas)
    eta = eta_frac * s if absorbers else None
    n_per_root = max(n_per_node // n_theta, 8)
    e = sorted(eps_hats)
    gens = [rng.child(lvl).generator() for lvl in range(len(e))]
    m, v = _node_walks(s, roots, targets, absorbers, n_per_root, e, gens,
                       family=family, eta=eta)
    means = [float(row.mean()) for row in m]
    variances = [float(row.sum()) / len(roots) ** 2 for row in v]
    # Richardson in eps_hat (values carry A + c*eps_hat + ... bias)
    if len(e) == 1:
        return means[0], variances[0]
    if len(e) == 2:
        a, b = e
        w1, w2 = -b / (a - b), a / (a - b)
        val = w1 * means[0] + w2 * means[1]
        var = w1**2 * variances[0] + w2**2 * variances[1]
        return float(val), float(var)
    from .engine import richardson
    val, err = richardson(e, means, [math.sqrt(v) for v in variances])
    return float(val), float(err**2)


def _radial_extent(sets, family):
    if family == "exterior":
        return min(V.radial_range()[1] for V in sets)
    return max(V.radial_range()[0] for V in sets)


@dataclass(frozen=True)
class LoopMassQuery:
    """A loop-mass computation: mass of loops in `domain` hitting every set."""

    sets: tuple
    domain: Domain
    d_log: float = 0.25
    n_theta: int = 16
    n_per_node: int = 4096
    eps_hats: tuple = (0.2, 0.1)
    force_mc: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if len(self.sets) < 1:
            raise ValueError("need at least one set")
        if self.n_per_node < 1 or self.n_theta < 1:
            raise ValueError(f"need n_per_node >= 1 and n_theta >= 1, got "
                             f"{self.n_per_node} and {self.n_theta}")


def _split_domain(D: Domain):
    """Reduce a domain to (family, limit radius, removed compact sets).

    family 'exterior' covers O_r = {|z| > r} possibly minus compact sets and
    the whole plane minus compact sets (r = 0); family 'disk' covers D_R.
    """
    removed = []
    while isinstance(D, DomainMinusSet):
        removed.append(D.removed)
        D = D.base
    if isinstance(D, ExteriorDisk):
        if D.center != 0:
            raise ValueError("exterior-family domains must be origin-centered")
        return "exterior", D.radius, removed
    if isinstance(D, Disk):
        if D.center != 0:
            raise ValueError("disk-family domains must be origin-centered")
        return "disk", D.radius, removed
    if isinstance(D, HullComplement):
        removed.append(D.hull)
        return "exterior", 0.0, removed
    raise ValueError(f"unsupported loop-mass domain {type(D).__name__}")


def loop_mass(q: LoopMassQuery, seed: int) -> Estimate:
    """Mass of loops in q.domain hitting every set in q.sets: a one-limit
    radial profile."""
    family, limit, removed = _split_domain(q.domain)
    sets = list(q.sets)
    s_edge = _radial_extent(sets, family)
    if limit >= s_edge if family == "exterior" else limit <= s_edge:
        return Estimate(0.0, 0.0, 0, seed)
    if limit == 0.0:
        # whole-plane-minus-removed-sets queries: truncate six e-folds
        # below the sets' reach; the discarded tail is huge-loop mass
        # controlled by the removed sets
        limit = s_edge * math.exp(-6.0)
    # a disk-family loop mass stays on the Monte Carlo route
    (est,), _ = loop_mass_profile(
        sets, [limit], seed, family=family, removed=removed, d_log=q.d_log,
        n_theta=q.n_theta, n_per_node=q.n_per_node, eps_hats=q.eps_hats,
        force_mc=q.force_mc or family == "disk")
    return est


def loop_mass_profile(sets, limits, seed: int, family: str = "exterior",
                      removed=(), d_log: float = 0.25, n_theta: int = 16,
                      n_per_node: int = 4096, eps_hats=(0.2, 0.1),
                      force_mc: bool = False):
    """Lambda(sets; D) for every limit radius of one domain family: O_r
    minus `removed` (family 'exterior') or D_R minus `removed` (family
    'disk').  Every limit shares one radial node grid that starts at the
    sets' edge, so differences between limits carry no extra noise.

    Returns (estimates, covariance matrix), ordered from the limit nearest
    the sets outward.  Concentric circle/disk sets with nothing removed are
    integrated exactly unless force_mc; exact values carry n = 0, seed 0
    and the quadrature error as stderr.
    """
    exterior = family == "exterior"
    limits = sorted((float(r) for r in limits), reverse=exterior)
    sets = list(sets)
    radii = None if removed or force_mc else _concentric_radii(sets)
    if radii is not None:
        a_min, a_max = min(radii), max(radii)
        if exterior:
            edge = a_min

            def mass(u):
                return 2.0 * rho_exact(a_max * math.exp(-u))
        else:
            edge = a_max

            def mass(u):
                return 2.0 * rho_exact(math.exp(u) / a_min)
        ests = []
        for r in limits:
            if r >= edge if exterior else r <= edge:
                ests.append(Estimate(0.0, 0.0, 0, 0))
                continue
            lo, hi = sorted((math.log(r), math.log(edge)))
            val, err = integrate.quad(mass, lo, hi, limit=200)
            ests.append(Estimate(val, err, 0, 0))
        return ests, np.diag([e.stderr**2 for e in ests])
    s_edge = _radial_extent(sets, family)
    marks = [math.log(r) for r in limits
             if (r < s_edge if exterior else r > s_edge)]
    if not marks:
        raise ValueError("limits entirely outside the sets' radial reach")
    # node grid: the edge, then refined segments between consecutive marks,
    # at least two trapezoid segments in all
    edges = [math.log(s_edge)] + marks
    least = 2 if len(marks) == 1 else 1
    us = edges[:1]
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(int(math.ceil(abs(b - a) / d_log)), least)
        us.extend(np.linspace(a, b, m + 1)[1:])
    us = np.asarray(us)
    rng = RngStream(seed)
    vals = np.zeros(len(us))
    variances = np.zeros(len(us))
    for i, u in enumerate(us):
        vals[i], variances[i] = _node_mass(
            math.exp(u), n_theta, sets, removed, n_per_node, eps_hats,
            rng.child(i), family=family)
    ests = []
    # weights[j, i]: node i's trapezoid weight in limit j (0 off its grid)
    weights = np.zeros((len(limits), len(us)))
    for j, r in enumerate(limits):
        L = math.log(r)
        inside = us >= L - 1e-12 if exterior else us <= L + 1e-12
        uu = us[inside]
        order = np.argsort(uu)
        uu = uu[order]
        vv = vals[inside][order]
        gg = variances[inside][order]
        # trapezoid weights on the (non-uniform) grid
        wts = np.zeros(len(uu))
        wts[:-1] += 0.5 * np.diff(uu)
        wts[1:] += 0.5 * np.diff(uu)
        c = 2.0 * wts * np.exp(2.0 * uu)
        total = float(np.sum(c * vv))
        var = float(np.sum(c * c * gg))
        ests.append(Estimate(total, math.sqrt(var), n_per_node * len(uu), seed))
        weights[j, np.flatnonzero(inside)[order]] = c
    # limits share nodes: cov(j,k) = sum_i c_ji c_ki var_i, and the diagonal
    # is each estimate's own variance
    n = len(limits)
    cov = np.diag([e.stderr**2 for e in ests])
    for j in range(n):
        for kk in range(j + 1, n):
            cov[j, kk] = cov[kk, j] = float(
                np.sum(weights[j] * weights[kk] * variances))
    return ests, cov


def cascade_check(sets, extra: CompactSet, D: Domain, seed: int,
                  query_kwargs: dict | None = None):
    """Residual of the splitting identity

        Lambda(sets; D) = Lambda(sets + extra; D) + Lambda(sets; D - extra)

    Returns (residual, combined stderr).  The left and first right term use
    the closed-kernel payoff; the removed-set term uses the independent
    arc-frequency payoff, so the identity is a genuine cross-check.
    """
    kw = query_kwargs or {}
    a = loop_mass(LoopMassQuery(tuple(sets), D, **kw), seed)
    b = loop_mass(LoopMassQuery(tuple(sets) + (extra,), D, **kw), seed + 1)
    c = loop_mass(LoopMassQuery(tuple(sets), DomainMinusSet(D, extra), **kw),
                  seed + 2)
    resid = a.value - b.value - c.value
    err = math.sqrt(a.stderr**2 + b.stderr**2 + c.stderr**2)
    return resid, err


def dyadic_loop_mass(V1: CompactSet, V2: CompactSet, D: Domain, j_range,
                     seed: int, query_kwargs: dict | None = None) -> Estimate:
    """Lambda(V1, V2; D) summed over dyadic shells: loops are classified by
    the integer shell exp(j-1) <= closest-radius < exp(j) they start in.

    The shells' edges are the limits of one Monte Carlo profile, so the
    shells are differences within it and their sum is its innermost entry.
    Raises ShellRangeInsufficient when the requested shells do not tile the
    sets' radial reach within the domain.
    """
    kw = dict(query_kwargs or {})
    family, limit, removed = _split_domain(D)
    if family != "exterior" or removed:
        raise ValueError("dyadic splitting implemented for exterior domains")
    s_edge = _radial_extent([V1, V2], "exterior")
    js = sorted({int(j) for j in j_range})
    lo_edge = math.exp(js[0] - 1)
    hi_edge = math.exp(js[-1])
    if lo_edge > limit * (1 + 1e-9) or hi_edge < s_edge * (1 - 1e-9):
        raise ShellRangeInsufficient(
            f"shells cover [{lo_edge:.3g}, {hi_edge:.3g}] but need "
            f"[{limit:.3g}, {s_edge:.3g}]")
    if js != list(range(js[0], js[-1] + 1)):
        raise ShellRangeInsufficient(f"shells {js} leave a gap")
    cuts = [max(math.exp(j - 1), limit) for j in js
            if min(math.exp(j), s_edge) > max(math.exp(j - 1), limit)]
    if not cuts:
        return Estimate(0.0, 0.0, 0, seed)
    ests, _ = loop_mass_profile([V1, V2], cuts, seed, force_mc=True, **kw)
    return ests[-1]
