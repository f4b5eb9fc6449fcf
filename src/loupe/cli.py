"""Command-line front end: one command per process, JSON artifacts out.

Every stochastic run must carry an explicit seed; configs without one are
rejected before any compute happens.  Identical configurations produce
byte-identical JSON artifacts and hit the exact-hash cache (directory taken
from the LOUPE_CACHE_DIR environment variable).  Exit codes: 0 success,
2 configuration error, 3 numeric-contract error.
"""

from __future__ import annotations

import math
import sys
import time

import click
import numpy as np

from . import __version__, records, svg
from .bubble import ArcTooCoarse, bubble_diff_mass, rho
from .engine import (Estimate, ExtrapolationUnstable, StepLimitExceeded,
                     capacity_estimate, conformal_radius, excursion_estimate,
                     hitting_prob)
from .geometry import (INFINITY, CompactSet, Domain, GeometryError,
                       parse_geometry, parse_point)
from .lamstar import (TailNotDecaying, bridging_mass, lambda_star,
                      lambda_star_centered)
from .loops import (LoopMassQuery, QuadratureNonconvergent,
                    ShellRangeInsufficient, loop_mass)
from .sle import (HullTouchesBoundary, KappaOutOfRange, SolverUnstable,
                  annulus_modulus, density_limit_check, exponents, rn_density,
                  trace_is_simple, whole_plane_sample)

NUMERIC_ERRORS = (TailNotDecaying, ArcTooCoarse, QuadratureNonconvergent,
                  ShellRangeInsufficient, ExtrapolationUnstable,
                  StepLimitExceeded, SolverUnstable, HullTouchesBoundary)


# ---------------------------------------------------------------------------
# option plumbing


def _read_config_file(ctx, param, value):
    """Flat key-value config file; keys become option defaults."""
    if value is None:
        return None
    defaults = {}
    try:
        with open(value, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(
                        f"{value}:{lineno}: expected key = value")
                key, _, raw = line.partition("=")
                defaults[key.strip().replace("-", "_")] = raw.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    ctx.default_map = {**defaults, **(ctx.default_map or {})}
    return value


def common_options(fn):
    fn = click.option("--config", type=click.Path(), callback=_read_config_file,
                      is_eager=True, expose_value=False,
                      help="Flat key = value config file with defaults.")(fn)
    fn = click.option("--seed", type=int, required=True,
                      help="RNG seed (mandatory for reproducibility).")(fn)
    fn = click.option("--out", type=click.Path(),
                      help="JSON artifact path (default: stdout).")(fn)
    return fn


def _set_literal(text: str) -> CompactSet:
    obj = parse_geometry(text)
    if not isinstance(obj, CompactSet):
        raise click.UsageError(f"{text!r} is a domain, not a compact set")
    return obj


def _domain_literal(text: str) -> Domain:
    obj = parse_geometry(text)
    if not isinstance(obj, Domain):
        raise click.UsageError(f"{text!r} is a compact set, not a domain")
    return obj


def _point(text: str) -> complex:
    return INFINITY if text.strip().lower() in ("inf", "infinity") \
        else parse_point(text)


def _key(text):
    """The cache-key spelling of a geometry or point literal: whitespace
    removed, lowercased.  The parsers ignore case and the whitespace around
    tokens, and every literal is parsed as given before the cache is read,
    so two literals that share a key describe the same geometry."""
    return None if text is None else "".join(text.split()).lower()


def _est(e: Estimate) -> dict:
    return {"value": e.value, "stderr": e.stderr, "n": e.n, "seed": e.seed}


def _extrap(res) -> dict:
    return {"value": res.value, "stderr": res.stderr,
            "residual_slope": res.residual_slope,
            "table": [list(row) for row in res.table]}


def _emit(command: str, config: dict, compute, summary, out=None):
    """Cache-aware run wrapper: artifact JSON to `out` or stdout, one-line
    summary to stderr."""
    rec = records.cache_lookup(config)
    cached = rec is not None
    if not cached:
        start = time.perf_counter()
        payload = compute()
        rec = records.ResultRecord(config, command, payload,
                                   time.perf_counter() - start)
        records.cache_store(rec)
    artifact = rec.artifact_json()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    else:
        click.echo(artifact, nl=False)
    note = " (cached)" if cached else ""
    click.echo(f"{command}: {summary(rec.payload)}{note}", err=True)
    return rec


def _fmt_est(d: dict) -> str:
    return f"{d['value']:.6g} +- {d['stderr']:.3g}"


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.version_option(__version__)
def cli():
    """Numerics laboratory for planar Brownian motion quantities."""


@cli.command()
@click.option("--domain", required=True, help="Domain literal, e.g. annulus(1,10).")
@click.option("--z", required=True, help="Interior point, e.g. 2 or 2,0.")
@click.option("--target", required=True, help="Boundary-piece literal.")
@click.option("--n", type=int, default=100_000, show_default=True)
@common_options
def harmonic(domain, z, target, n, seed, out):
    """Harmonic measure h_D(z, V) by walk-on-spheres."""
    config = {"command": "harmonic", "domain": _key(domain), "z": _key(z),
              "target": _key(target), "n": n, "seed": seed}
    D, V, z0 = _domain_literal(domain), _set_literal(target), _point(z)
    _emit("harmonic", config,
          lambda: {"estimate": _est(hitting_prob(D, z0, V, n, seed))},
          lambda p: f"h = {_fmt_est(p['estimate'])}", out)


@cli.command()
@click.option("--domain", required=True)
@click.option("--z", required=True, help="Boundary point.")
@click.option("--target", required=True)
@click.option("--n", type=int, default=100_000, show_default=True)
@click.option("--eps", type=float, multiple=True,
              help="Offset ladder (repeatable); default 1%% of scale, halved.")
@common_options
def excursion(domain, z, target, n, eps, seed, out):
    """Excursion measure exc_D(z, V): normal derivative of harmonic measure."""
    config = {"command": "excursion", "domain": _key(domain), "z": _key(z),
              "target": _key(target), "n": n, "eps": list(eps), "seed": seed}
    D, V, z0 = _domain_literal(domain), _set_literal(target), _point(z)
    ladder = list(eps) or None
    _emit("excursion", config,
          lambda: {"estimate": _est(excursion_estimate(
              D, z0, V, n, seed, eps_ladder=ladder))},
          lambda p: f"exc = {_fmt_est(p['estimate'])}", out)


@cli.command()
@click.option("--r", "radius", type=float,
              help="Concentric mode: rho(R) by exact kernel quadrature.")
@click.option("--z", help="Boundary point (difference-mass mode).")
@click.option("--domain", help="Outer domain D.")
@click.option("--domain2", help="Inner domain, contained in D.")
@click.option("--n", type=int, default=200_000, show_default=True)
@common_options
def bubble(radius, z, domain, domain2, n, seed, out):
    """Brownian bubble masses: rho(R) or the difference mass m(z; D, D~)."""
    if radius is not None:
        config = {"command": "bubble", "r": radius, "seed": seed}

        def compute():
            m = rho(radius)
            return {"rho": {"value": m.value, "error_band": m.error}}

        _emit("bubble", config, compute,
              lambda p: f"rho({radius:g}) = {p['rho']['value']:.6g}", out)
        return
    if not (z and domain and domain2):
        raise click.UsageError("need --r, or all of --z/--domain/--domain2")
    config = {"command": "bubble", "z": _key(z), "domain": _key(domain),
              "domain2": _key(domain2), "n": n, "seed": seed}
    D, Dt, z0 = _domain_literal(domain), _domain_literal(domain2), _point(z)
    _emit("bubble", config,
          lambda: {"estimate": _est(bubble_diff_mass(z0, D, Dt, n, seed))},
          lambda p: f"m = {_fmt_est(p['estimate'])}", out)


@cli.command("loop-mass")
@click.option("--set", "sets", multiple=True, required=True,
              help="Compact set literal (repeat; at least two).")
@click.option("--domain", required=True)
@click.option("--force-mc", is_flag=True,
              help="Skip the concentric fast path even when it applies.")
@click.option("--n-per-node", type=int, default=4096, show_default=True)
@common_options
def loop_mass_cmd(sets, domain, force_mc, n_per_node, seed, out):
    """Loop-measure mass Lambda(V1, ..., Vk; D)."""
    if len(sets) < 2:
        raise click.UsageError("need at least two --set literals")
    config = {"command": "loop-mass", "sets": [_key(s) for s in sets],
              "domain": _key(domain), "force_mc": force_mc,
              "n_per_node": n_per_node, "seed": seed}
    V = tuple(_set_literal(s) for s in sets)
    D = _domain_literal(domain)
    q = LoopMassQuery(V, D, force_mc=force_mc, n_per_node=n_per_node)
    _emit("loop-mass", config,
          lambda: {"estimate": _est(loop_mass(q, seed))},
          lambda p: f"Lambda = {_fmt_est(p['estimate'])}", out)


@cli.command("lambda-star")
@click.option("--v1", required=True)
@click.option("--v2", required=True)
@click.option("--depth", type=int, default=8, show_default=True,
              help="r-schedule depth: r_j = e^{-j}, j = 1..depth.")
@click.option("--center", default=None,
              help="Removal center: point literal or 'inf' (default origin).")
@click.option("--fit-points", type=int, default=4, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(),
              help="Write the renormalized-sequence table as CSV.")
@click.option("--svg", "svg_path", type=click.Path(),
              help="Write the renormalized-sequence plot as SVG.")
@common_options
def lambda_star_cmd(v1, v2, depth, center, fit_points, csv_path, svg_path,
                    seed, out):
    """Normalized loop measure Lambda*(V1, V2) by schedule extrapolation."""
    config = {"command": "lambda-star", "v1": _key(v1), "v2": _key(v2),
              "depth": depth, "center": _key(center),
              "fit_points": fit_points, "seed": seed}
    V1, V2 = _set_literal(v1), _set_literal(v2)
    c0 = None if center is None else _point(center)
    schedule = [math.exp(-j) for j in range(1, depth + 1)]

    def compute():
        if c0 is None:
            res = lambda_star(V1, V2, seed, r_schedule=schedule,
                              fit_points=fit_points)
        else:
            res = lambda_star_centered(V1, V2, c0, seed,
                                       r_schedule=schedule,
                                       fit_points=fit_points)
        return {"extrapolation": _extrap(res)}

    rec = _emit("lambda-star", config, compute,
                lambda p: f"Lambda* = {_fmt_est(p['extrapolation'])}", out)
    table = rec.payload["extrapolation"]["table"]
    if csv_path:
        records.write_csv(csv_path, ["r", "renormalized", "stderr"], table)
    if svg_path:
        rs = [row[0] for row in table]
        svg.line_plot(svg_path,
                      [("renormalized mass", rs, [row[1] for row in table],
                        [row[2] for row in table])],
                      title="renormalized loop mass vs r", xlabel="r",
                      ylabel="Lambda(V1,V2;O_r) - loglog(1/r)", log_x=True)


@cli.command()
@click.option("--set", "set_literal", required=True)
@click.option("--n", type=int, default=200_000, show_default=True)
@common_options
def capacity(set_literal, n, seed, out):
    """Logarithmic capacity ccap(K) = E[log |hit point|] from far launches."""
    config = {"command": "capacity", "set": _key(set_literal), "n": n,
              "seed": seed}
    K = _set_literal(set_literal)
    _emit("capacity", config,
          lambda: {"estimate": _est(capacity_estimate(K, n, seed))},
          lambda p: f"ccap = {_fmt_est(p['estimate'])}", out)


@cli.command("conformal-radius")
@click.option("--domain", required=True)
@click.option("--n", type=int, default=200_000, show_default=True)
@common_options
def conformal_radius_cmd(domain, n, seed, out):
    """Uniformizer derivative psi'(0) for a simply connected domain."""
    config = {"command": "conformal-radius", "domain": _key(domain), "n": n,
              "seed": seed}
    D = _domain_literal(domain)
    _emit("conformal-radius", config,
          lambda: {"estimate": _est(conformal_radius(D, n, seed))},
          lambda p: f"psi'(0) = {_fmt_est(p['estimate'])}", out)


@cli.group()
def sle():
    """Whole-plane Loewner curves: sampling, modulus, density."""


@sle.command()
@click.option("--kappa", type=float, required=True)
@click.option("--t", type=float, required=True, help="Capacity time (<= 1/8).")
@click.option("--dt", type=float, default=1e-4, show_default=True)
@click.option("--n-trace", type=int, default=512, show_default=True)
@common_options
def sample(kappa, t, dt, n_trace, seed, out):
    """Sample a whole-plane hull and report its basic statistics."""
    config = {"command": "sle sample", "kappa": kappa, "t": t, "dt": dt,
              "n_trace": n_trace, "seed": seed}

    def compute():
        hull = whole_plane_sample(_params(kappa), t, dt=dt, seed=seed,
                                  n_trace=n_trace)
        return {"capacity": math.log(t), "radius": hull.radius(),
                "tip": complex(hull.tip),
                "driving_point": complex(hull.driving_point),
                "simple": bool(trace_is_simple(hull)),
                "n_vertices": len(hull.trace.vertices)}

    _emit("sle sample", config, compute,
          lambda p: f"rad = {p['radius']:.4g}, ccap = {p['capacity']:.4g}",
          out)


@sle.command()
@click.option("--kappa", type=float, required=True)
@click.option("--t", type=float, required=True)
@click.option("--domain", required=True)
@click.option("--n", type=int, default=40_000, show_default=True)
@click.option("--dt", type=float, default=1e-4, show_default=True)
@common_options
def modulus(kappa, t, domain, n, dt, seed, out):
    """Conformal annulus modulus of D minus a sampled hull."""
    config = {"command": "sle modulus", "kappa": kappa, "t": t,
              "domain": _key(domain), "n": n, "dt": dt, "seed": seed}
    D = _domain_literal(domain)

    def compute():
        hull = whole_plane_sample(_params(kappa), t, dt=dt, seed=seed)
        est = annulus_modulus(D, hull.hull_set(), n, seed + 1)
        return {"estimate": _est(est), "t": t}

    _emit("sle modulus", config, compute,
          lambda p: f"s = {_fmt_est(p['estimate'])}", out)


@sle.command()
@click.option("--kappa", type=float, required=True)
@click.option("--domain", required=True)
@click.option("--w", required=True, help="Interior evaluation point.")
@click.option("--t", "ts", type=float, multiple=True, required=True,
              help="Capacity time (repeat for a ladder).")
@click.option("--n", type=int, default=2000, show_default=True,
              help="Ensemble size (driving paths).")
@click.option("--n-calib", type=int, default=3, show_default=True)
@click.option("--n-mc", type=int, default=20_000, show_default=True)
@click.option("--dt", type=float, default=1e-4, show_default=True)
@click.option("--csv", "csv_path", type=click.Path())
@click.option("--svg", "svg_path", type=click.Path())
@common_options
def density(kappa, domain, w, ts, n, n_calib, n_mc, dt, csv_path, svg_path,
            seed, out):
    """Ensemble mean of the reversed-radial density against its limit."""
    config = {"command": "sle density", "kappa": kappa,
              "domain": _key(domain), "w": _key(w), "t": list(ts), "n": n,
              "n_calib": n_calib, "n_mc": n_mc, "dt": dt, "seed": seed}
    D, wp = _domain_literal(domain), _point(w)

    def compute():
        rows = density_limit_check(D, wp, _params(kappa), sorted(ts), n,
                                   seed, n_calib=n_calib, dt=dt, n_mc=n_mc)
        return {"rows": [list(r) for r in rows]}

    def summarize(p):
        last = p["rows"][-1]
        return (f"mean = {last[1]:.4g} +- {last[2]:.3g}, "
                f"target {last[3]:.4g} at t = {last[0]:.4g}")

    rec = _emit("sle density", config, compute, summarize, out)
    rows = rec.payload["rows"]
    if csv_path:
        records.write_csv(csv_path,
                          ["t", "mean", "stderr", "target", "deviation"],
                          rows)
    if svg_path:
        svg.line_plot(svg_path,
                      [("measured mean", [r[0] for r in rows],
                        [r[1] for r in rows], [r[2] for r in rows]),
                       ("limit target", [r[0] for r in rows],
                        [r[3] for r in rows], None)],
                      title="density mean vs capacity time", xlabel="t",
                      ylabel="mean density", log_x=True)


def _params(kappa: float):
    try:
        return exponents(kappa)
    except KappaOutOfRange as exc:
        raise click.UsageError(str(exc))


# ---------------------------------------------------------------------------
# verify: self-contained closed-form invariant suites


def _verify_kernels():
    from . import kernels
    checks = []
    v = kernels.harm_annulus(2.0 + 0j, 1.0, 10.0)
    checks.append(("harm_annulus(2; A_1,10)",
                   abs(v - math.log(2) / math.log(10)) < 1e-12))
    e = kernels.exc_annulus("inner-point", 1.0, 10.0)
    checks.append(("exc_annulus inner-point",
                   abs(e - 1.0 / math.log(10)) < 1e-12))
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    vals = np.array([kernels.boundary_poisson_annulus(10.0, t)
                     for t in theta])
    total = float(np.mean(vals)) * 2.0 * math.pi * 10.0
    checks.append(("boundary kernel normalization",
                   abs(total - 1.0 / math.log(10)) < 1e-10))
    pv = np.array([kernels.poisson_disk(0.3 + 0.1j, np.exp(1j * t)) for t in theta])
    checks.append(("disk Poisson normalization",
                   abs(float(np.mean(pv)) * 2.0 * math.pi - 1.0) < 1e-10))
    return checks


def _verify_geometry():
    from .geometry import Circle, MobiusMap, circumcircle, mobius_image_circle
    checks = []
    c, r = circumcircle(1 + 0j, 0 + 1j, -1 + 0j)
    checks.append(("circumcircle of unit triple",
                   abs(c) < 1e-12 and abs(r - 1.0) < 1e-12))
    f = MobiusMap(0, 1, 1, 0)  # inversion
    img = mobius_image_circle(f, Circle(3 + 0j, 1.0))
    pts = 3 + np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    dev = np.abs(np.abs(1.0 / pts - img.center) - img.radius)
    checks.append(("inversion circle image", float(dev.max()) < 1e-12))
    return checks


def _verify_engine():
    from .engine import RngStream
    checks = []
    a = Estimate.from_samples(np.arange(7.0), 0)
    b = Estimate.from_samples(np.arange(7.0, 12.0), 0)
    m = a.merge(b)
    full = Estimate.from_samples(np.arange(12.0), 0)
    checks.append(("estimate merge exactness",
                   abs(m.value - full.value) < 1e-14
                   and abs(m.stderr - full.stderr) < 1e-14))
    x = RngStream(5, 2).generator().standard_normal(8)
    y = RngStream(5, 2).generator().standard_normal(8)
    checks.append(("counter-based stream determinism",
                   bool(np.array_equal(x, y))))
    return checks


def _verify_bubble():
    checks = []
    for R in (10.0, 100.0, 1000.0):
        v = rho(R).value
        checks.append((f"rho({R:g}) asymptotic rate",
                       abs(v * 2.0 * math.log(R) - 1.0)
                       * R * math.log(R) < 10.0))
    return checks


def _verify_loops():
    from .loops import loop_mass_circles, rho_exact
    from .bubble import rho as rho_mc
    checks = []
    e = loop_mass_circles(0.01, 100.0)
    checks.append(("loop_mass_circles(0.01, 100) near log 2",
                   abs(e.value - math.log(2.0)) < 0.01))
    checks.append(("rho routes agree at R = 50",
                   abs(rho_exact(50.0) - rho_mc(50.0).value) < 1e-6))
    return checks


_SUITES = {"kernels": _verify_kernels, "geometry": _verify_geometry,
           "engine": _verify_engine, "bubble": _verify_bubble,
           "loops": _verify_loops}


@cli.command()
@click.argument("suite")
def verify(suite):
    """Run a closed-form invariant suite (kernels, geometry, engine,
    bubble, loops, or all)."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from "
            f"{', '.join([*_SUITES, 'all'])}")
    failed = 0
    for name in names:
        for label, ok in _SUITES[name]():
            click.echo(f"[{'ok' if ok else 'FAIL'}] {name}: {label}")
            failed += 0 if ok else 1
    if failed:
        raise SolverUnstable(f"{failed} invariant check(s) failed")
    click.echo(f"verify {suite}: all checks passed", err=True)


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except (GeometryError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except NUMERIC_ERRORS as exc:
        click.echo(f"numeric contract error: {type(exc).__name__}: {exc}",
                   err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
