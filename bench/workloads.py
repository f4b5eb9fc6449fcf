"""The benchmark's workloads: lists of `loupe` CLI operations, each with the
checks its artifact must pass.

Every CLI seed is derived from the workload seed, the round number and the
operation's label, so the same workload seed always gives the same
operations.  The checks compare artifacts with `reference`, never with
loupe itself.  A Monte Carlo value must fall within K_SIGMA reported
stderrs of its closed form plus the bias the estimator carries by
construction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import reference as ref

# seventy runs of the three workloads make about 700 Monte Carlo checks; at
# 4 stderrs one of them would fail by chance in a few percent of such sets
K_SIGMA = 5.0

WORKLOADS = ("wos", "loops", "sle")


@dataclass
class Op:
    """One CLI invocation and what its artifact must satisfy.

    A "mc" operation's headline estimate must match `reference` within
    K_SIGMA stderrs plus `bias`; |reference| also scales its relative
    variance in wnv, and a zero reference leaves it out of wnv.  `check`
    adds checks of its own: artifact -> list of failure messages.
    """

    label: str
    argv: list
    kind: str = "mc"          # mc | exact | sample | replay | respaced
    reference: float = 0.0
    bias: float = 0.0
    check: object = None
    replay_of: str | None = None


def derive_seed(seed: int, workload: str, rnd: int, label: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{rnd}/{label}".encode())
    return int.from_bytes(digest.digest()[:4], "big") % 1_000_000


def estimate_of(artifact: dict) -> tuple[float, float]:
    """(value, stderr) of an artifact's headline Monte Carlo result."""
    res = artifact["result"]
    if "estimate" in res:
        return res["estimate"]["value"], res["estimate"]["stderr"]
    if "extrapolation" in res:
        return res["extrapolation"]["value"], res["extrapolation"]["stderr"]
    if "rows" in res:
        return res["rows"][-1][1], res["rows"][-1][2]
    raise KeyError("artifact carries no estimate")


def _near(name, value, target, stderr, bias=0.0):
    tol = K_SIGMA * stderr + abs(bias)
    if not (math.isfinite(value) and math.isfinite(stderr) and stderr >= 0):
        return [f"{name}: non-finite value {value!r} +- {stderr!r}"]
    if abs(value - target) > tol:
        return [f"{name}: {value:.6g} +- {stderr:.3g} is "
                f"{abs(value - target):.3g} from {target:.6g} "
                f"(tolerance {tol:.3g})"]
    return []


def check_artifact(op: Op, art: dict) -> list:
    out = []
    if op.kind == "mc":
        value, stderr = estimate_of(art)
        out += _near(op.label, value, op.reference, stderr, op.bias)
        if not stderr > 0:
            out.append(f"{op.label}: Monte Carlo stderr {stderr!r} is not "
                       "positive")
    if op.check is not None:
        out += op.check(art)
    return out


# ---------------------------------------------------------------------------
# wos: walk-on-spheres on analytic boundaries, then a cache replay pass

# Fourteen children start an interpreter each (about 0.8 s apiece), so
# start-up is a fixed ~11 s of a round.  400k walkers per estimate make the
# walks about a third of the round (engine.wos_exit_batch, ~6 s of ~19 s on
# a 2-vCPU machine) while keeping the round near 20 s; a larger n would
# outgrow the time that seventy runs of the three workloads may take.
N_WOS = 400_000


def wos_ops(seed: int, rnd: int) -> list[Op]:
    def s(label):
        return str(derive_seed(seed, "wos", rnd, label))

    first = [
        Op("harmonic", ["harmonic", "--domain", "annulus(1,10)", "--z", "2",
                        "--target", "circle(0,0,10)", "--n", str(N_WOS),
                        "--seed", s("harmonic")],
           reference=ref.harmonic_annulus(2.0, 1.0, 10.0)),
        # the CLI's default excursion ladder is (1%, 0.5%) of the domain
        # scale, which is R = 10 for annulus(1,10)
        Op("excursion", ["excursion", "--domain", "annulus(1,10)", "--z", "1",
                         "--target", "circle(0,0,10)", "--n", str(N_WOS // 2),
                         "--seed", s("excursion")],
           reference=ref.excursion_annulus_inner(1.0, 10.0),
           bias=ref.excursion_ladder_bias(1.0, 10.0, [0.1, 0.05])),
        Op("capacity-segment", ["capacity", "--set", "segment(-2,0,2,0)",
                                "--n", str(N_WOS), "--seed", s("cap-seg")],
           reference=0.0),
        Op("capacity-disk", ["capacity", "--set", "closed_disk(0,0.3,0.5)",
                             "--n", str(N_WOS), "--seed", s("cap-disk")],
           reference=math.log(0.5)),
        Op("conformal-radius", ["conformal-radius", "--domain",
                                "disk(0.3,0,1)", "--n", str(N_WOS),
                                "--seed", s("conformal-radius")],
           reference=ref.disk_uniformizer_derivative(0.3 + 0j, 1.0)),
        Op("bubble", ["bubble", "--z", "1", "--domain", "exterior(0,0,1)",
                      "--domain2", "annulus(1,10)", "--n", str(N_WOS // 2),
                      "--seed", s("bubble")],
           reference=ref.rho_series(10.0)),
    ]
    replays = [Op(op.label + "/replay", list(op.argv), kind="replay",
                  replay_of=op.label) for op in first]
    respaced = {
        "harmonic": {"annulus(1,10)": "annulus(1, 10)",
                     "circle(0,0,10)": "circle(0, 0, 10)"},
        "conformal-radius": {"disk(0.3,0,1)": "disk(0.3, 0, 1)"},
    }
    for op in first:
        if op.label in respaced:
            argv = [respaced[op.label].get(a, a) for a in op.argv]
            replays.append(Op(op.label + "/respaced", argv, kind="respaced",
                              replay_of=op.label))
    return first + replays


# ---------------------------------------------------------------------------
# loops: loop-measure Monte Carlo on circle targets

LAMBDA_STAR_MC_SEEDS = 3
EXACT_DEPTH = 12
FIT_POINTS = 4


def _exact_lambda_star_check(art):
    """Concentric exact route: every table entry against the closed form,
    the extrapolated value against our own fit of the same model, and the
    value against Lambda* within its stderr plus the schedule bias."""
    R = 10.0
    out = []
    ex = art["result"]["extrapolation"]
    rows = ex["table"]
    if len(rows) != EXACT_DEPTH:
        out.append(f"exact Lambda*: {len(rows)} table rows, want {EXACT_DEPTH}")
    for r, v, _ in rows:
        want = ref.renormalized_circles(R, r)
        if abs(v - want) > 1e-9:
            out.append(f"exact Lambda*: table at r = {r:.4g} reads {v!r},"
                       f" closed form {want!r}")
    xs = [math.log(1.0 / r) for r, _, _ in rows][-FIT_POINTS:]
    fit = ref.tail_fit(xs, [ref.renormalized_circles(R, math.exp(-x))
                            for x in xs])
    if abs(ex["value"] - fit) > 1e-8:
        out.append(f"exact Lambda*: extrapolated {ex['value']!r}, own fit "
                   f"{fit!r}")
    out += _near("exact Lambda*(C_1, C_10)", ex["value"],
                 ref.lambda_star_circles(R), ex["stderr"],
                 ref.lambda_star_schedule_bias(R, EXACT_DEPTH, FIT_POINTS))
    return out


def loops_ops(seed: int, rnd: int) -> list[Op]:
    def s(label):
        return str(derive_seed(seed, "loops", rnd, label))

    ops = [Op(f"lambda-star-center2-{k}",
              ["lambda-star", "--v1", "circle(0,0,1)", "--v2",
               "circle(0,0,10)", "--center", "2", "--seed", s(f"lam-{k}")],
              reference=ref.lambda_star_circles(10.0))
           for k in range(LAMBDA_STAR_MC_SEEDS)]
    ops += [
        Op("lambda-star-exact", ["lambda-star", "--v1", "circle(0,0,1)",
                                 "--v2", "circle(0,0,10)", "--depth",
                                 str(EXACT_DEPTH), "--fit-points",
                                 str(FIT_POINTS), "--seed", s("lam-exact")],
           kind="exact", check=_exact_lambda_star_check),
        Op("loop-mass-mc", ["loop-mass", "--set", "circle(0,0,1)", "--set",
                            "circle(0,0,100)", "--domain",
                            "exterior(0,0,0.01)", "--force-mc",
                            "--seed", s("loop-mass-mc")],
           reference=ref.concentric_loop_mass(100.0, 0.01)),
        # z -> 1/z sends this query to loops in O_0.001 hitting C_1 and C_1000
        Op("loop-mass-disk", ["loop-mass", "--set", "circle(0,0,1)", "--set",
                              "closed_disk(0,0,0.001)", "--domain",
                              "disk(0,0,1000)", "--seed", s("loop-mass-disk")],
           reference=ref.concentric_loop_mass(1000.0, 0.001)),
    ]
    return ops


# ---------------------------------------------------------------------------
# sle: whole-plane hulls, annulus moduli and the reversed-radial density

KAPPA_83 = repr(8.0 / 3.0)
SAMPLE_T = math.exp(-3.0)
MODULUS_TS = (math.exp(-3.0), math.exp(-5.0))
MODULUS_N = 20_000
DENSITY_T = 0.0025
DENSITY_N = 200
DENSITY_N_MC = 10_000
DENSITY_TARGET = ref.density_target(2.0, 0j, 2.0, 2.0 + 0j)
# A run fits one density, and what the hull-based operations cost and how
# wide their error bars are depends on the hull: the density took 63 s to
# 81 s on five hulls, and the moduli's stderr spread sle's wnv by 23% over
# six workload seeds.  So the moduli and the density run on the hulls that
# workload seed 0 draws, in every run; the samples take their seeds from the
# workload seed.  Their checks therefore test one fixed draw each, not the
# estimators' error bars across seeds.
FIXED_HULL_SEED = 0


def _sample_check(kappa, t):
    def check(art):
        res = art["result"]
        out = []
        if not t <= res["radius"] <= 4.0 * t:
            out.append(f"sle sample kappa={kappa:.4g}: radius {res['radius']!r}"
                       f" outside the Koebe range [{t:.4g}, {4 * t:.4g}]")
        if kappa <= 4.0 and res["simple"] is not True:
            out.append(f"sle sample kappa={kappa:.4g}: trace not simple")
        if abs(res["capacity"] - math.log(t)) > 1e-12:
            out.append(f"sle sample: capacity {res['capacity']!r} != log t")
        u = complex(res["driving_point"]["re"], res["driving_point"]["im"])
        if abs(abs(u) - t) > 1e-12 * t:
            out.append(f"sle sample: |driving point| = {abs(u)!r} != t")
        return out
    return check


def _modulus_t_check(t):
    def check(art):
        if art["result"]["t"] != t:
            return [f"sle modulus: artifact t {art['result']['t']!r} != {t!r}"]
        return []
    return check


def _density_check(art):
    t, mean, stderr, target, deviation = art["result"]["rows"][-1]
    out = []
    if abs(target - DENSITY_TARGET) > 1e-12:
        out.append(f"sle density: target {target!r}, closed form "
                   f"{DENSITY_TARGET!r}")
    if abs(deviation - (mean - target)) > 1e-12:
        out.append("sle density: deviation is not mean - target")
    if t != DENSITY_T:
        out.append(f"sle density: row t {t!r} != {DENSITY_T!r}")
    return out


def sle_ops(seed: int, rnd: int) -> list[Op]:
    def s(label):
        return str(derive_seed(seed, "sle", rnd, label))

    def fixed(label):
        return str(derive_seed(FIXED_HULL_SEED, "sle", 0, label))

    ops = [Op(f"sample-kappa{name}", ["sle", "sample", "--kappa", kappa,
                                       "--t", repr(SAMPLE_T), "--seed",
                                       s(f"sample-{name}")],
              kind="sample", check=_sample_check(float(kappa), SAMPLE_T))
           for name, kappa in (("2", "2"), ("8_3", KAPPA_83))]
    # s/t -> psi'(0) = 1 in the unit disk; 0.1 t is the O(t) band of that
    # small-hull asymptotic
    ops += [Op(f"modulus-t{i}", ["sle", "modulus", "--kappa", KAPPA_83,
                                 "--t", repr(t), "--domain", "disk(0,0,1)",
                                 "--n", str(MODULUS_N),
                                 "--seed", fixed(f"modulus-{i}")],
               reference=ref.disk_uniformizer_derivative(0j, 1.0) * t,
               bias=0.1 * t, check=_modulus_t_check(t))
            for i, t in enumerate(MODULUS_TS)]
    ops.append(Op("density", ["sle", "density", "--kappa", "2", "--domain",
                              "disk(0,0,2)", "--w", "2", "--t",
                              repr(DENSITY_T), "--n-calib", "1", "--n",
                              str(DENSITY_N), "--n-mc", str(DENSITY_N_MC),
                              "--seed", fixed("density")],
                  reference=DENSITY_TARGET, bias=0.05, check=_density_check))
    return ops


BUILDERS = {"wos": wos_ops, "loops": loops_ops, "sle": sle_ops}


def build(workload: str, seed: int, rnd: int) -> list[Op]:
    return BUILDERS[workload](seed, rnd)
