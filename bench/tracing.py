"""Outside-in tracing of loupe's public functions for the per-layer metrics.

`Tracer.install` replaces each traced function at every import site that
holds it (for example both `engine.wos_exit_points` and
`sle.wos_exit_points`) and each traced method on its class, with a wrapper
that times the call.  Nothing inside loupe is edited: spans start and end
at the module boundaries.  `Tracer.uninstall` puts the originals back.

Spans are kept in memory as (name, start, end, parent) and written out once
by `Tracer.dump`.  Geometry methods run inside the walk loops up to a few
hundred thousand times per operation, so they are timed and counted but
keep no span of their own.  A module's self time is the time its frames
ran minus the time covered by their traced children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import reference as ref

# the per-layer metrics: name, unit and which direction is better
PER_LAYER = (
    ("cli.ops", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("records.self_s", "s", "lower"),
    ("records.cache_hits", "count", "higher"),
    ("records.cache_misses", "count", "lower"),
    ("records.cache_hit_ratio", "ratio", "higher"),
    ("geometry.self_s", "s", "lower"),
    ("geometry.SegmentChain.dist.s", "s", "lower"),
    ("geometry.SegmentChain.dist.points", "count", "lower"),
    ("geometry.SegmentChain.dist_wos.s", "s", "lower"),
    ("geometry.SegmentChain.dist_wos.points", "count", "lower"),
    ("geometry.SegmentChain.nearest.s", "s", "lower"),
    ("geometry.SegmentChain.nearest.points", "count", "lower"),
    ("geometry.PolylineJordan.contains.s", "s", "lower"),
    ("geometry.PolylineJordan.contains.calls", "count", "lower"),
    ("geometry.DomainMinusSet.contains.s", "s", "lower"),
    ("geometry.DomainMinusSet.contains.calls", "count", "lower"),
    ("geometry.contains.distinct_ratio", "ratio", "higher"),
    ("engine.self_s", "s", "lower"),
    ("engine.wos_exit_batch.s", "s", "lower"),
    ("engine.wos_exit_batch.walkers", "count", "higher"),
    ("engine.wos_exit_batch.iterations", "count", "lower"),
    ("engine.wos_exit_batch.walker_steps", "count", "lower"),
    ("engine.wos_exit_batch.walker_steps_per_s", "1/s", "higher"),
    ("engine.wos_exit_batch.tail_iteration_share", "ratio", "lower"),
    ("engine.hitting_prob.s", "s", "lower"),
    ("engine.excursion_estimate.s", "s", "lower"),
    ("engine.capacity_estimate.s", "s", "lower"),
    ("engine.conformal_radius.s", "s", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("bubble.self_s", "s", "lower"),
    ("bubble.bubble_diff_mass.s", "s", "lower"),
    ("loops.self_s", "s", "lower"),
    ("loops.nodes", "count", "lower"),
    ("loops.node_s", "s", "lower"),
    ("loops.node_walkers", "count", "lower"),
    ("loops.concentric_quad_s", "s", "lower"),
    ("loops.target_dist_points", "count", "lower"),
    ("lamstar.self_s", "s", "lower"),
    ("lamstar.lambda_star.s", "s", "lower"),
    ("lamstar.lambda_star_centered.s", "s", "lower"),
    ("sle.self_s", "s", "lower"),
    ("sle.whole_plane_sample.s", "s", "lower"),
    ("sle.whole_plane_sample.steps", "count", "lower"),
    ("sle.map_at.s", "s", "lower"),
    ("sle.map_at.point_steps", "count", "lower"),
    ("sle.map_at.point_steps_per_s", "1/s", "higher"),
    ("sle.whole_plane_ensemble.s", "s", "lower"),
    ("sle.whole_plane_ensemble.path_steps_per_s", "1/s", "higher"),
    ("sle.annulus_modulus.s", "s", "lower"),
    ("sle.trace_is_simple.s", "s", "lower"),
    ("sle.rn_density.s", "s", "lower"),
    ("sle.rn_density.modulus_s", "s", "lower"),
    ("sle.rn_density.exc_w_s", "s", "lower"),
    ("sle.rn_density.image_domain_s", "s", "lower"),
    ("sle.rn_density.exc_tip_s", "s", "lower"),
    ("sle.rn_density.lam_s", "s", "lower"),
    ("sle.rn_density.map_w_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# the public functions the workloads reach, by module; "Class.method"
# patches the class attribute
TRACED = {
    "records": ["cache_lookup", "cache_store", "canonical_json",
                "config_hash", "ResultRecord.artifact_json"],
    "geometry": ["parse_geometry", "parse_point"],
    "engine": ["wos_exit_batch", "wos_exit_points", "hitting_prob",
               "excursion_estimate", "capacity_estimate", "conformal_radius",
               "richardson"],
    "kernels": ["poisson_disk", "poisson_exterior", "harm_annulus",
                "exc_annulus", "boundary_poisson_annulus"],
    "bubble": ["bubble_diff_mass"],
    "loops": ["loop_mass", "loop_mass_profile", "_node_mass"],
    "lamstar": ["lambda_star", "lambda_star_sets", "lambda_star_centered"],
    "sle": ["exponents", "whole_plane_sample", "whole_plane_ensemble",
            "trace_is_simple", "annulus_modulus", "rn_density",
            "density_limit_check", "SLEHull.map_at", "SLEHull.hull_set"],
}

# geometry methods traced on every class that defines them
GEOMETRY_METHODS = ("dist", "dist_wos", "nearest", "radial_range",
                    "contains", "dist_to_boundary", "boundary_sets")

# domains whose membership test is a geometric computation of its own; the
# one-line tests of disks and annuli run once per walker, where a timed
# wrapper would double the wos workload, so they are only counted
TIMED_CONTAINS = ("PolylineJordan", "DomainMinusSet")

# point queries on polylines, whose cost grows with points x segments
CHAIN_QUERIES = tuple(f"geometry.SegmentChain.{m}"
                      for m in ("dist", "dist_wos", "nearest"))

# modules whose calls into scipy's quad are timed at their import site
QUAD_SITES = ("loops", "lamstar")


class _Frame:
    __slots__ = ("name", "module", "start", "child", "span", "info")

    def __init__(self, name, module, span):
        self.name = name
        self.module = module
        self.start = 0.0
        self.child = 0.0
        self.span = span
        self.info = None


class _QuadSite:
    """Stand-in for a module's `scipy.integrate` whose quad is traced."""

    def __init__(self, real, quad):
        self._real = real
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self, loupe_modules: dict):
        self.mods = loupe_modules
        self.clock = time.perf_counter
        self.stack: list[_Frame] = []
        self.spans: list = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.contains_seen: set = set()
        self._in_contains = 0
        self.step_mismatch: list = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        for module, names in TRACED.items():
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(self.mods[module], cls_name)
                    self._patch_method(cls, meth, f"{module}.{name}", module,
                                       keep_span=True)
                else:
                    orig = getattr(self.mods[module], name)
                    self._patch_function(orig, f"{module}.{name}", module)
        geometry = self.mods["geometry"]
        for cls in vars(geometry).values():
            if not (inspect.isclass(cls) and cls.__module__ == geometry.__name__):
                continue
            for meth in GEOMETRY_METHODS:
                if meth not in vars(cls):
                    continue
                name = f"geometry.{cls.__name__}.{meth}"
                if meth == "contains":
                    orig = vars(cls)[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap_contains(
                        orig, name, cls.__name__ in TIMED_CONTAINS))
                else:
                    self._patch_method(cls, meth, name, "geometry",
                                       keep_span=False)
        for module in QUAD_SITES:
            mod = self.mods[module]
            real = mod.integrate
            quad = self._wrap(real.quad, f"{module}.quad", module,
                              keep_span=False)
            self._patches.append((mod, "integrate", real))
            setattr(mod, "integrate", _QuadSite(real, quad))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch_function(self, orig, name, module):
        wrapper = self._wrap(orig, name, module, keep_span=True)
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, meth, name, module, keep_span):
        orig = vars(cls)[meth]
        self._patches.append((cls, meth, orig))
        setattr(cls, meth, self._wrap(orig, name, module, keep_span))

    def _wrap(self, fn, name, module, keep_span):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name.endswith(".dist_wos"):
            before = self._before_dist_wos
        if name in CHAIN_QUERIES:
            after = self._after_chain_points
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, module, keep_span, before, after,
                                args, kwargs)
        return traced

    def _wrap_contains(self, fn, name, timed):
        """Count outermost membership tests and their distinct points; time
        them only where `timed`."""
        tracer = self

        @functools.wraps(fn)
        def traced(obj, z):
            if not tracer._in_contains:
                tracer.count["contains.calls"] += 1
                tracer.contains_seen.add((id(obj), complex(z)))
            if not timed:
                return fn(obj, z)
            tracer._in_contains += 1
            try:
                return tracer._call(fn, name, "geometry", False, None, None,
                                    (obj, z), {})
            finally:
                tracer._in_contains -= 1
        return traced

    # -- the timed call ----------------------------------------------------

    def call(self, fn, name, module, *args):
        """Run fn(*args) as a traced span (the benchmark's own entry)."""
        return self._call(fn, name, module, True, None, None, args, {})

    def _call(self, fn, name, module, keep_span, before, after, args, kwargs):
        span = parent_span = None
        if keep_span:
            parent_span = next((f.span for f in reversed(self.stack)
                                if f.span is not None), None)
            span = len(self.spans)
            self.spans.append(None)
        frame = _Frame(name, module, span)
        if before is not None:
            before(frame, args, kwargs)
        self.stack.append(frame)
        frame.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            dur = end - frame.start
            self.calls[name] += 1
            self.seconds[name] += dur
            self.self_s[module] += dur - frame.child
            if self.stack:
                self.stack[-1].child += dur
            if span is not None:
                self.spans[span] = (name, frame.start, end, parent_span)
        if after is not None:
            after(frame, args, kwargs, result, dur)
        return result

    def _innermost(self, name):
        for f in reversed(self.stack):
            if f.name == name:
                return f
        return None

    # -- counters at the boundaries ---------------------------------------

    def _before_dist_wos(self, frame, args, kwargs):
        obj, z = args[0], args[1]
        size = int(np.size(z))
        batch = self._innermost("engine.wos_exit_batch")
        if batch is not None and batch.info["first"] is obj \
                and self.stack[-1] is batch:
            self.count["wos.iterations"] += 1
            self.count["wos.walker_steps"] += size
            if size < 0.01 * batch.info["walkers"]:
                self.count["wos.tail_iterations"] += 1
        node = self._innermost("loops._node_mass")
        if node is not None and id(obj) in node.info:
            self.count["loops.target_dist_points"] += size

    def _after_chain_points(self, frame, args, kwargs, result, dur):
        self.count[frame.name + ".points"] += int(np.size(args[1]))

    def _before_engine_wos_exit_batch(self, frame, args, kwargs):
        bound = _bind(self.mods["engine"].wos_exit_batch.__wrapped__,
                      args, kwargs)
        frame.info = {"first": bound["features"][0],
                      "walkers": int(np.size(bound["z0"]))}
        self.count["wos.walkers"] += int(np.size(bound["z0"]))

    def _before_loops__node_mass(self, frame, args, kwargs):
        b = _bind(self.mods["loops"]._node_mass.__wrapped__, args, kwargs)
        frame.info = {id(t) for t in b["targets"]}
        # walkers per node: n_per_root walkers at each of n_theta roots, on
        # every rung of the offset ladder
        per_root = max(b["n_per_node"] // b["n_theta"], 8)
        self.count["loops.node_walkers"] += (b["n_theta"] * per_root
                                             * len(b["eps_hats"]))

    def _after_records_cache_lookup(self, frame, args, kwargs, result, dur):
        if self.mods["records"].cache_dir() is None:
            return
        self.count["records.hits" if result is not None
                   else "records.misses"] += 1

    def _after_sle_whole_plane_sample(self, frame, args, kwargs, hull, dur):
        b = _bind(self.mods["sle"].whole_plane_sample.__wrapped__,
                  args, kwargs)
        steps = len(hull.thetas) - 1
        want = ref.whole_plane_steps(b["t_end"], b["dt"], b["t0"])
        if steps != want:
            self.step_mismatch.append((b["t_end"], b["dt"], steps, want))
        self.count["sle.sample_steps"] += steps

    def _after_sle_SLEHull_map_at(self, frame, args, kwargs, result, dur):
        hull, z = args[0], args[1]
        self.count["sle.map_at_point_steps"] += (
            int(np.size(z)) * (len(hull.thetas) - 1))

    def _after_sle_whole_plane_ensemble(self, frame, args, kwargs, result,
                                        dur):
        b = _bind(self.mods["sle"].whole_plane_ensemble.__wrapped__,
                  args, kwargs)
        self.count["sle.ensemble_path_steps"] += b["n"] * ref.whole_plane_steps(
            b["t_end"], b["dt"], b["t0"])

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        return dict(self.count)

    def rn_density_stages(self) -> dict:
        """Stage split of every rn_density call from its direct children:
        the first and second excursion estimates are exc_w and exc_tip, the
        gap between them is the image-domain construction, and map_at calls
        after exc_tip evaluate g_t at w."""
        stages = defaultdict(float)
        roots = [i for i, s in enumerate(self.spans)
                 if s is not None and s[0] == "sle.rn_density"]
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s is not None and s[3] in roots:
                children[s[3]].append(s)
        for r in roots:
            kids = sorted(children[r], key=lambda s: s[1])
            exc = [s for s in kids if s[0] == "engine.excursion_estimate"]
            for s in kids:
                if s[0] == "sle.annulus_modulus":
                    stages["modulus_s"] += s[2] - s[1]
                elif s[0] == "lamstar.lambda_star":
                    stages["lam_s"] += s[2] - s[1]
                elif s[0] == "sle.SLEHull.map_at" and len(exc) == 2 \
                        and s[1] >= exc[1][2]:
                    stages["map_w_s"] += s[2] - s[1]
            if len(exc) == 2:
                stages["exc_w_s"] += exc[0][2] - exc[0][1]
                stages["exc_tip_s"] += exc[1][2] - exc[1][1]
                stages["image_domain_s"] += exc[1][1] - exc[0][2]
        return stages

    def metrics(self) -> dict:
        s, n, c = self.seconds, self.calls, self.count

        def rate(num, den):
            return num / den if den > 0 else 0.0

        hits, misses = c["records.hits"], c["records.misses"]
        m = {
            "cli.ops": n["cli.main"],
            "cli.self_s": self.self_s["cli"],
            "records.self_s": self.self_s["records"],
            "records.cache_hits": hits,
            "records.cache_misses": misses,
            "records.cache_hit_ratio": rate(hits, hits + misses),
            "geometry.self_s": self.self_s["geometry"],
        }
        for meth in ("dist", "dist_wos", "nearest"):
            key = f"geometry.SegmentChain.{meth}"
            m[key + ".s"] = s[key]
            m[key + ".points"] = c[key + ".points"]
        for cls in ("PolylineJordan", "DomainMinusSet"):
            key = f"geometry.{cls}.contains"
            m[key + ".s"] = s[key]
            m[key + ".calls"] = n[key]
        m["geometry.contains.distinct_ratio"] = rate(
            len(self.contains_seen), c["contains.calls"])
        batch_s = s["engine.wos_exit_batch"]
        m.update({
            "engine.self_s": self.self_s["engine"],
            "engine.wos_exit_batch.s": batch_s,
            "engine.wos_exit_batch.walkers": c["wos.walkers"],
            "engine.wos_exit_batch.iterations": c["wos.iterations"],
            "engine.wos_exit_batch.walker_steps": c["wos.walker_steps"],
            "engine.wos_exit_batch.walker_steps_per_s": rate(
                c["wos.walker_steps"], batch_s),
            "engine.wos_exit_batch.tail_iteration_share": rate(
                c["wos.tail_iterations"], c["wos.iterations"]),
        })
        for fn in ("hitting_prob", "excursion_estimate", "capacity_estimate",
                   "conformal_radius"):
            m[f"engine.{fn}.s"] = s[f"engine.{fn}"]
        m.update({
            "kernels.self_s": self.self_s["kernels"],
            "bubble.self_s": self.self_s["bubble"],
            "bubble.bubble_diff_mass.s": s["bubble.bubble_diff_mass"],
            "loops.self_s": self.self_s["loops"],
            "loops.nodes": n["loops._node_mass"],
            "loops.node_s": s["loops._node_mass"],
            "loops.node_walkers": c["loops.node_walkers"],
            "loops.concentric_quad_s": s["loops.quad"] + s["lamstar.quad"],
            "loops.target_dist_points": c["loops.target_dist_points"],
            "lamstar.self_s": self.self_s["lamstar"],
            "lamstar.lambda_star.s": s["lamstar.lambda_star"],
            "lamstar.lambda_star_centered.s": s["lamstar.lambda_star_centered"],
            "sle.self_s": self.self_s["sle"],
            "sle.whole_plane_sample.s": s["sle.whole_plane_sample"],
            "sle.whole_plane_sample.steps": c["sle.sample_steps"],
            "sle.map_at.s": s["sle.SLEHull.map_at"],
            "sle.map_at.point_steps": c["sle.map_at_point_steps"],
            "sle.map_at.point_steps_per_s": rate(
                c["sle.map_at_point_steps"], s["sle.SLEHull.map_at"]),
            "sle.whole_plane_ensemble.s": s["sle.whole_plane_ensemble"],
            "sle.whole_plane_ensemble.path_steps_per_s": rate(
                c["sle.ensemble_path_steps"], s["sle.whole_plane_ensemble"]),
            "sle.annulus_modulus.s": s["sle.annulus_modulus"],
            "sle.trace_is_simple.s": s["sle.trace_is_simple"],
            "sle.rn_density.s": s["sle.rn_density"],
        })
        stages = self.rn_density_stages()
        for stage in ("modulus_s", "exc_w_s", "image_domain_s", "exc_tip_s",
                      "lam_s", "map_w_s"):
            m[f"sle.rn_density.{stage}"] = stages[stage]
        return m

    def dump(self, path, extra: dict):
        doc = {
            "spans": [{"name": sp[0], "start": sp[1], "end": sp[2],
                       "parent": sp[3]} for sp in self.spans if sp is not None],
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_s": dict(self.self_s),
            "counters": dict(self.count),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, allow_nan=False)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
