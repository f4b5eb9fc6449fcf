"""Geometric substrate: points, Mobius maps, domains, compact target sets, curves.

Plane points are complex numbers throughout; the point at infinity is the
distinguished singleton INFINITY rather than a float sentinel.  All distance
queries accept numpy arrays of complex and are vectorized, since the walk
samplers call them in tight loops.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# rows per projection chunk in SegmentChain.nearest: keeps each points x
# segments matrix near 2 MB for a 513-vertex hull (and cache-friendly)
NEAREST_ROWS = 256


class GeometryError(ValueError):
    pass


class PoleOnCircle(GeometryError):
    """The Mobius map sends this circle to a line, which is unsupported."""


def _require_finite(*values):
    if not all(cmath.isfinite(complex(v)) for v in values):
        raise GeometryError("geometry parameters must be finite")


# ---------------------------------------------------------------------------
# points


class _Infinity:
    """Distinguished point at infinity on the sphere."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self or other is INFINITY

    def __hash__(self):
        return hash("loupe-point-at-infinity")


INFINITY = _Infinity()


def is_infinity(z) -> bool:
    return isinstance(z, _Infinity)


def as_complex(z) -> complex:
    if is_infinity(z):
        raise GeometryError("finite point required")
    return complex(z)


# ---------------------------------------------------------------------------
# Mobius maps


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d) with exact coefficient arithmetic."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise GeometryError("degenerate Mobius map (ad - bc = 0)")

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    @staticmethod
    def dilation(lam: complex) -> "MobiusMap":
        return MobiusMap(lam, 0, 0, 1)

    @staticmethod
    def translation(w: complex) -> "MobiusMap":
        return MobiusMap(1, w, 0, 1)

    @staticmethod
    def inversion() -> "MobiusMap":
        return MobiusMap(0, 1, 1, 0)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return MobiusMap(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                         c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def __call__(self, z):
        return mobius_apply(self, z)


def mobius_apply(f: MobiusMap, z):
    """Apply f on the sphere; total, with poles mapped to INFINITY."""
    if is_infinity(z):
        if f.c == 0:
            return INFINITY
        return f.a / f.c
    z = complex(z)
    den = f.c * z + f.d
    if den == 0:
        return INFINITY
    return (f.a * z + f.b) / den


def circumcircle(p1: complex, p2: complex, p3: complex):
    """Center and radius of the circle through three points."""
    ax, ay = p1.real, p1.imag
    bx, by = p2.real, p2.imag
    cx, cy = p3.real, p3.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        raise GeometryError("collinear points have no circumcircle")
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    center = complex(ux, uy)
    return center, abs(p1 - center)


# ---------------------------------------------------------------------------
# compact sets


class CompactSet:
    """Closed nonpolar target set supporting distance and hit queries."""

    def dist(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def nearest(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def radial_range(self) -> tuple[float, float]:
        """(min, max) of |z| over the set."""
        raise NotImplementedError

    def dist_wos(self, z: np.ndarray, thresh: float) -> np.ndarray:
        """Lower bound on dist(z) that is exact whenever the returned value
        is at most thresh. Walk-on-spheres loops use it for jump radii and
        absorption tests; sets with many pieces override it with a cheap
        bounding-circle screen."""
        return self.dist(z)

    def contains_point(self, z: complex, tol: float = 0.0) -> bool:
        return bool(self.dist(np.asarray([z], dtype=complex))[0] <= tol)

    def sample_points(self, n: int) -> np.ndarray:
        """Dense point sampling, used by tests and plot helpers."""
        raise NotImplementedError

    def translated(self, w: complex) -> "CompactSet":
        raise NotImplementedError

    def scaled(self, lam: float) -> "CompactSet":
        raise NotImplementedError


@dataclass(frozen=True)
class Circle(CompactSet):
    center: complex
    radius: float

    def __post_init__(self):
        _require_finite(self.center, self.radius)
        if self.radius <= 0:
            raise GeometryError("circle radius must be positive")

    def dist(self, z):
        return np.abs(np.abs(z - self.center) - self.radius)

    def nearest(self, z):
        v = z - self.center
        r = np.abs(v)
        v = np.where(r == 0, 1.0 + 0j, v / np.where(r == 0, 1.0, r))
        return self.center + self.radius * v

    def radial_range(self):
        d = abs(self.center)
        return abs(d - self.radius), d + self.radius

    def sample_points(self, n):
        th = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return self.center + self.radius * np.exp(1j * th)

    def translated(self, w):
        return Circle(self.center + w, self.radius)

    def scaled(self, lam):
        return Circle(self.center * lam, self.radius * lam)


@dataclass(frozen=True)
class ClosedDisk(CompactSet):
    center: complex
    radius: float

    def __post_init__(self):
        _require_finite(self.center, self.radius)
        if self.radius <= 0:
            raise GeometryError("disk radius must be positive")

    def dist(self, z):
        return np.maximum(np.abs(z - self.center) - self.radius, 0.0)

    def nearest(self, z):
        v = z - self.center
        r = np.abs(v)
        inside = r <= self.radius
        v = np.where(r == 0, 1.0 + 0j, v / np.where(r == 0, 1.0, r))
        return np.where(inside, z, self.center + self.radius * v)

    def boundary_circle(self) -> Circle:
        return Circle(self.center, self.radius)

    def radial_range(self):
        d = abs(self.center)
        return max(d - self.radius, 0.0), d + self.radius

    def sample_points(self, n):
        return self.boundary_circle().sample_points(n)

    def translated(self, w):
        return ClosedDisk(self.center + w, self.radius)

    def scaled(self, lam):
        return ClosedDisk(self.center * lam, self.radius * lam)


def _segment_dist(z, a, b):
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0:
        return np.abs(z - a)
    t = np.clip(((z - a) * np.conj(ab)).real / L2, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def _segment_nearest(z, a, b):
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0:
        return np.full_like(z, a)
    t = np.clip(((z - a) * np.conj(ab)).real / L2, 0.0, 1.0)
    return a + t * ab


@dataclass(frozen=True)
class Segment(CompactSet):
    a: complex
    b: complex

    def __post_init__(self):
        _require_finite(self.a, self.b)
        if self.a == self.b:
            raise GeometryError("degenerate segment")

    def dist(self, z):
        return _segment_dist(z, self.a, self.b)

    def nearest(self, z):
        return _segment_nearest(z, self.a, self.b)

    def radial_range(self):
        dmin = float(_segment_dist(np.asarray(0j), self.a, self.b))
        return dmin, max(abs(self.a), abs(self.b))

    def sample_points(self, n):
        t = np.linspace(0.0, 1.0, n)
        return self.a + t * (self.b - self.a)

    def translated(self, w):
        return Segment(self.a + w, self.b + w)

    def scaled(self, lam):
        return Segment(self.a * lam, self.b * lam)


class SegmentChain(CompactSet):
    """Polyline target set given by consecutive vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=complex)
        if v.size < 2:
            raise GeometryError("segment chain needs at least two vertices")
        if np.any(v[1:] == v[:-1]):
            raise GeometryError("consecutive vertices must be distinct")
        self.vertices = v
        self._a = v[:-1]
        self._b = v[1:]
        self._bb_center = complex((v.real.min() + v.real.max()) / 2.0,
                                  (v.imag.min() + v.imag.max()) / 2.0)
        self._bb_radius = float(np.abs(v - self._bb_center).max())
        self._blocks = self._build_blocks(32) if len(self._a) > 64 else None

    def _build_blocks(self, width):
        # bounding circles for runs of consecutive segments, used to prune
        # the per-segment projection in dist()
        blocks = []
        for k0 in range(0, len(self._a), width):
            k1 = min(k0 + width, len(self._a))
            vv = self.vertices[k0:k1 + 1]
            c = complex((vv.real.min() + vv.real.max()) / 2.0,
                        (vv.imag.min() + vv.imag.max()) / 2.0)
            blocks.append((k0, k1, c, float(np.abs(vv - c).max())))
        return blocks

    def _dist_flat(self, z):
        # for small batches one full projection beats block bookkeeping
        if self._blocks is None or z.size * len(self._a) <= 100_000:
            if z.size == 0:
                return np.empty(0, dtype=float)
            d = np.abs(z[:, None] - _seg_project(z[:, None], self._a, self._b))
            return d.min(axis=-1)
        cen = np.asarray([blk[2] for blk in self._blocks])
        rad = np.asarray([blk[3] for blk in self._blocks])
        lb = np.abs(z[:, None] - cen[None, :]) - rad[None, :]
        best = np.full(z.shape, np.inf)
        # seed each point with its most promising block, then sweep the rest
        # and skip any block whose lower bound cannot beat the current best
        seed_blk = lb.argmin(axis=1)
        for j, (k0, k1, _, _) in enumerate(self._blocks):
            mask = seed_blk == j
            if np.any(mask):
                zz = z[mask][:, None]
                d = np.abs(zz - _seg_project(zz, self._a[k0:k1],
                                             self._b[k0:k1])).min(axis=-1)
                best[mask] = d
        for j, (k0, k1, _, _) in enumerate(self._blocks):
            mask = (lb[:, j] < best) & (seed_blk != j)
            if np.any(mask):
                zz = z[mask][:, None]
                d = np.abs(zz - _seg_project(zz, self._a[k0:k1],
                                             self._b[k0:k1])).min(axis=-1)
                best[mask] = np.minimum(best[mask], d)
        return best

    def dist(self, z):
        z = np.asarray(z, dtype=complex)
        return self._dist_flat(z.ravel()).reshape(z.shape)

    def dist_wos(self, z, thresh):
        # screen against the bounding circle: points whose lower bound
        # already exceeds thresh skip the per-segment projection
        z = np.asarray(z, dtype=complex)
        out = np.abs(z - self._bb_center) - self._bb_radius
        near = out <= thresh
        if np.any(near):
            out = out.copy()
            out[near] = self.dist(z[near])
        return out

    def nearest(self, z):
        # project in fixed-size row chunks so memory stays bounded whatever
        # the batch size; each row's argmin is independent of the chunking
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty_like(flat)
        for i in range(0, flat.size, NEAREST_ROWS):
            zz = flat[i:i + NEAREST_ROWS, None]
            proj = _seg_project(zz, self._a, self._b)
            k = np.abs(zz - proj).argmin(axis=-1)
            out[i:i + NEAREST_ROWS] = proj[np.arange(k.size), k]
        return out.reshape(z.shape)

    def radial_range(self):
        r = np.abs(self.vertices)
        # interior of segments can come closer to 0 than any vertex
        proj = _seg_project(np.zeros(1, dtype=complex)[:, None],
                            self._a[None, :], self._b[None, :])
        return float(min(r.min(), np.abs(proj).min())), float(r.max())

    def sample_points(self, n):
        lens = np.abs(self._b - self._a)
        total = lens.sum()
        out = []
        for a, b, L in zip(self._a, self._b, lens):
            k = max(2, int(round(n * L / total)))
            t = np.linspace(0, 1, k, endpoint=False)
            out.append(a + t * (b - a))
        out.append(self.vertices[-1:])
        return np.concatenate(out)

    def translated(self, w):
        return SegmentChain(self.vertices + w)

    def scaled(self, lam):
        return SegmentChain(self.vertices * lam)


def _seg_project(z, a, b):
    ab = b - a
    L2 = np.abs(ab) ** 2
    L2 = np.where(L2 == 0, 1.0, L2)
    t = np.clip(((z - a) * np.conj(ab)).real / L2, 0.0, 1.0)
    return a + t * ab


class DiscretizedHull(SegmentChain):
    """Hull given by a discretized curve; resolution is its vertex spacing."""

    def __init__(self, curve: "PolyCurve"):
        super().__init__(curve.vertices)


class UnionSet(CompactSet):
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise GeometryError("empty union")
        self.parts = parts

    def dist(self, z):
        z = np.asarray(z, dtype=complex)
        d = self.parts[0].dist(z)
        for p in self.parts[1:]:
            d = np.minimum(d, p.dist(z))
        return d

    def dist_wos(self, z, thresh):
        z = np.asarray(z, dtype=complex)
        d = self.parts[0].dist_wos(z, thresh)
        for p in self.parts[1:]:
            d = np.minimum(d, p.dist_wos(z, thresh))
        return d

    def nearest(self, z):
        z = np.asarray(z, dtype=complex)
        best = self.parts[0].nearest(z)
        bd = np.abs(z - best)
        for p in self.parts[1:]:
            cand = p.nearest(z)
            cd = np.abs(z - cand)
            best = np.where(cd < bd, cand, best)
            bd = np.minimum(bd, cd)
        return best

    def radial_range(self):
        ranges = [p.radial_range() for p in self.parts]
        return min(r[0] for r in ranges), max(r[1] for r in ranges)

    def sample_points(self, n):
        k = max(2, n // len(self.parts))
        return np.concatenate([p.sample_points(k) for p in self.parts])

    def translated(self, w):
        return UnionSet([p.translated(w) for p in self.parts])

    def scaled(self, lam):
        return UnionSet([p.scaled(lam) for p in self.parts])


def mobius_image_circle(f: MobiusMap, c: Circle) -> Circle:
    """Exact image circle computed from three mapped points.

    Raises PoleOnCircle when the image is a line.
    """
    if f.c != 0:
        pole = -f.d / f.c
        if abs(abs(pole - c.center) - c.radius) < 1e-14 * max(1.0, c.radius):
            raise PoleOnCircle("map has a pole on the circle; image is a line")
    pts = [c.center + c.radius * cmath.exp(1j * t) for t in (0.0, 2.2, 4.4)]
    imgs = [mobius_apply(f, p) for p in pts]
    if any(is_infinity(w) for w in imgs):
        raise PoleOnCircle("map has a pole on the circle; image is a line")
    center, radius = circumcircle(*imgs)
    return Circle(center, radius)


def mobius_image_set(f: MobiusMap, V: CompactSet) -> CompactSet:
    if isinstance(V, Circle):
        return mobius_image_circle(f, V)
    if isinstance(V, ClosedDisk):
        img = mobius_image_circle(f, V.boundary_circle())
        # a Mobius map sends the disk to the disk bounded by the image circle
        # unless the pole lies inside, in which case the image is unbounded
        if f.c != 0:
            pole = -f.d / f.c
            if abs(pole - V.center) < V.radius:
                raise GeometryError("pole inside disk; image region unbounded")
        return ClosedDisk(img.center, img.radius)
    if isinstance(V, UnionSet):
        return UnionSet([mobius_image_set(f, p) for p in V.parts])
    raise GeometryError(f"unsupported set for Mobius image: {type(V).__name__}")


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class PolyCurve:
    """Discretized curve with optional strictly increasing capacity stamps."""

    vertices: tuple
    cap_times: tuple | None = None

    def __post_init__(self):
        v = tuple(complex(z) for z in self.vertices)
        object.__setattr__(self, "vertices", v)
        if len(v) < 2:
            raise GeometryError("curve needs at least two vertices")
        if any(a == b for a, b in zip(v, v[1:])):
            raise GeometryError("consecutive vertices must be distinct")
        if self.cap_times is not None:
            t = tuple(float(x) for x in self.cap_times)
            if len(t) != len(v):
                raise GeometryError("one capacity stamp per vertex required")
            if any(t[i + 1] <= t[i] for i in range(len(t) - 1)):
                raise GeometryError("capacity stamps must be strictly increasing")
            object.__setattr__(self, "cap_times", t)

    def as_hull(self) -> DiscretizedHull:
        return DiscretizedHull(self)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=complex)


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Open connected region with a total membership test for finite points."""

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    def scale(self) -> float:
        """Characteristic length used for tolerances."""
        raise NotImplementedError

    def boundary_sets(self) -> list[CompactSet]:
        """Boundary pieces as compact sets (used by exit samplers)."""
        raise NotImplementedError

    def dist_to_boundary(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        d = None
        for piece in self.boundary_sets():
            pd = piece.dist(z)
            d = pd if d is None else np.minimum(d, pd)
        return d


@dataclass(frozen=True)
class Disk(Domain):
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        _require_finite(self.center, self.radius)
        if self.radius <= 0:
            raise GeometryError("radius must be positive")

    def contains(self, z):
        return abs(z - self.center) < self.radius

    def scale(self):
        return self.radius

    def boundary_sets(self):
        return [Circle(self.center, self.radius)]


@dataclass(frozen=True)
class ExteriorDisk(Domain):
    """{|z - center| > radius}, the unbounded face of a circle."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        _require_finite(self.center, self.radius)
        if self.radius <= 0:
            raise GeometryError("radius must be positive")

    def contains(self, z):
        return abs(z - self.center) > self.radius

    def scale(self):
        return self.radius

    def boundary_sets(self):
        return [Circle(self.center, self.radius)]


@dataclass(frozen=True)
class Annulus(Domain):
    r: float
    R: float
    center: complex = 0j

    def __post_init__(self):
        _require_finite(self.r, self.R, self.center)
        if not (0 < self.r < self.R):
            raise GeometryError("annulus needs 0 < r < R")

    def contains(self, z):
        return self.r < abs(z - self.center) < self.R

    def scale(self):
        return self.R

    def boundary_sets(self):
        return [Circle(self.center, self.r), Circle(self.center, self.R)]

    def inner_circle(self):
        return Circle(self.center, self.r)

    def outer_circle(self):
        return Circle(self.center, self.R)


@dataclass(frozen=True)
class HalfPlane(Domain):
    """Upper half plane Im z > 0."""

    def contains(self, z):
        return complex(z).imag > 0

    def scale(self):
        return 1.0

    def boundary_sets(self):
        return [Segment(-1e9 + 0j, 1e9 + 0j)]


class HullComplement(Domain):
    """Unbounded complement of a compact hull."""

    def __init__(self, hull: CompactSet):
        self.hull = hull

    def contains(self, z):
        return float(self.hull.dist(np.asarray([z], dtype=complex))[0]) > 0

    def scale(self):
        lo, hi = self.hull.radial_range()
        return max(hi, 1e-12)

    def boundary_sets(self):
        return [self.hull]


class PolylineJordan(Domain):
    """Interior of a simple closed polyline."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=complex)
        if v[0] != v[-1]:
            v = np.append(v, v[0])
        if len(v) < 4:
            raise GeometryError("need at least three distinct vertices")
        self.vertices = v
        self._chain = SegmentChain(v)

    def contains(self, z):
        # even-odd ray casting
        z = complex(z)
        x, y = z.real, z.imag
        v = self.vertices
        inside = False
        for a, b in zip(v[:-1], v[1:]):
            if (a.imag > y) != (b.imag > y):
                t = (y - a.imag) / (b.imag - a.imag)
                xc = a.real + t * (b.real - a.real)
                if x < xc:
                    inside = not inside
        return inside

    def scale(self):
        v = self.vertices
        return float(max(v.real.max() - v.real.min(), v.imag.max() - v.imag.min()) / 2.0)

    def boundary_sets(self):
        return [self._chain]

    def boundary_chain(self) -> SegmentChain:
        return self._chain


class Intersection(Domain):
    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise GeometryError("empty intersection")

    def contains(self, z):
        return all(p.contains(z) for p in self.parts)

    def scale(self):
        return min(p.scale() for p in self.parts)

    def boundary_sets(self):
        out = []
        for p in self.parts:
            out.extend(p.boundary_sets())
        return out


class DomainMinusSet(Domain):
    """D with a compact set removed from it (slitted domain)."""

    def __init__(self, base: Domain, removed: CompactSet):
        self.base = base
        self.removed = removed

    def contains(self, z):
        return self.base.contains(z) and \
            float(self.removed.dist(np.asarray([z], dtype=complex))[0]) > 0

    def scale(self):
        return self.base.scale()

    def boundary_sets(self):
        return self.base.boundary_sets() + [self.removed]


# ---------------------------------------------------------------------------
# literal parsing, e.g. circle(0,0,1) / annulus(0.5,2) / disk(0,0,2)

_LITERAL = _re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def parse_geometry(text: str):
    """Parse a geometry literal into a CompactSet or Domain."""
    m = _LITERAL.match(text.strip().lower())
    if not m:
        raise GeometryError(f"bad geometry literal: {text!r}")
    name, argstr = m.group(1), m.group(2)
    try:
        args = [float(x) for x in argstr.split(",")] if argstr.strip() else []
    except ValueError as exc:
        raise GeometryError(f"bad geometry literal: {text!r}") from exc

    def need(n):
        if len(args) != n:
            raise GeometryError(f"{name} needs {n} arguments, got {len(args)}")

    if name == "circle":
        need(3)
        return Circle(complex(args[0], args[1]), args[2])
    if name == "closed_disk":
        need(3)
        return ClosedDisk(complex(args[0], args[1]), args[2])
    if name == "segment":
        need(4)
        return Segment(complex(args[0], args[1]), complex(args[2], args[3]))
    if name == "disk":
        need(3)
        return Disk(complex(args[0], args[1]), args[2])
    if name == "exterior":
        need(3)
        return ExteriorDisk(complex(args[0], args[1]), args[2])
    if name == "annulus":
        need(2)
        return Annulus(args[0], args[1])
    if name == "halfplane":
        need(0)
        return HalfPlane()
    raise GeometryError(f"unknown geometry literal: {name!r}")


def parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise GeometryError(f"bad point literal: {text!r}")
    z = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
    _require_finite(z)
    return z
