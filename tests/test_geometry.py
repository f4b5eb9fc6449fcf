import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loupe.geometry import (INFINITY, Annulus, Circle, ClosedDisk, Disk,
                            ExteriorDisk, GeometryError, MobiusMap, PolyCurve,
                            PoleOnCircle, Segment, SegmentChain, UnionSet,
                            circumcircle, is_infinity,
                            mobius_apply, mobius_image_circle,
                            mobius_image_set, parse_geometry, parse_point)

finite = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False)


def mobius_maps():
    return st.builds(
        lambda a, b, c, d: (a, b, c, d),
        finite, finite, finite, finite,
    ).filter(lambda t: abs(t[0] * t[3] - t[1] * t[2]) > 1e-6).map(
        lambda t: MobiusMap(*t))


class TestMobius:
    @given(mobius_maps(), mobius_maps(), finite)
    @settings(max_examples=200)
    def test_compose_action(self, f, g, z):
        w = g(z)
        if is_infinity(w):
            return
        lhs = f.compose(g)(z)
        rhs = f(w)
        if is_infinity(lhs) or is_infinity(rhs):
            assert is_infinity(lhs) and is_infinity(rhs)
        else:
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))

    @given(mobius_maps(), finite)
    @settings(max_examples=200)
    def test_inverse_roundtrip(self, f, z):
        w = f(z)
        if is_infinity(w):
            return
        back = f.inverse()(w)
        if is_infinity(back):
            return
        assert abs(back - z) <= 1e-5 * max(1.0, abs(z))

    def test_identity_and_infinity(self):
        e = MobiusMap.identity()
        assert e(3 + 4j) == 3 + 4j
        assert is_infinity(e(INFINITY))
        inv = MobiusMap.inversion()
        assert is_infinity(inv(0j))
        assert inv(INFINITY) == 0j

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            MobiusMap(1, 2, 2, 4)


class TestCircleImages:
    @given(st.complex_numbers(min_magnitude=1.5, max_magnitude=6.0,
                              allow_nan=False, allow_infinity=False),
           st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=100)
    def test_inversion_image_membership(self, center, radius):
        c = Circle(center, radius)
        # pole at 0 is outside the circle by construction
        img = mobius_image_circle(MobiusMap.inversion(), c)
        pts = 1.0 / c.sample_points(64)
        dev = np.abs(np.abs(pts - img.center) - img.radius)
        assert float(dev.max()) < 1e-12

    def test_pole_on_circle_rejected(self):
        with pytest.raises(PoleOnCircle):
            mobius_image_circle(MobiusMap.inversion(), Circle(1 + 0j, 1.0))

    def test_disk_image_is_disk(self):
        f = MobiusMap.inversion()
        img = mobius_image_set(f, ClosedDisk(3 + 0j, 1.0))
        assert isinstance(img, ClosedDisk)
        # interior point maps inside
        assert img.contains_point(1.0 / (3.2 + 0.1j), tol=0.0) or \
            abs(1.0 / (3.2 + 0.1j) - img.center) <= img.radius

    def test_pole_inside_disk_rejected(self):
        with pytest.raises(GeometryError):
            mobius_image_set(MobiusMap.inversion(), ClosedDisk(0j, 1.0))


class TestCircumcircle:
    @given(finite, finite, finite)
    @settings(max_examples=200)
    def test_equidistant(self, p1, p2, p3):
        area = abs((p2 - p1).real * (p3 - p1).imag
                   - (p2 - p1).imag * (p3 - p1).real)
        span = max(abs(p2 - p1), abs(p3 - p1), 1e-12)
        if area < 1e-3 * span * span:
            return
        c, r = circumcircle(p1, p2, p3)
        for p in (p1, p2, p3):
            assert abs(abs(p - c) - r) < 1e-7 * max(1.0, r)

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError):
            circumcircle(0j, 1 + 0j, 2 + 0j)


ALL_SETS = [
    Circle(1 + 2j, 1.5),
    ClosedDisk(-1 + 0j, 0.7),
    Segment(-2 + 1j, 3 - 1j),
    SegmentChain([0j, 1 + 0j, 1 + 1j, 2 + 1j]),
    UnionSet([Circle(0j, 1.0), Segment(2 + 0j, 3 + 0j)]),
]


class TestSets:
    @pytest.mark.parametrize("V", ALL_SETS, ids=lambda v: type(v).__name__)
    def test_dist_nearest_consistent(self, V):
        gen = np.random.default_rng(0)
        z = gen.normal(size=200) * 3 + 1j * gen.normal(size=200) * 3
        d = V.dist(z)
        near = V.nearest(z)
        assert np.allclose(np.abs(z - near), d, atol=1e-10)
        # nearest points lie on the set
        assert float(V.dist(near).max()) < 1e-9

    @pytest.mark.parametrize("V", ALL_SETS, ids=lambda v: type(v).__name__)
    def test_radial_range_bounds_samples(self, V):
        lo, hi = V.radial_range()
        r = np.abs(V.sample_points(512))
        assert r.min() >= lo - 1e-9
        assert r.max() <= hi + 1e-9

    @pytest.mark.parametrize("V", ALL_SETS, ids=lambda v: type(v).__name__)
    def test_translation_covariance(self, V):
        w = 0.7 - 1.3j
        gen = np.random.default_rng(1)
        z = gen.normal(size=50) + 1j * gen.normal(size=50)
        assert np.allclose(V.translated(w).dist(z + w), V.dist(z), atol=1e-10)

    @pytest.mark.parametrize(
        "V", [s for s in ALL_SETS if not isinstance(s, UnionSet)],
        ids=lambda v: type(v).__name__)
    def test_scaling_covariance(self, V):
        lam = 2.5
        gen = np.random.default_rng(2)
        z = gen.normal(size=50) + 1j * gen.normal(size=50)
        assert np.allclose(V.scaled(lam).dist(lam * z), lam * V.dist(z),
                           rtol=1e-10, atol=1e-12)

    def test_segment_chain_matches_segments(self):
        chain = SegmentChain([0j, 1 + 0j, 1 + 1j])
        parts = UnionSet([Segment(0j, 1 + 0j), Segment(1 + 0j, 1 + 1j)])
        gen = np.random.default_rng(3)
        z = gen.normal(size=100) + 1j * gen.normal(size=100)
        assert np.allclose(chain.dist(z), parts.dist(z), atol=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(GeometryError):
            Circle(0j, 0.0)
        with pytest.raises(GeometryError):
            Segment(1j, 1j)
        with pytest.raises(GeometryError):
            SegmentChain([1j])


class TestCurvesAndDomains:
    def test_polycurve_stamp_validation(self):
        PolyCurve((0j, 1j), (0.0, 1.0))
        with pytest.raises(GeometryError):
            PolyCurve((0j, 1j), (1.0, 1.0))
        with pytest.raises(GeometryError):
            PolyCurve((0j, 1j), (0.0,))
        with pytest.raises(GeometryError):
            PolyCurve((0j,))

    def test_domain_membership(self):
        assert Disk(0j, 1.0).contains(0.5j)
        assert not Disk(0j, 1.0).contains(1.5j)
        assert ExteriorDisk(0j, 1.0).contains(2 + 0j)
        assert Annulus(1.0, 2.0).contains(1.5 + 0j)
        assert not Annulus(1.0, 2.0).contains(0.5 + 0j)

    def test_dist_to_boundary(self):
        A = Annulus(1.0, 3.0)
        z = np.asarray([2.0 + 0j, 1.2 + 0j])
        assert np.allclose(A.dist_to_boundary(z), [1.0, 0.2])


class TestLiterals:
    @pytest.mark.parametrize("text,kind", [
        ("circle(0,0,1)", Circle),
        ("closed_disk(1,0,2)", ClosedDisk),
        ("segment(-2,0,2,0)", Segment),
        ("disk(0,0,2)", Disk),
        ("exterior(0,0,0.5)", ExteriorDisk),
        ("annulus(0.5,2)", Annulus),
    ])
    def test_parse(self, text, kind):
        assert isinstance(parse_geometry(text), kind)

    def test_parse_errors(self):
        for bad in ("nope(1)", "circle(1)", "circle(a,b,c)", "circle"):
            with pytest.raises(GeometryError):
                parse_geometry(bad)

    def test_parse_point(self):
        assert parse_point("2") == 2 + 0j
        assert parse_point("1,-3") == 1 - 3j
        with pytest.raises(GeometryError):
            parse_point("1,2,3")

    @given(st.sampled_from([("circle", 3), ("closed_disk", 3),
                            ("segment", 4), ("disk", 3), ("exterior", 3),
                            ("annulus", 2)]).flatmap(
        lambda na: st.tuples(
            st.just(na[0]),
            st.lists(st.floats(-10.0, 10.0), min_size=na[1], max_size=na[1]),
            st.integers(0, na[1] - 1),
            st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))))
    def test_non_finite_literals_rejected(self, case):
        name, args, pos, bad = case
        text = [repr(a) for a in args]
        text[pos] = bad
        with pytest.raises(GeometryError):
            parse_geometry(f"{name}({','.join(text)})")

    @pytest.mark.parametrize("make", [
        lambda x: Circle(0j, x), lambda x: Circle(complex(x, 0.0), 1.0),
        lambda x: ClosedDisk(0j, x), lambda x: Segment(0j, complex(0.0, x)),
        lambda x: Disk(0j, x), lambda x: ExteriorDisk(complex(x, 0.0), 1.0),
        lambda x: Annulus(1.0, x), lambda x: Annulus(0.5, 2.0, complex(x, 0.0)),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructors_reject_non_finite(self, make, bad):
        with pytest.raises(GeometryError):
            make(bad)

    @pytest.mark.parametrize("text", ["nan", "inf", "1,nan", "-inf,0"])
    def test_non_finite_point_rejected(self, text):
        with pytest.raises(GeometryError):
            parse_point(text)
