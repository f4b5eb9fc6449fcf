import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loupe import engine
from loupe.engine import (Estimate, ExtrapolationUnstable, RngStream,
                          StepLimitExceeded, capacity_estimate,
                          conformal_radius, excursion_estimate, hitting_prob,
                          richardson, wos_exit_points)
from loupe.geometry import (Annulus, Circle, ClosedDisk, Disk, ExteriorDisk,
                            Segment)
from loupe.kernels import exc_annulus, harm_annulus

floats = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


class TestEstimate:
    @given(st.lists(floats, min_size=1, max_size=30),
           st.lists(floats, min_size=1, max_size=30))
    @settings(max_examples=200)
    # equal values, where a difference of second moments left stderr 5.5e-7
    @example(xs=[77.23550242985144], ys=[77.23550242985144] * 2)
    def test_merge_matches_pooled_samples(self, xs, ys):
        a = Estimate.from_samples(np.asarray(xs), 0)
        b = Estimate.from_samples(np.asarray(ys), 0)
        m = a.merge(b)
        full = Estimate.from_samples(np.asarray(xs + ys), 0)
        assert m.n == full.n
        assert math.isclose(m.value, full.value, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(m.stderr, full.stderr, rel_tol=1e-6, abs_tol=1e-7)

    def test_scaled_and_plus(self):
        a = Estimate(2.0, 0.3, 10, 0)
        b = Estimate(1.0, 0.4, 12, 0)
        assert a.scaled(-2.0) == Estimate(-4.0, 0.6, 10, 0)
        s = a.plus(b)
        assert s.value == 3.0
        assert math.isclose(s.stderr, 0.5)

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            Estimate(1.0, -0.1, 1, 0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            Estimate.from_samples(np.asarray([]), 0)


class TestRngStream:
    def test_determinism(self):
        x = RngStream(7, 3).generator().standard_normal(16)
        y = RngStream(7, 3).generator().standard_normal(16)
        assert np.array_equal(x, y)

    def test_streams_independent(self):
        x = RngStream(7, 0).generator().standard_normal(16)
        y = RngStream(7, 1).generator().standard_normal(16)
        z = RngStream(8, 0).generator().standard_normal(16)
        assert not np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_children_distinct(self):
        base = RngStream(1)
        kids = {base.child(i).stream for i in range(100)}
        assert len(kids) == 100


class TestRichardson:
    def test_exact_on_linear(self):
        eps = [0.4, 0.2, 0.1]
        vals = [3.0 + 2.0 * e for e in eps]
        a, err = richardson(eps, vals, [0.0] * 3)
        assert abs(a - 3.0) < 1e-12

    def test_exact_on_quadratic(self):
        eps = [0.4, 0.2, 0.1]
        vals = [1.0 - e + 5.0 * e * e for e in eps]
        a, _ = richardson(eps, vals, [0.0] * 3)
        assert abs(a - 1.0) < 1e-12

    def test_error_propagation(self):
        # two-point ladder: A = 2 v(e/2) - v(e), errors in quadrature
        _, err = richardson([0.1, 0.2], [1.0, 1.0], [0.01, 0.01])
        assert abs(err - math.hypot(0.02, 0.01)) < 1e-12


class TestWalkOnSpheres:
    def test_exit_points_on_boundary(self):
        D = Annulus(1.0, 10.0)
        z0 = np.full(500, 2.0 + 0j)
        pts = wos_exit_points(D, z0, 1e-6, RngStream(0))
        assert float(D.dist_to_boundary(pts).max()) < 1e-5

    def test_hitting_prob_annulus_closed_form(self):
        est = hitting_prob(Annulus(1.0, 10.0), 2.0 + 0j,
                           Circle(0j, 10.0), 40_000, 11)
        target = harm_annulus(2.0 + 0j, 1.0, 10.0)
        assert abs(est.value - target) < 4.0 * est.stderr
        assert est.stderr < 4e-3

    def test_hitting_prob_deterministic(self):
        a = hitting_prob(Annulus(1.0, 10.0), 2.0, Circle(0j, 10.0), 5000, 3)
        b = hitting_prob(Annulus(1.0, 10.0), 2.0, Circle(0j, 10.0), 5000, 3)
        assert a == b

    def test_step_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(engine, "STEP_CAP", 3)
        with pytest.raises(StepLimitExceeded):
            hitting_prob(Annulus(1.0, 10.0), 2.0, Circle(0j, 10.0), 2000, 1)

    def test_exterior_domain_hitting(self):
        # from |z| = 2, chance of hitting C_1 before C_10 in the exterior of
        # the unit disk matches the annulus closed form
        est = hitting_prob(Annulus(1.0, 10.0), 2.0, Circle(0j, 1.0),
                           40_000, 5)
        target = harm_annulus(2.0, 1.0, 10.0, side="inner")
        assert abs(est.value - target) < 4.0 * est.stderr


class TestExcursion:
    def test_annulus_inner_point(self):
        est = excursion_estimate(Annulus(1.0, 10.0), 1.0 + 0j,
                                 Circle(0j, 10.0), 60_000, 2)
        target = exc_annulus("inner-point", 1.0, 10.0)
        assert abs(est.value - target) < 4.0 * est.stderr
        assert est.stderr < 0.1 * target

    def test_scaling_covariance_mc(self):
        a = excursion_estimate(Annulus(1.0, 4.0), 1.0 + 0j, Circle(0j, 4.0),
                               40_000, 9)
        b = excursion_estimate(Annulus(2.0, 8.0), 2.0 + 0j, Circle(0j, 8.0),
                               40_000, 9)
        assert abs(2.0 * b.value - a.value) < 4.0 * math.hypot(
            2.0 * b.stderr, a.stderr)

    def test_nonmonotone_ladder_rejected(self):
        # a ladder long enough to test monotonicity with tiny n is noisy, so
        # just exercise the API path with 3 levels on a smooth case
        est = excursion_estimate(Annulus(1.0, 10.0), 1.0 + 0j,
                                 Circle(0j, 10.0), 20_000, 4,
                                 eps_ladder=[0.3, 0.15, 0.075])
        assert est.value > 0


class TestConformalRadiusCapacity:
    def test_disk_centered(self):
        est = conformal_radius(Disk(0j, 2.0), 5000, 1)
        assert abs(est.value - 0.5) < 1e-9

    def test_disk_offset_closed_form(self):
        # psi'(0) = R / (R^2 - |z0|^2) for the disk of radius R at z0
        z0, R = 0.5 + 0.3j, 2.0
        est = conformal_radius(Disk(z0, R), 120_000, 6)
        target = R / (R * R - abs(z0) ** 2)
        assert abs(est.value - target) < 4.0 * est.stderr
        assert est.stderr < 0.01 * target

    def test_domain_must_contain_origin(self):
        with pytest.raises(ValueError):
            conformal_radius(Disk(5 + 0j, 1.0), 100, 0)

    def test_disk_capacity(self):
        for t in (0.5, 0.1):
            est = capacity_estimate(ClosedDisk(0j, t), 20_000, 3)
            assert abs(est.value - math.log(t)) < max(3.0 * est.stderr, 1e-3)

    def test_segment_capacity(self):
        # ccap [-2, 2] = log(4/4) = 0 (capacity length/4)
        est = capacity_estimate(Segment(-2.0 + 0j, 2.0 + 0j), 60_000, 8)
        assert abs(est.value) < max(3.0 * est.stderr, 0.01)

    def test_capacity_launch_radius_guard(self):
        with pytest.raises(ValueError):
            capacity_estimate(ClosedDisk(0j, 1.0), 100, 0, launch_radius=1.5)
