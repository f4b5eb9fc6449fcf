import math

import numpy as np
import pytest

from loupe import lamstar
from loupe.engine import Estimate
from loupe.geometry import (INFINITY, Circle, ClosedDisk, Disk, MobiusMap,
                            Segment)
from loupe.lamstar import (ExtrapolationResult, TailNotDecaying,
                           _extrapolate, annulus_crossing_lambda_star,
                           bridging_mass, default_schedule, lambda_star,
                           lambda_star_centered, lambda_star_multi,
                           mobius_invariance_gap)

DEEP = [math.exp(-j) for j in range(1, 17)]


class TestExtrapolation:
    def test_unit_circle_pair_limit(self):
        # Lambda*(C_1, C_{e^e}) = -1: the renormalized sequence for this
        # pair converges to minus one
        res = lambda_star(Circle(0j, 1.0), Circle(0j, math.e ** math.e),
                          seed=0, r_schedule=DEEP)
        assert abs(res.value + 1.0) < 0.03

    def test_sequence_monotone_from_above(self):
        res = lambda_star(Circle(0j, 1.0), Circle(0j, math.e ** math.e),
                          seed=0, r_schedule=DEEP)
        vals = [row[1] for row in res.table]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tail_decay_rate(self):
        # fitted tail gaps decay like 1/log(1/r): slope -1 within 30%
        res = lambda_star(Circle(0j, 1.0), Circle(0j, math.e ** math.e),
                          seed=0, r_schedule=DEEP)
        assert -1.3 < res.residual_slope < -0.7

    def test_tail_not_decaying_rejected(self):
        rs = [math.exp(-j) for j in range(1, 7)]
        # synthetic masses whose renormalized gaps grow along the schedule
        ests = [Estimate(math.log(j) + 0.5 * j, 1e-6, 1, 0)
                for j in range(1, 7)]
        cov = np.diag([1e-12] * 6)
        with pytest.raises(TailNotDecaying):
            _extrapolate(rs, ests, cov)

    def test_schedule_and_set_validation(self):
        with pytest.raises(ValueError):
            lambda_star(Circle(0j, 1.0), Circle(0j, 2.0),
                        r_schedule=[0.9])
        with pytest.raises(ValueError):
            lambda_star_multi([Circle(0j, 1.0)])

    def test_default_schedule(self):
        sched = default_schedule(4)
        assert sched == [math.exp(-j) for j in range(1, 5)]


class TestCenterFamilies:
    def test_infinity_center_agrees(self):
        # growing-disk family and shrinking-disk family share the limit
        V1, V2 = Circle(0j, 1.0), Circle(0j, 10.0)
        origin = lambda_star(V1, V2, seed=0, r_schedule=DEEP)
        at_inf = lambda_star_centered(
            V1, V2, INFINITY, seed=0,
            r_schedule=[math.exp(-j) for j in range(3, 15)])
        assert abs(at_inf.value - origin.value) < 0.1

    def test_infinity_center_rejects_growing_tail(self, monkeypatch):
        # the growing-disk family runs the same tail checks as the origin
        def growing_profile(sets, limits, seed, **kwargs):
            ests = [Estimate(math.log(math.log(R)) + 0.5 * j, 1e-6, 1, 0)
                    for j, R in enumerate(sorted(limits))]
            return ests, np.diag([1e-12] * len(ests))

        monkeypatch.setattr(lamstar, "loop_mass_profile", growing_profile)
        with pytest.raises(TailNotDecaying):
            lambda_star_centered(
                Circle(0j, 1.0), Circle(0j, 2.0), INFINITY,
                r_schedule=[math.exp(-j) for j in range(2, 8)])

    def test_finite_center_translates(self):
        # translating the removal center is the same computation as
        # translating the sets; concentric images keep the fast path
        z0 = 2.0 + 0j
        V1, V2 = Circle(z0, 1.0), Circle(z0, 10.0)
        res = lambda_star_centered(V1, V2, z0, seed=0, r_schedule=DEEP)
        ref = lambda_star(Circle(0j, 1.0), Circle(0j, 10.0), seed=0,
                          r_schedule=DEEP)
        assert abs(res.value - ref.value) < 1e-9


class TestMobiusInvariance:
    def test_dilation_gap_small(self):
        # both routes ride the deterministic fast path; the residual is the
        # finite-depth extrapolation bias, not MC noise
        gap = mobius_invariance_gap(Circle(0j, 1.0), Circle(0j, 10.0),
                                    MobiusMap.dilation(3.0), seed=0,
                                    r_schedule=DEEP)
        assert gap.gap < 0.02

    def test_dilation_gap_shrinks_with_depth(self):
        shallow = mobius_invariance_gap(
            Circle(0j, 1.0), Circle(0j, 10.0), MobiusMap.dilation(3.0),
            seed=0, r_schedule=[math.exp(-j) for j in range(1, 9)])
        deep = mobius_invariance_gap(
            Circle(0j, 1.0), Circle(0j, 10.0), MobiusMap.dilation(3.0),
            seed=0, r_schedule=[math.exp(-j) for j in range(1, 25)])
        assert deep.gap < shallow.gap

    def test_inversion_gap_small(self):
        # inversion sends C_10 to C_{1/10}; both routes stay concentric
        gap = mobius_invariance_gap(
            Circle(0j, 1.0), Circle(0j, 10.0), MobiusMap.inversion(),
            seed=0, r_schedule=[math.exp(-j) for j in range(3, 17)])
        assert gap.gap < 0.05


class TestAnnulusCrossing:
    def test_small_disk_hull(self):
        measured, predicted, diag = annulus_crossing_lambda_star(
            ClosedDisk(0j, 0.1), Disk(0j, 1.0), seed=0, n=20_000,
            r_schedule=[math.exp(-j) for j in range(3, 15)])
        assert abs(measured.value - predicted) < 0.05
        assert abs(diag["t"] - 0.1) < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            annulus_crossing_lambda_star(ClosedDisk(0.9 + 0j, 0.05),
                                         Disk(0j, 1.0))
        with pytest.raises(ValueError):
            annulus_crossing_lambda_star(ClosedDisk(0j, 0.05),
                                         Disk(0j, 2.0))
        with pytest.raises(ValueError):
            annulus_crossing_lambda_star(ClosedDisk(0j, 0.5), Disk(0j, 1.0),
                                         n=2000)


class TestBridging:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bridging_mass(Circle(0j, 1.0), 2.0 + 0j, -0.1)
        with pytest.raises(ValueError):
            bridging_mass(Circle(0j, 1.0), 2.0 + 0j, 0.1, alpha=0.0)

    def test_infinity_form_near_log2(self):
        # loops in D_{1/r} hitting both C_1 and the r-disk: mass -> log 2
        est = bridging_mass(Circle(0j, 1.0), INFINITY, 0.05, seed=1,
                            n_per_node=2048, n_theta=8)
        assert abs(est.value - math.log(2.0)) < max(4.0 * est.stderr, 0.15)


class TestMulti:
    def test_extra_set_reduces_value(self):
        V1, V2 = Circle(0j, 1.0), Circle(0j, 2.0)
        V3 = ClosedDisk(5.0 + 0j, 1.0)
        base = lambda_star(V1, V2, seed=0, r_schedule=DEEP)
        multi = lambda_star_multi([V1, V2, V3], seed=0, r_schedule=DEEP,
                                  n_per_node=256, n_theta=8)
        assert isinstance(multi, ExtrapolationResult)
        assert multi.value < base.value
