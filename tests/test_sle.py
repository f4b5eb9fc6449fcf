import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from loupe.engine import capacity_estimate
from loupe.geometry import Annulus, ClosedDisk, Disk, PolyCurve
from loupe.sle import (HullTouchesBoundary, KappaOutOfRange,
                       SLEParams, T0_DEFAULT, _q, _q_inv, _step_forward,
                       _step_inverse, annulus_modulus, exponents, rn_density,
                       slit_length, trace_is_simple, whole_plane_ensemble,
                       whole_plane_sample)


class TestExponents:
    @pytest.mark.parametrize("kappa,a,b,bt,c", [
        (2.0, 1.0, 1.0, 0.0, -2.0),
        (8.0 / 3.0, 0.75, 0.625, 0.625 / 6.0, 0.0),
        (4.0, 0.5, 0.25, 0.125, 1.0),
    ])
    def test_known_values(self, kappa, a, b, bt, c):
        p = exponents(kappa)
        assert math.isclose(p.a, a)
        assert math.isclose(p.b, b)
        assert math.isclose(p.btilde, bt)
        assert math.isclose(p.c, c)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 4.0001, 8.0])
    def test_out_of_range(self, kappa):
        with pytest.raises(KappaOutOfRange):
            SLEParams(kappa)

    def test_central_charge_sign(self):
        assert exponents(2.0).c < 0
        assert exponents(8.0 / 3.0).c == 0
        assert exponents(4.0).c > 0


class TestSlitMap:
    def test_q_roundtrip(self):
        gen = np.random.default_rng(0)
        w = (1.5 + gen.uniform(0, 3, 50)) * np.exp(
            2j * math.pi * gen.uniform(size=50))
        assert np.allclose(_q_inv(_q(w)), w, atol=1e-10)

    def test_slit_length_asymptotics(self):
        assert slit_length(1e-12) < 1e-5
        # d ~ 2 sqrt(delta) for small capacity increments
        d = slit_length(1e-6)
        assert abs(d / (2.0 * math.sqrt(1e-6)) - 1.0) < 0.01

    def test_step_normalized_at_infinity(self):
        z = np.asarray([1e8 + 1e7j])
        dz = np.ones(1, dtype=complex)
        z2, dz2 = _step_forward(z, dz, 1.0, 0.7, 0.05)
        assert abs(z2[0] - z[0]) / abs(z[0]) < 1e-6
        assert abs(dz2[0] - 1.0) < 1e-6

    def test_step_maps_circle_to_grown_circle(self):
        s, theta, delta = 1.0, 0.3, 0.1
        phis = np.linspace(0.4, 2 * math.pi - 0.4, 50) + theta
        z = s * np.exp(1j * phis)
        z2, _ = _step_forward(z, np.ones_like(z), s, theta, delta)
        assert np.allclose(np.abs(z2), s * math.exp(delta), atol=1e-9)

    def test_slit_tip_maps_to_driving_point(self):
        s, theta, delta = 1.0, 0.3, 0.01
        d = slit_length(delta)
        tip = s * (1.0 + d) * np.exp(1j * theta)
        z2, _ = _step_forward(np.asarray([tip]), np.ones(1, complex),
                              s, theta, delta)
        drive = s * math.exp(delta) * np.exp(1j * theta)
        # the tip is a branch point of the map, so expect sqrt-amplified
        # rounding rather than full double precision
        assert abs(z2[0] - drive) < 1e-6

    def test_inverse_undoes_forward(self):
        s, theta, delta = 2.0, -0.8, 0.05
        gen = np.random.default_rng(1)
        z = (s + gen.uniform(0.5, 3, 40)) * np.exp(
            2j * math.pi * gen.uniform(size=40))
        z2, _ = _step_forward(z, np.ones_like(z), s, theta, delta)
        back = _step_inverse(z2, s, theta, delta)
        assert np.allclose(back, z, atol=1e-9)


class TestWholePlaneSample:
    def test_zero_kappa_limit_is_straight_slit(self):
        # with no randomness the curve is a radial segment with rad = 4t
        hull = whole_plane_sample(exponents(1e-9), math.exp(-3.0),
                                  dt=5e-4, seed=2)
        t = hull.t_end
        assert abs(hull.radius() / t - 4.0) < 0.05
        v = hull.trace.as_array()[1:]
        ang = np.angle(v / v[-1])
        assert float(np.max(np.abs(ang))) < 1e-3

    def test_radius_capacity_bounds(self):
        # rad gamma_t in [t, 4t] for any simple hull of capacity log t
        for seed in (1, 2, 3):
            hull = whole_plane_sample(exponents(2.0), math.exp(-3.0),
                                      dt=1e-3, seed=seed)
            r = hull.radius()
            t = hull.t_end
            assert t * 0.99 <= r <= 4.0 * t * 1.01

    def test_capacity_recovered_from_hull(self):
        # re-estimating ccap from the discretized hull matches log t up to
        # the trace resolution bias (solver tolerance 0.03) plus MC noise
        for t in (math.exp(-2.5), math.exp(-4.0)):
            hull = whole_plane_sample(exponents(2.0), t, dt=5e-4, seed=4,
                                      n_trace=1024)
            est = capacity_estimate(hull.hull_set(), 20_000, 5)
            assert abs(est.value - math.log(t)) < 0.03 + 3.0 * est.stderr

    def test_map_distortion_small(self):
        # g_t'(z) = 1 + O(t) for |z| >= 1 when t <= 1/8
        t = 0.05
        hull = whole_plane_sample(exponents(2.0), t, dt=5e-4, seed=7)
        gen = np.random.default_rng(0)
        z = (1.0 + gen.uniform(0, 2, 100)) * np.exp(
            2j * math.pi * gen.uniform(size=100))
        g, gp = hull.map_at(z)
        assert float(np.max(np.abs(gp - 1.0))) < t
        # the image lies outside C_t
        assert float(np.min(np.abs(g))) > t

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            whole_plane_sample(exponents(2.0), 0.2)
        with pytest.raises(ValueError):
            whole_plane_sample(exponents(2.0), math.exp(-13.0))

    def test_deterministic(self):
        a = whole_plane_sample(exponents(2.0), math.exp(-3.0), dt=2e-3,
                               seed=9)
        b = whole_plane_sample(exponents(2.0), math.exp(-3.0), dt=2e-3,
                               seed=9)
        assert a.trace.vertices == b.trace.vertices

    def test_scaling_invariance_ks(self):
        # rad(gamma_t)/t has the same law at different capacity times
        def rad_samples(t, n, base):
            return [whole_plane_sample(exponents(2.0), t, dt=2e-3,
                                       seed=base + i, n_trace=128).radius()
                    / t for i in range(n)]

        a = rad_samples(math.exp(-3.0), 60, 100)
        b = rad_samples(math.exp(-4.0), 60, 700)
        p = stats.ks_2samp(a, b).pvalue
        assert p > 0.01


class TestTraceSimple:
    def test_straight_slit_is_simple(self):
        hull = whole_plane_sample(exponents(1e-9), math.exp(-3.0),
                                  dt=1e-3, seed=0)
        assert trace_is_simple(hull)

    def test_returning_curve_detected(self):
        # the detector compares vertices, so feed it a polyline whose later
        # vertex nearly revisits an earlier one
        pts = [0j, 1 + 0j, 1 + 1j, 0 + 1j, 0.02 + 0.05j]
        fake = SimpleNamespace(trace=PolyCurve(tuple(pts)))
        assert not trace_is_simple(fake, window=1)

    def test_sampled_traces_mostly_simple(self):
        flags = [trace_is_simple(whole_plane_sample(
            exponents(8.0 / 3.0), math.exp(-3.0), dt=1e-3, seed=s))
            for s in range(10)]
        # non-simple verdicts are discretization artifacts; log, don't fail
        bad = flags.count(False)
        if bad:
            print(f"non-simple verdicts: {bad}/10")
        assert bad <= 1


class TestAnnulusModulus:
    def test_concentric_disk_closed_form(self):
        est = annulus_modulus(Disk(0j, 1.0), ClosedDisk(0j, 0.05),
                              20_000, 3)
        assert abs(est.value - 0.05) < max(4.0 * est.stderr, 0.004)

    def test_scale_invariance(self):
        a = annulus_modulus(Disk(0j, 1.0), ClosedDisk(0j, 0.1), 20_000, 5)
        b = annulus_modulus(Disk(0j, 3.0), ClosedDisk(0j, 0.3), 20_000, 5)
        assert abs(a.value - b.value) < 4.0 * math.hypot(a.stderr, b.stderr)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            annulus_modulus(Disk(0j, 1.0), ClosedDisk(0j, 1.5), 100, 0)
        with pytest.raises(ValueError):
            annulus_modulus(Disk(2.5 + 0j, 1.0), ClosedDisk(0j, 0.1), 100, 0)


class TestEnsemble:
    def test_shapes_and_normalization(self):
        theta, g, gp = whole_plane_ensemble(exponents(2.0), math.exp(-3.0),
                                            [2.0 + 0j, 1.5j], 32, 11,
                                            dt=2e-3)
        assert g.shape == (32, 2) and gp.shape == (32, 2)
        assert float(np.max(np.abs(gp - 1.0))) < 0.2
        assert np.all(np.abs(g) > math.exp(-3.0))


class TestDensityPlumbing:
    def test_hull_outside_domain_rejected(self):
        hull = whole_plane_sample(exponents(2.0), 0.125, dt=1e-3, seed=1)
        with pytest.raises(HullTouchesBoundary):
            rn_density(hull, Disk(0j, 0.2), 0.15 + 0j, n=100)

    def test_degenerate_case_loop_term_absent(self):
        # kappa = 8/3 has zero central charge: the loop factor is exactly 1
        hull = whole_plane_sample(exponents(8.0 / 3.0), math.exp(-3.0),
                                  dt=1e-3, seed=3, n_trace=256)
        parts = rn_density(hull, Disk(0j, 2.0), 2.0 + 0j, seed=5, n=4000)
        assert parts.lam_star.value == 0.0
        assert parts.lam_star.stderr == 0.0
        assert parts.value.value > 0
        assert parts.modulus.value < hull.t_end
