import math

import numpy as np
import pytest

from loupe import kernels

LOG10 = math.log(10.0)


class TestHarmAnnulus:
    def test_closed_form(self):
        v = kernels.harm_annulus(2.0 + 0j, 1.0, 10.0)
        assert abs(v - math.log(2.0) / LOG10) < 1e-12

    def test_sides_sum_to_one(self):
        for az in (1.3, 2.0, 7.5):
            outer = kernels.harm_annulus(az, 1.0, 10.0, side="outer")
            inner = kernels.harm_annulus(az, 1.0, 10.0, side="inner")
            assert abs(outer + inner - 1.0) < 1e-14

    def test_rotation_invariance(self):
        a = kernels.harm_annulus(2.0 + 0j, 1.0, 10.0)
        b = kernels.harm_annulus(2.0j, 1.0, 10.0)
        assert a == b

    def test_domain_violations(self):
        with pytest.raises(kernels.DomainViolation):
            kernels.harm_annulus(0.5, 1.0, 10.0)
        with pytest.raises(kernels.DomainViolation):
            kernels.harm_annulus(2.0, 10.0, 1.0)
        with pytest.raises(kernels.DomainViolation):
            kernels.harm_annulus(2.0, 1.0, 10.0, side="sideways")


class TestExcAnnulus:
    def test_closed_forms(self):
        assert abs(kernels.exc_annulus("inner-point", 1.0, 10.0)
                   - 1.0 / LOG10) < 1e-12
        assert abs(kernels.exc_annulus("outer-point", 1.0, 10.0)
                   - 1.0 / (10.0 * LOG10)) < 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
    def test_scaling_covariance(self, lam):
        # excursion measure transforms with |f'| = lam under z -> lam z
        base = kernels.exc_annulus("inner-point", 1.0, 10.0)
        scaled = kernels.exc_annulus("inner-point", lam, 10.0 * lam)
        assert abs(scaled * lam - base) < 1e-12


class TestPoissonKernels:
    def test_disk_normalization(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        w = np.exp(1j * theta)
        for z in (0j, 0.3 + 0.1j, -0.8j):
            vals = [kernels.poisson_disk(z, wi) for wi in w]
            total = float(np.mean(vals)) * 2.0 * math.pi
            assert abs(total - 1.0) < 1e-10

    def test_exterior_normalization_and_asymptotics(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        w = np.exp(1j * theta)
        for z in (3.0 + 0j, -2.0 + 5.0j):
            vals = [kernels.poisson_exterior(z, wi) for wi in w]
            total = float(np.mean(vals)) * 2.0 * math.pi
            assert abs(total - 1.0) < 1e-10
        for az in (2.0, 5.0, 50.0):
            v = kernels.poisson_exterior(az + 0j, 1.0 + 0j)
            assert abs(2.0 * math.pi * v - 1.0) <= 4.0 / az

    def test_domain_violations(self):
        with pytest.raises(kernels.DomainViolation):
            kernels.poisson_disk(1.5, 1.0)
        with pytest.raises(kernels.DomainViolation):
            kernels.poisson_disk(0.5, 0.8)
        with pytest.raises(kernels.DomainViolation):
            kernels.poisson_exterior(0.5, 1.0)


class TestBoundaryKernel:
    def test_total_mass_is_excursion(self):
        # R Int h(1, R e^{i theta}) dtheta = exc(1 -> C_R) = 1/log R
        for R in (3.0, 10.0):
            theta = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
            vals = [kernels.boundary_poisson_annulus(R, t) for t in theta]
            total = float(np.mean(vals)) * 2.0 * math.pi * R
            assert abs(total - 1.0 / math.log(R)) < 1e-10

    def test_symmetry(self):
        assert abs(kernels.boundary_poisson_annulus(5.0, 0.4)
                   - kernels.boundary_poisson_annulus(5.0, -0.4)) < 1e-14

    def test_asymptotic_band(self):
        # leading term 1/(2 pi R log R), within the band 4/R^2
        for R in (4.0, 16.0, 64.0):
            lead = 1.0 / (2.0 * math.pi * R * math.log(R))
            exact = kernels.boundary_poisson_annulus(R, 1.0)
            assert abs(exact - lead) <= 4.0 / R**2

    def test_asymptotic_band_decay_rate(self):
        # the gap to the leading term shrinks like R^-2: fit the exponent
        Rs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        gaps = []
        for R in Rs:
            lead = 1.0 / (2.0 * math.pi * R * math.log(R))
            gaps.append(abs(kernels.boundary_poisson_annulus(R, 1.0) - lead))
        slope = np.polyfit(np.log(Rs), np.log(gaps), 1)[0]
        assert slope < -1.4

    def test_positivity(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        assert all(kernels.boundary_poisson_annulus(3.0, t) > 0
                   for t in theta)

    def test_domain_violations(self):
        with pytest.raises(kernels.DomainViolation):
            kernels.boundary_poisson_annulus(0.9, 0.0)
