"""The benchmark's closed forms against a second route: direct quadrature.

The loop masses integrate the bubble profile rho over the root radius, so
`scipy.integrate.quad` of `rho_series` must reproduce them; rho itself is
the integral over C_R of the annulus boundary Poisson kernel against the
exterior-disk Poisson kernel.
"""

import math
import sys
from pathlib import Path

import pytest
from scipy import integrate

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def _two_rho(u):
    return 2.0 * ref.rho_series(math.exp(u))


@pytest.mark.parametrize("R,s", [(10.0, 0.5), (100.0, 0.01), (1000.0, 0.001),
                                 (1.5, 0.2)])
def test_concentric_loop_mass_is_the_integral_of_rho(R, s):
    val, err = integrate.quad(_two_rho, math.log(R), math.log(R / s),
                              limit=200, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    assert ref.concentric_loop_mass(R, s) == pytest.approx(val, abs=1e-10)


@pytest.mark.parametrize("R", [10.0, math.e ** math.e, 3.0])
def test_lambda_star_is_the_renormalized_limit(R):
    # Lambda(r) - log log(1/r) -> -log log R + Int_{log R}^oo (2 rho - 1/u);
    # the integrand decays like 4 e^{-2u}, so u = 60 ends it in doubles
    tail, err = integrate.quad(lambda u: _two_rho(u) - 1.0 / u,
                               math.log(R), 60.0, limit=200, epsabs=1e-13)
    assert err < 1e-10
    assert ref.lambda_star_circles(R) == pytest.approx(
        -math.log(math.log(R)) + tail, abs=1e-10)


def test_lambda_star_values():
    assert ref.lambda_star_circles(10.0) == pytest.approx(-0.813730,
                                                          abs=5e-7)
    # -1 at leading order; the series adds -2 log(1 - e^{-2e}) + ...
    assert ref.lambda_star_circles(math.e ** math.e) == pytest.approx(
        -1.0 - 2.0 * math.log1p(-math.exp(-2.0 * math.e)), abs=1e-4)
    # the sequence approaches its limit from above, with a C/log(1/r) tail
    seq = [ref.renormalized_circles(10.0, math.exp(-j)) for j in (4, 8, 16)]
    lam = ref.lambda_star_circles(10.0)
    assert seq[0] > seq[1] > seq[2] > lam


def test_rho_is_the_kernel_integral_on_the_outer_circle():
    R = 10.0
    terms = range(1, 60)

    def annulus_kernel(theta):
        # boundary Poisson kernel of 1 < |z| < R from 1 to R e^{i theta}
        return (1.0 / math.log(R) + sum(
            4.0 * n * math.cos(n * theta) / (R ** n - R ** -n)
            for n in terms)) / (2.0 * math.pi * R)

    def exterior_kernel(theta):
        w = R * complex(math.cos(theta), math.sin(theta))
        return (R * R - 1.0) / (2.0 * math.pi * abs(w - 1.0) ** 2)

    val, _ = integrate.quad(
        lambda th: math.pi * annulus_kernel(th) * exterior_kernel(th) * R,
        0.0, 2.0 * math.pi, limit=200)
    assert ref.rho_series(R) == pytest.approx(val, abs=1e-12)


def test_tail_fit_recovers_the_model():
    xs = [5.0, 6.0, 7.0, 8.0]
    assert ref.tail_fit(xs, [0.25 - 1.5 / x for x in xs]) == pytest.approx(
        0.25, abs=1e-14)


def test_schedule_bias_shrinks_with_depth():
    b8 = ref.lambda_star_schedule_bias(10.0, 8, 4)
    b12 = ref.lambda_star_schedule_bias(10.0, 12, 4)
    assert 0 < b12 < b8 < 0.05


def test_excursion_ladder_bias_leading_order():
    # h(1+e)/e = (1 - e/2 + e^2/3 - ...)/log 10; the linear extrapolation
    # through (e, e/2) leaves -e^2/6/log 10
    e = 1e-3
    bias = ref.excursion_ladder_bias(1.0, 10.0, [e, e / 2])
    assert bias == pytest.approx(-e * e / 6.0 / math.log(10.0), rel=1e-2)


def test_disk_uniformizer_derivative_against_difference_quotient():
    c, R = 0.3 - 0.2j, 1.7

    def psi(w):
        return R * w / (R * R + c.conjugate() * w - abs(c) ** 2)

    for z in (0j, 0.4 + 0.1j):
        h = 1e-6
        num = abs((psi(z + h) - psi(z - h)) / (2 * h))
        assert ref.disk_uniformizer_derivative(c, R, z) == pytest.approx(
            num, rel=1e-8)


def test_sle_targets_and_steps():
    assert ref.density_target(2.0, 0j, 2.0, 2.0 + 0j) == pytest.approx(0.5)
    assert ref.sle_exponents(8.0 / 3.0) == pytest.approx((5.0 / 8.0,
                                                          5.0 / 48.0))
    assert ref.whole_plane_steps(0.0025, 1e-4) == round(
        (math.log(0.0025) + 12.0) / 1e-4)
