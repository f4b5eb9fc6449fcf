"""Golden fixed-seed values and regression tests for the walk geometry.

The pinned values were computed before the distance-reuse and chunking
speed-ups of the node walks, the start-point checks and
`SegmentChain.nearest`.  Those changes leave RNG consumption alone, so the
values must match exactly (`==`), not approximately.
"""

import math
import tracemalloc

import numpy as np
import pytest

from loupe.engine import (Estimate, RngStream, excursion_estimate,
                          wos_exit_points)
from loupe.geometry import (Circle, ClosedDisk, Disk, DomainMinusSet,
                            ExteriorDisk, _seg_project)
from loupe.lamstar import lambda_star
from loupe.loops import LoopMassQuery, loop_mass
from loupe.sle import annulus_modulus, exponents, whole_plane_sample


@pytest.fixture(scope="module")
def hull():
    # 511 trace points plus the origin and the t0-disk vertex
    return whole_plane_sample(exponents(2.0), math.exp(-4.0), dt=1e-3,
                              seed=5, n_trace=511)


def test_hull_has_513_vertices(hull):
    assert len(hull.hull_set().vertices) == 513


def test_lambda_star_over_hull(hull):
    top = hull.radius()
    res = lambda_star(hull.hull_set(), Circle(0j, 2.0), seed=11,
                      r_schedule=[top * math.exp(-j) for j in range(1, 6)],
                      n_theta=4, n_per_node=128)
    assert res.value == -1.4828546216773117
    assert res.stderr == 0.4824653148402307
    assert res.residual_slope == -1.0455124819987083
    assert [v for _, v, _ in res.table] == [
        -1.1077623690002794, -1.2127632829126989, -1.1596153134711795,
        -1.2776304975535195, -1.3155262328279735]


def test_loop_mass_with_removed_set():
    # the removed disk makes the node walks use absorbers and the arc payoff
    q = LoopMassQuery((Circle(0j, 1.0), Circle(0j, 4.0)),
                      DomainMinusSet(ExteriorDisk(0j, 0.5),
                                     ClosedDisk(2.0 + 0j, 0.3)),
                      n_theta=8, n_per_node=2048)
    m = loop_mass(q, seed=13)
    assert (m.value, m.stderr, m.n) == (-0.24809737356974626,
                                        0.14793521710581117, 8192)


def test_annulus_modulus_of_hull(hull):
    s = annulus_modulus(Disk(0j, 2.0), hull.hull_set(), 2000, seed=17)
    assert s == Estimate(0.009386157655914124, 0.0014201152146861725,
                         2000, 17)


def test_excursion_estimate_off_hull(hull):
    K = hull.hull_set()
    e = excursion_estimate(DomainMinusSet(Disk(0j, 2.0), K), 2.0 + 0j, K,
                           3000, seed=19, eps_ladder=[0.16, 0.08],
                           wos_eps=2e-4 * hull.radius())
    assert e == Estimate(0.12708333333333333, 0.04630213215532984, 6000, 19)


def test_chunked_nearest_equals_one_shot_with_bounded_memory(hull):
    K = hull.hull_set()
    assert len(K._a) == 512
    gen = np.random.default_rng(0)
    z = (gen.uniform(-0.1, 0.1, 16_384)
         + 1j * gen.uniform(-0.1, 0.1, 16_384))
    tracemalloc.start()
    try:
        got = K.nearest(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    zz = z[:, None]
    proj = _seg_project(zz, K._a, K._b)
    want = proj[np.arange(z.size), np.abs(zz - proj).argmin(axis=-1)]
    assert np.array_equal(got, want)


def test_start_points_checked_once_each_but_all_checked():
    z0 = np.full(1000, 0.5 + 0j)
    z0[637] = 3.0 + 0j
    with pytest.raises(ValueError, match="not in domain"):
        wos_exit_points(Disk(0j, 1.0), z0, 1e-6, RngStream(0))
