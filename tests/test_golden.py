"""Golden fixed-seed values and regression tests for the walk geometry and
the radial loop-mass integrator.

The pinned values were computed before the distance-reuse and chunking
speed-ups of the node walks, the start-point checks and
`SegmentChain.nearest`, and the Lambda* and node-mass pins before the radial
integrals were merged into `loop_mass_profile`.  Those changes leave RNG
consumption alone, so the values must match exactly (`==`), not
approximately.  The one exception is `test_loop_mass_with_removed_set`: an
exterior `loop_mass` is a one-limit profile whose node streams count from
the sets' edge rather than from the removed disk, which re-seeds it, so it
is pinned to the values of the merged integrator; its nodes, walked on the
old streams, are pinned in `test_node_masses_with_removed_set`.  The
Monte Carlo Lambda* stderrs (`test_lambda_star_over_hull`,
`test_mc_lambda_star_at_infinity`) are pinned to the profile covariance
whose diagonal is each limit's own variance
(`test_profile_covariance_diagonal_is_each_limits_variance`); their values
and tables are unchanged.  The one-rung, three-rung and disk-with-absorber
node pins were computed while each rung of a node was still walked on its
own; walking all rungs in one batch leaves them unchanged.
"""

import math
import tracemalloc

import numpy as np
import pytest

from loupe.engine import (Estimate, RngStream, excursion_estimate,
                          wos_exit_points)
from loupe.geometry import (INFINITY, Circle, ClosedDisk, Disk,
                            DomainMinusSet, ExteriorDisk, _seg_project)
from loupe.lamstar import lambda_star, lambda_star_centered
from loupe.loops import (LoopMassQuery, _node_mass, loop_mass,
                         loop_mass_profile)
from loupe.sle import annulus_modulus, exponents, whole_plane_sample

DEEP = [math.exp(-j) for j in range(1, 17)]
DEEP_3_16 = [math.exp(-j) for j in range(3, 17)]

# (value, stderr, residual_slope, table) of Lambda* results
EXACT_AT_ORIGIN = (
    -0.8032268618681205, 0.007749995185967191, -0.8353990905033015,
    [
        (0.36787944117144233, 0.3782635730028726,
         4.19956928124768e-15),
        (0.1353352832366127, -0.04802731085238332,
         7.162269329925164e-15),
        (0.049787068367863944, -0.2441971538520562,
         9.485913552609899e-15),
        (0.01831563888873418, -0.3590709322879546,
         1.518985714509657e-13),
        (0.006737946999085467, -0.43494015597479563,
         7.344617341664684e-12),
        (0.0024787521766663585, -0.4889224121524516,
         1.417200297768601e-10),
        (0.0009118819655545162, -0.5293475805010022,
         1.4846677934633398e-09),
        (0.00033546262790251185, -0.560776443620066,
         1.0061173358085015e-08),
        (0.00012340980408667956, -0.5859228521319859,
         1.223970951454807e-12),
        (4.5399929762484854e-05, -0.6065054259146998,
         7.35040806413799e-12),
        (1.670170079024566e-05, -0.6236666319062103,
         3.534960712273207e-11),
        (6.14421235332821e-06, -0.6381960964642746,
         1.4172606798557838e-10),
        (2.2603294069810542e-06, -0.6506573263462951,
         4.887235189094297e-10),
        (8.315287191035679e-07, -0.6614633830524141,
         1.4846740221626154e-09),
        (3.059023205018258e-07, -0.6709240267582008,
         4.048659217692436e-09),
        (1.1253517471925912e-07, -0.679276153793952,
         1.0061179737953752e-08),
    ])
EXACT_AT_INFINITY = (
    -0.8137297432927443, 4.739695640288448e-09, -12.783116159146298,
    [
        (0.049787068367863944, -0.8187057210732933,
         3.1075871608756295e-15),
        (0.01831563888873418, -0.8144010062993098,
         6.34929170151933e-15),
        (0.006737946999085467, -0.8138205493805013,
         8.83312715253658e-15),
        (0.0024787521766663585, -0.8137420318752273,
         3.620478817092559e-14),
        (0.0009118819655545162, -0.8137314063967789,
         2.5525014644433525e-12),
        (0.00033546262790251185, -0.8137299684076531,
         6.238137595673592e-11),
        (0.00012340980408667956, -0.8137297737972264,
         7.685514154636454e-10),
        (4.5399929762484854e-05, -0.813729747459573,
         5.860045536644185e-09),
        (1.670170079024566e-05, -0.8137297438951596,
         6.765670228043679e-13),
        (6.14421235332821e-06, -0.8137297434127686,
         4.383360236591869e-12),
        (2.2603294069810542e-06, -0.8137297433474839,
         2.244181182452404e-11),
        (8.315287191035679e-07, -0.8137297433386488,
         9.47169545975593e-11),
        (3.059023205018258e-07, -0.8137297433374531,
         3.408972947105422e-10),
        (1.1253517471925912e-07, -0.813729743337291,
         1.0737379005762283e-09),
    ])
MC_AT_INFINITY = (
    -0.19676239901830517, 0.5982369827455667, -0.8806031308222522,
    [
        (0.049787068367863944, 0.297504295563948,
         0.36016578633190144),
        (0.01831563888873418, 0.11779389145239794,
         0.39082416612087856),
        (0.006737946999085467, 0.01134467247031501,
         0.41329293255886657),
        (0.0024787521766663585, 0.10772816265328689,
         0.43657691166804957),
    ])

# (log radius, node value, node variance) at each node of the removed-set
# loop mass, walked on stream i of RngStream(13)
REMOVED_SET_NODES = [
    (-0.6931471805599453, 0.6135923151542565, 1.6876117959991166),
    (-0.4620981203732969, -0.5798084054374325, 0.11162153084512241),
    (-0.23104906018664845, -0.6087606790971686, 0.07371258054689042),
    (0.0, 0.0, 0.11714930468414342),
]


def _pinned(res):
    return (res.value, res.stderr, res.residual_slope,
            [tuple(row) for row in res.table])


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
    assert res.stderr == 0.4846517747089114
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
    assert (m.value, m.stderr, m.n) == (0.07088496387707043,
                                        0.20927061781659884, 8192)


def test_node_masses_with_removed_set():
    sets = [Circle(0j, 1.0), Circle(0j, 4.0)]
    removed = [ClosedDisk(2.0 + 0j, 0.3)]
    rng = RngStream(13)
    for i, (u, value, var) in enumerate(REMOVED_SET_NODES):
        assert _node_mass(math.exp(u), 8, sets, removed, 2048, (0.2, 0.1),
                          rng.child(i)) == (value, var)


def test_node_mass_on_one_rung():
    sets = [Circle(0.5 + 0j, 1.0), Circle(0j, 3.0)]
    assert _node_mass(0.4, 4, sets, [], 256, (0.2,), RngStream(21)) == (
        1.6397767312485891, 0.10798254278045907)


def test_node_mass_on_three_rungs():
    # three rungs extrapolate through engine.richardson
    sets = [Circle(0.5 + 0j, 1.0), Circle(0j, 3.0)]
    assert _node_mass(0.4, 4, sets, [], 256, (0.2, 0.1, 0.05),
                      RngStream(22)) == (0.8895830963141853, 3.094287393309261)


def test_disk_node_mass_with_absorber():
    # an absorber switches the payoff to the small-arc frequency at the root
    assert _node_mass(2.0, 4, [Circle(1.0 + 0j, 0.6)],
                      [ClosedDisk(-1.0 + 0j, 0.3)], 512, (0.2, 0.1),
                      RngStream(23), family="disk", eta_frac=0.25) == (
        0.3528155812136974, 0.03966990734843673)


def test_exact_lambda_star_at_origin():
    res = lambda_star(Circle(0j, 1.0), Circle(0j, 10.0), seed=0,
                      r_schedule=DEEP)
    assert _pinned(res) == EXACT_AT_ORIGIN


def test_exact_lambda_star_at_infinity():
    res = lambda_star_centered(Circle(0j, 1.0), Circle(0j, 10.0), INFINITY,
                               seed=0, r_schedule=DEEP_3_16)
    assert _pinned(res) == EXACT_AT_INFINITY


def test_mc_lambda_star_at_infinity():
    # off-center sets: the growing-disk profile runs its node walks
    res = lambda_star_centered(Circle(0.5 + 0j, 1.0), Circle(0j, 3.0),
                               INFINITY, seed=3,
                               r_schedule=[math.exp(-j) for j in range(3, 7)],
                               n_theta=4, n_per_node=128)
    assert _pinned(res) == MC_AT_INFINITY


def test_profile_covariance_diagonal_is_each_limits_variance():
    # the diagonal used to carry the deepest limit's trapezoid weights:
    # 0.6727 against stderr^2 0.6677 at the nearest limit
    ests, cov = loop_mass_profile(
        [Circle(0.5 + 0j, 1.0), Circle(0j, 3.0)],
        [math.exp(-j) for j in (1, 2, 3)], 1, n_theta=4, n_per_node=128)
    assert [cov[j, j] for j in range(3)] == [e.stderr**2 for e in ests]
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > 0.0


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
