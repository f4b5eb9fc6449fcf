import math

import numpy as np
import pytest

from loupe import engine
from loupe.engine import Estimate, StepLimitExceeded
from loupe.geometry import (Circle, ClosedDisk, Disk, DomainMinusSet,
                            ExteriorDisk, HullComplement)
from loupe.loops import (LoopMassQuery, ShellRangeInsufficient, _node_walks,
                         cascade_check, dyadic_loop_mass, loop_mass,
                         loop_mass_circles, loop_mass_profile, rho_exact)

FAST_KW = dict(n_per_node=512, n_theta=8)


class TestCirclesClosedForm:
    def test_log2_value(self):
        est = loop_mass_circles(0.01, 100.0)
        assert abs(est.value - math.log(2.0)) < 0.01

    def test_limit_formula_family(self):
        # Lambda(C_1, C_R; O_s) -> log(log(R/s)/log R) as the scales separate
        for s, R in ((1e-3, 1e3), (1e-4, 1e4)):
            est = loop_mass_circles(s, R)
            target = math.log(math.log(R / s) / math.log(R))
            assert abs(est.value - target) < 3.0 / (R * math.log(R)) + 5e-3

    def test_monotone_in_s(self):
        # shrinking the removed disk adds loops
        vals = [loop_mass_circles(s, 10.0).value for s in (0.5, 0.2, 0.05)]
        assert vals[0] < vals[1] < vals[2]


class TestFastPath:
    def test_matches_circles_route(self):
        q = LoopMassQuery((Circle(0j, 1.0), Circle(0j, 100.0)),
                          ExteriorDisk(0j, 0.01))
        est = loop_mass(q, 0)
        ref = loop_mass_circles(0.01, 100.0)
        assert abs(est.value - ref.value) < 1e-6

    def test_scaling_invariance(self):
        a = loop_mass(LoopMassQuery((Circle(0j, 1.0), Circle(0j, 10.0)),
                                    ExteriorDisk(0j, 0.1)), 0)
        b = loop_mass(LoopMassQuery((Circle(0j, 3.0), Circle(0j, 30.0)),
                                    ExteriorDisk(0j, 0.3)), 0)
        assert abs(a.value - b.value) < 1e-9

    def test_restriction_monotonicity(self):
        # enlarging the domain can only add loops
        a = loop_mass(LoopMassQuery((Circle(0j, 1.0), Circle(0j, 10.0)),
                                    ExteriorDisk(0j, 0.2)), 0)
        b = loop_mass(LoopMassQuery((Circle(0j, 1.0), Circle(0j, 10.0)),
                                    ExteriorDisk(0j, 0.1)), 0)
        assert b.value > a.value

    def test_domain_swallowing_sets_gives_zero(self):
        est = loop_mass(LoopMassQuery((Circle(0j, 1.0), Circle(0j, 2.0)),
                                      ExteriorDisk(0j, 5.0)), 0)
        assert est.value == 0.0

    def test_closed_disk_sets_use_boundary(self):
        a = loop_mass(LoopMassQuery((ClosedDisk(0j, 1.0), Circle(0j, 10.0)),
                                    ExteriorDisk(0j, 0.1)), 0)
        b = loop_mass(LoopMassQuery((Circle(0j, 1.0), Circle(0j, 10.0)),
                                    ExteriorDisk(0j, 0.1)), 0)
        assert abs(a.value - b.value) < 1e-9


class TestMonteCarloRoute:
    def test_agrees_with_fast_path(self):
        sets = (Circle(0j, 1.0), Circle(0j, 2.0))
        ref = loop_mass(LoopMassQuery(sets, ExteriorDisk(0j, 0.5)), 0)
        est = loop_mass(LoopMassQuery(sets, ExteriorDisk(0j, 0.5),
                                      force_mc=True, **FAST_KW), 1)
        assert est.stderr > 0
        assert abs(est.value - ref.value) < 4.0 * est.stderr

    def test_deterministic(self):
        q = LoopMassQuery((Circle(0j, 1.0), Circle(0j, 2.0)),
                          ExteriorDisk(0j, 0.5), force_mc=True, **FAST_KW)
        assert loop_mass(q, 7) == loop_mass(q, 7)

    def test_unsupported_domain_rejected(self):
        with pytest.raises(ValueError):
            loop_mass(LoopMassQuery((Circle(0j, 1.0),),
                                    ExteriorDisk(1 + 0j, 0.5)), 0)

    def test_node_walks_obey_the_step_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "STEP_CAP", 3)
        q = LoopMassQuery((Circle(0j, 1.0), Circle(0j, 2.0)),
                          ExteriorDisk(0j, 0.5), force_mc=True, **FAST_KW)
        with pytest.raises(StepLimitExceeded):
            loop_mass(q, 0)

    @pytest.mark.parametrize("s,targets,absorbers,family,eta", [
        # small targets: walkers stray past 2 ctrl and re-enter on C_ctrl
        (0.4, [Circle(1.5 + 0j, 0.3), Circle(-1.5 + 0j, 0.3)], [],
         "exterior", None),
        (2.0, [Circle(1.0 + 0j, 0.6)], [ClosedDisk(-1.0 + 0j, 0.3)], "disk",
         0.5),
    ], ids=["exterior", "disk"])
    def test_rungs_walk_as_if_alone(self, s, targets, absorbers, family, eta):
        # a rung of the shared batch draws only from its own stream, so it
        # returns bit for bit what a walk of that rung alone returns
        roots = s * np.exp(1j * 2.0 * math.pi * (np.arange(4) + 0.5) / 4)
        rng = engine.RngStream(9)
        eps_hats = (0.1, 0.2)
        gens = [rng.child(i).generator() for i in range(2)]
        means, variances = _node_walks(s, roots, targets, absorbers, 128,
                                       eps_hats, gens, family, eta)
        for i, eh in enumerate(eps_hats):
            m, v = _node_walks(s, roots, targets, absorbers, 128, (eh,),
                               [rng.child(i).generator()], family, eta)
            assert m[0].any()
            assert np.array_equal(means[i], m[0])
            assert np.array_equal(variances[i], v[0])

    def test_too_few_walkers_rejected(self):
        for kw in (dict(n_per_node=0), dict(n_theta=0)):
            with pytest.raises(ValueError):
                LoopMassQuery((Circle(0j, 1.0),), ExteriorDisk(0j, 0.5), **kw)


class TestProfile:
    def test_profile_matches_pointwise_fast_path(self):
        sets = [Circle(0j, 1.0), Circle(0j, 10.0)]
        rs = [0.3, 0.1, 0.03]
        ests, cov = loop_mass_profile(sets, rs, 0)
        assert cov.shape == (3, 3)
        for r, e in zip(sorted(rs, reverse=True), ests):
            ref = loop_mass(LoopMassQuery(tuple(sets), ExteriorDisk(0j, r)),
                            0)
            assert abs(e.value - ref.value) < 1e-6

    def test_profile_values_increase(self):
        sets = [Circle(0j, 1.0), Circle(0j, 10.0)]
        ests, _ = loop_mass_profile(sets, [0.3, 0.1, 0.03], 0)
        vals = [e.value for e in ests]
        assert vals[0] < vals[1] < vals[2]


class TestCascade:
    def test_splitting_identity(self):
        # Lambda(sets; D) = Lambda(sets+extra; D) + Lambda(sets; D - extra),
        # with the removed-set route using the independent payoff
        sets = (Circle(0j, 1.0), Circle(0j, 2.0))
        extra = ClosedDisk(1.5 + 0j, 0.2)
        resid, err = cascade_check(sets, extra, ExteriorDisk(0j, 0.5), 3,
                                   query_kwargs=dict(force_mc=True,
                                                     n_per_node=2048,
                                                     n_theta=8))
        assert abs(resid) < 4.0 * err + 0.01


class TestDyadic:
    def test_shells_sum_to_total(self):
        V1, V2 = Circle(0j, 1.0), Circle(0j, 2.0)
        D = ExteriorDisk(0j, math.exp(-2.0))
        ref = loop_mass(LoopMassQuery((V1, V2), D), 0)
        est = dyadic_loop_mass(V1, V2, D, range(-1, 2), 5,
                               query_kwargs=FAST_KW)
        assert abs(est.value - ref.value) < 4.0 * est.stderr + 0.01

    def test_insufficient_shells_rejected(self):
        V1, V2 = Circle(0j, 1.0), Circle(0j, 2.0)
        with pytest.raises(ShellRangeInsufficient):
            dyadic_loop_mass(V1, V2, ExteriorDisk(0j, math.exp(-5.0)),
                             range(0, 2), 0)
        # the edges are covered, but shell 0 is missing in between
        with pytest.raises(ShellRangeInsufficient):
            dyadic_loop_mass(V1, V2, ExteriorDisk(0j, math.exp(-2.0)),
                             [-1, 1], 0)


def test_rho_exact_asymptote():
    for R in (10.0, 1000.0):
        assert abs(rho_exact(R) * 2.0 * math.log(R) - 1.0) < 4.0 / R
