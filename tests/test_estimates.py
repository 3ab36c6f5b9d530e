import gc
import math
import weakref

import numpy as np
import pytest

from staticlab.barriers import ComparisonModel
from staticlab.estimates import (
    AngleMachineParams,
    angle_bound_check,
    angle_machine_step1,
    bishop_gromov_check,
    cheeger_profile,
    cosh_lower_estimate_check,
    dirichlet_lambda1,
    flux_identity_check,
    growth_diagnostics,
    lambda1_estimate,
    log_volume_identity_check,
    mean_H_average,
    salavessa_check,
    sphere_area,
    weighted_volume_annulus,
    weighted_volumes,
)
from staticlab.geometry import (
    RadialBase,
    StaticModel,
    constant_warp,
    custom_warp,
    euclidean_profile,
    hyperbolic_profile,
)
from staticlab.graphs import Anchor, constant_H, radial_H, solve_radial_graph, zero_H
from staticlab.numerics import Grid

ONES = np.ones_like


def test_sphere_area():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


class TestWeightedVolumes:
    def test_euclid(self, euclid_model):
        t = weighted_volumes(euclid_model, [1.0])
        assert t.vol[0] == pytest.approx(math.pi, abs=1e-10)
        assert t.bvol[0] == pytest.approx(2 * math.pi, abs=1e-12)

    def test_hyperbolic(self, hyperbolic_model):
        t = weighted_volumes(hyperbolic_model, [1.0])
        assert t.vol[0] == pytest.approx(2 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-9)
        assert t.vol[0] == pytest.approx(3.4122763, abs=1e-6)
        assert t.bvol[0] == pytest.approx(7.3840069, abs=1e-6)

    def test_volume_cache_dies_with_its_model(self):
        refs = []
        for k in range(200):
            base = RadialBase(2, hyperbolic_profile(1.0 + 0.01 * k), (0.0, 2.0))
            model = StaticModel(base, constant_warp(1.0))
            weighted_volumes(model, [1.0])
            refs.append(weakref.ref(model))
        del model
        gc.collect()
        assert not any(r() is not None for r in refs)

    def test_decaying_warp_oracle(self):
        base = RadialBase(2, euclidean_profile(), (0.0, 10.0))
        warp = custom_warp(
            lambda s: np.exp(-np.asarray(s, dtype=float)),
            lambda s: -np.exp(-np.asarray(s, dtype=float)),
            lambda s: np.exp(-np.asarray(s, dtype=float)),
        )
        model = StaticModel(base, warp)
        t = weighted_volumes(model, [1.0])
        # integration by parts: int_0^1 s e^-s ds = 1 - 2/e
        assert t.vol[0] == pytest.approx(2 * math.pi * (1.0 - 2.0 / math.e), abs=1e-8)
        assert t.vol[0] == pytest.approx(1.6602759, abs=1e-6)

    def test_annulus_for_annulus_models(self, schwarzschild_model):
        with pytest.raises(ValueError, match="annulus"):
            weighted_volumes(schwarzschild_model, [1.0])
        vol, b0, b1 = weighted_volume_annulus(schwarzschild_model, 2.0, 4.0)
        assert vol > 0 and b1 > b0 > 0

    def test_coarea_consistency(self, hyperbolic_model, euclid_model):
        from staticlab.estimates import _volumes

        for model in (hyperbolic_model, euclid_model):
            vc = _volumes(model)
            for r in (0.7, 2.0, 5.0):
                d = 1e-4
                fd = (vc.vol(r + d) - vc.vol(r - d)) / (2 * d)
                assert abs(fd - vc.bvol(r)) / vc.bvol(r) < 1e-6


class TestMeanH:
    def test_constant(self, hyperbolic_model):
        assert mean_H_average(hyperbolic_model, constant_H(0.37), 2.0) == pytest.approx(0.37, abs=1e-12)

    def test_linear(self, euclid_model):
        spec = radial_H(lambda s: np.asarray(s, dtype=float))
        assert mean_H_average(euclid_model, spec, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_zero(self, euclid_model):
        assert mean_H_average(euclid_model, zero_H(), 1.0) == 0.0


class TestFluxIdentity:
    def test_hyperbolic_cmc_ball(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.5), Anchor.pole(),
                               Grid.uniform(0.0, 8.0, 1601))
        rep = flux_identity_check(g, constant_H(0.5), 0.0, 1.0)
        assert rep.verdict
        assert rep.lhs == pytest.approx(2 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-8)
        assert rep.lhs == pytest.approx(3.4122763, abs=1e-6)

    def test_maximal_annulus(self, euclid_annulus):
        g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0),
                               Grid.uniform(1.0, 5.0, 801))
        rep = flux_identity_check(g, zero_H(), 1.0, 4.0, tol=1e-10)
        assert rep.verdict and rep.rhs == 0.0
        assert abs(rep.lhs) <= 1e-10

    def test_slice(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(), Grid.uniform(0.0, 5.0, 501))
        rep = flux_identity_check(g, zero_H(), 0.0, 3.0, tol=1e-12)
        assert rep.verdict and rep.lhs == 0.0 and rep.rhs == 0.0


class TestLogVolume:
    def test_euclid_closed_form(self, euclid_model):
        rep = log_volume_identity_check(euclid_model, 1.0, 2.0)
        assert rep.verdict
        assert rep.lhs == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_degenerate_interval(self, euclid_model):
        rep = log_volume_identity_check(euclid_model, 2.0, 2.0)
        assert rep.verdict and rep.lhs == rep.rhs == 0.0

    def test_hyperbolic(self, hyperbolic_model):
        rep = log_volume_identity_check(hyperbolic_model, 1.0, 3.0, tol=1e-7)
        assert rep.verdict


class TestBishopGromov:
    def test_hyperbolic_matching(self, hyperbolic_model):
        rep = bishop_gromov_check(hyperbolic_model, ComparisonModel(1.0), np.linspace(0.5, 8, 10))
        assert rep.verdict and "satisfied" in rep.notes[0]

    def test_euclid_flat(self, euclid_model):
        rep = bishop_gromov_check(euclid_model, ComparisonModel(0.0), np.linspace(0.5, 8, 10))
        assert rep.verdict

    def test_mismatched_negative_control(self, hyperbolic_model):
        rep = bishop_gromov_check(hyperbolic_model, ComparisonModel(0.0), np.linspace(0.5, 8, 10))
        assert not rep.verdict
        assert "VIOLATED" in rep.notes[0]


class TestCheeger:
    def test_hyperbolic_ratios(self, hyperbolic_model):
        from staticlab.estimates import _volumes

        vc = _volumes(hyperbolic_model)
        assert vc.bvol(2.0) / vc.vol(2.0) == pytest.approx(1.0 / math.tanh(1.0), abs=1e-9)
        assert vc.bvol(2.0) / vc.vol(2.0) == pytest.approx(1.3130353, abs=1e-6)
        assert vc.bvol(6.0) / vc.vol(6.0) == pytest.approx(1.0049698, abs=1e-6)
        prof = cheeger_profile(hyperbolic_model, 20.0)
        assert prof.c_hat == pytest.approx(1.0, abs=0.01)
        assert "balls" in prof.assumption

    def test_euclid_decay(self, euclid_model):
        prof = cheeger_profile(euclid_model, 20.0)
        assert prof.c_hat == pytest.approx(2.0 / 20.0, rel=1e-6)

    def test_pole_asymptotics(self, hyperbolic_model):
        from staticlab.estimates import _volumes

        vc = _volumes(hyperbolic_model)
        r = 1e-3
        assert vc.bvol(r) / vc.vol(r) == pytest.approx(2.0 / r, rel=1e-5)


class TestLambda1:
    def test_hyperbolic_truncated_values(self, hyperbolic_model):
        lam = lambda1_estimate(hyperbolic_model, 20.0, 2000)
        # truncated Dirichlet value of B_20 (the r -> infinity limit is 1/4);
        # cross-checked against an independent shooting computation, 0.2716788
        assert lam == pytest.approx(0.2716788, abs=2e-4)
        lam15 = lambda1_estimate(hyperbolic_model, 15.0, 1500)
        lam10 = lambda1_estimate(hyperbolic_model, 10.0, 1000)
        assert lam10 > lam15 > lam > 0.25
        prof = cheeger_profile(hyperbolic_model, 20.0)
        for value in (lam10, lam15, lam):
            assert value >= 0.25 * prof.c_hat**2 - 0.03

    def test_euclid_goes_to_zero(self, euclid_model):
        assert lambda1_estimate(euclid_model, 40.0, 2000) <= 0.01

    def test_flat_interval_sine_oracle(self):
        lam = dirichlet_lambda1(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                                math.pi, 400, left_bc="dirichlet")
        assert lam == pytest.approx(1.0, abs=1e-3)

    def test_mesh_floor(self, hyperbolic_model):
        with pytest.raises(ValueError):
            lambda1_estimate(hyperbolic_model, 10.0, 100)


class TestSalavessa:
    def test_near_sharp_cmc(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.5), Anchor.pole(),
                               Grid.uniform(0.0, 10.0, 2001))
        rep = salavessa_check(g, constant_H(0.5), [10.0])
        assert rep.verdict
        assert 0.0 <= rep.margin <= 1e-3  # equality chain makes this nearly sharp

    def test_slice(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(), Grid.uniform(0.0, 5.0, 501))
        rep = salavessa_check(g, zero_H(), [1.0, 3.0])
        assert rep.verdict

    def test_annulus_precondition(self, euclid_annulus):
        g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0),
                               Grid.uniform(1.0, 4.0, 301))
        with pytest.raises(ValueError, match="pole-regular"):
            salavessa_check(g, zero_H(), [2.0])


class TestCoshLower:
    def test_hyperbolic_equality_chain(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.5), Anchor.pole(),
                               Grid.uniform(0.0, 10.0, 2001))
        rep = cosh_lower_estimate_check(g, constant_H(0.5), 1.0, 8.0)
        assert rep.verdict and rep.margin >= -1e-8

    def test_slice(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(), Grid.uniform(0.0, 5.0, 501))
        rep = cosh_lower_estimate_check(g, zero_H(), 1.0, 4.0)
        assert rep.verdict

    def test_euclid_cmc_positive_margin(self, euclid_model):
        g = solve_radial_graph(euclid_model, constant_H(0.5), Anchor.pole(),
                               Grid.uniform(0.0, 3.8, 801))
        rep = cosh_lower_estimate_check(g, constant_H(0.5), 1.0, 3.0)
        assert rep.verdict
        assert float(rep.notes[0].split()[-1]) > 0  # integrated-form margin strictly positive


class TestGrowth:
    def test_hyperbolic(self, hyperbolic_model):
        gd = growth_diagnostics(hyperbolic_model, 100.0)
        value, trend = gd.volume_G
        assert value == pytest.approx(1.0, abs=0.02)
        assert trend == "converging"
        assert value <= 2.0 * math.sqrt(0.5)  # m sqrt(G0) with minimal G0 = 1/2
        assert gd.notl1[1] == "converging"
        assert gd.hnotl1[1] == "converging"

    def test_euclid(self, euclid_model):
        gd = growth_diagnostics(euclid_model, 100.0)
        assert gd.notl1[1] == "diverging"
        assert gd.hnotl1[1] == "diverging"
        assert gd.linfi[1] == "converging"


class TestAngleBound:
    def test_euclid_slice_any_G(self, euclid_model):
        g = solve_radial_graph(euclid_model, zero_H(), Anchor.pole(0.5), Grid.uniform(0.0, 5.0, 501))
        for G in (0.1, 1.0, 7.0):
            rep = angle_bound_check(g, G, t0=0.0)
            assert rep.verdict and rep.margin >= 0.0

    def test_annulus_negative_control(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.point(0.1, 0.0, 1.0),
                               Grid.uniform(0.1, 5.0, 981))
        assert g.cosh_theta[0] == pytest.approx(10.033, abs=1e-2)
        rep = angle_bound_check(g, 1.0, t0=float(g.tau[0]))
        assert not rep.verdict
        assert "annulus" in rep.notes[0]

    def test_restricted_annulus_with_offset(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.point(2.0, 0.0, 1.0),
                               Grid.uniform(2.0, 5.0, 601))
        rep = angle_bound_check(g, 1.0, t0=float(g.tau[0]) - 3.0)
        assert rep.notes  # hypothesis audit always carried
        assert "annulus" in rep.notes[0]
        # with the offset the bound at the anchor exceeds cosh theta there
        assert math.exp(math.sqrt(2.0) * 3.0) >= float(g.cosh_theta[0])

    def test_non_maximal_rejected(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.2), Anchor.pole(), Grid.uniform(0.0, 5.0, 501))
        with pytest.raises(ValueError, match="maximal"):
            angle_bound_check(g, 1.0, 0.0)

    def test_G_below_admissible_rejected(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(0.5), Grid.uniform(0.0, 5.0, 501))
        with pytest.raises(ValueError, match="admissible"):
            angle_bound_check(g, 0.2, t0=0.0)


class TestAngleMachine:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            AngleMachineParams(R=4.0, C=0.2, K=1.0)
        p = AngleMachineParams(R=4.0, C=1.0, K=2.0)
        assert p.gamma == 2.0 and 0.0 < p.delta < 1.0

    def test_comparison_profile_extensions(self):
        p = AngleMachineParams(R=4.0, C=1.0, K=2.0, B=1.0)
        assert p.f_ext(0.0) == 1.0
        assert p.g_ext(0.0) == pytest.approx(1.0 / 6.0)
        assert p.f_ext(2.0) == pytest.approx(p.f0(2.0))
        assert p.f_ext(-2.0) == p.f_ext(2.0)
        # smoothness across zero: series and direct formula agree at the seam
        assert p.f_ext(1.0000001e-6) == pytest.approx(p.f_ext(0.9999999e-6), rel=1e-9)
        p2 = AngleMachineParams(R=4.0, C=1.0, K=2.0, B=3.0)
        assert p2.g_ext(0.0) == pytest.approx(0.5)

    def test_slice_trivial(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(1.0), Grid.uniform(0.0, 6.0, 601))
        res = angle_machine_step1(g, AngleMachineParams(R=4.0, C=0.8, K=1.5), t0=0.0)
        assert res.report.verdict
        assert res.report.lhs == 1.0

    def test_near_maximal_control(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.1), Anchor.pole(0.0),
                               Grid.uniform(0.0, 8.0, 2001))
        res = angle_machine_step1(g, AngleMachineParams(R=6.0, C=0.4, K=2.0), t0=-0.1)
        assert res.report.verdict
        if res.interior_smooth_max:
            assert res.lzeta_at_max <= 1e-4

    def test_invalid_C_window(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.1), Anchor.pole(0.0),
                               Grid.uniform(0.0, 8.0, 801))
        with pytest.raises(ValueError, match="C in"):
            angle_machine_step1(g, AngleMachineParams(R=6.0, C=11.0, K=2.0), t0=-0.1)

    def test_needs_positive_height(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.1), Anchor.pole(0.0),
                               Grid.uniform(0.0, 8.0, 801))
        with pytest.raises(ValueError, match="u = tau - t0 > 0"):
            angle_machine_step1(g, AngleMachineParams(R=6.0, C=0.4, K=2.0), t0=0.5)
