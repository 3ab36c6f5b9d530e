import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    weighted_volumes,
    _symmetric_bands,
)
from staticlab.geometry import (
    DomainError,
    RadialBase,
    StaticModel,
    constant_warp,
    custom_warp,
    euclidean_profile,
    hyperbolic_profile,
)
from staticlab.graphs import Anchor, MeanCurvSpec, constant_H, solve_radial_graph, zero_H
from staticlab.numerics import Grid

ONES = np.ones_like


def _plane_model(profile, s_max):
    """A 2-d pole-anchored model with unit warp on [0, s_max]."""
    return StaticModel(RadialBase(2, profile, (0.0, s_max)), constant_warp(1.0))


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

    def test_volume_cache_freed_without_cyclic_gc(self):
        # the cache on the model holds no cycle back to it: reference counting frees both
        gc.disable()
        try:
            model = _plane_model(hyperbolic_profile(1.0), 2.0)
            weighted_volumes(model, [0.5, 1.5])
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()

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
        spec = MeanCurvSpec("radial", H_fn=lambda s: np.asarray(s, dtype=float))
        assert mean_H_average(euclid_model, spec, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_zero(self, euclid_model):
        assert mean_H_average(euclid_model, zero_H(), 1.0) == 0.0

    def test_constant_array_to_large_radii(self, hyperbolic_model):
        # the ball integral grows like e^r; relative per-interval tolerances hold at any radius
        radii = np.linspace(0.5, 20.0, 12)
        values = mean_H_average(hyperbolic_model, constant_H(0.37), radii)
        assert values.shape == radii.shape
        assert np.max(np.abs(values - 0.37)) <= 1e-13

    def test_unsorted_radii_keep_input_order(self, hyperbolic_model):
        radii = np.array([5.0, 1.0, 3.0, 1.0, 2.5])
        spec = MeanCurvSpec("radial", H_fn=lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)))
        values = mean_H_average(hyperbolic_model, spec, radii)
        ordered = np.sort(radii)
        sorted_values = mean_H_average(hyperbolic_model, spec, ordered)
        for r, v in zip(radii, values):
            assert v == sorted_values[np.searchsorted(ordered, r)]
        assert values[1] == values[3]
        assert isinstance(mean_H_average(hyperbolic_model, spec, 2.5), float)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_rejects_radius_at_or_below_pole(self, hyperbolic_model, r):
        with pytest.raises(ValueError, match="radii r >"):
            mean_H_average(hyperbolic_model, constant_H(0.37), r)
        with pytest.raises(ValueError, match="radii r >"):
            mean_H_average(hyperbolic_model, constant_H(0.37), np.array([1.0, r]))


class TestFluxIdentity:
    def test_hyperbolic_cmc_ball(self, hyperbolic_model):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.5), Anchor.pole(),
                               Grid.uniform(0.0, 8.0, 1601))
        rep = flux_identity_check(g, constant_H(0.5), 0.0, 1.0)
        assert rep.verdict
        assert rep.lhs == pytest.approx(2 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-8)
        assert rep.lhs == pytest.approx(3.4122763, abs=1e-6)

    @pytest.mark.parametrize("s1", [8.5, 11.0])
    def test_hyperbolic_cmc_large_radius(self, hyperbolic_model, s1):
        g = solve_radial_graph(hyperbolic_model, constant_H(0.5), Anchor.pole(),
                               Grid.uniform(0.0, 24.0, 4801))
        rep = flux_identity_check(g, constant_H(0.5), 0.0, s1)
        exact = 2 * math.pi * (math.cosh(s1) - 1.0)
        assert abs(rep.rhs - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("spec", [constant_H(0.5), zero_H()])
    def test_rejects_empty_interval(self, hyperbolic_model, spec):
        g = solve_radial_graph(hyperbolic_model, spec, Anchor.pole(), Grid.uniform(0.0, 4.0, 401))
        for s0, s1 in ((2.0, 2.0), (3.0, 1.0)):
            with pytest.raises(ValueError, match="need s0 < s1"):
                flux_identity_check(g, spec, s0, s1)

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

    def test_zero_r_max_raises(self, hyperbolic_model):
        # np.geomspace(0, 0) would otherwise fail in numpy's words
        with pytest.raises(ValueError, match="r_max > 0"):
            cheeger_profile(hyperbolic_model, 0.0)

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

    def test_euclid_goes_to_zero(self):
        assert lambda1_estimate(_plane_model(euclidean_profile(), 40.0), 40.0, 2000) <= 0.01

    def test_flat_interval_sine_oracle(self):
        # w = 1 on [0, pi], natural at 0 and Dirichlet at pi: v = sin((pi - s)/2),
        # lambda1 = 1/4; second order, 3.2e-7 at n = 400 and 8.0e-8 at n = 800
        ones = lambda s: np.ones_like(np.asarray(s, dtype=float))
        for n in (400, 800):
            assert dirichlet_lambda1(ones, math.pi, n) == pytest.approx(0.25, abs=1e-6)

    def test_zero_r_trunc_raises(self, hyperbolic_model):
        # a zero mesh width would otherwise reach LAPACK as infs and NaNs
        with pytest.raises(ValueError, match="r_trunc > 0"):
            lambda1_estimate(hyperbolic_model, 0.0, 400)

    def test_mesh_floor(self, hyperbolic_model):
        with pytest.raises(ValueError):
            lambda1_estimate(hyperbolic_model, 10.0, 100)

    def test_non_finite_weight_raises(self):
        # a NaN weight passes every definiteness test, so the bisection would never end
        for bad in (np.nan, np.inf, -1.0):
            weight = lambda s, bad=bad: np.where(np.asarray(s) > 1.0, bad, 1.0)  # noqa: E731
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite positive weight"):
                dirichlet_lambda1(weight, 2.0, 400)

    def test_large_balls_converge(self):
        # the weight reaches sinh(160); the values must still decrease toward
        # the spectral bottom 1/4 of H^2
        model = StaticModel(RadialBase(2, hyperbolic_profile(1.0), (0.0, 160.0)), constant_warp(1.0))
        lam40, lam80, lam160 = (lambda1_estimate(model, r, 100 * int(r)) for r in (40.0, 80.0, 160.0))
        assert 0.25 < lam160 < lam80 < lam40

    def test_mesh_convergence_second_order(self, hyperbolic_model):
        lams = [lambda1_estimate(hyperbolic_model, 10.0, n) for n in (400, 800, 1600, 3200)]
        diffs = np.diff(lams)
        for ratio in diffs[:-1] / diffs[1:]:
            assert 3.8 <= ratio <= 4.2

    @given(st.sampled_from(["flat", "sinh", "random"]), st.integers(200, 600), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_lapack_eigensolver(self, kind, n, seed):
        # LAPACK's bisection eigensolver, called from this test only, is the oracle
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(seed)
        r_trunc = float(rng.uniform(1.0, 40.0))
        if kind == "flat":
            weight = ONES
        elif kind == "sinh":  # the weight of H^2 at curvature -k^2, up to sinh(160)
            k = float(rng.uniform(0.5, 4.0))
            weight = lambda s: np.sinh(k * np.asarray(s)) / k  # noqa: E731
        else:
            knots, values = np.linspace(0.0, r_trunc, 9), rng.uniform(0.1, 10.0, 9)
            weight = lambda s: np.interp(s, knots, values)  # noqa: E731
        diag, off, _ = _symmetric_bands(weight, r_trunc, n)
        exact = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]
        norm = np.max(np.abs(diag) + np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0)))
        assert abs(dirichlet_lambda1(weight, r_trunc, n) - exact) <= 4.0 * np.finfo(float).eps * norm

    @pytest.mark.parametrize("r_trunc", [20.0, 40.0, 80.0, 160.0])
    def test_factorisations_bounded_at_any_radius(self, r_trunc, monkeypatch):
        # the bracket [0, Rayleigh quotient] is far narrower than Gershgorin's, and Brent finishes the root
        from scipy.linalg import lapack

        calls, dpttrf = [], lapack.dpttrf
        monkeypatch.setattr(lapack, "dpttrf", lambda *args: calls.append(args[0].size) or dpttrf(*args))
        model = StaticModel(RadialBase(2, hyperbolic_profile(1.0), (0.0, 160.0)), constant_warp(1.0))
        for n in (100 * int(r_trunc), 12800):
            calls.clear()
            assert 0.25 < lambda1_estimate(model, r_trunc, n) < 0.25 + 10.0 / r_trunc**2
            assert calls == [n] * len(calls) and 0 < len(calls) <= 40

    def test_b20_value_pinned(self, hyperbolic_model):
        # B_20 value of this discretisation; it does not depend on the eigensolver
        assert abs(lambda1_estimate(hyperbolic_model, 20.0, 2000) - 0.2716793471224135) <= 1e-10


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


class TestDomain:
    """Radii outside the model's radial domain raise instead of extrapolating."""

    @pytest.mark.parametrize("query", [
        lambda m: weighted_volumes(m, [1.0, 5.0]),
        lambda m: mean_H_average(m, constant_H(1.0), np.array([1.0, 2.5])),
        lambda m: log_volume_identity_check(m, 1.0, 3.0),
        lambda m: cheeger_profile(m, 5.0),
        lambda m: lambda1_estimate(m, 5.0, 400),
        lambda m: growth_diagnostics(m, 5.0),
    ], ids=["weighted_volumes", "mean_H_average", "log_volume_identity_check",
            "cheeger_profile", "lambda1_estimate", "growth_diagnostics"])
    def test_past_the_domain_raises(self, query):
        model = _plane_model(hyperbolic_profile(1.0), 2.0)
        with pytest.raises(DomainError):
            query(model)
        t = weighted_volumes(model, [1.0, 2.0])  # the domain's end is still served
        assert t.vol[1] == pytest.approx(2 * math.pi * (math.cosh(2.0) - 1.0), rel=1e-12)


class TestGrowth:
    def test_hyperbolic(self):
        gd = growth_diagnostics(_plane_model(hyperbolic_profile(1.0), 100.0), 100.0)
        value, trend = gd.volume_G
        assert value == pytest.approx(1.0, abs=0.02)
        assert trend == "converging"
        assert value <= 2.0 * math.sqrt(0.5)  # m sqrt(G0) with minimal G0 = 1/2
        assert gd.notl1[1] == "converging"
        assert gd.hnotl1[1] == "converging"

    def test_hyperbolic_notl1_closed_form(self):
        # int_{0.1}^{100} ds / (2 pi sinh s) = ln(tanh 50 / tanh 0.05) / (2 pi)
        gd = growth_diagnostics(_plane_model(hyperbolic_profile(1.0), 100.0), 100.0)
        assert abs(gd.notl1[0] - 0.476918151322639903) <= 1e-14

    def test_euclid(self):
        gd = growth_diagnostics(_plane_model(euclidean_profile(), 100.0), 100.0)
        assert gd.notl1[1] == "diverging"
        assert gd.hnotl1[1] == "diverging"
        assert gd.linfi[1] == "converging"

    def test_zero_r_max_raises(self):
        # log(vol(0)) / 0 would otherwise raise ZeroDivisionError
        with pytest.raises(ValueError, match="r_max > 0"):
            growth_diagnostics(_plane_model(hyperbolic_profile(1.0), 100.0), 0.0)


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
