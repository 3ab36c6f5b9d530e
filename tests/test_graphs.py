import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticlab.geometry import (
    DomainError,
    RadialBase,
    StaticModel,
    constant_warp,
    custom_profile,
    euclidean_profile,
    hyperbolic_profile,
    schwarzschild_s_of_rho,
)
from staticlab.graphs import (
    Anchor,
    FluxBlowUpError,
    MeanCurvSpec,
    constant_H,
    export_graph_csv,
    flux_from_H,
    gauge_consistency_check,
    slope_from_flux,
    solve_radial_graph,
    zero_H,
)
from staticlab.numerics import Grid


def oracle_catenoid(m: int, c: float, s):
    """Closed-form slope/angle of the maximal graph with flux c over flat base.

    tau' = c / sqrt(s^{2(m-1)} + c^2), cosh theta = sqrt(s^{2(m-1)} + c^2) / s^{m-1}.
    """
    s = np.asarray(s, dtype=float)
    p = s ** (2 * (m - 1))
    return c / np.sqrt(p + c * c), np.sqrt(p + c * c) / s ** (m - 1)


class TestFlux:
    def test_euclid_cmc_pole(self, euclid_model):
        grid = Grid.uniform(0.0, 2.0, 401)
        flux = flux_from_H(euclid_model, constant_H(0.5), Anchor.pole(), grid)
        i = int(np.argmin(np.abs(grid.nodes - 1.0)))
        assert flux[i] == pytest.approx(0.5, abs=1e-12)

    def test_maximal_constant(self, hyperbolic_model):
        grid = Grid.uniform(0.5, 3.0, 101)
        flux = flux_from_H(hyperbolic_model, zero_H(), Anchor.point(0.5, 0.0, 2.5), grid)
        assert np.all(flux == 2.5)

    def test_hyperbolic_cmc_closed_form(self, hyperbolic_model):
        grid = Grid.uniform(0.0, 8.0, 1601)
        flux = flux_from_H(hyperbolic_model, constant_H(0.5), Anchor.pole(), grid)
        assert np.max(np.abs(flux - (np.cosh(grid.nodes) - 1.0))) <= 1e-8
        i = int(np.argmin(np.abs(grid.nodes - 1.0)))
        assert flux[i] == pytest.approx(0.5430806, abs=1e-7)

    def test_pole_anchor_needs_pole(self, schwarzschild_model):
        grid = Grid.uniform(1.0, 5.0, 101)
        with pytest.raises(ValueError, match="pole"):
            flux_from_H(schwarzschild_model, zero_H(), Anchor.pole(), grid)

    def test_blowup_named(self, euclid_model):
        def bad_H(s):
            with np.errstate(divide="ignore"):
                return 1.0 / np.zeros_like(np.asarray(s, dtype=float))

        grid = Grid.uniform(0.0, 2.0, 101)
        with pytest.raises(FluxBlowUpError):
            flux_from_H(euclid_model, MeanCurvSpec("radial", H_fn=bad_H), Anchor.pole(), grid)


class TestSlopeFromFlux:
    def test_zero_flux(self, hyperbolic_model):
        slope, cosh = slope_from_flux(hyperbolic_model, 0.0, 1.0)
        assert slope == 0.0 and cosh == 1.0

    def test_euclid_unit_flux(self, euclid_annulus):
        slope, cosh = slope_from_flux(euclid_annulus, 1.0, 1.0)
        assert slope == pytest.approx(0.7071068, abs=1e-7)
        assert cosh == pytest.approx(1.4142136, abs=1e-7)

    def test_hyperbolic_cmc_angle(self, hyperbolic_model):
        w = math.tanh(1.0)
        flux = w * math.sinh(2.0)
        slope, cosh = slope_from_flux(hyperbolic_model, flux, 2.0)
        assert cosh == pytest.approx(math.sqrt(1.0 + w * w), abs=1e-9)
        assert cosh == pytest.approx(1.2569907, abs=1e-6)

    @given(st.floats(-20, 20), st.floats(0.3, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_inversion_always_spacelike(self, F, s):
        base = RadialBase(2, hyperbolic_profile(1.0), (0.0, 10.0))
        model = StaticModel(base, constant_warp(1.0))
        slope, cosh = slope_from_flux(model, F, s)
        assert abs(slope) < 1.0
        assert cosh >= 1.0
        # round trip back to the flux
        w = math.sinh(s) * slope / math.sqrt(1.0 - slope * slope)
        assert w == pytest.approx(F, abs=1e-9 * max(1.0, abs(F)))


class TestSolve:
    def test_euclid_annulus_asinh(self, euclid_annulus):
        grid = Grid.uniform(1.0, 2.0, 401)
        g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0), grid)
        assert g.tau[-1] == pytest.approx(math.asinh(2.0) - math.asinh(1.0), abs=1e-8)

    def test_slice(self, hyperbolic_model):
        grid = Grid.uniform(0.0, 5.0, 101)
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(1.25), grid)
        assert np.all(g.tau == 1.25)
        assert np.all(g.slope == 0.0)

    def test_schwarzschild_growth(self, schwarzschild_model):
        s1 = schwarzschild_s_of_rho(1.0, 3, 3.0)
        s2 = schwarzschild_s_of_rho(1.0, 3, 30.0)
        grid = Grid.uniform(s1, s2, 1601)
        g = solve_radial_graph(schwarzschild_model, constant_H(0.2),
                               Anchor.point(s1, 0.0, 0.0), grid)
        assert np.all(np.diff(g.tau) > 0)
        assert g.tau[-1] >= 5.0

    def test_spacelike_invariant(self, hyperbolic_model):
        grid = Grid.uniform(0.0, 10.0, 501)
        g = solve_radial_graph(hyperbolic_model, constant_H(1.0), Anchor.pole(), grid)
        h = 1.0
        assert np.max(np.abs(h * g.slope)) < 1.0

    def test_two_gauge_angle_formulas_agree(self, hyperbolic_model):
        grid = Grid.uniform(0.0, 8.0, 801)
        g = solve_radial_graph(hyperbolic_model, constant_H(0.7), Anchor.pole(), grid)
        grad_g_sq = g.slope**2 / (1.0 - g.slope**2)
        other = np.sqrt(1.0 + grad_g_sq)
        assert np.max(np.abs(other - g.cosh_theta)) <= 1e-10

    def test_two_gauge_angle_formulas_with_warp(self, schwarzschild_model):
        s1 = schwarzschild_s_of_rho(1.0, 3, 3.0)
        grid = Grid.uniform(s1, 20.0, 801)
        g = solve_radial_graph(schwarzschild_model, constant_H(0.2),
                               Anchor.point(s1, 0.0, 0.0), grid)
        h, _, _ = schwarzschild_model.warp.evaluate(grid.nodes)
        grad_g_sq = g.slope**2 / (1.0 - (h * g.slope) ** 2)
        other = np.sqrt(1.0 + h * h * grad_g_sq)
        assert np.max(np.abs(other - g.cosh_theta)) <= 1e-10

    def test_solve_on_geometric_grid(self, euclid_annulus):
        grid = Grid(np.geomspace(1.0, 4.0, 401))
        g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0), grid)
        exact = np.arcsinh(grid.nodes) - np.arcsinh(1.0)
        assert np.max(np.abs(g.tau - exact)) <= 1e-6

    def test_refinement_order(self, euclid_annulus):
        def err(n):
            grid = Grid.uniform(1.0, 2.0, n + 1)
            g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0), grid)
            exact = np.arcsinh(grid.nodes) - np.arcsinh(1.0)
            return float(np.max(np.abs(g.tau - exact)))

        assert err(400) / err(800) >= 8.0

    def test_anchor_must_be_node(self, euclid_annulus):
        grid = Grid.uniform(1.0, 2.0, 101)
        with pytest.raises(ValueError, match="node"):
            solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.3333333, 0.0, 1.0), grid)

    def test_grid_past_the_domain_raises(self):
        # a sinh spline on (0.1, 3) extrapolated to s = 9 gave flux 1120.8, not 2 H (cosh 9 - cosh 0.5) = 4050.4,
        # and the flux identity still passed, since both of its sides read the same extrapolated profile
        s = np.linspace(0.1, 3.0, 60)
        model = StaticModel(RadialBase(2, custom_profile(s, np.sinh(s)), (0.1, 3.0)), constant_warp(1.0))
        for grid in (Grid.uniform(0.5, 9.0, 851), Grid.uniform(0.05, 3.0, 851)):
            with pytest.raises(DomainError):
                solve_radial_graph(model, constant_H(0.5), Anchor.point(grid.a, 0.0, 0.0), grid)
        g = solve_radial_graph(model, constant_H(0.5), Anchor.point(0.5, 0.0, 0.0), Grid.uniform(0.5, 3.0, 851))
        assert g.flux[-1] == pytest.approx(math.cosh(3.0) - math.cosh(0.5), rel=1e-5)


class TestOracleCatenoid:
    def test_zero_flux(self):
        slope, cosh = oracle_catenoid(2, 0.0, 1.5)
        assert slope == 0.0 and cosh == 1.0

    def test_m2(self):
        slope, cosh = oracle_catenoid(2, 1.0, 1.0)
        assert (slope, cosh) == pytest.approx((0.7071068, 1.4142136), abs=1e-7)

    def test_m3(self):
        slope, cosh = oracle_catenoid(3, 1.0, 1.0)
        assert (slope, cosh) == pytest.approx((0.7071068, 1.4142136), abs=1e-7)

    def test_matches_solver(self, euclid_annulus):
        grid = Grid.uniform(1.0, 4.0, 301)
        g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0), grid)
        slope, cosh = oracle_catenoid(2, 1.0, grid.nodes)
        assert np.max(np.abs(g.slope - slope)) <= 1e-12
        assert np.max(np.abs(g.cosh_theta - cosh)) <= 1e-12


class TestGaugeConsistency:
    def test_slice(self, hyperbolic_model):
        grid = Grid.uniform(0.0, 5.0, 501)
        g = solve_radial_graph(hyperbolic_model, zero_H(), Anchor.pole(), grid)
        rep = gauge_consistency_check(g)
        assert rep.verdict and rep.lhs <= 1e-10

    def test_catenoid(self, euclid_annulus):
        grid = Grid.uniform(0.5, 5.0, 2001)
        g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(0.5, 0.0, 1.0), grid)
        rep = gauge_consistency_check(g)
        assert rep.verdict and rep.lhs <= 1e-6

    def test_cmc_recovers_H(self, hyperbolic_model):
        grid = Grid.uniform(0.0, 8.0, 2001)
        g = solve_radial_graph(hyperbolic_model, constant_H(0.5), Anchor.pole(), grid)
        rep = gauge_consistency_check(g)
        assert rep.verdict and rep.lhs <= 1e-6
        # both routes individually recover m H = 1: check through the flux route
        from staticlab.numerics import fd_derivative

        s = grid.nodes
        ds = float(s[1] - s[0])
        mh = fd_derivative(g.flux, ds)[5:-5] / np.sinh(s[5:-5])
        assert np.max(np.abs(mh - 1.0)) <= 1e-6

    def test_nonuniform_grid_rejected(self, euclid_annulus):
        # both routes difference with the first cell's width: on geometric
        # nodes each recovered m H runs from 0.60 to 2.38 against the true 0.6,
        # yet the two routes agree to 3.4e-14, so the check must refuse the grid
        grid = Grid(np.geomspace(1.0, 4.0, 401))
        g = solve_radial_graph(euclid_annulus, constant_H(0.3), Anchor.point(1.0, 0.0, 0.0), grid)
        with pytest.raises(ValueError, match="uniform"):
            gauge_consistency_check(g)


def test_angle_profile_invariant(hyperbolic_model):
    grid = Grid.uniform(0.0, 5.0, 301)
    g = solve_radial_graph(hyperbolic_model, constant_H(0.3), Anchor.pole(), grid)
    assert np.all(g.cosh_theta >= 1.0)


def test_export_csv(tmp_path, euclid_annulus):
    grid = Grid.uniform(1.0, 2.0, 51)
    g = solve_radial_graph(euclid_annulus, zero_H(), Anchor.point(1.0, 0.0, 1.0), grid)
    path = tmp_path / "graph.csv"
    export_graph_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,tau,slope,flux,cosh_theta"
    assert len(lines) == 52
    cols = lines[1].split(",")
    assert float(cols[0]) == 1.0 and float(cols[3]) == 1.0
