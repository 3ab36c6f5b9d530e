import math

import numpy as np
import pytest

from staticlab.barriers import (
    BarrierFunction,
    ComparisonModel,
    build_barrier_prod0,
    build_barrier_schwarzschild,
    export_barrier_csv,
    verify_barrier,
)
from staticlab.geometry import (
    RadialBase,
    StaticModel,
    constant_warp,
    hyperbolic_profile,
    schwarzschild_profile,
    schwarzschild_rho_of_s,
    schwarzschild_s_of_rho,
    schwarzschild_warp,
)
from staticlab.graphs import Anchor, MeanCurvSpec, constant_H, solve_radial_graph
from staticlab.numerics import Grid, SampledFunction, cumulative_order3, quad

ONES = lambda s: np.ones_like(np.asarray(s, dtype=float))


class TestComparisonModel:
    def test_sinh_solution(self):
        cmp = ComparisonModel(1.0)
        assert cmp.k(2.0) == pytest.approx(math.sinh(2.0))
        assert abs(cmp.k(1e-6) / 1e-6 - 1.0) < 1e-10  # k'(0) = 1

    def test_flat_solution(self):
        cmp = ComparisonModel(0.0)
        assert cmp.k(3.0) == 3.0
        assert abs(cmp.k(1e-6) / 1e-6 - 1.0) < 1e-12  # k'(0) = 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ComparisonModel(-1.0)

    @pytest.mark.parametrize("G0", [0.0, 1.0, 2.5])
    def test_space_profile_is_k(self, G0):
        cmp = ComparisonModel(G0)
        t = np.linspace(0.5, 20.0, 101)
        smp = cmp.space(3, (0.5, 20.0)).sample(t)
        assert np.array_equal(smp.g, cmp.k(t)) and np.array_equal(smp.w, cmp.k(t) ** 2)
        assert np.all(smp.h == 1.0)


@pytest.fixture(scope="module")
def prod0_barrier():
    return build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.7,
                               A=ONES, s_max=30.0, n=4000)


@pytest.fixture(scope="module")
def schw_barrier():
    return build_barrier_schwarzschild(1.0, 3, 3.0, 6.0, beta=0.1, H0=0.2,
                                       rho_max=40.0, n=4000)


class TestProd0:
    def test_slope_closed_form(self, prod0_barrier):
        # C = 1 here; f(s) = (cosh s - cosh 1)/sinh s
        assert prod0_barrier.C == 1.0
        j = int(np.argmin(np.abs(prod0_barrier.grid.nodes - 2.0)))
        expected = (math.cosh(2.0) - math.cosh(1.0)) / math.sinh(2.0)
        assert prod0_barrier.f.values[j] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6118557, abs=1e-6)

    def test_height_against_quadrature_oracle(self, prod0_barrier):
        f = lambda s: (np.cosh(s) - math.cosh(1.0)) / np.sinh(s)
        oracle = quad(lambda s: f(s) / np.sqrt(1.0 + f(s) ** 2), 1.0, 2.0, 1e-12)
        j = int(np.argmin(np.abs(prod0_barrier.grid.nodes - 2.0)))
        assert prod0_barrier.u0.values[j] == pytest.approx(oracle, abs=1e-2)
        assert prod0_barrier.u0.values[j] == pytest.approx(oracle, abs=1e-7)  # much better in practice

    def test_flat_comparison_closed_form(self):
        b = build_barrier_prod0(2, ComparisonModel(0.0), R=1.0, r=2.0, eps=10.0,
                                A=ONES, s_max=20.0, n=2000)
        assert b.C == 1.0
        s = b.grid.nodes[100]
        assert b.f.values[100] == pytest.approx((s * s - 1.0) / (2.0 * s), abs=1e-12)
        assert not b.warnings  # liminf probe positive (diverging slope)

    def test_anchor_and_lipschitz(self, prod0_barrier):
        assert prod0_barrier.u0.values[0] == 0.0
        du = np.diff(prod0_barrier.u0.values) / np.diff(prod0_barrier.grid.nodes)
        assert np.all(du >= -1e-12) and np.all(du < 1.0)

    def test_linearity_in_C(self):
        kwargs = dict(R=1.0, r=2.0, A=ONES, s_max=20.0, n=2000)
        b1 = build_barrier_prod0(2, ComparisonModel(1.0), eps=0.2, **kwargs)
        b2 = build_barrier_prod0(2, ComparisonModel(1.0), eps=0.1, **kwargs)
        assert b2.C == pytest.approx(0.5 * b1.C, rel=1e-14)
        assert np.allclose(b2.f.values, 0.5 * b1.f.values, atol=1e-12)

    def test_defining_ode(self, prod0_barrier):
        from staticlab.numerics import fd_derivative

        ds = float(prod0_barrier.grid.nodes[1] - prod0_barrier.grid.nodes[0])
        resid = fd_derivative(prod0_barrier.w_nodes * prod0_barrier.f.values, ds)[2:-2] / prod0_barrier.w_nodes[2:-2] \
            - prod0_barrier.C * prod0_barrier.rhs_A[2:-2]
        assert np.max(np.abs(resid)) <= 1e-8

    def test_nonpositive_A_rejected(self):
        with pytest.raises(ValueError, match="A > 0"):
            build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.5,
                                A=lambda s: -ONES(s), s_max=10.0)

    def test_small_eps_shrinks_C(self):
        b = build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.05,
                                A=ONES, s_max=20.0, n=2000)
        assert 0.0 < b.C < 1.0
        j = int(np.argmin(np.abs(b.grid.nodes - 2.0)))
        assert b.u0.values[j] <= 0.05 + 1e-12


class TestSchwarzschildBarrier:
    def test_control_height(self, schw_barrier):
        j = int(np.argmin(np.abs(schw_barrier.grid.nodes - schw_barrier.control[0])))
        assert schw_barrier.u0.values[j] <= 0.1 + 1e-10
        assert schw_barrier.beta1 < 0.0

    def test_control_height_from_prefix(self, schw_barrier):
        # the beta_1 root solve integrates only the first j + 1 nodes; the
        # full-grid height at the control node must be the same number
        nodes = schw_barrier.grid.nodes
        j = int(np.flatnonzero(nodes == schw_barrier.control[0])[0])
        assert (j, len(nodes)) == (411, 3999)
        assert schw_barrier.beta1 == pytest.approx(-8.476, abs=1e-3)
        height = schw_barrier.u0.values[j]
        assert abs(height - 0.1) <= 1e-12
        f, h = schw_barrier.f.values[:j + 1], schw_barrier.h_nodes[:j + 1]
        prefix = cumulative_order3(f / (h * np.sqrt(h * h + f * f)), nodes[:j + 1])
        assert prefix[-1] == height

    def test_unbounded_growth(self, schw_barrier):
        s30 = schwarzschild_s_of_rho(1.0, 3, 30.0)
        j = int(np.argmin(np.abs(schw_barrier.grid.nodes - s30)))
        assert schw_barrier.u0.values[j] > 2.0

    def test_zero_shift_when_feasible(self):
        b = build_barrier_schwarzschild(1.0, 3, 3.0, 6.0, beta=5.0, H0=0.2,
                                        rho_max=20.0, n=2000)
        assert b.beta1 == 0.0

    def test_infeasible_beta(self):
        with pytest.raises(ValueError, match="floor"):
            build_barrier_schwarzschild(1.0, 3, 3.0, 6.0, beta=-100.0, H0=0.2,
                                        rho_max=20.0, n=2000)

    def test_probes_logged(self, schw_barrier):
        text = " ".join(schw_barrier.warnings)
        assert "(limhr)" in text and "diverging" in text
        assert "(limAr)" in text


class TestVerify:
    def test_prod0_all_pass(self):
        b = build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.7,
                                A=ONES, s_max=30.0, n=4000)
        reports = verify_barrier(b)
        assert all(r.verdict for r in reports)
        by_name = {r.name: r for r in reports}
        assert by_name["barrier-divergence-residual"].margin >= -1e-7

    def test_slice_barrier(self):
        # u = 0 with A > 0: divergence residual -A < 0 passes, growth fails
        grid = Grid.uniform(1.0, 20.0, 2001)
        zeros = np.zeros(len(grid))
        b = BarrierFunction(
            kind="prod0", m=2, domain=(1.0, 20.0), control=(2.0, 0.5), C=1.0, beta1=0.0,
            f=SampledFunction(grid, zeros), u0=SampledFunction(grid, zeros),
            rhs_A=np.ones(len(grid)), w_nodes=np.sinh(grid.nodes),
            h_nodes=np.ones(len(grid)),
        )
        by_name = {r.name: r for r in verify_barrier(b)}
        assert by_name["barrier-divergence-residual"].verdict
        assert by_name["barrier-divergence-residual"].margin == pytest.approx(1.0, abs=1e-9)
        assert not by_name["barrier-escape"].verdict

    def test_corrupted_barrier_detected(self):
        b = build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.7,
                                A=ONES, s_max=30.0, n=4000)
        import dataclasses

        bad = dataclasses.replace(
            b, f=SampledFunction(b.grid, 1.5 * b.f.values / b.C),
            u0=b.u0,
        )
        by_name = {r.name: r for r in verify_barrier(bad)}
        assert not by_name["barrier-divergence-residual"].verdict


def test_export_csv(tmp_path):
    b = build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.7,
                            A=ONES, s_max=10.0, n=1000)
    path = tmp_path / "barrier.csv"
    export_barrier_csv(b, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,f,u0,residual"
    assert len(lines) == len(b.grid) + 1


class TestBarriersAreGraphs:
    """Each builder's barrier is the radial graph of its flux law.

    Schwarzschild: the H = H0 graph with anchor flux F(R) = beta_1.  prod0:
    the graph over the comparison space (h = 1, g = k) with m H = C A and
    F(R) = 0.  The graph's height is u0 and its F/g^{m-1} is f.
    """

    @staticmethod
    def assert_same(b, graph):
        w = b.w_nodes
        assert np.max(np.abs(b.u0.values - graph.tau)) <= 1e-12
        assert np.max(np.abs(b.f.values - graph.flux / w)) <= 1e-13

    def test_schwarzschild(self, schw_barrier):
        b = schw_barrier
        model = StaticModel(RadialBase(3, schwarzschild_profile(1.0, 3), (0.2, 80.0)),
                            schwarzschild_warp(1.0, 3))
        graph = solve_radial_graph(model, constant_H(0.2), Anchor.point(b.grid.a, 0.0, b.beta1), b.grid)
        self.assert_same(b, graph)

    def test_prod0(self):
        b = build_barrier_prod0(2, ComparisonModel(1.0), R=1.0, r=2.0, eps=0.2,
                                A=ONES, s_max=30.0, n=4000)
        assert b.C < 1.0
        model = StaticModel(RadialBase(2, hyperbolic_profile(1.0), (0.0, 32.0)), constant_warp(1.0))
        spec = MeanCurvSpec("radial", H_fn=lambda s: b.C * ONES(s) / 2)
        graph = solve_radial_graph(model, spec, Anchor.point(1.0, 0.0, 0.0), b.grid)
        self.assert_same(b, graph)
