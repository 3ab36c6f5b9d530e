import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from staticlab import elliptic
from staticlab.elliptic import (
    DirichletProblem,
    MeshOperator,
    NewtonStagnationError,
    SlopeCapError,
    _clip_step,
    _spd_solve,
    comparison_check,
    divergence_telescope,
    export_solution_csv,
    newton_solve,
    residual,
)
from staticlab.geometry import (
    RadialBase,
    StaticModel,
    constant_warp,
    euclidean_profile,
    hyperbolic_profile,
    schwarzschild_profile,
    schwarzschild_s_of_rho,
    schwarzschild_warp,
)
from staticlab.graphs import Anchor, constant_H, solve_radial_graph, zero_H
from staticlab.numerics import Grid, quad


# the model families of the benchmark's model-sweep workload
MODEL_FAMILIES = [("flat", 2), ("flat", 3), ("hyperbolic", 2), ("hyperbolic", 3),
                  ("schwarzschild", 3), ("schwarzschild", 4), ("schwarzschild", 5)]


def family_model(family, m, scale):
    """A model of the family, its length unit ell and a graph interval [a, b] fixed in that unit.

    ``scale`` is the flat length unit, the curvature scale B of H^m (ell = 1/sqrt(B)) or the
    Schwarzschild mass mu (ell = r_S, the horizon radius).  Each metric is self-similar in ell, so
    with H ell fixed every scale poses the same problem.
    """
    if family == "schwarzschild":
        ell = (2.0 * scale) ** (1.0 / (m - 2))
        s_of = lambda x: schwarzschild_s_of_rho(scale, m, x * ell)  # noqa: E731
        base = RadialBase(m, schwarzschild_profile(scale, m), (s_of(1.1), s_of(10.0)))
        return StaticModel(base, schwarzschild_warp(scale, m)), ell, s_of(1.5), s_of(8.0)
    if family == "flat":
        ell, profile, a = scale, euclidean_profile(), scale
    else:
        ell, profile = 1.0 / math.sqrt(scale), hyperbolic_profile(scale)
        a = 0.5 * ell
    return StaticModel(RadialBase(m, profile, (0.0, 4.0 * ell)), constant_warp(1.0)), ell, a, 3.0 * ell


@pytest.fixture(scope="module")
def catenoid_op(euclid_annulus):
    grid = Grid.uniform(1.0, 2.0, 401)
    return MeshOperator.from_model(euclid_annulus, grid)


def catenoid_exact(nodes):
    return np.arcsinh(nodes) - np.arcsinh(1.0)


class TestOperator:
    def test_degenerate_mesh_rejected(self, euclid_annulus):
        nodes = np.concatenate([np.linspace(1.0, 1.5, 200), np.linspace(1.6, 2.0, 5)])
        grid = Grid(np.unique(nodes))
        with pytest.raises(ValueError, match="10x"):
            MeshOperator.from_model(euclid_annulus, grid)


class TestResidual:
    def test_slice_gives_minus_load(self, catenoid_op):
        load = 0.7 * np.ones(len(catenoid_op.grid))
        r = residual(catenoid_op, np.full(len(catenoid_op.grid), 2.0), load)
        assert np.allclose(r, -0.7)

    def test_catenoid_second_order(self, euclid_annulus):
        def resid_norm(n):
            grid = Grid.uniform(1.0, 2.0, n + 1)
            op = MeshOperator.from_model(euclid_annulus, grid)
            r = residual(op, catenoid_exact(grid.nodes), np.zeros(n + 1))
            return float(np.max(np.abs(r)))

        r400, r800 = resid_norm(400), resid_norm(800)
        assert r400 <= 5e-4
        assert r800 <= 1.3e-4
        assert r400 / r800 >= 3.5

    def test_linear_flat_weight_exact(self):
        # constant flux telescopes: no discretization error, only last-ulp noise
        grid = Grid.uniform(0.0, 1.0, 101)
        op = MeshOperator(grid, w_nodes=np.ones(101), w_faces=np.ones(100), q_faces=np.ones(100))
        u = 0.3 * grid.nodes + 0.1
        r = residual(op, u, np.zeros(101))
        assert np.max(np.abs(r)) <= 1e-12

    def test_cap_violation_lists_faces(self, catenoid_op):
        u = np.zeros(len(catenoid_op.grid))
        u[37] = 1.0
        with pytest.raises(SlopeCapError) as exc:
            residual(catenoid_op, u, np.zeros(len(catenoid_op.grid)))
        assert 36 in exc.value.faces and 37 in exc.value.faces


class TestTelescoping:
    def test_divergence_theorem(self, catenoid_op):
        rng = np.random.default_rng(4)
        u = catenoid_exact(catenoid_op.grid.nodes) + 0.01 * np.sin(catenoid_op.grid.nodes * 5)
        rhs = rng.uniform(-1, 1, len(catenoid_op.grid))
        assert divergence_telescope(catenoid_op, u, rhs) <= 1e-12


class TestSPDSolve:
    """The Newton step's linear solve: one LDL^T factorisation, no pivoting, one refinement sweep."""

    def test_identity(self):
        r = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(_spd_solve(np.ones(4), np.zeros(3), r), r)

    def test_second_difference(self):
        x = _spd_solve(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]), np.ones(3))
        assert np.allclose(x, [1.5, 2.0, 1.5])

    def test_single_row(self):
        assert _spd_solve(np.array([4.0]), np.zeros(0), np.array([8.0]))[0] == 2.0

    def test_not_definite_raises(self):
        # indefinite but nonsingular, singular, zero, and a negative pivot in the middle
        for diag, off in (([1.0, 1.0], [2.0]), ([1.0, 1.0], [1.0]), ([0.0], []), ([1.0, -1.0, 1.0], [0.1, 0.1])):
            with pytest.raises(NewtonStagnationError, match="not definite"):
                _spd_solve(np.array(diag), np.array(off), np.ones(len(diag)))

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_spd_matches_dense(self, n, seed):
        # T = L D L^T with L unit lower bidiagonal and D > 0 is any SPD tridiagonal matrix
        rng = np.random.default_rng(seed)
        piv, mult = rng.uniform(1e-3, 1.0, n), rng.uniform(-2.0, 2.0, n - 1)
        diag, off = piv.copy(), mult * piv[:-1]
        diag[1:] += mult * mult * piv[:-1]
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        cond = np.linalg.cond(dense)
        assume(cond < 1e8)
        rhs = rng.uniform(-10, 10, n)
        x = _spd_solve(diag, off, rhs)
        x_ref = np.linalg.solve(dense, rhs)
        scale = np.linalg.norm(x_ref)
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-13 * max(1.0, np.linalg.norm(rhs), scale)
        assert np.linalg.norm(x - x_ref) <= 1e-14 * cond * scale

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_any_symmetric_matrix_solved_only_if_definite(self, n, seed):
        # random signs: an answer comes back only for a positive definite matrix, and it is right
        rng = np.random.default_rng(seed)
        diag, off = rng.uniform(-1.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1)
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        rhs = rng.uniform(-10, 10, n)
        try:
            x = _spd_solve(diag, off, rhs)
        except NewtonStagnationError:
            assert np.linalg.eigvalsh(dense)[0] <= 1e-12 * np.max(np.abs(dense))
            return
        assert np.linalg.eigvalsh(dense)[0] > 0.0
        assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-8, atol=1e-8 * np.linalg.cond(dense))


class TestNewton:
    def test_catenoid(self, catenoid_op):
        exact = catenoid_exact(catenoid_op.grid.nodes)
        prob = DirichletProblem(catenoid_op, np.zeros(len(catenoid_op.grid)), (0.0, float(exact[-1])))
        u = newton_solve(prob)
        assert np.max(np.abs(u.values - exact)) <= 1e-6

    def test_non_definite_jacobian_raises(self, catenoid_op, monkeypatch):
        # the analytic Jacobian is always definite; a corrupted one must stop Newton, not steer it
        bands = elliptic._jacobian_bands
        monkeypatch.setattr(elliptic, "_jacobian_bands", lambda op, u: tuple(-b for b in bands(op, u)))
        exact = catenoid_exact(catenoid_op.grid.nodes)
        prob = DirichletProblem(catenoid_op, np.zeros(len(catenoid_op.grid)), (0.0, float(exact[-1])))
        with pytest.raises(NewtonStagnationError, match="not definite"):
            newton_solve(prob)

    def test_constant_solution(self, catenoid_op):
        prob = DirichletProblem(catenoid_op, np.zeros(len(catenoid_op.grid)), (0.8, 0.8))
        u = newton_solve(prob)
        assert np.all(u.values == 0.8)

    def test_hyperbolic_cmc(self, hyperbolic_model):
        grid = Grid.uniform(0.5, 4.0, 701)
        op = MeshOperator.from_model(hyperbolic_model, grid)
        slope = lambda t: np.tanh(t / 2.0) / np.sqrt(1.0 + np.tanh(t / 2.0) ** 2)
        top = quad(slope, 0.5, 4.0, 1e-13)
        u = newton_solve(DirichletProblem(op, np.ones(len(grid)), (0.0, top)))
        mid = len(grid) // 2
        exact_mid = quad(slope, 0.5, float(grid.nodes[mid]), 1e-13)
        assert abs(u.values[mid] - exact_mid) <= 1e-6

    def test_second_order_accuracy(self, euclid_annulus):
        # the grids from 3201 nodes up reach the eps/ds^2 rounding floor above
        # tol = 1e-9; the solve must return there, still second order
        def err(n):
            grid = Grid.uniform(1.0, 2.0, n)
            op = MeshOperator.from_model(euclid_annulus, grid)
            exact = catenoid_exact(grid.nodes)
            u = newton_solve(DirichletProblem(op, np.zeros(n), (0.0, float(exact[-1]))))
            return float(np.max(np.abs(u.values - exact)))

        errs = [err(n) for n in (401, 801, 1601, 3201, 6401)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.5

    @pytest.mark.parametrize("kind", ["cmc", "maximal"])
    @pytest.mark.parametrize("family, m", MODEL_FAMILIES)
    @given(scale=st.floats(0.5, 2.0), h_ell=st.floats(0.05, 0.3), flux=st.floats(0.0, 1.0))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_matches_radial_graph_on_every_family(self, family, m, kind, scale, h_ell, flux):
        # solve_radial_graph reaches the same equation through its first integral: the oracle for
        # the q = h coefficient on warped models.  CMC graphs take H ell in [0.05, 0.3] and anchor
        # flux factor f in [-0.5, 0]; maximal graphs f in [0.3, 0.7], where F0 = f w h at the anchor
        # makes the anchor slope f/sqrt(1 + f^2).  C = 0.1 is the largest err/ell over (ds/ell)^2
        # seen in 1050 draws on this ladder (0.089, hyperbolic m = 3), rounded up.
        model, ell, a, b = family_model(family, m, scale)
        H = 0.0 if kind == "maximal" else h_ell / ell
        at_a = model.sample(np.array([a]))
        f = 0.3 + 0.4 * flux if kind == "maximal" else -0.5 * flux
        anchor = Anchor.point(a, 0.0, f * float(at_a.w[0] * at_a.h[0]))
        errs = []
        for n in (401, 801, 1601):
            grid = Grid.uniform(a, b, n)
            graph = solve_radial_graph(model, constant_H(H) if H else zero_H(), anchor, grid)
            op = MeshOperator.from_model(model, grid)
            rhs = m * H * model.sample(grid.nodes).h
            u = newton_solve(DirichletProblem(op, rhs, (graph.tau[0], graph.tau[-1])))
            errs.append(float(np.max(np.abs(u.values - graph.tau))))
            assert errs[-1] / ell <= 0.1 * ((b - a) / (n - 1) / ell) ** 2
            # the telescope sums flux-sized terms: 1e-12 relative to the largest flux
            assert divergence_telescope(op, u, rhs) <= 1e-12 * max(1.0, float(np.max(np.abs(graph.flux))))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all((ratios >= 3.9) & (ratios <= 4.1)), ratios

    def test_returns_at_rounding_floor(self, euclid_annulus, monkeypatch):
        n = 3201
        grid = Grid.uniform(1.0, 2.0, n)
        op = MeshOperator.from_model(euclid_annulus, grid)
        exact = catenoid_exact(grid.nodes)
        calls = []

        def counting_residual(*args, **kwargs):
            calls.append(1)
            return residual(*args, **kwargs)

        monkeypatch.setattr(elliptic, "residual", counting_residual)
        u = newton_solve(DirichletProblem(op, np.zeros(n), (0.0, float(exact[-1]))))
        ds = 1.0 / (n - 1)
        assert len(calls) <= 10
        assert np.max(np.abs(u.values - exact)) <= 1e-2 * ds * ds + 1e-9

    def test_non_spacelike_bc_rejected(self, catenoid_op):
        prob = DirichletProblem(catenoid_op, np.zeros(len(catenoid_op.grid)), (0.0, 2.0))
        with pytest.raises(ValueError, match="spacelike"):
            newton_solve(prob)

    def test_continuation_with_tight_budget(self, hyperbolic_model):
        # the cold start needs 17 iterations here; a 14-iteration budget forces
        # the load continuation, which succeeds with warm starts
        grid = Grid.uniform(0.5, 4.0, 701)
        op = MeshOperator.from_model(hyperbolic_model, grid)
        prob = DirichletProblem(op, 6.0 * np.ones(len(grid)), (0.0, 0.0))
        u = newton_solve(prob, tol=1e-7, max_iter=14)
        assert np.max(np.abs(residual(op, u.values, prob.rhs))) <= 1e-7

    def test_stagnation_reported(self, hyperbolic_model):
        grid = Grid.uniform(0.5, 4.0, 701)
        op = MeshOperator.from_model(hyperbolic_model, grid)
        prob = DirichletProblem(op, 6.0 * np.ones(len(grid)), (0.0, 0.0))
        with pytest.raises(NewtonStagnationError, match="no convergence in 3 iterations"):
            newton_solve(prob, tol=1e-7, max_iter=3)

    def test_tolerance_below_floor_returns(self, hyperbolic_model):
        # tol = 1e-13 lies below this problem's rounding floor: the solve
        # returns the iterate where descent stops instead of raising
        grid = Grid.uniform(0.5, 4.0, 701)
        op = MeshOperator.from_model(hyperbolic_model, grid)
        prob = DirichletProblem(op, 6.0 * np.ones(len(grid)), (0.0, 0.0))
        u = newton_solve(prob, tol=1e-13, max_iter=200)
        assert np.max(np.abs(residual(op, u.values, prob.rhs))) <= 1e-7
        ref = newton_solve(prob, tol=1e-7)
        assert np.max(np.abs(u.values - ref.values)) <= 1e-12

    def test_monotone_ellipticity(self, catenoid_op):
        # raising one interior value strictly lowers its own residual entry
        # (the facewise coercivity Phi' > 0; the operator is monotone)
        u = catenoid_exact(catenoid_op.grid.nodes)
        r0 = residual(catenoid_op, u, np.zeros(len(catenoid_op.grid)))
        k = 200
        u2 = u.copy()
        u2[k] += 1e-4
        r1 = residual(catenoid_op, u2, np.zeros(len(catenoid_op.grid)))
        assert r1[k - 1] < r0[k - 1]


def clip_step_reference(op, u, delta_interior):
    """Face-by-face largest step fraction keeping |slope| within the cap."""
    delta = np.concatenate([[0.0], delta_interior, [0.0]])
    s = op.grid.nodes
    alpha = 1.0
    for i in range(len(s) - 1):
        ds = s[i + 1] - s[i]
        du = (u[i + 1] - u[i]) / ds
        dd = (delta[i + 1] - delta[i]) / ds
        c = op.slope_cap / op.q_faces[i]
        if dd == 0.0:
            continue
        hi = max((c - du) / dd, (-c - du) / dd)
        alpha = min(alpha, hi if hi > 0 else 0.0)
    return max(min(alpha, 1.0), 0.0)


class TestClipStep:
    def test_matches_reference_on_random_states(self, catenoid_op):
        rng = np.random.default_rng(11)
        n = len(catenoid_op.grid)
        ds = np.diff(catenoid_op.grid.nodes)
        cap = catenoid_op.slope_cap / catenoid_op.q_faces
        for scale in (1e-6, 1e-3, 1e-1, 1.0, 10.0):
            for _ in range(25):
                u = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.9, 0.9) * cap * ds)])
                delta = scale * rng.normal(size=n - 2)
                flat = rng.integers(1, n - 12)
                delta[flat:flat + 10] = delta[flat]  # a run of faces with dd == 0
                got = _clip_step(catenoid_op, u, delta)
                assert got == clip_step_reference(catenoid_op, u, delta)

    def test_face_at_cap_blocks_outward_step(self, catenoid_op):
        n = len(catenoid_op.grid)
        ds = np.diff(catenoid_op.grid.nodes)
        cap = catenoid_op.slope_cap / catenoid_op.q_faces
        u = np.concatenate([[0.0], np.cumsum(0.5 * cap * ds)])
        u[101:] += (cap[100] - 0.5 * cap[100]) * ds[100]  # face 100 sits at the cap
        delta = np.zeros(n - 2)
        delta[100:] = 1e-3  # steepens face 100; the last face only flattens
        expected = clip_step_reference(catenoid_op, u, delta)
        assert expected < 1e-9
        assert _clip_step(catenoid_op, u, delta) == expected

    def test_zero_step_is_unclipped(self, catenoid_op):
        u = catenoid_exact(catenoid_op.grid.nodes)
        assert _clip_step(catenoid_op, u, np.zeros(len(catenoid_op.grid) - 2)) == 1.0


class TestComparison:
    def test_equal_functions(self, catenoid_op):
        u = catenoid_exact(catenoid_op.grid.nodes)
        rep = comparison_check(catenoid_op, u, u)
        assert rep.verdict

    def test_ordered_translates(self, catenoid_op):
        u = catenoid_exact(catenoid_op.grid.nodes)
        rep = comparison_check(catenoid_op, u, u - 0.1)
        assert rep.verdict and rep.margin == pytest.approx(0.1)

    def test_ordering_violation_is_precondition_failure(self, catenoid_op):
        u = catenoid_exact(catenoid_op.grid.nodes)
        s = catenoid_op.grid.nodes
        v = u + 0.05 * np.sin(np.pi * (s - 1.0)) ** 2
        rep = comparison_check(catenoid_op, u, v)
        assert rep.status == "precondition-failure"
        assert not rep.verdict

    def test_cap_violation_is_precondition_failure(self, catenoid_op):
        u = catenoid_exact(catenoid_op.grid.nodes)
        v = u.copy()
        v[100] += 1.0
        rep = comparison_check(catenoid_op, u, v)
        assert rep.status == "precondition-failure"


def test_csv_round_trip(tmp_path, catenoid_op):
    exact = catenoid_exact(catenoid_op.grid.nodes)
    rhs = np.zeros(len(catenoid_op.grid))
    path = tmp_path / "solution.csv"
    export_solution_csv(catenoid_op, exact, rhs, path)
    assert path.read_text().splitlines()[0] == "s,u"
    s, u = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.allclose(s, catenoid_op.grid.nodes)
    assert np.allclose(u, exact)
    assert (tmp_path / "solution.csv.meta.txt").exists()
