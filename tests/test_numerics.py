import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticlab import numerics
from staticlab.geometry import _SchwarzschildChart
from staticlab.numerics import (
    Antiderivative,
    Grid,
    OdeBlowUpError,
    QuadratureError,
    SampledFunction,
    cumulative_order3,
    cumulative_quad,
    fd_derivative,
    ode_solve,
    quad,
    sym_eigen,
    tridiag_solve,
)


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(0.0, 1.0, 11)
        assert len(g) == 11 and g.a == 0.0 and g.b == 1.0

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            Grid(np.linspace(0, 1, 5))

    def test_not_increasing(self):
        nodes = np.linspace(0, 1, 12)
        nodes[4] = nodes[6]
        with pytest.raises(ValueError):
            Grid(nodes)

    def test_nonfinite(self):
        nodes = np.linspace(0, 1, 12)
        nodes[3] = np.nan
        with pytest.raises(ValueError):
            Grid(nodes)

    def test_sampled_function_length_mismatch(self):
        g = Grid.uniform(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(7))

    def test_geometric_spacing(self):
        g = Grid.geometric(1.0, 16.0, 9)
        assert g.spacing_kind == "geometric"
        ratios = g.nodes[1:] / g.nodes[:-1]
        assert np.allclose(ratios, ratios[0])
        with pytest.raises(ValueError):
            Grid.geometric(0.0, 1.0, 9)

    def test_sampled_function_interpolates(self):
        g = Grid.uniform(0.0, 1.0, 11)
        f = SampledFunction(g, g.nodes**2)
        assert f(0.5) == pytest.approx(0.25, abs=1e-2)
        assert f(g.nodes[3]) == pytest.approx(g.nodes[3] ** 2, abs=1e-15)


class TestQuad:
    def test_linear_exact(self):
        assert quad(lambda x: x, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-13)

    def test_zero_integrand(self):
        assert quad(lambda x: 0.0, 0.0, 1.0) == 0.0

    def test_exponential(self):
        assert quad(lambda x: math.exp(x), 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-7)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            quad(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            quad(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(QuadratureError) as exc:
            quad(lambda x: math.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0, tol=1e-15)
        assert math.isfinite(exc.value.last_estimate)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.floats(-3, 3), st.floats(0.1, 3))
    @settings(max_examples=60, deadline=None)
    def test_cubic_exactness(self, coeffs, a, width):
        # Simpson with Richardson is exact for cubics on any interval
        b = a + width
        c0, c1, c2, c3 = coeffs
        f = lambda x: c0 + c1 * x + c2 * x * x + c3 * x**3
        exact = (
            c0 * (b - a)
            + c1 * (b * b - a * a) / 2
            + c2 * (b**3 - a**3) / 3
            + c3 * (b**4 - a**4) / 4
        )
        assert quad(f, a, b, 1e-10) == pytest.approx(exact, abs=1e-12 * max(1, abs(exact)))

    def test_cumulative_matches_quad(self):
        nodes = np.linspace(0.0, 2.0, 33)
        vals = cumulative_quad(lambda x: np.exp(x), nodes)
        assert vals[-1] == pytest.approx(math.exp(2.0) - 1.0, abs=1e-12)

    @staticmethod
    def _counted(f, max_points=10**6):
        def g(x):
            g.calls += 1
            g.points += np.size(x)
            assert g.points <= max_points, "integrand evaluated on too many points"
            return f(x)

        g.calls = 0
        g.points = 0
        return g

    @pytest.mark.parametrize(
        "f, nodes",
        [
            # chart integrand across the horizon transition, on a grid far too coarse for it
            (_SchwarzschildChart(1e-3, 5)._integrand, np.linspace(0.0, 2.0, 9)),
            # sharp peak between two nodes
            (lambda x: 1.0 / (1.0 + ((x - 0.537) / 1e-3) ** 2), np.linspace(0.0, 1.0, 11)),
        ],
        ids=["chart-near-horizon", "peak-between-nodes"],
    )
    def test_cumulative_fallback_matches_scalar_quad(self, f, nodes):
        tol = 1e-13
        counted = self._counted(f)
        inc = np.diff(cumulative_quad(counted, nodes, tol=tol))
        ref = np.array([
            quad(lambda x: float(f(np.asarray([x]))[0]), a, b, max(tol, tol * abs(i)))
            for a, b, i in zip(nodes[:-1], nodes[1:], inc)
        ])
        thresh = np.maximum(tol, tol * np.abs(ref))
        assert np.all(np.abs(inc - ref) <= thresh)
        # five calls for the two-panel check, then one per refinement level
        assert 5 < counted.calls <= 5 + numerics._MAX_QUAD_DEPTH

    def test_cumulative_fallback_batches_split(self, monkeypatch):
        nodes = np.linspace(0.0, 1.0, 11)

        def f(x):
            return 1.0 / (1.0 + ((x - 0.537) / 1e-3) ** 2)

        whole = cumulative_quad(f, nodes)
        monkeypatch.setattr(numerics, "_MAX_BATCH_PANELS", 3)
        split = cumulative_quad(f, nodes)
        np.testing.assert_allclose(split, whole, rtol=1e-14, atol=0.0)
        exact = 1e-3 * (np.arctan((nodes - 0.537) / 1e-3) - np.arctan(-0.537 / 1e-3))
        np.testing.assert_allclose(whole, exact, rtol=1e-12, atol=1e-12)

    def test_cumulative_nonintegrable_singularity_raises(self):
        c = 0.3 + 0.1 / 3.0  # between nodes, never a quadrature point
        counted = self._counted(lambda x: 1.0 / np.abs(x - c))
        with pytest.raises(QuadratureError):
            cumulative_quad(counted, np.linspace(0.0, 1.0, 11))
        # refined deepest first in capped batches: the stuck panel is found without
        # expanding every level, which would need memory growing geometrically with depth
        assert counted.calls <= 5 + 4 * numerics._MAX_QUAD_DEPTH

    def test_cumulative_order3_rate(self):
        def err(n):
            s = np.linspace(1.0, 2.0, n + 1)
            out = cumulative_order3(1.0 / np.sqrt(1.0 + s * s), s)
            return np.max(np.abs(out - (np.arcsinh(s) - np.arcsinh(1.0))))

        assert err(400) / err(800) >= 8.0

    def test_antiderivative(self):
        anti = Antiderivative(lambda x: np.exp(x), 0.0, 3.0)
        assert anti(1.7) == pytest.approx(math.exp(1.7) - 1.0, abs=1e-11)
        # extends itself past the initial range
        assert anti(5.0) == pytest.approx(math.exp(5.0) - 1.0, rel=1e-11)


class TestOde:
    def test_exponential(self):
        (y,) = ode_solve(lambda s, v: v, [1.0], (0.0, 1.0), 1e-3)
        assert y.values[-1] == pytest.approx(math.e, abs=1e-9)

    def test_constant(self):
        (y,) = ode_solve(lambda s, v: 0.0 * v, [3.7], (0.0, 1.0), 0.05)
        assert np.all(y.values == 3.7)

    def test_cosine(self):
        (y,) = ode_solve(lambda s, v: np.array([math.cos(s)]), [0.0], (0.0, math.pi / 2), 1e-3)
        assert y.values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_fourth_order(self):
        def final(step):
            (y,) = ode_solve(lambda s, v: v, [1.0], (0.0, 1.0), step)
            return abs(y.values[-1] - math.e)

        assert final(0.02) / final(0.01) >= 12.0  # 2^3 * 1.5

    def test_blowup_names_abscissa(self):
        def rhs(s, y):
            with np.errstate(over="ignore"):
                return y * y

        with pytest.raises(OdeBlowUpError) as exc:
            ode_solve(rhs, [3.0], (0.0, 2.0), 1e-3)
        assert 0.0 < exc.value.s <= 2.0


class TestSymEigen:
    def test_identity(self):
        assert np.allclose(sym_eigen(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(sym_eigen(np.diag([2.0, -1.0, -1.0])), [2.0, -1.0, -1.0])

    def test_offdiag(self):
        assert np.allclose(sym_eigen([[0.0, 1.0], [1.0, 0.0]]), [1.0, -1.0])

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            sym_eigen([[0.0, 1.0], [0.5, 0.0]])

    def test_too_large(self):
        with pytest.raises(ValueError):
            sym_eigen(np.eye(9))

    def test_trace_and_frobenius(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            lams = sym_eigen(a)
            assert np.sum(lams) == pytest.approx(np.trace(a), abs=1e-10)
            assert np.sum(lams**2) == pytest.approx(np.sum(a * a), abs=1e-9)


class TestTridiag:
    def test_identity(self):
        r = np.array([1.0, 2.0, 3.0, 4.0])
        x = tridiag_solve(np.zeros(3), np.ones(4), np.zeros(3), r)
        assert np.allclose(x, r)

    def test_second_difference(self):
        x = tridiag_solve([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0], [1.0, 1.0, 1.0])
        assert np.allclose(x, [1.5, 2.0, 1.5])

    def test_single_row(self):
        assert tridiag_solve([], [4.0], [], [8.0])[0] == 2.0

    def test_zero_pivot(self):
        with pytest.raises(ValueError, match="zero pivot"):
            tridiag_solve([1.0], [0.0, 1.0], [1.0], [1.0, 1.0])

    @given(st.integers(3, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_small(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)  # diagonally dominant
        rhs = rng.uniform(-10, 10, n)
        x = tridiag_solve(lower, diag, upper, rhs)
        res = diag * x
        res[:-1] += upper * x[1:]
        res[1:] += lower * x[:-1]
        assert np.max(np.abs(res - rhs)) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_fd_derivative_fourth_order():
    def err(n):
        s = np.linspace(0.0, 3.0, n + 1)
        d = fd_derivative(np.sin(s), s[1] - s[0])
        return np.max(np.abs(d - np.cos(s)))

    assert err(200) / err(400) > 12.0
