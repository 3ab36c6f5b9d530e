import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticlab import barriers, numerics
from staticlab.geometry import (
    RadialBase,
    StaticModel,
    _SchwarzschildChart,
    schwarzschild_profile,
    schwarzschild_warp,
)
from staticlab.numerics import (
    Antiderivative,
    Grid,
    QuadratureError,
    SampledFunction,
    brentq,
    cumulative_order3,
    cumulative_quad,
    fd_derivative,
    quad,
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


def _chart_increments(nodes):
    """Integrals of the mu = 1e-3, m = 5 chart integrand between nodes, by QUADPACK."""
    from scipy import integrate

    f = _SchwarzschildChart(1e-3, 5).table.fn
    return np.array([
        integrate.quad(lambda w: float(f(w)), a, b, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for a, b in zip(nodes[:-1], nodes[1:])
    ])


class TestQuad:
    def test_linear_exact(self):
        assert quad(lambda x: x, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-13)

    def test_zero_integrand(self):
        assert quad(lambda x: np.zeros_like(x), 0.0, 1.0) == 0.0

    def test_exponential(self):
        assert quad(lambda x: np.exp(x), 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-7)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            quad(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            quad(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(QuadratureError) as exc:
            quad(lambda x: np.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0, tol=1e-15)
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
        "f, nodes, oracle",
        [
            # chart integrand across the horizon transition, on a grid far too coarse for it;
            # oracle: QUADPACK per interval
            (_SchwarzschildChart(1e-3, 5).table.fn, np.linspace(0.0, 2.0, 9), _chart_increments),
            # sharp peak between two nodes; oracle: the arctan antiderivative
            (lambda x: 1.0 / (1.0 + ((x - 0.537) / 1e-3) ** 2), np.linspace(0.0, 1.0, 11),
             lambda nodes: np.diff(1e-3 * np.arctan((nodes - 0.537) / 1e-3))),
        ],
        ids=["chart-near-horizon", "peak-between-nodes"],
    )
    def test_cumulative_fallback_matches_oracle(self, f, nodes, oracle):
        tol = 1e-13
        counted = self._counted(f)
        inc = np.diff(cumulative_quad(counted, nodes, tol=tol))
        ref = oracle(nodes)
        thresh = np.maximum(tol, tol * np.abs(ref))
        assert np.all(np.abs(inc - ref) <= thresh)
        # four calls for the two-panel check, then one per refinement level
        assert 4 < counted.calls <= 4 + numerics._MAX_QUAD_DEPTH

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
        assert counted.calls <= 4 + 4 * numerics._MAX_QUAD_DEPTH

    def test_cumulative_order3_rate(self):
        def err(n):
            s = np.linspace(1.0, 2.0, n + 1)
            out = cumulative_order3(1.0 / np.sqrt(1.0 + s * s), s)
            return np.max(np.abs(out - (np.arcsinh(s) - np.arcsinh(1.0))))

        assert err(400) / err(800) >= 8.0

    def test_cumulative_order3_exact_for_quadratics(self):
        rng = np.random.default_rng(5)
        s = np.cumsum(rng.uniform(0.01, 0.2, 400))  # non-uniform, neighbouring ratios up to 20
        y = 0.3 - 1.7 * s + 2.5 * s * s
        exact = (0.3 * s - 0.85 * s**2 + 2.5 / 3.0 * s**3) - (0.3 * s[0] - 0.85 * s[0] ** 2 + 2.5 / 3.0 * s[0] ** 3)
        out = cumulative_order3(y, s)
        np.testing.assert_allclose(out[1:], exact[1:], rtol=1e-13, atol=0.0)
        assert out[0] == 0.0

    def test_cumulative_order3_prefix_is_bitwise(self):
        # each increment reads its own three nodes and the sum is sequential: the beta_1
        # root solve of the Schwarzschild barrier integrates a prefix and relies on this
        rng = np.random.default_rng(6)
        s = np.cumsum(rng.uniform(0.01, 0.2, 300))
        y = np.sin(3.0 * s) / (1.0 + s)
        full = cumulative_order3(y, s)
        for j in (2, 3, 17, 150, 298):
            np.testing.assert_array_equal(cumulative_order3(y[:j + 1], s[:j + 1]), full[:j + 1])

    def test_antiderivative(self):
        anti = Antiderivative(lambda x: np.exp(x), 0.0, 3.0)
        assert anti(1.7) == pytest.approx(math.exp(1.7) - 1.0, abs=1e-11)
        # extends itself past the initial range
        assert anti(5.0) == pytest.approx(math.exp(5.0) - 1.0, rel=1e-11)

    def test_node_values_evaluated_once(self):
        # smooth integrand, no refinement: one call on the nodes, three on the quarter points
        nodes = np.linspace(0.0, 1.0, 2049)
        counted = self._counted(lambda x: np.exp(x))
        cumulative_quad(counted, nodes)
        assert counted.calls == 4
        counted = self._counted(lambda x: np.exp(x))
        anti = Antiderivative(counted, 0.0, 1.0)
        assert counted.calls == 4
        np.testing.assert_array_equal(anti.f_nodes, np.exp(anti.nodes))
        np.testing.assert_array_equal(anti.values, cumulative_quad(lambda x: np.exp(x), anti.nodes))

    def test_dropped_chart_is_freed_without_gc(self):
        # the chart's integrand must not refer back to the chart: a cycle would keep
        # charts evicted from the cache alive until the cyclic collector runs
        gc.disable()
        try:
            chart = _SchwarzschildChart(1.0, 3)
            chart.rho_of_s(np.linspace(0.5, 200.0, 9))
            ref = weakref.ref(chart)
            del chart
            assert ref() is None
        finally:
            gc.enable()


def _old_chart_integrand(mu, m, rho_s):
    """The chart integrand as first written: both np.where passes on every call."""
    vp0 = 2.0 * mu * (m - 2) * rho_s ** (1 - m)

    def integrand(w):
        w = np.asarray(w, dtype=float)
        tiny = w < 1e-120
        wsafe = np.where(tiny, 1.0, w)
        v = -np.expm1((2 - m) * np.log1p(wsafe * wsafe / rho_s))
        return np.where(tiny, 2.0 / np.sqrt(vp0), 2.0 * wsafe / np.sqrt(v))

    return integrand


def _old_forward(table, fn, x, fx):
    """Antiderivative's forward map as first written: it searches the nodes for x."""
    idx = np.clip(np.searchsorted(table.nodes, x, side="right") - 1, 0, table.nodes.size - 2)
    lo = table.nodes[idx]
    h = x - lo
    f1 = fn(lo + 0.25 * h)
    f2 = fn(lo + 0.5 * h)
    f3 = fn(lo + 0.75 * h)
    inc = h * (table.f_nodes[idx] + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + fx) / 12.0
    return table.values[idx] + inc


class TestChartInverseParity:
    """The chart's table and forward map are bitwise those of the first implementation."""

    @pytest.mark.parametrize("mu, m", [(1.0, 3), (0.7, 4), (1.3, 5)])
    def test_bitwise_equal(self, mu, m):
        chart = _SchwarzschildChart(mu, m)
        table, old_fn = chart.table, _old_chart_integrand(mu, m, chart.rho_s)
        np.testing.assert_array_equal(table.f_nodes, old_fn(table.nodes))
        np.testing.assert_array_equal(table.values, cumulative_quad(old_fn, table.nodes, tol=1e-14))

        nodes = table.nodes
        rng = np.random.default_rng(m)
        queries = {
            "nodes": nodes.copy(),
            "below nodes": np.nextafter(nodes[1:], -np.inf),
            "last interval": np.linspace(nodes[-2], nodes[-1], 17),
            "interior": np.sort(rng.uniform(nodes[1], nodes[-1], 5000)),
            "tiny and interior": np.array([0.0, 1e-300, 1e-200, 1e-130, 0.5, nodes[-1]]),
            "tiny only": np.array([0.0, 1e-300, 1e-200]),
        }
        for name, x in queries.items():
            np.testing.assert_array_equal(table(x), _old_forward(table, old_fn, x, old_fn(x)), err_msg=name)

        w = np.array([0.0, 1e-300, 1e-121, 1e-120, 1e-60, 1e-3, 0.5, 3.0])
        np.testing.assert_array_equal(table.fn(w), old_fn(w))
        np.testing.assert_array_equal(table.fn(w[3:]), old_fn(w[3:]))

    @pytest.mark.parametrize("mu, m", [(1.0, 3), (0.7, 4), (1.3, 5)])
    def test_model_sample_matches_first_formulas(self, mu, m):
        rho_s = (2.0 * mu) ** (1.0 / (m - 2))
        s_max = float(_SchwarzschildChart(mu, m).s_of_rho(40.0 * rho_s))
        model = StaticModel(RadialBase(m, schwarzschild_profile(mu, m), (0.01, s_max)), schwarzschild_warp(mu, m))
        s = np.linspace(0.01, s_max, 3001)
        smp = model.sample(s)
        rho = _SchwarzschildChart(mu, m).rho_of_s(s)
        sqrt_v = np.sqrt(1.0 - 2.0 * mu * rho ** (2 - m))
        np.testing.assert_array_equal(smp.g, rho)
        np.testing.assert_array_equal(smp.gp, sqrt_v)
        np.testing.assert_array_equal(smp.gpp, mu * (m - 2) * rho ** (1 - m))
        np.testing.assert_array_equal(smp.h, sqrt_v)
        np.testing.assert_array_equal(smp.dh, mu * (m - 2) * rho ** (1 - m))
        np.testing.assert_array_equal(smp.d2h, -mu * (m - 2) * (m - 1) * rho ** (-m) * sqrt_v)
        # the memoised factors are handed out as fresh arrays
        for field in smp:
            field[:] = 0.0
        np.testing.assert_array_equal(model.sample(s).h, sqrt_v)


def _counting(f):
    def counted(x):
        counted.calls += 1
        return f(x)

    counted.calls = 0
    return counted


class TestBrentq:
    """Brent's method as ported: the same roots, bitwise, as scipy's brentq, after no more calls."""

    CASES = {
        "smooth": (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12),
        "cosine": (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12),
        "steep": (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0, 1e-12),
        "exponential": (lambda x: math.exp(x) - 5.0, -3.0, 4.0, 1e-14),
        "flat cubic": (lambda x: (x - 0.7) ** 3, 0.0, 3.0, 1e-6),
        "flat cubic, linear term": (lambda x: (x - 0.7) ** 3 + 1e-3 * (x - 0.7), 0.0, 3.0, 1e-12),
        "quartic root": (lambda x: math.copysign(abs(x - 0.4) ** 0.25, x - 0.4), 0.0, 1.0, 1e-12),
        "root at a": (lambda x: x, 0.0, 1.0, 1e-12),
        "root at b": (lambda x: x - 1.0, 0.0, 1.0, 1e-12),
    }

    @staticmethod
    def _assert_parity(f, a, b, xtol):
        from scipy.optimize import brentq as scipy_brentq

        ours, theirs = _counting(f), _counting(f)
        root = brentq(ours, a, b, xtol=xtol)
        expected = scipy_brentq(theirs, a, b, xtol=xtol)
        assert type(root) is float
        assert root == expected and math.copysign(1.0, root) == math.copysign(1.0, expected)
        assert ours.calls <= theirs.calls
        return root

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_scipy(self, name):
        self._assert_parity(*self.CASES[name])

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 5.0),
        st.floats(0.1, 20.0),
        st.sampled_from([1e-12, 1e-6, 1e-2, 0.3]),
    )
    def test_matches_scipy_drawn(self, root, curve, scale, xtol):
        # cubic and exponential terms bend the secant; loose tolerances test the minimum step
        self._assert_parity(
            lambda x: math.expm1(scale * (x - root)) + curve * (x - root) ** 3, -3.0, 3.0, xtol
        )

    def test_barrier_shift_matches_scipy(self, monkeypatch):
        solves = []

        def recording(f, a, b, xtol):
            solves.append((f, a, b, xtol))
            return brentq(f, a, b, xtol)

        monkeypatch.setattr(barriers, "brentq", recording)
        built = barriers.build_barrier_schwarzschild(1.0, 3, 3.0, 6.0, beta=0.1, H0=0.2, rho_max=40.0, n=1601)
        assert len(solves) == 1  # height_at_control - beta on the bracket [lo, 0]
        root = self._assert_parity(*solves[0])
        assert built.beta1 == root < 0.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_iteration_cap_raises(self):
        # scipy also stops here: the fifth-order flat bottom needs more than 100 steps at xtol 1e-12
        from scipy.optimize import brentq as scipy_brentq

        f = lambda x: (x - 0.7) ** 5  # noqa: E731
        with pytest.raises(RuntimeError):
            scipy_brentq(f, 0.0, 3.0, xtol=1e-12)
        with pytest.raises(RuntimeError, match="after 100 iterations"):
            brentq(f, 0.0, 3.0, xtol=1e-12)


def test_fd_derivative_fourth_order():
    def err(n):
        s = np.linspace(0.0, 3.0, n + 1)
        d = fd_derivative(np.sin(s), s[1] - s[0])
        return np.max(np.abs(d - np.cos(s)))

    assert err(200) / err(400) > 12.0
