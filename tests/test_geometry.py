import math

import numpy as np
import pytest

from staticlab.geometry import (
    DomainError,
    _SchwarzschildChart,
    RadialBase,
    StaticModel,
    admissible_G0,
    base_curvature,
    constant_warp,
    curvature_sample,
    custom_profile,
    custom_profile_from_csv,
    custom_warp,
    eval_profile,
    euclidean_profile,
    hyperbolic_profile,
    modified_bakry_emery,
    radial_hessian,
    schwarzschild_profile,
    schwarzschild_rho_of_s,
    schwarzschild_s_of_rho,
    schwarzschild_warp,
    spacetime_ricci,
)


def closed_form_s(rho):
    # mu = 1, m = 3: s = 2w + 2 sinh(w) cosh(w) at cosh^2 w = rho/2
    w = math.acosh(math.sqrt(rho / 2.0))
    return 2.0 * w + 2.0 * math.sinh(w) * math.cosh(w)


class TestSchwarzschildChart:
    def test_closed_form(self):
        for rho in (3.0, 4.0, 10.0):
            assert schwarzschild_s_of_rho(1.0, 3, rho) == pytest.approx(closed_form_s(rho), abs=1e-6)

    def test_spec_value(self):
        assert schwarzschild_s_of_rho(1.0, 3, 4.0) == pytest.approx(4.5911743, abs=1e-6)

    def test_horizon_limit(self):
        assert 0.0 < schwarzschild_s_of_rho(1.0, 3, 2.0 + 1e-8) < 1e-3

    def test_inside_horizon(self):
        with pytest.raises(DomainError, match="horizon"):
            schwarzschild_s_of_rho(1.0, 3, 1.9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(2.05, 60.0, 40)
        back = schwarzschild_rho_of_s(1.0, 3, schwarzschild_s_of_rho(1.0, 3, rho))
        assert np.max(np.abs(back - rho) / rho) <= 1e-9

    def test_round_trip_other_dimension(self):
        rho = 7.3
        s = schwarzschild_s_of_rho(0.7, 4, rho)
        assert schwarzschild_rho_of_s(0.7, 4, s) == pytest.approx(rho, rel=1e-9)

    def test_round_trip_after_table_growth(self):
        s = np.linspace(0.5, 30.0, 7)
        chart = _SchwarzschildChart(1.0, 3)
        chart.rho_of_s(s)
        nodes_before = chart._w_nodes.size
        far = chart.s_of_rho(np.array([2.0e3, 1.0e4]))  # grows the table past its initial range
        assert chart._w_nodes.size > nodes_before
        again = chart.rho_of_s(s)
        np.testing.assert_allclose(chart.s_of_rho(again), s, rtol=1e-12)
        np.testing.assert_allclose(chart.rho_of_s(far), [2.0e3, 1.0e4], rtol=1e-12)
        # a chart grown first gives the same bits: nothing from the old table survived
        fresh = _SchwarzschildChart(1.0, 3)
        fresh.s_of_rho(np.array([2.0e3, 1.0e4]))
        np.testing.assert_array_equal(again, fresh.rho_of_s(s))

    def test_memoised_inverse_is_not_aliased(self):
        chart = _SchwarzschildChart(0.7, 4)
        s = np.linspace(0.3, 9.0, 11)
        expected = _SchwarzschildChart(0.7, 4).rho_of_s(s)
        first = chart.rho_of_s(s)
        second = chart.rho_of_s(s)  # served from the memo
        first[:] = 0.0  # callers scribble on their results
        second[:] = 0.0
        np.testing.assert_array_equal(chart.rho_of_s(s), expected)
        s *= 2.0  # caller reuses its input buffer
        np.testing.assert_array_equal(chart.rho_of_s(s), _SchwarzschildChart(0.7, 4).rho_of_s(s))


class TestProfiles:
    def test_hyperbolic_values(self):
        g, gp, gpp = hyperbolic_profile(1.0).evaluate(1.0)
        assert (g, gp, gpp) == pytest.approx((1.1752012, 1.5430806, 1.1752012), abs=1e-7)

    def test_euclidean(self):
        base = RadialBase(2, euclidean_profile(), (0.0, 10.0))
        assert eval_profile(base, 2.0) == pytest.approx((2.0, 1.0, 0.0))

    def test_schwarzschild_g_is_rho(self):
        base = RadialBase(3, schwarzschild_profile(1.0, 3), (0.1, 60.0))
        s4 = schwarzschild_s_of_rho(1.0, 3, 4.0)
        g, gp, gpp = eval_profile(base, s4)
        assert g == pytest.approx(4.0, abs=1e-9)
        assert gp == pytest.approx(math.sqrt(1.0 - 0.5), abs=1e-10)

    @pytest.mark.parametrize("mu, m", [(1.0, 3), (0.7, 4)])
    def test_schwarzschild_profile_and_warp_match_chart(self, mu, m):
        s = np.linspace(0.05, 40.0, 257)
        rho = _SchwarzschildChart(mu, m).rho_of_s(s)
        v = 1.0 - 2.0 * mu * rho ** (2 - m)
        g, gp, gpp = schwarzschild_profile(mu, m).evaluate(s)
        h, dh, d2h = schwarzschild_warp(mu, m).evaluate(s)
        for got, want in [
            (g, rho),
            (gp, np.sqrt(v)),
            (gpp, mu * (m - 2) * rho ** (1 - m)),
            (h, np.sqrt(v)),
            (dh, mu * (m - 2) * rho ** (1 - m)),
            (d2h, -mu * (m - 2) * (m - 1) * rho ** (-m) * np.sqrt(v)),
        ]:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_domain_error(self):
        base = RadialBase(2, euclidean_profile(), (0.0, 10.0))
        with pytest.raises(DomainError):
            eval_profile(base, 11.0)

    def test_derivatives_match_finite_differences(self):
        profiles = {
            "euclidean": (euclidean_profile(), (0.5, 12.0)),
            "hyperbolic": (hyperbolic_profile(0.8), (0.5, 8.0)),
            "schwarzschild": (schwarzschild_profile(1.0, 3), (1.0, 30.0)),
        }
        rng = np.random.default_rng(11)
        for name, (prof, (lo, hi)) in profiles.items():
            s = rng.uniform(lo, hi, 100)
            g, gp, gpp = prof.evaluate(s)
            d = 1e-5  # first derivative: truncation and roundoff both below 1e-6
            gp_fd = (prof.evaluate(s + d)[0] - prof.evaluate(s - d)[0]) / (2 * d)
            assert np.max(np.abs(gp - gp_fd) / np.maximum(1.0, np.abs(gp))) < 1e-6, name
            d = 1e-3  # second difference needs a larger step to beat eps/d^2 noise
            gpp_fd = (prof.evaluate(s + d)[0] - 2 * g + prof.evaluate(s - d)[0]) / d**2
            assert np.max(np.abs(gpp - gpp_fd) / np.maximum(1.0, np.abs(gpp))) < 1e-6, name

    def test_custom_profile_matches_table(self):
        s = np.linspace(0.1, 5.0, 200)
        prof = custom_profile(s, np.sinh(s))
        g, gp, _ = prof.evaluate(2.0)
        assert g == pytest.approx(math.sinh(2.0), abs=1e-8)
        assert gp == pytest.approx(math.cosh(2.0), abs=1e-5)

    def test_custom_profile_csv(self, tmp_path):
        s = np.linspace(0.1, 5.0, 100)
        path = tmp_path / "profile.csv"
        with open(path, "w") as fh:
            fh.write("s,g\n")
            for a, b in zip(s, np.sinh(s)):
                fh.write(f"{float(a)!r},{float(b)!r}\n")
        prof = custom_profile_from_csv(path)
        assert prof.evaluate(1.0)[0] == pytest.approx(math.sinh(1.0), abs=1e-7)

    def test_custom_profile_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            custom_profile_from_csv(path)


class TestBaseValidation:
    def test_schwarzschild_needs_annulus(self):
        with pytest.raises(ValueError, match="annulus"):
            RadialBase(3, schwarzschild_profile(1.0, 3), (0.0, 10.0))

    def test_dimension(self):
        with pytest.raises(ValueError):
            RadialBase(1, euclidean_profile(), (0.0, 10.0))


class TestCurvature:
    def test_hyperbolic_space_form(self):
        base = RadialBase(2, hyperbolic_profile(1.0), (0.0, 10.0))
        for s in (0.3, 1.0, 4.0):
            cs = base_curvature(base, s)
            assert cs.K_rad == pytest.approx(-1.0, abs=1e-12)
            assert cs.K_tan == pytest.approx(-1.0, abs=1e-10)
            assert cs.ric_rr == pytest.approx(-1.0, abs=1e-12)

    def test_euclidean_flat(self):
        base = RadialBase(3, euclidean_profile(), (0.0, 10.0))
        cs = base_curvature(base, 2.0)
        assert cs.K_rad == cs.K_tan == cs.ric_rr == cs.ric_tt == 0.0

    def test_scalar_consistency(self):
        base = RadialBase(3, schwarzschild_profile(1.0, 3), (0.5, 40.0))
        for s in (2.0, 5.0, 20.0):
            assert base_curvature(base, s).scalar_consistency(3) < 1e-9

    def test_pole_smoothness(self):
        for prof in (euclidean_profile(), hyperbolic_profile(1.3)):
            base = RadialBase(2, prof, (0.0, 5.0))
            cs = base_curvature(base, 1e-3)
            assert abs(cs.K_tan - cs.K_rad) < 1e-4


class TestRadialHessian:
    def test_square(self):
        base = RadialBase(3, euclidean_profile(), (0.0, 10.0))
        hrr, htt, lap = radial_hessian(base, lambda s: 2 * s, lambda s: 2.0, 1.5)
        assert (hrr, htt, lap) == pytest.approx((2.0, 2.0, 6.0))

    def test_constant(self):
        base = RadialBase(2, hyperbolic_profile(1.0), (0.0, 10.0))
        assert radial_hessian(base, lambda s: 0.0, lambda s: 0.0, 1.0) == (0.0, 0.0, 0.0)

    def test_cosh_on_hyperbolic(self):
        base = RadialBase(2, hyperbolic_profile(1.0), (0.0, 10.0))
        _, _, lap = radial_hessian(base, math.sinh, math.cosh, 1.0)
        assert lap == pytest.approx(2.0 * math.cosh(1.0), abs=1e-10)
        assert lap == pytest.approx(3.0861613, abs=1e-6)


class TestSpacetimeRicci:
    def test_hyperbolic_product(self, hyperbolic_model):
        for s in (0.5, 1.0, 3.0):
            r = spacetime_ricci(hyperbolic_model, s)
            assert r.hor_rad == pytest.approx(-1.0, abs=1e-10)
            assert r.hor_tan == pytest.approx(-1.0, abs=1e-10)
            assert r.vert == 0.0

    def test_euclidean_product_flat(self, euclid_model):
        r = spacetime_ricci(euclid_model, 2.0)
        assert r.hor_rad == r.hor_tan == r.vert == 0.0

    def test_schwarzschild_vacuum(self, schwarzschild_model):
        rng = np.random.default_rng(5)
        for rho in rng.uniform(2.1, 50.0, 20):
            s = schwarzschild_s_of_rho(1.0, 3, float(rho))
            r = spacetime_ricci(schwarzschild_model, s)
            assert abs(r.hor_rad) <= 1e-8
            assert abs(r.hor_tan) <= 1e-8
            assert abs(r.vert) <= 1e-8

    def test_vacuum_other_dimensions(self):
        for mu, m in ((0.5, 4), (2.0, 5)):
            base = RadialBase(m, schwarzschild_profile(mu, m), (0.3, 40.0))
            model = StaticModel(base, schwarzschild_warp(mu, m))
            rho_s = (2 * mu) ** (1.0 / (m - 2))
            s = schwarzschild_s_of_rho(mu, m, rho_s + 2.0)
            r = spacetime_ricci(model, s)
            assert max(abs(r.hor_rad), abs(r.hor_tan), abs(r.vert)) <= 1e-8

    def test_custom_warp_consistency(self):
        base = RadialBase(2, hyperbolic_profile(1.0), (0.0, 10.0))
        warp = custom_warp(
            lambda s: 1.0 + 0.3 * np.exp(-np.asarray(s, dtype=float)),
            lambda s: -0.3 * np.exp(-np.asarray(s, dtype=float)),
            lambda s: 0.3 * np.exp(-np.asarray(s, dtype=float)),
        )
        model = StaticModel(base, warp)
        cs = curvature_sample(model, 1.5)
        h, dh, d2h = warp.evaluate(1.5)
        assert cs.hessh_rr == pytest.approx(d2h)
        assert cs.laph == pytest.approx(d2h + (math.cosh(1.5) / math.sinh(1.5)) * dh)


class TestBakryEmery:
    def test_hyperbolic_minimal_constant(self, hyperbolic_model):
        rad, tan = modified_bakry_emery(hyperbolic_model, 1.0)
        assert (rad, tan) == pytest.approx((-1.0, -1.0), abs=1e-10)
        assert admissible_G0(hyperbolic_model, [0.5, 1.0, 2.0]) == pytest.approx(0.5, abs=1e-10)

    def test_euclidean_zero(self, euclid_model):
        assert modified_bakry_emery(euclid_model, 1.0) == pytest.approx((0.0, 0.0))
        assert admissible_G0(euclid_model, [1.0]) == 0.0

    def test_schwarzschild_vacuum_identity(self, schwarzschild_model):
        s = schwarzschild_s_of_rho(1.0, 3, 4.0)
        rad, tan = modified_bakry_emery(schwarzschild_model, s)
        assert abs(rad) <= 1e-8 and abs(tan) <= 1e-8


def test_lorentzian_product_flag(hyperbolic_model, schwarzschild_model):
    assert hyperbolic_model.lorentzian_product
    assert not schwarzschild_model.lorentzian_product
