import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticlab import acceptance, tensors
from staticlab.geometry import (
    RadialBase,
    StaticModel,
    constant_warp,
    euclidean_profile,
    hyperbolic_profile,
    schwarzschild_s_of_rho,
)
from staticlab.tensors import (
    SymForm,
    coercivity_gap_batch,
    kulkarni_nomizu,
    project_a_tracefree_batch,
    pseudo_jacobi_gap_batch,
    sample_gradhess_batch,
    static_riemann,
)


def coercivity_gap(x, y) -> float:
    """One pair through the batch function."""
    return float(coercivity_gap_batch(np.atleast_2d(x), np.atleast_2d(y))[0])


def pseudo_jacobi_gap(u, hess, alpha) -> float:
    """One point through the batch function."""
    return float(pseudo_jacobi_gap_batch(np.atleast_2d(u), np.asarray(hess, dtype=float)[None], alpha)[0])


def project_a_tracefree(u, hess) -> np.ndarray:
    """One point through the batch function."""
    return project_a_tracefree_batch(np.atleast_2d(u), np.asarray(hess, dtype=float)[None])[0]


def newton_gap(lambdas) -> float:
    """(m-1) sum_{i>=2} lambda_i^2 - lambda_1^2 for a trace-free spectrum.

    lambda_1 is the entry of largest square; the zero-sum constraint is
    enforced to 1e-10.
    """
    lam = np.sort(np.asarray(lambdas, dtype=float))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if abs(np.sum(lam)) > 1e-10 * scale:
        raise ValueError("newton_gap: eigenvalues must sum to zero")
    order = np.lexsort((-lam, -lam**2))
    lam = lam[order]
    m = lam.size
    return float((m - 1) * np.sum(lam[1:] ** 2) - lam[0] ** 2)


def dense_metrics(us):
    """a_up = id + Theta^2 u(x)u and a_down = id - u(x)u as n x m x m arrays, with Theta^2."""
    eye = np.eye(us.shape[1])[None]
    uu = np.einsum("ni,nj->nij", us, us)
    th2 = 1.0 / (1.0 - np.sum(us * us, axis=1))
    return eye + th2[:, None, None] * uu, eye - uu, th2


def gradients_to_edge(seed, count, m):
    """Sampled gradients with every fourth one pushed out to |u| = 0.99."""
    us, _ = sample_gradhess_batch(seed, count, m)
    us[::4] *= 0.99 / np.linalg.norm(us[::4], axis=1)[:, None]
    return us


class TestKulkarniNomizu:
    def test_delta_delta_component(self):
        delta = SymForm(np.eye(2))
        t = kulkarni_nomizu(delta, delta)
        assert t.entries[0, 1, 0, 1] == pytest.approx(2.0)

    def test_repeated_slot_vanishes(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        alpha = SymForm(0.5 * (a + a.T))
        beta = SymForm(0.5 * (b + b.T))
        t = kulkarni_nomizu(alpha, beta).entries
        scale = np.max(np.abs(t))
        assert np.max(np.abs(t[0, 0, :, :])) <= 1e-15 * scale
        assert np.max(np.abs(t[:, :, 2, 2])) <= 1e-15 * scale

    def test_swap_first_pair_negates(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        alpha = SymForm(0.5 * (a + a.T))
        t = kulkarni_nomizu(alpha, SymForm(np.eye(4))).entries
        assert np.allclose(t, -t.transpose(1, 0, 2, 3))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        alpha = SymForm(0.5 * (a + a.T))
        beta = SymForm(0.5 * (b + b.T))
        assert np.allclose(kulkarni_nomizu(alpha, beta).entries,
                           kulkarni_nomizu(beta, alpha).entries)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kulkarni_nomizu(SymForm(np.eye(2)), SymForm(np.eye(3)))

    def test_symform_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymForm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStaticRiemann:
    def test_hyperbolic_product(self, hyperbolic_model):
        t = static_riemann(hyperbolic_model, 1.2)
        assert t.entries[0, 1, 0, 1] == pytest.approx(-1.0, abs=1e-10)
        m = hyperbolic_model.m
        assert np.max(np.abs(t.entries[m, :, :m, :m])) == 0.0

    def test_euclidean_zero(self, euclid_model):
        t = static_riemann(euclid_model, 2.0)
        assert np.max(np.abs(t.entries)) == 0.0

    def test_schwarzschild_vacuum_contraction(self, schwarzschild_model):
        s = schwarzschild_s_of_rho(1.0, 3, 4.0)
        t = static_riemann(schwarzschild_model, s)
        assert np.max(np.abs(t.ricci())) <= 1e-8

    def test_symmetries_and_contraction_random(self):
        from staticlab.acceptance import _sample_models
        from staticlab.geometry import spacetime_ricci

        rng = np.random.default_rng(99)
        for model, s in _sample_models(rng, 50):
            t = static_riemann(model, s)
            assert t.symmetry_residual() <= 1e-10
            ric = spacetime_ricci(model, s)
            mat = t.ricci()
            m = model.m
            assert mat[0, 0] == pytest.approx(ric.hor_rad, abs=1e-9)
            assert mat[1, 1] == pytest.approx(ric.hor_tan, abs=1e-9)
            assert mat[m, m] == pytest.approx(ric.vert_frame, abs=1e-9)


class TestCoercivity:
    def test_equal_vectors(self):
        assert coercivity_gap([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_one_dimensional(self):
        assert coercivity_gap([0.5], [-0.5]) == pytest.approx(1.1547005, abs=1e-7)

    def test_two_dimensional(self):
        # direct evaluation of the formula: 2 * 0.81 / sqrt(0.19)
        expected = 2.0 * 0.81 / math.sqrt(0.19)
        assert coercivity_gap([0.9, 0.0], [0.0, 0.9]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.7165349, abs=1e-6)

    def test_rejects_null_vectors(self):
        with pytest.raises(ValueError):
            coercivity_gap([1.0], [0.0])
        with pytest.raises(ValueError):
            coercivity_gap_batch(np.array([[0.1, 0.2], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.6, 0.8]]))

    @given(st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=4),
           st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, x, y):
        n = min(len(x), len(y))
        x, y = np.array(x[:n]) / 2.0, np.array(y[:n]) / 2.0
        assert coercivity_gap(x, y) >= 0.0

    def test_batch_matches_scalar(self):
        # reference: the defining formula, one pair at a time
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.5, 0.5, (50, 3))
        ys = rng.uniform(-0.5, 0.5, (50, 3))
        batch = coercivity_gap_batch(xs, ys)
        for i, (x, y) in enumerate(zip(xs, ys)):
            ref = np.dot(x / math.sqrt(1.0 - x @ x) - y / math.sqrt(1.0 - y @ y), x - y)
            assert batch[i] == pytest.approx(ref, abs=1e-14)


class TestGradHessPoint:
    """Gradient/Hessian point checks of pseudo_jacobi_gap_batch."""

    def test_rejects_timelike_gradient(self):
        with pytest.raises(ValueError, match=r"\|u\| < 1"):
            pseudo_jacobi_gap([0.8, 0.7], np.diag([1.0, -1.0]), alpha=1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            pseudo_jacobi_gap(np.zeros(3), np.diag([2.0, -1.0, -1.0]), alpha=0.6)


class TestProjection:
    def test_tracefree_unchanged(self):
        h = np.diag([1.0, -1.0])
        out = project_a_tracefree(np.zeros(2), h)
        assert np.allclose(out, h, atol=1e-12)

    def test_identity_projects_to_zero(self):
        out = project_a_tracefree(np.zeros(2), np.eye(2))
        assert np.max(np.abs(out)) == 0.0

    def test_random_trace_removed(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.uniform(-0.5, 0.5, 3)
            h = rng.uniform(-5, 5, (3, 3))
            out = project_a_tracefree(u, h)
            assert np.allclose(out, out.T, atol=0.0)
            th2 = 1.0 / (1.0 - u @ u)
            a_up = np.eye(3) + th2 * np.outer(u, u)
            assert abs(np.sum(a_up * out)) <= 1e-12

    @pytest.mark.parametrize("u", [(1.0, 0.0), (1.2, 0.0)])
    def test_gradient_off_the_unit_ball_raises(self, u):
        # like its sibling kernels; Theta^2 = 1/(1 - |u|^2) is infinite at (1, 0), which gave NaN
        # entries, and negative at (1.2, 0), which gave the zero matrix
        with pytest.raises(ValueError, match=r"\|u\| < 1"):
            project_a_tracefree(np.array(u), np.eye(2))


class TestPseudoJacobi:
    def test_zero_gradient_two_dim(self):
        assert pseudo_jacobi_gap(np.zeros(2), np.diag([1.0, -1.0]), alpha=1.0) == pytest.approx(2.0)

    def test_zero_gradient_three_dim(self):
        assert pseudo_jacobi_gap(np.zeros(3), np.diag([2.0, -1.0, -1.0]), alpha=0.5) == pytest.approx(6.0)

    def test_trace_constraint_enforced(self):
        with pytest.raises(ValueError, match="a-trace-free"):
            pseudo_jacobi_gap(np.zeros(2), np.eye(2), alpha=1.0)
        us, hs = sample_gradhess_batch(9, 20, 3)
        hs[7] += 1e-6 * np.eye(3)
        with pytest.raises(ValueError, match="a-trace-free"):
            pseudo_jacobi_gap_batch(us, hs, 0.5)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_seeded_sweep_nonnegative(self, m):
        us, hs = sample_gradhess_batch(1234 + m, 2000, m)
        for alpha in (1.0 / (m - 1), 0.5 / (m - 1)):
            gaps = pseudo_jacobi_gap_batch(us, hs, alpha)
            assert float(np.min(gaps)) >= -1e-10

    def test_batch_matches_scalar(self):
        # reference: dense matrices per point, B = a_up hess with
        # a_up = id + Theta^2 u u^T, a_down = id - u u^T
        us, hs = sample_gradhess_batch(77, 10, 3)
        gaps = pseudo_jacobi_gap_batch(us, hs, 0.5)
        for i in range(10):
            u = us[i]
            th2 = 1.0 / (1.0 - u @ u)
            b = (np.eye(3) + th2 * np.outer(u, u)) @ hs[i]
            bu = b @ u
            ref = np.trace(b @ b) - 1.5 * th2 * (bu @ (np.eye(3) - np.outer(u, u)) @ bu)
            assert gaps[i] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_gap_matches_dense(self, m):
        # reference: B = a_up @ hess as a dense matrix product per point
        us = gradients_to_edge(300 + m, 4000, m)
        raw = np.random.default_rng(400 + m).uniform(-5.0, 5.0, (4000, m, m))
        hs = project_a_tracefree_batch(us, raw)
        a_up, a_dn, th2 = dense_metrics(us)
        alpha = 1.0 / (m - 1)
        b = a_up @ hs
        bu = np.einsum("nij,nj->ni", b, us)
        ref = np.einsum("nij,nji->n", b, b) - (alpha + 1.0) * th2 * np.einsum("ni,nij,nj->n", bu, a_dn, bu)
        gaps = pseudo_jacobi_gap_batch(us, hs, alpha)
        assert np.all(np.abs(gaps - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_projection_matches_dense(self, m):
        us = gradients_to_edge(500 + m, 4000, m)
        raw = np.random.default_rng(600 + m).uniform(-5.0, 5.0, (4000, m, m))
        out = project_a_tracefree_batch(us, raw)
        a_up, _, _ = dense_metrics(us)
        assert np.array_equal(out, np.swapaxes(out, 1, 2))
        assert float(np.max(np.abs(np.einsum("nij,nij->n", a_up, out)))) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_sampler_draw_stream_pinned(self, m):
        # the rejection loop as first written; the sweep's points depend on
        # its exact draw order
        seed, count = 700 + m, 10_000
        rng = np.random.default_rng(seed)
        ref = np.empty((count, m))
        filled = 0
        while filled < count:
            block = rng.uniform(-1.0, 1.0, size=(2 * (count - filled) + 16, m))
            ok = block[np.sum(block * block, axis=1) <= 0.99**2]
            take = min(ok.shape[0], count - filled)
            ref[filled : filled + take] = ok[:take]
            filled += take
        raw = rng.uniform(-5.0, 5.0, size=(count, m, m))
        us, hs = sample_gradhess_batch(seed, count, m)
        assert np.array_equal(us, ref)
        assert np.array_equal(hs, project_a_tracefree_batch(ref, raw))

    def test_projection_batch_exact(self):
        us, hs = sample_gradhess_batch(5, 500, 4)
        th2 = 1.0 / (1.0 - np.sum(us * us, axis=1))
        a_up = np.eye(4)[None] + th2[:, None, None] * np.einsum("ni,nj->nij", us, us)
        traces = np.einsum("nij,nij->n", a_up, hs)
        assert float(np.max(np.abs(traces))) <= 1e-12


BLOCK = tensors.BLOCK_ROWS


class TestBlocked:
    """The batch kernels run BLOCK_ROWS rows at a time; no result depends on it."""

    @staticmethod
    def evaluate(n, m):
        us = gradients_to_edge(800 + m, n, m)
        raw = np.random.default_rng(900 + m).uniform(-5.0, 5.0, (n, m, m))
        before = raw.copy()
        hs = project_a_tracefree_batch(us, raw)
        assert np.array_equal(raw, before)
        xs = us[:, :2]
        return (us, hs, sample_gradhess_batch(1000 + m, n, m)[1], pseudo_jacobi_gap_batch(us, hs, 1.0 / (m - 1)),
                coercivity_gap_batch(xs, np.roll(xs, 1, axis=0)))

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("m", [2, 5])
    def test_bitwise_equal_to_one_block(self, n, m, monkeypatch):
        blocked = self.evaluate(n, m)
        monkeypatch.setattr(tensors, "BLOCK_ROWS", n)
        for got, want in zip(blocked, self.evaluate(n, m)):
            assert np.array_equal(got, want)

    def test_bad_row_in_last_block_raises(self):
        n = 3 * BLOCK + 7
        us, hs = sample_gradhess_batch(31, n, 3)
        hs[-1] += 1e-6 * np.eye(3)
        with pytest.raises(ValueError, match="a-trace-free"):
            pseudo_jacobi_gap_batch(us, hs, 0.5)
        us[-1] = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"\|u\| < 1"):
            pseudo_jacobi_gap_batch(us, hs, 0.5)
        with pytest.raises(ValueError, match=r"\|u\| < 1"):
            project_a_tracefree_batch(us, hs)
        with pytest.raises(ValueError, match=r"\|X\| < 1"):
            coercivity_gap_batch(us, np.zeros_like(us))
        with pytest.raises(ValueError, match=r"\|X\| < 1"):
            coercivity_gap_batch(np.zeros_like(us), us)


def test_criterion_9_memory_budget():
    # 1.5e5 samples, but no temporary larger than a block besides the
    # criterion's own inputs and outputs
    tracemalloc.start()
    try:
        acceptance.run_criterion(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


class TestNewtonGap:
    def test_two_eigenvalues(self):
        assert newton_gap([1.0, -1.0]) == pytest.approx(0.0)

    def test_equal_tail(self):
        assert newton_gap([2.0, -1.0, -1.0]) == pytest.approx(0.0)

    def test_arithmetic(self):
        assert newton_gap([1.0, -0.9, -0.1]) == pytest.approx(0.64)

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            newton_gap([1.0, 1.0])

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_tracefree(self, lams):
        lam = np.array(lams) - np.mean(lams)
        assert newton_gap(lam) >= -1e-12
