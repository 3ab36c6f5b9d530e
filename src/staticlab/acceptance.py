"""The acceptance suite: one callable per criterion, shared by CLI and tests.

Each criterion function returns a CriterionResult with per-clause detail
lines.  Negative controls are expected to fail and are recorded as
EXPECTED-FAIL inside their criterion; the criterion itself passes exactly
when every positive clause holds and every negative control misbehaves as
designed.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import barriers, elliptic, estimates, geometry, graphs, tensors
from .numerics import Grid, quad
from .reporting import EstimateReport

__all__ = ["CriterionResult", "run_criterion", "run_acceptance", "run_quick", "CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: tuple[str, ...] = ()
    reports: tuple[EstimateReport, ...] = ()

    def line(self) -> str:
        return f"criterion {self.number: 2d} [{'PASS' if self.passed else 'FAIL'}] {self.name}"


def _hyperbolic_model(s_max=20.0, B=1.0):
    base = geometry.RadialBase(2, geometry.hyperbolic_profile(B), (0.0, s_max))
    return geometry.StaticModel(base, geometry.constant_warp(1.0))


def _euclid_model(s_max=20.0, s_min=0.0):
    base = geometry.RadialBase(2, geometry.euclidean_profile(), (s_min, s_max))
    return geometry.StaticModel(base, geometry.constant_warp(1.0))


def _schwarzschild_model(mu=1.0, m=3, s_min=0.5, s_max=60.0):
    base = geometry.RadialBase(m, geometry.schwarzschild_profile(mu, m), (s_min, s_max))
    return geometry.StaticModel(base, geometry.schwarzschild_warp(mu, m))


def _sample_models(rng, count):
    """Seeded mix of built-in models for the random curvature sweeps."""
    out = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 0:
            model = _euclid_model()
            s = float(rng.uniform(0.5, 15.0))
        elif kind == 1:
            B = float(rng.uniform(0.3, 3.0))
            model = _hyperbolic_model(B=B)
            s = float(rng.uniform(0.2, 8.0))
        elif kind == 2:
            B = float(rng.uniform(0.3, 2.0))
            a = float(rng.uniform(0.1, 0.5))
            base = geometry.RadialBase(2, geometry.hyperbolic_profile(B), (0.0, 20.0))
            warp = geometry.custom_warp(
                lambda t, a=a: 1.0 + a * np.exp(-np.asarray(t, dtype=float)),
                lambda t, a=a: -a * np.exp(-np.asarray(t, dtype=float)),
                lambda t, a=a: a * np.exp(-np.asarray(t, dtype=float)),
            )
            model = geometry.StaticModel(base, warp)
            s = float(rng.uniform(0.2, 8.0))
        else:
            mu = float(rng.uniform(0.5, 2.0))
            m = int(rng.integers(3, 6))
            model = _schwarzschild_model(mu=mu, m=m, s_min=0.2, s_max=80.0)
            s = float(rng.uniform(0.5, 40.0))
        out.append((model, s))
    return out


def criterion_1(seed: int) -> CriterionResult:
    """Curvature engine: Schwarzschild vacuum Ricci and Riemann contraction."""
    details = []
    rng = np.random.default_rng(seed)
    model = _schwarzschild_model()
    s = geometry.schwarzschild_s_of_rho(1.0, 3, rng.uniform(2.1, 50.0, size=20))
    ric = geometry.spacetime_ricci(model, s)
    worst = float(max(np.max(np.abs(c)) for c in (ric.hor_rad, ric.hor_tan, ric.vert)))
    ok1 = worst <= 1e-8
    details.append(f"vacuum Ricci max |component| = {worst:.3e} (<= 1e-8): {'ok' if ok1 else 'FAIL'}")

    worst_c = 0.0
    worst_sym = 0.0
    for model_i, s in _sample_models(rng, 50):
        riem = tensors.static_riemann(model_i, s)
        ric_mat = riem.ricci()
        ric = geometry.spacetime_ricci(model_i, s)
        m = model_i.m
        expected = np.zeros((m + 1, m + 1))
        expected[0, 0] = ric.hor_rad
        for i in range(1, m):
            expected[i, i] = ric.hor_tan
        expected[m, m] = ric.vert_frame
        worst_c = max(worst_c, float(np.max(np.abs(ric_mat - expected))))
        worst_sym = max(worst_sym, riem.symmetry_residual())
    ok2 = worst_c <= 1e-9
    details.append(f"Riemann->Ricci contraction worst = {worst_c:.3e} (<= 1e-9): {'ok' if ok2 else 'FAIL'}")
    details.append(f"curvature-tensor symmetry residual worst = {worst_sym:.3e}")
    return CriterionResult(1, "curvature engine (vacuum oracle and contraction)", ok1 and ok2, tuple(details))


def criterion_2(seed: int) -> CriterionResult:
    """Solver correctness: asinh closed form, grid convergence, CMC flux."""
    details = []
    model = _euclid_model(s_min=0.5, s_max=10.0)

    def tau_error(n):
        grid = Grid.uniform(1.0, 2.0, n + 1)
        g = graphs.solve_radial_graph(model, graphs.zero_H(), graphs.Anchor.point(1.0, 0.0, 1.0), grid)
        exact = np.arcsinh(grid.nodes) - np.arcsinh(1.0)
        return float(np.max(np.abs(g.tau - exact)))

    e400 = tau_error(400)
    e800 = tau_error(800)
    ok1 = e400 <= 1e-6
    ratio = e400 / e800
    ok2 = ratio >= 8.0
    details.append(f"asinh max error at grid 400 = {e400:.3e} (<= 1e-6): {'ok' if ok1 else 'FAIL'}")
    details.append(f"error reduction 400 -> 800 = {ratio:.3f}x (>= 8): {'ok' if ok2 else 'FAIL'}")

    hyp = _hyperbolic_model()
    grid = Grid.uniform(0.0, 8.0, 1601)
    g = graphs.solve_radial_graph(hyp, graphs.constant_H(0.5), graphs.Anchor.pole(0.0), grid)
    s = grid.nodes
    flux_err = float(np.max(np.abs(g.flux - (np.cosh(s) - 1.0))))
    with np.errstate(invalid="ignore"):
        w = np.where(s > 0, g.flux / np.maximum(np.sinh(s), 1e-300), 0.0)
    w_err = float(np.max(np.abs(w - np.tanh(s / 2.0))))
    ok3 = flux_err <= 1e-8 and w_err <= 1e-8
    details.append(f"CMC flux vs cosh s - 1: {flux_err:.3e}; W vs tanh(s/2): {w_err:.3e} (<= 1e-8): "
                   f"{'ok' if ok3 else 'FAIL'}")
    return CriterionResult(2, "graph solver against closed forms", ok1 and ok2 and ok3, tuple(details))


def criterion_3(seed: int) -> CriterionResult:
    """Angle lower bound instances and the boundary estimate equality chain."""
    details = []
    ok = True
    G0 = 0.5
    model = _hyperbolic_model()
    for H0 in (0.1, 0.5, 1.0):
        grid = Grid.uniform(0.0, 12.0, 2401)
        g = graphs.solve_radial_graph(model, graphs.constant_H(H0), graphs.Anchor.pole(0.0), grid)
        tail_mask = grid.nodes >= grid.b / 10.0
        tail = float(np.max(g.cosh_theta[tail_mask]))  # running-max tail proxy
        bound = math.sqrt(1.0 + H0 * H0 / G0)
        margin = tail - bound
        need = 0.18 if H0 == 0.5 else 0.0
        clause = margin > need
        ok &= clause
        details.append(
            f"H0={H0}: tail cosh = {tail:.7f} vs bound {bound:.7f}, margin {margin:.5f}"
            f" (> {need}): {'ok' if clause else 'FAIL'}"
        )
        # equality chain of the boundary estimate at sampled radii
        radii = np.array([1.0, 2.0, 4.0, 8.0])
        cosh = g.cosh_theta[[g.node_index(r) for r in radii]]
        wv = estimates.weighted_volumes(model, radii)
        lhs = np.sqrt(cosh**2 - 1.0) * (wv.bvol / wv.vol)
        rhs = model.m * np.abs(estimates.mean_H_average(model, graphs.constant_H(H0), radii))
        vcheck = float(np.max(np.abs(lhs - rhs)))
        clause2 = vcheck <= 1e-8
        ok &= clause2
        details.append(f"H0={H0}: boundary-estimate equality chain residual {vcheck:.3e} (<= 1e-8): "
                       f"{'ok' if clause2 else 'FAIL'}")
    return CriterionResult(3, "angle bound instances (constant-curvature gauge)", ok, tuple(details))


def criterion_4(seed: int) -> CriterionResult:
    """Flux identity in ball, annulus and slice form."""
    details = []
    ok = True
    hyp = _hyperbolic_model()
    g1 = graphs.solve_radial_graph(hyp, graphs.constant_H(0.5), graphs.Anchor.pole(0.0),
                                   Grid.uniform(0.0, 8.0, 1601))
    r1 = estimates.flux_identity_check(g1, graphs.constant_H(0.5), 0.0, 1.0, tol=1e-8)
    eu = _euclid_model(s_min=0.5, s_max=10.0)
    g2 = graphs.solve_radial_graph(eu, graphs.zero_H(), graphs.Anchor.point(1.0, 0.0, 1.0),
                                   Grid.uniform(1.0, 5.0, 801))
    r2 = estimates.flux_identity_check(g2, graphs.zero_H(), 1.0, 4.0, tol=1e-10)
    bf = 2.0 * math.pi  # each boundary flux of the maximal annulus is omega * c
    i0, i1 = g2.node_index(1.0), g2.node_index(4.0)
    g3 = graphs.solve_radial_graph(eu, graphs.zero_H(), graphs.Anchor.point(1.0, 0.0, 0.0),
                                   Grid.uniform(1.0, 5.0, 801))
    r3 = estimates.flux_identity_check(g3, graphs.zero_H(), 1.0, 4.0, tol=1e-12)
    for tag, rep in (("hyperbolic CMC ball", r1), ("maximal annulus", r2), ("slice", r3)):
        ok &= rep.verdict
        details.append(f"{tag}: {rep.notes[0]} -> {'ok' if rep.verdict else 'FAIL'}")
    details.append(f"annulus boundary fluxes = {g2.flux[i0] * 2 * math.pi / (2 * math.pi):.6f} (flux c = 1, "
                   f"omega F = {2 * math.pi:.6f} = 2 pi)")
    return CriterionResult(4, "flux identity (weighted divergence theorem)", ok,
                           tuple(details), (r1, r2, r3))


def criterion_5(seed: int) -> CriterionResult:
    """Volume-ratio monotonicity, positive scenarios plus negative control."""
    details = []
    radii = np.linspace(0.5, 10.0, 12)
    hyp = _hyperbolic_model()
    r1 = estimates.bishop_gromov_check(hyp, barriers.ComparisonModel(1.0), radii, tol=1e-9)
    eu = _euclid_model()
    r2 = estimates.bishop_gromov_check(eu, barriers.ComparisonModel(0.0), radii, tol=1e-9)
    neg = estimates.bishop_gromov_check(hyp, barriers.ComparisonModel(0.0), radii, tol=1e-9)
    ok = r1.verdict and r2.verdict and (not neg.verdict) and ("VIOLATED" in neg.notes[0])
    details.append(f"hyperbolic with matching k: margin {r1.margin:.3e}: {'ok' if r1.verdict else 'FAIL'}")
    details.append(f"euclidean with k = t: margin {r2.margin:.3e}: {'ok' if r2.verdict else 'FAIL'}")
    details.append(
        f"mismatched k negative control: verdict {neg.verdict} (expected False), "
        f"hypothesis audit: {neg.notes[0]}"
    )
    return CriterionResult(5, "volume-ratio monotonicity with negative control", ok,
                           tuple(details), (r1, r2, neg))


def criterion_6(seed: int) -> CriterionResult:
    """Cheeger tail, truncated lowest eigenvalue, and the spectral inequality."""
    details = []
    model = _hyperbolic_model(s_max=25.0)
    prof = estimates.cheeger_profile(model, 20.0)
    ok1 = abs(prof.c_hat - 1.0) <= 0.01
    details.append(f"tail Cheeger estimate = {prof.c_hat:.6f} (|. - 1| <= 0.01): {'ok' if ok1 else 'FAIL'}")
    lam = estimates.lambda1_estimate(model, 20.0, 2000)
    ok2 = abs(lam - 0.25) <= 0.02
    details.append(
        f"lambda1 estimate at r_trunc=20, n=2000 = {lam:.6f} (|. - 0.25| <= 0.02): "
        f"{'ok' if ok2 else 'FAIL'} "
        f"(truncated Dirichlet value of the hyperbolic ball B_20; the r -> infinity limit is 0.25)"
    )
    ok3 = lam >= 0.25 * prof.c_hat**2 - 0.03
    details.append(
        f"lambda1 >= (1/4) c_hat^2 - 0.03: {lam:.6f} >= {0.25 * prof.c_hat ** 2 - 0.03:.6f}: "
        f"{'ok' if ok3 else 'FAIL'} (ball-optimality assumption recorded: {prof.assumption})"
    )
    return CriterionResult(6, "Cheeger tail and lowest radial eigenvalue", ok1 and ok2 and ok3, tuple(details))


def criterion_7(seed: int) -> CriterionResult:
    """Barrier constructions: defining ODE, anchors, controls, escape, residual."""
    details = []
    ok = True
    cmp = barriers.ComparisonModel(1.0)
    b = barriers.build_barrier_prod0(
        2, cmp, R=1.0, r=2.0, eps=0.7,
        A=lambda s: np.ones_like(np.asarray(s, dtype=float)), s_max=30.0, n=4000,
    )
    ode_resid = float(np.max(np.abs((barriers.flux_divergence(b) - b.C * b.rhs_A)[2:-2])))
    clause = ode_resid <= 1e-8
    ok &= clause
    details.append(f"defining ODE residual (w f)'/w - C A = {ode_resid:.3e} (<= 1e-8): "
                   f"{'ok' if clause else 'FAIL'}")
    bs = barriers.build_barrier_schwarzschild(1.0, 3, 3.0, 6.0, beta=0.1, H0=0.2, rho_max=40.0, n=4000)
    all_reports = []
    for tag, bb in (("hyperbolic", b), ("schwarzschild", bs)):
        reps = barriers.verify_barrier(bb)
        all_reports.extend(reps)
        for rep in reps:
            ok &= rep.verdict
            details.append(f"{tag} {rep.name}: margin {rep.margin:.3e}: {'ok' if rep.verdict else 'FAIL'}")
    return CriterionResult(7, "barrier constructions and verification", ok,
                           tuple(details), tuple(all_reports))


def criterion_8(seed: int) -> CriterionResult:
    """Half-space demonstrations: height growth of mean-convex graphs."""
    details = []
    ok = True
    H0 = 0.5
    hyp = _hyperbolic_model(s_max=50.0)
    g = graphs.solve_radial_graph(hyp, graphs.constant_H(H0), graphs.Anchor.pole(0.0),
                                  Grid.uniform(0.0, 45.0, 4501))
    f_inf = 2.0 * H0  # m H0 / ((m-1) sqrt(G0)) with m = 2, G0 = 1
    slope_oracle = f_inf / math.sqrt(1.0 + f_inf * f_inf)
    for S in (10.0, 20.0):
        gain = float(np.interp(2 * S, g.grid.nodes, g.tau) - np.interp(S, g.grid.nodes, g.tau))
        clause = gain >= 0.8 * S * slope_oracle
        ok &= clause
        details.append(f"hyperbolic CMC: tau(2S)-tau(S) = {gain:.4f} >= {0.8 * S * slope_oracle:.4f} "
                       f"at S={S}: {'ok' if clause else 'FAIL'}")
    tail = g.grid.nodes >= 5.0
    slope_floor = float(np.min(g.slope[tail]))
    clause = slope_floor >= 0.9 * slope_oracle
    ok &= clause
    details.append(f"hyperbolic CMC slope floor for s >= 5: {slope_floor:.6f} >= "
                   f"{0.9 * slope_oracle:.6f}: {'ok' if clause else 'FAIL'}")

    schw = _schwarzschild_model(s_min=0.5, s_max=80.0)
    s1 = geometry.schwarzschild_s_of_rho(1.0, 3, 3.0)
    grid = Grid.uniform(s1, 45.0, 4001)
    gs = graphs.solve_radial_graph(schw, graphs.constant_H(0.2), graphs.Anchor.point(s1, 0.0, 0.0), grid)
    for S in (10.0, 20.0):
        gain = float(np.interp(2 * S, gs.grid.nodes, gs.tau) - np.interp(S, gs.grid.nodes, gs.tau))
        clause = gain >= 0.8 * S * 1.0  # slope oracle: tau' -> 1 as W -> infinity, h -> 1
        ok &= clause
        details.append(f"schwarzschild H0=0.2: tau(2S)-tau(S) = {gain:.4f} >= {0.8 * S:.1f} at S={S}: "
                       f"{'ok' if clause else 'FAIL'}")
    clause = bool(np.all(np.diff(gs.tau) > 0)) and float(np.interp(
        geometry.schwarzschild_s_of_rho(1.0, 3, 30.0), gs.grid.nodes, gs.tau)) >= 5.0
    ok &= clause
    details.append(f"schwarzschild height strictly increasing, tau(rho=30) = "
                   f"{float(np.interp(geometry.schwarzschild_s_of_rho(1.0, 3, 30.0), gs.grid.nodes, gs.tau)):.3f}"
                   f" >= 5: {'ok' if clause else 'FAIL'}")
    return CriterionResult(8, "half-space growth demonstrations", ok, tuple(details))


def criterion_9(seed: int) -> CriterionResult:
    """Pseudo-Jacobi and coercivity gaps over seeded sweeps."""
    details = []
    ok = True
    for m in range(2, 7):
        gaps = tensors.pseudo_jacobi_gap_batch(*tensors.sample_gradhess_batch(seed + m, 10_000, m),
                                               alpha=1.0 / (m - 1))
        worst = float(np.min(gaps))
        clause = worst >= -1e-10
        ok &= clause
        details.append(f"pseudo-Jacobi m={m}: min gap over 1e4 samples = {worst:.3e} (>= -1e-10): "
                       f"{'ok' if clause else 'FAIL'}")

    def norms(a):
        return np.sqrt(np.einsum("ni,ni->n", a, a))

    def ball_points(n):  # scaled in place; the radius draws read one draw's stream
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        for (p,) in tensors.row_blocks(pts):
            p *= (rng.uniform(0.0, 0.98, size=p.shape[0]) / np.maximum(norms(p), 1e-15))[:, None]
        return pts

    rng = np.random.default_rng(seed)
    xs, ys = ball_points(100_000), ball_points(100_000)
    ys[:1000] = xs[:1000]  # exact equality block
    ys[1000:2000] = xs[1000:2000] * (1.0 - 1e-9)  # near-equality block
    gaps = tensors.coercivity_gap_batch(xs, ys)
    worst = float(np.min(gaps))
    clause = worst >= 0.0
    ok &= clause
    details.append(f"coercivity: min gap over 1e5 pairs = {worst:.3e} (>= 0): {'ok' if clause else 'FAIL'}")
    small = gaps <= 1e-12
    dist = norms(xs[small] - ys[small])
    clause = bool(np.all(dist <= 1e-6)) and int(np.sum(small)) >= 1000
    ok &= clause
    details.append(f"quantified equality case: {int(np.sum(small))} pairs with gap <= 1e-12, "
                   f"max |X-Y| among them = {float(np.max(dist)):.3e} (<= 1e-6): "
                   f"{'ok' if clause else 'FAIL'}")
    return CriterionResult(9, "pseudo-Jacobi and coercivity sweeps", ok, tuple(details))


def criterion_10(seed: int) -> CriterionResult:
    """Gradient estimate: slices pass, annulus control fails, step-1 machinery."""
    details = []
    ok = True
    for tag, model in (("euclidean", _euclid_model()), ("hyperbolic", _hyperbolic_model())):
        g = graphs.solve_radial_graph(model, graphs.zero_H(), graphs.Anchor.pole(0.25),
                                      Grid.uniform(0.0, 10.0, 501))
        clause = float(np.max(np.abs(g.slope))) == 0.0
        ok &= clause
        details.append(f"pole-regular maximal over {tag} is a slice: {'ok' if clause else 'FAIL'}")
        rep = estimates.angle_bound_check(g, G=1.0, t0=-0.75)
        ok &= rep.verdict and rep.margin >= 0.0
        details.append(f"angle bound margin on the {tag} slice: {rep.margin:.3e} (>= 0): "
                       f"{'ok' if rep.verdict else 'FAIL'}")

    hyp = _hyperbolic_model()
    ann = graphs.solve_radial_graph(hyp, graphs.zero_H(), graphs.Anchor.point(0.1, 0.0, 1.0),
                                    Grid.uniform(0.1, 5.0, 981))
    rep = estimates.angle_bound_check(ann, G=1.0, t0=float(ann.tau[0]))
    clause = not rep.verdict
    ok &= clause
    details.append(
        f"incomplete annulus control: verdict {rep.verdict}, margin {rep.margin:.3f} -> "
        f"{'EXPECTED-FAIL (ok)' if clause else 'unexpected pass (FAIL)'}; {rep.notes[0]}"
    )

    g01 = graphs.solve_radial_graph(hyp, graphs.constant_H(0.1), graphs.Anchor.pole(0.0),
                                    Grid.uniform(0.0, 8.0, 2001))
    rng = np.random.default_rng(seed)
    t0 = -0.1
    u_o = 0.1
    interior_count = 0
    worst_lz = -np.inf
    for k in range(20):
        R = float(rng.uniform(2.0 * u_o + 1.0, 6.0))
        C = float(rng.uniform(2.0 / R * 1.1, min(0.95 / u_o, 4.0)))
        K = float(rng.uniform(0.5, 3.0))
        res = estimates.angle_machine_step1(g01, estimates.AngleMachineParams(R=R, C=C, K=K), t0)
        ok &= res.report.verdict
        if res.interior_smooth_max:
            interior_count += 1
            worst_lz = max(worst_lz, res.lzeta_at_max)
    clause = interior_count >= 10 and worst_lz <= 1e-4
    ok &= clause
    details.append(
        f"step-1 inequality held on 20 seeded configurations; {interior_count} interior smooth maxima, "
        f"worst L zeta = {worst_lz:.3e} (<= 1e-4): {'ok' if clause else 'FAIL'}"
    )
    return CriterionResult(10, "gradient-estimate machinery with negative control", ok, tuple(details))


def criterion_11(seed: int) -> CriterionResult:
    """Discrete elliptic machinery: telescoping, comparison, Newton solves."""
    details = []
    ok = True
    eu = _euclid_model(s_min=0.5, s_max=10.0)
    grid = Grid.uniform(1.0, 2.0, 401)
    op = elliptic.MeshOperator.from_model(eu, grid)
    exact = np.arcsinh(grid.nodes) - np.arcsinh(1.0)
    tele = elliptic.divergence_telescope(op, exact, np.zeros(len(grid)))
    clause = tele <= 1e-12
    ok &= clause
    details.append(f"discrete divergence theorem residual = {tele:.3e} (<= 1e-12): {'ok' if clause else 'FAIL'}")

    prob = elliptic.DirichletProblem(op, np.zeros(len(grid)), (0.0, float(exact[-1])))
    u = elliptic.newton_solve(prob)
    err = float(np.max(np.abs(u.values - exact)))
    clause = err <= 1e-6
    ok &= clause
    details.append(f"Newton catenoid error = {err:.3e} (<= 1e-6): {'ok' if clause else 'FAIL'}")

    hyp = _hyperbolic_model()
    grid_h = Grid.uniform(0.5, 4.0, 701)
    op_h = elliptic.MeshOperator.from_model(hyp, grid_h)

    def cmc_slope(t):
        return np.tanh(t / 2.0) / np.sqrt(1.0 + np.tanh(t / 2.0) ** 2)

    tau_top = quad(cmc_slope, 0.5, 4.0, 1e-13)
    u_h = elliptic.newton_solve(elliptic.DirichletProblem(op_h, np.ones(len(grid_h)), (0.0, tau_top)))
    mid = len(grid_h) // 2
    s_mid = float(grid_h.nodes[mid])
    exact_mid = quad(cmc_slope, 0.5, s_mid, 1e-13)
    err_h = abs(float(u_h.values[mid]) - exact_mid)
    clause = err_h <= 1e-6
    ok &= clause
    details.append(f"Newton CMC (sinh weight) midpoint error = {err_h:.3e} (<= 1e-6): {'ok' if clause else 'FAIL'}")

    rep = elliptic.comparison_check(op, exact, exact - 0.1)
    ok &= rep.verdict
    details.append(f"comparison on ordered translates: margin {rep.margin:.3e}: {'ok' if rep.verdict else 'FAIL'}")
    s = grid.nodes
    bump = exact + 0.05 * np.sin(np.pi * (s - s[0]) / (s[-1] - s[0])) ** 2  # spacelike, ordering-breaking
    rep2 = elliptic.comparison_check(op, exact, bump)
    clause = rep2.status == "precondition-failure"
    ok &= clause
    details.append(f"operator-ordering violation classified as precondition failure: "
                   f"{'ok' if clause else 'FAIL'} ({rep2.notes})")

    # near-null steep load: within the 14-iteration budget the cold start
    # cannot converge (it needs 17) and the load continuation takes over with
    # warm starts needing at most 11 per stage; eps noise in the face slopes
    # is amplified by (1 - d^2)^{-3/2} here, hence the 1e-7 target
    steep = elliptic.DirichletProblem(op_h, 6.0 * np.ones(len(grid_h)), (0.0, 0.0))
    u_steep = elliptic.newton_solve(steep, tol=1e-7, max_iter=14)
    r_steep = float(np.max(np.abs(elliptic.residual(op_h, u_steep.values, steep.rhs))))
    clause = r_steep <= 1e-7
    ok &= clause
    details.append(f"steep-load solve (continuation from cold start) residual = {r_steep:.3e} (<= 1e-7): "
                   f"{'ok' if clause else 'FAIL'}")
    return CriterionResult(11, "discrete elliptic machinery", ok, tuple(details))


def criterion_12(seed: int) -> CriterionResult:
    """Determinism: consecutive reruns produce byte-identical CSV artifacts.

    Checked on a full numeric scenario (every CSV it writes) and on the
    quick-suite summary; the acceptance suite cannot rerun itself from
    inside, but every CSV-producing path it uses is covered by the two.
    """
    import contextlib
    import io

    from . import cli

    details = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        out1 = os.path.join(tmp, "a")
        out2 = os.path.join(tmp, "b")
        with contextlib.redirect_stdout(io.StringIO()):
            code1 = cli.main(["run", cli.bundled_scenario("hyperbolic_cmc"), "--out", out1])
            code2 = cli.main(["run", cli.bundled_scenario("hyperbolic_cmc"), "--out", out2])
        ok &= code1 == 0 and code2 == 0
        details.append(f"two scenario runs exited with {code1}, {code2}")
        names = []
        for root, _, files in os.walk(out1):
            for fn in sorted(files):
                if fn.endswith(".csv"):
                    names.append(os.path.relpath(os.path.join(root, fn), out1))
        if not names:
            ok = False
            details.append("no CSV artifacts produced")
        for rel in names:
            with open(os.path.join(out1, rel), "rb") as fh:
                d1 = fh.read()
            with open(os.path.join(out2, rel), "rb") as fh:
                d2 = fh.read()
            same = d1 == d2
            ok &= same
            details.append(f"scenario {rel}: {'byte-identical' if same else 'DIFFERS'}")
        with contextlib.redirect_stdout(io.StringIO()):
            s1 = cli.main(["suite", "quick", "--out", os.path.join(tmp, "s1"), "--seed", str(seed)])
            s2 = cli.main(["suite", "quick", "--out", os.path.join(tmp, "s2"), "--seed", str(seed)])
        ok &= s1 == 0 and s2 == 0
        with open(os.path.join(tmp, "s1", "suite_quick_summary.csv"), "rb") as fh:
            d1 = fh.read()
        with open(os.path.join(tmp, "s2", "suite_quick_summary.csv"), "rb") as fh:
            d2 = fh.read()
        same = d1 == d2
        ok &= same
        details.append(f"suite summary CSV: {'byte-identical' if same else 'DIFFERS'}")
    return CriterionResult(12, "byte-identical rerun determinism", ok, tuple(details))


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_criterion(number: int, seed: int = 42) -> CriterionResult:
    return CRITERIA[number](seed=seed)


def run_acceptance(seed: int = 42) -> list[CriterionResult]:
    return [CRITERIA[k](seed=seed) for k in sorted(CRITERIA)]


def run_quick(seed: int = 42) -> list[CriterionResult]:
    """A fast subset: curvature, solver, flux identity, elliptic machinery."""
    return [CRITERIA[k](seed=seed) for k in (1, 2, 4, 11)]
