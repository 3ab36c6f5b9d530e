"""Radial barrier constructions for the half-space comparison arguments.

Two constructions are provided.  Over a model-comparison base (curvature
bound encoded by a solution k of k'' - G k >= 0, k(0) = 0, k'(0) = 1) the
barrier slope is

    f_C(s) = (C / k(s)^{m-1}) int_R^s A k^{m-1},    u0 = int_R^s f/sqrt(1+f^2),

with C in (0, 1] picked from the explicit sufficient bound so that
u0(r) <= eps.  Over a warped radial end (the Schwarzschild application with
h = sqrt(V)) the slope carries an extra shift beta_1,

    f_{C,beta_1}(s) = (C int_R^s A g^{m-1} + beta_1) / g(s)^{m-1},
    u0' = f / (h sqrt(h^2 + f^2)),

and beta_1 <= 0 is chosen (smallest magnitude, ties toward zero) so the
height at the control sphere stays below beta.  Both slopes satisfy the
defining linear ODE (w f)' = C A w exactly, hence the flux-divergence
inequality div <= A with slack C <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import schwarzschild_profile, schwarzschild_s_of_rho, schwarzschild_warp
from .numerics import Grid, SampledFunction, cumulative_order3, cumulative_quad, fd_derivative
from .reporting import EstimateReport, make_report

__all__ = [
    "ComparisonModel",
    "BarrierFunction",
    "build_barrier_prod0",
    "build_barrier_schwarzschild",
    "verify_barrier",
    "export_barrier_csv",
]

ESCAPE_LEVEL = 10.0


def _uniform_grid_through(R: float, r: float, s_max: float, n: int) -> tuple[np.ndarray, int]:
    """Uniform nodes from R to (at least) s_max with r exactly on a node."""
    n1 = max(8, int(round(n * (r - R) / (s_max - R))))
    ds = (r - R) / n1
    n2 = int(np.ceil((s_max - R) / ds - 1e-12))
    nodes = R + ds * np.arange(n2 + 1)
    nodes[n1] = r  # exact, up to representation
    return nodes, n1


@dataclass(frozen=True)
class ComparisonModel:
    """Solution k of k'' - G k >= 0 with k(0) = 0, k'(0) = 1, for constant G."""

    G0: float

    def __post_init__(self):
        if self.G0 < 0:
            raise ValueError("comparison model needs G0 >= 0")

    def k(self, t):
        t = np.asarray(t, dtype=float)
        if self.G0 == 0.0:
            return t.copy()
        rg = np.sqrt(self.G0)
        return np.sinh(rg * t) / rg

    def kp(self, t):
        t = np.asarray(t, dtype=float)
        if self.G0 == 0.0:
            return np.ones_like(t)
        return np.cosh(np.sqrt(self.G0) * t)

    def series_check(self, eps: float = 1e-6) -> float:
        """|k(eps)/eps - 1|, the k'(0) = 1 normalisation residual."""
        return abs(float(self.k(eps)) / eps - 1.0)


@dataclass(frozen=True)
class BarrierFunction:
    """A constructed radial barrier with its verification data.

    ``f`` is the barrier slope in flux form, ``u0`` the resulting radial
    height; ``w_nodes`` holds the radial weight (k or g)^{m-1} and ``h_nodes``
    the warp along the grid.  ``rhs_A`` is the prescribed divergence bound.
    """

    kind: str
    m: int
    domain: tuple[float, float]
    control: tuple[float, float]  # (control abscissa, allowed height there)
    C: float
    beta1: float
    f: SampledFunction
    u0: SampledFunction
    rhs_A: np.ndarray
    w_nodes: np.ndarray
    h_nodes: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def grid(self) -> Grid:
        return self.f.grid


def _tail_min(nodes: np.ndarray, values: np.ndarray) -> float:
    """Minimum over the tail window: the last decade, at least the last third."""
    lo = max(nodes[-1] / 10.0, nodes[-1] - (nodes[-1] - nodes[0]) / 3.0, nodes[0])
    mask = nodes >= lo
    return float(np.min(values[mask]))


def build_barrier_prod0(m, cmp: ComparisonModel, R, r, eps, A, s_max, n=4000) -> BarrierFunction:
    """Barrier over a model-comparison base with u0(R) = 0 and u0(r) <= eps.

    ``A`` is a positive radial callable (vectorised).  C is chosen from the
    explicit sufficient bound u0(r) <= C (r - R) max ratio, not by root
    finding.  A nonpositive liminf probe of f/C over the tail is recorded as
    a warning, never silently ignored.
    """
    if not (r > R > 0 and eps > 0 and s_max > r):
        raise ValueError("need 0 < R < r < s_max and eps > 0")
    nodes, _ = _uniform_grid_through(R, r, s_max, n)
    a_nodes = np.asarray(A(nodes), dtype=float)
    if np.any(a_nodes <= 0):
        raise ValueError("barrier construction needs A > 0 on the domain")

    w = cmp.k(nodes) ** (m - 1)

    def integrand(s):
        return np.asarray(A(s), dtype=float) * cmp.k(s) ** (m - 1)

    big_i = cumulative_quad(integrand, nodes, tol=1e-14)
    ratio = np.zeros_like(nodes)
    ratio[1:] = big_i[1:] / w[1:]
    max_ratio = float(np.max(ratio[nodes <= r]))
    C = min(1.0, eps / ((r - R) * max_ratio)) if max_ratio > 0 else 1.0

    f = C * ratio
    u0 = cumulative_order3(f / np.sqrt(1.0 + f * f), nodes)

    warnings = []
    tail = _tail_min(nodes, ratio)
    if tail <= 0:
        warnings.append(f"liminf probe of the barrier slope is nonpositive ({tail:.3e})")
    grid = Grid(nodes, "uniform")
    return BarrierFunction(
        kind="prod0",
        m=m,
        domain=(R, s_max),
        control=(r, eps),
        C=C,
        beta1=0.0,
        f=SampledFunction(grid, f),
        u0=SampledFunction(grid, u0),
        rhs_A=a_nodes,
        w_nodes=w,
        h_nodes=np.ones_like(nodes),
        warnings=tuple(warnings),
    )


def _improper_trend(values_at_decades) -> str:
    """Classify a running integral from its increments over the last decades."""
    i0, i1, i2 = values_at_decades
    d1 = i1 - i0
    d2 = i2 - i1
    if d1 <= 0:
        return "inconclusive"
    ratio = d2 / d1
    if ratio >= 0.95:
        return "diverging"
    if ratio <= 0.75:
        return "converging"
    return "inconclusive"


def build_barrier_schwarzschild(mu, m, rho1, rho2, beta, H0, rho_max=40.0, n=4000) -> BarrierFunction:
    """Radial barrier on the Schwarzschild exterior with the beta_1 shift.

    The prescribed bound is A = m H0 h with h = sqrt(V); positivity of A
    degenerates toward the horizon, so the construction lives on
    rho >= rho1 > rho_S.  beta_1 is the largest nonpositive shift meeting
    u0 at the rho2 sphere <= beta with C at its default ceiling 1; the
    feasibility floor -int dt/h is finite and an unreachable beta raises.
    """
    if not (rho2 > rho1 and rho_max > rho2 and H0 > 0):
        raise ValueError("need rho1 < rho2 < rho_max and H0 > 0")
    prof = schwarzschild_profile(mu, m)
    warp = schwarzschild_warp(mu, m)
    R = schwarzschild_s_of_rho(mu, m, rho1)
    r = schwarzschild_s_of_rho(mu, m, rho2)
    s_max = schwarzschild_s_of_rho(mu, m, rho_max)
    nodes, j = _uniform_grid_through(R, r, s_max, n)

    g, _, _ = prof.evaluate(nodes)
    h, _, _ = warp.evaluate(nodes)
    w = g ** (m - 1)

    def integrand(s):
        gg, _, _ = prof.evaluate(np.asarray(s, dtype=float))
        hh, _, _ = warp.evaluate(np.asarray(s, dtype=float))
        return m * H0 * hh * gg ** (m - 1)

    big_i = cumulative_quad(integrand, nodes, tol=1e-14)
    C = 1.0

    def height_at_control(beta1: float) -> float:
        f = (C * big_i + beta1) / w
        u0p = f / (h * np.sqrt(h * h + f * f))
        u0 = cumulative_order3(u0p, nodes)
        return float(u0[j])

    if height_at_control(0.0) <= beta:
        beta1 = 0.0
    else:
        lo = -1.0
        while height_at_control(lo) > beta:
            lo *= 2.0
            if lo < -1e12:
                raise ValueError(
                    "infeasible control height: u0 at the rho2 sphere is bounded below by "
                    "-int dt/h no matter how negative beta_1 is; beta is below that floor "
                    "with C at its ceiling"
                )
        from scipy.optimize import brentq  # deferred: keeps scipy out of import time

        beta1 = brentq(lambda b1: height_at_control(b1) - beta, lo, 0.0, xtol=1e-12)
        beta1 = min(beta1, 0.0)

    f = (C * big_i + beta1) / w
    u0p = f / (h * np.sqrt(h * h + f * f))
    u0 = cumulative_order3(u0p, nodes)

    warnings = []
    rho_probe = np.array([rho1 + 1.0, 1e2, 1e3, 1e4])

    def inv_v(t):
        return 1.0 / (1.0 - 2.0 * mu * np.asarray(t, dtype=float) ** (2 - m))

    limhr_vals = cumulative_quad(inv_v, rho_probe, tol=1e-10)[1:]
    trend = _improper_trend(limhr_vals)
    warnings.append(
        f"(limhr) probe int drho/V over [{rho1 + 1.0}, 1e4] = {limhr_vals[-1]:.6g}, trend {trend}"
    )
    if trend != "diverging":
        warnings.append("(limhr) probe did not classify as diverging")
    tail = _tail_min(nodes, f / h)
    warnings.append(f"(limAr) liminf probe of f/h over the tail = {tail:.6g}")
    if tail <= 0:
        warnings.append("(limAr) probe nonpositive: escape to infinity not ensured")

    grid = Grid(nodes, "uniform")
    return BarrierFunction(
        kind="schwarzschild",
        m=m,
        domain=(R, s_max),
        control=(r, beta),
        C=C,
        beta1=beta1,
        f=SampledFunction(grid, f),
        u0=SampledFunction(grid, u0),
        rhs_A=m * H0 * np.asarray(h, dtype=float),
        w_nodes=w,
        h_nodes=np.asarray(h, dtype=float),
        warnings=tuple(warnings),
    )


def verify_barrier(b: BarrierFunction, escape_level: float = ESCAPE_LEVEL, tol: float = 1e-7,
                   tol_scale: float = 1.0) -> list[EstimateReport]:
    """Grid verification of a constructed barrier; failures are verdicts.

    Checks: u0 vanishes at the inner anchor, the control-sphere height, the
    escape level before the domain end (with the tail liminf probe recorded),
    the spacelike gradient bound, and the pointwise flux-divergence residual
    (w f)'/w - A <= tol, which is exact up to the C <= 1 slack in model
    spaces.
    """
    nodes = b.grid.nodes
    ds = float(nodes[1] - nodes[0])
    u0 = b.u0.values
    f = b.f.values
    out = []

    out.append(make_report(
        "barrier-anchor", lhs=abs(u0[0]), rhs=0.0, margin=-abs(u0[0]),
        tol=1e-10 * tol_scale, grid_meta=f"n={nodes.size}",
    ))

    ctrl_s, ctrl_level = b.control
    j = int(np.argmin(np.abs(nodes - ctrl_s)))
    out.append(make_report(
        "barrier-control-height", lhs=u0[j], rhs=ctrl_level,
        margin=ctrl_level - u0[j], tol=1e-10 * tol_scale,
        grid_meta=f"control s={ctrl_s!r}",
    ))

    tail_slope = _tail_min(nodes, f / b.h_nodes)
    rep = make_report(
        "barrier-escape", lhs=escape_level, rhs=float(u0[-1]),
        margin=float(u0[-1]) - escape_level, tol=0.0,
        grid_meta=f"S_max={float(nodes[-1])!r}",
        notes=(f"tail liminf probe of f/h = {tail_slope:.6g}",),
    )
    tail_start = int(np.searchsorted(nodes, nodes[-1] / 2.0))
    if np.any(np.diff(u0[tail_start:]) < 0):
        rep = rep.with_note("u0 is not monotone on the tail")
    out.append(rep)

    hgrad = np.abs(b.h_nodes * fd_derivative(u0, ds))
    # the analytic gradient h u0' = f/sqrt(h^2+f^2) is available exactly
    exact = np.abs(f) / np.sqrt(b.h_nodes**2 + f * f)
    worst = float(np.max(exact))
    out.append(make_report(
        "barrier-spacelike", lhs=worst, rhs=1.0, margin=1.0 - worst, tol=0.0,
        notes=(f"finite-difference cross-check max h|u0'| = {np.max(hgrad):.12g}",),
    ))

    flux = b.w_nodes * f
    dflux = fd_derivative(flux, ds)
    resid = dflux / b.w_nodes - b.rhs_A
    worst_resid = float(np.max(resid[2:-2]))
    out.append(make_report(
        "barrier-divergence-residual", lhs=worst_resid, rhs=0.0,
        margin=-worst_resid, tol=tol * tol_scale,
        grid_meta=f"n={nodes.size} ds={ds:.3e}",
        notes=(f"slack expected: (C-1) A <= 0 with C = {b.C!r}",) + b.warnings,
    ))
    return out


def export_barrier_csv(b: BarrierFunction, path) -> None:
    nodes = b.grid.nodes
    ds = float(nodes[1] - nodes[0])
    resid = fd_derivative(b.w_nodes * b.f.values, ds) / b.w_nodes - b.rhs_A
    with open(path, "w", newline="\n") as fh:
        fh.write("s,f,u0,residual\n")
        for i, s in enumerate(nodes):
            fh.write(f"{float(s)!r},{float(b.f.values[i])!r},"
                     f"{float(b.u0.values[i])!r},{float(resid[i])!r}\n")
