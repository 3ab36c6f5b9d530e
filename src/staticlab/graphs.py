"""Radial spacelike graphs via the first-integral reduction.

For a radial height function tau on a model with profile g and warp h, the
prescribed mean curvature equation reduces to the linear flux law

    F' = m H h g^{m-1},     F = g^{m-1} h^2 tau' / sqrt(1 - h^2 tau'^2),

and the slope is recovered from F by a globally solvable algebraic
inversion: with W = F/g^{m-1},

    tau' = W / (h sqrt(h^2 + W^2)),      cosh(theta) = sqrt(h^2 + W^2) / h.

The flux, not the slope, is the primary state: the flux ODE never
degenerates and the inversion keeps every solution automatically spacelike
(h |tau'| < 1).  The future-directed orientation is pinned so H > 0 means
flux increasing outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import StaticModel
from .numerics import Grid, cumulative_order3, cumulative_quad, fd_derivative
from .reporting import EstimateReport, make_report, write_table

__all__ = [
    "MeanCurvSpec",
    "constant_H",
    "zero_H",
    "Anchor",
    "RadialGraph",
    "FluxBlowUpError",
    "flux_from_H",
    "slope_from_flux",
    "solve_radial_graph",
    "gauge_consistency_check",
    "export_graph_csv",
]


class FluxBlowUpError(RuntimeError):
    def __init__(self, s: float):
        super().__init__(f"flux integral blew up at s = {s!r}")
        self.s = s


@dataclass(frozen=True)
class MeanCurvSpec:
    """Prescribed mean curvature in the direction of the future normal."""

    kind: str  # 'constant' | 'radial' | 'zero'
    H0: float = 0.0
    H_fn: object = None

    def value(self, s):
        s_arr = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s_arr)
        if self.kind == "constant":
            return np.full_like(s_arr, self.H0)
        return np.asarray(self.H_fn(s_arr), dtype=float)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


def constant_H(H0: float) -> MeanCurvSpec:
    return MeanCurvSpec("constant", H0=H0)


def zero_H() -> MeanCurvSpec:
    return MeanCurvSpec("zero")


@dataclass(frozen=True)
class Anchor:
    """Either pole-regular (F(0) = 0) or a point anchor (s0, tau0, F0)."""

    kind: str  # 'pole' | 'point'
    s0: float = 0.0
    tau0: float = 0.0
    F0: float = 0.0

    @classmethod
    def pole(cls, tau0: float = 0.0) -> "Anchor":
        return cls("pole", s0=0.0, tau0=tau0, F0=0.0)

    @classmethod
    def point(cls, s0: float, tau0: float = 0.0, F0: float = 0.0) -> "Anchor":
        return cls("point", s0=s0, tau0=tau0, F0=F0)


@dataclass(frozen=True)
class RadialGraph:
    """A sampled radial graph with its flux, slope and angle profiles."""

    model: StaticModel
    grid: Grid
    tau: np.ndarray
    flux: np.ndarray
    slope: np.ndarray
    cosh_theta: np.ndarray
    anchor: Anchor

    def __post_init__(self):
        for name in ("tau", "flux", "slope", "cosh_theta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != self.grid.nodes.shape:
                raise ValueError(f"{name} must be sampled on the grid")
        smp = self.model.sample(self.grid.nodes)
        h, w = smp.h, smp.w
        if np.any(np.abs(h * self.slope) >= 1.0):
            raise ValueError("graph is not spacelike: h |tau'| >= 1 at a node")
        safe = w > 1e-8
        rec = w[safe] * h[safe] ** 2 * self.slope[safe] / np.sqrt(
            1.0 - (h[safe] * self.slope[safe]) ** 2
        )
        resid = np.max(np.abs(rec - self.flux[safe])) if np.any(safe) else 0.0
        if resid > 1e-8 * max(1.0, float(np.max(np.abs(self.flux)))):
            raise ValueError(f"flux reconstruction residual {resid:.3e} exceeds 1e-8")

    @property
    def pole_regular(self) -> bool:
        return self.anchor.kind == "pole"

    def flux_constancy(self) -> float:
        return float(np.max(self.flux) - np.min(self.flux))

    def node_index(self, s: float) -> int:
        i = int(np.argmin(np.abs(self.grid.nodes - s)))
        if abs(self.grid.nodes[i] - s) > 1e-9 * max(1.0, abs(s)):
            raise ValueError(f"s = {s!r} is not a grid node")
        return i


def _anchor_index(grid: Grid, anchor: Anchor) -> int:
    if anchor.kind == "pole":
        if grid.a != 0.0:
            raise ValueError("pole anchor needs a grid starting at s = 0")
        return 0
    i = int(np.argmin(np.abs(grid.nodes - anchor.s0)))
    if abs(grid.nodes[i] - anchor.s0) > 1e-9 * max(1.0, abs(anchor.s0)):
        raise ValueError("point anchor s0 must coincide with a grid node")
    return i


def _flux_density(model: StaticModel, H):
    """s -> H(s) h(s) g(s)^{m-1}: the flux law's F'/m for a vectorised mean curvature H."""

    def density(s):
        smp = model.sample(s)
        return H(s) * smp.h * smp.w

    return density


def flux_from_H(model: StaticModel, spec: MeanCurvSpec, anchor: Anchor, grid: Grid) -> np.ndarray:
    """Flux profile F(s) = F0 + m int_{s0}^{s} H h g^{m-1} on the grid nodes."""
    if anchor.kind == "pole" and not model.base.pole_anchored:
        raise ValueError("pole anchor requires a pole-anchored base (annulus domain given)")
    idx = _anchor_index(grid, anchor)
    if spec.is_zero:
        return np.full(len(grid), anchor.F0)

    with np.errstate(all="ignore"):  # non-finite loads are reported, not warned
        cum = cumulative_quad(_flux_density(model, spec.value), grid.nodes, tol=1e-14)
    flux = anchor.F0 + model.m * (cum - cum[idx])
    if not np.all(np.isfinite(flux)):
        bad = int(np.flatnonzero(~np.isfinite(flux))[0])
        raise FluxBlowUpError(float(grid.nodes[bad]))
    return flux


def slope_from_flux(model: StaticModel, F, s):
    """(tau', cosh theta) from the flux; the inversion is globally solvable.

    With W = F/g^{m-1}: h tau' = W/sqrt(h^2+W^2) < 1 automatically, which is
    the structural fact that lets the flux be the primary state.
    """
    smp = model.sample(s)
    h, w = smp.h, smp.w
    with np.errstate(divide="ignore", invalid="ignore"):
        W = np.where(w > 0, np.asarray(F, dtype=float) / np.where(w > 0, w, 1.0), 0.0)
    return _invert(W, h)


def _invert(W, h):
    """(tau', cosh theta) from W = F/g^{m-1} and the warp h on the same nodes."""
    root = np.sqrt(h * h + W * W)
    return W / (h * root), root / h


def solve_radial_graph(model: StaticModel, spec: MeanCurvSpec, anchor: Anchor, grid: Grid) -> RadialGraph:
    """Solve the radial prescribed-curvature problem on the grid.

    The height is the third-order cumulative integral of the sampled slope,
    so mesh refinement studies see the quadrature order; the flux itself is
    computed to near machine accuracy.  A grid reaching past the model's
    radial domain raises :class:`~staticlab.geometry.DomainError`.
    """
    model.base.check_domain((grid.a, grid.b))
    flux = flux_from_H(model, spec, anchor, grid)
    slope, cosh_theta = slope_from_flux(model, flux, grid.nodes)
    tau = cumulative_order3(slope, grid.nodes)
    idx = _anchor_index(grid, anchor)
    tau = anchor.tau0 + tau - tau[idx]
    return RadialGraph(model, grid, tau, flux, slope, cosh_theta, anchor)


def gauge_consistency_check(graph: RadialGraph, tol: float = 1e-6) -> EstimateReport:
    """Recover m H from both gauges and report the worst mismatch.

    Route one differentiates the flux (the divergence form in the pulled-back
    base metric); route two evaluates the induced-metric Laplacian of tau
    plus the warp gradient term, divided by cosh theta.  Both use
    fourth-order stencils on the interior of a uniform grid.
    """
    s = graph.grid.nodes
    if s.size < 7:
        raise ValueError("gauge check needs at least three interior nodes")
    ds = float(s[1] - s[0])
    if np.max(np.abs(np.diff(s) - ds)) > 1e-6 * ds:
        raise ValueError("gauge check needs a uniform grid")
    model = graph.model
    smp = model.sample(s)
    h, dh, w = smp.h, smp.dh, smp.w

    # interior window, away from a possible pole node
    lo = 2 if s[0] > 0 else max(2, int(np.ceil(1e-6 / ds)) + 1)
    hi = s.size - 2

    mh1 = fd_derivative(graph.flux, ds)[lo:hi] / (h[lo:hi] * w[lo:hi])

    a = np.sqrt(1.0 - (h * graph.slope) ** 2)
    q = w * graph.slope / a
    dq = fd_derivative(q, ds)[lo:hi]
    lap_g = dq / (a[lo:hi] * w[lo:hi])
    grad_term = 2.0 * dh[lo:hi] * graph.slope[lo:hi] / (a[lo:hi] ** 2)
    mh2 = (h[lo:hi] * lap_g + grad_term) * a[lo:hi]  # divide by cosh = multiply by a

    mismatch = float(np.max(np.abs(mh1 - mh2)))
    rel = mismatch / (1.0 + float(np.max(np.abs(mh1))))
    return make_report(
        "gauge-consistency",
        lhs=rel,
        rhs=tol,
        margin=tol - rel,
        tol=0.0,
        grid_meta=f"n={s.size} uniform ds={ds:.3e}",
        notes=(f"max abs mismatch {mismatch:.3e}",),
    )


def export_graph_csv(graph: RadialGraph, path) -> None:
    write_table(path, "s,tau,slope,flux,cosh_theta",
                (graph.grid.nodes, graph.tau, graph.slope, graph.flux, graph.cosh_theta))
