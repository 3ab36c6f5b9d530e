"""Discrete radial divergence-form Lorentzian mean-curvature operator.

The operator div(q^2 Du / sqrt(1 - q^2 |Du|^2)) is discretised with
face-centred fluxes against the radial weight w = g^{m-1}:

    Phi_{i+1/2} = qbar^2 d / sqrt(1 - qbar^2 d^2),   d = (u_{i+1}-u_i)/ds,
    r_i = (w_{i+1/2} Phi_{i+1/2} - w_{i-1/2} Phi_{i-1/2}) / (w_i ds_i) - H_i.

Face-centred fluxes preserve the divergence structure, so the interior sum
of w ds r telescopes to boundary fluxes minus the load: the discrete
divergence theorem that underpins the comparison principle.  A hard
projection keeps face slopes below the spacelike cap 1 - 1e-6 (the
continuum problem forbids |q Du| >= 1 and near-null states wreck the
Jacobian conditioning); the cap is the constant ``SLOPE_CAP``, logged with
each exported solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import StaticModel
from .numerics import Grid, SampledFunction
from .reporting import EstimateReport, make_report, precondition_failure, write_table

__all__ = [
    "MeshOperator",
    "DirichletProblem",
    "SlopeCapError",
    "NewtonStagnationError",
    "residual",
    "face_slopes",
    "divergence_telescope",
    "newton_solve",
    "comparison_check",
    "export_solution_csv",
]

SLOPE_CAP = 1.0 - 1e-6
COMPARISON_TOL = 1e-8  # report tolerance of the comparison-principle check


class SlopeCapError(ValueError):
    def __init__(self, faces):
        super().__init__(f"spacelike face-slope cap exceeded at faces {list(faces)!r}")
        self.faces = tuple(faces)


class NewtonStagnationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MeshOperator:
    """Grid plus face data of the discrete operator.

    ``w_nodes``/``w_faces`` sample the radial measure g^{m-1}; ``q_faces``
    the coefficient (the warp h) at face midpoints.  ``slope_cap`` is
    ``SLOPE_CAP`` for every operator.  The arrays no Newton step changes are
    formed once: ``ds_faces`` (face widths), ``q2_faces`` (q^2),
    ``w_ds`` (w ds at interior nodes) and ``slope_limits`` (cap / q).
    """

    grid: Grid
    w_nodes: np.ndarray
    w_faces: np.ndarray
    q_faces: np.ndarray
    slope_cap = SLOPE_CAP

    def __post_init__(self):
        s = self.grid.nodes
        ds = np.diff(s)
        if np.max(ds) > 10.0 * np.min(ds):
            raise ValueError("degenerate mesh: cell sizes vary by more than 10x")
        for name, arr, size, hint in (
            ("w_nodes", self.w_nodes, len(self.grid), " (keep the pole off the mesh)"),
            ("w_faces", self.w_faces, len(self.grid) - 1, ""),
            ("q_faces", self.q_faces, len(self.grid) - 1, ""),
        ):
            a = np.asarray(arr, dtype=float)
            object.__setattr__(self, name, a)
            if a.size != size:
                raise ValueError(f"{name} has wrong length")
            if np.any(a <= 0):
                raise ValueError(f"{name} must be positive{hint}")
        object.__setattr__(self, "ds_faces", ds)
        object.__setattr__(self, "q2_faces", self.q_faces**2)
        object.__setattr__(self, "w_ds", self.w_nodes[1:-1] * (0.5 * (s[2:] - s[:-2])))  # dual cells at interior nodes
        object.__setattr__(self, "slope_limits", self.slope_cap / self.q_faces)

    @classmethod
    def from_model(cls, model: StaticModel, grid: Grid) -> "MeshOperator":
        at_faces = model.sample(0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
        return cls(grid=grid, w_nodes=model.sample(grid.nodes).w, w_faces=at_faces.w, q_faces=at_faces.h)


def _node_values(u) -> np.ndarray:
    """Node values of a SampledFunction, or ``u`` itself as a float array."""
    return u.values if isinstance(u, SampledFunction) else np.asarray(u, dtype=float)


def _load(op: MeshOperator, rhs) -> np.ndarray:
    """The load on the operator's nodes; a scalar is taken as constant."""
    rv = np.asarray(rhs, dtype=float)
    return np.full(len(op.grid), float(rv)) if rv.size == 1 else rv


def face_slopes(op: MeshOperator, u: np.ndarray) -> np.ndarray:
    return np.diff(np.asarray(u, dtype=float)) / op.ds_faces


def _face_flux(op: MeshOperator, u: np.ndarray) -> np.ndarray:
    d = face_slopes(op, u)
    qd = op.q_faces * d
    over = np.abs(qd) > op.slope_cap
    if np.any(over):
        raise SlopeCapError(np.flatnonzero(over))
    return op.q2_faces * d / np.sqrt(1.0 - qd * qd)


def residual(op: MeshOperator, u, rhs) -> np.ndarray:
    """Interior residual of the discrete operator against the load.

    ``u`` may be a SampledFunction or an array on the operator grid.
    """
    uv = _node_values(u)
    rv = _load(op, rhs)
    phi = _face_flux(op, uv)
    flux = op.w_faces * phi
    return (flux[1:] - flux[:-1]) / op.w_ds - rv[1:-1]


def divergence_telescope(op: MeshOperator, u, rhs) -> float:
    """Residual of the discrete divergence theorem (should be ~ roundoff).

    sum_i w_i ds_i r_i telescopes to the boundary flux difference minus the
    integrated load; the skeleton of the continuum divergence identity.
    """
    uv = _node_values(u)
    rv = _load(op, rhs)
    r = residual(op, uv, rv)
    flux = op.w_faces * _face_flux(op, uv)
    lhs = float(np.sum(op.w_ds * r))
    rhs_val = float(flux[-1] - flux[0] - np.sum(op.w_ds * rv[1:-1]))
    return abs(lhs - rhs_val)


@dataclass(frozen=True)
class DirichletProblem:
    operator: MeshOperator
    rhs: np.ndarray
    bc: tuple[float, float]

    def __post_init__(self):
        rv = _load(self.operator, self.rhs)
        object.__setattr__(self, "rhs", rv)
        if rv.size != len(self.operator.grid):
            raise ValueError("rhs must be sampled on the grid")
        if not np.all(np.isfinite(rv)) or not np.all(np.isfinite(self.bc)):
            raise ValueError("rhs and boundary values must be finite")


def _jacobian_bands(op: MeshOperator, u: np.ndarray):
    """Bands of -S, where the residual's Jacobian is D^{-1} S with D = w ds: S_ii = -(c_i + c_{i+1}) and
    S_{i,i+1} = c_{i+1} for the face coefficients c = w dPhi/dd / ds > 0, so -S is positive definite."""
    qd = op.q_faces * face_slopes(op, u)
    dphi = op.q2_faces / (1.0 - qd * qd) ** 1.5  # dPhi/dd > 0: discrete ellipticity
    coeff = op.w_faces * dphi / op.ds_faces
    return coeff[1:] + coeff[:-1], -coeff[1:-1]


def _spd_solve(diag, off, rhs) -> np.ndarray:
    """Solve a positive definite tridiagonal system by one LDL^T factorisation (LAPACK ``dpttrf``).

    ``dpttrs`` solves with the factors, and again for one sweep of iterative
    refinement: near-null Jacobians are badly conditioned and a single direct
    solve loses digits the Newton iteration cannot recover on its own.  A
    matrix that is not positive definite raises ``NewtonStagnationError``.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    d, e, info = dpttrf(diag, off if off.size else np.zeros(1))  # the wrapper rejects an empty band
    if info != 0:
        raise NewtonStagnationError(f"Jacobian not definite: pivot {info} of {diag.size} fails")
    x = dpttrs(d, e, rhs)[0]
    lin_res = diag * x - rhs
    lin_res[:-1] += off * x[1:]
    lin_res[1:] += off * x[:-1]
    return x - dpttrs(d, e, lin_res)[0]


def _clip_step(op: MeshOperator, u: np.ndarray, delta_interior: np.ndarray) -> float:
    """Largest step fraction keeping every face slope within the cap."""
    delta = np.zeros_like(u)
    delta[1:-1] = delta_interior
    d_u, d_delta = face_slopes(op, u), face_slopes(op, delta)
    moving = d_delta != 0.0
    d_u, dd, cap = d_u[moving], d_delta[moving], op.slope_limits[moving]
    # |du + alpha dd| <= c holds up to the larger of the two roots
    hi = (cap - d_u) / dd
    lo = (-cap - d_u) / dd
    hi = np.where(hi > lo, hi, lo)
    return float(np.min(np.where(hi > 0, hi, 0.0), initial=1.0))


def _solve_fixed_rhs(problem: DirichletProblem, u0: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    op = problem.operator
    u = u0.copy()
    r = residual(op, u, problem.rhs)
    for _ in range(max_iter):
        norm = float(np.max(np.abs(r)))
        if norm <= tol:
            return u
        diag, off = _jacobian_bands(op, u)
        # rounding u_i by eps |u| moves r_i by up to eps max|u| max|J_ii|:
        # below this no step can be told from rounding noise
        floor = np.finfo(float).eps * float(np.max(np.abs(u))) * float(np.max(diag / op.w_ds))
        # J delta = -r with J = D^{-1} S is (-S) delta = D r
        delta = _spd_solve(diag, off, op.w_ds * r)
        clip = _clip_step(op, u, delta)
        alpha = 1.0 if clip >= 1.0 else 0.999 * clip
        if alpha <= 0:
            raise NewtonStagnationError(f"step fully clipped by the spacelike cap (residual {norm:.3e})")
        # backtracking on the residual norm
        while alpha > 1e-14:
            trial = u.copy()
            trial[1:-1] += alpha * delta
            try:
                r_trial = residual(op, trial, problem.rhs)
            except SlopeCapError:
                alpha *= 0.5
                continue
            if float(np.max(np.abs(r_trial))) < norm:
                u, r = trial, r_trial
                break
            if norm <= floor:
                return u
            alpha *= 0.5
        else:
            raise NewtonStagnationError(
                f"damped Newton stagnated: step < 1e-14 with residual {norm:.3e} > tol {tol:.3e}"
            )
    norm = float(np.max(np.abs(r)))
    if norm <= tol:
        return u
    raise NewtonStagnationError(f"no convergence in {max_iter} iterations (residual {norm:.3e})")


def newton_solve(problem: DirichletProblem, tol: float = 1e-9, max_iter: int = 60) -> SampledFunction:
    """Damped Newton with analytic tridiagonal Jacobian and load continuation.

    The Jacobian is D^{-1} S with D = w ds and S symmetric negative
    definite, so each step solves (-S) delta = D r by one LDL^T
    factorisation.  The cold start is the linear interpolant of the boundary
    data (which must itself be spacelike).  Iteration stops once the max-norm residual is at
    most ``tol``, or at the rounding floor eps max|u| max|J_ii| (about
    eps |u| / ds^2): a step that fails to lower a residual already below the
    floor returns the current iterate.  The floor is an exit, never the
    target; callers read the residual reached from :func:`residual`.  If the
    cold solve raises, the load is ramped in four continuation stages with
    warm starts.  ``NewtonStagnationError`` means the iteration budget ran
    out, descent failed above the floor, the step was fully clipped, or the
    factorisation found -S not positive definite.
    """
    op = problem.operator
    s = op.grid.nodes
    u_lin = problem.bc[0] + (problem.bc[1] - problem.bc[0]) * (s - s[0]) / (s[-1] - s[0])
    lin_slope = abs(problem.bc[1] - problem.bc[0]) / (s[-1] - s[0])
    if np.any(op.q_faces * lin_slope >= op.slope_cap):
        raise ValueError("boundary data does not admit a spacelike linear interpolant")
    try:
        u = _solve_fixed_rhs(problem, u_lin, tol, max_iter)
    except NewtonStagnationError:
        u = u_lin
        for t in (0.25, 0.5, 0.75, 1.0):
            staged = DirichletProblem(op, t * problem.rhs, problem.bc)
            u = _solve_fixed_rhs(staged, u, tol, max_iter)
    return SampledFunction(op.grid, u)


def comparison_check(op: MeshOperator, u, v) -> EstimateReport:
    """Discrete comparison principle at zero load: ordered operators and boundary imply order.

    Precondition violations (operator ordering or boundary ordering) yield a
    distinct precondition-failure verdict rather than a comparison failure.
    """
    uv = _node_values(u)
    vv = _node_values(v)
    try:
        ru = residual(op, uv, 0.0)
        rv = residual(op, vv, 0.0)
    except SlopeCapError as exc:
        return precondition_failure(
            "comparison-principle", tol=COMPARISON_TOL,
            notes=("esssup q|Du| < 1 hypothesis violated: " + str(exc),),
        )
    notes = []
    ok = True
    if not np.all(ru <= rv + 1e-10):
        ok = False
        notes.append(f"operator ordering violated by {float(np.max(ru - rv)):.3e}")
    if not (uv[0] >= vv[0] - 1e-12 and uv[-1] >= vv[-1] - 1e-12):
        ok = False
        notes.append("boundary ordering u >= v violated")
    if not ok:
        return precondition_failure("comparison-principle", tol=COMPARISON_TOL, notes=tuple(notes))
    gap = float(np.min(uv - vv))
    return make_report(
        "comparison-principle", lhs=float(np.min(vv - uv)), rhs=0.0, margin=gap, tol=COMPARISON_TOL,
        grid_meta=f"n={len(op.grid)}",
    )


def export_solution_csv(op: MeshOperator, u, rhs, path) -> None:
    """Write `s,u` plus a sidecar .meta.txt with the q, w, H descriptors."""
    uv = _node_values(u)
    rv = _load(op, rhs)
    write_table(path, "s,u", (op.grid.nodes, uv))
    # the last node repeats the last face's q
    q = np.append(op.q_faces, op.q_faces[-1])
    write_table(str(path) + ".meta.txt", f"slope_cap {float(op.slope_cap)!r}\ns w q_face(right) H",
                (op.grid.nodes, op.w_nodes, q, rv), sep=" ")
