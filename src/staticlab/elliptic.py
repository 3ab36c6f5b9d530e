"""Discrete radial divergence-form Lorentzian mean-curvature operator.

The operator div(q^2 Du / sqrt(1 - q^2 |Du|^2)) is discretised with
face-centred fluxes against the radial weight w = g^{m-1}:

    Phi_{i+1/2} = qbar^2 d / sqrt(1 - qbar^2 d^2),   d = (u_{i+1}-u_i)/ds,
    r_i = (w_{i+1/2} Phi_{i+1/2} - w_{i-1/2} Phi_{i-1/2}) / (w_i ds_i) - H_i.

Face-centred fluxes preserve the divergence structure, so the interior sum
of w ds r telescopes to boundary fluxes minus the load: the discrete
divergence theorem that underpins the comparison principle, and the first
integral by which :func:`newton_solve` solves the Dirichlet problem.  Face
slopes must stay below the spacelike cap 1 - 1e-6 (the continuum problem
forbids |q Du| >= 1, and near-null faces amplify rounding in the flux by
(1 - q^2 d^2)^{-3/2}): the residual and the solve raise ``SlopeCapError``
past it.  The cap is the constant ``SLOPE_CAP``, logged with each exported
solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import StaticModel
from .numerics import Grid, SampledFunction, brentq
from .reporting import EstimateReport, make_report, precondition_failure, write_table

__all__ = [
    "MeshOperator",
    "DirichletProblem",
    "SlopeCapError",
    "residual",
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


@dataclass(frozen=True)
class MeshOperator:
    """Grid plus face data of the discrete operator.

    ``w_nodes``/``w_faces`` sample the radial measure g^{m-1}; ``q_faces``
    the coefficient (the warp h) at face midpoints.  ``slope_cap`` is
    ``SLOPE_CAP`` for every operator.  The arrays no solve changes are
    formed once: ``ds_faces`` (face widths), ``q2_faces`` (q^2) and
    ``w_ds`` (w ds at interior nodes).
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


def _face_flux(op: MeshOperator, u: np.ndarray) -> np.ndarray:
    d = np.diff(u) / op.ds_faces
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


def newton_solve(problem: DirichletProblem) -> SampledFunction:
    """Solve the discrete Dirichlet problem by its first integral.

    The load does not depend on u, so the discrete divergence theorem fixes
    each face flux up to one constant: F_k = c + P_k, P_k the sum of w ds H
    over the interior nodes up to k.  With y = F/(w q) the face slope is
    d = y/(q sqrt(1 + y^2)), and sum d ds rises strictly in c from -sum ds/q
    to +sum ds/q.  So a solution exists, and is unique, exactly when
    |u(b) - u(a)| < sum ds/q (the discrete radial form of Bartnik and Simon's
    acausal data, Comm. Math. Phys. 87, 1982); other data raise
    ``ValueError``.  ``brentq`` finds c from a doubling bracket, to a
    tolerance relative to the flux scale max(|c|, max|P|).  u is a prefix
    sum of d ds compensated by TwoSum (Neumaier, ZAMM 54, 1974), so the
    residual sits at the rounding floor eps max|u| max|J_ii|.  A face past
    ``SLOPE_CAP`` raises ``SlopeCapError``.  The benchmark's ops call this
    name; it becomes ``dirichlet_solve`` with the benchmark refresh.
    """
    op, (left, right) = problem.operator, problem.bc
    wq, ds_q = op.w_faces * op.q_faces, op.ds_faces / op.q_faces
    prefix = np.concatenate(([0.0], np.cumsum(op.w_ds * problem.rhs[1:-1])))
    jump, reach = right - left, float(np.sum(ds_q))
    if abs(jump) >= reach:
        raise ValueError(f"boundary data is not spacelike: |u(b) - u(a)| = {abs(jump):.6g} "
                         f"is not below sum ds/q = {reach:.6g}")

    def tilt(c):  # q d on each face
        y = (c + prefix) / wq
        return y / np.sqrt(1.0 + y * y)

    known = {}  # brentq starts by evaluating the bracket ends found below

    def excess(c):
        if c not in known:
            known[c] = float(np.dot(tilt(c), ds_q)) - jump
        return known[c]

    # start from the flux of a graph with the mean tilt jump/reach, and double outward to a bracket
    t, scale = jump / reach, float(np.max(np.abs(prefix)))
    near = t / math.sqrt(1.0 - t * t) * float(np.mean(wq)) - float(np.mean(prefix))
    step, sign = max(abs(near), scale, np.finfo(float).tiny), 1.0 if excess(near) < 0 else -1.0
    while math.isfinite(far := near + sign * step) and sign * excess(far) < 0:
        near, step = far, 2.0 * step
    if not math.isfinite(far):
        raise ValueError(f"boundary data is not spacelike within rounding (sum ds/q = {reach:.6g})")
    c = brentq(excess, min(near, far), max(near, far), np.finfo(float).eps * max(abs(near), abs(far), scale))
    qd = tilt(c)
    over = np.abs(qd) > op.slope_cap
    if np.any(over):
        raise SlopeCapError(np.flatnonzero(over))
    steps = np.concatenate(([left], qd * ds_q))
    run = np.cumsum(steps)  # np.cumsum adds in sequence, so TwoSum recovers each step's rounding error
    prev = np.concatenate(([0.0], run[:-1]))
    back = run - prev
    u = run + np.cumsum((prev - (run - back)) + (steps - back))
    u[-1] = right
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
