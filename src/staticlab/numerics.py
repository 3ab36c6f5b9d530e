"""Deterministic numerical primitives shared by the whole laboratory.

Everything here is double precision, tolerance-explicit and free of hidden
state: adaptive Simpson quadrature (scalar, and a cumulative form that
refines unresolved intervals in vectorised batches, one integrand call
per level), classical RK4 integration, a cyclic Jacobi eigensolver for the
small symmetric matrices of the pointwise algebra, and a Thomas solver for
the tridiagonal systems of the radial finite-difference machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_QUAD_TOL = 1e-10
_MAX_QUAD_DEPTH = 48
_MAX_BATCH_PANELS = 4096


class QuadratureError(RuntimeError):
    """Adaptive refinement hit its depth cap before reaching the tolerance."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


class OdeBlowUpError(RuntimeError):
    """RK4 trajectory left the finite range; carries the offending abscissa."""

    def __init__(self, s: float):
        super().__init__(f"non-finite ODE state encountered at s = {s!r}")
        self.s = s


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae s_0 < ... < s_N with N >= 8."""

    nodes: np.ndarray
    spacing_kind: str = "uniform"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 9:
            raise ValueError("grid needs at least 9 nodes (N >= 8)")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if self.spacing_kind not in ("uniform", "geometric"):
            raise ValueError(f"unknown spacing kind {self.spacing_kind!r}")

    @classmethod
    def uniform(cls, a: float, b: float, num: int) -> "Grid":
        return cls(np.linspace(a, b, num), "uniform")

    @classmethod
    def geometric(cls, a: float, b: float, num: int) -> "Grid":
        if a <= 0:
            raise ValueError("geometric grids need a > 0")
        return cls(np.geomspace(a, b, num), "geometric")

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


@dataclass(frozen=True)
class SampledFunction:
    """Function values sampled on a grid, one value per node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid node count")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")

    def __call__(self, s: float) -> float:
        return float(np.interp(s, self.grid.nodes, self.values))


def _simpson(fa, fm, fb, h):
    return h * (fa + 4.0 * fm + fb) / 6.0


def quad(f, a: float, b: float, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Adaptive composite Simpson integral of ``f`` over [a, b].

    The absolute error estimate (Richardson, |S2 - S1|/15 per panel) is kept
    below ``tol``.  Raises :class:`QuadratureError` with the last estimate if
    the refinement depth cap is reached.
    """
    if not a < b:
        raise ValueError("quad requires a < b")
    if not tol > 0:
        raise ValueError("quad requires tol > 0")

    def rec(x0, x2, f0, f1, f2, whole, tol_local, depth):
        x1 = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = f(xl)
        fr = f(xr)
        left = _simpson(f0, fl, f1, x1 - x0)
        right = _simpson(f1, fr, f2, x2 - x1)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol_local:
            return left + right + err
        if depth >= _MAX_QUAD_DEPTH or (x2 - x0) <= 4e-16 * max(1.0, abs(x0), abs(x2)):
            raise QuadratureError(
                f"quad: no convergence on [{x0}, {x2}] after depth {depth}",
                last_estimate=left + right + err,
            )
        return rec(x0, x1, f0, fl, f1, left, 0.5 * tol_local, depth + 1) + rec(
            x1, x2, f1, fr, f2, right, 0.5 * tol_local, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return rec(a, b, fa, fm, fb, whole, tol, 0)


def _adaptive_simpson_batch(f, x0, x2, f0, fm, f2, whole, tol):
    """Adaptive Simpson integral of ``f`` over each panel [x0_i, x2_i], batched.

    Same panel rule as :func:`quad` (``whole`` is each panel's one-panel
    Simpson value, ``tol`` its error tolerance), but each step evaluates
    ``f`` once on the quarter points of a whole batch of unresolved panels.
    Batches are refined deepest first and capped at ``_MAX_BATCH_PANELS``:
    near a non-integrable singularity the unresolved panels multiply with
    every level, and going deep first bounds memory and finds the panel that
    cannot be resolved as early as the scalar recursion does.
    """
    total = np.zeros(x0.size)
    stack = [(0, x0, x2, f0, fm, f2, whole, tol, np.arange(x0.size))]
    while stack:
        depth, x0, x2, f0, fm, f2, whole, tol, owner = stack.pop()
        x1 = 0.5 * (x0 + x2)
        n = x0.size
        quarter = f(np.concatenate((0.5 * (x0 + x1), 0.5 * (x1 + x2))))
        fl, fr = quarter[:n], quarter[n:]
        left = _simpson(f0, fl, fm, x1 - x0)
        right = _simpson(fm, fr, f2, x2 - x1)
        err = (left + right - whole) / 15.0
        value = left + right + err
        ok = np.abs(err) <= tol
        total += np.bincount(owner[ok], weights=value[ok], minlength=total.size)
        bad = ~ok
        if not bad.any():
            continue
        floor = (x2 - x0) <= 4e-16 * np.maximum(1.0, np.maximum(np.abs(x0), np.abs(x2)))
        stuck = bad & floor if depth < _MAX_QUAD_DEPTH else bad
        if stuck.any():
            k = int(np.flatnonzero(stuck)[0])
            raise QuadratureError(
                f"quad: no convergence on [{x0[k]}, {x2[k]}] after depth {depth}",
                last_estimate=float(value[k]),
            )
        x0, x1, x2 = x0[bad], x1[bad], x2[bad]
        f0, fl, fm, fr, f2 = f0[bad], fl[bad], fm[bad], fr[bad], f2[bad]
        children = (
            np.concatenate((x0, x1)),
            np.concatenate((x1, x2)),
            np.concatenate((f0, fm)),
            np.concatenate((fl, fr)),
            np.concatenate((fm, f2)),
            np.concatenate((left[bad], right[bad])),
            np.tile(0.5 * tol[bad], 2),
            np.tile(owner[bad], 2),
        )
        for start in reversed(range(0, 2 * x0.size, _MAX_BATCH_PANELS)):
            stack.append((depth + 1, *(c[start:start + _MAX_BATCH_PANELS] for c in children)))
    return total


def cumulative_quad(f, nodes: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Antiderivative values I(s_i) = int_{s_0}^{s_i} f, vectorised per interval.

    ``f`` must accept numpy arrays.  Each interval gets a two-panel Simpson
    value with a Richardson error check.  Intervals failing the check are
    refined together by adaptive Simpson under the panel rule of
    :func:`quad` (tolerance halved per level, same depth cap and width
    floor), with ``f`` called once per refinement level on the quarter
    points of all unresolved panels (in batches of at most
    ``_MAX_BATCH_PANELS``).  Raises :class:`QuadratureError` when a panel
    cannot be resolved.
    """
    nodes = np.asarray(nodes, dtype=float)
    a = nodes[:-1]
    b = nodes[1:]
    h = b - a
    f0 = f(a)
    f1 = f(a + 0.25 * h)
    f2 = f(a + 0.5 * h)
    f3 = f(a + 0.75 * h)
    f4 = f(b)
    coarse = h * (f0 + 4.0 * f2 + f4) / 6.0
    fine = h * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4) / 12.0
    err = np.abs(fine - coarse) / 15.0
    inc = fine + (fine - coarse) / 15.0
    # scale-aware threshold: tol is relative to each increment, floored by tol;
    # non-finite increments are passed through for the caller to report
    thresh = np.maximum(tol, tol * np.abs(inc))
    bad = (err > thresh) & np.isfinite(inc)
    if bad.any():
        inc[bad] = _adaptive_simpson_batch(
            f, a[bad], b[bad], f0[bad], f2[bad], f4[bad], coarse[bad], thresh[bad]
        )
    out = np.empty(nodes.size)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def cumulative_order3(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Third-order cumulative integral of node samples.

    Integrates the quadratic through three neighbouring nodes over each
    interval (one-sided at the left edge).  Deliberately grid-limited: the
    error scales as h^3, so mesh-refinement studies of sampled solutions see
    the quadrature order rather than roundoff.
    """
    s = np.asarray(nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    n = s.size
    out = np.zeros(n)
    idx = np.arange(n - 1)
    j0 = np.where(idx == 0, 0, idx - 1)
    j1 = j0 + 1
    j2 = j0 + 2
    x0, x1, x2 = s[j0], s[j1], s[j2]
    y0, y1, y2 = y[j0], y[j1], y[j2]
    c1 = (y1 - y0) / (x1 - x0)
    c2 = ((y2 - y1) / (x2 - x1) - c1) / (x2 - x0)
    lo, hi = s[:-1], s[1:]

    def prim(t):
        # antiderivative of y0 + c1 (t-x0) + c2 (t-x0)(t-x1)
        return (
            y0 * t
            + 0.5 * c1 * (t - x0) ** 2
            + c2 * (t**3 / 3.0 - 0.5 * (x0 + x1) * t**2 + x0 * x1 * t)
        )

    out[1:] = np.cumsum(prim(hi) - prim(lo))
    return out


class Antiderivative:
    """Cached antiderivative I(x) = int_{a}^{x} f on [a, b], array-friendly.

    Node values come from per-interval adaptive quadrature; off-node queries
    add a local two-panel Simpson correction from the nearest node below.
    The table extends itself geometrically when queried past b.
    """

    def __init__(self, fn, a: float, b: float, n: int = 2048, tol: float = 1e-13):
        self.fn = fn
        self.a = float(a)
        self.tol = tol
        self._per_unit = max(n / max(b - a, 1e-12), 64.0)
        self._build(float(b))

    def _build(self, b: float):
        n = max(int(np.ceil(self._per_unit * (b - self.a))), 16)
        self.nodes = np.linspace(self.a, b, n + 1)
        self.values = cumulative_quad(self.fn, self.nodes, tol=self.tol)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        top = float(np.max(x_arr))
        while top > self.nodes[-1] + 1e-12:
            self._build(self.a + 2.0 * (self.nodes[-1] - self.a))
        if np.any(x_arr < self.a - 1e-12):
            raise ValueError("Antiderivative queried below its base point")
        xc = np.clip(x_arr, self.a, self.nodes[-1])
        idx = np.clip(np.searchsorted(self.nodes, xc, side="right") - 1, 0, self.nodes.size - 2)
        lo = self.nodes[idx]
        h = xc - lo
        f0 = self.fn(lo)
        f1 = self.fn(lo + 0.25 * h)
        f2 = self.fn(lo + 0.5 * h)
        f3 = self.fn(lo + 0.75 * h)
        f4 = self.fn(xc)
        inc = h * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4) / 12.0
        out = self.values[idx] + inc
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def ode_solve(rhs, y0, span, step: float) -> list[SampledFunction]:
    """Classical fourth-order Runge-Kutta on a uniform grid over ``span``.

    Returns one :class:`SampledFunction` per state component.  The step is
    shrunk if needed so the grid has at least 9 nodes and hits the right
    endpoint exactly.
    """
    a, b = float(span[0]), float(span[1])
    if not step > 0:
        raise ValueError("ode_solve requires step > 0")
    n = max(int(np.ceil((b - a) / step)), 8)
    h = (b - a) / n
    s = np.linspace(a, b, n + 1)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    traj = np.empty((n + 1, y.size))
    traj[0] = y
    for i in range(n):
        si = s[i]
        k1 = np.asarray(rhs(si, y), dtype=float)
        k2 = np.asarray(rhs(si + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(si + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(si + h, y + h * k3), dtype=float)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise OdeBlowUpError(s[i + 1])
        traj[i + 1] = y
    grid = Grid(s, "uniform")
    return [SampledFunction(grid, traj[:, j]) for j in range(y.size)]


def sym_eigen(mat, sym_tol: float = 1e-12, residual_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix via cyclic Jacobi rotations.

    Sorted descending by square (ties broken toward the larger value).  The
    rotation loop is deterministic; eigenpair residuals ||A v - lambda v||
    are checked against ``residual_tol`` before returning.
    """
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eigen needs a square matrix")
    n = a.shape[0]
    if n > 8:
        raise ValueError("sym_eigen is limited to n <= 8")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > sym_tol * scale:
        raise ValueError("sym_eigen: input is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    a0 = a.copy()
    v = np.eye(n)
    for _ in range(64):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    lams = np.diag(a)
    order = np.lexsort((-lams, -lams**2))
    lams = lams[order]
    v = v[:, order]
    for k in range(n):
        res = np.linalg.norm(a0 @ v[:, k] - lams[k] * v[:, k])
        if res > residual_tol * scale:
            raise RuntimeError(f"sym_eigen: eigenpair residual {res:.3e} too large")
    return lams


def tridiag_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas-algorithm solution of a tridiagonal system (no pivoting).

    ``lower`` and ``upper`` have length n-1; a vanishing pivot raises
    ``ValueError``.
    """
    c = np.asarray(diag, dtype=float).copy()
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    d = np.asarray(rhs, dtype=float).copy()
    n = c.size
    if lo.size != n - 1 or up.size != n - 1 or d.size != n:
        raise ValueError("tridiag_solve: inconsistent band lengths")
    scale = max(1.0, float(np.max(np.abs(c))))
    for i in range(1, n):
        if abs(c[i - 1]) < 1e-300 * scale:
            raise ValueError(f"tridiag_solve: zero pivot at row {i - 1}")
        w = lo[i - 1] / c[i - 1]
        c[i] -= w * up[i - 1]
        d[i] -= w * d[i - 1]
    if abs(c[n - 1]) < 1e-300 * scale:
        raise ValueError(f"tridiag_solve: zero pivot at row {n - 1}")
    x = np.empty(n)
    x[n - 1] = d[n - 1] / c[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - up[i] * x[i + 1]) / c[i]
    return x


def fd_derivative(values: np.ndarray, ds: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid (one-sided at edges)."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 5:
        raise ValueError("fd_derivative needs at least 5 samples")
    out = np.empty(n)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * ds)
    out[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * ds)
    out[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * ds)
    out[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * ds)
    out[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * ds)
    return out
