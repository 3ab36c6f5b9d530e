"""Deterministic numerical primitives shared by the whole laboratory.

Everything here is double precision, tolerance-explicit and free of hidden
state.  Quadrature is one batched adaptive Simpson refiner: ``quad`` hands
it a single panel, ``cumulative_quad`` every interval that fails its
two-panel check, and each refinement level calls the integrand once on an
array.  ``brentq`` is Brent's bracketed root finder, ported from scipy so
that a root solve loads none of scipy's optimisation modules.  Nothing here
imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_QUAD_TOL = 1e-10
_MAX_QUAD_DEPTH = 48
_MAX_BATCH_PANELS = 4096
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


class QuadratureError(RuntimeError):
    """Adaptive refinement hit its depth cap before reaching the tolerance."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae s_0 < ... < s_N with N >= 8."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 9:
            raise ValueError("grid needs at least 9 nodes (N >= 8)")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, a: float, b: float, num: int) -> "Grid":
        return cls(np.linspace(a, b, num))

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


def _simpson(fa, fm, fb, h):
    return h * (fa + 4.0 * fm + fb) / 6.0


def quad(f, a: float, b: float, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Adaptive composite Simpson integral of ``f`` over [a, b].

    ``f`` must accept numpy arrays: [a, b] is one panel for the batched
    refiner, which calls ``f`` once per refinement level.  The absolute
    error estimate (Richardson, |S2 - S1|/15 per panel) is kept below
    ``tol``.  Raises :class:`QuadratureError` with the last estimate if the
    refinement depth cap or the width floor is reached.
    """
    if not a < b:
        raise ValueError("quad requires a < b")
    if not tol > 0:
        raise ValueError("quad requires tol > 0")
    x0, x2 = np.array([a]), np.array([b])
    f0, fm, f2 = np.asarray(f(np.array([a, 0.5 * (a + b), b])), dtype=float)[:, None]
    whole = _simpson(f0, fm, f2, x2 - x0)
    return float(_adaptive_simpson_batch(f, x0, x2, f0, fm, f2, whole, np.array([tol]))[0])


def _adaptive_simpson_batch(f, x0, x2, f0, fm, f2, whole, tol):
    """Adaptive Simpson integral of ``f`` over each panel [x0_i, x2_i], batched.

    ``whole`` is each panel's one-panel Simpson value and ``tol`` its error
    tolerance; a panel is accepted when its Richardson estimate
    |S2 - S1|/15 is within ``tol``, otherwise split with ``tol`` halved.
    Each step evaluates ``f`` once on the quarter points of a whole batch of
    unresolved panels.  Batches are refined deepest first and capped at
    ``_MAX_BATCH_PANELS``: near a non-integrable singularity the unresolved
    panels multiply with every level, and going deep first bounds memory and
    reaches the panel that cannot be resolved after one call per level.
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

    ``f`` must accept numpy arrays.  It is called once on all nodes, whose
    values serve as the left and right ends of every interval, and once on
    each of the three interior quarter-point arrays.  Each interval gets a
    two-panel Simpson value with a Richardson error check.  Intervals failing
    the check are refined together by the adaptive Simpson refiner of
    :func:`quad` (tolerance halved per level, same depth cap and width
    floor), with ``f`` called once per refinement level on the quarter
    points of all unresolved panels (in batches of at most
    ``_MAX_BATCH_PANELS``).  Raises :class:`QuadratureError` when a panel
    cannot be resolved.
    """
    nodes = np.asarray(nodes, dtype=float)
    f_nodes = np.asarray(f(nodes), dtype=float)
    a = nodes[:-1]
    b = nodes[1:]
    h = b - a
    f0 = f_nodes[:-1]
    f1 = f(a + 0.25 * h)
    f2 = f(a + 0.5 * h)
    f3 = f(a + 0.75 * h)
    f4 = f_nodes[1:]
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


def _serving(f, nodes: np.ndarray, f_nodes: np.ndarray):
    """``f``, except that a call on the array ``nodes`` itself returns ``f_nodes``.

    :func:`cumulative_quad` evaluates ``f`` on its nodes array first; serving
    that call lets :class:`Antiderivative` keep the node values of ``f``
    without evaluating it there twice.
    """
    return lambda x: f_nodes if x is nodes else f(x)


def _order3_increment(h1, h2, y_far, y_near, y_end):
    """Integral from the node ``y_near`` to the node ``y_end``, h2 further on, of the
    quadratic through them and the node ``y_far``, h1 behind ``y_near``: Lagrange weights."""
    hs = h1 + h2
    return h2 / 6.0 * ((h2 + 3.0 * h1) / h1 * y_near + (3.0 * h1 + 2.0 * h2) / hs * y_end
                       - h2 * h2 / (h1 * hs) * y_far)


def cumulative_order3(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Third-order cumulative integral of node samples.

    Integrates the quadratic through three neighbouring nodes over each
    interval: nodes i-1, i, i+1 over [s_i, s_{i+1}], and nodes 0, 1, 2 over
    the first.  Each increment reads its three nodes only and the running sum
    is one sequential ``np.cumsum``, so the first j+1 nodes give the first
    j+1 outputs, bitwise.  Deliberately grid-limited: the error scales as
    h^3, so mesh-refinement studies of sampled solutions see the quadrature
    order rather than roundoff.
    """
    s = np.asarray(nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    h = np.diff(s)
    inc = np.empty(h.size)
    inc[0] = _order3_increment(h[1], h[0], y[2], y[1], y[0])
    inc[1:] = _order3_increment(h[:-1], h[1:], y[:-2], y[1:-1], y[2:])
    out = np.empty(s.size)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


class Antiderivative:
    """Cached antiderivative I(x) = int_{a}^{x} f on [a, b], array-friendly.

    The table holds the uniform nodes x_j, the node values I(x_j) from
    :func:`cumulative_quad` and the node values f(x_j), taken from the same
    evaluation that built I; callers may read all three.  Off-node queries
    add a two-panel Simpson correction from the nearest node below, whose
    left-end sample is the cached node value of ``f``.  :meth:`grow` doubles
    the span, at the same node density; a query past the end grows the table
    until it covers the query.
    """

    def __init__(self, fn, a: float, b: float, n: int = 2048, tol: float = 1e-13):
        self.fn = fn
        self.a = float(a)
        self.tol = tol
        self._per_unit = max(n / max(b - a, 1e-12), 64.0)
        self._build(float(b))

    def _build(self, b: float):
        n = max(int(np.ceil(self._per_unit * (b - self.a))), 16)
        nodes = np.linspace(self.a, b, n + 1)
        f_nodes = np.asarray(self.fn(nodes), dtype=float)
        self.values = cumulative_quad(_serving(self.fn, nodes, f_nodes), nodes, tol=self.tol)
        self.nodes = nodes
        self.f_nodes = f_nodes

    def grow(self):
        self._build(self.a + 2.0 * (self.nodes[-1] - self.a))

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        top = float(np.max(x_arr))
        while top > self.nodes[-1] + 1e-12:
            self.grow()
        if np.any(x_arr < self.a - 1e-12):
            raise ValueError("Antiderivative queried below its base point")
        xc = np.clip(x_arr, self.a, self.nodes[-1])
        idx = np.clip(np.searchsorted(self.nodes, xc, side="right") - 1, 0, self.nodes.size - 2)
        lo = self.nodes[idx]
        h = xc - lo
        inc = h * (self.f_nodes[idx] + 4.0 * self.fn(lo + 0.25 * h) + 2.0 * self.fn(lo + 0.5 * h)
                   + 4.0 * self.fn(lo + 0.75 * h) + self.fn(xc)) / 12.0
        out = self.values[idx] + inc
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method.

    A port of scipy's ``brentq.c`` (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4) with its step rules in their order, on
    Python floats, so it returns the same root after the same calls to ``f``.
    Each step keeps a bracket [xcur, xblk] with xcur the better end, tries a
    secant or inverse quadratic step, takes it if it is short enough and
    bisects otherwise, and moves at least delta = (xtol + 4 eps |xcur|)/2.
    Returns once the half-bracket is below delta.  Raises ``ValueError`` if
    f(a) and f(b) have the same sign, ``RuntimeError`` after 100 steps
    (scipy's defaults for the relative tolerance and the step cap).
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("brentq: f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq: no convergence after {_BRENT_MAXITER} iterations, value is {xcur!r}")


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
