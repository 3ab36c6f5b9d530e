"""Radially symmetric bases and their static-spacetime models.

A base is the manifold ds^2 + g(s)^2 <,>_{S^{m-1}} described by a warping
profile g; the spacetime model adds a positive radial warp h and carries the
metric sigma - h^2 dt^2.  This module supplies the built-in profiles
(Euclidean, hyperbolic, Schwarzschild exterior, tabulated), the coordinate
change between the Schwarzschild area radius rho and the geodesic radial
coordinate s, frame curvature components, radial Hessians/Laplacians, and
the Ricci tensor of the model assembled from base data.

Curvature sign convention: R(V,W)Z = nab_V nab_W Z - nab_W nab_V Z -
nab_{[V,W]}Z with Riem(X1,X2,X3,X4) = <R(X3,X4)X2, X1>, so that the sectional
curvature of a plane spanned by orthonormal X, Y is Riem(X,Y,X,Y).  All tests
pin this convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import Grid, cumulative_quad

__all__ = [
    "RadialProfile",
    "RadialBase",
    "Warp",
    "StaticModel",
    "CurvatureSample",
    "euclidean_profile",
    "hyperbolic_profile",
    "schwarzschild_profile",
    "custom_profile",
    "custom_profile_from_csv",
    "constant_warp",
    "schwarzschild_warp",
    "custom_warp",
    "schwarzschild_s_of_rho",
    "schwarzschild_rho_of_s",
    "eval_profile",
    "base_curvature",
    "radial_hessian",
    "spacetime_ricci",
    "modified_bakry_emery",
    "admissible_G0",
]


class DomainError(ValueError):
    """Abscissa outside the base's radial domain."""


# ---------------------------------------------------------------------------
# Schwarzschild chart: s <-> rho on the exterior (rho > rho_S)
# ---------------------------------------------------------------------------


def _schw_V(mu: float, m: int, rho):
    return 1.0 - 2.0 * mu * np.asarray(rho, dtype=float) ** (2 - m)


class _SchwarzschildChart:
    """Cached bijection s(rho) = int_{rho_S}^{rho} dt/sqrt(V).

    The endpoint singularity is removed by the substitution t = rho_S + w^2,
    after which the integrand 2w/sqrt(V(rho_S + w^2)) is smooth.  Forward
    values come from a cached cumulative integral on a w-grid.  The inverse
    starts from piecewise-linear interpolation of that monotone (s, w) table
    and is polished by Newton iterations on the exact forward map.  The last
    inverse solve is memoised, keyed by the input values, so that profile
    and warp evaluation of one sample array share it; growing the table
    clears the memo.
    """

    def __init__(self, mu: float, m: int):
        if mu <= 0:
            raise ValueError("Schwarzschild mass mu must be positive")
        if m < 3:
            raise ValueError("Schwarzschild base needs dimension m >= 3")
        self.mu = mu
        self.m = m
        self.rho_s = (2.0 * mu) ** (1.0 / (m - 2))
        self._w_nodes = None
        self._s_nodes = None
        self._last_inverse = None  # (s, rho) of the most recent rho_of_s solve
        self._ensure(w_max=np.sqrt(64.0 + self.rho_s))

    def _integrand(self, w):
        # V(rho_s + x) = -expm1((2-m) log1p(x/rho_s)): stable at the horizon
        w = np.asarray(w, dtype=float)
        tiny = w < 1e-120
        wsafe = np.where(tiny, 1.0, w)
        v = -np.expm1((2 - self.m) * np.log1p(wsafe * wsafe / self.rho_s))
        vp0 = 2.0 * self.mu * (self.m - 2) * self.rho_s ** (1 - self.m)
        return np.where(tiny, 2.0 / np.sqrt(vp0), 2.0 * wsafe / np.sqrt(v))

    def _ensure(self, w_max: float):
        if self._w_nodes is not None and self._w_nodes[-1] >= w_max:
            return
        n = max(4096, int(256 * w_max))
        w = np.linspace(0.0, w_max, n + 1)
        self._w_nodes = w
        self._s_nodes = cumulative_quad(self._integrand, w, tol=1e-14)
        self._last_inverse = None

    def _local(self, w):
        """Forward map on arrays: cached node + one fine Simpson correction."""
        w = np.asarray(w, dtype=float)
        idx = np.clip(np.searchsorted(self._w_nodes, w, side="right") - 1, 0, self._w_nodes.size - 2)
        a = self._w_nodes[idx]
        h = w - a
        f0 = self._integrand(a)
        f1 = self._integrand(a + 0.25 * h)
        f2 = self._integrand(a + 0.5 * h)
        f3 = self._integrand(a + 0.75 * h)
        f4 = self._integrand(w)
        inc = h * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4) / 12.0
        return self._s_nodes[idx] + inc

    def s_of_rho(self, rho):
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr <= self.rho_s):
            raise DomainError(f"rho <= rho_S = {self.rho_s!r}: inside horizon")
        w = np.sqrt(rho_arr - self.rho_s)
        self._ensure(float(np.max(w)) * 1.05 + 1e-9)
        out = self._local(w)
        return float(out) if np.isscalar(rho) or rho_arr.ndim == 0 else out

    def rho_of_s(self, s):
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0):
            raise DomainError("rho_of_s needs s > 0 (s = 0 is the horizon)")
        # grow the table until it covers the requested s values
        while self._s_nodes[-1] < float(np.max(s_arr)):
            self._ensure(self._w_nodes[-1] * 2.0)
        last = self._last_inverse
        if last is not None and last[0].shape == s_arr.shape and np.array_equal(last[0], s_arr):
            rho = last[1].copy()
        else:
            w = np.maximum(np.interp(s_arr, self._s_nodes, self._w_nodes), 1e-12)
            for _ in range(4):
                w = w - (self._local(w) - s_arr) / self._integrand(w)
                w = np.maximum(w, 1e-15)
            rho = self.rho_s + w * w
            self._last_inverse = (s_arr.copy(), rho.copy())
        return float(rho) if np.isscalar(s) or s_arr.ndim == 0 else rho


@lru_cache(maxsize=32)
def _chart(mu: float, m: int) -> _SchwarzschildChart:
    return _SchwarzschildChart(mu, m)


def schwarzschild_s_of_rho(mu: float, m: int, rho):
    """Geodesic radial coordinate of the area radius rho (exterior only)."""
    return _chart(mu, m).s_of_rho(rho)


def schwarzschild_rho_of_s(mu: float, m: int, s):
    """Inverse coordinate change, by table interpolation plus Newton."""
    return _chart(mu, m).rho_of_s(s)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Warping profile g(s) with two derivatives.

    kind is one of 'euclidean', 'hyperbolic', 'schwarzschild', 'custom'.
    Pole-anchored profiles satisfy g(0) = 0, g'(0) = 1.
    """

    kind: str
    B: float = 0.0
    mu: float = 0.0
    m: int = 0
    spline: object = None

    @property
    def pole_anchored(self) -> bool:
        return self.kind in ("euclidean", "hyperbolic")

    def evaluate(self, s):
        """Return (g, g', g'') at s (scalar or array)."""
        s_arr = np.asarray(s, dtype=float)
        if self.kind == "euclidean":
            g = s_arr.copy()
            gp = np.ones_like(s_arr)
            gpp = np.zeros_like(s_arr)
        elif self.kind == "hyperbolic":
            rb = np.sqrt(self.B)
            g = np.sinh(rb * s_arr) / rb
            gp = np.cosh(rb * s_arr)
            gpp = rb * np.sinh(rb * s_arr)
        elif self.kind == "schwarzschild":
            rho = _chart(self.mu, self.m).rho_of_s(s_arr)
            rho = np.asarray(rho, dtype=float)
            g = rho
            gp = np.sqrt(_schw_V(self.mu, self.m, rho))
            gpp = self.mu * (self.m - 2) * rho ** (1 - self.m)
        elif self.kind == "custom":
            g = self.spline(s_arr)
            gp = self.spline(s_arr, 1)
            gpp = self.spline(s_arr, 2)
        else:  # pragma: no cover
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return float(g), float(gp), float(gpp)
        return g, gp, gpp


def euclidean_profile() -> RadialProfile:
    return RadialProfile("euclidean")


def hyperbolic_profile(B: float) -> RadialProfile:
    if B <= 0:
        raise ValueError("hyperbolic profile needs curvature scale B > 0")
    return RadialProfile("hyperbolic", B=B)


def schwarzschild_profile(mu: float, m: int) -> RadialProfile:
    _chart(mu, m)  # validates parameters
    return RadialProfile("schwarzschild", mu=mu, m=m)


def custom_profile(s_nodes, g_values) -> RadialProfile:
    """C^2 cubic-spline profile through tabulated (s, g) samples."""
    from scipy.interpolate import CubicSpline  # deferred: keeps scipy out of import time

    s_nodes = np.asarray(s_nodes, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    if not np.all(np.diff(s_nodes) > 0):
        raise ValueError("custom profile needs strictly increasing s")
    if np.any(g_values <= 0):
        raise ValueError("custom profile needs g > 0 on the tabulated range")
    return RadialProfile("custom", spline=CubicSpline(s_nodes, g_values))


def custom_profile_from_csv(path) -> RadialProfile:
    """Read a `s,g` CSV (binary64 decimal text, header required)."""
    s_list, g_list = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip() for c in header[:2]] != ["s", "g"]:
            raise ValueError("custom profile CSV must have header 's,g'")
        for row in reader:
            if not row:
                continue
            s_list.append(float(row[0]))
            g_list.append(float(row[1]))
    return custom_profile(np.array(s_list), np.array(g_list))


@dataclass(frozen=True)
class RadialBase:
    """Rotationally symmetric base of dimension m over a radial domain."""

    m: int
    profile: RadialProfile
    s_domain: tuple[float, float]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("base dimension m must be >= 2")
        s_min, s_max = self.s_domain
        if not s_min < s_max:
            raise ValueError("empty radial domain")
        if s_min < 0:
            raise ValueError("radial domain starts at s >= 0")
        if self.profile.kind == "schwarzschild" and s_min <= 0:
            raise ValueError("Schwarzschild bases live on an exterior annulus: s_min > 0")

    def check_domain(self, s):
        s_arr = np.asarray(s, dtype=float)
        lo, hi = self.s_domain
        if np.any(s_arr < lo - 1e-12) or np.any(s_arr > hi + 1e-12):
            raise DomainError(f"s outside domain [{lo}, {hi}]")

    @property
    def pole_anchored(self) -> bool:
        return self.profile.pole_anchored and self.s_domain[0] == 0.0


# ---------------------------------------------------------------------------
# Warps and models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Warp:
    """Positive radial warp h with two derivatives, h = h(s)."""

    kind: str
    h: object
    dh: object
    d2h: object

    def evaluate(self, s):
        s_arr = np.asarray(s, dtype=float)
        h = np.asarray(self.h(s_arr), dtype=float)
        dh = np.asarray(self.dh(s_arr), dtype=float)
        d2h = np.asarray(self.d2h(s_arr), dtype=float)
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return float(h), float(dh), float(d2h)
        return h, dh, d2h


def constant_warp(c: float = 1.0) -> Warp:
    if c <= 0:
        raise ValueError("warp must be positive")
    return Warp(
        "constant",
        lambda s: np.full_like(np.asarray(s, dtype=float), c),
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def schwarzschild_warp(mu: float, m: int) -> Warp:
    """h = sqrt(V(rho(s))) on the exterior; h' = V'/2, h'' = (V''/2) sqrt(V).

    The three callables share the chart's memoised inverse, so evaluating
    them (and the profile) on one sample array solves for rho once.
    """
    chart = _chart(mu, m)

    def h(s):
        rho = np.asarray(chart.rho_of_s(s), dtype=float)
        return np.sqrt(_schw_V(mu, m, rho))

    def dh(s):
        rho = np.asarray(chart.rho_of_s(s), dtype=float)
        return mu * (m - 2) * rho ** (1 - m)

    def d2h(s):
        rho = np.asarray(chart.rho_of_s(s), dtype=float)
        return -mu * (m - 2) * (m - 1) * rho ** (-m) * np.sqrt(_schw_V(mu, m, rho))

    return Warp("schwarzschild", h, dh, d2h)


def custom_warp(h, dh, d2h) -> Warp:
    return Warp("custom", h, dh, d2h)


@dataclass(frozen=True)
class StaticModel:
    """A radial base paired with a static warp: the model of sigma - h^2 dt^2."""

    base: RadialBase
    warp: Warp

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def lorentzian_product(self) -> bool:
        """True when h is identically one (checked on a domain sample)."""
        lo, hi = self.base.s_domain
        probe = np.linspace(lo + 1e-9 * (hi - lo), hi, 16)
        h, dh, _ = self.warp.evaluate(probe)
        return bool(np.max(np.abs(h - 1.0)) < 1e-14 and np.max(np.abs(dh)) < 1e-14)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSample:
    """Frame curvature data of a model at one abscissa.

    K_rad / K_tan are the sectional curvatures of planes containing /
    orthogonal to the radial direction; ric_rr / ric_tt the base Ricci frame
    components; hessh_* and laph the frame Hessian and Laplacian of h.
    """

    s: float
    K_rad: float
    K_tan: float
    ric_rr: float
    ric_tt: float
    hessh_rr: float = 0.0
    hessh_tt: float = 0.0
    laph: float = 0.0

    def scalar_consistency(self, m: int) -> float:
        """Residual of ric trace vs the sectional-curvature combination."""
        from_ric = self.ric_rr + (m - 1) * self.ric_tt
        from_sec = 2 * (m - 1) * self.K_rad + (m - 1) * (m - 2) * self.K_tan
        return abs(from_ric - from_sec)


def eval_profile(base: RadialBase, s):
    """(g, g', g'') of the base profile at s, domain-checked."""
    base.check_domain(s)
    return base.profile.evaluate(s)


def base_curvature(base: RadialBase, s) -> CurvatureSample:
    """Sectional and Ricci frame components of the base at s.

    K_rad = -g''/g, K_tan = (1 - g'^2)/g^2, ric_rr = -(m-1) g''/g,
    ric_tt = -g''/g + (m-2)(1 - g'^2)/g^2.
    """
    base.check_domain(s)
    g, gp, gpp = base.profile.evaluate(s)
    m = base.m
    k_rad = -gpp / g
    k_tan = (1.0 - gp * gp) / (g * g)
    return CurvatureSample(
        s=float(s),
        K_rad=k_rad,
        K_tan=k_tan,
        ric_rr=(m - 1) * k_rad,
        ric_tt=k_rad + (m - 2) * k_tan,
    )


def radial_hessian(base: RadialBase, dphi, d2phi, s):
    """Frame Hessian components and Laplacian of a radial function.

    ``dphi`` and ``d2phi`` are callables for phi' and phi''.  Returns
    (phi'', (g'/g) phi', laplacian) with laplacian = phi'' + (m-1)(g'/g) phi'.
    """
    g, gp, _ = base.profile.evaluate(s)
    hrr = d2phi(s)
    htt = (gp / g) * dphi(s)
    return hrr, htt, hrr + (base.m - 1) * htt


def curvature_sample(model: StaticModel, s) -> CurvatureSample:
    """Full curvature sample of the model: base curvature plus warp data."""
    cs = base_curvature(model.base, s)
    g, gp, _ = model.base.profile.evaluate(s)
    h, dh, d2h = model.warp.evaluate(s)
    hessh_rr = d2h
    hessh_tt = (gp / g) * dh
    return CurvatureSample(
        s=cs.s,
        K_rad=cs.K_rad,
        K_tan=cs.K_tan,
        ric_rr=cs.ric_rr,
        ric_tt=cs.ric_tt,
        hessh_rr=hessh_rr,
        hessh_tt=hessh_tt,
        laph=hessh_rr + (model.m - 1) * hessh_tt,
    )


@dataclass(frozen=True)
class SpacetimeRicci:
    """Frame components of the model's Ricci tensor.

    hor_rad / hor_tan are the horizontal components ric - Hess(h)/h; vert is
    the dt (x) dt coordinate coefficient h * lap(h).  The time-frame component
    Ric(e_t, e_t) with e_t = dt/h equals vert / h^2.
    """

    hor_rad: float
    hor_tan: float
    vert: float
    h: float

    @property
    def vert_frame(self) -> float:
        return self.vert / (self.h * self.h)


def spacetime_ricci(model: StaticModel, s) -> SpacetimeRicci:
    """Ricci of the static model at s: Ric - Hess(h)/h horizontally, h lap h dt^2."""
    cs = curvature_sample(model, s)
    h, _, _ = model.warp.evaluate(s)
    return SpacetimeRicci(
        hor_rad=cs.ric_rr - cs.hessh_rr / h,
        hor_tan=cs.ric_tt - cs.hessh_tt / h,
        vert=h * cs.laph,
        h=h,
    )


def modified_bakry_emery(model: StaticModel, s) -> tuple[float, float]:
    """The two frame eigenvalues of Ric - Hess(h)/h at s (radial, tangential)."""
    ric = spacetime_ricci(model, s)
    return ric.hor_rad, ric.hor_tan


def admissible_G0(model: StaticModel, s_samples) -> float:
    """Smallest G0 >= 0 with Ric - Hess(h)/h >= -m G0 on the sampled set.

    The paper-level bound is pointwise in the minimum of the two frame
    eigenvalues; which eigenvalue drives it when they differ is reported by
    callers, not guessed here.
    """
    worst = 0.0
    for s in np.atleast_1d(np.asarray(s_samples, dtype=float)):
        lo = min(modified_bakry_emery(model, float(s)))
        worst = min(worst, lo)
    return max(0.0, -worst / model.m)
