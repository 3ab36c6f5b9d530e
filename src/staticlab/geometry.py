"""Radially symmetric bases and their static-spacetime models.

A base is the manifold ds^2 + g(s)^2 <,>_{S^{m-1}} described by a warping
profile g; the spacetime model adds a positive radial warp h and carries the
metric sigma - h^2 dt^2.  This module supplies the built-in profiles
(Euclidean, hyperbolic, Schwarzschild exterior, tabulated), the coordinate
change between the Schwarzschild area radius rho and the geodesic radial
coordinate s, the model's one sampler :meth:`StaticModel.sample` (g, h, their
first two derivatives and the density factor g^{m-1} on an abscissa array),
frame curvature components, and the Ricci tensor of the model assembled from
base data.  Every other module reads the profile and warp through the
sampler; the curvature functions take a scalar or an array of abscissae
along one code path.

Curvature sign convention: R(V,W)Z = nab_V nab_W Z - nab_W nab_V Z -
nab_{[V,W]}Z with Riem(X1,X2,X3,X4) = <R(X3,X4)X2, X1>, so that the sectional
curvature of a plane spanned by orthonormal X, Y is Riem(X,Y,X,Y).  All tests
pin this convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import Antiderivative

__all__ = [
    "RadialProfile",
    "RadialBase",
    "Warp",
    "StaticModel",
    "ModelSample",
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
    "base_curvature",
    "spacetime_ricci",
    "modified_bakry_emery",
]


class DomainError(ValueError):
    """Abscissa outside the base's radial domain."""


# ---------------------------------------------------------------------------
# Schwarzschild chart: s <-> rho on the exterior (rho > rho_S)
# ---------------------------------------------------------------------------


def _schw_V(mu: float, m: int, rho):
    return 1.0 - 2.0 * mu * np.asarray(rho, dtype=float) ** (2 - m)


def _chart_integrand(mu: float, m: int, rho_s: float):
    """w -> 2w/sqrt(V(rho_S + w^2)), the chart integrand in the variable w."""
    vp0 = 2.0 * mu * (m - 2) * rho_s ** (1 - m)

    def integrand(w):
        # V(rho_s + x) = -expm1((2-m) log1p(x/rho_s)): stable at the horizon
        w = np.asarray(w, dtype=float)
        tiny = w < 1e-120
        if not tiny.any():  # the usual call: no horizon entry, so no np.where pass
            return 2.0 * w / np.sqrt(-np.expm1((2 - m) * np.log1p(w * w / rho_s)))
        wsafe = np.where(tiny, 1.0, w)
        v = -np.expm1((2 - m) * np.log1p(wsafe * wsafe / rho_s))
        return np.where(tiny, 2.0 / np.sqrt(vp0), 2.0 * wsafe / np.sqrt(v))

    return integrand


class _SchwarzschildChart:
    """Cached bijection s(rho) = int_{rho_S}^{rho} dt/sqrt(V) and its inverse.

    The substitution t = rho_S + w^2 removes the endpoint singularity and
    leaves the smooth, positive integrand f(w) = 2w/sqrt(V(rho_S + w^2)),
    whose :class:`~staticlab.numerics.Antiderivative` in w is ``table``:
    s(rho) is its forward map.  rho(s) is the quintic Hermite interpolant on
    the table's nodes s_j, from closed forms of the table's entries:
    rho_j = rho_S + w_j^2, rho'_j = sqrt V = 2 w_j / f(w_j) and
    rho''_j = V'/2 = mu (m-2) rho_j^{1-m}.  It calls no integrand, and the
    chart keeps no array but the table.  The integrand closes over
    (mu, m, rho_S), not the chart, so a chart holds no reference cycle.  The
    last rho(s) is memoised with the factors sqrt(V) and V'/2 of its rho,
    keyed by the input values and the table size: profile and warp
    evaluation of one sample array form each once, and a grown table
    invalidates the memo.
    """

    def __init__(self, mu: float, m: int):
        if mu <= 0:
            raise ValueError("Schwarzschild mass mu must be positive")
        if m < 3:
            raise ValueError("Schwarzschild base needs dimension m >= 3")
        self.mu, self.m = mu, m
        self.rho_s = (2.0 * mu) ** (1.0 / (m - 2))
        w_max = float(np.sqrt(64.0 + self.rho_s))
        self.table = Antiderivative(
            _chart_integrand(mu, m, self.rho_s), 0.0, w_max, n=max(4096, int(256 * w_max)), tol=1e-14
        )
        self._memo = None  # (table size, s, (rho, sqrt V, V'/2)) of the most recent solve

    def s_of_rho(self, rho):
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr <= self.rho_s):
            raise DomainError(f"rho <= rho_S = {self.rho_s!r}: inside horizon")
        return self.table(np.sqrt(rho_arr - self.rho_s))

    def _rho(self, s: np.ndarray) -> np.ndarray:
        """rho(s) on the table interval [s_j, s_{j+1}] of each s, with t = (s - s_j)/h."""
        sv, w, f = self.table.values, self.table.nodes, self.table.f_nodes
        j = np.minimum(np.interp(s, sv, np.arange(sv.size)).astype(np.intp), sv.size - 2)
        j1 = j + 1
        w0, w1, s0 = w[j], w[j1], sv[j]
        h = sv[j1] - s0
        t = (s - s0) / h
        # Taylor data at both ends in t: value, h rho' = v and h^2 rho''/2 = e
        q0, q1 = w0 * w0, w1 * w1
        h2 = 2.0 * h
        v0, v1 = h2 * w0 / f[j], h2 * w1 / f[j1]
        c = 0.5 * self.mu * (self.m - 2) * h * h
        e0 = c * (self.rho_s + q0) ** (1 - self.m)
        e1 = c * (self.rho_s + q1) ** (1 - self.m)
        # rho = rho_S + q0 + v0 t + e0 t^2 + t^3 S(t): S takes up what the left Taylor
        # quadratic misses of the right end's value (dq), slope (dv) and e, in u = 1 - t
        dq = q1 - q0 - v0 - e0
        dv = v1 - v0 - 2.0 * e0
        a = 3.0 * dq - dv
        u = 1.0 - t
        tail = dq + u * (a + u * (2.0 * a - dv + (e1 - e0)))
        return np.asarray(self.rho_s + (q0 + t * (v0 + t * (e0 + t * tail))))

    def factors(self, s) -> tuple:
        """rho, sqrt V(rho) and V'(rho)/2 = mu (m-2) rho^{1-m} at s.

        The table grows until it covers max(s).  The arrays are the memo's
        own: callers must copy what they hand out.
        """
        s_arr = np.asarray(s, dtype=float)
        memo = self._memo
        if memo is None or memo[0] != self.table.nodes.size or not np.array_equal(memo[1], s_arr):
            top = float(np.max(s_arr))
            if not (np.all(s_arr > 0) and top < np.inf):
                raise DomainError("rho_of_s needs finite s > 0 (s = 0 is the horizon)")
            while self.table.values[-1] < top:
                self.table.grow()
            rho = self._rho(s_arr)
            found = (rho, np.sqrt(_schw_V(self.mu, self.m, rho)), self.mu * (self.m - 2) * rho ** (1 - self.m))
            memo = self._memo = (self.table.nodes.size, s_arr.copy(), found)
        return memo[2]

    def rho_of_s(self, s):
        rho = self.factors(s)[0].copy()
        return float(rho) if np.isscalar(s) or rho.ndim == 0 else rho


@lru_cache(maxsize=32)
def _chart(mu: float, m: int) -> _SchwarzschildChart:
    return _SchwarzschildChart(mu, m)


def schwarzschild_s_of_rho(mu: float, m: int, rho):
    """Geodesic radial coordinate of the area radius rho (exterior only)."""
    return _chart(mu, m).s_of_rho(rho)


def schwarzschild_rho_of_s(mu: float, m: int, s):
    """Area radius rho of the geodesic radial coordinate s > 0.

    The quintic Hermite interpolant of rho on the chart table's nodes, from
    closed-form node data; the table grows to cover s.
    """
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
        """Return (g, g', g'') at s as numpy values shaped like s."""
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
            g, gp, gpp = (f.copy() for f in _chart(self.mu, self.m).factors(s_arr))
        elif self.kind == "custom":
            g = self.spline(s_arr)
            gp = self.spline(s_arr, 1)
            gpp = self.spline(s_arr, 2)
        else:  # pragma: no cover
            raise ValueError(f"unknown profile kind {self.kind!r}")
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
        """Return (h, h', h'') at s as float arrays."""
        s_arr = np.asarray(s, dtype=float)
        return (np.asarray(self.h(s_arr), dtype=float), np.asarray(self.dh(s_arr), dtype=float),
                np.asarray(self.d2h(s_arr), dtype=float))


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

    The three callables share the chart's memoised rho(s) and factors, so
    evaluating them (and the profile) on one sample array interpolates rho
    and forms sqrt(V) and V'/2 once.
    """
    chart = _chart(mu, m)

    def h(s):
        return chart.factors(s)[1].copy()

    def dh(s):
        return chart.factors(s)[2].copy()

    def d2h(s):
        rho, sqrt_v, _ = chart.factors(s)
        return -mu * (m - 2) * (m - 1) * rho ** (-m) * sqrt_v

    return Warp("schwarzschild", h, dh, d2h)


def custom_warp(h, dh, d2h) -> Warp:
    return Warp("custom", h, dh, d2h)


class ModelSample(NamedTuple):
    """Profile and warp of a model on an abscissa array, with w = g^{m-1}.

    w is the density factor of the model's two integrals: the weighted volume
    density h w and the flux w h^2 tau' / sqrt(1 - h^2 tau'^2).
    """

    g: np.ndarray
    gp: np.ndarray
    gpp: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class StaticModel:
    """A radial base paired with a static warp: the model of sigma - h^2 dt^2."""

    base: RadialBase
    warp: Warp

    @property
    def m(self) -> int:
        return self.base.m

    def sample(self, s) -> ModelSample:
        """g, h, their first two derivatives and w = g^{m-1} at s (scalar or array).

        One profile and one warp evaluation; values are shaped like s.  The
        domain is not checked here: callers that take radii from users do.
        """
        s_arr = np.asarray(s, dtype=float)
        g, gp, gpp = self.base.profile.evaluate(s_arr)
        h, dh, d2h = self.warp.evaluate(s_arr)
        return ModelSample(g, gp, gpp, h, dh, d2h, g ** (self.m - 1))

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
    """Frame curvature data of a model at s (a scalar or an array).

    K_rad / K_tan are the sectional curvatures of planes containing /
    orthogonal to the radial direction; ric_rr / ric_tt the base Ricci frame
    components; hessh_* and laph the frame Hessian and Laplacian of the warp
    h.  Fields are shaped like s, except the scalar defaults, which describe
    the unit warp h = 1 of a bare base.
    """

    s: float
    K_rad: float
    K_tan: float
    ric_rr: float
    ric_tt: float
    hessh_rr: float = 0.0
    hessh_tt: float = 0.0
    laph: float = 0.0
    h: float = 1.0

    def scalar_consistency(self, m: int) -> float:
        """Residual of ric trace vs the sectional-curvature combination."""
        from_ric = self.ric_rr + (m - 1) * self.ric_tt
        from_sec = 2 * (m - 1) * self.K_rad + (m - 1) * (m - 2) * self.K_tan
        return abs(from_ric - from_sec)


def _frame_curvature(s, m: int, g, gp, gpp, **warp_data) -> CurvatureSample:
    """Curvature sample from profile values (plus any warp data) at s.

    K_rad = -g''/g, K_tan = (1 - g'^2)/g^2, ric_rr = -(m-1) g''/g,
    ric_tt = -g''/g + (m-2)(1 - g'^2)/g^2.
    """
    k_rad = -gpp / g
    k_tan = (1.0 - gp * gp) / (g * g)
    return CurvatureSample(s=np.asarray(s, dtype=float), K_rad=k_rad, K_tan=k_tan,
                           ric_rr=(m - 1) * k_rad, ric_tt=k_rad + (m - 2) * k_tan, **warp_data)


def base_curvature(base: RadialBase, s) -> CurvatureSample:
    """Sectional and Ricci frame components of the base at s."""
    base.check_domain(s)
    return _frame_curvature(s, base.m, *base.profile.evaluate(s))


def curvature_sample(model: StaticModel, s) -> CurvatureSample:
    """Full curvature sample of the model, from one model sample at s."""
    model.base.check_domain(s)
    smp = model.sample(s)
    hessh_tt = (smp.gp / smp.g) * smp.dh
    return _frame_curvature(s, model.m, smp.g, smp.gp, smp.gpp, hessh_rr=smp.d2h, hessh_tt=hessh_tt,
                            laph=smp.d2h + (model.m - 1) * hessh_tt, h=smp.h)


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
    return SpacetimeRicci(
        hor_rad=cs.ric_rr - cs.hessh_rr / cs.h,
        hor_tan=cs.ric_tt - cs.hessh_tt / cs.h,
        vert=cs.h * cs.laph,
        h=cs.h,
    )


def modified_bakry_emery(model: StaticModel, s) -> tuple[float, float]:
    """The two frame eigenvalues of Ric - Hess(h)/h at s (radial, tangential)."""
    ric = spacetime_ricci(model, s)
    return ric.hor_rad, ric.hor_tan
