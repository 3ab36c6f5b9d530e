"""Weighted-volume estimates, spectral bounds and the angle-bound machinery.

All integrals are taken with the weight h against the pulled-back base
metric: vol(B_r) = omega int_0^r h g^{m-1}, boundary volume
omega h(r) g(r)^{m-1}.  On top of these the module checks the flux identity,
the log-volume identity, Bishop-Gromov-type monotonicity against a
comparison solution k, Cheeger ratios and the lowest radial Dirichlet
eigenvalue, the Salavessa-type mean-curvature bound, the angle lower
estimates, growth-condition diagnostics, and the exponential angle bound for
maximal graphs together with the first step of its proof machinery (the
cutoff functions phi, eta, zeta and the elliptic operator L).

Suprema and limits superior over the manifold are realised as grid maxima
and tail running maxima; every report records the grid it was computed on,
and proxy quantities are labelled as such rather than passed off as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import ComparisonModel
from .geometry import StaticModel, base_curvature, modified_bakry_emery
from .graphs import MeanCurvSpec, RadialGraph
from .numerics import Antiderivative, Grid, quad, tridiag_solve
from .reporting import EstimateReport, make_report, precondition_failure

__all__ = [
    "sphere_area",
    "WeightedVolumeTable",
    "weighted_volumes",
    "weighted_volume_annulus",
    "mean_H_average",
    "flux_identity_check",
    "log_volume_identity_check",
    "bishop_gromov_check",
    "CheegerProfile",
    "cheeger_profile",
    "lambda1_estimate",
    "dirichlet_lambda1",
    "salavessa_check",
    "cosh_lower_estimate_check",
    "GrowthDiagnostics",
    "growth_diagnostics",
    "angle_bound_check",
    "AngleMachineParams",
    "Step1Result",
    "angle_machine_step1",
]


def sphere_area(m: int) -> float:
    """Area omega_{m-1} of the unit (m-1)-sphere; 2 pi and 4 pi hard-coded."""
    if m == 2:
        return 2.0 * math.pi
    if m == 3:
        return 4.0 * math.pi
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


class _VolumeCache:
    """Weighted volume machinery of one model, built lazily.

    Holds the model's profile and warp, not the model itself, so the cache
    stored on the model forms no reference cycle and is freed with it.
    """

    def __init__(self, model: StaticModel):
        profile, warp, m = model.base.profile, model.warp, model.m
        self.profile = profile
        self.warp = warp
        self.m = m
        self.omega = sphere_area(m)
        lo, hi = model.base.s_domain

        def integrand(s):
            g, _, _ = profile.evaluate(np.asarray(s, dtype=float))
            h, _, _ = warp.evaluate(np.asarray(s, dtype=float))
            return np.asarray(h, dtype=float) * np.asarray(g, dtype=float) ** (m - 1)

        self._anti = Antiderivative(integrand, lo, min(hi, lo + max(8.0, hi - lo)))

    def vol(self, r):
        return self.omega * self._anti(r)

    def bvol(self, r, weight_power: int = 1):
        g, _, _ = self.profile.evaluate(r)
        h, _, _ = self.warp.evaluate(r)
        return self.omega * np.asarray(h, dtype=float) ** weight_power * np.asarray(g, dtype=float) ** (
            self.m - 1
        )


def _volumes(model: StaticModel) -> _VolumeCache:
    """The model's volume cache, stored on the (frozen) model so it dies with it."""
    vc = model.__dict__.get("_volume_cache")
    if vc is None:
        vc = model.__dict__["_volume_cache"] = _VolumeCache(model)
    return vc


@dataclass(frozen=True)
class WeightedVolumeTable:
    """Ball and boundary weighted volumes on a radius table."""

    radii: np.ndarray
    vol: np.ndarray
    bvol: np.ndarray
    omega: float

    def __post_init__(self):
        if np.any(np.diff(self.vol) <= 0):
            raise ValueError("weighted ball volume must be strictly increasing")


def weighted_volumes(model: StaticModel, r_list) -> WeightedVolumeTable:
    """vol(B_r) and vol(partial B_r) with weight h; balls need a pole."""
    if not model.base.pole_anchored:
        raise ValueError("ball volumes need a pole-anchored model (annulus given); "
                         "use weighted_volume_annulus instead")
    vc = _volumes(model)
    radii = np.asarray(r_list, dtype=float)
    return WeightedVolumeTable(
        radii=radii,
        vol=np.asarray(vc.vol(radii), dtype=float),
        bvol=np.asarray(vc.bvol(radii), dtype=float),
        omega=vc.omega,
    )


def weighted_volume_annulus(model: StaticModel, s0: float, s1: float) -> tuple[float, float, float]:
    """(annulus volume, inner boundary volume, outer boundary volume)."""
    if not s0 < s1:
        raise ValueError("need s0 < s1")
    vc = _volumes(model)
    return (
        float(vc.vol(s1) - vc.vol(s0)),
        float(vc.bvol(s0)),
        float(vc.bvol(s1)),
    )


def _h_of(spec_or_fn):
    if isinstance(spec_or_fn, MeanCurvSpec):
        return spec_or_fn.value
    return lambda s: np.asarray(spec_or_fn(np.asarray(s, dtype=float)), dtype=float)


def mean_H_average(model: StaticModel, spec, r: float) -> float:
    """Weighted integral mean of H over the ball of radius r."""
    if not model.base.pole_anchored:
        raise ValueError("mean_H_average needs a pole-anchored model")
    h_fn = _h_of(spec)

    def num(s):
        g, _, _ = model.base.profile.evaluate(s)
        h, _, _ = model.warp.evaluate(s)
        return float(h_fn(np.asarray([s]))[0]) * h * g ** (model.m - 1)

    lo = model.base.s_domain[0]
    numerator = quad(num, lo, r, tol=1e-12)
    vc = _volumes(model)
    return numerator * vc.omega / float(vc.vol(r))


def flux_identity_check(graph: RadialGraph, spec, s0: float, s1: float,
                        tol: float = 1e-8) -> EstimateReport:
    """Boundary flux difference against m int H h (ball or annulus form).

    The left side is reconstructed from the sampled slope (the angle route),
    the right side is an independent quadrature of the prescribed curvature,
    so the identity genuinely cross-checks the solver.
    """
    model = graph.model
    if s0 == 0 and not graph.pole_regular:
        raise ValueError("s0 = 0 requires a pole-regular graph")
    vc = _volumes(model)

    def boundary_flux(s: float) -> float:
        if s == 0.0:
            return 0.0
        i = graph.node_index(s)
        g, _, _ = model.base.profile.evaluate(s)
        h, _, _ = model.warp.evaluate(s)
        p = h * graph.slope[i]
        return vc.omega * g ** (model.m - 1) * h * p / np.sqrt(1.0 - p * p)

    lhs = boundary_flux(s1) - boundary_flux(s0)
    h_fn = _h_of(spec)

    def integrand(s):
        g, _, _ = model.base.profile.evaluate(s)
        h, _, _ = model.warp.evaluate(s)
        return float(h_fn(np.asarray([s]))[0]) * h * g ** (model.m - 1)

    if isinstance(spec, MeanCurvSpec) and spec.is_zero:
        rhs = 0.0
    else:
        rhs = model.m * vc.omega * quad(integrand, max(s0, model.base.s_domain[0]), s1, tol=1e-13)
    margin = abs(lhs - rhs)
    return make_report(
        "flux-identity", lhs=lhs, rhs=rhs, margin=tol - margin, tol=0.0,
        grid_meta=f"[{s0}, {s1}] n={len(graph.grid)}",
        notes=(f"|lhs-rhs| = {margin:.3e}",),
    )


def log_volume_identity_check(model: StaticModel, R: float, r: float,
                              tol: float = 1e-8) -> EstimateReport:
    """log vol(B_r) - log vol(B_R) against int_R^r bvol/vol."""
    if not 0 < R <= r:
        raise ValueError("need 0 < R <= r")
    vc = _volumes(model)
    lhs = float(np.log(vc.vol(r)) - np.log(vc.vol(R))) if r > R else 0.0
    if r == R:
        rhs = 0.0
    else:
        rhs = quad(lambda s: float(vc.bvol(s)) / float(vc.vol(s)), R, r, tol=1e-12)
    margin = abs(lhs - rhs)
    return make_report(
        "log-volume-identity", lhs=lhs, rhs=rhs, margin=tol - margin, tol=0.0,
        grid_meta=f"[{R}, {r}]", notes=(f"|lhs-rhs| = {margin:.3e}",),
    )


def bishop_gromov_check(model: StaticModel, cmp: ComparisonModel, s_list,
                        tol: float = 1e-9) -> EstimateReport:
    """Monotonicity of bvol(s)/k(s)^m along increasing radii.

    The curvature hypothesis (modified Bakry-Emery bound for the comparison
    G) is evaluated on the sample set and reported; a violated hypothesis is
    noted, not silently assumed, so negative controls stay informative.
    """
    s_arr = np.sort(np.asarray(s_list, dtype=float))
    vc = _volumes(model)
    ratios = np.asarray(vc.bvol(s_arr), dtype=float) / cmp.k(s_arr) ** model.m
    drops = ratios[:-1] - ratios[1:]
    margin = float(np.min(drops))
    worst_eig = min(min(modified_bakry_emery(model, float(s))) for s in s_arr)
    hypothesis_ok = worst_eig >= -model.m * cmp.G0 - 1e-9
    note = (
        f"modified Bakry-Emery bound: min eigenvalue {worst_eig:.6g} vs -m G0 = {-model.m * cmp.G0:.6g}"
        f" ({'satisfied' if hypothesis_ok else 'VIOLATED'})"
    )
    return make_report(
        "bishop-gromov-ratio", lhs=float(ratios[-1]), rhs=float(ratios[0]),
        margin=margin, tol=tol, grid_meta=f"{s_arr.size} radii in [{s_arr[0]}, {s_arr[-1]}]",
        notes=(note,),
    )


@dataclass(frozen=True)
class CheegerProfile:
    radii: np.ndarray
    ratios: np.ndarray
    c_hat: float
    assumption: str


def cheeger_profile(model: StaticModel, r_max: float, num: int = 24) -> CheegerProfile:
    """Boundary-to-volume ratios on log-spaced radii and their tail minimum.

    The infimum is restricted to geodesic balls; for the built-in radially
    symmetric models balls are isoperimetrically optimal, and that assumption
    is recorded in the result rather than assumed silently.  For custom
    profiles the value is only an upper bound for the true constant.
    """
    if not model.base.pole_anchored:
        raise ValueError("cheeger_profile needs a pole-anchored model")
    vc = _volumes(model)
    radii = np.geomspace(r_max / 50.0, r_max, num)
    ratios = np.asarray(vc.bvol(radii), dtype=float) / np.asarray(vc.vol(radii), dtype=float)
    assumption = (
        "infimum restricted to geodesic balls; isoperimetric optimality of balls "
        "assumed for built-in symmetric models (upper bound only for custom profiles)"
    )
    return CheegerProfile(radii=radii, ratios=ratios, c_hat=float(np.min(ratios)), assumption=assumption)


def dirichlet_lambda1(weight_fn, r_trunc: float, mesh_n: int, left_bc: str = "natural",
                      max_iter: int = 400) -> float:
    """Lowest Dirichlet eigenvalue of -(1/w)(w v')' on (0, r_trunc).

    Finite differences with face-centred weights plus inverse iteration
    driven by the Thomas solver.  ``left_bc`` is 'natural' (zero flux, the
    pole condition) or 'dirichlet'.
    """
    if mesh_n < 200:
        raise ValueError("mesh_n >= 200 required")
    ds = r_trunc / mesh_n
    s = np.linspace(0.0, r_trunc, mesh_n + 1)
    faces = s[:-1] + 0.5 * ds
    wf = np.asarray(weight_fn(faces), dtype=float)
    wn = np.asarray(weight_fn(s), dtype=float)

    if left_bc == "natural":
        # unknowns v_0 .. v_{n-1}; v_n = 0; zero flux through the left end
        mass = wn[:mesh_n].copy()
        if wn[0] == 0.0:
            mass[0] = 0.5 * float(weight_fn(np.asarray([0.25 * ds]))[0])
        else:
            mass[0] = 0.5 * wn[0]
        diag = np.empty(mesh_n)
        diag[0] = wf[0] / ds**2
        diag[1:] = (wf[:-1] + wf[1:]) / ds**2
        # face between unknowns v_i and v_{i+1} is face i
        upper = -wf[: mesh_n - 1] / ds**2
        lower = upper.copy()
    elif left_bc == "dirichlet":
        # unknowns v_1 .. v_{n-1}; v_0 = v_n = 0
        mass = wn[1:mesh_n].copy()
        diag = (wf[:-1] + wf[1:]) / ds**2
        upper = -wf[1 : mesh_n - 1] / ds**2
        lower = upper.copy()
    else:
        raise ValueError("left_bc must be 'natural' or 'dirichlet'")

    n_unknown = mass.size
    v = np.ones(n_unknown)
    lam_prev = np.inf
    for _ in range(max_iter):
        x = tridiag_solve(lower, diag, upper, mass * v)
        x = x / np.sqrt(float(np.sum(mass * x * x)))
        av = np.empty(n_unknown)
        av[:] = diag * x
        av[:-1] += upper * x[1:]
        av[1:] += lower * x[:-1]
        lam = float(np.sum(x * av)) / float(np.sum(mass * x * x))
        if abs(lam - lam_prev) <= 1e-13 * max(1.0, abs(lam)):
            return lam
        lam_prev = lam
        v = x
    raise RuntimeError("inverse iteration for lambda1 did not converge")


def lambda1_estimate(model: StaticModel, r_trunc: float, mesh_n: int) -> float:
    """Truncated lowest eigenvalue of the h-weighted radial Laplacian.

    Dirichlet at r_trunc, natural (zero-flux) condition at the pole; the
    value decreases toward the spectral bottom as r_trunc grows.
    """
    if not model.base.pole_anchored:
        raise ValueError("lambda1_estimate needs a pole-anchored model")

    def weight(s):
        s_arr = np.maximum(np.asarray(s, dtype=float), 0.0)
        g, _, _ = model.base.profile.evaluate(s_arr)
        h, _, _ = model.warp.evaluate(s_arr)
        return np.asarray(h, dtype=float) * np.asarray(g, dtype=float) ** (model.m - 1)

    return dirichlet_lambda1(weight, r_trunc, mesh_n, left_bc="natural")


def salavessa_check(graph: RadialGraph, spec, r_list, tol: float = 1e-9) -> EstimateReport:
    """m |mean H| <= sqrt(cosh^2 theta* - 1) bvol/vol on a radius list.

    cosh theta* is the grid maximum, a recorded proxy for the supremum.
    """
    if not graph.pole_regular:
        raise ValueError("salavessa_check needs a pole-regular graph")
    model = graph.model
    vc = _volumes(model)
    cosh_star = float(np.max(graph.cosh_theta))
    factor = math.sqrt(max(cosh_star**2 - 1.0, 0.0))
    margins = []
    rows = []
    for r in np.asarray(r_list, dtype=float):
        lhs = model.m * abs(mean_H_average(model, spec, float(r)))
        rhs = factor * float(vc.bvol(r)) / float(vc.vol(r))
        margins.append(rhs - lhs)
        rows.append((float(r), lhs, rhs))
    worst = int(np.argmin(margins))
    return make_report(
        "salavessa-bound", lhs=rows[worst][1], rhs=rows[worst][2],
        margin=float(min(margins)), tol=tol,
        grid_meta="radii " + " ".join(repr(float(x)) for x in np.asarray(r_list, dtype=float)),
        notes=(f"cosh theta* proxy = grid max = {cosh_star!r}",),
    )


def cosh_lower_estimate_check(graph: RadialGraph, spec, R: float, r: float,
                              num_samples: int = 12, tol: float = 1e-8) -> EstimateReport:
    """Pointwise and integrated angle lower estimates on [R, r].

    Pointwise: sqrt(cosh^2 theta - 1) bvol/vol >= m |mean H| at sampled
    radii.  Integrated: the annulus maximum of sqrt(cosh^2 theta - 1) times
    the log-volume difference quotient dominates the minimum of m |mean H|.
    """
    if not graph.pole_regular:
        raise ValueError("cosh_lower_estimate_check needs a pole-regular graph")
    if not 0 < R < r:
        raise ValueError("need 0 < R < r")
    model = graph.model
    vc = _volumes(model)
    nodes = graph.grid.nodes
    samples = np.linspace(R, r, num_samples)
    margins = []
    mh_values = []
    for s in samples:
        i = int(np.argmin(np.abs(nodes - s)))
        sn = float(nodes[i])
        if sn <= 0:
            continue
        lhs = math.sqrt(max(graph.cosh_theta[i] ** 2 - 1.0, 0.0)) * float(vc.bvol(sn)) / float(vc.vol(sn))
        mh = model.m * abs(mean_H_average(model, spec, sn))
        mh_values.append(mh)
        margins.append(lhs - mh)
    mask = (nodes >= R) & (nodes <= r)
    ann_max = float(np.max(np.sqrt(np.maximum(graph.cosh_theta[mask] ** 2 - 1.0, 0.0))))
    logdiff = (float(np.log(vc.vol(r))) - float(np.log(vc.vol(R)))) / (r - R)
    integrated_margin = ann_max * logdiff - min(mh_values)
    margins.append(integrated_margin)
    return make_report(
        "cosh-lower-estimate", lhs=float(min(margins)), rhs=0.0,
        margin=float(min(margins)), tol=tol,
        grid_meta=f"[{R}, {r}] with {num_samples} samples",
        notes=(f"integrated-form margin {integrated_margin:.6g}",),
    )


@dataclass(frozen=True)
class GrowthDiagnostics:
    """Numeric growth trends; diagnostics never hard-fail."""

    volume_G: tuple[float, str]
    linfi: tuple[float, str]
    notl1: tuple[float, str]
    hnotl1: tuple[float, str]

    def rows(self):
        return [
            ("growth-volumeGbound", *self.volume_G),
            ("growth-linfi", *self.linfi),
            ("growth-notl1", *self.notl1),
            ("growth-hnotl1", *self.hnotl1),
        ]


def _increment_trend(i0: float, i1: float, i2: float) -> str:
    d1, d2 = i1 - i0, i2 - i1
    if d1 <= 0:
        return "inconclusive"
    ratio = d2 / d1
    if ratio >= 0.95:
        return "diverging"
    if ratio <= 0.75:
        return "converging"
    return "inconclusive"


def _limit_trend(v_half: float, v_full: float) -> str:
    change = abs(v_full - v_half) / max(1.0, abs(v_full))
    if change <= 0.02:
        return "converging"
    if change >= 0.1:
        return "diverging"
    return "inconclusive"


def growth_diagnostics(model: StaticModel, r_max: float) -> GrowthDiagnostics:
    """Trends of the four growth conditions at r_max.

    Improper integrals are classified by the ratio of their increments over
    the last two decades (thresholds 0.95 / 0.75); limit sequences by their
    relative change over the last decade.  'inconclusive' is an allowed
    verdict.
    """
    if not model.base.pole_anchored:
        raise ValueError("growth_diagnostics needs a pole-anchored model")
    vc = _volumes(model)

    v_g = float(np.log(vc.vol(r_max))) / r_max
    v_g_half = float(np.log(vc.vol(r_max / 2.0))) / (r_max / 2.0)
    linfi_v = float(np.log(vc.vol(r_max))) / r_max**2
    linfi_half = float(np.log(vc.vol(r_max / 2.0))) / (r_max / 2.0) ** 2

    r0 = r_max / 1000.0
    decades = [r_max / 100.0, r_max / 10.0, r_max]

    def running(weight_power: int):
        vals = []
        acc = 0.0
        lo = r0
        for hi in decades:
            acc += quad(lambda s: 1.0 / float(vc.bvol(s, weight_power)), lo, hi, tol=1e-11)
            vals.append(acc)
            lo = hi
        return vals

    notl1_vals = running(1)
    hnotl1_vals = running(2)

    return GrowthDiagnostics(
        volume_G=(v_g, _limit_trend(v_g_half, v_g)),
        linfi=(linfi_v, _limit_trend(linfi_half, linfi_v)),
        notl1=(notl1_vals[-1], _increment_trend(*notl1_vals)),
        hnotl1=(hnotl1_vals[-1], _increment_trend(*hnotl1_vals)),
    )


def angle_bound_check(graph: RadialGraph, G: float, t0: float, tol: float = 1e-9) -> EstimateReport:
    """cosh theta <= exp((m-1) sqrt(2G) |tau - t0|) for maximal graphs.

    Maximality is verified from flux constancy; G must dominate the base
    Ricci lower-bound constant.  The completeness proxy (pole-regular versus
    explicitly flagged annulus) goes into the hypothesis audit notes.
    """
    model = graph.model
    scale = max(1.0, float(np.max(np.abs(graph.flux))))
    if graph.flux_constancy() > 1e-10 * scale:
        raise ValueError("angle_bound_check needs a maximal graph (flux not constant)")
    nodes = graph.grid.nodes
    probe = nodes[nodes > max(nodes[0], 1e-6)]
    worst = 0.0
    for s in probe[:: max(1, probe.size // 32)]:
        cs = base_curvature(model.base, float(s))
        worst = min(worst, cs.ric_rr, cs.ric_tt)
    g_min = max(0.0, -worst / (model.m - 1))
    if G < g_min * (1.0 - 1e-9):
        raise ValueError(f"G = {G} is below the admissible Ricci constant {g_min}")
    bound = np.exp((model.m - 1) * math.sqrt(2.0 * G) * np.abs(graph.tau - t0))
    margin = float(np.min(bound - graph.cosh_theta))
    audit = (
        "completeness proxy: pole-regular graph"
        if graph.pole_regular
        else "completeness proxy: annulus graph, incomplete; hypothesis violated by design"
    )
    return make_report(
        "angle-bound", lhs=float(np.max(graph.cosh_theta)), rhs=float(np.min(bound)),
        margin=margin, tol=tol,
        grid_meta=f"n={len(graph.grid)} t0={t0!r} G={G!r}",
        notes=(audit, f"admissible Ricci constant {g_min!r}"),
    )


@dataclass(frozen=True)
class AngleMachineParams:
    """Cutoff-machinery parameters: ball radius R, slope C, exponent K.

    Carries the Hessian-comparison profile f0(t) = sqrt(B) t coth(sqrt(B) t)
    and its smooth even extensions used to control the distance Hessian.
    """

    R: float
    C: float
    K: float
    B: float = 1.0

    def __post_init__(self):
        if self.R <= 0 or self.K <= 0 or self.B <= 0:
            raise ValueError("R, K, B must be positive")
        if not self.C > 2.0 / self.R:
            raise ValueError("need C > 2/R (gamma = CR/2 > 1)")

    @property
    def gamma(self) -> float:
        return self.C * self.R / 2.0

    @property
    def delta(self) -> float:
        return 2.0 / (1.0 + self.gamma**2)

    def f0(self, t):
        t = np.asarray(t, dtype=float)
        rb = np.sqrt(self.B)
        return rb * t / np.tanh(rb * t)

    def f_ext(self, t):
        """Smooth even extension of f0 with value 1 at t = 0."""
        t = np.abs(np.asarray(t, dtype=float))
        small = t < 1e-6
        out = np.where(small, 1.0 + self.B * t * t / 3.0, self.f0(np.where(small, 1.0, t)))
        return out if out.ndim else float(out)

    def g_ext(self, t):
        """(f - 1)/(2 t^2), extended smoothly across 0 with value B/6."""
        t = np.abs(np.asarray(t, dtype=float))
        small = t < 1e-4
        safe = np.where(small, 1.0, t)
        series = self.B / 6.0 - self.B**2 * t * t / 90.0
        out = np.where(small, series, (self.f_ext(safe) - 1.0) / (2.0 * safe * safe))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Step1Result:
    report: EstimateReport
    lzeta_at_max: float
    interior_smooth_max: bool
    x0_index: int


def angle_machine_step1(graph: RadialGraph, params: AngleMachineParams, t0: float,
                        tol: float = 1e-10) -> Step1Result:
    """Build the cutoffs phi/eta/zeta, locate the zeta maximum, check Step 1.

    The distance is |s - s_o| from the anchor (exact for radial bases with
    the pole at the anchor).  The checked inequality compares Theta at the
    anchor with Theta at the maximiser times the explicit cutoff factor; the
    sign of L zeta at the maximiser is evaluated by the radial formula
    L v = v'' (1 + Theta^2 tau'^2) + (m-1)(g'/g) v' and reported.
    """
    model = graph.model
    nodes = graph.grid.nodes
    o = 0 if graph.anchor.kind == "pole" else graph.node_index(graph.anchor.s0)
    u = graph.tau - t0
    if np.any(u <= 0):
        raise ValueError("angle_machine_step1 needs u = tau - t0 > 0 on the domain")
    u_o = float(u[o])
    if not (params.R > 2.0 * u_o):
        raise ValueError("need R > 2 u(o)")
    if not (2.0 / params.R < params.C < 1.0 / u_o):
        raise ValueError("need C in (2/R, 1/u(o))")

    if np.any(np.abs(graph.slope) >= 1.0):
        raise ValueError("step-1 machine needs |tau'| < 1 (Lorentzian-product gauge)")
    theta = 1.0 / np.sqrt(1.0 - graph.slope**2)
    dist = np.abs(nodes - nodes[o])
    phi = np.maximum(1.0 - dist**2 / params.R**2 - params.C * u, 0.0)
    eta = np.expm1(params.K * phi)
    alpha = 1.0 / (model.m - 1)
    zeta = eta * theta**alpha

    x0 = int(np.argmax(zeta))
    factor = ((math.expm1(params.K)) / (math.exp(params.K) - math.exp(params.K * params.C * u_o))) ** (
        model.m - 1
    ) * math.exp((model.m - 1) * params.K * params.C * u_o)
    lhs = float(theta[o])
    rhs = factor * float(theta[x0])

    ds = float(nodes[1] - nodes[0])
    interior = 0 < x0 < nodes.size - 1
    pole_max = x0 == 0 and nodes[0] == 0.0
    in_support = phi[x0] > 0 and (
        (interior and phi[x0 - 1] > 0 and phi[x0 + 1] > 0) or (pole_max and phi[1] > 0)
    )
    if pole_max:
        zpp = 2.0 * (zeta[1] - zeta[0]) / ds**2
        lzeta = model.m * zpp
        smooth = in_support
    elif interior:
        zpp = (zeta[x0 + 1] - 2.0 * zeta[x0] + zeta[x0 - 1]) / ds**2
        zp = (zeta[x0 + 1] - zeta[x0 - 1]) / (2.0 * ds)
        g, gp, _ = model.base.profile.evaluate(float(nodes[x0]))
        lzeta = zpp * (1.0 + theta[x0] ** 2 * graph.slope[x0] ** 2) + (model.m - 1) * (gp / g) * zp
        smooth = in_support
    else:
        lzeta = float("nan")
        smooth = False

    notes = [
        f"x0 at node {x0} (s = {float(nodes[x0])!r}), interior smooth max: {smooth}",
        f"L zeta at x0 = {lzeta!r}",
        f"gamma = {params.gamma!r}, delta = {params.delta!r}",
    ]
    if not model.lorentzian_product:
        notes.append("model is not a Lorentzian product: Theta uses the sigma-hat slope")
    report = make_report(
        "angle-machine-step1", lhs=lhs, rhs=rhs, margin=rhs - lhs, tol=tol,
        grid_meta=f"R={params.R!r} C={params.C!r} K={params.K!r} n={nodes.size}",
        notes=tuple(notes),
    )
    return Step1Result(report=report, lzeta_at_max=float(lzeta), interior_smooth_max=smooth, x0_index=x0)
