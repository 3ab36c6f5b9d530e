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

from .barriers import ComparisonModel, _improper_trend
from .geometry import StaticModel, base_curvature, modified_bakry_emery
from .graphs import MeanCurvSpec, RadialGraph, _flux_density
from .numerics import Antiderivative, brentq, cumulative_quad
from .reporting import EstimateReport, make_report

__all__ = [
    "sphere_area",
    "WeightedVolumeTable",
    "weighted_volumes",
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

CHEEGER_RADII = 24  # log-spaced radii of a Cheeger profile
COSH_SAMPLES = 12  # sample radii of the pointwise angle lower estimate
STEP1_TOL = 1e-10  # report tolerance of the step-1 angle machine


def sphere_area(m: int) -> float:
    """Area omega_{m-1} of the unit (m-1)-sphere; 2 pi and 4 pi hard-coded."""
    if m == 2:
        return 2.0 * math.pi
    if m == 3:
        return 4.0 * math.pi
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


class _VolumeCache:
    """Weighted volume machinery of one model, built lazily.

    Samples through a twin of the model (the same base and warp, without
    this cache), not the model itself, so the cache stored on the model
    forms no reference cycle and is freed with it.
    """

    def __init__(self, model: StaticModel):
        twin = self._twin = StaticModel(model.base, model.warp)
        self.omega = sphere_area(model.m)
        lo, hi = model.base.s_domain

        def integrand(s):
            smp = twin.sample(s)
            return smp.h * smp.w

        self._anti = Antiderivative(integrand, lo, min(hi, lo + max(8.0, hi - lo)))

    def vol(self, r):
        return self.omega * self._anti(r)

    def bvol(self, r, weight_power: int = 1):
        smp = self._twin.sample(r)
        return self.omega * smp.h ** weight_power * smp.w


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
        raise ValueError("ball volumes need a pole-anchored model (annulus given)")
    radii = np.asarray(r_list, dtype=float)
    model.base.check_domain(radii)
    vc = _volumes(model)
    return WeightedVolumeTable(
        radii=radii,
        vol=np.asarray(vc.vol(radii), dtype=float),
        bvol=np.asarray(vc.bvol(radii), dtype=float),
        omega=vc.omega,
    )


def mean_H_average(model: StaticModel, spec: MeanCurvSpec, r):
    """Weighted integral mean of H over the ball of radius r, for each r.

    ``r`` is a radius (returns a float) or an array of radii (returns one
    value per radius, in input order), each above the domain's inner end.
    All numerators come from one :func:`cumulative_quad` pass over the
    sorted radii with its per-interval relative tolerance, so accuracy does
    not depend on how fast the weighted volume grows.
    """
    if not model.base.pole_anchored:
        raise ValueError("mean_H_average needs a pole-anchored model")
    lo = model.base.s_domain[0]
    radii = np.asarray(r, dtype=float)
    if not np.all(radii > lo):
        raise ValueError(f"mean_H_average needs radii r > {lo!r}")
    model.base.check_domain(radii)
    flat = radii.ravel()
    order = np.argsort(flat)
    numerator = np.empty(flat.size)
    numerator[order] = cumulative_quad(_flux_density(model, spec.value),
                                       np.concatenate(([lo], flat[order])))[1:]
    vc = _volumes(model)
    mean = numerator.reshape(radii.shape) * vc.omega / vc.vol(radii)
    return float(mean) if radii.ndim == 0 else mean


def flux_identity_check(graph: RadialGraph, spec: MeanCurvSpec, s0: float, s1: float,
                        tol: float = 1e-8) -> EstimateReport:
    """Boundary flux difference against m int H h (ball or annulus form).

    The left side is reconstructed from the sampled slope (the angle route),
    the right side is an independent quadrature of the prescribed curvature
    (one :func:`cumulative_quad` interval, relative tolerance), so the
    identity genuinely cross-checks the solver.
    """
    model = graph.model
    if not s0 < s1:
        raise ValueError("need s0 < s1")
    if s0 == 0 and not graph.pole_regular:
        raise ValueError("s0 = 0 requires a pole-regular graph")
    vc = _volumes(model)

    ends = np.array([s0, s1])
    smp = model.sample(ends)
    p = smp.h * graph.slope[[graph.node_index(s) for s in ends]]
    flux = vc.omega * smp.w * smp.h * p / np.sqrt(1.0 - p * p)
    lhs = flux[1] - (0.0 if s0 == 0.0 else flux[0])
    if spec.is_zero:
        rhs = 0.0
    else:
        lo = max(s0, model.base.s_domain[0])
        rhs = model.m * vc.omega * float(cumulative_quad(_flux_density(model, spec.value),
                                                         np.array([lo, s1]))[-1])
    margin = abs(lhs - rhs)
    return make_report(
        "flux-identity", lhs=lhs, rhs=rhs, margin=tol - margin, tol=0.0,
        grid_meta=f"[{s0}, {s1}] n={len(graph.grid)}",
        notes=(f"|lhs-rhs| = {margin:.3e}",),
    )


def log_volume_identity_check(model: StaticModel, R: float, r: float,
                              tol: float = 1e-8) -> EstimateReport:
    """log vol(B_r) - log vol(B_R) against int_R^r bvol/vol, one cumulative_quad interval."""
    if not 0 < R <= r:
        raise ValueError("need 0 < R <= r")
    model.base.check_domain((R, r))
    vc = _volumes(model)
    lhs = float(np.log(vc.vol(r)) - np.log(vc.vol(R))) if r > R else 0.0
    if r == R:
        rhs = 0.0
    else:
        rhs = float(cumulative_quad(lambda s: vc.bvol(s) / vc.vol(s), np.array([R, r]))[-1])
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
    worst_eig = float(min(np.min(eig) for eig in modified_bakry_emery(model, s_arr)))
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


def cheeger_profile(model: StaticModel, r_max: float) -> CheegerProfile:
    """Boundary-to-volume ratios on ``CHEEGER_RADII`` log-spaced radii; their tail minimum.

    The infimum is restricted to geodesic balls; for the built-in radially
    symmetric models balls are isoperimetrically optimal, and that assumption
    is recorded in the result rather than assumed silently.  For custom
    profiles the value is only an upper bound for the true constant.
    """
    if not model.base.pole_anchored:
        raise ValueError("cheeger_profile needs a pole-anchored model")
    if not r_max > 0:
        raise ValueError(f"cheeger_profile needs r_max > 0, got {r_max!r}")
    model.base.check_domain(r_max)
    vc = _volumes(model)
    radii = np.geomspace(r_max / 50.0, r_max, CHEEGER_RADII)
    ratios = np.asarray(vc.bvol(radii), dtype=float) / np.asarray(vc.vol(radii), dtype=float)
    assumption = (
        "infimum restricted to geodesic balls; isoperimetric optimality of balls "
        "assumed for built-in symmetric models (upper bound only for custom profiles)"
    )
    return CheegerProfile(radii=radii, ratios=ratios, c_hat=float(np.min(ratios)), assumption=assumption)


def _symmetric_bands(weight_fn, r_trunc: float, mesh_n: int):
    """Bands of T = M^{-1/2} A M^{-1/2} and the diagonal of M^{1/2}, where face-centred finite
    differences give A v = lambda M v on v_0 .. v_{n-1} with v_n = 0 and no flux through the left
    end; T stays O(1/ds^2)-scaled however fast the weight grows."""
    ds = r_trunc / mesh_n
    s = np.linspace(0.0, r_trunc, mesh_n + 1)
    wf = np.asarray(weight_fn(s[:-1] + 0.5 * ds), dtype=float)
    wn = np.asarray(weight_fn(s), dtype=float)
    mass = wn[:mesh_n].copy()
    mass[0] = 0.5 * (wn[0] if wn[0] != 0.0 else float(weight_fn(np.asarray([0.25 * ds]))[0]))
    diag = np.append(wf[0], wf[:-1] + wf[1:]) / ds**2
    upper = -wf[:-1] / ds**2  # face i lies between unknowns v_i and v_{i+1}
    root = np.sqrt(mass)
    return diag / mass, upper / (root[:-1] * root[1:]), root


def dirichlet_lambda1(weight_fn, r_trunc: float, mesh_n: int) -> float:
    """Lowest eigenvalue of -(1/w)(w v')' on (0, r_trunc), Dirichlet at r_trunc.

    The left end takes the natural (zero-flux) condition, the pole condition.
    For T of :func:`_symmetric_bands`, T - sigma is positive definite (LAPACK's LDL^T
    ``dpttrf`` succeeds) exactly when sigma < lambda1: Sturm bisection (Barth, Martin
    and Wilkinson 1967) halves [0, Rayleigh quotient of cos(pi s / 2 r_trunc)] until
    only the last pivot of T - sigma, factored in reversed row order, fails.  That pivot
    is continuous and decreasing on the bracket and zero at lambda1, where
    :func:`~staticlab.numerics.brentq` finds it to eps ||T||_inf.
    """
    from scipy.linalg.lapack import dpttrf

    if mesh_n < 200:
        raise ValueError("mesh_n >= 200 required")
    diag, off, root = _symmetric_bands(weight_fn, r_trunc, mesh_n)

    def factor(sigma):
        pivots, _, info = dpttrf(diag[::-1] - sigma, off[::-1])
        return info, float(pivots[-1])

    eps = float(np.finfo(float).eps)
    xtol = eps * float(np.max(diag + np.abs(np.pad(off, (0, 1))) + np.abs(np.pad(off, (1, 0)))))
    x = np.cos(0.5 * np.pi / r_trunc * np.linspace(0.0, r_trunc, mesh_n + 1)[:-1]) * root
    lo, hi = 0.0, float((diag @ (x * x) + 2.0 * off @ (x[:-1] * x[1:])) / (x @ x))
    if not math.isfinite(hi):
        raise ValueError("dirichlet_lambda1 needs a finite positive weight")
    sigma = hi
    while (info := factor(sigma)[0]) != mesh_n:
        # info 0: sigma < lambda1; any other failing pivot: sigma >= lambda1
        lo, hi = (sigma, hi) if info == 0 else (lo, sigma)
        if hi - lo <= xtol + 4.0 * eps * hi:  # brentq's stopping width, at least an ulp of hi
            return 0.5 * (lo + hi)
        sigma = 0.5 * (lo + hi)
    # below sigma the first n-1 pivots stay positive: each pivot is monotone in the shift
    return brentq(lambda t: factor(t)[1], lo, sigma, xtol=xtol)


def lambda1_estimate(model: StaticModel, r_trunc: float, mesh_n: int) -> float:
    """Truncated lowest eigenvalue of the h-weighted radial Laplacian.

    Dirichlet at r_trunc, natural (zero-flux) condition at the pole; the
    value decreases toward the spectral bottom as r_trunc grows.
    """
    if not model.base.pole_anchored:
        raise ValueError("lambda1_estimate needs a pole-anchored model")
    if not r_trunc > 0:
        raise ValueError(f"lambda1_estimate needs r_trunc > 0, got {r_trunc!r}")
    model.base.check_domain(r_trunc)

    def weight(s):
        smp = model.sample(np.maximum(np.asarray(s, dtype=float), 0.0))
        return smp.h * smp.w

    return dirichlet_lambda1(weight, r_trunc, mesh_n)


def salavessa_check(graph: RadialGraph, spec, r_list, tol: float = 1e-9) -> EstimateReport:
    """m |mean H| <= sqrt(cosh^2 theta* - 1) bvol/vol on a radius list.

    cosh theta* is the grid maximum, a recorded proxy for the supremum.  The
    mean curvature averages of all radii come from one
    :func:`mean_H_average` call.
    """
    if not graph.pole_regular:
        raise ValueError("salavessa_check needs a pole-regular graph")
    model = graph.model
    vc = _volumes(model)
    cosh_star = float(np.max(graph.cosh_theta))
    factor = math.sqrt(max(cosh_star**2 - 1.0, 0.0))
    radii = np.asarray(r_list, dtype=float)
    lhs = model.m * np.abs(mean_H_average(model, spec, radii))
    rhs = factor * vc.bvol(radii) / vc.vol(radii)
    margins = rhs - lhs
    worst = int(np.argmin(margins))
    return make_report(
        "salavessa-bound", lhs=float(lhs[worst]), rhs=float(rhs[worst]),
        margin=float(margins[worst]), tol=tol,
        grid_meta="radii " + " ".join(repr(x) for x in radii.tolist()),
        notes=(f"cosh theta* proxy = grid max = {cosh_star!r}",),
    )


def cosh_lower_estimate_check(graph: RadialGraph, spec, R: float, r: float,
                              tol: float = 1e-8) -> EstimateReport:
    """Pointwise and integrated angle lower estimates on [R, r].

    Pointwise: sqrt(cosh^2 theta - 1) bvol/vol >= m |mean H| at the grid
    nodes nearest to ``COSH_SAMPLES`` evenly spaced radii (one :func:`mean_H_average`
    call for all of them).  Integrated: the annulus maximum of
    sqrt(cosh^2 theta - 1) times the log-volume difference quotient
    dominates the minimum of m |mean H|.
    """
    if not graph.pole_regular:
        raise ValueError("cosh_lower_estimate_check needs a pole-regular graph")
    if not 0 < R < r:
        raise ValueError("need 0 < R < r")
    model = graph.model
    vc = _volumes(model)
    nodes = graph.grid.nodes
    samples = np.linspace(R, r, COSH_SAMPLES)
    idx = np.argmin(np.abs(nodes[None, :] - samples[:, None]), axis=1)
    idx = idx[nodes[idx] > 0]
    sn = nodes[idx]
    sinh_theta = np.sqrt(np.maximum(graph.cosh_theta**2 - 1.0, 0.0))
    lhs = sinh_theta[idx] * vc.bvol(sn) / vc.vol(sn)
    mh = model.m * np.abs(mean_H_average(model, spec, sn))
    ann_max = float(np.max(sinh_theta[(nodes >= R) & (nodes <= r)]))
    logdiff = (float(np.log(vc.vol(r))) - float(np.log(vc.vol(R)))) / (r - R)
    integrated_margin = ann_max * logdiff - float(np.min(mh))
    margin = min(float(np.min(lhs - mh)), integrated_margin)
    return make_report(
        "cosh-lower-estimate", lhs=margin, rhs=0.0,
        margin=margin, tol=tol,
        grid_meta=f"[{R}, {r}] with {COSH_SAMPLES} samples",
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
    the last two decades (thresholds 0.95 / 0.75); their running values at
    the decades come from one :func:`cumulative_quad` pass each.  Limit
    sequences are classified by their relative change over the last decade.
    'inconclusive' is an allowed verdict.
    """
    if not model.base.pole_anchored:
        raise ValueError("growth_diagnostics needs a pole-anchored model")
    if not r_max > 0:
        raise ValueError(f"growth_diagnostics needs r_max > 0, got {r_max!r}")
    model.base.check_domain(r_max)
    vc = _volumes(model)

    v_g = float(np.log(vc.vol(r_max))) / r_max
    v_g_half = float(np.log(vc.vol(r_max / 2.0))) / (r_max / 2.0)
    linfi_v = float(np.log(vc.vol(r_max))) / r_max**2
    linfi_half = float(np.log(vc.vol(r_max / 2.0))) / (r_max / 2.0) ** 2

    radii = np.array([r_max / 1000.0, r_max / 100.0, r_max / 10.0, r_max])

    def running(weight_power: int):
        return cumulative_quad(lambda s: 1.0 / vc.bvol(s, weight_power), radii)[1:].tolist()

    notl1_vals = running(1)
    hnotl1_vals = running(2)

    return GrowthDiagnostics(
        volume_G=(v_g, _limit_trend(v_g_half, v_g)),
        linfi=(linfi_v, _limit_trend(linfi_half, linfi_v)),
        notl1=(notl1_vals[-1], _improper_trend(notl1_vals)),
        hnotl1=(hnotl1_vals[-1], _improper_trend(hnotl1_vals)),
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
    cs = base_curvature(model.base, probe[:: max(1, probe.size // 32)])
    worst = float(min(np.min(cs.ric_rr, initial=0.0), np.min(cs.ric_tt, initial=0.0)))
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
    """Cutoff-machinery parameters: ball radius R, slope C, exponent K."""

    R: float
    C: float
    K: float

    def __post_init__(self):
        if self.R <= 0 or self.K <= 0:
            raise ValueError("R, K must be positive")
        if not self.C > 2.0 / self.R:
            raise ValueError("need C > 2/R (gamma = CR/2 > 1)")

    @property
    def gamma(self) -> float:
        return self.C * self.R / 2.0

    @property
    def delta(self) -> float:
        return 2.0 / (1.0 + self.gamma**2)


@dataclass(frozen=True)
class Step1Result:
    report: EstimateReport
    lzeta_at_max: float
    interior_smooth_max: bool
    x0_index: int


def angle_machine_step1(graph: RadialGraph, params: AngleMachineParams, t0: float) -> Step1Result:
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
        smp = model.sample(nodes[x0])
        lzeta = zpp * (1.0 + theta[x0] ** 2 * graph.slope[x0] ** 2) + (model.m - 1) * (smp.gp / smp.g) * zp
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
        "angle-machine-step1", lhs=lhs, rhs=rhs, margin=rhs - lhs, tol=STEP1_TOL,
        grid_meta=f"R={params.R!r} C={params.C!r} K={params.K!r} n={nodes.size}",
        notes=tuple(notes),
    )
    return Step1Result(report=report, lzeta_at_max=float(lzeta), interior_smooth_max=smooth, x0_index=x0)
