"""Scenario-driven command line front end.

Usage:
    staticlab run <config> [--out DIR] [--seed N] [--tol-scale X]
    staticlab suite <acceptance|quick> [--out DIR] [--seed N] [--tol-scale X]

Configs are INI-style `key = value` files with [model] and [task] sections
(a `kind = suite` config needs only [task]); numbers are binary64 decimal
text.  `--seed` seeds the sampled criteria of a suite.  Exit codes: 0 when
all requested checks pass (expected failures count as passes), 2 on check
failure, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.resources
import os
import sys

import numpy as np

from . import barriers, elliptic, estimates, geometry, graphs
from .numerics import Grid
from .reporting import make_report, reports_to_text, svg_polyline, write_reports_csv

TASK_KINDS = ("solve-graph", "barrier", "verify", "estimates", "growth", "angle-bound", "elliptic", "suite")


class ConfigError(ValueError):
    pass


def bundled_scenario(name: str) -> str:
    """Path of a bundled scenario config by bare name."""
    ref = importlib.resources.files("staticlab") / "scenarios" / f"{name}.cfg"
    return str(ref)


def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not os.path.exists(path):
        base = os.path.basename(path)
        name = base[:-4] if base.endswith(".cfg") else base
        alt = bundled_scenario(name)
        if os.path.exists(alt):
            path = alt
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not cp.has_section("task"):
        raise ConfigError(f"{path}: missing required [task] section")
    if not cp.has_section("model") and cp.get("task", "kind", fallback="") != "suite":
        raise ConfigError(f"{path}: missing required [model] section")
    return cp


def _getfloat(cp, section, key, default=None):
    try:
        if default is None:
            return cp.getfloat(section, key)
        return cp.getfloat(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number ({exc})") from exc


def _getint(cp, section, key, default=None):
    try:
        if default is None:
            return cp.getint(section, key)
        return cp.getint(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer ({exc})") from exc


def _build_model(cp) -> geometry.StaticModel:
    profile_kind = cp.get("model", "profile", fallback=None)
    if profile_kind is None:
        raise ConfigError("[model] profile is required")
    m = _getint(cp, "model", "m", 2)
    s_min = _getfloat(cp, "model", "s_min", 0.0)
    s_max = _getfloat(cp, "model", "s_max", 20.0)
    if profile_kind == "euclidean":
        prof = geometry.euclidean_profile()
    elif profile_kind == "hyperbolic":
        prof = geometry.hyperbolic_profile(_getfloat(cp, "model", "B", 1.0))
    elif profile_kind == "schwarzschild":
        mu = _getfloat(cp, "model", "mu", 1.0)
        prof = geometry.schwarzschild_profile(mu, m)
        if cp.has_option("model", "rho_min"):
            s_min = geometry.schwarzschild_s_of_rho(mu, m, _getfloat(cp, "model", "rho_min"))
        if cp.has_option("model", "rho_max"):
            s_max = geometry.schwarzschild_s_of_rho(mu, m, _getfloat(cp, "model", "rho_max"))
        s_min = max(s_min, 1e-6)
    elif profile_kind == "custom":
        csv_path = cp.get("model", "profile_csv", fallback=None)
        if csv_path is None or not os.path.exists(csv_path):
            raise ConfigError("[model] profile_csv: file not found")
        prof = geometry.custom_profile_from_csv(csv_path)
    else:
        raise ConfigError(f"[model] profile: unknown kind {profile_kind!r}")

    warp_kind = cp.get("model", "warp", fallback="one")
    if warp_kind == "one":
        warp = geometry.constant_warp(1.0)
    elif warp_kind == "constant":
        warp = geometry.constant_warp(_getfloat(cp, "model", "warp_value", 1.0))
    elif warp_kind == "schwarzschild":
        warp = geometry.schwarzschild_warp(_getfloat(cp, "model", "mu", 1.0), m)
    else:
        raise ConfigError(f"[model] warp: unknown kind {warp_kind!r}")
    base = geometry.RadialBase(m, prof, (s_min, s_max))
    return geometry.StaticModel(base, warp)


def _build_grid(cp, model) -> Grid:
    a = _getfloat(cp, "task", "grid_a", model.base.s_domain[0])
    b = _getfloat(cp, "task", "grid_b", model.base.s_domain[1])
    n = _getint(cp, "task", "grid_n", 1601)
    if cp.has_option("task", "grid_rho_a"):
        mu = _getfloat(cp, "model", "mu", 1.0)
        a = geometry.schwarzschild_s_of_rho(mu, model.m, _getfloat(cp, "task", "grid_rho_a"))
    if cp.has_option("task", "grid_rho_b"):
        mu = _getfloat(cp, "model", "mu", 1.0)
        b = geometry.schwarzschild_s_of_rho(mu, model.m, _getfloat(cp, "task", "grid_rho_b"))
    return Grid.uniform(a, b, n)


def _build_spec(cp) -> graphs.MeanCurvSpec:
    if cp.getboolean("task", "maximal", fallback=False):
        return graphs.zero_H()
    return graphs.constant_H(_getfloat(cp, "task", "H0", 0.0))


def _build_anchor(cp, grid) -> graphs.Anchor:
    kind = cp.get("task", "anchor", fallback="pole")
    tau0 = _getfloat(cp, "task", "tau0", 0.0)
    if kind == "pole":
        return graphs.Anchor.pole(tau0)
    s0 = _getfloat(cp, "task", "s0", float(grid.a))
    return graphs.Anchor.point(s0, tau0, _getfloat(cp, "task", "F0", 0.0))


def _solve_graph_from(cp, model):
    grid = _build_grid(cp, model)
    spec = _build_spec(cp)
    anchor = _build_anchor(cp, grid)
    return graphs.solve_radial_graph(model, spec, anchor, grid), spec


def _task_solve_graph(cp, model, outdir, tol_scale):
    g, _spec = _solve_graph_from(cp, model)
    graphs.export_graph_csv(g, os.path.join(outdir, "graph.csv"))
    reports = [graphs.gauge_consistency_check(g, tol=1e-6 * tol_scale)]
    if cp.getboolean("task", "plot", fallback=False):
        svg_polyline(g.grid.nodes, g.cosh_theta, os.path.join(outdir, "cosh_theta.svg"),
                     title="cosh theta profile")
        svg_polyline(g.grid.nodes, g.tau, os.path.join(outdir, "tau.svg"), title="height profile")
    return reports


def _build_barrier(cp):
    kind = cp.get("task", "barrier_kind", fallback="prod0")
    n = _getint(cp, "task", "n", 4000)
    if kind == "prod0":
        cmpm = barriers.ComparisonModel(_getfloat(cp, "task", "G0", 1.0))
        a0 = _getfloat(cp, "task", "A0", 1.0)
        return barriers.build_barrier_prod0(
            _getint(cp, "model", "m", 2), cmpm,
            R=_getfloat(cp, "task", "anchor_radius"),
            r=_getfloat(cp, "task", "control_radius"),
            eps=_getfloat(cp, "task", "eps", 0.5),
            A=lambda s, a0=a0: np.full_like(np.asarray(s, dtype=float), a0),
            s_max=_getfloat(cp, "task", "s_max", 30.0), n=n,
        )
    if kind == "schwarzschild":
        return barriers.build_barrier_schwarzschild(
            _getfloat(cp, "model", "mu", 1.0), _getint(cp, "model", "m", 3),
            rho1=_getfloat(cp, "task", "rho1"), rho2=_getfloat(cp, "task", "rho2"),
            beta=_getfloat(cp, "task", "beta", 0.1), H0=_getfloat(cp, "task", "H0", 0.2),
            rho_max=_getfloat(cp, "task", "rho_max", 40.0), n=n,
        )
    raise ConfigError(f"[task] barrier_kind: unknown kind {kind!r}")


def _task_barrier(cp, model, outdir, tol_scale, verify: bool):
    b = _build_barrier(cp)
    barriers.export_barrier_csv(b, os.path.join(outdir, "barrier.csv"))
    if not verify:
        notes = tuple(b.warnings)
        return [make_report("barrier-constructed", lhs=b.C, rhs=1.0, margin=1.0 - b.C, tol=0.0,
                            grid_meta=f"kind={b.kind} beta1={b.beta1!r}", notes=notes)]
    return barriers.verify_barrier(b, tol_scale=tol_scale)


def _task_estimates(cp, model, outdir, tol_scale):
    g, spec = _solve_graph_from(cp, model)
    graphs.export_graph_csv(g, os.path.join(outdir, "graph.csv"))
    radii = [float(x) for x in cp.get("task", "radii", fallback="2.0 5.0 10.0").split()]
    reports = [graphs.gauge_consistency_check(g, tol=1e-6 * tol_scale)]
    reports.append(estimates.flux_identity_check(g, spec, 0.0, radii[0], tol=1e-8 * tol_scale))
    reports.append(estimates.salavessa_check(g, spec, radii, tol=1e-9 * tol_scale))
    reports.append(estimates.cosh_lower_estimate_check(g, spec, radii[0], radii[-1], tol=1e-8 * tol_scale))
    reports.append(estimates.log_volume_identity_check(model, radii[0], radii[-1], tol=1e-7 * tol_scale))
    cmpm = barriers.ComparisonModel(_getfloat(cp, "task", "bg_G0", 1.0))
    reports.append(estimates.bishop_gromov_check(model, cmpm, np.linspace(radii[0], radii[-1], 10),
                                                 tol=1e-9 * tol_scale))
    prof = estimates.cheeger_profile(model, _getfloat(cp, "task", "cheeger_rmax", 20.0))
    lam = estimates.lambda1_estimate(model, _getfloat(cp, "task", "lambda1_rtrunc", 15.0),
                                     _getint(cp, "task", "lambda1_n", 1500))
    reports.append(make_report(
        "cheeger-spectral-inequality", lhs=0.25 * prof.c_hat**2, rhs=lam,
        margin=lam - 0.25 * prof.c_hat**2, tol=0.03 * tol_scale,
        grid_meta=f"c_hat={prof.c_hat!r} lambda1={lam!r}",
        notes=(prof.assumption,),
    ))
    if cp.getboolean("task", "plot", fallback=False):
        svg_polyline(prof.radii, prof.ratios, os.path.join(outdir, "cheeger_ratio.svg"),
                     title="weighted boundary/volume ratio")
    return reports


def _task_growth(cp, model, outdir, tol_scale):
    r_max = _getfloat(cp, "task", "r_max", 100.0)
    gd = estimates.growth_diagnostics(model, r_max)
    return [make_report(name, lhs=value, rhs=float("inf"), margin=0.0, tol=0.0, grid_meta=f"r_max={r_max!r}",
                        notes=(f"trend: {trend}",))
            for name, value, trend in gd.rows()]


def _task_angle_bound(cp, model, outdir, tol_scale):
    g, _spec = _solve_graph_from(cp, model)
    graphs.export_graph_csv(g, os.path.join(outdir, "graph.csv"))
    if cp.get("task", "t0_mode", fallback="explicit") == "tau-at-anchor":
        t0 = float(g.tau[0])
    else:
        t0 = _getfloat(cp, "task", "t0", 0.0)
    return [estimates.angle_bound_check(g, G=_getfloat(cp, "task", "G", 1.0), t0=t0,
                                        tol=1e-9 * tol_scale)]


def _task_elliptic(cp, model, outdir, tol_scale):
    grid = _build_grid(cp, model)
    op = elliptic.MeshOperator.from_model(model, grid)
    rhs = np.full(len(grid), _getfloat(cp, "task", "rhs", 0.0))
    bc = (_getfloat(cp, "task", "bc_left", 0.0), _getfloat(cp, "task", "bc_right", 0.0))
    problem = elliptic.DirichletProblem(op, rhs, bc)
    u = elliptic.newton_solve(problem, tol=1e-9 * tol_scale)
    elliptic.export_solution_csv(op, u, rhs, os.path.join(outdir, "solution.csv"))
    res = float(np.max(np.abs(elliptic.residual(op, u, rhs))))
    tele = elliptic.divergence_telescope(op, u, rhs)
    return [
        make_report("elliptic-solve", lhs=res, rhs=1e-9 * tol_scale, margin=1e-9 * tol_scale - res,
                    tol=0.0, grid_meta=f"n={len(grid)}"),
        make_report("elliptic-telescope", lhs=tele, rhs=1e-12, margin=1e-12 - tele, tol=0.0),
    ]


def _run_scenario(config_path: str, outdir: str, seed: int, tol_scale: float) -> int:
    cp = _load_config(config_path)
    kind = cp.get("task", "kind", fallback=None)
    if kind not in TASK_KINDS:
        raise ConfigError(f"[task] kind must be one of {TASK_KINDS}, got {kind!r}")
    if kind == "suite":
        return _run_suite(cp.get("task", "name", fallback="quick"), outdir, seed, tol_scale)

    name = os.path.splitext(os.path.basename(config_path))[0]
    scenario_out = os.path.join(outdir, name)
    os.makedirs(scenario_out, exist_ok=True)
    model = _build_model(cp)

    if kind == "solve-graph":
        reports = _task_solve_graph(cp, model, scenario_out, tol_scale)
    elif kind == "barrier":
        reports = _task_barrier(cp, model, scenario_out, tol_scale, verify=False)
    elif kind == "verify":
        reports = _task_barrier(cp, model, scenario_out, tol_scale, verify=True)
    elif kind == "estimates":
        reports = _task_estimates(cp, model, scenario_out, tol_scale)
    elif kind == "growth":
        reports = _task_growth(cp, model, scenario_out, tol_scale)
    elif kind == "angle-bound":
        reports = _task_angle_bound(cp, model, scenario_out, tol_scale)
    elif kind == "elliptic":
        reports = _task_elliptic(cp, model, scenario_out, tol_scale)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled task kind {kind!r}")

    write_reports_csv(reports, os.path.join(scenario_out, "reports.csv"))
    text = reports_to_text(reports)
    failures = [r for r in reports if not r.verdict]
    expect = cp.get("task", "expect", fallback="pass")
    if expect == "fail":
        if failures:
            text += f"\n{len(failures)} check(s) failed as designed: EXPECTED-FAIL\n"
            status = 0
        else:
            text += "\nexpected a failure but every check passed: UNEXPECTED-PASS\n"
            status = 2
    else:
        status = 2 if failures else 0
    with open(os.path.join(scenario_out, "summary.txt"), "w", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return status


def _run_suite(name: str, outdir: str, seed: int, tol_scale: float) -> int:
    from . import acceptance

    if name == "acceptance":
        results = acceptance.run_acceptance(seed=seed, tol_scale=tol_scale)
    elif name == "quick":
        results = acceptance.run_quick(seed=seed, tol_scale=tol_scale)
    else:
        sys.stderr.write(f"unknown suite name {name!r} (use acceptance or quick)\n")
        return 1
    os.makedirs(outdir, exist_ok=True)
    lines = []
    for res in results:
        lines.append(res.line())
        for d in res.details:
            lines.append(f"    {d}")
    summary = "\n".join(lines) + "\n"
    sys.stdout.write(summary)
    csv_lines = ["criterion,name,verdict"]
    for res in results:
        csv_lines.append(f"{res.number},{res.name},{'pass' if res.passed else 'fail'}")
    with open(os.path.join(outdir, f"suite_{name}_summary.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(csv_lines) + "\n")
    with open(os.path.join(outdir, f"suite_{name}_summary.txt"), "w", newline="\n") as fh:
        fh.write(summary)
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="staticlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run a bundled suite")
    p_suite.add_argument("name")
    for p in (p_run, p_suite):
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol-scale", type=float, default=1.0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "run":
            return _run_scenario(args.config, args.out, args.seed, args.tol_scale)
        return _run_suite(args.name, args.out, args.seed, args.tol_scale)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
