"""Scenario-driven command line front end.

Usage:
    staticlab run <config> [--out DIR]
    staticlab suite <acceptance|quick> [--out DIR] [--seed N]

Configs are INI files with [model] and [task] sections; numbers are
binary64 decimal text.  `KEYS` declares each key: its type, default and the
kinds of model and task it applies to.  An unknown or inapplicable key or
section, a missing required key or a bad value exits 1 with the key named.
`--seed` seeds the sampled criteria of a suite.  Exit codes: 0 when all
requested checks pass (expected failures count as passes), 2 on check
failure, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.resources
import math
import os
import sys
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import barriers, elliptic, estimates, geometry, graphs
from .numerics import Grid
from .reporting import make_report, reports_to_text, svg_polyline, write_reports_csv


class ConfigError(ValueError):
    """A config file that cannot be read or that `KEYS` rejects."""


class Key(NamedTuple):
    """One config key: `type` is "finite", "positive", "int>=N", "bool", "floats", "path" or a tuple
    of choices.  Each key above it tags the run "name=value"; it applies where each set in `applies`
    meets those tags, and is required there if its default is REQUIRED or `required` meets them."""

    section: str
    name: str
    type: object
    default: object
    applies: tuple = ()
    required: frozenset = frozenset()


def _is(name: str, *values: str) -> frozenset:
    return frozenset(f"{name}={value}" for value in values)


REQUIRED = "required"
_GRAPH, _BARRIER = _is("kind", "solve-graph", "estimates", "angle-bound"), _is("kind", "barrier", "verify")
_ELLIPTIC, _ESTIMATES, _ANGLE = _is("kind", "elliptic"), _is("kind", "estimates"), _is("kind", "angle-bound")
_SCHW, _SCHW_BARRIER = _is("profile", "schwarzschild"), _is("barrier_kind", "schwarzschild")
_SCHW_WARP, _PROD0 = _SCHW | _is("warp", "schwarzschild"), _is("barrier_kind", "prod0")
_NEEDS = {"barrier_kind=schwarzschild": _SCHW}  # that barrier reads mu and m from [model]

KEYS = (
    Key("task", "kind", ("solve-graph", "barrier", "verify", "estimates", "growth", "angle-bound", "elliptic"),
        REQUIRED),
    Key("model", "profile", ("euclidean", "hyperbolic", "schwarzschild", "custom"), REQUIRED),
    Key("model", "warp", ("one", "constant", "schwarzschild"), "one"),
    Key("task", "barrier_kind", ("prod0", "schwarzschild"), "prod0", (_BARRIER,)),
    Key("task", "anchor", ("pole", "point"), "pole", (_GRAPH,)),
    Key("task", "t0_mode", ("explicit", "tau-at-anchor"), "explicit", (_ANGLE,)),
    Key("task", "expect", ("pass", "fail"), "pass"),
    Key("model", "m", "int>=2", 2, (), _SCHW_WARP),
    Key("model", "s_min", "finite", 0.0),
    Key("model", "s_max", "finite", 20.0),
    Key("model", "B", "positive", 1.0, (_is("profile", "hyperbolic"),)),
    Key("model", "mu", "positive", 1.0, (_SCHW_WARP,)),
    Key("model", "rho_min", "finite", None, (_SCHW,)),
    Key("model", "rho_max", "finite", None, (_SCHW,)),
    Key("model", "profile_csv", "path", REQUIRED, (_is("profile", "custom"),)),
    Key("model", "warp_value", "positive", 1.0, (_is("warp", "constant"),)),
    Key("task", "grid_a", "finite", None, (_GRAPH | _ELLIPTIC,)),
    Key("task", "grid_b", "finite", None, (_GRAPH | _ELLIPTIC,)),
    Key("task", "grid_n", "int>=9", 1601, (_GRAPH | _ELLIPTIC,)),
    Key("task", "grid_rho_a", "finite", None, (_GRAPH | _ELLIPTIC, _SCHW)),
    Key("task", "grid_rho_b", "finite", None, (_GRAPH | _ELLIPTIC, _SCHW)),
    Key("task", "maximal", "bool", False, (_GRAPH,)),
    Key("task", "H0", "finite", 0.0, (_GRAPH | _SCHW_BARRIER,), _SCHW_BARRIER),
    Key("task", "tau0", "finite", 0.0, (_GRAPH,)),
    Key("task", "s0", "finite", None, (_is("anchor", "point"),)),
    Key("task", "F0", "finite", 0.0, (_is("anchor", "point"),)),
    Key("task", "plot", "bool", False, (_is("kind", "solve-graph", "estimates"),)),
    Key("task", "radii", "floats", (2.0, 5.0, 10.0), (_ESTIMATES,)),
    Key("task", "bg_G0", "finite", 1.0, (_ESTIMATES,)),
    Key("task", "cheeger_rmax", "positive", 20.0, (_ESTIMATES,)),
    Key("task", "lambda1_rtrunc", "positive", 15.0, (_ESTIMATES,)),
    Key("task", "lambda1_n", "int>=200", 1500, (_ESTIMATES,)),
    Key("task", "r_max", "positive", 100.0, (_is("kind", "growth"),)),
    Key("task", "t0", "finite", 0.0, (_is("t0_mode", "explicit"),)),
    Key("task", "G", "finite", 1.0, (_ANGLE,)),
    Key("task", "rhs", "finite", 0.0, (_ELLIPTIC,)),
    Key("task", "bc_left", "finite", 0.0, (_ELLIPTIC,)),
    Key("task", "bc_right", "finite", 0.0, (_ELLIPTIC,)),
    Key("task", "n", "int>=1", 4000, (_BARRIER,)),
    Key("task", "G0", "finite", 1.0, (_PROD0,)),
    Key("task", "A0", "finite", 1.0, (_PROD0,)),
    Key("task", "anchor_radius", "finite", REQUIRED, (_PROD0,)),
    Key("task", "control_radius", "finite", REQUIRED, (_PROD0,)),
    Key("task", "eps", "finite", 0.5, (_PROD0,)),
    Key("task", "s_max", "finite", 30.0, (_PROD0,)),
    Key("task", "rho1", "finite", REQUIRED, (_SCHW_BARRIER,)),
    Key("task", "rho2", "finite", REQUIRED, (_SCHW_BARRIER,)),
    Key("task", "beta", "finite", 0.1, (_SCHW_BARRIER,)),
    Key("task", "rho_max", "finite", 40.0, (_SCHW_BARRIER,)),
)
_SECTIONS = {sec: [k.name.lower() for k in KEYS if k.section == sec] for sec in ("model", "task")}


def bundled_scenario(name: str) -> str:
    """Path of a bundled scenario config by bare name."""
    return str(importlib.resources.files("staticlab") / "scenarios" / f"{name}.cfg")


def _parse(spec, text: str):
    """The value `text` gives a key of type `spec`; ValueError if it gives none."""
    if isinstance(spec, tuple) and text not in spec or spec == "path" and not os.path.exists(text):
        raise ValueError("file not found" if spec == "path" else f"not one of {', '.join(spec)}")
    if isinstance(spec, tuple) or spec == "path":
        return text
    if spec == "bool":
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError("not a boolean")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if spec.startswith("int>="):
        if int(text) < int(spec[5:]):
            raise ValueError(f"not an integer >= {spec[5:]}")
        return int(text)
    values = tuple(float(x) for x in text.split()) if spec == "floats" else (float(text),)
    if not values or not all(map(math.isfinite, values)) or spec == "positive" and values[0] <= 0:
        raise ValueError("not a list of finite numbers" if spec == "floats" else f"not a {spec} number")
    return values if spec == "floats" else values[0]


def load_config(path: str) -> Mapping[str, Mapping[str, object]]:
    """Check an INI scenario file (a bundled one by bare name) against `KEYS`.  The frozen resolved
    config maps section -> key -> value or default, None where unset without one or inapplicable."""
    bundled = bundled_scenario(os.path.basename(path).removesuffix(".cfg"))
    path = bundled if not os.path.exists(path) and os.path.exists(bundled) else path
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
        given = {(sec, key): text for sec in cp.sections() for key, text in cp.items(sec)}
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    unknown = [(f"section [{sec}]", sec, _SECTIONS) for sec in cp.sections() if sec not in _SECTIONS]
    unknown += [(f"key [{sec}] {key}", key, _SECTIONS[sec]) for sec, key in given
                if sec in _SECTIONS and key not in _SECTIONS[sec]]
    if unknown:
        import difflib  # only on this error path
        what, name, known = unknown[0]
        close = difflib.get_close_matches(name, known, n=1)
        raise ConfigError(f"unknown {what}" + (f"; did you mean {close[0]}?" if close else ""))
    tags, resolved = set(), {"model": {}, "task": {}}
    for k in KEYS:
        text, where = given.get((k.section, k.name.lower())), f"[{k.section}] {k.name}"
        unmet = [group for group in k.applies if tags.isdisjoint(group)]
        if unmet and text is not None:
            raise ConfigError(f"{where} does not apply: it needs {' and '.join(map(' or '.join, map(sorted, unmet)))}")
        if not unmet and text is None and (k.default is REQUIRED or k.required & tags):
            raise ConfigError(f"{where} is required ({', '.join(sorted(k.required & tags)) or 'no default'})")
        try:
            value = None if unmet else k.default if text is None else _parse(k.type, text)
        except ValueError as exc:
            raise ConfigError(f"{where} = {text}: {exc}") from exc
        tags.add(tag := f"{k.name}={value}")
        if tag in _NEEDS and not _NEEDS[tag] & tags:
            raise ConfigError(f"{where} = {value} needs {' or '.join(sorted(_NEEDS[tag]))}")
        resolved[k.section][k.name] = value
    return MappingProxyType({sec: MappingProxyType(values) for sec, values in resolved.items()})


def _build_model(cfg) -> geometry.StaticModel:
    md = cfg["model"]
    m, s_min, s_max = md["m"], md["s_min"], md["s_max"]
    if md["profile"] == "euclidean":
        prof = geometry.euclidean_profile()
    elif md["profile"] == "hyperbolic":
        prof = geometry.hyperbolic_profile(md["B"])
    elif md["profile"] == "schwarzschild":
        prof = geometry.schwarzschild_profile(md["mu"], m)
        if md["rho_min"] is not None:
            s_min = geometry.schwarzschild_s_of_rho(md["mu"], m, md["rho_min"])
        if md["rho_max"] is not None:
            s_max = geometry.schwarzschild_s_of_rho(md["mu"], m, md["rho_max"])
        s_min = max(s_min, 1e-6)
    else:
        prof = geometry.custom_profile_from_csv(md["profile_csv"])
    warp = (geometry.schwarzschild_warp(md["mu"], m) if md["warp"] == "schwarzschild"
            else geometry.constant_warp(1.0 if md["warp"] == "one" else md["warp_value"]))
    return geometry.StaticModel(geometry.RadialBase(m, prof, (s_min, s_max)), warp)


def _build_grid(cfg, model) -> Grid:
    t, (a, b) = cfg["task"], model.base.s_domain
    a, b = (a if t["grid_a"] is None else t["grid_a"]), (b if t["grid_b"] is None else t["grid_b"])
    if t["grid_rho_a"] is not None:
        a = geometry.schwarzschild_s_of_rho(cfg["model"]["mu"], model.m, t["grid_rho_a"])
    if t["grid_rho_b"] is not None:
        b = geometry.schwarzschild_s_of_rho(cfg["model"]["mu"], model.m, t["grid_rho_b"])
    return Grid.uniform(a, b, t["grid_n"])


def _solve_graph(cfg, model, outdir):
    """The graph of a graph task, written to graph.csv, and its mean curvature."""
    t, grid = cfg["task"], _build_grid(cfg, model)
    spec = graphs.zero_H() if t["maximal"] else graphs.constant_H(t["H0"])
    s0 = float(grid.a) if t["s0"] is None else t["s0"]
    anchor = graphs.Anchor.pole(t["tau0"]) if t["anchor"] == "pole" else graphs.Anchor.point(s0, t["tau0"], t["F0"])
    g = graphs.solve_radial_graph(model, spec, anchor, grid)
    graphs.export_graph_csv(g, os.path.join(outdir, "graph.csv"))
    return g, spec


def _task_solve_graph(cfg, model, outdir):
    g, _spec = _solve_graph(cfg, model, outdir)
    if cfg["task"]["plot"]:
        svg_polyline(g.grid.nodes, g.cosh_theta, os.path.join(outdir, "cosh_theta.svg"),
                     title="cosh theta profile")
        svg_polyline(g.grid.nodes, g.tau, os.path.join(outdir, "tau.svg"), title="height profile")
    return [graphs.gauge_consistency_check(g, tol=1e-6)]


def _task_barrier(cfg, model, outdir):
    t, m = cfg["task"], cfg["model"]["m"]
    if t["barrier_kind"] == "schwarzschild":
        b = barriers.build_barrier_schwarzschild(cfg["model"]["mu"], m, rho1=t["rho1"], rho2=t["rho2"],
                                                 beta=t["beta"], H0=t["H0"], rho_max=t["rho_max"], n=t["n"])
    else:
        b = barriers.build_barrier_prod0(
            m, barriers.ComparisonModel(t["G0"]), R=t["anchor_radius"], r=t["control_radius"], eps=t["eps"],
            A=lambda s, a0=t["A0"]: np.full_like(np.asarray(s, dtype=float), a0), s_max=t["s_max"], n=t["n"])
    barriers.export_barrier_csv(b, os.path.join(outdir, "barrier.csv"))
    if t["kind"] == "verify":
        return barriers.verify_barrier(b)
    return [make_report("barrier-constructed", lhs=b.C, rhs=1.0, margin=1.0 - b.C, tol=0.0,
                        grid_meta=f"kind={b.kind} beta1={b.beta1!r}", notes=tuple(b.warnings))]


def _task_estimates(cfg, model, outdir):
    t = cfg["task"]
    for key in ("cheeger_rmax", "lambda1_rtrunc"):
        try:
            model.base.check_domain(t[key])
        except geometry.DomainError as exc:
            raise ConfigError(f"[task] {key} = {t[key]!r}: {exc}") from exc
    g, spec = _solve_graph(cfg, model, outdir)
    r0, r1 = t["radii"][0], t["radii"][-1]
    reports = [
        graphs.gauge_consistency_check(g, tol=1e-6),
        estimates.flux_identity_check(g, spec, 0.0, r0, tol=1e-8),
        estimates.salavessa_check(g, spec, list(t["radii"]), tol=1e-9),
        estimates.cosh_lower_estimate_check(g, spec, r0, r1, tol=1e-8),
        estimates.log_volume_identity_check(model, r0, r1, tol=1e-7),
        estimates.bishop_gromov_check(model, barriers.ComparisonModel(t["bg_G0"]), np.linspace(r0, r1, 10),
                                      tol=1e-9),
    ]
    prof = estimates.cheeger_profile(model, t["cheeger_rmax"])
    lam = estimates.lambda1_estimate(model, t["lambda1_rtrunc"], t["lambda1_n"])
    reports.append(make_report("cheeger-spectral-inequality", lhs=0.25 * prof.c_hat**2, rhs=lam,
                               margin=lam - 0.25 * prof.c_hat**2, tol=0.03,
                               grid_meta=f"c_hat={prof.c_hat!r} lambda1={lam!r}", notes=(prof.assumption,)))
    if t["plot"]:
        svg_polyline(prof.radii, prof.ratios, os.path.join(outdir, "cheeger_ratio.svg"),
                     title="weighted boundary/volume ratio")
    return reports


def _task_growth(cfg, model, outdir):
    r_max = cfg["task"]["r_max"]
    return [make_report(name, lhs=value, rhs=float("inf"), margin=0.0, tol=0.0, grid_meta=f"r_max={r_max!r}",
                        notes=(f"trend: {trend}",))
            for name, value, trend in estimates.growth_diagnostics(model, r_max).rows()]


def _task_angle_bound(cfg, model, outdir):
    g, _spec = _solve_graph(cfg, model, outdir)
    t0 = float(g.tau[0]) if cfg["task"]["t0_mode"] == "tau-at-anchor" else cfg["task"]["t0"]
    return [estimates.angle_bound_check(g, G=cfg["task"]["G"], t0=t0, tol=1e-9)]


def _task_elliptic(cfg, model, outdir):
    t, grid = cfg["task"], _build_grid(cfg, model)
    op = elliptic.MeshOperator.from_model(model, grid)
    rhs = np.full(len(grid), t["rhs"])
    u = elliptic.newton_solve(elliptic.DirichletProblem(op, rhs, (t["bc_left"], t["bc_right"])),
                              tol=1e-9)
    elliptic.export_solution_csv(op, u, rhs, os.path.join(outdir, "solution.csv"))
    res = float(np.max(np.abs(elliptic.residual(op, u, rhs))))
    tele = elliptic.divergence_telescope(op, u, rhs)
    return [
        make_report("elliptic-solve", lhs=res, rhs=1e-9, margin=1e-9 - res,
                    tol=0.0, grid_meta=f"n={len(grid)}"),
        make_report("elliptic-telescope", lhs=tele, rhs=1e-12, margin=1e-12 - tele, tol=0.0),
    ]


_TASKS = {"solve-graph": _task_solve_graph, "barrier": _task_barrier, "verify": _task_barrier,
          "estimates": _task_estimates, "growth": _task_growth, "angle-bound": _task_angle_bound,
          "elliptic": _task_elliptic}


def _run_scenario(config_path: str, outdir: str) -> int:
    cfg = load_config(config_path)
    scenario_out = os.path.join(outdir, os.path.splitext(os.path.basename(config_path))[0])
    os.makedirs(scenario_out, exist_ok=True)
    reports = _TASKS[cfg["task"]["kind"]](cfg, _build_model(cfg), scenario_out)
    write_reports_csv(reports, os.path.join(scenario_out, "reports.csv"))
    text = reports_to_text(reports)
    failures = [r for r in reports if not r.verdict]
    status = 2 if failures else 0
    if cfg["task"]["expect"] == "fail":
        status = 0 if failures else 2
        text += (f"\n{len(failures)} check(s) failed as designed: EXPECTED-FAIL\n" if failures
                 else "\nexpected a failure but every check passed: UNEXPECTED-PASS\n")
    with open(os.path.join(scenario_out, "summary.txt"), "w", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return status


def _run_suite(name: str, outdir: str, seed: int) -> int:
    from . import acceptance
    run = acceptance.run_acceptance if name == "acceptance" else acceptance.run_quick
    results = run(seed=seed)
    os.makedirs(outdir, exist_ok=True)
    summary = "".join(res.line() + "\n" + "".join(f"    {d}\n" for d in res.details) for res in results)
    sys.stdout.write(summary)
    rows = "".join(f"{res.number},{res.name},{'pass' if res.passed else 'fail'}\n" for res in results)
    for suffix, text in (("csv", "criterion,name,verdict\n" + rows), ("txt", summary)):
        with open(os.path.join(outdir, f"suite_{name}_summary.{suffix}"), "w", newline="\n") as fh:
            fh.write(text)
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="staticlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run a bundled suite")
    p_suite.add_argument("name", choices=("acceptance", "quick"))
    for p in (p_run, p_suite):
        p.add_argument("--out", default="out")
    p_suite.add_argument("--seed", type=int, default=42)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _run_scenario(args.config, args.out)
        return _run_suite(args.name, args.out, args.seed)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"{'config error' if isinstance(exc, ConfigError) else 'error'}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
