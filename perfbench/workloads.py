"""The four benchmark workloads: their op lists and the check that gates each op.

An op is one timed unit of work.  ``Op.run`` is timed; ``Op.check`` runs
afterwards, untimed, on what ``run`` returned and gives ``None`` when the
output is correct or a one-line reason when it is not.  Every workload takes
the benchmark seed; ``ops(k)`` gives the op list of pass ``k`` and depends
only on the seed and ``k``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from staticlab import acceptance, barriers, cli, elliptic, estimates, geometry, graphs, tensors
from staticlab.numerics import Grid

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _shuffled(ops: list[Op], seed: int, k: int) -> list[Op]:
    return [ops[i] for i in _rng(seed, k).permutation(len(ops))]


def _worst(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _first_failure(*checks: tuple[bool, str]) -> str | None:
    for ok, reason in checks:
        if not ok:
            return reason
    return None


class Scenarios:
    """The seven bundled scenarios, each through ``cli.main(["run", name, ...])``."""

    why = ("what users run: staticlab run on the 7 bundled scenarios; scalar quad inside estimates "
           "dominates; the only workload that writes report files")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        with open(os.path.join(HERE, "expected_verdicts.json")) as fh:
            self.expected = json.load(fh)

    def _op(self, name: str, k: int) -> Op:
        # Every run gets an output directory that does not exist yet.  On an
        # ext4 disk, rewriting an existing output file cost 50-70 ms per file
        # (against 0.1 ms for a new file, or on /dev/shm), so a 3 ms scenario
        # took 150-200 ms from its third rerun into the same directory, and the
        # benchmark would have timed the file system instead of the program.
        out = os.path.join(self.workdir, f"pass{k:04d}-{name}")
        expected = self.expected[name]

        def run():
            return cli.main(["run", name, "--out", out])

        def check(code):
            if code != expected["exit"]:
                return f"exit code {code}, expected {expected['exit']}"
            with open(os.path.join(out, name, "reports.csv"), newline="") as fh:
                got = [[row["check"], row["verdict"]] for row in csv.DictReader(fh)]
            if got != expected["verdicts"]:
                return f"reports.csv verdicts {got} differ from the seed commit's {expected['verdicts']}"
            return None

        return Op(f"scenario-{name}", run, check)

    def ops(self, k: int) -> list[Op]:
        return _shuffled([self._op(name, k) for name in sorted(self.expected)], self.seed, k)


class Acceptance:
    """Criteria 1..12 of the acceptance suite, one op each."""

    why = ("the acceptance suite, the other end-to-end target; the only workload driving tensors "
           "batch sweeps; criterion 12 reruns scenarios, criterion 1 builds many Schwarzschild charts")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    @staticmethod
    def _op(number: int) -> Op:
        def check(result):
            return None if result.passed else f"criterion {number} failed: " + "; ".join(
                d for d in result.details if "FAIL" in d)

        return Op(f"criterion-{number}", lambda: acceptance.run_criterion(number), check)

    def ops(self, k: int) -> list[Op]:
        return _shuffled([self._op(n) for n in sorted(acceptance.CRITERIA)], self.seed, k)


def _schwarzschild_model(mu: float, m: int, s_domain: tuple[float, float]) -> geometry.StaticModel:
    base = geometry.RadialBase(m, geometry.schwarzschild_profile(mu, m), s_domain)
    return geometry.StaticModel(base, geometry.schwarzschild_warp(mu, m))


def _pole_model(profile: geometry.RadialProfile, m: int, s_max: float) -> geometry.StaticModel:
    return geometry.StaticModel(geometry.RadialBase(m, profile, (0.0, s_max)), geometry.constant_warp(1.0))


class Refine:
    """A mesh-refinement ladder on fixed models, where the array kernels do the work."""

    why = ("grid refinement n=1601..12801 on fixed models: tridiag_solve, Newton and inverse iteration "
           "dominate, scalar fallbacks are nearly absent; Newton stalls from n=3201 at the seed")

    SIZES = (1601, 3201, 6401, 12801)
    LAMBDA1_B20 = 0.2716788  # truncated Dirichlet value of the H^2 ball B_20 (independent shooting)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.schw = _schwarzschild_model(1.0, 3, (0.2, 80.0))
        self.hyp = _pole_model(geometry.hyperbolic_profile(1.0), 2, 25.0)
        self.annulus = geometry.StaticModel(
            geometry.RadialBase(2, geometry.euclidean_profile(), (0.5, 10.0)), geometry.constant_warp(1.0))

    def _schwarzschild_graph(self, n: int) -> Op:
        H0, rho1, rho2 = 0.2, 3.0, 30.0

        def run():
            s1 = geometry.schwarzschild_s_of_rho(1.0, 3, rho1)
            s2 = geometry.schwarzschild_s_of_rho(1.0, 3, rho2)
            return graphs.solve_radial_graph(self.schw, graphs.constant_H(H0),
                                             graphs.Anchor.point(s1, 0.0, 0.0), Grid.uniform(s1, s2, n))

        def check(g):
            # F = m H0 int h g^{m-1} ds = H0 (rho^3 - rho1^3), since ds = drho / h
            rho = geometry.schwarzschild_rho_of_s(1.0, 3, g.grid.nodes)
            exact = H0 * (rho**3 - rho1**3)
            rel = _worst(g.flux, exact) / float(np.max(exact))
            return _first_failure(
                (rel <= 1e-10, f"flux relative error {rel:.3e} > 1e-10 against H0 (rho^3 - rho1^3)"),
                (abs(g.flux[-1] - H0 * (rho2**3 - rho1**3)) <= 1e-9 * g.flux[-1], "flux at rho2 is off"),
                (bool(np.all(np.diff(g.tau) > 0)), "height is not increasing"),
            )

        return Op(f"graph-schwarzschild-n{n}", run, check)

    def _hyperbolic_cmc(self, n: int) -> Op:
        def run():
            return graphs.solve_radial_graph(self.hyp, graphs.constant_H(0.5), graphs.Anchor.pole(),
                                             Grid.uniform(0.0, 8.0, n))

        def check(g):
            s = g.grid.nodes
            w = np.tanh(0.5 * s)  # W = F / g = (cosh s - 1) / sinh s
            err_f = _worst(g.flux, np.cosh(s) - 1.0)
            err_p = _worst(g.slope, w / np.sqrt(1.0 + w * w))
            return _first_failure(
                (err_f <= 1e-8, f"flux error {err_f:.3e} > 1e-8 against cosh s - 1"),
                (err_p <= 1e-10, f"slope error {err_p:.3e} > 1e-10 against the closed form"),
            )

        return Op(f"graph-hyperbolic-cmc-n{n}", run, check)

    def _newton_catenoid(self, n: int) -> Op:
        grid = Grid.uniform(1.0, 2.0, n)
        exact = np.arcsinh(grid.nodes) - np.arcsinh(1.0)
        ds = 1.0 / (n - 1)

        def run():
            op = elliptic.MeshOperator.from_model(self.annulus, grid)
            return elliptic.newton_solve(elliptic.DirichletProblem(op, np.zeros(n), (0.0, float(exact[-1]))))

        def check(u):
            # second-order scheme: the error is 4e-4 ds^2 at n=1601; allow 25x that
            err, tol = _worst(u.values, exact), 1e-2 * ds * ds + 1e-9
            return None if err <= tol else f"error {err:.3e} against asinh exceeds {tol:.3e}"

        return Op(f"newton-catenoid-n{n}", run, check)

    def _lambda1(self, n: int) -> Op:
        cells = n - 1
        ds = 20.0 / cells

        def run():
            return estimates.lambda1_estimate(self.hyp, 20.0, cells)

        def check(lam):
            # mesh-order tolerance around the truncated value, not around the
            # r -> infinity limit 1/4 (that is criterion 6's known red clause)
            tol = 1e-6 + 0.02 * ds * ds
            err = abs(lam - self.LAMBDA1_B20)
            return None if err <= tol else f"lambda1 {lam:.9f} is {err:.2e} from {self.LAMBDA1_B20} (> {tol:.2e})"

        return Op(f"lambda1-h2-b20-n{n}", run, check)

    @staticmethod
    def _barrier(n: int) -> Op:
        def run():
            b = barriers.build_barrier_schwarzschild(1.0, 3, 3.0, 6.0, beta=0.1, H0=0.2, rho_max=40.0, n=n)
            return barriers.verify_barrier(b)

        def check(reports):
            bad = [r.name for r in reports if not r.verdict]
            return f"barrier checks failed: {bad}" if bad else None

        return Op(f"barrier-schwarzschild-n{n}", run, check)

    def ops(self, k: int) -> list[Op]:
        ops = [make(n) for n in self.SIZES for make in (
            self._schwarzschild_graph, self._hyperbolic_cmc, self._newton_catenoid, self._lambda1, self._barrier)]
        return _shuffled(ops, self.seed, k)


def _sinh_power_integral(m: int, B: float, s):
    """int_0^s (sinh(sqrt(B) t) / sqrt(B))^(m-1) dt for m = 2, 3."""
    rb = math.sqrt(B)
    if m == 2:
        return (np.cosh(rb * s) - 1.0) / B
    return (np.sinh(2.0 * rb * s) / (4.0 * rb) - 0.5 * s) / B


class ModelSweep:
    """Fresh models drawn by seed from a stratified mix, each exercised on a coarse grid."""

    why = ("a fresh model per op on coarse grids (n=401): cold chart caches and cumulative_quad's scalar "
           "fallback; cost moved into per-model build time shows here, not in refine")

    # one op per slot and pass: the seed moves the parameters, never the mix
    SLOTS = (("flat", 2), ("flat", 3), ("hyperbolic", 2), ("hyperbolic", 3),
             ("schwarzschild", 3), ("schwarzschild", 4), ("schwarzschild", 5))
    N = 401

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _op(self, family: str, m: int, rng: np.random.Generator, slot: int) -> Op:
        n = self.N
        u = rng.uniform(size=3)
        if family == "flat":
            L, H0 = 2.0 + 4.0 * float(rng.uniform()), 0.2 + 0.8 * float(rng.uniform())
            params = dict(L=L, H0=H0)
        elif family == "hyperbolic":
            B = 0.5 + 1.5 * float(rng.uniform())
            # H0 ~ B^(m/2) makes every draw the same problem in units of the
            # curvature radius, so the draw changes the model and not the cost
            L, H0 = 8.0 / math.sqrt(B), 0.5 * B ** (m / 2.0)
            params = dict(B=B, L=L, H0=H0)
        else:
            mu = 0.5 + 1.5 * float(rng.uniform())
            rs = (2.0 * mu) ** (1.0 / (m - 2))
            # the same scaling in units of the horizon radius rs: the flux
            # increments per cell, and so the quadrature fallbacks, do not
            # depend on mu
            H0 = 0.2 * (2.0 ** (1.0 / (m - 2)) / rs) ** m
            params = dict(mu=mu, H0=H0)

        def run():
            if family == "flat":
                model = _pole_model(geometry.euclidean_profile(), m, 1.5 * params["L"])
                a, b, anchor = 0.0, params["L"], graphs.Anchor.pole()
            elif family == "hyperbolic":
                model = _pole_model(geometry.hyperbolic_profile(params["B"]), m, 1.5 * params["L"])
                a, b, anchor = 0.0, params["L"], graphs.Anchor.pole()
            else:
                s_of = lambda x: geometry.schwarzschild_s_of_rho(params["mu"], m, x * rs)  # noqa: E731
                model = _schwarzschild_model(params["mu"], m, (s_of(1.1), s_of(10.0)))
                a, b = s_of(1.5), s_of(8.0)
                anchor = graphs.Anchor.point(a, 0.0, 0.0)
            radii = np.sort(a + (b - a) * (0.05 + 0.9 * u))
            curv = [(float(r), geometry.curvature_sample(model, float(r)),
                     geometry.spacetime_ricci(model, float(r)), tensors.static_riemann(model, float(r)))
                    for r in radii]
            vols = estimates.weighted_volumes(model, radii) if model.base.pole_anchored else None
            graph = graphs.solve_radial_graph(model, graphs.constant_H(params["H0"]), anchor,
                                              Grid.uniform(a, b, n))
            return model, curv, vols, graph, graphs.gauge_consistency_check(graph)

        def check(out):
            model, curv, vols, graph, gauge = out
            s = graph.grid.nodes
            H0 = params["H0"]
            if family == "flat":
                ric_exact, flux = 0.0, H0 * s**m
            elif family == "hyperbolic":
                ric_exact = -(m - 1) * params["B"]
                flux = m * H0 * _sinh_power_integral(m, params["B"], s)
            else:
                ric_exact = 0.0  # vacuum
                rho = geometry.schwarzschild_rho_of_s(params["mu"], m, s)
                flux = H0 * (rho**m - rho[0] ** m)
            fails = []
            for r, cs, ric, riem in curv:
                scale = 1.0 + abs(ric_exact)
                if max(abs(ric.hor_rad - ric_exact), abs(ric.hor_tan - ric_exact), abs(ric.vert)) > 1e-8 * scale:
                    fails.append(f"Ricci at s={r:.4g} is not {ric_exact:.4g}")
                expected = np.diag([ric.hor_rad] + [ric.hor_tan] * (m - 1) + [ric.vert_frame])
                if _worst(riem.ricci(), expected) > 1e-9 * scale:
                    fails.append(f"Riemann contraction at s={r:.4g} disagrees with spacetime_ricci")
                if cs.scalar_consistency(m) > 1e-9 * scale:
                    fails.append(f"curvature sample at s={r:.4g} is inconsistent")
            if vols is not None:
                omega = estimates.sphere_area(m)
                radii = vols.radii
                if family == "flat":
                    vol, bvol = omega * radii**m / m, omega * radii ** (m - 1)
                else:
                    rb = math.sqrt(params["B"])
                    vol = omega * _sinh_power_integral(m, params["B"], radii)
                    bvol = omega * (np.sinh(rb * radii) / rb) ** (m - 1)
                if _worst(vols.vol / vol, 1.0) > 1e-9 or _worst(vols.bvol / bvol, 1.0) > 1e-9:
                    fails.append("weighted volumes differ from the closed form")
            rel = _worst(graph.flux, flux) / float(np.max(np.abs(flux)))
            if rel > 1e-9:
                fails.append(f"flux relative error {rel:.3e} > 1e-9 against the closed form")
            if not gauge.verdict:
                fails.append(f"gauge consistency {gauge.lhs:.3e} > {gauge.rhs:.1e}")
            return "; ".join(fails) or None

        label = ",".join(f"{k}={v:.6g}" for k, v in params.items() if k != "H0")
        return Op(f"sweep{slot}-{family}-m{m}({label})", run, check)

    def ops(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        order = rng.permutation(len(self.SLOTS))
        return [self._op(*self.SLOTS[i], rng, i) for i in order]


WORKLOADS = {"scenarios": Scenarios, "acceptance": Acceptance, "refine": Refine, "model-sweep": ModelSweep}

# Ops that fail at the seed commit because of a known defect.  They count in
# ``failed`` like any other failure; any failure outside this list makes the
# run incorrect.  An op that starts passing is a fix, not an error.
KNOWN_DEFECTS = {
    "criterion-6": "criterion 6's lambda1 clause compares the B_20 value 0.27168 with 0.25 (stays red)",
    **{f"newton-catenoid-n{n}": "newton_solve's 1e-9 tolerance is below the eps/ds^2 floor: "
                                "NewtonStagnationError" for n in (3201, 6401, 12801)},
}
