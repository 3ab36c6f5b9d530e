"""Reports for inequality/identity checks, plus CSV / text / SVG emitters.

Every check in the laboratory returns an :class:`EstimateReport`; verdicts
are pure functions of (margin, tol) so report rows are reproducible byte for
byte for a fixed configuration.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

STATUS_OK = "ok"
STATUS_PRECONDITION = "precondition-failure"


@dataclass(frozen=True)
class EstimateReport:
    """A named check: worst-case LHS/RHS, margin, tolerance and verdict.

    ``margin`` is oriented so that nonnegative means the inequality holds
    (margin >= -tol passes).  ``status`` distinguishes a genuine comparison
    failure from unmet preconditions.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    tol: float
    verdict: bool
    grid_meta: str = ""
    status: str = STATUS_OK
    notes: tuple[str, ...] = ()

    def with_note(self, note: str) -> "EstimateReport":
        return replace(self, notes=self.notes + (note,))


def make_report(name, lhs, rhs, margin, tol, grid_meta="", notes=()) -> EstimateReport:
    return EstimateReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        tol=float(tol),
        verdict=bool(margin >= -tol),
        grid_meta=grid_meta,
        notes=tuple(notes),
    )


def precondition_failure(name, tol, notes=()) -> EstimateReport:
    return EstimateReport(
        name=name,
        lhs=float("nan"),
        rhs=float("nan"),
        margin=float("nan"),
        tol=float(tol),
        verdict=False,
        status=STATUS_PRECONDITION,
        notes=tuple(notes),
    )


def _fmt(x: float) -> str:
    if isinstance(x, float) and np.isnan(x):
        return "nan"
    return repr(float(x))


def reports_to_csv(reports) -> str:
    lines = ["check,lhs,rhs,margin,tol,verdict"]
    for r in reports:
        verdict = "pass" if r.verdict else ("precondition-failure" if r.status == STATUS_PRECONDITION else "fail")
        lines.append(
            f"{r.name},{_fmt(r.lhs)},{_fmt(r.rhs)},{_fmt(r.margin)},{_fmt(r.tol)},{verdict}"
        )
    return "\n".join(lines) + "\n"


def write_reports_csv(reports, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(reports_to_csv(reports))


def write_table(path, header: str, columns, sep: str = ",") -> None:
    """Write equal-length float columns as rows under ``header``.

    Each value is written as ``repr(float)``, so the file reads back
    bit-exactly.  Values are converted as their rows are written: neither
    the file's text nor a list of its floats is held in memory at once.
    """
    cols = [map(float, np.asarray(c, dtype=float)) for c in columns]
    row_format = sep.join(["%r"] * len(cols)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format % row for row in zip(*cols))


def reports_to_text(reports) -> str:
    out = io.StringIO()
    width = max([len(r.name) for r in reports] + [5])
    for r in reports:
        tag = "PASS" if r.verdict else ("PRE-FAIL" if r.status == STATUS_PRECONDITION else "FAIL")
        out.write(f"{r.name.ljust(width)}  {tag:8s}  margin={r.margin:.6g}  tol={r.tol:.3g}\n")
        if r.grid_meta:
            out.write(f"{'':{width}}  grid: {r.grid_meta}\n")
        for note in r.notes:
            out.write(f"{'':{width}}  note: {note}\n")
    return out.getvalue()


def svg_polyline(xs, ys, path, title="") -> None:
    """Write a single-polyline SVG plot; a convenience, never a verdict input."""
    width, height, margin = 640, 400, 48
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = margin + (xs - x0) / (x1 - x0) * (width - 2 * margin)
    py = height - margin - (ys - y0) / (y1 - y0) * (height - 2 * margin)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="24" font-family="monospace" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" height="{height - 2 * margin}" fill="none" stroke="#999"/>',
        f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>',
        f'<text x="{margin}" y="{height - 12}" font-family="monospace" font-size="11">x: [{x0:.6g}, {x1:.6g}]  y: [{y0:.6g}, {y1:.6g}]</text>',
        "</svg>",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")
